//! Experiment E7: Example 5's deadlock under the naive condition-(2)
//! protocol, and its absence under PCP-DA (Theorem 2).

use rtdb::paper;
use rtdb::prelude::*;
use rtdb::sim::TraceEvent;

fn inst(t: u32) -> InstanceId {
    InstanceId::first(TxnId(t))
}

/// Example 5 under Naive-DA ends in the circular wait the paper
/// constructs: T_H waits for T_L's read lock on x; T_L (inheriting P_H)
/// waits for T_H's read lock on y.
#[test]
fn example5_naive_da_deadlocks() {
    let set = paper::example5();
    let r = Engine::new(&set, SimConfig::default())
        .run(&mut NaiveDa::new())
        .unwrap();
    let (th, tl) = (inst(0), inst(1));

    match &r.outcome {
        RunOutcome::Deadlock(cycle) => {
            assert_eq!(cycle.len(), 2);
            assert!(cycle.contains(&th) && cycle.contains(&tl));
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
    assert!(r
        .trace
        .events()
        .iter()
        .any(|e| matches!(e, TraceEvent::DeadlockDetected { .. })));
    // Neither transaction committed.
    assert_eq!(r.history.committed(), 0);
}

/// The same arrival pattern under PCP-DA: T_H's read of y is denied up
/// front (LC3 fails on `y ∈ WriteSet(T*)`), T_L finishes, then T_H — no
/// deadlock, both commit.
#[test]
fn example5_pcpda_completes() {
    let set = paper::example5();
    let r = Engine::new(&set, SimConfig::default())
        .run(&mut PcpDa::new())
        .unwrap();
    assert_eq!(r.outcome, RunOutcome::Completed);
    assert_eq!(r.history.committed(), 2);
    // T_L commits first (T_H blocked behind it), serialization is clean.
    assert_eq!(r.history.commit_order()[0], inst(1));
    assert!(r.replay_check(&set).is_serializable());
    assert!(r.is_conflict_serializable());
}

/// Example 5 under every other ceiling protocol also completes —
/// deadlock freedom is the family property PCP-DA preserves.
#[test]
fn example5_other_ceiling_protocols_complete() {
    let set = paper::example5();
    for kind in [ProtocolKind::RwPcp, ProtocolKind::Pcp, ProtocolKind::Ccp] {
        let r = Engine::new(&set, SimConfig::default())
            .run_kind(kind)
            .unwrap();
        assert_eq!(
            r.outcome,
            RunOutcome::Completed,
            "{kind} deadlocked on Example 5"
        );
        assert_eq!(r.history.committed(), 2, "{kind}");
    }
}

/// Plain 2PL with priority inheritance deadlocks on Example 5 too (it has
/// no ceilings); with resolution enabled the victim restarts and both
/// eventually commit.
#[test]
fn example5_twopl_pi_deadlocks_and_resolves() {
    let set = paper::example5();

    let stopped = Engine::new(&set, SimConfig::default())
        .run(&mut TwoPlPi::new())
        .unwrap();
    assert!(matches!(stopped.outcome, RunOutcome::Deadlock(_)));

    let resolved = Engine::new(&set, SimConfig::default().resolving_deadlocks())
        .run(&mut TwoPlPi::new())
        .unwrap();
    assert_eq!(resolved.outcome, RunOutcome::Completed);
    assert_eq!(resolved.history.committed(), 2);
    assert!(
        resolved.history.aborts() >= 1,
        "a victim must have restarted"
    );
    assert!(resolved.replay_check(&set).is_serializable());
}

/// 2PL-HP cannot deadlock on Example 5: the higher-priority requester
/// aborts the holder instead of waiting.
#[test]
fn example5_twopl_hp_restarts_instead() {
    let set = paper::example5();
    let r = Engine::new(&set, SimConfig::default())
        .run(&mut TwoPlHp::new())
        .unwrap();
    assert_eq!(r.outcome, RunOutcome::Completed);
    assert_eq!(r.history.committed(), 2);
    assert!(r.history.aborts() >= 1);
    assert!(r.replay_check(&set).is_serializable());
}

/// PCP-DA never aborts anything, anywhere: its no-restart guarantee on
/// the paper's four example workloads.
#[test]
fn pcpda_never_restarts() {
    for set in [
        paper::example1(),
        paper::example3(),
        paper::example4(),
        paper::example5(),
    ] {
        let r = Engine::new(&set, SimConfig::default())
            .run(&mut PcpDa::new())
            .unwrap();
        assert_eq!(r.history.aborts(), 0);
        assert_eq!(r.metrics.total_restarts(), 0);
        assert_eq!(r.outcome, RunOutcome::Completed);
    }
}
