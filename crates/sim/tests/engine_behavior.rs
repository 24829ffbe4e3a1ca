//! Engine behaviour tests: aborts/restarts, deadlock resolution, early
//! release visibility, accounting, and configuration edge cases.

use rtdb_baselines::{Ccp, NaiveDa, TwoPlHp, TwoPlPi};
use rtdb_cc::PcpDa;
use rtdb_core::{AbortReason, Effect, ProtocolKind};
use rtdb_sim::{Engine, RunOutcome, SimConfig, WorkloadParams};
use rtdb_types::*;

fn inst(t: u32) -> InstanceId {
    InstanceId::first(TxnId(t))
}

// Local copies of the paper's example sets (the facade crate `rtdb`
// depends on this crate, so we cannot import `rtdb::paper` here).
fn example1() -> TransactionSet {
    SetBuilder::new()
        .with(
            TransactionTemplate::new("T1", 20, vec![Step::read(ItemId(0), 1)])
                .with_offset(2)
                .with_instances(1),
        )
        .with(
            TransactionTemplate::new("T2", 20, vec![Step::read(ItemId(1), 1)])
                .with_offset(1)
                .with_instances(1),
        )
        .with(TransactionTemplate::new("T3", 20, vec![Step::write(ItemId(0), 3)]).with_instances(1))
        .build()
        .unwrap()
}

fn example4() -> TransactionSet {
    SetBuilder::new()
        .with(
            TransactionTemplate::new("T1", 30, vec![Step::read(ItemId(0), 2)])
                .with_offset(4)
                .with_instances(1),
        )
        .with(
            TransactionTemplate::new("T2", 30, vec![Step::write(ItemId(1), 2)])
                .with_offset(9)
                .with_instances(1),
        )
        .with(
            TransactionTemplate::new(
                "T3",
                30,
                vec![Step::read(ItemId(2), 1), Step::write(ItemId(2), 1)],
            )
            .with_offset(1)
            .with_instances(1),
        )
        .with(
            TransactionTemplate::new(
                "T4",
                30,
                vec![
                    Step::read(ItemId(1), 1),
                    Step::write(ItemId(0), 1),
                    Step::compute(3),
                ],
            )
            .with_instances(1),
        )
        .build()
        .unwrap()
}

fn example5() -> TransactionSet {
    SetBuilder::new()
        .with(
            TransactionTemplate::new(
                "TH",
                10,
                vec![Step::read(ItemId(1), 1), Step::write(ItemId(0), 1)],
            )
            .with_offset(1)
            .with_instances(1),
        )
        .with(
            TransactionTemplate::new(
                "TL",
                10,
                vec![Step::read(ItemId(0), 1), Step::write(ItemId(1), 1)],
            )
            .with_instances(1),
        )
        .build()
        .unwrap()
}

/// H arrives second and aborts L under 2PL-HP; L restarts and still
/// commits with correct values.
#[test]
fn twopl_hp_abort_restarts_cleanly() {
    let x = ItemId(0);
    let set = SetBuilder::new()
        .with(
            TransactionTemplate::new("H", 50, vec![Step::write(x, 2)])
                .with_offset(1)
                .with_instances(1),
        )
        .with(
            TransactionTemplate::new("L", 50, vec![Step::write(x, 3), Step::compute(2)])
                .with_instances(1),
        )
        .build()
        .unwrap();
    let r = Engine::new(&set, SimConfig::default())
        .run(&mut TwoPlHp::new())
        .unwrap();
    assert_eq!(r.outcome, RunOutcome::Completed);
    assert_eq!(r.history.committed(), 2);
    assert_eq!(r.history.aborts(), 1);
    let l = r.metrics.instance(inst(1)).unwrap();
    assert_eq!(l.restarts, 1);
    // L re-ran from scratch: its final commit installs its own value.
    assert!(r.replay_check(&set).is_serializable());
    // H committed first (it preempted and aborted L).
    assert_eq!(r.history.commit_order()[0], inst(0));
}

/// Deadlock resolution aborts the lowest-priority cycle member and the
/// run completes; without resolution the same workload reports the cycle.
#[test]
fn deadlock_resolution_toggle() {
    let set = example5();
    let stuck = Engine::new(&set, SimConfig::default())
        .run(&mut NaiveDa::new())
        .unwrap();
    assert!(matches!(stuck.outcome, RunOutcome::Deadlock(_)));

    let resolved = Engine::new(&set, SimConfig::default().resolving_deadlocks())
        .run(&mut NaiveDa::new())
        .unwrap();
    assert_eq!(resolved.outcome, RunOutcome::Completed);
    assert!(resolved.history.aborts() >= 1);
    // The victim must be the lowest-priority member of the cycle (TL).
    assert!(resolved
        .trace
        .events()
        .iter()
        .any(|(_, e)| matches!(e, Effect::Aborted(who, ..) if who.txn == TxnId(1))));
    assert!(resolved.replay_check(&set).is_serializable());
}

/// CCP's early release installs the written value so later readers see
/// it before the writer commits.
#[test]
fn ccp_early_install_is_visible() {
    let (a, b) = (ItemId(0), ItemId(1));
    // W writes a (high ceiling via H's access), then computes for a long
    // time; R arrives mid-computation and reads a.
    let set = SetBuilder::new()
        .with(
            TransactionTemplate::new("R", 100, vec![Step::read(a, 1)])
                .with_offset(6)
                .with_instances(1),
        )
        .with(
            TransactionTemplate::new(
                "W",
                100,
                vec![Step::write(a, 2), Step::read(b, 1), Step::compute(8)],
            )
            .with_instances(1),
        )
        .build()
        .unwrap();
    let r = Engine::new(&set, SimConfig::default())
        .run(&mut Ccp::new())
        .unwrap();
    assert_eq!(r.outcome, RunOutcome::Completed);

    // W early-releases its write lock on `a` once past its lock point;
    // the install happens at that moment, before W's commit.
    let release_at = r.trace.events().iter().find_map(|&(at, e)| match e {
        Effect::Released(_, item, _) if item == a => Some(at.raw()),
        _ => None,
    });
    let w_commit = r.metrics.instance(inst(1)).unwrap().completion.unwrap();
    if let Some(rel) = release_at {
        assert!(rel < w_commit.raw(), "early release precedes commit");
        // R (arriving at 6) read W's value, not the initial one.
        let read_event = r.history.events().iter().find_map(|e| {
            if e.instance == inst(0) {
                if let rtdb_storage::EventKind::Read { version, .. } = e.kind {
                    return Some(version);
                }
            }
            None
        });
        assert_eq!(read_event, Some(1), "R observed W's early-installed write");
    }
    // Either way the run is serializable by the graph oracle.
    assert!(r.is_conflict_serializable());
    assert!(r
        .replay_check_topological(&set)
        .expect("acyclic")
        .is_serializable());
}

/// Directed cascade: A early-releases a write that B and C dirty-read,
/// then A self-aborts against a senior holder — B and C must be
/// cascade-aborted exactly once each, and the rerun loses no updates.
///
/// Brook-2PL is the vehicle because its wait-die order is *seniority*
/// (template order), not priority: the senior-and-higher-priority B and
/// C preempt the junior A mid-compute, dirty-read its retired write on
/// `x` and become dependents (senior → junior gate edges), while A later
/// dies wait-die style against the senior S.
#[test]
fn early_release_cascade_aborts_dependents_exactly_once() {
    let (x, y) = (ItemId(0), ItemId(1));
    let set = SetBuilder::new()
        // S: most senior, lowest priority; pins a read lock on y for the
        // whole run so the junior A's eventual `write y` wait-dies.
        .with(
            TransactionTemplate::new("S", 150, vec![Step::read(y, 1), Step::compute(25)])
                .with_instances(1),
        )
        // B and C: senior to A, higher priority — they preempt A's
        // compute window, dirty-read x and gate on A at commit.
        .with(
            TransactionTemplate::new("B", 60, vec![Step::read(x, 1), Step::compute(1)])
                .with_offset(3)
                .with_instances(1),
        )
        .with(
            TransactionTemplate::new("C", 50, vec![Step::read(x, 1), Step::compute(1)])
                .with_offset(4)
                .with_instances(1),
        )
        // A: most junior. Writes x (which retires immediately — nothing
        // later touches it), computes, then hits the senior S on y.
        .with(
            TransactionTemplate::new(
                "A",
                90,
                vec![Step::write(x, 1), Step::compute(10), Step::write(y, 1)],
            )
            .with_offset(1)
            .with_instances(1),
        )
        // Rate-monotonic: priority comes from the period, so the
        // insertion order above is free to encode seniority (S < A < B
        // < C) while the priority order crosses it (C > B > A > S).
        .build_rate_monotonic()
        .unwrap();
    let r = Engine::new(&set, SimConfig::default())
        .run(&mut rtdb_sim::instantiate(
            rtdb_core::ProtocolKind::Brook2Pl,
        ))
        .unwrap();
    assert_eq!(r.outcome, RunOutcome::Completed);
    assert_eq!(r.history.committed(), 4);

    // A self-aborted once; B and C each aborted exactly once, as cascades.
    let aborts_of = |t: u32| -> Vec<AbortReason> {
        r.trace
            .events()
            .iter()
            .filter_map(|&(_, e)| match e {
                Effect::Aborted(who, reason, _) if who.txn == TxnId(t) => Some(reason),
                _ => None,
            })
            .collect()
    };
    assert_eq!(
        aborts_of(3),
        [AbortReason::CeilingBlock],
        "A self-aborted once"
    );
    assert_eq!(
        aborts_of(1),
        [AbortReason::Cascade],
        "B cascade-aborted exactly once"
    );
    assert_eq!(
        aborts_of(2),
        [AbortReason::Cascade],
        "C cascade-aborted exactly once"
    );
    assert!(aborts_of(0).is_empty(), "the senior holder never aborts");
    assert_eq!(r.metrics.abort_reasons.ceiling_block, 1);
    assert_eq!(r.metrics.abort_reasons.cascade, 2);
    assert_eq!(r.metrics.abort_reasons.wound, 0);

    // No lost updates: the final database matches a serial replay.
    assert!(r.is_conflict_serializable());
    assert!(r
        .replay_check_topological(&set)
        .expect("acyclic")
        .is_serializable());
}

/// The event budget aborts runaway configurations instead of hanging.
#[test]
fn event_budget_is_enforced() {
    let set = SetBuilder::new()
        .with(TransactionTemplate::new("A", 10, vec![Step::compute(1)]))
        .build()
        .unwrap();
    let mut cfg = SimConfig::with_horizon(1_000_000);
    cfg.max_steps = 10; // absurdly small
    let err = Engine::new(&set, cfg).run(&mut PcpDa::new()).unwrap_err();
    assert!(matches!(err, Error::EventBudgetExhausted));
}

/// Explicit instance counts override the horizon; offsets shift releases.
#[test]
fn arrivals_respect_instances_and_offsets() {
    let set = SetBuilder::new()
        .with(
            TransactionTemplate::new("A", 10, vec![Step::compute(1)])
                .with_offset(3)
                .with_instances(3),
        )
        .build()
        .unwrap();
    let r = Engine::new(&set, SimConfig::with_horizon(5))
        .run(&mut PcpDa::new())
        .unwrap();
    // All 3 instances run even though the horizon is 5 (explicit count).
    assert_eq!(r.history.committed(), 3);
    let arrivals: Vec<u64> = r
        .trace
        .events()
        .iter()
        .filter_map(|&(at, e)| matches!(e, Effect::Arrived(_)).then_some(at.raw()))
        .collect();
    assert_eq!(arrivals, vec![3, 13, 23]);
}

/// lower_exec accounts exactly the lower-priority CPU time during an
/// instance's lifetime (Figure 1's T1: T3 runs 1 tick while T1 is live).
#[test]
fn lower_exec_accounting_matches_figure1() {
    let set = example1();
    let r = Engine::new(&set, SimConfig::default())
        .run(&mut rtdb_baselines::RwPcp::new())
        .unwrap();
    let t1 = r.metrics.instance(inst(0)).unwrap();
    // T1 arrives at 2; T3 (lower) runs 2..3 => 1 tick of lower execution.
    assert_eq!(t1.lower_exec, Duration(1));
    let t2 = r.metrics.instance(inst(1)).unwrap();
    // T2 arrives at 1; T3 runs 1..3 (2 ticks); T1 is higher than T2 so
    // its execution is interference, not lower_exec.
    assert_eq!(t2.lower_exec, Duration(2));
}

/// 2PL-PI without resolution must *stop* at the deadlock with partial
/// metrics (unfinished instances recorded, blocked segments flushed).
#[test]
fn deadlock_stop_flushes_partial_state() {
    let set = example5();
    let r = Engine::new(&set, SimConfig::default())
        .run(&mut TwoPlPi::new())
        .unwrap();
    let RunOutcome::Deadlock(cycle) = &r.outcome else {
        panic!("expected deadlock");
    };
    assert_eq!(cycle.len(), 2);
    // Both instances are recorded as unfinished.
    for t in 0..2 {
        let m = r.metrics.instance(inst(t)).unwrap();
        assert_eq!(m.completion, None);
        assert!(!m.met_deadline());
    }
}

/// `ProtocolKind::releases_early` says what the protocols do. Only
/// `step_done` logs `Effect::Released`, so a kind that claims no release
/// before commit never logs one over a fixed batch of seeded sets, and a
/// kind that claims one logs it on at least one set. The runtime crosses
/// a boundary before a compute step without its state lock on that word.
#[test]
fn releases_early_matches_what_the_protocols_release() {
    let sets: Vec<TransactionSet> = (0..12)
        .map(|seed| {
            let params = WorkloadParams {
                hotspot_items: 3,
                hotspot_prob: 0.5,
                seed,
                ..WorkloadParams::default()
            };
            params.generate().expect("workload").set
        })
        .collect();
    let config = SimConfig::with_horizon(2_000).resolving_deadlocks();
    for kind in ProtocolKind::ALL {
        let released = sets
            .iter()
            .filter(|set| {
                let run = Engine::new(set, config.clone()).run_kind(kind).unwrap();
                let events = run.trace.events();
                events
                    .iter()
                    .any(|(_, e)| matches!(e, Effect::Released(..)))
            })
            .count();
        if kind.releases_early() {
            assert!(released > 0, "{kind} never released before commit");
        } else {
            assert_eq!(released, 0, "{kind} released before commit");
        }
    }
}

/// Identical runs byte-for-byte: the trace, history and metrics agree
/// across repeated executions (engine determinism at the API level).
#[test]
fn engine_determinism() {
    let set = example4();
    let a = Engine::new(&set, SimConfig::default())
        .run(&mut PcpDa::new())
        .unwrap();
    let b = Engine::new(&set, SimConfig::default())
        .run(&mut PcpDa::new())
        .unwrap();
    assert_eq!(a.history.events(), b.history.events());
    assert_eq!(a.trace.segments(), b.trace.segments());
    assert_eq!(a.db.snapshot(), b.db.snapshot());
}

#[test]
fn metrics_come_back_in_id_order_whatever_the_retirement_order() {
    // Template 0 is the lowest priority and the longest: both instances of
    // template 1 commit before it, so instances retire out of id order.
    let set = SetBuilder::new()
        .with(TransactionTemplate::new("slow", 20, vec![Step::compute(6)]).with_instances(1))
        .with(TransactionTemplate::new("fast", 5, vec![Step::compute(1)]).with_instances(2))
        .build_with_priorities(&[1, 2])
        .unwrap();
    let run = Engine::new(&set, SimConfig::default())
        .run(&mut PcpDa::new())
        .unwrap();
    let slow = InstanceId::new(TxnId(0), 0);
    let fast = [InstanceId::new(TxnId(1), 0), InstanceId::new(TxnId(1), 1)];
    let done = |id| run.metrics.instance(id).unwrap().completion.unwrap();
    assert!(
        fast.iter().all(|&f| done(f) < done(slow)),
        "retired out of id order"
    );
    let ids: Vec<InstanceId> = run.metrics.instances().map(|m| m.id).collect();
    assert_eq!(ids, vec![slow, fast[0], fast[1]]);
    for id in ids {
        assert_eq!(run.metrics.instance(id).unwrap().id, id);
    }
    assert!(run.metrics.instance(InstanceId::new(TxnId(1), 2)).is_none());
}
