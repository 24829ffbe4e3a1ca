//! Experiments E1–E5: reproduce Figures 1–5 of the paper tick-for-tick.
//!
//! Each test runs the example's transaction set through the simulator
//! under the protocol the figure depicts and asserts the *exact* event
//! times the paper's narrative states: lock grants and denials, blocking
//! intervals, completions, deadline misses and `Max_Sysceil`.

use rtdb::paper;
use rtdb::prelude::*;
use rtdb::sim::TraceEvent;

fn inst(t: u32) -> InstanceId {
    InstanceId::first(TxnId(t))
}

fn run<P: for<'k> ProtocolFor<StateKernel<'k>>>(
    set: &TransactionSet,
    protocol: &mut P,
) -> RunResult {
    Engine::new(set, SimConfig::default())
        .run(protocol)
        .expect("simulation runs")
}

fn completion(r: &RunResult, who: InstanceId) -> u64 {
    r.metrics
        .instance(who)
        .and_then(|m| m.completion)
        .unwrap_or_else(|| panic!("{who} did not complete"))
        .raw()
}

fn blocking(r: &RunResult, who: InstanceId) -> u64 {
    r.metrics.instance(who).unwrap().blocking.raw()
}

/// Figure 1 (Example 1, RW-PCP): T3 write-locks x at 0; T2 is
/// ceiling-blocked at 1 although y is free; T1 is conflict-blocked at 2;
/// T3 completes at 3; T1 then T2 finish by 5.
#[test]
fn figure1_example1_under_rwpcp() {
    let set = paper::example1();
    let (t1, t2, t3) = (inst(0), inst(1), inst(2));
    let r = run(&set, &mut RwPcp::new());

    assert_eq!(r.outcome, RunOutcome::Completed);
    assert_eq!(completion(&r, t3), 3);
    assert_eq!(completion(&r, t1), 4);
    assert_eq!(completion(&r, t2), 5);

    // T2's ceiling blocking: denied at 1, resumed at 3 => 2 ticks blocked.
    assert_eq!(blocking(&r, t2), 2);
    // T1's conflict blocking: denied at 2, resumed at 3 => 1 tick.
    assert_eq!(blocking(&r, t1), 1);

    // The paper's point: T2 was blocked although y was completely free.
    let denied_t2 = r.trace.events().iter().any(|e| {
        matches!(e, TraceEvent::Denied { at, who, item, .. }
            if *who == t2 && *item == paper::Y && at.raw() == 1)
    });
    assert!(
        denied_t2,
        "T2 must be denied read-lock on free item y at t=1"
    );

    // Single blocking: each blocked transaction was blocked only by T3.
    for who in [t1, t2] {
        assert_eq!(
            r.metrics.instance(who).unwrap().distinct_lower_blockers,
            vec![TxnId(2)]
        );
    }
    assert!(r.replay_check(&set).is_serializable());
}

/// Figure 2 (Example 3, PCP-DA): T1 preempts T2's write locks and never
/// blocks; completions at 3, 8 (T1's instances) and 9 (T2).
#[test]
fn figure2_example3_under_pcpda() {
    let set = paper::example3();
    let mut protocol = PcpDa::new();
    let r = run(&set, &mut protocol);

    let t1a = InstanceId::new(TxnId(0), 0);
    let t1b = InstanceId::new(TxnId(0), 1);
    let t2 = inst(1);

    assert_eq!(completion(&r, t1a), 3);
    assert_eq!(completion(&r, t1b), 8);
    assert_eq!(completion(&r, t2), 9);
    assert_eq!(blocking(&r, t1a), 0);
    assert_eq!(blocking(&r, t1b), 0);
    assert_eq!(blocking(&r, t2), 0);
    assert_eq!(r.metrics.deadline_misses(), 0);

    // Narrative checks: T2 write-locks x at 0 (LC1); T1 read-locks x at 1
    // although x is write-locked (LC2); T2 write-locks y at 5 (LC1).
    let grants = protocol.grant_log();
    let lc = |who: InstanceId, item: ItemId| {
        grants
            .iter()
            .find(|(req, _)| req.who == who && req.item == item)
            .map(|(_, rule)| *rule)
            .unwrap_or_else(|| panic!("no grant for {who} on {item}"))
    };
    assert_eq!(lc(t2, paper::X), GrantRule::Lc1);
    assert_eq!(lc(t1a, paper::X), GrantRule::Lc2);
    assert_eq!(lc(t1a, paper::Y), GrantRule::Lc2);
    assert_eq!(lc(t2, paper::Y), GrantRule::Lc1);

    assert!(r.replay_check(&set).is_serializable());
    assert!(r.is_conflict_serializable());
}

/// Figure 3 (Example 3, RW-PCP): T1's first instance is blocked from 1 to
/// 5 (worst-case effective blocking 4), completes at 7 and misses its
/// deadline at 6; T2 completes at 5.
#[test]
fn figure3_example3_under_rwpcp() {
    let set = paper::example3();
    let r = run(&set, &mut RwPcp::new());

    let t1a = InstanceId::new(TxnId(0), 0);
    let t1b = InstanceId::new(TxnId(0), 1);
    let t2 = inst(1);

    assert_eq!(blocking(&r, t1a), 4);
    assert_eq!(completion(&r, t2), 5);
    assert_eq!(completion(&r, t1a), 7);
    assert!(!r.metrics.instance(t1a).unwrap().met_deadline());
    assert_eq!(r.metrics.deadline_misses(), 1);

    // The miss is logged at the deadline tick, 6.
    assert!(r.trace.events().iter().any(|e| matches!(
        e,
        TraceEvent::DeadlineMiss { at, who } if *who == t1a && at.raw() == 6
    )));

    // The second instance (arrives at 6) is unaffected and meets t=11.
    assert_eq!(completion(&r, t1b), 9);
    assert!(r.metrics.instance(t1b).unwrap().met_deadline());

    assert!(r.replay_check(&set).is_serializable());
}

/// Figure 4 (Example 4, PCP-DA): grants at the narrative's times — T3
/// read-locks z at 1 via LC4 and upgrades via LC1 at 2; T1 preempts T4 at
/// 4 via LC2; completions T3@3, T1@6, T4@9, T2@11; `Max_Sysceil = P2`,
/// dummy from t=9.
#[test]
fn figure4_example4_under_pcpda() {
    let set = paper::example4();
    let mut protocol = PcpDa::new();
    let r = run(&set, &mut protocol);

    let (t1, t2, t3, t4) = (inst(0), inst(1), inst(2), inst(3));
    assert_eq!(completion(&r, t3), 3);
    assert_eq!(completion(&r, t1), 6);
    assert_eq!(completion(&r, t4), 9);
    assert_eq!(completion(&r, t2), 11);
    for who in [t1, t2, t3, t4] {
        assert_eq!(blocking(&r, who), 0, "{who} must not block under PCP-DA");
    }

    let grants = protocol.grant_log();
    let rule_at = |who: InstanceId, item: ItemId| {
        grants
            .iter()
            .find(|(req, _)| req.who == who && req.item == item)
            .map(|(_, r)| *r)
            .unwrap()
    };
    // Narrative: T4 read-locks y at 0 (LC2, nothing locked); T3 read-locks
    // z at 1 via LC4; T3 write-locks z at 2 via LC1; T4 write-locks x via
    // LC1; T1 read-locks x via LC2; T2 write-locks y via LC1.
    assert_eq!(rule_at(t4, paper::Y), GrantRule::Lc2);
    assert_eq!(rule_at(t3, paper::Z), GrantRule::Lc4);
    assert_eq!(rule_at(t1, paper::X), GrantRule::Lc2);
    assert_eq!(rule_at(t2, paper::Y), GrantRule::Lc1);

    // Max_Sysceil stays at P2 (Wceil(y)) while y is read-locked, and
    // drops to dummy at t=9.
    assert_eq!(
        r.trace.max_system_ceiling(),
        set.priority_of(TxnId(1)).as_ceiling()
    );
    let last = r.trace.ceiling_samples().last().copied().unwrap();
    assert_eq!(last, (Tick(9), Ceiling::Dummy));

    assert!(r.replay_check(&set).is_serializable());
}

/// Figure 5 (Example 4, RW-PCP): T3 is ceiling-blocked for 4 ticks, T1
/// conflict-blocked for 1; completions T4@5, T1@7, T3@9, T2@11;
/// `Max_Sysceil` reaches P1 (Aceil(x)) while T4 write-holds x.
#[test]
fn figure5_example4_under_rwpcp() {
    let set = paper::example4();
    let r = run(&set, &mut RwPcp::new());

    let (t1, t2, t3, t4) = (inst(0), inst(1), inst(2), inst(3));
    assert_eq!(completion(&r, t4), 5);
    assert_eq!(completion(&r, t1), 7);
    assert_eq!(completion(&r, t3), 9);
    assert_eq!(completion(&r, t2), 11);

    // "The effective blocking times of T1 and T3 blocked by T4 are 1 and
    // 4 time units respectively."
    assert_eq!(blocking(&r, t1), 1);
    assert_eq!(blocking(&r, t3), 4);
    assert_eq!(
        r.metrics.instance(t3).unwrap().distinct_lower_blockers,
        vec![TxnId(3)]
    );

    // T3's denial at t=1 is a *ceiling* blocking: the item z it asked for
    // is entirely free.
    assert!(r.trace.events().iter().any(|e| matches!(
        e,
        TraceEvent::Denied { at, who, item, .. }
            if *who == t3 && *item == paper::Z && at.raw() == 1
    )));

    // Max_Sysceil under RW-PCP climbs to P1 = Aceil(x).
    assert_eq!(
        r.trace.max_system_ceiling(),
        set.priority_of(TxnId(0)).as_ceiling()
    );

    assert!(r.replay_check(&set).is_serializable());
}

/// The Max_Sysceil push-down claim of §6: on Example 4, PCP-DA's maximum
/// system ceiling (P2) is strictly below RW-PCP's (P1).
#[test]
fn example4_ceiling_pushdown_pcpda_below_rwpcp() {
    let set = paper::example4();
    let da = run(&set, &mut PcpDa::new());
    let rw = run(&set, &mut RwPcp::new());
    assert!(da.trace.max_system_ceiling() < rw.trace.max_system_ceiling());
}

/// Under PCP (single absolute ceilings) Example 3 behaves no better than
/// RW-PCP for T1 — the read/write semantics cannot help a pure-reader.
#[test]
fn example3_under_original_pcp_also_blocks_t1() {
    let set = paper::example3();
    let r = run(&set, &mut Pcp::new());
    let t1a = InstanceId::new(TxnId(0), 0);
    assert!(blocking(&r, t1a) >= 4);
    assert!(r.replay_check(&set).is_serializable());
}
