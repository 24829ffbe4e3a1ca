//! ROADMAP item 1(a), the directed staging: PCP-DA's multi-core
//! serializability hole, at kernel level, on one thread.
//!
//! Dynamic adjustment lets `T_H` read the pre-image of an item `T_L` has
//! write-locked and serialize `T_H → T_L`. On one CPU that is safe —
//! `T_L` cannot run, let alone commit, before `T_H` finishes. Nothing in
//! the kernel enforces it, though: the schedule below is what a second
//! worker makes possible, `T_L` commits first, `T_H` then reads what
//! `T_L` installed, and the serialization graph closes `T_H → T_L → T_H`.
//! No threads, no seed, no soak — a bare [`StateKernel`] and [`PcpDa`]
//! driven by hand.
//!
//! This pins today's defect. Item 1's fix (the reader let past a writer
//! *precedes* it, so the writer waits at its commit gate) inverts the last
//! two assertions: `gate(T_L)` is `true` until `T_H` finishes, and there
//! is no cycle.

use rtdb_cc::{GrantRule, PcpDa};
use rtdb_core::{Acquire, StateKernel};
use rtdb_storage::{SerializationGraph, Workspace};
use rtdb_types::{
    InstanceId, ItemId, LockMode, SetBuilder, Step, Tick, TransactionTemplate, TxnId,
};

const X: ItemId = ItemId(0);
const Y: ItemId = ItemId(1);

#[test]
fn writer_committing_under_a_reader_closes_a_cycle() {
    let set = SetBuilder::new()
        .with(TransactionTemplate::new(
            "T_H",
            10,
            vec![Step::read(X, 1), Step::read(Y, 1)],
        ))
        .with(TransactionTemplate::new(
            "T_L",
            20,
            vec![Step::write(X, 1), Step::write(Y, 1)],
        ))
        .build_rate_monotonic()
        .expect("set");
    let (t_h, t_l) = (InstanceId::first(TxnId(0)), InstanceId::first(TxnId(1)));

    let mut p = PcpDa::new();
    let mut k = StateKernel::new(&set, None);
    let (mut ws_h, mut ws_l) = (Workspace::new(t_h), Workspace::new(t_l));
    let mut clock = 0;
    let mut tick = || {
        clock += 1;
        Tick(clock)
    };
    let granted = Acquire::Done { granted: true };
    k.begin(t_l, Some(tick()));
    k.begin(t_h, Some(tick()));

    // T_L write-locks x; T_H reads x's pre-image past it.
    let got = k.acquire(&mut p, t_l, 0, X, LockMode::Write, &mut ws_l, &mut tick);
    assert_eq!(got, granted);
    let got = k.acquire(&mut p, t_h, 0, X, LockMode::Read, &mut ws_h, &mut tick);
    assert_eq!(got, granted);
    // T_L write-locks y and commits — while T_H, which must precede it,
    // is still running.
    let got = k.acquire(&mut p, t_l, 1, Y, LockMode::Write, &mut ws_l, &mut tick);
    assert_eq!(got, granted);
    assert!(!k.gate(t_l), "item 1: T_L waits here until T_H finishes");
    k.install(t_l, &ws_l, tick(), true, None);
    k.finish_commit(t_l);
    // T_H reads the y that T_L installed, and commits.
    let got = k.acquire(&mut p, t_h, 1, Y, LockMode::Read, &mut ws_h, &mut tick);
    assert_eq!(got, granted);
    let versions: Vec<u64> = ws_h.reads().iter().map(|r| r.version).collect();
    assert_eq!(versions, [0, 1], "x before T_L's install, y after it");
    assert!(!k.gate(t_h));
    k.install(t_h, &ws_h, tick(), true, None);
    k.finish_commit(t_h);

    let rules: Vec<GrantRule> = p.grant_log().iter().map(|&(_, rule)| rule).collect();
    assert_eq!(
        rules,
        [
            GrantRule::Lc1,
            GrantRule::Lc2,
            GrantRule::Lc1,
            GrantRule::Lc2
        ]
    );
    let mut cycle = SerializationGraph::build(k.history())
        .find_cycle()
        .expect("item 1: no cycle once T_L waits for T_H");
    cycle.sort_unstable();
    assert_eq!(cycle, [t_h, t_l]);
}
