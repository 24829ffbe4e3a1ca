//! ROADMAP item 1, staged by hand: PCP-DA's multi-core serializability
//! hole at kernel level, on one thread, and the wait-to-commit rule that
//! closes it.
//!
//! Dynamic adjustment lets `T_H` read the pre-image of an item `T_L` has
//! write-locked and serialize `T_H → T_L`. On one CPU that is safe —
//! `T_L` cannot run, let alone commit, before `T_H` finishes. The
//! schedule below is what a second worker makes possible: `T_L` reaches
//! its commit while `T_H` still runs. Had `T_L` committed there, `T_H`'s
//! next read would see what `T_L` installed and the serialization graph
//! would close `T_H → T_L → T_H`. The kernel instead puts `T_H` on
//! `T_L`'s commit gate at the read-over-write grant (Prudent-Precedence's
//! wait-to-commit), so `T_L` waits until `T_H` has left, and there is no
//! cycle. No threads, no seed, no soak — a bare [`StateKernel`] and
//! [`PcpDa`] driven by hand.

use rtdb_core::{Effect, Effects, GrantRule, LockRequest, StateKernel};
use rtdb_protocols::PcpDa;
use rtdb_storage::{EventKind, SerializationGraph, Workspace};
use rtdb_types::{
    InstanceId, ItemId, LockMode, SetBuilder, Step, Tick, TransactionTemplate, TxnId,
};

const X: ItemId = ItemId(0);
const Y: ItemId = ItemId(1);

#[test]
fn a_writer_waits_at_its_gate_for_the_reader_let_past_it() {
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
    k.begin(t_l, Some(tick()));
    k.begin(t_h, Some(tick()));
    let mut fx = Effects::default();
    // Each grant names its locking condition: LC1 for the writes, LC2
    // for the reads past them.
    let granted = |who, item, mode| {
        let rule = match mode {
            LockMode::Write => GrantRule::Lc1,
            LockMode::Read => GrantRule::Lc2,
        };
        [Effect::Granted(LockRequest { who, item, mode }, Some(rule))]
    };

    // T_L write-locks x; T_H reads x's pre-image past it.
    assert!(k.request(
        &mut p,
        t_l,
        0,
        X,
        LockMode::Write,
        &mut ws_l,
        &mut tick,
        &mut fx
    ));
    assert_eq!(fx.log(), granted(t_l, X, LockMode::Write));
    assert!(k.request(
        &mut p,
        t_h,
        0,
        X,
        LockMode::Read,
        &mut ws_h,
        &mut tick,
        &mut fx
    ));
    assert_eq!(fx.log(), granted(t_h, X, LockMode::Read));
    // T_L write-locks y and reaches its commit while T_H, which must
    // precede it, is still running: the gate holds it there.
    assert!(k.request(
        &mut p,
        t_l,
        1,
        Y,
        LockMode::Write,
        &mut ws_l,
        &mut tick,
        &mut fx
    ));
    assert_eq!(fx.log(), granted(t_l, Y, LockMode::Write));
    let parked = k.commit(
        &mut p,
        t_l,
        &ws_l,
        true,
        None,
        &mut tick,
        || Tick(0),
        &mut fx,
    );
    assert!(parked.is_none(), "T_L waits here until T_H finishes");
    assert!(matches!(fx.log(), [Effect::Gated(..)]), "and no cycle");
    // T_H reads y's pre-image past T_L too, commits, and opens the gate.
    assert!(k.request(
        &mut p,
        t_h,
        1,
        Y,
        LockMode::Read,
        &mut ws_h,
        &mut tick,
        &mut fx
    ));
    assert_eq!(fx.log(), granted(t_h, Y, LockMode::Read));
    let versions: Vec<u64> = k
        .history()
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Read { version, .. } if e.instance == t_h => Some(version),
            _ => None,
        })
        .collect();
    assert_eq!(versions, [0, 0], "x and y both before T_L's installs");
    let at = tick();
    let committed = k.commit(&mut p, t_h, &ws_h, true, None, &mut tick, || at, &mut fx);
    assert!(committed.is_some());
    assert_eq!(fx.log(), [Effect::Committed(t_h), Effect::GateOpened(t_l)]);
    let at = tick();
    let committed = k.commit(&mut p, t_l, &ws_l, true, None, &mut tick, || at, &mut fx);
    assert!(committed.is_some());

    let cycle = SerializationGraph::build(k.history()).find_cycle();
    assert_eq!(cycle, None, "T_L waited for T_H: no cycle");
}
