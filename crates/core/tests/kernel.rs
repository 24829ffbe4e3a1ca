//! The state kernel on its own: no engine, a scripted protocol.
//!
//! Both engines compose these transitions, so what is pinned here —
//! wake order, edge refresh, the abort closure, the shape of a commit —
//! holds for the simulator and the runtime alike; their own suites only
//! have to cover delivery (dispatch, parking, restarts).

use rtdb_core::{
    AbortReason, Acquire, Decision, EngineView, LockRequest, ProtocolFor, StateKernel, UpdateModel,
};
use rtdb_storage::{EventKind, Workspace};
use rtdb_types::{
    InstanceId, ItemId, LockMode, SetBuilder, Step, Tick, TransactionSet, TransactionTemplate,
    TxnId,
};
use std::collections::BTreeMap;

/// A protocol that does what the test tells it to.
#[derive(Default)]
struct Scripted {
    /// Requesters to deny, with the blockers to name; everyone else is
    /// granted.
    deny: BTreeMap<InstanceId, Vec<InstanceId>>,
    /// Every requester presented, in order.
    asked: Vec<InstanceId>,
    /// Locks to release early / write locks to retire at the next
    /// `step_done`.
    early: Vec<(ItemId, LockMode)>,
    retire: Vec<ItemId>,
    install_on_early_release: bool,
}

impl<V: EngineView + ?Sized> ProtocolFor<V> for Scripted {
    fn name(&self) -> &'static str {
        "scripted"
    }
    fn request(&mut self, _view: &V, req: LockRequest) -> Decision {
        self.asked.push(req.who);
        match self.deny.get(&req.who) {
            Some(blockers) => Decision::Block {
                blockers: blockers.clone(),
            },
            None => Decision::Grant,
        }
    }
    fn early_releases(&mut self, _: &V, _: InstanceId, _: usize) -> Vec<(ItemId, LockMode)> {
        std::mem::take(&mut self.early)
    }
    fn retires(&mut self, _: &V, _: InstanceId, _: usize) -> Vec<ItemId> {
        std::mem::take(&mut self.retire)
    }
    fn update_model(&self) -> UpdateModel {
        if self.install_on_early_release {
            UpdateModel::InstallOnEarlyRelease
        } else {
            UpdateModel::Workspace
        }
    }
    fn may_abort(&self) -> bool {
        true
    }
}

/// Five templates, `T0` the highest priority; steps are irrelevant (the
/// tests present accesses by hand).
fn set() -> TransactionSet {
    let mut b = SetBuilder::new();
    for t in 0..5u64 {
        b.add(TransactionTemplate::new(
            format!("T{t}"),
            10 * (t + 1),
            vec![Step::compute(1)],
        ));
    }
    b.build_rate_monotonic().expect("set")
}

fn inst(t: u32, seq: u32) -> InstanceId {
    InstanceId::new(TxnId(t), seq)
}

/// A kernel with `ids` begun, and a workspace for each.
fn begun<'a>(
    set: &'a TransactionSet,
    ids: &[InstanceId],
) -> (StateKernel<'a>, BTreeMap<InstanceId, Workspace>) {
    let mut k = StateKernel::new(set, None);
    let mut ws = BTreeMap::new();
    for &id in ids {
        k.begin(id, Some(Tick(0)));
        ws.insert(id, Workspace::new(id));
    }
    (k, ws)
}

/// Present `who`'s access at a fixed tick.
fn acquire(
    k: &mut StateKernel<'_>,
    p: &mut Scripted,
    ws: &mut BTreeMap<InstanceId, Workspace>,
    who: InstanceId,
    item: u32,
    mode: LockMode,
) -> Acquire {
    let w = ws.get_mut(&who).expect("workspace");
    k.acquire(p, who, 0, ItemId(item), mode, w, || Tick(1))
}

/// `who` wrote `item` and retires the write lock.
fn write_and_retire(
    k: &mut StateKernel<'_>,
    p: &mut Scripted,
    ws: &mut BTreeMap<InstanceId, Workspace>,
    who: InstanceId,
    item: u32,
) {
    let granted = acquire(k, p, ws, who, item, LockMode::Write);
    assert_eq!(granted, Acquire::Done { granted: true });
    p.retire = vec![ItemId(item)];
    let done = k.step_done(p, who, 0, &ws[&who], || Tick(2));
    assert_eq!(done.released, vec![(ItemId(item), LockMode::Write)]);
}

#[test]
fn reevaluate_wakes_by_priority_and_refreshes_the_still_denied() {
    let set = set();
    let (a, b, b2, c, h) = (inst(0, 0), inst(1, 0), inst(1, 1), inst(2, 0), inst(4, 0));
    let (mut k, mut ws) = begun(&set, &[a, b, b2, c, h]);
    let mut p = Scripted::default();
    assert_eq!(
        acquire(&mut k, &mut p, &mut ws, h, 0, LockMode::Write),
        Acquire::Done { granted: true }
    );

    // a waits for c, everyone else for h: c runs at a's priority, so it
    // sorts ahead of the b's despite its lower base.
    p.deny = BTreeMap::from([(a, vec![c]), (b, vec![h]), (b2, vec![h]), (c, vec![h])]);
    for who in [b2, c, b, a] {
        let blocked = acquire(&mut k, &mut p, &mut ws, who, 0, LockMode::Read);
        assert!(
            matches!(&blocked, Acquire::Blocked { woken, .. } if woken.is_empty()),
            "{blocked:?}"
        );
    }
    assert_eq!(k.running_priority(c), k.base_priority(a));
    assert_eq!(k.running_priority(h), k.base_priority(a));
    assert_eq!(k.record(a).unwrap().block_events, 1);

    // c and b would now be granted; a stays denied, now by b.
    p.deny = BTreeMap::from([(a, vec![b]), (b2, vec![h])]);
    p.asked.clear();
    let woken = k.reevaluate(&mut p);
    assert_eq!(
        p.asked,
        vec![a, c, b, b2],
        "descending (running, base), ascending seq"
    );
    assert_eq!(woken, vec![c, b]);
    assert_eq!(k.pending_request(c), None);
    assert_eq!(k.pending_request(b), None);
    assert!(k.pending_request(a).is_some() && k.pending_request(b2).is_some());
    // a's edge moved from c to b: b inherits, c is back at its base.
    assert_eq!(k.running_priority(b), k.base_priority(a));
    assert_eq!(k.running_priority(c), k.base_priority(c));
    assert_eq!(
        k.record(a).unwrap().lower_blockers,
        vec![b.txn, c.txn],
        "distinct lower-priority blockers accumulate"
    );
    // Nothing changed hands: the woken re-issue their requests themselves.
    assert!(!k.locks().holds(c, ItemId(0), LockMode::Read));

    // The cycle search sees the same edges: close a → b → a.
    assert_eq!(k.find_deadlock(), None);
    k.wait_on(b, &[a]);
    let (cycle, victim) = k.find_deadlock().expect("cycle");
    assert!(cycle.contains(&a) && cycle.contains(&b));
    assert_eq!(victim, b, "lowest base priority on the cycle");
}

#[test]
fn abort_returns_the_dependent_closure_once_and_clears_every_record() {
    let set = set();
    let (w, r1, r2, other) = (inst(3, 0), inst(0, 0), inst(1, 0), inst(2, 0));
    let (mut k, mut ws) = begun(&set, &[w, r1, r2, other]);
    let mut p = Scripted::default();

    // Diamond: r1 reads w's retired write; r2 reads both w's and r1's.
    write_and_retire(&mut k, &mut p, &mut ws, w, 0);
    acquire(&mut k, &mut p, &mut ws, r1, 0, LockMode::Read);
    write_and_retire(&mut k, &mut p, &mut ws, r1, 1);
    acquire(&mut k, &mut p, &mut ws, r2, 0, LockMode::Read);
    acquire(&mut k, &mut p, &mut ws, r2, 1, LockMode::Read);
    assert_eq!(k.data_read(r2), &[ItemId(0), ItemId(1)]);
    assert_eq!(k.staged_write_items(r1), &[ItemId(1)]);
    assert!(k.gate(r2), "r2 has commit dependencies");
    // r2 is also blocked on a lock, and a bystander holds one.
    p.deny.insert(r2, vec![w]);
    acquire(&mut k, &mut p, &mut ws, r2, 7, LockMode::Write);
    p.deny.clear();
    acquire(&mut k, &mut p, &mut ws, other, 9, LockMode::Write);

    let mut t = 10;
    let aborted = k.abort(&mut p, w, AbortReason::Wound, || {
        t += 1;
        Tick(t)
    });
    assert_eq!(
        aborted,
        vec![
            (w, AbortReason::Wound),
            (r1, AbortReason::Cascade),
            (r2, AbortReason::Cascade)
        ]
    );
    for who in [w, r1, r2] {
        let rec = k
            .record(who)
            .expect("aborted instances restart, they stay live");
        assert!(rec.pending.is_none() && rec.data_read.is_empty(), "{who}");
        assert!(
            rec.staged.is_empty() && rec.installed_early.is_empty(),
            "{who}"
        );
        assert_eq!(rec.restarts, 1, "{who}");
        assert_eq!(k.locks().held_by(who).count(), 0, "{who}");
        assert!(!k.gate(who), "{who}: dependencies are gone");
    }
    assert!(k.deps().unwrap().is_empty());
    assert!(k.locks().holds(other, ItemId(9), LockMode::Write));
    assert_eq!(k.record(other).unwrap().restarts, 0);

    // Abort and Begin back to back per instance, one tick each.
    let tail: Vec<_> = k.history().events()[k.history().events().len() - 6..]
        .iter()
        .map(|e| (e.at, e.instance, e.kind))
        .collect();
    let expect: Vec<_> = [w, r1, r2]
        .iter()
        .enumerate()
        .flat_map(|(i, &who)| {
            let at = 11 + 2 * i as u64;
            [
                (Tick(at), who, EventKind::Abort),
                (Tick(at + 1), who, EventKind::Begin),
            ]
        })
        .collect();
    assert_eq!(tail, expect);
    let (_, _, reasons) = k.into_parts();
    assert_eq!((reasons.wound, reasons.cascade, reasons.total()), (1, 2, 3));
}

#[test]
fn commit_skips_early_installs_and_logs_commit_before_installs_at_one_tick() {
    let set = set();
    let t = inst(1, 0);
    let (mut k, mut ws) = begun(&set, &[t]);
    let mut p = Scripted {
        install_on_early_release: true,
        ..Scripted::default()
    };
    acquire(&mut k, &mut p, &mut ws, t, 0, LockMode::Write);
    p.early = vec![(ItemId(0), LockMode::Write)];
    let done = k.step_done(&mut p, t, 0, &ws[&t], || Tick(5));
    assert_eq!(done.released, vec![(ItemId(0), LockMode::Write)]);
    assert_eq!(k.record(t).unwrap().installed_early, vec![ItemId(0)]);
    assert_eq!(
        k.db().get(ItemId(0)).version,
        1,
        "installed at the early release"
    );
    acquire(&mut k, &mut p, &mut ws, t, 1, LockMode::Write);

    assert!(!k.gate(t));
    assert!(k.commit_victims(&mut p, t).is_empty());
    let before = k.history().events().len();
    let mut installed = Vec::new();
    k.install(t, &ws[&t], Tick(9), true, Some(&mut installed));
    let logged: Vec<_> = k.history().events()[before..]
        .iter()
        .map(|e| (e.at, e.kind))
        .collect();
    let value = ws[&t].staged_value(ItemId(1)).unwrap();
    assert_eq!(
        logged,
        vec![
            (Tick(9), EventKind::Commit),
            (
                Tick(9),
                EventKind::Install {
                    item: ItemId(1),
                    value,
                    version: 1
                }
            ),
        ]
    );
    assert_eq!(installed.len(), 1);
    assert_eq!((installed[0].0, installed[0].1.version), (ItemId(1), 1));
    assert_eq!(k.db().get(ItemId(0)).version, 1, "not installed twice");

    let (record, drained) = k.finish_commit(t);
    assert_eq!(record.restarts, 0);
    assert!(drained.is_empty());
    assert!(!k.is_live(t) && k.active_instances().is_empty());
    assert_eq!(k.locks().locked_items(), 0);
}

#[test]
fn commit_drains_exactly_the_dependents_whose_last_dependency_it_was() {
    let set = set();
    let (w1, w2, d, e) = (inst(3, 0), inst(4, 0), inst(0, 0), inst(1, 0));
    let (mut k, mut ws) = begun(&set, &[w1, w2, d, e]);
    let mut p = Scripted::default();
    write_and_retire(&mut k, &mut p, &mut ws, w1, 2);
    write_and_retire(&mut k, &mut p, &mut ws, w2, 3);
    acquire(&mut k, &mut p, &mut ws, d, 2, LockMode::Read);
    acquire(&mut k, &mut p, &mut ws, d, 3, LockMode::Read);
    acquire(&mut k, &mut p, &mut ws, e, 2, LockMode::Read);
    assert!(k.gate(d) && k.gate(e));
    assert_eq!(
        k.running_priority(w1),
        k.base_priority(d),
        "gate waits donate priority"
    );

    k.install(w1, &ws[&w1], Tick(20), true, None);
    let (_, drained) = k.finish_commit(w1);
    assert_eq!(drained, vec![e], "d still waits for w2");
    k.wake(e);
    assert!(!k.gate(e) && k.gate(d));

    k.install(w2, &ws[&w2], Tick(21), true, None);
    let (_, drained) = k.finish_commit(w2);
    assert_eq!(drained, vec![d]);
    k.wake(d);
    assert!(!k.gate(d));
    // The dirty reads predicted the versions the installs produced.
    assert_eq!(k.db().get(ItemId(2)).version, 1);
    assert_eq!(ws[&d].reads()[0].version, 1);
}

#[test]
#[should_panic(expected = "begun twice")]
fn begin_twice_panics() {
    let set = set();
    let mut k = StateKernel::new(&set, None);
    k.begin(inst(0, 0), None);
    k.begin(inst(0, 0), None);
}
