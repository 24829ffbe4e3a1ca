//! The state kernel on its own: no engine, a scripted protocol.
//!
//! Both engines compose these transitions, so what is pinned here —
//! wake order, edge refresh, the abort closure, the shape of a commit,
//! the commit gate, the restart hold —
//! holds for the simulator and the runtime alike; their own suites only
//! have to cover delivery (dispatch, parking, restarts).

use rtdb_core::{
    AbortReason, Aborts, Acquire, Decision, EngineView, LockRequest, ProtocolFor, StateKernel,
    UpdateModel,
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
    /// Answer `may_abort` with false, as PCP-DA does.
    never_aborts: bool,
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
        !self.never_aborts
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

/// Wait edges lend running priority (paper §5, Example 1): an instance
/// runs at the highest running priority of those waiting for it,
/// transitively and as a max, never below its base, and gets its base
/// back once the edges go — by a wake or by the waiter's departure.
#[test]
fn wait_edges_lend_running_priority_transitively() {
    let set = set();
    let (t1, t2, t3) = (inst(0, 0), inst(1, 0), inst(2, 0));
    let (mut k, _) = begun(&set, &[t1, t2, t3]);
    let base = |who: InstanceId| set.priority_of(who.txn);
    // T3 blocks T2, then T1 too: it runs at P2, then at P1.
    k.wait_on(t2, &[t3]);
    assert_eq!(k.running_priority(t3), base(t2));
    k.wait_on(t1, &[t3]);
    assert_eq!(k.running_priority(t3), base(t1));
    assert_eq!(k.running_priority(t1), base(t1));
    k.wake(t1);
    k.wake(t2);
    assert_eq!(k.running_priority(t3), base(t3));
    // A higher-priority instance waited for by a lower one keeps its own.
    k.wait_on(t3, &[t1]);
    assert_eq!(k.running_priority(t1), base(t1));
    k.wake(t3);
    // T1 waits for T2, which waits for T3: T3 inherits through T2, until
    // T1 leaves.
    k.wait_on(t1, &[t2]);
    k.wait_on(t2, &[t3]);
    assert_eq!(k.running_priority(t3), base(t1));
    k.remove(t1);
    assert_eq!(k.running_priority(t2), base(t2));
    assert_eq!(k.running_priority(t3), base(t2));
    k.remove(t2);
    assert_eq!(k.running_priority(t3), base(t3));
    assert_eq!(k.find_deadlock(), None);
}

#[test]
fn deadlock_victim_prefers_lowest_base_then_id() {
    let set = set();
    // a (T0) outranks both instances of T3, which tie on base priority.
    let (a, b, b2) = (inst(0, 0), inst(3, 0), inst(3, 1));
    let (mut k, _) = begun(&set, &[a, b, b2]);
    k.wait_on(b2, &[a]);
    k.wait_on(a, &[b]);
    k.wait_on(b, &[b2]);
    let (cycle, victim) = k.find_deadlock().expect("cycle");
    assert_eq!(cycle, vec![a, b, b2], "searched from the lowest blocked id");
    assert_eq!(
        victim, b,
        "tie on base priority broken toward the smaller id"
    );
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
    let mut fx = Aborts::default();
    let tick = || {
        t += 1;
        Tick(t)
    };
    k.abort(&mut p, w, AbortReason::Wound, &[], tick, &mut fx);
    assert!(fx.released.is_empty(), "nobody was held");
    assert_eq!(
        fx.aborted,
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
    assert_eq!(k.latest_retiree(ItemId(0)), None, "w's chain entry left");
    assert_eq!(k.latest_retiree(ItemId(1)), None, "r1's too");
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

    let mut drained = vec![t];
    let record = k.finish_commit(t, &mut drained);
    assert_eq!(record.restarts, 0);
    assert!(drained.is_empty(), "overwritten, not appended to");
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
    let mut drained = Vec::new();
    k.finish_commit(w1, &mut drained);
    assert_eq!(drained, vec![e], "d still waits for w2");
    k.wake(e);
    assert!(!k.gate(e) && k.gate(d));

    k.install(w2, &ws[&w2], Tick(21), true, None);
    k.finish_commit(w2, &mut drained);
    assert_eq!(drained, vec![d]);
    k.wake(d);
    assert!(!k.gate(d));
    // The dirty reads predicted the versions the installs produced.
    assert_eq!(k.db().get(ItemId(2)).version, 1);
    assert_eq!(ws[&d].reads()[0].version, 1);
}

#[test]
fn an_aborted_dependent_leaves_its_source_alone() {
    let set = set();
    let (w, d) = (inst(3, 0), inst(0, 0));
    let (mut k, mut ws) = begun(&set, &[w, d]);
    let mut p = Scripted::default();
    write_and_retire(&mut k, &mut p, &mut ws, w, 0);
    acquire(&mut k, &mut p, &mut ws, d, 0, LockMode::Read);
    assert_eq!(k.record(d).unwrap().gate, vec![w]);

    // The dependent's abort cascades nowhere: w is not its dependent.
    let mut fx = Aborts::default();
    k.abort(&mut p, d, AbortReason::Wound, &[], || Tick(10), &mut fx);
    assert_eq!(fx.aborted, vec![(d, AbortReason::Wound)]);
    assert!(fx.released.is_empty());
    assert!(!k.gated(d) && k.record(d).unwrap().gate.is_empty());
    assert_eq!(k.record(w).unwrap().restarts, 0);
    assert_eq!(k.latest_retiree(ItemId(0)), Some(w), "w's chain stays");

    // Unhooked: w's commit drains nobody.
    let mut proceed = vec![d];
    k.install(w, &ws[&w], Tick(11), true, None);
    k.finish_commit(w, &mut proceed);
    assert!(proceed.is_empty());
    assert_eq!(k.latest_retiree(ItemId(0)), None);
}

#[test]
fn dirty_versions_stay_predicted_as_the_chain_drains_from_the_front() {
    let set = set();
    let (w1, w2, r1, r2) = (inst(3, 0), inst(4, 0), inst(0, 0), inst(1, 0));
    let (mut k, mut ws) = begun(&set, &[w1, w2, r1, r2]);
    let mut p = Scripted::default();
    // Chain on item 0: w1, then w2 writing over w1's retired write.
    write_and_retire(&mut k, &mut p, &mut ws, w1, 0);
    write_and_retire(&mut k, &mut p, &mut ws, w2, 0);
    assert_eq!(k.record(w2).unwrap().gate, vec![w1]);
    // r1 reads the latest dirty value: committed version 0 + chain of 2.
    acquire(&mut k, &mut p, &mut ws, r1, 0, LockMode::Read);
    let w2_value = ws[&w2].staged_value(ItemId(0)).unwrap();
    assert_eq!(ws[&r1].reads()[0].value, w2_value);
    assert_eq!(ws[&r1].reads()[0].version, 2);

    // The chain's earliest member commits: version 1, chain of 1 — the
    // same prediction for a reader arriving now.
    let mut proceed = Vec::new();
    k.install(w1, &ws[&w1], Tick(20), true, None);
    k.finish_commit(w1, &mut proceed);
    assert_eq!(proceed, vec![w2], "w2's gate opened");
    assert_eq!(k.db().get(ItemId(0)).version, 1);
    acquire(&mut k, &mut p, &mut ws, r2, 0, LockMode::Read);
    assert_eq!(ws[&r2].reads()[0].version, 2);
    assert_eq!(ws[&r2].reads()[0].value, w2_value);

    k.wake(w2);
    k.install(w2, &ws[&w2], Tick(21), true, None);
    k.finish_commit(w2, &mut proceed);
    assert_eq!(proceed, vec![r1, r2]);
    assert_eq!(k.db().get(ItemId(0)).version, 2, "the predicted version");
}

#[test]
fn gated_is_pure_and_turns_false_with_the_last_dependency() {
    let set = set();
    let (w1, w2, d) = (inst(3, 0), inst(4, 0), inst(0, 0));
    let (mut k, mut ws) = begun(&set, &[w1, w2, d]);
    let mut p = Scripted::default();
    write_and_retire(&mut k, &mut p, &mut ws, w1, 2);
    write_and_retire(&mut k, &mut p, &mut ws, w2, 3);
    assert!(!k.gated(d), "nothing read yet");
    acquire(&mut k, &mut p, &mut ws, d, 2, LockMode::Read);
    acquire(&mut k, &mut p, &mut ws, d, 3, LockMode::Read);
    assert!(k.gated(d) && !k.gated(w1) && !k.gated(w2));
    // Asking registered nothing: no edge, so no inheritance.
    assert_eq!(k.running_priority(w1), k.base_priority(w1));
    assert_eq!(k.running_priority(w2), k.base_priority(w2));
    assert_eq!(k.find_deadlock(), None);

    let mut proceed = Vec::new();
    k.install(w2, &ws[&w2], Tick(20), true, None);
    k.finish_commit(w2, &mut proceed);
    assert!(proceed.is_empty() && k.gated(d), "w1 is left");
    k.install(w1, &ws[&w1], Tick(21), true, None);
    k.finish_commit(w1, &mut proceed);
    assert_eq!(proceed, vec![d]);
    assert!(!k.gated(d) && !k.gate(d));
}

#[test]
fn a_recycled_record_comes_back_with_an_empty_gate() {
    let set = set();
    let (w, d) = (inst(3, 0), inst(0, 0));
    let (mut k, mut ws) = begun(&set, &[w, d]);
    let mut p = Scripted::default();
    write_and_retire(&mut k, &mut p, &mut ws, w, 0);
    acquire(&mut k, &mut p, &mut ws, d, 0, LockMode::Read);
    assert!(k.gated(d));
    // d leaves without committing (an engine's end-of-run flush); its
    // record goes to the next instance begun.
    k.remove(d);
    let next = inst(1, 0);
    k.begin(next, None);
    assert!(k.record(next).unwrap().gate.is_empty());
    assert!(!k.gated(next) && !k.gate(next));
    let mut proceed = Vec::new();
    k.install(w, &ws[&w], Tick(20), true, None);
    k.finish_commit(w, &mut proceed);
    assert!(proceed.is_empty(), "nobody was gated on w any more");
}

/// `who` commits with nothing staged.
fn commit(k: &mut StateKernel<'_>, who: InstanceId, proceed: &mut Vec<InstanceId>) {
    assert!(!k.gate(who));
    k.install(who, &Workspace::new(who), Tick(30), true, None);
    k.finish_commit(who, proceed);
}

#[test]
fn hold_ends_with_the_last_held_on_instance_and_is_handed_back_then() {
    let set = set();
    // v outranks both instances it is held on, so they inherit from it.
    let (v, a, b) = (inst(0, 0), inst(2, 0), inst(3, 0));
    let (mut k, _) = begun(&set, &[v, a, b]);
    let mut p = Scripted::default();
    assert!(!k.held(v) && !k.held(a), "never held");

    // Itself and duplicates drop out; the rest sort.
    k.hold(v, &[b, v, a, b]);
    assert!(k.held(v) && !k.held(a));
    assert_eq!(k.record(v).unwrap().hold, vec![a, b]);
    assert_eq!(k.running_priority(a), k.base_priority(v));
    assert_eq!(k.running_priority(b), k.base_priority(v));

    // The first to leave does not end the hold: an abort…
    let mut fx = Aborts::default();
    k.abort(&mut p, a, AbortReason::Wound, &[], || Tick(20), &mut fx);
    assert_eq!(fx.aborted, vec![(a, AbortReason::Wound)]);
    assert!(fx.released.is_empty());
    assert!(k.held(v));
    assert_eq!(k.record(v).unwrap().hold, vec![b]);
    // …whose restarted instance is no longer waited on.
    assert_eq!(k.running_priority(a), k.base_priority(a));
    assert_eq!(k.running_priority(b), k.base_priority(v));

    // …the last does, a commit, which hands v back at that moment.
    let mut proceed = Vec::new();
    commit(&mut k, b, &mut proceed);
    assert_eq!(proceed, vec![v]);
    assert!(!k.held(v));
    assert!(k.record(v).unwrap().hold.is_empty());
    assert_eq!(k.find_deadlock(), None, "the edges left with the hold");
    assert_eq!(k.running_priority(a), k.base_priority(a));

    // The other way round: a commit first, an abort last.
    let (a2, b2) = (inst(2, 1), inst(3, 1));
    k.begin(a2, None);
    k.begin(b2, None);
    k.hold(v, &[a2, b2]);
    commit(&mut k, b2, &mut proceed);
    assert!(proceed.is_empty() && k.held(v));
    k.abort(
        &mut p,
        a2,
        AbortReason::DeadlockVictim,
        &[],
        || Tick(40),
        &mut fx,
    );
    assert_eq!(fx.released, vec![v]);
    assert!(!k.held(v));
}

#[test]
fn hold_edges_are_wait_edges_to_the_deadlock_search() {
    let set = set();
    let (v, a) = (inst(4, 0), inst(1, 0));
    let (mut k, _) = begun(&set, &[v, a]);
    k.hold(v, &[a]);
    assert_eq!(k.find_deadlock(), None);
    k.wait_on(a, &[v]);
    assert_eq!(k.find_deadlock(), Some((vec![a, v], v)));
}

#[test]
fn aborting_a_held_instance_clears_its_own_hold() {
    let set = set();
    let (v, a) = (inst(4, 0), inst(1, 0));
    let (mut k, _) = begun(&set, &[v, a]);
    let mut p = Scripted::default();
    k.hold(v, &[a]);
    let mut fx = Aborts::default();
    k.abort(
        &mut p,
        v,
        AbortReason::DeadlockVictim,
        &[],
        || Tick(5),
        &mut fx,
    );
    assert_eq!(fx.aborted, vec![(v, AbortReason::DeadlockVictim)]);
    assert!(fx.released.is_empty(), "v was held, it held nobody");
    assert!(!k.held(v) && k.record(v).unwrap().hold.is_empty());
    assert_eq!(k.running_priority(a), k.base_priority(a));
    // a's commit finds no hold left to end.
    let mut proceed = Vec::new();
    commit(&mut k, a, &mut proceed);
    assert!(proceed.is_empty());
    // A hold on nothing live is no hold.
    k.hold(v, &[a]);
    assert!(!k.held(v));
}

/// An abort's cause may name an instance the abort takes along — here a
/// dirty reader of the victim, which cascades. Both restarts are held on
/// the rest of the cause only, never on each other (two instances held on
/// each other would never be released), and its commit releases both.
#[test]
fn an_abort_holds_its_restarts_on_the_cause_less_the_co_aborted() {
    let set = set();
    let (h, r, w) = (inst(0, 0), inst(1, 0), inst(3, 0));
    let (mut k, mut ws) = begun(&set, &[h, r, w]);
    let mut p = Scripted::default();
    write_and_retire(&mut k, &mut p, &mut ws, w, 0);
    acquire(&mut k, &mut p, &mut ws, r, 0, LockMode::Read);
    assert_eq!(k.record(r).unwrap().gate, vec![w]);

    let mut fx = Aborts::default();
    let cause = [r, h, w];
    k.abort(
        &mut p,
        w,
        AbortReason::DeadlockVictim,
        &cause,
        || Tick(10),
        &mut fx,
    );
    assert_eq!(
        fx.aborted,
        vec![(w, AbortReason::DeadlockVictim), (r, AbortReason::Cascade)]
    );
    for who in [w, r] {
        let rec = k.record(who).unwrap();
        assert_eq!(rec.hold, vec![h], "{who} is held on h alone");
        assert_eq!(rec.waits_for, vec![h], "{who}");
    }
    assert_eq!(k.find_deadlock(), None);

    let mut proceed = Vec::new();
    commit(&mut k, h, &mut proceed);
    assert_eq!(proceed, vec![r, w], "h's commit releases both");
    assert!(!k.held(r) && !k.held(w));
}

/// A read granted past a write lock puts the reader on the writer's
/// commit gate when the protocol never aborts (it must order what it lets
/// past), and not when it does. The reader's abort then opens the entry
/// as its commit would: the writer read nothing from it, so nothing
/// cascades, and the writer parked at the gate is handed back.
#[test]
fn a_reader_let_past_a_write_lock_gates_the_writer_without_a_cascade() {
    let set = set();
    let (r, w) = (inst(0, 0), inst(3, 0));
    let (mut k, mut ws) = begun(&set, &[r, w]);
    let mut p = Scripted::default();
    acquire(&mut k, &mut p, &mut ws, w, 0, LockMode::Write);
    acquire(&mut k, &mut p, &mut ws, r, 0, LockMode::Read);
    assert!(!k.gated(w), "a protocol that aborts orders its own way");

    p.never_aborts = true;
    acquire(&mut k, &mut p, &mut ws, w, 1, LockMode::Write);
    acquire(&mut k, &mut p, &mut ws, r, 1, LockMode::Read);
    assert_eq!(k.record(w).unwrap().gate, vec![r]);
    assert!(k.gate(w), "w waits at its commit for r to leave");
    assert_eq!(k.running_priority(r), k.base_priority(r));
    assert_eq!(k.record(w).unwrap().waits_for, vec![r]);

    let mut fx = Aborts::default();
    k.abort(
        &mut p,
        r,
        AbortReason::DeadlockVictim,
        &[],
        || Tick(10),
        &mut fx,
    );
    assert_eq!(fx.aborted, vec![(r, AbortReason::DeadlockVictim)]);
    assert_eq!(fx.released, vec![w], "the gate opened");
    assert!(!k.gated(w) && k.record(w).unwrap().waits_for.is_empty());
    assert_eq!(k.find_deadlock(), None);
    assert_eq!(k.record(w).unwrap().restarts, 0);
}

/// A reader let past the write lock of an instance already parked at its
/// commit gate is one more wait edge of that instance: a cycle through
/// the new entry is a deadlock the search must see.
#[test]
fn a_reader_let_past_a_writer_parked_at_its_gate_is_a_wait_edge() {
    let set = set();
    let (r1, r2, w) = (inst(0, 0), inst(1, 0), inst(3, 0));
    let (mut k, mut ws) = begun(&set, &[r1, r2, w]);
    let mut p = Scripted {
        never_aborts: true,
        ..Scripted::default()
    };
    acquire(&mut k, &mut p, &mut ws, w, 0, LockMode::Write);
    acquire(&mut k, &mut p, &mut ws, r1, 0, LockMode::Read);
    assert!(k.gate(w));
    acquire(&mut k, &mut p, &mut ws, r2, 0, LockMode::Read);
    assert_eq!(k.record(w).unwrap().waits_for, vec![r1, r2]);

    p.deny.insert(r2, vec![w]);
    acquire(&mut k, &mut p, &mut ws, r2, 1, LockMode::Write);
    let (mut cycle, victim) = k.find_deadlock().expect("r2 and w wait for each other");
    cycle.sort_unstable();
    assert_eq!((cycle, victim), (vec![r2, w], w));
}

#[test]
#[should_panic(expected = "begun twice")]
fn begin_twice_panics() {
    let set = set();
    let mut k = StateKernel::new(&set, None);
    k.begin(inst(0, 0), None);
    k.begin(inst(0, 0), None);
}
