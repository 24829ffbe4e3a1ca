//! The state kernel on its own: no engine, a scripted protocol.
//!
//! Both engines drive the kernel's entry points and act on the effects
//! they return, so what is pinned here — wake order, edge refresh, the
//! abort closure, the shape of a commit, the commit gate, the restart
//! hold, and the resolution policy itself: one test per kind of effect
//! — holds for the simulator and the runtime alike; their own suites
//! only have to cover delivery (dispatch, parking, restarts). This file
//! is the guard of the policy: the engines carry none of it.

use rtdb_core::{
    AbortReason, Decision, Effect, Effects, EngineView, LockRequest, ProtocolFor, ShardRouter,
    StateKernel, UpdateModel,
};
use rtdb_storage::{Event, EventKind, Workspace};
use rtdb_types::{
    InstanceId, ItemId, LockMode, SetBuilder, Step, Tick, TransactionSet, TransactionTemplate,
    TxnId, Value,
};
use std::collections::BTreeMap;

/// A protocol that does what the test tells it to.
#[derive(Default)]
struct Scripted {
    /// Requesters to deny, with the blockers to name; everyone else is
    /// granted.
    deny: BTreeMap<InstanceId, Vec<InstanceId>>,
    /// Requesters that wound, with the holders to abort.
    wound: BTreeMap<InstanceId, Vec<InstanceId>>,
    /// Requesters that die, with the instances they yield to.
    die: BTreeMap<InstanceId, Vec<InstanceId>>,
    /// The instances the next commit invalidates.
    victims: Vec<InstanceId>,
    /// Name only the blockers that still hold a lock, and grant once none
    /// does, as a lock-based protocol would.
    blocked_by_holders: bool,
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
    fn request(&mut self, view: &V, req: LockRequest) -> Decision {
        self.asked.push(req.who);
        if let Some(victims) = self.wound.get(&req.who) {
            return Decision::AbortHolders {
                victims: victims.iter().copied().collect(),
            };
        }
        if let Some(blockers) = self.die.get(&req.who) {
            return Decision::AbortSelf {
                blockers: blockers.iter().copied().collect(),
            };
        }
        let Some(blockers) = self.deny.get(&req.who) else {
            return Decision::Grant(None);
        };
        let mut blockers = blockers.clone();
        if self.blocked_by_holders {
            blockers.retain(|&b| view.locks().held_by(b).next().is_some());
            if blockers.is_empty() {
                return Decision::Grant(None);
            }
        }
        Decision::Block {
            blockers: blockers.into_iter().collect(),
        }
    }
    fn commit_victims(&mut self, _: &V, _: InstanceId) -> Vec<InstanceId> {
        std::mem::take(&mut self.victims)
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

/// `kernel` with `ids` begun, and a workspace for each.
fn begin<'a>(
    mut k: StateKernel<'a>,
    ids: &[InstanceId],
) -> (StateKernel<'a>, BTreeMap<InstanceId, Workspace>) {
    let mut ws = BTreeMap::new();
    for &id in ids {
        k.begin(id, Some(Tick(0)));
        ws.insert(id, Workspace::new(id));
    }
    (k, ws)
}

/// A kernel that reports cycles ([`first_cycle`] looks at them without
/// resolving any) with `ids` begun, and a workspace for each.
fn begun<'a>(
    set: &'a TransactionSet,
    ids: &[InstanceId],
) -> (StateKernel<'a>, BTreeMap<InstanceId, Workspace>) {
    begin(StateKernel::new(set, None).reporting_deadlocks(), ids)
}

/// A kernel that resolves cycles with `ids` begun, and a workspace for
/// each.
fn resolving<'a>(
    set: &'a TransactionSet,
    ids: &[InstanceId],
) -> (StateKernel<'a>, BTreeMap<InstanceId, Workspace>) {
    begin(StateKernel::new(set, None), ids)
}

/// Present `who`'s access at a fixed tick; what the request entry point
/// did.
fn acquire(
    k: &mut StateKernel<'_>,
    p: &mut Scripted,
    ws: &mut BTreeMap<InstanceId, Workspace>,
    who: InstanceId,
    item: u32,
    mode: LockMode,
) -> Effects {
    let w = ws.get_mut(&who).expect("workspace");
    let mut fx = Effects::default();
    k.request(p, who, 0, ItemId(item), mode, w, || Tick(1), &mut fx);
    fx
}

/// What a grant of `item` in `mode` to `who` leaves in the effects.
fn grant(who: InstanceId, item: u32, mode: LockMode) -> [Effect; 1] {
    let item = ItemId(item);
    [Effect::Granted(LockRequest { who, item, mode }, None)]
}

/// `(value, version)` of `who`'s reads, in order, as the history logged
/// them: the one read log.
fn reads(k: &StateKernel<'_>, who: InstanceId) -> Vec<(Value, u64)> {
    let read = |e: &Event| match e.kind {
        EventKind::Read { value, version, .. } if e.instance == who => Some((value, version)),
        _ => None,
    };
    k.history().events().iter().filter_map(read).collect()
}

/// The first wait-for cycle a reporting kernel finds, with the victim
/// it names (and `None`, from any kernel, when there is none).
fn first_cycle(k: &mut StateKernel<'_>) -> Option<(Vec<InstanceId>, InstanceId)> {
    let mut fx = Effects::default();
    k.resolve_cycles(&mut Scripted::default(), || Tick(99), &mut fx);
    match *fx.log() {
        [] => None,
        [Effect::Cycle(cycle, victim)] => Some((fx.ids(cycle).to_vec(), victim)),
        ref other => panic!("a reporting kernel only reports: {other:?}"),
    }
}

/// The aborted instances with their reasons, in order.
fn aborted(fx: &Effects) -> Vec<(InstanceId, AbortReason)> {
    let aborted = |e: &Effect| match *e {
        Effect::Aborted(who, reason, _) => Some((who, reason)),
        _ => None,
    };
    fx.log().iter().filter_map(aborted).collect()
}

/// The instances whose gate or hold ended, in order.
fn released(fx: &Effects) -> Vec<InstanceId> {
    let released = |e: &Effect| match *e {
        Effect::GateOpened(who) | Effect::HoldReleased(who) => Some(who),
        _ => None,
    };
    fx.log().iter().filter_map(released).collect()
}

/// The woken instances, in order.
fn woken(fx: &Effects) -> Vec<InstanceId> {
    let woken = |e: &Effect| match *e {
        Effect::Woken(who) => Some(who),
        _ => None,
    };
    fx.log().iter().filter_map(woken).collect()
}

/// `who` presents its commit with its gate closed, and parks there.
fn park_at_gate(
    k: &mut StateKernel<'_>,
    p: &mut Scripted,
    ws: &BTreeMap<InstanceId, Workspace>,
    who: InstanceId,
) {
    let mut fx = Effects::default();
    let tick = || Tick(9);
    let record = k.commit(p, who, &ws[&who], true, None, tick, tick, &mut fx);
    assert!(record.is_none(), "{who} has commit dependencies");
    assert!(
        matches!(*fx.log(), [Effect::Gated(w, _)] if w == who),
        "{fx:?}"
    );
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
    assert_eq!(granted.log(), grant(who, item, LockMode::Write));
    p.retire = vec![ItemId(item)];
    let mut fx = Effects::default();
    k.step_done(p, who, 0, &ws[&who], || Tick(2), &mut fx);
    assert_eq!(
        fx.log(),
        [Effect::Released(who, ItemId(item), LockMode::Write)]
    );
}

#[test]
fn reevaluate_wakes_by_priority_and_refreshes_the_still_denied() {
    let set = set();
    let (a, b, b2, c, h) = (inst(0, 0), inst(1, 0), inst(1, 1), inst(2, 0), inst(4, 0));
    let (mut k, mut ws) = begun(&set, &[a, b, b2, c, h]);
    let mut p = Scripted::default();
    assert_eq!(
        acquire(&mut k, &mut p, &mut ws, h, 0, LockMode::Write).log(),
        grant(h, 0, LockMode::Write)
    );

    // a waits for c, everyone else for h: c runs at a's priority, so it
    // sorts ahead of the b's despite its lower base.
    p.deny = BTreeMap::from([(a, vec![c]), (b, vec![h]), (b2, vec![h]), (c, vec![h])]);
    for who in [b2, c, b, a] {
        let blocked = acquire(&mut k, &mut p, &mut ws, who, 0, LockMode::Read);
        assert!(
            matches!(*blocked.log(), [Effect::Parked(req, _)] if req.who == who),
            "{blocked:?}"
        );
    }
    assert_eq!(k.running_priority(c), k.base_priority(a));
    assert_eq!(k.running_priority(h), k.base_priority(a));
    assert_eq!(k.record(a).unwrap().block_events, 1);

    // c and b would now be granted; a stays denied, now by b.
    p.deny = BTreeMap::from([(a, vec![b]), (b2, vec![h])]);
    p.asked.clear();
    let mut fx = Effects::default();
    k.reevaluate(&mut p, &mut fx);
    let woken = woken(&fx);
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
    assert_eq!(first_cycle(&mut k), None);
    k.wait_on(b, &[a]);
    let (cycle, victim) = first_cycle(&mut k).expect("cycle");
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
    assert_eq!(first_cycle(&mut k), None);
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
    let (cycle, victim) = first_cycle(&mut k).expect("cycle");
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
    park_at_gate(&mut k, &mut p, &ws, r2);
    // r2 is also blocked on a lock, and a bystander holds one.
    p.deny.insert(r2, vec![w]);
    acquire(&mut k, &mut p, &mut ws, r2, 7, LockMode::Write);
    p.deny.clear();
    acquire(&mut k, &mut p, &mut ws, other, 9, LockMode::Write);

    let mut t = 10;
    let mut fx = Effects::default();
    let tick = || {
        t += 1;
        Tick(t)
    };
    k.abort(&mut p, w, AbortReason::Wound, &[], tick, &mut fx);
    assert!(released(&fx).is_empty(), "nobody was held");
    assert_eq!(
        aborted(&fx),
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
        assert!(!k.gated(who), "{who}: dependencies are gone");
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
    let mut fx = Effects::default();
    k.step_done(&mut p, t, 0, &ws[&t], || Tick(5), &mut fx);
    assert_eq!(fx.log(), [Effect::Released(t, ItemId(0), LockMode::Write)]);
    assert_eq!(k.record(t).unwrap().installed_early, vec![ItemId(0)]);
    assert_eq!(
        k.db().get(ItemId(0)).version,
        1,
        "installed at the early release"
    );
    let mut fx = acquire(&mut k, &mut p, &mut ws, t, 1, LockMode::Write);
    assert_eq!(fx.log(), grant(t, 1, LockMode::Write));

    let before = k.history().events().len();
    let mut installed = Vec::new();
    let record = k.commit(
        &mut p,
        t,
        &ws[&t],
        true,
        Some(&mut installed),
        || Tick(8),
        || Tick(9),
        &mut fx,
    );
    let record = record.expect("the gate is open");
    assert_eq!(
        fx.log(),
        [Effect::Committed(t)],
        "no victims, nobody released, and overwritten, not appended to"
    );
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
    assert_eq!(record.restarts, 0);
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
    park_at_gate(&mut k, &mut p, &ws, d);
    park_at_gate(&mut k, &mut p, &ws, e);
    assert_eq!(
        k.running_priority(w1),
        k.base_priority(d),
        "gate waits donate priority"
    );

    let mut drained = Effects::default();
    commit_with(&mut k, &mut p, w1, &ws[&w1], &mut drained);
    assert_eq!(released(&drained), vec![e], "d still waits for w2");
    k.wake(e);
    assert!(!k.gated(e) && k.gated(d));

    commit_with(&mut k, &mut p, w2, &ws[&w2], &mut drained);
    assert_eq!(released(&drained), vec![d]);
    k.wake(d);
    assert!(!k.gated(d));
    // The dirty reads predicted the versions the installs produced.
    assert_eq!(k.db().get(ItemId(2)).version, 1);
    assert_eq!(reads(&k, d)[0].1, 1);
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
    let mut fx = Effects::default();
    k.abort(&mut p, d, AbortReason::Wound, &[], || Tick(10), &mut fx);
    assert_eq!(aborted(&fx), vec![(d, AbortReason::Wound)]);
    assert!(released(&fx).is_empty());
    assert!(!k.gated(d) && k.record(d).unwrap().gate.is_empty());
    assert_eq!(k.record(w).unwrap().restarts, 0);
    assert_eq!(k.latest_retiree(ItemId(0)), Some(w), "w's chain stays");

    // Unhooked: w's commit drains nobody.
    let mut proceed = Effects::default();
    commit_with(&mut k, &mut p, w, &ws[&w], &mut proceed);
    assert!(released(&proceed).is_empty());
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
    assert_eq!(reads(&k, r1), [(w2_value, 2)]);

    // The chain's earliest member commits: version 1, chain of 1 — the
    // same prediction for a reader arriving now.
    let mut proceed = Effects::default();
    commit_with(&mut k, &mut p, w1, &ws[&w1], &mut proceed);
    assert_eq!(released(&proceed), vec![w2], "w2's gate opened");
    assert_eq!(k.db().get(ItemId(0)).version, 1);
    acquire(&mut k, &mut p, &mut ws, r2, 0, LockMode::Read);
    assert_eq!(reads(&k, r2), [(w2_value, 2)]);

    k.wake(w2);
    commit_with(&mut k, &mut p, w2, &ws[&w2], &mut proceed);
    assert_eq!(released(&proceed), vec![r1, r2]);
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
    assert_eq!(first_cycle(&mut k), None);

    let mut proceed = Effects::default();
    commit_with(&mut k, &mut p, w2, &ws[&w2], &mut proceed);
    assert!(released(&proceed).is_empty() && k.gated(d), "w1 is left");
    commit_with(&mut k, &mut p, w1, &ws[&w1], &mut proceed);
    assert_eq!(released(&proceed), vec![d]);
    assert!(!k.gated(d));
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
    assert!(!k.gated(next));
    let mut proceed = Effects::default();
    commit_with(&mut k, &mut p, w, &ws[&w], &mut proceed);
    assert!(
        released(&proceed).is_empty(),
        "nobody was gated on w any more"
    );
}

/// `who` commits with nothing staged.
fn commit(k: &mut StateKernel<'_>, who: InstanceId, proceed: &mut Effects) {
    let ws = Workspace::new(who);
    commit_with(k, &mut Scripted::default(), who, &ws, proceed);
}

/// `who` commits through the entry point; `fx` receives what that did.
fn commit_with(
    k: &mut StateKernel<'_>,
    p: &mut Scripted,
    who: InstanceId,
    ws: &Workspace,
    fx: &mut Effects,
) {
    let tick = || Tick(30);
    let record = k.commit(p, who, ws, true, None, tick, tick, fx);
    assert!(record.is_some(), "{who}'s gate is open");
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
    let mut fx = Effects::default();
    k.abort(&mut p, a, AbortReason::Wound, &[], || Tick(20), &mut fx);
    assert_eq!(aborted(&fx), vec![(a, AbortReason::Wound)]);
    assert!(released(&fx).is_empty());
    assert!(k.held(v));
    assert_eq!(k.record(v).unwrap().hold, vec![b]);
    // …whose restarted instance is no longer waited on.
    assert_eq!(k.running_priority(a), k.base_priority(a));
    assert_eq!(k.running_priority(b), k.base_priority(v));

    // …the last does, a commit, which hands v back at that moment.
    let mut proceed = Effects::default();
    commit(&mut k, b, &mut proceed);
    assert_eq!(released(&proceed), vec![v]);
    assert!(!k.held(v));
    assert!(k.record(v).unwrap().hold.is_empty());
    assert_eq!(first_cycle(&mut k), None, "the edges left with the hold");
    assert_eq!(k.running_priority(a), k.base_priority(a));

    // The other way round: a commit first, an abort last.
    let (a2, b2) = (inst(2, 1), inst(3, 1));
    k.begin(a2, None);
    k.begin(b2, None);
    k.hold(v, &[a2, b2]);
    commit(&mut k, b2, &mut proceed);
    assert!(released(&proceed).is_empty() && k.held(v));
    k.abort(
        &mut p,
        a2,
        AbortReason::DeadlockVictim,
        &[],
        || Tick(40),
        &mut fx,
    );
    assert_eq!(released(&fx), vec![v]);
    assert!(!k.held(v));
}

#[test]
fn hold_edges_are_wait_edges_to_the_deadlock_search() {
    let set = set();
    let (v, a) = (inst(4, 0), inst(1, 0));
    let (mut k, _) = begun(&set, &[v, a]);
    k.hold(v, &[a]);
    assert_eq!(first_cycle(&mut k), None);
    k.wait_on(a, &[v]);
    assert_eq!(first_cycle(&mut k), Some((vec![a, v], v)));
}

#[test]
fn aborting_a_held_instance_clears_its_own_hold() {
    let set = set();
    let (v, a) = (inst(4, 0), inst(1, 0));
    let (mut k, _) = begun(&set, &[v, a]);
    let mut p = Scripted::default();
    k.hold(v, &[a]);
    let mut fx = Effects::default();
    k.abort(
        &mut p,
        v,
        AbortReason::DeadlockVictim,
        &[],
        || Tick(5),
        &mut fx,
    );
    assert_eq!(aborted(&fx), vec![(v, AbortReason::DeadlockVictim)]);
    assert!(released(&fx).is_empty(), "v was held, it held nobody");
    assert!(!k.held(v) && k.record(v).unwrap().hold.is_empty());
    assert_eq!(k.running_priority(a), k.base_priority(a));
    // a's commit finds no hold left to end.
    let mut proceed = Effects::default();
    commit(&mut k, a, &mut proceed);
    assert!(released(&proceed).is_empty());
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

    let mut fx = Effects::default();
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
        aborted(&fx),
        vec![(w, AbortReason::DeadlockVictim), (r, AbortReason::Cascade)]
    );
    for who in [w, r] {
        let rec = k.record(who).unwrap();
        assert_eq!(rec.hold, vec![h], "{who} is held on h alone");
        assert_eq!(rec.waits_for, vec![h], "{who}");
    }
    assert_eq!(first_cycle(&mut k), None);

    let mut proceed = Effects::default();
    commit(&mut k, h, &mut proceed);
    assert_eq!(released(&proceed), vec![r, w], "h's commit releases both");
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
    park_at_gate(&mut k, &mut p, &ws, w);
    assert_eq!(k.running_priority(r), k.base_priority(r));
    assert_eq!(k.record(w).unwrap().waits_for, vec![r]);

    let mut fx = Effects::default();
    k.abort(
        &mut p,
        r,
        AbortReason::DeadlockVictim,
        &[],
        || Tick(10),
        &mut fx,
    );
    assert_eq!(aborted(&fx), vec![(r, AbortReason::DeadlockVictim)]);
    assert_eq!(released(&fx), vec![w], "the gate opened");
    assert!(!k.gated(w) && k.record(w).unwrap().waits_for.is_empty());
    assert_eq!(first_cycle(&mut k), None);
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
    park_at_gate(&mut k, &mut p, &ws, w);
    acquire(&mut k, &mut p, &mut ws, r2, 0, LockMode::Read);
    assert_eq!(k.record(w).unwrap().waits_for, vec![r1, r2]);

    p.deny.insert(r2, vec![w]);
    acquire(&mut k, &mut p, &mut ws, r2, 1, LockMode::Write);
    let (mut cycle, victim) = first_cycle(&mut k).expect("r2 and w wait for each other");
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

// One test per kind of effect the entry points return: the resolution
// policy both engines run.

#[test]
fn a_grant_is_an_effect_and_a_covered_access_is_not() {
    let set = set();
    let w = inst(2, 0);
    let (mut k, mut ws) = resolving(&set, &[w]);
    let mut p = Scripted::default();
    let w_ws = ws.get_mut(&w).unwrap();
    let mut fx = Effects::default();
    assert!(k.request(
        &mut p,
        w,
        0,
        ItemId(0),
        LockMode::Write,
        w_ws,
        || Tick(1),
        &mut fx
    ));
    assert_eq!(fx.log(), grant(w, 0, LockMode::Write));
    assert!(k.request(
        &mut p,
        w,
        1,
        ItemId(0),
        LockMode::Read,
        w_ws,
        || Tick(2),
        &mut fx
    ));
    assert!(fx.log().is_empty(), "the write lock covers the read");
    assert_eq!(p.asked, vec![w], "and the protocol was not asked");
    let staged = w_ws.staged_value(ItemId(0)).unwrap();
    assert_eq!(reads(&k, w), [(staged, 0)], "the own staged value");
}

/// `DataRead(T)` is the kernel's record of items, not of reads: a
/// repeated read enters once.
#[test]
fn data_read_tracks_items_not_values() {
    let set = set();
    let a = inst(0, 0);
    let (mut k, mut ws) = resolving(&set, &[a]);
    let mut p = Scripted::default();
    for item in [1, 1, 2] {
        acquire(&mut k, &mut p, &mut ws, a, item, LockMode::Read);
    }
    assert_eq!(k.data_read(a), [ItemId(1), ItemId(2)]);
    assert_eq!(reads(&k, a).len(), 3, "the history logs every read");
}

/// A read of the instance's own staged write cannot be invalidated by
/// another commit and stays out of `DataRead(T)`; a committed-version
/// read made before that write stays in.
#[test]
fn own_workspace_reads_stay_out_of_data_read() {
    let set = set();
    let (a, b) = (inst(0, 0), inst(1, 0));
    let (mut k, mut ws) = resolving(&set, &[a, b]);
    let mut p = Scripted::default();
    acquire(&mut k, &mut p, &mut ws, a, 3, LockMode::Write);
    acquire(&mut k, &mut p, &mut ws, a, 3, LockMode::Read);
    assert!(k.data_read(a).is_empty());

    acquire(&mut k, &mut p, &mut ws, b, 3, LockMode::Read);
    acquire(&mut k, &mut p, &mut ws, b, 3, LockMode::Write);
    acquire(&mut k, &mut p, &mut ws, b, 3, LockMode::Read);
    assert_eq!(k.data_read(b), [ItemId(3)]);
    let own = |who| {
        let own = |e: &Event| match e.kind {
            EventKind::Read { own, .. } if e.instance == who => Some(own),
            _ => None,
        };
        k.history()
            .events()
            .iter()
            .filter_map(own)
            .collect::<Vec<_>>()
    };
    assert_eq!((own(a), own(b)), (vec![true], vec![false, true]));
}

#[test]
fn a_denial_parks_the_requester_on_its_blockers() {
    let set = set();
    let (a, h) = (inst(0, 0), inst(3, 0));
    let (mut k, mut ws) = resolving(&set, &[a, h]);
    let mut p = Scripted::default();
    acquire(&mut k, &mut p, &mut ws, h, 0, LockMode::Write);
    p.deny.insert(a, vec![h]);
    let a_ws = ws.get_mut(&a).unwrap();
    let mut fx = Effects::default();
    assert!(!k.request(
        &mut p,
        a,
        0,
        ItemId(0),
        LockMode::Read,
        a_ws,
        || Tick(1),
        &mut fx
    ));
    let [Effect::Parked(req, blockers)] = *fx.log() else {
        panic!("{fx:?}");
    };
    assert_eq!((req.who, fx.ids(blockers)), (a, &[h][..]));
    assert!(k.pending_request(a).is_some());
    assert_eq!(k.record(a).unwrap().block_events, 1);
    assert_eq!(k.running_priority(h), k.base_priority(a), "h inherits");
}

/// A wound aborts the holder on the wounder, and with it every dirty
/// reader of the holder's retired writes (a cascade, on the same cause);
/// the wounder is not granted yet — it presents the request again.
#[test]
fn a_wound_aborts_the_holder_and_its_dependents_on_the_wounder() {
    let set = set();
    let (h, r, w) = (inst(0, 0), inst(1, 0), inst(3, 0));
    let (mut k, mut ws) = resolving(&set, &[h, r, w]);
    let mut p = Scripted::default();
    write_and_retire(&mut k, &mut p, &mut ws, w, 0);
    acquire(&mut k, &mut p, &mut ws, r, 0, LockMode::Read);
    acquire(&mut k, &mut p, &mut ws, w, 5, LockMode::Write);
    p.wound.insert(h, vec![w]);
    let fx = acquire(&mut k, &mut p, &mut ws, h, 5, LockMode::Write);
    let [Effect::Aborted(w1, AbortReason::Wound, cause), Effect::Aborted(r1, AbortReason::Cascade, cause_r)] =
        *fx.log()
    else {
        panic!("{fx:?}");
    };
    assert_eq!((w1, r1), (w, r));
    assert_eq!(fx.ids(cause), [h]);
    assert_eq!(cause_r, cause, "a cascade is held on its source's cause");
    for who in [w, r] {
        assert_eq!(k.record(who).unwrap().hold, vec![h], "{who}");
        assert_eq!(k.record(who).unwrap().restarts, 1, "{who}");
    }
    assert!(!k.locks().holds(h, ItemId(5), LockMode::Write));
    p.wound.clear();
    let fx = acquire(&mut k, &mut p, &mut ws, h, 5, LockMode::Write);
    assert_eq!(
        fx.log(),
        grant(h, 5, LockMode::Write),
        "the retry goes through"
    );
    let (_, _, reasons) = k.into_parts();
    assert_eq!((reasons.wound, reasons.cascade), (1, 1));
}

#[test]
fn a_die_aborts_the_requester_on_its_blockers() {
    let set = set();
    let (h, l) = (inst(0, 0), inst(3, 0));
    let (mut k, mut ws) = resolving(&set, &[h, l]);
    let mut p = Scripted::default();
    acquire(&mut k, &mut p, &mut ws, h, 0, LockMode::Read);
    acquire(&mut k, &mut p, &mut ws, l, 1, LockMode::Write);
    p.die.insert(l, vec![h]);
    let fx = acquire(&mut k, &mut p, &mut ws, l, 0, LockMode::Write);
    let [Effect::Aborted(who, AbortReason::CeilingBlock, cause)] = *fx.log() else {
        panic!("{fx:?}");
    };
    assert_eq!((who, fx.ids(cause)), (l, &[h][..]));
    assert!(k.held(l) && k.locks().held_by(l).next().is_none());
}

/// What an abort releases is re-evaluated in the same call: a request
/// the wounded holder blocked is woken, and the hold the victim was the
/// last of ends.
#[test]
fn an_abort_wakes_what_it_unblocked_and_ends_the_holds_it_was_the_last_of() {
    let set = set();
    let (h, b, v, l) = (inst(0, 0), inst(1, 0), inst(2, 0), inst(4, 0));
    let (mut k, mut ws) = resolving(&set, &[h, b, v, l]);
    let mut p = Scripted {
        blocked_by_holders: true,
        ..Scripted::default()
    };
    acquire(&mut k, &mut p, &mut ws, l, 0, LockMode::Write);
    p.deny.insert(b, vec![l]);
    let fx = acquire(&mut k, &mut p, &mut ws, b, 0, LockMode::Read);
    assert!(matches!(fx.log(), [Effect::Parked(..)]));
    k.hold(v, &[l]);
    p.wound.insert(h, vec![l]);
    let fx = acquire(&mut k, &mut p, &mut ws, h, 1, LockMode::Write);
    assert_eq!(aborted(&fx), vec![(l, AbortReason::Wound)]);
    assert_eq!(
        fx.log()[1..],
        [Effect::HoldReleased(v), Effect::Woken(b)],
        "the abort's releases, then the re-evaluation"
    );
    assert!(k.pending_request(b).is_none() && !k.held(v));
}

/// A commit aborts the instances it invalidates on the committer (OCC),
/// passes its commit point, leaves, and re-evaluates: the woken come
/// first, then the gates it opened, then the holds it ended — here the
/// hold of its own victim. A dependent whose gate empties while it is
/// blocked on a lock is not let through: its request stays pending.
#[test]
fn a_commit_aborts_its_victims_then_wakes_then_opens_gates_and_ends_holds() {
    let set = set();
    let (d, e, b, v, w) = (inst(0, 0), inst(1, 0), inst(2, 0), inst(3, 0), inst(4, 0));
    let (mut k, mut ws) = resolving(&set, &[d, e, b, v, w]);
    let mut p = Scripted {
        blocked_by_holders: true,
        ..Scripted::default()
    };
    write_and_retire(&mut k, &mut p, &mut ws, w, 0);
    acquire(&mut k, &mut p, &mut ws, w, 1, LockMode::Write);
    for reader in [d, e] {
        acquire(&mut k, &mut p, &mut ws, reader, 0, LockMode::Read);
    }
    // d parks at its gate; e blocks on a lock v holds; b on one w holds.
    let mut fx = Effects::default();
    assert!(k
        .commit(
            &mut p,
            d,
            &ws[&d],
            true,
            None,
            || Tick(3),
            || Tick(3),
            &mut fx
        )
        .is_none());
    let [Effect::Gated(_, gate)] = *fx.log() else {
        panic!("{fx:?}");
    };
    assert_eq!(fx.ids(gate), [w]);
    acquire(&mut k, &mut p, &mut ws, v, 2, LockMode::Write);
    p.deny.insert(e, vec![v]);
    acquire(&mut k, &mut p, &mut ws, e, 2, LockMode::Read);
    p.deny.insert(b, vec![w]);
    acquire(&mut k, &mut p, &mut ws, b, 1, LockMode::Read);
    p.victims = vec![v];
    p.deny.remove(&e);

    let record = k.commit(
        &mut p,
        w,
        &ws[&w],
        true,
        None,
        || Tick(4),
        || Tick(5),
        &mut fx,
    );
    assert_eq!(record.expect("w's gate is open").restarts, 0);
    let cause = match fx.log()[0] {
        Effect::Aborted(who, AbortReason::Wound, cause) if who == v => cause,
        ref other => panic!("{other:?}"),
    };
    assert_eq!(fx.ids(cause), [w], "held on the committer");
    assert_eq!(
        fx.log()[1..],
        [
            Effect::Committed(w),
            Effect::Woken(e),
            Effect::Woken(b),
            Effect::GateOpened(d),
            Effect::HoldReleased(v),
        ]
    );
}

/// A dependent whose gate opens while a denied request keeps it waiting
/// is not let through: the request stays pending, denied once.
#[test]
fn an_opened_gate_leaves_a_pending_request_alone() {
    let set = set();
    let (e, x, w) = (inst(1, 0), inst(0, 0), inst(4, 0));
    let (mut k, mut ws) = resolving(&set, &[e, x, w]);
    let mut p = Scripted::default();
    write_and_retire(&mut k, &mut p, &mut ws, w, 0);
    acquire(&mut k, &mut p, &mut ws, e, 0, LockMode::Read);
    acquire(&mut k, &mut p, &mut ws, x, 1, LockMode::Write);
    p.deny.insert(e, vec![x]);
    acquire(&mut k, &mut p, &mut ws, e, 1, LockMode::Read);
    let mut fx = Effects::default();
    k.commit(
        &mut p,
        w,
        &ws[&w],
        true,
        None,
        || Tick(4),
        || Tick(4),
        &mut fx,
    )
    .expect("w commits");
    assert_eq!(fx.log(), [Effect::Committed(w)]);
    assert!(!k.gated(e));
    assert!(k.pending_request(e).is_some());
    assert_eq!(k.record(e).unwrap().block_events, 1);
}

/// a (T0) holds item 0, b (T3) item 1; a waits for b, and b's request
/// closes the cycle.
fn two_way_cycle<'a>(
    k: &mut StateKernel<'a>,
    p: &mut Scripted,
    ws: &mut BTreeMap<InstanceId, Workspace>,
    [a, b]: [InstanceId; 2],
) -> Effects {
    acquire(k, p, ws, a, 0, LockMode::Write);
    acquire(k, p, ws, b, 1, LockMode::Write);
    p.deny = BTreeMap::from([(a, vec![b]), (b, vec![a])]);
    acquire(k, p, ws, a, 1, LockMode::Write);
    acquire(k, p, ws, b, 0, LockMode::Write)
}

#[test]
fn a_denial_that_closes_a_cycle_aborts_its_victim_on_the_rest() {
    let set = set();
    let (a, b) = (inst(0, 0), inst(3, 0));
    let (mut k, mut ws) = resolving(&set, &[a, b]);
    let mut p = Scripted {
        blocked_by_holders: true,
        ..Scripted::default()
    };
    let fx = two_way_cycle(&mut k, &mut p, &mut ws, [a, b]);
    let [Effect::Parked(..), Effect::Cycle(cycle, victim), Effect::Aborted(who, AbortReason::DeadlockVictim, cause), Effect::Woken(woken)] =
        *fx.log()
    else {
        panic!("{fx:?}");
    };
    assert_eq!((victim, who, woken), (b, b, a));
    assert_eq!(fx.ids(cycle), [a, b]);
    assert_eq!(cause, cycle, "held on the rest of its cycle");
    assert_eq!(k.record(b).unwrap().hold, vec![a]);
    assert!(k.pending_request(a).is_none() && k.pending_request(b).is_none());
}

#[test]
fn a_reporting_kernel_reports_the_cycle_and_leaves_it_standing() {
    let set = set();
    let (a, b) = (inst(0, 0), inst(3, 0));
    let (mut k, mut ws) = begun(&set, &[a, b]);
    let mut p = Scripted {
        blocked_by_holders: true,
        ..Scripted::default()
    };
    let fx = two_way_cycle(&mut k, &mut p, &mut ws, [a, b]);
    let [Effect::Parked(..), Effect::Cycle(cycle, victim)] = *fx.log() else {
        panic!("{fx:?}");
    };
    assert_eq!((fx.ids(cycle), victim), (&[a, b][..], b));
    assert!(k.pending_request(a).is_some() && k.pending_request(b).is_some());
    assert_eq!(k.record(b).unwrap().restarts, 0);
}

/// One denial that closes two cycles through the requester: one call
/// resolves both, a victim per cycle, and the requester goes on.
#[test]
fn one_denial_closing_two_cycles_resolves_both() {
    let set = set();
    let (r, a, b) = (inst(0, 0), inst(3, 0), inst(4, 0));
    let (mut k, mut ws) = resolving(&set, &[r, a, b]);
    let mut p = Scripted {
        blocked_by_holders: true,
        ..Scripted::default()
    };
    for (who, item) in [(a, 0), (b, 1), (r, 2)] {
        acquire(&mut k, &mut p, &mut ws, who, item, LockMode::Write);
    }
    p.deny = BTreeMap::from([(a, vec![r]), (b, vec![r]), (r, vec![a, b])]);
    for who in [a, b] {
        acquire(&mut k, &mut p, &mut ws, who, 2, LockMode::Write);
    }
    let fx = acquire(&mut k, &mut p, &mut ws, r, 5, LockMode::Write);
    let cycles: Vec<_> = fx
        .log()
        .iter()
        .filter_map(|e| match *e {
            Effect::Cycle(cycle, victim) => Some((fx.ids(cycle).to_vec(), victim)),
            _ => None,
        })
        .collect();
    assert_eq!(cycles, vec![(vec![r, a], a), (vec![r, b], b)]);
    assert_eq!(
        aborted(&fx),
        vec![
            (a, AbortReason::DeadlockVictim),
            (b, AbortReason::DeadlockVictim)
        ]
    );
    assert_eq!(fx.log().last(), Some(&Effect::Woken(r)));
    assert_eq!(first_cycle(&mut k), None);
}

/// In a kernel scoped to one shard, a victim whose template touches
/// other shards is named, not aborted: its owner aborts it in every
/// kernel ([`StateKernel::abort_local`]).
#[test]
fn a_victim_that_spans_kernels_is_named_not_aborted() {
    // Two shards: item 0 in shard 0, item 1 in shard 1. L touches both.
    let set = SetBuilder::new()
        .with(TransactionTemplate::new(
            "H",
            10,
            vec![Step::write(ItemId(0), 1)],
        ))
        .with(TransactionTemplate::new(
            "L",
            20,
            vec![Step::write(ItemId(0), 1), Step::write(ItemId(1), 1)],
        ))
        .build_rate_monotonic()
        .expect("set");
    let (h, l) = (inst(0, 0), inst(1, 0));
    let kernel = StateKernel::new(&set, None).scoped_to(ShardRouter::new(2), 0);
    let (mut k, mut ws) = begin(kernel, &[h, l]);
    let mut p = Scripted::default();
    acquire(&mut k, &mut p, &mut ws, l, 0, LockMode::Write);
    p.wound.insert(h, vec![l]);
    let fx = acquire(&mut k, &mut p, &mut ws, h, 0, LockMode::Write);
    let [Effect::Foreign(who, AbortReason::Wound, cause)] = *fx.log() else {
        panic!("{fx:?}");
    };
    assert_eq!((who, fx.ids(cause)), (l, &[h][..]));
    assert!(k.locks().holds(l, ItemId(0), LockMode::Write), "left alone");
    assert_eq!(k.record(l).unwrap().restarts, 0);

    let mut local = Effects::default();
    k.abort_local(&mut p, l, Some(AbortReason::Wound), &[h], &mut local);
    assert!(k.locks().held_by(l).next().is_none() && k.held(l));
    p.wound.clear();
    let fx = acquire(&mut k, &mut p, &mut ws, h, 0, LockMode::Write);
    assert_eq!(fx.log(), grant(h, 0, LockMode::Write));
    let (history, _, reasons) = k.into_parts();
    assert_eq!(reasons.wound, 1);
    assert!(
        !history.events().iter().any(|e| e.kind == EventKind::Abort),
        "the owner logs the abort"
    );
}

// The dispatch rule: `pick_ready`, `outranks` and `arrival_outranks`.

/// A set of one-step templates at the given priority levels.
fn leveled_set(levels: &[u32]) -> TransactionSet {
    let mut b = SetBuilder::new();
    for k in 0..levels.len() {
        b.add(TransactionTemplate::new(
            format!("T{k}"),
            10,
            vec![Step::compute(1)],
        ));
    }
    b.build_with_priorities(levels).expect("leveled set")
}

/// A kernel over `set` with `ids` begun.
fn live<'a>(set: &'a TransactionSet, ids: &[InstanceId]) -> StateKernel<'a> {
    let mut k = StateKernel::new(set, None);
    for &id in ids {
        k.begin(id, None);
    }
    k
}

/// The dispatch order the engines have always had: the ready instance
/// with the greatest `(running, base, Reverse(seq), Reverse(txn))`.
fn reference_pick(k: &StateKernel<'_>) -> Option<(InstanceId, usize)> {
    use std::cmp::Reverse;
    k.active_instances()
        .iter()
        .zip(k.active_slots())
        .map(|(&id, &s)| (id, s as usize))
        .filter(|&(_, s)| k.record_at(s).waits_for.is_empty())
        .max_by_key(|&(id, s)| {
            (
                k.record_at(s).running,
                k.base_priority(id),
                Reverse(id.seq),
                Reverse(id.txn.0),
            )
        })
}

/// Sparse distinct levels, several live instances per template, random
/// wait edges: inheritance makes running priorities tie with bases and
/// with each other.
fn random_live(rng: &mut rtdb_util::rng::Rng) -> (TransactionSet, Vec<InstanceId>) {
    let n = rng.range_usize(1..6);
    let mut levels: Vec<u32> = (0..12).map(|l| l * 7 + 3).collect();
    rng.shuffle(&mut levels);
    levels.truncate(n);
    let mut ids = Vec::new();
    for txn in 0..n as u32 {
        let mut seqs: Vec<u32> = (0..6).collect();
        rng.shuffle(&mut seqs);
        seqs.truncate(rng.range_usize(1..4));
        ids.extend(seqs.into_iter().map(|seq| inst(txn, seq)));
    }
    (leveled_set(&levels), ids)
}

/// Random wait edges among `ids`.
fn random_waits(rng: &mut rtdb_util::rng::Rng, k: &mut StateKernel<'_>, ids: &[InstanceId]) {
    for &who in ids {
        if rng.chance(0.4) {
            let on: Vec<InstanceId> = ids
                .iter()
                .copied()
                .filter(|&b| b != who && rng.chance(0.3))
                .collect();
            if !on.is_empty() {
                k.wait_on(who, &on);
            }
        }
    }
}

#[test]
fn the_one_pass_pick_keeps_the_dispatch_order() {
    rtdb_util::prop::forall(256, |rng| {
        let (set, ids) = random_live(rng);
        let mut k = live(&set, &ids);
        random_waits(rng, &mut k, &ids);
        assert_eq!(k.pick_ready(), reference_pick(&k), "{ids:?}");
    });
}

/// A job not yet begun runs before the pick exactly when, begun after
/// every live instance of its template, the pick would choose it.
#[test]
fn an_arrival_outranks_the_runner_exactly_when_the_pick_would_choose_it() {
    rtdb_util::prop::forall(256, |rng| {
        let (set, ids) = random_live(rng);
        let mut k = live(&set, &ids);
        random_waits(rng, &mut k, &ids);
        let Some((runner, s)) = k.pick_ready() else {
            return;
        };
        let txn = TxnId(rng.bounded(set.len() as u64) as u32);
        let seq = 1 + ids
            .iter()
            .filter(|id| id.txn == txn)
            .map(|id| id.seq)
            .max()
            .unwrap_or(0);
        let (running, runner_base) = (k.record_at(s).running, k.base_priority(runner));
        let preempts = StateKernel::arrival_outranks(set.priority_of(txn), running, runner_base);
        k.begin(inst(txn.0, seq), None);
        let picked = k.pick_ready().map(|(id, _)| id);
        assert_eq!(
            picked == Some(inst(txn.0, seq)),
            preempts,
            "{ids:?} + {txn:?}"
        );
    });
}

#[test]
fn an_inheriting_low_instance_runs_before_a_higher_ready_one() {
    // H > M > L; H waits for L, so L runs at H's priority.
    let set = leveled_set(&[30, 20, 10]);
    let (h, m, l) = (inst(0, 0), inst(1, 0), inst(2, 0));
    let mut k = live(&set, &[h, m, l]);
    k.wait_on(h, &[l]);
    assert_eq!(k.pick_ready().map(|(id, _)| id), Some(l));
    // An instance with wait edges is never picked, however high.
    k.wait_on(l, &[m]);
    assert_eq!(k.pick_ready().map(|(id, _)| id), Some(m));
    k.wait_on(m, &[h]);
    assert_eq!(k.pick_ready(), None);
}

#[test]
fn equal_running_priority_goes_to_the_higher_base() {
    // H waits for both M and L: both run at H's priority. L comes first
    // in the live list, so the tie decides.
    let set = leveled_set(&[30, 10, 20]);
    let (h, l, m) = (inst(0, 0), inst(1, 0), inst(2, 0));
    let mut k = live(&set, &[h, m, l]);
    k.wait_on(h, &[l, m]);
    assert_eq!(k.pick_ready().map(|(id, _)| id), Some(m));
    assert!(k.outranks(m, l) && !k.outranks(l, m));
}

#[test]
fn equal_base_goes_to_the_earlier_instance() {
    let set = leveled_set(&[30, 20]);
    let (late, early) = (inst(1, 4), inst(1, 2));
    let mut k = live(&set, &[late, early]);
    assert_eq!(k.pick_ready().map(|(id, _)| id), Some(early));
    // Inheritance lifts both to the same running priority; the earlier
    // one still goes first.
    let h = inst(0, 0);
    k.begin(h, None);
    k.wait_on(h, &[late, early]);
    assert_eq!(k.pick_ready().map(|(id, _)| id), Some(early));
}
