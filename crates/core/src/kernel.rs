//! The state kernel: per-instance protocol state and its transitions.
//!
//! The paper's locking conditions are predicates over one piece of state
//! — held locks, `Sysceil`/`T*`, `DataRead(T)`, `WriteSet(T)`, pending
//! requests, inheritance edges. [`StateKernel`] owns that state (plus the
//! committed store and the history log it is recorded in) and is the
//! [`EngineView`] every protocol consults; the simulator and the threaded
//! runtime both drive it, so a transition is written once.
//!
//! ## Contract: the kernel decides and applies, the engines schedule
//!
//! The resolution policy lives here, once. The entry points
//! [`StateKernel::request`] and [`StateKernel::commit`] apply a decision
//! end to end: a wound aborts the holders on the wounder, a die the
//! requester on its blockers, an optimistic commit its victims on the
//! committer; a denial or a closed commit gate aborts each wait-for
//! cycle's victim on the rest of the cycle; every abort is followed by a
//! re-evaluation and holds what it restarts on its cause. What a call did
//! goes into an [`Effects`] buffer the caller lends, in the order the
//! engine acts on it — Gantt segments and ready-queue changes in the
//! simulator, whose trace logs the effects themselves, notifies and abort
//! flags in the runtime. A tick source stamps what a call logs: one clock
//! value per transition in the simulator, one atomic tick per event in
//! the runtime.
//!
//! ## One record per fact
//!
//! What the kernel records, nobody copies: the protocols' `DataRead(T)`
//! is [`Record::data_read`], the values and versions an instance read are
//! the history's `Read` events, and a grant — with the locking condition
//! that decided it, when the protocol names one — is the
//! [`Effect::Granted`] the kernel logs where it applies the grant, never
//! where it only asks whether a parked request would now pass. A
//! workspace stages writes and folds the read digest, nothing more.
//!
//! ## One handle per live instance
//!
//! Each live instance has a [`Record`] in a slot that does not move while
//! the instance lives: [`StateKernel::begin`] returns it,
//! [`StateKernel::slot_of`] finds it by id, and
//! [`StateKernel::active_slots`] lists the slots parallel to the
//! ascending [`EngineView::active_instances`]. The record holds the
//! instance's wait edges and running priority too (the `inherit` module
//! keeps the latter up to date), so nothing else keeps a table of live
//! instances: an engine indexes its own per-instance state by the slot.

use crate::deps::RetiredChains;
use crate::{
    AbortBreakdown, AbortReason, CeilingFlavor, CeilingTable, Decision, EngineView, GrantRule,
    LockRequest, LockTable, ProtocolFor, ShardRouter, UpdateModel,
};
use rtdb_storage::{CycleScratch, Database, EventKind, History, VersionedValue, Workspace};
use rtdb_types::{InstanceId, ItemId, LockMode, Priority, Tick, TransactionSet, TxnId, Value};
use std::cmp::Reverse;

/// Insert `x` into the ascending `v`; `false` if it was already there.
fn insert_sorted<T: Ord + Copy>(v: &mut Vec<T>, x: T) -> bool {
    match v.binary_search(&x) {
        Ok(_) => false,
        Err(i) => {
            v.insert(i, x);
            true
        }
    }
}

/// What the kernel keeps per live instance, beyond its locks.
///
/// Two sorted lists name instances this one must outlast, and one scan
/// of the live records ([`StateKernel::commit`], [`StateKernel::abort`])
/// removes a departing instance from both.
/// A record stays in its slot ([`StateKernel::slot_of`]) for as long as
/// its instance is live, so an engine can keep its own per-instance
/// state in a table indexed by the same slot.
#[derive(Debug, Default)]
pub struct Record {
    /// The running priority: the base priority joined, transitively, with
    /// the running priority of every live instance waiting for this one
    /// (paper §5; `crate::inherit`).
    pub running: Priority,
    /// The instances this one waits for — a denied request's blockers,
    /// its commit gate or its restart hold — in recorded order: its
    /// out-edges in the wait-for graph. They inherit its running priority.
    pub waits_for: Vec<InstanceId>,
    /// The denied request the instance is blocked on, if any.
    pub pending: Option<LockRequest>,
    /// `DataRead(T)`: items whose committed (or retired) pre-image the
    /// instance observed through this kernel, sorted.
    pub data_read: Vec<ItemId>,
    /// Items the instance staged writes for through this kernel, sorted.
    pub staged: Vec<ItemId>,
    /// Items already installed by an early release (CCP), sorted.
    pub installed_early: Vec<ItemId>,
    /// Distinct lower-priority templates that ever blocked the instance —
    /// the measurable form of the paper's single-blocking property.
    pub lower_blockers: Vec<TxnId>,
    /// Times a request of the instance was denied.
    pub block_events: u32,
    /// Times the instance was aborted and restarted.
    pub restarts: u32,
    /// The restart hold ([`StateKernel::hold`]): the instances a freshly
    /// aborted instance waits out before it runs again, sorted. It is
    /// released when the *last* of them commits or aborts, not the
    /// first; an abort of the held instance itself clears it.
    pub hold: Vec<InstanceId>,
    /// The commit gate ([`StateKernel::commit`]): the latest retiree of
    /// every item the instance was granted over a retired chain, sorted —
    /// the instances whose dirty writes it read or overwrote — and the
    /// readers let past its write locks (`gate_writers_on`). It may
    /// commit once the list is empty: an entry leaves when its instance
    /// commits; an abort of a dirty-write source aborts this instance too
    /// (a cascade), an abort of a reader let past only drops the entry;
    /// an abort of its own empties the list.
    pub gate: Vec<InstanceId>,
}

impl Record {
    fn note_lower_blocker(&mut self, txn: TxnId) {
        insert_sorted(&mut self.lower_blockers, txn);
    }

    /// Record an early install of `item`; `true` if it was not recorded
    /// before.
    fn mark_installed_early(&mut self, item: ItemId) -> bool {
        insert_sorted(&mut self.installed_early, item)
    }
}

/// The instances an [`Effect`] names — blockers, gate entries, a cycle,
/// a cause — kept in its [`Effects`] buffer or a copy ([`Effect::copied`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span(u32, u32);

impl Span {
    /// The instances this span names in `ids`, the buffer it indexes.
    pub fn of(self, ids: &[InstanceId]) -> &[InstanceId] {
        &ids[self.0 as usize..self.1 as usize]
    }

    #[inline]
    fn append(ids: &mut Vec<InstanceId>, named: &[InstanceId]) -> Span {
        let start = ids.len() as u32;
        ids.extend_from_slice(named);
        Span(start, ids.len() as u32)
    }
}

/// One thing a kernel call did that an engine acts on, or one of the
/// engine's own events a trace logs beside them (the last three).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effect {
    /// The request was granted now and its data operation happened; the
    /// rule that decided it when the protocol names one
    /// ([`Decision::Grant`]).
    Granted(LockRequest, Option<GrantRule>),
    /// The request is pending on these blockers; they inherit its
    /// priority.
    Parked(LockRequest, Span),
    /// The committer parked at its commit gate on these entries; they
    /// inherit its priority.
    Gated(InstanceId, Span),
    /// `(who, item, mode)`: a lock released before commit, by an early
    /// release or a retire (a retired write shows as its write lock).
    Released(InstanceId, ItemId, LockMode),
    /// `(who, reason, cause)`: aborted and restarted, held on the cause
    /// less its co-aborted (a cascade shares its source's cause).
    Aborted(InstanceId, AbortReason, Span),
    /// `(who, reason, cause)`: a victim that also lives in other kernels,
    /// left to its owner ([`StateKernel::abort_local`]).
    Foreign(InstanceId, AbortReason, Span),
    /// Its pending request was cleared; it presents it again.
    Woken(InstanceId),
    /// Its commit gate opened while no request blocks it.
    GateOpened(InstanceId),
    /// Its restart hold ended.
    HoldReleased(InstanceId),
    /// `(cycle, victim)`: a wait-for cycle, resolved by the victim's abort
    /// that follows, or reported by a kernel built
    /// [`StateKernel::reporting_deadlocks`].
    Cycle(Span, InstanceId),
    /// Installed, released everything and left.
    Committed(InstanceId),
    /// Released by its engine (an arrival).
    Arrived(InstanceId),
    /// Its deadline passed while it was live.
    DeadlineMissed(InstanceId),
    /// No instance could run and none was due, and no cycle was found:
    /// the engine stopped on every live instance (the span).
    Stalled(Span),
}

impl Effect {
    /// This effect with the span it names copied out of `from` onto the
    /// end of `to`: how a log that outlives the buffer keeps it.
    // `always`: with a plain hint the simulator's trace still calls it out
    // of line, once per event.
    #[inline(always)]
    pub fn copied(self, from: &Effects, to: &mut Vec<InstanceId>) -> Effect {
        let mut copy = |span: Span| Span::append(to, from.ids(span));
        match self {
            Effect::Parked(req, on) => Effect::Parked(req, copy(on)),
            Effect::Gated(who, on) => Effect::Gated(who, copy(on)),
            Effect::Aborted(who, reason, cause) => Effect::Aborted(who, reason, copy(cause)),
            Effect::Foreign(who, reason, cause) => Effect::Foreign(who, reason, copy(cause)),
            Effect::Cycle(cycle, victim) => Effect::Cycle(copy(cycle), victim),
            Effect::Stalled(live) => Effect::Stalled(copy(live)),
            named => named,
        }
    }
}

/// What a kernel call did, in the order the engine acts on it, in a
/// buffer the caller lends: the entry points overwrite it,
/// [`StateKernel::reevaluate`] and [`StateKernel::resolve_cycles`] append,
/// and an engine may append its own events ([`Effects::push`]).
#[derive(Debug, Default)]
pub struct Effects {
    log: Vec<Effect>,
    ids: Vec<InstanceId>,
}

impl Effects {
    /// The effects, in order.
    pub fn log(&self) -> &[Effect] {
        &self.log
    }

    /// The instances `span` names.
    pub fn ids(&self, span: Span) -> &[InstanceId] {
        span.of(&self.ids)
    }

    /// Empty the buffer, keeping its capacity.
    pub fn clear(&mut self) {
        self.log.clear();
        self.ids.clear();
    }

    /// Append `effect`.
    pub fn push(&mut self, effect: Effect) {
        self.log.push(effect);
    }

    /// A span naming `ids`, kept in this buffer.
    pub fn span(&mut self, ids: &[InstanceId]) -> Span {
        Span::append(&mut self.ids, ids)
    }
}

/// One kernel: ceilings, lock table, inheritance, retired chains, live
/// instances with their [`Record`]s, committed store, history and abort
/// breakdown. The runtime's sharded manager runs one per shard.
pub struct StateKernel<'a> {
    set: &'a TransactionSet,
    ceilings: CeilingTable,
    locks: LockTable,
    retired: RetiredChains,
    /// Live instances, ascending; `records[slot[i]]` belongs to
    /// `active[i]`.
    active: Vec<InstanceId>,
    slot: Vec<u32>,
    /// The records, in place: a record never moves, so an instance's
    /// arrival and departure shift slot numbers, not records.
    records: Vec<Record>,
    /// Slots of departed instances, their records cleared and kept for
    /// their buffers.
    spare: Vec<u32>,
    /// Number of live instances with a pending request.
    n_pending: usize,
    /// Number of live instances with a non-empty [`Record::hold`], so a
    /// commit or an abort skips the hold scan while nobody is held.
    n_held: usize,
    /// Number of live instances with a non-empty [`Record::gate`]; with
    /// `n_held` 0 too, a departure skips the scan.
    n_gated: usize,
    /// `Some((router, shard))` when this kernel governs one shard of a
    /// partitioned item space: only items routed to `shard` enter
    /// `DataRead` or are installed here. A cross-shard job's single
    /// workspace spans several kernels (its write values depend on the
    /// whole read digest), so each kernel keeps its own slice.
    scope: Option<(ShardRouter, usize)>,
    /// Abort each wait-for cycle's victim (`true`), or report the cycle
    /// and leave it standing ([`StateKernel::reporting_deadlocks`]).
    resolve_deadlocks: bool,
    db: Database,
    history: History,
    abort_reasons: AbortBreakdown,
    /// The blocked instances with their slots, in re-evaluation order.
    reeval_scratch: Vec<(InstanceId, usize)>,
    /// The write holders of an item a read was just granted.
    writers_scratch: Vec<InstanceId>,
    /// The deadlock search's buffers.
    cycle_scratch: CycleScratch,
}

impl<'a> StateKernel<'a> {
    /// Empty kernel over `set` for a protocol reading `flavor`
    /// ([`ProtocolFor::ceiling_flavor`]): the lock table maintains that
    /// `Sysceil` incrementally, so the protocol's ceiling queries are O(1).
    pub fn new(set: &'a TransactionSet, flavor: Option<CeilingFlavor>) -> Self {
        let ceilings = CeilingTable::new(set);
        let locks = LockTable::with_flavor(&ceilings, flavor);
        StateKernel {
            set,
            ceilings,
            locks,
            retired: RetiredChains::default(),
            active: Vec::new(),
            slot: Vec::new(),
            records: Vec::new(),
            spare: Vec::new(),
            n_pending: 0,
            n_held: 0,
            n_gated: 0,
            scope: None,
            resolve_deadlocks: true,
            db: Database::new(),
            history: History::new(),
            abort_reasons: AbortBreakdown::default(),
            reeval_scratch: Vec::new(),
            writers_scratch: Vec::new(),
            cycle_scratch: CycleScratch::default(),
        }
    }

    /// Restrict the kernel to the items `router` sends to `shard`.
    pub fn scoped_to(mut self, router: ShardRouter, shard: usize) -> Self {
        self.scope = Some((router, shard));
        self
    }

    /// Report a wait-for cycle as [`Effect::Cycle`] and leave it
    /// standing, instead of aborting its victim — a simulation that stops
    /// at a deadlock.
    pub fn reporting_deadlocks(mut self) -> Self {
        self.resolve_deadlocks = false;
        self
    }

    /// True if `who` also lives in other kernels: a scoped kernel's
    /// instance whose template touches other shards.
    fn spans_kernels(&self, who: InstanceId) -> bool {
        self.scope
            .is_some_and(|(router, _)| router.shards_of(self.set, who.txn).is_cross_shard())
    }

    /// Pre-size the history log.
    pub fn reserve_history(&mut self, events: usize) {
        self.history.reserve_events(events);
    }

    /// Pre-size for `live` instances live at once over `items` items: the
    /// live list, the records and the lock table, so the first instances
    /// of a run do not grow them one by one.
    pub fn reserve(&mut self, live: usize, items: usize) {
        self.active.reserve(live);
        self.slot.reserve(live);
        self.records.reserve(live);
        self.spare.reserve(live);
        self.locks.reserve(items, live);
    }

    #[inline]
    fn owns(&self, item: ItemId) -> bool {
        self.scope.is_none_or(|(r, s)| r.shard_of(item) == s)
    }

    #[inline]
    fn idx(&self, who: InstanceId) -> Option<usize> {
        self.active.binary_search(&who).ok()
    }

    /// The slot of a live instance's record: fixed from its `begin` to
    /// its departure, then reused by a later `begin`.
    #[inline]
    pub fn slot_of(&self, who: InstanceId) -> Option<usize> {
        self.idx(who).map(|i| self.slot[i] as usize)
    }

    /// The record slots of the live instances, parallel to
    /// [`EngineView::active_instances`].
    #[inline]
    pub fn active_slots(&self) -> &[u32] {
        &self.slot
    }

    /// The record in `slot`, as [`StateKernel::active_slots`] names it.
    #[inline]
    pub fn record_at(&self, slot: usize) -> &Record {
        &self.records[slot]
    }

    #[inline]
    fn record_mut(&mut self, who: InstanceId) -> &mut Record {
        let s = self.slot_of(who).expect("instance is live");
        &mut self.records[s]
    }

    /// True if `who` is registered.
    #[inline]
    pub fn is_live(&self, who: InstanceId) -> bool {
        self.idx(who).is_some()
    }

    /// The record of a live instance.
    #[inline]
    pub fn record(&self, who: InstanceId) -> Option<&Record> {
        self.slot_of(who).map(|s| &self.records[s])
    }

    /// The history recorded so far.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The committed store.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Tear down: history, final database, abort breakdown.
    pub fn into_parts(self) -> (History, Database, AbortBreakdown) {
        (self.history, self.db, self.abort_reasons)
    }

    /// Append an event the engine records itself (a snapshot reader's
    /// reads and commit; a cross-shard job's Abort/Begin pair).
    pub fn log(&mut self, at: Tick, who: InstanceId, kind: EventKind) {
        self.history.push(at, who, kind);
    }

    /// Register a released instance and return its record slot; logs its
    /// Begin at `at` when given (a cross-shard instance registers in every
    /// kernel it will touch and logs in one). A fresh instance waits for
    /// nobody, so no running priority changes.
    ///
    /// # Panics
    /// Panics if `who` is already live.
    pub fn begin(&mut self, who: InstanceId, at: Option<Tick>) -> usize {
        let slot = match self.active.binary_search(&who) {
            Ok(_) => panic!("instance {who:?} begun twice"),
            Err(i) => {
                let slot = self.spare.pop().unwrap_or_else(|| {
                    self.records.push(Record::default());
                    (self.records.len() - 1) as u32
                });
                self.active.insert(i, who);
                self.slot.insert(i, slot);
                slot as usize
            }
        };
        self.records[slot].running = self.set.priority_of(who.txn);
        if let Some(at) = at {
            self.history.push(at, who, EventKind::Begin);
        }
        slot
    }

    /// Drop a live instance, every edge touching it and its retired chain
    /// entries, handing back its counts and blocker list in a [`Record`];
    /// the per-attempt buffers stay behind for the next instance. Locks
    /// and the instances gated or held on it are not consulted —
    /// [`StateKernel::commit`] does that; on its own this is the
    /// exit of an instance that never locked anything.
    pub fn remove(&mut self, who: InstanceId) -> Record {
        let i = self.idx(who).expect("instance is live");
        self.active.remove(i);
        let slot = self.slot.remove(i);
        self.spare.push(slot);
        // Drop its edges and every edge to it; with none anywhere, every
        // running priority is its base already.
        let mut edges = !self.records[slot as usize].waits_for.is_empty();
        self.records[slot as usize].waits_for.clear();
        for &s in &self.slot {
            let waits = &mut self.records[s as usize].waits_for;
            if !waits.is_empty() {
                edges = true;
                waits.retain(|&b| b != who);
            }
        }
        if edges {
            self.inherit();
        }
        self.clear_record(who, slot as usize);
        let rec = &mut self.records[slot as usize];
        Record {
            lower_blockers: std::mem::take(&mut rec.lower_blockers),
            block_events: std::mem::take(&mut rec.block_events),
            restarts: std::mem::take(&mut rec.restarts),
            ..Record::default()
        }
    }

    /// Empty what an abort or a departure discards of `who`'s record in
    /// `records[s]` — its pending request, `DataRead`, staged writes and
    /// their retired chain entries, early installs, gate and hold —
    /// keeping the buffers.
    fn clear_record(&mut self, who: InstanceId, s: usize) {
        let rec = &mut self.records[s];
        if rec.pending.take().is_some() {
            self.n_pending -= 1;
        }
        self.retired.drop_owner(who, &rec.staged);
        rec.data_read.clear();
        rec.staged.clear();
        rec.installed_early.clear();
        if !rec.gate.is_empty() {
            rec.gate.clear();
            self.n_gated -= 1;
        }
        if !rec.hold.is_empty() {
            rec.hold.clear();
            self.n_held -= 1;
        }
    }

    /// Register wait edges from `who` to `on` without a pending request:
    /// `on` inherit `who`'s priority and the deadlock search sees the
    /// edges.
    pub fn wait_on(&mut self, who: InstanceId, on: &[InstanceId]) {
        debug_assert!(!on.contains(&who));
        let s = self.slot_of(who).expect("instance is live");
        self.set_waits(s, on);
    }

    /// Replace the wait edges of the record in slot `s` with `on`.
    fn set_waits(&mut self, s: usize, on: &[InstanceId]) {
        let waits = &mut self.records[s].waits_for;
        waits.clear();
        waits.extend_from_slice(on);
        self.inherit();
    }

    /// Drop the wait edges of the record in slot `s`, if it has any.
    fn clear_waits(&mut self, s: usize) {
        if !self.records[s].waits_for.is_empty() {
            self.records[s].waits_for.clear();
            self.inherit();
        }
    }

    /// Recompute every running priority from the wait edges.
    #[inline]
    fn inherit(&mut self) {
        crate::inherit::inherit(self.set, &self.active, &self.slot, &mut self.records);
    }

    /// Hold `who`, just aborted, until every live instance of `on` other
    /// than itself has committed or aborted: the restart waits on whoever
    /// caused the abort instead of re-deciding the same conflict at once.
    /// The held-on instances still to leave are `who`'s wait edges (they
    /// inherit its priority; the deadlock search sees them). A no-op when
    /// none of `on` is left; replaces any hold `who` had.
    pub fn hold(&mut self, who: InstanceId, on: &[InstanceId]) {
        self.hold_except(who, on, &[]);
    }

    /// [`StateKernel::hold`], leaving out the instances `co` aborted too.
    fn hold_except(&mut self, who: InstanceId, on: &[InstanceId], co: &[Effect]) {
        let s = self.slot_of(who).expect("instance is live");
        let mut hold = std::mem::take(&mut self.records[s].hold);
        if !hold.is_empty() {
            self.n_held -= 1;
            hold.clear();
        }
        let co_aborted = |b| {
            co.iter()
                .any(|e| matches!(*e, Effect::Aborted(a, ..) if a == b))
        };
        let keep = |b: InstanceId| b != who && !co_aborted(b) && self.is_live(b);
        hold.extend(on.iter().copied().filter(|&b| keep(b)));
        hold.sort_unstable();
        hold.dedup();
        if !hold.is_empty() {
            self.set_waits(s, &hold);
            self.n_held += 1;
        }
        self.records[s].hold = hold;
    }

    /// True while `who` is held ([`StateKernel::hold`]).
    #[inline]
    pub fn held(&self, who: InstanceId) -> bool {
        self.n_held > 0 && self.record(who).is_some_and(|r| !r.hold.is_empty())
    }

    /// True while `who` has commit dependencies left ([`Record::gate`]).
    /// Unlike a parked [`StateKernel::commit`] it registers nothing.
    #[inline]
    pub fn gated(&self, who: InstanceId) -> bool {
        self.n_gated > 0 && self.record(who).is_some_and(|r| !r.gate.is_empty())
    }

    /// The dispatch rule both engines run on one processor: the
    /// highest-running-priority ready instance, with its slot. Ready means
    /// waiting for nobody: a blocked instance waits for its blockers, one
    /// parked at its commit gate for the gate's entries and a held one
    /// for its hold, so the wait edges say who may run. One pass; the
    /// tie-breaks ([`StateKernel::outranks`]) are read only on a tie.
    #[inline]
    pub fn pick_ready(&self) -> Option<(InstanceId, usize)> {
        let mut best: Option<(InstanceId, usize, Priority)> = None;
        for (&id, &s) in self.active.iter().zip(&self.slot) {
            let record = &self.records[s as usize];
            if !record.waits_for.is_empty() {
                continue;
            }
            let running = record.running;
            let wins = match best {
                None => true,
                Some((leader, _, top)) => {
                    running > top || (running == top && self.outranks(id, leader))
                }
            };
            if wins {
                best = Some((id, s as usize, running));
            }
        }
        best.map(|(id, s, _)| (id, s))
    }

    /// Between two instances of equal running priority, `a` runs before
    /// `b`: the higher base priority, then the earlier instance, then the
    /// earlier template.
    #[inline]
    pub fn outranks(&self, a: InstanceId, b: InstanceId) -> bool {
        let (base_a, base_b) = (self.set.priority_of(a.txn), self.set.priority_of(b.txn));
        base_a > base_b || (base_a == base_b && (a.seq, a.txn) < (b.seq, b.txn))
    }

    /// The dispatch rule for a job not yet begun, against the instance
    /// about to run, which runs at `running` from base priority
    /// `runner_base`: the job, ready at its base priority `base`, runs
    /// first on a higher running priority, or on a tie by the higher base
    /// ([`StateKernel::outranks`]; priorities are distinct per template,
    /// and a job of the runner's own template comes later, so it loses
    /// that tie). An engine that begins a job only when it would run —
    /// the runtime's one-worker dispatcher — preempts by this test.
    #[inline]
    pub fn arrival_outranks(base: Priority, running: Priority, runner_base: Priority) -> bool {
        base > running || (base == running && base > runner_base)
    }

    /// The departure scan: `gone` committed or aborted (cascading on
    /// `cascade`, the abort's cause, when given), and one pass over the
    /// live records, in ascending id order, drops it from every hold and
    /// every gate, appending to `log`.
    ///
    /// * A hold it was the last of ends: the held instance's wait edges
    ///   are cleared ([`Effect::HoldReleased`]).
    /// * Without `cascade`, a gate it was the last of opens: the instance
    ///   loses its gate wait on `gone` and, unless a pending request
    ///   still blocks it, is let through ([`Effect::GateOpened`]) ahead
    ///   of every hold this scan ended, after the gates it opened before.
    /// * With `cascade`, an instance whose gate names it is aborted too
    ///   ([`Effect::Aborted`]) and its gate emptied at once, so it is
    ///   collected once however many aborted instances it read from.
    fn depart(&mut self, gone: InstanceId, cascade: Option<Span>, log: &mut Vec<Effect>) {
        if self.n_held == 0 && self.n_gated == 0 {
            return;
        }
        let mut opened = log.len();
        let mut edges_changed = false;
        for i in 0..self.active.len() {
            let id = self.active[i];
            let rec = &mut self.records[self.slot[i] as usize];
            if let Ok(pos) = rec.gate.binary_search(&gone) {
                match cascade {
                    Some(cause) => {
                        rec.gate.clear();
                        log.push(Effect::Aborted(id, AbortReason::Cascade, cause));
                    }
                    None => {
                        rec.gate.remove(pos);
                        let waits = rec.waits_for.len();
                        rec.waits_for.retain(|&b| b != gone);
                        edges_changed |= rec.waits_for.len() != waits;
                        if rec.gate.is_empty() && rec.pending.is_none() {
                            log.insert(opened, Effect::GateOpened(id));
                            opened += 1;
                        }
                    }
                }
                if rec.gate.is_empty() {
                    self.n_gated -= 1;
                }
            }
            if let Ok(pos) = rec.hold.binary_search(&gone) {
                rec.hold.remove(pos);
                rec.waits_for.clear();
                rec.waits_for.extend_from_slice(&rec.hold);
                edges_changed = true;
                if rec.hold.is_empty() {
                    self.n_held -= 1;
                    log.push(Effect::HoldReleased(id));
                }
            }
        }
        if edges_changed {
            self.inherit();
        }
    }

    /// Clear `who`'s pending request and wait edges.
    #[inline]
    pub fn wake(&mut self, who: InstanceId) {
        if let Some(s) = self.slot_of(who) {
            self.clear_waits(s);
            if self.records[s].pending.take().is_some() {
                self.n_pending -= 1;
            }
        }
    }

    /// Perform the data operation of a held lock through `ws`, log it and
    /// refresh the sets protocols observe.
    fn data_op(
        &mut self,
        who: InstanceId,
        step_index: usize,
        item: ItemId,
        mode: LockMode,
        ws: &mut Workspace,
        at: Tick,
    ) {
        match mode {
            LockMode::Read => {
                // Dirty read over a retired chain: with no own staged
                // value, the latest live retired writer's value is the
                // one this reader is ordered after (the commit dependency
                // taken at grant time). Its predicted version is the
                // committed version plus the chain length — every live
                // chain member installs exactly one bump first.
                let dirty = if ws.staged_value(item).is_none() {
                    self.retired.latest(item)
                } else {
                    None
                };
                let rec = match dirty {
                    Some((rw, chain_len)) if rw.owner != who => {
                        let version = self.db.get(item).version + chain_len as u64;
                        ws.read_dirty(item, rw.value, version)
                    }
                    _ => ws.read(&self.db, item),
                };
                self.history.push(
                    at,
                    who,
                    EventKind::Read {
                        item,
                        value: rec.value,
                        version: rec.version,
                        own: rec.own,
                    },
                );
                // A read of the own staged write cannot be invalidated
                // and stays out of `DataRead`, as in the workspace.
                if !rec.own && self.owns(item) {
                    insert_sorted(&mut self.record_mut(who).data_read, item);
                }
            }
            LockMode::Write => {
                let value = ws.write(step_index, item);
                self.history
                    .push(at, who, EventKind::StageWrite { item, value });
                insert_sorted(&mut self.record_mut(who).staged, item);
            }
        }
    }

    /// The lock-request entry point: present `who`'s access to `item` for
    /// step `step_index` and apply the protocol's decision, overwriting
    /// `fx` with what that did. A lock already held in a sufficient mode
    /// needs no request (a write lock covers reads of the own staged
    /// value). A grant ([`Effect::Granted`]) puts the latest retired writer
    /// of the item on the grantee's [`Record::gate`], whatever the mode (a
    /// write over the chain must also install after it), before the data
    /// operation. True if the lock is held and the data operation
    /// happened.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn request<P: ProtocolFor<Self>>(
        &mut self,
        protocol: &mut P,
        who: InstanceId,
        step_index: usize,
        item: ItemId,
        mode: LockMode,
        ws: &mut Workspace,
        mut tick: impl FnMut() -> Tick,
        fx: &mut Effects,
    ) -> bool {
        fx.clear();
        if self.locks.covers(who, item, mode) {
            self.data_op(who, step_index, item, mode, ws, tick());
            return true;
        }
        let req = LockRequest { who, item, mode };
        match protocol.request(self, req) {
            Decision::Grant(rule) => {
                self.locks.grant(who, item, mode);
                if let Some((rw, _)) = self.retired.latest(item) {
                    self.gate_on(who, rw.owner);
                }
                if mode == LockMode::Read && !protocol.may_abort() {
                    self.gate_writers_on(who, item);
                }
                self.data_op(who, step_index, item, mode, ws, tick());
                fx.log.push(Effect::Granted(req, rule));
                true
            }
            decision => {
                self.refuse(protocol, req, decision, &mut tick, fx);
                false
            }
        }
    }

    /// Apply a decision that does not grant `req`, then re-evaluate. A
    /// block leaves the request pending on its blockers and, unless the
    /// re-evaluation woke the requester, resolves the cycles it closed; a
    /// wound aborts the holders on the requester, who presents the
    /// request again; a die aborts the requester on its blockers. Out of
    /// line, so the grant path stays small enough to inline.
    #[inline(never)]
    fn refuse<P: ProtocolFor<Self>>(
        &mut self,
        protocol: &mut P,
        req: LockRequest,
        decision: Decision,
        tick: &mut impl FnMut() -> Tick,
        fx: &mut Effects,
    ) {
        let who = req.who;
        match decision {
            Decision::Grant(_) => unreachable!("a grant is applied by `request`"),
            Decision::Block { blockers } => {
                debug_assert!(blockers.iter().all(|&b| self.is_live(b)));
                let rec = self.record_mut(who);
                debug_assert!(rec.pending.is_none());
                rec.pending = Some(req);
                rec.block_events += 1;
                self.n_pending += 1;
                self.note_blockers(who, &blockers);
                let blockers = fx.span(&blockers);
                fx.log.push(Effect::Parked(req, blockers));
                // A new blocking edge can itself unblock others: PCP-DA's
                // commit-order guard admits a read over a higher-priority
                // write holder once that holder is hard-blocked on the
                // requester. Every blocked request gets a pass before the
                // cycle search, so only irreducible cycles are found.
                self.reevaluate(protocol, fx);
                if self.pending_request(who).is_some() {
                    self.resolve_cycles(protocol, tick, fx);
                }
            }
            Decision::AbortHolders { victims } => {
                debug_assert!(protocol.may_abort());
                let cause = fx.span(&[who]);
                for v in victims.iter().copied().filter(|&v| v != who) {
                    self.abort_into(protocol, v, AbortReason::Wound, cause, tick, fx);
                }
                self.reevaluate(protocol, fx);
            }
            Decision::AbortSelf { blockers } => {
                debug_assert!(protocol.may_abort());
                debug_assert!(!blockers.is_empty() && !blockers.contains(&who));
                let cause = fx.span(&blockers);
                self.abort_into(protocol, who, AbortReason::CeilingBlock, cause, tick, fx);
                self.reevaluate(protocol, fx);
            }
        }
    }

    /// Put `on` — the latest retiree of an item just granted to `who`, or
    /// a reader let past `who`'s write lock — on `who`'s [`Record::gate`]
    /// (unless it is `who` itself). A `who` already parked at its commit
    /// gate — no pending request, its wait edges the entries its parked
    /// [`StateKernel::commit`] registered — waits for `on` too, or a cycle
    /// through the new entry would hide from the deadlock search. Kept out
    /// of line: only grants that order get here, and inlined it made
    /// [`StateKernel::request`] too large for the runtime to inline, which
    /// cost every protocol's grant path.
    #[inline(never)]
    fn gate_on(&mut self, who: InstanceId, on: InstanceId) {
        if on == who {
            return;
        }
        let s = self.slot_of(who).expect("instance is live");
        let rec = &mut self.records[s];
        if rec.gate.is_empty() {
            self.n_gated += 1;
        }
        if insert_sorted(&mut rec.gate, on) && rec.pending.is_none() && !rec.waits_for.is_empty() {
            rec.waits_for.push(on);
            self.inherit();
        }
    }

    /// Put `reader`, just granted a read of `item`, on the gate of every
    /// other write holder of the item: a reader let past a writer reads
    /// the pre-image and so precedes it, and the writer must not commit
    /// before the reader has left (Prudent-Precedence's wait-to-commit).
    /// On one CPU the priority dispatch orders them anyway; a thread pool
    /// does not. Only for a protocol that never aborts (it orders what it
    /// lets past; one that aborts, like OCC-BC, resolves the conflict its
    /// own way). Out of line like [`StateKernel::gate_on`].
    #[inline(never)]
    fn gate_writers_on(&mut self, reader: InstanceId, item: ItemId) {
        let mut writers = std::mem::take(&mut self.writers_scratch);
        writers.clear();
        writers.extend(self.locks.writers_other_than(item, reader));
        for &w in &writers {
            self.gate_on(w, reader);
        }
        self.writers_scratch = writers;
    }

    /// Record `blockers` as the instances `who` waits for, noting the
    /// lower-priority ones.
    fn note_blockers(&mut self, who: InstanceId, blockers: &[InstanceId]) {
        let set = self.set;
        let my_base = set.priority_of(who.txn);
        let s = self.slot_of(who).expect("instance is live");
        let rec = &mut self.records[s];
        for &b in blockers {
            if set.priority_of(b.txn) < my_base {
                rec.note_lower_blocker(b.txn);
            }
        }
        debug_assert!(!blockers.contains(&who));
        self.set_waits(s, blockers);
    }

    /// Re-present every pending request in descending (running priority,
    /// base priority, ascending seq) order. A request that would now be
    /// granted — or would abort; either way the instance must run to find
    /// out — is *woken*: its pending request and edges are cleared and
    /// [`Effect::Woken`] is appended to `fx`. The lock itself is acquired
    /// only when the instance next presents the request, exactly as on a
    /// real single-CPU system; granting at release time instead would let
    /// a low-priority waiter grab a ceiling-raising lock while a
    /// higher-priority *ready* transaction exists, breaking the
    /// single-blocking property. Still-denied requests keep refreshed
    /// edges so inheritance stays precise.
    pub fn reevaluate<P: ProtocolFor<Self>>(&mut self, protocol: &mut P, fx: &mut Effects) {
        if self.n_pending == 0 {
            return;
        }
        let mut blocked = std::mem::take(&mut self.reeval_scratch);
        blocked.clear();
        blocked.extend(
            self.active
                .iter()
                .zip(&self.slot)
                .filter(|(_, &s)| self.records[s as usize].pending.is_some())
                .map(|(&id, &s)| (id, s as usize)),
        );
        blocked.sort_by_key(|&(id, s)| {
            Reverse((
                self.records[s].running,
                self.set.priority_of(id.txn),
                Reverse(id.seq),
            ))
        });
        for &(who, s) in &blocked {
            let Some(req) = self.records[s].pending else {
                continue;
            };
            match protocol.request(self, req) {
                Decision::Grant(_) | Decision::AbortHolders { .. } | Decision::AbortSelf { .. } => {
                    self.wake(who);
                    fx.log.push(Effect::Woken(who));
                }
                Decision::Block { blockers } => {
                    debug_assert!(!blockers.is_empty());
                    self.note_blockers(who, &blockers);
                }
            }
        }
        self.reeval_scratch = blocked;
    }

    /// Search the wait edges (lock waits, gate waits, holds) for a cycle,
    /// from the blocked instances in ascending id order; returns it with
    /// the victim to abort — the lowest-base-priority instance on it, ties
    /// toward the smaller id.
    fn find_deadlock(&mut self) -> Option<(Vec<InstanceId>, InstanceId)> {
        let waiting = self
            .active
            .iter()
            .zip(&self.slot)
            .filter(|(_, &s)| !self.records[s as usize].waits_for.is_empty())
            .map(|(&id, _)| id);
        // No instance waits for itself: a cycle needs two that wait, and
        // with fewer the search is skipped.
        waiting.clone().nth(1)?;
        let mut scratch = std::mem::take(&mut self.cycle_scratch);
        let found = scratch.find_cycle(waiting, |who| {
            self.record(who).map_or(&[], |r| r.waits_for.as_slice())
        });
        self.cycle_scratch = scratch;
        let cycle = found?;
        let victim = cycle
            .iter()
            .copied()
            .min_by_key(|&v| (self.set.priority_of(v.txn), v))?;
        Some((cycle, victim))
    }

    /// Search the wait edges for cycles and abort each one's victim on
    /// the rest of its cycle (restarting at once would re-form it),
    /// re-evaluating after each, until none is left; append what that did
    /// to `fx`, each [`Effect::Cycle`] ahead of its victim's abort. A
    /// kernel built [`StateKernel::reporting_deadlocks`] stops at the
    /// first cycle; a victim that lives in other kernels
    /// ([`Effect::Foreign`]) ends the search, its owner's abort breaks the
    /// cycle.
    pub fn resolve_cycles<P: ProtocolFor<Self>>(
        &mut self,
        protocol: &mut P,
        mut tick: impl FnMut() -> Tick,
        fx: &mut Effects,
    ) {
        while let Some((cycle, victim)) = self.find_deadlock() {
            let cycle = fx.span(&cycle);
            fx.log.push(Effect::Cycle(cycle, victim));
            if !self.resolve_deadlocks {
                return;
            }
            let reason = AbortReason::DeadlockVictim;
            self.abort_into(protocol, victim, reason, cycle, &mut tick, fx);
            if self.spans_kernels(victim) {
                return;
            }
            self.reevaluate(protocol, fx);
        }
    }

    /// `who` finished step `completed_step`: apply the protocol's early
    /// releases (installing the staged value of an early-released write
    /// lock under [`UpdateModel::InstallOnEarlyRelease`]), then retire the
    /// write locks past their last access into the item's retired chain —
    /// the staged value stays visible there and successors order
    /// themselves behind the retiree at their commit gate instead of by
    /// lock wait. Each non-empty batch is followed by a re-evaluation;
    /// `fx` is overwritten with the locks released, in release order
    /// ([`Effect::Released`]; a retired write appears as its write lock),
    /// each batch followed by the woken.
    #[inline]
    pub fn step_done<P: ProtocolFor<Self>>(
        &mut self,
        protocol: &mut P,
        who: InstanceId,
        completed_step: usize,
        ws: &Workspace,
        mut tick: impl FnMut() -> Tick,
        fx: &mut Effects,
    ) {
        fx.clear();
        let releases = protocol.early_releases(self, who, completed_step);
        if !releases.is_empty() {
            let install_early = protocol.update_model() == UpdateModel::InstallOnEarlyRelease;
            for (item, mode) in releases {
                debug_assert!(self.locks.holds(who, item, mode));
                self.locks.release(who, item, mode);
                fx.log.push(Effect::Released(who, item, mode));
                if !(install_early && mode == LockMode::Write) {
                    continue;
                }
                if let Some(value) = ws.staged_value(item) {
                    if self.record_mut(who).mark_installed_early(item) {
                        self.install_one(who, item, value, tick());
                    }
                }
            }
            self.reevaluate(protocol, fx);
        }
        let retired = protocol.retires(self, who, completed_step);
        if !retired.is_empty() {
            for item in retired {
                debug_assert!(self.locks.holds(who, item, LockMode::Write));
                let staged = ws
                    .staged_value(item)
                    .expect("retired an item without a staged write");
                if self.locks.holds(who, item, LockMode::Read) {
                    // An upgrade's read lock goes with the write lock:
                    // successors are ordered by their gate anyway.
                    self.locks.release(who, item, LockMode::Read);
                }
                self.locks.release(who, item, LockMode::Write);
                debug_assert!(protocol.may_abort(), "a retiree's readers cascade");
                self.retired.retire(who, item, staged);
                fx.log.push(Effect::Released(who, item, LockMode::Write));
            }
            self.reevaluate(protocol, fx);
        }
    }

    fn install_one(&mut self, who: InstanceId, item: ItemId, value: Value, at: Tick) -> u64 {
        let version = self.db.install(who, item, value, at);
        self.history.push(
            at,
            who,
            EventKind::Install {
                item,
                value,
                version,
            },
        );
        version
    }

    /// The commit entry point, overwriting `fx` with what it did. With its
    /// [`Record::gate`] closed, `who` parks there ([`Effect::Gated`]) and
    /// the cycles that closes are resolved. Otherwise the instances its
    /// commit invalidates (optimistic validation) are aborted on it, and
    /// at the tick `at` draws it logs its Commit (when `log_commit`; a
    /// cross-shard commit logs it in one kernel) and installs the staged
    /// writes this kernel owns that no early release installed, handing
    /// the versions to `installed` when given ([`Effect::Committed`]).
    /// Then it leaves: locks released, retired entries committed, and
    /// after the re-evaluation's woken the gates and holds it ended.
    /// Returns its record, or `None` if it did not commit.
    #[allow(clippy::too_many_arguments)]
    pub fn commit<P: ProtocolFor<Self>>(
        &mut self,
        protocol: &mut P,
        who: InstanceId,
        ws: &Workspace,
        log_commit: bool,
        mut installed: Option<&mut Vec<(ItemId, VersionedValue)>>,
        mut tick: impl FnMut() -> Tick,
        at: impl FnOnce() -> Tick,
        fx: &mut Effects,
    ) -> Option<Record> {
        fx.clear();
        if self.gated(who) {
            // Recoverability: nobody commits a value derived from a dirty
            // read whose writer can still abort. The gate waits become
            // edges: the committer lends its priority to the instances it
            // waits on, and a gate-plus-lock cycle (possible under Bamboo)
            // is found like any other deadlock.
            let s = self.slot_of(who).expect("instance is live");
            let gate = fx.span(&self.records[s].gate);
            self.set_waits(s, fx.ids(gate));
            fx.log.push(Effect::Gated(who, gate));
            self.resolve_cycles(protocol, &mut tick, fx);
            return None;
        }
        let victims = protocol.commit_victims(self, who);
        if !victims.is_empty() {
            debug_assert!(protocol.may_abort());
            let cause = fx.span(&[who]);
            for v in victims.iter().copied().filter(|&v| v != who) {
                self.abort_into(protocol, v, AbortReason::Wound, cause, &mut tick, fx);
            }
        }
        let at = at();
        if log_commit {
            self.history.push(at, who, EventKind::Commit);
        }
        let s = self.slot_of(who).expect("instance is live");
        for &(item, value) in ws.staged_writes() {
            if !self.owns(item) || self.records[s].installed_early.contains(&item) {
                continue;
            }
            let version = self.install_one(who, item, value, at);
            if let Some(out) = installed.as_deref_mut() {
                out.push((
                    item,
                    VersionedValue {
                        value,
                        version,
                        writer: Some(who),
                        installed_at: at,
                    },
                ));
            }
        }
        fx.log.push(Effect::Committed(who));
        self.locks.release_all(who);
        let record = self.remove(who);
        let departed = fx.log.len();
        self.depart(who, None, &mut fx.log);
        let woken = fx.log.len();
        self.reevaluate(protocol, fx);
        fx.log[departed..].rotate_left(woken - departed);
        Some(record)
    }

    /// Abort `victim` and, transitively, everyone who observed or
    /// overwrote its retired writes — the instances whose gate names an
    /// aborted one, breadth first: each releases its locks, loses its
    /// attempt state, gate and hold, and restarts (Abort and Begin are
    /// logged back to back), then is held on `cause`, the instances it
    /// yields to, less its co-aborted ([`StateKernel::hold`]). `fx` is
    /// overwritten with the aborted, `victim` first, and the gates and
    /// holds they ended. Nothing is re-evaluated.
    pub fn abort<P: ProtocolFor<Self>>(
        &mut self,
        protocol: &mut P,
        victim: InstanceId,
        reason: AbortReason,
        cause: &[InstanceId],
        mut tick: impl FnMut() -> Tick,
        fx: &mut Effects,
    ) {
        fx.clear();
        let cause = fx.span(cause);
        self.abort_into(protocol, victim, reason, cause, &mut tick, fx);
    }

    /// [`StateKernel::abort`], appending to `fx` — or, for a victim that
    /// lives in other kernels, only naming it ([`Effect::Foreign`]).
    fn abort_into<P: ProtocolFor<Self>>(
        &mut self,
        protocol: &mut P,
        victim: InstanceId,
        reason: AbortReason,
        cause: Span,
        tick: &mut impl FnMut() -> Tick,
        fx: &mut Effects,
    ) {
        if !self.is_live(victim) {
            return;
        }
        if self.spans_kernels(victim) {
            return fx.log.push(Effect::Foreign(victim, reason, cause));
        }
        let first = fx.log.len();
        fx.log.push(Effect::Aborted(victim, reason, cause));
        let mut next = first;
        while let Some(&effect) = fx.log.get(next) {
            next += 1;
            let Effect::Aborted(who, reason, _) = effect else {
                continue;
            };
            self.history.push(tick(), who, EventKind::Abort);
            self.abort_attempt(protocol, who, Some(reason), Some(cause), &mut fx.log);
            self.record_mut(who).restarts += 1;
            self.history.push(tick(), who, EventKind::Begin);
        }
        for i in first..fx.log.len() {
            if let Effect::Aborted(who, ..) = fx.log[i] {
                self.hold_except(who, fx.ids(cause), &fx.log[first..]);
            }
        }
    }

    /// The silent core of an abort: release `victim`'s locks, clear its
    /// pending request, edges, attempt state, gate and hold, end the
    /// gates and holds it was the last of, hold it on `cause`, and
    /// re-evaluate; `fx` is overwritten with what that did. No log, no
    /// restart count, no cascade — for an instance that spans several
    /// kernels, whose owner logs the single Abort/Begin pair (only the
    /// gate entries of a protocol that never aborts, which do not
    /// cascade, can name such an instance).
    pub fn abort_local<P: ProtocolFor<Self>>(
        &mut self,
        protocol: &mut P,
        victim: InstanceId,
        reason: Option<AbortReason>,
        cause: &[InstanceId],
        fx: &mut Effects,
    ) {
        fx.clear();
        let cascade = fx.span(cause);
        self.abort_attempt(protocol, victim, reason, Some(cascade), &mut fx.log);
        let cascaded = |e: &Effect| matches!(e, Effect::Aborted(..));
        debug_assert!(!fx.log.iter().any(cascaded), "cascades never cross shards");
        self.hold(victim, cause);
        self.reevaluate(protocol, fx);
    }

    /// [`StateKernel::abort_local`] without the hold and the
    /// re-evaluation, appending to `log` the instances whose gate names
    /// `victim`, aborted on `cascade`, and the gates and holds it ended.
    fn abort_attempt<P: ProtocolFor<Self>>(
        &mut self,
        protocol: &mut P,
        victim: InstanceId,
        reason: Option<AbortReason>,
        cascade: Option<Span>,
        log: &mut Vec<Effect>,
    ) {
        assert_eq!(
            protocol.update_model(),
            UpdateModel::Workspace,
            "aborts require the workspace model (no undo implemented)"
        );
        if let Some(reason) = reason {
            self.abort_reasons.record(reason);
        }
        self.locks.release_all(victim);
        let s = self.slot_of(victim).expect("instance is live");
        self.clear_waits(s);
        self.clear_record(victim, s);
        // Under a protocol that never aborts, every gate entry is a reader
        // let past a write lock (`gate_writers_on`): the writer read
        // nothing from it, so the entry opens as on a commit, no cascade.
        let cascade = cascade.filter(|_| protocol.may_abort());
        self.depart(victim, cascade, log);
    }
}

impl EngineView for StateKernel<'_> {
    #[inline]
    fn set(&self) -> &TransactionSet {
        self.set
    }
    #[inline]
    fn locks(&self) -> &LockTable {
        &self.locks
    }
    #[inline]
    fn ceilings(&self) -> &CeilingTable {
        &self.ceilings
    }
    #[inline]
    fn base_priority(&self, who: InstanceId) -> Priority {
        self.set.priority_of(who.txn)
    }
    #[inline]
    fn running_priority(&self, who: InstanceId) -> Priority {
        self.record(who).expect("instance is live").running
    }
    #[inline]
    fn data_read(&self, who: InstanceId) -> &[ItemId] {
        self.record(who).map_or(&[], |r| r.data_read.as_slice())
    }
    #[inline]
    fn pending_request(&self, who: InstanceId) -> Option<LockRequest> {
        self.record(who).and_then(|r| r.pending)
    }
    #[inline]
    fn active_instances(&self) -> &[InstanceId] {
        &self.active
    }
    #[inline]
    fn staged_write_items(&self, who: InstanceId) -> &[ItemId] {
        self.record(who).map_or(&[], |r| r.staged.as_slice())
    }
    #[inline]
    fn latest_retiree(&self, item: ItemId) -> Option<InstanceId> {
        self.retired.latest(item).map(|(rw, _)| rw.owner)
    }
}
