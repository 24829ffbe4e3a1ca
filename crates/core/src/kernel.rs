//! The state kernel: per-instance protocol state and its transitions.
//!
//! The paper's locking conditions are predicates over one piece of state
//! — held locks, `Sysceil`/`T*`, `DataRead(T)`, `WriteSet(T)`, pending
//! requests, inheritance edges. [`StateKernel`] owns that state (plus the
//! committed store and the history log it is recorded in) and is the
//! [`EngineView`] every protocol consults; the simulator and the threaded
//! runtime both drive it, so a transition is written once.
//!
//! ## Contract: the kernel decides and records, the engines execute
//!
//! Every transition takes the protocol, the acting job's
//! [`Workspace`] and a *tick source* — the simulator passes one clock
//! value per transition, the runtime one atomic tick per logged event —
//! and **returns** what the engine must act on instead of calling back:
//! who was woken, who was aborted and why, what was released, whose
//! commit dependencies drained. Turning those into trace events, Gantt
//! segments and ready-queue changes (simulator) or condvar notifies,
//! abort flags and ceiling publications (runtime) is the engine's half.
//!
//! Two rules keep the engines in charge of delivery order:
//!
//! * Abort *demands* are handed back, not executed: [`Acquire::Wound`],
//!   [`Acquire::Die`], [`StateKernel::commit_victims`] and
//!   [`StateKernel::find_deadlock`] name victims and the engine routes
//!   each through [`StateKernel::abort`] (or, for an instance that also
//!   lives in other kernels, [`StateKernel::abort_local`]).
//! * After applying the effects of an abort or a commit the engine calls
//!   [`StateKernel::reevaluate`]; only a block and a step's early
//!   releases re-evaluate on their own, because nothing engine-side can
//!   intervene there.

use crate::deps::insert_sorted;
use crate::{
    find_deadlock_victim, AbortBreakdown, AbortReason, CeilingFlavor, CeilingTable, Decision,
    DepTracker, EngineView, LockRequest, LockTable, PriorityManager, ProtocolFor, ShardRouter,
    UpdateModel,
};
use rtdb_storage::{Database, EventKind, History, VersionedValue, Workspace};
use rtdb_types::{InstanceId, ItemId, LockMode, Priority, Tick, TransactionSet, TxnId, Value};
use std::cmp::Reverse;

/// What the kernel keeps per live instance, beyond its locks and edges.
#[derive(Debug, Default)]
pub struct Record {
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

    /// Drop what an abort discards: the attempt's protocol-visible state.
    fn clear_attempt(&mut self) {
        self.pending = None;
        self.data_read.clear();
        self.staged.clear();
        self.installed_early.clear();
    }
}

/// An instance the kernel aborted, with the cause.
pub type Aborted = (InstanceId, AbortReason);

/// Outcome of [`StateKernel::acquire`].
#[derive(Debug, PartialEq, Eq)]
pub enum Acquire {
    /// The lock is held — already covered, or freshly `granted` — and the
    /// data operation happened.
    Done {
        /// False when a lock the instance already held covered the access.
        granted: bool,
    },
    /// Denied: the request is pending, `blockers` inherit the requester's
    /// priority, and the re-evaluation a new edge calls for already ran
    /// (`woken` may contain the requester itself).
    Blocked {
        /// The instances responsible for the denial.
        blockers: Vec<InstanceId>,
        /// Instances whose pending request would now be granted.
        woken: Vec<InstanceId>,
    },
    /// The protocol wounds these holders: abort each, re-evaluate, retry.
    Wound {
        /// Live holders to abort (never the requester).
        victims: Vec<InstanceId>,
    },
    /// The requester must abort itself (wait-die): abort it, re-evaluate,
    /// and delay the retry until one of `blockers` is gone.
    Die {
        /// The conflicting instances.
        blockers: Vec<InstanceId>,
    },
}

/// Outcome of [`StateKernel::step_done`].
#[derive(Debug, Default, PartialEq, Eq)]
pub struct StepDone {
    /// Locks released before commit, in release order (retired writes
    /// appear as `(item, Write)`).
    pub released: Vec<(ItemId, LockMode)>,
    /// Instances whose pending request would now be granted.
    pub woken: Vec<InstanceId>,
}

/// One kernel: ceilings, lock table, inheritance, dependency tracker,
/// live instances with their [`Record`]s, committed store, history and
/// abort breakdown. The runtime's sharded manager runs one per shard.
pub struct StateKernel<'a> {
    set: &'a TransactionSet,
    ceilings: CeilingTable,
    locks: LockTable,
    pm: PriorityManager,
    deps: DepTracker,
    /// Live instances, ascending; `records[i]` belongs to `active[i]`.
    active: Vec<InstanceId>,
    records: Vec<Record>,
    /// Records of departed instances, kept for their buffers.
    spare: Vec<Record>,
    /// Number of live instances with a pending request.
    n_pending: usize,
    /// `Some((router, shard))` when this kernel governs one shard of a
    /// partitioned item space: only items routed to `shard` enter
    /// `DataRead` or are installed here. A cross-shard job's single
    /// workspace spans several kernels (its write values depend on the
    /// whole read digest), so each kernel keeps its own slice.
    scope: Option<(ShardRouter, usize)>,
    db: Database,
    history: History,
    abort_reasons: AbortBreakdown,
    reeval_scratch: Vec<InstanceId>,
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
            pm: PriorityManager::new(),
            deps: DepTracker::new(),
            active: Vec::new(),
            records: Vec::new(),
            spare: Vec::new(),
            n_pending: 0,
            scope: None,
            db: Database::new(),
            history: History::new(),
            abort_reasons: AbortBreakdown::default(),
            reeval_scratch: Vec::new(),
        }
    }

    /// Restrict the kernel to the items `router` sends to `shard`.
    pub fn scoped_to(mut self, router: ShardRouter, shard: usize) -> Self {
        self.scope = Some((router, shard));
        self
    }

    /// Pre-size the history log.
    pub fn reserve_history(&mut self, events: usize) {
        self.history.reserve_events(events);
    }

    #[inline]
    fn owns(&self, item: ItemId) -> bool {
        self.scope.is_none_or(|(r, s)| r.shard_of(item) == s)
    }

    #[inline]
    fn idx(&self, who: InstanceId) -> Option<usize> {
        self.active.binary_search(&who).ok()
    }

    #[inline]
    fn record_mut(&mut self, who: InstanceId) -> &mut Record {
        let i = self.idx(who).expect("instance is live");
        &mut self.records[i]
    }

    /// True if `who` is registered.
    #[inline]
    pub fn is_live(&self, who: InstanceId) -> bool {
        self.idx(who).is_some()
    }

    /// The record of a live instance.
    #[inline]
    pub fn record(&self, who: InstanceId) -> Option<&Record> {
        self.idx(who).map(|i| &self.records[i])
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

    /// Register a released instance; logs its Begin at `at` when given (a
    /// cross-shard instance registers in every kernel it will touch and
    /// logs in one).
    ///
    /// # Panics
    /// Panics if `who` is already live.
    pub fn begin(&mut self, who: InstanceId, at: Option<Tick>) {
        match self.active.binary_search(&who) {
            Ok(_) => panic!("instance {who:?} begun twice"),
            Err(i) => {
                self.active.insert(i, who);
                self.records.insert(i, self.spare.pop().unwrap_or_default());
            }
        }
        self.pm.register(who, self.set.priority_of(who.txn));
        if let Some(at) = at {
            self.history.push(at, who, EventKind::Begin);
        }
    }

    /// Drop a live instance and every edge touching it, handing back its
    /// record. Locks and dependencies are not consulted —
    /// [`StateKernel::finish_commit`] does that first; on its own this is
    /// the exit of an instance that never locked anything.
    pub fn remove(&mut self, who: InstanceId) -> Record {
        let i = self.idx(who).expect("instance is live");
        self.active.remove(i);
        let mut record = self.records.remove(i);
        if record.pending.is_some() {
            self.n_pending -= 1;
        }
        self.pm.remove(who);
        // The per-attempt buffers stay behind for the next instance; the
        // counts and the blocker list leave with the caller.
        record.clear_attempt();
        self.spare.push(Record {
            data_read: std::mem::take(&mut record.data_read),
            staged: std::mem::take(&mut record.staged),
            installed_early: std::mem::take(&mut record.installed_early),
            ..Record::default()
        });
        record
    }

    /// Register wait edges from `who` to `on` without a pending request
    /// (the commit gate; the simulator's wait-die hold): `on` inherit
    /// `who`'s priority and the deadlock search sees the edges.
    pub fn wait_on(&mut self, who: InstanceId, on: &[InstanceId]) {
        self.pm.set_blocked(who, on);
    }

    /// Clear `who`'s pending request and wait edges.
    #[inline]
    pub fn wake(&mut self, who: InstanceId) {
        self.pm.clear_blocked(who);
        if let Some(i) = self.idx(who) {
            if self.records[i].pending.take().is_some() {
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
                    self.deps.latest_retired(item)
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

    /// Present `who`'s access to `item` for step `step_index`: a lock
    /// already held in a sufficient mode needs no request (a write lock
    /// covers reads of the own staged value); otherwise the protocol
    /// decides, and a grant is recorded — ordering the grantee after the
    /// latest retired writer of the item, whatever the mode: a write over
    /// the chain must also install after it — before the data operation.
    #[allow(clippy::too_many_arguments)]
    pub fn acquire<P: ProtocolFor<Self>>(
        &mut self,
        protocol: &mut P,
        who: InstanceId,
        step_index: usize,
        item: ItemId,
        mode: LockMode,
        ws: &mut Workspace,
        mut tick: impl FnMut() -> Tick,
    ) -> Acquire {
        if self.locks.covers(who, item, mode) {
            self.data_op(who, step_index, item, mode, ws, tick());
            return Acquire::Done { granted: false };
        }
        let req = LockRequest { who, item, mode };
        match protocol.request(self, req) {
            Decision::Grant => {
                self.locks.grant(who, item, mode);
                if let Some((rw, _)) = self.deps.latest_retired(item) {
                    self.deps.add_dep(who, rw.owner);
                }
                self.data_op(who, step_index, item, mode, ws, tick());
                Acquire::Done { granted: true }
            }
            Decision::Block { blockers } => {
                debug_assert!(blockers.iter().all(|&b| self.is_live(b)));
                let rec = self.record_mut(who);
                debug_assert!(rec.pending.is_none());
                rec.pending = Some(req);
                rec.block_events += 1;
                self.n_pending += 1;
                self.note_blockers(who, &blockers);
                // A new blocking edge can itself unblock others: PCP-DA's
                // commit-order guard admits a read over a higher-priority
                // write holder once that holder is hard-blocked on the
                // requester. Every blocked request gets a pass before the
                // engine tests for a deadlock, so only irreducible cycles
                // are reported.
                let woken = self.reevaluate(protocol);
                Acquire::Blocked { blockers, woken }
            }
            Decision::AbortHolders { mut victims } => {
                debug_assert!(protocol.may_abort());
                victims.retain(|&v| v != who && self.is_live(v));
                Acquire::Wound { victims }
            }
            Decision::AbortSelf { blockers } => {
                debug_assert!(protocol.may_abort());
                debug_assert!(!blockers.is_empty() && !blockers.contains(&who));
                Acquire::Die { blockers }
            }
        }
    }

    /// Record `blockers` as the instances `who` waits for, noting the
    /// lower-priority ones.
    fn note_blockers(&mut self, who: InstanceId, blockers: &[InstanceId]) {
        let set = self.set;
        let my_base = set.priority_of(who.txn);
        let rec = self.record_mut(who);
        for &b in blockers {
            if set.priority_of(b.txn) < my_base {
                rec.note_lower_blocker(b.txn);
            }
        }
        self.pm.set_blocked(who, blockers);
    }

    /// Re-present every pending request in descending (running priority,
    /// base priority, ascending seq) order. A request that would now be
    /// granted — or would abort; either way the instance must run to find
    /// out — is *woken*: its pending request and edges are cleared and it
    /// is returned. The lock itself is acquired only when the instance
    /// next presents the request, exactly as on a real single-CPU system;
    /// granting at release time instead would let a low-priority waiter
    /// grab a ceiling-raising lock while a higher-priority *ready*
    /// transaction exists, breaking the single-blocking property. Still-
    /// denied requests keep refreshed edges so inheritance stays precise.
    pub fn reevaluate<P: ProtocolFor<Self>>(&mut self, protocol: &mut P) -> Vec<InstanceId> {
        let mut woken = Vec::new();
        if self.n_pending == 0 {
            return woken;
        }
        let mut blocked = std::mem::take(&mut self.reeval_scratch);
        blocked.clear();
        blocked.extend(
            self.active
                .iter()
                .zip(&self.records)
                .filter(|(_, r)| r.pending.is_some())
                .map(|(&id, _)| id),
        );
        blocked.sort_by_key(|&id| {
            Reverse((
                self.pm.running(id),
                self.set.priority_of(id.txn),
                Reverse(id.seq),
            ))
        });
        for &who in &blocked {
            let Some(req) = self.pending_request(who) else {
                continue;
            };
            match protocol.request(self, req) {
                Decision::Grant | Decision::AbortHolders { .. } | Decision::AbortSelf { .. } => {
                    self.wake(who);
                    woken.push(who);
                }
                Decision::Block { blockers } => {
                    debug_assert!(!blockers.is_empty());
                    self.note_blockers(who, &blockers);
                }
            }
        }
        self.reeval_scratch = blocked;
        woken
    }

    /// Search the wait edges (lock waits, gate waits, holds) for a cycle;
    /// returns it with the victim to abort — the lowest-base-priority
    /// instance on it. Whether to abort or to report is the engine's call.
    pub fn find_deadlock(&self) -> Option<(Vec<InstanceId>, InstanceId)> {
        find_deadlock_victim(self.pm.edges(), |v| self.set.priority_of(v.txn))
    }

    /// `who` finished step `completed_step`: apply the protocol's early
    /// releases (installing the staged value of an early-released write
    /// lock under [`UpdateModel::InstallOnEarlyRelease`]), then retire the
    /// write locks past their last access into the dependency tracker —
    /// the staged value stays visible there and successors order
    /// themselves behind the retiree by commit dependency instead of lock
    /// wait. Each non-empty batch is followed by a re-evaluation.
    pub fn step_done<P: ProtocolFor<Self>>(
        &mut self,
        protocol: &mut P,
        who: InstanceId,
        completed_step: usize,
        ws: &Workspace,
        mut tick: impl FnMut() -> Tick,
    ) -> StepDone {
        let mut out = StepDone::default();
        let releases = protocol.early_releases(self, who, completed_step);
        if !releases.is_empty() {
            let install_early = protocol.update_model() == UpdateModel::InstallOnEarlyRelease;
            for &(item, mode) in &releases {
                debug_assert!(self.locks.holds(who, item, mode));
                self.locks.release(who, item, mode);
                if !(install_early && mode == LockMode::Write) {
                    continue;
                }
                if let Some(value) = ws.staged_value(item) {
                    if self.record_mut(who).mark_installed_early(item) {
                        self.install_one(who, item, value, tick());
                    }
                }
            }
            out.released = releases;
            out.woken = self.reevaluate(protocol);
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
                    // successors are ordered by the dependency anyway.
                    self.locks.release(who, item, LockMode::Read);
                }
                self.locks.release(who, item, LockMode::Write);
                self.deps.retire(who, item, staged);
                out.released.push((item, LockMode::Write));
            }
            out.woken.extend(self.reevaluate(protocol));
        }
        out
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

    /// Commit gate: with outstanding commit dependencies `who` must not
    /// commit yet (recoverability — nobody commits a value derived from a
    /// dirty read whose writer can still abort). Registers the gate waits
    /// as edges — the committer donates its priority to the dependencies
    /// it waits on and a gate-plus-lock cycle (possible under Bamboo) is
    /// found like any other deadlock — and returns true; false when the
    /// gate is open.
    pub fn gate(&mut self, who: InstanceId) -> bool {
        let StateKernel { deps, pm, .. } = self;
        let on = deps.deps_of(who);
        if on.is_empty() {
            return false;
        }
        pm.set_blocked(who, on);
        true
    }

    /// The live instances `who`'s commit invalidates (optimistic
    /// validation); the engine aborts each before the writes install.
    pub fn commit_victims<P: ProtocolFor<Self>>(
        &self,
        protocol: &mut P,
        who: InstanceId,
    ) -> Vec<InstanceId> {
        let mut victims = protocol.commit_victims(self, who);
        debug_assert!(victims.is_empty() || protocol.may_abort());
        victims.retain(|&v| v != who && self.is_live(v));
        victims
    }

    /// The commit point of `who`, at one tick: the Commit event (when
    /// `log_commit`; a cross-shard commit logs it in one kernel), then an
    /// Install per staged write this kernel owns that no early release
    /// installed already. `installed`, when given, receives the versions
    /// for the engine's snapshot store.
    pub fn install(
        &mut self,
        who: InstanceId,
        ws: &Workspace,
        at: Tick,
        log_commit: bool,
        mut installed: Option<&mut Vec<(ItemId, VersionedValue)>>,
    ) {
        debug_assert!(!self.deps.has_deps(who), "commit through a closed gate");
        if log_commit {
            self.history.push(at, who, EventKind::Commit);
        }
        let i = self.idx(who).expect("instance is live");
        for &(item, value) in ws.staged_writes() {
            if !self.owns(item) || self.records[i].installed_early.contains(&item) {
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
    }

    /// After the commit point: release every lock of `who`, turn its
    /// retired entries into committed state and drop the instance.
    /// Returns its record and the dependents whose last commit
    /// dependency this was — a committer parked at the gate may now
    /// pass; one still executing finds the gate open.
    pub fn finish_commit(&mut self, who: InstanceId) -> (Record, Vec<InstanceId>) {
        self.locks.release_all(who);
        let mut drained = self.deps.on_commit(who);
        let record = self.remove(who);
        drained.retain(|&d| self.is_live(d));
        (record, drained)
    }

    /// Abort `victim` and, transitively, everyone who observed or
    /// overwrote its retired writes: each releases its locks, loses its
    /// attempt state and restarts (Abort and Begin are logged back to
    /// back). Returns the aborted instances, `victim` first, each once —
    /// the tracker hands back the whole closure, detached, so the members
    /// cascade no further themselves.
    pub fn abort<P: ProtocolFor<Self>>(
        &mut self,
        protocol: &mut P,
        victim: InstanceId,
        reason: AbortReason,
        mut tick: impl FnMut() -> Tick,
    ) -> Vec<Aborted> {
        let mut aborted = Vec::new();
        if !self.is_live(victim) {
            return aborted;
        }
        self.abort_one(protocol, victim, reason, &mut tick);
        aborted.push((victim, reason));
        for d in self.deps.on_abort(victim) {
            if self.is_live(d) {
                self.abort_one(protocol, d, AbortReason::Cascade, &mut tick);
                aborted.push((d, AbortReason::Cascade));
            }
        }
        aborted
    }

    fn abort_one<P: ProtocolFor<Self>>(
        &mut self,
        protocol: &mut P,
        who: InstanceId,
        reason: AbortReason,
        tick: &mut impl FnMut() -> Tick,
    ) {
        self.history.push(tick(), who, EventKind::Abort);
        self.abort_local(protocol, who, Some(reason));
        self.record_mut(who).restarts += 1;
        self.history.push(tick(), who, EventKind::Begin);
    }

    /// The silent core of an abort: release `victim`'s locks, clear its
    /// pending request, edges and attempt state.
    /// No log, no restart count, no cascade — for an instance that spans
    /// several kernels, whose owner logs the single Abort/Begin pair.
    pub fn abort_local<P: ProtocolFor<Self>>(
        &mut self,
        protocol: &mut P,
        victim: InstanceId,
        reason: Option<AbortReason>,
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
        self.wake(victim);
        self.record_mut(victim).clear_attempt();
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
        self.pm.running(who)
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
    fn deps(&self) -> Option<&DepTracker> {
        Some(&self.deps)
    }
}
