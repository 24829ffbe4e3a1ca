//! The concurrent lock manager.
//!
//! One [`Mutex`] per [`LockManager`] guards the protocol state (the
//! [`Shared`] core below: lock table, ceilings, inheritance, per-instance
//! bookkeeping, database, history); every protocol decision, data
//! operation and commit happens inside it, so the runtime linearizes the
//! exact state machine the simulator executes — only the *order* of
//! requests differs (it is decided by the OS scheduler instead of the
//! simulated priority dispatcher). Blocked threads park on per-waiter
//! [`Condvar`]s; wake-ups mirror the simulator's `reevaluate`.
//!
//! Deadlock cycles are detected on the wait-for graph at block time (as
//! in the simulator) and always resolved by aborting the lowest-base-
//! priority instance on the cycle: a real runtime cannot stop the world
//! and report `RunOutcome::Deadlock` the way a simulation can.

use crate::snapshot::SnapshotSide;
use rtdb_core::{
    deadlock_victim, AbortBreakdown, AbortReason, CeilingTable, Decision, DepTracker, EngineView,
    GlobalCeiling, LockRequest, LockTable, PriorityManager, ProtocolFor, ProtocolKind, ShardRouter,
    UpdateModel, WaitForGraph,
};
use rtdb_sim::{instantiate, AnyProtocol};
use rtdb_storage::{Database, EventKind, History, VersionedValue, Workspace};
use rtdb_types::{InstanceId, ItemId, LockMode, Priority, Tick, TransactionSet, TxnId};
use std::cmp::Reverse;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Default park timeout (see [`crate::RtConfig::park_timeout`]): the
/// lost-wakeup / late-cycle safety net. Long enough to never matter on
/// the fast path, short enough to keep worst-case recovery invisible in
/// tests.
pub(crate) const DEFAULT_PARK_TIMEOUT: Duration = Duration::from_millis(25);

/// Per-shard wiring of the [`Shared`] core. [`ShardCtx::single`] is the
/// classic unsharded configuration: a private clock and none of the
/// cross-shard machinery, so the state machine is bit-identical to the
/// pre-sharding manager.
pub(crate) struct ShardCtx {
    /// The run-global logical event clock, shared by every shard so the
    /// merged history can be rebuilt in tick order.
    pub clock: Arc<AtomicU64>,
    /// This shard's index.
    pub shard: usize,
    /// Item→shard routing (multi-shard runs only); used to filter the
    /// protocol-visible mirrors down to shard-owned items.
    pub router: Option<ShardRouter>,
    /// The published-per-shard global ceiling layer (multi-shard only).
    pub global: Option<Arc<GlobalCeiling>>,
    /// The commit gate: the run-global next-commit-index counter, locked
    /// around {commit tick, installs, snapshot publish} so commit ticks,
    /// commit indices and snapshot stamps agree across shards
    /// (multi-shard only; `None` keeps single-shard commits gate-free).
    pub gate: Option<Arc<Mutex<u64>>>,
}

impl ShardCtx {
    pub(crate) fn single() -> Self {
        ShardCtx {
            clock: Arc::new(AtomicU64::new(0)),
            shard: 0,
            router: None,
            global: None,
            gate: None,
        }
    }
}

/// What a manager call tells the worker to do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// The operation happened; continue with the job.
    Done,
    /// The instance was aborted (deadlock victim, 2PL-HP wound, OCC
    /// invalidation); reset the workspace and restart from step 0.
    Restart,
}

/// Per-job statistics handed back at commit.
#[derive(Clone, Debug, Default)]
pub(crate) struct JobStats {
    /// Zero-based position in the global commit order.
    pub commit_index: u64,
    /// Times this job was aborted and restarted.
    pub restarts: u32,
    /// Times this job blocked (parked) on a lock request.
    pub block_events: u32,
    /// Distinct lower-priority templates that ever blocked this job —
    /// the measurable form of the paper's single-blocking property.
    pub lower_blockers: Vec<TxnId>,
    /// Commit stamp for jobs that ran on the snapshot read path (their
    /// `commit_index` is an ordinal in the reader stream until the run's
    /// epilogue offsets it past the lock-path commits).
    pub snapshot: Option<u64>,
}

/// Result of a commit attempt.
pub(crate) enum CommitOutcome {
    Committed(JobStats),
    Restart,
}

/// Everything the manager accumulated, returned by [`LockManager::finish`].
pub(crate) struct ManagerReport {
    pub history: History,
    pub db: Database,
    pub commits: u64,
    pub restarts: u64,
    pub deadlocks_resolved: u64,
    /// Park-timeout safety-net firings (see [`crate::RtResult::park_timeout_wakeups`]).
    pub park_timeout_wakeups: u64,
    /// Final value of the lock table's monotone state-transition counter
    /// — 0 means the run never granted, released or converted a single
    /// lock (the snapshot path's zero-lock assertion hook).
    pub lock_transitions: u64,
    /// Times this manager's state mutex was acquired (shard-isolation
    /// telemetry).
    pub state_lock_acquires: u64,
    /// Which shard produced this report (0 in unsharded runs).
    pub shard: usize,
    /// Why instances aborted, by cause; totals [`ManagerReport::restarts`].
    pub abort_reasons: AbortBreakdown,
}

/// Per-worker context threaded through every manager call: the recycled
/// private workspace plus the worker's identity. One per worker thread,
/// reused across jobs.
pub(crate) struct WorkerCtx {
    pub ws: Workspace,
    /// This worker's index in `0..threads` — its reader slot in the
    /// snapshot store's pin table.
    pub worker: usize,
    /// Cross-shard state of the job currently executing on this worker
    /// (`None` for single-shard jobs and unsharded runs).
    pub cross: Option<crate::sharded::CrossJob>,
}

impl WorkerCtx {
    pub(crate) fn new(worker: usize) -> Self {
        WorkerCtx {
            ws: Workspace::new(InstanceId::first(TxnId(0))),
            worker,
            cross: None,
        }
    }
}

/// Per-live-instance bookkeeping the protocols observe through
/// [`EngineView`]. The `data_read`/`staged` mirrors are updated in the
/// same critical section as the grant and the data operation, so the view
/// other threads' decisions see is always consistent.
pub(crate) struct Meta {
    pub(crate) id: InstanceId,
    pub(crate) cv: Arc<Condvar>,
    /// The denied request this instance is parked on, if any.
    pub(crate) pending: Option<LockRequest>,
    /// Set by a re-evaluation that would now grant `pending`.
    pub(crate) woken: bool,
    /// Set by [`Shared::abort_victim`]; consumed by the owning worker.
    pub(crate) aborted: bool,
    /// Mirror of the workspace's `data_read` set, sorted.
    pub(crate) data_read: Vec<ItemId>,
    /// Mirror of the workspace's staged-write item set, sorted.
    pub(crate) staged: Vec<ItemId>,
    /// Items already installed by an early release (CCP), sorted.
    pub(crate) installed_early: Vec<ItemId>,
    pub(crate) lower_blockers: Vec<TxnId>,
    pub(crate) block_events: u32,
    pub(crate) restarts: u32,
    /// Cross-shard abort signal (multi-shard runs only): set instead of
    /// `aborted` when this instance spans shards, because its owner never
    /// parks inside any one shard and polls this flag at the sharded
    /// manager's entry points instead. Shared with every shard the
    /// instance registered in.
    pub(crate) signal: Option<Arc<AtomicBool>>,
}

impl Meta {
    fn new(id: InstanceId) -> Self {
        Meta {
            id,
            cv: Arc::new(Condvar::new()),
            pending: None,
            woken: false,
            aborted: false,
            data_read: Vec::new(),
            staged: Vec::new(),
            installed_early: Vec::new(),
            lower_blockers: Vec::new(),
            block_events: 0,
            restarts: 0,
            signal: None,
        }
    }

    fn note_lower_blocker(&mut self, txn: TxnId) {
        if let Err(i) = self.lower_blockers.binary_search(&txn) {
            self.lower_blockers.insert(i, txn);
        }
    }

    /// Record an early install of `item`; `true` if new.
    fn mark_installed_early(&mut self, item: ItemId) -> bool {
        match self.installed_early.binary_search(&item) {
            Ok(_) => false,
            Err(i) => {
                self.installed_early.insert(i, item);
                true
            }
        }
    }
}

/// The [`EngineView`] the protocols consult, shared across workers.
pub(crate) struct RtView<'a> {
    pub(crate) set: &'a TransactionSet,
    pub(crate) ceilings: CeilingTable,
    pub(crate) locks: LockTable,
    pub(crate) pm: PriorityManager,
    /// Live instances, sorted ascending by id.
    pub(crate) active: Vec<InstanceId>,
    /// Parallel per-instance bookkeeping, sorted by `Meta::id`.
    pub(crate) metas: Vec<Meta>,
    /// Retired-lock chains and commit dependencies (the early-release
    /// protocols' dependency tracker; empty for every other kind).
    pub(crate) deps: DepTracker,
}

impl RtView<'_> {
    #[inline]
    pub(crate) fn meta_idx(&self, who: InstanceId) -> Option<usize> {
        self.metas.binary_search_by_key(&who, |m| m.id).ok()
    }

    #[inline]
    pub(crate) fn meta(&self, who: InstanceId) -> &Meta {
        &self.metas[self.meta_idx(who).expect("instance is live")]
    }

    #[inline]
    pub(crate) fn meta_mut(&mut self, who: InstanceId) -> &mut Meta {
        let i = self.meta_idx(who).expect("instance is live");
        &mut self.metas[i]
    }

    pub(crate) fn is_active(&self, who: InstanceId) -> bool {
        self.meta_idx(who).is_some()
    }
}

impl EngineView for RtView<'_> {
    fn set(&self) -> &TransactionSet {
        self.set
    }
    fn locks(&self) -> &LockTable {
        &self.locks
    }
    fn ceilings(&self) -> &CeilingTable {
        &self.ceilings
    }
    fn base_priority(&self, who: InstanceId) -> Priority {
        self.set.priority_of(who.txn)
    }
    fn running_priority(&self, who: InstanceId) -> Priority {
        self.pm.running(who)
    }
    fn data_read(&self, who: InstanceId) -> &[ItemId] {
        self.meta_idx(who)
            .map_or(&[], |i| self.metas[i].data_read.as_slice())
    }
    fn pending_request(&self, who: InstanceId) -> Option<LockRequest> {
        self.meta_idx(who).and_then(|i| self.metas[i].pending)
    }
    fn active_instances(&self) -> &[InstanceId] {
        &self.active
    }
    fn staged_write_items(&self, who: InstanceId) -> Vec<ItemId> {
        self.meta_idx(who)
            .map_or_else(Vec::new, |i| self.metas[i].staged.clone())
    }
    fn deps(&self) -> Option<&DepTracker> {
        Some(&self.deps)
    }
}

/// The guarded heart of the runtime: the protocol state every worker
/// reaches through its [`LockManager`]'s mutex.
pub(crate) struct Shared<'a> {
    pub(crate) view: RtView<'a>,
    pub(crate) protocol: AnyProtocol,
    pub(crate) kind: ProtocolKind,
    pub(crate) db: Database,
    pub(crate) history: History,
    /// Logical event clock: history ticks order events for readers of the
    /// log; correctness oracles never compare tick values across runs. In
    /// multi-shard runs the counter is shared by every shard, so ticks
    /// are globally unique and the per-shard histories merge by tick.
    pub(crate) clock: Arc<AtomicU64>,
    /// This shard's index (0 in unsharded runs).
    pub(crate) shard: usize,
    /// Item→shard routing; `Some` exactly in multi-shard runs.
    pub(crate) router: Option<ShardRouter>,
    /// Where this shard publishes its local system ceiling (multi-shard
    /// runs only).
    pub(crate) global: Option<Arc<GlobalCeiling>>,
    /// The cross-shard commit gate (multi-shard runs only); see
    /// [`ShardCtx::gate`].
    pub(crate) gate: Option<Arc<Mutex<u64>>>,
    /// Lock-table version at the last ceiling publication, so a shard
    /// publishes only when a transition actually happened.
    last_pub_version: u64,
    /// Times this shard's state mutex was acquired — the shard-isolation
    /// telemetry behind the "single-shard transactions never touch
    /// another shard's state lock" assertion.
    pub(crate) state_lock_acquires: u64,
    pub(crate) commits: u64,
    pub(crate) restarts: u64,
    pub(crate) deadlocks_resolved: u64,
    /// Park-timeout safety-net firings.
    pub(crate) park_timeout_wakeups: u64,
    /// The snapshot-read side-car, when the path is enabled: every commit
    /// publishes its installs (and seals a stamp) here, inside this state
    /// core's critical section.
    pub(crate) snap: Option<Arc<SnapshotSide>>,
    /// Why instances aborted, by cause.
    pub(crate) abort_reasons: AbortBreakdown,
    reeval_scratch: Vec<InstanceId>,
    /// Scratch for the publish batch handed to the snapshot store.
    publish_scratch: Vec<(ItemId, VersionedValue)>,
}

/// What [`Shared::try_acquire`] told the caller.
pub(crate) enum TryAcquire {
    /// Granted (or already covered); the data operation happened.
    Done,
    /// State changed (victims aborted); retry the request immediately.
    Retry,
    /// Blocked; park on the returned condvar.
    Park(Arc<Condvar>),
}

impl<'a> Shared<'a> {
    pub(crate) fn new(
        set: &'a TransactionSet,
        kind: ProtocolKind,
        snap: Option<Arc<SnapshotSide>>,
        shard_ctx: ShardCtx,
    ) -> Self {
        let ceilings = CeilingTable::new(set);
        let locks = LockTable::with_index(&ceilings);
        Shared {
            view: RtView {
                set,
                ceilings,
                locks,
                pm: PriorityManager::new(),
                active: Vec::new(),
                metas: Vec::new(),
                deps: DepTracker::new(),
            },
            protocol: instantiate(kind),
            kind,
            db: Database::new(),
            history: History::new(),
            clock: shard_ctx.clock,
            shard: shard_ctx.shard,
            router: shard_ctx.router,
            global: shard_ctx.global,
            gate: shard_ctx.gate,
            last_pub_version: 0,
            state_lock_acquires: 0,
            commits: 0,
            restarts: 0,
            deadlocks_resolved: 0,
            park_timeout_wakeups: 0,
            snap,
            abort_reasons: AbortBreakdown::default(),
            reeval_scratch: Vec::new(),
            publish_scratch: Vec::new(),
        }
    }

    fn into_report(self) -> ManagerReport {
        debug_assert!(self.view.active.is_empty(), "live instances at finish");
        ManagerReport {
            history: self.history,
            db: self.db,
            commits: self.commits,
            restarts: self.restarts,
            deadlocks_resolved: self.deadlocks_resolved,
            park_timeout_wakeups: self.park_timeout_wakeups,
            lock_transitions: self.view.locks.version(),
            state_lock_acquires: self.state_lock_acquires,
            shard: self.shard,
            abort_reasons: self.abort_reasons,
        }
    }

    #[inline]
    pub(crate) fn tick(&mut self) -> Tick {
        Tick(self.clock.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Publish this shard's local system ceiling to the global layer if a
    /// lock-table transition happened since the last publication. No-op
    /// in unsharded runs. Called at the end of every state-mutating entry
    /// point, i.e. before the shard's state lock is released.
    pub(crate) fn maybe_publish_ceiling(&mut self) {
        let Some(global) = self.global.clone() else {
            return;
        };
        let v = self.view.locks.version();
        if v != self.last_pub_version {
            self.last_pub_version = v;
            let ceiling = {
                let Shared { view, protocol, .. } = self;
                protocol.system_ceiling(view)
            };
            global.publish(self.shard, ceiling);
        }
    }

    pub(crate) fn take_abort(&mut self, who: InstanceId) -> bool {
        let m = self.view.meta_mut(who);
        if m.aborted {
            m.aborted = false;
            m.woken = false;
            true
        } else {
            false
        }
    }

    /// Register a released instance.
    pub(crate) fn begin(&mut self, id: InstanceId) {
        self.begin_sharded(id, true, None);
    }

    /// Register a released instance in this shard. A cross-shard instance
    /// registers in every shard it will touch (ascending order) but logs
    /// its Begin event only in its *home* shard (`log_begin`), carrying
    /// the shared abort `signal` everywhere so any shard can flag it.
    pub(crate) fn begin_sharded(
        &mut self,
        id: InstanceId,
        log_begin: bool,
        signal: Option<Arc<AtomicBool>>,
    ) {
        let base = self.view.set.priority_of(id.txn);
        let at = log_begin.then(|| self.tick());
        match self.view.metas.binary_search_by_key(&id, |m| m.id) {
            Ok(_) => panic!("instance {id:?} begun twice"),
            Err(i) => {
                let mut m = Meta::new(id);
                m.signal = signal;
                self.view.metas.insert(i, m);
            }
        }
        match self.view.active.binary_search(&id) {
            Ok(_) => unreachable!(),
            Err(i) => self.view.active.insert(i, id),
        }
        self.view.pm.register(id, base);
        if let Some(at) = at {
            self.history.push(at, id, EventKind::Begin);
        }
    }

    /// Perform the granted data operation through the worker's private
    /// workspace and refresh the mirrors the protocols observe.
    fn perform_op(
        &mut self,
        who: InstanceId,
        step_index: usize,
        item: ItemId,
        mode: LockMode,
        ws: &mut Workspace,
    ) {
        let at = self.tick();
        let Shared {
            view,
            db,
            history,
            router,
            shard,
            ..
        } = self;
        match mode {
            LockMode::Read => {
                // Dirty read over a retired chain: with no own staged
                // value, the latest live retired writer's value is the
                // one this reader is ordered after (the commit dependency
                // taken at grant time). Its predicted version is the
                // committed version plus the chain length — every live
                // chain member installs exactly one bump first.
                let dirty = if ws.staged_value(item).is_none() {
                    view.deps.latest_retired(item)
                } else {
                    None
                };
                let rec = match dirty {
                    Some((rw, chain_len)) if rw.owner != who => {
                        let version = db.get(item).version + chain_len as u64;
                        ws.read_dirty(item, rw.value, version)
                    }
                    _ => ws.read(db, item),
                };
                history.push(
                    at,
                    who,
                    EventKind::Read {
                        item,
                        value: rec.value,
                        version: rec.version,
                        own: rec.own,
                    },
                );
                let m = view.meta_mut(who);
                m.data_read.clear();
                match router {
                    // Multi-shard: this shard's protocol instance must
                    // only see the reads it governs — a cross-shard
                    // reader's off-shard items would otherwise produce
                    // spurious OCC invalidations here.
                    Some(r) => m
                        .data_read
                        .extend(ws.data_read().iter().filter(|&&i| r.shard_of(i) == *shard)),
                    None => m.data_read.extend_from_slice(ws.data_read()),
                }
            }
            LockMode::Write => {
                let value = ws.write(step_index, item);
                history.push(at, who, EventKind::StageWrite { item, value });
                let m = view.meta_mut(who);
                if let Err(i) = m.staged.binary_search(&item) {
                    m.staged.insert(i, item);
                }
            }
        }
    }

    pub(crate) fn try_acquire(
        &mut self,
        who: InstanceId,
        step_index: usize,
        item: ItemId,
        mode: LockMode,
        ws: &mut Workspace,
    ) -> TryAcquire {
        let result = self.try_acquire_inner(who, step_index, item, mode, ws);
        self.maybe_publish_ceiling();
        result
    }

    fn try_acquire_inner(
        &mut self,
        who: InstanceId,
        step_index: usize,
        item: ItemId,
        mode: LockMode,
        ws: &mut Workspace,
    ) -> TryAcquire {
        // Clear a stale wake flag from a previous round.
        self.view.meta_mut(who).woken = false;

        if self.view.locks.covers(who, item, mode) {
            self.perform_op(who, step_index, item, mode, ws);
            return TryAcquire::Done;
        }

        let req = LockRequest { who, item, mode };
        let decision = {
            let Shared { view, protocol, .. } = self;
            protocol.request(view, req)
        };
        match decision {
            Decision::Grant => {
                self.view.locks.grant(who, item, mode);
                // Acquiring an item with live retired writes orders the
                // grantee after the latest such writer — its commit gates
                // on the writer's, and the writer's abort cascades.
                // Registered for *every* mode: a write over the chain
                // must also install after the chain.
                let latest = self.view.deps.latest_retired(item).map(|(rw, _)| rw.owner);
                if let Some(owner) = latest {
                    self.view.deps.add_dep(who, owner);
                }
                {
                    let Shared { view, protocol, .. } = self;
                    protocol.on_grant(view, req);
                }
                self.perform_op(who, step_index, item, mode, ws);
                TryAcquire::Done
            }
            Decision::AbortHolders { victims } => {
                for v in victims {
                    if v != who {
                        self.abort_victim(v, AbortReason::Wound);
                    }
                }
                self.reevaluate();
                TryAcquire::Retry
            }
            Decision::AbortSelf { .. } => {
                // Ordered self-abort (Brook-2PL yielding to a senior):
                // restart the requester. The runtime's restart backoff
                // provides the retry gap the simulator models with an
                // explicit wait-die hold.
                self.abort_victim(who, AbortReason::CeilingBlock);
                TryAcquire::Retry
            }
            Decision::Block { blockers } => {
                self.block(who, req, &blockers);
                // A new blocking edge can itself unblock others (PCP-DA's
                // commit-order guard); give every parked request a pass
                // before testing for a deadlock.
                self.reevaluate();
                if self.view.meta(who).pending.is_some() {
                    self.resolve_deadlocks();
                }
                match &self.view.meta(who) {
                    m if m.aborted || m.woken || m.pending.is_none() => TryAcquire::Retry,
                    m => TryAcquire::Park(m.cv.clone()),
                }
            }
        }
    }

    fn block(&mut self, who: InstanceId, req: LockRequest, blockers: &[InstanceId]) {
        let my_base = self.view.set.priority_of(who.txn);
        {
            let RtView { set, .. } = self.view;
            let m = self.view.meta_mut(who);
            debug_assert!(m.pending.is_none());
            m.pending = Some(req);
            m.block_events += 1;
            for &b in blockers {
                if set.priority_of(b.txn) < my_base {
                    m.note_lower_blocker(b.txn);
                }
            }
        }
        self.view.pm.set_blocked(who, blockers);
    }

    /// Mirror of the simulator's `reevaluate`: re-present every parked
    /// request in descending running-priority order; wake those that would
    /// now be granted (the grant itself happens when the woken thread
    /// re-issues the request), refresh the blocking edges of the rest.
    pub(crate) fn reevaluate(&mut self) {
        let mut blocked = std::mem::take(&mut self.reeval_scratch);
        blocked.clear();
        blocked.extend(
            self.view
                .metas
                .iter()
                .filter(|m| m.pending.is_some())
                .map(|m| m.id),
        );
        blocked.sort_by_key(|&id| {
            Reverse((
                self.view.pm.running(id),
                self.view.set.priority_of(id.txn),
                Reverse(id.seq),
            ))
        });
        for &who in &blocked {
            let Some(req) = self.view.meta(who).pending else {
                continue; // woken or aborted earlier in this pass
            };
            let decision = {
                let Shared { view, protocol, .. } = self;
                protocol.request(view, req)
            };
            match decision {
                Decision::Grant | Decision::AbortHolders { .. } | Decision::AbortSelf { .. } => {
                    // Would be granted now — or would abort (the woken
                    // worker must run to find out): advisory wake either
                    // way.
                    self.wake(who)
                }
                Decision::Block { blockers } => {
                    debug_assert!(!blockers.is_empty());
                    let my_base = self.view.set.priority_of(who.txn);
                    {
                        let RtView { set, .. } = self.view;
                        let m = self.view.meta_mut(who);
                        for &b in &blockers {
                            if set.priority_of(b.txn) < my_base {
                                m.note_lower_blocker(b.txn);
                            }
                        }
                    }
                    self.view.pm.set_blocked(who, &blockers);
                }
            }
        }
        self.reeval_scratch = blocked;
    }

    /// Clear `who`'s pending request and notify its parked thread.
    fn wake(&mut self, who: InstanceId) {
        self.view.pm.clear_blocked(who);
        let m = self.view.meta_mut(who);
        m.pending = None;
        m.woken = true;
        m.cv.notify_one();
    }

    /// Detect and resolve wait-for cycles by aborting the lowest-base-
    /// priority instance on each cycle until none remains.
    pub(crate) fn resolve_deadlocks(&mut self) {
        loop {
            let Some(cycle) = WaitForGraph::from_edges(self.view.pm.edges()).find_cycle() else {
                return;
            };
            let victim = deadlock_victim(&cycle, |v| self.view.set.priority_of(v.txn));
            self.deadlocks_resolved += 1;
            self.abort_victim(victim, AbortReason::DeadlockVictim);
            self.reevaluate();
        }
    }

    /// Abort a live instance: release its locks, clear its protocol-visible
    /// state, flag its worker to restart. The victim's workspace is reset
    /// by the owning thread when it observes the flag; until then the
    /// cleared mirrors are what protocols see — the same state the
    /// simulator reaches by resetting the slot in place.
    pub(crate) fn abort_victim(&mut self, victim: InstanceId, reason: AbortReason) {
        if !self.view.is_active(victim) {
            return; // committed between the decision and now — same critical section, so only via commit_victims listing a stale id
        }
        assert_eq!(
            self.kind.update_model(),
            UpdateModel::Workspace,
            "aborts require the workspace model (no undo implemented)"
        );
        // A cross-shard victim is aborted *locally*: clean this shard's
        // slice of its state and raise the shared signal; the victim's
        // own worker (which never parks while it holds anything) observes
        // the signal at its next sharded-manager entry point, cleans its
        // remaining shards the same way, and logs the single Abort +
        // restart-Begin pair in its home shard. `aborted` doubles as the
        // "this shard already ran its local abort" marker the victim's
        // sweep consumes.
        if let Some(sig) = self.view.meta(victim).signal.clone() {
            let m = self.view.meta_mut(victim);
            if m.aborted {
                return; // local abort already ran; victim not yet swept
            }
            self.abort_reasons.record(reason);
            m.aborted = true;
            m.pending = None;
            m.woken = false;
            m.data_read.clear();
            m.staged.clear();
            m.installed_early.clear();
            sig.store(true, Ordering::Release);
            self.view.locks.release_all(victim);
            self.view.pm.clear_blocked(victim);
            {
                let Shared { view, protocol, .. } = self;
                protocol.on_abort(view, victim);
            }
            self.maybe_publish_ceiling();
            return;
        }
        self.abort_reasons.record(reason);
        let at = self.tick();
        self.history.push(at, victim, EventKind::Abort);
        self.view.locks.release_all(victim);
        self.view.pm.clear_blocked(victim);
        {
            let m = self.view.meta_mut(victim);
            m.pending = None;
            m.woken = false;
            m.data_read.clear();
            m.staged.clear();
            m.installed_early.clear();
            m.restarts += 1;
            // A running worker observes the flag at its next manager
            // call; a parked one when the notify lands.
            m.aborted = true;
            m.cv.notify_one();
        }
        self.restarts += 1;
        {
            let Shared { view, protocol, .. } = self;
            protocol.on_abort(view, victim);
        }
        let at = self.tick();
        self.history.push(at, victim, EventKind::Begin);
        // Everyone who observed (or overwrote) the victim's retired
        // writes aborts with it — the dependency tracker hands back the
        // transitive closure, each member exactly once.
        let cascade = self.view.deps.on_abort(victim);
        for d in cascade {
            if self.view.is_active(d) {
                self.abort_victim(d, AbortReason::Cascade);
            }
        }
        self.maybe_publish_ceiling();
    }

    /// Report step `completed_step` finished; applies the protocol's early
    /// releases (CCP) and re-evaluates waiters.
    pub(crate) fn step_done_inner(
        &mut self,
        id: InstanceId,
        completed_step: usize,
        ws: &Workspace,
    ) {
        let releases = {
            let Shared { view, protocol, .. } = self;
            protocol.early_releases(view, id, completed_step)
        };
        let retired = {
            let Shared { view, protocol, .. } = self;
            protocol.retires(view, id, completed_step)
        };
        if releases.is_empty() && retired.is_empty() {
            return;
        }
        let install_early = self.kind.update_model() == UpdateModel::InstallOnEarlyRelease;
        for (item, mode) in releases {
            debug_assert!(self.view.locks.holds(id, item, mode));
            self.view.locks.release(id, item, mode);
            if install_early && mode == LockMode::Write {
                if let Some(value) = ws.staged_value(item) {
                    if self.view.meta_mut(id).mark_installed_early(item) {
                        let at = self.tick();
                        let version = self.db.install(id, item, value, at);
                        self.history.push(
                            at,
                            id,
                            EventKind::Install {
                                item,
                                value,
                                version,
                            },
                        );
                    }
                }
            }
        }
        // Early release into the retired list (Bamboo / Brook-2PL):
        // write locks past their last access release now; the staged
        // value stays visible through the dependency tracker, and
        // successors order themselves behind the retiree via commit
        // dependencies instead of lock waits.
        for item in retired {
            debug_assert!(self.view.locks.holds(id, item, LockMode::Write));
            let staged = ws
                .staged_value(item)
                .expect("retired an item without a staged write");
            if self.view.locks.holds(id, item, LockMode::Read) {
                // An upgrade's read lock goes with the write lock:
                // successors are ordered by the dependency anyway.
                self.view.locks.release(id, item, LockMode::Read);
            }
            self.view.locks.release(id, item, LockMode::Write);
            self.view.deps.retire(id, item, staged);
        }
        self.reevaluate();
        self.maybe_publish_ceiling();
    }

    /// The protocol's commit victims for `id` — borrow helper for the
    /// sharded manager's multi-guard cross-shard commit.
    pub(crate) fn protocol_commit_victims(&mut self, id: InstanceId) -> Vec<InstanceId> {
        let Shared { view, protocol, .. } = self;
        protocol.commit_victims(view, id)
    }

    /// Commit-side teardown of `id` in this shard: release its locks,
    /// drop it from the priority manager, notify the protocol and remove
    /// its registration, returning the meta for stats accounting. The
    /// sharded manager's cross-shard commit runs this once per touched
    /// shard (the Commit/Install events are logged by the caller).
    pub(crate) fn remove_instance(&mut self, id: InstanceId) -> Meta {
        self.view.locks.release_all(id);
        self.view.pm.remove(id);
        {
            let Shared { view, protocol, .. } = self;
            protocol.on_commit(view, id);
        }
        let i = self.view.meta_idx(id).expect("instance is live");
        let meta = self.view.metas.remove(i);
        if let Ok(i) = self.view.active.binary_search(&id) {
            self.view.active.remove(i);
        }
        meta
    }

    /// The victim's side of a cross-shard abort, run per shard by the
    /// victim's own sweep: consume the "local abort already ran" marker
    /// if an aborter got here first, otherwise release this shard's
    /// slice silently — the sweep logs the single Abort/Begin pair in
    /// the home shard itself.
    pub(crate) fn abort_local_cross(&mut self, id: InstanceId) {
        if !self.view.is_active(id) {
            return;
        }
        let m = self.view.meta_mut(id);
        if m.aborted {
            m.aborted = false; // the aborting shard already released everything here
            return;
        }
        m.pending = None;
        m.woken = false;
        m.data_read.clear();
        m.staged.clear();
        m.installed_early.clear();
        self.view.locks.release_all(id);
        self.view.pm.clear_blocked(id);
        {
            let Shared { view, protocol, .. } = self;
            protocol.on_abort(view, id);
        }
    }

    /// Commit gate: with outstanding commit dependencies `id` must not
    /// commit yet (recoverability — nobody commits a value derived from a
    /// dirty read whose writer can still abort). Registers the gate waits
    /// in the priority manager — the committer donates its priority to
    /// the dependencies it waits on, and the wait-for graph sees gate
    /// edges, so a gate-plus-lock cycle (possible under Bamboo) resolves
    /// like any other deadlock. Returns true when the caller must park:
    /// the drain in a dependency's commit wakes it (`woken`), a cascading
    /// abort restarts it (`aborted`).
    pub(crate) fn gate_commit(&mut self, id: InstanceId) -> bool {
        let deps: Vec<InstanceId> = self.view.deps.deps_of(id).to_vec();
        if deps.is_empty() {
            return false;
        }
        self.view.meta_mut(id).woken = false;
        self.view.pm.set_blocked(id, &deps);
        self.resolve_deadlocks();
        true
    }

    /// Commit `id`: abort the protocol's commit victims, install staged
    /// writes, release everything, re-evaluate waiters. The caller has
    /// already consumed any abort flag and cleared the commit gate
    /// ([`Shared::gate_commit`] returned false).
    pub(crate) fn commit_inner(&mut self, id: InstanceId, ws: &Workspace) -> JobStats {
        debug_assert!(!self.view.deps.has_deps(id), "commit through a closed gate");
        let victims = self.protocol_commit_victims(id);
        for v in victims {
            if v != id {
                self.abort_victim(v, AbortReason::Wound);
            }
        }

        // Multi-shard runs serialize {commit tick, installs, snapshot
        // publish, commit index} through the run-global commit gate, so
        // commit-tick order, commit-index order and snapshot-stamp order
        // all agree across shards (and the single-publisher contract of
        // `SnapshotStore::publish` holds). Unsharded runs have no gate:
        // the state mutex already serializes all of this.
        let gate = self.gate.clone();
        let mut gate_guard = gate
            .as_ref()
            .map(|g| g.lock().unwrap_or_else(std::sync::PoisonError::into_inner));
        let at = self.tick();
        self.history.push(at, id, EventKind::Commit);
        {
            let Shared {
                view,
                db,
                history,
                snap,
                publish_scratch,
                ..
            } = self;
            let m = view.meta(id);
            for &(item, value) in ws.staged_writes() {
                if m.installed_early.binary_search(&item).is_ok() {
                    continue;
                }
                let version = db.install(id, item, value, at);
                history.push(
                    at,
                    id,
                    EventKind::Install {
                        item,
                        value,
                        version,
                    },
                );
                if snap.is_some() {
                    publish_scratch.push((
                        item,
                        VersionedValue {
                            value,
                            version,
                            writer: Some(id),
                            installed_at: at,
                        },
                    ));
                }
            }
            // Seal this commit's stamp — on *every* lock-path commit,
            // written or not, so stamp `S` means "the state after the
            // first `S` commits" exactly as the oracle counts them.
            if let Some(side) = snap {
                side.store.publish(publish_scratch);
                publish_scratch.clear();
            }
        }
        let commit_index = match gate_guard.as_deref_mut() {
            Some(next) => {
                let i = *next;
                *next += 1;
                i
            }
            None => self.commits,
        };
        drop(gate_guard);
        self.commits += 1;
        // Dependency bookkeeping: the retired entries become committed
        // state, and dependents whose last dependency this was may now
        // pass the commit gate.
        let drained = self.view.deps.on_commit(id);
        let meta = self.remove_instance(id);
        let stats = JobStats {
            commit_index,
            restarts: meta.restarts,
            block_events: meta.block_events,
            lower_blockers: meta.lower_blockers,
            snapshot: None,
        };
        self.reevaluate();
        // Advisory wakes for the drained dependents: a committer parked
        // at the gate re-presents its commit; one still mid-execution
        // simply finds the gate open when it arrives.
        for d in drained {
            if self.view.is_active(d) {
                self.wake(d);
            }
        }
        self.maybe_publish_ceiling();
        stats
    }
}

/// The concurrent lock manager: one global lock over a [`Shared`] core,
/// per-waiter condvar parking. One per shard of a [`crate::run`]
/// invocation, shared by reference across the worker threads of that run.
pub(crate) struct LockManager<'a> {
    state: Mutex<Shared<'a>>,
    /// Park `wait_timeout` safety net (see [`crate::RtConfig::park_timeout`]).
    park_timeout: Duration,
}

impl<'a> LockManager<'a> {
    pub(crate) fn new(
        set: &'a TransactionSet,
        kind: ProtocolKind,
        park_timeout: Duration,
        snap: Option<Arc<SnapshotSide>>,
        shard_ctx: ShardCtx,
    ) -> Self {
        LockManager {
            park_timeout,
            state: Mutex::new(Shared::new(set, kind, snap, shard_ctx)),
        }
    }

    /// Lock the shared state, recovering from poisoning (a panicking
    /// worker already fails the run via the scope join; secondary threads
    /// should not cascade with confusing poison panics). Also the sharded
    /// manager's direct cross-shard access path.
    pub(crate) fn lock(&self) -> MutexGuard<'_, Shared<'a>> {
        let mut g = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        g.state_lock_acquires += 1;
        g
    }

    /// Register a released instance.
    pub(crate) fn begin(&self, id: InstanceId) {
        self.lock().begin(id);
    }

    /// Acquire `item` in `mode` for step `step_index`, performing the data
    /// operation at grant time. Parks the calling thread while the
    /// protocol denies the request.
    pub(crate) fn acquire(
        &self,
        id: InstanceId,
        step_index: usize,
        item: ItemId,
        mode: LockMode,
        ws: &mut Workspace,
    ) -> Outcome {
        let mut g = self.lock();
        loop {
            if g.take_abort(id) {
                return Outcome::Restart;
            }
            match g.try_acquire(id, step_index, item, mode, ws) {
                TryAcquire::Done => return Outcome::Done,
                TryAcquire::Retry => continue,
                TryAcquire::Park(cv) => {
                    loop {
                        let (g2, timeout) = cv
                            .wait_timeout(g, self.park_timeout)
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        g = g2;
                        let m = g.view.meta(id);
                        if m.aborted || m.woken || m.pending.is_none() {
                            break;
                        }
                        if timeout.timed_out() {
                            // Safety net: heal lost wake-ups and cycles
                            // that formed without a block event.
                            g.park_timeout_wakeups += 1;
                            g.reevaluate();
                            if g.view.meta(id).pending.is_some() {
                                g.resolve_deadlocks();
                            }
                        }
                    }
                    // Retry (or observe the abort) at the top of the loop.
                }
            }
        }
    }

    /// Report step `completed_step` finished; applies the protocol's early
    /// releases (CCP) and re-evaluates waiters.
    pub(crate) fn step_done(
        &self,
        id: InstanceId,
        completed_step: usize,
        ws: &Workspace,
    ) -> Outcome {
        let mut g = self.lock();
        if g.take_abort(id) {
            return Outcome::Restart;
        }
        g.step_done_inner(id, completed_step, ws);
        Outcome::Done
    }

    /// Commit: validate (OCC), install staged writes, release everything,
    /// wake waiters. Parks at the commit gate while the instance still
    /// has commit dependencies (early-release protocols). Fails with
    /// [`CommitOutcome::Restart`] if the instance was aborted before the
    /// commit point (or cascaded out of the gate).
    pub(crate) fn commit(&self, id: InstanceId, ws: &Workspace) -> CommitOutcome {
        let mut g = self.lock();
        loop {
            if g.take_abort(id) {
                return CommitOutcome::Restart;
            }
            if !g.gate_commit(id) {
                return CommitOutcome::Committed(g.commit_inner(id, ws));
            }
            // Gated: wait for the drain wake of the last dependency's
            // commit, or the abort flag of its cascade.
            let cv = g.view.meta(id).cv.clone();
            loop {
                {
                    let m = g.view.meta(id);
                    if m.aborted || m.woken {
                        break;
                    }
                }
                let (g2, timeout) = cv
                    .wait_timeout(g, self.park_timeout)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                g = g2;
                if timeout.timed_out() {
                    // Safety net: heal lost wake-ups and gate cycles that
                    // formed without a block event.
                    g.park_timeout_wakeups += 1;
                    g.reevaluate();
                    g.resolve_deadlocks();
                }
            }
        }
    }

    /// Tear down after every worker joined, yielding the run's artifacts.
    pub(crate) fn finish(self) -> ManagerReport {
        self.state
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .into_report()
    }
}
