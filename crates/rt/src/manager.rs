//! The concurrent lock manager.
//!
//! One [`Mutex`] per [`LockManager`] guards a [`Shared`] core: the
//! [`rtdb_core::StateKernel`] — lock table, ceilings, inheritance,
//! per-instance records, database, history, and every transition over
//! them — plus the protocol instance and the parking state of the live
//! instances. Every protocol decision, data operation and commit happens
//! inside the mutex *in the kernel*, the same code the simulator drives,
//! so the runtime linearizes the exact state machine the simulator
//! executes — only the *order* of requests differs (it is decided by the
//! OS scheduler instead of the simulated priority dispatcher). What this
//! module adds is delivery: blocked threads park on per-waiter
//! [`Condvar`]s, and the woken / aborted / drained instances a kernel
//! transition returns become flags and notifies.
//!
//! Deadlock cycles are searched for on the kernel's wait edges at block
//! time (as in the simulator) and always resolved by aborting the
//! kernel's victim: a real runtime cannot stop the world and report
//! `RunOutcome::Deadlock` the way a simulation can.

use crate::snapshot::SnapshotSide;
use rtdb_core::{
    AbortBreakdown, AbortReason, Acquire, EngineView, GlobalCeiling, ProtocolFor, ProtocolKind,
    Record, ShardRouter, StateKernel,
};
use rtdb_sim::{instantiate, AnyProtocol};
use rtdb_storage::{Database, EventKind, History, VersionedValue, Workspace};
use rtdb_types::{InstanceId, ItemId, LockMode, Tick, TransactionSet, TxnId};
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
    /// Item→shard routing (multi-shard runs only); scopes the shard's
    /// kernel to the items it owns.
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

/// Parking state of one live instance — the runtime-only half of its
/// bookkeeping; what protocols observe lives in the kernel's [`Record`].
struct Waiter {
    id: InstanceId,
    cv: Arc<Condvar>,
    /// Set when the kernel woke this instance: a re-evaluation would now
    /// grant its pending request, or its last commit dependency drained.
    woken: bool,
    /// Set by [`Shared::abort_victim`]; consumed by the owning worker.
    aborted: bool,
    /// Cross-shard abort signal (multi-shard runs only): set instead of
    /// `aborted` when this instance spans shards, because its owner never
    /// parks inside any one shard and polls this flag at the sharded
    /// manager's entry points instead. Shared with every shard the
    /// instance registered in.
    signal: Option<Arc<AtomicBool>>,
}

/// The guarded heart of the runtime: one state kernel, the protocol
/// instance deciding over it, and the parking state of its live
/// instances — what every worker reaches through its [`LockManager`]'s
/// mutex. The methods here compose kernel transitions and deliver their
/// effects: notifies and flags for the woken and the aborted, ceiling
/// publications, snapshot publishes.
pub(crate) struct Shared<'a> {
    kernel: StateKernel<'a>,
    protocol: AnyProtocol,
    /// Sorted by `Waiter::id`, one per instance live in `kernel`.
    waiters: Vec<Waiter>,
    /// Logical event clock: history ticks order events for readers of the
    /// log; correctness oracles never compare tick values across runs. In
    /// multi-shard runs the counter is shared by every shard, so ticks
    /// are globally unique and the per-shard histories merge by tick.
    clock: Arc<AtomicU64>,
    /// This shard's index (0 in unsharded runs).
    shard: usize,
    /// Where this shard publishes its local system ceiling (multi-shard
    /// runs only).
    global: Option<Arc<GlobalCeiling>>,
    /// The cross-shard commit gate (multi-shard runs only); see
    /// [`ShardCtx::gate`].
    pub(crate) gate: Option<Arc<Mutex<u64>>>,
    /// Lock-table version at the last ceiling publication, so a shard
    /// publishes only when a transition actually happened.
    last_pub_version: u64,
    /// Times this shard's state mutex was acquired — the shard-isolation
    /// telemetry behind the "single-shard transactions never touch
    /// another shard's state lock" assertion.
    state_lock_acquires: u64,
    pub(crate) commits: u64,
    restarts: u64,
    deadlocks_resolved: u64,
    /// Park-timeout safety-net firings.
    park_timeout_wakeups: u64,
    /// The snapshot-read side-car, when the path is enabled: every commit
    /// publishes its installs (and seals a stamp) here, inside this state
    /// core's critical section.
    pub(crate) snap: Option<Arc<SnapshotSide>>,
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

/// One tick of the shared logical clock — the kernel's tick source here:
/// every logged event draws its own.
#[inline]
fn next_tick(clock: &AtomicU64) -> Tick {
    Tick(clock.fetch_add(1, Ordering::Relaxed) + 1)
}

impl<'a> Shared<'a> {
    fn new(
        set: &'a TransactionSet,
        kind: ProtocolKind,
        snap: Option<Arc<SnapshotSide>>,
        shard_ctx: ShardCtx,
    ) -> Self {
        let protocol = instantiate(kind);
        let mut kernel = StateKernel::new(
            set,
            ProtocolFor::<StateKernel<'a>>::ceiling_flavor(&protocol),
        );
        if let Some(router) = shard_ctx.router {
            // Multi-shard: this shard's protocol instance must only see
            // the reads it governs — a cross-shard reader's off-shard
            // items would otherwise produce spurious OCC invalidations.
            kernel = kernel.scoped_to(router, shard_ctx.shard);
        }
        Shared {
            kernel,
            protocol,
            waiters: Vec::new(),
            clock: shard_ctx.clock,
            shard: shard_ctx.shard,
            global: shard_ctx.global,
            gate: shard_ctx.gate,
            last_pub_version: 0,
            state_lock_acquires: 0,
            commits: 0,
            restarts: 0,
            deadlocks_resolved: 0,
            park_timeout_wakeups: 0,
            snap,
            publish_scratch: Vec::new(),
        }
    }

    fn into_report(self) -> ManagerReport {
        debug_assert!(self.waiters.is_empty(), "live instances at finish");
        let lock_transitions = self.kernel.locks().version();
        let (history, db, abort_reasons) = self.kernel.into_parts();
        ManagerReport {
            history,
            db,
            commits: self.commits,
            restarts: self.restarts,
            deadlocks_resolved: self.deadlocks_resolved,
            park_timeout_wakeups: self.park_timeout_wakeups,
            lock_transitions,
            state_lock_acquires: self.state_lock_acquires,
            shard: self.shard,
            abort_reasons,
        }
    }

    #[inline]
    pub(crate) fn tick(&self) -> Tick {
        next_tick(&self.clock)
    }

    #[inline]
    fn waiter_idx(&self, who: InstanceId) -> Option<usize> {
        self.waiters.binary_search_by_key(&who, |w| w.id).ok()
    }

    #[inline]
    fn waiter_mut(&mut self, who: InstanceId) -> &mut Waiter {
        let i = self.waiter_idx(who).expect("instance is live");
        &mut self.waiters[i]
    }

    /// True when a parked `who` must stop waiting: aborted, woken, or no
    /// longer pending.
    fn unparked(&self, who: InstanceId) -> bool {
        let w = &self.waiters[self.waiter_idx(who).expect("instance is live")];
        w.aborted || w.woken || self.kernel.pending_request(who).is_none()
    }

    /// Flag the instances the kernel woke and notify their threads (the
    /// grant itself happens when the woken thread re-issues its request).
    fn notify(&mut self, woken: &[InstanceId]) {
        for &who in woken {
            let w = self.waiter_mut(who);
            w.woken = true;
            w.cv.notify_one();
        }
    }

    /// Publish this shard's local system ceiling to the global layer if a
    /// lock-table transition happened since the last publication. No-op
    /// in unsharded runs. Called at the end of every state-mutating entry
    /// point, i.e. before the shard's state lock is released.
    fn maybe_publish_ceiling(&mut self) {
        let Some(global) = &self.global else {
            return;
        };
        let v = self.kernel.locks().version();
        if v != self.last_pub_version {
            self.last_pub_version = v;
            global.publish(self.shard, self.protocol.system_ceiling(&self.kernel));
        }
    }

    pub(crate) fn take_abort(&mut self, who: InstanceId) -> bool {
        let w = self.waiter_mut(who);
        if w.aborted {
            w.aborted = false;
            w.woken = false;
            true
        } else {
            false
        }
    }

    /// Register a released instance in this shard. A cross-shard instance
    /// registers in every shard it will touch (ascending order) but logs
    /// its Begin event only in its *home* shard (`log_begin`), carrying
    /// the shared abort `signal` everywhere so any shard can flag it.
    pub(crate) fn begin(
        &mut self,
        id: InstanceId,
        log_begin: bool,
        signal: Option<Arc<AtomicBool>>,
    ) {
        let at = log_begin.then(|| self.tick());
        self.kernel.begin(id, at);
        let i = self
            .waiters
            .binary_search_by_key(&id, |w| w.id)
            .expect_err("the kernel rejects a second begin");
        self.waiters.insert(
            i,
            Waiter {
                id,
                cv: Arc::new(Condvar::new()),
                woken: false,
                aborted: false,
                signal,
            },
        );
    }

    pub(crate) fn try_acquire(
        &mut self,
        who: InstanceId,
        step_index: usize,
        item: ItemId,
        mode: LockMode,
        ws: &mut Workspace,
    ) -> TryAcquire {
        // Clear a stale wake flag from a previous round.
        self.waiter_mut(who).woken = false;
        let Shared {
            kernel,
            protocol,
            clock,
            ..
        } = self;
        let acquired = kernel.acquire(protocol, who, step_index, item, mode, ws, || {
            next_tick(clock)
        });
        let result = match acquired {
            Acquire::Done { .. } => TryAcquire::Done,
            Acquire::Wound { victims } => {
                for v in victims {
                    self.abort_victim(v, AbortReason::Wound);
                }
                self.wake_parked();
                TryAcquire::Retry
            }
            Acquire::Die { .. } => {
                // Ordered self-abort (Brook-2PL yielding to a senior):
                // restart the requester. The runtime's restart backoff
                // provides the retry gap the simulator models with an
                // explicit wait-die hold.
                self.abort_victim(who, AbortReason::CeilingBlock);
                self.wake_parked();
                TryAcquire::Retry
            }
            Acquire::Blocked { woken, .. } => {
                self.notify(&woken);
                if self.kernel.pending_request(who).is_some() {
                    self.resolve_deadlocks();
                }
                if self.unparked(who) {
                    TryAcquire::Retry
                } else {
                    TryAcquire::Park(self.waiter_mut(who).cv.clone())
                }
            }
        };
        self.maybe_publish_ceiling();
        result
    }

    /// Undo the registration of a denied request — the no-wait cross-shard
    /// path never parks in someone else's shard.
    pub(crate) fn unpark(&mut self, who: InstanceId) {
        self.kernel.wake(who);
        self.waiter_mut(who).woken = false;
    }

    /// Have the kernel re-present every parked request and wake those that
    /// would now be granted.
    pub(crate) fn wake_parked(&mut self) {
        let woken = self.kernel.reevaluate(&mut self.protocol);
        self.notify(&woken);
    }

    /// Resolve wait-for cycles by aborting the kernel's victim — the
    /// lowest-base-priority instance on each cycle — until none remains.
    pub(crate) fn resolve_deadlocks(&mut self) {
        while let Some((_, victim)) = self.kernel.find_deadlock() {
            self.deadlocks_resolved += 1;
            self.abort_victim(victim, AbortReason::DeadlockVictim);
            self.wake_parked();
        }
    }

    /// Abort a live instance (and, cascading, its dependents) through the
    /// kernel and flag each worker to restart. A victim's workspace is
    /// reset by the owning thread when it observes the flag; until then
    /// the kernel's cleared record is what protocols see — the same state
    /// the simulator reaches by resetting the slot in place.
    pub(crate) fn abort_victim(&mut self, victim: InstanceId, reason: AbortReason) {
        let Some(i) = self.waiter_idx(victim) else {
            return; // committed between the decision and now
        };
        // A cross-shard victim is aborted *locally*: clean this shard's
        // slice of its state and raise the shared signal; the victim's
        // own worker (which never parks while it holds anything) observes
        // the signal at its next sharded-manager entry point, cleans its
        // remaining shards the same way, and logs the single Abort +
        // restart-Begin pair in its home shard. `aborted` doubles as the
        // "this shard already ran its local abort" marker the victim's
        // sweep consumes.
        if let Some(sig) = self.waiters[i].signal.clone() {
            if self.waiters[i].aborted {
                return; // local abort already ran; victim not yet swept
            }
            self.kernel
                .abort_local(&mut self.protocol, victim, Some(reason));
            self.waiters[i].aborted = true;
            self.waiters[i].woken = false;
            sig.store(true, Ordering::Release);
        } else {
            let Shared {
                kernel,
                protocol,
                clock,
                ..
            } = self;
            for (who, _) in kernel.abort(protocol, victim, reason, || next_tick(clock)) {
                self.restarts += 1;
                let w = self.waiter_mut(who);
                debug_assert!(w.signal.is_none(), "cascades never cross shards");
                w.woken = false;
                // A running worker observes the flag at its next manager
                // call; a parked one when the notify lands.
                w.aborted = true;
                w.cv.notify_one();
            }
        }
        self.maybe_publish_ceiling();
    }

    /// Report step `completed_step` finished; applies the protocol's early
    /// releases and retires and wakes waiters.
    pub(crate) fn step_done(&mut self, id: InstanceId, completed_step: usize, ws: &Workspace) {
        let Shared {
            kernel,
            protocol,
            clock,
            ..
        } = self;
        let done = kernel.step_done(protocol, id, completed_step, ws, || next_tick(clock));
        if !done.released.is_empty() {
            self.notify(&done.woken);
            self.maybe_publish_ceiling();
        }
    }

    /// The victim's side of a cross-shard abort, run per shard by the
    /// victim's own sweep: consume the "local abort already ran" marker
    /// if an aborter got here first, otherwise release this shard's
    /// slice silently. The single Abort + restart-Begin pair is logged
    /// around it in the `home` shard — the Begin lands *after* any stray
    /// operations the doomed attempt logged, so position-based oracles
    /// (committed reads) see only the committing attempt.
    pub(crate) fn sweep_cross(&mut self, id: InstanceId, home: bool) {
        if home {
            self.kernel.log(self.tick(), id, EventKind::Abort);
        }
        let w = self.waiter_mut(id);
        w.woken = false;
        if w.aborted {
            w.aborted = false; // the aborting shard already released everything here
        } else {
            self.kernel.abort_local(&mut self.protocol, id, None);
        }
        if home {
            self.kernel.log(self.tick(), id, EventKind::Begin);
        }
        self.wake_parked();
        self.maybe_publish_ceiling();
    }

    /// Commit gate: true when `id` still has commit dependencies and the
    /// caller must park — the drain in a dependency's commit wakes it
    /// (`woken`), a cascading abort restarts it (`aborted`). The gate
    /// waits are edges in the kernel, so a gate-plus-lock cycle resolves
    /// here like any other deadlock.
    pub(crate) fn gate_commit(&mut self, id: InstanceId) -> bool {
        if !self.kernel.gate(id) {
            return false;
        }
        self.waiter_mut(id).woken = false;
        self.resolve_deadlocks();
        true
    }

    /// Abort the instances `id`'s commit invalidates (optimistic
    /// validation), before the writes install.
    pub(crate) fn abort_commit_victims(&mut self, id: InstanceId) {
        for v in self.kernel.commit_victims(&mut self.protocol, id) {
            self.abort_victim(v, AbortReason::Wound);
        }
    }

    /// The commit point of `id` in this shard at tick `at`: the Commit
    /// event (in the `home` shard) and the installs of the staged writes
    /// this shard owns, collected into `batch` when the snapshot store
    /// will publish them.
    pub(crate) fn install(
        &mut self,
        id: InstanceId,
        ws: &Workspace,
        at: Tick,
        home: bool,
        batch: &mut Vec<(ItemId, VersionedValue)>,
    ) {
        let out = self.snap.is_some().then_some(batch);
        self.kernel.install(id, ws, at, home, out);
    }

    /// Commit-side teardown of `id` in this shard: release its locks and
    /// registration through the kernel, wake the waiters that can now
    /// proceed and the dependents whose commit gate just opened (a
    /// committer parked there re-presents its commit; one still
    /// mid-execution simply finds the gate open when it arrives).
    pub(crate) fn finish_commit(&mut self, id: InstanceId) -> Record {
        let (record, drained) = self.kernel.finish_commit(id);
        let i = self.waiter_idx(id).expect("instance is live");
        self.waiters.remove(i);
        self.wake_parked();
        for d in drained {
            self.kernel.wake(d);
            self.notify(&[d]);
        }
        self.maybe_publish_ceiling();
        record
    }

    /// Commit `id`: abort the protocol's commit victims, install staged
    /// writes, release everything, re-evaluate waiters. The caller has
    /// already consumed any abort flag and cleared the commit gate
    /// ([`Shared::gate_commit`] returned false).
    fn commit(&mut self, id: InstanceId, ws: &Workspace) -> JobStats {
        self.abort_commit_victims(id);

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
        let mut batch = std::mem::take(&mut self.publish_scratch);
        self.install(id, ws, at, true, &mut batch);
        // Seal this commit's stamp — on *every* lock-path commit, written
        // or not, so stamp `S` means "the state after the first `S`
        // commits" exactly as the oracle counts them.
        if let Some(side) = &self.snap {
            side.store.publish(&batch);
        }
        batch.clear();
        self.publish_scratch = batch;
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
        let record = self.finish_commit(id);
        JobStats {
            commit_index,
            restarts: record.restarts,
            block_events: record.block_events,
            lower_blockers: record.lower_blockers,
            snapshot: None,
        }
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
        self.lock().begin(id, true, None);
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
                    // The predicate is tested before every wait: the
                    // safety net's own `wake_parked` may be what unparks
                    // this thread.
                    while !g.unparked(id) {
                        let (g2, timeout) = cv
                            .wait_timeout(g, self.park_timeout)
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        g = g2;
                        if timeout.timed_out() && !g.unparked(id) {
                            // Safety net: heal lost wake-ups and cycles
                            // that formed without a block event.
                            g.park_timeout_wakeups += 1;
                            g.wake_parked();
                            if g.kernel.pending_request(id).is_some() {
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
        g.step_done(id, completed_step, ws);
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
                return CommitOutcome::Committed(g.commit(id, ws));
            }
            // Gated: wait for the drain wake of the last dependency's
            // commit, or the abort flag of its cascade.
            let cv = g.waiter_mut(id).cv.clone();
            loop {
                {
                    let w = g.waiter_mut(id);
                    if w.aborted || w.woken {
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
                    g.wake_parked();
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

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb_types::{SetBuilder, Step, TransactionTemplate};
    use std::time::Instant;

    /// A parked thread whose wake-up was lost is rescued by the first
    /// firing of the park-timeout net — its own `wake_parked` — and not
    /// by a second full period after it.
    #[test]
    fn park_timeout_net_rescues_its_caller_in_one_period() {
        let x = ItemId(0);
        let set = SetBuilder::new()
            .with(TransactionTemplate::new("A", 10, vec![Step::write(x, 1)]))
            .with(TransactionTemplate::new("B", 10, vec![Step::write(x, 1)]))
            .build()
            .unwrap();
        let (a, b) = (InstanceId::first(TxnId(0)), InstanceId::first(TxnId(1)));
        let period = Duration::from_millis(400);
        let m = LockManager::new(
            &set,
            ProtocolKind::TwoPlPi,
            period,
            None,
            ShardCtx::single(),
        );
        m.begin(a);
        m.begin(b);
        let mut ws_a = Workspace::new(a);
        assert_eq!(
            m.acquire(a, 0, x, LockMode::Write, &mut ws_a),
            Outcome::Done
        );

        std::thread::scope(|s| {
            let parked = s.spawn(|| {
                let mut ws_b = Workspace::new(b);
                let start = Instant::now();
                assert_eq!(
                    m.acquire(b, 0, x, LockMode::Write, &mut ws_b),
                    Outcome::Done
                );
                start.elapsed()
            });
            // `b`'s request turns pending under the state lock it keeps
            // until it waits, so once seen here `b` is parked.
            while m.lock().kernel.pending_request(b).is_none() {
                std::thread::yield_now();
            }
            {
                // Lose the wake-up: `a` leaves behind the manager's back.
                let mut g = m.lock();
                g.kernel.finish_commit(a);
                g.waiters.retain(|w| w.id != a);
            }
            let waited = parked.join().expect("parked thread panicked");
            assert!(
                waited >= period,
                "nothing but the net can wake b: {waited:?}"
            );
            assert!(
                waited < period * 7 / 4,
                "the net's own wake-up took a second period: {waited:?}"
            );
        });
        assert_eq!(m.lock().park_timeout_wakeups, 1);
    }
}
