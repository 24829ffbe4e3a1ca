//! The protocol core of one shard, and what manager calls trade in.
//!
//! A [`Shared`] is one [`rtdb_core::StateKernel`] — lock table, ceilings,
//! inheritance, per-instance records, database, history, and every
//! transition over them — plus the protocol instance deciding over it and
//! the parking state of its live instances. The manager
//! ([`crate::sharded::ShardedManager`]) keeps one per shard behind a
//! mutex; every protocol decision, data operation and commit happens
//! under that mutex *in the kernel*, the same code the simulator drives,
//! so the runtime linearizes the exact state machine the simulator
//! executes — only the *order* of requests differs (it is decided by the
//! OS scheduler instead of the simulated priority dispatcher). What this
//! module adds is delivery: the woken, aborted and drained instances a
//! kernel transition returns become flags and notifies on per-waiter
//! [`Condvar`]s. Taking the mutex and waiting on a condvar are the
//! manager's — [`Shared`] never blocks.
//!
//! Deadlock cycles are searched for on the kernel's wait edges at block
//! time (as in the simulator) and always resolved by aborting the
//! kernel's victim: a real runtime cannot stop the world and report
//! `RunOutcome::Deadlock` the way a simulation can.

use crate::sharded::ShardStats;
use rtdb_core::{
    AbortBreakdown, AbortReason, Acquire, EngineView, GlobalCeiling, ProtocolFor, ProtocolKind,
    Record, ShardRouter, StateKernel,
};
use rtdb_sim::{instantiate, AnyProtocol};
use rtdb_storage::{Database, EventKind, History, VersionedValue, Workspace};
use rtdb_types::{InstanceId, ItemId, LockMode, Tick, TransactionSet, TxnId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::time::Duration;

/// Default park timeout (see [`crate::RtConfig::park_timeout`]): the
/// lost-wakeup / late-cycle safety net. Long enough to never matter on
/// the fast path, short enough to keep worst-case recovery invisible in
/// tests.
pub(crate) const DEFAULT_PARK_TIMEOUT: Duration = Duration::from_millis(25);

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

/// Everything a run's manager accumulated, summed over its shards;
/// returned by `ShardedManager::finish`.
#[derive(Default)]
pub(crate) struct ManagerReport {
    /// The shards' logs merged in tick order.
    pub history: History,
    /// The union of the shards' (disjoint) databases.
    pub db: Database,
    pub commits: u64,
    pub restarts: u64,
    pub deadlocks_resolved: u64,
    /// Park-timeout safety-net firings (see [`crate::RtResult::park_timeout_wakeups`]).
    pub park_timeout_wakeups: u64,
    /// Final value of the lock tables' monotone state-transition counters
    /// — 0 means the run never granted, released or converted a single
    /// lock (the snapshot path's zero-lock assertion hook).
    pub lock_transitions: u64,
    /// Why instances aborted, by cause.
    pub abort_reasons: AbortBreakdown,
    /// Per-shard telemetry, indexed by shard.
    pub per_shard: Vec<ShardStats>,
    /// Cross-shard jobs begun.
    pub cross_shard_txns: u64,
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
    /// Scratch for the batch a commit hands to the snapshot store.
    pub batch: Vec<(ItemId, VersionedValue)>,
}

impl WorkerCtx {
    pub(crate) fn new(worker: usize) -> Self {
        WorkerCtx {
            ws: Workspace::new(InstanceId::first(TxnId(0))),
            worker,
            cross: None,
            batch: Vec::new(),
        }
    }
}

/// Parking state of one live instance — the runtime-only half of its
/// bookkeeping; what protocols observe lives in the kernel's [`Record`].
/// There is no "woken" flag: a parked thread waits for a fact the kernel
/// holds (its request no longer pending, its commit dependencies gone),
/// and a wake-up is a notify after the kernel made that fact true.
struct Waiter {
    id: InstanceId,
    cv: Arc<Condvar>,
    /// Set by [`Shared::abort_victim`]; consumed by the owning worker.
    aborted: bool,
    /// Cross-shard abort signal (multi-shard runs only): raised beside
    /// `aborted` when this instance spans shards, because its owner never
    /// parks inside any one shard and polls this flag at the manager's
    /// entry points instead. Shared with every shard the instance
    /// registered in.
    signal: Option<Arc<AtomicBool>>,
}

/// The guarded heart of one shard: a state kernel, the protocol instance
/// deciding over it, and the parking state of its live instances — what
/// every worker reaches through the manager's one `lock`. The methods
/// here compose kernel transitions and deliver their effects: notifies
/// for the woken, flags for the aborted.
pub(crate) struct Shared<'a> {
    kernel: StateKernel<'a>,
    protocol: AnyProtocol,
    /// Sorted by `Waiter::id`, one per instance live in `kernel`.
    waiters: Vec<Waiter>,
    /// Logical event clock: history ticks order events for readers of the
    /// log; correctness oracles never compare tick values across runs.
    /// One counter per run, shared by every shard, so ticks are globally
    /// unique and the per-shard histories merge by tick.
    clock: Arc<AtomicU64>,
    /// This shard's index.
    shard: usize,
    /// Lock-table version at the last ceiling publication, so a shard
    /// publishes only when a transition actually happened.
    last_pub_version: u64,
    /// Times this shard's state mutex was acquired — the shard-isolation
    /// telemetry behind the "single-shard transactions never touch
    /// another shard's state lock" assertion. Counted by the manager's
    /// `lock`.
    pub(crate) state_lock_acquires: u64,
    /// Commits whose home is this shard.
    pub(crate) commits: u64,
    restarts: u64,
    deadlocks_resolved: u64,
    /// Park-timeout safety-net firings.
    park_timeout_wakeups: u64,
}

/// What [`Shared::try_acquire`] told the caller.
pub(crate) enum TryAcquire {
    /// Granted (or already covered); the data operation happened.
    Done,
    /// State changed (victims aborted); retry the request immediately.
    Retry,
    /// Blocked: the request stays pending until a transition wakes it.
    Park,
}

/// One tick of the shared logical clock — the kernel's tick source here:
/// every logged event draws its own.
#[inline]
fn next_tick(clock: &AtomicU64) -> Tick {
    Tick(clock.fetch_add(1, Ordering::Relaxed) + 1)
}

impl<'a> Shared<'a> {
    /// Shard `shard`'s core. `scope` is the item routing of a multi-shard
    /// run: this shard's protocol instance must only see the reads it
    /// governs — a cross-shard reader's off-shard items would otherwise
    /// produce spurious OCC invalidations.
    pub(crate) fn new(
        set: &'a TransactionSet,
        kind: ProtocolKind,
        clock: Arc<AtomicU64>,
        shard: usize,
        scope: Option<ShardRouter>,
    ) -> Self {
        let protocol = instantiate(kind);
        let mut kernel = StateKernel::new(
            set,
            ProtocolFor::<StateKernel<'a>>::ceiling_flavor(&protocol),
        );
        if let Some(router) = scope {
            kernel = kernel.scoped_to(router, shard);
        }
        Shared {
            kernel,
            protocol,
            waiters: Vec::new(),
            clock,
            shard,
            last_pub_version: 0,
            state_lock_acquires: 0,
            commits: 0,
            restarts: 0,
            deadlocks_resolved: 0,
            park_timeout_wakeups: 0,
        }
    }

    /// Tear down after every worker joined: add this shard's counters,
    /// database and telemetry row to `report` and hand back its log.
    pub(crate) fn finish(
        self,
        ops: u64,
        ceiling_publishes: u64,
        report: &mut ManagerReport,
    ) -> History {
        debug_assert!(self.waiters.is_empty(), "live instances at finish");
        report.per_shard.push(ShardStats {
            shard: self.shard,
            ops,
            commits: self.commits,
            state_lock_acquires: self.state_lock_acquires,
            ceiling_publishes,
        });
        report.commits += self.commits;
        report.restarts += self.restarts;
        report.deadlocks_resolved += self.deadlocks_resolved;
        report.park_timeout_wakeups += self.park_timeout_wakeups;
        report.lock_transitions += self.kernel.locks().version();
        let (history, db, abort_reasons) = self.kernel.into_parts();
        report.db.absorb(db);
        report.abort_reasons.merge(&abort_reasons);
        history
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

    /// The condvar `who`'s thread parks on.
    pub(crate) fn condvar(&mut self, who: InstanceId) -> Arc<Condvar> {
        self.waiter_mut(who).cv.clone()
    }

    /// True while an abort of `who` awaits [`Shared::take_abort`].
    pub(crate) fn is_aborted(&self, who: InstanceId) -> bool {
        self.waiters[self.waiter_idx(who).expect("instance is live")].aborted
    }

    /// What a thread parked on a lock request waits for: the request is no
    /// longer pending (a re-evaluation would grant it, or an abort
    /// cleared it).
    pub(crate) fn request_cleared(&mut self, who: InstanceId) -> bool {
        self.kernel.pending_request(who).is_none()
    }

    /// Notify the threads of the instances the kernel woke (the grant
    /// itself happens when the woken thread re-issues its request).
    fn notify(&mut self, woken: &[InstanceId]) {
        for &who in woken {
            self.waiter_mut(who).cv.notify_one();
        }
    }

    /// Publish this shard's local system ceiling to the global layer if a
    /// lock-table transition happened since the last publication. The
    /// manager's guard calls it before the shard's state lock is
    /// released.
    pub(crate) fn publish_ceiling(&mut self, global: &GlobalCeiling) {
        let v = self.kernel.locks().version();
        if v != self.last_pub_version {
            self.last_pub_version = v;
            global.publish(self.shard, self.protocol.system_ceiling(&self.kernel));
        }
    }

    pub(crate) fn take_abort(&mut self, who: InstanceId) -> bool {
        std::mem::take(&mut self.waiter_mut(who).aborted)
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
        let Shared {
            kernel,
            protocol,
            clock,
            ..
        } = self;
        let acquired = kernel.acquire(protocol, who, step_index, item, mode, ws, || {
            next_tick(clock)
        });
        match acquired {
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
                if !self.request_cleared(who) {
                    self.resolve_deadlocks();
                }
                // The re-evaluation may have woken the requester itself,
                // the sweep may have picked it as the victim.
                if self.request_cleared(who) {
                    TryAcquire::Retry
                } else {
                    TryAcquire::Park
                }
            }
        }
    }

    /// Undo the registration of a denied request — the no-wait cross-shard
    /// path never parks in someone else's shard.
    pub(crate) fn unpark(&mut self, who: InstanceId) {
        self.kernel.wake(who);
    }

    /// Have the kernel re-present every parked request and wake those that
    /// would now be granted.
    fn wake_parked(&mut self) {
        let woken = self.kernel.reevaluate(&mut self.protocol);
        self.notify(&woken);
    }

    /// Resolve wait-for cycles by aborting the kernel's victim — the
    /// lowest-base-priority instance on each cycle — until none remains.
    fn resolve_deadlocks(&mut self) {
        while let Some((_, victim)) = self.kernel.find_deadlock() {
            self.deadlocks_resolved += 1;
            self.abort_victim(victim, AbortReason::DeadlockVictim);
            self.wake_parked();
        }
    }

    /// The park timeout's safety net, run by the thread whose wait
    /// expired: heal lost wake-ups and cycles that formed without a block
    /// event.
    pub(crate) fn net_fired(&mut self) {
        self.park_timeout_wakeups += 1;
        self.wake_parked();
        self.resolve_deadlocks();
    }

    /// Abort a live instance (and, cascading, its dependents) through the
    /// kernel and flag each worker to restart. A victim's workspace is
    /// reset by the owning thread when it observes the flag; until then
    /// the kernel's cleared record is what protocols see — the same state
    /// the simulator reaches by resetting the slot in place.
    fn abort_victim(&mut self, victim: InstanceId, reason: AbortReason) {
        let Some(i) = self.waiter_idx(victim) else {
            return; // committed between the decision and now
        };
        // A cross-shard victim is aborted *locally*: clean this shard's
        // slice of its state and raise the shared signal; the victim's
        // own worker (which never parks while it holds anything) observes
        // the signal at its next manager entry point, cleans its
        // remaining shards the same way, and logs the single Abort +
        // restart-Begin pair in its home shard. `aborted` doubles as the
        // "this shard already ran its local abort" marker the victim's
        // sweep consumes.
        let w = &mut self.waiters[i];
        if let Some(sig) = &w.signal {
            if w.aborted {
                return; // local abort already ran; victim not yet swept
            }
            self.kernel
                .abort_local(&mut self.protocol, victim, Some(reason));
            w.aborted = true;
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
                // A running worker observes the flag at its next manager
                // call; a parked one when the notify lands.
                w.aborted = true;
                w.cv.notify_one();
            }
        }
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
        self.notify(&done.woken);
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
        // Taken: the aborting shard already released everything here.
        if !self.take_abort(id) {
            self.kernel.abort_local(&mut self.protocol, id, None);
        }
        if home {
            self.kernel.log(self.tick(), id, EventKind::Begin);
        }
        self.wake_parked();
    }

    /// Commit gate: true when `id` still has commit dependencies and the
    /// caller must park until they are gone — the drain in the last
    /// dependency's commit wakes it, a cascading abort flags it. The gate
    /// waits are edges in the kernel, so a gate-plus-lock cycle resolves
    /// here like any other deadlock.
    pub(crate) fn gate_commit(&mut self, id: InstanceId) -> bool {
        let gated = self.kernel.gate(id);
        if gated {
            self.resolve_deadlocks();
        }
        gated
    }

    /// What a thread parked at the commit gate waits for: no commit
    /// dependency left. Tested on the kernel's tracker, not on a flag a
    /// notifier sets, so a wake-up that got lost is still seen by the
    /// park timeout's next look.
    pub(crate) fn gate_open(&mut self, id: InstanceId) -> bool {
        !self.kernel.gate(id)
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
        batch: Option<&mut Vec<(ItemId, VersionedValue)>>,
    ) {
        self.kernel.install(id, ws, at, home, batch);
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
        for &d in &drained {
            self.kernel.wake(d);
        }
        self.notify(&drained);
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::ShardedManager;
    use crate::RtConfig;
    use rtdb_types::{SetBuilder, Step, TransactionTemplate};
    use std::sync::mpsc;
    use std::time::Instant;

    const X: ItemId = ItemId(0);
    const PERIOD: Duration = Duration::from_millis(400);

    /// One lost wake-up: `holder` takes its write lock on `X` (and, when
    /// `retire`, finishes that step, retiring the write), a second thread
    /// runs `wait` as `waiter` and parks, as `parked` sees under the
    /// state lock, and `holder` then leaves behind the manager's back.
    /// Nothing but the park-timeout net can end the wait, and its first
    /// firing must: the waiter returns after one period, not two.
    fn net_rescues_in_one_period(
        kind: ProtocolKind,
        set: TransactionSet,
        [holder, waiter]: [InstanceId; 2],
        retire: bool,
        wait: fn(&ShardedManager<'_>, InstanceId, &mut WorkerCtx),
        parked: fn(&StateKernel<'_>, [InstanceId; 2]) -> bool,
    ) {
        // Leaked so the waiter can be a detached thread: were the wake-up
        // never made good, the test fails on the `recv_timeout` below
        // instead of hanging in a scope's join.
        let set: &'static TransactionSet = Box::leak(Box::new(set));
        let config = RtConfig::new(kind).with_park_timeout(PERIOD);
        let m = Arc::new(ShardedManager::new(set, &config, None));
        let mut ctx = WorkerCtx::new(0);
        m.begin(holder, &mut ctx);
        assert_eq!(
            m.acquire(holder, 0, X, LockMode::Write, &mut ctx),
            Outcome::Done
        );
        if retire {
            assert_eq!(m.step_done(holder, 0, &mut ctx), Outcome::Done);
        }

        let (tx, rx) = mpsc::channel();
        let waiter_m = m.clone();
        std::thread::spawn(move || {
            let mut ctx = WorkerCtx::new(1);
            waiter_m.begin(waiter, &mut ctx);
            let start = Instant::now();
            wait(&waiter_m, waiter, &mut ctx);
            let _ = tx.send(start.elapsed());
        });
        // The waiter keeps the state lock from the transition `parked`
        // looks for until it waits, so once seen here it is parked.
        while !parked(&m.lock(0).kernel, [holder, waiter]) {
            std::thread::yield_now();
        }
        {
            let mut g = m.lock(0);
            g.kernel.finish_commit(holder);
            g.waiters.retain(|w| w.id != holder);
        }
        let waited = rx
            .recv_timeout(PERIOD * 4)
            .expect("the net never rescued the parked thread");
        assert!(
            waited >= PERIOD,
            "nothing but the net can wake the waiter: {waited:?}"
        );
        assert!(
            waited < PERIOD * 7 / 4,
            "the net's own wake-up took a second period: {waited:?}"
        );
        assert_eq!(m.lock(0).park_timeout_wakeups, 1);
    }

    /// A parked thread whose wake-up was lost is rescued by the first
    /// firing of the park-timeout net — which re-tests what the thread
    /// waits for — and not by a second full period after it; at a lock
    /// request and at the commit gate alike.
    #[test]
    fn park_timeout_net_rescues_its_caller_in_one_period() {
        // Lock wait: B requests the write lock A holds.
        let set = SetBuilder::new()
            .with(TransactionTemplate::new("A", 10, vec![Step::write(X, 1)]))
            .with(TransactionTemplate::new("B", 10, vec![Step::write(X, 1)]))
            .build()
            .unwrap();
        net_rescues_in_one_period(
            ProtocolKind::TwoPlPi,
            set,
            [InstanceId::first(TxnId(0)), InstanceId::first(TxnId(1))],
            false,
            |m, b, ctx| assert_eq!(m.acquire(b, 0, X, LockMode::Write, ctx), Outcome::Done),
            |kernel, [_, b]| kernel.pending_request(b).is_some(),
        );

        // Gate wait: B dirty-reads the write A retired and may not commit
        // before A. B has the higher priority, so its gate wait shows as
        // A's inherited one.
        let set = SetBuilder::new()
            .with(TransactionTemplate::new("B", 10, vec![Step::read(X, 1)]))
            .with(TransactionTemplate::new(
                "A",
                10,
                vec![Step::write(X, 1), Step::compute(1)],
            ))
            .build()
            .unwrap();
        net_rescues_in_one_period(
            ProtocolKind::Bamboo,
            set,
            [InstanceId::first(TxnId(1)), InstanceId::first(TxnId(0))],
            true,
            |m, b, ctx| {
                assert_eq!(m.acquire(b, 0, X, LockMode::Read, ctx), Outcome::Done);
                assert!(matches!(m.commit(b, ctx), CommitOutcome::Committed(_)));
            },
            |kernel, [a, _]| kernel.running_priority(a) > kernel.base_priority(a),
        );
    }
}
