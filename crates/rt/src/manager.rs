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
//! OS scheduler instead of the simulated priority dispatcher). The
//! resolution policy is the kernel's too ([`StateKernel::request`],
//! [`StateKernel::commit`]); this module delivers its effects as abort
//! flags and notifies on per-waiter [`Condvar`]s. A runtime kernel
//! resolves every deadlock (a real runtime cannot stop the world and
//! report `RunOutcome::Deadlock` the way a simulation can), an aborted
//! job's worker waits out the hold on its cause before it restarts
//! (`Shared::hold_clear`), and the one case left to the runtime is a
//! victim that spans shards (`Shared::abort_cross`). Taking the mutex and
//! waiting on a condvar are the manager's — [`Shared`] never blocks.

use crate::sharded::ShardStats;
use rtdb_core::{
    AbortBreakdown, AbortReason, Effect, Effects, EngineView, ProtocolFor, ProtocolKind, Record,
    ShardRouter, StateKernel,
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
    /// invalidation); wait out its hold, reset the workspace and restart
    /// from step 0.
    Restart,
}

/// Where a step boundary sits in a job's attempt: the manager's one
/// entry point before every step ([`crate::sharded::ShardedManager::boundary`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Boundary {
    /// Before step 0 of the job's first attempt: register the instance.
    Begin,
    /// Before step 0 of a restarted attempt: wait out the restart hold.
    Restart,
    /// After step `n - 1`, before step `n`.
    Step(usize),
}

impl Boundary {
    /// The step this boundary leads to.
    pub(crate) fn step(self) -> usize {
        match self {
            Boundary::Begin | Boundary::Restart => 0,
            Boundary::Step(n) => n,
        }
    }
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
    cv: Arc<Condvar>,
    /// Set when the instance is aborted here ([`Shared::deliver`]);
    /// consumed by the owning worker.
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
    /// Indexed by the kernel's record slot ([`StateKernel::slot_of`]): a
    /// live instance's waiter is the one in its slot, a departed one's
    /// stays until the kernel begins the next instance there.
    waiters: Vec<Waiter>,
    /// Logical event clock: history ticks order events for readers of the
    /// log; correctness oracles never compare tick values across runs.
    /// One counter per run, shared by every shard, so ticks are globally
    /// unique and the per-shard histories merge by tick.
    clock: Arc<AtomicU64>,
    /// This shard's index.
    shard: usize,
    /// Times this shard's state mutex was acquired — the shard-isolation
    /// telemetry behind the "single-shard transactions never touch
    /// another shard's state lock" assertion. Counted by the manager's
    /// `lock`.
    pub(crate) state_lock_acquires: u64,
    /// Data operations routed to this shard, counted under its state
    /// lock.
    pub(crate) ops: u64,
    /// Commits whose home is this shard.
    pub(crate) commits: u64,
    deadlocks_resolved: u64,
    /// Park-timeout safety-net firings.
    park_timeout_wakeups: u64,
    /// What the kernel's last call did, kept for its capacity.
    fx: Effects,
    /// What the local abort of a cross-shard victim did.
    local_fx: Effects,
}

/// One tick of the shared logical clock — the kernel's tick source here:
/// every logged event draws its own.
#[inline]
pub(crate) fn next_tick(clock: &AtomicU64) -> Tick {
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
            state_lock_acquires: 0,
            ops: 0,
            commits: 0,
            deadlocks_resolved: 0,
            park_timeout_wakeups: 0,
            fx: Effects::default(),
            local_fx: Effects::default(),
        }
    }

    /// Tear down after every worker joined: add this shard's counters,
    /// database and telemetry row to `report` and hand back its log.
    pub(crate) fn finish(self, report: &mut ManagerReport) -> History {
        debug_assert!(
            self.kernel.active_instances().is_empty(),
            "live instances at finish"
        );
        report.per_shard.push(ShardStats {
            shard: self.shard,
            ops: self.ops,
            commits: self.commits,
            state_lock_acquires: self.state_lock_acquires,
        });
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
    fn waiter(&self, who: InstanceId) -> &Waiter {
        &self.waiters[self.kernel.slot_of(who).expect("instance is live")]
    }

    #[inline]
    fn waiter_mut(&mut self, who: InstanceId) -> &mut Waiter {
        let s = self.kernel.slot_of(who).expect("instance is live");
        &mut self.waiters[s]
    }

    /// The condvar `who`'s thread parks on.
    pub(crate) fn condvar(&mut self, who: InstanceId) -> Arc<Condvar> {
        self.waiter_mut(who).cv.clone()
    }

    /// True while an abort of `who` awaits [`Shared::take_abort`].
    pub(crate) fn is_aborted(&self, who: InstanceId) -> bool {
        self.waiter(who).aborted
    }

    /// What a thread parked on a lock request waits for: the request is no
    /// longer pending (a re-evaluation would grant it, or an abort
    /// cleared it).
    pub(crate) fn request_cleared(&mut self, who: InstanceId) -> bool {
        self.kernel.pending_request(who).is_none()
    }

    /// What an aborted job's thread waits for before it restarts: the
    /// kernel no longer holds it — every instance it was held on has
    /// committed or aborted.
    pub(crate) fn hold_clear(&mut self, who: InstanceId) -> bool {
        !self.kernel.held(who)
    }

    /// Hold `who` on the instances of `on` that still hold a lock in this
    /// shard — a cross-shard job's no-wait self-abort, after its sweep.
    /// The sweep let time pass since the denial: a blocker aborted in the
    /// meantime holds nothing, may be held itself in another shard, and
    /// two jobs held on each other in two shards wait forever, a cycle
    /// neither shard's deadlock search can see.
    pub(crate) fn hold_on_holders(&mut self, who: InstanceId, on: &[InstanceId]) {
        let locks = self.kernel.locks();
        let holders: Vec<InstanceId> = on
            .iter()
            .copied()
            .filter(|&b| locks.held_by(b).next().is_some())
            .collect();
        self.kernel.hold(who, &holders);
    }

    /// Deliver what a kernel call did: flag and notify the aborted,
    /// notify the woken (the grant itself happens when the woken thread
    /// re-issues its request) and those whose gate or hold ended, count
    /// the cycles resolved, and abort a cross-shard victim here.
    fn deliver(&mut self, fx: &Effects) {
        for &effect in fx.log() {
            match effect {
                Effect::Aborted(who, ..) => {
                    let w = self.waiter_mut(who);
                    debug_assert!(w.signal.is_none(), "cascades never cross shards");
                    // A running worker observes the flag at its next
                    // manager call; a parked one when the notify lands.
                    w.aborted = true;
                    w.cv.notify_one();
                }
                Effect::Foreign(who, reason, cause) => {
                    self.abort_cross(who, reason, fx.ids(cause));
                }
                Effect::Woken(who) | Effect::GateOpened(who) | Effect::HoldReleased(who) => {
                    self.waiter_mut(who).cv.notify_one();
                }
                Effect::Cycle(..) => self.deadlocks_resolved += 1,
                Effect::Granted(..)
                | Effect::Parked(..)
                | Effect::Gated(..)
                | Effect::Released(..)
                | Effect::Committed(_) => {}
                Effect::Arrived(_) | Effect::DeadlineMissed(_) | Effect::Stalled(_) => {
                    unreachable!("a kernel reports no engine events")
                }
            }
        }
    }

    /// A cross-shard victim is aborted *locally*: clean this shard's
    /// slice of its state and raise the shared signal; the victim's own
    /// worker (which never parks while it holds anything) observes the
    /// signal at its next manager entry point, cleans its remaining
    /// shards the same way, and logs the single Abort + restart-Begin pair
    /// in its home shard. `aborted` doubles as the "this shard already
    /// ran its local abort" marker the victim's sweep consumes.
    fn abort_cross(&mut self, victim: InstanceId, reason: AbortReason, cause: &[InstanceId]) {
        let w = self.waiter_mut(victim);
        if w.aborted {
            return; // local abort already ran; victim not yet swept
        }
        w.aborted = true;
        w.signal
            .as_ref()
            .expect("a foreign victim spans shards")
            .store(true, Ordering::Release);
        let mut fx = std::mem::take(&mut self.local_fx);
        let (kernel, protocol) = (&mut self.kernel, &mut self.protocol);
        kernel.abort_local(protocol, victim, Some(reason), cause, &mut fx);
        self.deliver(&fx);
        self.local_fx = fx;
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
        let slot = self.kernel.begin(id, at);
        match self.waiters.get_mut(slot) {
            // The slot's departed instance leaves its condvar: nobody
            // waits on it any more, and a condvar keeps no notifications,
            // so a begin allocates nothing once the slots are warm.
            Some(w) => {
                w.aborted = false;
                w.signal = signal;
            }
            None => self.waiters.push(Waiter {
                cv: Arc::new(Condvar::new()),
                aborted: false,
                signal,
            }),
        }
    }

    /// Present `who`'s request through the kernel's lock-request entry
    /// point and deliver what it did; true if granted. Otherwise the
    /// request is pending — or it was woken again by the re-evaluation, or
    /// its requester aborted, and the caller looks again.
    pub(crate) fn try_acquire(
        &mut self,
        who: InstanceId,
        step_index: usize,
        item: ItemId,
        mode: LockMode,
        ws: &mut Workspace,
    ) -> bool {
        let Shared {
            kernel,
            protocol,
            clock,
            fx,
            ..
        } = self;
        let tick = || next_tick(clock);
        // A grant has nothing to deliver: the hot path stays one inlined
        // kernel call.
        if kernel.request(protocol, who, step_index, item, mode, ws, tick, fx) {
            return true;
        }
        self.deliver_fx();
        false
    }

    /// The instances the last denial named, for a cross-shard requester's
    /// hold.
    pub(crate) fn denied_by(&self) -> Vec<InstanceId> {
        match self.fx.log().first() {
            Some(&Effect::Parked(_, blockers)) => self.fx.ids(blockers).to_vec(),
            _ => Vec::new(),
        }
    }

    /// Undo the registration of a denied request — the no-wait cross-shard
    /// path never parks in someone else's shard.
    pub(crate) fn unpark(&mut self, who: InstanceId) {
        self.kernel.wake(who);
    }

    /// The park timeout's safety net, run by the thread whose wait
    /// expired: heal lost wake-ups and cycles that formed without a block
    /// event.
    pub(crate) fn net_fired(&mut self) {
        self.park_timeout_wakeups += 1;
        self.call(|kernel, protocol, clock, fx| {
            fx.clear();
            kernel.reevaluate(protocol, fx);
            kernel.resolve_cycles(protocol, || next_tick(clock), fx);
        });
    }

    /// Run a kernel call with the protocol, the event clock and the
    /// effects buffer, then deliver what it did.
    #[inline]
    fn call<R>(
        &mut self,
        call: impl FnOnce(&mut StateKernel<'a>, &mut AnyProtocol, &AtomicU64, &mut Effects) -> R,
    ) -> R {
        let done = call(
            &mut self.kernel,
            &mut self.protocol,
            &self.clock,
            &mut self.fx,
        );
        self.deliver_fx();
        done
    }

    /// [`Shared::deliver`] the effects buffer, if the call left anything
    /// in it.
    #[inline]
    fn deliver_fx(&mut self) {
        if !self.fx.log().is_empty() {
            let fx = std::mem::take(&mut self.fx);
            self.deliver(&fx);
            self.fx = fx;
        }
    }

    /// Report step `completed_step` finished; applies the protocol's early
    /// releases and retires and wakes waiters.
    pub(crate) fn step_done(&mut self, id: InstanceId, completed_step: usize, ws: &Workspace) {
        self.call(|kernel, protocol, clock, fx| {
            kernel.step_done(protocol, id, completed_step, ws, || next_tick(clock), fx)
        });
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
            let mut fx = std::mem::take(&mut self.local_fx);
            let (kernel, protocol) = (&mut self.kernel, &mut self.protocol);
            kernel.abort_local(protocol, id, None, &[], &mut fx);
            self.deliver(&fx);
            self.local_fx = fx;
        }
        if home {
            self.kernel.log(self.tick(), id, EventKind::Begin);
        }
    }

    /// What a thread parked at the commit gate waits for: no commit
    /// dependency left — or none of the gate waits it registered, because
    /// the gate opened and a reader let past its write lock closed it
    /// again before the thread ran; the caller's next commit attempt
    /// registers that gate anew. Tested on the kernel's record, not on a
    /// flag a notifier sets, so a wake-up that got lost is still seen by
    /// the park timeout's next look.
    pub(crate) fn gate_open(&mut self, id: InstanceId) -> bool {
        let rec = self.kernel.record(id).expect("instance is live");
        rec.gate.is_empty() || rec.waits_for.is_empty()
    }

    /// `id`'s commit gate, if it is closed.
    pub(crate) fn gate_of(&self, id: InstanceId) -> Option<&[InstanceId]> {
        let gate = &self.kernel.record(id).expect("instance is live").gate;
        (!gate.is_empty()).then_some(gate.as_slice())
    }

    /// Commit `id` in this shard through the kernel's commit entry point
    /// and deliver what it did. With its commit gate closed, `id` parks:
    /// `None`, and the caller waits until the gate opens (the drain in the
    /// last dependency's commit wakes it, a cascading abort flags it; the
    /// gate waits are edges in the kernel, so a gate-plus-lock cycle
    /// resolves here like any other deadlock). Otherwise the commit point
    /// passes at the tick `at` draws — the Commit event in the `home`
    /// shard, the installs of the staged writes this shard owns, collected
    /// into `batch` when the snapshot store will publish them — and
    /// everything is released: the waiters that can now proceed, the
    /// dependents whose commit gate just opened and the aborted instances
    /// whose hold this commit ended are notified.
    pub(crate) fn commit(
        &mut self,
        id: InstanceId,
        ws: &Workspace,
        home: bool,
        batch: Option<&mut Vec<(ItemId, VersionedValue)>>,
        at: impl FnOnce() -> Tick,
    ) -> Option<Record> {
        self.call(|kernel, protocol, clock, fx| {
            let tick = || next_tick(clock);
            kernel.commit(protocol, id, ws, home, batch, tick, at, fx)
        })
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
    /// state lock, and `holder` then commits in the kernel behind the
    /// manager's back: nobody is notified.
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
        let write = Some((X, LockMode::Write));
        assert_eq!(
            m.boundary(holder, Boundary::Begin, write, &mut ctx),
            Outcome::Done
        );
        if retire {
            let next = Boundary::Step(1);
            assert_eq!(m.boundary(holder, next, None, &mut ctx), Outcome::Done);
        }

        let (tx, rx) = mpsc::channel();
        let waiter_m = m.clone();
        std::thread::spawn(move || {
            let mut ctx = WorkerCtx::new(1);
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
            let g = &mut *m.lock(0);
            let (kernel, protocol) = (&mut g.kernel, &mut g.protocol);
            let (ws, mut fx, tick) = (Workspace::new(holder), Effects::default(), || Tick(0));
            kernel.commit(protocol, holder, &ws, false, None, tick, tick, &mut fx);
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
            |m, b, ctx| {
                let write = Some((X, LockMode::Write));
                assert_eq!(m.boundary(b, Boundary::Begin, write, ctx), Outcome::Done);
            },
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
                let read = Some((X, LockMode::Read));
                assert_eq!(m.boundary(b, Boundary::Begin, read, ctx), Outcome::Done);
                assert!(matches!(m.commit(b, ctx), CommitOutcome::Committed(_)));
            },
            |kernel, [a, _]| kernel.running_priority(a) > kernel.base_priority(a),
        );
    }

    /// Cross `id`'s boundary `at` and every one after it, then commit,
    /// none of it restarting.
    fn run_to_commit(
        set: &TransactionSet,
        m: &ShardedManager<'_>,
        id: InstanceId,
        mut at: Boundary,
        ctx: &mut WorkerCtx,
    ) {
        let steps = &set.template(id.txn).steps;
        for (i, step) in steps.iter().enumerate().skip(at.step()) {
            let access = step.op.access();
            assert_eq!(
                m.boundary(id, at, access, ctx),
                Outcome::Done,
                "{id} step {i}"
            );
            at = Boundary::Step(i + 1);
        }
        assert!(matches!(m.commit(id, ctx), CommitOutcome::Committed(_)));
    }

    /// One abort and its restart hold: `before` (here) and `victim_aborts`
    /// (on the victim's own thread) lead up to `aborter` aborting `victim`
    /// — `abort` is the aborter's step that does it, when the victim must
    /// first be parked on a lock for it; the victim's call then returns
    /// `Restart` and its thread waits at its restarted attempt's first
    /// boundary. Only once it is seen parked there does `aborter` commit,
    /// and the victim's wait must end then — by the release notify, not
    /// the park-timeout net — and not before.
    #[allow(clippy::type_complexity)]
    fn restart_waits_for_its_aborter(
        kind: ProtocolKind,
        set: TransactionSet,
        [aborter, victim]: [InstanceId; 2],
        before: fn(&ShardedManager<'_>, [InstanceId; 2], [&mut WorkerCtx; 2]),
        victim_aborts: fn(&ShardedManager<'_>, InstanceId, &mut WorkerCtx),
        abort: fn(&ShardedManager<'_>, [InstanceId; 2], &mut WorkerCtx),
    ) -> u64 {
        // Leaked so the victim can be a detached thread: a lost release
        // fails the `recv_timeout` below instead of hanging a join.
        let set: &'static TransactionSet = Box::leak(Box::new(set));
        let config = RtConfig::new(kind).with_park_timeout(PERIOD);
        let m = Arc::new(ShardedManager::new(set, &config, None));
        let (mut ctx_a, mut ctx_v) = (WorkerCtx::new(0), WorkerCtx::new(1));
        before(&m, [aborter, victim], [&mut ctx_a, &mut ctx_v]);

        let (tx, rx) = mpsc::channel();
        let victim_m = m.clone();
        std::thread::spawn(move || {
            victim_aborts(&victim_m, victim, &mut ctx_v);
            ctx_v.ws.reset(victim);
            let first = set.template(victim.txn).steps[0].op.access();
            let restart = victim_m.boundary(victim, Boundary::Restart, first, &mut ctx_v);
            assert_eq!(restart, Outcome::Done);
            let _ = tx.send(victim_m.lock(0).kernel.is_live(aborter));
            run_to_commit(set, &victim_m, victim, Boundary::Step(1), &mut ctx_v);
            let _ = tx.send(false);
        });
        abort(&m, [aborter, victim], &mut ctx_a);
        // Held, its abort consumed and its condvar borrowed by `park`,
        // which keeps the state lock until it waits: parked on the hold.
        // (The victim may register only on its own thread.)
        let in_hold_park = |g: &Shared<'_>| {
            g.kernel.held(victim) && {
                let w = g.waiter(victim);
                !w.aborted && Arc::strong_count(&w.cv) > 1
            }
        };
        while !in_hold_park(&m.lock(0)) {
            std::thread::yield_now();
        }
        assert!(matches!(
            m.commit(aborter, &mut ctx_a),
            CommitOutcome::Committed(_)
        ));
        let aborter_live = rx
            .recv_timeout(PERIOD * 4)
            .expect("the held victim was never released");
        assert!(!aborter_live, "the hold ended before its aborter left");
        rx.recv_timeout(PERIOD * 4)
            .expect("the released victim never committed");
        let g = m.lock(0);
        assert_eq!(g.park_timeout_wakeups, 0, "the release notify was lost");
        assert_eq!(g.commits, 2);
        g.deadlocks_resolved
    }

    /// A restarting victim waits for whoever aborted it — a 2PL-HP
    /// wounder, a Brook-2PL senior it died on, the rest of a 2PL-PI
    /// deadlock cycle — and is released by that instance's commit.
    #[test]
    fn a_restart_waits_for_its_aborter_to_commit() {
        let one = |name: &str, period, steps| TransactionTemplate::new(name, period, steps);
        let first = |t| InstanceId::first(TxnId(t));

        // Wound: H asks for the X that L has written.
        let set = SetBuilder::new()
            .with(one("H", 10, vec![Step::write(X, 1)]))
            .with(one("L", 20, vec![Step::write(X, 1)]))
            .build_rate_monotonic()
            .unwrap();
        restart_waits_for_its_aborter(
            ProtocolKind::TwoPlHp,
            set,
            [first(0), first(1)],
            |m, [h, l], [ctx_h, ctx_l]| {
                let write = Some((X, LockMode::Write));
                assert_eq!(m.boundary(l, Boundary::Begin, write, ctx_l), Outcome::Done);
                assert_eq!(m.boundary(h, Boundary::Begin, write, ctx_h), Outcome::Done);
            },
            |m, l, ctx| assert!(matches!(m.commit(l, ctx), CommitOutcome::Restart)),
            |_, _, _| {},
        );

        // Die: the junior J asks for the X its senior S has written.
        let set = SetBuilder::new()
            .with(one("S", 10, vec![Step::write(X, 1)]))
            .with(one("J", 20, vec![Step::write(X, 1)]))
            .build_rate_monotonic()
            .unwrap();
        restart_waits_for_its_aborter(
            ProtocolKind::Brook2Pl,
            set,
            [first(0), first(1)],
            |m, [s, _], [ctx_s, _]| {
                let write = Some((X, LockMode::Write));
                assert_eq!(m.boundary(s, Boundary::Begin, write, ctx_s), Outcome::Done);
            },
            |m, j, ctx| {
                let write = Some((X, LockMode::Write));
                assert_eq!(m.boundary(j, Boundary::Begin, write, ctx), Outcome::Restart);
            },
            |_, _, _| {},
        );

        // Deadlock: both read X, then both ask to write it; B, the lower,
        // is the victim and waits for A.
        let upgrade = vec![Step::read(X, 1), Step::write(X, 1)];
        let set = SetBuilder::new()
            .with(one("A", 10, upgrade.clone()))
            .with(one("B", 20, upgrade))
            .build_rate_monotonic()
            .unwrap();
        let resolved = restart_waits_for_its_aborter(
            ProtocolKind::TwoPlPi,
            set,
            [first(0), first(1)],
            |m, [a, b], [ctx_a, ctx_b]| {
                let read = Some((X, LockMode::Read));
                assert_eq!(m.boundary(a, Boundary::Begin, read, ctx_a), Outcome::Done);
                assert_eq!(m.boundary(b, Boundary::Begin, read, ctx_b), Outcome::Done);
            },
            |m, b, ctx| {
                let write = Some((X, LockMode::Write));
                assert_eq!(
                    m.boundary(b, Boundary::Step(1), write, ctx),
                    Outcome::Restart
                );
            },
            |m, [a, b], ctx_a| {
                while m.lock(0).kernel.pending_request(b).is_none() {
                    std::thread::yield_now();
                }
                let write = Some((X, LockMode::Write));
                assert_eq!(
                    m.boundary(a, Boundary::Step(1), write, ctx_a),
                    Outcome::Done
                );
            },
        );
        assert_eq!(resolved, 1);
    }

    /// A writer whose commit gate opened and was refilled before its
    /// thread ran waits on the newcomer. W parks at its gate behind R1,
    /// which read past W's write lock. Under one guard, R1 commits (W's
    /// gate opens and W is notified) and R2 is let past W's write lock
    /// (the gate refills, with no wait registered on R2). When W's thread
    /// runs it must see that its registered waits are gone
    /// (`Shared::gate_open`) and register the gate anew; a thread that
    /// only tested the gate would park on without a wait edge to R2, and
    /// a cycle through R2 would hide from the deadlock search.
    #[test]
    fn a_writer_whose_gate_is_refilled_waits_on_the_newcomer() {
        const Y: ItemId = ItemId(1);
        let set = SetBuilder::new()
            .with(TransactionTemplate::new(
                "R1",
                10,
                vec![Step::read(X, 1), Step::read(Y, 1)],
            ))
            .with(TransactionTemplate::new(
                "W",
                20,
                vec![Step::write(X, 1), Step::write(Y, 1)],
            ))
            .with(TransactionTemplate::new("R2", 5, vec![Step::read(X, 1)]))
            .build_rate_monotonic()
            .unwrap();
        // Leaked so W can be a detached thread: a writer that never
        // registers its refilled gate fails the poll below, not a join.
        let set: &'static TransactionSet = Box::leak(Box::new(set));
        let [r1, w, r2] = [0, 1, 2].map(|t| InstanceId::first(TxnId(t)));
        let config = RtConfig::new(ProtocolKind::PcpDa);
        let m = Arc::new(ShardedManager::new(set, &config, None));
        let [mut ctx_r1, mut ctx_w, mut ctx_r2] = [0, 1, 2].map(WorkerCtx::new);
        for (id, ctx) in [(w, &mut ctx_w), (r1, &mut ctx_r1), (r2, &mut ctx_r2)] {
            ctx.ws.reset(id);
        }
        // R2 only registers: its one request is made by hand below.
        m.lock(0).begin(r2, true, None);
        for (i, item) in [X, Y].into_iter().enumerate() {
            let at = [Boundary::Begin, Boundary::Step(i)][i.min(1)];
            let write = m.boundary(w, at, Some((item, LockMode::Write)), &mut ctx_w);
            assert_eq!(write, Outcome::Done);
            let read = m.boundary(r1, at, Some((item, LockMode::Read)), &mut ctx_r1);
            assert_eq!(read, Outcome::Done);
        }
        let waits_of = |g: &Shared<'_>| g.kernel.record(w).expect("W is live").waits_for.clone();

        let (tx, rx) = mpsc::channel();
        let writer_m = m.clone();
        std::thread::spawn(move || {
            let committed = matches!(writer_m.commit(w, &mut ctx_w), CommitOutcome::Committed(_));
            let _ = tx.send(committed);
        });
        // W registers its wait on R1 and keeps the state lock until it
        // waits, so once seen here it is parked.
        while waits_of(&m.lock(0)) != [r1] {
            std::thread::yield_now();
        }
        {
            let mut g = m.lock(0);
            let at = g.tick();
            assert!(g.commit(r1, &ctx_r1.ws, true, None, || at).is_some());
            assert!(g.try_acquire(r2, 0, X, LockMode::Read, &mut ctx_r2.ws));
            assert_eq!(g.gate_of(w), Some(&[r2][..]), "R2 refilled W's gate");
            assert!(waits_of(&g).is_empty(), "W waits on nobody yet");
        }
        let until = Instant::now() + PERIOD * 5;
        while waits_of(&m.lock(0)) != [r2] {
            assert!(Instant::now() < until, "W never registered a wait on R2");
            std::thread::yield_now();
        }
        assert!(matches!(
            m.commit(r2, &mut ctx_r2),
            CommitOutcome::Committed(_)
        ));
        let committed = rx.recv_timeout(PERIOD * 4).expect("W never left its gate");
        assert!(committed, "W restarted");
    }

    /// A gate that opens does not wake an instance blocked on a lock. D
    /// dirty-reads the X that W retired, so W is on D's commit gate, and
    /// then blocks on the Y that K write-holds. W's commit opens D's gate,
    /// but D's request must stay pending: clearing it would send D's
    /// thread round to ask again, only to be denied a second time.
    #[test]
    fn an_opened_gate_leaves_a_lock_wait_alone() {
        const Y: ItemId = ItemId(1);
        let set = SetBuilder::new()
            .with(TransactionTemplate::new("K", 10, vec![Step::write(Y, 1)]))
            .with(TransactionTemplate::new(
                "D",
                20,
                vec![Step::read(X, 1), Step::read(Y, 1)],
            ))
            .with(TransactionTemplate::new(
                "W",
                30,
                vec![Step::write(X, 1), Step::compute(1)],
            ))
            .build_rate_monotonic()
            .unwrap();
        let [k, d, w] = [0, 1, 2].map(|t| InstanceId::first(TxnId(t)));
        let m = ShardedManager::new(&set, &RtConfig::new(ProtocolKind::Bamboo), None);
        let [mut ctx_k, mut ctx_d, mut ctx_w] = [0, 1, 2].map(WorkerCtx::new);
        for (id, ctx) in [(k, &mut ctx_k), (d, &mut ctx_d), (w, &mut ctx_w)] {
            ctx.ws.reset(id);
        }
        let begin =
            |id, access, ctx: &mut WorkerCtx| m.boundary(id, Boundary::Begin, Some(access), ctx);
        assert_eq!(begin(w, (X, LockMode::Write), &mut ctx_w), Outcome::Done);
        // W's compute step: the write retires.
        let next = Boundary::Step(1);
        assert_eq!(m.boundary(w, next, None, &mut ctx_w), Outcome::Done);
        assert_eq!(begin(k, (Y, LockMode::Write), &mut ctx_k), Outcome::Done);
        assert_eq!(begin(d, (X, LockMode::Read), &mut ctx_d), Outcome::Done);
        let denied = !m
            .lock(0)
            .try_acquire(d, 1, Y, LockMode::Read, &mut ctx_d.ws);
        assert!(denied, "K holds Y");
        assert!(matches!(
            m.commit(w, &mut ctx_w),
            CommitOutcome::Committed(_)
        ));
        let g = m.lock(0);
        assert!(g.gate_of(d).is_none(), "W's commit opened D's gate");
        let rec = g.kernel.record(d).expect("D is live");
        assert!(rec.pending.is_some(), "D still waits for Y");
        assert_eq!(rec.block_events, 1, "denied once");
    }
}
