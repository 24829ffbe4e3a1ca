//! The lock manager: 1..`N` shards of protocol state, one set of calls.
//!
//! [`ShardedManager`] owns the run's protocol state as `N` [`Shared`]
//! cores, each behind its own mutex — a full [`rtdb_core::StateKernel`]
//! (local ceilings, wait edges, records, history) scoped to the items the
//! static [`ShardRouter`] rule, shared with the workload generator, sends
//! to it (DESIGN.md §6c, §6f) — plus what a run keeps once: the event
//! clock the shards tick, the commit gate, the [`GlobalCeiling`] layer,
//! the snapshot side-car and the park timeout. It is the only code that
//! blocks: [`ShardedManager::lock`] is the one place a shard's state lock
//! is taken and [`ShardedManager::park`] the one place a thread waits.
//! The worker's calls — begin, acquire, step-done, commit — compose the
//! cores' kernel-backed methods under those guards and never reach into
//! a kernel.
//!
//! A job touches the `k ≥ 1` shards its template's items route to. An
//! unsharded run is `N = 1`, where every job has `k = 1`; nothing below
//! is a separate path for it — what one shard does not need (a gate, a
//! published ceiling, item scoping) is simply absent. *Single-shard* jobs
//! take exactly one shard's state mutex (asserted via the per-shard
//! `state_lock_acquires` counter), park there when the protocol denies a
//! request, and scale with the shard count.
//!
//! Cross-shard jobs (`k > 1`) follow a DPCP-p-style global rule:
//!
//! * **Advisory admission** — before registering anywhere, spin (bounded)
//!   until the transaction's priority clears the published ceiling max of
//!   every shard it will touch. Advisory only: a stale read can delay or
//!   admit early, never corrupt shard state.
//! * **Canonical-order registration** — register in every touched shard
//!   in ascending shard order (the *home* shard — the lowest — logs the
//!   Begin event), carrying one shared abort signal.
//! * **No-wait execution** — a cross-shard transaction never parks inside
//!   any shard. A protocol decision that would block it is undone on the
//!   spot and the transaction self-aborts: it releases everything in
//!   every shard (ascending) and restarts through the normal backoff.
//!   Every wait edge is therefore *intra*-shard, each shard's local
//!   deadlock sweep stays complete, and no global detector is needed.
//!
//! **Commit** is one body for every `k`: lock the touched shards in
//! canonical order, abort commit victims, then — under the run-global
//! commit gate when `N > 1` — one tick, the installs of each touched
//! shard, one snapshot publish and the commit index, so commit-tick
//! order, commit-index order and snapshot-stamp order agree across
//! shards; then the per-shard teardown.
//!
//! Aborts of a cross-shard victim are split: the aborting shard cleans
//! its local slice silently and raises the victim's signal; the victim
//! observes the signal at its next manager call and sweeps its remaining
//! shards itself, logging exactly one Abort + restart-Begin pair in its
//! home shard.

use crate::manager::{
    CommitOutcome, JobStats, ManagerReport, Outcome, Shared, TryAcquire, WorkerCtx,
};
use crate::runtime::RtConfig;
use crate::snapshot::SnapshotSide;
use rtdb_core::{GlobalCeiling, ShardRouter, ShardSet, MAX_SHARDS};
use rtdb_storage::{Event, History};
use rtdb_types::{InstanceId, ItemId, LockMode, TransactionSet, TxnId};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How long a cross-shard transaction spins on the advisory global-
/// ceiling admission test before proceeding anyway. Bounded because the
/// test is advisory — correctness never depends on it.
const ADMISSION_SPIN: u32 = 64;

/// Cross-shard state of the job currently executing on a worker, carried
/// in [`WorkerCtx`] so the signal poll costs no lock.
pub(crate) struct CrossJob {
    /// The shared abort signal, registered with every touched shard.
    signal: Arc<AtomicBool>,
    /// The shards this job touches (canonical iteration order).
    shards: ShardSet,
    /// Aborts absorbed so far (the per-shard records never see them).
    restarts: u32,
}

/// Per-shard telemetry, reported in [`crate::RtResult::per_shard`].
#[derive(Clone, Debug, Default)]
pub struct ShardStats {
    /// The shard index.
    pub shard: usize,
    /// Data operations routed to this shard.
    pub ops: u64,
    /// Commits whose home was this shard (cross-shard commits count once,
    /// at their home shard).
    pub commits: u64,
    /// Times this shard's state mutex was acquired. The shard-isolation
    /// assertion: a run whose transactions all live in shard `s` leaves
    /// every other shard's counter at zero.
    pub state_lock_acquires: u64,
    /// Times this shard published its local ceiling to the global layer.
    pub ceiling_publishes: u64,
}

/// What only a run of more than one shard needs.
struct Coordination {
    /// Each shard's local system ceiling, published lock-free.
    global: GlobalCeiling,
    /// The commit gate: the run-global next-commit-index counter, locked
    /// around {commit tick, installs, snapshot publish} so commit ticks,
    /// commit indices and snapshot stamps agree across shards (and the
    /// single-publisher contract of `SnapshotStore::publish` holds). One
    /// shard has no gate: its state mutex already serializes all of this.
    gate: Mutex<u64>,
}

/// One shard's state lock, held. Releasing it — by drop, or to wait in
/// [`ShardedManager::park`] — first publishes the shard's ceiling, so the
/// global layer never lags a transition by more than the critical
/// section that made it.
pub(crate) struct ShardGuard<'m, 'a> {
    /// `None` only inside `park`, while the condvar owns the guard.
    core: Option<MutexGuard<'m, Shared<'a>>>,
    global: Option<&'m GlobalCeiling>,
}

impl ShardGuard<'_, '_> {
    fn publish(&mut self) {
        if let (Some(core), Some(global)) = (self.core.as_deref_mut(), self.global) {
            core.publish_ceiling(global);
        }
    }
}

impl Drop for ShardGuard<'_, '_> {
    fn drop(&mut self) {
        self.publish();
    }
}

impl<'a> Deref for ShardGuard<'_, 'a> {
    type Target = Shared<'a>;
    fn deref(&self) -> &Shared<'a> {
        self.core.as_deref().expect("held outside park")
    }
}

impl<'a> DerefMut for ShardGuard<'_, 'a> {
    fn deref_mut(&mut self) -> &mut Shared<'a> {
        self.core.as_deref_mut().expect("held outside park")
    }
}

/// The lock manager: the shards' state cores, each behind its mutex, plus
/// everything a run keeps once — see the module docs.
pub(crate) struct ShardedManager<'a> {
    set: &'a TransactionSet,
    shards: Vec<Mutex<Shared<'a>>>,
    router: ShardRouter,
    /// `Some` exactly when `shards.len() > 1`.
    coord: Option<Coordination>,
    /// The snapshot-read side-car, when the path is enabled: every commit
    /// publishes its installs (and seals a stamp) there, inside its
    /// critical section.
    snap: Option<Arc<SnapshotSide>>,
    /// Park `wait_timeout` safety net (see [`crate::RtConfig::park_timeout`]).
    park_timeout: Duration,
    /// Per-template shard sets, precomputed (index = `TxnId::index`).
    template_shards: Vec<ShardSet>,
    /// Data operations routed to each shard.
    ops: Vec<AtomicU64>,
    /// Cross-shard jobs begun.
    cross_shard_txns: AtomicU64,
    /// Cross-shard restarts (per-shard counters skip them).
    cross_restarts: AtomicU64,
    /// Of those, no-wait self-aborts: would-block decisions no shard's
    /// kernel recorded an abort reason for.
    no_wait_aborts: AtomicU64,
}

impl<'a> ShardedManager<'a> {
    pub(crate) fn new(
        set: &'a TransactionSet,
        config: &RtConfig,
        snap: Option<Arc<SnapshotSide>>,
    ) -> Self {
        let n = config.shards.clamp(1, MAX_SHARDS);
        if n > 1 {
            assert!(
                config.kind.shardable(),
                "{} cannot run sharded; shardable protocols: {}",
                config.kind.name(),
                rtdb_core::ProtocolKind::ALL
                    .iter()
                    .filter(|k| k.shardable())
                    .map(|k| k.name())
                    .collect::<Vec<_>>()
                    .join(", "),
            );
        }
        let router = ShardRouter::new(n);
        let clock = Arc::new(AtomicU64::new(0));
        let scope = (n > 1).then_some(router);
        ShardedManager {
            set,
            shards: (0..n)
                .map(|s| Mutex::new(Shared::new(set, config.kind, clock.clone(), s, scope)))
                .collect(),
            router,
            coord: (n > 1).then(|| Coordination {
                global: GlobalCeiling::new(n),
                gate: Mutex::new(0),
            }),
            snap,
            park_timeout: config.park_timeout,
            template_shards: (0..set.len())
                .map(|t| router.shards_of(set, TxnId(t as u32)))
                .collect(),
            ops: (0..n).map(|_| AtomicU64::new(0)).collect(),
            cross_shard_txns: AtomicU64::new(0),
            cross_restarts: AtomicU64::new(0),
            no_wait_aborts: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shards_of(&self, id: InstanceId) -> ShardSet {
        self.template_shards[id.txn.index()]
    }

    #[inline]
    fn home_of(&self, id: InstanceId) -> usize {
        self.shards_of(id)
            .home()
            .expect("template has a home shard")
    }

    /// Take `shard`'s state lock — the only place protocol state is
    /// locked. Recovers from poisoning: a panicking worker already fails
    /// the run via the scope join; secondary threads should not cascade
    /// with confusing poison panics.
    pub(crate) fn lock(&self, shard: usize) -> ShardGuard<'_, 'a> {
        let mut core = self.shards[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        core.state_lock_acquires += 1;
        ShardGuard {
            core: Some(core),
            global: self.coord.as_ref().map(|c| &c.global),
        }
    }

    /// Park the calling thread on `id`'s condvar until `id` is aborted or
    /// `until` holds — the only place a worker waits. `until` names a fact
    /// in the shard's kernel and is tested again after every wake-up,
    /// notified or not, so the park timeout is a safety net for any
    /// caller: a wait that expires runs the wake-up re-evaluation and the
    /// deadlock sweep itself ([`Shared::net_fired`]), and a wake-up lost
    /// after its transition was made is seen one period later at most.
    fn park(
        &self,
        g: &mut ShardGuard<'_, 'a>,
        id: InstanceId,
        until: fn(&mut Shared<'a>, InstanceId) -> bool,
    ) {
        let cv = g.condvar(id);
        while !(g.is_aborted(id) || until(g, id)) {
            g.publish();
            let held = g.core.take().expect("held outside park");
            let (held, wait) = cv
                .wait_timeout(held, self.park_timeout)
                .unwrap_or_else(PoisonError::into_inner);
            g.core = Some(held);
            if wait.timed_out() {
                g.net_fired();
            }
        }
    }

    /// Register a released instance in every shard it touches, in
    /// canonical order. A cross-shard instance first waits out the
    /// advisory admission spin and carries one abort signal everywhere.
    pub(crate) fn begin(&self, id: InstanceId, ctx: &mut WorkerCtx) {
        let touched = self.shards_of(id);
        ctx.cross = touched.is_cross_shard().then(|| {
            self.cross_shard_txns.fetch_add(1, Ordering::Relaxed);
            let global = &self.coord.as_ref().expect("several shards").global;
            let prio = self.set.priority_of(id.txn);
            for _ in 0..ADMISSION_SPIN {
                if global.cleared_by(prio, touched) {
                    break;
                }
                std::thread::yield_now();
            }
            CrossJob {
                signal: Arc::new(AtomicBool::new(false)),
                shards: touched,
                restarts: 0,
            }
        });
        let home = self.home_of(id);
        for s in touched.iter() {
            let signal = ctx.cross.as_ref().map(|c| c.signal.clone());
            self.lock(s).begin(id, s == home, signal);
        }
    }

    /// Acquire `item` in `mode` for step `step_index`, performing the data
    /// operation at grant time. A single-shard job parks in its shard
    /// while the protocol denies the request; a cross-shard job runs
    /// no-wait — a would-block decision is undone and the job self-aborts
    /// everywhere instead of parking in someone else's shard.
    pub(crate) fn acquire(
        &self,
        id: InstanceId,
        step_index: usize,
        item: ItemId,
        mode: LockMode,
        ctx: &mut WorkerCtx,
    ) -> Outcome {
        let s = self.router.shard_of(item);
        self.ops[s].fetch_add(1, Ordering::Relaxed);
        debug_assert!(
            self.shards_of(id).contains(s),
            "routing disagrees with template"
        );
        let mut g = self.lock(s);
        loop {
            // A pending abort is the flag in the waiter of a single-shard
            // job, the signal of a cross-shard one. Looked for on every
            // round: a retry may be an abort in disguise (a wound, or a
            // deadlock sweep inside `try_acquire` that picked us).
            let aborted = match &ctx.cross {
                Some(cross) => cross.signal.load(Ordering::Acquire),
                None => g.take_abort(id),
            };
            if aborted {
                break;
            }
            match g.try_acquire(id, step_index, item, mode, &mut ctx.ws) {
                TryAcquire::Done => return Outcome::Done,
                TryAcquire::Retry => {}
                TryAcquire::Park if ctx.cross.is_none() => {
                    self.park(&mut g, id, Shared::request_cleared)
                }
                TryAcquire::Park => {
                    g.unpark(id);
                    self.no_wait_aborts.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
        }
        drop(g);
        self.sweep(id, ctx);
        Outcome::Restart
    }

    /// Report step `completed_step` finished; applies the protocol's early
    /// releases (CCP) and retires and wakes waiters. Cross-shard jobs only
    /// poll their abort signal: every shardable protocol runs the
    /// workspace update model with no early releases, so there is nothing
    /// to apply and no lock to take.
    pub(crate) fn step_done(
        &self,
        id: InstanceId,
        completed_step: usize,
        ctx: &mut WorkerCtx,
    ) -> Outcome {
        if let Some(cross) = &ctx.cross {
            if cross.signal.load(Ordering::Acquire) {
                self.sweep(id, ctx);
                return Outcome::Restart;
            }
            return Outcome::Done;
        }
        let mut g = self.lock(self.home_of(id));
        if g.take_abort(id) {
            return Outcome::Restart;
        }
        g.step_done(id, completed_step, &ctx.ws);
        Outcome::Done
    }

    /// Commit `id`: lock every shard it touches in canonical order and
    /// run the one commit body over them. A single-shard job first waits
    /// out the commit gate of the early-release protocols (it parks while
    /// it still has commit dependencies; no shardable protocol creates
    /// any). Fails with [`CommitOutcome::Restart`] if the instance was
    /// aborted before the commit point (or cascaded out of the gate).
    pub(crate) fn commit(&self, id: InstanceId, ctx: &mut WorkerCtx) -> CommitOutcome {
        let Some(cross) = &ctx.cross else {
            let mut g = self.lock(self.home_of(id));
            loop {
                if g.take_abort(id) {
                    return CommitOutcome::Restart;
                }
                if !g.gate_commit(id) {
                    return CommitOutcome::Committed(self.commit_locked(id, &mut [g], ctx));
                }
                self.park(&mut g, id, Shared::gate_open);
            }
        };
        let mut guards: Vec<_> = cross.shards.iter().map(|s| self.lock(s)).collect();
        // All our shards' state is held, and aborting us requires one of
        // those locks — the signal is stable now.
        if cross.signal.load(Ordering::Acquire) {
            drop(guards);
            self.sweep(id, ctx);
            return CommitOutcome::Restart;
        }
        let stats = self.commit_locked(id, &mut guards, ctx);
        drop(guards);
        ctx.cross = None;
        CommitOutcome::Committed(stats)
    }

    /// The commit body, over the locked shards `id` touches in canonical
    /// order (`guards[0]` is its home): abort the protocol's commit
    /// victims (OCC backward validation, on the shard-scoped records each
    /// kernel keeps); then, under the commit gate when there is one, draw
    /// one tick, install each shard's staged writes at it (the Commit
    /// event at home), publish one snapshot batch and take the commit
    /// index; then release everything and wake waiters, shard by shard.
    /// The caller has consumed any abort and found the commit gate open.
    fn commit_locked(
        &self,
        id: InstanceId,
        guards: &mut [ShardGuard<'_, 'a>],
        ctx: &mut WorkerCtx,
    ) -> JobStats {
        for g in guards.iter_mut() {
            g.abort_commit_victims(id);
        }
        let mut gate = self
            .coord
            .as_ref()
            .map(|c| c.gate.lock().unwrap_or_else(PoisonError::into_inner));
        let at = guards[0].tick();
        let mut publish = self.snap.as_deref().map(|side| (side, &mut ctx.batch));
        for (k, g) in guards.iter_mut().enumerate() {
            let batch = publish.as_mut().map(|(_, batch)| &mut **batch);
            g.install(id, &ctx.ws, at, k == 0, batch);
        }
        // Seal this commit's stamp — on *every* lock-path commit, written
        // or not, so stamp `S` means "the state after the first `S`
        // commits" exactly as the oracle counts them.
        if let Some((side, batch)) = publish {
            side.store.publish(batch);
            batch.clear();
        }
        let commit_index = match gate.as_deref_mut() {
            Some(next) => std::mem::replace(next, *next + 1),
            None => guards[0].commits,
        };
        drop(gate);
        guards[0].commits += 1;

        let mut stats = JobStats {
            commit_index,
            restarts: ctx.cross.as_ref().map_or(0, |c| c.restarts),
            ..JobStats::default()
        };
        for g in guards.iter_mut() {
            let record = g.finish_commit(id);
            stats.restarts += record.restarts;
            stats.block_events += record.block_events;
            if stats.lower_blockers.is_empty() {
                stats.lower_blockers = record.lower_blockers;
                continue;
            }
            for t in record.lower_blockers {
                if let Err(i) = stats.lower_blockers.binary_search(&t) {
                    stats.lower_blockers.insert(i, t);
                }
            }
        }
        stats
    }

    /// The job's own side of its abort. Nothing for a single-shard job —
    /// its aborter ran the whole abort through the kernel. A cross-shard
    /// job sweeps: one ascending pass over its shards releasing
    /// everything, logging the single Abort + restart-Begin pair in the
    /// home shard, then lowering the signal — whether the abort was
    /// external (signal raised by a shard's deadlock sweep or commit
    /// validation) or a no-wait self-abort (signal never raised).
    fn sweep(&self, id: InstanceId, ctx: &mut WorkerCtx) {
        let Some(cross) = ctx.cross.as_mut() else {
            return;
        };
        cross.restarts += 1;
        self.cross_restarts.fetch_add(1, Ordering::Relaxed);
        let home = cross.shards.home().expect("cross-shard set is non-empty");
        for s in cross.shards.iter() {
            self.lock(s).sweep_cross(id, s == home);
        }
        cross.signal.store(false, Ordering::Release);
    }

    /// Tear down after every worker joined: sum the shards' counters,
    /// absorb their databases and merge their histories by tick.
    pub(crate) fn finish(self) -> ManagerReport {
        let mut report = ManagerReport {
            restarts: self.cross_restarts.into_inner(),
            cross_shard_txns: self.cross_shard_txns.into_inner(),
            ..ManagerReport::default()
        };
        report.abort_reasons.ceiling_block = self.no_wait_aborts.into_inner();
        let mut logs: Vec<History> = Vec::with_capacity(self.shards.len());
        for (s, (shard, ops)) in self.shards.into_iter().zip(self.ops).enumerate() {
            let publishes = self.coord.as_ref().map_or(0, |c| c.global.publish_count(s));
            let core = shard.into_inner().unwrap_or_else(PoisonError::into_inner);
            logs.push(core.finish(ops.into_inner(), publishes, &mut report));
        }
        // Concatenate the shards' event streams in ascending shard order
        // and stable-sort by tick. The shared clock makes ticks globally
        // unique except for cross-shard commits, which log their Commit
        // (home shard) and off-home Installs at one tick — the home shard
        // is the lowest touched, so concatenation order already places
        // the Commit first and the stable sort keeps it there.
        report.history = match logs.len() {
            1 => logs.pop().expect("one shard"),
            _ => {
                let mut events: Vec<Event> =
                    logs.iter().flat_map(|h| h.events()).copied().collect();
                events.sort_by_key(|e| e.at);
                events.into_iter().collect()
            }
        };
        report
    }
}
