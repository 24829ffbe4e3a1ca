//! The sharded lock-manager architecture (DESIGN.md §6e).
//!
//! [`ShardedManager`] partitions the protocol state across `N`
//! independent [`LockManager`]s — one per shard, each a full
//! [`rtdb_core::StateKernel`] (local ceilings, wait edges, records,
//! history) scoped to the items the static [`ShardRouter`] rule — shared
//! with the workload generator — sends to it. This module reaches a
//! shard only through its manager's guarded core, composing the same
//! kernel-backed calls the single-shard path uses (begin, try-acquire,
//! commit victims, install, finish, sweep) under its guards. A thin
//! [`GlobalCeiling`] layer publishes each shard's local system ceiling
//! lock-free, so *single-shard* transactions touch exactly one shard's
//! state mutex (asserted via the per-shard `state_lock_acquires`
//! counter) and scale with the shard count.
//!
//! Cross-shard transactions follow a DPCP-p-style global rule:
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
//! * **Gated commit** — commit locks all touched shards in canonical
//!   order, then serializes {commit tick, per-shard installs, snapshot
//!   publish, commit index} through the run-global commit gate, so
//!   commit-tick order, commit-index order and snapshot-stamp order agree
//!   across shards.
//!
//! Aborts of a cross-shard victim are split: the aborting shard cleans
//! its local slice silently and raises the victim's signal; the victim
//! observes the signal at its next manager call and sweeps its remaining
//! shards itself, logging exactly one Abort + restart-Begin pair in its
//! home shard.
//!
//! With one shard the whole layer is a pass-through: no router, no global
//! ceiling, no gate — the state machine is bit-identical to the
//! pre-sharding manager.

use crate::manager::{
    CommitOutcome, JobStats, LockManager, ManagerReport, Outcome, ShardCtx, Shared, TryAcquire,
    WorkerCtx,
};
use crate::runtime::RtConfig;
use crate::snapshot::SnapshotSide;
use rtdb_core::{GlobalCeiling, ShardRouter, ShardSet, MAX_SHARDS};
use rtdb_storage::{Database, Event, History, VersionedValue};
use rtdb_types::{InstanceId, ItemId, LockMode, TransactionSet, TxnId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// How long a cross-shard transaction spins on the advisory global-
/// ceiling admission test before proceeding anyway. Bounded because the
/// test is advisory — correctness never depends on it.
const ADMISSION_SPIN: u32 = 64;

/// Cross-shard state of the job currently executing on a worker, carried
/// in [`WorkerCtx`] so the signal poll costs no lock.
#[derive(Clone)]
pub(crate) struct CrossJob {
    /// The shared abort signal, registered with every touched shard.
    pub signal: Arc<AtomicBool>,
    /// The shards this job touches (canonical iteration order).
    pub shards: ShardSet,
    /// Aborts absorbed so far (cross-shard jobs bypass the per-shard
    /// restart counters).
    pub restarts: u32,
    /// Would-block decisions converted to self-aborts.
    pub block_events: u32,
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

/// Everything [`ShardedManager::finish`] produced: the merged report plus
/// the shard-level telemetry.
pub(crate) struct ShardedReport {
    pub report: ManagerReport,
    pub per_shard: Vec<ShardStats>,
    pub cross_shard_txns: u64,
}

/// The sharded lock manager: `N` independent per-shard managers plus the
/// cross-shard coordination described in the module docs.
pub(crate) struct ShardedManager<'a> {
    set: &'a TransactionSet,
    shards: Vec<LockManager<'a>>,
    router: ShardRouter,
    /// `Some` exactly when `shards.len() > 1`.
    global: Option<Arc<GlobalCeiling>>,
    gate: Option<Arc<Mutex<u64>>>,
    /// Per-template shard sets, precomputed (index = `TxnId::index`).
    template_shards: Vec<ShardSet>,
    /// Data operations routed to each shard.
    ops: Vec<AtomicU64>,
    /// Cross-shard jobs begun.
    cross_shard_txns: AtomicU64,
    /// Cross-shard self-abort restarts (per-shard counters skip them).
    cross_restarts: AtomicU64,
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
        let (global, gate, clock) = if n > 1 {
            (
                Some(Arc::new(GlobalCeiling::new(n))),
                Some(Arc::new(Mutex::new(0u64))),
                Arc::new(AtomicU64::new(0)),
            )
        } else {
            (None, None, Arc::new(AtomicU64::new(0)))
        };
        let shards = (0..n)
            .map(|s| {
                let ctx = if n > 1 {
                    ShardCtx {
                        clock: clock.clone(),
                        shard: s,
                        router: Some(router),
                        global: global.clone(),
                        gate: gate.clone(),
                    }
                } else {
                    ShardCtx::single()
                };
                LockManager::new(set, config.kind, config.park_timeout, snap.clone(), ctx)
            })
            .collect();
        let template_shards = (0..set.len())
            .map(|t| router.shards_of(set, TxnId(t as u32)))
            .collect();
        ShardedManager {
            set,
            shards,
            router,
            global,
            gate,
            template_shards,
            ops: (0..n).map(|_| AtomicU64::new(0)).collect(),
            cross_shard_txns: AtomicU64::new(0),
            cross_restarts: AtomicU64::new(0),
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

    /// Register a released instance. Cross-shard instances register in
    /// every touched shard (canonical order) behind the advisory
    /// admission spin; single-shard instances delegate to their shard.
    pub(crate) fn begin(&self, id: InstanceId, ctx: &mut WorkerCtx) {
        let touched = self.shards_of(id);
        if !touched.is_cross_shard() {
            ctx.cross = None;
            self.shards[self.home_of(id)].begin(id);
            return;
        }
        self.cross_shard_txns.fetch_add(1, Ordering::Relaxed);
        if let Some(global) = &self.global {
            let prio = self.set.priority_of(id.txn);
            for _ in 0..ADMISSION_SPIN {
                if global.cleared_by(prio, touched) {
                    break;
                }
                std::thread::yield_now();
            }
        }
        let signal = Arc::new(AtomicBool::new(false));
        let home = touched.home().expect("cross-shard set is non-empty");
        for s in touched.iter() {
            self.shards[s]
                .lock()
                .begin(id, s == home, Some(signal.clone()));
        }
        ctx.cross = Some(CrossJob {
            signal,
            shards: touched,
            restarts: 0,
            block_events: 0,
        });
    }

    /// Acquire `item` for step `step_index`. Single-shard jobs park in
    /// their shard as usual; cross-shard jobs run no-wait — a would-block
    /// decision is undone and the job self-aborts everywhere.
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
        let Some(cross) = ctx.cross.clone() else {
            return self.shards[s].acquire(id, step_index, item, mode, &mut ctx.ws);
        };
        debug_assert!(cross.shards.contains(s), "routing disagrees with template");
        loop {
            if cross.signal.load(Ordering::Acquire) {
                self.cleanup_restart(id, ctx);
                return Outcome::Restart;
            }
            let mut g = self.shards[s].lock();
            if cross.signal.load(Ordering::Acquire) {
                drop(g);
                self.cleanup_restart(id, ctx);
                return Outcome::Restart;
            }
            match g.try_acquire(id, step_index, item, mode, &mut ctx.ws) {
                TryAcquire::Done => return Outcome::Done,
                TryAcquire::Retry => {
                    drop(g);
                    // The retry may be an abort in disguise (a deadlock
                    // sweep inside try_acquire picked us); the loop head
                    // polls the signal before re-issuing.
                    continue;
                }
                TryAcquire::Park(_) => {
                    // No-wait: undo the blocked registration and
                    // self-abort instead of parking in someone else's
                    // shard.
                    g.unpark(id);
                    drop(g);
                    if let Some(c) = ctx.cross.as_mut() {
                        c.block_events += 1;
                    }
                    self.cleanup_restart(id, ctx);
                    return Outcome::Restart;
                }
            }
        }
    }

    /// Report step `completed_step` finished. Cross-shard jobs only poll
    /// their abort signal: every shardable protocol runs the workspace
    /// update model with no early releases, so there is nothing to apply.
    pub(crate) fn step_done(
        &self,
        id: InstanceId,
        completed_step: usize,
        ctx: &mut WorkerCtx,
    ) -> Outcome {
        let Some(cross) = ctx.cross.clone() else {
            return self.shards[self.home_of(id)].step_done(id, completed_step, &ctx.ws);
        };
        if cross.signal.load(Ordering::Acquire) {
            self.cleanup_restart(id, ctx);
            return Outcome::Restart;
        }
        Outcome::Done
    }

    /// Commit `id`. Cross-shard commits lock every touched shard in
    /// canonical order, then run the gated global commit described in the
    /// module docs.
    pub(crate) fn commit(&self, id: InstanceId, ctx: &mut WorkerCtx) -> CommitOutcome {
        let Some(cross) = ctx.cross.clone() else {
            return self.shards[self.home_of(id)].commit(id, &ctx.ws);
        };
        if cross.signal.load(Ordering::Acquire) {
            self.cleanup_restart(id, ctx);
            return CommitOutcome::Restart;
        }
        let shard_ids: Vec<usize> = cross.shards.iter().collect();
        let mut guards: Vec<MutexGuard<'_, Shared<'a>>> =
            shard_ids.iter().map(|&s| self.shards[s].lock()).collect();
        // All our shards' state is held, and aborting us requires one of
        // those locks — the signal is stable now.
        if cross.signal.load(Ordering::Acquire) {
            drop(guards);
            self.cleanup_restart(id, ctx);
            return CommitOutcome::Restart;
        }

        // Per-shard commit victims (OCC backward validation etc.), on the
        // shard-scoped records each shard's kernel keeps.
        for g in guards.iter_mut() {
            g.abort_commit_victims(id);
        }

        // The gated global commit: one tick, per-shard installs at that
        // tick (the Commit event in the home shard — the lowest touched,
        // `guards[0]`), one snapshot publish, one commit index.
        let gate = self.gate.as_ref().expect("cross-shard implies a gate");
        let mut gate_guard = gate
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let at = guards[0].tick();
        let mut batch: Vec<(ItemId, VersionedValue)> = Vec::new();
        for (k, g) in guards.iter_mut().enumerate() {
            g.install(id, &ctx.ws, at, k == 0, &mut batch);
        }
        // Seal this commit's stamp exactly once (even with no writes), as
        // the single-shard path does — the gate serializes publishers.
        if let Some(side) = &guards[0].snap {
            side.store.publish(&batch);
        }
        let commit_index = *gate_guard;
        *gate_guard += 1;
        drop(gate_guard);
        guards[0].commits += 1;

        // Per-shard teardown, in canonical order.
        let mut lower_blockers: Vec<TxnId> = Vec::new();
        for g in guards.iter_mut() {
            for t in g.finish_commit(id).lower_blockers {
                if let Err(i) = lower_blockers.binary_search(&t) {
                    lower_blockers.insert(i, t);
                }
            }
        }
        drop(guards);

        let stats = JobStats {
            commit_index,
            restarts: cross.restarts,
            block_events: cross.block_events,
            lower_blockers,
            snapshot: None,
        };
        ctx.cross = None;
        CommitOutcome::Committed(stats)
    }

    /// The cross-shard abort sweep: one ascending pass over the job's
    /// shards releasing everything, logging the single Abort +
    /// restart-Begin pair in the home shard, then lowering the signal.
    /// Runs whether the abort was external (signal raised by another
    /// shard's deadlock sweep or commit validation) or a no-wait
    /// self-abort (signal never raised).
    fn cleanup_restart(&self, id: InstanceId, ctx: &mut WorkerCtx) {
        let cross = ctx.cross.as_mut().expect("cross-shard job");
        cross.restarts += 1;
        self.cross_restarts.fetch_add(1, Ordering::Relaxed);
        let home = cross.shards.home().expect("cross-shard set is non-empty");
        for s in cross.shards.iter() {
            self.shards[s].lock().sweep_cross(id, s == home);
        }
        cross.signal.store(false, Ordering::Release);
    }

    /// Tear down after every worker joined: merge the per-shard
    /// histories by tick, absorb the per-shard databases and sum the
    /// counters.
    pub(crate) fn finish(self) -> ShardedReport {
        let cross_shard_txns = self.cross_shard_txns.load(Ordering::Relaxed);
        let cross_restarts = self.cross_restarts.load(Ordering::Relaxed);
        let ops: Vec<u64> = self.ops.iter().map(|o| o.load(Ordering::Relaxed)).collect();
        let reports: Vec<ManagerReport> = self.shards.into_iter().map(|m| m.finish()).collect();
        let per_shard: Vec<ShardStats> = reports
            .iter()
            .map(|r| ShardStats {
                shard: r.shard,
                ops: ops[r.shard],
                commits: r.commits,
                state_lock_acquires: r.state_lock_acquires,
                ceiling_publishes: self.global.as_ref().map_or(0, |g| g.publish_count(r.shard)),
            })
            .collect();
        if reports.len() == 1 {
            let report = reports.into_iter().next().expect("one shard");
            return ShardedReport {
                report,
                per_shard,
                cross_shard_txns,
            };
        }

        // Merge: concatenate the shard event streams in ascending shard
        // order and stable-sort by tick. The shared clock makes ticks
        // globally unique except for cross-shard commits, which log their
        // Commit (home shard) and off-home Installs at one tick — the
        // home shard is the lowest touched, so concatenation order
        // already places the Commit first and the stable sort keeps it
        // there.
        let mut events: Vec<Event> =
            Vec::with_capacity(reports.iter().map(|r| r.history.events().len()).sum());
        for r in &reports {
            events.extend_from_slice(r.history.events());
        }
        events.sort_by_key(|e| e.at);
        let history: History = events.into_iter().collect();

        let mut db = Database::new();
        let mut merged = ShardedReport {
            report: ManagerReport {
                history,
                db: Database::new(),
                commits: 0,
                restarts: cross_restarts,
                abort_reasons: Default::default(),
                deadlocks_resolved: 0,
                park_timeout_wakeups: 0,
                lock_transitions: 0,
                state_lock_acquires: 0,
                shard: 0,
            },
            per_shard,
            cross_shard_txns,
        };
        for r in reports {
            db.absorb(r.db);
            merged.report.commits += r.commits;
            merged.report.restarts += r.restarts;
            merged.report.deadlocks_resolved += r.deadlocks_resolved;
            merged.report.park_timeout_wakeups += r.park_timeout_wakeups;
            merged.report.lock_transitions += r.lock_transitions;
            merged.report.state_lock_acquires += r.state_lock_acquires;
            merged.report.abort_reasons.merge(&r.abort_reasons);
        }
        merged.report.db = db;
        merged
    }
}
