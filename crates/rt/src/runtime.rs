//! The closed-loop runtime: worker threads draining a job queue through
//! the internal `ShardedManager`. The admission front-end ([`crate::front`])
//! runs on the same pool — only where a worker's next job comes from
//! differs.
//!
//! Each worker owns one recycled [`Workspace`](rtdb_storage::Workspace);
//! a job is the full life of
//! one transaction instance — begin, the template's steps (lock + data
//! operation at grant time, then the step's simulated computation),
//! commit. An abort (deadlock victim, 2PL-HP wound, OCC invalidation)
//! restarts the same job from step 0 on the same thread, exactly like the
//! simulator's slot reset.

use crate::admission::{AdmissionQueue, Admitted};
use crate::front::Completion;
use crate::histogram::LatencyHistogram;
use crate::jobs;
use crate::manager::{CommitOutcome, JobStats, Outcome, WorkerCtx, DEFAULT_PARK_TIMEOUT};
use crate::sharded::{ShardStats, ShardedManager};
use crate::snapshot::{ReaderLog, SnapshotSide};
use rtdb_core::{AbortBreakdown, ProtocolKind};
use rtdb_storage::{Database, History, SerializationGraph, VersionedValue};
use rtdb_types::{InstanceId, LockMode, Priority, TransactionSet, TxnId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration for one [`run`].
#[derive(Clone, Copy, Debug)]
pub struct RtConfig {
    /// Which concurrency-control protocol mediates lock requests.
    pub kind: ProtocolKind,
    /// Worker threads (clamped to at least 1).
    pub threads: usize,
    /// Wall-clock nanoseconds of busy-work per simulated tick of a step's
    /// duration. `0` skips the busy-work entirely (fastest, maximum
    /// contention churn — the test default).
    pub tick_ns: u64,
    /// Park `wait_timeout` safety net for blocked lock requests: on
    /// expiry the waiter re-runs the wake-up re-evaluation and a deadlock
    /// sweep itself, healing lost wake-ups and cycles that formed without
    /// a block event. The default (25 ms) never matters on the fast path;
    /// latency-sensitive tests can tighten it.
    pub park_timeout: Duration,
    /// Lock-manager shards: items partition across this many independent
    /// state cores, each behind its own mutex (see the `sharded` module).
    /// `1` (the default) is the classic unsharded manager: one core, no
    /// cross-shard machinery. Values above 1 require a shardable protocol
    /// ([`ProtocolKind::shardable`]) and are clamped to
    /// [`rtdb_core::MAX_SHARDS`].
    pub shards: usize,
    /// Serve read-only transactions from multiversion snapshots instead
    /// of the lock manager. Effective only for protocols whose update
    /// model makes commit-stamp snapshots serializable (see
    /// `ProtocolKind::snapshot_exempt` — every workspace-model protocol;
    /// CCP's early installs disqualify it and its read-only jobs simply
    /// keep taking locks). Exempt jobs never touch the lock table, never
    /// raise the system ceiling, never block a writer and never abort.
    pub snapshot_reads: bool,
}

impl RtConfig {
    /// Defaults: 4 threads, no busy-work, 25 ms park timeout, snapshot
    /// reads off.
    pub fn new(kind: ProtocolKind) -> Self {
        RtConfig {
            kind,
            threads: 4,
            tick_ns: 0,
            park_timeout: DEFAULT_PARK_TIMEOUT,
            shards: 1,
            snapshot_reads: false,
        }
    }

    /// Set the lock-manager shard count (1 = unsharded).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Set the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set the per-tick busy-work duration.
    pub fn with_tick_ns(mut self, tick_ns: u64) -> Self {
        self.tick_ns = tick_ns;
        self
    }

    /// Set the park `wait_timeout` safety net.
    pub fn with_park_timeout(mut self, park_timeout: Duration) -> Self {
        self.park_timeout = park_timeout;
        self
    }

    /// Enable or disable the multiversion snapshot read path.
    pub fn with_snapshot_reads(mut self, on: bool) -> Self {
        self.snapshot_reads = on;
        self
    }

    /// True when this run actually serves read-only jobs from snapshots:
    /// the switch is on *and* the protocol's update model permits it.
    pub fn snapshot_active(&self) -> bool {
        self.snapshot_reads && self.kind.snapshot_exempt()
    }
}

/// Per-job outcome, in commit order.
///
/// All `_ns` timestamps are wall-clock offsets from the run's start (the
/// admission front-end's `t0`, or the moment [`run`] spawned its workers
/// for the closed loop).
#[derive(Clone, Debug)]
pub struct JobReport {
    /// The committed instance.
    pub id: InstanceId,
    /// Its template's base priority.
    pub priority: Priority,
    /// Wall-clock admission→commit latency, including restarts. Always
    /// exactly [`JobReport::queue_ns`] `+` [`JobReport::service_ns`].
    pub latency_ns: u64,
    /// Queueing delay: admission → a worker starting the job. Zero in the
    /// closed loop, where a worker *is* the admitter.
    pub queue_ns: u64,
    /// Service latency: worker start → commit, including restarts.
    pub service_ns: u64,
    /// Intended release time. The closed loop has no releases; there this
    /// equals the admission time.
    pub release_ns: u64,
    /// The tenant the originating request was billed to (0 — the default
    /// tenant — for every closed-loop job).
    pub tenant: u32,
    /// Absolute deadline (`release + period`, scaled to wall-clock ns by
    /// the submitter). `None` when the job carries no deadline — every
    /// closed-loop job.
    pub deadline_ns: Option<u64>,
    /// Commit completion time.
    pub commit_ns: u64,
    /// Aborts this job absorbed before committing.
    pub restarts: u32,
    /// Times this job parked on a denied lock request.
    pub block_events: u32,
    /// Distinct lower-priority templates that ever blocked it.
    pub lower_blockers: Vec<TxnId>,
    /// Zero-based position in the global commit order. Snapshot readers
    /// are ordered after every lock-path commit (they hold no position in
    /// the lock manager's commit stream — the serializability oracle
    /// places them by [`JobReport::snapshot`] instead).
    pub commit_index: u64,
    /// The commit stamp this job's reads were served at, when it ran on
    /// the lock-exempt snapshot path: it observed exactly the state after
    /// the first `snapshot` lock-path commits. `None` for lock-based jobs.
    pub snapshot: Option<u64>,
}

impl JobReport {
    /// True if the job committed after its deadline. Jobs without a
    /// deadline never miss.
    pub fn missed_deadline(&self) -> bool {
        self.deadline_ns.is_some_and(|d| self.commit_ns > d)
    }
}

/// Committed/missed counts of one base-priority level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PriorityMisses {
    /// The base-priority level ([`Priority::level`]).
    pub priority: u32,
    /// Jobs of this priority that committed.
    pub committed: u64,
    /// Of those, jobs that committed after their deadline.
    pub missed: u64,
}

impl PriorityMisses {
    /// Miss ratio `missed / committed` (0.0 when nothing committed).
    pub fn ratio(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.missed as f64 / self.committed as f64
        }
    }
}

/// Per-tenant admission/outcome accounting of one front-end run.
///
/// `committed + shed + rejected` equals the tenant's offered load — every
/// request a submitter pushed is exactly one of the three (a
/// [`crate::SubmitOutcome::Closed`] bounce counts as rejected).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant id ([`crate::JobRequest::tenant`]).
    pub tenant: u32,
    /// Jobs of this tenant that committed.
    pub committed: u64,
    /// Of those, jobs that committed after their deadline.
    pub missed: u64,
    /// Jobs shed from the admission queue before running.
    pub shed: u64,
    /// Jobs rejected at admission (full queue under
    /// [`crate::AdmissionPolicy::Reject`], submitted after shutdown, or
    /// naming no template of the set).
    pub rejected: u64,
}

impl TenantStats {
    /// Requests this tenant offered: `committed + shed + rejected`.
    pub fn offered(&self) -> u64 {
        self.committed + self.shed + self.rejected
    }

    /// Deadline-miss ratio over *committed* jobs (0.0 when none
    /// committed).
    pub fn miss_ratio(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.missed as f64 / self.committed as f64
        }
    }

    /// Fraction of *offered* requests that failed to meet their deadline
    /// for any reason — missed, shed, or rejected. A shed or rejected
    /// job never commits, so it never meets its deadline; this is the
    /// tenant-experienced failure ratio and the headline metric of the
    /// multi-tenant overload scenario.
    pub fn fail_ratio(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            0.0
        } else {
            (self.missed + self.shed + self.rejected) as f64 / offered as f64
        }
    }
}

/// Fold per-job reports and the admission queue's per-tenant shed/reject
/// counters into [`TenantStats`] rows, sorted by tenant id.
fn tenant_stats(jobs: &[JobReport], counts: &[crate::admission::TenantCounts]) -> Vec<TenantStats> {
    let mut rows: Vec<TenantStats> = Vec::new();
    let row = |tenant: u32, rows: &mut Vec<TenantStats>| -> usize {
        match rows.iter().position(|r| r.tenant == tenant) {
            Some(i) => i,
            None => {
                rows.push(TenantStats {
                    tenant,
                    committed: 0,
                    missed: 0,
                    shed: 0,
                    rejected: 0,
                });
                rows.len() - 1
            }
        }
    };
    for job in jobs {
        let i = row(job.tenant, &mut rows);
        rows[i].committed += 1;
        if job.missed_deadline() {
            rows[i].missed += 1;
        }
    }
    for c in counts {
        let i = row(c.tenant, &mut rows);
        rows[i].shed += c.shed;
        rows[i].rejected += c.rejected;
    }
    rows.sort_by_key(|r| r.tenant);
    rows
}

/// Everything a [`run`] produced.
#[derive(Debug)]
pub struct RtResult {
    /// Protocol name (e.g. `"PCP-DA"`).
    pub protocol: String,
    /// Protocol kind that ran.
    pub kind: ProtocolKind,
    /// Worker threads used.
    pub threads: usize,
    /// The full event history, in install/commit linearization order.
    pub history: History,
    /// Final committed database state.
    pub db: Database,
    /// Jobs committed (always `jobs.len()` — every job retries to commit).
    pub committed: u64,
    /// Total aborts absorbed across all jobs.
    pub restarts: u64,
    /// Why instances aborted, by cause. A cross-shard job's no-wait
    /// self-abort (a would-block decision it may not wait out) counts as
    /// `ceiling_block`. On one shard `abort_reasons.total() == restarts`;
    /// on several, a cross-shard victim that two shards flagged before it
    /// swept counts once per shard and restarts once.
    pub abort_reasons: AbortBreakdown,
    /// Wait-for cycles broken by aborting a victim.
    pub deadlocks_resolved: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Per-job outcomes, sorted by commit order.
    pub jobs: Vec<JobReport>,
    /// Jobs the admission queue shed under
    /// [`crate::AdmissionPolicy::LeastSlack`]. Always 0 in the closed
    /// loop.
    pub shed: u64,
    /// Jobs the admission queue rejected under
    /// [`crate::AdmissionPolicy::Reject`] (or submitted after shutdown,
    /// or naming no template of the set).
    /// Always 0 in the closed loop.
    pub rejected: u64,
    /// Per-tenant outcome accounting, sorted by tenant id. A single row
    /// for tenant 0 when nobody tagged tenants; empty in the closed loop.
    pub tenants: Vec<TenantStats>,
    /// Sheds per transaction template ([`rtdb_types::TxnId::index`]) —
    /// the per-priority shed telemetry (map through
    /// `set.priority_of`). Empty in the closed loop.
    pub shed_by_txn: Vec<u64>,
    /// Total admission→commit latency distribution, merged from the
    /// per-worker histograms after the threads joined.
    pub latency_hist: LatencyHistogram,
    /// Park-timeout safety-net firings: wake-ups caused by a blocked
    /// request's `wait_timeout` expiring. Deterministic replays assert
    /// this is 0 — a nonzero count there would reveal a lost wake-up
    /// otherwise silently healed by the net.
    pub park_timeout_wakeups: u64,
    /// Whether the snapshot read path was active for this run (the config
    /// switch was on *and* the protocol's update model permitted it).
    pub snapshot_reads: bool,
    /// Jobs that committed on the lock-exempt snapshot path (included in
    /// [`RtResult::committed`]).
    pub snapshots: u64,
    /// Final value of the lock table's monotone transition counter: every
    /// grant, release or conversion bumps it, so 0 proves the run never
    /// took a single lock.
    pub lock_transitions: u64,
    /// Longest per-item version chain the snapshot store ever held — the
    /// epoch GC's memory-flatness telemetry (0 when the path is off).
    pub mv_high_water: usize,
    /// Lock-manager shards the run used (1 = unsharded).
    pub shards: usize,
    /// Jobs whose template spans more than one shard (0 when
    /// [`RtResult::shards`] is 1).
    pub cross_shard_txns: u64,
    /// Per-shard telemetry, indexed by shard. Per-shard latency
    /// distributions, when a caller collects them, aggregate through
    /// [`LatencyHistogram::merge`] exactly like the per-worker histograms
    /// do.
    pub per_shard: Vec<ShardStats>,
}

impl RtResult {
    /// The conflict graph `SG(H)` of the run's history.
    pub fn serialization_graph(&self) -> SerializationGraph {
        SerializationGraph::build(&self.history)
    }

    /// `(reader, stamp)` for every job that committed on the snapshot
    /// path — the positions the snapshot serializability oracle needs.
    pub fn snapshot_stamps(&self) -> Vec<(InstanceId, u64)> {
        self.jobs
            .iter()
            .filter_map(|j| j.snapshot.map(|s| (j.id, s)))
            .collect()
    }

    /// True if the history is conflict-serializable (acyclic `SG(H)`).
    pub fn is_conflict_serializable(&self) -> bool {
        self.serialization_graph().find_cycle().is_none()
    }

    /// Committed transactions per wall-clock second.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.committed as f64 / secs
        } else {
            0.0
        }
    }

    /// Committed jobs that missed their deadline.
    pub fn deadline_misses(&self) -> u64 {
        self.jobs.iter().filter(|j| j.missed_deadline()).count() as u64
    }

    /// Overall miss ratio over committed jobs (0.0 when nothing
    /// committed). Shed and rejected jobs are *not* counted as misses —
    /// they are reported separately ([`RtResult::shed`],
    /// [`RtResult::rejected`]).
    pub fn miss_ratio(&self) -> f64 {
        if self.jobs.is_empty() {
            0.0
        } else {
            self.deadline_misses() as f64 / self.jobs.len() as f64
        }
    }

    /// Per-priority deadline-miss accounting, highest priority first —
    /// directly comparable with the simulator's per-template miss
    /// metrics.
    pub fn misses_by_priority(&self) -> Vec<PriorityMisses> {
        let mut bands: Vec<PriorityMisses> = Vec::new();
        for job in &self.jobs {
            let level = job.priority.level();
            let band = match bands.iter_mut().find(|b| b.priority == level) {
                Some(b) => b,
                None => {
                    bands.push(PriorityMisses {
                        priority: level,
                        committed: 0,
                        missed: 0,
                    });
                    bands.last_mut().expect("just pushed")
                }
            };
            band.committed += 1;
            if job.missed_deadline() {
                band.missed += 1;
            }
        }
        bands.sort_by_key(|b| std::cmp::Reverse(b.priority));
        bands
    }
}

/// Execute `job_queue` on `config.threads` OS threads under
/// `config.kind`, returning the complete history, final database and
/// per-job reports. Every job runs to commit (aborts restart it), so the
/// run always drains the queue.
pub fn run(set: &TransactionSet, job_queue: &[InstanceId], config: RtConfig) -> RtResult {
    let source = JobSource::List {
        jobs: job_queue,
        next: AtomicUsize::new(0),
    };
    run_pool(set, &config, &source, || ()).0
}

/// Where the pool's workers take their next job from — the one thing
/// that differs between the closed loop and the admission front-end.
pub(crate) enum JobSource<'a> {
    /// Closed loop: a shared cursor over the caller's job list.
    List {
        jobs: &'a [InstanceId],
        next: AtomicUsize,
    },
    /// Open loop: the admission queue, popped by the workers themselves.
    Queue(&'a AdmissionQueue),
}

impl JobSource<'_> {
    /// The next job and, in the open loop, its admission record. `None`
    /// ends the calling worker: the list is exhausted, or the queue is
    /// closed and drained.
    fn next(&self) -> Option<(InstanceId, Option<Admitted>)> {
        match self {
            JobSource::List { jobs, next } => jobs
                .get(next.fetch_add(1, Ordering::Relaxed))
                .map(|&id| (id, None)),
            JobSource::Queue(queue) => queue.pop().map(|(id, job)| (id, Some(job))),
        }
    }

    /// How many jobs are known up front: the closed loop's whole list,
    /// nothing of an open loop.
    fn known_len(&self) -> usize {
        match self {
            JobSource::List { jobs, .. } => jobs.len(),
            JobSource::Queue(_) => 0,
        }
    }
}

/// The worker pool both loops run on: spawn `config.threads` workers on
/// `source`, call `driver` on the current thread, then end the source
/// (closing the admission queue, with drain semantics), join the workers
/// and fold what they return into the [`RtResult`].
pub(crate) fn run_pool<R>(
    set: &TransactionSet,
    config: &RtConfig,
    source: &JobSource<'_>,
    driver: impl FnOnce() -> R,
) -> (RtResult, R) {
    let threads = config.threads.max(1);
    let snap = config
        .snapshot_active()
        .then(|| Arc::new(SnapshotSide::for_set(set, threads)));
    let manager = ShardedManager::new(set, config, snap.clone());
    let shards = manager.shard_count();
    // Every `_ns` offset is on the clock deadlines were given on: the
    // admission queue's, when there is one.
    let t0 = match source {
        JobSource::List { .. } => Instant::now(),
        JobSource::Queue(queue) => queue.t0(),
    };

    let (value, latency_hist, mut jobs) = std::thread::scope(|scope| {
        let manager = &manager;
        let workers: Vec<_> = (0..threads)
            .map(|w| {
                let snap = snap.as_deref();
                scope.spawn(move || worker(set, manager, snap, source, config, w, t0))
            })
            .collect();

        // Run the driver on this thread; if it panics the queue must
        // still close, or the scope would join parked workers forever.
        let value = std::panic::catch_unwind(std::panic::AssertUnwindSafe(driver));
        if let JobSource::Queue(queue) = source {
            queue.close();
        }
        let mut hist = LatencyHistogram::new();
        let mut jobs = Vec::new();
        for w in workers {
            let (worker_hist, mut worker_jobs) = w.join().expect("worker panicked");
            hist.merge(&worker_hist);
            if jobs.is_empty() {
                // The first worker's reports are kept, not copied: a
                // one-worker run holds one copy of its job list's reports.
                jobs = worker_jobs;
            } else {
                jobs.append(&mut worker_jobs);
            }
        }
        match value {
            Ok(v) => (v, hist, jobs),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    });
    let elapsed = t0.elapsed();

    let mut report = manager.finish();
    // Merge the reader logs into the history and order the snapshot
    // readers after every lock-path commit.
    let (snapshots, mv_high_water) = match snap.as_deref() {
        Some(side) => {
            side.merge_into(&mut report.history);
            for j in jobs.iter_mut().filter(|j| j.snapshot.is_some()) {
                j.commit_index += report.commits;
            }
            (side.committed(), side.store.high_water())
        }
        None => (0, 0),
    };
    jobs.sort_by_key(|j| j.commit_index);
    // Shed/reject totals are the tenant ledger's, summed: one set of
    // counters, kept under the queue lock.
    let (tenants, shed_by_txn, shed, rejected) = match source {
        JobSource::List { .. } => (Vec::new(), Vec::new(), 0, 0),
        JobSource::Queue(queue) => {
            let (counts, shed_by_txn) = queue.counters();
            (
                tenant_stats(&jobs, &counts),
                shed_by_txn,
                counts.iter().map(|c| c.shed).sum(),
                counts.iter().map(|c| c.rejected).sum(),
            )
        }
    };

    let result = RtResult {
        protocol: config.kind.name().to_string(),
        kind: config.kind,
        threads,
        history: report.history,
        db: report.db,
        committed: report.commits + snapshots,
        restarts: report.restarts,
        abort_reasons: report.abort_reasons,
        deadlocks_resolved: report.deadlocks_resolved,
        elapsed,
        jobs,
        shed,
        rejected,
        tenants,
        shed_by_txn,
        latency_hist,
        park_timeout_wakeups: report.park_timeout_wakeups,
        snapshot_reads: snap.is_some(),
        snapshots,
        lock_transitions: report.lock_transitions,
        mv_high_water,
        shards,
        cross_shard_txns: report.cross_shard_txns,
        per_shard: report.per_shard,
    };
    (result, value)
}

/// Convenience: generate a seeded job list (see [`jobs::job_list`]) and
/// [`run`] it.
pub fn run_jobs(set: &TransactionSet, total: usize, seed: u64, config: RtConfig) -> RtResult {
    let queue = jobs::job_list(set, total, seed);
    run(set, &queue, config)
}

/// Saturating `u128 → u64` nanosecond conversion for [`std::time::Duration`]s.
pub(crate) fn dur_ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// One worker: run jobs from `source` until it ends, returning this
/// worker's latency histogram and job reports.
fn worker(
    set: &TransactionSet,
    manager: &ShardedManager<'_>,
    snap: Option<&SnapshotSide>,
    source: &JobSource<'_>,
    config: &RtConfig,
    worker_index: usize,
    t0: Instant,
) -> (LatencyHistogram, Vec<JobReport>) {
    let mut ctx = WorkerCtx::new(worker_index);
    let mut hist = LatencyHistogram::new();
    // An even share of a known job list, so a closed-loop worker's
    // reports never regrow (regrowth faults in fresh pages every run).
    let mut reports = Vec::with_capacity(source.known_len().div_ceil(config.threads.max(1)));
    while let Some((id, admitted)) = source.next() {
        let started = Instant::now();
        let stats = execute_job(set, manager, snap, id, &mut ctx, config);
        let committed = Instant::now();
        // No admission record (the closed loop): the worker admits and
        // starts the job in the same breath, so queueing delay is zero,
        // service is the whole latency and the release is the start.
        let service_ns = dur_ns(committed.duration_since(started));
        let (queue_ns, latency_ns, release_ns, tenant, deadline_ns) = match &admitted {
            Some(job) => (
                dur_ns(started.duration_since(job.admitted_at)),
                dur_ns(committed.duration_since(job.admitted_at)),
                job.req.release_ns,
                job.req.tenant,
                job.req.deadline_ns,
            ),
            None => (0, service_ns, dur_ns(started.duration_since(t0)), 0, None),
        };
        hist.record(latency_ns);
        let report = JobReport {
            id,
            priority: set.priority_of(id.txn),
            latency_ns,
            queue_ns,
            service_ns,
            release_ns,
            tenant,
            deadline_ns,
            commit_ns: dur_ns(committed.duration_since(t0)),
            restarts: stats.restarts,
            block_events: stats.block_events,
            lower_blockers: stats.lower_blockers,
            commit_index: stats.commit_index,
            snapshot: stats.snapshot,
        };
        if let Some(job) = admitted {
            let _ = job.done.send(Completion::Committed {
                ticket: job.ticket,
                report: report.clone(),
            });
        }
        reports.push(report);
    }
    (hist, reports)
}

/// Run one instance to commit, restarting from step 0 on every abort.
/// Read-only jobs take the lock-free snapshot path when `snap` is live.
fn execute_job(
    set: &TransactionSet,
    manager: &ShardedManager<'_>,
    snap: Option<&SnapshotSide>,
    id: InstanceId,
    ctx: &mut WorkerCtx,
    config: &RtConfig,
) -> JobStats {
    let template = set.template(id.txn);
    if let Some(side) = snap {
        if template.is_read_only() {
            return execute_snapshot_job(set, side, id, ctx, config);
        }
    }
    let steps = template.steps.as_slice();
    manager.begin(id, ctx);
    let mut attempt: u32 = 0;
    'attempt: loop {
        if attempt > 0 {
            restart_backoff(id, attempt, config.tick_ns);
        }
        attempt += 1;
        ctx.ws.reset(id);
        for (step_index, step) in steps.iter().enumerate() {
            if let Some((item, mode)) = step.op.access() {
                match manager.acquire(id, step_index, item, mode, ctx) {
                    Outcome::Done => {}
                    Outcome::Restart => continue 'attempt,
                }
            }
            spin_work(step.duration, config.tick_ns);
            // Early releases (and CCP's early installs) apply after every
            // *non-final* step; the final step's locks fall to commit.
            if step_index + 1 < steps.len() {
                match manager.step_done(id, step_index, ctx) {
                    Outcome::Done => {}
                    Outcome::Restart => continue 'attempt,
                }
            }
        }
        match manager.commit(id, ctx) {
            CommitOutcome::Committed(stats) => return stats,
            CommitOutcome::Restart => continue 'attempt,
        }
    }
}

/// The lock-exempt job body: pin a commit stamp once, resolve every read
/// against the version chains, commit without touching the manager. No
/// protocol decision runs, no lock-table transition happens, nothing can
/// block or abort this job, and the pinned stamp keeps the epoch GC from
/// reclaiming the versions it still needs.
fn execute_snapshot_job(
    set: &TransactionSet,
    side: &SnapshotSide,
    id: InstanceId,
    ctx: &mut WorkerCtx,
    config: &RtConfig,
) -> JobStats {
    let template = set.template(id.txn);
    let stamp = side.store.pin(ctx.worker);
    ctx.ws.reset(id);
    let mut reads = Vec::new();
    for step in &template.steps {
        if let Some((item, mode)) = step.op.access() {
            debug_assert_eq!(mode, LockMode::Read, "read-only template wrote");
            let vv = side
                .store
                .read_at(item, stamp)
                .unwrap_or(VersionedValue::INITIAL);
            let rec = ctx.ws.read_versioned(item, vv.value, vv.version);
            reads.push((item, rec.value, rec.version));
        }
        spin_work(step.duration, config.tick_ns);
    }
    side.store.unpin(ctx.worker);
    let ordinal = side.commit_reader(ctx.worker, ReaderLog { id, reads });
    JobStats {
        commit_index: ordinal,
        restarts: 0,
        block_events: 0,
        lower_blockers: Vec::new(),
        snapshot: Some(stamp),
    }
}

/// Lower bound on the per-tick cost estimate feeding the first restart
/// delay: `base = 16 * max(tick_ns, floor)`, i.e. roughly one job service
/// time even when `tick_ns` is 0.
const BACKOFF_BASE_FLOOR_NS: u64 = 500;
/// Hard cap on a single restart delay, so no victim is parked for a
/// macroscopic slice of a run.
const BACKOFF_CAP_NS: u64 = 4_000_000;

/// Jittered exponential delay between an abort and the restart it forces.
///
/// Protocols that resolve deadlocks by victim restart rely on the victim
/// *not* re-acquiring its locks in the same instant it was aborted: a
/// reader aborted out of a lock-upgrade cycle that immediately re-grabs
/// its shared lock reforms the identical cycle and starves the pending
/// writer indefinitely. Thread-scheduling latency provides that gap only
/// by accident, so the restart delay is explicit — `sleep`, not spin, so
/// the yielded CPU goes to the transactions the victim was deadlocked
/// with. Deterministically jittered per `(instance, attempt)` so
/// simultaneous victims desynchronise instead of colliding again in
/// lock-step.
fn restart_backoff(id: InstanceId, attempt: u32, tick_ns: u64) {
    // First delay ~ one job service time (a handful of steps at a few
    // ticks each), quadrupling per repeat so a victim caught behind a
    // convoy of conflicting higher-priority instances outwaits the whole
    // convoy within a few aborts. Capped so no victim is parked for a
    // macroscopic slice of a run.
    let base = 16 * tick_ns.max(BACKOFF_BASE_FLOOR_NS);
    let ns = (base << (2 * (attempt - 1)).min(8)).min(BACKOFF_CAP_NS);
    let seed = ((id.txn.0 as u64) << 32 | id.seq as u64)
        ^ (attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let jitter = 0.5 + rtdb_util::Rng::seed(seed).f64(); // [0.5, 1.5)
    std::thread::sleep(Duration::from_nanos((ns as f64 * jitter) as u64));
}

/// Busy-wait for `duration` simulated ticks at `tick_ns` wall-clock
/// nanoseconds per tick. The runtime never sleeps inside a job: a blocked
/// *lock* parks on a condvar, but computation is modelled as CPU work.
fn spin_work(duration: rtdb_types::Duration, tick_ns: u64) {
    let ns = duration.raw().saturating_mul(tick_ns);
    if ns == 0 {
        return;
    }
    let deadline = Instant::now() + Duration::from_nanos(ns);
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}
