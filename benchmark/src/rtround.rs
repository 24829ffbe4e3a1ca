//! What every runtime workload does with the `RtResult` of one round:
//! check it, run the oracles over its history, and turn its per-job
//! reports into latencies, per-layer values and spans.

use crate::harness::{Fatal, Round};
use crate::scc;
use crate::stats;
use crate::trace::Tracer;
use rtdb::rt::{JobReport, RtResult};
use rtdb::storage::{replay_serial, SerializationGraph};
use rtdb::types::{InstanceId, TransactionSet};
use std::time::Instant;

/// One round's result and what the workload knows about it.
pub struct RtRound<'a> {
    pub set: &'a TransactionSet,
    pub result: &'a RtResult,
    pub tick_ns: u64,
    /// Wall time of the timed window.
    pub wall_s: f64,
    /// Requests offered (the closed loop's job count).
    pub offered: u64,
    /// Offered requests the program refused or shed.
    pub refused: u64,
    /// The user-visible latency of `result.jobs[i]`, in ns.
    pub latency_ns: Vec<u64>,
    /// Where the round's `run` span started, on the tracer's clock; job
    /// spans are placed relative to it.
    pub run_start_ns: u64,
    /// The round's index, for trace identifiers.
    pub index: u64,
    /// Record full spans for this many of the round's jobs (taken from
    /// the tracer's budget by the caller, which may add client-side spans
    /// for the same jobs).
    pub span_jobs: usize,
}

/// The oracles' verdict on one history.
pub struct Verdict {
    /// `cyclic[i]`: `result.jobs[i]` lies in a non-trivial component of
    /// the serialization graph.
    pub cyclic: Vec<bool>,
    pub txns: usize,
    pub components: usize,
    pub replay_violations: usize,
    pub graph_build_ns: u64,
    pub replay_ns: u64,
    pub edges: usize,
}

/// Build the serialization graph, count the instances on cycles, replay
/// the history serially. Spans `verify.*` go to the tracer.
pub fn verify(set: &TransactionSet, result: &RtResult, tr: &mut Tracer) -> Verdict {
    let start = tr.now_ns();
    let t = Instant::now();
    let graph = SerializationGraph::build(&result.history);
    let graph_build_ns = t.elapsed().as_nanos() as u64;
    let built = tr.now_ns();

    let nodes: Vec<InstanceId> = graph.nodes().iter().copied().collect();
    let at = |id: &InstanceId| nodes.binary_search(id).expect("edge endpoints are nodes") as u32;
    let edges: Vec<(u32, u32)> = graph.edges().map(|e| (at(&e.from), at(&e.to))).collect();
    let found = scc::cyclic_nodes(nodes.len(), &edges);
    let cyclic = result
        .jobs
        .iter()
        .map(|j| nodes.binary_search(&j.id).is_ok_and(|i| found.member[i]))
        .collect();
    let scc_done = tr.now_ns();

    let t = Instant::now();
    let replay = replay_serial(set, &result.history, &result.db);
    let replay_ns = t.elapsed().as_nanos() as u64;
    let end = tr.now_ns();

    tr.record(|| "run".into(), "verify", "workload", start, end);
    tr.record(
        || "run".into(),
        "verify.graph_build",
        "verify",
        start,
        built,
    );
    tr.record(|| "run".into(), "verify.scc", "verify", built, scc_done);
    tr.record(|| "run".into(), "verify.replay", "verify", scc_done, end);

    Verdict {
        cyclic,
        txns: found.txns,
        components: found.components,
        replay_violations: replay.violations.len(),
        graph_build_ns,
        replay_ns,
        edges: edges.len(),
    }
}

/// Every offered request has exactly one outcome, every committed job one
/// report whose parts add up.
fn conservation(r: &RtRound<'_>) -> Result<(), Fatal> {
    let res = r.result;
    if res.committed + res.shed + res.rejected != r.offered {
        return Err(format!(
            "conservation breach: offered {} != committed {} + shed {} + rejected {}",
            r.offered, res.committed, res.shed, res.rejected
        ));
    }
    if res.jobs.len() as u64 != res.committed || r.latency_ns.len() != res.jobs.len() {
        return Err(format!(
            "conservation breach: {} job reports, {} latencies for {} commits",
            res.jobs.len(),
            r.latency_ns.len(),
            res.committed
        ));
    }
    let mut ids: Vec<InstanceId> = res.jobs.iter().map(|j| j.id).collect();
    ids.sort_unstable();
    if ids.windows(2).any(|w| w[0] == w[1]) {
        return Err("conservation breach: an instance committed twice".into());
    }
    if let Some(j) = res
        .jobs
        .iter()
        .find(|j| j.queue_ns + j.service_ns != j.latency_ns)
    {
        return Err(format!(
            "job {}: queue {} + service {} != latency {}",
            j.id, j.queue_ns, j.service_ns, j.latency_ns
        ));
    }
    Ok(())
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Check, verify and fold one round.
pub fn fold(r: RtRound<'_>, tr: &mut Tracer) -> Result<Round, Fatal> {
    conservation(&r)?;
    let verdict = verify(r.set, r.result, tr);
    let res = r.result;
    let jobs = &res.jobs;
    let n = jobs.len().max(1) as f64;
    let top = r.set.len() as u32 - 1;
    let nominal_ns = |j: &JobReport| {
        r.set
            .template(j.id.txn)
            .wcet()
            .raw()
            .saturating_mul(r.tick_ns)
    };

    let mut round = Round {
        wall_s: r.wall_s,
        attempted: r.offered,
        failed: r.refused,
        headline: true,
        ..Round::default()
    };
    let (mut late, mut top_jobs, mut top_bad) = (0u64, 0u64, 0u64);
    let mut excess = Vec::with_capacity(jobs.len());
    let mut low = Vec::new();
    let (mut blocked, mut block_events, mut restarts) = (0u64, 0u64, 0u64);
    let (mut blockers_sum, mut blockers_max) = (0usize, 0usize);
    for ((job, &lat), &cyclic) in jobs.iter().zip(&r.latency_ns).zip(&verdict.cyclic) {
        let ok = !cyclic && !job.missed_deadline();
        round.good += u64::from(ok);
        late += u64::from(job.missed_deadline());
        round.lat_us.push(us(lat));
        if job.priority.level() == top {
            round.top_lat_us.push(us(lat));
            top_jobs += 1;
            top_bad += u64::from(!ok);
        } else if job.priority.level() == 0 {
            low.push(us(lat));
        }
        excess.push(us(job.service_ns.saturating_sub(nominal_ns(job))));
        blocked += u64::from(job.block_events > 0);
        block_events += u64::from(job.block_events);
        restarts += u64::from(job.restarts);
        blockers_sum += job.lower_blockers.len();
        blockers_max = blockers_max.max(job.lower_blockers.len());
    }
    // Refused requests carry no template here; they count against the
    // whole run only.
    let offered = r.offered.max(1) as f64;
    let (excess_p50, excess_tail) = stats::p50_and_tail(&mut excess);
    let (_, low_tail) = stats::p50_and_tail(&mut low);
    let events = res.history.events().len();
    round.layer = vec![
        ("rt.fail_ratio", 1.0 - round.good as f64 / offered),
        ("rt.top_fail_ratio", top_bad as f64 / top_jobs.max(1) as f64),
        ("rt.service_excess_p50_us", excess_p50),
        ("rt.service_excess_p99_us", excess_tail),
        ("rt.block_events_per_job", block_events as f64 / n),
        ("rt.blocked_job_share", blocked as f64 / n),
        ("rt.lower_blockers_mean", blockers_sum as f64 / n),
        ("rt.lower_blockers_max", blockers_max as f64),
        ("rt.restarts_per_job", restarts as f64 / n),
        ("rt.abort.wound", res.abort_reasons.wound as f64),
        (
            "rt.abort.deadlock_victim",
            res.abort_reasons.deadlock_victim as f64,
        ),
        ("rt.abort.cascade", res.abort_reasons.cascade as f64),
        (
            "rt.abort.ceiling_block",
            res.abort_reasons.ceiling_block as f64,
        ),
        ("rt.deadlocks_resolved", res.deadlocks_resolved as f64),
        ("rt.park_timeout_wakeups", res.park_timeout_wakeups as f64),
        (
            "rt.lock_transitions_per_job",
            res.lock_transitions as f64 / n,
        ),
        ("rt.nonserializable_txns", verdict.txns as f64),
        ("rt.nonserializable_components", verdict.components as f64),
        ("rt.replay_violations", verdict.replay_violations as f64),
        ("rt.low_lat_p99_us", low_tail),
        ("rt.run_wall_s", r.wall_s),
        ("front.missed_share", late as f64 / offered),
        ("front.rejected_share", res.rejected as f64 / offered),
        ("front.shed_share", res.shed as f64 / offered),
        (
            "storage.graph_build_ns_per_txn",
            verdict.graph_build_ns as f64 / n,
        ),
        ("storage.replay_ns_per_txn", verdict.replay_ns as f64 / n),
        ("storage.history_events_per_txn", events as f64 / n),
        ("storage.conflict_edges_per_txn", verdict.edges as f64 / n),
    ];

    for job in &jobs[..r.span_jobs.min(jobs.len())] {
        let id = || format!("r{}/{}", r.index, job.id);
        let commit = r.run_start_ns + job.commit_ns;
        let admit = commit - job.latency_ns;
        let start = admit + job.queue_ns;
        tr.record(id, "job", "run", admit, commit);
        tr.record(id, "job.queue", "job", admit, start);
        tr.record(id, "job.service", "job", start, commit);
        tr.record(
            id,
            "job.nominal_work",
            "job.service",
            start,
            (start + nominal_ns(job)).min(commit),
        );
    }
    Ok(round)
}

/// Queueing and service shares of the jobs that came through the
/// admission front-end.
pub fn front_layer(jobs: &[JobReport]) -> [(&'static str, f64); 3] {
    let mut queue: Vec<f64> = jobs.iter().map(|j| us(j.queue_ns)).collect();
    let mut service: Vec<f64> = jobs.iter().map(|j| us(j.service_ns)).collect();
    let (queue_p50, queue_tail) = stats::p50_and_tail(&mut queue);
    [
        ("front.queue_p50_us", queue_p50),
        ("front.queue_p99_us", queue_tail),
        ("front.service_p50_us", stats::p50_and_tail(&mut service).0),
    ]
}
