//! Open-loop load generation for `rtload`.
//!
//! The closed loop (`rt::run` over a prebuilt job list) measures *service
//! capacity*: workers are never idle, so throughput is the ceiling and
//! latency is pure contention. The open loop here measures behaviour
//! *under offered load*: arrivals follow a seeded stochastic schedule
//! that does not slow down when the system does, which is the regime
//! where queueing collapse and deadline misses actually appear.
//!
//! The pieces:
//!
//! * [`arrival_schedule`] — a deterministic merged Poisson arrival
//!   sequence; per-template rates are proportional to `1/period`
//!   (faster templates arrive more often, as in the periodic model) and
//!   normalised to the requested aggregate rate, with seeded
//!   per-template phasing so the templates do not arrive in lock-step;
//! * [`run_open_loop`] — drives [`rt::run_front`]: the current thread
//!   plays the submitter, pacing itself to the schedule; each request
//!   carries `release = scheduled arrival` and
//!   `deadline = release + period·tick`, so misses are judged against
//!   the *intended* release, exactly like the simulator's periodic model;
//! * [`service_capacity`] and [`calibrated_ceiling`] — the first-order
//!   estimate of the sustainable job rate (`threads / mean service
//!   time`) and the measured one `rtload` sizes its offered rates by.

use rtdb::prelude::*;
use rtdb::rt;
use rtdb_util::Rng;

/// Configuration of one open-loop run.
#[derive(Clone, Debug)]
pub struct OpenLoopParams {
    pub kind: ProtocolKind,
    pub threads: usize,
    /// Wall-clock nanoseconds per simulated tick, for both the workers'
    /// busy-work and the deadline scale.
    pub tick_ns: u64,
    /// Total offered jobs (across all templates).
    pub jobs: usize,
    /// Aggregate offered rate, jobs per second.
    pub arrival_rate: f64,
    pub policy: rt::AdmissionPolicy,
    /// Admission queue bound.
    pub capacity: usize,
    /// Offer read-only jobs the lock-exempt snapshot path.
    pub snapshot: bool,
    /// Lock-manager shards (1 = unsharded, the legacy behaviour).
    pub shards: usize,
    /// Relative offered-rate weights per tenant. Empty or single-entry
    /// means the legacy single-tenant schedule (tenant 0, byte-identical
    /// arrival stream to earlier releases); `[1, 4]` is two tenants with
    /// tenant 1 offering 4× tenant 0's rate.
    pub tenant_weights: Vec<u64>,
    /// Deadline-laxity multiplier: each job's deadline is
    /// `release + period·tick·deadline_scale`. 1 is the legacy periodic
    /// convention (deadline = next release); the overload scenario uses
    /// a laxer scale so that head-of-queue jobs *can* meet their
    /// deadlines and shed-protection shows up in the miss numbers.
    pub deadline_scale: u64,
    pub seed: u64,
}

impl OpenLoopParams {
    /// Number of tenants the schedule spreads arrivals across.
    pub fn tenants(&self) -> usize {
        self.tenant_weights.len().max(1)
    }
}

/// One scheduled arrival: a template released at an offset from run
/// start, billed to a tenant.
#[derive(Clone, Copy, Debug)]
pub struct Arrival {
    pub at_ns: u64,
    pub txn: TxnId,
    pub tenant: u32,
}

/// First-order service-capacity estimate in jobs/sec: `threads` workers,
/// each serving one job of mean WCET at `tick_ns` per tick. Queueing and
/// blocking only lower the real ceiling, so offered load above this is
/// guaranteed to saturate.
pub fn service_capacity(set: &TransactionSet, threads: usize, tick_ns: u64) -> f64 {
    let mean_wcet: f64 = set
        .templates()
        .iter()
        .map(|t| t.wcet().raw() as f64)
        .sum::<f64>()
        / set.len() as f64;
    let service_ns = (mean_wcet * tick_ns as f64).max(1.0);
    threads as f64 * 1e9 / service_ns
}

/// Measured saturation rate of `kind` on `threads` workers: a short
/// closed-loop run of `jobs` jobs, capped by [`service_capacity`]. The
/// estimate alone knows nothing of blocking or lock-manager overhead and
/// can sit several times above the real ceiling, which would leave every
/// sweep point saturated; the cap guards against a calibration run
/// inflated by scheduler luck.
pub fn calibrated_ceiling(set: &TransactionSet, p: &OpenLoopParams, jobs: usize) -> f64 {
    let config = rt::RtConfig::new(p.kind)
        .with_threads(p.threads)
        .with_tick_ns(p.tick_ns);
    rt::run_jobs(set, jobs, p.seed, config)
        .throughput()
        .min(service_capacity(set, p.threads, p.tick_ns))
}

/// Build the merged, time-sorted arrival schedule for `p.jobs` arrivals.
///
/// Deterministic in `(set, p)`: each `(tenant, template)` stream gets its
/// own split of the seed, so adding sweep points or reordering runs never
/// perturbs a stream's arrival pattern. With no tenant weights (the
/// legacy single-tenant case) the arrival stream is byte-identical to
/// earlier releases, so existing baselines keep matching.
pub fn arrival_schedule(set: &TransactionSet, p: &OpenLoopParams) -> Vec<Arrival> {
    assert!(p.arrival_rate > 0.0, "arrival rate must be positive");
    let weights: Vec<f64> = set
        .templates()
        .iter()
        .map(|t| 1.0 / t.period.raw() as f64)
        .collect();
    let wsum: f64 = weights.iter().sum();
    let mut root = Rng::seed(p.seed ^ 0x4f50_454e); // "OPEN"

    // Tenant rate shares: the legacy path is a single full-rate tenant.
    let tenant_weights: Vec<u64> = if p.tenant_weights.len() > 1 {
        p.tenant_weights.clone()
    } else {
        vec![1]
    };
    let twsum: f64 = tenant_weights.iter().map(|&w| w.max(1) as f64).sum();

    let mut arrivals: Vec<Arrival> = Vec::with_capacity(p.jobs * set.len());
    for (tenant, &tw) in tenant_weights.iter().enumerate() {
        let tenant_rate = p.arrival_rate * tw.max(1) as f64 / twsum;
        for (t, w) in set.templates().iter().zip(&weights) {
            let rate = tenant_rate * w / wsum;
            let gap_ns = 1e9 / rate;
            let mut rng = root.split();
            // Seeded phase: spread stream starts across one mean gap.
            let mut at = rng.f64() * gap_ns;
            for _ in 0..p.jobs {
                arrivals.push(Arrival {
                    at_ns: at as u64,
                    txn: t.id,
                    tenant: tenant as u32,
                });
                // Exponential gaps: Poisson arrivals per stream.
                at += -(1.0 - rng.f64()).ln() * gap_ns;
            }
        }
    }
    // Earliest `p.jobs` arrivals overall; ties broken by template then
    // tenant so the merge is deterministic.
    arrivals.sort_by_key(|a| (a.at_ns, a.txn.0, a.tenant));
    arrivals.truncate(p.jobs);
    arrivals
}

/// Everything one open-loop run produces, ready for JSON folding.
pub struct OpenLoopReport {
    pub params: OpenLoopParams,
    /// Scheduled arrivals (== `params.jobs`).
    pub offered: u64,
    /// Scheduled arrivals per tenant (sums to `offered`).
    pub offered_by_tenant: Vec<u64>,
    /// Submissions the admission queue accepted (committed + later-shed;
    /// least-slack self-sheds are *not* accepted).
    pub admitted: u64,
    pub result: rt::RtResult,
    /// Admission → worker-start delay of committed jobs.
    pub queue_hist: rt::LatencyHistogram,
    /// Worker-start → commit service time of committed jobs.
    pub service_hist: rt::LatencyHistogram,
}

impl OpenLoopReport {
    /// Fail ratio — (missed + shed + rejected) / offered — of the tenant
    /// offering the lowest rate (ties toward the lowest tenant index): what
    /// a heavy neighbour's overload costs the light tenant.
    pub fn low_rate_fail_ratio(&self) -> f64 {
        let weights = &self.params.tenant_weights;
        let low = (0..weights.len()).min_by_key(|&i| weights[i]).unwrap_or(0);
        let stats = self
            .result
            .tenants
            .iter()
            .find(|t| t.tenant as usize == low);
        stats.map_or(0.0, rt::TenantStats::fail_ratio)
    }
}

/// Execute one open-loop run: pace the schedule, submit through the
/// admission front-end, split each committed job's latency into queueing
/// and service histograms.
pub fn run_open_loop(set: &TransactionSet, p: &OpenLoopParams) -> OpenLoopReport {
    let schedule = arrival_schedule(set, p);
    let config = front_config(p);
    let (result, admitted) = rt::run_front(set, config, |front| {
        let (sub, _rx) = front.submitter();
        let mut admitted = 0u64;
        for a in &schedule {
            // Pace to the schedule: coarse sleep for long waits, then a
            // short spin so submit lateness stays well under the
            // deadline scale.
            let now = front.elapsed_ns();
            if a.at_ns > now {
                let wait = a.at_ns - now;
                if wait > 200_000 {
                    std::thread::sleep(std::time::Duration::from_nanos(wait - 100_000));
                }
                while front.elapsed_ns() < a.at_ns {
                    std::hint::spin_loop();
                }
            }
            let mut req =
                rt::JobRequest::periodic(set, a.txn, a.at_ns, p.tick_ns).for_tenant(a.tenant);
            if p.deadline_scale > 1 {
                let period = set.template(a.txn).period.raw();
                req.deadline_ns = Some(
                    a.at_ns.saturating_add(
                        period
                            .saturating_mul(p.tick_ns)
                            .saturating_mul(p.deadline_scale),
                    ),
                );
            }
            if let rt::SubmitOutcome::Admitted { .. } = sub.submit(req) {
                admitted += 1;
            }
        }
        admitted
    });

    finish_report(p, &schedule, admitted, result)
}

/// The [`rt::FrontConfig`] an open-loop run (in-process or networked)
/// drives.
pub fn front_config(p: &OpenLoopParams) -> rt::FrontConfig {
    rt::FrontConfig::new(p.kind)
        .with_policy(p.policy)
        .with_capacity(p.capacity)
        .with_rt(
            rt::RtConfig::new(p.kind)
                .with_threads(p.threads)
                .with_tick_ns(p.tick_ns)
                .with_snapshot_reads(p.snapshot)
                .with_shards(p.shards.max(1)),
        )
}

/// Fold a finished run into an [`OpenLoopReport`] (shared with the
/// networked path in `netload`).
pub(crate) fn finish_report(
    p: &OpenLoopParams,
    schedule: &[Arrival],
    admitted: u64,
    result: rt::RtResult,
) -> OpenLoopReport {
    let mut offered_by_tenant = vec![0u64; p.tenants()];
    for a in schedule {
        offered_by_tenant[a.tenant as usize] += 1;
    }
    let mut queue_hist = rt::LatencyHistogram::new();
    let mut service_hist = rt::LatencyHistogram::new();
    for job in &result.jobs {
        queue_hist.record(job.queue_ns);
        service_hist.record(job.service_ns);
    }
    OpenLoopReport {
        params: p.clone(),
        offered: schedule.len() as u64,
        offered_by_tenant,
        admitted,
        result,
        queue_hist,
        service_hist,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(rate: f64) -> OpenLoopParams {
        OpenLoopParams {
            kind: ProtocolKind::PcpDa,
            threads: 2,
            tick_ns: 2_000,
            jobs: 60,
            arrival_rate: rate,
            policy: rt::AdmissionPolicy::Reject,
            capacity: 2,
            snapshot: false,
            shards: 1,
            tenant_weights: Vec::new(),
            deadline_scale: 1,
            seed: 7,
        }
    }

    #[test]
    fn multi_tenant_schedule_splits_rate_by_weight() {
        let set = crate::standard_workload(7);
        let mut p = params(50_000.0);
        // Single-tenant schedules ignore a 1-entry weight vector: the
        // legacy stream must stay byte-identical.
        let legacy = arrival_schedule(&set, &p);
        p.tenant_weights = vec![3];
        let one = arrival_schedule(&set, &p);
        assert!(legacy
            .iter()
            .zip(&one)
            .all(|(a, b)| a.at_ns == b.at_ns && a.txn == b.txn && a.tenant == b.tenant));
        assert!(legacy.iter().all(|a| a.tenant == 0));

        // Two tenants at 1:4 — the heavy tenant dominates the truncated
        // earliest-arrivals window roughly in proportion.
        p.tenant_weights = vec![1, 4];
        p.jobs = 500;
        let multi = arrival_schedule(&set, &p);
        assert_eq!(multi.len(), 500);
        let heavy = multi.iter().filter(|a| a.tenant == 1).count();
        let light = multi.len() - heavy;
        assert!(light > 0, "light tenant never scheduled");
        assert!(
            heavy > 2 * light,
            "weight 4 tenant not dominant: {heavy} vs {light}"
        );
        // Deterministic.
        let again = arrival_schedule(&set, &p);
        assert!(multi
            .iter()
            .zip(&again)
            .all(|(a, b)| a.at_ns == b.at_ns && a.txn == b.txn && a.tenant == b.tenant));
    }

    #[test]
    fn schedule_is_deterministic_sorted_and_rate_scaled() {
        let set = crate::standard_workload(7);
        let p = params(50_000.0);
        let a = arrival_schedule(&set, &p);
        let b = arrival_schedule(&set, &p);
        assert_eq!(a.len(), p.jobs);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.at_ns == y.at_ns && x.txn == y.txn));
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        // Doubling the rate compresses the schedule: the last arrival of
        // the faster schedule lands earlier.
        let fast = arrival_schedule(&set, &params(100_000.0));
        assert!(fast.last().unwrap().at_ns < a.last().unwrap().at_ns);
        // Every template appears: rates are proportional, not exclusive.
        for t in set.templates() {
            assert!(a.iter().any(|x| x.txn == t.id), "{:?} never arrives", t.id);
        }
    }

    #[test]
    fn open_loop_run_accounts_for_every_job() {
        let set = crate::standard_workload(7);
        // Far above capacity: with a 2-deep Reject queue the schedule
        // front outruns the workers by construction, so drops are certain.
        let r = run_open_loop(&set, &params(20.0 * service_capacity(&set, 2, 2_000)));
        assert_eq!(r.offered, r.params.jobs as u64);
        assert_eq!(
            r.result.committed + r.result.shed + r.result.rejected,
            r.offered,
            "jobs leaked"
        );
        assert_eq!(r.admitted, r.result.committed + r.result.shed);
        assert!((0.0..=1.0).contains(&r.result.miss_ratio()));
        // Decomposition feeds the split histograms 1:1.
        assert_eq!(r.queue_hist.count(), r.result.committed);
        assert_eq!(r.service_hist.count(), r.result.committed);
        assert!(
            r.result.rejected > 0,
            "no drops at 20x capacity: {:?}",
            (r.result.committed, r.result.rejected)
        );
    }
}
