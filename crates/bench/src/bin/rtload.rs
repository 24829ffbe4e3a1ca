//! Load generator for the threaded runtime: emit `BENCH_rt.json` with
//! closed-loop throughput/latency records and an open-loop saturation
//! curve with per-priority deadline-miss ratios.
//!
//! ```sh
//! cargo run --release -p rtdb-bench --bin rtload                  # full line-up -> ./BENCH_rt.json
//! cargo run --release -p rtdb-bench --bin rtload -- --threads 8 --kind pcp-da --seed 7
//! cargo run --release -p rtdb-bench --bin rtload -- --threads 1,4,16
//! cargo run --release -p rtdb-bench --bin rtload -- --arrival-rate 50000 --sweep-points 6
//! cargo run --release -p rtdb-bench --bin rtload -- --shards 1,4 --cross-fraction 0.2
//! cargo run --release -p rtdb-bench --bin rtload -- --tenants 2 --fairness both
//! cargo run --release -p rtdb-bench --bin rtload -- --tenants 2 --net --check
//! cargo run --release -p rtdb-bench --bin rtload -- --check       # advisory regression check
//! ```
//!
//! **Closed loop** (`"mode": "closed-loop"` records): a deterministic
//! seeded job queue (`rt::job_list`) is drained by `--threads` workers
//! under each protocol; every job runs to commit (aborts restart it), so
//! `committed == jobs` always and the interesting numbers are wall-clock
//! throughput and the per-priority latency distribution (p50/p95/p99/max
//! over begin→commit, measured on a log-bucketed histogram,
//! `rt::LatencyHistogram`). This measures *service capacity*.
//!
//! **Open loop** (`"mode": "open-loop"` records): arrivals follow a
//! seeded schedule (exponential or periodic interarrivals, per-template
//! rates ∝ 1/period) that does not slow down when the system does; jobs
//! flow through the admission front-end (`rt::run_front`) carrying
//! `deadline = release + period·tick`. Each run of the sweep offers
//! `rate·k/points` jobs/sec for `k = 1..=points` — a monotone
//! offered-load axis — and the record reports per-priority deadline-miss
//! ratios, queueing delay split from service time, and shed/reject
//! counts. `--arrival-rate` sets the sweep top; the default is 1.5× a
//! short closed-loop calibration run (capped by the first-order
//! service-capacity estimate), so the curve always crosses saturation
//! without starting there. This measures behaviour *under offered
//! load* — the regime where queueing collapse lives.
//!
//! **Sweep axes.** `--threads` accepts a comma-separated list; the
//! closed loop defaults to the 1/2/4/8/16/32 sweep, the open loop runs
//! at one thread count (the single `--threads` value if one was given,
//! else 4).
//!
//! `--reps` (default 3) re-runs each closed-loop configuration and keeps
//! the *median-throughput* record: single 400-job runs are ~20 ms
//! windows, and on a shared box one preemption inside such a window
//! swings the measurement by ±20-30%, which would drown the A/B
//! comparison in scheduler noise. The open loop is exempt — its runs are
//! paced in real time, so repetitions multiply wall-clock cost, and its
//! headline numbers (miss ratios over hundreds of jobs) average the
//! noise out internally.
//!
//! `--tick-ns` scales each step's simulated duration to wall-clock
//! busy-work (and, in open-loop mode, the deadline scale); the default
//! keeps a full line-up under a few seconds while still letting blocking
//! shape the tail.
//!
//! **Read-heavy family.** `--read-fraction F` (templates that are pure
//! readers, default 0.95 when the family is selected) and `--skew θ`
//! (Zipfian exponent over the item pool, 0 = uniform) switch the
//! workload to [`rtdb_bench::read_heavy_workload`]; `--snapshot
//! on|off|both` (default `off`) runs with the lock-exempt multiversion
//! snapshot path enabled, disabled, or A/B. Records from these runs
//! carry `"read_fraction"`, `"skew"` and (when on) `"snapshot": true`
//! plus snapshot telemetry (`snapshots`, `lock_transitions`,
//! `mv_high_water`), and baseline matching is read-mix aware: a record
//! only compares against a baseline with the same mix and snapshot
//! setting. The default full line-up additionally appends a read-heavy
//! sweep — PCP-DA, 95/5, θ ∈ {0, 0.6, 0.9}, snapshot off vs on — and
//! prints a warn-only snapshot-on-vs-off A/B summary.
//!
//! **Zipfian-hotspot family.** `--skew θ` *without* `--read-fraction`
//! switches the workload to [`rtdb_bench::hotspot_workload`] — the
//! write-heavy early-release sweep: long transactions (3–6 data steps,
//! 90% writes, hottest item accessed first) over a Zipf(θ) 16-item
//! pool, the regime where Bamboo and Brook-2PL retire write locks early
//! instead of pinning them across the transaction body — the payoff
//! shows in the latency tail (p99 bands), not committed/sec, on a
//! CPU-bound box. Without `--kind` the closed loop runs the
//! early-release pair plus the blocking / abort-based baselines (PCP-DA,
//! 2PL-HP, Bamboo, Brook-2PL). Records carry `"family": "hotspot"` and
//! `"skew"`, so they never match read-heavy or standard baselines. The
//! default full line-up additionally appends a hotspot sweep — those four
//! kinds at θ ∈ {0, 0.6, 0.9, 1.2} — and every closed-loop
//! summary line and record now includes the abort-reason breakdown
//! (`wound` / `cascade` / `deadlock_victim` / `ceiling_block`), which is
//! how the cascade cost of early release stays visible next to its
//! throughput win.
//!
//! **Sharded family.** `--shards` (comma-separated, default `1`) sweeps
//! the partitioned lock-manager axis: every listed count runs the
//! closed-loop line-up with the runtime's sharded manager
//! (`RtConfig::with_shards`). A non-trivial sweep switches the workload
//! to [`rtdb_bench::partitioned_workload`] — a partitioned-Zipfian pool
//! whose partition count is the sweep's *maximum* shard count, so every
//! point measures the identical item distribution and only the manager
//! sharding varies; `--cross-fraction F` (default 0.1) sets the
//! probability that a data step leaves its template's home partition.
//! Records carry `"shards"`, `"partitions"` and `"cross_fraction"` tags
//! plus per-shard telemetry (`cross_shard_txns` and a `per_shard` array
//! of ops / commits / state-lock acquisitions / ceiling publishes).
//! Non-shardable protocols are skipped at shard counts above 1 (refused
//! loudly when named with `--kind`). Both loops honour the sweep: the
//! open loop runs once per listed shard count, sharded through
//! `RtConfig::with_shards` and tagged with the same shard axis, so its
//! records never masquerade as unsharded points. A non-trivial sweep
//! cannot combine with the read-heavy family flags.
//!
//! **Multi-tenant overload scenario.** `--tenants N` (or an explicit
//! `--tenant-weights 1,8` list) runs *only* the scenario: N tenants
//! submit the same template mix at offered rates split by weight
//! (default: every tenant at weight 1 except the last at 8), at 2× the
//! measured saturation rate, under `least-slack` admission (override
//! with `--policy`). `--fairness on|off|both` (default `both`) toggles
//! per-tenant token-bucket budgets (`FairnessConfig::for_capacity` — an
//! equal share of the *measured* ceiling, so a high-rate tenant really
//! can run out of budget); both
//! settings replay the *identical* arrival schedule, so the low-rate
//! tenant's fail ratio — (missed + shed + rejected) / offered, the
//! headline metric, since a shed job misses its deadline by definition —
//! is directly comparable, and a warn-only A/B summary prints it
//! fairness-on vs fairness-off. Each fairness setting runs `--reps`
//! times and keeps the run with the median headline metric (the same
//! noise treatment as the closed loop). Scenario records carry `"scenario":
//! "multi-tenant-overload"`, `"fairness"`, `"tenant_weights"`, a
//! per-tenant `"tenants"` array and per-priority `"shed_by_priority"`
//! counts (via `RtResult::shed_by_txn` mapped through the set's
//! priorities). The default full line-up appends the scenario
//! (in-process, PCP-DA, fairness off vs on) after the open-loop sweeps.
//!
//! **`--net`.** Routes every open-loop run — sweeps and scenario —
//! through the loopback TCP edge ([`rtdb::net::serve`]): one socket
//! client per tenant submits the schedule over the wire protocol, and
//! the records gain a `"net": true` tag so they only compare against
//! networked baselines. The closed loop is unaffected.
//!
//! `--check [baseline.json]` measures without writing and **warns**
//! (exit 0 — wall-clock throughput of a threaded run on a shared CI box
//! is too noisy to gate merges on) when committed throughput drops more
//! than 25% against a baseline record with the same mode and
//! configuration; mismatched configurations are skipped.
//!
//! The one positional argument is the output (or, with `--check`, the
//! baseline) path; an unrecognised `--flag` exits 2 with the flag list
//! rather than being taken for that path.

use rtdb::prelude::*;
use rtdb::rt;
use rtdb_bench::loadgen::{service_capacity, Interarrival, OpenLoopParams, OpenLoopReport};
use rtdb_util::Json;

const DEFAULT_THREADS: usize = 4;
const DEFAULT_THREAD_SWEEP: [usize; 6] = [1, 2, 4, 8, 16, 32];
/// Sized so a closed-loop run spans many scheduler quanta (~100 ms at
/// line rate): a 400-job run is a ~20 ms window — about two CFS
/// timeslices — and one preemption inside it moves the measurement by
/// double-digit percents.
const DEFAULT_JOBS: usize = 2_000;
/// Closed-loop repetitions per configuration; the median-throughput
/// record is kept (see the module docs on scheduler noise).
const DEFAULT_REPS: usize = 3;
const DEFAULT_TICK_NS: u64 = 2_000;
const DEFAULT_SEED: u64 = 7;
const DEFAULT_SWEEP_POINTS: usize = 4;
const DEFAULT_QUEUE_CAP: usize = 64;
/// Scenario default admission-queue bound: shallow enough that the
/// head-of-queue wait stays on the deadline scale — behind a 64-deep
/// queue *every* admitted job misses and shedding policy is moot.
const SCENARIO_QUEUE_CAP: usize = 8;
/// Scenario deadline laxity: deadlines sit at this multiple of the
/// periodic convention (`release + period·tick·scale`). At scale 1 the
/// contention-limited service time alone busts most deadlines and every
/// committed job misses — shedding policy becomes unobservable in the
/// miss numbers.
const SCENARIO_DEADLINE_SCALE: u64 = 4;
/// Default sweep top: this multiple of the service-capacity estimate.
const DEFAULT_OVERLOAD: f64 = 1.5;
/// Offered rate of the multi-tenant overload scenario: 2× measured
/// saturation, so shedding is guaranteed and fairness has work to do.
const SCENARIO_OVERLOAD: f64 = 2.0;
/// Advisory tolerance: a warning is printed when committed-txns/sec
/// drops by more than this fraction against a same-config baseline.
const REGRESSION_TOLERANCE: f64 = 0.25;

struct Args {
    check: bool,
    /// `None` = the full [`ProtocolKind::STANDARD`] line-up (closed
    /// loop) and the PCP-DA / 2PL-HP pair (open loop).
    kind: Option<ProtocolKind>,
    /// Thread counts; `None` = the default closed-loop sweep.
    threads: Option<Vec<usize>>,
    jobs: usize,
    /// Closed-loop repetitions; the median-throughput record survives.
    reps: usize,
    tick_ns: u64,
    seed: u64,
    /// Sweep-top offered rate (jobs/sec); `None` = auto from
    /// [`service_capacity`].
    arrival_rate: Option<f64>,
    sweep_points: usize,
    interarrival: Interarrival,
    /// `None` = the mode's default: `reject` for the saturation sweeps,
    /// `least-slack` for the multi-tenant overload scenario.
    policy: Option<rt::AdmissionPolicy>,
    /// `None` = the mode's default: [`DEFAULT_QUEUE_CAP`] for the
    /// sweeps, the shallow [`SCENARIO_QUEUE_CAP`] for the scenario
    /// (queueing delay must stay on the deadline scale for slack-aware
    /// shedding to save anything).
    queue_cap: Option<usize>,
    /// Skip the closed-loop line-up (open-loop sweep only).
    open_only: bool,
    /// Fraction of templates that are pure readers; selects the
    /// read-heavy workload family.
    read_fraction: Option<f64>,
    /// Zipfian exponent over the item pool; selects the read-heavy
    /// workload family.
    skew: Option<f64>,
    /// Snapshot-path settings to run (`[false]`, `[true]`, or both).
    snapshots: Vec<bool>,
    /// Shard counts for the closed-loop sharded-manager sweep.
    shards: Vec<usize>,
    /// Cross-partition probability of the partitioned workload family.
    cross_fraction: f64,
    /// Route open-loop runs through the loopback TCP edge.
    net: bool,
    /// Tenant count for the multi-tenant overload scenario; selecting it
    /// (or `tenant_weights`) runs *only* the scenario.
    tenants: Option<usize>,
    /// Explicit per-tenant rate weights (overrides the `--tenants`
    /// default of every tenant at 1 with the last at 8).
    tenant_weights: Option<Vec<u64>>,
    /// Fairness settings the scenario runs (`[false]`, `[true]`, or the
    /// A/B default `[false, true]`).
    fairness_modes: Vec<bool>,
    /// Output path (measure mode) or baseline path (`--check` mode).
    path: String,
}

/// Every flag [`parse_args_from`] accepts, for the unknown-flag message.
const FLAGS: &str = "--check --open-only --kind --threads --jobs --reps --tick-ns --seed \
    --arrival-rate --sweep-points --interarrival --policy --queue-cap --read-fraction --skew \
    --shards --cross-fraction --net --tenants --tenant-weights --fairness --snapshot";

fn parse_args() -> Args {
    parse_args_from(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// Parse the command line. `Err` carries the message for an argument
/// that is neither a known flag nor a plausible path.
fn parse_args_from(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        check: false,
        kind: None,
        threads: None,
        jobs: DEFAULT_JOBS,
        reps: DEFAULT_REPS,
        tick_ns: DEFAULT_TICK_NS,
        seed: DEFAULT_SEED,
        arrival_rate: None,
        sweep_points: DEFAULT_SWEEP_POINTS,
        interarrival: Interarrival::Exponential,
        policy: None,
        queue_cap: None,
        open_only: false,
        read_fraction: None,
        skew: None,
        snapshots: vec![false],
        shards: vec![1],
        cross_fraction: 0.1,
        net: false,
        tenants: None,
        tenant_weights: None,
        fairness_modes: vec![false, true],
        path: "BENCH_rt.json".into(),
    };
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().unwrap_or_else(|| panic!("{flag} takes a value"));
        match a.as_str() {
            "--check" => args.check = true,
            "--open-only" => args.open_only = true,
            "--kind" => {
                let v = value("--kind");
                args.kind = Some(v.parse().unwrap_or_else(|e| panic!("{e}")));
            }
            "--threads" => {
                let v = value("--threads");
                let list: Vec<usize> = v
                    .split(',')
                    .map(|t| t.trim().parse().expect("--threads: integer list"))
                    .collect();
                assert!(!list.is_empty(), "--threads needs at least one value");
                args.threads = Some(list);
            }
            "--jobs" => args.jobs = value("--jobs").parse().expect("--jobs: integer"),
            "--reps" => {
                args.reps = value("--reps").parse().expect("--reps: integer");
                assert!(args.reps > 0, "--reps must be positive");
            }
            "--tick-ns" => args.tick_ns = value("--tick-ns").parse().expect("--tick-ns: integer"),
            "--seed" => args.seed = value("--seed").parse().expect("--seed: integer"),
            "--arrival-rate" => {
                let rate: f64 = value("--arrival-rate")
                    .parse()
                    .expect("--arrival-rate: jobs/sec");
                assert!(rate > 0.0, "--arrival-rate must be positive");
                args.arrival_rate = Some(rate);
            }
            "--sweep-points" => {
                args.sweep_points = value("--sweep-points")
                    .parse()
                    .expect("--sweep-points: integer");
                assert!(args.sweep_points > 0, "--sweep-points must be positive");
            }
            "--interarrival" => {
                let v = value("--interarrival");
                args.interarrival = v.parse().unwrap_or_else(|e| panic!("{e}"));
            }
            "--policy" => {
                let v = value("--policy");
                args.policy = Some(v.parse().unwrap_or_else(|e| panic!("{e}")));
            }
            "--queue-cap" => {
                args.queue_cap = Some(value("--queue-cap").parse().expect("--queue-cap: integer"));
            }
            "--read-fraction" => {
                let f: f64 = value("--read-fraction")
                    .parse()
                    .expect("--read-fraction: fraction in [0, 1]");
                assert!(
                    (0.0..=1.0).contains(&f),
                    "--read-fraction must be in [0, 1]"
                );
                args.read_fraction = Some(f);
            }
            "--skew" => {
                let theta: f64 = value("--skew").parse().expect("--skew: Zipf exponent");
                assert!(
                    theta.is_finite() && theta >= 0.0,
                    "--skew must be a finite non-negative exponent"
                );
                args.skew = Some(theta);
            }
            "--shards" => {
                let v = value("--shards");
                let list: Vec<usize> = v
                    .split(',')
                    .map(|t| t.trim().parse().expect("--shards: integer list"))
                    .collect();
                assert!(!list.is_empty(), "--shards needs at least one value");
                assert!(
                    list.iter().all(|&s| (1..=64).contains(&s)),
                    "--shards values must be in 1..=64"
                );
                args.shards = list;
            }
            "--cross-fraction" => {
                let f: f64 = value("--cross-fraction")
                    .parse()
                    .expect("--cross-fraction: fraction in [0, 1]");
                assert!(
                    (0.0..=1.0).contains(&f),
                    "--cross-fraction must be in [0, 1]"
                );
                args.cross_fraction = f;
            }
            "--net" => args.net = true,
            "--tenants" => {
                let n: usize = value("--tenants").parse().expect("--tenants: integer");
                assert!(
                    (2..=64).contains(&n),
                    "--tenants must be in 2..=64 (one tenant is the legacy single stream)"
                );
                args.tenants = Some(n);
            }
            "--tenant-weights" => {
                let v = value("--tenant-weights");
                let list: Vec<u64> = v
                    .split(',')
                    .map(|t| t.trim().parse().expect("--tenant-weights: integer list"))
                    .collect();
                assert!(
                    list.len() >= 2,
                    "--tenant-weights needs at least two tenants"
                );
                assert!(
                    list.iter().all(|&w| w > 0),
                    "--tenant-weights must be positive"
                );
                args.tenant_weights = Some(list);
            }
            "--fairness" => {
                let v = value("--fairness");
                args.fairness_modes = match v.to_ascii_lowercase().as_str() {
                    "on" | "true" => vec![true],
                    "off" | "false" => vec![false],
                    "both" | "ab" => vec![false, true],
                    other => panic!("--fairness: expected on, off or both, got `{other}`"),
                };
            }
            "--snapshot" => {
                let v = value("--snapshot");
                args.snapshots = match v.to_ascii_lowercase().as_str() {
                    "on" | "true" => vec![true],
                    "off" | "false" => vec![false],
                    "both" | "ab" => vec![false, true],
                    other => panic!("--snapshot: expected on, off or both, got `{other}`"),
                };
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}`; valid flags: {FLAGS}"));
            }
            path => args.path = path.to_string(),
        }
    }
    Ok(args)
}

/// Workload-mix tags carried on every record of a run, so baseline
/// matching is read-mix aware: `family` is `Some((read_fraction, skew))`
/// for the read-heavy workload family, and `snapshot` marks runs with
/// the lock-exempt snapshot path on. Absent tags mean the standard
/// workload / path off — old baselines without the keys keep matching.
#[derive(Clone, Copy)]
struct Mix {
    family: Option<(f64, f64)>,
    /// `Some(theta)` for the write-heavy Zipfian-hotspot family
    /// ([`rtdb_bench::hotspot_workload`]); records carry `"family":
    /// "hotspot"` plus the skew tag so they never match read-heavy or
    /// standard baselines.
    hotspot: Option<f64>,
    snapshot: bool,
    /// `Some((shards, partitions, cross_fraction))` for the sharded
    /// sweep: the manager's shard count, the workload's partition count
    /// (the sweep maximum, fixed across points) and the cross-partition
    /// probability. `None` for legacy unsharded runs, whose records stay
    /// untagged so old baselines keep matching.
    shard_axis: Option<(usize, usize, f64)>,
}

impl Mix {
    fn unsharded(family: Option<(f64, f64)>, snapshot: bool) -> Self {
        Mix {
            family,
            hotspot: None,
            snapshot,
            shard_axis: None,
        }
    }

    fn hotspot(theta: f64) -> Self {
        Mix {
            family: None,
            hotspot: Some(theta),
            snapshot: false,
            shard_axis: None,
        }
    }

    fn shards(self) -> usize {
        self.shard_axis.map_or(1, |(s, _, _)| s)
    }

    fn tag(self, mut rec: Json) -> Json {
        if let Some((read_fraction, skew)) = self.family {
            rec = rec.set("read_fraction", read_fraction).set("skew", skew);
        }
        if let Some(theta) = self.hotspot {
            rec = rec.set("family", "hotspot").set("skew", theta);
        }
        if self.snapshot {
            rec = rec.set("snapshot", true);
        }
        if let Some((shards, partitions, cross)) = self.shard_axis {
            rec = rec
                .set("shards", shards as u64)
                .set("partitions", partitions as u64)
                .set("cross_fraction", cross);
        }
        rec
    }
}

struct Band {
    priority: u32,
    hist: rt::LatencyHistogram,
}

/// Per-priority latency histograms over a run's committed jobs.
fn latency_bands(result: &rt::RtResult) -> Vec<Band> {
    let mut bands: Vec<Band> = Vec::new();
    for job in &result.jobs {
        let level = job.priority.level();
        let band = match bands.iter_mut().find(|b| b.priority == level) {
            Some(b) => b,
            None => {
                bands.push(Band {
                    priority: level,
                    hist: rt::LatencyHistogram::new(),
                });
                bands.last_mut().expect("just pushed")
            }
        };
        band.hist.record(job.latency_ns);
    }
    bands.sort_by_key(|b| std::cmp::Reverse(b.priority));
    bands
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// The abort-reason breakdown as a JSON object, plus the compact
/// `[wound N cascade N ...]` suffix the summary lines print (empty when
/// the run never aborted anything).
fn abort_reason_record(r: &AbortBreakdown) -> Json {
    Json::obj()
        .set("ceiling_block", r.ceiling_block)
        .set("deadlock_victim", r.deadlock_victim)
        .set("wound", r.wound)
        .set("cascade", r.cascade)
}

fn abort_reason_suffix(r: &AbortBreakdown) -> String {
    if r.total() == 0 {
        return String::new();
    }
    let mut parts = Vec::new();
    for (label, count) in [
        ("wound", r.wound),
        ("cascade", r.cascade),
        ("deadlock", r.deadlock_victim),
        ("ceiling", r.ceiling_block),
    ] {
        if count > 0 {
            parts.push(format!("{label} {count}"));
        }
    }
    format!(" [{}]", parts.join(", "))
}

/// Execute one protocol's closed-loop configuration `args.reps` times
/// and keep the median-throughput record (tagged with `"reps"`). Every
/// repetition runs the identical seeded job list; only the OS scheduler
/// varies between them.
fn measure(
    set: &TransactionSet,
    kind: ProtocolKind,
    threads: usize,
    mix: Mix,
    args: &Args,
) -> Json {
    let mut runs: Vec<(f64, Json)> = (0..args.reps)
        .map(|_| {
            let rec = measure_once(set, kind, threads, mix, args);
            let tps = rec
                .get("committed_per_sec")
                .and_then(Json::as_f64)
                .expect("closed-loop record carries committed_per_sec");
            (tps, rec)
        })
        .collect();
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (_, median) = runs.swap_remove(runs.len() / 2);
    median.set("reps", args.reps as u64)
}

/// One closed-loop run folded into a JSON record.
fn measure_once(
    set: &TransactionSet,
    kind: ProtocolKind,
    threads: usize,
    mix: Mix,
    args: &Args,
) -> Json {
    let jobs = rt::job_list(set, args.jobs, args.seed);
    let result = rt::run(
        set,
        &jobs,
        rt::RtConfig::new(kind)
            .with_threads(threads)
            .with_tick_ns(args.tick_ns)
            .with_snapshot_reads(mix.snapshot)
            .with_shards(mix.shards()),
    );
    assert_eq!(result.committed, jobs.len() as u64, "runtime dropped jobs");

    // One histogram per distinct base priority, highest first.
    let bands = latency_bands(&result);
    let band_records: Vec<Json> = bands
        .iter()
        .map(|b| {
            Json::obj()
                .set("priority", b.priority as u64)
                .set("jobs", b.hist.count())
                .set("p50_us", us(b.hist.quantile(0.50)))
                .set("p95_us", us(b.hist.quantile(0.95)))
                .set("p99_us", us(b.hist.quantile(0.99)))
                .set("max_us", us(b.hist.max()))
        })
        .collect();

    let throughput = result.throughput();
    println!(
        "{:<8} {:>3} threads {:>6} jobs {:>12.0} committed/sec {:>8} restarts {:>4} deadlocks{}",
        kind.name(),
        threads,
        args.jobs,
        throughput,
        result.restarts,
        result.deadlocks_resolved,
        abort_reason_suffix(&result.abort_reasons),
    );
    for b in &bands {
        println!(
            "  prio {:>3}: {:>4} jobs  p50 {:>9.1}us  p95 {:>9.1}us  p99 {:>9.1}us  max {:>9.1}us",
            b.priority,
            b.hist.count(),
            us(b.hist.quantile(0.50)),
            us(b.hist.quantile(0.95)),
            us(b.hist.quantile(0.99)),
            us(b.hist.max()),
        );
    }

    let mut rec = Json::obj()
        .set("mode", "closed-loop")
        .set("protocol", kind.name())
        .set("threads", threads as u64)
        .set("jobs", args.jobs as u64)
        .set("seed", args.seed)
        .set("tick_ns", args.tick_ns)
        .set("elapsed_ms", result.elapsed.as_secs_f64() * 1_000.0)
        .set("committed", result.committed)
        .set("committed_per_sec", throughput)
        .set("restarts", result.restarts)
        .set("abort_reasons", abort_reason_record(&result.abort_reasons))
        .set("deadlocks_resolved", result.deadlocks_resolved)
        .set("park_timeout_wakeups", result.park_timeout_wakeups)
        .set("bands", Json::Arr(band_records));
    if result.snapshot_reads {
        rec = rec
            .set("snapshots", result.snapshots)
            .set("lock_transitions", result.lock_transitions)
            .set("mv_high_water", result.mv_high_water as u64);
    }
    if result.shards > 1 {
        let shard_records: Vec<Json> = result
            .per_shard
            .iter()
            .map(|s| {
                Json::obj()
                    .set("shard", s.shard as u64)
                    .set("ops", s.ops)
                    .set("commits", s.commits)
                    .set("state_lock_acquires", s.state_lock_acquires)
                    .set("ceiling_publishes", s.ceiling_publishes)
            })
            .collect();
        rec = rec
            .set("cross_shard_txns", result.cross_shard_txns)
            .set("per_shard", Json::Arr(shard_records));
    }
    mix.tag(rec)
}

/// One open-loop run, either in-process or through the loopback TCP
/// edge — same schedule, same report shape, selected by `--net`.
fn run_open(set: &TransactionSet, p: &OpenLoopParams, net: bool) -> OpenLoopReport {
    if net {
        rtdb_bench::netload::run_net_open_loop(set, p).expect("networked open-loop run")
    } else {
        rtdb_bench::loadgen::run_open_loop(set, p)
    }
}

/// Fold one open-loop sweep point into a JSON record.
fn open_loop_record(report: &OpenLoopReport, point: usize, mix: Mix, net: bool) -> Json {
    let p = &report.params;
    let r = &report.result;
    let band_records: Vec<Json> = r
        .misses_by_priority()
        .iter()
        .map(|b| {
            Json::obj()
                .set("priority", b.priority as u64)
                .set("committed", b.committed)
                .set("missed", b.missed)
                .set("miss_ratio", b.ratio())
        })
        .collect();

    println!(
        "{:<8} open-loop {:>10.0} jobs/sec offered: {:>4} committed {:>4} shed {:>4} rejected  miss {:>6.1}%  queue p95 {:>9.1}us  service p95 {:>9.1}us",
        p.kind.name(),
        p.arrival_rate,
        r.committed,
        r.shed,
        r.rejected,
        100.0 * r.miss_ratio(),
        us(report.queue_hist.quantile(0.95)),
        us(report.service_hist.quantile(0.95)),
    );

    let mut rec = Json::obj()
        .set("mode", "open-loop")
        .set("protocol", p.kind.name())
        .set("threads", p.threads as u64)
        .set("jobs", p.jobs as u64)
        .set("seed", p.seed)
        .set("tick_ns", p.tick_ns)
        .set("point", point as u64)
        .set("arrival_rate", p.arrival_rate)
        .set("interarrival", p.interarrival.to_string())
        .set("policy", p.policy.to_string())
        .set("queue_cap", p.capacity as u64)
        .set("offered", report.offered)
        .set("committed", r.committed)
        .set("shed", r.shed)
        .set("rejected", r.rejected)
        .set("committed_per_sec", r.throughput())
        .set("miss_ratio", r.miss_ratio())
        .set("abort_reasons", abort_reason_record(&r.abort_reasons))
        .set("park_timeout_wakeups", r.park_timeout_wakeups)
        .set("queue_p50_us", us(report.queue_hist.quantile(0.50)))
        .set("queue_p95_us", us(report.queue_hist.quantile(0.95)))
        .set("queue_p99_us", us(report.queue_hist.quantile(0.99)))
        .set("service_p50_us", us(report.service_hist.quantile(0.50)))
        .set("service_p95_us", us(report.service_hist.quantile(0.95)))
        .set("service_p99_us", us(report.service_hist.quantile(0.99)))
        .set("bands", Json::Arr(band_records));
    if net {
        rec = rec.set("net", true);
    }
    if p.deadline_scale > 1 {
        rec = rec.set("deadline_scale", p.deadline_scale);
    }
    if r.snapshot_reads {
        rec = rec
            .set("snapshots", r.snapshots)
            .set("lock_transitions", r.lock_transitions)
            .set("mv_high_water", r.mv_high_water as u64);
    }
    mix.tag(rec)
}

/// Measured saturation rate for one protocol: a short closed-loop
/// calibration run, capped by the first-order [`service_capacity`]
/// estimate. The estimate alone knows nothing about blocking or
/// lock-manager overhead and can sit several times above the real
/// ceiling, which would leave every sweep point saturated; the min
/// guards against a calibration run inflated by scheduler luck.
fn calibrated_ceiling(
    set: &TransactionSet,
    kind: ProtocolKind,
    threads: usize,
    args: &Args,
) -> f64 {
    let jobs = rt::job_list(set, 200, args.seed);
    let cal = rt::run(
        set,
        &jobs,
        rt::RtConfig::new(kind)
            .with_threads(threads)
            .with_tick_ns(args.tick_ns),
    );
    cal.throughput()
        .min(service_capacity(set, threads, args.tick_ns))
}

/// Sweep-top offered rate for one protocol: the explicit `--arrival-rate`
/// if given, else 1.5× the measured saturation rate.
fn top_rate(set: &TransactionSet, kind: ProtocolKind, threads: usize, args: &Args) -> f64 {
    args.arrival_rate
        .unwrap_or_else(|| DEFAULT_OVERLOAD * calibrated_ceiling(set, kind, threads, args))
}

/// Run the saturation sweep for one protocol, lowest offered rate first.
fn measure_open_loop(
    set: &TransactionSet,
    kind: ProtocolKind,
    threads: usize,
    rate: f64,
    mix: Mix,
    args: &Args,
) -> Vec<Json> {
    let base = OpenLoopParams {
        kind,
        threads,
        tick_ns: args.tick_ns,
        jobs: args.jobs,
        arrival_rate: rate,
        interarrival: args.interarrival,
        policy: args.policy.unwrap_or(rt::AdmissionPolicy::Reject),
        capacity: args.queue_cap.unwrap_or(DEFAULT_QUEUE_CAP),
        snapshot: mix.snapshot,
        shards: mix.shards(),
        tenant_weights: Vec::new(),
        fairness: None,
        deadline_scale: 1,
        seed: args.seed,
    };
    (1..=args.sweep_points)
        .map(|k| {
            let mut p = base.clone();
            p.arrival_rate = rate * k as f64 / args.sweep_points as f64;
            let report = run_open(set, &p, args.net);
            open_loop_record(&report, k, mix, args.net)
        })
        .collect()
}

/// The multi-tenant overload scenario: tenants split the offered rate by
/// weight, 2× the measured saturation rate, slack-aware shedding —
/// fairness off and on replay the *identical* schedule, so the records
/// are an A/B on the budget mechanism alone.
fn measure_scenario(
    set: &TransactionSet,
    kind: ProtocolKind,
    threads: usize,
    weights: &[u64],
    args: &Args,
) -> Vec<Json> {
    let ceiling = args.arrival_rate.map_or_else(
        || calibrated_ceiling(set, kind, threads, args),
        |r| r / SCENARIO_OVERLOAD,
    );
    let rate = SCENARIO_OVERLOAD * ceiling;
    // Budget the *measured* ceiling, not the raw thread capacity: under
    // contention the real ceiling sits far below `threads` seconds of
    // service per second, and a budget no tenant can exhaust enforces
    // nothing. Three further corrections matter at benchmark scale:
    //
    // * the per-job cost is weighted by arrival share (∝ 1/period,
    //   matching the schedule), not the unweighted template mean;
    // * the ceiling is a closed-loop number — an open-loop run under
    //   shedding and blocking delivers roughly half of it, and since
    //   queued sheds are refunded, a tenant's *net* spend is its commit
    //   flow; the equal share is therefore halved so a hogging tenant's
    //   commit flow really can exceed it;
    // * the burst is one queue's worth of mean-cost jobs — enough to
    //   forgive the light tenant's Poisson clumps, small enough that the
    //   heavy tenant's sustained overdraft blows through it early in the
    //   run (a default quarter-second burst would mask every debt).
    let arrival_weights: Vec<f64> = set
        .templates()
        .iter()
        .map(|t| 1.0 / t.period.raw() as f64)
        .collect();
    let wsum: f64 = arrival_weights.iter().sum();
    let arrival_cost_ns: f64 = set
        .templates()
        .iter()
        .zip(&arrival_weights)
        .map(|(t, w)| w / wsum * t.wcet().raw() as f64 * args.tick_ns as f64)
        .sum();
    let cap = args.queue_cap.unwrap_or(SCENARIO_QUEUE_CAP);
    let budget = rt::FairnessConfig {
        refill_per_sec: rt::FairnessConfig::for_capacity(
            ceiling / 2.0,
            arrival_cost_ns,
            weights.len(),
        )
        .refill_per_sec,
        burst_ns: ((cap as f64 * arrival_cost_ns) as u64).max(1),
    };
    args.fairness_modes
        .iter()
        .map(|&fairness| {
            let p = OpenLoopParams {
                kind,
                threads,
                tick_ns: args.tick_ns,
                jobs: args.jobs,
                arrival_rate: rate,
                interarrival: args.interarrival,
                policy: args.policy.unwrap_or(rt::AdmissionPolicy::LeastSlack),
                capacity: args.queue_cap.unwrap_or(SCENARIO_QUEUE_CAP),
                snapshot: false,
                shards: 1,
                tenant_weights: weights.to_vec(),
                fairness: fairness.then_some(budget),
                deadline_scale: SCENARIO_DEADLINE_SCALE,
                seed: args.seed,
            };
            // The same median-of-reps treatment as the closed loop, keyed
            // on the headline metric: a single threaded run's fail ratios
            // swing several points with scheduler noise.
            let mut runs: Vec<(f64, OpenLoopReport)> = (0..args.reps)
                .map(|_| {
                    let report = run_open(set, &p, args.net);
                    (low_rate_fail_ratio(&report, weights), report)
                })
                .collect();
            runs.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (_, median) = runs.swap_remove(runs.len() / 2);
            scenario_record(set, &median, fairness, args.net).set("reps", args.reps as u64)
        })
        .collect()
}

/// The scenario's headline metric for one run: the low-rate tenant's
/// fail ratio (lowest weight, ties toward the lowest tenant index).
fn low_rate_fail_ratio(report: &OpenLoopReport, weights: &[u64]) -> f64 {
    let low = weights
        .iter()
        .enumerate()
        .min_by_key(|&(i, &w)| (w, i))
        .map(|(i, _)| i)
        .expect("scenario has at least one tenant");
    report
        .result
        .tenants
        .iter()
        .find(|r| r.tenant as usize == low)
        .map_or(0.0, |r| r.fail_ratio())
}

/// Fold one scenario run into a JSON record: the open-loop base plus the
/// scenario tags, per-tenant rows and per-priority shed counts.
fn scenario_record(
    set: &TransactionSet,
    report: &OpenLoopReport,
    fairness: bool,
    net: bool,
) -> Json {
    let p = &report.params;
    let r = &report.result;
    println!(
        "scenario multi-tenant-overload: fairness {}{}",
        if fairness { "on" } else { "off" },
        if net { ", via TCP edge" } else { "" },
    );
    let base = open_loop_record(report, 0, Mix::unsharded(None, false), net);
    let tenant_rows: Vec<Json> = r
        .tenants
        .iter()
        .map(|t| {
            let weight = p.tenant_weights.get(t.tenant as usize).copied().unwrap_or(1);
            println!(
                "  tenant {} (weight {}): {:>4} offered {:>4} committed {:>4} shed {:>4} rejected {:>4} missed  fail {:>5.1}%",
                t.tenant,
                weight,
                t.offered(),
                t.committed,
                t.shed,
                t.rejected,
                t.missed,
                100.0 * t.fail_ratio(),
            );
            Json::obj()
                .set("tenant", t.tenant as u64)
                .set("weight", weight)
                .set("offered", t.offered())
                .set("committed", t.committed)
                .set("missed", t.missed)
                .set("shed", t.shed)
                .set("rejected", t.rejected)
                .set("miss_ratio", t.miss_ratio())
                .set("fail_ratio", t.fail_ratio())
        })
        .collect();
    // Per-priority shed counts: the queue's per-template telemetry
    // folded through the set's base priorities, highest first.
    let mut shed_bands: Vec<(u32, u64)> = Vec::new();
    for (txn, &count) in r.shed_by_txn.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let level = set.priority_of(TxnId(txn as u32)).level();
        match shed_bands.iter_mut().find(|(l, _)| *l == level) {
            Some((_, c)) => *c += count,
            None => shed_bands.push((level, count)),
        }
    }
    shed_bands.sort_by_key(|&(l, _)| std::cmp::Reverse(l));
    let shed_records: Vec<Json> = shed_bands
        .iter()
        .map(|&(level, count)| Json::obj().set("priority", level as u64).set("shed", count))
        .collect();
    let weight_list: Vec<Json> = p.tenant_weights.iter().map(|&w| Json::from(w)).collect();
    base.set("scenario", "multi-tenant-overload")
        .set("fairness", fairness)
        .set("tenant_weights", Json::Arr(weight_list))
        .set("tenants", Json::Arr(tenant_rows))
        .set("shed_by_priority", Json::Arr(shed_records))
}

/// The identity keys two records must share to be comparable: everything
/// that parameterizes a run.
fn config_keys(rec: &Json) -> &'static [&'static str] {
    // Open-loop committed/sec tracks the offered rate below saturation,
    // so records only compare when the offered rate matches too —
    // auto-calibrated sweeps (whose top moves with measured capacity)
    // simply skip the check; explicit `--arrival-rate` runs match.
    if rec.get("mode").and_then(Json::as_str) == Some("open-loop") {
        &[
            "mode",
            "protocol",
            "threads",
            "jobs",
            "tick_ns",
            "point",
            "policy",
            "interarrival",
            "arrival_rate",
            "family",
            "read_fraction",
            "skew",
            "snapshot",
            "shards",
            "partitions",
            "cross_fraction",
            "net",
            "scenario",
            "fairness",
            "tenant_weights",
            "deadline_scale",
        ]
    } else {
        &[
            "mode",
            "protocol",
            "threads",
            "jobs",
            "tick_ns",
            "family",
            "read_fraction",
            "skew",
            "snapshot",
            "shards",
            "partitions",
            "cross_fraction",
        ]
    }
}

fn keys_match(a: &Json, b: &Json, keys: &[&str]) -> bool {
    keys.iter().all(|&k| match (a.get(k), b.get(k)) {
        (Some(x), Some(y)) => x.to_string_compact() == y.to_string_compact(),
        // Mix tags are only written when set, so two records both
        // lacking a key agree on it (and old baselines keep matching).
        (None, None) => true,
        _ => false,
    })
}

/// Baseline record matching this run's mode and configuration.
fn baseline_of<'a>(baseline: &'a [Json], rec: &Json) -> Option<&'a Json> {
    baseline
        .iter()
        .find(|b| keys_match(b, rec, config_keys(rec)))
}

fn short_label(rec: &Json) -> String {
    format!(
        "{} ({}{}{}{} @{}t)",
        rec.get("protocol").and_then(Json::as_str).unwrap_or("?"),
        rec.get("mode").and_then(Json::as_str).unwrap_or("?"),
        rec.get("point")
            .and_then(Json::as_i64)
            .map(|p| format!(" p{p}"))
            .unwrap_or_default(),
        rec.get("skew")
            .and_then(Json::as_f64)
            .map(|s| format!(" θ={s}"))
            .unwrap_or_default(),
        rec.get("shards")
            .and_then(Json::as_i64)
            .map(|s| format!(" {s}sh"))
            .unwrap_or_default(),
        rec.get("threads").and_then(Json::as_i64).unwrap_or(0),
    )
}

/// Warn-only snapshot A/B summary: for every snapshot-on record with a
/// same-config snapshot-off twin (same mix, everything but the
/// snapshot tag), print the throughput delta; collect a warning when
/// enabling the path *costs* throughput.
fn snapshot_summary(records: &[Json], warnings: &mut Vec<String>) {
    let snapshot_of = |r: &Json| r.get("snapshot").and_then(Json::as_bool) == Some(true);
    for rec in records.iter().filter(|r| snapshot_of(r)) {
        let keys: Vec<&str> = config_keys(rec)
            .iter()
            .copied()
            .filter(|&k| k != "snapshot")
            .collect();
        let Some(twin) = records
            .iter()
            .filter(|r| !snapshot_of(r))
            .find(|r| keys_match(r, rec, &keys))
        else {
            continue;
        };
        let (Some(off_tps), Some(on_tps)) = (
            twin.get("committed_per_sec").and_then(Json::as_f64),
            rec.get("committed_per_sec").and_then(Json::as_f64),
        ) else {
            continue;
        };
        if off_tps <= 0.0 {
            continue;
        }
        let delta = (on_tps - off_tps) / off_tps * 100.0;
        let label = short_label(rec);
        eprintln!("snapshot A/B {label}: on {on_tps:.0}/s vs off {off_tps:.0}/s ({delta:+.1}%)");
        // Below saturation an open-loop run commits what is offered, so
        // small negative deltas are sampling noise; warn only on real
        // regressions, same tolerance as everywhere else.
        if delta < -100.0 * REGRESSION_TOLERANCE {
            warnings.push(format!(
                "snapshot A/B {label}: the snapshot path costs throughput ({delta:+.1}%)"
            ));
        }
    }
}

/// Warn-only fairness A/B summary: for every scenario record with
/// fairness on and a fairness-off twin (same config, same schedule),
/// compare the *low-rate* tenant's fail ratio — the number the budgets
/// exist to protect. Warn when fairness fails to improve it.
fn fairness_summary(records: &[Json], warnings: &mut Vec<String>) {
    let fairness_of = |r: &Json| r.get("fairness").and_then(Json::as_bool) == Some(true);
    let scenario_of = |r: &Json| r.get("scenario").is_some();
    // The tenant row with the smallest weight (ties: lowest tenant id —
    // rows are already tenant-sorted).
    let low_rate_row = |r: &Json| -> Option<Json> {
        let rows = r.get("tenants")?.as_array()?;
        rows.iter()
            .min_by_key(|row| row.get("weight").and_then(Json::as_i64).unwrap_or(i64::MAX))
            .cloned()
    };
    for rec in records.iter().filter(|r| scenario_of(r) && fairness_of(r)) {
        let keys: Vec<&str> = config_keys(rec)
            .iter()
            .copied()
            .filter(|&k| k != "fairness")
            .collect();
        let Some(twin) = records
            .iter()
            .filter(|r| scenario_of(r) && !fairness_of(r))
            .find(|r| keys_match(r, rec, &keys))
        else {
            continue;
        };
        let (Some(on), Some(off)) = (low_rate_row(rec), low_rate_row(twin)) else {
            continue;
        };
        let (Some(on_fail), Some(off_fail)) = (
            on.get("fail_ratio").and_then(Json::as_f64),
            off.get("fail_ratio").and_then(Json::as_f64),
        ) else {
            continue;
        };
        let label = short_label(rec);
        eprintln!(
            "fairness A/B {label}: low-rate tenant fail ratio {:.1}% (on) vs {:.1}% (off)",
            100.0 * on_fail,
            100.0 * off_fail,
        );
        if off_fail > 0.0 && on_fail >= off_fail {
            warnings.push(format!(
                "fairness A/B {label}: budgets did not improve the low-rate tenant \
                 ({:.1}% on vs {:.1}% off)",
                100.0 * on_fail,
                100.0 * off_fail,
            ));
        }
    }
}

/// The Zipfian-hotspot sweep line-up: the two early-release kinds plus
/// the blocking / abort-based baselines they are meant to beat as skew
/// rises.
const HOTSPOT_KINDS: [ProtocolKind; 4] = [
    ProtocolKind::PcpDa,
    ProtocolKind::TwoPlHp,
    ProtocolKind::Bamboo,
    ProtocolKind::Brook2Pl,
];
/// Skew points of the default full line-up's hotspot sweep.
const HOTSPOT_SKEWS: [f64; 4] = [0.0, 0.6, 0.9, 1.2];

fn main() {
    let args = parse_args();
    // `--read-fraction` (optionally with `--skew`) selects the read-heavy
    // family; `--skew` alone selects the write-heavy Zipfian-hotspot
    // family the early-release protocols sweep.
    let family = args.read_fraction.map(|f| (f, args.skew.unwrap_or(0.0)));
    let hotspot_family = if args.read_fraction.is_none() {
        args.skew
    } else {
        None
    };
    // A non-trivial `--shards` sweep replaces the workload with the
    // partitioned family sized at the sweep's *maximum* shard count, so
    // every point measures the identical item distribution and only the
    // manager sharding varies (the router rule nests: partitioning for
    // the max count also partitions for every divisor of it, and a
    // single-shard template stays single-shard under fewer shards).
    let sharded_sweep = args.shards.iter().any(|&s| s > 1);
    if sharded_sweep {
        if let Some(kind) = args.kind {
            if !kind.shardable() {
                let valid: Vec<&str> = ProtocolKind::ALL
                    .iter()
                    .filter(|k| k.shardable())
                    .map(|k| k.name())
                    .collect();
                eprintln!(
                    "{} cannot run sharded; shardable protocols: {}",
                    kind.name(),
                    valid.join(", ")
                );
                std::process::exit(2);
            }
        }
        if family.is_some() || hotspot_family.is_some() {
            eprintln!(
                "--shards > 1 uses the partitioned workload family; \
                 it cannot combine with --read-fraction / --skew"
            );
            std::process::exit(2);
        }
    }
    let max_shards = args.shards.iter().copied().max().unwrap_or(1);
    let set = match (family, hotspot_family) {
        (Some((read_fraction, skew)), _) => {
            rtdb_bench::read_heavy_workload(args.seed, read_fraction, skew)
        }
        (None, Some(theta)) => rtdb_bench::hotspot_workload(args.seed, theta),
        (None, None) if sharded_sweep => {
            rtdb_bench::partitioned_workload(args.seed, max_shards, args.cross_fraction)
        }
        (None, None) => rtdb_bench::standard_workload(args.seed),
    };
    let baseline: Option<Vec<Json>> = std::fs::read_to_string(&args.path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|json| json.as_array().map(<[Json]>::to_vec));

    // Naming tenants (`--tenants` / `--tenant-weights`) runs *only* the
    // multi-tenant overload scenario: its records answer a different
    // question (who gets shed under overload) and the full line-up
    // around it would bury that answer in runtime.
    let scenario_only = args.tenants.is_some() || args.tenant_weights.is_some();
    let closed_kinds: Vec<ProtocolKind> = if args.open_only || scenario_only {
        Vec::new()
    } else {
        match args.kind {
            Some(k) => vec![k],
            // The hotspot family answers one question — does early
            // release beat blocking as skew rises — so its default
            // line-up is the four kinds that question is about.
            None if hotspot_family.is_some() => HOTSPOT_KINDS.to_vec(),
            None => ProtocolKind::STANDARD.to_vec(),
        }
    };
    // The open-loop sweep defaults to the paper's protocol and the
    // abort-based baseline; a full nine-protocol sweep belongs in
    // figures.rs, not the load generator.
    let open_kinds: Vec<ProtocolKind> = match args.kind {
        Some(k) => vec![k],
        None => vec![ProtocolKind::PcpDa, ProtocolKind::TwoPlHp],
    };
    let closed_threads: Vec<usize> = args
        .threads
        .clone()
        .unwrap_or_else(|| DEFAULT_THREAD_SWEEP.to_vec());
    // The open loop keeps a single thread count: its sweep axis is
    // offered load, and a full threads × rate square would blow the
    // runtime budget.
    let open_threads: usize = match args.threads.as_deref() {
        Some([single]) => *single,
        _ => DEFAULT_THREADS,
    };

    let mut records = Vec::new();
    for &shards in &args.shards {
        for &kind in &closed_kinds {
            if shards > 1 && !kind.shardable() {
                eprintln!(
                    "skipping {} at {shards} shards (not shardable)",
                    kind.name()
                );
                continue;
            }
            for &threads in &closed_threads {
                for &snapshot in &args.snapshots {
                    // Tag every point of a sharded sweep — including
                    // shards == 1 — because the partitioned workload
                    // differs from the legacy standard one and its
                    // records must never match untagged baselines.
                    let shard_axis =
                        sharded_sweep.then_some((shards, max_shards, args.cross_fraction));
                    let mix = Mix {
                        family,
                        hotspot: hotspot_family,
                        snapshot,
                        shard_axis,
                    };
                    records.push(measure(&set, kind, threads, mix, &args));
                }
            }
        }
    }
    // The read-heavy sweep of the default full line-up: PCP-DA at 95/5,
    // three Zipf exponents, snapshot off vs on — the A/B that the
    // snapshot path exists for. Explicit `--read-fraction` /
    // `--skew` runs already measure their own family above.
    if args.kind.is_none()
        && !args.open_only
        && !scenario_only
        && family.is_none()
        && hotspot_family.is_none()
        && !sharded_sweep
    {
        let family_threads: Vec<usize> = match args.threads.as_deref() {
            Some([single]) => vec![*single],
            _ => vec![4, 8],
        };
        for &skew in &[0.0, 0.6, 0.9] {
            let rh = rtdb_bench::read_heavy_workload(args.seed, 0.95, skew);
            for &threads in &family_threads {
                for snapshot in [false, true] {
                    let mix = Mix::unsharded(Some((0.95, skew)), snapshot);
                    records.push(measure(&rh, ProtocolKind::PcpDa, threads, mix, &args));
                }
            }
        }
        // Open-loop A/B at the steepest skew: both settings sweep the
        // *same* offered rates (calibration runs snapshot-off), so a
        // later saturation point — higher committed/sec at the top,
        // fewer rejects, lower miss ratio — is attributable to the
        // snapshot path alone.
        let rh = rtdb_bench::read_heavy_workload(args.seed, 0.95, 0.9);
        let rate = top_rate(&rh, ProtocolKind::PcpDa, open_threads, &args);
        for snapshot in [false, true] {
            let mix = Mix::unsharded(Some((0.95, 0.9)), snapshot);
            records.extend(measure_open_loop(
                &rh,
                ProtocolKind::PcpDa,
                open_threads,
                rate,
                mix,
                &args,
            ));
        }
        // The Zipfian-hotspot sweep of the default full line-up: the
        // early-release pair against the blocking / abort-based
        // baselines, write-heavy long transactions, skew as the axis.
        // The crossover this measures — early release pulling the p99
        // bands down as θ rises while blocking kinds convoy on the hot
        // lock — is the committed headline of the dependency-tracking
        // subsystem. Eight workers on purpose (not DEFAULT_THREADS):
        // over-subscribing the box deepens the hot-lock queue, which is
        // the regime where the tail separation shows.
        let hotspot_threads: Vec<usize> = match args.threads.as_deref() {
            Some([single]) => vec![*single],
            _ => vec![8],
        };
        for &theta in &HOTSPOT_SKEWS {
            let hw = rtdb_bench::hotspot_workload(args.seed, theta);
            for &threads in &hotspot_threads {
                for &kind in &HOTSPOT_KINDS {
                    let mix = Mix::hotspot(theta);
                    records.push(measure(&hw, kind, threads, mix, &args));
                }
            }
        }
    }
    // The open-loop sweeps honour `--shards` too: calibration runs once
    // per protocol (unsharded), so every shard count
    // sweeps the *same* offered rates and the records compare like for
    // like; sharded points carry the shard-axis tags, so they never
    // masquerade as standard-workload baselines.
    if !scenario_only {
        for &kind in &open_kinds {
            let rate = top_rate(&set, kind, open_threads, &args);
            for &shards in &args.shards {
                if shards > 1 && !kind.shardable() {
                    eprintln!(
                        "skipping {} open loop at {shards} shards (not shardable)",
                        kind.name()
                    );
                    continue;
                }
                let shard_axis = sharded_sweep.then_some((shards, max_shards, args.cross_fraction));
                for &snapshot in &args.snapshots {
                    let mix = Mix {
                        family,
                        hotspot: hotspot_family,
                        snapshot,
                        shard_axis,
                    };
                    records.extend(measure_open_loop(
                        &set,
                        kind,
                        open_threads,
                        rate,
                        mix,
                        &args,
                    ));
                }
            }
        }
    }
    // The multi-tenant overload scenario: explicitly requested via
    // `--tenants` / `--tenant-weights`, and part of the default full
    // line-up (PCP-DA, two tenants at 1:8, fairness off vs on). The 1:8
    // asymmetry keeps the light tenant inside its equal-share budget on
    // *offered* load (2/9 of 2x the ceiling < a 1/4-ceiling share) while
    // the hog clearly exceeds it; at 1:4 the separation is marginal and
    // scheduler noise can swallow the fairness effect.
    if scenario_only
        || (args.kind.is_none() && family.is_none() && hotspot_family.is_none() && !sharded_sweep)
    {
        let weights: Vec<u64> = args.tenant_weights.clone().unwrap_or_else(|| {
            let n = args.tenants.unwrap_or(2);
            let mut w = vec![1u64; n];
            w[n - 1] = 8;
            w
        });
        let kind = args.kind.unwrap_or(ProtocolKind::PcpDa);
        records.extend(measure_scenario(&set, kind, open_threads, &weights, &args));
    }

    let mut warnings = Vec::new();
    for rec in &records {
        if let Some(base) = baseline.as_deref().and_then(|b| baseline_of(b, rec)) {
            let old = base.get("committed_per_sec").and_then(Json::as_f64);
            let new = rec.get("committed_per_sec").and_then(Json::as_f64);
            if let (Some(old), Some(new)) = (old, new) {
                let delta = (new - old) / old * 100.0;
                let label = short_label(rec);
                eprintln!("{label}: {delta:+.1}% vs baseline ({old:.0} -> {new:.0})");
                if delta < -100.0 * REGRESSION_TOLERANCE {
                    warnings.push(format!(
                        "{label}: {delta:+.1}% (baseline {old:.0}, measured {new:.0})"
                    ));
                }
            }
        }
    }
    snapshot_summary(&records, &mut warnings);
    fairness_summary(&records, &mut warnings);

    if !warnings.is_empty() {
        // Advisory only: threaded wall-clock throughput on shared hardware
        // is too noisy for a hard gate, but regressions should be visible.
        eprintln!(
            "WARNING: runtime throughput dropped beyond {:.0}% on:",
            100.0 * REGRESSION_TOLERANCE
        );
        for w in &warnings {
            eprintln!("  {w}");
        }
    }

    if args.check {
        if baseline.is_none() {
            eprintln!("no baseline at {} -- nothing to check against", args.path);
        }
        println!(
            "check done: {} warning(s) (advisory, always exit 0)",
            warnings.len()
        );
    } else {
        std::fs::write(&args.path, Json::Arr(records).pretty()).expect("output path writable");
        println!("written to {}", args.path);
    }
}

#[cfg(test)]
mod tests {
    use super::parse_args_from;

    fn parse(argv: &[&str]) -> Result<super::Args, String> {
        parse_args_from(argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn unknown_flag_is_an_error_listing_the_valid_flags() {
        // A removed flag must not turn its value into the output path.
        for argv in [&["--manager", "both"][..], &["--threds", "2"], &["-x"]] {
            let err = parse(argv).err().expect("unknown flag accepted");
            assert!(err.contains(argv[0]), "{err}");
            assert!(
                err.contains("--threads") && err.contains("--check"),
                "{err}"
            );
        }
    }

    #[test]
    fn only_a_non_dash_argument_is_the_path() {
        let args = parse(&["--check", "--threads", "2", "out.json"]).expect("valid line");
        assert!(args.check);
        assert_eq!(args.threads, Some(vec![2]));
        assert_eq!(args.path, "out.json");
        assert_eq!(parse(&[]).expect("empty line").path, "BENCH_rt.json");
    }
}
