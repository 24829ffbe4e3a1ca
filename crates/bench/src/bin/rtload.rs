//! The runtime instrument: run rows of [`rtdb_bench::scenarios::SCENARIOS`]
//! against the threaded runtime and write one `BENCH_rt.<scenario>.jsonl`
//! per row, one compact record per line.
//!
//! ```sh
//! cargo run --release -p rtdb-bench --bin rtload                     # all seven -> ./BENCH_rt.*.jsonl
//! cargo run --release -p rtdb-bench --bin rtload -- hotspot sharded  # two of them
//! cargo run --release -p rtdb-bench --bin rtload -- --dir out closed # -> out/BENCH_rt.closed.jsonl
//! cargo run --release -p rtdb-bench --bin rtload -- --check          # measure, compare, write nothing
//! ```
//!
//! That is the whole command line: `--check`, `--dir DIR` (where the files
//! are read and written, default `.`) and scenario names. What a scenario
//! runs is the table's business, so a record `id` such as
//! `closed/PCP-DA/4t` names one configuration for good.
//!
//! **Closed loop**: a seeded job queue (`rt::job_list`) is drained by the
//! workers; every job runs to commit (aborts restart it), so the numbers
//! are wall-clock throughput and per-priority begin→commit latency. The
//! median-throughput repetition is kept: one ~100 ms run on a shared box
//! is one scheduler-noise sample.
//!
//! **Open loop**: arrivals follow a seeded Poisson schedule that does not
//! slow down when the system does, through the admission front-end with
//! `deadline = release + period·tick·deadline_scale`. Offered rates are
//! multiples of the configuration's measured ceiling
//! ([`calibrated_ceiling`]); A/B twins share one calibration, so both
//! sides are offered the identical rates.
//!
//! **Overload** (`tenants`, `tenants-net`): two tenants at 1:8 offer 2×
//! the ceiling under least-slack shedding, fairness budgets
//! ([`overload_budget`]) off and on over the identical schedule; the
//! median repetition by the low-rate tenant's fail ratio is kept.
//!
//! Every repetition's history is checked for conflict-serializability off
//! the clock; the kept record carries the count as `nonserializable_reps`.
//!
//! Before writing (with `--check`: instead of writing) each record is
//! compared with the line of the same `id` in the existing file, but only
//! with lines measured at this host's `available_parallelism`; otherwise
//! the scenario says that it compares nothing. A closed-loop
//! `committed_per_sec` down by more than 25 %, a B side more than 25 %
//! worse than its A side and non-serializable repetitions are listed as
//! warnings. The exit status is
//! always 0: threaded wall-clock numbers on a shared runner are too noisy
//! to gate merges on.

use rtdb::prelude::*;
use rtdb::rt;
use rtdb_bench::loadgen::{calibrated_ceiling, overload_budget, run_open_loop, OpenLoopParams};
use rtdb_bench::netload::run_net_open_loop;
use rtdb_bench::scenarios::{self, Mode, Point, Scenario, SCENARIOS, TENANT_WEIGHTS};
use rtdb_util::Json;
use std::collections::HashMap;

/// Advisory tolerance of the baseline and A/B comparisons.
const TOLERANCE: f64 = 0.25;
/// The field the baseline comparison reads: every record has it.
const CHECKED: &str = "committed_per_sec";
/// The closed-loop run that measures a configuration's ceiling before an
/// open loop is paced against it drains this share of the row's jobs.
const CALIBRATION_SHARE: usize = 10;

/// The command line: `(check, dir, scenarios)`.
type Args = (bool, String, Vec<&'static Scenario>);

/// Parse the command line; `Err` carries the message for anything but
/// `--check`, `--dir DIR` and scenario names.
fn parse_args_from(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut check, mut dir, mut scenarios) = (false, String::from("."), Vec::new());
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => check = true,
            "--dir" => dir = it.next().ok_or("--dir takes a directory")?,
            name => scenarios.push(scenarios::find(name)?),
        }
    }
    if scenarios.is_empty() {
        scenarios = SCENARIOS.iter().collect();
    }
    Ok((check, dir, scenarios))
}

/// What the numbers were measured on; stamped on every record.
struct Host {
    available_parallelism: u64,
    profile: &'static str,
    commit: String,
}

fn host() -> Host {
    let mut git = std::process::Command::new("git");
    let commit = match git.args(["describe", "--always", "--dirty"]).output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().into(),
        _ => "unknown".into(),
    };
    let debug = cfg!(debug_assertions);
    Host {
        available_parallelism: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        profile: if debug { "debug" } else { "release" },
        commit,
    }
}

/// One decimal: the histograms resolve ±12.5 %, finer digits are noise
/// that only widens the committed files.
fn tenth(x: f64) -> f64 {
    (x * 10.0).round() / 10.0
}

fn us(ns: u64) -> f64 {
    tenth(ns as f64 / 1e3)
}

/// Run `f` `reps` times and keep the run with the median key.
fn median_of<T>(reps: usize, f: impl FnMut(usize) -> (f64, T)) -> T {
    let mut runs: Vec<(f64, T)> = (0..reps).map(f).collect();
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    runs.swap_remove(runs.len() / 2).1
}

/// `[priority, cells(template)...]` for every template — generated sets
/// give each its own base priority — highest priority first.
fn by_priority(set: &TransactionSet, cells: impl Fn(usize) -> Vec<Json>) -> Json {
    let level = |t: usize| set.priority_of(TxnId(t as u32)).level();
    let mut templates: Vec<usize> = (0..set.len()).collect();
    templates.sort_by_key(|&t| std::cmp::Reverse(level(t)));
    let row = |t: usize| Json::Arr([level(t).into()].into_iter().chain(cells(t)).collect());
    Json::Arr(templates.into_iter().map(row).collect())
}

/// Counters both loops report.
fn runtime_counters(rec: Json, r: &rt::RtResult, nonserializable_reps: u64) -> Json {
    let reasons = &r.abort_reasons;
    let abort_reasons = [
        ("ceiling_block", reasons.ceiling_block),
        ("deadlock_victim", reasons.deadlock_victim),
        ("wound", reasons.wound),
        ("cascade", reasons.cascade),
    ]
    .into_iter()
    .filter(|&(_, n)| n > 0)
    .fold(Json::obj(), |o, (reason, n)| o.set(reason, n));
    let mut rec = rec
        .set("committed", r.committed)
        .set(CHECKED, tenth(r.throughput()))
        .set("restarts", r.restarts)
        .set("abort_reasons", abort_reasons)
        .set("deadlocks_resolved", r.deadlocks_resolved)
        .set("park_timeout_wakeups", r.park_timeout_wakeups)
        .set("nonserializable_reps", nonserializable_reps);
    if r.snapshot_reads {
        rec = rec
            .set("snapshots", r.snapshots)
            .set("lock_transitions", r.lock_transitions)
            .set("mv_high_water", r.mv_high_water);
    }
    if r.shards > 1 {
        rec = rec.set("cross_shard_txns", r.cross_shard_txns);
    }
    rec
}

/// One closed-loop configuration: `reps` runs of the identical job list,
/// the median-throughput one folded into `rec`.
fn closed(s: &Scenario, p: &Point, set: &TransactionSet, rec: Json) -> Json {
    let queue = rt::job_list(set, s.jobs, s.seed);
    let mut nonserializable = 0;
    let r = median_of(s.reps, |_| {
        let config = rt::RtConfig::new(p.kind)
            .with_threads(p.threads)
            .with_tick_ns(s.tick_ns)
            .with_snapshot_reads(p.snapshot)
            .with_shards(p.shards);
        let r = rt::run(set, &queue, config);
        assert_eq!(r.committed, s.jobs as u64, "runtime dropped jobs");
        nonserializable += u64::from(!r.is_conflict_serializable());
        (r.throughput(), r)
    });
    let mut bands = vec![rt::LatencyHistogram::new(); set.len()];
    for job in &r.jobs {
        bands[job.id.txn.index()].record(job.latency_ns);
    }
    let worst_p99 = bands.iter().map(|h| h.quantile(0.99)).max().unwrap_or(0);
    let band_rows = by_priority(set, |t| {
        let h = &bands[t];
        let latencies = [
            h.quantile(0.50),
            h.quantile(0.95),
            h.quantile(0.99),
            h.max(),
        ];
        let cells = latencies.map(|ns| us(ns).into());
        [h.count().into()].into_iter().chain(cells).collect()
    });
    let elapsed_ms = tenth(r.elapsed.as_secs_f64() * 1e3);
    let rec = rec.set("reps", s.reps).set("elapsed_ms", elapsed_ms);
    runtime_counters(rec, &r, nonserializable)
        .set("worst_p99_us", us(worst_p99))
        .set("bands", band_rows)
}

/// One open-loop point — a sweep position or the overload run — at its
/// multiple of the configuration's ceiling, folded into `rec`. `ceilings`
/// keeps one calibration per configuration, always at the A side's
/// settings.
fn open(
    s: &Scenario,
    p: &Point,
    set: &TransactionSet,
    ceilings: &mut HashMap<String, f64>,
    rec: Json,
) -> Json {
    let overload = p.mode != Mode::Open;
    let mut params = OpenLoopParams {
        kind: p.kind,
        threads: p.threads,
        tick_ns: s.tick_ns,
        jobs: s.jobs,
        arrival_rate: 0.0,
        policy: s.policy,
        capacity: s.queue_cap,
        snapshot: p.snapshot,
        shards: p.shards,
        tenant_weights: Vec::from(if overload { &TENANT_WEIGHTS[..] } else { &[] }),
        fairness: None,
        deadline_scale: s.deadline_scale,
        seed: s.seed,
    };
    let calibrate = || calibrated_ceiling(set, &params, s.jobs.div_ceil(CALIBRATION_SHARE));
    let key = format!("{}/{}/{}/{}", p.kind.name(), p.threads, p.theta, p.cross);
    let ceiling = *ceilings.entry(key).or_insert_with(calibrate);
    params.arrival_rate = s.overload * ceiling * p.k as f64 / s.sweep_points as f64;
    params.fairness = p.fairness.then(|| overload_budget(set, &params, ceiling));

    let reps = if overload { s.reps } else { 1 };
    let mut nonserializable = 0;
    let report = median_of(reps, |_| {
        let report = match p.mode {
            Mode::OverloadNet => run_net_open_loop(set, &params).expect("networked open-loop run"),
            _ => run_open_loop(set, &params),
        };
        nonserializable += u64::from(!report.result.is_conflict_serializable());
        (report.low_rate_fail_ratio(), report)
    });

    let ratio = |x: f64| (x * 1e4).round() / 1e4;
    let r = &report.result;
    let mut rec = rec
        .set("reps", reps)
        .set("arrival_rate", params.arrival_rate.round())
        .set("offered", report.offered)
        .set("shed", r.shed)
        .set("rejected", r.rejected)
        .set("miss_ratio", ratio(r.miss_ratio()));
    rec = runtime_counters(rec, r, nonserializable);
    for (name, hist) in [
        ("queue", &report.queue_hist),
        ("service", &report.service_hist),
    ] {
        for (label, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
            rec = rec.set(&format!("{name}_{label}_us"), us(hist.quantile(q)));
        }
    }
    // Per priority: committed, of those late, and shed by the queue —
    // least-slack victims concentrate where slack is thinnest.
    let mut bands = vec![[0u64; 2]; set.len()];
    for job in &r.jobs {
        bands[job.id.txn.index()][0] += 1;
        bands[job.id.txn.index()][1] += u64::from(job.missed_deadline());
    }
    let shed = |t: usize| r.shed_by_txn.get(t).copied().unwrap_or(0);
    let band_rows = by_priority(set, |t| {
        vec![bands[t][0].into(), bands[t][1].into(), shed(t).into()]
    });
    rec = rec.set("bands", band_rows);
    if !overload {
        return rec;
    }
    let tenant_rows = r.tenants.iter().map(|t| {
        Json::obj()
            .set("tenant", t.tenant)
            .set("weight", TENANT_WEIGHTS[t.tenant as usize])
            .set("offered", t.offered())
            .set("committed", t.committed)
            .set("missed", t.missed)
            .set("shed", t.shed)
            .set("rejected", t.rejected)
            .set("fail_ratio", ratio(t.fail_ratio()))
    });
    rec.set("low_rate_fail_ratio", ratio(report.low_rate_fail_ratio()))
        .set("tenants", Json::Arr(tenant_rows.collect()))
}

/// One measured record: its configuration, its `id` and its line.
struct Record {
    point: Point,
    id: String,
    json: Json,
}

impl Record {
    fn number(&self, field: &str) -> Option<f64> {
        self.json.get(field).and_then(Json::as_f64)
    }
}

/// Measure every record of `s`, jobs and repetitions divided by `scale`
/// (1 outside the smoke test).
fn run_scenario(s: &Scenario, host: &Host, scale: usize) -> Vec<Record> {
    let (jobs, reps) = (s.jobs.div_ceil(scale), s.reps.div_ceil(scale));
    let s = &Scenario { jobs, reps, ..*s };
    let mut ceilings = HashMap::new();
    let measure = |point: Point| {
        let id = s.id(&point);
        let set = s.workload(&point);
        let json = Json::obj()
            .set("id", id.as_str())
            .set("mode", format!("{:?}", point.mode))
            .set("protocol", point.kind.name())
            .set("threads", point.threads)
            .set("available_parallelism", host.available_parallelism)
            .set("profile", host.profile)
            .set("commit", host.commit.as_str())
            .set("jobs", s.jobs)
            .set("tick_ns", s.tick_ns)
            .set("seed", s.seed);
        let json = match point.mode {
            Mode::Closed => closed(s, &point, &set, json),
            _ => open(s, &point, &set, &mut ceilings, json),
        };
        let rec = Record { point, id, json };
        let headline = rec.number(s.headline).unwrap_or(f64::NAN);
        println!("{:<40} {} {headline}", rec.id, s.headline);
        rec
    };
    s.points().into_iter().map(measure).collect()
}

/// Print the delta of every record against the baseline line with the
/// same `id` measured at the same `available_parallelism`; collect drops
/// beyond the tolerance.
fn compare(records: &[Record], path: &str, host: &Host, warnings: &mut Vec<String>) {
    let here = Some(host.available_parallelism as f64);
    let number = |line: &Json, field| line.get(field).and_then(Json::as_f64);
    let baseline: HashMap<String, f64> = std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter(|line| number(line, "available_parallelism") == here)
        .filter_map(|line| Some((line.get("id")?.as_str()?.into(), number(&line, CHECKED)?)))
        .collect();
    if baseline.is_empty() {
        let n = host.available_parallelism;
        eprintln!(
            "skipped: {path} has no line measured at available_parallelism {n}, \
             and numbers across CPU counts do not compare"
        );
        return;
    }
    for rec in records {
        let (Some(&old), Some(new)) = (baseline.get(&rec.id), rec.number(CHECKED)) else {
            eprintln!("{}: no baseline line at this available_parallelism", rec.id);
            continue;
        };
        let delta = (new - old) / old * 100.0;
        let line = format!(
            "{}: {delta:+.1}% {CHECKED} vs baseline ({old:.0} -> {new:.0})",
            rec.id
        );
        eprintln!("{line}");
        // Open-loop throughput follows the freshly calibrated offered
        // rate, so only a closed-loop drop says something about the code.
        if delta < -100.0 * TOLERANCE && rec.point.mode == Mode::Closed {
            warnings.push(line);
        }
    }
}

/// The A/B summary over the row's declared axis: every B-side record
/// against its A side, on the row's headline metric.
fn ab_summary(s: &Scenario, records: &[Record], warnings: &mut Vec<String>) {
    let field = s.headline;
    for b in records {
        let a_side = s.a_side(&b.point);
        let Some(a) = records.iter().find(|r| Some(r.point) == a_side) else {
            continue;
        };
        let (Some(va), Some(vb)) = (a.number(field), b.number(field)) else {
            continue;
        };
        let line = format!("A/B {} vs {}: {field} {vb} vs {va}", b.id, a.id);
        eprintln!("{line}");
        let worse = match s.higher_is_better() {
            true => vb < va * (1.0 - TOLERANCE),
            false => vb > va * (1.0 + TOLERANCE),
        };
        if worse {
            warnings.push(format!("{line}: the B side is worse"));
        }
    }
}

fn main() {
    let (check, dir, scenarios) = parse_args_from(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}\nusage: rtload [--check] [--dir DIR] [SCENARIO...]");
        std::process::exit(2);
    });
    let host = host();
    let mut warnings = Vec::new();
    for s in scenarios {
        eprintln!("== {}: {}", s.name, s.why);
        let records = run_scenario(s, &host, 1);
        let path = format!("{dir}/BENCH_rt.{}.jsonl", s.name);
        compare(&records, &path, &host, &mut warnings);
        ab_summary(s, &records, &mut warnings);
        for rec in &records {
            if let Some(k) = rec.number("nonserializable_reps").filter(|&k| k > 0.0) {
                warnings.push(format!(
                    "{}: {k} repetition(s) left a non-serializable history",
                    rec.id
                ));
            }
        }
        if !check {
            let lines: String = records
                .iter()
                .map(|r| r.json.to_string_compact() + "\n")
                .collect();
            std::fs::create_dir_all(&dir).expect("output directory creatable");
            std::fs::write(&path, lines).expect("output path writable");
            println!("written to {path}");
        }
    }
    for w in &warnings {
        eprintln!("WARNING: {w}");
    }
    println!(
        "done: {} warning(s) (advisory, always exit 0)",
        warnings.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args_from(argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn command_line_is_check_dir_and_scenario_names() {
        let (check, dir, all) = parse(&[]).expect("empty line");
        assert_eq!(
            (check, dir.as_str(), all.len()),
            (false, ".", SCENARIOS.len())
        );
        for s in &SCENARIOS {
            let line = ["--check", "--dir", "out", s.name];
            let (check, dir, one) = parse(&line).expect("scenario name resolves");
            assert_eq!((check, dir.as_str(), one[0].name), (true, "out", s.name));
        }
        // Anything else — a typo, a flag of the old interpreter, a path —
        // is an error that lists the scenario names.
        for bad in ["closd", "--manager", "--threads", "-x", "out.json"] {
            let err = parse(&[bad, "2"]).expect_err("unknown argument accepted");
            assert!(
                err.contains(bad) && SCENARIOS.iter().all(|s| err.contains(s.name)),
                "{err}"
            );
        }
        assert!(parse(&["--dir"]).is_err());
    }

    #[test]
    fn every_row_runs_at_a_twentieth_and_every_record_is_whole() {
        let host = host();
        for s in &SCENARIOS {
            let records = run_scenario(s, &host, 20);
            assert_eq!(records.len(), s.points().len(), "{}", s.name);
            for rec in &records {
                let numbers = [
                    "threads",
                    "available_parallelism",
                    "nonserializable_reps",
                    CHECKED,
                ];
                for field in numbers.into_iter().chain([s.headline]) {
                    assert!(rec.number(field).is_some(), "{}: no {field}", rec.id);
                }
                for field in ["id", "profile", "commit", "protocol"] {
                    let text = rec.json.get(field).and_then(Json::as_str);
                    assert!(
                        text.is_some_and(|t| !t.is_empty()),
                        "{}: no {field}",
                        rec.id
                    );
                }
                if rec.point.mode != Mode::Closed {
                    let count = |f| rec.number(f).expect("open-loop accounting field");
                    let accounted = count("committed") + count("shed") + count("rejected");
                    assert_eq!(count("offered"), accounted, "{}: jobs leaked", rec.id);
                }
                let line = rec.json.to_string_compact();
                assert_eq!(Json::parse(&line).as_ref(), Ok(&rec.json), "{line}");
            }
        }
    }
}
