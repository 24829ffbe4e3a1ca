//! Emit `BENCH_protocols.json`: engine throughput (ticks/sec) and engine
//! time per lock request (ns/lock-request) for every protocol of
//! [`ProtocolKind::STANDARD`] on the standard workload — the numbers the
//! repository tracks across PRs to watch the perf trajectory.
//!
//! ```sh
//! cargo run --release -p rtdb-bench --bin perf              # writes ./BENCH_protocols.json
//! cargo run --release -p rtdb-bench --bin perf -- out.json  # custom path
//! cargo run --release -p rtdb-bench --bin perf -- --check   # regression gate
//! ```
//!
//! Methodology: per protocol, two warm-up runs, then `SAMPLES` timed
//! batches of `RUNS_PER_SAMPLE` engine runs each. The reported
//! `ticks_per_sec` is the **median** of the per-batch throughputs; the
//! interquartile range is reported alongside so noisy hosts are visible
//! in the data rather than hidden in it. When a committed
//! `BENCH_protocols.json` is present, the % delta of every protocol
//! against it is printed to stderr.
//!
//! `--check [baseline.json]` measures without writing and exits nonzero
//! if any protocol's median throughput regressed more than 25% against
//! the baseline (default baseline: `BENCH_protocols.json`). `--horizon N`
//! changes the simulated horizon. Throughput depends on the horizon
//! (short runs never reach the workload's steady state), so the file
//! records the horizon it was measured at and `--check` only *enforces*
//! against baseline entries measured at the same horizon — mismatched
//! entries still print their delta, marked advisory.
//!
//! `ns_per_lock_request` divides *whole-engine* wall time by the number
//! of `request` calls, so it includes scheduling and storage — it is an
//! end-to-end cost per decision, not the isolated decision latency
//! (`benchmark/`'s `cc.decide_read_ns` probe measures that). The count
//! comes from the registry's [`AnyProtocol`] wrapper, which tallies
//! decisions inside the engine's statically dispatched loop — the timed
//! path has no `dyn` indirection on either the protocol or the view side.
//!
//! [`AnyProtocol`]: rtdb::sim::AnyProtocol

use rtdb::prelude::*;
use rtdb::sim::instantiate;
use rtdb_util::Json;
use std::time::Instant;

const DEFAULT_HORIZON: u64 = 10_000;
const WARMUPS: u32 = 2;
const SAMPLES: usize = 9;
const RUNS_PER_SAMPLE: u64 = 10;
/// A protocol fails `--check` if its median throughput drops by more
/// than this fraction of the baseline.
const REGRESSION_TOLERANCE: f64 = 0.25;

/// One engine run of `kind`, returning the number of protocol decisions.
fn run_once(set: &TransactionSet, kind: ProtocolKind, horizon: u64) -> u64 {
    let mut p = instantiate(kind);
    let mut cfg = SimConfig::with_horizon(horizon);
    if kind.may_deadlock() {
        cfg.resolve_deadlocks = true;
    }
    Engine::new(set, cfg)
        .run_any(&mut p)
        .expect("perf run succeeds");
    p.requests()
}

/// `p`-th quantile (0..=1) of an ascending-sorted slice, by linear
/// interpolation.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

struct Measurement {
    name: &'static str,
    median: f64,
    q1: f64,
    q3: f64,
    ns_per_request: f64,
    requests_per_run: u64,
    runs: u64,
}

fn measure(set: &TransactionSet, kind: ProtocolKind, horizon: u64) -> Measurement {
    for _ in 0..WARMUPS {
        run_once(set, kind, horizon);
    }

    let mut requests = 0u64;
    let mut throughputs = Vec::with_capacity(SAMPLES);
    let mut total_elapsed_ns = 0u128;
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        for _ in 0..RUNS_PER_SAMPLE {
            requests += run_once(set, kind, horizon);
        }
        let elapsed = t0.elapsed();
        total_elapsed_ns += elapsed.as_nanos();
        throughputs.push((horizon * RUNS_PER_SAMPLE) as f64 / elapsed.as_secs_f64());
    }
    throughputs.sort_by(|a, b| a.partial_cmp(b).expect("finite throughput"));

    let runs = SAMPLES as u64 * RUNS_PER_SAMPLE;
    Measurement {
        name: kind.name(),
        median: quantile(&throughputs, 0.5),
        q1: quantile(&throughputs, 0.25),
        q3: quantile(&throughputs, 0.75),
        ns_per_request: total_elapsed_ns as f64 / requests as f64,
        requests_per_run: requests / runs,
        runs,
    }
}

struct BaselineEntry {
    name: String,
    ticks_per_sec: f64,
    /// Horizon the baseline was measured at. Older files predate the
    /// field; their horizon is unknown.
    horizon: Option<u64>,
}

/// Per-protocol baseline from a committed benchmark file, if it exists
/// and parses.
fn load_baseline(path: &str) -> Option<Vec<BaselineEntry>> {
    let text = std::fs::read_to_string(path).ok()?;
    let json = Json::parse(&text).ok()?;
    let arr = json.as_array()?;
    let mut out = Vec::new();
    for rec in arr {
        out.push(BaselineEntry {
            name: rec.get("protocol")?.as_str()?.to_string(),
            ticks_per_sec: rec.get("ticks_per_sec")?.as_f64()?,
            horizon: rec
                .get("horizon")
                .and_then(|h| h.as_f64())
                .map(|h| h as u64),
        });
    }
    Some(out)
}

fn baseline_of<'a>(baseline: &'a [BaselineEntry], name: &str) -> Option<&'a BaselineEntry> {
    baseline.iter().find(|e| e.name == name)
}

struct Args {
    check: bool,
    horizon: u64,
    /// Output path (measure mode) or baseline path (`--check` mode).
    path: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        check: false,
        horizon: DEFAULT_HORIZON,
        path: "BENCH_protocols.json".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => args.check = true,
            "--horizon" => {
                let v = it.next().expect("--horizon takes a value");
                args.horizon = v.parse().expect("--horizon takes an integer");
            }
            other => args.path = other.to_string(),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let set = rtdb_bench::standard_workload(7);
    // In measure mode the committed file doubles as the comparison
    // baseline (before it is overwritten); in check mode it IS the path.
    let baseline = load_baseline(&args.path);

    println!(
        "{:<8} {:>12} {:>14} {:>17} {:>14}",
        "protocol", "ticks/sec", "IQR", "ns/lock-request", "requests/run"
    );
    let mut records = Vec::new();
    let mut regressions = Vec::new();
    for &kind in ProtocolKind::STANDARD.iter() {
        let m = measure(&set, kind, args.horizon);
        println!(
            "{:<8} {:>12.0} {:>14} {:>17.1} {:>14}",
            m.name,
            m.median,
            format!("{:.0}..{:.0}", m.q1, m.q3),
            m.ns_per_request,
            m.requests_per_run
        );
        if let Some(entry) = baseline.as_deref().and_then(|b| baseline_of(b, m.name)) {
            let base = entry.ticks_per_sec;
            let delta = (m.median - base) / base * 100.0;
            // Throughput is horizon-dependent (short runs never reach the
            // workload's steady state), so a delta against a baseline
            // measured at a different horizon is advisory only.
            let comparable = entry.horizon == Some(args.horizon);
            eprintln!(
                "{}: {delta:+.1}% vs baseline ({base:.0} -> {:.0}){}",
                m.name,
                m.median,
                if comparable {
                    ""
                } else {
                    " [advisory: baseline horizon differs]"
                }
            );
            if comparable && delta < -100.0 * REGRESSION_TOLERANCE {
                regressions.push(format!(
                    "{}: {delta:+.1}% (baseline {base:.0}, measured {:.0})",
                    m.name, m.median
                ));
            }
        }
        records.push(
            Json::obj()
                .set("protocol", m.name)
                .set("horizon", args.horizon)
                .set("ticks_per_sec", m.median)
                .set("ticks_per_sec_q1", m.q1)
                .set("ticks_per_sec_q3", m.q3)
                .set("ns_per_lock_request", m.ns_per_request)
                .set("lock_requests_per_run", m.requests_per_run)
                .set("runs", m.runs),
        );
    }

    if args.check {
        match baseline.as_deref() {
            None => eprintln!("no baseline at {} -- nothing to check against", args.path),
            Some(b) if !b.iter().any(|e| e.horizon == Some(args.horizon)) => eprintln!(
                "no baseline entry was measured at horizon {} -- deltas are advisory only",
                args.horizon
            ),
            _ => {}
        }
        if regressions.is_empty() {
            println!(
                "check passed: no protocol regressed more than {:.0}%",
                100.0 * REGRESSION_TOLERANCE
            );
        } else {
            eprintln!(
                "check FAILED: throughput regression beyond {:.0}%:",
                100.0 * REGRESSION_TOLERANCE
            );
            for r in &regressions {
                eprintln!("  {r}");
            }
            std::process::exit(1);
        }
    } else {
        std::fs::write(&args.path, Json::Arr(records).pretty()).expect("output path writable");
        println!("written to {}", args.path);
    }
}
