//! What a person reads: the host line, the metric tables, and the two
//! multi-run modes (`all` and `agree`) that run each workload in a child
//! process of its own, so that memory high-water marks are per workload.

use crate::harness::{Ctx, Outcome};
use crate::spec::{self, MetricSpec};
use rtdb_util::Json;
use std::process::{Command, ExitCode, Stdio};

/// Where the contract lives, relative to the repository root every mode
/// runs from.
const CONTRACT: &str = "BENCHMARK.json";

fn env_or_unknown(name: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| "unknown".into())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, usize::from)
}

/// `nproc`, compiler, profile and commit: printed with every record.
fn host() -> Json {
    Json::obj()
        .set("nproc", nproc())
        .set("rustc", env_or_unknown("BENCH_RUSTC"))
        .set(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .set("commit", env_or_unknown("BENCH_COMMIT"))
}

pub fn host_line(workload: &str, ctx: &Ctx) {
    if let Some(w) = spec::WORKLOADS.iter().find(|w| w.name == workload) {
        eprintln!("{workload}: {}", w.why);
    }
    eprintln!(
        "{workload}: seed {} seconds {} trace {} host {}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.traced),
        host().to_string_compact()
    );
    if nproc() != spec::HOST_NPROC {
        eprintln!(
            "WARNING: this host has {} CPUs, the benchmark was sized on {}: thread counts are \
             fixed, so these numbers do not compare with the recorded baseline",
            nproc(),
            spec::HOST_NPROC
        );
    }
    if cfg!(debug_assertions) {
        eprintln!("WARNING: debug build; measure release builds only");
    }
}

pub fn print_metrics(workload: &str, outcome: &Outcome, table: &[MetricSpec]) {
    for m in table {
        if let Some(value) = outcome.metrics.get(m.name) {
            eprintln!("{workload:<14} {:<34} {value:>16.4} {}", m.name, m.unit);
        }
    }
    eprintln!(
        "{workload:<14} attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
}

/// The parsed result line of one child run.
struct Record {
    attempted: i64,
    failed: i64,
    metrics: Vec<(String, f64, String)>,
}

/// Run one workload pass in a child process and parse its result line.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let doc = Json::parse(line).map_err(|e| format!("{workload} result line: {e}"))?;
    if doc.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{workload} reported incorrect outputs"));
    }
    let int = |key: &str| doc.get(key).and_then(Json::as_i64).unwrap_or(-1);
    let Some(Json::Obj(pairs)) = doc.get("metrics") else {
        return Err(format!("{workload} result line has no metrics"));
    };
    Ok(Record {
        attempted: int("attempted"),
        failed: int("failed"),
        metrics: pairs
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                )
            })
            .collect(),
    })
}

fn contract() -> Result<Json, String> {
    let text = std::fs::read_to_string(CONTRACT)
        .map_err(|e| format!("{CONTRACT} (run from the repository root): {e}"))?;
    Json::parse(&text).map_err(|e| format!("{CONTRACT}: {e}"))
}

/// `--seconds`, else the contract's `run_seconds`; a twentieth under
/// `--smoke`.
fn run_seconds(asked: Option<f64>, smoke: bool) -> Result<f64, String> {
    let full = match asked {
        Some(s) => s,
        None => contract()?
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("run_seconds missing from the contract")?,
    };
    Ok(if smoke {
        full / spec::SMOKE_DIVISOR as f64
    } else {
        full
    })
}

fn fail(message: String) -> ExitCode {
    eprintln!("FATAL: {message}");
    ExitCode::FAILURE
}

/// Every workload, untraced then traced, each in its own process; every
/// metric by name with its unit; the records to `benchmark/out/`.
pub fn all(seed: u64, seconds: Option<f64>, smoke: bool) -> ExitCode {
    let seconds = match run_seconds(seconds, smoke) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let mut records = Vec::new();
    for w in &spec::WORKLOADS {
        for traced in [false, true] {
            let record = match child(w.name, seed, seconds, traced, smoke) {
                Ok(r) => r,
                Err(e) => return fail(e),
            };
            let mut metrics = Json::obj();
            for (name, value, unit) in &record.metrics {
                println!("{:<14} {name:<34} {value:>16.4} {unit}", w.name);
                metrics = metrics.set(name, *value);
            }
            println!(
                "{:<14} {:<34} {:>16} of {}",
                w.name,
                if traced {
                    "failed (traced pass)"
                } else {
                    "failed"
                },
                record.failed,
                record.attempted
            );
            records.push(
                Json::obj()
                    .set("workload", w.name)
                    .set("trace", traced)
                    .set("seed", seed)
                    .set("seconds", seconds)
                    .set("host", host())
                    .set("attempted", record.attempted)
                    .set("failed", record.failed)
                    .set("metrics", metrics),
            );
        }
    }
    let path = format!("benchmark/out/results-seed{seed}.json");
    let written = std::fs::create_dir_all("benchmark/out")
        .and_then(|()| std::fs::write(&path, Json::Arr(records).pretty() + "\n"));
    match written {
        Ok(()) => {
            println!("host {}", host().to_string_compact());
            println!("records written to {path}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(format!("{path}: {e}")),
    }
}

/// Run the untraced set twice, back to back, and hold each pair of values
/// against the metric's bound in the contract.
pub fn agree(seed: u64, seconds: Option<f64>) -> ExitCode {
    let (doc, seconds) = match contract().and_then(|d| Ok((d, run_seconds(seconds, false)?))) {
        Ok(x) => x,
        Err(e) => return fail(e),
    };
    let bound_of = |name: &str| -> Option<(f64, bool)> {
        let bound = doc.get("end_to_end")?.as_array()?.iter().find_map(|m| {
            (m.get("name")?.as_str()? == name).then_some(m.get("bound")?.as_f64()?)
        })?;
        let spec = spec::END_TO_END.iter().find(|m| m.name == name)?;
        Some((bound, spec.higher_is_better))
    };
    let mut sets: Vec<Vec<Record>> = Vec::new();
    for _ in 0..2 {
        let set: Result<Vec<Record>, String> = spec::WORKLOADS
            .iter()
            .map(|w| child(w.name, seed, seconds, false, false))
            .collect();
        match set {
            Ok(s) => sets.push(s),
            Err(e) => return fail(e),
        }
    }
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let mut failures = 0;
    for (w, (first, second)) in spec::WORKLOADS.iter().zip(sets[0].iter().zip(&sets[1])) {
        for ((name, a, _), (_, b, _)) in first.metrics.iter().zip(&second.metrics) {
            let Some((bound, higher)) = bound_of(name) else {
                return fail(format!("{name} has no bound in {CONTRACT}"));
            };
            // How much worse the second run reads than the first; a second
            // run that much better is the same disagreement.
            let worse = if higher { (a - b) / a } else { (b - a) / a };
            let pass = worse.abs() <= bound;
            failures += u32::from(!pass);
            println!(
                "{:<14} {name:<16} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.0}% {}",
                w.name,
                worse * 100.0,
                bound * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
        if first.failed != 0 || second.failed != 0 {
            println!(
                "{:<14} failed operations: {} and {}",
                w.name, first.failed, second.failed
            );
        }
    }
    println!("host {}", host().to_string_compact());
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        println!("{failures} pairs outside their bound");
        ExitCode::FAILURE
    }
}
