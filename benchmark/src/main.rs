//! The repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! rtdb-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one result line
//! rtdb-benchmark all   [--seed N] [--seconds S] [--smoke]        every workload, both passes
//! rtdb-benchmark agree [--seed N] [--seconds S]                  the untraced set twice, compared
//! ```
//!
//! Run it through `benchmark/run.sh`, which builds it first. Every mode
//! runs from the repository root.

mod closed;
mod fingerprint;
mod harness;
mod inputs;
mod net;
mod open;
mod probes;
mod report;
mod rtround;
mod scc;
mod schedule;
mod simoff;
mod spec;
mod stats;
mod trace;

use harness::{Ctx, Workload};
use rtdb::cc::ProtocolKind;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The command line, parsed.
struct Args {
    mode: Mode,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

enum Mode {
    One,
    All,
    Agree,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        mode: Mode::All,
        workload: None,
        seed: 7,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "all" => out.mode = Mode::All,
            "agree" => out.mode = Mode::Agree,
            "--workload" => {
                out.workload = Some(value("--workload")?);
                out.mode = Mode::One;
            }
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn workload(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "closed-pcpda" => Box::new(closed::Closed::contended(
            "closed-pcpda",
            ProtocolKind::PcpDa,
        )),
        "closed-rwpcp" => Box::new(closed::Closed::contended(
            "closed-rwpcp",
            ProtocolKind::RwPcp,
        )),
        "closed-2plhp" => Box::new(closed::Closed::contended(
            "closed-2plhp",
            ProtocolKind::TwoPlHp,
        )),
        "lockbound-1w" => Box::new(closed::Closed::lockbound()),
        "open-front" => Box::new(open::OpenFront::new()),
        "net-rtt" => Box::new(net::NetRtt::new()),
        "sim-offline" => Box::new(simoff::SimOffline::new()),
        _ => return None,
    })
}

/// One workload, one pass, in this process. Prints the result line.
fn one(name: &str, ctx: &Ctx, process_start: Instant) -> ExitCode {
    let Some(mut workload) = workload(name) else {
        eprintln!("unknown workload {name}");
        return ExitCode::from(2);
    };
    report::host_line(name, ctx);
    let mut tracer = trace::Tracer::new(process_start, ctx.traced);
    let table: &[spec::MetricSpec] = if ctx.traced {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    };
    match harness::drive(workload.as_mut(), ctx, &mut tracer) {
        Ok(outcome) => {
            if ctx.traced {
                let path = PathBuf::from(format!("benchmark/out/trace-{name}.jsonl"));
                if let Err(e) = tracer.write(&path) {
                    eprintln!("could not write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            report::print_metrics(name, &outcome, table);
            println!("{}", harness::result_line(&outcome, table));
            ExitCode::SUCCESS
        }
        Err(fatal) => {
            eprintln!("FATAL {name}: {fatal}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: rtdb-benchmark [all|agree] [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]");
            return ExitCode::from(2);
        }
    };
    match args.mode {
        Mode::One => {
            let ctx = Ctx {
                seed: args.seed,
                seconds: args.seconds.unwrap_or(1.0),
                traced: args.trace,
                smoke: args.smoke,
            };
            one(
                args.workload.as_deref().unwrap_or_default(),
                &ctx,
                process_start,
            )
        }
        Mode::All => report::all(args.seed, args.seconds, args.smoke),
        Mode::Agree => report::agree(args.seed, args.seconds),
    }
}
