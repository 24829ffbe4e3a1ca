//! `rtdbsim` — run a workload file through the simulator and the
//! schedulability analysis from the command line.
//!
//! ```sh
//! rtdbsim workloads/example3.json                      # PCP-DA + summary
//! rtdbsim workloads/avionics.json --protocol rw-pcp --gantt
//! rtdbsim workloads/avionics.json --compare            # all protocols
//! rtdbsim workloads/avionics.json --analysis           # §9 admission
//! rtdbsim workloads/example3.json --horizon 50 --json  # machine output
//! ```
//!
//! ## Workload file format
//!
//! ```json
//! {
//!   "priority": "rate_monotonic",          // or "as_listed" (default)
//!   "templates": [
//!     {
//!       "name": "sensor",
//!       "period": 10,
//!       "offset": 0,                        // optional
//!       "instances": null,                  // optional cap
//!       "steps": [
//!         { "op": "write", "item": 0, "duration": 1 },
//!         { "op": "read",  "item": 1, "duration": 1 },
//!         { "op": "compute", "duration": 2 }
//!       ]
//!     }
//!   ]
//! }
//! ```

use rtdb::prelude::*;
use rtdb::sim::{gantt, sweep};
use rtdb_util::Json;
use std::process::ExitCode;

fn field_u64(obj: &Json, key: &str, what: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_i64)
        .and_then(|n| u64::try_from(n).ok())
        .ok_or_else(|| format!("{what}: `{key}` must be a non-negative integer"))
}

fn parse_step(step: &Json) -> Result<Step, String> {
    let duration = field_u64(step, "duration", "step")?;
    match step.get("op").and_then(Json::as_str) {
        Some("read") => Ok(Step::read(
            ItemId(field_u64(step, "item", "read step")? as u32),
            duration,
        )),
        Some("write") => Ok(Step::write(
            ItemId(field_u64(step, "item", "write step")? as u32),
            duration,
        )),
        Some("compute") => Ok(Step::compute(duration)),
        _ => Err("step: `op` must be \"read\", \"write\" or \"compute\"".to_string()),
    }
}

fn parse_workload(text: &str) -> Result<TransactionSet, String> {
    let file = Json::parse(text).map_err(|e| format!("workload parse error: {e}"))?;
    let templates = file
        .get("templates")
        .and_then(Json::as_array)
        .ok_or("workload: `templates` array is required")?;
    let mut builder = SetBuilder::new();
    for spec in templates {
        let name = spec
            .get("name")
            .and_then(Json::as_str)
            .ok_or("template: `name` string is required")?;
        let period = field_u64(spec, "period", "template")?;
        let offset = match spec.get("offset") {
            Some(_) => field_u64(spec, "offset", "template")?,
            None => 0,
        };
        let steps: Vec<Step> = spec
            .get("steps")
            .and_then(Json::as_array)
            .ok_or("template: `steps` array is required")?
            .iter()
            .map(parse_step)
            .collect::<Result<_, _>>()?;
        let mut t = TransactionTemplate::new(name.to_string(), period, steps).with_offset(offset);
        match spec.get("instances") {
            None | Some(Json::Null) => {}
            Some(n) => {
                let n = n
                    .as_i64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or("template: `instances` must be null or a non-negative integer")?;
                t = t.with_instances(n);
            }
        }
        builder.add(t);
    }
    match file.get("priority").and_then(Json::as_str) {
        Some("rate_monotonic") => builder.build_rate_monotonic(),
        Some("as_listed") | None => builder.build(),
        Some(other) => {
            let msg =
                "workload: unknown priority rule `{r}` (use \"rate_monotonic\" or \"as_listed\")";
            return Err(msg.replace("{r}", other));
        }
    }
    .map_err(|e| format!("invalid workload: {e}"))
}

struct Args {
    workload: String,
    protocol: String,
    horizon: Option<u64>,
    gantt: bool,
    json: bool,
    compare: bool,
    analysis: bool,
    trace: Option<String>,
}

fn usage() -> String {
    let names: Vec<&'static str> = ProtocolKind::ALL.iter().map(|k| k.name()).collect();
    format!(
        "usage: rtdbsim <workload.json> [--protocol NAME] [--horizon N] \
         [--gantt] [--json] [--compare] [--analysis] [--trace OUT.json]\n\
         protocols (case-insensitive): {} (default: {})",
        names.join(", "),
        ProtocolKind::PcpDa.name(),
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        protocol: "pcp-da".into(),
        horizon: None,
        gantt: false,
        json: false,
        compare: false,
        analysis: false,
        trace: None,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--protocol" => {
                args.protocol = it.next().ok_or("--protocol needs a value")?.clone();
            }
            "--horizon" => {
                args.horizon = Some(
                    it.next()
                        .ok_or("--horizon needs a value")?
                        .parse()
                        .map_err(|e| format!("bad horizon: {e}"))?,
                );
            }
            "--trace" => {
                args.trace = Some(it.next().ok_or("--trace needs a path")?.clone());
            }
            "--gantt" => args.gantt = true,
            "--json" => args.json = true,
            "--compare" => args.compare = true,
            "--analysis" => args.analysis = true,
            other if args.workload.is_empty() && !other.starts_with('-') => {
                args.workload = other.to_string();
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if args.workload.is_empty() {
        return Err(usage());
    }
    Ok(args)
}

fn config(args: &Args) -> SimConfig {
    let mut cfg = match args.horizon {
        Some(h) => SimConfig::with_horizon(h),
        None => SimConfig::default(),
    };
    // The CLI should always finish: resolve 2PL/Naive deadlocks by abort.
    cfg.resolve_deadlocks = true;
    cfg
}

fn print_summary(set: &TransactionSet, run: &RunResult) {
    println!("protocol: {}", run.protocol);
    println!(
        "instances: {}  committed: {}  aborts: {}",
        run.metrics.instances().count(),
        run.history.committed(),
        run.history.aborts()
    );
    println!(
        "deadline misses: {} ({:.2}%)  total blocking: {}  Max_Sysceil: {}",
        run.metrics.deadline_misses(),
        run.metrics.miss_ratio() * 100.0,
        run.metrics.total_blocking(),
        run.metrics.max_sysceil
    );
    println!("\nper-template:");
    println!(
        "  {:<14} {:>8} {:>6} {:>7} {:>9} {:>9} {:>9} {:>10} {:>9}",
        "name",
        "released",
        "done",
        "misses",
        "p50-resp",
        "p99-resp",
        "max-resp",
        "max-block",
        "restarts"
    );
    for (txn, m) in run.metrics.by_template() {
        let t = set.template(txn);
        let pct = |q| {
            run.metrics
                .response_percentile(txn, q)
                .map(|d| d.raw().to_string())
                .unwrap_or_else(|| "-".into())
        };
        println!(
            "  {:<14} {:>8} {:>6} {:>7} {:>9} {:>9} {:>9} {:>10} {:>9}",
            t.name,
            m.released,
            m.completed,
            m.deadline_misses,
            pct(0.5),
            pct(0.99),
            m.max_response,
            m.max_blocking,
            m.restarts
        );
    }
    let replay_ok = run.is_conflict_serializable();
    println!(
        "\nserializability (conflict graph): {}",
        if replay_ok { "OK" } else { "VIOLATED" }
    );
}

fn print_json(run: &RunResult) {
    let templates: Vec<Json> = run
        .metrics
        .by_template()
        .iter()
        .map(|(txn, m)| {
            Json::obj()
                .set("template", format!("{txn}"))
                .set("released", m.released)
                .set("completed", m.completed)
                .set("deadline_misses", m.deadline_misses)
                .set("max_response", m.max_response.raw())
                .set("mean_response", m.mean_response)
                .set("max_blocking", m.max_blocking.raw())
                .set("restarts", m.restarts)
        })
        .collect();
    let out = Json::obj()
        .set("protocol", run.protocol.to_string())
        .set("committed", run.history.committed())
        .set("aborts", run.history.aborts())
        .set("deadline_misses", run.metrics.deadline_misses())
        .set("miss_ratio", run.metrics.miss_ratio())
        .set("total_blocking", run.metrics.total_blocking().raw())
        .set("max_sysceil", run.metrics.max_sysceil.to_string())
        .set("serializable", run.is_conflict_serializable())
        .set("templates", Json::Arr(templates));
    println!("{}", out.pretty());
}

fn print_analysis(set: &TransactionSet) {
    println!(
        "{:<10} {:>14} {:>14} {:>12}",
        "protocol", "LL-admit", "RTA-admit", "breakdown-U"
    );
    for kind in AnalysisProtocol::all() {
        let rep = schedulable(set, kind);
        let (_, bu) = breakdown_utilization(set, kind);
        println!(
            "{:<10} {:>14} {:>14} {:>12.3}",
            kind.name(),
            rep.liu_layland_schedulable(),
            rep.rta_schedulable(),
            bu
        );
    }
    let repaired = rtdb::analysis::schedulable_repaired_pcpda(set);
    println!(
        "{:<10} {:>14} {:>14} {:>12}",
        "PCP-DA*",
        repaired.liu_layland_schedulable(),
        repaired.rta_schedulable(),
        "(chain B_i)"
    );
    println!("\nper-template blocking terms:");
    println!(
        "  {:<14} {:>8} {:>8} {:>8} {:>8} {:>10}",
        "name", "PCP-DA", "RW-PCP", "PCP", "CCP", "PCP-DA*"
    );
    for t in set.templates() {
        println!(
            "  {:<14} {:>8} {:>8} {:>8} {:>8} {:>10}",
            t.name,
            rtdb::analysis::worst_blocking(set, AnalysisProtocol::PcpDa, t.id),
            rtdb::analysis::worst_blocking(set, AnalysisProtocol::RwPcp, t.id),
            rtdb::analysis::worst_blocking(set, AnalysisProtocol::Pcp, t.id),
            rtdb::analysis::ccp_worst_blocking(set, t.id),
            rtdb::analysis::repaired_worst_blocking(set, t.id),
        );
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let text = match std::fs::read_to_string(&args.workload) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let set = match parse_workload(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    if args.analysis {
        print_analysis(&set);
        return ExitCode::SUCCESS;
    }

    if args.compare {
        match sweep::compare_protocols(&set, &config(&args), &ProtocolKind::STANDARD) {
            Ok(rows) => print!("{}", sweep::format_table(&rows)),
            Err(e) => {
                eprintln!("simulation failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }

    let kind = match args.protocol.parse::<ProtocolKind>() {
        Ok(k) => k,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let run = match Engine::new(&set, config(&args)).run_kind(kind) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simulation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.json {
        print_json(&run);
    } else {
        print_summary(&set, &run);
        if args.gantt {
            println!("\n{}", gantt::render(&set, &run.trace));
        }
    }
    if let Some(path) = &args.trace {
        if let Err(e) = std::fs::write(path, run.trace.to_json()) {
            eprintln!("cannot write trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("trace written to {path}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = r#"{
        "priority": "rate_monotonic",
        "templates": [
            {"name": "fast", "period": 10,
             "steps": [{"op": "write", "item": 0, "duration": 1},
                       {"op": "compute", "duration": 1}]},
            {"name": "slow", "period": 40, "offset": 2, "instances": 3,
             "steps": [{"op": "read", "item": 0, "duration": 2}]}
        ]
    }"#;

    #[test]
    fn parses_workload_files() {
        let set = parse_workload(EXAMPLE).unwrap();
        assert_eq!(set.len(), 2);
        assert!(set.priority_of(TxnId(0)) > set.priority_of(TxnId(1)));
        assert_eq!(set.template(TxnId(1)).offset, Tick(2));
        assert_eq!(set.template(TxnId(1)).instances, Some(3));
    }

    #[test]
    fn rejects_malformed_files() {
        assert!(parse_workload("{}").is_err());
        assert!(parse_workload("not json").is_err());
        let zero_period = r#"{"templates":[{"name":"a","period":0,
            "steps":[{"op":"compute","duration":1}]}]}"#;
        assert!(parse_workload(zero_period).is_err());
    }

    #[test]
    fn args_parse() {
        let a = parse_args(&[
            "w.json".into(),
            "--protocol".into(),
            "rw-pcp".into(),
            "--horizon".into(),
            "500".into(),
            "--gantt".into(),
        ])
        .unwrap();
        assert_eq!(a.workload, "w.json");
        assert_eq!(a.protocol, "rw-pcp");
        assert_eq!(a.horizon, Some(500));
        assert!(a.gantt);
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&["w.json".into(), "--bogus".into()]).is_err());
    }

    #[test]
    fn all_protocol_names_resolve() {
        // The historical CLI spellings must keep parsing (now through the
        // registry), along with every registry name in any case.
        for name in [
            "pcp-da",
            "pcp-da-literal",
            "literal",
            "rw-pcp",
            "rwpcp",
            "pcp",
            "ccp",
            "2pl-pi",
            "2pl-hp",
            "2plhp",
            "occ",
            "occ-bc",
            "naive-da",
        ] {
            assert!(name.parse::<ProtocolKind>().is_ok(), "{name}");
        }
        for kind in ProtocolKind::ALL {
            assert_eq!(kind.name().to_uppercase().parse(), Ok(kind));
        }
        let err = "nonsense".parse::<ProtocolKind>().unwrap_err();
        assert!(err.to_string().contains("PCP-DA"));
        assert!(usage().contains("Naive-DA"));
    }

    #[test]
    fn end_to_end_run() {
        let set = parse_workload(EXAMPLE).unwrap();
        let kind: ProtocolKind = "pcp-da".parse().unwrap();
        let run = Engine::new(&set, SimConfig::with_horizon(100))
            .run_kind(kind)
            .unwrap();
        assert!(run.history.committed() > 0);
        assert!(run.is_conflict_serializable());
    }
}
