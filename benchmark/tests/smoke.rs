//! `all --smoke`: every workload at a twentieth of its length, untraced
//! and traced, each in its own process. Checks what the unit tests cannot:
//! that every workload really emits every metric the tables promise, under
//! a name the contract accepts, and that the whole thing is quick.

use std::collections::BTreeMap;
use std::process::Command;
use std::time::{Duration, Instant};

const WORKLOADS: usize = 7;
const END_TO_END: usize = 5;
const PER_LAYER: usize = 84;

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[test]
fn smoke_emits_every_metric_of_every_workload_quickly() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let started = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_rtdb-benchmark"))
        .args(["all", "--smoke", "--seed", "7"])
        .current_dir(root)
        .output()
        .expect("the benchmark binary runs");
    let took = started.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(took < Duration::from_secs(20), "smoke took {took:?}");

    // Lines are `workload metric value unit`; count the metrics of each
    // workload and check every name.
    let mut per_workload: BTreeMap<&str, usize> = BTreeMap::new();
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 4 || fields[2].parse::<f64>().is_err() {
            continue;
        }
        assert!(valid_name(fields[0]), "workload name {}", fields[0]);
        assert!(valid_name(fields[1]), "metric name {}", fields[1]);
        assert!(fields[2].parse::<f64>().unwrap().is_finite(), "{line}");
        *per_workload.entry(fields[0]).or_default() += 1;
    }
    assert_eq!(per_workload.len(), WORKLOADS, "{per_workload:?}");
    for (workload, metrics) in per_workload {
        assert_eq!(metrics, END_TO_END + PER_LAYER, "{workload}");
    }

    // The traced pass left one trace per workload behind.
    let traces = std::fs::read_dir(format!("{root}/benchmark/out"))
        .expect("benchmark/out exists")
        .filter_map(Result::ok)
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with("trace-") && name.ends_with(".jsonl")
        })
        .count();
    assert_eq!(traces, WORKLOADS);
}
