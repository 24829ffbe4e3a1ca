//! The benchmark's fixed vocabulary: workload names, metric names and
//! units, and the sizing constants. `BENCHMARK.json` at the repository
//! root lists exactly these names; a unit test keeps the two in step.

/// The host the sizing constants below were chosen on. Thread counts are
/// constants, not derived from the machine: a run on another CPU count is
/// still valid, but its numbers do not compare with the recorded baseline.
pub const HOST_NPROC: usize = 2;

/// Seed of the one transaction set every runtime workload runs. It is
/// part of the workload definition, not of `--seed`: `--seed` draws the
/// job lists, arrival schedules and analysis sets, so that two seeds
/// measure the same system under statistically equal input and their
/// numbers compare.
pub const SET_SEED: u64 = 7;

/// How often a run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPS: usize = 9;

/// `--smoke` divides every round and warm-up size by this.
pub const SMOKE_DIVISOR: u64 = 20;

/// Full job spans are kept for this many jobs per run; later jobs only
/// feed the aggregates.
pub const MAX_TRACED_JOBS: usize = 20_000;

/// A workload: its name and the one line saying why it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "closed-pcpda",
        why: "closed loop, PCP-DA, 2 workers: the paper's protocol under real blocking (park/wake, LC1-LC4, inheritance); the only one that shows the multi-core serializability defect",
    },
    WorkloadSpec {
        name: "closed-rwpcp",
        why: "same jobs under RW-PCP: the paper's comparator and the control, a change inside rtdb-cc must not move it",
    },
    WorkloadSpec {
        name: "closed-2plhp",
        why: "same jobs under 2PL-HP: wound/abort/backoff/restart instead of park/wake, so a gain for blocking that costs the abort path shows",
    },
    WorkloadSpec {
        name: "lockbound-1w",
        why: "1 worker, no busy-work, no contention: pure per-job cost of begin/decide/grant/commit/history; blocking layers idle, predicted unchanged by any blocking optimisation",
    },
    WorkloadSpec {
        name: "open-front",
        why: "open loop, Poisson arrivals at 2000 jobs/s into the admission front-end with deadlines: queue, dispatcher and deadline accounting do the work, latency from the scheduled arrival",
    },
    WorkloadSpec {
        name: "net-rtt",
        why: "one loopback client, one outstanding request, near-zero transaction work: wire codec, poll loop with its idle sleep and completion routing are the whole round trip",
    },
    WorkloadSpec {
        name: "sim-offline",
        why: "the paper-reproduction path: generate a set, simulate it under three protocols, run the schedulability analysis; deterministic, runtime untouched",
    },
];

/// A metric: name, unit, and which direction is better.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: true,
    }
}

/// End-to-end metrics: every workload reports every one of them.
pub const END_TO_END: [MetricSpec; 5] = [
    higher("goodput_per_s", "1/s"),
    lower("lat_p50_us", "us"),
    lower("top_lat_p50_us", "us"),
    lower("peak_rss_mb", "MiB"),
    lower("setup_s", "s"),
];

/// Per-layer metrics (traced pass). A workload that does not run a layer
/// reports that layer's metrics as 0.
pub const PER_LAYER: [MetricSpec; 84] = [
    // The end-to-end tails, without a bound: on the host this was sized on
    // they move by 20-50% between runs of one binary (see the README).
    lower("e2e.lat_p99_us", "us"),
    lower("e2e.top_lat_p99_us", "us"),
    // cc / baselines / core / storage: isolated probes, every traced run.
    lower("cc.decide_read_ns", "ns"),
    lower("baselines.rwpcp.decide_read_ns", "ns"),
    lower("baselines.2plhp.decide_read_ns", "ns"),
    lower("core.locktable_cycle_ns", "ns"),
    lower("storage.workspace_rw_ns", "ns"),
    // storage, seen through the oracles on each round's history.
    lower("storage.graph_build_ns_per_txn", "ns"),
    lower("storage.replay_ns_per_txn", "ns"),
    lower("storage.history_events_per_txn", "count"),
    lower("storage.conflict_edges_per_txn", "count"),
    // sim (sim-offline only).
    higher("sim.ticks_per_s", "1/s"),
    higher("sim.ticks_per_s.rwpcp", "1/s"),
    higher("sim.ticks_per_s.2plhp", "1/s"),
    lower("sim.ns_per_lock_request", "ns"),
    lower("sim.ns_per_lock_request.rwpcp", "ns"),
    lower("sim.ns_per_lock_request.2plhp", "ns"),
    lower("sim.lock_requests", "count"),
    lower("sim.lock_requests.rwpcp", "count"),
    lower("sim.lock_requests.2plhp", "count"),
    higher("sim.committed", "count"),
    higher("sim.committed.rwpcp", "count"),
    higher("sim.committed.2plhp", "count"),
    lower("sim.restarts", "count"),
    lower("sim.restarts.rwpcp", "count"),
    lower("sim.restarts.2plhp", "count"),
    lower("sim.max_blocking_ticks", "count"),
    lower("sim.max_distinct_lower_blockers", "count"),
    lower("sim.deadline_misses", "count"),
    lower("sim.workload_gen_us", "us"),
    // analysis (sim-offline only).
    higher("analysis.sets_per_s", "1/s"),
    lower("analysis.schedulable_us_per_set", "us"),
    lower("analysis.breakdown_us_per_set", "us"),
    // rt: runtime + manager, seen through RtResult / JobReport.
    lower("rt.fail_ratio", "ratio"),
    lower("rt.top_fail_ratio", "ratio"),
    lower("rt.service_excess_p50_us", "us"),
    lower("rt.service_excess_p99_us", "us"),
    lower("rt.block_events_per_job", "count"),
    lower("rt.blocked_job_share", "ratio"),
    lower("rt.lower_blockers_mean", "count"),
    lower("rt.lower_blockers_max", "count"),
    lower("rt.restarts_per_job", "count"),
    lower("rt.abort.wound", "count"),
    lower("rt.abort.deadlock_victim", "count"),
    lower("rt.abort.cascade", "count"),
    lower("rt.abort.ceiling_block", "count"),
    lower("rt.deadlocks_resolved", "count"),
    lower("rt.park_timeout_wakeups", "count"),
    lower("rt.lock_transitions_per_job", "count"),
    lower("rt.nonserializable_txns", "count"),
    lower("rt.nonserializable_components", "count"),
    lower("rt.replay_violations", "count"),
    lower("rt.low_lat_p99_us", "us"),
    lower("rt.job_list_us", "us"),
    lower("rt.run_wall_s", "s"),
    higher("rt.lockbound_2w_goodput_per_s", "1/s"),
    // rt.front / rt.admission (open-front; queue share also on net-rtt).
    lower("front.submit_call_p50_ns", "ns"),
    lower("front.submit_call_p99_ns", "ns"),
    lower("front.queue_p50_us", "us"),
    lower("front.queue_p99_us", "us"),
    lower("front.service_p50_us", "us"),
    lower("front.lat_p99_us", "us"),
    lower("front.missed_share", "ratio"),
    lower("front.rejected_share", "ratio"),
    lower("front.shed_share", "ratio"),
    lower("front.fail_ratio.r1000", "ratio"),
    lower("front.fail_ratio.r2000", "ratio"),
    lower("front.fail_ratio.r3000", "ratio"),
    higher("front.max_ok_rate_per_s", "1/s"),
    lower("front.queue_depth_max", "count"),
    lower("front.drain_ms", "ms"),
    lower("front.gen_lateness_p99_us", "us"),
    // net (net-rtt; codec probes on every traced run).
    lower("net.encode_ns", "ns"),
    lower("net.decode_ns", "ns"),
    lower("net.connect_us", "us"),
    lower("net.rtt_p50_us", "us"),
    lower("net.server_latency_p50_us", "us"),
    lower("net.wire_overhead_p50_us", "us"),
    lower("net.wire_overhead_p99_us", "us"),
    lower("net.accept_to_commit_p50_us", "us"),
    higher("net.pipelined_req_per_s", "1/s"),
    // harness.
    lower("trace.overhead_pct", "%"),
    higher("trace.spans", "count"),
    higher("harness.rounds", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb_util::Json;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_counts_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the program emits. They must say the same thing.
    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("{key} is an array"))
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let expect = |table: &[MetricSpec]| -> Vec<(String, String, String)> {
            table
                .iter()
                .map(|m| {
                    let better = if m.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    };
                    (m.name.to_string(), m.unit.to_string(), better.to_string())
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), expect(&END_TO_END));
        assert_eq!(names("per_layer"), expect(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
        for m in doc.get("end_to_end").and_then(Json::as_array).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        assert_eq!(
            doc.get("paths").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
    }
}
