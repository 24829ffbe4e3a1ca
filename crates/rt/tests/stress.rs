//! 8-thread × 9-protocol stress smoke run.
//!
//! Fixed seeds, short job queues, maximum contention churn (`tick_ns = 0`
//! means a worker's whole life is lock traffic). Asserts the run drains
//! (no hang, no panic) and — the classic concurrency bug — that no
//! update is lost: every committed write step must have bumped its item's
//! version exactly once, so per item the final database version equals
//! the number of Install events in the history, which in turn equals the
//! number of committed instances whose template writes the item.
//!
//! Gated to release builds: 9 protocols × 8 threads × 160 jobs of pure
//! mutex churn is a wasteful crawl under an unoptimized build, and CI
//! runs the release suite anyway.

use rtdb_core::ProtocolKind;
use rtdb_rt::{job_list, run, RtConfig};
use rtdb_sim::WorkloadParams;
use rtdb_storage::EventKind;
use rtdb_types::TransactionSet;
use std::collections::BTreeMap;

fn workload(seed: u64) -> TransactionSet {
    WorkloadParams {
        templates: 5,
        items: 10,
        target_utilization: 0.5,
        hotspot_items: 3,
        hotspot_prob: 0.6,
        seed,
        ..WorkloadParams::default()
    }
    .generate()
    .expect("workload generation")
    .set
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-gated: run with `cargo test --release -p rtdb-rt`"
)]
fn eight_threads_nine_protocols_no_lost_updates() {
    for kind in ProtocolKind::ALL {
        let set = workload(0x57E5 + kind as u64);
        let jobs = job_list(&set, 160, 23 + kind as u64);
        let rt = run(&set, &jobs, RtConfig::new(kind).with_threads(8));

        assert_eq!(rt.committed, jobs.len() as u64, "{kind:?}: dropped jobs");

        // Expected installs per item: each committed job writes each item
        // of its template's write set exactly once (the workspace stages
        // at most one value per item, and CCP's early installs are
        // deduplicated against the commit-time install).
        let mut expected: BTreeMap<_, u64> = BTreeMap::new();
        for job in &jobs {
            for item in set.template(job.txn).write_set() {
                *expected.entry(item).or_default() += 1;
            }
        }

        let mut installs: BTreeMap<_, u64> = BTreeMap::new();
        for e in rt.history.events() {
            if let EventKind::Install { item, .. } = e.kind {
                *installs.entry(item).or_default() += 1;
            }
        }
        assert_eq!(installs, expected, "{kind:?}: lost or duplicated install");

        for (&item, &count) in &expected {
            assert_eq!(
                rt.db.read(item).version,
                count,
                "{kind:?}: final version of {item:?} disagrees with its install count"
            );
        }
    }
}
