//! Stress smoke runs: 8 threads × every standard kind, and 32 threads of
//! lock-upgrade cycles.
//!
//! Fixed seeds, short job queues, maximum contention churn (`tick_ns = 0`
//! means a worker's whole life is lock traffic). Asserts the run drains
//! (no hang, no panic) and — the classic concurrency bug — that no
//! update is lost: every committed write step must have bumped its item's
//! version exactly once, so per item the final database version equals
//! the number of Install events in the history, which in turn equals the
//! number of committed instances whose template writes the item.
//!
//! Gated to release builds: every kind × 8 threads × 160 jobs of pure
//! mutex churn is a wasteful crawl under an unoptimized build, and CI
//! runs the release suite anyway.

use rtdb_core::ProtocolKind;
use rtdb_rt::{job_list, run, RtConfig};
use rtdb_sim::WorkloadParams;
use rtdb_storage::EventKind;
use rtdb_types::{ItemId, SetBuilder, Step, TransactionSet, TransactionTemplate};
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::Duration;

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
    for kind in ProtocolKind::STANDARD {
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

/// Three templates over three hot items, each reading two of them and
/// then writing both: two instances that have read a common item and both
/// ask to write it close a lock-upgrade cycle.
fn upgrade_hot_set() -> TransactionSet {
    let hot = [ItemId(0), ItemId(1), ItemId(2)];
    let mut b = SetBuilder::new();
    for i in 0..3 {
        let (x, y) = (hot[i], hot[(i + 1) % 3]);
        b.add(TransactionTemplate::new(
            format!("U{i}"),
            10 * (i as u64 + 1),
            vec![
                Step::read(x, 1),
                Step::read(y, 1),
                Step::write(x, 1),
                Step::write(y, 1),
            ],
        ));
    }
    b.build_rate_monotonic().expect("set")
}

/// The livelock a restart must not fall into (DESIGN.md §6c): a victim
/// aborted out of an upgrade cycle that restarts at once re-reads its
/// items and re-forms the cycle. At 32 threads on the upgrade-heavy hot
/// set, every kind that can deadlock — and 2PL-HP, which wounds instead —
/// commits every job, each kind within a watchdog rather than a join
/// that would hang. A few microseconds of work per step keep jobs
/// overlapping, so the cycles do form.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-gated: run with `cargo test --release -p rtdb-rt`"
)]
fn thirty_two_threads_of_upgrade_cycles_all_commit() {
    const WATCHDOG: Duration = Duration::from_secs(60);
    let kinds = ProtocolKind::STANDARD
        .into_iter()
        .filter(|k| k.may_deadlock() || *k == ProtocolKind::TwoPlHp);
    for kind in kinds {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let set = upgrade_hot_set();
            let jobs = job_list(&set, 640, 41 + kind as u64);
            let rt = run(
                &set,
                &jobs,
                RtConfig::new(kind).with_threads(32).with_tick_ns(10_000),
            );
            let _ = tx.send((rt.committed, jobs.len() as u64, rt.deadlocks_resolved));
        });
        let (committed, offered, deadlocks) = rx
            .recv_timeout(WATCHDOG)
            .unwrap_or_else(|e| panic!("{kind:?}: no result within {WATCHDOG:?} ({e})"));
        assert_eq!(committed, offered, "{kind:?}: dropped jobs");
        if kind == ProtocolKind::TwoPlPi {
            assert!(deadlocks > 0, "the set never closed an upgrade cycle");
        }
    }
}
