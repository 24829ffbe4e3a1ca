//! Snapshot read path validation: zero-lock execution for read-only
//! jobs, snapshot-aware serializability for every protocol kind,
//! agreement with the simulator's lock-path final state, memory-flatness
//! of the epoch-GC'd version chains under a soak, and the snapshot
//! oracle catching a reader placed at the wrong stamp.

use rtdb_core::ProtocolKind;
use rtdb_rt::{run, run_jobs, RtConfig};
use rtdb_sim::{
    snapshot_serializability_violations, Engine, RunOutcome, SimConfig, Violation, WorkloadParams,
};
use rtdb_storage::mvcc::SWEEP_INTERVAL;
use rtdb_types::{InstanceId, SetBuilder, TransactionSet};

/// A read-heavy contended workload: the first `read_only` of `templates`
/// templates are pure readers; the rest write under Zipfian skew.
fn read_heavy_workload(seed: u64, templates: usize, read_only: usize) -> TransactionSet {
    WorkloadParams {
        templates,
        items: 12,
        target_utilization: 0.5,
        hotspot_items: 0,
        hotspot_prob: 0.0,
        zipf_theta: Some(0.6),
        read_only_templates: read_only,
        write_fraction: 0.7,
        seed,
        ..WorkloadParams::default()
    }
    .generate()
    .expect("workload generation")
    .set
}

/// The same workload bounded to two instances per template, so an
/// unhorizoned sim run completes (the sim-differential test needs it).
fn bounded(set: &TransactionSet) -> TransactionSet {
    let mut b = SetBuilder::new();
    for t in set.templates() {
        let mut t = t.clone();
        t.instances = Some(2);
        b.add(t);
    }
    b.build_rate_monotonic().expect("rebuild")
}

#[test]
fn read_only_workload_takes_zero_locks() {
    // Every template is read-only, so with the snapshot path on the lock
    // table must never transition — not one grant, release or conversion.
    let set = read_heavy_workload(0x51AB, 5, 5);
    let config = RtConfig::new(ProtocolKind::PcpDa)
        .with_threads(4)
        .with_snapshot_reads(true);
    let rt = run_jobs(&set, 200, 7, config);
    assert!(rt.snapshot_reads, "path should be active");
    assert_eq!(rt.committed, 200, "dropped jobs");
    assert_eq!(rt.snapshots, 200, "jobs leaked onto locks");
    assert_eq!(
        rt.lock_transitions, 0,
        "read-only workload touched the lock table"
    );
    assert_eq!(rt.restarts, 0, "snapshot readers never abort");
    // Every read resolves at stamp 0 (no writers ever sealed).
    assert!(rt.jobs.iter().all(|j| j.snapshot == Some(0)));

    // Control: the same workload through the lock manager does
    // transition the lock table.
    let off = run_jobs(&set, 200, 7, config.with_snapshot_reads(false));
    assert!(!off.snapshot_reads);
    assert_eq!(off.snapshots, 0);
    assert!(off.lock_transitions > 0, "control took no locks");
}

#[test]
fn snapshot_runs_are_serializable_for_all_kinds() {
    let set = read_heavy_workload(0x5EED, 6, 3);
    for kind in ProtocolKind::STANDARD {
        let config = RtConfig::new(kind)
            .with_threads(4)
            .with_snapshot_reads(true);
        let rt = run_jobs(&set, 240, 11, config);
        assert_eq!(rt.committed, 240, "{kind:?}: dropped jobs");
        assert_eq!(
            rt.snapshot_reads,
            kind.snapshot_exempt(),
            "{kind:?}: exemption gate disagrees with the registry"
        );
        if kind.snapshot_exempt() {
            assert!(rt.snapshots > 0, "{kind:?}: no snapshot commits");
            assert_eq!(
                rt.snapshot_stamps().len() as u64,
                rt.snapshots,
                "{kind:?}: stamps out of step with reader commits"
            );
        } else {
            // CCP's early installs disqualify it: its read-only jobs
            // keep taking locks and the run behaves as before.
            assert_eq!(rt.snapshots, 0, "{kind:?}: CCP must decline");
        }
        let commit_order_serialization = kind != ProtocolKind::Ccp;
        let violations = snapshot_serializability_violations(
            &set,
            &rt.history,
            &rt.db,
            commit_order_serialization,
            &rt.snapshot_stamps(),
        );
        assert!(violations.is_empty(), "{kind:?}: {violations:?}");
    }
}

#[test]
fn single_thread_replay_with_snapshots_matches_sim() {
    for kind in ProtocolKind::STANDARD {
        let set = bounded(&read_heavy_workload(0xD1FF + kind as u64, 4, 2));
        // The simulator runs every read through locks; snapshot readers
        // are invisible to writers, so the final state must agree.
        let mut sim_config = SimConfig::default();
        if kind.may_deadlock() {
            sim_config = sim_config.resolving_deadlocks();
        }
        let sim = Engine::new(&set, sim_config)
            .run_kind(kind)
            .expect("sim run");
        assert_eq!(sim.outcome, RunOutcome::Completed, "{kind:?} sim stalled");
        let jobs: Vec<InstanceId> = if kind == ProtocolKind::Ccp {
            sim.serialization_graph()
                .topological_order()
                .expect("sim history is acyclic")
        } else {
            sim.history.commit_order().to_vec()
        };
        let rt = run(
            &set,
            &jobs,
            RtConfig::new(kind)
                .with_threads(1)
                .with_snapshot_reads(true),
        );
        assert_eq!(rt.committed, jobs.len() as u64, "{kind:?}");
        // One live instance at a time: nothing aborts, nothing is held.
        assert_eq!(rt.restarts, 0, "{kind:?}");
        assert_eq!(
            rt.db.snapshot(),
            sim.db.snapshot(),
            "{kind:?}: final database diverged from the simulator"
        );
        let violations = snapshot_serializability_violations(
            &set,
            &rt.history,
            &rt.db,
            true,
            &rt.snapshot_stamps(),
        );
        assert!(violations.is_empty(), "{kind:?}: {violations:?}");
    }
}

#[test]
fn snapshot_soak_stays_memory_flat() {
    // Writers continuously republish two hot items while readers pin and
    // release snapshots; the epoch GC must keep every chain bounded by a
    // few sweep intervals however long the run is.
    let set = read_heavy_workload(0xF10A, 6, 4);
    let config = RtConfig::new(ProtocolKind::PcpDa)
        .with_threads(4)
        .with_snapshot_reads(true);
    let rt = run_jobs(&set, 6_000, 23, config);
    assert_eq!(rt.committed, 6_000);
    let sealed = rt.committed - rt.snapshots;
    assert!(sealed > 1_000, "soak sealed only {sealed} commits");
    assert!(rt.mv_high_water > 0, "writers never published");
    // Between two sweeps the floor stands still, so a hot chain holds the
    // interval being filled plus everything back to the floor the last
    // sweep computed — the oldest pin it saw. A reader that loses the CPU
    // across `s` sweeps pins `s` intervals back: (2 + s) intervals in all.
    // Two cores and four workers have shown s = 1 (high water 722); the
    // bound allows s = 2 and does not grow with the run.
    let bound = 4 * SWEEP_INTERVAL as usize;
    assert!(
        rt.mv_high_water <= bound,
        "version chains grew unbounded: high water {} (bound {bound}) across {sealed} commits",
        rt.mv_high_water
    );
}

#[test]
fn a_reader_moved_past_a_write_it_missed_is_caught() {
    // One worker: each reader's true stamp is exactly the lock-path
    // commits before it, and the oracle accepts those stamps.
    let set = read_heavy_workload(0x0BAD, 4, 2);
    let config = RtConfig::new(ProtocolKind::PcpDa)
        .with_threads(1)
        .with_snapshot_reads(true);
    let rt = run_jobs(&set, 200, 5, config);
    let stamps = rt.snapshot_stamps();
    assert!(!stamps.is_empty(), "no reader took the path");
    let check = |stamps: &[(InstanceId, u64)]| {
        snapshot_serializability_violations(&set, &rt.history, &rt.db, true, stamps)
    };
    assert_eq!(check(&stamps), []);

    // Move one reader to the stamp of a later lock-path commit that wrote
    // an item it read: at that stamp it should have seen that write.
    let index = rt.history.committed_index();
    let lock_path: Vec<InstanceId> = rt
        .history
        .commit_order()
        .iter()
        .copied()
        .filter(|&w| stamps.iter().all(|&(r, _)| r != w))
        .collect();
    // The stamp a lock-path commit seals: its 1-based position.
    let stamp_of = |writer| {
        let p = lock_path.iter().position(|&w| w == writer)?;
        Some(p as u64 + 1)
    };
    let (moved, wrong) = stamps
        .iter()
        .enumerate()
        .find_map(|(i, &(reader, stamp))| {
            let later = index
                .reads(reader)
                .iter()
                .flat_map(|read| index.installs(read.item))
                .filter_map(|&(_, writer)| stamp_of(writer))
                .find(|&k| k > stamp)?;
            Some((i, later))
        })
        .expect("some reader read an item written after its stamp");
    let mut shifted = stamps.clone();
    shifted[moved].1 = wrong;
    let violations = check(&shifted);
    assert!(
        violations.iter().any(|v| matches!(v,
            Violation::SnapshotInconsistency { reader, stamp, .. }
                if *reader == stamps[moved].0 && *stamp == wrong)),
        "moving {:?} from stamp {} to {wrong} went unseen: {violations:?}",
        stamps[moved].0,
        stamps[moved].1
    );
}
