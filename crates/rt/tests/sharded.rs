//! Validation of the sharded lock-manager architecture.
//!
//! The unsharded lock manager is the repo's runtime oracle; these tests
//! require sharded runs (1, 2 and 4 shards, every shardable protocol) to
//! produce serializable histories and — for serial executions — the
//! identical final database the oracle produces.
//! Shard isolation is asserted through the per-shard state-lock
//! acquisition counters: a workload whose items all live in one shard
//! must leave every other shard's counter at zero.

use rtdb_core::{AbortBreakdown, ProtocolKind, ShardRouter};
use rtdb_rt::{job_list, run, RtConfig, RtResult};
use rtdb_sim::{
    serializability_violations, snapshot_serializability_violations, Engine, RunOutcome, SimConfig,
    WorkloadParams,
};
use rtdb_storage::EventKind;
use rtdb_types::{
    InstanceId, ItemId, SetBuilder, Step, TransactionSet, TransactionTemplate, TxnId,
};
use rtdb_util::prop;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn shardable_kinds() -> impl Iterator<Item = ProtocolKind> {
    ProtocolKind::STANDARD.into_iter().filter(|k| k.shardable())
}

/// A contended workload over enough items that 4 shards all own some.
fn workload(seed: u64) -> TransactionSet {
    WorkloadParams {
        templates: 4,
        items: 12,
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

/// A set whose jobs mix, at 2 and at 4 shards alike, templates that stay
/// inside one shard with templates that span several — plus one pure
/// reader for the snapshot path to serve.
fn mixed_set() -> TransactionSet {
    let [r, w] = [Step::read, Step::write].map(|op| move |item| op(ItemId(item), 1));
    let set = SetBuilder::new()
        .with(TransactionTemplate::new("R", 10, vec![r(0), r(1), r(6)]))
        .with(TransactionTemplate::new("S0", 20, vec![r(0), w(4), r(8)]))
        .with(TransactionTemplate::new("S1", 30, vec![w(1), r(5), w(5)]))
        .with(TransactionTemplate::new("X01", 40, vec![r(0), w(1)]))
        .with(TransactionTemplate::new("X23", 50, vec![w(2), r(3), w(7)]))
        // Crosses 4 shards, stays inside shard 0 of 2.
        .with(TransactionTemplate::new("X02", 60, vec![r(4), w(2), w(6)]))
        .build()
        .expect("set");
    for shards in [2, 4] {
        let router = ShardRouter::new(shards);
        let crossing = (1..set.len() as u32)
            .filter(|&t| router.shards_of(&set, TxnId(t)).is_cross_shard())
            .count();
        assert_eq!(crossing, shards / 2 + 1, "writers crossing {shards} shards");
    }
    set
}

/// Serial (1-thread) sharded runs are real serial executions, so every
/// shard count must land on the byte-identical final database the
/// unsharded oracle produces — and pass the serializability oracle along
/// the way. One commit body serves the 1..k shards a job touches, so the
/// commit stream is the oracle's too: the same job at every commit index
/// and, with snapshot reads on, every reader served at the same stamp.
#[test]
fn serial_sharded_runs_match_the_unsharded_oracle() {
    for kind in shardable_kinds() {
        let seed = 0x5A4D + kind as u64;
        for (set, snapshot_reads) in [
            (workload(seed), false),
            (mixed_set(), false),
            (mixed_set(), true),
        ] {
            let jobs = job_list(&set, 24, seed);
            let config = RtConfig::new(kind)
                .with_threads(1)
                .with_snapshot_reads(snapshot_reads);
            let oracle = run(&set, &jobs, config);
            assert_eq!(oracle.committed, jobs.len() as u64);
            assert_eq!(oracle.snapshots > 0, snapshot_reads);
            let expected = oracle.db.snapshot();
            let commit_stream = |rt: &RtResult| -> Vec<_> {
                rt.jobs.iter().map(|j| (j.commit_index, j.id)).collect()
            };

            for shards in SHARD_COUNTS {
                let what = format!("{kind:?}/{shards} shards/snapshot {snapshot_reads}");
                let rt = run(&set, &jobs, config.with_shards(shards));
                assert_eq!(rt.committed, jobs.len() as u64, "{what}: dropped jobs");
                // One worker means one live instance: nothing can abort it,
                // so no restart ever waits on a hold in a serial run.
                assert_eq!(rt.restarts, 0, "{what}");
                assert_eq!(rt.shards, shards);
                assert_eq!(
                    rt.db.snapshot(),
                    expected,
                    "{what}: final db diverged from oracle"
                );
                assert_eq!(
                    commit_stream(&rt),
                    commit_stream(&oracle),
                    "{what}: commit indices diverged from oracle"
                );
                assert_eq!(
                    rt.snapshot_stamps(),
                    oracle.snapshot_stamps(),
                    "{what}: snapshot stamps diverged from oracle"
                );
                let violations = snapshot_serializability_violations(
                    &set,
                    &rt.history,
                    &rt.db,
                    true,
                    &rt.snapshot_stamps(),
                );
                assert!(violations.is_empty(), "{what}: {violations:?}");
                // Commit accounting: every lock-path commit lands at
                // exactly one home shard.
                assert_eq!(rt.per_shard.len(), shards);
                assert_eq!(
                    rt.per_shard.iter().map(|s| s.commits).sum::<u64>(),
                    rt.committed - rt.snapshots,
                    "{what}: per-shard commits disagree"
                );
            }
        }
    }
}

/// Multi-threaded sharded runs lose no committed work and stay
/// conflict-serializable for every shardable protocol at 2 and 4 shards.
#[test]
fn multithreaded_sharded_runs_are_serializable() {
    for kind in shardable_kinds() {
        for shards in [2, 4] {
            let set = workload(0xCAFE + kind as u64);
            let jobs = job_list(&set, 32, 17);
            let rt = run(
                &set,
                &jobs,
                RtConfig::new(kind).with_threads(4).with_shards(shards),
            );
            assert_eq!(
                rt.committed,
                jobs.len() as u64,
                "{kind:?}/{shards} shards: dropped jobs"
            );
            let violations = serializability_violations(&set, &rt.history, &rt.db, true);
            assert!(
                violations.is_empty(),
                "{kind:?}/{shards} shards: {violations:?}"
            );
        }
    }
}

/// Seeded random sweep of the sharded differential: serial sharded runs
/// equal the unsharded oracle's database; threaded sharded runs are
/// serializable. One random (kind, shards) point per case keeps the
/// sweep broad and the suite fast.
#[test]
fn sharded_differential_property() {
    let kinds: Vec<ProtocolKind> = shardable_kinds().collect();
    prop::forall(16, |rng| {
        let set = WorkloadParams {
            templates: rng.range_usize(3..6),
            items: rng.range_usize(6..14),
            target_utilization: 0.5,
            hotspot_items: 3,
            hotspot_prob: 0.5 + 0.3 * rng.f64(),
            seed: rng.next_u64(),
            ..WorkloadParams::default()
        }
        .generate()
        .expect("workload generation")
        .set;
        let kind = kinds[rng.range_usize(0..kinds.len())];
        let shards = SHARD_COUNTS[rng.range_usize(0..SHARD_COUNTS.len())];
        let jobs = job_list(&set, 20, rng.next_u64());

        let oracle = run(&set, &jobs, RtConfig::new(kind).with_threads(1));
        let serial = run(
            &set,
            &jobs,
            RtConfig::new(kind).with_threads(1).with_shards(shards),
        );
        // One live instance at a time: nothing aborts, nothing is held.
        assert_eq!(serial.restarts, 0, "{kind:?}/{shards} shards");
        assert_eq!(
            serial.db.snapshot(),
            oracle.db.snapshot(),
            "{kind:?}/{shards} shards: serial differential diverged"
        );

        let threaded = run(
            &set,
            &jobs,
            RtConfig::new(kind).with_threads(4).with_shards(shards),
        );
        assert_eq!(threaded.committed, jobs.len() as u64);
        let violations = serializability_violations(&set, &threaded.history, &threaded.db, true);
        assert!(
            violations.is_empty(),
            "{kind:?}/{shards} shards: {violations:?}"
        );
    });
}

/// The shard-isolation acceptance assertion: when every item a workload
/// touches lives in shard 0 (all indices ≡ 0 mod 4), a 4-shard run must
/// never acquire any other shard's state lock, and no transaction is
/// cross-shard.
#[test]
fn single_shard_jobs_never_touch_other_shards() {
    let set = SetBuilder::new()
        .with(TransactionTemplate::new(
            "A",
            10,
            vec![Step::read(ItemId(0), 1), Step::write(ItemId(4), 1)],
        ))
        .with(TransactionTemplate::new(
            "B",
            20,
            vec![Step::read(ItemId(4), 1), Step::write(ItemId(8), 1)],
        ))
        .build()
        .expect("set");
    let jobs = job_list(&set, 16, 7);
    let rt = run(
        &set,
        &jobs,
        RtConfig::new(ProtocolKind::PcpDa)
            .with_threads(4)
            .with_shards(4),
    );
    assert_eq!(rt.committed, jobs.len() as u64);
    assert_eq!(rt.cross_shard_txns, 0, "nothing spans shards");
    assert!(
        rt.per_shard[0].state_lock_acquires > 0,
        "shard 0 ran the whole workload"
    );
    for s in &rt.per_shard[1..] {
        assert_eq!(
            s.state_lock_acquires, 0,
            "idle shard {} acquired its state lock",
            s.shard
        );
        assert_eq!(s.ops, 0, "idle shard {} saw ops", s.shard);
        assert_eq!(s.commits, 0, "idle shard {} committed", s.shard);
    }
}

/// Cross-shard transactions are recognized by the router, counted once
/// each, and still commit with a serializable history.
#[test]
fn cross_shard_transactions_commit_and_are_counted() {
    // Items 0 and 1 land in different shards of 2; template "X" spans
    // both, template "S" stays inside shard 0.
    let set = SetBuilder::new()
        .with(TransactionTemplate::new(
            "X",
            10,
            vec![Step::read(ItemId(0), 1), Step::write(ItemId(1), 1)],
        ))
        .with(TransactionTemplate::new(
            "S",
            20,
            vec![Step::write(ItemId(2), 1)],
        ))
        .build()
        .expect("set");
    let router = ShardRouter::new(2);
    assert!(router.shards_of(&set, TxnId(0)).is_cross_shard());
    assert!(!router.shards_of(&set, TxnId(1)).is_cross_shard());

    let jobs: Vec<InstanceId> = (0..8)
        .flat_map(|seq| {
            [
                InstanceId::new(TxnId(0), seq),
                InstanceId::new(TxnId(1), seq),
            ]
        })
        .collect();
    let rt = run(
        &set,
        &jobs,
        RtConfig::new(ProtocolKind::PcpDa)
            .with_threads(4)
            .with_shards(2),
    );
    assert_eq!(rt.committed, jobs.len() as u64, "dropped jobs");
    assert_eq!(rt.cross_shard_txns, 8, "every X instance is cross-shard");
    let violations = serializability_violations(&set, &rt.history, &rt.db, true);
    assert!(violations.is_empty(), "{violations:?}");
    // Commits home at the lowest touched shard — shard 0 for both
    // templates here — but X's writes to item 1 still route data
    // operations (and state-lock traffic) to shard 1.
    assert_eq!(rt.per_shard[0].commits, rt.committed);
    assert_eq!(rt.per_shard[1].commits, 0);
    assert!(rt.per_shard[1].ops > 0, "item 1 lives in shard 1");
    assert!(rt.per_shard[1].state_lock_acquires > 0);
}

/// The state-lock cost model of a job, pinned: one acquisition to begin,
/// one per accessing step, one per non-final step (early releases and
/// retires apply there) and one to commit — nothing else on a run that
/// neither parks nor restarts, whatever the shard count.
#[test]
fn a_single_shard_job_takes_its_state_lock_once_per_call() {
    // Every item ≡ 0 (mod 4): shard 0 is home to both templates.
    let set = SetBuilder::new()
        .with(TransactionTemplate::new(
            "A",
            10,
            vec![
                Step::read(ItemId(0), 1),
                Step::compute(1),
                Step::write(ItemId(4), 1),
            ],
        ))
        .with(TransactionTemplate::new(
            "B",
            20,
            vec![Step::write(ItemId(8), 1), Step::compute(1)],
        ))
        .build()
        .expect("set");
    let jobs = job_list(&set, 16, 7);
    let expected: u64 = jobs
        .iter()
        .map(|id| {
            let steps = &set.template(id.txn).steps;
            let accessing = steps.iter().filter(|s| s.op.access().is_some()).count();
            (1 + accessing + (steps.len() - 1) + 1) as u64
        })
        .sum();

    for kind in shardable_kinds() {
        for shards in [1, 4] {
            let rt = run(
                &set,
                &jobs,
                RtConfig::new(kind).with_threads(1).with_shards(shards),
            );
            assert_eq!(rt.committed, jobs.len() as u64);
            assert_eq!(
                rt.per_shard[0].state_lock_acquires, expected,
                "{kind:?}/{shards} shards"
            );
            for s in &rt.per_shard[1..] {
                assert_eq!(s.state_lock_acquires, 0, "{kind:?}: shard {}", s.shard);
            }
        }
    }
}

/// A cross-shard job's no-wait self-abort is a restart like any other
/// and `abort_reasons` says so: under PCP-DA and RW-PCP, which never
/// wound and never deadlock, it is the only restart there is.
#[test]
fn no_wait_self_aborts_count_as_ceiling_blocks() {
    // Forces one: X spans both shards and asks to write `x` 5 ms after it
    // was admitted; S (shard 0) has read `x` by then and computes for
    // 20 ms, and both protocols deny the write while its read lock stands.
    // (X goes first here; S first is the order
    // `a_denied_cross_shard_job_waits_out_its_denier` stages.)
    let (x, y) = (ItemId(0), ItemId(1));
    let staged = SetBuilder::new()
        .with(TransactionTemplate::new(
            "X",
            100,
            vec![Step::compute(5), Step::write(x, 1), Step::write(y, 1)],
        ))
        .with(TransactionTemplate::new(
            "S",
            1_000,
            vec![Step::read(x, 1), Step::compute(20)],
        ))
        .build()
        .expect("set");
    let staged_jobs = [InstanceId::first(TxnId(0)), InstanceId::first(TxnId(1))];

    for kind in [ProtocolKind::PcpDa, ProtocolKind::RwPcp] {
        let restarts_of = |set: &TransactionSet, jobs: &[InstanceId], config: RtConfig| {
            let rt = run(set, jobs, config.with_shards(2));
            assert_eq!(rt.committed, jobs.len() as u64, "{kind:?}");
            assert!(rt.cross_shard_txns > 0, "{kind:?}");
            assert_eq!(
                rt.abort_reasons,
                AbortBreakdown {
                    ceiling_block: rt.restarts,
                    ..AbortBreakdown::default()
                },
                "{kind:?}"
            );
            rt.restarts
        };
        // The cross-shard workload under whatever contention the
        // scheduler produces…
        for seed in 0..4 {
            let set = WorkloadParams {
                templates: 6,
                items: 12,
                target_utilization: 0.5,
                hotspot_items: 2,
                hotspot_prob: 0.6,
                partitions: 2,
                cross_partition_prob: 0.5,
                seed,
                ..WorkloadParams::default()
            }
            .generate()
            .expect("workload generation")
            .set;
            let jobs = job_list(&set, 120, seed);
            restarts_of(&set, &jobs, RtConfig::new(kind).with_threads(4));
        }
        // …and the staged block: 1 ms per tick keeps S inside its compute
        // step while X asks. Retried, as scheduling is real.
        let config = RtConfig::new(kind).with_threads(2).with_tick_ns(1_000_000);
        assert!(
            (0..8).any(|_| restarts_of(&staged, &staged_jobs, config) > 0),
            "{kind:?}: X never found S's read lock in its way"
        );
    }
}

/// A cross-shard job denied by a lock self-aborts once and waits out its
/// hold on the instance that denied it, restarting only when that one has
/// committed — not at once, to be denied again. S (shard 0) reads `x` and
/// computes for 20 ms; X spans both shards and asks to write `x` 5 ms
/// after it begins, while S's read lock stands.
#[test]
fn a_denied_cross_shard_job_waits_out_its_denier() {
    let (x, y) = (ItemId(0), ItemId(1));
    let set = SetBuilder::new()
        .with(TransactionTemplate::new(
            "S",
            1_000,
            vec![Step::read(x, 1), Step::compute(20)],
        ))
        .with(TransactionTemplate::new(
            "X",
            100,
            vec![Step::compute(5), Step::write(x, 1), Step::write(y, 1)],
        ))
        .build()
        .expect("set");
    let [s, x_job] = [0, 1].map(|t| InstanceId::first(TxnId(t)));
    for kind in [ProtocolKind::PcpDa, ProtocolKind::RwPcp] {
        // 1 ms per tick keeps S inside its compute step while X asks.
        let config = RtConfig::new(kind)
            .with_threads(2)
            .with_shards(2)
            .with_tick_ns(1_000_000);
        // Retried until X meets S's lock, as scheduling is real.
        let rt = (0..8)
            .map(|_| run(&set, &[s, x_job], config))
            .find(|rt| rt.restarts > 0)
            .unwrap_or_else(|| panic!("{kind:?}: X never found S's read lock in its way"));
        assert_eq!(rt.committed, 2, "{kind:?}");
        assert_eq!(rt.cross_shard_txns, 1, "{kind:?}");
        assert_eq!(
            (rt.restarts, rt.abort_reasons),
            (
                1,
                AbortBreakdown {
                    ceiling_block: 1,
                    ..AbortBreakdown::default()
                }
            ),
            "{kind:?}: X was denied more than once"
        );
        // The denied request staged nothing; the write X stages on its
        // restart comes after S's commit released it.
        let events = rt.history.events();
        let s_commit = events
            .iter()
            .position(|e| e.instance == s && e.kind == EventKind::Commit)
            .expect("S committed");
        let x_write = events
            .iter()
            .position(|e| {
                e.instance == x_job
                    && matches!(e.kind, EventKind::StageWrite { item, .. } if item == x)
            })
            .expect("X wrote x");
        assert!(s_commit < x_write, "{kind:?}: X restarted before S left");
        assert_eq!(rt.park_timeout_wakeups, 0, "{kind:?}: the release was lost");
    }
}

/// Replay agreement between the two execution layers: the simulator and
/// the runtime's sharded manager, fed the same conflict-free burst (each
/// template confined to its own shard of 4, the runtime replaying the
/// simulator's commit order), must land on the identical final database
/// — and the runtime must classify every transaction as single-shard.
#[test]
fn sim_and_rt_sharded_agree_on_a_conflict_free_burst() {
    // Template i writes items {i, i+4}: both ≡ i (mod 4), so template i
    // lives entirely in shard i and no two templates share an item.
    let mut b = SetBuilder::new();
    for i in 0..4u32 {
        b.add(
            TransactionTemplate::new(
                format!("T{i}"),
                10 * (u64::from(i) + 1),
                vec![
                    Step::write(ItemId(i), 1),
                    Step::read(ItemId(i), 1),
                    Step::write(ItemId(i + 4), 1),
                ],
            )
            .with_instances(3),
        );
    }
    let set = b.build_rate_monotonic().expect("set");
    let router = ShardRouter::new(4);
    for txn in 0..4 {
        assert!(!router.shards_of(&set, TxnId(txn)).is_cross_shard());
    }

    for kind in shardable_kinds() {
        let sim = Engine::new(&set, SimConfig::default())
            .run_kind(kind)
            .expect("sim run");
        assert_eq!(sim.outcome, RunOutcome::Completed, "{kind:?}");
        let jobs = sim.history.commit_order().to_vec();

        let rt = run(
            &set,
            &jobs,
            RtConfig::new(kind).with_threads(1).with_shards(4),
        );
        assert_eq!(rt.committed, jobs.len() as u64, "{kind:?}");
        assert_eq!(rt.cross_shard_txns, 0, "{kind:?}");
        assert_eq!(
            rt.db.snapshot(),
            sim.db.snapshot(),
            "{kind:?}: sim and sharded rt diverged"
        );
    }
}

/// The runtime refuses loudly what it cannot run: a non-shardable kind
/// at two shards, and the demo kinds, which stay in the simulator, at
/// any shard count. Each message names what does run.
#[test]
fn refused_configurations_panic_naming_what_runs() {
    let set = SetBuilder::new()
        .with(TransactionTemplate::new(
            "A",
            10,
            vec![Step::write(ItemId(0), 1)],
        ))
        .build()
        .expect("set");
    let jobs = job_list(&set, 2, 1);
    let shardable: Vec<&str> = shardable_kinds().map(ProtocolKind::name).collect();
    let standard = ProtocolKind::STANDARD.map(ProtocolKind::name);
    // Kinds by their report names, as `rtdbsim --protocol` takes them.
    let refused: [(&str, usize, &str, &[&str]); 3] = [
        ("CCP", 2, "cannot run sharded", &shardable),
        ("Naive-DA", 1, "runs only in the simulator", &standard),
        ("PCP-DA-literal", 1, "runs only in the simulator", &standard),
    ];
    for (name, shards, reason, named) in refused {
        let kind: ProtocolKind = name.parse().expect("a registered kind");
        let config = RtConfig::new(kind).with_shards(shards);
        let payload = std::panic::catch_unwind(|| run(&set, &jobs, config))
            .err()
            .unwrap_or_else(|| panic!("{name} at {shards} shard(s) ran"));
        let message = payload
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(message.starts_with(name), "{message}");
        assert!(message.contains(reason), "{message}");
        for runs in named {
            assert!(message.contains(runs), "{message} does not name {runs}");
        }
    }
}
