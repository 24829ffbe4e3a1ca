//! Validation of the sharded lock-manager architecture.
//!
//! The unsharded lock manager is the repo's runtime oracle; these tests
//! require sharded runs (1, 2 and 4 shards, every shardable protocol) to
//! produce serializable histories and — for serial executions — the
//! identical final database the oracle produces.
//! Shard isolation is asserted through the per-shard state-lock
//! acquisition counters: a workload whose items all live in one shard
//! must leave every other shard's counter at zero.

use rtdb_core::{ProtocolKind, ShardRouter};
use rtdb_rt::{job_list, run, RtConfig};
use rtdb_sim::{serializability_violations, Engine, RunOutcome, SimConfig, WorkloadParams};
use rtdb_types::{
    InstanceId, ItemId, SetBuilder, Step, TransactionSet, TransactionTemplate, TxnId,
};
use rtdb_util::prop;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn shardable_kinds() -> impl Iterator<Item = ProtocolKind> {
    ProtocolKind::ALL.into_iter().filter(|k| k.shardable())
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

/// Serial (1-thread) sharded runs are real serial executions, so every
/// shard count must land on the byte-identical final database the
/// unsharded oracle produces — and pass the serializability oracle along
/// the way.
#[test]
fn serial_sharded_runs_match_the_unsharded_oracle() {
    for kind in shardable_kinds() {
        let set = workload(0x5A4D + kind as u64);
        let jobs = job_list(&set, 24, 13);
        let oracle = run(&set, &jobs, RtConfig::new(kind).with_threads(1));
        assert_eq!(oracle.committed, jobs.len() as u64);
        let expected = oracle.db.snapshot();

        for shards in SHARD_COUNTS {
            let rt = run(
                &set,
                &jobs,
                RtConfig::new(kind).with_threads(1).with_shards(shards),
            );
            assert_eq!(
                rt.committed,
                jobs.len() as u64,
                "{kind:?}/{shards} shards: dropped jobs"
            );
            // One worker means one live instance: nothing can abort it,
            // so the restart backoff never sleeps in a serial run.
            assert_eq!(rt.restarts, 0, "{kind:?}/{shards} shards");
            assert_eq!(rt.shards, shards);
            assert_eq!(
                rt.db.snapshot(),
                expected,
                "{kind:?}/{shards} shards: final db diverged from oracle"
            );
            let violations = serializability_violations(&set, &rt.history, &rt.db, true);
            assert!(
                violations.is_empty(),
                "{kind:?}/{shards} shards: {violations:?}"
            );
            // Commit accounting: every commit lands at exactly one
            // home shard.
            assert_eq!(rt.per_shard.len(), shards);
            assert_eq!(
                rt.per_shard.iter().map(|s| s.commits).sum::<u64>(),
                rt.committed,
                "{kind:?}/{shards} shards: per-shard commits disagree"
            );
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
        // One live instance at a time: nothing aborts, no backoff sleeps.
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

/// Non-shardable protocols refuse multi-shard configurations loudly.
#[test]
#[should_panic(expected = "cannot run sharded")]
fn non_shardable_kind_panics_at_two_shards() {
    let set = SetBuilder::new()
        .with(TransactionTemplate::new(
            "A",
            10,
            vec![Step::write(ItemId(0), 1)],
        ))
        .build()
        .expect("set");
    let jobs = job_list(&set, 2, 1);
    let _ = run(&set, &jobs, RtConfig::new(ProtocolKind::Ccp).with_shards(2));
}
