//! Property tests: runtime histories are conflict-serializable.
//!
//! 32 seeded random workloads through 4 worker threads each, for the
//! paper's protocol (PCP-DA) and the abort-based baseline (2PL-HP, which
//! exercises the wound/restart path). The oracle is the same
//! `serialization_graph()` checker the simulator's battery uses, via the
//! shared `serializability_violations` entry point.

use rtdb_core::ProtocolKind;
use rtdb_rt::testkit::TestClock;
use rtdb_rt::{
    job_list, run, run_front, run_on, shed_victim, AdmissionPolicy, FrontConfig, JobRequest,
    RtConfig, SubmitOutcome,
};
use rtdb_sim::{serializability_violations, WorkloadParams};
use rtdb_storage::EventKind;
use rtdb_types::{
    InstanceId, ItemId, SetBuilder, Step, TransactionSet, TransactionTemplate, TxnId,
};
use rtdb_util::prop;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const CASES: usize = 32;

/// A small contended workload: 3–5 templates over 6–13 items, half or
/// more of the accesses on a 3-item hotspot.
fn random_set(rng: &mut rtdb_util::rng::Rng) -> TransactionSet {
    WorkloadParams {
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
    .set
}

fn check_kind(kind: ProtocolKind) {
    prop::forall(CASES, |rng| {
        let set = random_set(rng);

        let jobs = job_list(&set, 20, rng.next_u64());
        let rt = run(&set, &jobs, RtConfig::new(kind).with_threads(4));
        assert_eq!(rt.committed, jobs.len() as u64, "{kind:?} dropped jobs");
        let violations = serializability_violations(&set, &rt.history, &rt.db, true);
        assert!(violations.is_empty(), "{kind:?}: {violations:?}");
    });
}

#[test]
fn pcp_da_runtime_histories_are_conflict_serializable() {
    check_kind(ProtocolKind::PcpDa);
}

#[test]
fn two_pl_hp_runtime_histories_are_conflict_serializable() {
    check_kind(ProtocolKind::TwoPlHp);
}

#[test]
fn bamboo_runtime_histories_are_conflict_serializable() {
    check_kind(ProtocolKind::Bamboo);
}

/// Random contended workloads under a random protocol at 4–8 threads
/// agree with their job list on everything schedule-independent: every
/// job commits exactly once, every committed job installs each item of
/// its template's write set exactly once, and the history is
/// serializable.
#[test]
fn random_workloads_commit_and_install_exactly_their_job_list() {
    prop::forall(24, |rng| {
        let set = random_set(rng);
        let kind =
            ProtocolKind::STANDARD[rng.bounded(ProtocolKind::STANDARD.len() as u64) as usize];
        let threads = 4 + rng.bounded(5) as usize; // 4..=8
        let jobs = job_list(&set, 24, rng.next_u64());

        let rt = run(&set, &jobs, RtConfig::new(kind).with_threads(threads));

        let mut committed: Vec<InstanceId> = rt.jobs.iter().map(|j| j.id).collect();
        committed.sort();
        let mut offered = jobs.clone();
        offered.sort();
        assert_eq!(
            committed, offered,
            "{kind:?}@{threads}t: commits differ from the job list"
        );

        let mut expected: BTreeMap<ItemId, u64> = BTreeMap::new();
        for job in &jobs {
            for item in set.template(job.txn).write_set() {
                *expected.entry(item).or_default() += 1;
            }
        }
        let mut installs: BTreeMap<ItemId, u64> = BTreeMap::new();
        for e in rt.history.events() {
            if let EventKind::Install { item, .. } = e.kind {
                *installs.entry(item).or_default() += 1;
            }
        }
        assert_eq!(
            installs, expected,
            "{kind:?}@{threads}t: installs differ from the job list's write sets"
        );

        let commit_order_serialization = kind != ProtocolKind::Ccp;
        let violations =
            serializability_violations(&set, &rt.history, &rt.db, commit_order_serialization);
        assert!(violations.is_empty(), "{kind:?}@{threads}t: {violations:?}");
    });
}

/// Run `jobs` on a [`TestClock`] that stays paused until every worker is
/// inside its busy work, or until the rest stop arriving there (they are
/// parked behind the held ones), so the first jobs overlap by
/// construction, however idle the host.
fn run_overlapped(
    set: &TransactionSet,
    jobs: &[InstanceId],
    config: RtConfig,
) -> rtdb_rt::RtResult {
    /// How long no further worker reaches its busy work before the rest
    /// count as parked.
    const QUIET: Duration = Duration::from_millis(20);
    let clock = TestClock::default();
    let config = config.with_tick_ns(1);
    std::thread::scope(|s| {
        let paused = clock.pause();
        s.spawn(|| {
            while clock.held() < config.threads && clock.await_held(clock.held() + 1, QUIET) {}
            drop(paused);
        });
        run_on(set, jobs, config, clock.clone())
    })
}

/// The run's restart count is the history's: every restart logs one
/// Abort event, a cross-shard job's once, in its home shard. Every
/// standard kind at 4 threads on one shard, and the shardable kinds also
/// on 4 shards of a partitioned set, over the same job list, its first
/// jobs overlapping ([`run_overlapped`]).
#[test]
fn restarts_are_the_historys_aborts() {
    let restarts = AtomicU64::new(0);
    prop::forall(8, |rng| {
        let set = random_set(rng);
        let partitioned = WorkloadParams {
            templates: 6,
            items: 12,
            target_utilization: 0.5,
            hotspot_items: 2,
            hotspot_prob: 0.7,
            partitions: 4,
            cross_partition_prob: 0.5,
            seed: rng.next_u64(),
            ..WorkloadParams::default()
        }
        .generate()
        .expect("workload generation")
        .set;
        let seed = rng.next_u64();
        for kind in ProtocolKind::STANDARD {
            let sharded = kind.shardable().then_some((&partitioned, 4));
            for (set, shards) in [(&set, 1)].into_iter().chain(sharded) {
                let jobs = job_list(set, 24, seed);
                let config = RtConfig::new(kind).with_threads(4).with_shards(shards);
                let rt = run_overlapped(set, &jobs, config);
                assert_eq!(
                    rt.restarts,
                    rt.history.aborts() as u64,
                    "{kind:?} on {shards} shard(s)"
                );
                restarts.fetch_add(rt.restarts, Ordering::Relaxed);
            }
        }
    });
    assert!(
        restarts.into_inner() > 0,
        "no run restarted a job: the check saw nothing"
    );
}

/// The blocking path specifically: a workload guaranteed to park (every
/// template reads then writes the one item, 8 threads) drains completely,
/// stays serializable, and never needs the park-timeout net. The net is
/// set far beyond any scheduling delay, so a firing is a lost wake-up
/// (and a failure), not a slow host.
#[test]
fn single_item_hammer_drains_without_the_park_timeout_net() {
    let x = ItemId(0);
    let mut b = SetBuilder::new();
    for (name, period) in [("a", 10), ("b", 20), ("c", 40), ("d", 80)] {
        b.add(TransactionTemplate::new(
            name,
            period,
            vec![Step::read(x, 1), Step::write(x, 1)],
        ));
    }
    let set = b.build().expect("set");
    let jobs = job_list(&set, 64, 3);
    for kind in [ProtocolKind::PcpDa, ProtocolKind::TwoPlHp] {
        let rt = run(
            &set,
            &jobs,
            RtConfig::new(kind)
                .with_threads(8)
                .with_park_timeout(Duration::from_secs(10)),
        );
        assert_eq!(rt.committed, jobs.len() as u64, "{kind:?} dropped jobs");
        assert_eq!(
            rt.park_timeout_wakeups, 0,
            "{kind:?}: a parked request needed the timeout net"
        );
        let violations = serializability_violations(&set, &rt.history, &rt.db, true);
        assert!(violations.is_empty(), "{kind:?}: {violations:?}");
    }
}

/// Brook-2PL never needs a deadlock victim: all its wait edges — lock
/// waits *and* commit-gate edges — point senior → junior, so the
/// wait-for graph is acyclic by construction. Hammer hotspot workloads
/// through 4–8 threads and assert the runtime's cycle breaker stayed
/// idle (and every job still committed, serializably).
#[test]
fn brook_2pl_never_resolves_a_deadlock() {
    prop::forall(CASES, |rng| {
        let set = WorkloadParams {
            templates: rng.range_usize(4..8),
            items: rng.range_usize(4..10),
            target_utilization: 0.5,
            hotspot_items: 2,
            hotspot_prob: 0.7 + 0.3 * rng.f64(),
            write_fraction: 0.6,
            seed: rng.next_u64(),
            ..WorkloadParams::default()
        }
        .generate()
        .expect("workload generation")
        .set;

        let threads = rng.range_usize(4..9);
        let jobs = job_list(&set, 24, rng.next_u64());
        let rt = run(
            &set,
            &jobs,
            RtConfig::new(ProtocolKind::Brook2Pl).with_threads(threads),
        );
        assert_eq!(rt.committed, jobs.len() as u64, "dropped jobs");
        assert_eq!(
            rt.deadlocks_resolved, 0,
            "Brook-2PL should be deadlock-free by static order"
        );
        assert_eq!(rt.abort_reasons.deadlock_victim, 0);
        assert_eq!(
            rt.abort_reasons.total(),
            rt.restarts,
            "every restart must carry a recorded reason"
        );
        let violations = serializability_violations(&set, &rt.history, &rt.db, true);
        assert!(violations.is_empty(), "{violations:?}");
    });
}

/// Deadline-accounting invariant of the admission front-end: for *every*
/// committed job, queueing delay plus service time equals total latency
/// exactly. The worker sets `latency_ns = queue_ns + service_ns`, so the
/// identity holds by construction; this pins it under every policy,
/// thread count and queue bound.
#[test]
fn front_queueing_plus_service_equals_latency_for_every_committed_job() {
    prop::forall(16, |rng| {
        let set = random_set(rng);

        let policy = AdmissionPolicy::ALL[rng.bounded(AdmissionPolicy::ALL.len() as u64) as usize];
        let kind = if rng.bounded(2) == 0 {
            ProtocolKind::PcpDa
        } else {
            ProtocolKind::TwoPlHp
        };
        let threads = 1 + rng.bounded(8) as usize;
        let capacity = 1 + rng.bounded(8) as usize;
        let offered: Vec<TxnId> = (0..24)
            .map(|_| TxnId(rng.bounded(set.len() as u64) as u32))
            .collect();

        let config = FrontConfig::new(kind)
            .with_policy(policy)
            .with_capacity(capacity)
            .with_rt(RtConfig::new(kind).with_threads(threads));
        let (rt, ()) = run_front(&set, config, |front| {
            let (sub, _rx) = front.submitter();
            for &txn in &offered {
                let release = front.elapsed_ns();
                let out = sub.submit(JobRequest::periodic(&set, txn, release, 1_000));
                assert!(!matches!(out, SubmitOutcome::Closed));
            }
        });

        assert_eq!(
            rt.committed + rt.shed + rt.rejected,
            offered.len() as u64,
            "{policy}/{kind:?}: submissions leaked"
        );
        assert_eq!(rt.jobs.len() as u64, rt.committed);
        for job in &rt.jobs {
            assert_eq!(
                job.queue_ns + job.service_ns,
                job.latency_ns,
                "decomposition broke for {job:?}"
            );
            assert!(job.commit_ns >= job.release_ns, "{job:?}");
            assert!(
                job.deadline_ns.is_some(),
                "periodic request lost its deadline"
            );
        }
    });
}

/// Per-tenant conservation under `least-slack` shedding: for *every*
/// tenant, `committed + shed + rejected == offered` — no submission is
/// double-counted or lost, whatever mix of queued sheds, self-sheds and
/// commits the race produces.
#[test]
fn least_slack_conserves_every_tenants_offered_load() {
    prop::forall(16, |rng| {
        let set = random_set(rng);

        let tenants = 1 + rng.bounded(4) as u32;
        let threads = 1 + rng.bounded(3) as usize;
        let capacity = 1 + rng.bounded(4) as usize;
        let config = FrontConfig::new(ProtocolKind::PcpDa)
            .with_policy(AdmissionPolicy::LeastSlack)
            .with_capacity(capacity)
            .with_rt(RtConfig::new(ProtocolKind::PcpDa).with_threads(threads));
        // Deadlines vary from already-past to comfortable, so shed
        // victims come from both queued entries and incoming requests.
        let offered: Vec<(TxnId, u32, Option<u64>)> = (0..32)
            .map(|_| {
                let txn = TxnId(rng.bounded(set.len() as u64) as u32);
                let tenant = rng.bounded(tenants as u64) as u32;
                let deadline = match rng.bounded(3) {
                    0 => None,
                    1 => Some(1),
                    _ => Some(1_000_000 + rng.bounded(50_000_000)),
                };
                (txn, tenant, deadline)
            })
            .collect();
        let mut offered_by_tenant = vec![0u64; tenants as usize];
        for &(_, tenant, _) in &offered {
            offered_by_tenant[tenant as usize] += 1;
        }

        let (rt, ()) = run_front(&set, config, |front| {
            let (sub, _rx) = front.submitter();
            for &(txn, tenant, deadline) in &offered {
                let mut req = JobRequest::new(txn).for_tenant(tenant);
                req.deadline_ns = deadline;
                let out = sub.submit(req);
                assert!(!matches!(out, SubmitOutcome::Closed));
            }
        });

        assert_eq!(
            rt.committed + rt.shed + rt.rejected,
            offered.len() as u64,
            "global conservation broke"
        );
        let mut seen = 0u64;
        for row in &rt.tenants {
            assert_eq!(
                row.offered(),
                offered_by_tenant[row.tenant as usize],
                "tenant {} conservation broke: {row:?}",
                row.tenant
            );
            seen += row.offered();
        }
        assert_eq!(seen, offered.len() as u64, "tenant rows miss submissions");
        // One set of shed/reject counters: the run's totals are the
        // tenant rows', and the per-template sheds', summed.
        assert_eq!(rt.tenants.iter().map(|r| r.shed).sum::<u64>(), rt.shed);
        assert_eq!(
            rt.tenants.iter().map(|r| r.rejected).sum::<u64>(),
            rt.rejected
        );
        assert_eq!(
            rt.shed_by_txn.iter().sum::<u64>(),
            rt.shed,
            "per-template shed telemetry out of balance"
        );
    });
}

/// The shed-victim rule itself: the victim has the least slack of all
/// candidates, so a positive-slack candidate is never shed while a
/// negative-slack candidate sits in the pool, and ties go to the oldest.
#[test]
fn shed_victim_never_prefers_positive_slack_over_negative() {
    prop::forall(256, |rng| {
        let n = 1 + rng.bounded(12) as usize;
        // Mix of negative, small-positive and infinite slack.
        let slacks: Vec<i64> = (0..n)
            .map(|_| match rng.bounded(4) {
                0 => -(rng.bounded(1_000_000) as i64) - 1,
                1 => rng.bounded(1_000_000) as i64,
                2 => rng.bounded(1_000_000_000) as i64,
                _ => i64::MAX,
            })
            .collect();

        let victim = shed_victim(&slacks);
        let v = slacks[victim];
        assert_eq!(v, *slacks.iter().min().expect("non-empty"));
        assert!(
            slacks[..victim].iter().all(|&s| s > v),
            "an older candidate ties victim {victim} in {slacks:?}"
        );
        // No positive-slack candidate sheds while a negative-slack one is
        // available.
        if v > 0 {
            assert!(
                slacks.iter().all(|&s| s > 0),
                "positive-slack victim {v} with a negative-slack candidate in {slacks:?}"
            );
        }
    });
}
