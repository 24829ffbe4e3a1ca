//! Admission front-end validation: deterministic deadline accounting and
//! sim-vs-rt open-loop differentials.
//!
//! Deadline verdicts in the runtime are wall-clock observations, so every
//! assertion here is built on *margins*: schedules are staged so that each
//! met/missed verdict has tens of milliseconds of slack against scheduler
//! noise, while the logical structure (who queues behind whom) is forced
//! by a single worker and the FIFO admission path.

use rtdb_core::ProtocolKind;
use rtdb_rt::{
    run_front, AdmissionPolicy, Completion, FrontConfig, JobRequest, RtConfig, SubmitOutcome,
};
use rtdb_sim::{serializability_violations, Engine, RunOutcome, SimConfig, WorkloadParams};
use rtdb_types::{
    InstanceId, ItemId, SetBuilder, Step, TransactionSet, TransactionTemplate, TxnId,
};

/// Milliseconds in nanoseconds.
const MS: u64 = 1_000_000;

/// The tests that stage a schedule on wall-clock margins busy-spin one to
/// four workers for tens to hundreds of milliseconds. The harness runs
/// tests on parallel threads; on a 2-CPU host two such tests at once eat
/// each other's margins, so they take turns.
fn wall_clock_turn() -> std::sync::MutexGuard<'static, ()> {
    static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
    TURN.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A known schedule forcing exactly K = 2 misses: one long job owns the
/// single worker while two short jobs with tight deadlines queue behind
/// it. The misses are *queueing* misses — each short job's own service is
/// ~1 ms against a 10 ms deadline, but it cannot start for ~50 ms.
#[test]
fn forced_schedule_misses_exactly_k() {
    let _turn = wall_clock_turn();
    let set = SetBuilder::new()
        .with(TransactionTemplate::new(
            "long",
            1_000,
            vec![Step::compute(50)],
        ))
        .with(TransactionTemplate::new(
            "tight",
            1_000,
            vec![Step::compute(1)],
        ))
        .build()
        .expect("set");
    let config = FrontConfig::new(ProtocolKind::PcpDa)
        .with_policy(AdmissionPolicy::Block)
        .with_rt(
            RtConfig::new(ProtocolKind::PcpDa)
                .with_threads(1)
                .with_tick_ns(MS),
        );
    let (result, ()) = run_front(&set, config, |front| {
        let (sub, _rx) = front.submitter();
        // J0: 50 ms of service against a 10 s deadline — meets.
        sub.submit(JobRequest::new(TxnId(0)).with_deadline(10_000 * MS));
        // J1, J2: ~1 ms of service against 10 ms deadlines, queued behind
        // 50 ms of J0 — both miss, by ≥ 40 ms of margin.
        sub.submit(JobRequest::new(TxnId(1)).with_deadline(10 * MS));
        sub.submit(JobRequest::new(TxnId(1)).with_deadline(10 * MS));
    });

    assert_eq!(result.committed, 3);
    assert_eq!(result.deadline_misses(), 2, "exactly K = 2 forced misses");
    assert_eq!((result.shed, result.rejected), (0, 0));

    // The misses are the two tight jobs, and they are queueing misses:
    // time spent waiting for the worker dominates their own service.
    for job in &result.jobs {
        if job.id.txn == TxnId(1) {
            assert!(job.missed_deadline(), "tight job met: {job:?}");
            assert!(
                job.queue_ns > 30 * MS,
                "miss was not queueing-dominated: {job:?}"
            );
            assert!(job.queue_ns > job.service_ns, "{job:?}");
        } else {
            assert!(!job.missed_deadline(), "long job missed: {job:?}");
        }
    }

    // Per-priority accounting: "long" was added first, so it has the
    // higher base priority under SetBuilder::build.
    let bands = result.misses_by_priority();
    assert_eq!(bands.len(), 2);
    assert_eq!((bands[0].committed, bands[0].missed), (1, 0));
    assert_eq!((bands[1].committed, bands[1].missed), (2, 2));
    assert!((bands[1].ratio() - 1.0).abs() < f64::EPSILON);
    assert!((result.miss_ratio() - 2.0 / 3.0).abs() < 1e-9);
}

/// A conflict-free burst workload whose miss pattern is forced by pure
/// arithmetic: five templates, all released together, executed in
/// priority order by both the simulator (single CPU, nothing ever
/// preempts because nothing arrives later) and the single-worker
/// front-end (FIFO over a priority-ordered submission sequence).
/// Template k has service 10 ticks and cumulative completion 10·(k+1);
/// its period (= relative deadline) is chosen so the met/missed verdict
/// has ≥ 3 ticks of margin.
fn burst_set() -> TransactionSet {
    let periods = [16u64, 17, 40, 45, 46];
    let mut b = SetBuilder::new();
    for (k, &p) in periods.iter().enumerate() {
        b.add(
            TransactionTemplate::new(format!("T{k}"), p, vec![Step::write(ItemId(k as u32), 10)])
                .with_instances(1),
        );
    }
    b.build().expect("burst set")
}

/// The single-thread open-loop run reproduces the simulator's miss and
/// commit ordering (acceptance criterion; PCP-DA and 2PL-HP). The burst
/// workload is conflict-free, so both protocols must agree with their own
/// simulator runs *and* with each other.
#[test]
fn open_loop_single_thread_reproduces_sim_miss_and_commit_ordering() {
    let _turn = wall_clock_turn();
    const TICK: u64 = 2 * MS;
    for kind in [ProtocolKind::PcpDa, ProtocolKind::TwoPlHp] {
        let set = burst_set();

        // Ground truth: the simulator's commit order and miss verdicts.
        let sim = Engine::new(&set, SimConfig::default())
            .run_kind(kind)
            .expect("sim run");
        assert_eq!(sim.outcome, RunOutcome::Completed, "{kind:?}");
        let sim_order: Vec<InstanceId> = sim.history.commit_order().to_vec();
        assert_eq!(sim_order.len(), 5);
        let sim_missed: Vec<bool> = sim_order
            .iter()
            .map(|id| {
                !sim.metrics
                    .instance(*id)
                    .expect("sim metrics")
                    .met_deadline()
            })
            .collect();
        // The arithmetic above promises this exact pattern; assert it so
        // the test cannot silently degenerate into "no misses anywhere".
        assert_eq!(sim_missed, [false, true, false, false, true], "{kind:?}");

        // Open-loop run: submit the burst in priority order at t≈0 with
        // deadline = release + period scaled by the same tick the worker
        // uses for computation.
        let config = FrontConfig::new(kind)
            .with_policy(AdmissionPolicy::Block)
            .with_rt(RtConfig::new(kind).with_threads(1).with_tick_ns(TICK));
        let (rt, ()) = run_front(&set, config, |front| {
            let (sub, _rx) = front.submitter();
            for k in 0..5 {
                let req = JobRequest::periodic(&set, TxnId(k), 0, TICK);
                assert!(matches!(sub.submit(req), SubmitOutcome::Admitted { .. }));
            }
        });

        assert_eq!(rt.committed, 5, "{kind:?}");
        let rt_order: Vec<InstanceId> = rt.jobs.iter().map(|j| j.id).collect();
        assert_eq!(rt_order, sim_order, "{kind:?}: commit order diverged");
        let rt_missed: Vec<bool> = rt.jobs.iter().map(|j| j.missed_deadline()).collect();
        assert_eq!(rt_missed, sim_missed, "{kind:?}: miss pattern diverged");
        assert_eq!(
            rt.db.snapshot(),
            sim.db.snapshot(),
            "{kind:?}: final database diverged"
        );

        // Per-priority ratios line up with the simulator's per-template
        // miss counts (every template is its own priority level here).
        for band in rt.misses_by_priority() {
            let expect = sim
                .metrics
                .instances()
                .filter(|m| set.priority_of(m.id.txn).level() == band.priority)
                .filter(|m| !m.met_deadline())
                .count() as u64;
            assert_eq!(band.missed, expect, "{kind:?} priority {}", band.priority);
        }
    }
}

/// A small contended workload with every template bounded to two
/// instances (mirrors `tests/differential.rs`).
fn bounded_workload(seed: u64) -> TransactionSet {
    let spec = WorkloadParams {
        templates: 4,
        items: 8,
        target_utilization: 0.5,
        hotspot_items: 3,
        hotspot_prob: 0.6,
        seed,
        ..WorkloadParams::default()
    }
    .generate()
    .expect("workload generation");
    let mut b = SetBuilder::new();
    for t in spec.set.templates() {
        let mut t = t.clone();
        t.instances = Some(2);
        b.add(t);
    }
    b.build_rate_monotonic().expect("rebuild")
}

/// Replaying the simulator's serialization order through the *front door*
/// (instead of a prebuilt job list) on one worker still reproduces the
/// final database under real contention: the admission queue's
/// admission-order sequence numbering is exactly the replay the
/// closed-loop differential performs.
#[test]
fn open_loop_replay_through_front_matches_sim_under_contention() {
    for kind in [ProtocolKind::PcpDa, ProtocolKind::TwoPlHp] {
        let set = bounded_workload(0xF407 + kind as u64);
        let mut config = SimConfig::default();
        if kind.may_deadlock() {
            config = config.resolving_deadlocks();
        }
        let sim = Engine::new(&set, config).run_kind(kind).expect("sim run");
        assert_eq!(sim.outcome, RunOutcome::Completed, "{kind:?}");
        let order: Vec<InstanceId> = sim.history.commit_order().to_vec();
        assert!(!order.is_empty());

        // The admission queue assigns per-template sequence numbers in
        // admission order, so the replay below reproduces these exact
        // instance ids only if the sim committed each template's
        // instances in sequence order. Check that premise explicitly.
        for t in set.templates() {
            let seqs: Vec<u32> = order
                .iter()
                .filter(|id| id.txn == t.id)
                .map(|id| id.seq)
                .collect();
            assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{kind:?} {seqs:?}");
        }

        let front_config = FrontConfig::new(kind)
            .with_policy(AdmissionPolicy::Block)
            .with_capacity(order.len())
            .with_rt(RtConfig::new(kind).with_threads(1));
        let (rt, ()) = run_front(&set, front_config, |front| {
            let (sub, _rx) = front.submitter();
            for id in &order {
                assert!(matches!(
                    sub.submit(JobRequest::new(id.txn)),
                    SubmitOutcome::Admitted { .. }
                ));
            }
        });

        assert_eq!(rt.committed, order.len() as u64, "{kind:?}");
        let rt_order: Vec<InstanceId> = rt.jobs.iter().map(|j| j.id).collect();
        assert_eq!(rt_order, order, "{kind:?}: replay order diverged");
        assert_eq!(
            rt.db.snapshot(),
            sim.db.snapshot(),
            "{kind:?}: final database diverged from the simulator"
        );
        let violations = serializability_violations(&set, &rt.history, &rt.db, true);
        assert!(violations.is_empty(), "{kind:?}: {violations:?}");
    }
}

/// Multi-worker open-loop runs stay serializable and account for every
/// submission: committed + shed + rejected == offered, under each policy.
#[test]
fn open_loop_accounts_for_every_submission_under_each_policy() {
    for policy in AdmissionPolicy::ALL {
        let set = bounded_workload(0xACC0);
        let config = FrontConfig::new(ProtocolKind::PcpDa)
            .with_policy(policy)
            .with_capacity(2)
            .with_rt(RtConfig::new(ProtocolKind::PcpDa).with_threads(4));
        let offered = 40u64;
        let (rt, (admitted, self_shed)) = run_front(&set, config, |front| {
            let (sub, _rx) = front.submitter();
            let (mut admitted, mut self_shed) = (0u64, 0u64);
            for i in 0..offered {
                let txn = TxnId((i % set.len() as u64) as u32);
                match sub.submit(JobRequest::new(txn)) {
                    SubmitOutcome::Admitted { .. } => admitted += 1,
                    SubmitOutcome::Shed { .. } => self_shed += 1,
                    _ => {}
                }
            }
            (admitted, self_shed)
        });
        assert_eq!(
            rt.committed + rt.shed + rt.rejected,
            offered,
            "{policy}: submissions leaked"
        );
        assert_eq!(rt.committed + rt.shed, admitted + self_shed, "{policy}");
        assert_eq!(rt.jobs.len() as u64, rt.committed, "{policy}");
        let violations = serializability_violations(&set, &rt.history, &rt.db, true);
        assert!(violations.is_empty(), "{policy}: {violations:?}");
    }
}

/// A template id outside the set is the submitter's to bounce: the pop
/// indexes per-template state by it, so an admitted one would panic a
/// worker under the queue lock. It is answered `Rejected`, billed to its
/// tenant like any other reject, and the good jobs around it commit.
#[test]
fn unknown_template_is_rejected_and_the_run_goes_on() {
    let set = burst_set();
    let config = FrontConfig::new(ProtocolKind::PcpDa)
        .with_rt(RtConfig::new(ProtocolKind::PcpDa).with_threads(2));
    let bad = TxnId(set.len() as u32);
    let (rt, outcomes) = run_front(&set, config, |front| {
        let (sub, _rx) = front.submitter();
        let job = |txn| JobRequest::new(txn).for_tenant(1);
        [
            sub.submit(job(TxnId(0))),
            sub.submit(job(bad)),
            sub.try_submit(job(bad)),
            sub.submit(job(TxnId(1))),
        ]
    });
    assert!(
        matches!(
            outcomes,
            [
                SubmitOutcome::Admitted { .. },
                SubmitOutcome::Rejected,
                SubmitOutcome::Rejected,
                SubmitOutcome::Admitted { .. }
            ]
        ),
        "{outcomes:?}"
    );
    assert_eq!((rt.committed, rt.shed, rt.rejected), (2, 0, 2));
    let tenant = rt.tenants.iter().find(|t| t.tenant == 1).expect("tenant 1");
    assert_eq!((tenant.offered(), tenant.rejected), (4, 2));
}

/// `workers` long jobs, one per worker, then short ones: the shape that
/// shows what is queued and what is running. The long job (300 ms)
/// outlasts the submission phase by orders of magnitude, and each test
/// checks that premise (no completion arrived while it was submitting).
fn pinned_set() -> TransactionSet {
    SetBuilder::new()
        .with(TransactionTemplate::new(
            "pin",
            10_000,
            vec![Step::compute(300)],
        ))
        .with(TransactionTemplate::new(
            "short",
            10_000,
            vec![Step::compute(1)],
        ))
        .build()
        .expect("set")
}

fn pinned_config(policy: AdmissionPolicy, workers: usize, capacity: usize) -> FrontConfig {
    FrontConfig::new(ProtocolKind::PcpDa)
        .with_policy(policy)
        .with_capacity(capacity)
        .with_rt(
            RtConfig::new(ProtocolKind::PcpDa)
                .with_threads(workers)
                .with_tick_ns(MS),
        )
}

/// Submit one long job per worker and wait until the workers have taken
/// them all: from here on every worker is busy and the queue is empty.
fn pin_workers(front: &rtdb_rt::FrontHandle<'_>, sub: &rtdb_rt::Submitter<'_>, workers: usize) {
    for _ in 0..workers {
        let out = sub.submit(JobRequest::new(TxnId(0)));
        assert!(matches!(out, SubmitOutcome::Admitted { .. }), "{out:?}");
    }
    while front.queue_depth() > 0 {
        std::thread::yield_now();
    }
}

/// Time for a hand-off stage hiding behind the queue to take what it can.
/// The two tests below read the same with or without this pause; it is
/// there so that they fail if such a stage ever comes back.
fn settle() {
    std::thread::sleep(std::time::Duration::from_millis(5));
}

/// The queue bound is exact: with `N` workers busy, `Reject` admits
/// exactly `C` more requests however long the submitter keeps trying — a
/// request is either running or in the admission queue, there is no
/// third place for it to wait.
#[test]
fn reject_admits_exactly_running_plus_capacity() {
    let _turn = wall_clock_turn();
    const C: usize = 8;
    const ROUNDS: usize = 3;
    for workers in [1usize, 4] {
        let set = pinned_set();
        let config = pinned_config(AdmissionPolicy::Reject, workers, C);
        let (rt, (admitted, rejected)) = run_front(&set, config, |front| {
            let (sub, rx) = front.submitter();
            pin_workers(&front, &sub, workers);
            let (mut admitted, mut rejected) = (workers, 0usize);
            for _ in 0..ROUNDS {
                for _ in 0..C + 2 {
                    match sub.submit(JobRequest::new(TxnId(1))) {
                        SubmitOutcome::Admitted { .. } => admitted += 1,
                        SubmitOutcome::Rejected => rejected += 1,
                        other => panic!("{workers} workers: unexpected {other:?}"),
                    }
                }
                settle();
            }
            assert!(
                rx.try_recv().is_err(),
                "{workers} workers: a job committed while submitting; the count below is void"
            );
            (admitted, rejected)
        });
        assert_eq!(admitted, workers + C, "{workers} workers: admitted");
        assert_eq!(rejected, ROUNDS * (C + 2) - C, "{workers} workers");
        assert_eq!(rt.committed, admitted as u64, "{workers} workers");
        assert_eq!((rt.shed, rt.rejected), (0, rejected as u64));
    }
}

/// Every request that is not yet running is within the policy's reach:
/// under `LeastSlack` the tightest-deadline request is the one shed even
/// when it was the first admitted after the workers went busy — the
/// position a hand-off stage behind the queue would have hidden.
#[test]
fn least_slack_reaches_every_request_not_yet_running() {
    let _turn = wall_clock_turn();
    const C: usize = 8;
    const HOUR: u64 = 3_600_000 * MS;
    for workers in [1usize, 4] {
        let set = pinned_set();
        let config = pinned_config(AdmissionPolicy::LeastSlack, workers, C);
        let (rt, ()) = run_front(&set, config, |front| {
            let (sub, rx) = front.submitter();
            pin_workers(&front, &sub, workers);
            // Fill the queue, the tightest deadline first.
            let mut tickets = Vec::new();
            for k in 0..C as u64 {
                let deadline = if k == 0 { HOUR } else { 2 * HOUR + k };
                match sub.submit(JobRequest::new(TxnId(1)).with_deadline(deadline)) {
                    SubmitOutcome::Admitted { ticket } => tickets.push(ticket),
                    other => panic!("{workers} workers: unexpected {other:?}"),
                }
            }
            settle();
            // One more, looser than all of them: someone queued must go.
            let out = sub.submit(JobRequest::new(TxnId(1)).with_deadline(3 * HOUR));
            assert!(matches!(out, SubmitOutcome::Admitted { .. }), "{out:?}");
            match rx.try_recv() {
                Ok(Completion::Shed { ticket, .. }) => assert_eq!(
                    ticket, tickets[0],
                    "{workers} workers: the shed victim is not the tightest deadline"
                ),
                other => panic!("{workers} workers: expected a shed notice, got {other:?}"),
            }
        });
        assert_eq!((rt.shed, rt.rejected), (1, 0), "{workers} workers");
        assert_eq!(rt.committed, (workers + C) as u64, "{workers} workers");
    }
}

/// Sequence numbers under concurrent pops: four workers pop the queue
/// one submitter fills, and still every instance id is unique, each
/// template's `seq` values are exactly `0..n_t`, and within a template
/// `seq` rises with the ticket — instance order is admission order.
#[test]
fn concurrent_pops_number_each_template_in_admission_order() {
    let mut b = SetBuilder::new();
    for k in 0..3u32 {
        b.add(TransactionTemplate::new(
            format!("T{k}"),
            100 * (k as u64 + 1),
            vec![Step::write(ItemId(k), 1), Step::read(ItemId(3), 1)],
        ));
    }
    let set = b.build().expect("set");
    let config = FrontConfig::new(ProtocolKind::TwoPlHp)
        .with_policy(AdmissionPolicy::Block)
        .with_capacity(4)
        .with_rt(RtConfig::new(ProtocolKind::TwoPlHp).with_threads(4));
    const OFFERED: u64 = 300;
    let (rt, by_ticket) = run_front(&set, config, |front| {
        let (sub, rx) = front.submitter();
        for i in 0..OFFERED {
            // Uneven mix, so the templates' counters advance at
            // different rates.
            let txn = TxnId(((i * i + i / 3) % 3) as u32);
            match sub.submit(JobRequest::new(txn)) {
                SubmitOutcome::Admitted { ticket } => assert_eq!(ticket, i),
                other => panic!("unexpected {other:?}"),
            }
        }
        drop(sub);
        let mut by_ticket: Vec<(u64, InstanceId)> = rx
            .iter()
            .map(|c| match c {
                Completion::Committed { ticket, report } => (ticket, report.id),
                Completion::Shed { .. } => panic!("nothing sheds under Block"),
            })
            .collect();
        by_ticket.sort_unstable();
        by_ticket
    });
    assert_eq!(rt.committed, OFFERED);
    assert_eq!(by_ticket.len() as u64, OFFERED);
    for t in set.templates() {
        let seqs: Vec<u32> = by_ticket
            .iter()
            .filter(|(_, id)| id.txn == t.id)
            .map(|(_, id)| id.seq)
            .collect();
        let expect: Vec<u32> = (0..seqs.len() as u32).collect();
        assert_eq!(
            seqs, expect,
            "template {:?}: seq is not admission order",
            t.id
        );
    }
}
