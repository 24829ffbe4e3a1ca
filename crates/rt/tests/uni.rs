//! The one-worker pool is the paper's uniprocessor: it preempts at tick
//! boundaries under the kernel's dispatch rule, so on the logical
//! [`TestClock`] it runs the simulator's schedule — commit order, read
//! values, blocking — release for release. The waves are submitted on a
//! paused clock, a later one while the worker is held in a chosen tick,
//! so every schedule here is tick arithmetic, as in the simulator.

use rtdb_core::{Effect, ProtocolKind};
use rtdb_rt::clock::Clock;
use rtdb_rt::front::run_front_on;
use rtdb_rt::testkit::TestClock;
use rtdb_rt::{
    AdmissionPolicy, FrontConfig, JobRequest, RtConfig, RtResult, SubmitOutcome, Submitter,
};
use rtdb_sim::{Engine, RunOutcome, RunResult, SegKind, SimConfig, WorkloadParams};
use rtdb_storage::workspace::ReadRecord;
use rtdb_storage::CommittedIndex;
use rtdb_types::{
    InstanceId, ItemId, SetBuilder, Step, TransactionSet, TransactionTemplate, TxnId,
};
use std::time::Duration;

/// Nanoseconds per tick of busy work.
const TICK: u64 = 1_000;

/// Real time a test waits for the worker to reach its next busy step
/// before it calls the run stuck.
const STUCK: Duration = Duration::from_secs(10);

fn front(kind: ProtocolKind) -> FrontConfig {
    FrontConfig::new(kind)
        .with_policy(AdmissionPolicy::Reject)
        .with_rt(RtConfig::new(kind).with_threads(1).with_tick_ns(TICK))
}

/// Submit one job of each template in `txns`, in that order.
fn submit(sub: &Submitter<'_, TestClock>, txns: impl IntoIterator<Item = TxnId>) {
    for txn in txns {
        let out = sub.submit(JobRequest::new(txn));
        assert!(matches!(out, SubmitOutcome::Admitted { .. }), "{out:?}");
    }
}

/// Step the paused `clock` until it reads `ticks` ticks, each step once
/// the worker is held in it: the worker is then held in the tick that
/// starts there, and a job submitted now is seen when that tick ends.
fn step_to(clock: &TestClock, ticks: u64) {
    assert!(clock.await_held(1, STUCK), "the worker never got busy");
    while clock.now_ns() < ticks * TICK {
        clock.step();
        assert!(clock.await_held(1, STUCK), "the worker left its busy work");
    }
    assert_eq!(clock.now_ns(), ticks * TICK);
}

/// A high-priority job submitted while a long low-priority one is in its
/// busy work preempts it at the next tick boundary: it commits first, at
/// that boundary plus its own service, and the low job's commit moves by
/// exactly that service. A worker that runs each job to commit makes it
/// wait out the low job's whole residual.
#[test]
fn a_high_job_preempts_a_long_low_one_at_the_next_tick() {
    const LONG: u64 = 20;
    const SHORT: u64 = 3;
    const AT: u64 = 5;
    let set = SetBuilder::new()
        .with(TransactionTemplate::new(
            "high",
            100,
            vec![Step::compute(SHORT)],
        ))
        .with(TransactionTemplate::new(
            "low",
            100,
            vec![Step::compute(LONG)],
        ))
        .build()
        .expect("set");
    let (high, low) = (TxnId(0), TxnId(1));
    for kind in ProtocolKind::STANDARD {
        let clock = TestClock::default();
        let (rt, ()) = run_front_on(&set, front(kind), clock.clone(), |front| {
            let paused = clock.pause();
            let (sub, _rx) = front.submitter();
            submit(&sub, [low]);
            step_to(&clock, AT);
            submit(&sub, [high]);
            drop(paused);
        });
        let order: Vec<(TxnId, u64)> = rt.jobs.iter().map(|j| (j.id.txn, j.commit_ns)).collect();
        let high_commit = (AT + 1 + SHORT) * TICK;
        assert_eq!(
            order,
            [(high, high_commit), (low, (LONG + SHORT) * TICK)],
            "{kind:?}"
        );
        // Admitted in the tick that started at `AT`, begun when it ended.
        let h = &rt.jobs[0];
        assert_eq!((h.queue_ns, h.service_ns), (TICK, SHORT * TICK), "{kind:?}");
    }
}

/// Items of the hand-made set.
const X: ItemId = ItemId(0);
const Y: ItemId = ItemId(1);
const Z: ItemId = ItemId(2);

/// Four templates in descending priority; the lowest is the longest, and
/// it read-locks `X`, which the highest writes: under PCP-DA a top job
/// released while the low one runs is blocked on it (its read lock holds
/// the system ceiling at the top job's priority) and the low one runs on
/// at the top priority.
fn contended_templates() -> Vec<TransactionTemplate> {
    vec![
        TransactionTemplate::new("H", 100, vec![Step::write(X, 1), Step::read(Y, 1)]),
        TransactionTemplate::new("M", 100, vec![Step::read(Y, 1), Step::write(Z, 2)]),
        TransactionTemplate::new(
            "N",
            100,
            vec![Step::write(Y, 1), Step::compute(1), Step::read(Z, 1)],
        ),
        TransactionTemplate::new(
            "L",
            100,
            vec![Step::read(X, 2), Step::compute(6), Step::write(Y, 1)],
        ),
    ]
}

/// Generated templates, a hot, write-heavy mix, the longest last (lowest
/// priority, so wave one reaches it last).
fn generated_templates(seed: u64) -> Vec<TransactionTemplate> {
    let mut templates = WorkloadParams {
        templates: 4,
        items: 6,
        target_utilization: 0.6,
        hotspot_items: 2,
        hotspot_prob: 0.7,
        write_fraction: 0.5,
        seed,
        ..WorkloadParams::default()
    }
    .generate()
    .expect("workload generation")
    .set
    .templates()
    .to_vec();
    templates.sort_by_key(|t| t.wcet());
    templates
}

/// `templates`, in descending priority, each released `waves` times, the
/// waves `period` ticks apart from 0.
fn waves_of(templates: &[TransactionTemplate], waves: u32, period: u64) -> TransactionSet {
    let mut b = SetBuilder::new();
    for t in templates {
        let steps = t.steps.clone();
        b.add(TransactionTemplate::new(t.name.clone(), period, steps).with_instances(waves));
    }
    b.build().expect("set")
}

/// The simulator's run of `set` under `kind`, resolving deadlocks as the
/// runtime does.
fn simulate(set: &TransactionSet, kind: ProtocolKind) -> RunResult {
    let config = SimConfig::default().resolving_deadlocks();
    let sim = Engine::new(set, config).run_kind(kind).expect("sim run");
    assert_eq!(sim.outcome, RunOutcome::Completed, "{kind:?}");
    sim
}

/// A tick in the middle of the simulator's longest one-wave job under
/// `kind` — it has run before it and runs on after it — and no earlier
/// than any job's length, so that the waves can be a period apart.
fn middle_of_the_longest_job(templates: &[TransactionTemplate], kind: ProtocolKind) -> u64 {
    let one = waves_of(templates, 1, 1_000);
    let sim = simulate(&one, kind);
    let wcet = |t: TxnId| one.template(t).wcet().raw();
    let longest = (0..one.len() as u32)
        .map(TxnId)
        .max_by_key(|&t| (wcet(t), t))
        .expect("templates");
    let runs = sim.trace.segments().iter();
    let runs = runs.filter(|s| s.who.txn == longest && s.kind == SegKind::Running);
    let start = runs.clone().map(|s| s.from.raw()).min().expect("it ran");
    let end = runs.map(|s| s.to.raw()).max().expect("it ran");
    let at = wcet(longest).max(start + 1);
    assert!(
        at < end,
        "{kind:?}: the longest job ran over [{start}, {end})"
    );
    at
}

/// Run two waves of `templates` on one worker under `kind`, the second
/// released at `at`: wave one submitted at 0 in priority order, wave two
/// while the worker is held in the tick that ends at `at`.
fn run_waves(set: &TransactionSet, kind: ProtocolKind, at: u64) -> RtResult {
    let clock = TestClock::default();
    let wave = || (0..set.len() as u32).map(TxnId);
    let (rt, ()) = run_front_on(set, front(kind), clock.clone(), |front| {
        let paused = clock.pause();
        let (sub, _rx) = front.submitter();
        submit(&sub, wave());
        step_to(&clock, at - 1);
        submit(&sub, wave());
        drop(paused);
    });
    rt
}

/// Final-attempt reads of `who`.
fn reads_of(index: &CommittedIndex, who: InstanceId) -> Vec<ReadRecord> {
    index.reads(who).to_vec()
}

/// Every standard kind at one worker runs the simulator's two-wave
/// schedule, the second wave released in the middle of the first wave's
/// longest job: the same commit order, every instance's reads, restarts,
/// lower-priority blockers and commit-gate parks, and no park-timeout
/// wake-up. Under PCP-DA each job is blocked by at most one
/// lower-priority job (Theorem 1), no deadlock is resolved (Theorem 2),
/// no commit waits at the gate, and some job did block.
#[test]
fn one_worker_runs_the_simulators_schedule() {
    let sets: Vec<(String, Vec<TransactionTemplate>)> =
        std::iter::once(("contended".to_string(), contended_templates()))
            .chain(
                [3u64, 17, 41].map(|seed| (format!("generated/{seed}"), generated_templates(seed))),
            )
            .collect();
    let mut pcpda_blocked = 0;
    for kind in ProtocolKind::STANDARD {
        for (name, templates) in &sets {
            let at = middle_of_the_longest_job(templates, kind);
            let set = waves_of(templates, 2, at);
            let sim = simulate(&set, kind);
            let rt = run_waves(&set, kind, at);
            let what = format!("{kind:?} on {name}, wave two at {at}");

            let sim_order = sim.history.commit_order().to_vec();
            assert_eq!(sim_order.len(), 2 * set.len(), "{what}");
            let rt_order: Vec<InstanceId> = rt.jobs.iter().map(|j| j.id).collect();
            assert_eq!(rt_order, sim_order, "{what}: commit order");

            let (sim_index, rt_index) =
                (sim.history.committed_index(), rt.history.committed_index());
            for job in &rt.jobs {
                let id = job.id;
                assert_eq!(
                    reads_of(&rt_index, id),
                    reads_of(&sim_index, id),
                    "{what}: {id} read"
                );
                let m = sim.metrics.instance(id).expect("sim metrics");
                assert_eq!(job.restarts, m.restarts, "{what}: {id} restarts");
                assert_eq!(
                    job.lower_blockers, m.distinct_lower_blockers,
                    "{what}: {id} blockers"
                );
            }
            assert_eq!(rt.db.snapshot(), sim.db.snapshot(), "{what}: database");
            assert_eq!(rt.park_timeout_wakeups, 0, "{what}: a thread parked");
            let sim_gated = sim
                .trace
                .events()
                .iter()
                .filter(|(_, e)| matches!(e, Effect::Gated(..)))
                .count() as u64;
            let rt_gated: u64 = rt.per_shard.iter().map(|s| s.gate_parks).sum();
            assert_eq!(rt_gated, sim_gated, "{what}: gate parks");

            if kind == ProtocolKind::PcpDa {
                for job in &rt.jobs {
                    assert!(job.lower_blockers.len() <= 1, "{what}: {job:?}");
                }
                assert_eq!(rt.deadlocks_resolved, 0, "{what}");
                assert_eq!(rt_gated, 0, "{what}");
                pcpda_blocked += rt.jobs.iter().filter(|j| j.block_events > 0).count();
            }
        }
    }
    assert!(
        pcpda_blocked > 0,
        "no PCP-DA job blocked: the check saw nothing"
    );
}

/// A panic in the one worker's busy work reaches the caller: the run
/// returns by unwinding, promptly, instead of hanging on the worker.
#[test]
fn a_panic_in_busy_work_reaches_the_caller() {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A clock whose sixth busy step panics.
    struct Faulty(TestClock, AtomicU64);
    impl Clock for Faulty {
        fn now_ns(&self) -> u64 {
            self.0.now_ns()
        }
        fn work(&self, ticks: u64, tick_ns: u64) {
            if self.1.fetch_add(1, Ordering::Relaxed) == 5 {
                panic!("busy work failed");
            }
            self.0.work(ticks, tick_ns);
        }
    }

    let set = SetBuilder::new()
        .with(TransactionTemplate::new(
            "A",
            10,
            vec![Step::write(X, 2), Step::read(Y, 1)],
        ))
        .with(TransactionTemplate::new(
            "B",
            20,
            vec![Step::read(X, 1), Step::write(Y, 2)],
        ))
        .build()
        .expect("set");
    let set: &'static TransactionSet = Box::leak(Box::new(set));
    let (tx, rx) = std::sync::mpsc::channel();
    // Detached, so a hang fails the `recv_timeout` below instead of the
    // whole test binary.
    std::thread::spawn(move || {
        let run = std::panic::catch_unwind(|| {
            let clock = Faulty(TestClock::default(), AtomicU64::new(0));
            run_front_on(set, front(ProtocolKind::PcpDa), clock, |front| {
                let (sub, _rx) = front.submitter();
                for k in 0..200u32 {
                    let _ = sub.submit(JobRequest::new(TxnId(k % 2)));
                }
            })
        });
        let _ = tx.send(run.is_err());
    });
    let unwound = rx
        .recv_timeout(Duration::from_secs(1))
        .expect("the run hung on a panicked worker");
    assert!(unwound, "the run returned as if nothing happened");
}
