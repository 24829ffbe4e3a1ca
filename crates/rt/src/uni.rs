//! The one-worker pool is the paper's uniprocessor.
//!
//! PCP-DA's theorems assume a preemptive priority-driven processor. A pool
//! of one worker over one shard is one: its worker runs the simulator's
//! dispatch (`Sim::run`) over the shard's kernel instead of running each
//! job to commit. It keeps every instance it has begun live at once, each
//! with its own step progress and a recycled workspace, and always runs
//! the one the kernel's dispatch rule picks
//! ([`rtdb_core::StateKernel::pick_ready`]: the highest running priority
//! among the instances that wait for nobody). Busy work runs one tick at
//! a time outside the shard's guard; between two ticks — at step
//! boundaries when `tick_ns` is 0 — a queued job is begun only if it
//! would run before the instance about to run
//! ([`rtdb_core::StateKernel::arrival_outranks`]), or if nothing is live.
//! So a top-band job that arrives behind a long low one is begun within
//! one tick, not after the low one's whole residual.
//!
//! A denied request does not park the thread. The requester waits on its
//! kernel wait edges, and its blocker, which inherits its priority, is the
//! next pick. Aborts, restart holds, commit gates, early releases and
//! deadlock resolution are the kernel entry points' doing, as in the
//! simulator; the dispatcher acts on their effects the way `Sim::apply`
//! does: an aborted instance starts its attempt over from step 0 when it
//! is next picked, and one parked at its commit gate commits as soon as
//! the gate opens. Nothing here waits but the pop of an empty queue with
//! nothing live.
//!
//! The closed loop keeps its meaning: its next job starts when the
//! previous one commits, so there is one live instance at a time and the
//! dispatch is `execute_job`'s run to commit, at its cost — one shard
//! guard per step boundary that decides something and one per commit. A
//! read-only job on the snapshot path takes no lock and no place in the
//! dispatch: it runs to commit as soon as it is popped.

use crate::admission::Admitted;
use crate::clock::Clock;
use crate::manager::{JobStats, Shared, WorkerCtx};
use crate::runtime::{committed_report, execute_snapshot_job, JobReport, JobSource, RtConfig};
use crate::sharded::ShardedManager;
use crate::snapshot::SnapshotSide;
use rtdb_core::{Effect, EngineView, StateKernel};
use rtdb_storage::Workspace;
use rtdb_types::{InstanceId, Priority, TransactionSet};
use std::sync::MutexGuard;

/// Run the jobs of `source` on the calling thread, the pool's one worker
/// over `manager`'s one shard, returning their reports.
pub(crate) fn run<'a, C: Clock>(
    set: &'a TransactionSet,
    manager: &ShardedManager<'a>,
    snap: Option<&SnapshotSide>,
    source: &JobSource<'_, C>,
    config: &RtConfig,
    clock: &C,
) -> Vec<JobReport> {
    debug_assert_eq!(manager.shard_count(), 1, "one worker, one shard");
    let kind = config.kind;
    Uni {
        set,
        manager,
        snap,
        source,
        clock,
        tick_ns: config.tick_ns,
        releases_early: kind.releases_early(),
        decides: kind.releases_early() || kind.may_abort(),
        slots: Vec::new(),
        ctx: WorkerCtx::new(0),
        reports: Vec::with_capacity(source.known_len()),
        spare: Vec::new(),
    }
    .run()
}

/// What the dispatcher keeps about one live instance, at its kernel
/// record slot ([`StateKernel::slot_of`]); a departed instance's entry
/// keeps its workspace for the next instance the kernel begins there.
struct Live {
    id: InstanceId,
    /// The step it runs; its template's step count once it reached its
    /// commit (parked at a closed commit gate).
    step: usize,
    /// Ticks of the current step run so far.
    ran: u64,
    /// The current step's lock is held and its data operation done (a
    /// compute step has nothing to acquire).
    acquired: bool,
    ws: Workspace,
    /// When it was popped.
    started_ns: u64,
    /// Its admission record (`None` in the closed loop).
    admitted: Option<Admitted>,
}

impl Live {
    /// Start the attempt over: step 0, nothing run, nothing held.
    fn restart(&mut self) {
        self.step = 0;
        self.ran = 0;
        self.acquired = false;
        self.ws.reset(self.id);
    }
}

/// A popped job: its instance and, in the open loop, its admission record.
type Job = (InstanceId, Option<Admitted>);

struct Uni<'r, 'a, C> {
    set: &'a TransactionSet,
    manager: &'r ShardedManager<'a>,
    snap: Option<&'r SnapshotSide>,
    source: &'r JobSource<'r, C>,
    clock: &'r C,
    tick_ns: u64,
    /// The kind releases early: a finished step's releases and retires
    /// go to the kernel.
    releases_early: bool,
    /// The manager's boundary rule: a step boundary takes the shard guard
    /// when the kind releases early or may abort, and otherwise only
    /// before a step that requests a lock.
    decides: bool,
    /// Indexed by kernel record slot.
    slots: Vec<Live>,
    /// The snapshot path's workspace and reader slot, and the commit's
    /// snapshot batch.
    ctx: WorkerCtx,
    reports: Vec<JobReport>,
    /// Spare lists for [`Uni::settle`], one per nesting depth.
    spare: Vec<Vec<Effect>>,
}

impl<'a, C: Clock> Uni<'_, 'a, C> {
    fn run(mut self) -> Vec<JobReport> {
        // Nothing is live: wait for a job.
        'idle: while let Some(job) = self.source.next() {
            let Some(job) = self.run_if_snapshot(job) else {
                continue;
            };
            let mut g = self.manager.lock(0);
            self.begin(&mut g, job);
            // Something is live: dispatch until nothing is.
            loop {
                let Some((who, s)) = self.pick(&mut g) else {
                    continue 'idle;
                };
                let base = self.set.priority_of(who.txn);
                let running = g.kernel().record_at(s).running;
                let preempts = |q| StateKernel::arrival_outranks(q, running, base);
                if let Some(job) = self.source.next_if(preempts) {
                    if let Some(job) = self.run_if_snapshot(job) {
                        self.begin(&mut g, job);
                    }
                    continue;
                }
                // Run it step by step until it gives way: blocked,
                // wounding or aborted, preempted, committed, or a kernel
                // call for its early releases. Between two of its steps
                // nothing else changes, so it stays the pick unless a job
                // that would run first is queued.
                while self.acquire(&mut g, who, s) {
                    // A grant can raise the runner's priority (a writer
                    // parked at its gate waits on the reader it let past).
                    let running = g.kernel().record_at(s).running;
                    drop(g);
                    let finished = self.busy(s, running, base);
                    g = self.manager.lock(0);
                    let preempts = |q| StateKernel::arrival_outranks(q, running, base);
                    if !finished
                        || !self.step_finished(&mut g, who, s)
                        || self.source.top_priority().is_some_and(preempts)
                    {
                        break;
                    }
                }
            }
        }
        self.reports
    }

    /// Run `job` to commit at once if it takes the snapshot path;
    /// otherwise hand it back.
    #[inline]
    fn run_if_snapshot(&mut self, job: Job) -> Option<Job> {
        let side = self
            .snap
            .filter(|_| self.set.template(job.0.txn).is_read_only());
        let Some(side) = side else {
            return Some(job);
        };
        let (id, admitted) = job;
        let started = self.clock.now_ns();
        let work = |ticks| self.clock.work(ticks, self.tick_ns);
        let stats = execute_snapshot_job(self.set, side, id, &mut self.ctx, &work);
        self.report(id, admitted, started, stats);
        None
    }

    /// Register `job` with the kernel, its progress at step 0.
    fn begin(&mut self, g: &mut MutexGuard<'_, Shared<'a>>, (id, admitted): Job) {
        let started_ns = self.clock.now_ns();
        let s = g.begin(id, true, None);
        match self.slots.get_mut(s) {
            Some(live) => {
                live.id = id;
                live.started_ns = started_ns;
                live.admitted = admitted;
                live.restart();
            }
            None => {
                debug_assert_eq!(s, self.slots.len(), "kernel slots are dense");
                self.slots.push(Live {
                    id,
                    step: 0,
                    ran: 0,
                    acquired: false,
                    ws: Workspace::new(id),
                    started_ns,
                    admitted,
                });
            }
        }
    }

    /// The instance to run, with its slot; `None` when nothing is live.
    /// Live instances of which none is ready wait on each other: their
    /// cycles are resolved, as the simulator does before it reports a
    /// stall; one the kernel cannot resolve is a defect, and panics.
    #[inline]
    fn pick(&mut self, g: &mut MutexGuard<'_, Shared<'a>>) -> Option<(InstanceId, usize)> {
        if let Some(runner) = g.kernel().pick_ready() {
            return Some(runner);
        }
        if g.kernel().active_instances().is_empty() {
            return None;
        }
        g.resolve_stall();
        self.settle(g);
        let runner = g.kernel().pick_ready();
        assert!(
            runner.is_some() || g.kernel().active_instances().is_empty(),
            "one-worker dispatch stalled: {:?} live, none ready",
            g.kernel().active_instances()
        );
        runner
    }

    /// Make the runner `who`, in slot `s`, hold its current step's lock;
    /// true when it may run the step. A denial leaves it blocked on its
    /// blockers, who inherit its priority, or restarts it, or aborts the
    /// holders it wounded; the caller picks again either way.
    #[inline]
    fn acquire(&mut self, g: &mut MutexGuard<'_, Shared<'a>>, who: InstanceId, s: usize) -> bool {
        let live = &mut self.slots[s];
        if live.acquired {
            return true;
        }
        let step = &self.set.template(who.txn).steps[live.step];
        if let Some((item, mode)) = step.op.access() {
            if !g.try_acquire(who, live.step, item, mode, &mut live.ws) {
                self.settle(g);
                return false;
            }
            g.ops += 1;
        }
        live.acquired = true;
        true
    }

    /// The runner's busy work, one tick at a time, outside the shard's
    /// guard: true when its step ended, false when a queued job would run
    /// before it (it runs at `running` from base `base`; nothing else
    /// moves either while this thread is here). A boundary at which the
    /// manager decides nothing — not the last step, a kind that neither
    /// releases early nor aborts, a compute step next — is crossed here,
    /// unless a queued job would run first.
    #[inline]
    fn busy(&mut self, s: usize, running: Priority, base: Priority) -> bool {
        let source = self.source;
        let preempted = || {
            source
                .top_priority()
                .is_some_and(|q| StateKernel::arrival_outranks(q, running, base))
        };
        let live = &mut self.slots[s];
        let steps = &self.set.template(live.id.txn).steps;
        loop {
            let duration = steps[live.step].duration.raw();
            if self.tick_ns == 0 {
                live.ran = duration;
            }
            while live.ran < duration {
                if preempted() {
                    return false;
                }
                self.clock.work(1, self.tick_ns);
                live.ran += 1;
            }
            let next = live.step + 1;
            if next == steps.len()
                || self.decides
                || steps[next].op.access().is_some()
                || preempted()
            {
                return true;
            }
            live.step = next;
            live.ran = 0;
        }
    }

    /// The runner `who`, in slot `s`, finished its current step: apply
    /// the step's early releases and retires, or commit after the last.
    /// True when it simply goes on to its next step: the kernel was not
    /// called, so nothing but its progress changed.
    #[inline]
    fn step_finished(
        &mut self,
        g: &mut MutexGuard<'_, Shared<'a>>,
        who: InstanceId,
        s: usize,
    ) -> bool {
        let live = &mut self.slots[s];
        let done = live.step;
        live.step += 1;
        live.ran = 0;
        live.acquired = false;
        if live.step == self.set.template(who.txn).steps.len() {
            self.commit(g, who, s);
            false
        } else if self.releases_early {
            g.step_done(who, done, &live.ws);
            self.settle(g);
            false
        } else {
            true
        }
    }

    /// Commit `who`, in slot `s`, through the manager's commit body. At a
    /// closed commit gate it parks: its wait edges are the gate's
    /// entries, and [`Uni::settle`] commits it when the last one leaves.
    fn commit(&mut self, g: &mut MutexGuard<'_, Shared<'a>>, who: InstanceId, s: usize) {
        let live = &mut self.slots[s];
        let guards = std::slice::from_mut(g);
        if let Some(stats) =
            self.manager
                .commit_locked(who, guards, &live.ws, &mut self.ctx.batch, 0)
        {
            let (started, admitted) = (live.started_ns, live.admitted.take());
            self.report(who, admitted, started, stats);
        }
        self.settle(g);
    }

    /// Act on what the last kernel call did, in order, as the simulator's
    /// `apply` does: an aborted instance starts its attempt over, and one
    /// parked at its commit gate that opened commits now, after the
    /// departure it waited for (a gate that opens mid-execution is simply
    /// open when its instance gets there).
    fn settle(&mut self, g: &mut MutexGuard<'_, Shared<'a>>) {
        let acted_on = |e: &&Effect| matches!(e, Effect::Aborted(..) | Effect::GateOpened(_));
        if !g.effects().iter().any(|e| acted_on(&e)) {
            return;
        }
        let mut acts = self.spare.pop().unwrap_or_default();
        acts.clear();
        acts.extend(g.effects().iter().filter(acted_on));
        for &effect in &acts {
            match effect {
                Effect::Aborted(who, ..) => {
                    g.take_abort(who);
                    let s = g
                        .kernel()
                        .slot_of(who)
                        .expect("an aborted instance is live");
                    self.slots[s].restart();
                }
                Effect::GateOpened(who) => {
                    let Some(s) = g.kernel().slot_of(who) else {
                        continue;
                    };
                    if self.slots[s].step == self.set.template(who.txn).steps.len() {
                        self.commit(g, who, s);
                    }
                }
                _ => unreachable!("only aborts and opened gates are acted on"),
            }
        }
        self.spare.push(acts);
    }

    /// Report job `id`, started at `started`, committed now.
    fn report(
        &mut self,
        id: InstanceId,
        admitted: Option<Admitted>,
        started: u64,
        stats: JobStats,
    ) {
        let committed = self.clock.now_ns();
        let report = committed_report(self.set, id, admitted, started, committed, stats);
        self.reports.push(report);
    }
}
