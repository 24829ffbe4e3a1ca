//! The simulation engine.
//!
//! A run is a deterministic function of `(transaction set, protocol,
//! config)`. The engine owns the clock, the arrival calendar, the
//! dispatcher, the workspaces and the trace; the protocol state — lock
//! table, inheritance, `DataRead`/staged sets, pending requests,
//! dependencies, database, history — and every transition over it live
//! in [`rtdb_core::StateKernel`], which the threaded runtime drives too.
//! The engine presents each step's access and each commit to the kernel's
//! entry points (which consult the [`ProtocolFor`] and apply its decision,
//! wounds, dies and deadlock victims included), logs each effect they
//! return in the trace as it is, stamped with the clock, and acts on it
//! with Gantt segments and ready-queue changes.
//!
//! ## Semantics (matching the paper's examples tick-for-tick)
//!
//! * The ready instance with the highest **running** priority executes
//!   (ties: higher base priority, then earlier instance of the same
//!   template).
//! * A step's lock is requested the instant the step becomes current; the
//!   read/staged write is performed at grant time; the step then consumes
//!   its CPU duration, during which the instance may be preempted but
//!   keeps its locks.
//! * Denied requests block the instance; the blockers inherit its priority
//!   transitively; blocked requests are re-evaluated (in descending
//!   priority) whenever locks are released.
//! * An instance is ready while it waits for nobody: the kernel's wait
//!   edges — a denied request's blockers, a closed commit gate, a restart
//!   hold — are the one record of who may run.
//! * Commit is instantaneous at the end of the last step: staged writes
//!   install, all locks release, the instance leaves the system.
//! * Deadlocks (possible under 2PL-PI and Naive-DA only) are detected on
//!   the wait-for graph at block time; depending on
//!   [`SimConfig::resolve_deadlocks`] the run either stops with
//!   [`RunOutcome::Deadlock`] or aborts the lowest-priority instance on
//!   every cycle, in one call, and continues.
//!
//! ## Hot-path layout
//!
//! A live instance has one handle, the slot of its kernel [`Record`]
//! ([`StateKernel::slot_of`]). The simulation-only half of its state
//! (progress, clocks, workspace) is an `InstanceSlot` in a `Vec` indexed
//! by that slot: a slot is reused by whichever instance the kernel begins
//! next, keeping its workspace capacity, so the steady state of a long
//! run allocates nothing per instance. The per-instance sweeps (dispatch,
//! lower-priority attribution, deadline misses) walk
//! [`EngineView::active_instances`] and [`StateKernel::active_slots`] in
//! step and search nothing. Dispatch is the kernel's one rule
//! ([`StateKernel::pick_ready`], which the runtime's one-worker pool runs
//! too): one pass that compares running priorities and reads the
//! tie-breaks only on a tie; the attribution sweep is skipped while the runner is alone. The
//! system ceiling is sampled only on a lock transition: every protocol's
//! [`ProtocolFor::system_ceiling`] is a function of the lock table, so
//! while [`rtdb_core::LockTable::version`] stands still the last sample
//! stands (checked in debug builds and under `oracle-checks`). Arrivals
//! are not materialized up front; an `ArrivalCalendar` (a binary heap
//! with one outstanding entry per template) produces them lazily in the
//! exact order the old eager sorted vector did, a template's in `seq`
//! order, so each instance's metrics record opens at its final,
//! id-ordered position when it arrives and the report needs no sort.
//! `tests/golden.rs`, which pins every observable of 880 seeded runs, is
//! the layout's oracle (DESIGN.md §6b).

use crate::metrics::{InstanceMetrics, MetricsReport};
use crate::trace::{SegKind, Trace};
use rtdb_core::{
    CeilingFlavor, Effect, Effects, EngineView, ProtocolFor, ProtocolKind, Record, StateKernel,
};
use rtdb_protocols::{instantiate, AnyProtocol};
use rtdb_storage::{Database, History, ReplayOutcome, SerializationGraph, Workspace};
use rtdb_types::{Duration, Error, InstanceId, Result, Tick, TransactionSet, TxnId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Release arrivals strictly before this tick. `None`: simulate two
    /// hyperperiods (or just the explicitly bounded instances).
    pub horizon: Option<u64>,
    /// On deadlock: abort the lowest-priority instance on every cycle and
    /// continue (`true`), or stop with [`RunOutcome::Deadlock`] (`false`).
    pub resolve_deadlocks: bool,
    /// Safety budget on scheduler iterations.
    pub max_steps: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            horizon: None,
            resolve_deadlocks: false,
            max_steps: 10_000_000,
        }
    }
}

impl SimConfig {
    /// Config with an explicit horizon.
    pub fn with_horizon(horizon: u64) -> Self {
        SimConfig {
            horizon: Some(horizon),
            ..Default::default()
        }
    }

    /// Enable deadlock resolution by victim abort.
    pub fn resolving_deadlocks(mut self) -> Self {
        self.resolve_deadlocks = true;
        self
    }
}

/// How a run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// All released instances committed (or the horizon was reached with
    /// every remaining instance still making progress).
    Completed,
    /// An unresolved deadlock stopped the run; the cycle is attached.
    Deadlock(Vec<InstanceId>),
}

/// Everything a run produces.
#[derive(Debug)]
pub struct RunResult {
    /// Protocol name.
    pub protocol: &'static str,
    /// Full event history (reads, writes, commits, aborts, installs).
    pub history: History,
    /// Final database state.
    pub db: Database,
    /// Per-instance / per-template statistics.
    pub metrics: MetricsReport,
    /// Segments, events and ceiling samples for timeline rendering.
    pub trace: Trace,
    /// Completion or deadlock.
    pub outcome: RunOutcome,
    /// Value of the simulation clock when the run ended.
    pub final_clock: Tick,
}

impl RunResult {
    /// Serial-replay oracle in **commit order** (Theorem 3's serialization
    /// order — valid for every protocol here except CCP, whose early
    /// unlock lets the serialization order deviate from commit order; use
    /// [`RunResult::replay_check_topological`] for CCP).
    pub fn replay_check(&self, set: &TransactionSet) -> ReplayOutcome {
        rtdb_storage::replay_serial(set, &self.history, &self.db)
    }

    /// Serialization graph of the history.
    pub fn serialization_graph(&self) -> SerializationGraph {
        SerializationGraph::build(&self.history)
    }

    /// `true` if the serialization graph is acyclic (conflict-serializable
    /// history). This is the correctness oracle valid for *all* protocols.
    pub fn is_conflict_serializable(&self) -> bool {
        self.serialization_graph().find_cycle().is_none()
    }

    /// Serial-replay oracle in a topological order of the serialization
    /// graph (view check valid for CCP). Returns `None` if the graph is
    /// cyclic.
    pub fn replay_check_topological(&self, set: &TransactionSet) -> Option<ReplayOutcome> {
        let index = self.history.committed_index();
        let topo = SerializationGraph::from_index(&index).topological_order()?;
        Some(rtdb_storage::replay_in_order(set, &index, &topo, &self.db))
    }
}

/// The engine. Create with [`Engine::new`], execute with [`Engine::run`].
pub struct Engine<'a> {
    set: &'a TransactionSet,
    config: SimConfig,
}

impl<'a> Engine<'a> {
    /// Engine over a transaction set.
    pub fn new(set: &'a TransactionSet, config: SimConfig) -> Self {
        Engine { set, config }
    }

    /// Execute one full run under `protocol`, monomorphized for its
    /// type: a concrete protocol (`&mut PcpDa::new()`) is called
    /// directly, an [`AnyProtocol`] by one enum match per callback, and
    /// either is handed the concrete view — no vtable on either side.
    /// The caller keeps the instance, e.g. to read
    /// [`AnyProtocol::requests`] afterwards. [`RunResult::trace`] holds
    /// every [`Effect`] of the run with the tick it happened at.
    ///
    /// ```
    /// use rtdb_core::{Decision, Effect, EngineView, LockRequest, ProtocolFor, ProtocolKind};
    /// use rtdb_sim::{instantiate, AnyProtocol, Engine, SimConfig};
    /// use rtdb_types::{ItemId, SetBuilder, Step, TransactionTemplate};
    ///
    /// /// Exclusive locks: block on whoever holds the item in any mode.
    /// struct Exclusive;
    /// impl<V: EngineView + ?Sized> ProtocolFor<V> for Exclusive {
    ///     fn name(&self) -> &'static str {
    ///         "exclusive"
    ///     }
    ///     fn request(&mut self, view: &V, req: LockRequest) -> Decision {
    ///         let locks = view.locks();
    ///         let holders: Vec<_> = locks
    ///             .writers_other_than(req.item, req.who)
    ///             .chain(locks.readers_other_than(req.item, req.who))
    ///             .collect();
    ///         if holders.is_empty() {
    ///             Decision::Grant(None)
    ///         } else {
    ///             Decision::block_on(req.who, holders)
    ///         }
    ///     }
    /// }
    ///
    /// let set = SetBuilder::new()
    ///     .with(TransactionTemplate::new("T1", 10, vec![Step::read(ItemId(0), 1)]))
    ///     .with(TransactionTemplate::new("T2", 20, vec![Step::write(ItemId(0), 2)]))
    ///     .build()
    ///     .unwrap();
    /// let engine = Engine::new(&set, SimConfig::with_horizon(40));
    ///
    /// let run = engine.run(&mut Exclusive).unwrap();
    /// assert_eq!(run.protocol, "exclusive");
    /// assert!(run.is_conflict_serializable());
    /// // Both arrive at 0; T1, of the shorter period, takes item 0 first.
    /// // A protocol that names no rules grants with `None`.
    /// let granted = run.trace.events().iter().find(|(_, e)| matches!(e, Effect::Granted(..)));
    /// assert!(matches!(granted, Some((at, Effect::Granted(r, None))) if at.raw() == 0 && r.who.txn.0 == 0));
    ///
    /// // A line-up chosen at run time is a `Vec<AnyProtocol>`.
    /// let mut lineup: Vec<AnyProtocol> =
    ///     ProtocolKind::STANDARD.iter().map(|&k| instantiate(k)).collect();
    /// for p in &mut lineup {
    ///     let run = engine.run(p).unwrap();
    ///     assert_eq!(run.protocol, p.kind().name());
    ///     assert!(p.requests() > 0);
    /// }
    /// ```
    pub fn run<'s, P: ProtocolFor<StateKernel<'s>>>(
        &'s self,
        protocol: &mut P,
    ) -> Result<RunResult> {
        let mut sim = Sim::new(self.set, &self.config, protocol.ceiling_flavor());
        sim.run(protocol)?;
        let mut result = sim.finish();
        result.protocol = protocol.name();
        Ok(result)
    }

    /// [`Engine::run`] under a fresh instance of the registry protocol
    /// `kind`.
    pub fn run_kind(&self, kind: ProtocolKind) -> Result<RunResult> {
        self.run(&mut instantiate(kind))
    }

    /// [`Engine::run`] with the protocol type fixed to [`AnyProtocol`].
    /// Nothing in the workspace calls it; `benchmark/src/simoff.rs` does,
    /// and it goes when that caller switches to [`Engine::run`].
    pub fn run_any(&self, protocol: &mut AnyProtocol) -> Result<RunResult> {
        self.run(protocol)
    }
}

/// What only the simulation keeps about one live instance, at its kernel
/// record slot: its progress through the template, its clocks and its
/// workspace (whose capacity survives reuse). The protocol-visible half
/// lives in the kernel's [`Record`].
#[derive(Debug)]
struct InstanceSlot {
    release: Tick,
    deadline: Tick,
    step: usize,
    consumed: u64,
    acquired: bool,
    blocked_since: Option<Tick>,
    /// A deadline-miss event was already emitted for this instance.
    miss_logged: bool,
    blocking: Duration,
    lower_exec: Duration,
    workspace: Workspace,
}

impl InstanceSlot {
    /// The slot of a released instance around the buffer `workspace`
    /// (reset to `id`): the one field list both a fresh and a recycled
    /// slot are built from.
    fn new(id: InstanceId, release: Tick, deadline: Tick, mut workspace: Workspace) -> Self {
        workspace.reset(id);
        InstanceSlot {
            release,
            deadline,
            step: 0,
            consumed: 0,
            acquired: false,
            blocked_since: None,
            miss_logged: false,
            blocking: Duration::ZERO,
            lower_exec: Duration::ZERO,
            workspace,
        }
    }

    fn fresh(id: InstanceId, release: Tick, deadline: Tick) -> Self {
        Self::new(id, release, deadline, Workspace::new(id))
    }

    /// Re-home a slot a departed instance left to a new one (of any
    /// template), keeping its workspace buffers.
    fn reset(&mut self, id: InstanceId, release: Tick, deadline: Tick) {
        let workspace = std::mem::replace(&mut self.workspace, Workspace::new(id));
        *self = Self::new(id, release, deadline, workspace);
    }
}

/// Lazy arrival source: one outstanding `(release, template, seq)` entry
/// per template in a min-heap; popping an entry enqueues the template's
/// next eligible instance. Emits exactly the ascending
/// `(Tick, TxnId, seq)` sequence the old eagerly-materialized vector held
/// — without the up-front O(instances) memory (and without its 2M cap).
struct ArrivalCalendar {
    horizon: Tick,
    heap: BinaryHeap<Reverse<(Tick, TxnId, u32)>>,
}

impl ArrivalCalendar {
    fn new(set: &TransactionSet, horizon: Tick) -> Self {
        let mut cal = ArrivalCalendar {
            horizon,
            heap: BinaryHeap::with_capacity(set.templates().len()),
        };
        for t in set.templates() {
            cal.enqueue(set, t.id, 0);
        }
        cal
    }

    /// Push instance `seq` of template `txn` if it is due to be released:
    /// explicitly bounded templates release all their instances regardless
    /// of the horizon, unbounded ones stop at it.
    fn enqueue(&mut self, set: &TransactionSet, txn: TxnId, seq: u32) {
        let t = set.template(txn);
        let eligible = match t.instances {
            Some(n) => seq < n,
            None => t.release_of(seq) < self.horizon,
        };
        if eligible {
            self.heap.push(Reverse((t.release_of(seq), txn, seq)));
        }
    }

    /// The next arrival, if any, without consuming it.
    #[inline]
    fn peek(&self) -> Option<(Tick, TxnId, u32)> {
        self.heap.peek().map(|&Reverse(e)| e)
    }

    /// Consume the next arrival and schedule its successor.
    fn pop(&mut self, set: &TransactionSet) -> Option<(Tick, TxnId, u32)> {
        let Reverse((t, txn, seq)) = self.heap.pop()?;
        self.enqueue(set, txn, seq + 1);
        Some((t, txn, seq))
    }
}

struct Sim<'a> {
    set: &'a TransactionSet,
    /// Protocol state and its transitions, the committed store and the
    /// history — shared with the runtime (`rtdb_core::kernel`).
    kernel: StateKernel<'a>,
    /// What only a simulation keeps per live instance (progress, clocks,
    /// the workspace), indexed by the kernel's record slot.
    slots: Vec<InstanceSlot>,
    config: &'a SimConfig,
    clock: Tick,
    calendar: ArrivalCalendar,
    /// Spare buffers for what a kernel call did, kept for their capacity:
    /// one per nesting depth, since a commit gate that opens inside
    /// [`Sim::apply`] commits through [`Sim::commit`] while the caller's
    /// buffer is still out.
    fx: Vec<Effects>,
    trace: Trace,
    metrics: MetricsReport,
    outcome: RunOutcome,
    /// Earliest deadline that may still need a miss event; the sweep in
    /// [`Sim::log_deadline_misses`] is skipped while the clock is before
    /// it.
    next_miss_check: Tick,
    /// The lock table's version at the last ceiling sample
    /// ([`Sim::push_ceiling`]).
    sampled_version: Option<u64>,
}

impl<'a> Sim<'a> {
    fn new(set: &'a TransactionSet, config: &'a SimConfig, flavor: Option<CeilingFlavor>) -> Self {
        let horizon = match config.horizon {
            Some(h) => Tick(h),
            None => {
                let max_offset = set
                    .templates()
                    .iter()
                    .map(|t| t.offset)
                    .max()
                    .unwrap_or(Tick::ZERO);
                max_offset + set.hyperperiod() + set.hyperperiod()
            }
        };
        let calendar = ArrivalCalendar::new(set, horizon);

        // Pre-size the history, trace and metrics for the run's volume so
        // steady-state appends never reallocate: a template releases the
        // instances the calendar finds eligible (capped).
        const RESERVE_CAP: u64 = 1 << 20;
        let released: Vec<u64> = set
            .templates()
            .iter()
            .map(|t| match t.instances {
                Some(n) => u64::from(n),
                None if horizon > t.offset => {
                    let span = horizon.since(t.offset).raw();
                    span.div_ceil(t.period.raw().max(1))
                }
                None => 0,
            })
            .collect();
        let est_ops: u64 = set
            .templates()
            .iter()
            .zip(&released)
            .map(|(t, &n)| n * (t.steps.len() as u64 + 3))
            .sum();
        let total: u64 = released.iter().sum();
        let instances = total.min(RESERVE_CAP) as usize;
        // A template's share of the capped total.
        let share =
            |n: u64| (u128::from(n) * instances as u128 / u128::from(total.max(1))) as usize;
        // Live at once: about one instance per template. Items: one past
        // the highest the set accesses.
        let live = set.len();
        let items = set
            .templates()
            .iter()
            .flat_map(|t| t.steps.iter().filter_map(|s| s.op.access()))
            .map(|(item, _)| item.index() + 1)
            .max()
            .unwrap_or(0);
        let mut kernel = StateKernel::new(set, flavor);
        if !config.resolve_deadlocks {
            kernel = kernel.reporting_deadlocks();
        }
        kernel.reserve_history(est_ops.min(RESERVE_CAP) as usize);
        kernel.reserve(live, items);
        // A run logs 1.3–1.5 segments per instance (1.8 at most on the
        // benchmark's 200-set pool), and, under a protocol with ceilings,
        // 1.2–1.8 ceiling samples (2.5 at most); without, one.
        let mut trace = Trace::new();
        trace.reserve(
            2 * instances,
            est_ops.min(RESERVE_CAP) as usize,
            if flavor.is_some() { 2 * instances } else { 1 },
        );
        let mut metrics = MetricsReport::new();
        metrics.reserve(released.iter().map(|&n| share(n)));

        Sim {
            set,
            kernel,
            slots: Vec::with_capacity(live),
            config,
            clock: Tick::ZERO,
            calendar,
            // A commit gate that opens inside a commit nests one deep.
            fx: Vec::with_capacity(2),
            trace,
            metrics,
            outcome: RunOutcome::Completed,
            next_miss_check: Tick(u64::MAX),
            sampled_version: None,
        }
    }

    /// The record slot of a live instance.
    #[inline]
    fn slot_of(&self, who: InstanceId) -> usize {
        self.kernel.slot_of(who).expect("instance is live")
    }

    #[inline]
    fn slot_mut(&mut self, who: InstanceId) -> &mut InstanceSlot {
        let s = self.slot_of(who);
        &mut self.slots[s]
    }

    /// A spare effects buffer, to hand back with [`Sim::apply_and_keep`].
    #[inline]
    fn take_fx(&mut self) -> Effects {
        self.fx.pop().unwrap_or_default()
    }

    /// [`Sim::apply`] `fx`, then keep it for the next kernel call.
    #[inline]
    fn apply_and_keep<P: ProtocolFor<StateKernel<'a>>>(&mut self, fx: Effects, protocol: &mut P) {
        self.apply(&fx, protocol);
        self.fx.push(fx);
    }

    /// Sample the system ceiling for the trace. The trace keeps one
    /// sample per tick, the last, so one sample before the clock moves on
    /// (and one when the run ends) records every tick's final ceiling.
    /// The ceiling is a function of the lock table
    /// ([`ProtocolFor::system_ceiling`]) and the trace drops a repeated
    /// value, so while the table's version has not moved there is
    /// nothing to sample; debug builds and `oracle-checks` query anyway
    /// and check the premise against the last sample.
    fn push_ceiling<P: ProtocolFor<StateKernel<'a>>>(&mut self, protocol: &P) {
        let version = self.kernel.locks().version();
        if self.sampled_version == Some(version) {
            if cfg!(debug_assertions) || cfg!(feature = "oracle-checks") {
                let last = self.trace.ceiling_samples().last().map(|&(_, c)| c);
                assert_eq!(
                    Some(protocol.system_ceiling(&self.kernel)),
                    last,
                    "{}'s system ceiling moved at {} without a lock transition",
                    protocol.name(),
                    self.clock
                );
            }
            return;
        }
        self.sampled_version = Some(version);
        self.trace
            .push_ceiling(self.clock, protocol.system_ceiling(&self.kernel));
    }

    fn run<P: ProtocolFor<StateKernel<'a>>>(&mut self, protocol: &mut P) -> Result<()> {
        let mut budget = self.config.max_steps;
        loop {
            budget = budget.checked_sub(1).ok_or(Error::EventBudgetExhausted)?;

            self.release_arrivals();
            self.log_deadline_misses();

            let Some((runner, rs)) = self.dispatch(protocol) else {
                if matches!(self.outcome, RunOutcome::Deadlock(_)) {
                    break;
                }
                if let Some((t, _, _)) = self.calendar.peek() {
                    // Idle (or everyone blocked) until the next arrival.
                    self.push_ceiling(protocol);
                    self.clock = t;
                    continue;
                }
                if self.kernel.active_instances().is_empty() {
                    break; // all done
                }
                // No runner, no arrivals, live instances remain: every
                // live instance is blocked, gated or held — a circular
                // wait by construction (blockers never commit unnoticed).
                // Without a cycle to break, the run stalls on all of them.
                let clock = self.clock;
                let mut fx = self.take_fx();
                fx.clear();
                self.kernel.resolve_cycles(protocol, || clock, &mut fx);
                if !fx.log().iter().any(|e| matches!(e, Effect::Cycle(..))) {
                    let live = fx.span(self.kernel.active_instances());
                    fx.push(Effect::Stalled(live));
                }
                self.apply_and_keep(fx, protocol);
                if matches!(self.outcome, RunOutcome::Deadlock(_)) {
                    break;
                }
                continue;
            };
            if matches!(self.outcome, RunOutcome::Deadlock(_)) {
                break;
            }

            // Run `runner` until its step completes or the next arrival.
            let set = self.set;
            let template = set.template(runner.txn);
            let slot = &self.slots[rs];
            let step = template.steps[slot.step];
            let remaining = step.duration.raw() - slot.consumed;
            debug_assert!(remaining > 0);
            let step_end = self.clock + Duration(remaining);
            let slice_end = match self.calendar.peek() {
                Some((t, _, _)) if t < step_end => t,
                _ => step_end,
            };
            debug_assert!(slice_end > self.clock, "time must advance");
            self.trace
                .push_segment(runner, self.clock, slice_end, SegKind::Running);
            let ran = slice_end.since(self.clock).raw();
            self.push_ceiling(protocol);
            self.clock = slice_end;
            self.slots[rs].consumed += ran;
            // Attribute this slice as lower-priority execution to every
            // other live instance the runner's base priority undercuts
            // (the measurable analogue of the analytic blocking B_i).
            let live = self.kernel.active_instances();
            if live.len() > 1 {
                let runner_base = set.priority_of(runner.txn);
                for (&other, &s) in live.iter().zip(self.kernel.active_slots()) {
                    if other != runner && set.priority_of(other.txn) > runner_base {
                        self.slots[s as usize].lower_exec += Duration(ran);
                    }
                }
            }

            if self.slots[rs].consumed == step.duration.raw() {
                self.complete_step(runner, rs, protocol);
            }
        }
        self.push_ceiling(protocol);
        Ok(())
    }

    /// Pick the ready instance with the highest running priority and make
    /// sure it holds its current step's lock, blocking/aborting as the
    /// protocol dictates. Returns the instance to run with its slot, or
    /// `None` if no instance is ready.
    fn dispatch<P: ProtocolFor<StateKernel<'a>>>(
        &mut self,
        protocol: &mut P,
    ) -> Option<(InstanceId, usize)> {
        loop {
            // `who` stays live, and so in slot `s`, whatever happens below:
            // an abort restarts an instance in place.
            let (who, s) = self.kernel.pick_ready()?;
            let slot = &self.slots[s];
            let step_index = slot.step;
            let step = self.set.template(who.txn).steps[step_index];

            if slot.acquired {
                return Some((who, s));
            }
            let Some((item, mode)) = step.op.access() else {
                // Compute step: nothing to acquire.
                return Some((who, s));
            };

            let clock = self.clock;
            let mut fx = self.take_fx();
            let ws = &mut self.slots[s].workspace;
            let held =
                self.kernel
                    .request(protocol, who, step_index, item, mode, ws, || clock, &mut fx);
            self.slots[s].acquired = held;
            self.apply_and_keep(fx, protocol);
            if held {
                return Some((who, s));
            }
            // A deadlock stops the run only here, at a denial that left
            // the requester blocked.
            let blocked = self.kernel.pending_request(who).is_some();
            if blocked && matches!(self.outcome, RunOutcome::Deadlock(_)) {
                return None;
            }
            // Pick again: a wounder retries, the rest make way.
        }
    }

    fn release_arrivals(&mut self) {
        let set = self.set;
        while let Some((t, txn, seq)) = self.calendar.peek() {
            if t > self.clock {
                break;
            }
            self.calendar.pop(set);
            let id = InstanceId::new(txn, seq);
            let deadline = set.template(txn).deadline_of(seq);
            // The calendar releases a template's instances in `seq`
            // order, so the record opens at its final position.
            self.metrics.record(InstanceMetrics {
                id,
                release: t,
                deadline,
                completion: None,
                blocking: Duration::ZERO,
                lower_exec: Duration::ZERO,
                distinct_lower_blockers: Vec::new(),
                restarts: 0,
            });
            self.release(id, t, deadline);
            self.next_miss_check = self.next_miss_check.min(deadline);
            self.trace.push(t, Effect::Arrived(id), &Effects::default());
        }
    }

    /// Begin `id` in the kernel, logging its Begin at `release`, and set
    /// up its slot; returns the slot.
    fn release(&mut self, id: InstanceId, release: Tick, deadline: Tick) -> usize {
        let s = self.kernel.begin(id, Some(release));
        match self.slots.get_mut(s) {
            Some(slot) => slot.reset(id, release, deadline),
            None => {
                debug_assert_eq!(s, self.slots.len(), "kernel slots are dense");
                self.slots.push(InstanceSlot::fresh(id, release, deadline));
            }
        }
        s
    }

    fn log_deadline_misses(&mut self) {
        if self.clock < self.next_miss_check {
            return;
        }
        let mut next = Tick(u64::MAX);
        let live = self.kernel.active_instances();
        for (&id, &s) in live.iter().zip(self.kernel.active_slots()) {
            let slot = &mut self.slots[s as usize];
            if slot.miss_logged {
                continue;
            }
            if slot.deadline <= self.clock {
                slot.miss_logged = true;
                let missed = Effect::DeadlineMissed(id);
                self.trace.push(slot.deadline, missed, &Effects::default());
            } else {
                next = next.min(slot.deadline);
            }
        }
        self.next_miss_check = next;
    }

    /// The kernel woke `who` (or aborted it while blocked): close its
    /// blocked segment.
    fn unblock(&mut self, who: InstanceId) {
        let clock = self.clock;
        let slot = self.slot_mut(who);
        if let Some(since) = slot.blocked_since.take() {
            slot.blocking += clock.since(since);
            self.trace.push_segment(who, since, clock, SegKind::Blocked);
        }
    }

    fn complete_step<P: ProtocolFor<StateKernel<'a>>>(
        &mut self,
        who: InstanceId,
        s: usize,
        protocol: &mut P,
    ) {
        let total_steps = self.set.template(who.txn).steps.len();
        let slot = &mut self.slots[s];
        let completed_step = slot.step;
        slot.step += 1;
        slot.consumed = 0;
        slot.acquired = false;

        if slot.step == total_steps {
            self.commit(who, s, protocol);
            return;
        }

        // Early releases (CCP) and retires (Bamboo / Brook-2PL).
        let clock = self.clock;
        let mut fx = self.take_fx();
        let ws = &self.slots[s].workspace;
        self.kernel
            .step_done(protocol, who, completed_step, ws, || clock, &mut fx);
        self.apply_and_keep(fx, protocol);
    }

    /// Commit `who`, live in slot `s`, through the kernel's commit entry
    /// point, which also parks it at a closed commit gate and aborts the
    /// instances an optimistic commit invalidates.
    fn commit<P: ProtocolFor<StateKernel<'a>>>(
        &mut self,
        who: InstanceId,
        s: usize,
        protocol: &mut P,
    ) {
        // On one CPU a PCP-DA writer never reaches its commit before a
        // reader let past its write lock has left; only a thread pool
        // needs the wait-to-commit gate (`golden.rs` runs this check).
        debug_assert!(
            !(self.kernel.gated(who)
                && matches!(
                    protocol.name().parse(),
                    Ok(ProtocolKind::PcpDa | ProtocolKind::PcpDaLiteral)
                )),
            "{who} reached its commit under a reader PCP-DA let past it"
        );
        let clock = self.clock;
        let mut fx = self.take_fx();
        let ws = &self.slots[s].workspace;
        let tick = || clock;
        // Commit gate: with outstanding commit dependencies the instance
        // parks — live, holding its read locks, its `step` past its last,
        // waiting for the gate's entries and so never dispatched — until
        // the last dependency commits.
        if let Some(record) = self
            .kernel
            .commit(protocol, who, ws, true, None, tick, tick, &mut fx)
        {
            self.retire_slot(who, s, record, Some(clock));
        }
        self.apply_and_keep(fx, protocol);
    }

    /// Trace each effect of a kernel call at the clock and act on it, in
    /// order: a denied requester starts its blocked segment; a cycle
    /// stops the run when deadlocks are reported, and so does a stall; an
    /// abort resets the slot; a woken instance's blocked segment closes;
    /// an instance parked at a commit gate that opened goes through: it
    /// commits at the same clock, after the departure it waited for, which
    /// is exactly the serialization the gate enforces. (Instances still
    /// mid-execution are simply no longer gated when they reach their own
    /// commit; held instances a hold released are dispatchable again.)
    fn apply<P: ProtocolFor<StateKernel<'a>>>(&mut self, fx: &Effects, protocol: &mut P) {
        let clock = self.clock;
        for &effect in fx.log() {
            self.trace.push(clock, effect, fx);
            match effect {
                Effect::Parked(req, _) => {
                    let slot = self.slot_mut(req.who);
                    debug_assert!(slot.blocked_since.is_none());
                    slot.blocked_since = Some(clock);
                }
                Effect::Cycle(cycle, _) if !self.config.resolve_deadlocks => {
                    self.outcome = RunOutcome::Deadlock(fx.ids(cycle).to_vec());
                }
                Effect::Granted(..)
                | Effect::Gated(..)
                | Effect::Released(..)
                | Effect::HoldReleased(_)
                | Effect::Cycle(..)
                | Effect::Committed(_) => {}
                Effect::Stalled(live) => self.outcome = RunOutcome::Deadlock(fx.ids(live).to_vec()),
                Effect::Aborted(who, ..) => {
                    // If the victim was itself blocked, flush its blocked
                    // segment.
                    self.unblock(who);
                    let slot = self.slot_mut(who);
                    slot.step = 0;
                    slot.consumed = 0;
                    slot.acquired = false;
                    slot.workspace.reset(who);
                }
                Effect::Woken(who) => self.unblock(who),
                Effect::GateOpened(who) => {
                    // An earlier gate's commit may have taken it along;
                    // one still mid-execution commits when it gets there.
                    let Some(s) = self.kernel.slot_of(who) else {
                        continue;
                    };
                    if self.slots[s].step == self.set.template(who.txn).steps.len() {
                        self.commit(who, s, protocol);
                    }
                }
                Effect::Foreign(..) | Effect::Arrived(_) | Effect::DeadlineMissed(_) => {
                    unreachable!("the kernel spans every item, and reports no engine event")
                }
            }
        }
    }

    /// Fold the slot `s` that `who` just left in the kernel, and its
    /// kernel `record`, into the metrics record its release opened. The
    /// slot keeps its contents until the kernel hands it to the next
    /// instance.
    fn retire_slot(&mut self, who: InstanceId, s: usize, record: Record, completion: Option<Tick>) {
        let slot = &self.slots[s];
        let m = InstanceMetrics {
            id: who,
            release: slot.release,
            deadline: slot.deadline,
            completion,
            blocking: slot.blocking,
            lower_exec: slot.lower_exec,
            distinct_lower_blockers: record.lower_blockers,
            restarts: record.restarts,
        };
        self.metrics.record(m);
    }

    fn finish(mut self) -> RunResult {
        // Flush unfinished instances into the metrics.
        let leftovers: Vec<InstanceId> = self.kernel.active_instances().to_vec();
        for who in leftovers {
            self.unblock(who);
            let s = self.slot_of(who);
            let record = self.kernel.remove(who);
            self.retire_slot(who, s, record, None);
        }
        self.metrics.max_sysceil = self.trace.max_system_ceiling();
        let (history, db, abort_reasons) = self.kernel.into_parts();
        self.metrics.abort_reasons = abort_reasons;
        RunResult {
            protocol: "", // patched by the caller below
            history,
            db,
            metrics: self.metrics,
            trace: self.trace,
            outcome: self.outcome,
            final_clock: self.clock,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb_protocols::{PcpDa, RwPcp};
    use rtdb_types::{ItemId, SetBuilder, Step, TransactionTemplate};

    fn example3_set() -> TransactionSet {
        SetBuilder::new()
            .with(
                TransactionTemplate::new(
                    "T1",
                    5,
                    vec![Step::read(ItemId(0), 1), Step::read(ItemId(1), 1)],
                )
                .with_offset(1)
                .with_instances(2),
            )
            .with(
                TransactionTemplate::new(
                    "T2",
                    10,
                    vec![
                        Step::write(ItemId(0), 1),
                        Step::compute(2),
                        Step::write(ItemId(1), 1),
                        Step::compute(1),
                    ],
                )
                .with_instances(1),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn example3_pcpda_timeline_matches_figure2() {
        let set = example3_set();
        let mut p = PcpDa::new();
        let r = Engine::new(&set, SimConfig::default()).run(&mut p).unwrap();
        assert_eq!(r.outcome, RunOutcome::Completed);
        // T1 never blocks; commits at 3 and 8; T2 commits at 9.
        let t1a = InstanceId::new(TxnId(0), 0);
        let t1b = InstanceId::new(TxnId(0), 1);
        let t2 = InstanceId::new(TxnId(1), 0);
        let m = |id| r.metrics.instance(id).unwrap().clone();
        assert_eq!(m(t1a).completion, Some(Tick(3)));
        assert_eq!(m(t1b).completion, Some(Tick(8)));
        assert_eq!(m(t2).completion, Some(Tick(9)));
        assert_eq!(m(t1a).blocking, Duration::ZERO);
        assert_eq!(m(t1b).blocking, Duration::ZERO);
        assert_eq!(r.metrics.deadline_misses(), 0);
        assert!(r.replay_check(&set).is_serializable());
        assert!(r.is_conflict_serializable());
    }

    #[test]
    fn example3_rwpcp_timeline_matches_figure3() {
        let set = example3_set();
        let mut p = RwPcp::new();
        let r = Engine::new(&set, SimConfig::default()).run(&mut p).unwrap();
        let t1a = InstanceId::new(TxnId(0), 0);
        let m = r.metrics.instance(t1a).unwrap();
        // Blocked from 1 to 5 (4 ticks), completes at 7, misses deadline 6.
        assert_eq!(m.blocking, Duration(4));
        assert_eq!(m.completion, Some(Tick(7)));
        assert!(!m.met_deadline());
        assert_eq!(r.metrics.deadline_misses(), 1);
        assert_eq!(r.final_clock, Tick(9));
        assert!(r.replay_check(&set).is_serializable());
    }

    #[test]
    fn a_reused_slot_carries_nothing_across_templates() {
        let set = example3_set();
        let config = SimConfig::default();
        let mut sim = Sim::new(&set, &config, None);
        let a = InstanceId::new(TxnId(0), 0);
        let s = sim.release(a, Tick(0), Tick(10));
        // Dirty every field, the workspace included.
        let slot = &mut sim.slots[s];
        slot.step = 2;
        slot.consumed = 1;
        slot.acquired = true;
        slot.blocked_since = Some(Tick(4));
        slot.miss_logged = true;
        slot.blocking = Duration(3);
        slot.lower_exec = Duration(2);
        slot.workspace.write(0, ItemId(1));
        let record = sim.kernel.remove(a);
        sim.retire_slot(a, s, record, None);
        // The kernel hands the slot to the next instance it begins, here
        // one of the other template, which sees none of the old state.
        let b = InstanceId::new(TxnId(1), 0);
        assert_eq!(sim.release(b, Tick(5), Tick(15)), s);
        assert_eq!(sim.slots.len(), 1);
        assert_eq!(
            format!("{:?}", sim.slots[s]),
            format!("{:?}", InstanceSlot::fresh(b, Tick(5), Tick(15)))
        );
    }

    #[test]
    fn arrival_calendar_matches_eager_order() {
        let set = SetBuilder::new()
            .with(TransactionTemplate::new("A", 3, vec![Step::compute(1)]))
            .with(
                TransactionTemplate::new("B", 4, vec![Step::compute(1)])
                    .with_offset(1)
                    .with_instances(5),
            )
            .build()
            .unwrap();
        let horizon = Tick(10);
        // Eager reference: every arrival, ascending (tick, txn, seq).
        let mut eager: Vec<(Tick, TxnId, u32)> = Vec::new();
        for t in set.templates() {
            let mut seq = 0u32;
            loop {
                if let Some(n) = t.instances {
                    if seq >= n {
                        break;
                    }
                } else if t.release_of(seq) >= horizon {
                    break;
                }
                eager.push((t.release_of(seq), t.id, seq));
                seq += 1;
            }
        }
        eager.sort();
        let mut cal = ArrivalCalendar::new(&set, horizon);
        let mut lazy = Vec::new();
        while let Some(e) = cal.pop(&set) {
            lazy.push(e);
        }
        assert_eq!(lazy, eager);
    }
}
