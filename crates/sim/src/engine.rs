//! The simulation engine.
//!
//! A run is a deterministic function of `(transaction set, protocol,
//! config)`. The engine owns the clock, the arrival calendar, the
//! dispatcher, the workspaces and the trace; the protocol state — lock
//! table, inheritance, `DataRead`/staged sets, pending requests,
//! dependencies, database, history — and every transition over it live
//! in [`rtdb_core::StateKernel`], which the threaded runtime drives too.
//! The engine presents each step's access to the kernel (which consults
//! the [`ProtocolFor`]) and turns the effects it returns — granted, blocked,
//! woken, aborted, released, drained — into trace events, Gantt segments,
//! wait-die holds and ready-queue changes.
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
//! * Commit is instantaneous at the end of the last step: staged writes
//!   install, all locks release, the instance leaves the system.
//! * Deadlocks (possible under 2PL-PI and Naive-DA only) are detected on
//!   the wait-for graph at block time; depending on
//!   [`SimConfig::resolve_deadlocks`] the run either stops with
//!   [`RunOutcome::Deadlock`] or aborts the lowest-priority instance on
//!   the cycle and continues.
//!
//! ## Hot-path layout
//!
//! The simulation-only half of the per-instance state (progress, clocks,
//! workspace) lives in an `InstanceSlot` arena (`SlotStore`): slots are
//! dense, recycled through per-template free
//! lists when instances commit, and keep their workspace/trace capacity
//! across instances of the same template, so the steady state of a long
//! run allocates nothing per instance. Arrivals are not materialized up
//! front; an `ArrivalCalendar` (a binary heap with one outstanding entry
//! per template) produces them lazily in the exact order the old eager
//! sorted vector did. A map-backed `MapStore` with identical semantics
//! is kept behind `debug_assertions`/the `oracle-checks` feature as the
//! differential-testing oracle ([`Engine::run_map_oracle`]).

use crate::metrics::{InstanceMetrics, MetricsReport};
use crate::registry::{instantiate, AnyProtocol};
use crate::trace::{SegKind, Trace, TraceEvent};
use rtdb_core::{
    AbortReason, Acquire, CeilingFlavor, EngineView, ProtocolFor, ProtocolKind, Record,
    StateKernel, UpdateModel,
};
use rtdb_storage::{
    Database, EventKind, History, MvStore, ReplayOutcome, SerializationGraph, VersionedValue,
    Workspace,
};
use rtdb_types::{
    Duration, Error, InstanceId, ItemId, LockMode, Result, Tick, TransactionSet, TxnId,
};
use std::cmp::Reverse;
#[cfg(any(debug_assertions, feature = "oracle-checks"))]
use std::collections::BTreeMap;
use std::collections::BinaryHeap;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Release arrivals strictly before this tick. `None`: simulate two
    /// hyperperiods (or just the explicitly bounded instances).
    pub horizon: Option<u64>,
    /// On deadlock: abort the lowest-priority instance on the cycle and
    /// continue (`true`), or stop with [`RunOutcome::Deadlock`] (`false`).
    pub resolve_deadlocks: bool,
    /// Safety budget on scheduler iterations.
    pub max_steps: u64,
    /// Offer read-only transactions the lock-exempt multiversion snapshot
    /// path. Takes effect only under the deferred-update model
    /// ([`ProtocolKind::snapshot_exempt`] states the rule; CCP installs
    /// at early release and keeps lock-based reads).
    pub snapshot_reads: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            horizon: None,
            resolve_deadlocks: false,
            max_steps: 10_000_000,
            snapshot_reads: false,
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

    /// Enable the multiversion snapshot path for read-only transactions.
    pub fn with_snapshot_reads(mut self) -> Self {
        self.snapshot_reads = true;
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
    /// True if the lock-exempt snapshot path was active (config asked for
    /// it *and* the protocol defers its updates to commit).
    pub snapshot_reads: bool,
    /// Longest per-item version chain the multiversion side store ever
    /// held (0 when the snapshot path was off) — the memory-flatness
    /// telemetry the epoch GC is asserted against.
    pub mv_high_water: usize,
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

    /// Commit stamps of the instances that ran on the snapshot path,
    /// sorted by instance id: each observed exactly the state after its
    /// stamp's worth of lock-path commits. Empty when the path was off.
    pub fn snapshot_stamps(&self) -> Vec<(InstanceId, u64)> {
        self.metrics
            .instances()
            .filter_map(|m| m.snapshot.map(|s| (m.id, s)))
            .collect()
    }

    /// Serial-replay oracle in a topological order of the serialization
    /// graph (view check valid for CCP). Returns `None` if the graph is
    /// cyclic.
    pub fn replay_check_topological(&self, set: &TransactionSet) -> Option<ReplayOutcome> {
        // Reorder the commit order into a topological order and replay by
        // temporarily rebuilding a history stub? Simpler: the value-replay
        // needs only the order; reuse replay_serial by checking the graph
        // first and replaying in topological order via a reordered commit
        // list.
        let graph = self.serialization_graph();
        let topo = graph.topological_order()?;
        let mut h = History::new();
        // Reconstruct a history with the same events but commit order =
        // topological order. Only commit_order and committed_reads matter
        // to the replayer; committed_reads is commit-order independent.
        for e in self.history.events() {
            if !matches!(e.kind, EventKind::Commit) {
                h.push(e.at, e.instance, e.kind);
            }
        }
        for who in topo {
            h.push(Tick::ZERO, who, EventKind::Commit);
        }
        Some(rtdb_storage::replay_serial(set, &h, &self.db))
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
    /// [`AnyProtocol::requests`] or `PcpDa::grant_log` afterwards.
    ///
    /// ```
    /// use rtdb_core::{Decision, EngineView, LockRequest, ProtocolFor, ProtocolKind};
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
    ///             Decision::Grant
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
        self.run_generic::<SlotStore, P>(protocol)
    }

    /// [`Engine::run`] under a fresh instance of the registry protocol
    /// `kind`.
    pub fn run_kind(&self, kind: ProtocolKind) -> Result<RunResult> {
        self.run(&mut instantiate(kind))
    }

    /// [`Engine::run`] with the protocol type fixed to [`AnyProtocol`];
    /// kept for `benchmark/src/simoff.rs`, which names it.
    pub fn run_any(&self, protocol: &mut AnyProtocol) -> Result<RunResult> {
        self.run(protocol)
    }

    /// Execute one full run on the map-backed instance store instead of
    /// the slot arena. Semantics are identical by construction; the
    /// differential property tests assert it. Available in debug builds
    /// and under the `oracle-checks` feature.
    #[cfg(any(debug_assertions, feature = "oracle-checks"))]
    pub fn run_map_oracle<'s, P: ProtocolFor<StateKernel<'s>>>(
        &'s self,
        protocol: &mut P,
    ) -> Result<RunResult> {
        self.run_generic::<MapStore, P>(protocol)
    }

    /// [`Engine::run_kind`] on the map-backed oracle store.
    #[cfg(any(debug_assertions, feature = "oracle-checks"))]
    pub fn run_kind_map_oracle(&self, kind: ProtocolKind) -> Result<RunResult> {
        self.run_map_oracle(&mut instantiate(kind))
    }

    fn run_generic<'s, S, P>(&'s self, protocol: &mut P) -> Result<RunResult>
    where
        S: InstanceStore,
        P: ProtocolFor<StateKernel<'s>>,
    {
        let mut sim: Sim<'s, S> = Sim::new(self.set, &self.config, protocol.ceiling_flavor());
        sim.run(protocol)?;
        let mut result = sim.finish();
        result.protocol = protocol.name();
        Ok(result)
    }
}

/// What only the simulation keeps about one live instance, arena-
/// resident: its progress through the template, its clocks and its
/// workspace (whose capacity survives recycling). The protocol-visible
/// half lives in the kernel's [`Record`].
struct InstanceSlot {
    id: InstanceId,
    release: Tick,
    deadline: Tick,
    step: usize,
    consumed: u64,
    acquired: bool,
    blocked_since: Option<Tick>,
    /// This step's lock request was denied before — the eventual grant is
    /// traced as `Resumed` rather than `Granted`.
    was_denied: bool,
    /// A deadline-miss event was already emitted for this instance.
    miss_logged: bool,
    blocking: Duration,
    lower_exec: Duration,
    workspace: Workspace,
    /// Commit stamp pinned by a snapshot reader at its first read.
    snapshot: Option<u64>,
    /// Parked at the commit gate: all steps done, waiting for commit
    /// dependencies to drain. Never dispatched (its `step` is past the
    /// template's last index).
    gated: bool,
    /// Wait-die hold after a self-abort: the restarted instance is not
    /// dispatched until one of these (its former blockers) commits or
    /// aborts — otherwise the retry would re-die in the same instant.
    /// Sorted ascending.
    hold_on: Vec<InstanceId>,
}

impl InstanceSlot {
    fn fresh(id: InstanceId, release: Tick, deadline: Tick) -> Self {
        InstanceSlot {
            id,
            release,
            deadline,
            step: 0,
            consumed: 0,
            acquired: false,
            blocked_since: None,
            was_denied: false,
            miss_logged: false,
            blocking: Duration::ZERO,
            lower_exec: Duration::ZERO,
            workspace: Workspace::new(id),
            snapshot: None,
            gated: false,
            hold_on: Vec::new(),
        }
    }

    /// Re-home a recycled slot to a new instance, keeping allocations.
    fn reset(&mut self, id: InstanceId, release: Tick, deadline: Tick) {
        self.id = id;
        self.release = release;
        self.deadline = deadline;
        self.step = 0;
        self.consumed = 0;
        self.acquired = false;
        self.blocked_since = None;
        self.was_denied = false;
        self.miss_logged = false;
        self.blocking = Duration::ZERO;
        self.lower_exec = Duration::ZERO;
        self.workspace.reset(id);
        self.snapshot = None;
        self.gated = false;
        self.hold_on.clear();
    }
}

/// Storage backend for live-instance slots. Two implementations with
/// identical observable behavior: the production [`SlotStore`] arena and
/// the [`MapStore`] oracle.
trait InstanceStore {
    /// Empty store for a set with `n_templates` templates.
    fn with_templates(n_templates: usize) -> Self;
    /// Add a freshly released instance. `id` must not be present.
    fn insert(&mut self, id: InstanceId, release: Tick, deadline: Tick);
    fn get(&self, id: InstanceId) -> Option<&InstanceSlot>;
    fn get_mut(&mut self, id: InstanceId) -> Option<&mut InstanceSlot>;
    /// Drop (and possibly recycle) the slot of `id`.
    fn remove(&mut self, id: InstanceId);
}

/// Dense slot arena with per-template free lists.
///
/// `by_txn[t]` maps the live sequence numbers of template `t` to slot
/// indices (sorted by `seq`, so lookups are a short binary search —
/// usually over one or two entries). Committed instances push their slot
/// onto `free[t]`, and the next release of the same template reuses it —
/// including the workspace and scratch-`Vec` capacities, which are tuned
/// to exactly that template's footprint.
struct SlotStore {
    slots: Vec<InstanceSlot>,
    by_txn: Vec<Vec<(u32, u32)>>,
    free: Vec<Vec<u32>>,
}

impl SlotStore {
    #[inline]
    fn slot_of(&self, id: InstanceId) -> Option<usize> {
        let live = self.by_txn.get(id.txn.index())?;
        live.binary_search_by_key(&id.seq, |&(seq, _)| seq)
            .ok()
            .map(|i| live[i].1 as usize)
    }
}

impl InstanceStore for SlotStore {
    fn with_templates(n_templates: usize) -> Self {
        SlotStore {
            slots: Vec::new(),
            by_txn: vec![Vec::new(); n_templates],
            free: vec![Vec::new(); n_templates],
        }
    }

    fn insert(&mut self, id: InstanceId, release: Tick, deadline: Tick) {
        let t = id.txn.index();
        let slot = match self.free[t].pop() {
            Some(s) => {
                self.slots[s as usize].reset(id, release, deadline);
                s
            }
            None => {
                self.slots.push(InstanceSlot::fresh(id, release, deadline));
                (self.slots.len() - 1) as u32
            }
        };
        let live = &mut self.by_txn[t];
        match live.binary_search_by_key(&id.seq, |&(seq, _)| seq) {
            Ok(_) => unreachable!("instance {id:?} inserted twice"),
            Err(i) => live.insert(i, (id.seq, slot)),
        }
    }

    #[inline]
    fn get(&self, id: InstanceId) -> Option<&InstanceSlot> {
        self.slot_of(id).map(|s| &self.slots[s])
    }

    #[inline]
    fn get_mut(&mut self, id: InstanceId) -> Option<&mut InstanceSlot> {
        self.slot_of(id).map(|s| &mut self.slots[s])
    }

    fn remove(&mut self, id: InstanceId) {
        let t = id.txn.index();
        let live = &mut self.by_txn[t];
        if let Ok(i) = live.binary_search_by_key(&id.seq, |&(seq, _)| seq) {
            let (_, slot) = live.remove(i);
            self.free[t].push(slot);
        }
    }
}

/// Map-backed oracle with the pre-arena layout. Kept out of release
/// builds unless `oracle-checks` is enabled.
#[cfg(any(debug_assertions, feature = "oracle-checks"))]
#[derive(Default)]
struct MapStore {
    map: BTreeMap<InstanceId, InstanceSlot>,
}

#[cfg(any(debug_assertions, feature = "oracle-checks"))]
impl InstanceStore for MapStore {
    fn with_templates(_n_templates: usize) -> Self {
        MapStore::default()
    }

    fn insert(&mut self, id: InstanceId, release: Tick, deadline: Tick) {
        let prev = self
            .map
            .insert(id, InstanceSlot::fresh(id, release, deadline));
        debug_assert!(prev.is_none(), "instance {id:?} inserted twice");
    }

    fn get(&self, id: InstanceId) -> Option<&InstanceSlot> {
        self.map.get(&id)
    }

    fn get_mut(&mut self, id: InstanceId) -> Option<&mut InstanceSlot> {
        self.map.get_mut(&id)
    }

    fn remove(&mut self, id: InstanceId) {
        self.map.remove(&id);
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

struct Sim<'a, S> {
    set: &'a TransactionSet,
    /// Protocol state and its transitions, the committed store and the
    /// history — shared with the runtime (`rtdb_core::kernel`).
    kernel: StateKernel<'a>,
    /// What only a simulation keeps per live instance (progress, clocks,
    /// the workspace), keyed like the kernel's records.
    store: S,
    /// Per-template read-only flags (index = `TxnId::index()`).
    read_only: Vec<bool>,
    /// The snapshot path is on for this run (config asked *and* the
    /// protocol defers its updates to commit).
    snapshot_on: bool,
    config: &'a SimConfig,
    clock: Tick,
    calendar: ArrivalCalendar,
    /// Multiversion side store backing snapshot readers (idle unless the
    /// snapshot path is on).
    mv: MvStore,
    /// Scratch for the versions a commit installed, on their way to `mv`.
    installed: Vec<(ItemId, VersionedValue)>,
    trace: Trace,
    metrics: MetricsReport,
    outcome: RunOutcome,
    /// Number of live instances with a non-empty wait-die hold.
    n_held: usize,
    /// Earliest deadline that may still need a miss event; the sweep in
    /// [`Sim::log_deadline_misses`] is skipped while the clock is before
    /// it.
    next_miss_check: Tick,
}

impl<'a, S: InstanceStore> Sim<'a, S> {
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

        // Pre-size the history and trace for the run's expected volume so
        // steady-state appends never reallocate. (Estimates only; capped.)
        let mut est_instances: u64 = 0;
        let mut est_ops: u64 = 0;
        for t in set.templates() {
            let n = match t.instances {
                Some(n) => u64::from(n),
                None if horizon > t.offset => {
                    let span = horizon.since(t.offset).raw();
                    span.div_ceil(t.period.raw().max(1))
                }
                None => 0,
            };
            est_instances += n;
            est_ops += n * (t.steps.len() as u64 + 3);
        }
        const RESERVE_CAP: u64 = 1 << 20;
        let mut kernel = StateKernel::new(set, flavor);
        kernel.reserve_history(est_ops.min(RESERVE_CAP) as usize);
        let mut trace = Trace::new();
        trace.reserve(
            est_instances.min(RESERVE_CAP) as usize,
            est_ops.min(RESERVE_CAP) as usize,
        );

        Sim {
            set,
            kernel,
            store: S::with_templates(set.templates().len()),
            read_only: set.templates().iter().map(|t| t.is_read_only()).collect(),
            snapshot_on: false,
            config,
            clock: Tick::ZERO,
            calendar,
            mv: MvStore::new(),
            installed: Vec::new(),
            trace,
            metrics: MetricsReport::new(),
            outcome: RunOutcome::Completed,
            n_held: 0,
            next_miss_check: Tick(u64::MAX),
        }
    }

    /// True if `who` runs on the lock-exempt snapshot path: it never
    /// requests locks and — as far as any protocol can observe — has read
    /// nothing (its reads bypass the kernel, so its `DataRead` there
    /// stays empty), so it can neither block nor be aborted by protocol
    /// decisions.
    #[inline]
    fn exempt(&self, who: InstanceId) -> bool {
        self.snapshot_on && self.read_only[who.txn.index()]
    }

    #[inline]
    fn slot(&self, who: InstanceId) -> &InstanceSlot {
        self.store.get(who).expect("instance is live")
    }

    #[inline]
    fn slot_mut(&mut self, who: InstanceId) -> &mut InstanceSlot {
        self.store.get_mut(who).expect("instance is live")
    }

    /// Sample the system ceiling for the trace. Samples at one tick
    /// collapse to the last, so one per transition is enough.
    fn push_ceiling<P: ProtocolFor<StateKernel<'a>>>(&mut self, protocol: &P) {
        self.trace
            .push_ceiling(self.clock, protocol.system_ceiling(&self.kernel));
    }

    fn run<P: ProtocolFor<StateKernel<'a>>>(&mut self, protocol: &mut P) -> Result<()> {
        // The rule `ProtocolKind::snapshot_exempt` states, read off the
        // protocol itself so hand-written protocols get it too.
        self.snapshot_on =
            self.config.snapshot_reads && protocol.update_model() == UpdateModel::Workspace;
        self.push_ceiling(protocol);
        let mut budget = self.config.max_steps;
        loop {
            budget = budget.checked_sub(1).ok_or(Error::EventBudgetExhausted)?;

            self.release_arrivals();
            self.log_deadline_misses();

            let Some(runner) = self.dispatch(protocol) else {
                if matches!(self.outcome, RunOutcome::Deadlock(_)) {
                    break;
                }
                if let Some((t, _, _)) = self.calendar.peek() {
                    // Idle (or everyone blocked) until the next arrival.
                    self.clock = t;
                    continue;
                }
                if self.kernel.active_instances().is_empty() {
                    break; // all done
                }
                // No runner, no arrivals, live instances remain: every
                // live instance is blocked, gated or held — a circular
                // wait by construction (blockers never commit unnoticed).
                if !self.handle_deadlock(protocol) {
                    let cycle = self.kernel.active_instances().to_vec();
                    self.trace.push_event(TraceEvent::DeadlockDetected {
                        at: self.clock,
                        cycle: cycle.clone(),
                    });
                    self.outcome = RunOutcome::Deadlock(cycle);
                }
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
            let (step_index, consumed) = {
                let slot = self.slot(runner);
                (slot.step, slot.consumed)
            };
            let step = template.steps[step_index];
            let remaining = step.duration.raw() - consumed;
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
            self.clock = slice_end;
            self.slot_mut(runner).consumed += ran;
            // Attribute this slice as lower-priority execution to every
            // other live instance the runner's base priority undercuts
            // (the measurable analogue of the analytic blocking B_i).
            let runner_base = set.priority_of(runner.txn);
            for &other in self.kernel.active_instances() {
                if other != runner && set.priority_of(other.txn) > runner_base {
                    let slot = self.store.get_mut(other).expect("active is live");
                    slot.lower_exec += Duration(ran);
                }
            }

            if self.slot(runner).consumed == step.duration.raw() {
                self.complete_step(runner, protocol);
            }
        }
        Ok(())
    }

    /// Pick the ready instance with the highest running priority and make
    /// sure it holds its current step's lock, blocking/aborting as the
    /// protocol dictates. Returns the instance to run, or `None` if no
    /// instance is ready.
    fn dispatch<P: ProtocolFor<StateKernel<'a>>>(
        &mut self,
        protocol: &mut P,
    ) -> Option<InstanceId> {
        loop {
            let who = self.pick_ready()?;
            let slot = self.slot(who);
            let step = self.set.template(who.txn).steps[slot.step];
            let (step_index, resumed) = (slot.step, slot.was_denied);

            if slot.acquired {
                return Some(who);
            }
            if self.exempt(who) {
                // Snapshot reader: no lock request, no protocol call. The
                // read resolves against the stamp pinned at the first read.
                if let Some((item, mode)) = step.op.access() {
                    debug_assert_eq!(mode, LockMode::Read, "read-only template wrote");
                    self.perform_snapshot_read(who, item);
                }
                self.slot_mut(who).acquired = true;
                return Some(who);
            }
            let Some((item, mode)) = step.op.access() else {
                // Compute step: nothing to acquire.
                return Some(who);
            };

            let clock = self.clock;
            let ws = &mut self.store.get_mut(who).expect("live").workspace;
            let acquired = self
                .kernel
                .acquire(protocol, who, step_index, item, mode, ws, || clock);
            match acquired {
                Acquire::Done { granted } => {
                    self.slot_mut(who).acquired = true;
                    if granted {
                        let at = self.clock;
                        self.trace.push_event(if resumed {
                            TraceEvent::Resumed {
                                at,
                                who,
                                item,
                                mode,
                            }
                        } else {
                            TraceEvent::Granted {
                                at,
                                who,
                                item,
                                mode,
                            }
                        });
                        self.push_ceiling(protocol);
                    }
                    return Some(who);
                }
                Acquire::Blocked { blockers, woken } => {
                    let slot = self.slot_mut(who);
                    debug_assert!(slot.blocked_since.is_none());
                    slot.blocked_since = Some(clock);
                    slot.was_denied = true;
                    self.trace.push_event(TraceEvent::Denied {
                        at: clock,
                        who,
                        item,
                        mode,
                        blockers,
                    });
                    self.unblock_all(&woken);
                    // Unless the requester itself was woken again, look
                    // for a deadlock on the wait-for graph.
                    if self.kernel.pending_request(who).is_some() {
                        self.handle_deadlock(protocol);
                        if matches!(self.outcome, RunOutcome::Deadlock(_)) {
                            return None;
                        }
                    }
                    // Pick someone else.
                }
                Acquire::Wound { victims } => {
                    for v in victims {
                        self.abort(v, AbortReason::Wound, protocol);
                    }
                    self.wake_blocked(protocol);
                    // Loop: the request is retried (holders are gone).
                }
                Acquire::Die { blockers } => {
                    self.abort(who, AbortReason::CeilingBlock, protocol);
                    self.wake_blocked(protocol);
                    // Wait-die hold: park the restarted instance until a
                    // blocker commits or aborts, so the retry is not
                    // re-decided (and re-died) in the same instant. Set
                    // *after* the reevaluate so it is not cleared by it.
                    let mut hold: Vec<InstanceId> = blockers
                        .into_iter()
                        .filter(|&b| b != who && self.kernel.is_live(b))
                        .collect();
                    hold.sort_unstable();
                    hold.dedup();
                    if !hold.is_empty() {
                        self.kernel.wait_on(who, &hold);
                        self.slot_mut(who).hold_on = hold;
                        self.n_held += 1;
                    }
                    // Pick someone else.
                }
            }
        }
    }

    /// Highest-running-priority ready (live, unblocked, not gated or
    /// held) instance.
    fn pick_ready(&self) -> Option<InstanceId> {
        self.kernel
            .active_instances()
            .iter()
            .copied()
            .filter(|&id| {
                let s = self.slot(id);
                s.blocked_since.is_none() && !s.gated && s.hold_on.is_empty()
            })
            .max_by_key(|&id| {
                (
                    self.kernel.running_priority(id),
                    self.kernel.base_priority(id),
                    Reverse(id.seq),
                    Reverse(id.txn.0),
                )
            })
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
            self.store.insert(id, t, deadline);
            self.next_miss_check = self.next_miss_check.min(deadline);
            self.kernel.begin(id, Some(t));
            self.trace.push_event(TraceEvent::Arrive { at: t, who: id });
        }
    }

    fn log_deadline_misses(&mut self) {
        if self.clock < self.next_miss_check {
            return;
        }
        let mut next = Tick(u64::MAX);
        for &id in self.kernel.active_instances() {
            let slot = self.store.get_mut(id).expect("active is live");
            if slot.miss_logged {
                continue;
            }
            if slot.deadline <= self.clock {
                slot.miss_logged = true;
                self.trace.push_event(TraceEvent::DeadlineMiss {
                    at: slot.deadline,
                    who: id,
                });
            } else {
                next = next.min(slot.deadline);
            }
        }
        self.next_miss_check = next;
    }

    /// Serve a snapshot reader's read: pin the current commit stamp on
    /// first use, then resolve the item against that stamp in the
    /// multiversion store. No locks, no protocol.
    fn perform_snapshot_read(&mut self, who: InstanceId, item: ItemId) {
        let slot = self.store.get_mut(who).expect("live workspace");
        let mv = &self.mv;
        let stamp = *slot.snapshot.get_or_insert_with(|| mv.stamp());
        let vv = mv.read_at(item, stamp).unwrap_or(VersionedValue::INITIAL);
        let rec = slot.workspace.read_versioned(item, vv.value, vv.version);
        self.kernel.log(
            self.clock,
            who,
            EventKind::Read {
                item,
                value: rec.value,
                version: rec.version,
                own: false,
            },
        );
    }

    /// Retire multiversion entries no live snapshot (current or future)
    /// can observe.
    fn prune_mv(&mut self) {
        let mut floor = self.mv.stamp();
        for &id in self.kernel.active_instances() {
            if self.exempt(id) {
                if let Some(s) = self.slot(id).snapshot {
                    floor = floor.min(s);
                }
            }
        }
        self.mv.prune(floor);
    }

    /// A cycle on the wait-for graph (lock waits, gate waits, holds), if
    /// there is one: traced, then — depending on
    /// [`SimConfig::resolve_deadlocks`] — resolved by aborting the
    /// kernel's victim or reported as the run's outcome. Returns whether
    /// a cycle was found.
    fn handle_deadlock<P: ProtocolFor<StateKernel<'a>>>(&mut self, protocol: &mut P) -> bool {
        let Some((cycle, victim)) = self.kernel.find_deadlock() else {
            return false;
        };
        self.trace.push_event(TraceEvent::DeadlockDetected {
            at: self.clock,
            cycle: cycle.clone(),
        });
        if self.config.resolve_deadlocks {
            self.abort(victim, AbortReason::DeadlockVictim, protocol);
            self.wake_blocked(protocol);
        } else {
            self.outcome = RunOutcome::Deadlock(cycle);
        }
        true
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

    fn unblock_all(&mut self, woken: &[InstanceId]) {
        for &w in woken {
            self.unblock(w);
        }
    }

    /// Have the kernel re-evaluate blocked requests after locks were
    /// released; the woken become ready and re-issue their request when
    /// next dispatched.
    fn wake_blocked<P: ProtocolFor<StateKernel<'a>>>(&mut self, protocol: &mut P) {
        let woken = self.kernel.reevaluate(protocol);
        self.unblock_all(&woken);
    }

    fn complete_step<P: ProtocolFor<StateKernel<'a>>>(
        &mut self,
        who: InstanceId,
        protocol: &mut P,
    ) {
        let total_steps = self.set.template(who.txn).steps.len();
        let slot = self.slot_mut(who);
        let completed_step = slot.step;
        slot.step += 1;
        slot.consumed = 0;
        slot.acquired = false;
        slot.was_denied = false;

        if slot.step == total_steps {
            self.commit(who, protocol);
            return;
        }
        if self.exempt(who) {
            // Snapshot readers hold nothing to release early.
            return;
        }

        // Early releases (CCP) and retires (Bamboo / Brook-2PL).
        let clock = self.clock;
        let ws = &self.store.get(who).expect("live").workspace;
        let done = self
            .kernel
            .step_done(protocol, who, completed_step, ws, || clock);
        if done.released.is_empty() {
            return;
        }
        for (item, mode) in done.released {
            self.trace.push_event(TraceEvent::EarlyRelease {
                at: clock,
                who,
                item,
                mode,
            });
        }
        self.push_ceiling(protocol);
        self.unblock_all(&done.woken);
    }

    fn commit<P: ProtocolFor<StateKernel<'a>>>(&mut self, who: InstanceId, protocol: &mut P) {
        if self.exempt(who) {
            self.commit_snapshot(who);
            return;
        }
        // Commit gate: with outstanding commit dependencies the instance
        // parks — live, holding its read locks, never dispatched — until
        // the last dependency commits. The drain in the committing
        // dependency's own `commit` re-enters here.
        if self.kernel.gate(who) {
            let slot = self.slot_mut(who);
            debug_assert!(!slot.gated && slot.blocked_since.is_none());
            slot.gated = true;
            self.handle_deadlock(protocol);
            return;
        }
        // Optimistic protocols validate at commit: abort every active
        // instance this commit invalidates, before the writes install.
        // Snapshot readers can never be victims — their reads resolve
        // against an immutable stamped prefix no commit invalidates.
        for v in self.kernel.commit_victims(protocol, who) {
            self.abort(v, AbortReason::Wound, protocol);
        }

        let clock = self.clock;
        let slot = self.store.get(who).expect("live workspace");
        let publish = self.snapshot_on.then_some(&mut self.installed);
        self.kernel
            .install(who, &slot.workspace, clock, true, publish);
        if self.snapshot_on {
            for (item, vv) in self.installed.drain(..) {
                self.mv.publish(item, vv);
            }
            // Every lock-path commit seals a stamp — written or not — so
            // a snapshot stamp is exactly a commit-order position.
            self.mv.seal();
            self.prune_mv();
        }

        // Dependents whose last dependency this was leave the commit gate
        // below, after this commit is recorded.
        let (record, drained) = self.kernel.finish_commit(who);
        self.release_holds_on(who);
        self.trace.push_event(TraceEvent::Commit { at: clock, who });
        self.push_ceiling(protocol);
        self.retire_slot(who, record, Some(clock), None);
        self.wake_blocked(protocol);

        // Let drained dependents through the commit gate, in dependency
        // order at the same clock — their commits land after the one
        // they waited for, which is exactly the serialization the gate
        // enforces. (Drained instances still mid-execution are simply
        // no longer gated when they reach their own commit.)
        for d in drained {
            if self.store.get(d).is_some_and(|s| s.gated) {
                self.slot_mut(d).gated = false;
                self.kernel.wake(d);
                self.commit(d, protocol);
            }
        }
    }

    /// Drop `who`'s slot and fold it and its kernel `record` into the
    /// metrics.
    fn retire_slot(
        &mut self,
        who: InstanceId,
        record: Record,
        completion: Option<Tick>,
        snapshot: Option<u64>,
    ) {
        let slot = self.slot(who);
        let m = InstanceMetrics {
            id: who,
            release: slot.release,
            deadline: slot.deadline,
            completion,
            blocking: slot.blocking,
            lower_exec: slot.lower_exec,
            distinct_lower_blockers: record.lower_blockers,
            restarts: record.restarts,
            snapshot,
        };
        self.store.remove(who);
        self.metrics.record(m);
    }

    /// `who` commits or aborts: clear every wait-die hold naming it.
    fn release_holds_on(&mut self, who: InstanceId) {
        if self.n_held == 0 {
            return;
        }
        for i in 0..self.kernel.active_instances().len() {
            let id = self.kernel.active_instances()[i];
            if id == who {
                continue;
            }
            let slot = self.store.get_mut(id).expect("active is live");
            if let Ok(pos) = slot.hold_on.binary_search(&who) {
                slot.hold_on.remove(pos);
                if slot.hold_on.is_empty() {
                    self.n_held -= 1;
                    self.kernel.wake(id);
                }
            }
        }
    }

    /// Slim commit for a snapshot reader: no validation, no installs, no
    /// locks to release, no protocol notification — just the Commit
    /// event, metrics, and an epoch-GC pass now that its pin is gone.
    fn commit_snapshot(&mut self, who: InstanceId) {
        self.kernel.log(self.clock, who, EventKind::Commit);
        let record = self.kernel.remove(who);
        self.trace.push_event(TraceEvent::Commit {
            at: self.clock,
            who,
        });
        debug_assert_eq!(
            self.slot(who).blocking,
            Duration::ZERO,
            "snapshot readers never block"
        );
        debug_assert_eq!(record.restarts, 0, "snapshot readers never abort");
        // A reader that never touched data still commits *as* a snapshot
        // commit; stamp it now so every exempt commit in the history
        // carries its serialization position.
        let snapshot = self.slot(who).snapshot.or(Some(self.mv.stamp()));
        self.retire_slot(who, record, Some(self.clock), snapshot);
        self.prune_mv();
    }

    /// Abort `victim` (and its dependents, cascading) through the kernel
    /// and restart each from scratch.
    fn abort<P: ProtocolFor<StateKernel<'a>>>(
        &mut self,
        victim: InstanceId,
        reason: AbortReason,
        protocol: &mut P,
    ) {
        debug_assert!(
            !self.exempt(victim),
            "snapshot readers never abort (hold no locks, block nobody)"
        );
        let clock = self.clock;
        for (who, _) in self.kernel.abort(protocol, victim, reason, || clock) {
            self.trace.push_event(TraceEvent::Abort { at: clock, who });
            // If the victim was itself blocked, flush its blocked segment.
            self.unblock(who);
            let slot = self.slot_mut(who);
            slot.step = 0;
            slot.consumed = 0;
            slot.acquired = false;
            slot.was_denied = false;
            slot.workspace.reset(who);
            slot.gated = false;
            if !slot.hold_on.is_empty() {
                slot.hold_on.clear();
                self.n_held -= 1;
            }
            // Anyone holding back a wait-die retry on it may go again.
            self.release_holds_on(who);
        }
        self.push_ceiling(protocol);
    }

    fn finish(mut self) -> RunResult {
        // Flush unfinished instances into the metrics.
        let leftovers: Vec<InstanceId> = self.kernel.active_instances().to_vec();
        for who in leftovers {
            self.unblock(who);
            let record = self.kernel.remove(who);
            let snapshot = self.slot(who).snapshot;
            self.retire_slot(who, record, None, snapshot);
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
            snapshot_reads: self.snapshot_on,
            mv_high_water: self.mv.high_water(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb_baselines::RwPcp;
    use rtdb_cc::PcpDa;
    use rtdb_types::{SetBuilder, Step, TransactionTemplate};

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
    fn slot_store_recycles_slots_per_template() {
        let mut store = SlotStore::with_templates(2);
        let a0 = InstanceId::new(TxnId(0), 0);
        store.insert(a0, Tick(0), Tick(10));
        store.get_mut(a0).unwrap().blocking = Duration(3);
        store.remove(a0);
        assert!(store.get(a0).is_none());
        // The next instance of the same template reuses the slot (len
        // stays 1) and sees none of the old state.
        let a1 = InstanceId::new(TxnId(0), 1);
        store.insert(a1, Tick(5), Tick(15));
        assert_eq!(store.slots.len(), 1);
        let slot = store.get(a1).unwrap();
        assert_eq!(slot.id, a1);
        assert_eq!(slot.release, Tick(5));
        assert_eq!(slot.blocking, Duration::ZERO);
        // A different template gets a fresh slot.
        let b0 = InstanceId::new(TxnId(1), 0);
        store.insert(b0, Tick(0), Tick(20));
        assert_eq!(store.slots.len(), 2);
        assert!(store.get(b0).is_some());
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
