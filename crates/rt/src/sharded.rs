//! The lock manager: 1..`N` shards of protocol state, one set of calls.
//!
//! [`ShardedManager`] owns the run's protocol state as `N` [`Shared`]
//! cores, each behind its own mutex — a full [`rtdb_core::StateKernel`]
//! (local ceilings, wait edges, records, history) scoped to the items the
//! static [`ShardRouter`] rule, shared with the workload generator, sends
//! to it (DESIGN.md §6c, §6f) — plus what a run keeps once: the event
//! clock the shards tick, the commit gate, the snapshot side-car and the
//! park timeout. It is the only code that blocks: [`ShardedManager::lock`]
//! is the one place a shard's state lock is taken and
//! [`ShardedManager::park`] the one place a thread waits — for a lock
//! request, at the commit gate, and out an abort's hold before a restart.
//! The worker makes two calls, [`ShardedManager::boundary`] before every
//! step and [`ShardedManager::commit`] after the last; they compose the
//! cores' kernel-backed methods under those guards and never reach into a
//! kernel. Busy work runs between them, outside every guard.
//!
//! A job touches the `k ≥ 1` shards its template's items route to. An
//! unsharded run is `N = 1`, where every job has `k = 1`; nothing below
//! is a separate path for it — what one shard does not need (a gate,
//! item scoping) is simply absent. *Single-shard* jobs take exactly one
//! shard's state mutex (asserted via the per-shard `state_lock_acquires`
//! counter), park there when the protocol denies a request, and scale
//! with the shard count. They take it once per step boundary — register
//! or wait out the restart hold, poll the abort, apply the finished
//! step's early releases, present the next request, all under one guard
//! — and once to commit; a boundary before a compute step takes none
//! when the kind neither releases early nor aborts.
//!
//! Cross-shard jobs (`k > 1`) follow a DPCP-p-style global rule over the
//! shards' local ceilings, with no global ceiling of its own:
//!
//! * **Canonical-order registration** — begin at once, registering in
//!   every touched shard in ascending shard order (the *home* shard — the
//!   lowest — logs the Begin event), carrying one shared abort signal.
//! * **No-wait execution** — a cross-shard transaction never parks inside
//!   any shard while it holds anything. A protocol decision that would
//!   block it is undone on the spot and the transaction self-aborts: it
//!   releases everything in every shard (ascending), is held in the
//!   denying shard on the instances that denied it and still hold a lock
//!   there, and restarts once they are gone, like any other restart. That
//!   hold is the one wait a cross-shard conflict costs. Every wait edge
//!   is therefore *intra*-shard, each shard's local deadlock sweep stays
//!   complete, and no global detector is needed.
//!
//! **Commit** is one body for every `k`: lock the touched shards in
//! canonical order (a cross-shard job whose commit gate is closed in any
//! of them self-aborts there, as on a denied request), then commit in
//! each shard's kernel in turn. The commit tick is drawn once, in the
//! home shard after its commit victims are aborted, under the run-global
//! commit gate when `N > 1`, and held with the snapshot publish and the
//! commit index, so commit-tick order, commit-index order and
//! snapshot-stamp order agree across shards.
//!
//! Aborts of a cross-shard victim are split: the aborting shard cleans
//! its local slice silently and raises the victim's signal; the victim
//! observes the signal at its next manager call and sweeps its remaining
//! shards itself, logging exactly one Abort + restart-Begin pair in its
//! home shard.

use crate::manager::{
    next_tick, Boundary, CommitOutcome, JobStats, ManagerReport, Outcome, Shared, WorkerCtx,
};
use crate::runtime::RtConfig;
use crate::snapshot::SnapshotSide;
use rtdb_core::{ProtocolKind, ShardRouter, ShardSet, MAX_SHARDS};
use rtdb_storage::{Event, History};
use rtdb_types::{InstanceId, ItemId, LockMode, TransactionSet, TxnId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Cross-shard state of the job currently executing on a worker, carried
/// in [`WorkerCtx`] so the signal poll costs no lock.
pub(crate) struct CrossJob {
    /// The shared abort signal, registered with every touched shard.
    signal: Arc<AtomicBool>,
    /// The shards this job touches (canonical iteration order).
    shards: ShardSet,
    /// Aborts absorbed so far (the per-shard records never see them).
    restarts: u32,
}

/// Per-shard telemetry, reported in [`crate::RtResult::per_shard`].
#[derive(Clone, Debug, Default)]
pub struct ShardStats {
    /// The shard index.
    pub shard: usize,
    /// Data operations routed to this shard.
    pub ops: u64,
    /// Commits whose home was this shard (cross-shard commits count once,
    /// at their home shard).
    pub commits: u64,
    /// Times this shard's state mutex was acquired. The shard-isolation
    /// assertion: a run whose transactions all live in shard `s` leaves
    /// every other shard's counter at zero.
    pub state_lock_acquires: u64,
}

/// The lock manager: the shards' state cores, each behind its mutex, plus
/// everything a run keeps once — see the module docs.
pub(crate) struct ShardedManager<'a> {
    shards: Vec<Mutex<Shared<'a>>>,
    router: ShardRouter,
    /// The event clock every shard ticks, read here for a commit tick.
    clock: Arc<AtomicU64>,
    /// The commit gate, `Some` exactly when `shards.len() > 1`: the
    /// run-global next-commit-index counter, locked around {commit tick,
    /// installs, snapshot publish} so commit ticks, commit indices and
    /// snapshot stamps agree across shards (and the single-publisher
    /// contract of `SnapshotStore::publish` holds). One shard has no gate:
    /// its state mutex already serializes all of this.
    gate: Option<Mutex<u64>>,
    /// The snapshot-read side-car, when the path is enabled: every commit
    /// publishes its installs (and seals a stamp) there, inside its
    /// critical section.
    snap: Option<Arc<SnapshotSide>>,
    /// Park `wait_timeout` safety net (see [`crate::RtConfig::park_timeout`]).
    park_timeout: Duration,
    /// Per-template shard sets, precomputed (index = `TxnId::index`).
    template_shards: Vec<ShardSet>,
    /// The protocol kind: whether a boundary applies early releases, and
    /// whether one before a compute step decides anything.
    kind: ProtocolKind,
    /// Cross-shard jobs begun.
    cross_shard_txns: AtomicU64,
    /// Of those, no-wait self-aborts: would-block decisions no shard's
    /// kernel recorded an abort reason for.
    no_wait_aborts: AtomicU64,
}

impl<'a> ShardedManager<'a> {
    pub(crate) fn new(
        set: &'a TransactionSet,
        config: &RtConfig,
        snap: Option<Arc<SnapshotSide>>,
    ) -> Self {
        let n = config.shards.clamp(1, MAX_SHARDS);
        let kind = config.kind;
        let line_up = |keep: fn(ProtocolKind) -> bool| {
            let kinds = ProtocolKind::STANDARD.into_iter().filter(|&k| keep(k));
            kinds.map(ProtocolKind::name).collect::<Vec<_>>().join(", ")
        };
        // The demo kinds reproduce the paper's single-CPU negative
        // results; the simulator and `figures` run them.
        assert!(
            kind.is_standard(),
            "{kind} runs only in the simulator; the runtime runs {}",
            line_up(|_| true),
        );
        assert!(
            n == 1 || kind.shardable(),
            "{kind} cannot run sharded; shardable protocols: {}",
            line_up(ProtocolKind::shardable),
        );
        let router = ShardRouter::new(n);
        let clock = Arc::new(AtomicU64::new(0));
        let scope = (n > 1).then_some(router);
        ShardedManager {
            shards: (0..n)
                .map(|s| Mutex::new(Shared::new(set, config.kind, clock.clone(), s, scope)))
                .collect(),
            router,
            clock,
            gate: (n > 1).then(|| Mutex::new(0)),
            snap,
            park_timeout: config.park_timeout,
            template_shards: (0..set.len())
                .map(|t| router.shards_of(set, TxnId(t as u32)))
                .collect(),
            kind,
            cross_shard_txns: AtomicU64::new(0),
            no_wait_aborts: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shards_of(&self, id: InstanceId) -> ShardSet {
        self.template_shards[id.txn.index()]
    }

    #[inline]
    fn home_of(&self, id: InstanceId) -> usize {
        self.shards_of(id)
            .home()
            .expect("template has a home shard")
    }

    /// Take `shard`'s state lock — the only place protocol state is
    /// locked. Recovers from poisoning: a panicking worker already fails
    /// the run via the scope join; secondary threads should not cascade
    /// with confusing poison panics.
    pub(crate) fn lock(&self, shard: usize) -> MutexGuard<'_, Shared<'a>> {
        let mut core = self.shards[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        core.state_lock_acquires += 1;
        core
    }

    /// Park the calling thread on `id`'s condvar until `id` is aborted or
    /// `until` holds — the only place a worker waits. `until` names a fact
    /// in the shard's kernel and is tested again after every wake-up,
    /// notified or not, so the park timeout is a safety net for any
    /// caller: a wait that expires runs the wake-up re-evaluation and the
    /// deadlock sweep itself ([`Shared::net_fired`]), and a wake-up lost
    /// after its transition was made is seen one period later at most.
    /// Hands the guard back held.
    fn park<'m>(
        &self,
        mut g: MutexGuard<'m, Shared<'a>>,
        id: InstanceId,
        until: fn(&mut Shared<'a>, InstanceId) -> bool,
    ) -> MutexGuard<'m, Shared<'a>> {
        let cv = g.condvar(id);
        while !(g.is_aborted(id) || until(&mut g, id)) {
            let wait;
            (g, wait) = cv
                .wait_timeout(g, self.park_timeout)
                .unwrap_or_else(PoisonError::into_inner);
            if wait.timed_out() {
                g.net_fired();
            }
        }
        g
    }

    /// Cross step boundary `at` of `id`'s attempt and present the request
    /// of the step it leads to, `access`, if that step has one.
    ///
    /// A single-shard job crosses it in one critical section on its home
    /// shard: it registers the instance ([`Boundary::Begin`]) or waits out
    /// its restart hold ([`Boundary::Restart`]), polls the abort flag,
    /// applies the finished step's early releases and retires, and
    /// presents the request, parking in place while the protocol denies
    /// it. A boundary before a compute step takes no lock at all when the
    /// kind neither releases early nor aborts: the finished step changed
    /// nothing, and the next boundary or the commit polls any abort.
    ///
    /// A cross-shard job keeps the per-shard path: registration in every
    /// shard in canonical order, a lock-free poll of its signal, and a
    /// no-wait request in the item's shard — a would-block decision is
    /// undone and the job self-aborts everywhere instead of parking in
    /// someone else's shard.
    pub(crate) fn boundary(
        &self,
        id: InstanceId,
        at: Boundary,
        access: Option<(ItemId, LockMode)>,
        ctx: &mut WorkerCtx,
    ) -> Outcome {
        if at == Boundary::Begin {
            let touched = self.shards_of(id);
            ctx.cross = touched
                .is_cross_shard()
                .then(|| self.begin_cross(id, touched));
        }
        if ctx.cross.is_some() {
            return self.cross_boundary(id, at, access, ctx);
        }
        let releases_early = self.kind.releases_early();
        let decides = releases_early || self.kind.may_abort();
        if access.is_none() && matches!(at, Boundary::Step(_)) && !decides {
            return Outcome::Done;
        }
        let home = self.home_of(id);
        let mut g = self.lock(home);
        match at {
            Boundary::Begin => g.begin(id, true, None),
            // A victim restarting at once can re-form the conflict it was
            // aborted out of (a 2PL-PI upgrade cycle once livelocked that
            // way): it waits for whoever caused the abort to leave.
            Boundary::Restart => g = self.park(g, id, Shared::hold_clear),
            // Early releases (and CCP's early installs) apply after every
            // *non-final* step; the final step's locks fall to commit.
            Boundary::Step(next) if releases_early => {
                if g.take_abort(id) {
                    return Outcome::Restart;
                }
                g.step_done(id, next - 1, &ctx.ws);
            }
            Boundary::Step(_) => {}
        }
        let Some((item, mode)) = access else {
            return if g.take_abort(id) {
                Outcome::Restart
            } else {
                Outcome::Done
            };
        };
        debug_assert_eq!(
            self.router.shard_of(item),
            home,
            "routing disagrees with template"
        );
        g.ops += 1;
        loop {
            // Looked for on every round: a retry may be an abort in
            // disguise (a wound, or a deadlock sweep inside `try_acquire`
            // that picked us).
            if g.take_abort(id) {
                return Outcome::Restart;
            }
            if g.try_acquire(id, at.step(), item, mode, &mut ctx.ws) {
                return Outcome::Done;
            }
            if !g.request_cleared(id) {
                g = self.park(g, id, Shared::request_cleared);
            }
        }
    }

    /// Register a cross-shard instance in every shard it touches, in
    /// canonical order, with one abort signal everywhere; the home shard
    /// logs its Begin.
    fn begin_cross(&self, id: InstanceId, touched: ShardSet) -> CrossJob {
        self.cross_shard_txns.fetch_add(1, Ordering::Relaxed);
        let cross = CrossJob {
            signal: Arc::new(AtomicBool::new(false)),
            shards: touched,
            restarts: 0,
        };
        let home = touched.home().expect("cross-shard set is non-empty");
        for s in touched.iter() {
            self.lock(s)
                .begin(id, s == home, Some(cross.signal.clone()));
        }
        cross
    }

    /// [`ShardedManager::boundary`] for a cross-shard job: wait out the
    /// restart hold in every touched shard, then poll the signal — no
    /// lock; every shardable protocol runs the workspace update model
    /// with no early releases, so a finished step leaves nothing to
    /// apply — and present the request no-wait.
    fn cross_boundary(
        &self,
        id: InstanceId,
        at: Boundary,
        access: Option<(ItemId, LockMode)>,
        ctx: &mut WorkerCtx,
    ) -> Outcome {
        if at == Boundary::Restart {
            for s in self.shards_of(id).iter() {
                drop(self.park(self.lock(s), id, Shared::hold_clear));
            }
        }
        let Some((item, mode)) = access else {
            let cross = ctx.cross.as_ref().expect("a cross-shard job");
            if !cross.signal.load(Ordering::Acquire) {
                return Outcome::Done;
            }
            self.sweep(id, ctx);
            return Outcome::Restart;
        };
        let s = self.router.shard_of(item);
        debug_assert!(
            self.shards_of(id).contains(s),
            "routing disagrees with template"
        );
        let cross = ctx.cross.as_ref().expect("a cross-shard job");
        let mut g = self.lock(s);
        g.ops += 1;
        let denied = loop {
            if cross.signal.load(Ordering::Acquire) {
                break None;
            }
            if g.try_acquire(id, at.step(), item, mode, &mut ctx.ws) {
                return Outcome::Done;
            }
            if g.request_cleared(id) {
                continue;
            }
            g.unpark(id);
            self.no_wait_aborts.fetch_add(1, Ordering::Relaxed);
            break Some(g.denied_by());
        };
        drop(g);
        self.sweep(id, ctx);
        // A no-wait self-abort waits out what denied it, like a die —
        // held only now that the sweep has released everything.
        if let Some(blockers) = denied {
            self.lock(s).hold_on_holders(id, &blockers);
        }
        Outcome::Restart
    }

    /// Commit `id`: lock every shard it touches in canonical order and
    /// run the one commit body over them. A single-shard job first waits
    /// out the commit gate of the early-release protocols (it parks while
    /// it still has commit dependencies; no shardable protocol creates
    /// any). Fails with [`CommitOutcome::Restart`] if the instance was
    /// aborted before the commit point (or cascaded out of the gate).
    pub(crate) fn commit(&self, id: InstanceId, ctx: &mut WorkerCtx) -> CommitOutcome {
        let Some(cross) = &ctx.cross else {
            let mut g = self.lock(self.home_of(id));
            loop {
                if g.take_abort(id) {
                    return CommitOutcome::Restart;
                }
                if let Some(stats) = self.commit_locked(id, std::slice::from_mut(&mut g), ctx) {
                    return CommitOutcome::Committed(stats);
                }
                g = self.park(g, id, Shared::gate_open);
            }
        };
        let mut guards: Vec<_> = cross.shards.iter().map(|s| self.lock(s)).collect();
        // All our shards' state is held, and aborting us requires one of
        // those locks — the signal is stable now.
        if cross.signal.load(Ordering::Acquire) {
            drop(guards);
            self.sweep(id, ctx);
            return CommitOutcome::Restart;
        }
        // A reader let past one of our writes has not left (its commit
        // gate): a cross-shard committer never waits, so this is a
        // would-block — released everywhere, held on the readers.
        let gated: Vec<(usize, Vec<InstanceId>)> = (cross.shards.iter().zip(&guards))
            .filter_map(|(s, g)| Some((s, g.gate_of(id)?.to_vec())))
            .collect();
        if !gated.is_empty() {
            drop(guards);
            self.no_wait_aborts.fetch_add(1, Ordering::Relaxed);
            self.sweep(id, ctx);
            for (s, readers) in gated {
                self.lock(s).hold_on_holders(id, &readers);
            }
            return CommitOutcome::Restart;
        }
        let stats = self
            .commit_locked(id, &mut guards, ctx)
            .expect("every gate is open");
        drop(guards);
        ctx.cross = None;
        CommitOutcome::Committed(stats)
    }

    /// The commit body, over the locked shards `id` touches in canonical
    /// order (`guards[0]` is its home): each shard's kernel commits it
    /// ([`Shared::commit`]: commit gate, OCC validation on the
    /// shard-scoped records each kernel keeps, installs, release). The
    /// commit tick is drawn once, in the home shard after its validation,
    /// under the commit gate when there is one, and every shard installs
    /// at it (the Commit event at home); then one snapshot batch is
    /// published and the commit index taken. `None` when the home shard
    /// parked `id` at a closed commit gate — a cross-shard caller has
    /// found every gate open. The caller has consumed any abort.
    fn commit_locked(
        &self,
        id: InstanceId,
        guards: &mut [MutexGuard<'_, Shared<'a>>],
        ctx: &mut WorkerCtx,
    ) -> Option<JobStats> {
        let mut gate = None;
        let mut at = None;
        let mut stats = JobStats {
            restarts: ctx.cross.as_ref().map_or(0, |c| c.restarts),
            ..JobStats::default()
        };
        for (k, g) in guards.iter_mut().enumerate() {
            let batch = self.snap.is_some().then_some(&mut ctx.batch);
            let tick = || {
                *at.get_or_insert_with(|| {
                    gate = self
                        .gate
                        .as_ref()
                        .map(|gate| gate.lock().unwrap_or_else(PoisonError::into_inner));
                    next_tick(&self.clock)
                })
            };
            let record = g.commit(id, &ctx.ws, k == 0, batch, tick)?;
            stats.restarts += record.restarts;
            stats.block_events += record.block_events;
            if stats.lower_blockers.is_empty() {
                stats.lower_blockers = record.lower_blockers;
                continue;
            }
            for t in record.lower_blockers {
                if let Err(i) = stats.lower_blockers.binary_search(&t) {
                    stats.lower_blockers.insert(i, t);
                }
            }
        }
        // Seal this commit's stamp — on *every* lock-path commit, written
        // or not, so stamp `S` means "the state after the first `S`
        // commits" exactly as the oracle counts them.
        if let Some(side) = self.snap.as_deref() {
            side.store.publish(&ctx.batch);
            ctx.batch.clear();
        }
        stats.commit_index = match gate.as_deref_mut() {
            Some(next) => std::mem::replace(next, *next + 1),
            None => guards[0].commits,
        };
        drop(gate);
        guards[0].commits += 1;
        Some(stats)
    }

    /// The job's own side of its abort. Nothing for a single-shard job —
    /// its aborter ran the whole abort through the kernel. A cross-shard
    /// job sweeps: one ascending pass over its shards releasing
    /// everything, logging the single Abort + restart-Begin pair in the
    /// home shard, then lowering the signal — whether the abort was
    /// external (signal raised by a shard's deadlock sweep or commit
    /// validation) or a no-wait self-abort (signal never raised).
    fn sweep(&self, id: InstanceId, ctx: &mut WorkerCtx) {
        let Some(cross) = ctx.cross.as_mut() else {
            return;
        };
        cross.restarts += 1;
        let home = cross.shards.home().expect("cross-shard set is non-empty");
        for s in cross.shards.iter() {
            self.lock(s).sweep_cross(id, s == home);
        }
        cross.signal.store(false, Ordering::Release);
    }

    /// Tear down after every worker joined: sum the shards' counters,
    /// absorb their databases and merge their histories by tick.
    pub(crate) fn finish(self) -> ManagerReport {
        let mut report = ManagerReport {
            cross_shard_txns: self.cross_shard_txns.into_inner(),
            ..ManagerReport::default()
        };
        report.abort_reasons.ceiling_block = self.no_wait_aborts.into_inner();
        let mut logs: Vec<History> = Vec::with_capacity(self.shards.len());
        for shard in self.shards {
            let core = shard.into_inner().unwrap_or_else(PoisonError::into_inner);
            logs.push(core.finish(&mut report));
        }
        // Concatenate the shards' event streams in ascending shard order
        // and stable-sort by tick. The shared clock makes ticks globally
        // unique except for cross-shard commits, which log their Commit
        // (home shard) and off-home Installs at one tick — the home shard
        // is the lowest touched, so concatenation order already places
        // the Commit first and the stable sort keeps it there.
        report.history = match logs.len() {
            1 => logs.pop().expect("one shard"),
            _ => {
                let mut events: Vec<Event> =
                    logs.iter().flat_map(|h| h.events()).copied().collect();
                events.sort_by_key(|e| e.at);
                events.into_iter().collect()
            }
        };
        report
    }
}
