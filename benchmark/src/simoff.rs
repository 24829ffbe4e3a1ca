//! `sim-offline`: the paper-reproduction path, runtime untouched.
//!
//! What `figures`, `curves` and the sweeps do for every point they plot:
//! generate a transaction set, simulate it on the single-CPU engine under
//! PCP-DA, RW-PCP and 2PL-HP, and run the §9 schedulability analysis
//! (admission tests and breakdown utilization) for the three analysed
//! protocols. One such set is one operation; its latency is the time to
//! process it, and the "top" latency is its PCP-DA simulation — the paper's
//! own protocol. The sets are a fixed pool of 200 shapes; the seed draws
//! the order they are processed in. Everything here is deterministic: the
//! same set must give the same histories.

use crate::fingerprint::{self, Fnv};
use crate::harness::{self, Ctx, Fatal, Round, Workload};
use crate::inputs;
use crate::trace::Tracer;
use rtdb::analysis::{breakdown_utilization, schedulable, AnalysisProtocol};
use rtdb::cc::ProtocolKind;
use rtdb::sim::{instantiate, Engine, RunResult, SimConfig};
use rtdb::storage::{EventKind, History};
use rtdb::types::TransactionSet;
use rtdb_util::Rng;
use std::time::Instant;

/// Simulated under each of these, in this order.
const KINDS: [ProtocolKind; 3] = [
    ProtocolKind::PcpDa,
    ProtocolKind::RwPcp,
    ProtocolKind::TwoPlHp,
];
/// Ticks simulated per set and protocol.
const HORIZON: u64 = 5_000;
/// The pool of generated sets, at full size. Every round processes the
/// whole pool, so rounds are equal work; `--seed` draws the order. The
/// cost of a set varies by 3x with its shape, so a pool drawn afresh from
/// each seed would make seeds incomparable.
const POOL_SETS: u64 = 200;
/// Sets in a warm-up.
const WARM_SETS: usize = 20;
/// The exact-count run: the standard set, this many ticks.
const COUNT_HORIZON: u64 = 1_000_000;

pub struct SimOffline {
    /// History hashes of the first set's three simulations, from the last
    /// warm-up; round 0 must reproduce them.
    first_hashes: Vec<u64>,
}

fn simulate(
    set: &TransactionSet,
    kind: ProtocolKind,
    horizon: u64,
) -> Result<(RunResult, u64), Fatal> {
    let mut config = SimConfig::with_horizon(horizon);
    if kind.may_deadlock() {
        config = config.resolving_deadlocks();
    }
    let mut protocol = instantiate(kind);
    let run = Engine::new(set, config)
        .run_any(&mut protocol)
        .map_err(|e| format!("simulation under {} failed: {e}", kind.name()))?;
    Ok((run, protocol.requests()))
}

fn hash_history(history: &History) -> u64 {
    let mut h = Fnv::new();
    for e in history.events() {
        h.u64(e.at.raw());
        h.u64(u64::from(e.instance.txn.0));
        h.u64(u64::from(e.instance.seq));
        match e.kind {
            EventKind::Begin => h.u64(1),
            EventKind::Read {
                item,
                value,
                version,
                own,
            } => {
                h.u64(2);
                h.u64(u64::from(item.0));
                h.u64(value.raw());
                h.u64(version);
                h.u64(u64::from(own));
            }
            EventKind::StageWrite { item, value } => {
                h.u64(3);
                h.u64(u64::from(item.0));
                h.u64(value.raw());
            }
            EventKind::Commit => h.u64(4),
            EventKind::Install {
                item,
                value,
                version,
            } => {
                h.u64(5);
                h.u64(u64::from(item.0));
                h.u64(value.raw());
                h.u64(version);
            }
            EventKind::Abort => h.u64(6),
        }
    }
    h.finish()
}

/// The simulator's own oracles: an acyclic serialization graph, and a
/// serial replay in commit order that reproduces every read and the final
/// state. Returns the seconds each took.
fn check(set: &TransactionSet, kind: ProtocolKind, run: &RunResult) -> Result<(f64, f64), Fatal> {
    let t = Instant::now();
    if !run.is_conflict_serializable() {
        return Err(format!(
            "{} simulation is not conflict-serializable",
            kind.name()
        ));
    }
    let graph_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let replay = run.replay_check(set);
    if !replay.is_serializable() {
        return Err(format!(
            "{} simulation fails serial replay: {:?}",
            kind.name(),
            replay.violations.first()
        ));
    }
    Ok((graph_s, t.elapsed().as_secs_f64()))
}

/// What one batch of sets cost, per part.
#[derive(Default)]
struct Batch {
    wall_s: f64,
    gen_s: f64,
    sim_s: [f64; 3],
    requests: [u64; 3],
    schedulable_s: f64,
    breakdown_s: f64,
    set_us: Vec<f64>,
    pcpda_us: Vec<f64>,
    /// History hashes of the first set's simulations.
    first_hashes: Vec<u64>,
    /// The oracles, run on every simulation outside the timed parts.
    graph_s: f64,
    replay_s: f64,
    events: usize,
    commits: usize,
}

/// The pool's set seeds in the order round `index` processes them.
fn order(ctx: &Ctx, index: u64) -> Vec<u64> {
    let mut pool: Vec<u64> = (0..ctx.sized(POOL_SETS))
        .map(|k| crate::spec::SET_SEED * 1000 + k)
        .collect();
    Rng::seed(ctx.round_seed(index)).shuffle(&mut pool);
    pool
}

/// Process the sets generated from `set_seeds`. Each set's timed part is
/// generation, three simulations and the analysis; its simulations are
/// then checked by the oracles before the next set starts, off the clock.
fn batch(set_seeds: &[u64]) -> Result<Batch, Fatal> {
    let mut b = Batch::default();
    let secs = |t: Instant| t.elapsed().as_secs_f64();
    for (s, &set_seed) in set_seeds.iter().enumerate() {
        let per_set = Instant::now();
        let t = Instant::now();
        let set = inputs::params(set_seed)
            .generate()
            .map_err(|e| format!("workload generation failed: {e}"))?
            .set;
        b.gen_s += secs(t);
        let mut runs = Vec::with_capacity(KINDS.len());
        for (k, kind) in KINDS.iter().enumerate() {
            let t = Instant::now();
            let (run, requests) = simulate(&set, *kind, HORIZON)?;
            let took = secs(t);
            b.sim_s[k] += took;
            b.requests[k] += requests;
            if k == 0 {
                b.pcpda_us.push(took * 1e6);
            }
            runs.push(run);
        }
        for protocol in AnalysisProtocol::all() {
            let t = Instant::now();
            std::hint::black_box(schedulable(&set, protocol));
            b.schedulable_s += secs(t);
            let t = Instant::now();
            std::hint::black_box(breakdown_utilization(&set, protocol));
            b.breakdown_s += secs(t);
        }
        let took = secs(per_set);
        b.set_us.push(took * 1e6);
        b.wall_s += took;

        for (kind, run) in KINDS.iter().zip(&runs) {
            let (graph_s, replay_s) = check(&set, *kind, run)?;
            b.graph_s += graph_s;
            b.replay_s += replay_s;
            b.events += run.history.events().len();
            b.commits += run.history.committed();
            if s == 0 {
                b.first_hashes.push(hash_history(&run.history));
            }
        }
    }
    Ok(b)
}

impl SimOffline {
    pub fn new() -> Self {
        SimOffline {
            first_hashes: Vec::new(),
        }
    }
}

impl Workload for SimOffline {
    fn ballast(&self) -> bool {
        true
    }

    fn setup(&mut self, ctx: &Ctx, tr: &mut Tracer) -> Result<(), Fatal> {
        let first = tr.span("setup.generate", "setup", |_| order(ctx, 0));
        // The pool's shapes and the first round's order.
        let mut h = Fnv::new();
        for &set_seed in &first {
            let set = inputs::params(set_seed)
                .generate()
                .map_err(|e| format!("workload generation failed: {e}"))?
                .set;
            h.u64(set_seed);
            fingerprint::hash_set(&mut h, &set);
        }
        fingerprint::verify("sim-offline", ctx, h.finish())?;
        // The head of round 0, simulated: round 0 must reproduce these
        // histories exactly, as must every repetition of the set-up.
        let warm = tr.span("setup.warmup", "setup", |_| {
            batch(&first[..WARM_SETS.min(first.len())])
        })?;
        if !self.first_hashes.is_empty() && self.first_hashes != warm.first_hashes {
            return Err("a simulation history differs between repetitions".into());
        }
        self.first_hashes = warm.first_hashes;
        Ok(())
    }

    fn round(
        &mut self,
        ctx: &Ctx,
        index: u64,
        _spans: bool,
        tr: &mut Tracer,
    ) -> Result<Round, Fatal> {
        let set_seeds = order(ctx, index);
        let sets = set_seeds.len() as u64;
        let run_start_ns = tr.now_ns();
        let b = batch(&set_seeds)?;
        let hwm_mb = harness::peak_rss_mb();
        let run_end_ns = tr.now_ns();
        tr.record(|| "run".into(), "run", "workload", run_start_ns, run_end_ns);

        if index == 0 && b.first_hashes != self.first_hashes {
            return Err("a simulation history differs between repetitions".into());
        }
        let commits = b.commits.max(1) as f64;
        let ticks = (sets * HORIZON) as f64;
        let mut layer = vec![
            ("sim.workload_gen_us", b.gen_s * 1e6 / sets as f64),
            (
                "analysis.sets_per_s",
                sets as f64 / (b.schedulable_s + b.breakdown_s),
            ),
            // Three analysed protocols per set.
            (
                "analysis.schedulable_us_per_set",
                b.schedulable_s * 1e6 / sets as f64,
            ),
            (
                "analysis.breakdown_us_per_set",
                b.breakdown_s * 1e6 / sets as f64,
            ),
            ("storage.history_events_per_txn", b.events as f64 / commits),
            ("storage.graph_build_ns_per_txn", b.graph_s * 1e9 / commits),
            ("storage.replay_ns_per_txn", b.replay_s * 1e9 / commits),
        ];
        for (k, name) in [
            ("sim.ticks_per_s", "sim.ns_per_lock_request"),
            ("sim.ticks_per_s.rwpcp", "sim.ns_per_lock_request.rwpcp"),
            ("sim.ticks_per_s.2plhp", "sim.ns_per_lock_request.2plhp"),
        ]
        .into_iter()
        .enumerate()
        {
            layer.push((name.0, ticks / b.sim_s[k]));
            layer.push((name.1, b.sim_s[k] * 1e9 / b.requests[k].max(1) as f64));
        }
        Ok(Round {
            wall_s: b.wall_s,
            attempted: sets,
            failed: 0,
            good: sets,
            lat_us: b.set_us,
            top_lat_us: b.pcpda_us,
            hwm_mb,
            layer,
            headline: true,
            void: None,
        })
    }

    /// The counts a later change may claim on: the standard set at a fixed
    /// horizon, simulated twice under each protocol. They repeat exactly or
    /// the run is wrong.
    fn diagnostics(
        &mut self,
        ctx: &Ctx,
        layer: &mut Vec<(&'static str, f64)>,
    ) -> Result<(), Fatal> {
        const NAMES: [[&str; 3]; 3] = [
            ["sim.lock_requests", "sim.committed", "sim.restarts"],
            [
                "sim.lock_requests.rwpcp",
                "sim.committed.rwpcp",
                "sim.restarts.rwpcp",
            ],
            [
                "sim.lock_requests.2plhp",
                "sim.committed.2plhp",
                "sim.restarts.2plhp",
            ],
        ];
        let set = inputs::standard_set();
        let horizon = ctx.sized(COUNT_HORIZON);
        for (k, kind) in KINDS.iter().enumerate() {
            let (run, requests) = simulate(&set, *kind, horizon)?;
            let (again, _) = simulate(&set, *kind, horizon)?;
            if hash_history(&run.history) != hash_history(&again.history) {
                return Err(format!(
                    "{}: a simulation history differs between repetitions",
                    kind.name()
                ));
            }
            check(&set, *kind, &run)?;
            layer.push((NAMES[k][0], requests as f64));
            layer.push((NAMES[k][1], run.history.committed() as f64));
            layer.push((NAMES[k][2], f64::from(run.metrics.total_restarts())));
            if k == 0 {
                let max_blocking = run
                    .metrics
                    .instances()
                    .map(|m| m.blocking.raw())
                    .max()
                    .unwrap_or(0);
                layer.push(("sim.max_blocking_ticks", max_blocking as f64));
                layer.push((
                    "sim.max_distinct_lower_blockers",
                    run.metrics.max_distinct_lower_blockers() as f64,
                ));
                layer.push((
                    "sim.deadline_misses",
                    f64::from(run.metrics.deadline_misses()),
                ));
            }
        }
        Ok(())
    }
}
