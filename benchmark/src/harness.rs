//! The part every workload shares: repeat the set-up, run timed rounds
//! until the measuring time is spent, fold the rounds into metrics.
//!
//! A *round* is one fixed-size piece of work whose inputs are a pure
//! function of `(seed, round index)`. A run executes as many rounds as fit
//! in `--seconds`, ranks them by goodput, keeps the better half, and
//! reports each end-to-end number as the median over those rounds of the
//! per-round value. The host this was sized on is a shared virtual machine
//! whose CPUs are slowed or withheld for tens of milliseconds at a time;
//! that only ever makes a round slower, so the faster half of the rounds
//! is the half least disturbed, where a median over all rounds moves with
//! the share of disturbed ones. A change to the program moves every round,
//! and the kept half with them.

use crate::spec::{self, MetricSpec};
use crate::stats;
use crate::trace::Tracer;
use rtdb_util::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// What one invocation was asked to do.
pub struct Ctx {
    pub seed: u64,
    /// How long to measure, in seconds of timed rounds.
    pub seconds: f64,
    /// The per-layer pass: record spans, run the probes and diagnostics.
    pub traced: bool,
    /// 1/20-size rounds, for the crate's own smoke test.
    pub smoke: bool,
}

impl Ctx {
    /// A round or warm-up size, cut down under `--smoke`.
    pub fn sized(&self, full: u64) -> u64 {
        if self.smoke {
            (full / spec::SMOKE_DIVISOR).max(1)
        } else {
            full
        }
    }

    /// The seed of round `index`'s inputs.
    pub fn round_seed(&self, index: u64) -> u64 {
        self.seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(index)
    }
}

/// What one timed round produced.
#[derive(Default)]
pub struct Round {
    /// Wall time of the timed window.
    pub wall_s: f64,
    /// Operations offered to the program.
    pub attempted: u64,
    /// Operations that got no valid outcome (not committed, refused, lost
    /// or answered twice).
    pub failed: u64,
    /// Operations that count towards goodput: a valid outcome that is also
    /// serializable and on time.
    pub good: u64,
    /// Latency of every completed operation.
    pub lat_us: Vec<f64>,
    /// Latency of the operations in the class the paper protects.
    pub top_lat_us: Vec<f64>,
    /// `VmHWM` right after the timed window, before the oracles run.
    pub hwm_mb: f64,
    /// This round's per-layer values.
    pub layer: Vec<(&'static str, f64)>,
    /// False for rounds run at a side configuration (the open loop's other
    /// rates): they feed their own per-layer metrics only.
    pub headline: bool,
    /// Set when the harness itself failed to apply the load it meant to
    /// (the open-loop generator ran late): the round measured the harness,
    /// not the program, and is run again.
    pub void: Option<String>,
}

/// A fatal check failed; the text says which.
pub type Fatal = String;

pub trait Workload {
    /// True for a workload that keeps only one CPU busy. Such a run spins
    /// a ballast thread on the other CPU for its whole life: with one
    /// virtual CPU idle, the shared host this was sized on runs the busy
    /// one at speeds that move between plateaus 25% apart from one
    /// fraction of a second to the next; with both busy it stays on the
    /// plateau the two-worker workloads also see.
    fn ballast(&self) -> bool {
        false
    }

    /// One complete set-up: generate the inputs, connect, warm up.
    fn setup(&mut self, ctx: &Ctx, tr: &mut Tracer) -> Result<(), Fatal>;

    /// One timed round, verified. `spans` asks for job spans.
    fn round(
        &mut self,
        ctx: &Ctx,
        index: u64,
        spans: bool,
        tr: &mut Tracer,
    ) -> Result<Round, Fatal>;

    /// Measurements the traced pass takes once, outside the rounds.
    fn diagnostics(
        &mut self,
        _ctx: &Ctx,
        _layer: &mut Vec<(&'static str, f64)>,
    ) -> Result<(), Fatal> {
        Ok(())
    }
}

/// The result of one invocation, before it is printed.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Run `workload` as `ctx` asks and fold its rounds into metrics.
pub fn drive(workload: &mut dyn Workload, ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, Fatal> {
    if !workload.ballast() {
        return measure(workload, ctx, tr);
    }
    // Relaxed throughout: the flag publishes nothing but itself.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        // Stops the ballast even if the measurement panics; the scope
        // would otherwise wait for it for ever.
        let _stop = StopOnDrop(&stop);
        measure(workload, ctx, tr)
    })
}

fn measure(workload: &mut dyn Workload, ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, Fatal> {
    // Set-up, repeated: once before the first round, timed from process
    // start (the tracer's clock), then spread evenly over the run, so that
    // the median samples the host's speed over the whole run and not over
    // its first second.
    let mut setups = Vec::with_capacity(spec::SETUP_REPS);
    let mut timed_setup = |workload: &mut dyn Workload, tr: &mut Tracer, from_ns: u64| {
        workload.setup(ctx, tr)?;
        let end_ns = tr.now_ns();
        setups.push((end_ns - from_ns) as f64 / 1e9);
        tr.record(|| "run".into(), "setup", "workload", from_ns, end_ns);
        Ok::<usize, Fatal>(setups.len())
    };
    let mut setups_done = timed_setup(workload, tr, 0)?;

    // Timed rounds. In the traced pass every other round records spans, so
    // the pass measures its own overhead on paired rounds.
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        metrics: BTreeMap::new(),
    };
    let mut layer: Vec<(&'static str, f64)> = Vec::new();
    // Per headline round: goodput, latency p50, top-band latency p50.
    let mut per_round: Vec<[f64; 3]> = Vec::new();
    let mut goodput_by_spans = [Vec::new(), Vec::new()];
    let mut first_hwm_mb = None;
    let (mut measured, mut voided, mut index) = (0.0, 0.0, 0u64);
    while measured < ctx.seconds {
        let spans = ctx.traced && index % 2 == 0;
        let mut round = workload.round(ctx, index, spans, tr)?;
        // Void rounds are run again with the next index, until they have
        // cost as much again as the run was meant to take.
        if let Some(why) = round.void.take() {
            if voided < ctx.seconds {
                voided += round.wall_s;
                index += 1;
                eprintln!("round {} void: {why}", index - 1);
                continue;
            }
            eprintln!("round {index} kept although void: {why}");
        }
        measured += round.wall_s;
        out.attempted += round.attempted;
        out.failed += round.failed;
        layer.append(&mut round.layer);
        // The first round's high-water mark: set-up plus one round of the
        // program, before any oracle has allocated.
        first_hwm_mb.get_or_insert(round.hwm_mb);
        let rate = round.good as f64 / round.wall_s;
        let (lat, lat_tail) = stats::p50_and_tail(&mut round.lat_us);
        let (top, top_lat_tail) = stats::p50_and_tail(&mut round.top_lat_us);
        eprintln!(
            "round {index}: {rate:.1} good/s, latency p50 {lat:.1} tail {lat_tail:.1}, \
             top p50 {top:.1} tail {top_lat_tail:.1} us{}",
            if round.headline { "" } else { " (side rate)" }
        );
        index += 1;
        if !round.headline {
            continue;
        }
        goodput_by_spans[usize::from(spans)].push(rate);
        per_round.push([rate, lat, top]);
        layer.push(("e2e.lat_p99_us", lat_tail));
        layer.push(("e2e.top_lat_p99_us", top_lat_tail));
        if setups_done < spec::SETUP_REPS
            && measured >= ctx.seconds * setups_done as f64 / spec::SETUP_REPS as f64
        {
            setups_done = timed_setup(workload, tr, tr.now_ns())?;
        }
    }
    while setups_done < spec::SETUP_REPS {
        setups_done = timed_setup(workload, tr, tr.now_ns())?;
    }

    if ctx.traced {
        workload.diagnostics(ctx, &mut layer)?;
        crate::probes::run(ctx, &mut layer);
    }
    let end = tr.now_ns();
    tr.record(|| "run".into(), "workload", "", 0, end);

    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (name, value) in layer {
        by_name.entry(name).or_default().push(value);
    }
    for (name, values) in by_name {
        out.metrics.insert(name, stats::median(&values));
    }
    // The better half by goodput, and the medians over it.
    per_round.sort_by(|a, b| b[0].total_cmp(&a[0]));
    per_round.truncate(per_round.len().div_ceil(2));
    for (column, name) in ["goodput_per_s", "lat_p50_us", "top_lat_p50_us"]
        .into_iter()
        .enumerate()
    {
        let values: Vec<f64> = per_round.iter().map(|r| r[column]).collect();
        out.metrics.insert(name, stats::median(&values));
    }
    out.metrics.insert("setup_s", stats::median(&setups));
    out.metrics
        .insert("peak_rss_mb", first_hwm_mb.unwrap_or(0.0));
    out.metrics.insert("harness.rounds", index as f64);
    out.metrics.insert("trace.spans", tr.len() as f64);
    // Each span-recording round against the plain round that followed it.
    let [off, on] = &goodput_by_spans;
    let cost: Vec<f64> = on
        .iter()
        .zip(off)
        .map(|(on, off)| (off - on) / off * 100.0)
        .collect();
    if !cost.is_empty() {
        let overhead = stats::median(&cost);
        out.metrics.insert("trace.overhead_pct", overhead);
        if overhead > 2.0 {
            eprintln!(
                "FLAG: tracing cost {overhead:.1}% of goodput; the traced numbers are suspect"
            );
        }
    }
    Ok(out)
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: `correct`, `attempted`, `failed`, and the metrics of
/// `table` by name. A per-layer metric this workload never measured is 0:
/// that layer is not on its path.
pub fn result_line(outcome: &Outcome, table: &[MetricSpec]) -> String {
    let mut metrics = Json::obj();
    for m in table {
        let value = outcome.metrics.get(m.name).copied().unwrap_or(0.0);
        metrics = metrics.set(m.name, Json::obj().set("value", value).set("unit", m.unit));
    }
    Json::obj()
        // A run that fails a check prints no result line at all.
        .set("correct", true)
        .set("attempted", outcome.attempted.max(1))
        .set("failed", outcome.failed)
        .set("metrics", metrics)
        .to_string_compact()
}
