//! `open-front`: an open loop into the admission front-end.
//!
//! Independent users: Poisson arrivals at a fixed rate, each request due
//! at its scheduled time whether or not the system has kept up, each with
//! the deadline `release + period · tick`. One worker, one generator
//! thread (this one), admission queue of 512 with the reject policy.
//! Latency runs from the *scheduled* arrival to the commit, so a stall
//! charges every request it delays.
//!
//! The untraced pass measures the headline rate only; the traced pass also
//! visits the two side rates that bracket it.

use crate::fingerprint::{self, Fnv};
use crate::harness::{self, Ctx, Fatal, Round, Workload};
use crate::rtround::{self, RtRound};
use crate::schedule::{self, Arrival};
use crate::trace::Tracer;
use crate::{inputs, stats};
use rtdb::cc::ProtocolKind;
use rtdb::rt::{
    self, AdmissionPolicy, Completion, FrontConfig, JobRequest, RtConfig, SubmitOutcome,
};
use rtdb::types::TransactionSet;
use std::collections::BTreeMap;
use std::time::Instant;

const TICK_NS: u64 = 20_000;
/// Room for a quarter of a second of arrivals. At 58% load the queue holds
/// a handful of requests; it fills only when the host withholds the
/// worker's CPU, and a queue of 64 then turned every stall over 30 ms into
/// rejected requests. An overloaded worker still fills it within a second.
const CAPACITY: usize = 512;
/// A backlog this deep at the last arrival is a growing one.
const GROWING_BACKLOG: f64 = 32.0;
/// The headline rate, about 58% of what one worker can serve.
const HEADLINE_RATE: u64 = 2000;
/// The traced pass cycles through these; every other headline round
/// records spans.
const TRACED_CYCLE: [u64; 4] = [HEADLINE_RATE, HEADLINE_RATE, 1000, 3000];
/// A round offers this many twentieths of a second of arrivals; a warm-up
/// offers one twentieth.
const ROUND_TWENTIETHS: u64 = 5;
/// A generator this late at its 99th percentile did not offer the schedule.
const MAX_LATENESS_US: f64 = 200.0;
/// A rate is sustained when at most this share of requests fails.
const OK_FAIL_RATIO: f64 = 0.05;

pub struct OpenFront {
    set: TransactionSet,
    /// `(rate, fail ratio, queue depth at the last arrival)` per round.
    by_rate: Vec<(u64, f64, usize)>,
}

/// What the generator saw of one request.
struct Sent {
    /// How late the request left, against its due time.
    late_ns: u64,
    /// Start and length of the `submit` call, on the front-end's clock.
    call_start_ns: u64,
    call_ns: u64,
    /// The ticket, when the request was admitted.
    ticket: Option<u64>,
}

impl OpenFront {
    pub fn new() -> Self {
        OpenFront {
            set: inputs::standard_set(),
            by_rate: Vec::new(),
        }
    }

    fn config() -> FrontConfig {
        FrontConfig::new(ProtocolKind::PcpDa)
            .with_rt(
                RtConfig::new(ProtocolKind::PcpDa)
                    .with_threads(1)
                    .with_tick_ns(TICK_NS),
            )
            .with_capacity(CAPACITY)
            .with_policy(AdmissionPolicy::Reject)
    }

    fn schedule(&self, ctx: &Ctx, rate: u64, twentieths: u64, seed: u64) -> Vec<Arrival> {
        let count = ctx.sized(rate * twentieths / 20).max(20) as usize;
        schedule::poisson_schedule(&self.set, rate as f64, count, seed)
    }

    /// Offer `schedule` to a fresh front-end and fold what came back.
    fn offer(
        &mut self,
        rate: u64,
        schedule: &[Arrival],
        index: u64,
        spans: bool,
        tr: &mut Tracer,
    ) -> Result<Round, Fatal> {
        let set = &self.set;
        let run_start_ns = tr.now_ns();
        let t = Instant::now();
        let (result, (sent, completions, depth_max, depth_last, last_submit_ns, clock_skew_ns)) =
            rt::run_front(set, Self::config(), |front| {
                let (sub, completions) = front.submitter();
                // Front-end clock to tracer clock.
                let clock_skew_ns = tr.now_ns() - sub.elapsed_ns();
                let mut sent = Vec::with_capacity(schedule.len());
                let mut depth_max = 0;
                for a in schedule {
                    let now = schedule::wait_until(|| sub.elapsed_ns(), a.due_ns);
                    let outcome = sub.submit(JobRequest::periodic(set, a.txn, a.due_ns, TICK_NS));
                    let done = sub.elapsed_ns();
                    depth_max = depth_max.max(front.queue_depth());
                    sent.push(Sent {
                        late_ns: now - a.due_ns,
                        call_start_ns: now,
                        call_ns: done - now,
                        ticket: match outcome {
                            SubmitOutcome::Admitted { ticket } => Some(ticket),
                            _ => None,
                        },
                    });
                }
                let depth_last = front.queue_depth();
                (
                    sent,
                    completions,
                    depth_max,
                    depth_last,
                    sub.elapsed_ns(),
                    clock_skew_ns,
                )
            });
        let wall_s = t.elapsed().as_secs_f64();
        let hwm_mb = harness::peak_rss_mb();
        let run_end_ns = tr.now_ns();
        tr.record(|| "run".into(), "run", "workload", run_start_ns, run_end_ns);

        // The ticket ledger: every admitted ticket completed exactly once.
        let mut ledger: BTreeMap<u64, u32> = sent
            .iter()
            .filter_map(|s| s.ticket.map(|t| (t, 0)))
            .collect();
        let mut instance_of = BTreeMap::new();
        for c in completions.try_iter() {
            let ticket = match c {
                Completion::Committed { ticket, report } => {
                    instance_of.insert(ticket, report.id);
                    ticket
                }
                Completion::Shed { ticket, .. } => ticket,
            };
            *ledger.get_mut(&ticket).ok_or_else(|| {
                format!("completion for ticket {ticket}, which was never admitted")
            })? += 1;
        }
        if let Some((ticket, n)) = ledger.iter().find(|(_, &n)| n != 1) {
            return Err(format!("ticket {ticket} completed {n} times"));
        }

        let offered = schedule.len() as u64;
        let span_jobs = tr.take_job_budget(spans, sent.len());
        let mut round = rtround::fold(
            RtRound {
                set,
                result: &result,
                tick_ns: TICK_NS,
                wall_s,
                offered,
                refused: result.shed + result.rejected,
                // From the scheduled arrival, not from admission.
                latency_ns: result
                    .jobs
                    .iter()
                    .map(|j| j.commit_ns - j.release_ns)
                    .collect(),
                run_start_ns: clock_skew_ns,
                index,
                span_jobs,
            },
            tr,
        )?;
        round.hwm_mb = hwm_mb;
        round.headline = rate == HEADLINE_RATE;

        let fail_ratio = 1.0 - round.good as f64 / offered as f64;
        let mut late: Vec<f64> = sent.iter().map(|s| s.late_ns as f64 / 1e3).collect();
        let (_, late_tail) = stats::p50_and_tail(&mut late);
        if late_tail > MAX_LATENESS_US {
            round.void = Some(format!(
                "generator lateness p99 {late_tail:.0} us > {MAX_LATENESS_US} us"
            ));
        } else {
            self.by_rate.push((rate, fail_ratio, depth_last));
        }
        round.layer.push((
            match rate {
                1000 => "front.fail_ratio.r1000",
                3000 => "front.fail_ratio.r3000",
                _ => "front.fail_ratio.r2000",
            },
            fail_ratio,
        ));
        if round.headline {
            let mut call: Vec<f64> = sent.iter().map(|s| s.call_ns as f64).collect();
            let (call_p50, call_tail) = stats::p50_and_tail(&mut call);
            let (_, lat_tail) = stats::p50_and_tail(&mut round.lat_us.clone());
            round.layer.extend([
                ("front.submit_call_p50_ns", call_p50),
                ("front.submit_call_p99_ns", call_tail),
                ("front.lat_p99_us", lat_tail),
                ("front.queue_depth_max", depth_max as f64),
                (
                    "front.drain_ms",
                    (result.elapsed.as_nanos() as f64 - last_submit_ns as f64) / 1e6,
                ),
                ("front.gen_lateness_p99_us", late_tail),
            ]);
            round.layer.extend(rtround::front_layer(&result.jobs));
        }

        for s in sent.iter().take(span_jobs) {
            let id = || match s.ticket.and_then(|t| instance_of.get(&t)) {
                Some(instance) => format!("r{index}/{instance}"),
                None => format!("r{index}/refused"),
            };
            let start = clock_skew_ns + s.call_start_ns;
            tr.record(id, "submit_call", "run", start, start + s.call_ns);
        }
        Ok(round)
    }
}

impl Workload for OpenFront {
    fn setup(&mut self, ctx: &Ctx, tr: &mut Tracer) -> Result<(), Fatal> {
        self.set = tr.span("setup.generate", "setup", |_| inputs::standard_set());
        let first = tr.span("setup.schedule", "setup", |_| {
            self.schedule(ctx, HEADLINE_RATE, ROUND_TWENTIETHS, ctx.round_seed(0))
        });
        let mut h = Fnv::new();
        fingerprint::hash_set(&mut h, &self.set);
        fingerprint::hash_schedule(&mut h, &first);
        fingerprint::verify("open-front", ctx, h.finish())?;
        // A twentieth of a round, results discarded.
        let warm = self.schedule(ctx, HEADLINE_RATE, 1, ctx.seed ^ 0x77);
        let mut off = Tracer::new(Instant::now(), false);
        let measured = self.by_rate.len();
        tr.span("setup.warmup", "setup", |_| {
            self.offer(HEADLINE_RATE, &warm, 0, false, &mut off)
        })?;
        self.by_rate.truncate(measured);
        Ok(())
    }

    fn round(
        &mut self,
        ctx: &Ctx,
        index: u64,
        spans: bool,
        tr: &mut Tracer,
    ) -> Result<Round, Fatal> {
        let rate = if ctx.traced {
            TRACED_CYCLE[index as usize % TRACED_CYCLE.len()]
        } else {
            HEADLINE_RATE
        };
        let schedule = self.schedule(ctx, rate, ROUND_TWENTIETHS, ctx.round_seed(index));
        self.offer(rate, &schedule, index, spans, tr)
    }

    fn diagnostics(
        &mut self,
        _ctx: &Ctx,
        layer: &mut Vec<(&'static str, f64)>,
    ) -> Result<(), Fatal> {
        // The highest rate that keeps failures under the limit without a
        // growing backlog; 0 when none does.
        let mut best = 0;
        for rate in [1000, HEADLINE_RATE, 3000] {
            let rounds: Vec<_> = self.by_rate.iter().filter(|r| r.0 == rate).collect();
            if rounds.is_empty() {
                continue;
            }
            let fail: Vec<f64> = rounds.iter().map(|r| r.1).collect();
            let depth: Vec<f64> = rounds.iter().map(|r| r.2 as f64).collect();
            if stats::median(&fail) <= OK_FAIL_RATIO && stats::median(&depth) <= GROWING_BACKLOG {
                best = rate;
            }
        }
        layer.push(("front.max_ok_rate_per_s", best as f64));
        Ok(())
    }
}
