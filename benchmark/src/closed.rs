//! The closed-loop workloads: `rt::run` over a seeded job list.
//!
//! A closed loop sends a worker's next job only when its previous one has
//! committed, so a slower system receives less load; the number that means
//! something is work completed per second at a stated input size. The
//! three `closed-*` workloads run 2 workers with 2 µs of busy-work per
//! tick and differ only in the protocol; `lockbound-1w` runs 1 worker with
//! no busy-work at all.

use crate::fingerprint::{self, Fnv};
use crate::harness::{self, Ctx, Fatal, Round, Workload};
use crate::inputs;
use crate::rtround::{self, RtRound};
use crate::trace::Tracer;
use rtdb::cc::ProtocolKind;
use rtdb::rt::{self, RtConfig};
use rtdb::types::{InstanceId, TransactionSet};
use std::time::Instant;

pub struct Closed {
    name: &'static str,
    config: RtConfig,
    /// Jobs per round and per warm-up run, at full size.
    round_jobs: u64,
    warm_jobs: u64,
    set: TransactionSet,
}

impl Closed {
    /// `closed-pcpda`, `closed-rwpcp`, `closed-2plhp`: 2 workers, 2 µs per
    /// tick, 6k jobs a round (about a quarter of a second).
    pub fn contended(name: &'static str, kind: ProtocolKind) -> Self {
        Closed {
            name,
            config: RtConfig::new(kind).with_threads(2).with_tick_ns(2000),
            round_jobs: 6_000,
            warm_jobs: 1_000,
            set: inputs::standard_set(),
        }
    }

    /// `lockbound-1w`: 1 worker, no busy-work, 20k jobs a round.
    pub fn lockbound() -> Self {
        Closed {
            name: "lockbound-1w",
            config: RtConfig::new(ProtocolKind::PcpDa)
                .with_threads(1)
                .with_tick_ns(0),
            round_jobs: 20_000,
            warm_jobs: 40_000,
            set: inputs::standard_set(),
        }
    }

    fn jobs(&self, ctx: &Ctx, index: u64) -> Vec<InstanceId> {
        rt::job_list(
            &self.set,
            ctx.sized(self.round_jobs) as usize,
            ctx.round_seed(index),
        )
    }
}

/// `committed` is exactly the job list: nothing lost, nothing invented.
fn same_jobs(offered: &[InstanceId], committed: &[rt::JobReport]) -> Result<(), Fatal> {
    let mut want = offered.to_vec();
    let mut got: Vec<InstanceId> = committed.iter().map(|j| j.id).collect();
    want.sort_unstable();
    got.sort_unstable();
    if want == got {
        Ok(())
    } else {
        Err("conservation breach: the committed instances are not the job list".into())
    }
}

impl Workload for Closed {
    fn ballast(&self) -> bool {
        self.config.threads == 1
    }

    fn setup(&mut self, ctx: &Ctx, tr: &mut Tracer) -> Result<(), Fatal> {
        self.set = tr.span("setup.generate", "setup", |_| inputs::standard_set());
        let first = tr.span("setup.job_list", "setup", |_| self.jobs(ctx, 0));
        let mut h = Fnv::new();
        fingerprint::hash_set(&mut h, &self.set);
        fingerprint::hash_jobs(&mut h, &first);
        fingerprint::verify(self.name, ctx, h.finish())?;
        tr.span("setup.warmup", "setup", |_| {
            let warm = rt::job_list(
                &self.set,
                ctx.sized(self.warm_jobs) as usize,
                ctx.seed ^ 0x77,
            );
            let result = rt::run(&self.set, &warm, self.config);
            same_jobs(&warm, &result.jobs)
        })
    }

    fn round(
        &mut self,
        ctx: &Ctx,
        index: u64,
        spans: bool,
        tr: &mut Tracer,
    ) -> Result<Round, Fatal> {
        let t = Instant::now();
        let jobs = self.jobs(ctx, index);
        let job_list_us = t.elapsed().as_nanos() as f64 / 1e3;

        let run_start_ns = tr.now_ns();
        let t = Instant::now();
        let result = rt::run(&self.set, &jobs, self.config);
        let wall_s = t.elapsed().as_secs_f64();
        let hwm_mb = harness::peak_rss_mb();
        let run_end_ns = tr.now_ns();
        tr.record(|| "run".into(), "run", "workload", run_start_ns, run_end_ns);

        same_jobs(&jobs, &result.jobs)?;
        let mut round = rtround::fold(
            RtRound {
                set: &self.set,
                result: &result,
                tick_ns: self.config.tick_ns,
                wall_s,
                offered: jobs.len() as u64,
                refused: 0,
                latency_ns: result.jobs.iter().map(|j| j.latency_ns).collect(),
                run_start_ns,
                index,
                span_jobs: tr.take_job_budget(spans, jobs.len()),
            },
            tr,
        )?;
        round.hwm_mb = hwm_mb;
        round.layer.push(("rt.job_list_us", job_list_us));
        Ok(round)
    }

    fn diagnostics(
        &mut self,
        ctx: &Ctx,
        layer: &mut Vec<(&'static str, f64)>,
    ) -> Result<(), Fatal> {
        if self.config.threads != 1 {
            return Ok(());
        }
        // Two workers with no busy-work fight over the state lock; the
        // result is bimodal on two cores, so it is a diagnostic only.
        let jobs = self.jobs(ctx, u64::MAX);
        let t = Instant::now();
        let result = rt::run(&self.set, &jobs, self.config.with_threads(2));
        let wall_s = t.elapsed().as_secs_f64();
        same_jobs(&jobs, &result.jobs)?;
        layer.push(("rt.lockbound_2w_goodput_per_s", jobs.len() as f64 / wall_s));
        Ok(())
    }
}
