//! `net-rtt`: one loopback client, one request outstanding.
//!
//! A closed loop with a single caller that awaits each reply. The
//! transaction itself costs about 2 µs (one worker, no busy-work), so the
//! round trip is all edge: wire codec, the server's poll loop and its idle
//! sleep, the client's own polling sleep, completion routing. Traffic
//! crosses the host's loopback interface, never a real link.

use crate::fingerprint::{self, Fnv};
use crate::harness::{self, Ctx, Fatal, Round, Workload};
use crate::rtround::{self, RtRound};
use crate::trace::Tracer;
use crate::{inputs, stats};
use rtdb::cc::ProtocolKind;
use rtdb::net::{self, NetClient, NetConfig, Request, Response};
use rtdb::rt::{self, AdmissionPolicy, FrontConfig, RtConfig};
use rtdb::types::{InstanceId, TransactionSet};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Round trips per round and per warm-up, at full size.
const ROUND_TRIPS: u64 = 2000;
const WARM_TRIPS: u64 = 100;
/// Requests in the pipelined diagnostic, and its window.
const PIPELINED: u64 = 20_000;
const WINDOW: usize = 64;
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);
/// After the last reply, listen this long for a reply nobody asked for.
const STRAY_WAIT: Duration = Duration::from_millis(2);

pub struct NetRtt {
    set: TransactionSet,
}

/// What the client saw of one round trip, in ns on the tracer's clock.
struct Trip {
    sent_ns: u64,
    /// The `submit` call returned.
    written_ns: u64,
    /// `Accepted` arrived (0 when the server never sent one).
    accepted_ns: u64,
    /// The terminal response arrived.
    done_ns: u64,
    /// Server-reported admission→commit latency.
    server_ns: u64,
    committed: bool,
}

struct Session {
    connect_us: f64,
    /// First submit to last reply.
    window_s: f64,
    trips: Vec<Trip>,
}

fn config() -> NetConfig {
    NetConfig::new(
        FrontConfig::new(ProtocolKind::PcpDa)
            .with_rt(
                RtConfig::new(ProtocolKind::PcpDa)
                    .with_threads(1)
                    .with_tick_ns(0),
            )
            .with_capacity(64)
            .with_policy(AdmissionPolicy::Reject),
    )
}

fn submit_of(ticket: u64, id: InstanceId) -> Request {
    Request::Submit {
        ticket,
        txn: id.txn.0,
        tenant: 0,
        release_ns: 0,
        deadline_ns: None,
    }
}

/// Send `jobs` one at a time, awaiting each terminal response.
fn one_at_a_time(addr: SocketAddr, jobs: &[InstanceId], tr: &Tracer) -> Result<Session, Fatal> {
    let io = |e: std::io::Error| format!("net-rtt client: {e}");
    let t = Instant::now();
    let mut client = NetClient::connect(addr).map_err(io)?;
    let connect_us = t.elapsed().as_nanos() as f64 / 1e3;

    let mut trips = Vec::with_capacity(jobs.len());
    let window = Instant::now();
    for (ticket, &id) in jobs.iter().enumerate() {
        let ticket = ticket as u64;
        let sent_ns = tr.now_ns();
        client.submit(submit_of(ticket, id)).map_err(io)?;
        let mut trip = Trip {
            sent_ns,
            written_ns: tr.now_ns(),
            accepted_ns: 0,
            done_ns: 0,
            server_ns: 0,
            committed: false,
        };
        loop {
            let resp = client.wait_response(REPLY_TIMEOUT).map_err(io)?;
            if resp.ticket() != ticket {
                return Err(format!(
                    "ticket {} answered while only {ticket} was outstanding",
                    resp.ticket()
                ));
            }
            match resp {
                Response::Accepted { .. } => trip.accepted_ns = tr.now_ns(),
                Response::Committed { latency_ns, .. } => {
                    trip.server_ns = latency_ns;
                    trip.committed = true;
                }
                Response::Shed { .. } | Response::Rejected { .. } => {}
            }
            if resp.is_terminal() {
                trip.done_ns = tr.now_ns();
                break;
            }
        }
        trips.push(trip);
    }
    let window_s = window.elapsed().as_secs_f64();

    // Nothing is outstanding now; any further frame answers a ticket twice.
    let until = Instant::now() + STRAY_WAIT;
    while Instant::now() < until {
        if let Some(resp) = client.poll_response().map_err(io)? {
            return Err(format!("ticket {} answered twice", resp.ticket()));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(Session {
        connect_us,
        window_s,
        trips,
    })
}

/// Keep `WINDOW` requests in flight; returns requests per second.
fn pipelined(addr: SocketAddr, jobs: &[InstanceId]) -> Result<f64, Fatal> {
    let io = |e: std::io::Error| format!("net-rtt pipelined client: {e}");
    let mut client = NetClient::connect(addr).map_err(io)?;
    let mut answered = vec![false; jobs.len()];
    let (mut next, mut done) = (0usize, 0usize);
    let t = Instant::now();
    while done < jobs.len() {
        while next < jobs.len() && next - done < WINDOW {
            client
                .submit(submit_of(next as u64, jobs[next]))
                .map_err(io)?;
            next += 1;
        }
        let resp = client.wait_response(REPLY_TIMEOUT).map_err(io)?;
        if resp.is_terminal() {
            let slot = answered
                .get_mut(resp.ticket() as usize)
                .ok_or_else(|| format!("unknown ticket {} answered", resp.ticket()))?;
            if std::mem::replace(slot, true) {
                return Err(format!("ticket {} answered twice", resp.ticket()));
            }
            done += 1;
        }
    }
    Ok(jobs.len() as f64 / t.elapsed().as_secs_f64())
}

impl NetRtt {
    pub fn new() -> Self {
        NetRtt {
            set: inputs::standard_set(),
        }
    }

    fn jobs(&self, trips: u64, seed: u64) -> Vec<InstanceId> {
        rt::job_list(&self.set, trips as usize, seed)
    }

    /// Serve on an ephemeral loopback port for as long as `client` runs.
    fn serve<R>(
        &self,
        client: impl FnOnce(SocketAddr) -> Result<R, Fatal>,
    ) -> Result<(rt::RtResult, R), Fatal> {
        let (result, out) =
            net::serve(&self.set, config(), client).map_err(|e| format!("net-rtt bind: {e}"))?;
        Ok((result, out?))
    }
}

impl Workload for NetRtt {
    fn setup(&mut self, ctx: &Ctx, tr: &mut Tracer) -> Result<(), Fatal> {
        self.set = tr.span("setup.generate", "setup", |_| inputs::standard_set());
        let first = tr.span("setup.job_list", "setup", |_| {
            self.jobs(ctx.sized(ROUND_TRIPS), ctx.round_seed(0))
        });
        let mut h = Fnv::new();
        fingerprint::hash_set(&mut h, &self.set);
        fingerprint::hash_jobs(&mut h, &first);
        fingerprint::verify("net-rtt", ctx, h.finish())?;
        // Bind, connect and a short warm-up session, results discarded.
        let warm = self.jobs(ctx.sized(WARM_TRIPS), ctx.seed ^ 0x77);
        tr.span("setup.connect", "setup", |tr| {
            self.serve(|addr| one_at_a_time(addr, &warm, tr))
        })?;
        Ok(())
    }

    fn round(
        &mut self,
        ctx: &Ctx,
        index: u64,
        spans: bool,
        tr: &mut Tracer,
    ) -> Result<Round, Fatal> {
        let jobs = self.jobs(ctx.sized(ROUND_TRIPS), ctx.round_seed(index));
        let run_start_ns = tr.now_ns();
        let (result, session) = self.serve(|addr| one_at_a_time(addr, &jobs, tr))?;
        let hwm_mb = harness::peak_rss_mb();
        let run_end_ns = tr.now_ns();
        tr.record(|| "run".into(), "run", "workload", run_start_ns, run_end_ns);

        // With one request outstanding the server commits in ticket
        // order, so `result.jobs[k]` is ticket `k`.
        let failed = session.trips.iter().filter(|t| !t.committed).count() as u64;
        let rtt_ns: Vec<u64> = session
            .trips
            .iter()
            .filter(|t| t.committed)
            .map(|t| t.done_ns - t.sent_ns)
            .collect();
        let span_jobs = tr.take_job_budget(spans, jobs.len());
        let mut round = rtround::fold(
            RtRound {
                set: &self.set,
                result: &result,
                tick_ns: 0,
                wall_s: session.window_s,
                offered: jobs.len() as u64,
                refused: failed,
                latency_ns: rtt_ns.clone(),
                run_start_ns,
                index,
                span_jobs,
            },
            tr,
        )?;
        if let Some((k, _)) = result
            .jobs
            .iter()
            .zip(&jobs)
            .enumerate()
            .find(|(_, (report, job))| report.id.txn != job.txn)
        {
            return Err(format!("ticket {k} ran another template than it asked for"));
        }
        round.hwm_mb = hwm_mb;

        let us = |ns: u64| ns as f64 / 1e3;
        let committed = || session.trips.iter().filter(|t| t.committed);
        let mut rtt: Vec<f64> = rtt_ns.iter().map(|&ns| us(ns)).collect();
        let mut server: Vec<f64> = committed().map(|t| us(t.server_ns)).collect();
        let mut overhead: Vec<f64> = committed()
            .map(|t| us((t.done_ns - t.sent_ns).saturating_sub(t.server_ns)))
            .collect();
        let mut gap: Vec<f64> = committed()
            .filter(|t| t.accepted_ns != 0)
            .map(|t| us(t.done_ns - t.accepted_ns))
            .collect();
        let (overhead_p50, overhead_tail) = stats::p50_and_tail(&mut overhead);
        round.layer.extend([
            ("net.connect_us", session.connect_us),
            ("net.rtt_p50_us", stats::p50_and_tail(&mut rtt).0),
            (
                "net.server_latency_p50_us",
                stats::p50_and_tail(&mut server).0,
            ),
            ("net.wire_overhead_p50_us", overhead_p50),
            ("net.wire_overhead_p99_us", overhead_tail),
            (
                "net.accept_to_commit_p50_us",
                stats::p50_and_tail(&mut gap).0,
            ),
        ]);
        round.layer.extend(rtround::front_layer(&result.jobs));

        for (k, t) in session.trips.iter().enumerate().take(span_jobs) {
            let id = || match result.jobs.get(k) {
                Some(report) if failed == 0 => format!("r{index}/{}", report.id),
                _ => format!("r{index}/ticket{k}"),
            };
            tr.record(id, "rtt", "run", t.sent_ns, t.done_ns);
            tr.record(id, "submit_call", "rtt", t.sent_ns, t.written_ns);
        }
        Ok(round)
    }

    fn diagnostics(
        &mut self,
        ctx: &Ctx,
        layer: &mut Vec<(&'static str, f64)>,
    ) -> Result<(), Fatal> {
        let jobs = self.jobs(ctx.sized(PIPELINED), ctx.seed ^ 0x99);
        let (_, rate) = self.serve(|addr| pipelined(addr, &jobs))?;
        layer.push(("net.pipelined_req_per_s", rate));
        Ok(())
    }
}
