//! Open-loop load generation *through the TCP edge*: the same schedules
//! as [`crate::loadgen`], submitted by real socket clients against
//! [`rtdb::net::serve`] on loopback instead of the in-process submitter.
//!
//! One [`NetClient`] per tenant pipelines submissions paced to the
//! arrival schedule, draining responses opportunistically between
//! arrivals so neither side's buffers grow with the run length. After
//! the last arrival the driver waits for every submission's terminal
//! response (committed / shed / rejected) — within a generous timeout —
//! so the run's [`rtdb::rt::RtResult`] accounting is complete before the
//! server shuts down.

use crate::loadgen::{
    arrival_schedule, finish_report, front_config, OpenLoopParams, OpenLoopReport,
};
use rtdb::net::{serve, NetClient, NetConfig, Request, Response};
use rtdb::prelude::*;
use std::time::{Duration, Instant};

/// How long the driver waits for stragglers' terminal responses after
/// the last submission before giving up (the server still drains and
/// counts them; only the client-side tally stops).
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Count one response into the per-client tallies; returns whether it
/// was terminal.
fn tally(resp: &Response, accepted: &mut u64, terminal: &mut u64) {
    if resp.is_terminal() {
        *terminal += 1;
    } else {
        *accepted += 1;
    }
}

/// Execute one open-loop run through the loopback TCP edge. Mirrors
/// [`crate::loadgen::run_open_loop`] — same schedule, same deadline
/// convention (`release + period·tick`), same report shape — with the
/// submitter replaced by per-tenant socket clients.
pub fn run_net_open_loop(
    set: &TransactionSet,
    p: &OpenLoopParams,
) -> std::io::Result<OpenLoopReport> {
    let schedule = arrival_schedule(set, p);
    let net = NetConfig::new(front_config(p));
    let (result, admitted) = serve(set, net, |addr| -> std::io::Result<u64> {
        let tenants = p.tenants();
        let mut clients: Vec<NetClient> = (0..tenants)
            .map(|_| NetClient::connect(addr))
            .collect::<std::io::Result<_>>()?;
        let mut accepted = vec![0u64; tenants];
        let mut terminal = vec![0u64; tenants];
        let mut submitted = vec![0u64; tenants];
        let t0 = Instant::now();
        for (i, a) in schedule.iter().enumerate() {
            // Pace to the schedule on the driver's own clock (the
            // server's epoch starts a few connection-setup microseconds
            // earlier; deadline margins absorb that skew).
            let now = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            if a.at_ns > now {
                let wait = a.at_ns - now;
                if wait > 200_000 {
                    std::thread::sleep(Duration::from_nanos(wait - 100_000));
                }
                while (t0.elapsed().as_nanos() as u64) < a.at_ns {
                    std::hint::spin_loop();
                }
            }
            let tenant = a.tenant as usize;
            let period = set.template(a.txn).period.raw();
            let horizon = period
                .saturating_mul(p.tick_ns)
                .saturating_mul(p.deadline_scale.max(1));
            clients[tenant].submit(Request::Submit {
                ticket: i as u64,
                txn: a.txn.0,
                tenant: a.tenant,
                release_ns: a.at_ns,
                deadline_ns: Some(a.at_ns.saturating_add(horizon)),
            })?;
            submitted[tenant] += 1;
            // Opportunistic drain keeps response buffers flat.
            while let Some(resp) = clients[tenant].poll_response()? {
                tally(&resp, &mut accepted[tenant], &mut terminal[tenant]);
            }
        }
        // Wait for every submission's terminal response.
        let drain_deadline = Instant::now() + DRAIN_TIMEOUT;
        while terminal.iter().zip(&submitted).any(|(t, s)| t < s) && Instant::now() < drain_deadline
        {
            let mut progressed = false;
            for (c, client) in clients.iter_mut().enumerate() {
                while let Some(resp) = client.poll_response()? {
                    tally(&resp, &mut accepted[c], &mut terminal[c]);
                    progressed = true;
                }
            }
            if !progressed {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        Ok(accepted.iter().sum())
    })?;
    let admitted = admitted?;
    Ok(finish_report(p, &schedule, admitted, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{run_open_loop, service_capacity};
    use rtdb::rt;

    /// The networked run conserves offered load exactly like the
    /// in-process run, per tenant, under least-slack overload.
    #[test]
    fn net_open_loop_conserves_offered_load_per_tenant() {
        let set = crate::standard_workload(7);
        let p = OpenLoopParams {
            kind: ProtocolKind::PcpDa,
            threads: 2,
            tick_ns: 2_000,
            jobs: 80,
            arrival_rate: 4.0 * service_capacity(&set, 2, 2_000),
            policy: rt::AdmissionPolicy::LeastSlack,
            capacity: 4,
            snapshot: false,
            shards: 1,
            tenant_weights: vec![1, 4],
            fairness: Some(rt::FairnessConfig::fair_share(2, 2)),
            deadline_scale: 1,
            seed: 11,
        };
        let r = run_net_open_loop(&set, &p).expect("net run");
        assert_eq!(r.offered, p.jobs as u64);
        assert_eq!(r.offered_by_tenant.iter().sum::<u64>(), r.offered);
        assert_eq!(
            r.result.committed + r.result.shed + r.result.rejected,
            r.offered,
            "jobs leaked through the socket"
        );
        for row in &r.result.tenants {
            assert_eq!(
                row.offered(),
                r.offered_by_tenant[row.tenant as usize],
                "tenant {} accounting diverged",
                row.tenant
            );
        }
        // The same params through the in-process path agree on offered
        // load split (the schedules are identical by construction).
        let in_proc = run_open_loop(&set, &p);
        assert_eq!(in_proc.offered_by_tenant, r.offered_by_tenant);
    }
}
