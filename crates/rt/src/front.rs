//! The asynchronous admission front-end: open-loop arrivals for the
//! threaded runtime.
//!
//! The closed-loop executor ([`crate::runtime`]) drains a fixed job list
//! — useful for throughput, blind to queueing collapse, because a worker
//! only admits a job when it is free to run it. This module is the open
//! front door: *submitters* enqueue [`JobRequest`]s (template, release
//! time, absolute deadline) onto a bounded admission queue without ever
//! blocking on the lock manager; the closed loop's own worker pool pops
//! that queue directly, highest base priority first — the pop assigns the
//! instance id — and reports completions back over each submitter's own
//! completion channel. A
//! request is either running or in the admission queue, so when the
//! queue fills the configured [`AdmissionPolicy`] sees every request
//! that could still lose. The queue's push is also the one place a
//! submission is answered and counted: it returns the [`SubmitOutcome`]
//! [`Submitter::submit`] hands back and tallies a shed or a reject in the
//! tenant's [`crate::TenantStats`] row; only a tenant id above
//! [`MAX_TENANT`] bounces before it, uncounted.
//!
//! Time is ns since the front-end started, on the run's one [`Clock`].
//! A job's life is stamped at four points — release (intended,
//! submitter-supplied), admission (entering the queue), start (a worker
//! picks it up) and commit — which split end-to-end latency into
//! *queueing delay* (admission → start) and *service latency* (start →
//! commit), and make the deadline verdict (`commit > deadline`?) a pure
//! observation. The resulting [`RtResult`] carries per-priority
//! deadline-miss ratios directly comparable with the simulator's miss
//! metrics.
//!
//! The whole front-end is scoped: [`run_front`] spawns the workers,
//! hands the caller a [`FrontHandle`] to create submitters
//! from, and shuts down with *drain* semantics when the driver closure
//! returns — everything already admitted still executes, everything
//! submitted afterwards bounces.

use crate::admission::{AdmissionPolicy, AdmissionQueue, Admitted};
use crate::clock::{Clock, WallClock};
use crate::runtime::{run_pool, JobReport, JobSource, RtConfig, RtResult};
use rtdb_core::ProtocolKind;
use rtdb_types::{TransactionSet, TxnId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};

/// One transaction request, as a submitter hands it to the front door.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobRequest {
    /// The template to instantiate (sequence numbers are assigned in
    /// admission order, as a worker pops the request).
    pub txn: TxnId,
    /// Intended release time, ns since the front-end started. Informational
    /// for the runtime — the submitter is responsible for not submitting
    /// before the release (open-loop generators sleep until it).
    pub release_ns: u64,
    /// Absolute deadline, on the same clock; `None` = no deadline tracking.
    pub deadline_ns: Option<u64>,
    /// The tenant its shed and reject counts go to
    /// ([`RtResult::tenants`]). Tenant ids are small dense integers, at
    /// most [`MAX_TENANT`]; `0` is the default tenant.
    pub tenant: u32,
}

/// Largest tenant id [`Submitter::submit`] accepts. Tenant ids index the
/// admission queue's dense per-tenant counters, so a huge id would be an
/// allocation amplifier; submissions above the cap are rejected before
/// they are counted.
pub const MAX_TENANT: u32 = 4095;

impl JobRequest {
    /// A request with release `0`, no deadline, tenant `0`.
    pub fn new(txn: TxnId) -> Self {
        JobRequest {
            txn,
            release_ns: 0,
            deadline_ns: None,
            tenant: 0,
        }
    }

    /// Set the intended release time.
    pub fn released_at(mut self, release_ns: u64) -> Self {
        self.release_ns = release_ns;
        self
    }

    /// Set the absolute deadline.
    pub fn with_deadline(mut self, deadline_ns: u64) -> Self {
        self.deadline_ns = Some(deadline_ns);
        self
    }

    /// Bill this request to `tenant`.
    pub fn for_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// The paper's periodic-transaction convention: deadline = release +
    /// period, with the template's period (in ticks) scaled to wall-clock
    /// nanoseconds by `ns_per_tick` — use the same scale as
    /// [`RtConfig::tick_ns`] so deadlines and simulated computation agree.
    /// A zero scale yields `deadline == release`, i.e. every job misses;
    /// callers that want no tracking should use [`JobRequest::new`].
    pub fn periodic(set: &TransactionSet, txn: TxnId, release_ns: u64, ns_per_tick: u64) -> Self {
        let period = set.template(txn).period.raw();
        JobRequest {
            txn,
            release_ns,
            deadline_ns: Some(release_ns.saturating_add(period.saturating_mul(ns_per_tick))),
            tenant: 0,
        }
    }
}

/// Configuration of one [`run_front`].
#[derive(Clone, Copy, Debug)]
pub struct FrontConfig {
    /// The worker-pool configuration (protocol, threads, tick scale,
    /// park timeout).
    pub rt: RtConfig,
    /// Admission-queue bound (clamped to at least 1).
    pub capacity: usize,
    /// What happens to new requests when the queue is full.
    pub policy: AdmissionPolicy,
}

impl FrontConfig {
    /// Defaults: [`RtConfig::new`], capacity 1024, [`AdmissionPolicy::Reject`].
    pub fn new(kind: ProtocolKind) -> Self {
        FrontConfig {
            rt: RtConfig::new(kind),
            capacity: 1024,
            policy: AdmissionPolicy::Reject,
        }
    }

    /// Replace the worker-pool configuration.
    pub fn with_rt(mut self, rt: RtConfig) -> Self {
        self.rt = rt;
        self
    }

    /// Set the admission-queue bound.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Set the admission policy.
    pub fn with_policy(mut self, policy: AdmissionPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// What [`Submitter::submit`] told the submitter, synchronously.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Admitted; a [`Completion`] carrying this ticket will arrive on the
    /// submitter's channel (unless the job is later shed).
    Admitted {
        /// The submission ticket.
        ticket: u64,
    },
    /// Bounced: a full queue under [`AdmissionPolicy::Reject`], a
    /// [`JobRequest::txn`] that is not a template of the set, or a
    /// [`JobRequest::tenant`] above [`MAX_TENANT`] (the one bounce not
    /// counted in [`RtResult::rejected`]).
    Rejected,
    /// Shed synchronously under [`AdmissionPolicy::LeastSlack`]: the
    /// incoming request itself had the least remaining slack, so it never
    /// entered the queue and no [`Completion`] will arrive for it.
    Shed {
        /// The submission ticket (burned; counted in [`RtResult::shed`]).
        ticket: u64,
    },
    /// Bounced because the front-end has shut down.
    Closed,
}

/// What arrives on a submitter's completion channel.
#[derive(Debug)]
pub enum Completion {
    /// The job committed; the full per-job report.
    Committed {
        /// Ticket of the originating [`Submitter::submit`] call.
        ticket: u64,
        /// The same report that appears in [`RtResult::jobs`].
        report: JobReport,
    },
    /// The job was shed from the admission queue to make room
    /// ([`AdmissionPolicy::LeastSlack`]); it never ran.
    Shed {
        /// Ticket of the originating [`Submitter::submit`] call.
        ticket: u64,
        /// The template that was requested.
        txn: TxnId,
    },
}

/// Shared front-end state the handle and submitters reference.
struct FrontShared<C> {
    policy: AdmissionPolicy,
    /// Also the run's clock and its tenant ledger.
    queue: AdmissionQueue<C>,
    tickets: AtomicU64,
}

/// The caller's view of a running front-end (see [`run_front`]).
/// `Copy`, `Send` and `Sync`: drivers may fan it out across their own
/// scoped submitter threads.
#[derive(Clone, Copy)]
pub struct FrontHandle<'e, C = WallClock> {
    shared: &'e FrontShared<C>,
}

impl<'e, C: Clock> FrontHandle<'e, C> {
    /// Nanoseconds since the front-end started — the clock `release_ns`
    /// and `deadline_ns` are measured on.
    pub fn elapsed_ns(&self) -> u64 {
        self.shared.queue.clock.now_ns()
    }

    /// Requests currently waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Create a submitter with its own completion channel.
    pub fn submitter(&self) -> (Submitter<'e, C>, Receiver<Completion>) {
        let (done, rx) = channel();
        (
            Submitter {
                shared: self.shared,
                done,
            },
            rx,
        )
    }
}

/// One producer of [`JobRequest`]s. Completions for everything this
/// submitter admitted arrive on the [`Receiver`] returned alongside it.
pub struct Submitter<'e, C = WallClock> {
    shared: &'e FrontShared<C>,
    done: Sender<Completion>,
}

impl<C: Clock> Submitter<'_, C> {
    /// Submit one request. Never blocks: a full queue sheds or bounces
    /// under the front's [`AdmissionPolicy`], and the lock manager is
    /// never touched.
    pub fn submit(&self, req: JobRequest) -> SubmitOutcome {
        // An absurd tenant id is the caller's bug, not an overload signal:
        // bounce it before the tenant ledger grows a row for it.
        if req.tenant > MAX_TENANT {
            return SubmitOutcome::Rejected;
        }
        let item = Admitted {
            req,
            ticket: self.shared.tickets.fetch_add(1, Ordering::Relaxed),
            admitted_ns: 0,
            done: self.done.clone(),
        };
        self.shared.queue.push(item, self.shared.policy)
    }

    /// Nanoseconds since the front-end started.
    pub fn elapsed_ns(&self) -> u64 {
        self.shared.queue.clock.now_ns()
    }
}

/// Run an admission front-end: spawn `config.rt.threads` workers on the
/// admission queue, call `driver` with a [`FrontHandle`] on the current
/// thread, and shut down with drain semantics when it returns (admitted
/// jobs still execute; later submissions observe [`SubmitOutcome::Closed`]).
/// Returns the run's [`RtResult`] — commit-ordered job reports with
/// queueing/service split and deadline verdicts, shed/reject counts, the
/// full history and database — together with the driver's return value.
pub fn run_front<R>(
    set: &TransactionSet,
    config: FrontConfig,
    driver: impl FnOnce(FrontHandle<'_>) -> R,
) -> (RtResult, R) {
    run_front_on(set, config, WallClock::now(), driver)
}

/// [`run_front`] on `clock`, e.g. a [`crate::testkit::TestClock`].
pub fn run_front_on<C: Clock, R>(
    set: &TransactionSet,
    config: FrontConfig,
    clock: C,
    driver: impl FnOnce(FrontHandle<'_, C>) -> R,
) -> (RtResult, R) {
    let shared = FrontShared {
        policy: config.policy,
        queue: AdmissionQueue::new(
            config.capacity,
            &(0..set.len())
                .map(|i| set.priority_of(TxnId(i as u32)))
                .collect::<Vec<_>>(),
            clock,
        ),
        tickets: AtomicU64::new(0),
    };
    let source = JobSource::Queue(&shared.queue);
    let driver = || driver(FrontHandle { shared: &shared });
    run_pool(set, &config.rt, &source, &shared.queue.clock, driver)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::TestClock;
    use rtdb_types::{SetBuilder, Step, TransactionTemplate};

    fn small_set() -> TransactionSet {
        SetBuilder::new()
            .with(TransactionTemplate::new(
                "hi",
                10,
                vec![Step::read(rtdb_types::ItemId(0), 1), Step::compute(1)],
            ))
            .with(TransactionTemplate::new(
                "lo",
                100,
                vec![Step::write(rtdb_types::ItemId(0), 1), Step::compute(1)],
            ))
            .build()
            .expect("set")
    }

    #[test]
    fn submitted_jobs_run_and_complete() {
        let set = small_set();
        let config = FrontConfig::new(ProtocolKind::PcpDa);
        let (result, tickets) = run_front(&set, config, |front| {
            let (sub, rx) = front.submitter();
            let mut tickets = Vec::new();
            for i in 0..6u32 {
                match sub.submit(JobRequest::new(TxnId(i % 2))) {
                    SubmitOutcome::Admitted { ticket } => tickets.push(ticket),
                    other => panic!("unexpected outcome {other:?}"),
                }
            }
            // Completions for all six arrive even before shutdown.
            let mut done = Vec::new();
            for _ in 0..6 {
                match rx.recv().expect("completion") {
                    Completion::Committed { ticket, report } => {
                        assert_eq!(report.queue_ns + report.service_ns, report.latency_ns);
                        done.push(ticket);
                    }
                    Completion::Shed { .. } => panic!("nothing sheds below capacity"),
                }
            }
            done.sort_unstable();
            (tickets, done)
        });
        let (submitted, completed) = tickets;
        assert_eq!(submitted, completed);
        assert_eq!(result.committed, 6);
        assert_eq!(result.shed, 0);
        assert_eq!(result.rejected, 0);
        assert_eq!(result.jobs.len(), 6);
        // No deadlines were set, so nothing can miss.
        assert_eq!(result.deadline_misses(), 0);
    }

    #[test]
    fn submissions_after_shutdown_bounce() {
        let set = small_set();
        let (result, outcome) = run_front(&set, FrontConfig::new(ProtocolKind::TwoPlHp), |front| {
            let (sub, _rx) = front.submitter();
            sub.submit(JobRequest::new(TxnId(0)));
            front.shared.queue.close();
            sub.submit(JobRequest::new(TxnId(0)))
        });
        assert_eq!(outcome, SubmitOutcome::Closed);
        assert_eq!(result.committed, 1);
        assert_eq!(result.rejected, 1);
    }

    #[test]
    fn a_queued_shed_notifies_its_submitter() {
        let set = small_set();
        // Capacity 1 on a 1-thread pool whose first job holds the worker
        // on the paused clock: the next submission takes the one queue
        // slot, and each one after it sheds the queued request — no
        // deadlines, so every slack ties, and ties shed the queued one.
        let config = FrontConfig::new(ProtocolKind::PcpDa)
            .with_capacity(1)
            .with_policy(AdmissionPolicy::LeastSlack)
            .with_rt(
                RtConfig::new(ProtocolKind::PcpDa)
                    .with_threads(1)
                    .with_tick_ns(2_000_000),
            );
        let clock = TestClock::default();
        let (result, sheds) = run_front_on(&set, config, clock.clone(), |front| {
            let paused = clock.pause();
            let (sub, rx) = front.submitter();
            sub.submit(JobRequest::new(TxnId(1)));
            while front.queue_depth() > 0 {
                std::thread::yield_now();
            }
            for _ in 1..8 {
                sub.submit(JobRequest::new(TxnId(1)));
            }
            drop((sub, paused));
            let mut sheds = 0u64;
            while let Ok(c) = rx.recv() {
                if let Completion::Shed { txn, .. } = c {
                    assert_eq!(txn, TxnId(1));
                    sheds += 1;
                }
            }
            sheds
        });
        assert_eq!(result.shed, sheds);
        assert_eq!(result.committed + result.shed, 8);
        assert_eq!(
            result.shed, 6,
            "the held job and the last queued one commit"
        );
    }
}
