//! The bounded admission queue, its overload policies, and the
//! per-tenant fairness budgets.
//!
//! Submitters enqueue [`crate::JobRequest`]s here without ever touching
//! the lock manager; the workers pop it directly, so a request is either
//! running or in this queue — the *only* place the open-loop front door
//! pushes back on offered load, and what it does when full is the
//! [`AdmissionPolicy`]:
//!
//! * [`AdmissionPolicy::Reject`] — bounce the new request back to its
//!   submitter (classic open-loop drop-tail; offered load above
//!   saturation shows up as a rising reject count);
//! * [`AdmissionPolicy::LeastSlack`] — the deadline-aware policy: among
//!   the queued requests *and* the incoming one, shed whichever has the
//!   least remaining slack to its deadline — it is the job the system
//!   would miss anyway, so shedding it converts a certain deadline miss
//!   into freed capacity for a job that can still make it. Requests
//!   without a deadline have infinite slack and are shed last. A queued
//!   victim's submitter is told via [`crate::Completion::Shed`]; when
//!   the incoming request itself has the least slack it is bounced
//!   synchronously ([`crate::SubmitOutcome::Shed`]) without entering the
//!   queue;
//! * [`AdmissionPolicy::Block`] — park the submitter until space frees
//!   up (turns the open loop into a closed loop at the bound — useful
//!   for replay and backpressure experiments, but it hides queueing
//!   collapse, which is exactly why it is not the load generator's
//!   default).
//!
//! **Fairness budgets.** Layered on top of the shed policy, an optional
//! per-tenant token bucket ([`FairnessConfig`]) keeps a high-rate tenant
//! from starving a low-rate one: every admitted request *charges* its
//! tenant an estimated service cost (the template's WCET scaled by the
//! run's tick), the bucket refills at a configured rate (typically each
//! tenant's fair share of the worker pool's service capacity), and when
//! a shed decision must pick a victim, tenants that are over budget lose
//! first — the victim is the least-slack request *among the over-budget
//! tenants' requests* whenever any exist, and the globally least-slack
//! request otherwise (see [`shed_victim`]). Shed requests refund their
//! charge, so a tenant is only ever billed for work that stayed
//! admitted. With fairness off (the default), every request is in the
//! same class and the policy is pure least-slack.
//!
//! Admission timestamps are taken *inside* the queue's critical section
//! at the moment the entry actually enters the queue, so queueing delay
//! (admission → worker start) is well defined even when a `Block`ed
//! submitter waited first.

use crate::front::{Completion, JobRequest};
use crate::runtime::dur_ns;
use rtdb_types::InstanceId;
use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// What the admission queue does with a new request when it is full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Bounce the new request back to the submitter.
    Reject,
    /// Shed the request (queued or incoming) with the least remaining
    /// slack to its deadline — the one the system would miss anyway.
    LeastSlack,
    /// Park the submitter until the queue has space.
    #[default]
    Block,
}

impl AdmissionPolicy {
    /// Every policy, in the order the documentation lists them.
    pub const ALL: [AdmissionPolicy; 3] = [
        AdmissionPolicy::Reject,
        AdmissionPolicy::LeastSlack,
        AdmissionPolicy::Block,
    ];

    /// Short stable name, as printed by `Display` and parsed by
    /// `FromStr`.
    pub fn name(self) -> &'static str {
        match self {
            AdmissionPolicy::Reject => "reject",
            AdmissionPolicy::LeastSlack => "least-slack",
            AdmissionPolicy::Block => "block",
        }
    }
}

impl std::fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for AdmissionPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "reject" => Ok(AdmissionPolicy::Reject),
            "least-slack" | "slack" => Ok(AdmissionPolicy::LeastSlack),
            "block" => Ok(AdmissionPolicy::Block),
            other => {
                // Match the ProtocolKind convention: the error lists
                // every valid name.
                let valid: Vec<&str> = AdmissionPolicy::ALL.iter().map(|p| p.name()).collect();
                Err(format!(
                    "unknown admission policy `{other}` (valid: {})",
                    valid.join(", ")
                ))
            }
        }
    }
}

/// Per-tenant admission fairness: a token bucket of *estimated service
/// nanoseconds* per tenant. See the module docs for how shed decisions
/// consult it; [`FairnessConfig::fair_share`] is the standard
/// construction (each tenant gets an equal share of the worker pool).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FairnessConfig {
    /// Budget a tenant accrues per wall-clock second, in estimated
    /// service nanoseconds.
    pub refill_per_sec: u64,
    /// Bucket capacity — the largest burst a tenant can spend at once.
    /// Also the debt floor: a tenant can owe at most one burst, so
    /// recovery after a backlog takes at most `burst_ns / refill_per_sec`
    /// seconds of silence.
    pub burst_ns: u64,
}

impl FairnessConfig {
    /// The standard construction: `threads` workers each serve ~1 s of
    /// work per second, split equally across `tenants` tenants, with a
    /// quarter-share burst allowance.
    pub fn fair_share(threads: usize, tenants: usize) -> Self {
        let refill = (threads.max(1) as u64).saturating_mul(1_000_000_000) / tenants.max(1) as u64;
        FairnessConfig {
            refill_per_sec: refill,
            burst_ns: (refill / 4).max(1),
        }
    }

    /// Budget an equal share of a *measured* capacity: `capacity`
    /// jobs/sec sustainably served, each costing `mean_cost_ns`
    /// estimated service nanoseconds. Prefer this over [`fair_share`]
    /// when contention puts the real ceiling well below the raw thread
    /// budget — a budget no tenant can exhaust enforces nothing.
    ///
    /// [`fair_share`]: FairnessConfig::fair_share
    pub fn for_capacity(capacity: f64, mean_cost_ns: f64, tenants: usize) -> Self {
        let refill = (capacity.max(0.0) * mean_cost_ns.max(0.0) / tenants.max(1) as f64) as u64;
        FairnessConfig {
            refill_per_sec: refill.max(1),
            burst_ns: (refill / 4).max(1),
        }
    }
}

/// One shed candidate as [`shed_victim`] sees it: its remaining slack to
/// deadline (negative = already past) and whether its tenant has
/// exhausted its fairness budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShedCandidate {
    /// `deadline - now` in nanoseconds; [`i64::MAX`] for requests
    /// without a deadline.
    pub slack_ns: i64,
    /// True when the candidate's tenant is over its fairness budget.
    /// Always false when fairness accounting is off.
    pub over_budget: bool,
}

/// The shed-victim rule of [`AdmissionPolicy::LeastSlack`], exposed as a
/// pure function so its invariants are directly testable:
///
/// * if any candidate's tenant is over budget, the victim is the
///   least-slack candidate *among the over-budget tenants* (fairness
///   outranks slack across tenants, slack breaks ties within the class);
/// * otherwise the victim is the least-slack candidate overall — so with
///   fairness off (or every tenant in budget), **no candidate with
///   positive slack is ever shed while a negative-slack candidate
///   exists**;
/// * ties go to the earliest index (the oldest queued request; callers
///   put the incoming request last, so queued requests shed first on
///   ties).
///
/// # Panics
/// Panics on an empty candidate list — a full queue always has at least
/// the incoming request as a candidate.
pub fn shed_victim(candidates: &[ShedCandidate]) -> usize {
    let any_over = candidates.iter().any(|c| c.over_budget);
    candidates
        .iter()
        .enumerate()
        .filter(|(_, c)| !any_over || c.over_budget)
        .min_by_key(|(i, c)| (c.slack_ns, *i))
        .map(|(i, _)| i)
        .expect("shed_victim called with no candidates")
}

/// `deadline - now`, clamped into `i64`; requests without a deadline
/// have infinite slack.
fn slack_ns(deadline_ns: Option<u64>, now_ns: u64) -> i64 {
    match deadline_ns {
        None => i64::MAX,
        Some(d) => {
            (d.min(i64::MAX as u64) as i64).saturating_sub(now_ns.min(i64::MAX as u64) as i64)
        }
    }
}

/// Per-tenant shed/reject counters, drained into
/// [`crate::runtime::TenantStats`] when the front-end finishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TenantCounts {
    pub tenant: u32,
    pub shed: u64,
    pub rejected: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct LedgerEntry {
    seen: bool,
    balance_ns: i64,
    last_ns: u64,
    shed: u64,
    rejected: u64,
}

/// The per-tenant accounting state: token-bucket balances plus
/// shed/reject counters (and per-template shed counts for the
/// per-priority shed telemetry). Lives inside the queue's critical
/// section, so every read and update is atomic with the admission
/// decision it informs.
struct TenantLedger {
    fairness: Option<FairnessConfig>,
    entries: Vec<LedgerEntry>,
    shed_by_txn: Vec<u64>,
}

impl TenantLedger {
    fn new(fairness: Option<FairnessConfig>, templates: usize) -> Self {
        TenantLedger {
            fairness,
            entries: Vec::new(),
            shed_by_txn: vec![0; templates],
        }
    }

    fn entry(&mut self, tenant: u32) -> &mut LedgerEntry {
        let idx = tenant as usize;
        if idx >= self.entries.len() {
            self.entries.resize(idx + 1, LedgerEntry::default());
        }
        &mut self.entries[idx]
    }

    /// Bring `tenant`'s bucket up to `now`: first sight starts a full
    /// bucket, later refreshes accrue `refill_per_sec` pro rata, capped
    /// at the burst.
    fn refresh(&mut self, tenant: u32, now_ns: u64) {
        let Some(f) = self.fairness else { return };
        let e = self.entry(tenant);
        if !e.seen {
            e.seen = true;
            e.balance_ns = f.burst_ns as i64;
            e.last_ns = now_ns;
            return;
        }
        let dt = now_ns.saturating_sub(e.last_ns);
        let refill = (dt as u128 * f.refill_per_sec as u128 / 1_000_000_000) as i64;
        e.balance_ns = (e.balance_ns.saturating_add(refill)).min(f.burst_ns as i64);
        e.last_ns = now_ns;
    }

    /// Charge an admitted request's estimated cost, clamped at the debt
    /// floor (one burst of debt).
    fn charge(&mut self, tenant: u32, cost_ns: u64, now_ns: u64) {
        let Some(f) = self.fairness else { return };
        self.refresh(tenant, now_ns);
        let floor = -(f.burst_ns as i64);
        let e = self.entry(tenant);
        e.balance_ns = e
            .balance_ns
            .saturating_sub(cost_ns.min(i64::MAX as u64) as i64)
            .max(floor);
    }

    /// Refund a shed request's charge — a tenant is only billed for work
    /// that stayed admitted.
    fn refund(&mut self, tenant: u32, cost_ns: u64, now_ns: u64) {
        let Some(f) = self.fairness else { return };
        self.refresh(tenant, now_ns);
        let e = self.entry(tenant);
        e.balance_ns = e
            .balance_ns
            .saturating_add(cost_ns.min(i64::MAX as u64) as i64)
            .min(f.burst_ns as i64);
    }

    fn in_debt(&mut self, tenant: u32) -> bool {
        self.fairness.is_some() && self.entry(tenant).balance_ns < 0
    }

    fn record_shed(&mut self, tenant: u32, txn: rtdb_types::TxnId) {
        self.entry(tenant).shed += 1;
        if let Some(slot) = self.shed_by_txn.get_mut(txn.index()) {
            *slot += 1;
        }
    }

    fn record_rejected(&mut self, tenant: u32) {
        self.entry(tenant).rejected += 1;
    }

    fn counters(&self) -> (Vec<TenantCounts>, Vec<u64>) {
        let counts = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.shed > 0 || e.rejected > 0)
            .map(|(tenant, e)| TenantCounts {
                tenant: tenant as u32,
                shed: e.shed,
                rejected: e.rejected,
            })
            .collect();
        (counts, self.shed_by_txn.clone())
    }
}

/// One admitted request, as it travels queue → worker.
pub(crate) struct Admitted {
    pub req: JobRequest,
    /// Submission ticket, for correlating completions.
    pub ticket: u64,
    /// Stamped inside the queue at the moment of admission.
    pub admitted_at: Instant,
    /// Estimated service cost (template WCET × tick), charged to the
    /// tenant's fairness bucket on admission and refunded on shed.
    pub cost_ns: u64,
    /// The submitter's completion channel.
    pub done: Sender<Completion>,
}

/// Outcome of [`AdmissionQueue::push`].
pub(crate) enum Push {
    /// Entered the queue.
    Admitted,
    /// Entered the queue; the returned entry was shed to make room
    /// ([`AdmissionPolicy::LeastSlack`]).
    AdmittedShed(Box<Admitted>),
    /// Bounced: the incoming request itself had the least slack under
    /// [`AdmissionPolicy::LeastSlack`] and was shed without entering.
    SelfShed,
    /// Bounced: the queue was full under [`AdmissionPolicy::Reject`].
    Rejected,
    /// Bounced: the front-end has shut down.
    Closed,
}

struct Inner {
    q: VecDeque<Admitted>,
    closed: bool,
    ledger: TenantLedger,
    /// Next sequence number per template, handed out by [`AdmissionQueue::pop`].
    next_seq: Vec<u32>,
    /// Poppers parked on `not_empty` and `Block` pushers parked on
    /// `not_full`. A `notify_one` is a syscall whether or not anyone
    /// waits, so `push` and `pop` notify only when one of these is
    /// nonzero; both change under the queue mutex, so no wake-up is lost.
    waiting_poppers: usize,
    waiting_pushers: usize,
}

/// A bounded MPMC queue: many submitters push, the workers pop.
pub(crate) struct AdmissionQueue {
    inner: Mutex<Inner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    /// The front-end's `t0`: slack computations and bucket refills share
    /// the clock `release_ns`/`deadline_ns` are measured on.
    t0: Instant,
}

impl AdmissionQueue {
    pub(crate) fn new(
        capacity: usize,
        templates: usize,
        t0: Instant,
        fairness: Option<FairnessConfig>,
    ) -> Self {
        AdmissionQueue {
            inner: Mutex::new(Inner {
                q: VecDeque::new(),
                closed: false,
                ledger: TenantLedger::new(fairness, templates),
                next_seq: vec![0; templates],
                waiting_poppers: 0,
                waiting_pushers: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            t0,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The instant every `_ns` offset of the run is measured from.
    pub(crate) fn t0(&self) -> Instant {
        self.t0
    }

    pub(crate) fn now_ns(&self) -> u64 {
        dur_ns(self.t0.elapsed())
    }

    /// Try to admit `item` under `policy`. Blocks only for
    /// [`AdmissionPolicy::Block`] on a full queue.
    pub(crate) fn push(&self, mut item: Admitted, policy: AdmissionPolicy) -> Push {
        let mut g = self.lock();
        loop {
            if g.closed {
                g.ledger.record_rejected(item.req.tenant);
                return Push::Closed;
            }
            if g.q.len() < self.capacity {
                let now = self.now_ns();
                g.ledger.charge(item.req.tenant, item.cost_ns, now);
                item.admitted_at = Instant::now();
                g.q.push_back(item);
                self.wake_popper(&g);
                return Push::Admitted;
            }
            match policy {
                AdmissionPolicy::Reject => {
                    g.ledger.record_rejected(item.req.tenant);
                    return Push::Rejected;
                }
                AdmissionPolicy::LeastSlack => {
                    let now = self.now_ns();
                    let inner = &mut *g;
                    // Bring every candidate tenant's bucket up to `now`
                    // before classifying, so debt reflects refills.
                    for j in inner.q.iter() {
                        inner.ledger.refresh(j.req.tenant, now);
                    }
                    inner.ledger.refresh(item.req.tenant, now);
                    let candidates: Vec<ShedCandidate> = inner
                        .q
                        .iter()
                        .chain(std::iter::once(&item))
                        .map(|j| ShedCandidate {
                            slack_ns: slack_ns(j.req.deadline_ns, now),
                            over_budget: inner.ledger.in_debt(j.req.tenant),
                        })
                        .collect();
                    let victim = shed_victim(&candidates);
                    if victim == inner.q.len() {
                        inner.ledger.record_shed(item.req.tenant, item.req.txn);
                        return Push::SelfShed;
                    }
                    let old = inner.q.remove(victim).expect("victim index in range");
                    inner.ledger.refund(old.req.tenant, old.cost_ns, now);
                    inner.ledger.record_shed(old.req.tenant, old.req.txn);
                    inner.ledger.charge(item.req.tenant, item.cost_ns, now);
                    item.admitted_at = Instant::now();
                    inner.q.push_back(item);
                    self.wake_popper(inner);
                    return Push::AdmittedShed(Box::new(old));
                }
                AdmissionPolicy::Block => {
                    g.waiting_pushers += 1;
                    g = self
                        .not_full
                        .wait(g)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    g.waiting_pushers -= 1;
                }
            }
        }
    }

    /// Pop the oldest admitted request, blocking while the queue is open
    /// and empty. `None` once the queue is closed *and* drained. The
    /// request's instance id is assigned here, in the pop's own critical
    /// section: each template's sequence numbers follow admission order
    /// however many workers pop, so a single-worker `Block` replay runs
    /// exactly the instance sequence it was fed.
    pub(crate) fn pop(&self) -> Option<(InstanceId, Admitted)> {
        let mut g = self.lock();
        loop {
            if let Some(item) = g.q.pop_front() {
                if g.waiting_pushers > 0 {
                    self.not_full.notify_one();
                }
                let txn = item.req.txn;
                let seq = &mut g.next_seq[txn.index()];
                let id = InstanceId::new(txn, *seq);
                *seq += 1;
                return Some((id, item));
            }
            if g.closed {
                return None;
            }
            g.waiting_poppers += 1;
            g = self
                .not_empty
                .wait(g)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            g.waiting_poppers -= 1;
        }
    }

    /// Wake one parked popper, if any: an entry just entered the queue.
    fn wake_popper(&self, g: &Inner) {
        if g.waiting_poppers > 0 {
            self.not_empty.notify_one();
        }
    }

    /// Count a request bounced before it reached [`AdmissionQueue::push`]
    /// against its tenant, so `offered == committed + shed + rejected`
    /// holds for it too.
    pub(crate) fn record_rejected(&self, tenant: u32) {
        self.lock().ledger.record_rejected(tenant);
    }

    /// Close the queue: further pushes bounce, pops drain what remains.
    pub(crate) fn close(&self) {
        let mut g = self.lock();
        g.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Queued (admitted, not yet running) requests.
    pub(crate) fn len(&self) -> usize {
        self.lock().q.len()
    }

    /// Per-tenant shed/reject counters plus per-template shed counts.
    pub(crate) fn counters(&self) -> (Vec<TenantCounts>, Vec<u64>) {
        self.lock().ledger.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb_types::TxnId;
    use std::sync::mpsc::channel;

    fn queue(capacity: usize) -> AdmissionQueue {
        AdmissionQueue::new(capacity, 4, Instant::now(), None)
    }

    fn item(ticket: u64) -> (Admitted, std::sync::mpsc::Receiver<Completion>) {
        let (tx, rx) = channel();
        (
            Admitted {
                req: JobRequest::new(TxnId(0)),
                ticket,
                admitted_at: Instant::now(),
                cost_ns: 0,
                done: tx,
            },
            rx,
        )
    }

    fn deadline_item(ticket: u64, tenant: u32, deadline_ns: u64, cost_ns: u64) -> Admitted {
        let (tx, _rx) = channel();
        std::mem::forget(_rx);
        Admitted {
            req: JobRequest::new(TxnId((ticket % 4) as u32))
                .with_deadline(deadline_ns)
                .for_tenant(tenant),
            ticket,
            admitted_at: Instant::now(),
            cost_ns,
            done: tx,
        }
    }

    #[test]
    fn reject_bounces_when_full() {
        let q = queue(2);
        for t in 0..2 {
            assert!(matches!(
                q.push(item(t).0, AdmissionPolicy::Reject),
                Push::Admitted
            ));
        }
        assert!(matches!(
            q.push(item(2).0, AdmissionPolicy::Reject),
            Push::Rejected
        ));
        assert_eq!(q.len(), 2);
    }

    /// Wait until `parked` holds of the queue's wait counters. Each counter
    /// is raised under the mutex that `Condvar::wait` releases, so once it
    /// reads nonzero here its thread is parked on the condvar.
    fn until_parked(q: &AdmissionQueue, parked: impl Fn(&Inner) -> bool) {
        while !parked(&q.lock()) {
            std::thread::yield_now();
        }
    }

    /// `push` and `pop` notify only when a thread is parked: a parked
    /// popper is woken by a push, a parked `Block` pusher by a pop, and
    /// both by `close`.
    #[test]
    fn parked_threads_wake_on_push_pop_and_close() {
        let block = AdmissionPolicy::Block;
        let q = queue(1);
        std::thread::scope(|s| {
            let popper = s.spawn(|| q.pop().map(|(_, a)| a.ticket));
            until_parked(&q, |g| g.waiting_poppers == 1);
            q.push(item(0).0, block);
            assert_eq!(popper.join().expect("popper"), Some(0));
        });
        q.push(item(1).0, block);
        std::thread::scope(|s| {
            let pusher = s.spawn(|| matches!(q.push(item(2).0, block), Push::Admitted));
            until_parked(&q, |g| g.waiting_pushers == 1);
            assert_eq!(q.pop().expect("queued").1.ticket, 1);
            assert!(pusher.join().expect("pusher"));
        });
        assert_eq!(q.pop().expect("queued").1.ticket, 2);

        // One queue left empty, one full: `close` releases a thread parked
        // on either.
        let full = queue(1);
        full.push(item(3).0, block);
        std::thread::scope(|s| {
            let popper = s.spawn(|| q.pop().is_none());
            let pusher = s.spawn(|| matches!(full.push(item(4).0, block), Push::Closed));
            until_parked(&q, |g| g.waiting_poppers == 1);
            until_parked(&full, |g| g.waiting_pushers == 1);
            q.close();
            full.close();
            assert!(popper.join().expect("popper"));
            assert!(pusher.join().expect("pusher"));
        });
        for q in [&q, &full] {
            let g = q.lock();
            assert_eq!((g.waiting_poppers, g.waiting_pushers), (0, 0));
        }
    }

    #[test]
    fn close_drains_then_stops() {
        let q = queue(4);
        q.push(item(7).0, AdmissionPolicy::Reject);
        q.close();
        assert!(matches!(
            q.push(item(8).0, AdmissionPolicy::Block),
            Push::Closed
        ));
        assert_eq!(q.pop().expect("drains the backlog").1.ticket, 7);
        assert!(q.pop().is_none());
    }

    /// Satellite: the Display/FromStr round trip covers every policy —
    /// including `least-slack` — and the parse error lists every valid
    /// name, matching the `ProtocolKind` convention.
    #[test]
    fn policy_parses_and_displays() {
        for p in AdmissionPolicy::ALL {
            assert_eq!(p.to_string().parse::<AdmissionPolicy>(), Ok(p));
        }
        assert_eq!(
            "slack".parse::<AdmissionPolicy>(),
            Ok(AdmissionPolicy::LeastSlack)
        );
        let err = "fifo".parse::<AdmissionPolicy>().unwrap_err();
        for p in AdmissionPolicy::ALL {
            assert!(
                err.contains(p.name()),
                "error does not list `{}`: {err}",
                p.name()
            );
        }
    }

    #[test]
    fn least_slack_sheds_the_tightest_deadline_first() {
        let q = queue(2);
        // Deadline 0 is already past (negative slack); one hour is ample.
        const HOUR: u64 = 3_600_000_000_000;
        q.push(deadline_item(0, 0, HOUR, 0), AdmissionPolicy::LeastSlack);
        q.push(deadline_item(1, 0, 0, 0), AdmissionPolicy::LeastSlack);
        match q.push(
            deadline_item(2, 0, 2 * HOUR, 0),
            AdmissionPolicy::LeastSlack,
        ) {
            Push::AdmittedShed(old) => assert_eq!(old.ticket, 1, "negative slack sheds first"),
            _ => panic!("expected a queued shed"),
        }
        // Now every queued deadline is looser than the incoming one:
        // the incoming request self-sheds.
        assert!(matches!(
            q.push(deadline_item(3, 0, 1, 0), AdmissionPolicy::LeastSlack),
            Push::SelfShed
        ));
        q.close();
        let tickets: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, a)| a.ticket)).collect();
        assert_eq!(tickets, vec![0, 2]);
        let (counts, shed_by_txn) = q.counters();
        assert_eq!(counts.len(), 1);
        assert_eq!((counts[0].shed, counts[0].rejected), (2, 0));
        assert_eq!(shed_by_txn.iter().sum::<u64>(), 2);
    }

    #[test]
    fn requests_without_deadlines_have_infinite_slack() {
        let q = queue(1);
        q.push(item(0).0, AdmissionPolicy::LeastSlack);
        // Incoming with a (past) deadline has less slack than the queued
        // deadline-free request: it self-sheds.
        assert!(matches!(
            q.push(deadline_item(1, 0, 0, 0), AdmissionPolicy::LeastSlack),
            Push::SelfShed
        ));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn over_budget_tenants_shed_first_regardless_of_slack() {
        const HOUR: u64 = 3_600_000_000_000;
        // Zero refill: a tenant that spends its 1 ns burst is in debt
        // until the end of the run.
        let fairness = FairnessConfig {
            refill_per_sec: 0,
            burst_ns: 1,
        };
        let q = AdmissionQueue::new(2, 4, Instant::now(), Some(fairness));
        // Tenant 1 charges far past its burst; tenant 0 stays in budget.
        q.push(
            deadline_item(0, 1, 2 * HOUR, 1_000_000),
            AdmissionPolicy::LeastSlack,
        );
        q.push(deadline_item(1, 0, HOUR, 0), AdmissionPolicy::LeastSlack);
        // Queue full. The incoming tenant-0 request has the least slack
        // of all three, but tenant 1 is over budget — its job loses.
        match q.push(deadline_item(2, 0, 1, 0), AdmissionPolicy::LeastSlack) {
            Push::AdmittedShed(old) => {
                assert_eq!(old.ticket, 0, "the debtor's job is the victim")
            }
            _ => panic!("expected the over-budget tenant's job to shed"),
        }
        let (counts, _) = q.counters();
        let debtor = counts.iter().find(|c| c.tenant == 1).expect("tenant 1");
        assert_eq!(debtor.shed, 1);
    }

    #[test]
    fn fairness_budget_refills_over_time() {
        let f = FairnessConfig {
            refill_per_sec: 1_000_000_000,
            burst_ns: 500_000_000,
        };
        let mut ledger = TenantLedger::new(Some(f), 1);
        ledger.charge(0, 700_000_000, 0);
        assert!(ledger.in_debt(0), "burst 0.5s, charge 0.7s: in debt");
        // 0.3 s later the bucket has refilled past zero.
        ledger.refresh(0, 300_000_000);
        assert!(!ledger.in_debt(0), "refill restored the balance");
        // Refunds are capped at the burst.
        ledger.refund(0, u64::MAX, 300_000_000);
        assert_eq!(ledger.entry(0).balance_ns, f.burst_ns as i64);
    }

    #[test]
    fn for_capacity_budgets_the_measured_ceiling() {
        // 10k jobs/s at 40µs each = 0.4s of service per second, split
        // across two tenants; never zero even for degenerate inputs.
        let f = FairnessConfig::for_capacity(10_000.0, 40_000.0, 2);
        assert_eq!(f.refill_per_sec, 200_000_000);
        assert_eq!(f.burst_ns, 50_000_000);
        let degenerate = FairnessConfig::for_capacity(0.0, 0.0, 0);
        assert_eq!(degenerate.refill_per_sec, 1);
        assert_eq!(degenerate.burst_ns, 1);
    }

    #[test]
    fn shed_victim_prefers_debtors_then_least_slack() {
        let c = |slack_ns: i64, over_budget: bool| ShedCandidate {
            slack_ns,
            over_budget,
        };
        // No debtors: pure least slack, ties to the earliest index.
        assert_eq!(shed_victim(&[c(5, false), c(-3, false), c(9, false)]), 1);
        assert_eq!(shed_victim(&[c(4, false), c(4, false)]), 0);
        // A debtor loses even with the most slack.
        assert_eq!(shed_victim(&[c(-10, false), c(100, true), c(3, false)]), 1);
        // Among debtors, least slack.
        assert_eq!(shed_victim(&[c(7, true), c(2, true), c(-1, false)]), 1);
    }
}
