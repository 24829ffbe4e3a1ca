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
//!   queue.
//!
//! Neither policy parks a submitter: a push admits, sheds or bounces at
//! once, so the only thread that ever waits on the queue is a worker with
//! nothing to pop.
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
//! **Dispatch order.** A worker pops the highest-priority request waiting,
//! not the oldest: the queue keeps one FIFO lane per template, ranked by
//! the template's base priority, and an occupancy mask over the lanes
//! ([`rtdb_core::LevelMask`]) finds the highest non-empty one. This is the
//! paper's rate-monotonic dispatch at job granularity — non-preemptive,
//! since a worker runs its job to commit — and what DPCP-p's
//! priority-ordered executors assume per processor. Priorities in a set
//! are distinct, so each lane is one template's requests in admission
//! order, and per-template sequence numbers still follow admission order.
//!
//! A push reads the run's [`Clock`] once, *inside* the queue's critical
//! section, for the admission stamp, the fairness charge and the slack;
//! so queueing delay (admission → worker start) is the time spent queued.

use crate::clock::Clock;
use crate::front::{Completion, JobRequest};
use rtdb_core::LevelMask;
use rtdb_types::{InstanceId, Priority};
use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex, MutexGuard};

/// What the admission queue does with a new request when it is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Bounce the new request back to the submitter.
    Reject,
    /// Shed the request (queued or incoming) with the least remaining
    /// slack to its deadline — the one the system would miss anyway.
    LeastSlack,
}

impl AdmissionPolicy {
    /// Every policy, in the order the documentation lists them.
    pub const ALL: [AdmissionPolicy; 2] = [AdmissionPolicy::Reject, AdmissionPolicy::LeastSlack];

    /// Short stable name, as printed by `Display`.
    pub fn name(self) -> &'static str {
        match self {
            AdmissionPolicy::Reject => "reject",
            AdmissionPolicy::LeastSlack => "least-slack",
        }
    }
}

impl std::fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
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
    /// The run clock at admission, stamped by [`AdmissionQueue::push`].
    pub admitted_ns: u64,
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
    /// One FIFO lane per template, indexed by the template's rank in
    /// ascending base priority, so the last lane is the top priority.
    /// Each entry carries its place in admission order across all lanes,
    /// which the shed rule's ties go by.
    lanes: Vec<VecDeque<(u64, Admitted)>>,
    /// Which lanes are non-empty.
    occupied: LevelMask,
    /// `lane_of[txn]`: the lane of template `txn`.
    lane_of: Vec<usize>,
    /// Requests queued, over all lanes.
    len: usize,
    /// Requests admitted so far: the next entry's place in admission order.
    admissions: u64,
    closed: bool,
    ledger: TenantLedger,
    /// Next sequence number per template, handed out by [`AdmissionQueue::pop`].
    next_seq: Vec<u32>,
    /// Poppers parked on `not_empty`. A `notify_one` is a syscall whether
    /// or not anyone waits, so `push` notifies only when this is nonzero;
    /// it changes under the queue mutex, so no wake-up is lost.
    waiting_poppers: usize,
}

impl Inner {
    /// Stamp `item` admitted at `now_ns`; append it to its template's lane.
    fn enqueue(&mut self, mut item: Admitted, now_ns: u64) {
        item.admitted_ns = now_ns;
        let lane = self.lane_of[item.req.txn.index()];
        self.lanes[lane].push_back((self.admissions, item));
        self.admissions += 1;
        self.occupied.set(lane);
        self.len += 1;
    }

    /// Take the entry at `pos` of `lane`.
    fn take(&mut self, lane: usize, pos: usize) -> Admitted {
        let (_, item) = self.lanes[lane]
            .remove(pos)
            .expect("a queued entry's position is in range");
        if self.lanes[lane].is_empty() {
            self.occupied.clear(lane);
        }
        self.len -= 1;
        item
    }

    /// Every queued entry's `(lane, pos)`, oldest admission first.
    fn by_admission(&self) -> Vec<(usize, usize)> {
        let mut queued: Vec<(u64, usize, usize)> = self
            .lanes
            .iter()
            .enumerate()
            .flat_map(|(lane, q)| {
                q.iter()
                    .enumerate()
                    .map(move |(pos, (order, _))| (*order, lane, pos))
            })
            .collect();
        queued.sort_unstable();
        queued
            .into_iter()
            .map(|(_, lane, pos)| (lane, pos))
            .collect()
    }
}

/// A bounded MPMC queue: many submitters push, the workers pop.
pub(crate) struct AdmissionQueue<C> {
    inner: Mutex<Inner>,
    not_empty: Condvar,
    capacity: usize,
    /// The run's clock: deadlines, slack and bucket refills are on it.
    pub(crate) clock: C,
}

impl<C: Clock> AdmissionQueue<C> {
    /// A queue of `capacity` over a set whose template `t` has base
    /// priority `priorities[t]`.
    pub(crate) fn new(
        capacity: usize,
        priorities: &[Priority],
        clock: C,
        fairness: Option<FairnessConfig>,
    ) -> Self {
        let templates = priorities.len();
        let mut ascending: Vec<usize> = (0..templates).collect();
        ascending.sort_by_key(|&t| priorities[t]);
        let mut lane_of = vec![0; templates];
        for (lane, &t) in ascending.iter().enumerate() {
            lane_of[t] = lane;
        }
        AdmissionQueue {
            inner: Mutex::new(Inner {
                lanes: (0..templates).map(|_| VecDeque::new()).collect(),
                occupied: LevelMask::new(templates),
                lane_of,
                len: 0,
                admissions: 0,
                closed: false,
                ledger: TenantLedger::new(fairness, templates),
                next_seq: vec![0; templates],
                waiting_poppers: 0,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            clock,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Admit `item`, or apply `policy` to a full queue. Never blocks.
    pub(crate) fn push(&self, item: Admitted, policy: AdmissionPolicy) -> Push {
        let mut g = self.lock();
        if g.closed {
            g.ledger.record_rejected(item.req.tenant);
            return Push::Closed;
        }
        let full = g.len >= self.capacity;
        if full && policy == AdmissionPolicy::Reject {
            g.ledger.record_rejected(item.req.tenant);
            return Push::Rejected;
        }
        let now = self.clock.now_ns();
        if !full {
            g.ledger.charge(item.req.tenant, item.cost_ns, now);
            g.enqueue(item, now);
            self.wake_popper(&g);
            return Push::Admitted;
        }
        let inner = &mut *g;
        // The candidates in admission order, the incoming request last:
        // ties shed the oldest, whatever lane it waits in.
        let queued = inner.by_admission();
        let entry = |&(lane, pos): &(usize, usize)| &inner.lanes[lane][pos].1;
        // Bring every candidate tenant's bucket up to `now` before
        // classifying, so debt reflects refills.
        for j in queued.iter().map(entry) {
            inner.ledger.refresh(j.req.tenant, now);
        }
        inner.ledger.refresh(item.req.tenant, now);
        let candidates: Vec<ShedCandidate> = queued
            .iter()
            .map(entry)
            .chain(std::iter::once(&item))
            .map(|j| ShedCandidate {
                slack_ns: slack_ns(j.req.deadline_ns, now),
                over_budget: inner.ledger.in_debt(j.req.tenant),
            })
            .collect();
        let Some(&(lane, pos)) = queued.get(shed_victim(&candidates)) else {
            inner.ledger.record_shed(item.req.tenant, item.req.txn);
            return Push::SelfShed;
        };
        let old = inner.take(lane, pos);
        inner.ledger.refund(old.req.tenant, old.cost_ns, now);
        inner.ledger.record_shed(old.req.tenant, old.req.txn);
        inner.ledger.charge(item.req.tenant, item.cost_ns, now);
        inner.enqueue(item, now);
        self.wake_popper(inner);
        Push::AdmittedShed(Box::new(old))
    }

    /// Pop the highest-priority admitted request — its template's oldest —
    /// blocking while the queue is open and empty. `None` once the queue
    /// is closed *and* drained. The request's instance id is assigned
    /// here, in the pop's own critical section: each template's sequence
    /// numbers follow admission order however many workers pop.
    pub(crate) fn pop(&self) -> Option<(InstanceId, Admitted)> {
        let mut g = self.lock();
        loop {
            if let Some(lane) = g.occupied.highest_below(g.lanes.len()) {
                let item = g.take(lane, 0);
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
    }

    /// Queued (admitted, not yet running) requests.
    pub(crate) fn len(&self) -> usize {
        self.lock().len
    }

    /// Per-tenant shed/reject counters plus per-template shed counts.
    pub(crate) fn counters(&self) -> (Vec<TenantCounts>, Vec<u64>) {
        self.lock().ledger.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::WallClock;
    use crate::testkit::TestClock;
    use rtdb_types::TxnId;
    use std::sync::mpsc::channel;

    /// Four templates, template 0 the highest priority.
    const PRIORITIES: [Priority; 4] = [Priority(3), Priority(2), Priority(1), Priority(0)];

    fn queue(capacity: usize) -> AdmissionQueue<WallClock> {
        AdmissionQueue::new(capacity, &PRIORITIES, WallClock::now(), None)
    }

    fn item(ticket: u64) -> (Admitted, std::sync::mpsc::Receiver<Completion>) {
        let (tx, rx) = channel();
        (
            Admitted {
                req: JobRequest::new(TxnId(0)),
                ticket,
                admitted_ns: 0,
                cost_ns: 0,
                done: tx,
            },
            rx,
        )
    }

    /// A request for template `txn` with no deadline.
    fn item_of(ticket: u64, txn: u32) -> Admitted {
        let mut job = item(ticket).0;
        job.req.txn = TxnId(txn);
        job
    }

    /// The worker takes the highest-priority request waiting, however late
    /// it was admitted; within a template, requests leave and are numbered
    /// in admission order.
    #[test]
    fn pop_takes_the_highest_priority_request_waiting() {
        let q = queue(8);
        // A backlog of low-priority work, then the top template last.
        for (ticket, txn) in [(0, 3), (1, 2), (2, 3), (3, 1), (4, 0)] {
            assert!(matches!(
                q.push(item_of(ticket, txn), AdmissionPolicy::Reject),
                Push::Admitted
            ));
        }
        q.close();
        let popped: Vec<(u64, InstanceId)> =
            std::iter::from_fn(|| q.pop().map(|(id, a)| (a.ticket, id))).collect();
        let id = |txn, seq| InstanceId::new(TxnId(txn), seq);
        assert_eq!(
            popped,
            [
                (4, id(0, 0)),
                (3, id(1, 0)),
                (1, id(2, 0)),
                (0, id(3, 0)),
                (2, id(3, 1))
            ]
        );
        assert_eq!(q.len(), 0);
    }

    /// Dispatch order does not move the shed rule: on equal slack the
    /// oldest queued request is the victim, whichever lane it waits in.
    #[test]
    fn least_slack_ties_shed_the_oldest_in_any_lane() {
        let q = queue(2);
        let slack = AdmissionPolicy::LeastSlack;
        // The top template first, then the bottom; no deadlines, so every
        // candidate's slack ties.
        q.push(item_of(0, 0), slack);
        q.push(item_of(1, 3), slack);
        match q.push(item_of(2, 2), slack) {
            Push::AdmittedShed(old) => assert_eq!(old.ticket, 0, "the oldest sheds"),
            _ => panic!("expected a queued shed"),
        }
        q.close();
        let tickets: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, a)| a.ticket)).collect();
        assert_eq!(tickets, [2, 1]);
    }

    fn deadline_item(ticket: u64, tenant: u32, deadline_ns: u64, cost_ns: u64) -> Admitted {
        let (tx, _rx) = channel();
        std::mem::forget(_rx);
        Admitted {
            req: JobRequest::new(TxnId((ticket % 4) as u32))
                .with_deadline(deadline_ns)
                .for_tenant(tenant),
            ticket,
            admitted_ns: 0,
            cost_ns,
            done: tx,
        }
    }

    /// A push reads the clock once: the stamp an entry leaves with is the
    /// clock's time at its push, on the admitting path and on the shedding
    /// one alike.
    #[test]
    fn the_admission_stamp_is_the_clocks_time_at_the_push() {
        let q = AdmissionQueue::new(1, &PRIORITIES, TestClock::default(), None);
        q.clock.work(3, 5);
        q.push(item(0).0, AdmissionPolicy::LeastSlack);
        assert_eq!(q.pop().expect("admitted").1.admitted_ns, 15);
        q.push(item(1).0, AdmissionPolicy::LeastSlack);
        q.clock.work(2, 5);
        assert!(matches!(
            q.push(item(2).0, AdmissionPolicy::LeastSlack),
            Push::AdmittedShed(old) if old.admitted_ns == 15
        ));
        let (_, job) = q.pop().expect("admitted over the shed entry");
        assert_eq!((job.ticket, job.admitted_ns), (2, 25));
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

    /// Wait until a popper is parked. The counter is raised under the
    /// mutex that `Condvar::wait` releases, so once it reads nonzero here
    /// the popper is parked on the condvar.
    fn until_parked(q: &AdmissionQueue<WallClock>) {
        while q.lock().waiting_poppers == 0 {
            std::thread::yield_now();
        }
    }

    /// `push` notifies only when a popper is parked: a parked popper is
    /// woken by a push, and by `close`.
    #[test]
    fn parked_threads_wake_on_push_pop_and_close() {
        let q = queue(1);
        std::thread::scope(|s| {
            let popper = s.spawn(|| q.pop().map(|(_, a)| a.ticket));
            until_parked(&q);
            q.push(item(0).0, AdmissionPolicy::Reject);
            assert_eq!(popper.join().expect("popper"), Some(0));
        });
        std::thread::scope(|s| {
            let popper = s.spawn(|| q.pop().is_none());
            until_parked(&q);
            q.close();
            assert!(popper.join().expect("popper"));
        });
        assert_eq!(q.lock().waiting_poppers, 0);
    }

    #[test]
    fn close_drains_then_stops() {
        let q = queue(4);
        q.push(item(7).0, AdmissionPolicy::Reject);
        q.close();
        assert!(matches!(
            q.push(item(8).0, AdmissionPolicy::Reject),
            Push::Closed
        ));
        assert_eq!(q.pop().expect("drains the backlog").1.ticket, 7);
        assert!(q.pop().is_none());
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
        let q = AdmissionQueue::new(2, &PRIORITIES, WallClock::now(), Some(fairness));
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
