//! The bounded admission queue and its overload policies.
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
//!   without a deadline have infinite slack and are shed last; ties shed
//!   the oldest admission ([`shed_victim`]). When the incoming request
//!   itself has the least slack it is bounced without entering the queue.
//!
//! Neither policy parks a submitter: a push admits, sheds or bounces at
//! once, so the only thread that ever waits on the queue is a worker with
//! nothing to pop. A push answers its own submitter: it returns the
//! public [`crate::SubmitOutcome`], and tells a queued victim's submitter
//! [`crate::Completion::Shed`] over the victim's own completion channel.
//! Tenants are counted, not ranked: the queue keeps the run's
//! [`crate::TenantStats`] rows, one per tenant id, and every shed and
//! reject is a count in its tenant's row; the run's epilogue adds the
//! commits from the job reports ([`crate::RtResult::tenants`]).
//!
//! **Dispatch order.** A worker pops the highest-priority request waiting,
//! not the oldest: the queue keeps one FIFO lane per template, ranked by
//! the template's base priority, and an occupancy mask over the lanes
//! ([`rtdb_core::LevelMask`]) finds the highest non-empty one. This is the
//! paper's rate-monotonic dispatch — preemptive at tick granularity with
//! one worker, which pops a queued job between two ticks of busy work
//! when the job would run before the instance about to run
//! (`AdmissionQueue::pop_if`, after a lock-free look at the top lane's
//! priority), and at job granularity with several, which run each job to
//! commit — and what DPCP-p's priority-ordered executors assume per
//! processor. Priorities in a set are distinct, so each lane is one
//! template's requests in admission order, and per-template sequence
//! numbers still follow admission order.
//!
//! A push reads the run's [`Clock`] once, *inside* the queue's critical
//! section, for the admission stamp and the slack; so queueing delay
//! (admission → worker start) is the time spent queued.

use crate::clock::Clock;
use crate::front::{Completion, JobRequest, SubmitOutcome};
use crate::runtime::TenantStats;
use rtdb_core::LevelMask;
use rtdb_types::{InstanceId, Priority};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// The shed-victim rule of [`AdmissionPolicy::LeastSlack`], exposed as a
/// pure function so its invariants are directly testable. `slacks` are
/// the candidates' `deadline - now` in nanoseconds ([`i64::MAX`] without
/// a deadline), in admission order with the incoming request last; the
/// victim is the least (slack, admission order):
///
/// * **no candidate with positive slack is ever shed while a
///   negative-slack candidate exists**;
/// * ties go to the earliest index — the oldest queued request, so
///   queued requests shed before the incoming one on ties.
///
/// The admission queue's push applies the same rule in one pass over its
/// lanes.
///
/// # Panics
/// Panics on an empty candidate list — a full queue always has at least
/// the incoming request as a candidate.
pub fn shed_victim(slacks: &[i64]) -> usize {
    slacks
        .iter()
        .enumerate()
        .min_by_key(|&(i, &slack)| (slack, i))
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

/// The run's per-tenant outcome rows ([`TenantStats`], dense by tenant
/// id) and per-template shed counts (for the per-priority shed
/// telemetry). Lives inside the queue's critical section, so every count
/// is atomic with the admission decision it records; the run's epilogue
/// adds the commits from the job reports. Tenant ids index it densely:
/// [`crate::Submitter::submit`] bounces ids above [`crate::MAX_TENANT`]
/// before they get here.
#[derive(Default)]
pub(crate) struct TenantLedger {
    pub rows: Vec<TenantStats>,
    pub shed_by_txn: Vec<u64>,
}

impl TenantLedger {
    /// `tenant`'s row, growing the rows up to it.
    pub(crate) fn row(&mut self, tenant: u32) -> &mut TenantStats {
        let idx = tenant as usize;
        while self.rows.len() <= idx {
            self.rows.push(TenantStats {
                tenant: self.rows.len() as u32,
                committed: 0,
                missed: 0,
                shed: 0,
                rejected: 0,
            });
        }
        &mut self.rows[idx]
    }

    fn record_shed(&mut self, req: &JobRequest) {
        self.row(req.tenant).shed += 1;
        self.shed_by_txn[req.txn.index()] += 1;
    }
}

/// One admitted request, as it travels queue → worker.
pub(crate) struct Admitted {
    pub req: JobRequest,
    /// Submission ticket, for correlating completions.
    pub ticket: u64,
    /// The run clock at admission, stamped by [`AdmissionQueue::push`].
    pub admitted_ns: u64,
    /// The submitter's completion channel.
    pub done: Sender<Completion>,
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
    /// Stamp `item` admitted at `now_ns`; append it to `lane`, its
    /// template's.
    fn enqueue(&mut self, lane: usize, mut item: Admitted, now_ns: u64) {
        item.admitted_ns = now_ns;
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

    /// The highest non-empty lane.
    #[inline]
    fn top(&self) -> Option<usize> {
        self.occupied.highest_below(self.lanes.len())
    }

    /// The queued entry with the least (slack, admission order) at
    /// `now_ns`, found in one pass over the lanes: its `(slack, order,
    /// lane, pos)`; `None` when the queue is empty.
    fn least_slack(&self, now_ns: u64) -> Option<(i64, u64, usize, usize)> {
        self.lanes
            .iter()
            .enumerate()
            .flat_map(|(lane, q)| q.iter().enumerate().map(move |(pos, e)| (lane, pos, e)))
            .map(|(lane, pos, (order, j))| (slack_ns(j.req.deadline_ns, now_ns), *order, lane, pos))
            .min()
    }
}

/// A bounded MPMC queue: many submitters push, the workers pop.
pub(crate) struct AdmissionQueue<C> {
    inner: Mutex<Inner>,
    not_empty: Condvar,
    capacity: usize,
    /// `lane_priority[lane]`: the base priority of the lane's template,
    /// ascending.
    lane_priority: Vec<Priority>,
    /// The highest non-empty lane plus one, 0 when the queue is empty: a
    /// copy of what the queue mutex guards, written under it, so a worker
    /// between two ticks of busy work asks whether anything queued would
    /// preempt it without taking the lock ([`AdmissionQueue::top_priority`]).
    top: AtomicUsize,
    /// The run's clock: admission stamps, deadlines and slack are on it.
    pub(crate) clock: C,
}

impl<C: Clock> AdmissionQueue<C> {
    /// A queue of `capacity` over a set whose template `t` has base
    /// priority `priorities[t]`.
    pub(crate) fn new(capacity: usize, priorities: &[Priority], clock: C) -> Self {
        let templates = priorities.len();
        let mut ascending: Vec<usize> = (0..templates).collect();
        ascending.sort_by_key(|&t| priorities[t]);
        let mut lane_of = vec![0; templates];
        for (lane, &t) in ascending.iter().enumerate() {
            lane_of[t] = lane;
        }
        let lane_priority = ascending.iter().map(|&t| priorities[t]).collect();
        AdmissionQueue {
            inner: Mutex::new(Inner {
                lanes: (0..templates).map(|_| VecDeque::new()).collect(),
                occupied: LevelMask::new(templates),
                lane_of,
                len: 0,
                admissions: 0,
                closed: false,
                ledger: TenantLedger {
                    rows: Vec::new(),
                    shed_by_txn: vec![0; templates],
                },
                next_seq: vec![0; templates],
                waiting_poppers: 0,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            lane_priority,
            top: AtomicUsize::new(0),
            clock,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Admit `item`, or apply `policy` to a full queue, and count the
    /// outcome against the request's tenant. Never blocks. A request that
    /// names no template of the set bounces first (a worker could never
    /// run it), then one submitted after [`AdmissionQueue::close`]. A
    /// queued request shed to make room is told so on its own completion
    /// channel once the queue lock is released.
    pub(crate) fn push(&self, item: Admitted, policy: AdmissionPolicy) -> SubmitOutcome {
        let mut g = self.lock();
        let Some(&lane) = g.lane_of.get(item.req.txn.index()) else {
            g.ledger.row(item.req.tenant).rejected += 1;
            return SubmitOutcome::Rejected;
        };
        if g.closed {
            g.ledger.row(item.req.tenant).rejected += 1;
            return SubmitOutcome::Closed;
        }
        let full = g.len >= self.capacity;
        if full && policy == AdmissionPolicy::Reject {
            g.ledger.row(item.req.tenant).rejected += 1;
            return SubmitOutcome::Rejected;
        }
        let ticket = item.ticket;
        let now = self.clock.now_ns();
        let mut shed = None;
        if full {
            // The incoming request is the newest admission: it is the
            // victim only on strictly less slack than every queued one.
            let (slack, _, victim, pos) = g.least_slack(now).expect("a full queue holds entries");
            if slack_ns(item.req.deadline_ns, now) < slack {
                g.ledger.record_shed(&item.req);
                return SubmitOutcome::Shed { ticket };
            }
            let old = g.take(victim, pos);
            g.ledger.record_shed(&old.req);
            shed = Some(old);
        }
        g.enqueue(lane, item, now);
        self.publish_top(&g);
        self.wake_popper(&g);
        drop(g);
        if let Some(old) = shed {
            let _ = old.done.send(Completion::Shed {
                ticket: old.ticket,
                txn: old.req.txn,
            });
        }
        SubmitOutcome::Admitted { ticket }
    }

    /// Pop the highest-priority admitted request — its template's oldest —
    /// blocking while the queue is open and empty. `None` once the queue
    /// is closed *and* drained. The request's instance id is assigned
    /// here, in the pop's own critical section: each template's sequence
    /// numbers follow admission order however many workers pop.
    pub(crate) fn pop(&self) -> Option<(InstanceId, Admitted)> {
        let mut g = self.lock();
        loop {
            if let Some(lane) = g.top() {
                return Some(self.take_top(&mut g, lane));
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

    /// Pop the highest-priority admitted request if `admit` takes its
    /// template's base priority; never blocks. The one worker of a
    /// one-worker pool pops this way while it has live instances: a job
    /// begins only once it would run.
    pub(crate) fn pop_if(
        &self,
        admit: impl FnOnce(Priority) -> bool,
    ) -> Option<(InstanceId, Admitted)> {
        let mut g = self.lock();
        let lane = g.top()?;
        admit(self.lane_priority[lane]).then(|| self.take_top(&mut g, lane))
    }

    /// The base priority of the highest-priority request queued, read
    /// without the queue lock: the value the last push or pop left, so a
    /// reader may see an entry a moment late, never one that was not
    /// there — [`AdmissionQueue::pop_if`] decides under the lock.
    #[inline]
    pub(crate) fn top_priority(&self) -> Option<Priority> {
        let top = self.top.load(Ordering::Relaxed);
        top.checked_sub(1).map(|lane| self.lane_priority[lane])
    }

    /// Take the oldest entry of `lane`, the highest non-empty one, and
    /// number its instance: each template's sequence numbers follow
    /// admission order however many workers pop.
    fn take_top(&self, g: &mut Inner, lane: usize) -> (InstanceId, Admitted) {
        let item = g.take(lane, 0);
        self.publish_top(g);
        let txn = item.req.txn;
        let seq = &mut g.next_seq[txn.index()];
        let id = InstanceId::new(txn, *seq);
        *seq += 1;
        (id, item)
    }

    /// Copy the highest non-empty lane out of the lock for
    /// [`AdmissionQueue::top_priority`].
    #[inline]
    fn publish_top(&self, g: &Inner) {
        self.top
            .store(g.top().map_or(0, |lane| lane + 1), Ordering::Relaxed);
    }

    /// Wake one parked popper, if any: an entry just entered the queue.
    fn wake_popper(&self, g: &Inner) {
        if g.waiting_poppers > 0 {
            self.not_empty.notify_one();
        }
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

    /// The tenant ledger, taken out of the queue at the end of the run.
    pub(crate) fn take_ledger(&self) -> TenantLedger {
        std::mem::take(&mut self.lock().ledger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::WallClock;
    use crate::testkit::TestClock;
    use rtdb_types::TxnId;
    use std::sync::mpsc::{channel, Receiver};

    /// Four templates, template 0 the highest priority.
    const PRIORITIES: [Priority; 4] = [Priority(3), Priority(2), Priority(1), Priority(0)];

    fn queue(capacity: usize) -> AdmissionQueue<WallClock> {
        AdmissionQueue::new(capacity, &PRIORITIES, WallClock::now())
    }

    /// A request for template `txn` with no deadline, and its submitter's
    /// completion channel.
    fn item_of(ticket: u64, txn: u32) -> (Admitted, Receiver<Completion>) {
        let (tx, rx) = channel();
        (
            Admitted {
                req: JobRequest::new(TxnId(txn)),
                ticket,
                admitted_ns: 0,
                done: tx,
            },
            rx,
        )
    }

    fn item(ticket: u64) -> Admitted {
        item_of(ticket, 0).0
    }

    /// A request with an absolute deadline, on template `ticket % 4`.
    fn deadline_item(ticket: u64, deadline_ns: u64) -> (Admitted, Receiver<Completion>) {
        let (mut job, rx) = item_of(ticket, (ticket % 4) as u32);
        job.req.deadline_ns = Some(deadline_ns);
        (job, rx)
    }

    /// The ticket a push shed from the queue told its submitter about.
    fn shed_notice(rx: &Receiver<Completion>) -> Option<u64> {
        match rx.try_recv() {
            Ok(Completion::Shed { ticket, .. }) => Some(ticket),
            _ => None,
        }
    }

    /// The worker takes the highest-priority request waiting, however late
    /// it was admitted; within a template, requests leave and are numbered
    /// in admission order.
    #[test]
    fn pop_takes_the_highest_priority_request_waiting() {
        let q = queue(8);
        // A backlog of low-priority work, then the top template last.
        for (ticket, txn) in [(0, 3), (1, 2), (2, 3), (3, 1), (4, 0)] {
            assert_eq!(
                q.push(item_of(ticket, txn).0, AdmissionPolicy::Reject),
                SubmitOutcome::Admitted { ticket }
            );
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
        let (oldest, oldest_rx) = item_of(0, 0);
        q.push(oldest, slack);
        q.push(item_of(1, 3).0, slack);
        assert_eq!(
            q.push(item_of(2, 2).0, slack),
            SubmitOutcome::Admitted { ticket: 2 }
        );
        assert_eq!(shed_notice(&oldest_rx), Some(0), "the oldest sheds");
        q.close();
        let tickets: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, a)| a.ticket)).collect();
        assert_eq!(tickets, [2, 1]);
    }

    /// A push reads the clock once: the stamp an entry leaves with is the
    /// clock's time at its push, on the admitting path and on the shedding
    /// one alike.
    #[test]
    fn the_admission_stamp_is_the_clocks_time_at_the_push() {
        let q = AdmissionQueue::new(1, &PRIORITIES, TestClock::default());
        q.clock.work(3, 5);
        q.push(item(0), AdmissionPolicy::LeastSlack);
        assert_eq!(q.pop().expect("admitted").1.admitted_ns, 15);
        let (queued, queued_rx) = item_of(1, 0);
        q.push(queued, AdmissionPolicy::LeastSlack);
        q.clock.work(2, 5);
        assert_eq!(
            q.push(item(2), AdmissionPolicy::LeastSlack),
            SubmitOutcome::Admitted { ticket: 2 }
        );
        assert_eq!(shed_notice(&queued_rx), Some(1));
        let (_, job) = q.pop().expect("admitted over the shed entry");
        assert_eq!((job.ticket, job.admitted_ns), (2, 25));
    }

    #[test]
    fn reject_bounces_when_full() {
        let q = queue(2);
        for t in 0..2 {
            assert_eq!(
                q.push(item(t), AdmissionPolicy::Reject),
                SubmitOutcome::Admitted { ticket: t }
            );
        }
        assert_eq!(
            q.push(item(2), AdmissionPolicy::Reject),
            SubmitOutcome::Rejected
        );
        assert_eq!(q.len(), 2);
    }

    /// A request naming no template bounces before the closed check, and
    /// every bounce is a rejection in its tenant's row.
    #[test]
    fn an_unknown_template_bounces_first_and_counts_as_rejected() {
        let q = queue(1);
        let unknown = |ticket| {
            let (mut job, _) = item_of(ticket, PRIORITIES.len() as u32);
            job.req.tenant = 2;
            job
        };
        assert_eq!(
            q.push(unknown(0), AdmissionPolicy::LeastSlack),
            SubmitOutcome::Rejected
        );
        q.close();
        assert_eq!(
            q.push(unknown(1), AdmissionPolicy::LeastSlack),
            SubmitOutcome::Rejected
        );
        assert_eq!(
            q.push(item(2), AdmissionPolicy::LeastSlack),
            SubmitOutcome::Closed
        );
        let ledger = q.take_ledger();
        let rejected: Vec<(u32, u64)> =
            ledger.rows.iter().map(|r| (r.tenant, r.rejected)).collect();
        assert_eq!(rejected, [(0, 1), (1, 0), (2, 2)]);
        assert_eq!(ledger.shed_by_txn, [0; 4]);
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
            q.push(item(0), AdmissionPolicy::Reject);
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
        q.push(item(7), AdmissionPolicy::Reject);
        q.close();
        assert_eq!(
            q.push(item(8), AdmissionPolicy::Reject),
            SubmitOutcome::Closed
        );
        assert_eq!(q.pop().expect("drains the backlog").1.ticket, 7);
        assert!(q.pop().is_none());
    }

    #[test]
    fn least_slack_sheds_the_tightest_deadline_first() {
        let q = queue(2);
        // Deadline 0 is already past (negative slack); one hour is ample.
        const HOUR: u64 = 3_600_000_000_000;
        q.push(deadline_item(0, HOUR).0, AdmissionPolicy::LeastSlack);
        let (past, past_rx) = deadline_item(1, 0);
        q.push(past, AdmissionPolicy::LeastSlack);
        assert_eq!(
            q.push(deadline_item(2, 2 * HOUR).0, AdmissionPolicy::LeastSlack),
            SubmitOutcome::Admitted { ticket: 2 }
        );
        assert_eq!(shed_notice(&past_rx), Some(1), "negative slack sheds first");
        // Now every queued deadline is looser than the incoming one:
        // the incoming request self-sheds.
        assert_eq!(
            q.push(deadline_item(3, 1).0, AdmissionPolicy::LeastSlack),
            SubmitOutcome::Shed { ticket: 3 }
        );
        q.close();
        let tickets: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, a)| a.ticket)).collect();
        assert_eq!(tickets, vec![0, 2]);
        let ledger = q.take_ledger();
        assert_eq!(ledger.rows.len(), 1);
        assert_eq!((ledger.rows[0].shed, ledger.rows[0].rejected), (2, 0));
        assert_eq!(ledger.shed_by_txn.iter().sum::<u64>(), 2);
    }

    #[test]
    fn requests_without_deadlines_have_infinite_slack() {
        let q = queue(1);
        q.push(item(0), AdmissionPolicy::LeastSlack);
        // Incoming with a (past) deadline has less slack than the queued
        // deadline-free request: it self-sheds.
        assert_eq!(
            q.push(deadline_item(1, 0).0, AdmissionPolicy::LeastSlack),
            SubmitOutcome::Shed { ticket: 1 }
        );
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn shed_victim_is_the_least_slack_then_the_oldest() {
        assert_eq!(shed_victim(&[5, -3, 9]), 1);
        assert_eq!(shed_victim(&[4, 4]), 0);
        assert_eq!(shed_victim(&[i64::MAX, 7, i64::MAX]), 1);
        assert_eq!(shed_victim(&[i64::MAX, i64::MAX]), 0);
    }

    /// `push` finds its victim in one pass over the lanes; over random
    /// deadlines spread across every lane it is the entry [`shed_victim`]
    /// picks from the candidates in admission order, incoming last.
    #[test]
    fn push_sheds_the_entry_shed_victim_picks() {
        rtdb_util::prop::forall(200, |rng| {
            let capacity = 1 + rng.bounded(8) as usize;
            let q = AdmissionQueue::new(capacity, &PRIORITIES, TestClock::default());
            q.clock.work(1, 2);
            // Deadlines 1–3 around `now` = 2, or none: slack ties across
            // lanes are common, and so are past deadlines.
            let mut job = |ticket: u64| {
                let (mut a, rx) = item_of(ticket, rng.bounded(4) as u32);
                a.req.deadline_ns = match rng.bounded(4) {
                    0 => None,
                    d => Some(d),
                };
                (a, rx)
            };
            let (jobs, notices): (Vec<Admitted>, Vec<_>) =
                (0..=capacity as u64).map(&mut job).unzip();
            let slacks: Vec<i64> = jobs
                .iter()
                .map(|j| slack_ns(j.req.deadline_ns, 2))
                .collect();
            let mut last = None;
            for j in jobs {
                last = Some(q.push(j, AdmissionPolicy::LeastSlack));
            }
            let shed = match last.expect("one push at least") {
                SubmitOutcome::Admitted { .. } => notices
                    .iter()
                    .find_map(shed_notice)
                    .expect("the shed entry's submitter is told"),
                SubmitOutcome::Shed { ticket } => ticket,
                other => panic!("a full queue under least-slack sheds, not {other:?}"),
            };
            assert_eq!(shed, shed_victim(&slacks) as u64, "{slacks:?}");
        });
    }
}
