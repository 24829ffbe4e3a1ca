//! Per-instance and per-template statistics of a run.

use rtdb_core::AbortBreakdown;
use rtdb_types::{Ceiling, Duration, InstanceId, Tick, TxnId};
use std::collections::BTreeMap;
use std::fmt;

/// Statistics of one transaction instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstanceMetrics {
    /// The instance.
    pub id: InstanceId,
    /// Release time.
    pub release: Tick,
    /// Absolute deadline (end of period).
    pub deadline: Tick,
    /// Commit time, if the instance finished within the run.
    pub completion: Option<Tick>,
    /// Total time spent blocked on lock requests (the paper's "effective
    /// blocking time").
    pub blocking: Duration,
    /// CPU time consumed by *lower-base-priority* instances while this
    /// instance was live (released but not yet committed) — the quantity
    /// the analytic `B_i` of §9 bounds. Unlike [`InstanceMetrics::blocking`]
    /// it excludes higher-priority interference that happens to overlap a
    /// blocked window.
    pub lower_exec: Duration,
    /// Distinct *lower-base-priority* transactions that directly blocked
    /// this instance — Theorem 1 (single blocking) asserts `≤ 1` under
    /// PCP-DA and RW-PCP.
    pub distinct_lower_blockers: Vec<TxnId>,
    /// Times this instance was aborted and restarted.
    pub restarts: u32,
}

impl InstanceMetrics {
    /// Response time (completion − release), if completed.
    pub fn response(&self) -> Option<Duration> {
        self.completion.map(|c| c.since(self.release))
    }

    /// True if the instance committed at or before its deadline.
    pub fn met_deadline(&self) -> bool {
        self.completion.is_some_and(|c| c <= self.deadline)
    }
}

/// Aggregated statistics of one transaction template.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TemplateMetrics {
    /// Released instances.
    pub released: u32,
    /// Committed instances.
    pub completed: u32,
    /// Instances that committed after (or never reached) their deadline.
    pub deadline_misses: u32,
    /// Worst observed response time.
    pub max_response: Duration,
    /// Mean response time over completed instances.
    pub mean_response: f64,
    /// Worst observed blocking time.
    pub max_blocking: Duration,
    /// Mean blocking time over released instances.
    pub mean_blocking: f64,
    /// Total restarts.
    pub restarts: u32,
}

/// The full metrics report of one run.
#[derive(Clone, Default)]
pub struct MetricsReport {
    /// One entry per released instance, by template index and then by
    /// `seq`: a template releases its instances in `seq` order, so each
    /// record is opened at its final position when its instance is
    /// released and filled in place when it leaves, and the report is in
    /// id order without a sort.
    by_template: Vec<Vec<InstanceMetrics>>,
    /// Highest system ceiling observed (the paper's `Max_Sysceil`).
    pub max_sysceil: Ceiling,
    /// Why instances aborted, by cause. Its [`AbortBreakdown::total`]
    /// equals [`MetricsReport::total_restarts`] — every abort restarts
    /// its instance.
    pub abort_reasons: AbortBreakdown,
}

impl MetricsReport {
    /// Empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Make room for `instances[t]` records of template `t`.
    pub(crate) fn reserve(&mut self, instances: impl IntoIterator<Item = usize>) {
        self.by_template = instances.into_iter().map(Vec::with_capacity).collect();
    }

    /// Put `m` at its id's position: after the last record of its
    /// template (its instance was just released) or over the record its
    /// release opened (its instance left).
    pub(crate) fn record(&mut self, m: InstanceMetrics) {
        let t = m.id.txn.index();
        if t >= self.by_template.len() {
            self.by_template.resize_with(t + 1, Vec::new);
        }
        let list = &mut self.by_template[t];
        let seq = m.id.seq as usize;
        match seq.cmp(&list.len()) {
            std::cmp::Ordering::Less => list[seq] = m,
            std::cmp::Ordering::Equal => list.push(m),
            std::cmp::Ordering::Greater => {
                panic!(
                    "{:?} recorded before an earlier instance of its template",
                    m.id
                )
            }
        }
    }

    /// Metrics of one instance.
    pub fn instance(&self, id: InstanceId) -> Option<&InstanceMetrics> {
        self.by_template.get(id.txn.index())?.get(id.seq as usize)
    }

    /// All instances, in id order.
    pub fn instances(&self) -> impl Iterator<Item = &InstanceMetrics> {
        self.by_template.iter().flatten()
    }

    /// Total deadline misses (committed late or never completed).
    pub fn deadline_misses(&self) -> u32 {
        self.instances().filter(|m| !m.met_deadline()).count() as u32
    }

    /// Total restarts across all instances.
    pub fn total_restarts(&self) -> u32 {
        self.instances().map(|m| m.restarts).sum()
    }

    /// Total blocking time across all instances.
    pub fn total_blocking(&self) -> Duration {
        self.instances().map(|m| m.blocking).sum()
    }

    /// Worst single-instance blocking per template (measured `B_i`).
    pub fn max_blocking_by_template(&self) -> BTreeMap<TxnId, Duration> {
        let mut out: BTreeMap<TxnId, Duration> = BTreeMap::new();
        for m in self.instances() {
            let e = out.entry(m.id.txn).or_insert(Duration::ZERO);
            if m.blocking > *e {
                *e = m.blocking;
            }
        }
        out
    }

    /// Aggregate per template.
    pub fn by_template(&self) -> BTreeMap<TxnId, TemplateMetrics> {
        let mut out: BTreeMap<TxnId, TemplateMetrics> = BTreeMap::new();
        let mut response_sums: BTreeMap<TxnId, u64> = BTreeMap::new();
        let mut blocking_sums: BTreeMap<TxnId, u64> = BTreeMap::new();
        for m in self.instances() {
            let t = out.entry(m.id.txn).or_default();
            t.released += 1;
            t.restarts += m.restarts;
            if let Some(r) = m.response() {
                t.completed += 1;
                if r > t.max_response {
                    t.max_response = r;
                }
                *response_sums.entry(m.id.txn).or_insert(0) += r.raw();
            }
            if !m.met_deadline() {
                t.deadline_misses += 1;
            }
            if m.blocking > t.max_blocking {
                t.max_blocking = m.blocking;
            }
            *blocking_sums.entry(m.id.txn).or_insert(0) += m.blocking.raw();
        }
        for (txn, t) in out.iter_mut() {
            if t.completed > 0 {
                t.mean_response =
                    response_sums.get(txn).copied().unwrap_or(0) as f64 / t.completed as f64;
            }
            if t.released > 0 {
                t.mean_blocking =
                    blocking_sums.get(txn).copied().unwrap_or(0) as f64 / t.released as f64;
            }
        }
        out
    }

    /// Miss ratio: misses / released (0.0 for an empty report).
    pub fn miss_ratio(&self) -> f64 {
        let released = self.instances().count();
        if released == 0 {
            return 0.0;
        }
        self.deadline_misses() as f64 / released as f64
    }

    /// Response-time percentile for one template over completed
    /// instances, with `q` in `[0, 1]` (nearest-rank). `None` when the
    /// template completed nothing.
    pub fn response_percentile(&self, txn: TxnId, q: f64) -> Option<Duration> {
        let mut responses: Vec<u64> = self
            .instances()
            .filter(|m| m.id.txn == txn)
            .filter_map(|m| m.response())
            .map(|d| d.raw())
            .collect();
        if responses.is_empty() {
            return None;
        }
        responses.sort_unstable();
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * responses.len() as f64).ceil() as usize).clamp(1, responses.len());
        Some(Duration(responses[rank - 1]))
    }

    /// The worst single-blocking count across instances (Theorem 1 says
    /// this is ≤ 1 under PCP-DA / RW-PCP).
    pub fn max_distinct_lower_blockers(&self) -> usize {
        self.instances()
            .map(|m| m.distinct_lower_blockers.len())
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Debug for MetricsReport {
    /// The instances render as a map from id to metrics, in id order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct ById<'a>(&'a MetricsReport);
        impl fmt::Debug for ById<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map()
                    .entries(self.0.instances().map(|m| (&m.id, m)))
                    .finish()
            }
        }
        f.debug_struct("MetricsReport")
            .field("instances", &ById(self))
            .field("max_sysceil", &self.max_sysceil)
            .field("abort_reasons", &self.abort_reasons)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(t: u32, seq: u32, release: u64, deadline: u64, done: Option<u64>) -> InstanceMetrics {
        InstanceMetrics {
            id: InstanceId::new(TxnId(t), seq),
            release: Tick(release),
            deadline: Tick(deadline),
            completion: done.map(Tick),
            blocking: Duration::ZERO,
            lower_exec: Duration::ZERO,
            distinct_lower_blockers: [].into(),
            restarts: 0,
        }
    }

    #[test]
    fn response_and_deadline() {
        let m = inst(0, 0, 1, 6, Some(5));
        assert_eq!(m.response(), Some(Duration(4)));
        assert!(m.met_deadline());
        let late = inst(0, 1, 6, 11, Some(12));
        assert!(!late.met_deadline());
        let never = inst(0, 2, 11, 16, None);
        assert!(!never.met_deadline());
        assert_eq!(never.response(), None);
    }

    #[test]
    fn report_aggregates_by_template() {
        let mut r = MetricsReport::new();
        let mut a = inst(0, 0, 0, 10, Some(4));
        a.blocking = Duration(2);
        r.record(a);
        let mut b = inst(0, 1, 10, 20, Some(21));
        b.blocking = Duration(4);
        b.restarts = 1;
        r.record(b);
        r.record(inst(1, 0, 0, 50, Some(10)));

        assert_eq!(r.deadline_misses(), 1);
        assert_eq!(r.total_restarts(), 1);
        assert_eq!(r.total_blocking(), Duration(6));
        assert!((r.miss_ratio() - 1.0 / 3.0).abs() < 1e-12);

        let by = r.by_template();
        let t0 = &by[&TxnId(0)];
        assert_eq!(t0.released, 2);
        assert_eq!(t0.completed, 2);
        assert_eq!(t0.deadline_misses, 1);
        assert_eq!(t0.max_response, Duration(11));
        assert!((t0.mean_response - 7.5).abs() < 1e-12);
        assert_eq!(t0.max_blocking, Duration(4));
        assert_eq!(r.max_blocking_by_template()[&TxnId(0)], Duration(4));
    }

    #[test]
    fn response_percentiles_nearest_rank() {
        let mut r = MetricsReport::new();
        for (seq, resp) in [(0u32, 2u64), (1, 4), (2, 6), (3, 8)] {
            r.record(inst(0, seq, 0, 100, Some(resp)));
        }
        assert_eq!(r.response_percentile(TxnId(0), 0.5), Some(Duration(4)));
        assert_eq!(r.response_percentile(TxnId(0), 1.0), Some(Duration(8)));
        assert_eq!(r.response_percentile(TxnId(0), 0.0), Some(Duration(2)));
        assert_eq!(r.response_percentile(TxnId(1), 0.5), None);
    }

    #[test]
    fn single_blocking_stat() {
        let mut r = MetricsReport::new();
        let mut a = inst(0, 0, 0, 10, Some(4));
        a.distinct_lower_blockers = vec![TxnId(2)];
        r.record(a);
        assert_eq!(r.max_distinct_lower_blockers(), 1);
    }
}
