//! The open-loop arrival schedule and the loop that paces to it.
//!
//! An open loop models independent users: requests are sent on a schedule
//! that does not slow down when the system does. The schedule is a pure
//! function of `(set, rate, count, seed)`; the program under test receives
//! only the requests.

use rtdb::types::{TransactionSet, TxnId};
use rtdb_util::Rng;

/// One scheduled request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// When the request is due, ns from the start of the run.
    pub due_ns: u64,
    /// The template it instantiates.
    pub txn: TxnId,
}

/// `count` Poisson arrivals at an aggregate `rate_per_s`.
///
/// Each template is its own Poisson process (exponential gaps from its own
/// generator, split off `seed` in template order) with a rate proportional
/// to `1/period`, as in the periodic model. The streams are merged by due
/// time, cut to the first `count`, and stretched so that the last one is
/// due at exactly `count / rate_per_s`: every schedule of one rate then
/// offers exactly that rate, and the number of arrivals is no source of
/// run-to-run difference.
pub fn poisson_schedule(
    set: &TransactionSet,
    rate_per_s: f64,
    count: usize,
    seed: u64,
) -> Vec<Arrival> {
    assert!(rate_per_s > 0.0 && count > 0 && !set.is_empty());
    let weights: Vec<f64> = set
        .templates()
        .iter()
        .map(|t| 1.0 / t.period.raw() as f64)
        .collect();
    let total: f64 = weights.iter().sum();
    let mut root = Rng::seed(seed);
    let mut merged: Vec<(f64, TxnId)> = Vec::with_capacity(count * set.len());
    for (i, w) in weights.iter().enumerate() {
        let mut rng = root.split();
        let mean_gap_ns = 1e9 / (rate_per_s * w / total);
        let mut at = 0.0f64;
        // `count` per template is more than the merge can use.
        for _ in 0..count {
            at += -(1.0 - rng.f64()).ln() * mean_gap_ns;
            merged.push((at, TxnId(i as u32)));
        }
    }
    merged.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    merged.truncate(count);
    let span_ns = count as f64 / rate_per_s * 1e9;
    let stretch = span_ns / merged[count - 1].0;
    merged
        .into_iter()
        .map(|(at, txn)| Arrival {
            due_ns: (at * stretch).round() as u64,
            txn,
        })
        .collect()
}

/// Spin until `clock()` reaches `due_ns`. Returns the clock reading at
/// which the wait ended, so the caller can record how late it ran.
///
/// The generator never sleeps. A sleeping thread lets its virtual CPU
/// halt, and on the shared host this was sized on the wake-up then comes
/// up to 0.8 ms late at the 99th percentile in every round, which the
/// latency (timed from the due time) would charge to the system. Spinning
/// costs the generator's CPU, which the open-loop workloads set aside for
/// it: one worker, one generator, two CPUs.
pub fn wait_until(clock: impl Fn() -> u64, due_ns: u64) -> u64 {
    loop {
        let now = clock();
        if now >= due_ns {
            return now;
        }
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb::types::{SetBuilder, Step, TransactionTemplate};

    fn set() -> TransactionSet {
        SetBuilder::new()
            .with(TransactionTemplate::new("fast", 10, vec![Step::compute(1)]))
            .with(TransactionTemplate::new("slow", 40, vec![Step::compute(1)]))
            .build_rate_monotonic()
            .unwrap()
    }

    #[test]
    fn same_seed_same_schedule() {
        let s = set();
        assert_eq!(
            poisson_schedule(&s, 2000.0, 500, 7),
            poisson_schedule(&s, 2000.0, 500, 7)
        );
        assert_ne!(
            poisson_schedule(&s, 2000.0, 500, 7),
            poisson_schedule(&s, 2000.0, 500, 8)
        );
    }

    #[test]
    fn a_schedule_offers_exactly_its_rate() {
        let s = set();
        for (rate, count) in [(1000.0, 400usize), (2000.0, 400), (3000.0, 1200)] {
            let sched = poisson_schedule(&s, rate, count, 11);
            assert_eq!(sched.len(), count);
            assert!(sched.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
            let span = sched.last().unwrap().due_ns as f64;
            assert!((span - count as f64 / rate * 1e9).abs() <= 1.0);
        }
    }

    #[test]
    fn doubling_the_rate_halves_every_due_time() {
        let s = set();
        let slow = poisson_schedule(&s, 1000.0, 300, 3);
        let fast = poisson_schedule(&s, 2000.0, 300, 3);
        for (a, b) in slow.iter().zip(&fast) {
            assert_eq!(a.txn, b.txn);
            assert!((a.due_ns as f64 / 2.0 - b.due_ns as f64).abs() <= 1.0);
        }
    }

    #[test]
    fn template_shares_follow_one_over_period() {
        let s = set();
        let sched = poisson_schedule(&s, 2000.0, 20_000, 5);
        let fast = sched.iter().filter(|a| a.txn == TxnId(0)).count() as f64;
        // Rates 1/10 : 1/40 = 4 : 1.
        assert!((fast / 20_000.0 - 0.8).abs() < 0.02, "fast share {fast}");
    }

    #[test]
    fn the_pacer_never_returns_early() {
        let t0 = std::time::Instant::now();
        let clock = || t0.elapsed().as_nanos() as u64;
        let due = clock() + 300_000;
        assert!(wait_until(clock, due) >= due);
    }
}
