//! Log-bucketed latency histogram (no external dependencies).
//!
//! Values 0–15 ns get exact buckets; above that each power-of-two octave
//! is split into four sub-buckets (~±12.5% relative error), the classic
//! HdrHistogram-style layout collapsed to two significant bits. 256
//! buckets cover the full `u64` range, so recording never saturates; the
//! exact maximum is tracked on the side.

/// A fixed-size log-bucketed histogram of nanosecond latencies.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    buckets: [u64; 256],
    count: u64,
    max: u64,
    min: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [0; 256],
            count: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    #[inline]
    fn bucket_of(value: u64) -> usize {
        if value < 16 {
            value as usize
        } else {
            let msb = 63 - value.leading_zeros() as usize; // >= 4
            let sub = ((value >> (msb - 2)) & 0b11) as usize;
            16 + (msb - 4) * 4 + sub
        }
    }

    /// Inclusive value range covered by a bucket.
    fn bucket_range(idx: usize) -> (u64, u64) {
        if idx < 16 {
            (idx as u64, idx as u64)
        } else {
            let octave = (idx - 16) / 4 + 4;
            let sub = ((idx - 16) % 4) as u64;
            let width = 1u64 << (octave - 2);
            let low = (1u64 << octave) + sub * width;
            // `low + width` overflows u64 for the topmost bucket; adding
            // the already-decremented width stays in range.
            (low, low + (width - 1))
        }
    }

    /// Record one value.
    pub fn record(&mut self, value: u64) {
        let b = &mut self.buckets[Self::bucket_of(value)];
        *b = b.saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.max = self.max.max(value);
        self.min = self.min.min(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact minimum recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// The `q`-quantile (`0.0..=1.0`), interpolated by rank within the
    /// bucket holding it. The bucket's value span is first clipped to the
    /// exact observed min/max, so the top bucket interpolates toward the
    /// true maximum instead of reporting the bucket's upper bound (the
    /// old midpoint-and-clamp scheme collapsed every tail quantile that
    /// landed in the max's bucket onto `max` itself). Returns 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        if q >= 1.0 {
            return self.max;
        }
        // Nearest-rank (1-based): the smallest value with at least
        // ceil(q * count) observations at or below it.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let before = seen;
            seen += c;
            if seen >= rank {
                let (low, high) = Self::bucket_range(idx);
                let lo = low.max(self.min);
                let hi = high.min(self.max);
                if lo >= hi {
                    return lo;
                }
                // Position of the rank among this bucket's occupants.
                let frac = (rank - before) as f64 / c as f64;
                return lo + ((hi - lo) as f64 * frac).round() as u64;
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_sixteen() {
        let mut h = LatencyHistogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 15);
    }

    #[test]
    fn buckets_partition_the_range() {
        // Every value maps into a bucket whose range contains it, and
        // bucket ranges tile contiguously.
        for v in [0, 1, 15, 16, 17, 31, 32, 100, 1_000, 123_456, u64::MAX / 2] {
            let idx = LatencyHistogram::bucket_of(v);
            let (low, high) = LatencyHistogram::bucket_range(idx);
            assert!(low <= v && v <= high, "value {v} outside bucket {idx}");
        }
        for idx in 0..255 {
            let (_, high) = LatencyHistogram::bucket_range(idx);
            let (next_low, _) = LatencyHistogram::bucket_range(idx + 1);
            assert_eq!(high + 1, next_low, "gap after bucket {idx}");
        }
    }

    #[test]
    fn quantiles_are_order_of_magnitude_accurate() {
        let mut h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        // Sub-bucket resolution bounds relative error by ~±12.5%.
        assert!((4_200..=5_800).contains(&p50), "p50 = {p50}");
        assert!((8_700..=10_000).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile(1.0), 10_000);
    }

    #[test]
    fn tail_quantile_in_top_bucket_interpolates_below_max() {
        // Regression for the p99 == max artifact: when the p99 rank lands
        // in the same bucket as the maximum and the bucket midpoint sits
        // above the true max, the old midpoint-and-clamp scheme collapsed
        // the quantile onto `max` exactly. Rank interpolation keeps it
        // inside the bucket's observed span.
        let mut h = LatencyHistogram::new();
        for _ in 0..98 {
            h.record(100);
        }
        h.record(8_192);
        h.record(8_300);
        let p99 = h.quantile(0.99);
        assert!(p99 >= 8_192, "p99 {p99} fell below its bucket");
        assert!(p99 < h.max(), "p99 {p99} collapsed onto max {}", h.max());
        assert_eq!(h.quantile(1.0), 8_300);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
    }
}
