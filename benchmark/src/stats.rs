//! Medians and percentiles, with the rule for which percentile a sample
//! can support.

/// The percentiles a tail metric may fall back to, highest first.
const LADDER: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it in a sample of `n`, capped at p99; p50 when even
/// that is not supported.
pub fn supported_tail(n: usize) -> f64 {
    LADDER
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p) >= 10.0 - 1e-9)
        .unwrap_or(0.50)
}

/// Nearest-rank quantile of an ascending slice; 0 for an empty one.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and supported tail percentile of a sample, sorting it.
pub fn p50_and_tail(values: &mut [f64]) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    (
        quantile(values, 0.50),
        quantile(values, supported_tail(values.len())),
    )
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(1000), 0.99);
        assert_eq!(supported_tail(999), 0.95);
        assert_eq!(supported_tail(200), 0.95);
        assert_eq!(supported_tail(199), 0.90);
        assert_eq!(supported_tail(100), 0.90);
        assert_eq!(supported_tail(99), 0.75);
        assert_eq!(supported_tail(40), 0.75);
        assert_eq!(supported_tail(39), 0.50);
        assert_eq!(supported_tail(0), 0.50);
        // Never above p99, however large the sample.
        assert_eq!(supported_tail(10_000_000), 0.99);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.50), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
