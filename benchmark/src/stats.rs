//! Sample statistics: nearest-rank percentiles with the "ten samples
//! beyond" rule, and the quartile spread the acceptance protocol uses.

/// A set of timing samples, sorted once at construction.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile: the smallest sample with at least
    /// `q·n` samples at or below it. Panics on an empty set — every
    /// phase of the benchmark takes at least one sample.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "percentile of no samples");
        self.sorted[rank(self.sorted.len(), q) - 1]
    }

    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }

    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("max of no samples")
    }
}

/// 1-based nearest rank of quantile `q` among `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The "ten samples beyond" rule: a percentile is only as trustworthy
/// as the tail behind it.
pub fn percentile_is_supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= 10
}

/// Quartiles `(q1, q2, q3)` as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), so `--compare` and the
/// acceptance protocol agree on what "spread" means. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Inter-quartile distance as a share of the median (0 when fewer than
/// two values, or a zero median, leave it undefined).
pub fn quartile_spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q2, q3)) if q2 != 0.0 => ((q3 - q1) / q2).abs(),
        _ => 0.0,
    }
}

/// Plain median of a small value set (mean of the middle pair when the
/// count is even — Python's `statistics.median`).
pub fn median_of(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = data.len();
    if m % 2 == 1 {
        data[m / 2]
    } else {
        (data[m / 2 - 1] + data[m / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = Samples::new((1..=10).map(f64::from).rev().collect());
        assert_eq!(s.percentile(0.5), 5.0);
        assert_eq!(s.percentile(0.9), 9.0);
        assert_eq!(s.percentile(0.91), 10.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(1.0), 10.0);
        assert_eq!(s.max(), 10.0);
        let one = Samples::new(vec![7.0]);
        assert_eq!(one.percentile(0.99), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 of 100 samples is rank 90: exactly ten beyond.
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(percentile_is_supported(100, 0.9));
        assert!(!percentile_is_supported(99, 0.9));
        // p50 needs 20 samples, p99 a thousand.
        assert!(percentile_is_supported(20, 0.5));
        assert!(!percentile_is_supported(19, 0.5));
        assert!(percentile_is_supported(1000, 0.99));
        assert!(!percentile_is_supported(999, 0.99));
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 2.0, 3.5)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]),
            Some((1.5, 4.0, 12.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(quartile_spread(&v), 1.0);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
