//! A fixed-bin log2 latency histogram.
//!
//! 64 power-of-two bins cover the full `u64` nanosecond range: bin `i`
//! counts samples in `[2^i, 2^(i+1))` (bin 0 also takes 0 ns). Recording
//! is one atomic increment — lock-free, wait-free, shareable across any
//! number of threads by reference — and the memory footprint is a flat
//! 512 bytes regardless of sample count. Quantiles interpolate linearly
//! *within* the bin holding the quantile sample (by its rank among the
//! bin's samples), so reported percentiles are meaningful numbers
//! rather than the raw power-of-two bin edges (a bare log2 histogram
//! can only ever answer 67.1 ms or 134.2 ms — useless for diffing
//! benchmark runs). The estimate stays inside the sample's
//! bin, so it is never more than 2× the true latency and never below
//! the bin's lower edge — the right fidelity for serving dashboards at
//! zero steady-state cost (no allocation, ever).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const BINS: usize = 64;

/// A concurrent log2 histogram of nanosecond latencies.
pub struct LatencyHistogram {
    bins: [AtomicU64; BINS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            bins: [const { AtomicU64::new(0) }; BINS],
        }
    }
}

/// The bin a sample falls in: `floor(log2(ns))`, with 0 mapped to bin 0.
#[inline]
fn bin_of(ns: u64) -> usize {
    (63 - (ns | 1).leading_zeros()) as usize
}

/// The exclusive upper boundary of a bin, saturating at `u64::MAX`.
#[inline]
fn bin_upper(bin: usize) -> u64 {
    if bin >= BINS - 1 {
        u64::MAX
    } else {
        1u64 << (bin + 1)
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample in nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.bins[bin_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one latency sample from a [`Duration`] (saturating at
    /// `u64::MAX` nanoseconds — ~584 years).
    #[inline]
    pub fn record(&self, latency: Duration) {
        self.record_ns(u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.bins.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Folds the counts of `other` into `self` (e.g. merging per-worker
    /// histograms into a fleet-wide one).
    pub fn merge(&self, other: &LatencyHistogram) {
        for (mine, theirs) in self.bins.iter().zip(&other.bins) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) in nanoseconds, linearly
    /// interpolated within the bin holding the quantile sample: if the
    /// sample is the `r`-th of `c` samples in `[lo, hi)`, the estimate
    /// is `lo + (hi - lo) · r/c`. A lone sample in its bin reports the
    /// bin's upper bound (the pre-interpolation behavior), so the
    /// estimate is always in `(lo, hi]` — within 2× of the true
    /// latency, and no longer pinned to power-of-two edges. Returns 0
    /// for an empty histogram.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let mut counts = [0u64; BINS];
        for (count, bin) in counts.iter_mut().zip(&self.bins) {
            *count = bin.load(Ordering::Relaxed);
        }
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        // The rank of the quantile sample, 1-based, clamped into range.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (bin, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lo = if bin == 0 { 0 } else { 1u64 << bin };
                let hi = bin_upper(bin);
                let within = (rank - seen) as f64 / c as f64;
                return lo + ((hi - lo) as f64 * within).round() as u64;
            }
            seen += c;
        }
        bin_upper(BINS - 1)
    }

    /// Median latency estimate, ns.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 95th-percentile latency estimate, ns.
    pub fn p95_ns(&self) -> u64 {
        self.quantile_ns(0.95)
    }

    /// 99th-percentile latency estimate, ns.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count())
            .field("p50_ns", &self.p50_ns())
            .field("p95_ns", &self.p95_ns())
            .field("p99_ns", &self.p99_ns())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_cover_the_u64_range() {
        assert_eq!(bin_of(0), 0);
        assert_eq!(bin_of(1), 0);
        assert_eq!(bin_of(2), 1);
        assert_eq!(bin_of(3), 1);
        assert_eq!(bin_of(4), 2);
        assert_eq!(bin_of(u64::MAX), 63);
        assert_eq!(bin_upper(0), 2);
        assert_eq!(bin_upper(62), 1 << 63);
        assert_eq!(bin_upper(63), u64::MAX);
    }

    #[test]
    fn quantiles_are_upper_bounds_within_2x() {
        let h = LatencyHistogram::new();
        assert_eq!(h.p50_ns(), 0); // empty
        for ns in [100u64, 200, 400, 800, 1600, 3200, 6400, 12800, 25600, 51200] {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 10);
        for q in [0.5, 0.95, 0.99] {
            let est = h.quantile_ns(q);
            let rank = ((q * 10.0).ceil() as usize).clamp(1, 10);
            let exact = [100u64, 200, 400, 800, 1600, 3200, 6400, 12800, 25600, 51200][rank - 1];
            assert!(est >= exact, "q={q}: {est} < exact {exact}");
            assert!(est <= exact * 2, "q={q}: {est} > 2x exact {exact}");
        }
    }

    #[test]
    fn uniform_samples_give_sane_percentile_ordering() {
        let h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record_ns(i * 1000); // 1µs .. 1ms
        }
        let (p50, p95, p99) = (h.p50_ns(), h.p95_ns(), h.p99_ns());
        assert!(p50 <= p95 && p95 <= p99);
        assert!((500_000..=1_048_576).contains(&p50));
        assert!(p99 >= 990_000);
    }

    #[test]
    fn quantiles_interpolate_within_a_bin() {
        // 64 samples spread across one bin, [2^25, 2^26) ≈ 33.6–67.1 ms:
        // a pure log2 readout could only ever answer 67108864 exactly.
        let h = LatencyHistogram::new();
        let lo = 1u64 << 25;
        for i in 0..64u64 {
            h.record_ns(lo + i * (lo / 64));
        }
        let p50 = h.p50_ns();
        assert_ne!(p50, 1 << 26, "p50 must not sit on the bin edge");
        assert!(p50 > lo && p50 <= 1 << 26);
        // Rank 32 of 64 -> halfway through the bin.
        assert_eq!(p50, lo + lo / 2);
        // Higher quantiles move monotonically toward the upper edge.
        let p95 = h.p95_ns();
        let p99 = h.p99_ns();
        assert!(p50 < p95 && p95 < p99 && p99 <= 1 << 26);
        // The true p99 (sample 64 of 64 at ~lo + 63/64·lo) is within the
        // interpolated estimate's bin resolution.
        assert!((p99 as f64 - (lo + 63 * (lo / 64)) as f64).abs() < lo as f64 / 8.0);
    }

    #[test]
    fn merge_accumulates_counts() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record(Duration::from_micros(10));
        b.record(Duration::from_micros(1000));
        b.record(Duration::from_micros(1000));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!(a.p99_ns() >= 1_000_000 / 2);
        // The donor is untouched.
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = LatencyHistogram::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        h.record_ns(t * 1_000_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
    }
}
