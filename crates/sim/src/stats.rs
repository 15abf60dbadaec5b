//! Measurement utilities shared by experiments: percentile samplers
//! and rate bins (throughput per fixed interval, as the paper reports
//! at 10 ms granularity).

use crate::time::Nanos;

/// Collects samples and answers percentile queries. Stores raw samples;
/// fine for the volumes our experiments produce (millions).
#[derive(Debug, Clone, Default)]
pub struct Sampler {
    values: Vec<u64>,
    sorted: bool,
}

impl Sampler {
    pub fn new() -> Sampler {
        Sampler::default()
    }

    pub fn record(&mut self, v: u64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn record_nanos(&mut self, v: Nanos) {
        self.record(v.0);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
    }

    /// The p-th percentile (0.0 ..= 100.0) using the nearest-rank method.
    /// Returns `None` on an empty sampler.
    pub fn percentile(&mut self, p: f64) -> Option<u64> {
        if self.values.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let n = self.values.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let idx = rank.clamp(1, n) - 1;
        Some(self.values[idx])
    }

    pub fn median(&mut self) -> Option<u64> {
        self.percentile(50.0)
    }

    /// The 99th percentile (the paper's tail-latency headline figures).
    pub fn p99(&mut self) -> Option<u64> {
        self.percentile(99.0)
    }

    /// The 99.9th percentile.
    pub fn p999(&mut self) -> Option<u64> {
        self.percentile(99.9)
    }

    /// The 99.999th percentile (Fig. 12's Orion latency bound).
    pub fn p99999(&mut self) -> Option<u64> {
        self.percentile(99.999)
    }

    pub fn min(&mut self) -> Option<u64> {
        self.ensure_sorted();
        self.values.first().copied()
    }

    pub fn max(&mut self) -> Option<u64> {
        self.ensure_sorted();
        self.values.last().copied()
    }

    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().map(|v| *v as f64).sum::<f64>() / self.values.len() as f64)
        }
    }

    /// Empirical CDF as (value, cumulative fraction) pairs, decimated to
    /// at most `points` entries for plotting.
    pub fn cdf(&mut self, points: usize) -> Vec<(u64, f64)> {
        if self.values.is_empty() {
            return Vec::new();
        }
        self.ensure_sorted();
        let n = self.values.len();
        let step = (n / points.max(1)).max(1);
        let mut out = Vec::new();
        let mut i = step - 1;
        while i < n {
            out.push((self.values[i], (i + 1) as f64 / n as f64));
            i += step;
        }
        if out.last().map(|l| l.1) != Some(1.0) {
            out.push((self.values[n - 1], 1.0));
        }
        out
    }
}

/// Accumulates byte (or packet) counts into fixed-width time bins and
/// reports per-bin rates. The paper reports throughput at 10 ms bins.
#[derive(Debug, Clone)]
pub struct RateBins {
    bin_width: Nanos,
    origin: Nanos,
    bins: Vec<u64>,
}

impl RateBins {
    pub fn new(origin: Nanos, bin_width: Nanos) -> RateBins {
        assert!(bin_width.0 > 0);
        RateBins {
            bin_width,
            origin,
            bins: Vec::new(),
        }
    }

    pub fn bin_width(&self) -> Nanos {
        self.bin_width
    }

    /// Record `amount` (bytes, packets, …) at time `t`. Times before the
    /// origin are ignored.
    pub fn record(&mut self, t: Nanos, amount: u64) {
        if t < self.origin {
            return;
        }
        let idx = ((t - self.origin).0 / self.bin_width.0) as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0);
        }
        self.bins[idx] += amount;
    }

    /// Ensure bins exist through time `t` (so trailing zero bins are
    /// reported, e.g. during a blackout at the end of a run).
    pub fn extend_to(&mut self, t: Nanos) {
        if t < self.origin {
            return;
        }
        let idx = ((t - self.origin).0 / self.bin_width.0) as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0);
        }
    }

    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Per-bin Mbit/s assuming recorded amounts are bytes.
    pub fn mbps(&self) -> Vec<f64> {
        let secs = self.bin_width.0 as f64 / 1e9;
        self.bins
            .iter()
            .map(|b| (*b as f64 * 8.0) / secs / 1e6)
            .collect()
    }

    /// Time at the start of bin `i`.
    pub(crate) fn bin_start(&self, i: usize) -> Nanos {
        Nanos(self.origin.0 + i as u64 * self.bin_width.0)
    }

    /// Count of bins in `[from, to)` whose value is zero ("blackout"
    /// intervals in the paper's Table 2).
    pub fn zero_bins_between(&self, from: Nanos, to: Nanos) -> usize {
        self.bins
            .iter()
            .enumerate()
            .filter(|(i, v)| {
                let start = self.bin_start(*i);
                start >= from && start < to && **v == 0
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = Sampler::new();
        for v in 1..=100 {
            s.record(v);
        }
        assert_eq!(s.percentile(50.0), Some(50));
        assert_eq!(s.percentile(99.0), Some(99));
        assert_eq!(s.percentile(100.0), Some(100));
        assert_eq!(s.percentile(1.0), Some(1));
        assert_eq!(s.min(), Some(1));
        assert_eq!(s.max(), Some(100));
        assert_eq!(s.mean(), Some(50.5));
    }

    #[test]
    fn percentile_empty_is_none() {
        let mut s = Sampler::new();
        assert_eq!(s.percentile(50.0), None);
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn percentile_single_value() {
        let mut s = Sampler::new();
        s.record(7);
        for p in [0.0, 50.0, 99.999, 100.0] {
            assert_eq!(s.percentile(p), Some(7));
        }
    }

    #[test]
    fn cdf_monotone_and_complete() {
        let mut s = Sampler::new();
        for v in (0..1000).rev() {
            s.record(v);
        }
        let cdf = s.cdf(10);
        assert!(cdf.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(cdf.last().unwrap().1, 1.0);
    }

    #[test]
    fn rate_bins_basic() {
        let mut rb = RateBins::new(Nanos::ZERO, Nanos::from_millis(10));
        rb.record(Nanos::from_millis(1), 1000);
        rb.record(Nanos::from_millis(9), 500);
        rb.record(Nanos::from_millis(10), 200);
        rb.record(Nanos::from_millis(35), 100);
        assert_eq!(rb.bins(), &[1500, 200, 0, 100]);
        // Bin 0: 1500 bytes / 10ms = 1.2 Mbps.
        assert!((rb.mbps()[0] - 1.2).abs() < 1e-9);
    }

    #[test]
    fn rate_bins_ignore_before_origin() {
        let mut rb = RateBins::new(Nanos::from_millis(100), Nanos::from_millis(10));
        rb.record(Nanos::from_millis(50), 999);
        rb.record(Nanos::from_millis(105), 1);
        assert_eq!(rb.bins(), &[1]);
    }

    #[test]
    fn zero_bins_counts_blackouts() {
        let mut rb = RateBins::new(Nanos::ZERO, Nanos::from_millis(10));
        rb.record(Nanos::from_millis(5), 10);
        rb.extend_to(Nanos::from_millis(59));
        rb.record(Nanos::from_millis(45), 10);
        // bins: [10, 0, 0, 0, 10, 0]
        assert_eq!(rb.zero_bins_between(Nanos::ZERO, Nanos::from_millis(60)), 4);
        assert_eq!(
            rb.zero_bins_between(Nanos::from_millis(40), Nanos::from_millis(50)),
            0
        );
    }

    #[test]
    fn nearest_rank_single_sample() {
        // With one sample, every percentile is that sample: rank
        // ceil(p/100 * 1) clamps to 1.
        let mut s = Sampler::new();
        s.record(42);
        for p in [0.0, 0.001, 50.0, 99.0, 99.9, 99.999, 100.0] {
            assert_eq!(s.percentile(p), Some(42), "p={p}");
        }
        assert_eq!(s.p99(), Some(42));
        assert_eq!(s.p999(), Some(42));
        assert_eq!(s.p99999(), Some(42));
    }

    #[test]
    fn nearest_rank_two_samples() {
        // n=2: rank = ceil(p/50). p <= 50 picks the lower sample,
        // p > 50 the upper.
        let mut s = Sampler::new();
        s.record(10);
        s.record(20);
        assert_eq!(s.percentile(50.0), Some(10));
        assert_eq!(s.percentile(50.1), Some(20));
        assert_eq!(s.median(), Some(10));
        assert_eq!(s.p99(), Some(20));
        assert_eq!(s.p999(), Some(20));
        assert_eq!(s.p99999(), Some(20));
    }

    #[test]
    fn nearest_rank_hundred_samples() {
        // n=100 with values 1..=100: nearest-rank p-th percentile is
        // exactly ceil(p) for integral p in (0, 100].
        let mut s = Sampler::new();
        for v in 1..=100 {
            s.record(v);
        }
        assert_eq!(s.percentile(1.0), Some(1));
        assert_eq!(s.percentile(50.0), Some(50));
        assert_eq!(s.p99(), Some(99));
        // Fractional percentiles round the rank up: 99.9 → rank 100.
        assert_eq!(s.p999(), Some(100));
        assert_eq!(s.p99999(), Some(100));
        assert_eq!(s.percentile(100.0), Some(100));
        // Out-of-range p is clamped, not panicking.
        assert_eq!(s.percentile(0.0), Some(1));
    }

    #[test]
    fn percentile_accessors_empty() {
        let mut s = Sampler::new();
        assert_eq!(s.p99(), None);
        assert_eq!(s.p999(), None);
        assert_eq!(s.p99999(), None);
    }

    #[test]
    fn percentile_sorts_unsorted_and_duplicate_input() {
        let mut s = Sampler::new();
        for v in [30, 10, 20, 10, 30] {
            s.record(v);
        }
        // n=5, rank = ceil(p/20) over sorted [10,10,20,30,30].
        assert_eq!(s.percentile(0.0), Some(10));
        assert_eq!(s.percentile(40.0), Some(10));
        assert_eq!(s.percentile(60.0), Some(20));
        assert_eq!(s.percentile(100.0), Some(30));
        assert_eq!(s.min(), Some(10));
        assert_eq!(s.max(), Some(30));
    }

    #[test]
    fn empty_extremes_and_record_nanos() {
        let mut s = Sampler::new();
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert!(s.is_empty());
        s.record_nanos(Nanos(450_000));
        assert!(!s.is_empty());
        assert_eq!(s.percentile(50.0), Some(450_000));
    }
}
