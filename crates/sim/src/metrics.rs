//! Bounded-memory metrics: counters, gauges, and log-bucketed
//! histograms, organized in a per-engine [`MetricsRegistry`].
//!
//! The registry replaces ad-hoc raw-sample collection on high-volume
//! paths: a [`LogHistogram`] holds a fixed ~8 KB bucket array no matter
//! how many samples are recorded, so snapshotting metrics mid-run adds
//! no heap growth proportional to sample count (an explicit acceptance
//! criterion for this subsystem; `Sampler` keeps every sample and is
//! reserved for low-volume paths that need exact percentiles).
//!
//! Metrics are keyed by `(scope, name)` where scope is typically a node
//! name (`"switch0"`, `"orion-phy"`) or a link (`"link:ru->switch"`).
//! Storage is `BTreeMap`, so iteration — and therefore the one
//! exporter, [`MetricsRegistry::to_text`] — is deterministic.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of linear sub-buckets per power-of-two major bucket, as a
/// shift: 2^4 = 16 sub-buckets ⇒ relative quantization error ≤ 1/16.
const SUB_BITS: u32 = 4;
const SUBS: u64 = 1 << SUB_BITS;
/// Bucket count: values 0..16 map to exact buckets 0..16; each major
/// power 4..=63 contributes 16 sub-buckets.
const BUCKETS: usize = (SUBS + (64 - SUB_BITS as u64) * SUBS) as usize;

/// Fixed-size histogram with logarithmic major buckets and 16 linear
/// sub-buckets each: exact below 32, ≤ 6.25% relative error above.
#[derive(Clone)]
pub struct LogHistogram {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("mean", &self.mean())
            .finish()
    }
}

fn bucket_index(v: u64) -> usize {
    if v < SUBS {
        v as usize
    } else {
        let major = 63 - v.leading_zeros(); // floor(log2 v), >= SUB_BITS
        let minor = (v >> (major - SUB_BITS)) & (SUBS - 1);
        ((major - SUB_BITS + 1) as u64 * SUBS + minor) as usize
    }
}

/// Inclusive upper bound of a bucket (what percentile queries report:
/// a conservative over-estimate, never an under-estimate).
fn bucket_upper(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUBS {
        idx
    } else {
        let major = (idx / SUBS - 1) + SUB_BITS as u64;
        let minor = idx % SUBS;
        let lower = (1u64 << major) | (minor << (major - SUB_BITS as u64));
        // Parenthesized so the top bucket (upper == u64::MAX) does not
        // overflow in `lower + width` before the subtraction.
        lower + ((1u64 << (major - SUB_BITS as u64)) - 1)
    }
}

impl LogHistogram {
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Nearest-rank percentile, reported as the containing bucket's
    /// upper bound (clamped to the observed max): conservative for
    /// latency SLO checks. `p` in (0, 100].
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_upper(idx).min(self.max));
            }
        }
        Some(self.max)
    }

    pub fn p50(&self) -> Option<u64> {
        self.percentile(50.0)
    }

    pub fn p99(&self) -> Option<u64> {
        self.percentile(99.0)
    }

    pub fn p999(&self) -> Option<u64> {
        self.percentile(99.9)
    }

    pub fn p99999(&self) -> Option<u64> {
        self.percentile(99.999)
    }

    /// Merge another histogram into this one (used when aggregating
    /// per-node histograms into a deployment-wide view).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Registry of named metrics scoped by component.
///
/// All maps are `BTreeMap` keyed by `(scope, name)`, so iteration order
/// — and every exporter built on it — is deterministic.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<(String, String), u64>,
    gauges: BTreeMap<(String, String), i64>,
    histograms: BTreeMap<(String, String), LogHistogram>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Set a counter to an absolute value (for publishing externally
    /// maintained totals, e.g. link stats, idempotently).
    pub(crate) fn set_counter(&mut self, scope: &str, name: &str, value: u64) {
        self.counters
            .insert((scope.to_string(), name.to_string()), value);
    }

    pub fn counter(&self, scope: &str, name: &str) -> u64 {
        self.counters
            .get(&(scope.to_string(), name.to_string()))
            .copied()
            .unwrap_or(0)
    }

    pub(crate) fn set_gauge(&mut self, scope: &str, name: &str, value: i64) {
        self.gauges
            .insert((scope.to_string(), name.to_string()), value);
    }

    pub fn gauge(&self, scope: &str, name: &str) -> Option<i64> {
        self.gauges
            .get(&(scope.to_string(), name.to_string()))
            .copied()
    }

    /// Record a sample into a histogram, creating it if absent.
    pub fn observe(&mut self, scope: &str, name: &str, value: u64) {
        self.histograms
            .entry((scope.to_string(), name.to_string()))
            .or_default()
            .record(value);
    }

    pub fn histogram(&self, scope: &str, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(&(scope.to_string(), name.to_string()))
    }

    /// Mutable handle to a histogram, creating it if absent (for hot
    /// paths that want to avoid the per-sample key lookup).
    pub(crate) fn histogram_mut(&mut self, scope: &str, name: &str) -> &mut LogHistogram {
        self.histograms
            .entry((scope.to_string(), name.to_string()))
            .or_default()
    }

    pub fn counters(&self) -> impl Iterator<Item = (&str, &str, u64)> {
        self.counters
            .iter()
            .map(|((s, n), v)| (s.as_str(), n.as_str(), *v))
    }

    pub fn histograms(&self) -> impl Iterator<Item = (&str, &str, &LogHistogram)> {
        self.histograms
            .iter()
            .map(|((s, n), h)| (s.as_str(), n.as_str(), h))
    }

    /// Merge another registry into this one: counters add, gauges take
    /// the other's value, histograms merge.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for ((s, n), v) in &other.counters {
            *self.counters.entry((s.clone(), n.clone())).or_insert(0) += v;
        }
        for ((s, n), v) in &other.gauges {
            self.gauges.insert((s.clone(), n.clone()), *v);
        }
        for ((s, n), h) in &other.histograms {
            self.histograms
                .entry((s.clone(), n.clone()))
                .or_default()
                .merge(h);
        }
    }

    /// Human-readable dump, grouped by scope, deterministic order.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let mut last_scope: Option<&str> = None;
        let write_scope = |out: &mut String, scope: &str, last: &mut Option<&str>| {
            if *last != Some(scope) {
                let _ = writeln!(out, "[{scope}]");
            }
        };
        for ((scope, name), v) in &self.counters {
            write_scope(&mut out, scope, &mut last_scope);
            last_scope = Some(scope);
            let _ = writeln!(out, "  {name} = {v}");
        }
        for ((scope, name), v) in &self.gauges {
            write_scope(&mut out, scope, &mut last_scope);
            last_scope = Some(scope);
            let _ = writeln!(out, "  {name} = {v} (gauge)");
        }
        for ((scope, name), h) in &self.histograms {
            write_scope(&mut out, scope, &mut last_scope);
            last_scope = Some(scope);
            if h.is_empty() {
                let _ = writeln!(out, "  {name}: empty histogram");
            } else {
                let _ = writeln!(
                    out,
                    "  {name}: n={} min={} p50={} p99={} p99.9={} p99.999={} max={} mean={:.1}",
                    h.count(),
                    h.min().unwrap_or(0),
                    h.p50().unwrap_or(0),
                    h.p99().unwrap_or(0),
                    h.p999().unwrap_or(0),
                    h.p99999().unwrap_or(0),
                    h.max().unwrap_or(0),
                    h.mean().unwrap_or(0.0),
                );
            }
        }
        out
    }
}

/// Where a node's [`instrument`](crate::engine::Node::instrument)
/// publishes its metrics. The registry is the production sink; tests
/// can capture with their own impl.
///
/// Publication uses *set* semantics (counters are absolute totals, not
/// deltas), so publishing twice is idempotent — nodes keep their own
/// live tallies and snapshot them through this interface.
pub trait InstrumentSink {
    fn counter(&mut self, scope: &str, name: &str, value: u64);
    fn gauge(&mut self, scope: &str, name: &str, value: i64);
    fn histogram(&mut self, scope: &str, name: &str, h: &LogHistogram);
}

impl InstrumentSink for MetricsRegistry {
    fn counter(&mut self, scope: &str, name: &str, value: u64) {
        self.set_counter(scope, name, value);
    }

    fn gauge(&mut self, scope: &str, name: &str, value: i64) {
        self.set_gauge(scope, name, value);
    }

    fn histogram(&mut self, scope: &str, name: &str, h: &LogHistogram) {
        // Replace rather than merge: publishing is a snapshot.
        *self.histogram_mut(scope, name) = h.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_buckets_below_32() {
        for v in 0..32 {
            let idx = bucket_index(v);
            assert_eq!(bucket_upper(idx), v, "value {v} should be exact");
        }
    }

    #[test]
    fn bucket_error_bounded() {
        for v in [33, 100, 1_000, 65_535, 1 << 20, u64::MAX / 2, u64::MAX] {
            let upper = bucket_upper(bucket_index(v));
            assert!(upper >= v, "upper bound must not underestimate {v}");
            // Relative over-estimate ≤ 1/16.
            let err = (upper - v) as f64 / v as f64;
            assert!(err <= 1.0 / 16.0 + 1e-12, "v={v} upper={upper} err={err}");
        }
    }

    #[test]
    fn buckets_are_monotone_and_in_range() {
        let mut prev = None;
        for v in (0..1_000_000u64).step_by(997) {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS);
            if let Some(p) = prev {
                assert!(idx >= p, "bucket index must be monotone in value");
            }
            prev = Some(idx);
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn histogram_percentiles_conservative() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(1000));
        let p50 = h.p50().unwrap();
        assert!((500..=532).contains(&p50), "p50={p50}");
        let p99 = h.p99().unwrap();
        assert!((990..=1000).contains(&p99), "p99={p99}");
        assert_eq!(h.p99999(), Some(1000));
        let mean = h.mean().unwrap();
        assert!((mean - 500.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_memory_is_flat() {
        // The whole point: recording a million samples allocates nothing
        // beyond the fixed bucket array.
        let mut h = LogHistogram::new();
        let before = std::mem::size_of_val(&*h.buckets);
        for v in 0..1_000_000u64 {
            h.record(v % 10_000);
        }
        let after = std::mem::size_of_val(&*h.buckets);
        assert_eq!(before, after);
        assert_eq!(h.count(), 1_000_000);
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut m = MetricsRegistry::new();
        m.set_counter("switch0", "dl_filtered", 5);
        m.set_gauge("orion", "active_phy", 2);
        m.observe("phy1", "fwd_ns", 120);
        m.observe("phy1", "fwd_ns", 180);
        assert_eq!(m.counter("switch0", "dl_filtered"), 5);
        assert_eq!(m.counter("switch0", "absent"), 0);
        assert_eq!(m.gauge("orion", "active_phy"), Some(2));
        assert_eq!(m.histogram("phy1", "fwd_ns").unwrap().count(), 2);
    }

    #[test]
    fn exporters_are_deterministic() {
        let build = || {
            let mut m = MetricsRegistry::new();
            // Insert in different orders; BTreeMap normalizes.
            m.set_counter("b", "z", 1);
            m.set_counter("a", "y", 2);
            m.set_gauge("c", "g", -7);
            m.observe("a", "h", 42);
            m
        };
        let build2 = || {
            let mut m = MetricsRegistry::new();
            m.observe("a", "h", 42);
            m.set_gauge("c", "g", -7);
            m.set_counter("a", "y", 2);
            m.set_counter("b", "z", 1);
            m
        };
        assert_eq!(build().to_text(), build2().to_text());
    }

    #[test]
    fn merge_combines() {
        let mut a = MetricsRegistry::new();
        a.set_counter("s", "c", 1);
        a.observe("s", "h", 10);
        let mut b = MetricsRegistry::new();
        b.set_counter("s", "c", 2);
        b.observe("s", "h", 20);
        a.merge(&b);
        assert_eq!(a.counter("s", "c"), 3);
        assert_eq!(a.histogram("s", "h").unwrap().count(), 2);
    }

    #[test]
    fn empty_histogram_yields_none_everywhere() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.percentile(0.0), None);
        assert_eq!(h.percentile(100.0), None);
    }

    #[test]
    fn single_sample_dominates_every_percentile() {
        let mut h = LogHistogram::new();
        h.record(777);
        for p in [0.0, 0.001, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), Some(777), "p={p}");
        }
        assert_eq!(h.min(), Some(777));
        assert_eq!(h.max(), Some(777));
        assert_eq!(h.mean(), Some(777.0));
    }

    #[test]
    fn percentile_extremes_clamp_to_observed_range() {
        let mut h = LogHistogram::new();
        for v in [3, 10, 1_000, 50_000] {
            h.record(v);
        }
        // p=0.0 clamps the rank to the first sample's bucket; p=100.0
        // reports exactly the observed max, never the bucket's upper
        // bound beyond it.
        assert_eq!(h.percentile(0.0), Some(3));
        assert_eq!(h.percentile(100.0), Some(50_000));
    }

    #[test]
    fn saturation_bucket_holds_u64_max() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(1);
        // The top bucket's upper bound must not overflow, and the
        // percentile clamp keeps reports at the observed max.
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.percentile(100.0), Some(u64::MAX));
        assert_eq!(h.p50(), Some(u64::MAX));
        assert!(bucket_index(u64::MAX) < BUCKETS);
        assert!(bucket_upper(bucket_index(u64::MAX)) >= u64::MAX - 1);
    }

    #[test]
    fn merge_of_disjoint_ranges_combines_extremes() {
        let mut low = LogHistogram::new();
        for v in 1..=100u64 {
            low.record(v);
        }
        let mut high = LogHistogram::new();
        for v in 1_000_000..=1_000_100u64 {
            high.record(v);
        }
        low.merge(&high);
        assert_eq!(low.count(), 201);
        assert_eq!(low.min(), Some(1));
        assert_eq!(low.max(), Some(1_000_100));
        // p25 still lands in the low range, p99 in the high range.
        assert!(low.percentile(25.0).unwrap() <= 100);
        assert!(low.percentile(99.0).unwrap() >= 1_000_000);
        // Merging an empty histogram is a no-op.
        let before = low.count();
        low.merge(&LogHistogram::new());
        assert_eq!(low.count(), before);
        assert_eq!(low.min(), Some(1));
    }
}
