//! Metrics: counters and HDR-style log-bucket histograms, with
//! deterministic cross-worker aggregation.
//!
//! A [`MetricsRegistry`] is a name-keyed store (sorted map, so snapshots
//! iterate in one canonical order). For parallel sections the harness
//! hands each `rayon::run_indexed` task its own shard of a
//! [`ShardedMetrics`]; folding the shards with
//! [`MetricsRegistry::merge_from`] in *index order* makes the merged
//! registry byte-identical at any thread
//! count — the same argument the workspace's parallel kernels use
//! (fixed partition + fixed combine order).
//!
//! Histograms use logarithmic buckets with linear sub-buckets
//! (HDR-histogram style): values within a power of two land in one of
//! `SUBBUCKETS/2` equal slices, giving a bounded relative error of
//! `2/SUBBUCKETS` (25 % at the default width) at every magnitude while
//! storing only a few hundred counters.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Sub-bucket granularity constant: values below it are binned exactly,
/// and each octave above it splits into `SUBBUCKETS/2` linear slices.
pub(crate) const SUBBUCKETS: usize = 8;
const OCTAVES: usize = 64;
const BUCKETS: usize = OCTAVES * SUBBUCKETS;

/// Log-bucket histogram over `u64` samples (typically microseconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    /// Non-empty buckets only, as `(bucket_index, count)` sorted by index.
    buckets: BTreeMap<usize, u64>,
    /// Total samples recorded.
    count: u64,
    /// Exact sum of all samples (for exact means).
    sum: u64,
    /// Largest sample seen.
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

/// Bucket index of a value: octave (position of the highest set bit) ×
/// SUBBUCKETS + linear position within the octave.
fn bucket_of(value: u64) -> usize {
    if value < SUBBUCKETS as u64 {
        return value as usize;
    }
    let octave = 63 - value.leading_zeros() as usize;
    // Each octave `[2^o, 2^(o+1))` splits into SUBBUCKETS/2 equal slices
    // of width `2^(o-2)`; octaves below log2(SUBBUCKETS) are covered by
    // the exact small-value range above.
    let sub = ((value >> (octave - 2)) & (SUBBUCKETS as u64 / 2 - 1)) as usize;
    let base = SUBBUCKETS + (octave - 3) * (SUBBUCKETS / 2);
    (base + sub).min(BUCKETS - 1)
}

/// Lower bound of a bucket (inverse of [`bucket_of`], for reporting).
fn bucket_floor(bucket: usize) -> u64 {
    if bucket < SUBBUCKETS {
        return bucket as u64;
    }
    let rel = bucket - SUBBUCKETS;
    let octave = 3 + rel / (SUBBUCKETS / 2);
    let sub = (rel % (SUBBUCKETS / 2)) as u64;
    (1u64 << octave) + (sub << (octave - 2))
}

impl LogHistogram {
    /// An empty histogram.
    pub(crate) fn new() -> LogHistogram {
        LogHistogram {
            buckets: BTreeMap::new(),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one sample.
    pub(crate) fn record(&mut self, value: u64) {
        *self.buckets.entry(bucket_of(value)).or_insert(0) += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Total samples recorded.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of all recorded samples (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest sample recorded.
    pub(crate) fn max(&self) -> u64 {
        self.max
    }

    /// Approximate quantile (`q` in `[0, 1]`): the floor of the bucket
    /// containing the `⌈q·count⌉`-th sample. Within 1/[`SUBBUCKETS`]
    /// relative error of the true order statistic.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (&bucket, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_floor(bucket);
            }
        }
        self.max
    }

    /// Fold `other` into `self` (bucket-wise sum; exact in `u64`).
    pub(crate) fn merge(&mut self, other: &LogHistogram) {
        for (&bucket, &n) in &other.buckets {
            *self.buckets.entry(bucket).or_insert(0) += n;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// One metric's current value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone event count.
    Counter(u64),
    /// Distribution of recorded samples.
    Histogram(LogHistogram),
}

/// A name-keyed metric store. Interior-mutable (a `Mutex` over a sorted
/// map); recording is coarse-grained (per round / per cell), so
/// contention is not a concern — determinism and simplicity are.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, MetricValue>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `n` to the counter `name` (created at 0).
    pub fn counter_add(&self, name: &str, n: u64) {
        let mut inner = self.inner.lock().unwrap();
        match inner
            .entry(name.to_string())
            .or_insert(MetricValue::Counter(0))
        {
            MetricValue::Counter(c) => *c += n,
            other => panic!("metric {name} is not a counter: {other:?}"),
        }
    }

    /// Record `value` into the histogram `name` (created empty).
    pub fn histogram_record(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock().unwrap();
        match inner
            .entry(name.to_string())
            .or_insert_with(|| MetricValue::Histogram(LogHistogram::new()))
        {
            MetricValue::Histogram(h) => h.record(value),
            other => panic!("metric {name} is not a histogram: {other:?}"),
        }
    }

    /// Current value of `name`, if recorded.
    #[cfg(test)]
    fn get(&self, name: &str) -> Option<MetricValue> {
        self.inner.lock().unwrap().get(name).cloned()
    }

    /// All metrics in name order.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        self.inner
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Fold `other` into `self`: counters add, histograms merge (callers
    /// control determinism by merging shards in a fixed order — see
    /// [`ShardedMetrics`]).
    pub fn merge_from(&self, other: &MetricsRegistry) {
        let theirs = other.snapshot();
        let mut inner = self.inner.lock().unwrap();
        for (name, value) in theirs {
            match (inner.get_mut(&name), value) {
                (Some(MetricValue::Counter(a)), MetricValue::Counter(b)) => *a += b,
                (Some(MetricValue::Histogram(a)), MetricValue::Histogram(ref b)) => a.merge(b),
                (Some(slot), value) => panic!("metric {name} kind mismatch: {slot:?} vs {value:?}"),
                (None, value) => {
                    inner.insert(name, value);
                }
            }
        }
    }

    /// Render the snapshot as one aligned text block (diagnostics).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.snapshot() {
            match value {
                MetricValue::Counter(c) => out.push_str(&format!("{name} = {c}\n")),
                MetricValue::Histogram(h) => out.push_str(&format!(
                    "{name}: n={} mean={:.1} p50={} p99={} max={}\n",
                    h.count(),
                    h.mean(),
                    h.quantile(0.5),
                    h.quantile(0.99),
                    h.max()
                )),
            }
        }
        out
    }
}

/// Per-task metric shards for deterministic parallel aggregation: task
/// `i` of a `rayon::run_indexed` fan-out records into shard `i`; the
/// merge folds shards `0, 1, …, n−1` in that order regardless of which
/// worker executed which task.
///
/// Shards are `Arc`-shared so long-lived owners (a server's per-tenant
/// registries, a session holding its tenant's shard) can record into a
/// shard independently of the `ShardedMetrics` borrow — take one with
/// [`ShardedMetrics::shard_handle`].
pub struct ShardedMetrics {
    shards: Vec<Arc<MetricsRegistry>>,
}

impl ShardedMetrics {
    /// One shard per task index.
    pub fn new(n: usize) -> ShardedMetrics {
        ShardedMetrics {
            shards: (0..n).map(|_| Arc::new(MetricsRegistry::new())).collect(),
        }
    }

    /// The shard for task `index`.
    pub fn shard(&self, index: usize) -> &MetricsRegistry {
        &self.shards[index]
    }

    /// An owning handle to the shard for task `index` (e.g. to attach it
    /// to a session builder that wants an `Arc<MetricsRegistry>`).
    pub fn shard_handle(&self, index: usize) -> Arc<MetricsRegistry> {
        Arc::clone(&self.shards[index])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fold the shards in index order, as the harness does.
    fn merge(shards: &ShardedMetrics, n: usize) -> MetricsRegistry {
        let merged = MetricsRegistry::new();
        for i in 0..n {
            merged.merge_from(shards.shard(i));
        }
        merged
    }

    #[test]
    fn bucket_roundtrip_monotone() {
        let mut last = 0;
        for v in [0u64, 1, 5, 7, 8, 9, 100, 1_000, 65_535, 1 << 40, u64::MAX] {
            let b = bucket_of(v);
            assert!(b >= last || v < 8, "bucket not monotone at {v}");
            last = last.max(b);
            assert!(
                bucket_floor(b) <= v.max(1),
                "floor {v} → {}",
                bucket_floor(b)
            );
        }
    }

    #[test]
    fn bucket_relative_error_bounded() {
        for v in [10u64, 100, 999, 12_345, 1_000_000, 123_456_789] {
            let floor = bucket_floor(bucket_of(v));
            assert!(floor <= v);
            let err = (v - floor) as f64 / v as f64;
            assert!(err <= 0.25, "value {v}: floor {floor}, err {err}");
        }
    }

    #[test]
    fn histogram_statistics() {
        let mut h = LogHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 50.5).abs() < 1e-9);
        let p50 = h.quantile(0.5);
        assert!((40..=56).contains(&p50), "p50 {p50}");
        assert!(h.quantile(1.0) <= 100);
        assert_eq!(LogHistogram::new().quantile(0.5), 0);
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut combined = LogHistogram::new();
        for v in [3u64, 17, 90, 1000] {
            a.record(v);
            combined.record(v);
        }
        for v in [8u64, 8, 4096] {
            b.record(v);
            combined.record(v);
        }
        a.merge(&b);
        assert_eq!(a, combined);
    }

    #[test]
    fn registry_counter_gauge_histogram() {
        let m = MetricsRegistry::new();
        m.counter_add("c", 2);
        m.counter_add("c", 3);
        m.histogram_record("h", 10);
        assert_eq!(m.get("c"), Some(MetricValue::Counter(5)));
        let snap = m.snapshot();
        assert_eq!(snap.len(), 2);
        // BTreeMap ⇒ name order.
        assert_eq!(snap[0].0, "c");
        assert_eq!(snap[1].0, "h");
        assert!(m.render().contains("c = 5"));
    }

    #[test]
    fn sharded_merge_is_index_ordered() {
        let shards = ShardedMetrics::new(3);
        // Simulate out-of-order worker execution: task 2 records first.
        shards.shard(2).counter_add("n", 1);
        shards.shard(0).counter_add("n", 10);
        shards.shard(1).counter_add("n", 100);
        let merged = merge(&shards, 3);
        assert_eq!(merged.get("n"), Some(MetricValue::Counter(111)));
    }

    #[test]
    fn sharded_merge_deterministic_across_orders() {
        let render_of = |order: &[usize]| {
            let shards = ShardedMetrics::new(4);
            for &i in order {
                shards.shard(i).counter_add("c", (i + 1) as u64);
                shards.shard(i).histogram_record("h", (i as u64 + 1) * 10);
            }
            merge(&shards, 4).render()
        };
        assert_eq!(render_of(&[0, 1, 2, 3]), render_of(&[3, 1, 0, 2]));
    }
}
