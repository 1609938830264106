//! Counters, log-bucketed histograms, and the registry that owns them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

/// Identifies a metric: a static name plus an optional static label
/// pair, e.g. `core.channel.rejected{reason=qubit_capacity}`.
///
/// Names follow the `<crate>.<component>.<name>` convention; labels are
/// drawn from static sets so metric registration never allocates on the
/// hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (`<crate>.<component>.<name>`).
    pub name: &'static str,
    /// Optional `(key, value)` label refinement.
    pub label: Option<(&'static str, &'static str)>,
}

impl MetricKey {
    /// The canonical rendered form, `name` or `name{key=value}`.
    pub fn render(&self) -> String {
        match self.label {
            Some((k, v)) => format!("{}{{{}={}}}", self.name, k, v),
            None => self.name.to_string(),
        }
    }
}

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of power-of-two buckets in a [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A log-bucketed histogram of `u64` samples.
///
/// Bucket `i` counts samples whose value `v` satisfies
/// `2^(i-1) ≤ v < 2^i` (bucket 0 counts `v == 0`), i.e. the bucket index
/// is the sample's bit length. Recording is three relaxed atomic adds.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        let bucket = (u64::BITS - value.leading_zeros()) as usize;
        // value == u64::MAX has bit length 64; clamp into the top bucket.
        let bucket = bucket.min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Per-bucket counts.
    pub fn buckets(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of one counter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Rendered metric key (`name` or `name{key=value}`).
    pub key: String,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// A point-in-time copy of one histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Rendered metric key.
    pub key: String,
    /// Sample count.
    pub count: u64,
    /// Sample sum.
    pub sum: u64,
    /// Mean sample.
    pub mean: f64,
    /// Estimated median (see [`quantiles_from_buckets`]).
    pub p50: f64,
    /// Estimated 90th percentile.
    pub p90: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
    /// Non-empty `(bucket_index, count)` pairs; bucket `i` covers
    /// `[2^(i-1), 2^i)` with bucket 0 holding zeros.
    pub buckets: Vec<(usize, u64)>,
}

/// Estimates the (p50, p90, p99) summary quantiles of a log-bucketed
/// histogram from its sparse `(bucket_index, count)` pairs.
///
/// The rank of quantile `q` is `ceil(q·count)` (1-based); the estimate
/// interpolates linearly inside the bucket holding that rank, whose
/// value range is `[2^(i-1), 2^i)` (bucket 0 is exactly 0). Samples are
/// integers, so the interpolation targets the bucket's largest
/// *attainable* value `2^i − 1`, never the exclusive upper edge — a
/// single-bucket histogram of all-ones therefore reports exactly 1, not
/// 2. Bounded by construction to at most one octave of error — the
/// price of sparse fixed-size buckets over full sample retention.
pub fn quantiles_from_buckets(count: u64, buckets: &[(usize, u64)]) -> (f64, f64, f64) {
    if count == 0 {
        return (0.0, 0.0, 0.0);
    }
    let one = |q: f64| -> f64 {
        let rank = (q * count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(i, n) in buckets {
            if seen + n >= rank {
                if i == 0 {
                    return 0.0;
                }
                let lo = (1u128 << (i - 1)) as f64;
                let hi = ((1u128 << i) - 1) as f64;
                let into = (rank - seen) as f64 / n as f64;
                return lo + into * (hi - lo);
            }
            seen += n;
        }
        // Ranks beyond the recorded mass (impossible when count matches
        // the bucket totals): the top bucket's largest attainable value.
        buckets
            .last()
            .map_or(0.0, |&(i, _)| ((1u128 << i.min(127)) - 1) as f64)
    };
    (one(0.50), one(0.90), one(0.99))
}

/// Owns all counters and histograms for one scope (usually the process,
/// via [`global`]; tests may build private registries).
#[derive(Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<MetricKey, Arc<Counter>>>,
    histograms: RwLock<BTreeMap<MetricKey, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter registered under `key`, creating it on first use.
    /// The returned handle stays valid (and keeps counting into this
    /// registry) for the registry's lifetime; a [`crate::Capture`]
    /// zeroes values without invalidating handles.
    pub fn counter(&self, key: MetricKey) -> Arc<Counter> {
        if let Some(c) = self.counters.read().get(&key) {
            return Arc::clone(c);
        }
        Arc::clone(
            self.counters
                .write()
                .entry(key)
                .or_insert_with(|| Arc::new(Counter::default())),
        )
    }

    /// The histogram registered under `key`, creating it on first use.
    pub fn histogram(&self, key: MetricKey) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().get(&key) {
            return Arc::clone(h);
        }
        Arc::clone(
            self.histograms
                .write()
                .entry(key)
                .or_insert_with(|| Arc::new(Histogram::default())),
        )
    }

    /// Snapshot of all counters with non-zero values (sorted by key).
    pub fn counter_snapshots(&self) -> Vec<CounterSnapshot> {
        self.counters
            .read()
            .iter()
            .filter(|(_, c)| c.get() > 0)
            .map(|(k, c)| CounterSnapshot {
                key: k.render(),
                value: c.get(),
            })
            .collect()
    }

    /// Snapshot of all histograms with samples (sorted by key).
    pub fn histogram_snapshots(&self) -> Vec<HistogramSnapshot> {
        self.histograms
            .read()
            .iter()
            .filter(|(_, h)| h.count() > 0)
            .map(|(k, h)| {
                let count = h.count();
                let buckets: Vec<(usize, u64)> = h
                    .buckets()
                    .into_iter()
                    .enumerate()
                    .filter(|&(_, n)| n > 0)
                    .collect();
                let (p50, p90, p99) = quantiles_from_buckets(count, &buckets);
                HistogramSnapshot {
                    key: k.render(),
                    count,
                    sum: h.sum(),
                    mean: h.mean(),
                    p50,
                    p90,
                    p99,
                    buckets,
                }
            })
            .collect()
    }

    /// Total across every counter sharing `name`, regardless of label.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .read()
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, c)| c.get())
            .sum()
    }

    /// Zeroes all metrics **in place**: cached handles (e.g. the
    /// per-call-site `OnceLock`s behind `counter!`) remain valid.
    pub(crate) fn reset(&self) {
        for c in self.counters.read().values() {
            c.reset();
        }
        for h in self.histograms.read().values() {
            h.reset();
        }
    }
}

/// The process-wide registry used by the `counter!` / `histogram!`
/// macros.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: MetricKey = MetricKey {
        name: "test.registry.counter",
        label: None,
    };

    #[test]
    fn counter_identity_is_stable() {
        let reg = Registry::new();
        let a = reg.counter(KEY);
        let b = reg.counter(KEY);
        a.add(1);
        b.add(4);
        assert_eq!(reg.counter(KEY).get(), 5);
        reg.reset();
        assert_eq!(a.get(), 0);
        a.add(1);
        assert_eq!(b.get(), 1, "handles stay live across reset");
    }

    #[test]
    fn labels_split_metrics_and_totals_merge_them() {
        let reg = Registry::new();
        let hit = MetricKey {
            name: "test.cache.requests",
            label: Some(("outcome", "hit")),
        };
        let miss = MetricKey {
            name: "test.cache.requests",
            label: Some(("outcome", "miss")),
        };
        reg.counter(hit).add(7);
        reg.counter(miss).add(3);
        assert_eq!(reg.counter_total("test.cache.requests"), 10);
        let snaps = reg.counter_snapshots();
        assert_eq!(snaps.len(), 2);
        assert!(snaps
            .iter()
            .any(|s| s.key == "test.cache.requests{outcome=hit}" && s.value == 7));
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let h = Histogram::default();
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(2); // bucket 2
        h.record(3); // bucket 2
        h.record(1024); // bucket 11
        h.record(u64::MAX); // clamped to bucket 63
        assert_eq!(h.count(), 6);
        let buckets = h.buckets();
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[1], 1);
        assert_eq!(buckets[2], 2);
        assert_eq!(buckets[11], 1);
        assert_eq!(buckets[63], 1);
        let wrapped_sum = 1030u64.wrapping_add(u64::MAX); // sum wraps on overflow
        assert!((h.mean() - wrapped_sum as f64 / 6.0).abs() < 1.0);
    }

    #[test]
    fn quantiles_interpolate_within_log_buckets() {
        // 100 samples: 50 zeros, 40 in bucket 4 ([8,16)), 10 in
        // bucket 10 ([512,1024)).
        let buckets = [(0usize, 50u64), (4, 40), (10, 10)];
        let (p50, p90, p99) = quantiles_from_buckets(100, &buckets);
        assert_eq!(p50, 0.0, "rank 50 lands on the zero bucket");
        // Rank 90 is the last of bucket 4 → its largest attainable
        // value (15; the exclusive edge 16 is not a sample).
        assert_eq!(p90, 15.0);
        // Rank 99 is 9/10 into bucket 10: 512 + 0.9·512.
        assert!((p99 - (512.0 + 0.9 * 511.0)).abs() < 1e-9);
        assert_eq!(quantiles_from_buckets(0, &[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn single_bucket_of_identical_samples_reports_that_value() {
        // n samples that are all exactly 1 live alone in bucket 1
        // ([1,2)); every quantile must come back as 1, not as the
        // bucket's exclusive upper edge 2.
        for n in [1u64, 2, 100] {
            let (p50, p90, p99) = quantiles_from_buckets(n, &[(1, n)]);
            assert_eq!((p50, p90, p99), (1.0, 1.0, 1.0), "n={n}");
        }
        // A lone sample anywhere interpolates to its bucket's largest
        // attainable value.
        let (p50, p90, p99) = quantiles_from_buckets(1, &[(4, 1)]);
        assert_eq!((p50, p90, p99), (15.0, 15.0, 15.0));
    }

    #[test]
    fn empty_histogram_edges_are_total_functions() {
        // count 0 with stray buckets, and count > 0 with no buckets
        // (an impossible-but-seen shape in hand-edited baselines): both
        // must return finite estimates, not panic or NaN.
        assert_eq!(quantiles_from_buckets(0, &[(3, 4)]), (0.0, 0.0, 0.0));
        let (p50, p90, p99) = quantiles_from_buckets(5, &[]);
        assert_eq!((p50, p90, p99), (0.0, 0.0, 0.0));
        // Count larger than the bucket mass: overflow ranks fall back
        // to the top bucket's largest attainable value.
        let (_, _, p99) = quantiles_from_buckets(100, &[(1, 1)]);
        assert_eq!(p99, 1.0);
    }

    #[test]
    fn snapshot_quantiles_match_the_helper() {
        let reg = Registry::new();
        let key = MetricKey {
            name: "test.registry.latency",
            label: None,
        };
        let h = reg.histogram(key);
        for v in [0u64, 1, 2, 3, 1024] {
            h.record(v);
        }
        let snap = &reg.histogram_snapshots()[0];
        let (p50, p90, p99) = quantiles_from_buckets(snap.count, &snap.buckets);
        assert_eq!((snap.p50, snap.p90, snap.p99), (p50, p90, p99));
        assert!(snap.p50 <= snap.p90 && snap.p90 <= snap.p99);
    }

    #[test]
    fn snapshots_skip_empty_metrics() {
        let reg = Registry::new();
        reg.counter(KEY); // registered but never incremented
        assert!(reg.counter_snapshots().is_empty());
        assert!(reg.histogram_snapshots().is_empty());
    }
}
