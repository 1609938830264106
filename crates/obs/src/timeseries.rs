//! Windowed time-series metrics: how a run *evolves*, not just its
//! totals.
//!
//! The registry's counters and histograms aggregate over a whole run;
//! under sustained load (the online admission stream) that hides
//! exactly what matters — when blocking sets in, how admission latency
//! drifts as capacity fills, whether the finder cache keeps earning its
//! hits. A [`TimeSeries`] slices a run into fixed-width **windows of
//! virtual time** and snapshots three series kinds at every window
//! boundary:
//!
//! * **rates** — monotone per-window event tallies (arrivals, blocks),
//!   reset to zero at each boundary;
//! * **gauges** — last-write-wins instantaneous values (active
//!   sessions, free qubits), carried forward across boundaries so a
//!   quiet window still reports the standing level;
//! * **latencies** — per-window log-bucketed histograms using the exact
//!   bucket scheme of [`crate::Histogram`], summarized per window with
//!   the same [`quantiles_from_buckets`] estimator the run reports use.
//!
//! ## The virtual clock
//!
//! Windows are indexed by **slot**, never wall-clock: the caller drives
//! [`TimeSeries::advance_to`] with its own simulation slot counter, so
//! a fixed-seed run produces byte-identical series on any machine at
//! any thread count. Window `w` covers slots
//! `[w·window_slots, (w+1)·window_slots)`; advancing past a boundary
//! closes the elapsed windows in order (a long quiet gap closes each
//! intervening window with zero rates and carried gauges).
//!
//! ## The ring
//!
//! Closed windows land in a fixed-capacity ring: when full, the oldest
//! window is evicted and tallied (exactly, in
//! [`TimeSeriesSection::evicted`] and the `obs.timeseries.evicted`
//! counter) — bounded memory under unbounded load, like the flight
//! recorder. [`TimeSeries::finish`] closes the final partial window and
//! freezes everything into a serializable [`TimeSeriesSection`], which
//! rides in schema-4 [`RunReport`]s and exports as a JSONL metrics
//! stream via [`write_metrics_jsonl`].
//!
//! [`write_prometheus`] is the second sink: a Prometheus-style text
//! exposition of a report's *final* counters and histogram summaries,
//! for scraping the end state of a run.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use serde_json::Value;

use crate::registry::{quantiles_from_buckets, HISTOGRAM_BUCKETS};
use crate::report::RunReport;

/// Shape of a [`TimeSeries`]: window width in slots and ring capacity
/// in windows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimeSeriesConfig {
    /// Virtual-time width of one window, in slots (clamped to ≥ 1).
    pub window_slots: u64,
    /// Maximum closed windows retained; older ones are evicted
    /// (clamped to ≥ 1).
    pub capacity: usize,
}

impl Default for TimeSeriesConfig {
    fn default() -> Self {
        TimeSeriesConfig {
            window_slots: 64,
            capacity: 256,
        }
    }
}

/// A plain (single-threaded) log-bucketed histogram for one window,
/// using the identical bucket scheme as the registry's
/// [`crate::Histogram`]: bucket `i` holds samples of bit length `i`
/// (bucket 0 = zeros, bucket `i` covers `[2^(i-1), 2^i)`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for WindowHistogram {
    fn default() -> Self {
        WindowHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl WindowHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        WindowHistogram::default()
    }

    /// Records one sample (same bucketing as [`crate::Histogram`]).
    #[inline]
    pub fn record(&mut self, value: u64) {
        let bucket = (u64::BITS - value.leading_zeros()) as usize;
        let bucket = bucket.min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
    }

    /// Adds every bucket of `other` into `self` — the exact union of
    /// the two sample sets, since the bucket scheme is shared.
    pub fn merge(&mut self, other: &WindowHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty `(bucket_index, count)` pairs, ascending.
    pub fn sparse_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// `(p50, p90, p99)` via the run-report estimator
    /// [`quantiles_from_buckets`]; all zero when empty.
    pub fn quantiles(&self) -> (f64, f64, f64) {
        quantiles_from_buckets(self.count, &self.sparse_buckets())
    }

    fn from_sparse(count: u64, sum: u64, sparse: &[(usize, u64)]) -> Option<WindowHistogram> {
        let mut h = WindowHistogram::new();
        for &(i, n) in sparse {
            if i >= HISTOGRAM_BUCKETS {
                return None;
            }
            h.buckets[i] = n;
        }
        h.count = count;
        h.sum = sum;
        Some(h)
    }
}

/// One closed window: the state of every registered series over slots
/// `[start_slot, end_slot)`.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowSnapshot {
    /// 0-based window number since the series started (survives ring
    /// eviction — the first retained window of a long run may have a
    /// large index).
    pub index: u64,
    /// First slot the window covers.
    pub start_slot: u64,
    /// One past the last slot the window covers.
    pub end_slot: u64,
    /// Gauge values at window close (last write wins, carried forward
    /// from earlier windows when unwritten).
    pub gauges: BTreeMap<String, f64>,
    /// Per-window event tallies, zeroed at each boundary.
    pub rates: BTreeMap<String, u64>,
    /// Per-window latency histograms, reset at each boundary.
    pub latencies: BTreeMap<String, WindowHistogram>,
}

impl WindowSnapshot {
    /// The window as a flat JSON object (deterministic key order).
    pub fn to_json(&self) -> Value {
        let mut m = serde_json::Map::new();
        m.insert("window".into(), Value::from(self.index));
        m.insert("start_slot".into(), Value::from(self.start_slot));
        m.insert("end_slot".into(), Value::from(self.end_slot));
        let mut gauges = serde_json::Map::new();
        for (k, v) in &self.gauges {
            gauges.insert(k.clone(), Value::from(*v));
        }
        m.insert("gauges".into(), Value::Object(gauges));
        let mut rates = serde_json::Map::new();
        for (k, v) in &self.rates {
            rates.insert(k.clone(), Value::from(*v));
        }
        m.insert("rates".into(), Value::Object(rates));
        let mut lats = serde_json::Map::new();
        for (k, h) in &self.latencies {
            let (p50, p90, p99) = h.quantiles();
            let mut l = serde_json::Map::new();
            l.insert("count".into(), Value::from(h.count()));
            l.insert("sum".into(), Value::from(h.sum()));
            l.insert("p50".into(), Value::from(p50));
            l.insert("p90".into(), Value::from(p90));
            l.insert("p99".into(), Value::from(p99));
            l.insert(
                "buckets".into(),
                Value::Array(
                    h.sparse_buckets()
                        .iter()
                        .map(|&(i, n)| Value::Array(vec![Value::from(i as u64), Value::from(n)]))
                        .collect(),
                ),
            );
            lats.insert(k.clone(), Value::Object(l));
        }
        m.insert("latencies".into(), Value::Object(lats));
        Value::Object(m)
    }

    fn from_json(v: &Value) -> Option<WindowSnapshot> {
        let mut gauges = BTreeMap::new();
        for (k, g) in v.get("gauges")?.as_object()? {
            gauges.insert(k.clone(), g.as_f64()?);
        }
        let mut rates = BTreeMap::new();
        for (k, r) in v.get("rates")?.as_object()? {
            rates.insert(k.clone(), r.as_u64()?);
        }
        let mut latencies = BTreeMap::new();
        for (k, l) in v.get("latencies")?.as_object()? {
            let sparse = l
                .get("buckets")?
                .as_array()?
                .iter()
                .map(|pair| {
                    let pair = pair.as_array()?;
                    Some((pair.first()?.as_u64()? as usize, pair.get(1)?.as_u64()?))
                })
                .collect::<Option<Vec<_>>>()?;
            let h = WindowHistogram::from_sparse(
                l.get("count")?.as_u64()?,
                l.get("sum")?.as_u64()?,
                &sparse,
            )?;
            latencies.insert(k.clone(), h);
        }
        Some(WindowSnapshot {
            index: v.get("window")?.as_u64()?,
            start_slot: v.get("start_slot")?.as_u64()?,
            end_slot: v.get("end_slot")?.as_u64()?,
            gauges,
            rates,
            latencies,
        })
    }
}

/// A live windowed time-series recorder over a slot-indexed virtual
/// clock.
///
/// Instance-based, single-owner, no interior locking: the recorder
/// belongs to the loop that drives the virtual clock. Series names are
/// `&'static str` so recording never allocates on the per-event path
/// (the per-window snapshot at each boundary is where strings are
/// materialized).
#[derive(Debug)]
pub struct TimeSeries {
    window_slots: u64,
    capacity: usize,
    /// Window currently accumulating.
    current: u64,
    gauges: BTreeMap<&'static str, f64>,
    rates: BTreeMap<&'static str, u64>,
    latencies: BTreeMap<&'static str, WindowHistogram>,
    ring: VecDeque<WindowSnapshot>,
    evicted: u64,
    closed: u64,
}

impl TimeSeries {
    /// An empty series positioned at window 0.
    pub fn new(cfg: TimeSeriesConfig) -> TimeSeries {
        TimeSeries {
            window_slots: cfg.window_slots.max(1),
            capacity: cfg.capacity.max(1),
            current: 0,
            gauges: BTreeMap::new(),
            rates: BTreeMap::new(),
            latencies: BTreeMap::new(),
            ring: VecDeque::new(),
            evicted: 0,
            closed: 0,
        }
    }

    /// Width of one window in slots.
    pub fn window_slots(&self) -> u64 {
        self.window_slots
    }

    /// Windows closed so far (including evicted ones).
    pub fn closed_windows(&self) -> u64 {
        self.closed
    }

    /// Windows evicted from the ring so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Moves the virtual clock to `slot`, closing every window whose
    /// boundary was crossed. Idempotent within a window; the clock is
    /// monotonic.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is behind a window already closed — the virtual
    /// clock never runs backwards.
    pub fn advance_to(&mut self, slot: u64) {
        let target = slot / self.window_slots;
        assert!(
            target >= self.current,
            "virtual clock moved backwards: slot {slot} is in window {target}, \
             window {} already accumulating",
            self.current,
        );
        while self.current < target {
            self.close_current();
        }
    }

    /// Sets gauge `name` for the current window (last write wins); the
    /// value carries forward into later windows until overwritten.
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Adds `n` to rate `name` in the current window. Once registered,
    /// the series reports an explicit 0 in event-free windows.
    pub fn rate_add(&mut self, name: &'static str, n: u64) {
        *self.rates.entry(name).or_insert(0) += n;
    }

    /// Records one latency sample into series `name` for the current
    /// window. Once registered, the series reports an explicit empty
    /// histogram in sample-free windows.
    pub fn latency(&mut self, name: &'static str, value: u64) {
        self.latencies.entry(name).or_default().record(value);
    }

    fn close_current(&mut self) {
        let index = self.current;
        let snapshot = WindowSnapshot {
            index,
            start_slot: index * self.window_slots,
            end_slot: (index + 1) * self.window_slots,
            gauges: self
                .gauges
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            rates: self
                .rates
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            latencies: self
                .latencies
                .iter()
                .map(|(k, h)| (k.to_string(), h.clone()))
                .collect(),
        };
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
            crate::counter!("obs.timeseries.evicted");
        }
        self.ring.push_back(snapshot);
        self.closed += 1;
        self.current += 1;
        // Rates and latencies are per-window: reset in place, keeping
        // the keys registered. Gauges carry forward untouched.
        for v in self.rates.values_mut() {
            *v = 0;
        }
        for h in self.latencies.values_mut() {
            *h = WindowHistogram::new();
        }
    }

    /// Closes the current (possibly partial) window and freezes the
    /// series into its serializable section.
    pub fn finish(mut self) -> TimeSeriesSection {
        self.close_current();
        TimeSeriesSection {
            window_slots: self.window_slots,
            total_windows: self.closed,
            evicted: self.evicted,
            windows: self.ring.into_iter().collect(),
        }
    }
}

/// The frozen output of a [`TimeSeries`], carried by schema-4
/// [`RunReport`]s and exported by [`write_metrics_jsonl`].
#[derive(Clone, Debug, PartialEq)]
pub struct TimeSeriesSection {
    /// Window width the series was recorded at.
    pub window_slots: u64,
    /// Total windows closed over the run (≥ `windows.len()`).
    pub total_windows: u64,
    /// Windows evicted from the ring (oldest first); exactly
    /// `total_windows - windows.len()`.
    pub evicted: u64,
    /// The retained windows, oldest first.
    pub windows: Vec<WindowSnapshot>,
}

impl TimeSeriesSection {
    /// The section as a JSON value.
    pub fn to_json(&self) -> Value {
        let mut m = serde_json::Map::new();
        m.insert("window_slots".into(), Value::from(self.window_slots));
        m.insert("total_windows".into(), Value::from(self.total_windows));
        m.insert("evicted".into(), Value::from(self.evicted));
        m.insert(
            "windows".into(),
            Value::Array(self.windows.iter().map(WindowSnapshot::to_json).collect()),
        );
        Value::Object(m)
    }

    /// Rebuilds a section from its JSON form; `None` when the shape
    /// does not match.
    pub fn from_json(v: &Value) -> Option<TimeSeriesSection> {
        Some(TimeSeriesSection {
            window_slots: v.get("window_slots")?.as_u64()?,
            total_windows: v.get("total_windows")?.as_u64()?,
            evicted: v.get("evicted")?.as_u64()?,
            windows: v
                .get("windows")?
                .as_array()?
                .iter()
                .map(WindowSnapshot::from_json)
                .collect::<Option<Vec<_>>>()?,
        })
    }

    /// The sum of rate series `name` over every retained window —
    /// equals the run-level total when nothing was evicted. Missing
    /// windows contribute zero, so an unregistered name sums to 0.
    pub fn merged_rate(&self, name: &str) -> u64 {
        self.windows.iter().filter_map(|w| w.rates.get(name)).sum()
    }

    /// The bucket-wise union of every retained window's latency series
    /// `name` — equals the run-level histogram when nothing was
    /// evicted.
    pub fn merged_latency(&self, name: &str) -> WindowHistogram {
        let mut merged = WindowHistogram::new();
        for w in &self.windows {
            if let Some(h) = w.latencies.get(name) {
                merged.merge(h);
            }
        }
        merged
    }
}

/// Writes a section as a JSON Lines metrics stream to
/// `<dir>/<run>.metrics.jsonl` (creating `dir`): one compact object
/// per window, oldest first, deterministic key order. The run name is
/// sanitized like [`crate::write_report`]. Returns the written path.
pub fn write_metrics_jsonl(
    dir: &Path,
    run: &str,
    section: &TimeSeriesSection,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.metrics.jsonl", sanitize(run)));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for window in &section.windows {
        let line = serde_json::to_string(&window.to_json())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
    }
    out.flush()?;
    Ok(path)
}

/// Renders a report's final counters and histogram summaries in the
/// Prometheus text exposition format (metric names mangled to
/// `[a-zA-Z0-9_]`, one `# TYPE` line per family, histograms as
/// summaries with `quantile` labels).
pub fn prometheus_text(report: &RunReport) -> String {
    let mut out = String::new();
    let mut last_family = String::new();
    for c in &report.counters {
        let (name, label) = prom_key(&c.key);
        if name != last_family {
            out.push_str(&format!("# TYPE {name} counter\n"));
            last_family = name.clone();
        }
        match label {
            Some((k, v)) => out.push_str(&format!("{name}{{{k}=\"{v}\"}} {}\n", c.value)),
            None => out.push_str(&format!("{name} {}\n", c.value)),
        }
    }
    for h in &report.histograms {
        let (name, _) = prom_key(&h.key);
        out.push_str(&format!("# TYPE {name} summary\n"));
        for (q, v) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99)] {
            out.push_str(&format!("{name}{{quantile=\"{q}\"}} {v}\n"));
        }
        out.push_str(&format!("{name}_sum {}\n", h.sum));
        out.push_str(&format!("{name}_count {}\n", h.count));
    }
    out
}

/// Writes [`prometheus_text`] to `<dir>/<run>.prom` (creating `dir`),
/// run name sanitized like [`crate::write_report`]. Returns the
/// written path.
pub fn write_prometheus(dir: &Path, run: &str, report: &RunReport) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.prom", sanitize(run)));
    std::fs::write(&path, prometheus_text(report))?;
    Ok(path)
}

/// Splits a rendered metric key (`a.b.c` or `a.b.c{k=v}`) into a
/// Prometheus-safe family name and optional label pair.
fn prom_key(key: &str) -> (String, Option<(String, String)>) {
    let (name, label) = match key.split_once('{') {
        Some((name, rest)) => {
            let body = rest.strip_suffix('}').unwrap_or(rest);
            let label = body
                .split_once('=')
                .map(|(k, v)| (prom_ident(k), v.to_string()));
            (name, label)
        }
        None => (key, None),
    };
    (prom_ident(name), label)
}

fn prom_ident(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn sanitize(run: &str) -> String {
    run.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(window: u64, cap: usize) -> TimeSeries {
        TimeSeries::new(TimeSeriesConfig {
            window_slots: window,
            capacity: cap,
        })
    }

    #[test]
    fn windows_close_on_slot_boundaries() {
        let mut ts = series(4, 16);
        ts.rate_add("arrivals", 1);
        ts.advance_to(3); // still window 0
        ts.rate_add("arrivals", 2);
        ts.advance_to(4); // closes window 0
        ts.rate_add("arrivals", 5);
        let section = ts.finish();
        assert_eq!(section.total_windows, 2);
        assert_eq!(section.windows.len(), 2);
        assert_eq!(section.windows[0].rates["arrivals"], 3);
        assert_eq!(section.windows[0].start_slot, 0);
        assert_eq!(section.windows[0].end_slot, 4);
        assert_eq!(section.windows[1].rates["arrivals"], 5);
        assert_eq!(section.windows[1].index, 1);
    }

    #[test]
    fn gauges_carry_forward_rates_do_not() {
        let mut ts = series(2, 16);
        ts.gauge("active", 7.5);
        ts.rate_add("blocks", 4);
        ts.advance_to(6); // closes windows 0, 1, 2
        let section = ts.finish();
        assert_eq!(section.windows.len(), 4);
        for w in &section.windows {
            assert_eq!(w.gauges["active"], 7.5, "gauge carried into {}", w.index);
        }
        assert_eq!(section.windows[0].rates["blocks"], 4);
        for w in &section.windows[1..] {
            assert_eq!(w.rates["blocks"], 0, "rate reset in window {}", w.index);
        }
    }

    #[test]
    fn ring_evicts_oldest_windows_exactly() {
        let mut ts = series(1, 3);
        for slot in 0..10 {
            ts.advance_to(slot);
            ts.rate_add("n", slot);
        }
        let section = ts.finish();
        assert_eq!(section.total_windows, 10);
        assert_eq!(section.evicted, 7);
        assert_eq!(section.windows.len(), 3);
        let kept: Vec<u64> = section.windows.iter().map(|w| w.index).collect();
        assert_eq!(kept, vec![7, 8, 9], "oldest evicted, newest retained");
        assert_eq!(
            section.evicted,
            section.total_windows - section.windows.len() as u64
        );
    }

    #[test]
    #[should_panic(expected = "virtual clock moved backwards")]
    fn clock_regression_panics() {
        let mut ts = series(4, 4);
        ts.advance_to(9);
        ts.advance_to(3);
    }

    #[test]
    fn window_histogram_matches_registry_bucketing() {
        let mut h = WindowHistogram::new();
        for v in [0u64, 1, 2, 3, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        let sparse = h.sparse_buckets();
        assert_eq!(sparse, vec![(0, 1), (1, 1), (2, 2), (11, 1), (63, 1)]);
        // Same estimator as the run reports.
        assert_eq!(
            h.quantiles(),
            quantiles_from_buckets(h.count(), &h.sparse_buckets())
        );
    }

    #[test]
    fn section_round_trips_through_json() {
        let mut ts = series(8, 16);
        ts.gauge("free_qubits", 42.25);
        ts.rate_add("arrivals", 3);
        ts.latency("admission", 17);
        ts.latency("admission", 300);
        ts.advance_to(8);
        ts.latency("admission", 5);
        let section = ts.finish();
        let v = section.to_json();
        let text = serde_json::to_string(&v).unwrap();
        let parsed: Value = serde_json::from_str(&text).unwrap();
        let back = TimeSeriesSection::from_json(&parsed).expect("section shape matches");
        assert_eq!(back, section);
    }

    #[test]
    fn merged_rate_sums_every_window() {
        let mut ts = series(4, 16);
        let counts = [2u64, 0, 5, 1, 3];
        for (i, &n) in counts.iter().enumerate() {
            ts.advance_to(i as u64 * 4);
            ts.rate_add("admitted", n);
        }
        let section = ts.finish();
        assert_eq!(section.merged_rate("admitted"), counts.iter().sum::<u64>());
        assert_eq!(section.merged_rate("never-registered"), 0);
    }

    #[test]
    fn merged_latency_unions_every_window() {
        let mut ts = series(4, 16);
        let samples = [3u64, 9, 4, 1000, 0, 7, 7];
        let mut reference = WindowHistogram::new();
        for (i, &s) in samples.iter().enumerate() {
            ts.advance_to(i as u64 * 3);
            ts.latency("lat", s);
            reference.record(s);
        }
        let section = ts.finish();
        assert_eq!(section.merged_latency("lat"), reference);
    }

    #[test]
    fn metrics_jsonl_writes_one_line_per_window() {
        let mut ts = series(2, 8);
        ts.rate_add("arrivals", 1);
        ts.latency("lat", 9);
        ts.advance_to(5);
        let section = ts.finish();
        let dir = std::env::temp_dir().join("qnet_obs_timeseries_test");
        let path = write_metrics_jsonl(&dir, "unit run", &section).expect("write succeeds");
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "unit_run.metrics.jsonl"
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), section.windows.len());
        for (line, w) in lines.iter().zip(&section.windows) {
            let v: Value = serde_json::from_str(line).expect("line parses");
            assert_eq!(v.get("window").and_then(|x| x.as_u64()), Some(w.index));
            assert!(v.get("rates").is_some() && v.get("latencies").is_some());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn prometheus_text_mangles_keys_and_types_families() {
        use crate::registry::{CounterSnapshot, HistogramSnapshot};
        let report = RunReport {
            schema_version: crate::report::SCHEMA_VERSION,
            run: "prom".into(),
            level: "counters".into(),
            spans: vec![],
            counters: vec![
                CounterSnapshot {
                    key: "core.stream.blocked{reason=capacity}".into(),
                    value: 4,
                },
                CounterSnapshot {
                    key: "core.stream.blocked{reason=no_users}".into(),
                    value: 2,
                },
                CounterSnapshot {
                    key: "graph.dijkstra.calls".into(),
                    value: 7,
                },
            ],
            histograms: vec![HistogramSnapshot {
                key: "core.stream.admission_searches".into(),
                count: 4,
                sum: 22,
                mean: 5.5,
                p50: 5.0,
                p90: 7.0,
                p99: 7.0,
                buckets: vec![(3, 4)],
            }],
            profile: None,
            timeseries: None,
        };
        let text = prometheus_text(&report);
        assert_eq!(
            text.matches("# TYPE core_stream_blocked counter").count(),
            1,
            "one TYPE line per family:\n{text}"
        );
        assert!(text.contains("core_stream_blocked{reason=\"capacity\"} 4"));
        assert!(text.contains("core_stream_blocked{reason=\"no_users\"} 2"));
        assert!(text.contains("graph_dijkstra_calls 7"));
        assert!(text.contains("# TYPE core_stream_admission_searches summary"));
        assert!(text.contains("core_stream_admission_searches{quantile=\"0.99\"} 7"));
        assert!(text.contains("core_stream_admission_searches_count 4"));
        assert!(text.ends_with('\n'));
    }
}
