//! Run reports: a serializable snapshot of all spans, counters, and
//! histograms, written as JSON under `results/obs/`.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use serde_json::Value;

use crate::level;
use crate::profile::ProfileSection;
use crate::registry::{global, quantiles_from_buckets, CounterSnapshot, HistogramSnapshot};
use crate::span::snapshot_spans;
use crate::timeseries::TimeSeriesSection;

/// Version written into every serialized report. History:
///
/// * **1** — implicit (no `schema_version` field): spans + counters +
///   histograms without summary quantiles.
/// * **2** — explicit `schema_version`; histograms carry `p50`/`p90`/
///   `p99`.
/// * **3** — optional `profile` section (per-phase attribution rows,
///   allocation tallies, peak RSS; see [`ProfileSection`]).
/// * **4** — optional `timeseries` section (windowed rates, gauges,
///   and latency quantiles over a virtual slot clock; see
///   [`TimeSeriesSection`]).
///
/// [`RunReport::from_json`] accepts any version up to this one and
/// migrates older shapes on read (missing quantiles are recomputed from
/// the buckets; a pre-3 report simply has no profile section, a pre-4
/// report no timeseries section), so `obs-diff` can compare reports
/// across versions. [`RunReport::schema_version`] keeps the *parsed*
/// version, letting tools surface that a migration happened.
pub const SCHEMA_VERSION: u32 = 4;

/// A span as it appears in a run report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Span name (`<crate>.<component>.<name>`).
    pub name: String,
    /// Index of the parent span within [`RunReport::spans`], if nested.
    pub parent: Option<usize>,
    /// Id of the recording thread (stable within one report).
    pub thread: u64,
    /// Start offset from the process obs epoch, microseconds.
    pub start_us: u64,
    /// Duration in microseconds; 0 when the span was still open at
    /// capture time.
    pub duration_us: u64,
}

/// A point-in-time snapshot of the whole observability state for one
/// named run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Schema version this report was captured or parsed as (see
    /// [`SCHEMA_VERSION`]); serialization always writes the current
    /// version.
    pub schema_version: u32,
    /// Run identifier (suite/figure name, bench id, ...).
    pub run: String,
    /// Level that was active at capture time.
    pub level: String,
    /// All finished spans, parents before children.
    pub spans: Vec<SpanSnapshot>,
    /// Non-zero counters, sorted by key.
    pub counters: Vec<CounterSnapshot>,
    /// Non-empty histograms, sorted by key.
    pub histograms: Vec<HistogramSnapshot>,
    /// Per-phase attribution (schema 3; `None` on plain captures and
    /// migrated pre-3 reports). Attached by `repro profile` via
    /// [`RunReport::with_profile`].
    pub profile: Option<ProfileSection>,
    /// Windowed time-series metrics (schema 4; `None` on plain
    /// captures and migrated pre-4 reports). Attached by sustained-load
    /// drivers via [`RunReport::with_timeseries`].
    pub timeseries: Option<TimeSeriesSection>,
}

impl RunReport {
    /// Snapshots the global registry and span store under the name
    /// `run`. Does not reset anything; a [`crate::Capture`] takes
    /// per-run deltas.
    pub fn capture(run: &str) -> RunReport {
        let reg = global();
        RunReport {
            schema_version: SCHEMA_VERSION,
            run: run.to_string(),
            level: level::level().name().to_string(),
            spans: snapshot_spans()
                .into_iter()
                .map(|s| SpanSnapshot {
                    name: s.name.to_string(),
                    parent: s.parent,
                    thread: s.thread,
                    start_us: s.start_us,
                    duration_us: s.duration_us.unwrap_or(0),
                })
                .collect(),
            counters: reg.counter_snapshots(),
            histograms: reg.histogram_snapshots(),
            profile: None,
            timeseries: None,
        }
    }

    /// Attaches a [`ProfileSection`] built from this report's own spans
    /// (self/total attribution), leaving alloc and RSS fields for the
    /// caller to fill in.
    pub fn with_profile(mut self) -> RunReport {
        self.profile = Some(ProfileSection::from_spans(&self.spans));
        self
    }

    /// Attaches a frozen [`TimeSeriesSection`] (the output of
    /// [`crate::TimeSeries::finish`]).
    pub fn with_timeseries(mut self, section: TimeSeriesSection) -> RunReport {
        self.timeseries = Some(section);
        self
    }

    /// Total across every counter whose metric name (label stripped)
    /// equals `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| {
                c.key == name
                    || c.key
                        .strip_suffix('}')
                        .is_some_and(|k| k.starts_with(&format!("{name}{{")))
            })
            .map(|c| c.value)
            .sum()
    }

    /// The report as a JSON value.
    pub fn to_json(&self) -> Value {
        let mut root = serde_json::Map::new();
        root.insert("schema_version".into(), Value::from(SCHEMA_VERSION));
        root.insert("run".into(), Value::from(self.run.as_str()));
        root.insert("level".into(), Value::from(self.level.as_str()));
        root.insert(
            "spans".into(),
            Value::Array(
                self.spans
                    .iter()
                    .map(|s| {
                        let mut m = serde_json::Map::new();
                        m.insert("name".into(), Value::from(s.name.as_str()));
                        m.insert(
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                        );
                        m.insert("thread".into(), Value::from(s.thread));
                        m.insert("start_us".into(), Value::from(s.start_us));
                        m.insert("duration_us".into(), Value::from(s.duration_us));
                        Value::Object(m)
                    })
                    .collect(),
            ),
        );
        root.insert(
            "counters".into(),
            Value::Array(
                self.counters
                    .iter()
                    .map(|c| {
                        let mut m = serde_json::Map::new();
                        m.insert("key".into(), Value::from(c.key.as_str()));
                        m.insert("value".into(), Value::from(c.value));
                        Value::Object(m)
                    })
                    .collect(),
            ),
        );
        root.insert(
            "histograms".into(),
            Value::Array(
                self.histograms
                    .iter()
                    .map(|h| {
                        let mut m = serde_json::Map::new();
                        m.insert("key".into(), Value::from(h.key.as_str()));
                        m.insert("count".into(), Value::from(h.count));
                        m.insert("sum".into(), Value::from(h.sum));
                        m.insert("mean".into(), Value::from(h.mean));
                        m.insert("p50".into(), Value::from(h.p50));
                        m.insert("p90".into(), Value::from(h.p90));
                        m.insert("p99".into(), Value::from(h.p99));
                        m.insert(
                            "buckets".into(),
                            Value::Array(
                                h.buckets
                                    .iter()
                                    .map(|&(i, n)| {
                                        Value::Array(vec![Value::from(i as u64), Value::from(n)])
                                    })
                                    .collect(),
                            ),
                        );
                        Value::Object(m)
                    })
                    .collect(),
            ),
        );
        root.insert(
            "profile".into(),
            self.profile
                .as_ref()
                .map_or(Value::Null, ProfileSection::to_json),
        );
        root.insert(
            "timeseries".into(),
            self.timeseries
                .as_ref()
                .map_or(Value::Null, TimeSeriesSection::to_json),
        );
        Value::Object(root)
    }

    /// Rebuilds a report from its JSON form (inverse of
    /// [`RunReport::to_json`]); `None` when the shape does not match.
    ///
    /// Accepts every schema version up to [`SCHEMA_VERSION`]. A report
    /// without a `schema_version` field is treated as version 1 and
    /// migrated: histogram quantiles missing on disk are recomputed
    /// from the stored buckets. Versions *newer* than this binary are
    /// rejected (`None`) rather than misread.
    pub fn from_json(v: &Value) -> Option<RunReport> {
        let schema_version = match v.get("schema_version") {
            None => 1,
            Some(s) => u32::try_from(s.as_u64()?).ok()?,
        };
        if schema_version > SCHEMA_VERSION {
            return None;
        }
        let spans = v
            .get("spans")?
            .as_array()?
            .iter()
            .map(|s| {
                Some(SpanSnapshot {
                    name: s.get("name")?.as_str()?.to_string(),
                    parent: match s.get("parent")? {
                        Value::Null => None,
                        p => Some(p.as_u64()? as usize),
                    },
                    thread: s.get("thread")?.as_u64()?,
                    start_us: s.get("start_us")?.as_u64()?,
                    duration_us: s.get("duration_us")?.as_u64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let counters = v
            .get("counters")?
            .as_array()?
            .iter()
            .map(|c| {
                Some(CounterSnapshot {
                    key: c.get("key")?.as_str()?.to_string(),
                    value: c.get("value")?.as_u64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let histograms = v
            .get("histograms")?
            .as_array()?
            .iter()
            .map(|h| {
                let count = h.get("count")?.as_u64()?;
                let buckets = h
                    .get("buckets")?
                    .as_array()?
                    .iter()
                    .map(|pair| {
                        let pair = pair.as_array()?;
                        Some((pair.first()?.as_u64()? as usize, pair.get(1)?.as_u64()?))
                    })
                    .collect::<Option<Vec<_>>>()?;
                // Version-1 reports lack the summary quantiles; rebuild
                // them from the buckets they do carry.
                let (p50, p90, p99) = match h.get("p50") {
                    Some(_) => (
                        h.get("p50")?.as_f64()?,
                        h.get("p90")?.as_f64()?,
                        h.get("p99")?.as_f64()?,
                    ),
                    None => quantiles_from_buckets(count, &buckets),
                };
                Some(HistogramSnapshot {
                    key: h.get("key")?.as_str()?.to_string(),
                    count,
                    sum: h.get("sum")?.as_u64()?,
                    mean: h.get("mean")?.as_f64()?,
                    p50,
                    p90,
                    p99,
                    buckets,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        // Pre-3 reports have no profile key; a v3+ report may carry
        // `null`. A present-but-malformed section fails the parse.
        let profile = match v.get("profile") {
            None | Some(Value::Null) => None,
            Some(p) => Some(ProfileSection::from_json(p)?),
        };
        // Same treatment for the v4 timeseries section.
        let timeseries = match v.get("timeseries") {
            None | Some(Value::Null) => None,
            Some(t) => Some(TimeSeriesSection::from_json(t)?),
        };
        Some(RunReport {
            schema_version,
            run: v.get("run")?.as_str()?.to_string(),
            level: v.get("level")?.as_str()?.to_string(),
            spans,
            counters,
            histograms,
            profile,
            timeseries,
        })
    }
}

/// Writes `report` as pretty-printed JSON to `<dir>/<run>.json`
/// (creating `dir`), sanitizing the run name for use as a file stem.
/// Returns the written path.
pub fn write_report(dir: &Path, report: &RunReport) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let stem: String = report
        .run
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let path = dir.join(format!("{stem}.json"));
    let text = serde_json::to_string_pretty(&report.to_json())
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let mut file = std::fs::File::create(&path)?;
    file.write_all(text.as_bytes())?;
    file.write_all(b"\n")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip_preserves_the_report() {
        let report = RunReport {
            schema_version: SCHEMA_VERSION,
            run: "unit".into(),
            level: "full".into(),
            spans: vec![
                SpanSnapshot {
                    name: "a.b.c".into(),
                    parent: None,
                    thread: 1,
                    start_us: 5,
                    duration_us: 40,
                },
                SpanSnapshot {
                    name: "a.b.d".into(),
                    parent: Some(0),
                    thread: 1,
                    start_us: 7,
                    duration_us: 12,
                },
            ],
            counters: vec![CounterSnapshot {
                key: "x.y.z{reason=width}".into(),
                value: 9,
            }],
            histograms: vec![HistogramSnapshot {
                key: "x.slot.duration_us".into(),
                count: 3,
                sum: 12,
                mean: 4.0,
                p50: 3.0,
                p90: 6.0,
                p99: 6.0,
                buckets: vec![(2, 1), (3, 2)],
            }],
            profile: Some(crate::profile::ProfileSection {
                rows: vec![crate::profile::ProfileRow {
                    name: "a.b.c".into(),
                    count: 1,
                    total_us: 40,
                    self_us: 28,
                }],
                root_total_us: 40,
                attributed_us: 40,
                alloc: Some(crate::profile::AllocSummary {
                    allocs: 3,
                    bytes: 256,
                    peak_bytes: 128,
                }),
                peak_rss_bytes: Some(1 << 21),
            }),
            timeseries: Some({
                let mut ts = crate::TimeSeries::new(crate::TimeSeriesConfig {
                    window_slots: 4,
                    capacity: 8,
                });
                ts.gauge("active", 2.5);
                ts.rate_add("arrivals", 3);
                ts.latency("admission", 17);
                ts.advance_to(4);
                ts.rate_add("arrivals", 1);
                ts.finish()
            }),
        };
        let text = serde_json::to_string_pretty(&report.to_json()).unwrap();
        let parsed = serde_json::from_str(&text).expect("report JSON parses");
        let back = RunReport::from_json(&parsed).expect("shape matches");
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.run, report.run);
        assert_eq!(back.spans, report.spans);
        assert_eq!(back.counters, report.counters);
        assert_eq!(back.histograms, report.histograms);
        assert_eq!(back.profile, report.profile);
        assert_eq!(back.timeseries, report.timeseries);
    }

    #[test]
    fn versionless_legacy_reports_migrate_on_read() {
        // A hand-written v1 report: no schema_version, histograms
        // without quantiles.
        let legacy: Value = serde_json::from_str(
            r#"{
                "run": "legacy",
                "level": "counters",
                "spans": [],
                "counters": [{"key": "a.b.c", "value": 3}],
                "histograms": [{
                    "key": "a.b.us",
                    "count": 4,
                    "sum": 10,
                    "mean": 2.5,
                    "buckets": [[2, 4]]
                }]
            }"#,
        )
        .expect("legacy literal parses");
        let report = RunReport::from_json(&legacy).expect("legacy shape accepted");
        assert_eq!(report.schema_version, 1);
        let h = &report.histograms[0];
        let (p50, p90, p99) = quantiles_from_buckets(h.count, &h.buckets);
        assert_eq!((h.p50, h.p90, h.p99), (p50, p90, p99));
        assert!(h.p50 > 0.0, "bucket 2 holds values in [2,4)");
        // Re-serialization upgrades to the current version.
        let upgraded = report.to_json();
        assert_eq!(
            upgraded.get("schema_version").and_then(|v| v.as_u64()),
            Some(SCHEMA_VERSION as u64)
        );
        assert!(RunReport::from_json(&upgraded).is_some());
    }

    #[test]
    fn future_schema_versions_are_rejected() {
        let mut v = RunReport {
            schema_version: SCHEMA_VERSION,
            run: "x".into(),
            level: "off".into(),
            spans: vec![],
            counters: vec![],
            histograms: vec![],
            profile: None,
            timeseries: None,
        }
        .to_json();
        if let Value::Object(m) = &mut v {
            m.insert("schema_version".into(), Value::from(SCHEMA_VERSION + 1));
        }
        assert!(
            RunReport::from_json(&v).is_none(),
            "a newer report must not be silently misread"
        );
    }

    #[test]
    fn counter_total_merges_labels() {
        let report = RunReport {
            schema_version: SCHEMA_VERSION,
            run: "unit".into(),
            level: "counters".into(),
            spans: vec![],
            counters: vec![
                CounterSnapshot {
                    key: "c.ch.rejected{reason=width}".into(),
                    value: 2,
                },
                CounterSnapshot {
                    key: "c.ch.rejected{reason=disconnected}".into(),
                    value: 3,
                },
                CounterSnapshot {
                    key: "c.ch.rejected".into(),
                    value: 1,
                },
                CounterSnapshot {
                    key: "c.ch.rejected_other".into(),
                    value: 100,
                },
            ],
            histograms: vec![],
            profile: None,
            timeseries: None,
        };
        assert_eq!(report.counter_total("c.ch.rejected"), 6);
    }

    #[test]
    fn write_report_sanitizes_run_names() {
        let dir = std::env::temp_dir().join("qnet_obs_report_test");
        let report = RunReport {
            schema_version: SCHEMA_VERSION,
            run: "fig 7/b".into(),
            level: "off".into(),
            spans: vec![],
            counters: vec![],
            histograms: vec![],
            profile: None,
            timeseries: None,
        };
        let path = write_report(&dir, &report).expect("write succeeds");
        assert_eq!(path.file_name().unwrap().to_str().unwrap(), "fig_7_b.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = serde_json::from_str(&text).expect("file parses");
        assert_eq!(parsed.get("run").and_then(|r| r.as_str()), Some("fig 7/b"));
        let _ = std::fs::remove_file(&path);
    }
}
