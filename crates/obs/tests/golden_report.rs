//! Golden-file coverage for the run-report JSON format.
//!
//! `tests/golden/report.json` is the checked-in serialization of a
//! fixed report. The tests pin the on-disk format (so accidental schema
//! drift fails loudly) and prove the full round trip: golden bytes →
//! `from_json` → `RunReport` → `to_json` → identical golden bytes.
//!
//! Regenerate after an intentional schema change with
//! `UPDATE_GOLDEN=1 cargo test -p qnet-obs --test golden_report`.

use std::path::PathBuf;

use qnet_obs::{
    Capture, CounterSnapshot, HistogramSnapshot, ObsLevel, RunReport, SpanSnapshot, SCHEMA_VERSION,
};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("report.json")
}

/// A fixed report exercising every field: nested and cross-thread
/// spans, a still-open span (duration 0), labeled and bare counters,
/// and a histogram with sparse buckets.
fn fixture() -> RunReport {
    RunReport {
        schema_version: SCHEMA_VERSION,
        run: "golden".into(),
        level: "full".into(),
        spans: vec![
            SpanSnapshot {
                name: "core.prim_based.solve".into(),
                parent: None,
                thread: 1,
                start_us: 10,
                duration_us: 950,
            },
            SpanSnapshot {
                name: "core.prim_based.round".into(),
                parent: Some(0),
                thread: 1,
                start_us: 12,
                duration_us: 430,
            },
            SpanSnapshot {
                name: "exp.runner.mean_rates".into(),
                parent: None,
                thread: 2,
                start_us: 15,
                duration_us: 0,
            },
        ],
        counters: vec![
            CounterSnapshot {
                key: "core.channel.rejected{reason=qubit_capacity}".into(),
                value: 41,
            },
            CounterSnapshot {
                key: "graph.dijkstra.calls".into(),
                value: 7,
            },
        ],
        histograms: vec![HistogramSnapshot {
            key: "sim.slot.duration_us".into(),
            count: 4,
            sum: 22,
            mean: 5.5,
            // From the buckets: rank 2 is 1/3 into bucket 3 ([4,8),
            // largest attainable value 7); ranks for p90/p99 land on
            // that value.
            p50: 4.0 + (1.0 / 3.0) * 3.0,
            p90: 7.0,
            p99: 7.0,
            buckets: vec![(2, 1), (3, 3)],
        }],
        // The v3 attribution section, derived from the spans above:
        // solve's self time is its 950µs minus the nested round's 430.
        profile: Some(qnet_obs::ProfileSection {
            rows: vec![
                qnet_obs::ProfileRow {
                    name: "core.prim_based.round".into(),
                    count: 1,
                    total_us: 430,
                    self_us: 430,
                },
                qnet_obs::ProfileRow {
                    name: "core.prim_based.solve".into(),
                    count: 1,
                    total_us: 950,
                    self_us: 520,
                },
                qnet_obs::ProfileRow {
                    name: "exp.runner.mean_rates".into(),
                    count: 1,
                    total_us: 0,
                    self_us: 0,
                },
            ],
            root_total_us: 950,
            attributed_us: 950,
            alloc: Some(qnet_obs::AllocSummary {
                allocs: 18,
                bytes: 8192,
                peak_bytes: 4096,
            }),
            peak_rss_bytes: Some(52_428_800),
        }),
        // The v4 streaming section: two 8-slot windows with a carried
        // gauge, a reset rate, and a per-window latency histogram.
        timeseries: Some({
            let mut ts = qnet_obs::TimeSeries::new(qnet_obs::TimeSeriesConfig {
                window_slots: 8,
                capacity: 16,
            });
            ts.gauge("active_sessions", 3.0);
            ts.rate_add("arrivals", 5);
            ts.latency("admission_searches", 6);
            ts.latency("admission_searches", 21);
            ts.advance_to(8);
            ts.rate_add("arrivals", 2);
            ts.latency("admission_searches", 9);
            ts.finish()
        }),
    }
}

fn render(report: &RunReport) -> String {
    let mut text = serde_json::to_string_pretty(&report.to_json()).expect("report serializes");
    text.push('\n');
    text
}

#[test]
fn golden_file_matches_serialized_fixture() {
    let path = golden_path();
    let expected = render(&fixture());
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &expected).unwrap();
        return;
    }
    let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        on_disk, expected,
        "run-report JSON schema drifted; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_file_round_trips_through_the_typed_report() {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return; // the file is being rewritten; the next run reads it
    }
    let on_disk = std::fs::read_to_string(golden_path()).expect("golden file present");
    let value = serde_json::from_str(&on_disk).expect("golden file is valid JSON");
    let report = RunReport::from_json(&value).expect("golden file matches the report shape");

    let fix = fixture();
    assert_eq!(report.run, fix.run);
    assert_eq!(report.level, fix.level);
    assert_eq!(report.spans, fix.spans);
    assert_eq!(report.counters, fix.counters);
    assert_eq!(report.histograms, fix.histograms);
    assert_eq!(report.profile, fix.profile);
    assert_eq!(report.timeseries, fix.timeseries);
    // The fixture's hand-written attribution rows must agree with the
    // real derivation from its spans.
    let derived = qnet_obs::ProfileSection::from_spans(&fix.spans);
    let fix_profile = fix.profile.unwrap();
    assert_eq!(derived.rows, fix_profile.rows);
    assert_eq!(derived.root_total_us, fix_profile.root_total_us);
    assert_eq!(derived.attributed_us, fix_profile.attributed_us);
    assert_eq!(render(&report), on_disk, "to_json(from_json(x)) == x");
}

#[test]
fn version_one_golden_file_still_parses() {
    // `report_v1.json` is the PR-1 on-disk format, frozen: no
    // `schema_version`, histograms without quantiles. It must keep
    // loading (as version 1, quantiles recomputed) so `obs-diff` can
    // compare old baselines against new reports.
    let path = golden_path().with_file_name("report_v1.json");
    let on_disk = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing legacy golden {}: {e}", path.display()));
    let value = serde_json::from_str(&on_disk).expect("legacy golden is valid JSON");
    let report = RunReport::from_json(&value).expect("legacy shape accepted");
    assert_eq!(report.schema_version, 1);

    let fix = fixture();
    assert_eq!(report.run, fix.run);
    assert_eq!(report.spans, fix.spans);
    assert_eq!(report.counters, fix.counters);
    assert_eq!(
        report.histograms, fix.histograms,
        "migration recomputes the quantiles the v1 file lacks"
    );
    assert_eq!(report.profile, None, "pre-3 reports have no profile");
    assert_eq!(report.timeseries, None, "pre-4 reports have no timeseries");
}

#[test]
fn version_two_golden_file_still_parses() {
    // `report_v2.json` is the PR-3 on-disk format, frozen: explicit
    // schema_version 2 with stored quantiles, no `profile` key. It must
    // keep loading *as written* — the stored quantiles are trusted, not
    // recomputed, so old baselines diff cleanly.
    let path = golden_path().with_file_name("report_v2.json");
    let on_disk = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing legacy golden {}: {e}", path.display()));
    let value = serde_json::from_str(&on_disk).expect("legacy golden is valid JSON");
    let report = RunReport::from_json(&value).expect("legacy shape accepted");
    assert_eq!(report.schema_version, 2);
    let fix = fixture();
    assert_eq!(report.run, fix.run);
    assert_eq!(report.spans, fix.spans);
    assert_eq!(report.counters, fix.counters);
    assert_eq!(report.profile, None, "v2 reports have no profile");
    let h = &report.histograms[0];
    assert_eq!(
        (h.p50, h.p90, h.p99),
        (4.0 + 4.0 / 3.0, 8.0, 8.0),
        "v2 quantiles are read back verbatim (old upper-edge estimates)"
    );
    // Re-serialization upgrades to the current version and stays
    // loadable.
    let upgraded = report.to_json();
    assert_eq!(
        upgraded.get("schema_version").and_then(|v| v.as_u64()),
        Some(SCHEMA_VERSION as u64)
    );
    assert!(RunReport::from_json(&upgraded).is_some());
}

#[test]
fn version_three_golden_file_still_parses() {
    // `report_v3.json` is the PR-6 on-disk format, frozen: explicit
    // schema_version 3 with a `profile` section, no `timeseries` key.
    // It must keep loading as version 3 — profile intact, no
    // timeseries — so pre-streaming baselines diff cleanly, and
    // `obs-diff` can tell the caller a migration happened (the parsed
    // schema_version stays 3).
    let path = golden_path().with_file_name("report_v3.json");
    let on_disk = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing legacy golden {}: {e}", path.display()));
    let value = serde_json::from_str(&on_disk).expect("legacy golden is valid JSON");
    let report = RunReport::from_json(&value).expect("legacy shape accepted");
    assert_eq!(report.schema_version, 3);
    let fix = fixture();
    assert_eq!(report.run, fix.run);
    assert_eq!(report.spans, fix.spans);
    assert_eq!(report.counters, fix.counters);
    assert_eq!(
        report.profile, fix.profile,
        "the v3 profile section survives migration untouched"
    );
    assert_eq!(report.timeseries, None, "v3 reports have no timeseries");
    // Re-serialization upgrades to v4 (with an explicit null
    // timeseries) and stays loadable.
    let upgraded = report.to_json();
    assert_eq!(
        upgraded.get("schema_version").and_then(|v| v.as_u64()),
        Some(SCHEMA_VERSION as u64)
    );
    assert!(upgraded
        .get("timeseries")
        .is_some_and(|t| matches!(t, serde_json::Value::Null)));
    assert!(RunReport::from_json(&upgraded).is_some());
}

#[test]
fn live_capture_preserves_span_nesting_and_order() {
    let capture = Capture::begin(ObsLevel::Full);

    {
        let _outer = qnet_obs::span!("test.golden.outer");
        {
            let _mid = qnet_obs::span!("test.golden.mid");
            let _inner = qnet_obs::span!("test.golden.inner");
        }
        let _sibling = qnet_obs::span!("test.golden.sibling");
    }

    let report = capture.finish("live");
    let names: Vec<&str> = report.spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "test.golden.outer",
            "test.golden.mid",
            "test.golden.inner",
            "test.golden.sibling"
        ],
        "spans appear in open order, parents before children"
    );
    assert_eq!(report.spans[0].parent, None);
    assert_eq!(report.spans[1].parent, Some(0));
    assert_eq!(report.spans[2].parent, Some(1));
    assert_eq!(
        report.spans[3].parent,
        Some(0),
        "sibling re-attaches to outer"
    );

    // And the live capture survives its own JSON round trip.
    let value = serde_json::from_str(&render(&report)).expect("live report parses");
    let back = RunReport::from_json(&value).expect("live report shape matches");
    assert_eq!(back.spans, report.spans);
}
