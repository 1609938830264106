//! End-to-end checks of `repro stream`'s engine: every artifact —
//! tables, metrics JSONL, schema-4 run report, Prometheus exposition —
//! must be bitwise stable for a fixed seed, and the windowed series
//! must account for every run-level total.
//!
//! Each run holds a [`qnet_obs::Capture`] (taken by
//! [`muerp_experiments::stream::run_workload`]), so runs take turns on
//! the global sinks. They live in their own integration binary because
//! the crate's unit tests hold no capture and would count into a run's
//! report.

use muerp_core::extensions::{StreamConfig, StreamDriver};
use muerp_experiments::cli::StreamArgs;
use muerp_experiments::stream::{run_stream, run_workload, StreamRun};
use qnet_obs::ObsLevel;

fn small_cfg() -> StreamDriver {
    StreamDriver {
        load: StreamConfig {
            slots: 512,
            ..StreamConfig::default()
        },
        window_slots: 32,
        ..StreamDriver::default()
    }
}

/// The small workload with the capacity-churn arm engaged: every 16
/// slots a switch loses 4 qubits for 48 slots, exercising the delta
/// engine's repair/revalidate/recompute paths mid-run.
fn churn_cfg() -> StreamDriver {
    StreamDriver {
        churn_every: 16,
        churn_qubits: 4,
        churn_hold: 48,
        ..small_cfg()
    }
}

fn run(seed: u64) -> StreamRun {
    run_workload(small_cfg(), seed, ObsLevel::Counters)
}

fn render_report(run: &StreamRun) -> String {
    serde_json::to_string_pretty(&run.report.to_json()).expect("report serializes")
}

#[test]
fn every_artifact_is_bitwise_stable_across_runs() {
    let a = run(2024);
    let b = run(2024);
    assert_eq!(a.render_text(), b.render_text(), "stdout tables");
    assert_eq!(a.outcome, b.outcome, "stats and windowed series");
    assert_eq!(
        render_report(&a),
        render_report(&b),
        "serialized schema-4 report"
    );
    assert_eq!(
        qnet_obs::prometheus_text(&a.report),
        qnet_obs::prometheus_text(&b.report),
        "prometheus exposition"
    );
}

#[test]
fn windows_account_for_every_run_level_total() {
    let run = run(7);
    let stats = &run.outcome.stats;
    let series = &run.outcome.series;
    assert_eq!(series.evicted, 0, "the driver sizes the ring for the run");
    assert_eq!(series.total_windows as usize, series.windows.len());
    let sum = |key: &str| -> u64 { series.windows.iter().map(|w| w.rates[key]).sum() };
    assert_eq!(sum("arrivals"), stats.arrived);
    assert_eq!(sum("admitted"), stats.admitted);
    assert_eq!(sum("blocked_no_users"), stats.blocked_no_users);
    assert_eq!(sum("blocked_capacity"), stats.blocked_capacity);
    assert_eq!(
        series.merged_latency("admission_searches").count(),
        stats.admitted + stats.blocked_capacity,
        "one latency sample per routed admission decision"
    );
}

#[test]
fn report_is_schema_four_and_round_trips_with_the_series() {
    let run = run(3);
    assert_eq!(run.report.schema_version, qnet_obs::SCHEMA_VERSION);
    let value = serde_json::from_str(&render_report(&run)).expect("valid JSON");
    let back = qnet_obs::RunReport::from_json(&value).expect("report shape");
    assert_eq!(back.timeseries.as_ref(), Some(&run.outcome.series));
    // At the default (counters) level the report must carry no spans —
    // spans hold wall-clock timestamps and would break byte-identity.
    assert!(
        run.report.spans.is_empty(),
        "stream reports must stay wall-clock-free at the default level"
    );
}

#[test]
fn written_artifacts_match_between_two_output_dirs() {
    let base = std::env::temp_dir().join("muerp_stream_determinism_test");
    let args = |dir: &str| StreamArgs {
        cfg: StreamDriver {
            load: StreamConfig {
                slots: 256,
                ..StreamConfig::default()
            },
            window_slots: 32,
            ..StreamDriver::default()
        },
        seed: 11,
        out: base.join(dir),
    };
    let (_, written_a) = run_stream(&args("a"), ObsLevel::Counters).expect("run a");
    let (_, written_b) = run_stream(&args("b"), ObsLevel::Counters).expect("run b");
    assert_eq!(written_a.len(), 5, "two CSVs, JSONL, report, prom");
    assert_eq!(written_a.len(), written_b.len());
    for (pa, pb) in written_a.iter().zip(&written_b) {
        let a = std::fs::read(pa).expect("artifact a readable");
        let b = std::fs::read(pb).expect("artifact b readable");
        assert_eq!(a, b, "{} and {} diverged", pa.display(), pb.display());
    }
    // The JSONL stream has exactly one line per retained window.
    let jsonl = written_a
        .iter()
        .find(|p| p.extension().is_some_and(|e| e == "jsonl"))
        .expect("metrics stream written");
    let text = std::fs::read_to_string(jsonl).unwrap();
    assert_eq!(text.lines().count(), 256 / 32);
    for line in text.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("each line parses");
        for key in [
            "window",
            "start_slot",
            "end_slot",
            "gauges",
            "rates",
            "latencies",
        ] {
            assert!(v.get(key).is_some(), "line missing {key}");
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn churned_run_is_bitwise_stable() {
    // Double run: every artifact byte-identical under mid-run deltas.
    let a = run_workload(churn_cfg(), 2024, ObsLevel::Counters);
    let b = run_workload(churn_cfg(), 2024, ObsLevel::Counters);
    assert_eq!(a.render_text(), b.render_text(), "churned stdout tables");
    assert_eq!(a.outcome, b.outcome, "churned stats and series");
    assert_eq!(render_report(&a), render_report(&b), "churned report");

    // And the churn arm actually ran and actually perturbed the run.
    assert_eq!(a.outcome.stats.churn_events, (512 - 1) / 16);
    let calm = run_workload(small_cfg(), 2024, ObsLevel::Counters);
    assert_ne!(
        a.outcome.stats, calm.outcome.stats,
        "deltas must perturb the run"
    );
    assert_eq!(calm.outcome.stats.churn_events, 0);
}

#[test]
fn churned_report_carries_the_delta_counters() {
    let run = run_workload(churn_cfg(), 5, ObsLevel::Counters);
    let stats = &run.outcome.stats;
    assert!(stats.churn_events > 0, "churn must fire");
    assert!(stats.cache.repairs > 0, "deltas must exercise SSSP repair");
    // Schema-4 report: the delta engine's counters are first-class.
    assert_eq!(
        run.report.counter_total("core.stream.churn_events"),
        stats.churn_events
    );
    assert!(run.report.counter_total("graph.delta.repaired") > 0);
    assert!(
        run.report.counter_total("graph.delta.clean")
            + run.report.counter_total("graph.delta.repaired")
            > 0
    );
    // The summary table surfaces the same tallies.
    let summary = run
        .tables
        .iter()
        .find(|t| t.id == "stream-summary")
        .expect("summary table present");
    assert_eq!(
        summary.cell("churn-events", "value"),
        Some(stats.churn_events as f64)
    );
    assert_eq!(
        summary.cell("cache-repairs", "value"),
        Some(stats.cache.repairs as f64)
    );
}

#[test]
fn different_seeds_change_the_workload_not_the_shape() {
    let a = run(1);
    let b = run(2);
    assert_ne!(
        a.outcome.stats, b.outcome.stats,
        "distinct seeds must draw distinct workloads"
    );
    assert_eq!(a.tables.len(), b.tables.len());
    for (ta, tb) in a.tables.iter().zip(&b.tables) {
        assert_eq!(ta.id, tb.id);
        assert_eq!(ta.algos, tb.algos);
        assert_eq!(ta.rows.len(), tb.rows.len());
    }
}
