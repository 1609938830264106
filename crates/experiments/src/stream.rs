//! `repro stream` — the sustained-load report pipeline.
//!
//! Drives [`simulate_stream`] (diurnal arrivals, heavy-tailed group
//! sizes, hot-spot users) on a paper-default network and turns the
//! windowed telemetry into the full artifact set:
//!
//! * `stream-windows.csv` — one row per time-series window: arrivals,
//!   admissions, blocks, blocking ratio, p99 admission searches, cache
//!   hit rate, active sessions, free qubits;
//! * `stream-summary.csv` — the run-level totals and derived metrics;
//! * `stream.metrics.jsonl` — the raw windowed series, one JSON object
//!   per window ([`qnet_obs::write_metrics_jsonl`]);
//! * `stream.json` — a schema-4 [`qnet_obs::RunReport`] with the
//!   [`TimeSeriesSection`](qnet_obs::TimeSeriesSection) attached;
//! * `stream.prom` — Prometheus-style text exposition of the final
//!   counters and histogram summaries.
//!
//! Everything written is deterministic for a fixed seed: the virtual
//! clock, the search-count latency proxy, and the sequential admission
//! loop are all wall-clock-independent, so CI byte-compares double
//! runs.
//! Wall-clock throughput (admissions/sec) exists only on stderr, via
//! [`StreamRun::render_throughput`].

use std::path::{Path, PathBuf};
use std::time::Duration;

use muerp_core::extensions::{simulate_stream, StreamDriver, StreamOutcome};
use muerp_core::model::NetworkSpec;
use qnet_obs::{Capture, ObsLevel};

use crate::cli::StreamArgs;
use crate::table::FigureTable;

/// Everything one streaming run produces in memory.
#[derive(Clone, Debug)]
pub struct StreamRun {
    /// The run configuration that ran.
    pub cfg: StreamDriver,
    /// Seed of the network build and the workload RNG.
    pub seed: u64,
    /// Stats and windowed series from the core driver.
    pub outcome: StreamOutcome,
    /// The windows and summary tables (deterministic stdout/CSV).
    pub tables: Vec<FigureTable>,
    /// The captured schema-4 report, time-series section attached.
    pub report: qnet_obs::RunReport,
    /// Wall-clock duration of the simulation (stderr only).
    pub wall: Duration,
}

impl StreamRun {
    /// The deterministic stdout block: both tables as aligned text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for table in &self.tables {
            out.push_str(&table.render_text());
            out.push('\n');
        }
        out
    }

    /// Wall-clock throughput line (jitters run to run — stderr only).
    pub fn render_throughput(&self) -> String {
        let secs = self.wall.as_secs_f64().max(1e-9);
        format!(
            "sustained load: {} slot(s) in {:.1?} — {:.0} slots/sec, {:.0} admissions/sec\n",
            self.cfg.load.slots,
            self.wall,
            self.cfg.load.slots as f64 / secs,
            self.outcome.stats.admitted as f64 / secs,
        )
    }
}

/// Builds the per-window and summary tables for `outcome`.
pub fn stream_tables(cfg: &StreamDriver, seed: u64, outcome: &StreamOutcome) -> Vec<FigureTable> {
    let stats = &outcome.stats;
    let window_rows: Vec<(String, Vec<f64>)> = outcome
        .series
        .windows
        .iter()
        .map(|w| {
            let rate = |key: &str| w.rates.get(key).copied().unwrap_or(0) as f64;
            let gauge = |key: &str| w.gauges.get(key).copied().unwrap_or(0.0);
            let arrivals = rate("arrivals");
            let blocked = rate("blocked_no_users") + rate("blocked_capacity");
            let p99 = w
                .latencies
                .get("admission_searches")
                .map_or(0.0, |h| h.quantiles().2);
            (
                w.index.to_string(),
                vec![
                    arrivals,
                    rate("admitted"),
                    blocked,
                    if arrivals > 0.0 {
                        blocked / arrivals
                    } else {
                        0.0
                    },
                    p99,
                    gauge("cache_hit_rate"),
                    gauge("active_sessions"),
                    gauge("free_qubits"),
                ],
            )
        })
        .collect();

    let merged = outcome.series.merged_latency("admission_searches");
    let (p50, _, p99) = merged.quantiles();
    let summary_rows: Vec<(String, Vec<f64>)> = vec![
        ("arrived".into(), vec![stats.arrived as f64]),
        ("admitted".into(), vec![stats.admitted as f64]),
        (
            "blocked-no-users".into(),
            vec![stats.blocked_no_users as f64],
        ),
        (
            "blocked-capacity".into(),
            vec![stats.blocked_capacity as f64],
        ),
        ("blocking-ratio".into(), vec![stats.blocking_ratio()]),
        ("mean-session-rate".into(), vec![stats.mean_session_rate]),
        (
            "mean-active-sessions".into(),
            vec![stats.mean_active_sessions],
        ),
        (
            "peak-active-sessions".into(),
            vec![stats.peak_active_sessions as f64],
        ),
        ("total-searches".into(), vec![stats.total_searches as f64]),
        ("p50-admission-searches".into(), vec![p50]),
        ("p99-admission-searches".into(), vec![p99]),
        ("cache-hit-rate".into(), vec![stats.cache.hit_rate()]),
        ("cache-repairs".into(), vec![stats.cache.repairs as f64]),
        ("churn-events".into(), vec![stats.churn_events as f64]),
        ("trace-sampled-out".into(), vec![stats.sampled_out as f64]),
    ];

    vec![
        FigureTable {
            id: "stream-windows",
            title: format!(
                "Sustained load over {} slots ({}-slot windows, seed {seed})",
                cfg.load.slots, cfg.window_slots
            ),
            x_label: "window",
            algos: vec![
                "arrivals",
                "admitted",
                "blocked",
                "blocking-ratio",
                "p99-searches",
                "hit-rate",
                "active",
                "free-qubits",
            ],
            rows: window_rows,
        },
        FigureTable {
            id: "stream-summary",
            title: "Streaming run summary".into(),
            x_label: "metric",
            algos: vec!["value"],
            rows: summary_rows,
        },
    ]
}

/// Runs the streaming workload in memory under a [`Capture`] at obs
/// `level`, and captures the schema-4 report with the time-series
/// section attached.
///
/// `repro stream` runs at `counters` unless `MUERP_OBS` names a level:
/// the report then carries no spans (and thus no wall-clock), keeping
/// every artifact byte-deterministic.
pub fn run_workload(cfg: StreamDriver, seed: u64, level: ObsLevel) -> StreamRun {
    let capture = Capture::begin(level);
    let net = NetworkSpec::paper_default().build(seed);
    let started = std::time::Instant::now();
    let outcome = simulate_stream(&net, cfg, seed);
    let wall = started.elapsed();
    let report = capture
        .finish("stream")
        .with_timeseries(outcome.series.clone());
    let tables = stream_tables(&cfg, seed, &outcome);
    StreamRun {
        cfg,
        seed,
        outcome,
        tables,
        report,
        wall,
    }
}

/// Runs `repro stream` end to end at obs `level` and writes every
/// artifact into `args.out`. Returns the run and the written paths.
///
/// # Errors
///
/// Returns a message when the output directory or any artifact cannot
/// be written.
pub fn run_stream(args: &StreamArgs, level: ObsLevel) -> Result<(StreamRun, Vec<PathBuf>), String> {
    let run = run_workload(args.cfg, args.seed, level);
    let written = write_artifacts(&args.out, &run.tables, &run.outcome.series, &run.report)?;
    Ok((run, written))
}

/// Writes a pipeline's artifacts into `dir`: one CSV per table, then
/// `<run>.metrics.jsonl` (the raw `series`), the run report, and the
/// Prometheus exposition `<run>.prom`, where `<run>` is the report's
/// run name.
pub(crate) fn write_artifacts(
    dir: &Path,
    tables: &[FigureTable],
    series: &qnet_obs::TimeSeriesSection,
    report: &qnet_obs::RunReport,
) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut written = Vec::new();
    for table in tables {
        let path = dir.join(format!("{}.csv", table.id));
        std::fs::write(&path, table.to_csv())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        written.push(path);
    }
    written.push(
        qnet_obs::write_metrics_jsonl(dir, &report.run, series)
            .map_err(|e| format!("cannot write metrics stream: {e}"))?,
    );
    written.push(
        qnet_obs::write_report(dir, report).map_err(|e| format!("cannot write run report: {e}"))?,
    );
    written.push(
        qnet_obs::write_prometheus(dir, &report.run, report)
            .map_err(|e| format!("cannot write prometheus exposition: {e}"))?,
    );
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> StreamDriver {
        StreamDriver {
            load: muerp_core::extensions::StreamConfig {
                slots: 256,
                ..Default::default()
            },
            window_slots: 32,
            ..StreamDriver::default()
        }
    }

    #[test]
    fn tables_have_the_documented_shape() {
        let net = NetworkSpec::paper_default().build(3);
        let outcome = simulate_stream(&net, small_cfg(), 3);
        let tables = stream_tables(&small_cfg(), 3, &outcome);
        assert_eq!(tables.len(), 2);
        let windows = &tables[0];
        assert_eq!(windows.id, "stream-windows");
        assert_eq!(windows.rows.len(), 256 / 32);
        assert_eq!(windows.algos.len(), 8);
        let summary = &tables[1];
        assert_eq!(summary.id, "stream-summary");
        assert_eq!(summary.algos, vec!["value"]);
        assert_eq!(
            summary.cell("arrived", "value"),
            Some(outcome.stats.arrived as f64)
        );
        assert_eq!(
            summary.cell("blocking-ratio", "value"),
            Some(outcome.stats.blocking_ratio())
        );
    }

    #[test]
    fn window_rows_sum_to_the_summary_totals() {
        let net = NetworkSpec::paper_default().build(4);
        let outcome = simulate_stream(&net, small_cfg(), 4);
        let tables = stream_tables(&small_cfg(), 4, &outcome);
        let col = |name: &str| -> f64 {
            let i = tables[0].algos.iter().position(|a| *a == name).unwrap();
            tables[0].rows.iter().map(|(_, row)| row[i]).sum()
        };
        assert_eq!(col("arrivals"), outcome.stats.arrived as f64);
        assert_eq!(col("admitted"), outcome.stats.admitted as f64);
        assert_eq!(col("blocked"), outcome.stats.blocked() as f64);
    }
}
