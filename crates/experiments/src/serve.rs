//! `repro serve` — the batched admission report pipeline.
//!
//! Drives [`muerp_serve::serve`] (batched admission rounds over the
//! seeded open-loop request stream) on a paper-default network and
//! turns the per-round telemetry into the full artifact set:
//!
//! * `serve-rounds.csv` — one row per admission round: arrivals,
//!   admissions, blocks, sheds, departures, queue depth, cache hit
//!   rate, active sessions, free qubits;
//! * `serve-summary.csv` — the run-level totals, per-class tallies,
//!   final deficit balances, and search percentiles;
//! * `serve.metrics.jsonl` — the raw round series, one JSON object per
//!   round ([`qnet_obs::write_metrics_jsonl`]);
//! * `serve.json` — a schema-4 [`qnet_obs::RunReport`] with the
//!   [`TimeSeriesSection`](qnet_obs::TimeSeriesSection) attached;
//! * `serve.prom` — Prometheus-style text exposition of the final
//!   counters and histogram summaries.
//!
//! Everything written is deterministic for a fixed seed: the round
//! timeline, the bounded queue, the policy orders, and the warm batches
//! are all wall-clock-independent, so CI byte-compares double runs.
//! Wall-clock throughput exists only on stderr, via
//! [`ServeRun::render_throughput`].

use std::path::PathBuf;
use std::time::Duration;

use muerp_core::extensions::SloClass;
use muerp_core::model::NetworkSpec;
use muerp_serve::{serve, ServeConfig, ServeOutcome};

use crate::cli::ServeArgs;
use crate::stream::{reset_obs, write_artifacts};
use crate::table::FigureTable;

/// Everything one serve run produces in memory.
#[derive(Clone, Debug)]
pub struct ServeRun {
    /// The admission configuration that ran.
    pub cfg: ServeConfig,
    /// Seed of the network build and the request stream.
    pub seed: u64,
    /// Stats, decisions, rounds, and the round series.
    pub outcome: ServeOutcome,
    /// The rounds and summary tables (deterministic stdout/CSV).
    pub tables: Vec<FigureTable>,
    /// The captured schema-4 report, time-series section attached.
    pub report: qnet_obs::RunReport,
    /// Wall-clock duration of the run (stderr only).
    pub wall: Duration,
}

impl ServeRun {
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
            "admission service: {} round(s) in {:.1?} — {:.0} rounds/sec, {:.0} decisions/sec\n",
            self.outcome.rounds.len(),
            self.wall,
            self.outcome.rounds.len() as f64 / secs,
            self.outcome.decisions.len() as f64 / secs,
        )
    }
}

/// Builds the per-round and summary tables for `outcome`.
pub fn serve_tables(cfg: &ServeConfig, seed: u64, outcome: &ServeOutcome) -> Vec<FigureTable> {
    let stats = &outcome.stats;
    let round_rows: Vec<(String, Vec<f64>)> = outcome
        .series
        .windows
        .iter()
        .map(|w| {
            let rate = |key: &str| w.rates.get(key).copied().unwrap_or(0) as f64;
            let gauge = |key: &str| w.gauges.get(key).copied().unwrap_or(0.0);
            (
                w.index.to_string(),
                vec![
                    rate("arrivals"),
                    rate("admitted"),
                    rate("blocked_busy") + rate("blocked_capacity"),
                    rate("shed"),
                    rate("departures"),
                    gauge("queue_depth"),
                    gauge("cache_hit_rate"),
                    gauge("active_sessions"),
                    gauge("free_qubits"),
                ],
            )
        })
        .collect();

    let merged = outcome.series.merged_latency("round_searches");
    let (p50, _, p99) = merged.quantiles();
    let mut summary_rows: Vec<(String, Vec<f64>)> = vec![
        ("arrived".into(), vec![stats.arrived as f64]),
        ("admitted".into(), vec![stats.admitted as f64]),
        ("blocked-busy".into(), vec![stats.blocked_busy as f64]),
        (
            "blocked-capacity".into(),
            vec![stats.blocked_capacity as f64],
        ),
        ("shed".into(), vec![stats.shed as f64]),
        ("departures".into(), vec![stats.departures as f64]),
        ("loss-ratio".into(), vec![stats.loss_ratio()]),
        ("mean-session-rate".into(), vec![stats.mean_session_rate]),
        ("peak-queue".into(), vec![stats.peak_queue as f64]),
        (
            "peak-active-sessions".into(),
            vec![stats.peak_active_sessions as f64],
        ),
        ("total-searches".into(), vec![stats.total_searches as f64]),
        ("p50-round-searches".into(), vec![p50]),
        ("p99-round-searches".into(), vec![p99]),
        ("cache-hit-rate".into(), vec![stats.cache.hit_rate()]),
        ("cache-repairs".into(), vec![stats.cache.repairs as f64]),
    ];
    for class in SloClass::ALL {
        let tally = stats.per_class[class.index()];
        summary_rows.push((
            format!("{}-arrived", class.name()),
            vec![tally.arrived as f64],
        ));
        summary_rows.push((
            format!("{}-admitted", class.name()),
            vec![tally.admitted as f64],
        ));
        summary_rows.push((
            format!("{}-deficit", class.name()),
            vec![outcome.deficits[class.index()] as f64],
        ));
    }

    vec![
        FigureTable {
            id: "serve-rounds",
            title: format!(
                "Batched admission over {} slots ({}-slot rounds, {} policy, seed {seed})",
                cfg.stream.slots,
                cfg.round_slots,
                cfg.policy.name()
            ),
            x_label: "round",
            algos: vec![
                "arrivals",
                "admitted",
                "blocked",
                "shed",
                "departures",
                "queue-depth",
                "hit-rate",
                "active",
                "free-qubits",
            ],
            rows: round_rows,
        },
        FigureTable {
            id: "serve-summary",
            title: "Admission service summary".into(),
            x_label: "metric",
            algos: vec!["value"],
            rows: summary_rows,
        },
    ]
}

/// Runs the admission service in memory: resets the process-global
/// observability state (`reset_obs`), serves, and captures the
/// schema-4 report with the round series attached.
pub fn run_workload(cfg: ServeConfig, seed: u64) -> ServeRun {
    reset_obs();

    let net = NetworkSpec::paper_default().build(seed);
    let started = std::time::Instant::now();
    let outcome = serve(&net, &cfg, seed);
    let wall = started.elapsed();
    let report = qnet_obs::RunReport::capture("serve").with_timeseries(outcome.series.clone());
    let tables = serve_tables(&cfg, seed, &outcome);
    ServeRun {
        cfg,
        seed,
        outcome,
        tables,
        report,
        wall,
    }
}

/// Runs `repro serve` end to end and writes every artifact into
/// `args.out`. Returns the run and the written paths.
///
/// # Errors
///
/// Returns a message on an unknown policy or when the output directory
/// or any artifact cannot be written.
pub fn run_serve(args: &ServeArgs) -> Result<(ServeRun, Vec<PathBuf>), String> {
    let run = run_workload(args.config()?, args.seed);
    let written = write_artifacts(&args.out, &run.tables, &run.outcome.series, &run.report)?;
    Ok((run, written))
}

#[cfg(test)]
mod tests {
    use super::*;
    use muerp_core::extensions::StreamConfig;
    use muerp_serve::PolicyKind;

    fn small_cfg() -> ServeConfig {
        ServeConfig {
            stream: StreamConfig {
                slots: 256,
                window_slots: 32,
                ..StreamConfig::default()
            },
            round_slots: 16,
            queue_capacity: 4,
            policy: PolicyKind::Fcfs,
        }
    }

    #[test]
    fn tables_have_the_documented_shape() {
        let net = NetworkSpec::paper_default().build(3);
        let outcome = serve(&net, &small_cfg(), 3);
        let tables = serve_tables(&small_cfg(), 3, &outcome);
        assert_eq!(tables.len(), 2);
        let rounds = &tables[0];
        assert_eq!(rounds.id, "serve-rounds");
        assert_eq!(rounds.rows.len(), 256 / 16);
        assert_eq!(rounds.algos.len(), 9);
        let summary = &tables[1];
        assert_eq!(summary.id, "serve-summary");
        assert_eq!(summary.algos, vec!["value"]);
        assert_eq!(
            summary.cell("arrived", "value"),
            Some(outcome.stats.arrived as f64)
        );
        assert_eq!(
            summary.cell("shed", "value"),
            Some(outcome.stats.shed as f64)
        );
        // Per-class rows exist for every SLO tier.
        for class in SloClass::ALL {
            assert!(summary
                .cell(&format!("{}-admitted", class.name()), "value")
                .is_some());
        }
    }

    #[test]
    fn round_rows_sum_to_the_summary_totals() {
        let net = NetworkSpec::paper_default().build(4);
        let outcome = serve(&net, &small_cfg(), 4);
        let tables = serve_tables(&small_cfg(), 4, &outcome);
        let col = |name: &str| -> f64 {
            let i = tables[0].algos.iter().position(|a| *a == name).unwrap();
            tables[0].rows.iter().map(|(_, row)| row[i]).sum()
        };
        assert_eq!(col("arrivals"), outcome.stats.arrived as f64);
        assert_eq!(col("admitted"), outcome.stats.admitted as f64);
        assert_eq!(col("shed"), outcome.stats.shed as f64);
        assert_eq!(
            col("blocked"),
            (outcome.stats.blocked_busy + outcome.stats.blocked_capacity) as f64
        );
    }
}
