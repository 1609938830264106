//! # muerp-bench — benchmark support
//!
//! The benchmark targets live in `benches/`:
//!
//! * `figures` — regenerates every paper figure (Figs. 5–8) at bench
//!   trial counts and times the full pipeline per panel.
//! * `algorithms` — per-algorithm solve latency at growing network
//!   scale, checking the §IV complexity discussion empirically.
//! * `substrates` — the building blocks: Dijkstra/Algorithm 1, topology
//!   generation, union-find, Monte-Carlo slot throughput.
//! * `ablations` — design-choice sensitivity: Algorithm 4 seed policy,
//!   Algorithm 3 retention policy, fidelity hop bounds, fusion models.
//! * `search_core` — fresh-alloc vs reusable-workspace vs epoch-cached
//!   search paths; writes the tracked `BENCH_pr7.json` baseline at the
//!   repo root.
//!
//! This crate's library hosts shared helpers for those benches: network
//! builders, a self-calibrating timing loop, and the `BENCH_*.json`
//! report writer.

use std::time::{Duration, Instant};

use muerp_core::model::{NetworkSpec, QuantumNetwork};

/// Builds the paper-default network family scaled to `switches` switches
/// (10 users, degree 6), used by the scaling benches.
pub fn scaled_network(switches: usize, seed: u64) -> QuantumNetwork {
    let mut spec = NetworkSpec::paper_default();
    spec.topology.nodes = switches + spec.users;
    spec.build(seed)
}

/// `true` when `MUERP_BENCH_QUICK=1`: CI smoke mode — tiny measurement
/// windows, numbers good only for "did it run", not for comparison.
pub fn quick_mode() -> bool {
    std::env::var_os("MUERP_BENCH_QUICK").is_some_and(|v| v == *"1")
}

fn bench_window() -> Duration {
    if quick_mode() {
        Duration::from_millis(20)
    } else {
        Duration::from_millis(300)
    }
}

/// Times `op` with the same calibrate-then-fill-the-window scheme the
/// vendored criterion stub uses; returns mean ns per call.
pub fn measure_ns(mut op: impl FnMut()) -> f64 {
    let window = bench_window();
    // Warm-up + calibration: run until ~10% of the window is spent,
    // doubling the batch each time.
    let calibration_budget = window / 10;
    let mut batch: u64 = 1;
    let mut calibration_iters: u64 = 0;
    let calib_start = Instant::now();
    loop {
        for _ in 0..batch {
            op();
        }
        calibration_iters += batch;
        if calib_start.elapsed() >= calibration_budget || batch >= (1 << 20) {
            break;
        }
        batch *= 2;
    }
    let per_iter = calib_start.elapsed().as_secs_f64() / calibration_iters as f64;
    let iterations = ((window.as_secs_f64() / per_iter.max(1e-9)) as u64).clamp(1, 1 << 24);
    let start = Instant::now();
    for _ in 0..iterations {
        op();
    }
    start.elapsed().as_secs_f64() * 1e9 / iterations as f64
}

/// Median of three [`measure_ns`] rounds — discards a scheduler spike
/// without tripling the reported number's meaning.
pub fn measure_ns_median(mut op: impl FnMut()) -> f64 {
    let mut rounds = [0.0f64; 3];
    for r in &mut rounds {
        *r = measure_ns(&mut op);
    }
    median(&mut rounds)
}

fn median(rounds: &mut [f64]) -> f64 {
    rounds.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    rounds[rounds.len() / 2]
}

/// Writes a `BENCH_*.json` report at the repo root (pretty-printed,
/// trailing newline) and returns the path written.
///
/// The repo root is resolved relative to this crate's manifest so the
/// result is independent of the bench runner's working directory.
pub fn write_bench_report(file_name: &str, report: &serde_json::Value) -> std::path::PathBuf {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file_name);
    let body = serde_json::to_string_pretty(report).expect("report serializes");
    std::fs::write(&path, body + "\n").expect("bench report is writable");
    path.canonicalize().unwrap_or(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_network_has_requested_size() {
        let net = scaled_network(30, 1);
        assert_eq!(net.switch_count(), 30);
        assert_eq!(net.user_count(), 10);
    }

    #[test]
    fn measure_ns_returns_positive_time() {
        std::env::set_var("MUERP_BENCH_QUICK", "1");
        let ns = measure_ns(|| {
            std::hint::black_box((0..100u64).sum::<u64>());
        });
        assert!(ns > 0.0 && ns.is_finite());
    }
}
