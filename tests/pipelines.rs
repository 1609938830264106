//! The `repro stream` and `repro serve` pipelines end to end, with the
//! smoke-run arguments (`--slots 1024 --seed 2024`, plus `--round 32`
//! for serve): every artifact they write must be schema-valid, and the
//! serve round stream's accounting must close against its summary.
//!
//! Both pipelines reset the process-global obs registry, so the tests
//! in this binary run one at a time.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use muerp::experiments::cli::{parse_command, Command};
use muerp::experiments::serve::run_serve;
use muerp::experiments::stream::run_stream;
use serde_json::Value;

/// Serializes the tests in this binary; each one resets global state.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Parses `argv` plus `--out <fresh dir under cargo's test scratch
/// space>` the way `repro` does; returns the command and the directory.
fn command(argv: &[&str], name: &str) -> (Command, PathBuf) {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("pipelines-{name}"));
    let _ = std::fs::remove_dir_all(&out);
    let mut argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
    argv.extend(["--out".to_string(), out.display().to_string()]);
    (parse_command(argv).expect("smoke arguments parse"), out)
}

fn read(dir: &Path, file: &str) -> String {
    std::fs::read_to_string(dir.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"))
}

fn json(text: &str) -> Value {
    serde_json::from_str(text).expect("valid JSON")
}

/// One parsed window object per line.
fn json_lines(dir: &Path, file: &str) -> Vec<Value> {
    read(dir, file).lines().map(json).collect()
}

/// `end_slot − start_slot` of one window.
fn width(w: &Value) -> u64 {
    w["end_slot"].as_u64().expect("end_slot") - w["start_slot"].as_u64().expect("start_slot")
}

#[test]
fn stream_metrics_stream_is_schema_valid_jsonl() {
    let _serial = serial();
    let (cmd, dir) = command(&["stream", "--slots", "1024", "--seed", "2024"], "stream");
    let Command::Stream(args) = cmd else {
        panic!("stream subcommand")
    };
    run_stream(&args).expect("stream pipeline writes its artifacts");

    let lines = json_lines(&dir, "stream.metrics.jsonl");
    assert_eq!(lines.len(), 1024 / 64, "one line per window");
    for (i, w) in lines.iter().enumerate() {
        for key in [
            "window",
            "start_slot",
            "end_slot",
            "gauges",
            "rates",
            "latencies",
        ] {
            assert!(w.get(key).is_some(), "window {i} missing {key}");
        }
        assert_eq!(w["window"].as_u64(), Some(i as u64));
        assert_eq!(width(w), 64);
        for key in [
            "arrivals",
            "admitted",
            "blocked_no_users",
            "blocked_capacity",
        ] {
            assert!(
                w["rates"].get(key).is_some(),
                "window {i} missing rate {key}"
            );
        }
        for key in ["active_sessions", "free_qubits", "cache_hit_rate"] {
            assert!(
                w["gauges"].get(key).is_some(),
                "window {i} missing gauge {key}"
            );
        }
    }

    let report = json(&read(&dir, "stream.json"));
    assert_eq!(report["schema_version"].as_u64(), Some(4));
    let ts = &report["timeseries"];
    assert_eq!(ts["window_slots"].as_u64(), Some(64));
    assert_eq!(ts["evicted"].as_u64(), Some(0));
    assert_eq!(ts["windows"].as_array().map(Vec::len), Some(lines.len()));

    let prom = read(&dir, "stream.prom");
    assert!(
        prom.contains("# TYPE") && prom.replace('.', "_").contains("core_stream"),
        "exposition empty"
    );
}

#[test]
fn serve_round_stream_is_schema_valid_and_accounting_closes() {
    let _serial = serial();
    let (cmd, dir) = command(
        &[
            "serve", "--slots", "1024", "--round", "32", "--seed", "2024",
        ],
        "serve",
    );
    let Command::Serve(args) = cmd else {
        panic!("serve subcommand")
    };
    run_serve(&args).expect("serve pipeline writes its artifacts");

    let lines = json_lines(&dir, "serve.metrics.jsonl");
    assert_eq!(lines.len(), 1024 / 32, "one line per round");
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    for (i, w) in lines.iter().enumerate() {
        assert_eq!(w["window"].as_u64(), Some(i as u64));
        assert_eq!(width(w), 32);
        for key in [
            "arrivals",
            "admitted",
            "blocked_busy",
            "blocked_capacity",
            "shed",
            "departures",
        ] {
            let count = w["rates"][key]
                .as_u64()
                .unwrap_or_else(|| panic!("round {i} missing rate {key}"));
            *totals.entry(key).or_default() += count;
        }
        for key in [
            "queue_depth",
            "active_sessions",
            "free_qubits",
            "cache_hit_rate",
        ] {
            assert!(
                w["gauges"].get(key).is_some(),
                "round {i} missing gauge {key}"
            );
        }
    }
    let decided: u64 = ["admitted", "blocked_busy", "blocked_capacity", "shed"]
        .iter()
        .map(|key| totals[key])
        .sum();
    assert_eq!(decided, totals["arrivals"], "accounting leak");

    let csv = read(&dir, "serve-summary.csv");
    let summary: BTreeMap<&str, f64> = csv
        .lines()
        .filter(|row| !row.is_empty() && !row.starts_with("metric,"))
        .map(|row| {
            let (key, value) = row.split_once(',').expect("metric,value row");
            (key, value.parse().expect("numeric value"))
        })
        .collect();
    assert_eq!(
        summary["arrived"], totals["arrivals"] as f64,
        "summary disagrees with rounds"
    );
    assert_eq!(summary["admitted"], totals["admitted"] as f64);
    assert_eq!(summary["shed"], totals["shed"] as f64);

    let report = json(&read(&dir, "serve.json"));
    assert_eq!(report["schema_version"].as_u64(), Some(4));
    let ts = &report["timeseries"];
    assert_eq!(ts["evicted"].as_u64(), Some(0));
    assert_eq!(ts["windows"].as_array().map(Vec::len), Some(lines.len()));
}
