//! `repro`'s observability outputs and usage, driven through the binary.
//!
//! `repro` reads `MUERP_OBS` once, at start-up, and a value that names
//! no level is an error: exit 1 with the value on stderr, before any
//! suite runs or any report is written. At `trace`, `--obs-report`
//! writes a run report and the flight recorder's JSON Lines per suite.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use qnet_obs::{RunReport, SCHEMA_VERSION};
use serde_json::Value;

/// Runs `repro fig5 --trials 1 --obs-report` at `MUERP_OBS=level` in a
/// fresh scratch directory named `name`; returns the directory and the
/// process output.
fn fig5_obs_report(name: &str, level: &str) -> (PathBuf, Output) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig5", "--trials", "1", "--obs-report"])
        .env("MUERP_OBS", level)
        .current_dir(&dir)
        .output()
        .expect("repro runs");
    (dir, out)
}

#[test]
fn a_misspelt_obs_level_exits_1_and_names_the_value() {
    let (dir, out) = fig5_obs_report("repro-env", "tarce");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("tarce"), "stderr: {stderr}");
    assert!(
        !dir.join("results").exists(),
        "no report may be written at a level nobody asked for"
    );
}

#[test]
fn a_traced_run_writes_a_current_report_and_well_formed_events() {
    let (dir, out) = fig5_obs_report("repro-obs-report", "trace");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let obs = dir.join("results/obs");

    let text = std::fs::read_to_string(obs.join("fig5.json")).expect("report written");
    let json = serde_json::from_str(&text).expect("report is JSON");
    let report = RunReport::from_json(&json).expect("report has the run-report shape");
    assert_eq!(report.run, "fig5");
    assert_eq!(report.schema_version, SCHEMA_VERSION);
    assert!(!report.counters.is_empty(), "no counters recorded");

    let trace = std::fs::read_to_string(obs.join("fig5.trace.jsonl")).expect("trace written");
    let events: Vec<Value> = trace
        .lines()
        .map(|line| serde_json::from_str(line).expect("each line is JSON"))
        .collect();
    assert!(!events.is_empty(), "flight recorder captured nothing");
    for event in &events {
        assert!(
            event.get("type").is_some() && event.get("seq").is_some(),
            "event without type or seq: {event:?}"
        );
    }
    assert!(
        events
            .iter()
            .any(|e| e.get("type").and_then(Value::as_str) == Some("candidate")),
        "no channel decisions traced"
    );
}

#[test]
fn help_prints_every_form_to_stdout_and_a_bare_repro_fails_with_it() {
    let repro = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .env_remove("MUERP_OBS")
            .output()
            .expect("repro runs")
    };
    let help = repro(&["--help"]);
    let usage = String::from_utf8_lossy(&help.stdout).into_owned();
    assert_eq!(help.status.code(), Some(0), "stderr: {:?}", help.stderr);
    assert!(usage.starts_with("usage: repro <fig5|"), "stdout: {usage}");
    for sub in ["serve", "stream", "churn", "profile", "fuzz", "obs-diff"] {
        assert!(
            usage.contains(&format!("repro {sub} ")),
            "no {sub}: {usage}"
        );
    }
    let short = repro(&["-h"]);
    assert_eq!(short.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&short.stdout), usage);

    let bare = repro(&[]);
    assert_eq!(bare.status.code(), Some(1));
    assert!(bare.stdout.is_empty(), "the usage goes to stderr");
    assert_eq!(String::from_utf8_lossy(&bare.stderr), usage);
}
