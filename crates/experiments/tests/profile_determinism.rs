//! End-to-end checks of `repro profile`'s engine: the deterministic
//! artifacts must be bitwise stable across runs in one process, the
//! attribution must cover the root span's wall time, and the Chrome
//! trace must be well-formed.
//!
//! Each run holds a [`qnet_obs::Capture`] (taken by
//! [`muerp_experiments::profile::run_scenario`]), so runs take turns on
//! the global sinks. They live in their own integration binary because
//! the crate's unit tests hold no capture and would count into a run's
//! report.

use muerp_experiments::cli::ProfileArgs;
use muerp_experiments::profile::{run_profile, run_scenario, ProfileRun};
use muerp_experiments::AlgoKind;

fn paper_run(seed: u64) -> ProfileRun {
    run_scenario("paper-default", seed).expect("known scenario")
}

#[test]
fn deterministic_artifacts_are_bitwise_stable() {
    let a = paper_run(2024);
    let b = paper_run(2024);
    assert_eq!(a.to_csv(), b.to_csv(), "primary CSV must be bitwise stable");
    assert_eq!(a.render_text(), b.render_text(), "stdout table too");
    // The rates themselves are the strongest signal the runs matched.
    assert_eq!(a.rates, b.rates);
}

#[test]
fn different_seeds_change_the_network_not_the_shape() {
    let a = paper_run(1);
    let b = paper_run(2);
    assert_eq!(a.rates.len(), b.rates.len());
    // Same fact sections appear regardless of seed (values may differ).
    let sections = |r: &ProfileRun| {
        r.deterministic_facts()
            .iter()
            .map(|(s, _, _)| *s)
            .collect::<std::collections::BTreeSet<_>>()
    };
    assert_eq!(sections(&a), sections(&b));
}

#[test]
fn attribution_covers_the_root_span() {
    let run = paper_run(2024);
    let profile = run.report.profile.as_ref().expect("profile attached");
    assert!(
        profile.coverage() >= 0.95,
        "coverage {:.3} below the 95% bar",
        profile.coverage()
    );
    let root = profile
        .rows
        .iter()
        .find(|r| r.name == "exp.profile.run")
        .expect("root span recorded");
    assert_eq!(root.count, 1);
    // Exactly one wrapper span per algorithm in the suite.
    let wrappers = profile
        .rows
        .iter()
        .filter(|r| r.name.starts_with("exp.profile.") && r.name != "exp.profile.run")
        .count();
    assert_eq!(wrappers, AlgoKind::ALL.len() + 1, "5 algorithms + build");
    // The flight recorder captured solver decisions at trace level.
    assert!(!run.events.is_empty());
    let row_total: u64 = profile.rows.iter().map(|r| r.count).sum();
    assert_eq!(
        row_total,
        run.report.spans.len() as u64,
        "every span lands in a row"
    );
}

#[test]
fn csv_shapes_match_fact_and_row_counts() {
    let run = paper_run(1);
    let facts = run.deterministic_facts();
    let csv = run.to_csv();
    assert!(csv.starts_with("section,name,value\n"));
    assert_eq!(
        csv.lines().count(),
        facts.len() + 1,
        "header + one line per fact"
    );
    let profile = run.report.profile.as_ref().unwrap();
    assert_eq!(run.times_csv().lines().count(), profile.rows.len() + 1);
    // The times table renders without panicking even for tiny top-N.
    assert!(run.render_times(1).contains("wall-time attribution"));
}

#[test]
fn chrome_trace_is_well_formed_json() {
    let run = paper_run(2024);
    let trace = qnet_obs::chrome_trace_value(&run.report, &run.events);
    let events = trace
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    // Every event carries the required trace-event-format keys.
    for ev in events {
        for key in ["ph", "pid", "tid", "ts", "name"] {
            assert!(ev.get(key).is_some(), "event missing {key}: {ev}");
        }
    }
    // B/E balance per thread track.
    let mut depth: std::collections::HashMap<u64, i64> = Default::default();
    for ev in events {
        let tid = ev.get("tid").and_then(|t| t.as_u64()).unwrap();
        match ev.get("ph").and_then(|p| p.as_str()).unwrap() {
            "B" => *depth.entry(tid).or_default() += 1,
            "E" => {
                let d = depth.entry(tid).or_default();
                *d -= 1;
                assert!(*d >= 0, "E without B on tid {tid}");
            }
            _ => {}
        }
    }
    assert!(
        depth.values().all(|&d| d == 0),
        "unbalanced tracks: {depth:?}"
    );
}

#[test]
fn written_report_and_trace_carry_the_profile() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("profile_determinism");
    let args = ProfileArgs {
        scenario: "paper-default".into(),
        seed: 2024,
        out: out.clone(),
        top: 15,
    };
    run_profile(&args).expect("profile runs");
    let read = |name: &str| -> serde_json::Value {
        let text = std::fs::read_to_string(out.join(name)).expect("artifact written");
        serde_json::from_str(&text).expect("artifact is JSON")
    };
    // Written at the current report schema; the profile section dates
    // from schema 3.
    let report = read("profile-paper-default.json");
    assert_eq!(
        report["schema_version"].as_u64(),
        Some(u64::from(qnet_obs::SCHEMA_VERSION))
    );
    let back = qnet_obs::RunReport::from_json(&report).expect("report parses");
    assert!(
        back.profile.is_some_and(|p| !p.rows.is_empty()),
        "no attribution rows"
    );
    let trace = read("profile-paper-default.trace.json");
    let events = trace["traceEvents"].as_array().expect("traceEvents array");
    assert!(
        events.iter().any(|ev| ev["ph"].as_str() == Some("B")),
        "no duration events"
    );
}

#[test]
fn unknown_scenarios_error_before_touching_globals() {
    assert!(run_scenario("nonsense", 0).is_err());
}
