//! The tracked `BENCH_*.json` files at the repo root: every one passes
//! the one BENCH validator (`muerp_bench::ledger`), and the validator
//! rejects each kind of bad file — a quick run, another bench's report,
//! a missing host block, a bad, duplicate or missing row, a broken
//! gate — naming the file and the row.

use std::path::Path;

use muerp_bench::ledger::{check_committed, Ledger, REPORTS};
use serde_json::Value;

/// Every `BENCH_*.json` at the repo root, by file name, parsed.
fn root_files() -> Vec<(String, Value)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(root)
        .expect("repo root lists")
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let text = std::fs::read_to_string(root.join(&name)).expect("bench file reads");
            let json = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, json)
        })
        .collect()
}

/// The committed report `file`, parsed and checked.
fn committed(file: &str) -> Ledger {
    let (_, json) = root_files()
        .into_iter()
        .find(|(name, _)| name == file)
        .unwrap_or_else(|| panic!("{file} is missing at the repo root"));
    check_committed(file, &json).unwrap_or_else(|e| panic!("{e}"))
}

/// Sets row `name` of `ledger` to `value`.
fn set(ledger: &mut Ledger, name: &str, value: f64) {
    let row = ledger.rows.iter_mut().find(|r| r.name == name);
    row.unwrap_or_else(|| panic!("no row {name}")).value = value;
}

/// Asserts the validator rejects `json` as `file`, naming `what`, both
/// in memory (as the writer checks it) and read back from its text (as
/// tier-1 checks a committed file).
fn rejects(file: &str, json: &Value, what: &str) {
    let text = serde_json::to_string(json).expect("serializes");
    for form in [json.clone(), serde_json::from_str(&text).expect("parses")] {
        let err = check_committed(file, &form).expect_err("a corrupted file must be rejected");
        assert!(err.starts_with(&format!("{file}: {what}: ")), "{err}");
    }
}

#[test]
fn every_root_bench_file_passes_the_ledger() {
    let files = root_files();
    for (_, tracked) in REPORTS {
        assert!(
            files.iter().any(|(name, _)| name == tracked),
            "{tracked} is missing at the repo root"
        );
    }
    for (name, json) in &files {
        if let Err(e) = check_committed(name, json) {
            panic!("{e}");
        }
    }
}

#[test]
fn a_quick_run_is_rejected() {
    for (name, _) in root_files() {
        let mut ledger = committed(&name);
        ledger.quick = true;
        rejects(&name, &ledger.to_json(), "quick");
    }
}

#[test]
fn a_quick_run_is_written_under_target_not_over_the_tracked_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .canonicalize()
        .unwrap();
    for (bench, file) in REPORTS {
        let mut ledger = committed(file);
        assert_eq!(ledger.bench, bench);
        let full = ledger
            .path()
            .canonicalize()
            .expect("the tracked file exists");
        assert_eq!(full, root.join(file));
        ledger.quick = true;
        let quick = ledger.path();
        assert!(
            quick.ends_with(Path::new("target/bench").join(file)),
            "{}",
            quick.display()
        );
    }
}

#[test]
fn the_writer_checks_before_it_writes() {
    let row = "waxman_240/finder_delta_copy_ns";
    let mut ledger = committed("BENCH_pr9.json");
    ledger.quick = true;
    ledger.rows.retain(|r| r.name != row);
    let panic = std::panic::catch_unwind(|| ledger.write());
    let panic = panic.expect_err("an incomplete report must not be written");
    let msg = panic.downcast_ref::<String>().expect("a formatted panic");
    assert!(
        msg.starts_with(&format!("BENCH_pr9.json: {row}: ")),
        "{msg}"
    );
}

#[test]
fn another_bench_or_an_untracked_file_is_rejected() {
    let json = committed("BENCH_pr9.json").to_json();
    rejects("BENCH_pr7.json", &json, "bench");
    rejects("BENCH_pr10.json", &json, "bench");
}

#[test]
fn a_missing_required_row_is_rejected() {
    // A measured row of each file, and rows the gates read.
    for (file, row) in [
        ("BENCH_pr7.json", "waxman_2400/finder_cached_ns"),
        ("BENCH_pr8.json", "on_path/advance_to_ns"),
        ("BENCH_pr8.json", "off_path/median_paired_ratio"),
        ("BENCH_pr8.json", "off_path/obs_sites_median_paired_ratio"),
        ("BENCH_pr9.json", "paper_default/finder_delta_clean_ns"),
        ("BENCH_pr9.json", "paper_default/finder_delta_restore_ns"),
        ("BENCH_pr9.json", "waxman_2400/finder_delta_wholesale_ns"),
    ] {
        for quick in [false, true] {
            let mut ledger = committed(file);
            ledger.quick = quick;
            ledger.rows.retain(|r| r.name != row);
            rejects(file, &ledger.to_json(), row);
        }
        let mut empty = committed(file);
        empty.rows.clear();
        let err = check_committed(file, &empty.to_json()).expect_err("an empty report");
        assert!(err.ends_with(": missing required row"), "{err}");
    }
}

#[test]
fn a_missing_host_block_or_cpu_model_is_rejected() {
    let file = "BENCH_pr7.json";
    let json = committed(file).to_json();
    let mut without_host = json.clone();
    if let Value::Object(m) = &mut without_host {
        m.remove("host");
    }
    rejects(file, &without_host, "host");
    let mut without_model = json;
    if let Value::Object(m) = &mut without_model {
        if let Some(Value::Object(host)) = m.get_mut("host") {
            host.remove("cpu_model");
        }
    }
    rejects(file, &without_model, "host.cpu_model");
}

#[test]
fn a_non_finite_or_non_positive_row_is_rejected() {
    let file = "BENCH_pr7.json";
    let row = "waxman_240/finder_fill_ns";
    for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
        let mut ledger = committed(file);
        set(&mut ledger, row, bad);
        rejects(file, &ledger.to_json(), row);
    }
}

#[test]
fn a_duplicate_row_name_is_rejected() {
    let file = "BENCH_pr9.json";
    let mut ledger = committed(file);
    let twin = ledger.rows[3].clone();
    let name = twin.name.clone();
    ledger.rows.push(twin);
    rejects(file, &ledger.to_json(), &name);
}

#[test]
fn repair_or_restore_above_half_wholesale_is_rejected() {
    let file = "BENCH_pr9.json";
    for tier in ["paper_default", "waxman_240", "waxman_2400"] {
        let wholesale = committed(file)
            .value(&format!("{tier}/finder_delta_wholesale_ns"))
            .expect("wholesale row");
        for op in ["repair", "restore"] {
            let row = format!("{tier}/finder_delta_{op}_ns");
            let mut ledger = committed(file);
            set(&mut ledger, &row, 0.5 * wholesale);
            check_committed(file, &ledger.to_json()).expect("exactly 0.5 × wholesale passes");
            set(&mut ledger, &row, 0.51 * wholesale);
            rejects(file, &ledger.to_json(), &row);
            // A quick run's windows are too short to gate on.
            ledger.quick = true;
            rejects(file, &ledger.to_json(), "quick");
        }
    }
}

#[test]
fn an_off_path_ratio_at_the_budget_is_rejected() {
    let file = "BENCH_pr8.json";
    for row in [
        "off_path/obs_sites_median_paired_ratio",
        "off_path/median_paired_ratio",
    ] {
        let mut ledger = committed(file);
        set(&mut ledger, row, 1.049);
        check_committed(file, &ledger.to_json()).expect("below the budget passes");
        set(&mut ledger, row, 1.05);
        rejects(file, &ledger.to_json(), row);
        // The off-path gates hold a quick run too.
        ledger.quick = true;
        rejects(file, &ledger.to_json(), row);
    }
}
