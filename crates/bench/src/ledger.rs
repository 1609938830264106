//! The one BENCH file format: what every `BENCH_*.json` at the repo
//! root holds, how a bench writes one, and the checks each must pass.
//!
//! ```json
//! {
//!   "bench": "delta",
//!   "host": {"available_parallelism": 2, "cpu_model": "…"},
//!   "quick": false,
//!   "rows": [
//!     {"name": "waxman_240/finder_delta_repair_ns", "unit": "ns", "value": 22444.5}
//!   ]
//! }
//! ```
//!
//! Every row is a measured number: finite, above zero, named uniquely
//! in its file, in one of the [`Unit`]s. A ratio between two rows is
//! computed where it is needed, never stored. Each bench writes one
//! file of [`REPORTS`] and must carry that bench's required rows.
//! [`Ledger::write`] checks a report before it writes it, and the root
//! package's `tests/bench_ledger.rs` runs [`check_committed`] on every
//! `BENCH_*.json` at the repo root.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use serde_json::Value;

/// Each tracked report: the bench that writes it and its file at the
/// repo root.
pub const REPORTS: [(&str, &str); 3] = [
    ("search_core", "BENCH_pr7.json"),
    ("obs_overhead", "BENCH_pr8.json"),
    ("delta", "BENCH_pr9.json"),
];

/// The networks `search_core` and `delta` measure: the paper default
/// and the 240- and 2400-switch Waxman tiers.
const TIERS: [&str; 3] = ["paper_default", "waxman_240", "waxman_2400"];

/// The rows every report of `bench` carries, quick or full: the
/// measurements its claims and gates read, `<section>/<quantity>` for
/// every section and quantity of each group.
fn required_rows(bench: &str) -> Vec<String> {
    let groups: &[(&[&str], &str)] = match bench {
        "search_core" => &[(
            &TIERS,
            "dijkstra_fresh_ns dijkstra_workspace_ns finder_cached_ns finder_fill_ns \
             ksp_workspace_ns",
        )],
        "obs_overhead" => &[
            (
                &["off_path"],
                "obs_sites_median_paired_ratio median_paired_ratio",
            ),
            (
                &["on_path"],
                "rate_add_ns gauge_ns latency_ns advance_to_ns",
            ),
        ],
        "delta" => &[(
            &TIERS,
            "repaired_sources finder_delta_repair_resettled finder_delta_restore_resettled \
             finder_delta_repair_ns finder_delta_restore_ns finder_delta_copy_ns \
             finder_delta_wholesale_ns finder_delta_clean_ns finder_delta_roundtrip_ns",
        )],
        _ => &[],
    };
    let mut names = Vec::new();
    for &(sections, quantities) in groups {
        for s in sections {
            names.extend(quantities.split_whitespace().map(|q| format!("{s}/{q}")));
        }
    }
    names
}

/// What a row measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// Nanoseconds per op.
    Ns,
    /// A tally.
    Count,
    /// A dimensionless ratio.
    Ratio,
}

impl Unit {
    const ALL: [Unit; 3] = [Unit::Ns, Unit::Count, Unit::Ratio];

    /// The unit's name in a BENCH file.
    fn as_str(self) -> &'static str {
        match self {
            Unit::Ns => "ns",
            Unit::Count => "count",
            Unit::Ratio => "ratio",
        }
    }
}

/// One measured number.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// `<tier or section>/<quantity>`, e.g. `waxman_240/finder_fill_ns`.
    pub name: String,
    /// The measurement.
    pub value: f64,
    /// What `value` counts.
    pub unit: Unit,
}

/// The machine a report was measured on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Host {
    /// `std::thread::available_parallelism` (1 when unknown).
    pub available_parallelism: u64,
    /// The first `model name` of `/proc/cpuinfo`; `unknown` without one.
    pub cpu_model: String,
}

/// This machine, as every report records it.
fn host() -> Host {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Host {
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        cpu_model,
    }
}

/// One BENCH report: a bench's rows, measured on one host.
#[derive(Clone, Debug, PartialEq)]
pub struct Ledger {
    /// The bench that wrote the report (`search_core`, `delta`, ...).
    pub bench: String,
    /// `true` for a `MUERP_BENCH_QUICK=1` smoke run, whose numbers show
    /// only that the bench ran.
    pub quick: bool,
    /// Where the rows were measured.
    pub host: Host,
    /// The measurements, in the order the bench took them.
    pub rows: Vec<Row>,
}

/// A JSON object of `fields`.
fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

impl Ledger {
    /// An empty report of `bench` on this machine, quick when
    /// [`crate::quick_mode`] is.
    pub fn new(bench: &str) -> Self {
        Ledger {
            bench: bench.into(),
            quick: crate::quick_mode(),
            host: host(),
            rows: Vec::new(),
        }
    }

    /// Appends the row `name`.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: Unit) {
        let name = name.into();
        self.rows.push(Row { name, value, unit });
    }

    /// The value of row `name`, if the report has one.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.name == name).map(|r| r.value)
    }

    /// The report as a BENCH file's JSON.
    pub fn to_json(&self) -> Value {
        let parallelism = self.host.available_parallelism;
        let host = object([
            ("available_parallelism", parallelism.into()),
            ("cpu_model", self.host.cpu_model.as_str().into()),
        ]);
        let rows = self.rows.iter().map(|r| {
            object([
                ("name", r.name.as_str().into()),
                ("value", r.value.into()),
                ("unit", r.unit.as_str().into()),
            ])
        });
        object([
            ("bench", self.bench.as_str().into()),
            ("quick", self.quick.into()),
            ("host", host),
            ("rows", Value::Array(rows.collect())),
        ])
    }

    /// The bench's file of [`REPORTS`].
    fn file(&self) -> &'static str {
        let report = REPORTS.iter().find(|(bench, _)| *bench == self.bench);
        report
            .unwrap_or_else(|| panic!("{}: no file in REPORTS", self.bench))
            .1
    }

    /// Where [`Ledger::write`] puts the report: its bench's file of
    /// [`REPORTS`] at the repo root for a full run, under `target/bench/`
    /// for a quick one, so a smoke run never overwrites a tracked file.
    pub fn path(&self) -> PathBuf {
        let mut dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        if self.quick {
            dir.push("target/bench");
        }
        dir.join(self.file())
    }

    /// Checks the report as its bench's file, prints its rows and
    /// writes it at [`Ledger::path`].
    ///
    /// # Panics
    ///
    /// When the bench has no file or a check fails; nothing is written
    /// then.
    pub fn write(&self) {
        let json = self.to_json();
        if let Err(e) = check(self.file(), &json) {
            panic!("{e}");
        }
        let width = self.rows.iter().map(|r| r.name.len()).max().unwrap_or(0);
        for r in &self.rows {
            println!("  {:<width$} {:>16.3} {}", r.name, r.value, r.unit.as_str());
        }
        let path = self.path();
        let dir = path.parent().expect("a report path has a directory");
        std::fs::create_dir_all(dir).expect("bench report directory is creatable");
        let body = serde_json::to_string_pretty(&json).expect("report serializes");
        std::fs::write(&path, body + "\n").expect("bench report is writable");
        let path = path.canonicalize().unwrap_or(path);
        println!("wrote {}", path.display());
    }
}

/// Reads `json` as the BENCH file `file` and checks it: a file of
/// [`REPORTS`] written by its bench, a `quick` flag, a host block with
/// both fields, rows that are finite, above zero, uniquely named and in
/// a known unit, every row the bench requires, and the bench's gates.
/// Every error starts with `file` and names the field or row at fault.
fn check(file: &str, json: &Value) -> Result<Ledger, String> {
    let err = |what: &str, why: &str| format!("{file}: {what}: {why}");
    let report = REPORTS.iter().find(|(_, f)| *f == file);
    let &(bench, _) = report.ok_or_else(|| err("bench", "not a BENCH file of REPORTS"))?;
    match json["bench"].as_str() {
        Some(b) if b == bench => {}
        other => return Err(err("bench", &format!("{other:?}, not {bench:?}"))),
    }
    let quick = json["quick"].as_bool();
    let host = json.get("host").ok_or_else(|| err("host", "missing"))?;
    let host = Host {
        available_parallelism: host["available_parallelism"]
            .as_u64()
            .filter(|&n| n >= 1)
            .ok_or_else(|| err("host.available_parallelism", "missing or zero"))?,
        cpu_model: host["cpu_model"]
            .as_str()
            .filter(|m| !m.is_empty())
            .ok_or_else(|| err("host.cpu_model", "missing"))?
            .into(),
    };
    let mut names = BTreeSet::new();
    let mut rows = Vec::new();
    let json_rows = json["rows"].as_array();
    for row in json_rows.ok_or_else(|| err("rows", "missing"))? {
        let name = row["name"].as_str();
        let name = name.ok_or_else(|| err("rows", "unnamed row"))?;
        let value = row["value"]
            .as_f64()
            .filter(|v| v.is_finite() && *v > 0.0)
            .ok_or_else(|| err(name, "not a finite number above zero"))?;
        let unit = Unit::ALL
            .into_iter()
            .find(|u| row["unit"].as_str() == Some(u.as_str()))
            .ok_or_else(|| err(name, "unknown unit"))?;
        if !names.insert(name) {
            return Err(err(name, "duplicate row name"));
        }
        let name = name.into();
        rows.push(Row { name, value, unit });
    }
    let missing = required_rows(bench)
        .into_iter()
        .find(|n| !names.contains(n.as_str()));
    if let Some(name) = missing {
        return Err(err(&name, "missing required row"));
    }
    let ledger = Ledger {
        bench: bench.into(),
        quick: quick.ok_or_else(|| err("quick", "missing"))?,
        host,
        rows,
    };
    gate(file, &ledger)?;
    Ok(ledger)
}

/// Checks the committed BENCH file `file` as [`Ledger::write`] checks a
/// report, and that it is a full run.
///
/// # Errors
///
/// The first check that fails, starting with `file` and naming the
/// field or row at fault.
pub fn check_committed(file: &str, json: &Value) -> Result<Ledger, String> {
    let ledger = check(file, json)?;
    if ledger.quick {
        return Err(format!("{file}: quick: a smoke run; commit only full runs"));
    }
    Ok(ledger)
}

/// The gates, each ratio taken between measured rows, and the only
/// place they live: a full `delta` run's repair and restore at most
/// 0.5 × wholesale on every tier (a quick run's windows are too short
/// to gate on); `obs_overhead`'s two off-path median paired ratios
/// below 1.05 on every run, quick ones included. Every gated row is a
/// required row, so `check` has found it before.
fn gate(file: &str, ledger: &Ledger) -> Result<(), String> {
    let row = |name: &str| ledger.value(name).expect("a gated row is a required row");
    match ledger.bench.as_str() {
        "delta" if !ledger.quick => {
            for tier in TIERS {
                let wholesale = format!("{tier}/finder_delta_wholesale_ns");
                for op in ["repair", "restore"] {
                    let name = format!("{tier}/finder_delta_{op}_ns");
                    let ratio = row(&name) / row(&wholesale);
                    if ratio > 0.5 {
                        let why = format!("{ratio:.3} × {wholesale}, above the 0.5 gate");
                        return Err(format!("{file}: {name}: {why}"));
                    }
                }
            }
        }
        "obs_overhead" => {
            let sites = ["obs_sites_median_paired_ratio", "median_paired_ratio"];
            for name in sites.map(|s| format!("off_path/{s}")) {
                let ratio = row(&name);
                if ratio >= 1.05 {
                    return Err(format!("{file}: {name}: {ratio:.4}, not below 1.05"));
                }
            }
        }
        _ => {}
    }
    Ok(())
}
