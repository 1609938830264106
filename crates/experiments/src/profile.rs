//! `repro profile` — one fully-instrumented solve, attributed.
//!
//! Runs a single scenario (one network, one seed, every algorithm of
//! the paper's suite, single-threaded) at `MUERP_OBS=trace` and turns
//! the resulting span tree, flight recorder, counters, and (when the
//! `alloc-profile` feature is compiled in) allocation tallies into a
//! perf-attribution report:
//!
//! * **stdout + `profile-<scenario>.csv`** — only bitwise-deterministic
//!   facts: per-algorithm rates, per-phase span counts, every counter,
//!   cache-efficiency tallies, trace-event counts, allocation counts.
//!   CI runs the command twice and byte-compares these.
//! * **stderr + `profile-<scenario>-times.csv`** — the wall-time
//!   attribution table (self vs. total per phase, top-N by self time,
//!   coverage). Timing jitters between runs, so it stays out of the
//!   deterministic artifacts.
//! * **`profile-<scenario>.json`** — a [`qnet_obs::RunReport`]
//!   with the [`qnet_obs::ProfileSection`] attached.
//! * **`profile-<scenario>.trace.json`** — the Chrome/Perfetto trace
//!   (open in `ui.perfetto.dev` or `chrome://tracing`).

use std::fmt::Write as _;
use std::path::PathBuf;

use muerp_core::model::NetworkSpec;

use crate::cli::ProfileArgs;
use crate::suite::AlgoKind;

/// The network a profile scenario id denotes; `None` for unknown ids
/// (the CLI validates against [`crate::cli::PROFILE_SCENARIOS`]).
pub fn scenario_spec(id: &str) -> Option<NetworkSpec> {
    match id {
        // §V-A defaults: Waxman, 50 switches + 10 users.
        "paper-default" => Some(NetworkSpec::paper_default()),
        // The bench crate's large topology: 240 switches + 10 users.
        "waxman-240" => {
            let mut spec = NetworkSpec::paper_default();
            spec.topology.nodes = 240 + spec.users;
            Some(spec)
        }
        // The large search tier: 2400 switches + 10 users — big enough
        // that the multi-source warm batches dominate the profile.
        "waxman-2400" => {
            let mut spec = NetworkSpec::paper_default();
            spec.topology.nodes = 2400 + spec.users;
            Some(spec)
        }
        _ => None,
    }
}

fn algo_span(algo: AlgoKind) -> &'static str {
    match algo {
        AlgoKind::Alg2 => "exp.profile.alg2",
        AlgoKind::Alg3 => "exp.profile.alg3",
        AlgoKind::Alg4 => "exp.profile.alg4",
        AlgoKind::NFusion => "exp.profile.n_fusion",
        AlgoKind::EQCast => "exp.profile.e_q_cast",
    }
}

/// Everything one profiled run produced, ready to render and write.
pub struct ProfileRun {
    /// Scenario id (`paper-default` | `waxman-240` | `waxman-2400`).
    pub scenario: String,
    /// Seed used for both network generation and Algorithm 4.
    pub seed: u64,
    /// `(legend name, rate)` per algorithm, suite order.
    pub rates: Vec<(&'static str, f64)>,
    /// The captured report, profile section attached.
    pub report: qnet_obs::RunReport,
    /// Flight-recorder contents at capture time, oldest first.
    pub events: Vec<qnet_obs::Stamped>,
    /// Events evicted from the ring during the run.
    pub trace_dropped: u64,
    /// Spans dropped by the span-store cap during the run.
    pub spans_dropped: u64,
}

/// Runs `scenario` once under full instrumentation.
///
/// Forces [`qnet_obs::ObsLevel::Trace`] and resets the global registry,
/// span store, and flight recorder first, so the report is a pure
/// per-run delta. Every algorithm runs on the caller's thread, so the
/// allocation facts stay byte-deterministic.
///
/// # Errors
///
/// Returns a message for unknown scenario ids.
pub fn run_scenario(scenario: &str, seed: u64) -> Result<ProfileRun, String> {
    let spec = scenario_spec(scenario).ok_or_else(|| format!("unknown scenario: {scenario}"))?;
    qnet_obs::set_level(qnet_obs::ObsLevel::Trace);
    qnet_obs::global().reset();
    qnet_obs::reset_spans();
    qnet_obs::reset_trace();

    let alloc_scope = qnet_obs::AllocScope::begin();
    let mut rates = Vec::with_capacity(AlgoKind::ALL.len());
    {
        let _root = qnet_obs::enter("exp.profile.run");
        let net = {
            let _build = qnet_obs::enter("exp.profile.build");
            spec.build(seed)
        };
        for algo in AlgoKind::ALL {
            let _solve = qnet_obs::enter(algo_span(algo));
            rates.push((algo.name(), algo.rate_on(&net, seed)));
        }
    }
    let alloc = alloc_scope.end();

    let mut report = qnet_obs::RunReport::capture(&format!("profile-{scenario}")).with_profile();
    if let Some(section) = report.profile.as_mut() {
        section.alloc = alloc;
        section.peak_rss_bytes = qnet_obs::peak_rss_bytes();
    }
    let trace_dropped = report.counter_total("obs.trace.dropped");
    let spans_dropped = report.counter_total("obs.spans.dropped");
    Ok(ProfileRun {
        scenario: scenario.to_string(),
        seed,
        rates,
        report,
        events: qnet_obs::trace_snapshot(),
        trace_dropped,
        spans_dropped,
    })
}

/// One deterministic fact: `(section, name, value)` — the row format of
/// the primary CSV and the stdout table.
type Fact = (&'static str, String, String);

impl ProfileRun {
    /// Cache-efficiency tallies derived from the global counters:
    /// `(hits, misses, workspace runs, workspace grown)`.
    fn cache_tallies(&self) -> (u64, u64, u64, u64) {
        let c = |name: &str| self.report.counter_total(name);
        (
            c("core.channel.cache_hits"),
            c("core.channel.cache_misses"),
            c("graph.workspace.runs"),
            c("graph.workspace.grown"),
        )
    }

    /// The run's bitwise-deterministic facts, in a fixed order: rates,
    /// per-phase span counts, cache tallies, trace totals, counters,
    /// and (when counted) allocations. No wall-clock data.
    pub fn deterministic_facts(&self) -> Vec<Fact> {
        let mut facts: Vec<Fact> = Vec::new();
        facts.push(("run", "scenario".into(), self.scenario.clone()));
        facts.push(("run", "seed".into(), self.seed.to_string()));
        for (name, rate) in &self.rates {
            facts.push(("rate", (*name).into(), format!("{rate:.9}")));
        }
        let profile = self
            .report
            .profile
            .as_ref()
            .expect("attached by run_scenario");
        for row in &profile.rows {
            facts.push(("span_count", row.name.clone(), row.count.to_string()));
        }
        let (hits, misses, ws_runs, ws_grown) = self.cache_tallies();
        let lookups = hits + misses;
        facts.push(("cache", "channel_hits".into(), hits.to_string()));
        facts.push(("cache", "channel_misses".into(), misses.to_string()));
        facts.push((
            "cache",
            "channel_hit_rate".into(),
            if lookups == 0 {
                "1.000".into()
            } else {
                format!("{:.3}", hits as f64 / lookups as f64)
            },
        ));
        facts.push(("cache", "workspace_runs".into(), ws_runs.to_string()));
        facts.push(("cache", "workspace_grown".into(), ws_grown.to_string()));
        facts.push((
            "cache",
            "workspace_reuse_rate".into(),
            if ws_runs == 0 {
                "1.000".into()
            } else {
                format!("{:.3}", 1.0 - ws_grown as f64 / ws_runs as f64)
            },
        ));
        facts.push(("trace", "events".into(), self.events.len().to_string()));
        facts.push(("trace", "dropped".into(), self.trace_dropped.to_string()));
        facts.push((
            "spans",
            "recorded".into(),
            self.report.spans.len().to_string(),
        ));
        facts.push(("spans", "dropped".into(), self.spans_dropped.to_string()));
        for c in &self.report.counters {
            facts.push(("counter", c.key.clone(), c.value.to_string()));
        }
        if let Some(a) = profile.alloc {
            facts.push(("alloc", "allocs".into(), a.allocs.to_string()));
            facts.push(("alloc", "bytes".into(), a.bytes.to_string()));
            facts.push(("alloc", "peak_bytes".into(), a.peak_bytes.to_string()));
        }
        facts
    }

    /// The deterministic facts as the stdout table.
    pub fn render_text(&self) -> String {
        let facts = self.deterministic_facts();
        let width = facts
            .iter()
            .map(|(s, n, _)| s.len() + n.len() + 1)
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile {} — seed {}, level {} (deterministic facts; timings on stderr)",
            self.scenario, self.seed, self.report.level
        );
        if !qnet_obs::alloc_profiling_compiled() {
            let _ = writeln!(
                out,
                "note: allocation counting not compiled in \
                 (rebuild with --features muerp-experiments/alloc-profile)"
            );
        }
        for (section, name, value) in &facts {
            let label = format!("{section}.{name}");
            let _ = writeln!(out, "  {label:<width$}  {value}");
        }
        out
    }

    /// The deterministic facts as CSV (`section,name,value`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("section,name,value\n");
        for (section, name, value) in self.deterministic_facts() {
            let _ = writeln!(out, "{section},{name},{value}");
        }
        out
    }

    /// The wall-time attribution table (top `top` phases by self time)
    /// — stderr material, not byte-compared.
    pub fn render_times(&self, top: usize) -> String {
        let profile = self
            .report
            .profile
            .as_ref()
            .expect("attached by run_scenario");
        let mut rows: Vec<_> = profile.rows.iter().collect();
        rows.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.name.cmp(&b.name)));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "wall-time attribution — root {} µs, attributed {} µs (coverage {:.1}%)",
            profile.root_total_us,
            profile.attributed_us,
            profile.coverage() * 100.0
        );
        let _ = writeln!(
            out,
            "  {:<34} {:>7} {:>12} {:>12} {:>7}",
            "phase", "count", "total µs", "self µs", "self %"
        );
        for row in rows.iter().take(top) {
            let pct = if profile.root_total_us == 0 {
                0.0
            } else {
                row.self_us as f64 / profile.root_total_us as f64 * 100.0
            };
            let _ = writeln!(
                out,
                "  {:<34} {:>7} {:>12} {:>12} {:>6.1}%",
                row.name, row.count, row.total_us, row.self_us, pct
            );
        }
        if rows.len() > top {
            let _ = writeln!(
                out,
                "  … {} more phase(s) in the times CSV",
                rows.len() - top
            );
        }
        if let Some(a) = profile.alloc {
            let _ = writeln!(
                out,
                "allocations: {} ({} bytes, peak live {} bytes)",
                a.allocs, a.bytes, a.peak_bytes
            );
        }
        if let Some(rss) = profile.peak_rss_bytes {
            let _ = writeln!(out, "peak RSS: {:.1} MiB", rss as f64 / (1024.0 * 1024.0));
        }
        out
    }

    /// Every phase's timing as CSV (`name,count,total_us,self_us`),
    /// sorted by self time descending.
    pub fn times_csv(&self) -> String {
        let profile = self
            .report
            .profile
            .as_ref()
            .expect("attached by run_scenario");
        let mut rows: Vec<_> = profile.rows.iter().collect();
        rows.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.name.cmp(&b.name)));
        let mut out = String::from("name,count,total_us,self_us\n");
        for row in rows {
            let _ = writeln!(
                out,
                "{},{},{},{}",
                row.name, row.count, row.total_us, row.self_us
            );
        }
        out
    }
}

/// Runs the scenario and writes every artifact under `args.out`:
/// primary CSV, times CSV, run report and Chrome trace. Returns the
/// run plus the written paths for the caller to print.
///
/// # Errors
///
/// Returns a message on unknown scenarios or I/O failure.
pub fn run_profile(args: &ProfileArgs) -> Result<(ProfileRun, Vec<PathBuf>), String> {
    let run = run_scenario(&args.scenario, args.seed)?;
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let mut written = Vec::new();

    let csv = args.out.join(format!("profile-{}.csv", run.scenario));
    std::fs::write(&csv, run.to_csv())
        .map_err(|e| format!("cannot write {}: {e}", csv.display()))?;
    written.push(csv);

    let times = args.out.join(format!("profile-{}-times.csv", run.scenario));
    std::fs::write(&times, run.times_csv())
        .map_err(|e| format!("cannot write {}: {e}", times.display()))?;
    written.push(times);

    let report_path = qnet_obs::write_report(&args.out, &run.report)
        .map_err(|e| format!("cannot write run report: {e}"))?;
    written.push(report_path);

    let trace_path = qnet_obs::write_chrome_trace(
        &args.out,
        &format!("profile-{}", run.scenario),
        &run.report,
        &run.events,
    )
    .map_err(|e| format!("cannot write chrome trace: {e}"))?;
    written.push(trace_path);
    Ok((run, written))
}

#[cfg(test)]
mod tests {
    // Tests that actually *run* a scenario live in
    // `tests/profile_determinism.rs`: `run_scenario` mutates the
    // process-global obs state, so they need their own process, away
    // from the rest of this crate's parallel unit tests. Only the pure
    // helpers are covered here.
    use super::*;

    #[test]
    fn unknown_scenarios_are_rejected() {
        assert!(scenario_spec("nonsense").is_none());
        assert!(scenario_spec("").is_none());
    }

    #[test]
    fn known_scenarios_resolve() {
        for id in crate::cli::PROFILE_SCENARIOS {
            assert!(scenario_spec(id).is_some(), "{id} must resolve");
        }
        assert_eq!(
            scenario_spec("paper-default").unwrap(),
            NetworkSpec::paper_default()
        );
    }

    #[test]
    fn waxman_240_spec_holds_240_switches() {
        let spec = scenario_spec("waxman-240").unwrap();
        assert_eq!(spec.topology.nodes, 240 + spec.users);
        assert_eq!(spec.users, NetworkSpec::paper_default().users);
    }

    #[test]
    fn waxman_2400_spec_holds_2400_switches() {
        let spec = scenario_spec("waxman-2400").unwrap();
        assert_eq!(spec.topology.nodes, 2400 + spec.users);
        assert_eq!(spec.users, NetworkSpec::paper_default().users);
    }

    #[test]
    fn algo_spans_are_distinct_and_namespaced() {
        let names: std::collections::BTreeSet<_> =
            AlgoKind::ALL.iter().map(|&a| algo_span(a)).collect();
        assert_eq!(names.len(), AlgoKind::ALL.len());
        for name in names {
            assert!(name.starts_with("exp.profile."), "{name}");
        }
    }
}
