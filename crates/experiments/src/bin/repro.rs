//! `repro` — regenerate every figure of the MUERP paper.
//!
//! ```text
//! repro <fig5|fig6a|fig6b|fig7a|fig7b|fig8a|fig8b|headline|ablations|convergence|beyond|all> \
//!       [--trials N] [--seed S] [--out DIR]
//! repro obs-diff <baseline.json> <candidate.json> \
//!       [--span-ratio R] [--counter-ratio R] [--min-span-us N] [--warn-only]
//! repro fuzz --budget <n> [--seed S] [--churn] [--delta] [--serve] [--out FILE]
//! repro churn [--trials N] [--failures F] [--seed S] [--slots N] \
//!       [--out DIR] [--obs-report]
//! repro profile <paper-default|waxman-240|waxman-2400> [--seed S] \
//!       [--out DIR] [--top N]
//! repro stream [--slots N] [--window W] [--seed S] [--arrival P] \
//!       [--sample-every N] [--churn-every N] [--out DIR]
//! repro serve [--slots N] [--round R] [--queue Q] [--policy P] \
//!       [--seed S] [--arrival P] [--out DIR]
//! repro --help
//! ```
//!
//! `--help` (or `-h`) prints these forms; a bare `repro` fails with them.
//!
//! Prints each figure as an aligned text table and, with `--out`, writes
//! one CSV per table into the directory. `--obs-report` additionally
//! snapshots the observability state (span tree, counters, histograms)
//! into one `results/obs/<id>.json` per suite — plus, at
//! `MUERP_OBS=trace`, the flight-recorder contents as
//! `results/obs/<id>.trace.jsonl`. `MUERP_OBS` is read once: a value
//! that names no level exits 1; a level wins over a command's default,
//! but `profile` always runs at `trace`.
//!
//! `obs-diff` compares two such reports and exits non-zero when the
//! candidate regresses past the thresholds (the CI gate).
//!
//! `fuzz` sweeps seeded random topology specs through the conformance
//! harness (generate → solve → independent audit → differential
//! checks); on any failure it shrinks the spec to a minimal
//! counterexample, writes the JSON report to `--out`, and exits 2.
//! `--churn` additionally injects one seeded failure per trial and
//! checks the repair ladder's invariants. `--delta` additionally pushes
//! a seeded capacity-delta sequence through the channel-finder cache,
//! cross-checking every step bitwise against a cold
//! recomputation and shrinking failing delta scripts. `--serve`
//! additionally replays a seeded request script through the batched
//! admission engine and the sequential FCFS oracle, comparing every
//! decision and re-auditing admitted solutions, shrinking failing
//! scripts to a minimal admission script.
//!
//! `churn` runs the survivability battery: seeded failure plans
//! replayed against solved networks, comparing do-nothing vs. the
//! incremental repair ladder vs. full re-solve, plus a Monte-Carlo
//! mid-protocol replay; output follows the same table/CSV/obs-report
//! flow as the experiment runner, under the id `churn`.
//!
//! `stream` drives the sustained-load workload (diurnal arrivals,
//! heavy-tailed group sizes, hot-spot users, and — with
//! `--churn-every N` — periodic capacity withdrawals the delta-aware
//! cache repairs incrementally) and writes the windowed
//! telemetry artifacts: `stream-windows.csv`, `stream-summary.csv`,
//! the `stream.metrics.jsonl` window stream, a schema-4 `stream.json`
//! run report, and a Prometheus-style `stream.prom`. Everything except
//! the stderr throughput line is byte-deterministic for a fixed seed.
//!
//! `serve` runs the batched streaming admission service: the seeded
//! request stream consumed in fixed-width admission rounds through a
//! bounded queue, a pluggable admission policy
//! (`fcfs|smallest|weighted`), and one warm-batch cache pass per round
//! that copies or repairs each stale run. Artifacts mirror `stream`:
//! `serve-rounds.csv`, `serve-summary.csv`, `serve.metrics.jsonl`, a
//! schema-4 `serve.json` report, and `serve.prom` — all
//! byte-deterministic for a fixed seed.
//!
//! `profile` runs one scenario single-threaded at `MUERP_OBS=trace`
//! and writes the perf-attribution artifacts: deterministic facts to
//! stdout and `profile-<scenario>.csv`, the wall-time attribution to
//! stderr and `profile-<scenario>-times.csv`, a schema-3 run report,
//! and a Chrome/Perfetto `trace.json`. Build with
//! `--features alloc-profile` to add allocation counts.

// Counting global allocator behind the profiling feature: the rest of
// the binary pays nothing unless `alloc-profile` is compiled in.
#[cfg(feature = "alloc-profile")]
#[global_allocator]
static ALLOC: qnet_obs::CountingAllocator = qnet_obs::CountingAllocator;

use std::path::Path;
use std::process::ExitCode;

use qnet_obs::{Capture, ObsLevel};

use muerp_experiments::cli::{
    self, Command, FuzzArgs, ObsDiffArgs, ProfileArgs, ServeArgs, StreamArgs,
};
use muerp_experiments::{ablations, beyond, churn, convergence, figures, profile, serve, stream};
use muerp_experiments::{FigureTable, TrialConfig};

fn run_one(id: &str, cfg: TrialConfig) -> Vec<FigureTable> {
    match id {
        "fig5" => vec![figures::fig5(cfg)],
        "fig6a" => vec![figures::fig6a(cfg)],
        "fig6b" => vec![figures::fig6b(cfg)],
        "fig7a" => vec![figures::fig7a(cfg)],
        "fig7b" => vec![figures::fig7b(cfg)],
        "fig8a" => vec![figures::fig8a(cfg)],
        "fig8b" => vec![figures::fig8b(cfg)],
        "headline" => vec![figures::headline(cfg)],
        "ablations" => vec![
            ablations::seed_choice(cfg),
            ablations::retention_policy(cfg),
            ablations::fusion_model(cfg),
            ablations::local_search(cfg),
        ],
        "convergence" => vec![
            convergence::trial_sensitivity(cfg.trials.max(20) * 2, cfg.base_seed),
            convergence::dispersion(cfg),
        ],
        "beyond" => vec![
            beyond::beyond_paper(cfg),
            beyond::multi_group_concurrency(cfg),
        ],
        other => unreachable!("validated id {other}"),
    }
}

/// Loads one serialized [`qnet_obs::RunReport`] from disk.
fn load_report(path: &Path) -> Result<qnet_obs::RunReport, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let value = serde_json::from_str(&text)
        .map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;
    qnet_obs::RunReport::from_json(&value).ok_or_else(|| {
        format!(
            "{} does not look like a run report (or its schema_version is newer than {})",
            path.display(),
            qnet_obs::SCHEMA_VERSION
        )
    })
}

/// Loudly surfaces flight-recorder evictions (the `obs.trace.dropped`
/// counter) so a truncated trace is never mistaken for a complete one.
fn warn_on_trace_drops(report: &qnet_obs::RunReport, context: &str) {
    let dropped = report.counter_total("obs.trace.dropped");
    if dropped > 0 {
        eprintln!(
            "WARNING: {context}: flight recorder evicted {dropped} event(s) \
             (obs.trace.dropped) — the trace is incomplete; raise \
             MUERP_OBS_TRACE_CAP to keep the full run"
        );
    }
    let spans_dropped = report.counter_total("obs.spans.dropped");
    if spans_dropped > 0 {
        eprintln!(
            "WARNING: {context}: span store capped, {spans_dropped} span(s) dropped \
             (obs.spans.dropped) — attribution is partial; raise MUERP_OBS_SPAN_CAP"
        );
    }
}

fn run_obs_diff(args: &ObsDiffArgs) -> ExitCode {
    let (baseline, candidate) = match (load_report(&args.baseline), load_report(&args.candidate)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for err in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("{err}");
            }
            return ExitCode::FAILURE;
        }
    };
    warn_on_trace_drops(&candidate, "candidate report");
    // An old baseline is migrated on read; make that visible so a clean
    // diff against a pre-migration file is never mistaken for a
    // same-schema comparison.
    if baseline.schema_version < qnet_obs::SCHEMA_VERSION {
        println!(
            "note: baseline {} is schema version {} — migrated on read to version {}",
            args.baseline.display(),
            baseline.schema_version,
            qnet_obs::SCHEMA_VERSION
        );
    }
    let diff = qnet_obs::diff_reports(&baseline, &candidate, &args.options);
    print!("{}", diff.render_table());
    if diff.has_regressions() {
        let n = diff.regression_count();
        if args.warn_only {
            println!("obs-diff: {n} regression(s) — ignored (--warn-only)");
            ExitCode::SUCCESS
        } else {
            println!("obs-diff: {n} regression(s)");
            ExitCode::from(2)
        }
    } else {
        ExitCode::SUCCESS
    }
}

fn run_fuzz(args: &FuzzArgs) -> ExitCode {
    let started = std::time::Instant::now();
    let outcome = qnet_conformance::run_fuzz(args.cfg);
    println!(
        "fuzz: {} trial(s), base seed {}, {} failure(s) ({:.1?})",
        outcome.trials,
        args.cfg.base_seed,
        outcome.failures.len(),
        started.elapsed()
    );
    if outcome.is_clean() {
        return ExitCode::SUCCESS;
    }
    for failure in &outcome.failures {
        println!(
            "  seed {}: {} (shrunk {} step(s) to {} nodes / {} users / {} qubits)",
            failure.original.seed,
            failure.error,
            failure.shrink_steps,
            failure.shrunk.spec.topology.nodes,
            failure.shrunk.spec.users,
            failure.shrunk.spec.qubits_per_switch,
        );
    }
    let report = serde_json::to_string_pretty(&outcome.to_json()).expect("report is plain JSON");
    match std::fs::write(&args.out, report) {
        Ok(()) => println!("wrote {}", args.out.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", args.out.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::from(2)
}

/// `MUERP_OBS`, read once: `None` when unset, an error naming a value
/// that is no level.
fn obs_env() -> Result<Option<ObsLevel>, String> {
    let Some(raw) = std::env::var_os("MUERP_OBS") else {
        return Ok(None);
    };
    raw.to_str()
        .and_then(ObsLevel::parse)
        .map(Some)
        .ok_or_else(|| {
            format!("MUERP_OBS={raw:?} is not a level (expected off, counters, full or trace)")
        })
}

/// The flow shared by the experiment runner and `churn`: print
/// `header`, then per suite take a [`Capture`] at `obs` (set by
/// `--obs-report`), run it, print each table and write its CSV into
/// `out`, and write the suite's obs report (plus the trace at `trace`)
/// into `results/obs/`.
fn run_suites<S: AsRef<str>>(
    header: &str,
    ids: &[S],
    run: impl Fn(&str) -> Vec<FigureTable>,
    out: Option<&Path>,
    obs: Option<ObsLevel>,
) -> Result<(), String> {
    if let Some(dir) = out {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    println!("{header}\n");
    for id in ids.iter().map(AsRef::as_ref) {
        let started = std::time::Instant::now();
        let capture = obs.map(Capture::begin);
        for table in run(id) {
            println!("{}", table.render_text());
            if let Some(dir) = out {
                let path = dir.join(format!("{}.csv", table.id));
                std::fs::write(&path, table.to_csv())
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                println!("wrote {}", path.display());
            }
        }
        if let Some(capture) = &capture {
            let report = capture.finish(id);
            warn_on_trace_drops(&report, id);
            let path = qnet_obs::write_report(Path::new("results/obs"), &report)
                .map_err(|e| format!("cannot write obs report for {id}: {e}"))?;
            println!("wrote {}", path.display());
            if qnet_obs::trace_enabled() {
                let path = qnet_obs::write_trace_jsonl(Path::new("results/obs"), id)
                    .map_err(|e| format!("cannot write trace for {id}: {e}"))?;
                println!("wrote {}", path.display());
            }
        }
        println!("({id} took {:.1?})\n", started.elapsed());
    }
    Ok(())
}

fn run_profile_cmd(args: &ProfileArgs) -> ExitCode {
    let started = std::time::Instant::now();
    let (run, written) = match profile::run_profile(args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // Deterministic facts on stdout (CI byte-compares these) …
    print!("{}", run.render_text());
    // … wall-clock attribution on stderr (jitters run to run).
    eprint!("{}", run.render_times(args.top));
    warn_on_trace_drops(&run.report, &run.scenario);
    for path in &written {
        println!("wrote {}", path.display());
    }
    eprintln!("(profile {} took {:.1?})", run.scenario, started.elapsed());
    ExitCode::SUCCESS
}

fn run_stream_cmd(args: &StreamArgs, level: ObsLevel) -> ExitCode {
    let (run, written) = match stream::run_stream(args, level) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // Deterministic facts on stdout (CI byte-compares the artifacts) …
    print!("{}", run.render_text());
    warn_on_trace_drops(&run.report, "stream");
    for path in &written {
        println!("wrote {}", path.display());
    }
    // … wall-clock throughput on stderr (jitters run to run).
    eprint!("{}", run.render_throughput());
    ExitCode::SUCCESS
}

fn run_serve_cmd(args: &ServeArgs, level: ObsLevel) -> ExitCode {
    let (run, written) = match serve::run_serve(args, level) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // Deterministic facts on stdout (CI byte-compares the artifacts) …
    print!("{}", run.render_text());
    warn_on_trace_drops(&run.report, "serve");
    for path in &written {
        println!("wrote {}", path.display());
    }
    // … wall-clock throughput on stderr (jitters run to run).
    eprint!("{}", run.render_throughput());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    // Reports want the span tree (`full`); pipelines stay at `counters`
    // so their artifacts carry no wall-clock. `MUERP_OBS` wins over both.
    let parsed = obs_env().and_then(|env| Ok((env, cli::parse_command(std::env::args().skip(1))?)));
    let outcome = match parsed {
        Ok((env, Command::Run(a))) => run_suites(
            &format!(
                "MUERP reproduction — {} trial(s) per cell, base seed {}",
                a.cfg.trials, a.cfg.base_seed
            ),
            &a.which,
            |id| run_one(id, a.cfg),
            a.out.as_deref(),
            a.obs_report.then_some(env.unwrap_or(ObsLevel::Full)),
        ),
        Ok((env, Command::Churn(c))) => run_suites(
            &format!(
                "MUERP survivability — {} trial(s), {} failure(s) each, base seed {}",
                c.cfg.trials, c.cfg.failures, c.cfg.base_seed
            ),
            &["churn"],
            |_| churn::churn_tables(c.cfg),
            c.out.as_deref(),
            c.obs_report.then_some(env.unwrap_or(ObsLevel::Full)),
        ),
        Ok((_, Command::ObsDiff(d))) => return run_obs_diff(&d),
        Ok((_, Command::Fuzz(f))) => return run_fuzz(&f),
        Ok((_, Command::Profile(p))) => return run_profile_cmd(&p),
        Ok((env, Command::Stream(st))) => {
            return run_stream_cmd(&st, env.unwrap_or(ObsLevel::Counters))
        }
        Ok((env, Command::Serve(sv))) => {
            return run_serve_cmd(&sv, env.unwrap_or(ObsLevel::Counters))
        }
        Ok((_, Command::Help)) => {
            println!("{}", cli::usage());
            return ExitCode::SUCCESS;
        }
        Err(e) => Err(e),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
