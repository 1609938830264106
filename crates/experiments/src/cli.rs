//! Argument parsing for the `repro` binary, factored out for testing.

use std::path::PathBuf;

use crate::runner::TrialConfig;

/// Everything the `repro` binary accepts.
pub const ALL_IDS: [&str; 11] = [
    "fig5",
    "fig6a",
    "fig6b",
    "fig7a",
    "fig7b",
    "fig8a",
    "fig8b",
    "headline",
    "ablations",
    "convergence",
    "beyond",
];

/// Parsed command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    /// Experiment ids to run, in order, deduplicated.
    pub which: Vec<String>,
    /// Trial configuration.
    pub cfg: TrialConfig,
    /// Optional CSV output directory.
    pub out: Option<PathBuf>,
    /// Write one observability report per suite into `results/obs/`
    /// (raising the level to `full` unless `MUERP_OBS` pins it).
    pub obs_report: bool,
}

/// A full `repro` invocation: either the default experiment runner or
/// one of the subcommands.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Run experiment suites (the default, historical behavior).
    Run(Args),
    /// `repro obs-diff <baseline.json> <candidate.json>`: compare two
    /// observability run reports and fail on regressions.
    ObsDiff(ObsDiffArgs),
    /// `repro fuzz --budget <n>`: sweep random topology specs through
    /// generate→solve→audit and report shrunk counterexamples.
    Fuzz(FuzzArgs),
    /// `repro churn --trials N --failures F`: the survivability battery
    /// (do-nothing vs. repair vs. full re-solve under seeded faults).
    Churn(ChurnArgs),
    /// `repro profile <scenario>`: run one scenario under full
    /// instrumentation and emit the perf-attribution report (text, CSV,
    /// schema-3 run report, Chrome trace).
    Profile(ProfileArgs),
    /// `repro stream`: the sustained-load streaming workload driver —
    /// windowed telemetry tables, a JSONL metrics stream, a schema-4
    /// run report, and a Prometheus-style exposition of the final
    /// counters.
    Stream(StreamArgs),
    /// `repro serve`: the batched admission service — per-round
    /// decision tables, policy-ordered admission with backpressure
    /// shedding, round-level telemetry, and byte-deterministic
    /// artifacts.
    Serve(ServeArgs),
}

/// Arguments of the `serve` subcommand.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeArgs {
    /// Virtual-time slots to serve.
    pub slots: u64,
    /// Slots per admission round.
    pub round: u64,
    /// Bounded-queue capacity per round.
    pub queue: usize,
    /// Admission policy name (`fcfs`, `smallest`, `weighted`).
    pub policy: String,
    /// Seed for the network build and the request stream.
    pub seed: u64,
    /// Baseline per-slot arrival probability (diurnally modulated).
    pub arrival: f64,
    /// Output directory for the CSVs, metrics stream, report, and
    /// Prometheus exposition.
    pub out: PathBuf,
}

impl ServeArgs {
    /// The serve configuration these arguments select.
    ///
    /// # Errors
    ///
    /// Returns a message naming the policy when it is unknown.
    pub fn config(&self) -> Result<muerp_serve::ServeConfig, String> {
        let policy = muerp_serve::PolicyKind::parse(&self.policy)
            .ok_or_else(|| format!("unknown policy: {} (fcfs|smallest|weighted)", self.policy))?;
        Ok(muerp_serve::ServeConfig {
            stream: muerp_core::extensions::StreamConfig {
                slots: self.slots,
                base_arrival: self.arrival,
                ..muerp_core::extensions::StreamConfig::default()
            },
            round_slots: self.round,
            queue_capacity: self.queue,
            policy,
        })
    }
}

/// Arguments of the `stream` subcommand.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamArgs {
    /// Virtual-time slots to simulate.
    pub slots: u64,
    /// Time-series window width in slots.
    pub window: u64,
    /// Seed for the network build and the workload RNG.
    pub seed: u64,
    /// Baseline per-slot arrival probability (diurnally modulated).
    pub arrival: f64,
    /// Trace-sampling period for `Blocked` decision points.
    pub sample_every: u64,
    /// Capacity-churn period in slots (`0` disables the churn arm).
    pub churn_every: u64,
    /// Output directory for the CSVs, metrics stream, report, and
    /// Prometheus exposition.
    pub out: PathBuf,
}

impl StreamArgs {
    /// The streaming workload configuration these arguments select
    /// (everything not flag-settable keeps the core defaults).
    pub fn config(&self) -> muerp_core::extensions::StreamConfig {
        muerp_core::extensions::StreamConfig {
            slots: self.slots,
            window_slots: self.window,
            base_arrival: self.arrival,
            sample_every: self.sample_every,
            churn_every: self.churn_every,
            ..muerp_core::extensions::StreamConfig::default()
        }
    }
}

/// Scenarios the `profile` subcommand accepts.
pub const PROFILE_SCENARIOS: [&str; 3] = ["paper-default", "waxman-240", "waxman-2400"];

/// Arguments of the `profile` subcommand.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileArgs {
    /// Scenario id (one of [`PROFILE_SCENARIOS`]).
    pub scenario: String,
    /// Seed for the profiled solve.
    pub seed: u64,
    /// Output directory for the CSVs, report, and trace.
    pub out: PathBuf,
    /// Rows shown in the top-by-self-time table.
    pub top: usize,
}

/// Arguments of the `fuzz` subcommand.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzArgs {
    /// Number of seeded trials to run.
    pub budget: usize,
    /// Base seed; trial `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Also run the churn oracle (failure + repair) per trial.
    pub churn: bool,
    /// Also run the delta oracle (capacity deltas through the
    /// channel-finder cache vs. cold recomputation) per trial.
    pub delta: bool,
    /// Also run the serve oracle (batched admission vs. the sequential
    /// FCFS reference on a seeded request script) per trial.
    pub serve: bool,
    /// Where to write the JSON counterexample report on failure.
    pub out: PathBuf,
}

impl FuzzArgs {
    /// The fuzz configuration these arguments select.
    pub fn config(&self) -> qnet_conformance::FuzzConfig {
        qnet_conformance::FuzzConfig {
            budget: self.budget,
            base_seed: self.base_seed,
            churn: self.churn,
            delta: self.delta,
            serve: self.serve,
        }
    }
}

/// Arguments of the `churn` subcommand.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChurnArgs {
    /// The churn battery configuration.
    pub cfg: crate::churn::ChurnConfig,
    /// Optional CSV output directory.
    pub out: Option<PathBuf>,
    /// Write an observability report (and trace, at `MUERP_OBS=trace`)
    /// into `results/obs/`, like the experiment runner.
    pub obs_report: bool,
}

/// Arguments of the `obs-diff` subcommand.
#[derive(Clone, Debug, PartialEq)]
pub struct ObsDiffArgs {
    /// The reference report (usually a tracked baseline).
    pub baseline: PathBuf,
    /// The freshly produced report to judge.
    pub candidate: PathBuf,
    /// Span slowdown ratio flagged as a regression.
    pub span_ratio: f64,
    /// Counter drift ratio flagged as a regression.
    pub counter_ratio: f64,
    /// Spans whose larger side is below this many µs are never flagged.
    pub min_span_us: u64,
    /// Print the table but always exit 0 (CI advisory mode).
    pub warn_only: bool,
    /// Opt-in gate: fail on histogram p50/p90/p99 drift beyond this
    /// ratio (`None` keeps quantile movement informational).
    pub hist_ratio: Option<f64>,
}

impl ObsDiffArgs {
    /// The diff thresholds these arguments select.
    pub fn options(&self) -> qnet_obs::DiffOptions {
        qnet_obs::DiffOptions {
            span_ratio: self.span_ratio,
            counter_ratio: self.counter_ratio,
            min_span_us: self.min_span_us,
            hist_ratio: self.hist_ratio,
            ..qnet_obs::DiffOptions::default()
        }
    }
}

/// Parses a full command line (without the program name), dispatching on
/// an optional leading subcommand.
///
/// # Errors
///
/// Returns a human-readable message on unknown subcommands/ids/flags,
/// missing flag values, or an empty selection.
pub fn parse_command<I>(argv: I) -> Result<Command, String>
where
    I: IntoIterator<Item = String>,
{
    let mut argv = argv.into_iter().peekable();
    let first = argv.peek().cloned();
    match first.as_deref() {
        Some("obs-diff") => parse_obs_diff(argv.skip(1)).map(Command::ObsDiff),
        Some("fuzz") => parse_fuzz(argv.skip(1)).map(Command::Fuzz),
        Some("churn") => parse_churn(argv.skip(1)).map(Command::Churn),
        Some("profile") => parse_profile(argv.skip(1)).map(Command::Profile),
        Some("stream") => parse_stream(argv.skip(1)).map(Command::Stream),
        Some("serve") => parse_serve(argv.skip(1)).map(Command::Serve),
        _ => parse(argv).map(Command::Run),
    }
}

/// Reads flag values off an argument list, with the messages every
/// parser shares ("--slots needs a value", "bad --slots: …", "--slots
/// must be positive"). Iterating yields the next argument.
pub struct Flags<I> {
    argv: I,
}

impl<I: Iterator<Item = String>> Flags<I> {
    /// Wraps an argument list (without the program name).
    pub fn new(argv: impl IntoIterator<IntoIter = I>) -> Self {
        Flags {
            argv: argv.into_iter(),
        }
    }

    /// Parses the argument after `flag`.
    ///
    /// # Errors
    ///
    /// Returns a message naming `flag` when the value is missing or does
    /// not parse.
    pub fn value<T>(&mut self, flag: &str) -> Result<T, String>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        let v = self
            .argv
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse().map_err(|e| format!("bad {flag}: {e}"))
    }

    /// Like [`Flags::value`], but also rejects zero.
    ///
    /// # Errors
    ///
    /// As [`Flags::value`], plus `"<flag> must be positive"` for zero.
    pub fn positive<T>(&mut self, flag: &str) -> Result<T, String>
    where
        T: std::str::FromStr + Default + PartialEq,
        T::Err: std::fmt::Display,
    {
        let v: T = self.value(flag)?;
        if v == T::default() {
            return Err(format!("{flag} must be positive"));
        }
        Ok(v)
    }

    /// The path after `flag`; `what` names it in the missing-value
    /// message ("directory", "file path").
    ///
    /// # Errors
    ///
    /// Returns `"<flag> needs a <what>"` when the value is missing.
    pub fn path(&mut self, flag: &str, what: &str) -> Result<PathBuf, String> {
        self.argv
            .next()
            .map(PathBuf::from)
            .ok_or_else(|| format!("{flag} needs a {what}"))
    }
}

impl<I: Iterator<Item = String>> Iterator for Flags<I> {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.argv.next()
    }
}

fn parse_serve<I>(argv: I) -> Result<ServeArgs, String>
where
    I: IntoIterator<Item = String>,
{
    let mut slots = 2048u64;
    let mut round = 32u64;
    let mut queue = 16usize;
    let mut policy = "fcfs".to_string();
    let mut seed = 7u64;
    let mut arrival = 0.35f64;
    let mut out = PathBuf::from("results/serve");
    let mut argv = Flags::new(argv);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--slots" => slots = argv.positive(&arg)?,
            "--round" => round = argv.positive(&arg)?,
            "--queue" => queue = argv.positive(&arg)?,
            "--policy" => {
                policy = argv.value(&arg)?;
                if muerp_serve::PolicyKind::parse(&policy).is_none() {
                    return Err(format!("unknown policy: {policy} (fcfs|smallest|weighted)"));
                }
            }
            "--seed" => seed = argv.value(&arg)?,
            "--arrival" => {
                arrival = argv.value(&arg)?;
                if !(0.0..=1.0).contains(&arrival) {
                    return Err("--arrival must be in [0, 1]".into());
                }
            }
            "--out" => out = argv.path(&arg, "directory")?,
            other => {
                return Err(format!(
                    "unknown serve argument: {other}\nusage: repro serve [--slots N] \
                 [--round R] [--queue Q] [--policy fcfs|smallest|weighted] [--seed S] \
                 [--arrival P] [--out DIR]"
                ))
            }
        }
    }
    Ok(ServeArgs {
        slots,
        round,
        queue,
        policy,
        seed,
        arrival,
        out,
    })
}

fn parse_stream<I>(argv: I) -> Result<StreamArgs, String>
where
    I: IntoIterator<Item = String>,
{
    let mut slots = 2048u64;
    let mut window = 64u64;
    let mut seed = 2024u64;
    let mut arrival = 0.35f64;
    let mut sample_every = 8u64;
    let mut churn_every = 0u64;
    let mut out = PathBuf::from("results/stream");
    let mut argv = Flags::new(argv);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--slots" => slots = argv.positive(&arg)?,
            "--window" => window = argv.positive(&arg)?,
            "--seed" => seed = argv.value(&arg)?,
            "--arrival" => {
                arrival = argv.value(&arg)?;
                if !(0.0..=1.0).contains(&arrival) {
                    return Err("--arrival must be in [0, 1]".into());
                }
            }
            "--sample-every" => sample_every = argv.positive(&arg)?,
            "--churn-every" => churn_every = argv.value(&arg)?,
            "--out" => out = argv.path(&arg, "directory")?,
            other => {
                return Err(format!(
                    "unknown stream argument: {other}\nusage: repro stream [--slots N] \
                 [--window W] [--seed S] [--arrival P] [--sample-every N] \
                 [--churn-every N] [--out DIR]"
                ))
            }
        }
    }
    Ok(StreamArgs {
        slots,
        window,
        seed,
        arrival,
        sample_every,
        churn_every,
        out,
    })
}

fn parse_profile<I>(argv: I) -> Result<ProfileArgs, String>
where
    I: IntoIterator<Item = String>,
{
    let usage = || {
        format!(
            "usage: repro profile <{}> [--seed S] [--out DIR] [--top N]",
            PROFILE_SCENARIOS.join("|")
        )
    };
    let mut scenario: Option<String> = None;
    let mut seed = 2024u64;
    let mut out = PathBuf::from("results/profile");
    let mut top = 15usize;
    let mut argv = Flags::new(argv);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--seed" => seed = argv.value(&arg)?,
            "--out" => out = argv.path(&arg, "directory")?,
            "--top" => top = argv.positive(&arg)?,
            id if PROFILE_SCENARIOS.contains(&id) => {
                if scenario.is_some() {
                    return Err("profile takes exactly one scenario".into());
                }
                scenario = Some(id.to_string());
            }
            other => return Err(format!("unknown profile argument: {other}\n{}", usage())),
        }
    }
    let scenario = scenario.ok_or_else(usage)?;
    Ok(ProfileArgs {
        scenario,
        seed,
        out,
        top,
    })
}

fn parse_churn<I>(argv: I) -> Result<ChurnArgs, String>
where
    I: IntoIterator<Item = String>,
{
    let mut cfg = crate::churn::ChurnConfig::default();
    let mut out = None;
    let mut obs_report = false;
    let mut argv = Flags::new(argv);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--trials" => cfg.trials = argv.positive(&arg)?,
            "--failures" => cfg.failures = argv.positive(&arg)?,
            "--seed" => cfg.base_seed = argv.value(&arg)?,
            "--slots" => cfg.sim_slots = argv.positive(&arg)?,
            "--out" => out = Some(argv.path(&arg, "directory")?),
            "--obs-report" => obs_report = true,
            other => return Err(format!("unknown churn argument: {other}")),
        }
    }
    Ok(ChurnArgs {
        cfg,
        out,
        obs_report,
    })
}

fn parse_fuzz<I>(argv: I) -> Result<FuzzArgs, String>
where
    I: IntoIterator<Item = String>,
{
    let mut budget: Option<usize> = None;
    let mut base_seed = 0u64;
    let mut churn = false;
    let mut delta = false;
    let mut serve = false;
    let mut out = PathBuf::from("fuzz-counterexample.json");
    let mut argv = Flags::new(argv);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--churn" => churn = true,
            "--delta" => delta = true,
            "--serve" => serve = true,
            "--budget" => budget = Some(argv.positive(&arg)?),
            "--seed" => base_seed = argv.value(&arg)?,
            "--out" => out = argv.path(&arg, "file path")?,
            other => return Err(format!("unknown fuzz argument: {other}")),
        }
    }
    let budget = budget.ok_or(
        "usage: repro fuzz --budget <n> [--seed S] [--churn] [--delta] [--serve] [--out FILE]"
            .to_string(),
    )?;
    Ok(FuzzArgs {
        budget,
        base_seed,
        churn,
        delta,
        serve,
        out,
    })
}

fn parse_obs_diff<I>(argv: I) -> Result<ObsDiffArgs, String>
where
    I: IntoIterator<Item = String>,
{
    let defaults = qnet_obs::DiffOptions::default();
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut span_ratio = defaults.span_ratio;
    let mut counter_ratio = defaults.counter_ratio;
    let mut min_span_us = defaults.min_span_us;
    let mut warn_only = false;
    let mut hist_ratio = None;
    let mut argv = Flags::new(argv);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--span-ratio" => {
                span_ratio = argv.value(&arg)?;
                if !span_ratio.is_finite() || span_ratio <= 1.0 {
                    return Err("--span-ratio must be greater than 1".into());
                }
            }
            "--counter-ratio" => {
                counter_ratio = argv.value(&arg)?;
                if !counter_ratio.is_finite() || counter_ratio <= 1.0 {
                    return Err("--counter-ratio must be greater than 1".into());
                }
            }
            "--min-span-us" => min_span_us = argv.value(&arg)?,
            "--hist-ratio" => {
                let r: f64 = argv.value(&arg)?;
                if !r.is_finite() || r <= 1.0 {
                    return Err("--hist-ratio must be greater than 1".into());
                }
                hist_ratio = Some(r);
            }
            "--warn-only" => warn_only = true,
            flag if flag.starts_with('-') => {
                return Err(format!("unknown obs-diff flag: {flag}"));
            }
            path => paths.push(PathBuf::from(path)),
        }
    }
    let [baseline, candidate] = <[PathBuf; 2]>::try_from(paths).map_err(|got| {
        format!(
            "usage: repro obs-diff <baseline.json> <candidate.json> \
             [--span-ratio R] [--counter-ratio R] [--min-span-us N] [--hist-ratio R] \
             [--warn-only] (got {} path(s))",
            got.len()
        )
    })?;
    Ok(ObsDiffArgs {
        baseline,
        candidate,
        span_ratio,
        counter_ratio,
        min_span_us,
        warn_only,
        hist_ratio,
    })
}

/// Parses the runner arguments (without the program name).
///
/// # Errors
///
/// Returns a human-readable message on unknown ids/flags, missing flag
/// values, or an empty selection.
pub fn parse<I>(argv: I) -> Result<Args, String>
where
    I: IntoIterator<Item = String>,
{
    let mut which = Vec::new();
    let mut cfg = TrialConfig::default();
    let mut out = None;
    let mut obs_report = false;
    let mut argv = Flags::new(argv);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--trials" => cfg.trials = argv.positive(&arg)?,
            "--seed" => cfg.base_seed = argv.value(&arg)?,
            "--out" => out = Some(argv.path(&arg, "directory")?),
            "--obs-report" => obs_report = true,
            "all" => which.extend(ALL_IDS.iter().map(|s| s.to_string())),
            id if ALL_IDS.contains(&id) => which.push(id.to_string()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if which.is_empty() {
        return Err(format!(
            "usage: repro <{}|all> [--trials N] [--seed S] [--out DIR] [--obs-report]",
            ALL_IDS.join("|")
        ));
    }
    which.dedup();
    Ok(Args {
        which,
        cfg,
        out,
        obs_report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(items: &[&str]) -> Vec<String> {
        items.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn flags_read_values_with_the_shared_messages() {
        let mut f = Flags::new(s(&["7", "0", "x", "dir"]));
        assert_eq!(f.value::<u64>("--a"), Ok(7));
        assert_eq!(
            f.positive::<u64>("--b").unwrap_err(),
            "--b must be positive"
        );
        assert!(f.value::<u64>("--c").unwrap_err().starts_with("bad --c: "));
        assert_eq!(f.path("--out", "directory"), Ok(PathBuf::from("dir")));
        assert_eq!(f.value::<u64>("--d").unwrap_err(), "--d needs a value");
        assert_eq!(
            f.path("--out", "file path").unwrap_err(),
            "--out needs a file path"
        );
    }

    #[test]
    fn parses_single_figure() {
        let a = parse(s(&["fig5"])).unwrap();
        assert_eq!(a.which, vec!["fig5"]);
        assert_eq!(a.cfg, TrialConfig::default());
        assert_eq!(a.out, None);
    }

    #[test]
    fn parses_flags_in_any_order() {
        let a = parse(s(&[
            "--trials", "7", "fig8a", "--seed", "3", "--out", "/tmp/x",
        ]))
        .unwrap();
        assert_eq!(a.cfg.trials, 7);
        assert_eq!(a.cfg.base_seed, 3);
        assert_eq!(a.out, Some(PathBuf::from("/tmp/x")));
        assert_eq!(a.which, vec!["fig8a"]);
        assert!(!a.obs_report);
    }

    #[test]
    fn parses_obs_report_flag() {
        let a = parse(s(&["--obs-report", "fig5"])).unwrap();
        assert!(a.obs_report);
        assert_eq!(a.which, vec!["fig5"]);
    }

    #[test]
    fn all_expands_and_dedups() {
        let a = parse(s(&["fig5", "all"])).unwrap();
        // "fig5" then the full list; consecutive duplicates removed.
        assert_eq!(a.which.len(), 1 + ALL_IDS.len() - 1);
        assert_eq!(a.which[0], "fig5");
    }

    #[test]
    fn rejects_unknown_id() {
        let e = parse(s(&["fig9"])).unwrap_err();
        assert!(e.contains("unknown argument: fig9"));
    }

    #[test]
    fn rejects_zero_trials_and_missing_values() {
        assert!(parse(s(&["fig5", "--trials", "0"]))
            .unwrap_err()
            .contains("positive"));
        assert!(parse(s(&["fig5", "--trials"]))
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse(s(&["fig5", "--trials", "abc"]))
            .unwrap_err()
            .contains("bad --trials"));
        assert!(parse(s(&["fig5", "--out"]))
            .unwrap_err()
            .contains("directory"));
    }

    #[test]
    fn empty_selection_prints_usage() {
        let e = parse(s(&[])).unwrap_err();
        assert!(e.starts_with("usage:"));
        for id in ALL_IDS {
            assert!(e.contains(id), "usage must list {id}");
        }
    }

    #[test]
    fn command_defaults_to_the_runner() {
        let c = parse_command(s(&["fig5", "--trials", "2"])).unwrap();
        let Command::Run(a) = c else {
            panic!("expected Run, got {c:?}");
        };
        assert_eq!(a.which, vec!["fig5"]);
        assert_eq!(a.cfg.trials, 2);
    }

    #[test]
    fn obs_diff_parses_paths_and_defaults() {
        let c = parse_command(s(&["obs-diff", "a.json", "b.json"])).unwrap();
        let Command::ObsDiff(d) = c else {
            panic!("expected ObsDiff, got {c:?}");
        };
        assert_eq!(d.baseline, PathBuf::from("a.json"));
        assert_eq!(d.candidate, PathBuf::from("b.json"));
        let defaults = qnet_obs::DiffOptions::default();
        assert_eq!(d.span_ratio, defaults.span_ratio);
        assert_eq!(d.counter_ratio, defaults.counter_ratio);
        assert_eq!(d.min_span_us, defaults.min_span_us);
        assert!(!d.warn_only);
        assert!(d.options().fail_on_missing);
    }

    #[test]
    fn obs_diff_parses_thresholds() {
        let c = parse_command(s(&[
            "obs-diff",
            "base.json",
            "--span-ratio",
            "3.5",
            "cand.json",
            "--counter-ratio",
            "4",
            "--min-span-us",
            "500",
            "--warn-only",
        ]))
        .unwrap();
        let Command::ObsDiff(d) = c else {
            panic!("expected ObsDiff, got {c:?}");
        };
        assert_eq!(d.span_ratio, 3.5);
        assert_eq!(d.counter_ratio, 4.0);
        assert_eq!(d.min_span_us, 500);
        assert!(d.warn_only);
        assert_eq!(d.options().span_ratio, 3.5);
    }

    #[test]
    fn fuzz_parses_budget_seed_and_out() {
        let c = parse_command(s(&["fuzz", "--budget", "500"])).unwrap();
        let Command::Fuzz(f) = c else {
            panic!("expected Fuzz, got {c:?}");
        };
        assert_eq!(f.budget, 500);
        assert_eq!(f.base_seed, 0);
        assert!(!f.churn);
        assert!(!f.delta);
        assert_eq!(f.out, PathBuf::from("fuzz-counterexample.json"));
        assert_eq!(f.config().budget, 500);
        assert!(!f.config().churn);
        assert!(!f.config().delta);

        let c = parse_command(s(&["fuzz", "--budget", "9", "--churn"])).unwrap();
        let Command::Fuzz(f) = c else {
            panic!("expected Fuzz, got {c:?}");
        };
        assert!(f.churn);
        assert!(f.config().churn);

        let c = parse_command(s(&["fuzz", "--budget", "9", "--delta"])).unwrap();
        let Command::Fuzz(f) = c else {
            panic!("expected Fuzz, got {c:?}");
        };
        assert!(f.delta);
        assert!(!f.churn);
        assert!(f.config().delta);

        let c = parse_command(s(&["fuzz", "--budget", "9", "--serve"])).unwrap();
        let Command::Fuzz(f) = c else {
            panic!("expected Fuzz, got {c:?}");
        };
        assert!(f.serve);
        assert!(!f.delta);
        assert!(f.config().serve);

        let c = parse_command(s(&[
            "fuzz",
            "--seed",
            "7",
            "--budget",
            "20",
            "--out",
            "/tmp/ce.json",
        ]))
        .unwrap();
        let Command::Fuzz(f) = c else {
            panic!("expected Fuzz, got {c:?}");
        };
        assert_eq!(f.base_seed, 7);
        assert_eq!(f.budget, 20);
        assert_eq!(f.out, PathBuf::from("/tmp/ce.json"));
    }

    #[test]
    fn fuzz_rejects_bad_invocations() {
        assert!(parse_command(s(&["fuzz"]))
            .unwrap_err()
            .contains("usage: repro fuzz"));
        assert!(parse_command(s(&["fuzz", "--budget", "0"]))
            .unwrap_err()
            .contains("positive"));
        assert!(parse_command(s(&["fuzz", "--budget"]))
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse_command(s(&["fuzz", "--budget", "5", "--bogus"]))
            .unwrap_err()
            .contains("unknown fuzz argument"));
    }

    #[test]
    fn churn_parses_flags_and_defaults() {
        let c = parse_command(s(&["churn"])).unwrap();
        let Command::Churn(a) = c else {
            panic!("expected Churn, got {c:?}");
        };
        assert_eq!(a.cfg, crate::churn::ChurnConfig::default());
        assert_eq!(a.out, None);
        assert!(!a.obs_report);

        let c = parse_command(s(&[
            "churn",
            "--trials",
            "5",
            "--failures",
            "2",
            "--seed",
            "9",
            "--slots",
            "100",
            "--out",
            "/tmp/churn",
            "--obs-report",
        ]))
        .unwrap();
        let Command::Churn(a) = c else {
            panic!("expected Churn, got {c:?}");
        };
        assert_eq!(a.cfg.trials, 5);
        assert_eq!(a.cfg.failures, 2);
        assert_eq!(a.cfg.base_seed, 9);
        assert_eq!(a.cfg.sim_slots, 100);
        assert_eq!(a.out, Some(PathBuf::from("/tmp/churn")));
        assert!(a.obs_report);
    }

    #[test]
    fn churn_rejects_bad_invocations() {
        assert!(parse_command(s(&["churn", "--trials", "0"]))
            .unwrap_err()
            .contains("positive"));
        assert!(parse_command(s(&["churn", "--failures"]))
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse_command(s(&["churn", "--bogus"]))
            .unwrap_err()
            .contains("unknown churn argument"));
    }

    #[test]
    fn obs_diff_rejects_bad_invocations() {
        assert!(parse_command(s(&["obs-diff", "only-one.json"]))
            .unwrap_err()
            .contains("usage: repro obs-diff"));
        assert!(parse_command(s(&["obs-diff", "a", "b", "c"]))
            .unwrap_err()
            .contains("got 3 path(s)"));
        assert!(
            parse_command(s(&["obs-diff", "a", "b", "--span-ratio", "0.5"]))
                .unwrap_err()
                .contains("greater than 1")
        );
        assert!(parse_command(s(&["obs-diff", "a", "b", "--bogus"]))
            .unwrap_err()
            .contains("unknown obs-diff flag"));
    }

    #[test]
    fn obs_diff_hist_ratio_is_opt_in() {
        let c = parse_command(s(&["obs-diff", "a.json", "b.json"])).unwrap();
        let Command::ObsDiff(d) = c else {
            panic!("expected ObsDiff, got {c:?}");
        };
        assert_eq!(d.hist_ratio, None);
        assert_eq!(d.options().hist_ratio, None);

        let c = parse_command(s(&["obs-diff", "a.json", "b.json", "--hist-ratio", "2.5"])).unwrap();
        let Command::ObsDiff(d) = c else {
            panic!("expected ObsDiff, got {c:?}");
        };
        assert_eq!(d.hist_ratio, Some(2.5));
        assert_eq!(d.options().hist_ratio, Some(2.5));

        assert!(
            parse_command(s(&["obs-diff", "a", "b", "--hist-ratio", "1.0"]))
                .unwrap_err()
                .contains("greater than 1")
        );
        assert!(parse_command(s(&["obs-diff", "a", "b", "--hist-ratio"]))
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn profile_parses_scenario_and_defaults() {
        let c = parse_command(s(&["profile", "paper-default"])).unwrap();
        let Command::Profile(p) = c else {
            panic!("expected Profile, got {c:?}");
        };
        assert_eq!(p.scenario, "paper-default");
        assert_eq!(p.seed, 2024);
        assert_eq!(p.out, PathBuf::from("results/profile"));
        assert_eq!(p.top, 15);

        let c = parse_command(s(&[
            "profile",
            "--seed",
            "7",
            "waxman-240",
            "--out",
            "/tmp/prof",
            "--top",
            "5",
        ]))
        .unwrap();
        let Command::Profile(p) = c else {
            panic!("expected Profile, got {c:?}");
        };
        assert_eq!(p.scenario, "waxman-240");
        assert_eq!(p.seed, 7);
        assert_eq!(p.out, PathBuf::from("/tmp/prof"));
        assert_eq!(p.top, 5);
    }

    #[test]
    fn stream_parses_flags_and_defaults() {
        let c = parse_command(s(&["stream"])).unwrap();
        let Command::Stream(a) = c else {
            panic!("expected Stream, got {c:?}");
        };
        assert_eq!(a.slots, 2048);
        assert_eq!(a.window, 64);
        assert_eq!(a.seed, 2024);
        assert_eq!(a.arrival, 0.35);
        assert_eq!(a.sample_every, 8);
        assert_eq!(a.churn_every, 0);
        assert_eq!(a.out, PathBuf::from("results/stream"));
        let cfg = a.config();
        assert_eq!(cfg.slots, 2048);
        assert_eq!(cfg.window_slots, 64);
        assert_eq!(cfg.base_arrival, 0.35);
        assert_eq!(cfg.churn_every, 0);

        let c = parse_command(s(&[
            "stream",
            "--slots",
            "1024",
            "--window",
            "32",
            "--seed",
            "7",
            "--arrival",
            "0.5",
            "--sample-every",
            "4",
            "--churn-every",
            "16",
            "--out",
            "/tmp/stream",
        ]))
        .unwrap();
        let Command::Stream(a) = c else {
            panic!("expected Stream, got {c:?}");
        };
        assert_eq!(a.slots, 1024);
        assert_eq!(a.window, 32);
        assert_eq!(a.seed, 7);
        assert_eq!(a.arrival, 0.5);
        assert_eq!(a.sample_every, 4);
        assert_eq!(a.churn_every, 16);
        assert_eq!(a.out, PathBuf::from("/tmp/stream"));
        assert_eq!(a.config().sample_every, 4);
        assert_eq!(a.config().churn_every, 16);
    }

    #[test]
    fn stream_rejects_bad_invocations() {
        assert!(parse_command(s(&["stream", "--slots", "0"]))
            .unwrap_err()
            .contains("positive"));
        assert!(parse_command(s(&["stream", "--window", "0"]))
            .unwrap_err()
            .contains("positive"));
        assert!(parse_command(s(&["stream", "--arrival", "1.5"]))
            .unwrap_err()
            .contains("[0, 1]"));
        assert!(parse_command(s(&["stream", "--sample-every", "0"]))
            .unwrap_err()
            .contains("positive"));
        assert!(parse_command(s(&["stream", "--seed"]))
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse_command(s(&["stream", "--churn-every"]))
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse_command(s(&["stream", "--bogus"]))
            .unwrap_err()
            .contains("unknown stream argument"));
    }

    #[test]
    fn serve_parses_flags_and_defaults() {
        let c = parse_command(s(&["serve"])).unwrap();
        let Command::Serve(a) = c else {
            panic!("expected Serve, got {c:?}");
        };
        assert_eq!(a.slots, 2048);
        assert_eq!(a.round, 32);
        assert_eq!(a.queue, 16);
        assert_eq!(a.policy, "fcfs");
        assert_eq!(a.seed, 7);
        assert_eq!(a.arrival, 0.35);
        assert_eq!(a.out, PathBuf::from("results/serve"));
        let cfg = a.config().unwrap();
        assert_eq!(cfg.stream.slots, 2048);
        assert_eq!(cfg.round_slots, 32);
        assert_eq!(cfg.queue_capacity, 16);
        assert_eq!(cfg.policy, muerp_serve::PolicyKind::Fcfs);

        let c = parse_command(s(&[
            "serve",
            "--slots",
            "512",
            "--round",
            "16",
            "--queue",
            "8",
            "--policy",
            "weighted",
            "--seed",
            "3",
            "--arrival",
            "0.5",
            "--out",
            "/tmp/serve",
        ]))
        .unwrap();
        let Command::Serve(a) = c else {
            panic!("expected Serve, got {c:?}");
        };
        assert_eq!(a.slots, 512);
        assert_eq!(a.round, 16);
        assert_eq!(a.queue, 8);
        assert_eq!(a.policy, "weighted");
        assert_eq!(a.seed, 3);
        assert_eq!(a.arrival, 0.5);
        assert_eq!(a.out, PathBuf::from("/tmp/serve"));
        assert_eq!(
            a.config().unwrap().policy,
            muerp_serve::PolicyKind::WeightedFair
        );
    }

    #[test]
    fn serve_rejects_bad_invocations() {
        assert!(parse_command(s(&["serve", "--slots", "0"]))
            .unwrap_err()
            .contains("positive"));
        assert!(parse_command(s(&["serve", "--round", "0"]))
            .unwrap_err()
            .contains("positive"));
        assert!(parse_command(s(&["serve", "--queue", "0"]))
            .unwrap_err()
            .contains("positive"));
        assert!(parse_command(s(&["serve", "--policy", "lifo"]))
            .unwrap_err()
            .contains("unknown policy"));
        assert!(parse_command(s(&["serve", "--arrival", "1.5"]))
            .unwrap_err()
            .contains("[0, 1]"));
        assert!(parse_command(s(&["serve", "--bogus"]))
            .unwrap_err()
            .contains("unknown serve argument"));
    }

    #[test]
    fn profile_rejects_bad_invocations() {
        assert!(parse_command(s(&["profile"]))
            .unwrap_err()
            .contains("usage: repro profile"));
        assert!(parse_command(s(&["profile", "nonsense"]))
            .unwrap_err()
            .contains("unknown profile argument"));
        assert!(
            parse_command(s(&["profile", "paper-default", "waxman-240"]))
                .unwrap_err()
                .contains("exactly one scenario")
        );
        assert!(
            parse_command(s(&["profile", "paper-default", "--top", "0"]))
                .unwrap_err()
                .contains("positive")
        );
        assert!(parse_command(s(&["profile", "paper-default", "--seed"]))
            .unwrap_err()
            .contains("needs a value"));
    }
}
