//! `servebench` — one measurement of one serve workload.
//!
//! ```text
//! servebench --workload <pd-busy|wax240-scarce|wax1200> [--seed N]
//!            [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` times `serve_requests` at the program's default obs level
//! and prints the end-to-end metrics. `--trace 1` alternates untraced
//! engine runs with traced replicas (obs level `full`) and prints the
//! per-layer metrics. Either way the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! the host block.

use std::time::Instant;

use muerp_servebench::replica::{replay, Attribution, Layer};
use muerp_servebench::{
    admit_ratio, check_outcome, count_mismatches, decision_hash, digest, median, percentile,
    tail_percentile, Check, Setup, Workload, DEFAULT_SEED,
};
use qnet_obs::ObsLevel;
use serde_json::Value;

/// Set-up is timed at least this often per run, at evenly spaced points
/// of the timed budget...
const SETUP_MIN_REPS: usize = 5;
/// ...and repeated after each timed call while set-ups have taken less
/// than this share of the timed time so far.
const SETUP_SHARE: f64 = 0.2;
/// Timed engine repetitions per run, at least.
const MIN_REPS: usize = 3;
/// `setup_s` and `decisions_per_s` are taken at this percentile of their
/// samples' times: other tenants of the host only ever add time, so the
/// fast tail repeats where the median does not.
const FAST_PERCENTILE: f64 = 10.0;
/// Traced replays must take between these multiples of the untraced
/// engine's wall time; outside it the replica has drifted from the
/// engine (or tracing got too heavy to trust).
const TRACE_OVERHEAD_RANGE: (f64, f64) = (0.75, 1.6);
/// The named layers' self times must cover at least this share of round
/// wall time; below it the spans miss a phase of the round loop.
const MIN_COVERAGE: f64 = 0.9;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("servebench: {msg}");
    eprintln!(
        "usage: servebench --workload <pd-busy|wax240-scarce|wax1200> [--seed N] \
         [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds,
        trace,
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A JSON object from `(key, value)` pairs.
fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host block printed with every result.
fn host_line(args: &Args, setup_reps: usize, timed_reps: usize, traced_reps: usize) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::env::var("SERVEBENCH_RUSTC").unwrap_or_else(|_| "unknown".to_string());
    let threads = std::env::var("MUERP_THREADS").unwrap_or_default();
    let engine = ("engine", Value::from(qnet_obs::level().name()));
    let obs = if args.trace {
        object([engine, ("replica", "full".into())])
    } else {
        object([engine])
    };
    object([(
        "host",
        object([
            ("nproc", nproc.into()),
            ("cpu", cpu_model().into()),
            ("rustc", rustc.into()),
            ("MUERP_THREADS", threads.into()),
            ("MUERP_OBS", obs),
            ("workload", args.workload.name.into()),
            ("seed", args.seed.into()),
            ("slots", args.workload.slots.into()),
            ("setup_reps", setup_reps.into()),
            ("timed_reps", timed_reps.into()),
            ("traced_reps", traced_reps.into()),
        ]),
    )])
}

fn result_line(check: &Check, metrics: &[Metric]) -> Value {
    let body = metrics
        .iter()
        .map(|x| {
            let metric = object([("value", x.value.into()), ("unit", x.unit.into())]);
            (x.name.to_string(), metric)
        })
        .collect();
    object([
        ("correct", (check.failed == 0 && check.ops > 0).into()),
        ("attempted", check.ops.max(1).into()),
        ("failed", check.failed.into()),
        ("metrics", Value::Object(body)),
    ])
}

/// The audited reference run: every admitted tree audited, the digest
/// compared with the pinned one at the default seed.
fn reference_run(args: &Args, setup: &Setup) -> (muerp_serve::ServeOutcome, Check) {
    let cfg = args.workload.serve_config();
    let out = muerp_serve::serve_requests(&setup.net, &cfg, &setup.script);
    let mut check = check_outcome(&setup.net, &setup.script, &out);
    let dg = digest(&out.decisions);
    eprintln!(
        "servebench: decision digest {dg:#018x} at seed {}",
        args.seed
    );
    if args.seed == DEFAULT_SEED && dg != args.workload.pinned_digest {
        check.failed = check.ops.max(1);
        check.problems.push(format!(
            "digest {dg:#018x} differs from the pinned {:#018x}",
            args.workload.pinned_digest
        ));
    }
    (out, check)
}

/// The timing loop shared by both modes: runs `rep`, which returns the
/// seconds it timed, until those add up to `seconds` (and at least
/// `min_reps` times). After each call it times fresh set-ups while
/// fewer than the pro-rata part of [`SETUP_MIN_REPS`] were taken, so
/// even a set-up of seconds falls at evenly spaced points of the run,
/// or while set-ups have used less than [`SETUP_SHARE`] of the timed
/// time, so a set-up of milliseconds is sampled many times over.
fn measure(args: &Args, setup: &mut Setup, min_reps: usize, mut rep: impl FnMut(&Setup) -> f64) {
    let cfg = args.workload.serve_config();
    let mut timed = 0.0;
    let mut setup_time: f64 = setup.total_s().iter().sum();
    let mut reps = 0;
    while reps < min_reps || timed < args.seconds {
        timed += rep(setup);
        reps += 1;
        let due = (SETUP_MIN_REPS as f64 * (timed / args.seconds).min(1.0)).ceil() as usize;
        while setup.reps() < due || setup_time < SETUP_SHARE * timed {
            setup_time += setup.repeat(args.workload, &cfg, args.seed);
        }
    }
}

/// The [`FAST_PERCENTILE`] of unsorted time samples.
fn fast(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, FAST_PERCENTILE)
}

fn untraced(args: &Args) -> (Value, Value) {
    let cfg = args.workload.serve_config();
    let mut setup = Setup::new(args.workload, &cfg, args.seed);
    let (reference, mut check) = reference_run(args, &setup);
    let hashes: Vec<u64> = reference.decisions.iter().map(decision_hash).collect();
    let ref_stats = reference.stats;
    let decisions = reference.decisions.len();
    let admit = admit_ratio(&reference);
    let rate = reference.stats.mean_session_rate;
    drop(reference);

    let mut walls = Vec::new();
    measure(args, &mut setup, MIN_REPS, |s| {
        let t = Instant::now();
        let out = std::hint::black_box(muerp_serve::serve_requests(
            &s.net,
            &cfg,
            std::hint::black_box(&s.script),
        ));
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        let mut rep = Check {
            ops: out.decisions.len() as u64,
            failed: count_mismatches(&hashes, &out.decisions),
            ..Check::default()
        };
        if out.stats != ref_stats && rep.failed == 0 {
            rep.failed = 1;
            rep.problems
                .push("run statistics differ between repetitions".into());
        }
        check.merge(rep);
        wall
    });
    let setups = setup.total_s();
    eprintln!(
        "servebench: {} timed reps, wall s median {:.6} p{FAST_PERCENTILE} {:.6}; \
         {} set-ups, s median {:.6} p{FAST_PERCENTILE} {:.6}",
        walls.len(),
        median(&walls),
        fast(&walls),
        setups.len(),
        median(&setups),
        fast(&setups),
    );
    let rss_mb = qnet_obs::peak_rss_bytes().unwrap_or(0) as f64 / 1e6;
    let metrics = [
        m("setup_s", fast(&setups), "s"),
        m("decisions_per_s", decisions as f64 / fast(&walls), "1/s"),
        m("peak_rss_mb", rss_mb, "MB"),
        m("admit_ratio", admit, "ratio"),
        m("mean_session_rate", rate, "1/slot"),
    ];
    for x in &metrics {
        eprintln!("servebench: {:<20} {:>16.6} {}", x.name, x.value, x.unit);
    }
    report_problems(&check);
    (
        host_line(args, setup.reps(), walls.len(), 0),
        result_line(&check, &metrics),
    )
}

fn report_problems(check: &Check) {
    eprintln!("servebench: ops {} failed_ops {}", check.ops, check.failed);
    for p in &check.problems {
        eprintln!("servebench: FAILED {p}");
    }
}

/// Program-side counters read around a traced replay.
const KERNEL_COUNTERS: [&str; 4] = [
    "graph.dijkstra.calls",
    "graph.dijkstra.settled",
    "graph.delta.repaired",
    "graph.delta.resettled",
];

/// Per-layer metrics of one traced replay.
fn layer_metrics(
    r: &muerp_servebench::replica::Replay,
    kernel: [u64; 4],
    dijkstra_ms: f64,
) -> Vec<Metric> {
    let a = Attribution::of(r.tracer.spans());
    let out = &r.outcome;
    let ms = |l: Layer| a.self_of(l) * 1e3;
    let mut round_ms = a.round_ms.clone();
    round_ms.sort_by(f64::total_cmp);
    let mut route_us = a.route_us.clone();
    route_us.sort_by(f64::total_cmp);
    let (round_q, round_tail) = tail_percentile(&round_ms).unwrap_or((f64::NAN, f64::NAN));
    let (route_q, route_tail) = tail_percentile(&route_us).unwrap_or((f64::NAN, f64::NAN));
    let mut depth: Vec<f64> = out.rounds.iter().map(|x| x.queued as f64).collect();
    depth.sort_by(f64::total_cmp);
    let eff = out.stats.cache;
    let sources: usize = out.rounds.iter().map(|x| x.warmed).sum();
    vec![
        m("serve.depart.ms", ms(Layer::Depart), "ms"),
        m("serve.depart.count", out.stats.departures as f64, "count"),
        m("cache.absorb.ms", ms(Layer::Absorb), "ms"),
        m("serve.queue.ms", ms(Layer::Queue), "ms"),
        m("serve.queue.shed", out.stats.shed as f64, "count"),
        m("serve.queue.depth_p99", percentile(&depth, 99.0), "count"),
        m("serve.policy.ms", ms(Layer::Policy), "ms"),
        m("serve.busy.ms", ms(Layer::Busy), "ms"),
        m("serve.admit.ms", ms(Layer::Admit), "ms"),
        m("serve.other.ms", ms(Layer::Round), "ms"),
        m("obs.timeseries.ms", ms(Layer::TimeSeries), "ms"),
        m(
            "obs.timeseries.windows",
            out.series.windows.len() as f64,
            "count",
        ),
        m("cache.warm.ms", ms(Layer::Warm), "ms"),
        m("cache.warm.sources", sources as f64, "count"),
        m("cache.warm.searches", r.warm_searches as f64, "count"),
        m("route.ms", ms(Layer::Route), "ms"),
        m("route.calls", a.calls_of(Layer::Route) as f64, "count"),
        m("route.us.p50", percentile(&route_us, 50.0), "us"),
        m("route.us.pNN", route_tail, "us"),
        m("route.us.pNN.pct", route_q, "pct"),
        m("cache.hits", eff.hits as f64, "count"),
        m("cache.refreshes", eff.refreshes as f64, "count"),
        m("cache.repairs", eff.repairs as f64, "count"),
        m("cache.fills", eff.fills as f64, "count"),
        m("cache.searches", out.stats.total_searches as f64, "count"),
        m("cache.hit_rate", eff.hit_rate(), "ratio"),
        m("graph.dijkstra.calls", kernel[0] as f64, "count"),
        m("graph.dijkstra.settled", kernel[1] as f64, "count"),
        m("graph.delta.repaired", kernel[2] as f64, "count"),
        m("graph.delta.resettled", kernel[3] as f64, "count"),
        m("graph.dijkstra.ms", dijkstra_ms, "ms"),
        m("serve.round.ms.p50", percentile(&round_ms, 50.0), "ms"),
        m("serve.round.ms.pNN", round_tail, "ms"),
        m("serve.round.ms.pNN.pct", round_q, "pct"),
        m("serve.rounds", round_ms.len() as f64, "count"),
        m("trace.coverage", a.coverage(), "ratio"),
    ]
}

fn traced(args: &Args) -> (Value, Value) {
    let cfg = args.workload.serve_config();
    let mut setup = Setup::new(args.workload, &cfg, args.seed);
    let (reference, mut check) = reference_run(args, &setup);
    let hashes: Vec<u64> = reference.decisions.iter().map(decision_hash).collect();
    drop(reference);
    let engine_level = qnet_obs::level();

    let mut engine_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut per_rep: Vec<Vec<Metric>> = Vec::new();
    measure(args, &mut setup, 2, |setup| {
        let t = Instant::now();
        let out =
            std::hint::black_box(muerp_serve::serve_requests(&setup.net, &cfg, &setup.script));
        let engine_wall = t.elapsed().as_secs_f64();
        engine_walls.push(engine_wall);
        check.merge(Check {
            ops: out.decisions.len() as u64,
            failed: count_mismatches(&hashes, &out.decisions),
            ..Check::default()
        });

        qnet_obs::set_level(ObsLevel::Full);
        qnet_obs::reset_spans();
        let registry = qnet_obs::global();
        let before = KERNEL_COUNTERS.map(|k| registry.counter_total(k));
        let dropped_before = registry.counter_total("obs.spans.dropped");
        let r = replay(&setup.net, &cfg, &setup.script);
        let after = KERNEL_COUNTERS.map(|k| registry.counter_total(k));
        let dropped = registry.counter_total("obs.spans.dropped") - dropped_before;
        let report = qnet_obs::RunReport::capture("servebench");
        qnet_obs::set_level(engine_level);
        qnet_obs::reset_spans();
        let dijkstra_ms = report
            .spans
            .iter()
            .filter(|s| s.name == "graph.dijkstra.run")
            .map(|s| s.duration_us as f64 * 1e-3)
            .sum::<f64>();
        drop(report);

        let mut rep = Check {
            ops: r.outcome.decisions.len() as u64,
            failed: count_mismatches(&hashes, &r.outcome.decisions),
            ..Check::default()
        };
        if rep.failed > 0 {
            rep.problems.push(format!(
                "replica made {} decisions the engine did not",
                rep.failed
            ));
        } else if r.outcome != out {
            rep.failed = 1;
            rep.problems
                .push("replica outcome differs from serve_requests beyond its decisions".into());
        }
        if dropped > 0 {
            rep.problems.push(format!(
                "{dropped} program spans dropped; graph.dijkstra.ms undercounts"
            ));
        }
        check.merge(rep);
        let kernel = [0, 1, 2, 3].map(|i| after[i] - before[i]);
        traced_walls.push(r.wall_s);
        per_rep.push(layer_metrics(&r, kernel, dijkstra_ms));
        engine_wall + r.wall_s
    });

    let setup_metrics = [
        m("topology.build_s", fast(&setup.build_s), "s"),
        m("stream.script_s", fast(&setup.script_s), "s"),
    ];
    let mut metrics: Vec<Metric> = setup_metrics.into_iter().collect();
    for (i, first) in per_rep[0].iter().enumerate() {
        let values: Vec<f64> = per_rep.iter().map(|rep| rep[i].value).collect();
        metrics.push(m(first.name, median(&values), first.unit));
    }
    let overhead = median(&traced_walls) / median(&engine_walls);
    metrics.push(m("trace.overhead", overhead, "ratio"));
    if !(TRACE_OVERHEAD_RANGE.0..=TRACE_OVERHEAD_RANGE.1).contains(&overhead) {
        check.failed = check.failed.max(1);
        check.problems.push(format!(
            "traced replay took {overhead:.3}× the engine's wall time, outside {:?}: \
             the replica no longer mirrors the engine",
            TRACE_OVERHEAD_RANGE
        ));
    }
    let coverage = metrics
        .iter()
        .find(|x| x.name == "trace.coverage")
        .map_or(0.0, |x| x.value);
    if coverage < MIN_COVERAGE {
        check.failed = check.failed.max(1);
        check.problems.push(format!(
            "traced layers cover {coverage:.3} of round wall time, below {MIN_COVERAGE}: \
             a phase of the round loop is untraced"
        ));
    }
    for x in &metrics {
        eprintln!("servebench: {:<24} {:>16.6} {}", x.name, x.value, x.unit);
    }
    report_problems(&check);
    (
        host_line(args, setup.reps(), engine_walls.len(), per_rep.len()),
        result_line(&check, &metrics),
    )
}

fn main() {
    let args = parse_args();
    let (host, result) = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    println!("{host}");
    println!("{result}");
}
