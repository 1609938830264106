//! The harness's own checks: the traced replica makes exactly the
//! engine's decisions, digests repeat, and spans nest under their rounds.
//!
//! Run with `cargo test --release --manifest-path servebench/harness/Cargo.toml`
//! (the 1240-node Waxman build is slow without optimisation).

use muerp_serve::serve_requests;
use muerp_servebench::replica::{replay, Attribution, Layer, NO_PARENT};
use muerp_servebench::{check_outcome, digest, Workload, DEFAULT_SEED, WORKLOADS};

/// A short script per workload: enough rounds to admit, block, shed and
/// depart, small enough for a unit test.
fn short_slots(w: &Workload) -> u64 {
    if w.switches > 500 {
        512
    } else {
        2048
    }
}

#[test]
fn replica_equals_the_engine_on_every_workload() {
    for w in &WORKLOADS {
        let net = w.build_network();
        let cfg = w.serve_config_for(short_slots(w));
        let script = Workload::script(&net, &cfg, DEFAULT_SEED);
        let engine = serve_requests(&net, &cfg, &script);
        let traced = replay(&net, &cfg, &script);
        assert!(
            traced.outcome == engine,
            "{}: the replica's outcome differs from serve_requests",
            w.name
        );
        let check = check_outcome(&net, &script, &engine);
        assert_eq!(check.failed, 0, "{}: {:?}", w.name, check.problems);
        assert!(engine.stats.admitted > 0, "{}: nothing admitted", w.name);
        assert!(
            engine.stats.blocked() > 0,
            "{}: the short script should contend",
            w.name
        );
        assert_eq!(
            traced
                .tracer
                .spans()
                .iter()
                .filter(|s| s.layer == Layer::Round)
                .count() as u64,
            cfg.rounds(),
            "{}: one round span per round",
            w.name
        );
    }
}

#[test]
fn digest_is_stable_across_runs_and_set_ups() {
    let w = Workload::by_name("pd-busy").expect("known workload");
    let cfg = w.serve_config_for(4096);
    let first = {
        let net = w.build_network();
        let script = Workload::script(&net, &cfg, DEFAULT_SEED);
        let a = digest(&serve_requests(&net, &cfg, &script).decisions);
        let b = digest(&serve_requests(&net, &cfg, &script).decisions);
        assert_eq!(a, b, "two runs over the same inputs");
        a
    };
    let net = w.build_network();
    let script = Workload::script(&net, &cfg, DEFAULT_SEED);
    assert_eq!(
        digest(&serve_requests(&net, &cfg, &script).decisions),
        first,
        "a fresh set-up yields the same decisions"
    );
    let other = Workload::script(&net, &cfg, DEFAULT_SEED + 1);
    assert_ne!(
        digest(&serve_requests(&net, &cfg, &other).decisions),
        first,
        "the digest tells scripts apart"
    );
}

#[test]
fn spans_nest_under_rounds() {
    let w = Workload::by_name("wax240-scarce").expect("known workload");
    let net = w.build_network();
    let cfg = w.serve_config_for(1024);
    let script = Workload::script(&net, &cfg, DEFAULT_SEED);
    let traced = replay(&net, &cfg, &script);
    let spans = traced.tracer.spans();
    // Every span nests inside its parent, and every non-round span has
    // a round as its outermost ancestor.
    for s in spans {
        if s.parent == NO_PARENT {
            assert_eq!(s.layer, Layer::Round);
        } else {
            let p = &spans[s.parent as usize];
            assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
        }
    }
    for (i, layer) in Layer::ALL.iter().enumerate() {
        assert_eq!(layer.index(), i, "Layer::ALL follows declaration order");
    }
    let a = Attribution::of(spans);
    assert!((0.0..=1.0).contains(&a.coverage()));
    assert_eq!(a.calls_of(Layer::Round), cfg.rounds());
}
