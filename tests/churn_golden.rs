//! Golden churn fixture: a pinned network, a pinned seeded failure, and
//! the pinned repaired solution, checked byte-for-byte against the
//! deterministic pipeline and re-audited on every run.
//!
//! Regenerate after an intentional format or repair-ladder change with:
//!
//! ```text
//! MUERP_REGEN_FIXTURES=1 cargo test --test churn_golden
//! ```

use std::path::PathBuf;

use muerp::conformance::{derive_failure, failure_from_json, failure_to_json, Fixture};
use muerp::core::audit::audit_solution;
use muerp::core::prelude::*;
use serde_json::{Map, Value};

/// Pinned forever: the fixture seed and shape. Seed 19 was chosen
/// because its derived failure (a link cut) actually breaks the solved
/// tree and is repaired by the ladder's local-reroute rung — an
/// untouched-tree fixture would pin nothing interesting.
const SEED: u64 = 19;
const NODES: usize = 16;
const USERS: usize = 5;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/churn-waxman-16.json")
}

/// Builds the churn fixture deterministically: solve, inject the derived
/// failure, repair, and pin base + repaired solutions plus the failure.
fn fixture_source() -> String {
    let mut spec = NetworkSpec::paper_default().with_users(USERS);
    spec.topology.nodes = NODES;
    let net = spec.build(SEED);
    let base = PrimBased::with_seed(SEED)
        .solve(&net)
        .expect("the pinned fixture network is solvable");
    let failure = derive_failure(&net, SEED);
    let mut state = NetworkState::new(&net);
    state.apply(&failure.kind);
    let outcome = repair(&net, &base, &state);
    let fixed = outcome
        .solution
        .clone()
        .expect("the pinned fixture failure is repairable");
    let method = outcome.method.name();
    drop(state);
    let fixture = Fixture {
        name: "churn-waxman-16".to_string(),
        net,
        solutions: vec![("Alg-4".to_string(), base), ("repair".to_string(), fixed)],
    };
    let mut root: Map<String, Value> = match fixture.to_json() {
        Value::Object(map) => map,
        _ => unreachable!("fixtures serialize to objects"),
    };
    root.insert("failure".into(), failure_to_json(&failure));
    root.insert("repair_method".into(), Value::from(method));
    serde_json::to_string_pretty(&Value::Object(root)).expect("Value serialization is total")
}

#[test]
fn golden_churn_fixture_matches_pipeline_and_audits_clean() {
    let expected = fixture_source();
    let path = fixture_path();
    if std::env::var_os("MUERP_REGEN_FIXTURES").is_some() {
        std::fs::write(&path, &expected)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        return;
    }
    let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with MUERP_REGEN_FIXTURES=1",
            path.display()
        )
    });
    assert_eq!(
        on_disk, expected,
        "committed churn fixture drifted from the repair pipeline; \
         regenerate with MUERP_REGEN_FIXTURES=1 if intentional"
    );

    // Reload and re-verify everything from the committed bytes alone.
    let value: Value = serde_json::from_str(&on_disk).expect("fixture JSON parses");
    let fixture = Fixture::from_json(&value).expect("fixture schema parses");
    let failure = failure_from_json(&fixture.net, value.get("failure").expect("failure pinned"))
        .expect("pinned failure parses");
    assert_eq!(fixture.solutions.len(), 2, "base + repaired");
    for (algo, sol) in &fixture.solutions {
        audit_solution(&fixture.net, sol)
            .unwrap_or_else(|v| panic!("{algo} failed the audit after reload: {v}"));
    }
    // The repaired solution must fit the degraded network the pinned
    // failure leaves behind.
    let mut state = NetworkState::new(&fixture.net);
    state.apply(&failure.kind);
    let repaired = &fixture.solutions[1].1;
    assert!(
        state.admits_solution(repaired),
        "pinned repaired solution does not fit the degraded network"
    );
    assert_eq!(
        value.get("repair_method").and_then(Value::as_str),
        Some("local-reroute"),
        "the pinned failure must exercise the ladder's local-fix rung"
    );
}

#[test]
fn corrupted_churn_fixture_is_rejected_with_named_invariants() {
    let text = fixture_source();

    // Inflated claimed rates → a rate invariant, by name.
    let tampered = text.replace("\"rate\":", "\"rate\": 0.999999,\"claimed\":");
    let value: Value = serde_json::from_str(&tampered).expect("still parses");
    let loaded = Fixture::from_json(&value).expect("still schema-valid");
    let (algo, sol) = &loaded.solutions[1];
    let violation =
        audit_solution(&loaded.net, sol).expect_err("tampered repaired rate must be rejected");
    assert!(
        violation.invariant().starts_with("rate-"),
        "{algo}: expected a rate invariant, got [{}]",
        violation.invariant()
    );

    // Dropped repaired channel → a user pair left uncovered.
    let value: Value = serde_json::from_str(&text).expect("parses");
    let loaded = Fixture::from_json(&value).expect("schema-valid");
    let mut sol = loaded.solutions[1].1.clone();
    assert!(sol.channels.len() > 1, "fixture tree has multiple channels");
    sol.channels.pop();
    let violation = audit_solution(&loaded.net, &sol).expect_err("dropped channel must be caught");
    assert!(
        matches!(violation.invariant(), "user-coverage" | "rate-eq2"),
        "got [{}]",
        violation.invariant()
    );

    // Corrupted failure kind → a named schema error, not a panic.
    let bad = text.replace("\"kind\": \"", "\"kind\": \"not-a-");
    let value: Value = serde_json::from_str(&bad).expect("parses");
    let net = NetworkSpec::paper_default().with_users(USERS).build(SEED);
    let e = failure_from_json(&net, value.get("failure").expect("failure key survives"))
        .expect_err("unknown failure kind must be rejected");
    assert!(e.to_string().contains("unknown failure kind"), "{e}");
}

/// The repair ladder over a sweep in which every rung fires: 16
/// paper-default networks with 2 qubits per switch and average degree
/// 4, each solved by Algorithm 4 and then hit by 8 seeded failures
/// applied cumulatively. Each step repairs the current solution, or
/// re-solves from scratch once the ladder has given it up. The digest
/// is a 64-bit FNV-1a hash of every step's method, tear-down count,
/// rate bits and channel edge ids, so any changed decision moves it;
/// channel-finder search counts are left out, since a cheaper cache
/// may spend fewer.
#[test]
fn ladder_sweep_digest() {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut spec = NetworkSpec::paper_default().with_qubits(2);
    spec.topology.avg_degree = 4.0;
    let methods = [
        RepairMethod::Untouched,
        RepairMethod::LocalReroute,
        RepairMethod::Reattach,
        RepairMethod::FullResolve,
        RepairMethod::Unrepairable,
    ];
    let mut census = [0usize; 5];
    for seed in 0..16 {
        let net = spec.build(seed);
        let base = PrimBased::with_seed(seed)
            .solve(&net)
            .expect("every sweep network is solvable");
        let plan = FailurePlan::random(&net, 8, 400, seed);
        let mut state = NetworkState::new(&net);
        let mut current = Some(base);
        for failure in &plan.failures {
            state.apply(&failure.kind);
            let (solution, method, torn_down) = match &current {
                Some(solution) => {
                    let out = repair(&net, solution, &state);
                    (out.solution, out.method, out.torn_down)
                }
                None => match full_resolve(&net, &state).0 {
                    Some(s) => (Some(s), RepairMethod::FullResolve, 0),
                    None => (None, RepairMethod::Unrepairable, 0),
                },
            };
            let slot = methods.iter().position(|&m| m == method).expect("listed");
            census[slot] += 1;
            feed(slot as u64);
            feed(torn_down as u64);
            let rate = solution.as_ref().map_or(0.0, |s| s.rate.value());
            feed(rate.to_bits());
            for channel in solution.iter().flat_map(|s| &s.channels) {
                feed(channel.path.edges.len() as u64);
                for e in &channel.path.edges {
                    feed(e.index() as u64);
                }
            }
            current = solution;
        }
    }
    assert!(
        census.iter().all(|&n| n > 0),
        "every rung must fire: {census:?} (untouched, local-reroute, \
         reattach, full-resolve, unrepairable)"
    );
    assert_eq!(
        format!("{census:?} {h:#018x}"),
        "[93, 17, 5, 1, 12] 0x3bef692fb61b48dc"
    );
}
