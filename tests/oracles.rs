//! The conformance oracles at small fixed budgets, so the default test
//! run guards the search kernel, the delta cache and the batched
//! admission engine — not only the facade.
//!
//! Each arm runs `run_fuzz` with the seed its CI smoke job uses:
//!
//! | arm     | seed | what every trial checks                                     |
//! |---------|------|-------------------------------------------------------------|
//! | plain   | 2024 | generate → solve → independent audit → differential oracles |
//! | `churn` | 2025 | one injected failure, then the repair-ladder invariants     |
//! | `delta` | 2026 | finder cache ≡ cold recomputation after every delta         |
//! | `serve` | 2027 | batched admission ≡ the sequential FCFS oracle, decision by decision |
//!
//! Budget: in a debug build on a 2-core Intel Xeon, `cargo test -q
//! --test oracles` takes 10 s wall (18 s with `--test-threads=1`). A
//! failure prints the shrunk counterexample JSON that `repro fuzz`
//! would write.

use muerp::conformance::{run_fuzz, FuzzConfig};

fn assert_clean(config: FuzzConfig) {
    let outcome = run_fuzz(config);
    assert_eq!(outcome.trials, config.budget, "{config:?}: trials skipped");
    assert!(
        outcome.is_clean(),
        "{config:?} found a counterexample:\n{}",
        serde_json::to_string_pretty(&outcome.to_json()).expect("report serializes")
    );
}

#[test]
fn plain_fuzz_audits_clean() {
    assert_clean(FuzzConfig {
        budget: 16,
        base_seed: 2024,
        ..FuzzConfig::default()
    });
}

#[test]
fn churn_fuzz_keeps_the_repair_invariants() {
    assert_clean(FuzzConfig {
        budget: 30,
        base_seed: 2025,
        churn: true,
        ..FuzzConfig::default()
    });
}

#[test]
fn delta_fuzz_matches_cold_recomputation() {
    assert_clean(FuzzConfig {
        budget: 16,
        base_seed: 2026,
        delta: true,
        ..FuzzConfig::default()
    });
}

#[test]
fn serve_fuzz_matches_the_sequential_oracle() {
    assert_clean(FuzzConfig {
        budget: 12,
        base_seed: 2027,
        serve: true,
        ..FuzzConfig::default()
    });
}
