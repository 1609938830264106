//! Deterministic seeded fuzzing: random topology specs swept through
//! generate → solve → audit, with counterexample shrinking.
//!
//! Every trial is a pure function of `(base_seed, trial index)`: the
//! trial seed derives both a random [`NetworkSpec`] from the
//! paper-default family (generator kind, node count, degree, user
//! count, per-switch qubits) and the generated instance itself, so a
//! failing seed printed by CI reproduces exactly on any machine.
//!
//! A failing trial is **shrunk** before reporting: the driver greedily
//! retries strictly smaller specs — fewer nodes
//! ([`TopologySpec::shrink_candidates`]), fewer users, fewer qubits,
//! lower degree — keeping any candidate on which the same check still
//! fails, until no smaller spec reproduces the failure. The minimal
//! counterexample (plus the full solved-network fixture) is what lands
//! in the report.

use muerp_core::model::{NetworkSpec, PhysicsParams};
use qnet_topology::{TopologyKind, TopologySpec};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};
use serde_json::{Map, Value};

use crate::churn::churn_check;
use crate::delta::delta_check;
use crate::differential::{differential_check, ConformanceError};
use crate::serve::serve_check;

/// Configuration of a fuzz run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Number of trials to run.
    pub budget: usize,
    /// Base seed; trial `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Also run the churn oracle per trial: inject one seeded failure,
    /// repair it, and check the repair invariants (`repro fuzz
    /// --churn`).
    pub churn: bool,
    /// Also run the delta oracle per trial: push a seeded capacity
    /// delta sequence through the channel-finder cache and
    /// cross-check every step against a cold recomputation (`repro
    /// fuzz --delta`).
    pub delta: bool,
    /// Also run the serve oracle per trial: feed a seeded request
    /// script to the batched admission engine and the sequential FCFS
    /// reference and compare every decision (`repro fuzz --serve`).
    pub serve: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            budget: 100,
            base_seed: 0,
            churn: false,
            delta: false,
            serve: false,
        }
    }
}

/// One reproducible fuzz case: a spec plus the seed that generated it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FuzzCase {
    /// The instance specification.
    pub spec: NetworkSpec,
    /// Seed for both topology generation and the randomized algorithms.
    pub seed: u64,
    /// `true` when the trial also exercises failure injection + repair.
    pub churn: bool,
    /// `true` when the trial also exercises the delta-cache oracle.
    pub delta: bool,
    /// `true` when the trial also exercises the batched-admission
    /// oracle.
    pub serve: bool,
}

impl FuzzCase {
    /// Runs the conformance check this driver fuzzes: the differential
    /// oracle, plus the churn oracle when [`FuzzCase::churn`] is set
    /// and the delta oracle when [`FuzzCase::delta`] is set.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConformanceError`] found on the generated
    /// instance.
    pub fn check(&self) -> Result<(), ConformanceError> {
        let net = self.spec.build(self.seed);
        differential_check(&net, self.seed)?;
        if self.churn {
            churn_check(&net, self.seed)?;
        }
        if self.delta {
            delta_check(&net, self.seed)?;
        }
        if self.serve {
            serve_check(&net, self.seed)?;
        }
        Ok(())
    }

    /// Serializes the case for counterexample reports.
    pub fn to_json(&self) -> Value {
        let mut out = Map::new();
        out.insert("seed".into(), Value::from(self.seed));
        out.insert(
            "topology".into(),
            Value::from(self.spec.topology.kind.name()),
        );
        out.insert("nodes".into(), Value::from(self.spec.topology.nodes));
        out.insert(
            "avg_degree".into(),
            Value::from(self.spec.topology.avg_degree),
        );
        out.insert("area".into(), Value::from(self.spec.topology.area));
        out.insert("users".into(), Value::from(self.spec.users));
        out.insert(
            "qubits_per_switch".into(),
            Value::from(self.spec.qubits_per_switch),
        );
        out.insert("churn".into(), Value::from(self.churn));
        out.insert("delta".into(), Value::from(self.delta));
        out.insert("serve".into(), Value::from(self.serve));
        Value::Object(out)
    }
}

/// A shrunk, reproducible conformance failure.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// The case as originally drawn.
    pub original: FuzzCase,
    /// The minimal case that still fails (== `original` when no smaller
    /// spec reproduces it).
    pub shrunk: FuzzCase,
    /// The error on the *shrunk* case.
    pub error: ConformanceError,
    /// Number of successful shrink steps taken.
    pub shrink_steps: usize,
}

impl FuzzFailure {
    /// The named invariant, when the failure is an audit violation.
    pub fn invariant(&self) -> Option<&'static str> {
        match &self.error {
            ConformanceError::Audit { violation, .. } => Some(violation.invariant()),
            _ => None,
        }
    }

    /// Serializes the failure as a counterexample report.
    pub fn to_json(&self) -> Value {
        let mut out = Map::new();
        out.insert("original".into(), self.original.to_json());
        out.insert("shrunk".into(), self.shrunk.to_json());
        out.insert("shrink_steps".into(), Value::from(self.shrink_steps));
        out.insert("error".into(), Value::from(self.error.to_string()));
        out.insert(
            "invariant".into(),
            self.invariant().map_or(Value::Null, Value::from),
        );
        Value::Object(out)
    }
}

/// Result of a fuzz run.
#[derive(Clone, Debug, Default)]
pub struct FuzzOutcome {
    /// Trials executed.
    pub trials: usize,
    /// Shrunk failures, in discovery order.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzOutcome {
    /// `true` when no trial failed.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Serializes the whole outcome (CI uploads this as an artifact on
    /// failure).
    pub fn to_json(&self) -> Value {
        let mut out = Map::new();
        out.insert("trials".into(), Value::from(self.trials));
        out.insert(
            "failures".into(),
            Value::Array(self.failures.iter().map(FuzzFailure::to_json).collect()),
        );
        Value::Object(out)
    }
}

/// Smallest spec the shrinker will propose.
const MIN_NODES: usize = 8;
const MIN_USERS: usize = 3;

/// Draws trial `i`'s case from the paper-default family: one of the
/// three §V-A generators, 12–60 nodes, degree 4 or 6, 3–10 users,
/// 2–6 qubits per switch, paper physics.
pub fn derive_case(base_seed: u64, trial: u64) -> FuzzCase {
    let seed = base_seed.wrapping_add(trial);
    // Decorrelate the spec choice from the topology seed.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0f0_23c7_a11d_a7e5);
    let kind = *TopologyKind::ALL.choose(&mut rng).expect("non-empty");
    let nodes = rng.random_range(12..=60usize);
    let avg_degree = *[4.0, 6.0].choose(&mut rng).expect("non-empty");
    let users = rng.random_range(MIN_USERS..=(nodes / 4).clamp(MIN_USERS, 10));
    let qubits_per_switch = *[2u32, 3, 4, 6].choose(&mut rng).expect("non-empty");
    FuzzCase {
        spec: NetworkSpec {
            topology: TopologySpec {
                kind,
                nodes,
                avg_degree,
                area: 10_000.0,
            },
            users,
            qubits_per_switch,
            physics: PhysicsParams::paper_default(),
        },
        seed,
        churn: false,
        delta: false,
        serve: false,
    }
}

/// Strictly smaller candidate specs for shrinking, most aggressive
/// first: topology shrinks ([`TopologySpec::shrink_candidates`]), then
/// one user fewer, then one qubit fewer per switch.
pub fn shrink_spec(spec: &NetworkSpec) -> Vec<NetworkSpec> {
    let mut out: Vec<NetworkSpec> = spec
        .topology
        .shrink_candidates(MIN_NODES)
        .into_iter()
        .filter(|t| t.nodes > spec.users)
        .map(|topology| NetworkSpec { topology, ..*spec })
        .collect();
    if spec.users > MIN_USERS {
        out.push(NetworkSpec {
            users: spec.users - 1,
            ..*spec
        });
    }
    if spec.qubits_per_switch > 2 {
        out.push(NetworkSpec {
            qubits_per_switch: spec.qubits_per_switch - 1,
            ..*spec
        });
    }
    out
}

/// Greedily shrinks a failing case: accepts the first strictly smaller
/// candidate on which [`FuzzCase::check`] still fails, and repeats until
/// none does. Returns the minimal case, its error, and the number of
/// accepted steps.
pub fn shrink_failure(
    failing: FuzzCase,
    error: ConformanceError,
) -> (FuzzCase, ConformanceError, usize) {
    let mut current = failing;
    let mut current_error = error;
    let mut steps = 0;
    'outer: loop {
        for candidate_spec in shrink_spec(&current.spec) {
            let candidate = FuzzCase {
                spec: candidate_spec,
                seed: current.seed,
                churn: current.churn,
                delta: current.delta,
                serve: current.serve,
            };
            if let Err(e) = run_case(candidate) {
                current = candidate;
                current_error = e;
                steps += 1;
                continue 'outer;
            }
        }
        return (current, current_error, steps);
    }
}

/// Runs one case, converting a panic anywhere in generate/solve/audit
/// into a conformance error so the seed is never lost.
fn run_case(case: FuzzCase) -> Result<(), ConformanceError> {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case.check()));
    match outcome {
        Ok(result) => result,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("opaque panic");
            Err(ConformanceError::Panicked {
                message: msg.to_string(),
            })
        }
    }
}

/// Runs a full fuzz sweep: `budget` cases drawn from the paper-default
/// family, each checked by the differential oracle, failures shrunk to
/// minimal counterexamples.
pub fn run_fuzz(config: FuzzConfig) -> FuzzOutcome {
    // Panics inside a trial are captured into the failure report; keep
    // the default hook from spamming stderr with expected backtraces.
    let prior_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut outcome = FuzzOutcome::default();
    for trial in 0..config.budget {
        let mut case = derive_case(config.base_seed, trial as u64);
        case.churn = config.churn;
        case.delta = config.delta;
        case.serve = config.serve;
        outcome.trials += 1;
        if let Err(error) = run_case(case) {
            let (shrunk, error, shrink_steps) = shrink_failure(case, error);
            outcome.failures.push(FuzzFailure {
                original: case,
                shrunk,
                error,
                shrink_steps,
            });
        }
    }
    std::panic::set_hook(prior_hook);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic_and_in_family() {
        for trial in 0..40 {
            let a = derive_case(7, trial);
            let b = derive_case(7, trial);
            assert_eq!(a, b);
            assert!((12..=60).contains(&a.spec.topology.nodes));
            assert!((MIN_USERS..=10).contains(&a.spec.users));
            assert!(a.spec.users <= a.spec.topology.nodes / 4 || a.spec.users == MIN_USERS);
            assert!((2..=6).contains(&a.spec.qubits_per_switch));
            // Every drawn spec must actually generate a valid instance.
            let net = a.spec.build(a.seed);
            assert_eq!(net.user_count(), a.spec.users);
        }
    }

    #[test]
    fn small_budget_run_is_clean() {
        let outcome = run_fuzz(FuzzConfig {
            budget: 12,
            base_seed: 2024,
            churn: false,
            delta: false,
            serve: false,
        });
        assert_eq!(outcome.trials, 12);
        assert!(
            outcome.is_clean(),
            "unexpected failures: {:?}",
            outcome.failures
        );
    }

    #[test]
    fn small_churn_budget_run_is_clean() {
        let outcome = run_fuzz(FuzzConfig {
            budget: 6,
            base_seed: 2025,
            churn: true,
            delta: false,
            serve: false,
        });
        assert_eq!(outcome.trials, 6);
        assert!(
            outcome.is_clean(),
            "unexpected churn failures: {:?}",
            outcome.failures
        );
    }

    #[test]
    fn small_delta_budget_run_is_clean() {
        let outcome = run_fuzz(FuzzConfig {
            budget: 6,
            base_seed: 2026,
            churn: false,
            delta: true,
            serve: false,
        });
        assert_eq!(outcome.trials, 6);
        assert!(
            outcome.is_clean(),
            "unexpected delta failures: {:?}",
            outcome.failures
        );
    }

    #[test]
    fn small_serve_budget_run_is_clean() {
        let outcome = run_fuzz(FuzzConfig {
            budget: 4,
            base_seed: 2027,
            churn: false,
            delta: false,
            serve: true,
        });
        assert_eq!(outcome.trials, 4);
        assert!(
            outcome.is_clean(),
            "unexpected serve failures: {:?}",
            outcome.failures
        );
    }

    #[test]
    fn shrink_candidates_are_strictly_smaller_and_buildable() {
        let case = derive_case(3, 0);
        for candidate in shrink_spec(&case.spec) {
            let smaller = candidate.topology.nodes < case.spec.topology.nodes
                || candidate.topology.avg_degree < case.spec.topology.avg_degree
                || candidate.users < case.spec.users
                || candidate.qubits_per_switch < case.spec.qubits_per_switch;
            assert!(smaller, "{candidate:?} is not smaller than {:?}", case.spec);
            let net = candidate.build(case.seed);
            assert_eq!(net.user_count(), candidate.users);
        }
    }

    #[test]
    fn outcome_json_shape_is_stable() {
        let outcome = run_fuzz(FuzzConfig {
            budget: 2,
            base_seed: 5,
            churn: false,
            delta: false,
            serve: false,
        });
        let json = outcome.to_json();
        assert_eq!(json.get("trials").and_then(Value::as_u64), Some(2));
        assert!(json.get("failures").and_then(Value::as_array).is_some());
        let case_json = derive_case(5, 0).to_json();
        for key in [
            "seed",
            "topology",
            "nodes",
            "avg_degree",
            "area",
            "users",
            "qubits_per_switch",
            "churn",
            "delta",
            "serve",
        ] {
            assert!(case_json.get(key).is_some(), "missing {key}");
        }
    }
}
