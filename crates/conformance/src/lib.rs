//! # qnet-conformance — cross-algorithm conformance harness
//!
//! The MUERP paper's evaluation (Figs. 5–7) assumes every routing
//! algorithm returns a *feasible* entanglement structure with a rate
//! that obeys Eq. 1/Eq. 2. This crate makes that assumption checkable,
//! continuously, against every algorithm in the suite:
//!
//! * [`churn`] — the survivability oracle: one seeded failure per
//!   trial pushed through the repair ladder, checked audit-clean,
//!   degraded-valid, rate-bounded (do-nothing ≤ repair ≤ exhaustive
//!   degraded optimum), and deterministic.
//! * [`delta`] — the incremental-routing oracle: seeded capacity delta
//!   sequences through the channel-finder cache, every step
//!   cross-checked bitwise against a cold cache-free recomputation,
//!   failing sequences shrunk to a minimal delta script.
//! * [`differential`] — runs the five suite algorithms plus the
//!   extension solvers, audits every solution with the independent
//!   [`muerp_core::audit::SolutionAudit`], and compares heuristics
//!   against the exhaustive brute-force optimum on small instances
//!   (heuristic rate ≤ optimal) and against each other's dominance
//!   relations (refined ≥ base, best-of-all seeds ≥ one seed,
//!   capacity-granted Alg-2 ≥ any real-capacity tree).
//! * [`metamorphic`] — properties that must hold without knowing the
//!   right answer: granting a switch more qubits never lowers the rate,
//!   scaling every fiber length by `c` is observationally identical to
//!   scaling the attenuation `α` by `c` (Eq. 1 depends only on the
//!   products `α·Lᵢ`), and relabeling vertices leaves rates invariant.
//! * [`fixture`] — JSON fixtures of solved networks (hand-rolled
//!   [`serde_json::Value`] schema, stable across the hermetic build) so
//!   validator semantics cannot drift silently.
//! * [`fuzz`] — the deterministic seeded fuzz driver behind
//!   `repro fuzz --budget <n>`: sweeps random topology specs through
//!   generate→solve→audit, records failing seeds, and shrinks them to a
//!   minimal counterexample before reporting.
//! * [`serve`] — the batched-admission oracle: seeded request scripts
//!   through the `muerp-serve` engine and the sequential cold-routing
//!   FCFS reference, every decision compared, admitted solutions
//!   re-audited, failing scripts shrunk to a minimal admission script.
//! * [`shrink`] — the generic greedy sequence shrinker the delta and
//!   serve oracles share.
//! * [`bridge`] — the one routing→simulator conversion
//!   ([`bridge::solution_to_plan`], [`bridge::physics_of`]) that lets the
//!   Monte-Carlo simulator execute a solution; `muerp::bridge` re-exports
//!   it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bridge;
pub mod churn;
pub mod delta;
pub mod differential;
pub mod fixture;
pub mod fuzz;
pub mod metamorphic;
pub mod serve;
pub mod shrink;

pub use churn::{churn_check, derive_failure, failure_from_json, failure_to_json, ChurnReport};
pub use delta::{delta_check, delta_check_ops, derive_delta_ops, shrink_ops, DeltaOp};
pub use differential::{differential_check, run_suite, ConformanceError, DifferentialReport};
pub use fixture::{Fixture, FixtureError};
pub use fuzz::{run_fuzz, shrink_spec, FuzzConfig, FuzzFailure, FuzzOutcome};
pub use metamorphic::{
    check_qubit_monotonicity, check_relabeling_invariance, check_scaling_equivalence,
    check_scaling_law, MetamorphicFailure,
};
pub use serve::{derive_requests, serve_check, serve_check_requests, shrink_requests};
pub use shrink::greedy_shrink;
