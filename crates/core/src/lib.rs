//! # muerp-core — Multi-user Entanglement Routing over Quantum Internets
//!
//! A from-scratch reproduction of the system described in *"Multi-user
//! Entanglement Routing Design over Quantum Internets"* (IEEE ICDCS 2024).
//!
//! The **Multi-user Entanglement Routing Problem (MUERP)**: given a quantum
//! network of users `U` and capacity-limited switches `R` connected by
//! optical fibers, route *quantum channels* (vertex-capacitated paths) that
//! form an *entanglement tree* spanning all users, maximizing the
//! entanglement rate
//!
//! ```text
//! P_Λ = q^(l−1) · exp(−α · Σ Lᵢ)      (one channel, paper Eq. 1)
//! P   = Π_Λ P_Λ                        (the tree, paper Eq. 2)
//! ```
//!
//! ## Layout
//!
//! * [`model`] — the quantum-network instance: node kinds, switch
//!   capacities, physics parameters (`q`, `α`).
//! * [`rate`] — the [`rate::Rate`] type: probabilities handled in the
//!   log domain so products of hundreds of factors stay exact.
//! * [`channel`] — quantum channels (Eq. 1), capacity bookkeeping.
//! * [`tree`] — entanglement trees (Eq. 2) and full solution validation.
//! * [`algorithms`] — the paper's four algorithms plus the two baselines:
//!   * [`algorithms::max_rate_channel`] — **Algorithm 1**
//!   * [`algorithms::OptimalSufficient`] — **Algorithm 2** (optimal when
//!     every switch has `Q ≥ 2·|U|` qubits)
//!   * [`algorithms::ConflictFree`] — **Algorithm 3**
//!   * [`algorithms::PrimBased`] — **Algorithm 4**
//!   * [`algorithms::baselines::EQCast`] — extended Q-CAST
//!   * [`algorithms::baselines::NFusion`] — n-fusion star (MP-P style)
//! * [`audit`] — the independent [`audit::SolutionAudit`]: every MUERP
//!   invariant re-derived from raw fiber lengths, with named-invariant
//!   violations (the conformance harness's ground truth).
//! * [`feasibility`] — an exhaustive optimal oracle for tiny instances
//!   (the NP-hardness means no general polynomial oracle exists).
//! * [`extensions`] — the paper's two named extensions: fidelity-aware
//!   routing and concurrent multi-group routing.
//! * [`survive`] — survivability: seeded fault injection
//!   ([`survive::FailurePlan`]) and the incremental repair ladder
//!   ([`survive::repair`]).
//!
//! ## Quickstart
//!
//! ```
//! use muerp_core::prelude::*;
//!
//! // The paper's default setup: 50 switches, 10 users, Waxman topology,
//! // average degree 6, 4 qubits per switch, q = 0.9, α = 1e-4.
//! let net = NetworkSpec::paper_default().build(42);
//! let solution = PrimBased::default().solve(&net)?;
//! assert!(solution.rate.value() > 0.0);
//! validate_solution(&net, &solution)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod analysis;
pub mod audit;
pub mod channel;
pub mod error;
pub mod extensions;
pub mod feasibility;
pub mod model;
pub mod rate;
pub mod solver;
pub mod survive;
pub mod tree;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::algorithms::baselines::{EQCast, NFusion};
    pub use crate::algorithms::{ConflictFree, OptimalSufficient, PrimBased};
    pub use crate::audit::{audit_solution, AuditReport, AuditViolation, SolutionAudit};
    pub use crate::channel::{CapacityMap, Channel};
    pub use crate::error::RoutingError;
    pub use crate::model::{NetworkSpec, NodeKind, PhysicsParams, QuantumNetwork};
    pub use crate::rate::Rate;
    pub use crate::solver::{validate_solution, RoutingAlgorithm, Solution, SolutionStyle};
    pub use crate::survive::{
        full_resolve, repair, Failure, FailureKind, FailurePlan, NetworkState, RepairMethod,
        RepairOutcome,
    };
    pub use crate::tree::EntanglementTree;
}
