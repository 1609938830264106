//! # qnet-sim — time-slotted Monte-Carlo quantum-network simulator
//!
//! The MUERP paper evaluates routing *analytically*: a channel of `l`
//! links succeeds with probability `q^(l−1)·exp(−α·ΣL)` (Eq. 1) and a
//! tree succeeds when all channels do (Eq. 2). This crate implements the
//! physical layer those formulas abstract — heralded link-level Bell-pair
//! generation, BSM entanglement swapping at switches, n-fusion GHZ
//! measurements — and *simulates the protocol mechanically*, so the
//! analytic rates can be validated instead of assumed:
//!
//! 1. each time slot, every quantum link of the plan attempts heralded
//!    entanglement (success `exp(−α·L)`), placing Bell pairs between
//!    neighboring nodes' qubits ([`link`]);
//! 2. each interior switch measures its two qubits per channel (BSM,
//!    success `q`), splicing the two Bell pairs into one and freeing its
//!    qubits ([`bsm`], [`entangle`]);
//! 3. for fusion plans, the center performs one n-qubit GHZ projective
//!    measurement ([`fusion`]);
//! 4. the slot *succeeds* when the entanglement registry — not a formula —
//!    shows all users in one entangled group ([`engine`]).
//!
//! [`metrics`] provides Wilson confidence intervals so tests can assert
//! `MC estimate ≈ Eq. 2` rigorously; [`fidelity`] gives the Werner-state
//! fidelity of swap chains and purification rounds.
//!
//! # Example
//!
//! ```
//! use qnet_sim::plan::{ChannelSpec, RoutingPlan};
//! use qnet_sim::engine::{Simulator, SimPhysics};
//!
//! // One channel: user 0 — switch 1 — user 2, both fibers 1000 km.
//! let plan = RoutingPlan::tree(vec![ChannelSpec::new(
//!     vec![0, 1, 2],
//!     vec![1000.0, 1000.0],
//!     &[false, true, false], // switch flags per node
//! )]);
//! let physics = SimPhysics { swap_success: 0.9, attenuation: 1e-4, fusion_success: None };
//! let stats = Simulator::new(plan, physics, 42).run_slots(20_000);
//! let analytic = 0.9 * (-0.2f64).exp();
//! assert!(stats.estimate().wilson_interval(4.0).contains(analytic));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bsm;
pub mod buffered;
pub mod churn;
pub mod engine;
pub mod entangle;
pub mod fidelity;
pub mod fusion;
pub mod link;
pub mod metrics;
pub mod plan;
pub mod qubit;
pub mod trace;

pub use churn::{ChurnStats, FailureEvent, PlanFix};
pub use engine::{SimPhysics, Simulator, SlotStats};
pub use metrics::RateEstimate;
pub use plan::{ChannelSpec, RoutingPlan};
