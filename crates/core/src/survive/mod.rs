//! Survivability: fault injection and incremental tree repair.
//!
//! The paper observes that MUERP performance under random fiber
//! removal "is mainly affected by some critical edges in the network
//! structure" — an entanglement tree is a *tree*, so a single bridge
//! failure can sever the whole user group. This module turns that
//! observation into a subsystem:
//!
//! * [`FailurePlan`] — a deterministic, seeded schedule of faults
//!   (link cuts, switch deaths, qubit-capacity degradation) over
//!   protocol slots;
//! * [`NetworkState`] — the accumulated degraded network: a
//!   [`qnet_graph::SearchMask`] of dead elements plus lost qubits,
//!   never mutating the original network so ids stay comparable;
//! * [`repair`] — the incremental repair ladder (local re-route →
//!   subtree re-attachment → full re-solve), every output audited. Its
//!   rungs search one
//!   [`ChannelFinderCache::degraded`](crate::algorithms::ChannelFinderCache::degraded),
//!   which prices every dead fiber and every fiber of a dead switch at
//!   `+∞` and repairs its runs in place as reservations move.
//!
//! The simulator (`qnet-sim`) replays a [`FailurePlan`] mid-protocol,
//! and `repro churn` sweeps the whole pipeline into a survivability
//! CSV.

mod failure;
mod repair;

pub use failure::{Failure, FailureKind, FailurePlan, NetworkState};
pub use repair::{full_resolve, repair, RepairMethod, RepairOutcome};
