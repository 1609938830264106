//! The paper's two named extensions (§II-D, §VII): fidelity-aware
//! entanglement routing and concurrent routing of multiple independent
//! entanglement groups — plus purification-aware routing and online
//! sessions: the shared admission loop and session ledger
//! ([`admission`]) and the streaming workload ([`stream`]) built on it.

pub mod admission;
pub mod fidelity;
pub mod multi_group;
pub mod purified;
pub mod stream;

/// Former name of [`route_group`], kept because the `servebench`
/// harness calls it.
pub use admission::route_group as route_group_cached;
pub use admission::{free_qubit_total, route_group, Sessions};
pub use fidelity::{werner_swap_fidelity, FidelityAwarePrim, FidelityModel};
pub use multi_group::{route_groups, GroupOutcome, GroupStrategy};
pub use purified::{purification_plan, PurificationPlan, PurifiedPrim};
pub use stream::{
    simulate_stream, Request, RequestStream, SloClass, StreamConfig, StreamDriver, StreamOutcome,
    StreamStats,
};
