//! Survivability: fault injection, incremental tree repair, and edge
//! criticality (paper Fig. 7(b) "critical edges", made operational).
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
//!   `+∞` and repairs its runs in place as reservations move;
//! * [`criticality_report`] — ranks bridge edges by how many user
//!   pairs their failure severs, via [`qnet_graph::connectivity`].
//!
//! The simulator (`qnet-sim`) replays a [`FailurePlan`] mid-protocol,
//! and `repro churn` sweeps the whole pipeline into a survivability
//! CSV.

mod failure;
mod repair;

pub use failure::{Failure, FailureKind, FailurePlan, NetworkState};
pub use repair::{full_resolve, repair, RepairMethod, RepairOutcome};

use qnet_graph::connectivity;
use qnet_graph::{EdgeId, NodeId};

use crate::model::QuantumNetwork;

/// One ranked entry of a [`criticality_report`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CriticalEdge {
    /// The bridge edge.
    pub edge: EdgeId,
    /// Its endpoints.
    pub endpoints: (NodeId, NodeId),
    /// Fiber length in meters.
    pub length: f64,
    /// User pairs severed if this edge fails.
    pub severed_pairs: u64,
    /// User counts on the two sides of the cut, larger side first.
    pub split: (usize, usize),
}

/// Edges ranked by survivability impact on the user set.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CriticalityReport {
    /// Entries sorted by severed pairs descending (ties by edge id);
    /// only edges that actually sever at least one user pair appear.
    pub entries: Vec<CriticalEdge>,
}

impl CriticalityReport {
    /// The most critical edge, if any edge is critical at all.
    pub fn most_critical(&self) -> Option<&CriticalEdge> {
        self.entries.first()
    }

    /// `true` when no single edge failure can sever any user pair.
    pub fn is_robust(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Ranks `net`'s edges by survivability impact: only bridges can
/// disconnect anything, and a bridge's impact is the number of user
/// pairs its removal leaves in different components.
pub fn criticality_report(net: &QuantumNetwork) -> CriticalityReport {
    let entries = connectivity::criticality(net.graph(), net.users())
        .into_iter()
        .map(|c| {
            let (a, b) = net.graph().endpoints(c.edge);
            CriticalEdge {
                edge: c.edge,
                endpoints: (a, b),
                length: net.length(c.edge),
                severed_pairs: c.severed_pairs,
                split: c.split,
            }
        })
        .collect();
    CriticalityReport { entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{NodeKind, PhysicsParams};
    use qnet_graph::Graph;

    #[test]
    fn line_network_has_two_equally_critical_edges() {
        // u0 — s — u1: both fibers are bridges severing the one pair.
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let u0 = g.add_node(NodeKind::User);
        let s = g.add_node(NodeKind::Switch { qubits: 2 });
        let u1 = g.add_node(NodeKind::User);
        let e0 = g.add_edge(u0, s, 1000.0);
        let e1 = g.add_edge(s, u1, 2000.0);
        let net = QuantumNetwork::from_graph(g, PhysicsParams::paper_default());
        let report = criticality_report(&net);
        assert!(!report.is_robust());
        assert_eq!(report.entries.len(), 2);
        // Equal impact → ranked by edge id.
        assert_eq!(report.entries[0].edge, e0);
        assert_eq!(report.entries[1].edge, e1);
        for entry in &report.entries {
            assert_eq!(entry.severed_pairs, 1);
            assert_eq!(entry.split, (1, 1));
        }
        assert_eq!(report.entries[0].length, 1000.0);
        assert_eq!(report.most_critical().unwrap().edge, e0);
    }

    #[test]
    fn redundant_ring_is_robust() {
        // u0 — s — u1 — s2 — u0: a cycle, no bridges.
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let u0 = g.add_node(NodeKind::User);
        let s = g.add_node(NodeKind::Switch { qubits: 2 });
        let u1 = g.add_node(NodeKind::User);
        let s2 = g.add_node(NodeKind::Switch { qubits: 2 });
        g.add_edge(u0, s, 1000.0);
        g.add_edge(s, u1, 1000.0);
        g.add_edge(u1, s2, 1000.0);
        g.add_edge(s2, u0, 1000.0);
        let net = QuantumNetwork::from_graph(g, PhysicsParams::paper_default());
        assert!(criticality_report(&net).is_robust());
    }

    #[test]
    fn bridge_without_users_behind_it_is_not_critical() {
        // u0 — s — u1 plus a pendant switch hanging off s: the pendant
        // fiber is a bridge but severs no user pair.
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let u0 = g.add_node(NodeKind::User);
        let s = g.add_node(NodeKind::Switch { qubits: 2 });
        let u1 = g.add_node(NodeKind::User);
        let pendant = g.add_node(NodeKind::Switch { qubits: 2 });
        g.add_edge(u0, s, 1000.0);
        g.add_edge(s, u1, 1000.0);
        g.add_edge(s, pendant, 1000.0);
        let net = QuantumNetwork::from_graph(g, PhysicsParams::paper_default());
        let report = criticality_report(&net);
        assert_eq!(report.entries.len(), 2, "pendant fiber is not listed");
    }
}
