//! k-best quantum channels between a user pair.
//!
//! Algorithm 1 returns *the* maximum-rate channel; the local-search
//! extension ([`super::local_search`]) needs ranked alternatives so a
//! capacity conflict can be resolved by "second-best here, best there".
//! This is Yen's algorithm under the MUERP edge cost and relay filter.

use qnet_graph::ksp::k_shortest_paths_in;
use qnet_graph::paths::DijkstraWorkspace;
use qnet_graph::NodeId;

use super::algorithm1_config;
use crate::channel::{CapacityMap, Channel};
use crate::model::QuantumNetwork;

/// The `k` highest-rate channels between users `a` and `b` under the
/// residual `capacity`, sorted by rate descending. Fewer are returned
/// when fewer admissible simple channels exist. Every spur search of the
/// underlying Yen run reuses the caller's workspace.
pub fn k_best_channels_in(
    ws: &mut DijkstraWorkspace,
    net: &QuantumNetwork,
    capacity: &CapacityMap,
    a: NodeId,
    b: NodeId,
    k: usize,
) -> Vec<Channel> {
    if net.physics().swap_success <= 0.0 {
        // Only a direct fiber can work; delegate to the single-channel
        // finder which handles this degenerate case.
        return super::channel_finder::max_rate_channel(net, capacity, a, b)
            .into_iter()
            .collect();
    }
    let cfg = algorithm1_config(net, capacity);
    let channels: Vec<Channel> = k_shortest_paths_in(ws, net.graph(), a, b, k, &cfg)
        .into_iter()
        .map(|p| Channel::from_path(net, p))
        .collect();
    if qnet_obs::trace_enabled() {
        let epoch = capacity.epoch();
        if channels.is_empty() {
            qnet_obs::record_event(qnet_obs::TraceEvent::Candidate {
                source: a.index() as u32,
                destination: b.index() as u32,
                accepted: false,
                reason: "disconnected",
                cost: 0.0,
                epoch,
            });
        }
        for channel in &channels {
            qnet_obs::record_event(qnet_obs::TraceEvent::Candidate {
                source: a.index() as u32,
                destination: b.index() as u32,
                accepted: true,
                reason: "ksp",
                cost: channel.rate.value(),
                epoch,
            });
        }
    }
    channels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::max_rate_channel;
    use crate::model::{NetworkSpec, NodeKind, PhysicsParams};
    use qnet_graph::Graph;

    fn k_best_channels(
        net: &QuantumNetwork,
        cap: &CapacityMap,
        a: NodeId,
        b: NodeId,
        k: usize,
    ) -> Vec<Channel> {
        k_best_channels_in(&mut DijkstraWorkspace::new(), net, cap, a, b, k)
    }

    #[test]
    fn first_of_k_matches_algorithm_1() {
        let net = NetworkSpec::paper_default().build(77);
        let cap = CapacityMap::new(&net);
        let users = net.users();
        for &dst in &users[1..4] {
            let best = max_rate_channel(&net, &cap, users[0], dst);
            let top = k_best_channels(&net, &cap, users[0], dst, 3);
            match (best, top.first()) {
                (Some(a), Some(b)) => {
                    assert!((a.rate.value() - b.rate.value()).abs() < 1e-12)
                }
                (None, None) => {}
                other => panic!("disagreement: {other:?}"),
            }
        }
    }

    #[test]
    fn channels_are_sorted_and_valid() {
        let net = NetworkSpec::paper_default().build(78);
        let cap = CapacityMap::new(&net);
        let users = net.users();
        let channels = k_best_channels(&net, &cap, users[0], users[1], 5);
        for w in channels.windows(2) {
            assert!(w[0].rate >= w[1].rate);
        }
        for c in &channels {
            c.validate(&net).unwrap();
        }
    }

    #[test]
    fn enumerates_both_routes_of_a_diamond() {
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let a = g.add_node(NodeKind::User);
        let s1 = g.add_node(NodeKind::Switch { qubits: 2 });
        let s2 = g.add_node(NodeKind::Switch { qubits: 2 });
        let b = g.add_node(NodeKind::User);
        g.add_edge(a, s1, 500.0);
        g.add_edge(s1, b, 500.0);
        g.add_edge(a, s2, 800.0);
        g.add_edge(s2, b, 800.0);
        let net = QuantumNetwork::from_graph(g, PhysicsParams::paper_default());
        let cap = CapacityMap::new(&net);
        let channels = k_best_channels(&net, &cap, a, b, 5);
        assert_eq!(channels.len(), 2);
        assert_eq!(channels[0].interior_switches(), &[s1]);
        assert_eq!(channels[1].interior_switches(), &[s2]);
    }

    #[test]
    fn exhausted_switches_disappear_from_alternatives() {
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let a = g.add_node(NodeKind::User);
        let s1 = g.add_node(NodeKind::Switch { qubits: 2 });
        let s2 = g.add_node(NodeKind::Switch { qubits: 2 });
        let b = g.add_node(NodeKind::User);
        g.add_edge(a, s1, 500.0);
        g.add_edge(s1, b, 500.0);
        g.add_edge(a, s2, 800.0);
        g.add_edge(s2, b, 800.0);
        let net = QuantumNetwork::from_graph(g, PhysicsParams::paper_default());
        let mut cap = CapacityMap::new(&net);
        let channels = k_best_channels(&net, &cap, a, b, 5);
        cap.reserve(&channels[0]); // exhaust s1
        let remaining = k_best_channels(&net, &cap, a, b, 5);
        assert_eq!(remaining.len(), 1);
        assert_eq!(remaining[0].interior_switches(), &[s2]);
    }
}
