//! **Algorithm 2** — optimal routing under the sufficient condition
//! `Q_r ≥ 2·|U|` for every switch `r` (paper §IV-B, Theorem 3).
//!
//! Two steps:
//!
//! 1. Find the maximum-rate channel for every user pair (one Algorithm-1
//!    run per source user — the paper's own complexity optimization).
//! 2. Sort all channels by rate descending and select greedily with a
//!    union-find, exactly like Kruskal's algorithm on the "user graph"
//!    whose edge weights are channel rates.
//!
//! Under the sufficient condition the channels never contend for qubits
//! (any switch can host all `≤ |U|·(|U|−1)/2 ≤ |U|` tree channels… more
//! precisely, all `|U| − 1` selected channels need at most `2·(|U|−1) <
//! 2·|U|` qubits even if they all cross one switch), so the Kruskal
//! exchange argument of Theorem 3 gives optimality. Without the
//! condition the output may violate capacity — that is Algorithm 3's
//! starting point, and the experiments of Fig. 8(a) always grant
//! Algorithm 2 switches with `2·|U|` qubits.

use crate::channel::{CapacityMap, Channel};
use crate::error::RoutingError;
use crate::model::QuantumNetwork;
use crate::solver::{RoutingAlgorithm, Solution};
use crate::tree::EntanglementTree;
use qnet_graph::UnionFind;

use super::channel_finder::ChannelFinder;

/// All-pairs maximum-rate channels among the users, sorted by rate
/// descending (ties broken by user-pair id for determinism).
///
/// Channels are computed against the *static* capacity map (a switch must
/// merely own ≥ 2 qubits to appear as a relay); nothing is reserved.
pub fn all_pairs_best_channels(net: &QuantumNetwork, capacity: &CapacityMap) -> Vec<Channel> {
    let _span = qnet_obs::span!("core.optimal.all_pairs");
    let users = net.users();
    let mut channels = Vec::with_capacity(users.len() * (users.len().saturating_sub(1)) / 2);
    // Every source runs exactly once (capacity is static here), so a
    // shared workspace is all the reuse available.
    let mut ws = qnet_graph::DijkstraWorkspace::with_capacity(net.graph().node_count());
    for (i, &src) in users.iter().enumerate() {
        let finder = ChannelFinder::from_source_in(&mut ws, net, capacity, src);
        for &dst in &users[i + 1..] {
            if let Some(c) = finder.channel_to(dst) {
                channels.push(c);
            }
        }
    }
    channels.sort_by(|a, b| {
        b.rate
            .cmp(&a.rate)
            .then_with(|| a.user_pair().cmp(&b.user_pair()))
    });
    channels
}

/// The paper's **Algorithm 2**.
///
/// Produces the optimal entanglement tree whenever every switch satisfies
/// `Q ≥ 2·|U|`; in general it ignores capacity *interaction* between
/// channels (each channel alone is feasible, their union may not be).
///
/// # Example
///
/// ```
/// use muerp_core::prelude::*;
///
/// let mut spec = NetworkSpec::paper_default();
/// spec.qubits_per_switch = 2 * spec.users as u32; // sufficient condition
/// let net = spec.build(5);
/// let sol = OptimalSufficient.solve(&net)?;
/// validate_solution(&net, &sol)?; // optimal AND capacity-clean
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptimalSufficient;

impl RoutingAlgorithm for OptimalSufficient {
    fn name(&self) -> &'static str {
        "Alg-2"
    }

    fn solve(&self, net: &QuantumNetwork) -> Result<Solution, RoutingError> {
        let _span = qnet_obs::span!("core.optimal.solve");
        qnet_obs::counter!("core.optimal.solves");
        if net.user_count() < 2 {
            return Err(RoutingError::TooFewUsers {
                got: net.user_count(),
            });
        }
        let capacity = CapacityMap::new(net);
        let channels = all_pairs_best_channels(net, &capacity);

        let mut uf = UnionFind::new(net.graph().node_count());
        let mut tree = EntanglementTree::new();
        for c in channels {
            if uf.union_nodes(c.source(), c.destination()) {
                tree.push(c);
                if tree.channels.len() + 1 == net.user_count() {
                    break;
                }
            }
        }
        if tree.channels.len() + 1 != net.user_count() {
            // Some users unreachable even without capacity contention.
            let users = net.users();
            let root = uf.find_node(users[0]);
            let stranded = users
                .iter()
                .copied()
                .find(|&u| uf.find_node(u) != root)
                .expect("tree incomplete implies a stranded user");
            return Err(RoutingError::NoFeasibleChannel {
                a: users[0],
                b: stranded,
            });
        }
        Ok(Solution::from_tree(tree))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{NetworkSpec, NodeKind, PhysicsParams};
    use qnet_graph::Graph;

    fn sufficient_net(seed: u64) -> QuantumNetwork {
        let mut spec = NetworkSpec::paper_default();
        spec.qubits_per_switch = 2 * spec.users as u32;
        spec.build(seed)
    }

    #[test]
    fn produces_spanning_tree_with_correct_count() {
        let net = sufficient_net(1);
        let sol = OptimalSufficient.solve(&net).unwrap();
        assert_eq!(sol.channels.len(), net.user_count() - 1);
        assert!(crate::solver::validate_solution(&net, &sol).is_ok());
    }

    #[test]
    fn all_pairs_channels_are_sorted_descending() {
        let net = sufficient_net(2);
        let cap = CapacityMap::new(&net);
        let channels = all_pairs_best_channels(&net, &cap);
        for w in channels.windows(2) {
            assert!(w[0].rate >= w[1].rate);
        }
        // Complete user graph: all pairs present in a connected network.
        let n = net.user_count();
        assert_eq!(channels.len(), n * (n - 1) / 2);
    }

    #[test]
    fn tree_uses_the_maximum_rate_channel() {
        // Kruskal always takes the globally best channel first.
        let net = sufficient_net(3);
        let cap = CapacityMap::new(&net);
        let best = all_pairs_best_channels(&net, &cap)
            .into_iter()
            .next()
            .unwrap();
        let sol = OptimalSufficient.solve(&net).unwrap();
        assert!(sol
            .channels
            .iter()
            .any(|c| c.user_pair() == best.user_pair()));
    }

    #[test]
    fn optimality_by_exchange_on_line_instance() {
        // Users u0, u1, u2 in a line of switches; the unique optimal tree
        // is {u0–u1, u1–u2}; a naive star at u0 would be worse.
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let u0 = g.add_node(NodeKind::User);
        let s0 = g.add_node(NodeKind::Switch { qubits: 20 });
        let u1 = g.add_node(NodeKind::User);
        let s1 = g.add_node(NodeKind::Switch { qubits: 20 });
        let u2 = g.add_node(NodeKind::User);
        g.add_edge(u0, s0, 1000.0);
        g.add_edge(s0, u1, 1000.0);
        g.add_edge(u1, s1, 1000.0);
        g.add_edge(s1, u2, 1000.0);
        let net = QuantumNetwork::from_graph(g, PhysicsParams::paper_default());
        let sol = OptimalSufficient.solve(&net).unwrap();
        let pairs: Vec<_> = sol.channels.iter().map(|c| c.user_pair()).collect();
        assert!(pairs.contains(&(u0, u1)));
        assert!(pairs.contains(&(u1, u2)));
        // Rate = (p²q)² with p = e^{-0.1}, q = 0.9.
        let p = (-0.1f64).exp();
        let expected = (p * p * 0.9f64).powi(2);
        assert!((sol.rate.value() - expected).abs() < 1e-12);
        let _ = (s0, s1);
    }

    #[test]
    fn disconnected_users_error() {
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let u0 = g.add_node(NodeKind::User);
        let u1 = g.add_node(NodeKind::User);
        let u2 = g.add_node(NodeKind::User);
        g.add_edge(u0, u1, 100.0);
        // u2 isolated.
        let net = QuantumNetwork::from_graph(g, PhysicsParams::paper_default());
        let err = OptimalSufficient.solve(&net).unwrap_err();
        assert!(matches!(err, RoutingError::NoFeasibleChannel { b, .. } if b == u2));
    }

    #[test]
    fn single_user_error() {
        let mut g: Graph<NodeKind, f64> = Graph::new();
        g.add_node(NodeKind::User);
        let net = QuantumNetwork::from_graph(g, PhysicsParams::paper_default());
        assert_eq!(
            OptimalSufficient.solve(&net).unwrap_err(),
            RoutingError::TooFewUsers { got: 1 }
        );
    }

    #[test]
    fn deterministic() {
        let net = sufficient_net(4);
        let a = OptimalSufficient.solve(&net).unwrap();
        let b = OptimalSufficient.solve(&net).unwrap();
        assert_eq!(a, b);
    }
}
