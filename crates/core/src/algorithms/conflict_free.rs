//! **Algorithm 3** — the conflict-free heuristic (paper §IV-C).
//!
//! Takes Algorithm 2's (capacity-oblivious) optimal tree and repairs the
//! switch-capacity conflicts:
//!
//! 1. Admit Algorithm 2's channels in descending rate order, reserving 2
//!    qubits per interior switch; channels that no longer fit are dropped
//!    (their users stay in separate unions).
//! 2. While users remain in different unions, compute the maximum-rate
//!    channel on *residual* capacity between every cross-union user pair,
//!    admit the globally best one, merge the unions; fail (rate 0) when
//!    no cross-union channel exists.
//!
//! Both decision points use the greedy max-rate policy the paper
//! motivates: keep the channels with the maximum entanglement rate, and
//! reconnect unions with the maximum-rate channels.

use qnet_graph::UnionFind;

use crate::channel::{CapacityMap, Channel};
use crate::error::RoutingError;
use crate::model::QuantumNetwork;
use crate::solver::{RoutingAlgorithm, Solution};
use crate::tree::EntanglementTree;

use super::channel_finder::ChannelFinderCache;
use super::optimal::OptimalSufficient;

/// The paper's **Algorithm 3**.
///
/// # Example
///
/// ```
/// use muerp_core::prelude::*;
///
/// let net = NetworkSpec::paper_default().build(3); // Q = 4: conflicts likely
/// match ConflictFree::default().solve(&net) {
///     Ok(sol) => {
///         validate_solution(&net, &sol)?; // never violates capacity
///     }
///     Err(e) => println!("infeasible: {e}"), // scored as rate 0
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConflictFree {
    /// Which of the conflicting channels phase 1 prefers to keep.
    pub retention: RetentionPolicy,
}

/// Phase-1 admission order when channels contend for switch qubits.
///
/// The paper adopts the greedy max-rate policy; the alternative exists
/// for the ablation study (a channel through fewer switches frees more
/// capacity for later channels, trading individual rate for feasibility).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RetentionPolicy {
    /// Keep channels in descending entanglement-rate order (the paper's
    /// choice).
    #[default]
    MaxRateFirst,
    /// Keep channels using the fewest interior switches first, breaking
    /// ties by rate.
    FewestSwitchesFirst,
}

impl RoutingAlgorithm for ConflictFree {
    fn name(&self) -> &'static str {
        "Alg-3"
    }

    fn solve(&self, net: &QuantumNetwork) -> Result<Solution, RoutingError> {
        let _span = qnet_obs::span!("core.conflict_free.solve");
        qnet_obs::counter!("core.conflict_free.solves");
        // Phase 0: Algorithm 2's unconstrained optimal tree, already in
        // descending rate order by construction; order per policy.
        let base = OptimalSufficient.solve(net)?;
        let mut seed_channels = base.channels;
        match self.retention {
            RetentionPolicy::MaxRateFirst => {
                seed_channels.sort_by_key(|c| std::cmp::Reverse(c.rate));
            }
            RetentionPolicy::FewestSwitchesFirst => {
                seed_channels.sort_by(|a, b| {
                    a.interior_switches()
                        .len()
                        .cmp(&b.interior_switches().len())
                        .then_with(|| b.rate.cmp(&a.rate))
                });
            }
        }

        let mut capacity = CapacityMap::new(net);
        let mut uf = UnionFind::new(net.graph().node_count());
        let mut tree = EntanglementTree::new();

        // Phase 1: keep whatever fits, in descending rate order.
        {
            let _phase1 = qnet_obs::span!("core.conflict_free.admit");
            for c in seed_channels {
                let admitted = capacity.admits(&c);
                if qnet_obs::trace_enabled() {
                    qnet_obs::record_event(qnet_obs::TraceEvent::Admission {
                        algo: "alg3",
                        accepted: admitted,
                        rate: c.rate.value(),
                        epoch: capacity.epoch(),
                    });
                }
                if admitted {
                    capacity.reserve(&c);
                    let merged = uf.union_nodes(c.source(), c.destination());
                    debug_assert!(merged, "Algorithm 2's tree is acyclic");
                    qnet_obs::counter!("core.conflict_free.admitted");
                    tree.push(c);
                } else {
                    qnet_obs::counter!("core.channel.rejected", reason = "qubit_capacity");
                    qnet_obs::counter!("core.conflict_free.dropped");
                }
            }
        }

        // Phase 2: reconnect the unions greedily on residual capacity.
        let _phase2 = qnet_obs::span!("core.conflict_free.reconnect");
        let users = net.users();
        // Sources repeat across reconnection rounds; the cache re-runs a
        // source only after a reservation changed capacity.
        let mut cache = ChannelFinderCache::new(net);
        let mut round = 0u32;
        while !all_connected(&mut uf, users) {
            round += 1;
            qnet_obs::counter!("core.conflict_free.reconnections");
            // Batch-refresh all user sources before the pairwise scan
            // (which then hits on every lookup).
            cache.warm(&capacity, users);
            let mut best: Option<Channel> = None;
            for (i, &src) in users.iter().enumerate() {
                // One Algorithm-1 run per source covers all destinations.
                let finder = cache.finder(&capacity, src);
                for &dst in &users[i + 1..] {
                    if uf.same_set_nodes(src, dst) {
                        continue;
                    }
                    if let Some(c) = finder.channel_to(dst) {
                        if best.as_ref().is_none_or(|b| c.rate > b.rate) {
                            best = Some(c);
                        }
                    }
                }
            }
            let Some(c) = best else {
                let (a, b) = first_split_pair(&mut uf, users);
                return Err(RoutingError::NoFeasibleChannel { a, b });
            };
            if qnet_obs::trace_enabled() {
                qnet_obs::record_event(qnet_obs::TraceEvent::TreeStep {
                    algo: "alg3",
                    round,
                    source: c.source().index() as u32,
                    destination: c.destination().index() as u32,
                    rate: c.rate.value(),
                    epoch: capacity.epoch(),
                });
            }
            capacity.reserve(&c);
            uf.union_nodes(c.source(), c.destination());
            tree.push(c);
        }

        Ok(Solution::from_tree(tree))
    }
}

fn all_connected(uf: &mut UnionFind, users: &[qnet_graph::NodeId]) -> bool {
    uf.all_same_set(users.iter().map(|u| u.index()))
}

fn first_split_pair(
    uf: &mut UnionFind,
    users: &[qnet_graph::NodeId],
) -> (qnet_graph::NodeId, qnet_graph::NodeId) {
    let root = uf.find_node(users[0]);
    let other = users
        .iter()
        .copied()
        .find(|&u| uf.find_node(u) != root)
        .expect("called only when users are split");
    (users[0], other)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{NetworkSpec, NodeKind, PhysicsParams, QuantumNetwork};
    use crate::solver::validate_solution;
    use qnet_graph::{Graph, NodeId};

    #[test]
    fn never_violates_capacity_on_paper_default() {
        for seed in 0..10 {
            let net = NetworkSpec::paper_default().build(seed);
            if let Ok(sol) = ConflictFree::default().solve(&net) {
                validate_solution(&net, &sol)
                    .unwrap_or_else(|e| panic!("seed {seed}: invalid solution: {e}"));
            }
        }
    }

    /// The paper's Fig. 4: three users, one central 2-qubit switch, plus a
    /// long detour. Phase 1 can keep only one central channel; phase 2
    /// must route the other user around the detour.
    fn fig4_with_detour() -> (QuantumNetwork, [NodeId; 5]) {
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let alice = g.add_node(NodeKind::User);
        let bob = g.add_node(NodeKind::User);
        let carol = g.add_node(NodeKind::User);
        let hub = g.add_node(NodeKind::Switch { qubits: 2 });
        let detour = g.add_node(NodeKind::Switch { qubits: 2 });
        g.add_edge(alice, hub, 1000.0);
        g.add_edge(bob, hub, 1000.0);
        g.add_edge(carol, hub, 1000.0);
        g.add_edge(alice, detour, 3000.0);
        g.add_edge(detour, carol, 3000.0);
        (
            QuantumNetwork::from_graph(g, PhysicsParams::paper_default()),
            [alice, bob, carol, hub, detour],
        )
    }

    #[test]
    fn reconnects_via_detour_when_hub_is_full() {
        let (net, [_alice, _bob, _carol, hub, detour]) = fig4_with_detour();
        let sol = ConflictFree::default().solve(&net).unwrap();
        assert_eq!(sol.channels.len(), 2);
        validate_solution(&net, &sol).unwrap();
        // One channel through the hub, one through the detour.
        let interiors: Vec<_> = sol
            .channels
            .iter()
            .flat_map(|c| c.interior_switches().iter().copied())
            .collect();
        assert!(interiors.contains(&hub));
        assert!(interiors.contains(&detour));
    }

    #[test]
    fn fails_cleanly_when_capacity_cannot_span() {
        // Same Fig. 4 topology but NO detour: the 2-qubit hub can host
        // one channel, the third user is stranded → rate 0.
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let alice = g.add_node(NodeKind::User);
        let bob = g.add_node(NodeKind::User);
        let carol = g.add_node(NodeKind::User);
        let hub = g.add_node(NodeKind::Switch { qubits: 2 });
        g.add_edge(alice, hub, 1000.0);
        g.add_edge(bob, hub, 1000.0);
        g.add_edge(carol, hub, 1000.0);
        let net = QuantumNetwork::from_graph(g, PhysicsParams::paper_default());
        assert!(matches!(
            ConflictFree::default().solve(&net),
            Err(RoutingError::NoFeasibleChannel { .. })
        ));
    }

    #[test]
    fn agrees_with_alg2_when_capacity_sufficient() {
        let mut spec = NetworkSpec::paper_default();
        spec.qubits_per_switch = 2 * spec.users as u32;
        for seed in 0..5 {
            let net = spec.build(seed);
            let a2 = OptimalSufficient.solve(&net).unwrap();
            let a3 = ConflictFree::default().solve(&net).unwrap();
            assert!(
                (a2.rate.value() - a3.rate.value()).abs() <= 1e-12 * a2.rate.value(),
                "seed {seed}: alg3 {} vs alg2 {}",
                a3.rate,
                a2.rate
            );
        }
    }

    #[test]
    fn never_beats_alg2_unconstrained_bound() {
        // Algorithm 2 without capacity interaction is an upper bound on
        // any feasible tree's rate.
        for seed in 0..10 {
            let net = NetworkSpec::paper_default().build(seed);
            let bound = OptimalSufficient.solve(&net).map(|s| s.rate);
            if let (Ok(sol), Ok(bound)) = (ConflictFree::default().solve(&net), bound) {
                assert!(
                    sol.rate.value() <= bound.value() * (1.0 + 1e-9),
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn deterministic() {
        let net = NetworkSpec::paper_default().build(8);
        assert_eq!(
            ConflictFree::default().solve(&net),
            ConflictFree::default().solve(&net)
        );
    }
}
