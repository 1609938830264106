//! Concurrent routing of multiple independent entanglement groups — the
//! paper's second named extension (§II-D: "concurrent routing of multiple
//! independent entanglement groups").
//!
//! Several disjoint user sets want to be internally entangled at the same
//! time, sharing the switches' qubits. Two strategies:
//!
//! * [`GroupStrategy::Sequential`] — groups are routed one after another
//!   in priority order (earlier groups see more capacity).
//! * [`GroupStrategy::RoundRobin`] — groups grow their trees one channel
//!   at a time in turn, sharing capacity more evenly (a fairness knob).
//!
//! Both grow each group's tree Prim-style (Algorithm 4) over the shared
//! [`CapacityMap`]; members of *any* group are users and therefore never
//! relay foreign channels.

use qnet_graph::NodeId;

use crate::algorithms::{attach, best_cross_channel, ChannelFinderCache};
use crate::channel::CapacityMap;
use crate::error::RoutingError;
use crate::model::QuantumNetwork;
use crate::rate::Rate;
use crate::tree::EntanglementTree;

/// Scheduling strategy across groups.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GroupStrategy {
    /// Route groups one at a time, in the given order.
    #[default]
    Sequential,
    /// Interleave: each round, every unfinished group adds one channel.
    RoundRobin,
}

/// The result for one group.
#[derive(Clone, Debug)]
pub struct GroupOutcome {
    /// The group's members, as passed in.
    pub members: Vec<NodeId>,
    /// The routed tree, or the error that stopped it (scored rate 0).
    pub tree: Result<EntanglementTree, RoutingError>,
}

impl GroupOutcome {
    /// The group's entanglement rate ([`Rate::ZERO`] on failure).
    pub fn rate(&self) -> Rate {
        self.tree.as_ref().map_or(Rate::ZERO, |t| t.rate())
    }
}

/// Per-group Prim state.
struct GroupState {
    members: Vec<NodeId>,
    in_tree: Vec<bool>, // indexed by graph node id
    tree: EntanglementTree,
    failed: Option<RoutingError>,
}

impl GroupState {
    fn new(net: &QuantumNetwork, members: &[NodeId]) -> Self {
        let mut in_tree = vec![false; net.graph().node_count()];
        in_tree[members[0].index()] = true;
        GroupState {
            members: members.to_vec(),
            in_tree,
            tree: EntanglementTree::new(),
            failed: None,
        }
    }

    fn done(&self) -> bool {
        self.failed.is_some() || self.tree.channels.len() + 1 == self.members.len()
    }

    /// Adds the best cross channel for this group on shared capacity;
    /// marks the group failed when none exists.
    fn grow_once(&mut self, capacity: &mut CapacityMap, cache: &mut ChannelFinderCache<'_>) {
        debug_assert!(!self.done());
        match best_cross_channel(cache, capacity, &self.members, &self.in_tree) {
            Some(c) => attach(c, capacity, &mut self.in_tree, &mut self.tree),
            None => {
                let stranded = self
                    .members
                    .iter()
                    .copied()
                    .find(|u| !self.in_tree[u.index()])
                    .expect("grow_once called on an unfinished group");
                self.failed = Some(RoutingError::NoFeasibleChannel {
                    a: self.members[0],
                    b: stranded,
                });
            }
        }
    }
}

/// Routes several disjoint entanglement groups over shared switch
/// capacity.
///
/// Every node in any group must be a [`crate::model::NodeKind::User`] of
/// `net`; groups must be pairwise disjoint and have ≥ 2 members.
///
/// # Panics
///
/// Panics when groups overlap, are empty/singleton, or contain
/// non-users.
///
/// # Example
///
/// ```
/// use muerp_core::prelude::*;
/// use muerp_core::extensions::{route_groups, GroupStrategy};
///
/// let net = NetworkSpec::paper_default().build(11);
/// let users = net.users();
/// let groups = [users[..5].to_vec(), users[5..].to_vec()];
/// let outcomes = route_groups(&net, &groups, GroupStrategy::Sequential);
/// assert_eq!(outcomes.len(), 2);
/// ```
pub fn route_groups(
    net: &QuantumNetwork,
    groups: &[Vec<NodeId>],
    strategy: GroupStrategy,
) -> Vec<GroupOutcome> {
    let mut seen = std::collections::HashSet::new();
    for g in groups {
        assert!(g.len() >= 2, "every group needs at least 2 members");
        for &u in g {
            assert!(net.is_user(u), "group member {u} is not a user");
            assert!(seen.insert(u), "groups must be disjoint, {u} repeats");
        }
    }

    let mut capacity = CapacityMap::new(net);
    let mut states: Vec<GroupState> = groups.iter().map(|g| GroupState::new(net, g)).collect();
    // Shared across groups: capacity only changes on reservations, so
    // interleaved (round-robin) growth still reuses runs within a round.
    let mut cache = ChannelFinderCache::new(net);

    match strategy {
        GroupStrategy::Sequential => {
            for st in &mut states {
                while !st.done() {
                    st.grow_once(&mut capacity, &mut cache);
                }
            }
        }
        GroupStrategy::RoundRobin => loop {
            let mut progressed = false;
            for st in &mut states {
                if !st.done() {
                    st.grow_once(&mut capacity, &mut cache);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        },
    }

    states
        .into_iter()
        .map(|st| GroupOutcome {
            members: st.members,
            tree: match st.failed {
                Some(e) => Err(e),
                None => Ok(st.tree),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{NetworkSpec, NodeKind, PhysicsParams, QuantumNetwork};

    fn split_groups(net: &QuantumNetwork) -> [Vec<NodeId>; 2] {
        let users = net.users();
        [users[..5].to_vec(), users[5..].to_vec()]
    }

    #[test]
    fn sequential_routes_both_groups_when_capacity_allows() {
        let mut spec = NetworkSpec::paper_default();
        spec.qubits_per_switch = 20;
        let net = spec.build(1);
        let groups = split_groups(&net);
        let out = route_groups(&net, &groups, GroupStrategy::Sequential);
        assert_eq!(out.len(), 2);
        for (i, o) in out.iter().enumerate() {
            let tree = o.tree.as_ref().unwrap_or_else(|e| panic!("group {i}: {e}"));
            assert_eq!(tree.channels.len(), o.members.len() - 1);
            assert!(o.rate().value() > 0.0);
        }
    }

    #[test]
    fn group_trees_span_their_members_only() {
        let mut spec = NetworkSpec::paper_default();
        spec.qubits_per_switch = 20;
        let net = spec.build(2);
        let groups = split_groups(&net);
        let out = route_groups(&net, &groups, GroupStrategy::Sequential);
        for (o, g) in out.iter().zip(&groups) {
            if let Ok(tree) = &o.tree {
                let members: std::collections::HashSet<_> = g.iter().copied().collect();
                for c in &tree.channels {
                    assert!(members.contains(&c.source()));
                    assert!(members.contains(&c.destination()));
                    // Foreign users never relay.
                    for &mid in c.interior_switches() {
                        assert!(net.kind(mid).is_switch());
                    }
                }
            }
        }
    }

    #[test]
    fn shared_capacity_is_never_exceeded() {
        let net = NetworkSpec::paper_default().build(3); // tight: Q = 4
        let groups = split_groups(&net);
        for strategy in [GroupStrategy::Sequential, GroupStrategy::RoundRobin] {
            let out = route_groups(&net, &groups, strategy);
            let mut demand = std::collections::HashMap::new();
            for o in &out {
                if let Ok(tree) = &o.tree {
                    for (s, d) in tree.qubit_demand() {
                        *demand.entry(s).or_insert(0u32) += d;
                    }
                }
            }
            for (s, d) in demand {
                assert!(
                    d <= net.kind(s).qubits(),
                    "{strategy:?}: switch {s} over capacity"
                );
            }
        }
    }

    #[test]
    fn sequential_favors_the_first_group() {
        // Under tight capacity the first group should do at least as well
        // as it would in any fair schedule; specifically its rate under
        // Sequential ≥ its rate under RoundRobin (statistically; assert
        // over several seeds to avoid flakiness).
        let mut first_seq_better = 0;
        let mut comparisons = 0;
        for seed in 0..8 {
            let net = NetworkSpec::paper_default().build(seed);
            let groups = split_groups(&net);
            let seq = route_groups(&net, &groups, GroupStrategy::Sequential);
            let rr = route_groups(&net, &groups, GroupStrategy::RoundRobin);
            comparisons += 1;
            if seq[0].rate() >= rr[0].rate() {
                first_seq_better += 1;
            }
        }
        assert!(
            first_seq_better * 2 >= comparisons,
            "sequential first-group advantage violated: {first_seq_better}/{comparisons}"
        );
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_groups_rejected() {
        let net = NetworkSpec::paper_default().build(4);
        let users = net.users();
        let groups = [users[..5].to_vec(), users[4..].to_vec()];
        route_groups(&net, &groups, GroupStrategy::Sequential);
    }

    #[test]
    #[should_panic(expected = "not a user")]
    fn non_user_member_rejected() {
        let net = NetworkSpec::paper_default().build(5);
        let a_switch = net.switches().next().unwrap();
        let users = net.users();
        let groups = [vec![users[0], a_switch]];
        route_groups(&net, &groups, GroupStrategy::Sequential);
    }

    #[test]
    fn single_group_equals_prim() {
        use crate::algorithms::PrimBased;
        use crate::solver::RoutingAlgorithm;
        let net = NetworkSpec::paper_default().build(6);
        let groups = [net.users().to_vec()];
        let out = route_groups(&net, &groups, GroupStrategy::Sequential);
        let prim = PrimBased::default().solve(&net);
        match (&out[0].tree, prim) {
            (Ok(t), Ok(p)) => {
                assert!((t.rate().value() - p.rate.value()).abs() < 1e-12)
            }
            (Err(_), Err(_)) => {}
            other => panic!("disagreement: {other:?}"),
        }
    }

    #[test]
    fn failed_group_scores_zero() {
        // Two groups on a bottleneck: second group starves.
        use qnet_graph::Graph;
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let a1 = g.add_node(NodeKind::User);
        let a2 = g.add_node(NodeKind::User);
        let b1 = g.add_node(NodeKind::User);
        let b2 = g.add_node(NodeKind::User);
        let hub = g.add_node(NodeKind::Switch { qubits: 2 });
        for &u in &[a1, a2, b1, b2] {
            g.add_edge(u, hub, 500.0);
        }
        let net = QuantumNetwork::from_graph(g, PhysicsParams::paper_default());
        let groups = [vec![a1, a2], vec![b1, b2]];
        let out = route_groups(&net, &groups, GroupStrategy::Sequential);
        assert!(out[0].tree.is_ok());
        assert!(out[1].tree.is_err());
        assert_eq!(out[1].rate(), Rate::ZERO);
    }
}
