//! Solution diagnostics: what does a routed entanglement tree look like?
//!
//! The experiment harness reports a single rate per run; operators (and
//! the examples) want to see *why* — channel length profiles, which
//! switches carry the load, and where the bottleneck sits. All values
//! derive purely from a [`Solution`] plus its network.

use std::collections::HashMap;

use qnet_graph::NodeId;

use crate::model::QuantumNetwork;
use crate::rate::Rate;
use crate::solver::Solution;

/// Aggregate statistics of one solution.
#[derive(Clone, Debug, PartialEq)]
pub struct SolutionStats {
    /// Number of channels.
    pub channels: usize,
    /// Links of the shortest channel.
    pub min_links: usize,
    /// Links of the longest channel.
    pub max_links: usize,
    /// Mean links per channel.
    pub mean_links: f64,
    /// Total fiber length used (km), counting shared fibers once per
    /// channel (each channel occupies its own core).
    pub total_fiber_km: f64,
    /// The weakest channel's rate (the multiplicative bottleneck).
    pub bottleneck_rate: Rate,
    /// The user pair of the weakest channel.
    pub bottleneck_pair: Option<(NodeId, NodeId)>,
    /// Qubits consumed per switch (absent switches consume none).
    pub switch_load: HashMap<NodeId, u32>,
    /// The most loaded switch and its consumed qubits.
    pub hottest_switch: Option<(NodeId, u32)>,
    /// Fraction of total switch qubits consumed.
    pub utilization: f64,
}

/// Computes [`SolutionStats`] for a solution on its network.
pub fn solution_stats(net: &QuantumNetwork, solution: &Solution) -> SolutionStats {
    let channels = &solution.channels;
    let link_counts: Vec<usize> = channels.iter().map(|c| c.link_count()).collect();
    let total_fiber_km = channels
        .iter()
        .flat_map(|c| c.path.edges.iter())
        .map(|&e| net.length(e))
        .sum();

    let bottleneck = channels.iter().min_by_key(|c| c.rate);
    let mut switch_load: HashMap<NodeId, u32> = HashMap::new();
    for c in channels {
        for &s in c.interior_switches() {
            *switch_load.entry(s).or_insert(0) += 2;
        }
    }
    let hottest_switch = switch_load
        .iter()
        .max_by_key(|(node, load)| (**load, std::cmp::Reverse(node.index())))
        .map(|(n, l)| (*n, *l));
    let total_capacity: u64 = net.switches().map(|s| net.kind(s).qubits() as u64).sum();
    let consumed: u64 = switch_load.values().map(|&v| v as u64).sum();

    SolutionStats {
        channels: channels.len(),
        min_links: link_counts.iter().copied().min().unwrap_or(0),
        max_links: link_counts.iter().copied().max().unwrap_or(0),
        mean_links: if channels.is_empty() {
            0.0
        } else {
            link_counts.iter().sum::<usize>() as f64 / channels.len() as f64
        },
        total_fiber_km,
        bottleneck_rate: bottleneck.map_or(Rate::ONE, |c| c.rate),
        bottleneck_pair: bottleneck.map(|c| c.user_pair()),
        switch_load,
        hottest_switch,
        utilization: if total_capacity == 0 {
            0.0
        } else {
            consumed as f64 / total_capacity as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::ConflictFree;
    use crate::model::NetworkSpec;
    use crate::solver::RoutingAlgorithm;

    #[test]
    fn stats_are_internally_consistent() {
        let net = NetworkSpec::paper_default().build(40);
        let sol = ConflictFree::default().solve(&net).unwrap();
        let stats = solution_stats(&net, &sol);
        assert_eq!(stats.channels, net.user_count() - 1);
        assert!(stats.min_links >= 1);
        assert!(stats.min_links <= stats.max_links);
        assert!(stats.mean_links >= stats.min_links as f64);
        assert!(stats.mean_links <= stats.max_links as f64);
        assert!(stats.total_fiber_km > 0.0);
        assert!((0.0..=1.0).contains(&stats.utilization));
        // Bottleneck rate is ≤ every channel's rate.
        for c in &sol.channels {
            assert!(stats.bottleneck_rate <= c.rate);
        }
        // Switch load is even and within capacity.
        for (&s, &load) in &stats.switch_load {
            assert_eq!(load % 2, 0);
            assert!(load <= net.kind(s).qubits());
        }
        if let Some((hot, load)) = stats.hottest_switch {
            assert_eq!(stats.switch_load[&hot], load);
            assert!(stats.switch_load.values().all(|&v| v <= load));
        }
    }

    #[test]
    fn empty_solution_stats() {
        let net = NetworkSpec::paper_default().build(42);
        let sol = crate::solver::Solution::from_tree(crate::tree::EntanglementTree::new());
        let stats = solution_stats(&net, &sol);
        assert_eq!(stats.channels, 0);
        assert_eq!(stats.bottleneck_pair, None);
        assert_eq!(stats.hottest_switch, None);
        assert_eq!(stats.utilization, 0.0);
    }
}
