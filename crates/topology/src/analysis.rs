//! Structural statistics over generated topologies.
//!
//! The experiment harness uses these to sanity-check generated networks
//! (degree targets, edge-length profiles) and the Fig. 7(b) analysis uses
//! [`critical_edge_ratio`] to quantify how much of the network hangs on
//! bridges.

use qnet_graph::connectivity::bridges;

use crate::spec::SpatialGraph;

/// Summary statistics of one generated network.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TopologyStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of edges.
    pub edges: usize,
    /// Average node degree.
    pub avg_degree: f64,
    /// Maximum node degree.
    pub max_degree: usize,
    /// Minimum node degree.
    pub min_degree: usize,
    /// Mean fiber length over all edges.
    pub mean_edge_length: f64,
    /// Longest single fiber.
    pub max_edge_length: f64,
    /// Fraction of edges that are bridges ("critical edges").
    pub bridge_ratio: f64,
}

/// Computes [`TopologyStats`] for a network.
pub fn stats(g: &SpatialGraph) -> TopologyStats {
    let nodes = g.node_count();
    let edges = g.edge_count();
    let degrees: Vec<usize> = g.node_ids().map(|v| g.degree(v)).collect();
    let lengths: Vec<f64> = g.edge_refs().map(|e| *e.payload).collect();
    TopologyStats {
        nodes,
        edges,
        avg_degree: g.average_degree(),
        max_degree: degrees.iter().copied().max().unwrap_or(0),
        min_degree: degrees.iter().copied().min().unwrap_or(0),
        mean_edge_length: if edges == 0 {
            0.0
        } else {
            lengths.iter().sum::<f64>() / edges as f64
        },
        max_edge_length: lengths.iter().copied().fold(0.0, f64::max),
        bridge_ratio: critical_edge_ratio(g),
    }
}

/// Fraction of edges whose removal disconnects the network — the
/// "critical edges" the paper's Fig. 7(b) discussion identifies as the
/// dominant factor in entanglement-rate degradation.
pub fn critical_edge_ratio(g: &SpatialGraph) -> f64 {
    if g.edge_count() == 0 {
        return 0.0;
    }
    bridges(g).len() as f64 / g.edge_count() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TopologySpec;

    #[test]
    fn stats_consistency() {
        let g = TopologySpec::paper_default().generate(77);
        let s = stats(&g);
        assert_eq!(s.nodes, 60);
        assert_eq!(s.edges, 180);
        assert!((s.avg_degree - 6.0).abs() < 1e-9);
        assert!(s.min_degree <= 6 && s.max_degree >= 6);
        assert!(s.mean_edge_length > 0.0);
        assert!(s.max_edge_length >= s.mean_edge_length);
        assert!((0.0..=1.0).contains(&s.bridge_ratio));
    }

    #[test]
    fn empty_graph_stats() {
        let g: SpatialGraph = qnet_graph::Graph::new();
        let s = stats(&g);
        assert_eq!(s.nodes, 0);
        assert_eq!(s.mean_edge_length, 0.0);
        assert_eq!(critical_edge_ratio(&g), 0.0);
    }
}
