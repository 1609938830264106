//! Declarative topology specification — the serializable configuration the
//! experiment harness sweeps over.

use qnet_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::point::Point;
use crate::volchenkov::{volchenkov, VolchenkovParams};
use crate::watts_strogatz::{watts_strogatz, WattsStrogatzParams};
use crate::waxman::{waxman, WaxmanParams};

/// A spatially embedded network: node payloads are positions, edge
/// payloads are fiber lengths in area units (≈ km).
pub type SpatialGraph = Graph<Point, f64>;

/// Which random-network generation method to use (paper §V-A lists all
/// three).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// Waxman 1988 geometric random graph (the paper's default).
    Waxman,
    /// Watts–Strogatz 1998 small-world graph.
    WattsStrogatz,
    /// Volchenkov–Blanchard 2002 power-law graph.
    Volchenkov,
}

impl TopologyKind {
    /// All three kinds, in the order Fig. 5 of the paper presents them.
    pub const ALL: [TopologyKind; 3] = [
        TopologyKind::Waxman,
        TopologyKind::WattsStrogatz,
        TopologyKind::Volchenkov,
    ];

    /// Human-readable name matching the paper's figure labels.
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::Waxman => "Waxman",
            TopologyKind::WattsStrogatz => "Watts-Strogatz",
            TopologyKind::Volchenkov => "Volchenkov",
        }
    }
}

impl std::fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full topology specification: generator kind plus size parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TopologySpec {
    /// Generation method.
    pub kind: TopologyKind,
    /// Total node count (users + switches in the MUERP setting).
    pub nodes: usize,
    /// Target average degree `D` (paper default 6). The resulting edge
    /// count is exactly `⌊D·n/2⌋` for Waxman/Volchenkov and `n·(D/2)` for
    /// Watts–Strogatz (which requires an even integer `D`).
    pub avg_degree: f64,
    /// Side length of the square placement area (paper default 10 000).
    pub area: f64,
}

impl TopologySpec {
    /// The paper's default setup: Waxman, 60 nodes (50 switches + 10
    /// users), average degree 6, 10 000 × 10 000 area.
    pub fn paper_default() -> Self {
        TopologySpec {
            kind: TopologyKind::Waxman,
            nodes: 60,
            avg_degree: 6.0,
            area: 10_000.0,
        }
    }

    /// Candidate strictly smaller specs for counterexample shrinking,
    /// ordered most aggressive first (halve the node count, then step it
    /// down, then lower the average degree).
    ///
    /// Every candidate stays generator-valid: at least `min_nodes` nodes,
    /// average degree at least 2 and — because Watts–Strogatz requires an
    /// even integer degree — reduced in steps of 2 from an even starting
    /// point. Returns an empty vector when the spec is already minimal.
    pub fn shrink_candidates(&self, min_nodes: usize) -> Vec<TopologySpec> {
        let min_nodes = min_nodes.max(4);
        let mut out = Vec::new();
        let mut push_nodes = |nodes: usize| {
            if nodes < self.nodes && nodes >= min_nodes {
                out.push(TopologySpec { nodes, ..*self });
            }
        };
        push_nodes(self.nodes / 2);
        push_nodes(self.nodes.saturating_sub(4));
        push_nodes(self.nodes.saturating_sub(1));
        // Lower the wiring density: fewer edges often preserves a failure
        // while making the counterexample easier to read.
        let degree = self.avg_degree - 2.0;
        if degree >= 2.0 && (degree as usize) < self.nodes {
            out.push(TopologySpec {
                avg_degree: degree,
                ..*self
            });
        }
        out
    }

    /// Generates a connected network from this spec, deterministically for
    /// a given `seed`.
    ///
    /// # Panics
    ///
    /// Panics on degenerate sizes (see the individual generators) or, for
    /// Watts–Strogatz, when `avg_degree` is not an even integer.
    pub fn generate(&self, seed: u64) -> SpatialGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        match self.kind {
            TopologyKind::Waxman => waxman(
                self.nodes,
                self.avg_degree,
                self.area,
                WaxmanParams::default(),
                &mut rng,
            ),
            TopologyKind::WattsStrogatz => {
                let k = self.avg_degree as usize;
                assert!(
                    (self.avg_degree - k as f64).abs() < 1e-9,
                    "Watts-Strogatz requires an integer average degree, got {}",
                    self.avg_degree
                );
                watts_strogatz(
                    self.nodes,
                    k,
                    self.area,
                    WattsStrogatzParams::default(),
                    &mut rng,
                )
            }
            TopologyKind::Volchenkov => volchenkov(
                self.nodes,
                self.avg_degree,
                self.area,
                VolchenkovParams::default(),
                &mut rng,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnet_graph::connectivity::is_connected;

    #[test]
    fn all_kinds_generate_connected_graphs() {
        for kind in TopologyKind::ALL {
            let spec = TopologySpec {
                kind,
                ..TopologySpec::paper_default()
            };
            let g = spec.generate(1234);
            assert_eq!(g.node_count(), 60, "{kind}");
            assert!(is_connected(&g), "{kind}");
            assert_eq!(g.edge_count(), 180, "{kind}");
        }
    }

    #[test]
    fn same_seed_same_graph_different_seed_differs() {
        let spec = TopologySpec::paper_default();
        let a = spec.generate(5);
        let b = spec.generate(5);
        let c = spec.generate(6);
        let ea: Vec<_> = a.edge_refs().map(|e| (e.a, e.b)).collect();
        let eb: Vec<_> = b.edge_refs().map(|e| (e.a, e.b)).collect();
        let ec: Vec<_> = c.edge_refs().map(|e| (e.a, e.b)).collect();
        assert_eq!(ea, eb);
        assert_ne!(ea, ec);
    }

    #[test]
    fn display_names_match_paper_labels() {
        assert_eq!(TopologyKind::Waxman.to_string(), "Waxman");
        assert_eq!(TopologyKind::WattsStrogatz.to_string(), "Watts-Strogatz");
        assert_eq!(TopologyKind::Volchenkov.to_string(), "Volchenkov");
    }

    #[test]
    fn shrink_candidates_are_smaller_and_generator_valid() {
        for kind in TopologyKind::ALL {
            let spec = TopologySpec {
                kind,
                ..TopologySpec::paper_default()
            };
            let candidates = spec.shrink_candidates(8);
            assert!(!candidates.is_empty(), "{kind}: paper default must shrink");
            for c in &candidates {
                assert!(
                    c.nodes < spec.nodes || c.avg_degree < spec.avg_degree,
                    "{kind}: candidate {c:?} is not smaller"
                );
                assert!(c.nodes >= 8);
                assert!(c.avg_degree >= 2.0);
                // Every candidate must actually generate.
                let g = c.generate(99);
                assert_eq!(g.node_count(), c.nodes, "{kind}");
            }
        }
    }

    #[test]
    fn shrink_stops_at_the_floor() {
        let spec = TopologySpec {
            kind: TopologyKind::Waxman,
            nodes: 8,
            avg_degree: 2.0,
            area: 10_000.0,
        };
        assert!(spec.shrink_candidates(8).is_empty());
    }
}
