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

    /// Checks the generators' preconditions: at least two nodes, a finite
    /// positive area, and an average degree `D` the kind can realize. For
    /// Waxman and Volchenkov, `D` is finite, non-negative, and asks for at
    /// most as many edges (`⌊D·n/2⌋`) as there are node pairs; for
    /// Watts–Strogatz, `n ≥ 3` and `D` is an even integer below `n`.
    pub fn check(&self) -> Result<(), String> {
        let (n, d) = (self.nodes, self.avg_degree);
        if n < 2 {
            return Err(format!("need at least two nodes, got {n}"));
        }
        if !(self.area.is_finite() && self.area > 0.0) {
            return Err(format!(
                "area must be finite and positive, got {}",
                self.area
            ));
        }
        match self.kind {
            TopologyKind::Waxman | TopologyKind::Volchenkov => {
                if !(d.is_finite() && d >= 0.0) {
                    return Err(format!(
                        "average degree must be finite and non-negative, got {d}"
                    ));
                }
                let edges = ((d * n as f64) / 2.0).floor() as usize;
                let pairs = n as u128 * (n as u128 - 1) / 2;
                if edges as u128 > pairs {
                    return Err(format!(
                        "average degree {d} asks for {edges} edges, but {n} nodes have only \
                         {pairs} pairs"
                    ));
                }
            }
            TopologyKind::WattsStrogatz => {
                if n < 3 {
                    return Err(format!(
                        "Watts-Strogatz needs at least three nodes, got {n}"
                    ));
                }
                let k = d as usize;
                let even = d.is_finite() && (d - k as f64).abs() < 1e-9 && k.is_multiple_of(2);
                if !(even && k < n) {
                    return Err(format!(
                        "Watts-Strogatz needs an even integer average degree below the node \
                         count {n}, got {d}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Generates a connected network from this spec, deterministically for
    /// a given `seed`.
    ///
    /// # Panics
    ///
    /// Panics when [`TopologySpec::check`] fails.
    pub fn generate(&self, seed: u64) -> SpatialGraph {
        if let Err(why) = self.check() {
            panic!("invalid topology spec: {why}");
        }
        let mut rng = StdRng::seed_from_u64(seed);
        match self.kind {
            TopologyKind::Waxman => waxman(
                self.nodes,
                self.avg_degree,
                self.area,
                WaxmanParams::default(),
                &mut rng,
            ),
            TopologyKind::WattsStrogatz => watts_strogatz(
                self.nodes,
                self.avg_degree as usize,
                self.area,
                WattsStrogatzParams::default(),
                &mut rng,
            ),
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
    fn check_states_each_generator_precondition() {
        use TopologyKind::{Volchenkov, WattsStrogatz, Waxman};
        let spec = |kind, nodes, avg_degree, area| TopologySpec {
            kind,
            nodes,
            avg_degree,
            area,
        };
        for ok in [
            spec(Waxman, 2, 1.0, 1.0),
            spec(Volchenkov, 60, 59.0, 10.0),
            spec(Waxman, 60, 0.0, 10.0),
            spec(WattsStrogatz, 3, 2.0, 10.0),
            spec(WattsStrogatz, 60, 6.0, 10_000.0),
        ] {
            assert_eq!(ok.check(), Ok(()), "{ok:?}");
            assert_eq!(ok.generate(1).node_count(), ok.nodes, "{ok:?}");
        }
        for (bad, why) in [
            (spec(Waxman, 1, 6.0, 10.0), "at least two nodes"),
            (spec(Waxman, 60, 6.0, 0.0), "area"),
            (spec(Waxman, 60, 6.0, f64::INFINITY), "area"),
            (spec(Waxman, 60, f64::NAN, 10.0), "finite and non-negative"),
            (spec(Volchenkov, 60, -2.0, 10.0), "finite and non-negative"),
            (spec(Waxman, 60, 100.0, 10.0), "3000 edges"),
            (spec(WattsStrogatz, 2, 0.0, 10.0), "at least three nodes"),
            (spec(WattsStrogatz, 60, 5.0, 10.0), "even integer"),
            (spec(WattsStrogatz, 60, 6.5, 10.0), "even integer"),
            (spec(WattsStrogatz, 60, f64::NAN, 10.0), "even integer"),
            (spec(WattsStrogatz, 6, 6.0, 10.0), "even integer"),
        ] {
            let err = bad.check().expect_err(why);
            assert!(err.contains(why), "{bad:?}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid topology spec: need at least two nodes")]
    fn generate_asserts_the_check() {
        TopologySpec {
            nodes: 1,
            ..TopologySpec::paper_default()
        }
        .generate(1);
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
