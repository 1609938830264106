//! Graph substrate for quantum-network routing.
//!
//! This crate provides the graph-theoretic foundation used by the MUERP
//! reproduction (ICDCS 2024). It is implemented from scratch — no external
//! graph library — and offers exactly the primitives the paper's algorithms
//! need:
//!
//! * [`Graph`]: an undirected multigraph with typed node/edge ids and
//!   arbitrary node/edge payloads.
//! * [`UnionFind`]: disjoint-set forest with union by rank and path
//!   compression, used by Algorithm 2/3 of the paper to maintain user
//!   connectivity.
//! * [`dijkstra_into`]: shortest paths with pluggable edge costs (`+∞`
//!   excludes an edge) and a *vertex filter* — the primitive behind
//!   the paper's Algorithm 1 (maximum entanglement-rate channel) after
//!   the `−ln` transform. [`k_shortest_paths_in`] (Yen) and
//!   [`dijkstra_repair_into`] (in-place delta repair) build on it; these
//!   three are the crate's whole search layer, and [`serves_targets`]
//!   decides when a stored run needs no repair for the vertices a caller
//!   reads.
//! * [`NegLog`]: the product→sum transform that turns the paper's
//!   non-additive rate objective (Eq. 1/2) into additive path weights.
//! * [`mst`], [`steiner`]: classic-graph comparison algorithms referenced
//!   in §III-A of the paper (minimum spanning tree, Steiner minimal tree).
//! * [`connectivity`]: components and bridges; bridges are the "critical
//!   edges" the paper's Fig. 7(b) edge-removal experiment surfaces.
//! * [`mask`]: failure masks ([`SearchMask`]) that mark dead edges and
//!   vertices without re-densifying ids; a search excludes them through
//!   its edge costs — the substrate for the survivability layer's
//!   incremental repair.
//!
//! # Example
//!
//! ```
//! use qnet_graph::{dijkstra_into, DijkstraConfig, DijkstraWorkspace, Graph};
//!
//! let mut g: Graph<&str, f64> = Graph::new();
//! let a = g.add_node("a");
//! let b = g.add_node("b");
//! let c = g.add_node("c");
//! g.add_edge(a, b, 1.0);
//! g.add_edge(b, c, 2.0);
//! g.add_edge(a, c, 10.0);
//!
//! let cfg = DijkstraConfig::all_nodes(|e: qnet_graph::EdgeRef<'_, f64>| *e.payload);
//! let mut ws = DijkstraWorkspace::new();
//! let run = dijkstra_into(&mut ws, &g, a, &cfg);
//! assert_eq!(run.distance(c), Some(3.0));
//! assert_eq!(run.path_to(c).unwrap().nodes, vec![a, b, c]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod centrality;
pub mod connectivity;
pub mod delta;
pub mod dot;
pub mod graph;
pub mod ksp;
pub mod mask;
pub mod mst;
pub mod paths;
pub mod steiner;
pub mod unionfind;
pub mod weight;

pub use delta::{dijkstra_repair_into, serves_targets, RepairStats, SsspDelta};
pub use graph::{EdgeId, EdgeRef, Graph, NodeId};
pub use ksp::k_shortest_paths_in;
pub use mask::SearchMask;
pub use paths::{dijkstra_into, DijkstraConfig, DijkstraRun, DijkstraWorkspace, Path};
pub use unionfind::UnionFind;
pub use weight::NegLog;
