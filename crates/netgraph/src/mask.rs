//! Failure masks over a graph's dense id space.
//!
//! A [`SearchMask`] marks edges and vertices as *dead* without mutating
//! or rebuilding the graph. A search excludes them the one way it
//! excludes any edge: its edge cost returns `+∞` for every edge the mask
//! [`blocks`](SearchMask::blocks) — a dead edge, or any edge incident to
//! a dead vertex — so a dead vertex is neither reached nor relays.
//! Because the underlying graph is untouched, node and edge ids remain
//! stable across failures, which is what lets a survivability layer
//! compare pre- and post-failure routing state in one id space.
//! (Contrast [`Graph::filter_edges`](crate::Graph::filter_edges), which
//! re-densifies edge ids.)

use crate::graph::{EdgeId, NodeId};
use crate::paths::Path;

/// A set of dead edges and dead vertices.
///
/// Killing the same element twice is a no-op, so a mask built up
/// incrementally over repeated failures equals one built in a single
/// pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchMask {
    dead_edges: Vec<bool>,
    dead_nodes: Vec<bool>,
    dead_edge_count: usize,
    dead_node_count: usize,
}

impl SearchMask {
    /// An empty mask: everything alive.
    pub fn new() -> Self {
        SearchMask::default()
    }

    /// Marks an edge dead. Returns `true` if it was alive before.
    pub fn kill_edge(&mut self, e: EdgeId) -> bool {
        let i = e.index();
        if self.dead_edges.len() <= i {
            self.dead_edges.resize(i + 1, false);
        }
        if self.dead_edges[i] {
            return false;
        }
        self.dead_edges[i] = true;
        self.dead_edge_count += 1;
        true
    }

    /// Marks a vertex dead. Returns `true` if it was alive before.
    ///
    /// A dead vertex blocks more than relaying: every incident edge is
    /// treated as dead too, so the vertex cannot appear in a masked
    /// path even as an endpoint.
    pub fn kill_node(&mut self, v: NodeId) -> bool {
        let i = v.index();
        if self.dead_nodes.len() <= i {
            self.dead_nodes.resize(i + 1, false);
        }
        if self.dead_nodes[i] {
            return false;
        }
        self.dead_nodes[i] = true;
        self.dead_node_count += 1;
        true
    }

    /// Is this edge dead?
    pub fn edge_dead(&self, e: EdgeId) -> bool {
        self.dead_edges.get(e.index()).copied().unwrap_or(false)
    }

    /// Is this vertex dead?
    pub fn node_dead(&self, v: NodeId) -> bool {
        self.dead_nodes.get(v.index()).copied().unwrap_or(false)
    }

    /// Is the edge unusable under this mask — dead itself, or incident
    /// to a dead vertex? A search folds the mask into its edge costs by
    /// pricing every such edge at `+∞`.
    pub fn blocks(&self, id: EdgeId, a: NodeId, b: NodeId) -> bool {
        self.edge_dead(id) || self.node_dead(a) || self.node_dead(b)
    }

    /// `true` when nothing is dead.
    pub fn is_empty(&self) -> bool {
        self.dead_edge_count == 0 && self.dead_node_count == 0
    }

    /// Number of dead edges.
    pub fn dead_edge_count(&self) -> usize {
        self.dead_edge_count
    }

    /// Number of dead vertices.
    pub fn dead_node_count(&self) -> usize {
        self.dead_node_count
    }

    /// `true` when any node of `path` is dead or any edge of `path` is
    /// blocked under this mask.
    pub fn breaks_path(&self, path: &Path) -> bool {
        path.nodes.iter().any(|&v| self.node_dead(v))
            || path.edges.iter().any(|&e| self.edge_dead(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeRef, Graph};
    use crate::paths::{dijkstra_into, DijkstraConfig, DijkstraWorkspace};

    fn cost(e: EdgeRef<'_, f64>) -> f64 {
        *e.payload
    }

    /// The payload as the cost, `+∞` on every edge `mask` blocks.
    fn folded(mask: &SearchMask) -> impl Fn(EdgeRef<'_, f64>) -> f64 + '_ {
        |e| {
            if mask.blocks(e.id, e.a, e.b) {
                f64::INFINITY
            } else {
                *e.payload
            }
        }
    }

    /// 0 -1- 1 -1- 3, 0 -2- 2 -1- 3, 0 -5- 3.
    fn diamond() -> (Graph<(), f64>, [NodeId; 4], [EdgeId; 5]) {
        let mut g = Graph::new();
        let n: Vec<NodeId> = (0..4).map(|_| g.add_node(())).collect();
        let e01 = g.add_edge(n[0], n[1], 1.0);
        let e13 = g.add_edge(n[1], n[3], 1.0);
        let e02 = g.add_edge(n[0], n[2], 2.0);
        let e23 = g.add_edge(n[2], n[3], 1.0);
        let e03 = g.add_edge(n[0], n[3], 5.0);
        (g, [n[0], n[1], n[2], n[3]], [e01, e13, e02, e23, e03])
    }

    #[test]
    fn empty_mask_matches_unmasked_search() {
        let (g, [s, _, _, t], _) = diamond();
        let mut ws = DijkstraWorkspace::new();
        let mask = SearchMask::new();
        assert!(mask.is_empty());
        let masked = dijkstra_into(&mut ws, &g, s, &DijkstraConfig::all_nodes(folded(&mask)))
            .path_to(t)
            .expect("connected");
        let plain = dijkstra_into(&mut ws, &g, s, &DijkstraConfig::all_nodes(cost))
            .path_to(t)
            .expect("connected");
        assert_eq!(masked.nodes, plain.nodes);
        assert_eq!(masked.cost, plain.cost);
    }

    #[test]
    fn dead_edge_forces_detour() {
        let (g, [s, _, _, t], [e01, ..]) = diamond();
        let mut mask = SearchMask::new();
        assert!(mask.kill_edge(e01));
        assert!(!mask.kill_edge(e01), "second kill is a no-op");
        let mut ws = DijkstraWorkspace::new();
        let p = dijkstra_into(&mut ws, &g, s, &DijkstraConfig::all_nodes(folded(&mask)))
            .path_to(t)
            .expect("detour exists");
        assert!(!p.edges.contains(&e01));
        assert_eq!(p.cost, 3.0); // 0-2-3
    }

    #[test]
    fn dead_vertex_is_unreachable_even_as_destination() {
        let (g, [s, n1, _, t], _) = diamond();
        let mut mask = SearchMask::new();
        mask.kill_node(n1);
        let mut ws = DijkstraWorkspace::new();
        let view = dijkstra_into(&mut ws, &g, s, &DijkstraConfig::all_nodes(folded(&mask)));
        // Dead vertices are not just relay-forbidden: their incident
        // edges are blocked too, so n1 has no path at all.
        assert!(view.path_to(n1).is_none());
        let p = view.path_to(t).expect("detour exists");
        assert!(!p.nodes.contains(&n1));
        assert_eq!(p.cost, 3.0); // 0-2-3
    }

    #[test]
    fn breaks_path_detects_dead_elements() {
        let (g, [s, _, _, t], [e01, ..]) = diamond();
        let mut ws = DijkstraWorkspace::new();
        let cfg = DijkstraConfig::all_nodes(cost);
        let best = dijkstra_into(&mut ws, &g, s, &cfg)
            .path_to(t)
            .expect("connected");
        let mut mask = SearchMask::new();
        assert!(!mask.breaks_path(&best));
        mask.kill_edge(e01);
        assert!(mask.breaks_path(&best)); // best path is 0-1-3
    }
}
