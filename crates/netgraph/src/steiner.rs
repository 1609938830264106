//! Steiner tree approximation (classic-graph reference point).
//!
//! §III-A of the paper contrasts MUERP with the graphical Steiner minimal
//! tree problem: similar statement, but Steiner trees let an edge serve
//! many paths and put no capacity on vertices. We implement the classic
//! shortest-path (Kou–Markowsky–Berman style) 2-approximation so tests and
//! examples can demonstrate exactly the divergence the paper describes —
//! instances where the Steiner tree is "connected" in the classic sense
//! yet infeasible as an entanglement tree.

use std::collections::HashSet;

use crate::graph::{EdgeId, EdgeRef, Graph, NodeId};
use crate::mst::kruskal;
use crate::paths::{dijkstra_into, DijkstraConfig, DijkstraWorkspace};

/// An approximate Steiner tree: the chosen edges and their total weight.
#[derive(Clone, Debug, PartialEq)]
pub struct SteinerTree {
    /// Edges of the tree (ids in the original graph).
    pub edges: Vec<EdgeId>,
    /// Sum of chosen edge weights.
    pub total_weight: f64,
}

/// Shortest-path 2-approximation of the Steiner minimal tree over
/// `terminals`.
///
/// Returns `None` when the terminals do not lie in one connected component.
/// An empty or singleton terminal set yields an empty tree.
///
/// # Panics
///
/// Panics if `weight` produces a negative or NaN cost.
pub fn steiner_approximation<N, E, F>(
    g: &Graph<N, E>,
    terminals: &[NodeId],
    weight: F,
) -> Option<SteinerTree>
where
    F: Fn(EdgeRef<'_, E>) -> f64 + Copy,
{
    if terminals.len() <= 1 {
        return Some(SteinerTree {
            edges: Vec::new(),
            total_weight: 0.0,
        });
    }

    // 1. Metric closure over the terminals.
    let mut ws = DijkstraWorkspace::new();
    let runs: Vec<_> = terminals
        .iter()
        .map(|&t| dijkstra_into(&mut ws, g, t, &DijkstraConfig::all_nodes(weight)).clone())
        .collect();
    let mut closure: Graph<NodeId, (f64, usize, usize)> = Graph::new();
    for &t in terminals {
        closure.add_node(t);
    }
    for (i, run) in runs.iter().enumerate() {
        for (j, &tj) in terminals.iter().enumerate().skip(i + 1) {
            match run.distance(tj) {
                Some(d) => {
                    closure.add_node_pair_edge(i, j, (d, i, j));
                }
                None => return None, // disconnected terminals
            }
        }
    }

    // 2. MST of the closure.
    let closure_mst = kruskal(&closure, |e: EdgeRef<'_, (f64, usize, usize)>| e.payload.0);

    // 3. Expand closure edges into original-graph paths; collect edge set.
    let mut chosen: HashSet<EdgeId> = HashSet::new();
    for ce in closure_mst.edges {
        let &(_, i, j) = closure.edge(ce).payload;
        let path = runs[i]
            .path_to(terminals[j])
            .expect("closure edge implies reachability");
        chosen.extend(path.edges);
    }

    // 4. MST of the induced subgraph (removes accidental cycles). Build a
    // weight-payload copy so we need no Clone bounds on N/E; remember the
    // original edge ids positionally.
    let mut sub: Graph<(), f64> = Graph::with_capacity(g.node_count(), chosen.len());
    for _ in 0..g.node_count() {
        sub.add_node(());
    }
    let mut original_ids: Vec<EdgeId> = Vec::with_capacity(chosen.len());
    for e in g.edge_refs() {
        if chosen.contains(&e.id) {
            sub.add_edge(e.a, e.b, weight(e));
            original_ids.push(e.id);
        }
    }
    let sub_mst = kruskal(&sub, |e: EdgeRef<'_, f64>| *e.payload);

    // 5. Prune non-terminal leaves until fixed point.
    let terminal_set: HashSet<NodeId> = terminals.iter().copied().collect();
    let mut keep: HashSet<usize> = sub_mst.edges.iter().map(|e| e.index()).collect();
    loop {
        let mut degree = vec![0usize; sub.node_count()];
        for &ei in &keep {
            let (a, b) = sub.endpoints(EdgeId::new(ei));
            degree[a.index()] += 1;
            degree[b.index()] += 1;
        }
        let before = keep.len();
        keep.retain(|&ei| {
            let (a, b) = sub.endpoints(EdgeId::new(ei));
            let a_leaf = degree[a.index()] == 1 && !terminal_set.contains(&a);
            let b_leaf = degree[b.index()] == 1 && !terminal_set.contains(&b);
            !(a_leaf || b_leaf)
        });
        if keep.len() == before {
            break;
        }
    }

    let mut edges: Vec<EdgeId> = keep.iter().map(|&ei| original_ids[ei]).collect();
    edges.sort();
    let total_weight = edges.iter().map(|&e| weight(g.edge(e))).sum();
    Some(SteinerTree {
        edges,
        total_weight,
    })
}

impl Graph<NodeId, (f64, usize, usize)> {
    /// Internal helper: adds a closure edge keyed by terminal indices.
    fn add_node_pair_edge(&mut self, i: usize, j: usize, payload: (f64, usize, usize)) {
        self.add_edge(NodeId::new(i), NodeId::new(j), payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(e: EdgeRef<'_, f64>) -> f64 {
        *e.payload
    }

    /// Star: terminals on the rim, one cheap hub in the middle.
    #[test]
    fn star_uses_hub_as_steiner_point() {
        let mut g: Graph<(), f64> = Graph::new();
        let hub = g.add_node(());
        let t: Vec<_> = (0..3).map(|_| g.add_node(())).collect();
        for &ti in &t {
            g.add_edge(hub, ti, 1.0);
        }
        // Expensive direct rim edges.
        g.add_edge(t[0], t[1], 10.0);
        g.add_edge(t[1], t[2], 10.0);
        let tree = steiner_approximation(&g, &t, w).unwrap();
        assert_eq!(tree.edges.len(), 3);
        assert!((tree.total_weight - 3.0).abs() < 1e-9);
    }

    #[test]
    fn two_terminals_is_shortest_path() {
        let mut g: Graph<(), f64> = Graph::new();
        let a = g.add_node(());
        let m = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, m, 1.0);
        g.add_edge(m, b, 1.0);
        g.add_edge(a, b, 5.0);
        let tree = steiner_approximation(&g, &[a, b], w).unwrap();
        assert!((tree.total_weight - 2.0).abs() < 1e-9);
        assert_eq!(tree.edges.len(), 2);
    }

    #[test]
    fn singleton_and_empty_terminals() {
        let mut g: Graph<(), f64> = Graph::new();
        let a = g.add_node(());
        assert_eq!(steiner_approximation(&g, &[a], w).unwrap().edges.len(), 0);
        assert_eq!(steiner_approximation(&g, &[], w).unwrap().edges.len(), 0);
    }

    #[test]
    fn disconnected_terminals_yield_none() {
        let mut g: Graph<(), f64> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        assert!(steiner_approximation(&g, &[a, b], w).is_none());
    }

    #[test]
    fn prunes_dangling_steiner_points() {
        // Path a - x - b plus a dead-end x - y: y must never appear.
        let mut g: Graph<(), f64> = Graph::new();
        let a = g.add_node(());
        let x = g.add_node(());
        let b = g.add_node(());
        let y = g.add_node(());
        g.add_edge(a, x, 1.0);
        g.add_edge(x, b, 1.0);
        g.add_edge(x, y, 0.1);
        let tree = steiner_approximation(&g, &[a, b], w).unwrap();
        assert_eq!(tree.edges.len(), 2);
        for &e in &tree.edges {
            let (p, q) = g.endpoints(e);
            assert!(p != y && q != y);
        }
    }

    #[test]
    fn result_spans_terminals() {
        // Grid-ish graph, 3 spread terminals.
        let mut g: Graph<(), f64> = Graph::new();
        let n: Vec<_> = (0..6).map(|_| g.add_node(())).collect();
        let pairs = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)];
        for (a, b) in pairs {
            g.add_edge(n[a], n[b], 1.0);
        }
        let terminals = [n[0], n[2], n[5]];
        let tree = steiner_approximation(&g, &terminals, w).unwrap();
        let sub = g.filter_edges(|e| tree.edges.contains(&e.id));
        assert!(crate::connectivity::nodes_connected(&sub, &terminals));
    }
}
