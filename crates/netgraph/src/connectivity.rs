//! Connectivity analysis: components and bridges.
//!
//! The paper's Fig. 7(b) removes optical fibers uniformly at random and
//! observes that performance "is mainly affected by some critical edges in
//! the network structure". In graph terms those critical edges are
//! *bridges* (cut edges): removing one disconnects a component. This module
//! provides the machinery to find them ([`bridges`]) alongside plain
//! component analysis used throughout the workspace.

use crate::graph::{EdgeId, Graph, NodeId};

/// Assigns every node a component label `0..k` and returns
/// `(labels, component_count)`.
pub fn connected_components<N, E>(g: &Graph<N, E>) -> (Vec<usize>, usize) {
    let n = g.node_count();
    let mut label = vec![usize::MAX; n];
    let mut next = 0;
    let mut stack = Vec::new();
    for start in g.node_ids() {
        if label[start.index()] != usize::MAX {
            continue;
        }
        label[start.index()] = next;
        stack.push(start);
        while let Some(v) = stack.pop() {
            for (u, _) in g.neighbors(v) {
                if label[u.index()] == usize::MAX {
                    label[u.index()] = next;
                    stack.push(u);
                }
            }
        }
        next += 1;
    }
    (label, next)
}

/// `true` when the graph is connected (an empty graph counts as connected).
pub fn is_connected<N, E>(g: &Graph<N, E>) -> bool {
    if g.node_count() == 0 {
        return true;
    }
    connected_components(g).1 == 1
}

/// `true` when every node in `nodes` lies in one connected component.
///
/// An empty or singleton slice is trivially connected.
pub fn nodes_connected<N, E>(g: &Graph<N, E>, nodes: &[NodeId]) -> bool {
    let Some((&first, rest)) = nodes.split_first() else {
        return true;
    };
    let (labels, _) = connected_components(g);
    rest.iter()
        .all(|n| labels[n.index()] == labels[first.index()])
}

/// Finds all bridges (cut edges) of the graph.
///
/// A bridge is an edge whose removal increases the number of connected
/// components. Parallel edges are handled correctly: two parallel edges
/// between the same endpoints are never bridges.
///
/// # Example
///
/// ```
/// use qnet_graph::Graph;
/// use qnet_graph::connectivity::bridges;
///
/// // triangle a-b-c plus pendant edge c-d: only c-d is a bridge
/// let mut g: Graph<(), ()> = Graph::new();
/// let a = g.add_node(());
/// let b = g.add_node(());
/// let c = g.add_node(());
/// let d = g.add_node(());
/// g.add_edge(a, b, ());
/// g.add_edge(b, c, ());
/// g.add_edge(c, a, ());
/// let cd = g.add_edge(c, d, ());
/// assert_eq!(bridges(&g), vec![cd]);
/// ```
pub fn bridges<N, E>(g: &Graph<N, E>) -> Vec<EdgeId> {
    // Iterative Tarjan low-link state.
    const UNVISITED: u32 = u32::MAX;
    let n = g.node_count();
    let mut disc = vec![UNVISITED; n];
    let mut low = vec![UNVISITED; n];
    let mut timer = 0;
    let mut bridges = Vec::new();

    // Iterative DFS: each frame is (node, parent_edge, neighbor cursor).
    for root in g.node_ids() {
        if disc[root.index()] != UNVISITED {
            continue;
        }
        let mut stack: Vec<(NodeId, Option<EdgeId>, usize)> = Vec::new();
        disc[root.index()] = timer;
        low[root.index()] = timer;
        timer += 1;
        stack.push((root, None, 0));

        while let Some(top) = stack.last_mut() {
            let (v, parent_edge) = (top.0, top.1);
            let cursor = top.2;
            if cursor < g.degree(v) {
                top.2 += 1;
                let (u, eid) = g
                    .neighbors(v)
                    .nth(cursor)
                    .expect("cursor bounded by degree");
                if Some(eid) == parent_edge {
                    continue; // skip the tree edge back; parallel edges have different ids
                }
                if disc[u.index()] == UNVISITED {
                    disc[u.index()] = timer;
                    low[u.index()] = timer;
                    timer += 1;
                    stack.push((u, Some(eid), 0));
                } else {
                    // Back edge.
                    let du = disc[u.index()];
                    if du < low[v.index()] {
                        low[v.index()] = du;
                    }
                }
            } else {
                // Finished v: propagate low-link to parent.
                stack.pop();
                if let Some(&(p, _, _)) = stack.last() {
                    let lv = low[v.index()];
                    if lv < low[p.index()] {
                        low[p.index()] = lv;
                    }
                    if lv > disc[p.index()] {
                        bridges.push(parent_edge.expect("non-root has a parent edge"));
                    }
                }
            }
        }
    }
    bridges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph<(), ()> {
        let mut g = Graph::new();
        let ids: Vec<_> = (0..n).map(|_| g.add_node(())).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], ());
        }
        g
    }

    fn cycle_graph(n: usize) -> Graph<(), ()> {
        let mut g = path_graph(n);
        g.add_edge(NodeId::new(n - 1), NodeId::new(0), ());
        g
    }

    #[test]
    fn components_of_disjoint_parts() {
        let mut g = path_graph(3);
        g.add_node(()); // isolated node
        let (labels, k) = connected_components(&g);
        assert_eq!(k, 2);
        assert_eq!(labels[0], labels[2]);
        assert_ne!(labels[0], labels[3]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn empty_and_singleton_are_connected() {
        let g: Graph<(), ()> = Graph::new();
        assert!(is_connected(&g));
        let mut g2: Graph<(), ()> = Graph::new();
        g2.add_node(());
        assert!(is_connected(&g2));
    }

    #[test]
    fn nodes_connected_subsets() {
        let mut g = path_graph(3);
        let iso = g.add_node(());
        assert!(nodes_connected(&g, &[]));
        assert!(nodes_connected(&g, &[iso]));
        assert!(nodes_connected(&g, &[NodeId::new(0), NodeId::new(2)]));
        assert!(!nodes_connected(&g, &[NodeId::new(0), iso]));
    }

    #[test]
    fn every_edge_of_a_path_is_a_bridge() {
        let g = path_graph(5);
        let mut b = bridges(&g);
        b.sort();
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn cycle_has_no_bridges() {
        let g = cycle_graph(5);
        assert!(bridges(&g).is_empty());
    }

    #[test]
    fn pendant_edge_on_cycle() {
        let mut g = cycle_graph(4);
        let d = g.add_node(());
        let pendant = g.add_edge(NodeId::new(0), d, ());
        assert_eq!(bridges(&g), vec![pendant]);
    }

    #[test]
    fn parallel_edges_are_never_bridges() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(a, b, ());
        assert!(bridges(&g).is_empty());
    }

    #[test]
    fn triangles_sharing_a_vertex_have_no_bridges() {
        let mut g: Graph<(), ()> = Graph::new();
        let ids: Vec<_> = (0..5).map(|_| g.add_node(())).collect();
        g.add_edge(ids[0], ids[1], ());
        g.add_edge(ids[1], ids[2], ());
        g.add_edge(ids[2], ids[0], ());
        g.add_edge(ids[2], ids[3], ());
        g.add_edge(ids[3], ids[4], ());
        g.add_edge(ids[4], ids[2], ());
        assert!(bridges(&g).is_empty());
    }

    #[test]
    fn bridges_agree_with_bruteforce_removal() {
        // Deterministic small graph; compare Tarjan against removal test.
        let mut g: Graph<(), ()> = Graph::new();
        let ids: Vec<_> = (0..7).map(|_| g.add_node(())).collect();
        let pairs = [
            (0, 1),
            (1, 2),
            (2, 0),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 3),
            (5, 6),
        ];
        for (a, b) in pairs {
            g.add_edge(ids[a], ids[b], ());
        }
        let (_, base_components) = connected_components(&g);
        let mut expected = Vec::new();
        for e in g.edge_ids() {
            let without = g.filter_edges(|er| er.id != e);
            if connected_components(&without).1 > base_components {
                expected.push(e);
            }
        }
        let mut got = bridges(&g);
        got.sort();
        expected.sort();
        assert_eq!(got, expected);
    }
}
