//! Undirected multigraph with typed ids and arbitrary payloads.
//!
//! The representation is an adjacency list over a flat edge arena: each edge
//! is stored once (`Edge { a, b, payload }`) and referenced from the
//! adjacency vectors of both endpoints. Node and edge ids are compact `u32`
//! indices wrapped in newtypes ([`NodeId`], [`EdgeId`]) so they cannot be
//! confused with each other or with raw integers.
//!
//! Removal is not supported in place; experiments that delete edges (the
//! paper's Fig. 7(b)) construct a filtered copy via
//! [`Graph::filter_edges`], which is simpler, cache-friendly, and keeps ids
//! meaningful for the lifetime of a graph value.

use core::fmt;

/// Identifier of a node within one [`Graph`].
///
/// Ids are dense indices: the `i`-th added node has id `NodeId::new(i)`.
/// Ids from one graph must not be used with another graph except for
/// deliberately aligned copies (e.g. [`Graph::filter_edges`] preserves node
/// ids).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a dense index.
    #[inline]
    pub const fn new(index: usize) -> Self {
        NodeId(index as u32)
    }

    /// Returns the dense index of this node.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an edge within one [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Creates an edge id from a dense index.
    #[inline]
    pub const fn new(index: usize) -> Self {
        EdgeId(index as u32)
    }

    /// Returns the dense index of this edge.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[derive(Clone, Debug)]
struct Edge<E> {
    a: NodeId,
    b: NodeId,
    payload: E,
}

/// A borrowed view of one edge: its id, endpoints, and payload.
#[derive(Debug)]
pub struct EdgeRef<'g, E> {
    /// Edge id.
    pub id: EdgeId,
    /// First endpoint (the `a` passed to [`Graph::add_edge`]).
    pub a: NodeId,
    /// Second endpoint.
    pub b: NodeId,
    /// Edge payload (weight, length, …).
    pub payload: &'g E,
}

// Manual impls: EdgeRef is always Copy (it only borrows the payload), so
// avoid the derive's implicit `E: Clone`/`E: Copy` bounds.
impl<E> Clone for EdgeRef<'_, E> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<E> Copy for EdgeRef<'_, E> {}

impl<'g, E> EdgeRef<'g, E> {
    /// Given one endpoint, returns the other.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not an endpoint of this edge.
    #[inline]
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else if n == self.b {
            self.a
        } else {
            panic!("{n} is not an endpoint of edge {}", self.id)
        }
    }
}

/// An undirected multigraph with node payloads `N` and edge payloads `E`.
///
/// Self-loops are rejected (the quantum-internet model of the paper assumes
/// no self-loops); parallel edges are allowed, matching multi-core optical
/// fibers.
///
/// # Example
///
/// ```
/// use qnet_graph::Graph;
///
/// let mut g: Graph<(), f64> = Graph::new();
/// let a = g.add_node(());
/// let b = g.add_node(());
/// let e = g.add_edge(a, b, 2.5);
/// assert_eq!(g.edge(e).payload, &2.5);
/// assert_eq!(g.degree(a), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Graph<N, E> {
    nodes: Vec<N>,
    edges: Vec<Edge<E>>,
    adjacency: Vec<Vec<(NodeId, EdgeId)>>,
}

impl<N, E> Graph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph {
            nodes: Vec::new(),
            edges: Vec::new(),
            adjacency: Vec::new(),
        }
    }

    /// Creates an empty graph with capacity reserved for `nodes` nodes and
    /// `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Graph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            adjacency: Vec::with_capacity(nodes),
        }
    }

    /// Adds a node with the given payload and returns its id.
    pub fn add_node(&mut self, payload: N) -> NodeId {
        let id = NodeId::new(self.nodes.len());
        self.nodes.push(payload);
        self.adjacency.push(Vec::new());
        id
    }

    /// Adds an undirected edge between `a` and `b` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (self-loop) or if either endpoint is out of range.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, payload: E) -> EdgeId {
        assert!(a != b, "self-loops are not allowed (got {a} == {b})");
        assert!(
            a.index() < self.nodes.len() && b.index() < self.nodes.len(),
            "edge endpoints {a}, {b} out of range (graph has {} nodes)",
            self.nodes.len()
        );
        let id = EdgeId::new(self.edges.len());
        self.edges.push(Edge { a, b, payload });
        self.adjacency[a.index()].push((b, id));
        self.adjacency[b.index()].push((a, id));
        id
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` when the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Payload of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    #[inline]
    pub fn node(&self, n: NodeId) -> &N {
        &self.nodes[n.index()]
    }

    /// Mutable payload of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    #[inline]
    pub fn node_mut(&mut self, n: NodeId) -> &mut N {
        &mut self.nodes[n.index()]
    }

    /// A borrowed view of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> EdgeRef<'_, E> {
        let edge = &self.edges[e.index()];
        EdgeRef {
            id: e,
            a: edge.a,
            b: edge.b,
            payload: &edge.payload,
        }
    }

    /// Endpoints `(a, b)` of edge `e`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let edge = &self.edges[e.index()];
        (edge.a, edge.b)
    }

    /// Number of incident edges of node `n` (parallel edges counted each).
    #[inline]
    pub fn degree(&self, n: NodeId) -> usize {
        self.adjacency[n.index()].len()
    }

    /// Iterates over `(neighbor, edge)` pairs incident to `n`.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        self.adjacency[n.index()].iter().copied()
    }

    /// The `(neighbor, edge)` pairs incident to `n` as one slice, in
    /// insertion order — the zero-cost form behind [`Graph::neighbors`]
    /// that the search kernels iterate.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    #[inline]
    pub fn neighbor_slice(&self, n: NodeId) -> &[(NodeId, EdgeId)] {
        &self.adjacency[n.index()]
    }

    /// Iterates over all node ids in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + 'static {
        (0..self.nodes.len()).map(NodeId::new)
    }

    /// Iterates over all node payloads in insertion order.
    pub fn node_payloads(&self) -> impl Iterator<Item = &N> {
        self.nodes.iter()
    }

    /// Iterates over all edge ids in insertion order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + 'static {
        (0..self.edges.len()).map(EdgeId::new)
    }

    /// Iterates over borrowed views of all edges in insertion order.
    pub fn edge_refs(&self) -> impl Iterator<Item = EdgeRef<'_, E>> {
        self.edges.iter().enumerate().map(|(i, e)| EdgeRef {
            id: EdgeId::new(i),
            a: e.a,
            b: e.b,
            payload: &e.payload,
        })
    }

    /// Returns some edge between `a` and `b`, if one exists.
    ///
    /// With parallel edges present, which one is returned is unspecified
    /// (the first inserted).
    pub fn find_edge(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        self.adjacency[a.index()]
            .iter()
            .find(|(n, _)| *n == b)
            .map(|(_, e)| *e)
    }

    /// Builds a copy of this graph keeping only edges for which `keep`
    /// returns `true`. Node ids are preserved; edge ids are re-assigned
    /// densely in the original insertion order.
    pub fn filter_edges(&self, mut keep: impl FnMut(EdgeRef<'_, E>) -> bool) -> Graph<N, E>
    where
        N: Clone,
        E: Clone,
    {
        let mut out = Graph::with_capacity(self.node_count(), self.edge_count());
        for payload in &self.nodes {
            out.add_node(payload.clone());
        }
        for e in self.edge_refs() {
            if keep(e) {
                out.add_edge(e.a, e.b, e.payload.clone());
            }
        }
        out
    }

    /// Transforms every edge payload, preserving node and edge ids.
    pub fn map_edges<F, E2>(&self, mut f: F) -> Graph<N, E2>
    where
        N: Clone,
        F: FnMut(EdgeRef<'_, E>) -> E2,
    {
        let mut out = Graph::with_capacity(self.node_count(), self.edge_count());
        for payload in &self.nodes {
            out.add_node(payload.clone());
        }
        for e in self.edge_refs() {
            let p = f(e);
            out.add_edge(e.a, e.b, p);
        }
        out
    }

    /// Sum of degrees divided by node count — the average degree the
    /// topology generators target (the paper's parameter `D`).
    pub fn average_degree(&self) -> f64 {
        if self.nodes.is_empty() {
            0.0
        } else {
            2.0 * self.edges.len() as f64 / self.nodes.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Graph<&'static str, f64>, [NodeId; 3], [EdgeId; 3]) {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let ab = g.add_edge(a, b, 1.0);
        let bc = g.add_edge(b, c, 2.0);
        let ca = g.add_edge(c, a, 3.0);
        (g, [a, b, c], [ab, bc, ca])
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let (g, [a, b, c], [ab, bc, ca]) = triangle();
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(c.index(), 2);
        assert_eq!(ab.index(), 0);
        assert_eq!(bc.index(), 1);
        assert_eq!(ca.index(), 2);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn neighbors_are_symmetric() {
        let (g, [a, b, _c], [ab, _, _]) = triangle();
        assert!(g.neighbors(a).any(|(n, e)| n == b && e == ab));
        assert!(g.neighbors(b).any(|(n, e)| n == a && e == ab));
    }

    #[test]
    fn degree_counts_parallel_edges() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(a, b, ());
        assert_eq!(g.degree(a), 2);
        assert_eq!(g.degree(b), 2);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        g.add_edge(a, a, ());
    }

    #[test]
    fn edge_ref_other_endpoint() {
        let (g, [a, b, _], [ab, _, _]) = triangle();
        let e = g.edge(ab);
        assert_eq!(e.other(a), b);
        assert_eq!(e.other(b), a);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn edge_ref_other_rejects_non_endpoint() {
        let (g, [_, _, c], [ab, _, _]) = triangle();
        g.edge(ab).other(c);
    }

    #[test]
    fn find_edge_both_directions() {
        let (g, [a, b, c], [ab, _, _]) = triangle();
        assert_eq!(g.find_edge(a, b), Some(ab));
        assert_eq!(g.find_edge(b, a), Some(ab));
        assert!(g.find_edge(c, a).is_some());
        let mut g2: Graph<(), ()> = Graph::new();
        let x = g2.add_node(());
        let y = g2.add_node(());
        assert_eq!(g2.find_edge(x, y), None);
    }

    #[test]
    fn filter_edges_preserves_node_ids() {
        let (g, [a, b, c], _) = triangle();
        let filtered = g.filter_edges(|e| *e.payload < 2.5);
        assert_eq!(filtered.node_count(), 3);
        assert_eq!(filtered.edge_count(), 2);
        assert!(filtered.find_edge(a, b).is_some());
        assert!(filtered.find_edge(b, c).is_some());
        assert!(filtered.find_edge(c, a).is_none());
        assert_eq!(filtered.node(a), &"a");
    }

    #[test]
    fn map_edges_transforms_payloads() {
        let (g, [a, b, _], _) = triangle();
        let doubled = g.map_edges(|e| *e.payload * 2.0);
        let e = doubled.find_edge(a, b).unwrap();
        assert_eq!(doubled.edge(e).payload, &2.0);
        assert_eq!(doubled.edge_count(), g.edge_count());
    }

    #[test]
    fn average_degree_matches_handshake_lemma() {
        let (g, _, _) = triangle();
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
        let empty: Graph<(), ()> = Graph::new();
        assert_eq!(empty.average_degree(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_rejects_bad_endpoint() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        g.add_node(());
        g.add_edge(a, NodeId::new(5), ());
    }

    #[test]
    fn display_and_debug_ids() {
        assert_eq!(format!("{}", NodeId::new(3)), "n3");
        assert_eq!(format!("{:?}", EdgeId::new(7)), "e7");
    }
}
