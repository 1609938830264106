//! Single-source shortest paths with pluggable costs and relay filters.
//!
//! [`dijkstra_into`] is the engine behind the paper's **Algorithm 1**
//! (maximum entanglement-rate channel): after the [`crate::NegLog`]
//! transform the max-rate channel is the min-cost path, with the twist
//! that only quantum switches *with at least two free qubits* may appear
//! in the interior of a channel. That twist is expressed here as the
//! `can_relay` vertex filter: edges are relaxed out of a vertex only if
//! it is the source or the filter admits it, so every reported path has
//! all interior vertices admitted while source and destination are
//! unconstrained. An edge whose cost is `+∞` is never traversed: that is
//! the one way to exclude an edge, and the survivability layer excludes
//! failed fibers and switches with it ([`crate::SearchMask::blocks`]).
//!
//! This is the crate's one Dijkstra: [`crate::ksp`]'s Yen spur searches
//! and every Algorithm-1 caller run through [`dijkstra_into`], and
//! [`crate::delta::dijkstra_repair_into`] patches its results in place.
//! Both run the same crate-private relaxation loop, `relax`.
//!
//! Two rules keep that loop cheap without changing a result bit:
//!
//! * **Heap order.** Entries pop minimum cost first and, on a cost tie,
//!   larger vertex index first. Each entry is one integer key built from
//!   the cost's bit pattern and the vertex index, so the heap compares
//!   integers. The key orders costs like [`f64::total_cmp`], which agrees
//!   with `<` on every cost the loop pushes (finite, non-negative, never
//!   `-0.0`).
//! * **Only relays enter the heap.** A vertex the relay filter rejects
//!   would pop and expand nothing, and every offer it could receive
//!   after that pop costs at least its label (edge costs are ≥ 0, pops
//!   are in cost order), so the strict `<` test would reject it. The
//!   loop therefore keeps such a vertex off the heap: its best offer is
//!   its final label. The filter is asked once per vertex per pass, at
//!   its first improving offer, and the settled tally counts a rejected
//!   vertex when it is first reached, exactly once, as its pop would
//!   have.

use std::collections::BinaryHeap;

use crate::graph::{EdgeId, EdgeRef, Graph, NodeId};

/// A simple path through the graph: node sequence, the edges between them,
/// and the total additive cost.
#[derive(Clone, Debug, PartialEq)]
pub struct Path {
    /// Visited nodes from source to destination (inclusive).
    pub nodes: Vec<NodeId>,
    /// Edges between consecutive nodes (`edges.len() == nodes.len() - 1`).
    pub edges: Vec<EdgeId>,
    /// Total additive cost of the path.
    pub cost: f64,
}

impl Path {
    /// Number of edges (the paper's channel *distance* `l`).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// `true` for a zero-edge path (source == destination).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Interior nodes of the path (everything but the two endpoints).
    pub fn interior(&self) -> &[NodeId] {
        if self.nodes.len() <= 2 {
            &[]
        } else {
            &self.nodes[1..self.nodes.len() - 1]
        }
    }

    /// Source node.
    ///
    /// # Panics
    ///
    /// Panics if the path has no nodes (never produced by this crate).
    pub fn source(&self) -> NodeId {
        *self.nodes.first().expect("path has at least one node")
    }

    /// Destination node.
    ///
    /// # Panics
    ///
    /// Panics if the path has no nodes (never produced by this crate).
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().expect("path has at least one node")
    }
}

/// Configuration of a Dijkstra run: edge costs and the relay filter.
///
/// `edge_cost` returns the non-negative additive cost of traversing an
/// edge; returning `f64::INFINITY` excludes the edge. `can_relay` decides
/// whether a vertex may appear in the *interior* of a path; the source and
/// any destination are always allowed regardless of the filter.
///
/// `can_relay` must be a pure function of the vertex for the duration of
/// a run: the search asks it once per reached vertex, at the vertex's
/// first improving offer, and keeps the answer for every later one.
#[derive(Clone, Copy, Debug)]
pub struct DijkstraConfig<FC, FR> {
    /// Cost of one edge; `INFINITY` to exclude it.
    pub edge_cost: FC,
    /// Whether a vertex may be an interior relay.
    pub can_relay: FR,
}

impl<FC> DijkstraConfig<FC, fn(NodeId) -> bool> {
    /// A configuration where every vertex may relay.
    pub fn all_nodes(edge_cost: FC) -> Self {
        fn always(_: NodeId) -> bool {
            true
        }
        DijkstraConfig {
            edge_cost,
            can_relay: always,
        }
    }
}

/// The result of a [`dijkstra_into`] run from one source: one distance
/// and one predecessor per vertex, as plain arrays. `INFINITY` and
/// `None` mark a vertex the run does not reach.
///
/// [`crate::delta::dijkstra_repair_into`] patches a run through `&mut`,
/// in place, wherever it is stored.
#[derive(Debug, PartialEq)]
pub struct DijkstraRun {
    pub(crate) source: NodeId,
    pub(crate) dist: Vec<f64>,
    pub(crate) prev: Vec<Option<(NodeId, EdgeId)>>,
}

impl Clone for DijkstraRun {
    fn clone(&self) -> Self {
        DijkstraRun {
            source: self.source,
            dist: self.dist.clone(),
            prev: self.prev.clone(),
        }
    }

    /// Copies `other` into `self`'s buffers (no allocation once they have
    /// reached the graph's size). The finder cache copies an entry's
    /// fill run back this way when the relay bits return to the fill's;
    /// the delta bench's copy row and the equivalence tests, which reset
    /// stored runs, copy too.
    fn clone_from(&mut self, other: &Self) {
        self.source = other.source;
        self.dist.clone_from(&other.dist);
        self.prev.clone_from(&other.prev);
    }
}

impl Default for DijkstraRun {
    fn default() -> Self {
        DijkstraRun {
            source: NodeId::new(0),
            dist: Vec::new(),
            prev: Vec::new(),
        }
    }
}

/// Reusable scratch state for repeated Dijkstra runs and repairs.
///
/// A workspace holds the labels of its most recent [`dijkstra_into`]
/// run and the pass-local state every search and repair pass needs: a
/// binary heap and per-vertex *generation stamps*. Each pass bumps a
/// generation counter, and a stamp equal to it records a fact about the
/// current pass only — the vertex popped, its relay flag was read, or
/// (in a repair) it is affected, so open to offers. Starting a pass is
/// therefore O(1): nothing is cleared. A fresh search resets its labels
/// with one fill (`dist = ∞`, `prev = None`); a repair patches the
/// caller's stored run and never touches those labels.
///
/// Allocating these buffers fresh per call dominates the cost of
/// searches on small-to-medium graphs, and the MUERP solvers issue
/// hundreds of searches per solve. The same workspace may be reused
/// across graphs of different sizes (buffers grow monotonically) and
/// across arbitrary cost/relay configurations; a run never observes
/// state from a previous run (the proptest suite in
/// `tests/properties.rs` pits a deliberately dirty workspace against
/// fresh runs).
#[derive(Clone, Debug, Default)]
pub struct DijkstraWorkspace {
    /// Labels of the most recent [`dijkstra_into`] run.
    labels: DijkstraRun,
    pub(crate) pass: Pass,
}

/// Pass-local state: the heap, generation-stamped facts and the
/// repair's affected list.
#[derive(Clone, Debug, Default)]
pub(crate) struct Pass {
    pub(crate) generation: u32,
    /// `popped[v] == generation`: `v` popped (settled) in this pass.
    popped: Vec<u32>,
    /// `read[v] == generation`: `relays[v]` holds the relay filter's
    /// answer for `v` in this pass.
    read: Vec<u32>,
    relays: Vec<bool>,
    /// `open[v] == generation`: in a confined repair pass, `v` is
    /// affected, so it may take offers.
    pub(crate) open: Vec<u32>,
    /// The affected vertices of the current repair, in walk order.
    pub(crate) affected: Vec<NodeId>,
    pub(crate) heap: BinaryHeap<HeapEntry>,
}

impl DijkstraWorkspace {
    /// An empty workspace; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace pre-sized for graphs of `nodes` vertices.
    pub fn with_capacity(nodes: usize) -> Self {
        let mut ws = Self::default();
        ws.pass.grow(nodes);
        ws.labels.dist.reserve(nodes);
        ws.labels.prev.reserve(nodes);
        ws
    }
}

impl Pass {
    /// Starts a new pass over `n` vertices: O(1) unless buffers must grow
    /// or the 32-bit generation wraps (once per ~4 billion passes).
    pub(crate) fn begin(&mut self, n: usize) {
        self.grow(n);
        self.heap.clear();
        if self.generation == u32::MAX {
            for stamps in [&mut self.popped, &mut self.read, &mut self.open] {
                stamps.fill(0);
            }
            self.generation = 0;
        }
        self.generation += 1;
    }

    fn grow(&mut self, n: usize) {
        if n > self.popped.len() {
            // Stamp 0 never equals a post-`begin` generation (≥ 1), so
            // fresh slots read as untouched. Growth is the arena's only
            // allocation; `runs − grown` over `runs` is the zero-alloc
            // reuse rate the profile report prints.
            qnet_obs::counter!("graph.workspace.grown");
            self.popped.resize(n, 0);
            self.read.resize(n, 0);
            self.relays.resize(n, false);
            self.open.resize(n, 0);
        }
    }

    /// `true` when `v` popped in this pass.
    #[inline]
    pub(crate) fn popped(&self, v: NodeId) -> bool {
        self.popped[v.index()] == self.generation
    }

    /// Marks `v` popped in this pass.
    #[inline]
    pub(crate) fn pop(&mut self, v: NodeId) {
        self.popped[v.index()] = self.generation;
    }

    /// `true` when `v` takes no more offers in this pass: it popped, or
    /// the pass is `CONFINED` to the open vertices and `v` is not one.
    #[inline]
    fn closed<const CONFINED: bool>(&self, v: NodeId) -> bool {
        self.popped(v) || (CONFINED && self.open[v.index()] != self.generation)
    }

    /// Whether `v` relays in this pass: `can_relay` is asked at the
    /// first call per pass, and the answer is kept for the rest of it.
    #[inline]
    pub(crate) fn relays(&mut self, v: NodeId, can_relay: impl Fn(NodeId) -> bool) -> bool {
        let i = v.index();
        if self.read[i] != self.generation {
            self.read[i] = self.generation;
            self.relays[i] = can_relay(v);
        }
        self.relays[i]
    }

    /// Records `relays` as `v`'s relay flag for the rest of this pass,
    /// without asking the filter.
    #[inline]
    pub(crate) fn set_relays(&mut self, v: NodeId, relays: bool) {
        self.read[v.index()] = self.generation;
        self.relays[v.index()] = relays;
    }
}

impl DijkstraRun {
    /// Resets the labels to a run from `source` that reaches nothing
    /// yet: one fill over `n` slots.
    fn reset(&mut self, source: NodeId, n: usize) {
        self.source = source;
        self.dist.clear();
        self.dist.resize(n, f64::INFINITY);
        self.prev.clear();
        self.prev.resize(n, None);
    }

    /// The source of the run.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Cost of the cheapest admissible path to `target`, or `None` when
    /// unreachable.
    pub fn distance(&self, target: NodeId) -> Option<f64> {
        let d = self.dist[target.index()];
        d.is_finite().then_some(d)
    }

    /// Reconstructs the cheapest admissible path to `target`, or `None`
    /// when unreachable.
    pub fn path_to(&self, target: NodeId) -> Option<Path> {
        let cost = self.distance(target)?;
        let mut nodes = vec![target];
        let mut edges = Vec::new();
        let mut cur = target;
        while let Some((p, e)) = self.prev[cur.index()] {
            nodes.push(p);
            edges.push(e);
            cur = p;
        }
        debug_assert_eq!(cur, self.source);
        nodes.reverse();
        edges.reverse();
        Some(Path { nodes, edges, cost })
    }

    /// The predecessor hop of `target` in the shortest-path tree, or
    /// `None` for the source and unreachable nodes.
    pub fn prev_hop(&self, target: NodeId) -> Option<(NodeId, EdgeId)> {
        self.prev[target.index()]
    }

    /// Number of vertex slots the run covers.
    pub fn len(&self) -> usize {
        self.dist.len()
    }

    /// `true` when the run covers no vertices.
    pub fn is_empty(&self) -> bool {
        self.dist.is_empty()
    }
}

/// A heap entry packed into one integer key, so the heap orders entries
/// with a single integer comparison.
///
/// The key holds the complemented bit pattern of the cost above the
/// vertex index. `BinaryHeap` pops its largest key, which is the minimum
/// cost and, on a cost tie, the larger vertex index: the heap order
/// contract the repair's bitwise argument rests on. For non-negative
/// costs the bit pattern grows with the value, so this is the order of
/// [`f64::total_cmp`], and of `<`, on every cost the loop pushes
/// (finite, non-negative, never `-0.0`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct HeapEntry(u128);

impl HeapEntry {
    #[inline]
    pub(crate) fn new(cost: f64, node: NodeId) -> Self {
        debug_assert!(
            cost.is_sign_positive(),
            "heap costs are never negative or -0.0"
        );
        HeapEntry((u128::from(!cost.to_bits()) << 32) | node.index() as u128)
    }

    #[inline]
    pub(crate) fn cost(self) -> f64 {
        f64::from_bits(!((self.0 >> 32) as u64))
    }

    #[inline]
    pub(crate) fn node(self) -> NodeId {
        NodeId::new(self.0 as u32 as usize)
    }
}

/// Dijkstra's algorithm from `source` under `config`, writing into a
/// reusable [`DijkstraWorkspace`] — the crate's one search kernel.
///
/// The returned [`DijkstraRun`] borrows the workspace; query it (or
/// clone it out) before starting the next run. Complexity
/// `O((|E| + |V|) log |V|)` with a binary heap, matching the
/// `O(|E| + |V| log |V|)` the paper quotes for Algorithm 1 up to the
/// usual binary-heap log factor.
///
/// # Panics
///
/// Panics if `edge_cost` returns a negative or NaN value. In release
/// builds the violation is detected by a single deferred check when the
/// run completes (the hot relaxation loop pays no branch-and-format per
/// edge); debug builds additionally pinpoint the offending edge at the
/// relaxation itself. A NaN or negative cost never corrupts a returned
/// result: the run panics before the run is handed back.
pub fn dijkstra_into<'w, N, E, FC, FR>(
    ws: &'w mut DijkstraWorkspace,
    g: &Graph<N, E>,
    source: NodeId,
    config: &DijkstraConfig<FC, FR>,
) -> &'w DijkstraRun
where
    FC: Fn(EdgeRef<'_, E>) -> f64,
    FR: Fn(NodeId) -> bool,
{
    qnet_obs::counter!("graph.dijkstra.calls");
    qnet_obs::counter!("graph.workspace.runs");
    let _span = qnet_obs::span!("graph.dijkstra.run");
    let n = g.node_count();
    ws.pass.begin(n);
    ws.labels.reset(source, n);
    ws.labels.dist[source.index()] = 0.0;
    ws.pass.heap.push(HeapEntry::new(0.0, source));
    let tally = relax::<false, _, _, _, _>(&mut ws.labels, &mut ws.pass, g, config);
    qnet_obs::counter!("graph.dijkstra.settled"; tally.settled);
    qnet_obs::counter!("graph.dijkstra.relaxations"; tally.relaxations);
    &ws.labels
}

/// What one [`relax`] pass did.
#[derive(Default)]
pub(crate) struct RelaxTally {
    /// Vertices whose label became final: popped relays plus vertices
    /// kept off the heap, each counted once.
    pub(crate) settled: u64,
    /// Successful relaxations (strict label improvements).
    pub(crate) relaxations: u64,
}

/// The offer rule of every pass, search and repair alike: `node`, at
/// label `cost`, offers `v` the label `cand` over the edge `eid`.
///
/// A smaller offer takes `v`'s label and predecessor, and the call
/// returns `true`. An offer equal to a finite label moves only the
/// predecessor, and only when `node` pops before the stored predecessor
/// `p` in a fresh search: never when `p` popped in this pass; otherwise
/// when `cost` is below `p`'s label, or equal with a larger vertex
/// index; and, when the offer comes from `p` itself, when `eid` comes
/// earlier in `p`'s adjacency (adjacency lists are in edge-id order).
/// In a fresh search the stored predecessor always popped first, so the
/// rule never fires there. It decides ties in a repair, where a vertex
/// that pops before `node` in a fresh search may never pop in the pass:
/// the kept boundary of the re-run, which offers once before the loop,
/// and the vertices whose labels do not fall in the decrease pass.
#[inline]
pub(crate) fn offer(
    run: &mut DijkstraRun,
    pass: &Pass,
    v: NodeId,
    node: NodeId,
    cost: f64,
    eid: EdgeId,
    cand: f64,
) -> bool {
    let i = v.index();
    if cand < run.dist[i] {
        run.dist[i] = cand;
        run.prev[i] = Some((node, eid));
        return true;
    }
    if cand == run.dist[i] {
        if let Some((p, pe)) = run.prev[i] {
            let first = if p == node {
                eid < pe
            } else {
                let pd = run.dist[p.index()];
                !pass.popped(p) && (cost < pd || (cost == pd && node > p))
            };
            if first {
                run.prev[i] = Some((node, eid));
            }
        }
    }
    false
}

/// The relaxation loop shared by [`dijkstra_into`] and
/// [`crate::delta::dijkstra_repair_into`]: pops `pass.heap` until it is
/// empty, expanding every popped vertex into `run`'s labels.
///
/// The heap holds only vertices that expand — the source and vertices
/// `can_relay` admits — seeded by the caller at the start of a pass. A
/// vertex's relay flag is read at its first improving offer in the
/// pass and kept for the rest of it; a vertex first reached from an
/// infinite label that does not relay is counted as settled right away
/// (the module docs give the argument why its label is already final).
/// An improved vertex is pushed only if it relays. A `CONFINED` pass (the
/// repair's re-run) offers only into the pass's open vertices; every
/// other vertex keeps its stored label. Every offer goes through
/// [`offer`], which holds the tie rule.
///
/// # Panics
///
/// Panics on a negative or NaN edge cost, once the heap is empty (see
/// [`dijkstra_into`]).
pub(crate) fn relax<const CONFINED: bool, N, E, FC, FR>(
    run: &mut DijkstraRun,
    pass: &mut Pass,
    g: &Graph<N, E>,
    config: &DijkstraConfig<FC, FR>,
) -> RelaxTally
where
    FC: Fn(EdgeRef<'_, E>) -> f64,
    FR: Fn(NodeId) -> bool,
{
    // Tally locally; the callers flush once so the hot loop stays free
    // of shared-state traffic.
    let mut tally = RelaxTally::default();
    // Deferred cost validation: `w >= 0.0` is false for both negative
    // and NaN costs, so a single accumulated flag checked after the loop
    // replaces a per-relaxation assert. NaN cannot leak into results in
    // the meantime (`cand < label` is false for NaN), and the panic
    // below fires before any caller can observe the run.
    let mut costs_ok = true;

    while let Some(entry) = pass.heap.pop() {
        let (cost, node) = (entry.cost(), entry.node());
        if pass.popped(node) {
            continue;
        }
        pass.pop(node);
        tally.settled += 1;

        for &(next, eid) in g.neighbor_slice(node) {
            if pass.closed::<CONFINED>(next) {
                continue;
            }
            let w = (config.edge_cost)(g.edge(eid));
            debug_assert!(
                w >= 0.0 && !w.is_nan(),
                "edge cost must be non-negative and not NaN, got {w} for {eid}"
            );
            costs_ok &= w >= 0.0;
            // The one exclusion rule: an edge of infinite cost is never
            // traversed, so a vertex all of whose edges cost `∞` is never
            // reached and never relays.
            if w.is_infinite() {
                continue;
            }
            let (cand, label) = (cost + w, run.dist[next.index()]);
            if offer(run, pass, next, node, cost, eid, cand) {
                let relays = pass.relays(next, &config.can_relay);
                if label == f64::INFINITY && !relays {
                    tally.settled += 1;
                }
                tally.relaxations += 1;
                if relays {
                    pass.heap.push(HeapEntry::new(cand, next));
                }
            }
        }
    }

    assert!(
        costs_ok,
        "edge cost must be non-negative and not NaN (search from {}; \
         rebuild with debug assertions to locate the offending edge)",
        run.source
    );
    tally
}

/// Breadth-first shortest path by hop count, ignoring weights.
///
/// Returns `None` when `target` is unreachable from `source`.
pub fn bfs_path<N, E>(g: &Graph<N, E>, source: NodeId, target: NodeId) -> Option<Path> {
    let n = g.node_count();
    let mut prev: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    seen[source.index()] = true;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        if v == target {
            break;
        }
        for (next, eid) in g.neighbors(v) {
            if !seen[next.index()] {
                seen[next.index()] = true;
                prev[next.index()] = Some((v, eid));
                queue.push_back(next);
            }
        }
    }
    if !seen[target.index()] {
        return None;
    }
    let mut nodes = vec![target];
    let mut edges = Vec::new();
    let mut cur = target;
    while let Some((p, e)) = prev[cur.index()] {
        nodes.push(p);
        edges.push(e);
        cur = p;
    }
    nodes.reverse();
    edges.reverse();
    let cost = edges.len() as f64;
    Some(Path { nodes, edges, cost })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 -1- 1 -1- 2
    ///  \----5----/
    fn diamond() -> (Graph<(), f64>, [NodeId; 3]) {
        let mut g = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, 1.0);
        g.add_edge(b, c, 1.0);
        g.add_edge(a, c, 5.0);
        (g, [a, b, c])
    }

    fn cost(e: EdgeRef<'_, f64>) -> f64 {
        *e.payload
    }

    fn dijkstra<FC, FR>(
        g: &Graph<(), f64>,
        source: NodeId,
        cfg: &DijkstraConfig<FC, FR>,
    ) -> DijkstraRun
    where
        FC: Fn(EdgeRef<'_, f64>) -> f64,
        FR: Fn(NodeId) -> bool,
    {
        dijkstra_into(&mut DijkstraWorkspace::new(), g, source, cfg).clone()
    }

    #[test]
    fn shortest_path_basic() {
        let (g, [a, b, c]) = diamond();
        let run = dijkstra(&g, a, &DijkstraConfig::all_nodes(cost));
        assert_eq!(run.distance(c), Some(2.0));
        let p = run.path_to(c).unwrap();
        assert_eq!(p.nodes, vec![a, b, c]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.source(), a);
        assert_eq!(p.destination(), c);
        assert_eq!(p.interior(), &[b]);
    }

    #[test]
    fn relay_filter_forces_detour() {
        let (g, [a, b, c]) = diamond();
        let cfg = DijkstraConfig {
            edge_cost: cost,
            can_relay: |n: NodeId| n != b,
        };
        let run = dijkstra(&g, a, &cfg);
        // b is still *reachable* (it can be a destination)…
        assert_eq!(run.distance(b), Some(1.0));
        // …but paths may not pass through it.
        assert_eq!(run.distance(c), Some(5.0));
        assert_eq!(run.path_to(c).unwrap().nodes, vec![a, c]);
    }

    #[test]
    fn infinite_edge_cost_excludes_edge() {
        let (g, [a, _b, c]) = diamond();
        let cfg = DijkstraConfig::all_nodes(|e: EdgeRef<'_, f64>| {
            if *e.payload > 2.0 {
                f64::INFINITY
            } else {
                *e.payload
            }
        });
        let run = dijkstra(&g, a, &cfg);
        assert_eq!(run.distance(c), Some(2.0));
    }

    #[test]
    fn unreachable_is_none() {
        let mut g: Graph<(), f64> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let run = dijkstra(&g, a, &DijkstraConfig::all_nodes(cost));
        assert_eq!(run.distance(b), None);
        assert!(run.path_to(b).is_none());
    }

    #[test]
    fn source_distance_is_zero() {
        let (g, [a, ..]) = diamond();
        let run = dijkstra(&g, a, &DijkstraConfig::all_nodes(cost));
        assert_eq!(run.distance(a), Some(0.0));
        let p = run.path_to(a).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.interior(), &[] as &[NodeId]);
    }

    #[test]
    fn picks_cheaper_of_parallel_edges() {
        let mut g: Graph<(), f64> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 3.0);
        let cheap = g.add_edge(a, b, 1.0);
        let run = dijkstra(&g, a, &DijkstraConfig::all_nodes(cost));
        let p = run.path_to(b).unwrap();
        assert_eq!(p.cost, 1.0);
        assert_eq!(p.edges, vec![cheap]);
    }

    #[test]
    fn heap_pops_min_cost_then_larger_index() {
        let subnormal = f64::from_bits(1);
        assert!(subnormal > 0.0 && !subnormal.is_normal());
        let pushed = [
            (1.0, 5),
            (2.0, 4),
            (subnormal, 1),
            (0.0, 3),
            (1.0, 9),
            (2.0, 4),
            (1.0, 2),
            (0.0, 7),
        ];
        let mut heap: BinaryHeap<HeapEntry> = pushed
            .iter()
            .map(|&(cost, i)| HeapEntry::new(cost, NodeId::new(i)))
            .collect();
        let popped: Vec<(u64, usize)> = std::iter::from_fn(|| heap.pop())
            .map(|e| (e.cost().to_bits(), e.node().index()))
            .collect();
        let want = [
            (0.0, 7),
            (0.0, 3),
            (subnormal, 1),
            (1.0, 9),
            (1.0, 5),
            (1.0, 2),
            (2.0, 4),
            (2.0, 4),
        ]
        .map(|(cost, i): (f64, usize)| (cost.to_bits(), i));
        assert_eq!(popped, want);
    }

    #[test]
    fn zero_cost_edges_keep_the_first_popped_predecessor() {
        // s —1— u(3) —0— p(5), and u —1— v, p —1— v. u pops before p,
        // which it reaches at the same cost; both then offer v the same
        // label. The first offer stands even though p's index is larger:
        // the tie rule never moves a predecessor that already popped.
        let mut g: Graph<(), f64> = Graph::new();
        let ids: Vec<NodeId> = (0..6).map(|_| g.add_node(())).collect();
        let (s, v, u, p) = (ids[0], ids[1], ids[3], ids[5]);
        g.add_edge(s, u, 1.0);
        g.add_edge(u, p, 0.0);
        let uv = g.add_edge(u, v, 1.0);
        g.add_edge(p, v, 1.0);
        let run = dijkstra(&g, s, &DijkstraConfig::all_nodes(cost));
        assert_eq!(run.distance(p), Some(1.0));
        assert_eq!(run.prev_hop(v), Some((u, uv)));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_cost_panics() {
        let (g, [a, ..]) = diamond();
        let cfg = DijkstraConfig::all_nodes(|_e: EdgeRef<'_, f64>| -1.0);
        dijkstra(&g, a, &cfg);
    }

    #[test]
    fn bfs_prefers_fewest_hops() {
        let (g, [a, b, c]) = diamond();
        // Weighted shortest is a-b-c; hop shortest is the direct a-c edge.
        let p = bfs_path(&g, a, c).unwrap();
        assert_eq!(p.nodes, vec![a, c]);
        assert_eq!(bfs_path(&g, a, b).unwrap().len(), 1);
        let mut g2: Graph<(), f64> = Graph::new();
        let x = g2.add_node(());
        let y = g2.add_node(());
        assert!(bfs_path(&g2, x, y).is_none());
    }
}
