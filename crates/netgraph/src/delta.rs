//! Incremental SSSP repair: patch a completed Dijkstra run in place
//! after a *worsening* delta instead of re-running from scratch.
//!
//! A worsening delta removes options: an edge becomes unusable
//! ([`SsspDelta::block_edge`]) or a vertex loses its interior-relay
//! permission ([`SsspDelta::block_node`] — in MUERP terms, a switch
//! dropped below two free qubits). Under such a delta every distance is
//! monotonically non-decreasing, which makes exact in-place repair
//! tractable:
//!
//! 1. **Mark** — walk each node's stored predecessor chain; a node is
//!    *affected* iff its chain crosses a blocked edge or relays through
//!    a blocked (non-source) vertex. Chains are memoized, so marking is
//!    `O(|V|)`.
//! 2. **Clear** — affected slots are reset to the unreached state
//!    (`∞` distance, no predecessor); unaffected slots keep their
//!    distances and predecessors bitwise intact.
//! 3. **Re-run** — unaffected nodes bordering the affected region are
//!    re-seeded at their exact final distances, and the relaxation loop
//!    of [`dijkstra_into`](crate::paths::dijkstra_into) — the same
//!    crate-private function, called without a mask — runs to
//!    completion over the affected region only. A boundary node that
//!    does not relay under the post-delta configuration would pop and
//!    expand nothing, so, as in a fresh search, it stays off the heap
//!    and is counted as resettled when seeded.
//!
//! The result is not merely equal-cost: it is **bitwise identical** to
//! a from-scratch run under the post-delta configuration — same
//! distances, same predecessor choices under floating-point cost ties.
//! That holds because (a) the heap order is a pure function of
//! `(cost, node index)` — minimum cost first, larger index first on a
//! tie, the contract in [`crate::paths`] — (b) every neighbor that
//! offers a relaxation into the affected region in the fresh run either
//! is affected itself or is a boundary seed popping at the same final
//! distance, and (c) offers therefore arrive with identical values in
//! an identical relative order. `tests/delta_equivalence.rs` pits the
//! repair against fresh runs over arbitrary topologies, delta
//! sequences, and masked overlays.
//!
//! *Improving* deltas (a blocked element coming back) can flip
//! predecessor choices on exact cost ties in ways no local patch can
//! reproduce bitwise, so this module deliberately refuses to handle
//! them: callers classify those as full recomputes (see
//! `ChannelFinderCache` in `muerp-core`).
//!
//! [`DeltaClassifier`] is the graph-level pre-filter: connected
//! components and bridges from [`crate::connectivity`] bound which
//! sources a delta can possibly affect before any per-run work.

use crate::connectivity::{bridges, connected_components};
use crate::graph::{EdgeId, EdgeRef, Graph, NodeId};
use crate::paths::{relax, DijkstraConfig, DijkstraView, DijkstraWorkspace, HeapEntry};

/// A batch of *worsening* changes to apply against a completed run:
/// edges that became unusable and vertices that lost relay permission.
///
/// Deltas are deduplicated on insertion, so repeatedly reporting the
/// same blocked element composes to a single block.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SsspDelta {
    blocked_nodes: Vec<NodeId>,
    blocked_edges: Vec<EdgeId>,
}

impl SsspDelta {
    /// An empty delta (repairing against it is a no-op).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `v` may no longer serve as an interior relay.
    pub fn block_node(&mut self, v: NodeId) -> &mut Self {
        if !self.blocked_nodes.contains(&v) {
            self.blocked_nodes.push(v);
        }
        self
    }

    /// Records that `e` may no longer be traversed.
    pub fn block_edge(&mut self, e: EdgeId) -> &mut Self {
        if !self.blocked_edges.contains(&e) {
            self.blocked_edges.push(e);
        }
        self
    }

    /// Folds every block of `other` into this delta.
    pub fn merge(&mut self, other: &SsspDelta) {
        for &v in &other.blocked_nodes {
            self.block_node(v);
        }
        for &e in &other.blocked_edges {
            self.block_edge(e);
        }
    }

    /// `true` when nothing is blocked.
    pub fn is_empty(&self) -> bool {
        self.blocked_nodes.is_empty() && self.blocked_edges.is_empty()
    }

    /// The vertices whose relay permission was revoked.
    pub fn blocked_nodes(&self) -> &[NodeId] {
        &self.blocked_nodes
    }

    /// The edges that became unusable.
    pub fn blocked_edges(&self) -> &[EdgeId] {
        &self.blocked_edges
    }
}

/// Graph-level delta classification: connected components and bridges,
/// computed once per topology, bound which sources a delta can reach
/// before any per-run inspection.
///
/// A delta at a vertex (or edge) in a different component than a
/// source can never touch that source's shortest-path tree; a blocked
/// *bridge* conversely disconnects every source on the far side from
/// the entire subtree it carried. Both facts come straight from
/// [`crate::connectivity`].
#[derive(Clone, Debug)]
pub struct DeltaClassifier {
    component: Vec<usize>,
    component_count: usize,
    bridge: Vec<bool>,
}

impl DeltaClassifier {
    /// Analyzes `g` once: component labels plus the bridge set.
    pub fn new<N, E>(g: &Graph<N, E>) -> Self {
        let (component, component_count) = connected_components(g);
        let mut bridge = vec![false; g.edge_count()];
        for e in bridges(g) {
            bridge[e.index()] = true;
        }
        DeltaClassifier {
            component,
            component_count,
            bridge,
        }
    }

    /// Number of connected components in the analyzed graph.
    pub fn component_count(&self) -> usize {
        self.component_count
    }

    /// The component label of `v`.
    pub fn component_of(&self, v: NodeId) -> usize {
        self.component[v.index()]
    }

    /// `true` when `a` and `b` share a component.
    pub fn same_component(&self, a: NodeId, b: NodeId) -> bool {
        self.component[a.index()] == self.component[b.index()]
    }

    /// `true` when `e` is a bridge (its loss disconnects the graph).
    pub fn is_bridge(&self, e: EdgeId) -> bool {
        self.bridge[e.index()]
    }

    /// `true` when a capacity delta at `v` can possibly affect a run
    /// rooted at `source` (structurally — same component).
    pub fn node_may_affect(&self, source: NodeId, v: NodeId) -> bool {
        self.same_component(source, v)
    }

    /// `true` when an edge delta at `e` can possibly affect a run
    /// rooted at `source`.
    pub fn edge_may_affect<N, E>(&self, g: &Graph<N, E>, source: NodeId, e: EdgeId) -> bool {
        let (a, _) = g.endpoints(e);
        self.same_component(source, a)
    }

    /// Filters `sources` down to those a delta at `v` could affect.
    pub fn affected_sources(&self, sources: &[NodeId], v: NodeId) -> Vec<NodeId> {
        sources
            .iter()
            .copied()
            .filter(|&s| self.node_may_affect(s, v))
            .collect()
    }
}

/// What one [`dijkstra_repair_into`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Vertices whose stored state the delta invalidated.
    pub affected: usize,
    /// Vertices the repair loop settled (seeds + re-reached region).
    pub resettled: u64,
    /// Successful relaxations during the repair.
    pub relaxations: u64,
}

impl RepairStats {
    /// `true` when the delta did not touch the stored tree at all.
    pub fn is_clean(&self) -> bool {
        self.affected == 0
    }
}

const UNKNOWN: u8 = 0;
const KEEP: u8 = 1;
const AFFECTED: u8 = 2;
/// A kept node already seeded by phase 2.
const SEED: u8 = 3;

/// Reusable buffers for [`dijkstra_repair_into`]; hold one per thread
/// or cache and repairs allocate nothing in steady state.
#[derive(Clone, Debug, Default)]
pub struct RepairScratch {
    node_blocked: Vec<bool>,
    edge_blocked: Vec<bool>,
    state: Vec<u8>,
    chain: Vec<usize>,
}

impl RepairScratch {
    /// Fresh scratch; buffers are sized lazily per repair.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, nodes: usize, edges: usize, delta: &SsspDelta) {
        self.node_blocked.clear();
        self.node_blocked.resize(nodes, false);
        self.edge_blocked.clear();
        self.edge_blocked.resize(edges, false);
        self.state.clear();
        self.state.resize(nodes, UNKNOWN);
        self.chain.clear();
        for &v in delta.blocked_nodes() {
            self.node_blocked[v.index()] = true;
        }
        for &e in delta.blocked_edges() {
            self.edge_blocked[e.index()] = true;
        }
    }
}

/// Repairs the run held in `ws` against a worsening `delta`, in place.
///
/// `ws` must hold a completed run over `g` (same vertex count), and
/// `config` must be the **post-delta** configuration: `edge_cost`
/// returns `INFINITY` for every blocked edge and `can_relay` is `false`
/// for every blocked node (on top of whatever else it filters). The
/// repaired workspace is bitwise identical — distances *and*
/// predecessor choices — to a fresh
/// [`dijkstra_into`](crate::paths::dijkstra_into) under `config`.
///
/// Emits `graph.delta.repaired` (or `graph.delta.clean` when the delta
/// misses the stored tree entirely) through `qnet-obs`.
///
/// # Panics
///
/// Panics when `ws` holds no run sized for `g`, or if `edge_cost`
/// produces a negative or NaN cost during the repair.
pub fn dijkstra_repair_into<'w, N, E, FC, FR>(
    ws: &'w mut DijkstraWorkspace,
    scratch: &mut RepairScratch,
    g: &Graph<N, E>,
    config: &DijkstraConfig<FC, FR>,
    delta: &SsspDelta,
) -> (DijkstraView<'w>, RepairStats)
where
    FC: Fn(EdgeRef<'_, E>) -> f64,
    FR: Fn(NodeId) -> bool,
{
    let n = g.node_count();
    assert_eq!(ws.active_len, n, "workspace holds no run over this graph");
    let _span = qnet_obs::span!("graph.delta.repair");
    scratch.reset(n, g.edge_count(), delta);
    let source = ws.source;
    let mut stats = RepairStats::default();

    // Phase 1 — mark: a node is affected iff its predecessor chain
    // crosses a blocked element. Each chain walk stops at the first
    // node with a known verdict and back-propagates it, so every node
    // is classified exactly once.
    scratch.state[source.index()] = KEEP;
    for i in 0..n {
        if !ws.is_current(i) || !ws.dist[i].is_finite() {
            continue;
        }
        let mut cur = i;
        let verdict = loop {
            match scratch.state[cur] {
                UNKNOWN => {}
                known => break known,
            }
            match ws.prev[cur] {
                None => break KEEP, // the source (stamped, no predecessor)
                Some((p, e)) => {
                    if scratch.edge_blocked[e.index()]
                        || (scratch.node_blocked[p.index()] && p != source)
                    {
                        scratch.state[cur] = AFFECTED;
                        break AFFECTED;
                    }
                    scratch.chain.push(cur);
                    cur = p.index();
                }
            }
        };
        scratch.state[cur] = verdict;
        for u in scratch.chain.drain(..) {
            scratch.state[u] = verdict;
        }
    }

    stats.affected = scratch.state.iter().filter(|&&s| s == AFFECTED).count();
    if stats.affected == 0 {
        qnet_obs::counter!("graph.delta.clean");
        return (DijkstraView::over(ws), stats);
    }

    // Phase 2 — clear the affected slots and seed the boundary: every
    // kept node adjacent to an affected one re-enters the loop at its
    // exact final distance. A seed that relays goes on the heap with its
    // settled flag dropped, so the loop re-relaxes out of it verbatim; a
    // seed that does not relay would pop and expand nothing, so it is
    // counted here and stays settled.
    ws.heap.clear();
    for i in 0..n {
        if scratch.state[i] == AFFECTED {
            ws.dist[i] = f64::INFINITY;
            ws.prev[i] = None;
            ws.settled[i] = false;
        }
    }
    for i in 0..n {
        if scratch.state[i] != AFFECTED {
            continue;
        }
        for &(p, _) in g.neighbor_slice(NodeId::new(i)) {
            let pi = p.index();
            if scratch.state[pi] != KEEP {
                continue;
            }
            scratch.state[pi] = SEED;
            if p == source || (config.can_relay)(p) {
                ws.settled[pi] = false;
                ws.heap.push(HeapEntry::new(ws.dist[pi], p));
            } else {
                ws.settled[pi] = true;
                stats.resettled += 1;
            }
        }
    }

    // Phase 3 — the search's own relaxation loop over the seeded frontier.
    let tally = relax(ws, g, config, None);
    stats.resettled += tally.settled;
    stats.relaxations += tally.relaxations;

    qnet_obs::counter!("graph.delta.repaired");
    qnet_obs::counter!("graph.delta.resettled"; stats.resettled);
    (DijkstraView::over(ws), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::{dijkstra_into, DijkstraRun};

    fn cost(e: EdgeRef<'_, f64>) -> f64 {
        *e.payload
    }

    /// 0 -1- 1 -1- 2, plus the direct 0 -5- 2 detour.
    fn diamond() -> (Graph<(), f64>, [NodeId; 3], [EdgeId; 3]) {
        let mut g = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let ab = g.add_edge(a, b, 1.0);
        let bc = g.add_edge(b, c, 1.0);
        let ac = g.add_edge(a, c, 5.0);
        (g, [a, b, c], [ab, bc, ac])
    }

    fn fresh(
        g: &Graph<(), f64>,
        source: NodeId,
        blocked_node: Option<NodeId>,
        blocked_edge: Option<EdgeId>,
    ) -> DijkstraRun {
        let cfg = DijkstraConfig {
            edge_cost: |e: EdgeRef<'_, f64>| {
                if Some(e.id) == blocked_edge {
                    f64::INFINITY
                } else {
                    *e.payload
                }
            },
            can_relay: |v: NodeId| Some(v) != blocked_node,
        };
        let mut ws = DijkstraWorkspace::new();
        dijkstra_into(&mut ws, g, source, &cfg, None).to_run()
    }

    #[test]
    fn blocking_a_relay_reroutes_its_subtree() {
        let (g, [a, b, c], _) = diamond();
        let mut ws = DijkstraWorkspace::new();
        dijkstra_into(&mut ws, &g, a, &DijkstraConfig::all_nodes(cost), None);
        let mut delta = SsspDelta::new();
        delta.block_node(b);
        let cfg = DijkstraConfig {
            edge_cost: cost,
            can_relay: |v: NodeId| v != b,
        };
        let mut scratch = RepairScratch::new();
        let (view, stats) = dijkstra_repair_into(&mut ws, &mut scratch, &g, &cfg, &delta);
        assert_eq!(stats.affected, 1, "only c relayed through b");
        assert_eq!(view.to_run(), fresh(&g, a, Some(b), None));
        assert_eq!(view.distance(c), Some(5.0));
        assert_eq!(
            view.distance(b),
            Some(1.0),
            "b stays reachable as an endpoint"
        );
    }

    #[test]
    fn blocking_an_edge_reroutes_through_the_detour() {
        let (g, [a, _b, c], [_, bc, _]) = diamond();
        let mut ws = DijkstraWorkspace::new();
        dijkstra_into(&mut ws, &g, a, &DijkstraConfig::all_nodes(cost), None);
        let mut delta = SsspDelta::new();
        delta.block_edge(bc);
        let cfg = DijkstraConfig::all_nodes(|e: EdgeRef<'_, f64>| {
            if e.id == bc {
                f64::INFINITY
            } else {
                *e.payload
            }
        });
        let mut scratch = RepairScratch::new();
        let (view, stats) = dijkstra_repair_into(&mut ws, &mut scratch, &g, &cfg, &delta);
        assert!(!stats.is_clean());
        assert_eq!(view.to_run(), fresh(&g, a, None, Some(bc)));
        assert_eq!(view.distance(c), Some(5.0));
    }

    #[test]
    fn a_miss_is_clean_and_does_no_work() {
        let (g, [a, b, _c], [_, _, ac]) = diamond();
        let mut ws = DijkstraWorkspace::new();
        dijkstra_into(&mut ws, &g, a, &DijkstraConfig::all_nodes(cost), None);
        // The direct a-c edge carries no shortest path; blocking it
        // leaves the stored tree untouched.
        let mut delta = SsspDelta::new();
        delta.block_edge(ac);
        let cfg = DijkstraConfig::all_nodes(|e: EdgeRef<'_, f64>| {
            if e.id == ac {
                f64::INFINITY
            } else {
                *e.payload
            }
        });
        let mut scratch = RepairScratch::new();
        let (view, stats) = dijkstra_repair_into(&mut ws, &mut scratch, &g, &cfg, &delta);
        assert!(stats.is_clean());
        assert_eq!(stats.resettled, 0);
        assert_eq!(view.to_run(), fresh(&g, a, None, Some(ac)));
        let _ = b;
    }

    #[test]
    fn cutting_a_bridge_unreaches_the_far_side() {
        // a - b - c in a line: b-c is a bridge; losing it strands c.
        let mut g: Graph<(), f64> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, 1.0);
        let bc = g.add_edge(b, c, 1.0);
        let classifier = DeltaClassifier::new(&g);
        assert!(classifier.is_bridge(bc));
        let mut ws = DijkstraWorkspace::new();
        dijkstra_into(&mut ws, &g, a, &DijkstraConfig::all_nodes(cost), None);
        let mut delta = SsspDelta::new();
        delta.block_edge(bc);
        let cfg = DijkstraConfig::all_nodes(|e: EdgeRef<'_, f64>| {
            if e.id == bc {
                f64::INFINITY
            } else {
                *e.payload
            }
        });
        let mut scratch = RepairScratch::new();
        let (view, stats) = dijkstra_repair_into(&mut ws, &mut scratch, &g, &cfg, &delta);
        assert_eq!(stats.affected, 1);
        assert_eq!(view.distance(c), None);
        assert_eq!(view.to_run(), fresh(&g, a, None, Some(bc)));
    }

    #[test]
    fn repairs_compose_across_sequential_deltas() {
        let (g, [a, b, c], [ab, _, _]) = diamond();
        let mut ws = DijkstraWorkspace::new();
        dijkstra_into(&mut ws, &g, a, &DijkstraConfig::all_nodes(cost), None);
        let mut scratch = RepairScratch::new();
        // First delta: b stops relaying.
        let mut d1 = SsspDelta::new();
        d1.block_node(b);
        let cfg1 = DijkstraConfig {
            edge_cost: cost,
            can_relay: |v: NodeId| v != b,
        };
        dijkstra_repair_into(&mut ws, &mut scratch, &g, &cfg1, &d1);
        // Second delta on top: the a-b edge goes away entirely.
        let mut d2 = SsspDelta::new();
        d2.block_edge(ab);
        let cfg2 = DijkstraConfig {
            edge_cost: move |e: EdgeRef<'_, f64>| {
                if e.id == ab {
                    f64::INFINITY
                } else {
                    *e.payload
                }
            },
            can_relay: |v: NodeId| v != b,
        };
        let (view, _) = dijkstra_repair_into(&mut ws, &mut scratch, &g, &cfg2, &d2);
        let mut fresh_ws = DijkstraWorkspace::new();
        let fresh = dijkstra_into(&mut fresh_ws, &g, a, &cfg2, None).to_run();
        assert_eq!(view.to_run(), fresh);
        assert_eq!(
            view.distance(b),
            Some(6.0),
            "b reachable only via a-c-b now"
        );
        assert_eq!(view.distance(c), Some(5.0));
        // And the workspace is still a perfectly good workspace.
        let run = dijkstra_into(&mut ws, &g, c, &DijkstraConfig::all_nodes(cost), None).to_run();
        assert_eq!(run.distance(a), Some(2.0));
    }

    #[test]
    fn merged_delta_repairs_in_one_shot() {
        let (g, [a, b, _c], [_, bc, _]) = diamond();
        let mut ws = DijkstraWorkspace::new();
        dijkstra_into(&mut ws, &g, a, &DijkstraConfig::all_nodes(cost), None);
        let mut delta = SsspDelta::new();
        delta.block_node(b);
        delta.block_edge(bc);
        delta.block_node(b); // deduplicated
        assert_eq!(delta.blocked_nodes().len(), 1);
        let cfg = DijkstraConfig {
            edge_cost: move |e: EdgeRef<'_, f64>| {
                if e.id == bc {
                    f64::INFINITY
                } else {
                    *e.payload
                }
            },
            can_relay: |v: NodeId| v != b,
        };
        let mut scratch = RepairScratch::new();
        let (view, _) = dijkstra_repair_into(&mut ws, &mut scratch, &g, &cfg, &delta);
        let mut fresh_ws = DijkstraWorkspace::new();
        let fresh = dijkstra_into(&mut fresh_ws, &g, a, &cfg, None).to_run();
        assert_eq!(view.to_run(), fresh);
    }

    #[test]
    fn load_run_round_trips_through_the_workspace() {
        let (g, [a, ..], _) = diamond();
        let mut ws = DijkstraWorkspace::new();
        let run = dijkstra_into(&mut ws, &g, a, &DijkstraConfig::all_nodes(cost), None).to_run();
        let mut other = DijkstraWorkspace::new();
        other.load_run(&run);
        assert_eq!(DijkstraView::over(&other).to_run(), run);
        // A loaded run repairs exactly like the original workspace.
        let (_, [_, b, _], _) = diamond();
        let mut delta = SsspDelta::new();
        delta.block_node(b);
        let cfg = DijkstraConfig {
            edge_cost: cost,
            can_relay: move |v: NodeId| v != b,
        };
        let mut scratch = RepairScratch::new();
        let (view, _) = dijkstra_repair_into(&mut other, &mut scratch, &g, &cfg, &delta);
        assert_eq!(view.to_run(), fresh(&g, a, Some(b), None));
    }

    #[test]
    fn classifier_separates_components_and_finds_bridges() {
        let mut g: Graph<(), f64> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        let ab = g.add_edge(a, b, 1.0);
        let cd = g.add_edge(c, d, 1.0);
        let classifier = DeltaClassifier::new(&g);
        assert_eq!(classifier.component_count(), 2);
        assert!(classifier.same_component(a, b));
        assert!(!classifier.same_component(a, c));
        assert!(classifier.is_bridge(ab) && classifier.is_bridge(cd));
        assert!(classifier.node_may_affect(a, b));
        assert!(!classifier.node_may_affect(a, d));
        assert!(classifier.edge_may_affect(&g, c, cd));
        assert!(!classifier.edge_may_affect(&g, a, cd));
        assert_eq!(classifier.affected_sources(&[a, b, c, d], b), vec![a, b]);
    }

    #[test]
    fn equal_cost_ties_keep_the_fresh_predecessor_choice() {
        // Two equal-cost routes to d: a-b-d and a-c-d. Block the third
        // route through e and check the repair lands on exactly the
        // predecessor the fresh run picks.
        let mut g: Graph<(), f64> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        let e = g.add_node(());
        g.add_edge(a, b, 1.0);
        g.add_edge(a, c, 1.0);
        g.add_edge(b, d, 1.0);
        g.add_edge(c, d, 1.0);
        g.add_edge(a, e, 0.5);
        g.add_edge(e, d, 0.5); // shortest route pre-delta: a-e-d at 1.0
        let mut ws = DijkstraWorkspace::new();
        dijkstra_into(&mut ws, &g, a, &DijkstraConfig::all_nodes(cost), None);
        let mut delta = SsspDelta::new();
        delta.block_node(e);
        let cfg = DijkstraConfig {
            edge_cost: cost,
            can_relay: move |v: NodeId| v != e,
        };
        let mut scratch = RepairScratch::new();
        let (view, _) = dijkstra_repair_into(&mut ws, &mut scratch, &g, &cfg, &delta);
        let mut fresh_ws = DijkstraWorkspace::new();
        let fresh = dijkstra_into(&mut fresh_ws, &g, a, &cfg, None).to_run();
        let repaired = view.to_run();
        assert_eq!(repaired, fresh);
        assert_eq!(
            repaired.prev_hop(d).map(|(p, _)| p),
            fresh.prev_hop(d).map(|(p, _)| p),
            "fp-tie predecessor choice must survive the repair"
        );
    }

    #[test]
    #[should_panic(expected = "no run over this graph")]
    fn repairing_a_foreign_workspace_panics() {
        let (g, _, _) = diamond();
        let mut ws = DijkstraWorkspace::new();
        let mut scratch = RepairScratch::new();
        let delta = SsspDelta::new();
        dijkstra_repair_into(
            &mut ws,
            &mut scratch,
            &g,
            &DijkstraConfig::all_nodes(cost),
            &delta,
        );
    }
}
