//! Incremental SSSP repair: patch a completed Dijkstra run in place
//! after relay and edge changes instead of re-running from scratch.
//!
//! A delta ([`SsspDelta`]) holds the net changes since the stored run:
//! edges that became unusable ([`SsspDelta::block_edge`]), vertices that
//! lost interior-relay permission ([`SsspDelta::block_node`] — in MUERP
//! terms, a switch dropped below two free qubits) and vertices that got
//! it back ([`SsspDelta::restore_node`] — a departure gave qubits back).
//! [`dijkstra_repair_into`] applies the blocks first, with the restored
//! vertices still treated as non-relays, and then the restores:
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
//!    does not relay would pop and expand nothing, so, as in a fresh
//!    search, it stays off the heap and is counted as resettled when
//!    seeded.
//! 4. **Decrease** — every reached restored relay is pushed at its
//!    label, every reached slot is unsettled and its relay flag is
//!    re-read from the post-delta filter, and the same loop runs again.
//!    Labels only fall in this pass, and it pops only the restored
//!    relays and the relays whose label fell.
//!
//! The result is not merely equal-cost: it is **bitwise identical** to
//! a from-scratch run under the post-delta configuration — same
//! distances, same predecessor choices under floating-point cost ties —
//! provided every relaxation strictly raises the cost (positive edge
//! costs that never vanish in a sum, as Algorithm 1's are). Then a fresh
//! search pops in the heap order of [`crate::paths`] — minimum cost
//! first, larger index first on a tie — and its predecessor of a vertex
//! is the first offer, in that order, that reaches the final label. In
//! phase 3 (a) the heap order is a pure function of `(cost, node
//! index)`, (b) every neighbor that offers a relaxation into the
//! affected region in the fresh run either is affected itself or is a
//! boundary seed popping at the same final distance, and (c) offers
//! therefore arrive with identical values in an identical relative
//! order. In phase 4 the vertices that pop in the fresh run but not in
//! the pass keep their labels, so the loop's tie rule compares an equal
//! offer against the stored predecessor by `(label, index)` — and by
//! adjacency position for an offer from the predecessor itself — and
//! keeps whichever pops first (DESIGN.md §15 has the argument).
//! `tests/delta_equivalence.rs` and `tests/kernel_reference.rs` pit the
//! repair against fresh runs over arbitrary topologies, delta
//! sequences, masked overlays and loaded workspaces.
//!
//! An edge coming back is not a delta this module takes; callers search
//! afresh for it.

use crate::graph::{EdgeId, EdgeRef, Graph, NodeId};
use crate::paths::{relax, DijkstraConfig, DijkstraView, DijkstraWorkspace, HeapEntry};

/// The net changes to apply against a completed run: edges that became
/// unusable, vertices that lost relay permission and vertices that got
/// it back.
///
/// Node flips compose: blocking a vertex this delta restores (or
/// restoring one it blocks) cancels the pending flip, and reporting the
/// same flip twice records it once.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SsspDelta {
    blocked_nodes: Vec<NodeId>,
    restored_nodes: Vec<NodeId>,
    blocked_edges: Vec<EdgeId>,
}

/// Removes `v` from `from` if present, else adds it to `to` unless
/// already there.
fn flip(from: &mut Vec<NodeId>, to: &mut Vec<NodeId>, v: NodeId) {
    if let Some(i) = from.iter().position(|&x| x == v) {
        from.swap_remove(i);
    } else if !to.contains(&v) {
        to.push(v);
    }
}

impl SsspDelta {
    /// An empty delta (repairing against it is a no-op).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `v` may no longer serve as an interior relay, or
    /// cancels a pending restore of `v`.
    pub fn block_node(&mut self, v: NodeId) -> &mut Self {
        flip(&mut self.restored_nodes, &mut self.blocked_nodes, v);
        self
    }

    /// Records that `v` may serve as an interior relay again, or cancels
    /// a pending block of `v`.
    pub fn restore_node(&mut self, v: NodeId) -> &mut Self {
        flip(&mut self.blocked_nodes, &mut self.restored_nodes, v);
        self
    }

    /// Records that `e` may no longer be traversed.
    pub fn block_edge(&mut self, e: EdgeId) -> &mut Self {
        if !self.blocked_edges.contains(&e) {
            self.blocked_edges.push(e);
        }
        self
    }

    /// `true` when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.blocked_nodes.is_empty()
            && self.restored_nodes.is_empty()
            && self.blocked_edges.is_empty()
    }

    /// The vertices whose relay permission was revoked.
    pub fn blocked_nodes(&self) -> &[NodeId] {
        &self.blocked_nodes
    }

    /// The vertices whose relay permission came back.
    pub fn restored_nodes(&self) -> &[NodeId] {
        &self.restored_nodes
    }

    /// The edges that became unusable.
    pub fn blocked_edges(&self) -> &[EdgeId] {
        &self.blocked_edges
    }
}

/// What one [`dijkstra_repair_into`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Vertices whose stored state a block invalidated.
    pub affected: usize,
    /// Restored relays the decrease pass was seeded at (those the run
    /// reaches).
    pub restored: usize,
    /// Vertices the repair loop settled: the re-run's seeds and
    /// re-reached region, and what the decrease pass popped or first
    /// reached.
    pub resettled: u64,
    /// Successful relaxations during the repair.
    pub relaxations: u64,
}

impl RepairStats {
    /// `true` when the delta did not touch the stored tree at all.
    pub fn is_clean(&self) -> bool {
        self.affected == 0 && self.restored == 0
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
    node_restored: Vec<bool>,
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
        self.node_restored.clear();
        self.node_restored.resize(nodes, false);
        self.edge_blocked.clear();
        self.edge_blocked.resize(edges, false);
        self.state.clear();
        self.state.resize(nodes, UNKNOWN);
        self.chain.clear();
        for &v in delta.blocked_nodes() {
            self.node_blocked[v.index()] = true;
        }
        for &v in delta.restored_nodes() {
            self.node_restored[v.index()] = true;
        }
        for &e in delta.blocked_edges() {
            self.edge_blocked[e.index()] = true;
        }
    }
}

/// Repairs the run held in `ws` against `delta`, in place.
///
/// `ws` must hold a completed run over `g` (same vertex count) under the
/// configuration the delta is relative to, and `config` must be the
/// **post-delta** configuration: `edge_cost` returns `INFINITY` for
/// every blocked edge, and `can_relay` is `false` for every blocked node
/// and `true` for every restored one (on top of whatever else it
/// filters). When every relaxation strictly raises the cost, the
/// repaired workspace is bitwise identical — distances *and*
/// predecessor choices — to a fresh
/// [`dijkstra_into`](crate::paths::dijkstra_into) under `config`.
///
/// Emits `graph.delta.repaired` and `graph.delta.resettled` for a
/// repair that did work, plus `graph.delta.restored` when the decrease
/// pass ran, or `graph.delta.clean` when the delta misses the stored
/// tree entirely, through `qnet-obs`. (A finder cache filters its
/// deltas so that every repair it runs does work; its own
/// `graph.delta.clean` counts O(1) revalidations.)
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
    let mut stats = RepairStats::default();
    if !delta.blocked_nodes().is_empty() || !delta.blocked_edges().is_empty() {
        scratch.reset(n, g.edge_count(), delta);
        repair_blocks(ws, scratch, g, config, &mut stats);
    }
    if !delta.restored_nodes().is_empty() {
        decrease(ws, g, config, delta.restored_nodes(), &mut stats);
    }
    if stats.is_clean() {
        qnet_obs::counter!("graph.delta.clean");
    } else {
        qnet_obs::counter!("graph.delta.repaired");
        qnet_obs::counter!("graph.delta.resettled"; stats.resettled);
        if stats.restored > 0 {
            qnet_obs::counter!("graph.delta.restored");
        }
    }
    (DijkstraView::over(ws), stats)
}

/// Phases 1–3 (mark, clear, re-run) for the blocked elements, with the
/// restored vertices still treated as non-relays, as in the stored run.
fn repair_blocks<N, E, FC, FR>(
    ws: &mut DijkstraWorkspace,
    scratch: &mut RepairScratch,
    g: &Graph<N, E>,
    config: &DijkstraConfig<FC, FR>,
    stats: &mut RepairStats,
) where
    FC: Fn(EdgeRef<'_, E>) -> f64,
    FR: Fn(NodeId) -> bool,
{
    let RepairScratch {
        node_blocked,
        node_restored,
        edge_blocked,
        state,
        chain,
    } = scratch;
    let config = DijkstraConfig {
        edge_cost: &config.edge_cost,
        can_relay: |v: NodeId| !node_restored[v.index()] && (config.can_relay)(v),
    };
    let n = ws.active_len;
    let source = ws.source;

    // Phase 1 — mark: a node is affected iff its predecessor chain
    // crosses a blocked element. Each chain walk stops at the first
    // node with a known verdict and back-propagates it, so every node
    // is classified exactly once.
    state[source.index()] = KEEP;
    for i in 0..n {
        if !ws.is_current(i) || !ws.dist[i].is_finite() {
            continue;
        }
        let mut cur = i;
        let verdict = loop {
            match state[cur] {
                UNKNOWN => {}
                known => break known,
            }
            match ws.prev[cur] {
                None => break KEEP, // the source (stamped, no predecessor)
                Some((p, e)) => {
                    if edge_blocked[e.index()] || (node_blocked[p.index()] && p != source) {
                        state[cur] = AFFECTED;
                        break AFFECTED;
                    }
                    chain.push(cur);
                    cur = p.index();
                }
            }
        };
        state[cur] = verdict;
        for u in chain.drain(..) {
            state[u] = verdict;
        }
    }

    stats.affected = state.iter().filter(|&&s| s == AFFECTED).count();
    if stats.affected == 0 {
        return;
    }

    // Phase 2 — clear the affected slots and seed the boundary: every
    // kept node adjacent to an affected one re-enters the loop at its
    // exact final distance. A seed that relays goes on the heap with its
    // settled flag dropped, so the loop re-relaxes out of it verbatim; a
    // seed that does not relay would pop and expand nothing, so it is
    // counted here and stays settled.
    ws.heap.clear();
    for (i, &s) in state.iter().enumerate() {
        if s == AFFECTED {
            ws.dist[i] = f64::INFINITY;
            ws.prev[i] = None;
            ws.settled[i] = false;
        }
    }
    for i in 0..n {
        if state[i] != AFFECTED {
            continue;
        }
        for &(p, _) in g.neighbor_slice(NodeId::new(i)) {
            let pi = p.index();
            if state[pi] != KEEP {
                continue;
            }
            state[pi] = SEED;
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
    let tally = relax(ws, g, &config, None);
    stats.resettled += tally.settled;
    stats.relaxations += tally.relaxations;
}

/// Phase 4, the decrease pass: seeds every reached restored relay at its
/// label and runs the loop with every reached slot unsettled (the source
/// excepted: it pops first in any run) and its relay flag re-read from
/// the post-delta `config`. Labels only fall, so the pass pops exactly
/// the seeds and the relays whose label fell; the loop's tie rule
/// places every equal offer against the stored predecessor.
fn decrease<N, E, FC, FR>(
    ws: &mut DijkstraWorkspace,
    g: &Graph<N, E>,
    config: &DijkstraConfig<FC, FR>,
    restored: &[NodeId],
    stats: &mut RepairStats,
) where
    FC: Fn(EdgeRef<'_, E>) -> f64,
    FR: Fn(NodeId) -> bool,
{
    let source = ws.source;
    let reached =
        |ws: &DijkstraWorkspace, v: NodeId| v != source && ws.dist_at(v.index()).is_finite();
    if !restored.iter().any(|&r| reached(ws, r)) {
        return;
    }
    ws.heap.clear();
    for i in 0..ws.active_len {
        if ws.is_current(i) && ws.dist[i].is_finite() {
            ws.settled[i] = false;
            ws.relays[i] = (config.can_relay)(NodeId::new(i));
        }
    }
    ws.settled[source.index()] = true;
    for &r in restored {
        if reached(ws, r) && ws.relays[r.index()] {
            ws.heap.push(HeapEntry::new(ws.dist[r.index()], r));
            stats.restored += 1;
        }
    }
    let tally = relax(ws, g, config, None);
    stats.resettled += tally.settled;
    stats.relaxations += tally.relaxations;
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
        assert!(crate::connectivity::bridges(&g).contains(&bc));
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
    fn restoring_a_relay_repairs_in_place() {
        let (g, [a, b, c], _) = diamond();
        let mut ws = DijkstraWorkspace::new();
        let without_b = DijkstraConfig {
            edge_cost: cost,
            can_relay: |v: NodeId| v != b,
        };
        dijkstra_into(&mut ws, &g, a, &without_b, None);
        assert_eq!(ws.dist_at(c.index()), 5.0);
        let mut delta = SsspDelta::new();
        delta.restore_node(b);
        let mut scratch = RepairScratch::new();
        let (view, stats) = dijkstra_repair_into(
            &mut ws,
            &mut scratch,
            &g,
            &DijkstraConfig::all_nodes(cost),
            &delta,
        );
        assert_eq!((stats.affected, stats.restored), (0, 1));
        assert!(!stats.is_clean());
        assert_eq!(view.to_run(), fresh(&g, a, None, None));
        assert_eq!(view.distance(c), Some(2.0));
    }

    #[test]
    fn a_restored_tie_moves_to_the_first_popped_offer() {
        // a reaches p(1) and r(2) at cost 1; both offer v(3) cost 2. With
        // r blocked, p is v's predecessor. Restoring r makes r pop first
        // (equal cost, larger index), so a fresh search keeps r's offer:
        // the decrease pass must move v's predecessor on the tie.
        let mut g: Graph<(), f64> = Graph::new();
        let [a, p, r, v] = [(); 4].map(|_| g.add_node(()));
        g.add_edge(a, p, 1.0);
        g.add_edge(a, r, 1.0);
        g.add_edge(p, v, 1.0);
        let rv = g.add_edge(r, v, 1.0);
        let mut ws = DijkstraWorkspace::new();
        let run = dijkstra_into(
            &mut ws,
            &g,
            a,
            &DijkstraConfig {
                edge_cost: cost,
                can_relay: |x: NodeId| x != r,
            },
            None,
        )
        .to_run();
        assert_eq!(run.prev_hop(v).map(|(x, _)| x), Some(p));
        let mut delta = SsspDelta::new();
        delta.restore_node(r);
        let mut scratch = RepairScratch::new();
        let cfg = DijkstraConfig::all_nodes(cost);
        let mut loaded = DijkstraWorkspace::new();
        loaded.load_run(&run);
        for ws in [&mut ws, &mut loaded] {
            let (view, stats) = dijkstra_repair_into(ws, &mut scratch, &g, &cfg, &delta);
            assert_eq!(stats.relaxations, 0, "no label falls, only a tie moves");
            assert_eq!(view.to_run().prev_hop(v), Some((r, rv)));
            assert_eq!(view.to_run(), fresh(&g, a, None, None));
        }
    }

    #[test]
    fn a_tie_from_the_stored_predecessor_moves_to_its_earlier_edge() {
        // p reaches v over two parallel edges. At p's old label
        // 1 + 2⁻⁵² the later edge offers the strictly smaller sum, so it
        // is v's predecessor; restoring r lowers p to exactly 1, where
        // both edges round to the same label 4. A fresh search keeps p's
        // earlier edge, so the decrease pass must move to it.
        let mut g: Graph<(), f64> = Graph::new();
        let [a, p, r, v] = [(); 4].map(|_| g.add_node(()));
        g.add_edge(a, p, 1.0 + f64::EPSILON);
        g.add_edge(a, r, 0.5);
        g.add_edge(r, p, 0.5);
        let early = g.add_edge(p, v, 3.0 + 2.0 * f64::EPSILON);
        let late = g.add_edge(p, v, 3.0);
        let mut ws = DijkstraWorkspace::new();
        let without_r = DijkstraConfig {
            edge_cost: cost,
            can_relay: |x: NodeId| x != r,
        };
        let run = dijkstra_into(&mut ws, &g, a, &without_r, None).to_run();
        assert_eq!(run.prev_hop(v), Some((p, late)));
        let mut delta = SsspDelta::new();
        delta.restore_node(r);
        let mut scratch = RepairScratch::new();
        let (view, _) = dijkstra_repair_into(
            &mut ws,
            &mut scratch,
            &g,
            &DijkstraConfig::all_nodes(cost),
            &delta,
        );
        let repaired = view.to_run();
        assert_eq!(repaired.distance(v), Some(4.0));
        assert_eq!(repaired.prev_hop(v), Some((p, early)));
        assert_eq!(repaired, fresh(&g, a, None, None));
    }

    #[test]
    fn the_source_keeps_its_ties_in_the_decrease_pass() {
        // A zero-cost edge puts the restored u at the source's cost 0,
        // with the larger index: u's equal offer to v must not displace
        // the source, which pops first in any run.
        let mut g: Graph<(), f64> = Graph::new();
        let [s, v, u] = [(); 3].map(|_| g.add_node(()));
        g.add_edge(s, u, 0.0);
        let sv = g.add_edge(s, v, 1.0);
        g.add_edge(u, v, 1.0);
        let mut ws = DijkstraWorkspace::new();
        let without_u = DijkstraConfig {
            edge_cost: cost,
            can_relay: |x: NodeId| x != u,
        };
        dijkstra_into(&mut ws, &g, s, &without_u, None);
        let mut delta = SsspDelta::new();
        delta.restore_node(u);
        let mut scratch = RepairScratch::new();
        let (view, _) = dijkstra_repair_into(
            &mut ws,
            &mut scratch,
            &g,
            &DijkstraConfig::all_nodes(cost),
            &delta,
        );
        assert_eq!(view.to_run().prev_hop(v), Some((s, sv)));
        assert_eq!(view.to_run(), fresh(&g, s, None, None));
    }

    #[test]
    fn mixed_delta_blocks_first_then_restores() {
        // Block b and restore c's detour relay in one delta: the repair
        // must equal a fresh run under the post-delta flags.
        let mut g: Graph<(), f64> = Graph::new();
        let [a, b, c, d, e] = [(); 5].map(|_| g.add_node(()));
        g.add_edge(a, b, 1.0);
        g.add_edge(b, e, 1.0);
        g.add_edge(a, d, 1.5);
        g.add_edge(d, e, 0.5);
        g.add_edge(a, c, 3.0);
        g.add_edge(c, e, 3.0);
        let mut ws = DijkstraWorkspace::new();
        dijkstra_into(
            &mut ws,
            &g,
            a,
            &DijkstraConfig {
                edge_cost: cost,
                can_relay: |x: NodeId| x != d,
            },
            None,
        );
        let mut delta = SsspDelta::new();
        delta.block_node(b).restore_node(d);
        let after = DijkstraConfig {
            edge_cost: cost,
            can_relay: |x: NodeId| x != b,
        };
        let mut scratch = RepairScratch::new();
        let (view, stats) = dijkstra_repair_into(&mut ws, &mut scratch, &g, &after, &delta);
        assert_eq!((stats.affected, stats.restored), (1, 1));
        let mut fresh_ws = DijkstraWorkspace::new();
        assert_eq!(
            view.to_run(),
            dijkstra_into(&mut fresh_ws, &g, a, &after, None).to_run()
        );
        assert_eq!(view.to_run().prev_hop(e).map(|(x, _)| x), Some(d));
        let _ = c;
    }

    #[test]
    fn opposite_flips_cancel_and_repeats_collapse() {
        let (_, [a, b, c], [ab, ..]) = diamond();
        let mut delta = SsspDelta::new();
        delta.block_node(b).restore_node(b);
        assert!(delta.is_empty(), "a block and its restore cancel");
        delta.restore_node(a).restore_node(a).block_node(c);
        assert_eq!(delta.restored_nodes(), &[a]);
        delta.block_node(a).restore_node(c).block_edge(ab);
        assert!(delta.blocked_nodes().is_empty() && delta.restored_nodes().is_empty());
        assert_eq!(delta.blocked_edges(), &[ab]);
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
