//! Incremental SSSP repair: patch a completed Dijkstra run in place
//! after relay and edge changes instead of re-running from scratch.
//!
//! A delta ([`SsspDelta`]) holds the net changes since the stored run:
//! edges that became unusable ([`SsspDelta::block_edge`]), vertices that
//! lost interior-relay permission ([`SsspDelta::block_node`] — in MUERP
//! terms, a switch dropped below two free qubits) and vertices that got
//! it back ([`SsspDelta::restore_node`] — a departure gave qubits back).
//! [`dijkstra_repair_into`] patches the caller's [`DijkstraRun`] where
//! it is stored. It applies the blocks first, with the restored vertices
//! still treated as non-relays, and then the restores:
//!
//! 1. **Mark** — walk the stored shortest-path tree *down* from each
//!    reached, non-source blocked vertex and from the child endpoint of
//!    each blocked edge. A child of `x` is a neighbor `u` whose stored
//!    predecessor is exactly `(x, e)` for the adjacency entry `(u, e)`,
//!    so the walk needs no child lists and costs `O(Σ deg)` over the
//!    vertices it marks. A vertex is *affected* iff its predecessor
//!    chain crosses a blocked edge or relays through a blocked vertex.
//! 2. **Clear and offer** — affected slots are reset to the unreached
//!    state (`∞` distance, no predecessor); unaffected slots keep their
//!    distances and predecessors bitwise intact. Each affected vertex
//!    then takes the best offer of its reached, unaffected neighbors
//!    that relay (or are the source), equal offers broken in a fresh
//!    search's pop order. Those neighbors keep their exact final labels
//!    and never enter the heap. An affected vertex that got a finite
//!    label goes on the heap if it relays; one that does not would pop
//!    and expand nothing, so, as in a fresh search, it is counted as
//!    resettled right there.
//! 3. **Re-run** — the relaxation loop of
//!    [`dijkstra_into`](crate::paths::dijkstra_into), the same
//!    crate-private function confined to the affected vertices, runs to
//!    completion.
//! 4. **Decrease** — every reached restored relay is pushed at its
//!    label and the same loop runs again, unconfined, in a new pass:
//!    "settled" means popped in this pass, and the source counts as
//!    popped when the pass starts. Labels only fall in this pass, it
//!    pops only the restored relays and the relays whose label fell,
//!    and each vertex reads its relay flag from the post-delta filter
//!    at its first improving offer.
//!
//! Every phase costs time in the affected region and on its boundary,
//! not in `|V|`: no step scans the whole run, and pass-local facts are
//! generation stamps in the [`DijkstraWorkspace`], so nothing is
//! cleared between repairs (the cost model of Ramalingam & Reps, 1996;
//! DESIGN.md §15).
//!
//! The result is not merely equal-cost: it is **bitwise identical** to
//! a from-scratch run under the post-delta configuration — same
//! distances, same predecessor choices under floating-point cost ties —
//! provided every relaxation strictly raises the cost (positive edge
//! costs that never vanish in a sum, as Algorithm 1's are). Then a fresh
//! search pops in the heap order of [`crate::paths`] — minimum cost
//! first, larger index first on a tie — and its predecessor of a vertex
//! is the first offer, in that order, that reaches the final label. In
//! phases 2–3 (a) the heap order is a pure function of `(cost, node
//! index)`, so the affected vertices pop in the fresh run's relative
//! order, and (b) every neighbor that offers into the affected region
//! in the fresh run is affected itself or an unaffected relay at its
//! exact final label, which makes its offer in phase 2 with the fresh
//! run's value. Such a neighbor never pops in the pass, so the one
//! offer rule (`paths::offer`, shared with the loop) compares an equal
//! offer against it by `(label, index)`, and by adjacency position for
//! a second offer from the same neighbor, and keeps whichever pops
//! first; a predecessor that popped in the pass came first. Phase 4
//! rests on the same rule: the vertices that pop in the fresh run but
//! not in the pass keep their labels (DESIGN.md §15 has the argument).
//! `tests/delta_equivalence.rs` and `tests/kernel_reference.rs` pit the
//! repair against fresh runs over arbitrary topologies, delta
//! sequences, failure masks folded into the edge costs (`+∞` on every
//! blocked edge) and dirty workspaces.
//!
//! An edge coming back is not a delta this module takes; callers search
//! afresh for it.
//!
//! A caller that reads a run at only a few vertices may not need the
//! repair at all: [`serves_targets`] says when relay flips provably move
//! no label and no predecessor chain of a named target set, so the
//! stored run answers for those targets as it is.

use crate::graph::{EdgeId, EdgeRef, Graph, NodeId};
use crate::paths::{offer, relax, DijkstraConfig, DijkstraRun, DijkstraWorkspace, HeapEntry, Pass};

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
    /// Vertices the repair settled: the affected vertices it reached
    /// again (their unaffected neighbors only offer, so they are not
    /// counted), and what the decrease pass popped or first reached.
    pub resettled: u64,
    /// Successful relaxations of the repair loop. The unaffected
    /// neighbors' offers are made before the loop and are not counted.
    pub relaxations: u64,
}

impl RepairStats {
    /// `true` when the delta did not touch the stored tree at all.
    pub fn is_clean(&self) -> bool {
        self.affected == 0 && self.restored == 0
    }
}

/// Repairs `run` against `delta`, in place.
///
/// `run` must be a completed run over `g` under the configuration the
/// delta is relative to, and `config` must be the **post-delta**
/// configuration: `edge_cost` returns `INFINITY` for every blocked edge,
/// and `can_relay` is `false` for every blocked node and `true` for
/// every restored one (on top of whatever else it filters). When every
/// relaxation strictly raises the cost, the repaired run is bitwise
/// identical — distances *and* predecessor choices — to a fresh
/// [`dijkstra_into`](crate::paths::dijkstra_into) under `config`. `ws`
/// supplies only pass-local scratch; its own labels are left alone.
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
/// Panics when `run` is not sized for `g`, or if `edge_cost` produces a
/// negative or NaN cost during the repair.
pub fn dijkstra_repair_into<N, E, FC, FR>(
    ws: &mut DijkstraWorkspace,
    run: &mut DijkstraRun,
    g: &Graph<N, E>,
    config: &DijkstraConfig<FC, FR>,
    delta: &SsspDelta,
) -> RepairStats
where
    FC: Fn(EdgeRef<'_, E>) -> f64,
    FR: Fn(NodeId) -> bool,
{
    assert_eq!(
        run.len(),
        g.node_count(),
        "the run does not cover this graph"
    );
    let _span = qnet_obs::span!("graph.delta.repair");
    let mut stats = RepairStats::default();
    if !delta.blocked_nodes().is_empty() || !delta.blocked_edges().is_empty() {
        repair_blocks(&mut ws.pass, run, g, config, delta, &mut stats);
    }
    if !delta.restored_nodes().is_empty() {
        decrease(
            &mut ws.pass,
            run,
            g,
            config,
            delta.restored_nodes(),
            &mut stats,
        );
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
    stats
}

/// `true` when `run`, exact under one set of relay flags, is also exact
/// at every vertex of `targets` — the same distance bits and the same
/// predecessor chain — under a second set that differs from the first
/// by the relays `lost` reports and the relays `regained` lists. A
/// caller that reads only those targets may then skip the repair and
/// leave `run` as it is.
///
/// Three clauses, all required (DESIGN.md §15 has the argument):
///
/// 1. every target is reached in `run` — a restore could reach one that
///    is not;
/// 2. no interior vertex of a stored path to a target lost its relay
///    flag;
/// 3. every regained relay that `run` reaches has `dist + min_cost`
///    strictly above the largest target distance, so no offer that
///    passes through it can reach a target's label, not even as a tie.
///
/// `min_cost` must bound every edge cost from below, and, as for
/// [`dijkstra_repair_into`], every relaxation must strictly raise the
/// cost. The check walks the stored paths to the targets and scans the
/// regained relays once; it reads nothing else.
pub fn serves_targets(
    run: &DijkstraRun,
    targets: impl IntoIterator<Item = NodeId>,
    lost: impl Fn(NodeId) -> bool,
    regained: impl IntoIterator<Item = NodeId>,
    min_cost: f64,
) -> bool {
    let mut farthest = f64::NEG_INFINITY;
    for t in targets {
        let d = run.dist[t.index()];
        if !d.is_finite() {
            return false;
        }
        farthest = farthest.max(d);
        let mut cur = t;
        while let Some((p, _)) = run.prev[cur.index()] {
            if p != run.source && lost(p) {
                return false;
            }
            cur = p;
        }
    }
    regained
        .into_iter()
        .all(|v| run.dist[v.index()] + min_cost > farthest)
}

/// `true` when `u`, met over the adjacency entry `(u, e)` of `x`, hangs
/// off `x` in the stored tree by exactly that edge.
#[inline]
fn is_child(run: &DijkstraRun, x: NodeId, u: NodeId, e: EdgeId) -> bool {
    run.prev[u.index()] == Some((x, e))
}

/// Adds `u` to the affected list unless it is already on it.
#[inline]
fn mark(pass: &mut Pass, u: NodeId) {
    if pass.open[u.index()] != pass.generation {
        pass.open[u.index()] = pass.generation;
        pass.affected.push(u);
    }
}

/// Marks every child of `x` in the stored tree.
fn mark_children<N, E>(pass: &mut Pass, run: &DijkstraRun, g: &Graph<N, E>, x: NodeId) {
    for &(u, e) in g.neighbor_slice(x) {
        if is_child(run, x, u, e) {
            mark(pass, u);
        }
    }
}

/// Phases 1–3 (mark, clear and offer, re-run) for the blocked elements,
/// with the restored vertices still treated as non-relays, as in the
/// stored run.
fn repair_blocks<N, E, FC, FR>(
    pass: &mut Pass,
    run: &mut DijkstraRun,
    g: &Graph<N, E>,
    config: &DijkstraConfig<FC, FR>,
    delta: &SsspDelta,
    stats: &mut RepairStats,
) where
    FC: Fn(EdgeRef<'_, E>) -> f64,
    FR: Fn(NodeId) -> bool,
{
    pass.begin(g.node_count());
    let source = run.source;

    // Phase 1 — mark: walk the stored tree down from the roots of the
    // affected subtrees. A blocked vertex keeps its own label (its chain
    // does not relay through itself); its children lose theirs. The
    // list doubles as the walk's queue.
    pass.affected.clear();
    for &v in delta.blocked_nodes() {
        if v != source && run.dist[v.index()].is_finite() {
            mark_children(pass, run, g, v);
        }
    }
    for &e in delta.blocked_edges() {
        let (a, b) = g.endpoints(e);
        if is_child(run, a, b, e) {
            mark(pass, b);
        } else if is_child(run, b, a, e) {
            mark(pass, a);
        }
    }
    let mut next = 0;
    while let Some(&x) = pass.affected.get(next) {
        mark_children(pass, run, g, x);
        next += 1;
    }
    stats.affected = pass.affected.len();
    if stats.affected == 0 {
        return;
    }

    // Phase 2 — clear each affected slot, then give it the best offer of
    // its reached, kept neighbors that relay (an affected neighbor is
    // told by its stamp, cleared or not). Kept vertices keep their exact
    // final labels and never pop in this pass, so they offer here, once,
    // and `offer` breaks equal offers in a fresh search's pop order. An
    // affected vertex with a finite label goes on the heap if it relays;
    // one that does not would pop and expand nothing, so it is counted
    // here. Restored vertices read as non-relays for the whole pass.
    for &r in delta.restored_nodes() {
        pass.set_relays(r, false);
    }
    for k in 0..pass.affected.len() {
        let v = pass.affected[k];
        run.dist[v.index()] = f64::INFINITY;
        run.prev[v.index()] = None;
        for &(p, e) in g.neighbor_slice(v) {
            let d = run.dist[p.index()];
            let kept = d.is_finite() && pass.open[p.index()] != pass.generation;
            if kept && (p == source || pass.relays(p, &config.can_relay)) {
                let w = (config.edge_cost)(g.edge(e));
                assert!(
                    w >= 0.0,
                    "edge cost must be non-negative and not NaN, got {w} for {e}"
                );
                offer(run, pass, v, p, d, e, d + w);
            }
        }
        let d = run.dist[v.index()];
        if d.is_finite() {
            if pass.relays(v, &config.can_relay) {
                pass.heap.push(HeapEntry::new(d, v));
            } else {
                stats.resettled += 1;
            }
        }
    }

    // Phase 3 — the search's own relaxation loop, confined to the
    // affected vertices: every other vertex keeps its stored label and
    // refuses offers, as a settled one would.
    let tally = relax::<true, _, _, _, _>(run, pass, g, config);
    stats.resettled += tally.settled;
    stats.relaxations += tally.relaxations;
}

/// Phase 4, the decrease pass: seeds every reached restored relay at its
/// label and runs the loop in a new pass, with the source counted as
/// popped (it pops first in any run). Labels only fall, so the pass pops
/// exactly the seeds and the relays whose label fell, each reading its
/// relay flag from the post-delta `config` at its first improving
/// offer; the loop's tie rule places every equal offer against the
/// stored predecessor.
fn decrease<N, E, FC, FR>(
    pass: &mut Pass,
    run: &mut DijkstraRun,
    g: &Graph<N, E>,
    config: &DijkstraConfig<FC, FR>,
    restored: &[NodeId],
    stats: &mut RepairStats,
) where
    FC: Fn(EdgeRef<'_, E>) -> f64,
    FR: Fn(NodeId) -> bool,
{
    let source = run.source;
    let reached = |run: &DijkstraRun, v: NodeId| v != source && run.dist[v.index()].is_finite();
    if !restored.iter().any(|&r| reached(run, r)) {
        return;
    }
    pass.begin(g.node_count());
    pass.pop(source);
    for &r in restored {
        if reached(run, r) && pass.relays(r, &config.can_relay) {
            pass.heap.push(HeapEntry::new(run.dist[r.index()], r));
            stats.restored += 1;
        }
    }
    let tally = relax::<false, _, _, _, _>(run, pass, g, config);
    stats.resettled += tally.settled;
    stats.relaxations += tally.relaxations;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::dijkstra_into;

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
        dijkstra_into(&mut ws, g, source, &cfg).clone()
    }

    #[test]
    fn blocking_a_relay_reroutes_its_subtree() {
        let (g, [a, b, c], _) = diamond();
        let mut ws = DijkstraWorkspace::new();
        let mut run = dijkstra_into(&mut ws, &g, a, &DijkstraConfig::all_nodes(cost)).clone();
        let mut delta = SsspDelta::new();
        delta.block_node(b);
        let cfg = DijkstraConfig {
            edge_cost: cost,
            can_relay: |v: NodeId| v != b,
        };
        let stats = dijkstra_repair_into(&mut ws, &mut run, &g, &cfg, &delta);
        assert_eq!(stats.affected, 1, "only c relayed through b");
        assert_eq!(run, fresh(&g, a, Some(b), None));
        assert_eq!(run.distance(c), Some(5.0));
        assert_eq!(
            run.distance(b),
            Some(1.0),
            "b stays reachable as an endpoint"
        );
    }

    #[test]
    fn blocking_an_edge_reroutes_through_the_detour() {
        let (g, [a, _b, c], [_, bc, _]) = diamond();
        let mut ws = DijkstraWorkspace::new();
        let mut run = dijkstra_into(&mut ws, &g, a, &DijkstraConfig::all_nodes(cost)).clone();
        let mut delta = SsspDelta::new();
        delta.block_edge(bc);
        let cfg = DijkstraConfig::all_nodes(|e: EdgeRef<'_, f64>| {
            if e.id == bc {
                f64::INFINITY
            } else {
                *e.payload
            }
        });
        let stats = dijkstra_repair_into(&mut ws, &mut run, &g, &cfg, &delta);
        assert!(!stats.is_clean());
        assert_eq!(run, fresh(&g, a, None, Some(bc)));
        assert_eq!(run.distance(c), Some(5.0));
    }

    #[test]
    fn a_miss_is_clean_and_does_no_work() {
        let (g, [a, b, _c], [_, _, ac]) = diamond();
        let mut ws = DijkstraWorkspace::new();
        let mut run = dijkstra_into(&mut ws, &g, a, &DijkstraConfig::all_nodes(cost)).clone();
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
        let stats = dijkstra_repair_into(&mut ws, &mut run, &g, &cfg, &delta);
        assert!(stats.is_clean());
        assert_eq!(stats.resettled, 0);
        assert_eq!(run, fresh(&g, a, None, Some(ac)));
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
        let mut run = dijkstra_into(&mut ws, &g, a, &DijkstraConfig::all_nodes(cost)).clone();
        let mut delta = SsspDelta::new();
        delta.block_edge(bc);
        let cfg = DijkstraConfig::all_nodes(|e: EdgeRef<'_, f64>| {
            if e.id == bc {
                f64::INFINITY
            } else {
                *e.payload
            }
        });
        let stats = dijkstra_repair_into(&mut ws, &mut run, &g, &cfg, &delta);
        assert_eq!(stats.affected, 1);
        assert_eq!(run.distance(c), None);
        assert_eq!(run, fresh(&g, a, None, Some(bc)));
    }

    #[test]
    fn repairs_compose_across_sequential_deltas() {
        let (g, [a, b, c], [ab, _, _]) = diamond();
        let mut ws = DijkstraWorkspace::new();
        let mut run = dijkstra_into(&mut ws, &g, a, &DijkstraConfig::all_nodes(cost)).clone();
        // First delta: b stops relaying.
        let mut d1 = SsspDelta::new();
        d1.block_node(b);
        let cfg1 = DijkstraConfig {
            edge_cost: cost,
            can_relay: |v: NodeId| v != b,
        };
        dijkstra_repair_into(&mut ws, &mut run, &g, &cfg1, &d1);
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
        dijkstra_repair_into(&mut ws, &mut run, &g, &cfg2, &d2);
        let mut fresh_ws = DijkstraWorkspace::new();
        let fresh = dijkstra_into(&mut fresh_ws, &g, a, &cfg2).clone();
        assert_eq!(run, fresh);
        assert_eq!(run.distance(b), Some(6.0), "b reachable only via a-c-b now");
        assert_eq!(run.distance(c), Some(5.0));
        // And the workspace is still a perfectly good workspace.
        let run = dijkstra_into(&mut ws, &g, c, &DijkstraConfig::all_nodes(cost)).clone();
        assert_eq!(run.distance(a), Some(2.0));
    }

    #[test]
    fn merged_delta_repairs_in_one_shot() {
        let (g, [a, b, _c], [_, bc, _]) = diamond();
        let mut ws = DijkstraWorkspace::new();
        let mut run = dijkstra_into(&mut ws, &g, a, &DijkstraConfig::all_nodes(cost)).clone();
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
        dijkstra_repair_into(&mut ws, &mut run, &g, &cfg, &delta);
        let mut fresh_ws = DijkstraWorkspace::new();
        let fresh = dijkstra_into(&mut fresh_ws, &g, a, &cfg).clone();
        assert_eq!(run, fresh);
    }

    #[test]
    fn a_repair_ignores_the_workspace_history() {
        // The same stored run repaired on a fresh workspace and on one
        // whose stamps and labels hold another source's search.
        let (g, [a, b, c], _) = diamond();
        let mut ws = DijkstraWorkspace::new();
        let stored = dijkstra_into(&mut ws, &g, a, &DijkstraConfig::all_nodes(cost)).clone();
        dijkstra_into(&mut ws, &g, c, &DijkstraConfig::all_nodes(cost));
        let mut delta = SsspDelta::new();
        delta.block_node(b);
        let cfg = DijkstraConfig {
            edge_cost: cost,
            can_relay: move |v: NodeId| v != b,
        };
        let mut dirty = stored.clone();
        let dirty_stats = dijkstra_repair_into(&mut ws, &mut dirty, &g, &cfg, &delta);
        let mut clean = stored;
        let clean_stats =
            dijkstra_repair_into(&mut DijkstraWorkspace::new(), &mut clean, &g, &cfg, &delta);
        assert_eq!(dirty, fresh(&g, a, Some(b), None));
        assert_eq!((clean, clean_stats), (dirty, dirty_stats));
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
        let mut run = dijkstra_into(&mut ws, &g, a, &DijkstraConfig::all_nodes(cost)).clone();
        let mut delta = SsspDelta::new();
        delta.block_node(e);
        let cfg = DijkstraConfig {
            edge_cost: cost,
            can_relay: move |v: NodeId| v != e,
        };
        dijkstra_repair_into(&mut ws, &mut run, &g, &cfg, &delta);
        let mut fresh_ws = DijkstraWorkspace::new();
        let fresh = dijkstra_into(&mut fresh_ws, &g, a, &cfg).clone();
        assert_eq!(run, fresh);
        assert_eq!(
            run.prev_hop(d).map(|(p, _)| p),
            fresh.prev_hop(d).map(|(p, _)| p),
            "fp-tie predecessor choice must survive the repair"
        );
    }

    #[test]
    fn an_affected_offer_beats_an_equal_kept_one_that_pops_later() {
        // Before the delta v hangs off x (2 + 2). Blocking b clears x and
        // v: v is offered 5 both by kept p (label 4) and by x, re-reached
        // at 3 over c. A fresh search pops x first, so x keeps v, though
        // p never pops in the repair to be compared with.
        let mut g: Graph<(), f64> = Graph::new();
        let [s, b, c, x, v, p] = [(); 6].map(|_| g.add_node(()));
        g.add_edge(s, b, 1.0);
        g.add_edge(b, x, 1.0);
        g.add_edge(s, c, 2.0);
        g.add_edge(c, x, 1.0);
        let xv = g.add_edge(x, v, 2.0);
        g.add_edge(s, p, 4.0);
        g.add_edge(p, v, 1.0);
        let mut run = fresh(&g, s, None, None);
        assert_eq!(run.prev_hop(v), Some((x, xv)));
        let mut delta = SsspDelta::new();
        delta.block_node(b);
        let cfg = DijkstraConfig {
            edge_cost: cost,
            can_relay: |u: NodeId| u != b,
        };
        let mut ws = DijkstraWorkspace::new();
        let stats = dijkstra_repair_into(&mut ws, &mut run, &g, &cfg, &delta);
        assert_eq!(
            (stats.affected, stats.resettled),
            (2, 2),
            "only the cleared vertices settle, not the kept boundary"
        );
        assert_eq!(run.prev_hop(v), Some((x, xv)));
        assert_eq!(run, fresh(&g, s, Some(b), None));
    }

    #[test]
    fn equal_kept_offers_go_to_the_first_in_pop_order() {
        // Blocking x clears v; kept a and b (a < b) then both offer v 4,
        // the loser's edge first in v's adjacency. At equal labels b pops
        // first (larger index); at a's smaller label a does.
        for (da, db) in [(2.0, 2.0), (1.0, 2.0)] {
            let mut g: Graph<(), f64> = Graph::new();
            let [s, x, v, a, b] = [(); 5].map(|_| g.add_node(()));
            g.add_edge(s, x, 1.0);
            g.add_edge(x, v, 1.0);
            g.add_edge(s, a, da);
            g.add_edge(s, b, db);
            let (won, lost) = if da < db {
                ((a, da), (b, db))
            } else {
                ((b, db), (a, da))
            };
            g.add_edge(lost.0, v, 4.0 - lost.1);
            let e = g.add_edge(won.0, v, 4.0 - won.1);
            let mut run = fresh(&g, s, None, None);
            let mut delta = SsspDelta::new();
            delta.block_node(x);
            let cfg = DijkstraConfig {
                edge_cost: cost,
                can_relay: |u: NodeId| u != x,
            };
            dijkstra_repair_into(&mut DijkstraWorkspace::new(), &mut run, &g, &cfg, &delta);
            assert_eq!(run.prev_hop(v), Some((won.0, e)), "labels {da} and {db}");
            assert_eq!(run, fresh(&g, s, Some(x), None));
        }
    }

    #[test]
    fn parallel_kept_offers_that_round_equal_take_the_earlier_edge() {
        // Blocking x clears v; kept p (label 1) then offers v over two
        // parallel edges whose sums both round to 4: 1 + (3 + 2⁻⁵¹) and
        // 1 + 3. A fresh search keeps the earlier edge, though the later
        // one costs less.
        let mut g: Graph<(), f64> = Graph::new();
        let [s, x, v, p] = [(); 4].map(|_| g.add_node(()));
        g.add_edge(s, x, 1.0);
        g.add_edge(x, v, 1.0);
        g.add_edge(s, p, 1.0);
        let early = g.add_edge(p, v, 3.0 + 2.0 * f64::EPSILON);
        g.add_edge(p, v, 3.0);
        let mut run = fresh(&g, s, None, None);
        let mut delta = SsspDelta::new();
        delta.block_node(x);
        let cfg = DijkstraConfig {
            edge_cost: cost,
            can_relay: |u: NodeId| u != x,
        };
        dijkstra_repair_into(&mut DijkstraWorkspace::new(), &mut run, &g, &cfg, &delta);
        assert_eq!(run.distance(v), Some(4.0));
        assert_eq!(run.prev_hop(v), Some((p, early)));
        assert_eq!(run, fresh(&g, s, Some(x), None));
    }

    #[test]
    fn restoring_a_relay_repairs_in_place() {
        let (g, [a, b, c], _) = diamond();
        let mut ws = DijkstraWorkspace::new();
        let without_b = DijkstraConfig {
            edge_cost: cost,
            can_relay: |v: NodeId| v != b,
        };
        let mut run = dijkstra_into(&mut ws, &g, a, &without_b).clone();
        assert_eq!(run.distance(c), Some(5.0));
        let mut delta = SsspDelta::new();
        delta.restore_node(b);
        let stats = dijkstra_repair_into(
            &mut ws,
            &mut run,
            &g,
            &DijkstraConfig::all_nodes(cost),
            &delta,
        );
        assert_eq!((stats.affected, stats.restored), (0, 1));
        assert!(!stats.is_clean());
        assert_eq!(run, fresh(&g, a, None, None));
        assert_eq!(run.distance(c), Some(2.0));
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
        )
        .clone();
        assert_eq!(run.prev_hop(v).map(|(x, _)| x), Some(p));
        let mut delta = SsspDelta::new();
        delta.restore_node(r);
        let cfg = DijkstraConfig::all_nodes(cost);
        for ws in [&mut ws, &mut DijkstraWorkspace::new()] {
            let mut repaired = run.clone();
            let stats = dijkstra_repair_into(ws, &mut repaired, &g, &cfg, &delta);
            assert_eq!(stats.relaxations, 0, "no label falls, only a tie moves");
            assert_eq!(repaired.prev_hop(v), Some((r, rv)));
            assert_eq!(repaired, fresh(&g, a, None, None));
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
        let mut run = dijkstra_into(&mut ws, &g, a, &without_r).clone();
        assert_eq!(run.prev_hop(v), Some((p, late)));
        let mut delta = SsspDelta::new();
        delta.restore_node(r);
        dijkstra_repair_into(
            &mut ws,
            &mut run,
            &g,
            &DijkstraConfig::all_nodes(cost),
            &delta,
        );
        assert_eq!(run.distance(v), Some(4.0));
        assert_eq!(run.prev_hop(v), Some((p, early)));
        assert_eq!(run, fresh(&g, a, None, None));
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
        let mut run = dijkstra_into(&mut ws, &g, s, &without_u).clone();
        let mut delta = SsspDelta::new();
        delta.restore_node(u);
        dijkstra_repair_into(
            &mut ws,
            &mut run,
            &g,
            &DijkstraConfig::all_nodes(cost),
            &delta,
        );
        assert_eq!(run.prev_hop(v), Some((s, sv)));
        assert_eq!(run, fresh(&g, s, None, None));
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
        let mut run = dijkstra_into(
            &mut ws,
            &g,
            a,
            &DijkstraConfig {
                edge_cost: cost,
                can_relay: |x: NodeId| x != d,
            },
        )
        .clone();
        let mut delta = SsspDelta::new();
        delta.block_node(b).restore_node(d);
        let after = DijkstraConfig {
            edge_cost: cost,
            can_relay: |x: NodeId| x != b,
        };
        let stats = dijkstra_repair_into(&mut ws, &mut run, &g, &after, &delta);
        assert_eq!((stats.affected, stats.restored), (1, 1));
        let mut fresh_ws = DijkstraWorkspace::new();
        assert_eq!(run, dijkstra_into(&mut fresh_ws, &g, a, &after).clone());
        assert_eq!(run.prev_hop(e).map(|(x, _)| x), Some(d));
        let _ = c;
    }

    #[test]
    fn a_lost_relay_unserves_only_the_targets_it_carries() {
        let (g, [a, b, c], _) = diamond();
        let run = fresh(&g, a, None, None);
        let lost_b = |v: NodeId| v == b;
        let none = std::iter::empty();
        assert!(!serves_targets(&run, [c], lost_b, none.clone(), 1.0));
        assert!(serves_targets(&run, [b], lost_b, none.clone(), 1.0));
        assert_eq!(fresh(&g, a, Some(b), None).distance(b), run.distance(b));
        assert!(serves_targets(&run, [], lost_b, none, 1.0));
    }

    #[test]
    fn a_regained_relay_must_clear_the_farthest_target() {
        // Without b, c sits at 5 over the direct edge; b regained at 1
        // offers c 2. The bound is the farthest target's label, not the
        // nearest one's.
        let (g, [a, b, c], _) = diamond();
        let run = fresh(&g, a, Some(b), None);
        let never = |_: NodeId| false;
        assert!(serves_targets(&run, [b], never, [b], 1.0));
        assert!(!serves_targets(&run, [b, c], never, [b], 1.0));
        assert!(!serves_targets(&run, [c], never, [b], 1.0));
        assert_eq!(fresh(&g, a, None, None).distance(c), Some(2.0));
    }

    #[test]
    fn a_regained_relay_that_only_ties_unserves_the_target() {
        // a reaches t at 2 over p or r; with r not relaying, t hangs off
        // p. Restored, r pops first on the tie (larger index) and takes
        // t, though t's label stays 2: `dist(r) + 1 = 2` must not pass.
        let mut g: Graph<(), f64> = Graph::new();
        let [a, p, r, t] = [(); 4].map(|_| g.add_node(()));
        g.add_edge(a, p, 1.0);
        g.add_edge(a, r, 1.0);
        g.add_edge(p, t, 1.0);
        g.add_edge(r, t, 1.0);
        let run = fresh(&g, a, Some(r), None);
        assert_eq!(run.prev_hop(t).map(|(x, _)| x), Some(p));
        assert!(!serves_targets(&run, [t], |_| false, [r], 1.0));
        assert_eq!(
            fresh(&g, a, None, None).prev_hop(t).map(|(x, _)| x),
            Some(r)
        );
    }

    #[test]
    fn an_unreached_target_is_never_served() {
        // c hangs off b alone; with b not relaying it is unreached, and
        // restoring b reaches it.
        let mut g: Graph<(), f64> = Graph::new();
        let [a, b, c, d] = [(); 4].map(|_| g.add_node(()));
        g.add_edge(a, b, 1.0);
        g.add_edge(b, c, 1.0);
        g.add_edge(a, d, 9.0);
        let run = fresh(&g, a, Some(b), None);
        assert_eq!(run.distance(c), None);
        assert!(!serves_targets(&run, [c], |_| false, [b], 1.0));
        assert!(!serves_targets(&run, [d, c], |_| false, [b], 1.0));
        assert_eq!(fresh(&g, a, None, None).distance(c), Some(2.0));
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
    #[should_panic(expected = "non-negative")]
    fn a_negative_offer_into_the_cleared_region_panics() {
        // Blocking b clears c, which only the source then offers, over an
        // edge whose post-delta cost is negative: the offer step, not the
        // loop, reads that cost.
        let (g, [a, b, _c], [_, _, ac]) = diamond();
        let mut ws = DijkstraWorkspace::new();
        let mut run = dijkstra_into(&mut ws, &g, a, &DijkstraConfig::all_nodes(cost)).clone();
        let mut delta = SsspDelta::new();
        delta.block_node(b);
        let cfg = DijkstraConfig {
            edge_cost: |e: EdgeRef<'_, f64>| if e.id == ac { -1.0 } else { *e.payload },
            can_relay: |v: NodeId| v != b,
        };
        dijkstra_repair_into(&mut ws, &mut run, &g, &cfg, &delta);
    }

    #[test]
    #[should_panic(expected = "does not cover this graph")]
    fn repairing_a_foreign_run_panics() {
        let (g, [a, ..], _) = diamond();
        let mut ws = DijkstraWorkspace::new();
        let mut line: Graph<(), f64> = Graph::new();
        let [x, y] = [(); 2].map(|_| line.add_node(()));
        line.add_edge(x, y, 1.0);
        let mut foreign =
            dijkstra_into(&mut ws, &line, x, &DijkstraConfig::all_nodes(cost)).clone();
        let _ = a;
        dijkstra_repair_into(
            &mut ws,
            &mut foreign,
            &g,
            &DijkstraConfig::all_nodes(cost),
            &SsspDelta::new(),
        );
    }

    #[test]
    fn searches_and_repairs_stay_exact_across_the_generation_wrap() {
        // A first search and two repairs leave stamps at generations
        // 1–4. The counter then jumps to the top with one search of a
        // two-vertex graph, which restamps only two slots, and the next
        // step wraps: it runs the same passes at generations 1–4 again,
        // and would read the stale stamps — popped, relay flag read,
        // open — if the wrap did not clear them.
        let mut g: Graph<(), f64> = Graph::new();
        let ids: Vec<NodeId> = (0..8).map(|_| g.add_node(())).collect();
        for (i, j, w) in [
            (0, 1, 1.0),
            (1, 2, 1.0),
            (2, 3, 1.0),
            (0, 4, 2.5),
            (4, 3, 1.0),
            (1, 5, 0.5),
            (5, 6, 0.5),
            (6, 3, 1.5),
            (2, 7, 1.0),
            (7, 3, 0.5),
        ] {
            g.add_edge(ids[i], ids[j], w);
        }
        let mut pair: Graph<(), f64> = Graph::new();
        let [x, y] = [(); 2].map(|_| pair.add_node(()));
        pair.add_edge(x, y, 1.0);
        let relay_unless = |x: NodeId| move |v: NodeId| v != x;
        let cfg = |x: NodeId| DijkstraConfig {
            edge_cost: cost,
            can_relay: relay_unless(x),
        };
        let (s, victim, spare) = (ids[0], ids[2], ids[6]);
        let mut block = SsspDelta::new();
        block.block_node(victim);
        let mut restore = SsspDelta::new();
        restore.restore_node(victim).block_node(spare);
        let mut ws = DijkstraWorkspace::new();
        let step = |ws: &mut DijkstraWorkspace| {
            let stored = dijkstra_into(ws, &g, s, &cfg(spare)).clone();
            assert_eq!(stored, fresh(&g, s, Some(spare), None));
            let mut run = stored.clone();
            let stats = dijkstra_repair_into(ws, &mut run, &g, &cfg(victim), &block);
            assert!(stats.affected > 0);
            assert_eq!(run, fresh(&g, s, Some(victim), None));
            dijkstra_repair_into(ws, &mut run, &g, &cfg(spare), &restore);
            assert_eq!(run, stored);
        };
        step(&mut ws);
        assert_eq!(ws.pass.generation, 4);
        ws.pass.generation = u32::MAX - 1;
        let run = dijkstra_into(&mut ws, &pair, x, &DijkstraConfig::all_nodes(cost));
        assert_eq!(run.distance(y), Some(1.0));
        for _ in 0..3 {
            step(&mut ws);
        }
        assert_eq!(ws.pass.generation, 12, "the counter wrapped");
    }
}
