//! Tie-breaking reference battery for the search kernel.
//!
//! `dijkstra_into` keeps vertices that do not relay off its heap and
//! orders heap entries by one integer key per entry;
//! `dijkstra_repair_into` runs the same loop. This battery pits both against a textbook
//! Dijkstra written out below: it pushes every reached vertex, pops by
//! `partial_cmp` cost and then the larger vertex index, and expands
//! only the source and vertices that relay. Graphs have at most 24
//! vertices and integer edge weights in 1..=3, so exact cost ties are
//! everywhere; the relay filter rejects a random half of the vertices.
//!
//! Distances are compared as bit patterns and predecessors exactly. The
//! kernel must also ask the relay filter exactly once per reached
//! non-source vertex. The worsening arm blocks relays and edges, over
//! graphs with extra parallel edges, in half its cases every interior
//! relay of one stored path at once, and a repair must report the same
//! `RepairStats` as the textbook repair (mark every vertex whose chain
//! crosses a blocked edge or relays through a blocked vertex, clear,
//! let the kept relays offer into the cleared region in pop order,
//! re-run over the cleared vertices alone). The improving arm restores
//! relays — alone, or mixed with blocks, over the same kind of graphs —
//! and checks the repair's decrease pass against a fresh textbook
//! search under the new relay flags; on these graphs it fails without
//! the loop's tie rule. Both repair arms run 4 096 cases: a tie rule
//! that never moves a kept predecessor passes the first 256 of each.
//! Every repair runs on a fresh workspace and on
//! the one that ran the stored search. The scoped arm draws relay
//! losses, gains or both and target sets: whenever `serves_targets`
//! spares a set, a textbook search under the new flags must give every
//! target the stored distance bits and the stored predecessor chain.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use muerp::graph::{
    dijkstra_into, dijkstra_repair_into, serves_targets, DijkstraConfig, DijkstraRun,
    DijkstraWorkspace, EdgeId, EdgeRef, Graph, NodeId, RepairStats, SearchMask, SsspDelta,
};
use proptest::prelude::*;

/// Adds a parallel copy, of weight `w`, of each listed edge that
/// exists; returns the `(original, copy)` pairs.
fn double_edges(g: &mut Graph<(), f64>, doubled: Vec<(usize, u32)>) -> Vec<[EdgeId; 2]> {
    let m = g.edge_count();
    doubled
        .into_iter()
        .filter(|&(e, _)| e < m)
        .map(|(e, w)| {
            let (a, b) = g.endpoints(EdgeId::new(e));
            [EdgeId::new(e), g.add_edge(a, b, f64::from(w))]
        })
        .collect()
}

/// A graph of 2..=24 vertices with integer weights in 1..=3, and a relay
/// flag per vertex (each vertex relays with probability 1/2).
fn arb_case() -> impl Strategy<Value = (Graph<(), f64>, Vec<bool>)> {
    (2usize..=24).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n, 1u32..=3), 0..=3 * n);
        let relays = proptest::collection::vec(0u8..2, n);
        (edges, relays).prop_map(move |(edges, relays)| {
            let mut g: Graph<(), f64> = Graph::new();
            for _ in 0..n {
                g.add_node(());
            }
            for (a, b, w) in edges {
                if a != b {
                    g.add_edge(NodeId::new(a), NodeId::new(b), f64::from(w));
                }
            }
            (g, relays.into_iter().map(|r| r == 1).collect())
        })
    })
}

/// The textbook heap entry: `partial_cmp` on cost, reversed for the
/// max-heap, then the larger vertex index first.
#[derive(PartialEq)]
struct Entry {
    cost: f64,
    node: usize,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .cost
            .partial_cmp(&self.cost)
            .expect("costs are never NaN")
            .then_with(|| self.node.cmp(&other.node))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Labels of the textbook search, plus its work tallies.
struct Textbook {
    dist: Vec<f64>,
    prev: Vec<Option<(NodeId, EdgeId)>>,
    settled: Vec<bool>,
    settled_n: u64,
    relaxed_n: u64,
}

impl Textbook {
    /// Runs the textbook loop over whatever `heap` holds.
    fn run(
        &mut self,
        g: &Graph<(), f64>,
        source: usize,
        relays: &[bool],
        mask: Option<&SearchMask>,
        mut heap: BinaryHeap<Entry>,
    ) {
        while let Some(Entry { cost, node }) = heap.pop() {
            if self.settled[node] {
                continue;
            }
            self.settled[node] = true;
            self.settled_n += 1;
            if node != source && !relays[node] {
                continue;
            }
            for &(next, eid) in g.neighbor_slice(NodeId::new(node)) {
                let i = next.index();
                if self.settled[i] || mask.is_some_and(|m| m.blocks(eid, NodeId::new(node), next)) {
                    continue;
                }
                let cand = cost + *g.edge(eid).payload;
                if cand < self.dist[i] {
                    self.dist[i] = cand;
                    self.prev[i] = Some((NodeId::new(node), eid));
                    self.relaxed_n += 1;
                    heap.push(Entry {
                        cost: cand,
                        node: i,
                    });
                }
            }
        }
    }

    /// A full textbook search from `source`.
    fn search(
        g: &Graph<(), f64>,
        source: usize,
        relays: &[bool],
        mask: Option<&SearchMask>,
    ) -> Self {
        let n = g.node_count();
        let mut t = Textbook {
            dist: vec![f64::INFINITY; n],
            prev: vec![None; n],
            settled: vec![false; n],
            settled_n: 0,
            relaxed_n: 0,
        };
        t.dist[source] = 0.0;
        let heap = BinaryHeap::from([Entry {
            cost: 0.0,
            node: source,
        }]);
        t.run(g, source, relays, mask, heap);
        t
    }

    /// The textbook repair of this (completed, unmasked) search after
    /// the vertices in `blocked` stop relaying and the edges `cuts`
    /// kills go away: mark every vertex whose predecessor chain crosses
    /// a cut edge or relays through a blocked vertex, and clear it. Every
    /// kept vertex that relays under `relays_after` then pops in order,
    /// uncounted, and offers into the cleared region alone; only the
    /// cleared vertices it reached enter the heap, and the loop runs
    /// under `relays_after` without the cut edges. Returns the repair's
    /// tallies.
    fn repair(
        &mut self,
        g: &Graph<(), f64>,
        source: usize,
        blocked: &[bool],
        cuts: &SearchMask,
        relays_after: &[bool],
    ) -> RepairStats {
        let n = g.node_count();
        let affected: Vec<bool> = (0..n)
            .map(|i| {
                let mut cur = i;
                while let Some((p, e)) = self.prev[cur] {
                    if cuts.edge_dead(e) || (p.index() != source && blocked[p.index()]) {
                        return true;
                    }
                    cur = p.index();
                }
                false
            })
            .collect();
        let mut stats = RepairStats {
            affected: affected.iter().filter(|&&a| a).count(),
            ..RepairStats::default()
        };
        if stats.affected == 0 {
            return stats;
        }
        for i in (0..n).filter(|&i| affected[i]) {
            self.dist[i] = f64::INFINITY;
            self.prev[i] = None;
            self.settled[i] = false;
        }
        let mut kept: BinaryHeap<Entry> = (0..n)
            .filter(|&p| self.settled[p] && (p == source || relays_after[p]))
            .map(|p| Entry {
                cost: self.dist[p],
                node: p,
            })
            .collect();
        while let Some(Entry { cost, node }) = kept.pop() {
            for &(next, eid) in g.neighbor_slice(NodeId::new(node)) {
                let i = next.index();
                let cand = cost + *g.edge(eid).payload;
                if affected[i] && !cuts.blocks(eid, NodeId::new(node), next) && cand < self.dist[i]
                {
                    self.dist[i] = cand;
                    self.prev[i] = Some((NodeId::new(node), eid));
                }
            }
        }
        let heap = (0..n)
            .filter(|&i| affected[i] && self.dist[i].is_finite())
            .map(|i| Entry {
                cost: self.dist[i],
                node: i,
            })
            .collect();
        self.settled_n = 0;
        self.relaxed_n = 0;
        self.run(g, source, relays_after, Some(cuts), heap);
        stats.resettled = self.settled_n;
        stats.relaxations = self.relaxed_n;
        stats
    }

    /// Bitwise comparison against a kernel run; the error names the
    /// first vertex that differs.
    fn check(&self, run: &DijkstraRun, what: &str) -> Result<(), TestCaseError> {
        for (i, (&d, &p)) in self.dist.iter().zip(&self.prev).enumerate() {
            let v = NodeId::new(i);
            let want = d.is_finite().then(|| d.to_bits());
            prop_assert_eq!(
                run.distance(v).map(f64::to_bits),
                want,
                "{}: distance of vertex {} differs",
                what,
                i
            );
            prop_assert_eq!(
                run.prev_hop(v),
                p,
                "{}: predecessor of vertex {} differs",
                what,
                i
            );
        }
        Ok(())
    }
}

/// The kernel's configuration for `relays`: the payload as the cost
/// (`INFINITY` on every edge `cuts` blocks: a dead edge, or any edge of a
/// dead vertex), and a relay filter that counts its calls in `asked`.
fn config<'a>(
    relays: &'a [bool],
    cuts: &'a SearchMask,
    asked: &'a Cell<u64>,
) -> DijkstraConfig<impl Fn(EdgeRef<'_, f64>) -> f64 + 'a, impl Fn(NodeId) -> bool + 'a> {
    DijkstraConfig {
        edge_cost: |e: EdgeRef<'_, f64>| {
            if cuts.blocks(e.id, e.a, e.b) {
                f64::INFINITY
            } else {
                *e.payload
            }
        },
        can_relay: move |v: NodeId| {
            asked.set(asked.get() + 1);
            relays[v.index()]
        },
    }
}

/// Asks `serves_targets` about `stored`, exact under `relays`, for each
/// of `sets` and every singleton under `relays_after`, and checks every
/// spared target against a textbook search under `relays_after`: the
/// same distance bits and the same predecessor chain.
fn check_spared(
    g: &Graph<(), f64>,
    source: usize,
    stored: &DijkstraRun,
    relays: &[bool],
    relays_after: &[bool],
    sets: &[Vec<usize>],
) -> Result<(), TestCaseError> {
    let n = g.node_count();
    let want = Textbook::search(g, source, relays_after, None);
    let lost = |v: NodeId| relays[v.index()] && !relays_after[v.index()];
    let regained: Vec<NodeId> = (0..n)
        .filter(|&i| relays_after[i] && !relays[i])
        .map(NodeId::new)
        .collect();
    let singletons = (0..n).map(|t| vec![t]);
    for set in sets.iter().cloned().chain(singletons) {
        let targets = set.iter().map(|&t| NodeId::new(t % n));
        if !serves_targets(stored, targets.clone(), lost, regained.iter().copied(), 1.0) {
            continue;
        }
        for t in targets {
            let d = want.dist[t.index()];
            prop_assert_eq!(
                stored.distance(t).map(f64::to_bits),
                d.is_finite().then(|| d.to_bits()),
                "distance of spared target {} in {:?}",
                t,
                set
            );
            let mut cur = t;
            while let Some(hop) = stored.prev_hop(cur) {
                prop_assert_eq!(
                    Some(hop),
                    want.prev[cur.index()],
                    "predecessor of {} on the chain of spared target {} in {:?}",
                    cur,
                    t,
                    set
                );
                cur = hop.0;
            }
            prop_assert_eq!(want.prev[cur.index()], None, "chain of {} ends early", t);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Search ≡ textbook, with and without a failure mask, on one reused
    /// (so generation-stamped) workspace. The kernel sees the mask only
    /// folded into its edge costs; the textbook applies its own mask rule
    /// (skip a dead edge and every edge of a dead vertex).
    #[test]
    fn search_matches_the_textbook_loop(
        case in arb_case(),
        src in 0usize..24,
        dead_edges in proptest::collection::vec(0usize..72, 0..4),
        dead_node in 0usize..24,
    ) {
        let (g, relays) = case;
        let n = g.node_count();
        let source = src % n;
        let mut mask = SearchMask::new();
        for e in dead_edges.into_iter().filter(|&e| e < g.edge_count()) {
            mask.kill_edge(EdgeId::new(e));
        }
        if dead_node % n != source {
            mask.kill_node(NodeId::new(dead_node % n));
        }
        let mut ws = DijkstraWorkspace::new();
        let no_cuts = SearchMask::new();
        for (cuts, what) in [(&no_cuts, "unmasked"), (&mask, "masked")] {
            let want = Textbook::search(&g, source, &relays, Some(cuts));
            let asked = Cell::new(0);
            let cfg = config(&relays, cuts, &asked);
            let run = dijkstra_into(&mut ws, &g, NodeId::new(source), &cfg);
            want.check(run, what)?;
            // One filter call per reached non-source vertex: the contract
            // the Algorithm-1 rejection tally counts on.
            prop_assert_eq!(asked.get(), want.settled_n - 1, "{}: relay filter calls", what);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Repair ≡ textbook after a random delta of blocked relays and
    /// blocked edges, on graphs with extra parallel edges — results
    /// against a fresh textbook search, tallies against the textbook
    /// repair — on a fresh workspace and on the one that ran the search.
    /// Half the cases also block every interior relay of the stored path
    /// to one target at once, as a 2-qubit reservation does; that clears
    /// far more of a tree than a few random victims.
    #[test]
    fn repair_matches_the_textbook_loop(
        case in arb_case(),
        src in 0usize..24,
        victims in proptest::collection::vec(0usize..24, 0..4),
        serve in 0u8..2,
        target in 0usize..24,
        cut in proptest::collection::vec((0usize..3, 0usize..96), 0..4),
        doubled in proptest::collection::vec((0usize..72, 1u32..=3), 0..6),
    ) {
        let (mut g, relays) = case;
        let pairs = double_edges(&mut g, doubled);
        let n = g.node_count();
        let source = src % n;
        let mut textbook = Textbook::search(&g, source, &relays, None);
        let mut interior = Vec::new();
        let mut cur = target % n;
        while let Some((p, _)) = textbook.prev[cur] {
            cur = p.index();
            if serve == 1 && cur != source {
                interior.push(cur);
            }
        }
        let mut blocked = vec![false; n];
        let mut cuts = SearchMask::new();
        let mut delta = SsspDelta::new();
        for v in victims.into_iter().map(|v| v % n).chain(interior).filter(|&v| relays[v]) {
            blocked[v] = true;
            delta.block_node(NodeId::new(v));
        }
        // Cut one side of a doubled pair (kinds 0 and 1) or any edge
        // (kind 2): a cut beside a parallel tree edge must not take the
        // tree edge's child with it.
        let m = g.edge_count();
        for (kind, k) in cut {
            let e = match pairs.get(k % pairs.len().max(1)) {
                Some(pair) if kind < 2 => pair[kind],
                _ if m > 0 => EdgeId::new(k % m),
                _ => continue,
            };
            cuts.kill_edge(e);
            delta.block_edge(e);
        }
        let relays_after: Vec<bool> = (0..n).map(|i| relays[i] && !blocked[i]).collect();
        let want = Textbook::search(&g, source, &relays_after, Some(&cuts));
        let want_stats = textbook.repair(&g, source, &blocked, &cuts, &relays_after);

        let asked = Cell::new(0);
        let no_cuts = SearchMask::new();
        let mut used = DijkstraWorkspace::new();
        let stored = dijkstra_into(
            &mut used,
            &g,
            NodeId::new(source),
            &config(&relays, &no_cuts, &asked),
        )
        .clone();
        for (ws, what) in [(&mut used, "used"), (&mut DijkstraWorkspace::new(), "fresh")] {
            let mut run = stored.clone();
            let cfg = config(&relays_after, &cuts, &asked);
            let stats = dijkstra_repair_into(ws, &mut run, &g, &cfg, &delta);
            want.check(&run, what)?;
            prop_assert_eq!(stats, want_stats, "{}: repair tallies", what);
        }
    }

    /// Repair ≡ textbook after a delta that restores relays, alone or
    /// together with blocks, on graphs with extra parallel edges: the
    /// decrease pass must land on the fresh search's predecessor under
    /// every cost tie.
    #[test]
    fn restore_repair_matches_the_textbook_loop(
        case in arb_case(),
        src in 0usize..24,
        flips in proptest::collection::vec(0usize..24, 1..6),
        mixed in 0u8..2,
        doubled in proptest::collection::vec((0usize..72, 1u32..=3), 0..6),
    ) {
        let (mut g, relays) = case;
        double_edges(&mut g, doubled);
        let n = g.node_count();
        let source = src % n;
        let mut relays_after = relays.clone();
        let mut delta = SsspDelta::new();
        for v in flips.into_iter().map(|v| v % n) {
            if !relays_after[v] {
                relays_after[v] = true;
                delta.restore_node(NodeId::new(v));
            } else if mixed == 1 && relays[v] {
                relays_after[v] = false;
                delta.block_node(NodeId::new(v));
            }
        }
        let want = Textbook::search(&g, source, &relays_after, None);

        let asked = Cell::new(0);
        let no_cuts = SearchMask::new();
        let mut used = DijkstraWorkspace::new();
        let stored = dijkstra_into(
            &mut used,
            &g,
            NodeId::new(source),
            &config(&relays, &no_cuts, &asked),
        )
        .clone();
        for (ws, what) in [(&mut used, "used"), (&mut DijkstraWorkspace::new(), "fresh")] {
            let mut run = stored.clone();
            let cfg = config(&relays_after, &no_cuts, &asked);
            dijkstra_repair_into(ws, &mut run, &g, &cfg, &delta);
            want.check(&run, what)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Scoped answers ≡ textbook: after random relay losses (kind 0),
    /// gains (kind 1) or both (kind 2), and after each single flip
    /// alone, every target set the predicate spares — the drawn sets and
    /// every singleton — keeps the stored distance bits and the stored
    /// predecessor chain in a fresh textbook search under the new flags.
    /// Edge weights are at least 1, the predicate's cost floor.
    #[test]
    fn spared_targets_match_the_textbook_loop(
        case in arb_case(),
        src in 0usize..24,
        flips in proptest::collection::vec(0usize..24, 1..6),
        kind in 0u8..3,
        sets in proptest::collection::vec(proptest::collection::vec(0usize..24, 1..5), 1..6),
        doubled in proptest::collection::vec((0usize..72, 1u32..=3), 0..6),
    ) {
        let (mut g, relays) = case;
        double_edges(&mut g, doubled);
        let n = g.node_count();
        let source = src % n;
        let mut relays_after = relays.clone();
        for v in flips.into_iter().map(|v| v % n) {
            match (kind, relays[v]) {
                (0 | 2, true) => relays_after[v] = false,
                (1 | 2, false) => relays_after[v] = true,
                _ => {}
            }
        }
        let asked = Cell::new(0);
        let no_cuts = SearchMask::new();
        let stored = dijkstra_into(
            &mut DijkstraWorkspace::new(),
            &g,
            NodeId::new(source),
            &config(&relays, &no_cuts, &asked),
        )
        .clone();
        check_spared(&g, source, &stored, &relays, &relays_after, &sets)?;
        for v in 0..n {
            let mut one = relays.clone();
            one[v] = !one[v];
            check_spared(&g, source, &stored, &relays, &one, &[])?;
        }
    }
}
