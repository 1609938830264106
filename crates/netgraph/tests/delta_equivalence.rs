//! Differential battery for the delta engine: over arbitrary
//! topologies and arbitrary interleaved delta sequences, an in-place
//! [`dijkstra_repair_into`] must leave the stored run **bitwise
//! identical** — distances, predecessors, reachability — to a fresh
//! [`dijkstra_into`] under the post-delta configuration, with and
//! without a [`SearchMask`] folded into the edge costs.
//!
//! Each step applies one to three ops and hands their net effect to the
//! repair as one delta: blocked relays, blocked edges and restored
//! relays, mixed freely. A step that brings an edge back is not a delta
//! the repair takes; it recomputes, as callers do, so a repair later in
//! the sequence starts from recomputed state.

use proptest::prelude::*;
use qnet_graph::{
    connectivity::connected_components, dijkstra_into, dijkstra_repair_into, DijkstraConfig,
    DijkstraWorkspace, EdgeId, EdgeRef, Graph, NodeId, SearchMask, SsspDelta,
};

/// A random undirected weighted graph: `n` nodes, edge list with weights.
fn arb_graph(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = Graph<(), f64>> {
    (2..=max_nodes).prop_flat_map(move |n| {
        let edge = (0..n, 0..n, 0.01f64..10.0);
        proptest::collection::vec(edge, 0..=max_edges).prop_map(move |edges| {
            let mut g: Graph<(), f64> = Graph::new();
            for _ in 0..n {
                g.add_node(());
            }
            for (a, b, w) in edges {
                if a != b {
                    g.add_edge(NodeId::new(a), NodeId::new(b), w);
                }
            }
            g
        })
    })
}

/// A delta sequence: steps of one to three `(kind, target)` ops with
/// kinds 0 = block node, 1 = block edge, 2 = unblock node, 3 = unblock
/// edge.
fn arb_steps(max_len: usize) -> impl Strategy<Value = Vec<Vec<(u8, usize)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u8..4, 0usize..64), 1..=3),
        1..=max_len,
    )
}

/// The live state a sequence mutates: which vertices may relay and
/// which edges are usable.
struct Overlay {
    relay: Vec<bool>,
    edge_ok: Vec<bool>,
}

impl Overlay {
    fn fresh(g: &Graph<(), f64>) -> Self {
        Overlay {
            relay: vec![true; g.node_count()],
            edge_ok: vec![true; g.edge_count()],
        }
    }

    fn config(
        &self,
    ) -> DijkstraConfig<impl Fn(EdgeRef<'_, f64>) -> f64 + '_, impl Fn(NodeId) -> bool + '_> {
        DijkstraConfig {
            edge_cost: move |e: EdgeRef<'_, f64>| {
                if self.edge_ok[e.id.index()] {
                    *e.payload
                } else {
                    f64::INFINITY
                }
            },
            can_relay: move |v: NodeId| self.relay[v.index()],
        }
    }

    /// Applies one step of ops; returns the net delta they produced, or
    /// `None` when an edge came back. A block of a vertex that stays
    /// blocked through the step is kept in the delta as a redundant
    /// block, which must repair cleanly.
    fn step(&mut self, ops: &[(u8, usize)]) -> Option<SsspDelta> {
        let (relay_before, edge_before) = (self.relay.clone(), self.edge_ok.clone());
        let mut redundant = Vec::new();
        let (n, m) = (self.relay.len(), self.edge_ok.len());
        for &(kind, target) in ops {
            match kind {
                0 => {
                    let v = target % n;
                    if !self.relay[v] {
                        redundant.push(v);
                    }
                    self.relay[v] = false;
                }
                1 if m > 0 => self.edge_ok[target % m] = false,
                2 => self.relay[target % n] = true,
                3 if m > 0 => self.edge_ok[target % m] = true,
                _ => {} // edge op on an edgeless graph: no-op
            }
        }
        if edge_before
            .iter()
            .zip(&self.edge_ok)
            .any(|(&b, &a)| a && !b)
        {
            return None;
        }
        let mut delta = SsspDelta::new();
        for (v, (&before, &after)) in relay_before.iter().zip(&self.relay).enumerate() {
            if before && !after {
                delta.block_node(NodeId::new(v));
            } else if !before && after {
                delta.restore_node(NodeId::new(v));
            }
        }
        for (e, (&before, &after)) in edge_before.iter().zip(&self.edge_ok).enumerate() {
            if before && !after {
                delta.block_edge(EdgeId::new(e));
            }
        }
        for v in redundant {
            if !relay_before[v] && !self.relay[v] {
                delta.block_node(NodeId::new(v));
            }
        }
        Some(delta)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The headline property: repaired ≡ fresh after every step of an
    /// arbitrary interleaved delta sequence.
    #[test]
    fn repaired_workspace_is_bitwise_fresh(
        g in arb_graph(14, 44),
        src in 0usize..14,
        steps in arb_steps(10),
    ) {
        let source = NodeId::new(src % g.node_count());
        let mut overlay = Overlay::fresh(&g);
        let mut ws = DijkstraWorkspace::new();
        let mut run = {
            let cfg = overlay.config();
            dijkstra_into(&mut ws, &g, source, &cfg).clone()
        };
        for ops in &steps {
            let delta = overlay.step(ops);
            let cfg = overlay.config();
            let fresh = {
                let mut fresh_ws = DijkstraWorkspace::new();
                dijkstra_into(&mut fresh_ws, &g, source, &cfg).clone()
            };
            match delta {
                Some(delta) => {
                    let stats = dijkstra_repair_into(&mut ws, &mut run, &g, &cfg, &delta);
                    prop_assert_eq!(&run, &fresh, "repair diverged");
                    if delta.is_empty() {
                        prop_assert!(stats.is_clean(), "empty delta must be clean");
                    }
                }
                None => {
                    // An edge came back: callers recompute; do the same
                    // so later repairs start from production state.
                    run.clone_from(dijkstra_into(&mut ws, &g, source, &cfg));
                }
            }
        }
        // Generation discipline survived the repairs: the workspace is
        // still a normal workspace for unrelated fresh runs.
        let other = NodeId::new((src + 1) % g.node_count());
        let cfg = overlay.config();
        let a = dijkstra_into(&mut ws, &g, other, &cfg).clone();
        let b = {
            let mut fresh_ws = DijkstraWorkspace::new();
            dijkstra_into(&mut fresh_ws, &g, other, &cfg).clone()
        };
        prop_assert_eq!(a, b);
    }

    /// Same battery under a failure mask: the mask kills a static set
    /// of edges/nodes, deltas churn on top, and the repair must match a
    /// fresh search. Both fold the mask into the edge costs (`+∞` on
    /// every edge it blocks), as the degraded finder cache does; the
    /// oracle's relay filter also rejects dead vertices, which no
    /// search reaches.
    #[test]
    fn masked_repair_matches_masked_fresh(
        g in arb_graph(12, 40),
        src in 0usize..12,
        dead_edges in proptest::collection::vec(0usize..40, 0..5),
        dead_node in 0usize..12,
        steps in arb_steps(8),
    ) {
        let source = NodeId::new(src % g.node_count());
        let mut mask = SearchMask::new();
        for e in dead_edges {
            if e < g.edge_count() {
                mask.kill_edge(EdgeId::new(e));
            }
        }
        let killed = NodeId::new(dead_node % g.node_count());
        if killed != source {
            mask.kill_node(killed);
        }
        let mut overlay = Overlay::fresh(&g);
        let mut ws = DijkstraWorkspace::new();
        // The overlay's configuration with the mask folded in.
        macro_rules! folded {
            ($dead_relays:expr) => {{
                let mask = &mask;
                let overlay = &overlay;
                DijkstraConfig {
                    edge_cost: move |e: EdgeRef<'_, f64>| {
                        if mask.blocks(e.id, e.a, e.b) || !overlay.edge_ok[e.id.index()] {
                            f64::INFINITY
                        } else {
                            *e.payload
                        }
                    },
                    can_relay: move |v: NodeId| {
                        ($dead_relays || !mask.node_dead(v)) && overlay.relay[v.index()]
                    },
                }
            }};
        }
        let mut run = {
            let cfg = folded!(true);
            dijkstra_into(&mut ws, &g, source, &cfg).clone()
        };
        for ops in &steps {
            let delta = overlay.step(ops);
            let cfg = folded!(true);
            let fresh = {
                let mut fresh_ws = DijkstraWorkspace::new();
                dijkstra_into(&mut fresh_ws, &g, source, &folded!(false)).clone()
            };
            match delta {
                Some(delta) => {
                    dijkstra_repair_into(&mut ws, &mut run, &g, &cfg, &delta);
                    prop_assert_eq!(&run, &fresh, "masked repair diverged");
                }
                None => {
                    run.clone_from(dijkstra_into(&mut ws, &g, source, &cfg));
                }
            }
        }
    }

    /// A repair does not depend on what the workspace did before: the
    /// same stored run repairs identically on the workspace that
    /// searched it and on a fresh one.
    #[test]
    fn repairs_ignore_the_workspace_history(
        g in arb_graph(12, 36),
        src in 0usize..12,
        block in 0usize..12,
    ) {
        let source = NodeId::new(src % g.node_count());
        let blocked = NodeId::new(block % g.node_count());
        let overlay = Overlay::fresh(&g);
        let mut used = DijkstraWorkspace::new();
        let stored = {
            let cfg = overlay.config();
            dijkstra_into(&mut used, &g, source, &cfg).clone()
        };
        let mut delta = SsspDelta::new();
        delta.block_node(blocked);
        let cfg = DijkstraConfig {
            edge_cost: |e: EdgeRef<'_, f64>| *e.payload,
            can_relay: move |v: NodeId| v != blocked,
        };
        let mut on_used = stored.clone();
        let used_stats = dijkstra_repair_into(&mut used, &mut on_used, &g, &cfg, &delta);
        let mut on_fresh = stored;
        let fresh_stats =
            dijkstra_repair_into(&mut DijkstraWorkspace::new(), &mut on_fresh, &g, &cfg, &delta);
        prop_assert_eq!(on_fresh, on_used, "the workspace history leaked into the repair");
        prop_assert_eq!(fresh_stats, used_stats);
    }

    /// A delta in a foreign component repairs clean for every source
    /// outside it.
    #[test]
    fn cross_component_deltas_are_always_clean(
        g in arb_graph(12, 16),
        src in 0usize..12,
        block in 0usize..12,
    ) {
        let source = NodeId::new(src % g.node_count());
        let blocked = NodeId::new(block % g.node_count());
        let (component, _) = connected_components(&g);
        prop_assume!(component[source.index()] != component[blocked.index()]);
        let overlay = Overlay::fresh(&g);
        let mut ws = DijkstraWorkspace::new();
        let mut run = {
            let cfg = overlay.config();
            dijkstra_into(&mut ws, &g, source, &cfg).clone()
        };
        let mut delta = SsspDelta::new();
        delta.block_node(blocked);
        let cfg = DijkstraConfig {
            edge_cost: |e: EdgeRef<'_, f64>| *e.payload,
            can_relay: move |v: NodeId| v != blocked,
        };
        let stats = dijkstra_repair_into(&mut ws, &mut run, &g, &cfg, &delta);
        prop_assert!(stats.is_clean(), "foreign-component delta did work: {stats:?}");
    }
}
