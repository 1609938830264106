//! Property-based tests over the graph substrate.
//!
//! Random graphs are generated from proptest strategies; each property is
//! an invariant the MUERP algorithms rely on (Dijkstra optimality, MST
//! weight equality, union-find/connectivity agreement, bridge correctness).

use proptest::prelude::*;
use qnet_graph::connectivity::{bridges, connected_components, is_connected, nodes_connected};
use qnet_graph::mst::{kruskal, prim};
use qnet_graph::steiner::steiner_approximation;
use qnet_graph::{
    dijkstra_into, k_shortest_paths_in, DijkstraConfig, DijkstraRun, DijkstraWorkspace, EdgeRef,
    Graph, NegLog, NodeId, Path, UnionFind,
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

fn w(e: EdgeRef<'_, f64>) -> f64 {
    *e.payload
}

/// One run on a brand-new workspace.
fn dijkstra<FC, FR>(g: &Graph<(), f64>, source: NodeId, cfg: &DijkstraConfig<FC, FR>) -> DijkstraRun
where
    FC: Fn(EdgeRef<'_, f64>) -> f64,
    FR: Fn(NodeId) -> bool,
{
    dijkstra_into(&mut DijkstraWorkspace::new(), g, source, cfg).clone()
}

/// One Yen query on a brand-new workspace.
fn k_shortest_paths<FC, FR>(
    g: &Graph<(), f64>,
    s: NodeId,
    t: NodeId,
    k: usize,
    cfg: &DijkstraConfig<FC, FR>,
) -> Vec<Path>
where
    FC: Fn(EdgeRef<'_, f64>) -> f64,
    FR: Fn(NodeId) -> bool,
{
    k_shortest_paths_in(&mut DijkstraWorkspace::new(), g, s, t, k, cfg)
}

/// Bellman-Ford oracle for Dijkstra (no relay filter).
fn bellman_ford(g: &Graph<(), f64>, source: NodeId) -> Vec<f64> {
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    dist[source.index()] = 0.0;
    for _ in 0..n {
        let mut changed = false;
        for e in g.edge_refs() {
            let we = *e.payload;
            let (a, b) = (e.a.index(), e.b.index());
            if dist[a] + we < dist[b] {
                dist[b] = dist[a] + we;
                changed = true;
            }
            if dist[b] + we < dist[a] {
                dist[a] = dist[b] + we;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dijkstra_matches_bellman_ford(g in arb_graph(12, 40)) {
        let source = NodeId::new(0);
        let run = dijkstra(&g, source, &DijkstraConfig::all_nodes(w));
        let oracle = bellman_ford(&g, source);
        for v in g.node_ids() {
            match run.distance(v) {
                Some(d) => prop_assert!((d - oracle[v.index()]).abs() < 1e-9),
                None => prop_assert!(oracle[v.index()].is_infinite()),
            }
        }
    }

    #[test]
    fn dijkstra_paths_are_consistent(g in arb_graph(12, 40)) {
        let source = NodeId::new(0);
        let run = dijkstra(&g, source, &DijkstraConfig::all_nodes(w));
        for v in g.node_ids() {
            if let Some(p) = run.path_to(v) {
                // Path endpoints are right.
                prop_assert_eq!(p.source(), source);
                prop_assert_eq!(p.destination(), v);
                // Edge list connects the node list and the cost adds up.
                let mut total = 0.0;
                for (i, &e) in p.edges.iter().enumerate() {
                    let (a, b) = g.endpoints(e);
                    let (x, y) = (p.nodes[i], p.nodes[i + 1]);
                    prop_assert!((a == x && b == y) || (a == y && b == x));
                    total += *g.edge(e).payload;
                }
                prop_assert!((total - p.cost).abs() < 1e-9);
                // Simple path: no repeated nodes.
                let mut sorted = p.nodes.clone();
                sorted.sort();
                sorted.dedup();
                prop_assert_eq!(sorted.len(), p.nodes.len());
            }
        }
    }

    #[test]
    fn relay_filter_paths_avoid_forbidden_interiors(g in arb_graph(12, 40), forbid in 0usize..12) {
        let source = NodeId::new(0);
        let forbidden = NodeId::new(forbid % g.node_count());
        let cfg = DijkstraConfig { edge_cost: w, can_relay: |n: NodeId| n != forbidden };
        let run = dijkstra(&g, source, &cfg);
        for v in g.node_ids() {
            if let Some(p) = run.path_to(v) {
                prop_assert!(!p.interior().contains(&forbidden));
            }
        }
    }

    #[test]
    fn kruskal_and_prim_agree_on_weight(g in arb_graph(10, 30)) {
        prop_assume!(is_connected(&g) && g.node_count() > 0);
        let k = kruskal(&g, w);
        let p = prim(&g, NodeId::new(0), w);
        prop_assert!(k.spans(g.node_count()));
        prop_assert!(p.spans(g.node_count()));
        prop_assert!((k.total_weight - p.total_weight).abs() < 1e-9);
    }

    #[test]
    fn mst_is_acyclic_and_spanning(g in arb_graph(10, 30)) {
        let t = kruskal(&g, w);
        // Edge count == nodes - components (a spanning forest).
        let (_, comps) = connected_components(&g);
        prop_assert_eq!(t.edges.len(), g.node_count() - comps);
        // Acyclic: union-find never sees a redundant union.
        let mut uf = UnionFind::new(g.node_count());
        for &e in &t.edges {
            let (a, b) = g.endpoints(e);
            prop_assert!(uf.union_nodes(a, b), "cycle in MST");
        }
    }

    #[test]
    fn union_find_agrees_with_bfs_connectivity(g in arb_graph(12, 30)) {
        let mut uf = UnionFind::new(g.node_count());
        for e in g.edge_refs() {
            uf.union_nodes(e.a, e.b);
        }
        let (labels, comps) = connected_components(&g);
        prop_assert_eq!(uf.set_count(), comps);
        for a in g.node_ids() {
            for b in g.node_ids() {
                prop_assert_eq!(
                    uf.same_set_nodes(a, b),
                    labels[a.index()] == labels[b.index()]
                );
            }
        }
    }

    #[test]
    fn bridges_disconnect_when_removed(g in arb_graph(10, 25)) {
        let (_, base) = connected_components(&g);
        for e in bridges(&g) {
            let without = g.filter_edges(|er| er.id != e);
            let (_, comps) = connected_components(&without);
            prop_assert_eq!(comps, base + 1, "removing bridge {} must split", e);
        }
    }

    #[test]
    fn non_bridges_keep_connectivity(g in arb_graph(8, 20)) {
        let (_, base) = connected_components(&g);
        let bs = bridges(&g);
        for e in g.edge_ids() {
            if !bs.contains(&e) {
                let without = g.filter_edges(|er| er.id != e);
                let (_, comps) = connected_components(&without);
                prop_assert_eq!(comps, base, "removing non-bridge {} must not split", e);
            }
        }
    }

    #[test]
    fn yen_matches_bruteforce_on_random_graphs(g in arb_graph(7, 14)) {
        let (s, t) = (NodeId::new(0), NodeId::new(g.node_count() - 1));
        // Brute-force all simple paths.
        fn all_paths(
            g: &Graph<(), f64>,
            cur: NodeId,
            t: NodeId,
            visited: &mut Vec<NodeId>,
            cost: f64,
            out: &mut Vec<f64>,
        ) {
            if cur == t {
                out.push(cost);
                return;
            }
            for (next, eid) in g.neighbors(cur) {
                if !visited.contains(&next) {
                    visited.push(next);
                    all_paths(g, next, t, visited, cost + *g.edge(eid).payload, out);
                    visited.pop();
                }
            }
        }
        let mut brute = Vec::new();
        all_paths(&g, s, t, &mut vec![s], 0.0, &mut brute);
        brute.sort_by(|a, b| a.partial_cmp(b).unwrap());

        let yen = k_shortest_paths(&g, s, t, brute.len() + 3, &DijkstraConfig::all_nodes(w));
        prop_assert_eq!(yen.len(), brute.len(), "yen must enumerate all simple paths");
        for (p, c) in yen.iter().zip(&brute) {
            prop_assert!((p.cost - c).abs() < 1e-9, "cost order mismatch");
        }
    }

    #[test]
    fn reused_workspace_matches_fresh_dijkstra(
        g1 in arb_graph(12, 40),
        g2 in arb_graph(6, 18),
        forbid in 0usize..12,
        sources in proptest::collection::vec(0usize..12, 1..6),
    ) {
        // One workspace carried across many runs, alternating between two
        // graphs of different sizes and between filtered/unfiltered
        // configurations — maximally dirty state. Every run must agree
        // bitwise with a fresh dijkstra() on distances and on path shape.
        let mut ws = DijkstraWorkspace::new();
        for (round, &s) in sources.iter().enumerate() {
            for g in [&g1, &g2] {
                let source = NodeId::new(s % g.node_count());
                let forbidden = NodeId::new((forbid + round) % g.node_count());
                let cfg = DijkstraConfig { edge_cost: w, can_relay: |n: NodeId| n != forbidden };
                let fresh = dijkstra(g, source, &cfg);
                let view = dijkstra_into(&mut ws, g, source, &cfg);
                for v in g.node_ids() {
                    prop_assert_eq!(view.distance(v), fresh.distance(v));
                    let (a, b) = (view.path_to(v), fresh.path_to(v));
                    prop_assert_eq!(a.is_some(), b.is_some());
                    if let (Some(a), Some(b)) = (a, b) {
                        prop_assert_eq!(a.nodes, b.nodes);
                        prop_assert_eq!(a.edges, b.edges);
                        prop_assert_eq!(a.cost, b.cost);
                    }
                }
                // The labels cover this graph, whatever size the last
                // run's graph had.
                prop_assert_eq!(view.len(), g.node_count());
            }
        }
    }

    #[test]
    fn reused_workspace_matches_fresh_yen(
        g in arb_graph(8, 20),
        warmup in arb_graph(12, 30),
        k in 1usize..6,
    ) {
        let (s, t) = (NodeId::new(0), NodeId::new(g.node_count() - 1));
        let cfg = DijkstraConfig::all_nodes(w);
        // Dirty the workspace on an unrelated, larger graph first.
        let mut ws = DijkstraWorkspace::new();
        let _ = dijkstra_into(&mut ws, &warmup, NodeId::new(0), &cfg);
        let reused = k_shortest_paths_in(&mut ws, &g, s, t, k, &cfg);
        let fresh = k_shortest_paths(&g, s, t, k, &cfg);
        prop_assert_eq!(reused.len(), fresh.len());
        for (a, b) in reused.iter().zip(&fresh) {
            prop_assert_eq!(&a.nodes, &b.nodes);
            prop_assert_eq!(&a.edges, &b.edges);
            prop_assert_eq!(a.cost, b.cost);
        }
    }

    #[test]
    fn betweenness_is_normalized_and_zero_on_leaves(g in arb_graph(10, 25)) {
        use qnet_graph::centrality::betweenness;
        let c = betweenness(&g, w);
        for v in g.node_ids() {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&c[v.index()]));
            if g.degree(v) <= 1 {
                prop_assert!(c[v.index()].abs() < 1e-12, "leaf {v} must be zero");
            }
        }
    }

    #[test]
    fn neglog_add_is_prob_multiply(p1 in 0.001f64..1.0, p2 in 0.001f64..1.0) {
        let sum = NegLog::from_prob(p1) + NegLog::from_prob(p2);
        prop_assert!((sum.prob() - p1 * p2).abs() < 1e-9);
    }

    #[test]
    fn neglog_ordering_is_reverse_prob_ordering(p1 in 0.001f64..1.0, p2 in 0.001f64..1.0) {
        let (c1, c2) = (NegLog::from_prob(p1), NegLog::from_prob(p2));
        prop_assert_eq!(c1 < c2, p1 > p2);
    }

    #[test]
    fn steiner_tree_spans_terminals(g in arb_graph(10, 30), k in 2usize..5) {
        let terminals: Vec<NodeId> = (0..k.min(g.node_count())).map(NodeId::new).collect();
        prop_assume!(nodes_connected(&g, &terminals));
        let t = steiner_approximation(&g, &terminals, w).expect("terminals connected");
        let sub = g.filter_edges(|e| t.edges.contains(&e.id));
        prop_assert!(nodes_connected(&sub, &terminals));
        // A tree: |edges| <= |touched nodes| - 1 (acyclicity via union-find).
        let mut uf = UnionFind::new(g.node_count());
        for &e in &t.edges {
            let (a, b) = g.endpoints(e);
            prop_assert!(uf.union_nodes(a, b), "cycle in Steiner tree");
        }
    }
}
