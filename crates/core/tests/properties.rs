//! Property-based tests over random MUERP instances.
//!
//! Strategies generate small random quantum networks (hand-rolled, not
//! via the topology crate, so shrinking stays meaningful); properties
//! assert the invariants every algorithm must uphold and cross-check the
//! heuristics against the exhaustive oracle.

use proptest::prelude::*;

use muerp_core::algorithms::{
    k_best_channels_in, max_rate_channel, refine, ConflictFree, LocalSearchOptions,
    OptimalSufficient, PrimBased,
};
use muerp_core::channel::CapacityMap;
use muerp_core::feasibility::{enumerate_channels, exhaustive_optimal};
use muerp_core::model::{NodeKind, PhysicsParams, QuantumNetwork};
use muerp_core::solver::{validate_solution, RoutingAlgorithm};
use qnet_graph::{DijkstraWorkspace, Graph, NodeId};

/// A random small instance: `users` user nodes, `switches` switch nodes
/// with `qubits` qubits, random edges with lengths in [100, 5000].
fn arb_network(max_users: usize, max_switches: usize) -> impl Strategy<Value = QuantumNetwork> {
    (2..=max_users, 1..=max_switches, 1u32..=3, 0.5f64..=1.0).prop_flat_map(
        move |(users, switches, half_qubits, q)| {
            let n = users + switches;
            let edge = (0..n, 0..n, 100.0f64..5000.0);
            proptest::collection::vec(edge, n..=(3 * n)).prop_map(move |edges| {
                let mut g: Graph<NodeKind, f64> = Graph::new();
                for i in 0..n {
                    if i < users {
                        g.add_node(NodeKind::User);
                    } else {
                        g.add_node(NodeKind::Switch {
                            qubits: 2 * half_qubits,
                        });
                    }
                }
                for (a, b, len) in edges {
                    if a != b {
                        g.add_edge(NodeId::new(a), NodeId::new(b), len);
                    }
                }
                QuantumNetwork::from_graph(
                    g,
                    PhysicsParams {
                        swap_success: q,
                        attenuation: 1e-4,
                    },
                )
            })
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn solutions_always_validate(net in arb_network(5, 6)) {
        for (name, outcome) in [
            ("alg3", ConflictFree::default().solve(&net)),
            ("alg4", PrimBased::default().solve(&net)),
            ("eqcast", muerp_core::algorithms::baselines::EQCast.solve(&net)),
            ("nfusion", muerp_core::algorithms::baselines::NFusion::default().solve(&net)),
        ] {
            if let Ok(sol) = outcome {
                prop_assert!(
                    validate_solution(&net, &sol).is_ok(),
                    "{name} produced an invalid solution: {:?}",
                    validate_solution(&net, &sol)
                );
            }
        }
    }

    #[test]
    fn channel_rate_matches_eq1_exactly(net in arb_network(4, 5)) {
        let cap = CapacityMap::new(&net);
        let users = net.users().to_vec();
        for i in 0..users.len() {
            for j in (i + 1)..users.len() {
                if let Some(c) = max_rate_channel(&net, &cap, users[i], users[j]) {
                    let q = net.physics().swap_success;
                    let alpha = net.physics().attenuation;
                    let total_len: f64 = c.path.edges.iter().map(|&e| net.length(e)).sum();
                    let expected =
                        q.powi(c.link_count() as i32 - 1) * (-alpha * total_len).exp();
                    prop_assert!((c.rate.value() - expected).abs() < 1e-9 * expected);
                }
            }
        }
    }

    #[test]
    fn algorithm1_is_optimal_among_enumerated_channels(net in arb_network(3, 4)) {
        // Algorithm 1's channel must match the best channel found by
        // exhaustive path enumeration (the oracle for Eq. 1).
        let cap = CapacityMap::new(&net);
        let users = net.users().to_vec();
        let (a, b) = (users[0], users[1]);
        let best_enumerated = enumerate_channels(&net, a, b, 6).into_iter().next();
        let alg1 = max_rate_channel(&net, &cap, a, b);
        match (alg1, best_enumerated) {
            (Some(x), Some(y)) => {
                prop_assert!(
                    (x.rate.value() - y.rate.value()).abs() <= 1e-9 * y.rate.value()
                        || x.rate.value() >= y.rate.value(),
                    "alg1 {} < enumerated best {}",
                    x.rate.value(),
                    y.rate.value()
                );
            }
            // Enumeration is hop-bounded at 6; Algorithm 1 may reach
            // farther, never the reverse.
            (None, Some(_)) => prop_assert!(false, "alg1 missed an existing channel"),
            _ => {}
        }
    }

    #[test]
    fn heuristics_never_beat_the_oracle(net in arb_network(4, 4)) {
        prop_assume!(net.graph().node_count() <= 8);
        let Some(oracle) = exhaustive_optimal(&net, 5) else {
            // Infeasible within horizon: heuristics may still find longer
            // channels, which is fine — skip.
            return Ok(());
        };
        let bound = oracle.rate().value() * (1.0 + 1e-9);
        for sol in [
            ConflictFree::default().solve(&net),
            PrimBased::default().solve(&net),
        ]
        .into_iter()
        .flatten()
        {
            if sol.channels.iter().all(|c| c.link_count() <= 5) {
                prop_assert!(
                    sol.rate.value() <= bound,
                    "heuristic {} beat the oracle {}",
                    sol.rate.value(),
                    bound
                );
            }
        }
    }

    #[test]
    fn k_best_channels_are_sorted_distinct_and_headed_by_alg1(net in arb_network(3, 5)) {
        let cap = CapacityMap::new(&net);
        let users = net.users().to_vec();
        let (a, b) = (users[0], users[1]);
        let channels = k_best_channels_in(&mut DijkstraWorkspace::new(), &net, &cap, a, b, 4);
        for w in channels.windows(2) {
            prop_assert!(w[0].rate >= w[1].rate);
            prop_assert_ne!(&w[0].path.edges, &w[1].path.edges);
        }
        if let Some(first) = channels.first() {
            let alg1 = max_rate_channel(&net, &cap, a, b).expect("k>0 implies reachable");
            prop_assert!((first.rate.value() - alg1.rate.value()).abs() < 1e-12);
        }
        for c in &channels {
            prop_assert!(c.validate(&net).is_ok());
        }
    }

    #[test]
    fn local_search_is_monotone_and_valid(net in arb_network(4, 5)) {
        if let Ok(base) = PrimBased::default().solve(&net) {
            let refined = refine(&net, base.clone(), LocalSearchOptions {
                k_candidates: 2,
                max_rounds: 3,
                pair_moves: true,
            });
            prop_assert!(validate_solution(&net, &refined).is_ok());
            prop_assert!(refined.rate.value() >= base.rate.value() * (1.0 - 1e-12));
        }
    }

    #[test]
    fn alg2_dominates_heuristics_under_granted_capacity(net in arb_network(5, 6)) {
        let granted = net.with_uniform_switch_qubits(2 * net.user_count() as u32);
        let Ok(bound) = OptimalSufficient.solve(&granted) else { return Ok(()); };
        for sol in [
            ConflictFree::default().solve(&net),
            PrimBased::default().solve(&net),
        ]
        .into_iter()
        .flatten()
        {
            prop_assert!(sol.rate.value() <= bound.rate.value() * (1.0 + 1e-9));
        }
    }

    #[test]
    fn capacity_bookkeeping_is_exact(net in arb_network(5, 6)) {
        // After any successful run, re-derive the per-switch demand from
        // the channels and check it against fresh reservations.
        if let Ok(sol) = ConflictFree::default().solve(&net) {
            let mut cap = CapacityMap::new(&net);
            for c in &sol.channels {
                prop_assert!(cap.admits(c), "tree admitted a channel twice over");
                cap.reserve(c);
            }
            for s in net.switches() {
                prop_assert!(cap.free(s) <= net.kind(s).qubits());
            }
        }
    }

    #[test]
    fn finder_cache_matches_uncached_across_epoch_bumps(net in arb_network(4, 5)) {
        use muerp_core::algorithms::{ChannelFinder, ChannelFinderCache};
        // Drive the capacity map through reserve/release transitions and
        // at every step compare the cached finder (hit, refresh, or
        // first run) against an uncached from-scratch run for every
        // source user and destination.
        let users = net.users().to_vec();
        let mut cap = CapacityMap::new(&net);
        let mut cache = ChannelFinderCache::new(&net);
        let mut reserved: Vec<muerp_core::channel::Channel> = Vec::new();
        for step in 0..4 {
            for &src in &users {
                // Query the same (source, epoch) twice: second call must
                // be a pure cache hit and still agree.
                for _ in 0..2 {
                    let cached = cache.finder(&cap, src);
                    let mut ws = DijkstraWorkspace::new();
                    let uncached = ChannelFinder::from_source_in(&mut ws, &net, &cap, src);
                    for &dst in &users {
                        let (a, b) = (cached.channel_to(dst), uncached.channel_to(dst));
                        prop_assert_eq!(a.is_some(), b.is_some());
                        if let (Some(a), Some(b)) = (a, b) {
                            prop_assert_eq!(&a.path.nodes, &b.path.nodes);
                            prop_assert_eq!(&a.path.edges, &b.path.edges);
                            prop_assert_eq!(a.rate.value(), b.rate.value());
                        }
                    }
                }
            }
            // Mutate capacity for the next round: reserve something new
            // on even steps, release everything on odd ones.
            if step % 2 == 0 {
                if let Some(c) = max_rate_channel(&net, &cap, users[0], users[1]) {
                    cap.reserve(&c);
                    reserved.push(c);
                }
            } else {
                for c in reserved.drain(..) {
                    cap.release(&c);
                }
            }
        }
    }
}
