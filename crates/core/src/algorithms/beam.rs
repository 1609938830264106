//! Beam search over entanglement-tree growth — a tunable middle ground
//! between Algorithm 4 (beam width 1) and the exponential oracle.
//!
//! The NP-hardness of MUERP (Theorem 2) means greedy growth can commit
//! to a channel that exhausts a contended switch and strands a later
//! user on a poor detour. Beam search hedges: it carries the `width`
//! best *partial trees* (connected user set + residual capacity +
//! accumulated rate) through the `|U| − 1` growth rounds, expanding each
//! with its top candidate channels and re-pruning. Width 1 reproduces
//! Algorithm 4 exactly; already width 2–3 escapes the canonical greedy
//! trap (see the tests and `tests/hardness_witness.rs`).

use crate::channel::{CapacityMap, Channel};
use crate::error::RoutingError;
use crate::model::QuantumNetwork;
use crate::rate::Rate;
use crate::solver::{RoutingAlgorithm, Solution};
use crate::tree::EntanglementTree;

use super::channel_finder::ChannelFinderCache;
use super::prim_based::attach;

/// Beam-search tree growth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BeamSearch {
    /// Number of partial trees carried per round (≥ 1).
    pub width: usize,
    /// Candidate channels expanded per partial tree per round (≥ 1);
    /// the top `branch` channels by rate among all cross pairs.
    pub branch: usize,
}

impl Default for BeamSearch {
    /// Width 3, branch 3 — enough to escape 2-channel traps at roughly
    /// 9× Algorithm 4's cost.
    fn default() -> Self {
        BeamSearch {
            width: 3,
            branch: 3,
        }
    }
}

#[derive(Clone)]
struct State {
    in_tree: Vec<bool>,
    capacity: CapacityMap,
    tree: EntanglementTree,
    rate: Rate,
}

impl RoutingAlgorithm for BeamSearch {
    fn name(&self) -> &'static str {
        "Beam"
    }

    fn solve(&self, net: &QuantumNetwork) -> Result<Solution, RoutingError> {
        assert!(self.width >= 1, "beam width must be at least 1");
        assert!(self.branch >= 1, "branch factor must be at least 1");
        let beam_result = self.solve_beam(net);
        if self.width == 1 && self.branch == 1 {
            return beam_result;
        }
        // Anytime guarantee: rate-based pruning can drop the greedy
        // lineage (the classic beam anomaly), so a wide beam is not
        // automatically ≥ greedy. Run the width-1 beam (== Algorithm 4
        // from the first user) and keep the better of the two.
        let greedy_result = BeamSearch {
            width: 1,
            branch: 1,
        }
        .solve_beam(net);
        match (beam_result, greedy_result) {
            (Ok(b), Ok(g)) => Ok(if b.rate >= g.rate { b } else { g }),
            (Ok(b), Err(_)) => Ok(b),
            (Err(_), Ok(g)) => Ok(g),
            (Err(e), Err(_)) => Err(e),
        }
    }
}

impl BeamSearch {
    fn solve_beam(&self, net: &QuantumNetwork) -> Result<Solution, RoutingError> {
        let _span = qnet_obs::span!("core.beam.solve");
        qnet_obs::counter!("core.beam.solves");
        let users = net.users();
        if users.len() < 2 {
            return Err(RoutingError::TooFewUsers { got: users.len() });
        }

        let mut in_tree = vec![false; net.graph().node_count()];
        in_tree[users[0].index()] = true;
        let mut beam = vec![State {
            in_tree,
            capacity: CapacityMap::new(net),
            tree: EntanglementTree::new(),
            rate: Rate::ONE,
        }];
        // States carry diverged capacity clones, so a (source, epoch)
        // entry hits only for states sharing an unmutated lineage — but
        // even a miss repairs in place, keeping the search
        // allocation-free across the whole beam.
        let mut cache = ChannelFinderCache::new(net);

        for round in 1..users.len() {
            let mut expansions: Vec<State> = Vec::new();
            for state in &beam {
                // Top candidate channels crossing this state's cut.
                let mut candidates: Vec<Channel> = Vec::new();
                for &src in users.iter().filter(|u| state.in_tree[u.index()]) {
                    let finder = cache.finder(&state.capacity, src);
                    for &dst in users.iter().filter(|u| !state.in_tree[u.index()]) {
                        if let Some(c) = finder.channel_to(dst) {
                            candidates.push(c);
                        }
                    }
                }
                candidates.sort_by_key(|c| std::cmp::Reverse(c.rate));
                if candidates.len() > self.branch {
                    qnet_obs::counter!("core.channel.rejected", reason = "width";
                        (candidates.len() - self.branch) as u64);
                }
                candidates.truncate(self.branch);
                for c in candidates {
                    let mut next = state.clone();
                    next.rate *= c.rate;
                    attach(c, &mut next.capacity, &mut next.in_tree, &mut next.tree);
                    expansions.push(next);
                }
            }
            if expansions.is_empty() {
                let stranded = users
                    .iter()
                    .copied()
                    .find(|u| !beam[0].in_tree[u.index()])
                    .expect("rounds run only while users remain");
                return Err(RoutingError::NoFeasibleChannel {
                    a: users[0],
                    b: stranded,
                });
            }
            // Prune to the best `width` states. Dedup by covered user set
            // keeping the best rate, so the beam holds *diverse* cuts.
            let expanded = expansions.len();
            expansions.sort_by_key(|s| std::cmp::Reverse(s.rate));
            let mut kept: Vec<State> = Vec::with_capacity(self.width);
            let mut seen_sets: Vec<Vec<bool>> = Vec::new();
            for s in expansions {
                let user_set: Vec<bool> = users.iter().map(|u| s.in_tree[u.index()]).collect();
                if seen_sets.contains(&user_set) {
                    continue;
                }
                seen_sets.push(user_set);
                kept.push(s);
                if kept.len() == self.width {
                    break;
                }
            }
            if qnet_obs::trace_enabled() {
                qnet_obs::record_event(qnet_obs::TraceEvent::BeamRound {
                    round: round as u32,
                    expanded: expanded as u32,
                    kept: kept.len() as u32,
                });
            }
            beam = kept;
        }

        let best = beam
            .into_iter()
            .max_by(|a, b| a.rate.cmp(&b.rate))
            .expect("beam never empties after a successful round");
        Ok(Solution::from_tree(best.tree))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::PrimBased;
    use crate::model::{NetworkSpec, NodeKind, PhysicsParams};
    use crate::solver::validate_solution;
    use qnet_graph::Graph;

    fn trap() -> QuantumNetwork {
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let u1 = g.add_node(NodeKind::User);
        let u2 = g.add_node(NodeKind::User);
        let u3 = g.add_node(NodeKind::User);
        let hub = g.add_node(NodeKind::Switch { qubits: 2 });
        let d12 = g.add_node(NodeKind::Switch { qubits: 2 });
        let d13 = g.add_node(NodeKind::Switch { qubits: 2 });
        g.add_edge(u1, hub, 500.0);
        g.add_edge(hub, u2, 500.0);
        g.add_edge(hub, u3, 600.0);
        g.add_edge(u1, d12, 600.0);
        g.add_edge(d12, u2, 600.0);
        g.add_edge(u1, d13, 5000.0);
        g.add_edge(d13, u3, 5000.0);
        let _ = (u2, u3);
        QuantumNetwork::from_graph(g, PhysicsParams::paper_default())
    }

    #[test]
    fn width_one_is_exactly_prim() {
        for seed in 0..6u64 {
            let net = NetworkSpec::paper_default().build(seed);
            let beam = BeamSearch {
                width: 1,
                branch: 1,
            }
            .solve(&net);
            let prim = PrimBased::default().solve(&net);
            match (beam, prim) {
                (Ok(b), Ok(p)) => {
                    assert!(
                        (b.rate.value() - p.rate.value()).abs() <= 1e-12 * p.rate.value(),
                        "seed {seed}: beam-1 {} vs prim {}",
                        b.rate,
                        p.rate
                    );
                }
                (Err(_), Err(_)) => {}
                other => panic!("seed {seed}: {other:?}"),
            }
        }
    }

    #[test]
    fn escapes_the_greedy_trap() {
        let net = trap();
        let prim = PrimBased::default().solve(&net).unwrap();
        let beam = BeamSearch::default().solve(&net).unwrap();
        validate_solution(&net, &beam).unwrap();
        // Greedy lands on 0.8143 × 0.3311; beam finds ≈ 0.8063 × 0.7982.
        assert!(
            beam.rate.value() > prim.rate.value() * 2.0,
            "beam {} should double greedy {}",
            beam.rate,
            prim.rate
        );
        let near_optimal = 0.9 * (-0.11f64).exp() * 0.9 * (-0.12f64).exp();
        assert!(beam.rate.value() >= near_optimal * (1.0 - 1e-9));
    }

    #[test]
    fn wider_beams_never_do_worse_instancewise() {
        // The anytime guarantee: a wide beam falls back to its width-1
        // (greedy) trajectory whenever rate pruning would have lost it.
        for seed in 0..8u64 {
            let net = NetworkSpec::paper_default().build(seed);
            let narrow = BeamSearch {
                width: 1,
                branch: 1,
            }
            .solve(&net)
            .map_or(0.0, |s| s.rate.value());
            let wide = BeamSearch {
                width: 4,
                branch: 3,
            }
            .solve(&net)
            .map_or(0.0, |s| s.rate.value());
            assert!(
                wide >= narrow * (1.0 - 1e-12),
                "seed {seed}: wide beam {wide} lost to greedy {narrow}"
            );
        }
    }

    #[test]
    fn solutions_validate_on_paper_default() {
        for seed in 0..6u64 {
            let net = NetworkSpec::paper_default().build(seed);
            if let Ok(sol) = BeamSearch::default().solve(&net) {
                validate_solution(&net, &sol).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                assert_eq!(sol.channels.len(), net.user_count() - 1);
            }
        }
    }

    #[test]
    fn never_beats_the_oracle_on_the_trap() {
        use crate::feasibility::exhaustive_optimal;
        let net = trap();
        let oracle = exhaustive_optimal(&net, 4).unwrap().rate().value();
        let beam = BeamSearch {
            width: 8,
            branch: 5,
        }
        .solve(&net)
        .unwrap();
        assert!(beam.rate.value() <= oracle * (1.0 + 1e-9));
    }

    #[test]
    fn infeasible_instances_error_cleanly() {
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let _a = g.add_node(NodeKind::User);
        let _b = g.add_node(NodeKind::User);
        let net = QuantumNetwork::from_graph(g, PhysicsParams::paper_default());
        assert!(matches!(
            BeamSearch::default().solve(&net),
            Err(RoutingError::NoFeasibleChannel { .. })
        ));
    }
}
