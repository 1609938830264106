//! Fidelity-aware routing — the paper's first named extension.
//!
//! The base model maximizes the entanglement *rate*; real deployments
//! also need the delivered pairs to be *good* (fidelity above a
//! threshold). Following the standard Werner-state model used by the
//! fidelity-aware literature the paper cites (\[15\], \[18\], \[19\]):
//!
//! * each quantum link delivers a Werner pair with fidelity `F_link`;
//! * swapping two Werner pairs of fidelities `F₁`, `F₂` yields fidelity
//!   `F₁·F₂ + (1−F₁)(1−F₂)/3` ([`werner_swap_fidelity`]);
//! * a channel of `l` links therefore has a fidelity that depends only on
//!   `l` (uniform links), strictly decreasing in `l` — so a fidelity
//!   floor is exactly a *hop bound* on channels
//!   ([`FidelityModel::max_links`]).
//!
//! [`FidelityAwarePrim`] grows the entanglement tree like Algorithm 4 but
//! restricts every channel to the hop bound, using a hop-layered variant
//! of Algorithm 1 (Dijkstra over `(node, hops)` states).

use qnet_graph::paths::Path;
use qnet_graph::{EdgeId, NodeId};

use crate::algorithms::{attach, Algorithm1};
use crate::channel::{CapacityMap, Channel};
use crate::error::RoutingError;
use crate::model::QuantumNetwork;
use crate::solver::{RoutingAlgorithm, Solution};
use crate::tree::EntanglementTree;

/// Fidelity of the Werner pair produced by swapping two Werner pairs of
/// fidelities `f1` and `f2` under a BSM.
///
/// # Example
///
/// ```
/// use muerp_core::extensions::werner_swap_fidelity;
/// let f = werner_swap_fidelity(1.0, 1.0);
/// assert!((f - 1.0).abs() < 1e-12, "perfect pairs swap perfectly");
/// assert!(werner_swap_fidelity(0.9, 0.9) < 0.9, "fidelity decays");
/// ```
pub fn werner_swap_fidelity(f1: f64, f2: f64) -> f64 {
    f1 * f2 + (1.0 - f1) * (1.0 - f2) / 3.0
}

/// The uniform-link Werner fidelity model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FidelityModel {
    /// Fidelity of a fresh link-level Werner pair.
    pub link_fidelity: f64,
    /// Minimum acceptable end-to-end channel fidelity.
    pub min_fidelity: f64,
}

impl FidelityModel {
    /// End-to-end fidelity of a channel of `links` uniform links joined
    /// by BSM swaps.
    ///
    /// # Panics
    ///
    /// Panics if `links == 0`.
    pub fn channel_fidelity(&self, links: usize) -> f64 {
        assert!(links > 0, "a channel has at least one link");
        let mut f = self.link_fidelity;
        for _ in 1..links {
            f = werner_swap_fidelity(f, self.link_fidelity);
        }
        f
    }

    /// The largest channel length (in links) whose fidelity still meets
    /// `min_fidelity`, or `None` when even one link falls short.
    ///
    /// For `link_fidelity > 1/2` the fidelity is strictly decreasing in
    /// length, so this is a simple scan with a hard cap.
    pub fn max_links(&self) -> Option<usize> {
        if self.link_fidelity < self.min_fidelity {
            return None;
        }
        let mut l = 1;
        // Werner fidelity converges to 1/4 from above; cap the scan.
        while l < 64 && self.channel_fidelity(l + 1) >= self.min_fidelity {
            l += 1;
        }
        Some(l)
    }
}

/// Maximum-rate channel between `a` and `b` with at most `max_links`
/// links — the hop-layered Algorithm 1 used by fidelity-aware routing.
///
/// Dynamic program over `(hops, node)`: `cost[h][v]` is the cheapest
/// admissible path of exactly ≤ h links, with the same relay rule as
/// Algorithm 1 (interior = switch with ≥ 2 free qubits).
pub fn max_rate_channel_bounded(
    net: &QuantumNetwork,
    capacity: &CapacityMap,
    a: NodeId,
    b: NodeId,
    max_links: usize,
) -> Option<Channel> {
    let n = net.graph().node_count();
    if net.physics().swap_success <= 0.0 || a == b {
        return None;
    }
    let a1 = Algorithm1::new(net, None);

    const INF: f64 = f64::INFINITY;
    // cost[h][v], prev[h][v] = (prev_node, edge)
    let mut cost = vec![vec![INF; n]; max_links + 1];
    let mut prev: Vec<Vec<Option<(NodeId, EdgeId)>>> = vec![vec![None; n]; max_links + 1];
    cost[0][a.index()] = 0.0;

    for h in 0..max_links {
        for v in net.graph().node_ids() {
            let c = cost[h][v.index()];
            if c.is_infinite() {
                continue;
            }
            // Extend only from the source or a capable switch.
            if v != a && !a1.relays(capacity, v) {
                continue;
            }
            for (next, eid) in net.graph().neighbors(v) {
                let cand = c + a1.edge_cost(net.graph().edge(eid));
                if cand < cost[h + 1][next.index()] {
                    cost[h + 1][next.index()] = cand;
                    prev[h + 1][next.index()] = Some((v, eid));
                }
            }
        }
    }

    // Best arrival layer at b.
    let (best_h, _) = (1..=max_links)
        .map(|h| (h, cost[h][b.index()]))
        .filter(|(_, c)| c.is_finite())
        .min_by(|x, y| x.1.partial_cmp(&y.1).expect("costs are not NaN"))?;

    // Reconstruct. The layered DP may in principle revisit a node across
    // layers; reject non-simple reconstructions (they are never optimal
    // for positive edge costs, but guard anyway).
    let mut nodes = vec![b];
    let mut edges = Vec::new();
    let (mut h, mut cur) = (best_h, b);
    while h > 0 {
        let (p, e) = prev[h][cur.index()].expect("finite cost has a predecessor");
        nodes.push(p);
        edges.push(e);
        cur = p;
        h -= 1;
    }
    debug_assert_eq!(cur, a);
    nodes.reverse();
    edges.reverse();
    let mut seen = std::collections::HashSet::new();
    if !nodes.iter().all(|v| seen.insert(*v)) {
        return None;
    }
    Some(Channel::from_path(
        net,
        Path {
            nodes,
            edges,
            cost: 0.0,
        },
    ))
}

/// Fidelity-aware Prim-based routing: Algorithm 4 with every channel
/// restricted to the hop bound implied by the fidelity floor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FidelityAwarePrim {
    /// The Werner fidelity model supplying the hop bound.
    pub model: FidelityModel,
}

impl RoutingAlgorithm for FidelityAwarePrim {
    fn name(&self) -> &'static str {
        "Alg-4-Fid"
    }

    fn solve(&self, net: &QuantumNetwork) -> Result<Solution, RoutingError> {
        let users = net.users();
        if users.len() < 2 {
            return Err(RoutingError::TooFewUsers { got: users.len() });
        }
        let Some(max_links) = self.model.max_links() else {
            return Err(RoutingError::NoFeasibleChannel {
                a: users[0],
                b: users[1],
            });
        };
        let mut capacity = CapacityMap::new(net);
        let mut in_tree = vec![false; net.graph().node_count()];
        in_tree[users[0].index()] = true;
        let mut tree = EntanglementTree::new();
        for _ in 1..users.len() {
            let mut best: Option<Channel> = None;
            for &src in users.iter().filter(|u| in_tree[u.index()]) {
                for &dst in users.iter().filter(|u| !in_tree[u.index()]) {
                    if let Some(c) = max_rate_channel_bounded(net, &capacity, src, dst, max_links) {
                        if best.as_ref().is_none_or(|b| c.rate > b.rate) {
                            best = Some(c);
                        }
                    }
                }
            }
            let Some(c) = best else {
                let stranded = users
                    .iter()
                    .copied()
                    .find(|u| !in_tree[u.index()])
                    .expect("some user remains");
                return Err(RoutingError::NoFeasibleChannel {
                    a: users[0],
                    b: stranded,
                });
            };
            attach(c, &mut capacity, &mut in_tree, &mut tree);
        }
        Ok(Solution::from_tree(tree))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::PrimBased;
    use crate::model::{NetworkSpec, NodeKind, PhysicsParams};
    use crate::solver::validate_solution;
    use qnet_graph::Graph;

    #[test]
    fn werner_swap_basics() {
        assert!((werner_swap_fidelity(1.0, 1.0) - 1.0).abs() < 1e-12);
        // Two maximally mixed pairs (F = 1/4) stay near 1/4.
        let f = werner_swap_fidelity(0.25, 0.25);
        assert!((f - 0.25).abs() < 1e-12);
        // Monotone in each argument above the fixed point.
        assert!(werner_swap_fidelity(0.95, 0.9) > werner_swap_fidelity(0.9, 0.9));
    }

    #[test]
    fn channel_fidelity_decreases_with_length() {
        let m = FidelityModel {
            link_fidelity: 0.95,
            min_fidelity: 0.8,
        };
        let mut last = 1.0;
        for l in 1..10 {
            let f = m.channel_fidelity(l);
            assert!(f < last || l == 1);
            last = f;
        }
    }

    #[test]
    fn max_links_matches_threshold() {
        let m = FidelityModel {
            link_fidelity: 0.95,
            min_fidelity: 0.85,
        };
        let l = m.max_links().unwrap();
        assert!(m.channel_fidelity(l) >= 0.85);
        assert!(m.channel_fidelity(l + 1) < 0.85);
        // Impossible floor.
        let impossible = FidelityModel {
            link_fidelity: 0.7,
            min_fidelity: 0.9,
        };
        assert_eq!(impossible.max_links(), None);
    }

    #[test]
    fn bounded_channel_respects_hop_limit() {
        // Line of 3 switches between two users: only route has 4 links.
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let a = g.add_node(NodeKind::User);
        let s: Vec<NodeId> = (0..3)
            .map(|_| g.add_node(NodeKind::Switch { qubits: 4 }))
            .collect();
        let b = g.add_node(NodeKind::User);
        g.add_edge(a, s[0], 500.0);
        g.add_edge(s[0], s[1], 500.0);
        g.add_edge(s[1], s[2], 500.0);
        g.add_edge(s[2], b, 500.0);
        let net = QuantumNetwork::from_graph(g, PhysicsParams::paper_default());
        let cap = CapacityMap::new(&net);
        assert!(max_rate_channel_bounded(&net, &cap, a, b, 3).is_none());
        let c = max_rate_channel_bounded(&net, &cap, a, b, 4).unwrap();
        assert_eq!(c.link_count(), 4);
        assert!(c.validate(&net).is_ok());
    }

    #[test]
    fn bounded_matches_unbounded_when_loose() {
        let net = NetworkSpec::paper_default().build(6);
        let cap = CapacityMap::new(&net);
        let users = net.users();
        let unbounded = crate::algorithms::max_rate_channel(&net, &cap, users[0], users[1]);
        let bounded = max_rate_channel_bounded(&net, &cap, users[0], users[1], 60);
        match (unbounded, bounded) {
            (Some(u), Some(b)) => {
                assert!((u.rate.value() - b.rate.value()).abs() < 1e-9 * u.rate.value())
            }
            (None, None) => {}
            other => panic!("disagreement: {other:?}"),
        }
    }

    #[test]
    fn fidelity_floor_shrinks_or_preserves_rate() {
        let model = FidelityModel {
            link_fidelity: 0.99,
            min_fidelity: 0.93,
        };
        let mut wins = 0usize;
        let mut total = 0usize;
        for seed in 0..5 {
            let net = NetworkSpec::paper_default().build(seed);
            let free = PrimBased::default().solve(&net);
            let tight = FidelityAwarePrim { model }.solve(&net);
            if let (Ok(f), Ok(t)) = (free, tight) {
                validate_solution(&net, &t).unwrap();
                // Both are greedy heuristics, so the constrained run can
                // occasionally luck into a better tree; statistically it
                // must not win more often than it loses/ties.
                total += 1;
                if t.rate.value() > f.rate.value() * (1.0 + 1e-9) {
                    wins += 1;
                }
                // Every channel honors the hop bound — the hard invariant.
                let bound = model.max_links().unwrap();
                for c in &t.channels {
                    assert!(c.link_count() <= bound);
                }
            }
        }
        assert!(wins * 2 <= total, "constrained won {wins}/{total}");
    }
}
