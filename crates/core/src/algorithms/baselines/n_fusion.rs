//! The **N-FUSION** baseline (paper §V-A).
//!
//! Models the MP-P protocol of Sutcliffe & Beghelli \[32\] under limited
//! switch capacity: one *fusion center* connects all users star-wise
//! ("like Tree B in Figure 3 of Ref. \[32\]"). Each user establishes a
//! swapped path to the center; the center then performs a single n-qubit
//! GHZ projective measurement (n-fusion) to entangle everyone.
//!
//! Per the paper's §I discussion, n-fusion is *less reliable* than BSM
//! chains: GHZ measurements manipulate n fragile qubits at once
//! \[38\]–\[40\]. We model the fusion success as `q^(n−1)` by default — the
//! n-fusion generalizes the BSM (`n = 2` recovers exactly `q`), and each
//! additional fused qubit multiplies in another failure opportunity —
//! and expose [`FusionSuccess`] so experiments can substitute other
//! models.
//!
//! The center is chosen greedily: every node (user or switch with at
//! least `|U|` spare qubits for the incoming paths) is tried, and the
//! center yielding the best total rate wins.

use qnet_graph::NodeId;

use crate::channel::{CapacityMap, Channel};
use crate::error::RoutingError;
use crate::model::QuantumNetwork;
use crate::rate::Rate;
use crate::solver::{RoutingAlgorithm, Solution, SolutionStyle};

use crate::algorithms::channel_finder::ChannelFinder;

/// Success model of the n-qubit GHZ projective measurement.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum FusionSuccess {
    /// `q^(n−1)`: the BSM success rate compounded per fused qubit beyond
    /// the first; `n = 2` recovers plain BSM swapping.
    #[default]
    PowerLaw,
    /// A fixed per-measurement success probability, independent of `n`.
    Fixed(f64),
}

impl FusionSuccess {
    /// Success rate of fusing `n` qubits when the BSM rate is `q`.
    pub fn rate(self, q: f64, n: usize) -> Rate {
        match self {
            FusionSuccess::PowerLaw => Rate::from_prob(q).powi(n.saturating_sub(1) as u32),
            FusionSuccess::Fixed(p) => Rate::from_prob(p),
        }
    }
}

/// The N-FUSION baseline: star routing to a fusion center plus one GHZ
/// measurement.
///
/// # Example
///
/// ```
/// use muerp_core::prelude::*;
///
/// let net = NetworkSpec::paper_default().build(4);
/// match NFusion::default().solve(&net) {
///     Ok(sol) => {
///         assert!(matches!(sol.style, SolutionStyle::FusionStar { .. }));
///         validate_solution(&net, &sol)?;
///     }
///     Err(e) => println!("no feasible fusion star: {e}"),
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NFusion {
    /// GHZ measurement success model.
    pub fusion: FusionSuccess,
}

impl NFusion {
    /// Attempts to build the fusion star centered at `center`; returns
    /// the solution when all users can reach the center under capacity.
    fn try_center(&self, net: &QuantumNetwork, center: NodeId) -> Option<Solution> {
        let users = net.users();
        let is_user_center = net.is_user(center);
        let incoming = if is_user_center {
            users.len() - 1
        } else {
            users.len()
        };
        let mut capacity = CapacityMap::new(net);
        if !is_user_center {
            // Reserve one memory qubit per incoming path at the switch
            // center up front; a center that cannot hold them all is
            // infeasible. (Interior relaying through the center is then
            // automatically restricted to its remaining qubits.)
            let have = capacity.free(center);
            if (have as usize) < incoming {
                return None;
            }
            for _ in 0..incoming {
                // Modeled as one-qubit reservations: two per *relayed*
                // channel stays the CapacityMap invariant, so we emulate
                // single-qubit holds by direct arithmetic below.
            }
        }
        // Track the center's single-qubit holds separately from the
        // 2-qubit relay reservations CapacityMap manages.
        let mut center_holds: u32 = 0;

        let mut channels: Vec<Channel> = Vec::with_capacity(incoming);
        let mut ws = qnet_graph::DijkstraWorkspace::with_capacity(net.graph().node_count());
        for &u in users {
            if u == center {
                continue;
            }
            // Re-run the finder per user on *current* residual capacity.
            let finder = ChannelFinder::from_source_in(&mut ws, net, &capacity, u);
            let c = finder.channel_to(center)?;
            // Reject paths relaying through the center's remaining
            // qubits when those are pledged to incoming holds: interior
            // visits cost 2 qubits that must coexist with the holds.
            if !is_user_center {
                let interior_at_center = c
                    .interior_switches()
                    .iter()
                    .filter(|&&s| s == center)
                    .count();
                debug_assert_eq!(interior_at_center, 0, "center is the path endpoint");
            }
            capacity.reserve(&c);
            if !is_user_center {
                center_holds += 1;
                // The hold shrinks what relays may use at the center.
                // CapacityMap has no single-qubit API (channels always
                // cost 2), so check the combined budget explicitly.
                let used_by_relays = net.kind(center).qubits() - capacity.free(center);
                if used_by_relays + center_holds > net.kind(center).qubits() {
                    return None;
                }
            }
            channels.push(c);
        }

        let arity = users.len();
        let fusion_rate = self.fusion.rate(net.physics().swap_success, arity);
        let rate = channels.iter().map(|c| c.rate).product::<Rate>() * fusion_rate;
        if rate.is_zero() {
            return None;
        }
        Some(Solution {
            channels,
            rate,
            style: SolutionStyle::FusionStar {
                center,
                fusion_rate,
            },
        })
    }
}

impl RoutingAlgorithm for NFusion {
    fn name(&self) -> &'static str {
        "N-Fusion"
    }

    fn solve(&self, net: &QuantumNetwork) -> Result<Solution, RoutingError> {
        let _span = qnet_obs::span!("core.n_fusion.solve");
        qnet_obs::counter!("core.n_fusion.solves");
        let users = net.users();
        if users.len() < 2 {
            return Err(RoutingError::TooFewUsers { got: users.len() });
        }
        let mut best: Option<Solution> = None;
        for center in net.graph().node_ids() {
            if let Some(sol) = self.try_center(net, center) {
                if best.as_ref().is_none_or(|b| sol.rate > b.rate) {
                    best = Some(sol);
                }
            }
        }
        best.ok_or(RoutingError::NoFusionCenter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{NetworkSpec, NodeKind, PhysicsParams};
    use crate::solver::validate_solution;
    use qnet_graph::Graph;

    fn star(qubits: u32, users: usize) -> (QuantumNetwork, Vec<NodeId>, NodeId) {
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let us: Vec<NodeId> = (0..users).map(|_| g.add_node(NodeKind::User)).collect();
        let hub = g.add_node(NodeKind::Switch { qubits });
        for &u in &us {
            g.add_edge(u, hub, 1000.0);
        }
        (
            QuantumNetwork::from_graph(g, PhysicsParams::paper_default()),
            us,
            hub,
        )
    }

    #[test]
    fn fusion_star_on_hub() {
        let (net, users, hub) = star(4, 3);
        let sol = NFusion::default().solve(&net).unwrap();
        let SolutionStyle::FusionStar { center, .. } = sol.style else {
            panic!("expected a fusion star");
        };
        assert_eq!(center, hub);
        assert_eq!(sol.channels.len(), 3);
        validate_solution(&net, &sol).unwrap();
        // Rate = p³ (three 1-link paths, no interior swaps) × q².
        let p = (-0.1f64).exp();
        let expected = p.powi(3) * 0.9f64.powi(users.len() as i32 - 1);
        assert!((sol.rate.value() - expected).abs() < 1e-12);
    }

    #[test]
    fn hub_capacity_gates_fusion() {
        // 3 users need 3 qubits at the hub; 2 are not enough and there
        // is no user-centered alternative (users interconnect only
        // through the hub, which cannot both hold and relay).
        let (net, _users, _hub) = star(2, 3);
        assert_eq!(
            NFusion::default().solve(&net).unwrap_err(),
            RoutingError::NoFusionCenter
        );
    }

    #[test]
    fn user_center_when_switches_are_weak() {
        // Users a,b,c; b has direct fibers to a and c; tiny switch
        // elsewhere. Center = b (a user) works: two incoming paths.
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let a = g.add_node(NodeKind::User);
        let b = g.add_node(NodeKind::User);
        let c = g.add_node(NodeKind::User);
        g.add_edge(a, b, 1000.0);
        g.add_edge(b, c, 1000.0);
        let net = QuantumNetwork::from_graph(g, PhysicsParams::paper_default());
        let sol = NFusion::default().solve(&net).unwrap();
        let SolutionStyle::FusionStar { center, .. } = sol.style else {
            panic!()
        };
        assert_eq!(center, b);
        assert_eq!(sol.channels.len(), 2);
        validate_solution(&net, &sol).unwrap();
    }

    #[test]
    fn power_law_fusion_model() {
        assert!((FusionSuccess::PowerLaw.rate(0.9, 2).value() - 0.9).abs() < 1e-12);
        assert!((FusionSuccess::PowerLaw.rate(0.9, 4).value() - 0.9f64.powi(3)).abs() < 1e-12);
        assert!((FusionSuccess::Fixed(0.5).rate(0.9, 10).value() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fusion_loses_to_bsm_tree_on_paper_default() {
        // The headline comparison: across seeds, N-FUSION must usually
        // lose to the proposed algorithms (Fig. 5).
        use crate::algorithms::ConflictFree;
        use crate::solver::RoutingAlgorithm as _;
        let mut fusion_wins = 0;
        let mut both = 0;
        for seed in 0..20 {
            let net = NetworkSpec::paper_default().build(seed);
            if let (Ok(f), Ok(t)) = (
                NFusion::default().solve(&net),
                ConflictFree::default().solve(&net),
            ) {
                both += 1;
                if f.rate > t.rate {
                    fusion_wins += 1;
                }
            }
        }
        assert!(
            fusion_wins * 4 <= both.max(1),
            "fusion won {fusion_wins}/{both}"
        );
    }

    #[test]
    fn validates_on_paper_default() {
        for seed in 0..10 {
            let net = NetworkSpec::paper_default().build(seed);
            if let Ok(sol) = NFusion::default().solve(&net) {
                validate_solution(&net, &sol)
                    .unwrap_or_else(|e| panic!("seed {seed}: invalid: {e}"));
            }
        }
    }
}
