//! Conversion between the routing layer ([`muerp_core`]) and the
//! physical-layer simulator ([`qnet_sim`]).
//!
//! A routing [`Solution`] is an analytic object; converting it to a
//! [`RoutingPlan`] lets the Monte-Carlo engine *execute* it and check
//! that the measured slot success rate converges to the solution's
//! claimed Eq. 2 rate — the end-to-end validation loop used by the
//! integration tests, the `montecarlo_validation` example and the
//! simulator track of `repro churn`.

use muerp_core::model::QuantumNetwork;
use muerp_core::solver::{Solution, SolutionStyle};
use qnet_sim::plan::{ChannelSpec, RoutingPlan};
use qnet_sim::SimPhysics;

/// Converts a routing solution into an executable simulation plan.
///
/// Node ids become plain indices; fiber lengths are read back from the
/// network's edges.
pub fn solution_to_plan(net: &QuantumNetwork, solution: &Solution) -> RoutingPlan {
    let channels: Vec<ChannelSpec> = solution
        .channels
        .iter()
        .map(|c| {
            let nodes: Vec<usize> = c.path.nodes.iter().map(|n| n.index()).collect();
            let lengths: Vec<f64> = c.path.edges.iter().map(|&e| net.length(e)).collect();
            let is_switch: Vec<bool> = c
                .path
                .nodes
                .iter()
                .map(|&n| net.kind(n).is_switch())
                .collect();
            ChannelSpec::new(nodes, lengths, &is_switch)
        })
        .collect();
    match solution.style {
        SolutionStyle::BsmTree => RoutingPlan::tree(channels),
        SolutionStyle::FusionStar { center, .. } => {
            RoutingPlan::fusion_star(channels, center.index(), net.kind(center).is_switch())
        }
    }
}

/// The simulator physics matching a network's parameters (power-law
/// fusion model, i.e. `q^(n−1)`, matching
/// [`muerp_core::algorithms::baselines::FusionSuccess::PowerLaw`]).
pub fn physics_of(net: &QuantumNetwork) -> SimPhysics {
    SimPhysics {
        swap_success: net.physics().swap_success,
        attenuation: net.physics().attenuation,
        fusion_success: None,
    }
}
