//! Routing plans: the structures the central controller distributes
//! (paper §II-B) and the simulator executes.
//!
//! Plans are expressed in plain node indices and fiber lengths so the
//! simulator stays decoupled from any particular graph representation;
//! `muerp-core` solutions convert trivially (see the integration tests).

use std::collections::HashMap;

/// One quantum channel (or fusion-star arm): a node path with per-link
/// fiber lengths and a switch flag per node.
#[derive(Clone, Debug, PartialEq)]
pub struct ChannelSpec {
    /// Node indices along the path.
    pub nodes: Vec<usize>,
    /// Fiber length of each link (`lengths.len() == nodes.len() − 1`).
    pub lengths: Vec<f64>,
    /// Whether each node along the path is a switch (`true`) or a user
    /// endpoint (`false`).
    pub is_switch: Vec<bool>,
}

impl ChannelSpec {
    /// Creates a channel spec.
    ///
    /// # Panics
    ///
    /// Panics when the three slices disagree in length, the path has
    /// fewer than 2 nodes, or an interior node is not flagged as a
    /// switch.
    pub fn new(nodes: Vec<usize>, lengths: Vec<f64>, is_switch: &[bool]) -> Self {
        assert!(nodes.len() >= 2, "a channel spans at least 2 nodes");
        assert_eq!(lengths.len(), nodes.len() - 1, "one length per link");
        assert_eq!(is_switch.len(), nodes.len(), "one switch flag per node");
        for (i, &flag) in is_switch.iter().enumerate().take(nodes.len() - 1).skip(1) {
            assert!(flag, "interior node position {i} must be a switch");
        }
        ChannelSpec {
            nodes,
            lengths,
            is_switch: is_switch.to_vec(),
        }
    }

    /// Number of links `l`.
    pub fn links(&self) -> usize {
        self.lengths.len()
    }

    /// First node of the path.
    pub fn head(&self) -> usize {
        self.nodes[0]
    }

    /// Last node of the path.
    pub fn tail(&self) -> usize {
        *self.nodes.last().expect("non-empty path")
    }

    /// Interior node indices (positions `1..len−1`).
    pub fn interior(&self) -> &[usize] {
        if self.nodes.len() <= 2 {
            &[]
        } else {
            &self.nodes[1..self.nodes.len() - 1]
        }
    }

    /// The analytic Eq. 1 rate of this channel:
    /// `q^(l−1) · Π exp(−α·Lᵢ)`.
    pub fn analytic_rate(&self, swap_success: f64, attenuation: f64) -> f64 {
        let links: f64 = self
            .lengths
            .iter()
            .map(|&l| (-attenuation * l).exp())
            .product();
        swap_success.powi(self.links() as i32 - 1) * links
    }
}

/// What the plan's structure is.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PlanKind {
    /// An entanglement tree: channels connect user pairs; BSM only.
    Tree,
    /// A fusion star: all channels end at `center`, which performs one
    /// n-fusion over its held qubits.
    FusionStar {
        /// The center node index.
        center: usize,
        /// Whether the center is a switch (it then pins one memory qubit
        /// per incoming arm) or a user.
        center_is_switch: bool,
    },
}

/// A complete routing plan for one entanglement attempt per slot.
#[derive(Clone, Debug, PartialEq)]
pub struct RoutingPlan {
    /// The channels (tree edges or star arms).
    pub channels: Vec<ChannelSpec>,
    /// Structure of the plan.
    pub kind: PlanKind,
}

impl RoutingPlan {
    /// An entanglement-tree plan.
    pub fn tree(channels: Vec<ChannelSpec>) -> Self {
        RoutingPlan {
            channels,
            kind: PlanKind::Tree,
        }
    }

    /// A fusion-star plan centered at `center`.
    ///
    /// # Panics
    ///
    /// Panics when some channel does not end (or start) at the center.
    pub fn fusion_star(channels: Vec<ChannelSpec>, center: usize, center_is_switch: bool) -> Self {
        for c in &channels {
            assert!(
                c.head() == center || c.tail() == center,
                "fusion arm {:?} does not touch center {center}",
                c.nodes
            );
        }
        RoutingPlan {
            channels,
            kind: PlanKind::FusionStar {
                center,
                center_is_switch,
            },
        }
    }

    /// The user endpoints the plan entangles (deduplicated, sorted).
    pub fn users(&self) -> Vec<usize> {
        let mut users = Vec::new();
        for c in &self.channels {
            for (pos, &node) in c.nodes.iter().enumerate() {
                let is_end = pos == 0 || pos == c.nodes.len() - 1;
                if is_end && !c.is_switch[pos] {
                    users.push(node);
                }
            }
        }
        if let PlanKind::FusionStar {
            center,
            center_is_switch: false,
        } = self.kind
        {
            users.push(center);
        }
        users.sort_unstable();
        users.dedup();
        users
    }

    /// Number of qubits fused at the center of a star plan: one per arm,
    /// plus a local qubit when the center is itself a user.
    ///
    /// Returns `None` for tree plans.
    pub fn fusion_arity(&self) -> Option<usize> {
        match self.kind {
            PlanKind::Tree => None,
            PlanKind::FusionStar {
                center_is_switch, ..
            } => Some(self.channels.len() + usize::from(!center_is_switch)),
        }
    }

    /// Per-switch qubit demand: 2 per interior visit, plus 1 per arm at
    /// a switch fusion center.
    pub fn qubit_demand(&self) -> HashMap<usize, u32> {
        let mut demand: HashMap<usize, u32> = HashMap::new();
        for c in &self.channels {
            for &s in c.interior() {
                *demand.entry(s).or_insert(0) += 2;
            }
        }
        if let PlanKind::FusionStar {
            center,
            center_is_switch: true,
        } = self.kind
        {
            *demand.entry(center).or_insert(0) += self.channels.len() as u32;
        }
        demand
    }

    /// `true` when the demand fits the given per-node capacities (nodes
    /// absent from `capacity` are treated as unconstrained users).
    pub fn fits_capacity(&self, capacity: &HashMap<usize, u32>) -> bool {
        self.qubit_demand()
            .iter()
            .all(|(node, need)| capacity.get(node).is_none_or(|have| need <= have))
    }

    /// The analytic end-to-end rate: Eq. 2 for trees; the channel product
    /// times the fusion success for stars.
    pub fn analytic_rate(
        &self,
        swap_success: f64,
        attenuation: f64,
        fusion_success: Option<f64>,
    ) -> f64 {
        let product: f64 = self
            .channels
            .iter()
            .map(|c| c.analytic_rate(swap_success, attenuation))
            .product();
        match self.fusion_arity() {
            None => product,
            Some(n) => {
                let f = crate::fusion::FusionModel {
                    swap_success,
                    fixed: fusion_success,
                }
                .success_prob(n);
                product * f
            }
        }
    }

    /// Upper bound on qubits a slot allocates (2 per link plus two local
    /// qubits at a user-centered fusion), used to size the entanglement
    /// registry.
    pub fn max_qubits(&self) -> usize {
        2 * self.channels.iter().map(ChannelSpec::links).sum::<usize>() + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_hop() -> ChannelSpec {
        ChannelSpec::new(vec![0, 1, 2], vec![1000.0, 1000.0], &[false, true, false])
    }

    #[test]
    fn analytic_rate_matches_eq1() {
        let c = two_hop();
        let rate = c.analytic_rate(0.9, 1e-4);
        assert!((rate - 0.9 * (-0.2f64).exp()).abs() < 1e-12);
        let direct = ChannelSpec::new(vec![0, 2], vec![2500.0], &[false, false]);
        assert!((direct.analytic_rate(0.9, 1e-4) - (-0.25f64).exp()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "interior node")]
    fn interior_user_rejected() {
        ChannelSpec::new(vec![0, 1, 2], vec![1.0, 1.0], &[false, false, false]);
    }

    #[test]
    fn tree_plan_accounting() {
        let plan = RoutingPlan::tree(vec![
            two_hop(),
            ChannelSpec::new(vec![0, 1, 3], vec![1000.0, 500.0], &[false, true, false]),
        ]);
        assert_eq!(plan.users(), vec![0, 2, 3]);
        assert_eq!(plan.qubit_demand()[&1], 4, "switch 1 relays twice");
        assert_eq!(plan.fusion_arity(), None);
        let mut caps = HashMap::new();
        caps.insert(1usize, 4u32);
        assert!(plan.fits_capacity(&caps));
        caps.insert(1, 2);
        assert!(!plan.fits_capacity(&caps));
    }

    #[test]
    fn star_plan_accounting() {
        // Users 0, 2, 3 star into switch 1.
        let arms = vec![
            ChannelSpec::new(vec![0, 1], vec![800.0], &[false, true]),
            ChannelSpec::new(vec![2, 1], vec![800.0], &[false, true]),
            ChannelSpec::new(vec![3, 1], vec![800.0], &[false, true]),
        ];
        let plan = RoutingPlan::fusion_star(arms, 1, true);
        assert_eq!(plan.users(), vec![0, 2, 3]);
        assert_eq!(plan.fusion_arity(), Some(3));
        assert_eq!(plan.qubit_demand()[&1], 3, "one pinned qubit per arm");
        // Analytic: p³ · q² with p = e^{-0.08}.
        let rate = plan.analytic_rate(0.9, 1e-4, None);
        let expected = (-0.08f64).exp().powi(3) * 0.81;
        assert!((rate - expected).abs() < 1e-12);
    }

    #[test]
    fn user_centered_star_arity_includes_center() {
        let arms = vec![
            ChannelSpec::new(vec![0, 9], vec![800.0], &[false, false]),
            ChannelSpec::new(vec![2, 9], vec![800.0], &[false, false]),
        ];
        let plan = RoutingPlan::fusion_star(arms, 9, false);
        assert_eq!(plan.fusion_arity(), Some(3));
        assert_eq!(plan.users(), vec![0, 2, 9]);
        assert!(plan.qubit_demand().is_empty());
    }

    #[test]
    #[should_panic(expected = "does not touch center")]
    fn stray_arm_rejected() {
        RoutingPlan::fusion_star(vec![two_hop()], 7, true);
    }

    #[test]
    fn max_qubits_bounds_allocation() {
        let plan = RoutingPlan::tree(vec![two_hop()]);
        assert_eq!(plan.max_qubits(), 6);
    }
}
