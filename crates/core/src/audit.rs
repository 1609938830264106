//! Independent solution audit — the conformance harness's ground truth.
//!
//! [`crate::solver::validate_solution`] checks a solution using the same
//! building blocks the algorithms themselves use ([`crate::channel::Channel::from_path`],
//! [`crate::rate::Rate`] products), so a bug in those shared layers could
//! make an invalid solution *and* its validation agree. This module
//! re-derives every MUERP invariant from first principles — raw fiber
//! lengths, plain `f64` arithmetic, its own union-find — so the two
//! validators fail independently:
//!
//! * **user-coverage** — the channels span exactly the user set `U` with
//!   `|U| − 1` channels connecting every user;
//! * **tree-acyclicity** — no channel joins two already-connected users;
//! * **endpoint-role** / **interior-role** — channel endpoints are users,
//!   interiors are switches;
//! * **channel-width-1** — each channel is a simple (width-1) path;
//! * **edge-integrity** — every claimed edge exists between exactly the
//!   nodes it claims to connect;
//! * **duplicate-user-pair** — at most one channel per user pair;
//! * **switch-capacity** — summed demand (2 qubits per interior visit,
//!   plus 1 per incident fusion path at a switch center) never exceeds
//!   `Q_r`;
//! * **rate-eq1** / **rate-eq2** — per-channel and whole-solution rates
//!   recomputed from raw lengths as `q^(l−1)·exp(−α·ΣL)` match the
//!   reported rates to within `1e-9` (relative, compared in the log
//!   domain so deep-subnormal trees still audit exactly).
//!
//! Violations carry a stable [`AuditViolation::invariant`] name so fuzz
//! reports and CI logs can aggregate by invariant.

use std::collections::HashMap;

use qnet_graph::NodeId;

use crate::model::QuantumNetwork;
use crate::solver::{Solution, SolutionStyle};

/// Relative tolerance of the rate recomputation (paper Eq. 1/Eq. 2).
pub const RATE_TOLERANCE: f64 = 1e-9;

/// A violated MUERP invariant, found by [`SolutionAudit`].
#[derive(Clone, Debug, PartialEq)]
pub enum AuditViolation {
    /// The channel set does not cover the user set correctly.
    UserCoverage {
        /// Human-readable detail.
        detail: String,
    },
    /// A channel joins two users that are already connected.
    TreeAcyclicity {
        /// One endpoint of the cycle-closing channel.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// A channel endpoint is not a quantum user.
    EndpointRole {
        /// The offending node.
        node: NodeId,
    },
    /// A channel interior visits a non-switch node.
    InteriorRole {
        /// The offending node.
        node: NodeId,
    },
    /// A channel repeats a vertex (not a width-1 simple path).
    ChannelWidth {
        /// The repeated node.
        node: NodeId,
    },
    /// A channel's edge list is inconsistent with its node list or the
    /// network's fibers.
    EdgeIntegrity {
        /// Human-readable detail.
        detail: String,
    },
    /// More than one channel between the same user pair.
    DuplicateUserPair {
        /// First endpoint.
        a: NodeId,
        /// Second endpoint.
        b: NodeId,
    },
    /// Summed qubit demand at a switch exceeds its memory.
    SwitchCapacity {
        /// The overloaded switch.
        node: NodeId,
        /// Qubits demanded across all channels.
        demanded: u32,
        /// Qubits available.
        available: u32,
    },
    /// A channel's reported rate disagrees with Eq. 1 recomputed from raw
    /// fiber lengths.
    ChannelRate {
        /// Index of the channel in the solution.
        index: usize,
        /// Reported negative-log rate.
        claimed_cost: f64,
        /// Recomputed negative-log rate.
        recomputed_cost: f64,
    },
    /// The solution's reported rate disagrees with Eq. 2 recomputed from
    /// raw fiber lengths.
    SolutionRate {
        /// Reported negative-log rate.
        claimed_cost: f64,
        /// Recomputed negative-log rate.
        recomputed_cost: f64,
    },
    /// A fusion star's declared fusion rate is not a probability.
    FusionRateRange {
        /// The declared value.
        value: f64,
    },
}

impl AuditViolation {
    /// Stable name of the violated invariant.
    pub fn invariant(&self) -> &'static str {
        match self {
            AuditViolation::UserCoverage { .. } => "user-coverage",
            AuditViolation::TreeAcyclicity { .. } => "tree-acyclicity",
            AuditViolation::EndpointRole { .. } => "endpoint-role",
            AuditViolation::InteriorRole { .. } => "interior-role",
            AuditViolation::ChannelWidth { .. } => "channel-width-1",
            AuditViolation::EdgeIntegrity { .. } => "edge-integrity",
            AuditViolation::DuplicateUserPair { .. } => "duplicate-user-pair",
            AuditViolation::SwitchCapacity { .. } => "switch-capacity",
            AuditViolation::ChannelRate { .. } => "rate-eq1",
            AuditViolation::SolutionRate { .. } => "rate-eq2",
            AuditViolation::FusionRateRange { .. } => "fusion-rate-range",
        }
    }
}

impl core::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{}] ", self.invariant())?;
        match self {
            AuditViolation::UserCoverage { detail } => write!(f, "{detail}"),
            AuditViolation::TreeAcyclicity { a, b } => {
                write!(f, "channel {a}–{b} closes a cycle over the users")
            }
            AuditViolation::EndpointRole { node } => {
                write!(f, "channel endpoint {node} is not a user")
            }
            AuditViolation::InteriorRole { node } => {
                write!(f, "channel interior {node} is not a switch")
            }
            AuditViolation::ChannelWidth { node } => {
                write!(f, "channel revisits node {node}")
            }
            AuditViolation::EdgeIntegrity { detail } => write!(f, "{detail}"),
            AuditViolation::DuplicateUserPair { a, b } => {
                write!(f, "more than one channel between users {a} and {b}")
            }
            AuditViolation::SwitchCapacity {
                node,
                demanded,
                available,
            } => write!(
                f,
                "switch {node} over capacity: {demanded} qubits demanded, {available} available"
            ),
            AuditViolation::ChannelRate {
                index,
                claimed_cost,
                recomputed_cost,
            } => write!(
                f,
                "channel {index} rate −ln {claimed_cost} disagrees with Eq. 1 recomputation −ln {recomputed_cost}"
            ),
            AuditViolation::SolutionRate {
                claimed_cost,
                recomputed_cost,
            } => write!(
                f,
                "solution rate −ln {claimed_cost} disagrees with Eq. 2 recomputation −ln {recomputed_cost}"
            ),
            AuditViolation::FusionRateRange { value } => {
                write!(f, "fusion rate {value} is not a probability")
            }
        }
    }
}

impl std::error::Error for AuditViolation {}

/// Aggregate facts the audit derived while checking (useful for fuzz
/// reports and golden tests).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AuditReport {
    /// Number of channels in the solution.
    pub channels: usize,
    /// Total quantum links across all channels.
    pub links: usize,
    /// Total switch qubits consumed.
    pub switch_qubits_used: u64,
    /// Recomputed solution rate, negative-log domain (`−ln P`).
    pub recomputed_cost: f64,
    /// Recomputed solution rate as a plain probability (may underflow to
    /// zero for display; comparisons use [`AuditReport::recomputed_cost`]).
    pub recomputed_rate: f64,
}

/// The independent auditor. Construct via [`SolutionAudit::default`] and
/// call [`SolutionAudit::audit`]; `rel_tolerance` loosens or tightens the
/// rate comparison (default [`RATE_TOLERANCE`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolutionAudit {
    /// Relative tolerance for the Eq. 1/Eq. 2 rate recomputation.
    pub rel_tolerance: f64,
}

impl Default for SolutionAudit {
    fn default() -> Self {
        SolutionAudit {
            rel_tolerance: RATE_TOLERANCE,
        }
    }
}

/// Minimal union-find local to the audit, so a bug in
/// [`qnet_graph::UnionFind`] cannot mask a coverage bug here.
struct AuditSets {
    parent: Vec<usize>,
}

impl AuditSets {
    fn new(n: usize) -> Self {
        AuditSets {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Returns `false` when already joined.
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra] = rb;
        true
    }
}

impl SolutionAudit {
    /// Audits `solution` against `net`, returning derived facts or the
    /// first violated invariant.
    ///
    /// # Errors
    ///
    /// Returns the first [`AuditViolation`] discovered, in a deterministic
    /// check order (structure, coverage, capacity, rates).
    pub fn audit(
        &self,
        net: &QuantumNetwork,
        solution: &Solution,
    ) -> Result<AuditReport, AuditViolation> {
        let _span = qnet_obs::span!("core.audit.solution");
        match solution.style {
            SolutionStyle::BsmTree => self.audit_tree(net, solution),
            SolutionStyle::FusionStar {
                center,
                fusion_rate,
            } => self.audit_fusion(net, solution, center, fusion_rate.value()),
        }
    }

    fn audit_tree(
        &self,
        net: &QuantumNetwork,
        solution: &Solution,
    ) -> Result<AuditReport, AuditViolation> {
        let users = net.users();
        if solution.channels.len() + 1 != users.len()
            && !(users.len() < 2 && solution.channels.is_empty())
        {
            return Err(AuditViolation::UserCoverage {
                detail: format!(
                    "{} channels cannot span {} users (need {})",
                    solution.channels.len(),
                    users.len(),
                    users.len().saturating_sub(1)
                ),
            });
        }

        let mut demand: HashMap<NodeId, u64> = HashMap::new();
        let mut pairs = std::collections::HashSet::new();
        let mut sets = AuditSets::new(net.graph().node_count());
        let mut total_cost = 0.0f64;
        let mut total_links = 0usize;

        for (index, c) in solution.channels.iter().enumerate() {
            let cost = self.check_channel(net, index, c, &mut demand)?;
            total_cost += cost;
            total_links += c.path.edges.len();

            let (a, b) = (c.source(), c.destination());
            let key = if a <= b { (a, b) } else { (b, a) };
            if !pairs.insert(key) {
                return Err(AuditViolation::DuplicateUserPair { a: key.0, b: key.1 });
            }
            if !sets.union(a.index(), b.index()) {
                return Err(AuditViolation::TreeAcyclicity { a, b });
            }
        }

        if let Some((&first, rest)) = users.split_first() {
            let root = sets.find(first.index());
            if rest.iter().any(|u| sets.find(u.index()) != root) {
                return Err(AuditViolation::UserCoverage {
                    detail: "users left in separate components".into(),
                });
            }
        }

        self.check_capacity(net, &demand)?;

        let claimed_cost = solution.rate.neg_log().cost();
        self.check_cost("eq2", claimed_cost, total_cost).map_err(
            |(claimed_cost, recomputed_cost)| AuditViolation::SolutionRate {
                claimed_cost,
                recomputed_cost,
            },
        )?;

        Ok(AuditReport {
            channels: solution.channels.len(),
            links: total_links,
            switch_qubits_used: demand.values().sum(),
            recomputed_cost: total_cost,
            recomputed_rate: (-total_cost).exp(),
        })
    }

    fn audit_fusion(
        &self,
        net: &QuantumNetwork,
        solution: &Solution,
        center: NodeId,
        fusion_rate: f64,
    ) -> Result<AuditReport, AuditViolation> {
        if !(0.0..=1.0).contains(&fusion_rate) || fusion_rate.is_nan() {
            return Err(AuditViolation::FusionRateRange { value: fusion_rate });
        }

        let mut demand: HashMap<NodeId, u64> = HashMap::new();
        let mut covered = std::collections::HashSet::new();
        let mut total_cost = 0.0f64;
        let mut total_links = 0usize;

        for (index, c) in solution.channels.iter().enumerate() {
            // A fusion path runs user → center; identify the user end.
            let (src, dst) = (c.source(), c.destination());
            let user_end = if dst == center {
                src
            } else if src == center {
                dst
            } else {
                return Err(AuditViolation::UserCoverage {
                    detail: format!("fusion path {src}–{dst} does not touch the center {center}"),
                });
            };
            if !net.is_user(user_end) {
                return Err(AuditViolation::EndpointRole { node: user_end });
            }
            if !covered.insert(user_end) {
                return Err(AuditViolation::DuplicateUserPair {
                    a: user_end,
                    b: center,
                });
            }
            let cost = self.check_path(net, index, c, &mut demand)?;
            total_cost += cost;
            total_links += c.path.edges.len();
            // The center pins one qubit per incident path when it is a
            // switch (its own BSM/fusion memory).
            if net.kind(center).is_switch() {
                *demand.entry(center).or_insert(0) += 1;
            }
        }

        let missing = net
            .users()
            .iter()
            .filter(|&&u| u != center && !covered.contains(&u))
            .count();
        if missing > 0 {
            return Err(AuditViolation::UserCoverage {
                detail: format!("fusion star leaves {missing} user(s) without a path"),
            });
        }

        self.check_capacity(net, &demand)?;

        // Eq. 2 for a fusion star: product of path rates times the GHZ
        // measurement's success rate.
        let total_cost = total_cost - fusion_rate.max(f64::MIN_POSITIVE).ln();
        let claimed_cost = solution.rate.neg_log().cost();
        self.check_cost("eq2", claimed_cost, total_cost).map_err(
            |(claimed_cost, recomputed_cost)| AuditViolation::SolutionRate {
                claimed_cost,
                recomputed_cost,
            },
        )?;

        Ok(AuditReport {
            channels: solution.channels.len(),
            links: total_links,
            switch_qubits_used: demand.values().sum(),
            recomputed_cost: total_cost,
            recomputed_rate: (-total_cost).exp(),
        })
    }

    /// Structural + rate check of one user-to-user channel; returns its
    /// recomputed Eq. 1 negative-log rate and accumulates switch demand.
    fn check_channel(
        &self,
        net: &QuantumNetwork,
        index: usize,
        c: &crate::channel::Channel,
        demand: &mut HashMap<NodeId, u64>,
    ) -> Result<f64, AuditViolation> {
        for &endpoint in &[c.source(), c.destination()] {
            if !net.is_user(endpoint) {
                return Err(AuditViolation::EndpointRole { node: endpoint });
            }
        }
        self.check_path(net, index, c, demand)
    }

    /// Path-level checks shared by tree channels and fusion paths:
    /// width-1 simplicity, interior roles, edge integrity, per-switch
    /// demand, and the Eq. 1 rate from raw lengths.
    fn check_path(
        &self,
        net: &QuantumNetwork,
        index: usize,
        c: &crate::channel::Channel,
        demand: &mut HashMap<NodeId, u64>,
    ) -> Result<f64, AuditViolation> {
        let nodes = &c.path.nodes;
        if nodes.len() < 2 {
            return Err(AuditViolation::EdgeIntegrity {
                detail: format!("channel {index} has fewer than two nodes"),
            });
        }
        let mut seen = std::collections::HashSet::new();
        for &v in nodes {
            if !seen.insert(v) {
                return Err(AuditViolation::ChannelWidth { node: v });
            }
        }
        for &mid in &nodes[1..nodes.len() - 1] {
            if !net.kind(mid).is_switch() {
                return Err(AuditViolation::InteriorRole { node: mid });
            }
            *demand.entry(mid).or_insert(0) += 2;
        }
        if c.path.edges.len() != nodes.len() - 1 {
            return Err(AuditViolation::EdgeIntegrity {
                detail: format!(
                    "channel {index}: {} edges for {} nodes",
                    c.path.edges.len(),
                    nodes.len()
                ),
            });
        }
        // Eq. 1 from raw fiber lengths, in plain f64: the claimed edge
        // must be a real fiber between exactly the claimed node pair.
        let mut total_length = 0.0f64;
        for (i, &e) in c.path.edges.iter().enumerate() {
            if e.index() >= net.graph().edge_count() {
                return Err(AuditViolation::EdgeIntegrity {
                    detail: format!("channel {index}: edge {e} does not exist"),
                });
            }
            let (a, b) = net.graph().endpoints(e);
            let (x, y) = (nodes[i], nodes[i + 1]);
            if !((a == x && b == y) || (a == y && b == x)) {
                return Err(AuditViolation::EdgeIntegrity {
                    detail: format!("channel {index}: edge {e} does not join {x} and {y}"),
                });
            }
            total_length += net.length(e);
        }
        let q = net.physics().swap_success;
        let alpha = net.physics().attenuation;
        let links = c.path.edges.len();
        // −ln(q^(l−1)·exp(−α·ΣL)) = α·ΣL − (l−1)·ln q.
        let recomputed_cost =
            alpha * total_length - (links as f64 - 1.0) * q.max(f64::MIN_POSITIVE).ln();
        let claimed_cost = c.rate.neg_log().cost();
        self.check_cost("eq1", claimed_cost, recomputed_cost)
            .map_err(
                |(claimed_cost, recomputed_cost)| AuditViolation::ChannelRate {
                    index,
                    claimed_cost,
                    recomputed_cost,
                },
            )?;
        Ok(recomputed_cost)
    }

    fn check_capacity(
        &self,
        net: &QuantumNetwork,
        demand: &HashMap<NodeId, u64>,
    ) -> Result<(), AuditViolation> {
        for (&s, &demanded) in demand {
            let available = net.kind(s).qubits();
            if demanded > u64::from(available) {
                return Err(AuditViolation::SwitchCapacity {
                    node: s,
                    demanded: demanded.min(u64::from(u32::MAX)) as u32,
                    available,
                });
            }
        }
        Ok(())
    }

    /// Log-domain rate comparison: `|Δcost| ≤ tol·max(1, cost)` matches a
    /// relative probability tolerance for small deltas while staying exact
    /// for rates far below `f64` subnormal range.
    fn check_cost(&self, _which: &str, claimed: f64, recomputed: f64) -> Result<(), (f64, f64)> {
        if !claimed.is_finite()
            || (claimed - recomputed).abs() > self.rel_tolerance * recomputed.abs().max(1.0)
        {
            return Err((claimed, recomputed));
        }
        Ok(())
    }
}

/// Audits a solution with the default tolerance — the conformance
/// harness's one-call entry point.
///
/// # Errors
///
/// Returns the first violated invariant; see [`AuditViolation`].
pub fn audit_solution(
    net: &QuantumNetwork,
    solution: &Solution,
) -> Result<AuditReport, AuditViolation> {
    SolutionAudit::default().audit(net, solution)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;
    use crate::model::{NodeKind, PhysicsParams};
    use crate::rate::Rate;
    use crate::solver::SolutionStyle;
    use crate::tree::EntanglementTree;
    use qnet_graph::paths::Path;
    use qnet_graph::Graph;

    /// Two users joined through separate 4-qubit switches, plus a shared
    /// third user hanging off the first switch.
    fn sample() -> (QuantumNetwork, [NodeId; 5]) {
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let a = g.add_node(NodeKind::User);
        let b = g.add_node(NodeKind::User);
        let c = g.add_node(NodeKind::User);
        let s1 = g.add_node(NodeKind::Switch { qubits: 4 });
        let s2 = g.add_node(NodeKind::Switch { qubits: 4 });
        g.add_edge(a, s1, 900.0);
        g.add_edge(s1, b, 1100.0);
        g.add_edge(b, s2, 700.0);
        g.add_edge(s2, c, 1300.0);
        g.add_edge(s1, c, 2500.0);
        (
            QuantumNetwork::from_graph(g, PhysicsParams::paper_default()),
            [a, b, c, s1, s2],
        )
    }

    fn chan(net: &QuantumNetwork, nodes: Vec<NodeId>) -> Channel {
        let edges = nodes
            .windows(2)
            .map(|w| net.graph().find_edge(w[0], w[1]).unwrap())
            .collect();
        Channel::from_path(
            net,
            Path {
                nodes,
                edges,
                cost: 0.0,
            },
        )
    }

    fn good_solution(net: &QuantumNetwork, ids: &[NodeId; 5]) -> Solution {
        let [a, b, c, s1, s2] = *ids;
        Solution::from_tree(
            [chan(net, vec![a, s1, b]), chan(net, vec![b, s2, c])]
                .into_iter()
                .collect::<EntanglementTree>(),
        )
    }

    #[test]
    fn clean_solution_passes_with_report() {
        let (net, ids) = sample();
        let sol = good_solution(&net, &ids);
        let report = audit_solution(&net, &sol).expect("clean");
        assert_eq!(report.channels, 2);
        assert_eq!(report.links, 4);
        assert_eq!(report.switch_qubits_used, 4);
        assert!((report.recomputed_rate - sol.rate.value()).abs() <= 1e-9 * sol.rate.value());
    }

    #[test]
    fn over_capacity_switch_is_named() {
        let (net, ids) = sample();
        let [_, _, _, s1, _] = ids;
        let mut g = net.graph().clone();
        *g.node_mut(s1) = NodeKind::Switch { qubits: 2 };
        let tight = QuantumNetwork::from_graph(g, *net.physics());
        // Both channels now routed through s1: 4 qubits demanded of 2.
        let [a, b, c, s1, _] = ids;
        let sol = Solution::from_tree(
            [chan(&tight, vec![a, s1, b]), chan(&tight, vec![a, s1, c])]
                .into_iter()
                .collect::<EntanglementTree>(),
        );
        let err = audit_solution(&tight, &sol).unwrap_err();
        assert_eq!(err.invariant(), "switch-capacity");
        assert!(matches!(
            err,
            AuditViolation::SwitchCapacity {
                demanded: 4,
                available: 2,
                ..
            }
        ));
    }

    #[test]
    fn wrong_tree_rate_is_named() {
        let (net, ids) = sample();
        let mut sol = good_solution(&net, &ids);
        sol.rate *= Rate::from_prob(0.99);
        let err = audit_solution(&net, &sol).unwrap_err();
        assert_eq!(err.invariant(), "rate-eq2");
    }

    #[test]
    fn wrong_channel_rate_is_named() {
        let (net, ids) = sample();
        let mut sol = good_solution(&net, &ids);
        sol.channels[1].rate = Rate::from_prob(0.5);
        let err = audit_solution(&net, &sol).unwrap_err();
        assert_eq!(err.invariant(), "rate-eq1");
        assert!(err.to_string().starts_with("[rate-eq1]"));
    }

    #[test]
    fn missing_channel_is_user_coverage() {
        let (net, ids) = sample();
        let mut sol = good_solution(&net, &ids);
        sol.channels.pop();
        let err = audit_solution(&net, &sol).unwrap_err();
        assert_eq!(err.invariant(), "user-coverage");
    }

    #[test]
    fn repeated_pair_is_duplicate_user_pair() {
        let (net, ids) = sample();
        let first = good_solution(&net, &ids).channels[0].clone();
        let dup = Solution {
            rate: first.rate * first.rate,
            channels: vec![first.clone(), first],
            style: SolutionStyle::BsmTree,
        };
        let err = audit_solution(&net, &dup).unwrap_err();
        assert_eq!(err.invariant(), "duplicate-user-pair");
    }

    #[test]
    fn cycle_is_tree_acyclicity() {
        // 4 users around an 8-qubit hub: the third channel closes a
        // cycle over {u0, u1, u2} while u3 stays stranded.
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let u: Vec<NodeId> = (0..4).map(|_| g.add_node(NodeKind::User)).collect();
        let hub = g.add_node(NodeKind::Switch { qubits: 8 });
        for &x in &u {
            g.add_edge(x, hub, 500.0);
        }
        let net4 = QuantumNetwork::from_graph(g, PhysicsParams::paper_default());
        let c01 = chan(&net4, vec![u[0], hub, u[1]]);
        let c12 = chan(&net4, vec![u[1], hub, u[2]]);
        let c02 = chan(&net4, vec![u[0], hub, u[2]]);
        let rate = c01.rate * c12.rate * c02.rate;
        let sol = Solution {
            channels: vec![c01, c12, c02],
            rate,
            style: SolutionStyle::BsmTree,
        };
        let err = audit_solution(&net4, &sol).unwrap_err();
        assert_eq!(err.invariant(), "tree-acyclicity");
    }

    #[test]
    fn switch_endpoint_is_endpoint_role() {
        let (net, ids) = sample();
        let [a, b, c, s1, s2] = ids;
        let stub = chan(&net, vec![a, s1]); // ends on a switch
        let other = chan(&net, vec![b, s2, c]);
        let sol = Solution {
            rate: stub.rate * other.rate,
            channels: vec![stub, other],
            style: SolutionStyle::BsmTree,
        };
        let err = audit_solution(&net, &sol).unwrap_err();
        assert_eq!(err.invariant(), "endpoint-role");
    }

    #[test]
    fn user_interior_is_interior_role() {
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let u: Vec<NodeId> = (0..3).map(|_| g.add_node(NodeKind::User)).collect();
        g.add_edge(u[0], u[1], 400.0);
        g.add_edge(u[1], u[2], 400.0);
        let net = QuantumNetwork::from_graph(g, PhysicsParams::paper_default());
        let through_user = chan(&net, vec![u[0], u[1], u[2]]);
        let direct = chan(&net, vec![u[0], u[1]]);
        let sol = Solution {
            rate: through_user.rate * direct.rate,
            channels: vec![through_user, direct],
            style: SolutionStyle::BsmTree,
        };
        let err = audit_solution(&net, &sol).unwrap_err();
        assert_eq!(err.invariant(), "interior-role");
    }

    #[test]
    fn repeated_node_is_channel_width() {
        let (net, ids) = sample();
        let [a, b, _, s1, _] = ids;
        let e = net.graph().find_edge(a, s1).unwrap();
        let back = net.graph().find_edge(s1, b).unwrap();
        let zigzag = Channel {
            path: Path {
                nodes: vec![a, s1, a, s1, b],
                edges: vec![e, e, e, back],
                cost: 0.0,
            },
            rate: Rate::from_prob(0.5),
        };
        let other = chan(&net, vec![b, ids[4], ids[2]]);
        let sol = Solution {
            rate: zigzag.rate * other.rate,
            channels: vec![zigzag, other],
            style: SolutionStyle::BsmTree,
        };
        let err = audit_solution(&net, &sol).unwrap_err();
        assert_eq!(err.invariant(), "channel-width-1");
    }

    #[test]
    fn fake_edge_is_edge_integrity() {
        let (net, ids) = sample();
        let [a, _, _, s1, _] = ids;
        let mut sol = good_solution(&net, &ids);
        // Claim the a–s1 edge also joins s1 and b.
        let wrong = net.graph().find_edge(a, s1).unwrap();
        sol.channels[0].path.edges[1] = wrong;
        let err = audit_solution(&net, &sol).unwrap_err();
        assert_eq!(err.invariant(), "edge-integrity");
    }

    #[test]
    fn fusion_star_audits_center_capacity() {
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let u: Vec<NodeId> = (0..3).map(|_| g.add_node(NodeKind::User)).collect();
        let hub = g.add_node(NodeKind::Switch { qubits: 2 });
        for &x in &u {
            g.add_edge(x, hub, 600.0);
        }
        let net = QuantumNetwork::from_graph(g, PhysicsParams::paper_default());
        let paths: Vec<Channel> = u.iter().map(|&x| chan(&net, vec![x, hub])).collect();
        let fusion_rate = Rate::from_prob(0.81);
        let rate = paths.iter().map(|p| p.rate).product::<Rate>() * fusion_rate;
        let sol = Solution {
            channels: paths,
            rate,
            style: SolutionStyle::FusionStar {
                center: hub,
                fusion_rate,
            },
        };
        let err = audit_solution(&net, &sol).unwrap_err();
        assert_eq!(err.invariant(), "switch-capacity");
    }

    #[test]
    fn fusion_star_clean_case_passes() {
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let u: Vec<NodeId> = (0..3).map(|_| g.add_node(NodeKind::User)).collect();
        let hub = g.add_node(NodeKind::Switch { qubits: 3 });
        for &x in &u {
            g.add_edge(x, hub, 600.0);
        }
        let net = QuantumNetwork::from_graph(g, PhysicsParams::paper_default());
        let paths: Vec<Channel> = u.iter().map(|&x| chan(&net, vec![x, hub])).collect();
        let fusion_rate = Rate::from_prob(0.81);
        let rate = paths.iter().map(|p| p.rate).product::<Rate>() * fusion_rate;
        let sol = Solution {
            channels: paths,
            rate,
            style: SolutionStyle::FusionStar {
                center: hub,
                fusion_rate,
            },
        };
        let report = audit_solution(&net, &sol).expect("clean fusion star");
        assert_eq!(report.channels, 3);
        assert_eq!(report.switch_qubits_used, 3);
    }

    #[test]
    fn agrees_with_validate_solution_on_algorithm_output() {
        use crate::algorithms::{ConflictFree, PrimBased};
        use crate::model::NetworkSpec;
        use crate::solver::{validate_solution, RoutingAlgorithm};
        for seed in 0..6u64 {
            let net = NetworkSpec::paper_default().build(seed);
            for sol in [
                ConflictFree::default().solve(&net).ok(),
                PrimBased::with_seed(seed).solve(&net).ok(),
            ]
            .into_iter()
            .flatten()
            {
                validate_solution(&net, &sol).expect("validator");
                audit_solution(&net, &sol).expect("audit");
            }
        }
    }
}
