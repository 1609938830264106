//! Purification-aware routing: meet a fidelity floor by *distilling*
//! instead of just forbidding long channels.
//!
//! [`super::fidelity::FidelityAwarePrim`] enforces a fidelity floor with
//! a hop bound — long channels are simply banned, and tight floors turn
//! instances infeasible. Entanglement purification (BBPSSW; the
//! mechanism behind the purification-based routing the paper cites as
//! ref. \[18\]) offers the alternative: deliver `2^k` low-fidelity pairs
//! over the same channel and distill them into one pair above the floor.
//!
//! Under the paper's synchronized-slot model, delivering `2^k` pairs in
//! one slot multiplies the channel's rate exponent by `2^k`, and each
//! distillation round succeeds only probabilistically — the *effective
//! rate* of a purified channel is
//!
//! ```text
//! r_eff = r^(2^k) · Π_{i<k} p_succ(F_i)^(2^(k-1-i))
//! ```
//!
//! where `F_i`, `p_succ` follow the BBPSSW recurrence. This module
//! computes that trade-off and routes with it: every candidate channel
//! is scored by its effective rate after the *cheapest sufficient*
//! number of purification rounds.

use crate::channel::{CapacityMap, Channel};
use crate::error::RoutingError;
use crate::model::QuantumNetwork;
use crate::rate::Rate;
use crate::solver::{RoutingAlgorithm, Solution};
use crate::tree::EntanglementTree;

use super::fidelity::{werner_swap_fidelity, FidelityModel};
use crate::algorithms::{attach, ChannelFinderCache};

/// BBPSSW one-round statistics for two equal-fidelity Werner pairs
/// (mirrors `qnet_sim::fidelity::purify`; duplicated arithmetic keeps
/// the crates decoupled and is cross-checked in the integration tests).
fn purify_step(f: f64) -> (f64, f64) {
    let bad = (1.0 - f) / 3.0;
    let success = (f + bad) * (f + bad) + (2.0 * bad) * (2.0 * bad);
    ((f * f + bad * bad) / success, success)
}

/// The purification plan for one channel: rounds and the effective rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PurificationPlan {
    /// BBPSSW rounds (consuming `2^rounds` raw pairs).
    pub rounds: u32,
    /// Delivered fidelity after the rounds.
    pub delivered_fidelity: f64,
    /// Effective per-slot rate of one purified pair.
    pub effective_rate: Rate,
}

/// Computes the cheapest purification plan lifting a channel of
/// `links` links (raw rate `raw_rate`, uniform link fidelity from
/// `model`) to `model.min_fidelity`, or `None` when 16 rounds do not
/// suffice (or the raw fidelity is below the 1/2 distillation
/// threshold).
pub fn purification_plan(
    model: FidelityModel,
    links: usize,
    raw_rate: Rate,
) -> Option<PurificationPlan> {
    let mut f = model.link_fidelity;
    for _ in 1..links {
        f = werner_swap_fidelity(f, model.link_fidelity);
    }
    if f >= model.min_fidelity {
        return Some(PurificationPlan {
            rounds: 0,
            delivered_fidelity: f,
            effective_rate: raw_rate,
        });
    }
    if f <= 0.5 {
        return None;
    }
    let mut rounds = 0u32;
    let mut success_factor = Rate::ONE;
    while f < model.min_fidelity && rounds < 16 {
        let (f_next, p_succ) = purify_step(f);
        // Round i runs 2^(k-1-i) distillations in the final plan; we
        // account for it incrementally: the pair count doubles per round,
        // so previous success factors square.
        success_factor = success_factor * success_factor * Rate::from_prob(p_succ);
        f = f_next;
        rounds += 1;
    }
    if f < model.min_fidelity {
        return None;
    }
    // Raw pairs needed: 2^rounds, all in one synchronized slot.
    let effective_rate = raw_rate.powi(1u32 << rounds) * success_factor;
    Some(PurificationPlan {
        rounds,
        delivered_fidelity: f,
        effective_rate,
    })
}

/// Prim-style routing that scores channels by purified effective rate.
///
/// Capacity accounting stays per-channel (2 qubits per interior switch):
/// the `2^k` raw pairs are delivered sequentially through the same
/// reserved qubits in the synchronized-model idealization. The solution's
/// reported rate is the product of effective rates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PurifiedPrim {
    /// Fidelity model (link fidelity + floor).
    pub model: FidelityModel,
}

impl RoutingAlgorithm for PurifiedPrim {
    fn name(&self) -> &'static str {
        "Alg-4-Purify"
    }

    fn solve(&self, net: &QuantumNetwork) -> Result<Solution, RoutingError> {
        let users = net.users();
        if users.len() < 2 {
            return Err(RoutingError::TooFewUsers { got: users.len() });
        }
        let mut capacity = CapacityMap::new(net);
        let mut in_tree = vec![false; net.graph().node_count()];
        in_tree[users[0].index()] = true;
        let mut tree = EntanglementTree::new();
        let mut effective = Rate::ONE;
        let mut cache = ChannelFinderCache::new(net);

        for _ in 1..users.len() {
            let mut best: Option<(Channel, PurificationPlan)> = None;
            for &src in users.iter().filter(|u| in_tree[u.index()]) {
                let finder = cache.finder(&capacity, src);
                for &dst in users.iter().filter(|u| !in_tree[u.index()]) {
                    let Some(c) = finder.channel_to(dst) else {
                        continue;
                    };
                    let Some(plan) = purification_plan(self.model, c.link_count(), c.rate) else {
                        continue;
                    };
                    if best
                        .as_ref()
                        .is_none_or(|(_, b)| plan.effective_rate > b.effective_rate)
                    {
                        best = Some((c, plan));
                    }
                }
            }
            let Some((c, plan)) = best else {
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
            effective *= plan.effective_rate;
            attach(c, &mut capacity, &mut in_tree, &mut tree);
        }

        // Report the *effective* (purified) rate; the channel set itself
        // remains a structurally valid entanglement tree.
        Ok(Solution {
            channels: tree.channels,
            rate: effective,
            style: crate::solver::SolutionStyle::BsmTree,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::PrimBased;
    use crate::extensions::FidelityAwarePrim;
    use crate::model::NetworkSpec;

    fn model(floor: f64) -> FidelityModel {
        FidelityModel {
            link_fidelity: 0.97,
            min_fidelity: floor,
        }
    }

    #[test]
    fn no_rounds_needed_when_floor_is_loose() {
        let plan = purification_plan(model(0.9), 1, Rate::from_prob(0.5)).unwrap();
        assert_eq!(plan.rounds, 0);
        assert_eq!(plan.effective_rate, Rate::from_prob(0.5));
        assert!((plan.delivered_fidelity - 0.97).abs() < 1e-12);
    }

    #[test]
    fn rounds_lift_fidelity_at_exponential_rate_cost() {
        // 5 links at F_link = 0.97 fall below 0.93; purification fixes it.
        let raw = Rate::from_prob(0.4);
        let plan = purification_plan(model(0.93), 5, raw).expect("distillable");
        assert!(plan.rounds >= 1);
        assert!(plan.delivered_fidelity >= 0.93);
        // Effective rate collapses at least quadratically.
        assert!(plan.effective_rate.value() <= raw.value() * raw.value());
    }

    #[test]
    fn sub_threshold_fidelity_is_undistillable() {
        let hopeless = FidelityModel {
            link_fidelity: 0.55,
            min_fidelity: 0.95,
        };
        // Long chain pushes raw fidelity under 1/2.
        assert!(purification_plan(hopeless, 8, Rate::from_prob(0.3)).is_none());
    }

    #[test]
    fn purified_routing_succeeds_where_hop_bounds_fail() {
        // A floor so tight the hop bound is 1 link: FidelityAwarePrim
        // fails whenever some user pair has no direct fiber; PurifiedPrim
        // distills instead.
        let m = FidelityModel {
            link_fidelity: 0.97,
            min_fidelity: 0.969,
        };
        let mut solved_by_purify = 0;
        let mut solved_by_hops = 0;
        for seed in 0..6u64 {
            let net = NetworkSpec::paper_default().build(seed);
            if (FidelityAwarePrim { model: m }).solve(&net).is_ok() {
                solved_by_hops += 1;
            }
            if (PurifiedPrim { model: m }).solve(&net).is_ok() {
                solved_by_purify += 1;
            }
        }
        assert!(
            solved_by_purify > solved_by_hops,
            "purification must unlock instances: {solved_by_purify} vs {solved_by_hops}"
        );
    }

    #[test]
    fn effective_rate_never_exceeds_raw_routing() {
        for seed in 0..5u64 {
            let net = NetworkSpec::paper_default().build(seed);
            let raw = PrimBased::default().solve(&net);
            let purified = PurifiedPrim { model: model(0.95) }.solve(&net);
            if let (Ok(r), Ok(p)) = (raw, purified) {
                assert!(
                    p.rate.value() <= r.rate.value() * (1.0 + 1e-9),
                    "seed {seed}: purification cannot create rate"
                );
            }
        }
    }

    #[test]
    fn tree_structure_remains_valid() {
        // The channels themselves (ignoring the effective-rate relabel)
        // must form a capacity-respecting spanning tree.
        for seed in 0..5u64 {
            let net = NetworkSpec::paper_default().build(seed);
            if let Ok(sol) = (PurifiedPrim { model: model(0.93) }).solve(&net) {
                let tree = EntanglementTree {
                    channels: sol.channels,
                };
                tree.validate(&net).unwrap_or_else(|e| {
                    // Rate mismatch is expected (we report effective
                    // rate); any *structural* error is not.
                    panic!("seed {seed}: {e}");
                });
            }
        }
    }
}
