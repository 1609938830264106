//! The incremental repair ladder: local re-route → subtree
//! re-attachment → full re-solve.
//!
//! Given a solved BSM-tree [`Solution`] and the accumulated
//! [`NetworkState`] of failures, [`repair`] tries the cheapest fix
//! first and escalates only when necessary:
//!
//! 1. **Local re-route** — every broken channel is replaced by an
//!    Algorithm-1 channel of the degraded network *for the same user
//!    pair*, keeping all surviving channels (and therefore the tree
//!    topology) intact.
//! 2. **Subtree re-attachment** — the surviving channels form a forest;
//!    Algorithm 3's phase-2 rule greedily merges its components with
//!    the best cross-component channel until the user set is spanned
//!    again.
//! 3. **Full re-solve** — everything is released and the degraded
//!    network is solved from scratch with the same greedy rounds.
//!
//! Every rung reserves capacity on the *degraded* map
//! ([`NetworkState::degraded_capacity`]) and searches through one
//! shared [`ChannelFinderCache::degraded`] over the state's dead set,
//! which repairs its runs in place as the rungs' reservations move, so
//! the ladder's cost is measured exactly in channel-finder searches
//! ([`RepairOutcome::searches`]). In debug builds every repaired
//! solution is checked against the full audit invariant set.

use qnet_graph::UnionFind;

use crate::algorithms::ChannelFinderCache;
use crate::audit::audit_solution;
use crate::channel::{CapacityMap, Channel};
use crate::model::QuantumNetwork;
use crate::solver::{Solution, SolutionStyle};
use crate::survive::NetworkState;

/// Which rung of the ladder produced the repaired solution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairMethod {
    /// The failure did not touch the solution; it is returned as-is.
    Untouched,
    /// Every broken channel was re-routed for its own user pair.
    LocalReroute,
    /// Surviving subtrees were re-attached with new cross-component
    /// channels.
    Reattach,
    /// The degraded network was re-solved from scratch.
    FullResolve,
    /// No rung produced a feasible solution.
    Unrepairable,
}

impl RepairMethod {
    /// Kebab-case tag for trace events and reports.
    pub fn name(&self) -> &'static str {
        match self {
            RepairMethod::Untouched => "untouched",
            RepairMethod::LocalReroute => "local-reroute",
            RepairMethod::Reattach => "reattach",
            RepairMethod::FullResolve => "full-resolve",
            RepairMethod::Unrepairable => "unrepairable",
        }
    }
}

/// The result of a repair attempt.
#[derive(Clone, Debug)]
pub struct RepairOutcome {
    /// The repaired solution, or `None` when the degraded network is
    /// beyond this ladder (method is then [`RepairMethod::Unrepairable`]).
    pub solution: Option<Solution>,
    /// The rung that produced (or failed to produce) the solution.
    pub method: RepairMethod,
    /// Channel-finder searches executed across *all* attempted rungs —
    /// the deterministic repair-latency metric.
    pub searches: u64,
    /// Channels of the original solution that had to be abandoned
    /// (structurally broken or evicted by capacity degradation).
    pub torn_down: usize,
}

impl RepairOutcome {
    /// The repaired rate, `0` when unrepairable.
    pub fn rate_value(&self) -> f64 {
        self.solution.as_ref().map_or(0.0, |s| s.rate.value())
    }
}

/// In debug builds, every solution the ladder returns must pass the
/// full audit against the *original* network (degraded feasibility
/// implies original feasibility since failures only remove resources)
/// and respect the degraded state.
fn debug_check(net: &QuantumNetwork, state: &NetworkState<'_>, solution: &Solution) {
    debug_assert!(
        audit_solution(net, solution).is_ok(),
        "repaired solution failed audit: {:?}",
        audit_solution(net, solution).err()
    );
    debug_assert!(
        state.admits_solution(solution),
        "repaired solution violates the degraded network"
    );
}

/// Repairs `solution` against the failures accumulated in `state`,
/// escalating through the ladder (see the module docs).
///
/// `state` must degrade the same network `solution` was solved on.
pub fn repair(
    net: &QuantumNetwork,
    solution: &Solution,
    state: &NetworkState<'_>,
) -> RepairOutcome {
    let _span = qnet_obs::span!("core.survive.repair");
    qnet_obs::counter!("core.survive.repairs");
    let mut cache = ChannelFinderCache::degraded(net, state.mask());

    // Non-tree solutions skip straight to a from-scratch tree solve.
    if solution.style != SolutionStyle::BsmTree {
        let fixed = reconnect(net, state.degraded_capacity(), &mut cache, Vec::new());
        return finish(
            net,
            state,
            fixed,
            RepairMethod::FullResolve,
            cache.search_count(),
            solution.channels.len(),
        );
    }

    // Partition the solution: structurally broken channels versus
    // survivors, then re-reserve survivors best-rate-first on the
    // degraded capacity — whatever no longer fits is torn down too.
    let mut broken: Vec<Channel> = Vec::new();
    let mut survivors: Vec<Channel> = Vec::new();
    for c in &solution.channels {
        if state.channel_broken(c) {
            broken.push(c.clone());
        } else {
            survivors.push(c.clone());
        }
    }
    survivors.sort_by(|x, y| {
        y.rate
            .value()
            .partial_cmp(&x.rate.value())
            .expect("rates are not NaN")
            .then_with(|| x.user_pair().cmp(&y.user_pair()))
    });
    let mut cap = state.degraded_capacity();
    let mut kept: Vec<Channel> = Vec::new();
    for c in survivors {
        if cap.admits(&c) {
            cap.reserve(&c);
            kept.push(c);
        } else {
            broken.push(c);
        }
    }
    let torn_down = broken.len();

    if broken.is_empty() {
        let outcome = RepairOutcome {
            solution: Some(solution.clone()),
            method: RepairMethod::Untouched,
            searches: 0,
            torn_down: 0,
        };
        debug_check(net, state, outcome.solution.as_ref().expect("present"));
        return outcome;
    }

    // Rung 1 — local re-route: replace each broken channel for the
    // same user pair, capacity and failures respected. Keeping the pair
    // set keeps the tree topology, so success here needs no global
    // reasoning at all.
    broken.sort_by_key(Channel::user_pair);
    {
        let mut rung_cap = cap.clone();
        let mut replacements: Vec<Channel> = Vec::new();
        let mut complete = true;
        for c in &broken {
            let (a, b) = c.user_pair();
            match cache.finder(&rung_cap, a).channel_to(b) {
                Some(fresh) => {
                    rung_cap.reserve(&fresh);
                    replacements.push(fresh);
                }
                None => {
                    complete = false;
                    break;
                }
            }
        }
        if complete {
            let channels = kept.iter().cloned().chain(replacements).collect();
            let fixed = Some(Solution::from_tree(channels));
            return finish(
                net,
                state,
                fixed,
                RepairMethod::LocalReroute,
                cache.search_count(),
                torn_down,
            );
        }
    }

    // Rung 2 — subtree re-attachment: keep the surviving forest and
    // greedily merge its components with the best cross-component
    // channels (Algorithm 3's phase-2 rule).
    if let Some(fixed) = reconnect(net, cap, &mut cache, kept.clone()) {
        return finish(
            net,
            state,
            Some(fixed),
            RepairMethod::Reattach,
            cache.search_count(),
            torn_down,
        );
    }

    // Rung 3 — full re-solve: release everything and rebuild the tree
    // on the degraded network from scratch.
    let fixed = reconnect(net, state.degraded_capacity(), &mut cache, Vec::new());
    let method = if fixed.is_some() {
        RepairMethod::FullResolve
    } else {
        RepairMethod::Unrepairable
    };
    finish(
        net,
        state,
        fixed,
        method,
        cache.search_count(),
        solution.channels.len(),
    )
}

/// Solves the degraded network from scratch (the ladder's last rung,
/// exposed for baseline comparisons). Returns the solution and the
/// number of channel-finder searches spent.
pub fn full_resolve(net: &QuantumNetwork, state: &NetworkState<'_>) -> (Option<Solution>, u64) {
    let _span = qnet_obs::span!("core.survive.full_resolve");
    let mut cache = ChannelFinderCache::degraded(net, state.mask());
    let fixed = reconnect(net, state.degraded_capacity(), &mut cache, Vec::new());
    if let Some(s) = &fixed {
        debug_check(net, state, s);
    }
    (fixed, cache.search_count())
}

fn finish(
    net: &QuantumNetwork,
    state: &NetworkState<'_>,
    solution: Option<Solution>,
    method: RepairMethod,
    searches: u64,
    torn_down: usize,
) -> RepairOutcome {
    if let Some(s) = &solution {
        debug_check(net, state, s);
    }
    let method = if solution.is_some() {
        method
    } else {
        RepairMethod::Unrepairable
    };
    // The counter macro needs literal label values; branch per method.
    match method {
        RepairMethod::Untouched => {
            qnet_obs::counter!("core.survive.repair_method", method = "untouched");
        }
        RepairMethod::LocalReroute => {
            qnet_obs::counter!("core.survive.repair_method", method = "local-reroute");
        }
        RepairMethod::Reattach => {
            qnet_obs::counter!("core.survive.repair_method", method = "reattach");
        }
        RepairMethod::FullResolve => {
            qnet_obs::counter!("core.survive.repair_method", method = "full-resolve");
        }
        RepairMethod::Unrepairable => {
            qnet_obs::counter!("core.survive.repair_method", method = "unrepairable");
        }
    }
    RepairOutcome {
        solution,
        method,
        searches,
        torn_down,
    }
}

/// Greedy tree (re)construction over the degraded network `cache`
/// searches: starting from `channels` (a forest over the user set —
/// possibly empty), repeatedly add the best-rate channel between two
/// users in different components until the user set is spanned.
/// Returns `None` when some component cannot be reached under the
/// failures and residual capacity.
///
/// This is Algorithm 3's phase-2 rule, not Algorithm 4's growth: each
/// step takes the single best channel joining any two components, and
/// nothing grows from a seed user. With a non-empty forest it is the
/// re-attachment rung; with an empty one, the full re-solve.
fn reconnect(
    net: &QuantumNetwork,
    mut cap: CapacityMap,
    cache: &mut ChannelFinderCache<'_>,
    mut channels: Vec<Channel>,
) -> Option<Solution> {
    let users = net.users();
    let target = users.len().saturating_sub(1);
    let mut uf = UnionFind::new(net.graph().node_count());
    for c in &channels {
        let (a, b) = c.user_pair();
        uf.union_nodes(a, b);
    }
    while channels.len() < target {
        let mut best: Option<Channel> = None;
        for &src in users {
            let finder = cache.finder(&cap, src);
            for &dst in users {
                if uf.same_set_nodes(src, dst) {
                    continue;
                }
                let Some(c) = finder.channel_to(dst) else {
                    continue;
                };
                let better = match &best {
                    None => true,
                    Some(b) => {
                        c.rate.value() > b.rate.value()
                            || (c.rate == b.rate && c.user_pair() < b.user_pair())
                    }
                };
                if better {
                    best = Some(c);
                }
            }
        }
        let c = best?;
        cap.reserve(&c);
        let (a, b) = c.user_pair();
        uf.union_nodes(a, b);
        channels.push(c);
    }
    Some(Solution::from_tree(channels.into_iter().collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{NetworkSpec, NodeKind, PhysicsParams};
    use crate::prelude::*;
    use crate::survive::{FailureKind, FailurePlan};
    use qnet_graph::Graph;

    fn physics() -> PhysicsParams {
        PhysicsParams {
            swap_success: 0.9,
            attenuation: 1e-4,
        }
    }

    /// Three users: u0—u1 direct fiber; u1—u2 via s1 (best) or via s2
    /// (backup detour).
    fn redundant_net() -> (QuantumNetwork, [qnet_graph::NodeId; 5]) {
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let u0 = g.add_node(NodeKind::User);
        let u1 = g.add_node(NodeKind::User);
        let u2 = g.add_node(NodeKind::User);
        let s1 = g.add_node(NodeKind::Switch { qubits: 4 });
        let s2 = g.add_node(NodeKind::Switch { qubits: 4 });
        g.add_edge(u0, u1, 1000.0);
        g.add_edge(u1, s1, 500.0);
        g.add_edge(s1, u2, 500.0);
        g.add_edge(u1, s2, 900.0);
        g.add_edge(s2, u2, 900.0);
        (
            QuantumNetwork::from_graph(g, physics()),
            [u0, u1, u2, s1, s2],
        )
    }

    #[test]
    fn untouched_when_failure_misses_the_tree() {
        let (net, [.., s2]) = redundant_net();
        let base = PrimBased::default().solve(&net).unwrap();
        assert!(base
            .channels
            .iter()
            .all(|c| !c.interior_switches().contains(&s2)));
        let mut state = NetworkState::new(&net);
        state.apply(&FailureKind::SwitchDeath { node: s2 });
        let out = repair(&net, &base, &state);
        assert_eq!(out.method, RepairMethod::Untouched);
        assert_eq!(out.searches, 0);
        assert_eq!(out.torn_down, 0);
        assert_eq!(out.solution.unwrap(), base);
    }

    /// The acceptance-criteria test: the local-fix rung repairs a cut
    /// without a full re-solve — the surviving channel is carried over
    /// *identically* and only the broken pair is re-routed.
    #[test]
    fn local_fix_avoids_full_resolve() {
        let (net, [_, u1, u2, s1, s2]) = redundant_net();
        let base = PrimBased::default().solve(&net).unwrap();
        let direct = base
            .channels
            .iter()
            .find(|c| c.interior_switches().is_empty())
            .expect("u0–u1 direct channel")
            .clone();
        let via_s1 = base
            .channels
            .iter()
            .find(|c| c.interior_switches() == [s1])
            .expect("u1–u2 channel via s1");
        assert_eq!(via_s1.user_pair(), (u1, u2));

        let mut state = NetworkState::new(&net);
        state.apply(&FailureKind::SwitchDeath { node: s1 });
        let out = repair(&net, &base, &state);

        assert_eq!(out.method, RepairMethod::LocalReroute, "no full re-solve");
        assert_eq!(out.torn_down, 1);
        let fixed = out.solution.unwrap();
        assert!(
            fixed.channels.contains(&direct),
            "surviving channel must be carried over untouched"
        );
        let replacement = fixed
            .channels
            .iter()
            .find(|c| c.user_pair() == (u1, u2))
            .expect("same user pair re-routed");
        assert_eq!(replacement.interior_switches(), &[s2], "masked detour");
        assert!(fixed.rate.value() < base.rate.value());
        assert!(out.searches >= 1);
    }

    /// Line tree u0—u1—u2 whose middle relay dies with no same-pair
    /// alternative, but a different tree shape exists: re-attachment.
    #[test]
    fn reattach_when_same_pair_has_no_route() {
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let u0 = g.add_node(NodeKind::User);
        let u1 = g.add_node(NodeKind::User);
        let u2 = g.add_node(NodeKind::User);
        let s1 = g.add_node(NodeKind::Switch { qubits: 2 });
        let s2 = g.add_node(NodeKind::Switch { qubits: 2 });
        let s3 = g.add_node(NodeKind::Switch { qubits: 2 });
        g.add_edge(u0, s1, 500.0);
        g.add_edge(s1, u1, 500.0);
        g.add_edge(u1, s2, 400.0);
        g.add_edge(s2, u2, 400.0);
        g.add_edge(u0, s3, 2000.0);
        g.add_edge(s3, u2, 2000.0);
        let net = QuantumNetwork::from_graph(g, physics());
        let base = PrimBased::default().solve(&net).unwrap();
        let pairs: Vec<_> = base.channels.iter().map(Channel::user_pair).collect();
        assert!(pairs.contains(&(u0, u1)) && pairs.contains(&(u1, u2)));

        let mut state = NetworkState::new(&net);
        state.apply(&FailureKind::SwitchDeath { node: s1 });
        let out = repair(&net, &base, &state);
        assert_eq!(out.method, RepairMethod::Reattach);
        let fixed = out.solution.unwrap();
        let pairs: Vec<_> = fixed.channels.iter().map(Channel::user_pair).collect();
        assert!(pairs.contains(&(u1, u2)), "surviving channel kept");
        assert!(pairs.contains(&(u0, u2)), "re-attached through s3");
    }

    /// A dead relay whose pair's only alternative relay is held by a
    /// surviving channel: rung 1 and rung 2 both fail (the survivor
    /// blocks the switch, and the severed user has no other fiber), but
    /// a from-scratch solve releases the survivor onto the long direct
    /// fiber and routes the broken pair through the freed switch.
    #[test]
    fn full_resolve_when_survivors_block_repair() {
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let u0 = g.add_node(NodeKind::User);
        let u1 = g.add_node(NodeKind::User);
        let u2 = g.add_node(NodeKind::User);
        let s = g.add_node(NodeKind::Switch { qubits: 2 });
        let s4 = g.add_node(NodeKind::Switch { qubits: 2 });
        g.add_edge(u0, s4, 300.0);
        g.add_edge(s4, u1, 300.0);
        g.add_edge(u0, s, 400.0);
        g.add_edge(u1, s, 500.0);
        g.add_edge(u2, s, 800.0);
        g.add_edge(u0, u2, 4000.0);
        let net = QuantumNetwork::from_graph(g, physics());
        let base = PrimBased::default().solve(&net).unwrap();
        // Greedy picks (u0,u1) via s4 (best rate) and (u0,u2) via s.
        let pairs: Vec<_> = base.channels.iter().map(Channel::user_pair).collect();
        assert_eq!(pairs, vec![(u0, u1), (u0, u2)]);
        assert!(base.channels.iter().any(|c| c.interior_switches() == [s]));

        let mut state = NetworkState::new(&net);
        state.apply(&FailureKind::SwitchDeath { node: s4 });
        let out = repair(&net, &base, &state);
        assert_eq!(out.method, RepairMethod::FullResolve);
        let fixed = out.solution.unwrap();
        let via_s = fixed
            .channels
            .iter()
            .find(|c| c.interior_switches() == [s])
            .expect("broken pair re-routed through the freed switch");
        assert_eq!(via_s.user_pair(), (u0, u1));
        let direct = fixed
            .channels
            .iter()
            .find(|c| c.interior_switches().is_empty())
            .expect("survivor displaced onto the long direct fiber");
        assert_eq!(direct.user_pair(), (u0, u2));
        assert!(fixed.rate.value() > 0.0);
        assert!(fixed.rate.value() < base.rate.value());
    }

    #[test]
    fn unrepairable_when_a_user_is_severed() {
        let (net, [u0, ..]) = redundant_net();
        let base = PrimBased::default().solve(&net).unwrap();
        let mut state = NetworkState::new(&net);
        // u0's only fiber is u0—u1 (edge 0).
        state.apply(&FailureKind::LinkCut {
            edge: net.graph().find_edge(u0, net.users()[1]).unwrap(),
        });
        let out = repair(&net, &base, &state);
        assert_eq!(out.method, RepairMethod::Unrepairable);
        assert!(out.solution.is_none());
        assert_eq!(out.rate_value(), 0.0);
    }

    #[test]
    fn repair_is_deterministic_under_accumulated_failures() {
        let net = NetworkSpec::paper_default().build(17);
        let base = PrimBased::default().solve(&net).unwrap();
        let plan = FailurePlan::random(&net, 5, 100, 99);
        let run = || {
            let mut state = NetworkState::new(&net);
            let mut current = base.clone();
            let mut log = Vec::new();
            for f in &plan.failures {
                state.apply(&f.kind);
                let out = repair(&net, &current, &state);
                log.push((
                    out.method,
                    out.searches,
                    out.torn_down,
                    out.rate_value().to_bits(),
                ));
                match out.solution {
                    Some(s) => current = s,
                    None => break,
                }
            }
            log
        };
        assert_eq!(run(), run(), "repair must be bitwise deterministic");
    }
}
