//! Fault injection: failure kinds, seeded failure plans, and the
//! accumulated degraded-network state.

use qnet_graph::{EdgeId, NodeId, SearchMask};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::channel::{CapacityMap, Channel};
use crate::model::{NodeKind, QuantumNetwork};
use crate::solver::{Solution, SolutionStyle};

/// One kind of network fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// An optical fiber is cut; the edge disappears.
    LinkCut {
        /// The failed edge.
        edge: EdgeId,
    },
    /// A switch dies entirely: it can no longer relay, and every
    /// incident fiber is unusable. Users never die (they are the
    /// demand, not the infrastructure).
    SwitchDeath {
        /// The failed switch.
        node: NodeId,
    },
    /// A switch loses part of its quantum memory but stays up.
    CapacityLoss {
        /// The degraded switch.
        node: NodeId,
        /// Qubits permanently lost (saturating at zero free).
        qubits: u32,
    },
}

impl FailureKind {
    /// Kebab-case tag for trace events and reports.
    pub fn name(&self) -> &'static str {
        match self {
            FailureKind::LinkCut { .. } => "link-cut",
            FailureKind::SwitchDeath { .. } => "switch-death",
            FailureKind::CapacityLoss { .. } => "capacity-loss",
        }
    }
}

/// A fault scheduled at a protocol slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Failure {
    /// What fails.
    pub kind: FailureKind,
    /// The protocol slot at which it fails (see `qnet-sim`).
    pub at_slot: u64,
}

/// A deterministic, seeded schedule of faults, sorted by slot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FailurePlan {
    /// Scheduled faults in non-decreasing `at_slot` order; equal slots
    /// keep their draw order.
    pub failures: Vec<Failure>,
}

/// Decorrelates the failure draw from the topology seed.
const FAILURE_SEED_SALT: u64 = 0x5afe_c0de_fa11_ed05;

impl FailurePlan {
    /// Draws `count` faults for `net`, scheduled uniformly over
    /// `0..horizon` slots, from a seeded RNG. The same
    /// `(net, count, horizon, seed)` always yields the same plan.
    ///
    /// The family: link cuts with probability 1/2, switch deaths 1/4,
    /// capacity losses of 1–2 qubits 1/4. Kinds whose subject pool is
    /// empty (no edges, no switches) fall back to the other kinds; a
    /// network with neither edges nor switches gets an empty plan.
    /// Repeated faults on an already-dead element are allowed — they
    /// are no-ops when applied, which models independent fault sources.
    pub fn random(net: &QuantumNetwork, count: usize, horizon: u64, seed: u64) -> FailurePlan {
        let mut rng = StdRng::seed_from_u64(seed ^ FAILURE_SEED_SALT);
        let switches: Vec<NodeId> = net
            .graph()
            .node_ids()
            .filter(|&v| net.kind(v).is_switch())
            .collect();
        let edge_count = net.graph().edge_count();
        let mut failures = Vec::with_capacity(count);
        for _ in 0..count {
            let roll = rng.random_range(0..4u32);
            let kind = if (roll < 2 || switches.is_empty()) && edge_count > 0 {
                FailureKind::LinkCut {
                    edge: EdgeId::new(rng.random_range(0..edge_count)),
                }
            } else if !switches.is_empty() {
                let node = switches[rng.random_range(0..switches.len())];
                if roll == 2 {
                    FailureKind::SwitchDeath { node }
                } else {
                    FailureKind::CapacityLoss {
                        node,
                        qubits: rng.random_range(1..=2u32),
                    }
                }
            } else {
                continue;
            };
            let at_slot = rng.random_range(0..horizon.max(1));
            failures.push(Failure { kind, at_slot });
        }
        failures.sort_by_key(|f| f.at_slot); // stable: draw order breaks ties
        FailurePlan { failures }
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.failures.len()
    }

    /// `true` when no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The accumulated effect of applied failures on a network: a
/// [`SearchMask`] of dead edges/vertices plus per-switch lost qubits.
///
/// The original [`QuantumNetwork`] is never mutated — node and edge ids
/// stay valid across failures, so pre- and post-failure solutions are
/// directly comparable and auditable in one id space.
#[derive(Clone, Debug)]
pub struct NetworkState<'n> {
    net: &'n QuantumNetwork,
    mask: SearchMask,
    /// Per-node qubits permanently lost to capacity degradation.
    lost: Vec<u32>,
}

impl<'n> NetworkState<'n> {
    /// A pristine state: nothing failed yet.
    pub fn new(net: &'n QuantumNetwork) -> Self {
        NetworkState {
            net,
            mask: SearchMask::new(),
            lost: vec![0; net.graph().node_count()],
        }
    }

    /// The network this state degrades.
    pub fn network(&self) -> &'n QuantumNetwork {
        self.net
    }

    /// Applies one fault. Faults accumulate; re-failing a dead element
    /// is a no-op.
    pub fn apply(&mut self, kind: &FailureKind) {
        match *kind {
            FailureKind::LinkCut { edge } => {
                self.mask.kill_edge(edge);
            }
            FailureKind::SwitchDeath { node } => {
                debug_assert!(self.net.kind(node).is_switch(), "users never die");
                self.mask.kill_node(node);
            }
            FailureKind::CapacityLoss { node, qubits } => {
                debug_assert!(self.net.kind(node).is_switch(), "users never degrade");
                self.lost[node.index()] = self.lost[node.index()].saturating_add(qubits);
            }
        }
    }

    /// The dead-element mask, for a
    /// [`ChannelFinderCache::degraded`](crate::algorithms::ChannelFinderCache::degraded).
    pub fn mask(&self) -> &SearchMask {
        &self.mask
    }

    /// Qubits still installed at `v`: the original capacity minus
    /// degradation losses (dead switches keep their nominal capacity
    /// here — the mask already makes them unusable).
    pub fn effective_qubits(&self, v: NodeId) -> u32 {
        self.net
            .kind(v)
            .qubits()
            .saturating_sub(self.lost[v.index()])
    }

    /// A fresh capacity map for the degraded network: full capacity
    /// minus every withdrawal so far. Dead switches are handled by the
    /// mask, not the map.
    pub fn degraded_capacity(&self) -> CapacityMap {
        let mut cap = CapacityMap::new(self.net);
        for (i, &lost) in self.lost.iter().enumerate() {
            cap.withdraw(NodeId::new(i), lost);
        }
        cap
    }

    /// `true` when `channel` uses a dead edge or touches a dead vertex.
    pub fn channel_broken(&self, channel: &Channel) -> bool {
        self.mask.breaks_path(&channel.path)
    }

    /// `true` when `solution` survives this state as-is: a BSM tree
    /// whose channels are all unbroken and whose total qubit demand
    /// fits the degraded capacity at every switch.
    ///
    /// Fusion-star solutions are conservatively rejected — the
    /// survivability layer models BSM trees.
    pub fn admits_solution(&self, solution: &Solution) -> bool {
        if solution.style != SolutionStyle::BsmTree {
            return false;
        }
        if solution.channels.iter().any(|c| self.channel_broken(c)) {
            return false;
        }
        solution
            .as_tree()
            .qubit_demand()
            .iter()
            .all(|(&v, &demand)| demand <= self.effective_qubits(v))
    }

    /// Materializes the degraded network as a standalone
    /// [`QuantumNetwork`]: dead edges (and edges incident to dead
    /// vertices) removed, switch capacities reduced, dead switches left
    /// in place with zero qubits so **node ids are preserved**.
    ///
    /// Edge ids are re-densified by the removal, so solutions are not
    /// transferable between the original and the materialized network —
    /// use this for rate-level comparisons only (e.g. handing the
    /// degraded instance to an exhaustive oracle).
    pub fn materialize(&self) -> QuantumNetwork {
        let g = self.net.graph();
        let mut out = qnet_graph::Graph::new();
        for v in g.node_ids() {
            let kind = match self.net.kind(v) {
                NodeKind::User => NodeKind::User,
                NodeKind::Switch { .. } => {
                    let qubits = if self.mask.node_dead(v) {
                        0
                    } else {
                        self.effective_qubits(v)
                    };
                    NodeKind::Switch { qubits }
                }
            };
            out.add_node(kind);
        }
        for e in g.edge_refs() {
            if !self.mask.blocks(e.id, e.a, e.b) {
                out.add_edge(e.a, e.b, *e.payload);
            }
        }
        QuantumNetwork::from_parts(out, self.net.users().to_vec(), *self.net.physics())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NetworkSpec;

    #[test]
    fn failure_plans_are_deterministic_and_sorted() {
        let net = NetworkSpec::paper_default().build(3);
        let a = FailurePlan::random(&net, 16, 100, 42);
        let b = FailurePlan::random(&net, 16, 100, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        assert!(a.failures.windows(2).all(|w| w[0].at_slot <= w[1].at_slot));
        let c = FailurePlan::random(&net, 16, 100, 43);
        assert_ne!(a, c, "different seeds should differ");
        // Every subject is in range, and deaths/losses hit switches only.
        for f in &a.failures {
            assert!(f.at_slot < 100);
            match f.kind {
                FailureKind::LinkCut { edge } => {
                    assert!(edge.index() < net.graph().edge_count());
                }
                FailureKind::SwitchDeath { node } => {
                    assert!(net.kind(node).is_switch());
                }
                FailureKind::CapacityLoss { node, qubits } => {
                    assert!(net.kind(node).is_switch());
                    assert!((1..=2).contains(&qubits));
                }
            }
        }
    }

    #[test]
    fn state_accumulates_and_materializes() {
        let net = NetworkSpec::paper_default().build(3);
        let mut state = NetworkState::new(&net);
        assert!(state.mask().is_empty());
        assert!(net
            .graph()
            .node_ids()
            .all(|v| state.effective_qubits(v) == net.kind(v).qubits()));
        let switch = net
            .graph()
            .node_ids()
            .find(|&v| net.kind(v).is_switch())
            .unwrap();
        let original = net.kind(switch).qubits();
        state.apply(&FailureKind::CapacityLoss {
            node: switch,
            qubits: 1,
        });
        assert_eq!(state.effective_qubits(switch), original - 1);
        state.apply(&FailureKind::LinkCut {
            edge: EdgeId::new(0),
        });
        assert!(!state.mask().is_empty());
        assert!(state.mask().edge_dead(EdgeId::new(0)));

        let degraded = state.materialize();
        assert_eq!(degraded.graph().node_count(), net.graph().node_count());
        assert_eq!(degraded.users(), net.users());
        assert_eq!(
            degraded.graph().edge_count(),
            net.graph().edge_count() - 1,
            "exactly the cut edge disappears"
        );
        assert_eq!(degraded.kind(switch).qubits(), original - 1);
    }

    #[test]
    fn dead_switch_materializes_with_zero_qubits_and_no_edges() {
        let net = NetworkSpec::paper_default().build(3);
        let mut state = NetworkState::new(&net);
        let switch = net
            .graph()
            .node_ids()
            .find(|&v| net.kind(v).is_switch() && net.graph().degree(v) > 0)
            .unwrap();
        let incident = net.graph().degree(switch);
        state.apply(&FailureKind::SwitchDeath { node: switch });
        let degraded = state.materialize();
        assert_eq!(degraded.kind(switch).qubits(), 0);
        assert_eq!(degraded.graph().degree(switch), 0);
        assert_eq!(
            degraded.graph().edge_count(),
            net.graph().edge_count() - incident
        );
    }

    #[test]
    fn degraded_capacity_reflects_withdrawals() {
        let net = NetworkSpec::paper_default().build(3);
        let mut state = NetworkState::new(&net);
        let switch = net
            .graph()
            .node_ids()
            .find(|&v| net.kind(v).is_switch())
            .unwrap();
        let base = CapacityMap::new(&net);
        state.apply(&FailureKind::CapacityLoss {
            node: switch,
            qubits: 2,
        });
        let cap = state.degraded_capacity();
        assert_eq!(cap.free(switch), base.free(switch).saturating_sub(2));
        assert_ne!(cap.epoch(), base.epoch(), "withdrawal bumps the epoch");
    }
}
