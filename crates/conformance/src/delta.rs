//! Delta oracle: the channel-finder cache against cold
//! recomputation, per delta, per source.
//!
//! The delta engine (qnet-graph `dijkstra_repair_into` plus the
//! [`muerp_core::algorithms::ChannelFinderCache`] relay-bit rule)
//! promises that a cached per-source run consulted after **any**
//! sequence of capacity deltas — served by O(1) revalidation or by an
//! in-place SSSP repair of blocked and restored relays — is bitwise
//! identical to a cold, cache-free [`ChannelFinder`] under the same
//! capacity map, and that a scoped lookup, which may answer from a
//! stale run, gives each target it names the cold channel.
//! [`delta_check`] fuzzes exactly that promise: a seeded sequence of
//! withdraw/grant deltas ([`derive_delta_ops`]) is pushed through two
//! long-lived caches, one read whole and one read only through scoped
//! lookups, while every step is cross-checked against from-scratch
//! searches ([`delta_check_ops`]).
//!
//! On failure the *sequence itself* is shrunk ([`shrink_ops`]): ops are
//! greedily removed while the divergence persists, so the reported
//! counterexample is a minimal delta script. The fuzz driver
//! (`repro fuzz --delta`) additionally shrinks the topology spec, so
//! what lands in the report is small on both axes.

use muerp_core::algorithms::{ChannelFinder, ChannelFinderCache, ChannelSource};
use muerp_core::channel::CapacityMap;
use muerp_core::model::QuantumNetwork;
use qnet_graph::{DijkstraWorkspace, NodeId};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};

use crate::differential::ConformanceError;

/// One capacity delta in a fuzzed sequence: withdraw (`grant == false`)
/// or restore (`grant == true`) `qubits` free qubits at `node`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaOp {
    /// The switch whose free-qubit count changes.
    pub node: NodeId,
    /// How many qubits the delta moves (withdraw saturates at zero
    /// free, grant saturates at `u32::MAX`, matching [`CapacityMap`]).
    pub qubits: u32,
    /// `true` restores qubits, `false` withdraws them.
    pub grant: bool,
}

impl DeltaOp {
    /// Applies this delta to a capacity map.
    pub fn apply(&self, capacity: &mut CapacityMap) {
        if self.grant {
            capacity.grant(self.node, self.qubits);
        } else {
            capacity.withdraw(self.node, self.qubits);
        }
    }
}

/// Draws a deterministic delta sequence for one trial: 4–12 ops over
/// the instance's switches, mixing small shaves (often
/// threshold-preserving → O(1) revalidation), relay kills (worsening →
/// in-place repair), and partial restores of earlier withdrawals
/// (improving → in-place decrease pass), so every classification arm
/// of the cache is exercised.
pub fn derive_delta_ops(net: &QuantumNetwork, seed: u64) -> Vec<DeltaOp> {
    let switches: Vec<NodeId> = net.switches().collect();
    if switches.is_empty() {
        return Vec::new();
    }
    // Decorrelate the delta script from the topology seed.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd3c0_1d5e_0f8a_2b11);
    let len = rng.random_range(4..=12usize);
    let mut withdrawn = vec![0u32; net.graph().node_count()];
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let &node = switches.choose(&mut rng).expect("non-empty");
        let owed = withdrawn[node.index()];
        let grant = owed > 0 && rng.random_bool(0.4);
        let qubits = if grant {
            rng.random_range(1..=owed)
        } else {
            rng.random_range(1..=4u32)
        };
        if grant {
            withdrawn[node.index()] -= qubits;
        } else {
            withdrawn[node.index()] += qubits;
        }
        ops.push(DeltaOp {
            node,
            qubits,
            grant,
        });
    }
    ops
}

/// Replays `ops` against two long-lived caches, cross-checking both
/// against a cold [`ChannelFinder`] after every single delta: the warm
/// cache's whole run per source, and the channels a second cache,
/// queried only through scoped lookups, gives a seeded subset of the
/// other users per source. The second cache is never read whole, so its
/// entries stay stale across many ops and each scoped answer nets every
/// flip since its run was last exact.
///
/// # Errors
///
/// Returns [`ConformanceError::DeltaDiverged`] naming the first op and
/// source whose cached run, or scoped answer, is not bitwise identical
/// to the cold recomputation.
pub fn delta_check_ops(net: &QuantumNetwork, ops: &[DeltaOp]) -> Result<(), ConformanceError> {
    let users = net.users().to_vec();
    let mut capacity = CapacityMap::new(net);
    let mut cache = ChannelFinderCache::new(net);
    let mut scoped = ChannelFinderCache::new(net);
    let mut picks = StdRng::seed_from_u64(0x5c0b_ed1a_7a26_e7a5);
    let mut ws = DijkstraWorkspace::new();
    cache.warm(&capacity, &users);
    for (step, op) in ops.iter().enumerate() {
        op.apply(&mut capacity);
        for (source, &u) in users.iter().enumerate() {
            let diverged = |scoped| ConformanceError::DeltaDiverged {
                step,
                source,
                ops: ops.len(),
                scoped,
            };
            let cold = ChannelFinder::from_source_in(&mut ws, net, &capacity, u);
            if cache.finder(&capacity, u).run() != cold.run() {
                return Err(diverged(false));
            }
            let pick: u64 = picks.random_range(0..u64::MAX);
            let targets = users
                .iter()
                .enumerate()
                .filter(move |&(i, &t)| t != u && pick >> (i % 64) & 1 == 1)
                .map(|(_, &t)| t);
            let answer = scoped.finder_for(&capacity, u, targets.clone());
            if targets
                .clone()
                .any(|t| answer.channel_to(t) != cold.channel_to(t))
            {
                return Err(diverged(true));
            }
        }
    }
    Ok(())
}

/// Greedily shrinks a failing delta sequence: drops any single op whose
/// removal keeps [`delta_check_ops`] failing, repeating until every
/// remaining op is load-bearing. Returns the minimal sequence, its
/// error, and the number of ops removed.
pub fn shrink_ops(
    net: &QuantumNetwork,
    ops: Vec<DeltaOp>,
    error: ConformanceError,
) -> (Vec<DeltaOp>, ConformanceError, usize) {
    crate::shrink::greedy_shrink(ops, error, |candidate| delta_check_ops(net, candidate))
}

/// Runs the delta oracle on one instance: derive the seeded sequence,
/// replay it through the cache with per-step cold cross-checks, and on
/// failure report the error of the **shrunk** minimal sequence.
///
/// # Errors
///
/// Returns the [`ConformanceError::DeltaDiverged`] of the minimal
/// failing subsequence.
pub fn delta_check(net: &QuantumNetwork, seed: u64) -> Result<(), ConformanceError> {
    let ops = derive_delta_ops(net, seed);
    if let Err(error) = delta_check_ops(net, &ops) {
        let (_minimal, error, _removed) = shrink_ops(net, ops, error);
        return Err(error);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use muerp_core::model::NetworkSpec;

    #[test]
    fn derived_ops_are_deterministic_and_in_family() {
        let net = NetworkSpec::paper_default().build(17);
        let a = derive_delta_ops(&net, 17);
        let b = derive_delta_ops(&net, 17);
        assert_eq!(a, b);
        assert!((4..=12).contains(&a.len()));
        let mut owed = vec![0u32; net.graph().node_count()];
        for op in &a {
            assert!(net.kind(op.node).is_switch(), "deltas only touch switches");
            assert!(op.qubits >= 1);
            if op.grant {
                // Restores never exceed what the script withdrew, so the
                // sequence stays within the instance's hardware budget.
                assert!(op.qubits <= owed[op.node.index()]);
                owed[op.node.index()] -= op.qubits;
            } else {
                owed[op.node.index()] += op.qubits;
            }
        }
    }

    #[test]
    fn delta_check_is_clean_on_the_paper_family() {
        for seed in 0..6 {
            let net = NetworkSpec::paper_default().build(seed);
            delta_check(&net, seed).expect("delta oracle must pass");
        }
    }

    #[test]
    fn empty_sequence_is_vacuously_clean() {
        let net = NetworkSpec::paper_default().build(9);
        delta_check_ops(&net, &[]).expect("no deltas, no divergence");
    }
}
