//! The admission building blocks every session loop shares: the Prim
//! group-routing loop and the active-session ledger.
//!
//! [`simulate_stream`](crate::extensions::simulate_stream), the batched
//! serve engine and its sequential oracle all run the same timeline —
//! depart, arrive, busy-check, route — over one [`CapacityMap`]. They
//! differ only in when they decide and in where their Algorithm-1 runs
//! come from (a [`ChannelSource`]), so the routing loop and the ledger
//! live here once.

use std::collections::HashSet;

use qnet_graph::NodeId;

use crate::algorithms::{attach, best_cross_channel, ChannelSource};
use crate::channel::CapacityMap;
use crate::model::QuantumNetwork;
use crate::tree::EntanglementTree;

/// Prim-style group routing (Algorithm 4's growth step, repeated) over
/// shared residual capacity; reserves the qubits on success, touches
/// nothing on failure.
///
/// The tree grows on a trial clone of `capacity`, which replaces the
/// caller's map only once every member is attached. Runs come from
/// `source`: the [`ChannelFinderCache`](crate::algorithms::ChannelFinderCache)
/// for the stream and serve consumers, a cold finder for the serve
/// oracle. Both serve bitwise-equal runs, so the tree depends only on
/// `(net, capacity, members)`.
pub fn route_group<'n>(
    net: &'n QuantumNetwork,
    source: &mut impl ChannelSource<'n>,
    capacity: &mut CapacityMap,
    members: &[NodeId],
) -> Option<EntanglementTree> {
    let mut in_tree = vec![false; net.graph().node_count()];
    in_tree[members[0].index()] = true;
    let mut tree = EntanglementTree::new();
    let mut trial_capacity = capacity.clone();
    for _ in 1..members.len() {
        let c = best_cross_channel(source, &trial_capacity, members, &in_tree)?;
        attach(c, &mut trial_capacity, &mut in_tree, &mut tree);
    }
    *capacity = trial_capacity;
    Some(tree)
}

/// One admitted group holding its tree's switch qubits until
/// `expires_at`.
struct Session {
    tree: EntanglementTree,
    members: Vec<NodeId>,
    expires_at: u64,
}

/// The active-session ledger: which groups hold capacity, until when,
/// and which users they keep busy.
///
/// The busy set is kept incrementally. That is exact because admission
/// blocks on busy members, so no two active sessions share a member.
#[derive(Default)]
pub struct Sessions {
    active: Vec<Session>,
    busy: HashSet<NodeId>,
}

impl Sessions {
    /// Releases every session with `expires_at ≤ due` back into
    /// `capacity`, in admission order. Returns how many departed.
    pub fn depart(&mut self, due: u64, capacity: &mut CapacityMap) -> u64 {
        let before = self.active.len();
        let busy = &mut self.busy;
        self.active.retain(|session| {
            if session.expires_at > due {
                return true;
            }
            for c in &session.tree.channels {
                capacity.release(c);
            }
            for m in &session.members {
                busy.remove(m);
            }
            false
        });
        (before - self.active.len()) as u64
    }

    /// `true` when any of `members` is in an active session.
    pub fn is_busy(&self, members: &[NodeId]) -> bool {
        members.iter().any(|m| self.busy.contains(m))
    }

    /// Records an admitted group. Its `tree`'s qubits must already be
    /// reserved (as [`route_group`] leaves them).
    pub fn admit(&mut self, tree: EntanglementTree, members: Vec<NodeId>, expires_at: u64) {
        self.busy.extend(members.iter().copied());
        self.active.push(Session {
            tree,
            members,
            expires_at,
        });
    }

    /// Number of active sessions.
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// `true` when no session is active.
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }
}

/// Total free qubits across the network's switches (the `free_qubits`
/// gauge of the stream and serve time series).
pub fn free_qubit_total(net: &QuantumNetwork, capacity: &CapacityMap) -> f64 {
    net.switches().map(|s| capacity.free(s) as u64).sum::<u64>() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::ChannelFinderCache;
    use crate::model::NetworkSpec;

    #[test]
    fn departures_release_qubits_and_free_members() {
        let net = NetworkSpec::paper_default().build(52);
        let users = net.users();
        let full = CapacityMap::new(&net);
        let mut capacity = full.clone();
        let mut cache = ChannelFinderCache::new(&net);
        let mut sessions = Sessions::default();
        for (i, group) in [&users[0..3], &users[3..5]].into_iter().enumerate() {
            let tree = route_group(&net, &mut cache, &mut capacity, group).expect("routable");
            sessions.admit(tree, group.to_vec(), 10 + i as u64);
        }
        assert_eq!(sessions.len(), 2);
        assert!(sessions.is_busy(&[users[4], users[9]]));
        assert!(!sessions.is_busy(&users[5..]));

        assert_eq!(sessions.depart(9, &mut capacity), 0, "nothing due yet");
        assert_eq!(sessions.depart(10, &mut capacity), 1, "expiry is inclusive");
        assert!(!sessions.is_busy(&users[0..3]));
        assert!(sessions.is_busy(&users[3..5]));
        assert_eq!(sessions.depart(u64::MAX, &mut capacity), 1);
        assert!(sessions.is_empty());
        assert_eq!(capacity, full, "every reserved qubit came back");
    }
}
