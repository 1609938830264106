//! The sequential FCFS oracle the differential battery compares
//! against.
//!
//! Same round timeline, bounded queue, shed rule, and departure points
//! as the batched engine — but every admission routes **cold**: a fresh
//! [`ChannelFinder`] per growth step, no cache, no warm batch.
//! Decision equivalence between [`sequential_fcfs`] and the engine
//! under [`PolicyKind::Fcfs`](crate::policy::PolicyKind::Fcfs) is
//! therefore a real claim about the delta/warm machinery: the cached
//! batched path must produce bitwise the same admit/block sequence and
//! the same entanglement trees as naive per-request recomputation.

use std::collections::HashSet;

use qnet_graph::{DijkstraWorkspace, NodeId};

use muerp_core::algorithms::ChannelFinder;
use muerp_core::channel::{CapacityMap, Channel};
use muerp_core::extensions::Request;
use muerp_core::model::QuantumNetwork;
use muerp_core::tree::EntanglementTree;

use crate::engine::{Decision, ServeConfig, Verdict};
use crate::queue::BoundedQueue;

struct OracleSession {
    tree: EntanglementTree,
    expires_at: u64,
    members: Vec<NodeId>,
}

/// Runs the request script through the sequential cold-routing FCFS
/// reference and returns its decisions, in the same order the batched
/// engine emits them (round sheds first, then queue order).
pub fn sequential_fcfs(
    net: &QuantumNetwork,
    cfg: &ServeConfig,
    requests: &[Request],
) -> Vec<Decision> {
    cfg.validate();
    let mut capacity = CapacityMap::new(net);
    let mut queue = BoundedQueue::new(cfg.queue_capacity);
    let mut active: Vec<OracleSession> = Vec::new();
    let mut decisions: Vec<Decision> = Vec::new();
    let mut next = 0usize;

    for round in 0..cfg.rounds() {
        let end = ((round + 1) * cfg.round_slots).min(cfg.stream.slots);

        let mut kept_sessions = Vec::with_capacity(active.len());
        for session in active.drain(..) {
            if session.expires_at <= end {
                for c in &session.tree.channels {
                    capacity.release(c);
                }
            } else {
                kept_sessions.push(session);
            }
        }
        active = kept_sessions;

        while next < requests.len() && requests[next].slot < end {
            queue.offer(requests[next].clone());
            next += 1;
        }
        let (kept, shed) = queue.drain();
        for r in &shed {
            decisions.push(Decision {
                request: r.id,
                arrived_slot: r.slot,
                round,
                class: r.class,
                size: r.members.len(),
                verdict: Verdict::Shed,
            });
        }

        let mut busy: HashSet<NodeId> = active
            .iter()
            .flat_map(|s| s.members.iter().copied())
            .collect();
        for r in &kept {
            let verdict = if r.members.iter().any(|m| busy.contains(m)) {
                Verdict::BlockedBusy
            } else {
                match route_group_cold(net, &mut capacity, &r.members) {
                    Some(tree) => {
                        busy.extend(r.members.iter().copied());
                        active.push(OracleSession {
                            tree: tree.clone(),
                            expires_at: end + r.hold,
                            members: r.members.clone(),
                        });
                        Verdict::Admitted { tree }
                    }
                    None => Verdict::BlockedCapacity,
                }
            };
            decisions.push(Decision {
                request: r.id,
                arrived_slot: r.slot,
                round,
                class: r.class,
                size: r.members.len(),
                verdict,
            });
        }
    }
    decisions
}

/// [`route_group_cached`](muerp_core::extensions::route_group_cached)'s
/// greedy Prim growth, with every per-step search recomputed from
/// scratch — the untainted reference implementation.
fn route_group_cold(
    net: &QuantumNetwork,
    capacity: &mut CapacityMap,
    members: &[NodeId],
) -> Option<EntanglementTree> {
    let mut in_tree = vec![false; net.graph().node_count()];
    in_tree[members[0].index()] = true;
    let mut tree = EntanglementTree::new();
    let mut trial_capacity = capacity.clone();
    let mut ws = DijkstraWorkspace::new();
    for _ in 1..members.len() {
        let mut best: Option<Channel> = None;
        for &src in members.iter().filter(|u| in_tree[u.index()]) {
            let finder = ChannelFinder::from_source_in(&mut ws, net, &trial_capacity, src, None);
            for &dst in members.iter().filter(|u| !in_tree[u.index()]) {
                if let Some(c) = finder.channel_to(dst) {
                    if best.as_ref().is_none_or(|b| c.rate > b.rate) {
                        best = Some(c);
                    }
                }
            }
        }
        let c = best?;
        trial_capacity.reserve(&c);
        let newcomer = if in_tree[c.source().index()] {
            c.destination()
        } else {
            c.source()
        };
        in_tree[newcomer.index()] = true;
        tree.push(c);
    }
    *capacity = trial_capacity;
    Some(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::serve_requests;
    use crate::policy::PolicyKind;
    use muerp_core::extensions::{RequestStream, StreamConfig};
    use muerp_core::model::NetworkSpec;

    #[test]
    fn oracle_matches_the_batched_engine_on_a_small_run() {
        let net = NetworkSpec::paper_default().build(21);
        let cfg = ServeConfig {
            stream: StreamConfig {
                slots: 128,
                window_slots: 16,
                ..StreamConfig::default()
            },
            round_slots: 8,
            queue_capacity: 4,
            policy: PolicyKind::Fcfs,
        };
        let requests: Vec<Request> = RequestStream::new(&net, cfg.stream, 21).collect();
        let oracle = sequential_fcfs(&net, &cfg, &requests);
        let engine = serve_requests(&net, &cfg, &requests);
        assert!(!oracle.is_empty());
        assert_eq!(engine.decisions, oracle);
    }
}
