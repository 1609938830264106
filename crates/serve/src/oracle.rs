//! The sequential FCFS oracle the differential battery compares
//! against.
//!
//! Same round timeline, bounded queue, shed rule, departure points,
//! session ledger and Prim growth step ([`route_group`]) as the batched
//! engine — but every admission routes **cold**: a fresh
//! [`ChannelFinder`] for every source of every growth step, no cache,
//! no warm batch, no delta repair.
//! Decision equivalence between [`sequential_fcfs`] and the engine
//! under [`PolicyKind::Fcfs`](crate::policy::PolicyKind::Fcfs) is
//! therefore a real claim about the delta/warm machinery: the cached
//! batched path must produce bitwise the same admit/block sequence and
//! the same entanglement trees as naive per-request recomputation.

use qnet_graph::{DijkstraWorkspace, NodeId};

use muerp_core::algorithms::{ChannelFinder, ChannelSource, ScopedFinder};
use muerp_core::channel::CapacityMap;
use muerp_core::extensions::{route_group, Request, Sessions};
use muerp_core::model::QuantumNetwork;

use crate::engine::{Decision, ServeConfig, Verdict};
use crate::queue::BoundedQueue;

/// The untainted channel source: a fresh Algorithm-1 search on every
/// call, so the oracle uses no cache, no warm batch and no delta repair.
struct ColdFinder<'n> {
    net: &'n QuantumNetwork,
    ws: DijkstraWorkspace,
    run: Option<ChannelFinder<'n>>,
}

impl<'n> ChannelSource<'n> for ColdFinder<'n> {
    /// Ignores `targets`: the whole run is searched afresh, so the oracle
    /// compares every scoped cache answer against a cold search.
    fn finder_for<T>(
        &mut self,
        capacity: &CapacityMap,
        source: NodeId,
        targets: T,
    ) -> ScopedFinder<'_, 'n, T>
    where
        T: Iterator<Item = NodeId> + Clone,
    {
        let run = ChannelFinder::from_source_in(&mut self.ws, self.net, capacity, source);
        self.run.insert(run).scoped(targets)
    }
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
    let mut cold = ColdFinder {
        net,
        ws: DijkstraWorkspace::new(),
        run: None,
    };
    let mut queue = BoundedQueue::new(cfg.queue_capacity);
    let mut sessions = Sessions::default();
    let mut decisions: Vec<Decision> = Vec::new();
    let mut arrivals = requests.iter().peekable();

    for round in 0..cfg.rounds() {
        let end = ((round + 1) * cfg.round_slots).min(cfg.stream.slots);
        sessions.depart(end, &mut capacity);
        while let Some(r) = arrivals.next_if(|r| r.slot < end) {
            queue.offer(r.clone());
        }
        let (kept, shed) = queue.drain();
        decisions.extend(shed.iter().map(|r| Decision::new(r, round, Verdict::Shed)));
        for r in &kept {
            let verdict = if sessions.is_busy(&r.members) {
                Verdict::BlockedBusy
            } else {
                match route_group(net, &mut cold, &mut capacity, &r.members) {
                    Some(tree) => {
                        sessions.admit(tree.clone(), r.members.clone(), end + r.hold);
                        Verdict::Admitted { tree }
                    }
                    None => Verdict::BlockedCapacity,
                }
            };
            decisions.push(Decision::new(r, round, verdict));
        }
    }
    decisions
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
