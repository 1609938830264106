//! Admission-order policies: FCFS, smallest-group-first, and
//! deficit-weighted fairness over [`SloClass`](muerp_core::extensions::SloClass) tiers.
//!
//! A policy decides only the *order* in which one round's queued
//! requests are tried against shared capacity — every queued request
//! receives a decision each round, but earlier positions see more free
//! qubits, so ordering is where fairness lives.
//!
//! The weighted policy is deficit round-robin over the three SLO
//! classes: each round a class with pending work earns its weight in
//! credits, the order loop repeatedly serves the class with the largest
//! deficit (one credit per emitted request), leftover credit of an
//! exhausted class carries over capped at one round's earnings, and an
//! idle class forfeits its balance. The cap is what makes the
//! no-starvation bound provable: a class's deficit never exceeds twice
//! its weight, so any class with pending work is served within
//! `Σ 2·weight(other)` emissions (the bound the proptests pin down).

use muerp_core::extensions::Request;

/// Per-class scheduling weights, indexed by
/// [`SloClass::index`](muerp_core::extensions::SloClass::index)
/// (Gold, Silver, Bronze).
pub const CLASS_WEIGHTS: [u64; 3] = [4, 2, 1];

/// Which ordering the admission engine applies to each round's queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Queue order (arrival order): the oracle-comparable baseline.
    Fcfs,
    /// Stable smallest-group-first (ties broken by arrival id): small
    /// groups are cheap to satisfy, so this maximizes admitted count
    /// under pressure.
    SmallestFirst,
    /// Deficit-weighted fairness over SLO classes (see module docs).
    WeightedFair,
}

impl PolicyKind {
    /// All policies, in CLI order.
    pub const ALL: [PolicyKind; 3] = [
        PolicyKind::Fcfs,
        PolicyKind::SmallestFirst,
        PolicyKind::WeightedFair,
    ];

    /// Stable CLI/CSV name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Fcfs => "fcfs",
            PolicyKind::SmallestFirst => "smallest",
            PolicyKind::WeightedFair => "weighted",
        }
    }

    /// Parses [`PolicyKind::name`] back.
    pub fn parse(name: &str) -> Option<PolicyKind> {
        PolicyKind::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Per-class deficit counters of the weighted-fairness policy,
/// persisted across rounds by the engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeficitState {
    deficits: [u64; 3],
}

impl DeficitState {
    /// Fresh counters (all zero).
    pub fn new() -> Self {
        DeficitState::default()
    }

    /// Current per-class balances, indexed by
    /// [`SloClass::index`](muerp_core::extensions::SloClass::index).
    /// Invariant (proptested): `deficits[c] ≤ CLASS_WEIGHTS[c]` between
    /// rounds, `≤ 2·CLASS_WEIGHTS[c]` at any instant inside a round.
    pub fn deficits(&self) -> [u64; 3] {
        self.deficits
    }

    /// Orders one round's queue by deficit round-robin, updating the
    /// balances. Returns indices into `queue`, a permutation of
    /// `0..queue.len()`; within a class, arrival order is preserved.
    pub fn order(&mut self, queue: &[Request]) -> Vec<usize> {
        let mut pending: [std::collections::VecDeque<usize>; 3] = Default::default();
        for (i, r) in queue.iter().enumerate() {
            pending[r.class.index()].push_back(i);
        }
        for c in 0..3 {
            if pending[c].is_empty() {
                // No banking while idle — standard deficit round-robin.
                self.deficits[c] = 0;
            } else {
                self.deficits[c] += CLASS_WEIGHTS[c];
            }
        }
        let mut order = Vec::with_capacity(queue.len());
        let mut remaining = queue.len();
        while remaining > 0 {
            // Largest deficit wins; ties go to the heavier class
            // (smaller index, since weights are sorted descending).
            let c = (0..3)
                .filter(|&c| !pending[c].is_empty())
                .max_by_key(|&c| (self.deficits[c], std::cmp::Reverse(c)))
                .expect("remaining > 0 implies a non-empty class");
            order.push(pending[c].pop_front().expect("class chosen non-empty"));
            self.deficits[c] = self.deficits[c].saturating_sub(1);
            if pending[c].is_empty() {
                // Carry at most one round's earnings forward.
                self.deficits[c] = self.deficits[c].min(CLASS_WEIGHTS[c]);
            }
            remaining -= 1;
        }
        order
    }
}

/// Orders one round's queue under `policy`. FCFS and smallest-first are
/// stateless; the weighted policy reads and updates `deficit`.
pub fn order_requests(
    policy: PolicyKind,
    queue: &[Request],
    deficit: &mut DeficitState,
) -> Vec<usize> {
    match policy {
        PolicyKind::Fcfs => (0..queue.len()).collect(),
        PolicyKind::SmallestFirst => {
            let mut idx: Vec<usize> = (0..queue.len()).collect();
            idx.sort_by_key(|&i| (queue[i].members.len(), queue[i].id));
            idx
        }
        PolicyKind::WeightedFair => deficit.order(queue),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muerp_core::extensions::SloClass;

    fn req(id: u64, size: usize, class: SloClass) -> Request {
        Request {
            id,
            slot: id,
            members: (0..size).map(qnet_graph::NodeId::new).collect(),
            hold: 1,
            class,
        }
    }

    #[test]
    fn policy_names_round_trip() {
        for p in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(p.name()), Some(p));
        }
        assert_eq!(PolicyKind::parse("nonsense"), None);
    }

    #[test]
    fn fcfs_preserves_queue_order() {
        let queue = vec![
            req(0, 3, SloClass::Bronze),
            req(1, 2, SloClass::Gold),
            req(2, 4, SloClass::Silver),
        ];
        let mut d = DeficitState::new();
        assert_eq!(order_requests(PolicyKind::Fcfs, &queue, &mut d), [0, 1, 2]);
        assert_eq!(d, DeficitState::new(), "fcfs never touches the deficits");
    }

    #[test]
    fn smallest_first_is_stable_on_size_ties() {
        let queue = vec![
            req(0, 3, SloClass::Bronze),
            req(1, 2, SloClass::Bronze),
            req(2, 3, SloClass::Bronze),
            req(3, 2, SloClass::Bronze),
        ];
        let mut d = DeficitState::new();
        assert_eq!(
            order_requests(PolicyKind::SmallestFirst, &queue, &mut d),
            [1, 3, 0, 2],
            "size ascending, arrival id breaking ties"
        );
    }

    #[test]
    fn weighted_fair_serves_heavier_classes_first_from_rest() {
        let queue = vec![
            req(0, 2, SloClass::Bronze),
            req(1, 2, SloClass::Gold),
            req(2, 2, SloClass::Silver),
            req(3, 2, SloClass::Gold),
        ];
        let mut d = DeficitState::new();
        let order = d.order(&queue);
        // From zero deficits: Gold earns 4, Silver 2, Bronze 1. Gold's
        // two requests drain first (4 > 2 after one service), then
        // Silver, then Bronze.
        assert_eq!(order, [1, 3, 2, 0]);
        // Between rounds every balance is capped at one round's
        // earnings.
        for (balance, weight) in d.deficits().into_iter().zip(CLASS_WEIGHTS) {
            assert!(balance <= weight);
        }
    }

    #[test]
    fn starved_class_accumulates_credit_and_wins_later() {
        // Round 1: one Bronze among Golds — Bronze is served last.
        let mut d = DeficitState::new();
        let round1 = vec![
            req(0, 2, SloClass::Gold),
            req(1, 2, SloClass::Gold),
            req(2, 2, SloClass::Bronze),
        ];
        let order1 = d.order(&round1);
        assert_eq!(*order1.last().unwrap(), 2);
        // Bronze exhausted its single pending request, so its carry is
        // capped at its weight; Gold drained below Bronze's next-round
        // earnings only if Gold had more pending than credit.
        let round2 = vec![req(3, 2, SloClass::Gold), req(4, 2, SloClass::Bronze)];
        let order2 = d.order(&round2);
        assert_eq!(order2.len(), 2);
        // Whatever the order, the permutation covers the queue.
        let mut seen = order2.clone();
        seen.sort_unstable();
        assert_eq!(seen, [0, 1]);
    }
}
