//! Property battery over the serve policies and telemetry:
//!
//! * the weighted-fairness deficit counters never exceed their cap, so
//!   no class is ever starved — any class with pending work is served
//!   within a provable bound of emissions;
//! * backpressure sheds exactly the over-capacity suffix of each fill
//!   cycle, nothing more, nothing less;
//! * the round-level time-series counters sum exactly to the run-level
//!   stream totals across arbitrary round sizes and queue capacities.

use proptest::prelude::*;

use qnet_graph::NodeId;

use muerp_core::extensions::{Request, SloClass, StreamConfig};
use muerp_core::model::NetworkSpec;
use muerp_serve::{serve, BoundedQueue, DeficitState, PolicyKind, ServeConfig, CLASS_WEIGHTS};

fn class_of(index: usize) -> SloClass {
    SloClass::ALL[index % 3]
}

fn request(id: u64, class: SloClass) -> Request {
    Request {
        id,
        slot: id,
        members: vec![NodeId::new(0), NodeId::new(1)],
        hold: 1,
        class,
    }
}

/// First-service bound of deficit round-robin: before class `c` is
/// served, every other class `c'` can spend at most its instantaneous
/// maximum of `2·weight(c')` credits.
fn starvation_bound(class: usize) -> usize {
    (0..3)
        .filter(|&c| c != class)
        .map(|c| 2 * CLASS_WEIGHTS[c] as usize)
        .sum()
}

proptest! {
    /// Across arbitrary multi-round class sequences: the balances stay
    /// capped between rounds, each round's order is a permutation that
    /// preserves intra-class arrival order, and no class waits past
    /// the deficit bound for its first service.
    #[test]
    fn weighted_fairness_never_starves_a_class(
        rounds in proptest::collection::vec(
            proptest::collection::vec(0usize..3, 0..12),
            1..16,
        ),
    ) {
        let mut deficit = DeficitState::new();
        let mut next_id = 0u64;
        for classes in &rounds {
            let queue: Vec<Request> = classes
                .iter()
                .map(|&c| {
                    next_id += 1;
                    request(next_id, class_of(c))
                })
                .collect();
            let order = deficit.order(&queue);

            // A permutation of the queue…
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&sorted, &(0..queue.len()).collect::<Vec<_>>());
            // …that preserves arrival order within each class.
            for class in 0..3 {
                let served: Vec<usize> = order
                    .iter()
                    .copied()
                    .filter(|&i| queue[i].class.index() == class)
                    .collect();
                prop_assert!(served.windows(2).all(|w| w[0] < w[1]));
                // No starvation: the class's first service sits within
                // the deficit bound of the round's emission sequence.
                if let Some(&first) = served.first() {
                    let position = order.iter().position(|&i| i == first).unwrap();
                    prop_assert!(
                        position <= starvation_bound(class),
                        "class {} first served at position {} > bound {}",
                        class,
                        position,
                        starvation_bound(class)
                    );
                }
            }
            // Between rounds every balance is capped at one round's
            // earnings.
            for (balance, weight) in deficit.deficits().into_iter().zip(CLASS_WEIGHTS) {
                prop_assert!(balance <= weight);
            }
        }
    }

    /// The bounded queue sheds exactly the over-capacity suffix of each
    /// fill cycle, and the lifetime tally is exact.
    #[test]
    fn backpressure_sheds_exactly_the_over_capacity_suffix(
        capacity in 1usize..8,
        cycles in proptest::collection::vec(0usize..20, 1..8),
    ) {
        let mut queue = BoundedQueue::new(capacity);
        let mut next_id = 0u64;
        let mut expected_shed_total = 0u64;
        for &n in &cycles {
            let ids: Vec<u64> = (0..n).map(|_| { next_id += 1; next_id }).collect();
            for (i, &id) in ids.iter().enumerate() {
                let accepted = queue.offer(request(id, SloClass::Bronze));
                prop_assert_eq!(accepted, i < capacity, "only the first `capacity` offers fit");
            }
            let (kept, shed) = queue.drain();
            let cut = n.min(capacity);
            prop_assert_eq!(
                kept.iter().map(|r| r.id).collect::<Vec<_>>(),
                ids[..cut].to_vec(),
                "kept must be the first `capacity` offers"
            );
            prop_assert_eq!(
                shed.iter().map(|r| r.id).collect::<Vec<_>>(),
                ids[cut..].to_vec(),
                "shed must be exactly the over-capacity suffix"
            );
            expected_shed_total += (n - cut) as u64;
            prop_assert_eq!(queue.shed_total(), expected_shed_total);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite 4: round-level time-series counters must sum exactly
    /// to the run-level totals for arbitrary round sizes, queue
    /// capacities, policies, and seeds — admitted + blocked + shed
    /// equals arrivals, window by window and in total.
    #[test]
    fn round_counters_sum_to_run_totals(
        round_slots in 1u64..64,
        queue_capacity in 1usize..12,
        policy_index in 0usize..3,
        seed in 0u64..1000,
    ) {
        let net = NetworkSpec::paper_default().build(seed);
        let cfg = ServeConfig {
            stream: StreamConfig {
                slots: 128,
                ..StreamConfig::default()
            },
            round_slots,
            queue_capacity,
            policy: PolicyKind::ALL[policy_index],
        };
        let out = serve(&net, &cfg, seed);
        let s = out.stats;

        prop_assert_eq!(out.rounds.len() as u64, cfg.rounds());
        prop_assert_eq!(out.series.windows.len(), out.rounds.len());
        prop_assert_eq!(out.series.evicted, 0);

        // Run-level identity.
        prop_assert_eq!(s.arrived, s.admitted + s.blocked() + s.shed);
        prop_assert_eq!(out.decisions.len() as u64, s.arrived);

        // Series totals equal the run totals, counter by counter.
        prop_assert_eq!(out.series.merged_rate("arrivals"), s.arrived);
        prop_assert_eq!(out.series.merged_rate("admitted"), s.admitted);
        prop_assert_eq!(out.series.merged_rate("blocked_busy"), s.blocked_busy);
        prop_assert_eq!(
            out.series.merged_rate("blocked_capacity"),
            s.blocked_capacity
        );
        prop_assert_eq!(out.series.merged_rate("shed"), s.shed);
        prop_assert_eq!(out.series.merged_rate("departures"), s.departures);
        prop_assert_eq!(
            out.series.merged_rate("admitted")
                + out.series.merged_rate("blocked_busy")
                + out.series.merged_rate("blocked_capacity")
                + out.series.merged_rate("shed"),
            s.arrived
        );

        // And window-by-window against the per-round reports.
        for (window, round) in out.series.windows.iter().zip(&out.rounds) {
            prop_assert_eq!(window.rates["admitted"], round.admitted);
            prop_assert_eq!(window.rates["shed"], round.shed);
            prop_assert_eq!(window.rates["blocked_busy"], round.blocked_busy);
            prop_assert_eq!(window.rates["blocked_capacity"], round.blocked_capacity);
            prop_assert_eq!(window.rates["departures"], round.departures);
        }
    }
}
