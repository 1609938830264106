//! Operational pipelines across crates: routed solutions become concrete
//! qubit assignments; the online session model and the buffered protocol
//! behave sanely on both synthetic and reference topologies.

use std::collections::HashMap;

use muerp::bridge::solution_to_plan;
use muerp::core::extensions::{simulate_stream, StreamConfig};
use muerp::core::prelude::*;
use muerp::sim::buffered::{BufferedChannel, BufferedTree};
use muerp::sim::qubit::{assign, SlotUse};
use muerp::topology::reference::nsfnet;

#[test]
fn routed_solutions_receive_concrete_qubit_assignments() {
    for seed in 0..8u64 {
        let net = NetworkSpec::paper_default().build(seed);
        for outcome in [
            ConflictFree::default().solve(&net),
            PrimBased::with_seed(seed).solve(&net),
            NFusion::default().solve(&net),
        ] {
            let Ok(sol) = outcome else { continue };
            let plan = solution_to_plan(&net, &sol);
            let caps: HashMap<usize, u32> = net
                .switches()
                .map(|s| (s.index(), net.kind(s).qubits()))
                .collect();
            // The assignment is the constructive witness of feasibility.
            let assignment = assign(&plan, &caps)
                .unwrap_or_else(|e| panic!("seed {seed}: unassignable plan: {e}"));
            // Slot demand equals the analytic qubit demand per switch.
            for (node, demand) in plan.qubit_demand() {
                assert_eq!(assignment.slots_at(node).len() as u32, demand);
            }
            // Every relay use pairs left+right at the same switch.
            let mut relays: HashMap<(usize, usize), u32> = HashMap::new();
            for (_, usage) in &assignment.uses {
                if let SlotUse::Relay {
                    channel, position, ..
                } = usage
                {
                    *relays.entry((*channel, *position)).or_insert(0) += 1;
                }
            }
            assert!(relays.values().all(|&c| c == 2), "seed {seed}");
        }
    }
}

#[test]
fn online_model_runs_on_the_nsfnet_backbone() {
    let backbone = nsfnet();
    let users: Vec<_> = [0usize, 1, 7, 10, 13]
        .map(muerp::graph::NodeId::new)
        .to_vec();
    let net = QuantumNetwork::from_spatial(
        &backbone,
        &users,
        4,
        muerp::core::model::PhysicsParams::paper_default(),
    );
    let stats = simulate_stream(
        &net,
        StreamConfig {
            slots: 5_000,
            base_arrival: 0.5,
            diurnal_amplitude: 0.0,
            group_size: (2, 3),
            hold_slots: (5, 15),
            ..StreamConfig::default()
        },
        9,
    )
    .stats;
    assert!(stats.arrived > 1_000);
    assert_eq!(stats.arrived, stats.admitted + stats.blocked());
    assert!(stats.admitted > 0, "the backbone must admit some sessions");
    assert!(stats.mean_session_rate > 0.0);
}

#[test]
fn buffered_tree_built_from_a_routed_solution() {
    let net = NetworkSpec::paper_default().build(52);
    let sol = PrimBased::default().solve(&net).expect("feasible");
    let channel_lengths: Vec<Vec<f64>> = sol
        .channels
        .iter()
        .map(|c| c.path.edges.iter().map(|&e| net.length(e)).collect())
        .collect();
    let q = net.physics().swap_success;
    let alpha = net.physics().attenuation;

    // Synchronized expectation equals 1 / (solution rate).
    let tree = BufferedTree::new(channel_lengths.clone(), q, alpha, 0);
    let sync = tree.synchronized_expected_slots();
    assert!(
        (sync - 1.0 / sol.rate.value()).abs() < 1e-6 * sync,
        "sync wait {sync} vs 1/rate {}",
        1.0 / sol.rate.value()
    );

    // Asynchronous completion is far faster for a 9-channel tree.
    let async_mean = tree.mean_slots_to_completion(60, 10);
    assert!(
        async_mean < sync * 0.2,
        "async {async_mean} vs sync {sync}: holding channels must pay off"
    );

    // Per-channel fidelity-tracked run: cutoff 0 delivers the closed form.
    let longest = channel_lengths
        .iter()
        .max_by_key(|l| l.len())
        .unwrap()
        .clone();
    let links = longest.len();
    let bc = BufferedChannel::new(longest, q, alpha, 0);
    let stats = bc.run_with_fidelity(0.98, 0.97, 30_000, 11);
    let expected = muerp::sim::fidelity::chain_fidelity(0.98, links);
    assert!(
        (stats.mean_fidelity - expected).abs() < 1e-9,
        "delivered {} vs closed-form {expected}",
        stats.mean_fidelity
    );
}

#[test]
fn hot_switches_have_high_betweenness() {
    // The analysis story: switch load under many sessions correlates
    // with betweenness. Aggregate channel usage over seeds and check the
    // most-used switch ranks in the top betweenness decile.
    use muerp::core::analysis::solution_stats;
    use muerp::graph::centrality::betweenness;
    use muerp::graph::EdgeRef;

    let mut spec = NetworkSpec::paper_default();
    spec.qubits_per_switch = 20; // remove capacity as a confounder
    let mut usage: HashMap<usize, u32> = HashMap::new();
    let net0 = spec.build(123);
    for trial in 0..10u64 {
        // Same topology, different user draws: rebuild users over the
        // same spatial graph by varying only the seed's user selection.
        let spatial = spec.topology.generate(123);
        let net = spec.build_from_spatial(&spatial, 123 ^ (trial.wrapping_mul(7919)));
        if let Ok(sol) = ConflictFree::default().solve(&net) {
            let stats = solution_stats(&net, &sol);
            for (node, load) in stats.switch_load {
                *usage.entry(node.index()).or_insert(0) += load;
            }
        }
    }
    let central = betweenness(net0.graph(), |e: EdgeRef<'_, f64>| {
        net0.physics().attenuation * *e.payload
    });
    let (&hottest, _) = usage
        .iter()
        .max_by_key(|(_, &load)| load)
        .expect("some switch was used");
    let mut ranked: Vec<f64> = central.clone();
    ranked.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let top_quartile = ranked[ranked.len() / 4];
    assert!(
        central[hottest] >= top_quartile,
        "hottest switch n{hottest} (betweenness {}) below the top quartile ({top_quartile})",
        central[hottest]
    );
}
