//! The analytic evaluation (Eq. 1/2) is validated against the mechanical
//! Monte-Carlo protocol simulation for every algorithm and topology —
//! the load-bearing substitution of this reproduction (see DESIGN.md).

use muerp::bridge::{physics_of, solution_to_plan};
use muerp::core::prelude::*;
use muerp::sim::{RateEstimate, Simulator};
use muerp::topology::TopologyKind;

const SLOTS: u64 = 60_000;
const Z: f64 = 4.4; // ~1e-5 two-sided: negligible flake risk across many checks

/// Executes `sol` for `SLOTS` slots; returns the plan's analytic rate
/// and the measured success estimate.
fn simulate(net: &QuantumNetwork, sol: &Solution, seed: u64) -> (f64, RateEstimate) {
    let plan = solution_to_plan(net, sol);
    let mut sim = Simulator::new(plan, physics_of(net), 7_000 + seed);
    let analytic = sim.analytic_rate();
    (analytic, sim.run_slots(SLOTS).estimate())
}

fn check(net: &QuantumNetwork, sol: &Solution, name: &str, seed: u64) {
    let (analytic, estimate) = simulate(net, sol, seed);
    assert!(
        (analytic - sol.rate.value()).abs() <= 1e-9 * analytic.max(1e-300),
        "{name}: plan rate {analytic} disagrees with solution rate {}",
        sol.rate.value()
    );
    let iv = estimate.wilson_interval(Z);
    assert!(
        iv.contains(analytic),
        "{name} seed {seed}: Monte-Carlo {} rejects analytic {analytic} (interval [{}, {}])",
        estimate.point(),
        iv.lo,
        iv.hi
    );
}

#[test]
fn bsm_tree_solutions_match_monte_carlo() {
    for kind in TopologyKind::ALL {
        let mut spec = NetworkSpec::paper_default();
        spec.topology.kind = kind;
        let net = spec.build(17);
        if let Ok(sol) = ConflictFree::default().solve(&net) {
            check(&net, &sol, "Alg-3", 17);
        }
        if let Ok(sol) = PrimBased::with_seed(17).solve(&net) {
            check(&net, &sol, "Alg-4", 18);
        }
    }
}

#[test]
fn chain_solutions_match_monte_carlo() {
    let net = NetworkSpec::paper_default().build(23);
    if let Ok(sol) = EQCast.solve(&net) {
        check(&net, &sol, "E-Q-CAST", 23);
    }
}

#[test]
fn fusion_solutions_match_monte_carlo() {
    // Fusion paths + the q^(n−1) GHZ measurement.
    let net = NetworkSpec::paper_default().build(29);
    if let Ok(sol) = NFusion::default().solve(&net) {
        check(&net, &sol, "N-Fusion", 29);
    }
}

#[test]
fn swap_rate_sweep_matches_monte_carlo() {
    // Eq. 1's q-dependence: same tree, varying q.
    let base = NetworkSpec::paper_default().build(31);
    for q in [0.6, 0.8, 1.0] {
        let net = base.with_physics(muerp::core::model::PhysicsParams {
            swap_success: q,
            attenuation: base.physics().attenuation,
        });
        if let Ok(sol) = PrimBased::with_seed(31).solve(&net) {
            check(&net, &sol, &format!("Alg-4 q={q}"), 31);
        }
    }
}

#[test]
fn corrupted_rate_is_detected_by_the_simulator() {
    // The check above can fail: claim three times an Alg-4 tree's true
    // rate and the Monte-Carlo interval must exclude the claim.
    let net = NetworkSpec::paper_default().with_users(5).build(43);
    let mut sol = PrimBased::with_seed(43).solve(&net).expect("feasible");
    sol.rate = Rate::from_prob((sol.rate.value() * 3.0).min(0.999));
    let (analytic, estimate) = simulate(&net, &sol, 43);
    let iv = estimate.wilson_interval(Z);
    assert!(
        !iv.contains(sol.rate.value()),
        "tripled claim {} inside interval [{}, {}] (true rate {analytic})",
        sol.rate.value(),
        iv.lo,
        iv.hi
    );
}

#[test]
fn infeasible_plan_is_never_produced() {
    // Whatever the algorithms emit must fit the simulator's capacity
    // accounting too (an independent re-check of qubit bookkeeping).
    for seed in 0..10u64 {
        let net = NetworkSpec::paper_default().build(seed);
        for outcome in [
            ConflictFree::default().solve(&net),
            PrimBased::with_seed(seed).solve(&net),
            NFusion::default().solve(&net),
            EQCast.solve(&net),
        ] {
            let Ok(sol) = outcome else { continue };
            let plan = solution_to_plan(&net, &sol);
            let caps: std::collections::HashMap<usize, u32> = net
                .switches()
                .map(|s| (s.index(), net.kind(s).qubits()))
                .collect();
            assert!(
                plan.fits_capacity(&caps),
                "seed {seed}: plan exceeds simulator capacity accounting"
            );
        }
    }
}
