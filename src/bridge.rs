//! Conversion between the routing layer ([`muerp_core`]) and the
//! physical-layer simulator ([`qnet_sim`]): the one bridge lives in
//! [`qnet_conformance::bridge`].

pub use qnet_conformance::bridge::{physics_of, solution_to_plan};

#[cfg(test)]
mod tests {
    use super::*;
    use muerp_core::prelude::*;

    #[test]
    fn tree_solution_roundtrips_analytic_rate() {
        let net = NetworkSpec::paper_default().build(21);
        let sol = PrimBased::default().solve(&net).expect("feasible");
        let plan = solution_to_plan(&net, &sol);
        let physics = physics_of(&net);
        let analytic = plan.analytic_rate(physics.swap_success, physics.attenuation, None);
        assert!(
            (analytic - sol.rate.value()).abs() < 1e-9 * analytic,
            "plan {analytic} vs solution {}",
            sol.rate.value()
        );
        assert_eq!(plan.users().len(), net.user_count());
    }

    #[test]
    fn fusion_solution_roundtrips_analytic_rate() {
        let net = NetworkSpec::paper_default().build(22);
        let Ok(sol) = NFusion::default().solve(&net) else {
            return;
        };
        let plan = solution_to_plan(&net, &sol);
        let physics = physics_of(&net);
        let analytic = plan.analytic_rate(physics.swap_success, physics.attenuation, None);
        assert!(
            (analytic - sol.rate.value()).abs() < 1e-9 * analytic,
            "plan {analytic} vs solution {}",
            sol.rate.value()
        );
    }
}
