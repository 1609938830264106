//! Quality ablations for the design choices DESIGN.md §5 calls out.
//!
//! Each function sweeps one knob of a proposed algorithm and reports the
//! mean entanglement rate it achieves (same 20-network protocol as the
//! figures), quantifying how much the paper's specific greedy choices
//! matter.

use muerp_core::algorithms::{
    ConflictFree, LocalSearchOptions, PrimBased, Refined, RetentionPolicy, SeedChoice,
};
use muerp_core::model::NetworkSpec;
use muerp_core::solver::RoutingAlgorithm;

use crate::runner::{trials, TrialConfig};
use crate::table::FigureTable;

/// Per-trial seed-choice policy used by the [`seed_choice`] ablation.
type SeedPolicy = Box<dyn Fn(u64) -> SeedChoice + Sync>;

/// Mean rate of `solve` over the trial networks (0 on failure), plus the
/// fraction of feasible trials.
pub(crate) fn sweep<A: RoutingAlgorithm>(
    spec: NetworkSpec,
    algo_for_trial: impl Fn(u64) -> A + Sync,
    cfg: TrialConfig,
) -> (f64, f64) {
    let rates = trials(cfg, |seed| {
        let net = spec.build(seed);
        algo_for_trial(seed)
            .solve(&net)
            .ok()
            .map(|sol| sol.rate.value())
    });
    // Fold from +0.0 (`Sum` starts at -0.0, which would print "-0"
    // for a cell no trial solves).
    let total = rates.iter().flatten().fold(0.0, |acc, r| acc + r);
    let feasible = rates.iter().flatten().count();
    (
        total / cfg.trials as f64,
        feasible as f64 / cfg.trials as f64,
    )
}

/// Ablation: Algorithm 4's seed-user policy.
///
/// The paper picks the seed uniformly at random; `BestOfAll` retries from
/// every user (×|U| cost) and upper-bounds what seed choice can buy.
pub fn seed_choice(cfg: TrialConfig) -> FigureTable {
    let _span = qnet_obs::span!("exp.ablations.seed_choice");
    let spec = NetworkSpec::paper_default();
    let mut rows = Vec::new();
    let variants: [(&str, SeedPolicy); 3] = [
        ("first-user", Box::new(|_| SeedChoice::FirstUser)),
        ("random (paper)", Box::new(SeedChoice::Random)),
        ("best-of-all", Box::new(|_| SeedChoice::BestOfAll)),
    ];
    for (label, make) in variants {
        let (rate, feasible) = sweep(spec, |s| PrimBased { seed: make(s) }, cfg);
        rows.push((label.to_string(), vec![rate, feasible]));
    }
    FigureTable {
        id: "ablation_seed",
        title: "Ablation: Algorithm 4 seed-user policy".into(),
        x_label: "policy",
        algos: vec!["mean rate", "feasible frac"],
        rows,
    }
}

/// Ablation: Algorithm 3's phase-1 retention policy under tight capacity
/// (Q = 2, the stressed cell of Fig. 8(a)).
pub fn retention_policy(cfg: TrialConfig) -> FigureTable {
    let _span = qnet_obs::span!("exp.ablations.retention_policy");
    let mut rows = Vec::new();
    for qubits in [2u32, 4] {
        let mut spec = NetworkSpec::paper_default();
        spec.qubits_per_switch = qubits;
        for (label, retention) in [
            ("max-rate-first (paper)", RetentionPolicy::MaxRateFirst),
            (
                "fewest-switches-first",
                RetentionPolicy::FewestSwitchesFirst,
            ),
        ] {
            let (rate, feasible) = sweep(spec, |_| ConflictFree { retention }, cfg);
            rows.push((format!("Q={qubits} {label}"), vec![rate, feasible]));
        }
    }
    FigureTable {
        id: "ablation_retention",
        title: "Ablation: Algorithm 3 retention policy".into(),
        x_label: "variant",
        algos: vec!["mean rate", "feasible frac"],
        rows,
    }
}

/// Ablation: N-FUSION's GHZ-measurement success model — how much of the
/// baseline's deficit is the fusion penalty vs. the star shape.
pub fn fusion_model(cfg: TrialConfig) -> FigureTable {
    let _span = qnet_obs::span!("exp.ablations.fusion_model");
    use muerp_core::algorithms::baselines::{FusionSuccess, NFusion};
    let spec = NetworkSpec::paper_default();
    let mut rows = Vec::new();
    for (label, fusion) in [
        ("q^(n-1) (paper)", FusionSuccess::PowerLaw),
        ("fixed q (optimistic)", FusionSuccess::Fixed(0.9)),
        ("perfect fusion", FusionSuccess::Fixed(1.0)),
    ] {
        let (rate, feasible) = sweep(spec, |_| NFusion { fusion }, cfg);
        rows.push((label.to_string(), vec![rate, feasible]));
    }
    FigureTable {
        id: "ablation_fusion",
        title: "Ablation: N-FUSION GHZ success model".into(),
        x_label: "model",
        algos: vec!["mean rate", "feasible frac"],
        rows,
    }
}

/// Ablation: local-search refinement on top of the greedy heuristics,
/// under tight capacity (where greedy traps exist) and the default.
pub fn local_search(cfg: TrialConfig) -> FigureTable {
    let _span = qnet_obs::span!("exp.ablations.local_search");
    use qnet_topology::TopologyKind;
    let mut rows = Vec::new();
    // Waxman at two capacity levels, plus power-law (whose hubs
    // concentrate capacity conflicts and give the refinement something
    // to fix).
    let cells: [(TopologyKind, u32); 3] = [
        (TopologyKind::Waxman, 2),
        (TopologyKind::Waxman, 4),
        (TopologyKind::Volchenkov, 2),
    ];
    for (kind, qubits) in cells {
        let mut spec = NetworkSpec::paper_default();
        spec.topology.kind = kind;
        spec.qubits_per_switch = qubits;
        let (plain, _) = sweep(spec, |_| ConflictFree::default(), cfg);
        let (refined, _) = sweep(
            spec,
            |_| Refined {
                inner: ConflictFree::default(),
                options: LocalSearchOptions::default(),
            },
            cfg,
        );
        rows.push((
            format!("{} Q={qubits} Alg-3", kind.name()),
            vec![plain, 0.0],
        ));
        rows.push((
            format!("{} Q={qubits} Alg-3+LS", kind.name()),
            vec![refined, (refined / plain.max(1e-300) - 1.0) * 100.0],
        ));
    }
    FigureTable {
        id: "ablation_localsearch",
        title: "Ablation: local-search refinement of Algorithm 3".into(),
        x_label: "variant",
        algos: vec!["mean rate", "gain (%)"],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TrialConfig {
        TrialConfig {
            trials: 4,
            base_seed: 50,
        }
    }

    #[test]
    fn best_of_all_dominates_fixed_seeds() {
        let t = seed_choice(tiny());
        let rate = |label: &str| {
            t.rows
                .iter()
                .find(|(l, _)| l.starts_with(label))
                .map(|(_, v)| v[0])
                .unwrap()
        };
        assert!(rate("best-of-all") >= rate("first-user") - 1e-12);
        assert!(rate("best-of-all") >= rate("random") - 1e-12);
    }

    #[test]
    fn retention_table_has_both_capacity_levels() {
        let t = retention_policy(tiny());
        assert_eq!(t.rows.len(), 4);
        assert!(t.rows.iter().all(|(_, v)| (0.0..=1.0).contains(&v[1])));
    }

    #[test]
    fn local_search_never_hurts() {
        let t = local_search(TrialConfig {
            trials: 2,
            base_seed: 60,
        });
        assert_eq!(t.rows.len(), 6);
        for pair in t.rows.chunks(2) {
            let plain = pair[0].1[0];
            let refined = pair[1].1[0];
            assert!(
                refined >= plain * (1.0 - 1e-12),
                "refinement decreased rate: {refined} < {plain}"
            );
        }
    }

    #[test]
    fn weaker_fusion_penalty_raises_the_baseline() {
        let t = fusion_model(tiny());
        let power_law = t.rows[0].1[0];
        let perfect = t.rows[2].1[0];
        assert!(
            perfect >= power_law,
            "removing the fusion penalty cannot hurt: {perfect} vs {power_law}"
        );
    }
}
