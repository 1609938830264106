//! One function per panel of the paper's §V evaluation.
//!
//! Every function takes a [`TrialConfig`] (default: 20 networks averaged,
//! matching §V-A) and returns a [`FigureTable`] whose rows mirror the
//! paper's x axis. The *shapes* these tables must reproduce are recorded
//! in `EXPERIMENTS.md` at the workspace root.

use muerp_core::model::NetworkSpec;
use qnet_topology::{SpatialGraph, TopologyKind};
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::runner::{mean_rates, trials, TrialConfig};
use crate::suite::AlgoKind;
use crate::table::FigureTable;

fn algo_names() -> Vec<&'static str> {
    AlgoKind::ALL.iter().map(|a| a.name()).collect()
}

/// Fig. 5 — entanglement rate vs. network topology.
pub fn fig5(cfg: TrialConfig) -> FigureTable {
    let _span = qnet_obs::span!("exp.figures.fig5");
    let mut rows = Vec::new();
    for kind in TopologyKind::ALL {
        let mut spec = NetworkSpec::paper_default();
        spec.topology.kind = kind;
        let rates = mean_rates(|s| spec.build(s), &AlgoKind::ALL, cfg);
        rows.push((kind.name().to_string(), rates));
    }
    FigureTable {
        id: "fig5",
        title: "Entanglement rate vs. network topology".into(),
        x_label: "topology",
        algos: algo_names(),
        rows,
    }
}

/// Fig. 6(a) — entanglement rate vs. number of users.
pub fn fig6a(cfg: TrialConfig) -> FigureTable {
    let _span = qnet_obs::span!("exp.figures.fig6a");
    let mut rows = Vec::new();
    for users in [4usize, 6, 8, 10, 12, 14] {
        let mut spec = NetworkSpec::paper_default();
        // Keep 50 switches; total nodes = switches + users.
        spec.topology.nodes = 50 + users;
        spec.users = users;
        let rates = mean_rates(|s| spec.build(s), &AlgoKind::ALL, cfg);
        rows.push((users.to_string(), rates));
    }
    FigureTable {
        id: "fig6a",
        title: "Entanglement rate vs. number of users".into(),
        x_label: "users",
        algos: algo_names(),
        rows,
    }
}

/// Fig. 6(b) — entanglement rate vs. number of switches.
pub fn fig6b(cfg: TrialConfig) -> FigureTable {
    let _span = qnet_obs::span!("exp.figures.fig6b");
    let mut rows = Vec::new();
    for switches in [10usize, 20, 30, 40, 50] {
        let mut spec = NetworkSpec::paper_default();
        spec.topology.nodes = switches + spec.users;
        let rates = mean_rates(|s| spec.build(s), &AlgoKind::ALL, cfg);
        rows.push((switches.to_string(), rates));
    }
    FigureTable {
        id: "fig6b",
        title: "Entanglement rate vs. number of switches".into(),
        x_label: "switches",
        algos: algo_names(),
        rows,
    }
}

/// Fig. 7(a) — entanglement rate vs. average degree of a switch.
pub fn fig7a(cfg: TrialConfig) -> FigureTable {
    let _span = qnet_obs::span!("exp.figures.fig7a");
    let mut rows = Vec::new();
    for degree in [4u32, 6, 8, 10] {
        let mut spec = NetworkSpec::paper_default();
        spec.topology.avg_degree = degree as f64;
        let rates = mean_rates(|s| spec.build(s), &AlgoKind::ALL, cfg);
        rows.push((degree.to_string(), rates));
    }
    FigureTable {
        id: "fig7a",
        title: "Entanglement rate vs. average degree".into(),
        x_label: "degree",
        algos: algo_names(),
        rows,
    }
}

/// Fig. 7(b) — entanglement rate vs. removed-edge ratio.
///
/// Per §V-B: a 600-fiber network (10 users, 50 switches, average degree
/// 20), removing 30 random fibers per step — cumulatively, so each step's
/// network is a subgraph of the previous one — until nothing feasible
/// remains.
pub fn fig7b(cfg: TrialConfig) -> FigureTable {
    let _span = qnet_obs::span!("exp.figures.fig7b");
    let mut spec = NetworkSpec::paper_default();
    spec.topology.avg_degree = 20.0; // 60 nodes → 600 edges
    let total_edges = 600usize;
    let step = 30usize;
    let steps: Vec<usize> = (0..=19).collect(); // ratios 0.00 … 0.95

    // One topology + removal order per trial; all steps share it so the
    // removal is cumulative, as the paper describes.
    let per_trial = trials(cfg, |seed| {
        let spatial = spec.topology.generate(seed);
        debug_assert_eq!(spatial.edge_count(), total_edges);
        let mut order: Vec<usize> = (0..spatial.edge_count()).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5bd1_e995);
        order.shuffle(&mut rng);
        steps
            .iter()
            .map(|&k| {
                let removed: std::collections::HashSet<usize> = order
                    [..(k * step).min(order.len())]
                    .iter()
                    .copied()
                    .collect();
                let pruned: SpatialGraph =
                    spatial.filter_edges(|e| !removed.contains(&e.id.index()));
                let net = spec.build_from_spatial(&pruned, seed);
                AlgoKind::ALL.map(|algo| algo.rate_on(&net, seed))
            })
            .collect::<Vec<_>>()
    });

    let rows = steps
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let ratio = (k * step) as f64 / total_edges as f64;
            let mut sums = vec![0.0f64; AlgoKind::ALL.len()];
            for trial in &per_trial {
                for (acc, r) in sums.iter_mut().zip(trial[i]) {
                    *acc += r;
                }
            }
            let means = sums.into_iter().map(|v| v / cfg.trials as f64).collect();
            (format!("{ratio:.2}"), means)
        })
        .collect();

    FigureTable {
        id: "fig7b",
        title: "Entanglement rate vs. removed edges ratio".into(),
        x_label: "removed",
        algos: algo_names(),
        rows,
    }
}

/// Fig. 8(a) — entanglement rate vs. qubits per switch.
///
/// Algorithm 2 is exempt from the sweep (its switches always hold
/// `2·|U| = 20` qubits), which [`AlgoKind::Alg2`] implements.
pub fn fig8a(cfg: TrialConfig) -> FigureTable {
    let _span = qnet_obs::span!("exp.figures.fig8a");
    let mut rows = Vec::new();
    for qubits in [2u32, 4, 6, 8] {
        let mut spec = NetworkSpec::paper_default();
        spec.qubits_per_switch = qubits;
        let rates = mean_rates(|s| spec.build(s), &AlgoKind::ALL, cfg);
        rows.push((qubits.to_string(), rates));
    }
    FigureTable {
        id: "fig8a",
        title: "Entanglement rate vs. qubits per switch".into(),
        x_label: "qubits",
        algos: algo_names(),
        rows,
    }
}

/// Fig. 8(b) — entanglement rate vs. successful swapping rate `q`.
pub fn fig8b(cfg: TrialConfig) -> FigureTable {
    let _span = qnet_obs::span!("exp.figures.fig8b");
    let mut rows = Vec::new();
    for q in [0.6f64, 0.7, 0.8, 0.9, 1.0] {
        let mut spec = NetworkSpec::paper_default();
        spec.physics.swap_success = q;
        let rates = mean_rates(|s| spec.build(s), &AlgoKind::ALL, cfg);
        rows.push((format!("{q:.1}"), rates));
    }
    FigureTable {
        id: "fig8b",
        title: "Entanglement rate vs. swap success rate".into(),
        x_label: "q",
        algos: algo_names(),
        rows,
    }
}

/// §V-B headline numbers: the maximum improvement of each proposed
/// algorithm over each baseline across all sweeps of Figs. 5–8
/// (the paper reports e.g. "up to 5347% … compared to N-FUSION").
///
/// Improvement in a cell = `(alg / baseline − 1) × 100%`, taken only
/// where the baseline is feasible (rate > 0); the maximum over all cells
/// is reported.
pub fn headline(cfg: TrialConfig) -> FigureTable {
    let _span = qnet_obs::span!("exp.figures.headline");
    let tables = [
        fig5(cfg),
        fig6a(cfg),
        fig6b(cfg),
        fig7a(cfg),
        fig8a(cfg),
        fig8b(cfg),
    ];
    let proposed = [AlgoKind::Alg2, AlgoKind::Alg3, AlgoKind::Alg4];
    let baselines = [AlgoKind::NFusion, AlgoKind::EQCast];

    let mut rows = Vec::new();
    for alg in proposed {
        let mut cells = Vec::new();
        for base in baselines {
            let mut best = 0.0f64;
            for t in &tables {
                let ai = t.algos.iter().position(|n| *n == alg.name()).expect("col");
                let bi = t.algos.iter().position(|n| *n == base.name()).expect("col");
                for (_, rates) in &t.rows {
                    if rates[bi] > 0.0 && rates[ai] > 0.0 {
                        best = best.max((rates[ai] / rates[bi] - 1.0) * 100.0);
                    }
                }
            }
            cells.push(best);
        }
        rows.push((alg.name().to_string(), cells));
    }

    FigureTable {
        id: "headline",
        title: "Max improvement over baselines across Figs. 5-8 (%)".into(),
        x_label: "algorithm",
        algos: vec!["vs N-Fusion (%)", "vs E-Q-CAST (%)"],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TrialConfig {
        TrialConfig {
            trials: 2,
            base_seed: 7,
        }
    }

    #[test]
    fn fig5_has_three_topology_rows() {
        let t = fig5(tiny());
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.rows[0].0, "Waxman");
        assert_eq!(t.algos.len(), 5);
    }

    #[test]
    fn fig6a_rate_decreases_with_users_for_alg2() {
        // Alg-2's mean rate must fall monotonically with more users —
        // more channels in the product (robust even at 2 trials because
        // Alg-2 is near-deterministic per network).
        let t = fig6a(TrialConfig {
            trials: 3,
            base_seed: 1,
        });
        let col = t.algos.iter().position(|a| *a == "Alg-2").unwrap();
        let series: Vec<f64> = t.rows.iter().map(|(_, r)| r[col]).collect();
        // Different user counts sample different random topologies, so
        // adjacent steps can jitter at low trial counts; the endpoints
        // must still show the Fig. 6(a) trend clearly.
        assert!(
            series.last().unwrap() < &(series.first().unwrap() * 0.5),
            "14 users must be much harder than 4: {series:?}"
        );
    }

    #[test]
    fn fig6b_and_fig7a_have_expected_rows() {
        let t = fig6b(tiny());
        assert_eq!(
            t.rows.iter().map(|(x, _)| x.as_str()).collect::<Vec<_>>(),
            vec!["10", "20", "30", "40", "50"]
        );
        let t = fig7a(tiny());
        assert_eq!(
            t.rows.iter().map(|(x, _)| x.as_str()).collect::<Vec<_>>(),
            vec!["4", "6", "8", "10"]
        );
        for (_, rates) in &t.rows {
            assert_eq!(rates.len(), 5);
        }
    }

    #[test]
    fn fig8b_rate_increases_with_q_for_alg2() {
        let t = fig8b(TrialConfig {
            trials: 3,
            base_seed: 2,
        });
        let col = t.algos.iter().position(|a| *a == "Alg-2").unwrap();
        let series: Vec<f64> = t.rows.iter().map(|(_, r)| r[col]).collect();
        for w in series.windows(2) {
            assert!(w[1] >= w[0], "rate must rise with q: {series:?}");
        }
    }

    #[test]
    fn fig7b_removal_is_cumulative_and_decreasing_overall() {
        let t = fig7b(TrialConfig {
            trials: 2,
            base_seed: 3,
        });
        assert_eq!(t.rows.len(), 20);
        let col = t.algos.iter().position(|a| *a == "Alg-2").unwrap();
        let first = t.rows.first().unwrap().1[col];
        let last = t.rows.last().unwrap().1[col];
        assert!(
            last <= first,
            "removing 95% of fibers cannot help: {first} → {last}"
        );
    }

    #[test]
    fn fig8a_alg2_is_flat_across_qubit_sweep() {
        // Alg-2 always gets 2|U| qubits, so its rate must not depend on
        // the swept capacity.
        let t = fig8a(TrialConfig {
            trials: 2,
            base_seed: 4,
        });
        let col = t.algos.iter().position(|a| *a == "Alg-2").unwrap();
        let series: Vec<f64> = t.rows.iter().map(|(_, r)| r[col]).collect();
        for w in series.windows(2) {
            assert!(
                (w[0] - w[1]).abs() < 1e-12,
                "Alg-2 must be capacity-exempt: {series:?}"
            );
        }
    }

    #[test]
    fn headline_reports_positive_improvements() {
        let t = headline(tiny());
        assert_eq!(t.rows.len(), 3);
        // Alg-2 must beat both baselines somewhere.
        let alg2 = &t.rows[0].1;
        assert!(
            alg2.iter().all(|&v| v > 0.0),
            "Alg-2 improvements: {alg2:?}"
        );
    }
}
