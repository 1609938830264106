//! Beyond-paper comparison: the improvement algorithms this
//! reproduction adds (beam search, local-search refinement) against the
//! paper's heuristics, on the cells where greedy commitment hurts.

use muerp_core::algorithms::{BeamSearch, ConflictFree, LocalSearchOptions, PrimBased, Refined};
use muerp_core::model::NetworkSpec;
use qnet_topology::TopologyKind;

use crate::ablations::sweep;
use crate::runner::{trials, TrialConfig};
use crate::table::FigureTable;

/// The paper's heuristics vs. this reproduction's improvement
/// algorithms, across the three stressed cells (tight capacity and
/// hub-heavy topology).
pub fn beyond_paper(cfg: TrialConfig) -> FigureTable {
    let _span = qnet_obs::span!("exp.beyond.beyond_paper");
    let cells: [(&str, TopologyKind, u32); 3] = [
        ("Waxman Q=2", TopologyKind::Waxman, 2),
        ("Waxman Q=4", TopologyKind::Waxman, 4),
        ("Volchenkov Q=2", TopologyKind::Volchenkov, 2),
    ];
    let mut rows = Vec::new();
    for (label, kind, qubits) in cells {
        let mut spec = NetworkSpec::paper_default();
        spec.topology.kind = kind;
        spec.qubits_per_switch = qubits;
        let (alg3, _) = sweep(spec, |_| ConflictFree::default(), cfg);
        let (alg4, _) = sweep(spec, PrimBased::with_seed, cfg);
        let (beam, _) = sweep(spec, |_| BeamSearch::default(), cfg);
        let (refined, _) = sweep(
            spec,
            |_| Refined {
                inner: ConflictFree::default(),
                options: LocalSearchOptions::default(),
            },
            cfg,
        );
        rows.push((label.to_string(), vec![alg3, alg4, beam, refined]));
    }
    FigureTable {
        id: "beyond_paper",
        title: "Beyond the paper: beam search and local-search refinement".into(),
        x_label: "cell",
        algos: vec!["Alg-3", "Alg-4", "Beam(3,3)", "Alg-3+LS"],
        rows,
    }
}

/// The multi-group extension at work: split the default 10 users into
/// independent entanglement groups and route them concurrently over the
/// shared switches, per strategy. Reports the geometric-mean group rate
/// (a fairness-sensitive aggregate) and the worst group's rate.
pub fn multi_group_concurrency(cfg: TrialConfig) -> FigureTable {
    let _span = qnet_obs::span!("exp.beyond.multi_group_concurrency");
    use muerp_core::extensions::{route_groups, GroupStrategy};
    let spec = NetworkSpec::paper_default();
    let splits: [(&str, &[usize]); 3] = [
        ("1 group of 10", &[10]),
        ("2 groups of 5", &[5, 5]),
        ("3 groups (4/3/3)", &[4, 3, 3]),
    ];
    let mut rows = Vec::new();
    for (label, sizes) in splits {
        for strategy in [GroupStrategy::Sequential, GroupStrategy::RoundRobin] {
            let per_trial = trials(cfg, |seed| {
                let net = spec.build(seed);
                let users = net.users();
                let mut groups = Vec::new();
                let mut start = 0;
                for &size in sizes {
                    groups.push(users[start..start + size].to_vec());
                    start += size;
                }
                let outcomes = route_groups(&net, &groups, strategy);
                let rates: Vec<f64> = outcomes.iter().map(|o| o.rate().value()).collect();
                let geo = if rates.contains(&0.0) {
                    0.0
                } else {
                    rates
                        .iter()
                        .map(|r| r.ln())
                        .sum::<f64>()
                        .exp()
                        .powf(1.0 / rates.len() as f64)
                };
                let worst = rates.iter().copied().fold(f64::INFINITY, f64::min);
                (geo, worst)
            });
            let (geo_sum, worst_sum) = per_trial
                .iter()
                .fold((0.0, 0.0), |(g, w), (geo, worst)| (g + geo, w + worst));
            rows.push((
                format!("{label} / {strategy:?}"),
                vec![geo_sum / cfg.trials as f64, worst_sum / cfg.trials as f64],
            ));
        }
    }
    FigureTable {
        id: "multi_group",
        title: "Concurrent multi-group routing (paper extension)".into(),
        x_label: "split / strategy",
        algos: vec!["geo-mean rate", "worst group"],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_group_table_shape_and_tradeoff() {
        let t = multi_group_concurrency(TrialConfig {
            trials: 3,
            base_seed: 21,
        });
        assert_eq!(t.rows.len(), 6);
        for (label, v) in &t.rows {
            assert!(v[0] >= 0.0 && v[1] >= 0.0, "{label}");
            assert!(v[1] <= v[0] + 1e-12, "worst ≤ geo-mean: {label}");
        }
        // Smaller groups have fewer channels each → higher per-group
        // rates: the 2×5 split's geo-mean should beat the single group.
        let one = t.rows[0].1[0];
        let two = t.rows[2].1[0];
        assert!(two >= one, "2 groups of 5 ({two}) vs 1 group of 10 ({one})");
    }

    #[test]
    fn beam_and_refined_dominate_their_bases() {
        let t = beyond_paper(TrialConfig {
            trials: 3,
            base_seed: 11,
        });
        assert_eq!(t.rows.len(), 3);
        for (label, v) in &t.rows {
            let (alg3, _alg4, beam, refined) = (v[0], v[1], v[2], v[3]);
            // Beam carries an anytime guarantee vs Alg-4 (first-user);
            // sampled Alg-4 uses a random seed so compare to refined's
            // base Alg-3 instead, which is deterministic.
            assert!(
                refined >= alg3 * (1.0 - 1e-12),
                "{label}: refinement lost to its base"
            );
            assert!(
                beam > 0.0 || alg3 == 0.0,
                "{label}: beam infeasible where Alg-3 works"
            );
        }
    }
}
