//! Survivability experiment: accumulated failures vs. repair strategy.
//!
//! `repro churn` replays a seeded [`FailurePlan`] against solved
//! paper-default networks and compares three responses after each
//! cumulative failure:
//!
//! * **Do-Nothing** — keep the original tree; rate drops to zero the
//!   moment the degraded network can no longer carry it;
//! * **Repair** — the incremental ladder
//!   ([`muerp_core::survive::repair`]): local re-route, then subtree
//!   re-attachment, then full re-solve;
//! * **Full-Resolve** — tear everything down and re-solve from scratch
//!   on the degraded network.
//!
//! A companion table records the repair ladder's telemetry (mean
//! channel-finder searches — the repair-latency proxy — and the share
//! of each ladder rung), and a third closes the loop through the
//! Monte-Carlo simulator: the same failure schedule replayed
//! mid-protocol via [`Simulator::run_churn`], with the repair callback
//! wired to the core ladder, against a do-nothing baseline.
//!
//! Everything is sequential and seeded: trial `t` uses
//! `base_seed + t` for the network, the solve, and the failure plan, so
//! a fixed invocation is bitwise deterministic.

use muerp_core::model::{NetworkSpec, QuantumNetwork};
use muerp_core::prelude::*;
use qnet_conformance::bridge::{physics_of, solution_to_plan};
use qnet_sim::churn::{FailureEvent, PlanFix};
use qnet_sim::engine::Simulator;

use crate::table::FigureTable;

/// Configuration of a churn run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnConfig {
    /// Number of random networks replayed.
    pub trials: u64,
    /// Failures injected per trial.
    pub failures: usize,
    /// Base RNG seed; trial `t` uses `base_seed + t` throughout.
    pub base_seed: u64,
    /// Protocol slots simulated in the Monte-Carlo replay (failures are
    /// scheduled uniformly over this horizon).
    pub sim_slots: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            trials: 8,
            failures: 4,
            base_seed: 0,
            sim_slots: 400,
        }
    }
}

/// Per-trial, per-failure-step accumulators.
#[derive(Clone, Debug, Default)]
struct StepStats {
    do_nothing: f64,
    repair: f64,
    full: f64,
    searches: f64,
    /// Counts per [`RepairMethod`], in `METHODS` order.
    methods: [f64; 5],
    samples: f64,
}

const METHODS: [RepairMethod; 5] = [
    RepairMethod::Untouched,
    RepairMethod::LocalReroute,
    RepairMethod::Reattach,
    RepairMethod::FullResolve,
    RepairMethod::Unrepairable,
];

fn method_slot(method: RepairMethod) -> usize {
    METHODS
        .iter()
        .position(|&m| m == method)
        .expect("METHODS is exhaustive")
}

/// Maps a core failure to the simulator's index-space event.
fn to_sim_event(net: &QuantumNetwork, failure: &Failure) -> FailureEvent {
    match failure.kind {
        FailureKind::LinkCut { edge } => {
            let (a, b) = net.graph().endpoints(edge);
            FailureEvent::LinkDown {
                at_slot: failure.at_slot,
                a: a.index(),
                b: b.index(),
            }
        }
        FailureKind::SwitchDeath { node } => FailureEvent::NodeDown {
            at_slot: failure.at_slot,
            node: node.index(),
        },
        FailureKind::CapacityLoss { node, qubits } => FailureEvent::Degrade {
            at_slot: failure.at_slot,
            node: node.index(),
            qubits,
        },
    }
}

/// Runs the churn battery and returns the three tables described in the
/// module docs (`churn`, `churn-repair`, `churn-sim`).
pub fn churn_tables(cfg: ChurnConfig) -> Vec<FigureTable> {
    let _span = qnet_obs::span!("exp.churn.run");
    let spec = NetworkSpec::paper_default();
    let mut steps: Vec<StepStats> = vec![StepStats::default(); cfg.failures + 1];
    let mut sim_repair_avail = 0.0;
    let mut sim_nothing_avail = 0.0;
    let mut sim_repairs = 0.0;
    let mut sim_unrepaired = [0.0f64; 2];
    let mut sim_trials = 0.0;

    for t in 0..cfg.trials {
        let seed = cfg.base_seed + t;
        let net = spec.build(seed);
        let Ok(base) = PrimBased::with_seed(seed).solve(&net) else {
            continue; // infeasible draw: nothing to churn
        };
        let plan = FailurePlan::random(&net, cfg.failures, cfg.sim_slots, seed);

        // Analytic track: rate after each cumulative failure.
        let mut state = NetworkState::new(&net);
        steps[0].do_nothing += base.rate.value();
        steps[0].repair += base.rate.value();
        steps[0].full += base.rate.value();
        steps[0].samples += 1.0;
        let mut current: Option<Solution> = Some(base.clone());
        for (k, failure) in plan.failures.iter().enumerate() {
            state.apply(&failure.kind);
            let step = &mut steps[k + 1];
            step.samples += 1.0;
            if state.admits_solution(&base) {
                step.do_nothing += base.rate.value();
            }
            let (repaired, method, searches) = match &current {
                Some(solution) => {
                    let outcome = repair(&net, solution, &state);
                    (outcome.solution.clone(), outcome.method, outcome.searches)
                }
                // Nothing left to repair incrementally: retry from scratch.
                None => {
                    let (solution, searches) = full_resolve(&net, &state);
                    let method = if solution.is_some() {
                        RepairMethod::FullResolve
                    } else {
                        RepairMethod::Unrepairable
                    };
                    (solution, method, searches)
                }
            };
            step.repair += repaired.as_ref().map_or(0.0, |s| s.rate.value());
            step.searches += searches as f64;
            step.methods[method_slot(method)] += 1.0;
            current = repaired;
            let (scratch, _) = full_resolve(&net, &state);
            step.full += scratch.map_or(0.0, |s| s.rate.value());
        }

        // Monte-Carlo track: the same schedule replayed mid-protocol.
        let events: Vec<FailureEvent> = plan
            .failures
            .iter()
            .map(|f| to_sim_event(&net, f))
            .collect();
        let physics = physics_of(&net);
        let mut sim = Simulator::new(solution_to_plan(&net, &base), physics, seed);
        let mut cb_state = NetworkState::new(&net);
        let mut cb_solution = Some(base.clone());
        let mut applied = 0usize;
        let repaired_stats = sim.run_churn(cfg.sim_slots, &events, |event, _| {
            // Catch the callback's network state up with every event the
            // simulator has injected so far, including non-breaking ones.
            while applied < events.len() {
                let due = &events[applied];
                cb_state.apply(&plan.failures[applied].kind);
                applied += 1;
                if due == event {
                    break;
                }
            }
            let fixed = match &cb_solution {
                Some(solution) => {
                    let outcome = repair(&net, solution, &cb_state);
                    outcome.solution.clone().map(|s| {
                        let rate = s.rate.value();
                        let plan = solution_to_plan(&net, &s);
                        cb_solution = Some(s);
                        PlanFix {
                            plan,
                            method: outcome.method.name(),
                            finder_runs: outcome.searches,
                            rate,
                        }
                    })
                }
                None => {
                    let (solution, searches) = full_resolve(&net, &cb_state);
                    solution.map(|s| {
                        let rate = s.rate.value();
                        let plan = solution_to_plan(&net, &s);
                        cb_solution = Some(s);
                        PlanFix {
                            plan,
                            method: RepairMethod::FullResolve.name(),
                            finder_runs: searches,
                            rate,
                        }
                    })
                }
            };
            if fixed.is_none() {
                cb_solution = None;
            }
            fixed
        });
        let mut nothing_sim = Simulator::new(solution_to_plan(&net, &base), physics, seed);
        let nothing_stats = nothing_sim.run_churn(cfg.sim_slots, &events, |_, _| None);
        sim_repair_avail += repaired_stats.availability();
        sim_nothing_avail += nothing_stats.availability();
        sim_repairs += repaired_stats.repairs as f64;
        sim_unrepaired[0] += repaired_stats.unrepaired_slots as f64 / cfg.sim_slots.max(1) as f64;
        sim_unrepaired[1] += nothing_stats.unrepaired_slots as f64 / cfg.sim_slots.max(1) as f64;
        sim_trials += 1.0;
    }

    let mean = |sum: f64, n: f64| if n > 0.0 { sum / n } else { 0.0 };
    let rate_rows: Vec<(String, Vec<f64>)> = steps
        .iter()
        .enumerate()
        .map(|(k, s)| {
            (
                k.to_string(),
                vec![
                    mean(s.do_nothing, s.samples),
                    mean(s.repair, s.samples),
                    mean(s.full, s.samples),
                ],
            )
        })
        .collect();
    let repair_rows: Vec<(String, Vec<f64>)> = steps
        .iter()
        .enumerate()
        .skip(1)
        .map(|(k, s)| {
            let mut row = vec![mean(s.searches, s.samples)];
            row.extend(s.methods.iter().map(|&c| mean(c, s.samples)));
            (k.to_string(), row)
        })
        .collect();
    let sim_rows = vec![
        (
            "availability".to_string(),
            vec![
                mean(sim_repair_avail, sim_trials),
                mean(sim_nothing_avail, sim_trials),
            ],
        ),
        (
            "unrepaired-frac".to_string(),
            vec![
                mean(sim_unrepaired[0], sim_trials),
                mean(sim_unrepaired[1], sim_trials),
            ],
        ),
        (
            "repairs".to_string(),
            vec![mean(sim_repairs, sim_trials), 0.0],
        ),
    ];

    vec![
        FigureTable {
            id: "churn",
            title: format!(
                "Rate retained after cumulative failures ({} trials)",
                cfg.trials
            ),
            x_label: "failures",
            algos: vec!["Do-Nothing", "Repair", "Full-Resolve"],
            rows: rate_rows,
        },
        FigureTable {
            id: "churn-repair",
            title: "Repair ladder telemetry per failure".into(),
            x_label: "failure",
            algos: vec![
                "searches",
                "untouched",
                "local-reroute",
                "reattach",
                "full-resolve",
                "unrepairable",
            ],
            rows: repair_rows,
        },
        FigureTable {
            id: "churn-sim",
            title: format!(
                "Mid-protocol churn replay over {} slots (Monte-Carlo)",
                cfg.sim_slots
            ),
            x_label: "metric",
            algos: vec!["Repair", "Do-Nothing"],
            rows: sim_rows,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ChurnConfig {
        ChurnConfig {
            trials: 3,
            failures: 3,
            base_seed: 1,
            sim_slots: 60,
        }
    }

    #[test]
    fn churn_tables_have_the_documented_shape() {
        let tables = churn_tables(small());
        assert_eq!(tables.len(), 3);
        let churn = &tables[0];
        assert_eq!(churn.id, "churn");
        assert_eq!(churn.rows.len(), 4, "row 0 (intact) + one per failure");
        assert_eq!(churn.algos, vec!["Do-Nothing", "Repair", "Full-Resolve"]);
        let telemetry = &tables[1];
        assert_eq!(telemetry.rows.len(), 3);
        assert_eq!(telemetry.algos.len(), 6);
        let sim = &tables[2];
        assert_eq!(sim.rows.len(), 3);
    }

    #[test]
    fn repair_dominates_do_nothing_on_every_row() {
        let tables = churn_tables(small());
        for (x, rates) in &tables[0].rows {
            let (nothing, repaired) = (rates[0], rates[1]);
            assert!(
                repaired >= nothing - 1e-12,
                "row {x}: repair {repaired} below do-nothing {nothing}"
            );
        }
        // Method shares on each telemetry row sum to one repair attempt.
        for (x, row) in &tables[1].rows {
            let share: f64 = row[1..].iter().sum();
            assert!((share - 1.0).abs() < 1e-9, "row {x}: shares sum to {share}");
        }
    }

    #[test]
    fn churn_tables_are_bitwise_deterministic() {
        let a = churn_tables(small());
        let b = churn_tables(small());
        assert_eq!(a, b);
    }
}
