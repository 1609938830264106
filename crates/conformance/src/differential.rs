//! Differential oracle: every algorithm against the brute force and
//! against each other.
//!
//! Three families of checks, all on top of the independent
//! [`muerp_core::audit::SolutionAudit`]:
//!
//! 1. **Audit-clean** — every solution any suite algorithm returns must
//!    pass the independent invariant audit (against the network it was
//!    actually solved on: Algorithm 2 runs on the capacity-granted copy,
//!    per the paper's Fig. 8(a) protocol).
//! 2. **Oracle bound** — on small instances (`|U| ≤ 6`), the exhaustive
//!    [`muerp_core::feasibility::exhaustive_optimal`] with a complete
//!    path horizon (`max_links = n − 1`) upper-bounds every BSM-tree
//!    heuristic running on the real capacities; conversely, if the
//!    complete oracle proves the instance infeasible, no heuristic may
//!    produce a solution.
//! 3. **Dominance** — relations that hold by construction on *any*
//!    instance: capacity-granted Alg-2 dominates every real-capacity
//!    tree (a tree demands at most `2·(|U|−1) < 2·|U|` qubits per
//!    switch, so it stays feasible under the grant, where Alg-2 is
//!    optimal); local-search refinement never worsens its base; the
//!    best-of-all-seeds Prim dominates any single seed. Plus exact
//!    determinism: solving twice yields bit-identical rates.

use muerp_core::algorithms::{BeamSearch, Refined, SeedChoice};
use muerp_core::audit::{audit_solution, AuditViolation, RATE_TOLERANCE};
use muerp_core::feasibility::exhaustive_optimal;
use muerp_core::prelude::*;

/// Outcome of one algorithm on one instance, in the negative-log domain
/// (`cost = −ln rate`; `+∞` means infeasible / no solution).
#[derive(Clone, Debug, PartialEq)]
pub struct SuiteRun {
    /// Display name of the algorithm.
    pub algo: &'static str,
    /// Negative-log rate of the returned solution (`+∞` if none).
    pub cost: f64,
    /// `true` when the run is a BSM tree on the *real* capacities and
    /// therefore bounded by the exhaustive tree oracle.
    pub oracle_comparable: bool,
}

impl SuiteRun {
    /// `true` when the algorithm found a solution.
    pub fn feasible(&self) -> bool {
        self.cost.is_finite()
    }
}

/// A conformance violation found by the differential oracle.
#[derive(Clone, Debug, PartialEq)]
pub enum ConformanceError {
    /// An algorithm emitted a solution the independent audit rejects.
    Audit {
        /// Offending algorithm.
        algo: &'static str,
        /// The violated invariant.
        violation: AuditViolation,
    },
    /// A heuristic claimed a better rate than the exhaustive optimum.
    OracleExceeded {
        /// Offending algorithm.
        algo: &'static str,
        /// Heuristic's negative-log rate.
        heuristic_cost: f64,
        /// Exhaustive optimum's negative-log rate.
        optimal_cost: f64,
    },
    /// A heuristic found a tree on an instance the complete exhaustive
    /// search proved infeasible.
    FeasibleDespiteOracle {
        /// Offending algorithm.
        algo: &'static str,
    },
    /// A dominance relation that holds by construction was violated.
    DominanceBroken {
        /// The algorithm that must be at least as good.
        stronger: &'static str,
        /// The algorithm it must dominate.
        weaker: &'static str,
        /// Negative-log rate of `stronger`.
        stronger_cost: f64,
        /// Negative-log rate of `weaker`.
        weaker_cost: f64,
    },
    /// Generate/solve/audit panicked (captured by the fuzz driver so
    /// the failing seed is never lost).
    Panicked {
        /// The panic message.
        message: String,
    },
    /// The survivability repair ladder produced an unsound result: a
    /// repaired solution the degraded network cannot carry, a rate
    /// outside the do-nothing/oracle envelope, or a non-deterministic
    /// repair.
    RepairUnsound {
        /// Human-readable description of the violated property.
        detail: String,
    },
    /// The delta-aware channel-finder cache served a run that differs
    /// from a cold, cache-free recomputation after a capacity delta.
    DeltaDiverged {
        /// 0-based index of the delta op after which the cache diverged.
        step: usize,
        /// Index of the source user whose cached run differed.
        source: usize,
        /// Length of the (shrunk) failing delta sequence.
        ops: usize,
        /// `true` when a scoped lookup's channel to one of its targets
        /// differed, `false` when a whole cached run did.
        scoped: bool,
    },
    /// The batched admission engine's decision log diverged from the
    /// sequential cold-routing FCFS oracle on the same request script.
    ServeDiverged {
        /// 0-based index of the first diverging decision.
        step: usize,
        /// Length of the (shrunk) failing request script.
        requests: usize,
    },
    /// The batched admission engine admitted a solution the independent
    /// group-tree audit rejects.
    ServeUnsound {
        /// Human-readable description of the violated property.
        detail: String,
    },
    /// Two identically configured runs disagreed.
    NonDeterministic {
        /// Offending algorithm.
        algo: &'static str,
        /// Negative-log rate of the first run.
        first_cost: f64,
        /// Negative-log rate of the second run.
        second_cost: f64,
    },
}

impl std::fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConformanceError::Audit { algo, violation } => {
                write!(f, "{algo}: audit violation {violation}")
            }
            ConformanceError::OracleExceeded {
                algo,
                heuristic_cost,
                optimal_cost,
            } => write!(
                f,
                "{algo}: heuristic cost {heuristic_cost} beats the exhaustive \
                 optimum {optimal_cost} (lower cost = higher rate)"
            ),
            ConformanceError::FeasibleDespiteOracle { algo } => write!(
                f,
                "{algo}: found a tree on an instance the complete exhaustive \
                 search proved infeasible"
            ),
            ConformanceError::DominanceBroken {
                stronger,
                weaker,
                stronger_cost,
                weaker_cost,
            } => write!(
                f,
                "{weaker} (cost {weaker_cost}) beat {stronger} (cost \
                 {stronger_cost}), which dominates it by construction"
            ),
            ConformanceError::Panicked { message } => write!(f, "panicked: {message}"),
            ConformanceError::RepairUnsound { detail } => {
                write!(f, "repair: unsound result: {detail}")
            }
            ConformanceError::DeltaDiverged {
                step,
                source,
                ops,
                scoped,
            } => write!(
                f,
                "delta cache: {} for source #{source} diverged from cold \
                 recomputation after op #{step} of a {ops}-op delta sequence",
                if *scoped {
                    "a scoped answer"
                } else {
                    "cached run"
                }
            ),
            ConformanceError::ServeDiverged { step, requests } => write!(
                f,
                "serve: batched decision #{step} diverged from the sequential \
                 FCFS oracle on a {requests}-request script"
            ),
            ConformanceError::ServeUnsound { detail } => {
                write!(f, "serve: unsound admission: {detail}")
            }
            ConformanceError::NonDeterministic {
                algo,
                first_cost,
                second_cost,
            } => write!(
                f,
                "{algo}: two identical runs returned costs {first_cost} vs \
                 {second_cost}"
            ),
        }
    }
}

impl std::error::Error for ConformanceError {}

/// Everything [`differential_check`] measured on one instance.
#[derive(Clone, Debug)]
pub struct DifferentialReport {
    /// Per-algorithm outcomes, audit-clean.
    pub runs: Vec<SuiteRun>,
    /// Negative-log rate of the exhaustive optimum, when the instance
    /// was small enough to brute-force (`None` otherwise; `+∞` when the
    /// oracle proved the instance infeasible).
    pub optimal_cost: Option<f64>,
}

impl DifferentialReport {
    /// The outcome of a named algorithm, if it ran.
    pub fn run(&self, algo: &str) -> Option<&SuiteRun> {
        self.runs.iter().find(|r| r.algo == algo)
    }
}

/// Cost-domain slack mirroring the audit's relative rate tolerance.
fn tol(cost: f64) -> f64 {
    RATE_TOLERANCE * cost.abs().max(1.0)
}

/// Solves with `algo`, audits the result, and returns the negative-log
/// rate (`+∞` when the algorithm reports infeasibility).
pub(crate) fn audited_cost<A: RoutingAlgorithm>(
    net: &QuantumNetwork,
    algo: &A,
    name: &'static str,
) -> Result<f64, ConformanceError> {
    match algo.solve(net) {
        Ok(solution) => {
            audit_solution(net, &solution).map_err(|violation| ConformanceError::Audit {
                algo: name,
                violation,
            })?;
            Ok(solution.rate.neg_log().cost())
        }
        Err(_) => Ok(f64::INFINITY),
    }
}

/// Runs the five-algorithm suite plus the extension solvers on `net`,
/// auditing every returned solution with the independent validator.
///
/// `trial_seed` seeds the randomized Prim variant exactly like the
/// experiment harness does, so a failure here reproduces there.
///
/// # Errors
///
/// Returns the first [`ConformanceError::Audit`] found.
pub fn run_suite(net: &QuantumNetwork, trial_seed: u64) -> Result<Vec<SuiteRun>, ConformanceError> {
    let granted = net.with_uniform_switch_qubits(2 * net.user_count() as u32);
    let mut runs = Vec::new();
    let mut push = |algo, cost, oracle_comparable| {
        runs.push(SuiteRun {
            algo,
            cost,
            oracle_comparable,
        });
    };
    push(
        "Alg-2",
        audited_cost(&granted, &OptimalSufficient, "Alg-2")?,
        false,
    );
    push(
        "Alg-3",
        audited_cost(net, &ConflictFree::default(), "Alg-3")?,
        true,
    );
    push(
        "Alg-4",
        audited_cost(net, &PrimBased::with_seed(trial_seed), "Alg-4")?,
        true,
    );
    push(
        "Alg-4/best",
        audited_cost(
            net,
            &PrimBased {
                seed: SeedChoice::BestOfAll,
            },
            "Alg-4/best",
        )?,
        true,
    );
    push(
        "Beam",
        audited_cost(net, &BeamSearch::default(), "Beam")?,
        true,
    );
    push(
        "Refined",
        audited_cost(
            net,
            &Refined {
                inner: PrimBased::with_seed(trial_seed),
                options: Default::default(),
            },
            "Refined",
        )?,
        true,
    );
    push(
        "N-Fusion",
        audited_cost(net, &NFusion::default(), "N-Fusion")?,
        false,
    );
    push("E-Q-CAST", audited_cost(net, &EQCast, "E-Q-CAST")?, true);
    Ok(runs)
}

/// Largest instance the exhaustive oracle is asked to brute-force.
const ORACLE_MAX_USERS: usize = 6;
const ORACLE_MAX_NODES: usize = 10;

/// Full differential check of one instance: audits the whole suite,
/// compares against the exhaustive optimum when the instance is small
/// enough, enforces the by-construction dominance relations, and
/// re-runs the suite to confirm exact determinism.
///
/// # Errors
///
/// Returns the first [`ConformanceError`] found.
pub fn differential_check(
    net: &QuantumNetwork,
    trial_seed: u64,
) -> Result<DifferentialReport, ConformanceError> {
    let runs = run_suite(net, trial_seed)?;

    // Oracle bound on brute-forceable instances. `max_links = n − 1`
    // covers every simple path, so the oracle is *complete*: `None`
    // really means infeasible.
    let n = net.graph().node_count();
    let optimal_cost = if net.user_count() <= ORACLE_MAX_USERS && n <= ORACLE_MAX_NODES {
        match exhaustive_optimal(net, n.saturating_sub(1)) {
            Some(tree) => {
                let solution = Solution::from_tree(tree);
                audit_solution(net, &solution).map_err(|violation| ConformanceError::Audit {
                    algo: "exhaustive-optimal",
                    violation,
                })?;
                let optimal = solution.rate.neg_log().cost();
                for run in runs.iter().filter(|r| r.oracle_comparable) {
                    if run.cost < optimal - tol(optimal) {
                        return Err(ConformanceError::OracleExceeded {
                            algo: run.algo,
                            heuristic_cost: run.cost,
                            optimal_cost: optimal,
                        });
                    }
                }
                Some(optimal)
            }
            None => {
                for run in runs.iter().filter(|r| r.oracle_comparable) {
                    if run.feasible() {
                        return Err(ConformanceError::FeasibleDespiteOracle { algo: run.algo });
                    }
                }
                Some(f64::INFINITY)
            }
        }
    } else {
        None
    };

    // Dominance relations that hold on instances of any size.
    let cost_of = |name: &str| runs.iter().find(|r| r.algo == name).map(|r| r.cost);
    let dominates = |stronger: &'static str, weaker: &'static str| {
        if let (Some(s), Some(w)) = (cost_of(stronger), cost_of(weaker)) {
            // stronger rate ≥ weaker rate ⇔ stronger cost ≤ weaker cost.
            if s > w + tol(w) {
                return Err(ConformanceError::DominanceBroken {
                    stronger,
                    weaker,
                    stronger_cost: s,
                    weaker_cost: w,
                });
            }
        }
        Ok(())
    };
    for weaker in [
        "Alg-3",
        "Alg-4",
        "Alg-4/best",
        "Beam",
        "Refined",
        "E-Q-CAST",
    ] {
        dominates("Alg-2", weaker)?;
    }
    dominates("Refined", "Alg-4")?;
    dominates("Alg-4/best", "Alg-4")?;

    // Exact determinism: an identically configured second pass must
    // reproduce every rate bit for bit.
    let second = run_suite(net, trial_seed)?;
    for (a, b) in runs.iter().zip(&second) {
        let same = (a.cost == b.cost) || (a.cost.is_infinite() && b.cost.is_infinite());
        if !same {
            return Err(ConformanceError::NonDeterministic {
                algo: a.algo,
                first_cost: a.cost,
                second_cost: b.cost,
            });
        }
    }

    Ok(DifferentialReport { runs, optimal_cost })
}

#[cfg(test)]
mod tests {
    use super::*;
    use muerp_core::model::{NetworkSpec, NodeKind, PhysicsParams};
    use qnet_graph::Graph;

    /// 3 users around a 6-qubit hub plus longer detour switches: small
    /// enough for the oracle, rich enough that heuristics must choose.
    fn small_net(hub_qubits: u32) -> QuantumNetwork {
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let u: Vec<_> = (0..3).map(|_| g.add_node(NodeKind::User)).collect();
        let hub = g.add_node(NodeKind::Switch { qubits: hub_qubits });
        let d01 = g.add_node(NodeKind::Switch { qubits: 2 });
        let d12 = g.add_node(NodeKind::Switch { qubits: 2 });
        for &x in &u {
            g.add_edge(x, hub, 600.0);
        }
        g.add_edge(u[0], d01, 900.0);
        g.add_edge(d01, u[1], 900.0);
        g.add_edge(u[1], d12, 900.0);
        g.add_edge(d12, u[2], 900.0);
        QuantumNetwork::from_graph(g, PhysicsParams::paper_default())
    }

    #[test]
    fn suite_is_audit_clean_on_paper_default() {
        let net = NetworkSpec::paper_default().build(3);
        let runs = run_suite(&net, 3).expect("audit-clean");
        assert_eq!(runs.len(), 8);
        assert!(runs.iter().any(|r| r.feasible()));
    }

    #[test]
    fn differential_check_passes_on_small_instances() {
        for hub_qubits in [2, 4, 6] {
            let net = small_net(hub_qubits);
            let report = differential_check(&net, 1).expect("conformant");
            let optimal = report.optimal_cost.expect("oracle ran");
            assert!(optimal.is_finite(), "instance is feasible");
            // The bound is also achieved by at least one heuristic here.
            let best = report
                .runs
                .iter()
                .filter(|r| r.oracle_comparable)
                .map(|r| r.cost)
                .fold(f64::INFINITY, f64::min);
            assert!(best >= optimal - 1e-9, "no heuristic beats the oracle");
        }
    }

    #[test]
    fn differential_check_passes_on_paper_default_family() {
        // Too big for the oracle: dominance + determinism still run.
        let net = NetworkSpec::paper_default().build(7);
        let report = differential_check(&net, 7).expect("conformant");
        assert!(report.optimal_cost.is_none());
    }

    #[test]
    fn infeasible_instances_are_agreed_infeasible() {
        // Two users, one 0-qubit switch between them: nobody can route.
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let a = g.add_node(NodeKind::User);
        let s = g.add_node(NodeKind::Switch { qubits: 0 });
        let b = g.add_node(NodeKind::User);
        g.add_edge(a, s, 500.0);
        g.add_edge(s, b, 500.0);
        let net = QuantumNetwork::from_graph(g, PhysicsParams::paper_default());
        let report = differential_check(&net, 0).expect("conformant");
        assert_eq!(report.optimal_cost, Some(f64::INFINITY));
        for run in report.runs.iter().filter(|r| r.oracle_comparable) {
            assert!(!run.feasible(), "{} found a tree", run.algo);
        }
    }

    #[test]
    fn error_display_names_the_algorithm() {
        let e = ConformanceError::OracleExceeded {
            algo: "Alg-4",
            heuristic_cost: 0.5,
            optimal_cost: 1.0,
        };
        let msg = e.to_string();
        assert!(msg.contains("Alg-4"), "{msg}");
        assert!(msg.contains("exhaustive optimum"), "{msg}");
    }
}
