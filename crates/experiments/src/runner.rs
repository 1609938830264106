//! Seeded, parallel multi-trial execution.
//!
//! Every figure cell is an average over `trials` random networks
//! (paper §V-A: 20). Trials are deterministic — trial `t` uses seed
//! `base_seed + t` for both network generation and Algorithm 4's random
//! seed user. [`trials`] is the one fan-out: it runs them across scoped
//! threads and hands the results back in trial order, and every caller
//! folds them in that order on its own thread, so each table is bitwise
//! the same at any core count.

use std::sync::atomic::{AtomicUsize, Ordering};

use muerp_core::model::QuantumNetwork;

use crate::suite::AlgoKind;

/// Trial configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrialConfig {
    /// Number of random networks averaged per cell (paper: 20).
    pub trials: u64,
    /// Base RNG seed; trial `t` uses `base_seed + t`.
    pub base_seed: u64,
}

impl Default for TrialConfig {
    fn default() -> Self {
        TrialConfig {
            trials: 20,
            base_seed: 0,
        }
    }
}

/// Runs `f(base_seed + t)` for every trial `t` of `cfg` and returns the
/// results in trial order, one worker per available core (4 when the
/// count is unknown), never more workers than trials.
///
/// `f` must be a pure function of the seed.
pub fn trials<T, F>(cfg: TrialConfig, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    trials_on(workers, cfg, f)
}

/// [`trials`] on exactly `workers` threads (capped at the trial count).
/// Workers claim trial indices from one counter and return their
/// `(trial, result)` pairs through their join handles; a panic in `f`
/// resumes on the caller.
pub(crate) fn trials_on<T, F>(workers: usize, cfg: TrialConfig, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let n = cfg.trials as usize;
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let t = next.fetch_add(1, Ordering::Relaxed);
            if t >= n {
                return done;
            }
            qnet_obs::counter!("exp.runner.trials");
            done.push((t, f(cfg.base_seed + t as u64)));
        }
    };
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(n)).map(|_| scope.spawn(work)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(t, _)| t);
    done.into_iter().map(|(_, result)| result).collect()
}

/// One row per trial: every algorithm's rate on that trial's network.
fn rate_rows<F>(build: F, algos: &[AlgoKind], cfg: TrialConfig) -> Vec<Vec<f64>>
where
    F: Fn(u64) -> QuantumNetwork + Sync,
{
    trials(cfg, |seed| {
        let net = build(seed);
        algos.iter().map(|a| a.rate_on(&net, seed)).collect()
    })
}

/// Runs every algorithm over `trials` networks produced by `build` and
/// returns the mean entanglement rate per algorithm, in `algos` order.
///
/// `build(seed)` must be a pure function of the seed.
pub fn mean_rates<F>(build: F, algos: &[AlgoKind], cfg: TrialConfig) -> Vec<f64>
where
    F: Fn(u64) -> QuantumNetwork + Sync,
{
    let _span = qnet_obs::span!("exp.runner.mean_rates");
    let mut totals = vec![0.0f64; algos.len()];
    for rates in rate_rows(build, algos, cfg) {
        for (acc, r) in totals.iter_mut().zip(rates) {
            *acc += r;
        }
    }
    totals
        .into_iter()
        .map(|sum| sum / cfg.trials as f64)
        .collect()
}

/// Like [`mean_rates`], but returns the full per-trial rate matrix
/// (`result[t][a]` = algorithm `a`'s rate on trial `t`), for variance and
/// convergence analyses.
pub fn per_trial_rates<F>(build: F, algos: &[AlgoKind], cfg: TrialConfig) -> Vec<Vec<f64>>
where
    F: Fn(u64) -> QuantumNetwork + Sync,
{
    let _span = qnet_obs::span!("exp.runner.per_trial_rates");
    rate_rows(build, algos, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use muerp_core::model::NetworkSpec;

    fn quick_cfg() -> TrialConfig {
        TrialConfig {
            trials: 4,
            base_seed: 100,
        }
    }

    #[test]
    fn trials_come_back_in_trial_order_at_any_width() {
        use std::sync::atomic::AtomicBool;
        let cfg = TrialConfig {
            trials: 12,
            base_seed: 40,
        };
        let value = |seed: u64| seed * seed + 1;
        let expected: Vec<u64> = (0..cfg.trials).map(|t| value(cfg.base_seed + t)).collect();
        for workers in [1, 2, 4] {
            // With two or more workers every even trial waits for the odd
            // trial after it, so trials finish out of trial order.
            let done: Vec<AtomicBool> = (0..cfg.trials).map(|_| AtomicBool::new(false)).collect();
            let finished = AtomicUsize::new(0);
            let results = trials_on(workers, cfg, |seed| {
                let t = (seed - cfg.base_seed) as usize;
                if workers > 1 && t.is_multiple_of(2) {
                    while !done[t + 1].load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                }
                done[t].store(true, Ordering::SeqCst);
                (value(seed), finished.fetch_add(1, Ordering::SeqCst))
            });
            let values: Vec<u64> = results.iter().map(|r| r.0).collect();
            assert_eq!(values, expected, "{workers} worker(s)");
            let order: Vec<usize> = results.iter().map(|r| r.1).collect();
            assert_eq!(
                order.windows(2).all(|w| w[0] < w[1]),
                workers == 1,
                "{workers} worker(s) finished in order {order:?}"
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let spec = NetworkSpec::paper_default();
        let algos = [AlgoKind::Alg3, AlgoKind::Alg4];
        let a = mean_rates(|s| spec.build(s), &algos, quick_cfg());
        let b = mean_rates(|s| spec.build(s), &algos, quick_cfg());
        assert_eq!(a, b, "parallel execution must not change results");
    }

    #[test]
    fn means_are_probabilities() {
        let spec = NetworkSpec::paper_default();
        let rates = mean_rates(|s| spec.build(s), &AlgoKind::ALL, quick_cfg());
        assert_eq!(rates.len(), 5);
        for (a, r) in AlgoKind::ALL.iter().zip(&rates) {
            assert!((0.0..=1.0).contains(r), "{}: {r}", a.name());
        }
    }

    #[test]
    fn single_trial_matches_direct_call() {
        let spec = NetworkSpec::paper_default();
        let cfg = TrialConfig {
            trials: 1,
            base_seed: 42,
        };
        let means = mean_rates(|s| spec.build(s), &[AlgoKind::Alg3], cfg);
        let net = spec.build(42);
        let direct = AlgoKind::Alg3.rate_on(&net, 42);
        assert!((means[0] - direct).abs() < 1e-15);
    }
}
