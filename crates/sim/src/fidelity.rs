//! Werner-state fidelity tracking through swap chains.
//!
//! Complements the rate simulation: given per-link Werner fidelity `F`,
//! the fidelity after a chain of BSM swaps is computed both iteratively
//! (the way the engine merges pairs) and in closed form via the
//! depolarizing parameter `w = (4F − 1)/3`, which simply *multiplies*
//! under swapping — the identity `muerp-core`'s fidelity-aware extension
//! relies on.

/// Fidelity of the pair obtained by swapping two Werner pairs.
pub fn swap_fidelity(f1: f64, f2: f64) -> f64 {
    f1 * f2 + (1.0 - f1) * (1.0 - f2) / 3.0
}

/// Werner fidelity → depolarizing parameter `w = (4F − 1)/3`.
pub fn to_w(f: f64) -> f64 {
    (4.0 * f - 1.0) / 3.0
}

/// Depolarizing parameter → Werner fidelity `F = (1 + 3w)/4`.
pub fn from_w(w: f64) -> f64 {
    (1.0 + 3.0 * w) / 4.0
}

/// Closed-form end-to-end fidelity of a channel of `links` uniform
/// Werner links: `F_out = (1 + 3·w^links)/4`.
///
/// # Panics
///
/// Panics when `links == 0`.
pub fn chain_fidelity(link_fidelity: f64, links: usize) -> f64 {
    assert!(links > 0, "a channel has at least one link");
    from_w(to_w(link_fidelity).powi(links as i32))
}

/// Outcome of one BBPSSW purification round on two equal-fidelity
/// Werner pairs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PurificationStep {
    /// Fidelity of the surviving pair given success.
    pub fidelity: f64,
    /// Probability the round succeeds (both pairs are consumed either
    /// way; on failure nothing survives).
    pub success_prob: f64,
}

/// One round of BBPSSW entanglement purification on two Werner pairs of
/// fidelity `f` (Bennett et al. 1996) — the mechanism behind the
/// fidelity-aware routing literature the paper cites (\[18\], \[19\]).
///
/// For `f > 1/2` the surviving pair is strictly better; `f = 1/2` is the
/// fixed point; below it purification degrades.
///
/// # Panics
///
/// Panics when `f ∉ [0, 1]`.
pub fn purify(f: f64) -> PurificationStep {
    assert!(
        (0.0..=1.0).contains(&f),
        "fidelity must be in [0, 1], got {f}"
    );
    let bad = (1.0 - f) / 3.0;
    let success_prob = (f + bad) * (f + bad) + (2.0 * bad) * (2.0 * bad);
    let fidelity = (f * f + bad * bad) / success_prob;
    PurificationStep {
        fidelity,
        success_prob,
    }
}

/// Number of BBPSSW rounds (each consuming the output of the previous
/// round, i.e. `2^rounds` raw pairs) needed to lift fidelity `f_in` to at
/// least `f_target`, or `None` when unreachable (`f_in ≤ 1/2` or
/// `f_target` above the purification limit within 64 rounds).
pub fn rounds_to_reach(f_in: f64, f_target: f64) -> Option<u32> {
    if f_in >= f_target {
        return Some(0);
    }
    if f_in <= 0.5 {
        return None;
    }
    let mut f = f_in;
    for round in 1..=64u32 {
        f = purify(f).fidelity;
        if f >= f_target {
            return Some(round);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn purification_improves_above_half() {
        for &f in &[0.6, 0.75, 0.9, 0.99] {
            let step = purify(f);
            assert!(step.fidelity > f, "purify({f}) = {:?}", step.fidelity);
            assert!((0.0..=1.0).contains(&step.success_prob));
        }
    }

    #[test]
    fn half_is_a_fixed_point_and_below_degrades() {
        let at_half = purify(0.5);
        assert!((at_half.fidelity - 0.5).abs() < 1e-12);
        let below = purify(0.4);
        assert!(below.fidelity < 0.4);
    }

    #[test]
    fn perfect_pairs_stay_perfect() {
        let step = purify(1.0);
        assert!((step.fidelity - 1.0).abs() < 1e-12);
        assert!((step.success_prob - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rounds_to_reach_behaviour() {
        assert_eq!(rounds_to_reach(0.95, 0.9), Some(0));
        let r = rounds_to_reach(0.7, 0.9).expect("reachable");
        assert!(r >= 1);
        // Verify by replay.
        let mut f = 0.7;
        for _ in 0..r {
            f = purify(f).fidelity;
        }
        assert!(f >= 0.9);
        assert_eq!(rounds_to_reach(0.5, 0.9), None);
        assert_eq!(rounds_to_reach(0.45, 0.6), None);
    }

    #[test]
    fn purification_recovers_swap_losses() {
        // A 4-link channel at link fidelity 0.95 drops below 0.85; two
        // purification rounds lift it back above.
        let delivered = chain_fidelity(0.95, 4);
        assert!(delivered < 0.85);
        let rounds = rounds_to_reach(delivered, 0.9).expect("recoverable");
        assert!(rounds <= 3, "needed {rounds} rounds");
    }

    #[test]
    fn w_roundtrip() {
        for &f in &[1.0, 0.9, 0.5, 0.25] {
            assert!((from_w(to_w(f)) - f).abs() < 1e-12);
        }
    }

    #[test]
    fn closed_form_matches_iterative_fold() {
        let link = 0.95;
        for links in 1..12 {
            let mut f = link;
            for _ in 1..links {
                f = swap_fidelity(f, link);
            }
            let closed = chain_fidelity(link, links);
            assert!(
                (f - closed).abs() < 1e-12,
                "links {links}: fold {f} vs closed {closed}"
            );
        }
    }

    #[test]
    fn swap_order_does_not_matter() {
        // Associativity through the w-domain: ((a∘b)∘c) == (a∘(b∘c)).
        let (a, b, c) = (0.97, 0.91, 0.88);
        let left = swap_fidelity(swap_fidelity(a, b), c);
        let right = swap_fidelity(a, swap_fidelity(b, c));
        assert!((left - right).abs() < 1e-12);
    }

    #[test]
    fn fidelity_decays_towards_one_quarter() {
        let f = chain_fidelity(0.9, 50);
        assert!(f > 0.25 && f < 0.3, "long chains decohere toward 1/4: {f}");
    }

    #[test]
    fn perfect_links_never_decay() {
        assert_eq!(chain_fidelity(1.0, 10), 1.0);
    }
}
