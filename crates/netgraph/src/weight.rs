//! The product→sum weight transform behind the paper's Algorithm 1.
//!
//! The MUERP objective (Eq. 1/2 of the paper) is a *product* of per-link
//! success probabilities and per-switch swapping rates, so classic additive
//! shortest-path machinery does not apply directly. The paper's fix (§IV-A)
//! is the standard logarithmic transform: each factor `t ∈ [0, 1]` becomes
//! the additive cost `−ln t ∈ [0, +∞]`, after which maximizing a product is
//! exactly minimizing a sum. [`NegLog`] packages that transform as a
//! newtype so the two domains cannot be mixed up.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign};

/// An additive cost equal to `−ln` of a success probability.
///
/// `NegLog(0.0)` corresponds to probability `1` (a free hop);
/// `NegLog(+∞)` corresponds to probability `0` (an unusable hop).
/// Values are always non-negative; NaN is rejected at construction.
///
/// # Example
///
/// ```
/// use qnet_graph::NegLog;
///
/// let hop = NegLog::from_prob(0.5);
/// let path = hop + hop;
/// assert!((path.prob() - 0.25).abs() < 1e-12);
/// assert!(NegLog::from_prob(0.9) < NegLog::from_prob(0.5)); // higher prob = lower cost
/// ```
#[derive(Clone, Copy, PartialEq, PartialOrd)]
pub struct NegLog(f64);

impl NegLog {
    /// The zero cost: probability exactly 1.
    pub const ZERO: NegLog = NegLog(0.0);

    /// The infinite cost: probability exactly 0 (unreachable).
    pub const INFINITY: NegLog = NegLog(f64::INFINITY);

    /// Converts a success probability `p ∈ [0, 1]` into its additive cost.
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN, negative, or greater than 1.
    pub fn from_prob(p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "probability must be in [0, 1], got {p}"
        );
        if p == 0.0 {
            NegLog::INFINITY
        } else {
            NegLog(-p.ln())
        }
    }

    /// Wraps a raw non-negative cost value (already in the `−ln` domain).
    ///
    /// # Panics
    ///
    /// Panics if `cost` is NaN or negative.
    pub fn from_cost(cost: f64) -> Self {
        assert!(
            cost >= 0.0 && !cost.is_nan(),
            "cost must be non-negative and not NaN, got {cost}"
        );
        NegLog(cost)
    }

    /// The raw additive cost.
    #[inline]
    pub fn cost(self) -> f64 {
        self.0
    }

    /// Converts back to a probability: `exp(−cost)`.
    #[inline]
    pub fn prob(self) -> f64 {
        (-self.0).exp()
    }

    /// `true` when the cost is infinite (probability 0).
    #[inline]
    pub fn is_infinite(self) -> bool {
        self.0.is_infinite()
    }

    /// Saturating subtraction in the cost domain (used when factoring a
    /// `−ln q` term out of a channel weight, as the paper does when it
    /// reassembles `RATE = exp(ln q − Dist)`).
    pub fn saturating_sub(self, rhs: NegLog) -> NegLog {
        if self.0.is_infinite() {
            return NegLog::INFINITY;
        }
        NegLog((self.0 - rhs.0).max(0.0))
    }
}

impl Eq for NegLog {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for NegLog {
    fn cmp(&self, other: &Self) -> Ordering {
        // Construction forbids NaN, so partial_cmp always succeeds.
        self.0
            .partial_cmp(&other.0)
            .expect("NegLog is never NaN by construction")
    }
}

impl Add for NegLog {
    type Output = NegLog;
    fn add(self, rhs: NegLog) -> NegLog {
        NegLog(self.0 + rhs.0)
    }
}

impl AddAssign for NegLog {
    fn add_assign(&mut self, rhs: NegLog) {
        self.0 += rhs.0;
    }
}

impl Default for NegLog {
    fn default() -> Self {
        NegLog::ZERO
    }
}

impl fmt::Debug for NegLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NegLog({:.6} ~ p={:.6})", self.0, self.prob())
    }
}

impl fmt::Display for NegLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_prob() {
        for &p in &[1.0, 0.9, 0.5, 0.123, 1e-9] {
            let c = NegLog::from_prob(p);
            assert!((c.prob() - p).abs() < 1e-12, "p={p}");
        }
    }

    #[test]
    fn zero_prob_is_infinite_cost() {
        let c = NegLog::from_prob(0.0);
        assert!(c.is_infinite());
        assert_eq!(c.prob(), 0.0);
    }

    #[test]
    fn adding_costs_multiplies_probs() {
        let a = NegLog::from_prob(0.8);
        let b = NegLog::from_prob(0.25);
        assert!(((a + b).prob() - 0.2).abs() < 1e-12);
        let mut acc = NegLog::ZERO;
        acc += a;
        acc += b;
        assert!((acc.prob() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn ordering_reverses_probability() {
        assert!(NegLog::from_prob(0.9) < NegLog::from_prob(0.8));
        assert!(NegLog::from_prob(0.0) > NegLog::from_prob(1e-300));
        assert_eq!(NegLog::ZERO.min(NegLog::INFINITY), NegLog::ZERO);
    }

    #[test]
    fn saturating_sub_clamps_at_zero() {
        let small = NegLog::from_prob(0.9);
        let big = NegLog::from_prob(0.1);
        assert_eq!(small.saturating_sub(big), NegLog::ZERO);
        let diff = big.saturating_sub(small);
        assert!((diff.prob() - (0.1f64 / 0.9)).abs() < 1e-12);
        assert!(NegLog::INFINITY.saturating_sub(big).is_infinite());
    }

    #[test]
    #[should_panic(expected = "probability must be in")]
    fn rejects_out_of_range_prob() {
        NegLog::from_prob(1.5);
    }

    #[test]
    #[should_panic(expected = "cost must be non-negative")]
    fn rejects_negative_cost() {
        NegLog::from_cost(-0.1);
    }

    #[test]
    fn infinity_absorbs_addition() {
        let inf = NegLog::INFINITY;
        assert!((inf + NegLog::from_prob(0.5)).is_infinite());
        assert_eq!((inf + NegLog::ZERO).prob(), 0.0);
    }
}
