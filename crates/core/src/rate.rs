//! Entanglement rates in the log domain.
//!
//! Entanglement rates are products of many factors in `[0, 1]` — per-link
//! success probabilities `exp(−αL)` and per-swap success rates `q`. A tree
//! over ten users across a 10 000 km area easily reaches rates around
//! `10⁻⁵`; representing the product naively invites underflow and
//! precision loss in comparisons. [`Rate`] therefore stores the
//! *negative-log* cost ([`qnet_graph::NegLog`]) and converts to a plain
//! probability only at the boundary.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Mul, MulAssign};

use qnet_graph::NegLog;

/// A success probability stored in the log domain.
///
/// `Rate` is totally ordered (no NaN by construction), multiplies exactly
/// (cost addition), and compares by probability.
///
/// # Example
///
/// ```
/// use muerp_core::rate::Rate;
///
/// let link = Rate::from_prob(0.9);
/// let swap = Rate::from_prob(0.9);
/// let channel = link * link * swap;
/// assert!((channel.value() - 0.729).abs() < 1e-12);
/// assert!(channel < link);
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Rate(NegLog);

impl Rate {
    /// The certain event: probability 1.
    pub const ONE: Rate = Rate(NegLog::ZERO);

    /// The impossible event: probability 0 (an infeasible routing).
    pub const ZERO: Rate = Rate(NegLog::INFINITY);

    /// Builds a rate from a probability in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN or outside `[0, 1]`.
    pub fn from_prob(p: f64) -> Self {
        Rate(NegLog::from_prob(p))
    }

    /// The probability value in `[0, 1]`.
    pub fn value(self) -> f64 {
        self.0.prob()
    }

    /// The negative-log cost (additive domain).
    pub fn neg_log(self) -> NegLog {
        self.0
    }

    /// `true` for the zero rate (infeasible).
    pub fn is_zero(self) -> bool {
        self.0.is_infinite()
    }

    /// `self^k` — e.g. `q^(l−1)` for a channel with `l` links.
    ///
    /// `k = 0` yields [`Rate::ONE`].
    pub fn powi(self, k: u32) -> Rate {
        if k == 0 {
            return Rate::ONE;
        }
        Rate(NegLog::from_cost(if self.0.is_infinite() {
            return Rate::ZERO;
        } else {
            self.0.cost() * k as f64
        }))
    }

    /// Ratio `self / other` as a plain `f64` (may exceed 1); `NaN`-free:
    /// returns `f64::INFINITY` when `other` is zero and `self` is not,
    /// and `0.0` when `self` is zero.
    pub fn ratio(self, other: Rate) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        if other.is_zero() {
            return f64::INFINITY;
        }
        (other.0.cost() - self.0.cost()).exp()
    }
}

impl Ord for Rate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Lower cost = higher probability; Rate orders by probability.
        other.0.cmp(&self.0)
    }
}

impl PartialOrd for Rate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Mul for Rate {
    type Output = Rate;
    // Log-domain representation: multiplying probabilities adds costs.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn mul(self, rhs: Rate) -> Rate {
        Rate(self.0 + rhs.0)
    }
}

impl MulAssign for Rate {
    #[allow(clippy::suspicious_op_assign_impl)]
    fn mul_assign(&mut self, rhs: Rate) {
        self.0 += rhs.0;
    }
}

impl Default for Rate {
    /// The multiplicative identity, [`Rate::ONE`].
    fn default() -> Self {
        Rate::ONE
    }
}

impl fmt::Debug for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rate({:.6e})", self.value())
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6e}", self.value())
    }
}

impl std::iter::Product for Rate {
    fn product<I: Iterator<Item = Rate>>(iter: I) -> Rate {
        iter.fold(Rate::ONE, |acc, r| acc * r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_by_probability() {
        assert!(Rate::from_prob(0.9) > Rate::from_prob(0.5));
        assert!(Rate::ZERO < Rate::from_prob(1e-300));
        assert_eq!(
            Rate::from_prob(0.5).max(Rate::from_prob(0.7)),
            Rate::from_prob(0.7)
        );
    }

    #[test]
    fn product_does_not_underflow() {
        // 1000 factors of 0.5: value underflows f64 (2^-1000 ~ 1e-302 is
        // fine, but 10_000 factors would not be) — the log domain keeps
        // exact comparisons either way.
        let mut a = Rate::ONE;
        for _ in 0..10_000 {
            a *= Rate::from_prob(0.5);
        }
        let mut b = Rate::ONE;
        for _ in 0..9_999 {
            b *= Rate::from_prob(0.5);
        }
        assert!(a < b, "log-domain comparison survives underflow");
        assert_eq!(a.value(), 0.0, "plain f64 would underflow to zero");
        assert!(!a.is_zero(), "but the rate itself is not the zero rate");
    }

    #[test]
    fn powi_matches_repeated_multiplication() {
        let q = Rate::from_prob(0.9);
        assert_eq!(q.powi(0), Rate::ONE);
        let mut manual = Rate::ONE;
        for _ in 0..5 {
            manual *= q;
        }
        assert!((q.powi(5).value() - manual.value()).abs() < 1e-12);
        assert_eq!(Rate::ZERO.powi(3), Rate::ZERO);
        assert_eq!(Rate::ZERO.powi(0), Rate::ONE);
    }

    #[test]
    fn ratio_behaviour() {
        let a = Rate::from_prob(0.8);
        let b = Rate::from_prob(0.2);
        assert!((a.ratio(b) - 4.0).abs() < 1e-12);
        assert!((b.ratio(a) - 0.25).abs() < 1e-12);
        assert_eq!(Rate::ZERO.ratio(a), 0.0);
        assert_eq!(a.ratio(Rate::ZERO), f64::INFINITY);
    }

    #[test]
    fn product_iterator() {
        let rates = [0.5, 0.5, 0.5].map(Rate::from_prob);
        let p: Rate = rates.into_iter().product();
        assert!((p.value() - 0.125).abs() < 1e-12);
        let empty: Rate = std::iter::empty().product();
        assert_eq!(empty, Rate::ONE);
    }

    #[test]
    fn display_formats_scientific() {
        assert_eq!(format!("{}", Rate::from_prob(0.5)), "5.000000e-1");
        assert_eq!(format!("{:?}", Rate::from_prob(0.5)), "Rate(5.000000e-1)");
    }
}
