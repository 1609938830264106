//! Success-rate estimation with Wilson confidence intervals.

/// A closed interval on the probability line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Interval {
    /// `true` when `p` lies within the interval (inclusive).
    ///
    /// NaN is never contained — neither as `p` nor when either bound is
    /// NaN — and an empty interval (`lo > hi`) contains nothing.
    pub fn contains(&self, p: f64) -> bool {
        (self.lo..=self.hi).contains(&p)
    }

    /// Interval width; 0 for empty intervals (`lo > hi`) rather than a
    /// negative number, so widths can be summed and compared safely.
    pub fn width(&self) -> f64 {
        (self.hi - self.lo).max(0.0)
    }
}

/// A Bernoulli success-rate estimate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RateEstimate {
    /// Number of successful trials.
    pub successes: u64,
    /// Total trials.
    pub trials: u64,
}

impl RateEstimate {
    /// The point estimate `successes / trials` (0 for zero trials).
    pub fn point(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    /// The Wilson score interval at `z` standard normal deviations —
    /// well-behaved even at 0 or `n` successes, unlike the Wald
    /// interval.
    ///
    /// # Panics
    ///
    /// Panics for zero trials or a `z` that is not positive and finite
    /// (NaN and infinities would silently poison both bounds).
    pub fn wilson_interval(&self, z: f64) -> Interval {
        assert!(self.trials > 0, "no trials recorded");
        assert!(
            z > 0.0 && z.is_finite(),
            "z must be positive and finite, got {z}"
        );
        let n = self.trials as f64;
        let p = self.point();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        Interval {
            lo: (center - half).max(0.0),
            hi: (center + half).min(1.0),
        }
    }

    /// Merges two estimates (e.g. from parallel simulation shards).
    pub fn merge(self, other: RateEstimate) -> RateEstimate {
        RateEstimate {
            successes: self.successes + other.successes,
            trials: self.trials + other.trials,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_estimates() {
        assert_eq!(RateEstimate::default().point(), 0.0);
        let e = RateEstimate {
            successes: 30,
            trials: 100,
        };
        assert!((e.point() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn wilson_contains_truth_for_fair_coin() {
        let e = RateEstimate {
            successes: 5_050,
            trials: 10_000,
        };
        let iv = e.wilson_interval(3.0);
        assert!(iv.contains(0.5));
        assert!(iv.width() < 0.04);
    }

    #[test]
    fn wilson_is_sane_at_extremes() {
        let zero = RateEstimate {
            successes: 0,
            trials: 100,
        };
        let iv = zero.wilson_interval(2.0);
        assert!(iv.lo.abs() < 1e-12, "lower bound ~0, got {}", iv.lo);
        assert!(iv.hi > 0.0 && iv.hi < 0.1);
        assert!(iv.contains(0.0) || iv.lo < 1e-12);
        let all = RateEstimate {
            successes: 100,
            trials: 100,
        };
        let iv = all.wilson_interval(2.0);
        assert!((iv.hi - 1.0).abs() < 1e-12, "upper bound ~1, got {}", iv.hi);
        assert!(iv.lo > 0.9);
    }

    #[test]
    fn interval_narrows_with_more_trials() {
        let small = RateEstimate {
            successes: 50,
            trials: 100,
        };
        let big = RateEstimate {
            successes: 5_000,
            trials: 10_000,
        };
        assert!(big.wilson_interval(2.0).width() < small.wilson_interval(2.0).width());
    }

    #[test]
    fn merge_adds_counts() {
        let a = RateEstimate {
            successes: 10,
            trials: 40,
        };
        let b = RateEstimate {
            successes: 5,
            trials: 60,
        };
        let m = a.merge(b);
        assert_eq!(m.successes, 15);
        assert_eq!(m.trials, 100);
        assert!((m.point() - 0.15).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no trials")]
    fn interval_needs_trials() {
        RateEstimate::default().wilson_interval(2.0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn interval_rejects_nan_z() {
        let e = RateEstimate {
            successes: 1,
            trials: 2,
        };
        e.wilson_interval(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn interval_rejects_infinite_z() {
        let e = RateEstimate {
            successes: 1,
            trials: 2,
        };
        e.wilson_interval(f64::INFINITY);
    }

    #[test]
    fn contains_is_inclusive_at_both_ends() {
        let iv = Interval { lo: 0.25, hi: 0.75 };
        assert!(iv.contains(0.25));
        assert!(iv.contains(0.75));
        assert!(iv.contains(0.5));
        assert!(!iv.contains(0.25 - 1e-12));
        assert!(!iv.contains(0.75 + 1e-12));
    }

    #[test]
    fn degenerate_interval_contains_only_its_point() {
        let iv = Interval { lo: 0.5, hi: 0.5 };
        assert!(iv.contains(0.5));
        assert!(!iv.contains(0.5 + f64::EPSILON));
        assert_eq!(iv.width(), 0.0);
    }

    #[test]
    fn empty_interval_contains_nothing_and_has_zero_width() {
        let iv = Interval { lo: 0.7, hi: 0.3 };
        assert!(!iv.contains(0.5));
        assert!(!iv.contains(0.7));
        assert!(!iv.contains(0.3));
        assert_eq!(iv.width(), 0.0, "width must clamp, not go negative");
    }

    #[test]
    fn nan_is_never_contained() {
        let iv = Interval { lo: 0.0, hi: 1.0 };
        assert!(!iv.contains(f64::NAN));
        let nan_lo = Interval {
            lo: f64::NAN,
            hi: 1.0,
        };
        assert!(!nan_lo.contains(0.5));
        let nan_hi = Interval {
            lo: 0.0,
            hi: f64::NAN,
        };
        assert!(!nan_hi.contains(0.5));
    }
}
