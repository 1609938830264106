//! Trace sampling: keep the flight recorder useful under sustained
//! load.
//!
//! The recorder ring holds the *latest* `capacity` events; a
//! sustained-load run emitting per-admission traces overruns it within
//! seconds, leaving only the tail. A [`TraceSampler`] thins the stream
//! at the source: the driving loop asks [`TraceSampler::admit`] once
//! per admission (or any unit of work) and only emits that unit's
//! events when admitted — a deterministic 1-in-N policy, *not* random,
//! so fixed-seed runs stay byte-identical.
//!
//! Every rejection is tallied exactly, both in the sampler (for the
//! run's own accounting) and in the global `obs.trace.sampled_out`
//! counter (so run reports show precisely how much of the stream the
//! trace represents: `sampled_out / (sampled_out + recorded units)`).

/// A deterministic 1-in-N admission sampler for trace emission.
#[derive(Debug)]
pub struct TraceSampler {
    every: u64,
    seen: u64,
    sampled_out: u64,
}

impl TraceSampler {
    /// A sampler admitting the first of every `n` consecutive units
    /// (`n` clamped to ≥ 1; `every(1)` admits everything).
    pub fn every(n: u64) -> TraceSampler {
        TraceSampler {
            every: n.max(1),
            seen: 0,
            sampled_out: 0,
        }
    }

    /// Decides the next unit: `true` for units `0, n, 2n, …` in
    /// arrival order. Rejections bump the exact `sampled_out` tally
    /// and the `obs.trace.sampled_out` counter.
    pub fn admit(&mut self) -> bool {
        let admitted = self.seen.is_multiple_of(self.every);
        self.seen += 1;
        if !admitted {
            self.sampled_out += 1;
            crate::counter!("obs.trace.sampled_out");
        }
        admitted
    }

    /// Units decided so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Units rejected so far; always `seen - ceil(seen / n)`.
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Capture, ObsLevel};

    #[test]
    fn one_in_n_is_deterministic_and_exact() {
        // Rejections count into the global registry.
        let _capture = Capture::begin(ObsLevel::Counters);
        let mut s = TraceSampler::every(4);
        let decisions: Vec<bool> = (0..10).map(|_| s.admit()).collect();
        assert_eq!(
            decisions,
            vec![true, false, false, false, true, false, false, false, true, false]
        );
        assert_eq!(s.seen(), 10);
        assert_eq!(s.sampled_out(), 7);
        assert_eq!(s.sampled_out(), s.seen() - s.seen().div_ceil(4));
    }

    #[test]
    fn every_one_admits_everything_and_zero_is_clamped() {
        let _capture = Capture::begin(ObsLevel::Counters);
        for n in [0, 1] {
            let mut s = TraceSampler::every(n);
            assert!((0..5).all(|_| s.admit()), "every({n}) must admit all");
            assert_eq!(s.sampled_out(), 0);
        }
    }

    #[test]
    fn rejections_land_in_the_global_counter() {
        let capture = Capture::begin(ObsLevel::Counters);
        let mut s = TraceSampler::every(3);
        for _ in 0..9 {
            s.admit();
        }
        assert_eq!(s.sampled_out(), 6);
        let report = capture.finish("sampler");
        assert_eq!(report.counter_total("obs.trace.sampled_out"), 6);
    }
}
