//! The global observability level and its `MUERP_OBS` switch.

use std::sync::atomic::{AtomicU8, Ordering};

/// How much instrumentation is active.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObsLevel {
    /// Everything disabled; instrumentation sites cost one relaxed
    /// atomic load.
    Off = 0,
    /// Counters and histograms only (lock-free atomic adds).
    Counters = 1,
    /// Counters plus hierarchical spans (one mutex op per span).
    Full = 2,
    /// Everything, plus per-decision [`crate::TraceEvent`]s into the
    /// flight recorder (one mutex op per event).
    Trace = 3,
}

impl ObsLevel {
    /// Canonical lowercase name (`off` / `counters` / `full` / `trace`).
    pub fn name(self) -> &'static str {
        match self {
            ObsLevel::Off => "off",
            ObsLevel::Counters => "counters",
            ObsLevel::Full => "full",
            ObsLevel::Trace => "trace",
        }
    }

    /// Parses a `MUERP_OBS` value; `None` for unknown strings.
    pub fn parse(s: &str) -> Option<ObsLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Some(ObsLevel::Off),
            "counters" | "1" => Some(ObsLevel::Counters),
            "full" | "2" => Some(ObsLevel::Full),
            "trace" | "3" => Some(ObsLevel::Trace),
            _ => None,
        }
    }
}

/// Sentinel meaning "not initialized from the environment yet".
const UNINIT: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(UNINIT);

#[cold]
fn init_from_env() -> ObsLevel {
    let level = std::env::var("MUERP_OBS")
        .ok()
        .and_then(|v| ObsLevel::parse(&v))
        .unwrap_or(ObsLevel::Counters);
    // Racing initializers agree on the value (env is read-only here),
    // so a plain store is fine.
    LEVEL.store(level as u8, Ordering::Relaxed);
    level
}

fn decode(raw: u8) -> ObsLevel {
    match raw {
        0 => ObsLevel::Off,
        1 => ObsLevel::Counters,
        2 => ObsLevel::Full,
        _ => ObsLevel::Trace,
    }
}

/// The current level. After first use this is a single relaxed atomic
/// load — the entire cost of instrumentation at `MUERP_OBS=off`.
#[inline]
pub fn level() -> ObsLevel {
    let raw = LEVEL.load(Ordering::Relaxed);
    if raw == UNINIT {
        init_from_env()
    } else {
        decode(raw)
    }
}

/// `true` when the current level is at least `wanted`.
#[inline]
pub fn enabled(wanted: ObsLevel) -> bool {
    level() >= wanted
}

/// Overrides the level at runtime (tests, benches, `--obs-report`).
pub fn set_level(l: ObsLevel) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_values() {
        assert_eq!(ObsLevel::parse("off"), Some(ObsLevel::Off));
        assert_eq!(ObsLevel::parse(" Counters "), Some(ObsLevel::Counters));
        assert_eq!(ObsLevel::parse("FULL"), Some(ObsLevel::Full));
        assert_eq!(ObsLevel::parse("trace"), Some(ObsLevel::Trace));
        assert_eq!(ObsLevel::parse("bogus"), None);
    }

    #[test]
    fn set_level_round_trips() {
        let _capture = crate::Capture::begin(ObsLevel::Full);
        assert!(enabled(ObsLevel::Counters));
        assert!(enabled(ObsLevel::Full));
        set_level(ObsLevel::Off);
        assert!(!enabled(ObsLevel::Counters));
    }

    #[test]
    fn ordering_matches_verbosity() {
        assert!(ObsLevel::Off < ObsLevel::Counters);
        assert!(ObsLevel::Counters < ObsLevel::Full);
        assert!(ObsLevel::Full < ObsLevel::Trace);
    }
}
