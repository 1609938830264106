//! One run's exclusive hold on the process-global sinks: the [`global`]
//! registry, the span store and the flight recorder.

use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::level::{set_level, ObsLevel};
use crate::registry::global;
use crate::report::RunReport;
use crate::span::reset_spans;
use crate::trace::recorder;

/// Exclusive use of the global sinks for one run, from
/// [`begin`](Capture::begin) until the capture drops; two captures never
/// overlap, so a run reads only its own counts. Captures do not nest:
/// a thread that holds one and begins another deadlocks. Code outside
/// any capture still counts into the sinks.
#[must_use = "the capture releases the sinks when it drops"]
pub struct Capture {
    level: ObsLevel,
    capacity: usize,
    _lock: MutexGuard<'static, ()>,
}

impl Capture {
    /// Waits for the sinks, then sets `level` and zeroes the registry,
    /// the span store and the flight recorder.
    pub fn begin(level: ObsLevel) -> Capture {
        // The lock guards no data, and `begin` zeroes the sinks a
        // panicked run left behind, so a poisoned lock is safe to take.
        static LOCK: Mutex<()> = Mutex::new(());
        let lock = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let capture = Capture {
            level: crate::level::level(),
            capacity: recorder().capacity(),
            _lock: lock,
        };
        set_level(level);
        global().reset();
        reset_spans();
        recorder().reset();
        capture
    }

    /// The sinks' contents since [`begin`](Capture::begin), as the
    /// report of `run`. The capture keeps the sinks until it drops, so
    /// the flight recorder can still be read or exported.
    pub fn finish(&self, run: &str) -> RunReport {
        RunReport::capture(run)
    }
}

impl Drop for Capture {
    /// Restores the level and the recorder capacity `begin` found,
    /// also while unwinding. The recorder keeps its events unless the
    /// run changed its capacity.
    fn drop(&mut self) {
        set_level(self.level);
        if recorder().capacity() != self.capacity {
            recorder().set_capacity(self.capacity);
        }
    }
}
