//! The contract of `qnet_obs::Capture`, the one way a run or a test
//! takes the process-global obs sinks: captures take turns, `begin`
//! starts from empty sinks, and a capture that panics puts back the
//! level and recorder capacity it found. The checks run in sequence in
//! one test, because the last one reads the level between captures,
//! where a concurrent test's capture would show.

use muerp::obs::{self, Capture, ObsLevel, TraceEvent};

const EVENT: TraceEvent = TraceEvent::BeamRound {
    round: 0,
    expanded: 0,
    kept: 0,
};

/// Thread `t` adds `t + 1` per unit and runs a different number of
/// units each round, yielding between them so the threads interleave;
/// a report that took in another thread's work or an earlier round's
/// miscounts.
fn each_thread_reads_its_own_counts() {
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            scope.spawn(move || {
                for round in 0..100 {
                    let capture = Capture::begin(ObsLevel::Trace);
                    let units = 1 + (t + round) % 8;
                    for _ in 0..units {
                        let _span = obs::span!("test.capture.unit");
                        obs::counter!("test.capture.amount"; t + 1);
                        obs::record_event(EVENT);
                        std::thread::yield_now();
                    }
                    let report = capture.finish("turns");
                    let at = format!("thread {t}, round {round}");
                    let amount = report.counter_total("test.capture.amount");
                    assert_eq!(amount, units * (t + 1), "{at}");
                    assert_eq!(report.spans.len() as u64, units, "{at}");
                    assert_eq!(obs::trace_snapshot().len() as u64, units, "{at}");
                }
            });
        }
    });
}

fn begin_starts_from_zero() {
    {
        let _earlier = Capture::begin(ObsLevel::Trace);
        let _span = obs::span!("test.capture.leftover");
        obs::counter!("test.capture.leftover");
        obs::histogram!("test.capture.leftover_us", 3);
        obs::record_event(EVENT);
    }
    let capture = Capture::begin(ObsLevel::Trace);
    let report = capture.finish("fresh");
    assert!(report.counters.is_empty(), "{:?}", report.counters);
    assert!(report.histograms.is_empty(), "{:?}", report.histograms);
    assert!(report.spans.is_empty(), "{:?}", report.spans);
    assert!(obs::trace_snapshot().is_empty());
}

fn a_panicking_capture_restores_what_it_found() {
    let found = (obs::level(), obs::recorder().capacity());
    let inside = if found.0 == ObsLevel::Trace {
        ObsLevel::Off
    } else {
        ObsLevel::Trace
    };
    let caught = std::panic::catch_unwind(|| {
        let _capture = Capture::begin(inside);
        obs::set_trace_capacity(found.1 + 1);
        panic!("a run that fails mid-capture");
    });
    assert!(caught.is_err());
    assert_eq!((obs::level(), obs::recorder().capacity()), found);
    let next = Capture::begin(ObsLevel::Counters);
    assert!(next.finish("after-panic").counters.is_empty());
}

#[test]
fn captures_take_turns_start_from_zero_and_restore_what_they_found() {
    each_thread_reads_its_own_counts();
    begin_starts_from_zero();
    a_panicking_capture_restores_what_it_found();
}
