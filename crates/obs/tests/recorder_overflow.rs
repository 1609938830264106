//! Overflow behavior of the flight recorder: the ring wraps at
//! capacity, the *oldest* events are the ones evicted, and the dropped
//! tally (and the `obs.trace.dropped` counter on the global path)
//! accounts for every eviction exactly.
//!
//! Only the global-path test touches the process-wide recorder; it
//! holds a [`Capture`], which puts the recorder's capacity back when it
//! drops. The rest drive private `FlightRecorder`s.

use proptest::prelude::*;
use qnet_obs::{Capture, FlightRecorder, ObsLevel, TraceEvent};

fn event(i: u64) -> TraceEvent {
    TraceEvent::Candidate {
        source: (i % 1000) as u32,
        destination: ((i + 1) % 1000) as u32,
        accepted: !i.is_multiple_of(3),
        reason: if !i.is_multiple_of(3) {
            "ok"
        } else {
            "disconnected"
        },
        cost: 1.0 / (i + 1) as f64,
        epoch: i,
    }
}

proptest! {
    /// For any capacity and event count: length saturates at capacity,
    /// exactly the newest `len` events survive in order, and
    /// `dropped == max(0, pushed - capacity)`.
    #[test]
    fn ring_wraps_and_counts_drops_exactly(
        capacity in 1usize..128,
        pushed in 0u64..512,
    ) {
        let rec = FlightRecorder::with_capacity(capacity);
        for i in 0..pushed {
            rec.record(event(i));
        }
        let snap = rec.snapshot();
        let expected_len = (pushed as usize).min(capacity);
        prop_assert_eq!(snap.len(), expected_len);
        prop_assert_eq!(rec.dropped(), pushed.saturating_sub(capacity as u64));
        // Oldest evicted: the survivors are the last `expected_len`
        // pushes, contiguous and in order.
        let first_surviving = pushed - expected_len as u64;
        for (offset, stamped) in snap.iter().enumerate() {
            let expected_seq = first_surviving + offset as u64;
            prop_assert_eq!(stamped.seq, expected_seq);
            prop_assert_eq!(stamped.event, event(expected_seq));
        }
    }

    /// Reset always restores an empty, zero-dropped, zero-sequence ring,
    /// whatever happened before.
    #[test]
    fn reset_is_total(capacity in 1usize..64, pushed in 0u64..256) {
        let rec = FlightRecorder::with_capacity(capacity);
        for i in 0..pushed {
            rec.record(event(i));
        }
        rec.reset();
        prop_assert!(rec.is_empty());
        prop_assert_eq!(rec.dropped(), 0);
        rec.record(event(7));
        prop_assert_eq!(rec.snapshot()[0].seq, 0);
    }
}

/// The global path mirrors evictions into the `obs.trace.dropped`
/// counter exactly.
#[test]
fn global_dropped_counter_matches_evictions() {
    let capture = Capture::begin(ObsLevel::Trace);
    qnet_obs::set_trace_capacity(16);

    const PUSHED: u64 = 100;
    for i in 0..PUSHED {
        qnet_obs::record_event(event(i));
    }
    let report = capture.finish("overflow");
    assert_eq!(report.counter_total("obs.trace.dropped"), PUSHED - 16);
    assert_eq!(qnet_obs::recorder().dropped(), PUSHED - 16);
    assert_eq!(qnet_obs::trace_snapshot().len(), 16);
}

/// Concurrent recording never loses an event silently: every record
/// either survives in the ring or is tallied as dropped.
#[test]
fn concurrent_records_are_all_accounted_for() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 5_000;
    let rec = FlightRecorder::with_capacity(1024);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let rec = &rec;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    rec.record(event(t * PER_THREAD + i));
                }
            });
        }
    });
    assert_eq!(rec.len() as u64 + rec.dropped(), THREADS * PER_THREAD);
    // Sequence stamps are unique and gapless across threads.
    let snap = rec.snapshot();
    for pair in snap.windows(2) {
        assert_eq!(pair[1].seq, pair[0].seq + 1, "stamps stay ordered");
    }
}
