//! Acceptance coverage for the flight recorder: at `MUERP_OBS=trace`,
//! every algorithm of the paper's five-way suite leaves decision events
//! behind when run on the paper-default topology — at least one per
//! tree-growth round for the tree builders, plus candidate/finder events
//! from the shared Algorithm-1 searches.

use muerp_core::algorithms::{refine, BeamSearch, LocalSearchOptions};
use muerp_core::prelude::*;
use muerp_experiments::AlgoKind;
use qnet_obs::{Capture, ObsLevel, TraceEvent};

#[test]
fn every_suite_algorithm_records_decision_events_at_trace_level() {
    let net = NetworkSpec::paper_default().build(0);
    let rounds_expected = net.user_count() - 1;

    for algo in AlgoKind::ALL {
        let _capture = Capture::begin(ObsLevel::Trace);
        let rate = algo.rate_on(&net, 0);
        assert!((0.0..=1.0).contains(&rate), "{}: {rate}", algo.name());
        let events: Vec<TraceEvent> = qnet_obs::trace_snapshot()
            .into_iter()
            .map(|s| s.event)
            .collect();
        assert!(!events.is_empty(), "{} left no trace events", algo.name());

        // All five route pair selection through Algorithm 1 (directly or
        // via Yen's k-channels), so candidate decisions must appear.
        let candidates = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Candidate { .. }))
            .count();
        assert!(
            candidates > 0,
            "{} recorded no channel-candidate decisions",
            algo.name()
        );

        // The tree builders additionally explain each growth round.
        match algo {
            AlgoKind::Alg3 => {
                let admissions = events
                    .iter()
                    .filter(|e| matches!(e, TraceEvent::Admission { algo: "alg3", .. }))
                    .count();
                assert!(
                    admissions >= rounds_expected,
                    "Alg-3 admissions {admissions} < {rounds_expected} seed channels"
                );
            }
            AlgoKind::Alg4 => {
                let steps = events
                    .iter()
                    .filter(|e| matches!(e, TraceEvent::TreeStep { algo: "alg4", .. }))
                    .count();
                assert_eq!(
                    steps, rounds_expected,
                    "Alg-4 must record one tree step per growth round"
                );
            }
            AlgoKind::Alg2 | AlgoKind::NFusion | AlgoKind::EQCast => {
                // Candidate coverage (asserted above) is their decision
                // vocabulary: channel selection is the only choice they
                // make per user pair.
            }
        }
    }
}

#[test]
fn beam_and_local_search_extensions_record_their_rounds() {
    let net = NetworkSpec::paper_default().build(1);

    let capture = Capture::begin(ObsLevel::Trace);
    BeamSearch::default().solve(&net).ok();
    let beam_rounds = qnet_obs::trace_snapshot()
        .iter()
        .filter(|s| matches!(s.event, TraceEvent::BeamRound { .. }))
        .count();
    assert!(
        beam_rounds >= net.user_count() - 1,
        "beam search recorded {beam_rounds} rounds"
    );
    drop(capture);

    let _capture = Capture::begin(ObsLevel::Trace);
    if let Ok(base) = ConflictFree::default().solve(&net) {
        let refined = refine(&net, base.clone(), LocalSearchOptions::default());
        let moves = qnet_obs::trace_snapshot()
            .iter()
            .filter(|s| matches!(s.event, TraceEvent::MoveAccepted { .. }))
            .count();
        // Refinement may be a no-op on easy instances; when it did
        // improve the tree, the improving moves must be on record.
        if refined.rate > base.rate {
            assert!(moves > 0, "improved tree without recorded moves");
        }
    }
}
