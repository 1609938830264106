//! Exhaustive mapping from the protocol-event vocabulary onto obs
//! counter families.
//!
//! The match in [`all_variants`] is deliberately wildcard-free: adding a
//! variant to [`Event`] breaks compilation here until the new variant is
//! given bridge coverage, keeping the counter vocabulary and the event
//! vocabulary in lockstep.

use qnet_obs::{Capture, ObsLevel};
use qnet_sim::trace::{obs_bridge, Event};

/// Every [`Event`] variant (both outcomes), paired with the counter
/// family `obs_bridge` must route it to.
fn all_variants() -> Vec<(Event, &'static str)> {
    let mut cases = Vec::new();
    for success in [true, false] {
        // One representative per variant; the exhaustive match below is
        // the compile-time guard that none is forgotten.
        let representatives = [
            Event::LinkAttempt {
                channel: 0,
                link: 1,
                success,
            },
            Event::Swap {
                channel: 0,
                switch: 2,
                success,
            },
            Event::Fusion {
                center: 3,
                arity: 4,
                success,
            },
            Event::SlotOutcome { success },
        ];
        for event in representatives {
            let family = match event {
                Event::LinkAttempt { .. } => "sim.link.attempts",
                Event::Swap { .. } => "sim.swap.attempts",
                Event::Fusion { .. } => "sim.fusion.attempts",
                Event::SlotOutcome { .. } => "sim.slot.outcomes",
            };
            cases.push((event, family));
        }
    }
    cases
}

const ALL_FAMILIES: [&str; 4] = [
    "sim.link.attempts",
    "sim.swap.attempts",
    "sim.fusion.attempts",
    "sim.slot.outcomes",
];

#[test]
fn every_event_variant_maps_to_exactly_one_counter_family() {
    for (event, family) in all_variants() {
        let capture = Capture::begin(ObsLevel::Counters);
        obs_bridge(event);
        let report = capture.finish("bridge");

        // Exactly one family incremented, by exactly one, ...
        for candidate in ALL_FAMILIES {
            let expected = u64::from(candidate == family);
            assert_eq!(
                report.counter_total(candidate),
                expected,
                "{event:?} must bump {family} only (checked {candidate})"
            );
        }
        // ... and exactly one labeled counter key exists in total, with
        // the outcome label matching the event's success flag.
        assert_eq!(report.counters.len(), 1, "{event:?} bumped extra keys");
        let outcome = if event_success(event) {
            "success"
        } else {
            "failure"
        };
        let expected_key = format!("{family}{{outcome={outcome}}}");
        assert_eq!(report.counters[0].key, expected_key, "for {event:?}");
        assert_eq!(report.counters[0].value, 1);
    }
}

fn event_success(event: Event) -> bool {
    match event {
        Event::LinkAttempt { success, .. }
        | Event::Swap { success, .. }
        | Event::Fusion { success, .. }
        | Event::SlotOutcome { success } => success,
    }
}

#[test]
fn trace_level_mirrors_events_into_the_flight_recorder() {
    let capture = Capture::begin(ObsLevel::Trace);

    obs_bridge(Event::Swap {
        channel: 2,
        switch: 7,
        success: true,
    });
    obs_bridge(Event::SlotOutcome { success: false });

    let snap = qnet_obs::trace_snapshot();
    assert_eq!(snap.len(), 2);
    assert_eq!(
        snap[0].event,
        qnet_obs::TraceEvent::Protocol {
            kind: "swap",
            channel: 2,
            index: 7,
            success: true,
        }
    );
    assert_eq!(
        snap[1].event,
        qnet_obs::TraceEvent::Protocol {
            kind: "slot",
            channel: 0,
            index: 0,
            success: false,
        }
    );
    // Counters keep flowing at trace level too.
    let report = capture.finish("bridge-trace");
    assert_eq!(report.counter_total("sim.swap.attempts"), 1);
    assert_eq!(report.counter_total("sim.slot.outcomes"), 1);
}
