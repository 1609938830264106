//! Structured protocol traces.
//!
//! Each simulated slot can emit a sequence of [`Event`]s — link attempts,
//! BSMs, fusions, and the final outcome — giving operators and tests an
//! audit trail of *why* a slot failed. The engine exposes
//! [`crate::Simulator::run_slot_observed`]; this module defines the event
//! vocabulary and a small recording observer.

/// One protocol event within a slot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Event {
    /// A heralded link-generation attempt on channel `channel`, link
    /// index `link`.
    LinkAttempt {
        /// Channel index within the plan.
        channel: usize,
        /// Link index within the channel.
        link: usize,
        /// Whether the Bell pair was established.
        success: bool,
    },
    /// A BSM at an interior switch of `channel`.
    Swap {
        /// Channel index within the plan.
        channel: usize,
        /// Node index of the measuring switch.
        switch: usize,
        /// Whether the measurement succeeded.
        success: bool,
    },
    /// The GHZ fusion at a star plan's center.
    Fusion {
        /// Node index of the center.
        center: usize,
        /// Number of fused qubits.
        arity: usize,
        /// Whether the measurement succeeded.
        success: bool,
    },
    /// The slot's final verdict.
    SlotOutcome {
        /// Whether all users ended up entangled.
        success: bool,
    },
}

/// Forwards one protocol event into the `qnet-obs` counter registry
/// (`sim.link.attempts{outcome=…}`, `sim.swap.attempts{…}`,
/// `sim.fusion.attempts{…}`, `sim.slot.outcomes{…}`) and, at
/// [`qnet_obs::ObsLevel::Trace`], into the flight recorder as
/// [`qnet_obs::TraceEvent::Protocol`] entries.
///
/// The engine taps every observed slot through this bridge whenever the
/// observability level admits counters, so Monte-Carlo runs surface
/// their protocol-step totals without a custom observer.
pub fn obs_bridge(event: Event) {
    if qnet_obs::trace_enabled() {
        let (kind, channel, index, success) = match event {
            Event::LinkAttempt {
                channel,
                link,
                success,
            } => ("link", channel, link, success),
            Event::Swap {
                channel,
                switch,
                success,
            } => ("swap", channel, switch, success),
            Event::Fusion {
                center,
                arity,
                success,
            } => ("fusion", center, arity, success),
            Event::SlotOutcome { success } => ("slot", 0, 0, success),
        };
        qnet_obs::record_event(qnet_obs::TraceEvent::Protocol {
            kind,
            channel: channel as u32,
            index: index as u32,
            success,
        });
    }
    match event {
        Event::LinkAttempt { success: true, .. } => {
            qnet_obs::counter!("sim.link.attempts", outcome = "success");
        }
        Event::LinkAttempt { success: false, .. } => {
            qnet_obs::counter!("sim.link.attempts", outcome = "failure");
        }
        Event::Swap { success: true, .. } => {
            qnet_obs::counter!("sim.swap.attempts", outcome = "success");
        }
        Event::Swap { success: false, .. } => {
            qnet_obs::counter!("sim.swap.attempts", outcome = "failure");
        }
        Event::Fusion { success: true, .. } => {
            qnet_obs::counter!("sim.fusion.attempts", outcome = "success");
        }
        Event::Fusion { success: false, .. } => {
            qnet_obs::counter!("sim.fusion.attempts", outcome = "failure");
        }
        Event::SlotOutcome { success: true } => {
            qnet_obs::counter!("sim.slot.outcomes", outcome = "success");
        }
        Event::SlotOutcome { success: false } => {
            qnet_obs::counter!("sim.slot.outcomes", outcome = "failure");
        }
    }
}

/// An observer collecting every event of the observed slots.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    /// The recorded events, in emission order.
    pub events: Vec<Event>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The first cause of failure in the record: the earliest
    /// unsuccessful link/swap/fusion event.
    pub fn first_failure(&self) -> Option<&Event> {
        self.events.iter().find(|e| {
            matches!(
                e,
                Event::LinkAttempt { success: false, .. }
                    | Event::Swap { success: false, .. }
                    | Event::Fusion { success: false, .. }
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimPhysics, Simulator};
    use crate::plan::{ChannelSpec, RoutingPlan};

    fn sim(q: f64, attenuation: f64, seed: u64) -> Simulator {
        let plan = RoutingPlan::tree(vec![ChannelSpec::new(
            vec![0, 1, 2],
            vec![1000.0, 1000.0],
            &[false, true, false],
        )]);
        Simulator::new(
            plan,
            SimPhysics {
                swap_success: q,
                attenuation,
                fusion_success: None,
            },
            seed,
        )
    }

    #[test]
    fn perfect_slot_traces_links_then_swap_then_outcome() {
        let mut s = sim(1.0, 0.0, 1);
        let mut rec = Recorder::new();
        let ok = s.run_slot_observed(&mut |e| rec.events.push(e));
        assert!(ok);
        assert_eq!(
            rec.events,
            vec![
                Event::LinkAttempt {
                    channel: 0,
                    link: 0,
                    success: true
                },
                Event::LinkAttempt {
                    channel: 0,
                    link: 1,
                    success: true
                },
                Event::Swap {
                    channel: 0,
                    switch: 1,
                    success: true
                },
                Event::SlotOutcome { success: true },
            ]
        );
        assert!(rec.first_failure().is_none());
    }

    #[test]
    fn failed_swap_is_the_first_failure() {
        let mut s = sim(0.0, 0.0, 2);
        let mut rec = Recorder::new();
        let ok = s.run_slot_observed(&mut |e| rec.events.push(e));
        assert!(!ok);
        assert!(matches!(
            rec.first_failure(),
            Some(Event::Swap { success: false, .. })
        ));
        let swap_failures = rec
            .events
            .iter()
            .filter(|e| matches!(e, Event::Swap { success: false, .. }));
        assert_eq!(swap_failures.count(), 1);
        assert_eq!(
            rec.events.last(),
            Some(&Event::SlotOutcome { success: false })
        );
    }

    #[test]
    fn traced_and_untraced_runs_agree() {
        // The observer must not perturb the RNG stream.
        let stats_plain = sim(0.9, 1e-4, 3).run_slots(2000);
        let mut s = sim(0.9, 1e-4, 3);
        let mut successes = 0u64;
        for _ in 0..2000 {
            if s.run_slot_observed(&mut |_| {}) {
                successes += 1;
            }
        }
        assert_eq!(stats_plain.successes, successes);
    }

    #[test]
    fn fusion_events_appear_for_star_plans() {
        let plan = RoutingPlan::fusion_star(
            vec![
                ChannelSpec::new(vec![0, 9], vec![0.0], &[false, true]),
                ChannelSpec::new(vec![2, 9], vec![0.0], &[false, true]),
            ],
            9,
            true,
        );
        let mut s = Simulator::new(
            plan,
            SimPhysics {
                swap_success: 1.0,
                attenuation: 0.0,
                fusion_success: None,
            },
            4,
        );
        let mut rec = Recorder::new();
        assert!(s.run_slot_observed(&mut |e| rec.events.push(e)));
        assert!(rec.events.iter().any(|e| matches!(
            e,
            Event::Fusion {
                center: 9,
                arity: 2,
                success: true
            }
        )));
    }
}
