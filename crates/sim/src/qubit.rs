//! Concrete qubit-slot assignment — the controller's final artifact.
//!
//! The paper's §II-B controller computes routes offline and distributes
//! them; a real switch must then know *which of its physical qubits*
//! serves which channel. [`assign`] maps a [`RoutingPlan`] onto
//! per-switch memory slots deterministically: every interior visit of a
//! channel gets a (left, right) slot pair at that switch, and a switch
//! fusion center pins one slot per incoming arm. The assignment is the
//! witness that the plan honors every capacity — producing it *is* the
//! capacity check.

use std::collections::HashMap;

use crate::plan::{PlanKind, RoutingPlan};

/// One physical memory slot at a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Slot {
    /// The node owning the memory.
    pub node: usize,
    /// Slot index within the node's memory (`0..capacity`).
    pub index: u32,
}

/// Where a slot is used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotUse {
    /// Serving link `link` of channel `channel` on the side toward the
    /// channel head (`left = true`) or tail.
    Relay {
        /// Channel index in the plan.
        channel: usize,
        /// Interior position within the channel (1-based node position).
        position: usize,
        /// `true` for the qubit paired with the incoming (head-side)
        /// link.
        left: bool,
    },
    /// Pinned at a fusion center for arm `arm`.
    FusionHold {
        /// Arm (channel) index in the plan.
        arm: usize,
    },
}

/// A complete assignment: which slot serves which protocol role.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Assignment {
    /// Slot → role, covering every qubit the plan consumes.
    pub uses: Vec<(Slot, SlotUse)>,
}

impl Assignment {
    /// Slots consumed at `node`.
    pub fn slots_at(&self, node: usize) -> Vec<Slot> {
        self.uses
            .iter()
            .filter(|(s, _)| s.node == node)
            .map(|(s, _)| *s)
            .collect()
    }

    /// Total consumed slots.
    pub fn len(&self) -> usize {
        self.uses.len()
    }

    /// `true` when nothing is assigned.
    pub fn is_empty(&self) -> bool {
        self.uses.is_empty()
    }
}

/// Why assignment failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CapacityExceeded {
    /// The node that ran out of memory.
    pub node: usize,
    /// Slots demanded.
    pub demanded: u32,
    /// Slots available.
    pub available: u32,
}

impl core::fmt::Display for CapacityExceeded {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "node {} memory exceeded: {} slots demanded, {} available",
            self.node, self.demanded, self.available
        )
    }
}

impl std::error::Error for CapacityExceeded {}

/// Assigns concrete memory slots to every qubit the plan consumes.
///
/// `capacity[node]` gives a node's slot count; absent nodes are treated
/// as unconstrained users (slots still numbered from 0).
///
/// # Errors
///
/// Returns the first [`CapacityExceeded`] in node order.
pub fn assign(
    plan: &RoutingPlan,
    capacity: &HashMap<usize, u32>,
) -> Result<Assignment, CapacityExceeded> {
    let mut next_slot: HashMap<usize, u32> = HashMap::new();
    let mut out = Assignment::default();

    let mut take =
        |node: usize, usage: SlotUse, out: &mut Assignment| -> Result<(), CapacityExceeded> {
            let idx = next_slot.entry(node).or_insert(0);
            if let Some(&cap) = capacity.get(&node) {
                if *idx >= cap {
                    return Err(CapacityExceeded {
                        node,
                        demanded: *idx + 1,
                        available: cap,
                    });
                }
            }
            out.uses.push((Slot { node, index: *idx }, usage));
            *idx += 1;
            Ok(())
        };

    for (ci, channel) in plan.channels.iter().enumerate() {
        for (pos, &node) in channel.nodes.iter().enumerate() {
            let interior = pos > 0 && pos + 1 < channel.nodes.len();
            if interior {
                take(
                    node,
                    SlotUse::Relay {
                        channel: ci,
                        position: pos,
                        left: true,
                    },
                    &mut out,
                )?;
                take(
                    node,
                    SlotUse::Relay {
                        channel: ci,
                        position: pos,
                        left: false,
                    },
                    &mut out,
                )?;
            }
        }
    }
    if let PlanKind::FusionStar {
        center,
        center_is_switch: true,
    } = plan.kind
    {
        for arm in 0..plan.channels.len() {
            take(center, SlotUse::FusionHold { arm }, &mut out)?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ChannelSpec;

    fn caps(pairs: &[(usize, u32)]) -> HashMap<usize, u32> {
        pairs.iter().copied().collect()
    }

    fn two_channels_one_switch() -> RoutingPlan {
        RoutingPlan::tree(vec![
            ChannelSpec::new(vec![0, 1, 2], vec![1.0, 1.0], &[false, true, false]),
            ChannelSpec::new(vec![3, 1, 4], vec![1.0, 1.0], &[false, true, false]),
        ])
    }

    #[test]
    fn assigns_two_slots_per_interior_visit() {
        let plan = two_channels_one_switch();
        let a = assign(&plan, &caps(&[(1, 4)])).unwrap();
        assert_eq!(a.len(), 4, "two visits × two slots");
        let at_switch = a.slots_at(1);
        assert_eq!(at_switch.len(), 4);
        // Slots are distinct indices 0..4.
        let mut idx: Vec<u32> = at_switch.iter().map(|s| s.index).collect();
        idx.sort_unstable();
        assert_eq!(idx, vec![0, 1, 2, 3]);
    }

    #[test]
    fn capacity_violation_is_reported_precisely() {
        let plan = two_channels_one_switch();
        let err = assign(&plan, &caps(&[(1, 2)])).unwrap_err();
        assert_eq!(
            err,
            CapacityExceeded {
                node: 1,
                demanded: 3,
                available: 2
            }
        );
        assert!(err.to_string().contains("node 1"));
    }

    #[test]
    fn assignment_agrees_with_plan_demand() {
        let plan = two_channels_one_switch();
        let a = assign(&plan, &caps(&[(1, 10)])).unwrap();
        for (node, demand) in plan.qubit_demand() {
            assert_eq!(a.slots_at(node).len() as u32, demand);
        }
    }

    #[test]
    fn fusion_center_slots_are_pinned() {
        let arms = vec![
            ChannelSpec::new(vec![0, 9], vec![1.0], &[false, true]),
            ChannelSpec::new(vec![2, 9], vec![1.0], &[false, true]),
        ];
        let plan = RoutingPlan::fusion_star(arms, 9, true);
        let a = assign(&plan, &caps(&[(9, 2)])).unwrap();
        assert_eq!(a.len(), 2);
        assert!(a
            .uses
            .iter()
            .all(|(s, u)| s.node == 9 && matches!(u, SlotUse::FusionHold { .. })));
        // One slot short fails.
        assert!(assign(&plan, &caps(&[(9, 1)])).is_err());
    }

    #[test]
    fn users_are_unconstrained() {
        let plan = RoutingPlan::tree(vec![ChannelSpec::new(
            vec![0, 1, 2],
            vec![1.0, 1.0],
            &[false, true, false],
        )]);
        // No capacity entry for switch 1 either: fully unconstrained.
        let a = assign(&plan, &HashMap::new()).unwrap();
        assert_eq!(a.len(), 2);
        assert!(a.slots_at(0).is_empty(), "endpoints hold no relay slots");
    }

    #[test]
    fn deterministic_slot_numbering() {
        let plan = two_channels_one_switch();
        let a = assign(&plan, &caps(&[(1, 4)])).unwrap();
        let b = assign(&plan, &caps(&[(1, 4)])).unwrap();
        assert_eq!(a, b);
    }
}
