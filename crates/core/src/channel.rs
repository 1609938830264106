//! Quantum channels (paper Eq. 1) and switch-capacity bookkeeping.
//!
//! A *channel* is a width-1 path between two quantum users whose interior
//! vertices are switches; each interior switch dedicates 2 qubits to the
//! channel (one per adjacent quantum link). Its entanglement rate is
//!
//! ```text
//! P_Λ = q^(l−1) · exp(−α · Σ Lᵢ)
//! ```
//!
//! where `l` is the number of quantum links. Optical fibers are multi-core
//! and uncapacitated (paper §II-A), so two channels may share a fiber —
//! only switch qubits are scarce, tracked by [`CapacityMap`].

use qnet_graph::paths::Path;
use qnet_graph::NodeId;

use crate::error::ValidationError;
use crate::model::QuantumNetwork;
use crate::rate::Rate;

/// A quantum channel: a user-to-user path plus its entanglement rate.
#[derive(Clone, Debug, PartialEq)]
pub struct Channel {
    /// The underlying path (nodes, edges, and `−ln` cost).
    pub path: Path,
    /// The channel's entanglement rate per Eq. 1.
    pub rate: Rate,
}

impl Channel {
    /// Builds a channel from a path, computing Eq. 1 from the network's
    /// physics: product of per-link `exp(−α·L)` times `q^(l−1)`.
    ///
    /// # Panics
    ///
    /// Panics if the path has no edges (a channel connects two *distinct*
    /// users).
    pub fn from_path(net: &QuantumNetwork, path: Path) -> Self {
        assert!(!path.edges.is_empty(), "a channel needs at least one link");
        let links: Rate = path.edges.iter().map(|&e| net.link_rate(e)).product();
        let swaps = net.physics().swap_rate().powi(path.edges.len() as u32 - 1);
        let rate = links * swaps;
        Channel { path, rate }
    }

    /// Source user.
    pub fn source(&self) -> NodeId {
        self.path.source()
    }

    /// Destination user.
    pub fn destination(&self) -> NodeId {
        self.path.destination()
    }

    /// The unordered user pair this channel connects, normalized so the
    /// smaller id comes first (the model allows at most one channel per
    /// pair).
    pub fn user_pair(&self) -> (NodeId, NodeId) {
        let (a, b) = (self.source(), self.destination());
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Number of quantum links (`l` in Eq. 1).
    pub fn link_count(&self) -> usize {
        self.path.edges.len()
    }

    /// Interior switches of the channel (each consumes 2 qubits).
    pub fn interior_switches(&self) -> &[NodeId] {
        self.path.interior()
    }

    /// Structural validation against a network: endpoints are users,
    /// interior nodes are switches, the path is simple, edges connect
    /// their claimed endpoints, and the stored rate matches Eq. 1.
    pub fn validate(&self, net: &QuantumNetwork) -> Result<(), ValidationError> {
        let nodes = &self.path.nodes;
        if nodes.len() < 2 {
            return Err(ValidationError::NotSpanningTree {
                detail: "channel with fewer than two nodes".into(),
            });
        }
        for &endpoint in [self.source(), self.destination()].iter() {
            if !net.is_user(endpoint) {
                return Err(ValidationError::EndpointNotUser { node: endpoint });
            }
        }
        for &mid in self.path.interior() {
            if net.is_user(mid) {
                return Err(ValidationError::InteriorNotSwitch { node: mid });
            }
        }
        let mut seen = std::collections::HashSet::new();
        for &v in nodes {
            if !seen.insert(v) {
                return Err(ValidationError::NotSimplePath { node: v });
            }
        }
        if self.path.edges.len() != nodes.len() - 1 {
            return Err(ValidationError::BrokenPath);
        }
        for (i, &e) in self.path.edges.iter().enumerate() {
            let (a, b) = net.graph().endpoints(e);
            let (x, y) = (nodes[i], nodes[i + 1]);
            if !((a == x && b == y) || (a == y && b == x)) {
                return Err(ValidationError::BrokenPath);
            }
        }
        let recomputed = Channel::from_path(net, self.path.clone()).rate;
        if (recomputed.value() - self.rate.value()).abs() > 1e-9 * recomputed.value().max(1e-300) {
            return Err(ValidationError::RateMismatch {
                claimed: self.rate.value(),
                recomputed: recomputed.value(),
            });
        }
        Ok(())
    }
}

/// Process-wide source of capacity epochs.
///
/// Every mutation of *any* [`CapacityMap`] draws a globally fresh epoch,
/// so equal epochs imply equal contents even across clones that diverge
/// (beam search clones a map per beam state): two maps can only share an
/// epoch if one is an unmutated clone of the other.
static EPOCH_SOURCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn next_epoch() -> u64 {
    EPOCH_SOURCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1
}

/// Residual qubit capacity per node.
///
/// Users are unconstrained (tracked as `u32::MAX`, never decremented in
/// practice because channels only consume interior-switch qubits).
///
/// Each map carries an [`epoch`](CapacityMap::epoch) that changes
/// whenever its contents change; run caches (see
/// `algorithms::ChannelFinderCache`) key on it to detect staleness in
/// O(1) instead of diffing capacities. It also keeps one bit per node
/// for `free ≥ 2` ([`CapacityMap::can_relay`]), updated by every
/// mutation for the nodes it touches, so a cache reads the relay bits
/// word by word instead of asking every node.
#[derive(Clone, Debug)]
pub struct CapacityMap {
    free: Vec<u32>,
    /// Bit `v` set iff `free[v] ≥ 2`.
    relays: Vec<u64>,
    epoch: u64,
}

impl PartialEq for CapacityMap {
    /// Equality is by *content*; the epoch is an identity tag, not state
    /// (two maps with equal capacities compare equal even if they were
    /// mutated along different histories).
    fn eq(&self, other: &Self) -> bool {
        self.free == other.free
    }
}

impl Eq for CapacityMap {}

impl CapacityMap {
    /// Initial capacities from a network: each switch starts with its full
    /// qubit count.
    pub fn new(net: &QuantumNetwork) -> Self {
        Self::from_free(
            net.graph()
                .node_ids()
                .map(|v| net.kind(v).qubits())
                .collect(),
        )
    }

    /// A capacity map where every node is unconstrained — the regime of
    /// the paper's Algorithm 2 sufficient condition.
    pub fn unbounded(net: &QuantumNetwork) -> Self {
        Self::from_free(vec![u32::MAX; net.graph().node_count()])
    }

    fn from_free(free: Vec<u32>) -> Self {
        let mut map = CapacityMap {
            relays: vec![0; free.len().div_ceil(64)],
            free,
            epoch: next_epoch(),
        };
        for i in 0..map.free.len() {
            map.sync(i);
        }
        map
    }

    /// Sets node `i`'s relay bit from its free count.
    #[inline]
    fn sync(&mut self, i: usize) {
        let bit = 1u64 << (i % 64);
        if self.free[i] >= 2 {
            self.relays[i / 64] |= bit;
        } else {
            self.relays[i / 64] &= !bit;
        }
    }

    /// One bit per node, bit `v % 64` of word `v / 64` set iff `v` can
    /// relay ([`CapacityMap::can_relay`]).
    pub(crate) fn relay_bits(&self) -> &[u64] {
        &self.relays
    }

    /// Epoch tag: changes (to a process-globally fresh value) on every
    /// mutation, so `a.epoch() == b.epoch()` implies `a == b`. Clones
    /// keep their parent's epoch until either side mutates.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Remaining free qubits at `v`.
    pub fn free(&self, v: NodeId) -> u32 {
        self.free[v.index()]
    }

    /// `true` when `v` can relay one more channel (≥ 2 free qubits).
    pub fn can_relay(&self, v: NodeId) -> bool {
        self.free[v.index()] >= 2
    }

    /// `true` when every interior switch of `channel` has ≥ 2 free qubits.
    pub fn admits(&self, channel: &Channel) -> bool {
        channel
            .interior_switches()
            .iter()
            .all(|&s| self.can_relay(s))
    }

    /// Reserves 2 qubits at every interior switch of `channel`.
    ///
    /// # Panics
    ///
    /// Panics if some interior switch lacks capacity — call
    /// [`CapacityMap::admits`] first.
    pub fn reserve(&mut self, channel: &Channel) {
        assert!(
            self.admits(channel),
            "reserve called on a channel the capacity map does not admit"
        );
        // A direct user–user channel consumes no switch qubits: contents
        // are unchanged, so the epoch (and any cache keyed on it) stays
        // valid.
        if channel.interior_switches().is_empty() {
            return;
        }
        for &s in channel.interior_switches() {
            self.free[s.index()] = self.free[s.index()].saturating_sub(2);
            self.sync(s.index());
        }
        self.epoch = next_epoch();
    }

    /// Releases the 2 qubits per interior switch previously reserved for
    /// `channel`. Saturates at `u32::MAX` for unbounded entries.
    pub fn release(&mut self, channel: &Channel) {
        if channel.interior_switches().is_empty() {
            return;
        }
        for &s in channel.interior_switches() {
            self.free[s.index()] = self.free[s.index()].saturating_add(2);
            self.sync(s.index());
        }
        self.epoch = next_epoch();
    }

    /// Permanently removes `qubits` free qubits at `v` (saturating at
    /// zero) — the survivability layer's qubit-capacity degradation.
    ///
    /// Unlike [`CapacityMap::reserve`], nothing can ever release a
    /// withdrawal: the qubits are gone, not lent to a channel. A
    /// zero-qubit withdrawal changes nothing and keeps the epoch (so
    /// caches stay warm).
    pub fn withdraw(&mut self, v: NodeId, qubits: u32) {
        if qubits == 0 {
            return;
        }
        self.free[v.index()] = self.free[v.index()].saturating_sub(qubits);
        self.sync(v.index());
        self.epoch = next_epoch();
    }

    /// Returns `qubits` free qubits to `v` (saturating at `u32::MAX`) —
    /// the inverse of [`CapacityMap::withdraw`], used by the stream
    /// scenario's churn arm to model a degraded switch coming back. A
    /// zero-qubit grant changes nothing and keeps the epoch.
    pub fn grant(&mut self, v: NodeId, qubits: u32) {
        if qubits == 0 {
            return;
        }
        self.free[v.index()] = self.free[v.index()].saturating_add(qubits);
        self.sync(v.index());
        self.epoch = next_epoch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{NodeKind, PhysicsParams};
    use qnet_graph::Graph;

    /// u0 — s1 — u2, link lengths 1000 each; plus direct u0—u2 of 5000.
    fn line_net() -> (QuantumNetwork, [NodeId; 3]) {
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let u0 = g.add_node(NodeKind::User);
        let s1 = g.add_node(NodeKind::Switch { qubits: 4 });
        let u2 = g.add_node(NodeKind::User);
        g.add_edge(u0, s1, 1000.0);
        g.add_edge(s1, u2, 1000.0);
        g.add_edge(u0, u2, 5000.0);
        (
            QuantumNetwork::from_graph(g, PhysicsParams::paper_default()),
            [u0, s1, u2],
        )
    }

    fn channel_via_switch(net: &QuantumNetwork, nodes: Vec<NodeId>) -> Channel {
        let edges = nodes
            .windows(2)
            .map(|w| net.graph().find_edge(w[0], w[1]).unwrap())
            .collect();
        let path = Path {
            nodes,
            edges,
            cost: 0.0,
        };
        Channel::from_path(net, path)
    }

    #[test]
    fn eq1_rate_two_links_one_swap() {
        let (net, [u0, s1, u2]) = line_net();
        let c = channel_via_switch(&net, vec![u0, s1, u2]);
        // p = exp(-1e-4 * 1000) = exp(-0.1) per link; q = 0.9; rate = p²q.
        let p = (-0.1f64).exp();
        assert!((c.rate.value() - p * p * 0.9).abs() < 1e-12);
        assert_eq!(c.link_count(), 2);
        assert_eq!(c.interior_switches(), &[s1]);
        assert!(c.validate(&net).is_ok());
    }

    #[test]
    fn eq1_rate_direct_link_no_swap() {
        let (net, [u0, _s1, u2]) = line_net();
        let c = channel_via_switch(&net, vec![u0, u2]);
        let p = (-0.5f64).exp();
        assert!((c.rate.value() - p).abs() < 1e-12);
        assert!(c.interior_switches().is_empty());
        assert!(c.validate(&net).is_ok());
    }

    #[test]
    fn user_pair_is_normalized() {
        let (net, [u0, s1, u2]) = line_net();
        let forward = channel_via_switch(&net, vec![u0, s1, u2]);
        let backward = channel_via_switch(&net, vec![u2, s1, u0]);
        assert_eq!(forward.user_pair(), backward.user_pair());
    }

    #[test]
    fn validate_rejects_switch_endpoint() {
        let (net, [u0, s1, _u2]) = line_net();
        let c = channel_via_switch(&net, vec![u0, s1]);
        assert_eq!(
            c.validate(&net),
            Err(ValidationError::EndpointNotUser { node: s1 })
        );
    }

    #[test]
    fn validate_rejects_user_interior() {
        // u0 - u2 - ... : fabricate a path that relays through user u2.
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let u0 = g.add_node(NodeKind::User);
        let u1 = g.add_node(NodeKind::User);
        let u2 = g.add_node(NodeKind::User);
        g.add_edge(u0, u1, 10.0);
        g.add_edge(u1, u2, 10.0);
        let net = QuantumNetwork::from_graph(g, PhysicsParams::paper_default());
        let c = channel_via_switch(&net, vec![u0, u1, u2]);
        assert_eq!(
            c.validate(&net),
            Err(ValidationError::InteriorNotSwitch { node: u1 })
        );
    }

    #[test]
    fn validate_rejects_tampered_rate() {
        let (net, [u0, s1, u2]) = line_net();
        let mut c = channel_via_switch(&net, vec![u0, s1, u2]);
        c.rate = Rate::from_prob(0.5);
        assert!(matches!(
            c.validate(&net),
            Err(ValidationError::RateMismatch { .. })
        ));
    }

    #[test]
    fn capacity_reserve_release_cycle() {
        let (net, [u0, s1, u2]) = line_net();
        let c = channel_via_switch(&net, vec![u0, s1, u2]);
        let mut cap = CapacityMap::new(&net);
        assert_eq!(cap.free(s1), 4);
        assert!(cap.admits(&c));
        cap.reserve(&c);
        assert_eq!(cap.free(s1), 2);
        assert!(cap.can_relay(s1));
        cap.reserve(&c);
        assert_eq!(cap.free(s1), 0);
        assert!(!cap.admits(&c));
        cap.release(&c);
        assert_eq!(cap.free(s1), 2);
    }

    #[test]
    #[should_panic(expected = "does not admit")]
    fn reserve_without_capacity_panics() {
        let (net, [u0, s1, u2]) = line_net();
        let c = channel_via_switch(&net, vec![u0, s1, u2]);
        let mut cap = CapacityMap::new(&net);
        cap.reserve(&c);
        cap.reserve(&c);
        cap.reserve(&c); // third reservation exceeds 4 qubits
    }

    #[test]
    fn users_are_never_capacity_limited() {
        let (net, [u0, _s1, _u2]) = line_net();
        let cap = CapacityMap::new(&net);
        assert_eq!(cap.free(u0), u32::MAX);
        assert!(cap.can_relay(u0), "users have unbounded memory");
    }

    #[test]
    fn epoch_tracks_mutation_and_clone_identity() {
        let (net, [u0, s1, u2]) = line_net();
        let via_switch = channel_via_switch(&net, vec![u0, s1, u2]);
        let direct = channel_via_switch(&net, vec![u0, u2]);
        let mut cap = CapacityMap::new(&net);

        let clone = cap.clone();
        assert_eq!(cap.epoch(), clone.epoch(), "unmutated clone shares epoch");

        // Direct user–user channels touch no switch qubits: no bump.
        let e0 = cap.epoch();
        cap.reserve(&direct);
        cap.release(&direct);
        assert_eq!(cap.epoch(), e0, "interior-less channels keep the epoch");

        cap.reserve(&via_switch);
        assert_ne!(cap.epoch(), e0, "reserve bumps the epoch");
        let e1 = cap.epoch();
        cap.release(&via_switch);
        assert_ne!(cap.epoch(), e1, "release bumps the epoch");

        // Two sibling clones mutated separately must never share epochs,
        // even though each performed "one mutation".
        let mut a = clone.clone();
        let mut b = clone.clone();
        a.reserve(&via_switch);
        b.reserve(&via_switch);
        assert_ne!(a.epoch(), b.epoch(), "epochs are globally unique");
        // ...but content equality still holds.
        assert_eq!(a, b);
    }

    #[test]
    fn withdraw_and_grant_are_inverse_and_epoch_aware() {
        let (net, [_u0, s1, _u2]) = line_net();
        let mut cap = CapacityMap::new(&net);
        let e0 = cap.epoch();
        cap.withdraw(s1, 0);
        cap.grant(s1, 0);
        assert_eq!(cap.epoch(), e0, "zero-qubit deltas keep the epoch");
        cap.withdraw(s1, 3);
        assert_eq!(cap.free(s1), 1);
        assert!(!cap.can_relay(s1));
        let e1 = cap.epoch();
        assert_ne!(e1, e0, "withdraw bumps the epoch");
        cap.grant(s1, 3);
        assert_eq!(cap.free(s1), 4);
        assert!(cap.can_relay(s1));
        assert_ne!(cap.epoch(), e1, "grant bumps the epoch");
    }

    /// `u0`, `u1` and `k` switches with `qubits` each: every switch sits
    /// between the two users and next to its successor, so a channel can
    /// relay through one switch or two.
    fn ladder_net(k: usize, qubits: u32) -> (QuantumNetwork, [NodeId; 2], Vec<NodeId>) {
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let u0 = g.add_node(NodeKind::User);
        let u1 = g.add_node(NodeKind::User);
        let switches: Vec<NodeId> = (0..k)
            .map(|_| g.add_node(NodeKind::Switch { qubits }))
            .collect();
        for (i, &s) in switches.iter().enumerate() {
            g.add_edge(u0, s, 100.0);
            g.add_edge(s, u1, 100.0);
            if let Some(&t) = switches.get(i + 1) {
                g.add_edge(s, t, 100.0);
            }
        }
        let net = QuantumNetwork::from_graph(g, PhysicsParams::paper_default());
        (net, [u0, u1], switches)
    }

    /// The bitset against `free(v) ≥ 2`, node by node, with no bit set
    /// past the last node.
    fn check_relay_bits(
        map: &CapacityMap,
        n: usize,
    ) -> Result<(), proptest::prelude::TestCaseError> {
        let bits = map.relay_bits();
        proptest::prop_assert_eq!(bits.len(), n.div_ceil(64));
        for i in 0..bits.len() * 64 {
            let bit = bits[i / 64] >> (i % 64) & 1 == 1;
            let want = i < n && map.free(NodeId::new(i)) >= 2;
            proptest::prop_assert_eq!(bit, want, "relay bit of node {}", i);
            if i < n {
                proptest::prop_assert_eq!(bit, map.can_relay(NodeId::new(i)));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        /// Random `reserve`/`release`/`withdraw`/`grant` sequences, with
        /// saturating amounts, keep the relay bitset equal to
        /// `free(v) ≥ 2` on every node — from a bounded or an unbounded
        /// map, and on two clones mutated apart.
        #[test]
        fn relay_bits_track_every_mutation(
            unbounded in 0u8..2,
            ops in proptest::collection::vec((0u8..5, 0usize..80, 0u8..8, 0u8..2), 1..80),
        ) {
            let (net, [u0, u1], sw) = ladder_net(75, 3);
            let n = net.graph().node_count();
            let fresh = if unbounded == 1 { CapacityMap::unbounded(&net) } else { CapacityMap::new(&net) };
            check_relay_bits(&fresh, n)?;
            let mut maps = [fresh.clone(), fresh];
            for (kind, target, amount, side) in ops {
                let map = &mut maps[usize::from(side)];
                let i = target % (sw.len() - 1);
                let (s, t) = (sw[i], sw[i + 1]);
                let qubits = if amount == 7 { u32::MAX } else { u32::from(amount) };
                let hops = if target % 2 == 0 { vec![u0, s, u1] } else { vec![u0, s, t, u1] };
                let channel = channel_via_switch(&net, hops);
                match kind {
                    0 if map.admits(&channel) => map.reserve(&channel),
                    1 => map.release(&channel),
                    2 => map.withdraw(s, qubits),
                    3 => map.grant(s, qubits),
                    4 => maps[1 - usize::from(side)] = maps[usize::from(side)].clone(),
                    _ => {}
                }
                for map in &maps {
                    check_relay_bits(map, n)?;
                }
            }
        }
    }

    #[test]
    fn unbounded_map_admits_everything() {
        let (net, [u0, s1, u2]) = line_net();
        let c = channel_via_switch(&net, vec![u0, s1, u2]);
        let mut cap = CapacityMap::unbounded(&net);
        for _ in 0..100 {
            assert!(cap.admits(&c));
            cap.reserve(&c);
        }
    }
}
