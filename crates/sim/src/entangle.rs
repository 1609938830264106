//! Entanglement bookkeeping: which qubits currently form one entangled
//! group.
//!
//! The simulator does not track amplitudes — for Bell/GHZ distribution
//! protocols the *membership structure* (which qubits are jointly
//! entangled) plus success probabilities is exactly the abstraction the
//! paper's model uses. A [`Registry`] is created fresh each time slot;
//! Bell pairs, BSM swaps, and fusions manipulate group membership, and
//! the engine asserts end-to-end entanglement from the registry state,
//! not from a formula.

use qnet_graph::UnionFind;

/// A qubit allocated for the current time slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QubitId(usize);

impl QubitId {
    /// Dense index of this qubit within its registry.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Per-slot entanglement state over dynamically allocated qubits.
#[derive(Debug)]
pub struct Registry {
    node_of: Vec<usize>,
    entangled: Vec<bool>,
    consumed: Vec<bool>,
    groups: UnionFind,
}

impl Registry {
    /// Creates a registry able to hold up to `max_qubits` allocations.
    ///
    /// The bound exists because the union-find is pre-sized; allocating
    /// beyond it panics.
    pub fn with_capacity(max_qubits: usize) -> Self {
        Registry {
            node_of: Vec::with_capacity(max_qubits),
            entangled: vec![false; max_qubits],
            consumed: vec![false; max_qubits],
            groups: UnionFind::new(max_qubits),
        }
    }

    /// Allocates a fresh (unentangled) qubit residing at `node`.
    ///
    /// # Panics
    ///
    /// Panics when the capacity given at construction is exhausted.
    pub fn alloc(&mut self, node: usize) -> QubitId {
        let id = self.node_of.len();
        assert!(
            id < self.groups.len(),
            "registry capacity {} exhausted",
            self.groups.len()
        );
        self.node_of.push(node);
        QubitId(id)
    }

    /// The node a qubit resides at.
    pub fn node_of(&self, q: QubitId) -> usize {
        self.node_of[q.0]
    }

    /// Records a fresh Bell pair between `a` and `b` (link-level heralded
    /// entanglement succeeded).
    ///
    /// # Panics
    ///
    /// Panics if either qubit is already entangled or consumed — link
    /// generation always targets fresh memory.
    pub fn bell_pair(&mut self, a: QubitId, b: QubitId) {
        assert!(
            !self.entangled[a.0] && !self.entangled[b.0],
            "bell_pair on already-entangled qubits"
        );
        assert!(
            !self.consumed[a.0] && !self.consumed[b.0],
            "bell_pair on consumed qubits"
        );
        self.entangled[a.0] = true;
        self.entangled[b.0] = true;
        self.groups.union(a.0, b.0);
    }

    /// Performs a *successful* BSM at a switch holding `x` and `y`:
    /// splices their two entanglement groups into one and consumes both
    /// measured qubits (they are freed, matching the paper's Fig. 1).
    ///
    /// # Panics
    ///
    /// Panics if the two qubits are not co-located, not entangled, or
    /// already consumed.
    pub fn swap(&mut self, x: QubitId, y: QubitId) {
        assert_eq!(
            self.node_of[x.0], self.node_of[y.0],
            "BSM requires co-located qubits"
        );
        assert!(
            self.entangled[x.0] && self.entangled[y.0],
            "BSM requires both qubits entangled"
        );
        assert!(
            !self.consumed[x.0] && !self.consumed[y.0],
            "BSM on consumed qubits"
        );
        self.groups.union(x.0, y.0);
        self.consumed[x.0] = true;
        self.consumed[y.0] = true;
    }

    /// Performs a *successful* n-fusion (GHZ projective measurement) on
    /// co-located qubits: merges all their groups and consumes them.
    ///
    /// # Panics
    ///
    /// Panics on fewer than 2 qubits or the same preconditions as
    /// [`Registry::swap`].
    pub fn fuse(&mut self, qubits: &[QubitId]) {
        assert!(qubits.len() >= 2, "fusion needs at least 2 qubits");
        let node = self.node_of[qubits[0].0];
        for &q in qubits {
            assert_eq!(self.node_of[q.0], node, "fusion requires co-location");
            assert!(self.entangled[q.0], "fusion requires entangled qubits");
            assert!(!self.consumed[q.0], "fusion on consumed qubit");
        }
        for w in qubits.windows(2) {
            self.groups.union(w[0].0, w[1].0);
        }
        for &q in qubits {
            self.consumed[q.0] = true;
        }
    }

    /// `true` when the two qubits belong to one entangled group and
    /// neither has been consumed by a measurement.
    pub fn entangled_together(&mut self, a: QubitId, b: QubitId) -> bool {
        self.entangled[a.0]
            && self.entangled[b.0]
            && !self.consumed[a.0]
            && !self.consumed[b.0]
            && self.groups.same_set(a.0, b.0)
    }

    /// `true` when all listed qubits are live (entangled, unconsumed) and
    /// mutually in one group.
    pub fn all_entangled_together(&mut self, qubits: &[QubitId]) -> bool {
        match qubits.split_first() {
            None => true,
            Some((&first, rest)) => rest.iter().all(|&q| self.entangled_together(first, q)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_splices_two_pairs() {
        // Alice(0) — Switch(1) — Bob(2): the paper's Fig. 1.
        let mut reg = Registry::with_capacity(4);
        let alice = reg.alloc(0);
        let s_left = reg.alloc(1);
        let s_right = reg.alloc(1);
        let bob = reg.alloc(2);
        reg.bell_pair(alice, s_left);
        reg.bell_pair(s_right, bob);
        assert!(!reg.entangled_together(alice, bob));
        reg.swap(s_left, s_right);
        assert!(reg.entangled_together(alice, bob));
        // Switch qubits are consumed ("freed qubit" in Fig. 1).
        assert!(!reg.entangled_together(alice, s_left));
    }

    #[test]
    fn fusion_entangles_three_users() {
        // The paper's Fig. 2: 3-fusion at a switch.
        let mut reg = Registry::with_capacity(6);
        let users: Vec<QubitId> = (0..3).map(|n| reg.alloc(n)).collect();
        let switch_qubits: Vec<QubitId> = (0..3).map(|_| reg.alloc(9)).collect();
        for i in 0..3 {
            reg.bell_pair(users[i], switch_qubits[i]);
        }
        reg.fuse(&switch_qubits);
        assert!(reg.all_entangled_together(&users));
    }

    #[test]
    fn fresh_qubits_are_not_entangled() {
        let mut reg = Registry::with_capacity(2);
        let a = reg.alloc(0);
        let b = reg.alloc(1);
        assert!(!reg.entangled_together(a, b));
        assert!(reg.all_entangled_together(&[]));
        assert!(reg.all_entangled_together(&[a]));
    }

    #[test]
    #[should_panic(expected = "co-located")]
    fn swap_requires_colocation() {
        let mut reg = Registry::with_capacity(4);
        let a = reg.alloc(0);
        let b = reg.alloc(1);
        let c = reg.alloc(2);
        let d = reg.alloc(3);
        reg.bell_pair(a, b);
        reg.bell_pair(c, d);
        reg.swap(b, c); // different nodes
    }

    #[test]
    #[should_panic(expected = "already-entangled")]
    fn double_bell_pair_rejected() {
        let mut reg = Registry::with_capacity(3);
        let a = reg.alloc(0);
        let b = reg.alloc(1);
        let c = reg.alloc(2);
        reg.bell_pair(a, b);
        reg.bell_pair(b, c);
    }

    #[test]
    #[should_panic(expected = "consumed")]
    fn measured_qubits_cannot_swap_again() {
        let mut reg = Registry::with_capacity(6);
        let q: Vec<QubitId> = (0..6).map(|_| reg.alloc(1)).collect();
        reg.bell_pair(q[0], q[1]);
        reg.bell_pair(q[2], q[3]);
        reg.swap(q[1], q[2]);
        reg.bell_pair(q[4], q[5]);
        reg.swap(q[1], q[4]); // q[1] was consumed
    }

    #[test]
    fn chain_of_swaps_spans_long_channel() {
        // u — s — s — s — u: three switches, three swaps.
        let mut reg = Registry::with_capacity(8);
        let left = reg.alloc(0);
        let mut prev = left;
        let mut pending: Vec<(QubitId, QubitId)> = Vec::new();
        for node in 1..=3 {
            let in_q = reg.alloc(node);
            let out_q = reg.alloc(node);
            reg.bell_pair(prev, in_q);
            pending.push((in_q, out_q));
            prev = out_q;
        }
        let right = reg.alloc(4);
        reg.bell_pair(prev, right);
        for (in_q, out_q) in pending {
            reg.swap(in_q, out_q);
        }
        assert!(reg.entangled_together(left, right));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn over_allocation_panics() {
        let mut reg = Registry::with_capacity(1);
        reg.alloc(0);
        reg.alloc(0);
    }
}
