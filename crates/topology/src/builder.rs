//! Shared machinery for the topology generators: node placement, exact-size
//! weighted edge sampling, and connectivity repair.
//!
//! The weighted sampler replays its floating-point folds a block at a time,
//! bit for bit (DESIGN.md §17).

use qnet_graph::connectivity::{bridges, connected_components};
use qnet_graph::{Graph, NodeId};
use rand::seq::IndexedRandom;
use rand::Rng;

use crate::point::Point;
use crate::spec::SpatialGraph;

/// Places `n` nodes uniformly at random in the square `[0, area]²`.
pub fn place_nodes<R: Rng>(n: usize, area: f64, rng: &mut R) -> Vec<Point> {
    (0..n)
        .map(|_| Point::new(rng.random_range(0.0..=area), rng.random_range(0.0..=area)))
        .collect()
}

/// Samples exactly `m` distinct node pairs without replacement, weighting
/// pair `pairs[k]` by `weights[k]` (weights are expected non-negative).
///
/// The pairs not yet drawn are kept in a list, initially in `pairs` order.
/// Each draw sums their weights in list order (starting from `-0.0`). If
/// the sum is positive, it draws a target uniformly from `[0, sum)`,
/// subtracts the listed weights from it one by one, and picks the first
/// pair at which the target goes negative; when round-off keeps it
/// non-negative to the end, the last listed pair is picked, whatever its
/// weight. Otherwise (no positive sum) it picks a listed pair uniformly.
/// The picked pair leaves the list by `swap_remove`. So a zero-weight pair
/// is picked only by that round-off fallback or once no listed weight is
/// positive.
///
/// Both sums are replayed block by block rather than element by element,
/// with the same bits (DESIGN.md §17).
///
/// # Panics
///
/// Panics if `m > pairs.len()` or the slices disagree in length.
pub fn sample_weighted_pairs<R: Rng>(
    pairs: &[(usize, usize)],
    weights: &[f64],
    m: usize,
    rng: &mut R,
) -> Vec<(usize, usize)> {
    assert_eq!(pairs.len(), weights.len(), "pairs/weights length mismatch");
    assert!(
        m <= pairs.len(),
        "cannot sample {m} edges from {} candidate pairs",
        pairs.len()
    );
    let mut remaining = Remaining::new(weights);
    let mut out = Vec::with_capacity(m);
    while out.len() < m {
        let total = remaining.total();
        let picked_pos = if total > 0.0 {
            remaining.scan(rng.random_range(0.0..total))
        } else {
            // All remaining weights are zero: fall back to uniform.
            rng.random_range(0..remaining.len())
        };
        out.push(pairs[remaining.swap_remove(picked_pos)]);
    }
    out
}

/// Positions of the remaining list per block.
const BLOCK: usize = 256;
/// Binades per block with a quantized weight sum: the window ends one
/// binade above the first total's (a later total may round up into it).
const BINADES: usize = 24;
/// A block sum not yet computed.
const UNSET: u64 = u64::MAX;
/// What a weight no jump may cross adds to a block sum. It exceeds the
/// `2^52` units a jump can move within a binade, so one such weight bars
/// the block's jump; and `BLOCK` of them stay below [`UNSET`], so sums
/// still update by exact subtraction.
const HARD: u64 = 1 << 54;
const MANTISSA: u64 = (1 << 52) - 1;

/// The sampler's remaining list with what replays its two folds a block
/// at a time (DESIGN.md §17).
///
/// Inside one binade `[2^e, 2^(e+1))` every double is a multiple of
/// `U = 2^(e-52)`, so while a fold stays in that binade each step moves it
/// by a whole number of units: `RNE(w / U)`, when `w / U` is not an exact
/// tie. A block whose per-binade unit sum keeps the fold provably inside
/// the binade is crossed by one integer add on the fold's bits; any other
/// block is folded element by element, exactly as the plain loop does.
struct Remaining<'w> {
    weights: &'w [f64],
    /// Indices into `weights` of the pairs not yet drawn, in list order.
    order: Vec<usize>,
    /// `starts[b]` is the sum fold's value before block `b`; it is current
    /// for `b <= fresh`.
    starts: Vec<f64>,
    fresh: usize,
    /// `sums[b * BINADES + s]`: block `b`'s weights in units of binade
    /// `top - s` (see [`quantize`]), or [`UNSET`]. Filled on first use and
    /// kept exact across removals.
    sums: Vec<u64>,
    /// Biased exponent of the window's highest binade.
    top: u64,
}

impl<'w> Remaining<'w> {
    fn new(weights: &'w [f64]) -> Self {
        let order: Vec<usize> = (0..weights.len()).collect();
        let mut starts = Vec::with_capacity(order.len().div_ceil(BLOCK) + 1);
        let mut total = -0.0;
        starts.push(total);
        for block in order.chunks(BLOCK) {
            total = block.iter().fold(total, |p, &k| p + weights[k]);
            starts.push(total);
        }
        let fresh = starts.len() - 1;
        Remaining {
            weights,
            sums: vec![UNSET; fresh * BINADES],
            top: (total.abs().to_bits() >> 52) + 1,
            order,
            starts,
            fresh,
        }
    }

    fn len(&self) -> usize {
        self.order.len()
    }

    fn blocks(&self) -> usize {
        self.order.len().div_ceil(BLOCK)
    }

    fn block(&self, b: usize) -> &[usize] {
        let start = b * BLOCK;
        &self.order[start..self.order.len().min(start + BLOCK)]
    }

    /// The window slot of `x`'s binade, if `x` is positive, normal and in
    /// the window.
    fn slot(&self, x: f64) -> Option<usize> {
        if !(x.is_normal() && x > 0.0) {
            return None;
        }
        let slot = self.top.checked_sub(x.to_bits() >> 52)?;
        (slot < BINADES as u64).then_some(slot as usize)
    }

    /// Block `b`'s unit sum in window slot `slot`, computed on first use.
    fn block_sum(&mut self, b: usize, slot: usize) -> u64 {
        let i = b * BINADES + slot;
        if self.sums[i] == UNSET {
            let binade = self.top - slot as u64;
            self.sums[i] = self
                .block(b)
                .iter()
                .map(|&k| quantize(self.weights[k], binade))
                .sum();
        }
        self.sums[i]
    }

    /// Adds (or removes) `weights[k]` to block `b`'s computed unit sums.
    fn shift_sums(&mut self, b: usize, k: usize, add: bool) {
        let sums = &mut self.sums[b * BINADES..(b + 1) * BINADES];
        for (slot, sum) in sums.iter_mut().enumerate() {
            if *sum != UNSET {
                let q = quantize(self.weights[k], self.top - slot as u64);
                *sum = if add { *sum + q } else { *sum - q };
            }
        }
    }

    /// The weights of the list summed in order from `-0.0`: the plain
    /// `Iterator::sum` fold, bit for bit.
    fn total(&mut self) -> f64 {
        let blocks = self.blocks();
        let mut b = self.fresh;
        while b < blocks {
            let p = self.starts[b];
            if let Some(slot) = self.slot(p) {
                // Jump while the blocks fit p's binade: p = k·U with
                // k = 2^52 + mant, and k + Σq ≤ 2^53 keeps every partial sum
                // on the grid of U. A step whose exact sum reaches
                // 2^(e+1) rounds to 2^(e+1) on either grid, and the steps
                // after it add weights under U/2, which round to nothing on
                // either grid. Landing on 2^(e+1) ends the run.
                let (base, mut mant) = (p.to_bits() & !MANTISSA, p.to_bits() & MANTISSA);
                let first = b;
                while b < blocks && mant < 1 << 52 {
                    let s = self.block_sum(b, slot);
                    if mant + s > 1 << 52 {
                        break;
                    }
                    mant += s;
                    b += 1;
                    self.starts[b] = f64::from_bits(base + mant);
                }
                if b > first {
                    continue;
                }
            }
            let weights = self.weights;
            self.starts[b + 1] = self.block(b).iter().fold(p, |p, &k| p + weights[k]);
            b += 1;
        }
        self.fresh = blocks;
        self.starts[blocks]
    }

    /// The list position at which `target` minus the listed weights, taken
    /// in order, first goes negative; the last position if it never does.
    /// Meant to follow [`Remaining::total`]: which blocks it tries to jump
    /// is read from the sum fold's block starts (whether a jump is exact
    /// is not).
    fn scan(&mut self, target: f64) -> usize {
        let blocks = self.blocks();
        let mut t = target;
        let mut b = 0;
        while b < blocks {
            if let Some(slot) = self.slot(t) {
                // Jump while the blocks fit t's binade: t = k·U with
                // k = 2^52 + mant, and ending at k − Σq ≥ 2^52 + 1 (that is,
                // Σq < mant) keeps every exact difference above
                // k_i − q_i − 1/2 ≥ 2^e, so each step rounds on the grid of
                // U and none goes negative.
                let (base, mut mant) = (t.to_bits() & !MANTISSA, t.to_bits() & MANTISSA);
                let floor = f64::from_bits(base);
                let first = b;
                while b < blocks {
                    // Try only blocks whose weight by the last sum fold
                    // leaves t inside its binade: a block holding the stop
                    // or a binade edge is folded anyway, and its unit sum
                    // would be computed for nothing.
                    let weight = self.starts[b + 1] - self.starts[b];
                    if f64::from_bits(base + mant) - weight <= floor {
                        break;
                    }
                    let s = self.block_sum(b, slot);
                    if s >= mant {
                        break;
                    }
                    mant -= s;
                    b += 1;
                }
                t = f64::from_bits(base + mant);
                if b > first {
                    continue;
                }
            }
            let weights = self.weights;
            if let Some(i) = self.block(b).iter().position(|&k| {
                t -= weights[k];
                t < 0.0
            }) {
                return b * BLOCK + i;
            }
            b += 1;
        }
        self.order.len() - 1 // fallback for fp round-off
    }

    /// Removes list position `pos` by `swap_remove`; returns its index
    /// into `weights`.
    fn swap_remove(&mut self, pos: usize) -> usize {
        let last = self.order.len() - 1;
        let (k, moved) = (self.order[pos], self.order[last]);
        self.shift_sums(pos / BLOCK, k, false);
        if pos != last {
            self.shift_sums(last / BLOCK, moved, false);
            self.shift_sums(pos / BLOCK, moved, true);
        }
        self.order.swap_remove(pos);
        self.fresh = self.fresh.min(pos / BLOCK);
        k
    }
}

/// `w` in units `U` of the binade with biased exponent `binade`, rounded to
/// nearest: the exact step `w` makes on a fold that stays on that grid.
/// [`HARD`] when no such step exists: `w` negative (or `-0.0`), not finite,
/// at least `2^(e+1)`, or an exact half-unit tie (whose rounding depends
/// on the fold's parity). Exact for subnormal `w` too.
fn quantize(w: f64, binade: u64) -> u64 {
    let bits = w.to_bits();
    // The sign bit lands above every finite exponent, so negative weights
    // fail the range test below with the non-finite ones.
    let (exp, frac) = (bits >> 52, bits & MANTISSA);
    let (mant, exp) = if exp == 0 {
        (frac, 1)
    } else {
        (frac | 1 << 52, exp)
    };
    if exp > binade {
        return HARD;
    }
    let shift = binade - exp;
    if shift == 0 {
        return mant;
    }
    if shift > 53 {
        return 0; // mant < 2^53, so mant / 2^shift < 1/2
    }
    let (rest, half) = (mant & ((1 << shift) - 1), 1 << (shift - 1));
    if rest == half {
        HARD
    } else {
        (mant >> shift) + u64::from(rest > half)
    }
}

/// Builds a [`SpatialGraph`] from node positions and an edge list of node
/// index pairs; edge payloads are Euclidean lengths.
pub fn assemble(positions: &[Point], edges: &[(usize, usize)]) -> SpatialGraph {
    let mut g: SpatialGraph = Graph::with_capacity(positions.len(), edges.len());
    for &p in positions {
        g.add_node(p);
    }
    for &(a, b) in edges {
        let length = positions[a].distance(positions[b]);
        g.add_edge(NodeId::new(a), NodeId::new(b), length);
    }
    g
}

/// Repairs connectivity while preserving the edge count.
///
/// While the graph is disconnected: add the shortest absent edge joining
/// two different components, then remove a random non-bridge edge (which
/// exists whenever we just closed a gap in a graph with a cycle; if the
/// graph is a forest, the added edge is kept and the count grows by one —
/// with the paper's default of `D = 6 ≥ 2` this never happens in practice).
pub fn ensure_connected<R: Rng>(g: SpatialGraph, rng: &mut R) -> SpatialGraph {
    let mut g = g;
    loop {
        let (labels, comps) = connected_components(&g);
        if comps <= 1 {
            return g;
        }
        // Find the shortest cross-component pair.
        let mut best: Option<(f64, usize, usize)> = None;
        for a in 0..g.node_count() {
            for b in (a + 1)..g.node_count() {
                if labels[a] != labels[b] {
                    let d = g.node(NodeId::new(a)).distance(*g.node(NodeId::new(b)));
                    if best.is_none_or(|(bd, _, _)| d < bd) {
                        best = Some((d, a, b));
                    }
                }
            }
        }
        let (_, a, b) = best.expect("disconnected graph has a cross pair");

        // Remove one random non-bridge edge to keep |E| constant, but never
        // one we cannot afford (a forest keeps all edges).
        let bridge_set: std::collections::HashSet<_> = bridges(&g).into_iter().collect();
        let removable: Vec<_> = g.edge_ids().filter(|e| !bridge_set.contains(e)).collect();
        let to_remove = removable.choose(rng).copied();

        let mut next: SpatialGraph = Graph::with_capacity(g.node_count(), g.edge_count() + 1);
        for n in g.node_ids() {
            next.add_node(*g.node(n));
        }
        for e in g.edge_refs() {
            if Some(e.id) != to_remove {
                next.add_edge(e.a, e.b, *e.payload);
            }
        }
        let (na, nb) = (NodeId::new(a), NodeId::new(b));
        let length = next.node(na).distance(*next.node(nb));
        next.add_edge(na, nb, length);
        g = next;
    }
}

/// All unordered node pairs `(i, j)`, `i < j`, for `n` nodes.
pub fn all_pairs(n: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            out.push((i, j));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qnet_graph::connectivity::is_connected;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// The sampler as first written, both folds element by element over
    /// the remaining list: the reference the block replay must match bit
    /// for bit.
    fn reference_sample<R: Rng>(
        pairs: &[(usize, usize)],
        weights: &[f64],
        m: usize,
        rng: &mut R,
    ) -> Vec<(usize, usize)> {
        let mut remaining: Vec<usize> = (0..pairs.len()).collect();
        let mut out = Vec::with_capacity(m);
        while out.len() < m {
            let total = reference_total(weights, &remaining);
            let picked_pos = if total > 0.0 {
                reference_scan(weights, &remaining, rng.random_range(0.0..total))
            } else {
                // All remaining weights are zero: fall back to uniform.
                rng.random_range(0..remaining.len())
            };
            let k = remaining.swap_remove(picked_pos);
            out.push(pairs[k]);
        }
        out
    }

    fn reference_total(weights: &[f64], remaining: &[usize]) -> f64 {
        remaining.iter().map(|&k| weights[k]).sum()
    }

    fn reference_scan(weights: &[f64], remaining: &[usize], mut target: f64) -> usize {
        let mut pos = remaining.len() - 1; // fallback for fp round-off
        for (idx, &k) in remaining.iter().enumerate() {
            target -= weights[k];
            if target < 0.0 {
                pos = idx;
                break;
            }
        }
        pos
    }

    /// Replays `m` draws and checks, at every draw and on the same
    /// remaining list: the total's bits, the scan position at the drawn
    /// target, and scan positions one ulp around and at prefix-fold values
    /// (on block edges and at random positions). Then checks that
    /// `sample_weighted_pairs` and the reference make the same picks and
    /// leave the generator in the same state.
    fn check_replay(weights: &[f64], m: usize, seed: u64) -> Result<(), String> {
        let pairs: Vec<(usize, usize)> = (0..weights.len()).map(|k| (k, k)).collect();
        let mut expected_rng = StdRng::seed_from_u64(seed);
        let expected = reference_sample(&pairs, weights, m, &mut expected_rng);

        let mut rng = StdRng::seed_from_u64(seed);
        let mut probe_rng = StdRng::seed_from_u64(!seed);
        let mut remaining = Remaining::new(weights);
        let mut picks = Vec::with_capacity(m);
        for draw in 0..m {
            let total = remaining.total();
            let want = reference_total(weights, &remaining.order);
            if total.to_bits() != want.to_bits() {
                return Err(format!(
                    "draw {draw}: total {total:e} != reference {want:e}"
                ));
            }
            let prefix: Vec<f64> = remaining
                .order
                .iter()
                .scan(-0.0, |p, &k| {
                    *p += weights[k];
                    Some(*p)
                })
                .collect();
            let len = remaining.len();
            let mut at: Vec<usize> = (1..=len / BLOCK)
                .flat_map(|b| [b * BLOCK - 1, b * BLOCK])
                .filter(|&i| i < len)
                .collect();
            at.extend((0..3).map(|_| probe_rng.random_range(0..len)));
            for i in at {
                for target in [prefix[i].next_down(), prefix[i], prefix[i].next_up()] {
                    let (got, want) = (
                        remaining.scan(target),
                        reference_scan(weights, &remaining.order, target),
                    );
                    if got != want {
                        return Err(format!(
                            "draw {draw}: scan probe {target:e} at {got} != reference {want}"
                        ));
                    }
                }
            }
            let picked = if total > 0.0 {
                let target = rng.random_range(0.0..total);
                let want = reference_scan(weights, &remaining.order, target);
                let got = remaining.scan(target);
                if got != want {
                    return Err(format!(
                        "draw {draw}: scan {target:e} at {got} != reference {want}"
                    ));
                }
                got
            } else {
                rng.random_range(0..remaining.len())
            };
            picks.push(pairs[remaining.swap_remove(picked)]);
        }
        if picks != expected || rng != expected_rng {
            return Err("per-draw replay: picks or generator state differ".into());
        }
        let mut rng = StdRng::seed_from_u64(seed);
        if sample_weighted_pairs(&pairs, weights, m, &mut rng) != expected || rng != expected_rng {
            return Err("sample_weighted_pairs: picks or generator state differ".into());
        }
        Ok(())
    }

    /// Waxman kernel weights (default parameters) over `n` random nodes.
    fn waxman_weights(n: usize, rng: &mut StdRng) -> Vec<f64> {
        let points = place_nodes(n, 10_000.0, rng);
        let l_max = 10_000.0 * std::f64::consts::SQRT_2;
        all_pairs(n)
            .iter()
            .map(|&(i, j)| 0.1 * (-points[i].distance(points[j]) / (0.4 * l_max)).exp())
            .collect()
    }

    /// Volchenkov pair weights (γ = 2.5) over `n` shuffled ranks.
    fn volchenkov_weights(n: usize, rng: &mut StdRng) -> Vec<f64> {
        let mut ranks: Vec<usize> = (0..n).collect();
        ranks.shuffle(rng);
        let node: Vec<f64> = ranks
            .iter()
            .map(|&r| ((r + 1) as f64).powf(-1.0 / 1.5))
            .collect();
        all_pairs(n)
            .iter()
            .map(|&(i, j)| node[i] * node[j])
            .collect()
    }

    /// `len` weights of the form `integer · 2^-shift` with integers below
    /// `2^bits`. Once a fold passes `2^53 · 2^-shift`, every odd integer is
    /// an exact half-unit tie there, and more even ones further up.
    fn dyadic_weights(len: usize, bits: u32, shift: i32, rng: &mut StdRng) -> Vec<f64> {
        (0..len)
            .map(|_| rng.random_range(0..1u64 << bits) as f64 * 2f64.powi(-shift))
            .collect()
    }

    /// `len` weights with random mantissas and biased exponents drawn from
    /// `exponents` (0 gives subnormals and zero).
    fn mixed_exponent_weights(
        len: usize,
        exponents: std::ops::RangeInclusive<u64>,
        rng: &mut StdRng,
    ) -> Vec<f64> {
        (0..len)
            .map(|_| {
                let exp = rng.random_range(exponents.clone());
                f64::from_bits(exp << 52 | rng.random_range(0..1u64 << 52))
            })
            .collect()
    }

    /// The unit of binade `[1, 2)`, `2^-52`.
    const U: f64 = f64::EPSILON;

    /// Pads each listed block with zeros to a full [`BLOCK`].
    fn padded(blocks: &[&[f64]]) -> Vec<f64> {
        blocks
            .iter()
            .flat_map(|b| {
                b.iter()
                    .copied()
                    .chain(std::iter::repeat_n(0.0, BLOCK - b.len()))
            })
            .collect()
    }

    /// Checks the replayed total against the reference and `expected`
    /// after one removal from block 0 (a zero, replaced by the trailing
    /// zero), so that blocks 1.. are refolded through the jump path: the
    /// first total is folded element by element.
    fn assert_refolded_total(weights: &[f64], expected: f64) {
        let mut remaining = Remaining::new(weights);
        remaining.swap_remove(1);
        let want = reference_total(weights, &remaining.order);
        assert_eq!(
            want.to_bits(),
            expected.to_bits(),
            "hand-built reference {want:e}"
        );
        let got = remaining.total();
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "replayed total {got:e} != {want:e}"
        );
    }

    #[test]
    fn sum_jump_lands_exactly_on_the_next_binade() {
        // 1.5 + 0.25 + (0.25 - U/4): the block's units reach 2^53 exactly.
        let w = padded(&[&[1.5], &[0.25, 0.25 - U / 4.0], &[0.0]]);
        assert_refolded_total(&w, 2.0);
        // One unit short of 2, then one unit.
        let w = padded(&[&[2.0 - U], &[U], &[0.0]]);
        assert_refolded_total(&w, 2.0);
    }

    #[test]
    fn sum_crossing_the_next_binade_by_under_half_a_unit_rounds_back() {
        // 2 - U + 1.4U = 2 + 0.4U rounds to 2 on either grid.
        let w = padded(&[&[2.0 - U], &[1.4 * U], &[0.0]]);
        assert_refolded_total(&w, 2.0);
        // A second step past 2 rounds on the grid of 2U: 2 + 0.6U -> 2,
        // though each step is one unit of U.
        let w = padded(&[&[2.0 - U], &[1.4 * U, 0.6 * U], &[0.0]]);
        assert_refolded_total(&w, 2.0);
        // 2 + U is a tie on the grid of 2U and rounds to even, 2.
        let w = padded(&[&[2.0 - U], &[U, U], &[0.0]]);
        assert_refolded_total(&w, 2.0);
    }

    #[test]
    fn half_unit_ties_round_to_even() {
        // 1 + U/2 ties between 1 (even) and 1 + U (odd).
        let w = padded(&[&[1.0], &[U / 2.0], &[0.0]]);
        assert_refolded_total(&w, 1.0);
        // 1 + U + U/2 ties between 1 + U (odd) and 1 + 2U (even).
        let w = padded(&[&[1.0 + U], &[U / 2.0], &[0.0]]);
        assert_refolded_total(&w, 1.0 + 2.0 * U);
    }

    #[test]
    fn scan_falling_below_the_binade_rounds_on_the_finer_grid() {
        // The scan reaches block 1 at t = 1 + U. There 1 + U - 0.9U rounds
        // to 1 on the grid of U, and 1 - 0.4U falls below the binade, so it
        // rounds on the grid of U/2, to 1 - U/2; block 2 then goes negative
        // at its second weight. Stepping block 1 on the grid of U would end
        // at 1 and run on to the third. Block 0 lifts the sum fold to 2,
        // where block 1's weight rounds away, so its jump is tried.
        let w = padded(&[
            &[1.0, 1.0 + U],
            &[0.9 * U, 0.4 * U],
            &[1.0 - U / 2.0, U / 4.0, 1.0],
            &[0.0],
        ]);
        let order: Vec<usize> = (0..w.len()).collect();
        let target = 3.0 + 2.0 * U;
        assert_eq!(reference_scan(&w, &order, target), 2 * BLOCK + 1);
        let mut remaining = Remaining::new(&w);
        assert_eq!(remaining.total(), reference_total(&w, &order));
        assert_eq!(remaining.scan(target), 2 * BLOCK + 1);
    }

    #[test]
    fn quantize_rounds_to_nearest_and_flags_what_cannot_jump() {
        let one = 1023; // biased exponent of [1, 2)
        assert_eq!(quantize(0.0, one), 0);
        assert_eq!(quantize(U, one), 1);
        assert_eq!(quantize(1.4 * U, one), 1);
        assert_eq!(quantize(1.6 * U, one), 2);
        assert_eq!(quantize(1.0, one), 1 << 52);
        assert_eq!(
            quantize(f64::from_bits(1), 1),
            1,
            "the least subnormal is one unit of binade 1"
        );
        assert_eq!(quantize(f64::from_bits(1), one), 0);
        for hard in [U / 2.0, 2.5 * U, 2.0, -U, -0.0, f64::INFINITY, f64::NAN] {
            assert_eq!(quantize(hard, one), HARD, "{hard:e}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn replay_matches_reference_on_waxman_weights(n in 46usize..64, seed in 0u64..1 << 40) {
            let weights = waxman_weights(n, &mut StdRng::seed_from_u64(seed));
            check_replay(&weights, 3 * n, seed).map_err(TestCaseError::Fail)?;
        }

        #[test]
        fn replay_matches_reference_on_volchenkov_weights(n in 46usize..64, seed in 0u64..1 << 40) {
            let weights = volchenkov_weights(n, &mut StdRng::seed_from_u64(seed));
            check_replay(&weights, 3 * n, seed).map_err(TestCaseError::Fail)?;
        }

        #[test]
        fn replay_matches_reference_on_dyadic_weights(
            len in 1usize..1400,
            bits in 30u32..=53,
            shift in 0i32..80,
            seed in 0u64..1 << 40,
        ) {
            let weights = dyadic_weights(len, bits, shift, &mut StdRng::seed_from_u64(seed));
            check_replay(&weights, len.min(120), seed).map_err(TestCaseError::Fail)?;
        }

        #[test]
        fn replay_matches_reference_with_zero_weights(
            len in 1usize..1400,
            zero_share in 0u32..=4,
            seed in 0u64..1 << 40,
        ) {
            // zero_share quarters of the weights are zero; 4 is all-zero.
            let mut rng = StdRng::seed_from_u64(seed);
            let weights: Vec<f64> = (0..len)
                .map(|_| if rng.random_range(0..4u32) < zero_share { 0.0 } else { rng.random_range(0.0..1.0) })
                .collect();
            check_replay(&weights, len.min(120), seed).map_err(TestCaseError::Fail)?;
        }

        #[test]
        fn replay_matches_reference_on_subnormal_and_mixed_exponent_weights(
            len in 1usize..1400,
            low in 0u64..1100,
            spread in 0u64..64,
            subnormal in 0u32..2,
            seed in 0u64..1 << 40,
        ) {
            // Half the cases start at the subnormals, so that folds run in
            // the lowest binades too.
            let low = if subnormal == 1 { low % 4 } else { low };
            let weights = mixed_exponent_weights(len, low..=low + spread, &mut StdRng::seed_from_u64(seed));
            check_replay(&weights, len.min(120), seed).map_err(TestCaseError::Fail)?;
        }

        #[test]
        fn replay_matches_reference_with_negative_and_non_finite_weights(
            len in 1usize..1400,
            odd in 1usize..4,
            seed in 0u64..1 << 40,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut weights: Vec<f64> = (0..len).map(|_| rng.random_range(0.0..1.0)).collect();
            for _ in 0..odd {
                let bad = [-0.5, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
                weights[rng.random_range(0..len)] = bad[rng.random_range(0..bad.len())];
            }
            check_replay(&weights, len.min(120), seed).map_err(TestCaseError::Fail)?;
        }
    }

    #[test]
    fn place_nodes_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let pts = place_nodes(100, 10_000.0, &mut rng);
        assert_eq!(pts.len(), 100);
        assert!(pts
            .iter()
            .all(|p| (0.0..=10_000.0).contains(&p.x) && (0.0..=10_000.0).contains(&p.y)));
    }

    #[test]
    fn weighted_sampling_exact_count_and_distinct() {
        let mut rng = StdRng::seed_from_u64(2);
        let pairs = all_pairs(10);
        let weights = vec![1.0; pairs.len()];
        let picked = sample_weighted_pairs(&pairs, &weights, 20, &mut rng);
        assert_eq!(picked.len(), 20);
        let mut sorted = picked.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 20, "no duplicate pairs");
    }

    #[test]
    fn weighted_sampling_prefers_heavy_pairs() {
        let mut rng = StdRng::seed_from_u64(3);
        let pairs = vec![(0, 1), (0, 2), (1, 2)];
        let weights = vec![1000.0, 0.0001, 0.0001];
        let mut hits = 0;
        for _ in 0..100 {
            let picked = sample_weighted_pairs(&pairs, &weights, 1, &mut rng);
            if picked[0] == (0, 1) {
                hits += 1;
            }
        }
        assert!(hits > 95, "heavy pair picked {hits}/100 times");
    }

    #[test]
    fn weighted_sampling_zero_weights_fall_back_to_uniform() {
        let mut rng = StdRng::seed_from_u64(4);
        let pairs = all_pairs(5);
        let weights = vec![0.0; pairs.len()];
        let picked = sample_weighted_pairs(&pairs, &weights, pairs.len(), &mut rng);
        assert_eq!(picked.len(), pairs.len());
    }

    #[test]
    fn assemble_sets_lengths() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(3.0, 4.0)];
        let g = assemble(&pts, &[(0, 1)]);
        let e = g.edge_ids().next().unwrap();
        assert_eq!(*g.edge(e).payload, 5.0);
    }

    #[test]
    fn ensure_connected_repairs_and_preserves_edge_count() {
        let mut rng = StdRng::seed_from_u64(5);
        // Two separate triangles.
        let pts: Vec<Point> = (0..6)
            .map(|i| Point::new(i as f64 * 100.0, if i < 3 { 0.0 } else { 5000.0 }))
            .collect();
        let edges = vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)];
        let g = assemble(&pts, &edges);
        assert!(!is_connected(&g));
        let repaired = ensure_connected(g, &mut rng);
        assert!(is_connected(&repaired));
        assert_eq!(repaired.edge_count(), 6);
    }

    #[test]
    fn ensure_connected_noop_when_connected() {
        let mut rng = StdRng::seed_from_u64(6);
        let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let g = assemble(&pts, &[(0, 1)]);
        let repaired = ensure_connected(g, &mut rng);
        assert_eq!(repaired.edge_count(), 1);
    }

    #[test]
    fn all_pairs_count() {
        assert_eq!(all_pairs(5).len(), 10);
        assert!(all_pairs(1).is_empty());
    }
}
