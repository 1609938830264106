//! **Algorithm 1** — maximum entanglement-rate channel between two users.
//!
//! The paper's Eq. 1 objective is a product, so §IV-A applies the `−ln`
//! transform: traversing edge `e` costs `α·L(e) − ln q` and the best
//! channel is the min-cost path. The pseudocode's line 27 recovers the
//! rate as `exp(−(−ln q) − Dist) = q^(l−1)·exp(−α·ΣL)` — one `−ln q` is
//! refunded because a channel of `l` links performs only `l − 1` swaps.
//!
//! Capacity awareness: only a switch with at least 2 free qubits may relay
//! (the pseudocode's line 11 guard `Q ≥ 2`); users never relay — a channel
//! passes "through vertices in R" (Definition 2).
//!
//! Failures: on a degraded network a cut fiber, and every fiber of a dead
//! switch, costs `+∞`, which the search never traverses
//! ([`ChannelFinderCache::degraded`]).

use std::cell::Cell;

use qnet_graph::paths::{dijkstra_into, DijkstraConfig, DijkstraRun, DijkstraWorkspace};
use qnet_graph::{dijkstra_repair_into, serves_targets, EdgeRef, NodeId, SearchMask, SsspDelta};

use crate::channel::{CapacityMap, Channel};
use crate::model::QuantumNetwork;

/// The nodes whose bit is set in `words` (one bit per node, 64 to a
/// word), in index order.
fn ones(words: impl Iterator<Item = u64>) -> impl Iterator<Item = NodeId> {
    words.enumerate().flat_map(|(w, mut word)| {
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                NodeId::new(w * 64 + bit)
            })
        })
    })
}

/// Algorithm 1's edge cost and relay predicate, defined once for the
/// search, the in-place repair, the cache's relay bits, its restore
/// filter, its scoped answers, the k-best channels
/// ([`algorithm1_config`]) and the hop-bounded channel.
#[derive(Clone, Copy)]
pub(crate) struct Algorithm1<'n> {
    net: &'n QuantumNetwork,
    /// The dead fibers and switches of a degraded network; `None` when
    /// the network is intact.
    dead: Option<&'n SearchMask>,
    alpha: f64,
    neg_ln_q: f64,
    swaps_possible: bool,
}

impl<'n> Algorithm1<'n> {
    pub(crate) fn new(net: &'n QuantumNetwork, dead: Option<&'n SearchMask>) -> Self {
        let q = net.physics().swap_success;
        // Edge cost α·L − ln q (non-negative since q ≤ 1). A degenerate
        // q = 0 makes every swap impossible; only direct user-user fibers
        // (zero swaps) remain usable, which we express by forbidding all
        // relaying while keeping single edges finite.
        Algorithm1 {
            net,
            dead,
            alpha: net.physics().attenuation,
            neg_ln_q: if q > 0.0 { -(q.ln()) } else { 0.0 },
            swaps_possible: q > 0.0,
        }
    }

    /// The cost `α·L(e) − ln q` of traversing `e`, or `+∞` when `e` is
    /// dead or touches a dead switch, so no channel uses it and a dead
    /// switch is never reached.
    pub(crate) fn edge_cost(&self, e: EdgeRef<'_, f64>) -> f64 {
        if self.dead.is_some_and(|m| m.blocks(e.id, e.a, e.b)) {
            return f64::INFINITY;
        }
        self.alpha * *e.payload + self.neg_ln_q
    }

    /// `true` when `v` could relay given enough free qubits: swaps are
    /// possible and `v` is a switch (users never relay).
    fn may_relay(&self, v: NodeId) -> bool {
        self.swaps_possible && self.net.kind(v).is_switch()
    }

    /// The relay predicate: `v` may relay and has at least 2 free qubits
    /// under `capacity`.
    pub(crate) fn relays(&self, capacity: &CapacityMap, v: NodeId) -> bool {
        self.may_relay(v) && capacity.can_relay(v)
    }

    /// [`Algorithm1::may_relay`] as one bit per node: the static half of
    /// the relay bits, which a cache ANDs with the capacity map's
    /// `free ≥ 2` bits.
    fn may_relay_mask(&self) -> Vec<u64> {
        let mut mask = vec![0u64; self.net.graph().node_count().div_ceil(64)];
        for v in self.net.graph().node_ids().filter(|&v| self.may_relay(v)) {
            mask[v.index() / 64] |= 1 << (v.index() % 64);
        }
        mask
    }

    /// `true` when letting `v` relay again could change `run` — some
    /// neighbor `u` would receive an offer `dist(v) + w(v,u)` no worse
    /// than its current label. `<=` (not `<`) is deliberate: an exactly
    /// equal offer cannot improve a distance, but it can move a
    /// predecessor under the search's tie rule, and the cache promises
    /// *bitwise* fidelity. An edge of infinite cost makes no offer. When
    /// this is `false` the run is already the run with `v` relaying.
    fn improvement_possible(&self, run: &DijkstraRun, v: NodeId) -> bool {
        // A vertex the source cannot even reach helps nobody as a relay.
        let Some(dv) = run.distance(v) else {
            return false;
        };
        let g = self.net.graph();
        g.neighbor_slice(v).iter().any(|&(u, e)| {
            let w = self.edge_cost(g.edge(e));
            w.is_finite() && dv + w <= run.distance(u).unwrap_or(f64::INFINITY)
        })
    }

    /// The net delta that brings `run`, exact for the relay bits `was`,
    /// up to date with the relay bits `now`. A relay that stopped
    /// relaying is blocked only when it is some vertex's stored
    /// predecessor (a relay without children carries no path). A relay
    /// that came back is restored when it could improve `run` — checked
    /// against `run` only while the delta has no block, since a block
    /// can raise labels; with blocks present every restore is kept.
    fn net_delta(&self, run: &DijkstraRun, was: &[u64], now: &[u64]) -> SsspDelta {
        let g = self.net.graph();
        let mut delta = SsspDelta::new();
        for v in ones(lost(was, now)) {
            let is_parent = |&(u, _): &(NodeId, _)| run.prev_hop(u).is_some_and(|(p, _)| p == v);
            if g.neighbor_slice(v).iter().any(is_parent) {
                delta.block_node(v);
            }
        }
        let keep_all = !delta.blocked_nodes().is_empty();
        for v in ones(lost(now, was)) {
            if keep_all || self.improvement_possible(run, v) {
                delta.restore_node(v);
            }
        }
        delta
    }

    /// `true` when `run`, exact for the relay bits `was`, gives every one
    /// of `targets` the channel a search under the relay bits `now` would
    /// give it ([`serves_targets`]; every edge costs at least `−ln q`).
    fn serves(
        &self,
        run: &DijkstraRun,
        targets: impl IntoIterator<Item = NodeId>,
        was: &[u64],
        now: &[u64],
    ) -> bool {
        let lost_relay = |v: NodeId| {
            let (w, bit) = (v.index() / 64, v.index() % 64);
            (was[w] & !now[w]) >> bit & 1 == 1
        };
        serves_targets(
            run,
            targets,
            lost_relay,
            ones(lost(now, was)),
            self.neg_ln_q,
        )
    }
}

/// The relay bits set in `was` and clear in `now`, word by word: the
/// relays lost between the two (swap the arguments for those regained).
fn lost<'a>(was: &'a [u64], now: &'a [u64]) -> impl Iterator<Item = u64> + 'a {
    was.iter().zip(now).map(|(&a, &b)| a & !b)
}

/// Runs the Algorithm-1 search from `source` and leaves the result in
/// `ws`, for the caller to copy out.
///
/// [`ChannelFinder`] and [`ChannelFinderCache`] both route through it.
/// Each run flushes its full-switch rejection tally and emits one
/// `FinderRun` trace event.
fn run_algorithm1<'w>(
    ws: &'w mut DijkstraWorkspace,
    a1: &Algorithm1<'_>,
    capacity: &CapacityMap,
    source: NodeId,
) -> &'w DijkstraRun {
    // Dijkstra consults the relay filter exactly once per reached vertex
    // per run, when the vertex is first reached (later improvements
    // reuse the answer), so this tally counts the *distinct* full
    // switches this run reached — flushed once below instead of paying
    // an atomic per rejection inside the search.
    let rejected_full = Cell::new(0u64);
    let cfg = DijkstraConfig {
        edge_cost: |e: EdgeRef<'_, f64>| a1.edge_cost(e),
        can_relay: |v: NodeId| {
            let relays = a1.relays(capacity, v);
            if !relays && a1.may_relay(v) {
                rejected_full.set(rejected_full.get() + 1);
            }
            relays
        },
    };
    qnet_obs::counter!("core.channel.finder_runs");
    let run = {
        let _span = qnet_obs::span!("core.channel.finder_run");
        dijkstra_into(ws, a1.net.graph(), source, &cfg)
    };
    let rejected_full = rejected_full.get();
    if rejected_full > 0 {
        qnet_obs::counter!("core.channel.rejected", reason = "qubit_capacity"; rejected_full);
    }
    if qnet_obs::trace_enabled() {
        qnet_obs::record_event(qnet_obs::TraceEvent::FinderRun {
            source: source.index() as u32,
            rejected_full,
            epoch: capacity.epoch(),
        });
    }
    run
}

/// A single-source Algorithm-1 run: max-rate channels from one user to
/// every other reachable user, under a residual capacity map.
///
/// The paper's complexity discussion (§IV-B) notes that running the
/// search once per *source* and recovering all destinations through the
/// `Prev` array saves a factor of `|U|`; this type is that optimization.
pub struct ChannelFinder<'n> {
    net: &'n QuantumNetwork,
    run: DijkstraRun,
    /// Epoch of the capacity map the run was computed under; stamped
    /// onto the trace events [`ChannelFinder::channel_to`] emits so a
    /// flight-recorder reader can line decisions up with reservations.
    epoch: u64,
}

impl<'n> ChannelFinder<'n> {
    /// Runs Algorithm 1 from `source` under `capacity`.
    ///
    /// Every interior vertex of any returned channel is a switch with at
    /// least 2 free qubits *in the given map*; the map is not mutated
    /// (reservation is the caller's decision).
    ///
    /// The search runs on the caller's workspace and allocates nothing;
    /// only the materialized run does. Callers that revisit sources
    /// under a changing capacity map, or search a degraded network,
    /// should use a [`ChannelFinderCache`].
    pub fn from_source_in(
        ws: &mut DijkstraWorkspace,
        net: &'n QuantumNetwork,
        capacity: &CapacityMap,
        source: NodeId,
    ) -> Self {
        let run = run_algorithm1(ws, &Algorithm1::new(net, None), capacity, source).clone();
        ChannelFinder {
            net,
            run,
            epoch: capacity.epoch(),
        }
    }

    /// The source user of this run.
    pub fn source(&self) -> NodeId {
        self.run.source()
    }

    /// The underlying single-source run (distances and predecessors to
    /// every node). The delta-equivalence oracles compare this directly
    /// against from-scratch recomputation.
    pub fn run(&self) -> &DijkstraRun {
        &self.run
    }

    /// The max-rate channel from the source to `destination`, or `None`
    /// when no capacity-respecting channel exists.
    ///
    /// The channel's rate is recomputed exactly from Eq. 1 (not from the
    /// search cost), so no floating-point drift accumulates.
    pub fn channel_to(&self, destination: NodeId) -> Option<Channel> {
        self.channel_at(destination, self.epoch)
    }

    /// This whole run, read only at `targets`: the view a
    /// [`ChannelSource`] hands a growth step.
    pub fn scoped<T>(&self, targets: T) -> ScopedFinder<'_, 'n, T> {
        ScopedFinder {
            finder: self,
            epoch: self.epoch,
            targets,
        }
    }

    /// [`ChannelFinder::channel_to`], with trace events stamped `epoch`.
    fn channel_at(&self, destination: NodeId, epoch: u64) -> Option<Channel> {
        if destination == self.run.source() {
            return None;
        }
        let Some(path) = self.run.path_to(destination) else {
            qnet_obs::counter!("core.channel.rejected", reason = "disconnected");
            if qnet_obs::trace_enabled() {
                qnet_obs::record_event(qnet_obs::TraceEvent::Candidate {
                    source: self.run.source().index() as u32,
                    destination: destination.index() as u32,
                    accepted: false,
                    reason: "disconnected",
                    cost: 0.0,
                    epoch,
                });
            }
            return None;
        };
        qnet_obs::counter!("core.channel.found");
        let channel = Channel::from_path(self.net, path);
        if qnet_obs::trace_enabled() {
            qnet_obs::record_event(qnet_obs::TraceEvent::Candidate {
                source: self.run.source().index() as u32,
                destination: destination.index() as u32,
                accepted: true,
                reason: "ok",
                cost: channel.rate.value(),
                epoch,
            });
        }
        Some(channel)
    }
}

/// An Algorithm-1 run read only at the destinations a lookup named: its
/// channel to each of them is the one a fresh search under the lookup's
/// capacity map would give, but the run elsewhere may be stale, so the
/// view exposes [`channel_to`](ScopedFinder::channel_to) and nothing
/// else.
pub struct ScopedFinder<'a, 'n, T> {
    finder: &'a ChannelFinder<'n>,
    /// The lookup's capacity epoch, stamped onto trace events.
    epoch: u64,
    targets: T,
}

impl<T: Iterator<Item = NodeId> + Clone> ScopedFinder<'_, '_, T> {
    /// The max-rate channel to `destination`, which must be one of the
    /// lookup's targets (checked in debug builds), or `None` when no
    /// capacity-respecting channel exists.
    pub fn channel_to(&self, destination: NodeId) -> Option<Channel> {
        debug_assert!(
            self.targets.clone().any(|t| t == destination),
            "{destination} is not a target of this lookup"
        );
        self.finder.channel_at(destination, self.epoch)
    }
}

/// Algorithm 1 for a single pair: the max-rate channel between users `a`
/// and `b` under `capacity`, or `None` when infeasible.
///
/// # Example
///
/// ```
/// use muerp_core::prelude::*;
/// use muerp_core::algorithms::max_rate_channel;
///
/// let net = NetworkSpec::paper_default().build(7);
/// let cap = CapacityMap::new(&net);
/// let (a, b) = (net.users()[0], net.users()[1]);
/// if let Some(ch) = max_rate_channel(&net, &cap, a, b) {
///     assert!(ch.rate.value() > 0.0);
///     assert_eq!(ch.user_pair(), if a <= b { (a, b) } else { (b, a) });
/// }
/// ```
pub fn max_rate_channel(
    net: &QuantumNetwork,
    capacity: &CapacityMap,
    a: NodeId,
    b: NodeId,
) -> Option<Channel> {
    ChannelFinder::from_source_in(&mut DijkstraWorkspace::new(), net, capacity, a).channel_to(b)
}

/// Algorithm 1's search configuration on the intact `net` under
/// `capacity`: the finder's `α·L − ln q` edge cost and relay predicate,
/// for a search or repair run at the graph layer (Yen, the benches).
pub fn algorithm1_config<'n>(
    net: &'n QuantumNetwork,
    capacity: &'n CapacityMap,
) -> DijkstraConfig<impl Fn(EdgeRef<'_, f64>) -> f64 + 'n, impl Fn(NodeId) -> bool + 'n> {
    let a1 = Algorithm1::new(net, None);
    DijkstraConfig {
        edge_cost: move |e: EdgeRef<'_, f64>| a1.edge_cost(e),
        can_relay: move |v: NodeId| a1.relays(capacity, v),
    }
}

/// In-place delta repair of a memoized Algorithm-1 run: patches `run`
/// where it is stored for the given net relay flips instead of
/// re-running the search from scratch; the workspace lends only its
/// pass-local scratch.
///
/// Repairs skip the search's rejection tally (a repair consults only
/// part of the run, so its tally would not be comparable to a full
/// run's); `capacity` must already reflect the flips, which holds
/// because they are read off its relay bits.
fn repair_algorithm1(
    ws: &mut DijkstraWorkspace,
    a1: &Algorithm1<'_>,
    capacity: &CapacityMap,
    run: &mut DijkstraRun,
    delta: &SsspDelta,
) -> qnet_graph::RepairStats {
    let cfg = DijkstraConfig {
        edge_cost: |e: EdgeRef<'_, f64>| a1.edge_cost(e),
        can_relay: |v: NodeId| a1.relays(capacity, v),
    };
    dijkstra_repair_into(ws, run, a1.net.graph(), &cfg, delta)
}

/// One memoized single-source run and the relay bits it is exact for;
/// its finder's epoch is the capacity epoch it was last validated at,
/// the entry's one key.
struct Entry<'n> {
    /// The relay bits of the capacity map at that epoch.
    bits: Vec<u64>,
    finder: ChannelFinder<'n>,
}

/// Memoizes single-source Algorithm-1 runs across solver rounds.
///
/// Greedy solvers (Prim-based, Algorithm 3/4, beam search, local search)
/// re-run the same sources many times between capacity changes. Each
/// entry is keyed by `(source, capacity epoch)`: a lookup whose stored
/// epoch matches returns the memoized finder with no search at all.
///
/// A cache searches one network: the intact one ([`new`]), or one
/// degraded by failures ([`degraded`]), whose dead fibers and switches
/// cost `+∞` in every search and repair of the cache. A run then depends
/// on the capacity map only through its *relay bits* — one bit per node
/// for `swaps possible ∧ switch ∧ free ≥ 2` — so each entry keeps the
/// bits it is exact for, and the cache reads the current map's bits once
/// per epoch: the map's own `free ≥ 2` words ANDed with the network's
/// static may-relay mask. A lookup at a new epoch applies one rule
/// (DESIGN.md §15): the entry's bits XOR the current bits, turned into
/// one net [`SsspDelta`] — a lost relay is blocked only where it is some
/// vertex's stored predecessor, a regained relay is restored where it
/// could improve the run (every restore is kept when the delta also
/// blocks). Then:
///
/// * an empty delta is an O(1) revalidation — `graph.delta.clean`;
/// * otherwise the entry is repaired in place by [`dijkstra_repair_into`]
///   — blocks first, against the stored run, then a decrease pass for
///   the restores — `graph.delta.repaired`, plus `graph.delta.restored`
///   when restores were applied.
///
/// A lookup through [`ChannelSource::finder_for`] names the destinations
/// it will read. Before any of the above, a stale entry whose flips
/// provably move none of those channels answers as it is, through a
/// [`ScopedFinder`] that reads only them — a *scoped answer*, tallied as
/// a hit and as `core.channel.cache_scoped`. The entry keeps its epoch
/// and bits, so the next whole-run lookup nets every flip since it was
/// last exact.
///
/// Correctness rests on these invariants (see DESIGN.md):
///
/// * epochs are process-globally unique per mutation, so epoch equality
///   implies content equality even across diverged clones — and relay
///   bits can be compared by *content* against any successor map, which
///   is what makes clone ping-pong (trial maps in the stream scenario)
///   cheap instead of cache-hostile;
/// * Algorithm 1's result depends only on (network, dead set, relay
///   bits, source) — the network and its dead set are fixed per cache,
///   the relay bits are stored per entry.
///
/// Hits and misses are observable as `core.channel.cache_hits` /
/// `core.channel.cache_misses`; [`search_count`] tallies the full
/// searches this cache actually executed (the repair engine's latency
/// metric — in-place repairs are tallied separately in
/// [`CacheEfficiency::repairs`]).
///
/// [`new`]: ChannelFinderCache::new
/// [`degraded`]: ChannelFinderCache::degraded
/// [`search_count`]: ChannelFinderCache::search_count
pub struct ChannelFinderCache<'n> {
    /// Algorithm 1 on this cache's network, intact or degraded.
    a1: Algorithm1<'n>,
    /// The one workspace every search and repair of this cache runs in.
    ws: DijkstraWorkspace,
    /// Indexed by source node.
    entries: Vec<Option<Entry<'n>>>,
    /// [`Algorithm1::may_relay`] per node, fixed for the network.
    may_relay: Vec<u64>,
    /// Relay bits of the capacity map at `bits_epoch`.
    bits: Vec<u64>,
    /// Epoch [`bits`](Self::bits) reflects; `None` before first use.
    bits_epoch: Option<u64>,
    /// Full searches actually executed (misses), monotone.
    searches: u64,
    /// Per-instance hit/fill/repair tallies (see
    /// [`ChannelFinderCache::efficiency`]).
    efficiency: CacheEfficiency,
}

/// Deterministic per-cache lookup tallies, split by how each miss was
/// served. Unlike the global `core.channel.cache_*` counters these are
/// scoped to one cache instance, so a profile run can report the exact
/// efficiency of the solver under measurement even while other threads
/// run their own caches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheEfficiency {
    /// Lookups answered from a memoized run with no search and no
    /// repair: an exact-key match, an O(1) revalidation, or a scoped
    /// answer from a stale run that no flip since could move at the
    /// lookup's targets ([`ChannelSource::finder_for`]).
    pub hits: u64,
    /// Always zero: no lookup searches again into an existing entry's
    /// buffers, since every stale entry is repaired in place. Kept for
    /// the callers that print it.
    pub refreshes: u64,
    /// Misses that populated a previously empty entry (first touch of a
    /// source; materializes a fresh run).
    pub fills: u64,
    /// Misses served by an in-place SSSP delta repair instead of a full
    /// search (the delta engine's win column; not counted in
    /// [`ChannelFinderCache::search_count`]).
    pub repairs: u64,
    /// The repairs that ran the decrease pass for restored relays (a
    /// subset of [`repairs`](Self::repairs), not a separate lookup).
    pub restores: u64,
}

impl CacheEfficiency {
    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.refreshes + self.fills + self.repairs
    }

    /// Hits over lookups, 1.0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl<'n> ChannelFinderCache<'n> {
    /// An empty cache for the intact `net`; entries populate lazily per
    /// source.
    pub fn new(net: &'n QuantumNetwork) -> Self {
        Self::searching(Algorithm1::new(net, None))
    }

    /// An empty cache for `net` degraded by the failures in `dead`: no
    /// channel it returns uses a dead fiber or touches a dead switch
    /// (not even as an endpoint).
    pub fn degraded(net: &'n QuantumNetwork, dead: &'n SearchMask) -> Self {
        Self::searching(Algorithm1::new(net, Some(dead)))
    }

    fn searching(a1: Algorithm1<'n>) -> Self {
        let nodes = a1.net.graph().node_count();
        let may_relay = a1.may_relay_mask();
        ChannelFinderCache {
            a1,
            ws: DijkstraWorkspace::with_capacity(nodes),
            entries: (0..nodes).map(|_| None).collect(),
            bits: vec![0; may_relay.len()],
            may_relay,
            bits_epoch: None,
            searches: 0,
            efficiency: CacheEfficiency::default(),
        }
    }

    /// Recomputes the relay bits when `capacity` is at a new epoch: one
    /// AND per 64 nodes.
    fn refresh_bits(&mut self, capacity: &CapacityMap) {
        if self.bits_epoch != Some(capacity.epoch()) {
            let words = self.may_relay.iter().zip(capacity.relay_bits());
            for (bits, (&may, &free)) in self.bits.iter_mut().zip(words) {
                *bits = may & free;
            }
            self.bits_epoch = Some(capacity.epoch());
        }
    }

    /// The Algorithm-1 run from `source` under `capacity`, reused when
    /// `capacity` has not changed since the entry was computed.
    pub fn finder(&mut self, capacity: &CapacityMap, source: NodeId) -> &ChannelFinder<'n> {
        if self.update(capacity, source) {
            qnet_obs::counter!("core.channel.cache_hits");
            self.efficiency.hits += 1;
        }
        &self.entries[source.index()]
            .as_ref()
            .expect("entry just populated")
            .finder
    }

    /// Brings `source`'s entry up to date with `capacity`. Returns `true`
    /// when no work was needed — the stored epoch matched, or the net
    /// relay delta was empty (an O(1) revalidation) — which lookups
    /// tally as a hit and warm batches do not tally at all. Otherwise the
    /// entry is repaired in place or filled for the first time, with the
    /// matching tallies.
    fn update(&mut self, capacity: &CapacityMap, source: NodeId) -> bool {
        self.refresh_bits(capacity);
        let epoch = capacity.epoch();
        let entry = match &mut self.entries[source.index()] {
            Some(entry) if entry.finder.epoch == epoch => return true,
            Some(entry) => entry,
            slot @ None => {
                qnet_obs::counter!("core.channel.cache_misses");
                self.efficiency.fills += 1;
                let run = run_algorithm1(&mut self.ws, &self.a1, capacity, source).clone();
                *slot = Some(Entry {
                    bits: self.bits.clone(),
                    finder: ChannelFinder {
                        net: self.a1.net,
                        run,
                        epoch,
                    },
                });
                self.searches += 1;
                return false;
            }
        };
        // The net relay flips since the run was validated.
        let delta = if entry.bits != self.bits {
            self.a1
                .net_delta(&entry.finder.run, &entry.bits, &self.bits)
        } else {
            SsspDelta::new()
        };
        entry.bits.copy_from_slice(&self.bits);
        entry.finder.epoch = epoch;
        if delta.is_empty() {
            qnet_obs::counter!("graph.delta.clean");
            return true;
        }
        qnet_obs::counter!("core.channel.cache_repairs");
        self.efficiency.repairs += 1;
        let run = &mut entry.finder.run;
        let stats = repair_algorithm1(&mut self.ws, &self.a1, capacity, run, &delta);
        if stats.restored > 0 {
            self.efficiency.restores += 1;
        }
        false
    }

    /// Brings the entries for `sources` up to date under `capacity` —
    /// **Algorithm 1 as a multi-source batch**. Sources whose entry is
    /// already fresh are skipped; the rest are repaired or searched in
    /// `sources` order on the cache's workspace. Subsequent
    /// [`finder`](ChannelFinderCache::finder) calls for these sources at
    /// the same epoch are then cache hits. Warm searches and repairs
    /// tally exactly like the lazy path's; fresh entries are not tallied
    /// as hits.
    pub fn warm(&mut self, capacity: &CapacityMap, sources: &[NodeId]) {
        for &src in sources {
            self.update(capacity, src);
        }
    }

    /// Recomputes the relay bits for `capacity` without serving a
    /// lookup; every lookup does so anyway, so this changes no run and
    /// no tally. Kept only because the frozen `servebench` replica calls
    /// it after departures.
    pub fn absorb(&mut self, capacity: &CapacityMap) {
        self.refresh_bits(capacity);
    }

    /// `true` when `source`'s entry is stale, its relay bits differ from
    /// `capacity`'s and it still serves every one of `targets` exactly.
    /// The exact-key test comes first: almost every lookup is an
    /// exact-key hit, and it should pay nothing more.
    fn spares(
        &mut self,
        capacity: &CapacityMap,
        source: NodeId,
        targets: impl IntoIterator<Item = NodeId>,
    ) -> bool {
        match &self.entries[source.index()] {
            Some(entry) if entry.finder.epoch != capacity.epoch() => {}
            _ => return false,
        }
        self.refresh_bits(capacity);
        let entry = self.entries[source.index()]
            .as_ref()
            .expect("matched above");
        entry.bits != self.bits
            && self
                .a1
                .serves(&entry.finder.run, targets, &entry.bits, &self.bits)
    }

    /// [`max_rate_channel`] through the cache.
    pub fn channel(&mut self, capacity: &CapacityMap, a: NodeId, b: NodeId) -> Option<Channel> {
        self.finder(capacity, a).channel_to(b)
    }

    /// Number of *full* Algorithm-1 searches this cache has actually
    /// run (cache misses); hits, O(1) revalidations, and in-place delta
    /// repairs are all excluded (repairs are tallied in
    /// [`CacheEfficiency::repairs`]). This is the deterministic
    /// per-cache cost metric the repair engine reports as latency —
    /// unlike the global obs counters it is unaffected by concurrent
    /// work elsewhere in the process.
    pub fn search_count(&self) -> u64 {
        self.searches
    }

    /// This cache's lookup tallies, split hit/fill/repair. Fully
    /// deterministic for a fixed query sequence (unlike wall time), so
    /// `repro profile` byte-compares them across runs.
    pub fn efficiency(&self) -> CacheEfficiency {
        self.efficiency
    }

    /// Drops every memoized entry (the workspace and tallies are kept):
    /// the next lookup per source is a *fill*. This is how the
    /// search-core bench measures the fill path in isolation.
    pub fn clear(&mut self) {
        self.entries.iter_mut().for_each(|e| *e = None);
    }
}

/// Where a Prim growth step gets its Algorithm-1 runs. A lookup names
/// the destinations it will read, and the answer is exact at those
/// alone. The [`ChannelFinderCache`] serves memoized runs, delta-repaired
/// or, when no relay flip can move a target's channel, as they are (a
/// scoped answer); a cold source that searches afresh on every call,
/// ignoring the targets, is the reference the serve differential
/// battery compares it against.
pub trait ChannelSource<'n> {
    /// The Algorithm-1 run from `source` under `capacity`, read only at
    /// `targets`.
    fn finder_for<T>(
        &mut self,
        capacity: &CapacityMap,
        source: NodeId,
        targets: T,
    ) -> ScopedFinder<'_, 'n, T>
    where
        T: Iterator<Item = NodeId> + Clone;
}

impl<'n> ChannelSource<'n> for ChannelFinderCache<'n> {
    /// The Algorithm-1 run from `source` under `capacity`, read only at
    /// `targets` — the lookup of Algorithm 4's growth step, which reads
    /// each in-tree member's run at the out-of-tree members alone.
    ///
    /// A stale entry answers as it is when the relay flips since it was
    /// last exact provably move no target's channel (DESIGN.md §15); the
    /// entry keeps its epoch and bits, so the next
    /// whole-run lookup or repair nets every flip since then. Such a
    /// scoped answer ran no search and no repair: it is tallied as a hit
    /// and as `core.channel.cache_scoped`. Any other lookup is served as
    /// [`finder`](ChannelFinderCache::finder) serves it.
    fn finder_for<T>(
        &mut self,
        capacity: &CapacityMap,
        source: NodeId,
        targets: T,
    ) -> ScopedFinder<'_, 'n, T>
    where
        T: Iterator<Item = NodeId> + Clone,
    {
        if self.spares(capacity, source, targets.clone()) {
            qnet_obs::counter!("core.channel.cache_hits");
            qnet_obs::counter!("core.channel.cache_scoped");
            self.efficiency.hits += 1;
        } else {
            self.finder(capacity, source);
        }
        let entry = self.entries[source.index()].as_ref();
        ScopedFinder {
            finder: &entry.expect("the lookup leaves an entry").finder,
            epoch: capacity.epoch(),
            targets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{NodeKind, PhysicsParams, QuantumNetwork};
    use qnet_graph::Graph;

    /// Two parallel routes between users a and b:
    ///   a —1000— s1 —1000— b        (2 links, 1 swap)
    ///   a —————— 2500 ——————— b     (1 link, 0 swaps)
    /// With α = 1e-4, q = 0.9: via s1: e^{-0.2}·0.9 ≈ 0.7369;
    /// direct: e^{-0.25} ≈ 0.7788 → direct wins.
    fn two_route_net(q: f64) -> (QuantumNetwork, [NodeId; 3]) {
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let a = g.add_node(NodeKind::User);
        let s1 = g.add_node(NodeKind::Switch { qubits: 4 });
        let b = g.add_node(NodeKind::User);
        g.add_edge(a, s1, 1000.0);
        g.add_edge(s1, b, 1000.0);
        g.add_edge(a, b, 2500.0);
        let physics = PhysicsParams {
            swap_success: q,
            attenuation: 1e-4,
        };
        (QuantumNetwork::from_graph(g, physics), [a, s1, b])
    }

    #[test]
    fn picks_route_with_best_rate_not_fewest_hops_or_shortest_length() {
        // q = 0.9: the direct (longer but swap-free) route wins.
        let (net, [a, _s1, b]) = two_route_net(0.9);
        let cap = CapacityMap::new(&net);
        let c = max_rate_channel(&net, &cap, a, b).unwrap();
        assert_eq!(c.link_count(), 1);
        assert!((c.rate.value() - (-0.25f64).exp()).abs() < 1e-12);

        // q = 0.99: the relayed route (shorter fibers) wins.
        let (net, [a, s1, b]) = two_route_net(0.99);
        let cap = CapacityMap::new(&net);
        let c = max_rate_channel(&net, &cap, a, b).unwrap();
        assert_eq!(c.link_count(), 2);
        assert_eq!(c.interior_switches(), &[s1]);
        assert!((c.rate.value() - (-0.2f64).exp() * 0.99).abs() < 1e-12);
    }

    #[test]
    fn respects_residual_capacity() {
        let (net, [a, _s1, b]) = two_route_net(0.99);
        let mut cap = CapacityMap::new(&net);
        let via_switch = max_rate_channel(&net, &cap, a, b).unwrap();
        assert_eq!(via_switch.link_count(), 2);
        cap.reserve(&via_switch);
        cap.reserve(&via_switch); // 4 qubits gone
        let fallback = max_rate_channel(&net, &cap, a, b).unwrap();
        assert_eq!(fallback.link_count(), 1, "switch exhausted → direct fiber");
    }

    #[test]
    fn users_never_relay() {
        // a — u — b where u is a *user*: no channel may pass through u,
        // so a and b are unconnectable.
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let a = g.add_node(NodeKind::User);
        let u = g.add_node(NodeKind::User);
        let b = g.add_node(NodeKind::User);
        g.add_edge(a, u, 100.0);
        g.add_edge(u, b, 100.0);
        let net = QuantumNetwork::from_graph(g, PhysicsParams::paper_default());
        let cap = CapacityMap::new(&net);
        assert!(max_rate_channel(&net, &cap, a, b).is_none());
        // …but a–u itself is routable (u is an endpoint there).
        assert!(max_rate_channel(&net, &cap, a, u).is_some());
    }

    #[test]
    fn switch_with_one_qubit_cannot_relay() {
        let (net, ids) = two_route_net(0.99);
        let mut g = net.graph().clone();
        *g.node_mut(ids[1]) = NodeKind::Switch { qubits: 1 };
        let net = QuantumNetwork::from_graph(g, *net.physics());
        let cap = CapacityMap::new(&net);
        let c = max_rate_channel(&net, &cap, ids[0], ids[2]).unwrap();
        assert_eq!(c.link_count(), 1, "1-qubit switch unusable, direct route");
    }

    #[test]
    fn single_source_run_matches_pairwise_calls() {
        let net = crate::model::NetworkSpec::paper_default().build(11);
        let cap = CapacityMap::new(&net);
        let users = net.users().to_vec();
        let mut ws = DijkstraWorkspace::new();
        let finder = ChannelFinder::from_source_in(&mut ws, &net, &cap, users[0]);
        for &dst in &users[1..] {
            let via_run = finder.channel_to(dst);
            let via_pair = max_rate_channel(&net, &cap, users[0], dst);
            match (via_run, via_pair) {
                (Some(x), Some(y)) => {
                    assert!((x.rate.value() - y.rate.value()).abs() < 1e-12)
                }
                (None, None) => {}
                other => panic!("disagreement for {dst}: {other:?}"),
            }
        }
    }

    #[test]
    fn no_channel_to_self() {
        let (net, [a, ..]) = two_route_net(0.9);
        let cap = CapacityMap::new(&net);
        assert!(max_rate_channel(&net, &cap, a, a).is_none());
    }

    #[test]
    fn masked_search_routes_around_failures() {
        // q = 0.99: best route is via s1. Kill the a–s1 edge → direct.
        let (net, [a, s1, b]) = two_route_net(0.99);
        let cap = CapacityMap::new(&net);
        let e_as1 = net.graph().find_edge(a, s1).unwrap();
        let mut mask = SearchMask::new();
        mask.kill_edge(e_as1);
        let c = ChannelFinderCache::degraded(&net, &mask)
            .channel(&cap, a, b)
            .unwrap();
        assert_eq!(c.link_count(), 1, "masked edge forces the direct fiber");

        // Kill the switch instead: same outcome, and s1 is untouchable.
        let mut mask = SearchMask::new();
        mask.kill_node(s1);
        let mut cache = ChannelFinderCache::degraded(&net, &mask);
        let finder = cache.finder(&cap, a);
        let c = finder.channel_to(b).unwrap();
        assert_eq!(c.link_count(), 1);
        assert!(finder.channel_to(s1).is_none(), "dead vertex unreachable");
    }

    #[test]
    fn cache_efficiency_tallies_hits_refreshes_fills_and_repairs() {
        let (net, [a, s1, b]) = two_route_net(0.99);
        let mut cap = CapacityMap::new(&net);
        let mut cache = ChannelFinderCache::new(&net);
        assert_eq!(cache.efficiency().hit_rate(), 1.0, "vacuous before use");

        cache.channel(&cap, a, b); // first touch of source a → fill
        cache.channel(&cap, a, b); // same key → hit
        cache.channel(&cap, b, a); // first touch of source b → fill
        let ch = cache.channel(&cap, a, b).unwrap(); // hit again
        assert_eq!(ch.interior_switches(), &[s1]);

        // Epoch bump without a relay flip (s1: 4 → 2 free qubits): the
        // delta engine revalidates in O(1) — a hit, not a repair.
        cap.reserve(&ch);
        cache.channel(&cap, a, b);

        // Second reservation exhausts s1 (2 → 0): a worsening flip, so
        // the stale entry gets an in-place repair, not a full search.
        cap.reserve(&ch);
        let detour = cache.channel(&cap, a, b).unwrap();
        assert_eq!(detour.link_count(), 1, "repair must route around s1");

        // Releasing restores the relay (0 → 2): the run repaired without
        // s1 gets a second in-place repair, the decrease pass.
        cap.release(&ch);
        let back = cache.channel(&cap, a, b).unwrap();
        assert_eq!(back.interior_switches(), &[s1], "repair sees s1 again");

        let eff = cache.efficiency();
        assert_eq!(
            eff,
            CacheEfficiency {
                hits: 3,
                refreshes: 0,
                fills: 2,
                repairs: 2,
                restores: 1,
            }
        );
        assert_eq!(eff.lookups(), 7);
        assert!((eff.hit_rate() - 3.0 / 7.0).abs() < 1e-12);
        assert_eq!(
            cache.search_count(),
            eff.fills,
            "searches are the fills; repairs are not searches"
        );

        // clear() drops the entries but keeps the tallies: the next
        // lookup at an unchanged epoch is a fill again, not a hit.
        cache.clear();
        let ch2 = cache.channel(&cap, a, b).unwrap();
        assert_eq!(ch2, back, "clear must not change results, only reuse");
        assert_eq!(cache.efficiency().fills, 3, "post-clear lookup is a fill");
    }

    #[test]
    fn killing_a_reached_relay_without_children_is_a_hit() {
        // two_route_net plus a switch s2 hanging off a: the run from a
        // reaches s2, but no vertex's path relays through it.
        let (net, [a, s1, b]) = two_route_net(0.99);
        let mut g = net.graph().clone();
        let s2 = g.add_node(NodeKind::Switch { qubits: 4 });
        g.add_edge(a, s2, 500.0);
        let net = QuantumNetwork::from_graph(g, *net.physics());
        let mut cap = CapacityMap::new(&net);
        let mut cache = ChannelFinderCache::new(&net);
        assert!(cache.finder(&cap, a).run().distance(s2).is_some());

        cap.withdraw(s2, 4);
        let ch = cache.channel(&cap, a, b).unwrap();
        assert_eq!(ch.interior_switches(), &[s1]);
        let eff = cache.efficiency();
        assert_eq!((eff.hits, eff.repairs), (1, 0), "no stored path used s2");
        assert_eq!(cache.search_count(), 1);
    }

    #[test]
    fn a_regained_relay_behind_a_dead_fiber_is_a_hit() {
        // two_route_net plus a switch s2 off a whose only other fiber,
        // to user c, is cut. Giving s2 its qubits back can improve no
        // label: its one unreached neighbor lies across the dead fiber,
        // which makes no offer, so the lookup is an O(1) revalidation.
        let (net, [a, s1, b]) = two_route_net(0.99);
        let mut g = net.graph().clone();
        let s2 = g.add_node(NodeKind::Switch { qubits: 4 });
        let c = g.add_node(NodeKind::User);
        g.add_edge(a, s2, 500.0);
        let cut = g.add_edge(s2, c, 500.0);
        let net = QuantumNetwork::from_graph(g, *net.physics());
        let mut dead = SearchMask::new();
        dead.kill_edge(cut);
        let mut cap = CapacityMap::new(&net);
        cap.withdraw(s2, 4);
        let mut cache = ChannelFinderCache::degraded(&net, &dead);
        assert!(cache.finder(&cap, a).run().distance(c).is_none());

        cap.grant(s2, 4);
        let ch = cache.channel(&cap, a, b).unwrap();
        assert_eq!(ch.interior_switches(), &[s1]);
        assert!(cache.finder(&cap, a).run().distance(c).is_none());
        let eff = cache.efficiency();
        assert_eq!((eff.hits, eff.repairs), (2, 0), "no restore to run");
    }

    #[test]
    fn a_scoped_answer_leaves_the_entry_for_the_next_repair() {
        // two_route_net plus a user c behind a switch s2 off a. Killing
        // s2 breaks c's channel but not b's: a lookup naming only b is
        // answered from the stale run, and the entry stays stale, so the
        // next whole-run lookup repairs it.
        let (net, [a, s1, b]) = two_route_net(0.99);
        let mut g = net.graph().clone();
        let s2 = g.add_node(NodeKind::Switch { qubits: 2 });
        let c = g.add_node(NodeKind::User);
        g.add_edge(a, s2, 500.0);
        g.add_edge(s2, c, 500.0);
        let net = QuantumNetwork::from_graph(g, *net.physics());
        let mut cap = CapacityMap::new(&net);
        let mut cache = ChannelFinderCache::new(&net);
        assert!(cache.channel(&cap, a, c).is_some());

        cap.withdraw(s2, 2);
        let scoped = cache.finder_for(&cap, a, [b].into_iter());
        assert_eq!(scoped.channel_to(b).unwrap().interior_switches(), &[s1]);
        let eff = cache.efficiency();
        assert_eq!((eff.hits, eff.repairs), (1, 0), "scoped: no repair");

        let cold = ChannelFinder::from_source_in(&mut DijkstraWorkspace::new(), &net, &cap, a);
        assert_eq!(cold.channel_to(c), None);
        assert_eq!(cache.finder(&cap, a).run(), cold.run());
        let eff = cache.efficiency();
        assert_eq!((eff.hits, eff.repairs), (1, 1), "the whole run repairs");
        assert_eq!(cache.search_count(), 1);
    }

    #[test]
    fn a_restored_relay_that_only_ties_is_repaired() {
        // a reaches b over p or r at exactly equal cost. A fresh search
        // pops r first (equal cost, larger index), so b's predecessor is
        // r whenever r relays: restoring r must move it, though no label
        // falls.
        let mut g: Graph<NodeKind, f64> = Graph::new();
        let a = g.add_node(NodeKind::User);
        let p = g.add_node(NodeKind::Switch { qubits: 4 });
        let r = g.add_node(NodeKind::Switch { qubits: 4 });
        let b = g.add_node(NodeKind::User);
        for (x, y) in [(a, p), (a, r), (p, b), (r, b)] {
            g.add_edge(x, y, 1000.0);
        }
        let net = QuantumNetwork::from_graph(g, PhysicsParams::paper_default());
        let mut cap = CapacityMap::new(&net);
        cap.withdraw(r, 4);
        let mut cache = ChannelFinderCache::new(&net);
        let prev = |run: &DijkstraRun| run.prev_hop(b).map(|(x, _)| x);
        assert_eq!(prev(cache.finder(&cap, a).run()), Some(p));

        cap.grant(r, 4);
        let cold = ChannelFinder::from_source_in(&mut DijkstraWorkspace::new(), &net, &cap, a);
        assert_eq!(prev(cold.run()), Some(r));
        assert_eq!(cache.finder(&cap, a).run(), cold.run());
        let eff = cache.efficiency();
        assert_eq!((eff.repairs, eff.restores), (1, 1));
    }

    /// The per-node loop the cache once ran at every epoch: the
    /// reference for its word-wise AND of the static may-relay mask with
    /// the capacity map's own bits.
    fn relay_bits_reference(net: &QuantumNetwork, capacity: &CapacityMap) -> Vec<u64> {
        let a1 = Algorithm1::new(net, None);
        let mut bits = vec![0u64; net.graph().node_count().div_ceil(64)];
        for v in net.graph().node_ids().filter(|&v| a1.relays(capacity, v)) {
            bits[v.index() / 64] |= 1 << (v.index() % 64);
        }
        bits
    }

    #[test]
    fn per_epoch_relay_bits_match_the_per_node_loop() {
        // 150 switches and 10 users span three words. The second
        // network forbids every swap (q = 0), so no node may relay.
        let mut spec = crate::model::NetworkSpec::paper_default();
        spec.topology.nodes = 160;
        let net = spec.build(5);
        let no_swaps = QuantumNetwork::from_graph(
            net.graph().clone(),
            PhysicsParams {
                swap_success: 0.0,
                ..*net.physics()
            },
        );
        for net in [&net, &no_swaps] {
            let users = net.users().to_vec();
            let switches: Vec<NodeId> = net.switches().collect();
            let mut cache = ChannelFinderCache::new(net);
            for mut cap in [CapacityMap::new(net), CapacityMap::unbounded(net)] {
                for step in 0..120usize {
                    let (a, b) = (users[step % users.len()], users[(step + 3) % users.len()]);
                    let s = switches[step * 7 % switches.len()];
                    match step % 4 {
                        0 | 1 => {
                            if let Some(ch) = cache.channel(&cap, a, b) {
                                cap.reserve(&ch);
                            }
                        }
                        2 => cap.withdraw(s, (step % 5) as u32),
                        _ => cap.grant(s, if step % 8 == 3 { u32::MAX } else { 2 }),
                    }
                    cache.absorb(&cap);
                    assert_eq!(cache.bits, relay_bits_reference(net, &cap), "step {step}");
                }
            }
        }
    }

    #[test]
    fn perfect_swap_rate_prefers_short_fibers() {
        let (net, [a, s1, b]) = two_route_net(1.0);
        let cap = CapacityMap::new(&net);
        let c = max_rate_channel(&net, &cap, a, b).unwrap();
        assert_eq!(c.interior_switches(), &[s1]);
        assert!((c.rate.value() - (-0.2f64).exp()).abs() < 1e-12);
    }
}
