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

use std::cell::Cell;

use qnet_graph::paths::{dijkstra_into, DijkstraConfig, DijkstraRun, DijkstraWorkspace};
use qnet_graph::{
    dijkstra_repair_into, DeltaClassifier, EdgeRef, NodeId, RepairScratch, SearchMask, SsspDelta,
};

use crate::channel::{CapacityMap, Channel};
use crate::model::QuantumNetwork;

/// Runs the Algorithm-1 search from `source` and leaves the result in
/// `ws`; the caller materializes it however it likes (fresh
/// [`DijkstraRun`] or in-place refresh of an existing one).
///
/// This is the one place the `α·L − ln q` cost and the capacity-aware
/// relay filter are defined; [`ChannelFinder`] and
/// [`ChannelFinderCache`] both route through it. A failure `mask`
/// excludes dead edges and vertices (survivability repair); `None`
/// searches the intact network. Each run flushes its full-switch
/// rejection tally and emits one `FinderRun` trace event.
fn run_algorithm1<'w>(
    ws: &'w mut DijkstraWorkspace,
    net: &QuantumNetwork,
    capacity: &CapacityMap,
    source: NodeId,
    mask: Option<&SearchMask>,
) -> qnet_graph::DijkstraView<'w> {
    let q = net.physics().swap_success;
    let alpha = net.physics().attenuation;
    // Edge cost α·L − ln q (non-negative since q ≤ 1). A degenerate
    // q = 0 makes every swap impossible; only direct user-user fibers
    // (zero swaps) remain usable, which we express by forbidding all
    // relaying while keeping single edges finite.
    let neg_ln_q = if q > 0.0 { -(q.ln()) } else { 0.0 };
    let swaps_possible = q > 0.0;
    // Dijkstra consults the relay filter exactly once per reached vertex
    // per run, when the vertex is first reached (later improvements
    // reuse the answer), so this tally counts the *distinct* full
    // switches this run reached — flushed once below instead of paying
    // an atomic per rejection inside the search.
    let rejected_full = Cell::new(0u64);
    let cfg = DijkstraConfig {
        edge_cost: move |e: EdgeRef<'_, f64>| alpha * *e.payload + neg_ln_q,
        can_relay: |v: NodeId| {
            if !(swaps_possible && net.kind(v).is_switch()) {
                return false;
            }
            if !capacity.can_relay(v) {
                rejected_full.set(rejected_full.get() + 1);
                return false;
            }
            true
        },
    };
    qnet_obs::counter!("core.channel.finder_runs");
    let view = {
        let _span = qnet_obs::span!("core.channel.finder_run");
        dijkstra_into(ws, net.graph(), source, &cfg, mask)
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
    view
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
    /// (reservation is the caller's decision). With a failure `mask`,
    /// channels never use a dead edge nor touch a dead vertex (not even
    /// as an endpoint); `None` means no failures.
    ///
    /// The search runs on the caller's workspace and allocates nothing;
    /// only the materialized run does. Callers that revisit sources
    /// under a changing capacity map should use a [`ChannelFinderCache`].
    pub fn from_source_in(
        ws: &mut DijkstraWorkspace,
        net: &'n QuantumNetwork,
        capacity: &CapacityMap,
        source: NodeId,
        mask: Option<&SearchMask>,
    ) -> Self {
        let run = run_algorithm1(ws, net, capacity, source, mask).to_run();
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
                    epoch: self.epoch,
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
                epoch: self.epoch,
            });
        }
        Some(channel)
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
    ChannelFinder::from_source_in(&mut DijkstraWorkspace::new(), net, capacity, a, None)
        .channel_to(b)
}

/// In-place delta repair of a memoized Algorithm-1 run: reloads `run`
/// into the workspace and patches it for the given net relay flips
/// instead of re-running the search from scratch.
///
/// The configuration is the exact Algorithm-1 cost/relay pair of
/// [`run_algorithm1`] without a mask (repairs only serve unmasked
/// entries) and without the rejection tally (a repair consults only
/// part of the run, so its tally would not be comparable to a full
/// run's); `capacity` must already reflect the flips, which is
/// guaranteed because they are derived by diffing relay states against
/// that same map.
fn repair_algorithm1(
    ws: &mut DijkstraWorkspace,
    scratch: &mut RepairScratch,
    net: &QuantumNetwork,
    capacity: &CapacityMap,
    run: &mut DijkstraRun,
    delta: &SsspDelta,
) -> qnet_graph::RepairStats {
    let q = net.physics().swap_success;
    let alpha = net.physics().attenuation;
    let neg_ln_q = if q > 0.0 { -(q.ln()) } else { 0.0 };
    let swaps_possible = q > 0.0;
    let cfg = DijkstraConfig {
        edge_cost: move |e: EdgeRef<'_, f64>| alpha * *e.payload + neg_ln_q,
        can_relay: |v: NodeId| swaps_possible && net.kind(v).is_switch() && capacity.can_relay(v),
    };
    ws.load_run(run);
    let (view, stats) = dijkstra_repair_into(ws, scratch, net.graph(), &cfg, delta);
    view.write_run(run);
    stats
}

/// `true` when letting `v` relay again could change the stored run —
/// i.e. some neighbor `u` would receive an offer `dist(v) + w(v,u)` no
/// worse than its current label. `<=` (not `<`) is deliberate: an
/// exactly-equal offer cannot improve a distance, but it can move a
/// predecessor under the search's tie rule, and the cache promises
/// *bitwise* fidelity, so ties queue a repair too. When this is
/// `false` the stored run is already the run with `v` relaying.
fn improvement_possible(
    net: &QuantumNetwork,
    run: &DijkstraRun,
    v: NodeId,
    alpha: f64,
    neg_ln_q: f64,
) -> bool {
    let Some(dv) = run.distance(v) else {
        // A vertex the source cannot even reach helps nobody as a relay.
        return false;
    };
    for &(u, e) in net.graph().neighbor_slice(v) {
        let w = alpha * net.length(e) + neg_ln_q;
        let du = run.distance(u).unwrap_or(f64::INFINITY);
        if dv + w <= du {
            return true;
        }
    }
    false
}

/// How a cache entry must be brought up to date with the capacity map,
/// as derived from the relay-state diffs observed since the entry was
/// last validated. `Clean` entries are revalidated in O(1);
/// `Repair(delta)` entries get an in-place SSSP repair for exactly the
/// net relay flips in `delta` (blocked and restored relays; a flip back
/// cancels); `Recompute` entries — masked entries that saw any flip —
/// fall back to a full search.
#[derive(Clone, Debug, PartialEq)]
enum Pending {
    Clean,
    Repair(SsspDelta),
    Recompute,
}

/// One memoized single-source run plus its staleness bookkeeping.
struct Entry<'n> {
    /// `(capacity epoch, mask hash)` the run was last validated at.
    key: (u64, u64),
    /// What the next lookup at a different epoch must do.
    pending: Pending,
    finder: ChannelFinder<'n>,
}

/// Memoizes single-source Algorithm-1 runs across solver rounds.
///
/// Greedy solvers (Prim-based, Algorithm 3/4, beam search, local search)
/// re-run the same sources many times between capacity changes. Each
/// cache entry is keyed by `(source, capacity epoch, mask hash)`: a
/// lookup whose stored key matches returns the memoized finder with no
/// search at all.
///
/// A key mismatch no longer voids the entry wholesale. The cache keeps
/// a *relay mirror* — the per-node relay predicate of the last capacity
/// map it observed — and diffs it against every new epoch (DESIGN.md
/// §15). Only nodes whose relay bit actually flipped dirty anything,
/// and only the entries their flip can reach:
///
/// * no flip (capacity moved but stayed on the same side of the ≥ 2
///   threshold everywhere): every entry is revalidated in O(1) —
///   `graph.delta.clean`;
/// * a relay revoked (worsening): affected entries (same component,
///   node reachable in the stored run) queue a block;
/// * a relay restored (improving): a clean entry where the restored
///   node could offer a no-worse label to any neighbor queues a
///   restore; an entry with flips already pending queues it
///   unconditionally;
/// * a flip that reverses a queued one cancels it, and an entry whose
///   queue empties is clean again;
/// * masked entries always fall back to a full search on any flip (the
///   cache stores only the mask's hash, not its dead set) —
///   `graph.delta.recomputed`.
///
/// A stale entry with queued flips is repaired in place by
/// [`dijkstra_repair_into`] — blocks first, against the stored run, then
/// a decrease pass for the restores — `graph.delta.repaired`, plus
/// `graph.delta.restored` when restores were applied.
///
/// The epoch key is retained purely as the correctness *backstop*: a
/// lookup whose epoch matches needs no reasoning at all, and any bug in
/// the dirty-set derivation is bounded by the differential battery
/// (`tests/delta_cache.rs`, qnet-conformance `--delta` oracle), not by
/// silent reuse — entries are never served on an epoch mismatch without
/// passing through the observe/classify step first.
///
/// Correctness rests on these invariants (see DESIGN.md):
///
/// * epochs are process-globally unique per mutation, so epoch equality
///   implies content equality even across diverged clones — and the
///   relay mirror can be diffed by *content* against any successor map,
///   which is what makes clone ping-pong (trial maps in the stream
///   scenario) cheap instead of cache-hostile;
/// * a [`SearchMask`]'s hash is an order-independent digest of its dead
///   set, `0` for the empty mask, so a masked run can never be served
///   to an unmasked query at the same epoch (or vice versa) — the
///   "stale mask poisons the cache" failure mode;
/// * Algorithm 1's result depends only on (network, relay predicate,
///   mask, source) — the network is fixed per cache, the relay
///   predicate by the mirror diff, the mask by its hash.
///
/// Hits and misses are observable as `core.channel.cache_hits` /
/// `core.channel.cache_misses`; [`search_count`] tallies the full
/// searches this cache actually executed (the repair engine's latency
/// metric — in-place repairs are tallied separately in
/// [`CacheEfficiency::repairs`]).
///
/// [`epoch`]: CapacityMap::epoch
/// [`search_count`]: ChannelFinderCache::search_count
pub struct ChannelFinderCache<'n> {
    net: &'n QuantumNetwork,
    /// The one workspace every search and repair of this cache runs in.
    ws: DijkstraWorkspace,
    /// Indexed by source node; each entry stores the (epoch, mask hash)
    /// key its run was computed under plus its pending dirty state.
    entries: Vec<Option<Entry<'n>>>,
    /// Static component/bridge analysis of the network graph, used to
    /// pre-filter which sources a relay flip can possibly affect.
    classifier: DeltaClassifier,
    /// Reusable marking buffers for [`dijkstra_repair_into`].
    scratch: RepairScratch,
    /// Per-node relay predicate of the capacity map last observed
    /// (`swaps possible && switch && free ≥ 2`), diffed by content
    /// against each newly observed map.
    mirror: Vec<bool>,
    /// Epoch [`mirror`](Self::mirror) reflects; `None` before the first
    /// observation.
    mirror_epoch: Option<u64>,
    /// Full searches actually executed (misses), monotone.
    searches: u64,
    /// Per-instance hit/miss/refresh/repair tallies (see
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
    /// Lookups answered from a memoized run (no search).
    pub hits: u64,
    /// Misses that re-ran the search *in place* over an existing
    /// entry's buffers (steady state: zero allocation): a masked entry
    /// after a relay flip, or an entry asked under another mask.
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
    /// An empty cache for `net`; entries populate lazily per source.
    pub fn new(net: &'n QuantumNetwork) -> Self {
        let nodes = net.graph().node_count();
        ChannelFinderCache {
            net,
            ws: DijkstraWorkspace::with_capacity(nodes),
            entries: (0..nodes).map(|_| None).collect(),
            classifier: DeltaClassifier::new(net.graph()),
            scratch: RepairScratch::new(),
            mirror: Vec::new(),
            mirror_epoch: None,
            searches: 0,
            efficiency: CacheEfficiency::default(),
        }
    }

    /// Synchronizes the relay mirror with `capacity` and reclassifies
    /// every entry's pending state against the relay flips the diff
    /// reveals. Every lookup and warm passes through here exactly once
    /// per new epoch, *before* any key comparison — that single coherent
    /// snapshot is what makes "delta landed between snapshot and
    /// install" impossible (the satellite-4 hazard): keys installed
    /// later in the same call are always keyed to the observed epoch,
    /// and the map cannot mutate while borrowed.
    fn observe(&mut self, capacity: &CapacityMap) {
        let epoch = capacity.epoch();
        if self.mirror_epoch == Some(epoch) {
            // Epochs are globally unique per mutation: same epoch means
            // the map content is bit-identical to the mirror.
            return;
        }
        let net = self.net;
        let q = net.physics().swap_success;
        let swaps_possible = q > 0.0;
        let relay_now: Vec<bool> = net
            .graph()
            .node_ids()
            .map(|v| swaps_possible && net.kind(v).is_switch() && capacity.can_relay(v))
            .collect();
        if self.mirror_epoch.is_some() {
            let alpha = net.physics().attenuation;
            let neg_ln_q = if q > 0.0 { -(q.ln()) } else { 0.0 };
            for (i, (&now, &before)) in relay_now.iter().zip(self.mirror.iter()).enumerate() {
                if now == before {
                    continue;
                }
                let v = NodeId::new(i);
                for entry in self.entries.iter_mut().flatten() {
                    if entry.key.1 != 0 {
                        // Only the mask's hash is stored, so masked
                        // entries cannot be classified — conservative.
                        entry.pending = Pending::Recompute;
                        continue;
                    }
                    let run = &entry.finder.run;
                    // A block matters only where the stored run reaches
                    // the vertex: elsewhere it never relayed.
                    let reaches = || {
                        self.classifier.node_may_affect(run.source(), v)
                            && run.distance(v).is_some()
                    };
                    match &mut entry.pending {
                        Pending::Clean => {
                            let mut delta = SsspDelta::new();
                            if !now && reaches() {
                                delta.block_node(v);
                            } else if now && improvement_possible(net, run, v, alpha, neg_ln_q) {
                                delta.restore_node(v);
                            }
                            if !delta.is_empty() {
                                entry.pending = Pending::Repair(delta);
                            }
                        }
                        Pending::Repair(delta) => {
                            if now {
                                delta.restore_node(v);
                            } else if delta.restored_nodes().contains(&v) || reaches() {
                                delta.block_node(v);
                            }
                            if delta.is_empty() {
                                entry.pending = Pending::Clean;
                            }
                        }
                        Pending::Recompute => {}
                    }
                }
            }
        }
        self.mirror = relay_now;
        self.mirror_epoch = Some(epoch);
    }

    /// The Algorithm-1 run from `source` under `capacity`, reused when
    /// `capacity` has not changed since the entry was computed.
    pub fn finder(&mut self, capacity: &CapacityMap, source: NodeId) -> &ChannelFinder<'n> {
        self.finder_masked(capacity, None, source)
    }

    /// [`ChannelFinderCache::finder`] under a failure mask: the entry is
    /// keyed by `(source, epoch, mask hash)`, so masked and unmasked
    /// runs at the same epoch never alias.
    pub fn finder_masked(
        &mut self,
        capacity: &CapacityMap,
        mask: Option<&SearchMask>,
        source: NodeId,
    ) -> &ChannelFinder<'n> {
        self.observe(capacity);
        if self.update(capacity, mask, source) {
            qnet_obs::counter!("core.channel.cache_hits");
            self.efficiency.hits += 1;
        }
        &self.entries[source.index()]
            .as_ref()
            .expect("entry just populated")
            .finder
    }

    /// Brings `source`'s entry up to date with `(capacity, mask)`, which
    /// [`observe`](Self::observe) must already have seen. Returns `true`
    /// when no work was needed — the stored key matched, or no relay flip
    /// reached the run (an O(1) revalidation) — which lookups tally as a
    /// hit and warm batches do not tally at all. Otherwise the entry is
    /// repaired in place, re-searched over its own buffers (refresh) or
    /// filled for the first time, with the matching tallies.
    fn update(
        &mut self,
        capacity: &CapacityMap,
        mask: Option<&SearchMask>,
        source: NodeId,
    ) -> bool {
        let epoch = capacity.epoch();
        let key = (epoch, mask.map_or(0, |m| m.hash()));
        match &mut self.entries[source.index()] {
            Some(entry) if entry.key == key => true,
            Some(entry) if entry.key.1 == key.1 && entry.pending == Pending::Clean => {
                // Capacity moved, but no relay flip can reach this run:
                // revalidate in O(1), no search.
                qnet_obs::counter!("graph.delta.clean");
                entry.key = key;
                entry.finder.epoch = epoch;
                true
            }
            Some(entry)
                if entry.key.1 == key.1
                    && key.1 == 0
                    && matches!(entry.pending, Pending::Repair(_)) =>
            {
                let Pending::Repair(delta) = std::mem::replace(&mut entry.pending, Pending::Clean)
                else {
                    unreachable!("guard matched Repair");
                };
                qnet_obs::counter!("core.channel.cache_repairs");
                self.efficiency.repairs += 1;
                let stats = repair_algorithm1(
                    &mut self.ws,
                    &mut self.scratch,
                    self.net,
                    capacity,
                    &mut entry.finder.run,
                    &delta,
                );
                if stats.restored > 0 {
                    self.efficiency.restores += 1;
                }
                entry.key = key;
                entry.finder.epoch = epoch;
                false
            }
            Some(entry) => {
                qnet_obs::counter!("core.channel.cache_misses");
                qnet_obs::counter!("core.channel.cache_refreshes");
                if entry.key.1 == key.1 {
                    // Same mask, stale capacity: a masked entry saw a
                    // relay flip it cannot classify, not a key change.
                    qnet_obs::counter!("graph.delta.recomputed");
                }
                self.efficiency.refreshes += 1;
                run_algorithm1(&mut self.ws, self.net, capacity, source, mask)
                    .write_run(&mut entry.finder.run);
                entry.finder.epoch = epoch;
                entry.key = key;
                entry.pending = Pending::Clean;
                self.searches += 1;
                false
            }
            slot @ None => {
                qnet_obs::counter!("core.channel.cache_misses");
                self.efficiency.fills += 1;
                let run = run_algorithm1(&mut self.ws, self.net, capacity, source, mask).to_run();
                *slot = Some(Entry {
                    key,
                    pending: Pending::Clean,
                    finder: ChannelFinder {
                        net: self.net,
                        run,
                        epoch,
                    },
                });
                self.searches += 1;
                false
            }
        }
    }

    /// Brings the entries for `sources` up to date under `capacity` —
    /// **Algorithm 1 as a multi-source batch**. Sources whose entry is
    /// already fresh are skipped; the rest are repaired or searched in
    /// `sources` order on the cache's workspace, each stale entry's
    /// result buffers recycled. Subsequent
    /// [`finder`](ChannelFinderCache::finder) calls for these sources at
    /// the same epoch are then cache hits. Warm searches tally as misses
    /// (refresh or fill) exactly like the lazy path; fresh entries are
    /// not tallied as hits.
    pub fn warm(&mut self, capacity: &CapacityMap, sources: &[NodeId]) {
        self.warm_masked(capacity, None, sources)
    }

    /// [`ChannelFinderCache::warm`] under a failure mask.
    pub fn warm_masked(
        &mut self,
        capacity: &CapacityMap,
        mask: Option<&SearchMask>,
        sources: &[NodeId],
    ) {
        // One coherent snapshot before any entry is touched: every key
        // installed below is keyed to this observed epoch, and
        // `capacity` cannot mutate while the call borrows it, so a delta
        // can never land between the snapshot and the install (the warm
        // staleness hazard `tests/delta_cache.rs` locks down).
        self.observe(capacity);
        for &src in sources {
            self.update(capacity, mask, src);
        }
    }

    /// Eagerly synchronizes the cache with `capacity` without serving a
    /// lookup: the relay mirror is diffed and every entry's pending
    /// state reclassified *now* instead of at the next finder call.
    ///
    /// This is the departure hook the streaming/serving session loops
    /// call. Releasing a departed group's channels flips its relays
    /// back on; absorbing that delta immediately cancels the blocks
    /// still queued for exactly those relays, and queues a restore
    /// wherever a relay comes back to a run that was already repaired
    /// without it. A later lookup would classify the same flips; the
    /// runs served are the same either way.
    pub fn absorb(&mut self, capacity: &CapacityMap) {
        self.observe(capacity);
    }

    /// [`max_rate_channel`] through the cache.
    pub fn channel(&mut self, capacity: &CapacityMap, a: NodeId, b: NodeId) -> Option<Channel> {
        self.finder(capacity, a).channel_to(b)
    }

    /// [`ChannelFinderCache::channel`] under a failure mask.
    pub fn channel_masked(
        &mut self,
        capacity: &CapacityMap,
        mask: Option<&SearchMask>,
        a: NodeId,
        b: NodeId,
    ) -> Option<Channel> {
        self.finder_masked(capacity, mask, a).channel_to(b)
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

    /// This cache's lookup tallies, split hit/refresh/fill. Fully
    /// deterministic for a fixed query sequence (unlike wall time), so
    /// `repro profile` byte-compares them across runs.
    pub fn efficiency(&self) -> CacheEfficiency {
        self.efficiency
    }

    /// Drops every memoized entry (the workspace and tallies are kept):
    /// the next lookup per source is a *fill*, not a refresh. This is how
    /// the search-core bench measures the fill path in isolation —
    /// refreshes and fills run the identical search; only the result
    /// buffers differ (recycled vs freshly allocated).
    pub fn clear(&mut self) {
        self.entries.iter_mut().for_each(|e| *e = None);
    }
}

/// Where a Prim growth step gets its Algorithm-1 runs. The
/// [`ChannelFinderCache`] serves memoized, delta-repaired runs; a cold
/// source that searches afresh on every call is the reference the
/// serve differential battery compares it against.
pub trait ChannelSource<'n> {
    /// The Algorithm-1 run from `source` under `capacity`.
    fn finder(&mut self, capacity: &CapacityMap, source: NodeId) -> &ChannelFinder<'n>;
}

impl<'n> ChannelSource<'n> for ChannelFinderCache<'n> {
    fn finder(&mut self, capacity: &CapacityMap, source: NodeId) -> &ChannelFinder<'n> {
        self.finder_masked(capacity, None, source)
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
        let finder = ChannelFinder::from_source_in(&mut ws, &net, &cap, users[0], None);
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
        let mut ws = DijkstraWorkspace::new();
        let c = ChannelFinder::from_source_in(&mut ws, &net, &cap, a, Some(&mask))
            .channel_to(b)
            .unwrap();
        assert_eq!(c.link_count(), 1, "masked edge forces the direct fiber");

        // Kill the switch instead: same outcome, and s1 is untouchable.
        let mut mask = SearchMask::new();
        mask.kill_node(s1);
        let finder = ChannelFinder::from_source_in(&mut ws, &net, &cap, a, Some(&mask));
        let c = finder.channel_to(b).unwrap();
        assert_eq!(c.link_count(), 1);
        assert!(finder.channel_to(s1).is_none(), "dead vertex unreachable");
    }

    #[test]
    fn stale_mask_never_poisons_the_cache() {
        // Regression: the cache used to key entries by epoch alone, so a
        // masked search left a poisoned entry that an unmasked query at
        // the same epoch would happily reuse.
        let (net, [a, s1, b]) = two_route_net(0.99);
        let cap = CapacityMap::new(&net);
        let mut mask = SearchMask::new();
        mask.kill_node(s1);
        let mut cache = ChannelFinderCache::new(&net);

        // Masked query first: detour around the dead switch.
        let masked = cache.channel_masked(&cap, Some(&mask), a, b).unwrap();
        assert_eq!(masked.link_count(), 1);
        // Unmasked query at the SAME epoch must re-search, not reuse the
        // masked run: the via-switch route is alive and better.
        let unmasked = cache.channel(&cap, a, b).unwrap();
        assert_eq!(unmasked.link_count(), 2, "stale-mask cache hit");
        assert_eq!(unmasked.interior_switches(), &[s1]);
        // And flipping back must not reuse the unmasked run either.
        let masked_again = cache.channel_masked(&cap, Some(&mask), a, b).unwrap();
        assert_eq!(masked_again.link_count(), 1);
        assert_eq!(cache.search_count(), 3, "three distinct keys, no hits");

        // Same mask twice at the same epoch *is* a hit.
        let repeat = cache.channel_masked(&cap, Some(&mask), a, b).unwrap();
        assert_eq!(repeat.link_count(), 1);
        assert_eq!(cache.search_count(), 3, "identical key must hit");

        // An equal-content mask built in a different order hits too.
        let mut mask2 = SearchMask::new();
        mask2.kill_node(s1);
        let again = cache.channel_masked(&cap, Some(&mask2), a, b).unwrap();
        assert_eq!(again.link_count(), 1);
        assert_eq!(cache.search_count(), 3);
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
        // delta engine revalidates in O(1) — a hit, not a refresh.
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

        // A lookup under a mask the entry was not computed for is a
        // full search over the entry's buffers: a refresh.
        let mut mask = SearchMask::new();
        mask.kill_node(s1);
        let masked = cache.channel_masked(&cap, Some(&mask), a, b).unwrap();
        assert_eq!(masked.link_count(), 1);

        let eff = cache.efficiency();
        assert_eq!(
            eff,
            CacheEfficiency {
                hits: 3,
                refreshes: 1,
                fills: 2,
                repairs: 2,
                restores: 1,
            }
        );
        assert_eq!(eff.lookups(), 8);
        assert!((eff.hit_rate() - 3.0 / 8.0).abs() < 1e-12);
        assert_eq!(
            cache.search_count(),
            eff.refreshes + eff.fills,
            "searches are the full-search misses; repairs are not searches"
        );

        // clear() drops the entries but keeps the tallies: the next
        // lookup at an unchanged epoch is a fill again, not a hit.
        cache.clear();
        let ch2 = cache.channel(&cap, a, b).unwrap();
        assert_eq!(ch2, back, "clear must not change results, only reuse");
        assert_eq!(cache.efficiency().fills, 3, "post-clear lookup is a fill");
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
