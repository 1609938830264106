//! Differential battery for the finder cache's relay-bit rule: every
//! lookup served after a sequence of capacity deltas — by O(1)
//! revalidation or by an in-place SSSP repair of blocked and restored
//! relays — must be **bitwise identical** to a cold, cache-free
//! `ChannelFinder` under the same capacity map, the warm path must
//! never install an entry a delta could leave stale (the
//! snapshot/install hazard), and when the cache sees a map must not
//! change what it serves or tallies. Scoped lookups, which may answer
//! from a stale run, must give every named target the cold channel. A
//! degraded cache, whose dead fibers and switches cost `+∞`, must answer
//! as a cold search on the network with the failures removed.

use muerp_core::algorithms::{
    max_rate_channel, CacheEfficiency, ChannelFinder, ChannelFinderCache, ChannelSource,
};
use muerp_core::channel::{CapacityMap, Channel};
use muerp_core::model::{NetworkSpec, QuantumNetwork};
use muerp_core::survive::{FailurePlan, NetworkState};
use qnet_graph::{DijkstraWorkspace, NodeId};
use qnet_obs::ObsLevel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A cold, cache-free Algorithm-1 run from `src` under `capacity`.
fn cold<'n>(net: &'n QuantumNetwork, capacity: &CapacityMap, src: NodeId) -> ChannelFinder<'n> {
    ChannelFinder::from_source_in(&mut DijkstraWorkspace::new(), net, capacity, src)
}

/// Asserts every cached per-source run equals a cold from-scratch run
/// under `capacity` — distances, predecessors, reachability.
fn assert_matches_cold(
    net: &QuantumNetwork,
    cache: &mut ChannelFinderCache<'_>,
    capacity: &CapacityMap,
    sources: &[NodeId],
    context: &str,
) {
    for &src in sources {
        let cached = cache.finder(capacity, src).run().clone();
        assert_eq!(
            &cached,
            cold(net, capacity, src).run(),
            "cached run for source {src} diverged from cold recomputation ({context})"
        );
    }
}

/// A deterministic delta schedule exercising every classification arm:
/// threshold-preserving reserves (clean), relay-killing withdrawals
/// (blocks), restorations (restores), cancelling round trips, and a
/// partial grant that crosses the ≥ 2 threshold while a kill is pending
/// on another relay (a mixed block-plus-restore repair). The schedule
/// is a list of batches; the cache is consulted only after a whole
/// batch, so one lookup nets several flips.
fn delta_schedule(net: &QuantumNetwork) -> Vec<Vec<(NodeId, i64)>> {
    let switches: Vec<NodeId> = net.switches().collect();
    let mut schedule = Vec::new();
    for (i, &s) in switches.iter().enumerate().take(8) {
        match i % 4 {
            0 => {
                // Kill the relay outright, then bring it back.
                schedule.push(vec![(s, -1_000)]);
                schedule.push(vec![(s, 1_000)]);
            }
            1 => {
                // Shave capacity without crossing the ≥ 2 threshold.
                let spare = net.kind(s).qubits().saturating_sub(3).min(4) as i64;
                schedule.push(vec![(s, -spare)]);
            }
            2 => {
                // Kill another relay and leave it dead.
                schedule.push(vec![(s, -1_000)]);
            }
            _ => {
                // Drain a relay to one qubit; then, in one batch, kill
                // the next switch and grant the drained relay one qubit
                // back; then revive the killed switch.
                let next = switches[(i + 1) % switches.len()];
                let q = i64::from(net.kind(s).qubits());
                schedule.push(vec![(s, 1 - q)]);
                schedule.push(vec![(next, -1_000), (s, 1)]);
                schedule.push(vec![(next, 1_000)]);
            }
        }
    }
    schedule
}

/// Applies one batch, handing the map to `observe` after every delta.
fn apply(
    capacity: &mut CapacityMap,
    batch: &[(NodeId, i64)],
    mut observe: impl FnMut(&CapacityMap),
) {
    for &(node, qubits) in batch {
        if qubits < 0 {
            capacity.withdraw(node, (-qubits) as u32);
        } else {
            capacity.grant(node, qubits as u32);
        }
        observe(capacity);
    }
}

#[test]
fn delta_sequence_matches_cold_cache_at_every_step() {
    let net = NetworkSpec::paper_default().build(42);
    let users = net.users().to_vec();
    let mut capacity = CapacityMap::new(&net);
    let mut cache = ChannelFinderCache::new(&net);
    cache.warm(&capacity, &users);
    assert_matches_cold(&net, &mut cache, &capacity, &users, "initial warm");

    for (step, batch) in delta_schedule(&net).iter().enumerate() {
        apply(&mut capacity, batch, |_| {});
        assert_matches_cold(
            &net,
            &mut cache,
            &capacity,
            &users,
            &format!("after batch #{step} {batch:?}"),
        );
    }
    let eff = cache.efficiency();
    assert!(
        eff.restores > 0 && eff.repairs > eff.restores,
        "the schedule must exercise worsening and improving repairs, got {eff:?}"
    );
    assert_eq!(
        cache.search_count(),
        eff.fills,
        "every stale unmasked entry is repaired in place"
    );
}

#[test]
fn observing_every_delta_changes_no_run_and_no_tally() {
    // A cache that sees the map after every delta (a warm over no
    // sources) and one that sees it only at lookups must serve the same
    // runs with the same search counts and tallies at every step.
    for seed in 0..40 {
        let net = NetworkSpec::paper_default().build(seed);
        let users = net.users().to_vec();
        let mut capacity = CapacityMap::new(&net);
        let mut observed = ChannelFinderCache::new(&net);
        let mut lazy = ChannelFinderCache::new(&net);
        observed.warm(&capacity, &users);
        lazy.warm(&capacity, &users);
        for (step, batch) in delta_schedule(&net).iter().enumerate() {
            apply(&mut capacity, batch, |map| observed.warm(map, &[]));
            let context = format!("seed {seed}, batch #{step} {batch:?}");
            for &src in &users {
                let run = observed.finder(&capacity, src).run().clone();
                assert_eq!(&run, lazy.finder(&capacity, src).run(), "{context}");
            }
            assert_eq!(observed.search_count(), lazy.search_count(), "{context}");
            assert_eq!(observed.efficiency(), lazy.efficiency(), "{context}");
        }
    }
}

#[test]
fn warm_after_each_delta_matches_cold_finders() {
    // `delta_sequence_matches_cold_cache_at_every_step` warms once and
    // then looks up lazily; here every batch is followed by a `warm`, and
    // every run it leaves must equal a cold finder. The lookups must all
    // be hits, so the runs compared are exactly the ones warm installed.
    let net = NetworkSpec::paper_default().build(7);
    let users = net.users().to_vec();
    let mut capacity = CapacityMap::new(&net);
    let mut cache = ChannelFinderCache::new(&net);
    cache.warm(&capacity, &users);
    for (step, batch) in delta_schedule(&net).iter().enumerate() {
        apply(&mut capacity, batch, |_| {});
        cache.warm(&capacity, &users);
        let searches = cache.search_count();
        let before = cache.efficiency();
        let context = format!("warm after batch #{step} {batch:?}");
        assert_matches_cold(&net, &mut cache, &capacity, &users, &context);
        let after = cache.efficiency();
        assert_eq!(cache.search_count(), searches, "{context}: lookup searched");
        assert_eq!(
            after.hits - before.hits,
            users.len() as u64,
            "{context}: every lookup after a warm must be a hit"
        );
        assert_eq!(after.repairs, before.repairs, "{context}: lookup repaired");
    }
    let eff = cache.efficiency();
    assert!(
        eff.restores > 0 && eff.repairs > eff.restores,
        "the schedule must reach warm's worsening and improving repairs, got {eff:?}"
    );
}

#[test]
fn warm_snapshot_cannot_leave_stale_entry_marked_clean() {
    // Regression: `warm` snapshots the epoch before touching any entry
    // and installs entries keyed to it. A delta
    // "landing between snapshot and install" — i.e. any mutation the
    // cache has not observed when the entries are consulted next — must
    // be netted against those entries' relay bits, never skipped.
    let net = NetworkSpec::paper_default().build(11);
    let users = net.users().to_vec();
    let capacity = CapacityMap::new(&net);
    let mut cache = ChannelFinderCache::new(&net);
    cache.warm(&capacity, &users);
    let warmed_searches = cache.search_count();

    // The delta lands right after the warm's install: kill a relay that
    // sits on at least one cached shortest-path tree.
    let mut degraded = capacity.clone();
    let victim = net
        .switches()
        .find(|&s| {
            users
                .iter()
                .any(|&u| cache.finder(&capacity, u).run().distance(s).is_some())
        })
        .expect("some switch is reachable from some user");
    degraded.withdraw(victim, 1_000);

    // Every lookup under the degraded map must match a cold finder —
    // an entry still marked clean for the old snapshot would serve the
    // pre-delta tree here.
    assert_matches_cold(&net, &mut cache, &degraded, &users, "post-warm delta");
    assert_eq!(
        cache.search_count(),
        warmed_searches,
        "a relay kill is locally repairable: no full searches, only repairs"
    );
    assert!(cache.efficiency().repairs > 0, "delta must not be absorbed");

    // And flipping back to the original map (epoch ping-pong across the
    // same content) must repair the restore, not reuse the degraded
    // trees, and still run no full search.
    let restored = {
        let mut c = degraded.clone();
        c.grant(victim, 1_000);
        c
    };
    assert_matches_cold(&net, &mut cache, &restored, &users, "restored map");
    assert_eq!(cache.search_count(), warmed_searches);
}

#[test]
fn kill_and_restore_cancels_pending_repairs() {
    // A worsening flip observed mid-flight and then reversed before the
    // other entries are consulted must net out: their relay bits match
    // again, and they revalidate to their original (still
    // bitwise-correct) runs.
    let net = NetworkSpec::paper_default().build(5);
    let users = net.users().to_vec();
    assert!(users.len() >= 2);
    let mut capacity = CapacityMap::new(&net);
    let mut cache = ChannelFinderCache::new(&net);
    cache.warm(&capacity, &users);

    let victim = net
        .switches()
        .find(|&s| {
            users
                .iter()
                .any(|&u| cache.finder(&capacity, u).run().distance(s).is_some())
        })
        .expect("some switch is reachable from some user");
    let searches_before = cache.search_count();

    // Kill the relay and consult only the first user: that entry is
    // repaired now; every other entry is still exact for victim relaying.
    capacity.withdraw(victim, 1_000);
    let cold = cold(&net, &capacity, users[0]);
    assert_eq!(cache.finder(&capacity, users[0]).run(), cold.run());

    // Restore before anyone else looks: their relay bits match again.
    capacity.grant(victim, 1_000);
    assert_matches_cold(&net, &mut cache, &capacity, &users, "after cancel");
    // The un-consulted entries were served without any full search,
    // and the first user's entry (validated while the relay was dead)
    // is repaired in place once the relay returns.
    assert_eq!(
        cache.search_count(),
        searches_before,
        "cancelled blocks and restores must not trigger a full search"
    );
}

#[test]
fn threshold_preserving_ping_pong_never_searches() {
    // The stream scenario's trial-capacity clone dance: reserve/release
    // cycles that never cross the ≥ 2 relay threshold bump the epoch on
    // every step, yet the cache must serve all of it with the initial
    // fills only.
    let net = NetworkSpec::paper_default().with_qubits(8).build(3);
    let users = net.users().to_vec();
    let mut capacity = CapacityMap::new(&net);
    let mut cache = ChannelFinderCache::new(&net);

    let baseline: Vec<_> = users
        .iter()
        .map(|&u| cache.finder(&capacity, u).run().clone())
        .collect();
    let fills = cache.search_count();

    let roomy: Vec<NodeId> = net
        .switches()
        .filter(|&s| net.kind(s).qubits() >= 6)
        .take(3)
        .collect();
    assert!(!roomy.is_empty(), "paper topology has roomy switches");
    for round in 0..4 {
        let mut trial = capacity.clone();
        for &s in &roomy {
            trial.withdraw(s, 2); // stays ≥ 2: no relay flip
        }
        capacity = trial;
        for (i, &u) in users.iter().enumerate() {
            assert_eq!(
                cache.finder(&capacity, u).run(),
                &baseline[i],
                "round {round}: threshold-preserving delta changed a run"
            );
        }
        for &s in &roomy {
            capacity.grant(s, 2);
        }
    }
    assert_eq!(
        cache.search_count(),
        fills,
        "every post-fill lookup must be an O(1) revalidation"
    );
    assert_eq!(cache.efficiency().repairs, 0);
}

/// `true` when two answers are the same channel bit for bit: path,
/// cost and rate.
fn same_channel(a: &Option<Channel>, b: &Option<Channel>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => {
            a.path.nodes == b.path.nodes
                && a.path.edges == b.path.edges
                && a.path.cost.to_bits() == b.path.cost.to_bits()
                && a.rate.value().to_bits() == b.rate.value().to_bits()
        }
        (a, b) => a.is_none() && b.is_none(),
    }
}

/// One random capacity change: reserve a cold channel between two
/// users, release a reserved one, or withdraw or grant 1–4 qubits at a
/// switch.
fn mutate(
    net: &QuantumNetwork,
    capacity: &mut CapacityMap,
    reserved: &mut Vec<Channel>,
    rng: &mut StdRng,
) -> &'static str {
    let users = net.users();
    let switches: Vec<NodeId> = net.switches().collect();
    let s = switches[rng.random_range(0..switches.len())];
    let qubits = rng.random_range(1..=4u32);
    match rng.random_range(0..4u8) {
        0 => {
            let a = users[rng.random_range(0..users.len())];
            let b = users[rng.random_range(0..users.len())];
            if let Some(c) = max_rate_channel(net, capacity, a, b) {
                capacity.reserve(&c);
                reserved.push(c);
            }
            "reserve"
        }
        1 if !reserved.is_empty() => {
            let c = reserved.swap_remove(rng.random_range(0..reserved.len()));
            capacity.release(&c);
            "release"
        }
        2 => {
            capacity.withdraw(s, qubits);
            "withdraw"
        }
        _ => {
            capacity.grant(s, qubits);
            "grant"
        }
    }
}

#[test]
fn scoped_answers_match_cold_channels() {
    // Random reserve/release/withdraw/grant sequences on the paper
    // default and on a 2-qubit Waxman. After every op each user's run is
    // read through a scoped lookup at a random subset of the other users,
    // and every channel must equal the cold `max_rate_channel` bit for
    // bit. Every fifth op a whole-run lookup, which nets every flip the
    // scoped answers left standing, must equal a cold run.
    let _capture = qnet_obs::Capture::begin(ObsLevel::Counters);
    let scoped = || qnet_obs::global().counter_total("core.channel.cache_scoped");
    let specs = [
        ("paper-default", NetworkSpec::paper_default()),
        (
            "2-qubit waxman",
            NetworkSpec::paper_default().with_qubits(2),
        ),
    ];
    for (name, spec) in specs {
        for seed in 0..24u64 {
            let net = spec.build(seed);
            let users = net.users().to_vec();
            let mut capacity = CapacityMap::new(&net);
            let mut cache = ChannelFinderCache::new(&net);
            let mut reserved = Vec::new();
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5c0e_d0a1);
            for step in 0..30usize {
                let op = mutate(&net, &mut capacity, &mut reserved, &mut rng);
                for &src in &users {
                    let pick: u64 = rng.random_range(0..u64::MAX);
                    let targets = users
                        .iter()
                        .enumerate()
                        .filter(move |&(i, &t)| t != src && pick >> i & 1 == 1)
                        .map(|(_, &t)| t);
                    let finder = cache.finder_for(&capacity, src, targets.clone());
                    for t in targets {
                        let want = max_rate_channel(&net, &capacity, src, t);
                        assert!(
                            same_channel(&finder.channel_to(t), &want),
                            "{name} seed {seed} step {step} ({op}): {src} → {t}"
                        );
                    }
                }
                if step % 5 == 4 {
                    let src = users[step % users.len()];
                    assert_eq!(
                        cache.finder(&capacity, src).run(),
                        cold(&net, &capacity, src).run(),
                        "{name} seed {seed} step {step}: whole run from {src}"
                    );
                }
            }
        }
    }
    assert!(scoped() > 0, "no lookup was answered scoped");
}

#[test]
fn degraded_lookups_match_cold_channels_on_the_materialized_network() {
    // 2-qubit, degree-4 paper-default networks hit by six seeded
    // failures. A degraded cache serves random lookups while random
    // reserves and releases move the relay bits under it, so its stale
    // entries are repaired with the dead fibers and switches in place.
    // Every answer must equal a cold search on the materialized network
    // (failures removed, lost qubits withdrawn) under the same
    // reservations: the same node sequence, cost bits and rate bits.
    // Edge ids differ, since materializing renumbers them.
    let mut spec = NetworkSpec::paper_default().with_qubits(2);
    spec.topology.avg_degree = 4.0;
    let mut total = CacheEfficiency::default();
    for seed in 0..24u64 {
        let net = spec.build(seed);
        let mut state = NetworkState::new(&net);
        for failure in &FailurePlan::random(&net, 6, 400, seed).failures {
            state.apply(&failure.kind);
        }
        let materialized = state.materialize();
        let mut capacity = state.degraded_capacity();
        let mut cold_capacity = CapacityMap::new(&materialized);
        let mut cache = ChannelFinderCache::degraded(&net, state.mask());
        let users = net.users().to_vec();
        let mut reserved: Vec<Channel> = Vec::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0dea_d5e7);
        for step in 0..60usize {
            let a = users[rng.random_range(0..users.len())];
            let b = users[rng.random_range(0..users.len())];
            let got = cache.channel(&capacity, a, b);
            let want = max_rate_channel(&materialized, &cold_capacity, a, b);
            let key = |c: &Option<Channel>| {
                c.as_ref().map(|c| {
                    let bits = (c.path.cost.to_bits(), c.rate.value().to_bits());
                    (c.path.nodes.clone(), bits)
                })
            };
            assert_eq!(key(&got), key(&want), "seed {seed} step {step}: {a} → {b}");
            if rng.random_range(0..3u8) > 0 {
                if let Some(c) = got {
                    capacity.reserve(&c);
                    cold_capacity.reserve(&c);
                    reserved.push(c);
                }
            } else if !reserved.is_empty() {
                let c = reserved.swap_remove(rng.random_range(0..reserved.len()));
                capacity.release(&c);
                cold_capacity.release(&c);
            }
        }
        assert_eq!(cache.search_count(), cache.efficiency().fills);
        let eff = cache.efficiency();
        total.hits += eff.hits;
        total.refreshes += eff.refreshes;
        total.fills += eff.fills;
        total.repairs += eff.repairs;
        total.restores += eff.restores;
        total.copies += eff.copies;
    }
    assert_eq!(total.lookups(), 24 * 60);
    assert_eq!(
        total.refreshes, 0,
        "a degraded entry is repaired, never searched again"
    );
    assert!(total.repairs > 0 && total.restores > 0, "{total:?}");
}

#[test]
fn serve_rounds_on_multi_word_relay_bits_copy_fill_runs_exactly() {
    // 2-qubit Waxman networks of 160 nodes, whose relay bits span three
    // words. Each round is a serve round whose sessions all depart before
    // the next: warm every user, reserve 2–5 cold channels, look every
    // user up scoped and whole, release them all. The next warm meets the
    // fill's relay bits again and copies the fill runs. Every run must
    // equal a cold search bit for bit.
    let mut spec = NetworkSpec::paper_default().with_qubits(2);
    spec.topology.nodes = 160;
    let (mut copies, mut repairs) = (0, 0);
    for seed in 0..6u64 {
        let net = spec.build(seed);
        assert!(net.graph().node_count() > 128, "three words of relay bits");
        let users = net.users().to_vec();
        let mut capacity = CapacityMap::new(&net);
        let mut cache = ChannelFinderCache::new(&net);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e_4e5);
        for round in 0..8usize {
            let context = format!("seed {seed} round {round}");
            cache.warm(&capacity, &users);
            assert_matches_cold(&net, &mut cache, &capacity, &users, &context);
            let mut reserved = Vec::new();
            for _ in 0..rng.random_range(2..=5u8) {
                let a = users[rng.random_range(0..users.len())];
                let b = users[rng.random_range(0..users.len())];
                if let Some(c) = max_rate_channel(&net, &capacity, a, b) {
                    capacity.reserve(&c);
                    reserved.push(c);
                }
            }
            for &src in &users {
                let targets = users.iter().copied().filter(move |&t| t != src);
                let finder = cache.finder_for(&capacity, src, targets.clone());
                for t in targets {
                    let want = max_rate_channel(&net, &capacity, src, t);
                    assert!(
                        same_channel(&finder.channel_to(t), &want),
                        "{context}: {src} → {t}"
                    );
                }
            }
            assert_matches_cold(&net, &mut cache, &capacity, &users, &context);
            for c in &reserved {
                capacity.release(c);
            }
        }
        cache.warm(&capacity, &users);
        assert_matches_cold(&net, &mut cache, &capacity, &users, "last warm");

        // Near miss: withdraw one relay in a word past the first that some
        // stored path relays through. The bits differ from the fill's only
        // in that word, so the lookup must repair, not copy.
        let (src, relay) = users
            .iter()
            .find_map(|&src| {
                let run = cache.finder(&capacity, src).run().clone();
                net.graph().node_ids().find_map(|v| {
                    let (p, _) = run.prev_hop(v)?;
                    (p.index() >= 64 && p != src).then_some((src, p))
                })
            })
            .expect("some stored path relays past node 63");
        let before = cache.efficiency();
        capacity.withdraw(relay, 2);
        let context = format!("seed {seed}: withdrew {relay}");
        assert_matches_cold(&net, &mut cache, &capacity, &[src], &context);
        let after = cache.efficiency();
        assert_eq!(
            (after.repairs, after.copies),
            (before.repairs + 1, before.copies),
            "{context}"
        );
        copies += after.copies;
        repairs += after.repairs;
    }
    assert!(
        copies > 0 && repairs > 0,
        "copies {copies}, repairs {repairs}"
    );
}
