//! Delta-engine cost model: incremental repair vs wholesale recompute.
//!
//! The delta engine claims that reacting to a capacity delta is far
//! cheaper than recomputing: a relay kill or restore is patched in place
//! by `dijkstra_repair_into` (only the affected region resettles, or
//! only the labels a restored relay lowers fall), and a
//! threshold-preserving delta costs one word-wise relay-bit refresh
//! plus an O(1) revalidation per entry. This bench puts numbers behind those claims on
//! the same scaled topologies as `search_core`:
//!
//! * **finder_delta_repair** — every user source's stored run repaired
//!   in place after a relay kill (the delta engine's worsening path).
//!   Each op first restores every pre-delta run with `clone_from`, so
//!   every repair is a true repair; the row includes those copies.
//! * **finder_delta_restore** — every user source's post-kill run
//!   repaired in place after the killed relay is granted back (the
//!   improving path: the decrease pass), each op again starting with a
//!   `clone_from` of the post-kill runs.
//! * **finder_delta_copy** — the `clone_from`s alone, which the repair
//!   and restore rows include; they copy whole runs, so they grow with
//!   the graph while the repairs need not.
//! * **finder_delta_wholesale** — the post-kill searches run from
//!   scratch (what an epoch-keyed cache would do for every source).
//! * **finder_delta_clean** — the cache serving an epoch ping-pong with
//!   no relay flip: the relay bits re-read once per epoch, then every
//!   entry revalidated in O(1) by comparing its relay-bit words — zero
//!   searches.
//! * **finder_delta_roundtrip** — the cache serving a kill-then-restore
//!   cycle end to end: in-place repairs on the down edge; the restore
//!   puts every entry's relay bits back at its fill's, so the up edge
//!   copies each fill run back. No full search.
//!
//! Each tier also records the vertices one repair and one restore op
//! resettle (`finder_delta_{repair,restore}_resettled`, summed
//! `RepairStats::resettled` over the sources, taken outside timing) and
//! prints each op's ns per resettled vertex net of the copies
//! ((row − copy) / resettled), so the cost of a unit of change can be
//! compared across tiers: a repair that works only in the changed
//! region costs about the same per vertex on waxman_240 and on
//! waxman_2400.
//!
//! Run with `cargo bench -p muerp-bench --bench delta`. Writes the
//! tracked baseline `BENCH_pr9.json` at the repo root
//! ([`muerp_bench::ledger`]; ns per op, each op covering *all* user
//! sources); the ledger holds a full run's repair and restore rows on
//! every tier to ≤ 0.5 × wholesale. `MUERP_BENCH_QUICK=1` shrinks the
//! measurement windows for CI smoke runs; the report is still checked
//! and written, under `target/bench/`.

use muerp_bench::ledger::{Ledger, Unit};
use muerp_bench::{measure_ns_median, scaled_network};
use muerp_core::algorithms::{algorithm1_config, ChannelFinderCache};
use muerp_core::prelude::*;
use qnet_graph::paths::{dijkstra_into, DijkstraRun, DijkstraWorkspace};
use qnet_graph::{dijkstra_repair_into, NodeId, SsspDelta};
use std::hint::black_box;

/// A switch the first user's shortest-path tree relays through — the
/// victim whose kill makes the repair rows do real work.
fn relay_victim(net: &QuantumNetwork, run: &DijkstraRun, source: NodeId, target: NodeId) -> NodeId {
    let mut cur = target;
    while let Some((p, _)) = run.prev_hop(cur) {
        if p != source && net.kind(p).is_switch() {
            return p;
        }
        cur = p;
    }
    panic!("users must be connected through at least one relay switch");
}

fn bench_topology(ledger: &mut Ledger, label: &str, switches: usize, seed: u64) {
    let net = scaled_network(switches, seed);
    let capacity = CapacityMap::new(&net);
    let users = net.users().to_vec();
    let mut ws = DijkstraWorkspace::with_capacity(net.graph().node_count());

    // Pre-delta baselines for every user source, full capacity.
    let cfg = algorithm1_config(&net, &capacity);
    let baselines: Vec<DijkstraRun> = users
        .iter()
        .map(|&u| dijkstra_into(&mut ws, net.graph(), u, &cfg).clone())
        .collect();
    let victim = relay_victim(&net, &baselines[0], users[0], users[1]);

    // The worsening delta and its post-delta configuration.
    let mut degraded = capacity.clone();
    degraded.withdraw(victim, u32::MAX);
    let cfg_post = algorithm1_config(&net, &degraded);
    let mut delta = SsspDelta::new();
    delta.block_node(victim);

    // The improving delta: the post-kill runs, with the victim granted
    // back.
    let killed: Vec<DijkstraRun> = users
        .iter()
        .map(|&u| dijkstra_into(&mut ws, net.graph(), u, &cfg_post).clone())
        .collect();
    let mut restore = SsspDelta::new();
    restore.restore_node(victim);

    // Outside timing: the kill must actually dirty some tree, every
    // repair must land on the fresh post-delta run bit for bit, and the
    // resettled tallies are one op's unit of change.
    let mut work = baselines.clone();
    let (mut repaired, mut repair_resettled) = (0, 0);
    for ((run, want), base) in work.iter_mut().zip(&killed).zip(&baselines) {
        run.clone_from(base);
        let stats = dijkstra_repair_into(&mut ws, run, net.graph(), &cfg_post, &delta);
        assert_eq!(run, want, "{label}: kill repair diverged");
        repaired += usize::from(!stats.is_clean());
        repair_resettled += stats.resettled;
    }
    assert!(repaired > 0, "{label}: victim {victim} misses every tree");
    let mut restore_resettled = 0;
    for ((run, want), base) in work.iter_mut().zip(&baselines).zip(&killed) {
        run.clone_from(base);
        let stats = dijkstra_repair_into(&mut ws, run, net.graph(), &cfg, &restore);
        assert_eq!(run, want, "{label}: restore repair diverged");
        restore_resettled += stats.resettled;
    }

    // --- Graph layer: pure repair vs from-scratch, all sources per op.
    let finder_delta_repair = measure_ns_median(|| {
        for (run, base) in work.iter_mut().zip(&baselines) {
            run.clone_from(base);
            let stats = dijkstra_repair_into(&mut ws, run, net.graph(), &cfg_post, &delta);
            black_box(stats.resettled);
        }
    });
    let finder_delta_restore = measure_ns_median(|| {
        for (run, base) in work.iter_mut().zip(&killed) {
            run.clone_from(base);
            let stats = dijkstra_repair_into(&mut ws, run, net.graph(), &cfg, &restore);
            black_box(stats.resettled);
        }
    });
    let finder_delta_copy = measure_ns_median(|| {
        for (run, base) in work.iter_mut().zip(&baselines) {
            run.clone_from(base);
            black_box(run.distance(users[0]));
        }
    });
    let finder_delta_wholesale = measure_ns_median(|| {
        for &u in &users {
            let run = dijkstra_into(&mut ws, net.graph(), u, &cfg_post);
            black_box(run.distance(users[0]));
        }
    });
    // --- Cache layer: the relay-bit rule end to end.
    let mut cache = ChannelFinderCache::new(&net);
    let mut cap = capacity.clone();
    cache.warm(&cap, &users);
    let roomy = net
        .switches()
        .find(|&s| net.kind(s).qubits() >= 3)
        .expect("scaled networks have switches with spare qubits");
    let finder_delta_clean = measure_ns_median(|| {
        cap.withdraw(roomy, 1);
        cap.grant(roomy, 1);
        cache.warm(&cap, &users);
        black_box(cache.efficiency().hits);
    });
    let finder_delta_roundtrip = measure_ns_median(|| {
        cap.withdraw(victim, u32::MAX);
        cache.warm(&cap, &users);
        cap.grant(victim, u32::MAX);
        cache.warm(&cap, &users);
        black_box(cache.efficiency().repairs);
    });

    let rows = [
        ("finder_delta_repair_ns", finder_delta_repair),
        ("finder_delta_restore_ns", finder_delta_restore),
        ("finder_delta_copy_ns", finder_delta_copy),
        ("finder_delta_wholesale_ns", finder_delta_wholesale),
        ("finder_delta_clean_ns", finder_delta_clean),
        ("finder_delta_roundtrip_ns", finder_delta_roundtrip),
    ];
    let net_of_copy = |ns: f64, resettled: u64| (ns - finder_delta_copy) / resettled as f64;
    println!(
        "delta/{label}: victim {victim}; ns per resettled vertex net of the copies: \
         repair {:.1}, restore {:.1}",
        net_of_copy(finder_delta_repair, repair_resettled),
        net_of_copy(finder_delta_restore, restore_resettled),
    );

    let counts = [
        ("switches", switches as f64),
        ("users", users.len() as f64),
        ("repaired_sources", repaired as f64),
        ("finder_delta_repair_resettled", repair_resettled as f64),
        ("finder_delta_restore_resettled", restore_resettled as f64),
    ];
    for (name, n) in counts {
        ledger.push(format!("{label}/{name}"), n, Unit::Count);
    }
    for (name, ns) in rows {
        ledger.push(format!("{label}/{name}"), ns, Unit::Ns);
    }
}

fn main() {
    // Deterministic numbers need a stable instrumentation level.
    qnet_obs::set_level(qnet_obs::ObsLevel::Off);

    let mut ledger = Ledger::new("delta");
    for (label, switches) in [
        ("paper_default", 50),
        ("waxman_240", 240),
        ("waxman_2400", 2400),
    ] {
        bench_topology(&mut ledger, label, switches, 42);
    }
    ledger.write();
}
