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
//!   cycle end to end: in-place repairs on the down edge and in-place
//!   restore repairs on the up edge, no full search.
//!
//! Each tier also records the vertices one repair and one restore op
//! resettle (`finder_delta_{repair,restore}_resettled`, summed
//! `RepairStats::resettled` over the sources, taken outside timing) and
//! each row's ns per resettled vertex net of the copies
//! (`{repair,restore}_ns_per_resettled` = (row − copy) / resettled), so
//! the cost of a unit of change can be compared across tiers: a repair
//! that works only in the changed region costs about the same per
//! vertex on waxman_240 and on waxman_2400.
//!
//! Run with `cargo bench -p muerp-bench --bench delta`. Writes the
//! tracked baseline `BENCH_pr9.json` at the repo root (ns/op; each op
//! covers *all* user sources). `MUERP_BENCH_QUICK=1` shrinks the
//! measurement windows for CI smoke runs — the file is still produced
//! and shape-validated, but the ≤ 0.5× repair gate only arms on full
//! runs (CI holds the committed full run's repair and restore rows on
//! both Waxman tiers to it).

use muerp_bench::{measure_ns_median, quick_mode, scaled_network, write_bench_report};
use muerp_core::algorithms::ChannelFinderCache;
use muerp_core::prelude::*;
use qnet_graph::paths::{dijkstra_into, DijkstraConfig, DijkstraRun, DijkstraWorkspace};
use qnet_graph::{dijkstra_repair_into, EdgeRef, NodeId, SsspDelta};
use serde_json::Value;
use std::collections::BTreeMap;
use std::hint::black_box;

/// The MUERP edge cost and relay filter at the graph layer (mirrors
/// `ChannelFinder::from_source_in`, like `search_core`'s rows do), so the
/// repair and wholesale rows measure the same search the finder runs.
fn muerp_config<'a>(
    net: &'a QuantumNetwork,
    capacity: &'a CapacityMap,
) -> DijkstraConfig<impl Fn(EdgeRef<'_, f64>) -> f64 + 'a, impl Fn(NodeId) -> bool + 'a> {
    let alpha = net.physics().attenuation;
    let neg_ln_q = -(net.physics().swap_success.ln());
    DijkstraConfig {
        edge_cost: move |e: EdgeRef<'_, f64>| alpha * *e.payload + neg_ln_q,
        can_relay: move |v: NodeId| net.kind(v).is_switch() && capacity.can_relay(v),
    }
}

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

fn bench_topology(label: &str, switches: usize, seed: u64) -> Value {
    let net = scaled_network(switches, seed);
    let capacity = CapacityMap::new(&net);
    let users = net.users().to_vec();
    let mut ws = DijkstraWorkspace::with_capacity(net.graph().node_count());

    // Pre-delta baselines for every user source, full capacity.
    let cfg = muerp_config(&net, &capacity);
    let baselines: Vec<DijkstraRun> = users
        .iter()
        .map(|&u| dijkstra_into(&mut ws, net.graph(), u, &cfg).clone())
        .collect();
    let victim = relay_victim(&net, &baselines[0], users[0], users[1]);

    // The worsening delta and its post-delta configuration.
    let mut degraded = capacity.clone();
    degraded.withdraw(victim, u32::MAX);
    let cfg_post = muerp_config(&net, &degraded);
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
    // Repairing after a localized kill resettles only the affected
    // region; it must beat recomputing every tree by at least 2×. Quick
    // mode's tiny windows are too noisy to gate on.
    if !quick_mode() {
        assert!(
            finder_delta_repair <= finder_delta_wholesale * 0.5,
            "{label}: finder_delta_repair_ns ({finder_delta_repair:.1}) exceeds half of \
             finder_delta_wholesale_ns ({finder_delta_wholesale:.1}) — incremental repair \
             lost its reason to exist"
        );
    }

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
    let per_resettled = [
        (
            "repair_ns_per_resettled",
            net_of_copy(finder_delta_repair, repair_resettled),
        ),
        (
            "restore_ns_per_resettled",
            net_of_copy(finder_delta_restore, restore_resettled),
        ),
    ];
    println!("delta/{label} ({switches} switches, victim {victim}):");
    for (name, ns) in rows {
        println!("  {name:<26} {ns:>14.1} ns/op");
    }
    println!("  resettled per op: repair {repair_resettled}, restore {restore_resettled}");
    for (name, ns) in per_resettled {
        println!("  {name:<26} {ns:>14.1} ns");
    }

    let mut obj: BTreeMap<String, Value> = BTreeMap::new();
    obj.insert("switches".into(), Value::from(switches as u64));
    obj.insert("users".into(), Value::from(users.len() as u64));
    obj.insert("repaired_sources".into(), Value::from(repaired as u64));
    obj.insert(
        "finder_delta_repair_resettled".into(),
        Value::from(repair_resettled),
    );
    obj.insert(
        "finder_delta_restore_resettled".into(),
        Value::from(restore_resettled),
    );
    for (name, ns) in rows.into_iter().chain(per_resettled) {
        obj.insert(name.into(), Value::from(ns));
    }
    obj.insert(
        "repair_vs_wholesale_ratio".into(),
        Value::from(finder_delta_repair / finder_delta_wholesale),
    );
    obj.insert(
        "restore_vs_wholesale_ratio".into(),
        Value::from(finder_delta_restore / finder_delta_wholesale),
    );
    obj.insert(
        "speedup_repair_vs_wholesale".into(),
        Value::from(finder_delta_wholesale / finder_delta_repair),
    );
    Value::Object(obj)
}

fn main() {
    // Deterministic numbers need a stable instrumentation level.
    qnet_obs::set_level(qnet_obs::ObsLevel::Off);

    let mut topologies: BTreeMap<String, Value> = BTreeMap::new();
    topologies.insert(
        "paper_default".into(),
        bench_topology("paper_default", 50, 42),
    );
    topologies.insert("waxman_240".into(), bench_topology("waxman_240", 240, 42));
    topologies.insert(
        "waxman_2400".into(),
        bench_topology("waxman_2400", 2400, 42),
    );

    let mut host: BTreeMap<String, Value> = BTreeMap::new();
    host.insert(
        "available_parallelism".into(),
        Value::from(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
    );

    let mut report: BTreeMap<String, Value> = BTreeMap::new();
    report.insert("bench".into(), Value::from("delta"));
    report.insert("pr".into(), Value::from(9u64));
    report.insert("quick".into(), Value::from(quick_mode()));
    report.insert("unit".into(), Value::from("ns per all-user-sources op"));
    report.insert("host".into(), Value::Object(host));
    report.insert("topologies".into(), Value::Object(topologies));

    let path = write_bench_report("BENCH_pr9.json", &Value::Object(report));
    println!("wrote {}", path.display());
}
