//! Fresh-alloc vs workspace vs cached search paths.
//!
//! Every MUERP algorithm bottoms out in Algorithm 1's Dijkstra search;
//! this bench quantifies the ways of invoking the one search kernel:
//!
//! * **fresh** — a new [`DijkstraWorkspace`] per call (`dijkstra_into`,
//!   `ChannelFinder::from_source_in`, `k_shortest_paths_in`), with the
//!   result materialized into owned buffers.
//! * **workspace** — the same entry points on one long-lived
//!   [`DijkstraWorkspace`]: generation-stamped pass state, one label
//!   fill per search, zero steady-state allocation, borrowed results.
//! * **cached** — [`ChannelFinderCache`] keyed by `(source, capacity
//!   epoch)`: repeat queries under unchanged capacity skip the search
//!   entirely, and a `fill` row shows the cost of misses served into
//!   freshly allocated entries.
//!
//! Run with `cargo bench -p muerp-bench --bench search_core`. Writes the
//! tracked baseline `BENCH_pr7.json` at the repo root (all numbers in
//! ns/op; each op covers *all* user sources, so per-search cost is
//! op / 10), with a `host` block naming the CPU it ran on.
//! `MUERP_BENCH_QUICK=1` shrinks the measurement window for CI smoke
//! runs — the file is still produced, the numbers are only good for
//! "did it run".

use muerp_bench::{measure_ns_median, quick_mode, scaled_network, write_bench_report};
use muerp_core::algorithms::{ChannelFinder, ChannelFinderCache};
use muerp_core::prelude::*;
use qnet_graph::ksp::k_shortest_paths_in;
use qnet_graph::paths::{dijkstra_into, DijkstraConfig, DijkstraWorkspace};
use qnet_graph::{EdgeRef, NodeId};
use serde_json::Value;
use std::collections::BTreeMap;
use std::hint::black_box;

const KSP_K: usize = 5;

/// The MUERP edge cost and relay filter, spelled out at the graph layer
/// (mirrors `ChannelFinder::from_source_in`) so the raw-Dijkstra rows
/// measure the same search the finder performs.
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

fn bench_topology(label: &str, switches: usize, seed: u64) -> Value {
    let net = scaled_network(switches, seed);
    let capacity = CapacityMap::new(&net);
    let users = net.users().to_vec();
    let cfg = muerp_config(&net, &capacity);

    // --- Raw Dijkstra: one all-sources sweep per op. ---
    let dijkstra_fresh = measure_ns_median(|| {
        for &u in &users {
            let mut fresh = DijkstraWorkspace::new();
            black_box(dijkstra_into(&mut fresh, net.graph(), u, &cfg).clone());
        }
    });
    let mut ws = DijkstraWorkspace::with_capacity(net.graph().node_count());
    let dijkstra_workspace = measure_ns_median(|| {
        for &u in &users {
            let view = dijkstra_into(&mut ws, net.graph(), u, &cfg);
            black_box(view.distance(users[0]));
        }
    });

    // --- Algorithm 1 finder: sweep + one channel recovery per source. ---
    let finder_workspace = measure_ns_median(|| {
        for &u in &users {
            let finder = ChannelFinder::from_source_in(&mut ws, &net, &capacity, u);
            black_box(finder.channel_to(users[0]));
        }
    });
    let mut cache = ChannelFinderCache::new(&net);
    // Warm the cache so the measured loop is pure epoch hits.
    for &u in &users {
        cache.finder(&capacity, u);
    }
    let finder_cached = measure_ns_median(|| {
        for &u in &users {
            black_box(cache.finder(&capacity, u).channel_to(users[0]));
        }
    });
    let finder_fresh = measure_ns_median(|| {
        for &u in &users {
            let mut fresh = DijkstraWorkspace::new();
            let finder = ChannelFinder::from_source_in(&mut fresh, &net, &capacity, u);
            black_box(finder.channel_to(users[0]));
        }
    });
    // Every op clears the cache first, so each lookup is a fill: the
    // search plus freshly allocated result buffers. The tally check
    // holds the row to exactly that, quick mode included.
    let sources = users.len() as u64;
    let finder_fill = measure_ns_median(|| {
        cache.clear();
        let before = cache.efficiency();
        for &u in &users {
            black_box(cache.finder(&capacity, u).channel_to(users[0]));
        }
        assert_eq!(
            cache.efficiency().fills - before.fills,
            sources,
            "{label}: a fill op must fill every source"
        );
    });

    // --- Yen KSP between the first user pair. ---
    let (a, b) = (users[0], users[1]);
    let ksp_fresh = measure_ns_median(|| {
        let mut fresh = DijkstraWorkspace::new();
        black_box(k_shortest_paths_in(
            &mut fresh,
            net.graph(),
            a,
            b,
            KSP_K,
            &cfg,
        ));
    });
    let ksp_workspace = measure_ns_median(|| {
        black_box(k_shortest_paths_in(&mut ws, net.graph(), a, b, KSP_K, &cfg));
    });

    let rows = [
        ("dijkstra_fresh_ns", dijkstra_fresh),
        ("dijkstra_workspace_ns", dijkstra_workspace),
        ("finder_fresh_ns", finder_fresh),
        ("finder_workspace_ns", finder_workspace),
        ("finder_cached_ns", finder_cached),
        ("finder_fill_ns", finder_fill),
        ("ksp_fresh_ns", ksp_fresh),
        ("ksp_workspace_ns", ksp_workspace),
    ];
    println!("search_core/{label} ({switches} switches):");
    for (name, ns) in rows {
        println!("  {name:<24} {ns:>14.1} ns/op");
    }

    let mut obj: BTreeMap<String, Value> = BTreeMap::new();
    obj.insert("switches".into(), Value::from(switches as u64));
    obj.insert("users".into(), Value::from(users.len() as u64));
    for (name, ns) in rows {
        obj.insert(name.into(), Value::from(ns));
    }
    obj.insert(
        "speedup_workspace_vs_fresh".into(),
        Value::from(dijkstra_fresh / dijkstra_workspace),
    );
    obj.insert(
        "speedup_cached_vs_fresh".into(),
        Value::from(finder_fresh / finder_cached),
    );

    Value::Object(obj)
}

fn main() {
    // Deterministic numbers need a stable instrumentation level.
    qnet_obs::set_level(qnet_obs::ObsLevel::Off);

    let mut topologies: BTreeMap<String, Value> = BTreeMap::new();
    // The quick (CI smoke) run keeps every tier; it only shrinks the
    // measurement windows.
    for (label, switches) in [
        ("paper_default", 50),
        ("waxman_240", 240),
        ("waxman_2400", 2400),
    ] {
        topologies.insert(label.into(), bench_topology(label, switches, 42));
    }

    let mut host: BTreeMap<String, Value> = BTreeMap::new();
    host.insert(
        "available_parallelism".into(),
        Value::from(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
    );
    // The first `model name` line of /proc/cpuinfo; "unknown" elsewhere.
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    host.insert("cpu_model".into(), Value::from(cpu_model));

    let mut report: BTreeMap<String, Value> = BTreeMap::new();
    report.insert("bench".into(), Value::from("search_core"));
    report.insert("pr".into(), Value::from(7u64));
    report.insert("quick".into(), Value::from(quick_mode()));
    report.insert("unit".into(), Value::from("ns per all-user-sources op"));
    report.insert("host".into(), Value::Object(host));
    report.insert("topologies".into(), Value::Object(topologies));

    let path = write_bench_report("BENCH_pr7.json", &Value::Object(report));
    println!("wrote {}", path.display());
}
