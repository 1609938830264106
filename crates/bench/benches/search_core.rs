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
//! tracked baseline `BENCH_pr7.json` at the repo root
//! ([`muerp_bench::ledger`]; every `_ns` row is ns per op, and each op
//! covers *all* user sources, so per-search cost is op / 10).
//! `MUERP_BENCH_QUICK=1` shrinks the measurement window for CI smoke
//! runs — the report is still checked and written, under
//! `target/bench/`, and its numbers are only good for "did it run".

use muerp_bench::ledger::{Ledger, Unit};
use muerp_bench::{measure_ns_median, scaled_network};
use muerp_core::algorithms::{algorithm1_config, ChannelFinder, ChannelFinderCache};
use muerp_core::prelude::*;
use qnet_graph::ksp::k_shortest_paths_in;
use qnet_graph::paths::{dijkstra_into, DijkstraWorkspace};
use std::hint::black_box;

const KSP_K: usize = 5;

fn bench_topology(ledger: &mut Ledger, label: &str, switches: usize, seed: u64) {
    let net = scaled_network(switches, seed);
    let capacity = CapacityMap::new(&net);
    let users = net.users().to_vec();
    let cfg = algorithm1_config(&net, &capacity);

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
    ledger.push(format!("{label}/switches"), switches as f64, Unit::Count);
    ledger.push(format!("{label}/users"), users.len() as f64, Unit::Count);
    for (name, ns) in rows {
        ledger.push(format!("{label}/{name}"), ns, Unit::Ns);
    }
}

fn main() {
    // Deterministic numbers need a stable instrumentation level.
    qnet_obs::set_level(qnet_obs::ObsLevel::Off);

    let mut ledger = Ledger::new("search_core");
    // The quick (CI smoke) run keeps every tier; it only shrinks the
    // measurement windows.
    for (label, switches) in [
        ("paper_default", 50),
        ("waxman_240", 240),
        ("waxman_2400", 2400),
    ] {
        bench_topology(&mut ledger, label, switches, 42);
    }
    ledger.write();
}
