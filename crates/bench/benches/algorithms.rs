//! Per-algorithm solve latency at growing network scale.
//!
//! §IV quotes `O(|U|(|E| + |V| log |V|))` for Algorithm 2 and
//! `O(|U|²(|E| + |V| log |V|))` for Algorithms 3/4; these benches expose
//! the empirical scaling so regressions (or accidental quadratic blowups
//! in the substrate) are caught.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use muerp_bench::scaled_network;
use muerp_core::prelude::*;

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("solve");
    group.sample_size(20);

    for &switches in &[25usize, 50, 100, 200] {
        let net = scaled_network(switches, 42);
        let granted = net.with_uniform_switch_qubits(2 * net.user_count() as u32);

        group.bench_with_input(BenchmarkId::new("alg2", switches), &granted, |b, n| {
            b.iter(|| std::hint::black_box(OptimalSufficient.solve(n)))
        });
        group.bench_with_input(BenchmarkId::new("alg3", switches), &net, |b, n| {
            b.iter(|| std::hint::black_box(ConflictFree::default().solve(n)))
        });
        group.bench_with_input(BenchmarkId::new("alg4", switches), &net, |b, n| {
            b.iter(|| std::hint::black_box(PrimBased::with_seed(1).solve(n)))
        });
        group.bench_with_input(BenchmarkId::new("n_fusion", switches), &net, |b, n| {
            b.iter(|| std::hint::black_box(NFusion::default().solve(n)))
        });
        group.bench_with_input(BenchmarkId::new("e_q_cast", switches), &net, |b, n| {
            b.iter(|| std::hint::black_box(EQCast.solve(n)))
        });
    }
    group.finish();
}

fn bench_algorithm1(c: &mut Criterion) {
    use muerp_core::algorithms::{max_rate_channel, ChannelFinder};
    use qnet_graph::DijkstraWorkspace;
    let mut group = c.benchmark_group("algorithm1");
    for &switches in &[50usize, 200, 800] {
        let net = scaled_network(switches, 7);
        let cap = CapacityMap::new(&net);
        let users = net.users().to_vec();
        group.bench_with_input(BenchmarkId::new("single_pair", switches), &net, |b, n| {
            b.iter(|| std::hint::black_box(max_rate_channel(n, &cap, users[0], users[1])))
        });
        group.bench_with_input(
            BenchmarkId::new("single_source_all_users", switches),
            &net,
            |b, n| {
                b.iter(|| {
                    let mut ws = DijkstraWorkspace::new();
                    let finder = ChannelFinder::from_source_in(&mut ws, n, &cap, users[0]);
                    for &dst in &users[1..] {
                        std::hint::black_box(finder.channel_to(dst));
                    }
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_solvers, bench_algorithm1);
criterion_main!(benches);
