//! The differential battery: batched admission must be
//! decision-equivalent to the sequential cold-routing FCFS oracle —
//! same admit/block sequence, bitwise-identical entanglement trees —
//! and every admitted tree must audit clean.

use muerp_core::extensions::{Request, RequestStream, StreamConfig};
use muerp_core::model::NetworkSpec;
use muerp_serve::{
    audit_group_tree, sequential_fcfs, serve_requests, PolicyKind, ServeConfig, Verdict,
};

const SEEDS: [u64; 3] = [3, 11, 29];

fn battery_cfg() -> ServeConfig {
    ServeConfig {
        stream: StreamConfig {
            slots: 256,
            ..StreamConfig::default()
        },
        round_slots: 16,
        // Tight enough that busy periods shed — the battery must cover
        // the backpressure path, not only admit/block.
        queue_capacity: 4,
        policy: PolicyKind::Fcfs,
    }
}

#[test]
fn batched_fcfs_is_decision_equivalent_to_the_sequential_oracle() {
    let cfg = battery_cfg();
    for seed in SEEDS {
        let net = NetworkSpec::paper_default().build(seed);
        let requests: Vec<Request> = RequestStream::new(&net, cfg.stream, seed).collect();
        let oracle = sequential_fcfs(&net, &cfg, &requests);
        assert_eq!(
            oracle.len(),
            requests.len(),
            "every request gets a decision"
        );
        let out = serve_requests(&net, &cfg, &requests);
        assert_eq!(
            out.decisions, oracle,
            "seed {seed}: batched decisions diverged from the oracle"
        );
    }
}

#[test]
fn every_admitted_solution_audits_clean_and_accounting_closes() {
    let cfg = battery_cfg();
    for seed in SEEDS {
        let net = NetworkSpec::paper_default().build(seed);
        let requests: Vec<Request> = RequestStream::new(&net, cfg.stream, seed).collect();
        let out = serve_requests(&net, &cfg, &requests);

        let mut admitted = 0u64;
        let mut blocked = 0u64;
        let mut shed = 0u64;
        for d in &out.decisions {
            match &d.verdict {
                Verdict::Admitted { tree } => {
                    let members = &requests[d.request as usize].members;
                    audit_group_tree(&net, members, tree)
                        .unwrap_or_else(|e| panic!("seed {seed}, request {}: {e}", d.request));
                    admitted += 1;
                }
                Verdict::BlockedBusy | Verdict::BlockedCapacity => blocked += 1,
                Verdict::Shed => shed += 1,
            }
        }
        assert!(admitted > 0, "seed {seed}: battery must admit something");
        assert!(shed > 0, "seed {seed}: 4-deep queue must shed under load");
        assert_eq!(admitted, out.stats.admitted);
        assert_eq!(blocked, out.stats.blocked());
        assert_eq!(shed, out.stats.shed);
        assert_eq!(admitted + blocked + shed, out.stats.arrived);
        assert_eq!(out.decisions.len() as u64, out.stats.arrived);
    }
}

#[test]
fn warm_batching_actually_saves_searches_over_the_oracle() {
    // Not an equivalence claim but the point of batching: the cached
    // engine reaches the same decisions with strictly fewer full
    // searches than cold per-step recomputation would issue.
    let cfg = battery_cfg();
    let seed = SEEDS[0];
    let net = NetworkSpec::paper_default().build(seed);
    let requests: Vec<Request> = RequestStream::new(&net, cfg.stream, seed).collect();
    let out = serve_requests(&net, &cfg, &requests);
    assert!(
        out.stats.cache.hits > 0,
        "the batch warm path must convert repeat lookups into cache hits"
    );
}
