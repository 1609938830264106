//! Pins generated networks bit for bit. Each digest is a 64-bit FNV-1a
//! hash of the node count, every position's coordinate bits, and every
//! edge's endpoints and length bits in edge-id order, so any change to
//! node placement, edge sampling or connectivity repair moves it.

use muerp::topology::{SpatialGraph, TopologyKind, TopologySpec};

fn digest(g: &SpatialGraph) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    feed(g.node_count() as u64);
    for p in g.node_payloads() {
        feed(p.x.to_bits());
        feed(p.y.to_bits());
    }
    for e in g.edge_refs() {
        feed(e.a.index() as u64);
        feed(e.b.index() as u64);
        feed(e.payload.to_bits());
    }
    h
}

#[test]
fn generated_networks_match_their_pinned_digests() {
    use TopologyKind::{Volchenkov, WattsStrogatz, Waxman};
    // (kind, nodes, seed, digest); the Waxman rows are the servebench
    // networks of its three workloads.
    let pinned = [
        (Waxman, 60, 11, 0x523f_cc06_e07a_905d_u64),
        (Waxman, 280, 12, 0xb029_2fd2_53bf_3ea4),
        (Waxman, 1240, 13, 0x36d2_4bee_b5c6_2769),
        (Volchenkov, 60, 11, 0x4bab_44d4_f5c7_bbee),
        (Volchenkov, 280, 12, 0xb692_cdde_6571_aa12),
        (WattsStrogatz, 60, 11, 0x73a2_aefc_08e3_74e5),
    ];
    let got: Vec<String> = pinned
        .iter()
        .map(|&(kind, nodes, seed, _)| {
            let spec = TopologySpec {
                kind,
                nodes,
                ..TopologySpec::paper_default()
            };
            format!(
                "{kind} {nodes} @ {seed}: {:#018x}",
                digest(&spec.generate(seed))
            )
        })
        .collect();
    let want: Vec<String> = pinned
        .iter()
        .map(|&(kind, nodes, seed, d)| format!("{kind} {nodes} @ {seed}: {d:#018x}"))
        .collect();
    assert_eq!(got, want);
}
