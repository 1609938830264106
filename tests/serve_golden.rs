//! Golden serve fixture: a pinned 16-node network, the pinned seeded
//! request script, and the pinned admission decision log, checked
//! byte-for-byte against the batched engine and replayed from the
//! committed bytes alone on every run.
//!
//! Regenerate after an intentional format or engine change with:
//!
//! ```text
//! MUERP_REGEN_FIXTURES=1 cargo test --test serve_golden
//! ```

use std::path::PathBuf;

use muerp::core::extensions::{RequestStream, StreamConfig};
use muerp::core::model::NetworkSpec;
use muerp::serve::fixture::{
    decisions_from_json, decisions_to_json, requests_from_json, requests_to_json,
};
use muerp::serve::{serve_requests, PolicyKind, ServeConfig, Verdict};
use serde_json::{Map, Value};

/// Pinned forever: the fixture seed and shape. Seed 23 on a 16-switch
/// Waxman with 5 users yields a run that exercises every verdict —
/// admissions with multi-channel trees, capacity blocks, and a shed
/// suffix from the 3-deep bounded queue — so the fixture pins all four
/// decision arms, not just the happy path.
const SEED: u64 = 23;
const NODES: usize = 16;
const USERS: usize = 5;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/serve-waxman-16.json")
}

fn fixture_net() -> muerp::core::model::QuantumNetwork {
    let mut spec = NetworkSpec::paper_default().with_users(USERS);
    spec.topology.nodes = NODES;
    spec.build(SEED)
}

fn fixture_cfg() -> ServeConfig {
    ServeConfig {
        stream: StreamConfig {
            slots: 64,
            base_arrival: 0.8,
            group_size: (2, 4),
            hold_slots: (4, 12),
            ..StreamConfig::default()
        },
        round_slots: 16,
        queue_capacity: 3,
        policy: PolicyKind::Fcfs,
    }
}

/// Builds the serve fixture deterministically: stream the script, run
/// the batched rounds, and pin script + decisions + headline tallies.
fn fixture_source() -> String {
    let net = fixture_net();
    let cfg = fixture_cfg();
    let requests: Vec<_> = RequestStream::new(&net, cfg.stream, SEED).collect();
    let outcome = serve_requests(&net, &cfg, &requests);
    let mut root = Map::new();
    root.insert("name".into(), Value::from("serve-waxman-16"));
    root.insert("seed".into(), Value::from(SEED));
    root.insert("nodes".into(), Value::from(NODES));
    root.insert("users".into(), Value::from(USERS));
    root.insert("round_slots".into(), Value::from(cfg.round_slots));
    root.insert("queue_capacity".into(), Value::from(cfg.queue_capacity));
    root.insert("policy".into(), Value::from(cfg.policy.name()));
    root.insert("admitted".into(), Value::from(outcome.stats.admitted));
    root.insert("shed".into(), Value::from(outcome.stats.shed));
    root.insert("requests".into(), requests_to_json(&requests));
    root.insert("decisions".into(), decisions_to_json(&outcome.decisions));
    serde_json::to_string_pretty(&Value::Object(root)).expect("Value serialization is total")
}

#[test]
fn golden_serve_fixture_matches_engine_and_replays_from_bytes() {
    let expected = fixture_source();
    let path = fixture_path();
    if std::env::var_os("MUERP_REGEN_FIXTURES").is_some() {
        std::fs::write(&path, &expected)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        return;
    }
    let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with MUERP_REGEN_FIXTURES=1",
            path.display()
        )
    });
    assert_eq!(
        on_disk, expected,
        "committed serve fixture drifted from the batched admission \
         engine; regenerate with MUERP_REGEN_FIXTURES=1 if intentional"
    );

    // Reload and replay everything from the committed bytes alone.
    let value: Value = serde_json::from_str(&on_disk).expect("fixture JSON parses");
    let net = fixture_net();
    let requests =
        requests_from_json(&net, value.get("requests").expect("requests pinned")).expect("parses");
    let pinned = decisions_from_json(&net, value.get("decisions").expect("decisions pinned"))
        .expect("parses");
    let replayed = serve_requests(&net, &fixture_cfg(), &requests);
    assert_eq!(
        replayed.decisions, pinned,
        "replaying the pinned script must reproduce the pinned decision \
         log bitwise (trees included)"
    );
    assert_eq!(
        value.get("admitted").and_then(Value::as_u64),
        Some(replayed.stats.admitted),
        "pinned admitted tally"
    );
    assert_eq!(
        value.get("shed").and_then(Value::as_u64),
        Some(replayed.stats.shed),
        "pinned shed tally"
    );

    // The fixture must actually pin something interesting: every
    // verdict arm appears, and at least one admitted tree has more than
    // one channel (so the path-pinning format is exercised).
    let admitted_trees: Vec<_> = pinned
        .iter()
        .filter_map(|d| match &d.verdict {
            Verdict::Admitted { tree } => Some(tree),
            _ => None,
        })
        .collect();
    assert!(!admitted_trees.is_empty(), "fixture admits at least once");
    assert!(
        admitted_trees.iter().any(|t| t.channels.len() > 1),
        "fixture pins a multi-channel tree"
    );
    assert!(
        pinned.iter().any(|d| matches!(d.verdict, Verdict::Shed)),
        "fixture exercises backpressure shedding"
    );
    assert!(
        pinned
            .iter()
            .any(|d| matches!(d.verdict, Verdict::BlockedBusy | Verdict::BlockedCapacity)),
        "fixture exercises a blocked verdict"
    );
}

/// Mutates the first object of the array at `root[key]`.
fn root_array<'a>(root: &'a mut Value, key: &str) -> &'a mut Vec<Value> {
    let map = match root {
        Value::Object(map) => map,
        _ => panic!("root is an object"),
    };
    match map.get_mut(key) {
        Some(Value::Array(items)) => items,
        _ => panic!("expected an array under [{key}]"),
    }
}

/// Mutates the first object of the array at `root[key]`.
fn first_obj<'a>(root: &'a mut Value, key: &str) -> &'a mut Map<String, Value> {
    match root_array(root, key).first_mut().expect("non-empty array") {
        Value::Object(obj) => obj,
        _ => panic!("expected an object"),
    }
}

#[test]
fn corrupted_serve_fixture_is_rejected_with_named_fields() {
    let text = fixture_source();
    let net = fixture_net();

    // Unknown SLO class in the request script → named rejection.
    let mut bad: Value = serde_json::from_str(&text).expect("parses");
    first_obj(&mut bad, "requests").insert("class".into(), Value::from("platinum"));
    let e = requests_from_json(&net, bad.get("requests").unwrap())
        .expect_err("unknown class must be rejected");
    assert!(e.contains("unknown SLO class [platinum]"), "{e}");

    // Out-of-range member index → named bound in the message.
    let mut bad: Value = serde_json::from_str(&text).expect("parses");
    match first_obj(&mut bad, "requests").get_mut("members") {
        Some(Value::Array(members)) => members[0] = Value::from(10_000u64),
        _ => panic!("members pinned as an array"),
    }
    let e = requests_from_json(&net, bad.get("requests").unwrap())
        .expect_err("out-of-range member must be rejected");
    assert!(e.contains("member index 10000 out of range"), "{e}");

    // Unknown verdict in the decision log → named rejection.
    let mut bad: Value = serde_json::from_str(&text).expect("parses");
    first_obj(&mut bad, "decisions").insert("verdict".into(), Value::from("vaporized"));
    let e = decisions_from_json(&net, bad.get("decisions").unwrap())
        .expect_err("unknown verdict must be rejected");
    assert!(e.contains("unknown verdict [vaporized]"), "{e}");

    // A pinned tree path that does not exist in the network → the edge
    // rebuild names the missing hop instead of fabricating a channel.
    let mut bad: Value = serde_json::from_str(&text).expect("parses");
    let tree = root_array(&mut bad, "decisions")
        .iter_mut()
        .find_map(|d| match d {
            Value::Object(obj) if obj.contains_key("tree") => obj.get_mut("tree"),
            _ => None,
        })
        .expect("an admitted decision pins a tree");
    match tree {
        Value::Array(channels) => match channels.first_mut() {
            Some(Value::Object(ch)) => match ch.get_mut("nodes") {
                Some(Value::Array(nodes)) => {
                    // A node is never adjacent to itself in a simple
                    // Waxman graph, so duplicating the head breaks the
                    // first hop.
                    let head = nodes[0].clone();
                    nodes[1] = head;
                }
                _ => panic!("channel pins a nodes array"),
            },
            _ => panic!("tree pins channel objects"),
        },
        _ => panic!("tree pinned as an array"),
    }
    let e = decisions_from_json(&net, bad.get("decisions").unwrap())
        .expect_err("a non-existent hop must be rejected");
    assert!(e.contains("no edge between"), "{e}");
}
