//! JSON pinning of request scripts and decision logs for the golden
//! serve fixture.
//!
//! The format is hand-rolled over `serde_json::Value` so every parse
//! failure names the violated field — the golden test corrupts single
//! fields and asserts the rejection message, exactly like the churn
//! fixture's named-invariant checks. Trees are pinned as node-index
//! paths plus the search cost; edges and rates are *rebuilt* from the
//! network on load ([`Channel::from_path`] recomputes Eq. 1 exactly),
//! so a reloaded decision log compares bitwise equal to a fresh run.

use qnet_graph::{NodeId, Path};
use serde_json::{Map, Value};

use muerp_core::channel::Channel;
use muerp_core::extensions::{Request, SloClass};
use muerp_core::model::QuantumNetwork;
use muerp_core::tree::EntanglementTree;

use crate::engine::{Decision, Verdict};

/// Serializes a request script (members as node indices, classes by
/// name).
pub fn requests_to_json(requests: &[Request]) -> Value {
    Value::Array(
        requests
            .iter()
            .map(|r| {
                let mut obj = Map::new();
                obj.insert("id".into(), Value::from(r.id));
                obj.insert("slot".into(), Value::from(r.slot));
                obj.insert(
                    "members".into(),
                    Value::Array(
                        r.members
                            .iter()
                            .map(|m| Value::from(m.index() as u64))
                            .collect(),
                    ),
                );
                obj.insert("hold".into(), Value::from(r.hold));
                obj.insert("class".into(), Value::from(r.class.name()));
                Value::Object(obj)
            })
            .collect(),
    )
}

/// Parses [`requests_to_json`] back, validating member indices against
/// `net`.
///
/// # Errors
///
/// Returns a message naming the first malformed field.
pub fn requests_from_json(net: &QuantumNetwork, value: &Value) -> Result<Vec<Request>, String> {
    let items = value.as_array().ok_or("requests must be an array")?;
    let mut requests = Vec::with_capacity(items.len());
    for item in items {
        let obj = item.as_object().ok_or("request must be an object")?;
        requests.push(Request {
            id: field_u64(obj, "id")?,
            slot: field_u64(obj, "slot")?,
            members: parse_members(net, obj.get("members"))?,
            hold: field_u64(obj, "hold")?,
            class: parse_class(obj.get("class"))?,
        });
    }
    Ok(requests)
}

/// Serializes a decision log; admitted trees become per-channel node
/// paths plus the pinned search cost.
pub fn decisions_to_json(decisions: &[Decision]) -> Value {
    Value::Array(
        decisions
            .iter()
            .map(|d| {
                let mut obj = Map::new();
                obj.insert("request".into(), Value::from(d.request));
                obj.insert("arrived_slot".into(), Value::from(d.arrived_slot));
                obj.insert("round".into(), Value::from(d.round));
                obj.insert("class".into(), Value::from(d.class.name()));
                obj.insert("size".into(), Value::from(d.size));
                obj.insert("verdict".into(), Value::from(d.verdict.name()));
                if let Verdict::Admitted { tree } = &d.verdict {
                    obj.insert(
                        "tree".into(),
                        Value::Array(
                            tree.channels
                                .iter()
                                .map(|c| {
                                    let mut ch = Map::new();
                                    ch.insert(
                                        "nodes".into(),
                                        Value::Array(
                                            c.path
                                                .nodes
                                                .iter()
                                                .map(|n| Value::from(n.index() as u64))
                                                .collect(),
                                        ),
                                    );
                                    ch.insert("cost".into(), Value::from(c.path.cost));
                                    Value::Object(ch)
                                })
                                .collect(),
                        ),
                    );
                }
                Value::Object(obj)
            })
            .collect(),
    )
}

/// Parses [`decisions_to_json`] back, rebuilding every channel from the
/// pinned node path: edges are resolved against `net`'s graph and rates
/// recomputed from Eq. 1, so a clean round trip is bitwise-faithful.
///
/// # Errors
///
/// Returns a message naming the first malformed field.
pub fn decisions_from_json(net: &QuantumNetwork, value: &Value) -> Result<Vec<Decision>, String> {
    let items = value.as_array().ok_or("decisions must be an array")?;
    let mut decisions = Vec::with_capacity(items.len());
    for item in items {
        let obj = item.as_object().ok_or("decision must be an object")?;
        let verdict_name = obj
            .get("verdict")
            .and_then(Value::as_str)
            .ok_or("decision verdict must be a string")?;
        let verdict = match verdict_name {
            "admitted" => Verdict::Admitted {
                tree: parse_tree(net, obj.get("tree"))?,
            },
            "blocked-busy" => Verdict::BlockedBusy,
            "blocked-capacity" => Verdict::BlockedCapacity,
            "shed" => Verdict::Shed,
            other => return Err(format!("unknown verdict [{other}]")),
        };
        decisions.push(Decision {
            request: field_u64(obj, "request")?,
            arrived_slot: field_u64(obj, "arrived_slot")?,
            round: field_u64(obj, "round")?,
            class: parse_class(obj.get("class"))?,
            size: field_u64(obj, "size")? as usize,
            verdict,
        });
    }
    Ok(decisions)
}

fn field_u64(obj: &Map<String, Value>, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("field [{key}] must be an unsigned integer"))
}

fn parse_class(value: Option<&Value>) -> Result<SloClass, String> {
    let name = value
        .and_then(Value::as_str)
        .ok_or("field [class] must be a string")?;
    SloClass::parse(name).ok_or_else(|| format!("unknown SLO class [{name}]"))
}

fn parse_members(net: &QuantumNetwork, value: Option<&Value>) -> Result<Vec<NodeId>, String> {
    let items = value
        .and_then(Value::as_array)
        .ok_or("field [members] must be an array")?;
    let bound = net.graph().node_count();
    let mut members = Vec::with_capacity(items.len());
    for item in items {
        let idx = item.as_u64().ok_or("member must be a node index")? as usize;
        if idx >= bound {
            return Err(format!("member index {idx} out of range (< {bound})"));
        }
        members.push(NodeId::new(idx));
    }
    if members.len() < 2 {
        return Err("a request needs at least two members".into());
    }
    Ok(members)
}

fn parse_tree(net: &QuantumNetwork, value: Option<&Value>) -> Result<EntanglementTree, String> {
    let items = value
        .and_then(Value::as_array)
        .ok_or("admitted decision must pin a [tree] array")?;
    let bound = net.graph().node_count();
    let mut tree = EntanglementTree::new();
    for item in items {
        let obj = item.as_object().ok_or("channel must be an object")?;
        let cost = obj
            .get("cost")
            .and_then(Value::as_f64)
            .ok_or("field [cost] must be a number")?;
        let raw = obj
            .get("nodes")
            .and_then(Value::as_array)
            .ok_or("field [nodes] must be an array")?;
        if raw.len() < 2 {
            return Err("a channel path needs at least two nodes".into());
        }
        let mut nodes = Vec::with_capacity(raw.len());
        for n in raw {
            let idx = n.as_u64().ok_or("path node must be a node index")? as usize;
            if idx >= bound {
                return Err(format!("path node {idx} out of range (< {bound})"));
            }
            nodes.push(NodeId::new(idx));
        }
        let mut edges = Vec::with_capacity(nodes.len() - 1);
        for pair in nodes.windows(2) {
            let edge = net
                .graph()
                .find_edge(pair[0], pair[1])
                .ok_or_else(|| format!("no edge between {} and {}", pair[0], pair[1]))?;
            edges.push(edge);
        }
        tree.push(Channel::from_path(net, Path { nodes, edges, cost }));
    }
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{serve_requests, ServeConfig};
    use crate::policy::PolicyKind;
    use muerp_core::extensions::{RequestStream, StreamConfig};
    use muerp_core::model::NetworkSpec;

    fn setup() -> (QuantumNetwork, Vec<Request>, Vec<Decision>) {
        let net = NetworkSpec::paper_default().build(33);
        let cfg = ServeConfig {
            stream: StreamConfig {
                slots: 64,
                ..StreamConfig::default()
            },
            round_slots: 16,
            queue_capacity: 8,
            policy: PolicyKind::Fcfs,
        };
        let requests: Vec<Request> = RequestStream::new(&net, cfg.stream, 33).collect();
        let decisions = serve_requests(&net, &cfg, &requests).decisions;
        (net, requests, decisions)
    }

    #[test]
    fn requests_round_trip_bitwise() {
        let (net, requests, _) = setup();
        assert!(!requests.is_empty());
        let json = requests_to_json(&requests);
        let back = requests_from_json(&net, &json).expect("round trip");
        assert_eq!(back, requests);
    }

    #[test]
    fn decisions_round_trip_bitwise_including_trees() {
        let (net, _, decisions) = setup();
        assert!(decisions
            .iter()
            .any(|d| matches!(d.verdict, Verdict::Admitted { .. })));
        let json = decisions_to_json(&decisions);
        let back = decisions_from_json(&net, &json).expect("round trip");
        assert_eq!(back, decisions);
    }

    fn first_obj(value: &mut Value) -> &mut Map<String, Value> {
        match value {
            Value::Array(items) => match items.first_mut().expect("non-empty array") {
                Value::Object(obj) => obj,
                _ => panic!("expected an object"),
            },
            _ => panic!("expected an array"),
        }
    }

    #[test]
    fn malformed_fields_are_rejected_by_name() {
        let (net, requests, decisions) = setup();
        let mut bad = requests_to_json(&requests);
        first_obj(&mut bad).insert("class".into(), Value::from("platinum"));
        let e = requests_from_json(&net, &bad).expect_err("unknown class rejected");
        assert!(e.contains("unknown SLO class"), "{e}");

        let mut bad = requests_to_json(&requests);
        match first_obj(&mut bad).get_mut("members") {
            Some(Value::Array(members)) => members[0] = Value::from(10_000u64),
            _ => panic!("members pinned as an array"),
        }
        let e = requests_from_json(&net, &bad).expect_err("oob member rejected");
        assert!(e.contains("out of range"), "{e}");

        let mut bad = decisions_to_json(&decisions);
        first_obj(&mut bad).insert("verdict".into(), Value::from("vaporized"));
        let e = decisions_from_json(&net, &bad).expect_err("unknown verdict rejected");
        assert!(e.contains("unknown verdict"), "{e}");
    }
}
