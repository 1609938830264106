//! JSON fixtures of solved networks — golden inputs for the validator.
//!
//! Fixtures use an explicit hand-rolled [`serde_json::Value`] schema
//! (the same approach as `qnet-obs` run reports):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "name": "triangle-hub",
//!   "physics": { "swap_success": 0.9, "attenuation": 0.0001 },
//!   "nodes": [ { "kind": "user" }, { "kind": "switch", "qubits": 4 } ],
//!   "edges": [ [0, 1, 600.0] ],
//!   "users": [0],
//!   "solutions": [
//!     { "algo": "Alg-3", "style": "bsm-tree", "rate": 0.5,
//!       "channels": [ { "nodes": [0, 1, 2], "rate": 0.5 } ] },
//!     { "algo": "N-Fusion", "style": "fusion-star", "center": 1,
//!       "fusion_rate": 0.81, "rate": 0.4, "channels": [ ... ] }
//!   ]
//! }
//! ```
//!
//! Channels store node sequences only; edges are reconstructed via
//! `find_edge`, so fixture graphs must not contain parallel edges.
//! Claimed rates are stored verbatim and *not* recomputed on load — the
//! golden test audits them, which is exactly how drift in validator
//! semantics gets caught.

use muerp_core::channel::Channel;
use muerp_core::model::{NodeKind, PhysicsParams, QuantumNetwork};
use muerp_core::rate::Rate;
use muerp_core::solver::{Solution, SolutionStyle};
use qnet_graph::paths::Path;
use qnet_graph::{Graph, NodeId};
use serde_json::{Map, Value};

/// Version stamp of the fixture schema.
pub const FIXTURE_SCHEMA_VERSION: u64 = 1;

/// A malformed fixture document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FixtureError(pub String);

impl std::fmt::Display for FixtureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fixture: {}", self.0)
    }
}

impl std::error::Error for FixtureError {}

fn err<T>(msg: impl Into<String>) -> Result<T, FixtureError> {
    Err(FixtureError(msg.into()))
}

fn field<'a>(obj: &'a Value, key: &str) -> Result<&'a Value, FixtureError> {
    obj.get(key)
        .ok_or_else(|| FixtureError(format!("missing field `{key}`")))
}

fn f64_field(obj: &Value, key: &str) -> Result<f64, FixtureError> {
    field(obj, key)?
        .as_f64()
        .ok_or_else(|| FixtureError(format!("field `{key}` is not a number")))
}

fn u64_field(obj: &Value, key: &str) -> Result<u64, FixtureError> {
    field(obj, key)?
        .as_u64()
        .ok_or_else(|| FixtureError(format!("field `{key}` is not a non-negative integer")))
}

fn array_field<'a>(obj: &'a Value, key: &str) -> Result<&'a Vec<Value>, FixtureError> {
    field(obj, key)?
        .as_array()
        .ok_or_else(|| FixtureError(format!("field `{key}` is not an array")))
}

fn str_field<'a>(obj: &'a Value, key: &str) -> Result<&'a str, FixtureError> {
    field(obj, key)?
        .as_str()
        .ok_or_else(|| FixtureError(format!("field `{key}` is not a string")))
}

/// A named network together with the solutions pinned against it.
#[derive(Clone, Debug)]
pub struct Fixture {
    /// Fixture name (used in test failure messages).
    pub name: String,
    /// The network instance.
    pub net: QuantumNetwork,
    /// Solved outputs: `(algorithm name, solution)`.
    pub solutions: Vec<(String, Solution)>,
}

impl Fixture {
    /// Serializes the fixture to its JSON schema.
    pub fn to_json(&self) -> Value {
        let mut root = Map::new();
        root.insert("schema_version".into(), Value::from(FIXTURE_SCHEMA_VERSION));
        root.insert("name".into(), Value::from(self.name.as_str()));
        let mut physics = Map::new();
        physics.insert(
            "swap_success".into(),
            Value::from(self.net.physics().swap_success),
        );
        physics.insert(
            "attenuation".into(),
            Value::from(self.net.physics().attenuation),
        );
        root.insert("physics".into(), Value::Object(physics));
        root.insert(
            "nodes".into(),
            Value::Array(
                self.net
                    .graph()
                    .node_ids()
                    .map(|v| {
                        let mut node = Map::new();
                        match self.net.kind(v) {
                            NodeKind::User => {
                                node.insert("kind".into(), Value::from("user"));
                            }
                            NodeKind::Switch { qubits } => {
                                node.insert("kind".into(), Value::from("switch"));
                                node.insert("qubits".into(), Value::from(qubits));
                            }
                        }
                        Value::Object(node)
                    })
                    .collect(),
            ),
        );
        root.insert(
            "edges".into(),
            Value::Array(
                self.net
                    .graph()
                    .edge_refs()
                    .map(|e| {
                        Value::Array(vec![
                            Value::from(e.a.index()),
                            Value::from(e.b.index()),
                            Value::from(*e.payload),
                        ])
                    })
                    .collect(),
            ),
        );
        root.insert(
            "users".into(),
            Value::Array(
                self.net
                    .users()
                    .iter()
                    .map(|u| Value::from(u.index()))
                    .collect(),
            ),
        );
        root.insert(
            "solutions".into(),
            Value::Array(
                self.solutions
                    .iter()
                    .map(|(algo, sol)| solution_to_json(algo, sol))
                    .collect(),
            ),
        );
        Value::Object(root)
    }

    /// Parses a fixture from its JSON schema.
    ///
    /// # Errors
    ///
    /// Returns a [`FixtureError`] naming the first malformed field.
    pub fn from_json(value: &Value) -> Result<Fixture, FixtureError> {
        let version = u64_field(value, "schema_version")?;
        if version > FIXTURE_SCHEMA_VERSION {
            return err(format!(
                "schema_version {version} is newer than supported {FIXTURE_SCHEMA_VERSION}"
            ));
        }
        let name = str_field(value, "name")?.to_string();
        let physics_value = field(value, "physics")?;
        let physics = PhysicsParams {
            swap_success: f64_field(physics_value, "swap_success")?,
            attenuation: f64_field(physics_value, "attenuation")?,
        };

        let nodes = array_field(value, "nodes")?;
        let mut graph: Graph<NodeKind, f64> = Graph::with_capacity(nodes.len(), 0);
        for node in nodes {
            let kind = match str_field(node, "kind")? {
                "user" => NodeKind::User,
                "switch" => NodeKind::Switch {
                    qubits: u64_field(node, "qubits")?
                        .try_into()
                        .map_err(|_| FixtureError("switch qubits out of range".into()))?,
                },
                other => return err(format!("unknown node kind `{other}`")),
            };
            graph.add_node(kind);
        }
        for edge in array_field(value, "edges")? {
            let parts = edge
                .as_array()
                .filter(|p| p.len() == 3)
                .ok_or_else(|| FixtureError("edge is not a [a, b, length] triple".into()))?;
            let a = node_id(&parts[0], graph.node_count())?;
            let b = node_id(&parts[1], graph.node_count())?;
            let length = parts[2]
                .as_f64()
                .ok_or_else(|| FixtureError("edge length is not a number".into()))?;
            graph.add_edge(a, b, length);
        }
        let users = array_field(value, "users")?
            .iter()
            .map(|u| node_id(u, graph.node_count()))
            .collect::<Result<Vec<_>, _>>()?;
        let net = QuantumNetwork::from_parts(graph, users, physics);

        let solutions = array_field(value, "solutions")?
            .iter()
            .map(|s| solution_from_json(&net, s))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Fixture {
            name,
            net,
            solutions,
        })
    }

    /// Parses a fixture from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a [`FixtureError`] on malformed JSON or schema.
    pub fn from_json_str(text: &str) -> Result<Fixture, FixtureError> {
        let value =
            serde_json::from_str(text).map_err(|e| FixtureError(format!("invalid JSON: {e}")))?;
        Fixture::from_json(&value)
    }

    /// Renders the fixture as pretty-printed JSON text.
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(&self.to_json()).expect("Value serialization is total")
    }
}

fn node_id(value: &Value, node_count: usize) -> Result<NodeId, FixtureError> {
    let raw = value
        .as_u64()
        .ok_or_else(|| FixtureError("node id is not a non-negative integer".into()))?;
    let index = usize::try_from(raw)
        .ok()
        .filter(|&i| i < node_count)
        .ok_or_else(|| FixtureError(format!("node id {raw} out of range ({node_count} nodes)")))?;
    Ok(NodeId::new(index))
}

fn solution_to_json(algo: &str, sol: &Solution) -> Value {
    let mut out = Map::new();
    out.insert("algo".into(), Value::from(algo));
    out.insert("rate".into(), Value::from(sol.rate.value()));
    match sol.style {
        SolutionStyle::BsmTree => {
            out.insert("style".into(), Value::from("bsm-tree"));
        }
        SolutionStyle::FusionStar {
            center,
            fusion_rate,
        } => {
            out.insert("style".into(), Value::from("fusion-star"));
            out.insert("center".into(), Value::from(center.index()));
            out.insert("fusion_rate".into(), Value::from(fusion_rate.value()));
        }
    }
    out.insert(
        "channels".into(),
        Value::Array(
            sol.channels
                .iter()
                .map(|c| {
                    let mut channel = Map::new();
                    channel.insert(
                        "nodes".into(),
                        Value::Array(
                            c.path
                                .nodes
                                .iter()
                                .map(|n| Value::from(n.index()))
                                .collect(),
                        ),
                    );
                    channel.insert("rate".into(), Value::from(c.rate.value()));
                    Value::Object(channel)
                })
                .collect(),
        ),
    );
    Value::Object(out)
}

fn solution_from_json(
    net: &QuantumNetwork,
    value: &Value,
) -> Result<(String, Solution), FixtureError> {
    let algo = str_field(value, "algo")?.to_string();
    let rate = Rate::from_prob(f64_field(value, "rate")?);
    let style = match str_field(value, "style")? {
        "bsm-tree" => SolutionStyle::BsmTree,
        "fusion-star" => SolutionStyle::FusionStar {
            center: node_id(field(value, "center")?, net.graph().node_count())?,
            fusion_rate: Rate::from_prob(f64_field(value, "fusion_rate")?),
        },
        other => return err(format!("unknown solution style `{other}`")),
    };
    let channels = array_field(value, "channels")?
        .iter()
        .map(|c| channel_from_json(net, c))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((
        algo,
        Solution {
            channels,
            rate,
            style,
        },
    ))
}

fn channel_from_json(net: &QuantumNetwork, value: &Value) -> Result<Channel, FixtureError> {
    let nodes = array_field(value, "nodes")?
        .iter()
        .map(|n| node_id(n, net.graph().node_count()))
        .collect::<Result<Vec<_>, _>>()?;
    if nodes.len() < 2 {
        return err("channel has fewer than two nodes");
    }
    let edges = nodes
        .windows(2)
        .map(|w| {
            net.graph().find_edge(w[0], w[1]).ok_or_else(|| {
                FixtureError(format!("no fiber between nodes {} and {}", w[0], w[1]))
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let cost: f64 = edges
        .iter()
        .map(|&e| net.physics().attenuation * net.length(e))
        .sum();
    let rate = Rate::from_prob(f64_field(value, "rate")?);
    Ok(Channel {
        path: Path { nodes, edges, cost },
        rate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use muerp_core::audit::audit_solution;
    use muerp_core::model::NetworkSpec;
    use muerp_core::prelude::*;

    fn solved_fixture(seed: u64) -> Fixture {
        let net = NetworkSpec::paper_default().with_users(5).build(seed);
        let mut solutions = Vec::new();
        if let Ok(sol) = ConflictFree::default().solve(&net) {
            solutions.push(("Alg-3".to_string(), sol));
        }
        if let Ok(sol) = PrimBased::with_seed(seed).solve(&net) {
            solutions.push(("Alg-4".to_string(), sol));
        }
        if let Ok(sol) = NFusion::default().solve(&net) {
            solutions.push(("N-Fusion".to_string(), sol));
        }
        Fixture {
            name: format!("roundtrip-{seed}"),
            net,
            solutions,
        }
    }

    #[test]
    fn fixtures_roundtrip_and_stay_audit_clean() {
        let fixture = solved_fixture(31);
        assert!(!fixture.solutions.is_empty());
        let text = fixture.to_json_string();
        let reloaded = Fixture::from_json_str(&text).expect("parse");
        assert_eq!(reloaded.name, fixture.name);
        assert_eq!(reloaded.net.user_count(), fixture.net.user_count());
        assert_eq!(
            reloaded.net.graph().edge_count(),
            fixture.net.graph().edge_count()
        );
        assert_eq!(reloaded.solutions.len(), fixture.solutions.len());
        for (algo, sol) in &reloaded.solutions {
            audit_solution(&reloaded.net, sol)
                .unwrap_or_else(|v| panic!("{algo} failed the audit after reload: {v}"));
        }
        // Second serialization is byte-identical (stable golden format).
        assert_eq!(reloaded.to_json_string(), text);
    }

    #[test]
    fn tampered_rate_is_rejected_by_name_after_reload() {
        let fixture = solved_fixture(32);
        let text = fixture.to_json_string();
        // Corrupt every claimed solution rate in the JSON itself.
        let tampered = text.replace("\"rate\":", "\"rate\": 0.999999,\"old_rate\":");
        let reloaded = Fixture::from_json_str(&tampered).expect("still parses");
        let (algo, sol) = &reloaded.solutions[0];
        let violation = audit_solution(&reloaded.net, sol)
            .expect_err(&format!("{algo} tampered rate must be rejected"));
        assert!(
            violation.invariant().starts_with("rate-"),
            "got {violation}"
        );
    }

    #[test]
    fn malformed_documents_name_the_field() {
        let e = Fixture::from_json_str("{}").unwrap_err();
        assert!(e.to_string().contains("schema_version"), "{e}");
        let e = Fixture::from_json_str("not json").unwrap_err();
        assert!(e.to_string().contains("invalid JSON"), "{e}");
        let doc = r#"{"schema_version": 99, "name": "x", "physics": {"swap_success": 0.9,
            "attenuation": 0.0001}, "nodes": [], "edges": [], "users": [], "solutions": []}"#;
        let e = Fixture::from_json_str(doc).unwrap_err();
        assert!(e.to_string().contains("newer"), "{e}");
    }
}
