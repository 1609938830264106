//! Error types for routing and validation.

use core::fmt;

use qnet_graph::NodeId;

/// Why a routing algorithm failed to produce an entanglement tree.
///
/// Per the paper's simulation setup, a run that cannot establish a channel
/// "due to network constraints" scores an entanglement rate of zero; the
/// experiment harness maps these errors to rate 0.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RoutingError {
    /// No channel with positive rate exists between two users that must be
    /// connected (network disconnected or capacity exhausted).
    NoFeasibleChannel {
        /// One endpoint of the unconnectable pair (a representative user
        /// of one union in Algorithms 3/4).
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// The instance has fewer than two users; an entanglement tree over
    /// `U` needs `|U| ≥ 2`.
    TooFewUsers {
        /// Number of users present.
        got: usize,
    },
    /// No fusion center with sufficient capacity exists (N-FUSION
    /// baseline).
    NoFusionCenter,
}

impl fmt::Display for RoutingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingError::NoFeasibleChannel { a, b } => {
                write!(f, "no feasible quantum channel between {a} and {b}")
            }
            RoutingError::TooFewUsers { got } => {
                write!(f, "entanglement needs at least 2 users, got {got}")
            }
            RoutingError::NoFusionCenter => {
                write!(f, "no fusion center with sufficient capacity")
            }
        }
    }
}

impl std::error::Error for RoutingError {}

/// Why a proposed solution is invalid for a given network.
#[derive(Clone, Debug, PartialEq)]
pub enum ValidationError {
    /// A channel endpoint is not a quantum user.
    EndpointNotUser {
        /// The offending node.
        node: NodeId,
    },
    /// A channel's interior visits a non-switch node.
    InteriorNotSwitch {
        /// The offending node.
        node: NodeId,
    },
    /// A channel is not a simple path (repeats a node).
    NotSimplePath {
        /// The repeated node.
        node: NodeId,
    },
    /// A channel uses an edge that does not exist between its claimed
    /// endpoints.
    BrokenPath,
    /// Total qubit demand at a switch exceeds its capacity.
    CapacityExceeded {
        /// The overloaded switch.
        node: NodeId,
        /// Qubits demanded.
        demanded: u32,
        /// Qubits available.
        available: u32,
    },
    /// The channel set does not form a spanning tree over the users
    /// (wrong channel count, a cycle, or users left unconnected).
    NotSpanningTree {
        /// Human-readable detail.
        detail: String,
    },
    /// More than one channel routed between the same user pair (the model
    /// allows at most one).
    DuplicateUserPair {
        /// First endpoint.
        a: NodeId,
        /// Second endpoint.
        b: NodeId,
    },
    /// The solution's claimed rate disagrees with recomputation from its
    /// channels.
    RateMismatch {
        /// Rate claimed by the solution.
        claimed: f64,
        /// Rate recomputed from the channel set.
        recomputed: f64,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::EndpointNotUser { node } => {
                write!(f, "channel endpoint {node} is not a quantum user")
            }
            ValidationError::InteriorNotSwitch { node } => {
                write!(f, "channel interior node {node} is not a switch")
            }
            ValidationError::NotSimplePath { node } => {
                write!(f, "channel repeats node {node}")
            }
            ValidationError::BrokenPath => write!(f, "channel edge list does not match its nodes"),
            ValidationError::CapacityExceeded {
                node,
                demanded,
                available,
            } => write!(
                f,
                "switch {node} capacity exceeded: {demanded} qubits demanded, {available} available"
            ),
            ValidationError::NotSpanningTree { detail } => {
                write!(
                    f,
                    "channels do not form a spanning entanglement tree: {detail}"
                )
            }
            ValidationError::DuplicateUserPair { a, b } => {
                write!(f, "more than one channel between users {a} and {b}")
            }
            ValidationError::RateMismatch {
                claimed,
                recomputed,
            } => write!(
                f,
                "solution rate {claimed:e} disagrees with recomputed {recomputed:e}"
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

/// A run setting outside the range its model defines: the field, the
/// rule it breaks and the value it holds. Every config's `check`
/// returns one, and its `Display` is the message callers print
/// ("queue capacity must be positive, got 0").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The field, as spelled in its config struct (`"queue_capacity"`).
    pub field: &'static str,
    /// The rule the field breaks (`"must be positive"`).
    pub rule: &'static str,
    /// The value the field holds, as printed.
    pub got: String,
}

impl ConfigError {
    /// `Ok` when `holds`, else the error naming `field`, `rule` and `got`.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] when `holds` is false.
    pub fn unless(
        holds: bool,
        field: &'static str,
        rule: &'static str,
        got: impl fmt::Display,
    ) -> Result<(), ConfigError> {
        if holds {
            Ok(())
        } else {
            Err(ConfigError {
                field,
                rule,
                got: got.to_string(),
            })
        }
    }

    /// `Ok` when the count `value` is at least 1.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] naming `field` when `value` is 0.
    pub fn positive<T>(field: &'static str, value: T) -> Result<(), ConfigError>
    where
        T: PartialOrd + From<u8> + fmt::Display,
    {
        Self::unless(value >= T::from(1), field, "must be positive", value)
    }

    /// `Ok` when the probability `value` lies in `[0, 1]` (so not NaN).
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] naming `field` otherwise.
    pub fn in_unit(field: &'static str, value: f64) -> Result<(), ConfigError> {
        Self::unless(
            (0.0..=1.0).contains(&value),
            field,
            "must be in [0, 1]",
            value,
        )
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let field = self.field.replace('_', " ");
        write!(f, "{field} {}, got {}", self.rule, self.got)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_lowercase_without_period() {
        let e = RoutingError::NoFeasibleChannel {
            a: NodeId::new(0),
            b: NodeId::new(1),
        };
        let s = e.to_string();
        assert!(s.starts_with("no feasible"));
        assert!(!s.ends_with('.'));
        let v = ValidationError::CapacityExceeded {
            node: NodeId::new(3),
            demanded: 6,
            available: 4,
        };
        assert!(v.to_string().contains("6 qubits demanded"));
    }

    #[test]
    fn errors_are_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<RoutingError>();
        assert_err::<ValidationError>();
        assert_err::<ConfigError>();
    }
}
