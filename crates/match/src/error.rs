//! Typed errors for graph validation and hardened engine runs.
//!
//! [`ValidationError`] reports structural defects in a
//! [`MatchingGraph`](crate::MatchingGraph) — non-finite or negative weights,
//! CSR inconsistencies, nodes that cannot reach the boundary — found by
//! [`MatchingGraph::validate`](crate::MatchingGraph::validate).
//! [`EngineError`] is what the fallible engine entry points
//! ([`LerEngine::try_run`](crate::LerEngine::try_run))
//! return: an input-validation failure, or a chunk that exhausted the
//! decoder degradation ladder at run time.

use crate::graph::NodeId;
use caliqec_stab::CircuitError;
use std::fmt;

/// A structural defect found while validating a
/// [`MatchingGraph`](crate::MatchingGraph).
#[derive(Clone, Debug, PartialEq)]
pub enum ValidationError {
    /// An edge endpoint is not a detector or the boundary node.
    EndpointOutOfRange {
        /// Index of the offending edge.
        edge: usize,
        /// The out-of-range endpoint.
        node: NodeId,
        /// Total node count (detectors + boundary).
        num_nodes: usize,
    },
    /// An edge weight is NaN or infinite.
    NonFiniteWeight {
        /// Index of the offending edge.
        edge: usize,
        /// The offending weight.
        weight: f64,
    },
    /// An edge weight is negative (matching requires non-negative costs).
    NegativeWeight {
        /// Index of the offending edge.
        edge: usize,
        /// The offending weight.
        weight: f64,
    },
    /// An edge probability is not a finite number in `(0, 1)`.
    BadProbability {
        /// Index of the offending edge.
        edge: usize,
        /// The offending probability.
        probability: f64,
    },
    /// The CSR adjacency disagrees with the edge list (offsets non-monotone,
    /// slot counts wrong, or an incidence entry pointing at a non-incident
    /// edge).
    CsrInconsistent {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// A detector node carries edges but has no path to the boundary, so a
    /// single defect there could never be matched.
    Unreachable {
        /// The stranded node.
        node: NodeId,
    },
    /// The graph carries no DEM provenance, so
    /// [`MatchingGraph::reweight`](crate::MatchingGraph::reweight) cannot
    /// recompute its probabilities. Graphs built by
    /// [`MatchingGraph::from_edges`](crate::MatchingGraph::from_edges) are in
    /// this state.
    NoProvenance,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::EndpointOutOfRange {
                edge,
                node,
                num_nodes,
            } => write!(
                f,
                "edge {edge} endpoint {node} out of range (graph has {num_nodes} nodes)"
            ),
            ValidationError::NonFiniteWeight { edge, weight } => {
                write!(f, "edge {edge} has non-finite weight {weight}")
            }
            ValidationError::NegativeWeight { edge, weight } => {
                write!(f, "edge {edge} has negative weight {weight}")
            }
            ValidationError::BadProbability { edge, probability } => {
                write!(f, "edge {edge} has bad probability {probability}")
            }
            ValidationError::CsrInconsistent { detail } => {
                write!(f, "adjacency inconsistent with edge list: {detail}")
            }
            ValidationError::Unreachable { node } => {
                write!(f, "node {node} has edges but cannot reach the boundary")
            }
            ValidationError::NoProvenance => {
                write!(f, "graph carries no DEM provenance; cannot reweight")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// A failure of a hardened engine run: invalid inputs rejected up front, or
/// a chunk whose decode faulted on every rung of the degradation ladder.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// The compiled circuit failed validation.
    Circuit(CircuitError),
    /// The decoder factory's matching graph failed validation.
    Graph(ValidationError),
    /// One chunk faulted on every rung of the degradation ladder; `reason`
    /// is the last rung's fault description.
    ChunkFailed {
        /// Index of the failed chunk.
        chunk: usize,
        /// Last ladder rung attempted (0-based).
        rung: usize,
        /// Description of the final fault.
        reason: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Circuit(e) => write!(f, "invalid circuit: {e}"),
            EngineError::Graph(e) => write!(f, "invalid matching graph: {e}"),
            EngineError::ChunkFailed {
                chunk,
                rung,
                reason,
            } => write!(
                f,
                "chunk {chunk} failed on every degradation rung (last rung {rung}): {reason}"
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Circuit(e) => Some(e),
            EngineError::Graph(e) => Some(e),
            EngineError::ChunkFailed { .. } => None,
        }
    }
}

impl From<CircuitError> for EngineError {
    fn from(e: CircuitError) -> EngineError {
        EngineError::Circuit(e)
    }
}

impl From<ValidationError> for EngineError {
    fn from(e: ValidationError) -> EngineError {
        EngineError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_and_convert() {
        let v = ValidationError::NegativeWeight {
            edge: 3,
            weight: -1.0,
        };
        assert!(v.to_string().contains("edge 3"));
        let e: EngineError = v.into();
        assert!(matches!(e, EngineError::Graph(_)));
        assert!(e.to_string().contains("invalid matching graph"));

        let e: EngineError = CircuitError::TooManyObservables {
            num_observables: 99,
        }
        .into();
        assert!(e.to_string().contains("invalid circuit"));

        let e = EngineError::ChunkFailed {
            chunk: 4,
            rung: 2,
            reason: "injected panic".into(),
        };
        assert!(e.to_string().contains("chunk 4"));
    }
}
