use std::fmt;

use crate::UserId;

/// Errors produced by graph construction and validation.
#[derive(Debug)]
#[non_exhaustive]
pub enum GraphError {
    /// A vertex id referenced a vertex outside `0..num_vertices`.
    VertexOutOfRange {
        /// The offending vertex.
        vertex: UserId,
        /// Number of vertices in the graph.
        num_vertices: usize,
    },
    /// A self-loop `(v, v)` was supplied where self-loops are forbidden.
    SelfLoop {
        /// The looping vertex.
        vertex: UserId,
    },
    /// A duplicate neighbor id was supplied in a neighbor list.
    DuplicateNeighbor {
        /// The owning vertex.
        vertex: UserId,
        /// The repeated neighbor.
        neighbor: UserId,
    },
    /// A neighbor list exceeded the graph's `K` bound.
    TooManyNeighbors {
        /// The owning vertex.
        vertex: UserId,
        /// Supplied list length.
        supplied: usize,
        /// The graph's bound.
        k: usize,
    },
    /// A similarity score was NaN or infinite.
    NonFiniteSimilarity {
        /// The edge whose score was invalid.
        edge: (UserId, UserId),
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => {
                write!(
                    f,
                    "vertex {vertex} out of range for graph with {num_vertices} vertices"
                )
            }
            GraphError::SelfLoop { vertex } => {
                write!(f, "self-loop on vertex {vertex} is not allowed")
            }
            GraphError::DuplicateNeighbor { vertex, neighbor } => {
                write!(
                    f,
                    "duplicate neighbor {neighbor} in neighbor list of {vertex}"
                )
            }
            GraphError::TooManyNeighbors {
                vertex,
                supplied,
                k,
            } => {
                write!(
                    f,
                    "{supplied} neighbors supplied for {vertex} but the graph bound is K={k}"
                )
            }
            GraphError::NonFiniteSimilarity { edge: (s, d) } => {
                write!(f, "non-finite similarity on edge ({s}, {d})")
            }
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn error_is_send_sync() {
        assert_send_sync::<GraphError>();
    }

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let variants: Vec<GraphError> = vec![
            GraphError::VertexOutOfRange {
                vertex: UserId::new(9),
                num_vertices: 4,
            },
            GraphError::SelfLoop {
                vertex: UserId::new(1),
            },
            GraphError::DuplicateNeighbor {
                vertex: UserId::new(1),
                neighbor: UserId::new(2),
            },
            GraphError::TooManyNeighbors {
                vertex: UserId::new(0),
                supplied: 5,
                k: 3,
            },
            GraphError::NonFiniteSimilarity {
                edge: (UserId::new(0), UserId::new(1)),
            },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
            assert!(!format!("{v:?}").is_empty());
        }
    }
}
