//! Adjacency-list directed graph.

use crate::{EdgePair, GraphError, UserId};

/// A mutable directed graph over a fixed vertex set `0..n`.
///
/// Edges are stored as out-adjacency lists. Parallel edges are permitted
/// during construction and removed by [`DiGraph::sort_and_dedup`]; most
/// algorithms in this workspace call that once after building.
///
/// ```
/// use knn_graph::{DiGraph, UserId};
///
/// let g = DiGraph::from_edges(3, [(0, 1), (1, 2), (0, 1)]).unwrap();
/// let mut g = g;
/// g.sort_and_dedup();
/// assert_eq!(g.num_edges(), 2);
/// assert!(g.has_edge(UserId::new(0), UserId::new(1)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiGraph {
    out: Vec<Vec<u32>>,
    num_edges: usize,
    sorted: bool,
}

impl DiGraph {
    /// Creates an empty graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        DiGraph {
            out: vec![Vec::new(); n],
            num_edges: 0,
            sorted: true,
        }
    }

    /// Builds a graph from raw edge pairs.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if any endpoint is `>= n`.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = EdgePair>,
    {
        let mut g = DiGraph::new(n);
        for (s, d) in edges {
            g.try_add_edge(UserId::new(s), UserId::new(d))?;
        }
        Ok(g)
    }

    /// Builds a graph from undirected pairs, inserting both directions.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if any endpoint is `>= n`.
    pub fn from_undirected_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = EdgePair>,
    {
        let mut g = DiGraph::new(n);
        for (a, b) in edges {
            g.try_add_edge(UserId::new(a), UserId::new(b))?;
            g.try_add_edge(UserId::new(b), UserId::new(a))?;
        }
        Ok(g)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.out.len()
    }

    /// Number of directed edges currently stored (including parallels
    /// until [`DiGraph::sort_and_dedup`] runs).
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Adds the directed edge `(s, d)`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range; use
    /// [`DiGraph::try_add_edge`] for a checked variant.
    pub fn add_edge(&mut self, s: UserId, d: UserId) {
        self.try_add_edge(s, d)
            .expect("edge endpoints must be in range");
    }

    /// Adds the directed edge `(s, d)`, validating both endpoints.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if either endpoint is
    /// `>= num_vertices`.
    pub fn try_add_edge(&mut self, s: UserId, d: UserId) -> Result<(), GraphError> {
        let n = self.out.len();
        for v in [s, d] {
            if v.index() >= n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: v,
                    num_vertices: n,
                });
            }
        }
        self.out[s.index()].push(d.raw());
        self.num_edges += 1;
        self.sorted = false;
        Ok(())
    }

    /// Out-neighbors of `v` as raw ids.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[cfg(test)]
    fn out_neighbors(&self, v: UserId) -> &[u32] {
        &self.out[v.index()]
    }

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn out_degree(&self, v: UserId) -> usize {
        self.out[v.index()].len()
    }

    /// Whether the directed edge `(s, d)` exists.
    ///
    /// Uses binary search when the graph has been
    /// [sorted](DiGraph::sort_and_dedup), linear scan otherwise.
    pub fn has_edge(&self, s: UserId, d: UserId) -> bool {
        let list = &self.out[s.index()];
        if self.sorted {
            list.binary_search(&d.raw()).is_ok()
        } else {
            list.contains(&d.raw())
        }
    }

    /// Sorts every adjacency list and removes parallel edges.
    pub fn sort_and_dedup(&mut self) {
        let mut count = 0;
        for list in &mut self.out {
            list.sort_unstable();
            list.dedup();
            count += list.len();
        }
        self.num_edges = count;
        self.sorted = true;
    }

    /// Iterates over all directed edges in `(source, destination)` order.
    pub fn iter_edges(&self) -> impl Iterator<Item = (UserId, UserId)> + '_ {
        self.out.iter().enumerate().flat_map(|(s, list)| {
            list.iter()
                .map(move |&d| (UserId::new(s as u32), UserId::new(d)))
        })
    }

    /// Computes the in-degree of every vertex in one pass.
    pub fn in_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.out.len()];
        for list in &self.out {
            for &d in list {
                deg[d as usize] += 1;
            }
        }
        deg
    }

    /// Builds the transpose graph (every edge reversed).
    pub fn transpose(&self) -> DiGraph {
        let mut t = DiGraph::new(self.num_vertices());
        for (s, d) in self.iter_edges() {
            t.add_edge(d, s);
        }
        if self.sorted {
            t.sort_and_dedup();
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph() -> DiGraph {
        DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn new_graph_is_empty() {
        let g = DiGraph::new(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.iter_edges().count(), 0);
    }

    #[test]
    fn add_edge_updates_degree_and_count() {
        let g = path_graph();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_degree(UserId::new(1)), 1);
        assert_eq!(g.out_neighbors(UserId::new(0)), &[1]);
    }

    #[test]
    fn try_add_edge_rejects_out_of_range() {
        let mut g = DiGraph::new(2);
        let err = g.try_add_edge(UserId::new(0), UserId::new(5)).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfRange { .. }));
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn sort_and_dedup_removes_parallel_edges() {
        let mut g = DiGraph::from_edges(3, [(0, 2), (0, 1), (0, 2), (0, 2)]).unwrap();
        assert_eq!(g.num_edges(), 4);
        g.sort_and_dedup();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_neighbors(UserId::new(0)), &[1, 2]);
    }

    #[test]
    fn has_edge_works_sorted_and_unsorted() {
        let mut g = DiGraph::from_edges(3, [(0, 2), (0, 1)]).unwrap();
        assert!(g.has_edge(UserId::new(0), UserId::new(2)));
        assert!(!g.has_edge(UserId::new(1), UserId::new(0)));
        g.sort_and_dedup();
        assert!(g.has_edge(UserId::new(0), UserId::new(2)));
        assert!(!g.has_edge(UserId::new(2), UserId::new(0)));
    }

    #[test]
    fn transpose_reverses_every_edge() {
        let g = path_graph();
        let t = g.transpose();
        assert_eq!(t.num_edges(), g.num_edges());
        for (s, d) in g.iter_edges() {
            assert!(t.has_edge(d, s));
        }
    }

    #[test]
    fn in_degrees_match_transpose_out_degrees() {
        let g = path_graph();
        let t = g.transpose();
        let deg = g.in_degrees();
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(deg[v as usize], t.out_degree(UserId::new(v)));
        }
    }

    #[test]
    fn from_undirected_inserts_both_directions() {
        let g = DiGraph::from_undirected_edges(3, [(0, 1), (1, 2)]).unwrap();
        assert!(g.has_edge(UserId::new(0), UserId::new(1)));
        assert!(g.has_edge(UserId::new(1), UserId::new(0)));
        assert_eq!(g.num_edges(), 4);
    }
}
