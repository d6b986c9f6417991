//! Phase 1 partitioners: split the `n` users into `m` balanced
//! partitions minimizing the paper's objective `Σᵢ (N_in(i) + N_out(i))`
//! — the count of unique in-edge sources plus unique out-edge
//! destinations per partition, i.e. the vertex-replication cost that
//! phase 4 will pay in partition I/O.

mod cluster;
mod contiguous;
mod greedy;
pub mod objective;
mod random;
mod refine;

pub use cluster::ClusterPartitioner;
pub use contiguous::ContiguousPartitioner;
pub use greedy::GreedyPartitioner;
pub use random::RandomPartitioner;
pub use refine::RefinePartitioner;

use knn_graph::{DiGraph, UserId};

use crate::EngineError;

/// An assignment of every user to one of `m` partitions, balanced to
/// `⌈n/m⌉` users per partition.
///
/// ```
/// use knn_core::partition::Partitioning;
/// use knn_graph::UserId;
///
/// let p = Partitioning::from_assignment(vec![0, 0, 1, 1], 2).unwrap();
/// assert_eq!(p.partition_of(UserId::new(2)), 1);
/// assert_eq!(p.users_of(0), &[UserId::new(0), UserId::new(1)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    assignment: Vec<u32>,
    num_partitions: usize,
    users: Vec<Vec<UserId>>,
    /// `rows[u]`: user `u`'s index in `users[assignment[u]]`.
    rows: Vec<u32>,
}

impl Partitioning {
    /// Builds a partitioning from an explicit user→partition map.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] if a partition id is `>= m` or
    /// any partition exceeds the balance bound `⌈n/m⌉`.
    pub fn from_assignment(assignment: Vec<u32>, m: usize) -> Result<Self, EngineError> {
        if m == 0 {
            return Err(EngineError::config("m must be positive"));
        }
        let n = assignment.len();
        let cap = n.div_ceil(m);
        let mut users: Vec<Vec<UserId>> = vec![Vec::new(); m];
        let mut rows = Vec::with_capacity(n);
        for (u, &p) in assignment.iter().enumerate() {
            if p as usize >= m {
                return Err(EngineError::config(format!(
                    "user {u} assigned to partition {p} but m={m}"
                )));
            }
            let members = &mut users[p as usize];
            rows.push(members.len() as u32);
            members.push(UserId::new(u as u32));
            if members.len() > cap {
                return Err(EngineError::config(format!(
                    "partition {p} exceeds balance bound {cap} users"
                )));
            }
        }
        Ok(Partitioning {
            assignment,
            num_partitions: m,
            users,
            rows,
        })
    }

    /// Number of partitions `m`.
    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    /// Number of users `n`.
    pub fn num_users(&self) -> usize {
        self.assignment.len()
    }

    /// The partition containing `user`.
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range.
    pub fn partition_of(&self, user: UserId) -> u32 {
        self.assignment[user.index()]
    }

    /// The users of partition `p`, in ascending id order.
    ///
    /// # Panics
    ///
    /// Panics if `p >= m`.
    pub fn users_of(&self, p: u32) -> &[UserId] {
        &self.users[p as usize]
    }

    /// The raw assignment vector (index = user id).
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Each user's row within its partition (index = user id): the
    /// position of `u` in [`users_of`](Self::users_of)`(partition_of(u))`.
    /// Partition streams list their users in that order, and since
    /// `users_of` is ascending, row order equals id order within a
    /// partition.
    pub(crate) fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// The maximum allowed partition size `⌈n/m⌉`.
    pub fn capacity(&self) -> usize {
        self.num_users().div_ceil(self.num_partitions)
    }
}

/// A phase-1 partitioning algorithm.
///
/// Implementations must produce balanced partitions (≤ `⌈n/m⌉` users
/// each) deterministically for a given graph and seed.
pub trait Partitioner {
    /// Partitions the vertices of `graph` into `m` balanced partitions.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] for invalid `m`.
    fn partition(&self, graph: &DiGraph, m: usize) -> Result<Partitioning, EngineError>;

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// Selector for the built-in partitioners (used by [`crate::EngineConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum PartitionerKind {
    /// Contiguous id ranges (no structure awareness; fastest).
    Contiguous,
    /// Seeded random balanced assignment.
    Random,
    /// Streaming greedy placement minimizing new vertex replication
    /// (default).
    #[default]
    Greedy,
    /// Greedy followed by swap-refinement passes.
    Refined,
    /// Locality-aware packing of the `knn-cluster` pre-pass clusters
    /// (profile locality, not graph structure). Engine-managed: the
    /// engine runs the clustering pre-pass and binds its assignment;
    /// [`instantiate`](PartitionerKind::instantiate) alone yields an
    /// unbound partitioner that refuses to run.
    Cluster,
}

impl PartitionerKind {
    /// All built-in kinds, for sweeps.
    pub const ALL: [PartitionerKind; 5] = [
        PartitionerKind::Contiguous,
        PartitionerKind::Random,
        PartitionerKind::Greedy,
        PartitionerKind::Refined,
        PartitionerKind::Cluster,
    ];

    /// Instantiates the partitioner with the given seed.
    ///
    /// [`Cluster`](PartitionerKind::Cluster) yields an **unbound**
    /// [`ClusterPartitioner`] whose `partition` fails with a config
    /// error: it needs the engine-computed cluster assignment, which a
    /// bare kind + seed cannot supply (the engine binds it via
    /// [`ClusterPartitioner::new`]).
    pub fn instantiate(self, seed: u64) -> Box<dyn Partitioner> {
        match self {
            PartitionerKind::Contiguous => Box::new(ContiguousPartitioner),
            PartitionerKind::Random => Box::new(RandomPartitioner::new(seed)),
            PartitionerKind::Greedy => Box::new(GreedyPartitioner::new(seed)),
            PartitionerKind::Refined => Box::new(RefinePartitioner::new(
                GreedyPartitioner::new(seed),
                2,
                seed,
            )),
            PartitionerKind::Cluster => Box::new(ClusterPartitioner::unbound()),
        }
    }
}

impl std::fmt::Display for PartitionerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PartitionerKind::Contiguous => "contiguous",
            PartitionerKind::Random => "random",
            PartitionerKind::Greedy => "greedy",
            PartitionerKind::Refined => "refined",
            PartitionerKind::Cluster => "cluster",
        };
        f.write_str(s)
    }
}

/// Shared helper asserting the balance contract in tests.
#[cfg(test)]
pub(crate) fn assert_balanced(p: &Partitioning) {
    let cap = p.capacity();
    for i in 0..p.num_partitions() as u32 {
        assert!(
            p.users_of(i).len() <= cap,
            "partition {i} has {} users, cap {cap}",
            p.users_of(i).len()
        );
    }
    // Every user appears exactly once.
    let total: usize = (0..p.num_partitions() as u32)
        .map(|i| p.users_of(i).len())
        .sum();
    assert_eq!(total, p.num_users());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_assignment_validates_range_and_balance() {
        assert!(Partitioning::from_assignment(vec![0, 1, 2], 2).is_err());
        assert!(
            Partitioning::from_assignment(vec![0, 0, 0], 2).is_err(),
            "cap is 2"
        );
        let p = Partitioning::from_assignment(vec![0, 1, 0, 1], 2).unwrap();
        assert_balanced(&p);
        assert_eq!(p.capacity(), 2);
    }

    #[test]
    fn users_of_is_sorted() {
        let p = Partitioning::from_assignment(vec![1, 0, 1, 0], 2).unwrap();
        assert_eq!(p.users_of(0), &[UserId::new(1), UserId::new(3)]);
        assert_eq!(p.users_of(1), &[UserId::new(0), UserId::new(2)]);
        assert_eq!(p.rows(), &[0, 0, 1, 1]);
    }

    #[test]
    fn kind_instantiates_all() {
        let g = DiGraph::from_edges(6, [(0, 1), (2, 3), (4, 5)]).unwrap();
        for kind in PartitionerKind::ALL {
            assert!(!kind.to_string().is_empty());
            if kind == PartitionerKind::Cluster {
                // Cluster is engine-managed: the bare instantiation
                // must refuse rather than partition without labels.
                assert!(kind.instantiate(1).partition(&g, 3).is_err());
                continue;
            }
            let p = kind.instantiate(1).partition(&g, 3).unwrap();
            assert_balanced(&p);
        }
    }

    #[test]
    fn zero_partitions_rejected() {
        assert!(Partitioning::from_assignment(vec![], 0).is_err());
    }
}
