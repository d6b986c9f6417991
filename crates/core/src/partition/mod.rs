//! Phase 1 placement: split the `n` users into `m` balanced
//! partitions. The engine uses one of two partitioners, chosen by
//! [`EngineConfig::clustering_enabled`](crate::EngineConfig::clustering_enabled):
//!
//! * [`GreedyPartitioner`] (clustering off) minimizes the paper's
//!   objective `Σᵢ (N_in(i) + N_out(i))` — the count of unique in-edge
//!   sources plus unique out-edge destinations per partition, i.e. the
//!   vertex-replication cost that phase 4 will pay in partition I/O;
//! * [`ClusterPartitioner`] (clustering on) packs the `knn-cluster`
//!   pre-pass's profile clusters into partitions.

mod cluster;
mod greedy;
pub mod objective;

pub use cluster::ClusterPartitioner;
pub use greedy::GreedyPartitioner;

use knn_graph::UserId;

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
    fn zero_partitions_rejected() {
        assert!(Partitioning::from_assignment(vec![], 0).is_err());
    }
}
