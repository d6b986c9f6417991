//! Seeded draws of distinct random neighbors — the one sampler behind
//! every initial graph `G(0)`.

use rand::Rng;

use crate::{Neighbor, UserId};

/// Appends ids drawn uniformly without replacement from `pool` to
/// `list` as [`Neighbor::unscored`] entries, until `list` holds `take`
/// entries or the pool is spent. `v` and every id already in `list`
/// are skipped, so the list stays self-free and duplicate-free.
///
/// The draw is a partial Fisher–Yates shuffle: draw `i` swaps a
/// uniform pick from `pool[i..]` into `pool[i]`. A call therefore
/// costs one draw per accepted or skipped id — at most `take + 1`
/// when `list` starts empty — never `pool.len()`. Callers keep one
/// pool for every vertex: a partial shuffle is uniform from any
/// starting order, so reusing the permuted pool keeps each draw
/// uniform while sparing the O(n) rebuild.
///
/// ```
/// use knn_graph::sample::draw_unscored;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut pool: Vec<u32> = (0..100).collect();
/// let mut list = Vec::new();
/// draw_unscored(&mut pool, 7, 5, &mut StdRng::seed_from_u64(1), &mut list);
/// assert_eq!(list.len(), 5);
/// assert!(list.iter().all(|nb| nb.id.raw() != 7 && nb.is_unscored()));
/// ```
pub fn draw_unscored<R: Rng>(
    pool: &mut [u32],
    v: u32,
    take: usize,
    rng: &mut R,
    list: &mut Vec<Neighbor>,
) {
    // Draws from one pass are distinct; only entries that were in the
    // list before this call can collide with them.
    let prior = list.len();
    for i in 0..pool.len() {
        if list.len() >= take {
            break;
        }
        let j = rng.random_range(i..pool.len());
        pool.swap(i, j);
        let c = pool[i];
        if c != v && !list[..prior].iter().any(|nb| nb.id.raw() == c) {
            list.push(Neighbor::unscored(UserId::new(c)));
        }
    }
}
