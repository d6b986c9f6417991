//! A vector whose clones share storage until written to.
//!
//! The serving layer publishes a new snapshot per repaired update: a
//! clone of the profile table with one profile changed. Cloning a
//! `Vec<Profile>` for that costs one allocation per user to copy and
//! one to free — a millisecond at 12 000 users, paid on the update's
//! way to visibility, and how long it takes moves with whatever else
//! the allocator and the memory system are doing. [`CowVec`] keeps the
//! elements in fixed-size chunks behind [`Arc`]s instead: a clone
//! shares every chunk, and the first write to a shared chunk copies
//! that chunk alone.

use std::sync::Arc;

/// Elements per chunk: a write copies at most this many, a clone
/// touches one reference count per chunk. A copied chunk's elements
/// are allocated together, so the chunk is also the run of neighbouring
/// elements whose heap blocks stay neighbours as writes churn the
/// table: at 16, a served table of 5 000 profiles took a scan a
/// quarter longer after a few thousand updates than one laid out
/// afresh; at 128 and at 512 it took the same, and copying 128
/// profiles per update is ~10 µs.
const CHUNK: usize = 128;

/// A `Vec<T>` in [`Arc`]-shared chunks of [`CHUNK`] elements: `clone`
/// shares them, [`get_mut`](CowVec::get_mut) copies a chunk only while
/// another clone still holds it. Equal contents are chunked equally, so
/// the derived `PartialEq` compares contents.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CowVec<T> {
    chunks: Vec<Arc<[T]>>,
    len: usize,
}

impl<T> Default for CowVec<T> {
    fn default() -> Self {
        CowVec {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T> FromIterator<T> for CowVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut items = iter.into_iter();
        let mut chunks = Vec::new();
        let mut len = 0;
        loop {
            let chunk: Arc<[T]> = items.by_ref().take(CHUNK).collect();
            if chunk.is_empty() {
                break;
            }
            len += chunk.len();
            chunks.push(chunk);
        }
        CowVec { chunks, len }
    }
}

impl<T> CowVec<T> {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Element `index`, or `None` when out of range.
    pub(crate) fn get(&self, index: usize) -> Option<&T> {
        self.chunks.get(index / CHUNK)?.get(index % CHUNK)
    }

    /// Iterates the elements in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks.iter().flat_map(|chunk| chunk.iter())
    }
}

impl<T: Clone> CowVec<T> {
    /// Mutable access to element `index`, first copying its chunk if a
    /// clone of this vector still shares it.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub(crate) fn get_mut(&mut self, index: usize) -> &mut T {
        &mut Arc::make_mut(&mut self.chunks[index / CHUNK])[index % CHUNK]
    }
}

impl<T> std::ops::Index<usize> for CowVec<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        &self.chunks[index / CHUNK][index % CHUNK]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_indexes_and_iterates_across_chunk_boundaries() {
        for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5] {
            let v: CowVec<usize> = (0..n).collect();
            assert_eq!(v.len(), n);
            assert!(v.iter().copied().eq(0..n));
            assert!((0..n).all(|i| v[i] == i && v.get(i) == Some(&i)));
            assert_eq!(v.get(n), None);
        }
    }

    #[test]
    fn a_write_copies_one_chunk_and_leaves_the_clone_alone() {
        let mut v: CowVec<Vec<u32>> = (0..4 * CHUNK as u32).map(|i| vec![i]).collect();
        let published = v.clone();
        v.get_mut(CHUNK + 1).push(7);
        assert_eq!(v[CHUNK + 1], [CHUNK as u32 + 1, 7]);
        assert_eq!(published[CHUNK + 1], [CHUNK as u32 + 1]);
        assert_ne!(v, published);
        let shared = |i: usize| Arc::ptr_eq(&v.chunks[i], &published.chunks[i]);
        assert!(shared(0) && !shared(1) && shared(2) && shared(3));
        // Once the clone is gone the chunk is written in place.
        drop(published);
        let before = v.chunks[2].as_ptr();
        v.get_mut(2 * CHUNK).push(1);
        assert_eq!(v.chunks[2].as_ptr(), before);
    }
}
