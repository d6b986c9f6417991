//! Tables whose clones share storage until written to.
//!
//! The serving layer publishes a new snapshot per exact iteration and
//! per repaired update: the KNN graph `G(t)` and the profile table
//! `P(t)` as they stand, with a few rows changed since the last one.
//! Copying either table for that costs time proportional to its size,
//! paid under the lock every publish shares, on the update's way to
//! visibility. [`CowTable`] keeps the rows in fixed-size pages behind
//! [`Arc`]s instead: a clone shares every page (one reference count
//! each), and the first write to a shared page copies that page alone
//! — one allocation and one `memcpy`.
//!
//! Both served tables are `CowTable`s; each picks its page size:
//!
//! * [`KnnGraph`](crate::KnnGraph) keeps 32 rows of `K` fixed-stride
//!   neighbor slots per page, plus a table of their lengths. A repair
//!   writes about fifty rows scattered over the graph, so the page is
//!   the unit it copies: at 12 000 × 24, a clone plus one repair's
//!   writes took 0.016 ms with 32-row pages and 0.053 ms with 128-row
//!   ones, against 1.29 ms for the nested `Vec<Vec<_>>` it replaced.
//!   The slots are plain values, so a copied page is as contiguous as
//!   a fresh one and lookups do not slow down as writes churn it
//!   (nested rows chunked by 16 cost 15–25 % on lookups). End to end,
//!   over four interleaved rounds of the `batch-mem-cosine` and
//!   `serve-read-mostly` workloads, 32 rows gave the lowest median
//!   update-to-visibility latency (0.78 and 0.53 ms, against 0.80 /
//!   0.55 at 16, 0.84 / 0.56 at 64 and 0.87 / 0.61 at 128), with
//!   lookup latency the same at every size within the runs' spread.
//! * `knn_sim::ProfileStore` keeps 128 profiles per page. A profile owns a heap block, and a
//!   copied page's blocks are allocated together, so the page is also
//!   the run of neighbouring profiles whose blocks stay neighbours as
//!   writes churn the table: at 16, a served table of 5 000 profiles
//!   took a scan a quarter longer after a few thousand updates than
//!   one laid out afresh; at 128 and 512 it took the same, and copying
//!   128 profiles per update is ~10 µs.

use std::sync::Arc;

/// `len` rows of `width` elements each, in [`Arc`]-shared pages of
/// `ROWS` rows: `clone` shares the pages, [`row_mut`](CowTable::row_mut)
/// copies a page only while another clone still holds it. Equal
/// contents are paged equally, so the derived `PartialEq` compares
/// contents.
///
/// ```
/// use knn_graph::cow::CowTable;
///
/// let mut table: CowTable<u32, 4> = CowTable::filled(10, 2, 0);
/// let published = table.clone();
/// table.row_mut(5).copy_from_slice(&[7, 8]);
/// assert_eq!(table.row(5), [7, 8]);
/// assert_eq!(published.row(5), [0, 0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CowTable<T, const ROWS: usize> {
    pages: Vec<Arc<[T]>>,
    len: usize,
    width: usize,
}

impl<T, const ROWS: usize> Default for CowTable<T, ROWS> {
    fn default() -> Self {
        CowTable {
            pages: Vec::new(),
            len: 0,
            width: 1,
        }
    }
}

/// Collects a table of one-element rows.
impl<T, const ROWS: usize> FromIterator<T> for CowTable<T, ROWS> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut items = iter.into_iter();
        let mut pages = Vec::new();
        let mut len = 0;
        loop {
            let page: Arc<[T]> = items.by_ref().take(ROWS).collect();
            if page.is_empty() {
                break;
            }
            len += page.len();
            pages.push(page);
        }
        CowTable {
            pages,
            len,
            width: 1,
        }
    }
}

impl<T: Clone, const ROWS: usize> CowTable<T, ROWS> {
    /// A table of `len` rows of `width` copies of `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn filled(len: usize, width: usize, fill: T) -> Self {
        assert!(width > 0, "rows must be at least one element wide");
        let pages = (0..len)
            .step_by(ROWS)
            .map(|first| vec![fill.clone(); (len - first).min(ROWS) * width].into())
            .collect();
        CowTable { pages, len, width }
    }

    /// Row `r`, writable, first copying its page if a clone of this
    /// table still shares it.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        let at = (r % ROWS) * self.width;
        &mut Arc::make_mut(&mut self.pages[r / ROWS])[at..at + self.width]
    }
}

impl<T, const ROWS: usize> CowTable<T, ROWS> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row(&self, r: usize) -> &[T] {
        let at = (r % ROWS) * self.width;
        &self.pages[r / ROWS][at..at + self.width]
    }

    /// Iterates every element, row by row.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.pages.iter().flat_map(|page| page.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROWS: usize = 8;

    #[test]
    fn collects_indexes_and_iterates_across_chunk_boundaries() {
        for n in [0, 1, ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 5] {
            let v: CowTable<usize, ROWS> = (0..n).collect();
            assert_eq!(v.len(), n);
            assert!(v.iter().copied().eq(0..n));
            assert!((0..n).all(|i| v.row(i) == [i]));
            let filled: CowTable<u8, ROWS> = CowTable::filled(n, 3, 1);
            assert_eq!(filled.len(), n);
            assert_eq!(filled.iter().count(), 3 * n);
        }
    }

    #[test]
    fn out_of_range_rows_panic_even_inside_the_last_page() {
        let v: CowTable<u8, ROWS> = CowTable::filled(ROWS + 2, 2, 0);
        for r in [ROWS + 2, ROWS + 3, 2 * ROWS, 5 * ROWS] {
            assert!(
                std::panic::catch_unwind(|| v.row(r).len()).is_err(),
                "row {r}"
            );
        }
    }

    #[test]
    fn a_write_copies_one_chunk_and_leaves_the_clone_alone() {
        let mut v: CowTable<Vec<u32>, ROWS> = (0..4 * ROWS as u32).map(|i| vec![i]).collect();
        let published = v.clone();
        v.row_mut(ROWS + 1)[0].push(7);
        assert_eq!(v.row(ROWS + 1)[0], [ROWS as u32 + 1, 7]);
        assert_eq!(published.row(ROWS + 1)[0], [ROWS as u32 + 1]);
        assert_ne!(v, published);
        let shared = |i: usize| Arc::ptr_eq(&v.pages[i], &published.pages[i]);
        assert!(shared(0) && !shared(1) && shared(2) && shared(3));
        // Once the clone is gone the page is written in place.
        drop(published);
        let before = v.pages[2].as_ptr();
        v.row_mut(2 * ROWS)[0].push(1);
        assert_eq!(v.pages[2].as_ptr(), before);
    }
}
