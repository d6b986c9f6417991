//! Profile and similarity substrate for out-of-core KNN.
//!
//! The Middleware'14 engine is agnostic to what a "profile" is: it only
//! ever asks for `sim(s, d)` between two user profiles. This crate
//! supplies that abstraction:
//!
//! * [`Profile`] — a sorted sparse vector (item → weight), the common
//!   representation for rating vectors, term sets, and tag sets;
//! * [`Similarity`] / [`Measure`] — the similarity kernels (cosine,
//!   Jaccard, weighted Jaccard, overlap, common-items, Pearson);
//! * [`ProfileStats`] / [`BoundSketch`] — one-pass per-profile
//!   aggregates and block sketches, powering the O(1)
//!   [`Measure::upper_bound_ref`] score ceilings used for top-K
//!   candidate pruning;
//! * [`ProfileArena`] / [`PreparedRef`] — a partition's profiles as
//!   one CSR allocation with item ids and weights in separate columns,
//!   and the borrowed view of one row (or of any profile's entries,
//!   via [`PreparedRef::new`]); [`Measure::score_ref`] is the
//!   single-pair entry point over views (a two-pointer merge,
//!   bit-identical to [`Similarity::score`]);
//! * [`RowKernel`] — the 1×N kernel: a source row loaded once into an
//!   L1-resident probe, then any number of candidate rows scored
//!   against it by a walk over their id columns alone, bit-identical
//!   to [`Measure::score_ref`] for every measure — phase 4's hot path;
//! * [`ProfileStore`] — an in-memory profile table with byte
//!   accounting, whose clones share unwritten profiles (the serving
//!   layer clones it once per published update);
//! * [`ProfileDelta`] — the update objects queued during an iteration
//!   and applied lazily in phase 5;
//! * [`generators`] — synthetic workloads with planted similarity
//!   structure, standing in for the proprietary recommender data the
//!   paper's setting assumes.
//!
//! ```
//! use knn_sim::{Measure, Profile, Similarity};
//!
//! let a = Profile::from_unsorted_pairs(vec![(1, 2.0), (2, 1.0)]).unwrap();
//! let b = Profile::from_unsorted_pairs(vec![(2, 1.0), (3, 4.0)]).unwrap();
//! let sim = Measure::Cosine.score(&a, &b);
//! assert!(sim > 0.0 && sim < 1.0);
//! ```

#![warn(unreachable_pub, missing_docs)]

pub mod arena;
pub mod delta;
mod error;
pub mod generators;
pub mod prepared;
pub mod profile;
pub mod row;
pub mod similarity;
pub mod store;
pub mod tfidf;

pub use arena::{PreparedRef, ProfileArena, ProfileArenaBuilder};
pub use delta::{DeltaOp, ProfileDelta};
pub use error::ProfileError;
pub use prepared::{BoundSketch, ProfileStats, BLOCK_SHIFT, SKETCH_BLOCKS};
pub use profile::{ItemId, Profile};
pub use row::RowKernel;
pub use similarity::{Entries, Measure, Similarity};
pub use store::ProfileStore;
