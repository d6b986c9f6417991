//! Baselines and quality metrics for out-of-core KNN.
//!
//! Two comparators frame the engine's evaluation:
//!
//! * [`brute_force`] — exact KNN by exhaustive pairwise scoring
//!   (multithreaded); the ground truth for recall measurements.
//! * [`nn_descent`] — the in-memory NN-Descent algorithm of Dong,
//!   Moses & Li (WWW 2011), the paper's reference \[1\] and the
//!   algorithm whose iteration the out-of-core engine externalizes.
//!
//! [`recall`] quantifies result quality against the brute-force truth.

#![warn(unreachable_pub, missing_docs)]

pub mod brute_force;
pub mod nn_descent;
pub mod recall;

pub use brute_force::brute_force_knn;
pub use nn_descent::{NnDescent, NnDescentConfig, NnDescentOutcome};
pub use recall::{recall_at_k, RecallReport};
