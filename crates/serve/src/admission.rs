//! Admission control for the update ingest queue.
//!
//! The paper's pipeline assumes a cooperative client; a production
//! serve layer cannot. [`AdmissionConfig`] bounds how many accepted
//! deltas may sit between [`submit`](crate::KnnService::submit_update)
//! and the engine's durable phase-5 log, so a client storm (or a
//! stalled drain — see the circuit breaker in [`crate::BreakerConfig`])
//! turns into **typed, bounded failure** instead of unbounded queue
//! growth.
//!
//! Admission only gates *entry* to the queue. An update accepted with
//! `Ok` keeps the full durability guarantee (applied, parked durable,
//! or returned at shutdown — never silently dropped). The one
//! exception is *lossless* coalescing: a queued delta may be discarded
//! when a later queued `Replace`/`Clear` for the same user supersedes
//! it entirely, which leaves the user's final profile unchanged.

use std::time::Duration;

/// What a submit does when it finds the ingest queue full (after
/// coalescing could not free space).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum OverloadPolicy {
    /// Fail fast with [`ServeError::Overloaded`](crate::ServeError) —
    /// the error carries a `retry_after_hint` so closed-loop clients
    /// can pace themselves.
    Reject,
    /// Block the submitting thread until space frees up, at most
    /// `deadline` — then fail with
    /// [`ServeError::Overloaded`](crate::ServeError). Blocking applies
    /// backpressure to the producer instead of the caller's retry
    /// loop; the deadline keeps the wait bounded even if the drain
    /// side is wedged.
    Block {
        /// Longest a submit may wait for queue space.
        deadline: Duration,
    },
}

/// Capacity and overload policy of the update ingest queue.
///
/// The default is fully open (no capacity bounds) — the pre-admission
/// behavior. Production deployments should set [`capacity`] to a value
/// sized to the drain cadence (one refinement pass drains everything
/// queued, so capacity ≈ tolerated submit burst per pass).
///
/// [`capacity`]: AdmissionConfig::capacity
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionConfig {
    /// Global bound on pending (accepted but not yet drained) deltas.
    /// `None` is unbounded. A configured value is clamped to ≥ 1.
    pub capacity: Option<usize>,
    /// Per-user bound on pending deltas. `None` is unbounded. A
    /// configured value is clamped to ≥ 1.
    pub per_user_capacity: Option<usize>,
    /// What to do when the queue is full and shedding freed nothing.
    pub policy: OverloadPolicy,
    /// Fraction of `capacity` (clamped to `0.0..=1.0`) above which a
    /// submitted `Replace`/`Clear` opportunistically coalesces the
    /// same user's earlier queued deltas (they are superseded, so
    /// dropping them is lossless). Below the watermark the queue keeps
    /// every delta — history can matter to observers of intermediate
    /// repaired epochs. At full capacity a whole-queue shed sweep
    /// additionally drops every delta superseded by a *later* queued
    /// `Replace`/`Clear`, regardless of user.
    pub shed_watermark: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            capacity: None,
            per_user_capacity: None,
            policy: OverloadPolicy::Reject,
            shed_watermark: 0.75,
        }
    }
}

impl AdmissionConfig {
    /// An unbounded queue (the default): every valid submit is
    /// accepted immediately.
    pub fn unbounded() -> Self {
        AdmissionConfig::default()
    }

    /// A bounded queue that rejects at `capacity` with
    /// [`OverloadPolicy::Reject`].
    pub fn bounded(capacity: usize) -> Self {
        AdmissionConfig {
            capacity: Some(capacity.max(1)),
            ..AdmissionConfig::default()
        }
    }

    /// Sets the overload policy.
    pub fn with_policy(mut self, policy: OverloadPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the shed watermark (clamped to `0.0..=1.0` on use).
    pub fn with_shed_watermark(mut self, watermark: f64) -> Self {
        self.shed_watermark = watermark;
        self
    }

    /// The queue length at which opportunistic coalescing starts
    /// (usize::MAX when unbounded — coalescing then never triggers on
    /// the watermark, only the per-user bound can).
    pub(crate) fn watermark_len(&self) -> usize {
        match self.capacity {
            Some(cap) => {
                let cap = cap.max(1);
                let w = self.shed_watermark.clamp(0.0, 1.0);
                ((cap as f64 * w).floor() as usize).min(cap)
            }
            None => usize::MAX,
        }
    }

    /// The effective global capacity (clamped to ≥ 1 when set).
    pub(crate) fn capacity_len(&self) -> usize {
        self.capacity.map_or(usize::MAX, |c| c.max(1))
    }

    /// The effective per-user capacity (clamped to ≥ 1 when set).
    pub(crate) fn per_user_len(&self) -> usize {
        self.per_user_capacity.map_or(usize::MAX, |c| c.max(1))
    }
}
