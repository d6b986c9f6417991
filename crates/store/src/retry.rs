//! Bounded, deterministic retries for transient storage errors.
//!
//! [`RetryBackend`] wraps any [`StorageBackend`] and re-issues
//! operations that fail with [`StoreError::Transient`] — the taxonomy's
//! only retryable class — under a [`RetryPolicy`]: capped exponential
//! backoff (`min(cap, base · 2^(n-1))`) scaled by deterministic
//! xorshift jitter in `[0.75, 1.25)`, the same shape the serve layer's
//! circuit breaker uses. Permanent errors (`Io`, `Corrupt`, …)
//! propagate immediately; a transient error that survives the attempt
//! budget propagates as-is so callers see the real failure.
//!
//! Every retry is counted on the wrapped backend's [`IoStats`] meter
//! (`retries`), which stays zero in fault-free runs — so the engine's
//! cross-backend / cross-shard equality contracts are unaffected.
//!
//! The transient contract is all-or-nothing: a [`StoreError::Transient`]
//! asserts the operation had no effect, which is what makes retrying
//! non-idempotent operations (log appends) safe.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::{IoSnapshot, IoStats, StorageBackend, StoreError, StreamId, WorkingDir};

/// The retry budget and backoff shape.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per operation (first try included). `1` disables
    /// retries.
    pub max_attempts: u32,
    /// Backoff before retry `n` (1-based): `min(cap, base · 2^(n-1))`,
    /// jittered.
    pub base: Duration,
    /// Ceiling on the un-jittered backoff.
    pub cap: Duration,
    /// Seed for the jitter stream — runs with equal seeds retry on an
    /// identical schedule.
    pub seed: u64,
}

impl RetryPolicy {
    /// The engine default: 4 attempts, 2 ms base, 50 ms cap.
    pub fn from_seed(seed: u64) -> Self {
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(50),
            seed,
        }
    }
}

fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A [`StorageBackend`] decorator that retries transient failures.
///
/// Everything else — stats, names, paths, the working directory —
/// forwards to the wrapped backend, so installing the decorator is
/// invisible to metering and to code that inspects the backend.
#[derive(Debug)]
pub struct RetryBackend {
    inner: Arc<dyn StorageBackend>,
    policy: RetryPolicy,
    jitter: AtomicU64,
    #[allow(clippy::type_complexity)]
    sleep: fn(Duration),
}

impl RetryBackend {
    /// Wraps `inner` under `policy`.
    pub fn new(inner: Arc<dyn StorageBackend>, policy: RetryPolicy) -> Self {
        let jitter = AtomicU64::new(policy.seed | 1); // xorshift needs a nonzero state
        RetryBackend {
            inner,
            policy,
            jitter,
            sleep: std::thread::sleep,
        }
    }

    /// Like [`RetryBackend::new`], but backoffs invoke `sleep` instead
    /// of blocking the thread — for tests that want zero wall-clock.
    pub fn with_sleep(
        inner: Arc<dyn StorageBackend>,
        policy: RetryPolicy,
        sleep: fn(Duration),
    ) -> Self {
        let mut this = Self::new(inner, policy);
        this.sleep = sleep;
        this
    }

    /// The backoff before 1-based retry `n`: capped exponential scaled
    /// by a jitter factor in `[0.75, 1.25)` drawn from the seeded
    /// xorshift stream.
    fn backoff(&self, n: u32) -> Duration {
        let exp = self
            .policy
            .base
            .saturating_mul(1u32 << (n - 1).min(20))
            .min(self.policy.cap);
        let mut state = self.jitter.load(Ordering::Relaxed);
        let draw = xorshift64(&mut state);
        self.jitter.store(state, Ordering::Relaxed);
        let unit = (draw >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        exp.mul_f64(0.75 + unit * 0.5)
    }

    fn with_retry<T>(&self, op: impl Fn() -> Result<T, StoreError>) -> Result<T, StoreError> {
        let mut attempt = 1u32;
        loop {
            match op() {
                Err(e) if e.is_transient() && attempt < self.policy.max_attempts => {
                    self.inner.stats().record_retry();
                    (self.sleep)(self.backoff(attempt));
                    attempt += 1;
                }
                other => return other,
            }
        }
    }
}

impl StorageBackend for RetryBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn stats(&self) -> &Arc<IoStats> {
        self.inner.stats()
    }

    fn io_snapshot(&self) -> IoSnapshot {
        self.inner.io_snapshot()
    }

    fn read(&self, stream: StreamId) -> Result<Vec<u8>, StoreError> {
        self.with_retry(|| self.inner.read(stream))
    }

    fn read_chunk(&self, stream: StreamId, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
        self.with_retry(|| self.inner.read_chunk(stream, offset, len))
    }

    fn write(&self, stream: StreamId, payload: &[u8]) -> Result<(), StoreError> {
        self.with_retry(|| self.inner.write(stream, payload))
    }

    fn write_raw(&self, stream: StreamId, framed: &[u8]) -> Result<(), StoreError> {
        self.with_retry(|| self.inner.write_raw(stream, framed))
    }

    fn copy_stream(&self, from: StreamId, to: StreamId) -> Result<(), StoreError> {
        self.with_retry(|| self.inner.copy_stream(from, to))
    }

    fn delete(&self, stream: StreamId) -> Result<(), StoreError> {
        self.with_retry(|| self.inner.delete(stream))
    }

    fn exists(&self, stream: StreamId) -> bool {
        self.inner.exists(stream)
    }

    fn list(&self) -> Result<Vec<StreamId>, StoreError> {
        self.with_retry(|| self.inner.list())
    }

    fn clear_tuples(&self) -> Result<(), StoreError> {
        self.with_retry(|| self.inner.clear_tuples())
    }

    fn append_updates(&self, bytes: &[u8]) -> Result<(), StoreError> {
        self.with_retry(|| self.inner.append_updates(bytes))
    }

    fn read_updates(&self) -> Result<Vec<u8>, StoreError> {
        self.with_retry(|| self.inner.read_updates())
    }

    fn truncate_updates(&self) -> Result<(), StoreError> {
        self.with_retry(|| self.inner.truncate_updates())
    }

    fn repair_update_log(&self) -> Result<Option<String>, StoreError> {
        self.with_retry(|| self.inner.repair_update_log())
    }

    fn storage_usage(&self) -> Result<u64, StoreError> {
        self.with_retry(|| self.inner.storage_usage())
    }

    fn describe(&self, stream: StreamId) -> PathBuf {
        self.inner.describe(stream)
    }

    fn working_dir(&self) -> Option<&WorkingDir> {
        self.inner.working_dir()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{self, MemBackend};
    use crate::fault::{FaultBackend, FaultKind, FaultPlan};

    fn no_sleep(_: Duration) {}

    fn policy() -> RetryPolicy {
        RetryPolicy::from_seed(7)
    }

    #[test]
    fn transient_errors_are_retried_to_success_and_counted() {
        let inner = Arc::new(MemBackend::new());
        backend::write_meta(inner.as_ref(), &[(1, 1)]).unwrap();
        let fault = Arc::new(FaultBackend::new(inner.clone()));
        fault.set_plan(FaultPlan {
            fail_at: 0,
            kind: FaultKind::Transient { times: 2 },
            seed: 1,
        });
        fault.arm();
        let retry = RetryBackend::with_sleep(fault, policy(), no_sleep);
        assert_eq!(backend::read_meta(&retry).unwrap(), vec![(1, 1)]);
        assert_eq!(inner.stats().snapshot().retries, 2);
    }

    #[test]
    fn the_attempt_budget_is_bounded() {
        let inner = Arc::new(MemBackend::new());
        backend::write_meta(inner.as_ref(), &[(1, 1)]).unwrap();
        let fault = Arc::new(FaultBackend::new(inner.clone()));
        fault.set_plan(FaultPlan {
            fail_at: 0,
            kind: FaultKind::Transient { times: 100 },
            seed: 1,
        });
        fault.arm();
        let retry = RetryBackend::with_sleep(fault, policy(), no_sleep);
        let err = retry.read(StreamId::Meta).unwrap_err();
        assert!(err.is_transient(), "the real failure propagates: {err}");
        // max_attempts = 4 → 3 retries, then give up.
        assert_eq!(inner.stats().snapshot().retries, 3);
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let inner = Arc::new(MemBackend::new());
        let retry = RetryBackend::with_sleep(inner.clone(), policy(), no_sleep);
        let err = retry.read(StreamId::Meta).unwrap_err(); // NotFound → Io
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        assert_eq!(inner.stats().snapshot().retries, 0);
    }

    #[test]
    fn backoff_is_capped_jittered_and_deterministic() {
        let a = RetryBackend::with_sleep(Arc::new(MemBackend::new()), policy(), no_sleep);
        let b = RetryBackend::with_sleep(Arc::new(MemBackend::new()), policy(), no_sleep);
        for n in 1..=8 {
            let d = a.backoff(n);
            assert_eq!(d, b.backoff(n), "equal seeds, equal schedule");
            // Jitter keeps every delay within ±25% of the capped curve.
            let exp = policy().base.saturating_mul(1 << (n - 1)).min(policy().cap);
            assert!(
                d >= exp.mul_f64(0.75) && d < exp.mul_f64(1.25),
                "retry {n}: {d:?}"
            );
        }
        let c = RetryBackend::with_sleep(
            Arc::new(MemBackend::new()),
            RetryPolicy {
                seed: 99,
                ..policy()
            },
            no_sleep,
        );
        assert_ne!(a.backoff(1), c.backoff(1), "different seeds jitter apart");
    }

    #[test]
    fn decorator_is_transparent_to_metering_and_identity() {
        let inner = Arc::new(MemBackend::new());
        let retry = RetryBackend::with_sleep(inner.clone(), policy(), no_sleep);
        backend::write_meta(&retry, &[(1, 5)]).unwrap();
        assert_eq!(retry.name(), "mem");
        assert!(Arc::ptr_eq(retry.stats(), inner.stats()));
        assert_eq!(
            retry.storage_usage().unwrap(),
            inner.storage_usage().unwrap()
        );
    }
}
