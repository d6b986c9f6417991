//! Circuit breaker for the engine's durable update-log path.
//!
//! `queue_all` already parks deltas that the [`StorageBackend`] refuses
//! and retries them on the next pass — correct, but a backend that
//! keeps flapping turns every drain cycle into a burst of doomed
//! `append_updates` calls. The breaker throttles that: consecutive
//! all-fail passes open it for a capped, exponentially growing,
//! jittered interval during which the refinement loop skips the
//! drain/queue step entirely (queries and iteration keep running; with
//! bounded admission the backlog turns into backpressure on
//! submitters). One successful append closes it again.
//!
//! [`StorageBackend`]: knn_store::StorageBackend

use std::time::{Duration, Instant};

/// Backoff schedule of the durable-path circuit breaker.
///
/// After the `n`-th consecutive failed queueing pass the breaker opens
/// for `min(cap, base · 2^(n-1))`, scaled by a deterministic jitter in
/// `[0.75, 1.25)` to decorrelate retry storms across services sharing
/// a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Open interval after the first failed pass.
    pub base: Duration,
    /// Upper bound on the open interval.
    pub cap: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            base: Duration::from_millis(10),
            cap: Duration::from_secs(1),
        }
    }
}

impl BreakerConfig {
    /// The open interval after `consecutive` failed passes (≥ 1),
    /// before jitter.
    pub(crate) fn backoff(&self, consecutive: u32) -> Duration {
        let exp = consecutive.saturating_sub(1).min(32);
        self.base
            .saturating_mul(1u32.checked_shl(exp).unwrap_or(u32::MAX))
            .min(self.cap)
    }
}

/// Breaker state, owned by the refinement loop (not shared — the loop
/// is the only writer of the durable path). Times flow in through
/// `now` parameters so unit tests need no sleeping.
#[derive(Debug)]
pub(crate) struct Breaker {
    config: BreakerConfig,
    /// Consecutive queueing passes in which every attempt failed.
    consecutive_failures: u32,
    /// When the breaker last opened, and until when. `None` = closed.
    open: Option<(Instant, Instant)>,
    /// Total time spent open, accumulated at close/re-open.
    open_total: Duration,
    /// xorshift64 state for deterministic jitter.
    jitter_state: u64,
}

impl Breaker {
    pub(crate) fn new(config: BreakerConfig, jitter_seed: u64) -> Self {
        Breaker {
            config,
            consecutive_failures: 0,
            open: None,
            open_total: Duration::ZERO,
            // xorshift64 must not start at 0 (it would stay 0).
            jitter_state: jitter_seed | 1,
        }
    }

    fn jitter(&mut self) -> f64 {
        let mut x = self.jitter_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter_state = x;
        // Map the top 53 bits to [0.75, 1.25).
        0.75 + (x >> 11) as f64 / (1u64 << 53) as f64 * 0.5
    }

    /// How much longer the breaker is open at `now` (`None` = closed,
    /// drain/queue may proceed). An elapsed open interval half-closes:
    /// the next pass runs as a probe, and `record` decides what's next.
    pub(crate) fn remaining_open(&mut self, now: Instant) -> Option<Duration> {
        match self.open {
            Some((_, until)) if now < until => Some(until - now),
            Some((since, until)) => {
                self.open_total += until - since;
                self.open = None;
                None
            }
            None => None,
        }
    }

    /// Records the outcome of one queueing pass: `failures` attempts
    /// refused by the backend, out of `attempted` total. A pass that
    /// attempted nothing carries no signal and leaves the state alone.
    pub(crate) fn record(&mut self, now: Instant, attempted: usize, failures: usize) {
        if attempted == 0 {
            return;
        }
        if failures == 0 {
            self.consecutive_failures = 0;
            if let Some((since, until)) = self.open.take() {
                self.open_total += now.min(until).saturating_duration_since(since);
            }
            return;
        }
        // Any failure while at least one attempt was made: back off.
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if let Some((since, until)) = self.open.take() {
            self.open_total += now.min(until).saturating_duration_since(since);
        }
        let interval = self
            .config
            .backoff(self.consecutive_failures)
            .mul_f64(self.jitter());
        self.open = Some((now, now + interval));
    }

    /// Whether the breaker is open at `now`.
    pub(crate) fn is_open(&mut self, now: Instant) -> bool {
        self.remaining_open(now).is_some()
    }

    /// Total time spent open so far (including the current open
    /// interval, measured up to `now`).
    pub(crate) fn open_total(&self, now: Instant) -> Duration {
        match self.open {
            Some((since, until)) => {
                self.open_total + now.min(until).saturating_duration_since(since)
            }
            None => self.open_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(base_ms: u64, cap_ms: u64) -> Breaker {
        Breaker::new(
            BreakerConfig {
                base: Duration::from_millis(base_ms),
                cap: Duration::from_millis(cap_ms),
            },
            2014,
        )
    }

    #[test]
    fn closed_until_a_failing_pass() {
        let t0 = Instant::now();
        let mut b = breaker(10, 1000);
        assert!(!b.is_open(t0));
        b.record(t0, 5, 0);
        assert!(!b.is_open(t0));
        b.record(t0, 0, 0); // nothing attempted: no signal
        assert!(!b.is_open(t0));
    }

    #[test]
    fn opens_on_failure_and_backs_off_exponentially() {
        let t0 = Instant::now();
        let mut b = breaker(10, 10_000);
        b.record(t0, 3, 3);
        // Jitter is [0.75, 1.25): first interval in [7.5, 12.5) ms.
        let first = b.remaining_open(t0).expect("open after failure");
        assert!(first >= Duration::from_micros(7_500) && first < Duration::from_micros(12_500));
        // Second consecutive failure roughly doubles the interval.
        let t1 = t0 + Duration::from_millis(50);
        assert!(!b.is_open(t1), "interval elapsed");
        b.record(t1, 3, 3);
        let second = b.remaining_open(t1).expect("open again");
        assert!(second >= Duration::from_millis(15) && second < Duration::from_millis(25));
    }

    #[test]
    fn backoff_is_capped() {
        let t = Instant::now();
        let mut b = breaker(10, 40);
        for i in 0..20 {
            let now = t + Duration::from_secs(i);
            b.record(now, 1, 1);
        }
        let now = t + Duration::from_secs(19);
        let remaining = b.remaining_open(now).expect("open");
        assert!(remaining <= Duration::from_millis(50), "cap × max jitter");
    }

    #[test]
    fn success_closes_and_resets() {
        let t0 = Instant::now();
        let mut b = breaker(10, 10_000);
        b.record(t0, 1, 1);
        b.record(t0 + Duration::from_millis(100), 1, 1);
        b.record(t0 + Duration::from_millis(200), 1, 0);
        let t1 = t0 + Duration::from_millis(200);
        assert!(!b.is_open(t1));
        // After reset the next failure starts from `base` again.
        b.record(t1, 1, 1);
        let after_reset = b.remaining_open(t1).expect("open");
        assert!(after_reset < Duration::from_micros(12_500));
    }

    #[test]
    fn open_total_accumulates() {
        let t0 = Instant::now();
        let mut b = breaker(100, 100);
        b.record(t0, 1, 1);
        let opened_for = b.remaining_open(t0).expect("open");
        // Probe long after the interval elapsed: total = the interval.
        let t1 = t0 + Duration::from_secs(5);
        assert!(!b.is_open(t1));
        assert_eq!(b.open_total(t1), opened_for);
        // Mid-interval accounting counts elapsed-so-far.
        b.record(t1, 1, 1);
        let mid = t1 + Duration::from_millis(20);
        assert!(b.open_total(mid) >= opened_for + Duration::from_millis(20));
    }
}
