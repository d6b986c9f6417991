//! The load generator: one reader thread and one writer thread — never
//! more, the host has two cores — driving either service front-end.
//!
//! A closed loop sends the next operation when the last one completes;
//! an open loop sends on a fixed schedule and times each operation from
//! when it was *due*, so a stall is charged to every request it delays.
//! The reader is always a closed loop (see `spec::Workload::writer` for
//! why); the writer is either.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use knn_graph::{Neighbor, UserId};
use knn_serve::{
    BatchNeighbors, KnnService, RefineHandle, ServeError, ServiceStats, ShardedKnnService,
    ShardedRefineHandle,
};
use knn_sim::{ItemId, Profile, ProfileDelta, ProfileStore};

use crate::spec::{Pace, ADHOC_EVERY, BATCH, BLOCK_EVERY, BLOCK_LEN};
use crate::trace::{Span, Tracer, LOOKUP_SAMPLING};

/// Item ids far above any generated one: an update that sets one is
/// recognisable in a served profile by that entry alone.
pub const FRESH_ITEM_BASE: u32 = 10_000_000;

/// How long the drain may wait for accepted updates to show.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(60);

/// splitmix64: the generator's only randomness, seeded per thread.
#[derive(Debug, Clone)]
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `count` user ids drawn Zipf(1) over a seeded permutation of the
/// users: a few users are asked for again and again, most rarely.
pub fn zipf_users(num_users: usize, count: usize, rng: &mut Rng) -> Vec<UserId> {
    let mut by_rank: Vec<u32> = (0..num_users as u32).collect();
    for i in (1..by_rank.len()).rev() {
        by_rank.swap(i, rng.below(i + 1));
    }
    let mut cumulative = Vec::with_capacity(num_users);
    let mut acc = 0.0f64;
    for rank in 1..=num_users {
        acc += 1.0 / rank as f64;
        cumulative.push(acc);
    }
    (0..count)
        .map(|_| {
            let x = rng.unit() * acc;
            let rank = cumulative.partition_point(|&c| c <= x).min(num_users - 1);
            UserId::new(by_rank[rank])
        })
        .collect()
}

/// When operation `index` of an open loop at `rate` per second is due,
/// in nanoseconds after the loop's start.
pub fn due_ns(index: u64, rate: f64) -> u64 {
    (index as f64 * 1e9 / rate) as u64
}

/// How late an operation due at `due_ns` went out at `sent_ns`.
pub fn lateness_ns(due_ns: u64, sent_ns: u64) -> u64 {
    sent_ns.saturating_sub(due_ns)
}

/// Sleeps until `at`, waking early and spinning the rest so timer
/// slack does not become lateness: the kernel may add 50 us to a sleep
/// and the scheduler more, and with 80 us in hand half of an open
/// loop's operations went out late.
fn wait_until(at: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    loop {
        let now = Instant::now();
        if now >= at {
            return;
        }
        let gap = at - now;
        if gap > SPIN {
            std::thread::sleep(gap - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Either service front-end behind one set of calls.
#[derive(Debug, Clone)]
pub enum Service {
    Single(KnnService),
    Sharded(ShardedKnnService),
}

impl Service {
    fn neighbors(&self, user: UserId) -> Result<Vec<Neighbor>, ServeError> {
        match self {
            Service::Single(s) => s.neighbors(user),
            Service::Sharded(s) => s.neighbors(user),
        }
    }

    fn neighbors_many(&self, users: &[UserId]) -> Result<BatchNeighbors, ServeError> {
        match self {
            Service::Single(s) => s.neighbors_many(users),
            Service::Sharded(s) => s.neighbors_many(users),
        }
    }

    fn query_profile(&self, query: &Profile, k: usize) -> Result<Vec<Neighbor>, ServeError> {
        match self {
            Service::Single(s) => s.query_profile(query, k),
            Service::Sharded(s) => s.query_profile(query, k),
        }
    }

    fn submit(&self, delta: ProfileDelta) -> Result<(), ServeError> {
        match self {
            Service::Single(s) => s.submit_update(delta),
            Service::Sharded(s) => s.submit_update(delta),
        }
    }

    pub fn stats(&self) -> ServiceStats {
        match self {
            Service::Single(s) => s.stats(),
            Service::Sharded(s) => s.stats(),
        }
    }

    /// Updates whose visibility is followed at once. The single service
    /// exposes its snapshot, so every update is checked against it; the
    /// sharded one shows a profile only through `query_profile`, a scan
    /// per look, so a bounded number are followed there.
    fn track_limit(&self) -> usize {
        match self {
            Service::Single(_) => usize::MAX,
            Service::Sharded(_) => 64,
        }
    }
}

/// The control handle of either service.
#[derive(Debug)]
pub enum Handle {
    Single(RefineHandle),
    Sharded(ShardedRefineHandle),
}

/// One submitted update being followed until a served snapshot shows it.
#[derive(Debug, Clone)]
struct Mark {
    req: u64,
    user: UserId,
    item: ItemId,
    weight: f32,
    due: Instant,
}

/// Follows accepted updates into the served state.
struct Watcher<'a> {
    service: &'a Service,
    tracer: &'a Tracer,
    parent_span: u64,
    start: Instant,
    last_epoch: Option<u64>,
    outstanding: VecDeque<Mark>,
    /// (offset into the window in s, due → visible in ms).
    visible: Vec<(f64, f64)>,
    /// Of those, how many were first seen in a repaired snapshot.
    via_repair: u64,
    spans: Vec<Span>,
}

impl Watcher<'_> {
    fn shown(&mut self, mark: &Mark, now: Instant, repaired: bool) {
        let offset = mark.due.saturating_duration_since(self.start).as_secs_f64();
        self.visible
            .push((offset, (now - mark.due).as_secs_f64() * 1e3));
        self.via_repair += repaired as u64;
        self.tracer.note(
            &mut self.spans,
            0,
            self.parent_span,
            mark.req,
            "update.visible",
            mark.due,
            now,
        );
    }

    /// Looks at the served state if it changed since the last look and
    /// retires every followed update it now shows.
    fn poll(&mut self) {
        if self.outstanding.is_empty() {
            return;
        }
        match self.service {
            Service::Single(s) => {
                let snapshot = s.snapshot();
                if self.last_epoch == Some(snapshot.epoch()) {
                    return;
                }
                self.last_epoch = Some(snapshot.epoch());
                let now = Instant::now();
                let profiles = snapshot.profiles();
                let mut kept = VecDeque::with_capacity(self.outstanding.len());
                for mark in std::mem::take(&mut self.outstanding) {
                    if profiles.get(mark.user).get(mark.item) == Some(mark.weight) {
                        self.shown(&mark, now, snapshot.repaired());
                    } else {
                        kept.push_back(mark);
                    }
                }
                self.outstanding = kept;
            }
            Service::Sharded(s) => {
                let epoch = s.stats().snapshot_epoch;
                if self.last_epoch == Some(epoch) {
                    return;
                }
                self.last_epoch = Some(epoch);
                // Only the followed user carries the fresh item, so it
                // tops a one-item query for it exactly when a served
                // snapshot holds the update. Updates show in the order
                // they were accepted: stop at the first that does not.
                while let Some(mark) = self.outstanding.front().cloned() {
                    let probe = Profile::from_sorted_pairs_unchecked(vec![(mark.item, 1.0)]);
                    let seen = s.query_profile(&probe, 1).is_ok_and(|top| {
                        top.first()
                            .is_some_and(|n| n.id == mark.user && n.sim > 0.0)
                    });
                    if !seen {
                        break;
                    }
                    self.outstanding.pop_front();
                    self.shown(&mark, Instant::now(), false);
                }
            }
        }
    }
}

/// Checks one answer row: at most `k` entries, best first, and — for a
/// stored user's row — not listing the user itself.
pub fn well_formed(row: &[Neighbor], k: usize, owner: Option<UserId>) -> bool {
    row.len() <= k
        && row.windows(2).all(|w| !w[1].beats(&w[0]))
        && owner.is_none_or(|u| row.iter().all(|n| n.id != u))
}

#[derive(Debug)]
pub struct ReaderPlan {
    pub k: usize,
    pub seed: u64,
    pub window: Duration,
    /// The profiles the service started from: ad-hoc queries are
    /// perturbed copies, and Zipf draws range over their users.
    pub profiles: Arc<ProfileStore>,
}

#[derive(Debug, Default)]
pub struct ReaderOut {
    /// (offset in s, sent → answered in µs) per `neighbors_many` request.
    pub lookups: Vec<(f64, f64)>,
    /// (offset in s, latency in ms) per `query_profile` request.
    pub adhoc: Vec<(f64, f64)>,
    /// ns per single `neighbors` call, one value per block.
    pub block_ns: Vec<f64>,
    pub requests: u64,
    /// Errored calls and malformed answers.
    pub failed: u64,
    pub batches: u64,
    pub degraded: u64,
    pub elapsed: Duration,
    pub spans: Vec<Span>,
}

pub fn run_reader(
    service: &Service,
    plan: &ReaderPlan,
    tracer: &Tracer,
    parent_span: u64,
) -> ReaderOut {
    let n = plan.profiles.num_users();
    let mut rng = Rng(plan.seed ^ 0xA11C_E5ED);
    // Drawn up front so the timed loop does no sampling work.
    let draws = zipf_users(n, BATCH * (1 << 14), &mut rng);
    let mut out = ReaderOut {
        lookups: Vec::with_capacity(1 << 21),
        ..ReaderOut::default()
    };
    let span_id = tracer.fresh_id();
    let start = Instant::now();
    let end = start + plan.window;
    let mut cursor = 0usize;
    let mut index = 0u64;
    loop {
        let sent = Instant::now();
        if sent >= end {
            break;
        }
        let offset = (sent - start).as_secs_f64();
        if index % ADHOC_EVERY == ADHOC_EVERY - 1 {
            // A profile nobody has asked about before: a stored one
            // with its first weight redrawn.
            let base = draws[cursor % draws.len()];
            cursor += 1;
            let mut query = plan.profiles.get(base).clone();
            if let Some(&(item, _)) = query.entries().first() {
                query.set(item, 0.5 + 4.0 * rng.unit() as f32);
            }
            let answer = service.query_profile(&query, plan.k);
            let done = Instant::now();
            out.adhoc.push((offset, (done - sent).as_secs_f64() * 1e3));
            out.failed += !answer.is_ok_and(|row| well_formed(&row, plan.k, None)) as u64;
            tracer.note(&mut out.spans, 0, span_id, 0, "request.adhoc", sent, done);
        } else if index % BLOCK_EVERY == BLOCK_EVERY / 2 {
            let mut bad = 0u64;
            for _ in 0..BLOCK_LEN {
                let user = draws[cursor % draws.len()];
                cursor += 1;
                let answer = service.neighbors(user);
                bad += !answer.is_ok_and(|row| well_formed(&row, plan.k, Some(user))) as u64;
            }
            let done = Instant::now();
            out.block_ns
                .push((done - sent).as_nanos() as f64 / BLOCK_LEN as f64);
            out.failed += (bad > 0) as u64;
            tracer.note(&mut out.spans, 0, span_id, 0, "request.block", sent, done);
        } else {
            let at = cursor % (draws.len() - BATCH);
            cursor += BATCH;
            let users = &draws[at..at + BATCH];
            let answer = service.neighbors_many(users);
            let done = Instant::now();
            out.lookups
                .push((offset, (done - sent).as_secs_f64() * 1e6));
            match answer {
                Ok(batch) => {
                    out.batches += 1;
                    out.degraded += batch.degraded as u64;
                    let ok = batch.results.len() == users.len()
                        && batch
                            .results
                            .iter()
                            .zip(users)
                            .all(|(row, &u)| well_formed(row, plan.k, Some(u)));
                    out.failed += !ok as u64;
                }
                Err(_) => out.failed += 1,
            }
            if index.is_multiple_of(LOOKUP_SAMPLING) {
                tracer.note(&mut out.spans, 0, span_id, 0, "request.lookup", sent, done);
            }
        }
        index += 1;
    }
    out.requests = index;
    out.elapsed = start.elapsed();
    tracer.note(
        &mut out.spans,
        span_id,
        parent_span,
        0,
        "load.reader",
        start,
        Instant::now(),
    );
    out
}

#[derive(Debug)]
pub struct WriterPlan {
    pub pace: Pace,
    pub seed: u64,
    pub window: Duration,
    pub num_users: usize,
}

#[derive(Debug, Default)]
pub struct WriterOut {
    /// Every accepted update, in acceptance order.
    pub accepted: Vec<(UserId, ItemId, f32)>,
    /// Updates whose submit was refused or errored and never retried to
    /// success (open loop: any rejection; closed loop: errors other
    /// than backpressure).
    pub failed: u64,
    /// Updates followed to visibility that never showed.
    pub never_visible: u64,
    /// Accepted `submit_update` call latency, µs.
    pub submit_us: Vec<f64>,
    /// (offset in s, due → visible in ms) per followed update.
    pub visible: Vec<(f64, f64)>,
    pub via_repair: u64,
    pub late_ms: Vec<f64>,
    /// Length of the submitting part (the window).
    pub storm: Duration,
    /// When the last followed update showed, after the window closed.
    pub all_visible_after: Duration,
    pub spans: Vec<Span>,
}

pub fn run_writer(
    service: &Service,
    plan: &WriterPlan,
    tracer: &Tracer,
    parent_span: u64,
) -> WriterOut {
    let mut rng = Rng(plan.seed ^ 0x5709_3A1B);
    let mut out = WriterOut::default();
    let span_id = tracer.fresh_id();
    let start = Instant::now();
    let end = start + plan.window;
    let mut watcher = Watcher {
        service,
        tracer,
        parent_span: span_id,
        start,
        last_epoch: None,
        outstanding: VecDeque::new(),
        visible: Vec::new(),
        via_repair: 0,
        spans: Vec::new(),
    };
    let limit = service.track_limit();
    let mut seq = 0u32;
    let mut index = 0u64;
    // The update on offer; a closed loop offers it again after
    // backpressure, so it outlives one pass of the loop.
    let mut offer: Option<(UserId, ItemId, f32)> = None;
    // The newest accepted update, while it is not being followed.
    let mut unfollowed_last: Option<Mark> = None;
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        let due = match plan.pace {
            Pace::Closed => now,
            Pace::Open(rate) => start + Duration::from_nanos(due_ns(index, rate)),
        };
        if due > now {
            // Not due yet: watch for visibility — closely while an
            // update is in flight, at most 1 ms apart otherwise.
            watcher.poll();
            let nap = if watcher.outstanding.is_empty() {
                Duration::from_micros(500)
            } else {
                Duration::from_micros(50)
            };
            let wake = due.min(end);
            if wake.saturating_duration_since(Instant::now()) > nap + Duration::from_micros(100) {
                std::thread::sleep(nap);
            } else {
                wait_until(wake);
            }
            continue;
        }
        let (user, item, weight) = *offer.get_or_insert_with(|| {
            (
                UserId::new(rng.below(plan.num_users) as u32),
                ItemId::new(FRESH_ITEM_BASE + seq),
                0.25 + (seq % 8) as f32 * 0.125,
            )
        });
        let sent = Instant::now();
        let result = service.submit(ProfileDelta::set(user, item, weight));
        let done = Instant::now();
        match result {
            Ok(()) => {
                out.accepted.push((user, item, weight));
                out.submit_us.push((done - sent).as_secs_f64() * 1e6);
                if let Pace::Open(rate) = plan.pace {
                    let sent_ns = (sent - start).as_nanos() as u64;
                    out.late_ms
                        .push(lateness_ns(due_ns(index, rate), sent_ns) as f64 / 1e6);
                }
                let mark = Mark {
                    req: tracer.fresh_id(),
                    user,
                    item,
                    weight,
                    due,
                };
                if watcher.outstanding.len() >= limit {
                    unfollowed_last = Some(mark);
                } else {
                    unfollowed_last = None;
                    tracer.note(
                        &mut watcher.spans,
                        0,
                        span_id,
                        mark.req,
                        "update.submit",
                        sent,
                        done,
                    );
                    watcher.outstanding.push_back(mark);
                }
            }
            // Backpressure is the closed loop's pacing signal: wait as
            // told and offer the same update again.
            Err(ServeError::Overloaded { retry_after_hint }) if plan.pace == Pace::Closed => {
                std::thread::sleep(retry_after_hint.min(Duration::from_millis(1)));
                watcher.poll();
                continue;
            }
            // An open loop's update that is turned away is lost, and so
            // is any update the service errors on.
            Err(_) => out.failed += 1,
        }
        offer = None;
        seq += 1;
        index += 1;
        watcher.poll();
    }
    out.storm = start.elapsed();

    // The window is closed: wait until everything followed — and, where
    // not every update is followed, the last one accepted, which the
    // queue's FIFO order puts behind all others — shows.
    watcher.outstanding.extend(unfollowed_last);
    let give_up = Instant::now() + VISIBLE_TIMEOUT;
    while !watcher.outstanding.is_empty() && Instant::now() < give_up {
        watcher.poll();
        std::thread::sleep(Duration::from_micros(200));
    }
    out.all_visible_after = end.elapsed();
    out.never_visible = watcher.outstanding.len() as u64;
    out.visible = std::mem::take(&mut watcher.visible);
    out.via_repair = watcher.via_repair;
    out.spans = std::mem::take(&mut watcher.spans);
    tracer.note(
        &mut out.spans,
        span_id,
        parent_span,
        0,
        "load.writer",
        start,
        Instant::now(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_schedule_is_evenly_spaced_from_the_start() {
        assert_eq!(due_ns(0, 50.0), 0);
        assert_eq!(due_ns(1, 50.0), 20_000_000);
        assert_eq!(due_ns(50, 50.0), 1_000_000_000);
        assert_eq!(due_ns(3, 2000.0), 1_500_000);
        // Dues never drift: the n-th is n periods from the start no
        // matter how late earlier ones ran.
        let period = due_ns(1, 2000.0);
        assert_eq!(due_ns(1_000_000, 2000.0), 1_000_000 * period);
    }

    #[test]
    fn lateness_is_charged_from_the_due_time_and_never_negative() {
        assert_eq!(lateness_ns(1_000, 1_250), 250);
        assert_eq!(lateness_ns(1_000, 1_000), 0);
        // Sent early (the spin woke a hair before): not negative.
        assert_eq!(lateness_ns(1_000, 990), 0);
        // A stall of 3 periods makes the next three requests late by
        // 3, 2 and 1 periods when they go out back to back.
        let period = due_ns(1, 1000.0);
        let stall_end = due_ns(3, 1000.0);
        let late: Vec<u64> = (0..3)
            .map(|i| lateness_ns(due_ns(i, 1000.0), stall_end))
            .collect();
        assert_eq!(late, [3 * period, 2 * period, period]);
    }

    #[test]
    fn zipf_draws_repeat_a_few_users_and_reach_many() {
        let mut rng = Rng(7);
        let draws = zipf_users(1_000, 20_000, &mut rng);
        assert!(draws.iter().all(|u| u.index() < 1_000));
        let mut hits = vec![0u32; 1_000];
        for u in &draws {
            hits[u.index()] += 1;
        }
        hits.sort_unstable_by(|a, b| b.cmp(a));
        // Zipf(1) over 1000: the top user draws ~13%, the top ten ~39%.
        assert!(hits[0] > 2_000, "{}", hits[0]);
        assert!(hits[..10].iter().sum::<u32>() > 6_500);
        assert!(hits.iter().filter(|&&h| h > 0).count() > 800);
        // Same seed, same draws.
        assert_eq!(draws, zipf_users(1_000, 20_000, &mut Rng(7)));
    }

    #[test]
    fn answers_are_checked_for_length_order_and_self_edges() {
        let row = vec![
            Neighbor::new(UserId::new(4), 0.9),
            Neighbor::new(UserId::new(2), 0.5),
            Neighbor::new(UserId::new(3), 0.5),
        ];
        assert!(well_formed(&row, 3, Some(UserId::new(1))));
        assert!(well_formed(&row, 3, None));
        assert!(!well_formed(&row, 2, None), "longer than K");
        assert!(!well_formed(&row, 3, Some(UserId::new(2))), "lists itself");
        let mut unsorted = row.clone();
        unsorted.swap(0, 1);
        assert!(!well_formed(&unsorted, 3, None));
        // Ties go to the lower id; the other way round is out of order.
        let mut tie_flipped = row;
        tie_flipped.swap(1, 2);
        assert!(!well_formed(&tie_flipped, 3, None));
        assert!(well_formed(&[], 3, Some(UserId::new(0))));
    }
}
