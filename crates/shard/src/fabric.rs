//! The exchange fabric: how foreign tuple runs travel between shards.
//!
//! Phase 2's exchange step produces
//! [`ForeignPayload`]s — encoded TuplesV2 runs destined for another
//! shard's buckets. The [`ExchangeFabric`] trait is the transport
//! seam: the in-process [`ChannelFabric`] moves payloads over
//! `std::sync::mpsc` channels today, and a network transport maps onto
//! the same two calls (`send` → a framed stream write to the peer,
//! `drain` → the peer's receive queue at its merge barrier) without
//! touching the engine. The contract a transport must keep is
//! **per-destination FIFO**: payloads from one sender arrive in send
//! order, because arrival order names the exchange streams
//! (`StreamId::ExchangeRun(i, j, seq)`) and the determinism proof
//! leans on that naming being reproducible.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;

use knn_core::tuple_table::ForeignPayload;

/// Transport abstraction for cross-shard tuple exchange.
///
/// `send` may be called from any thread; `drain` returns everything
/// delivered to `shard` so far, in per-sender FIFO order. The driver
/// guarantees all sends of an iteration complete before the owning
/// shard drains (an explicit barrier between the scan and merge
/// halves of phase 2), so a transport needs no flow control beyond
/// buffering one iteration's payloads.
pub trait ExchangeFabric: Send + Sync {
    /// Delivers `payload` to shard `to`.
    fn send(&self, to: u32, payload: ForeignPayload);

    /// Removes and returns everything delivered to `shard`.
    fn drain(&self, shard: u32) -> Vec<ForeignPayload>;
}

/// The in-process fabric: one mpsc channel per destination shard.
#[derive(Debug)]
pub struct ChannelFabric {
    lanes: Vec<Lane>,
}

#[derive(Debug)]
struct Lane {
    tx: Mutex<Sender<ForeignPayload>>,
    rx: Mutex<Receiver<ForeignPayload>>,
}

impl ChannelFabric {
    /// A fabric connecting `num_shards` shards.
    pub fn new(num_shards: usize) -> Self {
        let lanes = (0..num_shards)
            .map(|_| {
                let (tx, rx) = channel();
                Lane {
                    tx: Mutex::new(tx),
                    rx: Mutex::new(rx),
                }
            })
            .collect();
        ChannelFabric { lanes }
    }
}

impl ExchangeFabric for ChannelFabric {
    fn send(&self, to: u32, payload: ForeignPayload) {
        self.lanes[to as usize]
            .tx
            .lock()
            .expect("fabric sender poisoned")
            .send(payload)
            .expect("fabric receiver outlives the fabric");
    }

    fn drain(&self, shard: u32) -> Vec<ForeignPayload> {
        self.lanes[shard as usize]
            .rx
            .lock()
            .expect("fabric receiver poisoned")
            .try_iter()
            .collect()
    }
}

/// Per-iteration exchange-volume counters, accounted by the sharded
/// phase-2 driver (deliberately **not** by
/// [`IoStats`](knn_store::IoStats): exchange volume is a shard-topology cost
/// that must stay off the storage meters for I/O totals to be
/// shard-count-invariant).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExchangeStats {
    /// Foreign payloads sent (staged blocks + re-encoded spill runs).
    pub payloads: u64,
    /// The subset of `payloads` that originated as spill runs.
    pub spill_payloads: u64,
    /// Tuples carried by all payloads.
    pub tuples: u64,
    /// Encoded payload bytes moved across shards.
    pub bytes: u64,
}

impl ExchangeStats {
    /// Accounts one outgoing payload.
    pub(crate) fn record(&mut self, payload: &ForeignPayload) {
        self.payloads += 1;
        self.spill_payloads += payload.from_spill as u64;
        self.tuples += payload.rows;
        self.bytes += payload.bytes.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(bucket: (u32, u32), tag: u8) -> ForeignPayload {
        ForeignPayload {
            bucket,
            from_spill: tag % 2 == 1,
            rows: tag as u64,
            bytes: vec![tag; 3],
        }
    }

    #[test]
    fn channel_fabric_is_fifo_per_destination() {
        let fabric = ChannelFabric::new(2);
        fabric.send(1, payload((0, 1), 1));
        fabric.send(1, payload((0, 2), 2));
        fabric.send(0, payload((3, 3), 3));
        let got = fabric.drain(1);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].bucket, (0, 1));
        assert_eq!(got[1].bucket, (0, 2));
        assert_eq!(fabric.drain(1), vec![]);
        assert_eq!(fabric.drain(0).len(), 1);
    }

    #[test]
    fn stats_account_payloads() {
        let mut stats = ExchangeStats::default();
        stats.record(&payload((0, 1), 1));
        stats.record(&payload((0, 2), 2));
        assert_eq!(stats.payloads, 2);
        assert_eq!(stats.spill_payloads, 1);
        assert_eq!(stats.tuples, 3);
        assert_eq!(stats.bytes, 6);
    }
}
