//! The delivery seam: where messages leave protocol-land.
//!
//! A [`Protocol`](crate::Protocol) is a pure per-node state machine — it
//! produces a message in `on_send` and consumes one in `on_receive`, and
//! everything in between is *transport*. This module names that boundary:
//! the [`Delivery`] trait is the contract a transport backend fulfils, and
//! [`RingDelivery`] is the deterministic simulator's implementation of it,
//! extracted from the `Simulator` round loop (the delay-bucket ring that
//! used to be a private field).
//!
//! The same trait is implemented by the real backends in `gr-transport`
//! (in-memory channels, UDP sockets), which is what lets one `Protocol`
//! implementation run unchanged over the simulator, over threads, and
//! over the network — with netsim acting as the *deterministic twin* of
//! the real runtime: same protocol code, same message types, swapped
//! delivery layer.
//!
//! Two drivers sit on top of this seam:
//!
//! * the [`Simulator`](crate::Simulator) round loop, which owns a
//!   `RingDelivery` and threads every message through the fault-injection
//!   pipeline between `take_slot` and `put_back`;
//! * the per-node drivers in `gr-reduction`/`gr-transport`, which call
//!   the trait methods directly (one endpoint per node, no global round).

use gr_topology::NodeId;

/// A transport backend as seen by a node driver: ship an owned message to
/// a peer, poll for the next message delivered to a node.
///
/// Implementations decide what "in flight" means — a delay-bucket ring
/// ([`RingDelivery`]), a bounded in-memory channel, or a UDP socket. The
/// contract is deliberately minimal:
///
/// * `send` takes ownership of the message; whether it arrives (loss,
///   backpressure, dead links) is the backend's business. The reduction
///   protocols are loss-tolerant by construction, so backends are free to
///   drop rather than block.
/// * `try_recv` never blocks; `Ok(None)` means "nothing delivered right
///   now", not "stream ended".
/// * Message order per (src, dst) pair is preserved by the in-process
///   backends; datagram backends may reorder, which the flow protocols
///   tolerate (they transmit absolute state, not deltas).
pub trait Delivery<M> {
    /// Backend failure type (use [`std::convert::Infallible`] for
    /// backends that cannot fail).
    type Error: std::fmt::Debug + std::fmt::Display;

    /// Ship `msg` from `src` toward `dst`.
    fn send(&mut self, src: NodeId, dst: NodeId, msg: M) -> Result<(), Self::Error>;

    /// The next message delivered to `node`, as `(from, msg)`, or `None`
    /// when nothing is pending.
    fn try_recv(&mut self, node: NodeId) -> Result<Option<(NodeId, M)>, Self::Error>;

    /// [`send`](Self::send), handing `msg` back when the backend is done
    /// with it (a backend that encodes frames is, once the frame is
    /// written), so the caller can reuse its storage. The default sends
    /// and hands nothing back.
    fn send_returning(
        &mut self,
        src: NodeId,
        dst: NodeId,
        msg: M,
    ) -> Result<Option<M>, Self::Error> {
        self.send(src, dst, msg).map(|()| None)
    }

    /// [`try_recv`](Self::try_recv), free to take `spare` and decode the
    /// delivered frame into its storage. The default leaves `spare` alone.
    fn try_recv_reusing(
        &mut self,
        node: NodeId,
        spare: &mut Option<M>,
    ) -> Result<Option<(NodeId, M)>, Self::Error> {
        let _ = spare;
        self.try_recv(node)
    }
}

/// The deterministic simulator's delivery substrate: a ring of delivery
/// buckets, one per possible delay, with `buckets[r % len]` holding the
/// messages due in round `r` in send order.
///
/// The [`Simulator`](crate::Simulator) drives the ring through the
/// explicit-slot inherent methods ([`ship_at`](RingDelivery::ship_at) /
/// [`take_slot`](RingDelivery::take_slot) /
/// [`put_back`](RingDelivery::put_back)) so the fault pipeline can run
/// between enqueue and delivery; those paths are bit-identical to the
/// pre-extraction simulator. The [`Delivery`] impl exposes the same ring
/// to per-node drivers as a zero-latency loopback network — the
/// single-threaded deterministic twin of the threaded/socket backends in
/// `gr-transport`.
#[derive(Debug)]
pub struct RingDelivery<M> {
    /// `buckets[r % len]` = messages due in round `r`, in send order.
    buckets: Vec<Vec<(NodeId, NodeId, M)>>,
    /// Current round for the trait-facing loopback view.
    round: u64,
}

impl<M> RingDelivery<M> {
    /// A ring able to hold deliveries up to `max_delay` rounds out
    /// (`max_delay == 0` gives the single reused zero-latency bucket).
    pub fn new(max_delay: u64) -> Self {
        RingDelivery {
            buckets: (0..max_delay + 1).map(|_| Vec::new()).collect(),
            round: 0,
        }
    }

    /// Number of delay slots (`max_delay + 1`).
    #[inline]
    pub fn slots(&self) -> usize {
        self.buckets.len()
    }

    /// The slot a message due in `round` lives in.
    #[inline]
    pub fn slot_of(&self, round: u64) -> usize {
        let n = self.buckets.len() as u64;
        if n == 1 {
            0
        } else {
            (round % n) as usize
        }
    }

    /// Enqueue a message into an explicit slot (the simulator computes
    /// the due slot from its round and delay draw).
    #[inline]
    pub fn ship_at(&mut self, slot: usize, src: NodeId, dst: NodeId, msg: M) {
        self.buckets[slot].push((src, dst, msg));
    }

    /// Move the batch due in `slot` out of the ring (the caller returns
    /// the allocation via [`put_back`](RingDelivery::put_back)).
    #[inline]
    pub fn take_slot(&mut self, slot: usize) -> Vec<(NodeId, NodeId, M)> {
        std::mem::take(&mut self.buckets[slot])
    }

    /// Hand a drained batch's allocation back to `slot`.
    #[inline]
    pub fn put_back(&mut self, slot: usize, batch: Vec<(NodeId, NodeId, M)>) {
        debug_assert!(self.buckets[slot].is_empty());
        self.buckets[slot] = batch;
    }

    /// Keep only the in-flight messages `keep` approves (restart purges).
    pub fn retain(&mut self, mut keep: impl FnMut(&(NodeId, NodeId, M)) -> bool) {
        for bucket in &mut self.buckets {
            bucket.retain(&mut keep);
        }
    }

    /// Messages currently in flight (all slots).
    pub fn in_flight(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    /// Advance the loopback view's round (undelivered zero-latency
    /// messages stay queued; delayed slots rotate into view).
    pub fn advance_round(&mut self) {
        self.round += 1;
    }
}

impl<M> Delivery<M> for RingDelivery<M> {
    type Error = std::convert::Infallible;

    /// Loopback send: due immediately (the current round's slot).
    fn send(&mut self, src: NodeId, dst: NodeId, msg: M) -> Result<(), Self::Error> {
        let slot = self.slot_of(self.round);
        self.ship_at(slot, src, dst, msg);
        Ok(())
    }

    /// First pending message addressed to `node` in the current slot, in
    /// send order. O(pending) — the loopback view serves small
    /// deterministic twin runs, not the hot simulator path (which drains
    /// whole slots via [`take_slot`](RingDelivery::take_slot)).
    fn try_recv(&mut self, node: NodeId) -> Result<Option<(NodeId, M)>, Self::Error> {
        let slot = self.slot_of(self.round);
        let bucket = &mut self.buckets[slot];
        match bucket.iter().position(|&(_, dst, _)| dst == node) {
            Some(pos) => {
                let (src, _, msg) = bucket.remove(pos);
                Ok(Some((src, msg)))
            }
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_send_recv_fifo_per_receiver() {
        let mut ring: RingDelivery<u32> = RingDelivery::new(0);
        ring.send(0, 2, 10).unwrap();
        ring.send(1, 2, 11).unwrap();
        ring.send(2, 0, 12).unwrap();
        assert_eq!(ring.in_flight(), 3);
        assert_eq!(ring.try_recv(2).unwrap(), Some((0, 10)));
        assert_eq!(ring.try_recv(2).unwrap(), Some((1, 11)));
        assert_eq!(ring.try_recv(2).unwrap(), None);
        assert_eq!(ring.try_recv(0).unwrap(), Some((2, 12)));
        assert_eq!(ring.in_flight(), 0);
    }

    #[test]
    fn undelivered_messages_survive_round_advance() {
        let mut ring: RingDelivery<u32> = RingDelivery::new(0);
        ring.send(0, 1, 7).unwrap();
        ring.advance_round();
        assert_eq!(ring.try_recv(1).unwrap(), Some((0, 7)));
    }

    #[test]
    fn explicit_slots_round_trip() {
        let mut ring: RingDelivery<&'static str> = RingDelivery::new(3);
        assert_eq!(ring.slots(), 4);
        let due = ring.slot_of(6); // round 6 with 4 slots -> slot 2
        assert_eq!(due, 2);
        ring.ship_at(due, 0, 1, "late");
        let batch = ring.take_slot(due);
        assert_eq!(batch, vec![(0, 1, "late")]);
        ring.put_back(due, batch);
        ring.retain(|&(src, _, _)| src != 0);
        assert_eq!(ring.in_flight(), 0);
    }
}
