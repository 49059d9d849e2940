//! In-memory channel backend: one endpoint per node over bounded
//! `std::sync::mpsc` channels.
//!
//! This is the first *real* transport: node drivers run on separate
//! threads, so message interleaving comes from the OS scheduler rather
//! than a round loop, and every message crosses the boundary as encoded
//! frame bytes — the same [`WireMsg`] frames the UDP backend ships — so
//! the codec sits on the hot path of both backends and the mem backend's
//! bytes-on-wire accounting is honest.
//!
//! Backpressure is loss: a full channel drops the frame (counted in
//! [`WireStats::dropped`]) instead of blocking the sender, matching the
//! lossy-network regime the protocols are built for. A generously sized
//! channel therefore gives a lossless run, and a tiny one doubles as a
//! loss injector with real thread-race timing.

use crate::error::{TransportConfigError, TransportError};
use crate::{decode_into_spare, WireStats};
use gr_netsim::Delivery;
use gr_reduction::WireMsg;
use gr_topology::NodeId;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError, TrySendError};

/// An encoded frame in flight: `(source node, frame bytes)`.
type Frame = (NodeId, Vec<u8>);

/// One node's endpoint on the in-memory channel fabric.
pub struct MemDelivery<M: WireMsg> {
    node: NodeId,
    peers: Vec<SyncSender<Frame>>,
    rx: Receiver<Frame>,
    /// Encode buffer kept across sends; each frame ships as an exact-size
    /// copy of it, so a send costs one allocation and no regrowth.
    tx_buf: Vec<u8>,
    stats: WireStats,
    _msg: std::marker::PhantomData<fn() -> M>,
}

/// Build the channel fabric for an `n`-node cluster: one bounded channel
/// per node, every endpoint holding a sender to every peer. `capacity` is
/// the per-node inbox depth (clamped to at least 1); sends beyond it are
/// dropped, not blocked.
pub fn mem_cluster<M: WireMsg>(
    n: usize,
    capacity: usize,
) -> Result<Vec<MemDelivery<M>>, TransportConfigError> {
    if n == 0 {
        return Err(TransportConfigError::ZeroNodes);
    }
    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = sync_channel(capacity.max(1));
        senders.push(tx);
        receivers.push(rx);
    }
    Ok(receivers
        .into_iter()
        .enumerate()
        .map(|(i, rx)| MemDelivery {
            node: i as NodeId,
            peers: senders.clone(),
            rx,
            tx_buf: Vec::new(),
            stats: WireStats::default(),
            _msg: std::marker::PhantomData,
        })
        .collect())
}

impl<M: WireMsg> MemDelivery<M> {
    /// The node this endpoint belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Traffic counters so far.
    pub fn wire_stats(&self) -> WireStats {
        self.stats
    }
}

impl<M: WireMsg> Delivery<M> for MemDelivery<M> {
    type Error = TransportError;

    fn send(&mut self, src: NodeId, dst: NodeId, msg: M) -> Result<(), Self::Error> {
        self.send_returning(src, dst, msg).map(drop)
    }

    fn try_recv(&mut self, node: NodeId) -> Result<Option<(NodeId, M)>, Self::Error> {
        self.try_recv_reusing(node, &mut None)
    }

    /// Encodes `msg` and hands it back, whether or not the frame was
    /// accepted.
    fn send_returning(
        &mut self,
        _src: NodeId,
        dst: NodeId,
        msg: M,
    ) -> Result<Option<M>, Self::Error> {
        let Some(peer) = self.peers.get(dst as usize) else {
            return Err(TransportError::UnknownPeer { dst });
        };
        self.tx_buf.clear();
        msg.encode_frame(&mut self.tx_buf);
        let frame = self.tx_buf.to_vec();
        let bytes = frame.len() as u64;
        match peer.try_send((self.node, frame)) {
            Ok(()) => {
                self.stats.sent += 1;
                self.stats.bytes_sent += bytes;
            }
            // Full inbox or a peer that already shut down: the message is
            // lost, which is a modelled event, not an error.
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.stats.dropped += 1;
            }
        }
        Ok(Some(msg))
    }

    /// Decodes the frame into `spare` when there is one.
    fn try_recv_reusing(
        &mut self,
        node: NodeId,
        spare: &mut Option<M>,
    ) -> Result<Option<(NodeId, M)>, Self::Error> {
        debug_assert_eq!(node, self.node, "endpoint polled for a foreign node");
        match self.rx.try_recv() {
            Ok((src, frame)) => {
                let msg = decode_into_spare(spare, &frame)?;
                self.stats.delivered += 1;
                self.stats.bytes_recv += frame.len() as u64;
                Ok(Some((src, msg)))
            }
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_reduction::Mass;

    #[test]
    fn zero_nodes_is_a_typed_error() {
        assert!(matches!(
            mem_cluster::<Mass<f64>>(0, 8),
            Err(TransportConfigError::ZeroNodes)
        ));
    }

    #[test]
    fn frames_cross_the_fabric() {
        let mut eps = mem_cluster::<Mass<f64>>(3, 8).unwrap();
        let m = Mass::new(2.5, 1.0);
        eps[0].send(0, 2, m.clone()).unwrap();
        eps[1].send(1, 2, Mass::new(-1.0, 0.5)).unwrap();
        let (src, got) = eps[2].try_recv(2).unwrap().unwrap();
        assert_eq!((src, got), (0, m));
        let (src, _) = eps[2].try_recv(2).unwrap().unwrap();
        assert_eq!(src, 1);
        assert!(eps[2].try_recv(2).unwrap().is_none());
        assert_eq!(eps[0].wire_stats().sent, 1);
        assert_eq!(eps[2].wire_stats().delivered, 2);
        assert!(eps[0].wire_stats().bytes_sent > 0);
    }

    #[test]
    fn full_inbox_drops_instead_of_blocking() {
        let mut eps = mem_cluster::<Mass<f64>>(2, 1).unwrap();
        eps[0].send(0, 1, Mass::new(1.0, 1.0)).unwrap();
        eps[0].send(0, 1, Mass::new(2.0, 1.0)).unwrap(); // inbox full
        assert_eq!(eps[0].wire_stats().sent, 1);
        assert_eq!(eps[0].wire_stats().dropped, 1);
        assert_eq!(eps[1].try_recv(1).unwrap().unwrap().1, Mass::new(1.0, 1.0));
        assert!(eps[1].try_recv(1).unwrap().is_none());
    }

    #[test]
    fn unknown_peer_is_a_typed_error() {
        let mut eps = mem_cluster::<Mass<f64>>(2, 4).unwrap();
        assert_eq!(
            eps[0].send(0, 9, Mass::new(1.0, 1.0)).unwrap_err(),
            TransportError::UnknownPeer { dst: 9 }
        );
    }
}
