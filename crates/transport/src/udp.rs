//! UDP socket backend: one loopback socket per node, one frame per
//! datagram.
//!
//! The OS now owns delivery — real kernel buffers, real reordering, real
//! loss under pressure — while the protocol sees the same [`Delivery`]
//! face as everywhere else. Framing is the shared [`WireMsg`] format (one
//! complete frame per datagram, so no stream reassembly), and both the
//! transmit scratch and the receive buffer are allocated once per
//! endpoint and reused for every packet: the receive path hands the
//! protocol a decoded message and keeps the buffer, the datagram analogue
//! of the simulator's reclaim-pooled wire buffers.
//!
//! Peers are identified by their bound socket address; datagrams from
//! addresses outside the cluster are counted and ignored rather than
//! decoded (a stray packet on a loopback port must not abort a run).

use crate::error::{TransportConfigError, TransportError};
use crate::WireStats;
use gr_netsim::Delivery;
use gr_reduction::{Mass, Payload, PcfMsg, WireMsg};
use gr_topology::NodeId;
use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};

/// Largest frame the UDP backend ships. Deliberately below the 65507-byte
/// UDP payload ceiling so IP fragmentation headroom and future header
/// growth do not silently push a legal frame over the edge.
pub const MAX_DATAGRAM: usize = 60_000;

/// One node's endpoint: a bound nonblocking loopback socket plus the
/// cluster's address book.
pub struct UdpDelivery<M: WireMsg> {
    node: NodeId,
    socket: UdpSocket,
    peers: Vec<SocketAddr>,
    node_of: HashMap<SocketAddr, NodeId>,
    tx_buf: Vec<u8>,
    rx_buf: Vec<u8>,
    /// Datagrams from addresses outside the cluster (ignored).
    pub foreign: u64,
    stats: WireStats,
    _msg: std::marker::PhantomData<fn() -> M>,
}

/// Encoded frame size of `sample`, checked against the datagram budget —
/// the bring-up guard that rejects payload dimensions a UDP cluster could
/// never carry. A frame's size depends on its payload dimension, fixed
/// per run, and on the varint counters some messages carry, so `sample`
/// must be the run's largest message ([`worst_case_pcf`] for PCF).
pub fn validate_datagram<M: WireMsg>(sample: &M) -> Result<usize, TransportConfigError> {
    let mut buf = Vec::new();
    sample.encode_frame(&mut buf);
    if buf.len() > MAX_DATAGRAM {
        return Err(TransportConfigError::OversizeDatagram {
            bytes: buf.len(),
            max: MAX_DATAGRAM,
        });
    }
    Ok(buf.len())
}

/// The largest PCF message of dimension `dim`: `r` and `inc` at
/// `u64::MAX` take the ten bytes each that their varints can grow to.
pub fn worst_case_pcf<P: Payload>(dim: usize) -> PcfMsg<P> {
    PcfMsg {
        f1: Mass::zero(dim),
        f2: Mass::zero(dim),
        c: 1,
        r: u64::MAX,
        folded: Mass::zero(dim),
        base: Mass::zero(dim),
        inc: u64::MAX,
    }
}

/// Bind an `n`-node loopback cluster: every node gets its own
/// OS-assigned port on 127.0.0.1. Fails with a typed error if sockets
/// are unavailable (sandboxes without network namespaces), which callers
/// treat as "skip", not "crash".
pub fn udp_cluster<M: WireMsg>(n: usize) -> Result<Vec<UdpDelivery<M>>, TransportConfigError> {
    if n == 0 {
        return Err(TransportConfigError::ZeroNodes);
    }
    let bind = |addr: &str| -> Result<UdpSocket, TransportConfigError> {
        let sock = UdpSocket::bind(addr).map_err(|e| TransportConfigError::PortBind {
            addr: addr.to_string(),
            detail: e.to_string(),
        })?;
        sock.set_nonblocking(true)
            .map_err(|e| TransportConfigError::PortBind {
                addr: addr.to_string(),
                detail: e.to_string(),
            })?;
        Ok(sock)
    };
    let sockets: Vec<UdpSocket> = (0..n)
        .map(|_| bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()?;
    let peers: Vec<SocketAddr> = sockets
        .iter()
        .map(|s| {
            s.local_addr().map_err(|e| TransportConfigError::PortBind {
                addr: "127.0.0.1:0".to_string(),
                detail: e.to_string(),
            })
        })
        .collect::<Result<_, _>>()?;
    let node_of: HashMap<SocketAddr, NodeId> = peers
        .iter()
        .enumerate()
        .map(|(i, &a)| (a, i as NodeId))
        .collect();
    Ok(sockets
        .into_iter()
        .enumerate()
        .map(|(i, socket)| UdpDelivery {
            node: i as NodeId,
            socket,
            peers: peers.clone(),
            node_of: node_of.clone(),
            tx_buf: Vec::new(),
            rx_buf: vec![0; MAX_DATAGRAM + 64],
            foreign: 0,
            stats: WireStats::default(),
            _msg: std::marker::PhantomData,
        })
        .collect())
}

impl<M: WireMsg> UdpDelivery<M> {
    /// The node this endpoint belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Traffic counters so far.
    pub fn wire_stats(&self) -> WireStats {
        self.stats
    }
}

impl<M: WireMsg> Delivery<M> for UdpDelivery<M> {
    type Error = TransportError;

    fn send(&mut self, _src: NodeId, dst: NodeId, msg: M) -> Result<(), Self::Error> {
        let Some(&peer) = self.peers.get(dst as usize) else {
            return Err(TransportError::UnknownPeer { dst });
        };
        self.tx_buf.clear();
        msg.encode_frame(&mut self.tx_buf);
        if self.tx_buf.len() > MAX_DATAGRAM {
            return Err(TransportError::Oversize {
                bytes: self.tx_buf.len(),
                max: MAX_DATAGRAM,
            });
        }
        match self.socket.send_to(&self.tx_buf, peer) {
            Ok(_) => {
                self.stats.sent += 1;
                self.stats.bytes_sent += self.tx_buf.len() as u64;
                Ok(())
            }
            // A full socket buffer is loss, the regime the protocols
            // already tolerate.
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                self.stats.dropped += 1;
                Ok(())
            }
            Err(e) => Err(TransportError::Io(e.to_string())),
        }
    }

    fn try_recv(&mut self, node: NodeId) -> Result<Option<(NodeId, M)>, Self::Error> {
        debug_assert_eq!(node, self.node, "endpoint polled for a foreign node");
        loop {
            match self.socket.recv_from(&mut self.rx_buf) {
                Ok((len, from)) => {
                    let Some(&src) = self.node_of.get(&from) else {
                        self.foreign += 1;
                        continue;
                    };
                    let msg = M::decode_frame(&self.rx_buf[..len])?;
                    self.stats.delivered += 1;
                    self.stats.bytes_recv += len as u64;
                    return Ok(Some((src, msg)));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(TransportError::Io(e.to_string())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sandboxes without sockets surface as `PortBind`; every test that
    /// needs a socket downgrades to a skip in that case.
    fn cluster_or_skip(n: usize) -> Option<Vec<UdpDelivery<Mass<f64>>>> {
        match udp_cluster(n) {
            Ok(eps) => Some(eps),
            Err(TransportConfigError::PortBind { addr, detail }) => {
                eprintln!("skipping UDP test: cannot bind {addr}: {detail}");
                None
            }
            Err(e) => panic!("unexpected config error: {e}"),
        }
    }

    #[test]
    fn zero_nodes_is_a_typed_error() {
        assert!(matches!(
            udp_cluster::<Mass<f64>>(0),
            Err(TransportConfigError::ZeroNodes)
        ));
    }

    #[test]
    fn oversize_payload_is_a_typed_config_error() {
        // ~8 KB per mass keeps a 4-mass PCF frame under budget…
        let ok = PcfMsg {
            f1: Mass::new(vec![0.0; 1000], 0.0),
            f2: Mass::new(vec![0.0; 1000], 0.0),
            c: 1,
            r: 0,
            folded: Mass::new(vec![0.0; 1000], 0.0),
            base: Mass::new(vec![0.0; 1000], 0.0),
            inc: 0,
        };
        assert!(validate_datagram(&ok).is_ok());
        // …but a 60 KB mass cannot ride a datagram.
        let big: Mass<Vec<f64>> = Mass::new(vec![0.0; 8000], 0.0);
        assert_eq!(
            validate_datagram(&big).unwrap_err(),
            TransportConfigError::OversizeDatagram {
                bytes: gr_reduction::FRAME_HEADER + 2 + 8000 * 8 + 8,
                max: MAX_DATAGRAM,
            }
        );
    }

    #[test]
    fn guard_checks_the_largest_pcf_frame() {
        // Counters at their widest add 9 bytes each to the 74-byte
        // scalar frame whose `r` and `inc` fit one byte.
        assert_eq!(validate_datagram(&worst_case_pcf::<f64>(1)), Ok(92));
        let small = PcfMsg {
            r: 0,
            inc: 0,
            ..worst_case_pcf::<f64>(1)
        };
        assert_eq!(validate_datagram(&small), Ok(74));
        // Header, two-byte dim, four masses, `c` and two ten-byte
        // counters: dim 1873 is the largest that fits a datagram.
        let worst = |dim| validate_datagram(&worst_case_pcf::<Vec<f64>>(dim));
        assert_eq!(worst(1873), Ok(6 + 2 + 4 * (1873 * 8 + 8) + 1 + 20));
        assert_eq!(
            worst(1874).unwrap_err(),
            TransportConfigError::OversizeDatagram {
                bytes: 6 + 2 + 4 * (1874 * 8 + 8) + 1 + 20,
                max: MAX_DATAGRAM,
            }
        );
    }

    #[test]
    fn loopback_send_recv() {
        let Some(mut eps) = cluster_or_skip(2) else {
            return;
        };
        let m = Mass::new(1.25, 0.5);
        eps[0].send(0, 1, m.clone()).unwrap();
        // Nonblocking loopback delivery is near-instant but not literally
        // synchronous; poll briefly.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        loop {
            if let Some((src, got)) = eps[1].try_recv(1).unwrap() {
                assert_eq!((src, got), (0, m));
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "datagram never arrived"
            );
            std::thread::yield_now();
        }
        assert_eq!(eps[0].wire_stats().sent, 1);
        assert_eq!(eps[1].wire_stats().delivered, 1);
        assert_eq!(
            eps[0].wire_stats().bytes_sent,
            eps[1].wire_stats().bytes_recv
        );
    }
}
