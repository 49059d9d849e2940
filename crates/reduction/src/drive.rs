//! Per-node protocol driver over a [`Delivery`] backend.
//!
//! The simulator drives all nodes from one loop; a real deployment has no
//! such loop — each node owns a thread (or process) and pumps its own
//! endpoint. [`NodeDriver`] is that per-node loop, factored out of any
//! particular backend: it holds one node's protocol instance and an RNG,
//! and advances the node by the paper's iteration structure (drain
//! arrivals, then push to one uniformly random neighbor) against whatever
//! [`Delivery`] implementation it is handed — the deterministic
//! [`RingDelivery`](gr_netsim::RingDelivery) twin in tests, threads or
//! sockets in `gr-transport`.
//!
//! The protocol instance is the *same type* the simulator runs (built
//! over the full graph); the driver simply only ever invokes callbacks
//! with its own node id. State for other nodes sits untouched at its
//! initial value — per-node state is independent by construction (that
//! is the point of a gossip protocol), so this costs memory proportional
//! to the graph but zero protocol forks.

use crate::protocol::ReductionProtocol;
use gr_netsim::{stream_rng, Delivery, RngStream, Schedule, SilenceDetector};
use gr_topology::{Graph, NodeId};
use rand::rngs::StdRng;

/// Stream tag for per-node driver RNGs ("DRV" — distinct from every
/// simulator stream, so a driver run never correlates with a netsim
/// schedule drawn from the same master seed).
const DRIVER_STREAM: u64 = 0x4452_5600;

/// Counters a driver accumulates (mirrors the simulator's
/// [`SimStats`](gr_netsim::SimStats) for the fields that exist without a
/// global round loop).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DriverStats {
    /// Iterations executed ([`NodeDriver::step`] calls).
    pub rounds: u64,
    /// Messages pushed into the delivery layer.
    pub sent: u64,
    /// Messages drained and handed to `on_receive`.
    pub delivered: u64,
    /// Neighbors the timeout detector declared silent (possibly falsely).
    pub suspected: u64,
    /// Suspected neighbors that proved alive again and were re-admitted.
    pub rehabilitated: u64,
}

/// One node's event loop: a protocol instance plus the node identity and
/// schedule RNG needed to drive it.
pub struct NodeDriver<Pr: ReductionProtocol> {
    node: NodeId,
    proto: Pr,
    neighbors: Vec<NodeId>,
    rng: StdRng,
    stats: DriverStats,
    /// Timeout detector over the neighbor slots, ticked once per own
    /// iteration (`None`: off).
    detector: Option<SilenceDetector>,
    /// A spent message the backend may decode the next frame into; see
    /// [`recycle`](Self::recycle).
    spare: Option<Pr::Msg>,
}

impl<Pr: ReductionProtocol> NodeDriver<Pr> {
    /// A driver for `node`, owning `proto`. The neighbor list is copied
    /// from `graph`; the partner-pick RNG derives from `seed` and the
    /// node id, so a cluster of drivers built from one seed is fully
    /// deterministic given a deterministic delivery layer.
    pub fn new(node: NodeId, proto: Pr, graph: &Graph, seed: u64) -> Self {
        NodeDriver {
            node,
            proto,
            neighbors: graph.neighbors(node).to_vec(),
            rng: stream_rng(seed, RngStream::Aux(DRIVER_STREAM ^ u64::from(node))),
            stats: DriverStats::default(),
            detector: None,
            spare: None,
        }
    }

    /// Arm a genuine (non-oracle) timeout failure detector, the
    /// simulator's [`SilenceDetector`] ticked by this driver's *own*
    /// iterations: a neighbor last heard in iteration `h` is suspected
    /// at the end of iteration `h + window` —
    /// [`Protocol::on_suspect`](gr_netsim::Protocol::on_suspect) runs
    /// (flow protocols excise the edge and bump its incarnation) but the
    /// neighbor **stays in the send rotation**. Keeping it addressed is
    /// what makes the detector safe: a suspect that was merely slow — or
    /// has restarted with fresh state — keeps receiving our messages
    /// (which carry the bumped incarnation it must adopt), and the first
    /// message it sends back rehabilitates it via
    /// [`Protocol::on_rehabilitate`](gr_netsim::Protocol::on_rehabilitate).
    ///
    /// # Panics
    /// Panics if `window == 0` (every neighbor would be suspected before
    /// its first message could arrive).
    #[must_use]
    pub fn with_timeout_detector(mut self, window: u64) -> Self {
        assert!(window > 0, "detector window must be positive");
        let owners = std::iter::repeat_n(self.node, self.neighbors.len());
        self.detector = Some(SilenceDetector::new(0, owners, window));
        self
    }

    /// `true` if the timeout detector currently suspects `neighbor`.
    /// Always `false` when no detector is armed or `neighbor` is not
    /// adjacent.
    pub fn suspects(&self, neighbor: NodeId) -> bool {
        self.detector.as_ref().is_some_and(|det| {
            self.neighbors
                .iter()
                .position(|&n| n == neighbor)
                .is_some_and(|slot| det.is_suspected(slot))
        })
    }

    /// The node this driver animates.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Counters so far.
    pub fn stats(&self) -> DriverStats {
        self.stats
    }

    /// The protocol instance (estimates are read through this).
    pub fn protocol(&self) -> &Pr {
        &self.proto
    }

    /// Mutable protocol access (fault notifications, test setup).
    pub fn protocol_mut(&mut self) -> &mut Pr {
        &mut self.proto
    }

    /// Keep a spent message: as the spare the next receive may decode
    /// into when there is none, else in the protocol's wire pool (via
    /// `reclaim`), where the next send takes it. A backend that decodes
    /// into the spare and hands every sent message back
    /// ([`Delivery::send_returning`]) thus closes both loops: after
    /// warm-up no message is built afresh, however many frames a pump
    /// finds.
    fn recycle(&mut self, msg: Pr::Msg) {
        if self.spare.is_none() {
            self.spare = Some(msg);
        } else {
            self.proto.reclaim(msg);
        }
    }

    /// Drain every message currently deliverable to this node: each one
    /// runs `on_receive`, then the gutted buffer is kept, as the spare
    /// the next receive may decode into or in the protocol's wire pool
    /// (via `reclaim`). Nothing is sent back: like the
    /// simulator's round, a node's only send is the one push per
    /// [`step`](Self::step). Returns the number of messages processed.
    pub fn pump<D: Delivery<Pr::Msg>>(&mut self, delivery: &mut D) -> Result<usize, D::Error> {
        let mut n = 0;
        while let Some((from, mut msg)) = delivery.try_recv_reusing(self.node, &mut self.spare)? {
            self.proto.prewarm(self.node, from);
            self.proto.on_receive(self.node, from, &mut msg);
            self.recycle(msg);
            // After `on_receive`, so a flow protocol has already processed
            // any incarnation resync the message carried.
            if let Some(det) = self.detector.as_mut() {
                let slot = self.neighbors.iter().position(|&n| n == from);
                if slot.is_some_and(|slot| det.heard(self.node, slot, self.stats.rounds)) {
                    self.stats.rehabilitated += 1;
                    self.proto.on_rehabilitate(self.node, from);
                }
            }
            n += 1;
        }
        self.stats.delivered += n as u64;
        Ok(n)
    }

    /// One iteration of the paper's execution model for this node: drain
    /// arrivals, push one message to a uniformly random neighbor, then
    /// run the detector's end-of-iteration scan. Nodes with no neighbors
    /// only pump.
    pub fn step<D: Delivery<Pr::Msg>>(&mut self, delivery: &mut D) -> Result<(), D::Error> {
        self.pump(delivery)?;
        if let Some(target) = Schedule::uniform().pick(self.node, &self.neighbors, &mut self.rng) {
            let msg = self.proto.on_send(self.node, target);
            if let Some(msg) = delivery.send_returning(self.node, target, msg)? {
                self.recycle(msg);
            }
            self.stats.sent += 1;
        }
        if let Some(det) = self.detector.as_mut() {
            // Suspects stay in the send rotation: see
            // `with_timeout_detector`.
            det.scan(self.stats.rounds, |_, _| true);
            for (_, slot) in det.due() {
                self.stats.suspected += 1;
                self.proto.on_suspect(self.node, self.neighbors[slot]);
            }
        }
        self.stats.rounds += 1;
        Ok(())
    }

    /// This node's current estimate, componentwise.
    pub fn write_estimate(&self, out: &mut [f64]) {
        self.proto.write_estimate(self.node, out);
    }

    /// This node's current mass (written into `values`, weight returned).
    pub fn write_mass(&self, values: &mut [f64]) -> f64 {
        self.proto.write_mass(self.node, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AggregateKind, InitialData};
    use crate::push_cancel_flow::PushCancelFlow;
    use gr_netsim::RingDelivery;
    use gr_topology::hypercube;

    /// N independent drivers over the shared deterministic loopback ring
    /// converge to the true average — the single-threaded prototype of the
    /// threaded/socket clusters in `gr-transport`.
    fn drive_once(seed: u64) -> Vec<f64> {
        let graph = hypercube(4);
        let n = graph.len();
        let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let data = InitialData::with_kind(values, AggregateKind::Average);
        let mut ring: RingDelivery<_> = RingDelivery::new(0);
        let mut drivers: Vec<_> = (0..n as NodeId)
            .map(|i| NodeDriver::new(i, PushCancelFlow::new(&graph, &data), &graph, seed))
            .collect();
        for _ in 0..200 {
            for d in drivers.iter_mut() {
                d.step(&mut ring).unwrap();
            }
            ring.advance_round();
        }
        // Final drain so late messages are not left in flight.
        for d in drivers.iter_mut() {
            d.pump(&mut ring).unwrap();
        }
        let mut est = vec![0.0];
        drivers
            .iter()
            .map(|d| {
                d.write_estimate(&mut est);
                est[0]
            })
            .collect()
    }

    #[test]
    fn drivers_over_loopback_converge_to_average() {
        let estimates = drive_once(42);
        let target = 7.5; // mean of 0..16
        for (i, e) in estimates.iter().enumerate() {
            assert!(
                (e - target).abs() < 1e-9,
                "node {i} estimate {e} not at {target}"
            );
        }
    }

    #[test]
    fn driver_runs_are_deterministic() {
        assert_eq!(drive_once(7), drive_once(7));
        assert_ne!(drive_once(7), drive_once(8));
    }

    #[test]
    fn mass_is_conserved_across_instances() {
        let graph = hypercube(3);
        let n = graph.len();
        let values: Vec<f64> = (0..n).map(|i| 3.0 * i as f64 - 2.0).collect();
        let total: f64 = values.iter().sum();
        let data = InitialData::with_kind(values, AggregateKind::Average);
        let mut ring: RingDelivery<_> = RingDelivery::new(0);
        let mut drivers: Vec<_> = (0..n as NodeId)
            .map(|i| NodeDriver::new(i, PushCancelFlow::new(&graph, &data), &graph, 5))
            .collect();
        for _ in 0..37 {
            for d in drivers.iter_mut() {
                d.step(&mut ring).unwrap();
            }
            ring.advance_round();
        }
        // Quiesce: drain until no driver delivers anything more.
        loop {
            let mut moved = 0;
            for d in drivers.iter_mut() {
                moved += d.pump(&mut ring).unwrap();
            }
            if moved == 0 {
                break;
            }
        }
        let mut buf = vec![0.0];
        let (mut mass, mut weight) = (0.0, 0.0);
        for d in drivers.iter() {
            weight += d.write_mass(&mut buf);
            mass += buf[0];
        }
        assert!(
            (mass - total).abs() < 1e-9 * total.abs().max(1.0),
            "mass {mass} drifted from {total}"
        );
        assert!((weight - n as f64).abs() < 1e-9);
    }

    /// A false suspicion (the neighbor was merely paused) must be raised
    /// after the silence window, cleared on the next arrival, and leave
    /// the aggregate intact — the excise/bump + wire-resync path at work
    /// without any oracle.
    #[test]
    fn timeout_detector_suspects_and_rehabilitates() {
        let graph = gr_topology::bus(2);
        let values = vec![10.0, -4.0];
        let total: f64 = values.iter().sum();
        let data = InitialData::with_kind(values, AggregateKind::Average);
        let mut ring: RingDelivery<_> = RingDelivery::new(0);
        let mut drivers: Vec<_> = (0..2)
            .map(|i| {
                NodeDriver::new(i, PushCancelFlow::new(&graph, &data), &graph, 11)
                    .with_timeout_detector(4)
            })
            .collect();
        // Warm up with both sides live: no suspicion.
        for _ in 0..6 {
            for d in drivers.iter_mut() {
                d.step(&mut ring).unwrap();
            }
            ring.advance_round();
        }
        assert!(!drivers[0].suspects(1));
        // Pause node 1 past node 0's window.
        for _ in 0..7 {
            drivers[0].step(&mut ring).unwrap();
            ring.advance_round();
        }
        assert!(drivers[0].suspects(1));
        assert_eq!(drivers[0].stats().suspected, 1);
        // Resume node 1: its backlog drains, node 0 hears from it again.
        for _ in 0..40 {
            for d in drivers.iter_mut() {
                d.step(&mut ring).unwrap();
            }
            ring.advance_round();
        }
        loop {
            let mut moved = 0;
            for d in drivers.iter_mut() {
                moved += d.pump(&mut ring).unwrap();
            }
            if moved == 0 {
                break;
            }
        }
        assert!(!drivers[0].suspects(1));
        assert_eq!(drivers[0].stats().rehabilitated, 1);
        // The false alarm conserved mass and did not wreck convergence.
        let mut buf = vec![0.0];
        let (mut mass, mut weight) = (0.0, 0.0);
        for d in drivers.iter() {
            weight += d.write_mass(&mut buf);
            mass += buf[0];
        }
        assert!(
            (mass - total).abs() < 1e-9,
            "mass {mass} drifted from {total} after false suspicion"
        );
        assert!((weight - 2.0).abs() < 1e-9);
        for d in drivers.iter() {
            d.write_estimate(&mut buf);
            assert!(
                (buf[0] - total / 2.0).abs() < 1e-6,
                "node {} estimate {} after rehabilitation",
                d.node(),
                buf[0]
            );
        }
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_detector_window_rejected() {
        let graph = gr_topology::bus(2);
        let data = InitialData::with_kind(vec![0.0, 0.0], AggregateKind::Average);
        let _ = NodeDriver::new(0, PushCancelFlow::new(&graph, &data), &graph, 0)
            .with_timeout_detector(0);
    }
}
