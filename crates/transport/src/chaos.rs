//! Chaos transport layer: seeded fault injection over any real backend.
//!
//! The simulator injects faults from inside its round loop; a real
//! deployment has no such loop, so faults must be injected at the
//! *delivery seam* instead. [`ChaosDelivery`] wraps any
//! [`Delivery`](gr_netsim::Delivery) backend — in-memory channels, UDP
//! sockets — and applies the netsim fault taxonomy to outgoing traffic:
//! i.i.d. drops, correlated (Gilbert–Elliott) burst loss, payload bit
//! flips, duplication, delay/reorder holdback, and scripted bidirectional
//! network partitions with heal.
//!
//! **One fault pipeline.** Burst loss, i.i.d. drops and bit flips are
//! netsim's own [`MessageFaults::decide`], the function the simulator's
//! transit check calls; only the cut, delay and duplicate stages are
//! chaos-specific.
//!
//! **Determinism.** All decisions for one node's endpoint come from two
//! RNG streams derived from `(plan seed, node id)` — one for the burst
//! chain, one for everything else — and an operation clock that ticks
//! once per chaos-layer operation. Given the same sequence of sends, an
//! endpoint makes the same decisions — thread scheduling moves *when* a
//! decision happens, never *what* is decided.
//! The injected-fault process is therefore reproducible given the seed
//! even though the interleaving underneath is real.
//!
//! **Egress-side injection.** Every fault fires on the sender's side of
//! the wire, before the inner backend sees the frame. That keeps the
//! wrapper backend-agnostic (no decoding on the receive path) and mirrors
//! where netsim's transit pipeline sits — between `on_send` and the
//! delivery substrate.

use crate::WireStats;
use gr_netsim::{
    check_probability, stream_rng, BurstChain, BurstModel, Corrupt, Delivery, FaultVerdict,
    MessageFaults, RngStream,
};
use gr_topology::NodeId;
use rand::rngs::StdRng;
use rand::RngExt;

/// Stream tag for per-node chaos RNGs ("CHAO" — distinct from the driver
/// and simulator streams, so chaos decisions never correlate with partner
/// picks drawn from the same master seed).
const CHAOS_STREAM: u64 = 0x4348_414F;
/// Stream tag for per-node burst chains ("CHBU"), kept apart from
/// [`CHAOS_STREAM`] as netsim keeps [`RngStream::Burst`] apart from its
/// fault stream: turning bursts on never moves another decision.
const CHAOS_BURST_STREAM: u64 = 0x4348_4255;

/// A scripted bidirectional partition: while the chaos clock of a node is
/// inside `[from_op, until_op)`, every frame crossing the boundary of
/// `members` (in either direction) is dropped at egress.
///
/// Cutting a group and cutting its complement sever the same edges — a
/// frame is cut exactly when *one* endpoint is inside the group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosCut {
    /// One side of the partition.
    pub members: Vec<NodeId>,
    /// First chaos-clock operation at which the cut is active.
    pub from_op: u64,
    /// First operation at which the cut has healed (exclusive bound).
    pub until_op: u64,
}

impl ChaosCut {
    /// `true` if a frame `src → dst` crosses this cut at clock `op`.
    fn severs(&self, src: NodeId, dst: NodeId, op: u64) -> bool {
        if op < self.from_op || op >= self.until_op {
            return false;
        }
        self.members.contains(&src) != self.members.contains(&dst)
    }
}

/// A seeded description of everything the chaos layer may do. All
/// probabilities are per frame in `[0, 1]`; a plan with every rate at
/// zero and no cuts is a verified byte-exact passthrough.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosPlan {
    /// Master seed; each wrapped endpoint derives its own stream from it.
    pub seed: u64,
    /// I.i.d. drop probability per frame.
    pub drop: f64,
    /// Gilbert–Elliott correlated burst loss, advanced once per frame
    /// (`None` = off).
    pub burst: Option<BurstModel>,
    /// Probability a surviving frame is sent twice.
    pub duplicate: f64,
    /// Probability a surviving frame has one uniformly chosen payload bit
    /// flipped before encoding.
    pub corrupt: f64,
    /// Probability a surviving frame is held back instead of sent now.
    pub delay: f64,
    /// How many chaos-clock operations a held frame waits before it is
    /// flushed (later sends overtake it: reordering).
    pub delay_ops: u64,
    /// Scripted partitions, in any order.
    pub cuts: Vec<ChaosCut>,
}

impl ChaosPlan {
    /// The do-nothing plan: all rates zero, no cuts. Wrapping a backend
    /// with it is a byte-exact passthrough (pinned by test).
    pub fn none(seed: u64) -> Self {
        ChaosPlan {
            seed,
            drop: 0.0,
            burst: None,
            duplicate: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            delay_ops: 0,
            cuts: Vec::new(),
        }
    }

    /// `true` if this plan can never alter traffic.
    pub fn is_passthrough(&self) -> bool {
        self.drop == 0.0
            && self.burst.is_none_or(|b| b.enter == 0.0 || b.loss == 0.0)
            && self.duplicate == 0.0
            && self.corrupt == 0.0
            && self.delay == 0.0
            && self.cuts.is_empty()
    }

    /// Panics if any probability is NaN or outside `[0, 1]` (the
    /// simulator's [`check_probability`]), or a cut's window is empty or
    /// inverted.
    fn assert_valid(&self) {
        let rates = check_probability("drop", self.drop)
            .and(check_probability("duplicate", self.duplicate))
            .and(check_probability("corrupt", self.corrupt))
            .and(check_probability("delay", self.delay))
            .and(self.burst.as_ref().map_or(Ok(()), BurstModel::validate));
        if let Err(e) = rates {
            panic!("chaos {e}");
        }
        for c in &self.cuts {
            assert!(
                c.from_op < c.until_op,
                "chaos cut window [{}, {}) is empty",
                c.from_op,
                c.until_op
            );
        }
    }
}

/// Counters the chaos layer keeps, alongside an order-insensitive digest
/// of its decisions (FNV over `(action, clock)` pairs) for reproducibility
/// assertions in tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Frames deliberately dropped (i.i.d. + burst + cut).
    pub drops: u64,
    /// Extra copies injected by duplication.
    pub duplicates: u64,
    /// Frames with a payload bit flipped.
    pub corrupted: u64,
    /// Frames held back for later flush.
    pub delayed: u64,
    /// FNV-1a fold of every decision this endpoint made.
    pub decision_digest: u64,
}

impl ChaosStats {
    fn note(&mut self, action: u64, op: u64) {
        let mut h = if self.decision_digest == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.decision_digest
        };
        for word in [action, op] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        self.decision_digest = h;
    }
}

/// Decision codes folded into [`ChaosStats::decision_digest`].
const ACT_CUT: u64 = 1;
const ACT_BURST: u64 = 2;
const ACT_DROP: u64 = 3;
const ACT_CORRUPT: u64 = 4;
const ACT_DELAY: u64 = 5;
const ACT_DUP: u64 = 6;

/// A [`Delivery`] middleware injecting seeded faults at egress.
///
/// Wrap each node's endpoint before handing the cluster to
/// [`run_cluster`](crate::run_cluster):
///
/// ```ignore
/// let endpoints = mem_cluster(n, cap)?
///     .into_iter()
///     .map(|ep| ChaosDelivery::new(ep, ep_node, &plan))
///     .collect();
/// ```
pub struct ChaosDelivery<D, M> {
    inner: D,
    node: NodeId,
    plan: ChaosPlan,
    faults: MessageFaults,
    rng: StdRng,
    burst: BurstChain,
    /// Chaos clock: ticks once per `send`/`try_recv` call. Partition
    /// windows and delay due-times are measured on it.
    op: u64,
    /// Held-back frames: `(due op, dst, msg)` in hold order.
    held: Vec<(u64, NodeId, M)>,
    stats: ChaosStats,
}

impl<D, M> ChaosDelivery<D, M> {
    /// Wrap `inner` (node `node`'s endpoint) under `plan`.
    ///
    /// # Panics
    /// Panics if a plan probability is outside `[0, 1]` or a cut window
    /// is empty.
    pub fn new(inner: D, node: NodeId, plan: &ChaosPlan) -> Self {
        plan.assert_valid();
        ChaosDelivery {
            inner,
            node,
            plan: plan.clone(),
            faults: MessageFaults {
                loss: plan.drop,
                flip: plan.corrupt,
                burst: plan.burst,
            },
            rng: stream_rng(
                plan.seed,
                RngStream::Aux(CHAOS_STREAM ^ (u64::from(node) << 32)),
            ),
            burst: BurstChain::new(stream_rng(
                plan.seed,
                RngStream::Aux(CHAOS_BURST_STREAM ^ (u64::from(node) << 32)),
            )),
            op: 0,
            held: Vec::new(),
            stats: ChaosStats::default(),
        }
    }

    /// Chaos counters so far.
    pub fn chaos_stats(&self) -> ChaosStats {
        self.stats
    }

    /// The wrapped endpoint.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Frames currently held back by the delay stage.
    pub fn held(&self) -> usize {
        self.held.len()
    }
}

impl<D, M> ChaosDelivery<D, M>
where
    M: Clone + Corrupt,
    D: Delivery<M>,
{
    /// Ship every held frame whose due op has passed (in hold order —
    /// only frames sent *after* the hold overtake it).
    fn flush_due(&mut self) -> Result<(), D::Error> {
        let mut i = 0;
        while i < self.held.len() {
            if self.held[i].0 <= self.op {
                let (_, dst, msg) = self.held.remove(i);
                self.inner.send(self.node, dst, msg)?;
            } else {
                i += 1;
            }
        }
        Ok(())
    }
}

impl<D, M> Delivery<M> for ChaosDelivery<D, M>
where
    M: Clone + Corrupt,
    D: Delivery<M>,
{
    type Error = D::Error;

    fn send(&mut self, src: NodeId, dst: NodeId, msg: M) -> Result<(), Self::Error> {
        self.send_returning(src, dst, msg).map(drop)
    }

    fn try_recv(&mut self, node: NodeId) -> Result<Option<(NodeId, M)>, Self::Error> {
        self.try_recv_reusing(node, &mut None)
    }

    /// A dropped or severed message comes straight back, a passed one
    /// as the inner backend hands it back, a held one not at all.
    fn send_returning(
        &mut self,
        src: NodeId,
        dst: NodeId,
        mut msg: M,
    ) -> Result<Option<M>, Self::Error> {
        self.op += 1;
        self.flush_due()?;
        let op = self.op;
        // Scripted partition: an active cut severs the frame outright —
        // no RNG draw, so cuts never shift the probabilistic decision
        // sequence.
        if self.plan.cuts.iter().any(|c| c.severs(src, dst, op)) {
            self.stats.drops += 1;
            self.stats.note(ACT_CUT, op);
            return Ok(Some(msg));
        }
        match self.faults.decide(&mut self.burst, &mut self.rng, &mut msg) {
            FaultVerdict::Pass => {}
            FaultVerdict::Flipped(_) => {
                self.stats.corrupted += 1;
                self.stats.note(ACT_CORRUPT, op);
            }
            FaultVerdict::LostBurst => {
                self.stats.drops += 1;
                self.stats.note(ACT_BURST, op);
                return Ok(Some(msg));
            }
            FaultVerdict::LostRandom => {
                self.stats.drops += 1;
                self.stats.note(ACT_DROP, op);
                return Ok(Some(msg));
            }
        }
        if self.plan.delay > 0.0 && self.rng.random::<f64>() < self.plan.delay {
            self.stats.delayed += 1;
            self.stats.note(ACT_DELAY, op);
            self.held.push((op + self.plan.delay_ops, dst, msg));
            return Ok(None);
        }
        if self.plan.duplicate > 0.0 && self.rng.random::<f64>() < self.plan.duplicate {
            self.stats.duplicates += 1;
            self.stats.note(ACT_DUP, op);
            self.inner.send(src, dst, msg.clone())?;
        }
        self.inner.send_returning(src, dst, msg)
    }

    fn try_recv_reusing(
        &mut self,
        node: NodeId,
        spare: &mut Option<M>,
    ) -> Result<Option<(NodeId, M)>, Self::Error> {
        // The clock ticks on receive polls too, so held frames drain even
        // after a node stops sending (the settle phase only pumps) —
        // nothing can be stranded in the delay stage at audit time.
        self.op += 1;
        self.flush_due()?;
        self.inner.try_recv_reusing(node, spare)
    }
}

impl<D, M> crate::WireInstrumented for ChaosDelivery<D, M>
where
    D: crate::WireInstrumented,
{
    fn wire_stats(&self) -> WireStats {
        let mut w = self.inner.wire_stats();
        w.chaos_drops = self.stats.drops;
        w.chaos_dups = self.stats.duplicates;
        w.chaos_corrupt = self.stats.corrupted;
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::mem_cluster;
    use gr_reduction::Mass;

    fn full_chaos(seed: u64) -> ChaosPlan {
        ChaosPlan {
            drop: 0.2,
            burst: Some(BurstModel {
                enter: 0.2,
                exit: 0.3,
                loss: 0.9,
            }),
            duplicate: 0.1,
            corrupt: 0.1,
            delay: 0.2,
            delay_ops: 3,
            cuts: vec![ChaosCut {
                members: vec![0],
                from_op: 10,
                until_op: 20,
            }],
            ..ChaosPlan::none(seed)
        }
    }

    /// The same send script must produce the same decisions regardless of
    /// when the calls happen — the digest depends only on (seed, node,
    /// sequence).
    #[test]
    fn decisions_are_reproducible_given_seed() {
        let run = || {
            let eps = mem_cluster::<Mass<f64>>(2, 1024).unwrap();
            let mut it = eps.into_iter();
            let mut a = ChaosDelivery::new(it.next().unwrap(), 0, &full_chaos(9));
            let mut b = it.next().unwrap();
            for i in 0..200 {
                a.send(0, 1, Mass::new(i as f64, 1.0)).unwrap();
            }
            let mut got = 0;
            while b.try_recv(1).unwrap().is_some() {
                got += 1;
            }
            (a.chaos_stats(), got)
        };
        let (s1, got1) = run();
        let (s2, got2) = run();
        assert_eq!(s1, s2);
        assert_eq!(got1, got2);
        assert!(s1.drops > 0, "full-chaos plan never dropped");
        assert_ne!(s1.decision_digest, 0);
        // A different seed decides differently.
        let eps = mem_cluster::<Mass<f64>>(2, 1024).unwrap();
        let mut a = ChaosDelivery::new(eps.into_iter().next().unwrap(), 0, &full_chaos(10));
        for i in 0..200 {
            a.send(0, 1, Mass::new(i as f64, 1.0)).unwrap();
        }
        assert_ne!(a.chaos_stats().decision_digest, s1.decision_digest);
    }

    /// With bursts off, the decision sequence is a fixed function of
    /// `(seed, node)`: pinned, so a change to the shared fault pipeline
    /// cannot move it unnoticed.
    #[test]
    fn burst_off_decisions_are_pinned() {
        let plan = ChaosPlan {
            burst: None,
            ..full_chaos(9)
        };
        for (node, digest) in [(0, 12975463841410278134), (1, 11054630746076145935)] {
            let eps = mem_cluster::<Mass<f64>>(2, 4096).unwrap();
            let mut a = ChaosDelivery::new(eps.into_iter().next().unwrap(), node, &plan);
            for i in 0..500 {
                a.send(node, 1 - node, Mass::new(i as f64, 1.0)).unwrap();
            }
            assert_eq!(a.chaos_stats().decision_digest, digest, "node {node}");
        }
    }

    #[test]
    fn cut_severs_both_directions_and_heals() {
        let plan = ChaosPlan {
            cuts: vec![ChaosCut {
                members: vec![0],
                from_op: 1,
                until_op: 4,
            }],
            ..ChaosPlan::none(0)
        };
        let eps = mem_cluster::<Mass<f64>>(3, 64).unwrap();
        let mut it = eps.into_iter();
        let mut a = ChaosDelivery::new(it.next().unwrap(), 0, &plan);
        let mut b = ChaosDelivery::new(it.next().unwrap(), 1, &plan);
        let mut c = it.next().unwrap();
        // Ops 1..4 are inside the cut window for both wrapped endpoints.
        a.send(0, 1, Mass::new(1.0, 1.0)).unwrap(); // op 1: cut (crosses)
        b.send(1, 0, Mass::new(2.0, 1.0)).unwrap(); // op 1: cut (crosses)
        b.send(1, 2, Mass::new(3.0, 1.0)).unwrap(); // op 2: intra-side, passes
        a.send(0, 1, Mass::new(4.0, 1.0)).unwrap(); // op 2: cut
        a.send(0, 1, Mass::new(5.0, 1.0)).unwrap(); // op 3: cut
        a.send(0, 1, Mass::new(6.0, 1.0)).unwrap(); // op 4: healed, passes
        assert_eq!(a.chaos_stats().drops, 3);
        assert_eq!(b.chaos_stats().drops, 1);
        assert_eq!(b.try_recv(1).unwrap().unwrap().1, Mass::new(6.0, 1.0));
        assert!(b.try_recv(1).unwrap().is_none());
        assert_eq!(c.try_recv(2).unwrap().unwrap().1, Mass::new(3.0, 1.0));
    }

    #[test]
    fn delay_holds_then_flushes_in_reorder() {
        let plan = ChaosPlan {
            delay: 1.0,
            delay_ops: 2,
            ..ChaosPlan::none(3)
        };
        let eps = mem_cluster::<Mass<f64>>(2, 64).unwrap();
        let mut it = eps.into_iter();
        let mut a = ChaosDelivery::new(it.next().unwrap(), 0, &plan);
        let mut b = it.next().unwrap();
        a.send(0, 1, Mass::new(1.0, 1.0)).unwrap(); // held until op 3
        assert_eq!(a.held(), 1);
        assert!(b.try_recv(1).unwrap().is_none());
        a.send(0, 1, Mass::new(2.0, 1.0)).unwrap(); // op 2: held until op 4
        a.send(0, 1, Mass::new(3.0, 1.0)).unwrap(); // op 3: flushes #1, holds #3
        let (_, first) = b.try_recv(1).unwrap().unwrap();
        assert_eq!(first, Mass::new(1.0, 1.0));
        // Receive polls tick the clock, so the rest drains without sends.
        for _ in 0..4 {
            let _ = a.try_recv(0).unwrap();
        }
        assert_eq!(a.held(), 0);
        assert_eq!(b.try_recv(1).unwrap().unwrap().1, Mass::new(2.0, 1.0));
        assert_eq!(b.try_recv(1).unwrap().unwrap().1, Mass::new(3.0, 1.0));
        assert_eq!(a.chaos_stats().delayed, 3);
    }

    #[test]
    fn duplicate_and_corrupt_fire() {
        let plan = ChaosPlan {
            duplicate: 1.0,
            ..ChaosPlan::none(5)
        };
        let eps = mem_cluster::<Mass<f64>>(2, 64).unwrap();
        let mut it = eps.into_iter();
        let mut a = ChaosDelivery::new(it.next().unwrap(), 0, &plan);
        let mut b = it.next().unwrap();
        a.send(0, 1, Mass::new(7.0, 1.0)).unwrap();
        assert_eq!(a.chaos_stats().duplicates, 1);
        assert_eq!(b.try_recv(1).unwrap().unwrap().1, Mass::new(7.0, 1.0));
        assert_eq!(b.try_recv(1).unwrap().unwrap().1, Mass::new(7.0, 1.0));
        assert!(b.try_recv(1).unwrap().is_none());

        let plan = ChaosPlan {
            corrupt: 1.0,
            ..ChaosPlan::none(5)
        };
        let eps = mem_cluster::<Mass<f64>>(2, 64).unwrap();
        let mut it = eps.into_iter();
        let mut a = ChaosDelivery::new(it.next().unwrap(), 0, &plan);
        let mut b = it.next().unwrap();
        a.send(0, 1, Mass::new(7.0, 1.0)).unwrap();
        assert_eq!(a.chaos_stats().corrupted, 1);
        let (_, got) = b.try_recv(1).unwrap().unwrap();
        assert_ne!(got, Mass::new(7.0, 1.0), "one bit must have flipped");
    }

    #[test]
    fn wire_stats_carry_chaos_counters() {
        let plan = ChaosPlan {
            drop: 1.0,
            ..ChaosPlan::none(1)
        };
        let eps = mem_cluster::<Mass<f64>>(2, 64).unwrap();
        let mut a = ChaosDelivery::new(eps.into_iter().next().unwrap(), 0, &plan);
        a.send(0, 1, Mass::new(1.0, 1.0)).unwrap();
        let w = crate::WireInstrumented::wire_stats(&a);
        assert_eq!(w.chaos_drops, 1);
        assert_eq!(w.sent, 0, "dropped frames never reach the inner wire");
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn bad_probability_rejected() {
        let plan = ChaosPlan {
            drop: 1.5,
            ..ChaosPlan::none(0)
        };
        let eps = mem_cluster::<Mass<f64>>(2, 64).unwrap();
        let _: ChaosDelivery<_, Mass<f64>> =
            ChaosDelivery::new(eps.into_iter().next().unwrap(), 0, &plan);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn empty_cut_window_rejected() {
        let plan = ChaosPlan {
            cuts: vec![ChaosCut {
                members: vec![0],
                from_op: 5,
                until_op: 5,
            }],
            ..ChaosPlan::none(0)
        };
        let eps = mem_cluster::<Mass<f64>>(2, 64).unwrap();
        let _: ChaosDelivery<_, Mass<f64>> =
            ChaosDelivery::new(eps.into_iter().next().unwrap(), 0, &plan);
    }
}
