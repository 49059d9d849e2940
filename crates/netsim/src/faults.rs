//! Fault models: what can go wrong, and when.
//!
//! The paper's taxonomy (Sec. I/II): *soft errors* — message loss and bit
//! flips — are transient and are never reported to the algorithm; they are
//! modelled probabilistically per message. *Permanent failures* — a link or
//! a node dying — are eventually *detected*, at which point the algorithm's
//! failure handling runs (for PF/PCF: flow variables for the dead link are
//! excised). Detection may lag the physical fault.

use crate::options::SimConfigError;
use gr_topology::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::RngExt;

/// A payload the fault injector can corrupt bit-wise.
///
/// Implementations expose their total corruptible bit count; the injector
/// picks a uniform bit index and flips it, modelling a soft error in a
/// network buffer or register. Control fields (counters, tags) may be
/// included — the paper's bit-flip claims cover arbitrary message state.
pub trait Corrupt {
    /// Total number of bits a flip may target. Zero means "not corruptible"
    /// (e.g. the unit message type in tests).
    fn corruptible_bits(&self) -> u32;

    /// Flip bit `bit` (`0 ≤ bit < corruptible_bits()`).
    fn flip_bit(&mut self, bit: u32);
}

impl Corrupt for f64 {
    fn corruptible_bits(&self) -> u32 {
        64
    }
    fn flip_bit(&mut self, bit: u32) {
        *self = gr_numerics::bits::flip_bit(*self, bit);
    }
}

impl Corrupt for u64 {
    fn corruptible_bits(&self) -> u32 {
        64
    }
    fn flip_bit(&mut self, bit: u32) {
        *self ^= 1u64 << bit;
    }
}

impl Corrupt for () {
    fn corruptible_bits(&self) -> u32 {
        0
    }
    fn flip_bit(&mut self, _bit: u32) {}
}

impl<T: Corrupt> Corrupt for Vec<T> {
    fn corruptible_bits(&self) -> u32 {
        self.iter().map(Corrupt::corruptible_bits).sum()
    }
    fn flip_bit(&mut self, mut bit: u32) {
        for item in self.iter_mut() {
            let b = item.corruptible_bits();
            if bit < b {
                item.flip_bit(bit);
                return;
            }
            bit -= b;
        }
        panic!("bit index out of range for Vec payload");
    }
}

impl<A: Corrupt, B: Corrupt> Corrupt for (A, B) {
    fn corruptible_bits(&self) -> u32 {
        self.0.corruptible_bits() + self.1.corruptible_bits()
    }
    fn flip_bit(&mut self, bit: u32) {
        let a = self.0.corruptible_bits();
        if bit < a {
            self.0.flip_bit(bit);
        } else {
            self.1.flip_bit(bit - a);
        }
    }
}

/// A scheduled permanent link failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkFailure {
    /// One endpoint.
    pub a: NodeId,
    /// Other endpoint.
    pub b: NodeId,
    /// Round at which the link physically dies (messages on it are lost
    /// from this round on).
    pub at_round: u64,
    /// Rounds until both endpoints learn of the failure and the protocol's
    /// `on_link_failed` handling runs. `0` = detected immediately, which is
    /// the paper's setting ("the failure handling takes place after 75
    /// iterations").
    pub detect_delay: u64,
}

/// A scheduled node crash (fail-stop): equivalent to all its links failing
/// at once; the node's local data is lost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeCrash {
    /// The crashing node.
    pub node: NodeId,
    /// Round at which it stops sending/receiving.
    pub at_round: u64,
    /// Rounds until neighbors detect the crash (per link).
    pub detect_delay: u64,
}

/// A scheduled link *heal*: a previously failed link comes back.
///
/// Healing is the counterpart of [`LinkFailure`] that real deployments
/// need and the paper leaves implicit: a flaky link that died (or was
/// falsely suspected) returns to service and both endpoints re-admit each
/// other. The protocol is told via its rehabilitation hook; flow-based
/// algorithms restart the edge from fresh state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkHeal {
    /// One endpoint.
    pub a: NodeId,
    /// Other endpoint.
    pub b: NodeId,
    /// Round at which the link carries messages again and both endpoints
    /// re-admit each other.
    pub at_round: u64,
}

/// A scheduled node restart: a previously crashed node rejoins with fresh
/// protocol state (its pre-crash data is gone — fail-stop, then reboot).
///
/// The rejoining node contributes its *initial* value exactly once; the
/// mass it held at crash time stays lost. Correct readmission without
/// double counting is the hard invariant the campaign oracle checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeRestart {
    /// The restarting node (must have crashed in an earlier round).
    pub node: NodeId,
    /// Round at which it resumes sending/receiving.
    pub at_round: u64,
}

/// A two-state Gilbert–Elliott correlated-loss process.
///
/// The chain advances once per in-transit message: in the *good* state it
/// enters the *bad* state with probability `enter`; in the bad state it
/// exits back with probability `exit` and, while bad, each message is
/// dropped with probability `loss`. Mean burst length is `1/exit`
/// messages. The chain draws from its own RNG stream
/// ([`RngStream::Burst`](crate::RngStream::Burst)), so enabling it never
/// perturbs the i.i.d. loss/flip draws — loss patterns compose instead of
/// replacing each other, and existing golden hashes stay bit-exact.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstModel {
    /// Good → bad transition probability (per message).
    pub enter: f64,
    /// Bad → good transition probability (per message).
    pub exit: f64,
    /// Per-message drop probability while the chain is bad.
    pub loss: f64,
}

impl BurstModel {
    /// Check that all three fields are probabilities (see
    /// [`check_probability`]).
    pub fn validate(&self) -> Result<(), SimConfigError> {
        check_probability("burst.enter", self.enter)?;
        check_probability("burst.exit", self.exit)?;
        check_probability("burst.loss", self.loss)
    }
}

/// `Ok` iff `p` lies in `[0, 1]`, else a typed error naming `field`:
/// unchecked, 1.5 drops every message and NaN none, a silent wrong run.
pub fn check_probability(field: &'static str, p: f64) -> Result<(), SimConfigError> {
    if (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(SimConfigError::ProbabilityOutOfRange { field })
    }
}

/// One Gilbert–Elliott chain's state and the private RNG stream it
/// advances on: one per engine lane, one per chaos endpoint.
pub struct BurstChain {
    rng: StdRng,
    bad: bool,
}

impl BurstChain {
    /// A chain in the good state drawing from `rng`.
    pub fn new(rng: StdRng) -> BurstChain {
        BurstChain { rng, bad: false }
    }
}

/// What [`MessageFaults::decide`] did to one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultVerdict {
    /// The message crosses untouched.
    Pass,
    /// The message crosses with this bit flipped.
    Flipped(u32),
    /// The burst chain's bad state dropped the message.
    LostBurst,
    /// The i.i.d. loss coin dropped the message.
    LostRandom,
}

/// The per-message soft-fault pipeline, shared by the round engine
/// ([`FaultRange::transit`](crate::FaultRange::transit)) and the chaos
/// transport layer: the burst chain, then the i.i.d. loss coin, then a
/// bit flip.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MessageFaults {
    /// Per-message probability of silent loss.
    pub loss: f64,
    /// Per-message probability of one uniformly placed bit flip.
    pub flip: f64,
    /// Correlated-burst loss on top of `loss` (`None` = off).
    pub burst: Option<BurstModel>,
}

impl MessageFaults {
    /// `true` if [`decide`](Self::decide) passes every message without
    /// drawing.
    #[inline]
    pub(crate) fn is_off(&self) -> bool {
        self.loss <= 0.0 && self.flip <= 0.0 && self.burst.is_none()
    }

    /// Decide one message's fate, corrupting `msg` in place on a flip.
    /// The chain advances once per message on its own stream, so turning
    /// bursts on or off never moves a draw of `rng`; a zero rate draws
    /// nothing.
    #[inline]
    pub fn decide<M: Corrupt>(
        &self,
        chain: &mut BurstChain,
        rng: &mut StdRng,
        msg: &mut M,
    ) -> FaultVerdict {
        if let Some(b) = self.burst {
            let u = chain.rng.random::<f64>();
            chain.bad = if chain.bad { u >= b.exit } else { u < b.enter };
            if chain.bad && chain.rng.random::<f64>() < b.loss {
                return FaultVerdict::LostBurst;
            }
        }
        if self.loss > 0.0 && rng.random::<f64>() < self.loss {
            return FaultVerdict::LostRandom;
        }
        if self.flip > 0.0 && rng.random::<f64>() < self.flip {
            let bits = msg.corruptible_bits();
            if bits > 0 {
                let bit = rng.random_range(0..bits);
                msg.flip_bit(bit);
                return FaultVerdict::Flipped(bit);
            }
        }
        FaultVerdict::Pass
    }
}

/// A scripted bidirectional network partition: at `at_round` every link
/// between `members` and the rest of the topology dies at once. The cut
/// is symmetric (neither side can reach the other); links *inside* the
/// group and inside its complement keep working.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetPartition {
    /// The nodes on one side of the cut (the other side is the
    /// complement). Which side is listed does not matter.
    pub members: Vec<NodeId>,
    /// Round at which the crossing links die.
    pub at_round: u64,
    /// Rounds until endpoints learn of the cut (per link, oracle
    /// detector only — under a timeout detector, silence does the job).
    pub detect_delay: u64,
}

/// The heal counterpart of [`NetPartition`]: every *severed* crossing
/// link of the group returns to service and both endpoints re-admit each
/// other. Links that died for another reason (scheduled link failure)
/// heal too if they cross the cut — the heal restores the boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionHeal {
    /// The group whose boundary heals (same convention as the cut).
    pub members: Vec<NodeId>,
    /// Round at which the crossing links carry messages again.
    pub at_round: u64,
}

/// Everything that goes wrong during one simulation.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Per-message probability of silent loss.
    pub msg_loss_prob: f64,
    /// Per-message probability of a single uniformly-placed bit flip.
    pub bit_flip_prob: f64,
    /// Correlated-burst loss on top of the i.i.d. model (`None` = off).
    pub burst: Option<BurstModel>,
    /// Scheduled permanent link failures.
    pub link_failures: Vec<LinkFailure>,
    /// Scheduled node crashes.
    pub node_crashes: Vec<NodeCrash>,
    /// Scheduled link heals (a failed link returns to service).
    pub link_heals: Vec<LinkHeal>,
    /// Scheduled node restarts (a crashed node rejoins, state lost).
    pub node_restarts: Vec<NodeRestart>,
    /// Scripted network partitions (a group's boundary links die).
    pub partitions: Vec<NetPartition>,
    /// Scripted partition heals (a group's boundary links return).
    pub partition_heals: Vec<PartitionHeal>,
}

impl FaultPlan {
    /// A failure-free plan.
    pub fn none() -> Self {
        Self::default()
    }

    /// Plan with only probabilistic message loss.
    pub fn with_loss(p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability {p} outside [0,1]"
        );
        FaultPlan {
            msg_loss_prob: p,
            ..Self::default()
        }
    }

    /// Plan with only probabilistic bit flips.
    pub fn with_bit_flips(p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "flip probability {p} outside [0,1]"
        );
        FaultPlan {
            bit_flip_prob: p,
            ..Self::default()
        }
    }

    /// Add a permanent link failure at `round`, detected immediately.
    pub fn fail_link(mut self, a: NodeId, b: NodeId, round: u64) -> Self {
        self.link_failures.push(LinkFailure {
            a,
            b,
            at_round: round,
            detect_delay: 0,
        });
        self
    }

    /// Add a node crash at `round`, detected immediately by all neighbors.
    pub fn crash_node(mut self, node: NodeId, round: u64) -> Self {
        self.node_crashes.push(NodeCrash {
            node,
            at_round: round,
            detect_delay: 0,
        });
        self
    }

    /// Heal a previously failed link at `round`.
    pub fn heal_link(mut self, a: NodeId, b: NodeId, round: u64) -> Self {
        self.link_heals.push(LinkHeal {
            a,
            b,
            at_round: round,
        });
        self
    }

    /// Restart a previously crashed node at `round`.
    pub fn restart_node(mut self, node: NodeId, round: u64) -> Self {
        self.node_restarts.push(NodeRestart {
            node,
            at_round: round,
        });
        self
    }

    /// Turn on Gilbert–Elliott correlated-burst loss (composes with the
    /// i.i.d. models — the chain runs on its own RNG stream).
    pub fn with_burst(mut self, enter: f64, exit: f64, loss: f64) -> Self {
        for (name, p) in [("enter", enter), ("exit", exit), ("loss", loss)] {
            assert!(
                (0.0..=1.0).contains(&p),
                "burst {name} probability {p} outside [0,1]"
            );
        }
        self.burst = Some(BurstModel { enter, exit, loss });
        self
    }

    /// Cut `group` off from the rest of the topology at `round` (every
    /// crossing link dies, detected immediately under the oracle).
    pub fn partition(mut self, group: Vec<NodeId>, round: u64) -> Self {
        self.partitions.push(NetPartition {
            members: group,
            at_round: round,
            detect_delay: 0,
        });
        self
    }

    /// Heal `group`'s boundary at `round` (every severed crossing link
    /// returns to service).
    pub fn heal_partition(mut self, group: Vec<NodeId>, round: u64) -> Self {
        self.partition_heals.push(PartitionHeal {
            members: group,
            at_round: round,
        });
        self
    }

    /// `true` if the plan contains no faults of any kind.
    pub fn is_failure_free(&self) -> bool {
        self.msg_loss_prob == 0.0
            && self.bit_flip_prob == 0.0
            && self.burst.is_none()
            && self.link_failures.is_empty()
            && self.node_crashes.is_empty()
            && self.link_heals.is_empty()
            && self.node_restarts.is_empty()
            && self.partitions.is_empty()
            && self.partition_heals.is_empty()
    }

    /// Check the plan: every rate must be a probability, link events
    /// must name real edges, node events (and partition members) real
    /// nodes.
    /// Run by [`Simulator::try_with_options`](crate::Simulator::try_with_options)
    /// so a typo'd plan is a typed [`SimConfigError`] at construction
    /// time, not a silent no-op or a fire-time panic.
    pub fn validate(&self, graph: &Graph) -> Result<(), SimConfigError> {
        check_probability("msg_loss_prob", self.msg_loss_prob)?;
        check_probability("bit_flip_prob", self.bit_flip_prob)?;
        if let Some(b) = self.burst {
            b.validate()?;
        }
        let nodes = graph.len();
        let check_node = |node: NodeId| {
            if (node as usize) < nodes {
                Ok(())
            } else {
                Err(SimConfigError::FaultNodeOutOfRange { node, nodes })
            }
        };
        let check_link = |a: NodeId, b: NodeId| {
            check_node(a)?;
            check_node(b)?;
            if graph.has_edge(a, b) {
                Ok(())
            } else {
                Err(SimConfigError::FaultLinkMissing { a, b })
            }
        };
        for f in &self.link_failures {
            check_link(f.a, f.b)?;
        }
        for h in &self.link_heals {
            check_link(h.a, h.b)?;
        }
        for c in &self.node_crashes {
            check_node(c.node)?;
        }
        for r in &self.node_restarts {
            check_node(r.node)?;
        }
        for p in &self.partitions {
            for &m in &p.members {
                check_node(m)?;
            }
        }
        for p in &self.partition_heals {
            for &m in &p.members {
                check_node(m)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_corruption_flips_one_bit() {
        let mut x = 1.0f64;
        x.flip_bit(63);
        assert_eq!(x, -1.0);
    }

    #[test]
    fn vec_corruption_addresses_elements() {
        let mut v = vec![1.0f64, 2.0];
        assert_eq!(v.corruptible_bits(), 128);
        v.flip_bit(63); // sign of element 0
        assert_eq!(v, vec![-1.0, 2.0]);
        v.flip_bit(64 + 63); // sign of element 1
        assert_eq!(v, vec![-1.0, -2.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn vec_corruption_out_of_range() {
        vec![1.0f64].flip_bit(64);
    }

    #[test]
    fn pair_corruption_splits_bits() {
        let mut p = (0u64, 0u64);
        p.flip_bit(0);
        p.flip_bit(64);
        assert_eq!(p, (1, 1));
    }

    #[test]
    fn unit_is_incorruptible() {
        assert_eq!(().corruptible_bits(), 0);
    }

    #[test]
    fn plan_builders() {
        let p = FaultPlan::none().fail_link(1, 2, 10).crash_node(3, 20);
        assert_eq!(p.link_failures.len(), 1);
        assert_eq!(p.node_crashes.len(), 1);
        assert!(!p.is_failure_free());
        assert!(FaultPlan::none().is_failure_free());
    }

    #[test]
    fn heal_and_restart_builders() {
        let p = FaultPlan::none()
            .fail_link(1, 2, 10)
            .heal_link(1, 2, 30)
            .crash_node(3, 20)
            .restart_node(3, 50);
        assert_eq!(
            p.link_heals,
            vec![LinkHeal {
                a: 1,
                b: 2,
                at_round: 30
            }]
        );
        assert_eq!(
            p.node_restarts,
            vec![NodeRestart {
                node: 3,
                at_round: 50
            }]
        );
        assert!(!FaultPlan::none().heal_link(0, 1, 5).is_failure_free());
        assert!(!FaultPlan::none().restart_node(0, 5).is_failure_free());
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn bad_loss_probability() {
        let _ = FaultPlan::with_loss(1.5);
    }

    #[test]
    fn burst_and_partition_builders() {
        let p = FaultPlan::none()
            .with_burst(0.05, 0.3, 0.9)
            .partition(vec![0, 1], 10)
            .heal_partition(vec![0, 1], 40);
        assert_eq!(
            p.burst,
            Some(BurstModel {
                enter: 0.05,
                exit: 0.3,
                loss: 0.9
            })
        );
        assert_eq!(p.partitions[0].members, vec![0, 1]);
        assert_eq!(p.partitions[0].at_round, 10);
        assert_eq!(p.partition_heals[0].at_round, 40);
        assert!(!p.is_failure_free());
        assert!(!FaultPlan::none()
            .with_burst(0.1, 0.5, 1.0)
            .is_failure_free());
        assert!(!FaultPlan::none().partition(vec![2], 1).is_failure_free());
    }

    #[test]
    #[should_panic(expected = "burst exit probability")]
    fn bad_burst_probability() {
        let _ = FaultPlan::none().with_burst(0.1, 1.5, 0.9);
    }

    #[test]
    fn validate_checks_topology_bounds() {
        let g = gr_topology::bus(3); // 0-1-2
        assert_eq!(FaultPlan::none().validate(&g), Ok(()));
        assert_eq!(FaultPlan::none().fail_link(0, 1, 5).validate(&g), Ok(()));
        assert_eq!(
            FaultPlan::none().fail_link(0, 2, 5).validate(&g),
            Err(SimConfigError::FaultLinkMissing { a: 0, b: 2 })
        );
        assert_eq!(
            FaultPlan::none().heal_link(1, 7, 5).validate(&g),
            Err(SimConfigError::FaultNodeOutOfRange { node: 7, nodes: 3 })
        );
        assert_eq!(
            FaultPlan::none().crash_node(3, 5).validate(&g),
            Err(SimConfigError::FaultNodeOutOfRange { node: 3, nodes: 3 })
        );
        assert_eq!(
            FaultPlan::none().restart_node(9, 5).validate(&g),
            Err(SimConfigError::FaultNodeOutOfRange { node: 9, nodes: 3 })
        );
        assert_eq!(
            FaultPlan::none().partition(vec![0, 5], 5).validate(&g),
            Err(SimConfigError::FaultNodeOutOfRange { node: 5, nodes: 3 })
        );
        assert_eq!(
            FaultPlan::none().heal_partition(vec![4], 5).validate(&g),
            Err(SimConfigError::FaultNodeOutOfRange { node: 4, nodes: 3 })
        );
        // Display carries enough to act on.
        let e = SimConfigError::FaultLinkMissing { a: 0, b: 2 };
        assert!(e.to_string().contains("nonexistent link (0, 2)"));
        let e = SimConfigError::FaultNodeOutOfRange { node: 9, nodes: 3 };
        assert!(e.to_string().contains("node 9"));
        assert!(e.to_string().contains("3 nodes"));
    }
}
