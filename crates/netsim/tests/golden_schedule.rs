//! Golden-schedule pins: `(seed → event-sequence hash)` must never change.
//!
//! The hot-loop refactors promise *byte-identical* executions: the same
//! seed must produce the same schedule (who talks to whom, in order), the
//! same deliveries (including payload bits, so corruption draws are
//! pinned too) and the same failure-detection callbacks, before and after
//! any optimisation. These tests hash the full event sequence through a
//! protocol shim and compare against constants captured on the
//! pre-refactor simulator. If one fails, the change being tested altered
//! the execution — a correctness bug under this crate's determinism
//! contract, not a tuning matter.

use gr_netsim::{
    Activation, DelayModel, DetectorModel, FaultPlan, LinkFailure, NodeCrash, Protocol, SimOptions,
    Simulator,
};
use gr_topology::{complete, hypercube, ring, Graph, NodeId};

/// FNV-1a, folded over the tagged event stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }
    fn u32(&mut self, v: u32) {
        v.to_le_bytes().into_iter().for_each(|b| self.byte(b));
    }
    fn u64(&mut self, v: u64) {
        v.to_le_bytes().into_iter().for_each(|b| self.byte(b));
    }
}

/// Hashes every protocol-visible event in order: sends (`S`), deliveries
/// with payload bits (`R`), failure detections (`F`), timeout suspicions
/// (`U`), rehabilitations (`H`), restarts (`T`) and neighbor-restart
/// notifications (`N`). Messages carry the sender id, so corruption
/// draws change the hash too.
struct EventHasher(Fnv);

impl Protocol for EventHasher {
    type Msg = f64;
    fn on_send(&mut self, node: NodeId, target: NodeId) -> f64 {
        self.0.byte(b'S');
        self.0.u32(node);
        self.0.u32(target);
        node as f64
    }
    fn on_receive(&mut self, node: NodeId, from: NodeId, msg: &mut f64) {
        self.0.byte(b'R');
        self.0.u32(node);
        self.0.u32(from);
        self.0.u64(msg.to_bits());
    }
    fn on_link_failed(&mut self, node: NodeId, neighbor: NodeId) {
        self.0.byte(b'F');
        self.0.u32(node);
        self.0.u32(neighbor);
    }
    fn on_suspect(&mut self, node: NodeId, neighbor: NodeId) {
        self.0.byte(b'U');
        self.0.u32(node);
        self.0.u32(neighbor);
    }
    fn on_rehabilitate(&mut self, node: NodeId, neighbor: NodeId) {
        self.0.byte(b'H');
        self.0.u32(node);
        self.0.u32(neighbor);
    }
    fn on_restart(&mut self, node: NodeId) {
        self.0.byte(b'T');
        self.0.u32(node);
    }
    fn on_neighbor_restarted(&mut self, node: NodeId, neighbor: NodeId) {
        self.0.byte(b'N');
        self.0.u32(node);
        self.0.u32(neighbor);
    }
}

fn run_hash(graph: &Graph, plan: FaultPlan, seed: u64, options: SimOptions, rounds: u64) -> u64 {
    let mut sim = Simulator::with_options(graph, EventHasher(Fnv::new()), plan, seed, options);
    sim.run(rounds);
    let mut h = std::mem::replace(&mut sim.protocol_mut().0, Fnv::new());
    // Fold the transport counters in as well: stats must stay identical,
    // not merely the protocol-visible sequence.
    let s = sim.stats();
    for v in [s.sent, s.delivered, s.lost_random, s.lost_dead, s.bit_flips] {
        h.u64(v);
    }
    h.0
}

/// Like [`run_hash`], but also folds in the failure-detector counters —
/// used by the suspicion/heal/restart pins, where the detector traffic
/// (including liveness probes on suspected arcs) is part of the pinned
/// behaviour. A separate fold list keeps the pre-detector pins intact.
fn run_hash_detector(
    graph: &Graph,
    plan: FaultPlan,
    seed: u64,
    options: SimOptions,
    rounds: u64,
) -> u64 {
    let mut sim = Simulator::with_options(graph, EventHasher(Fnv::new()), plan, seed, options);
    sim.run(rounds);
    let mut h = std::mem::replace(&mut sim.protocol_mut().0, Fnv::new());
    let s = sim.stats();
    for v in [
        s.sent,
        s.delivered,
        s.lost_random,
        s.lost_dead,
        s.bit_flips,
        s.suspected,
        s.rehabilitated,
        s.probes_sent,
    ] {
        h.u64(v);
    }
    h.0
}

/// A fault plan exercising every scheduled-event path: two link failures
/// (one pair deliberately listed out of round order, plus a same-round
/// pair to pin stable firing order), a delayed-detection crash, and both
/// probabilistic fault classes.
fn faulty_plan() -> FaultPlan {
    FaultPlan {
        msg_loss_prob: 0.05,
        bit_flip_prob: 0.01,
        link_failures: vec![
            LinkFailure {
                a: 2,
                b: 3,
                at_round: 20,
                detect_delay: 5,
            },
            LinkFailure {
                a: 0,
                b: 1,
                at_round: 10,
                detect_delay: 0,
            },
            LinkFailure {
                a: 4,
                b: 5,
                at_round: 20,
                detect_delay: 5,
            },
        ],
        node_crashes: vec![NodeCrash {
            node: 7,
            at_round: 40,
            detect_delay: 3,
        }],
        ..FaultPlan::none()
    }
}

/// Partition cut + heal, Gilbert–Elliott bursts on top of i.i.d. loss,
/// and a link heal in the same round as a node restart (the heal fires
/// first, so the restart rebuilds its believed set over the healed link).
/// Node ids and the 0–1 edge are valid on every graph the batch tests
/// use, which pin the same constant.
fn churn_plan() -> FaultPlan {
    FaultPlan::with_loss(0.02)
        .with_burst(0.05, 0.3, 0.9)
        .fail_link(0, 1, 4)
        .crash_node(1, 6)
        .partition(vec![2], 10)
        .heal_partition(vec![2], 22)
        .heal_link(0, 1, 28)
        .restart_node(1, 28)
}

fn sync() -> SimOptions {
    SimOptions::default()
}

fn asynchronous() -> SimOptions {
    SimOptions {
        activation: Activation::Asynchronous,
        ..SimOptions::default()
    }
}

#[test]
fn golden_sync_ring_fault_free() {
    assert_eq!(
        run_hash(&ring(32), FaultPlan::none(), 42, sync(), 300),
        0xd266358f85ce5f31
    );
}

#[test]
fn golden_sync_complete_fault_free() {
    assert_eq!(
        run_hash(&complete(16), FaultPlan::none(), 7, sync(), 300),
        0xeb896ff87e44e615
    );
}

#[test]
fn golden_sync_hypercube_fault_free() {
    assert_eq!(
        run_hash(&hypercube(6), FaultPlan::none(), 9, sync(), 300),
        0x9b3917a34bfdc941
    );
}

#[test]
fn golden_sync_hypercube_faulty() {
    assert_eq!(
        run_hash(&hypercube(6), faulty_plan(), 9, sync(), 300),
        0xfeeca303de40f051
    );
}

#[test]
fn golden_sync_ring_faulty() {
    assert_eq!(
        run_hash(&ring(32), faulty_plan(), 42, sync(), 300),
        0x94ca750f639101b7
    );
}

#[test]
fn golden_async_ring_fault_free() {
    assert_eq!(
        run_hash(&ring(32), FaultPlan::none(), 42, asynchronous(), 300),
        0x2b0209983d9c2824
    );
}

#[test]
fn golden_async_complete_faulty() {
    assert_eq!(
        run_hash(&complete(16), faulty_plan(), 5, asynchronous(), 300),
        0x9714f8c45d29f1a4
    );
}

#[test]
fn golden_async_hypercube_crash() {
    let plan = FaultPlan::none().crash_node(11, 50).crash_node(3, 120);
    assert_eq!(
        run_hash(&hypercube(6), plan, 3, asynchronous(), 300),
        0x600385f60cee6b7e
    );
}

#[test]
fn golden_sync_uniform_delay() {
    let opts = SimOptions {
        delay: DelayModel::Uniform { min: 0, max: 4 },
        ..SimOptions::default()
    };
    assert_eq!(
        run_hash(&complete(16), faulty_plan(), 13, opts, 300),
        0x35fb9d4763b15758
    );
}

#[test]
fn golden_sync_timeout_detector() {
    // Delay-induced false suspicions, probe-driven rehabilitation: pins
    // the suspicion scan order, the probe ring discipline and the
    // `U`/`H` hook sequence.
    let opts = SimOptions {
        delay: DelayModel::Uniform { min: 0, max: 4 },
        detector: DetectorModel::Timeout { window: 6 },
        ..SimOptions::default()
    };
    assert_eq!(
        run_hash_detector(&hypercube(4), FaultPlan::none(), 17, opts, 200),
        0x16d9bc9fc874941e
    );
}

#[test]
fn golden_sync_link_heal() {
    // Oracle detection of a scheduled link failure, then a heal: pins the
    // `F` detections and the heal-driven `H` rehabilitations.
    let plan = FaultPlan::none()
        .fail_link(0, 1, 20)
        .fail_link(2, 6, 20)
        .heal_link(0, 1, 90)
        .heal_link(2, 6, 140);
    assert_eq!(
        run_hash(&hypercube(4), plan, 11, sync(), 200),
        0xa93b8e731fb7c51d
    );
}

#[test]
fn golden_sync_node_restart() {
    // Crash then restart under the oracle detector: pins the `T` restart
    // hook, the neighbors' `N` notifications and the believed-set
    // rebuild order.
    let plan = FaultPlan::none().crash_node(5, 30).restart_node(5, 110);
    assert_eq!(
        run_hash(&hypercube(4), plan, 19, sync(), 200),
        0x59ba996945a1c04c
    );
}

#[test]
fn golden_sync_churn() {
    assert_eq!(
        run_hash(&hypercube(6), churn_plan(), 9, sync(), 300),
        0x7edbd2ef436c438b
    );
}

#[test]
fn golden_timeout_churn() {
    // The churn plan under the timeout detector: heals and restarts
    // resume monitoring instead of queueing oracle detections.
    let opts = SimOptions {
        delay: DelayModel::Uniform { min: 0, max: 2 },
        detector: DetectorModel::Timeout { window: 8 },
        ..SimOptions::default()
    };
    assert_eq!(
        run_hash_detector(&hypercube(4), churn_plan(), 31, opts, 200),
        0x73abcede9e569db2
    );
}

#[test]
fn golden_timeout_heal_restart_cross() {
    // The full robustness cross-product: timeout detector + delay + loss,
    // a link failure later healed, and a crash later restarted. Pins the
    // probe/suspicion interleaving against every scheduled-event path.
    let opts = SimOptions {
        delay: DelayModel::Uniform { min: 0, max: 3 },
        detector: DetectorModel::Timeout { window: 8 },
        ..SimOptions::default()
    };
    let plan = FaultPlan {
        msg_loss_prob: 0.02,
        ..FaultPlan::none()
    }
    .fail_link(1, 3, 40)
    .heal_link(1, 3, 120)
    .crash_node(9, 60)
    .restart_node(9, 150);
    assert_eq!(
        run_hash_detector(&hypercube(4), plan, 23, opts, 250),
        0xb985c0e8f816cd6b
    );
}

#[test]
fn golden_sync_fixed_delay_link_death() {
    let opts = SimOptions {
        delay: DelayModel::Fixed(3),
        ..SimOptions::default()
    };
    let plan = FaultPlan::none().fail_link(0, 1, 5).fail_link(2, 3, 5);
    assert_eq!(
        run_hash(&hypercube(4), plan, 21, opts, 200),
        0x420851072cbed04f
    );
}
