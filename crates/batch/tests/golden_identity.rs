//! Batch-of-1 byte-identity pins against the classic engine's golden
//! schedule hashes.
//!
//! `crates/netsim/tests/golden_schedule.rs` pins `(seed → event-sequence
//! hash)` constants for the single-run `Simulator`. The batch executor
//! promises that a batch of one tenant replays that engine *exactly* —
//! same schedule draws, same fault draws, same payload bits, same
//! detection callbacks, same transport counters. These tests drive
//! [`BatchSim`] through the identical event hasher and assert the very
//! same constants (for every pin in the supported regime: synchronous
//! activation, zero delay, oracle detector).
//!
//! A second family runs *mixed* batches and checks that each tenant's
//! event stream — with node ids mapped back to tenant-local — still
//! reproduces its standalone constant, pinning tenant isolation at the
//! event-sequence level.

use gr_batch::{BatchHost, BatchOptions, BatchSim, TenantProtocol, TenantSpec};
use gr_netsim::{FaultPlan, LinkFailure, NodeCrash, Protocol, SimStats};
use gr_topology::{complete, hypercube, ring, Graph, NodeId};

/// FNV-1a, identical to the netsim golden tests.
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

/// Per-tenant event hasher over the union graph: every protocol-visible
/// event is routed to its tenant's stream with node ids mapped back to
/// tenant-local, so each stream is byte-comparable with a standalone
/// run. Message payloads carry the *local* sender id (as the classic
/// hasher's do), keeping corruption draws pinned too.
struct TenantHasher {
    /// Exclusive node-block ends, ascending — node → tenant by search.
    ends: Vec<NodeId>,
    bases: Vec<NodeId>,
    h: Vec<Fnv>,
}

impl TenantHasher {
    fn new(host: &BatchHost) -> Self {
        let ends: Vec<NodeId> = (0..host.tenant_count())
            .map(|t| host.tenant_nodes(t).end)
            .collect();
        let bases = (0..host.tenant_count())
            .map(|t| host.tenant_nodes(t).start)
            .collect();
        let h = (0..host.tenant_count()).map(|_| Fnv::new()).collect();
        TenantHasher { ends, bases, h }
    }

    #[inline]
    fn tenant(&self, node: NodeId) -> usize {
        self.ends.partition_point(|&e| e <= node)
    }
}

impl Protocol for TenantHasher {
    type Msg = f64;
    fn on_send(&mut self, node: NodeId, target: NodeId) -> f64 {
        let t = self.tenant(node);
        let b = self.bases[t];
        self.h[t].byte(b'S');
        self.h[t].u32(node - b);
        self.h[t].u32(target - b);
        (node - b) as f64
    }
    fn on_receive(&mut self, node: NodeId, from: NodeId, msg: &mut f64) {
        let t = self.tenant(node);
        let b = self.bases[t];
        self.h[t].byte(b'R');
        self.h[t].u32(node - b);
        self.h[t].u32(from - b);
        self.h[t].u64(msg.to_bits());
    }
    fn on_link_failed(&mut self, node: NodeId, neighbor: NodeId) {
        let t = self.tenant(node);
        let b = self.bases[t];
        self.h[t].byte(b'F');
        self.h[t].u32(node - b);
        self.h[t].u32(neighbor - b);
    }
    fn on_suspect(&mut self, node: NodeId, neighbor: NodeId) {
        let t = self.tenant(node);
        let b = self.bases[t];
        self.h[t].byte(b'U');
        self.h[t].u32(node - b);
        self.h[t].u32(neighbor - b);
    }
    fn on_rehabilitate(&mut self, node: NodeId, neighbor: NodeId) {
        let t = self.tenant(node);
        let b = self.bases[t];
        self.h[t].byte(b'H');
        self.h[t].u32(node - b);
        self.h[t].u32(neighbor - b);
    }
    fn on_restart(&mut self, node: NodeId) {
        let t = self.tenant(node);
        let b = self.bases[t];
        self.h[t].byte(b'T');
        self.h[t].u32(node - b);
    }
    fn on_neighbor_restarted(&mut self, node: NodeId, neighbor: NodeId) {
        let t = self.tenant(node);
        let b = self.bases[t];
        self.h[t].byte(b'N');
        self.h[t].u32(node - b);
        self.h[t].u32(neighbor - b);
    }
}

impl TenantProtocol for TenantHasher {
    fn estimate(&self, _node: NodeId) -> f64 {
        0.0
    }
    fn update_local_value(&mut self, _node: NodeId, _value: f64) {}
}

/// Fold tenant `t`'s transport counters exactly as the classic
/// `run_hash` does, closing the hash.
fn fold_stats(h: &mut Fnv, s: SimStats) {
    for v in [s.sent, s.delivered, s.lost_random, s.lost_dead, s.bit_flips] {
        h.u64(v);
    }
}

/// Run `specs` as one batch for `rounds` rounds and return the closed
/// per-tenant hashes.
fn batch_hashes(specs: Vec<TenantSpec>, rounds: u64) -> Vec<u64> {
    let host = BatchHost::assemble(&specs).expect("valid batch");
    let hasher = TenantHasher::new(&host);
    let mut sim =
        BatchSim::new(&host, hasher, &specs, BatchOptions::default()).expect("valid options");
    sim.run(rounds);
    (0..specs.len())
        .map(|t| {
            let stats = sim.tenant_stats(t);
            let mut h = std::mem::replace(&mut sim.protocol_mut().h[t], Fnv::new());
            fold_stats(&mut h, stats);
            h.0
        })
        .collect()
}

fn batch_of_one(graph: Graph, plan: FaultPlan, seed: u64, rounds: u64) -> u64 {
    let n = graph.len();
    let spec = TenantSpec {
        graph,
        seed,
        plan,
        values: vec![0.0; n],
        max_rounds: rounds,
    };
    batch_hashes(vec![spec], rounds)[0]
}

/// The netsim golden tests' fault plan, verbatim: two link failures (one
/// pair listed out of round order, plus a same-round pair pinning stable
/// firing order), a delayed-detection crash, and both probabilistic
/// fault classes.
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

fn heal_plan() -> FaultPlan {
    FaultPlan::none()
        .fail_link(0, 1, 20)
        .fail_link(2, 6, 20)
        .heal_link(0, 1, 90)
        .heal_link(2, 6, 140)
}

fn restart_plan() -> FaultPlan {
    FaultPlan::none().crash_node(5, 30).restart_node(5, 110)
}

/// The netsim golden tests' churn plan, verbatim: partition cut + heal,
/// bursts on top of i.i.d. loss, and a link heal in the same round as a
/// node restart.
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

// ---- batch-of-1: every sync/zero-delay/oracle pin, same constants ----

#[test]
fn golden_sync_ring_fault_free() {
    assert_eq!(
        batch_of_one(ring(32), FaultPlan::none(), 42, 300),
        0xd266358f85ce5f31
    );
}

#[test]
fn golden_sync_complete_fault_free() {
    assert_eq!(
        batch_of_one(complete(16), FaultPlan::none(), 7, 300),
        0xeb896ff87e44e615
    );
}

#[test]
fn golden_sync_hypercube_fault_free() {
    assert_eq!(
        batch_of_one(hypercube(6), FaultPlan::none(), 9, 300),
        0x9b3917a34bfdc941
    );
}

#[test]
fn golden_sync_hypercube_faulty() {
    assert_eq!(
        batch_of_one(hypercube(6), faulty_plan(), 9, 300),
        0xfeeca303de40f051
    );
}

#[test]
fn golden_sync_ring_faulty() {
    assert_eq!(
        batch_of_one(ring(32), faulty_plan(), 42, 300),
        0x94ca750f639101b7
    );
}

#[test]
fn golden_sync_link_heal() {
    assert_eq!(
        batch_of_one(hypercube(4), heal_plan(), 11, 200),
        0xa93b8e731fb7c51d
    );
}

#[test]
fn golden_sync_node_restart() {
    assert_eq!(
        batch_of_one(hypercube(4), restart_plan(), 19, 200),
        0x59ba996945a1c04c
    );
}

#[test]
fn golden_sync_churn() {
    assert_eq!(
        batch_of_one(hypercube(6), churn_plan(), 9, 300),
        0x7edbd2ef436c438b
    );
}

// ---- mixed batches: every tenant still hits its standalone pin ----

#[test]
fn mixed_batch_tenants_reproduce_standalone_pins() {
    let specs = vec![
        TenantSpec {
            graph: ring(32),
            seed: 42,
            plan: FaultPlan::none(),
            values: vec![0.0; 32],
            max_rounds: 300,
        },
        TenantSpec {
            graph: hypercube(6),
            seed: 9,
            plan: faulty_plan(),
            values: vec![0.0; 64],
            max_rounds: 300,
        },
        TenantSpec {
            graph: complete(16),
            seed: 7,
            plan: FaultPlan::none(),
            values: vec![0.0; 16],
            max_rounds: 300,
        },
    ];
    assert_eq!(
        batch_hashes(specs, 300),
        vec![0xd266358f85ce5f31, 0xfeeca303de40f051, 0xeb896ff87e44e615]
    );
}

#[test]
fn mixed_batch_with_heals_and_restarts_reproduces_pins() {
    // Tenants with different round budgets: the hc4 tenants stop at 200
    // while their neighbors run to 300 — per-tenant budgets must not
    // bleed into each other.
    let specs = vec![
        TenantSpec {
            graph: hypercube(4),
            seed: 11,
            plan: heal_plan(),
            values: vec![0.0; 16],
            max_rounds: 200,
        },
        TenantSpec {
            graph: ring(32),
            seed: 42,
            plan: faulty_plan(),
            values: vec![0.0; 32],
            max_rounds: 300,
        },
        TenantSpec {
            graph: hypercube(4),
            seed: 19,
            plan: restart_plan(),
            values: vec![0.0; 16],
            max_rounds: 200,
        },
        TenantSpec {
            graph: hypercube(6),
            seed: 9,
            plan: FaultPlan::none(),
            values: vec![0.0; 64],
            max_rounds: 300,
        },
        TenantSpec {
            graph: hypercube(6),
            seed: 9,
            plan: churn_plan(),
            values: vec![0.0; 64],
            max_rounds: 300,
        },
    ];
    assert_eq!(
        batch_hashes(specs, 300),
        vec![
            0xa93b8e731fb7c51d,
            0x94ca750f639101b7,
            0x59ba996945a1c04c,
            0x9b3917a34bfdc941,
            0x7edbd2ef436c438b,
        ]
    );
}
