//! Partitioned-engine equivalence: thread count must never change results.
//!
//! The partitioned engine's determinism contract (DESIGN §13) is that
//! results are a function of `SimOptions::partitions` only — the worker
//! thread count is purely an execution hint. These tests drive a
//! parallel-safe recording protocol through the partitioned engine and
//! assert the full digest (per-node event folds + transport counters) is
//! byte-identical for every thread count, across topologies, fault
//! plans, the timeout detector, message delay, and (via proptest)
//! arbitrary partition counts. A second group pins partitioned-run hashes as golden
//! constants, and a third checks the typed configuration errors.

use gr_netsim::{
    Activation, DelayModel, DetectorModel, FaultPlan, LinkFailure, LinkHeal, MachineCosts,
    NodeCrash, NodeRestart, PartitionSource, Protocol, SimConfigError, SimOptions, Simulator,
};
use gr_topology::{hypercube, ring, torus2d, Graph, NodeId};
use proptest::prelude::*;

fn mix(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x100_0000_01b3).rotate_left(17);
}

/// Parallel-safe event recorder: every hook folds into the accumulator of
/// its *own* node, so all mutable state is node-owned and the protocol
/// honestly satisfies the [`Protocol::PARALLEL_SAFE`] contract — unlike
/// the golden-schedule `EventHasher`, whose single global hasher is order
/// sensitive and must stay on the sequential path.
struct PartMix {
    acc: Vec<u64>,
    sent: Vec<u64>,
}

impl PartMix {
    fn new(n: usize) -> Self {
        PartMix {
            acc: vec![0; n],
            sent: vec![0; n],
        }
    }

    fn note(&mut self, node: NodeId, tag: u8, a: u64, b: u64) {
        let h = &mut self.acc[node as usize];
        mix(h, tag as u64);
        mix(h, a);
        mix(h, b);
    }
}

impl Protocol for PartMix {
    type Msg = u64;

    // All state is indexed by the hook's own `node`; nothing is shared
    // across partitions, so no `set_partitions` arena sizing is needed.
    const PARALLEL_SAFE: bool = true;

    fn on_send(&mut self, node: NodeId, target: NodeId) -> u64 {
        self.sent[node as usize] += 1;
        let count = self.sent[node as usize];
        self.note(node, b'S', target as u64, count);
        ((node as u64) << 32) | (count & 0xffff_ffff)
    }

    fn on_receive(&mut self, node: NodeId, from: NodeId, msg: &mut u64) {
        self.note(node, b'R', from as u64, *msg);
    }

    fn on_link_failed(&mut self, node: NodeId, neighbor: NodeId) {
        self.note(node, b'F', neighbor as u64, 0);
    }

    fn on_suspect(&mut self, node: NodeId, neighbor: NodeId) {
        self.note(node, b'U', neighbor as u64, 0);
    }

    fn on_rehabilitate(&mut self, node: NodeId, neighbor: NodeId) {
        self.note(node, b'H', neighbor as u64, 0);
    }

    fn on_restart(&mut self, node: NodeId) {
        self.note(node, b'T', 0, 0);
    }

    fn on_neighbor_restarted(&mut self, node: NodeId, neighbor: NodeId) {
        self.note(node, b'N', neighbor as u64, 0);
    }
}

/// Fold the whole observable outcome — per-node event accumulators, send
/// counters and every transport/detector stat — into one digest.
fn digest(sim: &Simulator<PartMix>) -> u64 {
    let p = sim.protocol();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (&a, &s) in p.acc.iter().zip(&p.sent) {
        mix(&mut h, a);
        mix(&mut h, s);
    }
    let s = sim.stats();
    for v in [
        s.rounds,
        s.sent,
        s.delivered,
        s.lost_random,
        s.lost_dead,
        s.bit_flips,
        s.suspected,
        s.rehabilitated,
        s.probes_sent,
    ] {
        mix(&mut h, v);
    }
    h
}

/// Every scheduled-fault class plus both probabilistic ones, on node ids
/// valid for any graph with ≥ 10 nodes.
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
        ],
        node_crashes: vec![NodeCrash {
            node: 7,
            at_round: 40,
            detect_delay: 3,
        }],
        link_heals: vec![LinkHeal {
            a: 0,
            b: 1,
            at_round: 60,
        }],
        node_restarts: vec![NodeRestart {
            node: 7,
            at_round: 80,
        }],
        burst: None,
        partitions: vec![],
        partition_heals: vec![],
    }
}

/// Partition cut + heal, Gilbert–Elliott bursts, and a link heal in the
/// same round as a node restart.
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

fn options(partitions: usize, threads: usize, detector: DetectorModel) -> SimOptions {
    SimOptions {
        partitions,
        threads,
        detector,
        ..SimOptions::default()
    }
}

fn run_digest(graph: &Graph, plan: &FaultPlan, seed: u64, opts: SimOptions, rounds: u64) -> u64 {
    let mut sim =
        Simulator::with_options(graph, PartMix::new(graph.len()), plan.clone(), seed, opts);
    sim.run(rounds);
    digest(&sim)
}

fn timeout() -> DetectorModel {
    DetectorModel::Timeout { window: 8 }
}

/// Messages and liveness probes in flight for up to `max` rounds.
fn delayed(opts: SimOptions, max: u64) -> SimOptions {
    SimOptions {
        delay: DelayModel::Uniform { min: 0, max },
        ..opts
    }
}

#[test]
fn thread_count_never_changes_results() {
    let graphs: Vec<(&str, Graph)> = vec![
        ("hypercube6", hypercube(6)),
        ("ring96", ring(96)),
        ("torus16x16", torus2d(16, 16)),
    ];
    let plan = faulty_plan();
    // Zero delay under both detectors, plus uniform delay with the
    // timeout detector on, so payloads and probes both ride the delay.
    let configs = [(DetectorModel::Oracle, 0), (timeout(), 0), (timeout(), 3)];
    for (name, g) in &graphs {
        for (detector, max_delay) in configs {
            let opts = |threads| match max_delay {
                0 => options(4, threads, detector),
                max => delayed(options(4, threads, detector), max),
            };
            let baseline = run_digest(g, &plan, 42, opts(1), 200);
            for threads in [2, 4, 8] {
                let d = run_digest(g, &plan, 42, opts(threads), 200);
                assert_eq!(
                    d, baseline,
                    "{name}/{detector:?}/delay≤{max_delay}: threads={threads} diverged from threads=1"
                );
            }
        }
    }
}

#[test]
fn every_partition_count_is_thread_invariant() {
    let g = hypercube(6);
    let plan = faulty_plan();
    for partitions in [2, 3, 5, 7, 64] {
        let one = run_digest(&g, &plan, 9, options(partitions, 1, timeout()), 150);
        let many = run_digest(&g, &plan, 9, options(partitions, 4, timeout()), 150);
        assert_eq!(one, many, "partitions={partitions}");
        assert_ne!(one, 0);
    }
}

#[test]
fn partition_count_above_node_count_is_clamped() {
    let g = ring(10);
    let sim = Simulator::with_options(
        &g,
        PartMix::new(10),
        FaultPlan::none(),
        1,
        options(50, 2, DetectorModel::Oracle),
    );
    assert_eq!(sim.partitions(), 10);
}

#[test]
fn auto_partitioning_kicks_in_at_scale_only() {
    let small = ring(4096);
    let sim = Simulator::with_options(
        &small,
        PartMix::new(4096),
        FaultPlan::none(),
        1,
        SimOptions::default(),
    );
    assert_eq!(
        sim.partitions(),
        1,
        "small graphs stay on the classic engine"
    );
    assert_eq!(
        sim.partition_plan().source,
        PartitionSource::SingleStream,
        "below the node floor the cost model is never consulted"
    );
    assert!(sim.partition_plan().model.is_none());

    // At scale with `partitions: 0` the measured model decides. The
    // count depends on this machine (that is the point), but the plan
    // must say so, stay within the engine's bounds, and still run.
    let big = ring(100_000);
    let mut sim = Simulator::with_options(
        &big,
        PartMix::new(100_000),
        FaultPlan::none(),
        1,
        SimOptions::default(),
    );
    let plan = *sim.partition_plan();
    assert_eq!(plan.source, PartitionSource::AutoMeasured);
    assert!((1..=64).contains(&plan.partitions));
    let model = plan.model.expect("auto-measured plans carry their model");
    assert_eq!((model.nodes, model.arcs), (100_000, 200_000));
    assert!(model.predicted_ns > 0.0 && model.predicted_ns <= model.single_stream_ns);
    sim.run(2);
    // Every node sends each round.
    assert!(sim.stats().sent >= 2 * 100_000);
}

/// The cost model itself, pinned with synthetic machine costs so the
/// choice is deterministic regardless of what hardware runs the tests.
#[test]
fn cost_model_choice_is_deterministic_under_fixed_costs() {
    let opts = |threads: usize| SimOptions {
        threads,
        ..SimOptions::default()
    };
    // Cheap coordination, 8 workers: the win from parallel flow work
    // dominates and the model picks more than one partition, but never
    // meaningfully more than the parallelism on offer.
    let cheap_coord = MachineCosts {
        component_ns: 1.0,
        barrier_ns: 50.0,
        job_ns: 5.0,
        lane_ns: 5.0,
    };
    let plan = opts(8).partition_plan_with_costs(1_000_000, 2_000_000, &cheap_coord);
    assert_eq!(plan.source, PartitionSource::AutoMeasured);
    assert!(
        (8..=16).contains(&plan.partitions),
        "8 cheap workers → about 8 partitions, got {}",
        plan.partitions
    );

    // One worker: partitioning buys zero parallel speedup and still
    // pays barriers and the lane sweep — the model must keep p = 1.
    let plan = opts(1).partition_plan_with_costs(1_000_000, 2_000_000, &cheap_coord);
    assert_eq!(plan.partitions, 1);
    assert_eq!(plan.source, PartitionSource::AutoMeasured);

    // Pathologically expensive coordination: even with many workers the
    // overhead swamps the parallel win and the model stays serial.
    let dear_coord = MachineCosts {
        component_ns: 0.01,
        barrier_ns: 1e9,
        job_ns: 1e6,
        lane_ns: 1e6,
    };
    let plan = opts(16).partition_plan_with_costs(1_000_000, 2_000_000, &dear_coord);
    assert_eq!(plan.partitions, 1);

    // Same inputs → same plan, bit for bit (no hidden probe, no RNG).
    let a = opts(8).partition_plan_with_costs(1_000_000, 2_000_000, &cheap_coord);
    let b = opts(8).partition_plan_with_costs(1_000_000, 2_000_000, &cheap_coord);
    assert_eq!(a, b);
}

/// Explicit `partitions: N` bypasses the model entirely: the plan is
/// marked explicit, carries no model, and ignores the machine costs —
/// this is what keeps every pinned fingerprint and golden hash
/// machine-independent.
#[test]
fn explicit_partitions_bypass_the_cost_model() {
    let g = ring(100_000);
    let sim = Simulator::with_options(
        &g,
        PartMix::new(100_000),
        FaultPlan::none(),
        1,
        options(4, 4, DetectorModel::Oracle),
    );
    assert_eq!(sim.partitions(), 4);
    let plan = sim.partition_plan();
    assert_eq!(plan.source, PartitionSource::Explicit);
    assert!(plan.model.is_none(), "explicit plans never probe or model");

    // Even when handed absurd costs, an explicit configuration returns
    // the explicit count — the costs argument is dead on this path.
    let silly = MachineCosts {
        component_ns: 1e12,
        barrier_ns: 1e12,
        job_ns: 1e12,
        lane_ns: 1e12,
    };
    let plan =
        options(4, 4, DetectorModel::Oracle).partition_plan_with_costs(100_000, 200_000, &silly);
    assert_eq!(plan.partitions, 4);
    assert_eq!(plan.source, PartitionSource::Explicit);
    assert!(plan.model.is_none());
}

// ---- pinned partitioned-run hashes ------------------------------------
//
// Like the golden-schedule pins, but for `partitions = 4`: the digest of
// a partitioned run is part of the determinism contract and must never
// drift across refactors. (The constants were captured on the engine
// that still had a reply phase, with a recorder that no longer replies,
// so they pin the push-only round the single engine must reproduce.)

#[test]
fn golden_partitioned_hypercube_faulty() {
    assert_eq!(
        run_digest(
            &hypercube(6),
            &faulty_plan(),
            42,
            options(4, 4, timeout()),
            200
        ),
        GOLDEN_HC6_P4
    );
}

#[test]
fn golden_partitioned_torus_fault_free() {
    assert_eq!(
        run_digest(
            &torus2d(16, 16),
            &FaultPlan::none(),
            7,
            options(4, 4, DetectorModel::Oracle),
            200
        ),
        GOLDEN_TORUS_P4
    );
}

#[test]
fn golden_partitioned_hypercube_churn() {
    for (detector, golden) in [
        (DetectorModel::Oracle, GOLDEN_HC6_P4_CHURN_ORACLE),
        (timeout(), GOLDEN_HC6_P4_CHURN_TIMEOUT),
    ] {
        assert_eq!(
            run_digest(
                &hypercube(6),
                &churn_plan(),
                42,
                options(4, 4, detector),
                200
            ),
            golden
        );
    }
}

const GOLDEN_HC6_P4: u64 = 0x80ea_2985_cc83_3651;
const GOLDEN_TORUS_P4: u64 = 0xb03b_1f7f_edb2_8173;
const GOLDEN_HC6_P4_CHURN_ORACLE: u64 = 0xed42_f360_c695_cd04;
const GOLDEN_HC6_P4_CHURN_TIMEOUT: u64 = 0xda77_fba2_e2bf_4972;

// ---- typed configuration errors ---------------------------------------

#[test]
fn zero_threads_is_a_typed_error() {
    let g = ring(8);
    let err = Simulator::try_with_options(
        &g,
        PartMix::new(8),
        FaultPlan::none(),
        1,
        SimOptions {
            threads: 0,
            ..SimOptions::default()
        },
    )
    .err()
    .expect("threads = 0 must be rejected");
    assert_eq!(err, SimConfigError::ZeroThreads);
}

#[test]
fn partitioned_async_is_a_typed_error() {
    let g = ring(8);
    let err = Simulator::try_with_options(
        &g,
        PartMix::new(8),
        FaultPlan::none(),
        1,
        SimOptions {
            partitions: 2,
            activation: Activation::Asynchronous,
            ..SimOptions::default()
        },
    )
    .err()
    .expect("partitions ≥ 2 under async activation must be rejected");
    assert_eq!(err, SimConfigError::PartitionedAsync);
}

// ---- proptest: thread invariance over random partitionings -------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_partitionings_are_thread_invariant(
        partitions in 1usize..=32,
        seed in 0u64..1_000_000,
        plan_kind in 0u8..3,
        max_delay in 0u64..4,
    ) {
        let g = hypercube(5);
        let plan = match plan_kind {
            0 => FaultPlan::none(),
            1 => faulty_plan(),
            _ => churn_plan(),
        };
        let opts = |threads| match max_delay {
            0 => options(partitions, threads, timeout()),
            max => delayed(options(partitions, threads, timeout()), max),
        };
        let one = run_digest(&g, &plan, seed, opts(1), 60);
        for threads in [3, 8] {
            let d = run_digest(&g, &plan, seed, opts(threads), 60);
            prop_assert_eq!(
                d, one,
                "partitions={}, threads={}, delay≤{}", partitions, threads, max_delay
            );
        }
    }
}
