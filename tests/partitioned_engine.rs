//! Cross-crate partitioned-engine checks: the real reduction protocols
//! (which opt into `PARALLEL_SAFE` with per-partition arenas) must
//! produce bit-identical estimates under any worker-thread count, and
//! the partitioned engine must still converge to the right aggregate
//! under faults.

use gossip_reduce::netsim::{
    DelayModel, DetectorModel, FaultPlan, LinkFailure, NodeCrash, Protocol, SimOptions, Simulator,
};
use gossip_reduce::reduction::{
    AggregateKind, FlowUpdating, InitialData, PushCancelFlow, PushFlow, PushSum, ReductionProtocol,
};
use gossip_reduce::topology::{hypercube, torus2d, Graph};

fn data(n: usize) -> InitialData<f64> {
    InitialData::uniform_random(n, AggregateKind::Average, 42)
}

fn faulty_plan() -> FaultPlan {
    FaultPlan {
        msg_loss_prob: 0.02,
        // (0, 1) is an edge of both the hypercube and the torus.
        link_failures: vec![LinkFailure {
            a: 0,
            b: 1,
            at_round: 15,
            detect_delay: 2,
        }],
        node_crashes: vec![NodeCrash {
            node: 5,
            at_round: 30,
            detect_delay: 4,
        }],
        ..FaultPlan::none()
    }
}

fn options(partitions: usize, threads: usize) -> SimOptions {
    SimOptions {
        partitions,
        threads,
        detector: DetectorModel::Timeout { window: 10 },
        ..SimOptions::default()
    }
}

/// Run `rounds` rounds and return the full per-node estimate vector as
/// raw bits plus the transport stats — the whole observable outcome.
fn run_bits<P>(graph: &Graph, proto: P, opts: SimOptions, rounds: u64) -> (Vec<u64>, String)
where
    P: Protocol + ReductionProtocol,
{
    let mut sim = Simulator::with_options(graph, proto, faulty_plan(), 7, opts);
    sim.run(rounds);
    let bits = sim
        .protocol()
        .scalar_estimates()
        .into_iter()
        .map(f64::to_bits)
        .collect();
    (bits, format!("{:?}", sim.stats()))
}

/// Each parallel-safe protocol: partitions fixed at 4, worker threads
/// swept — estimates and stats must be byte-identical, because thread
/// count is an execution hint and never part of the determinism contract.
#[test]
fn reduction_protocols_are_thread_invariant() {
    let g = hypercube(6);
    let d = data(64);
    let rounds = 120;

    macro_rules! sweep {
        ($name:literal, $make:expr) => {
            let baseline = run_bits(&g, $make, options(4, 1), rounds);
            for threads in [2, 4, 8] {
                let got = run_bits(&g, $make, options(4, threads), rounds);
                assert_eq!(
                    got, baseline,
                    "{} diverged between threads=1 and threads={threads}",
                    $name
                );
            }
        };
    }

    sweep!("push-sum", PushSum::new(&g, &d));
    sweep!("push-flow", PushFlow::new(&g, &d));
    sweep!("push-cancel-flow", PushCancelFlow::new(&g, &d));
    sweep!("flow-updating", FlowUpdating::new(&g, &d));
}

/// PCF on a torus at partitions ∈ {1, 4}, and at 4 with messages and
/// probes delayed up to three rounds: every run must converge to the
/// true average despite loss, a dead link and a crash. (The partition
/// counts draw from different RNG streams, so the *runs* differ — the
/// *limit* must not.)
#[test]
fn pcf_converges_under_partitioned_engine() {
    let g = torus2d(8, 8);
    let d = data(64);
    let total_v: f64 = (0..64).map(|i| *d.value(i)).sum();
    let total_w: f64 = (0..64).map(|i| d.weight(i)).sum();

    let delayed = DelayModel::Uniform { min: 0, max: 3 };
    for (partitions, delay) in [(1, DelayModel::None), (4, DelayModel::None), (4, delayed)] {
        let opts = SimOptions {
            delay,
            ..options(partitions, 4)
        };
        let mut sim =
            Simulator::with_options(&g, PushCancelFlow::new(&g, &d), faulty_plan(), 7, opts);
        // Node 5 crashes at the start of round 30 and never restarts.
        // Exactly how much mass dies with it depends on the flow desync
        // at the excision instant, so the precise limit is run-specific;
        // what PCF guarantees is that the survivors reach *consensus*
        // despite the loss, the dead link and the suspicion churn, on a
        // value close to the original average (one node's worth of mass
        // perturbs a 64-node average by little).
        sim.run(4000);
        let ests = sim.protocol().scalar_estimates();
        let survivors: Vec<f64> = ests
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != 5)
            .map(|(_, &e)| e)
            .collect();
        let mean = survivors.iter().sum::<f64>() / survivors.len() as f64;
        for (i, e) in survivors.iter().enumerate() {
            let rel = ((e - mean) / mean).abs();
            assert!(
                rel < 1e-9,
                "partitions={partitions}, {delay:?}: node {i} est {e} off consensus {mean} (rel {rel})"
            );
        }
        let true_avg = total_v / total_w;
        assert!(
            ((mean - true_avg) / true_avg).abs() < 0.05,
            "partitions={partitions}, {delay:?}: consensus {mean} far from true average {true_avg}"
        );
    }
}

/// The partitioned fast path must stay allocation-free per round once
/// warmed up, matching the classic engine's guarantee: all lane and
/// arena capacity is retained across rounds.
#[test]
fn partitioned_rounds_reuse_lane_capacity() {
    let g = hypercube(6);
    let d = data(64);
    let mut sim = Simulator::with_options(
        &g,
        PushCancelFlow::new(&g, &d),
        FaultPlan::none(),
        3,
        options(4, 2),
    );
    // Warm up, then confirm a long steady-state run keeps working and
    // the estimate stays finite (the alloc-count gate itself lives in
    // the bench suite, which runs under the counting allocator).
    sim.run(50);
    let warm = sim.stats().sent;
    sim.run(500);
    assert!(sim.stats().sent > warm);
    for e in sim.protocol().scalar_estimates() {
        assert!(e.is_finite());
    }
}
