//! Property test: a scalar run and a dim-1 `Vec<f64>` run are the same
//! run.
//!
//! Every payload op lowers to the same slice-wise f64 loops, and a scalar
//! is a one-component slice; a bit flip addresses the same 64 value bits
//! in both. This test pins that claim end to end: full simulations over
//! both payload types, same topology / seed / fault plan, must produce
//! bit-identical estimate streams and transport counters on every
//! checkpoint.

use gr_netsim::{FaultPlan, Simulator};
use gr_reduction::{
    AggregateKind, FlowUpdating, InitialData, Payload, PhiMode, PushCancelFlow, PushFlow, PushSum,
    ReductionProtocol,
};
use gr_topology::{complete, hypercube, ring, Graph};
use proptest::prelude::*;
use rand::prelude::*;

/// FNV-1a fold step over raw bytes.
fn mix(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Shared random per-node values — the single source both payload types
/// are built from, so any divergence is the payload's fault.
fn values(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random::<f64>()).collect()
}

/// The fault-plan sweep: failure-free, probabilistic loss, payload bit
/// flips, and a scheduled link failure + node crash combination.
fn fault_plan(kind: usize, graph: &Graph) -> FaultPlan {
    match kind {
        0 => FaultPlan::none(),
        1 => FaultPlan::with_loss(0.1),
        2 => FaultPlan {
            bit_flip_prob: 1e-3,
            ..FaultPlan::default()
        },
        _ => {
            let nbr = graph.neighbors(0)[0];
            FaultPlan::with_loss(0.05)
                .fail_link(0, nbr, 50)
                .crash_node(1, 60)
        }
    }
}

/// Run 300 rounds, folding every alive node's estimate bits at each
/// 50-round checkpoint plus the final transport counters into one hash.
fn run_hash<Pr: ReductionProtocol>(graph: &Graph, protocol: Pr, plan: FaultPlan, seed: u64) -> u64 {
    let mut sim = Simulator::new(graph, protocol, plan, seed);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut buf = [0.0];
    for round in 1..=300u32 {
        sim.step();
        if round % 50 == 0 {
            for node in sim.alive_nodes() {
                sim.protocol().write_estimate(node, &mut buf);
                for &x in &buf {
                    mix(&mut h, &x.to_bits().to_le_bytes());
                }
            }
        }
    }
    mix(&mut h, format!("{:?}", sim.stats()).as_bytes());
    h
}

fn pcf_hardened<'a, P: Payload>(g: &'a Graph, d: &InitialData<P>) -> PushCancelFlow<'a, P> {
    PushCancelFlow::with_mode(g, d, PhiMode::Hardened)
}

/// One full equivalence check: both payload types through every
/// algorithm, identical run hashes required.
fn check_equiv(topo: usize, seed: u64, fault: usize) -> Result<(), TestCaseError> {
    let graph = match topo {
        0 => complete(8),
        1 => hypercube(4),
        _ => ring(12),
    };
    let scalars = values(graph.len(), seed);
    let data_scalar: InitialData<f64> =
        InitialData::with_kind(scalars.clone(), AggregateKind::Average);
    let data_vec: InitialData<Vec<f64>> = InitialData::with_kind(
        scalars.into_iter().map(|x| vec![x]).collect(),
        AggregateKind::Average,
    );
    macro_rules! check {
        ($make:path, $label:expr) => {{
            let a = run_hash(
                &graph,
                $make(&graph, &data_scalar),
                fault_plan(fault, &graph),
                seed,
            );
            let b = run_hash(
                &graph,
                $make(&graph, &data_vec),
                fault_plan(fault, &graph),
                seed,
            );
            prop_assert_eq!(
                a,
                b,
                "{} diverged: topo={} seed={} fault={}",
                $label,
                topo,
                seed,
                fault
            );
        }};
    }
    check!(PushSum::new, "push-sum");
    check!(PushFlow::new, "PF");
    check!(PushCancelFlow::new, "PCF");
    check!(pcf_hardened, "PCF-hardened");
    check!(FlowUpdating::new, "FU");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn scalar_runs_are_bit_identical_to_dim1_vec(
        topo in 0usize..3,
        seed in 0u64..1_000_000,
        fault in 0usize..4,
    ) {
        check_equiv(topo, seed, fault)?;
    }
}

/// Deterministic pin under the multi-fault plan.
#[test]
fn scalar_and_dim1_vec_agree_under_faults() {
    check_equiv(1, 42, 3).unwrap();
}
