//! Batch determinism contracts on the real flow protocols.
//!
//! Three properties, per ISSUE/DESIGN §15:
//!
//! 1. **Batch-of-1 ≡ single-run engine** — a one-tenant batch produces
//!    the same transport counters and bit-identical per-node estimates
//!    as a classic [`Simulator`] run of the same spec.
//! 2. **Composition invariance** — a tenant's results do not change when
//!    other tenants join the batch, or when the batch order is permuted.
//! 3. **Thread invariance** — worker count is an execution hint only;
//!    results are byte-identical for every `threads` value.

use gr_batch::{BatchConfigError, BatchHost, BatchOptions, BatchSim, TenantSpec};
use gr_netsim::{FaultPlan, LinkFailure, NodeCrash, SimStats, Simulator};
use gr_reduction::{
    AggregateKind, FlowUpdating, InitialData, PushCancelFlow, PushFlow, ReductionProtocol,
};
use gr_topology::{complete, hypercube, ring, Graph};
use proptest::prelude::*;

/// A tenant's observable outcome: transport counters plus the exact bit
/// pattern of every node's estimate.
type Fingerprint = (SimStats, Vec<u64>);

fn lossy_plan() -> FaultPlan {
    FaultPlan {
        msg_loss_prob: 0.08,
        bit_flip_prob: 0.02,
        ..FaultPlan::none()
    }
}

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
/// and a link heal in the same round as a node restart. Node ids and the
/// 0–1 edge are valid on every graph these tests build.
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

/// Run `specs` as one PCF batch with `threads` workers and fingerprint
/// every tenant.
fn run_batch(specs: &[TenantSpec], threads: usize, rounds: u64) -> Vec<Fingerprint> {
    let host = BatchHost::assemble(specs).expect("valid batch");
    let data = host.union_data(specs);
    let pcf = PushCancelFlow::new(host.graph(), &data);
    let opts = BatchOptions {
        threads,
        ..BatchOptions::default()
    };
    let mut sim = BatchSim::new(&host, pcf, specs, opts).expect("valid options");
    sim.run(rounds);
    (0..specs.len())
        .map(|t| {
            let n = specs[t].graph.len() as u32;
            let bits = (0..n)
                .map(|i| sim.tenant_estimate(t, i).to_bits())
                .collect();
            (sim.tenant_stats(t), bits)
        })
        .collect()
}

/// Classic-engine reference run of one spec.
fn run_classic_pcf(spec: &TenantSpec, rounds: u64) -> Fingerprint {
    let data = InitialData::with_kind(spec.values.clone(), AggregateKind::Average);
    let pcf = PushCancelFlow::new(&spec.graph, &data);
    let mut sim = Simulator::new(&spec.graph, pcf, spec.plan.clone(), spec.seed);
    sim.run(rounds);
    let bits = (0..spec.graph.len() as u32)
        .map(|i| sim.protocol().scalar_estimate(i).to_bits())
        .collect();
    (sim.stats(), bits)
}

fn ramp(n: usize) -> Vec<f64> {
    (0..n).map(|i| i as f64).collect()
}

#[test]
fn pcf_batch_of_one_matches_simulator_fault_free() {
    let spec = TenantSpec::clean(hypercube(6), 9, ramp(64), 300);
    assert_eq!(
        run_batch(std::slice::from_ref(&spec), 1, 300)[0],
        run_classic_pcf(&spec, 300)
    );
}

#[test]
fn pcf_batch_of_one_matches_simulator_faulty() {
    for plan in [faulty_plan(), churn_plan()] {
        let spec = TenantSpec {
            graph: hypercube(6),
            seed: 9,
            plan,
            values: ramp(64),
            max_rounds: 300,
        };
        assert_eq!(
            run_batch(std::slice::from_ref(&spec), 1, 300)[0],
            run_classic_pcf(&spec, 300)
        );
    }
}

#[test]
fn pf_and_fu_batch_of_one_match_simulator() {
    // The other two flow protocols ride the same TenantProtocol impl:
    // spot-check both against the classic engine under loss + flips.
    let graph = hypercube(4);
    let spec = TenantSpec {
        graph: graph.clone(),
        seed: 23,
        plan: lossy_plan(),
        values: ramp(16),
        max_rounds: 150,
    };
    let specs = [spec.clone()];
    let host = BatchHost::assemble(&specs).unwrap();
    let data = host.union_data(&specs);

    let pf = PushFlow::new(host.graph(), &data);
    let mut bsim = BatchSim::new(&host, pf, &specs, BatchOptions::default()).unwrap();
    bsim.run(150);
    let ref_data = InitialData::with_kind(spec.values.clone(), AggregateKind::Average);
    let mut csim = Simulator::new(
        &graph,
        PushFlow::new(&graph, &ref_data),
        spec.plan.clone(),
        spec.seed,
    );
    csim.run(150);
    assert_eq!(bsim.tenant_stats(0), csim.stats());
    for i in 0..16u32 {
        assert_eq!(
            bsim.tenant_estimate(0, i).to_bits(),
            csim.protocol().scalar_estimate(i).to_bits()
        );
    }

    let fu = FlowUpdating::new(host.graph(), &data);
    let mut bsim = BatchSim::new(&host, fu, &specs, BatchOptions::default()).unwrap();
    bsim.run(150);
    let mut csim = Simulator::new(
        &graph,
        FlowUpdating::new(&graph, &ref_data),
        spec.plan.clone(),
        spec.seed,
    );
    csim.run(150);
    assert_eq!(bsim.tenant_stats(0), csim.stats());
    for i in 0..16u32 {
        assert_eq!(
            bsim.tenant_estimate(0, i).to_bits(),
            csim.protocol().scalar_estimate(i).to_bits()
        );
    }
}

#[test]
fn tenant_results_invariant_to_batch_neighbors_and_threads() {
    let a = TenantSpec::clean(hypercube(4), 5, ramp(16), 120);
    let b = TenantSpec {
        graph: ring(24),
        seed: 77,
        plan: lossy_plan(),
        values: ramp(24),
        max_rounds: 120,
    };
    let c = TenantSpec {
        graph: complete(8),
        seed: 3,
        plan: FaultPlan::none().crash_node(2, 15),
        values: ramp(8),
        max_rounds: 120,
    };
    let solo: Vec<Fingerprint> = [&a, &b, &c]
        .iter()
        .map(|s| run_batch(std::slice::from_ref(*s), 1, 120).remove(0))
        .collect();
    // Every ordering, every worker count: identical per-tenant results.
    let abc = [a.clone(), b.clone(), c.clone()];
    let cba = [c, b, a];
    for threads in [1, 2, 4] {
        let got = run_batch(&abc, threads, 120);
        assert_eq!(got, solo, "order abc, threads {threads}");
        let got = run_batch(&cba, threads, 120);
        assert_eq!(got[2], solo[0], "order cba, threads {threads}");
        assert_eq!(got[1], solo[1], "order cba, threads {threads}");
        assert_eq!(got[0], solo[2], "order cba, threads {threads}");
    }
}

#[test]
fn config_errors_are_typed() {
    assert_eq!(
        BatchHost::assemble(&[]).err(),
        Some(BatchConfigError::NoTenants)
    );
    let bad_values = TenantSpec::clean(hypercube(3), 1, vec![0.0; 7], 10);
    assert_eq!(
        BatchHost::assemble(&[bad_values]).err(),
        Some(BatchConfigError::ValueCountMismatch {
            tenant: 0,
            values: 7,
            nodes: 8,
        })
    );
    let bad_plan = TenantSpec {
        graph: hypercube(3),
        seed: 1,
        plan: FaultPlan::none().crash_node(99, 5),
        values: vec![0.0; 8],
        max_rounds: 10,
    };
    assert!(matches!(
        BatchHost::assemble(&[bad_plan]).err(),
        Some(BatchConfigError::Fault { tenant: 0, .. })
    ));
    let ok = [TenantSpec::clean(hypercube(3), 1, vec![0.0; 8], 10)];
    let host = BatchHost::assemble(&ok).unwrap();
    let data = host.union_data(&ok);
    let pcf = PushCancelFlow::new(host.graph(), &data);
    let opts = BatchOptions {
        threads: 0,
        ..BatchOptions::default()
    };
    assert_eq!(
        BatchSim::new(&host, pcf, &ok, opts).err(),
        Some(BatchConfigError::ZeroThreads)
    );
}

fn pick_graph(kind: u8, size: u8) -> Graph {
    match kind % 3 {
        0 => hypercube(2 + (size % 3) as u32), // 4..16 nodes
        1 => ring(4 + (size % 12) as usize),
        _ => complete(3 + (size % 6) as usize),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random batches: every tenant's fingerprint equals its solo run,
    /// under a rotated batch order and under 1/2/4 workers.
    #[test]
    fn random_batches_are_composition_and_thread_invariant(
        kinds in proptest::collection::vec(0u8..=255, 2..6),
        sizes in proptest::collection::vec(0u8..=255, 6),
        seeds in proptest::collection::vec(0u64..1_000_000, 6),
        plan_kind in 0u8..3,
        rot in 0usize..6,
    ) {
        let specs: Vec<TenantSpec> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let graph = pick_graph(k, sizes[i]);
                let n = graph.len();
                TenantSpec {
                    graph,
                    seed: seeds[i],
                    plan: match plan_kind {
                        0 => FaultPlan::none(),
                        1 => lossy_plan(),
                        _ => churn_plan(),
                    },
                    values: ramp(n),
                    max_rounds: 40,
                }
            })
            .collect();
        let solo: Vec<Fingerprint> = specs
            .iter()
            .map(|s| run_batch(std::slice::from_ref(s), 1, 40).remove(0))
            .collect();
        // Rotated composition, multiple worker counts.
        let k = rot % specs.len();
        let rotated: Vec<TenantSpec> =
            specs[k..].iter().chain(&specs[..k]).cloned().collect();
        for threads in [1usize, 2, 4] {
            let got = run_batch(&rotated, threads, 40);
            for (j, fp) in got.iter().enumerate() {
                let orig = (j + k) % specs.len();
                prop_assert_eq!(
                    fp, &solo[orig],
                    "tenant {} (rotated slot {}), threads {}", orig, j, threads
                );
            }
        }
    }
}
