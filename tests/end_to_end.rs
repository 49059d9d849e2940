//! Cross-crate integration tests: the full stack (topology → simulator →
//! reduction → runner / dmGS) exercised through the public facade.

use gossip_reduce::dmgs::{dmgs, DmgsConfig};
use gossip_reduce::linalg::Matrix;
use gossip_reduce::netsim::{FaultPlan, SimOptions};
use gossip_reduce::reduction::{
    run_reduction, AggregateKind, Algorithm, InitialData, PhiMode, RunConfig,
};
use gossip_reduce::topology::{
    binary_tree, complete, erdos_renyi, hypercube, is_connected, ring, torus3d,
};

fn avg(n: usize, seed: u64) -> InitialData<f64> {
    InitialData::uniform_random(n, AggregateKind::Average, seed)
}

#[test]
fn every_algorithm_converges_on_every_topology() {
    // The convergence guarantee is topology-independent (any connected
    // graph); sweep a structurally diverse set.
    let graphs: Vec<(&str, gossip_reduce::topology::Graph)> = vec![
        ("ring", ring(12)),
        ("complete", complete(12)),
        ("hypercube", hypercube(4)),
        ("torus3d", torus3d(3, 3, 3)),
        ("tree", binary_tree(15)),
    ];
    for (name, g) in &graphs {
        let data = avg(g.len(), 9);
        for alg in [
            Algorithm::PushSum,
            Algorithm::PushFlow,
            Algorithm::PushCancelFlow(PhiMode::Eager),
            Algorithm::PushCancelFlow(PhiMode::Hardened),
            Algorithm::FlowUpdating,
        ] {
            let r = run_reduction(
                alg,
                g,
                &data,
                FaultPlan::none(),
                3,
                RunConfig::to_accuracy(1e-12, 60_000),
                SimOptions::default(),
            );
            assert!(
                r.converged,
                "{} on {name}: err {:?} after {} rounds",
                alg.label(),
                r.final_err,
                r.rounds
            );
        }
    }
}

#[test]
fn random_graph_end_to_end() {
    // Erdős–Rényi with resampling until connected, then a full faulty run.
    let mut seed = 0;
    let g = loop {
        let g = erdos_renyi(40, 0.15, seed);
        if is_connected(&g) {
            break g;
        }
        seed += 1;
    };
    let data = avg(40, 17);
    let plan = FaultPlan::with_loss(0.1);
    let r = run_reduction(
        Algorithm::PushCancelFlow(PhiMode::Eager),
        &g,
        &data,
        plan,
        5,
        RunConfig::to_accuracy(1e-12, 60_000),
        SimOptions::default(),
    );
    assert!(r.converged, "{:?}", r.final_err);
}

#[test]
fn sum_and_average_agree_up_to_n() {
    let g = hypercube(4);
    let values: Vec<f64> = (0..16).map(|i| (i as f64).sin() + 2.0).collect();
    let sum_data = InitialData::with_kind(values.clone(), AggregateKind::Sum);
    let avg_data = InitialData::with_kind(values, AggregateKind::Average);
    let cfg = RunConfig::to_accuracy(1e-13, 60_000);
    let alg = Algorithm::PushCancelFlow(PhiMode::Eager);
    let rs = run_reduction(
        alg,
        &g,
        &sum_data,
        FaultPlan::none(),
        2,
        cfg,
        SimOptions::default(),
    );
    let ra = run_reduction(
        alg,
        &g,
        &avg_data,
        FaultPlan::none(),
        2,
        cfg,
        SimOptions::default(),
    );
    assert!(rs.converged && ra.converged);
    let sum_ref = sum_data.reference()[0].to_f64();
    let avg_ref = avg_data.reference()[0].to_f64();
    assert!((sum_ref - 16.0 * avg_ref).abs() < 1e-12);
}

#[test]
fn link_failure_fallback_contrast_pf_vs_pcf() {
    // The paper's headline comparison, end-to-end through the runner.
    let g = hypercube(6);
    let data = InitialData::spike(64);
    let plan = FaultPlan::none().fail_link(0, 1, 75);
    let cfg = RunConfig::fixed(200, 1);
    let pf = run_reduction(
        Algorithm::PushFlow,
        &g,
        &data,
        plan.clone(),
        7,
        cfg,
        SimOptions::default(),
    );
    let pcf = run_reduction(
        Algorithm::PushCancelFlow(PhiMode::Eager),
        &g,
        &data,
        plan,
        7,
        cfg,
        SimOptions::default(),
    );
    let at = |series: &[gossip_reduce::reduction::ErrorSample], round: u64| {
        series.iter().find(|s| s.round == round).unwrap().max
    };
    // identical before the failure
    let pre_pf = at(&pf.series, 74);
    let pre_pcf = at(&pcf.series, 74);
    assert!((pre_pf - pre_pcf).abs() <= pre_pf * 1e-6);
    // PF rebounds, PCF does not
    assert!(at(&pf.series, 77) > pre_pf * 50.0);
    assert!(at(&pcf.series, 77) < pre_pcf * 50.0);
    // both finish convergent eventually; PCF far ahead at round 200
    assert!(at(&pcf.series, 200) < at(&pf.series, 200));
}

#[test]
fn dmgs_full_stack_small() {
    let g = torus3d(3, 3, 3); // 27 nodes — non-power-of-two node count
    let v = Matrix::random_uniform(27, 6, 11);
    let cfg = DmgsConfig::paper(Algorithm::PushCancelFlow(PhiMode::Eager), 11);
    let res = dmgs(&v, &g, &cfg);
    assert!(
        res.factorization_error < 5e-14,
        "{:e}",
        res.factorization_error
    );
    assert!(
        res.orthogonality_error < 5e-13,
        "{:e}",
        res.orthogonality_error
    );
    // R copies upper triangular everywhere
    for r in &res.r_per_node {
        for i in 0..6 {
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }
}

#[test]
fn dmgs_tolerates_message_loss() {
    let g = hypercube(4);
    let v = Matrix::random_uniform(16, 4, 13);
    let mut cfg = DmgsConfig::paper(Algorithm::PushCancelFlow(PhiMode::Hardened), 13);
    cfg.msg_loss_prob = 0.15;
    cfg.max_rounds_per_reduction = 30_000;
    let res = dmgs(&v, &g, &cfg);
    assert!(
        res.factorization_error < 1e-13,
        "loss should not degrade dmGS(PCF): {:e}",
        res.factorization_error
    );
}

#[test]
fn node_crash_consensus_among_survivors() {
    let g = hypercube(5);
    let data = avg(32, 21);
    let plan = FaultPlan::none().crash_node(9, 60);
    let r = run_reduction(
        Algorithm::PushCancelFlow(PhiMode::Eager),
        &g,
        &data,
        plan,
        9,
        RunConfig::to_accuracy(1e-12, 60_000),
        SimOptions::default(),
    );
    assert!(r.converged, "{:?}", r.final_err);
}
