//! The public facade: everything a downstream user reaches through
//! `gossip_reduce::*` is wired and minimally usable.

use gossip_reduce::*;

#[test]
fn all_subsystems_reachable_through_facade() {
    // topology
    let g = topology::ring(6);
    assert!(topology::is_connected(&g));

    // numerics
    let d = numerics::Dd::from_f64(1.5) + 0.25;
    assert_eq!(d.to_f64(), 1.75);
    assert_eq!(numerics::neumaier_sum(&[1.0, 2.0]), 3.0);

    // reduction + netsim
    let data = reduction::InitialData::with_kind(
        vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        reduction::AggregateKind::Average,
    );
    let p = reduction::PushCancelFlow::new(&g, &data);
    let mut sim = netsim::Simulator::new(&g, p, netsim::FaultPlan::none(), 1);
    sim.run(300);
    use reduction::ReductionProtocol;
    assert!((sim.protocol().scalar_estimate(0) - 3.5).abs() < 1e-12);

    // linalg + dmgs
    let v = linalg::Matrix::random_uniform(6, 3, 1);
    let (q, r) = linalg::mgs_qr(&v);
    assert!(linalg::factorization_error(&v, &q, &r) < 1e-14);
    let cfg = dmgs::DmgsConfig::paper(
        reduction::Algorithm::PushCancelFlow(reduction::PhiMode::Eager),
        1,
    );
    let res = dmgs::dmgs(&v, &g, &cfg);
    assert!(res.factorization_error < 1e-12);

    // spectral
    let a = spectral::GraphMatrix::laplacian(&g);
    let mut pc = spectral::PowerConfig::new(
        reduction::Algorithm::PushCancelFlow(reduction::PhiMode::Eager),
        2,
    );
    pc.iterations = 200; // ring Laplacian eigenvalues are closely spaced
    let s = spectral::power_iteration(&a, &pc);
    // ring(6) Laplacian: λ_max = 2 − 2cos(π) = 4 exactly (n even)
    assert!((s.eigenvalue - 4.0).abs() < 1e-6, "λ = {}", s.eigenvalue);
}

#[test]
fn extremum_and_convergence_helpers() {
    use gossip_reduce::reduction::{
        AggregateKind, Extremum, ExtremumGossip, InitialData, ReductionProtocol,
    };
    let g = gossip_reduce::topology::complete(8);
    let data = InitialData::with_kind(
        vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0],
        AggregateKind::Average,
    );
    let p = ExtremumGossip::new(&g, &data, Extremum::Max);
    let mut sim =
        gossip_reduce::netsim::Simulator::new(&g, p, gossip_reduce::netsim::FaultPlan::none(), 3);
    // Max-gossip converges exactly, and a maximum once held is never lost.
    sim.run(60);
    assert!((0..8).all(|i| sim.protocol().scalar_estimate(i) == 9.0));
}
