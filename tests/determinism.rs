//! Reproducibility guarantees: everything is a pure function of its seed.
//!
//! The experiment methodology (same-seed PF/PCF comparisons, regenerable
//! EXPERIMENTS.md numbers) rests on bit-level determinism of the whole
//! stack; these tests pin it.

use gossip_reduce::dmgs::{dmgs, DmgsConfig};
use gossip_reduce::linalg::Matrix;
use gossip_reduce::netsim::{FaultPlan, SimOptions};
use gossip_reduce::reduction::{
    run_reduction, AggregateKind, Algorithm, InitialData, PhiMode, RunConfig,
};
use gossip_reduce::topology::hypercube;

#[test]
fn identical_seeds_identical_series() {
    let g = hypercube(5);
    let data = InitialData::uniform_random(32, AggregateKind::Average, 5);
    let run = |seed| {
        run_reduction(
            Algorithm::PushCancelFlow(PhiMode::Eager),
            &g,
            &data,
            FaultPlan::with_loss(0.1),
            seed,
            RunConfig::fixed(150, 5),
            SimOptions::default(),
        )
    };
    let a = run(77);
    let b = run(77);
    let c = run(78);
    assert_eq!(a.series.len(), b.series.len());
    for (x, y) in a.series.iter().zip(&b.series) {
        assert_eq!(x.max.to_bits(), y.max.to_bits(), "round {}", x.round);
        assert_eq!(x.median.to_bits(), y.median.to_bits());
    }
    // different seed ⇒ different trajectory
    assert!(a
        .series
        .iter()
        .zip(&c.series)
        .any(|(x, y)| x.max.to_bits() != y.max.to_bits()));
}

#[test]
fn same_schedule_across_algorithms_with_faults() {
    // Message counts (schedule-determined) must be identical across
    // algorithms for the same seed and plan — that's the Fig. 4/7
    // methodology.
    let g = hypercube(6);
    let data = InitialData::uniform_random(64, AggregateKind::Average, 6);
    let plan = FaultPlan::none().fail_link(3, 2, 40);
    let cfg = RunConfig::fixed(100, 0);
    let pf = run_reduction(
        Algorithm::PushFlow,
        &g,
        &data,
        plan.clone(),
        9,
        cfg,
        SimOptions::default(),
    );
    let pcf = run_reduction(
        Algorithm::PushCancelFlow(PhiMode::Eager),
        &g,
        &data,
        plan,
        9,
        cfg,
        SimOptions::default(),
    );
    assert_eq!(pf.sim.sent, pcf.sim.sent);
    assert_eq!(pf.sim.delivered, pcf.sim.delivered);
    assert_eq!(pf.sim.lost_dead, pcf.sim.lost_dead);
}

#[test]
fn dmgs_is_bit_reproducible() {
    let g = hypercube(4);
    let v = Matrix::random_uniform(16, 5, 3);
    let cfg = DmgsConfig::paper(Algorithm::PushCancelFlow(PhiMode::Eager), 31);
    let a = dmgs(&v, &g, &cfg);
    let b = dmgs(&v, &g, &cfg);
    assert_eq!(
        a.factorization_error.to_bits(),
        b.factorization_error.to_bits()
    );
    assert_eq!(a.q.as_slice().len(), b.q.as_slice().len());
    for (x, y) in a.q.as_slice().iter().zip(b.q.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(a.total_rounds, b.total_rounds);
}

#[test]
fn campaign_report_is_byte_deterministic() {
    // The campaign's report contract: same lane + same seeds ⇒ identical
    // bytes, independent of the worker count. (CI diffs reports, and the
    // stress lane is trend-tracked across commits; both need this.)
    use gr_campaign::{run_campaign, sanity_corpus, Lane};
    let corpus: Vec<_> = sanity_corpus(&[1])
        .into_iter()
        .filter(|sc| sc.template == "complete16")
        .collect();
    let a = run_campaign(Lane::Sanity, &corpus, 1, 1).render();
    let b = run_campaign(Lane::Sanity, &corpus, 4, 1).render();
    assert_eq!(a, b);
    assert!(a.contains("verdict: PASS"), "{a}");
}

#[test]
fn campaign_violation_replays_to_identical_triple() {
    // A stress fingerprint printed by the report must replay to the same
    // (invariant, round, node) triple, and the rendered replay (trace
    // tail included) must be byte-identical across invocations. PCF in
    // eager-ϕ mode under bit flips is guaranteed to violate: a
    // NaN-producing flip reaches ϕ, which only accumulates (Fig. 5).
    use gr_campaign::{find_scenario, render_replay, run_scenario, stress_corpus};
    let corpus = stress_corpus(&[1, 2, 3]);
    let result = corpus
        .iter()
        .filter(|sc| sc.template.starts_with("flips/"))
        .map(|sc| run_scenario(sc, 1, None).0)
        .find(|r| r.violation.is_some())
        .expect("bit-flip templates must produce at least one violation");
    let v = result.violation.clone().unwrap();

    let sc = find_scenario(&corpus, &result.hash).expect("report hash resolves in the corpus");
    let (replayed, _) = run_scenario(sc, 1, None);
    let rv = replayed.violation.expect("replay reproduces the violation");
    assert_eq!(rv.invariant, v.invariant);
    assert_eq!(rv.round, v.round);
    assert_eq!(rv.node, v.node);

    let r1 = render_replay(sc, 16);
    let r2 = render_replay(sc, 16);
    assert_eq!(r1, r2);
    assert!(r1.contains(&format!("round={}", v.round)), "{r1}");
}

#[test]
fn workload_generation_is_seeded() {
    let a = InitialData::uniform_random(64, AggregateKind::Sum, 1);
    let b = InitialData::uniform_random(64, AggregateKind::Sum, 1);
    for i in 0..64 {
        assert_eq!(a.value(i).to_bits(), b.value(i).to_bits());
    }
    let m1 = Matrix::random_uniform(8, 8, 2);
    let m2 = Matrix::random_uniform(8, 8, 2);
    assert_eq!(m1, m2);
}

/// FNV-1a over the bit patterns of `xs`: one number that changes when
/// any entry changes by one ulp.
fn bits_digest<'a>(xs: impl IntoIterator<Item = &'a f64>) -> u64 {
    xs.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        x.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    })
}

#[test]
fn spectral_outputs_are_pinned() {
    // Exact outputs of the distributed power iteration: the eigenvalue's
    // bits, the gossip rounds spent and a digest of the eigenvector.
    use gossip_reduce::spectral::{power_iteration, GraphMatrix, PowerConfig};
    let g = hypercube(4);
    let a = GraphMatrix::random_weights(&g, 0.1, 1.0, 1.0, 7);
    let run = |alg, loss: f64, accuracy: f64, cap: u64| {
        let mut c = PowerConfig::new(alg, 7);
        c.iterations = 12;
        c.msg_loss_prob = loss;
        c.reduction_accuracy = accuracy;
        c.max_rounds_per_reduction = cap;
        let r = power_iteration(&a, &c);
        (
            r.eigenvalue.to_bits(),
            r.reduction_rounds,
            bits_digest(&r.eigenvector),
        )
    };
    let pcf = Algorithm::PushCancelFlow(PhiMode::Eager);
    assert_eq!(
        run(pcf, 0.0, 1e-13, 4000),
        (0x400884c9daf3992b, 2096, 0x262c24ca83599515)
    );
    assert_eq!(
        run(Algorithm::PushFlow, 0.0, 1e-13, 4000),
        (0x400884c9daf3991e, 2096, 0x8b8aaa290adebf2c)
    );
    assert_eq!(
        run(pcf, 0.2, 1e-13, 4000),
        (0x400884c9daf39908, 2696, 0xe92b6e13302f94a7)
    );
    // An unreachable target: every reduction ends at its cap and returns
    // the last state.
    assert_eq!(
        run(Algorithm::PushFlow, 0.0, 1e-17, 64),
        (0x400884c76a6355c1, 12 * 64, 0x898438adb5191ad9)
    );
}

#[test]
fn dmcgs_outputs_are_pinned() {
    // Exact outputs of distributed classical Gram-Schmidt: the total
    // gossip rounds and a digest of every node's copy of R.
    use gossip_reduce::dmgs::dmcgs;
    let g = hypercube(3);
    let v = Matrix::random_uniform(8, 4, 9);
    let run = |alg, cap: u64| {
        let mut cfg = DmgsConfig::paper(alg, 9);
        cfg.max_rounds_per_reduction = cap;
        let r = dmcgs(&v, &g, &cfg);
        let digest = bits_digest(r.r_per_node.iter().flat_map(|m| m.as_slice()));
        (r.total_rounds, digest)
    };
    assert_eq!(
        run(Algorithm::PushCancelFlow(PhiMode::Eager), 20_000),
        (20816, 0x15b5ae97d2f1bd65)
    );
    // A cap below what 1e-15 needs: each of the 7 reductions returns its
    // best snapshot.
    assert_eq!(run(Algorithm::PushFlow, 24), (7 * 24, 0xe07ed4bebaf0659b));
}
