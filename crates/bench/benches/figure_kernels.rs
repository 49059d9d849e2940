//! Per-figure harness kernels, so regressions in experiment runtime are
//! caught where they originate. Each bench runs a shrunk instance of the
//! corresponding figure's workload:
//!
//! * `fig3_6_accuracy_point` — one accuracy-sweep cell (64 nodes, torus),
//!   the unit of work Figs. 3/6 repeat per size/topology/aggregate;
//! * `fig4_7_trajectory` — one 200-iteration failure trajectory on the
//!   paper's 6D hypercube (the whole Fig. 4/7 data series);
//! * `fig8_dmgs` — one dmGS(PCF) factorization on 16 nodes (Fig. 8's
//!   repeated unit);
//! * `fig2_bus` — the bus worked example.

use criterion::{criterion_group, criterion_main, Criterion};
use gr_experiments::figures::{bus_example, failure_trajectory, FailureTrajOpts};
use gr_linalg::Matrix;
use gr_netsim::{FaultPlan, SimOptions};
use gr_reduction::{run_reduction, AggregateKind, Algorithm, InitialData, PhiMode, RunConfig};
use gr_topology::{hypercube, torus3d};

fn fig3_6_accuracy_point(c: &mut Criterion) {
    let g = torus3d(4, 4, 4);
    let data = InitialData::uniform_random(64, AggregateKind::Average, 42);
    let mut group = c.benchmark_group("fig3_6_accuracy_point");
    group.sample_size(10);
    for (label, alg) in [
        ("pf", Algorithm::PushFlow),
        ("pcf", Algorithm::PushCancelFlow(PhiMode::Eager)),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                run_reduction(
                    alg,
                    &g,
                    &data,
                    FaultPlan::none(),
                    42,
                    RunConfig::to_accuracy(1e-14, 20_000),
                    SimOptions::default(),
                )
            })
        });
    }
    group.finish();
}

fn fig4_7_trajectory(c: &mut Criterion) {
    let opts = FailureTrajOpts {
        cube_dim: 6,
        rounds: 200,
        seed: 7,
    };
    let mut group = c.benchmark_group("fig4_7_trajectory");
    group.sample_size(10);
    group.bench_function("pf_with_failure", |b| {
        b.iter(|| failure_trajectory(Algorithm::PushFlow, &opts, Some(75)))
    });
    group.bench_function("pcf_with_failure", |b| {
        b.iter(|| failure_trajectory(Algorithm::PushCancelFlow(PhiMode::Eager), &opts, Some(75)))
    });
    group.finish();
}

fn fig8_dmgs(c: &mut Criterion) {
    use gr_dmgs::{dmgs, DmgsConfig};
    let g = hypercube(4);
    let v = Matrix::random_uniform(16, 8, 5);
    let mut group = c.benchmark_group("fig8_dmgs");
    group.sample_size(10);
    group.bench_function("dmgs_pcf_16nodes_m8", |b| {
        let cfg = DmgsConfig::paper(Algorithm::PushCancelFlow(PhiMode::Eager), 5);
        b.iter(|| dmgs(&v, &g, &cfg))
    });
    group.finish();
}

fn fig2_bus(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2_bus");
    group.sample_size(10);
    group.bench_function("bus16_20k_rounds", |b| {
        b.iter(|| bus_example("bench", 16, 20_000, 0))
    });
    group.finish();
}

criterion_group!(
    benches,
    fig3_6_accuracy_point,
    fig4_7_trajectory,
    fig8_dmgs,
    fig2_bus
);
criterion_main!(benches);
