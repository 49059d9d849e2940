//! Per-round protocol cost — the bench that gates the paper's claim that
//! "the computational efficiency of the PF algorithm in a failure-free
//! environment is fully preserved in our new PCF algorithm".
//!
//! Measures the cost of one full synchronous round (every node sends,
//! every message delivered) for each algorithm on a 256-node hypercube,
//! for scalar and 16-component vector payloads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gr_bench::fixture;
use gr_netsim::{FaultPlan, Simulator};
use gr_reduction::{with_protocol, AggregateKind, Algorithm, InitialData, PhiMode, PushCancelFlow};

fn bench_scalar_round(c: &mut Criterion) {
    let dim = 8u32;
    let n = 1usize << dim;
    let (g, d) = fixture(dim, 1);
    let mut group = c.benchmark_group("round_scalar_256");
    group.throughput(Throughput::Elements(n as u64));
    for alg in Algorithm::all() {
        group.bench_function(BenchmarkId::from_parameter(alg.label()), |b| {
            with_protocol!(alg, &g, &d, |p| {
                let mut sim = Simulator::new(&g, p, FaultPlan::none(), 1);
                b.iter(|| sim.step());
            })
        });
    }
    group.finish();
}

fn bench_vector_round(c: &mut Criterion) {
    let dim = 8u32;
    let n = 1usize << dim;
    let g = gr_topology::hypercube(dim);
    let values: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64; 16]).collect();
    let d = InitialData::with_kind(values, AggregateKind::Average);
    let mut group = c.benchmark_group("round_vec16_256");
    group.throughput(Throughput::Elements(n as u64));
    for alg in [
        Algorithm::PushFlow,
        Algorithm::PushCancelFlow(PhiMode::Eager),
    ] {
        group.bench_function(BenchmarkId::from_parameter(alg.label()), |b| {
            with_protocol!(alg, &g, &d, |p| {
                let mut sim = Simulator::new(&g, p, FaultPlan::none(), 1);
                b.iter(|| sim.step());
            })
        });
    }
    group.finish();
}

fn bench_fault_injection_overhead(c: &mut Criterion) {
    // Cost of the transit-phase fault machinery when probabilistic faults
    // are enabled (loss coin per message + occasional flip).
    let (g, d) = fixture(8, 2);
    let mut group = c.benchmark_group("round_with_faults_256");
    group.bench_function("pcf_clean", |b| {
        let mut sim = Simulator::new(&g, PushCancelFlow::new(&g, &d), FaultPlan::none(), 2);
        b.iter(|| sim.step());
    });
    group.bench_function("pcf_loss10_flip01", |b| {
        let plan = FaultPlan {
            msg_loss_prob: 0.1,
            bit_flip_prob: 0.01,
            ..FaultPlan::none()
        };
        let mut sim = Simulator::new(&g, PushCancelFlow::new(&g, &d), plan, 2);
        b.iter(|| sim.step());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_scalar_round,
    bench_vector_round,
    bench_fault_injection_overhead
);
criterion_main!(benches);
