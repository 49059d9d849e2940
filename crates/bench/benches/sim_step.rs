//! The `sim_step` kernel grid — criterion twin of `bench-report`.
//!
//! Times one simulator round for PF / PCF / FU on hypercubes of dimension
//! 6 / 8 / 10, fault-free and under the stress plan, plus the
//! vector-payload grid on hc8 (dims 4 / 16 / 64 — straddling the
//! `InlineVec` inline cap), with the same ids as the `BENCH_6.json`
//! kernels (`sim_step/<alg>/hc<dim>/<plan>` and
//! `sim_step/<alg>/hc8/vec<dim>`). Criterion gives the statistical view
//! for local investigation; `bench-report` produces the committed
//! baseline CI gates on.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gr_bench::{fixture, vector_fixture};
use gr_netsim::{FaultPlan, LinkFailure, NodeCrash, Protocol, Simulator};
use gr_reduction::{FlowUpdating, InitialData, PushCancelFlow, PushFlow};
use gr_topology::Graph;

const SEED: u64 = 1;

/// Same stress plan as `bench-report`: every fault fires inside the
/// warmup window so the timed steady state is post-fault.
fn stress_plan() -> FaultPlan {
    FaultPlan {
        msg_loss_prob: 0.05,
        bit_flip_prob: 1e-3,
        link_failures: vec![
            LinkFailure {
                a: 0,
                b: 1,
                at_round: 8,
                detect_delay: 4,
            },
            LinkFailure {
                a: 2,
                b: 3,
                at_round: 16,
                detect_delay: 4,
            },
        ],
        node_crashes: vec![NodeCrash {
            node: 5,
            at_round: 24,
            detect_delay: 4,
        }],
        ..FaultPlan::none()
    }
}

fn bench_one<P: Protocol>(
    group: &mut criterion::BenchmarkGroup<'_>,
    id: &str,
    graph: &Graph,
    protocol: P,
    plan: FaultPlan,
) {
    let mut sim = Simulator::new(graph, protocol, plan, SEED);
    sim.run(64); // past the fault window, buckets at capacity
    group.bench_function(id, |b| b.iter(|| sim.step()));
}

fn bench_sim_step(c: &mut Criterion) {
    for dim in [6u32, 8, 10] {
        let (g, d): (Graph, InitialData<f64>) = fixture(dim, SEED);
        let name = format!("sim_step/hc{dim}");
        let mut group = c.benchmark_group(&name);
        group.throughput(Throughput::Elements(g.len() as u64));
        for (plan_name, plan) in [("clean", FaultPlan::none()), ("stress", stress_plan())] {
            bench_one(
                &mut group,
                &format!("pf/{plan_name}"),
                &g,
                PushFlow::new(&g, &d),
                plan.clone(),
            );
            bench_one(
                &mut group,
                &format!("pcf/{plan_name}"),
                &g,
                PushCancelFlow::new(&g, &d),
                plan.clone(),
            );
            bench_one(
                &mut group,
                &format!("fu/{plan_name}"),
                &g,
                FlowUpdating::new(&g, &d),
                plan,
            );
        }
        group.finish();
    }
}

fn bench_sim_step_vec(c: &mut Criterion) {
    // Vector payloads on hc8, fault-free: dims 4 and 16 run the inline
    // representation, 64 the heap spill.
    for vdim in [4usize, 16, 64] {
        let (g, d) = vector_fixture(8, vdim, SEED);
        let name = format!("sim_step/hc8/vec{vdim}");
        let mut group = c.benchmark_group(&name);
        group.throughput(Throughput::Elements(g.len() as u64));
        bench_one(
            &mut group,
            "pf",
            &g,
            PushFlow::new(&g, &d),
            FaultPlan::none(),
        );
        bench_one(
            &mut group,
            "pcf",
            &g,
            PushCancelFlow::new(&g, &d),
            FaultPlan::none(),
        );
        bench_one(
            &mut group,
            "fu",
            &g,
            FlowUpdating::new(&g, &d),
            FaultPlan::none(),
        );
        group.finish();
    }
}

criterion_group!(benches, bench_sim_step, bench_sim_step_vec);
criterion_main!(benches);
