//! `mem-drivers`: 256 `NodeDriver`s running PCF on hypercube-8 over
//! `mem_cluster` endpoints wrapped in `ChaosDelivery`, stepped round-robin
//! on one thread. No simulator: driver, wire codec, channels and chaos.

use crate::trace::{span, Span, Timed, TimedDelivery};
use crate::workload::{add, unit_rng, within, Counts, Layer, Solve, Workload};
use gr_netsim::Delivery;
use gr_numerics::{relative_error, Dd};
use gr_reduction::{
    AggregateKind, InitialData, NodeDriver, PushCancelFlow, ReductionProtocol, WireMsg,
};
use gr_topology::{hypercube, Graph};
use gr_transport::{
    mem_cluster, ChaosDelivery, ChaosPlan, ChaosStats, MemDelivery, WireInstrumented, WireStats,
};
use rand::RngExt;
use std::time::Instant;

const DIM: u32 = 8;
const WINDOW: u64 = 200;
const DROP: f64 = 0.05;
const DUPLICATE: f64 = 0.02;
const DELAY: f64 = 0.05;
/// Chaos-clock ticks a delayed frame is held.
const DELAY_OPS: u64 = 3;
/// Inbox depth per node, deep enough that backpressure never drops.
const INBOX: usize = 4096;
const TARGET: f64 = 1e-9;
const CAP: u64 = 3000;
/// Allowed relative distance between the mean and the aggregate that the
/// summed mass defines after quiescence (Σ value / Σ weight). A dropped
/// frame leaves its edge's last exchange one-sided, so the raw sums fall
/// short of the inputs (by several percent here), but value and weight
/// fall short in the aggregate's ratio: what the nodes still hold
/// defines the true mean.
const MASS_BOUND: f64 = TARGET;
const UNITS: usize = 32;
const TAG: u64 = 0x4d45_4d44;

pub struct MemDrivers {
    seed: u64,
}

/// A chaos-wrapped mem endpoint, possibly behind the timing wrapper.
trait Endpoint {
    fn wire(&self) -> WireStats;
    fn chaos(&self) -> ChaosStats;
    fn held(&self) -> usize;
}

impl<M: WireMsg> Endpoint for ChaosDelivery<MemDelivery<M>, M> {
    fn wire(&self) -> WireStats {
        self.wire_stats()
    }
    fn chaos(&self) -> ChaosStats {
        self.chaos_stats()
    }
    fn held(&self) -> usize {
        ChaosDelivery::held(self)
    }
}

impl<E: Endpoint> Endpoint for TimedDelivery<E> {
    fn wire(&self) -> WireStats {
        self.0.wire()
    }
    fn chaos(&self) -> ChaosStats {
        self.0.chaos()
    }
    fn held(&self) -> usize {
        self.0.held()
    }
}

impl MemDrivers {
    pub fn new(seed: u64) -> Self {
        MemDrivers { seed }
    }
}

impl Workload for MemDrivers {
    fn units(&self) -> usize {
        UNITS
    }

    fn solve(&mut self, i: usize, traced: bool) -> Result<Solve, String> {
        let mut rng = unit_rng(self.seed, TAG, i);
        let t0 = Instant::now();
        let graph = span(Span::TopoBuild, || hypercube(DIM));
        let values: Vec<f64> = (0..graph.len())
            .map(|_| 1.0 + rng.random::<f64>())
            .collect();
        let data = InitialData::with_kind(values, AggregateKind::Average);
        let driver_seed = rng.random();
        let plan = ChaosPlan {
            drop: DROP,
            duplicate: DUPLICATE,
            delay: DELAY,
            delay_ops: DELAY_OPS,
            ..ChaosPlan::none(rng.random())
        };
        if traced {
            let eps = endpoints(graph.len(), &plan)?
                .into_iter()
                .map(TimedDelivery)
                .collect();
            run(&graph, &data, eps, Timed, driver_seed, t0)
        } else {
            run(
                &graph,
                &data,
                endpoints(graph.len(), &plan)?,
                |p| p,
                driver_seed,
                t0,
            )
        }
    }
}

fn endpoints<M: WireMsg + Clone + gr_netsim::Corrupt>(
    n: usize,
    plan: &ChaosPlan,
) -> Result<Vec<ChaosDelivery<MemDelivery<M>, M>>, String> {
    Ok(mem_cluster::<M>(n, INBOX)
        .map_err(|e| format!("mem-drivers: {e}"))?
        .into_iter()
        .enumerate()
        .map(|(node, ep)| ChaosDelivery::new(ep, node as u32, plan))
        .collect())
}

/// Build the drivers, step them round-robin until every node is within
/// `TARGET` of the exact mean, then quiesce and audit the mass.
fn run<'g, P, E>(
    graph: &'g Graph,
    data: &InitialData<f64>,
    mut eps: Vec<E>,
    wrap: impl Fn(PushCancelFlow<'g, f64>) -> P,
    driver_seed: u64,
    t0: Instant,
) -> Result<Solve, String>
where
    P: ReductionProtocol,
    E: Delivery<P::Msg> + Endpoint,
{
    let mut drivers: Vec<NodeDriver<P>> = (0..graph.len() as u32)
        .map(|i| {
            NodeDriver::new(
                i,
                wrap(PushCancelFlow::new(graph, data)),
                graph,
                driver_seed,
            )
            .with_timeout_detector(WINDOW)
        })
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();
    let reference = data.reference()[0];
    let fail = |e| format!("mem-drivers: {e:?}");

    let a1 = crate::alloc::calls();
    let t1 = Instant::now();
    let mut iterations = 0u64;
    let mut est = [0.0];
    let err = loop {
        for (d, ep) in drivers.iter_mut().zip(eps.iter_mut()) {
            span(Span::DriverStep, || d.step(ep)).map_err(fail)?;
        }
        iterations += 1;
        let err = drivers.iter().fold(0.0f64, |worst, d| {
            d.write_estimate(&mut est);
            let e = relative_error(est[0], reference);
            if e.is_nan() {
                f64::INFINITY
            } else {
                worst.max(e)
            }
        });
        if err <= TARGET || iterations >= CAP {
            break err;
        }
    };
    let solve_s = t1.elapsed().as_secs_f64();
    let allocs = crate::alloc::calls() - a1;
    let messages: u64 = drivers.iter().map(|d| d.stats().sent).sum();
    let wire = eps.iter().fold(WireStats::default(), |mut w, ep| {
        let s = ep.wire();
        w.bytes_sent += s.bytes_sent;
        w.dropped += s.dropped;
        w
    });

    // Quiesce: drain every inbox and every held frame.
    loop {
        let mut moved = 0;
        for (d, ep) in drivers.iter_mut().zip(eps.iter_mut()) {
            moved += d.pump(ep).map_err(fail)?;
        }
        if moved == 0 && eps.iter().all(|ep| ep.held() == 0) {
            break;
        }
    }
    let (mut mass, mut weight) = (Dd::ZERO, Dd::ZERO);
    for d in &drivers {
        weight += d.write_mass(&mut est);
        mass += est[0];
    }
    let implied = ((mass / weight - reference).abs() / reference.abs()).to_f64();
    if !within(implied, MASS_BOUND) {
        return Err(format!(
            "mem-drivers: summed mass implies {:e}, off the mean by {implied:e}",
            (mass / weight).to_f64()
        ));
    }

    let mut layer = Layer::new();
    let (mut suspected, mut rehabilitated) = (0, 0);
    for d in &drivers {
        suspected += d.stats().suspected;
        rehabilitated += d.stats().rehabilitated;
    }
    let chaos = eps.iter().fold((0, 0), |(drops, dups), ep| {
        let c = ep.chaos();
        (drops + c.drops, dups + c.duplicates)
    });
    add(&mut layer, "drive.suspected", suspected as f64);
    add(&mut layer, "drive.rehabilitated", rehabilitated as f64);
    add(&mut layer, "transport.bytes_sent", wire.bytes_sent as f64);
    add(&mut layer, "transport.dropped", wire.dropped as f64);
    add(&mut layer, "chaos.drops", chaos.0 as f64);
    add(&mut layer, "chaos.dups", chaos.1 as f64);
    Ok(Solve {
        setup_s,
        solve_s,
        allocs,
        samples_s: vec![solve_s],
        reductions: 1,
        counts: Counts {
            rounds: vec![iterations],
            messages,
            bytes: wire.bytes_sent,
            worst_err_bits: err.to_bits(),
            failed: u64::from(!within(err, TARGET)),
        },
        layer,
    })
}
