//! `scale-faults`: scalar PCF on hypercube-14 through the partitioned
//! engine, under loss, link failures, a crash and a timeout detector.

use crate::trace::{span, Span, Timed};
use crate::workload::{add, pcf_frame_bytes, unit_rng, Counts, Layer, Solve, Workload};
use gr_netsim::{DetectorModel, FaultPlan, SimOptions, SimStats, Simulator};
use gr_numerics::Dd;
use gr_reduction::{AggregateKind, InitialData, Measurer, PushCancelFlow, ReductionProtocol};
use gr_topology::{hypercube, Graph};
use rand::RngExt;
use std::time::Instant;

const DIM: u32 = 14;
/// Explicit, so the partitioned engine's RNG streams are pinned.
const PARTITIONS: usize = 4;
const LOSS: f64 = 0.02;
const LINK_FAILURES: usize = 2;
/// Rounds of silence before suspicion. Shorter windows cause false
/// suspicions that cost rounds (window 16 roughly triples them).
const WINDOW: u64 = 200;
const TARGET: f64 = 1e-9;
/// Oracle checks every few rounds: every round would make `Measurer`
/// (which sorts all 16,384 errors for the median) a quarter of the solve.
const CHECK_EVERY: u64 = 4;
const CAP: u64 = 3000;
const UNITS: usize = 6;
const TAG: u64 = 0x5343_4146;

pub struct ScaleFaults {
    seed: u64,
    frame_bytes: u64,
}

/// One unit's seeded inputs.
struct Inputs {
    data: InitialData<f64>,
    plan: FaultPlan,
    sim_seed: u64,
}

impl ScaleFaults {
    pub fn new(seed: u64) -> Self {
        ScaleFaults {
            seed,
            frame_bytes: pcf_frame_bytes(0.0f64),
        }
    }

    fn inputs(&self, i: usize) -> Inputs {
        let mut rng = unit_rng(self.seed, TAG, i);
        let n = 1usize << DIM;
        let values = (0..n).map(|_| 1.0 + rng.random::<f64>()).collect();
        let data = InitialData::with_kind(values, AggregateKind::Average);
        let mut plan = FaultPlan::with_loss(LOSS);
        for _ in 0..LINK_FAILURES {
            let a = rng.random_range(0..n);
            let b = a ^ (1 << rng.random_range(0..DIM));
            plan = plan.fail_link(a as u32, b as u32, rng.random_range(20..120));
        }
        plan = plan.crash_node(rng.random_range(0..n) as u32, rng.random_range(20..120));
        Inputs {
            data,
            plan,
            sim_seed: rng.random(),
        }
    }

    fn options(threads: usize) -> SimOptions {
        SimOptions {
            detector: DetectorModel::Timeout { window: WINDOW },
            partitions: PARTITIONS,
            threads,
            ..SimOptions::default()
        }
    }

    /// Construct the engine over `graph` with protocol wrapper `wrap` and
    /// solve; `t0` marks the start of set-up.
    fn run<'g, P: ReductionProtocol>(
        &self,
        threads: usize,
        graph: &'g Graph,
        inputs: Inputs,
        t0: Instant,
        wrap: impl FnOnce(PushCancelFlow<'g, f64>) -> P,
    ) -> Result<Solve, String> {
        let Inputs {
            data,
            plan,
            sim_seed,
        } = inputs;
        let mut sim = span(Span::SimConstruct, || {
            Simulator::try_with_options(
                graph,
                wrap(PushCancelFlow::new(graph, &data)),
                plan,
                sim_seed,
                Self::options(threads),
            )
        })
        .map_err(|e| format!("scale-faults: {e}"))?;
        let setup_s = t0.elapsed().as_secs_f64();

        let a1 = crate::alloc::calls();
        let t1 = Instant::now();
        let (err, converged) = solve_to_accuracy(&mut sim, data.reference());
        let solve_s = t1.elapsed().as_secs_f64();
        let allocs = crate::alloc::calls() - a1;

        let stats: SimStats = sim.stats();
        let mut layer = Layer::new();
        add(&mut layer, "netsim.sent", stats.sent as f64);
        add(&mut layer, "netsim.delivered", stats.delivered as f64);
        let lost = stats.lost_random + stats.lost_burst + stats.lost_dead;
        add(&mut layer, "netsim.lost", lost as f64);
        add(&mut layer, "netsim.suspected", stats.suspected as f64);
        add(
            &mut layer,
            "netsim.rehabilitated",
            stats.rehabilitated as f64,
        );
        add(&mut layer, "netsim.probes_sent", stats.probes_sent as f64);
        add(&mut layer, "netsim.rounds", sim.round() as f64);
        Ok(Solve {
            setup_s,
            solve_s,
            allocs,
            samples_s: vec![solve_s],
            reductions: 1,
            counts: Counts {
                rounds: vec![sim.round()],
                messages: stats.sent,
                bytes: stats.sent * self.frame_bytes,
                worst_err_bits: err.to_bits(),
                failed: u64::from(!converged),
            },
            layer,
        })
    }

    fn solve_with(&self, i: usize, threads: usize, traced: bool) -> Result<Solve, String> {
        let t0 = Instant::now();
        let graph = span(Span::TopoBuild, || hypercube(DIM));
        let inputs = self.inputs(i);
        if traced {
            self.run(threads, &graph, inputs, t0, Timed)
        } else {
            self.run(threads, &graph, inputs, t0, |p| p)
        }
    }
}

/// Step until every alive node is within `TARGET` of the oracle's
/// reference, checking every `CHECK_EVERY` rounds, or until `CAP`. After a crash
/// the reference is the survivors' remaining mass, recomputed at every
/// check. Returns the final worst error and whether it converged.
fn solve_to_accuracy<P: ReductionProtocol>(
    sim: &mut Simulator<'_, P>,
    mut refs: Vec<Dd>,
) -> (f64, bool) {
    let mut measurer = Measurer::new();
    let n = sim.graph().len();
    loop {
        span(Span::SimStep, || sim.step());
        let round = sim.round();
        if !round.is_multiple_of(CHECK_EVERY) && round < CAP {
            continue;
        }
        if sim.alive_nodes().count() != n {
            let ok = span(Span::Measure, || {
                measurer.mass_reference(sim.protocol(), sim.alive_nodes(), &mut refs)
            });
            assert!(ok, "survivors hold no weight");
        }
        let sample = span(Span::Measure, || {
            measurer.measure_error(sim.protocol(), &refs, sim.alive_nodes(), round)
        });
        if sample.max <= TARGET {
            return (sample.max, true);
        }
        if round >= CAP {
            return (sample.max, false);
        }
    }
}

impl Workload for ScaleFaults {
    fn units(&self) -> usize {
        UNITS
    }

    fn solve(&mut self, i: usize, traced: bool) -> Result<Solve, String> {
        self.solve_with(i, 1, traced)
    }

    fn extras(&mut self, layer: &mut Layer) -> Result<(), String> {
        // Two-thread speed-up of one reduction, untraced; the counts must
        // not depend on the thread count.
        let one = self.solve_with(0, 1, false)?;
        let two = self.solve_with(0, 2, false)?;
        if one.counts != two.counts {
            return Err("scale-faults: 2-thread run differs from the 1-thread run".into());
        }
        add(layer, "netsim.speedup_2t", one.solve_s / two.solve_s);
        add(
            layer,
            "netsim.partition_model_ratio",
            partition_model_ratio()?,
        );
        Ok(())
    }
}

/// Measured ns/round ÷ the partition cost model's predicted ns/round. The
/// model only runs for auto-partitioned topologies of at least 65,536
/// nodes, so this probes a 256×256 torus with the same loss and detector,
/// letting `partitions: 0` consult the model at one thread.
fn partition_model_ratio() -> Result<f64, String> {
    const WARMUP: u64 = 4;
    const ROUNDS: u64 = 24;
    let graph = gr_topology::torus2d(256, 256);
    let data = InitialData::uniform_random(graph.len(), AggregateKind::Average, 7);
    let opts = SimOptions {
        detector: DetectorModel::Timeout { window: WINDOW },
        partitions: 0,
        threads: 1,
        ..SimOptions::default()
    };
    let mut sim = Simulator::try_with_options(
        &graph,
        PushCancelFlow::new(&graph, &data),
        FaultPlan::with_loss(LOSS),
        7,
        opts,
    )
    .map_err(|e| format!("cost-model probe: {e}"))?;
    let predicted = sim
        .partition_plan()
        .model
        .ok_or("cost-model probe: no model for an auto-partitioned run")?
        .predicted_ns;
    sim.run(WARMUP);
    let t = Instant::now();
    sim.run(ROUNDS);
    let measured = t.elapsed().as_nanos() as f64 / ROUNDS as f64;
    Ok(measured / predicted)
}
