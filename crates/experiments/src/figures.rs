//! Experiment implementations, one per paper figure plus ablations.
//!
//! Each public function returns one named [`Table`], and its only input
//! is the run [`Scale`]. Two also take which of their two figures to
//! draw: the algorithm of Figs. 3/6 and the failure round of Figs. 4/7;
//! Figs. 2 and 4/7, which are neither sized nor parallel, take nothing
//! else. Every size, seed and budget is a constant next to the code that
//! uses it, and those constants reproduce the committed `results/`.

use crate::output::{Cell, Table};
use crate::parallel::par_map;
use gr_netsim::{Activation, DelayModel, FaultPlan, Schedule, SimOptions, Simulator};
use gr_reduction::{
    run_reduction, run_with_options, AggregateKind, Algorithm, Checkpoint, InitialData, PhiMode,
    PushCancelFlow, PushFlow, ReductionProtocol, RunConfig, RunResult,
};
use gr_topology::{hypercube, torus3d, Graph};

/// The run scale: the one input the command line sets for every figure.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// The paper's sizes instead of the laptop-scale defaults.
    pub full: bool,
    /// Sweep workers; no output depends on it.
    pub threads: usize,
}

impl Scale {
    /// Figs. 3/6 sweep `8^1 … 8^max_exp` nodes: up to `8^4`, or the
    /// paper's `8^5` (32768 nodes) under `full`.
    fn accuracy_max_exp(self) -> u32 {
        if self.full {
            5
        } else {
            4
        }
    }

    /// Fig. 8's `(max_exp, runs)`: 5 runs on `2^5 … 2^8` nodes, or the
    /// paper's 50 runs up to `2^10` under `full`.
    fn dmgs_sizes(self) -> (u32, u32) {
        if self.full {
            (10, 50)
        } else {
            (8, 5)
        }
    }
}

/// Build the `i`-th evaluation topology of Figs. 3/6: a `2^i × 2^i × 2^i`
/// torus (`8^i` nodes). The `i = 1` case (2×2×2) *is* the 3-cube — a
/// 2-torus direction collapses its two parallel edges — so it is built as
/// `hypercube(3)`.
fn torus_of_exp(i: u32) -> Graph {
    let side = 1usize << i;
    if side < 3 {
        hypercube(3)
    } else {
        torus3d(side, side, side)
    }
}

/// Master seed of Figs. 3/6 and A5; each size mixes its exponent into
/// the data seed.
const ACCURACY_SEED: u64 = 42;
/// Figs. 3/6 and A5 stop a run once its best error has stopped improving
/// for this many rounds: the "globally achievable accuracy".
const PLATEAU: u64 = 4000;
/// Figs. 3/6 and A5: fault-free toward the paper's 1e-15, until the
/// plateau or 200 000 rounds.
const TO_PLATEAU: RunConfig = RunConfig {
    target_accuracy: Some(1e-15),
    max_rounds: 200_000,
    record_every: 0,
    plateau_window: Some(PLATEAU),
};

/// The uniform random data of Figs. 3/6 and A5 on `8^exp` nodes.
fn accuracy_data(exp: u32, kind: AggregateKind) -> InitialData<f64> {
    InitialData::uniform_random(8usize.pow(exp), kind, ACCURACY_SEED ^ (exp as u64) << 8)
}

/// One run of Figs. 3/6: `algorithm` on the `exp`-th torus or hypercube.
fn accuracy_run(algorithm: Algorithm, exp: u32, torus: bool, kind: AggregateKind) -> RunResult {
    let graph = if torus {
        torus_of_exp(exp)
    } else {
        hypercube(3 * exp)
    };
    let data = accuracy_data(exp, kind);
    run_reduction(
        algorithm,
        &graph,
        &data,
        FaultPlan::none(),
        ACCURACY_SEED,
        TO_PLATEAU,
        SimOptions::default(),
    )
}

/// Figs. 3 and 6: globally achievable accuracy vs. system size, on 3D
/// torus and hypercube, for SUM and AVG. PF gives Fig. 3, PCF Fig. 6.
pub fn accuracy_sweep(algorithm: Algorithm, scale: Scale) -> Table {
    let name = match algorithm {
        Algorithm::PushFlow => "fig3_pf_accuracy",
        _ => "fig6_pcf_accuracy",
    };
    let mut jobs = Vec::new();
    for exp in 1..=scale.accuracy_max_exp() {
        for torus in [true, false] {
            for kind in [AggregateKind::Average, AggregateKind::Sum] {
                jobs.push((exp, torus, kind));
            }
        }
    }
    let rows = par_map(jobs, scale.threads, |(exp, torus, kind)| {
        let r = accuracy_run(algorithm, exp, torus, kind);
        vec![
            Cell::Text(if torus { "torus3d" } else { "hypercube" }.into()),
            Cell::Text(kind.label().into()),
            Cell::Int(8u64.pow(exp)),
            Cell::Err(r.best_max_err),
            Cell::Err(r.final_err.max),
            Cell::Int(r.rounds),
            Cell::Bool(r.converged),
        ]
    });
    Table::new(
        name,
        &[
            ("topology", "topology"),
            ("aggregate", "aggregate"),
            ("nodes", "nodes"),
            ("best max err", "best_max_err"),
            ("", "final_max_err"),
            ("rounds", "rounds"),
            ("reached 1e-15", "converged"),
        ],
        rows,
    )
}

/// Figs. 4 and 7 combined: PF and PCF error trajectories over 200 rounds
/// on the 64-node hypercube, with the link (0, 1) failure handled at
/// round `fail_at`. Both runs share seed 7, and so their schedule: one
/// row per round.
pub fn failure_figure(fail_at: u64) -> Table {
    const SEED: u64 = 7;
    let graph = hypercube(6);
    let data = InitialData::uniform_random(64, AggregateKind::Average, SEED ^ 0xACC);
    let run = |algorithm| {
        let plan = FaultPlan::none().fail_link(0, 1, fail_at);
        let cfg = RunConfig::fixed(200, 1);
        run_reduction(
            algorithm,
            &graph,
            &data,
            plan,
            SEED,
            cfg,
            SimOptions::default(),
        )
        .series
    };
    let pf = run(Algorithm::PushFlow);
    let pcf = run(Algorithm::PushCancelFlow(PhiMode::Eager));
    assert_eq!(pf.len(), pcf.len());
    let rows = pf.iter().zip(&pcf).map(|(a, b)| {
        debug_assert_eq!(a.round, b.round);
        vec![
            Cell::Int(a.round),
            Cell::Err(a.max),
            Cell::Err(a.median),
            Cell::Err(b.max),
            Cell::Err(b.median),
        ]
    });
    Table::new(
        &format!("fig4_link_failure_at_{fail_at}"),
        &[
            ("round", "round"),
            ("PF max", "pf_max"),
            ("PF median", "pf_median"),
            ("PCF max", "pcf_max"),
            ("PCF median", "pcf_median"),
        ],
        rows.collect(),
    )
}

/// Fig. 8's master seed.
const DMGS_SEED: u64 = 1234;
/// Fig. 8's smallest size: `2^5` nodes, as in the paper.
const DMGS_MIN_EXP: u32 = 5;
/// Columns of V (paper: 16).
const DMGS_M: usize = 16;
/// Per-reduction round cap.
const DMGS_ROUND_CAP: u64 = 3000;

/// One Fig. 8 factorization: run `run` of `alg` on the `2^exp`-node
/// hypercube. Returns the factorization, orthogonality and consistency
/// errors and the total rounds.
fn dmgs_run(alg: Algorithm, exp: u32, run: u32) -> [f64; 4] {
    use gr_dmgs::{dmgs, DmgsConfig};
    let (run, salt) = (run as u64, exp as u64);
    let v = gr_linalg::Matrix::random_uniform(1 << exp, DMGS_M, DMGS_SEED ^ run << 20 ^ salt);
    let mut cfg = DmgsConfig::paper(alg, DMGS_SEED ^ run << 40 ^ salt);
    cfg.max_rounds_per_reduction = DMGS_ROUND_CAP;
    let r = dmgs(&v, &hypercube(exp), &cfg);
    [
        r.factorization_error,
        r.orthogonality_error,
        r.consistency_error,
        r.total_rounds as f64,
    ]
}

/// Fig. 8: dmGS(PF) vs dmGS(PCF) factorization error over hypercube
/// sizes, averaged over random matrices.
pub fn dmgs_sweep(scale: Scale) -> Table {
    let (max_exp, runs) = scale.dmgs_sizes();
    let algs = [
        Algorithm::PushFlow,
        Algorithm::PushCancelFlow(PhiMode::Eager),
    ];
    let mut jobs = Vec::new();
    for alg in algs {
        for exp in DMGS_MIN_EXP..=max_exp {
            for run in 0..runs {
                jobs.push((alg, exp, run));
            }
        }
    }
    let results = par_map(jobs.clone(), scale.threads, |(alg, exp, run)| {
        dmgs_run(alg, exp, run)
    });
    let mut rows = Vec::new();
    for alg in algs {
        for exp in DMGS_MIN_EXP..=max_exp {
            let group: Vec<&[f64; 4]> = jobs
                .iter()
                .zip(&results)
                .filter(|((a, e, _), _)| *a == alg && *e == exp)
                .map(|(_, r)| r)
                .collect();
            let mean = |i: usize| group.iter().map(|r| r[i]).sum::<f64>() / group.len() as f64;
            rows.push(vec![
                Cell::Text(match alg {
                    Algorithm::PushFlow => "dmGS(PF)".into(),
                    _ => "dmGS(PCF)".into(),
                }),
                Cell::Int(1 << exp),
                Cell::Err(mean(0)),
                Cell::Err(mean(1)),
                Cell::Err(mean(2)),
                Cell::Fixed(mean(3), 0),
                Cell::Int(runs.into()),
            ]);
        }
    }
    Table::new(
        "fig8_dmgs_qr",
        &[
            ("algorithm", "algorithm"),
            ("nodes", "nodes"),
            ("mean ‖V−QR‖∞/‖V‖∞", "mean_fact_err"),
            ("mean ‖I−QᵀQ‖∞", "mean_orth_err"),
            ("mean consistency", "mean_consistency_err"),
            ("mean rounds", "mean_rounds"),
            ("", "runs"),
        ],
        rows,
    )
}

/// Fig. 2, executable: the bus-network worked example. Runs PF (and PCF
/// for contrast) for 20 000 rounds on the 16-node `v₁ = n+1, vᵢ = 1` bus
/// case with the regular round-robin schedule, and reports flows against
/// the schematic values `f_{i−1,i} = n−i+1`.
pub fn bus_example() -> Table {
    const N: usize = 16;
    let graph = gr_topology::bus(N);
    let data = InitialData::bus_case(N);
    let mut pf_sim = Simulator::with_schedule(
        &graph,
        PushFlow::new(&graph, &data),
        FaultPlan::none(),
        0,
        Schedule::round_robin(N),
    );
    pf_sim.run(20_000);
    let mut pcf_sim = Simulator::with_schedule(
        &graph,
        PushCancelFlow::new(&graph, &data),
        FaultPlan::none(),
        0,
        Schedule::round_robin(N),
    );
    pcf_sim.run(20_000);

    let (pf, pcf) = (pf_sim.protocol(), pcf_sim.protocol());
    let rows = (2..=N).map(|i| {
        let (a, b) = ((i - 2) as u32, (i - 1) as u32);
        let pcf_mag = pcf
            .flow(a, b, 1)
            .value
            .abs()
            .max(pcf.flow(a, b, 2).value.abs());
        vec![
            Cell::Text(format!("({},{})", i - 1, i)),
            Cell::Fixed(pf.flow(a, b).value, 3),
            Cell::Fixed((N - i + 1) as f64, 0),
            Cell::Fixed(pcf_mag, 3),
            Cell::Fixed(pf.scalar_estimate(a), 12),
        ]
    });
    Table::new(
        "fig2_bus_example",
        &[
            ("edge (i−1,i)", "edge"),
            ("PF flow value", "pf_flow"),
            ("schematic n−i+1", "schematic"),
            ("PCF max |flow|", "pcf_flow_magnitude"),
            ("PF estimate at i−1", "pf_estimate"),
        ],
        rows.collect(),
    )
}

/// Ablation A2: best achievable accuracy on the 64-node hypercube under
/// probabilistic message loss for every algorithm (push-sum's bias vs the
/// flow algorithms' immunity).
pub fn message_loss_ablation(scale: Scale) -> Table {
    const SEED: u64 = 21;
    let losses = [0.0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5];
    let algs = [
        Algorithm::PushSum,
        Algorithm::PushFlow,
        Algorithm::PushCancelFlow(PhiMode::Eager),
        Algorithm::FlowUpdating,
    ];
    let jobs: Vec<_> = algs
        .iter()
        .flat_map(|&alg| losses.map(|p| (alg, p)))
        .collect();
    let rows = par_map(jobs, scale.threads, |(alg, p)| {
        let graph = hypercube(6);
        let data = InitialData::uniform_random(64, AggregateKind::Average, SEED ^ 0x105);
        let cfg = RunConfig {
            target_accuracy: Some(1e-14),
            max_rounds: 60_000,
            record_every: 0,
            plateau_window: Some(3000),
        };
        let plan = FaultPlan::with_loss(p);
        let r = run_reduction(alg, &graph, &data, plan, SEED, cfg, SimOptions::default());
        vec![
            Cell::Text(alg.label().into()),
            Cell::Float(p),
            Cell::Err(r.best_max_err),
            Cell::Int(r.rounds),
            Cell::Bool(r.converged),
        ]
    });
    Table::new(
        "ablation_message_loss",
        &[
            ("algorithm", "algorithm"),
            ("loss prob", "loss_prob"),
            ("best max err", "best_max_err"),
            ("rounds", "rounds"),
            ("reached 1e-14", "converged"),
        ],
        rows,
    )
}

/// Ablation A1's simulator seed; the data seed mixes in `0xF11`.
const FLIP_SEED: u64 = 11;

/// Ablation A1's two-phase run: 300 rounds with per-message bit-flip
/// probability `p`, then 1500 failure-free; returns the max error at the
/// end of each phase plus the number of flips injected.
fn bit_flip_episode<Pr: ReductionProtocol>(
    graph: &Graph,
    protocol: Pr,
    data: &InitialData<f64>,
    p: f64,
) -> (f64, f64, u64) {
    let mut checkpoint = Checkpoint::new(data);
    let mut sim = Simulator::new(graph, protocol, FaultPlan::with_bit_flips(p), FLIP_SEED);
    sim.run(300);
    let mid = checkpoint
        .sample(sim.protocol(), sim.alive_nodes(), sim.round())
        .max;
    sim.set_fault_plan(FaultPlan::none());
    sim.run(1500);
    let fin = checkpoint
        .sample(sim.protocol(), sim.alive_nodes(), sim.round())
        .max;
    (mid, fin, sim.stats().bit_flips)
}

/// Ablation A1: bit-flip episodes on the 32-node hypercube against PF,
/// PCF-eager and PCF-hardened. The paper's claim under test: Fig. 5 as
/// printed ("eager") is *not* fully bit-flip tolerant, the hardened ϕ
/// variant is; PF recovers in theory but high-exponent flips destroy its
/// precision in f64.
pub fn bit_flip_ablation(scale: Scale) -> Table {
    let probs = [0.0005, 0.005, 0.02];
    // The first three are the paper-facing algorithms; the guarded two add
    // the magnitude guard (our extension): implausibly large received
    // flows are rejected as corrupted, closing the exponent-flip hole.
    let variants = ["PF", "PCF", "PCF-hardened", "PF-guarded", "PCF-guarded"];
    let jobs: Vec<_> = variants
        .iter()
        .flat_map(|&label| probs.map(|p| (label, p)))
        .collect();
    let rows = par_map(jobs, scale.threads, |(label, p)| {
        let g = hypercube(5);
        let data = InitialData::uniform_random(32, AggregateKind::Average, FLIP_SEED ^ 0xF11);
        let guard = 1e6; // data is O(1); flows are O(n) at most
        let (pf, pcf) = (PushFlow::new(&g, &data), PushCancelFlow::new(&g, &data));
        let hardened = PushCancelFlow::with_mode(&g, &data, PhiMode::Hardened);
        let (mid, fin, flips) = match label {
            "PF" => bit_flip_episode(&g, pf, &data, p),
            "PCF" => bit_flip_episode(&g, pcf, &data, p),
            "PCF-hardened" => bit_flip_episode(&g, hardened, &data, p),
            "PF-guarded" => bit_flip_episode(&g, pf.with_guard(guard), &data, p),
            _ => bit_flip_episode(&g, hardened.with_guard(guard), &data, p),
        };
        vec![
            Cell::Text(label.into()),
            Cell::Float(p),
            Cell::Err(mid),
            Cell::Err(fin),
            Cell::Int(flips),
        ]
    });
    Table::new(
        "ablation_phi_variants",
        &[
            ("algorithm", "algorithm"),
            ("flip prob", "flip_prob"),
            ("err after episode", "err_after_episode"),
            ("err after recovery", "err_after_recovery"),
            ("flips injected", "bit_flips_injected"),
        ],
        rows,
    )
}

/// Ablation A3: on the 64-node hypercube, node 32 crashes mid-run; the
/// survivors must re-converge to the survivors' aggregate
/// (oracle-recomputed from remaining mass).
pub fn node_crash_ablation(scale: Scale) -> Table {
    const SEED: u64 = 31;
    let algs = [
        Algorithm::PushFlow,
        Algorithm::PushCancelFlow(PhiMode::Eager),
    ];
    let jobs: Vec<_> = algs
        .iter()
        .flat_map(|&alg| [50u64, 150].map(|t0| (alg, t0)))
        .collect();
    let rows = par_map(jobs, scale.threads, |(alg, t0)| {
        let graph = hypercube(6);
        let data = InitialData::uniform_random(64, AggregateKind::Average, SEED ^ 0xC4A5);
        let plan = FaultPlan::none().crash_node(32, t0);
        let cfg = RunConfig::to_accuracy(1e-13, 60_000);
        let r = run_reduction(alg, &graph, &data, plan, SEED, cfg, SimOptions::default());
        vec![
            Cell::Text(alg.label().into()),
            Cell::Int(t0),
            Cell::Err(r.final_err.max),
            Cell::Int(r.rounds),
            Cell::Bool(r.converged),
        ]
    });
    Table::new(
        "ablation_node_crash",
        &[
            ("algorithm", "algorithm"),
            ("crash round", "crash_round"),
            ("final max err", "final_max_err"),
            ("rounds", "rounds"),
            ("reconverged", "converged"),
        ],
        rows,
    )
}

/// Ablation A4: execution models on the 64-node hypercube — synchronous
/// rounds (the paper's model) vs asynchronous single-node activation vs
/// delayed delivery. All protocols must converge under all models; the
/// interesting output is the round cost of each relaxation.
pub fn execution_model_ablation(scale: Scale) -> Table {
    const SEED: u64 = 41;
    let models = [
        ("synchronous", SimOptions::default()),
        (
            "asynchronous",
            SimOptions {
                activation: Activation::Asynchronous,
                ..SimOptions::default()
            },
        ),
        (
            "delay fixed 2",
            SimOptions {
                delay: DelayModel::Fixed(2),
                ..SimOptions::default()
            },
        ),
        (
            "delay U(0,4)",
            SimOptions {
                delay: DelayModel::Uniform { min: 0, max: 4 },
                ..SimOptions::default()
            },
        ),
    ];
    let algs = [
        Algorithm::PushFlow,
        Algorithm::PushCancelFlow(PhiMode::Eager),
        Algorithm::FlowUpdating,
    ];
    let jobs: Vec<_> = algs
        .iter()
        .flat_map(|&alg| {
            models
                .iter()
                .map(move |(label, o)| (alg, *label, o.clone()))
        })
        .collect();
    let rows = par_map(jobs, scale.threads, |(alg, label, o)| {
        let graph = hypercube(6);
        let data = InitialData::uniform_random(64, AggregateKind::Average, SEED ^ 0xE8EC);
        let cfg = RunConfig::to_accuracy(1e-12, 100_000);
        let r = run_reduction(alg, &graph, &data, FaultPlan::none(), SEED, cfg, o);
        vec![
            Cell::Text(alg.label().into()),
            Cell::Text(label.into()),
            Cell::Int(r.rounds),
            Cell::Err(r.best_max_err),
            Cell::Bool(r.converged),
        ]
    });
    Table::new(
        "ablation_execution_models",
        &[
            ("algorithm", "algorithm"),
            ("execution model", "model"),
            ("rounds to 1e-12", "rounds_to_target"),
            ("best max err", "best_max_err"),
            ("converged", "converged"),
        ],
        rows,
    )
}

/// One Ablation A5 run: PF, compensated PF or PCF (`alg`) on the `exp`-th
/// torus with the SUM data of Figs. 3/6.
fn compensated_run(exp: u32, alg: &str) -> RunResult {
    fn run<Pr: ReductionProtocol>(g: &Graph, protocol: Pr, data: &InitialData<f64>) -> RunResult {
        run_with_options(
            g,
            protocol,
            data,
            FaultPlan::none(),
            ACCURACY_SEED,
            TO_PLATEAU,
            SimOptions::default(),
        )
    }
    let g = torus_of_exp(exp);
    let data = accuracy_data(exp, AggregateKind::Sum);
    match alg {
        "PF" => run(&g, PushFlow::new(&g, &data), &data),
        "PF-compensated" => run(
            &g,
            PushFlow::new(&g, &data).with_compensated_estimates(),
            &data,
        ),
        _ => run(&g, PushCancelFlow::new(&g, &data), &data),
    }
}

/// Ablation A5: does compensated summation rescue push-flow?
///
/// Tests the paper's Sec. II-B remark that storing the sum of flows more
/// carefully cannot fix PF: the *write-side* rounding — `f += e/2` rounds
/// at `ε·|f|` with `|f| = O(n·aggregate)` — is baked into the flow values
/// themselves. Expected shape: compensated PF improves on plain PF by a
/// modest constant (the read-side cancellation is gone) but keeps the
/// same growth-with-n, far above PCF (which keeps `|f| = O(aggregate)` so
/// *both* error sources vanish). Tori of `8^1 … 8^4` nodes.
pub fn compensated_pf_ablation(scale: Scale) -> Table {
    let jobs: Vec<_> = (1..=4)
        .flat_map(|exp| ["PF", "PF-compensated", "PCF"].map(|alg| (exp, alg)))
        .collect();
    let rows = par_map(jobs, scale.threads, |(exp, alg)| {
        let r = compensated_run(exp, alg);
        vec![
            Cell::Text(alg.into()),
            Cell::Int(8u64.pow(exp)),
            Cell::Err(r.best_max_err),
            Cell::Int(r.rounds),
        ]
    });
    Table::new(
        "ablation_compensated_pf",
        &[
            ("algorithm", "algorithm"),
            ("nodes", "nodes"),
            ("best max err", "best_max_err"),
            ("rounds", "rounds"),
        ],
        rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    const SCALE: Scale = Scale {
        full: false,
        threads: 1,
    };

    /// `full` sets exactly the paper's sizes; nothing else moves.
    #[test]
    fn full_sets_the_paper_sizes() {
        for (full, acc_exp, dmgs) in [(false, 4, (8, 5)), (true, 5, (10, 50))] {
            let s = Scale { full, threads: 3 };
            assert_eq!(s.accuracy_max_exp(), acc_exp);
            assert_eq!(s.dmgs_sizes(), dmgs);
        }
        assert_eq!((PLATEAU, ACCURACY_SEED), (4000, 42));
        assert_eq!(TO_PLATEAU.plateau_window, Some(PLATEAU));
        assert_eq!(
            (DMGS_MIN_EXP, DMGS_M, DMGS_ROUND_CAP, DMGS_SEED),
            (5, 16, 3000, 1234)
        );
    }

    #[test]
    fn torus_exp_one_is_cube() {
        let g = torus_of_exp(1);
        assert_eq!(g.len(), 8);
        assert!(gr_topology::is_regular(&g, 3));
        let g2 = torus_of_exp(2);
        assert_eq!(g2.len(), 64);
        assert!(gr_topology::is_regular(&g2, 6));
    }

    /// The smallest Fig. 6 size: 8-node PCF reaches excellent accuracy
    /// on both topologies and aggregates.
    #[test]
    fn accuracy_sweep_smallest_size() {
        let pcf = Algorithm::PushCancelFlow(PhiMode::Eager);
        for torus in [true, false] {
            for kind in [AggregateKind::Average, AggregateKind::Sum] {
                let r = accuracy_run(pcf, 1, torus, kind);
                assert!(r.best_max_err < 1e-13, "{torus} {kind:?}: {r:?}");
            }
        }
    }

    #[test]
    fn failure_figure_shapes() {
        let t = failure_figure(75);
        assert_eq!(t.name, "fig4_link_failure_at_75");
        let rows = t.json_rows();
        assert_eq!(rows.len(), 200);
        // PF rebounds after the failure, PCF does not: compare error at 74
        // vs 77.
        let at = |r: u64, key: &str| {
            rows.iter()
                .find(|v| v["round"] == r)
                .and_then(|v| v[key].as_f64())
                .unwrap()
        };
        assert!(
            at(77, "pf_max") > at(74, "pf_max") * 5.0,
            "PF should rebound"
        );
        assert!(
            at(77, "pcf_max") < at(74, "pcf_max") * 5.0,
            "PCF should not"
        );
        // identical before the failure (same seed)
        assert!((at(30, "pf_max") - at(30, "pcf_max")).abs() <= at(30, "pf_max") * 1e-6);
    }

    #[test]
    fn bus_example_matches_schematic() {
        let rows = bus_example().json_rows();
        assert_eq!(rows.len(), 15);
        for raw in &rows {
            let pf = raw["pf_flow"].as_f64().unwrap();
            let schematic = raw["schematic"].as_f64().unwrap();
            assert!(
                (pf - schematic).abs() < 3.0,
                "pf={pf} schematic={schematic}"
            );
            // PCF flows stay near the aggregate (2), not the transport
            let pcf = raw["pcf_flow_magnitude"].as_f64().unwrap();
            assert!(pcf < 30.0, "pcf flow magnitude {pcf}");
        }
    }

    /// The smallest Fig. 8 size, first matrix: both factorize, and PCF
    /// is at least as good as PF.
    #[test]
    fn dmgs_smallest_size_shows_ordering() {
        let pf = dmgs_run(Algorithm::PushFlow, DMGS_MIN_EXP, 0)[0];
        let pcf = dmgs_run(Algorithm::PushCancelFlow(PhiMode::Eager), DMGS_MIN_EXP, 0)[0];
        assert!(pf < 1e-12 && pcf < 1e-12, "PF {pf}, PCF {pcf}");
        assert!(pcf <= pf * 2.0, "PF {pf}, PCF {pcf}");
    }

    #[test]
    fn message_loss_ablation_shapes() {
        // push-sum biased at any loss; PCF converged everywhere
        for r in &message_loss_ablation(SCALE).json_rows() {
            let alg = r["algorithm"].as_str().unwrap();
            let p = r["loss_prob"].as_f64().unwrap();
            let conv = r["converged"].as_bool().unwrap();
            if alg == "PCF" {
                assert!(conv, "PCF should converge at p={p}");
            }
            if alg == "push-sum" && p >= 0.05 {
                assert!(!conv, "push-sum cannot reach 1e-14 at p={p}");
            }
        }
    }

    #[test]
    fn node_crash_ablation_reconverges() {
        for r in &node_crash_ablation(SCALE).json_rows() {
            assert_eq!(r["converged"], true, "{r}");
        }
    }

    #[test]
    fn bit_flip_ablation_shapes() {
        let rows = bit_flip_ablation(SCALE).json_rows();
        assert_eq!(rows.len(), 15); // 5 variants × 3 rates
                                    // at the lowest rate, PCF recovers to high accuracy
        let pcf_low = rows
            .iter()
            .find(|r| r["algorithm"] == "PCF" && r["flip_prob"].as_f64().unwrap() < 1e-3)
            .unwrap();
        assert!(pcf_low["err_after_recovery"].as_f64().unwrap() < 1e-9);
    }

    /// On 64 nodes, write-side rounding keeps compensated PF above PCF.
    #[test]
    fn compensated_pf_sits_between_pf_and_pcf() {
        let best = |alg| compensated_run(2, alg).best_max_err;
        assert!(best("PF-compensated") <= best("PF") * 2.0);
        assert!(best("PCF") <= best("PF"));
    }

    #[test]
    fn execution_model_ablation_converges_everywhere() {
        for r in &execution_model_ablation(SCALE).json_rows() {
            assert_eq!(r["converged"], true, "{r}");
        }
    }
}
