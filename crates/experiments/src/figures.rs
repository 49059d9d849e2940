//! Experiment implementations, one per paper figure plus ablations.
//!
//! Each function returns a [`Table`]; the `figures` binary picks the
//! sizes, calls these, and emits the results. Keeping the logic here makes every
//! experiment callable from integration tests and benches.

use crate::output::{fmt_err, Table};
use crate::parallel::par_map;
use gr_netsim::{Activation, DelayModel, FaultPlan, Schedule, SimOptions, Simulator};
use gr_reduction::{
    run_reduction, run_with_options, AggregateKind, Algorithm, Checkpoint, ErrorSample,
    InitialData, PhiMode, PushCancelFlow, PushFlow, ReductionProtocol, RunConfig,
};
use gr_topology::{hypercube, torus3d, Graph};
use serde::Serialize;

/// Build the `i`-th evaluation topology of Figs. 3/6: a `2^i × 2^i × 2^i`
/// torus (`8^i` nodes). The `i = 1` case (2×2×2) *is* the 3-cube — a
/// 2-torus direction collapses its two parallel edges — so it is built as
/// `hypercube(3)`.
pub fn torus_of_exp(i: u32) -> Graph {
    let side = 1usize << i;
    if side < 3 {
        hypercube(3)
    } else {
        torus3d(side, side, side)
    }
}

/// Options shared by the Fig. 3 / Fig. 6 accuracy sweeps.
#[derive(Clone, Copy, Debug)]
pub struct AccuracySweepOpts {
    /// Largest size exponent `i` (node counts `8^1 … 8^i`; the paper uses
    /// `i = 5`, i.e. up to 32768 nodes).
    pub max_exp: u32,
    /// Oracle target accuracy (paper: 1e-15).
    pub target: f64,
    /// Stop when the best error stops improving for this many rounds.
    pub plateau: u64,
    /// Hard per-run round cap.
    pub max_rounds: u64,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for the sweep.
    pub threads: usize,
}

impl Default for AccuracySweepOpts {
    fn default() -> Self {
        AccuracySweepOpts {
            max_exp: 4,
            target: 1e-15,
            plateau: 4000,
            max_rounds: 200_000,
            seed: 42,
            threads: crate::parallel::default_threads(),
        }
    }
}

#[derive(Serialize)]
struct AccuracyRow {
    topology: &'static str,
    aggregate: &'static str,
    nodes: usize,
    best_max_err: f64,
    final_max_err: f64,
    rounds: u64,
    converged: bool,
}

/// Figs. 3 and 6: globally achievable accuracy vs. system size, on 3D
/// torus and hypercube, for SUM and AVG, for the given algorithm (PF
/// reproduces Fig. 3, PCF Fig. 6).
pub fn accuracy_sweep(name: &str, algorithm: Algorithm, opts: &AccuracySweepOpts) -> Table {
    #[derive(Clone, Copy)]
    struct Job {
        exp: u32,
        topo: &'static str,
        kind: AggregateKind,
    }
    let mut jobs = Vec::new();
    for exp in 1..=opts.max_exp {
        for topo in ["torus3d", "hypercube"] {
            for kind in [AggregateKind::Average, AggregateKind::Sum] {
                jobs.push(Job { exp, topo, kind });
            }
        }
    }
    let o = *opts;
    let rows = par_map(jobs, opts.threads, move |job| {
        let n = 8usize.pow(job.exp);
        let graph = match job.topo {
            "torus3d" => torus_of_exp(job.exp),
            _ => hypercube(3 * job.exp),
        };
        let data = InitialData::uniform_random(n, job.kind, o.seed ^ (job.exp as u64) << 8);
        let cfg = RunConfig {
            target_accuracy: Some(o.target),
            max_rounds: o.max_rounds,
            record_every: 0,
            plateau_window: Some(o.plateau),
        };
        let r = run_reduction(
            algorithm,
            &graph,
            &data,
            FaultPlan::none(),
            o.seed,
            cfg,
            SimOptions::default(),
        );
        AccuracyRow {
            topology: job.topo,
            aggregate: job.kind.label(),
            nodes: n,
            best_max_err: r.best_max_err,
            final_max_err: r.final_err.max,
            rounds: r.rounds,
            converged: r.converged,
        }
    });

    let mut t = Table::new(
        name,
        &[
            "topology",
            "aggregate",
            "nodes",
            "best max err",
            "rounds",
            "reached 1e-15",
        ],
    );
    for row in rows {
        t.push(
            vec![
                row.topology.into(),
                row.aggregate.into(),
                row.nodes.to_string(),
                fmt_err(row.best_max_err),
                row.rounds.to_string(),
                row.converged.to_string(),
            ],
            &row,
        );
    }
    t
}

/// Options for the Fig. 4 / Fig. 7 single-link-failure trajectories.
#[derive(Clone, Copy, Debug)]
pub struct FailureTrajOpts {
    /// Hypercube dimension (paper: 6 → 64 nodes).
    pub cube_dim: u32,
    /// Iterations to simulate (paper: 200).
    pub rounds: u64,
    /// Master seed (same for PF and PCF, as in the paper).
    pub seed: u64,
}

impl Default for FailureTrajOpts {
    fn default() -> Self {
        FailureTrajOpts {
            cube_dim: 6,
            rounds: 200,
            seed: 7,
        }
    }
}

/// Run one algorithm's error trajectory with a single permanent link
/// failure handled at `fail_at` (paper Figs. 4/7; `fail_at = None` gives
/// the failure-free baseline).
pub fn failure_trajectory(
    algorithm: Algorithm,
    opts: &FailureTrajOpts,
    fail_at: Option<u64>,
) -> Vec<ErrorSample> {
    let n = 1usize << opts.cube_dim;
    let graph = hypercube(opts.cube_dim);
    let data = InitialData::uniform_random(n, AggregateKind::Average, opts.seed ^ 0xACC);
    let plan = match fail_at {
        Some(t) => FaultPlan::none().fail_link(0, 1, t),
        None => FaultPlan::none(),
    };
    let cfg = RunConfig::fixed(opts.rounds, 1);
    let r = run_reduction(
        algorithm,
        &graph,
        &data,
        plan,
        opts.seed,
        cfg,
        SimOptions::default(),
    );
    r.series
}

#[derive(Serialize)]
struct TrajRow {
    round: u64,
    pf_max: f64,
    pf_median: f64,
    pcf_max: f64,
    pcf_median: f64,
}

/// Figs. 4 and 7 combined: PF and PCF error trajectories under a link
/// failure handled at round `fail_at`, same seed, one row per iteration.
pub fn failure_figure(name: &str, opts: &FailureTrajOpts, fail_at: u64) -> Table {
    let pf = failure_trajectory(Algorithm::PushFlow, opts, Some(fail_at));
    let pcf = failure_trajectory(
        Algorithm::PushCancelFlow(PhiMode::Eager),
        opts,
        Some(fail_at),
    );
    assert_eq!(pf.len(), pcf.len());
    let mut t = Table::new(
        name,
        &["round", "PF max", "PF median", "PCF max", "PCF median"],
    );
    for (a, b) in pf.iter().zip(&pcf) {
        debug_assert_eq!(a.round, b.round);
        let row = TrajRow {
            round: a.round,
            pf_max: a.max,
            pf_median: a.median,
            pcf_max: b.max,
            pcf_median: b.median,
        };
        t.push(
            vec![
                row.round.to_string(),
                fmt_err(row.pf_max),
                fmt_err(row.pf_median),
                fmt_err(row.pcf_max),
                fmt_err(row.pcf_median),
            ],
            &row,
        );
    }
    t
}

/// Options for the Fig. 8 dmGS sweep.
#[derive(Clone, Copy, Debug)]
pub struct DmgsSweepOpts {
    /// Smallest node-count exponent (paper: 5 → 32 nodes).
    pub min_exp: u32,
    /// Largest node-count exponent (paper: 10 → 1024 nodes).
    pub max_exp: u32,
    /// Columns of V (paper: 16).
    pub m: usize,
    /// Repetitions averaged per point (paper: 50).
    pub runs: u32,
    /// Per-reduction round cap.
    pub max_rounds_per_reduction: u64,
    /// Master seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for DmgsSweepOpts {
    fn default() -> Self {
        DmgsSweepOpts {
            min_exp: 5,
            max_exp: 8,
            m: 16,
            runs: 5,
            max_rounds_per_reduction: 3000,
            seed: 1234,
            threads: crate::parallel::default_threads(),
        }
    }
}

#[derive(Serialize)]
struct DmgsRow {
    algorithm: &'static str,
    nodes: usize,
    mean_fact_err: f64,
    mean_orth_err: f64,
    mean_consistency_err: f64,
    mean_rounds: f64,
    runs: u32,
}

/// Fig. 8: dmGS(PF) vs dmGS(PCF) factorization error over hypercube sizes,
/// averaged over `runs` random matrices.
pub fn dmgs_sweep(name: &str, opts: &DmgsSweepOpts) -> Table {
    use gr_dmgs::{dmgs, DmgsConfig};
    #[derive(Clone, Copy)]
    struct Job {
        alg: Algorithm,
        exp: u32,
        run: u32,
    }
    let algs = [
        Algorithm::PushFlow,
        Algorithm::PushCancelFlow(PhiMode::Eager),
    ];
    let mut jobs = Vec::new();
    for &alg in &algs {
        for exp in opts.min_exp..=opts.max_exp {
            for run in 0..opts.runs {
                jobs.push(Job { alg, exp, run });
            }
        }
    }
    let o = *opts;
    let results = par_map(jobs, opts.threads, move |job| {
        let n = 1usize << job.exp;
        let graph = hypercube(job.exp);
        let v = gr_linalg::Matrix::random_uniform(
            n,
            o.m,
            o.seed ^ ((job.run as u64) << 20) ^ job.exp as u64,
        );
        let mut cfg =
            DmgsConfig::paper(job.alg, o.seed ^ ((job.run as u64) << 40) ^ job.exp as u64);
        cfg.max_rounds_per_reduction = o.max_rounds_per_reduction;
        let r = dmgs(&v, &graph, &cfg);
        (
            job,
            r.factorization_error,
            r.orthogonality_error,
            r.consistency_error,
            r.total_rounds,
        )
    });

    let mut t = Table::new(
        name,
        &[
            "algorithm",
            "nodes",
            "mean ‖V−QR‖∞/‖V‖∞",
            "mean ‖I−QᵀQ‖∞",
            "mean consistency",
            "mean rounds",
        ],
    );
    for &alg in &algs {
        for exp in opts.min_exp..=opts.max_exp {
            let group: Vec<_> = results
                .iter()
                .filter(|(j, ..)| j.alg == alg && j.exp == exp)
                .collect();
            let k = group.len() as f64;
            let fact = group.iter().map(|x| x.1).sum::<f64>() / k;
            let orth = group.iter().map(|x| x.2).sum::<f64>() / k;
            let cons = group.iter().map(|x| x.3).sum::<f64>() / k;
            let rounds = group.iter().map(|x| x.4 as f64).sum::<f64>() / k;
            let row = DmgsRow {
                algorithm: match alg {
                    Algorithm::PushFlow => "dmGS(PF)",
                    _ => "dmGS(PCF)",
                },
                nodes: 1usize << exp,
                mean_fact_err: fact,
                mean_orth_err: orth,
                mean_consistency_err: cons,
                mean_rounds: rounds,
                runs: opts.runs,
            };
            t.push(
                vec![
                    row.algorithm.into(),
                    row.nodes.to_string(),
                    fmt_err(fact),
                    fmt_err(orth),
                    fmt_err(cons),
                    format!("{rounds:.0}"),
                ],
                &row,
            );
        }
    }
    t
}

#[derive(Serialize)]
struct BusRow {
    edge: String,
    pf_flow: f64,
    schematic: f64,
    pcf_flow_magnitude: f64,
    pf_estimate: f64,
}

/// Fig. 2, executable: the bus-network worked example. Runs PF (and PCF
/// for contrast) on the `v₁ = n+1, vᵢ = 1` bus case with the regular
/// round-robin schedule and reports flows against the schematic values
/// `f_{i−1,i} = n−i+1`.
pub fn bus_example(name: &str, n: usize, rounds: u64, seed: u64) -> Table {
    let graph = gr_topology::bus(n);
    let data = InitialData::bus_case(n);

    let mut pf_sim = Simulator::with_schedule(
        &graph,
        PushFlow::new(&graph, &data),
        FaultPlan::none(),
        seed,
        Schedule::round_robin(n),
    );
    pf_sim.run(rounds);
    let mut pcf_sim = Simulator::with_schedule(
        &graph,
        PushCancelFlow::new(&graph, &data),
        FaultPlan::none(),
        seed,
        Schedule::round_robin(n),
    );
    pcf_sim.run(rounds);

    let mut t = Table::new(
        name,
        &[
            "edge (i−1,i)",
            "PF flow value",
            "schematic n−i+1",
            "PCF max |flow|",
            "PF estimate at i−1",
        ],
    );
    for i in 2..=n {
        let (a, b) = ((i - 2) as u32, (i - 1) as u32);
        let pf = pf_sim.protocol();
        let pcf = pcf_sim.protocol();
        let pcf_mag = pcf
            .flow(a, b, 1)
            .value
            .abs()
            .max(pcf.flow(a, b, 2).value.abs());
        let row = BusRow {
            edge: format!("({},{})", i - 1, i),
            pf_flow: pf.flow(a, b).value,
            schematic: (n - i + 1) as f64,
            pcf_flow_magnitude: pcf_mag,
            pf_estimate: pf.scalar_estimate(a),
        };
        t.push(
            vec![
                row.edge.clone(),
                format!("{:.3}", row.pf_flow),
                format!("{:.0}", row.schematic),
                format!("{:.3}", row.pcf_flow_magnitude),
                format!("{:.12}", row.pf_estimate),
            ],
            &row,
        );
    }
    t
}

#[derive(Serialize)]
struct LossRow {
    algorithm: &'static str,
    loss_prob: f64,
    best_max_err: f64,
    rounds: u64,
    converged: bool,
}

/// Ablation A2: best achievable accuracy under probabilistic message loss
/// for every algorithm (push-sum's bias vs the flow algorithms' immunity).
pub fn message_loss_ablation(name: &str, cube_dim: u32, seed: u64, threads: usize) -> Table {
    let losses = [0.0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5];
    let algs = [
        Algorithm::PushSum,
        Algorithm::PushFlow,
        Algorithm::PushCancelFlow(PhiMode::Eager),
        Algorithm::FlowUpdating,
    ];
    let mut jobs = Vec::new();
    for &alg in &algs {
        for &p in &losses {
            jobs.push((alg, p));
        }
    }
    let n = 1usize << cube_dim;
    let rows = par_map(jobs, threads, move |(alg, p)| {
        let graph = hypercube(cube_dim);
        let data = InitialData::uniform_random(n, AggregateKind::Average, seed ^ 0x105);
        let cfg = RunConfig {
            target_accuracy: Some(1e-14),
            max_rounds: 60_000,
            record_every: 0,
            plateau_window: Some(3000),
        };
        let r = run_reduction(
            alg,
            &graph,
            &data,
            FaultPlan::with_loss(p),
            seed,
            cfg,
            SimOptions::default(),
        );
        LossRow {
            algorithm: alg.label(),
            loss_prob: p,
            best_max_err: r.best_max_err,
            rounds: r.rounds,
            converged: r.converged,
        }
    });
    let mut t = Table::new(
        name,
        &[
            "algorithm",
            "loss prob",
            "best max err",
            "rounds",
            "reached 1e-14",
        ],
    );
    for row in rows {
        t.push(
            vec![
                row.algorithm.into(),
                format!("{}", row.loss_prob),
                fmt_err(row.best_max_err),
                row.rounds.to_string(),
                row.converged.to_string(),
            ],
            &row,
        );
    }
    t
}

#[derive(Serialize)]
struct FlipRow {
    algorithm: String,
    flip_prob: f64,
    err_after_episode: f64,
    err_after_recovery: f64,
    bit_flips_injected: u64,
}

/// Generic two-phase run: `episode_rounds` with per-message bit-flip
/// probability `p`, then `recovery_rounds` failure-free; returns the max
/// error at the end of each phase plus the number of flips injected.
fn bit_flip_episode<Pr: ReductionProtocol>(
    graph: &Graph,
    protocol: Pr,
    data: &InitialData<f64>,
    p: f64,
    episode_rounds: u64,
    recovery_rounds: u64,
    seed: u64,
) -> (f64, f64, u64) {
    let mut checkpoint = Checkpoint::new(data);
    let mut sim = Simulator::new(graph, protocol, FaultPlan::with_bit_flips(p), seed);
    sim.run(episode_rounds);
    let mid = checkpoint
        .sample(sim.protocol(), sim.alive_nodes(), sim.round())
        .max;
    sim.set_fault_plan(FaultPlan::none());
    sim.run(recovery_rounds);
    let fin = checkpoint
        .sample(sim.protocol(), sim.alive_nodes(), sim.round())
        .max;
    (mid, fin, sim.stats().bit_flips)
}

/// Ablation A1: bit-flip episodes against PF, PCF-eager and PCF-hardened.
/// The paper's claim under test: Fig. 5 as printed ("eager") is *not*
/// fully bit-flip tolerant, the hardened ϕ variant is; PF recovers in
/// theory but high-exponent flips destroy its precision in f64.
pub fn bit_flip_ablation(name: &str, cube_dim: u32, seed: u64, threads: usize) -> Table {
    let probs = [0.0005, 0.005, 0.02];
    // Variants 0..2 are the paper-facing algorithms; 3 and 4 add the
    // magnitude guard (our extension): implausibly large received flows
    // are rejected as corrupted, closing the exponent-flip hole.
    let variants: Vec<String> = vec![
        "PF".into(),
        "PCF".into(),
        "PCF-hardened".into(),
        "PF-guarded".into(),
        "PCF-guarded".into(),
    ];
    let mut jobs = Vec::new();
    for label in &variants {
        for &p in &probs {
            jobs.push((label.clone(), p));
        }
    }
    let n = 1usize << cube_dim;
    let rows = par_map(jobs, threads, move |(label, p)| {
        let graph = hypercube(cube_dim);
        let data = InitialData::uniform_random(n, AggregateKind::Average, seed ^ 0xF11);
        let guard_bound = 1e6; // data is O(1); flows are O(n) at most
        let (mid, fin, flips) = match label.as_str() {
            "PF" => bit_flip_episode(
                &graph,
                PushFlow::new(&graph, &data),
                &data,
                p,
                300,
                1500,
                seed,
            ),
            "PCF" => bit_flip_episode(
                &graph,
                PushCancelFlow::with_mode(&graph, &data, PhiMode::Eager),
                &data,
                p,
                300,
                1500,
                seed,
            ),
            "PCF-hardened" => bit_flip_episode(
                &graph,
                PushCancelFlow::with_mode(&graph, &data, PhiMode::Hardened),
                &data,
                p,
                300,
                1500,
                seed,
            ),
            "PF-guarded" => bit_flip_episode(
                &graph,
                PushFlow::new(&graph, &data).with_guard(guard_bound),
                &data,
                p,
                300,
                1500,
                seed,
            ),
            "PCF-guarded" => bit_flip_episode(
                &graph,
                PushCancelFlow::with_mode(&graph, &data, PhiMode::Hardened).with_guard(guard_bound),
                &data,
                p,
                300,
                1500,
                seed,
            ),
            _ => unreachable!(),
        };
        FlipRow {
            algorithm: label,
            flip_prob: p,
            err_after_episode: mid,
            err_after_recovery: fin,
            bit_flips_injected: flips,
        }
    });
    let mut t = Table::new(
        name,
        &[
            "algorithm",
            "flip prob",
            "err after episode",
            "err after recovery",
            "flips injected",
        ],
    );
    for row in rows {
        t.push(
            vec![
                row.algorithm.clone(),
                format!("{}", row.flip_prob),
                fmt_err(row.err_after_episode),
                fmt_err(row.err_after_recovery),
                row.bit_flips_injected.to_string(),
            ],
            &row,
        );
    }
    t
}

#[derive(Serialize)]
struct CrashRow {
    algorithm: &'static str,
    crash_round: u64,
    final_max_err: f64,
    rounds: u64,
    converged: bool,
}

/// Ablation A3: a node crash mid-run; survivors must re-converge to the
/// survivors' aggregate (oracle-recomputed from remaining mass).
pub fn node_crash_ablation(name: &str, cube_dim: u32, seed: u64, threads: usize) -> Table {
    let crash_rounds = [50u64, 150];
    let algs = [
        Algorithm::PushFlow,
        Algorithm::PushCancelFlow(PhiMode::Eager),
    ];
    let mut jobs = Vec::new();
    for &alg in &algs {
        for &t0 in &crash_rounds {
            jobs.push((alg, t0));
        }
    }
    let n = 1usize << cube_dim;
    let rows = par_map(jobs, threads, move |(alg, t0)| {
        let graph = hypercube(cube_dim);
        let data = InitialData::uniform_random(n, AggregateKind::Average, seed ^ 0xC4A5);
        let plan = FaultPlan::none().crash_node((n / 2) as u32, t0);
        let cfg = RunConfig::to_accuracy(1e-13, 60_000);
        let r = run_reduction(alg, &graph, &data, plan, seed, cfg, SimOptions::default());
        CrashRow {
            algorithm: alg.label(),
            crash_round: t0,
            final_max_err: r.final_err.max,
            rounds: r.rounds,
            converged: r.converged,
        }
    });
    let mut t = Table::new(
        name,
        &[
            "algorithm",
            "crash round",
            "final max err",
            "rounds",
            "reconverged",
        ],
    );
    for row in rows {
        t.push(
            vec![
                row.algorithm.into(),
                row.crash_round.to_string(),
                fmt_err(row.final_max_err),
                row.rounds.to_string(),
                row.converged.to_string(),
            ],
            &row,
        );
    }
    t
}

#[derive(Serialize)]
struct ExecModelRow {
    algorithm: &'static str,
    model: String,
    rounds_to_target: u64,
    best_max_err: f64,
    converged: bool,
}

/// Ablation A4: execution models — synchronous rounds (the paper's model)
/// vs asynchronous single-node activation vs delayed delivery. All
/// protocols must converge under all models; the interesting output is
/// the round cost of each relaxation.
pub fn execution_model_ablation(name: &str, cube_dim: u32, seed: u64, threads: usize) -> Table {
    let models: Vec<(String, SimOptions)> = vec![
        ("synchronous".into(), SimOptions::default()),
        (
            "asynchronous".into(),
            SimOptions {
                activation: Activation::Asynchronous,
                ..SimOptions::default()
            },
        ),
        (
            "delay fixed 2".into(),
            SimOptions {
                delay: DelayModel::Fixed(2),
                ..SimOptions::default()
            },
        ),
        (
            "delay U(0,4)".into(),
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
    let mut jobs = Vec::new();
    for &alg in &algs {
        for (label, o) in &models {
            jobs.push((alg, label.clone(), o.clone()));
        }
    }
    let n = 1usize << cube_dim;
    let rows = par_map(jobs, threads, move |(alg, label, o)| {
        let graph = hypercube(cube_dim);
        let data = InitialData::uniform_random(n, AggregateKind::Average, seed ^ 0xE8EC);
        let cfg = RunConfig::to_accuracy(1e-12, 100_000);
        let r = run_reduction(alg, &graph, &data, FaultPlan::none(), seed, cfg, o);
        ExecModelRow {
            algorithm: alg.label(),
            model: label,
            rounds_to_target: r.rounds,
            best_max_err: r.best_max_err,
            converged: r.converged,
        }
    });
    let mut t = Table::new(
        name,
        &[
            "algorithm",
            "execution model",
            "rounds to 1e-12",
            "best max err",
            "converged",
        ],
    );
    for row in rows {
        t.push(
            vec![
                row.algorithm.into(),
                row.model.clone(),
                row.rounds_to_target.to_string(),
                fmt_err(row.best_max_err),
                row.converged.to_string(),
            ],
            &row,
        );
    }
    t
}

#[derive(Serialize)]
struct CompPfRow {
    algorithm: &'static str,
    nodes: usize,
    best_max_err: f64,
    rounds: u64,
}

/// Ablation A5: does compensated summation rescue push-flow?
///
/// Tests the paper's Sec. II-B remark that storing the sum of flows more
/// carefully cannot fix PF: the *write-side* rounding — `f += e/2` rounds
/// at `ε·|f|` with `|f| = O(n·aggregate)` — is baked into the flow values
/// themselves. Expected shape: compensated PF improves on plain PF by a
/// modest constant (the read-side cancellation is gone) but keeps the
/// same growth-with-n, far above PCF (which keeps `|f| = O(aggregate)` so
/// *both* error sources vanish).
pub fn compensated_pf_ablation(name: &str, max_exp: u32, seed: u64, threads: usize) -> Table {
    let mut jobs = Vec::new();
    for exp in 1..=max_exp {
        for alg in ["PF", "PF-compensated", "PCF"] {
            jobs.push((exp, alg));
        }
    }
    let rows = par_map(jobs, threads, move |(exp, alg)| {
        let n = 8usize.pow(exp);
        let graph = torus_of_exp(exp);
        let data = InitialData::uniform_random(n, AggregateKind::Sum, seed ^ (exp as u64) << 8);
        let cfg = RunConfig {
            target_accuracy: Some(1e-15),
            max_rounds: 200_000,
            record_every: 0,
            plateau_window: Some(4000),
        };
        let r = match alg {
            "PF" => run_with_options(
                &graph,
                PushFlow::new(&graph, &data),
                &data,
                FaultPlan::none(),
                seed,
                cfg,
                SimOptions::default(),
            ),
            "PF-compensated" => run_with_options(
                &graph,
                PushFlow::new(&graph, &data).with_compensated_estimates(),
                &data,
                FaultPlan::none(),
                seed,
                cfg,
                SimOptions::default(),
            ),
            _ => run_with_options(
                &graph,
                PushCancelFlow::new(&graph, &data),
                &data,
                FaultPlan::none(),
                seed,
                cfg,
                SimOptions::default(),
            ),
        };
        CompPfRow {
            algorithm: alg,
            nodes: n,
            best_max_err: r.best_max_err,
            rounds: r.rounds,
        }
    });
    let mut t = Table::new(name, &["algorithm", "nodes", "best max err", "rounds"]);
    for row in rows {
        t.push(
            vec![
                row.algorithm.into(),
                row.nodes.to_string(),
                fmt_err(row.best_max_err),
                row.rounds.to_string(),
            ],
            &row,
        );
    }
    t
}

/// Sanity companion to Figs. 4/7: with no failure, PF and PCF produce the
/// same trajectory (same seed ⇒ same schedule; equivalence up to f64
/// rounding). Returns the max |PF−PCF| estimate deviation over the run.
pub fn equivalence_check(cube_dim: u32, rounds: u64, seed: u64) -> f64 {
    let n = 1usize << cube_dim;
    let graph = hypercube(cube_dim);
    let data = InitialData::uniform_random(n, AggregateKind::Average, seed ^ 0xE0);
    let mut pf = Simulator::new(
        &graph,
        PushFlow::new(&graph, &data),
        FaultPlan::none(),
        seed,
    );
    let mut pcf = Simulator::new(
        &graph,
        PushCancelFlow::new(&graph, &data),
        FaultPlan::none(),
        seed,
    );
    let mut worst: f64 = 0.0;
    for _ in 0..rounds {
        pf.step();
        pcf.step();
        for i in 0..n as u32 {
            let d = (pf.protocol().scalar_estimate(i) - pcf.protocol().scalar_estimate(i)).abs();
            worst = worst.max(d);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torus_exp_one_is_cube() {
        let g = torus_of_exp(1);
        assert_eq!(g.len(), 8);
        assert!(gr_topology::is_regular(&g, 3));
        let g2 = torus_of_exp(2);
        assert_eq!(g2.len(), 64);
        assert!(gr_topology::is_regular(&g2, 6));
    }

    #[test]
    fn accuracy_sweep_tiny() {
        let opts = AccuracySweepOpts {
            max_exp: 1,
            plateau: 500,
            max_rounds: 20_000,
            threads: 1,
            ..Default::default()
        };
        let t = accuracy_sweep("t", Algorithm::PushCancelFlow(PhiMode::Eager), &opts);
        assert_eq!(t.rows.len(), 4); // 2 topologies × 2 aggregates
                                     // 8-node PCF must reach excellent accuracy
        for raw in &t.raw {
            assert!(raw["best_max_err"].as_f64().unwrap() < 1e-13);
        }
    }

    #[test]
    fn failure_figure_shapes() {
        let opts = FailureTrajOpts {
            cube_dim: 4,
            rounds: 120,
            seed: 3,
        };
        let t = failure_figure("t", &opts, 60);
        assert_eq!(t.rows.len(), 120);
        // PF rebounds after the failure, PCF does not: compare error at 59
        // vs 62.
        let at = |r: u64, key: &str| {
            t.raw
                .iter()
                .find(|v| v["round"] == r)
                .and_then(|v| v[key].as_f64())
                .unwrap()
        };
        assert!(
            at(62, "pf_max") > at(59, "pf_max") * 5.0,
            "PF should rebound"
        );
        assert!(
            at(62, "pcf_max") < at(59, "pcf_max") * 5.0,
            "PCF should not"
        );
        // identical before the failure (same seed)
        assert!((at(30, "pf_max") - at(30, "pcf_max")).abs() <= at(30, "pf_max") * 1e-6);
    }

    #[test]
    fn bus_example_matches_schematic() {
        let t = bus_example("t", 8, 6000, 0);
        assert_eq!(t.rows.len(), 7);
        for raw in &t.raw {
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

    #[test]
    fn dmgs_sweep_tiny_shows_ordering() {
        let opts = DmgsSweepOpts {
            min_exp: 4,
            max_exp: 5,
            m: 4,
            runs: 2,
            max_rounds_per_reduction: 1500,
            seed: 9,
            threads: 1,
        };
        let t = dmgs_sweep("t", &opts);
        assert_eq!(t.rows.len(), 4); // 2 algorithms × 2 sizes
        let get = |alg: &str, n: u64| {
            t.raw
                .iter()
                .find(|r| r["algorithm"] == alg && r["nodes"] == n)
                .map(|r| r["mean_fact_err"].as_f64().unwrap())
                .unwrap()
        };
        // both factorize; PCF at least as good as PF at the larger size
        assert!(get("dmGS(PCF)", 32) < 1e-12);
        assert!(get("dmGS(PCF)", 32) <= get("dmGS(PF)", 32) * 2.0);
    }

    #[test]
    fn message_loss_ablation_tiny() {
        let t = message_loss_ablation("t", 4, 3, 1);
        // push-sum biased at any loss; PCF converged everywhere
        for r in &t.raw {
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
    fn node_crash_ablation_tiny() {
        let t = node_crash_ablation("t", 4, 5, 1);
        for r in &t.raw {
            assert_eq!(r["converged"], true, "{r}");
        }
    }

    #[test]
    fn bit_flip_ablation_tiny() {
        let t = bit_flip_ablation("t", 4, 7, 1);
        assert_eq!(t.rows.len(), 15); // 5 variants × 3 rates
                                      // at the lowest rate, PCF recovers to high accuracy
        let pcf_low = t
            .raw
            .iter()
            .find(|r| r["algorithm"] == "PCF" && r["flip_prob"].as_f64().unwrap() < 1e-3)
            .unwrap();
        assert!(pcf_low["err_after_recovery"].as_f64().unwrap() < 1e-9);
    }

    #[test]
    fn compensated_pf_sits_between_pf_and_pcf() {
        let t = compensated_pf_ablation("t", 2, 3, 1);
        let best = |alg: &str| {
            t.raw
                .iter()
                .filter(|r| r["algorithm"] == alg && r["nodes"] == 64)
                .map(|r| r["best_max_err"].as_f64().unwrap())
                .next()
                .unwrap()
        };
        // write-side rounding keeps compensated PF above PCF
        assert!(best("PF-compensated") <= best("PF") * 2.0);
        assert!(best("PCF") <= best("PF"));
    }

    #[test]
    fn execution_model_ablation_converges_everywhere() {
        let t = execution_model_ablation("t", 4, 5, 1);
        for r in &t.raw {
            assert_eq!(r["converged"], true, "{r}");
        }
    }

    #[test]
    fn equivalence_before_failure() {
        let dev = equivalence_check(4, 80, 5);
        assert!(dev < 1e-9, "PF/PCF diverged: {dev}");
    }
}
