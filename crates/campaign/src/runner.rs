//! Scenario execution: build the simulation, drive it checkpoint by
//! checkpoint, and let the oracle watch.
//!
//! Each scenario supplies its own execution model via
//! [`Scenario::sim_options`] — zero-delay scenarios run under
//! asynchronous activation (atomic exchanges — see the module docs on
//! [`crate::scenario`] for why that is load-bearing for the oracle's
//! tolerances), delay-bearing ones under synchronous activation with a
//! timeout failure detector. The oracle is consulted every
//! [`CHECK_EVERY`] rounds; the first violation ends the run, so the
//! fingerprinted `(invariant, round, node)` triple always names the
//! *earliest* detected failure.

use crate::oracle::{Oracle, Violation};
use crate::scenario::{Scenario, Workload};
use gr_batch::{BatchHost, BatchOptions, BatchSim, TenantProtocol, TenantSpec};
use gr_netsim::{Protocol, SimStats, Simulator, Trace};
use gr_numerics::{relative_error, Dd};
use gr_reduction::{
    mass_reference, AggregateKind, Algorithm, FlowUpdating, InitialData, InlineVec, Payload,
    PushCancelFlow, PushFlow, PushSum, ReductionProtocol,
};
use gr_topology::{Graph, NodeId};
use rand::prelude::*;

/// Oracle checkpoint cadence, in rounds.
pub const CHECK_EVERY: u64 = 16;

/// Everything the report (and the replay comparison) needs from one run.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// The scenario fingerprint hash.
    pub hash: String,
    /// Scenario template label.
    pub template: String,
    /// Algorithm label.
    pub algorithm: &'static str,
    /// Topology label.
    pub topology: String,
    /// Master seed.
    pub seed: u64,
    /// Rounds actually executed.
    pub rounds: u64,
    /// Max relative error over alive nodes at the last checkpoint.
    pub final_err: f64,
    /// Transport counters.
    pub stats: SimStats,
    /// How the engine partition count was chosen (explicit override,
    /// single-stream default, or the measured cost model — with the
    /// model's probe constants when measured). `None` for multi-tenant
    /// batch scenarios, which run on the batch executor instead of one
    /// partitioned simulator.
    pub partitions: Option<gr_netsim::PartitionPlan>,
    /// First invariant violation, if any.
    pub violation: Option<Violation>,
}

/// Execution-level knobs that are *not* part of a scenario's identity:
/// they may change wall-clock behaviour but never results — with the one
/// documented exception of [`Exec::partitions`], an explicit operator
/// override for experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct Exec {
    /// Worker threads for the partitioned engine's parallel phases
    /// (`0` = the netsim default of 1). Thread count never changes
    /// results — the partitioned engine's merge order is fixed by
    /// partition index, and this is pinned by the determinism suite.
    pub sim_threads: usize,
    /// Override the engine partition count (`None` = respect each
    /// scenario's own choice). Unlike threads this *does* change
    /// results (partition count selects RNG streams), so reports
    /// produced under an override are comparable only to other runs
    /// with the same override. The override applies to every
    /// single-simulator scenario (async activation flips to synchronous);
    /// multi-tenant batch scenarios run on the batch executor and ignore
    /// it.
    pub partitions: Option<usize>,
}

/// Run one scenario (no tracing, default execution).
pub fn run_scenario(sc: &Scenario) -> ScenarioResult {
    run_scenario_exec(sc, Exec::default())
}

/// Run one scenario with explicit execution options.
pub fn run_scenario_exec(sc: &Scenario, exec: Exec) -> ScenarioResult {
    run_scenario_traced_exec(sc, None, exec).0
}

/// Run one scenario, optionally recording the netsim event trace (ring
/// buffer of `capacity` events) for replay reporting.
pub fn run_scenario_traced(
    sc: &Scenario,
    trace_capacity: Option<usize>,
) -> (ScenarioResult, Option<Trace>) {
    run_scenario_traced_exec(sc, trace_capacity, Exec::default())
}

/// [`run_scenario_traced`] with explicit execution options.
pub fn run_scenario_traced_exec(
    sc: &Scenario,
    trace_capacity: Option<usize>,
    exec: Exec,
) -> (ScenarioResult, Option<Trace>) {
    // Tenant scenarios run on the gr-batch executor: N instances of the
    // topology under one shared fault plan, oracle-checked per tenant.
    // No netsim trace exists for a batch run (the executor has no event
    // ring), so replay renders the outcome without a trace tail.
    if sc.tenants > 0 {
        return (run_batch_scenario(sc, exec), None);
    }
    let graph = sc.topology.build();
    match sc.workload {
        Workload::Average | Workload::Sum => {
            let data = InitialData::uniform_random(graph.len(), sc.workload.kind(), sc.seed);
            dispatch(sc, &graph, &data, trace_capacity, exec)
        }
        Workload::VectorAvg { dim } => {
            let data = vector_data(graph.len(), dim, sc.seed);
            dispatch(sc, &graph, &data, trace_capacity, exec)
        }
    }
}

/// Deterministic vector workload: `dim` uniform components per node,
/// same seeding discipline as `InitialData::uniform_random`. The draw
/// order is unchanged from the original `Vec<f64>` workload — `InlineVec`
/// is numerically transparent, so every fingerprinted result is
/// byte-identical while small dims run allocation-free.
fn vector_data(n: usize, dim: usize, seed: u64) -> InitialData<InlineVec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let values: Vec<InlineVec> = (0..n)
        .map(|_| InlineVec::from((0..dim).map(|_| rng.random::<f64>()).collect::<Vec<f64>>()))
        .collect();
    InitialData::with_kind(values, AggregateKind::Average)
}

fn dispatch<P: Payload>(
    sc: &Scenario,
    graph: &Graph,
    data: &InitialData<P>,
    trace_capacity: Option<usize>,
    exec: Exec,
) -> (ScenarioResult, Option<Trace>) {
    match sc.algorithm {
        Algorithm::PushSum => drive(
            sc,
            graph,
            data,
            PushSum::new(graph, data),
            trace_capacity,
            exec,
        ),
        Algorithm::PushFlow => drive(
            sc,
            graph,
            data,
            PushFlow::new(graph, data),
            trace_capacity,
            exec,
        ),
        Algorithm::PushCancelFlow(mode) => drive(
            sc,
            graph,
            data,
            PushCancelFlow::with_mode(graph, data, mode),
            trace_capacity,
            exec,
        ),
        Algorithm::FlowUpdating => drive(
            sc,
            graph,
            data,
            FlowUpdating::new(graph, data),
            trace_capacity,
            exec,
        ),
    }
}

fn drive<P: Payload, Pr: ReductionProtocol>(
    sc: &Scenario,
    graph: &Graph,
    data: &InitialData<P>,
    protocol: Pr,
    trace_capacity: Option<usize>,
    exec: Exec,
) -> (ScenarioResult, Option<Trace>) {
    let mut options = sc.sim_options();
    if exec.sim_threads > 0 {
        options.threads = exec.sim_threads;
    }
    if let Some(p) = exec.partitions {
        // Async-activation scenarios flip to synchronous activation —
        // partitions ≥ 2 are defined for synchronous rounds only.
        options.partitions = p;
        if p >= 2 {
            options.activation = gr_netsim::Activation::Synchronous;
        }
    }
    // The corpus builders only produce valid execution models; a
    // hand-built scenario (or an incompatible partition override) that
    // violates the netsim config rules is reported through the typed
    // `SimConfigError` here.
    let mut sim = Simulator::try_with_options(graph, protocol, sc.fault_plan(), sc.seed, options)
        .unwrap_or_else(|e| panic!("scenario {}: invalid execution model: {e}", sc.hash()));
    if let Some(cap) = trace_capacity {
        sim.enable_trace(cap);
    }

    let mut oracle = Oracle::new(sc, data);
    let mut refs = data.reference();
    let mut alive_count = graph.len();
    let mut crashed = false;

    loop {
        sim.step();
        let round = sim.round();
        let done = round >= sc.max_rounds;
        if round % CHECK_EVERY != 0 && !done {
            continue;
        }

        let alive: Vec<NodeId> = sim.alive_nodes().collect();
        if alive.len() != alive_count {
            alive_count = alive.len();
            crashed = true;
        }
        if crashed {
            // Same policy as the experiment runner: after a crash the
            // survivors' achievable aggregate is the ratio of their
            // remaining mass, recomputed at every sample because any
            // single snapshot is distorted by in-flight error.
            refs = mass_reference(sim.protocol(), alive.iter().copied())
                .unwrap_or_else(|| vec![Dd::ZERO; data.dim()]);
        }
        let (err, worst_node) = worst_error(sim.protocol(), &refs, &alive);
        oracle.note_error(round, err);

        let edges = mutual_edges(&sim, &alive);
        let mut violation = oracle.check_step(sim.protocol(), &alive, &edges, round);
        let converged = sc.target_accuracy > 0.0 && err <= sc.target_accuracy;
        if violation.is_none() && (converged || done) {
            violation = oracle.check_end(sc, round, err, worst_node);
        }
        if violation.is_some() || converged || done {
            let result = ScenarioResult {
                hash: sc.hash(),
                template: sc.template.clone(),
                algorithm: sc.algorithm.label(),
                topology: sc.topology.label(),
                seed: sc.seed,
                rounds: round,
                final_err: err,
                stats: sim.stats(),
                partitions: Some(*sim.partition_plan()),
                violation,
            };
            let trace = sim.trace().cloned();
            return (result, trace);
        }
    }
}

/// Run a `tenants > 0` scenario on the gr-batch multi-tenant executor:
/// `sc.tenants` instances of the scenario's topology, tenant `t` seeded
/// `sc.seed + t` with its own uniform-random initial values, every
/// tenant under the SAME scheduled-fault plan (tenant-local ids — the
/// batch engine offsets them into union space). The oracle checks each
/// tenant independently against its own initial data; the first
/// violation (tenant order, then invariant order) is the one reported,
/// with the node mapped back to the tenant-local id.
fn run_batch_scenario(sc: &Scenario, exec: Exec) -> ScenarioResult {
    assert_eq!(
        sc.workload,
        Workload::Average,
        "tenant scenarios are scalar-average workloads"
    );
    let graph = sc.topology.build();
    let plan = sc.fault_plan();
    let specs: Vec<TenantSpec> = (0..sc.tenants)
        .map(|t| {
            let seed = sc.seed.wrapping_add(t as u64);
            let mut rng = StdRng::seed_from_u64(seed);
            let values = (0..graph.len()).map(|_| rng.random::<f64>()).collect();
            TenantSpec {
                graph: graph.clone(),
                seed,
                plan: plan.clone(),
                values,
                max_rounds: sc.max_rounds,
            }
        })
        .collect();
    let host = BatchHost::assemble(&specs)
        .unwrap_or_else(|e| panic!("scenario {}: invalid batch config: {e}", sc.hash()));
    let data = host.union_data(&specs);
    match sc.algorithm {
        Algorithm::PushFlow => {
            drive_batch(sc, &host, &specs, PushFlow::new(host.graph(), &data), exec)
        }
        Algorithm::PushCancelFlow(mode) => drive_batch(
            sc,
            &host,
            &specs,
            PushCancelFlow::with_mode(host.graph(), &data, mode),
            exec,
        ),
        Algorithm::FlowUpdating => drive_batch(
            sc,
            &host,
            &specs,
            FlowUpdating::new(host.graph(), &data),
            exec,
        ),
        Algorithm::PushSum => panic!(
            "scenario {}: tenant scenarios require a flow protocol (push-sum has no batch support)",
            sc.hash()
        ),
    }
}

fn drive_batch<P: TenantProtocol + ReductionProtocol>(
    sc: &Scenario,
    host: &BatchHost,
    specs: &[TenantSpec],
    protocol: P,
    exec: Exec,
) -> ScenarioResult {
    let n_t = specs.len();
    let opts = BatchOptions {
        threads: exec.sim_threads.max(1),
        ..BatchOptions::default()
    };
    let mut sim = BatchSim::new(host, protocol, specs, opts)
        .unwrap_or_else(|e| panic!("scenario {}: invalid batch options: {e}", sc.hash()));

    // Per-tenant oracle state, each against that tenant's own data.
    let per_data: Vec<InitialData<f64>> = specs
        .iter()
        .map(|s| InitialData::with_kind(s.values.clone(), AggregateKind::Average))
        .collect();
    let mut oracles: Vec<Oracle> = per_data.iter().map(|d| Oracle::new(sc, d)).collect();
    let mut refs: Vec<Vec<Dd>> = per_data.iter().map(|d| d.reference()).collect();
    let mut alive_counts: Vec<usize> = specs.iter().map(|s| s.graph.len()).collect();
    let mut crashed = vec![false; n_t];
    let mut errs = vec![(0.0f64, 0 as NodeId); n_t];

    loop {
        sim.step_round();
        let round = sim.round();
        let done = round >= sc.max_rounds;
        if round % CHECK_EVERY != 0 && !done {
            continue;
        }

        let mut violation: Option<Violation> = None;
        for t in 0..n_t {
            let node_base = host.tenant_nodes(t).start;
            let alive: Vec<NodeId> = sim.tenant_alive_nodes(t).collect();
            if alive.len() != alive_counts[t] {
                alive_counts[t] = alive.len();
                crashed[t] = true;
            }
            if crashed[t] {
                // Same survivor-mass re-basing as the classic driver,
                // scoped to the tenant's node block.
                refs[t] = mass_reference(sim.protocol(), alive.iter().copied())
                    .unwrap_or_else(|| vec![Dd::ZERO; per_data[t].dim()]);
            }
            let (err, worst_node) = worst_error(sim.protocol(), &refs[t], &alive);
            oracles[t].note_error(round, err);
            errs[t] = (err, worst_node);
            if violation.is_none() {
                let edges = batch_mutual_edges(&sim, &alive);
                violation = oracles[t]
                    .check_step(sim.protocol(), &alive, &edges, round)
                    .map(|v| localize_violation(v, t, node_base));
            }
        }
        // The reported error is the worst tenant's — one number that
        // bounds the whole fleet.
        let (final_err, _) =
            errs.iter().fold(
                (0.0f64, 0 as NodeId),
                |acc, &e| if e.0 > acc.0 { e } else { acc },
            );
        let converged = sc.target_accuracy > 0.0 && final_err <= sc.target_accuracy;
        if violation.is_none() && (converged || done) {
            for t in 0..n_t {
                let node_base = host.tenant_nodes(t).start;
                let (err, worst_node) = errs[t];
                if let Some(v) = oracles[t].check_end(sc, round, err, worst_node) {
                    violation = Some(localize_violation(v, t, node_base));
                    break;
                }
            }
        }
        if violation.is_some() || converged || done {
            let mut stats = SimStats::default();
            for t in 0..n_t {
                stats.merge(&sim.tenant_stats(t));
            }
            stats.rounds = round;
            return ScenarioResult {
                hash: sc.hash(),
                template: sc.template.clone(),
                algorithm: sc.algorithm.label(),
                topology: sc.topology.label(),
                seed: sc.seed,
                rounds: round,
                final_err,
                stats,
                partitions: None,
                violation,
            };
        }
    }
}

/// Map a violation caught in union-graph coordinates back to the
/// tenant-local node id, and stamp the tenant index into the detail.
fn localize_violation(v: Violation, tenant: usize, node_base: NodeId) -> Violation {
    Violation {
        node: v.node - node_base,
        detail: format!("tenant {tenant}: {}", v.detail),
        ..v
    }
}

/// [`mutual_edges`] over a batch tenant's alive set (union-graph ids).
fn batch_mutual_edges<P: TenantProtocol>(
    sim: &BatchSim<'_, P>,
    alive: &[NodeId],
) -> Vec<(NodeId, NodeId)> {
    let mut edges = Vec::new();
    for &i in alive {
        for &j in sim.believed_alive(i) {
            if j > i && alive.binary_search(&j).is_ok() && sim.believed_alive(j).contains(&i) {
                edges.push((i, j));
            }
        }
    }
    edges
}

/// Max relative error over the alive set, with the worst node attributed
/// (ties break to the lowest node id; an all-zero-error run attributes to
/// the first alive node).
fn worst_error<Pr: ReductionProtocol + ?Sized>(
    proto: &Pr,
    refs: &[Dd],
    alive: &[NodeId],
) -> (f64, NodeId) {
    let mut buf = vec![0.0; proto.dim()];
    let mut worst = 0.0f64;
    let mut worst_node = alive.first().copied().unwrap_or(0);
    for &i in alive {
        proto.write_estimate(i, &mut buf);
        let mut node_err = 0.0f64;
        for (k, &r) in refs.iter().enumerate() {
            // `relative_error` maps a destroyed (non-finite) estimate to
            // +∞, so NaN never slips through a max fold here.
            node_err = node_err.max(relative_error(buf[k], r));
        }
        if node_err > worst {
            worst = node_err;
            worst_node = i;
        }
    }
    (worst, worst_node)
}

/// Edges `(i, j)`, `i < j`, whose endpoints are both alive and mutually
/// believe each other alive — the set over which flow antisymmetry is a
/// meaningful claim (after a detected failure both endpoints have reset
/// their flow state for the edge).
fn mutual_edges<Pr: Protocol>(sim: &Simulator<'_, Pr>, alive: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let mut edges = Vec::new();
    for &i in alive {
        for &j in sim.believed_alive(i) {
            if j > i && alive.binary_search(&j).is_ok() && sim.believed_alive(j).contains(&i) {
                edges.push((i, j));
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{sanity_corpus, stress_corpus, Lane};
    use gr_reduction::PhiMode;

    #[test]
    fn sanity_scenario_converges_cleanly() {
        // One representative per algorithm on the fastest-mixing topology.
        let corpus = sanity_corpus(&[1]);
        for sc in corpus.iter().filter(|s| s.template == "complete16") {
            let r = run_scenario(sc);
            assert!(
                r.violation.is_none(),
                "{}: {:?}",
                sc.canonical(),
                r.violation
            );
            assert!(r.final_err <= sc.target_accuracy);
            assert!(r.rounds < sc.max_rounds);
        }
    }

    #[test]
    fn results_are_deterministic() {
        let sc = &stress_corpus(&[2])[0];
        let a = run_scenario(sc);
        let b = run_scenario(sc);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.final_err.to_bits(), b.final_err.to_bits());
        assert_eq!(a.violation, b.violation);
    }

    #[test]
    fn timeout_heal_scenario_is_violation_free_for_pcf() {
        // The headline robustness case: a local timeout failure detector
        // under uniform message delay (false suspicions happen and are
        // rehabilitated), a scheduled link failure detected only through
        // silence, and a later link heal. PCF must ride through the
        // whole cycle with zero oracle violations and reconverge.
        let corpus = stress_corpus(&[1]);
        let cases: Vec<_> = corpus
            .iter()
            .filter(|s| {
                s.template.starts_with("timeout+heal/")
                    && matches!(s.algorithm, Algorithm::PushCancelFlow(_))
            })
            .collect();
        assert_eq!(cases.len(), 2, "both PCF modes are in the corpus");
        for sc in cases {
            let r = run_scenario(sc);
            assert!(
                r.violation.is_none(),
                "{}: {:?}",
                sc.canonical(),
                r.violation
            );
            assert!(
                r.final_err < 1e-6,
                "{}: err={:e}",
                sc.canonical(),
                r.final_err
            );
            assert!(r.stats.suspected > 0, "timeout detector never fired");
        }
    }

    #[test]
    fn restart_scenario_reconverges_for_pcf() {
        // Crash, then a scheduled restart: the rejoining node must be
        // counted exactly once and the network reconverges to the new
        // aggregate with no oracle violation.
        let corpus = stress_corpus(&[1]);
        let sc = corpus
            .iter()
            .find(|s| {
                s.template.starts_with("restart/")
                    && s.algorithm == Algorithm::PushCancelFlow(PhiMode::Hardened)
            })
            .unwrap();
        let r = run_scenario(sc);
        assert!(
            r.violation.is_none(),
            "{}: {:?}",
            sc.canonical(),
            r.violation
        );
        assert!(r.final_err < 1e-6, "err={:e}", r.final_err);
    }

    #[test]
    fn workload_scenarios_converge() {
        let corpus = sanity_corpus(&[2]);
        let sum = corpus
            .iter()
            .find(|s| {
                s.template == "sum/complete16"
                    && s.algorithm == Algorithm::PushCancelFlow(PhiMode::Hardened)
            })
            .unwrap();
        let r = run_scenario(sum);
        assert!(
            r.violation.is_none(),
            "{}: {:?}",
            sum.canonical(),
            r.violation
        );
        let vec = corpus
            .iter()
            .find(|s| s.template == "vec3/hypercube5" && s.algorithm == Algorithm::FlowUpdating)
            .unwrap();
        let r = run_scenario(vec);
        assert!(
            r.violation.is_none(),
            "{}: {:?}",
            vec.canonical(),
            r.violation
        );
    }

    #[test]
    fn partition_override_is_thread_invariant() {
        // Force a zero-delay stress scenario and a delay-bearing one onto
        // the partitioned engine and sweep the worker count: results must
        // be byte-identical — sim threads are an execution hint, not
        // identity.
        let zero_delay = stress_corpus(&[2])
            .into_iter()
            .find(|s| s.template.starts_with("loss/") && s.delay_max == 0)
            .unwrap();
        let delayed = stress_corpus(&[1])
            .into_iter()
            .find(|s| s.delay_max > 0)
            .unwrap();
        for sc in [zero_delay, delayed] {
            let exec1 = Exec {
                sim_threads: 1,
                partitions: Some(4),
            };
            let a = run_scenario_exec(&sc, exec1);
            for sim_threads in [2, 4] {
                let b = run_scenario_exec(
                    &sc,
                    Exec {
                        sim_threads,
                        partitions: Some(4),
                    },
                );
                assert_eq!(a.rounds, b.rounds, "{}", sc.canonical());
                assert_eq!(a.stats, b.stats, "{}", sc.canonical());
                assert_eq!(a.final_err.to_bits(), b.final_err.to_bits());
                assert_eq!(a.violation, b.violation);
            }
            // And the override genuinely changed the execution relative
            // to the scenario's own run (different RNG streams).
            let own = run_scenario(&sc);
            assert_ne!(own.stats, a.stats, "{}", sc.canonical());
        }
    }

    #[test]
    fn million_node_scenario_executes_partitioned() {
        let sc = stress_corpus(&[1])
            .into_iter()
            .find(|s| s.template == "scale1m-avg/torus1000x1000")
            .unwrap();
        let r = run_scenario_exec(
            &sc,
            Exec {
                sim_threads: 2,
                partitions: None,
            },
        );
        assert!(r.violation.is_none(), "{:?}", r.violation);
        assert_eq!(r.rounds, 8);
        // Every node sends each of the 8 full-sweep rounds.
        assert_eq!(r.stats.sent, 8_000_000);
        assert!(r.stats.lost_random > 0, "loss never fired: {:?}", r.stats);
        // 8 rounds into a diameter-1000 mix the error is still huge (a
        // PCF weight estimate may even pass through zero, making it ∞) —
        // the template checks engine execution and oracle screens, not
        // convergence. The transport must have delivered the non-lost
        // traffic, though.
        assert_eq!(
            r.stats.delivered + r.stats.lost_random,
            r.stats.sent,
            "{:?}",
            r.stats
        );
    }

    #[test]
    fn tenants_scenario_runs_batched_and_is_thread_invariant() {
        // The multi-tenant template: 24 hc6 tenants under one shared
        // fault plan on the gr-batch executor. PCF-hardened must ride
        // through with zero per-tenant oracle violations, and the batch
        // worker count must not perturb a single byte of the result.
        let sc = stress_corpus(&[1])
            .into_iter()
            .find(|s| {
                s.template == "tenants/hc6-shared-faults"
                    && s.algorithm == Algorithm::PushCancelFlow(PhiMode::Hardened)
            })
            .expect("tenants template in stress corpus");
        assert_eq!(sc.tenants, 24);
        let a = run_scenario(&sc);
        assert!(
            a.violation.is_none(),
            "{}: {:?}",
            sc.canonical(),
            a.violation
        );
        assert_eq!(a.rounds, sc.max_rounds);
        // Worst-tenant survivor error after the shared faults: exact
        // reconvergence across the whole fleet.
        assert!(a.final_err < 1e-6, "err={:e}", a.final_err);
        // Aggregated transport counters cover all 24 tenants: every
        // tenant's alive nodes send every round.
        assert!(a.stats.sent > 24 * 64 * 800, "{:?}", a.stats);
        assert!(
            a.stats.lost_random > 0,
            "loss model never fired: {:?}",
            a.stats
        );
        for sim_threads in [2, 4] {
            let b = run_scenario_exec(
                &sc,
                Exec {
                    sim_threads,
                    partitions: None,
                },
            );
            assert_eq!(a.rounds, b.rounds);
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.final_err.to_bits(), b.final_err.to_bits());
            assert_eq!(a.violation, b.violation);
        }
    }

    #[test]
    fn traced_run_matches_untraced_outcome() {
        let sc = &sanity_corpus(&[3])[0];
        let plain = run_scenario(sc);
        let (traced, trace) = run_scenario_traced(sc, Some(512));
        assert_eq!(plain.rounds, traced.rounds);
        assert_eq!(plain.final_err.to_bits(), traced.final_err.to_bits());
        assert!(trace.is_some());
        assert_eq!(sc.lane, Lane::Sanity);
    }
}
