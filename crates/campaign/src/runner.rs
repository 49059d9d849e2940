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
use gr_netsim::{SimOptions, SimStats, Simulator, Trace};
use gr_reduction::{
    with_protocol, AggregateKind, Algorithm, Checkpoint, ErrorSample, FlowUpdating, InitialData,
    Payload, PushCancelFlow, PushFlow, ReductionProtocol,
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
    /// How the engine partition count was chosen (explicit count,
    /// single-stream default, or the measured cost model — with the
    /// model's probe constants when measured). `None` for multi-tenant
    /// batch scenarios, which run on the batch executor instead of one
    /// partitioned simulator.
    pub partitions: Option<gr_netsim::PartitionPlan>,
    /// First invariant violation, if any.
    pub violation: Option<Violation>,
}

/// Run one scenario. `sim_threads` sets the worker threads of the
/// partitioned round engine and the batch executor (`0` means 1); the
/// thread count never changes results, which the determinism suite pins. `trace_capacity` records the last events of
/// the netsim trace in a ring buffer of that size, for replay reports.
pub fn run_scenario(
    sc: &Scenario,
    sim_threads: usize,
    trace_capacity: Option<usize>,
) -> (ScenarioResult, Option<Trace>) {
    // Tenant scenarios run on the gr-batch executor: N instances of the
    // topology under one shared fault plan, oracle-checked per tenant.
    // No netsim trace exists for a batch run (the executor has no event
    // ring), so replay renders the outcome without a trace tail.
    if sc.tenants > 0 {
        return (run_batch_scenario(sc, sim_threads), None);
    }
    let graph = sc.topology.build();
    match sc.workload {
        Workload::Average | Workload::Sum => {
            let data = InitialData::uniform_random(graph.len(), sc.workload.kind(), sc.seed);
            with_protocol!(sc.algorithm, &graph, &data, |p| {
                drive(sc, &graph, &data, p, sim_threads, trace_capacity)
            })
        }
        Workload::VectorAvg { dim } => {
            let data = vector_data(graph.len(), dim, sc.seed);
            with_protocol!(sc.algorithm, &graph, &data, |p| {
                drive(sc, &graph, &data, p, sim_threads, trace_capacity)
            })
        }
    }
}

/// Deterministic vector workload: `dim` uniform components per node,
/// same seeding discipline as `InitialData::uniform_random`.
fn vector_data(n: usize, dim: usize, seed: u64) -> InitialData<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let values: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dim).map(|_| rng.random::<f64>()).collect())
        .collect();
    InitialData::with_kind(values, AggregateKind::Average)
}

fn drive<P: Payload, Pr: ReductionProtocol>(
    sc: &Scenario,
    graph: &Graph,
    data: &InitialData<P>,
    protocol: Pr,
    sim_threads: usize,
    trace_capacity: Option<usize>,
) -> (ScenarioResult, Option<Trace>) {
    let options = SimOptions {
        threads: sim_threads.max(1),
        ..sc.sim_options()
    };
    // The corpus builders only produce valid execution models; a
    // hand-built scenario that violates the netsim config rules is
    // reported through the typed `SimConfigError` here.
    let mut sim = Simulator::try_with_options(graph, protocol, sc.plan.clone(), sc.seed, options)
        .unwrap_or_else(|e| panic!("scenario {}: invalid execution model: {e}", sc.hash()));
    if let Some(cap) = trace_capacity {
        sim.enable_trace(cap);
    }

    let mut tenants = [Tenant::new(sc, data)];

    loop {
        sim.step();
        let round = sim.round();
        let done = round >= sc.max_rounds;
        if round % CHECK_EVERY != 0 && !done {
            continue;
        }

        let check = |_, tenant: &mut Tenant| {
            tenant.check(
                sim.protocol(),
                sim.alive_nodes(),
                |i| sim.believed_alive(i),
                round,
            )
        };
        if let Some((err, violation)) =
            check_tenants(sc, &mut tenants, round, done, check, |_, v| v)
        {
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
fn run_batch_scenario(sc: &Scenario, sim_threads: usize) -> ScenarioResult {
    assert_eq!(
        sc.workload,
        Workload::Average,
        "tenant scenarios are scalar-average workloads"
    );
    let graph = sc.topology.build();
    let specs: Vec<TenantSpec> = (0..sc.tenants)
        .map(|t| {
            let seed = sc.seed.wrapping_add(t as u64);
            let mut rng = StdRng::seed_from_u64(seed);
            let values = (0..graph.len()).map(|_| rng.random::<f64>()).collect();
            TenantSpec {
                graph: graph.clone(),
                seed,
                plan: sc.plan.clone(),
                values,
                max_rounds: sc.max_rounds,
            }
        })
        .collect();
    let host = BatchHost::assemble(&specs)
        .unwrap_or_else(|e| panic!("scenario {}: invalid batch config: {e}", sc.hash()));
    let data = host.union_data(&specs);
    // Not `with_protocol!`: the batch executor needs `TenantProtocol`, which push-sum lacks.
    match sc.algorithm {
        Algorithm::PushFlow => drive_batch(
            sc,
            &host,
            &specs,
            PushFlow::new(host.graph(), &data),
            sim_threads,
        ),
        Algorithm::PushCancelFlow(mode) => drive_batch(
            sc,
            &host,
            &specs,
            PushCancelFlow::with_mode(host.graph(), &data, mode),
            sim_threads,
        ),
        Algorithm::FlowUpdating => drive_batch(
            sc,
            &host,
            &specs,
            FlowUpdating::new(host.graph(), &data),
            sim_threads,
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
    sim_threads: usize,
) -> ScenarioResult {
    let opts = BatchOptions {
        threads: sim_threads.max(1),
        ..BatchOptions::default()
    };
    let mut sim = BatchSim::new(host, protocol, specs, opts)
        .unwrap_or_else(|e| panic!("scenario {}: invalid batch options: {e}", sc.hash()));

    // Each tenant is checked against its own data.
    let mut tenants: Vec<Tenant> = specs
        .iter()
        .map(|s| {
            let data = InitialData::with_kind(s.values.clone(), AggregateKind::Average);
            Tenant::new(sc, &data)
        })
        .collect();
    let localize = |t: usize, v: Violation| localize_violation(v, t, host.tenant_nodes(t).start);

    loop {
        sim.step_round();
        let round = sim.round();
        let done = round >= sc.max_rounds;
        if round % CHECK_EVERY != 0 && !done {
            continue;
        }

        let check = |t, tenant: &mut Tenant| {
            tenant.check(
                sim.protocol(),
                sim.tenant_alive_nodes(t),
                |i| sim.believed_alive(i),
                round,
            )
        };
        if let Some((final_err, violation)) =
            check_tenants(sc, &mut tenants, round, done, check, localize)
        {
            let mut stats = SimStats::default();
            for t in 0..tenants.len() {
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

/// One oracle checkpoint over every tenant after `round`: `check` runs
/// [`Tenant::check`] on tenant `t` against its engine, and `localize` maps
/// a tenant's violation into the report's node ids. The first violation
/// in tenant order wins, and the reported error is the worst tenant's —
/// one number that bounds the whole fleet. Returns that error and the
/// violation, if any, when the run ends at this checkpoint.
fn check_tenants(
    sc: &Scenario,
    tenants: &mut [Tenant],
    round: u64,
    done: bool,
    mut check: impl FnMut(usize, &mut Tenant) -> Option<Violation>,
    localize: impl Fn(usize, Violation) -> Violation,
) -> Option<(f64, Option<Violation>)> {
    let mut violation = None;
    for (t, tenant) in tenants.iter_mut().enumerate() {
        let v = check(t, tenant);
        violation = violation.or_else(|| v.map(|v| localize(t, v)));
    }
    let err = tenants.iter().fold(0.0f64, |acc, tenant| {
        if tenant.last.max > acc {
            tenant.last.max
        } else {
            acc
        }
    });
    let converged = sc.target_accuracy > 0.0 && err <= sc.target_accuracy;
    if violation.is_none() && (converged || done) {
        violation = tenants.iter().enumerate().find_map(|(t, tenant)| {
            let last = tenant.last;
            let v = tenant.oracle.check_end(sc, round, last.max, last.worst);
            v.map(|v| localize(t, v))
        });
    }
    (violation.is_some() || converged || done).then_some((err, violation))
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

/// One tenant's oracle state: the checkpoint that measures it and the
/// oracle that checks it. A single-simulator run is tenant 0.
struct Tenant {
    checkpoint: Checkpoint,
    oracle: Oracle,
    /// The sample of the last checkpoint.
    last: ErrorSample,
}

impl Tenant {
    fn new<P: Payload>(sc: &Scenario, data: &InitialData<P>) -> Self {
        Tenant {
            checkpoint: Checkpoint::new(data),
            oracle: Oracle::new(sc, data),
            last: ErrorSample {
                round: 0,
                max: f64::INFINITY,
                median: f64::INFINITY,
                worst: 0,
            },
        }
    }

    /// Measure the tenant after `round` and run the per-checkpoint
    /// invariants over its `alive` nodes. `believed` is the engine's
    /// believed-alive list, in the same node ids as `alive`.
    fn check<'a, Pr: ReductionProtocol + ?Sized>(
        &mut self,
        proto: &Pr,
        alive: impl Iterator<Item = NodeId>,
        believed: impl Fn(NodeId) -> &'a [NodeId],
        round: u64,
    ) -> Option<Violation> {
        self.last = self.checkpoint.sample(proto, alive, round);
        self.oracle.note_error(round, self.last.max);
        let edges = mutual_edges(self.checkpoint.alive(), believed);
        self.oracle
            .check_step(proto, &self.checkpoint, &edges, round)
    }
}

/// Edges `(i, j)`, `i < j`, whose endpoints are both alive and mutually
/// believe each other alive — the set over which flow antisymmetry is a
/// meaningful claim (after a detected failure both endpoints have reset
/// their flow state for the edge). `believed` is the engine's
/// believed-alive list (a simulator's, or a batch's in union-graph ids).
fn mutual_edges<'a>(
    alive: &[NodeId],
    believed: impl Fn(NodeId) -> &'a [NodeId],
) -> Vec<(NodeId, NodeId)> {
    let mut edges = Vec::new();
    for &i in alive {
        for &j in believed(i) {
            if j > i && alive.binary_search(&j).is_ok() && believed(j).contains(&i) {
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
            let r = run_scenario(sc, 1, None).0;
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
        let a = run_scenario(sc, 1, None).0;
        let b = run_scenario(sc, 1, None).0;
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
            let r = run_scenario(sc, 1, None).0;
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
        let r = run_scenario(sc, 1, None).0;
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
        let r = run_scenario(sum, 1, None).0;
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
        let r = run_scenario(vec, 1, None).0;
        assert!(
            r.violation.is_none(),
            "{}: {:?}",
            vec.canonical(),
            r.violation
        );
    }

    #[test]
    fn million_node_scenario_executes_partitioned() {
        let sc = stress_corpus(&[1])
            .into_iter()
            .find(|s| s.template == "scale1m-avg/torus1000x1000")
            .unwrap();
        let (r, _) = run_scenario(&sc, 2, None);
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
        let a = run_scenario(&sc, 1, None).0;
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
            let (b, _) = run_scenario(&sc, sim_threads, None);
            assert_eq!(a.rounds, b.rounds);
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.final_err.to_bits(), b.final_err.to_bits());
            assert_eq!(a.violation, b.violation);
        }
    }

    #[test]
    fn traced_run_matches_untraced_outcome() {
        let sc = &sanity_corpus(&[3])[0];
        let (plain, no_trace) = run_scenario(sc, 1, None);
        let (traced, trace) = run_scenario(sc, 1, Some(512));
        assert_eq!(plain.rounds, traced.rounds);
        assert_eq!(plain.final_err.to_bits(), traced.final_err.to_bits());
        assert!(no_trace.is_none());
        assert!(trace.is_some());
        assert_eq!(sc.lane, Lane::Sanity);
    }
}
