//! High-level run orchestration: build a protocol, drive it, measure it.
//!
//! Every experiment in the paper has the same skeleton: initialise a
//! reduction over a topology, run synchronous rounds under some fault
//! plan, and record the per-node local errors against the true aggregate
//! (which the experimenter — unlike the nodes — knows exactly). This
//! module packages that skeleton once, with oracle-based stopping rules
//! (target accuracy, error plateau, round cap) and optional error-series
//! recording for the figure harness. Every run here and in the campaign
//! is measured through one [`Checkpoint`].

use crate::aggregate::InitialData;
use crate::payload::Payload;
use crate::protocol::ReductionProtocol;
use crate::push_cancel_flow::PhiMode;
use gr_netsim::{FaultPlan, SimOptions, SimStats, Simulator};
use gr_numerics::{Dd, RelErr};
use gr_topology::{Graph, NodeId};

/// Which algorithm to run (experiment-harness dispatch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Kempe et al. push-sum (no fault tolerance).
    PushSum,
    /// Push-flow (paper Fig. 1).
    PushFlow,
    /// Push-cancel-flow (paper Fig. 5) with the given ϕ variant.
    PushCancelFlow(PhiMode),
    /// Flow updating (Jesus et al., average-only).
    FlowUpdating,
}

impl Algorithm {
    /// Label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::PushSum => "push-sum",
            Algorithm::PushFlow => "PF",
            Algorithm::PushCancelFlow(PhiMode::Eager) => "PCF",
            Algorithm::PushCancelFlow(PhiMode::Hardened) => "PCF-hardened",
            Algorithm::FlowUpdating => "FU",
        }
    }

    /// All algorithm variants (sweep convenience).
    pub fn all() -> [Algorithm; 5] {
        [
            Algorithm::PushSum,
            Algorithm::PushFlow,
            Algorithm::PushCancelFlow(PhiMode::Eager),
            Algorithm::PushCancelFlow(PhiMode::Hardened),
            Algorithm::FlowUpdating,
        ]
    }
}

/// Build the protocol `$algorithm` names over `$graph` and `$data`, bind
/// it to `$proto` and evaluate `$body`: the one place an [`Algorithm`]
/// becomes a protocol. Each arm is its own monomorphized copy of the
/// body, so the body runs on the concrete protocol type.
#[macro_export]
macro_rules! with_protocol {
    ($algorithm:expr, $graph:expr, $data:expr, |$proto:ident| $body:expr) => {{
        let (graph, data) = ($graph, $data);
        match $algorithm {
            $crate::Algorithm::PushSum => {
                let $proto = $crate::PushSum::new(graph, data);
                $body
            }
            $crate::Algorithm::PushFlow => {
                let $proto = $crate::PushFlow::new(graph, data);
                $body
            }
            $crate::Algorithm::PushCancelFlow(mode) => {
                let $proto = $crate::PushCancelFlow::with_mode(graph, data, mode);
                $body
            }
            $crate::Algorithm::FlowUpdating => {
                let $proto = $crate::FlowUpdating::new(graph, data);
                $body
            }
        }
    }};
}

/// Stopping rules and sampling cadence for a run. All stopping rules are
/// *oracle-based*: they look at the true error.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Stop once the max local relative error is at or below this.
    pub target_accuracy: Option<f64>,
    /// Hard round cap.
    pub max_rounds: u64,
    /// Sample the error series every this many rounds (0 = never; the
    /// final state is always measured).
    pub record_every: u64,
    /// Stop when the best max-error seen has not improved by at least 10%
    /// within this many rounds — "globally achievable accuracy" probing
    /// for Figs. 3/6, where PF never reaches the target.
    pub plateau_window: Option<u64>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            target_accuracy: Some(1e-15),
            max_rounds: 100_000,
            record_every: 0,
            plateau_window: None,
        }
    }
}

impl RunConfig {
    /// Run exactly `rounds` rounds, recording every `every`.
    pub fn fixed(rounds: u64, every: u64) -> Self {
        RunConfig {
            target_accuracy: None,
            max_rounds: rounds,
            record_every: every,
            plateau_window: None,
        }
    }

    /// Run to `eps` max error or until a plateau/round cap, whichever
    /// comes first.
    pub fn to_accuracy(eps: f64, max_rounds: u64) -> Self {
        RunConfig {
            target_accuracy: Some(eps),
            max_rounds,
            record_every: 0,
            plateau_window: Some(4 * 1024),
        }
    }
}

/// One sampled point of the error trajectory.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrorSample {
    /// Round at which the sample was taken (after that round completed).
    pub round: u64,
    /// Max over alive nodes (and components) of the local relative error.
    pub max: f64,
    /// Median over alive nodes of the (per-node max-component) error.
    pub median: f64,
    /// The alive node with the largest error: the first in alive order
    /// (the lowest id) on ties, the first alive node when every error is
    /// zero.
    pub worst: NodeId,
}

/// Everything a run produced.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Rounds executed.
    pub rounds: u64,
    /// Error at the final round.
    pub final_err: ErrorSample,
    /// Best (smallest) max-error observed at any sample point.
    pub best_max_err: f64,
    /// `true` if the target accuracy was reached.
    pub converged: bool,
    /// The sampled trajectory (empty unless `record_every > 0`).
    pub series: Vec<ErrorSample>,
    /// Transport statistics from the simulator.
    pub sim: SimStats,
}

/// Reusable scratch space for the oracle measurements. The run loop
/// samples the error every few rounds; with a `Measurer` those samples
/// reuse the same estimate/sort buffers instead of allocating four
/// vectors per sample, which keeps the steady-state loop allocation-free.
#[derive(Clone, Debug, Default)]
pub struct Measurer {
    /// Per-node estimate buffer (`dim` wide).
    buf: Vec<f64>,
    /// Per-node worst-component error of the current sample.
    per_node: Vec<f64>,
    /// Sort scratch for the order statistics.
    sorted: Vec<f64>,
    /// Component accumulators for the mass reference.
    vsum: Vec<Dd>,
}

impl Measurer {
    /// A measurer with empty (lazily grown) buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// The achievable aggregate over `nodes`, from the protocol's
    /// *current* mass: after a fail-stop crash the dead node's holding is
    /// gone for good, and the survivors' target is the ratio of their
    /// remaining total mass. Writes it into `out` and returns `true`, or
    /// returns `false` leaving `out` untouched when the remaining weight
    /// is zero (e.g. a SUM reduction whose weight-bearing node died — the
    /// aggregate is then undefined).
    pub fn mass_reference<P: ReductionProtocol + ?Sized>(
        &mut self,
        proto: &P,
        nodes: impl Iterator<Item = NodeId>,
        out: &mut Vec<Dd>,
    ) -> bool {
        let dim = proto.dim();
        self.vsum.clear();
        self.vsum.resize(dim, Dd::ZERO);
        self.buf.clear();
        self.buf.resize(dim, 0.0);
        let mut wsum = Dd::ZERO;
        for i in nodes {
            let w = proto.write_mass(i, &mut self.buf);
            for (acc, &c) in self.vsum.iter_mut().zip(self.buf.iter()) {
                *acc += c;
            }
            wsum += w;
        }
        if wsum.is_zero() {
            return false;
        }
        out.clear();
        out.extend(self.vsum.iter().map(|&v| v / wsum));
        true
    }

    /// The current error of `proto` over the `alive` nodes against the
    /// per-component references `refs`.
    pub fn measure_error<P: ReductionProtocol + ?Sized>(
        &mut self,
        proto: &P,
        refs: &[Dd],
        alive: impl Iterator<Item = NodeId>,
        round: u64,
    ) -> ErrorSample {
        let dim = proto.dim();
        self.buf.clear();
        self.buf.resize(dim, 0.0);
        self.per_node.clear();
        let mut worst: Option<(NodeId, f64)> = None;
        for i in alive {
            proto.write_estimate(i, &mut self.buf);
            let mut node_err = 0.0f64;
            for (k, &r) in refs.iter().enumerate() {
                let e = gr_numerics::relative_error(self.buf[k], r);
                // NB: `f64::max` would silently drop a NaN operand; treat
                // any non-comparable value as a destroyed estimate.
                if e.is_nan() {
                    node_err = f64::INFINITY;
                } else {
                    node_err = node_err.max(e);
                }
            }
            if worst.is_none_or(|(_, max)| node_err > max) {
                worst = Some((i, node_err));
            }
            self.per_node.push(node_err);
        }
        // RelErr against a zero reference returns absolute values — i.e.
        // the numbers themselves; reuse its max/median machinery (the
        // scratch variant is bitwise-identical to `RelErr::of`).
        let e = RelErr::of_with_scratch(self.per_node.iter().copied(), Dd::ZERO, &mut self.sorted);
        ErrorSample {
            round,
            max: e.max,
            median: e.median,
            worst: worst.map_or(0, |(i, _)| i),
        }
    }
}

/// The oracle's measuring point for one run: the one place that decides
/// what a run's error is measured against, and measures it.
///
/// The reference starts as the initial data's exact aggregate. Once the
/// alive set first changes size (a crash, or a restart), that reference
/// is void: the dead node took its current holding with it. From then on
/// the reference is the survivors' achievable aggregate, the ratio of
/// their remaining mass ([`Measurer::mass_reference`]). In-flight
/// (crossing) exchanges distort any single snapshot of that ratio by
/// O(current error), so it is recomputed at *every* sample; it
/// stabilises exactly as consensus forms. When the remaining weight is
/// zero the reference is zero and errors read as absolute values.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    measurer: Measurer,
    /// Per-component reference of the next sample.
    refs: Vec<Dd>,
    /// The alive set of the last sample (before the first sample, the
    /// data's full node set).
    alive: Vec<NodeId>,
    /// The last sample's alive set differs in size from the one before.
    changed: bool,
    /// The alive set has changed at some sample: measure against the
    /// survivors' mass from now on.
    rebased: bool,
}

impl Checkpoint {
    /// A checkpoint for a run over `data`, with every node alive.
    pub fn new<P: Payload>(data: &InitialData<P>) -> Self {
        Checkpoint {
            measurer: Measurer::new(),
            refs: data.reference(),
            alive: (0..data.len() as NodeId).collect(),
            changed: false,
            rebased: false,
        }
    }

    /// Measure `proto` over the `alive` nodes after `round`.
    pub fn sample<Pr: ReductionProtocol + ?Sized>(
        &mut self,
        proto: &Pr,
        alive: impl IntoIterator<Item = NodeId>,
        round: u64,
    ) -> ErrorSample {
        let before = self.alive.len();
        self.alive.clear();
        self.alive.extend(alive);
        self.changed = self.alive.len() != before;
        self.rebased |= self.changed;
        if self.rebased
            && !self
                .measurer
                .mass_reference(proto, self.alive.iter().copied(), &mut self.refs)
        {
            self.refs.fill(Dd::ZERO);
        }
        self.measurer
            .measure_error(proto, &self.refs, self.alive.iter().copied(), round)
    }

    /// The alive set of the last sample, in the order it was given.
    pub fn alive(&self) -> &[NodeId] {
        &self.alive
    }

    /// Whether the last sample's alive set differs in size from the
    /// previous sample's (or, at the first sample, from the full set).
    pub fn alive_changed(&self) -> bool {
        self.changed
    }
}

/// The normwise stopping rule of a SUM computed as `n`·average (dmGS and
/// the spectral power iteration): a reduction is done once every node's
/// estimate of every component is within `eps·max_k |ref_k|` of the exact
/// average `ref`, checked by the oracle as in the paper's simulations.
/// What a run returns when it stops at its round cap instead is the
/// caller's rule.
#[derive(Clone, Debug)]
pub struct Normwise {
    refs: Vec<Dd>,
    tol: f64,
    buf: Vec<f64>,
}

impl Normwise {
    /// The rule for a reduction of `data` to relative accuracy `eps`.
    pub fn new<P: Payload>(data: &InitialData<P>, eps: f64) -> Self {
        let refs = data.reference();
        let scale = refs
            .iter()
            .map(|r| r.abs().to_f64())
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
        Normwise {
            tol: eps * scale,
            buf: vec![0.0; refs.len()],
            refs,
        }
    }

    /// The absolute error of the worst estimate of any component at any
    /// node of `proto`. A NaN estimate reads as `∞`: a destroyed estimate
    /// never counts as converged.
    pub fn worst<Pr: ReductionProtocol + ?Sized>(&mut self, proto: &Pr) -> f64 {
        let mut worst = 0.0f64;
        for i in 0..proto.node_count() as NodeId {
            proto.write_estimate(i, &mut self.buf);
            for (&x, r) in self.buf.iter().zip(&self.refs) {
                let e = (Dd::from_f64(x) - *r).abs().to_f64();
                if e.is_nan() {
                    return f64::INFINITY;
                }
                worst = worst.max(e);
            }
        }
        worst
    }

    /// Whether a worst error of `worst` meets the target.
    pub fn met(&self, worst: f64) -> bool {
        worst <= self.tol
    }
}

/// Drive an already-constructed protocol under the standard loop and the
/// execution model `options` (schedule, activation discipline, message
/// delay). Exposed so callers with custom protocols (or vector payloads)
/// can reuse the stopping/recording logic; most callers want
/// [`run_reduction`].
#[allow(clippy::too_many_arguments)]
pub fn run_with_options<Pr, P>(
    graph: &Graph,
    protocol: Pr,
    data: &InitialData<P>,
    plan: FaultPlan,
    seed: u64,
    cfg: RunConfig,
    options: SimOptions,
) -> RunResult
where
    P: Payload,
    Pr: ReductionProtocol,
{
    let mut sim = Simulator::with_options(graph, protocol, plan, seed, options);
    let mut checkpoint = Checkpoint::new(data);

    let mut series = Vec::new();
    let mut best = f64::INFINITY;
    let mut best_round = 0u64;
    let mut converged = false;

    let check_every = if cfg.record_every > 0 {
        cfg.record_every
    } else {
        8
    };

    loop {
        sim.step();
        let round = sim.round();
        let done = round >= cfg.max_rounds;
        if round % check_every == 0 || done {
            let sample = checkpoint.sample(sim.protocol(), sim.alive_nodes(), round);
            if cfg.record_every > 0 {
                series.push(sample);
            }
            if sample.max < best * 0.9 {
                best_round = round;
            }
            if sample.max < best {
                best = sample.max;
            }
            if let Some(eps) = cfg.target_accuracy {
                if sample.max <= eps {
                    converged = true;
                }
            }
            let plateaued = cfg
                .plateau_window
                .is_some_and(|w| round.saturating_sub(best_round) >= w);
            if converged || done || plateaued {
                return RunResult {
                    rounds: round,
                    final_err: sample,
                    best_max_err: best,
                    converged,
                    series,
                    sim: sim.stats(),
                };
            }
        }
    }
}

/// Build and run `algorithm` over scalar data under the execution model
/// `options` — the main experiment entry point.
pub fn run_reduction(
    algorithm: Algorithm,
    graph: &Graph,
    data: &InitialData<f64>,
    plan: FaultPlan,
    seed: u64,
    cfg: RunConfig,
    options: SimOptions,
) -> RunResult {
    with_protocol!(algorithm, graph, data, |proto| {
        run_with_options(graph, proto, data, plan, seed, cfg, options)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateKind;
    use crate::push_sum::PushSum;
    use gr_topology::{complete, hypercube};

    fn data(n: usize) -> InitialData<f64> {
        InitialData::uniform_random(n, AggregateKind::Average, 3)
    }

    #[test]
    fn run_to_accuracy_converges() {
        let g = hypercube(4);
        let d = data(16);
        let r = run_reduction(
            Algorithm::PushCancelFlow(PhiMode::Eager),
            &g,
            &d,
            FaultPlan::none(),
            1,
            RunConfig::to_accuracy(1e-14, 10_000),
            SimOptions::default(),
        );
        assert!(r.converged, "did not converge: {:?}", r.final_err);
        assert!(r.final_err.max <= 1e-14);
        assert!(r.rounds < 10_000);
    }

    #[test]
    fn fixed_rounds_records_series() {
        let g = complete(8);
        let d = data(8);
        let r = run_reduction(
            Algorithm::PushFlow,
            &g,
            &d,
            FaultPlan::none(),
            2,
            RunConfig::fixed(100, 10),
            SimOptions::default(),
        );
        assert_eq!(r.rounds, 100);
        assert_eq!(r.series.len(), 10);
        assert_eq!(r.series.last().unwrap().round, 100);
        // error decreases over the run
        assert!(r.series.last().unwrap().max < r.series[0].max);
    }

    #[test]
    fn plateau_detection_stops_early() {
        // Push-sum under heavy loss converges to a *wrong* value: error
        // plateaus well above target; the plateau rule must fire.
        let g = complete(8);
        let d = data(8);
        let cfg = RunConfig {
            target_accuracy: Some(1e-15),
            max_rounds: 500_000,
            record_every: 0,
            plateau_window: Some(500),
        };
        let r = run_reduction(
            Algorithm::PushSum,
            &g,
            &d,
            FaultPlan::with_loss(0.3),
            3,
            cfg,
            SimOptions::default(),
        );
        assert!(!r.converged);
        assert!(
            r.rounds < 100_000,
            "plateau should stop the run: {}",
            r.rounds
        );
        assert!(r.final_err.max > 1e-10, "loss must bias push-sum");
    }

    #[test]
    fn all_algorithms_run_and_label() {
        let g = complete(8);
        let d = data(8);
        for alg in Algorithm::all() {
            let r = run_reduction(
                alg,
                &g,
                &d,
                FaultPlan::none(),
                4,
                RunConfig::fixed(200, 0),
                SimOptions::default(),
            );
            assert_eq!(r.rounds, 200, "{}", alg.label());
            assert!(
                r.final_err.max < 1e-4,
                "{} did not make progress: {:?}",
                alg.label(),
                r.final_err
            );
            assert!(!alg.label().is_empty());
        }
    }

    #[test]
    fn crash_changes_reference_to_survivors() {
        let g = hypercube(3);
        let d = data(8);
        let plan = FaultPlan::none().crash_node(5, 50);
        let r = run_reduction(
            Algorithm::PushCancelFlow(PhiMode::Eager),
            &g,
            &d,
            plan,
            5,
            RunConfig::to_accuracy(1e-13, 50_000),
            SimOptions::default(),
        );
        // Survivors re-converge to the survivors' aggregate.
        assert!(r.converged, "survivors should converge: {:?}", r.final_err);
        assert_ne!(r.final_err.worst, 5, "the dead node is not measured");

        // The checkpoint on hand-set estimates: before its first round
        // push-sum holds each node's value, and 1, 3, 1, 3 average to 2.
        let g = complete(4);
        let d = InitialData::with_kind(vec![1.0, 3.0, 1.0, 3.0], AggregateKind::Average);
        let proto = PushSum::new(&g, &d);
        let mut checkpoint = Checkpoint::new(&d);
        // Every node is off by 1/2: the tie goes to the lowest id.
        let s = checkpoint.sample(&proto, 0..4, 8);
        assert_eq!((s.round, s.max, s.worst), (8, 0.5, 0));
        assert!(!checkpoint.alive_changed());
        // Node 0 dies: the reference becomes the survivors' mass ratio
        // 7/3, against which node 2's estimate 1 is worst, at 4/7.
        let s = checkpoint.sample(&proto, 1..4, 16);
        assert!(checkpoint.alive_changed());
        assert_eq!(checkpoint.alive(), &[1, 2, 3]);
        assert_eq!(s.worst, 2);
        assert!((s.max - 4.0 / 7.0).abs() < 1e-15, "{s:?}");
        // Same alive set: the reference is still the survivors' ratio.
        let s = checkpoint.sample(&proto, 1..4, 24);
        assert!(!checkpoint.alive_changed());
        assert_eq!(s.worst, 2);
        assert!((s.max - 4.0 / 7.0).abs() < 1e-15, "{s:?}");
        // Node 2 dies too: the reference is recomputed as 3, every error
        // is zero, and the first alive node is named.
        let s = checkpoint.sample(&proto, [1, 3], 32);
        assert!(checkpoint.alive_changed());
        assert_eq!((s.max, s.worst), (0.0, 1));
    }
}
