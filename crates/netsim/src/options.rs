//! Execution-model options: activation discipline and message latency.
//!
//! The paper (and the default here) uses the *synchronous* gossip model:
//! discrete iterations in which every node sends once and all messages
//! arrive within the iteration. Two relaxations matter in practice and
//! are supported natively:
//!
//! * **asynchronous activation** (the model of Boyd et al.'s randomized
//!   gossip): there is no global round — single nodes wake up one at a
//!   time, uniformly at random, and their exchange completes before the
//!   next activation. For comparability, one [`Simulator::step`]
//!   (one "round") executes `n` activations, so the per-node send rate
//!   matches the synchronous model;
//! * **message delay**: a message sent in round `r` is delivered in round
//!   `r + d` with `d` fixed or sampled per message. The flow algorithms
//!   transmit absolute state, so stale messages are safe — but delay does
//!   interact with crossing exchanges, and the ablation benches quantify
//!   the convergence cost.
//!
//! [`Simulator::step`]: crate::Simulator::step

use crate::schedule::Schedule;
use rand::rngs::StdRng;
use rand::RngExt;

/// Who acts when.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Activation {
    /// Every alive node sends once per round; deliveries happen at the
    /// end of the round (the paper's model).
    #[default]
    Synchronous,
    /// `n` single-node activations per round, each an immediate complete
    /// exchange (classical randomized gossip).
    Asynchronous,
}

/// Per-message delivery latency, in rounds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DelayModel {
    /// Delivered at the end of the sending round (the paper's model).
    #[default]
    None,
    /// Delivered exactly `d` rounds after sending (`Fixed(0)` ≡ `None`).
    Fixed(u64),
    /// Delivered `d ∈ [min, max]` rounds after sending, `d` sampled
    /// uniformly per message from the fault stream.
    Uniform {
        /// Smallest delay (inclusive).
        min: u64,
        /// Largest delay (inclusive).
        max: u64,
    },
}

impl DelayModel {
    /// Largest possible delay (sizes the delivery ring buffer).
    pub fn max_delay(self) -> u64 {
        match self {
            DelayModel::None => 0,
            DelayModel::Fixed(d) => d,
            DelayModel::Uniform { max, .. } => max,
        }
    }

    /// Sample one delay.
    pub(crate) fn sample(self, rng: &mut StdRng) -> u64 {
        match self {
            DelayModel::None => 0,
            DelayModel::Fixed(d) => d,
            DelayModel::Uniform { min, max } => {
                debug_assert!(min <= max);
                rng.random_range(min..=max)
            }
        }
    }
}

/// How permanent failures become known to the protocol.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DetectorModel {
    /// Scheduled faults are reported exactly once after their plan's
    /// `detect_delay`, to exactly the affected nodes, and never wrongly
    /// (the paper's model).
    #[default]
    Oracle,
    /// Local timeout detector: node `i` *suspects* neighbor `j` after
    /// `window` consecutive rounds without a delivery from `j`, and
    /// *rehabilitates* `j` the moment a message from `j` arrives. Derived
    /// only from locally observable arrivals — under message delay or
    /// loss, suspicions can be false, and the protocol must survive the
    /// suspect → rehabilitate cycle without corrupting the aggregate.
    Timeout {
        /// Rounds of silence before suspicion (must be ≥ 1).
        window: u64,
    },
}

/// A rejected execution-model configuration.
///
/// Returned by [`SimOptions::validate`] and
/// [`Simulator::try_with_options`](crate::Simulator::try_with_options)
/// so embedders (the campaign scenario validator) can surface the problem
/// without a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimConfigError {
    /// Asynchronous activation models atomic exchanges, which is
    /// incompatible with a nonzero-latency delay model.
    AsyncWithDelay,
    /// A timeout detector with `window == 0` would suspect every neighbor
    /// before its first message could possibly arrive.
    ZeroTimeoutWindow,
    /// `threads == 0` — the worker count includes the caller's thread, so
    /// zero threads cannot execute anything.
    ZeroThreads,
    /// The partitioned round engine (`partitions ≥ 2`) is defined only for
    /// synchronous activation; asynchronous activation interleaves single
    /// nodes globally and has no partition-local round structure.
    PartitionedAsync,
    /// A [`DelayModel::Uniform`] range with `min > max` has no delay to
    /// sample from.
    InvertedDelayRange {
        /// The configured smallest delay.
        min: u64,
        /// The configured largest delay (below `min`).
        max: u64,
    },
    /// A scheduled fault-plan event names a node outside the topology
    /// (`node >= nodes`). Caught at construction time so a typo'd plan is
    /// a typed error, not a silent no-op or a fire-time panic.
    FaultNodeOutOfRange {
        /// The offending node id.
        node: gr_topology::NodeId,
        /// The topology's node count.
        nodes: usize,
    },
    /// A scheduled fault-plan event names a link `(a, b)` that is not an
    /// edge of the topology.
    FaultLinkMissing {
        /// One endpoint.
        a: gr_topology::NodeId,
        /// Other endpoint.
        b: gr_topology::NodeId,
    },
    /// A fault rate is NaN or outside `[0, 1]`.
    ProbabilityOutOfRange {
        /// The offending field (e.g. `msg_loss_prob`, `burst.exit`).
        field: &'static str,
    },
}

impl std::fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimConfigError::AsyncWithDelay => {
                write!(f, "asynchronous activation requires the zero-delay model")
            }
            SimConfigError::ZeroTimeoutWindow => {
                write!(f, "timeout detector window must be at least 1 round")
            }
            SimConfigError::ZeroThreads => {
                write!(
                    f,
                    "thread count must be at least 1 (1 = run on the caller's thread)"
                )
            }
            SimConfigError::PartitionedAsync => {
                write!(
                    f,
                    "the partitioned round engine (partitions >= 2) requires synchronous activation"
                )
            }
            SimConfigError::InvertedDelayRange { min, max } => {
                write!(f, "uniform delay range is empty: min {min} > max {max}")
            }
            SimConfigError::FaultNodeOutOfRange { node, nodes } => {
                write!(
                    f,
                    "fault plan names node {node}, but the topology has {nodes} nodes"
                )
            }
            SimConfigError::FaultLinkMissing { a, b } => {
                write!(f, "fault plan names nonexistent link ({a}, {b})")
            }
            SimConfigError::ProbabilityOutOfRange { field } => {
                write!(f, "{field} probability outside [0,1] (or NaN)")
            }
        }
    }
}

impl std::error::Error for SimConfigError {}

/// Bundle of execution-model knobs accepted by
/// [`Simulator::with_options`](crate::Simulator::with_options).
#[derive(Clone, Debug)]
pub struct SimOptions {
    /// Partner-selection policy.
    pub schedule: Schedule,
    /// Activation discipline.
    pub activation: Activation,
    /// Message latency model (must be [`DelayModel::None`] under
    /// asynchronous activation, where exchanges are atomic).
    pub delay: DelayModel,
    /// Failure-detection model.
    pub detector: DetectorModel,
    /// Worker threads for the partitioned round engine. `1` (the default)
    /// runs everything on the caller's thread. Thread count is purely an
    /// execution hint: for a fixed partition count, results are
    /// byte-identical for every `threads` value. `0` is a config error.
    pub threads: usize,
    /// Partition count for the partitioned round engine. This — not
    /// `threads` — is what determinism is keyed on:
    ///
    /// * `1` forces a single partition on the single-run RNG streams
    ///   (the historical semantics and RNG draws);
    /// * `k ≥ 2` partitions the node range into `k` contiguous CSR
    ///   blocks, each with its own schedule/fault RNG stream
    ///   (requires synchronous activation);
    /// * `0` (the default) picks automatically: large synchronous
    ///   zero-delay topologies get partitioned, everything else runs one
    ///   partition. Small graphs therefore keep their historical
    ///   schedules bit-for-bit.
    pub partitions: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            schedule: Schedule::default(),
            activation: Activation::default(),
            delay: DelayModel::default(),
            detector: DetectorModel::default(),
            threads: 1,
            partitions: 0,
        }
    }
}

/// Node count at or above which `partitions: 0` consults the cost model
/// (when the activation/delay model allows it). Below this, runs keep a
/// single partition on the single-run streams and their
/// historical RNG draws bit-for-bit — the cost model is never consulted.
pub(crate) const AUTO_PARTITION_MIN_NODES: usize = 65_536;

/// Upper bound on auto-selected partition count.
pub(crate) const AUTO_PARTITION_MAX: usize = 64;

/// Pool phases per partitioned round (send, deliver/merge, detector) —
/// each one dispatch + barrier on the worker pool.
const ROUND_PHASES: f64 = 3.0;

/// Modeled componentwise ops per arc per round: both directions of the
/// estimate scan plus the send/receive flow updates of a scalar-payload
/// flow protocol. Vector payloads do proportionally more work per arc,
/// which only strengthens the case the model makes from this floor.
const ARC_OPS: f64 = 16.0;

/// Modeled componentwise-op equivalents per node per round (scheduling,
/// activation bookkeeping, estimate finalization).
const NODE_OPS: f64 = 8.0;

/// How the effective partition count was chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub enum PartitionSource {
    /// `partitions: N` was set explicitly — the cost model is bypassed
    /// entirely (no calibration probe runs).
    Explicit,
    /// `partitions: 0` but the run is not auto-eligible (asynchronous
    /// activation, nonzero delay, or below the node floor): one
    /// partition on the single-run streams, bit-identical to history.
    SingleStream,
    /// `partitions: 0` on an auto-eligible topology: the measured cost
    /// model picked the count; its inputs are in
    /// [`PartitionPlan::model`].
    AutoMeasured,
}

impl PartitionSource {
    /// Stable lowercase label for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            PartitionSource::Explicit => "explicit",
            PartitionSource::SingleStream => "single-stream",
            PartitionSource::AutoMeasured => "auto-measured",
        }
    }
}

/// The measured cost model behind one [`PartitionSource::AutoMeasured`]
/// decision: machine constants from the calibration probe, topology
/// shape, and the predicted per-round cost at the chosen count vs. the
/// single-stream baseline. All times in nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize)]
pub struct PartitionModel {
    /// Topology node count.
    pub nodes: usize,
    /// Topology directed-arc count.
    pub arcs: usize,
    /// Worker threads available to the engine.
    pub threads: usize,
    /// Probed cost of one streaming componentwise `f64` op.
    pub component_ns: f64,
    /// Probed fixed cost of one pool dispatch + barrier.
    pub barrier_ns: f64,
    /// Probed marginal cost per dispatched job.
    pub job_ns: f64,
    /// Probed cost of visiting one mailbox lane during the merge.
    pub lane_ns: f64,
    /// Predicted per-round cost at the chosen partition count.
    pub predicted_ns: f64,
    /// Predicted per-round cost of the single-stream engine (`p = 1`).
    pub single_stream_ns: f64,
}

/// The resolved partitioning of one simulator run: the effective count,
/// how it was chosen, and (for measured-auto decisions) the model that
/// chose it. Surfaced by
/// [`Simulator::partition_plan`](crate::Simulator::partition_plan) and
/// embedded in campaign / transport JSON reports.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize)]
pub struct PartitionPlan {
    /// Effective partition count (≥ 1; this is simulation identity).
    pub partitions: usize,
    /// How the count was chosen.
    pub source: PartitionSource,
    /// Cost-model details, present only for [`PartitionSource::AutoMeasured`].
    pub model: Option<PartitionModel>,
}

impl PartitionPlan {
    fn explicit(partitions: usize) -> PartitionPlan {
        PartitionPlan {
            partitions,
            source: PartitionSource::Explicit,
            model: None,
        }
    }

    fn single_stream() -> PartitionPlan {
        PartitionPlan {
            partitions: 1,
            source: PartitionSource::SingleStream,
            model: None,
        }
    }
}

/// Predicted per-round wall-clock of the round engine at `p`
/// partitions: parallel flow work over `min(p, threads)` workers, plus
/// `ROUND_PHASES` pool phases of `p` jobs each, plus the `p²` mailbox
/// lane sweep. `p = 1` has no pool and no lanes — pure serial work.
fn predicted_round_ns(
    costs: &crate::MachineCosts,
    nodes: usize,
    arcs: usize,
    threads: usize,
    p: usize,
) -> f64 {
    let work = (arcs as f64 * ARC_OPS + nodes as f64 * NODE_OPS) * costs.component_ns;
    if p == 1 {
        return work;
    }
    let workers = p.min(threads.max(1)) as f64;
    let phase_overhead = ROUND_PHASES * (costs.barrier_ns + costs.job_ns * p as f64);
    let lane_sweep = costs.lane_ns * (p * p) as f64;
    work / workers + phase_overhead + lane_sweep
}

impl SimOptions {
    /// Check the option combination for internal consistency.
    pub fn validate(&self) -> Result<(), SimConfigError> {
        if let DelayModel::Uniform { min, max } = self.delay {
            if min > max {
                return Err(SimConfigError::InvertedDelayRange { min, max });
            }
        }
        if self.activation == Activation::Asynchronous && self.delay.max_delay() != 0 {
            return Err(SimConfigError::AsyncWithDelay);
        }
        if self.detector == (DetectorModel::Timeout { window: 0 }) {
            return Err(SimConfigError::ZeroTimeoutWindow);
        }
        if self.threads == 0 {
            return Err(SimConfigError::ZeroThreads);
        }
        if self.partitions >= 2 && self.activation != Activation::Synchronous {
            return Err(SimConfigError::PartitionedAsync);
        }
        Ok(())
    }

    /// Resolve the effective partitioning for a topology of `nodes`
    /// nodes and `arcs` directed arcs. Assumes `validate()` passed.
    ///
    /// Explicit `partitions: N` and non-auto-eligible runs never touch
    /// the cost model (and never run the calibration probe); only
    /// `partitions: 0` on a large synchronous zero-delay topology
    /// probes the machine and minimizes the modeled round cost.
    pub fn partition_plan(&self, nodes: usize, arcs: usize) -> PartitionPlan {
        if self.auto_eligible(nodes) {
            let costs = crate::calibrate::cached(self.threads);
            self.partition_plan_with_costs(nodes, arcs, &costs)
        } else {
            self.fixed_plan(nodes)
        }
    }

    /// [`partition_plan`](Self::partition_plan) with the machine costs
    /// supplied by the caller instead of the cached calibration probe —
    /// deterministic, for tests and for reporting hypotheticals. The
    /// costs are ignored (and the result identical to `partition_plan`)
    /// unless the configuration is auto-eligible.
    pub fn partition_plan_with_costs(
        &self,
        nodes: usize,
        arcs: usize,
        costs: &crate::MachineCosts,
    ) -> PartitionPlan {
        if !self.auto_eligible(nodes) {
            return self.fixed_plan(nodes);
        }
        let threads = self.threads.max(1);
        let max_p = AUTO_PARTITION_MAX.min(nodes.max(1));
        // Candidate counts: powers of two up to the cap, the thread
        // count itself (the parallelism knee), and the legacy 64Ki-nodes
        // per-partition point, all deduplicated via the scan below.
        let mut best_p = 1usize;
        let mut best_ns = f64::INFINITY;
        let mut consider = |p: usize| {
            if p == 0 || p > max_p {
                return;
            }
            let ns = predicted_round_ns(costs, nodes, arcs, threads, p);
            // Strict `<`: ties keep the smaller count (fewer RNG
            // streams, less merge state).
            if ns < best_ns {
                best_ns = ns;
                best_p = p;
            }
        };
        let mut p = 1;
        while p <= max_p {
            consider(p);
            p *= 2;
        }
        consider(threads);
        consider(nodes.div_ceil(AUTO_PARTITION_MIN_NODES));
        PartitionPlan {
            partitions: best_p,
            source: PartitionSource::AutoMeasured,
            model: Some(PartitionModel {
                nodes,
                arcs,
                threads,
                component_ns: costs.component_ns,
                barrier_ns: costs.barrier_ns,
                job_ns: costs.job_ns,
                lane_ns: costs.lane_ns,
                predicted_ns: best_ns,
                single_stream_ns: predicted_round_ns(costs, nodes, arcs, threads, 1),
            }),
        }
    }

    fn auto_eligible(&self, nodes: usize) -> bool {
        self.partitions == 0
            && self.activation == Activation::Synchronous
            && self.delay.max_delay() == 0
            && nodes >= AUTO_PARTITION_MIN_NODES
    }

    /// The non-model outcomes: explicit counts (clamped to the node
    /// count, as before) and ineligible-auto single-stream runs.
    fn fixed_plan(&self, nodes: usize) -> PartitionPlan {
        match self.partitions {
            0 => PartitionPlan::single_stream(),
            k => PartitionPlan::explicit(k.clamp(1, nodes.max(1))),
        }
    }
}

impl Default for Schedule {
    fn default() -> Self {
        Schedule::uniform()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{stream_rng, RngStream};

    #[test]
    fn max_delays() {
        assert_eq!(DelayModel::None.max_delay(), 0);
        assert_eq!(DelayModel::Fixed(3).max_delay(), 3);
        assert_eq!(DelayModel::Uniform { min: 1, max: 5 }.max_delay(), 5);
    }

    #[test]
    fn sampling_in_range() {
        let mut rng = stream_rng(1, RngStream::Faults);
        for _ in 0..100 {
            let d = DelayModel::Uniform { min: 2, max: 4 }.sample(&mut rng);
            assert!((2..=4).contains(&d));
        }
        assert_eq!(DelayModel::Fixed(7).sample(&mut rng), 7);
    }

    #[test]
    fn defaults_match_paper_model() {
        let o = SimOptions::default();
        assert_eq!(o.activation, Activation::Synchronous);
        assert_eq!(o.delay, DelayModel::None);
        assert_eq!(o.detector, DetectorModel::Oracle);
        assert_eq!(o.validate(), Ok(()));
    }

    #[test]
    fn async_with_delay_is_a_config_error() {
        let o = SimOptions {
            activation: Activation::Asynchronous,
            delay: DelayModel::Fixed(1),
            ..SimOptions::default()
        };
        assert_eq!(o.validate(), Err(SimConfigError::AsyncWithDelay));
        assert!(SimConfigError::AsyncWithDelay
            .to_string()
            .contains("zero-delay"));
        // Fixed(0) is equivalent to None and stays legal.
        let o = SimOptions {
            activation: Activation::Asynchronous,
            delay: DelayModel::Fixed(0),
            ..SimOptions::default()
        };
        assert_eq!(o.validate(), Ok(()));
    }

    #[test]
    fn inverted_uniform_delay_is_a_config_error() {
        let o = SimOptions {
            delay: DelayModel::Uniform { min: 5, max: 1 },
            ..SimOptions::default()
        };
        assert_eq!(
            o.validate(),
            Err(SimConfigError::InvertedDelayRange { min: 5, max: 1 })
        );
        assert!(SimConfigError::InvertedDelayRange { min: 5, max: 1 }
            .to_string()
            .contains("min 5 > max 1"));
        // A degenerate range is a fixed delay and stays legal.
        let o = SimOptions {
            delay: DelayModel::Uniform { min: 2, max: 2 },
            ..SimOptions::default()
        };
        assert_eq!(o.validate(), Ok(()));
    }

    #[test]
    fn zero_timeout_window_is_a_config_error() {
        let o = SimOptions {
            detector: DetectorModel::Timeout { window: 0 },
            ..SimOptions::default()
        };
        assert_eq!(o.validate(), Err(SimConfigError::ZeroTimeoutWindow));
        let o = SimOptions {
            detector: DetectorModel::Timeout { window: 1 },
            ..SimOptions::default()
        };
        assert_eq!(o.validate(), Ok(()));
    }
}
