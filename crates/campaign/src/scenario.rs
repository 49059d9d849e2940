//! The campaign's scenario space: what gets run, and how it is named.
//!
//! A [`Scenario`] is a fully concrete, self-describing simulation case —
//! topology, algorithm, seed, round budget, fault plan. Everything random
//! about a scenario (which links die, which nodes crash, when) is drawn
//! from a dedicated RNG stream keyed on the scenario's identity, so the
//! corpus is a pure function of the seed list: the same seeds always
//! produce byte-identical scenarios, which is what makes hashes stable
//! across report → replay round trips.
//!
//! Zero-delay scenarios run under **asynchronous activation** (atomic
//! exchanges, see `gr_netsim::Activation`). That choice is load-bearing
//! for the oracle: with atomic exchanges a fault-free execution keeps
//! pairwise flow antisymmetry and global mass conservation *exact* (up to
//! f64 rounding), so the sanity lane can use tight tolerances.
//! Synchronous rounds allow crossing exchanges, which legitimately break
//! both properties mid-flight and would force vacuous bounds — which is
//! exactly why the *delay-bearing* stress templates (the timeout-detector
//! family) switch to **synchronous activation**: asynchronous activation
//! models atomic exchanges and is incompatible with nonzero latency
//! (`SimConfigError::AsyncWithDelay`), and those templates live in the
//! stress lane, whose magnitude-screen tolerances absorb the in-flight
//! transients. [`Scenario::sim_options`] encodes the choice and
//! [`Scenario::validate`] surfaces the netsim config check per scenario.

use crate::hash::{fnv1a64, hex16};
use gr_netsim::{
    stream_rng, Activation, DelayModel, DetectorModel, FaultPlan, RngStream, SimConfigError,
    SimOptions,
};
use gr_reduction::{AggregateKind, Algorithm, PhiMode};
use gr_topology::{complete, hypercube, ring, torus2d, Graph, NodeId};
use rand::RngExt;

/// What the nodes aggregate — the workload a scenario runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Scalar average (unit weights) — the paper's default experiment.
    Average,
    /// Scalar sum (weight 1 on node 0, 0 elsewhere). Flow updating is
    /// average-only and is excluded from sum corpora.
    Sum,
    /// `dim`-component vector average (unit weights) — exercises the
    /// vector payload path end to end.
    VectorAvg {
        /// Components per node value.
        dim: usize,
    },
}

impl Workload {
    /// Stable label (templates, canonical encoding).
    pub fn label(self) -> String {
        match self {
            Workload::Average => "avg".to_string(),
            Workload::Sum => "sum".to_string(),
            Workload::VectorAvg { dim } => format!("vec{dim}"),
        }
    }

    /// The aggregate kind (weight assignment) this workload runs under.
    pub fn kind(self) -> AggregateKind {
        match self {
            Workload::Average | Workload::VectorAvg { .. } => AggregateKind::Average,
            Workload::Sum => AggregateKind::Sum,
        }
    }
}

/// Which campaign lane a scenario belongs to (resilience-plan style).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// Fault-free, fixed seed corpus, tight tolerances — a hard CI gate.
    Sanity,
    /// Loss + bit flips + link/node failures; trend-tracked, not gated.
    Stress,
}

impl Lane {
    /// Stable lower-case label (report, CLI, canonical encoding).
    pub fn label(self) -> &'static str {
        match self {
            Lane::Sanity => "sanity",
            Lane::Stress => "stress",
        }
    }
}

/// Topology constructor choice, small enough to encode in a fingerprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyKind {
    /// `ring(n)`.
    Ring(usize),
    /// `complete(n)`.
    Complete(usize),
    /// `hypercube(d)` — the paper's failure-experiment family.
    Hypercube(u32),
    /// `torus2d(rows, cols)`.
    Torus2d(usize, usize),
}

impl TopologyKind {
    /// Build the graph.
    pub fn build(self) -> Graph {
        match self {
            TopologyKind::Ring(n) => ring(n),
            TopologyKind::Complete(n) => complete(n),
            TopologyKind::Hypercube(d) => hypercube(d),
            TopologyKind::Torus2d(r, c) => torus2d(r, c),
        }
    }

    /// Node count without building.
    pub fn nodes(self) -> usize {
        match self {
            TopologyKind::Ring(n) | TopologyKind::Complete(n) => n,
            TopologyKind::Hypercube(d) => 1usize << d,
            TopologyKind::Torus2d(r, c) => r * c,
        }
    }

    /// Stable label (report, canonical encoding).
    pub fn label(self) -> String {
        match self {
            TopologyKind::Ring(n) => format!("ring{n}"),
            TopologyKind::Complete(n) => format!("complete{n}"),
            TopologyKind::Hypercube(d) => format!("hypercube{d}"),
            TopologyKind::Torus2d(r, c) => format!("torus{r}x{c}"),
        }
    }
}

/// One fully concrete campaign case.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Lane (decides oracle tolerances and gating).
    pub lane: Lane,
    /// Template name, e.g. `flips/hypercube5` (sanity templates are just
    /// the topology label).
    pub template: String,
    /// Topology to build.
    pub topology: TopologyKind,
    /// Algorithm under test.
    pub algorithm: Algorithm,
    /// What the nodes aggregate.
    pub workload: Workload,
    /// Master seed: workload, schedule, fault coins, fault placement.
    pub seed: u64,
    /// Hard round cap.
    pub max_rounds: u64,
    /// Early-exit accuracy (and the sanity convergence threshold);
    /// `0.0` disables early exit (stress runs its full fault window).
    pub target_accuracy: f64,
    /// The netsim fault plan: loss and bit-flip rates, burst loss,
    /// scheduled link failures/heals (detected per the scenario's
    /// detector model), node crashes/restarts and scripted network
    /// partitions/heals.
    pub plan: FaultPlan,
    /// Largest per-message delay in rounds (`DelayModel::Uniform{0, max}`
    /// when nonzero). Nonzero delay forces synchronous activation — see
    /// the module docs.
    pub delay_max: u64,
    /// Timeout-detector window in rounds (`0` = the oracle detector).
    pub detector_window: u64,
    /// Engine partition count (`0` = the classic single-partition
    /// engine). A value ≥ 2 opts into the partitioned round engine —
    /// synchronous activation, zero delay — and is part of the scenario's
    /// identity: partition count selects the RNG streams, so it changes
    /// results (unlike worker thread count, which never does and is
    /// deliberately *not* a scenario field).
    pub partitions: usize,
    /// Tenant count (`0` = one classic single-instance run). A value
    /// ≥ 1 routes the scenario through the `gr-batch` multi-tenant
    /// executor: `tenants` independent instances of this topology, each
    /// seeded `seed + t`, all under ONE shared scheduled-fault plan,
    /// with the oracle invariants checked per tenant. Identity, not an
    /// execution hint — tenant count selects the per-tenant RNG streams.
    /// The batch engine is synchronous / zero-delay / oracle-detected by
    /// construction, so tenant scenarios must not carry delay or a
    /// timeout detector window.
    pub tenants: usize,
}

impl Scenario {
    /// The execution-model options this scenario runs under. Nonzero
    /// delay forces synchronous activation (asynchronous activation
    /// models atomic exchanges — the combination is a
    /// [`SimConfigError::AsyncWithDelay`]); zero-delay scenarios keep the
    /// asynchronous model the oracle's tight sanity tolerances rely on.
    pub fn sim_options(&self) -> SimOptions {
        SimOptions {
            // Partitioned scenarios run synchronously: partitions ≥ 2
            // are defined for synchronous rounds only
            // (`SimConfigError::PartitionedAsync`). They may carry a
            // delay model.
            // Tenant scenarios likewise: the gr-batch executor replays
            // the simulator's synchronous zero-delay round.
            activation: if self.delay_max > 0 || self.partitions >= 2 || self.tenants >= 1 {
                Activation::Synchronous
            } else {
                Activation::Asynchronous
            },
            delay: if self.delay_max > 0 {
                DelayModel::Uniform {
                    min: 0,
                    max: self.delay_max,
                }
            } else {
                DelayModel::None
            },
            detector: if self.detector_window > 0 {
                DetectorModel::Timeout {
                    window: self.detector_window,
                }
            } else {
                DetectorModel::Oracle
            },
            partitions: self.partitions,
            ..SimOptions::default()
        }
    }

    /// Surface the netsim configuration check for this scenario's
    /// execution model (typed, no panic — embedders decide).
    pub fn validate(&self) -> Result<(), SimConfigError> {
        self.sim_options().validate()
    }

    /// Canonical one-line encoding — the hash pre-image. Versioned so a
    /// future format change invalidates old fingerprints loudly instead
    /// of silently replaying the wrong case (v2 added workload, delay,
    /// detector window, link heals and node restarts).
    pub fn canonical(&self) -> String {
        let plan = &self.plan;
        let links: Vec<_> = plan
            .link_failures
            .iter()
            .map(|f| (f.a, f.b, f.at_round))
            .collect();
        let heals: Vec<_> = plan
            .link_heals
            .iter()
            .map(|h| (h.a, h.b, h.at_round))
            .collect();
        let crashes: Vec<_> = plan
            .node_crashes
            .iter()
            .map(|c| (c.node, c.at_round))
            .collect();
        let restarts: Vec<_> = plan
            .node_restarts
            .iter()
            .map(|r| (r.node, r.at_round))
            .collect();
        let mut s = format!(
            "v2|{}|{}|{}|{}|wl={}|seed={}|rounds={}|acc={:e}|loss={:e}|flips={:e}\
             |delay={}|window={}|links={:?}|heals={:?}|crashes={:?}|restarts={:?}",
            self.lane.label(),
            self.template,
            self.topology.label(),
            self.algorithm.label(),
            self.workload.label(),
            self.seed,
            self.max_rounds,
            self.target_accuracy,
            plan.msg_loss_prob,
            plan.bit_flip_prob,
            self.delay_max,
            self.detector_window,
            links,
            heals,
            crashes,
            restarts,
        );
        // Appended only when set, so every pre-partitioning fingerprint
        // stays byte-identical (same reason the encoding is versioned).
        if self.partitions != 0 {
            s.push_str(&format!("|parts={}", self.partitions));
        }
        // Same discipline for the chaos fields (burst loss, scripted
        // network partitions): pre-chaos fingerprints must not move.
        if let Some(b) = plan.burst {
            s.push_str(&format!("|burst={:?}", (b.enter, b.exit, b.loss)));
        }
        if !plan.partitions.is_empty() {
            let cuts: Vec<_> = plan
                .partitions
                .iter()
                .map(|p| (&p.members, p.at_round))
                .collect();
            s.push_str(&format!("|cuts={cuts:?}"));
        }
        if !plan.partition_heals.is_empty() {
            let heals: Vec<_> = plan
                .partition_heals
                .iter()
                .map(|h| (&h.members, h.at_round))
                .collect();
            s.push_str(&format!("|cutheals={heals:?}"));
        }
        // And for the multi-tenant batch field: pre-batch fingerprints
        // stay byte-identical.
        if self.tenants != 0 {
            s.push_str(&format!("|tenants={}", self.tenants));
        }
        s
    }

    /// The 16-hex-digit scenario fingerprint hash.
    pub fn hash(&self) -> String {
        hex16(fnv1a64(self.canonical().as_bytes()))
    }

    /// Round of the last *scheduled* event (0 if none): the oracle's
    /// non-divergence window starts here. Recovery events (heals,
    /// restarts) count — they perturb the system exactly like a fault
    /// does, so the window restarts at the last of them.
    pub fn last_fault_round(&self) -> u64 {
        let plan = &self.plan;
        let links = plan.link_failures.iter().map(|f| f.at_round);
        let heals = plan.link_heals.iter().map(|h| h.at_round);
        let crashes = plan.node_crashes.iter().map(|c| c.at_round);
        let restarts = plan.node_restarts.iter().map(|r| r.at_round);
        let cuts = plan.partitions.iter().map(|p| p.at_round);
        let cut_heals = plan.partition_heals.iter().map(|h| h.at_round);
        links
            .chain(heals)
            .chain(crashes)
            .chain(restarts)
            .chain(cuts)
            .chain(cut_heals)
            .max()
            .unwrap_or(0)
    }

    /// `true` if the plan contains scheduled (permanent) faults.
    pub fn has_scheduled_faults(&self) -> bool {
        !self.plan.link_failures.is_empty()
            || !self.plan.node_crashes.is_empty()
            || !self.plan.partitions.is_empty()
    }
}

/// Default sanity seed corpus — fixed, so CI runs are comparable.
pub const DEFAULT_SANITY_SEEDS: [u64; 4] = [1, 2, 3, 4];
/// Default stress seed corpus.
pub const DEFAULT_STRESS_SEEDS: [u64; 3] = [1, 2, 3];

/// Sanity round budget: generous enough that every algorithm in the
/// corpus converges to [`SANITY_ACCURACY`] well before the cap (the slow
/// case is the ring, whose async mixing takes a few thousand rounds).
const SANITY_ROUNDS: u64 = 6000;
/// Sanity convergence target / early-exit accuracy.
const SANITY_ACCURACY: f64 = 1e-9;
/// Stress runs execute exactly this many rounds (no early exit: the
/// post-fault window is the point).
const STRESS_ROUNDS: u64 = 900;
/// Scheduled faults land in `[FAULT_FROM, FAULT_UNTIL)`.
const FAULT_FROM: u64 = 120;
const FAULT_UNTIL: u64 = 240;

/// Recovery events (link heals, node restarts) fire this many rounds
/// after the fault they undo — late enough that the failure handling has
/// fully settled, early enough to leave a long post-recovery window
/// inside [`STRESS_ROUNDS`].
const RECOVER_AFTER: u64 = 300;

/// A fault-free scenario skeleton (the corpus builders fill in the
/// lane-specific fields).
fn base_scenario(
    lane: Lane,
    template: String,
    topology: TopologyKind,
    algorithm: Algorithm,
    seed: u64,
) -> Scenario {
    Scenario {
        lane,
        template,
        topology,
        algorithm,
        workload: Workload::Average,
        seed,
        max_rounds: match lane {
            Lane::Sanity => SANITY_ROUNDS,
            Lane::Stress => STRESS_ROUNDS,
        },
        target_accuracy: match lane {
            Lane::Sanity => SANITY_ACCURACY,
            Lane::Stress => 0.0,
        },
        plan: FaultPlan::none(),
        delay_max: 0,
        detector_window: 0,
        partitions: 0,
        tenants: 0,
    }
}

/// The fault-free lane: every algorithm × a topology spread × the seed
/// corpus, run to convergence under exact-conservation tolerances; plus
/// a workload block (scalar sum, vector average) on the fast-mixing
/// topologies.
pub fn sanity_corpus(seeds: &[u64]) -> Vec<Scenario> {
    let topologies = [
        TopologyKind::Complete(16),
        TopologyKind::Hypercube(5),
        TopologyKind::Ring(16),
        TopologyKind::Torus2d(4, 4),
    ];
    let mut corpus = Vec::new();
    for topology in topologies {
        for algorithm in Algorithm::all() {
            for &seed in seeds {
                corpus.push(base_scenario(
                    Lane::Sanity,
                    topology.label(),
                    topology,
                    algorithm,
                    seed,
                ));
            }
        }
    }
    // Workload block: sum and vector-average on the fast mixers. Flow
    // updating is average-only (it asserts unit weights), so it skips
    // the sum workload. The vector dims straddle the small-vector inline
    // cap (`gr_reduction::INLINE_CAP`): dim 3 runs the inline payload
    // representation, dim 24 the heap spill — both code paths stay
    // exercised in CI.
    let workloads = [
        Workload::Sum,
        Workload::VectorAvg { dim: 3 },
        Workload::VectorAvg { dim: 24 },
    ];
    for workload in workloads {
        for topology in [TopologyKind::Complete(16), TopologyKind::Hypercube(5)] {
            for algorithm in Algorithm::all() {
                if workload == Workload::Sum && algorithm == Algorithm::FlowUpdating {
                    continue;
                }
                for &seed in seeds {
                    let template = format!("{}/{}", workload.label(), topology.label());
                    let mut sc = base_scenario(Lane::Sanity, template, topology, algorithm, seed);
                    sc.workload = workload;
                    corpus.push(sc);
                }
            }
        }
    }
    corpus
}

/// The adversarial lane: loss, bit flips, link failures and crashes over
/// the fault-tolerant algorithms (push-sum is excluded — it is the
/// paper's negative control and fails these by design), plus the
/// recovery templates: timeout detectors under message delay (false
/// suspicions + rehabilitation), link healing, node restart, and the
/// combined crash + link-failure case.
pub fn stress_corpus(seeds: &[u64]) -> Vec<Scenario> {
    // (template kind, loss, flips, scheduled link failures, crashes).
    // Fault-bearing templates stay on vertex/edge-connectivity ≥ 5
    // topologies so two scheduled faults can never disconnect the graph
    // (a partitioned survivor set converges per-component and would
    // trip the reconvergence invariant spuriously).
    let kinds: [(&str, f64, f64, usize, usize); 5] = [
        ("loss", 0.2, 0.0, 0, 0),
        ("flips", 0.0, 2e-3, 0, 0),
        ("loss+flips", 0.1, 1e-3, 0, 0),
        ("linkfail", 0.05, 0.0, 2, 0),
        ("crash", 0.05, 0.0, 0, 2),
    ];
    let topologies = [TopologyKind::Hypercube(5), TopologyKind::Complete(16)];
    let algorithms = [
        Algorithm::PushFlow,
        Algorithm::PushCancelFlow(PhiMode::Eager),
        Algorithm::PushCancelFlow(PhiMode::Hardened),
        Algorithm::FlowUpdating,
    ];
    let mut corpus = Vec::new();
    for (kind, loss, flips, n_links, n_crashes) in kinds {
        for topology in topologies {
            let template = format!("{kind}/{}", topology.label());
            for algorithm in algorithms {
                for &seed in seeds {
                    let mut sc =
                        base_scenario(Lane::Stress, template.clone(), topology, algorithm, seed);
                    sc.plan.msg_loss_prob = loss;
                    sc.plan.bit_flip_prob = flips;
                    place_faults(&mut sc, n_links, n_crashes);
                    corpus.push(sc);
                }
            }
        }
    }

    // Recovery templates: imperfect (timeout) failure detection under
    // message delay, link healing, node restart, and the combined
    // crash + link-failure case. All on the hypercube (connectivity 5 —
    // one crash plus one link failure cannot disconnect it).
    //
    // The timeout templates carry probabilistic loss on top of delay:
    // lost messages widen silence gaps, so the detector's false-suspicion
    // rate goes up — exactly the imperfect-detection pressure the lane is
    // for. The transport's suspicion probes keep falsely dead arcs
    // healing, so reconvergence still has to be exact.
    struct Recovery {
        kind: &'static str,
        loss: f64,
        delay_max: u64,
        window: u64,
        n_links: usize,
        heal: bool,
        n_crashes: usize,
        restart: bool,
    }
    let rec = |kind, loss, delay_max, window, n_links, heal, n_crashes, restart| Recovery {
        kind,
        loss,
        delay_max,
        window,
        n_links,
        heal,
        n_crashes,
        restart,
    };
    let recovery = [
        rec("timeout", 0.02, 3, 10, 0, false, 0, false),
        rec("heal", 0.05, 0, 0, 2, true, 0, false),
        rec("restart", 0.05, 0, 0, 0, false, 1, true),
        rec("timeout+heal", 0.02, 3, 10, 1, true, 0, false),
        rec("crash+linkfail", 0.05, 0, 0, 1, false, 1, false),
        // Delay without a timeout detector: the oracle detector never
        // falsely suspects, so every disturbance comes from stale
        // in-flight messages alone. This is the template that drives
        // PCF's staleness handling (fold resyncs on out-of-date
        // conservation views) without conflating it with
        // detector-induced arc churn.
        rec("delay", 0.05, 4, 0, 0, false, 0, false),
    ];
    let topology = TopologyKind::Hypercube(5);
    for Recovery {
        kind,
        loss,
        delay_max,
        window,
        n_links,
        heal,
        n_crashes,
        restart,
    } in recovery
    {
        let template = format!("{kind}/{}", topology.label());
        for algorithm in algorithms {
            for &seed in seeds {
                let mut sc =
                    base_scenario(Lane::Stress, template.clone(), topology, algorithm, seed);
                sc.plan.msg_loss_prob = loss;
                sc.delay_max = delay_max;
                sc.detector_window = window;
                place_faults(&mut sc, n_links, n_crashes);
                let mut plan = std::mem::take(&mut sc.plan);
                if heal {
                    for f in plan.link_failures.clone() {
                        plan = plan.heal_link(f.a, f.b, f.at_round + RECOVER_AFTER);
                    }
                }
                if restart {
                    for c in plan.node_crashes.clone() {
                        plan = plan.restart_node(c.node, c.at_round + RECOVER_AFTER);
                    }
                }
                sc.plan = plan;
                corpus.push(sc);
            }
        }
    }

    // Chaos templates: the transport chaos layer's fault shape replayed
    // through netsim — correlated burst loss on top of i.i.d. drop, plus
    // a scripted half/half partition that heals mid-run.
    let topology = TopologyKind::Hypercube(5);
    let template = format!("chaos/{}", topology.label());
    for algorithm in algorithms {
        for &seed in seeds {
            let mut sc = base_scenario(Lane::Stress, template.clone(), topology, algorithm, seed);
            apply_chaos(&mut sc);
            corpus.push(sc);
        }
    }

    // Scale templates: the ROADMAP's "hypercube 8+, torus 16x16" item.
    // Larger topologies under a multi-fault plan (two link failures plus
    // one crash in the same run) and both payload shapes — scalar average
    // and a vector average sized at the inline cap, so the wide-payload
    // fast path is exercised at scale. Three scheduled faults stay below
    // the smallest connectivity in the set (the torus has vertex
    // connectivity 4), so the survivor graph can never partition. The
    // round budget is raised: the torus diameter (16) slows mixing
    // enough that the default stress budget would leave flow updating
    // short of the reconvergence bar.
    let scale_topologies = [
        TopologyKind::Hypercube(8),
        TopologyKind::Hypercube(10),
        TopologyKind::Torus2d(16, 16),
    ];
    let scale_workloads = [Workload::Average, Workload::VectorAvg { dim: 16 }];
    for topology in scale_topologies {
        let rounds = match topology {
            TopologyKind::Torus2d(..) => 3000,
            _ => 1500,
        };
        for workload in scale_workloads {
            let template = format!("scale-{}/{}", workload.label(), topology.label());
            for algorithm in algorithms {
                for &seed in seeds {
                    let mut sc =
                        base_scenario(Lane::Stress, template.clone(), topology, algorithm, seed);
                    sc.workload = workload;
                    sc.max_rounds = rounds;
                    sc.plan.msg_loss_prob = 0.02;
                    place_faults(&mut sc, 2, 1);
                    corpus.push(sc);
                }
            }
        }
    }

    // Million-node template: one full-size PCF case on the 1000×1000
    // torus, run on the partitioned round engine (16 contiguous CSR
    // blocks — the auto-partition granularity for 10⁶ nodes). The round
    // budget is a handful of full sweeps: the point is not convergence
    // (a diameter-1000 torus mixes over ~10⁶ rounds) but that the
    // engine executes million-node rounds with probabilistic loss under
    // the campaign oracle — mass accounting, flow screens and report
    // fingerprints all at the paper-exceeding scale. PCF-hardened only
    // and no scheduled faults, to keep corpus construction free of a
    // million-node fault-placement build and the stress lane's runtime
    // within CI budget.
    let mega = TopologyKind::Torus2d(1000, 1000);
    for &seed in seeds {
        let mut sc = base_scenario(
            Lane::Stress,
            format!("scale1m-avg/{}", mega.label()),
            mega,
            Algorithm::PushCancelFlow(PhiMode::Hardened),
            seed,
        );
        sc.max_rounds = 8;
        sc.plan.msg_loss_prob = 0.01;
        sc.partitions = 16;
        corpus.push(sc);
    }

    // Multi-tenant template: TENANT_COUNT independent hc6 reductions
    // multiplexed through the gr-batch executor, all under ONE shared
    // scheduled-fault plan (the same two link failures and one crash
    // strike every tenant, in tenant-local coordinates) while each
    // tenant draws its own loss coins from its own seed. The oracle's
    // invariants — mass conservation, flow antisymmetry, magnitude
    // screens, survivor reconvergence — are checked per tenant against
    // that tenant's own initial data, so one run audits the whole fleet.
    // Fault placement stays on hc6 (connectivity 6): two link failures
    // plus one crash can never disconnect a tenant.
    let topology = TopologyKind::Hypercube(6);
    let template = "tenants/hc6-shared-faults".to_string();
    for algorithm in algorithms {
        for &seed in seeds {
            let mut sc = base_scenario(Lane::Stress, template.clone(), topology, algorithm, seed);
            sc.plan.msg_loss_prob = 0.02;
            place_faults(&mut sc, 2, 1);
            sc.tenants = TENANT_COUNT;
            corpus.push(sc);
        }
    }
    corpus
}

/// Tenants per `tenants/*` stress scenario — big enough that the batch
/// path (shared slab, per-tenant fault queues, worker chunking) is
/// genuinely exercised, small enough that the stress lane's CI budget
/// barely notices (24 × 64 nodes × 900 rounds per scenario).
const TENANT_COUNT: usize = 24;

/// Add `n_links` link failures and `n_crashes` node crashes to the
/// scenario's plan, drawn from a scenario-identity-keyed RNG stream.
/// Placement is independent of the simulation's own streams, so turning
/// faults on never perturbs the schedule (the netsim stream separation
/// carried one level up).
fn place_faults(sc: &mut Scenario, n_links: usize, n_crashes: usize) {
    let identity = format!("{}|{}|{}", sc.template, sc.algorithm.label(), sc.seed);
    let mut rng = stream_rng(
        sc.seed ^ fnv1a64(identity.as_bytes()),
        RngStream::Aux(0xFA17),
    );
    let graph = sc.topology.build();
    let n = graph.len() as NodeId;
    let mut plan = std::mem::take(&mut sc.plan);

    let mut guard = 0;
    while plan.link_failures.len() < n_links && guard < 1000 {
        guard += 1;
        let a = rng.random_range(0..n);
        let nbrs = graph.neighbors(a);
        if nbrs.is_empty() {
            continue;
        }
        let b = nbrs[rng.random_range(0..nbrs.len())];
        let (lo, hi) = (a.min(b), a.max(b));
        if plan.link_failures.iter().any(|f| (f.a, f.b) == (lo, hi)) {
            continue;
        }
        plan = plan.fail_link(lo, hi, rng.random_range(FAULT_FROM..FAULT_UNTIL));
    }

    guard = 0;
    while plan.node_crashes.len() < n_crashes && guard < 1000 {
        guard += 1;
        let node = rng.random_range(0..n);
        if plan.node_crashes.iter().any(|c| c.node == node) {
            continue;
        }
        plan = plan.crash_node(node, rng.random_range(FAULT_FROM..FAULT_UNTIL));
    }
    sc.plan = plan;
}

/// Round at which the chaos partition cuts the topology in half.
const CHAOS_CUT_AT: u64 = 200;
/// Round at which the chaos partition heals.
const CHAOS_HEAL_AT: u64 = 500;

/// Write the chaos fault shape into a scenario's plan: 2% i.i.d. drop,
/// Gilbert–Elliott bursts that average ~3.3 messages at 90% loss
/// (steady-state bad fraction ≈ 6%), and the low half of the node range
/// cut off from the rest over `[CHAOS_CUT_AT, CHAOS_HEAL_AT)`. On a
/// hypercube the low half is a sub-hypercube, so both sides of the cut
/// stay internally connected.
fn apply_chaos(sc: &mut Scenario) {
    let low_half: Vec<NodeId> = (0..sc.topology.nodes() as NodeId / 2).collect();
    sc.plan = FaultPlan {
        msg_loss_prob: 0.02,
        ..std::mem::take(&mut sc.plan)
    }
    .with_burst(0.02, 0.3, 0.9)
    .partition(low_half.clone(), CHAOS_CUT_AT)
    .heal_partition(low_half, CHAOS_HEAL_AT);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic() {
        let a = stress_corpus(&[1, 2]);
        let b = stress_corpus(&[1, 2]);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.canonical(), y.canonical());
            assert_eq!(x.hash(), y.hash());
        }
    }

    #[test]
    fn hashes_are_unique_within_corpus() {
        let mut hashes: Vec<String> = sanity_corpus(&DEFAULT_SANITY_SEEDS)
            .iter()
            .chain(stress_corpus(&DEFAULT_STRESS_SEEDS).iter())
            .map(Scenario::hash)
            .collect();
        let n = hashes.len();
        hashes.sort();
        hashes.dedup();
        assert_eq!(hashes.len(), n, "fingerprint collision in default corpus");
    }

    #[test]
    fn sanity_corpus_is_fault_free() {
        for sc in sanity_corpus(&[1]) {
            assert!(sc.plan.is_failure_free(), "{}", sc.canonical());
            assert_eq!(sc.lane, Lane::Sanity);
        }
    }

    #[test]
    fn stress_templates_carry_their_faults() {
        let corpus = stress_corpus(&[7]);
        let crash = corpus
            .iter()
            .find(|s| s.template.starts_with("crash/"))
            .unwrap();
        assert_eq!(crash.plan.node_crashes.len(), 2);
        assert!(crash.has_scheduled_faults());
        assert!(crash.last_fault_round() >= FAULT_FROM);
        assert!(crash.last_fault_round() < FAULT_UNTIL);
        let flips = corpus
            .iter()
            .find(|s| s.template.starts_with("flips/"))
            .unwrap();
        assert!(flips.plan.bit_flip_prob > 0.0);
        assert!(!flips.has_scheduled_faults());
    }

    #[test]
    fn scheduled_faults_are_valid_edges_and_nodes() {
        for sc in stress_corpus(&[1, 2, 3]) {
            if !sc.has_scheduled_faults() {
                continue; // nothing to validate — skip the graph build
            }
            let g = sc.topology.build();
            for f in &sc.plan.link_failures {
                assert!(g.neighbors(f.a).contains(&f.b), "{}", sc.canonical());
            }
            for c in &sc.plan.node_crashes {
                assert!((c.node as usize) < g.len());
            }
        }
    }

    #[test]
    fn topology_labels_and_sizes() {
        assert_eq!(TopologyKind::Hypercube(5).nodes(), 32);
        assert_eq!(TopologyKind::Torus2d(4, 4).label(), "torus4x4");
        assert_eq!(TopologyKind::Ring(16).build().len(), 16);
    }

    #[test]
    fn every_corpus_scenario_validates() {
        for sc in sanity_corpus(&DEFAULT_SANITY_SEEDS)
            .iter()
            .chain(stress_corpus(&DEFAULT_STRESS_SEEDS).iter())
        {
            assert_eq!(sc.validate(), Ok(()), "{}", sc.canonical());
        }
    }

    #[test]
    fn delay_scenarios_run_synchronously_with_timeout_detector() {
        let corpus = stress_corpus(&[1]);
        let sc = corpus
            .iter()
            .find(|s| s.template.starts_with("timeout+heal/"))
            .unwrap();
        let opts = sc.sim_options();
        assert_eq!(opts.activation, Activation::Synchronous);
        assert_eq!(opts.delay, DelayModel::Uniform { min: 0, max: 3 });
        assert_eq!(opts.detector, DetectorModel::Timeout { window: 10 });
        assert_eq!(sc.plan.link_heals.len(), sc.plan.link_failures.len());
        // A hand-built async + delay scenario is rejected with the typed
        // error rather than a panic.
        let mut bad = sc.clone();
        bad.delay_max = 0; // back to async activation ...
        assert_eq!(bad.validate(), Ok(()));
        let mut opts = bad.sim_options();
        opts.delay = DelayModel::Fixed(2); // ... but force a delay in
        assert_eq!(opts.validate(), Err(SimConfigError::AsyncWithDelay));
    }

    #[test]
    fn recovery_events_follow_their_faults() {
        let corpus = stress_corpus(&[1, 2]);
        for sc in &corpus {
            for heal in &sc.plan.link_heals {
                let fail = sc
                    .plan
                    .link_failures
                    .iter()
                    .find(|f| (f.a, f.b) == (heal.a, heal.b))
                    .expect("every heal undoes a scheduled failure");
                assert!(heal.at_round > fail.at_round, "{}", sc.canonical());
                assert!(sc.last_fault_round() >= heal.at_round);
            }
            for restart in &sc.plan.node_restarts {
                let crash = sc
                    .plan
                    .node_crashes
                    .iter()
                    .find(|c| c.node == restart.node)
                    .expect("every restart undoes a scheduled crash");
                assert!(restart.at_round > crash.at_round, "{}", sc.canonical());
                assert!(restart.at_round < sc.max_rounds);
            }
        }
        let restart = corpus
            .iter()
            .find(|s| s.template.starts_with("restart/"))
            .unwrap();
        assert_eq!(restart.plan.node_restarts.len(), 1);
        assert_eq!(restart.plan.node_crashes.len(), 1);
    }

    #[test]
    fn scale_templates_carry_multi_fault_plans() {
        let corpus = stress_corpus(&[1]);
        for label in [
            "scale-avg/hypercube8",
            "scale-avg/hypercube10",
            "scale-avg/torus16x16",
            "scale-vec16/hypercube8",
            "scale-vec16/hypercube10",
            "scale-vec16/torus16x16",
        ] {
            let sc = corpus
                .iter()
                .find(|s| s.template == label)
                .unwrap_or_else(|| panic!("missing scale template {label}"));
            assert_eq!(sc.plan.link_failures.len(), 2, "{label}");
            assert_eq!(sc.plan.node_crashes.len(), 1, "{label}");
            assert!(sc.has_scheduled_faults());
            assert!(sc.max_rounds > STRESS_ROUNDS, "{label}");
            assert_eq!(sc.validate(), Ok(()));
        }
        let vec16 = corpus
            .iter()
            .find(|s| s.template == "scale-vec16/torus16x16")
            .unwrap();
        assert_eq!(vec16.workload, Workload::VectorAvg { dim: 16 });
        assert_eq!(vec16.topology.nodes(), 256);
    }

    #[test]
    fn delay_template_uses_oracle_detector_synchronously() {
        let corpus = stress_corpus(&[1]);
        let sc = corpus
            .iter()
            .find(|s| s.template.starts_with("delay/"))
            .unwrap();
        let opts = sc.sim_options();
        assert_eq!(opts.activation, Activation::Synchronous);
        assert_eq!(opts.delay, DelayModel::Uniform { min: 0, max: 4 });
        assert_eq!(opts.detector, DetectorModel::Oracle);
        assert!(!sc.has_scheduled_faults());
    }

    #[test]
    fn sanity_vector_workloads_straddle_the_inline_cap() {
        use gr_reduction::INLINE_CAP;
        let corpus = sanity_corpus(&[1]);
        assert!(corpus
            .iter()
            .any(|s| matches!(s.workload, Workload::VectorAvg { dim } if dim <= INLINE_CAP)));
        assert!(corpus
            .iter()
            .any(|s| matches!(s.workload, Workload::VectorAvg { dim } if dim > INLINE_CAP)));
    }

    #[test]
    fn million_node_template_runs_partitioned() {
        let corpus = stress_corpus(&[1]);
        let sc = corpus
            .iter()
            .find(|s| s.template == "scale1m-avg/torus1000x1000")
            .expect("million-node template in stress corpus");
        assert_eq!(sc.topology.nodes(), 1_000_000);
        assert_eq!(sc.partitions, 16);
        assert!(!sc.has_scheduled_faults());
        assert_eq!(sc.validate(), Ok(()));
        let opts = sc.sim_options();
        assert_eq!(opts.activation, Activation::Synchronous);
        assert_eq!(opts.delay, DelayModel::None);
        assert_eq!(opts.partitions, 16);
        assert!(sc.canonical().ends_with("|parts=16"));
    }

    #[test]
    fn partition_field_is_hash_neutral_when_unset() {
        // The v2 canonical encoding must be byte-identical for every
        // pre-partitioning scenario, or all committed fingerprints break.
        for sc in sanity_corpus(&[1]).iter().chain(stress_corpus(&[1]).iter()) {
            if sc.partitions == 0 {
                assert!(!sc.canonical().contains("parts="), "{}", sc.canonical());
            }
        }
        // And setting it perturbs the fingerprint (it selects different
        // RNG streams, so it is identity, not an execution hint).
        let mut sc = stress_corpus(&[1])[0].clone();
        let before = sc.hash();
        sc.partitions = 4;
        assert_ne!(sc.hash(), before);
    }

    #[test]
    fn tenants_field_is_hash_neutral_when_unset() {
        // Every pre-batch scenario's canonical encoding must stay
        // byte-identical, or all committed fingerprints break.
        for sc in sanity_corpus(&[1]).iter().chain(stress_corpus(&[1]).iter()) {
            if sc.tenants == 0 {
                assert!(!sc.canonical().contains("tenants="), "{}", sc.canonical());
            }
        }
        // And setting it perturbs the fingerprint — tenant count selects
        // the per-tenant RNG streams, so it is identity.
        let mut sc = stress_corpus(&[1])[0].clone();
        let before = sc.hash();
        sc.tenants = 24;
        assert_ne!(sc.hash(), before);
        assert!(sc.canonical().ends_with("|tenants=24"));
    }

    #[test]
    fn tenants_template_shares_one_fault_schedule() {
        let corpus = stress_corpus(&[1, 2, 3]);
        let cases: Vec<_> = corpus
            .iter()
            .filter(|s| s.template == "tenants/hc6-shared-faults")
            .collect();
        assert_eq!(cases.len(), 12, "4 algorithms x 3 seeds");
        for sc in cases {
            assert_eq!(sc.tenants, TENANT_COUNT);
            assert_eq!(sc.topology, TopologyKind::Hypercube(6));
            // Shared scheduled faults, in tenant-local coordinates.
            assert_eq!(sc.plan.link_failures.len(), 2);
            assert_eq!(sc.plan.node_crashes.len(), 1);
            // The batch engine's regime: zero delay, oracle detection,
            // synchronous activation.
            assert_eq!(sc.delay_max, 0);
            assert_eq!(sc.detector_window, 0);
            assert_eq!(sc.sim_options().activation, Activation::Synchronous);
            assert_eq!(sc.validate(), Ok(()));
        }
    }

    #[test]
    fn chaos_fields_are_hash_neutral_when_unset() {
        // Every pre-chaos scenario's canonical encoding must stay
        // byte-identical, or all committed fingerprints break.
        for sc in sanity_corpus(&[1]).iter().chain(stress_corpus(&[1]).iter()) {
            if sc.plan.burst.is_none() && sc.plan.partitions.is_empty() {
                let c = sc.canonical();
                assert!(!c.contains("burst="), "{c}");
                assert!(!c.contains("cuts="), "{c}");
                assert!(!c.contains("cutheals="), "{c}");
            }
        }
        // And applying the script perturbs the fingerprint — the chaos
        // fields are identity, not execution hints.
        let mut sc = stress_corpus(&[1])[0].clone();
        let before = sc.hash();
        apply_chaos(&mut sc);
        assert_ne!(sc.hash(), before);
    }

    #[test]
    fn chaos_templates_replay_the_shared_script() {
        let corpus = stress_corpus(&[1, 2, 3]);
        let cases: Vec<_> = corpus
            .iter()
            .filter(|s| s.template == "chaos/hypercube5")
            .collect();
        assert_eq!(cases.len(), 12, "4 algorithms x 3 seeds");
        let sc = cases[0];
        let plan = &sc.plan;
        let b = plan.burst.expect("chaos burst");
        assert_eq!((b.enter, b.exit, b.loss), (0.02, 0.3, 0.9));
        assert_eq!(plan.partitions.len(), 1);
        assert_eq!(plan.partitions[0].members, (0..16).collect::<Vec<NodeId>>());
        assert_eq!(plan.partitions[0].at_round, CHAOS_CUT_AT);
        assert_eq!(plan.partition_heals[0].at_round, CHAOS_HEAL_AT);
        assert!(sc.has_scheduled_faults());
        assert_eq!(sc.last_fault_round(), CHAOS_HEAL_AT);
        assert_eq!(sc.validate(), Ok(()));
        assert_eq!(plan.partition_heals.len(), 1);
        assert_eq!(plan.msg_loss_prob, 0.02);
    }

    #[test]
    fn sum_workload_skips_flow_updating() {
        let corpus = sanity_corpus(&[1]);
        assert!(corpus
            .iter()
            .any(|s| s.workload == Workload::VectorAvg { dim: 3 }
                && s.algorithm == Algorithm::FlowUpdating));
        assert!(!corpus
            .iter()
            .any(|s| s.workload == Workload::Sum && s.algorithm == Algorithm::FlowUpdating));
        let sum = corpus
            .iter()
            .find(|s| s.template.starts_with("sum/"))
            .unwrap();
        assert_eq!(sum.workload.kind(), AggregateKind::Sum);
        assert!(sum.canonical().starts_with("v2|"));
        assert!(sum.canonical().contains("|wl=sum|"));
    }
}
