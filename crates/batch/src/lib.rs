//! Multi-tenant batch executor: N independent reductions, one runtime.
//!
//! The production shape of a reduction service is not one giant aggregate
//! — it is thousands of *small, independent* aggregations in flight at
//! once (one per user cohort, per metric, per shard). Running N isolated
//! [`Simulator`](gr_netsim::Simulator)s gives N private arenas, N cold
//! caches and N allocation pools; this crate multiplexes all tenants
//! through **one** round engine with shared arenas instead.
//!
//! # The union-graph trick
//!
//! A batch is assembled as the [`disjoint_union`] of every tenant's
//! topology: tenant `t`'s nodes occupy the contiguous id block
//! `[node_base, node_base + n_t)` and its directed arcs the contiguous
//! slab rows `[arc_base, arc_base + a_t)`. One protocol instance is then
//! constructed over the union graph — and because the flow protocols lay
//! per-arc state out in CSR order, the existing SoA flow bank *is* the
//! tenant-strided slab, and the protocol's message pool *is* the shared
//! wire-buffer pool. No protocol code changes; the slab layout falls out
//! of the graph construction.
//!
//! [`BatchSim`] then drives per-tenant synchronous rounds exactly as a
//! single-partition simulator would, through the same fault code: each
//! tenant owns a [`FaultRange`] over its node/arc block (the plan's
//! queues, pending detections and a tenant-local dead-arc mask) and a
//! [`Lane`] on the single-run RNG streams seeded from *its own* seed,
//! with its own [`SimStats`]. A tenant's node block never exchanges a
//! message with another block, so:
//!
//! * **batch-of-1 is bit-identical to the single-run engine** — with
//!   `node_base = 0` every id, every schedule draw and every fault draw
//!   replays the single-partition `Simulator` exactly (pinned against
//!   the golden schedule hashes in `tests/golden_identity.rs`);
//! * **per-tenant results are invariant to batch composition and worker
//!   count** — a tenant's block is order-isomorphic to its standalone
//!   graph under the uniform id offset, its RNG streams are derived from
//!   its own seed only, and workers step whole tenants (never splitting
//!   one), so neither neighbors-in-the-batch nor thread count can perturb
//!   a single draw.
//!
//! # Execution model
//!
//! The batch engine supports the paper's model — synchronous activation,
//! zero delay, oracle failure detection — which is exactly the regime in
//! which the delivery ring degenerates to a single bucket drained every
//! round. Per-tenant fault plans carry the full scheduled-event set
//! (link failures/heals, crashes/restarts, partition cuts/heals) plus the
//! probabilistic loss / bit-flip / burst models.
//!
//! Tenants are stepped in cache-friendly batches by a
//! [`WorkerPool`]: worker `w` owns a contiguous tenant chunk and routes
//! protocol calls through the `part_*` hooks with its worker index, so
//! the per-partition arenas (message pools, scratches) that the
//! simulator's partitions use double as per-worker arenas here. The
//! pool is only engaged when the protocol declares
//! [`PARALLEL_SAFE`](Protocol::PARALLEL_SAFE).
//!
//! # Live queries and streaming updates
//!
//! * [`BatchSim::snapshots`] hands out an [`Arc<SnapshotBoard>`]: a
//!   lock-free table of every tenant's current estimate / round /
//!   converged flag, readable from any thread *while the batch is
//!   stepping* (see [`SnapshotBoard`] for the consistency model).
//! * [`BatchSim::push_update`] queues a mid-run change to a tenant
//!   node's local input value (cf. `live_monitoring.rs`); updates apply
//!   at the owning tenant's next round boundary, deterministically.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gr_netsim::{
    Believed, FaultCtx, FaultPlan, FaultRange, Lane, Protocol, Schedule, SimConfigError, SimStats,
    WorkerPool, PREWARM_LOOKAHEAD,
};
use gr_reduction::{
    AggregateKind, FlowUpdating, InitialData, PushCancelFlow, PushFlow, ReductionProtocol,
};
use gr_topology::{disjoint_union, Graph, NodeId};

/// One tenant of a batch: its own topology, seed, fault plan, initial
/// values and round budget — the same knobs a standalone `Simulator` run
/// would take.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// The tenant's topology (hc6-class sizes are the design center).
    pub graph: Graph,
    /// Master seed for the tenant's schedule/fault/burst RNG streams.
    pub seed: u64,
    /// Fault plan in *tenant-local* node ids.
    pub plan: FaultPlan,
    /// Initial scalar value per node (`values.len() == graph.len()`).
    pub values: Vec<f64>,
    /// Rounds after which the tenant stops stepping.
    pub max_rounds: u64,
}

impl TenantSpec {
    /// A fault-free tenant averaging `values` for up to `max_rounds`.
    pub fn clean(graph: Graph, seed: u64, values: Vec<f64>, max_rounds: u64) -> Self {
        TenantSpec {
            graph,
            seed,
            plan: FaultPlan::none(),
            values,
            max_rounds,
        }
    }
}

/// A rejected batch configuration.
#[derive(Clone, Debug, PartialEq)]
pub enum BatchConfigError {
    /// A batch needs at least one tenant.
    NoTenants,
    /// `values.len() != graph.len()` for a tenant.
    ValueCountMismatch {
        /// Offending tenant index.
        tenant: usize,
        /// Supplied value count.
        values: usize,
        /// The tenant topology's node count.
        nodes: usize,
    },
    /// The union of all tenant topologies exceeds `u32` node ids.
    TooManyNodes {
        /// Total node count across tenants.
        total: usize,
    },
    /// A tenant's fault plan failed validation against its topology.
    Fault {
        /// Offending tenant index.
        tenant: usize,
        /// The underlying simulator config error.
        error: SimConfigError,
    },
    /// `threads == 0` — the worker count includes the caller's thread.
    ZeroThreads,
}

impl std::fmt::Display for BatchConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchConfigError::NoTenants => write!(f, "batch has no tenants"),
            BatchConfigError::ValueCountMismatch {
                tenant,
                values,
                nodes,
            } => write!(
                f,
                "tenant {tenant}: {values} initial values for {nodes} nodes"
            ),
            BatchConfigError::TooManyNodes { total } => {
                write!(f, "batch union of {total} nodes exceeds u32 node ids")
            }
            BatchConfigError::Fault { tenant, error } => {
                write!(f, "tenant {tenant}: {error}")
            }
            BatchConfigError::ZeroThreads => {
                write!(f, "thread count must be at least 1")
            }
        }
    }
}

impl std::error::Error for BatchConfigError {}

/// Execution knobs for a batch run.
#[derive(Clone, Debug)]
pub struct BatchOptions {
    /// Worker threads stepping tenant chunks. `1` runs on the caller's
    /// thread; clamped to `1` unless the protocol is
    /// [`PARALLEL_SAFE`](Protocol::PARALLEL_SAFE). Purely an execution
    /// hint — per-tenant results are byte-identical for every value.
    pub threads: usize,
    /// Check tenant convergence every `check_every` rounds (`0` = never;
    /// the throughput benchmarks run with `0`).
    pub check_every: u64,
    /// Relative-error threshold against the tenant's input mean for the
    /// snapshot `converged` flag (`None` disables the flag).
    pub target_accuracy: Option<f64>,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            threads: 1,
            check_every: 0,
            target_accuracy: None,
        }
    }
}

/// A protocol the batch executor can query and live-update. Implemented
/// for the scalar flow protocols; test drivers implement it trivially.
pub trait TenantProtocol: Protocol {
    /// Node `node`'s current scalar estimate (may be NaN early on).
    fn estimate(&self, node: NodeId) -> f64;
    /// Replace node `node`'s local input value mid-run.
    fn update_local_value(&mut self, node: NodeId, value: f64);
}

impl TenantProtocol for PushCancelFlow<'_, f64> {
    fn estimate(&self, node: NodeId) -> f64 {
        self.scalar_estimate(node)
    }
    fn update_local_value(&mut self, node: NodeId, value: f64) {
        self.set_local_value(node, value);
    }
}

impl TenantProtocol for PushFlow<'_, f64> {
    fn estimate(&self, node: NodeId) -> f64 {
        self.scalar_estimate(node)
    }
    fn update_local_value(&mut self, node: NodeId, value: f64) {
        self.set_local_value(node, value);
    }
}

impl TenantProtocol for FlowUpdating<'_, f64> {
    fn estimate(&self, node: NodeId) -> f64 {
        self.scalar_estimate(node)
    }
    fn update_local_value(&mut self, node: NodeId, value: f64) {
        self.set_local_value(node, value);
    }
}

/// A tenant's block in the union graph.
#[derive(Clone, Copy, Debug)]
struct Extent {
    node_base: NodeId,
    nodes: u32,
    arc_base: usize,
    arcs: usize,
}

/// The assembled union topology plus per-tenant extents. Owns the union
/// [`Graph`] so the (graph-borrowing) protocol and [`BatchSim`] can both
/// point into it.
pub struct BatchHost {
    graph: Graph,
    extents: Vec<Extent>,
}

impl BatchHost {
    /// Assemble the disjoint-union topology for `specs` and validate
    /// every tenant's plan and value vector.
    pub fn assemble(specs: &[TenantSpec]) -> Result<BatchHost, BatchConfigError> {
        if specs.is_empty() {
            return Err(BatchConfigError::NoTenants);
        }
        let total: usize = specs.iter().map(|s| s.graph.len()).sum();
        if total > NodeId::MAX as usize {
            return Err(BatchConfigError::TooManyNodes { total });
        }
        let mut extents = Vec::with_capacity(specs.len());
        let (mut node_base, mut arc_base) = (0u32, 0usize);
        for (t, spec) in specs.iter().enumerate() {
            if spec.values.len() != spec.graph.len() {
                return Err(BatchConfigError::ValueCountMismatch {
                    tenant: t,
                    values: spec.values.len(),
                    nodes: spec.graph.len(),
                });
            }
            spec.plan
                .validate(&spec.graph)
                .map_err(|error| BatchConfigError::Fault { tenant: t, error })?;
            extents.push(Extent {
                node_base,
                nodes: spec.graph.len() as u32,
                arc_base,
                arcs: spec.graph.arc_count(),
            });
            node_base += spec.graph.len() as u32;
            arc_base += spec.graph.arc_count();
        }
        let parts: Vec<&Graph> = specs.iter().map(|s| &s.graph).collect();
        Ok(BatchHost {
            graph: disjoint_union(&parts),
            extents,
        })
    }

    /// The union topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of tenants.
    pub fn tenant_count(&self) -> usize {
        self.extents.len()
    }

    /// The union-graph node-id range of tenant `t`.
    pub fn tenant_nodes(&self, t: usize) -> std::ops::Range<NodeId> {
        let e = self.extents[t];
        e.node_base..e.node_base + e.nodes
    }

    /// Concatenated initial data over the union graph (every tenant
    /// computes an average, the paper's aggregate).
    pub fn union_data(&self, specs: &[TenantSpec]) -> InitialData<f64> {
        let values: Vec<f64> = specs
            .iter()
            .flat_map(|s| s.values.iter().copied())
            .collect();
        InitialData::with_kind(values, AggregateKind::Average)
    }
}

/// Per-tenant runtime state: the tenant's [`FaultRange`] over its node
/// and arc block, its [`Lane`] of RNG streams and counters seeded from its
/// own seed, and its round bookkeeping.
struct Tenant {
    node_base: NodeId,
    node_end: NodeId,
    faults: FaultRange,
    lane: Lane,
    round: u64,
    max_rounds: u64,
    active: bool,
    converged: bool,
    /// Running sum of the tenant's input values (kept current under
    /// streaming updates) — the convergence target is `input_sum / n`.
    input_sum: f64,
}

/// Lock-free per-tenant progress table, readable while the batch steps.
///
/// # Consistency model
///
/// Each field is an independent atomic: `estimate` (f64 bits), `round`,
/// and a flag word (`converged`, `done`). Writers publish estimate and
/// flags first and the round counter last with `Release`; a reader that
/// loads `round` with `Acquire` therefore observes an estimate at least
/// as fresh as the *previous* round of the value it read. Fields read
/// together are not a transactional tuple — a snapshot is "some state no
/// older than round − 1", which is exactly what a monitoring plane needs
/// and costs no locks on the round path.
pub struct SnapshotBoard {
    est_bits: Vec<AtomicU64>,
    rounds: Vec<AtomicU64>,
    flags: Vec<AtomicU64>,
}

/// One tenant's published progress.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TenantSnapshot {
    /// Node 0's current estimate (the tenant's designated probe node).
    pub estimate: f64,
    /// Rounds the tenant has completed.
    pub round: u64,
    /// Within `target_accuracy` of the input mean at the last check.
    pub converged: bool,
    /// The tenant has stopped stepping (round budget exhausted).
    pub done: bool,
}

const FLAG_CONVERGED: u64 = 1;
const FLAG_DONE: u64 = 2;

impl SnapshotBoard {
    fn new(tenants: usize) -> Arc<SnapshotBoard> {
        Arc::new(SnapshotBoard {
            est_bits: (0..tenants)
                .map(|_| AtomicU64::new(f64::NAN.to_bits()))
                .collect(),
            rounds: (0..tenants).map(|_| AtomicU64::new(0)).collect(),
            flags: (0..tenants).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    /// Number of tenants on the board.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// `true` for an empty board (never produced by a valid batch).
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Tenant `t`'s current snapshot. Lock-free; see the type docs for
    /// the cross-field consistency model.
    pub fn get(&self, t: usize) -> TenantSnapshot {
        let round = self.rounds[t].load(Ordering::Acquire);
        let flags = self.flags[t].load(Ordering::Relaxed);
        TenantSnapshot {
            estimate: f64::from_bits(self.est_bits[t].load(Ordering::Relaxed)),
            round,
            converged: flags & FLAG_CONVERGED != 0,
            done: flags & FLAG_DONE != 0,
        }
    }

    fn publish(&self, t: usize, estimate: f64, round: u64, converged: bool, done: bool) {
        let mut flags = 0;
        if converged {
            flags |= FLAG_CONVERGED;
        }
        if done {
            flags |= FLAG_DONE;
        }
        self.est_bits[t].store(estimate.to_bits(), Ordering::Relaxed);
        self.flags[t].store(flags, Ordering::Relaxed);
        self.rounds[t].store(round, Ordering::Release);
    }
}

/// The multi-tenant round engine. See the crate docs for the execution
/// and determinism model.
pub struct BatchSim<'h, P: TenantProtocol> {
    host: &'h BatchHost,
    protocol: P,
    tenants: Vec<Tenant>,
    /// Union-wide liveness (tenant-strided; workers touch disjoint
    /// ranges).
    alive_node: Vec<bool>,
    /// Union-CSR believed-alive lists, one segment per node.
    believed: Believed,
    /// Current input value per union node (convergence targets and
    /// streaming-update deltas).
    inputs: Vec<f64>,
    /// Queued streaming updates per tenant, applied at its next round
    /// boundary: `(union node, new value)` in push order.
    updates: Vec<Vec<(NodeId, f64)>>,
    /// Per-worker `(sender, partner)` list of one tenant's send sweep.
    pick_bufs: Vec<Vec<(NodeId, NodeId)>>,
    /// Per-worker wire buffers, `send_bufs[w][k]` shipped along
    /// `pick_bufs[w][k]`.
    send_bufs: Vec<Vec<<P as Protocol>::Msg>>,
    workers: usize,
    pool: Option<WorkerPool>,
    board: Arc<SnapshotBoard>,
    check_every: u64,
    target: Option<f64>,
    round: u64,
}

impl<'h, P: TenantProtocol> BatchSim<'h, P> {
    /// Build the batch engine over an assembled host. `protocol` must
    /// have been constructed over [`BatchHost::graph`]; `specs` must be
    /// the slice `host` was assembled from.
    pub fn new(
        host: &'h BatchHost,
        mut protocol: P,
        specs: &[TenantSpec],
        opts: BatchOptions,
    ) -> Result<Self, BatchConfigError> {
        assert_eq!(
            specs.len(),
            host.extents.len(),
            "spec count does not match the assembled host"
        );
        if opts.threads == 0 {
            return Err(BatchConfigError::ZeroThreads);
        }
        let graph = &host.graph;
        let n = graph.len();
        let mut inputs = Vec::with_capacity(n);
        let mut tenants = Vec::with_capacity(specs.len());
        for (spec, e) in specs.iter().zip(&host.extents) {
            inputs.extend_from_slice(&spec.values);
            tenants.push(Tenant::new(spec, *e));
        }
        let workers = if P::PARALLEL_SAFE {
            opts.threads.min(tenants.len()).max(1)
        } else {
            1
        };
        if workers > 1 {
            protocol.set_partitions(workers);
        }
        let pool = (workers > 1).then(|| WorkerPool::new(workers));
        let board = SnapshotBoard::new(tenants.len());
        Ok(BatchSim {
            host,
            protocol,
            updates: vec![Vec::new(); tenants.len()],
            tenants,
            alive_node: vec![true; n],
            believed: Believed::new(graph),
            inputs,
            pick_bufs: vec![Vec::new(); workers],
            send_bufs: (0..workers).map(|_| Vec::new()).collect(),
            workers,
            pool,
            board,
            check_every: opts.check_every,
            target: opts.target_accuracy,
            round: 0,
        })
    }

    /// The shared snapshot table (clone the `Arc` into reader threads).
    pub fn snapshots(&self) -> Arc<SnapshotBoard> {
        Arc::clone(&self.board)
    }

    /// The protocol (for estimate inspection between rounds).
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Mutable protocol access.
    pub fn protocol_mut(&mut self) -> &mut P {
        &mut self.protocol
    }

    /// Number of tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Resolved worker count (1 = caller's thread only).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Batch rounds completed.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Tenant `t`'s transport counters.
    pub fn tenant_stats(&self, t: usize) -> SimStats {
        self.tenants[t].lane.stats
    }

    /// Rounds tenant `t` has completed.
    pub fn tenant_round(&self, t: usize) -> u64 {
        self.tenants[t].round
    }

    /// `true` once tenant `t` has exhausted its round budget.
    pub fn tenant_done(&self, t: usize) -> bool {
        !self.tenants[t].active
    }

    /// Tenant `t`'s current estimate at tenant-local node `node`.
    pub fn tenant_estimate(&self, t: usize, node: NodeId) -> f64 {
        let tn = &self.tenants[t];
        assert!(
            node < tn.node_end - tn.node_base,
            "node out of tenant range"
        );
        self.protocol.estimate(tn.node_base + node)
    }

    /// Tenant `t`'s alive nodes in *union-graph* ids, ascending — the
    /// id space the protocol's introspection hooks (estimates, mass,
    /// flows) speak, so external checkers can audit a tenant in place.
    pub fn tenant_alive_nodes(&self, t: usize) -> impl Iterator<Item = NodeId> + '_ {
        let tn = &self.tenants[t];
        (tn.node_base..tn.node_end).filter(|&i| self.alive_node[i as usize])
    }

    /// The union-graph nodes `node` currently believes alive (sorted
    /// ascending) — the batch analogue of `Simulator::believed_alive`.
    pub fn believed_alive(&self, node: NodeId) -> &[NodeId] {
        self.believed.list(&self.host.graph, node)
    }

    /// `true` when every tenant has stopped stepping.
    pub fn all_done(&self) -> bool {
        self.tenants.iter().all(|t| !t.active)
    }

    /// Queue a streaming update: tenant `t`'s *local* node `node` changes
    /// its input value to `value` at the start of the tenant's next
    /// round. Updates apply in push order; the aggregate re-converges to
    /// the new mean (LiMoSense-style live monitoring).
    pub fn push_update(&mut self, t: usize, node: NodeId, value: f64) {
        let tn = &self.tenants[t];
        assert!(
            node < tn.node_end - tn.node_base,
            "node out of tenant range"
        );
        self.updates[t].push((tn.node_base + node, value));
        // The old flag describes the old target: force a fresh check.
        self.tenants[t].converged = false;
    }

    /// Step every active tenant one round.
    pub fn step_round(&mut self) {
        let nw = self.workers;
        if let Some(pool) = self.pool.take() {
            // SAFETY: worker `w` steps only tenants in its fixed chunk;
            // every mutable touch is tenant-owned (the tenant struct and
            // its fault range, its update queue, its contiguous node/arc
            // ranges of the strided vectors, its nodes' protocol state per
            // the PARALLEL_SAFE contract) or worker-owned (pick_bufs[w],
            // send_bufs[w], the protocol's part-`w` arenas). The snapshot
            // board is written through atomics.
            unsafe { pool.run_split(nw, self, |sim, w| sim.run_worker(w)) };
            self.pool = Some(pool);
        } else {
            self.run_worker(0);
        }
        self.round += 1;
    }

    /// Step until every tenant is done, at most `max_rounds` batch
    /// rounds.
    pub fn run(&mut self, max_rounds: u64) {
        for _ in 0..max_rounds {
            if self.all_done() {
                break;
            }
            self.step_round();
        }
    }

    /// Step the whole batch until tenant `t`'s converged flag is set
    /// (per the `check_every` cadence) or it stops, at most `max_rounds`
    /// additional batch rounds.
    pub fn run_until_converged(&mut self, t: usize, max_rounds: u64) {
        for _ in 0..max_rounds {
            if self.tenants[t].converged || !self.tenants[t].active {
                break;
            }
            self.step_round();
        }
    }

    /// Tenant chunk of worker `w`: `[w·T/W, (w+1)·T/W)` — fixed by
    /// construction, so the tenant→worker map never depends on timing.
    #[inline]
    fn chunk(&self, w: usize) -> (usize, usize) {
        let t = self.tenants.len();
        (w * t / self.workers, (w + 1) * t / self.workers)
    }

    fn run_worker(&mut self, w: usize) {
        let (t0, t1) = self.chunk(w);
        for t in t0..t1 {
            if self.tenants[t].active {
                self.step_tenant(w, t);
            }
        }
    }

    /// One tenant round: the simulator's phase order exactly —
    /// streaming updates, scheduled faults, due detections, then the
    /// synchronous send/deliver sweep.
    fn step_tenant(&mut self, w: usize, t: usize) {
        self.apply_updates(t);
        let tn = &mut self.tenants[t];
        let mut cx = FaultCtx {
            graph: &self.host.graph,
            alive: &mut self.alive_node,
            believed: &mut self.believed,
            protocol: &mut self.protocol,
            lane: &mut tn.lane,
        };
        tn.faults.fire_due(tn.round, &mut cx);
        tn.faults.deliver_detections(&mut cx);
        self.sync_round(w, t);
        let tn = &mut self.tenants[t];
        tn.round += 1;
        tn.lane.stats.rounds += 1;
        if tn.round >= tn.max_rounds {
            tn.active = false;
        }
        let due_check = self.check_every > 0
            && (self.tenants[t].round.is_multiple_of(self.check_every) || !self.tenants[t].active);
        if due_check {
            self.check_convergence(t);
        }
        let tn = &self.tenants[t];
        let est = self.protocol.estimate(tn.node_base);
        self.board
            .publish(t, est, tn.round, tn.converged, !tn.active);
    }

    /// Drain tenant `t`'s queued streaming updates, in push order.
    fn apply_updates(&mut self, t: usize) {
        if self.updates[t].is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.updates[t]);
        for &(node, value) in &batch {
            let old = self.inputs[node as usize];
            self.inputs[node as usize] = value;
            self.tenants[t].input_sum += value - old;
            self.protocol.update_local_value(node, value);
        }
        // Hand the allocation back for the next burst of updates.
        let mut batch = batch;
        batch.clear();
        self.updates[t] = batch;
    }

    /// Refresh tenant `t`'s converged flag: every alive node within
    /// `target` relative error of the input mean. (The mean is *not*
    /// re-based after crashes — the campaign oracle does the rigorous
    /// survivor-mass accounting; this flag serves live dashboards.)
    fn check_convergence(&mut self, t: usize) {
        let Some(target) = self.target else { return };
        let tn = &self.tenants[t];
        let n = (tn.node_end - tn.node_base) as f64;
        let mean = tn.input_sum / n;
        let scale = mean.abs().max(1.0);
        let mut converged = true;
        for i in tn.node_base..tn.node_end {
            if !self.alive_node[i as usize] {
                continue;
            }
            let rel = (self.protocol.estimate(i) - mean).abs() / scale;
            if rel > target || rel.is_nan() {
                converged = false;
                break;
            }
        }
        self.tenants[t].converged = converged;
    }

    /// Phases 3–5 for tenant `t` on worker `w`: every alive node's
    /// partner from the tenant's schedule stream, then every send in node
    /// order, then in-order delivery through the fault pipeline — the
    /// simulator's zero-delay single-partition synchronous round, node ids
    /// offset by the tenant base. As in the simulator, knowing every pick
    /// before the first send lets both sweeps prefetch
    /// [`PREWARM_LOOKAHEAD`] entries ahead.
    fn sync_round(&mut self, w: usize, t: usize) {
        let graph = &self.host.graph;
        let tn = &mut self.tenants[t];
        let mut picks = std::mem::take(&mut self.pick_bufs[w]);
        let mut msgs = std::mem::take(&mut self.send_bufs[w]);
        debug_assert!(picks.is_empty() && msgs.is_empty());
        for i in tn.node_base..tn.node_end {
            if !self.alive_node[i as usize] {
                continue;
            }
            let alive = self.believed.list(graph, i);
            if let Some(target) = Schedule::uniform().pick(i, alive, &mut tn.lane.sched_rng) {
                picks.push((i, target));
            }
        }
        for (k, &(i, target)) in picks.iter().enumerate() {
            if let Some(&(ahead, to)) = picks.get(k + PREWARM_LOOKAHEAD) {
                self.protocol.prewarm(ahead, to);
            }
            msgs.push(self.protocol.part_send(w, i, target));
        }
        tn.lane.stats.sent += picks.len() as u64;
        let clean = tn.faults.is_clean();
        for (k, msg) in msgs.iter_mut().enumerate() {
            if let Some(&(src, dst)) = picks.get(k + PREWARM_LOOKAHEAD) {
                self.protocol.prewarm(dst, src);
            }
            let (src, dst) = picks[k];
            let alive = &self.alive_node;
            if clean || tn.faults.transit(&mut tn.lane, graph, alive, src, dst, msg) {
                self.protocol.part_receive(w, dst, src, msg);
                tn.lane.stats.delivered += 1;
            }
        }
        for msg in msgs.drain(..) {
            self.protocol.part_reclaim(w, msg);
        }
        picks.clear();
        self.pick_bufs[w] = picks;
        self.send_bufs[w] = msgs;
    }
}

impl Tenant {
    fn new(spec: &TenantSpec, e: Extent) -> Tenant {
        let nodes = e.nodes as usize;
        Tenant {
            node_base: e.node_base,
            node_end: e.node_base + e.nodes,
            faults: FaultRange::new(&spec.plan, e.node_base, nodes, e.arc_base, e.arcs, true),
            lane: Lane::single(spec.seed),
            round: 0,
            max_rounds: spec.max_rounds,
            active: spec.max_rounds > 0,
            converged: false,
            input_sum: spec.values.iter().sum(),
        }
    }
}
