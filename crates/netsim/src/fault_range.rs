//! The one fault engine every round driver shares.
//!
//! A [`FaultRange`] owns the fault model of one contiguous node/arc range
//! of a graph — the whole graph for a [`Simulator`](crate::Simulator)
//! run, one tenant's block of the union graph for a batch. It fires the
//! plan's scheduled faults, delivers oracle detections, and runs the
//! per-message transit pipeline (dead link, burst chain, i.i.d. loss, bit
//! corruption). Everything it does not own — liveness, believed-alive
//! lists, the protocol, the RNG streams and counters — it borrows from the
//! engine for the duration of one call, through a [`FaultCtx`] or a
//! [`Lane`].
//!
//! The simulator's round engine and the batch executor both go through
//! this one code path, so a change to the fault model lands in both at
//! once.

use crate::faults::{
    BurstChain, Corrupt, FaultPlan, FaultVerdict, LinkFailure, LinkHeal, MessageFaults,
    NetPartition, NodeCrash, NodeRestart, PartitionHeal,
};
use crate::rng::{stream_rng, RngStream};
use crate::sim::{Protocol, SimStats};
use crate::trace::Event;
use gr_topology::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::RngExt;

/// One execution lane's private RNG streams and output buffers: the
/// simulator runs one lane per partition, the batch executor one per
/// tenant. A lane is touched by
/// exactly one thread at a time, so its draws are a pure function of its
/// seed and stream ids.
pub struct Lane {
    /// Partner-selection stream.
    pub sched_rng: StdRng,
    /// Loss, corruption and delay draws.
    pub(crate) fault_rng: StdRng,
    /// Gilbert–Elliott chain on its own stream. The RNG exists even with
    /// bursts off but is never drawn from then.
    burst: BurstChain,
    /// Counters accumulated by this lane (the engine decides when to
    /// merge them).
    pub stats: SimStats,
    /// Trace events buffered for an in-order merge; filled only while
    /// `trace` is set.
    pub(crate) events: Vec<Event>,
    pub(crate) trace: bool,
}

impl Lane {
    /// A lane on the single-run streams ([`RngStream::Schedule`],
    /// [`Faults`](RngStream::Faults), [`Burst`](RngStream::Burst)) of
    /// `seed` — a single-partition simulator's, and a batch tenant's from
    /// its own seed.
    pub fn single(seed: u64) -> Lane {
        Lane::on_streams(
            seed,
            RngStream::Schedule,
            RngStream::Faults,
            RngStream::Burst,
        )
    }

    /// Partition `p`'s lane on the `*Part(p)` streams.
    pub(crate) fn partition(seed: u64, p: u32) -> Lane {
        Lane::on_streams(
            seed,
            RngStream::SchedulePart(p),
            RngStream::FaultsPart(p),
            RngStream::BurstPart(p),
        )
    }

    fn on_streams(seed: u64, sched: RngStream, faults: RngStream, burst: RngStream) -> Lane {
        Lane {
            sched_rng: stream_rng(seed, sched),
            fault_rng: stream_rng(seed, faults),
            burst: BurstChain::new(stream_rng(seed, burst)),
            stats: SimStats::default(),
            events: Vec::new(),
            trace: false,
        }
    }

    /// Buffer `e` if tracing is on.
    #[inline]
    pub(crate) fn record(&mut self, e: Event) {
        if self.trace {
            self.events.push(e);
        }
    }
}

/// Believed-alive neighbor lists (shrink on detection/suspicion, grow back
/// on rehabilitation/heal/restart), kept sorted and stored flat in the
/// graph's CSR layout: node `i`'s list lives at
/// `flat[arc_base(i)..][..len[i]]`. A list never outgrows the node's
/// degree, so each segment stays within its original extent, and the
/// per-round schedule pick reads straight from one flat array.
pub struct Believed {
    flat: Vec<NodeId>,
    len: Vec<u32>,
}

impl Believed {
    /// Every node believes all of its neighbors.
    pub fn new(graph: &Graph) -> Believed {
        let n = graph.len() as NodeId;
        let mut flat = Vec::with_capacity(graph.arc_count());
        for i in 0..n {
            flat.extend_from_slice(graph.neighbors(i));
        }
        Believed {
            flat,
            len: (0..n).map(|i| graph.degree(i) as u32).collect(),
        }
    }

    /// `node`'s believed-alive neighbors, ascending.
    #[inline]
    pub fn list(&self, graph: &Graph, node: NodeId) -> &[NodeId] {
        let base = graph.arc_base(node);
        &self.flat[base..base + self.len[node as usize] as usize]
    }

    /// Drop `neighbor` from `node`'s list; `true` if it was present.
    pub(crate) fn remove(&mut self, graph: &Graph, node: NodeId, neighbor: NodeId) -> bool {
        let base = graph.arc_base(node);
        let len = self.len[node as usize] as usize;
        let list = &mut self.flat[base..base + len];
        match list.binary_search(&neighbor) {
            Ok(pos) => {
                list.copy_within(pos + 1.., pos);
                self.len[node as usize] = (len - 1) as u32;
                true
            }
            Err(_) => false,
        }
    }

    /// Sorted insert of `neighbor` into `node`'s list; `true` if it was
    /// actually absent.
    pub(crate) fn readmit(&mut self, graph: &Graph, node: NodeId, neighbor: NodeId) -> bool {
        let base = graph.arc_base(node);
        let len = self.len[node as usize] as usize;
        match self.flat[base..base + len].binary_search(&neighbor) {
            Ok(_) => false,
            Err(pos) => {
                self.flat
                    .copy_within(base + pos..base + len, base + pos + 1);
                self.flat[base + pos] = neighbor;
                self.len[node as usize] = (len + 1) as u32;
                true
            }
        }
    }

    /// Reset `node`'s list to the neighbors `keep` accepts, in adjacency
    /// order.
    fn reset(&mut self, graph: &Graph, node: NodeId, mut keep: impl FnMut(NodeId) -> bool) {
        let base = graph.arc_base(node);
        let mut len = 0usize;
        for &j in graph.neighbors(node) {
            if keep(j) {
                self.flat[base + len] = j;
                len += 1;
            }
        }
        self.len[node as usize] = len as u32;
    }
}

/// The engine state a fault range acts on, borrowed for one
/// [`FaultRange::fire_due`] / [`FaultRange::deliver_detections`] call.
/// `alive` and `believed` are indexed by graph node id; events and
/// rehabilitation counts go to `lane`.
pub struct FaultCtx<'a, P> {
    /// The topology the range's node/arc ids refer to.
    pub graph: &'a Graph,
    /// Per-node liveness.
    pub alive: &'a mut [bool],
    /// Believed-alive neighbor lists.
    pub believed: &'a mut Believed,
    /// The protocol whose failure hooks fire.
    pub protocol: &'a mut P,
    /// Sink for events and counters.
    pub lane: &'a mut Lane,
}

/// One pending "node learns neighbor is unreachable at `round`" event.
#[derive(Clone, Copy, Debug)]
struct Detection {
    round: u64,
    node: NodeId,
    neighbor: NodeId,
}

/// A plan's events of one kind, stable-sorted by `at_round`; `next`
/// points at the first unfired one, so firing is a cursor advance
/// instead of a per-round scan. Events sharing a round fire in plan
/// order.
struct Queue<T> {
    items: Vec<(u64, T)>,
    next: usize,
}

impl<T> Default for Queue<T> {
    fn default() -> Self {
        Queue {
            items: Vec::new(),
            next: 0,
        }
    }
}

impl<T: Clone> Queue<T> {
    /// Queue `items`, skipping those due before `from_round` (they never
    /// fire).
    fn new(items: impl Iterator<Item = (u64, T)>, from_round: u64) -> Self {
        let mut items: Vec<(u64, T)> = items.collect();
        items.sort_by_key(|e| e.0);
        let next = items.partition_point(|e| e.0 < from_round);
        Queue { items, next }
    }

    #[inline]
    fn pop_due(&mut self, round: u64) -> Option<T> {
        let (at, item) = self.items.get(self.next)?;
        if *at > round {
            return None;
        }
        self.next += 1;
        Some(item.clone())
    }
}

/// The fault model of one contiguous node/arc range: the plan's
/// scheduled-fault queues (in graph node ids, offset by `node_base`),
/// pending oracle detections, a dead-arc bitmask indexed from `arc_base`,
/// and the per-message soft-fault model.
///
/// The bitmask is range-local on purpose: batch workers fire faults for
/// different tenants at the same time, and separate allocations keep two
/// workers from ever writing the same `u64` word.
pub struct FaultRange {
    node_base: NodeId,
    nodes: usize,
    arc_base: usize,
    /// `false` under the timeout detector: scheduled faults then queue no
    /// oracle detections, and heals/restarts record the arcs whose
    /// monitoring resumes instead (see [`resumed`](Self::resumed)).
    oracle: bool,
    round: u64,
    links: Queue<LinkFailure>,
    cuts: Queue<NetPartition>,
    crashes: Queue<NodeCrash>,
    heals: Queue<LinkHeal>,
    cut_heals: Queue<PartitionHeal>,
    restarts: Queue<NodeRestart>,
    /// Kept sorted descending by `(round, node, neighbor)`, so due
    /// detections pop off the end in deterministic order without a
    /// per-round sort or allocation.
    pending: Vec<Detection>,
    /// Per-arc dead bits (`arc - arc_base`), both directions set when a
    /// link dies.
    dead_arcs: Vec<u64>,
    /// False until the first crash or link death fires; lets `transit`
    /// skip every liveness check on the healthy path.
    physical_faults: bool,
    msg: MessageFaults,
    restarted: Vec<NodeId>,
    resumed: Vec<(NodeId, NodeId)>,
}

impl FaultRange {
    /// The range of `nodes` nodes from `node_base` whose arcs start at
    /// `arc_base` and number `arcs`, running `plan` (in range-local node
    /// ids). `oracle` selects oracle detection (see
    /// [`DetectorModel`](crate::DetectorModel)).
    pub fn new(
        plan: &FaultPlan,
        node_base: NodeId,
        nodes: usize,
        arc_base: usize,
        arcs: usize,
        oracle: bool,
    ) -> FaultRange {
        let mut range = FaultRange {
            node_base,
            nodes,
            arc_base,
            oracle,
            round: 0,
            links: Queue::default(),
            cuts: Queue::default(),
            crashes: Queue::default(),
            heals: Queue::default(),
            cut_heals: Queue::default(),
            restarts: Queue::default(),
            pending: Vec::new(),
            dead_arcs: vec![0; arcs.div_ceil(64)],
            physical_faults: false,
            msg: MessageFaults::default(),
            restarted: Vec::new(),
            resumed: Vec::new(),
        };
        range.set_plan(plan, 0);
        range
    }

    /// Replace the plan: scheduled events due before `from_round` never
    /// fire, the probabilistic models switch immediately. Dead links,
    /// pending detections and every lane's burst chain carry over.
    pub(crate) fn set_plan(&mut self, plan: &FaultPlan, from_round: u64) {
        let off = self.node_base;
        let offset_all = |m: &[NodeId]| m.iter().map(|&x| x + off).collect::<Vec<_>>();
        self.links = Queue::new(
            plan.link_failures.iter().map(|f| {
                let (a, b) = (f.a + off, f.b + off);
                (f.at_round, LinkFailure { a, b, ..*f })
            }),
            from_round,
        );
        self.cuts = Queue::new(
            plan.partitions.iter().map(|p| {
                let members = offset_all(&p.members);
                (p.at_round, NetPartition { members, ..*p })
            }),
            from_round,
        );
        self.crashes = Queue::new(
            plan.node_crashes.iter().map(|c| {
                let node = c.node + off;
                (c.at_round, NodeCrash { node, ..*c })
            }),
            from_round,
        );
        self.heals = Queue::new(
            plan.link_heals.iter().map(|h| {
                let (a, b) = (h.a + off, h.b + off);
                (h.at_round, LinkHeal { a, b, ..*h })
            }),
            from_round,
        );
        self.cut_heals = Queue::new(
            plan.partition_heals.iter().map(|p| {
                let members = offset_all(&p.members);
                (p.at_round, PartitionHeal { members, ..*p })
            }),
            from_round,
        );
        self.restarts = Queue::new(
            plan.node_restarts.iter().map(|r| {
                let node = r.node + off;
                (r.at_round, NodeRestart { node, ..*r })
            }),
            from_round,
        );
        self.msg = MessageFaults {
            loss: plan.msg_loss_prob,
            flip: plan.bit_flip_prob,
            burst: plan.burst,
        };
    }

    /// `true` while no physical fault has fired and no probabilistic
    /// model is on: `transit` would pass every message untouched, so
    /// engines may skip it for a whole batch.
    #[inline]
    pub fn is_clean(&self) -> bool {
        !self.physical_faults && self.msg.is_off()
    }

    /// Nodes restarted by the last [`fire_due`](Self::fire_due): engines
    /// drop whatever they still hold in flight from the old incarnation.
    pub(crate) fn restarted(&self) -> &[NodeId] {
        &self.restarted
    }

    /// Timeout detector only: the `(node, neighbor)` arcs whose silence
    /// clock the last [`fire_due`](Self::fire_due) reset (heals and
    /// restarts), in firing order.
    pub(crate) fn resumed(&self) -> &[(NodeId, NodeId)] {
        &self.resumed
    }

    #[inline]
    fn arc_bit(&self, graph: &Graph, src: NodeId, dst: NodeId) -> Option<(usize, u64)> {
        let arc = graph.arc(src, dst)? - self.arc_base;
        Some((arc / 64, 1 << (arc % 64)))
    }

    #[inline]
    fn arc_is_dead(&self, graph: &Graph, src: NodeId, dst: NodeId) -> bool {
        self.arc_bit(graph, src, dst)
            .is_some_and(|(w, b)| self.dead_arcs[w] & b != 0)
    }

    /// Mark the arcs of link `(a, b)` physically dead, both directions.
    pub(crate) fn mark_link_dead(&mut self, graph: &Graph, a: NodeId, b: NodeId) {
        self.physical_faults = true;
        for (x, y) in [(a, b), (b, a)] {
            if let Some((w, b)) = self.arc_bit(graph, x, y) {
                self.dead_arcs[w] |= b;
            }
        }
    }

    /// Queue `node`'s detection of `neighbor` (oracle mode), keeping
    /// `pending` sorted descending; plans hold a handful of events, so
    /// the shift is cheap and only the fault window ever allocates.
    fn push_detection(&mut self, round: u64, node: NodeId, neighbor: NodeId) {
        if !self.oracle {
            return;
        }
        let key = (round, node, neighbor);
        let pos = self
            .pending
            .partition_point(|p| (p.round, p.node, p.neighbor) > key);
        self.pending.insert(
            pos,
            Detection {
                round,
                node,
                neighbor,
            },
        );
    }

    /// Kill link `(a, b)` and queue both endpoints' detections.
    fn fail_link(&mut self, lane: &mut Lane, graph: &Graph, a: NodeId, b: NodeId, delay: u64) {
        let round = self.round;
        lane.record(Event::LinkFailed { round, a, b });
        self.mark_link_dead(graph, a, b);
        self.push_detection(round + delay, a, b);
        self.push_detection(round + delay, b, a);
    }

    /// Fire the scheduled faults due at `round`, in the order: links die,
    /// partition cuts fire, nodes crash, links heal, partitions heal,
    /// nodes restart. A cursor advance over pre-sorted queues — zero work
    /// and zero allocation on rounds with nothing scheduled. Returns
    /// `true` if any node crashed or restarted.
    pub fn fire_due<P: Protocol>(&mut self, round: u64, cx: &mut FaultCtx<'_, P>) -> bool {
        self.round = round;
        self.restarted.clear();
        self.resumed.clear();
        let mut liveness_changed = false;
        while let Some(f) = self.links.pop_due(round) {
            self.fail_link(cx.lane, cx.graph, f.a, f.b, f.detect_delay);
        }
        while let Some(p) = self.cuts.pop_due(round) {
            self.fire_cut(cx, &p);
        }
        while let Some(c) = self.crashes.pop_due(round) {
            cx.lane.record(Event::NodeCrashed {
                round,
                node: c.node,
            });
            cx.alive[c.node as usize] = false;
            self.physical_faults = true;
            liveness_changed = true;
            for &j in cx.graph.neighbors(c.node) {
                self.push_detection(round + c.detect_delay, j, c.node);
            }
        }
        while let Some(h) = self.heals.pop_due(round) {
            self.heal_link(cx, h.a, h.b);
        }
        while let Some(p) = self.cut_heals.pop_due(round) {
            self.fire_cut_heal(cx, &p);
        }
        while let Some(r) = self.restarts.pop_due(round) {
            self.restart(cx, r.node);
            liveness_changed = true;
        }
        liveness_changed
    }

    /// Membership mask of a cut's group, indexed from `node_base`.
    fn group_mask(&self, members: &[NodeId]) -> Vec<bool> {
        let mut in_group = vec![false; self.nodes];
        for &m in members {
            in_group[(m - self.node_base) as usize] = true;
        }
        in_group
    }

    /// A scripted partition cut: every live link with exactly one endpoint
    /// in the member set dies at once, each with its own
    /// [`Event::LinkFailed`] and detections; already-dead crossing links
    /// are skipped. A summary [`Event::PartitionStarted`] closes the
    /// batch.
    fn fire_cut<P>(&mut self, cx: &mut FaultCtx<'_, P>, p: &NetPartition) {
        let in_group = self.group_mask(&p.members);
        let mut cut = 0u32;
        for &m in &p.members {
            for &j in cx.graph.neighbors(m) {
                if in_group[(j - self.node_base) as usize] || self.arc_is_dead(cx.graph, m, j) {
                    continue;
                }
                cut += 1;
                self.fail_link(cx.lane, cx.graph, m, j, p.detect_delay);
            }
        }
        let round = self.round;
        cx.lane.record(Event::PartitionStarted { round, cut });
    }

    /// A scripted partition heal: every *severed* crossing link of the
    /// member set returns through the ordinary per-link heal path, then a
    /// summary [`Event::PartitionHealed`] closes the batch.
    fn fire_cut_heal<P: Protocol>(&mut self, cx: &mut FaultCtx<'_, P>, p: &PartitionHeal) {
        let in_group = self.group_mask(&p.members);
        let mut cut = 0u32;
        for &m in &p.members {
            for &j in cx.graph.neighbors(m) {
                if in_group[(j - self.node_base) as usize] || !self.arc_is_dead(cx.graph, m, j) {
                    continue;
                }
                cut += 1;
                self.heal_link(cx, m, j);
            }
        }
        let round = self.round;
        cx.lane.record(Event::PartitionHealed { round, cut });
    }

    /// Bring a failed link back: clear its dead bits, cancel pending
    /// detections for the pair, and re-admit each alive endpoint into the
    /// other's believed set (with the protocol's rehabilitation hook).
    /// Healing a link that never died is a no-op.
    fn heal_link<P: Protocol>(&mut self, cx: &mut FaultCtx<'_, P>, a: NodeId, b: NodeId) {
        let round = self.round;
        // Edge existence was checked by `FaultPlan::validate`.
        debug_assert!(cx.graph.has_edge(a, b));
        cx.lane.record(Event::LinkHealed { round, a, b });
        for (x, y) in [(a, b), (b, a)] {
            if let Some((w, bit)) = self.arc_bit(cx.graph, x, y) {
                self.dead_arcs[w] &= !bit;
            }
        }
        self.pending
            .retain(|d| !((d.node == a && d.neighbor == b) || (d.node == b && d.neighbor == a)));
        for (x, y) in [(a, b), (b, a)] {
            if !cx.alive[x as usize] || !cx.alive[y as usize] {
                continue;
            }
            if !self.oracle {
                self.resumed.push((x, y));
            }
            if cx.believed.readmit(cx.graph, x, y) {
                cx.lane.stats.rehabilitated += 1;
                cx.lane.record(Event::NodeRehabilitated {
                    round,
                    node: x,
                    neighbor: y,
                });
                cx.protocol.on_rehabilitate(x, y);
            }
        }
    }

    /// Rejoin a crashed node with fresh state: drop the detections about
    /// it that went stale, rebuild mutual believed-alive sets over live
    /// links, and run the protocol's restart hooks on both sides.
    fn restart<P: Protocol>(&mut self, cx: &mut FaultCtx<'_, P>, node: NodeId) {
        let round = self.round;
        assert!(
            !cx.alive[node as usize],
            "fault plan restarts node {node}, which is alive"
        );
        cx.lane.record(Event::NodeRestarted { round, node });
        cx.alive[node as usize] = true;
        self.restarted.push(node);
        // Pending detections about the node are stale — except a
        // neighbor's detection of a *link* that is still physically dead,
        // which must survive the reboot.
        let mut pending = std::mem::take(&mut self.pending);
        pending.retain(|d| {
            d.node != node && (d.neighbor != node || self.arc_is_dead(cx.graph, d.node, node))
        });
        self.pending = pending;
        // The rebooted node believes exactly its alive neighbors over live
        // links.
        let alive = &*cx.alive;
        cx.believed.reset(cx.graph, node, |j| {
            alive[j as usize] && !self.arc_is_dead(cx.graph, node, j)
        });
        if !self.oracle {
            // Fresh detector state in both directions.
            for &j in cx.graph.neighbors(node) {
                self.resumed.push((node, j));
            }
        }
        cx.protocol.on_restart(node);
        // Neighbors re-admit the node and excise their stale edge state.
        for &j in cx.graph.neighbors(node) {
            if !cx.alive[j as usize] || self.arc_is_dead(cx.graph, j, node) {
                continue;
            }
            if !self.oracle {
                self.resumed.push((j, node));
            }
            if cx.believed.readmit(cx.graph, j, node) {
                cx.lane.stats.rehabilitated += 1;
                cx.lane.record(Event::NodeRehabilitated {
                    round,
                    node: j,
                    neighbor: node,
                });
            }
            cx.protocol.on_neighbor_restarted(j, node);
        }
    }

    /// Deliver the detections due this round to alive endpoints, in the
    /// deterministic `(node, neighbor)` order.
    pub fn deliver_detections<P: Protocol>(&mut self, cx: &mut FaultCtx<'_, P>) {
        let round = self.round;
        while let Some(&d) = self.pending.last() {
            if d.round > round {
                break;
            }
            self.pending.pop();
            if cx.alive[d.node as usize] && cx.believed.remove(cx.graph, d.node, d.neighbor) {
                cx.lane.record(Event::Detected {
                    round,
                    node: d.node,
                    neighbor: d.neighbor,
                });
                cx.protocol.on_link_failed(d.node, d.neighbor);
            }
        }
    }

    /// `true` if a message `src → dst` cannot cross: an endpoint crashed
    /// or the arc is dead. A single branch until the first physical fault.
    #[inline]
    fn blocked(&self, graph: &Graph, alive: &[bool], src: NodeId, dst: NodeId) -> bool {
        self.physical_faults
            && (!alive[src as usize] || !alive[dst as usize] || self.arc_is_dead(graph, src, dst))
    }

    /// Apply the transit pipeline to one message of the current round in
    /// place: the dead-link check, then [`MessageFaults::decide`] on
    /// `lane`'s streams. `true` means it survives.
    #[inline]
    pub fn transit<M: Corrupt>(
        &self,
        lane: &mut Lane,
        graph: &Graph,
        alive: &[bool],
        src: NodeId,
        dst: NodeId,
        msg: &mut M,
    ) -> bool {
        let round = self.round;
        if self.blocked(graph, alive, src, dst) {
            lane.stats.lost_dead += 1;
            lane.record(Event::LostDead { round, src, dst });
            return false;
        }
        match self.msg.decide(&mut lane.burst, &mut lane.fault_rng, msg) {
            FaultVerdict::Pass => true,
            FaultVerdict::Flipped(bit) => {
                lane.stats.bit_flips += 1;
                lane.record(Event::BitFlipped {
                    round,
                    src,
                    dst,
                    bit,
                });
                true
            }
            FaultVerdict::LostBurst => {
                lane.stats.lost_burst += 1;
                lane.record(Event::LostBurst { round, src, dst });
                false
            }
            FaultVerdict::LostRandom => {
                lane.stats.lost_random += 1;
                lane.record(Event::LostRandom { round, src, dst });
                false
            }
        }
    }

    /// The transit check for a liveness probe: dead endpoints, dead arcs
    /// and the i.i.d. loss model swallow probes exactly like payload
    /// messages; probes carry no payload to corrupt and bypass the burst
    /// chain.
    #[inline]
    pub(crate) fn probe_survives(
        &self,
        lane: &mut Lane,
        graph: &Graph,
        alive: &[bool],
        src: NodeId,
        dst: NodeId,
    ) -> bool {
        let lost = self.blocked(graph, alive, src, dst)
            || (self.msg.loss > 0.0 && lane.fault_rng.random::<f64>() < self.msg.loss);
        !lost
    }
}
