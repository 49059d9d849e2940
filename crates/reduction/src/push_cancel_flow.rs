//! The push-cancel-flow (PCF) algorithm — the paper's contribution
//! (Fig. 5).
//!
//! # Why PF is not enough
//!
//! In push-flow, flow variables converge to execution-dependent values
//! that are unrelated to (and often vastly larger than) the aggregate.
//! Two consequences (paper Sec. II): catastrophic cancellation in
//! `e_i = v_i − Σf` limits the achievable accuracy, increasingly so with
//! scale; and zeroing a flow on permanent-failure handling perturbs the
//! local estimate by the flow's magnitude — a near-restart.
//!
//! # The cancel-flow idea
//!
//! Keep exchanging *only* flows (that is where all the fault tolerance
//! lives), but continuously *cancel* them: whenever an edge's flow pair is
//! conserved (`f_{i,j} = −f_{j,i}` exactly), both endpoints fold their
//! flow into a local "sum of flows" accumulator `ϕ` and reset the flow
//! variable to zero. The two folded values cancel globally, so mass is
//! conserved, and each node's estimate `e_i` is untouched. To keep the
//! computation running while cancellation is in progress, every edge
//! carries **two** flows in alternating roles: an *active* flow running
//! plain PF, and a *passive* flow being driven to zero. Control variables
//! `c_{i,j} ∈ {1,2}` (which slot is active) and `r_{i,j}` (how many role
//! swaps happened) coordinate the two endpoints; all comparisons are
//! *exact* floating-point equality, which works because flow values
//! propagate by negation of the sender's bits — and which makes any
//! bit-flipped value fail the test and be retried rather than folded.
//!
//! The result: flows never accumulate more than a few halved estimates
//! before being reset, so their magnitude tracks the target aggregate.
//! Subtracting them loses no precision, and excising them on failure
//! barely moves the estimate. PCF is otherwise *equivalent* to PF — for
//! the same schedule it performs the same aggregate-carrying exchanges.
//!
//! # ϕ-update variants
//!
//! [`PhiMode::Eager`] is Fig. 5 as printed: `ϕ` mirrors the running sum of
//! all flows (updated at lines 11/23/32), and `e_i = v_i − ϕ_i` costs
//! O(1). A bit flip that corrupts a received flow transiently pollutes
//! `ϕ`, but the pollution cancels at the next successful exchange on that
//! edge (the same self-healing as PF).
//! [`PhiMode::Hardened`] is the variant the paper sketches for full
//! bit-flip tolerance: `ϕ` accumulates *only* cancelled flows (updated
//! just before a flow is zeroed), and the live flows are re-summed for
//! every estimate: `e_i = v_i − ϕ_i − Σ_j (f_{i,j,1} + f_{i,j,2})`. That
//! re-summation is benign here precisely because PCF keeps flows small.

use crate::aggregate::InitialData;
use crate::bank::{self, FlowBank};
use crate::kernels;
use crate::payload::{divide_by_weight, Mass, Payload};
use crate::protocol::ReductionProtocol;
use gr_netsim::{Corrupt, Protocol};
use gr_topology::{Graph, NodeId};

/// How the sum-of-flows accumulator `ϕ` is maintained (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PhiMode {
    /// Fig. 5 as printed: `ϕ` tracks the running flow sum; O(1) estimates.
    #[default]
    Eager,
    /// Bit-flip-hardened: `ϕ` holds only cancelled flows; estimates re-sum
    /// the live flows (O(deg)). Non-finite message fields are always
    /// rejected in this mode — a NaN that reached a fold would be locked
    /// into `ϕ` permanently.
    Hardened,
}

/// The wire message of PCF: both flow slots plus the control variables
/// (paper Fig. 5 line 33: "Send ⟨f_{i,k,1}, f_{i,k,2}, c_{i,k}, r_{i,k}⟩"),
/// extended with the sender's most recently folded value for this edge.
///
/// The `folded` field is this implementation's extension beyond Fig. 5:
/// it lets the fold-acknowledgement receiver *verify and re-synchronise*
/// against exactly what the peer folded, which makes the cancellation
/// handshake safe under message delay. In the paper's model (delivery
/// within the iteration) the re-sync is always a bitwise no-op; with
/// delayed links the unextended protocol systematically destroys mass
/// through mismatched folds (see `ablation_execution_models` and
/// DESIGN.md §4).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PcfMsg<P> {
    /// Flow slot 1.
    pub f1: Mass<P>,
    /// Flow slot 2.
    pub f2: Mass<P>,
    /// Which slot the sender considers active (1 or 2).
    pub c: u8,
    /// The sender's role-swap counter for this edge.
    pub r: u64,
    /// The value of the sender's passive flow at its last fold on this
    /// edge (zero before any fold).
    pub folded: Mass<P>,
    /// The sender's cumulative fold ledger for this edge: the running
    /// total of every flow it has folded away on this edge.
    pub base: Mass<P>,
    /// The sender's incarnation number for this edge (bumped on every
    /// excision).
    pub inc: u64,
}

impl<P: Payload> Corrupt for PcfMsg<P> {
    fn corruptible_bits(&self) -> u32 {
        self.f1.corruptible_bits()
            + self.f2.corruptible_bits()
            + self.folded.corruptible_bits()
            + self.base.corruptible_bits()
            + 8
            + 64
            + 64
    }
    fn flip_bit(&mut self, mut bit: u32) {
        let b1 = self.f1.corruptible_bits();
        if bit < b1 {
            return self.f1.flip_bit(bit);
        }
        bit -= b1;
        let b2 = self.f2.corruptible_bits();
        if bit < b2 {
            return self.f2.flip_bit(bit);
        }
        bit -= b2;
        let b3 = self.folded.corruptible_bits();
        if bit < b3 {
            return self.folded.flip_bit(bit);
        }
        bit -= b3;
        let b4 = self.base.corruptible_bits();
        if bit < b4 {
            return self.base.flip_bit(bit);
        }
        bit -= b4;
        if bit < 8 {
            self.c ^= 1 << bit;
        } else if bit < 72 {
            self.r ^= 1 << (bit - 8);
        } else {
            self.inc ^= 1 << (bit - 72);
        }
    }
}

/// Per-run instrumentation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PcfStats {
    /// Passive flows driven to zero (folds).
    pub cancellations: u64,
    /// Active/passive role swaps completed.
    pub swaps: u64,
    /// Messages dropped because the control field was corrupted out of
    /// range (`c ∉ {1, 2}`).
    pub rejected_messages: u64,
    /// Fold acknowledgements whose passive flow had moved since the peer
    /// verified it and had to be re-synchronised to the advertised folded
    /// value (always 0 in the paper's intra-round delivery model; nonzero
    /// only under message delay).
    pub fold_resyncs: u64,
    /// Messages ignored because sender and receiver disagreed about which
    /// slot is active and the swap counters did not permit adoption.
    pub ignored_messages: u64,
    /// Messages rejected because they carried a stale incarnation number:
    /// they were in flight when the receiver excised the arc, and acting
    /// on them would re-apply flow state that has already been folded.
    pub stale_rejected: u64,
    /// Arc resets forced by a peer's higher incarnation number: the peer
    /// excised the arc (suspicion or failure detection) and folded its
    /// half of the flow pair, so we fold ours — the two folds cancel
    /// globally — and join the new incarnation fresh.
    pub recancellations: u64,
}

impl PcfStats {
    /// Componentwise sum — folds per-partition counter banks into one
    /// run-level view.
    fn absorb(&mut self, d: &PcfStats) {
        self.cancellations += d.cancellations;
        self.swaps += d.swaps;
        self.rejected_messages += d.rejected_messages;
        self.fold_resyncs += d.fold_resyncs;
        self.ignored_messages += d.ignored_messages;
        self.stale_rejected += d.stale_rejected;
        self.recancellations += d.recancellations;
    }
}

/// Bank field index of flow slot 1 (`f_{i,j,1}`).
const F1: usize = 0;
/// Bank field index of flow slot 2 (`f_{i,j,2}`).
const F2: usize = 1;
/// Bank field index of the value most recently folded on the arc
/// (advertised in messages so the peer can verify/re-sync its matching
/// fold; see [`PcfMsg`]).
const FOLDED: usize = 2;
/// Bank field index of the cumulative fold ledger: every value folded on
/// the arc — ordinary cancellations and excisions alike — is added, never
/// removed. Completed ordinary folds keep the two endpoints' ledgers
/// exact negations of each other (the ack path re-syncs them bitwise);
/// an excision breaks that symmetry *unilaterally*, so the ledger is
/// advertised on the wire and the incarnation-adoption path restores
/// antisymmetry by overwriting the adopter's ledger with the negation
/// of the peer's — the pair-ledger analogue of PF's absolute-flow
/// overwrite, and like it self-healing under loss and reordering.
/// Its magnitude converges to the arc's net equilibrium transport,
/// which can exceed the live-flow bound — worth remembering when
/// sizing a [`PushCancelFlow::with_guard`] bound.
const BASE: usize = 3;
/// Vector variables per arc in the bank.
const FIELDS: usize = 4;

/// The flow slot a control value designates (`c ∈ {1, 2}` maps to bank
/// field `F1`/`F2`); its partner ([`pas_idx`]) is the passive one.
/// Branchless: slot selection by the control variable is address
/// arithmetic rather than a data-dependent branch, because `c` alternates
/// per fold generation and arrives in random edge order, making such
/// branches inherently unpredictable.
#[inline(always)]
fn act_idx(c: u8) -> usize {
    ((c - 1) & 1) as usize
}

/// The passive partner slot of control value `c` (see [`act_idx`]).
#[inline(always)]
fn pas_idx(c: u8) -> usize {
    ((2 - c) & 1) as usize
}

/// Per-arc *control* state: the weights of the four vector variables plus
/// the role/control counters. The value components live at the same arc
/// index in the structure-of-arrays [`FlowBank`] (fields [`F1`]/[`F2`]/
/// [`FOLDED`]/[`BASE`]), so a message receipt touches exactly one `ArcCtl`
/// line plus one contiguous bank row regardless of payload dimension —
/// on large topologies the arc state no longer fits in L2 and this split
/// is what keeps the hot loop from paying a miss per field. The alignment
/// keeps elements from straddling line boundaries under the random
/// per-receiver access pattern.
#[derive(Clone, Debug)]
#[repr(align(64))]
struct ArcCtl {
    /// Weights of the four vector variables, indexed by bank field.
    w: [f64; FIELDS],
    /// Role-swap counter `r_{i,j}`.
    r: u64,
    /// Incarnation number: bumped every time this endpoint *excises* the
    /// arc (fail-detection or suspicion folds both slots and resets the
    /// control state). Carried on the wire so the two endpoints can fence
    /// off state from dead generations: a message with a lower number was
    /// sent before the excision and is rejected; one with a higher number
    /// proves the peer excised, so this side folds its matching half,
    /// reconciles the fold ledgers, and adopts the new generation.
    /// Starts at 1 on both sides; a *self*-bumped number always lands on
    /// this endpoint's parity class (lower node id → even, higher → odd),
    /// so simultaneous excisions of the same edge can never collide on
    /// equal numbers — there is always a strict winner for the two sides
    /// to reconcile toward.
    inc: u64,
    /// Active-slot indicator `c_{i,j} ∈ {1,2}`.
    c: u8,
}

impl ArcCtl {
    fn fresh() -> Self {
        ArcCtl {
            w: [0.0; FIELDS],
            r: 1,
            inc: 1,
            c: 1,
        }
    }
}

/// Per-node state: the immutable initial data `v_i = (x_i, w_i)` next to
/// the sum-of-flows accumulator `ϕ_i` it is estimated against, so the
/// per-send estimate reads one cache line instead of two.
#[derive(Clone, Debug)]
struct NodeState<P> {
    init: Mass<P>,
    phi: Mass<P>,
}

/// Push-cancel-flow protocol state (all nodes; per-edge state arc-indexed).
pub struct PushCancelFlow<'g, P: Payload> {
    graph: &'g Graph,
    mode: PhiMode,
    /// Per-node data (`ϕ_i` meaning depends on `mode`).
    nodes: Vec<NodeState<P>>,
    /// Per-arc control state, `ctl[arc(i, j)]`.
    ctl: Vec<ArcCtl>,
    /// Value components of the four per-arc vector variables
    /// (structure-of-arrays; see [`ArcCtl`]).
    bank: FlowBank,
    /// Optional plausibility bound on incoming flows (see
    /// [`PushCancelFlow::with_guard`]).
    guard: Option<f64>,
    dim: usize,
    /// Instrumentation counters, one bank per engine partition (a receive
    /// counts into its receiver-partition bank; [`Self::stats`] folds the
    /// banks). A single bank for a single-partition run.
    stats: Vec<PcfStats>,
    /// Recycled wire buffers, one arena per engine partition (fed by
    /// [`Protocol::reclaim`] / [`Protocol::part_reclaim`]).
    pools: Vec<Vec<PcfMsg<P>>>,
    /// Reused estimate buffers for `on_send`, one per engine partition.
    /// The estimate does not go into the recycled wire buffer, as PF's
    /// and FU's do: on hc14 a partition's pool cycles thousands of
    /// buffers, cold by the time a send pops one, and `scale-faults` ran
    /// about 4% slower when the estimate waited on that buffer.
    scratches: Vec<Mass<P>>,
}

impl<'g, P: Payload> PushCancelFlow<'g, P> {
    /// Initialise over `graph` with the given data, in [`PhiMode::Eager`].
    pub fn new(graph: &'g Graph, init: &InitialData<P>) -> Self {
        Self::with_mode(graph, init, PhiMode::Eager)
    }

    /// Initialise with an explicit ϕ-update variant.
    pub fn with_mode(graph: &'g Graph, init: &InitialData<P>, mode: PhiMode) -> Self {
        assert_eq!(graph.len(), init.len(), "graph/init size mismatch");
        let dim = init.dim();
        let nodes: Vec<NodeState<P>> = (0..init.len())
            .map(|i| NodeState {
                init: Mass::new(init.value(i).clone(), init.weight(i)),
                phi: Mass::zero(dim),
            })
            .collect();
        let arcs = graph.arc_count();
        PushCancelFlow {
            graph,
            mode,
            nodes,
            ctl: vec![ArcCtl::fresh(); arcs],
            bank: FlowBank::new(arcs, FIELDS, dim),
            guard: None,
            dim,
            stats: vec![PcfStats::default()],
            pools: vec![Vec::new()],
            scratches: vec![Mass::zero(dim)],
        }
    }

    /// Enable the magnitude guard: messages carrying any non-finite flow
    /// component, or one larger than `bound` in magnitude, are rejected as
    /// corrupted and recovered like losses. PCF keeps legitimate flows at
    /// `O(|aggregate|)`, so even a tight bound is safe — this closes the
    /// exponent-bit-flip hole that no f64 flow algorithm survives unaided
    /// (see `ablation_phi_variants`).
    pub fn with_guard(mut self, bound: f64) -> Self {
        assert!(bound > 0.0 && bound.is_finite(), "guard must be positive");
        self.guard = Some(bound);
        self
    }

    #[inline]
    fn mass_plausible(&self, m: &Mass<P>) -> bool {
        let finite = || m.weight.is_finite() && m.value.components().iter().all(|c| c.is_finite());
        match self.guard {
            Some(b) => {
                finite() && m.weight.abs() <= b && m.value.components().iter().all(|c| c.abs() <= b)
            }
            // Hardened mode screens non-finite fields even without a
            // magnitude guard: NaN/∞ is implausible under any aggregate,
            // and a NaN that reaches a fold is locked into ϕ forever
            // (ϕ only ever accumulates). Eager mode stays faithful to
            // Fig. 5 as printed, which has no such check — and pays no
            // per-field classification on the hot path either.
            None => self.mode != PhiMode::Hardened || finite(),
        }
    }

    /// The ϕ-update variant in use.
    pub fn mode(&self) -> PhiMode {
        self.mode
    }

    /// Instrumentation counters (summed over the per-partition banks).
    pub fn stats(&self) -> PcfStats {
        let mut total = PcfStats::default();
        for part in &self.stats {
            total.absorb(part);
        }
        total
    }

    /// Flow `f_{i,j,slot}` (test/inspection hook; `slot` is 1 or 2;
    /// materialises a `Mass` from the flow bank).
    pub fn flow(&self, i: NodeId, j: NodeId, slot: u8) -> Mass<P> {
        let idx = self.graph.arc(i, j).expect("not an edge");
        let field = match slot {
            1 => F1,
            2 => F2,
            _ => panic!("flow slot must be 1 or 2"),
        };
        Mass::new(
            P::from_components(self.bank.slice(idx, field)),
            self.ctl[idx].w[field],
        )
    }

    /// The role-swap counter `r_{i,j}`.
    pub fn swap_round(&self, i: NodeId, j: NodeId) -> u64 {
        self.ctl[self.graph.arc(i, j).expect("not an edge")].r
    }

    /// The sum-of-flows accumulator `ϕ_i` (diagnostic; its exact meaning
    /// depends on [`PhiMode`], see the module docs).
    pub fn phi(&self, i: NodeId) -> &Mass<P> {
        &self.nodes[i as usize].phi
    }

    /// Live data `e_i` (into a fresh buffer; see `write_live`).
    pub fn estimate_mass(&self, i: NodeId) -> Mass<P> {
        let mut e = Mass::<P>::zero(self.dim);
        e.weight = self.live(i, e.value.components_mut());
        e
    }

    /// [`Self::write_live`] over this instance's state.
    #[inline]
    fn live(&self, i: NodeId, values: &mut [f64]) -> f64 {
        Self::write_live(
            self.graph,
            self.mode,
            &self.nodes,
            &self.ctl,
            &self.bank,
            i,
            values,
        )
    }

    /// Write the value components of the live data `e_i` into `values`
    /// and return its weight (see the module docs for the per-mode
    /// formula) — the one definition of the estimate, shared by the
    /// oracle side (`write_estimate`, `write_mass`, straight into the
    /// caller's slice) and the send side (into the per-partition scratch
    /// mass).
    #[inline(always)]
    fn write_live(
        graph: &Graph,
        mode: PhiMode,
        nodes: &[NodeState<P>],
        ctl: &[ArcCtl],
        fbank: &FlowBank,
        i: NodeId,
        values: &mut [f64],
    ) -> f64 {
        let node = &nodes[i as usize];
        values.copy_from_slice(node.init.value.components());
        kernels::sub(values, node.phi.value.components());
        let mut weight = node.init.weight - node.phi.weight;
        if mode == PhiMode::Hardened {
            // Fused slice kernel over the node's contiguous arc-row range:
            // per arc, subtract F1 then F2 in slot order — the same
            // per-component operations in the same order as a per-slot
            // loop. Value components and the weight are independent
            // accumulators, so splitting the weight into its own
            // (order-preserving) loop is bit-identical too.
            let base = graph.arc_base(i);
            let deg = graph.degree(i);
            bank::sub_leading2_rows(values, fbank.arc_rows(base, deg), FIELDS);
            for s in &ctl[base..base + deg] {
                weight -= s.w[F1];
                weight -= s.w[F2];
            }
        }
        weight
    }

    /// Replace node `i`'s local input value mid-run (live monitoring, cf.
    /// LiMoSense): the estimate moves by the delta and the gossip
    /// re-converges to the new aggregate. See
    /// [`PushFlow::set_local_value`](crate::PushFlow::set_local_value).
    pub fn set_local_value(&mut self, i: NodeId, value: P) {
        assert_eq!(value.dim(), self.dim, "payload dimension mismatch");
        self.nodes[i as usize].init.value = value;
    }

    /// Largest live-flow magnitude in the system. The paper's key
    /// structural claim is that this stays `O(|aggregate|)` for PCF while
    /// it grows without bound relative to the aggregate for PF.
    pub fn max_flow_magnitude(&self) -> f64 {
        (0..self.graph.arc_count())
            .flat_map(|arc| {
                self.bank
                    .slice(arc, F1)
                    .iter()
                    .chain(self.bank.slice(arc, F2))
                    .copied()
            })
            .fold(0.0f64, |a, c| a.max(c.abs()))
    }

    /// The PF overwrite rule (Fig. 5 lines 11–12) on flow slot `field`
    /// of arc `idx`, against the peer's flow `f_ji`: in eager mode first
    /// `ϕ ← ϕ − (f_ij + f_ji)` (fused per component), then `f_ij ← −f_ji`,
    /// value and weight. Receipt applies it to the active slot, to a
    /// non-conserved passive slot (case iii), to the active slot of a fold
    /// acknowledgement, and to re-sync a passive slot against the peer's
    /// advertised fold. Always inlined: with four call sites in the
    /// receive handler, plain `#[inline]` left it an out-of-line call on
    /// every receipt.
    #[inline(always)]
    fn overwrite(
        mode: PhiMode,
        phi: &mut Mass<P>,
        s: &mut ArcCtl,
        fbank: &mut FlowBank,
        idx: usize,
        field: usize,
        f_ji: &Mass<P>,
    ) {
        if mode == PhiMode::Eager {
            bank::sub_sum(
                phi.value.components_mut(),
                fbank.slice(idx, field),
                f_ji.value.components(),
            );
            phi.weight -= s.w[field] + f_ji.weight;
        }
        bank::store_neg(fbank.slice_mut(idx, field), f_ji.value.components());
        s.w[field] = -f_ji.weight;
    }

    /// Fold a passive flow into the estimate bookkeeping and zero it,
    /// recording the folded value in the [`FOLDED`] field first (it is
    /// advertised so the peer can verify its matching fold).
    /// In eager mode ϕ already contains the flow (ϕ tracks the running
    /// sum), so zeroing the slot *is* the fold; in hardened mode the flow
    /// is moved into ϕ explicitly. Either way `e_i` is unchanged.
    /// Componentwise the loops perform exactly the operations of the
    /// former `Mass`-level code (`phi += f; base += f; f = 0`), fused per
    /// component — bit-identical because components are independent.
    #[inline]
    fn fold_and_clear(
        mode: PhiMode,
        phi: &mut Mass<P>,
        s: &mut ArcCtl,
        fbank: &mut FlowBank,
        idx: usize,
        field: usize,
        stats: &mut PcfStats,
    ) {
        fbank.copy_field(idx, field, FOLDED);
        s.w[FOLDED] = s.w[field];
        {
            let (f, base) = fbank.src_dst(idx, field, BASE);
            if mode == PhiMode::Hardened {
                bank::fold1(phi.value.components_mut(), base, f);
            } else {
                bank::add(base, f);
            }
        }
        if mode == PhiMode::Hardened {
            phi.weight += s.w[field];
        }
        s.w[BASE] += s.w[field];
        fbank.fill_zero(idx, field);
        s.w[field] = 0.0;
        stats.cancellations += 1;
    }

    /// Fold *both* slots of an arc into the estimate bookkeeping and the
    /// fold ledger, and reset its flow/control state (the incarnation
    /// number is left for the caller, which is what distinguishes an
    /// excision from a restart). Like any fold, the local estimate does
    /// not move: in eager mode ϕ keeps the flows' value, in hardened mode
    /// they are moved into ϕ explicitly. (Per component: `t = f1 + f2;
    /// [phi += t;] base += t` — the fused form of the former `Mass`-level
    /// total/add sequence, bit-identical by component independence.)
    fn fold_arc(
        mode: PhiMode,
        phi: &mut Mass<P>,
        s: &mut ArcCtl,
        fbank: &mut FlowBank,
        idx: usize,
    ) {
        {
            let (f1, f2, base) = fbank.two_src_dst(idx, F1, F2, BASE);
            if mode == PhiMode::Hardened {
                bank::fold2(phi.value.components_mut(), base, f1, f2);
            } else {
                bank::add_sum(base, f1, f2);
            }
        }
        let tw = s.w[F1] + s.w[F2];
        if mode == PhiMode::Hardened {
            phi.weight += tw;
        }
        s.w[BASE] += tw;
        fbank.fill_zero(idx, F1);
        fbank.fill_zero(idx, F2);
        fbank.fill_zero(idx, FOLDED);
        s.w[F1] = 0.0;
        s.w[F2] = 0.0;
        s.w[FOLDED] = 0.0;
        s.c = 1;
        s.r = 1;
    }
}

impl<'g, P: Payload> PushCancelFlow<'g, P> {
    /// [`Protocol::on_send`] against partition `part`'s arenas.
    fn send_impl(&mut self, part: usize, node: NodeId, target: NodeId) -> PcfMsg<P> {
        // Fig. 5 lines 30–33.
        let idx = self.graph.arc(node, target).expect("send on a non-edge");
        let eager = self.mode == PhiMode::Eager;
        let mut msg = self.pools[part].pop().unwrap_or_else(|| PcfMsg {
            f1: Mass::zero(self.dim),
            f2: Mass::zero(self.dim),
            c: 0,
            r: 0,
            folded: Mass::zero(self.dim),
            base: Mass::zero(self.dim),
            inc: 0,
        });
        let PushCancelFlow {
            graph,
            mode,
            nodes,
            ctl,
            bank,
            scratches,
            ..
        } = self;
        let e = &mut scratches[part];
        e.weight = Self::write_live(
            graph,
            *mode,
            nodes,
            ctl,
            bank,
            node,
            e.value.components_mut(),
        );
        e.scale(0.5);
        let s = &mut ctl[idx];
        let act = act_idx(s.c);
        bank::add(bank.slice_mut(idx, act), e.value.components());
        s.w[act] += e.weight;
        if eager {
            nodes[node as usize].phi.add_assign(e);
        }
        // Every field of the recycled buffer is overwritten, so the wire
        // bytes are identical to a freshly cloned message.
        msg.f1.value.copy_from_components(bank.slice(idx, F1));
        msg.f1.weight = s.w[F1];
        msg.f2.value.copy_from_components(bank.slice(idx, F2));
        msg.f2.weight = s.w[F2];
        msg.folded
            .value
            .copy_from_components(bank.slice(idx, FOLDED));
        msg.folded.weight = s.w[FOLDED];
        msg.base.value.copy_from_components(bank.slice(idx, BASE));
        msg.base.weight = s.w[BASE];
        msg.c = s.c;
        msg.r = s.r;
        msg.inc = s.inc;
        msg
    }
}

impl<'g, P: Payload> Protocol for PushCancelFlow<'g, P> {
    type Msg = PcfMsg<P>;

    // A send touches the sending node's arc row/control word and ϕ plus
    // partition-indexed arenas (scratch, pool); a receive touches the
    // receiving node's mirror arc, its ϕ, and its receiver-partition stats
    // bank. Failure hooks fold only the first argument's arcs.
    const PARALLEL_SAFE: bool = true;

    fn set_partitions(&mut self, partitions: usize) {
        self.pools.resize_with(partitions, Vec::new);
        let dim = self.dim;
        self.scratches.resize_with(partitions, || Mass::zero(dim));
        self.stats.resize_with(partitions, PcfStats::default);
    }

    fn on_send(&mut self, node: NodeId, target: NodeId) -> PcfMsg<P> {
        self.send_impl(0, node, target)
    }

    fn part_send(&mut self, part: usize, node: NodeId, target: NodeId) -> PcfMsg<P> {
        self.send_impl(part, node, target)
    }

    fn reclaim(&mut self, msg: PcfMsg<P>) {
        self.pools[0].push(msg);
    }

    fn part_reclaim(&mut self, part: usize, msg: PcfMsg<P>) {
        self.pools[part].push(msg);
    }

    fn prewarm(&self, node: NodeId, peer: NodeId) {
        // Touch the cache lines both `send_impl(_, node, peer)` and
        // `receive_impl(_, node, peer, _)` start with: arc (node, peer)'s
        // control word and bank row, and `node`'s record. The arc index is
        // recomputed there, but the neighbor scan is cheap next to the
        // miss this hides.
        #[cfg(target_arch = "x86_64")]
        if let Some(idx) = self.graph.arc(node, peer) {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            // SAFETY: prefetch has no memory effects; both pointers are
            // in-bounds elements of live allocations.
            unsafe {
                _mm_prefetch((&raw const self.ctl[idx]).cast::<i8>(), _MM_HINT_T0);
                _mm_prefetch(self.bank.slice(idx, F1).as_ptr().cast::<i8>(), _MM_HINT_T0);
                _mm_prefetch(
                    (&raw const self.nodes[node as usize]).cast::<i8>(),
                    _MM_HINT_T0,
                );
            }
        }
    }

    fn on_receive(&mut self, node: NodeId, from: NodeId, msg: &mut PcfMsg<P>) {
        self.receive_impl(0, node, from, msg)
    }

    fn part_receive(&mut self, part: usize, node: NodeId, from: NodeId, msg: &mut PcfMsg<P>) {
        self.receive_impl(part, node, from, msg)
    }

    fn on_link_failed(&mut self, node: NodeId, neighbor: NodeId) {
        self.link_failed_impl(node, neighbor)
    }

    fn on_restart(&mut self, node: NodeId) {
        self.restart_impl(node)
    }

    fn on_neighbor_restarted(&mut self, node: NodeId, restarted: NodeId) {
        self.neighbor_restarted_impl(node, restarted)
    }
}

impl<'g, P: Payload> PushCancelFlow<'g, P> {
    /// [`Protocol::on_receive`] against partition `part`'s arenas.
    fn receive_impl(&mut self, part: usize, node: NodeId, from: NodeId, msg: &mut PcfMsg<P>) {
        // Fig. 5 lines 6–29 for one received tuple.
        if msg.c != 1 && msg.c != 2 {
            // Corrupted control field: no branch of the pseudocode is
            // meaningful; drop the message (the next clean exchange
            // supersedes it — same recovery as a lost message).
            self.stats[part].rejected_messages += 1;
            return;
        }
        if msg.f1.dim() != self.dim || msg.f2.dim() != self.dim {
            self.stats[part].rejected_messages += 1;
            return;
        }
        if !(self.mass_plausible(&msg.f1)
            && self.mass_plausible(&msg.f2)
            && self.mass_plausible(&msg.folded)
            && self.mass_plausible(&msg.base))
        {
            self.stats[part].rejected_messages += 1;
            return;
        }
        let idx = self.graph.arc(node, from).expect("message on a non-edge");
        let i = node as usize;
        let (c_ji, r_ji) = (msg.c, msg.r);
        let mode = self.mode;
        // One borrow of each hot field for the whole handler — the arc
        // control word, the bank row, this node's ϕ and the counters are
        // disjoint, and binding them once keeps the indexing (and its
        // bounds checks) out of the per-branch code below.
        let PushCancelFlow {
            nodes,
            ctl,
            bank,
            stats,
            ..
        } = self;
        let stats = &mut stats[part];
        let s = &mut ctl[idx];
        let phi = &mut nodes[i].phi;

        // Incarnation fencing, ahead of all flow interpretation: a lower
        // number is a message from a generation we already excised —
        // acting on it would re-apply flow state whose mass has been
        // folded, double-counting it. A higher number proves the *peer*
        // excised (false suspicion, failure detection): fold our live
        // slots into our ledger, then overwrite the ledger with the exact
        // negation of the peer's advertised one. Ordinary completed folds
        // already cancel pairwise, so the overwrite heals precisely the
        // unilateral part — both sides' excision folds and any fold this
        // side completed against stale in-flight state — restoring the
        // pairwise ledger antisymmetry that global mass conservation
        // rests on, out-of-order delivery and simultaneous excisions
        // included. A corrupted `inc` is self-healing under the same two
        // rules: the inflated side wins and the other side adopts.
        if msg.inc < s.inc {
            stats.stale_rejected += 1;
            return;
        }
        if msg.inc > s.inc {
            Self::fold_arc(mode, phi, s, bank, idx);
            // ϕ ← ϕ − (base + msg.base), then base ← −msg.base (fused per
            // component; identical operations to the former delta `Mass`).
            bank::sub_sum(
                phi.value.components_mut(),
                bank.slice(idx, BASE),
                msg.base.value.components(),
            );
            phi.weight -= s.w[BASE] + msg.base.weight;
            bank::store_neg(bank.slice_mut(idx, BASE), msg.base.value.components());
            s.w[BASE] = -msg.base.weight;
            s.inc = msg.inc;
            stats.recancellations += 1;
        }

        // Fold acknowledgement, evaluated *before* the active-slot
        // agreement guard and in terms of the message's own slot roles:
        // the peer is one generation ahead and reports its passive slot
        // (slot `3 − msg.c` from its perspective) folded to zero. We
        // complete the generation: fold our matching slot — re-synced to
        // the exact negation of what the peer folded — and take the swap
        // from the *initiator's* indicator. Keeping this outside the
        // c-agreement guard matters: a stale pre-adoption message can
        // revert our `c` through line 7 after the peer folded, creating a
        // (c mismatch, r skew 1) state that the pseudocode's guard would
        // ignore forever, deadlocking the edge while sends keep paying
        // mass into it.
        let msg_f = [&msg.f1, &msg.f2];
        let (act, pas) = (act_idx(c_ji), pas_idx(c_ji));
        if s.r + 1 == r_ji && msg_f[pas].is_zero() {
            if !(s.w[pas] == -msg.folded.weight
                && bank::is_neg(bank.slice(idx, pas), msg.folded.value.components()))
            {
                // Our passive moved since the peer verified it (only
                // possible under message delay): re-sync it with the
                // same invariant-preserving overwrite as the active-flow
                // rule, so the pairwise fold cancels exactly.
                Self::overwrite(mode, phi, s, bank, idx, pas, &msg.folded);
                stats.fold_resyncs += 1;
            }
            Self::fold_and_clear(mode, phi, s, bank, idx, pas, stats);
            s.r += 1;
            s.c = 3 - c_ji;
            stats.swaps += 1;
            // The message's active slot still carries fresh flow state:
            // apply the plain-PF overwrite to it as well.
            Self::overwrite(mode, phi, s, bank, idx, act, msg_f[act]);
            return;
        }

        // Line 7–9: adopt the peer's swap if we missed it.
        if s.c != c_ji && s.r == r_ji {
            s.c = c_ji;
        }

        // Line 10: only interact when we agree which slot is active.
        if s.c != c_ji {
            stats.ignored_messages += 1;
            return;
        }

        // Lines 11–12: plain PF on the active slot (past the guard, our
        // slot roles are the message's).
        Self::overwrite(mode, phi, s, bank, idx, act, msg_f[act]);

        // Lines 13–27: passive-slot handling, with *directed* cancellation:
        // only the lower-id endpoint of an edge may initiate a fold (case
        // i); the higher-id endpoint folds exclusively through the
        // acknowledgement path (case ii), re-synchronised to the exact
        // value the initiator advertised. In the paper's intra-round
        // delivery model this merely fixes which of the two legitimate
        // fold orderings happens; under message *delay* it is what keeps
        // folds pairwise matched — verifying conservation against a stale
        // snapshot of the peer's passive flow lets both sides "confirm"
        // folds of values that do not cancel, which demonstrably destroys
        // mass (see `ablation_execution_models`).
        let initiator = node < from;
        let msg_pas = msg_f[pas];
        if initiator
            && msg_pas.weight == -s.w[pas]
            && bank::is_neg(msg_pas.value.components(), bank.slice(idx, pas))
            && s.r == r_ji
        {
            // (i) conservation reached: cancel our passive flow.
            Self::fold_and_clear(mode, phi, s, bank, idx, pas, stats);
            s.r += 1;
        } else if s.r <= r_ji {
            // (iii) passive pair not conserved (e.g. after a loss): treat
            // it like an active flow to restore conservation.
            Self::overwrite(mode, phi, s, bank, idx, pas, msg_pas);
        }
        // else: we are ahead of the peer (r_{i,j} > r_{j,i}); wait for it.
    }

    fn link_failed_impl(&mut self, node: NodeId, neighbor: NodeId) {
        // Permanent-failure handling: "set the corresponding flow variables
        // to zero" — which in PCF means *folding* them: in eager mode ϕ
        // keeps their value (zeroing the slot is the fold), in hardened
        // mode they are moved into ϕ explicitly. Either way the local
        // estimate does not move at all: the net mass that historically
        // crossed the dead link simply stays where it is. This is why PCF
        // shows no convergence fall-back (paper Fig. 7) while PF — whose
        // estimate is defined as `v − Σf` and therefore *must* jump by the
        // zeroed flow's magnitude — restarts (Fig. 4).
        //
        // The incarnation bump makes the same excision safe when the
        // "failure" is a timeout detector's *suspicion* that may be false
        // (the default `on_suspect` routes here): the peer is still alive
        // and still holds its half of the flow pair, but the next message
        // it receives carries the higher number and triggers the ledger
        // reconciliation there (see the fencing in `on_receive`). The
        // bump lands on this endpoint's parity class — lower node id on
        // even numbers, higher on odd — so when *both* ends suspect each
        // other in the same window their independent bumps cannot tie:
        // one side is strictly ahead and the other reconciles toward it.
        let idx = self
            .graph
            .arc(node, neighbor)
            .expect("failure on a non-edge");
        let PushCancelFlow {
            nodes,
            ctl,
            bank,
            mode,
            ..
        } = self;
        let s = &mut ctl[idx];
        Self::fold_arc(*mode, &mut nodes[node as usize].phi, s, bank, idx);
        s.inc += 1;
        if (s.inc & 1) != u64::from(node >= neighbor) {
            s.inc += 1;
        }
    }

    fn restart_impl(&mut self, node: NodeId) {
        // Rejoin with the retained initial data and no memory of past
        // flows: ϕ = 0 and every incident arc fresh at incarnation 1.
        // The node's pre-crash mass is *not* resurrected — the simulator
        // guarantees peers excised the links at crash detection (folding
        // the in-transit mass in place), so re-contributing exactly
        // `v_node` once is what makes the restarted node counted exactly
        // once in the new aggregate.
        self.nodes[node as usize].phi.clear();
        let base = self.graph.arc_base(node);
        for slot in 0..self.graph.degree(node) {
            let idx = base + slot;
            for field in 0..FIELDS {
                self.bank.fill_zero(idx, field);
            }
            self.ctl[idx] = ArcCtl::fresh();
        }
    }

    fn neighbor_restarted_impl(&mut self, node: NodeId, restarted: NodeId) {
        // The peer came back blank at incarnation 1, so the wire fence
        // cannot re-sync us (our number is never lower): fold whatever
        // our half of the old pair still holds and meet the peer fresh.
        // Usually this is a no-op on the flows — crash detection already
        // excised them — but under a timeout detector a quick restart can
        // beat the suspicion window. The fold ledger re-bases to zero on
        // both sides (without touching ϕ): its pre-crash contents are
        // exactly the crash-destroyed / restart-recreated part of the
        // accounting, which no future reconciliation may undo — only the
        // *relative* ledger matters for the adoption overwrite, and both
        // ends of the reborn edge restart it from zero together.
        let idx = self
            .graph
            .arc(node, restarted)
            .expect("failure on a non-edge");
        let PushCancelFlow {
            nodes,
            ctl,
            bank,
            mode,
            ..
        } = self;
        let s = &mut ctl[idx];
        Self::fold_arc(*mode, &mut nodes[node as usize].phi, s, bank, idx);
        bank.fill_zero(idx, BASE);
        s.w[BASE] = 0.0;
        s.inc = 1;
    }
}

impl<'g, P: Payload> ReductionProtocol for PushCancelFlow<'g, P> {
    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn write_mass(&self, node: NodeId, values: &mut [f64]) -> f64 {
        self.live(node, values)
    }

    fn write_estimate(&self, node: NodeId, out: &mut [f64]) {
        let weight = self.live(node, out);
        divide_by_weight(out, weight);
    }

    fn write_flow(&self, i: NodeId, j: NodeId, values: &mut [f64]) -> Option<f64> {
        // The per-edge net flow is the sum over both slots: during an
        // exchange one slot is mid-handoff, but once the exchange
        // completes `f1 + f2` obeys pairwise antisymmetry just like PF's
        // single flow variable.
        let idx = self.graph.arc(i, j).expect("not an edge");
        let (f1, f2) = (self.bank.slice(idx, F1), self.bank.slice(idx, F2));
        for ((v, &x), &y) in values.iter_mut().zip(f1).zip(f2) {
            *v = x + y;
        }
        let s = &self.ctl[idx];
        Some(s.w[F1] + s.w[F2])
    }

    fn max_flow(&self) -> Option<f64> {
        Some(self.max_flow_magnitude())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateKind;
    use crate::push_flow::PushFlow;
    use gr_netsim::{DelayModel, DetectorModel, FaultPlan, SimOptions, Simulator};
    use gr_numerics::{max_relative_error, RelErr};
    use gr_topology::{bus, complete, hypercube, ring, torus3d};
    use rand::prelude::*;

    fn avg_data(n: usize, seed: u64) -> InitialData<f64> {
        InitialData::uniform_random(n, AggregateKind::Average, seed)
    }

    fn run_err(
        g: &gr_topology::Graph,
        data: &InitialData<f64>,
        mode: PhiMode,
        rounds: u64,
        seed: u64,
    ) -> f64 {
        let mut sim = Simulator::new(
            g,
            PushCancelFlow::with_mode(g, data, mode),
            FaultPlan::none(),
            seed,
        );
        sim.run(rounds);
        max_relative_error(sim.protocol().scalar_estimates(), data.reference()[0])
    }

    #[test]
    fn converges_on_complete_graph_both_modes() {
        let g = complete(16);
        let data = avg_data(16, 1);
        for mode in [PhiMode::Eager, PhiMode::Hardened] {
            let err = run_err(&g, &data, mode, 300, 1);
            assert!(err < 1e-13, "{mode:?}: err={err}");
        }
    }

    #[test]
    fn converges_on_ring_and_hypercube() {
        let g = ring(12);
        let data = avg_data(12, 2);
        assert!(run_err(&g, &data, PhiMode::Eager, 1500, 2) < 1e-13);
        let h = hypercube(5);
        let data = avg_data(32, 3);
        assert!(run_err(&h, &data, PhiMode::Eager, 500, 3) < 1e-13);
    }

    #[test]
    fn converges_for_sum_aggregate() {
        let g = hypercube(4);
        let data = InitialData::uniform_random(16, AggregateKind::Sum, 4);
        let reference = data.reference()[0];
        let mut sim = Simulator::new(&g, PushCancelFlow::new(&g, &data), FaultPlan::none(), 4);
        sim.run(600);
        let err = max_relative_error(sim.protocol().scalar_estimates(), reference);
        assert!(err < 1e-13, "err={err}");
    }

    #[test]
    fn cancellations_and_swaps_actually_happen() {
        let g = complete(8);
        let data = avg_data(8, 5);
        let mut sim = Simulator::new(&g, PushCancelFlow::new(&g, &data), FaultPlan::none(), 5);
        sim.run(100);
        let stats = sim.protocol().stats();
        assert!(stats.cancellations > 100, "{stats:?}");
        assert!(stats.swaps > 20, "{stats:?}");
        assert_eq!(stats.rejected_messages, 0);
    }

    #[test]
    fn flows_stay_small_while_pf_flows_grow() {
        // The structural difference that buys everything else: on the bus
        // case (aggregate 2, mass n+1 at one end) PF's flows reach O(n),
        // PCF's stay within a small multiple of the aggregate.
        let n = 32;
        let g = bus(n);
        let data = InitialData::bus_case(n);
        let seed = 6;
        let mut pf_sim = Simulator::new(&g, PushFlow::new(&g, &data), FaultPlan::none(), seed);
        let mut pcf_sim =
            Simulator::new(&g, PushCancelFlow::new(&g, &data), FaultPlan::none(), seed);
        pf_sim.run(20_000);
        pcf_sim.run(20_000);
        let pf_max = pf_sim.protocol().max_flow_magnitude();
        let pcf_max = pcf_sim.protocol().max_flow_magnitude();
        assert!(pf_max > (n / 2) as f64, "PF flows should grow: {pf_max}");
        assert!(
            pcf_max < 40.0,
            "PCF flows should stay near the aggregate: {pcf_max} (PF: {pf_max})"
        );
    }

    #[test]
    fn equivalent_to_pf_before_any_failure() {
        // Same seed ⇒ same schedule ⇒ (theoretical) identical estimates.
        // In f64 the two differ only by rounding, far below the running
        // error level early in the run.
        let g = hypercube(6);
        let data = avg_data(64, 7);
        let seed = 7;
        let mut pf = Simulator::new(&g, PushFlow::new(&g, &data), FaultPlan::none(), seed);
        let mut pcf = Simulator::new(&g, PushCancelFlow::new(&g, &data), FaultPlan::none(), seed);
        for _ in 0..60 {
            pf.step();
            pcf.step();
        }
        for i in 0..64 {
            let a = pf.protocol().scalar_estimate(i);
            let b = pcf.protocol().scalar_estimate(i);
            assert!(
                (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                "node {i}: PF {a} vs PCF {b}"
            );
        }
    }

    #[test]
    fn mass_conservation_sequential_both_modes() {
        for mode in [PhiMode::Eager, PhiMode::Hardened] {
            let g = hypercube(3);
            let data = avg_data(8, 8);
            let mut pcf = PushCancelFlow::with_mode(&g, &data, mode);
            let total_v0: f64 = (0..8).map(|i| pcf.estimate_mass(i).value).sum();
            let mut rng = StdRng::seed_from_u64(11);
            for step in 0..600 {
                let i: NodeId = rng.random_range(0..8);
                let nbrs = g.neighbors(i);
                let k = nbrs[rng.random_range(0..nbrs.len())];
                let mut msg = pcf.on_send(i, k);
                pcf.on_receive(k, i, &mut msg);
                let total_w: f64 = (0..8).map(|i| pcf.estimate_mass(i).weight).sum();
                let total_v: f64 = (0..8).map(|i| pcf.estimate_mass(i).value).sum();
                assert!(
                    (total_w - 8.0).abs() < 1e-9,
                    "{mode:?} step {step}: weight drifted to {total_w}"
                );
                assert!(
                    (total_v - total_v0).abs() < 1e-9,
                    "{mode:?} step {step}: value drifted to {total_v}"
                );
            }
            assert!(pcf.stats().cancellations > 0);
        }
    }

    #[test]
    fn swap_counter_skew_never_exceeds_one() {
        // Protocol invariant: |r_{i,j} − r_{j,i}| ≤ 1 in failure-free
        // operation (each side must wait for the other before advancing).
        let g = ring(6);
        let data = avg_data(6, 9);
        let mut sim = Simulator::new(&g, PushCancelFlow::new(&g, &data), FaultPlan::none(), 9);
        for _ in 0..300 {
            sim.step();
            let pcf = sim.protocol();
            for (i, j) in g.edges() {
                let a = pcf.swap_round(i, j);
                let b = pcf.swap_round(j, i);
                assert!(a.abs_diff(b) <= 1, "edge ({i},{j}): r skew {a} vs {b}");
            }
        }
    }

    #[test]
    fn recovers_from_message_loss() {
        let g = complete(16);
        let data = avg_data(16, 10);
        let reference = data.reference()[0];
        for mode in [PhiMode::Eager, PhiMode::Hardened] {
            let plan = FaultPlan::with_loss(0.2);
            let mut sim = Simulator::new(&g, PushCancelFlow::with_mode(&g, &data, mode), plan, 10);
            sim.run(800);
            let err = max_relative_error(sim.protocol().scalar_estimates(), reference);
            assert!(err < 1e-12, "{mode:?}: err={err}");
        }
    }

    #[test]
    fn link_failure_causes_no_fallback() {
        // The headline fault-tolerance result (Fig. 7): kill a link late;
        // PCF's error keeps shrinking instead of rebounding.
        let g = hypercube(6);
        let data = avg_data(64, 11);
        let reference = data.reference()[0];
        let seed = 11;

        let mut clean = Simulator::new(&g, PushCancelFlow::new(&g, &data), FaultPlan::none(), seed);
        clean.run(80);
        let clean_err = RelErr::of(clean.protocol().scalar_estimates(), reference).max;

        let plan = FaultPlan::none().fail_link(0, 1, 75);
        let mut faulty = Simulator::new(&g, PushCancelFlow::new(&g, &data), plan, seed);
        faulty.run(80);
        let faulty_err = RelErr::of(faulty.protocol().scalar_estimates(), reference).max;

        // A small local perturbation is allowed; a PF-style restart (orders
        // of magnitude) is not.
        assert!(
            faulty_err < clean_err * 50.0,
            "PCF fell back after failure: clean={clean_err:e} faulty={faulty_err:e}"
        );
        faulty.run(200);
        let final_err = RelErr::of(faulty.protocol().scalar_estimates(), reference).max;
        assert!(
            final_err < 1e-12,
            "PCF should keep converging: {final_err:e}"
        );
    }

    #[test]
    fn accuracy_beats_pf_at_scale() {
        // Fig. 3 vs Fig. 6 in miniature: on a 512-node torus, run both to
        // their floor; PCF's floor must be orders of magnitude lower. The
        // instantaneous max-error fluctuates (nodes whose gossip weight is
        // transiently tiny amplify bookkeeping noise), so compare the
        // best error each algorithm ever achieves, sampled periodically.
        let g = torus3d(8, 8, 8);
        let data = avg_data(512, 12);
        let reference = data.reference()[0];
        let seed = 12;
        let best = |pcf: bool| {
            let mut best = f64::INFINITY;
            if pcf {
                let mut sim =
                    Simulator::new(&g, PushCancelFlow::new(&g, &data), FaultPlan::none(), seed);
                for _ in 0..40 {
                    sim.run(500);
                    best = best.min(max_relative_error(
                        sim.protocol().scalar_estimates(),
                        reference,
                    ));
                }
            } else {
                let mut sim = Simulator::new(&g, PushFlow::new(&g, &data), FaultPlan::none(), seed);
                for _ in 0..40 {
                    sim.run(500);
                    best = best.min(max_relative_error(
                        sim.protocol().scalar_estimates(),
                        reference,
                    ));
                }
            }
            best
        };
        let pcf_err = best(true);
        let pf_err = best(false);
        assert!(
            pcf_err < 5e-14,
            "PCF should reach machine precision: {pcf_err:e}"
        );
        // Best-ever sampling flatters PF (it catches PF's luckiest dip),
        // so one order of magnitude is the robust qualitative margin.
        assert!(
            pcf_err * 10.0 < pf_err,
            "PCF ({pcf_err:e}) should be far below PF ({pf_err:e})"
        );
    }

    #[test]
    fn corrupted_control_field_is_rejected() {
        let g = bus(2);
        let data = avg_data(2, 13);
        let mut pcf = PushCancelFlow::new(&g, &data);
        let mut msg = PcfMsg {
            f1: Mass::new(0.5, 0.5),
            f2: Mass::zero(1),
            c: 7, // corrupted
            r: 1,
            folded: Mass::zero(1),
            base: Mass::zero(1),
            inc: 1,
        };
        pcf.on_receive(0, 1, &mut msg);
        assert_eq!(pcf.stats().rejected_messages, 1);
        // state untouched
        assert!(pcf.flow(0, 1, 1).is_zero());
    }

    #[test]
    fn msg_corruption_covers_all_fields() {
        let mut m = PcfMsg {
            f1: Mass::new(1.0f64, 1.0),
            f2: Mass::new(2.0, 0.0),
            c: 1,
            r: 5,
            folded: Mass::new(4.0, 1.0),
            base: Mass::new(8.0, 1.0),
            inc: 2,
        };
        assert_eq!(m.corruptible_bits(), 128 + 128 + 128 + 128 + 8 + 64 + 64);
        m.flip_bit(63); // sign of f1.value
        assert_eq!(m.f1.value, -1.0);
        m.flip_bit(256 + 63); // sign of folded.value
        assert_eq!(m.folded.value, -4.0);
        m.flip_bit(384 + 63); // sign of base.value
        assert_eq!(m.base.value, -8.0);
        m.flip_bit(512); // lowest bit of c
        assert_eq!(m.c, 0);
        m.flip_bit(520); // lowest bit of r
        assert_eq!(m.r, 4);
        m.flip_bit(584); // lowest bit of inc
        assert_eq!(m.inc, 3);
    }

    #[test]
    fn survives_bit_flip_storm_then_heals() {
        // Hardened mode: flip bits for a while, then run clean and verify
        // convergence to machine precision resumes.
        let g = complete(12);
        let data = avg_data(12, 14);
        let reference = data.reference()[0];
        // Phase 1: heavy corruption. We simulate by manual message
        // tampering: run a normal sim but corrupt random flows directly.
        let mut sim = Simulator::new(
            &g,
            PushCancelFlow::with_mode(&g, &data, PhiMode::Hardened),
            FaultPlan::with_bit_flips(0.02),
            14,
        );
        sim.run(400);
        assert!(sim.stats().bit_flips > 0);
        // Phase 2 equivalent: fresh clean run from scratch converges —
        // and the corrupted run's estimates should not be absurdly far
        // (NaN/Inf) unless a flip manufactured one, which exact-equality
        // folding must not have *locked in*: re-run and check that the
        // error is finite for the vast majority of nodes.
        let errs: Vec<f64> = sim
            .protocol()
            .scalar_estimates()
            .iter()
            .map(|&e| ((e - reference.to_f64()) / reference.to_f64()).abs())
            .collect();
        let finite = errs.iter().filter(|e| e.is_finite()).count();
        assert!(finite >= 11, "too many destroyed nodes: {errs:?}");
    }

    #[test]
    fn guard_rejects_implausible_messages() {
        let g = bus(2);
        let data = avg_data(2, 16);
        let mut pcf = PushCancelFlow::new(&g, &data).with_guard(100.0);
        let mut msg = PcfMsg {
            f1: Mass::new(1e30, 1.0), // exponent-flipped
            f2: Mass::zero(1),
            c: 1,
            r: 1,
            folded: Mass::zero(1),
            base: Mass::zero(1),
            inc: 1,
        };
        pcf.on_receive(0, 1, &mut msg);
        assert_eq!(pcf.stats().rejected_messages, 1);
        assert!(pcf.flow(0, 1, 1).is_zero());
        // a corrupted `folded` field is caught too
        let mut msg = PcfMsg {
            f1: Mass::new(0.5, 0.5),
            f2: Mass::zero(1),
            c: 1,
            r: 1,
            folded: Mass::new(f64::NEG_INFINITY, 0.0),
            base: Mass::zero(1),
            inc: 1,
        };
        pcf.on_receive(0, 1, &mut msg);
        assert_eq!(pcf.stats().rejected_messages, 2);
    }

    #[test]
    fn stale_incarnation_messages_are_rejected() {
        let g = bus(2);
        let data = avg_data(2, 17);
        let mut pcf = PushCancelFlow::new(&g, &data);
        // A message leaves node 1, then node 0 excises the arc (e.g. a
        // suspicion) before it arrives: the stale tuple must be fenced off,
        // not interpreted against the fresh incarnation.
        let mut stale = pcf.on_send(1, 0);
        pcf.on_link_failed(0, 1);
        pcf.on_receive(0, 1, &mut stale);
        assert_eq!(pcf.stats().stale_rejected, 1);
        assert!(pcf.flow(0, 1, 1).is_zero());
        assert!(pcf.flow(0, 1, 2).is_zero());
        // Node 0's next message advertises the bumped incarnation; node 1
        // folds its orphaned half (re-cancel) and adopts it.
        let mut fresh = pcf.on_send(0, 1);
        pcf.on_receive(1, 0, &mut fresh);
        assert_eq!(pcf.stats().recancellations, 1);
        assert_eq!(pcf.swap_round(1, 0), 1);
    }

    #[test]
    fn false_suspicion_conserves_mass_both_modes() {
        // A one-sided excision (false suspicion) followed by continued
        // operation: every fold is estimate-invariant and the wire fence
        // re-cancels the peer's half, so total mass never drifts and the
        // run still converges to the exact aggregate.
        for mode in [PhiMode::Eager, PhiMode::Hardened] {
            let g = hypercube(3);
            let data = avg_data(8, 18);
            let reference = data.reference()[0];
            let mut pcf = PushCancelFlow::with_mode(&g, &data, mode);
            let total_v0: f64 = (0..8).map(|i| pcf.estimate_mass(i).value).sum();
            let mut rng = StdRng::seed_from_u64(19);
            for step in 0..1200 {
                if step == 300 {
                    pcf.on_suspect(0, g.neighbors(0)[0]);
                }
                let i: NodeId = rng.random_range(0..8);
                let nbrs = g.neighbors(i);
                let k = nbrs[rng.random_range(0..nbrs.len())];
                let mut msg = pcf.on_send(i, k);
                pcf.on_receive(k, i, &mut msg);
                let total_v: f64 = (0..8).map(|i| pcf.estimate_mass(i).value).sum();
                assert!(
                    (total_v - total_v0).abs() < 1e-9,
                    "{mode:?} step {step}: value drifted to {total_v}"
                );
            }
            assert!(pcf.stats().recancellations >= 1, "{mode:?}");
            let err = max_relative_error(pcf.scalar_estimates(), reference);
            assert!(err < 1e-12, "{mode:?}: err={err}");
        }
    }

    #[test]
    fn restarted_node_counted_exactly_once() {
        // Crash node 3, restart it later: the system must reconverge to
        // the *new* true average — the crashed node's mass gone, its
        // initial value re-contributed exactly once.
        let g = complete(8);
        let data = avg_data(8, 21);
        let plan = FaultPlan::none().crash_node(3, 10).restart_node(3, 30);
        let mut sim = Simulator::new(&g, PushCancelFlow::new(&g, &data), plan, 21);
        sim.run(10); // the crash fires at the start of round 10
        let at_crash = sim.protocol().estimate_mass(3);
        let total_v: f64 = (0..8).map(|i| *data.value(i)).sum();
        let total_w: f64 = (0..8).map(|i| data.weight(i)).sum();
        let expected =
            (total_v - at_crash.value + data.value(3)) / (total_w - at_crash.weight + 1.0);
        sim.run(400);
        let err = max_relative_error(sim.protocol().scalar_estimates(), expected.into());
        assert!(err < 1e-12, "err={err}");
    }

    #[test]
    fn survives_false_suspicions_under_timeout_detector() {
        // Timeout detector + random delay on a fault-free run: suspicions
        // are *all* false here, each one excises an arc, and the stale
        // fence plus re-cancel must keep the aggregate exact through the
        // churn.
        let g = complete(4);
        let data = avg_data(4, 22);
        let reference = data.reference()[0];
        let opts = SimOptions {
            delay: DelayModel::Uniform { min: 0, max: 4 },
            detector: DetectorModel::Timeout { window: 6 },
            ..SimOptions::default()
        };
        let mut sim = Simulator::with_options(
            &g,
            PushCancelFlow::new(&g, &data),
            FaultPlan::none(),
            22,
            opts,
        );
        sim.run(600);
        assert!(sim.stats().suspected > 0, "{:?}", sim.stats());
        assert!(sim.stats().rehabilitated > 0, "{:?}", sim.stats());
        let stats = sim.protocol().stats();
        assert!(stats.stale_rejected > 0, "{stats:?}");
        assert!(stats.recancellations > 0, "{stats:?}");
        let err = max_relative_error(sim.protocol().scalar_estimates(), reference);
        assert!(err < 1e-12, "err={err}");
    }

    #[test]
    #[should_panic(expected = "slot must be 1 or 2")]
    fn bad_flow_slot_panics() {
        let g = bus(2);
        let data = avg_data(2, 15);
        let pcf = PushCancelFlow::new(&g, &data);
        let _ = pcf.flow(0, 1, 3);
    }
}
