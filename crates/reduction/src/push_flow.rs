//! The push-flow (PF) algorithm (paper Fig. 1; Gansterer et al. 2011/12).
//!
//! PF makes push-sum fault tolerant by replacing mass transfers with graph
//! flows: node `i` keeps, per neighbor `j`, a flow variable `f_{i,j}` —
//! "what has (net) flowed from me to `j`" — and its live data is derived,
//! never transferred: `e_i = v_i − Σ_j f_{i,j}`. A send updates the local
//! flow and transmits the *entire* flow variable; the receiver overwrites
//! its mirror with the negation (`f_{j,i} = −f_{i,j}`). Flow conservation
//! (`f_{i,j} + f_{j,i} = 0`) is a *local* pairwise property, and it implies
//! global mass conservation — so a lost or corrupted message is healed by
//! the next successful exchange on that edge, with no detection logic.
//!
//! The price, analysed in paper Sec. II and fixed by
//! [`crate::PushCancelFlow`]: flow variables converge to execution-
//! dependent values that can exceed the aggregate by orders of magnitude
//! (on the bus case they grow linearly in `n`), so (a) the subtraction
//! `v_i − Σf` loses up to `log₂(max|f|/|e|)` bits to cancellation, and
//! (b) zeroing flows on permanent-failure handling perturbs estimates by
//! `O(max|f|)` — effectively restarting the computation.

use crate::aggregate::InitialData;
use crate::bank::{self, FlowBank};
use crate::payload::{divide_by_weight, Mass, Payload};
use crate::protocol::ReductionProtocol;
use gr_netsim::Protocol;
use gr_topology::{Graph, NodeId};

/// Push-flow protocol state (all nodes; flows arc-indexed).
///
/// Flow *values* live in a structure-of-arrays flow bank (one
/// contiguous, cache-line-aligned `f64` slab over all arcs); flow *weights*
/// stay in a plain arc-indexed array. Both are indexed by
/// [`Graph::arc`].
pub struct PushFlow<'g, P: Payload> {
    graph: &'g Graph,
    /// Immutable initial data `v_i = (x_i, w_i)`.
    init: Vec<Mass<P>>,
    /// Value components of `f_{i, neighbors(i)[slot]}` at arc
    /// `arc_base(i) + slot` (single-field bank).
    bank: FlowBank,
    /// Weight of the flow at each arc.
    flow_w: Vec<f64>,
    /// Optional plausibility bound on incoming flows (see
    /// [`PushFlow::with_guard`]).
    guard: Option<f64>,
    /// Compensated estimate summation (see
    /// [`PushFlow::with_compensated_estimates`]).
    compensated: bool,
    dim: usize,
    /// Recycled wire buffers, one arena per engine partition (fed by
    /// [`Protocol::reclaim`] / [`Protocol::part_reclaim`]).
    pools: Vec<Vec<Mass<P>>>,
}

/// The bank's single field: the flow value vector.
const FLOW: usize = 0;

impl<'g, P: Payload> PushFlow<'g, P> {
    /// Initialise over `graph` with the given data.
    pub fn new(graph: &'g Graph, init: &InitialData<P>) -> Self {
        assert_eq!(graph.len(), init.len(), "graph/init size mismatch");
        let dim = init.dim();
        let init_mass: Vec<Mass<P>> = (0..init.len())
            .map(|i| Mass::new(init.value(i).clone(), init.weight(i)))
            .collect();
        let arcs = graph.arc_count();
        PushFlow {
            graph,
            init: init_mass,
            bank: FlowBank::new(arcs, 1, dim),
            flow_w: vec![0.0; arcs],
            guard: None,
            compensated: false,
            dim,
            pools: vec![Vec::new()],
        }
    }

    /// Compute estimates with Neumaier-compensated summation over the
    /// flows instead of plain left-to-right subtraction.
    ///
    /// This is an *ablation hook* for a specific sentence of the paper
    /// (Sec. II-B): "Even if the sum of flows is stored in a single
    /// variable (for efficiency reasons) the updates of this variable will
    /// still lead to inaccurate results due to the linearly growing flow
    /// variables." Compensation removes the *read-side* cancellation in
    /// `v − Σf`, but the *write-side* rounding — `f += e/2` rounds at
    /// `ε·|f|`, and with `|f| = O(n·aggregate)` that error is baked into
    /// the flow values themselves — remains. The
    /// `ablation_compensated_pf` experiment quantifies how far this gets
    /// (part of the way to PCF, never all the way).
    pub fn with_compensated_estimates(mut self) -> Self {
        self.compensated = true;
        self
    }

    /// Enable the magnitude guard: any received flow with a non-finite
    /// component or one exceeding `bound` in magnitude is rejected as
    /// corrupted (recovered like a lost message). The paper's bit-flip
    /// tolerance is theoretical — in f64, an exponent-bit flip turns a
    /// flow into ~1e±300 and its rounding shadow (~|poison|·ε) permanently
    /// destroys precision even after the flow itself heals. Legitimate
    /// flows are bounded by the total transported mass, so a loose bound
    /// (say 1e6× the initial data scale) costs nothing and converts the
    /// one unsurvivable soft-error class into an ordinary message drop.
    pub fn with_guard(mut self, bound: f64) -> Self {
        assert!(bound > 0.0 && bound.is_finite(), "guard must be positive");
        self.guard = Some(bound);
        self
    }

    fn msg_plausible(guard: Option<f64>, m: &Mass<P>) -> bool {
        match guard {
            None => true,
            Some(b) => {
                m.weight.is_finite()
                    && m.weight.abs() <= b
                    && m.value
                        .components()
                        .iter()
                        .all(|c| c.is_finite() && c.abs() <= b)
            }
        }
    }

    /// The flow variable `f_{i,j}` (test/inspection hook; materialises a
    /// `Mass` from the flow bank).
    pub fn flow(&self, i: NodeId, j: NodeId) -> Mass<P> {
        let idx = self.graph.arc(i, j).expect("not an edge");
        Mass::new(
            P::from_components(self.bank.slice(idx, FLOW)),
            self.flow_w[idx],
        )
    }

    /// Live data `e_i = v_i − Σ_j f_{i,j}` (into a fresh buffer; see
    /// `write_live`).
    pub fn estimate_mass(&self, i: NodeId) -> Mass<P> {
        let mut e = Mass::<P>::zero(self.dim);
        e.weight = self.write_live(i, e.value.components_mut());
        e
    }

    /// Write the value components of `e_i = v_i − Σ_j f_{i,j}` into
    /// `values` and return its weight — the one definition of the
    /// estimate, shared by the oracle side (`write_estimate`,
    /// `write_mass`, straight into the caller's slice) and the send side
    /// (into the recycled wire buffer). By default in plain f64
    /// arithmetic — the summation order is the neighbor order,
    /// *deliberately* uncompensated (the cancellation here is the
    /// phenomenon under study); with
    /// [`with_compensated_estimates`](Self::with_compensated_estimates)
    /// each component is accumulated with a Neumaier sum.
    #[inline]
    fn write_live(&self, i: NodeId, values: &mut [f64]) -> f64 {
        let init = &self.init[i as usize];
        let base = self.graph.arc_base(i);
        let deg = self.graph.degree(i);
        if !self.compensated {
            // Fused slice kernel over the node's contiguous arc rows
            // (single-field bank ⇒ one run) — same per-component
            // subtractions in the same order as a per-slot loop.
            values.copy_from_slice(init.value.components());
            bank::sub_rows(values, self.bank.arc_rows(base, deg));
            let mut weight = init.weight;
            for slot in 0..deg {
                weight -= self.flow_w[base + slot];
            }
            return weight;
        }
        // Compensated path: componentwise Neumaier accumulation.
        let comps = init.value.components();
        for (k, out) in values.iter_mut().enumerate() {
            let mut acc = gr_numerics::CompensatedSum::new();
            acc.add(comps[k]);
            for slot in 0..deg {
                acc.add(-self.bank.slice(base + slot, FLOW)[k]);
            }
            *out = acc.value();
        }
        let mut wacc = gr_numerics::CompensatedSum::new();
        wacc.add(init.weight);
        for slot in 0..deg {
            wacc.add(-self.flow_w[base + slot]);
        }
        wacc.value()
    }

    /// Replace node `i`'s local input value mid-run (live monitoring, cf.
    /// LiMoSense): because the live data is *derived* (`e = v − Σf`), an
    /// input change simply moves the node's estimate by the delta and the
    /// gossip re-converges to the new global aggregate — no restart, no
    /// coordination. (Push-sum cannot do this: its initial mass is already
    /// dispersed.)
    pub fn set_local_value(&mut self, i: NodeId, value: P) {
        assert_eq!(value.dim(), self.dim, "payload dimension mismatch");
        self.init[i as usize].value = value;
    }

    /// Largest flow magnitude in the system (diagnostic: PF's accuracy
    /// problem is `max|f| ≫ |aggregate|`).
    pub fn max_flow_magnitude(&self) -> f64 {
        (0..self.graph.arc_count())
            .flat_map(|arc| self.bank.slice(arc, FLOW).iter().copied())
            .fold(0.0f64, |a, c| a.max(c.abs()))
    }
}

impl<'g, P: Payload> PushFlow<'g, P> {
    /// [`Protocol::on_send`] against partition `part`'s arenas.
    fn send_impl(&mut self, part: usize, node: NodeId, target: NodeId) -> Mass<P> {
        // Fig. 1 lines 8–11: e_i = v_i − Σf; f_{i,k} += e_i/2; send f_{i,k}.
        // A recycled wire buffer holds e_i/2 until the flow is updated,
        // then the flow itself (every field overwritten), so the hot path
        // never allocates whatever the payload dimension.
        let mut msg = self.pools[part]
            .pop()
            .unwrap_or_else(|| Mass::zero(self.dim));
        msg.weight = self.write_live(node, msg.value.components_mut());
        msg.scale(0.5);
        let idx = self.graph.arc(node, target).expect("send on a non-edge");
        bank::add(self.bank.slice_mut(idx, FLOW), msg.value.components());
        self.flow_w[idx] += msg.weight;
        msg.value.copy_from_components(self.bank.slice(idx, FLOW));
        msg.weight = self.flow_w[idx];
        msg
    }
}

impl<'g, P: Payload> Protocol for PushFlow<'g, P> {
    type Msg = Mass<P>;

    // A send touches the sending node's own arc rows / flow weights plus
    // its partition's wire-buffer pool; a
    // receive touches the receiving node's mirror arc. Failure hooks
    // touch only the first argument's arcs.
    const PARALLEL_SAFE: bool = true;

    fn set_partitions(&mut self, partitions: usize) {
        self.pools.resize_with(partitions, Vec::new);
    }

    fn on_send(&mut self, node: NodeId, target: NodeId) -> Mass<P> {
        self.send_impl(0, node, target)
    }

    fn part_send(&mut self, part: usize, node: NodeId, target: NodeId) -> Mass<P> {
        self.send_impl(part, node, target)
    }

    fn on_receive(&mut self, node: NodeId, from: NodeId, msg: &mut Mass<P>) {
        if !Self::msg_plausible(self.guard, msg) {
            return; // corrupted beyond plausibility: treat as lost
        }
        // Fig. 1 line 6: f_{i,j} ← −f_{j,i}. Overwrite semantics: whatever
        // our mirror held (possibly corrupted) is discarded — this is the
        // self-healing step. The wire buffer itself goes back to the pool
        // through `reclaim`.
        let idx = self.graph.arc(node, from).expect("message on a non-edge");
        bank::store_neg(self.bank.slice_mut(idx, FLOW), msg.value.components());
        self.flow_w[idx] = -msg.weight;
    }

    fn reclaim(&mut self, msg: Mass<P>) {
        self.pools[0].push(msg);
    }

    fn part_reclaim(&mut self, part: usize, msg: Mass<P>) {
        self.pools[part].push(msg);
    }

    fn on_link_failed(&mut self, node: NodeId, neighbor: NodeId) {
        // Permanent-failure handling: zero the flow, algorithmically
        // excluding the dead link (paper Sec. II-C). This is exactly the
        // step whose impact PCF bounds.
        let idx = self
            .graph
            .arc(node, neighbor)
            .expect("failure on a non-edge");
        self.bank.fill_zero(idx, FLOW);
        self.flow_w[idx] = 0.0;
    }

    fn on_restart(&mut self, node: NodeId) {
        // Rejoin with zeroed flows: the estimate reverts to the retained
        // `v_i`, contributing the node's initial mass exactly once.
        // Surviving peers zero their mirrors via `on_neighbor_restarted`
        // (default: the link-failure excision), which keeps every flow
        // pair conserved — at the usual PF price of an O(max|f|) estimate
        // perturbation on both sides.
        let base = self.graph.arc_base(node);
        for slot in 0..self.graph.degree(node) {
            self.bank.fill_zero(base + slot, FLOW);
            self.flow_w[base + slot] = 0.0;
        }
    }
}

impl<'g, P: Payload> ReductionProtocol for PushFlow<'g, P> {
    fn node_count(&self) -> usize {
        self.init.len()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn write_mass(&self, node: NodeId, values: &mut [f64]) -> f64 {
        self.write_live(node, values)
    }

    fn write_estimate(&self, node: NodeId, out: &mut [f64]) {
        let weight = self.write_live(node, out);
        divide_by_weight(out, weight);
    }

    fn write_flow(&self, i: NodeId, j: NodeId, values: &mut [f64]) -> Option<f64> {
        let idx = self.graph.arc(i, j).expect("not an edge");
        values.copy_from_slice(self.bank.slice(idx, FLOW));
        Some(self.flow_w[idx])
    }

    fn max_flow(&self) -> Option<f64> {
        Some(self.max_flow_magnitude())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateKind;
    use gr_netsim::{FaultPlan, Schedule, Simulator};
    use gr_numerics::{max_relative_error, RelErr};
    use gr_topology::{bus, complete, hypercube, ring};
    use rand::prelude::*;

    fn avg_data(n: usize, seed: u64) -> InitialData<f64> {
        InitialData::uniform_random(n, AggregateKind::Average, seed)
    }

    #[test]
    fn converges_on_complete_graph() {
        let g = complete(16);
        let data = avg_data(16, 1);
        let reference = data.reference()[0];
        let mut sim = Simulator::new(&g, PushFlow::new(&g, &data), FaultPlan::none(), 1);
        sim.run(300);
        let err = max_relative_error(sim.protocol().scalar_estimates(), reference);
        assert!(err < 1e-12, "err={err}");
    }

    #[test]
    fn trait_flow_accessors_report_antisymmetry() {
        // Asynchronous activation: exchanges are atomic, so fault-free
        // rounds leave every edge exactly antisymmetric. (Synchronous
        // rounds can leave crossing exchanges mid-flight.)
        let g = ring(8);
        let data = avg_data(8, 11);
        let opts = gr_netsim::SimOptions {
            activation: gr_netsim::Activation::Asynchronous,
            ..Default::default()
        };
        let mut sim =
            Simulator::with_options(&g, PushFlow::new(&g, &data), FaultPlan::none(), 7, opts);
        sim.run(50);
        let p = sim.protocol();
        let (mut fij, mut fji) = ([0.0], [0.0]);
        for i in 0..8u32 {
            for j in g.neighbors(i).to_vec() {
                let wij = ReductionProtocol::write_flow(p, i, j, &mut fij).unwrap();
                let wji = ReductionProtocol::write_flow(p, j, i, &mut fji).unwrap();
                // Fault-free rounds are completed exchanges: f_ij == −f_ji.
                assert_eq!(fij[0], -fji[0], "edge ({i},{j})");
                assert_eq!(wij, -wji, "edge ({i},{j}) weight");
            }
        }
        assert!(ReductionProtocol::max_flow(p).unwrap() > 0.0);
    }

    #[test]
    fn converges_on_hypercube_sum() {
        let g = hypercube(5);
        let data = InitialData::uniform_random(32, AggregateKind::Sum, 3);
        let reference = data.reference()[0];
        let mut sim = Simulator::new(&g, PushFlow::new(&g, &data), FaultPlan::none(), 2);
        sim.run(800);
        let err = max_relative_error(sim.protocol().scalar_estimates(), reference);
        assert!(err < 1e-10, "err={err}");
    }

    /// Drive one complete sequential exchange `i → k` (send immediately
    /// delivered). With no crossing messages, flow conservation holds on
    /// every edge after every exchange.
    fn exchange(pf: &mut PushFlow<'_, f64>, i: NodeId, k: NodeId) {
        let mut msg = pf.on_send(i, k);
        pf.on_receive(k, i, &mut msg);
    }

    #[test]
    fn flow_conservation_after_each_sequential_exchange() {
        let g = ring(10);
        let data = avg_data(10, 4);
        let mut pf = PushFlow::new(&g, &data);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..500 {
            let i: NodeId = rng.random_range(0..10);
            let nbrs = g.neighbors(i);
            let k = nbrs[rng.random_range(0..nbrs.len())];
            exchange(&mut pf, i, k);
            for (a, b) in g.edges() {
                assert!(
                    pf.flow(a, b).is_neg_of(&pf.flow(b, a)),
                    "edge ({a},{b}) unconserved after exchange {i}->{k}"
                );
            }
        }
    }

    #[test]
    fn mass_conservation_sequential() {
        // Flow conservation implies mass conservation: Σ_i e_i stays at
        // its initial value (up to f64 rounding) after every completed
        // exchange.
        let g = hypercube(3);
        let data = avg_data(8, 5);
        let mut pf = PushFlow::new(&g, &data);
        let total_v0: f64 = (0..8).map(|i| pf.estimate_mass(i).value).sum();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..400 {
            let i: NodeId = rng.random_range(0..8);
            let nbrs = g.neighbors(i);
            let k = nbrs[rng.random_range(0..nbrs.len())];
            exchange(&mut pf, i, k);
            let total_w: f64 = (0..8).map(|i| pf.estimate_mass(i).weight).sum();
            let total_v: f64 = (0..8).map(|i| pf.estimate_mass(i).value).sum();
            assert!((total_w - 8.0).abs() < 1e-10, "weight drifted: {total_w}");
            assert!(
                (total_v - total_v0).abs() < 1e-10,
                "value drifted: {total_v}"
            );
        }
    }

    #[test]
    fn bus_flows_grow_linearly_as_in_paper_fig2() {
        // Paper Fig. 2: v₁ = n+1, vᵢ = 1 ⇒ the equilibrium *transport*
        // across edge (i−1, i) is n−i+1 (1-indexed) while every estimate is
        // 2. The live weighted algorithm superimposes an O(estimate)
        // circulation on that transport, so we assert the flows match the
        // schematic within a small constant, and exactly exhibit the
        // linear-in-n growth that causes PF's cancellation problem.
        let n = 16;
        let g = bus(n);
        let data = InitialData::bus_case(n);
        let mut sim = Simulator::with_schedule(
            &g,
            PushFlow::new(&g, &data),
            FaultPlan::none(),
            0,
            Schedule::round_robin(n),
        );
        sim.run(20_000);
        let pf = sim.protocol();
        let reference = data.reference()[0];
        let err = max_relative_error(pf.scalar_estimates(), reference);
        assert!(err < 1e-9, "bus not converged: {err}");
        for i in 2..=n {
            // 1-indexed paper notation -> 0-indexed ids
            let (a, b) = ((i - 2) as NodeId, (i - 1) as NodeId);
            let expect = (n - i + 1) as f64;
            let f = pf.flow(a, b).value;
            assert!(
                (f - expect).abs() <= 3.0,
                "edge ({a},{b}): flow {f}, schematic value {expect}"
            );
        }
        // Flows grow with n while the aggregate stays 2 — the cancellation
        // hazard the paper analyses.
        assert!(pf.max_flow_magnitude() >= (n - 3) as f64);
    }

    #[test]
    fn recovers_from_message_loss() {
        let g = complete(16);
        let data = avg_data(16, 6);
        let reference = data.reference()[0];
        let mut sim = Simulator::new(&g, PushFlow::new(&g, &data), FaultPlan::with_loss(0.2), 5);
        sim.run(600);
        let err = max_relative_error(sim.protocol().scalar_estimates(), reference);
        assert!(err < 1e-10, "PF must converge through 20% loss, err={err}");
    }

    #[test]
    fn recovers_from_bounded_corruption() {
        // The self-healing claim in practice: corrupt one flow variable by
        // a *bounded* amount (sign flip — the worst mantissa-or-sign-class
        // soft error). The next exchanges overwrite the corrupt state and
        // convergence resumes to full accuracy.
        let g = complete(16);
        let data = avg_data(16, 7);
        let reference = data.reference()[0];
        let mut sim = Simulator::new(&g, PushFlow::new(&g, &data), FaultPlan::none(), 7);
        sim.run(50);
        {
            let pf = sim.protocol_mut();
            let idx = pf.graph.arc(0, 1).unwrap();
            let f = &mut pf.bank.slice_mut(idx, FLOW)[0];
            *f = -*f; // sign flip
        }
        sim.run(500);
        let err = max_relative_error(sim.protocol().scalar_estimates(), reference);
        assert!(err < 1e-12, "PF must heal a sign-flipped flow, err={err}");
    }

    #[test]
    fn exponent_corruption_is_fatal_in_floating_point() {
        // The paper's practical critique (Sec. I/II): PF's bit-flip
        // tolerance is a *theoretical* property. A high-exponent-bit flip
        // turns a flow into ~1e30; the poisoned mass circulates through
        // v − Σf subtractions whose rounding error (~1e30·ε ≈ 1e14) then
        // dwarfs the true aggregate forever. PF never recovers the lost
        // precision.
        let g = complete(16);
        let data = avg_data(16, 7);
        let reference = data.reference()[0];
        let mut sim = Simulator::new(&g, PushFlow::new(&g, &data), FaultPlan::none(), 7);
        sim.run(50);
        {
            let pf = sim.protocol_mut();
            let idx = pf.graph.arc(0, 1).unwrap();
            pf.bank.slice_mut(idx, FLOW)[0] = 1e30;
        }
        sim.run(2000);
        let err = max_relative_error(sim.protocol().scalar_estimates(), reference);
        assert!(
            err > 1e6,
            "expected permanent precision loss after exponent corruption, err={err}"
        );
    }

    #[test]
    fn link_failure_causes_convergence_fallback() {
        // Paper Sec. II-C / Fig. 4: handling a permanent link failure late
        // in the run throws PF almost back to the start. Spike data makes
        // the transported flows large, so the excision is unmistakable
        // (the figure harness reproduces the paper's exact uniform-data
        // curves; this test pins the qualitative mechanism).
        let g = hypercube(6);
        let data = InitialData::spike(64);
        let reference = data.reference()[0];
        let seed = 9;

        // The failure lands late enough (round 150) that the run is well
        // past its slow transient, so the pre/post gap is unambiguous.
        let plan = FaultPlan::none().fail_link(0, 1, 150);
        let mut faulty = Simulator::new(&g, PushFlow::new(&g, &data), plan, seed);
        faulty.run(149);
        let pre_err = RelErr::of(faulty.protocol().scalar_estimates(), reference).max;
        faulty.run(2);
        let post_err = RelErr::of(faulty.protocol().scalar_estimates(), reference).max;

        assert!(
            post_err > pre_err * 1e2,
            "failure handling should throw PF back: pre={pre_err:e}, post={post_err:e}"
        );
        // ... but PF still re-converges eventually (fault tolerant, just slow).
        faulty.run(1000);
        let final_err = RelErr::of(faulty.protocol().scalar_estimates(), reference).max;
        assert!(final_err < 1e-10, "PF should reconverge, err={final_err}");
    }

    #[test]
    fn isolated_node_keeps_its_own_estimate() {
        // After its only link dies, a bus endpoint reverts to its initial
        // value (flows zeroed) and stays there.
        let g = bus(3);
        let data = InitialData::with_kind(vec![10.0, 1.0, 1.0], AggregateKind::Average);
        let plan = FaultPlan::none().fail_link(0, 1, 5);
        let mut sim = Simulator::new(&g, PushFlow::new(&g, &data), plan, 10);
        sim.run(300);
        let pf = sim.protocol();
        assert_eq!(pf.scalar_estimate(0), 10.0);
        // survivors converge to the average of their own data: (1+1)/2 = 1
        // ... plus whatever mass had already flowed to/from node 0 before
        // the cut; after zeroing flows, nodes 1,2 hold exactly their v_i
        // minus remaining mutual flows, which converge to avg of (1,1) = 1
        // only if no mass was exchanged with node 0. With the cut at round
        // 5 some mass did move, so just check consensus between 1 and 2.
        let (e1, e2) = (pf.scalar_estimate(1), pf.scalar_estimate(2));
        assert!(
            (e1 - e2).abs() < 1e-9,
            "survivors should agree: {e1} vs {e2}"
        );
    }

    #[test]
    fn compensated_estimates_match_plain_when_benign() {
        // On well-scaled flows the compensated and plain paths agree to
        // rounding; the difference only matters when flows dwarf the
        // estimate (the ablation_compensated_pf experiment).
        let g = hypercube(3);
        let data = avg_data(8, 30);
        let mut plain = PushFlow::new(&g, &data);
        let mut comp = PushFlow::new(&g, &data).with_compensated_estimates();
        let mut rng = StdRng::seed_from_u64(30);
        for _ in 0..200 {
            let i: NodeId = rng.random_range(0..8);
            let nbrs = g.neighbors(i);
            let k = nbrs[rng.random_range(0..nbrs.len())];
            let mut m1 = plain.on_send(i, k);
            plain.on_receive(k, i, &mut m1);
            let mut m2 = comp.on_send(i, k);
            comp.on_receive(k, i, &mut m2);
        }
        for i in 0..8 {
            let a = plain.scalar_estimate(i);
            let b = comp.scalar_estimate(i);
            assert!(
                (a - b).abs() <= 1e-10 * a.abs().max(1.0),
                "node {i}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn guard_rejects_implausible_flows() {
        let g = bus(2);
        let data = avg_data(2, 31);
        let mut pf = PushFlow::new(&g, &data).with_guard(100.0);
        // plausible message accepted
        pf.on_receive(0, 1, &mut Mass::new(3.0, 1.0));
        assert_eq!(pf.flow(0, 1).value, -3.0);
        // huge (exponent-flipped) message rejected: state unchanged
        pf.on_receive(0, 1, &mut Mass::new(1e30, 1.0));
        assert_eq!(pf.flow(0, 1).value, -3.0);
        // non-finite rejected too
        pf.on_receive(0, 1, &mut Mass::new(f64::NAN, 1.0));
        assert_eq!(pf.flow(0, 1).value, -3.0);
        pf.on_receive(0, 1, &mut Mass::new(1.0, f64::INFINITY));
        assert_eq!(pf.flow(0, 1).value, -3.0);
    }

    #[test]
    fn guarded_pf_survives_exponent_corruption() {
        // The counterpart to `exponent_corruption_is_fatal_in_floating_point`:
        // with the guard, the poison never enters and the run converges.
        let g = complete(16);
        let data = avg_data(16, 7);
        let reference = data.reference()[0];
        let mut sim = Simulator::new(
            &g,
            PushFlow::new(&g, &data).with_guard(1e6),
            FaultPlan::with_bit_flips(0.01),
            7,
        );
        sim.run(600);
        sim.set_fault_plan(FaultPlan::none());
        sim.run(600);
        let err = max_relative_error(sim.protocol().scalar_estimates(), reference);
        assert!(err < 1e-9, "guarded PF should recover, err={err}");
    }

    #[test]
    #[should_panic(expected = "guard must be positive")]
    fn invalid_guard_rejected() {
        let g = bus(2);
        let data = avg_data(2, 32);
        let _ = PushFlow::new(&g, &data).with_guard(-1.0);
    }

    #[test]
    #[should_panic(expected = "non-edge")]
    fn receive_from_non_neighbor_panics() {
        let g = bus(3);
        let data = avg_data(3, 0);
        let mut pf = PushFlow::new(&g, &data);
        pf.on_receive(0, 2, &mut Mass::new(1.0, 1.0));
    }
}
