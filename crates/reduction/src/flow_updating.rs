//! Flow Updating (FU) — Jesus, Baquero & Almeida, DAIS 2009.
//!
//! The independently-developed flow-based averaging algorithm the paper
//! cites as related work \[7\]. Like PF it derives each node's value from
//! *flows* (`e_i = v_i − Σ_j f_{i,j}`) so mass is never lost; unlike the
//! push-sum family it converges by *local averaging*: a node estimates the
//! average of itself and a neighbor and adjusts the connecting flow so
//! both would report exactly that average.
//!
//! Messages carry absolute state (flow value + estimate), so a lost
//! message merely delays progress and a duplicated one is idempotent.
//! The original formulation broadcasts to all neighbors every tick; this
//! implementation uses the one-partner-per-round variant so it is driven
//! by the same scheduler as the other protocols (fairness of comparison).
//!
//! FU is average-only (it has no weight machinery), and its flows converge
//! to the same execution-independent equilibrium transport values as PF's
//! — meaning it shares PF's cancellation-driven accuracy ceiling, which is
//! the point of including it as a comparator (cf. paper's claim that the
//! weaknesses are "common among all existing fault tolerant distributed
//! reduction algorithms").

use crate::aggregate::InitialData;
use crate::kernels;
use crate::payload::Payload;
use crate::protocol::ReductionProtocol;
use gr_netsim::{Corrupt, Protocol};
use gr_topology::{Graph, NodeId};

/// A flow-updating message: the sender's flow toward the receiver and the
/// sender's current estimate, both absolute state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FuMsg<P> {
    /// `f_{i,j}` as stored at the sender.
    pub flow: P,
    /// The sender's local average estimate.
    pub estimate: P,
}

impl<P: Payload> Corrupt for FuMsg<P> {
    fn corruptible_bits(&self) -> u32 {
        self.flow.corruptible_bits() + self.estimate.corruptible_bits()
    }
    fn flip_bit(&mut self, bit: u32) {
        let fb = self.flow.corruptible_bits();
        if bit < fb {
            self.flow.flip_bit(bit);
        } else {
            self.estimate.flip_bit(bit - fb);
        }
    }
}

/// Flow-updating protocol state (all nodes; per-edge state arc-indexed).
pub struct FlowUpdating<'g, P: Payload> {
    graph: &'g Graph,
    /// Initial values `v_i`.
    init: Vec<P>,
    /// `flows[arc(i,j)] = f_{i,j}`.
    flows: Vec<P>,
    /// Last known estimate of the neighbor across each arc.
    nbr_est: Vec<P>,
    dim: usize,
    /// Recycled wire buffers, one arena per engine partition (fed by
    /// [`Protocol::reclaim`] / [`Protocol::part_reclaim`]).
    pools: Vec<Vec<FuMsg<P>>>,
}

impl<'g, P: Payload> FlowUpdating<'g, P> {
    /// Initialise over `graph`. Flow updating computes the *average*, so
    /// the initial data must carry unit weights.
    ///
    /// # Panics
    /// Panics if any weight differs from 1 (FU cannot express other
    /// aggregates) or sizes mismatch.
    pub fn new(graph: &'g Graph, init: &InitialData<P>) -> Self {
        assert_eq!(graph.len(), init.len(), "graph/init size mismatch");
        assert!(
            (0..init.len()).all(|i| init.weight(i) == 1.0),
            "flow updating is average-only (unit weights required)"
        );
        let dim = init.dim();
        let values: Vec<P> = (0..init.len()).map(|i| init.value(i).clone()).collect();
        // Neighbor estimates start at the neighbor's *initial* value? The
        // node cannot know it; FU initialises them to zero and lets the
        // first exchange overwrite.
        let arcs = graph.arc_count();
        FlowUpdating {
            graph,
            init: values,
            flows: vec![P::zeros(dim); arcs],
            nbr_est: vec![P::zeros(dim); arcs],
            dim,
            pools: vec![Vec::new()],
        }
    }

    /// The flow variable `f_{i,j}` (inspection hook).
    pub fn flow(&self, i: NodeId, j: NodeId) -> &P {
        &self.flows[self.graph.arc(i, j).expect("not an edge")]
    }

    /// `e_i = v_i − Σ_j f_{i,j}` (into a fresh buffer; see `write_live`).
    pub fn estimate_value(&self, i: NodeId) -> P {
        let mut e = P::zeros(self.dim);
        self.write_live(i, e.components_mut());
        e
    }

    /// Write `e_i = v_i − Σ_j f_{i,j}` into `values` (plain f64
    /// arithmetic, like PF) — the one definition of the estimate, shared
    /// by the oracle side (`write_estimate`, `write_mass`, straight into
    /// the caller's slice) and the send side. FU's weights are all 1, so
    /// there is no weight to return.
    #[inline]
    fn write_live(&self, i: NodeId, values: &mut [f64]) {
        values.copy_from_slice(self.init[i as usize].components());
        let base = self.graph.arc_base(i);
        for slot in 0..self.graph.degree(i) {
            kernels::sub(values, self.flows[base + slot].components());
        }
    }

    /// Replace node `i`'s local input value mid-run (live monitoring —
    /// the original motivation of flow updating's flow-derived state).
    pub fn set_local_value(&mut self, i: NodeId, value: P) {
        assert_eq!(value.dim(), self.dim, "payload dimension mismatch");
        self.init[i as usize] = value;
    }

    /// Largest flow magnitude (shares PF's growth behaviour).
    pub fn max_flow_magnitude(&self) -> f64 {
        self.flows
            .iter()
            .flat_map(|f| f.components().iter().copied())
            .fold(0.0f64, |a, c| a.max(c.abs()))
    }
}

impl<'g, P: Payload> FlowUpdating<'g, P> {
    /// [`Protocol::on_send`] against partition `part`'s arenas.
    fn send_impl(&mut self, part: usize, node: NodeId, target: NodeId) -> FuMsg<P> {
        // Pairwise flow update: compute the average `a` of my estimate and
        // my belief about the target's, then set the flow so that my value
        // becomes exactly `a` and (by antisymmetry) the target's would too.
        let idx = self.graph.arc(node, target).expect("send on a non-edge");
        let dim = self.dim;
        let mut msg = self.pools[part].pop().unwrap_or_else(|| FuMsg {
            flow: P::zeros(dim),
            estimate: P::zeros(dim),
        });
        // The recycled buffer's `flow` holds e_i and its `estimate` the
        // average a, so the hot path never allocates whatever the payload
        // dimension; `flow` is overwritten with the flow at the end.
        let (e, a) = (&mut msg.flow, &mut msg.estimate);
        self.write_live(node, e.components_mut());
        // a = (e + nbr_est)/2
        a.copy_from_components(e.components());
        a.add_assign(&self.nbr_est[idx]);
        a.scale(0.5);
        // f += e − a  (moves my estimate to a); e is dead after this, so
        // its buffer doubles as the delta.
        e.sub_assign(a);
        self.flows[idx].add_assign(e);
        self.nbr_est[idx].copy_from_components(a.components());
        e.copy_from_components(self.flows[idx].components());
        msg
    }
}

impl<'g, P: Payload> Protocol for FlowUpdating<'g, P> {
    type Msg = FuMsg<P>;

    // A send touches the sending node's arc range plus partition-indexed
    // arenas; a receive swaps state on the receiving node's mirror arc.
    // Failure hooks touch only the first argument's arcs.
    const PARALLEL_SAFE: bool = true;

    fn set_partitions(&mut self, partitions: usize) {
        self.pools.resize_with(partitions, Vec::new);
    }

    fn on_send(&mut self, node: NodeId, target: NodeId) -> FuMsg<P> {
        self.send_impl(0, node, target)
    }

    fn part_send(&mut self, part: usize, node: NodeId, target: NodeId) -> FuMsg<P> {
        self.send_impl(part, node, target)
    }

    fn on_receive(&mut self, node: NodeId, from: NodeId, msg: &mut FuMsg<P>) {
        let idx = self.graph.arc(node, from).expect("message on a non-edge");
        // Steal the payloads in place of copying them: the buffer slot is
        // dead after this call (see the `Protocol` docs).
        msg.flow.negate();
        std::mem::swap(&mut self.flows[idx], &mut msg.flow);
        std::mem::swap(&mut self.nbr_est[idx], &mut msg.estimate);
    }

    fn reclaim(&mut self, msg: FuMsg<P>) {
        self.pools[0].push(msg);
    }

    fn part_reclaim(&mut self, part: usize, msg: FuMsg<P>) {
        self.pools[part].push(msg);
    }

    fn on_link_failed(&mut self, node: NodeId, neighbor: NodeId) {
        let idx = self
            .graph
            .arc(node, neighbor)
            .expect("failure on a non-edge");
        self.flows[idx] = P::zeros(self.dim);
        self.nbr_est[idx] = P::zeros(self.dim);
    }

    fn on_restart(&mut self, node: NodeId) {
        // Rejoin with zeroed per-edge state: the estimate reverts to the
        // retained `v_i`. Peers reset their mirrors through
        // `on_neighbor_restarted` (default: the link-failure handling), so
        // every edge restarts pairwise-conserved.
        let base = self.graph.arc_base(node);
        for slot in 0..self.graph.degree(node) {
            self.flows[base + slot] = P::zeros(self.dim);
            self.nbr_est[base + slot] = P::zeros(self.dim);
        }
    }
}

impl<'g, P: Payload> ReductionProtocol for FlowUpdating<'g, P> {
    fn node_count(&self) -> usize {
        self.init.len()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn write_mass(&self, node: NodeId, values: &mut [f64]) -> f64 {
        self.write_live(node, values);
        1.0
    }

    fn write_estimate(&self, node: NodeId, out: &mut [f64]) {
        self.write_live(node, out);
    }

    fn write_flow(&self, i: NodeId, j: NodeId, values: &mut [f64]) -> Option<f64> {
        values.copy_from_slice(self.flow(i, j).components());
        // FU transports no weight (averaging with fixed unit weights), so
        // the flow's weight component is identically zero.
        Some(0.0)
    }

    fn max_flow(&self) -> Option<f64> {
        Some(self.max_flow_magnitude())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateKind;
    use gr_netsim::{FaultPlan, Simulator};
    use gr_numerics::max_relative_error;
    use gr_topology::{bus, complete, hypercube, ring};

    fn avg_data(n: usize, seed: u64) -> InitialData<f64> {
        InitialData::uniform_random(n, AggregateKind::Average, seed)
    }

    #[test]
    fn converges_on_complete_graph() {
        let g = complete(16);
        let data = avg_data(16, 1);
        let mut sim = Simulator::new(&g, FlowUpdating::new(&g, &data), FaultPlan::none(), 1);
        // FU converges noticeably slower than push-sum on dense graphs
        // (each pairwise update only moves toward a possibly stale local
        // average), so give it room.
        sim.run(4000);
        let err = max_relative_error(sim.protocol().scalar_estimates(), data.reference()[0]);
        assert!(err < 1e-12, "err={err}");
    }

    #[test]
    fn converges_on_ring_and_hypercube() {
        let g = ring(10);
        let data = avg_data(10, 2);
        let mut sim = Simulator::new(&g, FlowUpdating::new(&g, &data), FaultPlan::none(), 2);
        sim.run(2000);
        let err = max_relative_error(sim.protocol().scalar_estimates(), data.reference()[0]);
        assert!(err < 1e-12, "ring err={err}");

        let h = hypercube(5);
        let data = avg_data(32, 3);
        let mut sim = Simulator::new(&h, FlowUpdating::new(&h, &data), FaultPlan::none(), 3);
        sim.run(1500);
        let err = max_relative_error(sim.protocol().scalar_estimates(), data.reference()[0]);
        assert!(err < 1e-12, "hypercube err={err}");
    }

    #[test]
    fn tolerates_heavy_message_loss() {
        let g = complete(12);
        let data = avg_data(12, 4);
        let mut sim = Simulator::new(
            &g,
            FlowUpdating::new(&g, &data),
            FaultPlan::with_loss(0.4),
            4,
        );
        sim.run(2000);
        let err = max_relative_error(sim.protocol().scalar_estimates(), data.reference()[0]);
        assert!(err < 1e-10, "err={err}");
    }

    #[test]
    fn mass_conserved_sequentially() {
        use rand::prelude::*;
        let g = hypercube(3);
        let data = avg_data(8, 5);
        let mut fu = FlowUpdating::new(&g, &data);
        let total0: f64 = (0..8).map(|i| fu.estimate_value(i)).sum();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..300 {
            let i: NodeId = rng.random_range(0..8);
            let nbrs = g.neighbors(i);
            let k = nbrs[rng.random_range(0..nbrs.len())];
            let mut msg = fu.on_send(i, k);
            fu.on_receive(k, i, &mut msg);
            let total: f64 = (0..8).map(|i| fu.estimate_value(i)).sum();
            assert!((total - total0).abs() < 1e-10, "mass drifted: {total}");
        }
    }

    #[test]
    fn bus_flows_grow_with_n_like_pf() {
        // FU shares PF's structural accuracy hazard: equilibrium flows on
        // the bus case are the O(n) transport values.
        let n = 24;
        let g = bus(n);
        let data = InitialData::bus_case(n);
        let mut sim = Simulator::new(&g, FlowUpdating::new(&g, &data), FaultPlan::none(), 7);
        sim.run(30_000);
        let err = max_relative_error(sim.protocol().scalar_estimates(), data.reference()[0]);
        assert!(err < 1e-9, "not converged: {err}");
        assert!(
            sim.protocol().max_flow_magnitude() > (n / 2) as f64,
            "FU flows should carry the O(n) transport"
        );
    }

    #[test]
    #[should_panic(expected = "average-only")]
    fn sum_weights_rejected() {
        let g = bus(3);
        let data = InitialData::with_kind(vec![1.0, 2.0, 3.0], AggregateKind::Sum);
        let _ = FlowUpdating::new(&g, &data);
    }
}
