//! The push-sum algorithm of Kempe, Dobra & Gehrke (FOCS 2003).
//!
//! The non-fault-tolerant baseline: each node holds a mass `(s_i, w_i)`,
//! initially `(x_i, w_i(0))`; every round it keeps half and sends half to a
//! random neighbor; receivers add what arrives. The estimate `s_i/w_i`
//! converges to `(Σx)/(Σw)` on every connected topology — *as long as
//! total mass is conserved*. Mass conservation is a global property: a
//! single lost message permanently removes mass and biases every node's
//! limit, which is exactly the weakness PF/PCF exist to fix (paper Sec.
//! II-A).

use crate::aggregate::InitialData;
use crate::payload::{Mass, Payload};
use crate::protocol::ReductionProtocol;
use gr_netsim::Protocol;
use gr_topology::{Graph, NodeId};

/// Push-sum protocol state (all nodes).
pub struct PushSum<P: Payload> {
    mass: Vec<Mass<P>>,
    /// Retained initial data, so a restarted node can rejoin with `v_i`
    /// (its dispersed pre-crash mass is unrecoverable — see
    /// [`Protocol::on_restart`]).
    init: Vec<Mass<P>>,
    dim: usize,
    /// Recycled wire buffers, one arena per engine partition (fed by
    /// [`Protocol::reclaim`] / [`Protocol::part_reclaim`]; a single arena
    /// for a single-partition run).
    pools: Vec<Vec<Mass<P>>>,
}

impl<P: Payload> PushSum<P> {
    /// Initialise from per-node data. The graph is accepted for interface
    /// symmetry with the flow-based protocols (push-sum itself keeps no
    /// per-edge state).
    pub fn new(graph: &Graph, init: &InitialData<P>) -> Self {
        assert_eq!(graph.len(), init.len(), "graph/init size mismatch");
        let mass: Vec<Mass<P>> = (0..init.len())
            .map(|i| Mass::new(init.value(i).clone(), init.weight(i)))
            .collect();
        PushSum {
            init: mass.clone(),
            mass,
            dim: init.dim(),
            pools: vec![Vec::new()],
        }
    }

    /// [`Protocol::on_send`] against partition `part`'s wire-buffer arena.
    fn send_impl(&mut self, part: usize, node: NodeId) -> Mass<P> {
        // Recycled buffers are fully overwritten, so the wire bytes are
        // identical to a freshly cloned message.
        let out = self.pools[part].pop();
        let m = &mut self.mass[node as usize];
        m.scale(0.5);
        match out {
            Some(mut buf) => {
                buf.copy_from(m);
                buf
            }
            None => m.clone(),
        }
    }

    /// Current mass of a node (test/inspection hook).
    pub fn mass(&self, node: NodeId) -> &Mass<P> {
        &self.mass[node as usize]
    }

    /// Total mass over all nodes — conserved in a failure-free run,
    /// visibly *not* conserved once messages get lost.
    pub fn total_mass(&self) -> Mass<P> {
        let mut total = Mass::zero(self.dim);
        for m in &self.mass {
            total.add_assign(m);
        }
        total
    }
}

impl<P: Payload> Protocol for PushSum<P> {
    type Msg = Mass<P>;

    // Per-partition arenas: the only non-node-owned state is the wire-
    // buffer pool, kept as one arena per partition. Everything else a
    // hook touches belongs to its `node`/first argument.
    const PARALLEL_SAFE: bool = true;

    fn set_partitions(&mut self, partitions: usize) {
        self.pools.resize_with(partitions, Vec::new);
    }

    fn on_send(&mut self, node: NodeId, _target: NodeId) -> Mass<P> {
        self.send_impl(0, node)
    }

    fn part_send(&mut self, part: usize, node: NodeId, _target: NodeId) -> Mass<P> {
        self.send_impl(part, node)
    }

    fn on_receive(&mut self, node: NodeId, _from: NodeId, msg: &mut Mass<P>) {
        self.mass[node as usize].add_assign(msg);
    }

    fn reclaim(&mut self, msg: Mass<P>) {
        self.pools[0].push(msg);
    }

    fn part_reclaim(&mut self, part: usize, msg: Mass<P>) {
        self.pools[part].push(msg);
    }

    // No `on_link_failed` override: push-sum has no failure handling.
    // Whatever mass was in flight or earmarked is simply gone.

    fn on_restart(&mut self, node: NodeId) {
        // Rejoin with the retained initial mass. Push-sum has no
        // mass-accounting story for the node's *previous* life (that mass
        // is dispersed or destroyed), so like every crash-related event in
        // this baseline the result is a biased limit — the reference
        // algorithms to compare against are the flow family.
        self.mass[node as usize] = self.init[node as usize].clone();
    }
}

impl<P: Payload> ReductionProtocol for PushSum<P> {
    fn node_count(&self) -> usize {
        self.mass.len()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn write_mass(&self, node: NodeId, values: &mut [f64]) -> f64 {
        let m = &self.mass[node as usize];
        values.copy_from_slice(m.value.components());
        m.weight
    }

    fn write_estimate(&self, node: NodeId, out: &mut [f64]) {
        self.mass[node as usize].write_estimate(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateKind;
    use gr_netsim::{FaultPlan, Simulator};
    use gr_numerics::max_relative_error;
    use gr_topology::{complete, hypercube, ring};

    fn avg_data(n: usize) -> InitialData<f64> {
        InitialData::uniform_random(n, AggregateKind::Average, 42)
    }

    #[test]
    fn converges_on_complete_graph() {
        let g = complete(16);
        let data = avg_data(16);
        let reference = data.reference()[0];
        let ps = PushSum::new(&g, &data);
        let mut sim = Simulator::new(&g, ps, FaultPlan::none(), 1);
        sim.run(200);
        let err = max_relative_error(sim.protocol().scalar_estimates(), reference);
        assert!(err < 1e-12, "push-sum did not converge: err={err}");
    }

    #[test]
    fn converges_on_ring() {
        let g = ring(8);
        let data = avg_data(8);
        let reference = data.reference()[0];
        let mut sim = Simulator::new(&g, PushSum::new(&g, &data), FaultPlan::none(), 2);
        sim.run(600);
        let err = max_relative_error(sim.protocol().scalar_estimates(), reference);
        assert!(err < 1e-12, "err={err}");
    }

    #[test]
    fn sum_aggregate_on_hypercube() {
        let g = hypercube(4);
        let data = InitialData::uniform_random(16, AggregateKind::Sum, 7);
        let reference = data.reference()[0];
        let mut sim = Simulator::new(&g, PushSum::new(&g, &data), FaultPlan::none(), 3);
        sim.run(400);
        let err = max_relative_error(sim.protocol().scalar_estimates(), reference);
        assert!(err < 1e-12, "err={err}");
        // and the reference really is the plain sum
        let direct: f64 = (0..16).map(|i| *data.value(i)).sum();
        assert!((reference.to_f64() - direct).abs() < 1e-12);
    }

    #[test]
    fn mass_is_conserved_without_failures() {
        let g = hypercube(3);
        let data = avg_data(8);
        let mut sim = Simulator::new(&g, PushSum::new(&g, &data), FaultPlan::none(), 4);
        for _ in 0..50 {
            sim.step();
            let total = sim.protocol().total_mass();
            assert!((total.weight - 8.0).abs() < 1e-12);
        }
    }

    #[test]
    fn message_loss_destroys_mass_and_biases_result() {
        let g = complete(16);
        let data = avg_data(16);
        let reference = data.reference()[0];
        let mut sim = Simulator::new(&g, PushSum::new(&g, &data), FaultPlan::with_loss(0.2), 5);
        sim.run(300);
        // Mass leaked:
        let total = sim.protocol().total_mass();
        assert!(
            total.weight < 16.0 * 0.9,
            "weight should have leaked: {}",
            total.weight
        );
        // Estimates still agree with each other (consensus) but not with
        // the true aggregate — push-sum converges to the wrong value.
        let ests = sim.protocol().scalar_estimates();
        let spread = ests.iter().cloned().fold(f64::MIN, f64::max)
            - ests.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            spread.abs() < 1e-6,
            "estimates should agree, spread={spread}"
        );
        let err = max_relative_error(ests, reference);
        assert!(err > 1e-8, "lost mass must bias the limit, err={err}");
    }

    #[test]
    fn vector_payload_reduces_componentwise() {
        let g = complete(8);
        let values: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let data = InitialData::with_kind(values, AggregateKind::Average);
        let refs = data.reference();
        let mut sim = Simulator::new(&g, PushSum::new(&g, &data), FaultPlan::none(), 6);
        sim.run(200);
        let mut out = [0.0; 2];
        for i in 0..8 {
            sim.protocol().write_estimate(i, &mut out);
            for k in 0..2 {
                let rel = ((out[k] - refs[k].to_f64()) / refs[k].to_f64()).abs();
                assert!(rel < 1e-12, "node {i} comp {k}: {rel}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn graph_data_mismatch_panics() {
        let g = complete(4);
        let _ = PushSum::new(&g, &avg_data(5));
    }
}
