//! Gossip fairness on degree-skewed topologies, observed through the
//! simulator's event trace: a node's incoming load is the number of
//! `Delivered` events addressed to it.
//!
//! Uniform partner choice is fair *per sender* but not per receiver: a
//! node's expected incoming traffic is `Σ_{j∈N} 1/deg(j)`, so hubs of a
//! scale-free network receive far more than leaf-ish nodes — the
//! structural reason degree-asymmetric topologies starve push gossip
//! (see `gr-spectral`'s starvation notes).

use gr_netsim::{Event, FaultPlan, Simulator, Trace};
use gr_reduction::{AggregateKind, InitialData, PushCancelFlow, ReductionProtocol};
use gr_topology::{barabasi_albert, hypercube};

/// Trace capacity: above the ~192k (hc5) and ~384k (BA-64) send and
/// delivery events of 3000 rounds, so no event is evicted.
const TRACE_CAPACITY: usize = 1 << 19;

/// Delivered messages per receiving node, counted from a complete trace.
fn incoming_loads(trace: &Trace, n: usize) -> Vec<u64> {
    assert_eq!(trace.dropped(), 0, "the trace must hold every event");
    let mut loads = vec![0u64; n];
    for e in trace.events() {
        if let Event::Delivered { dst, .. } = *e {
            loads[dst as usize] += 1;
        }
    }
    loads
}

#[test]
fn regular_topologies_balance_incoming_load() {
    let g = hypercube(5);
    let data = InitialData::uniform_random(32, AggregateKind::Average, 1);
    let mut sim = Simulator::new(&g, PushCancelFlow::new(&g, &data), FaultPlan::none(), 1);
    sim.enable_trace(TRACE_CAPACITY);
    sim.run(3000);
    let loads = incoming_loads(sim.trace().unwrap(), 32);
    let min = *loads.iter().min().unwrap() as f64;
    let max = *loads.iter().max().unwrap() as f64;
    assert!(
        max / min < 1.35,
        "regular graph should balance receive load: {min}..{max}"
    );
}

#[test]
fn scale_free_topologies_overload_hubs() {
    let g = barabasi_albert(64, 2, 7);
    let data = InitialData::uniform_random(64, AggregateKind::Average, 2);
    let mut sim = Simulator::new(&g, PushCancelFlow::new(&g, &data), FaultPlan::none(), 2);
    sim.enable_trace(TRACE_CAPACITY);
    sim.run(3000);
    let loads = incoming_loads(sim.trace().unwrap(), 64);
    let hub = (0..64).max_by_key(|&i| g.degree(i)).unwrap();
    let leaf = (0..64).min_by_key(|&i| g.degree(i)).unwrap();
    let (h, l) = (loads[hub as usize], loads[leaf as usize]);
    assert!(
        h as f64 > 3.0 * l as f64,
        "hub (deg {}) should receive far more than a leaf (deg {}): {h} vs {l}",
        g.degree(hub),
        g.degree(leaf)
    );
    // ... and despite the skew, the reduction still converges.
    let reference = data.reference()[0];
    let worst = sim
        .protocol()
        .scalar_estimates()
        .iter()
        .map(|e| ((e - reference.to_f64()) / reference.to_f64()).abs())
        .fold(0.0f64, f64::max);
    assert!(worst < 1e-7, "PCF should converge on BA graphs: {worst:e}");
}
