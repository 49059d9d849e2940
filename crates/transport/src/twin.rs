//! Twin-equivalence harness: the deterministic simulator and a real
//! transport must agree.
//!
//! The claim the transport layer stands on is that netsim is a faithful
//! *deterministic twin* of the real runtime: same `Protocol` code, same
//! wire messages, only the delivery layer swapped. This module turns the
//! claim into a checkable property — run the same lossless PCF reduction
//! (same topology, same initial data) once under the simulator and once
//! over threaded in-memory channels, and require both to land within the
//! convergence tolerance of the true aggregate (and therefore of each
//! other).
//!
//! The two runs are *not* expected to be bitwise identical: thread
//! interleaving replaces the simulator's round schedule, so the execution
//! paths differ by design. What must coincide is the fixed point — PCF
//! converges to the exact average on any connected lossless execution,
//! and the wire bytes of any single exchange are pinned byte-for-byte by
//! the codec goldens in `gr-reduction::wire`.

use crate::cluster::{run_cluster, worst_error, ClusterOptions, ClusterResult};
use crate::error::TransportError;
use crate::mem::mem_cluster;
use gr_netsim::{FaultPlan, Simulator};
use gr_reduction::{AggregateKind, InitialData, PushCancelFlow, ReductionProtocol};
use gr_topology::Graph;

/// Outcome of one twin-equivalence run.
#[derive(Clone, Debug)]
pub struct TwinReport {
    /// True aggregate both runs must reach.
    pub reference: f64,
    /// Tolerance applied (relative error).
    pub tolerance: f64,
    /// Final per-node estimates of the netsim run.
    pub netsim_estimates: Vec<f64>,
    /// Final per-node estimates of the in-memory transport run.
    pub mem_estimates: Vec<f64>,
    /// Worst netsim relative error vs the reference.
    pub netsim_error: f64,
    /// Worst transport relative error vs the reference.
    pub mem_error: f64,
    /// Largest absolute disagreement between the two runs, per node.
    pub divergence: f64,
    /// Full transport-side result (rounds, bytes, mass audit).
    pub mem_result: ClusterResult,
}

impl TwinReport {
    /// Both runs within tolerance of the reference (hence of each other).
    pub fn equivalent(&self) -> bool {
        self.netsim_error <= self.tolerance && self.mem_error <= self.tolerance
    }
}

/// Run the lossless PCF average over `graph` twice — deterministic
/// simulator vs threaded in-memory transport — and report how closely the
/// twins agree. `values[i]` is node `i`'s input; `eps` is the relative
/// convergence tolerance both runs must reach within their round budgets.
pub fn twin_equivalence(
    graph: &Graph,
    values: &[f64],
    seed: u64,
    eps: f64,
    max_rounds: u64,
) -> Result<TwinReport, TransportError> {
    let n = graph.len();
    assert_eq!(values.len(), n, "one initial value per node");
    let reference = values.iter().sum::<f64>() / n as f64;
    let data = InitialData::with_kind(values.to_vec(), AggregateKind::Average);

    // Netsim leg: step in small chunks until every node is within eps.
    let mut sim = Simulator::new(
        graph,
        PushCancelFlow::new(graph, &data),
        FaultPlan::none(),
        seed,
    );
    let scale = reference.abs().max(1e-300);
    let mut netsim_error = f64::INFINITY;
    while sim.round() < max_rounds && netsim_error > eps {
        sim.run(10);
        netsim_error = worst_error(
            (0..n as u32).map(|i| (sim.protocol().scalar_estimate(i) - reference).abs() / scale),
        );
    }
    let netsim_estimates = sim.protocol().scalar_estimates();

    // Transport leg: same protocol type over threads + channels. The
    // inbox capacity is sized so a lossless run never drops.
    let endpoints = mem_cluster(n, 64 * n.max(16))?;
    let opts = ClusterOptions {
        seed,
        target: eps,
        max_rounds,
        ..ClusterOptions::default()
    };
    let mem_result = run_cluster(
        graph,
        endpoints,
        |_| PushCancelFlow::new(graph, &data),
        &[reference],
        &opts,
    )?;
    let mem_estimates: Vec<f64> = mem_result.nodes.iter().map(|r| r.estimate[0]).collect();
    let mem_error = mem_result.max_rel_error;

    let divergence = worst_error(
        netsim_estimates
            .iter()
            .zip(&mem_estimates)
            .map(|(a, b)| (a - b).abs()),
    );
    Ok(TwinReport {
        reference,
        tolerance: eps,
        netsim_estimates,
        mem_estimates,
        netsim_error,
        mem_error,
        divergence,
        mem_result,
    })
}
