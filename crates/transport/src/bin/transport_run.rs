//! `transport-run`: execute a PCF average over a real transport backend.
//!
//! ```text
//! transport-run [--backend mem|udp] [--hc 6] [--dim 1] [--json]
//!               [--chaos] [--churn K]
//! ```
//!
//! Builds a `2^hc`-node hypercube, gives node `i` the initial value `i`
//! (replicated across `dim` components for vector payloads), runs
//! Push-Cancel-Flow to relative accuracy 1e-9 over the chosen backend
//! (seed 42, 4096-frame mem inboxes, a 30 s wall limit), and reports
//! wall-clock convergence time, per-node rounds and bytes-on-wire.
//! `--json` emits the machine-readable report used for the committed
//! `TRANSPORT_BASELINE.json` example artifact.
//!
//! Every endpoint is wrapped in a seeded [`ChaosDelivery`]. Without
//! `--chaos` its plan is [`ChaosPlan::none`], a byte-exact passthrough
//! (pinned by `tests/chaos_passthrough.rs`); `--chaos` gives the
//! survivable beating of [`chaos_plan`]. `--churn K` kills nodes `1..=K`
//! mid-run (from round 300, staggered) and restarts them with purged
//! state after 300 ms dark; recovery is driven by the driver timeout
//! detectors (window 200) plus PCF's incarnation fences, and convergence
//! is judged by estimate spread + the self-consistency audit, since
//! killed mass makes the prior reference void. Churn runs get a
//! 2,000,000-round budget instead of 10,000: peers keep iterating while a
//! victim is dark.

use gr_experiments::{ConfigError, Opts};
use gr_netsim::BurstModel;
use gr_reduction::{AggregateKind, InitialData, Payload, PushCancelFlow};
use gr_topology::{hypercube, Graph, NodeId};
use gr_transport::{
    mem_cluster, run_cluster, udp_cluster, validate_datagram, worst_case_pcf, ChaosDelivery,
    ChaosPlan, ChurnEvent, ClusterOptions, ClusterResult, TransportError,
};
use std::time::Duration;

const BIN: &str = "transport-run";
/// Master seed for the schedule, the chaos streams and the report.
const SEED: u64 = 42;
/// Target relative accuracy.
const TARGET: f64 = 1e-9;

/// The plan every endpoint runs under: the passthrough without `--chaos`,
/// with it 5% i.i.d. drop, Gilbert–Elliott bursts (enter 0.02, exit 0.25,
/// loss 0.9), 5% of frames held back 8 ops, 2% duplicated, none
/// corrupted and no partition.
fn chaos_plan(chaos: bool) -> ChaosPlan {
    if !chaos {
        return ChaosPlan::none(SEED);
    }
    ChaosPlan {
        drop: 0.05,
        burst: Some(BurstModel {
            enter: 0.02,
            exit: 0.25,
            loss: 0.9,
        }),
        duplicate: 0.02,
        delay: 0.05,
        delay_ops: 8,
        ..ChaosPlan::none(SEED)
    }
}

#[derive(serde::Serialize)]
struct Report {
    backend: String,
    nodes: usize,
    dim: usize,
    seed: u64,
    target: f64,
    /// Mean bytes per frame on the wire: `bytes_sent_total` over the
    /// frames sent.
    frame_bytes: f64,
    converged: bool,
    wall_ms: f64,
    rounds_min: u64,
    rounds_mean: f64,
    rounds_max: u64,
    bytes_sent_total: u64,
    bytes_sent_per_node_mean: f64,
    dropped_total: u64,
    /// Frames the chaos layer deliberately dropped (0 when chaos off).
    drops: u64,
    /// Extra copies injected by chaos duplication (0 when chaos off).
    duplicates: u64,
    /// Frames the chaos layer bit-flipped (0 when chaos off).
    corrupted: u64,
    /// Churn kills performed (0 when churn off).
    churn_events: u64,
    /// Restarts completed before the cluster stopped (0 when churn off).
    recovered: u64,
    max_rel_error: f64,
    self_consistency: f64,
    mass_weight: f64,
}

/// Wrap node `i`'s endpoint in a [`ChaosDelivery`] under `plan`.
fn wrap<D, M>(eps: Vec<D>, plan: &ChaosPlan) -> Vec<ChaosDelivery<D, M>> {
    eps.into_iter()
        .enumerate()
        .map(|(i, ep)| ChaosDelivery::new(ep, i as NodeId, plan))
        .collect()
}

fn run_payload<P: Payload + Sync>(
    backend: &str,
    graph: &Graph,
    dim: usize,
    opts: &ClusterOptions,
    plan: &ChaosPlan,
) -> Result<ClusterResult, TransportError> {
    let n = graph.len();
    let values: Vec<P> = (0..n)
        .map(|i| P::from_components(&vec![i as f64; dim]))
        .collect();
    let reference = vec![(n - 1) as f64 / 2.0; dim];
    let data = InitialData::with_kind(values, AggregateKind::Average);
    let make = |_| PushCancelFlow::new(graph, &data);
    match backend {
        "mem" => {
            let eps = wrap(mem_cluster(n, 4096)?, plan);
            run_cluster(graph, eps, make, &reference, opts)
        }
        "udp" => {
            validate_datagram(&worst_case_pcf::<P>(dim))?;
            run_cluster(graph, wrap(udp_cluster(n)?, plan), make, &reference, opts)
        }
        other => {
            ConfigError::invalid("backend", format!("must be mem or udp, got {other:?}")).exit(BIN)
        }
    }
}

fn main() {
    let o = Opts::from_env();
    let backend = o.string("backend", "mem");
    let hc = o.u64("hc", 6) as u32;
    let dim = o.u64("dim", 1) as usize;
    let json = o.bool("json", false);
    let chaos = o.bool("chaos", false);
    // Churn: kill nodes 1..=K (staggered), restart after the dark window.
    let churn = o.u64("churn", 0);
    o.finish().unwrap_or_else(|e| e.exit(BIN));

    if dim == 0 {
        ConfigError::invalid("dim", "must be at least 1").exit(BIN);
    }
    let graph = hypercube(hc);
    let n = graph.len();
    if churn as usize >= n {
        let reason = format!("{churn} must leave node 0 and a victim in a {n}-node cluster");
        ConfigError::invalid("churn", reason).exit(BIN);
    }
    let plan = chaos_plan(chaos);
    let opts = ClusterOptions {
        seed: SEED,
        target: TARGET,
        // Peers keep iterating while a churn victim is dark.
        max_rounds: if churn > 0 { 2_000_000 } else { 10_000 },
        wall_limit: Duration::from_secs(30),
        churn: (1..=churn as NodeId)
            .map(|i| ChurnEvent {
                node: i,
                at_round: 300 + 25 * u64::from(i - 1),
                down_for: Duration::from_millis(300),
            })
            .collect(),
        detector_window: (churn > 0).then_some(200),
    };
    let outcome = if dim == 1 {
        run_payload::<f64>(&backend, &graph, dim, &opts, &plan)
    } else {
        run_payload::<Vec<f64>>(&backend, &graph, dim, &opts, &plan)
    };
    let result = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("transport-run failed: {e}");
            std::process::exit(1);
        }
    };

    let report = Report {
        backend: backend.clone(),
        nodes: n,
        dim,
        seed: SEED,
        target: TARGET,
        frame_bytes: result.bytes_sent_total as f64 / result.frames_sent_total.max(1) as f64,
        converged: result.converged,
        wall_ms: result.wall_ms,
        rounds_min: result.rounds_min,
        rounds_mean: result.rounds_mean,
        rounds_max: result.rounds_max,
        bytes_sent_total: result.bytes_sent_total,
        bytes_sent_per_node_mean: result.bytes_sent_total as f64 / n as f64,
        dropped_total: result.dropped_total,
        drops: result.nodes.iter().map(|r| r.chaos_drops).sum(),
        duplicates: result.nodes.iter().map(|r| r.chaos_dups).sum(),
        corrupted: result.nodes.iter().map(|r| r.chaos_corrupt).sum(),
        churn_events: result.churn_events,
        recovered: result.recovered,
        max_rel_error: result.max_rel_error,
        self_consistency: result.self_consistency,
        mass_weight: result.mass_weight,
    };
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&serde_json::to_value(&report).unwrap()).unwrap()
        );
    } else {
        println!(
            "transport-run: backend={} nodes={} dim={} seed={} frame={:.1}B",
            report.backend, report.nodes, report.dim, report.seed, report.frame_bytes
        );
        println!(
            "{} in {:.2} ms wall (max rel error {:.3e}, target {:.0e})",
            if report.converged {
                "converged"
            } else {
                "did NOT converge"
            },
            report.wall_ms,
            report.max_rel_error,
            report.target
        );
        println!(
            "rounds per node: min {} / mean {:.1} / max {}",
            report.rounds_min, report.rounds_mean, report.rounds_max
        );
        println!(
            "bytes-on-wire: {} total, {:.0} per node mean, {} sends dropped",
            report.bytes_sent_total, report.bytes_sent_per_node_mean, report.dropped_total
        );
        if report.drops + report.duplicates + report.corrupted + report.churn_events > 0 {
            println!(
                "chaos: {} dropped, {} duplicated, {} corrupted; churn: {} kills, {} recovered (self-consistency {:.3e})",
                report.drops,
                report.duplicates,
                report.corrupted,
                report.churn_events,
                report.recovered,
                report.self_consistency
            );
        }
    }
    if !report.converged {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_reduction::Mass;

    /// The always-wrap design rests on these: chaos off is the verified
    /// passthrough, and the `--chaos` preset is a valid plan that does
    /// alter traffic, without a partition.
    #[test]
    fn chaos_off_is_a_passthrough_and_the_preset_is_valid() {
        assert!(chaos_plan(false).is_passthrough());
        let preset = chaos_plan(true);
        assert!(!preset.is_passthrough());
        assert!(preset.cuts.is_empty());
        // `ChaosDelivery::new` panics on an invalid plan.
        let eps = mem_cluster::<Mass<f64>>(2, 1).unwrap();
        let wrapped: Vec<ChaosDelivery<_, Mass<f64>>> = wrap(eps, &preset);
        assert_eq!(wrapped.len(), 2);
    }
}
