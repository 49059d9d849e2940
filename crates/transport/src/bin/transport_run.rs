//! `transport-run`: execute a PCF average over a real transport backend.
//!
//! ```text
//! transport-run [--backend mem|udp] [--hc 6] [--dim 1] [--seed 42]
//!               [--target 1e-9] [--max-rounds 10000] [--capacity 4096]
//!               [--wall-limit-ms 30000] [--json]
//!               [--chaos] [--chaos-drop P] [--chaos-burst-enter P]
//!               [--chaos-burst-exit P] [--chaos-burst-loss P]
//!               [--chaos-dup P] [--chaos-corrupt P] [--chaos-delay P]
//!               [--chaos-delay-ops K] [--cut-from OP --cut-until OP]
//!               [--churn K] [--churn-at R] [--churn-down-ms MS]
//!               [--detector-window W]
//! ```
//!
//! Builds a `2^hc`-node hypercube, gives node `i` the initial value `i`
//! (replicated across `dim` components for vector payloads), runs
//! Push-Cancel-Flow to the target relative accuracy over the chosen
//! backend, and reports wall-clock convergence time, per-node rounds and
//! bytes-on-wire. `--json` emits the machine-readable report used for the
//! committed `TRANSPORT_BASELINE.json` example artifact.
//!
//! `--chaos` wraps every endpoint in a seeded [`ChaosDelivery`] (default
//! rates give a survivable beating; override any rate individually — the
//! individual flags also work without `--chaos`). `--cut-from/--cut-until`
//! scripts a partition of the low half of the nodes over that chaos-clock
//! window. `--churn K` kills nodes `1..=K` mid-run and restarts them with
//! purged state after `--churn-down-ms`; recovery is driven by the driver
//! timeout detectors (`--detector-window`) plus PCF's incarnation fences,
//! and convergence is judged by estimate spread + the self-consistency
//! audit, since killed mass makes the prior reference void.

use gr_experiments::{ConfigError, Opts};
use gr_netsim::{BurstModel, Delivery};
use gr_reduction::{AggregateKind, InitialData, Payload, PushCancelFlow};
use gr_topology::{hypercube, Graph, NodeId};
use gr_transport::{
    mem_cluster, run_cluster, udp_cluster, validate_datagram, worst_case_pcf, ChaosCut,
    ChaosDelivery, ChaosPlan, ClusterOptions, ClusterResult, TransportError, WireInstrumented,
};
use std::time::Duration;

const BIN: &str = "transport-run";

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

fn run_payload<P: Payload + Sync>(
    backend: &str,
    graph: &Graph,
    dim: usize,
    opts: &ClusterOptions,
    capacity: usize,
    chaos: Option<&ChaosPlan>,
) -> Result<ClusterResult, TransportError> {
    let n = graph.len();
    let values: Vec<P> = (0..n)
        .map(|i| P::from_components(&vec![i as f64; dim]))
        .collect();
    let reference = vec![(n - 1) as f64 / 2.0; dim];
    let data = InitialData::with_kind(values, AggregateKind::Average);
    let make = |node| {
        let _ = node;
        PushCancelFlow::new(graph, &data)
    };
    // Monomorphization-friendly dispatch: each backend runs either bare or
    // wrapped, so the chaos layer costs nothing when it is off.
    fn launch<Pr, D>(
        graph: &Graph,
        eps: Vec<D>,
        make: impl Fn(NodeId) -> Pr + Sync,
        reference: &[f64],
        opts: &ClusterOptions,
        chaos: Option<&ChaosPlan>,
    ) -> Result<ClusterResult, TransportError>
    where
        Pr: gr_reduction::ReductionProtocol + Send,
        Pr::Msg: Send,
        D: Delivery<Pr::Msg, Error = TransportError> + Send + WireInstrumented,
    {
        match chaos {
            Some(plan) => {
                let wrapped: Vec<_> = eps
                    .into_iter()
                    .enumerate()
                    .map(|(i, ep)| ChaosDelivery::new(ep, i as NodeId, plan))
                    .collect();
                run_cluster(graph, wrapped, make, reference, opts)
            }
            None => run_cluster(graph, eps, make, reference, opts),
        }
    }
    Ok(match backend {
        "mem" => launch(
            graph,
            mem_cluster(n, capacity)?,
            make,
            &reference,
            opts,
            chaos,
        )?,
        "udp" => {
            validate_datagram(&worst_case_pcf::<P>(dim))?;
            launch(graph, udp_cluster(n)?, make, &reference, opts, chaos)?
        }
        other => {
            ConfigError::invalid("backend", format!("must be mem or udp, got {other:?}")).exit(BIN)
        }
    })
}

fn main() {
    let o = Opts::from_env();
    let backend = o.string("backend", "mem");
    let hc = o.u64("hc", 6) as u32;
    let dim = o.u64("dim", 1) as usize;
    let seed = o.u64("seed", 42);
    let target = o.f64("target", 1e-9);
    let max_rounds = o.u64("max-rounds", 10_000);
    let capacity = o.u64("capacity", 4096) as usize;
    let wall_limit_ms = o.u64("wall-limit-ms", 30_000);
    let json = o.bool("json", false);
    // Chaos: `--chaos` turns on a default beating; individual rates can
    // be set with or without it (any nonzero rate/cut enables the layer).
    let chaos_on = o.bool("chaos", false);
    let drop = o.f64("chaos-drop", if chaos_on { 0.05 } else { 0.0 });
    let burst = BurstModel {
        enter: o.f64("chaos-burst-enter", if chaos_on { 0.02 } else { 0.0 }),
        exit: o.f64("chaos-burst-exit", 0.25),
        loss: o.f64("chaos-burst-loss", 0.9),
    };
    let duplicate = o.f64("chaos-dup", if chaos_on { 0.02 } else { 0.0 });
    let corrupt = o.f64("chaos-corrupt", 0.0);
    let delay = o.f64("chaos-delay", if chaos_on { 0.05 } else { 0.0 });
    let delay_ops = o.u64("chaos-delay-ops", 8);
    let cut_from = o.u64("cut-from", 0);
    let cut_until = o.u64("cut-until", 0);
    // Churn: kill nodes 1..=K (staggered), restart after the dark window.
    let churn = o.u64("churn", 0);
    let churn_at = o.u64("churn-at", 300);
    let churn_down_ms = o.u64("churn-down-ms", 300);
    let detector_window = o.u64("detector-window", if churn > 0 { 200 } else { 0 });
    o.finish().unwrap_or_else(|e| e.exit(BIN));

    if dim == 0 {
        ConfigError::invalid("dim", "must be at least 1").exit(BIN);
    }
    let graph = hypercube(hc);
    let n = graph.len();
    let mut plan = ChaosPlan {
        drop,
        burst: (burst.enter > 0.0).then_some(burst),
        duplicate,
        corrupt,
        delay,
        delay_ops,
        ..ChaosPlan::none(seed)
    };
    if cut_until > cut_from {
        // Partition the low half of the hypercube over the given window.
        plan.cuts.push(ChaosCut {
            members: (0..(n / 2) as NodeId).collect(),
            from_op: cut_from,
            until_op: cut_until,
        });
    }
    if let Err(e) = plan.check_rates().and(burst.validate()) {
        eprintln!("transport-run: --chaos-*: {e}");
        std::process::exit(2);
    }
    let plan = (!plan.is_passthrough()).then_some(plan);
    if churn as usize >= n {
        let reason = format!("{churn} must leave node 0 and a victim in a {n}-node cluster");
        ConfigError::invalid("churn", reason).exit(BIN);
    }
    let opts = ClusterOptions {
        seed,
        target,
        max_rounds,
        wall_limit: Duration::from_millis(wall_limit_ms),
        churn: (1..=churn as NodeId)
            .map(|i| gr_transport::ChurnEvent {
                node: i,
                at_round: churn_at + 25 * u64::from(i - 1),
                down_for: Duration::from_millis(churn_down_ms),
            })
            .collect(),
        detector_window: (detector_window > 0).then_some(detector_window),
    };
    let outcome = if dim == 1 {
        run_payload::<f64>(&backend, &graph, dim, &opts, capacity, plan.as_ref())
    } else {
        run_payload::<Vec<f64>>(&backend, &graph, dim, &opts, capacity, plan.as_ref())
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
        seed,
        target,
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
