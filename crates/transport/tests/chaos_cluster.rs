//! The ISSUE's acceptance scenario: a seeded chaos run — correlated burst
//! loss, one scripted partition with heal, one node kill/restart — over
//! the threads backend converges, and the post-quiescence audit passes.
//!
//! Nothing here is an oracle: peers learn of the kill only through their
//! own timeout detectors, the restarted node resynchronises through PCF's
//! wire-carried incarnation numbers, and convergence is judged by the
//! estimate spread plus the self-consistency audit (the killed mass makes
//! the original reference void, by design).

use gr_netsim::BurstModel;
use gr_reduction::{AggregateKind, InitialData, PushCancelFlow};
use gr_topology::{hypercube, NodeId};
use gr_transport::{
    mem_cluster, run_cluster, udp_cluster, ChaosCut, ChaosDelivery, ChaosPlan, ChurnEvent,
    ClusterOptions, ClusterResult, TransportConfigError, TransportError,
};
use std::time::Duration;

fn chaos_scenario(seed: u64) -> Result<ClusterResult, TransportError> {
    let graph = hypercube(4);
    let n = graph.len();
    let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let reference = (n - 1) as f64 / 2.0;
    let data = InitialData::with_kind(values, AggregateKind::Average);
    let plan = ChaosPlan {
        drop: 0.02,
        burst: Some(BurstModel {
            enter: 0.02,
            exit: 0.3,
            loss: 0.9,
        }),
        cuts: vec![ChaosCut {
            // The low half of the hypercube goes dark to the high half
            // mid-run, then heals.
            members: (0..(n / 2) as NodeId).collect(),
            from_op: 300,
            until_op: 900,
        }],
        ..ChaosPlan::none(seed)
    };
    let endpoints: Vec<_> = mem_cluster(n, 64 * n)?
        .into_iter()
        .enumerate()
        .map(|(i, ep)| ChaosDelivery::new(ep, i as NodeId, &plan))
        .collect();
    let opts = ClusterOptions {
        seed,
        target: 1e-9,
        // Peers keep iterating while the victim is dark, so the round
        // budget must dwarf (dark time) / (step time).
        max_rounds: 5_000_000,
        wall_limit: Duration::from_secs(15),
        churn: vec![ChurnEvent {
            node: 3,
            at_round: 150,
            down_for: Duration::from_millis(120),
        }],
        detector_window: Some(60),
    };
    run_cluster(
        &graph,
        endpoints,
        |_| PushCancelFlow::new(&graph, &data),
        &[reference],
        &opts,
    )
}

#[test]
fn chaos_scenario_converges_and_audits_clean() {
    let result = chaos_scenario(1234).unwrap();
    assert!(
        result.converged,
        "chaos scenario did not converge (self-consistency {:.3e})",
        result.self_consistency
    );
    assert_eq!(result.churn_events, 1);
    assert_eq!(result.recovered, 1);
    let victim = &result.nodes[3];
    assert_eq!((victim.kills, victim.restarts), (1, 1));
    assert!(
        victim.mass_lost[0] != 0.0,
        "the killed incarnation held mass"
    );
    // The burst chain and/or cut actually fired.
    let chaos_drops: u64 = result.nodes.iter().map(|r| r.chaos_drops).sum();
    assert!(chaos_drops > 0, "chaos plan never dropped a frame");
    // Somebody's detector noticed the dark node (or a cut-silenced
    // neighbor) — recovery was genuinely detector-driven.
    let suspected: u64 = result.nodes.iter().map(|r| r.suspected).sum();
    assert!(suspected > 0, "no detector ever fired");
    // Post-quiescence audit: the cluster agrees with the aggregate its
    // own surviving mass defines.
    assert!(
        result.self_consistency <= 1e-6,
        "self-consistency audit failed: {:.3e}",
        result.self_consistency
    );
    // Killed mass is gone for good: the surviving weight is below n.
    assert!(result.mass_weight < 16.0 + 1e-9);
}

/// The scenario is stable under its seed: the same script converges with
/// a clean audit again. (Thread interleaving differs run to run; the
/// injected-fault process and the outcome do not.)
#[test]
fn chaos_scenario_is_reproducible() {
    let a = chaos_scenario(77).unwrap();
    let b = chaos_scenario(77).unwrap();
    for r in [&a, &b] {
        assert!(r.converged);
        assert_eq!((r.churn_events, r.recovered), (1, 1));
        assert!(r.self_consistency <= 1e-6);
    }
}

/// UDP churn smoke: kill and restart a node over real loopback sockets,
/// inside a 5-second budget. Skips where the sandbox cannot bind.
#[test]
fn udp_churn_smoke() {
    let graph = hypercube(3);
    let n = graph.len();
    let endpoints = match udp_cluster(n) {
        Ok(eps) => eps,
        Err(TransportConfigError::PortBind { addr, detail }) => {
            eprintln!("skipping UDP churn smoke: cannot bind {addr}: {detail}");
            return;
        }
        Err(e) => panic!("unexpected config error: {e}"),
    };
    let values: Vec<f64> = (0..n).map(|i| 2.0 * i as f64 - 3.0).collect();
    let reference = values.iter().sum::<f64>() / n as f64;
    let data = InitialData::with_kind(values, AggregateKind::Average);
    let opts = ClusterOptions {
        seed: 9,
        target: 1e-7,
        max_rounds: 5_000_000,
        wall_limit: Duration::from_secs(3),
        churn: vec![ChurnEvent {
            node: 1,
            at_round: 100,
            down_for: Duration::from_millis(80),
        }],
        detector_window: Some(50),
    };
    let start = std::time::Instant::now();
    let result = run_cluster(
        &graph,
        endpoints,
        |_| PushCancelFlow::new(&graph, &data),
        &[reference],
        &opts,
    )
    .unwrap();
    assert!(
        start.elapsed() <= Duration::from_secs(5),
        "churn smoke exceeded its 5s budget: {:?}",
        start.elapsed()
    );
    assert!(
        result.converged,
        "UDP churn run did not converge (self-consistency {:.3e})",
        result.self_consistency
    );
    assert_eq!((result.churn_events, result.recovered), (1, 1));
    assert!(
        result.self_consistency <= 1e-5,
        "self-consistency audit failed: {:.3e}",
        result.self_consistency
    );
}
