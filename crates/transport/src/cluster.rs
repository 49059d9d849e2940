//! Threaded cluster orchestration: one OS thread per node, each running a
//! [`NodeDriver`] against its own transport endpoint.
//!
//! The execution structure mirrors a real deployment: nodes step
//! independently (no global round barrier), a monitor watches published
//! per-node error levels and raises a stop flag at convergence, and a
//! settle phase drains in-flight messages before state is collected —
//! which is what makes the post-run mass-conservation check meaningful
//! (flow antisymmetry across node instances only holds once every sent
//! message was either delivered or counted as dropped).
//!
//! Everything protocol-side is the unmodified simulator code: the same
//! `Protocol` impl the deterministic twin runs, built per node and driven
//! only for that node's id.

use crate::error::{TransportConfigError, TransportError};
use crate::mem::MemDelivery;
use crate::udp::UdpDelivery;
use crate::WireStats;
use gr_netsim::Delivery;
use gr_reduction::{DriverStats, NodeDriver, ReductionProtocol};
use gr_topology::{Graph, NodeId};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One scripted node-churn event: kill a live node thread mid-run (its
/// protocol state is discarded — fail-stop), keep it dark for a wall-clock
/// interval, then restart it with purged state (fresh protocol instance
/// from `make_proto`, fresh driver, re-armed detector). The transport
/// endpoint survives — the "machine" keeps its address; only the process
/// on it dies.
///
/// Recovery is genuinely distributed: nobody tells the peers. Their
/// timeout detectors must suspect the silent node (excising its edges and
/// bumping incarnations), and the restarted node resynchronises through
/// the incarnation numbers carried on the wire. For the mass audit to
/// come out clean, `down_for` must comfortably exceed the detector window
/// — a restart that beats the suspicion leaves peers holding flow toward
/// a node that no longer remembers it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChurnEvent {
    /// The node to kill.
    pub node: NodeId,
    /// Kill when the node's own iteration count (cumulative across its
    /// incarnations) reaches this.
    pub at_round: u64,
    /// How long the node stays dark before restarting.
    pub down_for: Duration,
}

/// Knobs for a threaded cluster run.
#[derive(Clone, Debug)]
pub struct ClusterOptions {
    /// Master seed for the per-node partner-pick RNGs.
    pub seed: u64,
    /// Convergence target: stop once every node's relative error against
    /// the reference aggregate is below this. With churn scheduled the
    /// reference is void (killed mass is gone), so the monitor instead
    /// requires the relative *spread* of node estimates below this after
    /// every churn event has completed.
    pub target: f64,
    /// Per-node iteration budget (a node that reaches it stops stepping
    /// and waits in the settle phase).
    pub max_rounds: u64,
    /// Hard wall-clock ceiling for the stepping phase.
    pub wall_limit: Duration,
    /// Scripted node kills/restarts, any order (empty: no churn).
    pub churn: Vec<ChurnEvent>,
    /// Arm each driver's timeout failure detector with this silence
    /// window (in own iterations). Required for churn runs to pass the
    /// mass audit; useful alone under chaos drops.
    pub detector_window: Option<u64>,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            seed: 42,
            target: 1e-9,
            max_rounds: 10_000,
            wall_limit: Duration::from_secs(30),
            churn: Vec::new(),
            detector_window: None,
        }
    }
}

/// Per-node outcome of a cluster run.
#[derive(Clone, Debug, serde::Serialize)]
pub struct NodeReport {
    /// Node id.
    pub node: NodeId,
    /// Iterations this node executed.
    pub rounds: u64,
    /// Messages this node pushed into the transport.
    pub sent: u64,
    /// Messages this node received and processed.
    pub delivered: u64,
    /// Bytes this node put on the wire.
    pub bytes_sent: u64,
    /// Bytes this node took off the wire.
    pub bytes_recv: u64,
    /// Sends lost to backpressure.
    pub dropped: u64,
    /// Frames the chaos layer deliberately dropped at this node's egress
    /// (zero on unwrapped backends).
    pub chaos_drops: u64,
    /// Extra copies the chaos layer injected at this node's egress.
    pub chaos_dups: u64,
    /// Frames the chaos layer bit-flipped at this node's egress.
    pub chaos_corrupt: u64,
    /// Neighbors this node's timeout detector suspected (all
    /// incarnations).
    pub suspected: u64,
    /// Suspected neighbors re-admitted after proving alive.
    pub rehabilitated: u64,
    /// Times this node was killed by churn.
    pub kills: u64,
    /// Times it restarted with purged state.
    pub restarts: u64,
    /// Mass (componentwise) held by incarnations at the moment they were
    /// killed — destroyed, informational for the audit.
    pub mass_lost: Vec<f64>,
    /// Final estimate, componentwise.
    pub estimate: Vec<f64>,
}

/// Aggregate outcome of a cluster run.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ClusterResult {
    /// Whether every node reached the target accuracy.
    pub converged: bool,
    /// Wall-clock milliseconds from launch to convergence (or to the stop
    /// decision if the run did not converge).
    pub wall_ms: f64,
    /// Fewest iterations any node ran.
    pub rounds_min: u64,
    /// Mean iterations per node.
    pub rounds_mean: f64,
    /// Most iterations any node ran.
    pub rounds_max: u64,
    /// Total bytes put on the wire across nodes.
    pub bytes_sent_total: u64,
    /// Total frames put on the wire across nodes (sends the chaos layer
    /// dropped or backpressure lost never reach it).
    pub frames_sent_total: u64,
    /// Total sends lost to backpressure across nodes.
    pub dropped_total: u64,
    /// Worst final per-node relative error against the reference. Under
    /// churn the reference is void — read [`Self::self_consistency`]
    /// instead.
    pub max_rel_error: f64,
    /// Componentwise sum of all node masses after settling.
    pub mass_value: Vec<f64>,
    /// Sum of all node mass weights after settling.
    pub mass_weight: f64,
    /// Post-quiescence audit that survives churn: worst per-node relative
    /// deviation of the final estimate from `mass_value / mass_weight` —
    /// the aggregate the *surviving* mass actually defines. Small iff the
    /// cluster agrees on the value its own mass implies, whatever was
    /// destroyed along the way.
    pub self_consistency: f64,
    /// Churn kills performed.
    pub churn_events: u64,
    /// Restarts that completed before the cluster stopped (a node that
    /// was still dark at stop time restarts for the audit but does not
    /// count as recovered).
    pub recovered: u64,
    /// Per-node detail.
    pub nodes: Vec<NodeReport>,
}

struct NodeOutcome {
    stats: DriverStats,
    wire: WireStats,
    estimate: Vec<f64>,
    mass: Vec<f64>,
    weight: f64,
    kills: u64,
    restarts: u64,
    recovered: u64,
    mass_lost: Vec<f64>,
}

/// Sum of two driver counter sets (per-incarnation stats fold into one
/// per-node view).
fn absorb(acc: &mut DriverStats, d: DriverStats) {
    acc.rounds += d.rounds;
    acc.sent += d.sent;
    acc.delivered += d.delivered;
    acc.suspected += d.suspected;
    acc.rehabilitated += d.rehabilitated;
}

/// The largest of `errors`, with a NaN read as `∞`, as
/// `gr_numerics::relative_error` reads a non-finite estimate: a destroyed
/// estimate never counts as converged. (`f64::max` would drop the NaN.)
pub(crate) fn worst_error(errors: impl IntoIterator<Item = f64>) -> f64 {
    errors.into_iter().fold(0.0, |worst, e| {
        if e.is_nan() {
            f64::INFINITY
        } else {
            worst.max(e)
        }
    })
}

fn max_rel_error(estimate: &[f64], reference: &[f64]) -> f64 {
    worst_error(
        estimate
            .iter()
            .zip(reference)
            .map(|(e, r)| (e - r).abs() / r.abs().max(1e-300)),
    )
}

/// Run one reduction to convergence over real transport endpoints.
///
/// `endpoints[i]` is node `i`'s endpoint (as built by
/// [`mem_cluster`](crate::mem_cluster) / [`udp_cluster`](crate::udp_cluster));
/// `make_proto` builds node `i`'s protocol instance (each thread owns a
/// full instance, driven only for its node); `reference` is the true
/// aggregate the convergence monitor measures against. An empty
/// `reference` is [`TransportConfigError::EmptyReference`]: the monitor
/// would find every node converged over zero components.
pub fn run_cluster<Pr, D>(
    graph: &Graph,
    endpoints: Vec<D>,
    make_proto: impl Fn(NodeId) -> Pr + Sync,
    reference: &[f64],
    opts: &ClusterOptions,
) -> Result<ClusterResult, TransportError>
where
    Pr: ReductionProtocol + Send,
    D: Delivery<Pr::Msg, Error = TransportError> + Send,
    D: WireInstrumented,
{
    let n = graph.len();
    if reference.is_empty() {
        return Err(TransportConfigError::EmptyReference.into());
    }
    if endpoints.len() != n {
        return Err(TransportError::Io(format!(
            "{} endpoints for a {n}-node graph",
            endpoints.len()
        )));
    }
    if let Some(ev) = opts.churn.iter().find(|ev| ev.node as usize >= n) {
        return Err(TransportError::Io(format!(
            "churn event names node {} of a {n}-node cluster",
            ev.node
        )));
    }
    // With churn scheduled the reference aggregate is void (killed mass is
    // destroyed), so nodes publish their estimate (component 0) instead of
    // a relative error and the monitor watches the cluster's *spread*.
    let churn_mode = !opts.churn.is_empty();
    let stop = AtomicBool::new(false);
    let aborted = AtomicBool::new(false);
    let stepping_done = AtomicUsize::new(0);
    let restarts_done = AtomicUsize::new(0);
    // Each node publishes its current relative error (or, under churn,
    // its estimate) as f64 bits; the monitor polls these without locks.
    // A dark node publishes +inf either way.
    let errors: Vec<AtomicU64> = (0..n)
        .map(|_| AtomicU64::new(f64::INFINITY.to_bits()))
        .collect();
    let start = Instant::now();
    let make_proto = &make_proto;
    let (wall_ms, converged, outcomes) = std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(i, mut endpoint)| {
                let stop = &stop;
                let aborted = &aborted;
                let stepping_done = &stepping_done;
                let restarts_done = &restarts_done;
                let errors = &errors;
                scope.spawn(move || -> Result<NodeOutcome, TransportError> {
                    let node = i as NodeId;
                    let dim = reference.len();
                    // Churn script for this node, soonest first.
                    let mut events: Vec<&ChurnEvent> =
                        opts.churn.iter().filter(|ev| ev.node == node).collect();
                    events.sort_by_key(|ev| ev.at_round);
                    let mut next_ev = 0;
                    // Each incarnation gets a distinct partner-pick
                    // stream — a reborn node must not replay its past.
                    let fresh_driver = |generation: u64| {
                        let seed = opts.seed ^ (generation << 48);
                        let mut d = NodeDriver::new(node, make_proto(node), graph, seed);
                        if let Some(w) = opts.detector_window {
                            d = d.with_timeout_detector(w);
                        }
                        d
                    };
                    let mut generation = 0u64;
                    let mut driver = fresh_driver(generation);
                    let mut done_stats = DriverStats::default();
                    let (mut kills, mut restarts, mut recovered) = (0u64, 0u64, 0u64);
                    let mut mass_lost = vec![0.0; dim];
                    let mut estimate = vec![0.0; dim];
                    let run = (|| -> Result<(), TransportError> {
                        loop {
                            let total_rounds = done_stats.rounds + driver.stats().rounds;
                            if stop.load(Ordering::Relaxed) || total_rounds >= opts.max_rounds {
                                return Ok(());
                            }
                            if next_ev < events.len() && total_rounds >= events[next_ev].at_round {
                                let ev = events[next_ev];
                                next_ev += 1;
                                // Fail-stop: harvest the doomed state for
                                // the audit, then go dark.
                                kills += 1;
                                let mut lost = vec![0.0; dim];
                                driver.write_mass(&mut lost);
                                for (acc, l) in mass_lost.iter_mut().zip(&lost) {
                                    *acc += l;
                                }
                                absorb(&mut done_stats, driver.stats());
                                errors[i].store(f64::INFINITY.to_bits(), Ordering::Relaxed);
                                let died = Instant::now();
                                while died.elapsed() < ev.down_for && !stop.load(Ordering::Relaxed)
                                {
                                    // The endpoint outlives the process on
                                    // it: frames keep arriving and die
                                    // unprocessed at a dead node.
                                    while endpoint.try_recv(node)?.is_some() {}
                                    std::thread::sleep(Duration::from_micros(200));
                                }
                                generation += 1;
                                driver = fresh_driver(generation);
                                restarts += 1;
                                restarts_done.fetch_add(1, Ordering::SeqCst);
                                if !stop.load(Ordering::Relaxed) {
                                    recovered += 1;
                                }
                                continue;
                            }
                            driver.step(&mut endpoint)?;
                            driver.write_estimate(&mut estimate);
                            let published = if churn_mode {
                                estimate[0]
                            } else {
                                max_rel_error(&estimate, reference)
                            };
                            errors[i].store(published.to_bits(), Ordering::Relaxed);
                            std::thread::yield_now();
                        }
                    })();
                    stepping_done.fetch_add(1, Ordering::SeqCst);
                    if let Err(e) = run {
                        aborted.store(true, Ordering::SeqCst);
                        return Err(e);
                    }
                    // Settle: keep draining until the whole cluster has
                    // stopped stepping and several consecutive sweeps find
                    // nothing in flight toward this node.
                    let mut quiet = 0;
                    while quiet < 8 {
                        let moved = driver.pump(&mut endpoint)?;
                        if aborted.load(Ordering::SeqCst) {
                            break;
                        }
                        if moved > 0 {
                            quiet = 0;
                            continue;
                        }
                        if stepping_done.load(Ordering::SeqCst) == n {
                            quiet += 1;
                        }
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    driver.write_estimate(&mut estimate);
                    let mut mass = vec![0.0; reference.len()];
                    let weight = driver.write_mass(&mut mass);
                    absorb(&mut done_stats, driver.stats());
                    Ok(NodeOutcome {
                        stats: done_stats,
                        wire: endpoint.wire_stats(),
                        estimate,
                        mass,
                        weight,
                        kills,
                        restarts,
                        recovered,
                        mass_lost,
                    })
                })
            })
            .collect();

        // Convergence monitor (runs on the caller's thread inside the
        // scope). Stops the cluster at convergence, completion, error, or
        // the wall-clock ceiling. Without churn, convergence is every
        // node's published error under target; with churn it is the
        // relative spread of published estimates under target — reachable
        // only once every node is back up (dark nodes publish +inf) —
        // plus completion of the whole churn script.
        let total_churn = opts.churn.len();
        let (wall_ms, converged) = loop {
            let published = errors
                .iter()
                .map(|e| f64::from_bits(e.load(Ordering::Relaxed)));
            let converged_now = if churn_mode {
                let (mut lo, mut hi, mut finite) = (f64::INFINITY, f64::NEG_INFINITY, true);
                for v in published {
                    finite &= v.is_finite();
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                finite
                    && restarts_done.load(Ordering::SeqCst) == total_churn
                    && (hi - lo) <= opts.target * lo.abs().max(hi.abs()).max(1e-300)
            } else {
                worst_error(published) <= opts.target
            };
            if converged_now {
                break (start.elapsed().as_secs_f64() * 1e3, true);
            }
            if aborted.load(Ordering::SeqCst)
                || stepping_done.load(Ordering::SeqCst) == n
                || start.elapsed() > opts.wall_limit
            {
                break (start.elapsed().as_secs_f64() * 1e3, false);
            }
            std::thread::sleep(Duration::from_micros(100));
        };
        stop.store(true, Ordering::SeqCst);
        let outcomes: Vec<Result<NodeOutcome, TransportError>> = handles
            .into_iter()
            .map(|h| h.join().expect("node thread panicked"))
            .collect();
        (wall_ms, converged, outcomes)
    });
    let outcomes: Vec<NodeOutcome> = outcomes.into_iter().collect::<Result<_, _>>()?;

    let dim = reference.len();
    let mut mass_value = vec![0.0; dim];
    let mut mass_weight = 0.0;
    let mut nodes = Vec::with_capacity(n);
    let mut max_err: f64 = 0.0;
    for (i, o) in outcomes.iter().enumerate() {
        for (acc, &m) in mass_value.iter_mut().zip(&o.mass) {
            *acc += m;
        }
        mass_weight += o.weight;
        max_err = max_err.max(max_rel_error(&o.estimate, reference));
        nodes.push(NodeReport {
            node: i as NodeId,
            rounds: o.stats.rounds,
            sent: o.stats.sent,
            delivered: o.stats.delivered,
            bytes_sent: o.wire.bytes_sent,
            bytes_recv: o.wire.bytes_recv,
            dropped: o.wire.dropped,
            chaos_drops: o.wire.chaos_drops,
            chaos_dups: o.wire.chaos_dups,
            chaos_corrupt: o.wire.chaos_corrupt,
            suspected: o.stats.suspected,
            rehabilitated: o.stats.rehabilitated,
            kills: o.kills,
            restarts: o.restarts,
            mass_lost: o.mass_lost.clone(),
            estimate: o.estimate.clone(),
        });
    }
    // Self-consistency: the estimates against the aggregate the surviving
    // mass defines. This is the audit that stays meaningful under churn.
    let self_consistency = if mass_weight != 0.0 {
        let consensus: Vec<f64> = mass_value.iter().map(|m| m / mass_weight).collect();
        worst_error(
            outcomes
                .iter()
                .map(|o| max_rel_error(&o.estimate, &consensus)),
        )
    } else {
        f64::INFINITY
    };
    let rounds: Vec<u64> = nodes.iter().map(|r| r.rounds).collect();
    Ok(ClusterResult {
        converged,
        wall_ms,
        rounds_min: rounds.iter().copied().min().unwrap_or(0),
        rounds_mean: rounds.iter().sum::<u64>() as f64 / rounds.len().max(1) as f64,
        rounds_max: rounds.iter().copied().max().unwrap_or(0),
        bytes_sent_total: nodes.iter().map(|r| r.bytes_sent).sum(),
        frames_sent_total: outcomes.iter().map(|o| o.wire.sent).sum(),
        dropped_total: nodes.iter().map(|r| r.dropped).sum(),
        max_rel_error: max_err,
        mass_value,
        mass_weight,
        self_consistency,
        churn_events: outcomes.iter().map(|o| o.kills).sum(),
        recovered: outcomes.iter().map(|o| o.recovered).sum(),
        nodes,
    })
}

/// A backend that keeps byte/message counters ([`WireStats`]) — both real
/// backends do; the trait lets [`run_cluster`] harvest them generically.
pub trait WireInstrumented {
    /// Traffic counters so far.
    fn wire_stats(&self) -> WireStats;
}

impl<M: gr_reduction::WireMsg> WireInstrumented for crate::mem::MemDelivery<M> {
    fn wire_stats(&self) -> WireStats {
        MemDelivery::wire_stats(self)
    }
}

impl<M: gr_reduction::WireMsg> WireInstrumented for crate::udp::UdpDelivery<M> {
    fn wire_stats(&self) -> WireStats {
        UdpDelivery::wire_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::mem_cluster;
    use gr_reduction::{AggregateKind, InitialData, PushCancelFlow};
    use gr_topology::hypercube;

    #[test]
    fn empty_reference_is_a_typed_error() {
        let graph = hypercube(2);
        let data = InitialData::with_kind(vec![Vec::new(); 4], AggregateKind::Average);
        let make = |_| PushCancelFlow::new(&graph, &data);
        let eps = mem_cluster(4, 8).unwrap();
        let err = run_cluster(&graph, eps, make, &[], &ClusterOptions::default()).unwrap_err();
        assert_eq!(err, TransportConfigError::EmptyReference.into());
        assert!(err.to_string().contains("no components"));
    }

    #[test]
    fn destroyed_estimates_read_as_infinite_error() {
        assert_eq!(max_rel_error(&[f64::NAN], &[7.5]), f64::INFINITY);
        assert_eq!(max_rel_error(&[7.5, f64::NAN], &[7.5, 7.5]), f64::INFINITY);
        assert_eq!(max_rel_error(&[f64::INFINITY], &[7.5]), f64::INFINITY);
        assert_eq!(max_rel_error(&[7.5, 15.0], &[7.5, 7.5]), 1.0);
        assert_eq!(worst_error([1e-3, f64::NAN, 2e-3]), f64::INFINITY);
        assert_eq!(worst_error([]), 0.0);
    }
}
