//! The invariant oracle: what must hold, to which tolerance, in which
//! lane.
//!
//! The paper's claims are *invariants*, not point results — PF/PCF
//! conserve global mass under message loss, PCF's flow variables stay at
//! the magnitude of the aggregate, survivors re-converge to the survivor
//! aggregate after crashes. The oracle checks them from the outside
//! through the [`ReductionProtocol`] introspection hooks (`write_mass`,
//! `write_flow`, `max_flow`), with lane-dependent tolerances:
//!
//! * **Sanity** (fault-free, asynchronous activation): exchanges are
//!   atomic, so global mass conservation and PF/FU pairwise flow
//!   antisymmetry hold *exactly* in exact arithmetic — the tolerance is
//!   pure f64-rounding headroom. PCF's fold handshake transiently parks
//!   the folded value in `ϕ` between fold and acknowledgement, so its
//!   per-edge slot-sum residual is legitimately nonzero *but bounded by
//!   the folded magnitude*, which PCF pins to `O(|aggregate|)` — exactly
//!   the paper's Sec. III claim, and what we check.
//! * **Stress** (loss, bit flips, permanent failures): loss leaves paid
//!   `e/2` deltas in flight on an edge until the next successful exchange
//!   heals it, so instantaneous conservation is only plausible to a loose
//!   magnitude bound. The stress checks are calibrated to catch the
//!   *unsurvivable* class — NaN/∞ lock-in and exponent-bit-flip blowups
//!   (~1e±300) — while tolerating every legitimate transient.

use crate::scenario::{Lane, Scenario};
use gr_reduction::{Algorithm, Checkpoint, InitialData, Payload, ReductionProtocol};
use gr_topology::NodeId;

/// The checked invariant set. Order in [`Invariant::label`]'s doc is the
/// evaluation order: per-checkpoint checks first, end-of-run checks last;
/// the *first* violated invariant is the one fingerprinted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Invariant {
    /// Σ over alive nodes of `(value, weight)` mass equals the expected
    /// total (re-based when the alive set changes).
    MassConservation,
    /// `f_ij == −f_ji` per edge, componentwise and in the weight, to the
    /// lane/algorithm tolerance (PF/FU exact; PCF bounded by the
    /// in-flight fold magnitude).
    FlowAntisymmetry,
    /// Flow variables stay finite and within the algorithm's magnitude
    /// bound — for PCF, `O(max initial magnitude)`: the paper's central
    /// structural claim.
    FlowMagnitude,
    /// The run reaches the target accuracy against the true aggregate
    /// within the round budget (always checked in the sanity lane; in
    /// the stress lane only when the scenario sets an explicit target).
    Convergence,
    /// Stress lane, scheduled faults only: survivors re-converge to the
    /// survivor aggregate by the end of the post-fault window.
    SurvivorReconvergence,
    /// Stress lane: the oracle error does not diverge after the last
    /// scheduled fault.
    NonDivergence,
}

impl Invariant {
    /// Stable label used in fingerprints and reports.
    pub fn label(self) -> &'static str {
        match self {
            Invariant::MassConservation => "MassConservation",
            Invariant::FlowAntisymmetry => "FlowAntisymmetry",
            Invariant::FlowMagnitude => "FlowMagnitude",
            Invariant::Convergence => "Convergence",
            Invariant::SurvivorReconvergence => "SurvivorReconvergence",
            Invariant::NonDivergence => "NonDivergence",
        }
    }
}

/// A first-violation record: everything the fingerprint needs.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Which invariant broke first.
    pub invariant: Invariant,
    /// Round of the checkpoint that caught it.
    pub round: u64,
    /// The node the violation is attributed to (for global checks, the
    /// worst-contributing node; for edge checks, the lower endpoint).
    pub node: NodeId,
    /// Deterministic human-readable specifics.
    pub detail: String,
}

/// Per-run oracle state (tolerances + running expectations).
pub struct Oracle {
    lane: Lane,
    /// Payload components per node value.
    dim: usize,
    /// Expected Σ value-mass per component over the tracked alive set.
    expected_values: Vec<f64>,
    /// Expected Σ weight over the tracked alive set.
    expected_weight: f64,
    /// Round of the last scheduled fault (0 when none).
    last_fault_round: u64,
    /// Best error observed at/after `last_fault_round`.
    best_err_after_fault: f64,
    mass_tol: f64,
    antisym_tol: f64,
    flow_bound: f64,
}

/// Stress-lane absolute floor below which error fluctuations are never
/// flagged as divergence.
const DIVERGENCE_FLOOR: f64 = 1e-6;
/// Stress-lane survivor-reconvergence threshold.
const RECONVERGENCE_EPS: f64 = 1e-6;

impl Oracle {
    /// Build the oracle for one scenario over its workload (any payload
    /// dimension — vector workloads are checked componentwise).
    pub fn new<P: Payload>(sc: &Scenario, data: &InitialData<P>) -> Self {
        let n = data.len();
        let dim = data.dim();
        let mut scale = 1.0;
        let mut max_init = 0.0f64;
        let mut expected_values = vec![0.0f64; dim];
        let mut expected_weight = 0.0f64;
        for i in 0..n {
            let w = data.weight(i);
            scale += w.abs();
            max_init = max_init.max(w.abs());
            for (k, &c) in data.value(i).components().iter().enumerate() {
                scale += c.abs();
                max_init = max_init.max(c.abs());
                expected_values[k] += c;
            }
            expected_weight += w;
        }

        // Tolerances. Sanity: rounding headroom only (conservation and
        // PF/FU antisymmetry are exact in exact arithmetic under atomic
        // exchanges); PCF's per-edge residual is bounded by in-flight
        // fold magnitudes, which PCF pins to the aggregate scale. Stress:
        // magnitude screens that catch NaN/1e±300 while tolerating
        // in-flight loss deltas.
        let pcf = matches!(sc.algorithm, Algorithm::PushCancelFlow(_));
        let (mass_tol, antisym_tol, flow_bound) = match sc.lane {
            Lane::Sanity => (
                1e-9 * scale,
                if pcf {
                    16.0 * (max_init + 1.0)
                } else {
                    1e-9 * scale
                },
                if pcf {
                    16.0 * (max_init + 1.0)
                } else {
                    1e3 * scale
                },
            ),
            Lane::Stress => (1e6 * scale, 1e6 * scale, 1e6 * scale),
        };

        Oracle {
            lane: sc.lane,
            dim,
            expected_values,
            expected_weight,
            last_fault_round: sc.last_fault_round(),
            best_err_after_fault: f64::INFINITY,
            mass_tol,
            antisym_tol,
            flow_bound,
        }
    }

    /// Feed the checkpoint error (drives the non-divergence trend).
    pub fn note_error(&mut self, round: u64, err: f64) {
        if round >= self.last_fault_round && err < self.best_err_after_fault {
            self.best_err_after_fault = err;
        }
    }

    /// Run the per-checkpoint invariants over the alive set `checkpoint`
    /// sampled at `round`. `edges` must list the mutually believed-alive
    /// edges `(i, j)` with `i < j`.
    pub fn check_step<Pr: ReductionProtocol + ?Sized>(
        &mut self,
        proto: &Pr,
        checkpoint: &Checkpoint,
        edges: &[(NodeId, NodeId)],
        round: u64,
    ) -> Option<Violation> {
        self.check_mass(proto, checkpoint, round)
            .or_else(|| self.check_flows(proto, edges, round))
    }

    /// Run the end-of-run invariants given the final error measurement.
    pub fn check_end(
        &self,
        sc: &Scenario,
        round: u64,
        final_err: f64,
        worst_node: NodeId,
    ) -> Option<Violation> {
        match self.lane {
            Lane::Sanity => {
                if final_err > sc.target_accuracy {
                    return Some(Violation {
                        invariant: Invariant::Convergence,
                        round,
                        node: worst_node,
                        detail: format!(
                            "max relative error {final_err:e} above target {:e} at round cap",
                            sc.target_accuracy
                        ),
                    });
                }
            }
            Lane::Stress => {
                // An explicit accuracy target turns convergence into a
                // checked invariant in the stress lane too (no default
                // stress scenario sets one, but replay/bisection cases
                // do).
                if sc.target_accuracy > 0.0 && final_err > sc.target_accuracy {
                    return Some(Violation {
                        invariant: Invariant::Convergence,
                        round,
                        node: worst_node,
                        detail: format!(
                            "max relative error {final_err:e} above target {:e} at round cap",
                            sc.target_accuracy
                        ),
                    });
                }
                if sc.has_scheduled_faults() && final_err > RECONVERGENCE_EPS {
                    return Some(Violation {
                        invariant: Invariant::SurvivorReconvergence,
                        round,
                        node: worst_node,
                        detail: format!(
                            "survivor error {final_err:e} above {RECONVERGENCE_EPS:e} \
                             after post-fault window (last fault at round {})",
                            self.last_fault_round
                        ),
                    });
                }
                let allowance = (100.0 * self.best_err_after_fault).max(DIVERGENCE_FLOOR);
                if final_err > allowance {
                    return Some(Violation {
                        invariant: Invariant::NonDivergence,
                        round,
                        node: worst_node,
                        detail: format!(
                            "final error {final_err:e} exceeds {allowance:e} \
                             (best after last fault: {:e})",
                            self.best_err_after_fault
                        ),
                    });
                }
            }
        }
        None
    }

    fn check_mass<Pr: ReductionProtocol + ?Sized>(
        &mut self,
        proto: &Pr,
        checkpoint: &Checkpoint,
        round: u64,
    ) -> Option<Violation> {
        let alive = checkpoint.alive();
        let mut buf = vec![0.0f64; self.dim];
        let mut vsum = vec![0.0f64; self.dim];
        let mut wsum = 0.0;
        let mut worst_node = *alive.first()?;
        let mut worst_mag = f64::NEG_INFINITY;
        for &i in alive {
            let w = proto.write_mass(i, &mut buf);
            if !w.is_finite() || buf.iter().any(|c| !c.is_finite()) {
                let bad = buf.iter().copied().find(|c| !c.is_finite()).unwrap_or(w);
                return Some(Violation {
                    invariant: Invariant::MassConservation,
                    round,
                    node: i,
                    detail: format!("non-finite mass at node {i}: value={bad:e} weight={w:e}"),
                });
            }
            let mag = buf.iter().fold(0.0f64, |a, c| a.max(c.abs()));
            if mag > worst_mag {
                worst_mag = mag;
                worst_node = i;
            }
            for (acc, &c) in vsum.iter_mut().zip(&buf) {
                *acc += c;
            }
            wsum += w;
        }
        if checkpoint.alive_changed() {
            // The alive set changed since the last checkpoint — dead
            // nodes took their current holdings with them, a restarted
            // node re-contributed its initial mass — so re-base the
            // expectation on the observed total. (Exact loss accounting
            // would need a snapshot at the crash/restart instant.)
            self.expected_values = vsum;
            self.expected_weight = wsum;
            return None;
        }
        let dv = vsum
            .iter()
            .zip(&self.expected_values)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        let dw = (wsum - self.expected_weight).abs();
        if dv > self.mass_tol || dw > self.mass_tol {
            return Some(Violation {
                invariant: Invariant::MassConservation,
                round,
                node: worst_node,
                detail: format!(
                    "mass drift |Δvalue|={dv:e} |Δweight|={dw:e} exceeds {:e}",
                    self.mass_tol
                ),
            });
        }
        None
    }

    fn check_flows<Pr: ReductionProtocol + ?Sized>(
        &self,
        proto: &Pr,
        edges: &[(NodeId, NodeId)],
        round: u64,
    ) -> Option<Violation> {
        let mut fij = vec![0.0f64; self.dim];
        let mut fji = vec![0.0f64; self.dim];
        for &(i, j) in edges {
            let wij = proto.write_flow(i, j, &mut fij)?; // None: flow-less protocol
            let wji = proto.write_flow(j, i, &mut fji)?;
            if !wij.is_finite()
                || !wji.is_finite()
                || fij.iter().chain(fji.iter()).any(|c| !c.is_finite())
            {
                return Some(Violation {
                    invariant: Invariant::FlowMagnitude,
                    round,
                    node: i,
                    detail: format!(
                        "non-finite flow on edge ({i},{j}): \
                         f_ij=({:e},{:e}) f_ji=({:e},{:e})",
                        fij[0], wij, fji[0], wji
                    ),
                });
            }
            let rv = fij
                .iter()
                .zip(&fji)
                .map(|(a, b)| (a + b).abs())
                .fold(0.0f64, f64::max);
            let rw = (wij + wji).abs();
            if rv > self.antisym_tol || rw > self.antisym_tol {
                return Some(Violation {
                    invariant: Invariant::FlowAntisymmetry,
                    round,
                    node: i,
                    detail: format!(
                        "edge ({i},{j}) residual |f_ij+f_ji| value={rv:e} weight={rw:e} \
                         exceeds {:e}",
                        self.antisym_tol
                    ),
                });
            }
        }
        if let Some(m) = proto.max_flow() {
            if m > self.flow_bound {
                // Attribute to the lower endpoint of the largest checked
                // edge flow (max_flow itself is edge-anonymous).
                let mut node = edges.first().map_or(0, |&(i, _)| i);
                let mut best = f64::NEG_INFINITY;
                for &(i, j) in edges {
                    for (a, b) in [(i, j), (j, i)] {
                        if proto.write_flow(a, b, &mut fij).is_some() {
                            let mag = fij.iter().fold(0.0f64, |m, c| m.max(c.abs()));
                            if mag > best {
                                best = mag;
                                node = a.min(b);
                            }
                        }
                    }
                }
                return Some(Violation {
                    invariant: Invariant::FlowMagnitude,
                    round,
                    node,
                    detail: format!(
                        "max flow magnitude {m:e} exceeds bound {:e}",
                        self.flow_bound
                    ),
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{sanity_corpus, stress_corpus};
    use gr_reduction::AggregateKind;

    fn oracle_for(lane: Lane) -> (Oracle, Scenario) {
        let sc = match lane {
            Lane::Sanity => sanity_corpus(&[1]).into_iter().next().unwrap(),
            Lane::Stress => stress_corpus(&[1]).into_iter().next().unwrap(),
        };
        let data =
            InitialData::uniform_random(sc.topology.nodes(), AggregateKind::Average, sc.seed);
        (Oracle::new(&sc, &data), sc)
    }

    #[test]
    fn sanity_tolerances_are_tight() {
        let (o, _) = oracle_for(Lane::Sanity);
        assert!(o.mass_tol < 1e-6);
        let (o, _) = oracle_for(Lane::Stress);
        assert!(o.mass_tol > 1.0);
    }

    #[test]
    fn convergence_violation_at_cap() {
        let (o, sc) = oracle_for(Lane::Sanity);
        let v = o.check_end(&sc, sc.max_rounds, 1e-3, 7).unwrap();
        assert_eq!(v.invariant, Invariant::Convergence);
        assert_eq!(v.node, 7);
        assert!(o.check_end(&sc, 100, 1e-12, 0).is_none());
    }

    #[test]
    fn non_divergence_tracks_best_after_fault() {
        let (mut o, sc) = oracle_for(Lane::Stress);
        o.note_error(500, 1e-9);
        o.note_error(700, 1e-8);
        // final error 5 orders above best ⇒ divergence (if above floor)
        let v = o.check_end(&sc, 900, 1e-3, 2);
        assert!(v.is_some());
        assert_eq!(v.unwrap().invariant, Invariant::NonDivergence);
        // within the 100× band ⇒ fine
        assert!(o.check_end(&sc, 900, 1e-8, 2).is_none());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Invariant::MassConservation.label(), "MassConservation");
        assert_eq!(
            Invariant::SurvivorReconvergence.label(),
            "SurvivorReconvergence"
        );
    }
}
