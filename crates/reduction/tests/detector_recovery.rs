//! Property tests for the imperfect-failure-detection story: a local
//! timeout detector under message delay raises *false* suspicions, the
//! transport's liveness probes rehabilitate them, and PCF's incarnation
//! reconciliation keeps the whole cycle mass-exact — on every builder
//! topology, not just the hand-picked ones in the unit tests.

use gr_netsim::{
    DelayModel, Delivery, DetectorModel, Event, FaultPlan, RingDelivery, SimOptions, Simulator,
};
use gr_reduction::{AggregateKind, InitialData, NodeDriver, PushCancelFlow, ReductionProtocol};
use gr_topology::{binary_tree, bus, complete, grid2d, hypercube, ring, torus2d, Graph, NodeId};
use proptest::prelude::*;

/// The cancellation handshake must stay *live* under sustained message
/// loss and bit flips: a lost fold acknowledgement desynchronises the
/// pair's round counters, and without the ledger/incarnation repair the
/// arc's folding deadlocks permanently while the active slot keeps
/// accumulating PF-style — flows grow without bound (observed ~1e154
/// after 2000 rounds on the pre-repair code) and the paper's central
/// `O(|aggregate|)` claim silently dies. Pin both symptoms: folds keep
/// happening late in the run, and flows stay at aggregate scale.
#[test]
fn folds_stay_live_and_flows_stay_bounded_under_loss() {
    let g = hypercube(6);
    let data = InitialData::uniform_random(64, AggregateKind::Average, 1);
    let plan = FaultPlan {
        msg_loss_prob: 0.05,
        bit_flip_prob: 1e-3,
        ..FaultPlan::none()
    };
    let mut sim = Simulator::new(&g, PushCancelFlow::new(&g, &data), plan, 1);
    sim.run(1500);
    let folds_before = sim.protocol().stats().cancellations;
    sim.run(500);
    let folds_late = sim.protocol().stats().cancellations - folds_before;
    assert!(
        folds_late > 1000,
        "fold handshake went quiet: {folds_late} folds in rounds 1500..2000"
    );
    let mut buf = [0.0f64];
    let mut max_flow: f64 = 0.0;
    for i in 0..64u32 {
        for &j in g.neighbors(i) {
            if sim.protocol().write_flow(i, j, &mut buf).is_some() {
                max_flow = max_flow.max(buf[0].abs());
            }
        }
    }
    assert!(
        max_flow < 1e3,
        "flow magnitude escaped the aggregate scale: {max_flow:e}"
    );
}

/// The builder-topology zoo the suspicion property quantifies over.
/// Degrees range from 2 (ring) to 9 (complete), so the same detector
/// window produces wildly different false-suspicion rates.
fn builder_topology(idx: usize) -> (&'static str, Graph) {
    match idx {
        0 => ("ring12", ring(12)),
        1 => ("complete10", complete(10)),
        2 => ("hypercube3", hypercube(3)),
        3 => ("hypercube4", hypercube(4)),
        4 => ("grid3x4", grid2d(3, 4)),
        5 => ("torus3x4", torus2d(3, 4)),
        _ => ("btree10", binary_tree(10)),
    }
}

fn max_rel_err<P: ReductionProtocol>(proto: &P, n: usize, reference: f64) -> f64 {
    let mut buf = [0.0];
    let mut err = 0.0f64;
    for i in 0..n as u32 {
        proto.write_estimate(i, &mut buf);
        err = err.max(((buf[0] - reference) / reference).abs());
    }
    err
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// False-suspicion-then-rehabilitation converges on every builder
    /// topology: under uniform delay the timeout detector keeps wrongly
    /// excising live edges, the probe machinery keeps readmitting them,
    /// and PCF still reaches the exact average. Without outbound probing
    /// on suspected arcs this property is false — mutually suspected
    /// edges would stay dead and the believed-alive graph partitions.
    #[test]
    fn pcf_rides_out_false_suspicions_on_every_topology(
        topo_idx in 0usize..7,
        seed in 0u64..500,
        window in 5u64..9,
        delay_max in 2u64..5,
    ) {
        let (name, g) = builder_topology(topo_idx);
        let n = g.len();
        let data = InitialData::uniform_random(n, AggregateKind::Average, seed);
        let reference = data.reference()[0].hi();
        let opts = SimOptions {
            delay: DelayModel::Uniform { min: 0, max: delay_max },
            detector: DetectorModel::Timeout { window },
            ..SimOptions::default()
        };
        let mut sim = Simulator::with_options(
            &g,
            PushCancelFlow::new(&g, &data),
            FaultPlan::none(),
            seed,
            opts,
        );
        let mut err = f64::INFINITY;
        for _ in 0..40 {
            sim.run(100);
            err = max_rel_err(sim.protocol(), n, reference);
            if err < 1e-9 {
                break;
            }
        }
        let s = sim.stats();
        prop_assert!(
            err < 1e-9,
            "{name} w={window} d={delay_max} seed={seed}: err={err:e} \
             (susp={} rehab={} probes={})",
            s.suspected, s.rehabilitated, s.probes_sent
        );
        // The property is only meaningful if the detector actually
        // misfired: with these windows and degrees every case suspects.
        prop_assert!(s.suspected > 0, "{name}: detector never fired");
        prop_assert!(s.rehabilitated > 0, "{name}: nothing rehabilitated");
    }

    /// Crash + restart counts the rejoining node exactly once. The crash
    /// fires at round 0 — before the victim has donated or absorbed any
    /// flow — so exactly `v_victim` leaves the system, and the restart
    /// re-injects exactly `v_victim`: the network must settle on the
    /// *full-population* average. A dropped readmission leaves the
    /// average short by `v_victim / n`; a double-count overshoots by the
    /// same amount — both are ~1e-2-scale, detected at 1e-9. (A crash in
    /// mid-mix cannot make this claim: whatever mass the victim held at
    /// that instant dies with it, by design — survivors then reconverge
    /// to the reduced reference, which the campaign oracle checks.)
    /// (Oracle detection keeps the accounting airtight: detect-on-crash
    /// means no survivor ever donates flow toward the corpse. Under the
    /// timeout detector the neighbors keep donating until the silence
    /// window expires, and that flow dies with the victim — locally
    /// indistinguishable from flow the victim absorbed before crashing —
    /// so the reduced-reference reconvergence the campaign oracle checks
    /// is the right claim there, not the full average.)
    #[test]
    fn restarted_node_mass_counts_exactly_once(
        seed in 0u64..500,
        victim in 0u32..10,
        restart_round in 100u64..300,
    ) {
        let g = complete(10);
        let data = InitialData::uniform_random(10, AggregateKind::Average, seed);
        let reference = data.reference()[0].hi();
        let plan = FaultPlan::none()
            .crash_node(victim, 0)
            .restart_node(victim, restart_round);
        let mut sim = Simulator::new(&g, PushCancelFlow::new(&g, &data), plan, seed);
        let mut err = f64::INFINITY;
        for _ in 0..40 {
            sim.run(100);
            err = max_rel_err(sim.protocol(), 10, reference);
            if err < 1e-9 {
                break;
            }
        }
        prop_assert!(
            err < 1e-9,
            "victim={victim} seed={seed} restart={restart_round}: err={err:e}"
        );
    }
}

/// A [`Delivery`] that drops every send while `open` is false: the same
/// both-ways silence the simulator gets from a loss-1.0 plan.
struct Gate<D> {
    inner: D,
    open: bool,
}

impl<M, D: Delivery<M>> Delivery<M> for Gate<D> {
    type Error = D::Error;
    fn send(&mut self, src: NodeId, dst: NodeId, msg: M) -> Result<(), D::Error> {
        if self.open {
            self.inner.send(src, dst, msg)
        } else {
            Ok(())
        }
    }
    fn try_recv(&mut self, node: NodeId) -> Result<Option<(NodeId, M)>, D::Error> {
        self.inner.try_recv(node)
    }
}

/// What node 0 saw of node 1, in ticks: every arrival, the suspicion,
/// the rehabilitation.
struct Seen {
    arrivals: Vec<u64>,
    suspected: u64,
    rehabilitated: u64,
}

impl Seen {
    /// Check the shared suspicion rule against silence over ticks
    /// `from..until`: suspected exactly `window` ticks after the last
    /// arrival before the silence, rehabilitated on the first arrival
    /// after it.
    fn check(&self, engine: &str, window: u64, from: u64, until: u64) {
        let last = *self.arrivals.iter().filter(|&&t| t <= from).max().unwrap();
        let first = *self.arrivals.iter().find(|&&t| t >= until).unwrap();
        assert!(
            !self.arrivals.iter().any(|&t| last < t && t < first),
            "{engine}: arrival inside the silence"
        );
        assert_eq!(self.suspected, last + window, "{engine}: suspicion tick");
        assert_eq!(self.rehabilitated, first, "{engine}: rehabilitation tick");
    }
}

/// One silence pattern through both detectors: the round engine's
/// (`P = 1`, ticked per round) and `NodeDriver`'s (ticked per own
/// iteration). Both links of `bus(2)` go silent over ticks
/// `SILENT..HEAL`; both engines suspect the silent peer `WINDOW` ticks
/// after their last recorded arrival and rehabilitate it on their first
/// arrival after the silence. (The engine's first post-silence arrival
/// is a liveness probe at the start of round `HEAL`, followed in the same
/// round by a payload; a driver keeps the suspect in its rotation and
/// hears its next payload one iteration later.)
#[test]
fn engine_and_driver_detectors_agree_on_one_silence() {
    const WINDOW: u64 = 5;
    const SILENT: u64 = 10;
    const HEAL: u64 = 30;
    const END: u64 = 40;
    let g = bus(2);
    let data = InitialData::with_kind(vec![10.0, -4.0], AggregateKind::Average);

    let opts = SimOptions {
        detector: DetectorModel::Timeout { window: WINDOW },
        partitions: 1,
        ..SimOptions::default()
    };
    let mut sim = Simulator::with_options(
        &g,
        PushCancelFlow::new(&g, &data),
        FaultPlan::none(),
        3,
        opts,
    );
    sim.enable_trace(10_000);
    sim.run(SILENT);
    sim.set_fault_plan(FaultPlan::with_loss(1.0));
    sim.run(HEAL - SILENT);
    sim.set_fault_plan(FaultPlan::none());
    sim.run(END - HEAL);
    let events: Vec<Event> = sim.trace().unwrap().events().cloned().collect();
    let only = |want: fn(&Event) -> bool| -> Vec<u64> {
        events
            .iter()
            .filter(|e| want(e))
            .map(Event::round)
            .collect()
    };
    let sim_seen = Seen {
        arrivals: only(|e| matches!(e, Event::Delivered { src: 1, dst: 0, .. })),
        suspected: only(|e| matches!(e, Event::NodeSuspected { node: 0, .. }))[0],
        rehabilitated: only(|e| matches!(e, Event::NodeRehabilitated { node: 0, .. }))[0],
    };
    sim_seen.check("simulator", WINDOW, SILENT, HEAL);
    assert_eq!(sim.stats().suspected, 2, "each side suspects once");

    let mut ring = Gate {
        inner: RingDelivery::new(0),
        open: true,
    };
    let mut drivers: Vec<_> = (0..2)
        .map(|i| {
            NodeDriver::new(i, PushCancelFlow::new(&g, &data), &g, 3).with_timeout_detector(WINDOW)
        })
        .collect();
    let mut drv_seen = Seen {
        arrivals: Vec::new(),
        suspected: 0,
        rehabilitated: 0,
    };
    for tick in 0..END {
        ring.open = !(SILENT..HEAL).contains(&tick);
        let before = drivers[0].stats();
        for d in drivers.iter_mut() {
            d.step(&mut ring).unwrap();
        }
        ring.inner.advance_round();
        let after = drivers[0].stats();
        if after.delivered > before.delivered {
            drv_seen.arrivals.push(tick);
        }
        if after.suspected > before.suspected {
            drv_seen.suspected = tick;
        }
        if after.rehabilitated > before.rehabilitated {
            drv_seen.rehabilitated = tick;
        }
    }
    drv_seen.check("driver", WINDOW, SILENT, HEAL);
    assert_eq!(drivers[0].stats().suspected, 1);
    assert_eq!(drivers[0].stats().rehabilitated, 1);
}
