//! The send sweeps prefetch: in the simulator (one and four partitions)
//! and in the batch executor, every send `(i, t)` except the first
//! [`PREWARM_LOOKAHEAD`] of its sweep is preceded, within that sweep, by
//! `prewarm(i, t)`. A sweep is one partition's sends in one round (the
//! simulator) or one tenant's sends in one round (the batch executor).
//! Nothing else observes the prefetch, so this guards it against silent
//! removal.

use gr_batch::{BatchHost, BatchOptions, BatchSim, TenantProtocol, TenantSpec};
use gr_netsim::{FaultPlan, Protocol, SimOptions, Simulator, PREWARM_LOOKAHEAD};
use gr_topology::{hypercube, NodeId};
use std::cell::Cell;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Call {
    Prewarm(NodeId, NodeId),
    Send(usize, NodeId, NodeId),
    Receive,
}

/// Logs every hook call, in order. `prewarm` takes `&self`, hence the
/// `Cell`.
#[derive(Default)]
struct Recorder {
    log: Cell<Vec<Call>>,
}

impl Recorder {
    fn push(&self, call: Call) {
        let mut log = self.log.take();
        log.push(call);
        self.log.set(log);
    }
}

impl Protocol for Recorder {
    type Msg = ();

    fn on_send(&mut self, node: NodeId, target: NodeId) {
        self.part_send(0, node, target)
    }

    fn part_send(&mut self, part: usize, node: NodeId, target: NodeId) {
        self.push(Call::Send(part, node, target));
    }

    fn on_receive(&mut self, _node: NodeId, _from: NodeId, _msg: &mut ()) {
        self.push(Call::Receive);
    }

    fn prewarm(&self, node: NodeId, peer: NodeId) {
        self.push(Call::Prewarm(node, peer));
    }
}

impl TenantProtocol for Recorder {
    fn estimate(&self, _node: NodeId) -> f64 {
        0.0
    }

    fn update_local_value(&mut self, _node: NodeId, _value: f64) {}
}

/// Checks the log against the contract; returns how many sends it
/// covered and how many sweeps it saw. A sweep is a maximal run of sends
/// with the same `part`, uninterrupted by a receive; its prewarms are
/// those logged after the last send or receive before it began.
fn check(log: &[Call]) -> (usize, usize) {
    let (mut checked, mut sweeps) = (0, 0);
    let (mut fresh, mut warmed) = (Vec::new(), Vec::new());
    let mut sweep: Option<(usize, usize)> = None; // (part, sends so far)
    for &call in log {
        match call {
            Call::Prewarm(i, t) => fresh.push((i, t)),
            Call::Receive => {
                fresh.clear();
                sweep = None;
            }
            Call::Send(part, i, t) => {
                let k = match sweep {
                    Some((p, k)) if p == part => k,
                    _ => {
                        warmed.clear();
                        sweeps += 1;
                        0
                    }
                };
                warmed.append(&mut fresh);
                if k >= PREWARM_LOOKAHEAD {
                    let pos = warmed.iter().position(|&w| w == (i, t));
                    let pos = pos.unwrap_or_else(|| panic!("send {k} ({i} -> {t}) not prewarmed"));
                    warmed.swap_remove(pos);
                    checked += 1;
                }
                sweep = Some((part, k + 1));
            }
        }
    }
    (checked, sweeps)
}

#[test]
fn simulator_sends_are_prewarmed() {
    let g = hypercube(6);
    for partitions in [1, 4] {
        let opts = SimOptions {
            partitions,
            ..SimOptions::default()
        };
        let plan = FaultPlan::with_loss(0.1);
        let mut sim = Simulator::with_options(&g, Recorder::default(), plan, 3, opts);
        sim.run(5);
        let (checked, sweeps) = check(&sim.protocol().log.take());
        assert_eq!(sweeps, 5 * partitions, "P = {partitions}");
        // Every node sends once per round.
        assert_eq!(checked, 5 * (g.len() - partitions * PREWARM_LOOKAHEAD));
    }
}

#[test]
fn batch_sends_are_prewarmed() {
    let specs: Vec<TenantSpec> = (0..3)
        .map(|t| TenantSpec {
            plan: FaultPlan::with_loss(0.1),
            ..TenantSpec::clean(hypercube(5), t, vec![1.0; 32], 100)
        })
        .collect();
    let host = BatchHost::assemble(&specs).expect("valid batch");
    let mut sim =
        BatchSim::new(&host, Recorder::default(), &specs, BatchOptions::default()).expect("valid");
    sim.run(4);
    let (checked, sweeps) = check(&sim.protocol().log.take());
    assert_eq!(sweeps, 4 * specs.len());
    assert_eq!(checked, 4 * specs.len() * (32 - PREWARM_LOOKAHEAD));
}
