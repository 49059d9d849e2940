//! What every workload reports for one unit of work, and helpers they share.

use gr_netsim::{stream_rng, Protocol, RngStream};
use gr_reduction::{AggregateKind, InitialData, Payload, PushCancelFlow, WireMsg};
use rand::rngs::StdRng;
use std::collections::BTreeMap;

/// Per-layer sums a unit contributes (counters and the like), keyed by
/// metric name; summed over the units of a pass.
pub type Layer = BTreeMap<&'static str, f64>;

/// Add `v` to `layer[key]`.
pub fn add(layer: &mut Layer, key: &'static str, v: f64) {
    *layer.entry(key).or_insert(0.0) += v;
}

/// Everything about a solve that must repeat exactly for a given seed:
/// compared between repeated runs of a unit and between the untraced and
/// traced runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counts {
    /// Rounds to accuracy of each end-to-end unit in the solve (per-node
    /// iterations for the driver workload).
    pub rounds: Vec<u64>,
    /// Messages handed to the transport until accuracy was reached.
    pub messages: u64,
    /// Bytes those messages took on the wire.
    pub bytes: u64,
    /// Bits of the worst final relative error (compared exactly).
    pub worst_err_bits: u64,
    /// End-to-end units that hit their cap or failed the output check.
    pub failed: u64,
}

impl Counts {
    /// The worst final relative error.
    pub fn worst_err(&self) -> f64 {
        f64::from_bits(self.worst_err_bits)
    }
}

/// One solve: its set-up, its timing samples and its counts.
pub struct Solve {
    /// Seconds spent building inputs, topology and engine.
    pub setup_s: f64,
    /// Seconds from the start of the solve until the last unit reached
    /// accuracy.
    pub solve_s: f64,
    /// Time-to-accuracy of each end-to-end unit, in seconds.
    pub samples_s: Vec<f64>,
    /// Allocation calls made during the solve.
    pub allocs: u64,
    /// Reductions completed (column reductions for dmGS, tenants for the
    /// batch), the numerator of `reductions_per_s`.
    pub reductions: u64,
    /// Deterministic outcome.
    pub counts: Counts,
    /// Per-layer sums.
    pub layer: Layer,
}

/// A seeded workload. Unit `i` of a seed always builds the same inputs.
pub trait Workload {
    /// Distinct units in one pass; a run cycles through them.
    fn units(&self) -> usize;

    /// Fewest solves an untraced run makes, so that the tail percentile
    /// rests on enough samples.
    fn min_solves(&self) -> usize {
        self.units()
    }

    /// Build and solve unit `i`; with `traced` the protocol and transport
    /// run behind the timing wrappers. `Err` means a wrong output.
    fn solve(&mut self, i: usize, traced: bool) -> Result<Solve, String>;

    /// Extra traced-run measurements (two-thread speed-up, cost model),
    /// added to `layer`.
    fn extras(&mut self, layer: &mut Layer) -> Result<(), String> {
        let _ = layer;
        Ok(())
    }
}

/// `value` is at most `bound`; NaN never is.
pub fn within(value: f64, bound: f64) -> bool {
    value <= bound
}

/// The seeded RNG for unit `unit` of workload stream `tag`.
pub fn unit_rng(seed: u64, tag: u64, unit: usize) -> StdRng {
    stream_rng(seed, RngStream::Aux(tag ^ ((unit as u64) << 16)))
}

/// Bytes of one encoded PCF frame carrying a `value`-shaped payload,
/// measured by running the codec on a real message.
pub fn pcf_frame_bytes<P: Payload>(value: P) -> u64 {
    let graph = gr_topology::bus(2);
    let data = InitialData::with_kind(vec![value.clone(), value], AggregateKind::Average);
    let mut pcf = PushCancelFlow::new(&graph, &data);
    let msg = pcf.on_send(0, 1);
    let mut frame = Vec::new();
    msg.encode_frame(&mut frame);
    frame.len() as u64
}
