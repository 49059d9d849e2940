//! Fault-tolerant gossip-based distributed reduction algorithms.
//!
//! This crate is the core of the workspace: it implements the push-sum
//! family of all-to-all reduction algorithms studied in *"Improving Fault
//! Tolerance and Accuracy of a Distributed Reduction Algorithm"*
//! (Niederbrucker, Straková, Gansterer — SC 2012):
//!
//! * [`PushSum`] — the gossip baseline (Kempe et al., FOCS'03): fast,
//!   simple, and broken by a single lost message;
//! * [`PushFlow`] — fault tolerance via graph-theoretical flows (paper
//!   Fig. 1), with the accuracy and failure-recovery weaknesses analysed
//!   in paper Sec. II;
//! * [`PushCancelFlow`] — the paper's contribution (Fig. 5): PF plus
//!   continuous flow cancellation, which pins every flow variable to the
//!   magnitude of the target aggregate, restoring machine-precision
//!   accuracy at scale and making permanent-failure handling a local,
//!   cheap correction;
//! * [`FlowUpdating`] — the independent flow-based comparator from the
//!   related work (Jesus, Baquero, Almeida — DAIS'09).
//!
//! Protocols are generic over a [`Payload`] (scalar or vector) and are
//! driven by the deterministic simulator in [`gr_netsim`]; the
//! [`runner`] module bundles the workflow (build → run → measure against
//! a high-precision reference) used by tests, examples and the experiment
//! harness.
//!
//! ```
//! use gr_reduction::{AggregateKind, InitialData, PushCancelFlow, ReductionProtocol};
//! use gr_netsim::{FaultPlan, Simulator};
//! use gr_topology::hypercube;
//!
//! // 16 nodes compute the average of 0..16 — under 10% message loss.
//! let graph = hypercube(4);
//! let values: Vec<f64> = (0..16).map(f64::from).collect();
//! let data = InitialData::with_kind(values, AggregateKind::Average);
//! let pcf = PushCancelFlow::new(&graph, &data);
//! let mut sim = Simulator::new(&graph, pcf, FaultPlan::with_loss(0.1), 42);
//! sim.run(400);
//! for i in 0..16 {
//!     assert!((sim.protocol().scalar_estimate(i) - 7.5).abs() < 1e-12);
//! }
//! ```

pub mod aggregate;
pub(crate) mod bank;
pub mod drive;
pub mod extremum;
pub mod flow_updating;
pub mod kernels;
pub mod payload;
pub mod protocol;
pub mod push_cancel_flow;
pub mod push_flow;
pub mod push_sum;
pub mod runner;
pub mod wire;

pub use aggregate::{AggregateKind, InitialData};
pub use drive::{DriverStats, NodeDriver};
pub use extremum::{Extremum, ExtremumGossip};
pub use flow_updating::FlowUpdating;
pub use payload::{InlineVec, Mass, Payload, INLINE_CAP};
pub use protocol::ReductionProtocol;
pub use push_cancel_flow::{PcfMsg, PhiMode, PushCancelFlow};
pub use push_flow::PushFlow;
pub use push_sum::PushSum;
pub use runner::{
    run_reduction, run_with_options, Algorithm, Checkpoint, ErrorSample, Measurer, Normwise,
    RunConfig, RunResult,
};
pub use wire::{WireError, WireMsg, FRAME_HEADER, WIRE_VERSION};
