//! Deterministic round-based network simulator with fault injection.
//!
//! The paper evaluates its algorithms in simulation: synchronous
//! "iterations" in which every node picks a uniformly random neighbor,
//! sends one message, and processes everything it received; failures
//! (message loss, bit flips, permanent link failures, node crashes) are
//! injected into this execution. This crate reproduces that execution
//! model with two properties the paper's methodology depends on:
//!
//! 1. **Schedule/protocol separation.** The simulator — not the protocol —
//!    draws the communication schedule, from a dedicated RNG stream. Two
//!    different protocols driven with the same seed therefore see *exactly*
//!    the same sequence of (sender, receiver) pairs and the same fault coin
//!    flips. This is how the paper produces Fig. 4 vs Fig. 7 ("we initially
//!    used exactly the same random seed").
//! 2. **Determinism.** Given a seed, a topology and a fault plan, a run is
//!    bit-reproducible. Experiments are embarrassingly parallel across
//!    *runs* while each run stays sequential.
//!
//! The execution order within one round is fixed:
//!
//! 1. scheduled faults and repairs whose `at_round` equals the current
//!    round fire, in the order: links die, partition cuts fire, nodes
//!    crash, links heal, partitions heal, nodes restart;
//! 2. failure *detections* due this round are delivered to the protocol
//!    ([`Protocol::on_link_failed`]) — detection may lag the fault by a
//!    configurable delay, during which senders still address the dead
//!    link and those messages are silently lost. (Under
//!    [`DetectorModel::Timeout`] this oracle step is replaced by a local
//!    silence scan at the end of the round.);
//! 3. every alive node with at least one believed-alive neighbor sends one
//!    message to a schedule-chosen partner ([`Protocol::on_send`]);
//! 4. the fault injector drops or corrupts in-flight messages;
//! 5. surviving messages are delivered in send order
//!    ([`Protocol::on_receive`]).

mod calibrate;
mod delivery;
mod fault_range;
mod faults;
mod options;
mod par;
mod rng;
mod schedule;
mod sim;
mod trace;

pub use calibrate::MachineCosts;
pub use delivery::{Delivery, RingDelivery};
pub use fault_range::{Believed, FaultCtx, FaultRange, Lane};
pub use faults::{
    BurstModel, Corrupt, FaultPlan, LinkFailure, LinkHeal, NetPartition, NodeCrash, NodeRestart,
    PartitionHeal,
};
pub use options::{
    Activation, DelayModel, DetectorModel, PartitionModel, PartitionPlan, PartitionSource,
    SimConfigError, SimOptions,
};
pub use par::WorkerPool;
pub use rng::{stream_rng, RngStream};
pub use schedule::Schedule;
pub use sim::{Protocol, SimStats, Simulator};
pub use trace::{Event, Trace};
