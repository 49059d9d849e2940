//! Real-transport runtime for the reduction protocols.
//!
//! The simulator in [`gr_netsim`] executes the paper's protocols under a
//! deterministic round loop; this crate executes the *same protocol
//! implementations* — no forks, no adapters in protocol code — over real
//! delivery substrates, through the [`Delivery`](gr_netsim::Delivery)
//! seam extracted from the simulator:
//!
//! * [`mem_cluster`] — one thread per node over bounded in-memory
//!   channels: real OS-scheduler interleaving, frames encoded with the
//!   shared wire codec;
//! * [`udp_cluster`] — one loopback UDP socket per node, one frame per
//!   datagram, reused receive buffers;
//! * the simulator itself, which doubles as the **deterministic twin** of
//!   both: the [`twin_equivalence`] harness runs the same reduction under
//!   netsim and under threads and requires both to land on the reference
//!   aggregate within tolerance.
//!
//! [`run_cluster`] orchestrates a threaded run (convergence monitor,
//! settle/drain phase, mass audit); the `transport-run` binary wraps it
//! in a CLI that reports wall-clock convergence, rounds and bytes-on-wire
//! per node. Configuration mistakes surface as [`TransportConfigError`]
//! values (never panics), runtime failures as [`TransportError`].
//!
//! Robustness is tested by breaking the transport on purpose:
//! [`ChaosDelivery`] wraps any backend with seeded drop/burst/duplicate/
//! corrupt/delay injection and scripted partitions, and
//! [`ClusterOptions::churn`] kills and restarts live node threads
//! mid-run, letting the timeout detector and the protocols' incarnation
//! machinery drive recovery.

mod chaos;
mod cluster;
mod error;
mod mem;
mod twin;
mod udp;

pub use chaos::{ChaosCut, ChaosDelivery, ChaosPlan, ChaosStats};
pub use cluster::{
    run_cluster, ChurnEvent, ClusterOptions, ClusterResult, NodeReport, WireInstrumented,
};
pub use error::{TransportConfigError, TransportError};
pub use mem::{mem_cluster, MemDelivery};
pub use twin::{twin_equivalence, TwinReport};
pub use udp::{udp_cluster, validate_datagram, worst_case_pcf, UdpDelivery, MAX_DATAGRAM};

/// Message/byte counters every real backend keeps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct WireStats {
    /// Frames successfully handed to the transport.
    pub sent: u64,
    /// Frames received and decoded.
    pub delivered: u64,
    /// Bytes put on the wire.
    pub bytes_sent: u64,
    /// Bytes taken off the wire.
    pub bytes_recv: u64,
    /// Frames lost to backpressure (full inbox / full socket buffer).
    pub dropped: u64,
    /// Frames deliberately dropped by the chaos layer (i.i.d., burst, or
    /// partition cut). Zero on unwrapped backends.
    pub chaos_drops: u64,
    /// Extra copies injected by chaos duplication. Zero when chaos is off.
    pub chaos_dups: u64,
    /// Frames whose payload the chaos layer bit-flipped. Zero when chaos
    /// is off.
    pub chaos_corrupt: u64,
}

/// Decode a received frame into `spare`, a spent message the caller lent
/// the endpoint, when there is one (a warm decode allocates nothing), and
/// into a fresh message otherwise.
fn decode_into_spare<M: gr_reduction::WireMsg>(
    spare: &mut Option<M>,
    frame: &[u8],
) -> Result<M, TransportError> {
    match spare.take() {
        Some(mut msg) => {
            msg.decode_frame_into(frame)?;
            Ok(msg)
        }
        None => Ok(M::decode_frame(frame)?),
    }
}
