//! Typed transport errors, mirroring the simulator's
//! [`SimConfigError`](gr_netsim::SimConfigError) pattern: configuration
//! mistakes are caught before any thread or socket exists and reported as
//! values, not panics.

use gr_reduction::WireError;
use gr_topology::NodeId;

/// A transport configuration that cannot be brought up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportConfigError {
    /// A cluster needs at least one node.
    ZeroNodes,
    /// The reference aggregate has no components, so no run over it can
    /// be judged converged or not.
    EmptyReference,
    /// An OS socket could not be bound (ports exhausted, sockets
    /// unavailable in the sandbox, permissions).
    PortBind {
        /// The address we tried to bind.
        addr: String,
        /// The OS error text.
        detail: String,
    },
    /// A single framed message exceeds the datagram budget, so a UDP
    /// backend could never carry it (the payload dimension is too large).
    OversizeDatagram {
        /// Encoded frame size in bytes.
        bytes: usize,
        /// Largest frame the backend ships.
        max: usize,
    },
}

impl std::fmt::Display for TransportConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportConfigError::ZeroNodes => {
                write!(f, "transport cluster needs at least one node")
            }
            TransportConfigError::EmptyReference => {
                write!(f, "reference aggregate has no components")
            }
            TransportConfigError::PortBind { addr, detail } => {
                write!(f, "could not bind UDP socket at {addr}: {detail}")
            }
            TransportConfigError::OversizeDatagram { bytes, max } => {
                write!(
                    f,
                    "framed message is {bytes} bytes, exceeding the {max}-byte datagram budget"
                )
            }
        }
    }
}

impl std::error::Error for TransportConfigError {}

/// A runtime failure inside a transport backend.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The backend was misconfigured (bring-up errors surfaced through a
    /// run entry point).
    Config(TransportConfigError),
    /// An OS-level I/O failure that is not plain backpressure (backends
    /// treat full buffers as message loss, which the protocols tolerate).
    Io(String),
    /// A received frame failed to decode (wrong version, kind, or length).
    Decode(WireError),
    /// A message was addressed to a node the backend does not know.
    UnknownPeer {
        /// The destination that has no endpoint.
        dst: NodeId,
    },
    /// A frame grew past the datagram budget at send time (the config
    /// check guards the steady state; this guards dynamic payloads).
    Oversize {
        /// Encoded frame size in bytes.
        bytes: usize,
        /// Largest frame the backend ships.
        max: usize,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Config(e) => write!(f, "configuration: {e}"),
            TransportError::Io(detail) => write!(f, "transport I/O error: {detail}"),
            TransportError::Decode(e) => write!(f, "undecodable frame: {e}"),
            TransportError::UnknownPeer { dst } => {
                write!(f, "message addressed to unknown node {dst}")
            }
            TransportError::Oversize { bytes, max } => {
                write!(
                    f,
                    "frame of {bytes} bytes exceeds {max}-byte datagram budget"
                )
            }
        }
    }
}

impl std::error::Error for TransportError {}

impl From<TransportConfigError> for TransportError {
    fn from(e: TransportConfigError) -> Self {
        TransportError::Config(e)
    }
}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        TransportError::Decode(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(TransportConfigError::ZeroNodes
            .to_string()
            .contains("one node"));
        let bind = TransportConfigError::PortBind {
            addr: "127.0.0.1:0".into(),
            detail: "permission denied".into(),
        };
        assert!(bind.to_string().contains("127.0.0.1:0"));
        assert!(bind.to_string().contains("permission denied"));
        let big = TransportConfigError::OversizeDatagram {
            bytes: 70_000,
            max: 60_000,
        };
        assert!(big.to_string().contains("70000"));
        let rt: TransportError = big.into();
        assert!(rt.to_string().starts_with("configuration:"));
        let dec: TransportError = WireError::Version { got: 9 }.into();
        assert!(dec.to_string().contains("version 9"));
    }
}
