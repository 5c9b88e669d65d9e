//! Wire-format substrate: the packets Paris Traceroute actually sends.
//!
//! Multipath route tracing works by crafting UDP probe packets whose
//! *flow identifier* (the 5-tuple a per-flow load balancer hashes) is under
//! the tool's control, and by parsing the ICMP error messages routers send
//! back. This crate implements those formats from scratch:
//!
//! * [`ipv4`] — the IPv4 header (RFC 791), including header checksum.
//! * [`udp`] — the UDP header (RFC 768) with pseudo-header checksum.
//! * [`icmp`] — ICMPv4 Time Exceeded, Destination Unreachable, Echo and
//!   Echo Reply (RFC 792), with RFC 4884 multi-part extensions carrying
//!   RFC 4950 MPLS label-stack objects (used by the multilevel tracer).
//! * [`checksum`] — the Internet checksum (RFC 1071).
//! * [`flow`] — the Paris flow-identifier discipline: how a flow ID maps to
//!   UDP header fields so that varying the flow ID changes the load-balancer
//!   hash while keeping probes identifiable.
//! * [`probe`] — assembling complete probe packets and parsing complete
//!   reply packets, the two operations every prober performs.
//!
//! Design follows the sans-IO style: all types parse from and emit to plain
//! byte slices, carry no sockets, and are usable both against a real raw
//! socket and against the in-process Fakeroute simulator (which is how the
//! rest of the workspace uses them).

pub mod checksum;
pub mod flow;
pub mod icmp;
pub mod ipv4;
pub mod probe;
pub mod transport;
pub mod udp;

pub use flow::{FlowId, PARIS_BASE_SPORT, PARIS_DPORT};
pub use icmp::{IcmpType, IcmpView, MplsLabelStackEntry};
pub use ipv4::Ipv4Header;
pub use probe::{
    build_echo_probe, build_echo_probe_into, build_udp_probe, build_udp_probe_into, parse_reply,
    ProbePacket, ReplyKind, ReplyPacket,
};
pub use transport::{PacketBatch, PacketTransport, ReplyBatch, SplitTransport};
pub use udp::UdpHeader;

/// Errors arising while parsing or emitting packets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input shorter than the minimum for the structure being parsed.
    Truncated {
        /// What was being parsed.
        what: &'static str,
        /// Bytes required.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// A version / type field had an unsupported value.
    Unsupported {
        /// What was being parsed.
        what: &'static str,
        /// The offending value.
        value: u16,
    },
    /// A checksum did not verify.
    BadChecksum {
        /// Which checksum failed.
        what: &'static str,
    },
    /// A length field is inconsistent with the buffer.
    BadLength {
        /// What was being parsed.
        what: &'static str,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { what, needed, got } => {
                write!(f, "truncated {what}: need {needed} bytes, got {got}")
            }
            WireError::Unsupported { what, value } => {
                write!(f, "unsupported {what}: {value}")
            }
            WireError::BadChecksum { what } => write!(f, "bad {what} checksum"),
            WireError::BadLength { what } => write!(f, "inconsistent length in {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Result alias for wire operations.
pub type WireResult<T> = Result<T, WireError>;
