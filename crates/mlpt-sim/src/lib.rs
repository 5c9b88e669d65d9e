//! Fakeroute: a packet-level multipath network simulator.
//!
//! Section 3 of the paper introduces Fakeroute, "a network multipath
//! topology simulator that takes as input a given topology …, that
//! calculates the probability that the MDA will fail to discover the full
//! topology, and that runs the actual software tool in question repeatedly
//! on the topology to verify that the tool does indeed fail at the
//! predicted rate". This crate is that simulator:
//!
//! * [`network`] — [`SimNetwork`]: routes *real probe bytes* (IPv4+UDP or
//!   IPv4+ICMP Echo) through a [`mlpt_topo::MultipathTopology`] with
//!   deterministic per-flow load balancing and produces *real ICMP reply
//!   bytes*, exactly as the original Fakeroute sniffs and answers a tool's
//!   packets.
//! * [`router`] — ground-truth router models: IP-ID counter behaviours
//!   (shared, per-interface, constant, random, probe-copying), initial
//!   TTLs for fingerprinting, MPLS tunnel labels, direct-probe
//!   responsiveness. These drive the multilevel (alias resolution)
//!   experiments of Secs. 4–5.
//! * [`balance`] — the load-balancing hash: per-flow (default),
//!   per-packet and per-destination modes, with optional non-uniform
//!   weights (the paper's future-work item 1).
//! * [`faults`] — fault injection: probe/reply loss, per-router ICMP
//!   rate limiting, reply latency and blackholes (the paper's
//!   future-work item 2), fixed or stepped over the virtual clock.
//! * [`schedule`] — scheduled topology mutations: routes flap, load
//!   balancers reconfigure and MPLS tunnels reveal themselves at named
//!   virtual-clock ticks, violating MDA assumption (1) the way real
//!   networks do.
//! * [`analytic`] — the exact MDA failure probability of a topology under
//!   a given stopping-point table (the number Fakeroute validates tools
//!   against).
//! * [`validation`] — the statistical harness: run a tool many times,
//!   aggregate sample failure rates, report mean and confidence interval
//!   (the "1000 runs × 50 samples" experiment of Sec. 3).
//!
//! The simulator implements [`PacketTransport`], the byte-level boundary
//! that probers are written against; swapping in a raw-socket transport
//! would carry the same algorithms onto a real network.

pub mod analytic;
pub mod balance;
pub mod capture;
pub mod faults;
pub mod multi;
pub mod network;
pub mod router;
pub mod schedule;
pub mod validation;

pub use analytic::{mda_failure_probability, vertex_failure_probability};
pub use balance::{BalanceMode, FlowHasher};
pub use capture::CapturingTransport;
pub use faults::{FaultPlan, FaultSchedule};
pub use multi::{MultiNetwork, MultiNetworkError};
pub use network::{PacketTransport, SimNetwork, SimNetworkBuilder, TrafficCounters};
pub use router::{
    CounterBehavior, IpIdEngine, IpIdProfile, MplsProfile, ReplyClass, RouterProfile,
};
pub use schedule::{TopoMutation, TopologySchedule};
pub use validation::{validate_tool, ValidationReport};
