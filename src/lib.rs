//! # Multilevel MDA-Lite Paris Traceroute
//!
//! A from-scratch Rust implementation of the systems described in
//! *"Multilevel MDA-Lite Paris Traceroute"* (Vermeulen, Strowes, Fourmaux,
//! Friedman — ACM IMC 2018): multipath route tracing with failure control
//! (the MDA), its low-overhead successor (MDA-Lite), the Fakeroute
//! validation simulator, in-trace alias resolution ("multilevel" tracing),
//! and the survey pipeline that reproduces the paper's evaluation.
//!
//! This crate is a facade re-exporting the workspace's public API:
//!
//! * [`wire`] — IPv4/UDP/ICMP packet formats and the Paris flow-ID
//!   discipline ([`mlpt_wire`]).
//! * [`stats`] — CDFs, histograms, confidence intervals ([`mlpt_stats`]).
//! * [`topo`] — multipath topologies, diamonds and their metrics
//!   ([`mlpt_topo`]).
//! * [`sim`] — the Fakeroute packet-level simulator and analytic failure
//!   bounds ([`mlpt_sim`]).
//! * [`core`] — the MDA, MDA-Lite and single-flow tracing algorithms
//!   and the sweep engine that drives them, one destination or many
//!   ([`mlpt_core`]).
//! * [`alias`] — the Monotonic Bounds Test, fingerprinting, MPLS
//!   labeling and the multilevel tracer ([`mlpt_alias`]).
//! * [`survey`] — the synthetic Internet and the IP/router-level surveys
//!   ([`mlpt_survey`]).
//!
//! ## Quickstart
//!
//! ```
//! use mlpt::prelude::*;
//!
//! // A known multipath topology (the paper's Fig. 1 unmeshed diamond),
//! // served by the Fakeroute simulator.
//! let topology = mlpt::topo::canonical::fig1_unmeshed();
//! let destination = topology.destination();
//! let network = mlpt::sim::SimNetwork::new(topology, 42);
//!
//! // Trace it with MDA-Lite over real probe packets: a sweep of one
//! // destination on the sweep engine.
//! let mut engine = SweepEngine::new(network, "192.0.2.1".parse().unwrap());
//! let trace = trace_mda_lite(&mut engine, destination, &TraceConfig::new(42));
//!
//! assert!(trace.reached_destination);
//! assert_eq!(trace.vertices_at(2).len(), 4); // four load-balanced interfaces
//! assert!(trace.switched.is_none());          // uniform & unmeshed: no escalation
//! ```

pub use mlpt_alias as alias;
pub use mlpt_core as core;
pub use mlpt_sim as sim;
pub use mlpt_stats as stats;
pub use mlpt_survey as survey;
pub use mlpt_topo as topo;
pub use mlpt_wire as wire;

/// One-stop imports for applications.
pub mod prelude {
    pub use mlpt_alias::multilevel::{trace_multilevel, MultilevelConfig};
    pub use mlpt_core::prelude::*;
    pub use mlpt_sim::{FaultPlan, FaultSchedule, SimNetwork, TopoMutation, TopologySchedule};
    pub use mlpt_topo::{MultipathTopology, RouterMap};
}
