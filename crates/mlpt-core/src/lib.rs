//! Core algorithms of Multilevel MDA-Lite Paris Traceroute.
//!
//! This crate implements the paper's route-tracing algorithms over any
//! byte-level [`mlpt_wire::SplitTransport`]:
//!
//! * [`stopping`] — the failure-controlled stopping points n_k
//!   (Veitch et al.), with the exact inclusion–exclusion rule and the
//!   paper's Table 1 preset.
//! * [`session`] — the algorithms themselves, as resumable **sans-IO
//!   state machines** ([`TraceSession`]): MDA, MDA-Lite and single-flow
//!   emit probe rounds and consume observations without touching a
//!   transport, so the sweep engine drives one trace and thousands
//!   alike. The [`ProbeSession`] generalisation
//!   speaks typed probe requests (TTL-limited UDP *and* ICMP echo), so
//!   protocols beyond tracing — above all alias resolution — run as
//!   sessions too.
//! * [`engine`] — the [`SweepEngine`], the one driver: many sessions
//!   (one per destination) interleaved over one shared [`mlpt_wire`]
//!   transport, with cross-destination batch merging, slot-verified
//!   reply demultiplexing and an in-flight token budget. A single trace
//!   is a sweep of one session ([`SweepEngine::run_session`]).
//! * [`shard`] — the [`ShardedSweepEngine`]: the destination space
//!   partitioned deterministically across N engine shards driven in
//!   parallel by sweep-long worker threads, with the shared stop set
//!   committed across shards at source-order generation barriers
//!   (bit-identical to the single engine for any shard count).
//! * [`mda`] — the classic Multipath Detection Algorithm with node
//!   control (one-session sweep over its session).
//! * [`mda_lite`] — MDA-Lite: hop-by-hop discovery, deterministic edge
//!   completion, the φ-probe meshing test, the width-asymmetry test, and
//!   switchover to the full MDA (one-session sweep).
//! * [`single_flow`] — Paris traceroute with a single flow identifier
//!   (the RIPE Atlas baseline; one-session sweep).
//! * [`prober`] — probe specs and observations, plus the observation
//!   log ([`LoggedSession`]) that feeds alias resolution.
//! * [`discovery`] / [`trace`] — the evidence base shared by the
//!   algorithms and the trace result type with topology conversion.
//! * [`stopset`] — Doubletree-style sweep-wide shared stop sets:
//!   `(TTL, interface)` pairs confirmed by earlier sessions let later
//!   sessions start mid-path, probe backward to a shared-stop hit, and
//!   elide the redundant near-source prefix.
//! * [`artifact`] — route-change artifact detection (Viger et al.
//!   taxonomy) and the bounded audit/recovery protocol sessions run
//!   after their stopping rule fires, under a [`ReprobeBudget`].
//!
//! # Quickstart
//!
//! ```
//! use mlpt_core::prelude::*;
//! use mlpt_sim::SimNetwork;
//! use mlpt_topo::canonical;
//!
//! let topology = canonical::fig1_unmeshed();
//! let destination = topology.destination();
//! let network = SimNetwork::new(topology, 42);
//! let mut engine = SweepEngine::new(network, "192.0.2.1".parse().unwrap());
//! let trace = trace_mda_lite(&mut engine, destination, &TraceConfig::new(42));
//! assert!(trace.reached_destination);
//! assert_eq!(trace.vertices_at(2).len(), 4); // the four load-balanced interfaces
//! ```

pub mod artifact;
pub mod config;
pub mod discovery;
pub mod engine;
pub mod mda;
pub mod mda_lite;
mod pending;
pub mod prober;
pub mod report;
pub mod session;
pub mod shard;
pub mod single_flow;
pub mod stopping;
pub mod stopset;
pub mod trace;

pub use artifact::{ArtifactKind, AuditVerdict, ReprobeBudget, RouteAudit, RouteHealth};
pub use config::TraceConfig;
pub use discovery::{Discovery, FlowAllocator};
pub use engine::{AdaptiveBudget, Admission, SweepConfig, SweepEngine, SweepStats};
pub use mda::trace_mda;
pub use mda_lite::trace_mda_lite;
pub use prober::{DirectObservation, LoggedSession, ProbeLog, ProbeObservation};
pub use report::TraceReport;
pub use session::{
    MdaLiteSession, MdaSession, ProbeOutcome, ProbeRequest, ProbeSession, SessionState,
    SingleFlowSession, TraceProbeSession, TraceSession,
};
pub use shard::{shard_of, ShardedSweepEngine};
pub use single_flow::trace_single_flow;
pub use stopping::StoppingPoints;
pub use stopset::{
    contribution_from_discovery, SharedStopSet, StopContribution, StopMeta, StopSeen,
    StopSetConfig, StopSnapshot,
};
pub use trace::{Algorithm, PartialReason, SwitchReason, Trace, TraceOutcome};

/// Convenient glob import for downstream users.
pub mod prelude {
    pub use crate::artifact::{ReprobeBudget, RouteHealth};
    pub use crate::config::TraceConfig;
    pub use crate::engine::{AdaptiveBudget, Admission, SweepConfig, SweepEngine, SweepStats};
    pub use crate::mda::trace_mda;
    pub use crate::mda_lite::trace_mda_lite;
    pub use crate::prober::LoggedSession;
    pub use crate::session::{
        MdaLiteSession, MdaSession, ProbeOutcome, ProbeRequest, ProbeSession, SessionState,
        SingleFlowSession, TraceSession,
    };
    pub use crate::shard::{shard_of, ShardedSweepEngine};
    pub use crate::single_flow::trace_single_flow;
    pub use crate::stopping::StoppingPoints;
    pub use crate::stopset::{StopContribution, StopSetConfig, StopSnapshot};
    pub use crate::trace::{Algorithm, PartialReason, SwitchReason, Trace, TraceOutcome};
    pub use mlpt_wire::FlowId;
}

#[cfg(test)]
mod tests {
    /// The executable spec of the workspace's `clippy.toml`: one
    /// statement per kind of ban, each expecting the lint it raises.
    /// Dropping a ban leaves its expectation unfulfilled, which fails
    /// `cargo clippy --all-targets -- -D warnings`. The closing `for`
    /// only shows that `iter_over_hash_type` fires on such a loop: an
    /// expectation turns its lint on where it stands, so it does not
    /// guard the lint's entry in `[workspace.lints.clippy]`.
    #[test]
    fn clippy_canary() {
        #[expect(clippy::disallowed_methods, reason = "canary: wall clock")]
        let _ = std::time::Instant::now();
        #[expect(clippy::disallowed_methods, reason = "canary: wall clock")]
        let _ = std::time::SystemTime::now();
        #[expect(clippy::disallowed_types, reason = "canary: OS-seeded hasher")]
        let _ = std::hash::RandomState::new();
        #[expect(clippy::disallowed_types, reason = "canary: hash map")]
        let map = std::collections::HashMap::from([(1u32, 1u32)]);
        #[expect(clippy::disallowed_types, reason = "canary: hash set")]
        let set = std::collections::HashSet::from([1u32]);
        #[expect(clippy::disallowed_methods, reason = "canary: hash-order iteration")]
        let _ = map.values();
        #[expect(clippy::iter_over_hash_type, reason = "canary: `for` over a hash set")]
        for _ in &set {}
    }
}
