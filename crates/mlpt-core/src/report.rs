//! Serializable trace reports — the tool's machine-readable output.
//!
//! Survey infrastructures archive traces in structured formats (scamper's
//! warts, M-Lab's paris-traceroute schema, ref. \[23\]); [`TraceReport`] is this
//! tool's equivalent: a self-contained, serde-serializable summary of one
//! multipath trace, including per-hop vertices with their flow counts and
//! the witnessed edges, suitable for JSON archival and later re-analysis.

use crate::trace::{Algorithm, SwitchReason, Trace, TraceOutcome};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// One interface observed at a hop.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReportVertex {
    /// The interface address.
    pub address: Ipv4Addr,
    /// How many distinct flows were observed reaching it.
    pub flows: usize,
    /// Whether this is the trace destination.
    pub is_destination: bool,
}

/// One hop of the report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReportHop {
    /// Probe TTL of this hop.
    pub ttl: u8,
    /// Interfaces observed, in discovery order.
    pub vertices: Vec<ReportVertex>,
    /// Probes sent at this TTL.
    pub probes: u64,
}

/// A witnessed edge between adjacent hops.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReportEdge {
    /// TTL of the `from` side.
    pub ttl: u8,
    /// Interface at `ttl`.
    pub from: Ipv4Addr,
    /// Interface at `ttl + 1`.
    pub to: Ipv4Addr,
}

/// The complete machine-readable trace summary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceReport {
    /// Algorithm that produced the trace.
    pub algorithm: Algorithm,
    /// Destination traced towards.
    pub destination: Ipv4Addr,
    /// Whether the destination answered.
    pub reached_destination: bool,
    /// Total probes sent.
    pub probes_sent: u64,
    /// Probes skipped thanks to shared-stop-set hits (0 outside
    /// stop-set sweeps).
    pub probes_elided: u64,
    /// MDA-Lite escalation, if any.
    pub switched: Option<SwitchReason>,
    /// Whether the probe budget was exhausted.
    pub budget_exhausted: bool,
    /// How the trace ended (complete, or gracefully degraded partial).
    pub outcome: TraceOutcome,
    /// Per-hop observations.
    pub hops: Vec<ReportHop>,
    /// Witnessed edges.
    pub edges: Vec<ReportEdge>,
}

impl TraceReport {
    /// Builds the report from a completed trace.
    pub fn from_trace(trace: &Trace) -> Self {
        let max_ttl = trace.discovery.max_observed_ttl();
        let mut hops = Vec::with_capacity(usize::from(max_ttl));
        let mut edges = Vec::new();
        for ttl in 1..=max_ttl {
            let vertices = trace
                .vertices_at(ttl)
                .iter()
                .map(|&address| ReportVertex {
                    address,
                    flows: trace.discovery.flows_at(ttl, address).len(),
                    is_destination: address == trace.destination,
                })
                .collect();
            hops.push(ReportHop {
                ttl,
                vertices,
                probes: trace.discovery.probes_at(ttl),
            });
            for (from, tos) in trace.discovery.edges_from(ttl) {
                for to in tos {
                    edges.push(ReportEdge { ttl, from, to });
                }
            }
        }
        Self {
            algorithm: trace.algorithm,
            destination: trace.destination,
            reached_destination: trace.reached_destination,
            probes_sent: trace.probes_sent,
            probes_elided: trace.probes_elided,
            switched: trace.switched,
            budget_exhausted: trace.budget_exhausted,
            outcome: trace.outcome,
            hops,
            edges,
        }
    }

    /// Total vertices across hops.
    pub fn total_vertices(&self) -> usize {
        self.hops.iter().map(|h| h.vertices.len()).sum()
    }

    /// Widest hop in the report.
    pub fn max_width(&self) -> usize {
        self.hops
            .iter()
            .map(|h| h.vertices.len())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TraceConfig;
    use crate::engine::SweepEngine;
    use crate::mda_lite::trace_mda_lite;
    use mlpt_sim::SimNetwork;
    use mlpt_topo::canonical;

    fn report() -> TraceReport {
        let topo = canonical::fig1_unmeshed();
        let net = SimNetwork::new(topo.clone(), 7);
        let mut engine = SweepEngine::new(net, "192.0.2.1".parse().unwrap());
        let trace = trace_mda_lite(&mut engine, topo.destination(), &TraceConfig::new(7));
        TraceReport::from_trace(&trace)
    }

    #[test]
    fn report_summarises_trace() {
        let r = report();
        assert_eq!(r.algorithm, Algorithm::MdaLite);
        assert!(r.reached_destination);
        assert_eq!(r.hops.len(), 4);
        assert_eq!(r.max_width(), 4);
        assert_eq!(r.total_vertices(), 8);
        assert!(!r.edges.is_empty());
        // Every hop reports its probe count; the whole trace's probes are
        // at least the per-hop sums (retries never under-count).
        let per_hop: u64 = r.hops.iter().map(|h| h.probes).sum();
        assert!(per_hop <= r.probes_sent + 1);
        // Destination flagged exactly once, at the last hop.
        let dest_flags: usize = r
            .hops
            .iter()
            .flat_map(|h| &h.vertices)
            .filter(|v| v.is_destination)
            .count();
        assert_eq!(dest_flags, 1);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let r = report();
        let json = serde_json::to_string(&r).unwrap();
        let back: TraceReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn flows_counts_positive() {
        let r = report();
        for hop in &r.hops {
            for v in &hop.vertices {
                assert!(v.flows >= 1, "{} observed with no flow", v.address);
            }
        }
    }
}
