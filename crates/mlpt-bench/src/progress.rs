//! Discovery trajectories: fraction of the topology found vs packets sent.
//!
//! Fig. 3 plots, for each algorithm and topology, the portion of vertices
//! and edges discovered as a function of probes sent (normalised to the
//! MDA's total). The algorithms don't expose mid-run state, but the probe
//! log is a complete record: replaying it reconstructs the discovery
//! curve exactly.

use mlpt_core::engine::SweepEngine;
use mlpt_core::prober::{LoggedSession, ProbeLog};
use mlpt_core::session::TraceSession;
use mlpt_core::trace::Trace;
use mlpt_sim::SimNetwork;
use mlpt_topo::MultipathTopology;
use mlpt_wire::FlowId;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// Traces `topo` with `session` over a simulator seeded `seed`, returning
/// the trace and its observation log.
pub fn logged_trace(
    topo: &MultipathTopology,
    seed: u64,
    session: impl TraceSession,
) -> (Trace, ProbeLog) {
    let mut engine = SweepEngine::new(
        SimNetwork::new(topo.clone(), seed),
        Ipv4Addr::new(192, 0, 2, 1),
    );
    let (trace, logged) = engine.run_trace(LoggedSession::new(session));
    (trace, logged.into_log())
}

/// One point on a discovery curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressPoint {
    /// Probes sent so far.
    pub packets: u64,
    /// Distinct (hop, vertex) pairs discovered so far.
    pub vertices: usize,
    /// Distinct (hop, from, to) edges witnessed so far.
    pub edges: usize,
}

/// Replays an indirect probe log into a discovery curve.
///
/// Vertices/edges are counted against ground truth membership so that
/// phantom responses (impossible in the simulator) would not inflate the
/// curve.
pub fn replay(log: &ProbeLog, truth: &MultipathTopology) -> Vec<ProgressPoint> {
    let mut vertices: BTreeSet<(u8, Ipv4Addr)> = BTreeSet::new();
    let mut edges: BTreeSet<(u8, Ipv4Addr, Ipv4Addr)> = BTreeSet::new();
    let mut flow_paths: BTreeMap<FlowId, BTreeMap<u8, Ipv4Addr>> = BTreeMap::new();
    let mut curve = Vec::with_capacity(log.indirect.len());

    for (i, obs) in log.indirect.iter().enumerate() {
        let hop = usize::from(obs.ttl - 1);
        if truth.contains(hop, obs.responder) {
            vertices.insert((obs.ttl, obs.responder));

            // Edges adjacent single-vertex hops imply deterministically
            // (all flows pass through the single vertex): both the MDA and
            // MDA-Lite report them without needing a flow observed at both
            // TTLs, so the curve credits them at discovery time.
            if hop > 0 && truth.hop(hop - 1).len() == 1 {
                let parent = truth.hop(hop - 1)[0];
                if vertices.contains(&(obs.ttl - 1, parent)) {
                    edges.insert((obs.ttl - 1, parent, obs.responder));
                }
            }
            if hop + 1 < truth.num_hops() && truth.hop(hop + 1).len() == 1 {
                let child = truth.hop(hop + 1)[0];
                if vertices.contains(&(obs.ttl + 1, child)) {
                    edges.insert((obs.ttl, obs.responder, child));
                }
            }
            if truth.hop(hop).len() == 1 {
                // A newly discovered single vertex implies edges to every
                // already-discovered neighbour on both sides (it is the
                // only possible successor / predecessor there).
                for &(t, v) in vertices.clone().iter() {
                    if hop > 0 && usize::from(t) == hop {
                        edges.insert((obs.ttl - 1, v, obs.responder));
                    }
                    if hop + 1 < truth.num_hops() && usize::from(t) == hop + 2 {
                        edges.insert((obs.ttl, obs.responder, v));
                    }
                }
            }
        }
        let path = flow_paths.entry(obs.flow).or_default();
        path.insert(obs.ttl, obs.responder);
        // New edges this flow witnesses with its neighbours.
        if obs.ttl >= 2 {
            if let Some(&prev) = path.get(&(obs.ttl - 1)) {
                if truth.successors(hop - 1, prev).contains(&obs.responder) {
                    edges.insert((obs.ttl - 1, prev, obs.responder));
                }
            }
        }
        if let Some(&next) = path.get(&(obs.ttl + 1)) {
            if truth.successors(hop, obs.responder).contains(&next) {
                edges.insert((obs.ttl, obs.responder, next));
            }
        }
        curve.push(ProgressPoint {
            packets: (i + 1) as u64,
            vertices: vertices.len(),
            edges: edges.len(),
        });
    }
    curve
}

/// Samples a curve at a normalised packet fraction `x` of `total_packets`,
/// returning (vertex fraction, edge fraction) against ground truth counts.
pub fn sample_at(
    curve: &[ProgressPoint],
    truth: &MultipathTopology,
    total_packets: u64,
    x: f64,
) -> (f64, f64) {
    let target = (x * total_packets as f64).round() as u64;
    let total_vertices = truth.total_vertices() as f64;
    let total_edges = truth.total_edges() as f64;
    let point = curve
        .iter()
        .rev()
        .find(|p| p.packets <= target)
        .copied()
        .unwrap_or(ProgressPoint {
            packets: 0,
            vertices: 0,
            edges: 0,
        });
    (
        point.vertices as f64 / total_vertices,
        point.edges as f64 / total_edges,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpt_core::prelude::*;
    use mlpt_topo::canonical;

    /// An MDA trace of `topo` (simulator and trace seeded `seed`) and
    /// its observation log.
    fn mda_logged(topo: &MultipathTopology, seed: u64) -> (Trace, ProbeLog) {
        logged_trace(
            topo,
            seed,
            MdaSession::new(topo.destination(), TraceConfig::new(seed)),
        )
    }

    #[test]
    fn replay_monotone_and_complete() {
        let topo = canonical::fig1_unmeshed();
        let (trace, log) = mda_logged(&topo, 5);
        assert!(trace.reached_destination);
        let curve = replay(&log, &topo);
        assert!(!curve.is_empty());
        // Monotone non-decreasing.
        for w in curve.windows(2) {
            assert!(w[1].vertices >= w[0].vertices);
            assert!(w[1].edges >= w[0].edges);
            assert_eq!(w[1].packets, w[0].packets + 1);
        }
        // Ends at full vertex discovery for a green run.
        let last = curve.last().unwrap();
        assert_eq!(last.vertices, topo.total_vertices());
    }

    #[test]
    fn sample_fractions() {
        let topo = canonical::simplest_diamond();
        let (_, log) = mda_logged(&topo, 2);
        let curve = replay(&log, &topo);
        let total = curve.last().unwrap().packets;
        let (v0, e0) = sample_at(&curve, &topo, total, 0.0);
        let (v1, e1) = sample_at(&curve, &topo, total, 1.0);
        assert_eq!((v0, e0), (0.0, 0.0));
        assert!(v1 >= 0.99, "end of curve = full discovery, got {v1}");
        assert!(e1 > 0.0);
    }
}
