//! MDA-Lite: hop-by-hop multipath discovery with opportunistic escalation.
//!
//! "The MDA-Lite … reserves node control for particular cases and proceeds
//! hop by hop in the general case" (Sec. 2.3). Per hop it:
//!
//! 1. **Discovers vertices** with the plain stopping rule, reusing flow
//!    identifiers from the previous hop first (one per vertex, then the
//!    rest, then fresh ones) — no node control.
//! 2. **Completes edges deterministically** (Sec. 2.3.1): any vertex at
//!    the previous hop without an identified successor gets one forward
//!    probe with a flow known to reach it; any vertex at the current hop
//!    without an identified predecessor gets one backward probe with a
//!    flow that discovered it.
//! 3. **Tests for meshing** (Sec. 2.3.2) when both hops are multi-vertex:
//!    φ flow identifiers per vertex are gathered on the wider hop (a
//!    light, bounded form of node control) and traced to the narrower hop;
//!    any degree ≥ 2 reveals meshing.
//! 4. **Tests for width asymmetry** (Sec. 2.3.3): unequal successor counts
//!    at the earlier hop or predecessor counts at the later hop.
//!
//! Either detection *switches over to the full MDA*, which resumes over
//! everything already learned — matching the paper's observation that a
//! switched run enjoys no probe economy.
//!
//! The algorithm lives in [`crate::session::MdaLiteSession`], a sans-IO
//! state machine; this entry point runs one session on a
//! [`SweepEngine`], the one driver.

use crate::config::TraceConfig;
use crate::engine::SweepEngine;
use crate::session::MdaLiteSession;
use crate::trace::Trace;
use mlpt_wire::transport::SplitTransport;
use std::net::Ipv4Addr;

/// Traces the multipath topology towards `destination` with MDA-Lite
/// (switching to the full MDA when meshing or non-uniformity is
/// detected), as a one-session sweep on `engine`.
pub fn trace_mda_lite<T: SplitTransport>(
    engine: &mut SweepEngine<T>,
    destination: Ipv4Addr,
    config: &TraceConfig,
) -> Trace {
    engine
        .run_trace(MdaLiteSession::new(destination, config.clone()))
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stopping::StoppingPoints;
    use crate::trace::SwitchReason;
    use mlpt_sim::SimNetwork;
    use mlpt_topo::{canonical, MultipathTopology};
    use std::collections::BTreeSet;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

    fn run_on(topo: &MultipathTopology, seed: u64) -> Trace {
        let net = SimNetwork::new(topo.clone(), seed);
        let mut engine = SweepEngine::new(net, SRC);
        let config = TraceConfig::new(seed ^ 0x55);
        trace_mda_lite(&mut engine, topo.destination(), &config)
    }

    fn assert_complete(topo: &MultipathTopology, trace: &Trace) {
        let discovered = trace.to_topology().expect("reached destination");
        assert_eq!(discovered.num_hops(), topo.num_hops());
        for i in 0..topo.num_hops() {
            let want: BTreeSet<Ipv4Addr> = topo.hop(i).iter().copied().collect();
            let got: BTreeSet<Ipv4Addr> = discovered.hop(i).iter().copied().collect();
            assert_eq!(got, want, "hop {i} vertex mismatch");
        }
        let want_edges: BTreeSet<_> = topo.edges().collect();
        let got_edges: BTreeSet<_> = discovered.edges().collect();
        assert_eq!(got_edges, want_edges, "edge mismatch");
    }

    #[test]
    fn discovers_simplest_diamond_without_switching() {
        let topo = canonical::simplest_diamond();
        let trace = run_on(&topo, 4);
        assert!(trace.switched.is_none());
        assert_complete(&topo, &trace);
    }

    #[test]
    fn discovers_fig1_unmeshed_without_switching() {
        let topo = canonical::fig1_unmeshed();
        let trace = run_on(&topo, 6);
        assert!(trace.switched.is_none(), "unmeshed uniform: no switch");
        assert_complete(&topo, &trace);
    }

    #[test]
    fn max_length_2_no_meshing_test_possible() {
        // Single multi-vertex hop: no adjacent multi-vertex pair, so no
        // meshing test and no switch — the case where MDA-Lite shines.
        let topo = canonical::max_length_2();
        let trace = run_on(&topo, 8);
        assert!(trace.switched.is_none());
        assert_complete(&topo, &trace);
    }

    #[test]
    fn symmetric_no_switch() {
        let topo = canonical::symmetric();
        let trace = run_on(&topo, 10);
        assert!(trace.switched.is_none(), "got {:?}", trace.switched);
        assert_complete(&topo, &trace);
    }

    #[test]
    fn meshed_fig1_switches_on_meshing() {
        let topo = canonical::fig1_meshed();
        let trace = run_on(&topo, 3);
        assert!(
            matches!(trace.switched, Some(SwitchReason::MeshingDetected { .. })),
            "got {:?}",
            trace.switched
        );
        assert_complete(&topo, &trace);
    }

    #[test]
    fn asymmetric_switches_on_asymmetry() {
        let topo = canonical::asymmetric();
        let trace = run_on(&topo, 2);
        assert!(
            trace.switched.is_some(),
            "asymmetric diamond must trigger a switch"
        );
    }

    #[test]
    fn lite_cheaper_than_mda_on_uniform_unmeshed() {
        // The headline claim: on uniform unmeshed diamonds MDA-Lite uses
        // significantly fewer probes while discovering the same topology.
        let topo = canonical::max_length_2();
        let mut lite_total = 0u64;
        let mut mda_total = 0u64;
        for seed in 0..10u64 {
            let net = SimNetwork::new(topo.clone(), seed);
            let mut p = SweepEngine::new(net, SRC);
            let config = TraceConfig::new(seed);
            lite_total += trace_mda_lite(&mut p, topo.destination(), &config).probes_sent;

            let net = SimNetwork::new(topo.clone(), seed);
            let mut p = SweepEngine::new(net, SRC);
            mda_total += crate::mda::trace_mda(&mut p, topo.destination(), &config).probes_sent;
        }
        assert!(
            (lite_total as f64) < 0.8 * mda_total as f64,
            "lite {lite_total} vs mda {mda_total}"
        );
    }

    #[test]
    fn paper_probe_accounting_lite() {
        // Sec. 2.3.1: with Veitch Table 1, vertex discovery on the Fig. 1
        // diamonds costs n4 + n2 + 2·n1 = 68 probes (plus edge completion
        // and the meshing test, which the paper accounts separately).
        let topo = canonical::fig1_unmeshed();
        let mut totals = Vec::new();
        for seed in 0..20u64 {
            let net = SimNetwork::new(topo.clone(), seed);
            let mut p = SweepEngine::new(net, SRC);
            let config = TraceConfig::new(seed).with_stopping(StoppingPoints::veitch_table1());
            let trace = trace_mda_lite(&mut p, topo.destination(), &config);
            if trace.switched.is_none() {
                totals.push(trace.probes_sent);
            }
        }
        assert!(!totals.is_empty());
        let mean = totals.iter().sum::<u64>() as f64 / totals.len() as f64;
        // 68 discovery probes + bounded meshing-test and edge overhead.
        assert!(
            (68.0..100.0).contains(&mean),
            "mean lite probes {mean}, expected 68 + small overhead"
        );
    }

    #[test]
    fn no_false_discoveries_ever() {
        let topo = canonical::meshed();
        for seed in 0..3u64 {
            let trace = run_on(&topo, seed);
            for ttl in 1..=topo.num_hops() as u8 {
                for &v in trace.vertices_at(ttl) {
                    assert!(topo.contains(usize::from(ttl - 1), v), "phantom vertex {v}");
                }
            }
        }
    }

    #[test]
    fn meshed_switch_recovers_near_full_topology() {
        // The 48-wide meshed diamond has ~100 vertices with two successors
        // each, so even the full MDA misses a few edges with the 95 %
        // stopping points (per-vertex failure 0.03 compounds). The paper's
        // claim is the *switch* plus near-complete discovery, not
        // perfection.
        let topo = canonical::meshed();
        let trace = run_on(&topo, 1);
        assert!(trace.switched.is_some());
        let discovered = trace.to_topology().expect("reached destination");
        // All vertices found (every vertex has two chances via its two
        // predecessors).
        for i in 0..topo.num_hops() {
            let want: BTreeSet<Ipv4Addr> = topo.hop(i).iter().copied().collect();
            let got: BTreeSet<Ipv4Addr> = discovered.hop(i).iter().copied().collect();
            assert_eq!(got, want, "hop {i} vertex mismatch");
        }
        // Edges: at least 97 % discovered, none invented.
        let want_edges: BTreeSet<_> = topo.edges().collect();
        let mut witnessed: BTreeSet<(usize, Ipv4Addr, Ipv4Addr)> = BTreeSet::new();
        for ttl in 1..topo.num_hops() as u8 {
            for (from, tos) in trace.discovery.edges_from(ttl) {
                for to in tos {
                    witnessed.insert((usize::from(ttl - 1), from, to));
                }
            }
        }
        assert!(witnessed.is_subset(&want_edges), "phantom edges discovered");
        assert!(
            witnessed.len() as f64 >= 0.97 * want_edges.len() as f64,
            "only {}/{} edges discovered",
            witnessed.len(),
            want_edges.len()
        );
    }
}
