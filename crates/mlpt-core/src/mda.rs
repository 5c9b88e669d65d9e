//! The Multipath Detection Algorithm (MDA) with node control.
//!
//! The MDA "proceeds vertex by vertex, employing node control to seek the
//! successors to each vertex individually" (Sec. 2.3). For each vertex `u`
//! at hop `t−1` it sends probes *via* `u` to hop `t` — which requires flow
//! identifiers known to reach `u` — until the stopping rule n_k fires for
//! the number of successors found through `u`. When `u` runs out of known
//! flows, *node control* generates fresh flow IDs and probes them at hop
//! `t−1` until enough land on `u` — the Multiple Coupon Collector cost the
//! paper calls δ.
//!
//! The paper's worked example (Sec. 2.1, Veitch Table 1 values) emerges
//! from this implementation probe for probe: the unmeshed 1-4-2-1 diamond
//! costs 11·n₁ + δ probes, the meshed one 8·n₂ + 3·n₁ + δ′.
//!
//! The algorithm itself lives in [`crate::session::MdaSession`], a sans-IO
//! state machine; this entry point runs one session on a
//! [`SweepEngine`], the one driver.

use crate::config::TraceConfig;
use crate::engine::SweepEngine;
use crate::session::MdaSession;
use crate::trace::Trace;
use mlpt_wire::transport::SplitTransport;
use std::net::Ipv4Addr;

/// Traces the multipath topology towards `destination` with the full
/// MDA, as a one-session sweep on `engine`.
pub fn trace_mda<T: SplitTransport>(
    engine: &mut SweepEngine<T>,
    destination: Ipv4Addr,
    config: &TraceConfig,
) -> Trace {
    engine
        .run_trace(MdaSession::new(destination, config.clone()))
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stopping::StoppingPoints;
    use mlpt_sim::SimNetwork;
    use mlpt_topo::{canonical, MultipathTopology};

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

    fn run_on(topo: &MultipathTopology, seed: u64) -> Trace {
        let net = SimNetwork::new(topo.clone(), seed);
        let mut engine = SweepEngine::new(net, SRC);
        let config = TraceConfig::new(seed ^ 0xAA);
        trace_mda(&mut engine, topo.destination(), &config)
    }

    /// Discovery soundness + completeness against ground truth.
    fn assert_complete(topo: &MultipathTopology, trace: &Trace) {
        assert!(trace.reached_destination);
        let discovered = trace.to_topology().expect("reached destination");
        assert_eq!(discovered.num_hops(), topo.num_hops(), "hop count mismatch");
        for i in 0..topo.num_hops() {
            let want: BTreeSet<Ipv4Addr> = topo.hop(i).iter().copied().collect();
            let got: BTreeSet<Ipv4Addr> = discovered.hop(i).iter().copied().collect();
            assert_eq!(got, want, "hop {i} vertex mismatch");
        }
        let want_edges: BTreeSet<_> = topo.edges().collect();
        let got_edges: BTreeSet<_> = discovered.edges().collect();
        assert_eq!(got_edges, want_edges, "edge set mismatch");
    }

    #[test]
    fn discovers_simplest_diamond() {
        let topo = canonical::simplest_diamond();
        // Seeds giving full discovery dominate (failure prob 3%): try one.
        let trace = run_on(&topo, 3);
        assert_complete(&topo, &trace);
    }

    #[test]
    fn discovers_fig1_unmeshed() {
        let topo = canonical::fig1_unmeshed();
        let trace = run_on(&topo, 5);
        assert_complete(&topo, &trace);
    }

    #[test]
    fn discovers_fig1_meshed() {
        let topo = canonical::fig1_meshed();
        let trace = run_on(&topo, 5);
        assert_complete(&topo, &trace);
    }

    #[test]
    fn discovers_symmetric() {
        let topo = canonical::symmetric();
        let trace = run_on(&topo, 11);
        assert_complete(&topo, &trace);
    }

    #[test]
    fn no_false_discoveries_ever() {
        // Soundness: every vertex and edge reported must exist in truth,
        // for any seed, even when discovery is incomplete.
        let topo = canonical::asymmetric();
        for seed in 0..5u64 {
            let trace = run_on(&topo, seed);
            for ttl in 1..=topo.num_hops() as u8 {
                for &v in trace.vertices_at(ttl) {
                    assert!(
                        topo.contains(usize::from(ttl - 1), v),
                        "seed {seed}: phantom vertex {v} at ttl {ttl}"
                    );
                }
                let edges = trace.discovery.edges_from(ttl);
                for (from, tos) in edges {
                    for to in tos {
                        assert!(
                            topo.successors(usize::from(ttl - 1), from).contains(&to),
                            "seed {seed}: phantom edge {from}->{to}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn paper_probe_accounting_unmeshed() {
        // With Veitch Table 1 stopping points, the unmeshed 1-4-2-1 diamond
        // costs 11·n1 + δ = 99 + δ probes (Sec. 2.1). δ is the coupon-
        // collector overhead — small but positive in expectation.
        let topo = canonical::fig1_unmeshed();
        let mut total = 0u64;
        let runs = 20;
        for seed in 0..runs {
            let net = SimNetwork::new(topo.clone(), seed);
            let mut engine = SweepEngine::new(net, SRC);
            let config = TraceConfig::new(seed).with_stopping(StoppingPoints::veitch_table1());
            let trace = trace_mda(&mut engine, topo.destination(), &config);
            total += trace.probes_sent;
        }
        let mean = total as f64 / runs as f64;
        assert!(
            (99.0..135.0).contains(&mean),
            "mean probes {mean}, expected 99 + δ"
        );
    }

    #[test]
    fn paper_probe_accounting_meshed() {
        // Meshed diamond: 8·n2 + 3·n1 + δ' = 163 + δ'.
        let topo = canonical::fig1_meshed();
        let mut total = 0u64;
        let runs = 20;
        for seed in 0..runs {
            let net = SimNetwork::new(topo.clone(), seed);
            let mut engine = SweepEngine::new(net, SRC);
            let config = TraceConfig::new(seed).with_stopping(StoppingPoints::veitch_table1());
            let trace = trace_mda(&mut engine, topo.destination(), &config);
            total += trace.probes_sent;
        }
        let mean = total as f64 / runs as f64;
        assert!(
            (163.0..210.0).contains(&mean),
            "mean probes {mean}, expected 163 + δ'"
        );
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let topo = canonical::meshed();
        let net = SimNetwork::new(topo.clone(), 1);
        let mut engine = SweepEngine::new(net, SRC);
        let config = TraceConfig::new(1).with_probe_budget(50);
        let trace = trace_mda(&mut engine, topo.destination(), &config);
        assert!(trace.budget_exhausted);
        assert!(trace.probes_sent <= 51);
    }

    #[test]
    fn empirical_failure_rate_matches_analytic() {
        // The MDA run through the real packet path must fail at the
        // analytic rate on the simplest diamond (0.03125 for 95% table).
        let topo = canonical::simplest_diamond();
        let runs = 600u64;
        let mut failures = 0u64;
        for seed in 0..runs {
            let trace = run_on(&topo, seed);
            let complete = trace.total_vertices() == topo.total_vertices()
                && trace.total_edges() == topo.total_edges();
            if !complete {
                failures += 1;
            }
        }
        let rate = failures as f64 / runs as f64;
        assert!(
            (rate - 0.03125).abs() < 0.02,
            "failure rate {rate} vs analytic 0.03125"
        );
    }

    use std::collections::BTreeSet;
}
