//! Statistical validation of a tracing tool against its analytic bound
//! (the paper's Sec. 3 experiment).
//!
//! For the simplest diamond and the 95 % stopping points, the MDA's
//! failure probability is exactly (1/2)^(n₁-1) = 0.03125. Fakeroute runs
//! the real implementation many times and checks that the empirical
//! failure rate matches — "not more, not less". Try breaking the tool
//! (e.g. fewer probes) and watch the validation fail.
//!
//! ```text
//! cargo run --release --example fakeroute_validation
//! ```

use mlpt::prelude::*;
use mlpt::sim::validate_tool;
use mlpt::topo::canonical;

fn main() {
    let topology = canonical::simplest_diamond();
    let stopping = StoppingPoints::mda95();
    let nks = stopping.as_slice().to_vec();

    println!("topology: simplest diamond (1-2-1)");
    println!(
        "analytic MDA failure probability: {:.5}\n",
        mlpt::sim::mda_failure_probability(&topology, &nks)
    );

    // Validate the real MDA implementation: 20 samples x 500 runs.
    println!("validating the real MDA (20 samples x 500 runs) ...");
    let report = validate_tool(&topology, &nks, 20, 500, 42, 0.95, |net, seed| {
        let destination = net.topology().destination();
        let want_vertices = net.topology().total_vertices();
        let mut engine = SweepEngine::new(net, "192.0.2.1".parse().unwrap());
        let trace = trace_mda(&mut engine, destination, &TraceConfig::new(seed));
        trace.total_vertices() == want_vertices
    });
    println!(
        "  empirical failure: {:.5}  CI: [{:.5}, {:.5}]  analytic inside: {}",
        report.interval.mean,
        report.interval.low(),
        report.interval.high(),
        report.analytic_within_interval()
    );

    // Now a deliberately broken tool: three single-flow traceroutes, so
    // only 3 probes per hop. It must fail far above the bound.
    println!("\nvalidating a broken tool (3 probes per hop) ...");
    let broken = validate_tool(&topology, &nks, 20, 500, 42, 0.95, |net, seed| {
        let destination = net.topology().destination();
        let want = net.topology().total_vertices();
        let mut engine = SweepEngine::new(net, "192.0.2.1".parse().unwrap());
        let mut found = std::collections::BTreeSet::new();
        for s in 0..3u16 {
            let flow = FlowId(seed as u16 ^ (s * 64));
            let trace = trace_single_flow(&mut engine, destination, &TraceConfig::new(seed), flow);
            for ttl in 1..=3u8 {
                found.extend(trace.vertices_at(ttl).iter().map(|&v| (ttl, v)));
            }
        }
        found.len() == want
    });
    println!(
        "  empirical failure: {:.5}  CI: [{:.5}, {:.5}]  analytic inside: {}",
        broken.interval.mean,
        broken.interval.low(),
        broken.interval.high(),
        broken.analytic_within_interval()
    );
    println!("\nverdict: the MDA respects its bound; the under-probing tool does not.");
}
