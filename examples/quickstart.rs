//! Quickstart: trace a load-balanced topology with MDA-Lite.
//!
//! Builds the paper's Fig. 1 unmeshed diamond, serves it through the
//! Fakeroute simulator, traces it with MDA-Lite, and prints the
//! discovered hop-by-hop view alongside the probe bill — the basic
//! workflow every other example elaborates.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use mlpt::prelude::*;

fn main() {
    // The topology under test: divergence → 4 interfaces → 2 → convergence.
    let topology = mlpt::topo::canonical::fig1_unmeshed();
    let destination = topology.destination();
    println!(
        "ground truth: {} hops, {} vertices, {} edges, destination {destination}\n",
        topology.num_hops(),
        topology.total_vertices(),
        topology.total_edges()
    );

    // Fakeroute serves real ICMP replies for real UDP probes; the sweep
    // engine drives the trace, here a sweep of one destination.
    let network = SimNetwork::new(topology.clone(), 2026);
    let mut engine = SweepEngine::new(network, "192.0.2.1".parse().unwrap());

    // Trace with MDA-Lite (95 % stopping points, phi = 2).
    let config = TraceConfig::new(7);
    let trace = trace_mda_lite(&mut engine, destination, &config);

    println!("MDA-Lite trace to {destination}:");
    for ttl in 1..=trace.destination_ttl().unwrap_or(0) {
        let vertices = trace.vertices_at(ttl);
        let labels: Vec<String> = vertices.iter().map(|v| v.to_string()).collect();
        println!("  ttl {ttl:>2}  {}", labels.join("  "));
    }
    println!("\nprobes sent          : {}", trace.probes_sent);
    println!("switched to full MDA : {:?}", trace.switched);
    println!(
        "discovery complete   : {}",
        trace.total_vertices() == topology.total_vertices()
    );

    // Compare with the full MDA on the same network conditions.
    let network = SimNetwork::new(topology.clone(), 2026);
    let mut engine = SweepEngine::new(network, "192.0.2.1".parse().unwrap());
    let mda = trace_mda(&mut engine, destination, &config);
    println!(
        "\nfull MDA on the same topology: {} probes ({}% more than MDA-Lite)",
        mda.probes_sent,
        100 * (mda.probes_sent.saturating_sub(trace.probes_sent)) / trace.probes_sent.max(1)
    );
}
