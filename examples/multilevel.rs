//! Multilevel route tracing: from interfaces to routers.
//!
//! Reproduces the paper's headline scenario (Sec. 4): a trace shows four
//! parallel interfaces at a hop — are they four routers, or fewer? The
//! multilevel tracer answers *during* the trace, using the Monotonic
//! Bounds Test on IP-ID series, initial-TTL fingerprints and MPLS labels,
//! then collapses the IP-level diamond to the router level.
//!
//! ```text
//! cargo run --example multilevel
//! ```

use mlpt::alias::rounds::RoundsConfig;
use mlpt::prelude::*;
use mlpt::sim::{IpIdProfile, RouterProfile};
use mlpt::topo::diamond::all_diamond_metrics;
use mlpt::topo::graph::addr;
use mlpt::topo::RouterId;

fn main() {
    // Ground truth: a 1-4-1 diamond whose four middle interfaces belong
    // to two routers (A: interfaces 0&1, B: interfaces 2&3).
    let mut b = MultipathTopology::builder();
    b.add_hop([addr(0, 0)]);
    b.add_hop([addr(1, 0), addr(1, 1), addr(1, 2), addr(1, 3)]);
    b.add_hop([addr(2, 0)]);
    b.connect_unmeshed(0);
    b.connect_unmeshed(1);
    let topology = b.build().expect("valid");
    let truth =
        RouterMap::from_alias_sets([vec![addr(1, 0), addr(1, 1)], vec![addr(1, 2), addr(1, 3)]]);

    // Router A keeps one shared IP-ID counter (MBT-resolvable);
    // router B stamps per-interface counters for ICMP errors — the case
    // the paper's Table 2 shows indirect probing cannot confirm.
    let network = SimNetwork::builder(topology.clone())
        .routers(truth.clone())
        .profile(RouterId(0), RouterProfile::well_behaved())
        .profile(
            RouterId(1),
            RouterProfile {
                ipid: IpIdProfile::per_interface_indirect(2, 3),
                ..RouterProfile::well_behaved()
            },
        )
        .seed(99)
        .build();

    let mut engine = SweepEngine::new(network, "192.0.2.1".parse().unwrap());
    let config = MultilevelConfig {
        trace: TraceConfig::new(5),
        rounds: RoundsConfig::default(),
    };
    let result = trace_multilevel(&mut engine, topology.destination(), &config);

    println!("IP-level view (what classic MDA-Lite reports):");
    let ip = result.ip_topology.as_ref().expect("destination reached");
    for (i, hop) in ip.hops().enumerate() {
        let labels: Vec<String> = hop.iter().map(|v| v.to_string()).collect();
        println!("  hop {:>2}  {}", i + 1, labels.join("  "));
    }
    let m = all_diamond_metrics(ip).pop().expect("one diamond");
    println!("  diamond max width: {}\n", m.max_width);

    println!("alias sets inferred while tracing:");
    for (router, set) in result.router_map.alias_sets() {
        let labels: Vec<String> = set.iter().map(|v| v.to_string()).collect();
        println!("  router {:?}: {}", router, labels.join("  "));
    }

    println!("\nrouter-level view:");
    let router = result.router_topology.as_ref().expect("collapsed");
    for (i, hop) in router.hops().enumerate() {
        let labels: Vec<String> = hop.iter().map(|v| v.to_string()).collect();
        println!("  hop {:>2}  {}", i + 1, labels.join("  "));
    }
    if let Some(m) = all_diamond_metrics(router).pop() {
        println!("  diamond max width: {}", m.max_width);
    }

    println!(
        "\ntrace probes: {}   alias-resolution probes: {}",
        result.trace.probes_sent, result.alias_probes
    );
    println!(
        "router A resolved: {} (shared counter — MBT confirms)",
        result.router_map.are_aliases(addr(1, 0), addr(1, 1))
    );
    println!(
        "router B resolved: {} (per-interface counters — indirect MBT cannot confirm, as in Table 2)",
        result.router_map.are_aliases(addr(1, 2), addr(1, 3))
    );
}
