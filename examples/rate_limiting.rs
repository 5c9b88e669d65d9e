//! Probing under ICMP rate limiting — the paper's future-work item 2.
//!
//! "Some assumptions, such as that every probe will receive a reply,
//! often do not hold in practice. Indeed, ICMP rate limiting is one
//! common cause of a lack of replies, and a simulator that takes rate
//! limiting into account could help in designing an algorithm to probe in
//! ways less likely to trigger rate limiting." This example does exactly
//! that: it sweeps token-bucket rates on a wide diamond and shows how
//! discovery degrades, and how retries buy some of it back.
//!
//! ```text
//! cargo run --release --example rate_limiting
//! ```

use mlpt::prelude::*;
use mlpt::topo::canonical;

fn main() {
    let topology = canonical::max_length_2(); // 28-wide single hop
    let truth = topology.total_vertices() as f64;
    println!("topology: max-length-2 diamond, 28 interfaces at the wide hop\n");
    println!(
        "{:<28} {:>8} {:>16} {:>12}",
        "ICMP rate limit", "retries", "vertices found", "probes sent"
    );

    let cases: [(&str, Option<(u32, f64)>); 4] = [
        ("unlimited", None),
        ("bucket 16, refill 1.0/tick", Some((16, 1.0))),
        ("bucket 8, refill 0.5/tick", Some((8, 0.5))),
        ("bucket 4, refill 0.25/tick", Some((4, 0.25))),
    ];
    for (label, limit) in cases {
        for retries in [0u8, 3] {
            let runs = 20;
            let mut vertices = 0.0;
            let mut probes = 0u64;
            for seed in 0..runs {
                let faults = match limit {
                    None => FaultPlan::none(),
                    Some((capacity, rate)) => FaultPlan::with_rate_limit(capacity, rate),
                };
                let net = SimNetwork::builder(topology.clone())
                    .faults(faults)
                    .seed(seed)
                    .build();
                let mut engine =
                    SweepEngine::new(net, "192.0.2.1".parse().unwrap()).with_config(SweepConfig {
                        retries,
                        ..SweepConfig::default()
                    });
                let config = TraceConfig::new(seed);
                let trace = trace_mda_lite(&mut engine, topology.destination(), &config);
                vertices += trace.total_vertices() as f64 / truth;
                probes += trace.probes_sent;
            }
            println!(
                "{:<28} {:>8} {:>15.1}% {:>12.1}",
                label,
                retries,
                100.0 * vertices / runs as f64,
                probes as f64 / runs as f64
            );
        }
    }
    println!(
        "\nRate limiting suppresses Time Exceeded replies mid-burst; retries recover\n\
         discovery at the cost of extra probes — the tradeoff the paper's future\n\
         work asks a simulator to expose."
    );
}
