//! Concurrent multi-destination sweep, library edition.
//!
//! Shows the full sweep stack end to end:
//!
//! 1. build one simulated network **lane** per destination (here:
//!    synthetic-Internet scenarios, as a survey would trace);
//! 2. wrap the lanes in a [`MultiNetwork`] — one shared transport that
//!    routes probes by destination while keeping per-lane RNG streams and
//!    clocks deterministic;
//! 3. stream one sans-IO [`TraceSession`] per destination into the
//!    [`SweepEngine`], which admits sessions as in-flight tokens free up
//!    and merges every live session's probe rounds into large
//!    cross-destination batches;
//! 4. run the sweep, then verify the headline invariant: every trace is
//!    **bit-identical** to running the same destination sequentially on
//!    its own simulator.
//!
//! Run with: `cargo run --example concurrent_sweep`

use mlpt::prelude::*;
use mlpt::sim::MultiNetwork;
use mlpt::survey::{InternetConfig, SyntheticInternet};

fn main() {
    let destinations = 16usize;
    let internet = SyntheticInternet::new(InternetConfig::with_seed(42));
    let seed_of = |id: usize| 0xA11Au64 ^ (id as u64).wrapping_mul(0x9E37_79B9);

    // 1. One SimNetwork lane per destination.
    let lanes: Vec<mlpt::sim::SimNetwork> = (0..destinations)
        .map(|id| {
            internet
                .scenario(id)
                .build_network(seed_of(id), FaultPlan::none())
        })
        .collect();

    // 2. One shared transport over all lanes.
    let net = MultiNetwork::new(lanes).expect("scenario destinations are unique");
    let source = internet.scenario(0).source;

    // 3. One MDA session per destination, streamed into the engine: new
    //    sessions are admitted as the in-flight budget frees up, so the
    //    cross-destination batches stay full until the list runs dry.
    let mut engine = SweepEngine::new(net, source).with_config(SweepConfig {
        max_in_flight: 64,
        admission: Admission::Streaming,
        ..SweepConfig::default()
    });
    let sessions = (0..destinations).map(|id| {
        let destination = internet.scenario(id).topology.destination();
        Box::new(MdaSession::new(destination, TraceConfig::new(seed_of(id))))
            as Box<dyn TraceSession>
    });

    // 4. Run the sweep.
    let traces = engine.run_stream(sessions);
    let stats = *engine.stats();

    println!("swept {destinations} destinations concurrently:");
    for trace in &traces {
        println!(
            "  {}  {} probes, {} vertices, {} edges",
            trace.destination,
            trace.probes_sent,
            trace.total_vertices(),
            trace.total_edges()
        );
    }
    println!(
        "\n{} probes crossed the transport in {} dispatches \
         ({:.1} probes per dispatch; a sequential loop pays one dispatch \
         per per-trace round instead)",
        stats.probes_sent,
        stats.dispatch_cycles,
        stats.probes_per_dispatch(),
    );

    // The invariant that makes the engine trustworthy: a sweep changes
    // scheduling, never results.
    for (id, sweep_trace) in traces.iter().enumerate() {
        let scenario = internet.scenario(id);
        let mut engine = SweepEngine::new(
            scenario.build_network(seed_of(id), FaultPlan::none()),
            scenario.source,
        );
        let sequential = trace_mda(
            &mut engine,
            scenario.topology.destination(),
            &TraceConfig::new(seed_of(id)),
        );
        assert_eq!(
            sweep_trace, &sequential,
            "sweep and sequential traces must be bit-identical"
        );
    }
    println!("verified: all {destinations} traces bit-identical to sequential runs");
}
