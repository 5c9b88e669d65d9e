//! Fault injection through the full stack: the MDA model's assumption 4
//! ("all probes receive a response") violated in controlled ways.

use mlpt::core::engine::{Admission, SweepConfig, SweepEngine};
use mlpt::core::session::TraceSession;
use mlpt::core::SweepStats;
use mlpt::prelude::*;
use mlpt::sim::{CapturingTransport, MultiNetwork};
use mlpt::topo::canonical;
use std::net::Ipv4Addr;

const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

/// Total loss: the trace finds nothing, reports honestly, and the
/// topology conversion declines (no convergence point).
#[test]
fn total_loss_is_reported_honestly() {
    let topo = canonical::simplest_diamond();
    let net = SimNetwork::builder(topo.clone())
        .faults(FaultPlan::with_loss(1.0, 0.0))
        .seed(1)
        .build();
    let mut engine = SweepEngine::new(net, SRC);
    let config = TraceConfig::new(1);
    let trace = trace_mda_lite(&mut engine, topo.destination(), &config);
    assert!(!trace.reached_destination);
    assert_eq!(trace.total_vertices(), 0);
    assert!(trace.to_topology().is_none());
    assert!(trace.probes_sent > 0);
}

/// Moderate reply loss degrades discovery gracefully, never unsoundly.
#[test]
fn loss_degrades_gracefully() {
    let topo = canonical::fig1_unmeshed();
    let mut found = 0usize;
    let runs = 20u64;
    for seed in 0..runs {
        let net = SimNetwork::builder(topo.clone())
            .faults(FaultPlan::with_loss(0.0, 0.2))
            .seed(seed)
            .build();
        let mut engine = SweepEngine::new(net, SRC);
        let trace = trace_mda(&mut engine, topo.destination(), &TraceConfig::new(seed));
        found += trace.total_vertices();
        // Soundness under loss.
        for ttl in 1..=topo.num_hops() as u8 {
            for &v in trace.vertices_at(ttl) {
                assert!(topo.contains(usize::from(ttl - 1), v));
            }
        }
    }
    let mean = found as f64 / runs as f64;
    assert!(
        mean > 0.8 * topo.total_vertices() as f64,
        "mean vertices {mean}"
    );
}

/// Retries restore discovery under loss, at a quantified probe premium.
#[test]
fn retries_restore_discovery() {
    let topo = canonical::fig1_unmeshed();
    let mut plain = (0usize, 0u64);
    let mut retried = (0usize, 0u64);
    for seed in 0..15u64 {
        for retries in [0u8, 3] {
            let net = SimNetwork::builder(topo.clone())
                .faults(FaultPlan::with_loss(0.0, 0.25))
                .seed(seed)
                .build();
            let mut engine = SweepEngine::new(net, SRC).with_config(SweepConfig {
                retries,
                ..SweepConfig::default()
            });
            let trace = trace_mda(&mut engine, topo.destination(), &TraceConfig::new(seed));
            let slot = if retries == 0 {
                &mut plain
            } else {
                &mut retried
            };
            slot.0 += trace.total_vertices();
            slot.1 += trace.probes_sent;
        }
    }
    assert!(retried.0 >= plain.0, "retries must not lose vertices");
    assert!(retried.1 > plain.1, "retries must cost probes");
}

/// A caller-set deadline at the top of the tick range: a lost reply
/// resolves at `send tick + timeout`, which must saturate rather than
/// overflow.
#[test]
fn maximal_probe_timeout_survives_reply_loss() {
    let topo = canonical::fig1_meshed();
    let net = SimNetwork::builder(topo.clone())
        .faults(FaultPlan::with_loss(0.0, 0.5))
        .seed(3)
        .build();
    let config = SweepConfig {
        retries: 1,
        probe_timeout: u64::MAX,
        ..SweepConfig::default()
    };
    let mut engine = SweepEngine::new(net, SRC).with_config(config);
    let session = MdaLiteSession::new(topo.destination(), TraceConfig::new(3));
    let traces = engine.run_stream([Box::new(session) as Box<dyn TraceSession>]);
    assert_eq!(traces.len(), 1);
    assert!(engine.stats().probes_timed_out > 0, "the loss must bite");
}

/// Rate limiting plus capture: suppressed replies appear as probe-only
/// records in the pcap, and the simulator counts them.
#[test]
fn rate_limit_visible_in_capture() {
    let topo = canonical::max_length_2();
    let net = SimNetwork::builder(topo.clone())
        .faults(FaultPlan::with_rate_limit(4, 0.1))
        .seed(2)
        .build();
    let mut capture = CapturingTransport::new(net);
    let mut engine = SweepEngine::new(&mut capture, SRC);
    let _ = trace_mda_lite(&mut engine, topo.destination(), &TraceConfig::new(2));
    let (probes, replies) = capture.counts();
    assert!(probes > replies, "rate limiting must suppress replies");
    let (net, _) = capture.into_parts();
    assert!(net.counters().replies_rate_limited > 0);
}

/// A destination that goes dark mid-sweep (the `midtrace-blackhole`
/// schedule on one lane) degrades *only* its own lane: the sweep
/// terminates, the dark destination reports an honest
/// `TraceOutcome::Partial` with the prefix it discovered before the
/// cut, every other destination still completes, and every admission
/// schedule (all sessions admitted at once, a tight streaming budget,
/// cost-aware) agrees bit-for-bit — including on the partial trace.
#[test]
fn midsweep_blackhole_partials_only_the_dark_lane() {
    let lanes: Vec<MultipathTopology> = (0..4u32)
        .map(|i| canonical::fig1_meshed().translated(0x0100_0000 * (i + 1)))
        .collect();
    const DARK: usize = 1;
    let build = |dark_on: bool| -> MultiNetwork {
        MultiNetwork::new(
            lanes
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let builder = SimNetwork::builder(t.clone()).seed(29 + i as u64);
                    let builder = if dark_on && i == DARK {
                        builder.faults(
                            FaultSchedule::preset("midtrace-blackhole").expect("known preset"),
                        )
                    } else {
                        builder
                    };
                    builder.build()
                })
                .collect(),
        )
        .expect("translated lanes have unique destinations")
    };
    let sweep =
        |admission: Admission, max_in_flight: usize, dark_on: bool| -> (Vec<Trace>, SweepStats) {
            let mut engine = SweepEngine::new(build(dark_on), SRC).with_config(SweepConfig {
                max_in_flight,
                retries: 2,
                stall_rounds: 4,
                admission,
                ..SweepConfig::default()
            });
            let sessions: Vec<Box<dyn TraceSession>> = lanes
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    Box::new(MdaSession::new(t.destination(), TraceConfig::new(i as u64)))
                        as Box<dyn TraceSession>
                })
                .collect();
            let traces = engine.run_stream(sessions);
            (traces, *engine.stats())
        };

    // A budget above the sweep's probe count admits every session up
    // front: the opposite extreme from the tight streaming budget.
    const ALL_IN: usize = 1 << 20;
    let (all_in, stats) = sweep(Admission::Streaming, ALL_IN, true);
    assert!(stats.probes_sent < ALL_IN as u64);
    let (streaming, _) = sweep(Admission::Streaming, 16, true);
    let (cost_aware, _) = sweep(Admission::CostAware(usize::MAX), 48, true);

    // The dark destination: terminated, honest partial, prefix intact.
    assert!(
        all_in[DARK].outcome.is_partial(),
        "{:?}",
        all_in[DARK].outcome
    );
    assert!(!all_in[DARK].reached_destination);
    assert!(
        !all_in[DARK].vertices_at(1).is_empty(),
        "the prefix discovered before the cut must survive"
    );
    assert_eq!(stats.sessions_partial, 1);
    assert_eq!(stats.sessions_completed, lanes.len() as u64);
    assert!(stats.probes_timed_out > 0);
    assert!(stats.retries_exhausted > 0);

    // The healthy lanes are untouched by their dark neighbour: complete,
    // destination reached, and bit-identical to an all-clean sweep.
    let (clean, _) = sweep(Admission::Streaming, 64, false);
    for (i, trace) in all_in.iter().enumerate() {
        assert_eq!(trace, &streaming[i], "admission modes diverged on lane {i}");
        assert_eq!(
            trace, &cost_aware[i],
            "admission modes diverged on lane {i}"
        );
        if i != DARK {
            assert_eq!(trace.outcome, TraceOutcome::Complete);
            assert!(trace.reached_destination);
            assert_eq!(
                trace, &clean[i],
                "clean lane {i} must not be perturbed by the dark lane"
            );
        }
    }
}

/// The multilevel tracer stays coherent under loss: alias probing simply
/// gathers fewer samples; no panics, no phantom aliases across routers
/// with distinct fingerprints.
#[test]
fn multilevel_under_loss() {
    use mlpt::topo::graph::addr;
    let mut b = MultipathTopology::builder();
    b.add_hop([addr(0, 0)]);
    b.add_hop([addr(1, 0), addr(1, 1), addr(1, 2), addr(1, 3)]);
    b.add_hop([addr(2, 0)]);
    b.connect_unmeshed(0);
    b.connect_unmeshed(1);
    let topo = b.build().unwrap();
    let truth =
        RouterMap::from_alias_sets([vec![addr(1, 0), addr(1, 1)], vec![addr(1, 2), addr(1, 3)]]);
    let net = SimNetwork::builder(topo.clone())
        .routers(truth)
        .faults(FaultPlan::with_loss(0.0, 0.1))
        .seed(5)
        .build();
    let mut engine = SweepEngine::new(net, SRC).with_config(SweepConfig {
        retries: 2,
        ..SweepConfig::default()
    });
    let result = trace_multilevel(&mut engine, topo.destination(), &MultilevelConfig::new(5));
    assert!(result.trace.reached_destination);
    // No cross-router merges.
    assert!(!result.router_map.are_aliases(addr(1, 1), addr(1, 2)));
}
