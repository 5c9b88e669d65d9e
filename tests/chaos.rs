//! Chaos goldens: every built-in fault-schedule preset, swept with the
//! engine's full robustness stack, must (a) terminate, (b) be exactly
//! reproducible from its seeds, and (c) produce the *golden* number of
//! partial sessions pinned below. The CI chaos stage runs this file;
//! a hang here is an engine liveness bug, a changed count is a
//! behaviour change that needs a deliberate golden update.

use mlpt::core::engine::{Admission, SweepConfig, SweepEngine};
use mlpt::core::session::TraceSession;
use mlpt::core::SweepStats;
use mlpt::prelude::*;
use mlpt::sim::MultiNetwork;
use mlpt::topo::canonical;
use std::net::Ipv4Addr;

const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
const LANES: u32 = 4;

/// One chaos sweep over `lanes` lanes: every lane runs the preset on
/// its own virtual clock; MDA keeps the probe volume high enough that
/// every preset's step ticks land mid-trace.
fn chaos_sweep(preset: &str, lanes: u32) -> (Vec<Trace>, SweepStats) {
    let lanes: Vec<MultipathTopology> = (0..lanes)
        .map(|i| canonical::fig1_meshed().translated(0x0100_0000 * (i + 1)))
        .collect();
    let net = MultiNetwork::new(
        lanes
            .iter()
            .enumerate()
            .map(|(i, t)| {
                SimNetwork::builder(t.clone())
                    .faults(FaultSchedule::preset(preset).expect("known preset"))
                    .seed(29 + i as u64)
                    .build()
            })
            .collect(),
    )
    .expect("translated lanes have unique destinations");
    let mut engine = SweepEngine::new(net, SRC).with_config(SweepConfig {
        max_in_flight: 64,
        retries: 1,
        stall_rounds: 4,
        admission: Admission::Streaming,
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
}

/// The golden partial-session count per preset, in preset order.
fn golden_partials(preset: &str) -> u64 {
    match preset {
        "midtrace-blackhole" => 4, // everything goes dark: all partial
        "flap" => 4,               // 60% loss both ways: waves go silent
        "congestion-ramp" => 0,    // latency stays under the deadline
        "rate-limit-burst" => 4,   // the clamp outlasts the watchdog
        "jitter-spread" => 0,      // ≤13-tick spread vs 4096-tick deadlines
        other => panic!("no golden for preset {other}"),
    }
}

/// Runs at the golden width, then at 16 lanes, where the only pinned
/// partial count is the all-dark preset's: every lane.
#[test]
fn every_preset_terminates_with_golden_partial_counts() {
    for lanes in [LANES, 16] {
        for &preset in FaultSchedule::preset_names() {
            let (traces, stats) = chaos_sweep(preset, lanes);
            assert_eq!(traces.len(), lanes as usize, "{preset}: lane lost");
            assert_eq!(
                stats.sessions_completed,
                u64::from(lanes),
                "{preset}: every session must finalize"
            );
            if lanes == LANES {
                assert_eq!(
                    stats.sessions_partial,
                    golden_partials(preset),
                    "{preset}: partial-session golden moved"
                );
            } else if preset == "midtrace-blackhole" {
                assert_eq!(
                    stats.sessions_partial,
                    u64::from(lanes),
                    "the all-dark preset must degrade every lane to partial"
                );
            }
            assert_eq!(
                traces.iter().filter(|t| t.outcome.is_partial()).count() as u64,
                stats.sessions_partial,
                "{preset}: outcomes must match the counter"
            );
            // The retry-wave accounting invariant survives every preset.
            assert_eq!(
                stats.probes_timed_out
                    + stats.replies_delivered
                    + stats.malformed_replies
                    + stats.mismatched_replies,
                stats.probes_sent,
                "{preset}: accounting must partition probes_sent"
            );
        }
    }
}

/// One topology-chaos sweep: every lane runs the route-change preset on
/// its own virtual clock, and every session arms the route audit. The
/// unmeshed topology is the one where hop-1 successor swaps are
/// observable (distinct successor sets per branch pair).
fn topology_sweep(preset: &str, admission: Admission) -> (Vec<Trace>, SweepStats) {
    let lanes: Vec<MultipathTopology> = (0..LANES)
        .map(|i| canonical::fig1_unmeshed().translated(0x0100_0000 * (i + 1)))
        .collect();
    let net = MultiNetwork::new(
        lanes
            .iter()
            .enumerate()
            .map(|(i, t)| {
                SimNetwork::builder(t.clone())
                    .topology_schedule(TopologySchedule::preset(preset).expect("known preset"))
                    .seed(29 + i as u64)
                    .build()
            })
            .collect(),
    )
    .expect("translated lanes have unique destinations");
    let mut engine = SweepEngine::new(net, SRC).with_config(SweepConfig {
        max_in_flight: 64,
        retries: 1,
        stall_rounds: 8,
        admission,
        ..SweepConfig::default()
    });
    let sessions: Vec<Box<dyn TraceSession>> = lanes
        .iter()
        .enumerate()
        .map(|(i, t)| {
            // A tight node-control allowance keeps the post-mutation
            // flow hunts (against branches that no longer exist) from
            // dominating the suite's runtime; detection is unaffected.
            let config = TraceConfig {
                node_control_attempts: 500,
                ..TraceConfig::new(i as u64).with_reprobe(ReprobeBudget::default())
            };
            Box::new(MdaSession::new(t.destination(), config)) as Box<dyn TraceSession>
        })
        .collect();
    let traces = engine.run_stream(sessions);
    (traces, *engine.stats())
}

/// The golden robustness counters per topology preset:
/// `(artifacts_detected, route_recoveries, route_changed_partials)`.
fn golden_topology(preset: &str) -> (u64, u64, u64) {
    match preset {
        // Most lanes re-commit hop 2 after the tick-40 swap and the
        // tick-120 swap-back restores the world before their audits run;
        // one lane's audit lands inside the flap window and catches it.
        "route-flap" => (1, 1, 0),
        // The freshly minted branch steals flows from committed ones,
        // contradicting two lanes' bindings.
        "lb-regrow" => (2, 2, 0),
        // The vanished branch's flows re-home: every lane's audit sees
        // the contradiction; recovery re-traces within budget.
        "lb-shrink" => (4, 4, 0),
        // The revealed hop shifts every suffix binding one TTL deeper:
        // all four lanes detect and recover.
        "tunnel-reveal" => (4, 4, 0),
        other => panic!("no golden for preset {other}"),
    }
}

#[test]
fn every_topology_preset_terminates_with_golden_artifact_counts() {
    for &preset in TopologySchedule::preset_names() {
        let (traces, stats) = topology_sweep(preset, Admission::Streaming);
        assert_eq!(traces.len(), LANES as usize, "{preset}: lane lost");
        assert_eq!(
            stats.sessions_completed, LANES as u64,
            "{preset}: every session must finalize"
        );
        let (artifacts, recoveries, partials) = golden_topology(preset);
        assert_eq!(
            stats.artifacts_detected, artifacts,
            "{preset}: artifact golden moved"
        );
        assert_eq!(
            stats.route_recoveries, recoveries,
            "{preset}: recovery golden moved"
        );
        assert_eq!(
            stats.route_changed_partials, partials,
            "{preset}: route-changed-partial golden moved"
        );
        assert_eq!(
            stats.probes_timed_out
                + stats.replies_delivered
                + stats.malformed_replies
                + stats.mismatched_replies,
            stats.probes_sent,
            "{preset}: accounting must partition probes_sent"
        );
    }
}

/// Recovery decisions are protocol, not scheduling: every admission
/// mode sees the same artifacts and produces bit-identical traces, and
/// replaying from the same seeds reproduces everything.
#[test]
fn topology_sweeps_agree_across_admission_modes_and_replay() {
    let modes = [
        Admission::Streaming,
        Admission::CostAware(usize::MAX),
        Admission::CostAware(2),
    ];
    for &preset in TopologySchedule::preset_names() {
        let (baseline, base_stats) = topology_sweep(preset, Admission::Streaming);
        for mode in modes {
            let (traces, stats) = topology_sweep(preset, mode);
            assert_eq!(traces, baseline, "{preset}/{mode:?}: traces must agree");
            assert_eq!(
                stats.artifacts_detected, base_stats.artifacts_detected,
                "{preset}/{mode:?}: artifact counts must agree"
            );
            assert_eq!(
                stats.route_recoveries, base_stats.route_recoveries,
                "{preset}/{mode:?}: recovery counts must agree"
            );
        }
    }
}

/// Chaos runs replay bit-for-bit: same seeds, same traces, same
/// counters — scheduling under faults is still pure scheduling.
#[test]
fn chaos_sweeps_replay_bit_identically() {
    for &preset in FaultSchedule::preset_names() {
        let (first, first_stats) = chaos_sweep(preset, LANES);
        let (again, again_stats) = chaos_sweep(preset, LANES);
        assert_eq!(first, again, "{preset}: traces must replay");
        assert_eq!(
            first_stats.probes_sent, again_stats.probes_sent,
            "{preset}: probe counts must replay"
        );
        assert_eq!(
            first_stats.probes_timed_out, again_stats.probes_timed_out,
            "{preset}: timeout counts must replay"
        );
    }
}

#[test]
#[ignore]
fn measure_topology_goldens() {
    for &preset in TopologySchedule::preset_names() {
        let (traces, stats) = topology_sweep(preset, Admission::Streaming);
        let partial_traces = traces.iter().filter(|t| t.outcome.is_partial()).count();
        println!(
            "{preset}: artifacts={} recoveries={} rc_partials={} sessions_partial={} reprobes={} stale={} evict={} partial_traces={} probes={}",
            stats.artifacts_detected, stats.route_recoveries, stats.route_changed_partials,
            stats.sessions_partial, stats.reprobes_sent, stats.stop_set_stale_hits,
            stats.stop_set_evictions, partial_traces, stats.probes_sent
        );
    }
}
