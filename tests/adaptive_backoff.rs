//! The adaptive in-flight budget demonstrably backs off.
//!
//! Workload: destinations whose routers ICMP-rate-limit (token bucket of
//! N replies per W-tick window, `FaultPlan::with_rate_limit_window`),
//! simulated over a `MultiNetwork` with an inter-cycle clock gap — the
//! round-trip pause between dispatch cycles during which buckets refill,
//! so *burst size per cycle* determines how many replies are suppressed.
//!
//! A fixed budget keeps blasting full rounds into the limiter: probes
//! are suppressed, retried, suppressed again. The AIMD controller sees
//! the loss, multiplicatively backs the sick lanes (and the global
//! budget) off until bursts fit the refill rate, and therefore sends
//! measurably fewer probes into the rate-limited window — while, thanks
//! to retry waves, both modes deliver every observation eventually and
//! discover the *identical* topology.

use mlpt::core::engine::{AdaptiveBudget, Admission, SweepConfig, SweepEngine, SweepStats};
use mlpt::core::prelude::*;
use mlpt::core::session::TraceSession;
use mlpt::sim::{FaultPlan, MultiNetwork, SimNetwork, TrafficCounters};
use mlpt::topo::{canonical, MultipathTopology};
use std::net::Ipv4Addr;

const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
const LANES: usize = 8;
/// Each router answers at most 3 probes per 12-tick window.
const RATE_LIMIT: (u32, u64) = (3, 12);
/// Virtual ticks between dispatch cycles (the modeled RTT pause).
const CYCLE_GAP: u64 = 12;

fn lane_topologies(meshed: bool) -> Vec<MultipathTopology> {
    (0..LANES as u32)
        .map(|i| {
            let base = if meshed {
                canonical::fig1_meshed()
            } else {
                canonical::fig1_unmeshed()
            };
            base.translated(0x0100_0000 * (i + 1))
        })
        .collect()
}

fn rate_limited_network(topologies: &[MultipathTopology], limited: &[bool]) -> MultiNetwork {
    let lanes: Vec<SimNetwork> = topologies
        .iter()
        .zip(limited)
        .enumerate()
        .map(|(i, (topo, &limit))| {
            SimNetwork::builder(topo.clone())
                .faults(if limit {
                    FaultPlan::with_rate_limit_window(RATE_LIMIT.0, RATE_LIMIT.1)
                } else {
                    FaultPlan::none()
                })
                .seed(40 + i as u64)
                .build()
        })
        .collect();
    MultiNetwork::new(lanes)
        .expect("translated lanes have unique destinations")
        .with_cycle_gap(CYCLE_GAP)
}

fn run_sweep(
    topologies: &[MultipathTopology],
    limited: &[bool],
    adaptive: Option<AdaptiveBudget>,
) -> (Vec<Trace>, SweepStats, TrafficCounters) {
    let net = rate_limited_network(topologies, limited);
    let mut engine = SweepEngine::new(net, SRC).with_config(SweepConfig {
        max_in_flight: 64,
        // Enough retry waves that every probe is eventually answered
        // once the bucket refills: discovery is complete in both modes.
        retries: 6,
        admission: Admission::Streaming,
        adaptive,
        ..SweepConfig::default()
    });
    let sessions = topologies.iter().enumerate().map(|(i, topo)| {
        Box::new(MdaSession::new(
            topo.destination(),
            TraceConfig::new(90 + i as u64),
        )) as Box<dyn TraceSession>
    });
    let traces = engine.run_stream(sessions);
    let stats = *engine.stats();
    let counters = engine.into_transport().counters();
    (traces, stats, counters)
}

/// The acceptance demonstration: on the rate-limiting fault plan the
/// adaptive sweep sends measurably fewer probes into the rate-limited
/// window than the fixed budget, while discovering the same topology.
#[test]
fn adaptive_budget_backs_off_under_rate_limiting() {
    let topologies = lane_topologies(true);
    let all_limited = vec![true; LANES];
    let (fixed_traces, fixed_stats, fixed_counters) = run_sweep(&topologies, &all_limited, None);
    let (adaptive_traces, adaptive_stats, adaptive_counters) = run_sweep(
        &topologies,
        &all_limited,
        Some(AdaptiveBudget {
            min_in_flight: 4,
            increase: 2,
            backoff: 0.5,
            loss_threshold: 0.02,
        }),
    );

    // The controller demonstrably backed off.
    assert!(
        adaptive_stats.budget_backoffs > 0,
        "rate limiting must trigger global backoff"
    );
    assert!(
        adaptive_stats.lane_backoffs > 0,
        "rate limiting must trigger per-lane backoff"
    );
    assert!(adaptive_stats.final_in_flight_budget < 64);

    // Measurably fewer probes swallowed by the rate limiter...
    let fixed_suppressed = fixed_counters.replies_rate_limited;
    let adaptive_suppressed = adaptive_counters.replies_rate_limited;
    assert!(
        adaptive_suppressed * 3 <= fixed_suppressed * 2,
        "adaptive must cut rate-limited suppressions by >=1/3: fixed {fixed_suppressed}, \
         adaptive {adaptive_suppressed}"
    );
    // ...and fewer wire probes overall (suppressed probes are wasted and
    // retried; backing off avoids the waste).
    assert!(
        adaptive_stats.probes_sent < fixed_stats.probes_sent,
        "adaptive {} vs fixed {} probes",
        adaptive_stats.probes_sent,
        fixed_stats.probes_sent
    );

    // Both modes discover the identical topology: retry waves deliver
    // every observation eventually, so per-destination discovery (flow
    // witnesses included) matches bit for bit — only the wire-probe
    // counts differ.
    assert_eq!(fixed_traces.len(), adaptive_traces.len());
    for (fixed, adaptive) in fixed_traces.iter().zip(&adaptive_traces) {
        assert_eq!(
            fixed.discovery, adaptive.discovery,
            "discovery towards {} diverged",
            fixed.destination
        );
        assert!(fixed.reached_destination && adaptive.reached_destination);
    }
}

/// Per-lane fairness: one rate-limited lane among healthy ones backs
/// only itself off — the healthy lanes' traces are untouched and the
/// global budget never collapses.
#[test]
fn sick_lane_does_not_starve_the_sweep() {
    let topologies = lane_topologies(false);
    let mut limited = vec![false; LANES];
    limited[3] = true;
    let adaptive = AdaptiveBudget {
        min_in_flight: 4,
        increase: 2,
        backoff: 0.5,
        // High enough that one sick lane of eight cannot trip the
        // *global* controller; the lane's own allowance still reacts.
        loss_threshold: 0.2,
    };
    let (traces, stats, _) = run_sweep(&topologies, &limited, Some(adaptive));

    // The sick lane backed off; the global budget did not.
    assert!(stats.lane_backoffs > 0, "sick lane must back off");
    assert_eq!(
        stats.budget_backoffs, 0,
        "one sick lane of eight must not collapse the global budget"
    );
    assert_eq!(stats.final_in_flight_budget, 64);

    // Healthy lanes are bit-identical to sequential runs on their own
    // fresh simulators: the sick lane perturbed nothing.
    for (i, topo) in topologies.iter().enumerate() {
        if limited[i] {
            assert!(traces[i].reached_destination);
            continue;
        }
        let net = SimNetwork::builder(topo.clone())
            .seed(40 + i as u64)
            .build();
        let mut engine = SweepEngine::new(net, SRC).with_config(SweepConfig {
            retries: 6,
            ..SweepConfig::default()
        });
        let sequential = trace_mda(
            &mut engine,
            topo.destination(),
            &TraceConfig::new(90 + i as u64),
        );
        assert_eq!(&traces[i], &sequential, "healthy lane {i} perturbed");
    }
}
