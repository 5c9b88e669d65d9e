//! The sessionized alias protocol's headline invariant, property-tested
//! end to end: Round 0–10 alias resolution driven through the concurrent
//! sweep engine is **bit-identical** to the legacy blocking loop — the
//! same per-address IP-ID series (sample for sample, timestamp for
//! timestamp), the same [`AliasPartition`] after every round, the same
//! cumulative probe counts — across probing methods (indirect MMLPT vs
//! direct MIDAR-style), router IP-ID behaviours, fault plans, admission
//! orders, in-flight budgets and adaptive controllers.
//!
//! This matters more for alias resolution than it did for tracing: the
//! MBT merges two addresses' IP-ID samples into one would-be-monotonic
//! sequence, so the *interleaving* of the per-address probes is
//! semantically load-bearing. A scheduler that reordered probes within a
//! session's round would change verdicts, not just timing. The reference
//! below is the pre-session blocking implementation of the rounds loop,
//! kept verbatim as test-local code, probing through the
//! one-probe-at-a-time reference driver of `tests/support`.
//!
//! A deterministic companion test shows the AIMD budget backing off an
//! echo-heavy alias sweep into rate-limited windows (inter-cycle gap >
//! 0) while the final partitions still match ground truth.

mod support;

use mlpt::alias::evidence::EvidenceBase;
use mlpt::alias::multilevel::{MultilevelConfig, MultilevelOutcome, MultilevelSession};
use mlpt::alias::resolver::resolve;
use mlpt::alias::rounds::{ProbeMethod, RoundReport, RoundsConfig};
use mlpt::core::engine::{AdaptiveBudget, Admission, SweepConfig, SweepEngine};
use mlpt::core::prelude::*;
use mlpt::sim::{FaultPlan, IpIdProfile, MultiNetwork, RouterProfile, SimNetwork};
use mlpt::topo::graph::addr;
use mlpt::topo::{MultipathTopology, RouterId, RouterMap};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use support::PerProbe;

const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

// ---------------------------------------------------------------------
// The legacy blocking protocol, kept verbatim as the reference.
// ---------------------------------------------------------------------

/// Pre-session `indirect_targets`: a flow known to reach each candidate
/// and the TTL at which it answers, harvested from the trace.
fn legacy_targets(
    trace: &Trace,
    candidates: &BTreeSet<Ipv4Addr>,
) -> BTreeMap<Ipv4Addr, (Vec<FlowId>, u8)> {
    let mut map = BTreeMap::new();
    for ttl in 1..=trace.discovery.max_observed_ttl() {
        for &a in trace.discovery.vertices_at(ttl) {
            if candidates.contains(&a) && !map.contains_key(&a) {
                let flows: Vec<FlowId> = trace.discovery.flows_at(ttl, a).collect();
                if !flows.is_empty() {
                    map.insert(a, (flows, ttl));
                }
            }
        }
    }
    map
}

/// The pre-session blocking rounds loop, word for word.
fn legacy_rounds(
    prober: &mut PerProbe<SimNetwork>,
    trace: &Trace,
    candidates: &BTreeSet<Ipv4Addr>,
    base: &mut EvidenceBase,
    config: &RoundsConfig,
) -> Vec<RoundReport> {
    let source = config.method.series_source();
    let targets = legacy_targets(trace, candidates);
    let mut reports = Vec::with_capacity(config.rounds as usize + 1);
    let mut probes: u64 = 0;

    reports.push(RoundReport {
        round: 0,
        partition: resolve(base, candidates, source, &config.mbt),
        cumulative_probes: 0,
    });

    let mut flow_cursor: BTreeMap<Ipv4Addr, usize> = BTreeMap::new();
    for round in 1..=config.rounds {
        if round == 1 {
            for &a in candidates {
                probes += 1;
                match prober.direct_probe(a) {
                    Some(obs) => base.add_direct(&obs),
                    None => base.add_direct_timeout(a),
                }
            }
        }
        for _rep in 0..config.replies_per_round {
            for &a in candidates {
                match config.method {
                    ProbeMethod::Indirect => {
                        let Some((flows, ttl)) = targets.get(&a) else {
                            continue;
                        };
                        let cursor = flow_cursor.entry(a).or_insert(0);
                        let flow = flows[*cursor % flows.len()];
                        *cursor += 1;
                        probes += 1;
                        if let Some(obs) = prober.probe(flow, *ttl) {
                            base.add_indirect(&obs, 0);
                        }
                    }
                    ProbeMethod::Direct => {
                        probes += 1;
                        match prober.direct_probe(a) {
                            Some(obs) => base.add_direct(&obs),
                            None => base.add_direct_timeout(a),
                        }
                    }
                }
            }
        }
        reports.push(RoundReport {
            round,
            partition: resolve(base, candidates, source, &config.mbt),
            cumulative_probes: probes,
        });
    }
    reports
}

/// The pre-session multilevel pipeline: trace, then per multi-candidate
/// hop seed evidence from the prober's log and run the legacy rounds.
struct LegacyMultilevel {
    trace: Trace,
    hop_reports: BTreeMap<u8, Vec<RoundReport>>,
    hop_evidence: BTreeMap<u8, EvidenceBase>,
    alias_probes: u64,
}

fn legacy_multilevel(
    prober: &mut PerProbe<SimNetwork>,
    destination: Ipv4Addr,
    trace_config: &TraceConfig,
    rounds: &RoundsConfig,
) -> LegacyMultilevel {
    let trace = prober.trace(MdaLiteSession::new(destination, trace_config.clone()));
    let after_trace = prober.probes_sent();
    let mut hop_reports = BTreeMap::new();
    let mut hop_evidence = BTreeMap::new();
    for ttl in 1..=trace.discovery.max_observed_ttl() {
        let candidates: BTreeSet<Ipv4Addr> = trace
            .discovery
            .vertices_at(ttl)
            .iter()
            .copied()
            .filter(|&a| a != trace.destination && !mlpt::topo::is_star(a))
            .collect();
        if candidates.len() < 2 {
            continue;
        }
        let mut base = EvidenceBase::from_log(prober.log(), &candidates);
        let reports = legacy_rounds(prober, &trace, &candidates, &mut base, rounds);
        hop_reports.insert(ttl, reports);
        hop_evidence.insert(ttl, base);
    }
    LegacyMultilevel {
        alias_probes: prober.probes_sent() - after_trace,
        trace,
        hop_reports,
        hop_evidence,
    }
}

// ---------------------------------------------------------------------
// Lane construction: a 1-W-1 diamond whose interfaces pair into routers
// with property-selected IP-ID behaviours.
// ---------------------------------------------------------------------

struct Lane {
    topology: MultipathTopology,
    routers: RouterMap,
    profiles: Vec<(RouterId, RouterProfile)>,
    sim_seed: u64,
    trace_seed: u64,
}

fn profile_from(selector: u8) -> RouterProfile {
    match selector % 5 {
        0 => RouterProfile::well_behaved(),
        1 => RouterProfile {
            ipid: IpIdProfile::per_interface_indirect(2, 3),
            ..RouterProfile::well_behaved()
        },
        2 => RouterProfile {
            ipid: IpIdProfile::constant_zero(),
            ..RouterProfile::well_behaved()
        },
        3 => RouterProfile {
            responds_to_direct: false,
            ..RouterProfile::well_behaved()
        },
        _ => RouterProfile {
            ipid: IpIdProfile::shared(5, 6),
            ..RouterProfile::well_behaved()
        },
    }
}

fn lane_for(index: usize, width: u8, profile_sel: u8, base_seed: u64) -> Lane {
    let width = usize::from(width.clamp(2, 4));
    let mut b = MultipathTopology::builder();
    b.add_hop([addr(0, 0)]);
    b.add_hop((0..width).map(|i| addr(1, i)));
    b.add_hop([addr(2, 0)]);
    b.connect_unmeshed(0);
    b.connect_unmeshed(1);
    let topology = b
        .build()
        .expect("valid diamond")
        .translated(0x0100_0000 * (index as u32 + 1));
    // Pair consecutive middle interfaces into routers.
    let middle: Vec<Ipv4Addr> = topology.hop(1).to_vec();
    let routers = RouterMap::from_alias_sets(middle.chunks(2).map(|c| c.to_vec()));
    let profiles = routers
        .alias_sets()
        .keys()
        .enumerate()
        .map(|(i, &r)| (r, profile_from(profile_sel.wrapping_add(i as u8))))
        .collect();
    Lane {
        topology,
        routers,
        profiles,
        sim_seed: base_seed
            .wrapping_add(index as u64)
            .wrapping_mul(0x9E37_79B9),
        trace_seed: base_seed ^ ((index as u64) << 9),
    }
}

fn build_network(lane: &Lane, faults: &FaultPlan) -> SimNetwork {
    let mut builder = SimNetwork::builder(lane.topology.clone())
        .routers(lane.routers.clone())
        .faults(*faults)
        .seed(lane.sim_seed);
    for (router, profile) in &lane.profiles {
        builder = builder.profile(*router, *profile);
    }
    builder.build()
}

fn fault_plan(kind: u8) -> FaultPlan {
    match kind % 4 {
        0 => FaultPlan::none(),
        1 => FaultPlan::with_loss(0.1, 0.0),
        2 => FaultPlan::with_loss(0.0, 0.15),
        _ => FaultPlan::with_rate_limit_window(3, 10),
    }
}

/// Asserts one lane's streamed outcome equals its blocking reference.
fn assert_outcome_matches(
    outcome: &MultilevelOutcome,
    reference: &LegacyMultilevel,
    wire_probes: u64,
    reference_wire: u64,
    lane: usize,
) {
    assert_eq!(
        outcome.multilevel.trace, reference.trace,
        "lane {lane}: trace diverged"
    );
    assert_eq!(
        outcome.multilevel.hop_reports, reference.hop_reports,
        "lane {lane}: per-round partitions / probe counts diverged"
    );
    // The bit-for-bit IP-ID series: every sample, timestamp and
    // fingerprint of every candidate address.
    assert_eq!(
        outcome.hop_evidence, reference.hop_evidence,
        "lane {lane}: per-address evidence series diverged"
    );
    assert_eq!(
        outcome.multilevel.alias_probes, reference.alias_probes,
        "lane {lane}: alias probe accounting diverged"
    );
    assert_eq!(
        wire_probes, reference_wire,
        "lane {lane}: wire-level packet count diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Sessionized Round 0–10 == legacy blocking rounds, bit for bit,
    /// via the sweep engine interleaving whole multilevel sessions
    /// across destinations under arbitrary admission orders and budgets.
    #[test]
    fn sessionized_rounds_match_legacy_blocking(
        widths in proptest::collection::vec(2u8..5, 1..5),
        profile_sels in proptest::collection::vec(0u8..10, 5..6),
        method_direct in any::<bool>(),
        fault_kind in 0u8..4,
        base_seed in any::<u64>(),
        rounds in 2u32..5,
        replies in 3u32..9,
        budget_kind in 0u8..3,
        adaptive_on in any::<bool>(),
        admission_kind in 0u8..2,
        order_seed in any::<u64>(),
    ) {
        let faults = fault_plan(fault_kind);
        let rounds_config = RoundsConfig {
            rounds,
            replies_per_round: replies,
            method: if method_direct { ProbeMethod::Direct } else { ProbeMethod::Indirect },
            ..RoundsConfig::default()
        };
        let lanes: Vec<Lane> = widths
            .iter()
            .enumerate()
            .map(|(i, &w)| lane_for(i, w, profile_sels[i % profile_sels.len()], base_seed))
            .collect();

        // Blocking references, one dedicated reference driver per lane.
        let references: Vec<(LegacyMultilevel, u64)> = lanes
            .iter()
            .map(|lane| {
                let destination = lane.topology.destination();
                let mut prober =
                    PerProbe::new(build_network(lane, &faults), SRC, destination, 0);
                let reference = legacy_multilevel(
                    &mut prober,
                    destination,
                    &TraceConfig::new(lane.trace_seed),
                    &rounds_config,
                );
                let wire = prober.probes_sent();
                (reference, wire)
            })
            .collect();

        // The sweep engine interleaving whole multilevel sessions across
        // destinations, in a permuted admission order.
        let max_in_flight = match budget_kind % 3 {
            0 => 5usize, // slices nearly every round across cycles
            1 => 64,
            _ => 2048,
        };
        let mut order: Vec<usize> = (0..lanes.len()).collect();
        order.rotate_left((order_seed as usize) % lanes.len().max(1));
        if order_seed % 2 == 1 {
            order.reverse();
        }
        let net = MultiNetwork::new(lanes.iter().map(|l| build_network(l, &faults)).collect())
            .expect("translated lanes have unique destinations");
        let mut engine = SweepEngine::new(net, SRC).with_config(SweepConfig {
            max_in_flight,
            admission: match admission_kind % 2 {
                0 => Admission::Streaming,
                _ => Admission::CostAware(usize::MAX),
            },
            adaptive: adaptive_on.then(|| AdaptiveBudget {
                min_in_flight: 2,
                ..AdaptiveBudget::default()
            }),
            ..SweepConfig::default()
        });
        let sessions = order.iter().map(|&lane_idx| {
            MultilevelSession::new(
                lanes[lane_idx].topology.destination(),
                MultilevelConfig {
                    trace: TraceConfig::new(lanes[lane_idx].trace_seed),
                    rounds: rounds_config.clone(),
                },
            )
        });
        let mut outcomes: Vec<Option<(MultilevelOutcome, u64)>> =
            (0..lanes.len()).map(|_| None).collect();
        engine.run_sessions_with(sessions, |stream_idx, session, wire| {
            outcomes[order[stream_idx]] = Some((session.finish(), wire));
        });
        for (lane_idx, slot) in outcomes.into_iter().enumerate() {
            let (outcome, wire) = slot.expect("every lane completed");
            let (reference, reference_wire) = &references[lane_idx];
            assert_outcome_matches(&outcome, reference, wire, *reference_wire, lane_idx);
        }
        prop_assert_eq!(engine.stats().malformed_replies, 0);
        prop_assert_eq!(engine.stats().mismatched_replies, 0);
        prop_assert_eq!(engine.stats().sessions_completed, lanes.len() as u64);
    }

    /// Per-hop fan-out is a protocol variant, not a schedule: the wave
    /// sequence is fixed by the trace outcome alone, so *any* engine
    /// schedule — admission policy (streaming FIFO, cost-aware),
    /// admission order, in-flight budget, adaptive controller —
    /// reproduces the blocking fanned driver bit for bit: the same
    /// per-address IP-ID series, per-round partitions, probe accounting
    /// and wire counts. This is determinism rule 5 for the fan-out:
    /// scheduling decides when the waves fly, never what they observe.
    #[test]
    fn fanned_sessions_are_schedule_independent(
        widths in proptest::collection::vec(2u8..5, 2..5),
        profile_sels in proptest::collection::vec(0u8..10, 5..6),
        method_direct in any::<bool>(),
        fault_kind in 0u8..4,
        base_seed in any::<u64>(),
        rounds in 2u32..5,
        replies in 3u32..9,
        budget_kind in 0u8..3,
        adaptive_on in any::<bool>(),
        admission_kind in 0u8..2,
        order_seed in any::<u64>(),
    ) {
        let faults = fault_plan(fault_kind);
        let rounds_config = RoundsConfig {
            rounds,
            replies_per_round: replies,
            method: if method_direct { ProbeMethod::Direct } else { ProbeMethod::Indirect },
            ..RoundsConfig::default()
        };
        let lanes: Vec<Lane> = widths
            .iter()
            .enumerate()
            .map(|(i, &w)| lane_for(i, w, profile_sels[i % profile_sels.len()], base_seed))
            .collect();

        // The canonical fanned outcome: the one-probe-at-a-time
        // reference driver over an identically seeded lane.
        let references: Vec<(MultilevelOutcome, u64)> = lanes
            .iter()
            .map(|lane| {
                let mut prober =
                    PerProbe::new(build_network(lane, &faults), SRC, lane.topology.destination(), 0);
                let mut session = MultilevelSession::new(
                    lane.topology.destination(),
                    MultilevelConfig {
                        trace: TraceConfig::new(lane.trace_seed),
                        rounds: rounds_config.clone(),
                    },
                )
                .with_hop_fanout(true);
                let wire = prober.drive(&mut session);
                (session.finish(), wire)
            })
            .collect();

        let max_in_flight = match budget_kind % 3 {
            0 => 5usize,
            1 => 64,
            _ => 2048,
        };
        let mut order: Vec<usize> = (0..lanes.len()).collect();
        order.rotate_left((order_seed as usize) % lanes.len().max(1));
        if order_seed % 2 == 1 {
            order.reverse();
        }
        let net = MultiNetwork::new(lanes.iter().map(|l| build_network(l, &faults)).collect())
            .expect("translated lanes have unique destinations");
        let mut engine = SweepEngine::new(net, SRC).with_config(SweepConfig {
            max_in_flight,
            admission: match admission_kind % 2 {
                0 => Admission::Streaming,
                _ => Admission::CostAware(usize::MAX),
            },
            adaptive: adaptive_on.then(|| AdaptiveBudget {
                min_in_flight: 2,
                ..AdaptiveBudget::default()
            }),
            ..SweepConfig::default()
        });
        let sessions = order.iter().map(|&lane_idx| {
            MultilevelSession::new(
                lanes[lane_idx].topology.destination(),
                MultilevelConfig {
                    trace: TraceConfig::new(lanes[lane_idx].trace_seed),
                    rounds: rounds_config.clone(),
                },
            )
            .with_hop_fanout(true)
        });
        let mut outcomes: Vec<Option<(MultilevelOutcome, u64)>> =
            (0..lanes.len()).map(|_| None).collect();
        engine.run_sessions_with(sessions, |stream_idx, session, wire| {
            outcomes[order[stream_idx]] = Some((session.finish(), wire));
        });
        for (lane_idx, slot) in outcomes.into_iter().enumerate() {
            let (outcome, wire) = slot.expect("every lane completed");
            let (reference, reference_wire) = &references[lane_idx];
            assert_eq!(
                outcome.multilevel.trace, reference.multilevel.trace,
                "lane {lane_idx}: fanned trace diverged"
            );
            assert_eq!(
                outcome.multilevel.hop_reports, reference.multilevel.hop_reports,
                "lane {lane_idx}: fanned per-round partitions diverged"
            );
            assert_eq!(
                outcome.hop_evidence, reference.hop_evidence,
                "lane {lane_idx}: fanned evidence series diverged"
            );
            assert_eq!(
                outcome.multilevel.alias_probes, reference.multilevel.alias_probes,
                "lane {lane_idx}: fanned alias accounting diverged"
            );
            assert_eq!(
                wire, *reference_wire,
                "lane {lane_idx}: fanned wire count diverged"
            );
        }
        prop_assert_eq!(engine.stats().malformed_replies, 0);
        prop_assert_eq!(engine.stats().mismatched_replies, 0);
        prop_assert_eq!(engine.stats().sessions_completed, lanes.len() as u64);
    }
}

/// The rate-limited-echo acceptance test: an echo-heavy (direct-method)
/// alias sweep into per-router ICMP rate limiters behind an inter-cycle
/// clock gap. The AIMD budget must back off — measurably fewer replies
/// burned into the limiter than a fixed budget — while the final
/// partitions still pair the interfaces exactly as ground truth does.
#[test]
fn adaptive_budget_backs_off_alias_sweep_without_changing_partitions() {
    const LANES: usize = 6;
    let lanes: Vec<Lane> = (0..LANES).map(|i| lane_for(i, 4, 0, 77)).collect();
    let faults = FaultPlan::with_rate_limit_window(4, 12);
    let rounds_config = RoundsConfig {
        rounds: 3,
        replies_per_round: 6,
        method: ProbeMethod::Direct,
        ..RoundsConfig::default()
    };

    let run = |adaptive: Option<AdaptiveBudget>| {
        let net = MultiNetwork::new(lanes.iter().map(|l| build_network(l, &faults)).collect())
            .expect("unique destinations")
            .with_cycle_gap(12);
        let mut engine = SweepEngine::new(net, SRC).with_config(SweepConfig {
            max_in_flight: 96,
            retries: 12,
            admission: Admission::Streaming,
            adaptive,
            ..SweepConfig::default()
        });
        let sessions = lanes.iter().map(|lane| {
            MultilevelSession::new(
                lane.topology.destination(),
                MultilevelConfig {
                    trace: TraceConfig::new(lane.trace_seed),
                    rounds: rounds_config.clone(),
                },
            )
        });
        let mut outcomes: Vec<Option<MultilevelOutcome>> = (0..LANES).map(|_| None).collect();
        engine.run_sessions_with(sessions, |idx, session, _wire| {
            outcomes[idx] = Some(session.finish());
        });
        let stats = *engine.stats();
        let suppressed = engine.into_transport().counters().replies_rate_limited;
        let outcomes: Vec<MultilevelOutcome> = outcomes
            .into_iter()
            .map(|o| o.expect("completed"))
            .collect();
        (outcomes, stats, suppressed)
    };

    let (fixed, _fixed_stats, fixed_suppressed) = run(None);
    let (adaptive, adaptive_stats, adaptive_suppressed) = run(Some(AdaptiveBudget {
        min_in_flight: 4,
        increase: 2,
        backoff: 0.5,
        loss_threshold: 0.02,
    }));

    assert!(
        adaptive_stats.budget_backoffs > 0,
        "rate limiting must trip the AIMD controller"
    );
    assert!(
        adaptive_suppressed < fixed_suppressed,
        "adaptive must burn fewer replies into the limiter: \
         fixed {fixed_suppressed}, adaptive {adaptive_suppressed}"
    );
    for (lane_idx, (f, a)) in fixed.iter().zip(&adaptive).enumerate() {
        // The budget may change *when* probes cross, never what the
        // final partition says: both runs must pair the middle
        // interfaces exactly as the simulator's ground truth does.
        let truth = &lanes[lane_idx].routers;
        for outcome in [f, a] {
            let map = &outcome.multilevel.router_map;
            let middle: Vec<Ipv4Addr> = lanes[lane_idx].topology.hop(1).to_vec();
            for i in 0..middle.len() {
                for j in i + 1..middle.len() {
                    assert_eq!(
                        map.are_aliases(middle[i], middle[j]),
                        truth.are_aliases(middle[i], middle[j]),
                        "lane {lane_idx}: pair ({}, {}) misjudged",
                        middle[i],
                        middle[j]
                    );
                }
            }
        }
        assert_eq!(
            f.multilevel.router_map, a.multilevel.router_map,
            "lane {lane_idx}: backoff changed the partition"
        );
    }
}
