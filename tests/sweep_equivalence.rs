//! The sweep engine's headline invariant, property-tested end to end:
//! a concurrent sweep's per-destination traces are **bit-identical** to
//! running each trace sequentially on its own simulator — for every
//! algorithm (MDA, MDA-Lite, single-flow), across topologies, fault
//! plans (loss *and* ICMP rate limiting), session counts, in-flight
//! budgets (fixed *and* adaptive), admission modes (streaming FIFO,
//! cost-aware heaviest-first) and admission orders.
//!
//! Sequential baseline: per destination, a fresh `SimNetwork` (same seed
//! as the sweep's lane) under the one-probe-at-a-time reference driver
//! of `tests/support`, which shares none of the engine's dispatch loop.
//! Sweep: one shared `MultiNetwork` over all lanes, one sans-IO session
//! per destination, rounds interleaved by the `SweepEngine` into
//! cross-destination batches with tag-based reply demultiplexing.
//!
//! Streaming admission and the AIMD budget controller only change *when*
//! a lane's probes cross the transport, never their per-lane order; and
//! every lane advances its RNG/clock state only on its own packets (the
//! default inter-cycle gap is 0). So the same invariant holds for every
//! admission schedule — which is exactly what lets the engine reorder
//! and adapt freely at survey scale.

mod support;

use mlpt::core::engine::{AdaptiveBudget, Admission, SweepConfig, SweepEngine};
use mlpt::core::prelude::*;
use mlpt::core::session::TraceSession;
use mlpt::sim::{FaultPlan, FaultSchedule, MultiNetwork, SimNetwork};
use mlpt::topo::graph::addr;
use mlpt::topo::{canonical, MultipathTopology, TopologyBuilder};
use proptest::prelude::*;
use std::net::Ipv4Addr;
use support::PerProbe;

const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

/// The canonical topology pool the sweep draws lanes from.
fn base_topology(index: u8) -> MultipathTopology {
    match index % 5 {
        0 => canonical::simplest_diamond(),
        1 => canonical::fig1_unmeshed(),
        2 => canonical::fig1_meshed(),
        3 => canonical::symmetric(),
        _ => canonical::asymmetric(),
    }
}

/// A fault plan drawn from the property inputs. Rate limiting is in the
/// pool: with the default inter-cycle gap of 0, a lane's token buckets
/// see only its own packet stream, so outcomes stay schedule-independent.
fn fault_plan(kind: u8) -> FaultPlan {
    match kind % 4 {
        0 => FaultPlan::none(),
        1 => FaultPlan::with_loss(0.1, 0.0),
        2 => FaultPlan::with_loss(0.0, 0.15),
        _ => FaultPlan::with_rate_limit_window(3, 10),
    }
}

/// One destination of the sweep: its translated topology and seeds.
struct Lane {
    topology: MultipathTopology,
    sim_seed: u64,
    trace_seed: u64,
}

fn lanes_for(topo_indices: &[u8], base_seed: u64) -> Vec<Lane> {
    topo_indices
        .iter()
        .enumerate()
        .map(|(i, &t)| Lane {
            // Disjoint /8-style address blocks per lane so "the same"
            // canonical topology can appear behind many destinations.
            topology: base_topology(t).translated(0x0100_0000 * (i as u32 + 1)),
            sim_seed: base_seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9),
            trace_seed: base_seed ^ (i as u64) << 7,
        })
        .collect()
}

fn build_network(lane: &Lane, faults: &FaultPlan) -> SimNetwork {
    SimNetwork::builder(lane.topology.clone())
        .faults(*faults)
        .seed(lane.sim_seed)
        .build()
}

fn make_session(algo: u8, destination: Ipv4Addr, config: TraceConfig) -> Box<dyn TraceSession> {
    match algo % 3 {
        0 => Box::new(MdaSession::new(destination, config)),
        1 => Box::new(MdaLiteSession::new(destination, config)),
        _ => Box::new(SingleFlowSession::new(destination, config, FlowId(7))),
    }
}

fn sequential_trace(
    algo: u8,
    lane: &Lane,
    faults: &FaultPlan,
    retries: u8,
    probe_budget: u64,
) -> (Trace, u64) {
    let destination = lane.topology.destination();
    let mut reference = PerProbe::new(build_network(lane, faults), SRC, destination, retries);
    let config = TraceConfig::new(lane.trace_seed).with_probe_budget(probe_budget);
    let trace = reference.trace(make_session(algo, destination, config));
    (trace, reference.probes_sent())
}

/// Runs one sweep over the lanes, with sessions fed to the engine in
/// `order` (a permutation of lane indices); returns the traces mapped
/// back to lane order plus the stats.
#[expect(
    clippy::too_many_arguments,
    reason = "each argument is one axis the equivalence properties vary"
)]
fn sweep(
    lanes: &[Lane],
    order: &[usize],
    faults: &FaultPlan,
    algo: u8,
    probe_budget: u64,
    retries: u8,
    max_in_flight: usize,
    admission: Admission,
    adaptive: Option<AdaptiveBudget>,
) -> (Vec<Trace>, mlpt::core::SweepStats) {
    let net = MultiNetwork::new(lanes.iter().map(|l| build_network(l, faults)).collect())
        .expect("translated lanes have unique destinations");
    let mut engine = SweepEngine::new(net, SRC).with_config(SweepConfig {
        max_in_flight,
        retries,
        admission,
        adaptive,
        ..SweepConfig::default()
    });
    let sessions = order.iter().map(|&lane_idx| {
        make_session(
            algo,
            lanes[lane_idx].topology.destination(),
            TraceConfig::new(lanes[lane_idx].trace_seed).with_probe_budget(probe_budget),
        )
    });
    let in_order = engine.run_stream(sessions);
    assert_eq!(in_order.len(), lanes.len());
    // Undo the admission permutation: trace i of the stream belongs to
    // lane order[i].
    let mut by_lane: Vec<Option<Trace>> = (0..lanes.len()).map(|_| None).collect();
    for (stream_idx, trace) in in_order.into_iter().enumerate() {
        by_lane[order[stream_idx]] = Some(trace);
    }
    (
        by_lane
            .into_iter()
            .map(|t| t.expect("every lane traced"))
            .collect(),
        *engine.stats(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// sweep(N destinations) == N sequential traces, bit for bit —
    /// whatever the admission mode, admission order or budget schedule.
    #[test]
    fn sweep_is_bit_identical_to_sequential(
        topo_indices in proptest::collection::vec(0u8..5, 1..7),
        algo in 0u8..3,
        fault_kind in 0u8..4,
        base_seed in any::<u64>(),
        budget_kind in 0u8..3,
        retries in 0u8..2,
        probe_budget_kind in 0u8..3,
        adaptive_on in any::<bool>(),
        order_seed in any::<u64>(),
    ) {
        let faults = fault_plan(fault_kind);
        // Small probe budgets exercise the state machines' budget-cut
        // transitions (truncated rounds, mid-hunt exhaustion, cut meshing
        // tests); the default leaves them untouched.
        let probe_budget = match probe_budget_kind % 3 {
            0 => 30u64,
            1 => 400,
            _ => 1_000_000, // TraceConfig default: never exhausted here
        };
        let max_in_flight = match budget_kind % 3 {
            0 => 3usize, // splits almost every round across dispatch cycles
            1 => 64,
            _ => 2048,
        };
        let adaptive = adaptive_on.then(|| AdaptiveBudget {
            min_in_flight: 2,
            ..AdaptiveBudget::default()
        });
        let lanes = lanes_for(&topo_indices, base_seed);

        // An arbitrary admission order: rotate + optionally reverse.
        let mut order: Vec<usize> = (0..lanes.len()).collect();
        order.rotate_left((order_seed as usize) % lanes.len().max(1));
        if order_seed % 2 == 1 {
            order.reverse();
        }

        // Streaming sweep in the permuted admission order.
        let (streaming, stats) = sweep(
            &lanes, &order, &faults, algo, probe_budget, retries,
            max_in_flight, Admission::Streaming, adaptive,
        );
        // Cost-aware sweep in the permuted order: the engine reorders by
        // predicted cost internally, which must stay pure scheduling.
        let (cost_aware, cost_stats) = sweep(
            &lanes, &order, &faults, algo, probe_budget, retries,
            max_in_flight, Admission::CostAware(usize::MAX), adaptive,
        );

        // Sequential baseline, destination by destination.
        let mut total_sequential_probes = 0u64;
        for ((lane, streamed), costed) in lanes.iter().zip(&streaming).zip(&cost_aware) {
            let (sequential, sent) =
                sequential_trace(algo, lane, &faults, retries, probe_budget);
            total_sequential_probes += sent;
            prop_assert_eq!(
                streamed,
                &sequential,
                "streaming trace towards {} diverged",
                lane.topology.destination()
            );
            prop_assert_eq!(
                costed,
                &sequential,
                "cost-aware trace towards {} diverged",
                lane.topology.destination()
            );
        }

        // All engines did exactly the sequential loops' wire work,
        // merged into (far fewer) cross-destination dispatches.
        prop_assert_eq!(stats.probes_sent, total_sequential_probes);
        prop_assert_eq!(cost_stats.probes_sent, total_sequential_probes);
        prop_assert_eq!(cost_stats.sessions_completed, lanes.len() as u64);
        prop_assert_eq!(stats.malformed_replies, 0);
        prop_assert_eq!(stats.mismatched_replies, 0);
        prop_assert!(stats.max_batch <= max_in_flight);
        prop_assert_eq!(stats.sessions_admitted, lanes.len() as u64);
        prop_assert_eq!(stats.sessions_completed, lanes.len() as u64);
    }
}

/// Random unmeshed multipath topologies: 1 to 5 multi-vertex hops of
/// width 1 to 6 between a single first hop and the destination.
fn arb_topology() -> impl Strategy<Value = MultipathTopology> {
    proptest::collection::vec(1usize..=6, 1..6).prop_map(|mut widths| {
        widths.insert(0, 1);
        widths.push(1);
        let mut b = TopologyBuilder::default();
        for (h, &w) in widths.iter().enumerate() {
            b.add_hop((0..w).map(|i| addr(h, i)));
        }
        for h in 0..widths.len() - 1 {
            b.connect_unmeshed(h);
        }
        b.build().expect("valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One trace on the engine and on the one-probe-at-a-time reference,
    /// over identically seeded simulators of a random topology: the same
    /// observation stream, probe count and trace, for every algorithm.
    #[test]
    fn engine_matches_per_probe_reference_on_random_topologies(
        topo in arb_topology(),
        seed in any::<u64>(),
        algo in 0u8..3,
    ) {
        let destination = topo.destination();
        let session = || make_session(algo, destination, TraceConfig::new(seed));
        let mut engine = SweepEngine::new(SimNetwork::new(topo.clone(), seed), SRC);
        let (swept, logged) = engine.run_trace(LoggedSession::new(session()));
        let mut reference = PerProbe::new(SimNetwork::new(topo, seed), SRC, destination, 0);
        let expected = reference.trace(session());

        prop_assert_eq!(
            &logged.log().indirect,
            &reference.log().indirect,
            "observation streams diverged"
        );
        prop_assert_eq!(engine.stats().probes_sent, reference.probes_sent());
        prop_assert_eq!(swept, expected);
    }
}

/// One impairment plan drawn from the property inputs. The vocabulary
/// covers everything [`FaultPlan`] can express but jitter: loss on
/// either direction, reply latency, mid-path blackholes and ICMP rate
/// limits.
fn arbitrary_plan(kind: u8, magnitude: u8) -> FaultPlan {
    let m = f64::from(magnitude % 10) / 10.0;
    match kind % 6 {
        0 => FaultPlan::none(),
        1 => FaultPlan::with_loss(m, 0.0),
        2 => FaultPlan::with_loss(0.0, m),
        3 => FaultPlan::none().with_latency(u64::from(magnitude % 16)),
        4 => FaultPlan::none().with_blackhole(magnitude % 4 + 1),
        _ => FaultPlan::with_rate_limit(u32::from(magnitude % 5) + 1, 0.1),
    }
}

/// An arbitrary stepped schedule: clean at tick 0, then the generated
/// steps at strictly increasing ticks.
fn arbitrary_schedule(steps: &[(u8, u8, u8)]) -> FaultSchedule {
    let mut schedule = FaultSchedule::none();
    let mut tick = 0u64;
    for &(delta, kind, magnitude) in steps {
        tick += u64::from(delta) + 1;
        schedule = schedule.step(tick, arbitrary_plan(kind, magnitude));
    }
    schedule
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Graceful degradation is still pure scheduling: under *any*
    /// generated fault schedule — including ones that blackhole the
    /// path outright — every admission mode terminates, the modes'
    /// traces agree bit for bit, a rerun from the same seeds is
    /// bit-identical, and the retry-wave accounting partitions
    /// `probes_sent` exactly.
    ///
    /// (No sequential baseline here on purpose: the one-probe-at-a-time
    /// reference cannot express deadlines, so under latency or
    /// blackholes it legitimately observes a different world than the
    /// deadline-driven engine.)
    #[test]
    fn degraded_sweeps_terminate_and_agree(
        topo_indices in proptest::collection::vec(0u8..5, 1..5),
        steps in proptest::collection::vec((0u8..40, 0u8..6, any::<u8>()), 0..5),
        algo in 0u8..3,
        base_seed in any::<u64>(),
        retries in 0u8..3,
        stall_rounds in 1u32..6,
        budget_kind in 0u8..3,
    ) {
        let schedule = arbitrary_schedule(&steps);
        let lanes = lanes_for(&topo_indices, base_seed);
        let max_in_flight = match budget_kind % 3 {
            0 => 3usize,
            1 => 64,
            _ => 2048,
        };
        let run = |admission: Admission| -> (Vec<Trace>, mlpt::core::SweepStats) {
            let net = MultiNetwork::new(
                lanes
                    .iter()
                    .map(|l| {
                        SimNetwork::builder(l.topology.clone())
                            .faults(schedule.clone())
                            .seed(l.sim_seed)
                            .build()
                    })
                    .collect(),
            )
            .expect("translated lanes have unique destinations");
            let mut engine = SweepEngine::new(net, SRC).with_config(SweepConfig {
                max_in_flight,
                retries,
                stall_rounds,
                admission,
                ..SweepConfig::default()
            });
            let sessions: Vec<Box<dyn TraceSession>> = lanes
                .iter()
                .map(|l| {
                    make_session(
                        algo,
                        l.topology.destination(),
                        TraceConfig::new(l.trace_seed),
                    )
                })
                .collect();
            let traces = engine.run_stream(sessions);
            (traces, *engine.stats())
        };

        // Terminates under every admission mode (reaching this line at
        // all is the liveness claim; the watchdog is what guarantees it
        // when the schedule goes dark).
        let (streaming, streaming_stats) = run(Admission::Streaming);
        let (cost_aware, cost_stats) = run(Admission::CostAware(usize::MAX));

        // Bit-for-bit agreement across admission modes.
        prop_assert_eq!(&streaming, &cost_aware);

        // Reproducible: the same seeds replay to the same sweep.
        let (replay, replay_stats) = run(Admission::Streaming);
        prop_assert_eq!(&streaming, &replay);
        prop_assert_eq!(streaming_stats.probes_sent, replay_stats.probes_sent);
        prop_assert_eq!(
            streaming_stats.sessions_partial,
            replay_stats.sessions_partial
        );

        // The retry-wave accounting invariant partitions probes_sent.
        for stats in [&streaming_stats, &cost_stats] {
            prop_assert_eq!(
                stats.probes_timed_out
                    + stats.replies_delivered
                    + stats.malformed_replies
                    + stats.mismatched_replies,
                stats.probes_sent
            );
            prop_assert_eq!(stats.sessions_admitted, lanes.len() as u64);
            prop_assert_eq!(stats.sessions_completed, lanes.len() as u64);
        }
        prop_assert_eq!(streaming_stats.sessions_partial, cost_stats.sessions_partial);
    }
}

// ---------------------------------------------------------------------
// Route changes mid-sweep: the topology itself mutates while sessions
// are probing. The audit/recovery protocol is session-local state, so
// detection, classification, suffix re-traces and budget-exhaustion
// partials must all be pure protocol — identical across every admission
// mode and replayable from the seeds.
// ---------------------------------------------------------------------

use mlpt::sim::{TopoMutation, TopologySchedule};

/// One route mutation drawn from the property inputs. Positions are
/// drawn small so most mutations land on real hops; ones the current
/// shape cannot honour are rejected by the simulator (counted, not
/// applied), which is itself part of the property.
fn arbitrary_mutation(kind: u8, x: u8, y: u8) -> TopoMutation {
    let hop = usize::from(x % 4);
    match kind % 5 {
        0 => TopoMutation::SwapSuccessors {
            hop,
            a: usize::from(y % 3),
            b: usize::from(y % 3) + 1,
        },
        1 => TopoMutation::AddBranch { hop },
        2 => TopoMutation::RemoveBranch {
            hop,
            index: usize::from(y % 4),
        },
        3 => TopoMutation::InsertHop { at: hop + 1 },
        _ => TopoMutation::RemoveHop { at: hop + 1 },
    }
}

/// An arbitrary mutation timeline at strictly increasing positive ticks.
fn arbitrary_topology_schedule(steps: &[(u8, u8, u8, u8)]) -> TopologySchedule {
    let mut schedule = TopologySchedule::none();
    let mut tick = 0u64;
    for &(delta, kind, x, y) in steps {
        tick += u64::from(delta) + 1;
        schedule = schedule.step(tick, arbitrary_mutation(kind, x, y));
    }
    schedule
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Under *any* generated mutation timeline — branches appearing and
    /// vanishing, hops inserted and spliced out, successor sets flapping
    /// — every admission mode terminates, all three modes' traces and
    /// robustness counters agree bit for bit, a rerun from the same
    /// seeds replays exactly, and the retry-wave accounting still
    /// partitions `probes_sent`. Route-change recovery is protocol,
    /// never scheduling.
    #[test]
    fn route_changed_sweeps_terminate_and_agree(
        topo_indices in proptest::collection::vec(0u8..5, 1..5),
        steps in proptest::collection::vec(
            (0u8..80, 0u8..5, any::<u8>(), any::<u8>()), 0..4),
        algo in 0u8..3,
        base_seed in any::<u64>(),
        stall_rounds in 2u32..6,
        budget_kind in 0u8..3,
    ) {
        let schedule = arbitrary_topology_schedule(&steps);
        let lanes = lanes_for(&topo_indices, base_seed);
        let max_in_flight = match budget_kind % 3 {
            0 => 3usize,
            1 => 64,
            _ => 2048,
        };
        let run = |admission: Admission| -> (Vec<Trace>, SweepStats) {
            let net = MultiNetwork::new(
                lanes
                    .iter()
                    .map(|l| {
                        SimNetwork::builder(l.topology.clone())
                            .topology_schedule(schedule.clone())
                            .seed(l.sim_seed)
                            .build()
                    })
                    .collect(),
            )
            .expect("translated lanes have unique destinations");
            let mut engine = SweepEngine::new(net, SRC).with_config(SweepConfig {
                max_in_flight,
                stall_rounds,
                admission,
                ..SweepConfig::default()
            });
            let sessions: Vec<Box<dyn TraceSession>> = lanes
                .iter()
                .map(|l| {
                    // Tight hunts keep post-mutation flow searches (for
                    // branches that no longer exist) from dominating the
                    // runtime; the audit is armed with the default budget.
                    let config = TraceConfig {
                        node_control_attempts: 300,
                        ..TraceConfig::new(l.trace_seed)
                            .with_reprobe(ReprobeBudget::default())
                    };
                    make_session(algo, l.topology.destination(), config)
                })
                .collect();
            let traces = engine.run_stream(sessions);
            (traces, *engine.stats())
        };

        // Terminates under every admission mode (reaching this line is
        // the liveness claim: bounded audits, bounded recoveries, and
        // flow hunts that survive a route that keeps changing).
        let (streaming, streaming_stats) = run(Admission::Streaming);
        let (cost_aware, cost_stats) = run(Admission::CostAware(usize::MAX));
        let (windowed, windowed_stats) = run(Admission::CostAware(2));

        // Bit-for-bit agreement across all three admission modes.
        prop_assert_eq!(&streaming, &cost_aware);
        prop_assert_eq!(&streaming, &windowed);

        // Replay from the seeds is exact, counters included.
        let (replay, replay_stats) = run(Admission::Streaming);
        prop_assert_eq!(&streaming, &replay);
        prop_assert_eq!(streaming_stats, replay_stats);

        for stats in [&streaming_stats, &cost_stats, &windowed_stats] {
            // Recovery decisions are protocol state: every mode sees the
            // same artifacts, recoveries and honest partials.
            prop_assert_eq!(stats.artifacts_detected, streaming_stats.artifacts_detected);
            prop_assert_eq!(stats.route_recoveries, streaming_stats.route_recoveries);
            prop_assert_eq!(stats.reprobes_sent, streaming_stats.reprobes_sent);
            prop_assert_eq!(
                stats.route_changed_partials,
                streaming_stats.route_changed_partials
            );
            prop_assert_eq!(stats.sessions_admitted, lanes.len() as u64);
            prop_assert_eq!(stats.sessions_completed, lanes.len() as u64);
            // The retry-wave accounting invariant survives mutation.
            prop_assert_eq!(
                stats.probes_timed_out
                    + stats.replies_delivered
                    + stats.malformed_replies
                    + stats.mismatched_replies,
                stats.probes_sent
            );
        }

        // Every session that spent its recovery budget owns an honest
        // RouteChanged partial in its trace, and vice versa.
        let route_changed_traces = streaming
            .iter()
            .filter(|t| {
                matches!(
                    t.outcome,
                    TraceOutcome::Partial {
                        reason: PartialReason::RouteChanged { .. }
                    }
                )
            })
            .count() as u64;
        prop_assert_eq!(route_changed_traces, streaming_stats.route_changed_partials);
    }
}

// ---------------------------------------------------------------------
// Shared stop sets (Doubletree): cross-destination redundancy
// elimination must be pure *protocol* — the union topology a sweep
// discovers (probed hops plus the prefix reconstructable from the
// shared set) is exactly what probing every destination in full would
// have found, bit-identical across every admission mode, and
// replayable from the seeds.
// ---------------------------------------------------------------------

use mlpt::core::engine::SweepStats;
use mlpt::core::StopSnapshot;

/// The per-destination path as `(TTL, interface)` pairs, canonically
/// ordered (discovery order within a hop is presentation, not topology).
fn path_of(trace: &Trace) -> Vec<(u8, Ipv4Addr)> {
    let mut pairs: Vec<(u8, Ipv4Addr)> = (1..=trace.discovery.max_observed_ttl())
        .flat_map(|ttl| {
            trace
                .discovery
                .vertices_at(ttl)
                .iter()
                .map(move |v| (ttl, *v))
        })
        .collect();
    pairs.sort_unstable();
    pairs
}

/// The classic path a stop-set trace testifies to: its probed hops plus
/// the elided prefix reconstructed from the final shared set.
fn reconstructed_path(trace: &Trace, snapshot: &StopSnapshot) -> Vec<(u8, Ipv4Addr)> {
    let probed = path_of(trace);
    let Some(&(first_ttl, first_iface)) = probed.first() else {
        return probed;
    };
    let mut full: Vec<(u8, Ipv4Addr)> = snapshot
        .reconstruct_prefix(first_ttl, first_iface)
        .into_iter()
        .chain(probed)
        .collect();
    full.sort_unstable();
    full.dedup();
    full
}

/// Runs a Doubletree-family sweep: one session per lane in lane order,
/// over per-lane networks built by `net_of`.
fn stop_sweep(
    topologies: &[MultipathTopology],
    net_of: &dyn Fn(usize) -> SimNetwork,
    trace_seed_of: &dyn Fn(usize) -> u64,
    algo: u8,
    admission: Admission,
    max_in_flight: usize,
    stop_set: Option<StopSetConfig>,
) -> (Vec<Trace>, SweepStats, Option<StopSnapshot>) {
    let net = MultiNetwork::new((0..topologies.len()).map(net_of).collect())
        .expect("per-lane destinations are unique");
    let mut engine = SweepEngine::new(net, SRC).with_config(SweepConfig {
        max_in_flight,
        admission,
        stop_set,
        ..SweepConfig::default()
    });
    let sessions: Vec<Box<dyn TraceSession>> = topologies
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let config = TraceConfig::new(trace_seed_of(i));
            match algo % 2 {
                0 => Box::new(SingleFlowSession::new(t.destination(), config, FlowId(7)))
                    as Box<dyn TraceSession>,
                _ => Box::new(MdaLiteSession::new(t.destination(), config)),
            }
        })
        .collect();
    let traces = engine.run_stream(sessions);
    (traces, *engine.stats(), engine.stop_snapshot().cloned())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A stop-set sweep over a shared-prefix family discovers the same
    /// union topology as the sequential-shaped baseline (each
    /// destination's prefix is reconstructable from the shared set),
    /// stays bit-identical across all three admission modes, and
    /// replays exactly from the seeds. For the single-flow tracer the
    /// probe ledger is exact: sent + elided equals the classic sweep's
    /// wire count.
    #[test]
    fn stop_set_sweep_preserves_union_topology(
        prefix_len in 4usize..16,
        suffix_len in 0usize..4,
        lane_count in 2usize..10,
        commit_width in 1usize..6,
        algo in 0u8..2,
        fixed_start_raw in 0u8..12,
        budget_kind in 0u8..3,
        window in 1usize..5,
        base_seed in any::<u64>(),
    ) {
        let topologies: Vec<MultipathTopology> = (0..lane_count)
            .map(|i| canonical::shared_prefix_lane(prefix_len, suffix_len, i))
            .collect();
        let net_of = |i: usize| -> SimNetwork {
            SimNetwork::new(
                topologies[i].clone(),
                base_seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9),
            )
        };
        let trace_seed_of = |i: usize| base_seed ^ ((i as u64) << 7);
        let max_in_flight = match budget_kind % 3 {
            0 => 3usize,
            1 => 64,
            _ => 2048,
        };
        // Raw values below 2 mean "adaptive start"; the rest pin the
        // start TTL (possibly past the prefix, exercising backward
        // probing through unshared suffix hops).
        let fixed_start = (fixed_start_raw >= 2).then_some(fixed_start_raw);
        let stop_cfg = StopSetConfig {
            commit_width,
            adaptive_start: fixed_start.is_none(),
            start_ttl: fixed_start.unwrap_or(8),
        };

        let (classic, classic_stats, no_snap) = stop_sweep(
            &topologies, &net_of, &trace_seed_of, algo,
            Admission::Streaming, max_in_flight, None,
        );
        prop_assert!(no_snap.is_none());

        let (stopped, stats, snap) = stop_sweep(
            &topologies, &net_of, &trace_seed_of, algo,
            Admission::Streaming, max_in_flight, Some(stop_cfg),
        );
        let snap = snap.expect("stop-set run publishes a snapshot");

        // Determinism rule 5: stop-set contents are protocol state, so
        // every admission mode replays the identical sweep.
        for admission in [
            Admission::CostAware(usize::MAX),
            Admission::CostAware(window),
            Admission::Streaming, // the replay-from-seed case
        ] {
            let (again, again_stats, again_snap) = stop_sweep(
                &topologies, &net_of, &trace_seed_of, algo,
                admission, max_in_flight, Some(stop_cfg),
            );
            prop_assert_eq!(&again, &stopped, "admission {:?} diverged", admission);
            prop_assert_eq!(again_stats.probes_sent, stats.probes_sent);
            prop_assert_eq!(again_stats.probes_elided, stats.probes_elided);
            prop_assert_eq!(again_stats.stop_set_hits, stats.stop_set_hits);
            let again_snap = again_snap.expect("snapshot present");
            prop_assert_eq!(again_snap.len(), snap.len());
            prop_assert_eq!(again_snap.start_ttl(), snap.start_ttl());
        }

        // Union-topology equivalence: probed hops + reconstructed
        // prefix per destination equal the classic per-destination path.
        for (classic_trace, stopped_trace) in classic.iter().zip(&stopped) {
            prop_assert!(stopped_trace.reached_destination);
            prop_assert_eq!(
                reconstructed_path(stopped_trace, &snap),
                path_of(classic_trace),
                "destination {} lost or gained topology under the stop set",
                classic_trace.destination
            );
        }

        // The single-flow probe ledger is exact on a lossless network.
        if algo % 2 == 0 {
            prop_assert_eq!(
                stats.probes_sent + stats.probes_elided,
                classic_stats.probes_sent
            );
            if lane_count > commit_width {
                prop_assert!(stats.stop_set_hits > 0, "later generations must stop early");
            }
        }
    }

    /// Fault injection: a lane blackholed from some TTL onward (its
    /// session never reaches the destination) cannot poison the shared
    /// set — every clean lane still reconstructs exactly the path it
    /// would have probed in full, because contributions only ever carry
    /// firsthand observations.
    #[test]
    fn blackholed_lane_cannot_poison_stop_set(
        prefix_len in 6usize..16,
        lane_count in 3usize..8,
        blackhole_ttl in 2u8..8,
        commit_width in 1usize..3,
        base_seed in any::<u64>(),
    ) {
        let topologies: Vec<MultipathTopology> = (0..lane_count)
            .map(|i| canonical::shared_prefix_lane(prefix_len, 2, i))
            .collect();
        let net_of = |i: usize| -> SimNetwork {
            let mut builder = SimNetwork::builder(topologies[i].clone())
                .seed(base_seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9));
            if i == 0 {
                builder = builder.faults(FaultPlan::none().with_blackhole(blackhole_ttl));
            }
            builder.build()
        };
        let trace_seed_of = |i: usize| base_seed ^ ((i as u64) << 9);
        let stop_cfg = StopSetConfig { commit_width, ..StopSetConfig::default() };

        let (classic, _, _) = stop_sweep(
            &topologies, &net_of, &trace_seed_of, 0,
            Admission::Streaming, 64, None,
        );
        let (stopped, stats, snap) = stop_sweep(
            &topologies, &net_of, &trace_seed_of, 0,
            Admission::Streaming, 64, Some(stop_cfg),
        );
        let snap = snap.expect("snapshot present");

        // The blackholed lane fails the same way with or without the
        // set: probes from `blackhole_ttl` on go dark.
        prop_assert!(!stopped[0].reached_destination);
        // Every clean lane still reaches and still testifies to its
        // full classic path.
        for (i, (classic_trace, stopped_trace)) in
            classic.iter().zip(&stopped).enumerate().skip(1)
        {
            prop_assert!(stopped_trace.reached_destination, "clean lane {i} must finish");
            prop_assert_eq!(
                reconstructed_path(stopped_trace, &snap),
                path_of(classic_trace),
                "clean lane {} was poisoned by the blackholed contributor",
                i
            );
        }
        // Honesty invariant: the stop-set sweep may know *less* than the
        // classic union (the blackholed lane reaches fewer hops), never
        // more — no observation exists that a classic trace wouldn't see.
        let legit: std::collections::BTreeSet<(u8, Ipv4Addr)> =
            classic.iter().flat_map(path_of).collect();
        for (ttl, iface) in stopped.iter().flat_map(path_of) {
            prop_assert!(
                legit.contains(&(ttl, iface)),
                "stop-set sweep observed ({ttl}, {iface}) that no classic trace saw"
            );
        }
        // Retry accounting still partitions exactly under faults.
        prop_assert_eq!(
            stats.probes_timed_out
                + stats.replies_delivered
                + stats.malformed_replies
                + stats.mismatched_replies,
            stats.probes_sent
        );
    }
}

// ---------------------------------------------------------------------
// Sharded engine: the destination space partitioned across N engine
// shards on worker threads must stay pure *scheduling* — bit-identical
// to the single engine for any shard count, any admission mode, any
// fault or route-mutation schedule, with the stop-set ledger and the
// 4-bucket retry accounting exact per shard and merged, and replay
// from the seeds exact down to every counter.
// ---------------------------------------------------------------------

/// Runs one sweep over per-lane networks under both schedules, through
/// a [`ShardedSweepEngine`] with `shards` partitions.
fn sharded_run(
    lanes: &[Lane],
    faults: &FaultSchedule,
    topo: &TopologySchedule,
    algo: u8,
    admission: Admission,
    shards: usize,
    stop_set: Option<StopSetConfig>,
) -> (
    Vec<Trace>,
    SweepStats,
    Vec<SweepStats>,
    Option<StopSnapshot>,
) {
    let net = MultiNetwork::new(
        lanes
            .iter()
            .map(|l| {
                SimNetwork::builder(l.topology.clone())
                    .faults(faults.clone())
                    .topology_schedule(topo.clone())
                    .seed(l.sim_seed)
                    .build()
            })
            .collect(),
    )
    .expect("translated lanes have unique destinations");
    let parts = net.split_by(shards, |d| shard_of(d, shards));
    let mut engine = ShardedSweepEngine::new(parts, SRC).with_config(SweepConfig {
        max_in_flight: 16,
        stall_rounds: 3,
        admission,
        stop_set,
        ..SweepConfig::default()
    });
    let sessions: Vec<Box<dyn TraceSession>> = lanes
        .iter()
        .map(|l| {
            // Same tight hunts as the route-change property: mutations
            // can orphan flow searches, the audit runs on the default
            // budget.
            let config = TraceConfig {
                node_control_attempts: 300,
                ..TraceConfig::new(l.trace_seed).with_reprobe(ReprobeBudget::default())
            };
            make_session(algo, l.topology.destination(), config)
        })
        .collect();
    let traces = engine.run_stream(sessions);
    let per_shard: Vec<SweepStats> = engine.shard_stats().into_iter().copied().collect();
    let snapshot = engine.stop_snapshot().cloned();
    (traces, *engine.stats(), per_shard, snapshot)
}

/// Same sweep on the plain single [`SweepEngine`] — the baseline every
/// shard count must reproduce bit for bit.
fn plain_run(
    lanes: &[Lane],
    faults: &FaultSchedule,
    topo: &TopologySchedule,
    algo: u8,
    stop_set: Option<StopSetConfig>,
) -> (Vec<Trace>, SweepStats, Option<StopSnapshot>) {
    let net = MultiNetwork::new(
        lanes
            .iter()
            .map(|l| {
                SimNetwork::builder(l.topology.clone())
                    .faults(faults.clone())
                    .topology_schedule(topo.clone())
                    .seed(l.sim_seed)
                    .build()
            })
            .collect(),
    )
    .expect("translated lanes have unique destinations");
    let mut engine = SweepEngine::new(net, SRC).with_config(SweepConfig {
        max_in_flight: 16,
        stall_rounds: 3,
        admission: Admission::Streaming,
        stop_set,
        ..SweepConfig::default()
    });
    let sessions: Vec<Box<dyn TraceSession>> = lanes
        .iter()
        .map(|l| {
            let config = TraceConfig {
                node_control_attempts: 300,
                ..TraceConfig::new(l.trace_seed).with_reprobe(ReprobeBudget::default())
            };
            make_session(algo, l.topology.destination(), config)
        })
        .collect();
    let traces = engine.run_stream(sessions);
    let snapshot = engine.stop_snapshot().cloned();
    (traces, *engine.stats(), snapshot)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sharding is pure scheduling under *any* generated fault schedule
    /// and route-mutation timeline: every shard count and every
    /// admission mode reproduces the plain engine's traces bit for bit,
    /// protocol-level counters (probes, replies, timeouts, elisions,
    /// sessions) are identical, the 4-bucket retry accounting
    /// partitions `probes_sent` exactly per shard *and* merged, and a
    /// replay from the seeds matches down to every counter — including
    /// the scheduling-only ones.
    #[test]
    fn sharded_sweeps_match_single_engine_under_schedules(
        topo_indices in proptest::collection::vec(0u8..5, 2..6),
        fault_steps in proptest::collection::vec((0u8..40, 0u8..6, any::<u8>()), 0..4),
        topo_steps in proptest::collection::vec(
            (0u8..80, 0u8..5, any::<u8>(), any::<u8>()), 0..3),
        algo in 0u8..3,
        base_seed in any::<u64>(),
        shards in 2usize..5,
        use_stop in any::<bool>(),
        commit_width in 1usize..5,
    ) {
        let faults = arbitrary_schedule(&fault_steps);
        let topo = arbitrary_topology_schedule(&topo_steps);
        let lanes = lanes_for(&topo_indices, base_seed);
        let stop_cfg = use_stop.then_some(StopSetConfig {
            commit_width,
            ..StopSetConfig::default()
        });

        let (baseline, baseline_stats, baseline_snap) =
            plain_run(&lanes, &faults, &topo, algo, stop_cfg);

        for admission in [
            Admission::Streaming,
            Admission::CostAware(usize::MAX),
            Admission::CostAware(2),
        ] {
            // A 1-shard engine and the drawn N-shard split must both
            // reproduce the baseline.
            for shard_count in [1usize, shards] {
                let (traces, stats, per_shard, snap) = sharded_run(
                    &lanes, &faults, &topo, algo, admission, shard_count, stop_cfg,
                );
                prop_assert_eq!(
                    &traces, &baseline,
                    "{:?} at {} shards diverged from the plain engine",
                    admission, shard_count
                );
                prop_assert_eq!(per_shard.len(), shard_count);

                // Protocol-level counters are shard-invariant.
                prop_assert_eq!(stats.probes_sent, baseline_stats.probes_sent);
                prop_assert_eq!(stats.replies_delivered, baseline_stats.replies_delivered);
                prop_assert_eq!(stats.probes_timed_out, baseline_stats.probes_timed_out);
                prop_assert_eq!(stats.probes_elided, baseline_stats.probes_elided);
                prop_assert_eq!(stats.stop_set_hits, baseline_stats.stop_set_hits);
                prop_assert_eq!(stats.retries_elided, baseline_stats.retries_elided);
                prop_assert_eq!(stats.sessions_admitted, baseline_stats.sessions_admitted);
                prop_assert_eq!(stats.sessions_completed, baseline_stats.sessions_completed);
                prop_assert_eq!(stats.sessions_partial, baseline_stats.sessions_partial);
                prop_assert_eq!(stats.artifacts_detected, baseline_stats.artifacts_detected);
                prop_assert_eq!(stats.route_recoveries, baseline_stats.route_recoveries);

                // The shared set converges to the same contents.
                match (&snap, &baseline_snap) {
                    (Some(s), Some(b)) => {
                        prop_assert_eq!(s.len(), b.len());
                        prop_assert_eq!(s.start_ttl(), b.start_ttl());
                    }
                    (None, None) => {}
                    _ => prop_assert!(false, "snapshot presence diverged"),
                }

                // The 4-bucket accounting partitions probes_sent per
                // shard and merged, and the shards sum to the merge.
                let mut summed = 0u64;
                for shard in &per_shard {
                    prop_assert_eq!(
                        shard.probes_timed_out
                            + shard.replies_delivered
                            + shard.malformed_replies
                            + shard.mismatched_replies,
                        shard.probes_sent
                    );
                    summed += shard.probes_sent;
                }
                prop_assert_eq!(summed, stats.probes_sent);
                prop_assert_eq!(
                    stats.probes_timed_out
                        + stats.replies_delivered
                        + stats.malformed_replies
                        + stats.mismatched_replies,
                    stats.probes_sent
                );
            }
        }

        // Replay from the seeds is exact down to every counter —
        // scheduling ones (dispatch cycles, barrier stalls) included.
        let (first, first_stats, first_shards, _) = sharded_run(
            &lanes, &faults, &topo, algo, Admission::Streaming, shards, stop_cfg,
        );
        let (again, again_stats, again_shards, _) = sharded_run(
            &lanes, &faults, &topo, algo, Admission::Streaming, shards, stop_cfg,
        );
        prop_assert_eq!(&first, &again);
        prop_assert_eq!(first_stats, again_stats);
        prop_assert_eq!(first_shards, again_shards);
    }
}

/// Runs a Doubletree-family sweep through a [`ShardedSweepEngine`]:
/// the sharded analogue of [`stop_sweep`].
fn sharded_stop_sweep(
    topologies: &[MultipathTopology],
    net_of: &dyn Fn(usize) -> SimNetwork,
    trace_seed_of: &dyn Fn(usize) -> u64,
    shards: usize,
    stop_set: Option<StopSetConfig>,
) -> (
    Vec<Trace>,
    SweepStats,
    Vec<SweepStats>,
    Option<StopSnapshot>,
) {
    let net = MultiNetwork::new((0..topologies.len()).map(net_of).collect())
        .expect("per-lane destinations are unique");
    let parts = net.split_by(shards, |d| shard_of(d, shards));
    let mut engine = ShardedSweepEngine::new(parts, SRC).with_config(SweepConfig {
        max_in_flight: 64,
        admission: Admission::Streaming,
        stop_set,
        ..SweepConfig::default()
    });
    let sessions: Vec<Box<dyn TraceSession>> = topologies
        .iter()
        .enumerate()
        .map(|(i, t)| {
            Box::new(SingleFlowSession::new(
                t.destination(),
                TraceConfig::new(trace_seed_of(i)),
                FlowId(7),
            )) as Box<dyn TraceSession>
        })
        .collect();
    let traces = engine.run_stream(sessions);
    let per_shard: Vec<SweepStats> = engine.shard_stats().into_iter().copied().collect();
    let snapshot = engine.stop_snapshot().cloned();
    (traces, *engine.stats(), per_shard, snapshot)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The stop-set probe ledger survives sharding exactly: for the
    /// single-flow tracer over a lossless shared-prefix family, a
    /// sharded stop-set sweep sends and elides *exactly* the probes the
    /// unsharded one does — `probes_sent + probes_elided` equals the
    /// classic (no stop set) wire count for every shard count — and the
    /// published snapshot is the same set.
    #[test]
    fn sharded_stop_set_ledger_is_exact(
        prefix_len in 4usize..14,
        suffix_len in 0usize..4,
        lane_count in 2usize..10,
        commit_width in 1usize..6,
        shards in 1usize..5,
        base_seed in any::<u64>(),
    ) {
        let topologies: Vec<MultipathTopology> = (0..lane_count)
            .map(|i| canonical::shared_prefix_lane(prefix_len, suffix_len, i))
            .collect();
        let net_of = |i: usize| -> SimNetwork {
            SimNetwork::new(
                topologies[i].clone(),
                base_seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9),
            )
        };
        let trace_seed_of = |i: usize| base_seed ^ ((i as u64) << 7);
        let stop_cfg = StopSetConfig { commit_width, ..StopSetConfig::default() };

        // Unsharded references: classic (no stop set) and stopped.
        let (classic, classic_stats, _) = stop_sweep(
            &topologies, &net_of, &trace_seed_of, 0,
            Admission::Streaming, 64, None,
        );
        let (stopped, stats, snap) = stop_sweep(
            &topologies, &net_of, &trace_seed_of, 0,
            Admission::Streaming, 64, Some(stop_cfg),
        );
        let snap = snap.expect("stop-set run publishes a snapshot");
        prop_assert_eq!(
            stats.probes_sent + stats.probes_elided,
            classic_stats.probes_sent
        );

        // Every shard count reproduces the unsharded sweep and its
        // ledger bit for bit.
        for shard_count in [shards, shards % 4 + 1] {
            let (sharded, sharded_stats, per_shard, sharded_snap) = sharded_stop_sweep(
                &topologies, &net_of, &trace_seed_of, shard_count, Some(stop_cfg),
            );
            prop_assert_eq!(
                &sharded, &stopped,
                "{} shards diverged from the unsharded stop-set sweep",
                shard_count
            );
            prop_assert_eq!(sharded_stats.probes_sent, stats.probes_sent);
            prop_assert_eq!(sharded_stats.probes_elided, stats.probes_elided);
            prop_assert_eq!(sharded_stats.stop_set_hits, stats.stop_set_hits);
            prop_assert_eq!(
                sharded_stats.probes_sent + sharded_stats.probes_elided,
                classic_stats.probes_sent
            );
            let sharded_snap = sharded_snap.expect("snapshot present");
            prop_assert_eq!(sharded_snap.len(), snap.len());
            prop_assert_eq!(sharded_snap.start_ttl(), snap.start_ttl());

            // Per-shard 4-bucket accounting and classic reconstruction.
            for shard in &per_shard {
                prop_assert_eq!(
                    shard.probes_timed_out
                        + shard.replies_delivered
                        + shard.malformed_replies
                        + shard.mismatched_replies,
                    shard.probes_sent
                );
            }
            for (classic_trace, sharded_trace) in classic.iter().zip(&sharded) {
                prop_assert_eq!(
                    reconstructed_path(sharded_trace, &sharded_snap),
                    path_of(classic_trace),
                    "destination {} lost or gained topology under sharding",
                    classic_trace.destination
                );
            }
        }
    }
}

/// MDA-Lite diamond soundness under the stop set, on a fixed seed: a
/// load-balanced diamond in the *suffix* (past the shared prefix) must
/// be discovered with full per-hop flow evidence even by sessions that
/// short-circuit the prefix — the stopping rule falls back to real
/// probing wherever the set cannot supply flow-level evidence.
#[test]
fn stop_set_keeps_mda_lite_diamonds_sound() {
    let prefix_len = 12usize;
    let lane = |i: usize| -> MultipathTopology {
        let mut b = MultipathTopology::builder();
        for h in 0..prefix_len {
            b.add_hop([addr(h, 0)]);
        }
        // A two-wide diamond unique to this lane, then the destination.
        b.add_hop([
            addr(prefix_len, 1000 + 2 * i),
            addr(prefix_len, 1001 + 2 * i),
        ]);
        b.add_hop([addr(prefix_len + 1, i + 1)]);
        for h in 0..prefix_len - 1 {
            b.connect_unmeshed(h);
        }
        b.connect_full(prefix_len - 1);
        b.connect_full(prefix_len);
        b.build().expect("static topology")
    };
    let topologies: Vec<MultipathTopology> = (0..8).map(lane).collect();
    let net_of = |i: usize| SimNetwork::new(topologies[i].clone(), 41 + i as u64);
    let trace_seed_of = |i: usize| 7 + i as u64;
    let (classic, _, _) = stop_sweep(
        &topologies,
        &net_of,
        &trace_seed_of,
        1,
        Admission::Streaming,
        64,
        None,
    );
    let (stopped, stats, snap) = stop_sweep(
        &topologies,
        &net_of,
        &trace_seed_of,
        1,
        Admission::Streaming,
        64,
        Some(StopSetConfig {
            commit_width: 2,
            ..StopSetConfig::default()
        }),
    );
    let snap = snap.expect("snapshot present");
    for (i, (classic_trace, stopped_trace)) in classic.iter().zip(&stopped).enumerate() {
        assert!(stopped_trace.reached_destination);
        // Both diamond interfaces observed, with the same evidence a
        // full trace gathers (the diamond is past every stop hit, so
        // its discovery must be entirely firsthand).
        let diamond_ttl = (prefix_len + 1) as u8;
        let mut stopped_diamond = stopped_trace.discovery.vertices_at(diamond_ttl).to_vec();
        let mut classic_diamond = classic_trace.discovery.vertices_at(diamond_ttl).to_vec();
        stopped_diamond.sort_unstable();
        classic_diamond.sort_unstable();
        assert_eq!(
            stopped_diamond, classic_diamond,
            "lane {i} lost diamond interfaces under the stop set"
        );
        assert_eq!(
            reconstructed_path(stopped_trace, &snap),
            path_of(classic_trace),
            "lane {i} path diverged"
        );
    }
    assert!(stats.probes_elided > 0, "the shared prefix must be elided");
}
