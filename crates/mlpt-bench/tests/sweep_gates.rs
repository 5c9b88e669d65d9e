//! Deterministic gates of the sweep engine at survey scale. Each runs
//! its full workload under `cargo test`; only wall-clock timing stays
//! in the `concurrent_sweep` bench.
//!
//! * **Streaming admission** (512 synthetic-Internet MDA destinations,
//!   in-flight budget 32): traces and wire work identical to the
//!   sequential full-trace loop, and batches that stay full — at least
//!   15.03 probes per transport crossing overall (the 64-destination
//!   fixed-table figure streaming replaced), and probes per dispatch
//!   over the last 10% of probes at least half the full-sweep average,
//!   so the sweep does not end in a tail of straggler dispatches.
//! * **Alias rounds** (64 multilevel traces, Round 0–10 × 30, budget
//!   256): outcomes identical to one-session runs, with at least 3× more
//!   probes per crossing than the former blocking loop's crossings and a
//!   0.4 tail-utilization floor.
//! * **Cost-aware admission** (1,200 narrow + 4 wide-hop destinations,
//!   budget 2,048, per-hop fan-out): outcomes identical to FIFO
//!   streaming, a makespan of at most 0.9× FIFO's crossings, and a tail
//!   no lower than FIFO's.
//! * **Shared stop set** (shared-prefix family at widths
//!   16/64/256/1,024, commit width 16): every classic path recoverable
//!   from its stop-set trace plus the final set, an exact probe ledger,
//!   identical results under every admission mode, and probes per
//!   destination falling strictly with width, at least 30% below the
//!   width-16 figure at width 256.
//! * **Sharded engine** (the streaming workload at shard counts
//!   {1, 2, 4, host CPUs}): traces and wire work identical to the
//!   unsharded baseline, every shard sending probes, per-shard probe
//!   counts summing to the total and the four-bucket reply accounting
//!   exact on every shard.
//!
//! The adaptive-backoff and chaos gates live in the root crate's
//! `tests/adaptive_backoff.rs` and `tests/chaos.rs`.

use mlpt_alias::multilevel::{MultilevelConfig, MultilevelOutcome, MultilevelSession};
use mlpt_alias::rounds::RoundsConfig;
use mlpt_bench::concurrent_sweep::{
    build_lane, run_blocking, run_sequential, run_sharded_sweep, run_sweep,
    tail_probes_per_dispatch, trace_seed_of,
};
use mlpt_core::prelude::*;
use mlpt_core::session::TraceSession;
use mlpt_sim::{MultiNetwork, SimNetwork};
use mlpt_survey::{disjoint_scenario_groups, InternetConfig, SyntheticInternet, TraceScenario};
use mlpt_topo::MultipathTopology;
use std::net::Ipv4Addr;

const SOURCE: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

fn internet() -> SyntheticInternet {
    SyntheticInternet::new(InternetConfig::default())
}

#[test]
fn streaming_sweep_matches_sequential_loop_and_keeps_batches_full() {
    let internet = internet();
    let (seq_traces, _, seq_probes) = run_sequential(&internet);
    let (traces, stats, cycles) = run_sweep(&internet);
    assert_eq!(seq_traces.len(), traces.len());
    for (a, b) in seq_traces.iter().zip(&traces) {
        assert_eq!(a, b, "streaming sweep diverged for {}", a.destination);
    }
    assert_eq!(seq_probes, stats.probes_sent);

    // The single-trace entry point is the same machine on the same
    // engine.
    let scenario = internet.scenario(0);
    let mut engine = SweepEngine::new(build_lane(&internet, 0), scenario.source);
    let single = trace_mda(
        &mut engine,
        scenario.topology.destination(),
        &TraceConfig::new(trace_seed_of(0)),
    );
    assert_eq!(single, seq_traces[0]);

    let overall = stats.probes_per_dispatch();
    let tail = tail_probes_per_dispatch(&cycles);
    assert!(
        tail / overall >= 0.5,
        "streaming tail utilization regressed: tail {tail:.1} vs overall \
         {overall:.1} probes/dispatch (ratio {:.2} < 0.5)",
        tail / overall
    );
    assert!(
        overall >= 15.03,
        "streaming overall probes/dispatch regressed below the \
         64-destination fixed-table figure: {overall:.2} < 15.03"
    );
}

/// One multilevel session (trace + Round 0–10 alias resolution) for
/// scenario `id`.
fn multilevel_session(scenario: &TraceScenario, id: usize) -> MultilevelSession {
    MultilevelSession::new(
        scenario.topology.destination(),
        MultilevelConfig {
            trace: TraceConfig::new(trace_seed_of(id)),
            rounds: RoundsConfig::default(), // the paper's 10 x 30
        },
    )
}

#[test]
fn alias_sweep_matches_blocking_loop_and_amortizes_crossings() {
    const DESTINATIONS: usize = 64;
    let internet = internet();
    let scenarios: Vec<TraceScenario> = (0..DESTINATIONS).map(|id| internet.scenario(id)).collect();

    // The blocking baseline: one destination at a time, counted with the
    // former router-survey loop's crossings, through the same sessions.
    let mut sequential = Vec::with_capacity(DESTINATIONS);
    let (mut seq_crossings, mut seq_probes) = (0u64, 0u64);
    for (id, scenario) in scenarios.iter().enumerate() {
        let (session, crossings, sent) = run_blocking(
            build_lane(&internet, id),
            scenario.source,
            multilevel_session(scenario, id),
        );
        seq_crossings += crossings;
        seq_probes += sent;
        sequential.push(session.finish());
    }

    // Streamed: address-disjoint groups (scenarios share wide core
    // structures, and echo probes route by interface address) each run
    // one engine; groups run back to back, so the concatenated cycle
    // series is the actual crossing sequence.
    let refs: Vec<&TraceScenario> = scenarios.iter().collect();
    let mut streamed: Vec<Option<MultilevelOutcome>> = vec![None; DESTINATIONS];
    let (mut stream_crossings, mut stream_probes) = (0u64, 0u64);
    let mut cycle_sizes: Vec<u32> = Vec::new();
    for group in disjoint_scenario_groups(&refs) {
        let lanes: Vec<SimNetwork> = group.iter().map(|&id| build_lane(&internet, id)).collect();
        let net = MultiNetwork::new(lanes).expect("disjoint groups have unique destinations");
        let source = scenarios[group[0]].source;
        assert!(
            group.iter().all(|&id| scenarios[id].source == source),
            "alias sweeps assume a single vantage point"
        );
        let mut engine = SweepEngine::new(net, source).with_config(SweepConfig {
            max_in_flight: 256,
            admission: Admission::Streaming,
            ..SweepConfig::default()
        });
        let sessions = group
            .iter()
            .map(|&id| multilevel_session(&scenarios[id], id));
        engine.run_sessions_with(sessions, |index, session, _wire| {
            streamed[group[index]] = Some(session.finish());
        });
        stream_probes += engine.stats().probes_sent;
        stream_crossings += engine.stats().dispatch_cycles;
        cycle_sizes.extend_from_slice(engine.cycle_batches());
    }

    // Trace, per-round partitions, per-address IP-ID evidence series and
    // probe accounting all match the blocking loop.
    assert_eq!(seq_probes, stream_probes, "wire work diverged");
    for (id, (outcome, reference)) in streamed.into_iter().zip(&sequential).enumerate() {
        let outcome = outcome.expect("every session completed");
        assert_eq!(
            outcome.multilevel.trace, reference.multilevel.trace,
            "scenario {id}: trace diverged"
        );
        assert_eq!(
            outcome.multilevel.hop_reports, reference.multilevel.hop_reports,
            "scenario {id}: alias rounds diverged"
        );
        assert_eq!(
            outcome.hop_evidence, reference.hop_evidence,
            "scenario {id}: IP-ID evidence diverged"
        );
        assert_eq!(
            outcome.multilevel.alias_probes, reference.multilevel.alias_probes,
            "scenario {id}: alias probe accounting diverged"
        );
    }

    // The blocking alias loop pays one crossing per echo, so the
    // sessionized sweep must amortize crossings by a wide margin, and
    // streaming admission must keep the tail from collapsing.
    let seq_throughput = seq_probes as f64 / seq_crossings as f64;
    let stream_throughput = stream_probes as f64 / stream_crossings as f64;
    let speedup = stream_throughput / seq_throughput;
    assert!(
        speedup >= 3.0,
        "alias sweep dispatch throughput regressed: {stream_throughput:.1} vs \
         blocking {seq_throughput:.1} probes/crossing ({speedup:.2}x < 3x)"
    );
    let tail = tail_probes_per_dispatch(&cycle_sizes);
    assert!(
        tail / stream_throughput >= 0.4,
        "alias sweep tail utilization regressed: tail {tail:.1} vs overall \
         {stream_throughput:.1} probes/dispatch (ratio {:.2} < 0.4)",
        tail / stream_throughput
    );
}

/// A mixed sweep of many narrow destinations (nothing to alias-resolve)
/// and a few wide-hop ones, each with an 8-interface hop whose Round
/// 0–10 campaign costs ~2400 probes, listed *last*. Under FIFO streaming
/// admission the narrow backlog holds the wide destinations back, so
/// their long alias wave chains start only once the cheap work is done
/// and add to the makespan; cost-aware admission reads the sessions'
/// predicted-cost hints, starts the wide destinations first and absorbs
/// the narrow work into the wide waves' budget headroom.
#[test]
fn cost_aware_admission_cuts_straggler_makespan() {
    use mlpt_topo::graph::addr;

    // Sized so the scheduling effect is real: the narrow sessions'
    // pending backlog (~6 probes each) exceeds the in-flight budget, so
    // FIFO admission holds the last-listed wide destinations back until
    // the narrow stream has drained, while the wide waves
    // (4 x 8 x 30 = 960 probes) leave budget headroom for cost-aware
    // admission to run the narrow work alongside them.
    const NARROW: usize = 1200;
    const WIDE: usize = 4;
    const BUDGET: usize = 2048;

    // Narrow lane: a straight 5-hop path.
    let narrow_topology = || -> MultipathTopology {
        let mut b = MultipathTopology::builder();
        for hop in 0..5usize {
            b.add_hop([addr(hop, 0)]);
        }
        for hop in 0..4usize {
            b.connect_unmeshed(hop);
        }
        b.build().expect("valid path")
    };
    // Wide lane: a 1-8-1 diamond.
    let wide_topology = || -> MultipathTopology {
        let mut b = MultipathTopology::builder();
        b.add_hop([addr(0, 0)]);
        b.add_hop((0..8usize).map(|i| addr(1, i)));
        b.add_hop([addr(2, 0)]);
        b.connect_unmeshed(0);
        b.connect_unmeshed(1);
        b.build().expect("valid diamond")
    };
    // The block stride clears each topology's own address span
    // (< 0x0005_0000) and keeps up to 8191 lanes inside the 32-bit
    // address space.
    const BLOCK: u32 = 0x0008_0000;
    let topologies: Vec<MultipathTopology> = (0..NARROW)
        .map(|i| narrow_topology().translated(BLOCK * (i as u32 + 1)))
        .chain((0..WIDE).map(|i| wide_topology().translated(BLOCK * ((NARROW + i) as u32 + 1))))
        .collect();
    let rounds = RoundsConfig::default();
    let cost_hint = |topology: &MultipathTopology| -> u64 {
        (0..topology.num_hops().saturating_sub(1))
            .map(|hop| topology.hop(hop).len())
            .filter(|&width| width >= 2)
            .map(|width| rounds.predicted_probes(width))
            .sum()
    };

    let run = |admission: Admission| {
        let lanes: Vec<SimNetwork> = topologies
            .iter()
            .enumerate()
            .map(|(i, topology)| SimNetwork::new(topology.clone(), 1000 + i as u64))
            .collect();
        let net = MultiNetwork::new(lanes).expect("translated lanes are unique");
        let mut engine = SweepEngine::new(net, SOURCE).with_config(SweepConfig {
            max_in_flight: BUDGET,
            admission,
            ..SweepConfig::default()
        });
        let sessions = topologies.iter().enumerate().map(|(i, topology)| {
            MultilevelSession::new(
                topology.destination(),
                MultilevelConfig {
                    trace: TraceConfig::new(77 + i as u64),
                    rounds: rounds.clone(),
                },
            )
            .with_hop_fanout(true)
            .with_cost_hint(cost_hint(topology))
        });
        let mut outcomes: Vec<Option<MultilevelOutcome>> = vec![None; topologies.len()];
        engine.run_sessions_with(sessions, |index, session, _wire| {
            outcomes[index] = Some(session.finish());
        });
        (outcomes, *engine.stats(), engine.cycle_batches().to_vec())
    };
    let (fifo_outcomes, fifo_stats, fifo_cycles) = run(Admission::Streaming);
    let (ca_outcomes, ca_stats, ca_cycles) = run(Admission::CostAware(usize::MAX));

    // Cost-aware admission may only move probes in time.
    assert_eq!(fifo_stats.probes_sent, ca_stats.probes_sent);
    for (i, (fifo, ca)) in fifo_outcomes.iter().zip(&ca_outcomes).enumerate() {
        let (fifo, ca) = (
            fifo.as_ref().expect("completed"),
            ca.as_ref().expect("completed"),
        );
        assert_eq!(
            fifo.multilevel.trace, ca.multilevel.trace,
            "destination {i}: trace diverged under cost-aware admission"
        );
        assert_eq!(
            fifo.multilevel.hop_reports, ca.multilevel.hop_reports,
            "destination {i}: alias rounds diverged under cost-aware admission"
        );
        assert_eq!(
            fifo.hop_evidence, ca.hop_evidence,
            "destination {i}: evidence series diverged under cost-aware admission"
        );
    }

    // Makespan in transport crossings: one sendmmsg + one RTT each on a
    // real backend.
    let (fifo_makespan, ca_makespan) = (fifo_stats.dispatch_cycles, ca_stats.dispatch_cycles);
    let ratio = ca_makespan as f64 / fifo_makespan as f64;
    assert!(
        ratio <= 0.9,
        "cost-aware admission no longer cuts the straggler makespan: \
         {ca_makespan} vs FIFO {fifo_makespan} crossings (ratio {ratio:.3} > 0.9)"
    );
    let (fifo_tail, ca_tail) = (
        tail_probes_per_dispatch(&fifo_cycles),
        tail_probes_per_dispatch(&ca_cycles),
    );
    assert!(
        ca_tail >= fifo_tail,
        "cost-aware tail utilization fell below FIFO's: \
         {ca_tail:.1} vs {fifo_tail:.1} probes/dispatch"
    );
}

/// Doubletree redundancy elimination: one shared-prefix destination
/// family (20 common hops, then a 4-hop private suffix) swept at
/// widths 16/64/256/1024 with the sweep-wide stop set on (commit width
/// 16, adaptive mid-path start), against the classic sweep.
#[test]
fn stop_set_savings_compound_with_sweep_width() {
    use mlpt_topo::canonical::shared_prefix_lane;
    const PREFIX: usize = 20;
    const SUFFIX: usize = 4;
    let stop_cfg = StopSetConfig {
        commit_width: 16,
        ..StopSetConfig::default()
    };

    // A trace's path as canonically ordered `(TTL, interface)` pairs.
    let path_of = |trace: &Trace| -> Vec<(u8, Ipv4Addr)> {
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
    };

    let run = |width: usize, admission: Admission, stop: Option<StopSetConfig>| {
        let lanes: Vec<SimNetwork> = (0..width)
            .map(|i| SimNetwork::new(shared_prefix_lane(PREFIX, SUFFIX, i), 300 + i as u64))
            .collect();
        let net = MultiNetwork::new(lanes).expect("per-lane destinations are unique");
        let mut engine = SweepEngine::new(net, SOURCE).with_config(SweepConfig {
            max_in_flight: 256,
            admission,
            stop_set: stop,
            ..SweepConfig::default()
        });
        let sessions = (0..width).map(|i| {
            Box::new(SingleFlowSession::new(
                shared_prefix_lane(PREFIX, SUFFIX, i).destination(),
                TraceConfig::new(500 + i as u64),
                FlowId(7),
            )) as Box<dyn TraceSession>
        });
        let traces = engine.run_stream(sessions);
        (traces, *engine.stats(), engine.stop_snapshot().cloned())
    };

    let mut probes_per_destination = Vec::new();
    for width in [16, 64, 256, 1024] {
        let (classic_traces, classic_stats, _) = run(width, Admission::Streaming, None);
        let (traces, stats, snapshot) = run(width, Admission::Streaming, Some(stop_cfg));
        let snapshot = snapshot.expect("stop-set run publishes a snapshot");

        // Every destination's classic path is recoverable from its
        // stop-set trace plus the set.
        for (classic, stopped) in classic_traces.iter().zip(&traces) {
            assert!(stopped.reached_destination);
            let probed = path_of(stopped);
            let &(first_ttl, first_iface) = probed.first().expect("non-empty trace");
            let mut full: Vec<(u8, Ipv4Addr)> = snapshot
                .reconstruct_prefix(first_ttl, first_iface)
                .into_iter()
                .chain(probed)
                .collect();
            full.sort_unstable();
            full.dedup();
            assert_eq!(
                full,
                path_of(classic),
                "stop-set sweep lost topology for {} at width {width}",
                classic.destination
            );
        }
        // Every elided probe is one the classic sweep sent.
        assert_eq!(
            stats.probes_sent + stats.probes_elided,
            classic_stats.probes_sent,
            "probe ledger out of balance at width {width}"
        );
        // Admission modes replay the identical sweep.
        for admission in [Admission::CostAware(usize::MAX), Admission::CostAware(32)] {
            let (again, again_stats, _) = run(width, admission, Some(stop_cfg));
            assert_eq!(
                again, traces,
                "admission {admission:?} diverged at width {width}"
            );
            assert_eq!(again_stats.probes_sent, stats.probes_sent);
            assert_eq!(again_stats.probes_elided, stats.probes_elided);
        }
        probes_per_destination.push(stats.probes_sent as f64 / width as f64);
    }

    // Sharing compounds with width, and the 256-wide sweep spends >= 30%
    // fewer probes per destination than the 16-wide.
    for pair in probes_per_destination.windows(2) {
        assert!(
            pair[1] < pair[0],
            "probes/destination must strictly decrease with width: {probes_per_destination:?}"
        );
    }
    let reduction = 1.0 - probes_per_destination[2] / probes_per_destination[0];
    assert!(
        reduction >= 0.30,
        "stop set no longer saves >=30% at width 256: {probes_per_destination:?} \
         probes/destination ({:.0}% reduction)",
        reduction * 100.0
    );
}

#[test]
fn sharded_sweeps_match_unsharded_baseline() {
    let internet = internet();
    let (baseline, _, baseline_probes) = run_sequential(&internet);
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut shard_counts = vec![1usize, 2, 4, host_cpus];
    shard_counts.sort_unstable();
    shard_counts.dedup();
    for shards in shard_counts {
        let (traces, stats, per_shard) = run_sharded_sweep(&internet, shards);
        assert_eq!(traces.len(), baseline.len());
        for (a, b) in baseline.iter().zip(&traces) {
            assert_eq!(a, b, "{shards}-shard sweep diverged for {}", a.destination);
        }
        assert_eq!(stats.probes_sent, baseline_probes, "wire work diverged");
        let per_shard_probes: Vec<u64> = per_shard.iter().map(|s| s.probes_sent).collect();
        assert_eq!(
            per_shard_probes.iter().sum::<u64>(),
            stats.probes_sent,
            "per-shard counters out of balance"
        );
        assert!(
            per_shard_probes.iter().all(|&p| p > 0),
            "every shard must trace: per-shard probes {per_shard_probes:?}"
        );
        for shard in &per_shard {
            assert_eq!(
                shard.probes_timed_out
                    + shard.replies_delivered
                    + shard.malformed_replies
                    + shard.mismatched_replies,
                shard.probes_sent,
                "retry-wave accounting must partition per shard"
            );
        }
    }
}
