//! The three survey workloads: inputs made from the seed, sweeps through
//! the public engine APIs, and ground-truth checks.
//!
//! Every workload runs in two modes over identical inputs: *bare* (the
//! plain sessions and `MultiNetwork`, for end-to-end timing) and
//! *traced* (the same sessions and transports behind the
//! [`crate::layers`] wrappers, for per-layer costs). Both hand back a
//! digest of everything the sweep produced, and the benchmark requires
//! the digests to agree.

use crate::alloc::{self, Layer};
use crate::layers::{Ledger, TracedProbe, TracedTrace, TracedTransport};
use mlpt_alias::multilevel::{MultilevelConfig, MultilevelOutcome, MultilevelSession};
use mlpt_alias::rounds::RoundsConfig;
use mlpt_core::shard::shard_of;
use mlpt_core::{
    Admission, MdaLiteSession, ShardedSweepEngine, SingleFlowSession, StopSetConfig, StopSnapshot,
    SweepConfig, SweepEngine, SweepStats, Trace, TraceConfig, TraceSession,
};
use mlpt_sim::{FaultPlan, MultiNetwork, SimNetwork};
use mlpt_survey::router_survey::{disjoint_scenario_groups, scenario_cost_hint};
use mlpt_survey::{InternetConfig, SyntheticInternet, TraceScenario};
use mlpt_topo::MultipathTopology;
use mlpt_wire::transport::SplitTransport;
use mlpt_wire::FlowId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

/// The CLI's default in-flight budget (`mlpt sweep` / `mlpt alias`).
const BUDGET: usize = 1024;
/// `ip_survey`: reply loss on every lane, and the retry waves that
/// recover it.
const IP_REPLY_LOSS: f64 = 0.01;
const IP_RETRIES: u8 = 2;
/// `router_survey`: destinations per chunk, the survey's default
/// `sweep_batch` (`RouterSurveyConfig`).
const ROUTER_CHUNK: usize = 32;
/// `doubletree_sharded`: the shared-prefix family and its sweep.
const PREFIX_HOPS: usize = 20;
const SUFFIX_HOPS: usize = 4;
const SHARDS: usize = 2;
const COMMIT_WIDTH: usize = 16;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IpSurvey,
    RouterSurvey,
    DoubletreeSharded,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "ip_survey" => Some(Workload::IpSurvey),
            "router_survey" => Some(Workload::RouterSurvey),
            "doubletree_sharded" => Some(Workload::DoubletreeSharded),
            _ => None,
        }
    }

    /// Destinations per sweep at full size.
    pub fn destinations(self) -> usize {
        match self {
            Workload::IpSurvey => 512,
            Workload::RouterSurvey => 64,
            Workload::DoubletreeSharded => 1024,
        }
    }

    /// Largest share of a run's destinations (pooled over its replicas)
    /// whose result may miss part of the ground truth. The MDA's stopping
    /// rules bound each vertex's miss probability (5% with the 95% table)
    /// and the MBT's IP-ID test has a false-positive rate, so some misses
    /// are the algorithms working as designed. Misses repeat exactly per
    /// replica seed; each ceiling sits more than seven binomial standard
    /// deviations of a full-size run above the share measured over forty
    /// seeds (4.1% of `ip_survey` destinations, 9.3% of `router_survey`'s).
    /// The deterministic walk of `doubletree_sharded` may miss nothing.
    pub fn max_miss_frac(self) -> f64 {
        match self {
            Workload::IpSurvey => 0.05,
            Workload::RouterSurvey => 0.13,
            Workload::DoubletreeSharded => 0.0,
        }
    }

    /// Transport shards the sweep runs on.
    pub fn shards(self) -> usize {
        match self {
            Workload::DoubletreeSharded => SHARDS,
            _ => 1,
        }
    }
}

/// FNV-1a over formatted output: the digest that proves bare and traced
/// sweeps produced the same traces, partitions and counters.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for byte in s.bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// What one sweep produced, checked against ground truth.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Digest of every output: traces (or multilevel outcomes), the
    /// final stop-set snapshot and all `SweepStats`.
    pub digest: u64,
    /// Merged engine counters.
    pub stats: SweepStats,
    /// Destinations whose result differs from ground truth in any way,
    /// including the bounded misses the MDA's stopping rules allow.
    pub misses: usize,
    /// Destinations whose result is missing, partial, short of the
    /// destination, or holds what ground truth does not (a phantom
    /// vertex or edge, a wrong reconstructed prefix): never expected
    /// from a correct program.
    pub broken: usize,
}

/// One iteration: set-up, then the sweep.
#[derive(Debug, Clone)]
pub struct Iteration {
    pub scenario_ns: u64,
    pub lane_ns: u64,
    pub sweep_ns: u64,
    pub peak_heap_bytes: usize,
    /// Allocations in the sweep, per layer: engine, session, transport,
    /// stop set.
    pub allocs: [u64; 4],
    pub result: SweepResult,
}

impl Iteration {
    pub fn setup_ns(&self) -> u64 {
        self.scenario_ns + self.lane_ns
    }
}

/// Seeds derived from the workload seed, one stream per purpose.
pub fn derive(seed: u64, purpose: u64) -> u64 {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.gen()
}

/// Nanoseconds since `start`.
fn since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Runs one iteration of `workload` on `seed` with `destinations`
/// destinations, traced when `ledger` is given.
pub fn iterate(
    workload: Workload,
    seed: u64,
    destinations: usize,
    ledger: Option<&Arc<Ledger>>,
) -> Iteration {
    match workload {
        Workload::IpSurvey => ip_survey(seed, destinations, ledger),
        Workload::RouterSurvey => router_survey(seed, destinations, ledger),
        Workload::DoubletreeSharded => doubletree_sharded(seed, destinations, ledger),
    }
}

/// A session's `TraceConfig`: `template` (one `TraceConfig::new` per
/// sweep) with the session's seed. The surveys call `TraceConfig::new`
/// per session, which computes the 95% stopping table every time, about
/// 2 ms on a 2-CPU x86-64 VM: 2 s of set-up for a 1024-destination sweep
/// that itself takes 50 ms. The clone is the same config for a fraction
/// of that, so a run can repeat its sweeps often enough to time them.
fn session_config(template: &TraceConfig, seed: u64) -> TraceConfig {
    TraceConfig {
        seed,
        ..template.clone()
    }
}

/// What the timed region around the sweeps measured.
struct Measured {
    wall_ns: u64,
    peak_heap_bytes: usize,
    allocs: [u64; 4],
}

/// The timed region around the sweeps: live-heap peak window,
/// allocation counts per layer, wall clock.
struct Region {
    start: Instant,
    allocs: alloc::AllocCounts,
    previous: Layer,
}

impl Region {
    fn open() -> Self {
        alloc::reset_peak();
        let allocs = alloc::AllocCounts::now();
        let previous = alloc::enter(Layer::Engine);
        Region {
            start: Instant::now(),
            allocs,
            previous,
        }
    }

    fn close(self) -> Measured {
        let wall_ns = since(self.start);
        alloc::exit(self.previous);
        let now = alloc::AllocCounts::now();
        let allocs = [
            Layer::Engine,
            Layer::Session,
            Layer::Transport,
            Layer::Stopset,
        ]
        .map(|layer| now.since(&self.allocs, layer));
        Measured {
            wall_ns,
            peak_heap_bytes: alloc::peak_bytes(),
            allocs,
        }
    }
}

/// Runs `setup` in the setup layer, returning its output and duration.
fn in_setup<R>(setup: impl FnOnce() -> R) -> (R, u64) {
    let previous = alloc::enter(Layer::Setup);
    let start = Instant::now();
    let out = setup();
    let ns = since(start);
    alloc::exit(previous);
    (out, ns)
}

/// The default Internet (default calibration and generator seed), whose
/// scenario `i` `mlpt alias i` traces. The topologies stay fixed across
/// workload seeds on purpose: a few heavy routes (the 48/56/96-wide
/// cores, the 17–40-wide tail) carry much of a sweep's work, so
/// reseeding the generator would swing probe counts and wall time
/// several-fold between seeds. The workload seed drives every random
/// stream of the sweep instead: lane flow hashing, IP-ID counters,
/// reply loss and the tracers' flow draws.
fn internet() -> SyntheticInternet {
    SyntheticInternet::new(InternetConfig::default())
}

/// One scenario's simulator lane, as the CLI builds it (ground-truth
/// routers and behavioural profiles) plus `faults`.
fn scenario_lane(scenario: &TraceScenario, seed: u64, faults: FaultPlan) -> SimNetwork {
    let mut builder = SimNetwork::builder(scenario.topology.clone())
        .routers(scenario.routers.clone())
        .faults(faults)
        .seed(seed);
    for (router, profile) in &scenario.profiles {
        builder = builder.profile(*router, *profile);
    }
    builder.build()
}

/// One sub-sweep: the source indices it traces, their network and the
/// vantage point they share.
type SubSweep = (Vec<usize>, MultiNetwork, Ipv4Addr);

/// Builds one single-worker network per group of scenario indices.
fn sub_sweeps(
    scenarios: &[TraceScenario],
    groups: Vec<Vec<usize>>,
    lane_seed: impl Fn(usize) -> u64,
    faults: FaultPlan,
) -> Vec<SubSweep> {
    groups
        .into_iter()
        .map(|group| {
            let lanes: Vec<SimNetwork> = group
                .iter()
                .map(|&i| scenario_lane(&scenarios[i], lane_seed(i), faults))
                .collect();
            let net = MultiNetwork::new(lanes)
                .expect("a sub-sweep's destinations are unique")
                .with_workers(1);
            let source = scenarios[group[0]].source;
            assert!(
                group.iter().all(|&i| scenarios[i].source == source),
                "sweeps assume a single vantage point"
            );
            (group, net, source)
        })
        .collect()
}

/// Builds the sub-sweeps' engines and sessions (timed as set-up), then
/// sweeps them back to back inside the timed region. `run` drives one
/// engine over its sessions and stores the results by source index.
fn sweep_all<T: SplitTransport, S>(
    sweeps: Vec<SubSweep>,
    config: SweepConfig,
    transport: impl Fn(MultiNetwork) -> T,
    session: impl Fn(usize) -> S,
    mut run: impl FnMut(&mut SweepEngine<T>, &[usize], Vec<S>),
) -> (SweepStats, u64, Measured) {
    let (engines, setup_ns) = in_setup(|| {
        sweeps
            .into_iter()
            .map(|(members, net, source)| {
                let engine = SweepEngine::new(transport(net), source).with_config(config);
                let sessions: Vec<S> = members.iter().map(|&i| session(i)).collect();
                (members, engine, sessions)
            })
            .collect::<Vec<_>>()
    });
    let mut stats = SweepStats::default();
    let region = Region::open();
    for (members, mut engine, sessions) in engines {
        run(&mut engine, &members, sessions);
        stats.merge(engine.stats());
    }
    (stats, setup_ns, region.close())
}

/// Whether a trace's discovered graph equals `topology` exactly, and
/// whether it is broken: partial, short of the destination, or holding
/// a vertex or edge `topology` does not.
fn check_trace(trace: &Trace, topology: &MultipathTopology) -> (bool, bool) {
    let hops = topology.num_hops();
    let truth_vertices: BTreeSet<(usize, Ipv4Addr)> = (0..hops)
        .flat_map(|h| topology.hop(h).iter().map(move |&v| (h, v)))
        .collect();
    let truth_edges: BTreeSet<(usize, Ipv4Addr, Ipv4Addr)> = topology.edges().collect();
    let max_ttl = trace.discovery.max_observed_ttl();
    let vertices: BTreeSet<(usize, Ipv4Addr)> = (1..=max_ttl)
        .flat_map(|ttl| {
            let hop = usize::from(ttl - 1);
            trace
                .discovery
                .vertices_at(ttl)
                .iter()
                .map(move |&v| (hop, v))
        })
        .collect();
    let edges: BTreeSet<(usize, Ipv4Addr, Ipv4Addr)> = (1..max_ttl)
        .flat_map(|ttl| {
            let hop = usize::from(ttl - 1);
            trace
                .discovery
                .edges_from(ttl)
                .into_iter()
                .flat_map(move |(from, tos)| tos.into_iter().map(move |to| (hop, from, to)))
        })
        .collect();
    let phantom = !vertices.is_subset(&truth_vertices) || !edges.is_subset(&truth_edges);
    let broken = phantom || !trace.reached_destination || trace.outcome.is_partial();
    let exact = !broken && vertices == truth_vertices && edges == truth_edges;
    (exact, broken)
}

/// Checks every result (`None` = never reported) and digests them with
/// the sweep's counters into a [`SweepResult`].
fn verdict<R: std::fmt::Debug>(
    results: &[Option<R>],
    check: impl Fn(usize, &R) -> (bool, bool),
    stats: SweepStats,
    extra: impl std::fmt::Debug,
) -> SweepResult {
    let previous = alloc::enter(Layer::Bench);
    let mut digest = Fnv::new();
    let (mut misses, mut broken) = (0, 0);
    for (i, result) in results.iter().enumerate() {
        let (exact, bad) = result.as_ref().map_or((false, true), |r| check(i, r));
        misses += usize::from(!exact);
        broken += usize::from(bad);
        let _ = write!(digest, "{result:?}");
    }
    let _ = write!(digest, "{stats:?}{extra:?}");
    alloc::exit(previous);
    SweepResult {
        digest: digest.0,
        stats,
        misses,
        broken,
    }
}

fn ip_survey(seed: u64, n: usize, ledger: Option<&Arc<Ledger>>) -> Iteration {
    let trace_seed = |i: usize| derive(seed, 2) ^ (i as u64).wrapping_mul(0x9E37_79B9);
    let (scenarios, scenario_ns) = in_setup(|| {
        let internet = internet();
        (0..n).map(|id| internet.scenario(id)).collect::<Vec<_>>()
    });
    let config = SweepConfig {
        max_in_flight: BUDGET,
        retries: IP_RETRIES,
        admission: Admission::Streaming,
        ..SweepConfig::default()
    };
    // One network and one streaming engine for every destination.
    let ((sweeps, template), lane_ns) = in_setup(|| {
        let loss = FaultPlan::with_loss(0.0, IP_REPLY_LOSS);
        let sweeps = sub_sweeps(&scenarios, vec![(0..n).collect()], trace_seed, loss);
        (sweeps, TraceConfig::new(0))
    });
    let session = |i: usize| {
        let destination = scenarios[i].topology.destination();
        MdaLiteSession::new(destination, session_config(&template, trace_seed(i)))
    };
    let mut traces: Vec<Option<Trace>> = (0..n).map(|_| None).collect();
    let (stats, engine_ns, measured) = match ledger {
        None => sweep_all(
            sweeps,
            config,
            |net| net,
            |i| -> Box<dyn TraceSession> { Box::new(session(i)) },
            |engine, members, sessions| {
                engine.run_stream_with(sessions, |index, trace| {
                    traces[members[index]] = Some(trace);
                });
            },
        ),
        Some(ledger) => sweep_all(
            sweeps,
            config,
            |net| TracedTransport::new(net, Arc::clone(ledger), 0),
            |i| -> Box<dyn TraceSession> {
                Box::new(TracedTrace::new(session(i), Arc::clone(ledger), i))
            },
            |engine, members, sessions| {
                engine.run_stream_with(sessions, |index, trace| {
                    traces[members[index]] = Some(trace);
                });
            },
        ),
    };
    let result = verdict(
        &traces,
        |i, trace| check_trace(trace, &scenarios[i].topology),
        stats,
        (),
    );
    Iteration {
        scenario_ns,
        lane_ns: lane_ns + engine_ns,
        sweep_ns: measured.wall_ns,
        peak_heap_bytes: measured.peak_heap_bytes,
        allocs: measured.allocs,
        result,
    }
}

/// Ground-truth checks of one multilevel outcome: the trace as in
/// `ip_survey`, plus every final alias set inside one true router. An
/// alias set joining two routers is a miss, not a broken result: the
/// MBT's IP-ID test has a false-positive rate (two independent counters
/// can interleave monotonically), which wide single-router hops expose.
fn check_multilevel(outcome: &MultilevelOutcome, scenario: &TraceScenario) -> (bool, bool) {
    let (exact, broken) = check_trace(&outcome.multilevel.trace, &scenario.topology);
    let joins_routers = outcome.multilevel.hop_reports.values().any(|reports| {
        reports.last().is_some_and(|report| {
            report.partition.sets().iter().any(|set| {
                let routers: BTreeSet<_> = set
                    .iter()
                    .map(|&addr| scenario.routers.router_of(addr).ok_or(addr))
                    .collect();
                routers.len() > 1
            })
        })
    });
    (exact && !joins_routers, broken)
}

/// The digested part of a multilevel outcome: trace, per-round alias
/// partitions and alias probe count.
struct MultilevelDigest<'a>(&'a MultilevelOutcome);

impl std::fmt::Debug for MultilevelDigest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let multilevel = &self.0.multilevel;
        write!(
            f,
            "{:?}{:?}{}",
            multilevel.trace, multilevel.hop_reports, multilevel.alias_probes
        )
    }
}

fn router_survey(seed: u64, n: usize, ledger: Option<&Arc<Ledger>>) -> Iteration {
    let trace_seed = |i: usize| derive(seed, 3).wrapping_add(i as u64);
    // Diamond-carrying scenarios only: the router survey resolves
    // aliases where a hop has several interfaces and skips the rest.
    let (scenarios, scenario_ns) = in_setup(|| {
        let internet = internet();
        (0..)
            .map(|id| internet.scenario(id))
            .filter(|s| s.has_diamond)
            .take(n)
            .collect::<Vec<_>>()
    });
    let rounds = RoundsConfig::default(); // the paper's Round 0-10 x 30
    let config = SweepConfig {
        max_in_flight: BUDGET,
        admission: Admission::Streaming,
        ..SweepConfig::default()
    };
    // The survey's chunks, each split into address-disjoint sub-sweeps
    // (scenarios sharing core interfaces cannot share a network: echo
    // probes route by interface address), run back to back.
    let ((sweeps, template), lane_ns) = in_setup(|| {
        let ids: Vec<usize> = (0..n).collect();
        let groups = ids
            .chunks(ROUTER_CHUNK)
            .flat_map(|chunk| {
                let refs: Vec<&TraceScenario> = chunk.iter().map(|&i| &scenarios[i]).collect();
                disjoint_scenario_groups(&refs)
                    .into_iter()
                    .map(|group| group.into_iter().map(|k| chunk[k]).collect::<Vec<_>>())
            })
            .collect();
        let sweeps = sub_sweeps(&scenarios, groups, trace_seed, FaultPlan::none());
        (sweeps, TraceConfig::new(0))
    });
    let session = |i: usize| {
        let scenario = &scenarios[i];
        let config = MultilevelConfig {
            trace: session_config(&template, trace_seed(i)),
            rounds: rounds.clone(),
        };
        MultilevelSession::new(scenario.topology.destination(), config)
            .with_cost_hint(scenario_cost_hint(scenario, &rounds, false))
    };
    let mut outcomes: Vec<Option<MultilevelOutcome>> = (0..n).map(|_| None).collect();
    let (stats, engine_ns, measured) = match ledger {
        None => sweep_all(
            sweeps,
            config,
            |net| net,
            session,
            |engine, members, sessions| {
                engine.run_sessions_with(sessions, |index, session, _wire| {
                    outcomes[members[index]] = Some(session.finish());
                });
            },
        ),
        Some(ledger) => sweep_all(
            sweeps,
            config,
            |net| TracedTransport::new(net, Arc::clone(ledger), 0),
            |i| TracedProbe::new(session(i), Arc::clone(ledger), i),
            |engine, members, sessions| {
                engine.run_sessions_with(sessions, |index, session, _wire| {
                    let outcome = session.finish_with(MultilevelSession::finish);
                    outcomes[members[index]] = Some(outcome);
                });
            },
        ),
    };
    let digested: Vec<Option<MultilevelDigest>> = outcomes
        .iter()
        .map(|outcome| outcome.as_ref().map(MultilevelDigest))
        .collect();
    let result = verdict(
        &digested,
        |i, outcome| check_multilevel(outcome.0, &scenarios[i]),
        stats,
        (),
    );
    Iteration {
        scenario_ns,
        lane_ns: lane_ns + engine_ns,
        sweep_ns: measured.wall_ns,
        peak_heap_bytes: measured.peak_heap_bytes,
        allocs: measured.allocs,
        result,
    }
}

/// `n` distinct lanes of the shared-prefix family, chosen by the seed
/// (the lane index fixes the private suffix and destination addresses,
/// and through them the shard each destination hashes to).
fn doubletree_lanes(seed: u64, n: usize) -> Vec<MultipathTopology> {
    let mut rng = ChaCha8Rng::seed_from_u64(derive(seed, 5));
    let mut chosen = BTreeSet::new();
    let mut lanes = Vec::with_capacity(n);
    while lanes.len() < n {
        let lane = rng.gen_range(0..60_000usize);
        if chosen.insert(lane) {
            lanes.push(mlpt_topo::canonical::shared_prefix_lane(
                PREFIX_HOPS,
                SUFFIX_HOPS,
                lane,
            ));
        }
    }
    lanes
}

/// Probed hops plus the prefix the final stop set reconstructs must be
/// exactly the lane's path: the walk is deterministic, so any
/// difference is broken. Returns `(exact, broken)`.
fn check_doubletree(
    trace: &Trace,
    topology: &MultipathTopology,
    set: &StopSnapshot,
) -> (bool, bool) {
    let truth: Vec<(u8, Ipv4Addr)> = (0..topology.num_hops())
        .map(|h| (topology.ttl_of_hop(h), topology.hop(h)[0]))
        .collect();
    let mut probed: Vec<(u8, Ipv4Addr)> = (1..=trace.discovery.max_observed_ttl())
        .flat_map(|ttl| {
            trace
                .discovery
                .vertices_at(ttl)
                .iter()
                .map(move |&v| (ttl, v))
        })
        .collect();
    probed.sort_unstable();
    let Some(&(first_ttl, first)) = probed.first() else {
        return (false, true);
    };
    let mut full: Vec<(u8, Ipv4Addr)> = set
        .reconstruct_prefix(first_ttl, first)
        .into_iter()
        .chain(probed)
        .collect();
    full.sort_unstable();
    full.dedup();
    let exact = full == truth && trace.reached_destination && !trace.outcome.is_partial();
    (exact, !exact)
}

/// What a sharded sweep hands back besides its traces.
struct ShardedRun {
    stats: SweepStats,
    per_shard: Vec<SweepStats>,
    snapshot: Option<StopSnapshot>,
    engine_ns: u64,
    measured: Measured,
}

/// Builds the sharded engine and sessions (timed as set-up), then runs
/// the sweep inside the timed region. `on_pull` sees each session's
/// source index as the coordinator pulls it.
fn sweep_sharded<T: SplitTransport + Send>(
    parts: Vec<MultiNetwork>,
    config: SweepConfig,
    transport: impl Fn(usize, MultiNetwork) -> T,
    sessions: impl FnOnce() -> Vec<Box<dyn TraceSession>>,
    mut on_pull: impl FnMut(usize),
) -> (Vec<Trace>, ShardedRun) {
    let source = Ipv4Addr::new(192, 0, 2, 1);
    let ((mut engine, sessions), engine_ns) = in_setup(|| {
        let transports: Vec<T> = parts
            .into_iter()
            .enumerate()
            .map(|(shard, part)| transport(shard, part))
            .collect();
        let engine = ShardedSweepEngine::new(transports, source).with_config(config);
        (engine, sessions())
    });
    let sessions = sessions.into_iter().enumerate().map(|(i, session)| {
        on_pull(i);
        session
    });
    let region = Region::open();
    let traces = engine.run_stream(sessions);
    let measured = region.close();
    let run = ShardedRun {
        stats: *engine.stats(),
        per_shard: engine.shard_stats().into_iter().copied().collect(),
        snapshot: engine.stop_snapshot().cloned(),
        engine_ns,
        measured,
    };
    (traces, run)
}

fn doubletree_sharded(seed: u64, n: usize, ledger: Option<&Arc<Ledger>>) -> Iteration {
    let trace_seed = |i: usize| derive(seed, 6).wrapping_add(i as u64);
    let flow = FlowId((derive(seed, 7) % 0x7fff) as u16 + 1);
    let (topologies, scenario_ns) = in_setup(|| doubletree_lanes(seed, n));
    let config = SweepConfig {
        max_in_flight: BUDGET,
        admission: Admission::Streaming,
        stop_set: Some(StopSetConfig {
            commit_width: COMMIT_WIDTH,
            ..StopSetConfig::default()
        }),
        ..SweepConfig::default()
    };
    let ((parts, template), lane_ns) = in_setup(|| {
        let lanes: Vec<SimNetwork> = topologies
            .iter()
            .enumerate()
            .map(|(i, topology)| SimNetwork::new(topology.clone(), trace_seed(i)))
            .collect();
        let parts = MultiNetwork::new(lanes)
            .expect("shared-prefix lanes have unique destinations")
            .with_workers(1)
            .split_by(SHARDS, |d| shard_of(d, SHARDS));
        (parts, TraceConfig::new(0))
    });
    let sessions = |wrap: &dyn Fn(usize, SingleFlowSession) -> Box<dyn TraceSession>| {
        topologies
            .iter()
            .enumerate()
            .map(|(i, topology)| {
                let config = session_config(&template, trace_seed(i));
                wrap(
                    i,
                    SingleFlowSession::new(topology.destination(), config, flow),
                )
            })
            .collect::<Vec<_>>()
    };
    let (traces, run) = match ledger {
        None => sweep_sharded(
            parts,
            config,
            |_, part| part,
            || sessions(&|_, s| Box::new(s)),
            |_| {},
        ),
        Some(ledger) => sweep_sharded(
            parts,
            config,
            |shard, part| TracedTransport::new(part, Arc::clone(ledger), shard),
            || sessions(&|i, s| Box::new(TracedTrace::new(s, Arc::clone(ledger), i))),
            // Generation boundaries seen from outside: the coordinator
            // pulls each generation's first session as it opens it.
            |i| {
                if i % COMMIT_WIDTH == 0 {
                    ledger.open_generation(i / COMMIT_WIDTH);
                }
            },
        ),
    };
    let snapshot = run
        .snapshot
        .expect("a stop-set sweep publishes its final snapshot");
    let mut results: Vec<Option<Trace>> = traces.into_iter().map(Some).collect();
    results.resize_with(n, || None);
    let result = verdict(
        &results,
        |i, trace| check_doubletree(trace, &topologies[i], &snapshot),
        run.stats,
        (&snapshot, &run.per_shard),
    );
    Iteration {
        scenario_ns,
        lane_ns: lane_ns + run.engine_ns,
        sweep_ns: run.measured.wall_ns,
        peak_heap_bytes: run.measured.peak_heap_bytes,
        allocs: run.measured.allocs,
        result,
    }
}
