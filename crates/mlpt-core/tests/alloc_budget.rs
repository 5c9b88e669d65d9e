//! Allocation gates for the session layer, the stop-set coordinator,
//! the reply parser, the simulator and the sweep engine.
//!
//! A per-thread counting global allocator charges every allocation made
//! inside a session's `poll`, `next_rounds`, `on_replies` and
//! `take_trace` (reallocations included, as the repository benchmark
//! counts them); the engine driving it, the simulator and the test's own
//! bookkeeping run uncounted. Sessions and seeds are fixed, so the
//! counts are exact, and each bound is the measured count rounded up in
//! the third decimal. A change that makes the session layer allocate
//! more per probe fails here before any wall clock notices; one that
//! makes it allocate less should lower the bound. The stop-set gate
//! counts the shared set's `commit` and `snapshot` calls the same way,
//! the reply gate a single `parse_reply`, the simulator gates a
//! topology clone and a lane's replies, and the engine gates a whole
//! sweep, a stop-set sweep and a single-destination run with the
//! sessions' and the transport's calls uncounted.

use mlpt_core::prelude::*;
use mlpt_core::prober::{ProbeSpec, ECHO_IDENTIFIER, ECHO_TTL};
use mlpt_core::stopset::StopSeen;
use mlpt_core::{ProbeObservation, RouteHealth, SharedStopSet};
use mlpt_sim::{FaultPlan, MultiNetwork, SimNetwork};
use mlpt_topo::canonical;
use mlpt_topo::MultipathTopology;
use mlpt_wire::probe::{build_echo_probe, build_udp_probe, parse_reply, ProbePacket, ReplyKind};
use mlpt_wire::transport::{PacketBatch, PacketTransport, ReplyBatch, SplitTransport};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

thread_local! {
    /// Whether allocations on this thread are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations counted on this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations on threads that asked.
struct Counting;

impl Counting {
    fn charge() {
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
            }
        });
    }
}

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged; the counter only observes calls and never touches memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::charge();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::charge();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::charge();
        // SAFETY: `ptr`/`layout` came from this allocator and the caller
        // guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` with this thread's allocations counted.
fn counted<T>(f: impl FnOnce() -> T) -> T {
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    out
}

/// Runs `f` with this thread's allocations counted or not, then
/// restores whether they were.
fn metered<T>(counted: bool, f: impl FnOnce() -> T) -> T {
    let was = COUNTING.with(|on| on.replace(counted));
    let out = f();
    COUNTING.with(|on| on.set(was));
    out
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// What a session cost.
#[derive(Debug, Default, Clone, Copy)]
struct Cost {
    allocs: u64,
    probes: u64,
}

impl Cost {
    fn per_probe(self) -> f64 {
        self.allocs as f64 / self.probes as f64
    }
}

/// Runs `session` to completion on a sweep engine over a simulated
/// `topology`, counting only the session's own calls; returns the
/// session too.
fn drive_counted<S: TraceSession>(
    session: S,
    topology: &MultipathTopology,
    net_seed: u64,
) -> (Trace, Cost, S) {
    let mut engine = SweepEngine::new(SimNetwork::new(topology.clone(), net_seed), SRC);
    let before = allocs();
    let (trace, session) = engine.run_trace(Metered(session, true));
    let cost = Cost {
        allocs: allocs() - before,
        probes: trace.probes_sent,
    };
    (trace, cost, session.0)
}

/// Asserts `cost` stays within `bound` allocations per probe.
fn assert_within(name: &str, cost: Cost, bound: f64) {
    eprintln!(
        "{name}: {} allocations over {} probes = {:.4} per probe (bound {bound})",
        cost.allocs,
        cost.probes,
        cost.per_probe()
    );
    assert!(cost.probes > 0, "{name}: nothing was probed");
    assert!(
        cost.per_probe() <= bound,
        "{name}: {:.4} allocations per probe exceeds the bound {bound}",
        cost.per_probe()
    );
}

/// MDA-Lite over `topology` for several seeds, summed.
fn mda_lite_cost(topology: &MultipathTopology, expect_switch: bool) -> Cost {
    let mut total = Cost::default();
    for seed in 1..=4u64 {
        let session = MdaLiteSession::new(topology.destination(), TraceConfig::new(seed));
        let (trace, cost, _) = drive_counted(session, topology, seed);
        assert!(trace.reached_destination);
        assert_eq!(trace.switched.is_some(), expect_switch, "seed {seed}");
        total.allocs += cost.allocs;
        total.probes += cost.probes;
    }
    total
}

/// MDA-Lite on the paper's meshed Fig. 1 diamond: meshing detection
/// escalates every run to the full MDA, so node control runs too.
#[test]
fn mda_lite_escalating_to_mda_on_fig1_meshed() {
    let cost = mda_lite_cost(&canonical::fig1_meshed(), true);
    // 221 allocations over 493 probes.
    assert_within("fig1_meshed", cost, 0.449);
}

/// MDA-Lite on the width-asymmetric topology (Sec. 2.4.1).
#[test]
fn mda_lite_on_asymmetric() {
    let cost = mda_lite_cost(&canonical::asymmetric(), true);
    // 916 allocations over 3925 probes.
    assert_within("asymmetric", cost, 0.234);
}

/// Single-flow sessions adopting a non-empty stop-set snapshot on
/// shared-prefix lanes: forward from mid-path, then backward to the
/// shared-stop hit.
#[test]
fn single_flow_with_stop_set_on_shared_prefix_lanes() {
    let lane = |i| canonical::shared_prefix_lane(20, 4, i);
    // Lane 0 probes classically and seeds the shared set.
    let first = lane(0);
    let mut seed_session =
        SingleFlowSession::new(first.destination(), TraceConfig::new(0), FlowId(9));
    seed_session.adopt_stop_set(&StopSnapshot::empty());
    let (trace, _, mut seed_session) = drive_counted(seed_session, &first, 0);
    assert!(trace.reached_destination);
    let contribution = seed_session
        .stop_contribution()
        .expect("stop-set sessions contribute");
    let mut shared = SharedStopSet::new();
    shared.commit(0, &contribution);
    let snapshot = shared.snapshot(&StopSetConfig::default());
    assert!(!snapshot.is_empty());

    let mut total = Cost::default();
    let mut elided = 0;
    for i in 1..=8usize {
        let topology = lane(i);
        let mut session = SingleFlowSession::new(
            topology.destination(),
            TraceConfig::new(i as u64),
            FlowId(9),
        );
        session.adopt_stop_set(&snapshot);
        let (trace, cost, _) = drive_counted(session, &topology, i as u64);
        assert!(trace.reached_destination);
        elided += trace.probes_elided;
        total.allocs += cost.allocs;
        total.probes += cost.probes;
    }
    assert!(elided > 0, "the shared prefix must be elided");
    // 88 allocations over 120 probes.
    assert_within("shared_prefix", total, 0.734);
}

/// The contribution a lossless single-flow session reports for a
/// single-path lane: every hop, each with its predecessor.
fn lane_contribution(lane: &MultipathTopology) -> StopContribution {
    let path: Vec<Ipv4Addr> = lane.hops().map(|hop| hop[0]).collect();
    let entries = path
        .iter()
        .enumerate()
        .map(|(h, &interface)| StopSeen {
            ttl: lane.ttl_of_hop(h),
            interface,
            predecessor: h.checked_sub(1).map(|p| path[p]),
        })
        .collect();
    StopContribution {
        entries,
        destination: Some(lane.destination()),
        flow: Some(FlowId(9)),
        dest_ttl: Some(lane.ttl_of_hop(path.len() - 1)),
        reached: true,
        ..StopContribution::default()
    }
}

/// The coordinator's stop-set work per generation, as a sweep of 1024
/// shared-prefix lanes in generations of 16 does it: commit the
/// generation in source order, then snapshot for the next one, with the
/// open generation's snapshot dropped before the commit. A snapshot
/// must not allocate at all, and commits allocate only as the table
/// grows — never a copy of it.
#[test]
fn stop_set_generations_commit_in_place() {
    const GENERATIONS: usize = 64;
    const WIDTH: usize = 16;
    let config = StopSetConfig::default();
    let mut set = SharedStopSet::new();
    let mut snapshot = StopSnapshot::empty();
    let mut commit_allocs = 0;
    for generation in 0..GENERATIONS {
        let first = generation * WIDTH;
        let contributions: Vec<StopContribution> = (first..first + WIDTH)
            .map(|lane| lane_contribution(&canonical::shared_prefix_lane(20, 4, lane)))
            .collect();
        drop(snapshot);
        let before = allocs();
        counted(|| {
            for (i, contribution) in contributions.iter().enumerate() {
                set.commit(first + i, contribution);
            }
        });
        commit_allocs += allocs() - before;
        let before = allocs();
        snapshot = counted(|| set.snapshot(&config));
        let made = allocs() - before;
        assert_eq!(
            made, 0,
            "generation {generation}: snapshot() allocated {made} times"
        );
    }
    // The 20 shared prefix hops, plus 4 private hops and the destination
    // per lane.
    assert_eq!(snapshot.len(), 20 + 5 * GENERATIONS * WIDTH);
    assert_eq!(
        snapshot.start_ttl(),
        12,
        "half the median destination TTL of 25"
    );
    eprintln!(
        "stop set: {commit_allocs} allocations over {} commits",
        GENERATIONS * WIDTH
    );
    // Measured: the entries growing by a quarter at a time and the two
    // indexes doubling, 59 allocations in all.
    assert!(
        commit_allocs <= 59,
        "{commit_allocs} commit allocations exceed the bound 59"
    );
}

/// `parse_reply` reads the ICMP quote and the echo fields in place: a
/// Time Exceeded, a Port Unreachable and an Echo Reply without an MPLS
/// stack parse with no allocation at all.
#[test]
fn parse_reply_allocates_nothing_without_mpls() {
    let topology = canonical::fig1_unmeshed();
    let destination = topology.destination();
    let first_hop = topology.hop(0)[0];
    let mut net = SimNetwork::new(topology, 1);
    let udp = |ttl| {
        build_udp_probe(&ProbePacket {
            source: SRC,
            destination,
            flow: FlowId(1),
            ttl,
            sequence: 1,
        })
    };
    let echo = build_echo_probe(SRC, first_hop, ECHO_IDENTIFIER, 1, ECHO_TTL);
    for (probe, kind) in [
        (udp(1), ReplyKind::TimeExceeded),
        (udp(30), ReplyKind::PortUnreachable),
        (echo, ReplyKind::EchoReply),
    ] {
        let reply = net.send_packet(&probe).expect("answered");
        let before = allocs();
        let parsed = counted(|| parse_reply(&reply)).expect("a valid reply");
        let made = allocs() - before;
        assert_eq!(parsed.kind, kind);
        assert!(parsed.mpls_stack.is_empty());
        assert_eq!(made, 0, "{kind:?}: parse_reply allocated {made} times");
    }
}

/// A topology is one shared graph: cloning it for a simulator lane, a
/// validation run or a sweep's ground truth bumps a reference count.
#[test]
fn topology_clone_allocates_nothing() {
    let topology = canonical::shared_prefix_lane(20, 4, 7);
    let before = allocs();
    let copy = counted(|| topology.clone());
    let made = allocs() - before;
    assert_eq!(copy, topology);
    assert_eq!(made, 0, "clone() allocated {made} times");
}

/// A built lane answers without allocating: its address, route and
/// IP-ID counter tables are laid out when it is built, so even a
/// router's first reply, which seeds its counter, writes into the
/// caller's buffer and nothing else. TTL 1..=25 reaches each of the
/// lane's 25 routers once.
#[test]
fn sim_lane_replies_allocate_nothing() {
    let topology = canonical::shared_prefix_lane(20, 4, 7);
    let destination = topology.destination();
    let mut net = SimNetwork::new(topology, 7);
    let probes: Vec<Vec<u8>> = (1..=25u8)
        .map(|ttl| {
            build_udp_probe(&ProbePacket {
                source: SRC,
                destination,
                flow: FlowId(1),
                ttl,
                sequence: u16::from(ttl),
            })
        })
        .collect();
    let mut reply = Vec::with_capacity(256);
    let mut responders = Vec::new();
    for (ttl, probe) in (1..).zip(&probes) {
        reply.clear();
        let before = allocs();
        let answered = counted(|| net.send_packet_into(probe, &mut reply));
        let made = allocs() - before;
        assert!(answered, "TTL {ttl} unanswered");
        assert_eq!(made, 0, "TTL {ttl}: the reply allocated {made} times");
        responders.push(parse_reply(&reply).expect("a valid reply").responder);
    }
    responders.sort_unstable();
    responders.dedup();
    assert_eq!(responders.len(), 25, "one first reply per router");
}

/// A session or a transport whose calls are counted (`true`) or not,
/// whatever the caller counts: the engine gate charges the engine alone,
/// the session gates the session alone. Forwards every trait method,
/// provided ones included, so wrapping switches no behaviour off.
struct Metered<T>(T, bool);

impl<S: TraceSession> TraceSession for Metered<S> {
    fn poll(&mut self) -> SessionState {
        metered(self.1, || self.0.poll())
    }

    fn next_rounds(&self) -> &[ProbeSpec] {
        metered(self.1, || self.0.next_rounds())
    }

    fn on_replies(&mut self, results: &[Option<ProbeObservation>]) {
        metered(self.1, || self.0.on_replies(results))
    }

    fn destination(&self) -> Ipv4Addr {
        metered(self.1, || self.0.destination())
    }

    fn take_trace(&mut self, probes_sent: u64) -> Trace {
        metered(self.1, || self.0.take_trace(probes_sent))
    }

    fn predicted_cost(&self) -> u64 {
        metered(self.1, || self.0.predicted_cost())
    }

    fn adopt_stop_set(&mut self, snapshot: &StopSnapshot) {
        metered(self.1, || self.0.adopt_stop_set(snapshot))
    }

    fn stop_contribution(&mut self) -> Option<StopContribution> {
        metered(self.1, || self.0.stop_contribution())
    }

    fn should_retry(&self, spec: &ProbeSpec) -> bool {
        metered(self.1, || self.0.should_retry(spec))
    }

    fn route_health(&self) -> Option<RouteHealth> {
        metered(self.1, || self.0.route_health())
    }
}

impl<T: PacketTransport> PacketTransport for Metered<T> {
    fn send_packet(&mut self, packet: &[u8]) -> Option<Vec<u8>> {
        metered(self.1, || self.0.send_packet(packet))
    }

    fn send_packet_into(&mut self, packet: &[u8], reply: &mut Vec<u8>) -> bool {
        metered(self.1, || self.0.send_packet_into(packet, reply))
    }

    fn now(&self) -> u64 {
        metered(self.1, || self.0.now())
    }
}

impl<T: SplitTransport> SplitTransport for Metered<T> {
    fn send_probes(&mut self, probes: &PacketBatch, timeouts: &[u64]) {
        metered(self.1, || self.0.send_probes(probes, timeouts))
    }

    fn recv_replies(&mut self, replies: &mut ReplyBatch) {
        metered(self.1, || self.0.recv_replies(replies))
    }
}

/// The engine's own allocations per probe, over three sweeps of 32
/// MDA-Lite sessions on one engine: translated `fig1_meshed` lanes, 1%
/// reply loss and two retry waves. Replies are checked against their
/// slot's probe and parsed in place, so what is left is per-round and
/// per-session bookkeeping.
#[test]
fn engine_sweep_allocations() {
    const LANES: u32 = 32;
    let lanes: Vec<SimNetwork> = (0..LANES)
        .map(|i| {
            let topology = canonical::fig1_meshed().translated(0x0100_0000 * (i + 1) + i);
            SimNetwork::builder(topology)
                .faults(FaultPlan::with_loss(0.0, 0.01))
                .seed(u64::from(i))
                .build()
        })
        .collect();
    let destinations: Vec<Ipv4Addr> = lanes
        .iter()
        .map(|lane| lane.topology().destination())
        .collect();
    let net = MultiNetwork::new(lanes).expect("distinct destinations");
    let mut engine = SweepEngine::new(Metered(net, false), SRC).with_config(SweepConfig {
        retries: 2,
        ..SweepConfig::default()
    });
    // Measured: 455, 285 and 246 allocations over 3633, 3640 and 3631
    // probes. The first sweep also grows the engine's reusable buffers,
    // finished sessions' round buffers among them, which later sweeps'
    // sessions take over.
    for (sweep, bound) in [0.126, 0.079, 0.068].into_iter().enumerate() {
        let sessions: Vec<Box<dyn TraceSession>> = destinations
            .iter()
            .enumerate()
            .map(|(i, &destination)| {
                let config = TraceConfig::new(i as u64);
                Box::new(Metered(MdaLiteSession::new(destination, config), false))
                    as Box<dyn TraceSession>
            })
            .collect();
        let mut reached = 0;
        let sent = engine.stats().probes_sent;
        let before = allocs();
        counted(|| {
            engine.run_stream_with(sessions, |_, trace| {
                reached += usize::from(trace.reached_destination);
            })
        });
        let cost = Cost {
            allocs: allocs() - before,
            probes: engine.stats().probes_sent - sent,
        };
        assert_eq!(reached, destinations.len());
        assert_within(&format!("engine sweep {sweep}"), cost, bound);
    }
}

/// The engine's own allocations for one single-destination trace
/// (`run_session`, through `run_trace`) on a reused engine: MDA-Lite over
/// `fig1_meshed`, session and transport uncounted. The first run also
/// grows the engine's reusable buffers.
#[test]
fn one_session_on_a_reused_engine() {
    let topology = canonical::fig1_meshed();
    let destination = topology.destination();
    let net = SimNetwork::new(topology, 1);
    let mut engine = SweepEngine::new(Metered(net, false), SRC);
    // Measured: 34, 11, 8 and 7 allocations.
    for (run, bound) in [34, 11, 8, 7].into_iter().enumerate() {
        let session = Metered(
            MdaLiteSession::new(destination, TraceConfig::new(run as u64)),
            false,
        );
        let before = allocs();
        let (trace, _) = counted(|| engine.run_trace(session));
        let made = allocs() - before;
        eprintln!("one session {run}: {made} allocations (bound {bound})");
        assert!(trace.reached_destination);
        assert!(
            made <= bound,
            "run {run}: {made} engine allocations exceed the bound {bound}"
        );
    }
}

/// The engine's own allocations in a stop-set sweep on one engine: 64
/// shared-prefix lanes in generations of 16, single-flow sessions and
/// the transport uncounted. The scheduler's run tables (live slots,
/// live destinations, deferred sessions) and the coordinator's staging
/// buffer last the whole call, so a generation after the first
/// allocates only each session's adapter buffers and what grows with
/// the sweep: the stop set, the output list and the crossing log.
#[test]
fn stop_set_sweep_on_one_engine() {
    const LANES: usize = 64;
    const WIDTH: usize = 16;
    let topologies: Vec<MultipathTopology> = (0..LANES)
        .map(|i| canonical::shared_prefix_lane(20, 4, i))
        .collect();
    let lanes: Vec<SimNetwork> = topologies
        .iter()
        .enumerate()
        .map(|(i, topology)| SimNetwork::new(topology.clone(), i as u64))
        .collect();
    let net = MultiNetwork::new(lanes).expect("distinct destinations");
    let mut engine = SweepEngine::new(Metered(net, false), SRC).with_config(SweepConfig {
        stop_set: Some(StopSetConfig {
            commit_width: WIDTH,
            ..StopSetConfig::default()
        }),
        ..SweepConfig::default()
    });
    let sessions: Vec<Box<dyn TraceSession>> = topologies
        .iter()
        .enumerate()
        .map(|(i, topology)| {
            let session = SingleFlowSession::new(
                topology.destination(),
                TraceConfig::new(i as u64),
                FlowId(9),
            );
            Box::new(Metered(session, false)) as Box<dyn TraceSession>
        })
        .collect();
    // The count as the coordinator pulls each generation's first
    // session, and once more at the end.
    let mut marks: Vec<u64> = Vec::with_capacity(LANES / WIDTH + 1);
    let mut reached = 0;
    let before = allocs();
    counted(|| {
        let source = sessions.into_iter().enumerate().map(|(i, session)| {
            if i % WIDTH == 0 {
                marks.push(allocs());
            }
            session
        });
        engine.run_stream_with(source, |_, trace| {
            reached += usize::from(trace.reached_destination);
        });
    });
    marks.push(allocs());
    assert_eq!(reached, LANES);
    let per_generation: Vec<u64> = marks.windows(2).map(|w| w[1] - w[0]).collect();
    let total = allocs() - before;
    eprintln!(
        "stop-set sweep: {total} engine allocations for {LANES} destinations, per generation {per_generation:?}"
    );
    // Measured: 240 in all, 131, 37, 36 and 34 per generation. Each
    // session's adapter takes two buffers; rebuilding the run tables
    // every generation made 54 to 56 in each generation after the first.
    assert!(
        total <= 240,
        "{total} engine allocations exceed the bound 240"
    );
    for (generation, &made) in per_generation.iter().enumerate().skip(1) {
        assert!(
            made <= 2 * WIDTH as u64 + 5,
            "generation {generation}: {made} engine allocations; its run tables were rebuilt"
        );
    }
}
