//! The simulated network: probe bytes in, reply bytes out.
//!
//! [`SimNetwork`] is the in-process equivalent of Fakeroute's
//! libnetfilter-queue capture loop: a tool hands it a complete probe
//! datagram; the simulator parses the header fields (flow identifier and
//! TTL, exactly as Fakeroute does with libtins), walks the packet through
//! the topology's load balancers, and crafts a complete ICMP reply — Time
//! Exceeded from an intermediate interface, Port Unreachable from the
//! destination, or Echo Reply for direct probes.
//!
//! All randomness is seeded; two simulators constructed with the same
//! arguments behave identically.
//!
//! Impairments come from one [`FaultSchedule`] set with
//! [`SimNetworkBuilder::faults`] (a [`FaultPlan`] becomes the schedule
//! that holds it forever): the plan in force at a packet's processing
//! tick decides whether the probe or its reply is lost, rate-limited,
//! blackholed or delayed. Echo Requests are read through
//! [`IcmpView`], the one ICMP validator.
//!
//! # Hot-path engineering
//!
//! The per-packet path neither allocates nor hashes. A lane shares its
//! route's [`MultipathTopology`] (an `Arc` clone) and builds three small
//! tables from it once, each `O(V + E)` or smaller:
//!
//! * `AddrTable` interns every interface address into a dense `u32` id
//!   (binary search over a sorted `u32` array), with the router and hop
//!   distance of each id beside it;
//! * `RouteTable` holds each vertex's successors as vertex numbers, in
//!   the topology's hop-major vertex order, with optional balancing
//!   weights, so a walk is one load per hop;
//! * [`IpIdEngine`] keeps one dense slot per IP-ID counter the routers'
//!   profiles can use, sized at build and addressed by interface id.
//!
//! Replies are written straight into the caller's reusable buffer via
//! [`PacketTransport::send_packet_into`], so a reply, a router's first
//! one included, allocates nothing once that buffer has room.
//! [`PacketTransport::send_packet`] remains as the boxed-reply
//! convenience wrapper. A
//! [`crate::MultiNetwork`] parses each probe's IPv4 header once to route
//! it and hands the parsed header to the lane.

use crate::balance::{BalanceMode, FlowHasher};
use crate::faults::{FaultPlan, FaultSchedule, FaultState};
use crate::router::{IpIdEngine, IpIdProfile, ReplyClass, RouterProfile};
use crate::schedule::TopologySchedule;
use mlpt_topo::{MultipathTopology, RouterId, RouterMap};
use mlpt_wire::icmp::{
    emit_echo_into, emit_error_into, IcmpType, IcmpView, MplsLabelStackEntry,
    CODE_PORT_UNREACHABLE, CODE_TTL_EXCEEDED,
};
use mlpt_wire::ipv4::{Ipv4Header, PROTO_ICMP, PROTO_UDP};
use mlpt_wire::udp::UdpHeader;
use mlpt_wire::FlowId;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

pub use mlpt_wire::transport::{PacketBatch, PacketTransport, ReplyBatch, SplitTransport};

/// Traffic counters maintained by the simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficCounters {
    /// Probes received from the tool.
    pub probes_received: u64,
    /// Probes dropped by injected loss.
    pub probes_lost: u64,
    /// Replies generated.
    pub replies_sent: u64,
    /// Replies suppressed by rate limiting.
    pub replies_rate_limited: u64,
    /// Replies dropped by injected loss.
    pub replies_lost: u64,
    /// Probes swallowed by a scheduled blackhole.
    pub probes_blackholed: u64,
    /// Scheduled topology mutations applied so far.
    pub mutations_applied: u64,
    /// Scheduled mutations the current topology shape could not honour.
    pub mutations_rejected: u64,
}

/// Interning table: every interface address of the topology mapped to a
/// dense `u32` id, with `Vec`-indexed side tables replacing per-packet
/// map lookups.
///
/// Lookup is a binary search over a sorted `u32` array — cache-friendly
/// and branch-predictable, with no hashing or pointer-chasing on the
/// packet path.
#[derive(Debug, Clone)]
struct AddrTable {
    /// Sorted address values; the index of an address is its id.
    sorted: Vec<u32>,
    /// id → owning router.
    router_of: Vec<RouterId>,
    /// id → hop distance from the source (first hop of appearance + 1).
    distance: Vec<u8>,
}

impl AddrTable {
    /// Interns `topology`'s addresses, asking `router` for each one's
    /// router in ascending address order.
    fn build(topology: &MultipathTopology, router: impl FnMut(Ipv4Addr) -> RouterId) -> Self {
        let mut sorted: Vec<u32> = topology.vertices().iter().map(|&a| a.into()).collect();
        sorted.sort_unstable();
        sorted.dedup();
        let router_of = sorted
            .iter()
            .map(|&a| Ipv4Addr::from(a))
            .map(router)
            .collect();
        let mut distance = vec![0u8; sorted.len()];
        for (hop, vertices) in topology.hops().enumerate().rev() {
            for &a in vertices {
                let id = sorted
                    .binary_search(&u32::from(a))
                    .expect("address from topology");
                distance[id] = (hop + 1) as u8;
            }
        }
        Self {
            sorted,
            router_of,
            distance,
        }
    }

    /// Dense id of `addr`, if it belongs to the topology.
    #[inline]
    fn id(&self, addr: Ipv4Addr) -> Option<u32> {
        self.sorted
            .binary_search(&u32::from(addr))
            .ok()
            .map(|i| i as u32)
    }

    /// Address of a dense id.
    #[inline]
    fn addr(&self, id: u32) -> Ipv4Addr {
        Ipv4Addr::from(self.sorted[id as usize])
    }

    /// Router of `addr`, if it belongs to the topology.
    fn router(&self, addr: Ipv4Addr) -> Option<RouterId> {
        self.id(addr).map(|id| self.router_of[id as usize])
    }

    /// Every interface as `(address, router)`, in id order.
    fn interfaces(&self) -> impl Iterator<Item = (Ipv4Addr, RouterId)> + '_ {
        self.sorted
            .iter()
            .zip(&self.router_of)
            .map(|(&a, &r)| (Ipv4Addr::from(a), r))
    }
}

/// Flat routing tables indexed by vertex number, the topology's
/// hop-major vertex order ([`MultipathTopology::vertex_index`]).
#[derive(Debug, Clone)]
struct RouteTable {
    /// Vertex `v`'s successors are `succ[succ_start[v]..succ_start[v + 1]]`.
    succ_start: Vec<u32>,
    /// Successor vertex numbers, ascending by address within each run
    /// (the order the flow hasher indexes against).
    succ: Vec<u32>,
    /// Vertex → interned interface id.
    ids: Vec<u32>,
    /// Vertex `v`'s balancing weights are
    /// `weights[weight_start[v]..weight_start[v + 1]]`, an empty run
    /// meaning uniform; empty when no vertex has weights.
    weight_start: Vec<u32>,
    weights: Vec<u32>,
    /// Entry vertices: hop 0 holds vertices `0..entries`.
    entries: usize,
}

impl RouteTable {
    fn build(
        topology: &MultipathTopology,
        addrs: &AddrTable,
        weight_map: &BTreeMap<(usize, Ipv4Addr), Vec<u32>>,
    ) -> Self {
        let vertices = topology.total_vertices();
        let mut succ_start = Vec::with_capacity(vertices + 1);
        let mut succ = Vec::with_capacity(topology.total_edges());
        let mut weight_start = Vec::new();
        let mut weights = Vec::new();
        succ_start.push(0);
        if !weight_map.is_empty() {
            weight_start.reserve_exact(vertices + 1);
            weight_start.push(0);
        }
        for (hop, hop_vertices) in topology.hops().enumerate() {
            for &from in hop_vertices {
                for &to in topology.successors(hop, from) {
                    let v = topology.vertex_index(hop + 1, to).expect("validated edge");
                    succ.push(v as u32);
                }
                succ_start.push(succ.len() as u32);
                if !weight_map.is_empty() {
                    if let Some(w) = weight_map.get(&(hop, from)) {
                        weights.extend_from_slice(w);
                    }
                    weight_start.push(weights.len() as u32);
                }
            }
        }
        let ids = topology
            .vertices()
            .iter()
            .map(|&a| addrs.id(a).expect("topology address"))
            .collect();
        Self {
            succ_start,
            succ,
            ids,
            weight_start,
            weights,
            entries: topology.hop(0).len(),
        }
    }

    #[inline]
    fn successors(&self, vertex: u32) -> &[u32] {
        let v = vertex as usize;
        &self.succ[self.succ_start[v] as usize..self.succ_start[v + 1] as usize]
    }

    #[inline]
    fn weights(&self, vertex: u32) -> Option<&[u32]> {
        let v = vertex as usize;
        let (&start, &end) = (self.weight_start.get(v)?, self.weight_start.get(v + 1)?);
        if start == end {
            None
        } else {
            Some(&self.weights[start as usize..end as usize])
        }
    }
}

/// Router profiles: a dense table for router ids up to the largest one
/// given an explicit profile, a sparse overflow for hand-made large
/// ids, and the default for everything else.
#[derive(Debug)]
struct Profiles {
    table: Vec<RouterProfile>,
    overflow: BTreeMap<u32, RouterProfile>,
    default: RouterProfile,
}

impl Profiles {
    /// `dense_limit` caps the table's length, so a huge hand-made id
    /// lands in the overflow instead of sizing the table.
    fn new(
        explicit: &BTreeMap<RouterId, RouterProfile>,
        default: RouterProfile,
        dense_limit: usize,
    ) -> Self {
        let len = explicit
            .keys()
            .map(|r| r.0 as usize + 1)
            .filter(|&len| len <= dense_limit)
            .max()
            .unwrap_or(0);
        let mut table = vec![default; len];
        let mut overflow = BTreeMap::new();
        for (router, profile) in explicit {
            match table.get_mut(router.0 as usize) {
                Some(slot) => *slot = *profile,
                None => {
                    overflow.insert(router.0, *profile);
                }
            }
        }
        Self {
            table,
            overflow,
            default,
        }
    }

    #[inline]
    fn of(&self, router: RouterId) -> &RouterProfile {
        self.table
            .get(router.0 as usize)
            .or_else(|| self.overflow.get(&router.0))
            .unwrap_or(&self.default)
    }

    /// The IP-ID engine's view of `addrs`' interfaces.
    fn ipid_interfaces<'a>(
        &'a self,
        addrs: &'a AddrTable,
    ) -> impl Iterator<Item = (Ipv4Addr, u32, IpIdProfile)> + 'a {
        addrs.interfaces().map(|(a, r)| (a, r.0, self.of(r).ipid))
    }
}

/// Builder for [`SimNetwork`].
pub struct SimNetworkBuilder {
    topology: MultipathTopology,
    routers: RouterMap,
    profiles: BTreeMap<RouterId, RouterProfile>,
    default_profile: RouterProfile,
    mode: BalanceMode,
    schedule: FaultSchedule,
    topo_schedule: TopologySchedule,
    weights: BTreeMap<(usize, Ipv4Addr), Vec<u32>>,
    seed: u64,
}

impl SimNetworkBuilder {
    /// Starts a builder over a topology. By default every interface is its
    /// own router, balancing is per-flow and uniform, no faults.
    pub fn new(topology: MultipathTopology) -> Self {
        Self {
            topology,
            routers: RouterMap::new(),
            profiles: BTreeMap::new(),
            default_profile: RouterProfile::well_behaved(),
            mode: BalanceMode::PerFlow,
            schedule: FaultSchedule::none(),
            topo_schedule: TopologySchedule::none(),
            weights: BTreeMap::new(),
            seed: 0,
        }
    }

    /// Sets the ground-truth alias map (interfaces grouped into routers).
    pub fn routers(mut self, routers: RouterMap) -> Self {
        self.routers = routers;
        self
    }

    /// Overrides the behavioural profile of one router.
    pub fn profile(mut self, router: RouterId, profile: RouterProfile) -> Self {
        self.profiles.insert(router, profile);
        self
    }

    /// Sets the profile used by routers without an explicit override.
    pub fn default_profile(mut self, profile: RouterProfile) -> Self {
        self.default_profile = profile;
        self
    }

    /// Sets the balancing mode.
    pub fn mode(mut self, mode: BalanceMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the injected faults: a [`FaultPlan`] holds for the whole
    /// run, a [`FaultSchedule`]'s steps take over as the virtual clock
    /// advances.
    pub fn faults(mut self, faults: impl Into<FaultSchedule>) -> Self {
        self.schedule = faults.into();
        self
    }

    /// Sets a time-scheduled route-change scenario: each mutation is
    /// applied to the live topology the moment the virtual clock first
    /// reaches its tick, and the routing tables are rebuilt in place.
    pub fn topology_schedule(mut self, schedule: TopologySchedule) -> Self {
        self.topo_schedule = schedule;
        self
    }

    /// Sets non-uniform balancing weights for a vertex. Weights align with
    /// the vertex's successors in ascending address order.
    pub fn weights(mut self, hop: usize, vertex: Ipv4Addr, weights: Vec<u32>) -> Self {
        assert_eq!(
            self.topology.successors(hop, vertex).len(),
            weights.len(),
            "weights must match successor count"
        );
        self.weights.insert((hop, vertex), weights);
        self
    }

    /// Sets the seed controlling every stochastic choice.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the simulator.
    pub fn build(self) -> SimNetwork {
        // Assign router ids: explicit map first, then fresh singleton ids.
        let mut next_id = self
            .routers
            .alias_sets()
            .keys()
            .map(|r| r.0 + 1)
            .max()
            .unwrap_or(0);
        let addrs = AddrTable::build(&self.topology, |addr| {
            self.routers.router_of(addr).unwrap_or_else(|| {
                next_id += 1;
                RouterId(next_id - 1)
            })
        });
        // Dense per-router profile table for the fast path. Router ids
        // are usually contiguous from 0 (RouterMap::from_alias_sets plus
        // the fresh assignments above), but RouterId is public and a
        // caller may hand in arbitrarily large ids — those fall back to
        // the sparse overflow map rather than sizing the Vec by the id.
        let profiles = Profiles::new(
            &self.profiles,
            self.default_profile,
            addrs.sorted.len() + self.profiles.len() + 1,
        );
        let routes = RouteTable::build(&self.topology, &addrs, &self.weights);
        let ipid = IpIdEngine::new(profiles.ipid_interfaces(&addrs));

        SimNetwork {
            hasher: FlowHasher::new(self.seed),
            rng: ChaCha8Rng::seed_from_u64(self.seed ^ 0xF1E2_D3C4_B5A6_9788),
            jitter_rng: ChaCha8Rng::seed_from_u64(self.seed ^ 0x4A17_7E12_B0B5_1DE5),
            destination: self.topology.destination(),
            last_hop: self.topology.num_hops() - 1,
            topology: self.topology,
            addrs,
            routes,
            retired: Vec::new(),
            next_router_id: next_id,
            weight_map: self.weights,
            profiles,
            mode: self.mode,
            schedule: self.schedule,
            topo_schedule: self.topo_schedule,
            next_mutation: 0,
            fault_state: FaultState::new(),
            ipid,
            clock: 0,
            packet_counter: 0,
            counters: TrafficCounters::default(),
            pending: PendingBatch::default(),
        }
    }
}

/// The in-flight batch of a [`SplitTransport`] exchange: replies produced
/// by the send half, plus the per-probe deadline bookkeeping the recv
/// half resolves against.
#[derive(Debug, Default)]
pub(crate) struct PendingBatch {
    pub(crate) replies: ReplyBatch,
    /// Per-probe timeout (ticks from the probe's own send instant).
    pub(crate) timeouts: Vec<u64>,
    /// Per-probe reply latency sampled from the schedule at send time.
    pub(crate) latencies: Vec<u64>,
}

impl PendingBatch {
    pub(crate) fn clear(&mut self) {
        self.replies.clear();
        self.timeouts.clear();
        self.latencies.clear();
    }

    /// Starts a crossing whose probes carry `timeouts`.
    pub(crate) fn begin(&mut self, timeouts: &[u64]) {
        self.clear();
        self.timeouts.extend_from_slice(timeouts);
    }

    /// The send half's per-probe step, shared by every simulated
    /// transport: `lane` takes the packet, its reply slot is stamped with
    /// the lane's clock, and the reply's latency is sampled from the
    /// lane's schedule at that tick. A probe no lane owns (`None`) gets
    /// an empty slot stamped 0 with latency 0.
    /// `header` is the packet's parsed IPv4 header and its length, or
    /// `None` if it did not parse.
    pub(crate) fn send(
        &mut self,
        lane: Option<&mut SimNetwork>,
        packet: &[u8],
        header: Option<(Ipv4Header, usize)>,
    ) {
        let Some(lane) = lane else {
            self.replies.push_with(0, |_| false);
            self.latencies.push(0);
            return;
        };
        self.replies
            .push_with(0, |buf| lane.send_parsed_into(packet, header, buf));
        self.replies.set_last_timestamp(lane.clock);
        self.latencies.push(lane.sample_latency_at(lane.clock));
    }

    /// Drains the pending batch into `out`, applying deadline semantics:
    /// a reply counts only if its latency fits inside the probe's
    /// timeout; answered slots are stamped `send + latency`, unanswered
    /// slots resolve at their deadline `send + timeout`. Both sums
    /// saturate: the timeout is caller-set and may sit at `u64::MAX`.
    pub(crate) fn resolve_into(&mut self, out: &mut ReplyBatch) -> u64 {
        out.clear();
        let mut late = 0u64;
        for i in 0..self.replies.len() {
            let sent = self.replies.timestamp(i);
            let timeout = self.timeouts[i];
            let latency = self.latencies[i];
            match self.replies.get(i) {
                Some(bytes) if latency <= timeout => {
                    out.push_with(sent.saturating_add(latency), |buf| {
                        buf.extend_from_slice(bytes);
                        true
                    });
                }
                Some(_) => {
                    // The reply exists but arrived after the deadline:
                    // the caller sees a timeout.
                    late += 1;
                    out.push_with(sent.saturating_add(timeout), |_| false);
                }
                None => {
                    out.push_with(sent.saturating_add(timeout), |_| false);
                }
            }
        }
        self.clear();
        late
    }
}

/// The simulated network (see module docs).
pub struct SimNetwork {
    topology: MultipathTopology,
    /// The topology's destination and last hop index, read for every
    /// UDP probe, kept beside the shared graph.
    destination: Ipv4Addr,
    last_hop: usize,
    addrs: AddrTable,
    routes: RouteTable,
    /// Routers of interfaces a topology mutation removed, so an
    /// interface that returns keeps its router.
    retired: Vec<(Ipv4Addr, RouterId)>,
    /// Next unassigned router id for freshly minted interfaces.
    next_router_id: u32,
    /// Non-uniform balancing weights, revalidated after each mutation.
    weight_map: BTreeMap<(usize, Ipv4Addr), Vec<u32>>,
    profiles: Profiles,
    hasher: FlowHasher,
    mode: BalanceMode,
    schedule: FaultSchedule,
    topo_schedule: TopologySchedule,
    /// Index of the next unapplied topology-schedule step.
    next_mutation: usize,
    fault_state: FaultState,
    ipid: IpIdEngine,
    rng: ChaCha8Rng,
    /// Dedicated stream for per-probe latency jitter — separate from the
    /// main RNG so jitter-free schedules leave every other stochastic
    /// stream untouched.
    jitter_rng: ChaCha8Rng,
    clock: u64,
    packet_counter: u64,
    counters: TrafficCounters,
    pending: PendingBatch,
}

impl SimNetwork {
    /// Convenience: a default-configured simulator over a topology.
    pub fn new(topology: MultipathTopology, seed: u64) -> Self {
        SimNetworkBuilder::new(topology).seed(seed).build()
    }

    /// Starts a full builder.
    pub fn builder(topology: MultipathTopology) -> SimNetworkBuilder {
        SimNetworkBuilder::new(topology)
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &MultipathTopology {
        &self.topology
    }

    /// Traffic counters so far.
    pub fn counters(&self) -> TrafficCounters {
        self.counters
    }

    /// Current virtual clock (ticks; one tick per injected packet).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Advances the virtual clock without sending a packet — lets IP-ID
    /// counters drift, as in the gaps between MBT rounds.
    pub fn advance_clock(&mut self, ticks: u64) {
        self.clock += ticks;
        self.apply_due_mutations();
    }

    /// Samples one reply's delivery latency at clock tick `tick`: the
    /// scheduled base latency plus a draw from the dedicated jitter
    /// stream. Jitter-free plans draw nothing, so schedules without
    /// jitter keep their historical reply timing bit-for-bit.
    pub(crate) fn sample_latency_at(&mut self, tick: u64) -> u64 {
        let plan = *self.schedule.plan_at(tick);
        self.fault_state.sample_latency(&plan, &mut self.jitter_rng)
    }

    /// Applies every topology-schedule step whose tick the clock has
    /// reached, rebuilding the routing tables after each. Steps the
    /// current shape cannot honour are counted and skipped rather than
    /// wedging the simulation.
    fn apply_due_mutations(&mut self) {
        while let Some(&(tick, mutation)) = self.topo_schedule.steps().get(self.next_mutation) {
            if tick > self.clock {
                break;
            }
            self.next_mutation += 1;
            match mutation.apply(&self.topology) {
                Ok(mutated) => {
                    self.install_topology(mutated);
                    self.counters.mutations_applied += 1;
                }
                Err(_) => self.counters.mutations_rejected += 1,
            }
        }
    }

    /// Swaps in a mutated topology: freshly minted interfaces get their
    /// own router ids (in address order, deterministically), balancing
    /// weights the new shape invalidates are dropped, the interned
    /// address and route tables are rebuilt, and the IP-ID counters are
    /// re-keyed to the new interface ids.
    fn install_topology(&mut self, topology: MultipathTopology) {
        let (old, retired, next_id) = (&self.addrs, &self.retired, &mut self.next_router_id);
        let addrs = AddrTable::build(&topology, |addr| {
            let known = old.router(addr).or_else(|| {
                let (_, router) = retired.iter().find(|&&(a, _)| a == addr)?;
                Some(*router)
            });
            known.unwrap_or_else(|| {
                *next_id += 1;
                RouterId(*next_id - 1)
            })
        });
        let removed: Vec<(Ipv4Addr, RouterId)> = old
            .interfaces()
            .filter(|&(a, _)| addrs.id(a).is_none())
            .collect();
        self.retired.retain(|&(a, _)| addrs.id(a).is_none());
        self.retired.extend(removed);
        self.weight_map.retain(|&(hop, vertex), w| {
            topology.contains(hop, vertex) && topology.successors(hop, vertex).len() == w.len()
        });
        self.routes = RouteTable::build(&topology, &addrs, &self.weight_map);
        self.ipid.rekey(self.profiles.ipid_interfaces(&addrs));
        self.addrs = addrs;
        self.destination = topology.destination();
        self.last_hop = topology.num_hops() - 1;
        self.topology = topology;
    }

    /// The balancing selector for a probe per the configured mode.
    fn selector(&self, flow: u64, destination: Ipv4Addr) -> (u64, u64) {
        match self.mode {
            BalanceMode::PerFlow => (flow, 0),
            BalanceMode::PerPacket => (flow, self.packet_counter.max(1)),
            BalanceMode::PerDestination => (u64::from(u32::from(destination)), 0),
        }
    }

    /// Walks a flow to the vertex at hop index `target_hop`, entirely over
    /// vertex numbers. Returns the interned id of the interface reached
    /// (which answers TTL `target_hop + 1`).
    fn walk(&self, flow: u64, nonce: u64, target_hop: usize) -> u32 {
        // Entry: the source balances over hop-0 vertices.
        let entries = self.routes.entries;
        let mut current = if entries == 1 {
            0
        } else {
            self.hasher
                .choose(usize::MAX, Ipv4Addr::UNSPECIFIED, flow, nonce, entries) as u32
        };
        for i in 0..target_hop {
            let succs = self.routes.successors(current);
            debug_assert!(!succs.is_empty(), "validated topology");
            if succs.len() == 1 {
                // No balancing decision to make (and `choose` over one
                // successor always picks it): skip the hash entirely.
                // Most hops of an Internet path are single-successor, so
                // this is the walk's common case.
                current = succs[0];
                continue;
            }
            let vertex = self.topology.vertices()[current as usize];
            let idx = match self.routes.weights(current) {
                Some(w) => self.hasher.choose_weighted(i, vertex, flow, nonce, w),
                None => self.hasher.choose(i, vertex, flow, nonce, succs.len()),
            };
            current = succs[idx];
        }
        self.routes.ids[current as usize]
    }

    /// Handles a UDP probe whose IPv4 header (`ihl` bytes) the caller
    /// parsed, appending the reply datagram to `out`.
    fn handle_udp_into(
        &mut self,
        plan: &FaultPlan,
        packet: &[u8],
        header: &Ipv4Header,
        ihl: usize,
        out: &mut Vec<u8>,
    ) -> bool {
        let Some(flow) = UdpHeader::parse(&packet[ihl..])
            .ok()
            .and_then(|udp| FlowId::from_source_port(udp.source_port))
        else {
            return false;
        };
        if header.destination != self.destination {
            return false; // not routed by this simulation
        }
        if header.ttl == 0 {
            return false;
        }
        // A scheduled blackhole swallows the probe in the forward
        // direction: nothing downstream of the cut ever sees it.
        if self.fault_state.blackholed(plan, header.ttl) {
            self.counters.probes_blackholed += 1;
            return false;
        }
        let (flow_sel, nonce) = self.selector(u64::from(flow.value()), header.destination);

        let last_hop = self.last_hop;
        let target_hop = usize::from(header.ttl - 1).min(last_hop);
        let responder_id = self.walk(flow_sel, nonce, target_hop);
        let responder = self.addrs.addr(responder_id);

        let reached_destination = target_hop == last_hop;
        let router = self.addrs.router_of[responder_id as usize];
        let profile = *self.profiles.of(router);

        // Rate limiting applies to all ICMP generation.
        if !self.fault_state.allow_icmp(plan, router.0, self.clock) {
            self.counters.replies_rate_limited += 1;
            return false;
        }

        // IP-ID stamping; an unresponsive indirect class means an
        // anonymous router (never replies to expired probes).
        let Some(ip_id) = self.ipid.sample(
            &mut self.rng,
            responder_id as usize,
            &profile.ipid,
            ReplyClass::Indirect,
            header.identification,
            self.clock,
        ) else {
            return false;
        };

        // Quote the probe: IP header + 8 payload bytes, with the TTL field
        // rewritten to 1 as a real router quotes the expired datagram
        // (checksum left stale; tools parse quotes leniently). A stack
        // buffer keeps the reply path allocation-free.
        let mut quote_buf = [0u8; 28];
        let quote_len = 28.min(packet.len());
        quote_buf[..quote_len].copy_from_slice(&packet[..quote_len]);
        if quote_len > 8 {
            quote_buf[8] = 1;
        }

        let mpls = self.mpls_entry(&profile);
        let mpls_slice: &[MplsLabelStackEntry] = match &mpls {
            Some(entry) => std::slice::from_ref(entry),
            None => &[],
        };
        let (icmp_type, code) = if reached_destination {
            (IcmpType::DestinationUnreachable, CODE_PORT_UNREACHABLE)
        } else {
            (IcmpType::TimeExceeded, CODE_TTL_EXCEEDED)
        };

        let hop_distance = (target_hop + 1) as u8;
        let reply_ttl = profile.initial_ttl_indirect.saturating_sub(hop_distance);
        self.emit_reply_into(responder, header.source, reply_ttl, ip_id, out, |buf| {
            emit_error_into(icmp_type, code, &quote_buf[..quote_len], mpls_slice, buf);
        });
        true
    }

    /// Handles a direct (echo) probe addressed to an interface, appending
    /// the reply to `out`.
    fn handle_echo_into(
        &mut self,
        plan: &FaultPlan,
        packet: &[u8],
        header: &Ipv4Header,
        ihl: usize,
        out: &mut Vec<u8>,
    ) -> bool {
        let Some((identifier, sequence, payload)) = IcmpView::parse(&packet[ihl..])
            .ok()
            .filter(|view| view.icmp_type() == IcmpType::EchoRequest)
            .and_then(|view| view.echo())
        else {
            return false;
        };
        let target = header.destination;
        let Some(target_id) = self.addrs.id(target) else {
            return false;
        };
        // Direct probes travel the same forward path: the blackhole cuts
        // them off by the target's hop distance from the source.
        if self
            .fault_state
            .blackholed(plan, self.addrs.distance[target_id as usize].max(1))
        {
            self.counters.probes_blackholed += 1;
            return false;
        }
        let router = self.addrs.router_of[target_id as usize];
        let profile = *self.profiles.of(router);
        if !profile.responds_to_direct {
            return false;
        }
        if !self.fault_state.allow_icmp(plan, router.0, self.clock) {
            self.counters.replies_rate_limited += 1;
            return false;
        }
        let Some(ip_id) = self.ipid.sample(
            &mut self.rng,
            target_id as usize,
            &profile.ipid,
            ReplyClass::Direct,
            header.identification,
            self.clock,
        ) else {
            return false;
        };
        let hop_distance = self.addrs.distance[target_id as usize].max(1);
        let reply_ttl = profile.initial_ttl_direct.saturating_sub(hop_distance);

        // The payload slice borrows from `packet`, which emit must copy
        // before `self` methods could touch it — the closure only writes.
        self.emit_reply_into(target, header.source, reply_ttl, ip_id, out, |buf| {
            emit_echo_into(IcmpType::EchoReply, identifier, sequence, payload, buf);
        });
        true
    }

    /// Builds the MPLS label entry for a router, if it sits in a tunnel.
    fn mpls_entry(&mut self, profile: &RouterProfile) -> Option<MplsLabelStackEntry> {
        profile.mpls.map(|mpls| {
            let label = if mpls.stable {
                mpls.label
            } else {
                self.rng.gen_range(16..(1 << 20))
            };
            MplsLabelStackEntry::new(label, 0, true, 255)
        })
    }

    /// Assembles a reply datagram directly into `out`: IPv4 header, then
    /// whatever the ICMP writer appends, then the header length fixed up.
    fn emit_reply_into<F: FnOnce(&mut Vec<u8>)>(
        &mut self,
        from: Ipv4Addr,
        to: Ipv4Addr,
        ttl: u8,
        ip_id: u16,
        out: &mut Vec<u8>,
        write_icmp: F,
    ) {
        let header_at = out.len();
        // Reserve the header slot, write the ICMP body, then emit the
        // header with the now-known payload length.
        out.resize(header_at + 20, 0);
        write_icmp(out);
        let icmp_len = out.len() - header_at - 20;
        let ip = Ipv4Header::new(from, to, PROTO_ICMP, ttl, ip_id, icmp_len);
        out[header_at..header_at + 20].copy_from_slice(&ip.emit());
    }
}

impl PacketTransport for SimNetwork {
    fn now(&self) -> u64 {
        self.clock
    }

    fn send_packet(&mut self, packet: &[u8]) -> Option<Vec<u8>> {
        let mut reply = Vec::new();
        if self.send_packet_into(packet, &mut reply) {
            Some(reply)
        } else {
            None
        }
    }

    /// The allocation-free reply path: everything is written into `reply`.
    fn send_packet_into(&mut self, packet: &[u8], reply: &mut Vec<u8>) -> bool {
        self.send_parsed_into(packet, Ipv4Header::parse(packet).ok(), reply)
    }
}

impl SimNetwork {
    /// [`PacketTransport::send_packet_into`] for a packet whose IPv4
    /// header and its length the caller already parsed (`None` if it did
    /// not parse): a [`crate::MultiNetwork`] parses each probe once, to
    /// route it, and hands the header on.
    pub(crate) fn send_parsed_into(
        &mut self,
        packet: &[u8],
        header: Option<(Ipv4Header, usize)>,
        reply: &mut Vec<u8>,
    ) -> bool {
        self.clock += 1;
        self.packet_counter += 1;
        self.counters.probes_received += 1;
        // Route changes scheduled at or before this packet's processing
        // tick land before the packet is routed.
        if !self.topo_schedule.is_empty() {
            self.apply_due_mutations();
        }

        // The impairments in force at this packet's processing tick.
        let plan = *self.schedule.plan_at(self.clock);

        if self.fault_state.drop_probe(&plan, &mut self.rng) {
            self.counters.probes_lost += 1;
            return false;
        }

        let Some((header, ihl)) = header else {
            return false;
        };
        let mark = reply.len();
        let answered = match header.protocol {
            PROTO_UDP => self.handle_udp_into(&plan, packet, &header, ihl, reply),
            PROTO_ICMP => self.handle_echo_into(&plan, packet, &header, ihl, reply),
            _ => false,
        };
        if !answered {
            reply.truncate(mark);
            return false;
        }

        if self.fault_state.drop_reply(&plan, &mut self.rng) {
            self.counters.replies_lost += 1;
            reply.truncate(mark);
            return false;
        }
        self.counters.replies_sent += 1;
        true
    }

    /// The traced destination.
    pub(crate) fn destination(&self) -> Ipv4Addr {
        self.destination
    }

    /// Every interface address, ascending.
    pub(crate) fn interfaces(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.addrs.interfaces().map(|(a, _)| a)
    }
}

/// Native deadline semantics: the send half routes every probe and
/// records the reply latency the schedule imposes at its processing
/// tick; the recv half suppresses replies that missed their deadline.
/// Receiving costs no virtual time — deadlines live on the same
/// packet-driven clock the replies are stamped with, so with a
/// latency-free schedule the split exchange is byte-identical to sending
/// the probes one at a time through [`PacketTransport::send_packet`].
impl SplitTransport for SimNetwork {
    fn send_probes(&mut self, probes: &PacketBatch, timeouts: &[u64]) {
        debug_assert_eq!(probes.len(), timeouts.len(), "one timeout per probe");
        let mut pending = std::mem::take(&mut self.pending);
        pending.begin(timeouts);
        for packet in probes.iter() {
            pending.send(Some(self), packet, Ipv4Header::parse(packet).ok());
        }
        self.pending = pending;
    }

    fn recv_replies(&mut self, replies: &mut ReplyBatch) {
        let mut pending = std::mem::take(&mut self.pending);
        pending.resolve_into(replies);
        self.pending = pending;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpt_topo::canonical;
    use mlpt_topo::graph::addr;
    use mlpt_wire::probe::{
        build_echo_probe, build_udp_probe, parse_reply, ProbePacket, ReplyKind,
    };
    use mlpt_wire::FlowId;
    use std::collections::BTreeSet;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

    fn probe(flow: u16, ttl: u8, dst: Ipv4Addr) -> Vec<u8> {
        build_udp_probe(&ProbePacket {
            source: SRC,
            destination: dst,
            flow: FlowId(flow),
            ttl,
            sequence: flow.wrapping_mul(7),
        })
    }

    #[test]
    fn ttl1_reveals_first_hop() {
        let topo = canonical::simplest_diamond();
        let dst = topo.destination();
        let mut net = SimNetwork::new(topo, 1);
        let reply = net.send_packet(&probe(0, 1, dst)).unwrap();
        let parsed = parse_reply(&reply).unwrap();
        assert_eq!(parsed.kind, ReplyKind::TimeExceeded);
        assert_eq!(parsed.responder, addr(0, 0));
        assert_eq!(parsed.probe_flow, Some(FlowId(0)));
    }

    #[test]
    fn destination_answers_port_unreachable() {
        let topo = canonical::simplest_diamond();
        let dst = topo.destination();
        let mut net = SimNetwork::new(topo, 1);
        for ttl in [3u8, 4, 30] {
            let reply = net.send_packet(&probe(5, ttl, dst)).unwrap();
            let parsed = parse_reply(&reply).unwrap();
            assert_eq!(parsed.kind, ReplyKind::PortUnreachable);
            assert_eq!(parsed.responder, dst);
        }
    }

    #[test]
    fn middle_hop_splits_flows() {
        let topo = canonical::simplest_diamond();
        let dst = topo.destination();
        let mut net = SimNetwork::new(topo, 3);
        let mut seen = BTreeSet::new();
        for flow in 0..64u16 {
            let reply = net.send_packet(&probe(flow, 2, dst)).unwrap();
            let parsed = parse_reply(&reply).unwrap();
            seen.insert(parsed.responder);
        }
        assert_eq!(
            seen,
            BTreeSet::from([addr(1, 0), addr(1, 1)]),
            "both load-balanced interfaces must be observable"
        );
    }

    #[test]
    fn per_flow_routing_is_stable() {
        let topo = canonical::fig1_unmeshed();
        let dst = topo.destination();
        let mut net = SimNetwork::new(topo, 9);
        for flow in 0..32u16 {
            let a = parse_reply(&net.send_packet(&probe(flow, 2, dst)).unwrap())
                .unwrap()
                .responder;
            let b = parse_reply(&net.send_packet(&probe(flow, 2, dst)).unwrap())
                .unwrap()
                .responder;
            assert_eq!(a, b, "flow {flow} must be stable");
        }
    }

    #[test]
    fn flow_paths_respect_edges() {
        // Walk each flow hop by hop; consecutive responders must be joined
        // by a topology edge.
        let topo = canonical::fig1_meshed();
        let dst = topo.destination();
        let mut net = SimNetwork::new(topo.clone(), 5);
        for flow in 0..48u16 {
            let mut path = Vec::new();
            for ttl in 1..=topo.num_hops() as u8 {
                let reply = net.send_packet(&probe(flow, ttl, dst)).unwrap();
                path.push(parse_reply(&reply).unwrap().responder);
            }
            for (i, pair) in path.windows(2).enumerate() {
                assert!(
                    topo.successors(i, pair[0]).contains(&pair[1]),
                    "flow {flow}: hop {i} edge {:?}->{:?} not in topology",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn per_packet_mode_varies_path() {
        let topo = canonical::max_length_2();
        let dst = topo.destination();
        let mut net = SimNetwork::builder(topo)
            .mode(BalanceMode::PerPacket)
            .seed(2)
            .build();
        let mut seen = BTreeSet::new();
        for _ in 0..40 {
            let reply = net.send_packet(&probe(1, 2, dst)).unwrap();
            seen.insert(parse_reply(&reply).unwrap().responder);
        }
        assert!(seen.len() > 3, "per-packet balancing must vary: {seen:?}");
    }

    #[test]
    fn per_destination_mode_single_path() {
        let topo = canonical::max_length_2();
        let dst = topo.destination();
        let mut net = SimNetwork::builder(topo)
            .mode(BalanceMode::PerDestination)
            .seed(2)
            .build();
        let mut seen = BTreeSet::new();
        for flow in 0..40u16 {
            let reply = net.send_packet(&probe(flow, 2, dst)).unwrap();
            seen.insert(parse_reply(&reply).unwrap().responder);
        }
        assert_eq!(seen.len(), 1, "per-destination ignores the flow ID");
    }

    #[test]
    fn reply_ttl_encodes_distance() {
        let topo = canonical::simplest_diamond();
        let dst = topo.destination();
        let mut net = SimNetwork::new(topo, 1);
        let r1 = parse_reply(&net.send_packet(&probe(0, 1, dst)).unwrap()).unwrap();
        let r2 = parse_reply(&net.send_packet(&probe(0, 2, dst)).unwrap()).unwrap();
        // Default initial TTL 255: hop 1 replies with 254, hop 2 with 253.
        assert_eq!(r1.reply_ttl, 254);
        assert_eq!(r2.reply_ttl, 253);
    }

    #[test]
    fn echo_probe_gets_reply_with_counter() {
        let topo = canonical::simplest_diamond();
        let target = addr(1, 0);
        let mut net = SimNetwork::new(topo, 1);
        let req = build_echo_probe(SRC, target, 0xBEEF, 1, 64);
        let reply = net.send_packet(&req).unwrap();
        let parsed = parse_reply(&reply).unwrap();
        assert_eq!(parsed.kind, ReplyKind::EchoReply);
        assert_eq!(parsed.responder, target);
        assert_eq!(parsed.echo, Some((0xBEEF, 1)));
    }

    #[test]
    fn echo_to_unknown_address_unanswered() {
        let topo = canonical::simplest_diamond();
        let mut net = SimNetwork::new(topo, 1);
        let req = build_echo_probe(SRC, Ipv4Addr::new(8, 8, 8, 8), 1, 1, 64);
        assert!(net.send_packet(&req).is_none());
    }

    #[test]
    fn unresponsive_to_direct_profile() {
        let topo = canonical::simplest_diamond();
        let target = addr(1, 0);
        let routers = RouterMap::from_alias_sets([vec![target]]);
        let profile = RouterProfile {
            responds_to_direct: false,
            ..RouterProfile::well_behaved()
        };
        let mut net = SimNetwork::builder(topo)
            .routers(routers)
            .profile(RouterId(0), profile)
            .seed(1)
            .build();
        let req = build_echo_probe(SRC, target, 1, 1, 64);
        assert!(net.send_packet(&req).is_none());
        // Indirect probing still works.
        let dst = net.topology().destination();
        assert!(net.send_packet(&probe(0, 1, dst)).is_some());
    }

    #[test]
    fn mpls_label_attached() {
        let topo = canonical::simplest_diamond();
        let target = addr(1, 0);
        let routers = RouterMap::from_alias_sets([vec![target, addr(1, 1)]]);
        let profile = RouterProfile {
            mpls: Some(crate::router::MplsProfile {
                label: 16001,
                stable: true,
            }),
            ..RouterProfile::well_behaved()
        };
        let dst = topo.destination();
        let mut net = SimNetwork::builder(topo)
            .routers(routers)
            .profile(RouterId(0), profile)
            .seed(1)
            .build();
        // Find a flow reaching the labelled interface at TTL 2.
        let mut found = false;
        for flow in 0..32u16 {
            let reply = net.send_packet(&probe(flow, 2, dst)).unwrap();
            let parsed = parse_reply(&reply).unwrap();
            if parsed.responder == target {
                assert_eq!(parsed.mpls_stack.len(), 1);
                assert_eq!(parsed.mpls_stack[0].label, 16001);
                found = true;
                break;
            }
        }
        assert!(found);
    }

    #[test]
    fn probe_loss_produces_none() {
        let topo = canonical::simplest_diamond();
        let dst = topo.destination();
        let mut net = SimNetwork::builder(topo)
            .faults(FaultPlan::with_loss(1.0, 0.0))
            .seed(1)
            .build();
        assert!(net.send_packet(&probe(0, 1, dst)).is_none());
        assert_eq!(net.counters().probes_lost, 1);
    }

    #[test]
    fn rate_limit_suppresses_bursts() {
        let topo = canonical::simplest_diamond();
        let dst = topo.destination();
        // Capacity 2, no refill: the first hop router answers twice.
        let mut net = SimNetwork::builder(topo)
            .faults(FaultPlan::with_rate_limit(2, 0.0))
            .seed(1)
            .build();
        assert!(net.send_packet(&probe(0, 1, dst)).is_some());
        assert!(net.send_packet(&probe(1, 1, dst)).is_some());
        assert!(net.send_packet(&probe(2, 1, dst)).is_none());
        assert_eq!(net.counters().replies_rate_limited, 1);
    }

    #[test]
    fn wrong_destination_unanswered() {
        let topo = canonical::simplest_diamond();
        let mut net = SimNetwork::new(topo, 1);
        assert!(net
            .send_packet(&probe(0, 1, Ipv4Addr::new(1, 2, 3, 4)))
            .is_none());
    }

    #[test]
    fn deterministic_across_instances() {
        let t1 = canonical::fig1_meshed();
        let dst = t1.destination();
        let mut a = SimNetwork::new(t1.clone(), 77);
        let mut b = SimNetwork::new(t1, 77);
        for flow in 0..64u16 {
            for ttl in 1..=4u8 {
                assert_eq!(
                    a.send_packet(&probe(flow, ttl, dst)),
                    b.send_packet(&probe(flow, ttl, dst))
                );
            }
        }
    }

    #[test]
    fn quoted_probe_recoverable_through_reply() {
        let topo = canonical::simplest_diamond();
        let dst = topo.destination();
        let mut net = SimNetwork::new(topo, 1);
        let reply = net.send_packet(&probe(42, 1, dst)).unwrap();
        let parsed = parse_reply(&reply).unwrap();
        assert_eq!(parsed.probe_flow, Some(FlowId(42)));
        assert_eq!(parsed.probe_sequence, Some(42u16.wrapping_mul(7)));
        assert_eq!(parsed.quoted_ttl, Some(1), "quote carries expired TTL");
    }

    #[test]
    fn send_batch_bit_identical_to_sequential() {
        // A round sent packet by packet through `send_packet_into` into
        // a packed reply batch, each slot stamped with the clock right
        // after its send (the prober's round path), must produce
        // byte-for-byte the same replies and timestamps as one-at-a-time
        // `send_packet`.
        let topo = canonical::fig1_meshed();
        let dst = topo.destination();
        let mut batch = PacketBatch::new();
        for flow in 0..32u16 {
            for ttl in 1..=4u8 {
                batch.push_with(|buf| {
                    mlpt_wire::probe::build_udp_probe_into(
                        &ProbePacket {
                            source: SRC,
                            destination: dst,
                            flow: FlowId(flow),
                            ttl,
                            sequence: flow.wrapping_mul(7),
                        },
                        buf,
                    )
                });
            }
        }

        let mut batched = SimNetwork::new(topo.clone(), 13);
        let mut replies = ReplyBatch::new();
        for packet in batch.iter() {
            replies.push_with(0, |buf| batched.send_packet_into(packet, buf));
            replies.set_last_timestamp(batched.now());
        }

        let mut sequential = SimNetwork::new(topo, 13);
        for (i, packet) in batch.iter().enumerate() {
            let expected = sequential.send_packet(packet);
            assert_eq!(
                replies.get(i).map(<[u8]>::to_vec),
                expected,
                "slot {i} diverged"
            );
            assert_eq!(replies.timestamp(i), sequential.now(), "timestamp {i}");
        }
        assert_eq!(batched.counters(), sequential.counters());
    }

    #[test]
    fn scheduled_blackhole_cuts_by_ttl() {
        let topo = canonical::simplest_diamond();
        let dst = topo.destination();
        // Clean until tick 4, then everything at hop >= 2 goes dark.
        let schedule = FaultSchedule::none().step(4, FaultPlan::none().with_blackhole(2));
        let mut net = SimNetwork::builder(topo).faults(schedule).seed(1).build();
        // Ticks 1..=3: clean.
        assert!(net.send_packet(&probe(0, 1, dst)).is_some());
        assert!(net.send_packet(&probe(0, 2, dst)).is_some());
        assert!(net.send_packet(&probe(0, 3, dst)).is_some());
        // Tick 4 onward: hop 1 still answers, deeper hops are dark.
        assert!(net.send_packet(&probe(1, 1, dst)).is_some());
        assert!(net.send_packet(&probe(1, 2, dst)).is_none());
        assert!(net.send_packet(&probe(1, 3, dst)).is_none());
        assert_eq!(net.counters().probes_blackholed, 2);
        // Echo probes to interfaces beyond the cut are dark too; the
        // first hop still answers.
        let deep = build_echo_probe(SRC, addr(1, 0), 1, 1, 64);
        assert!(net.send_packet(&deep).is_none());
        let shallow = build_echo_probe(SRC, addr(0, 0), 1, 2, 64);
        assert!(net.send_packet(&shallow).is_some());
        assert_eq!(net.counters().probes_blackholed, 3);
    }

    /// With a latency-free schedule the split exchange is byte-for-byte
    /// one-at-a-time dispatch: same replies, answered slots stamped with
    /// the clock right after their send, same traffic counters.
    #[test]
    fn split_transport_matches_batch_without_latency() {
        use mlpt_wire::transport::SplitTransport;
        let topo = canonical::fig1_meshed();
        let dst = topo.destination();
        let mut batch = PacketBatch::new();
        for flow in 0..32u16 {
            for ttl in 1..=4u8 {
                batch.push(&probe(flow, ttl, dst));
            }
        }

        let mut split = SimNetwork::new(topo.clone(), 13);
        let timeouts = vec![1u64; batch.len()];
        split.send_probes(&batch, &timeouts);
        let mut got = ReplyBatch::new();
        split.recv_replies(&mut got);

        let mut sequential = SimNetwork::new(topo, 13);
        assert_eq!(got.len(), batch.len());
        for (i, packet) in batch.iter().enumerate() {
            let expected = sequential.send_packet(packet);
            assert_eq!(got.get(i).map(<[u8]>::to_vec), expected, "slot {i}");
            if expected.is_some() {
                assert_eq!(got.timestamp(i), sequential.now(), "timestamp {i}");
            }
        }
        assert_eq!(split.counters(), sequential.counters());
    }

    #[test]
    fn scheduled_latency_expires_deadlines() {
        use mlpt_wire::transport::SplitTransport;
        let topo = canonical::simplest_diamond();
        let dst = topo.destination();
        // From tick 3 every reply arrives 10 ticks late.
        let schedule = FaultSchedule::none().step(3, FaultPlan::none().with_latency(10));
        let mut net = SimNetwork::builder(topo).faults(schedule).seed(1).build();
        let mut batch = PacketBatch::new();
        for flow in 0..4u16 {
            batch.push(&probe(flow, 1, dst));
        }
        // Deadline 5 < latency 10: probes processed at ticks 3 and 4 are
        // answered but late; ticks 1 and 2 are on time.
        net.send_probes(&batch, &[5, 5, 5, 5]);
        let mut replies = ReplyBatch::new();
        net.recv_replies(&mut replies);
        assert!(replies.get(0).is_some());
        assert!(replies.get(1).is_some());
        assert!(replies.get(2).is_none(), "late reply must miss deadline");
        assert!(replies.get(3).is_none(), "late reply must miss deadline");
        assert_eq!(replies.timestamp(0), 1);
        // Unanswered slots resolve at their deadline: send tick + timeout.
        assert_eq!(replies.timestamp(2), 3 + 5);
        // The sim did generate the replies — only the deadline hid them.
        assert_eq!(net.counters().replies_sent, 4);
        // A generous deadline sees them again.
        let mut net2 = SimNetwork::builder(canonical::simplest_diamond())
            .faults(FaultSchedule::none().step(3, FaultPlan::none().with_latency(10)))
            .seed(1)
            .build();
        net2.send_probes(&batch, &[20, 20, 20, 20]);
        net2.recv_replies(&mut replies);
        assert!((0..4).all(|i| replies.get(i).is_some()));
        // Late replies carry their true arrival tick.
        assert_eq!(replies.timestamp(3), 4 + 10);
    }

    #[test]
    fn scheduled_route_flap_reroutes_flows() {
        use crate::schedule::{TopoMutation, TopologySchedule};
        let topo = canonical::fig1_unmeshed();
        let dst = topo.destination();
        // Swap the hop-1 successor sets at tick 20: vertices 1 and 2 of
        // fig1_unmeshed feed different hop-2 interfaces, so the swap
        // reroutes every flow transiting either.
        let schedule =
            TopologySchedule::none().step(20, TopoMutation::SwapSuccessors { hop: 1, a: 1, b: 2 });
        let mut net = SimNetwork::builder(topo.clone())
            .topology_schedule(schedule)
            .seed(5)
            .build();
        // Pre-flap: record where each flow resolves at TTL 3.
        let mut before = Vec::new();
        for flow in 0..8u16 {
            let reply = net.send_packet(&probe(flow, 3, dst)).unwrap();
            before.push(parse_reply(&reply).unwrap().responder);
        }
        // Burn clock to tick 19 with TTL-1 probes (unaffected by hop 1).
        for flow in 0..11u16 {
            let _ = net.send_packet(&probe(flow, 1, dst));
        }
        assert_eq!(net.counters().mutations_applied, 0);
        // Tick 20: the flap lands before this packet routes.
        let mut after = Vec::new();
        for flow in 0..8u16 {
            let reply = net.send_packet(&probe(flow, 3, dst)).unwrap();
            after.push(parse_reply(&reply).unwrap().responder);
        }
        assert_eq!(net.counters().mutations_applied, 1);
        assert_ne!(before, after, "the flap must reroute some flow");
        // Same (flow, TTL) resolving differently is exactly the artifact
        // a route-change detector keys on.
        let changed = before.iter().zip(&after).filter(|(b, a)| b != a).count();
        assert!(changed > 0);
    }

    #[test]
    fn tunnel_reveal_shifts_destination_deeper() {
        use crate::schedule::{TopoMutation, TopologySchedule};
        let topo = canonical::simplest_diamond();
        let dst = topo.destination();
        let old_depth = topo.num_hops() as u8;
        let schedule = TopologySchedule::none().step(4, TopoMutation::InsertHop { at: 1 });
        let mut net = SimNetwork::builder(topo)
            .topology_schedule(schedule)
            .seed(2)
            .build();
        // Pre-reveal: the destination answers at its original depth.
        let r = parse_reply(&net.send_packet(&probe(0, old_depth, dst)).unwrap()).unwrap();
        assert_eq!(r.kind, ReplyKind::PortUnreachable);
        let _ = net.send_packet(&probe(0, 1, dst));
        let _ = net.send_packet(&probe(1, 1, dst));
        // Post-reveal: the same TTL now hits an intermediate hop ...
        let r = parse_reply(&net.send_packet(&probe(0, old_depth, dst)).unwrap()).unwrap();
        assert_eq!(r.kind, ReplyKind::TimeExceeded);
        // ... and the destination sits one hop deeper.
        let r = parse_reply(&net.send_packet(&probe(0, old_depth + 1, dst)).unwrap()).unwrap();
        assert_eq!(r.kind, ReplyKind::PortUnreachable);
        assert_eq!(r.responder, dst);
        assert_eq!(net.counters().mutations_applied, 1);
    }

    #[test]
    fn impossible_mutation_counted_not_fatal() {
        use crate::schedule::{TopoMutation, TopologySchedule};
        let topo = canonical::simplest_diamond();
        let dst = topo.destination();
        // Hop 0 has one vertex: removing a branch from it is impossible.
        let schedule =
            TopologySchedule::none().step(2, TopoMutation::RemoveBranch { hop: 0, index: 0 });
        let mut net = SimNetwork::builder(topo)
            .topology_schedule(schedule)
            .seed(2)
            .build();
        assert!(net.send_packet(&probe(0, 1, dst)).is_some());
        assert!(net.send_packet(&probe(1, 1, dst)).is_some());
        assert!(net.send_packet(&probe(2, 1, dst)).is_some());
        assert_eq!(net.counters().mutations_applied, 0);
        assert_eq!(net.counters().mutations_rejected, 1);
    }

    #[test]
    fn mutation_free_network_unchanged_by_schedule_plumbing() {
        use crate::schedule::TopologySchedule;
        let topo = canonical::fig1_meshed();
        let dst = topo.destination();
        let mut plain = SimNetwork::new(topo.clone(), 77);
        let mut scheduled = SimNetwork::builder(topo)
            .topology_schedule(TopologySchedule::none())
            .seed(77)
            .build();
        for flow in 0..64u16 {
            for ttl in 1..=4u8 {
                assert_eq!(
                    plain.send_packet(&probe(flow, ttl, dst)),
                    scheduled.send_packet(&probe(flow, ttl, dst))
                );
            }
        }
    }

    /// IP-ID counters are keyed by interface, and a route change
    /// renumbers interfaces: `lb-shrink` removes hop 1's second branch,
    /// so the destination's interface id drops by one. Its per-interface
    /// counter must carry on across the mutation, every step within the
    /// counter's velocity bound (one tick at `rate` plus up to `jitter`).
    #[test]
    fn ipid_series_survives_route_change() {
        use crate::router::IpIdProfile;
        use crate::schedule::TopologySchedule;
        let topo = canonical::simplest_diamond();
        let dst = topo.destination();
        assert!(topo.hop(1)[1] < dst, "the removed branch sorts below");
        let (rate, jitter) = (2u16, 3u16);
        let mut net = SimNetwork::builder(topo)
            .default_profile(RouterProfile {
                ipid: IpIdProfile::per_interface_indirect(rate, jitter),
                ..RouterProfile::well_behaved()
            })
            .topology_schedule(TopologySchedule::preset("lb-shrink").expect("preset"))
            .seed(4)
            .build();
        let mut series = Vec::new();
        for flow in 0..80u16 {
            let reply = net.send_packet(&probe(flow, 3, dst)).expect("answered");
            let parsed = parse_reply(&reply).unwrap();
            assert_eq!(parsed.responder, dst);
            series.push(parsed.reply_ip_id);
        }
        assert_eq!(net.counters().mutations_applied, 1);
        for (i, pair) in series.windows(2).enumerate() {
            let step = pair[1].wrapping_sub(pair[0]);
            assert!(
                (1..=rate + jitter).contains(&step),
                "IP-ID jumped {} -> {} at probe {}",
                pair[0],
                pair[1],
                i + 1
            );
        }
    }

    #[test]
    fn jitter_spreads_reply_latencies_deterministically() {
        use mlpt_wire::transport::SplitTransport;
        let dst = canonical::simplest_diamond().destination();
        let build = |seed| {
            SimNetwork::builder(canonical::simplest_diamond())
                .faults(FaultPlan::none().with_latency(1).with_jitter(6))
                .seed(seed)
                .build()
        };
        let mut batch = PacketBatch::new();
        for flow in 0..32u16 {
            batch.push(&probe(flow, 1, dst));
        }
        let timeouts = vec![4u64; batch.len()];
        let mut a = build(11);
        a.send_probes(&batch, &timeouts);
        let mut ra = ReplyBatch::new();
        a.recv_replies(&mut ra);
        // With latency 1..=7 against deadline 4, some replies squeak in
        // and some straggle past: the spread is visible.
        let on_time = (0..ra.len()).filter(|&i| ra.get(i).is_some()).count();
        assert!(on_time > 0, "some replies must make the deadline");
        assert!(on_time < ra.len(), "some replies must miss the deadline");
        // Same seed → identical outcome; the spread is protocol, not luck.
        let mut b = build(11);
        b.send_probes(&batch, &timeouts);
        let mut rb = ReplyBatch::new();
        b.recv_replies(&mut rb);
        for i in 0..ra.len() {
            assert_eq!(ra.get(i), rb.get(i), "slot {i}");
            assert_eq!(ra.timestamp(i), rb.timestamp(i), "slot {i} timestamp");
        }
    }

    #[test]
    fn send_packet_into_reuses_buffer() {
        let topo = canonical::simplest_diamond();
        let dst = topo.destination();
        let mut net = SimNetwork::new(topo, 1);
        let mut buf = Vec::new();
        assert!(net.send_packet_into(&probe(0, 1, dst), &mut buf));
        let first_len = buf.len();
        assert!(first_len > 20);
        // An unanswered probe must leave prior contents intact.
        assert!(!net.send_packet_into(&probe(0, 1, Ipv4Addr::new(1, 2, 3, 4)), &mut buf));
        assert_eq!(buf.len(), first_len);
        // A second answered probe appends after the first.
        assert!(net.send_packet_into(&probe(1, 1, dst), &mut buf));
        assert!(buf.len() > first_len);
        assert!(parse_reply(&buf[..first_len]).is_ok());
        assert!(parse_reply(&buf[first_len..]).is_ok());
    }
}
