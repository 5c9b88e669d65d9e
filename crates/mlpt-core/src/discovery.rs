//! Shared discovery state: what a trace has learned so far.
//!
//! Both the MDA and the MDA-Lite accumulate the same kind of evidence —
//! "flow f probed at TTL t was answered by interface a" — and derive
//! everything else from it: the vertices at each hop, the flow→vertex maps
//! node control relies on, and the edges (a flow observed at consecutive
//! TTLs witnesses an edge between the two responding interfaces).
//! [`Discovery`] is that evidence base; the algorithms differ only in how
//! they decide which probe to send next.
//!
//! # Layout
//!
//! One set of flat vectors per trace, each sorted by TTL first, so a
//! hop's entries are one contiguous run found by binary search: the
//! vertices, the flows reaching each vertex, each flow's current binding,
//! the flows probed, and the edges in both directions. Their sort keys
//! are packed into single integers, so a search step compares one
//! word. `record` keeps the
//! edge lists current as bindings arrive, so the queries the tracers ask
//! between rounds borrow instead of rebuilding. Re-binding a flow to
//! another responder, [`Discovery::remove_record`] and
//! [`Discovery::invalidate_from`] are rare; they recompute only the hop
//! pairs they touch.
//!
//! Iteration order is protocol state, because it picks the next probe's
//! flow: vertices come in discovery order, flows ascending, edges
//! ascending by address.

use mlpt_wire::FlowId;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::net::Ipv4Addr;
use std::ops::Range;

/// Sort keys packed into integers ordered like the tuples they encode,
/// so each binary-search step compares one machine word.
///
/// | key | tuple | packed as |
/// |---|---|---|
/// | [`flow`](key::flow) | `(ttl, flow)` | `u32` |
/// | [`vertex`](key::vertex) | `(ttl, vertex)` | `u64` |
/// | [`listing`](key::listing) | `(ttl, vertex, flow)` | `u64`: a vertex key, then the flow |
/// | [`binding`](key::binding) | `(ttl, flow, responder)` | `u64`: a flow key, then the responder |
/// | [`edge`](key::edge) | `(ttl, near, far)` | `u128`: a vertex key, then the far end |
mod key {
    use super::{FlowId, Ipv4Addr};

    /// `(ttl, flow)`: a probed flow, and the prefix of a binding.
    pub fn flow(ttl: u8, flow: FlowId) -> u32 {
        (u32::from(ttl) << 16) | u32::from(flow.0)
    }

    /// `(ttl, vertex)`: the prefix of a listing and of an edge.
    pub fn vertex(ttl: u8, vertex: Ipv4Addr) -> u64 {
        (u64::from(ttl) << 32) | u64::from(vertex.to_bits())
    }

    /// `(ttl, vertex, flow)`: `flow` was observed reaching `vertex`.
    pub fn listing(ttl: u8, at: Ipv4Addr, flow: FlowId) -> u64 {
        (vertex(ttl, at) << 16) | u64::from(flow.0)
    }

    /// `(ttl, flow, responder)`: `flow` is bound to `responder`.
    pub fn binding(ttl: u8, flow: FlowId, responder: Ipv4Addr) -> u64 {
        (u64::from(self::flow(ttl, flow)) << 32) | u64::from(responder.to_bits())
    }

    /// `(ttl, near, far)`: an edge keyed by its end at `ttl`.
    pub fn edge(ttl: u8, near: Ipv4Addr, far: Ipv4Addr) -> u128 {
        (u128::from(vertex(ttl, near)) << 32) | u128::from(far.to_bits())
    }

    /// The flow of a [`flow`] key.
    pub fn flow_id(key: u32) -> FlowId {
        FlowId(key as u16)
    }

    /// The address of a [`vertex`] key.
    pub fn vertex_addr(key: u64) -> Ipv4Addr {
        Ipv4Addr::from_bits(key as u32)
    }

    /// The [`vertex`] key of the vertex a listing lists a flow under.
    pub fn listing_vertex(listing: u64) -> u64 {
        listing >> 16
    }

    /// The flow a listing lists.
    pub fn listing_flow(listing: u64) -> FlowId {
        FlowId(listing as u16)
    }

    /// The [`flow`] key of the flow a binding binds.
    pub fn binding_flow(binding: u64) -> u32 {
        (binding >> 32) as u32
    }

    /// The responder a binding binds its flow to.
    pub fn binding_responder(binding: u64) -> Ipv4Addr {
        Ipv4Addr::from_bits(binding as u32)
    }

    /// The [`vertex`] key of an edge's near end.
    pub fn edge_near(edge: u128) -> u64 {
        (edge >> 32) as u64
    }

    /// An edge's far end.
    pub fn edge_far(edge: u128) -> Ipv4Addr {
        Ipv4Addr::from_bits(edge as u32)
    }

    /// A packed key's leading TTL. Each kind of key has its own width,
    /// so the width says where the TTL sits.
    pub trait Ttl: Copy {
        /// The TTL this key leads with.
        fn ttl(self) -> u8;
    }

    /// [`flow`] keys.
    impl Ttl for u32 {
        fn ttl(self) -> u8 {
            (self >> 16) as u8
        }
    }

    /// [`listing`] and [`binding`] keys.
    impl Ttl for u64 {
        fn ttl(self) -> u8 {
            (self >> 48) as u8
        }
    }

    /// [`edge`] keys.
    impl Ttl for u128 {
        fn ttl(self) -> u8 {
            (self >> 64) as u8
        }
    }

    /// The TTL `key` leads with.
    pub fn ttl<K: Ttl>(key: K) -> u8 {
        key.ttl()
    }
}

/// Evidence accumulated by a trace in progress.
///
/// Every vector is canonical for the facts it holds (sorted, no
/// duplicates, no trailing zeros), so `PartialEq` and `Debug` compare
/// and render evidence, not history or capacity.
#[derive(Clone, Default, PartialEq)]
pub struct Discovery {
    /// TTL of each entry of `vertices`, ascending.
    vertex_ttls: Vec<u8>,
    /// Vertices grouped by TTL, in discovery order within a TTL.
    vertices: Vec<Ipv4Addr>,
    /// [`key::listing`]s, ascending: the flows observed reaching each
    /// vertex. A flow re-bound to another responder stays listed under
    /// its old vertex too.
    reaching: Vec<u64>,
    /// [`key::binding`]s, ascending: each flow's current responder.
    bindings: Vec<u64>,
    /// [`key::flow`]s, ascending: flows probed at each TTL, whether or
    /// not answered.
    probed: Vec<u32>,
    /// [`key::edge`]s `(ttl, from, to)`, ascending: edges from `from` at
    /// `ttl` to `to` at `ttl + 1`.
    edges_out: Vec<u128>,
    /// [`key::edge`]s `(ttl, to, from)`, ascending: the same edges keyed
    /// by the vertex at their far end, `to` at `ttl`.
    edges_in: Vec<u128>,
    /// Probes sent per hop index (ttl - 1), for the paper's per-hop
    /// accounting.
    probes_per_hop: Vec<u64>,
    /// Every flow ID ever used, ascending.
    used_flows: Vec<FlowId>,
    /// Smallest TTL at which the destination answered.
    destination_ttl: Option<u8>,
}

/// Index range of the entries whose key prefix is `prefix` in `entries`,
/// which are sorted by it.
fn span<T: Copy, P: Ord>(entries: &[T], prefix: P, prefix_of: impl Fn(T) -> P) -> Range<usize> {
    let start = entries.partition_point(|&e| prefix_of(e) < prefix);
    let len = entries[start..].partition_point(|&e| prefix_of(e) == prefix);
    start..start + len
}

/// Inserts `value` into the sorted `entries` unless already present.
fn insert_sorted<T: Ord>(entries: &mut Vec<T>, value: T) {
    if let Err(at) = entries.binary_search(&value) {
        entries.insert(at, value);
    }
}

impl Discovery {
    /// Fresh, empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Notes that a probe was *sent* at `ttl` with `flow` (counted even if
    /// it goes unanswered).
    pub fn note_probe_sent(&mut self, flow: FlowId, ttl: u8) {
        assert!(ttl >= 1);
        let h = usize::from(ttl - 1);
        if self.probes_per_hop.len() <= h {
            self.probes_per_hop.resize(h + 1, 0);
        }
        self.probes_per_hop[h] += 1;
        insert_sorted(&mut self.probed, key::flow(ttl, flow));
        insert_sorted(&mut self.used_flows, flow);
    }

    /// Notes a whole round of probes as sent (the batched analogue of
    /// [`Discovery::note_probe_sent`]).
    pub fn note_probes_sent(&mut self, specs: &[crate::prober::ProbeSpec]) {
        for spec in specs {
            self.note_probe_sent(spec.flow, spec.ttl);
        }
    }

    /// Records a successful observation.
    pub fn record(&mut self, flow: FlowId, ttl: u8, responder: Ipv4Addr, at_destination: bool) {
        assert!(ttl >= 1);
        let listing = key::listing(ttl, responder, flow);
        if let Err(at) = self.reaching.binary_search(&listing) {
            let vertex = key::listing_vertex(listing);
            let listed = |i: usize| {
                self.reaching
                    .get(i)
                    .is_some_and(|&l| key::listing_vertex(l) == vertex)
            };
            // A vertex exists exactly while some flow is listed under it.
            if !listed(at) && !at.checked_sub(1).is_some_and(listed) {
                let end = self.vertex_ttls.partition_point(|&t| t <= ttl);
                self.vertex_ttls.insert(end, ttl);
                self.vertices.insert(end, responder);
            }
            self.reaching.insert(at, listing);
        }
        match self.binding(ttl, flow) {
            Ok(i) if key::binding_responder(self.bindings[i]) == responder => {}
            Ok(i) => {
                self.bindings[i] = key::binding(ttl, flow, responder);
                self.rebuild_edges_around(ttl);
            }
            Err(i) => {
                self.bindings.insert(i, key::binding(ttl, flow, responder));
                if let Some(prev) = self.flow_vertex(ttl - 1, flow) {
                    self.add_edge(ttl - 1, prev, responder);
                }
                if let Some(next) = ttl.checked_add(1).and_then(|t| self.flow_vertex(t, flow)) {
                    self.add_edge(ttl, responder, next);
                }
            }
        }
        if at_destination {
            self.destination_ttl = Some(match self.destination_ttl {
                Some(t) => t.min(ttl),
                None => ttl,
            });
        }
    }

    /// Position of `flow`'s binding at `ttl` in `bindings`.
    fn binding(&self, ttl: u8, flow: FlowId) -> Result<usize, usize> {
        let prefix = key::flow(ttl, flow);
        self.bindings
            .binary_search_by(|&b| key::binding_flow(b).cmp(&prefix))
    }

    /// Adds the edge `from` (at `ttl`) → `to` (at `ttl + 1`) if new.
    fn add_edge(&mut self, ttl: u8, from: Ipv4Addr, to: Ipv4Addr) {
        let out = key::edge(ttl, from, to);
        if let Err(at) = self.edges_out.binary_search(&out) {
            self.edges_out.insert(at, out);
            insert_sorted(&mut self.edges_in, key::edge(ttl + 1, to, from));
        }
    }

    /// Recomputes the edges on both sides of hop `ttl` after a binding
    /// there changed or went away.
    fn rebuild_edges_around(&mut self, ttl: u8) {
        if ttl >= 2 {
            self.rebuild_edges(ttl - 1);
        }
        self.rebuild_edges(ttl);
    }

    /// Recomputes the edges between `ttl` and `ttl + 1` from the bindings.
    fn rebuild_edges(&mut self, ttl: u8) {
        let Some(next) = ttl.checked_add(1) else {
            return;
        };
        let mut out: Vec<u128> = self.bindings[span(&self.bindings, ttl, key::ttl)]
            .iter()
            .filter_map(|&b| {
                let to = self.flow_vertex(next, key::flow_id(key::binding_flow(b)))?;
                Some(key::edge(ttl, key::binding_responder(b), to))
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        let mut into: Vec<u128> = out
            .iter()
            .map(|&e| key::edge(next, key::edge_far(e), key::vertex_addr(key::edge_near(e))))
            .collect();
        into.sort_unstable();
        let old = span(&self.edges_out, ttl, key::ttl);
        self.edges_out.splice(old, out);
        let old = span(&self.edges_in, next, key::ttl);
        self.edges_in.splice(old, into);
    }

    /// Route-change recovery: wipes every committed fact at or beyond
    /// `ttl` — vertices, flow bindings, probe accounting and (if it fell
    /// in the wiped suffix) the destination TTL — so the stopping rules
    /// see the suffix as virgin territory and re-probe it from scratch.
    /// `used_flows` survives: the flow allocator must never re-issue an
    /// identifier just because its evidence was invalidated. Returns the
    /// wiped `(ttl, vertex)` pairs in hop/discovery order, for
    /// vanished-branch accounting.
    pub fn invalidate_from(&mut self, ttl: u8) -> Vec<(u8, Ipv4Addr)> {
        assert!(ttl >= 1);
        let first = self.vertex_ttls.partition_point(|&t| t < ttl);
        let wiped = self.vertex_ttls.split_off(first);
        let wiped = wiped
            .into_iter()
            .zip(self.vertices.split_off(first))
            .collect();
        self.reaching
            .truncate(self.reaching.partition_point(|&l| key::ttl(l) < ttl));
        self.bindings
            .truncate(self.bindings.partition_point(|&b| key::ttl(b) < ttl));
        self.probed
            .truncate(self.probed.partition_point(|&p| key::ttl(p) < ttl));
        // Edges into the wiped hop go with it.
        self.edges_out
            .truncate(self.edges_out.partition_point(|&e| key::ttl(e) < ttl - 1));
        self.edges_in
            .truncate(self.edges_in.partition_point(|&e| key::ttl(e) < ttl));
        self.probes_per_hop.truncate(usize::from(ttl - 1));
        while self.probes_per_hop.last() == Some(&0) {
            self.probes_per_hop.pop();
        }
        self.invalidate_destination_ttl(ttl);
        wiped
    }

    /// Removes one committed `(flow, ttl)` binding, dropping the vertex
    /// entirely if no other flow witnesses it. Returns the interface the
    /// binding pointed at. Used to repair stale stop-set adoptions in
    /// place without invalidating the whole suffix.
    pub fn remove_record(&mut self, flow: FlowId, ttl: u8) -> Option<Ipv4Addr> {
        let addr = key::binding_responder(self.bindings.remove(self.binding(ttl, flow).ok()?));
        if let Ok(at) = self.reaching.binary_search(&key::listing(ttl, addr, flow)) {
            self.reaching.remove(at);
            if self.listed(ttl, addr).is_empty() {
                let hop = span(&self.vertex_ttls, ttl, |t| t);
                if let Some(i) = self.vertices[hop.clone()].iter().position(|&v| v == addr) {
                    self.vertex_ttls.remove(hop.start + i);
                    self.vertices.remove(hop.start + i);
                }
            }
        }
        self.rebuild_edges_around(ttl);
        Some(addr)
    }

    /// Forgets the destination TTL if it lies at or beyond `ttl` (the
    /// evidence that placed it there was invalidated).
    pub fn invalidate_destination_ttl(&mut self, ttl: u8) {
        if self.destination_ttl.is_some_and(|t| t >= ttl) {
            self.destination_ttl = None;
        }
    }

    /// True if `addr` is currently recorded as a vertex at any hop.
    pub fn has_vertex(&self, addr: Ipv4Addr) -> bool {
        self.vertices.contains(&addr)
    }

    /// Vertices discovered at `ttl` (≥ 1), in discovery order.
    pub fn vertices_at(&self, ttl: u8) -> &[Ipv4Addr] {
        &self.vertices[span(&self.vertex_ttls, ttl, |t| t)]
    }

    /// Flows observed reaching `vertex` at `ttl`, ascending.
    pub fn flows_at(
        &self,
        ttl: u8,
        vertex: Ipv4Addr,
    ) -> impl ExactSizeIterator<Item = FlowId> + Clone + '_ {
        self.listed(ttl, vertex)
            .iter()
            .map(|&l| key::listing_flow(l))
    }

    /// The listings of `vertex` at `ttl`.
    fn listed(&self, ttl: u8, vertex: Ipv4Addr) -> &[u64] {
        &self.reaching[span(
            &self.reaching,
            key::vertex(ttl, vertex),
            key::listing_vertex,
        )]
    }

    /// The vertex `flow` was observed to reach at `ttl`, if known.
    pub fn flow_vertex(&self, ttl: u8, flow: FlowId) -> Option<Ipv4Addr> {
        let i = self.binding(ttl, flow).ok()?;
        Some(key::binding_responder(self.bindings[i]))
    }

    /// True if `flow` was already probed at `ttl`.
    pub fn flow_probed_at(&self, ttl: u8, flow: FlowId) -> bool {
        self.probed.binary_search(&key::flow(ttl, flow)).is_ok()
    }

    /// Probes sent at `ttl` so far.
    pub fn probes_at(&self, ttl: u8) -> u64 {
        let h = usize::from(ttl.saturating_sub(1));
        self.probes_per_hop.get(h).copied().unwrap_or(0)
    }

    /// Smallest TTL where the destination answered, if reached.
    pub fn destination_ttl(&self) -> Option<u8> {
        self.destination_ttl
    }

    /// Largest TTL at which any vertex was recorded (0 if none).
    pub fn max_observed_ttl(&self) -> u8 {
        self.vertex_ttls.last().copied().unwrap_or(0)
    }

    /// All flows ever used, ascending.
    pub fn used_flows(&self) -> &[FlowId] {
        &self.used_flows
    }

    /// Node-control accounting: over flows *probed* at `ttl` whose vertex
    /// at `ttl - 1` is `parent`, returns the probes sent and writes the
    /// distinct successors observed, ascending, into `successors`. This is
    /// the per-vertex state the MDA's stopping rule applies to.
    pub fn probes_via(&self, parent: Ipv4Addr, ttl: u8, successors: &mut Vec<Ipv4Addr>) -> u64 {
        assert!(ttl >= 2, "probes_via needs a previous hop");
        successors.clear();
        let mut sent = 0u64;
        // The parent's list holds every flow bound to it, but also flows
        // since re-bound elsewhere: check each flow's current binding.
        for flow in self.flows_at(ttl - 1, parent) {
            if self.flow_vertex(ttl - 1, flow) == Some(parent) && self.flow_probed_at(ttl, flow) {
                sent += 1;
                successors.extend(self.flow_vertex(ttl, flow));
            }
        }
        successors.sort_unstable();
        successors.dedup();
        sent
    }

    /// Vertices at `ttl + 1` that `vertex` at `ttl` has an edge to,
    /// ascending.
    pub fn successors(
        &self,
        ttl: u8,
        vertex: Ipv4Addr,
    ) -> impl ExactSizeIterator<Item = Ipv4Addr> + Clone + '_ {
        Self::far_ends(&self.edges_out, ttl, vertex)
    }

    /// Vertices at `ttl - 1` that have an edge to `vertex` at `ttl`,
    /// ascending.
    pub fn predecessors(
        &self,
        ttl: u8,
        vertex: Ipv4Addr,
    ) -> impl ExactSizeIterator<Item = Ipv4Addr> + Clone + '_ {
        Self::far_ends(&self.edges_in, ttl, vertex)
    }

    /// The far ends of `edges` whose near end is `vertex` at `ttl`.
    fn far_ends(
        edges: &[u128],
        ttl: u8,
        vertex: Ipv4Addr,
    ) -> impl ExactSizeIterator<Item = Ipv4Addr> + Clone + '_ {
        edges[span(edges, key::vertex(ttl, vertex), key::edge_near)]
            .iter()
            .map(|&e| key::edge_far(e))
    }

    /// Successor map between `ttl` and `ttl + 1` derived from flows
    /// observed at both: vertex at `ttl` → set of vertices at `ttl + 1`.
    pub fn edges_from(&self, ttl: u8) -> BTreeMap<Ipv4Addr, BTreeSet<Ipv4Addr>> {
        let mut edges: BTreeMap<Ipv4Addr, BTreeSet<Ipv4Addr>> = BTreeMap::new();
        for &e in &self.edges_out[span(&self.edges_out, ttl, key::ttl)] {
            edges
                .entry(key::vertex_addr(key::edge_near(e)))
                .or_default()
                .insert(key::edge_far(e));
        }
        edges
    }

    /// Total distinct edges witnessed across all hop pairs.
    pub fn total_edges(&self) -> usize {
        self.edges_out.len()
    }

    /// Total vertices discovered across hops (destination and duplicates
    /// at different hops each count as topological vertices).
    pub fn total_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Flows observed reaching any vertex at `ttl`, in discovery order of
    /// their vertices — the MDA-Lite's preferred reuse order ("one flow
    /// identifier from each of the vertices … then additional
    /// previously-used flow identifiers").
    pub fn reuse_queue(&self, ttl: u8) -> Vec<FlowId> {
        let vertices = self.vertices_at(ttl);
        if let [only] = vertices {
            return self.flows_at(ttl, *only).collect();
        }
        let hop = span(&self.reaching, ttl, key::ttl);
        // Each binding is listed under its vertex, so a flow can be
        // listed twice only if the hop holds more listings than bindings.
        let listed_once = hop.len() == span(&self.bindings, ttl, key::ttl).len();
        let mut queue = Vec::with_capacity(hop.len());
        let runs: Vec<&[u64]> = vertices.iter().map(|&v| self.listed(ttl, v)).collect();
        let rounds = runs.iter().map(|run| run.len()).max().unwrap_or(0);
        // Round-robin across vertices: first one flow per vertex, then
        // seconds, and so on.
        for round in 0..rounds {
            for run in &runs {
                if let Some(&l) = run.get(round) {
                    let f = key::listing_flow(l);
                    if listed_once || !queue.contains(&f) {
                        queue.push(f);
                    }
                }
            }
        }
        queue
    }
}

impl fmt::Debug for Discovery {
    /// Renders the facts as tuples: `(ttl, vertex)` in discovery order,
    /// `(ttl, vertex, flow)` listings, `(ttl, flow, responder)`
    /// bindings, `(ttl, flow)` probes and `(ttl, from, to)` edges.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let vertices: Vec<(u8, Ipv4Addr)> = self
            .vertex_ttls
            .iter()
            .copied()
            .zip(self.vertices.iter().copied())
            .collect();
        let reaching: Vec<(u8, Ipv4Addr, FlowId)> = self
            .reaching
            .iter()
            .map(|&l| {
                let vertex = key::vertex_addr(key::listing_vertex(l));
                (key::ttl(l), vertex, key::listing_flow(l))
            })
            .collect();
        let bindings: Vec<(u8, FlowId, Ipv4Addr)> = self
            .bindings
            .iter()
            .map(|&b| {
                let flow = key::flow_id(key::binding_flow(b));
                (key::ttl(b), flow, key::binding_responder(b))
            })
            .collect();
        let probed: Vec<(u8, FlowId)> = self
            .probed
            .iter()
            .map(|&p| (key::ttl(p), key::flow_id(p)))
            .collect();
        let edges: Vec<(u8, Ipv4Addr, Ipv4Addr)> = self
            .edges_out
            .iter()
            .map(|&e| {
                let near = key::vertex_addr(key::edge_near(e));
                (key::ttl(e), near, key::edge_far(e))
            })
            .collect();
        f.debug_struct("Discovery")
            .field("vertices", &vertices)
            .field("reaching", &reaching)
            .field("bindings", &bindings)
            .field("probed", &probed)
            .field("edges", &edges)
            .field("probes_per_hop", &self.probes_per_hop)
            .field("used_flows", &self.used_flows)
            .field("destination_ttl", &self.destination_ttl)
            .finish()
    }
}

/// Allocator handing out previously unused flow identifiers, seeded and
/// deterministic.
#[derive(Debug)]
pub struct FlowAllocator {
    rng: ChaCha8Rng,
    handed_out: BTreeSet<FlowId>,
}

impl FlowAllocator {
    /// Creates an allocator with its own stream of randomness.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_F10E_5EED_F10E),
            handed_out: BTreeSet::new(),
        }
    }

    /// Draws a fresh flow ID never handed out before.
    ///
    /// # Panics
    /// Panics if the 16-bit flow space is exhausted (65 536 flows —
    /// far beyond any trace's needs; a trace that hungry is a bug).
    pub fn fresh(&mut self) -> FlowId {
        self.try_fresh().expect("flow space exhausted")
    }

    /// Draws a fresh flow ID, or `None` once the 16-bit flow space is
    /// exhausted. Sessions whose flow hunts can run long (node control
    /// against a route that keeps changing) use this to give up on the
    /// hunt honestly instead of panicking mid-sweep.
    pub fn try_fresh(&mut self) -> Option<FlowId> {
        if self.handed_out.len() >= usize::from(u16::MAX) {
            return None;
        }
        loop {
            let candidate = FlowId(self.rng.gen());
            if self.handed_out.insert(candidate) {
                return Some(candidate);
            }
        }
    }

    /// Marks externally used flows as taken (when resuming from existing
    /// state).
    pub fn reserve<I: IntoIterator<Item = FlowId>>(&mut self, flows: I) {
        self.handed_out.extend(flows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpt_topo::graph::addr;

    #[test]
    fn record_and_query() {
        let mut d = Discovery::new();
        d.note_probe_sent(FlowId(1), 1);
        d.record(FlowId(1), 1, addr(0, 0), false);
        d.note_probe_sent(FlowId(2), 1);
        d.record(FlowId(2), 1, addr(0, 0), false);
        assert_eq!(d.vertices_at(1), &[addr(0, 0)]);
        assert_eq!(d.flows_at(1, addr(0, 0)).len(), 2);
        assert_eq!(d.probes_at(1), 2);
        assert_eq!(d.flow_vertex(1, FlowId(1)), Some(addr(0, 0)));
        assert_eq!(d.flow_vertex(2, FlowId(1)), None);
        assert!(d.flow_probed_at(1, FlowId(1)));
        assert!(!d.flow_probed_at(2, FlowId(1)));
    }

    #[test]
    fn edges_from_flow_paths() {
        let mut d = Discovery::new();
        for (flow, v1, v2) in [
            (FlowId(1), addr(1, 0), addr(2, 0)),
            (FlowId(2), addr(1, 0), addr(2, 1)),
            (FlowId(3), addr(1, 1), addr(2, 1)),
        ] {
            d.record(flow, 1, v1, false);
            d.record(flow, 2, v2, false);
        }
        let edges = d.edges_from(1);
        assert_eq!(edges[&addr(1, 0)], BTreeSet::from([addr(2, 0), addr(2, 1)]));
        assert_eq!(edges[&addr(1, 1)], BTreeSet::from([addr(2, 1)]));
        assert_eq!(
            d.successors(1, addr(1, 0)).collect::<Vec<_>>(),
            [addr(2, 0), addr(2, 1)]
        );
        assert_eq!(
            d.predecessors(2, addr(2, 1)).collect::<Vec<_>>(),
            [addr(1, 0), addr(1, 1)]
        );
        assert_eq!(d.predecessors(1, addr(1, 0)).len(), 0);
        assert_eq!(d.total_edges(), 3);
        assert_eq!(d.total_vertices(), 4);
    }

    #[test]
    fn rebinding_moves_edges_but_keeps_the_old_listing() {
        let mut d = Discovery::new();
        d.record(FlowId(1), 1, addr(1, 0), false);
        d.record(FlowId(1), 2, addr(2, 0), false);
        // Per-packet balancing: the same flow answers from another vertex.
        d.record(FlowId(1), 2, addr(2, 1), false);
        assert_eq!(d.flow_vertex(2, FlowId(1)), Some(addr(2, 1)));
        assert_eq!(d.vertices_at(2), &[addr(2, 0), addr(2, 1)]);
        assert_eq!(d.flows_at(2, addr(2, 0)).collect::<Vec<_>>(), [FlowId(1)]);
        assert_eq!(
            d.successors(1, addr(1, 0)).collect::<Vec<_>>(),
            [addr(2, 1)]
        );
        assert_eq!(d.predecessors(2, addr(2, 0)).len(), 0);
        assert_eq!(d.total_edges(), 1);
        assert_eq!(d.reuse_queue(2), vec![FlowId(1)]);
    }

    #[test]
    fn destination_ttl_minimum() {
        let mut d = Discovery::new();
        d.record(FlowId(1), 5, addr(5, 0), true);
        d.record(FlowId(2), 4, addr(5, 0), true);
        assert_eq!(d.destination_ttl(), Some(4));
    }

    #[test]
    fn reuse_queue_round_robin() {
        let mut d = Discovery::new();
        // Vertex A discovered first with flows 1, 3; vertex B with flow 2.
        d.record(FlowId(1), 2, addr(1, 0), false);
        d.record(FlowId(2), 2, addr(1, 1), false);
        d.record(FlowId(3), 2, addr(1, 0), false);
        let queue = d.reuse_queue(2);
        // One per vertex first (A's lowest flow, then B's), then the rest.
        assert_eq!(queue, vec![FlowId(1), FlowId(2), FlowId(3)]);
    }

    #[test]
    fn allocator_unique_and_deterministic() {
        let mut a = FlowAllocator::new(9);
        let mut b = FlowAllocator::new(9);
        let fa: Vec<FlowId> = (0..100).map(|_| a.fresh()).collect();
        let fb: Vec<FlowId> = (0..100).map(|_| b.fresh()).collect();
        assert_eq!(fa, fb);
        let unique: BTreeSet<_> = fa.iter().collect();
        assert_eq!(unique.len(), fa.len());
    }

    #[test]
    fn allocator_respects_reservations() {
        let mut a = FlowAllocator::new(1);
        let f = FlowId(12345);
        a.reserve([f]);
        for _ in 0..1000 {
            assert_ne!(a.fresh(), f);
        }
    }

    #[test]
    fn invalidate_from_wipes_the_suffix_only() {
        let mut d = Discovery::new();
        for ttl in 1..=4u8 {
            d.note_probe_sent(FlowId(1), ttl);
            d.record(FlowId(1), ttl, addr(ttl.into(), 0), ttl == 4);
        }
        d.note_probe_sent(FlowId(2), 3);
        d.record(FlowId(2), 3, addr(3, 1), false);
        let wiped = d.invalidate_from(3);
        assert_eq!(
            wiped,
            vec![(3, addr(3, 0)), (3, addr(3, 1)), (4, addr(4, 0))]
        );
        // The prefix survives intact.
        assert_eq!(d.flow_vertex(2, FlowId(1)), Some(addr(2, 0)));
        assert_eq!(d.probes_at(2), 1);
        assert!(d.flow_probed_at(2, FlowId(1)));
        // The suffix is virgin again: no vertices, no probe accounting,
        // no probed-flow memory, no destination TTL.
        assert!(d.vertices_at(3).is_empty());
        assert!(d.vertices_at(4).is_empty());
        assert_eq!(d.probes_at(3), 0);
        assert!(!d.flow_probed_at(3, FlowId(1)));
        assert_eq!(d.destination_ttl(), None);
        assert_eq!(d.max_observed_ttl(), 2);
        // The flow allocator's exclusion set survives invalidation.
        assert!(d.used_flows().contains(&FlowId(2)));
    }

    #[test]
    fn wiped_evidence_leaves_no_trace() {
        let path = |d: &mut Discovery, hops: u8| {
            for ttl in 1..=hops {
                d.note_probe_sent(FlowId(1), ttl);
                d.record(FlowId(1), ttl, addr(ttl.into(), 0), ttl == 4);
            }
        };
        let mut wiped = Discovery::new();
        path(&mut wiped, 4);
        wiped.invalidate_from(3);
        let mut short = Discovery::new();
        path(&mut short, 2);
        // Equality and rendering see the facts, not their history.
        assert_eq!(wiped, short);
        assert_eq!(format!("{wiped:?}"), format!("{short:?}"));
    }

    #[test]
    fn remove_record_drops_unwitnessed_vertices() {
        let mut d = Discovery::new();
        d.record(FlowId(1), 2, addr(1, 0), false);
        d.record(FlowId(2), 2, addr(1, 0), false);
        assert_eq!(d.remove_record(FlowId(1), 2), Some(addr(1, 0)));
        // Another flow still witnesses the vertex: it survives.
        assert_eq!(d.vertices_at(2), &[addr(1, 0)]);
        assert_eq!(d.remove_record(FlowId(2), 2), Some(addr(1, 0)));
        assert!(d.vertices_at(2).is_empty());
        assert!(!d.has_vertex(addr(1, 0)));
        assert_eq!(d.remove_record(FlowId(2), 2), None);
    }

    #[test]
    fn probes_counted_even_unanswered() {
        let mut d = Discovery::new();
        d.note_probe_sent(FlowId(9), 3);
        assert_eq!(d.probes_at(3), 1);
        assert!(d.vertices_at(3).is_empty());
    }
}
