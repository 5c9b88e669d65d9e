//! The hop-structured multipath DAG.
//!
//! [`MultipathTopology`] is the shared vocabulary of the whole workspace:
//! the simulator routes probes through one, the tracing algorithms produce
//! one as their result, and the diamond metrics of the survey are computed
//! over one. Vertices are IPv4 interface addresses grouped by hop (TTL);
//! edges connect adjacent hops.
//!
//! Invariants enforced by [`TopologyBuilder::build`]:
//!
//! * at least two hops (a first hop and the destination);
//! * the last hop contains exactly one vertex (the destination);
//! * every edge references vertices present at its hops;
//! * every non-final-hop vertex has at least one successor;
//! * every non-first-hop vertex has at least one predecessor.
//!
//! Together these guarantee that *every flow from the source reaches the
//! destination* — assumption (1) of the MDA model (no routing changes, all
//! paths converge).
//!
//! A built topology is one immutable, flat graph behind an [`Arc`]:
//! vertices numbered hop-major in a single array, and each vertex's
//! successors and predecessors as one address-sorted run of a shared
//! list (compressed sparse rows). Cloning shares it, so a simulator
//! lane, a sweep's ground truth and a validation run over the same
//! route all read one copy. Queries by `(hop, address)` binary-search
//! the hop; [`MultipathTopology::vertex_index`] exposes the vertex
//! numbering to callers that index their own tables by it.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::ops::Range;
use std::sync::Arc;

/// Errors detected while building a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// Fewer than two hops.
    TooFewHops,
    /// A hop has no vertices.
    EmptyHop {
        /// Index of the offending hop.
        hop: usize,
    },
    /// The final hop must hold exactly the destination.
    BadFinalHop,
    /// An edge references a vertex that is not present at its hop.
    DanglingEdge {
        /// Hop index of the edge's source side.
        hop: usize,
        /// The offending endpoint.
        addr: Ipv4Addr,
    },
    /// A vertex has no successor (flows entering it are lost).
    NoSuccessor {
        /// Hop of the offending vertex.
        hop: usize,
        /// The vertex.
        addr: Ipv4Addr,
    },
    /// A vertex has no predecessor (it is unreachable).
    NoPredecessor {
        /// Hop of the offending vertex.
        hop: usize,
        /// The vertex.
        addr: Ipv4Addr,
    },
    /// The same vertex appears twice at one hop.
    DuplicateVertex {
        /// Hop of the duplicate.
        hop: usize,
        /// The vertex.
        addr: Ipv4Addr,
    },
    /// A mutation request that the topology cannot honour (hop or vertex
    /// out of range, removing the last branch of a hop, touching the
    /// destination hop, ...).
    BadMutation {
        /// Human-readable rejection reason.
        reason: &'static str,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::TooFewHops => write!(f, "topology needs at least two hops"),
            TopologyError::EmptyHop { hop } => write!(f, "hop {hop} is empty"),
            TopologyError::BadFinalHop => write!(f, "final hop must contain exactly one vertex"),
            TopologyError::DanglingEdge { hop, addr } => {
                write!(f, "edge at hop {hop} references absent vertex {addr}")
            }
            TopologyError::NoSuccessor { hop, addr } => {
                write!(f, "vertex {addr} at hop {hop} has no successor")
            }
            TopologyError::NoPredecessor { hop, addr } => {
                write!(f, "vertex {addr} at hop {hop} has no predecessor")
            }
            TopologyError::DuplicateVertex { hop, addr } => {
                write!(f, "vertex {addr} duplicated at hop {hop}")
            }
            TopologyError::BadMutation { reason } => {
                write!(f, "mutation rejected: {reason}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// A validated hop-structured multipath topology.
///
/// Hop indices are zero-based; hop `i` is what a probe with TTL `i + 1`
/// reveals. The last hop holds the destination.
///
/// The graph is immutable and shared: it lives behind an [`Arc`], so
/// `clone()` bumps a reference count, and every simulator lane of a
/// route reads the one copy. The `with_*` mutations return a new graph
/// and leave this one untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultipathTopology {
    graph: Arc<Graph>,
}

/// The flat layout behind [`MultipathTopology`]. Vertices are numbered
/// hop-major: hop `i` holds vertices `hop_start[i]..hop_start[i + 1]`,
/// in insertion order. Vertex `v`'s successors are
/// `succ[succ_start[v]..succ_start[v + 1]]`, ascending by address, and
/// its predecessors are laid out the same way in `pred`.
#[derive(Debug, PartialEq, Eq)]
struct Graph {
    vertices: Vec<Ipv4Addr>,
    /// `num_hops + 1` offsets into `vertices`.
    hop_start: Vec<u32>,
    /// Each hop's vertex numbers in ascending address order, aligned
    /// with `vertices`: address lookups binary-search their hop's run.
    by_address: Vec<u32>,
    /// `vertices.len() + 1` offsets into `succ`.
    succ_start: Vec<u32>,
    succ: Vec<Ipv4Addr>,
    /// `vertices.len() + 1` offsets into `pred`.
    pred_start: Vec<u32>,
    pred: Vec<Ipv4Addr>,
}

impl Graph {
    fn hop_range(&self, hop: usize) -> Range<usize> {
        self.hop_start[hop] as usize..self.hop_start[hop + 1] as usize
    }

    /// The number of `addr`'s vertex at `hop`, if it has one.
    fn vertex(&self, hop: usize, addr: Ipv4Addr) -> Option<usize> {
        if hop + 1 >= self.hop_start.len() {
            return None;
        }
        let sorted = &self.by_address[self.hop_range(hop)];
        sorted
            .binary_search_by_key(&addr, |&v| self.vertices[v as usize])
            .ok()
            .map(|k| sorted[k] as usize)
    }

    fn successors_of(&self, v: usize) -> &[Ipv4Addr] {
        &self.succ[self.succ_start[v] as usize..self.succ_start[v + 1] as usize]
    }

    fn predecessors_of(&self, v: usize) -> &[Ipv4Addr] {
        &self.pred[self.pred_start[v] as usize..self.pred_start[v + 1] as usize]
    }
}

impl MultipathTopology {
    /// Starts building a topology.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// Number of hops (≥ 2). The destination is at hop `num_hops() - 1`.
    pub fn num_hops(&self) -> usize {
        self.graph.hop_start.len() - 1
    }

    /// Vertices at hop `i`, in deterministic (insertion) order.
    pub fn hop(&self, i: usize) -> &[Ipv4Addr] {
        &self.graph.vertices[self.graph.hop_range(i)]
    }

    /// All hops, in hop order.
    pub fn hops(&self) -> impl DoubleEndedIterator<Item = &[Ipv4Addr]> + ExactSizeIterator + '_ {
        (0..self.num_hops()).map(|i| self.hop(i))
    }

    /// Every vertex, hop by hop: the hops' vertex lists concatenated.
    /// A vertex's position here is its vertex number
    /// ([`vertex_index`](Self::vertex_index)).
    pub fn vertices(&self) -> &[Ipv4Addr] {
        &self.graph.vertices
    }

    /// The vertex number of `addr` at hop `hop` (its position in
    /// [`vertices`](Self::vertices)), if `addr` is a vertex there.
    pub fn vertex_index(&self, hop: usize, addr: Ipv4Addr) -> Option<usize> {
        self.graph.vertex(hop, addr)
    }

    /// The destination address.
    pub fn destination(&self) -> Ipv4Addr {
        self.graph.vertices[self.graph.vertices.len() - 1]
    }

    /// The TTL at which hop `i` responds.
    pub fn ttl_of_hop(&self, i: usize) -> u8 {
        (i + 1) as u8
    }

    /// True if `addr` is a vertex at hop `i`.
    pub fn contains(&self, hop: usize, addr: Ipv4Addr) -> bool {
        self.graph.vertex(hop, addr).is_some()
    }

    /// Successors of `addr` at hop `i` (vertices at hop `i + 1`), in
    /// ascending address order.
    pub fn successors(&self, hop: usize, addr: Ipv4Addr) -> &[Ipv4Addr] {
        self.graph
            .vertex(hop, addr)
            .map_or(&[], |v| self.graph.successors_of(v))
    }

    /// Predecessors of `addr` at hop `i` (vertices at hop `i - 1`), in
    /// ascending address order.
    pub fn predecessors(&self, hop: usize, addr: Ipv4Addr) -> &[Ipv4Addr] {
        self.graph
            .vertex(hop, addr)
            .map_or(&[], |v| self.graph.predecessors_of(v))
    }

    /// Out-degree of a vertex.
    pub fn out_degree(&self, hop: usize, addr: Ipv4Addr) -> usize {
        self.successors(hop, addr).len()
    }

    /// In-degree of a vertex.
    pub fn in_degree(&self, hop: usize, addr: Ipv4Addr) -> usize {
        self.predecessors(hop, addr).len()
    }

    /// Total number of vertices (summed over hops; an address appearing at
    /// two hops counts twice, since it is two topological vertices).
    pub fn total_vertices(&self) -> usize {
        self.graph.vertices.len()
    }

    /// Total number of edges.
    pub fn total_edges(&self) -> usize {
        self.graph.succ.len()
    }

    /// Iterator over all edges as `(hop, from, to)`: by hop, then source,
    /// then target, addresses ascending.
    pub fn edges(&self) -> impl Iterator<Item = (usize, Ipv4Addr, Ipv4Addr)> + '_ {
        let g = &*self.graph;
        (0..self.num_hops()).flat_map(move |hop| {
            g.by_address[g.hop_range(hop)].iter().flat_map(move |&v| {
                let from = g.vertices[v as usize];
                g.successors_of(v as usize)
                    .iter()
                    .map(move |&to| (hop, from, to))
            })
        })
    }

    /// The set of distinct addresses appearing anywhere in the topology.
    pub fn all_addresses(&self) -> BTreeSet<Ipv4Addr> {
        self.graph.vertices.iter().copied().collect()
    }

    /// Probability, under uniform-at-random per-flow load balancing, that a
    /// probe with a uniformly chosen flow ID reaches each vertex.
    ///
    /// Hop 0 vertices split the unit mass evenly (the source balances over
    /// them uniformly if there are several); afterwards each vertex splits
    /// its mass evenly over its successors. This is the quantity behind the
    /// paper's "maximum probability difference" (Fig. 8) and behind the
    /// definition of a *uniform hop* (every vertex equally likely).
    pub fn reach_probabilities(&self) -> Vec<BTreeMap<Ipv4Addr, f64>> {
        let mut probs: Vec<BTreeMap<Ipv4Addr, f64>> = Vec::with_capacity(self.num_hops());
        let first: BTreeMap<Ipv4Addr, f64> = {
            let n = self.hop(0).len() as f64;
            self.hop(0).iter().map(|&a| (a, 1.0 / n)).collect()
        };
        probs.push(first);
        for i in 1..self.num_hops() {
            let mut layer: BTreeMap<Ipv4Addr, f64> =
                self.hop(i).iter().map(|&a| (a, 0.0)).collect();
            for &u in self.hop(i - 1) {
                let p_u = probs[i - 1][&u];
                let succs = self.successors(i - 1, u);
                if succs.is_empty() {
                    continue;
                }
                let share = p_u / succs.len() as f64;
                for &v in succs {
                    *layer.get_mut(&v).expect("validated edge target") += share;
                }
            }
            probs.push(layer);
        }
        probs
    }

    /// Length of the shortest hop-path from `from_hop`'s single vertex to
    /// the first hop at which `target` appears, scanning forward. Returns
    /// `None` if `target` never appears after `from_hop`.
    pub fn hops_until(&self, from_hop: usize, target: Ipv4Addr) -> Option<usize> {
        (from_hop + 1..self.num_hops())
            .find(|&i| self.contains(i, target))
            .map(|i| i - from_hop)
    }

    /// An isomorphic copy with every address shifted by `offset`
    /// (wrapping 32-bit addition), preserving hop order and edges.
    ///
    /// Multi-destination sweeps use this to replicate one canonical
    /// topology into disjoint address blocks, so several lanes of a
    /// shared simulator can serve "the same" topology behind distinct
    /// destinations.
    pub fn translated(&self, offset: u32) -> MultipathTopology {
        let shift = |a: Ipv4Addr| Ipv4Addr::from(u32::from(a).wrapping_add(offset));
        let mut b = TopologyBuilder::default();
        for hop in self.hops() {
            b.add_hop(hop.iter().copied().map(shift));
        }
        for (hop, from, to) in self.edges() {
            b.add_edge(hop, shift(from), shift(to));
        }
        b.build()
            .expect("translation preserves topology invariants")
    }

    /// An editable copy: the mutations below change it and re-validate
    /// it through [`TopologyBuilder::build`], so each returns a topology
    /// satisfying the full invariant set.
    fn to_builder(&self) -> TopologyBuilder {
        TopologyBuilder {
            hops: self.hops().map(<[Ipv4Addr]>::to_vec).collect(),
            edges: self.edges().collect(),
        }
    }

    /// The numerically smallest address not yet used anywhere in the
    /// topology and above every existing address — mutations that grow the
    /// graph mint interfaces here, so translated per-lane copies mint into
    /// their own disjoint blocks.
    pub fn next_free_address(&self) -> Ipv4Addr {
        let max = self
            .graph
            .vertices
            .iter()
            .map(|&a| u32::from(a))
            .max()
            .expect("validated: >= 2 hops");
        Ipv4Addr::from(max.wrapping_add(1))
    }

    /// Route flap: exchanges the successor sets of the vertices at
    /// positions `a` and `b` of hop `hop`. The union of next-hops is
    /// preserved, so the result is always a valid topology — but every
    /// flow transiting either vertex is rerouted.
    pub fn with_swapped_successors(
        &self,
        hop: usize,
        a: usize,
        b: usize,
    ) -> Result<MultipathTopology, TopologyError> {
        if hop + 1 >= self.num_hops() {
            return Err(TopologyError::BadMutation {
                reason: "swap hop out of range (destination hop has no successors)",
            });
        }
        let vertices = self.hop(hop);
        if a == b || a >= vertices.len() || b >= vertices.len() {
            return Err(TopologyError::BadMutation {
                reason: "swap needs two distinct in-range vertex indices",
            });
        }
        let (va, vb) = (vertices[a], vertices[b]);
        let mut edited = self.to_builder();
        for (h, from, _) in &mut edited.edges {
            if *h == hop && (*from == va || *from == vb) {
                *from = if *from == va { vb } else { va };
            }
        }
        edited.build()
    }

    /// Load-balancer regrow: adds one freshly minted vertex at hop `hop`,
    /// wired in parallel with that hop's first vertex (same predecessors,
    /// same successors) — a new branch appearing in an existing diamond.
    pub fn with_added_branch(&self, hop: usize) -> Result<MultipathTopology, TopologyError> {
        if hop + 1 >= self.num_hops() {
            return Err(TopologyError::BadMutation {
                reason: "cannot grow the destination hop",
            });
        }
        let template = self.hop(hop)[0];
        let fresh = self.next_free_address();
        let mut edited = self.to_builder();
        edited.hops[hop].push(fresh);
        for &s in self.successors(hop, template) {
            edited.edges.push((hop, fresh, s));
        }
        for &p in self.predecessors(hop, template) {
            edited.edges.push((hop - 1, p, fresh));
        }
        edited.build()
    }

    /// Load-balancer shrink: removes the vertex at position `index` of hop
    /// `hop`. Predecessors left with no successor are rewired to the
    /// hop's first remaining vertex, and orphaned successors gain an edge
    /// from it, so all flows still reach the destination.
    pub fn with_removed_branch(
        &self,
        hop: usize,
        index: usize,
    ) -> Result<MultipathTopology, TopologyError> {
        if hop + 1 >= self.num_hops() {
            return Err(TopologyError::BadMutation {
                reason: "cannot shrink the destination hop",
            });
        }
        let vertices = self.hop(hop);
        if index >= vertices.len() {
            return Err(TopologyError::BadMutation {
                reason: "shrink vertex index out of range",
            });
        }
        if vertices.len() < 2 {
            return Err(TopologyError::BadMutation {
                reason: "cannot remove the last branch of a hop",
            });
        }
        let removed = vertices[index];
        let mut edited = self.to_builder();
        edited.hops[hop].remove(index);
        let fallback = edited.hops[hop][0];
        edited.edges.retain(|&(h, from, to)| {
            !((h == hop && from == removed) || (h + 1 == hop && to == removed))
        });
        // Re-home flows: predecessors that only fed the removed branch
        // fall back to the first surviving sibling ...
        if hop > 0 {
            for &p in self.hop(hop - 1) {
                let fed = edited
                    .edges
                    .iter()
                    .any(|&(h, from, _)| h + 1 == hop && from == p);
                if !fed {
                    edited.edges.push((hop - 1, p, fallback));
                }
            }
        }
        // ... and successors only the removed branch fed are adopted by it.
        for &s in self.successors(hop, removed) {
            let reachable = edited.edges.iter().any(|&(h, _, to)| h == hop && to == s);
            if !reachable {
                edited.edges.push((hop, fallback, s));
            }
        }
        edited.build()
    }

    /// MPLS tunnel reveal: interposes a single freshly minted vertex as a
    /// new hop before index `at`, carrying all traffic between the two
    /// neighbouring hops (the hidden label-switching router becoming
    /// visible). Everything from hop `at` on shifts one TTL deeper.
    pub fn with_inserted_hop(&self, at: usize) -> Result<MultipathTopology, TopologyError> {
        if at == 0 || at >= self.num_hops() {
            return Err(TopologyError::BadMutation {
                reason: "hop insertion point must be between two existing hops",
            });
        }
        let fresh = self.next_free_address();
        let mut edited = self.to_builder();
        edited.hops.insert(at, vec![fresh]);
        // The interposed router absorbs the old at-1 -> at wiring: every
        // upstream vertex feeds it, and it fans out to the whole old hop.
        edited.edges.retain(|&(h, _, _)| h + 1 != at);
        for (h, _, _) in &mut edited.edges {
            if *h >= at {
                *h += 1;
            }
        }
        for &p in self.hop(at - 1) {
            edited.edges.push((at - 1, p, fresh));
        }
        for &v in self.hop(at) {
            edited.edges.push((at, fresh, v));
        }
        edited.build()
    }

    /// Tunnel hide: removes the hop at index `at`, splicing its
    /// neighbours together (predecessor -> removed -> successor paths
    /// become direct edges). Everything after `at` shifts one TTL up.
    pub fn with_removed_hop(&self, at: usize) -> Result<MultipathTopology, TopologyError> {
        if at == 0 || at + 1 >= self.num_hops() {
            return Err(TopologyError::BadMutation {
                reason: "only interior hops can be removed",
            });
        }
        let mut edited = self.to_builder();
        edited.hops.remove(at);
        edited.edges.retain(|&(h, _, _)| h + 1 != at && h != at);
        for (h, _, _) in &mut edited.edges {
            if *h > at {
                *h -= 1;
            }
        }
        for &p in self.hop(at - 1) {
            for &v in self.successors(at - 1, p) {
                for &w in self.successors(at, v) {
                    edited.edges.push((at - 1, p, w));
                }
            }
        }
        edited.build()
    }
}

/// Incremental builder for [`MultipathTopology`].
#[derive(Debug, Clone, Default)]
pub struct TopologyBuilder {
    hops: Vec<Vec<Ipv4Addr>>,
    /// `(hop, from, to)` triples, in any order; repeats collapse.
    edges: Vec<(usize, Ipv4Addr, Ipv4Addr)>,
}

impl TopologyBuilder {
    /// Appends a hop with the given vertices; returns its index.
    pub fn add_hop<I: IntoIterator<Item = Ipv4Addr>>(&mut self, vertices: I) -> usize {
        self.hops.push(vertices.into_iter().collect());
        self.hops.len() - 1
    }

    /// Adds an edge from `from` at `hop` to `to` at `hop + 1`.
    pub fn add_edge(&mut self, hop: usize, from: Ipv4Addr, to: Ipv4Addr) -> &mut Self {
        assert!(hop < self.hops.len(), "edge hop out of range");
        self.edges.push((hop, from, to));
        self
    }

    /// Connects every vertex at `hop` to every vertex at `hop + 1`
    /// (full bipartite wiring — the extreme form of meshing).
    pub fn connect_full(&mut self, hop: usize) -> &mut Self {
        assert!(hop + 1 < self.hops.len(), "connect_full hop out of range");
        let (first, second) = (self.hops[hop].clone(), self.hops[hop + 1].clone());
        for from in first {
            for &to in &second {
                self.add_edge(hop, from, to);
            }
        }
        self
    }

    /// Connects hops `hop` → `hop + 1` in a balanced unmeshed pattern:
    /// vertices on the smaller side fan out (or in) evenly, each vertex on
    /// the larger side touching exactly one edge. Requires the larger side
    /// size to be a multiple-free ≥ relationship — any sizes work; the fan
    /// is as even as possible.
    pub fn connect_unmeshed(&mut self, hop: usize) -> &mut Self {
        assert!(
            hop + 1 < self.hops.len(),
            "connect_unmeshed hop out of range"
        );
        let from = self.hops[hop].clone();
        let to = self.hops[hop + 1].clone();
        if from.len() <= to.len() {
            // Fan out: each target gets exactly one predecessor.
            for (j, &t) in to.iter().enumerate() {
                let f = from[j % from.len()];
                self.add_edge(hop, f, t);
            }
        } else {
            // Fan in: each source gets exactly one successor.
            for (j, &f) in from.iter().enumerate() {
                let t = to[j % to.len()];
                self.add_edge(hop, f, t);
            }
        }
        self
    }

    /// Validates the topology and lays it out flat.
    pub fn build(mut self) -> Result<MultipathTopology, TopologyError> {
        let num_hops = self.hops.len();
        if num_hops < 2 {
            return Err(TopologyError::TooFewHops);
        }
        let total: usize = self.hops.iter().map(Vec::len).sum();
        let mut vertices: Vec<Ipv4Addr> = Vec::with_capacity(total);
        let mut hop_start: Vec<u32> = Vec::with_capacity(num_hops + 1);
        let mut by_address: Vec<u32> = Vec::with_capacity(total);
        for (i, hop) in self.hops.iter().enumerate() {
            if hop.is_empty() {
                return Err(TopologyError::EmptyHop { hop: i });
            }
            let first = vertices.len();
            hop_start.push(first as u32);
            vertices.extend_from_slice(hop);
            by_address.extend(first as u32..vertices.len() as u32);
            let sorted = &mut by_address[first..];
            sorted.sort_unstable_by_key(|&v| vertices[v as usize]);
            if sorted
                .windows(2)
                .any(|w| vertices[w[0] as usize] == vertices[w[1] as usize])
            {
                // Report the first address that repeats, in hop order.
                let (_, &addr) = hop
                    .iter()
                    .enumerate()
                    .find(|&(k, a)| hop[..k].contains(a))
                    .expect("a hop with a repeated address");
                return Err(TopologyError::DuplicateVertex { hop: i, addr });
            }
        }
        hop_start.push(total as u32);
        if self.hops[num_hops - 1].len() != 1 {
            return Err(TopologyError::BadFinalHop);
        }

        let mut graph = Graph {
            vertices,
            hop_start,
            by_address,
            succ_start: vec![0; total + 1],
            succ: Vec::new(),
            pred_start: vec![0; total + 1],
            pred: Vec::new(),
        };
        // Sorted by hop, then source, then target: each source's targets
        // and each target's sources come out ascending.
        self.edges.sort_unstable();
        self.edges.dedup();
        let mut ends: Vec<(u32, u32)> = Vec::with_capacity(self.edges.len());
        for &(hop, from, to) in &self.edges {
            let f = graph
                .vertex(hop, from)
                .ok_or(TopologyError::DanglingEdge { hop, addr: from })?;
            let t = graph
                .vertex(hop + 1, to)
                .ok_or(TopologyError::DanglingEdge { hop, addr: to })?;
            graph.succ_start[f + 1] += 1;
            graph.pred_start[t + 1] += 1;
            ends.push((f as u32, t as u32));
        }
        for v in 0..total {
            graph.succ_start[v + 1] += graph.succ_start[v];
            graph.pred_start[v + 1] += graph.pred_start[v];
        }
        graph.succ = vec![Ipv4Addr::UNSPECIFIED; ends.len()];
        graph.pred = vec![Ipv4Addr::UNSPECIFIED; ends.len()];
        let mut cursor: Vec<u32> = graph.succ_start[..total].to_vec();
        for (&(_, _, to), &(f, _)) in self.edges.iter().zip(&ends) {
            graph.succ[cursor[f as usize] as usize] = to;
            cursor[f as usize] += 1;
        }
        cursor.copy_from_slice(&graph.pred_start[..total]);
        for (&(_, from, _), &(_, t)) in self.edges.iter().zip(&ends) {
            graph.pred[cursor[t as usize] as usize] = from;
            cursor[t as usize] += 1;
        }

        // Connectivity: every flow from the source reaches the destination.
        for i in 0..num_hops {
            let range = graph.hop_range(i);
            if i + 1 < num_hops {
                if let Some(v) = range.clone().find(|&v| graph.successors_of(v).is_empty()) {
                    return Err(TopologyError::NoSuccessor {
                        hop: i,
                        addr: graph.vertices[v],
                    });
                }
            }
            if i > 0 {
                if let Some(v) = range.clone().find(|&v| graph.predecessors_of(v).is_empty()) {
                    return Err(TopologyError::NoPredecessor {
                        hop: i,
                        addr: graph.vertices[v],
                    });
                }
            }
        }

        Ok(MultipathTopology {
            graph: Arc::new(graph),
        })
    }
}

/// Convenience: sequential test addresses `10.h.x.y` for hop `h`.
/// Used pervasively by tests and the canonical topologies.
pub fn addr(hop: usize, index: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, hop as u8, (index / 256) as u8, (index % 256) as u8)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1-2-1: the simplest possible diamond (Sec. 3's validation topology).
    fn simplest() -> MultipathTopology {
        let mut b = MultipathTopology::builder();
        b.add_hop([addr(0, 0)]);
        b.add_hop([addr(1, 0), addr(1, 1)]);
        b.add_hop([addr(2, 0)]);
        b.add_edge(0, addr(0, 0), addr(1, 0));
        b.add_edge(0, addr(0, 0), addr(1, 1));
        b.add_edge(1, addr(1, 0), addr(2, 0));
        b.add_edge(1, addr(1, 1), addr(2, 0));
        b.build().unwrap()
    }

    #[test]
    fn simplest_diamond_shape() {
        let t = simplest();
        assert_eq!(t.num_hops(), 3);
        assert_eq!(t.hop(1).len(), 2);
        assert_eq!(t.destination(), addr(2, 0));
        assert_eq!(t.total_vertices(), 4);
        assert_eq!(t.total_edges(), 4);
        assert_eq!(t.out_degree(0, addr(0, 0)), 2);
        assert_eq!(t.in_degree(2, addr(2, 0)), 2);
        assert_eq!(t.in_degree(0, addr(0, 0)), 0);
    }

    #[test]
    fn reach_probabilities_uniform_split() {
        let t = simplest();
        let probs = t.reach_probabilities();
        assert_eq!(probs[0][&addr(0, 0)], 1.0);
        assert!((probs[1][&addr(1, 0)] - 0.5).abs() < 1e-12);
        assert!((probs[1][&addr(1, 1)] - 0.5).abs() < 1e-12);
        assert!((probs[2][&addr(2, 0)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn asymmetric_fanout_probabilities() {
        // Divergence with 2 successors; one of them fans out to 2 more.
        let mut b = MultipathTopology::builder();
        b.add_hop([addr(0, 0)]);
        b.add_hop([addr(1, 0), addr(1, 1)]);
        b.add_hop([addr(2, 0), addr(2, 1), addr(2, 2)]);
        b.add_hop([addr(3, 0)]);
        b.add_edge(0, addr(0, 0), addr(1, 0));
        b.add_edge(0, addr(0, 0), addr(1, 1));
        b.add_edge(1, addr(1, 0), addr(2, 0));
        b.add_edge(1, addr(1, 0), addr(2, 1));
        b.add_edge(1, addr(1, 1), addr(2, 2));
        b.add_edge(2, addr(2, 0), addr(3, 0));
        b.add_edge(2, addr(2, 1), addr(3, 0));
        b.add_edge(2, addr(2, 2), addr(3, 0));
        let t = b.build().unwrap();
        let probs = t.reach_probabilities();
        assert!((probs[2][&addr(2, 0)] - 0.25).abs() < 1e-12);
        assert!((probs[2][&addr(2, 1)] - 0.25).abs() < 1e-12);
        assert!((probs[2][&addr(2, 2)] - 0.50).abs() < 1e-12);
    }

    #[test]
    fn builder_rejects_too_few_hops() {
        let mut b = MultipathTopology::builder();
        b.add_hop([addr(0, 0)]);
        assert_eq!(b.build().unwrap_err(), TopologyError::TooFewHops);
    }

    #[test]
    fn builder_rejects_multi_vertex_final_hop() {
        let mut b = MultipathTopology::builder();
        b.add_hop([addr(0, 0)]);
        b.add_hop([addr(1, 0), addr(1, 1)]);
        b.add_edge(0, addr(0, 0), addr(1, 0));
        b.add_edge(0, addr(0, 0), addr(1, 1));
        assert_eq!(b.build().unwrap_err(), TopologyError::BadFinalHop);
    }

    #[test]
    fn builder_rejects_successorless_vertex() {
        let mut b = MultipathTopology::builder();
        b.add_hop([addr(0, 0)]);
        b.add_hop([addr(1, 0), addr(1, 1)]);
        b.add_hop([addr(2, 0)]);
        b.add_edge(0, addr(0, 0), addr(1, 0));
        b.add_edge(0, addr(0, 0), addr(1, 1));
        b.add_edge(1, addr(1, 0), addr(2, 0));
        // addr(1,1) has no successor: a flow reaching it would be lost.
        assert_eq!(
            b.build().unwrap_err(),
            TopologyError::NoSuccessor {
                hop: 1,
                addr: addr(1, 1)
            }
        );
    }

    #[test]
    fn builder_rejects_unreachable_vertex() {
        let mut b = MultipathTopology::builder();
        b.add_hop([addr(0, 0)]);
        b.add_hop([addr(1, 0), addr(1, 1)]);
        b.add_hop([addr(2, 0)]);
        b.add_edge(0, addr(0, 0), addr(1, 0));
        b.add_edge(1, addr(1, 0), addr(2, 0));
        b.add_edge(1, addr(1, 1), addr(2, 0));
        assert_eq!(
            b.build().unwrap_err(),
            TopologyError::NoPredecessor {
                hop: 1,
                addr: addr(1, 1)
            }
        );
    }

    #[test]
    fn builder_rejects_dangling_edge() {
        let mut b = MultipathTopology::builder();
        b.add_hop([addr(0, 0)]);
        b.add_hop([addr(1, 0)]);
        b.add_edge(0, addr(0, 0), addr(9, 9));
        assert!(matches!(
            b.build().unwrap_err(),
            TopologyError::DanglingEdge { .. }
        ));
    }

    #[test]
    fn builder_rejects_duplicate_vertex() {
        let mut b = MultipathTopology::builder();
        b.add_hop([addr(0, 0), addr(0, 0)]);
        b.add_hop([addr(1, 0)]);
        b.add_edge(0, addr(0, 0), addr(1, 0));
        assert!(matches!(
            b.build().unwrap_err(),
            TopologyError::DuplicateVertex { .. }
        ));
    }

    #[test]
    fn connect_unmeshed_even_fan() {
        let mut b = MultipathTopology::builder();
        b.add_hop([addr(0, 0)]);
        b.add_hop([addr(1, 0), addr(1, 1)]);
        b.add_hop([addr(2, 0), addr(2, 1), addr(2, 2), addr(2, 3)]);
        b.add_hop([addr(3, 0)]);
        b.connect_unmeshed(0);
        b.connect_unmeshed(1);
        b.connect_unmeshed(2);
        let t = b.build().unwrap();
        // 2 -> 4: each hop-1 vertex has exactly 2 successors; every hop-2
        // vertex has in-degree 1 (no meshing).
        for &v in t.hop(1) {
            assert_eq!(t.out_degree(1, v), 2);
        }
        for &v in t.hop(2) {
            assert_eq!(t.in_degree(2, v), 1);
        }
    }

    #[test]
    fn connect_full_meshes() {
        let mut b = MultipathTopology::builder();
        b.add_hop([addr(0, 0)]);
        b.add_hop([addr(1, 0), addr(1, 1)]);
        b.add_hop([addr(2, 0), addr(2, 1)]);
        b.add_hop([addr(3, 0)]);
        b.connect_unmeshed(0);
        b.connect_full(1);
        b.connect_unmeshed(2);
        let t = b.build().unwrap();
        assert_eq!(t.out_degree(1, addr(1, 0)), 2);
        assert_eq!(t.in_degree(2, addr(2, 1)), 2);
    }

    #[test]
    fn edges_iterator_consistent() {
        let t = simplest();
        let edges: Vec<_> = t.edges().collect();
        assert_eq!(edges.len(), t.total_edges());
        assert!(edges.contains(&(0, addr(0, 0), addr(1, 0))));
        assert!(edges.contains(&(1, addr(1, 1), addr(2, 0))));
    }

    #[test]
    fn hops_until_finds_first_occurrence() {
        let t = simplest();
        assert_eq!(t.hops_until(0, addr(2, 0)), Some(2));
        assert_eq!(t.hops_until(0, addr(1, 1)), Some(1));
        assert_eq!(t.hops_until(1, addr(1, 1)), None);
    }

    #[test]
    fn clone_preserves_structure() {
        let t = simplest();
        let u = t.clone();
        assert_eq!(t, u);
        assert_eq!(u.total_edges(), 4);
    }

    /// 1-2-2-1 unmeshed: hop-1 vertices have distinct single successors,
    /// so a successor swap reroutes every flow through them.
    fn unmeshed() -> MultipathTopology {
        let mut b = MultipathTopology::builder();
        b.add_hop([addr(0, 0)]);
        b.add_hop([addr(1, 0), addr(1, 1)]);
        b.add_hop([addr(2, 0), addr(2, 1)]);
        b.add_hop([addr(3, 0)]);
        b.connect_unmeshed(0);
        b.connect_unmeshed(1);
        b.connect_unmeshed(2);
        b.build().unwrap()
    }

    #[test]
    fn swap_successors_reroutes_and_validates() {
        let t = unmeshed();
        let old_succ_0 = t.successors(1, addr(1, 0)).to_vec();
        let old_succ_1 = t.successors(1, addr(1, 1)).to_vec();
        assert_ne!(old_succ_0, old_succ_1);
        let m = t.with_swapped_successors(1, 0, 1).unwrap();
        assert_eq!(m.successors(1, addr(1, 0)), old_succ_1);
        assert_eq!(m.successors(1, addr(1, 1)), old_succ_0);
        // Swapping back restores the original topology exactly.
        assert_eq!(m.with_swapped_successors(1, 0, 1).unwrap(), t);
        assert!(matches!(
            t.with_swapped_successors(1, 0, 0),
            Err(TopologyError::BadMutation { .. })
        ));
        assert!(matches!(
            t.with_swapped_successors(3, 0, 1),
            Err(TopologyError::BadMutation { .. })
        ));
    }

    #[test]
    fn added_branch_parallels_first_vertex() {
        let t = unmeshed();
        let m = t.with_added_branch(1).unwrap();
        assert_eq!(m.hop(1).len(), 3);
        let fresh = t.next_free_address();
        assert!(m.contains(1, fresh));
        assert_eq!(m.successors(1, fresh), m.successors(1, addr(1, 0)));
        assert_eq!(m.predecessors(1, fresh), m.predecessors(1, addr(1, 0)));
        assert!(matches!(
            t.with_added_branch(3),
            Err(TopologyError::BadMutation { .. })
        ));
    }

    #[test]
    fn removed_branch_rewires_orphans() {
        let t = unmeshed();
        let m = t.with_removed_branch(1, 1).unwrap();
        assert_eq!(m.hop(1), &[addr(1, 0)]);
        // addr(2,1) was fed only by the removed vertex: adopted by the
        // surviving sibling so it stays reachable.
        assert!(m.successors(1, addr(1, 0)).contains(&addr(2, 1)));
        assert_eq!(m.num_hops(), 4);
        // A single-vertex hop cannot shrink further.
        assert!(matches!(
            m.with_removed_branch(1, 0),
            Err(TopologyError::BadMutation { .. })
        ));
    }

    #[test]
    fn inserted_hop_interposes_single_router() {
        let t = unmeshed();
        let m = t.with_inserted_hop(2).unwrap();
        assert_eq!(m.num_hops(), 5);
        let fresh = t.next_free_address();
        assert_eq!(m.hop(2), &[fresh]);
        for &p in m.hop(1) {
            assert_eq!(m.successors(1, p), [fresh]);
        }
        assert_eq!(m.successors(2, fresh).len(), t.hop(2).len());
        assert_eq!(m.destination(), t.destination());
        assert!(matches!(
            t.with_inserted_hop(0),
            Err(TopologyError::BadMutation { .. })
        ));
    }

    #[test]
    fn removed_hop_splices_neighbours() {
        let t = unmeshed();
        let grown = t.with_inserted_hop(2).unwrap();
        let back = grown.with_removed_hop(2).unwrap();
        // Insert-then-remove composes the bipartite wiring, so every
        // hop-1 vertex now reaches everything the interposed router fed.
        assert_eq!(back.num_hops(), 4);
        for &p in back.hop(1) {
            assert_eq!(back.successors(1, p).len(), t.hop(2).len());
        }
        assert_eq!(back.destination(), t.destination());
        assert!(matches!(
            t.with_removed_hop(3),
            Err(TopologyError::BadMutation { .. })
        ));
    }

    #[test]
    fn mutations_preserve_invariants_under_composition() {
        let mut t = unmeshed();
        t = t.with_added_branch(1).unwrap();
        t = t.with_inserted_hop(3).unwrap();
        t = t.with_swapped_successors(1, 0, 2).unwrap();
        t = t.with_removed_branch(2, 0).unwrap();
        t = t.with_removed_hop(1).unwrap();
        // Every surviving vertex still reaches the destination: rebuilt()
        // validated connectivity, so reach probabilities sum to 1.
        let probs = t.reach_probabilities();
        let total: f64 = probs.last().unwrap().values().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
