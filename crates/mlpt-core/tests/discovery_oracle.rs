//! Oracle property test for the evidence base: random operation
//! sequences applied to [`Discovery`] and to a nested-map reference must
//! agree on every query, including iteration order.
//!
//! `Reference` is the nested-`BTreeMap` implementation `Discovery` had
//! before it became flat sorted vectors, copied without its docs and
//! the API nothing called, as the independent check. Operations draw TTLs from
//! both ends of the `u8` range, so the top TTLs (where `ttl + 1`
//! overflows) are exercised; CI also runs this file in release, where
//! that overflow would wrap silently instead of panicking.

use mlpt_core::discovery::Discovery;
use mlpt_wire::FlowId;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// The nested-map evidence base.
#[derive(Debug, Clone, Default, PartialEq)]
struct Reference {
    /// Per hop index (ttl - 1): vertex → flows observed reaching it.
    hops: Vec<BTreeMap<Ipv4Addr, BTreeSet<FlowId>>>,
    /// Discovery order of vertices per hop.
    hop_order: Vec<Vec<Ipv4Addr>>,
    /// Flow → (ttl → responder): each flow's observed path.
    flow_paths: BTreeMap<FlowId, BTreeMap<u8, Ipv4Addr>>,
    /// Flows probed at each ttl (whether or not answered).
    probed_at: BTreeMap<u8, BTreeSet<FlowId>>,
    /// Probes sent per hop index.
    probes_per_hop: Vec<u64>,
    /// Every flow ID ever used.
    used_flows: BTreeSet<FlowId>,
    /// Smallest TTL at which the destination answered.
    destination_ttl: Option<u8>,
}

impl Reference {
    fn ensure_hop(&mut self, index: usize) {
        while self.hops.len() <= index {
            self.hops.push(BTreeMap::new());
            self.hop_order.push(Vec::new());
            self.probes_per_hop.push(0);
        }
    }

    fn note_probe_sent(&mut self, flow: FlowId, ttl: u8) {
        assert!(ttl >= 1);
        self.ensure_hop(usize::from(ttl - 1));
        self.probes_per_hop[usize::from(ttl - 1)] += 1;
        self.probed_at.entry(ttl).or_default().insert(flow);
        self.used_flows.insert(flow);
    }

    fn record(&mut self, flow: FlowId, ttl: u8, responder: Ipv4Addr, at_destination: bool) {
        assert!(ttl >= 1);
        let h = usize::from(ttl - 1);
        self.ensure_hop(h);
        let entry = self.hops[h].entry(responder).or_insert_with(|| {
            self.hop_order[h].push(responder);
            BTreeSet::new()
        });
        entry.insert(flow);
        self.flow_paths
            .entry(flow)
            .or_default()
            .insert(ttl, responder);
        if at_destination {
            self.destination_ttl = Some(match self.destination_ttl {
                Some(t) => t.min(ttl),
                None => ttl,
            });
        }
    }

    fn invalidate_from(&mut self, ttl: u8) -> Vec<(u8, Ipv4Addr)> {
        assert!(ttl >= 1);
        let h = usize::from(ttl - 1);
        let mut wiped = Vec::new();
        for (idx, order) in self.hop_order.iter().enumerate().skip(h) {
            for &vertex in order {
                wiped.push(((idx + 1) as u8, vertex));
            }
        }
        for idx in h..self.hops.len() {
            self.hops[idx].clear();
            self.hop_order[idx].clear();
            self.probes_per_hop[idx] = 0;
        }
        for path in self.flow_paths.values_mut() {
            let _ = path.split_off(&ttl);
        }
        self.flow_paths.retain(|_, path| !path.is_empty());
        self.probed_at.retain(|&t, _| t < ttl);
        self.invalidate_destination_ttl(ttl);
        wiped
    }

    fn remove_record(&mut self, flow: FlowId, ttl: u8) -> Option<Ipv4Addr> {
        let h = usize::from(ttl.saturating_sub(1));
        let addr = self
            .flow_paths
            .get_mut(&flow)
            .and_then(|p| p.remove(&ttl))?;
        self.flow_paths.retain(|_, path| !path.is_empty());
        if let Some(map) = self.hops.get_mut(h) {
            if let Some(flows) = map.get_mut(&addr) {
                flows.remove(&flow);
                if flows.is_empty() {
                    map.remove(&addr);
                    if let Some(order) = self.hop_order.get_mut(h) {
                        order.retain(|&v| v != addr);
                    }
                }
            }
        }
        Some(addr)
    }

    fn invalidate_destination_ttl(&mut self, ttl: u8) {
        if self.destination_ttl.is_some_and(|t| t >= ttl) {
            self.destination_ttl = None;
        }
    }

    fn has_vertex(&self, addr: Ipv4Addr) -> bool {
        self.hops.iter().any(|m| m.contains_key(&addr))
    }

    fn vertices_at(&self, ttl: u8) -> &[Ipv4Addr] {
        let h = usize::from(ttl.saturating_sub(1));
        self.hop_order.get(h).map(Vec::as_slice).unwrap_or(&[])
    }

    fn flows_reaching(&self, ttl: u8, vertex: Ipv4Addr) -> BTreeSet<FlowId> {
        let h = usize::from(ttl.saturating_sub(1));
        self.hops
            .get(h)
            .and_then(|m| m.get(&vertex))
            .cloned()
            .unwrap_or_default()
    }

    fn flow_vertex(&self, ttl: u8, flow: FlowId) -> Option<Ipv4Addr> {
        self.flow_paths
            .get(&flow)
            .and_then(|p| p.get(&ttl))
            .copied()
    }

    fn flow_probed_at(&self, ttl: u8, flow: FlowId) -> bool {
        self.probed_at.get(&ttl).is_some_and(|s| s.contains(&flow))
    }

    fn probes_at(&self, ttl: u8) -> u64 {
        let h = usize::from(ttl.saturating_sub(1));
        self.probes_per_hop.get(h).copied().unwrap_or(0)
    }

    fn destination_ttl(&self) -> Option<u8> {
        self.destination_ttl
    }

    fn max_observed_ttl(&self) -> u8 {
        for (h, order) in self.hop_order.iter().enumerate().rev() {
            if !order.is_empty() {
                return (h + 1) as u8;
            }
        }
        0
    }

    fn used_flows(&self) -> &BTreeSet<FlowId> {
        &self.used_flows
    }

    fn probes_via(&self, parent: Ipv4Addr, ttl: u8) -> (u64, BTreeSet<Ipv4Addr>) {
        assert!(ttl >= 2, "probes_via needs a previous hop");
        let mut sent = 0u64;
        let mut successors = BTreeSet::new();
        if let Some(probed) = self.probed_at.get(&ttl) {
            for &f in probed {
                if self.flow_vertex(ttl - 1, f) == Some(parent) {
                    sent += 1;
                    if let Some(v) = self.flow_vertex(ttl, f) {
                        successors.insert(v);
                    }
                }
            }
        }
        (sent, successors)
    }

    fn edges_from(&self, ttl: u8) -> BTreeMap<Ipv4Addr, BTreeSet<Ipv4Addr>> {
        let mut edges: BTreeMap<Ipv4Addr, BTreeSet<Ipv4Addr>> = BTreeMap::new();
        for path in self.flow_paths.values() {
            if let (Some(&from), Some(&to)) = (path.get(&ttl), path.get(&(ttl + 1))) {
                edges.entry(from).or_default().insert(to);
            }
        }
        edges
    }

    fn reverse_edges_from(&self, ttl: u8) -> BTreeMap<Ipv4Addr, BTreeSet<Ipv4Addr>> {
        let mut edges: BTreeMap<Ipv4Addr, BTreeSet<Ipv4Addr>> = BTreeMap::new();
        for path in self.flow_paths.values() {
            if let (Some(&from), Some(&to)) = (path.get(&ttl), path.get(&(ttl + 1))) {
                edges.entry(to).or_default().insert(from);
            }
        }
        edges
    }

    fn total_edges(&self) -> usize {
        let mut count = 0usize;
        let max_ttl = self.hops.len() as u8;
        for ttl in 1..max_ttl {
            count += self
                .edges_from(ttl)
                .values()
                .map(BTreeSet::len)
                .sum::<usize>();
        }
        count
    }

    fn total_vertices(&self) -> usize {
        self.hop_order.iter().map(Vec::len).sum()
    }

    fn reuse_queue(&self, ttl: u8) -> Vec<FlowId> {
        let mut queue = Vec::new();
        let mut enqueued: BTreeSet<FlowId> = BTreeSet::new();
        let vertices = self.vertices_at(ttl);
        let per_vertex: Vec<Vec<FlowId>> = vertices
            .iter()
            .map(|&v| self.flows_reaching(ttl, v).into_iter().collect())
            .collect();
        let max_len = per_vertex.iter().map(Vec::len).max().unwrap_or(0);
        for round in 0..max_len {
            for flows in &per_vertex {
                if let Some(&f) = flows.get(round) {
                    if enqueued.insert(f) {
                        queue.push(f);
                    }
                }
            }
        }
        queue
    }
}

/// Flows the operations draw from: few, so bindings collide.
const FLOWS: u16 = 10;
/// Responders the operations draw from: few, so re-bindings happen.
const ADDRS: u8 = 5;

fn address(i: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, 1 + i)
}

/// TTLs the queries sweep: the low range the operations use, one past
/// it (never touched), and the top of the `u8` range.
fn query_ttls() -> impl Iterator<Item = u8> {
    (1..=8u8).chain(250..=255)
}

/// One mutation of the evidence base.
#[derive(Debug, Clone, Copy)]
enum Op {
    Sent(FlowId, u8),
    Record(FlowId, u8, Ipv4Addr, bool),
    Invalidate(u8),
    Remove(FlowId, u8),
}

/// Decodes raw draws into an operation. Sends and records dominate, as
/// in a trace; TTLs come from 1..=6 or 251..=255.
fn op((kind, flow, ttl, responder, flag): (u8, u16, u8, u8, bool)) -> Op {
    let ttl = if ttl < 200 {
        1 + ttl % 6
    } else {
        251 + ttl % 5
    };
    let flow = FlowId(flow % FLOWS);
    match kind % 16 {
        0..=5 => Op::Sent(flow, ttl),
        6..=12 => Op::Record(flow, ttl, address(responder % ADDRS), flag),
        13 => Op::Invalidate(ttl),
        _ => Op::Remove(flow, ttl),
    }
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    collection::vec(
        (
            any::<u8>(),
            any::<u16>(),
            any::<u8>(),
            any::<u8>(),
            any::<bool>(),
        )
            .prop_map(op),
        0..80,
    )
}

/// Applies `op` to both, asserting the mutations' own results agree.
fn apply(d: &mut Discovery, r: &mut Reference, op: Op) -> Result<(), TestCaseError> {
    match op {
        Op::Sent(flow, ttl) => {
            d.note_probe_sent(flow, ttl);
            r.note_probe_sent(flow, ttl);
        }
        Op::Record(flow, ttl, responder, at_destination) => {
            d.record(flow, ttl, responder, at_destination);
            r.record(flow, ttl, responder, at_destination);
        }
        Op::Invalidate(ttl) => {
            prop_assert_eq!(d.invalidate_from(ttl), r.invalidate_from(ttl), "{:?}", op);
        }
        Op::Remove(flow, ttl) => {
            prop_assert_eq!(
                d.remove_record(flow, ttl),
                r.remove_record(flow, ttl),
                "{:?}",
                op
            );
        }
    }
    Ok(())
}

/// Asserts every query agrees, iteration order included.
fn agree(d: &Discovery, r: &Reference) -> Result<(), TestCaseError> {
    prop_assert_eq!(d.total_vertices(), r.total_vertices());
    prop_assert_eq!(d.total_edges(), r.total_edges());
    prop_assert_eq!(d.max_observed_ttl(), r.max_observed_ttl());
    prop_assert_eq!(d.destination_ttl(), r.destination_ttl());
    let used: Vec<FlowId> = r.used_flows().iter().copied().collect();
    prop_assert_eq!(d.used_flows(), used.as_slice());
    for a in 0..ADDRS + 1 {
        prop_assert_eq!(d.has_vertex(address(a)), r.has_vertex(address(a)));
    }
    let mut successors = Vec::new();
    for ttl in query_ttls() {
        prop_assert_eq!(
            d.vertices_at(ttl),
            r.vertices_at(ttl),
            "vertices at {}",
            ttl
        );
        prop_assert_eq!(d.probes_at(ttl), r.probes_at(ttl), "probes at {}", ttl);
        prop_assert_eq!(
            d.reuse_queue(ttl),
            r.reuse_queue(ttl),
            "reuse queue at {}",
            ttl
        );
        for f in 0..FLOWS {
            let flow = FlowId(f);
            prop_assert_eq!(d.flow_vertex(ttl, flow), r.flow_vertex(ttl, flow));
            prop_assert_eq!(d.flow_probed_at(ttl, flow), r.flow_probed_at(ttl, flow));
        }
        // The reference's edge maps compute `ttl + 1`: only ask them
        // about hop pairs that exist.
        let forward = if ttl < u8::MAX {
            r.edges_from(ttl)
        } else {
            BTreeMap::new()
        };
        if ttl < u8::MAX {
            prop_assert_eq!(d.edges_from(ttl), forward.clone(), "edges from {}", ttl);
        }
        let backward_into = if ttl >= 2 {
            r.reverse_edges_from(ttl - 1)
        } else {
            BTreeMap::new()
        };
        for a in 0..ADDRS + 1 {
            let v = address(a);
            let flows: Vec<FlowId> = r.flows_reaching(ttl, v).into_iter().collect();
            prop_assert_eq!(d.flows_at(ttl, v).collect::<Vec<_>>(), flows);
            prop_assert_eq!(d.flows_at(ttl, v).len(), r.flows_reaching(ttl, v).len());
            let succ: Vec<Ipv4Addr> = forward.get(&v).into_iter().flatten().copied().collect();
            prop_assert_eq!(d.successors(ttl, v).collect::<Vec<_>>(), succ.clone());
            prop_assert_eq!(d.successors(ttl, v).len(), succ.len());
            let pred: Vec<Ipv4Addr> = backward_into
                .get(&v)
                .into_iter()
                .flatten()
                .copied()
                .collect();
            prop_assert_eq!(d.predecessors(ttl, v).collect::<Vec<_>>(), pred.clone());
            prop_assert_eq!(d.predecessors(ttl, v).len(), pred.len());
            if ttl >= 2 {
                let (sent, set) = r.probes_via(v, ttl);
                let got = d.probes_via(v, ttl, &mut successors);
                prop_assert_eq!(got, sent, "probes via {} at {}", v, ttl);
                let want: Vec<Ipv4Addr> = set.into_iter().collect();
                prop_assert_eq!(successors.clone(), want, "successors via {} at {}", v, ttl);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every query agrees with the reference after every operation.
    #[test]
    fn discovery_matches_nested_map_reference(ops in arb_ops()) {
        let mut d = Discovery::new();
        let mut r = Reference::default();
        for op in ops {
            apply(&mut d, &mut r, op)?;
            agree(&d, &r)?;
        }
    }
}
