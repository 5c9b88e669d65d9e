//! The pre-batching probe path, preserved as a benchmark baseline.
//!
//! [`ReferenceNetwork`] reproduces the cost profile the simulator had
//! before the batched probe engine landed: per-packet
//! `HashMap<Ipv4Addr, …>` lookups for router ownership and hop distance,
//! a `BTreeSet → Vec` collection per walk step, an owned quote buffer and
//! [`IcmpMessage`] construction per reply, and a freshly allocated reply
//! `Vec` per probe. Behaviour is identical to [`mlpt_sim::SimNetwork`]
//! for fault-free UDP probing (same hasher, same RNG stream, same IP-ID
//! engine), so `probe_engine` benchmarks compare equal work — only the
//! dispatch machinery differs. [`PerProbe`] supplies the matching
//! one-probe-at-a-time prober.
//!
//! This module exists solely so the `probe_engine` benchmark can report
//! an honest before/after number; nothing in the product path uses it.

use mlpt_core::prober::{DirectObservation, ProbeObservation, Prober};
use mlpt_sim::{FlowHasher, IpIdEngine, ReplyClass, RouterProfile};
use mlpt_topo::{MultipathTopology, RouterId};
use mlpt_wire::icmp::{IcmpExtensions, IcmpMessage, CODE_PORT_UNREACHABLE};
use mlpt_wire::ipv4::{Ipv4Header, PROTO_ICMP, PROTO_UDP};
use mlpt_wire::probe::parse_udp_probe;
use mlpt_wire::transport::{BatchTransport, PacketTransport};
use mlpt_wire::FlowId;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// The per-probe baseline prober: forwards every probe to the wrapped
/// prober but keeps the trait's default one-at-a-time
/// [`Prober::probe_batch`], so each probe crosses the transport alone.
pub struct PerProbe<P>(pub P);

impl<P: Prober> Prober for PerProbe<P> {
    fn probe(&mut self, flow: FlowId, ttl: u8) -> Option<ProbeObservation> {
        self.0.probe(flow, ttl)
    }

    fn direct_probe(&mut self, target: Ipv4Addr) -> Option<DirectObservation> {
        self.0.direct_probe(target)
    }

    fn probes_sent(&self) -> u64 {
        self.0.probes_sent()
    }

    fn destination(&self) -> Ipv4Addr {
        self.0.destination()
    }
}

/// The legacy-architecture simulator (see module docs). Fault-free,
/// per-flow balancing, well-behaved routers — the configuration every
/// probe-engine benchmark runs under.
pub struct ReferenceNetwork {
    topology: MultipathTopology,
    router_of: HashMap<Ipv4Addr, RouterId>,
    distance: HashMap<Ipv4Addr, usize>,
    hasher: FlowHasher,
    profile: RouterProfile,
    ipid: IpIdEngine,
    rng: rand_chacha::ChaCha8Rng,
    clock: u64,
}

impl ReferenceNetwork {
    /// Builds the reference simulator over a topology: every interface
    /// its own router, uniform per-flow balancing, no faults.
    pub fn new(topology: MultipathTopology, seed: u64) -> Self {
        use rand_chacha::rand_core::SeedableRng;
        let mut router_of = HashMap::new();
        for (i, addr) in topology.all_addresses().into_iter().enumerate() {
            router_of.insert(addr, RouterId(i as u32));
        }
        let mut distance: HashMap<Ipv4Addr, usize> = HashMap::new();
        for i in 0..topology.num_hops() {
            for &a in topology.hop(i) {
                distance.entry(a).or_insert(i + 1);
            }
        }
        Self {
            topology,
            router_of,
            distance,
            hasher: FlowHasher::new(seed),
            profile: RouterProfile::well_behaved(),
            ipid: IpIdEngine::new(),
            rng: rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xF1E2_D3C4_B5A6_9788),
            clock: 0,
        }
    }

    /// The legacy walk: a `BTreeSet` lookup plus a `Vec` collection per
    /// hop step.
    fn walk(&mut self, flow: u64, target_hop: usize) -> Ipv4Addr {
        let entry = self.topology.hop(0);
        let mut current = if entry.len() == 1 {
            entry[0]
        } else {
            entry[self
                .hasher
                .choose(usize::MAX, Ipv4Addr::UNSPECIFIED, flow, 0, entry.len())]
        };
        for i in 0..target_hop {
            let succs = self.topology.successors(i, current);
            let succ_list: Vec<Ipv4Addr> = succs.iter().copied().collect();
            let idx = self.hasher.choose(i, current, flow, 0, succ_list.len());
            current = succ_list[idx];
        }
        current
    }

    fn handle_udp(&mut self, packet: &[u8]) -> Option<Vec<u8>> {
        let probe = parse_udp_probe(packet).ok()?;
        if probe.destination != self.topology.destination() || probe.ttl == 0 {
            return None;
        }
        let last_hop = self.topology.num_hops() - 1;
        let target_hop = usize::from(probe.ttl - 1).min(last_hop);
        let responder = self.walk(u64::from(probe.flow.value()), target_hop);

        let reached_destination = target_hop == last_hop;
        let router = self.router_of[&responder];

        let ip_id = self.ipid.sample(
            &mut self.rng,
            router.0,
            responder,
            &self.profile.ipid,
            ReplyClass::Indirect,
            probe.sequence,
            self.clock,
        )?;

        // Owned quote + message construction, as the seed code did.
        let mut quoted = packet[..28.min(packet.len())].to_vec();
        if quoted.len() > 8 {
            quoted[8] = 1;
        }
        let icmp = if reached_destination {
            IcmpMessage::DestinationUnreachable {
                code: CODE_PORT_UNREACHABLE,
                quoted,
                extensions: IcmpExtensions::default(),
            }
        } else {
            IcmpMessage::TimeExceeded {
                quoted,
                extensions: IcmpExtensions::default(),
            }
        };

        let hop_distance = (target_hop + 1) as u8;
        let reply_ttl = 255u8.saturating_sub(hop_distance);
        let icmp_bytes = icmp.emit();
        let ip = Ipv4Header::new(
            responder,
            probe.source,
            PROTO_ICMP,
            reply_ttl,
            ip_id,
            icmp_bytes.len(),
        );
        let mut reply = Vec::with_capacity(20 + icmp_bytes.len());
        reply.extend_from_slice(&ip.emit());
        reply.extend_from_slice(&icmp_bytes);
        let _ = self.distance; // kept for parity with the old struct layout
        Some(reply)
    }
}

impl PacketTransport for ReferenceNetwork {
    fn now(&self) -> u64 {
        self.clock
    }

    /// The legacy verb: always allocates the reply.
    fn send_packet(&mut self, packet: &[u8]) -> Option<Vec<u8>> {
        self.clock += 1;
        let (header, _ihl) = Ipv4Header::parse(packet).ok()?;
        match header.protocol {
            PROTO_UDP => self.handle_udp(packet),
            _ => None,
        }
    }

    /// Deliberately routed through the allocating `send_packet`, so
    /// batched callers over this transport still pay the legacy per-probe
    /// allocation — that is the point of the baseline.
    fn send_packet_into(&mut self, packet: &[u8], reply: &mut Vec<u8>) -> bool {
        match self.send_packet(packet) {
            Some(bytes) => {
                reply.extend_from_slice(&bytes);
                true
            }
            None => false,
        }
    }
}

impl BatchTransport for ReferenceNetwork {}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpt_core::prelude::*;
    use mlpt_sim::SimNetwork;
    use mlpt_topo::canonical;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

    /// The baseline must do the same *work* as the real simulator: same
    /// replies, same discovered topology, same probe counts — otherwise
    /// the benchmark comparison would be apples to oranges.
    #[test]
    fn reference_matches_sim_network() {
        for topo in [canonical::fig1_unmeshed(), canonical::fig1_meshed()] {
            let seed = 11u64;
            let mut legacy = PerProbe(TransportProber::new(
                ReferenceNetwork::new(topo.clone(), seed),
                SRC,
                topo.destination(),
            ));
            let legacy_trace = trace_mda_lite(&mut legacy, &TraceConfig::new(seed));

            let mut current =
                TransportProber::new(SimNetwork::new(topo.clone(), seed), SRC, topo.destination());
            let current_trace = trace_mda_lite(&mut current, &TraceConfig::new(seed));

            assert_eq!(legacy_trace.probes_sent, current_trace.probes_sent);
            assert_eq!(legacy_trace.to_topology(), current_trace.to_topology());
            assert_eq!(legacy.0.log().indirect, current.log().indirect);
        }
    }
}
