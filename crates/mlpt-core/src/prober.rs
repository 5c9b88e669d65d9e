//! The prober: logical probes over a byte transport.
//!
//! Tracing algorithms think in terms of "send flow f at TTL t, which
//! interface answered?" — the [`Prober`] trait. [`TransportProber`]
//! implements it over any [`PacketTransport`] by building real probe
//! datagrams and parsing real replies, so every algorithmic probe
//! round-trips through the wire substrate exactly as a real tool's
//! packets would.
//!
//! Two dispatch shapes exist. [`Prober::probe`] sends one probe
//! synchronously. [`Prober::probe_batch`] handles a whole round of probes
//! (e.g. every flow identifier a hop still owes under the stopping rule)
//! at once; `TransportProber` encodes the round into a reusable
//! [`PacketBatch`], sends it packet by packet into a reusable
//! [`ReplyBatch`], and decodes the packed replies — no per-probe
//! allocations. The default trait implementation falls back to
//! sequential `probe` calls, so any `Prober` is batch-callable. Both
//! shapes produce bit-identical observation streams on a synchronous
//! transport (same packet order, same sequence numbers, same clock
//! progression).
//!
//! Every observation (interface, IP ID, reply TTL, MPLS labels,
//! timestamp) is also recorded in a [`ProbeLog`], which is the "for free"
//! data of Sec. 4.1: the alias resolution stages start from what tracing
//! already collected.

use mlpt_wire::icmp::MplsLabelStackEntry;
use mlpt_wire::probe::{
    build_echo_probe, build_udp_probe_into, parse_reply, ProbePacket, ReplyKind, ReplyPacket,
};
use mlpt_wire::transport::{PacketBatch, PacketTransport, ReplyBatch};
use mlpt_wire::FlowId;
use std::net::Ipv4Addr;

/// ICMP echo identifier every prober stamps on direct probes ("ML"), so
/// Echo Replies can be told apart from unrelated ping traffic. Shared by
/// [`TransportProber`] and the sweep engine so both paths emit
/// bit-identical echo packets.
pub const ECHO_IDENTIFIER: u16 = 0x4D4C;

/// TTL direct (echo) probes are sent with — large enough to reach any
/// interface a trace can observe.
pub const ECHO_TTL: u8 = 64;

/// One indirect probe request: which flow at which TTL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProbeSpec {
    /// The flow identifier to send.
    pub flow: FlowId,
    /// The TTL to probe.
    pub ttl: u8,
}

impl ProbeSpec {
    /// Creates a spec.
    pub fn new(flow: FlowId, ttl: u8) -> Self {
        Self { flow, ttl }
    }
}

/// What one traceroute-style (indirect) probe observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeObservation {
    /// The flow that was probed.
    pub flow: FlowId,
    /// The TTL that was probed.
    pub ttl: u8,
    /// The interface that answered.
    pub responder: Ipv4Addr,
    /// True if the responder is the trace destination (Port Unreachable).
    pub at_destination: bool,
    /// IP ID of the reply datagram (IP-ID counter sample).
    pub ip_id: u16,
    /// TTL of the reply datagram as received.
    pub reply_ttl: u8,
    /// MPLS label stack attached to the reply, outermost first.
    pub mpls: Vec<MplsLabelStackEntry>,
    /// Transport timestamp of the reply.
    pub timestamp: u64,
}

impl ProbeObservation {
    /// Decodes a parsed reply against the probe that elicited it — the
    /// single acceptance rule shared by [`TransportProber`] and the
    /// sweep engine ([`crate::engine`]): the reply must quote the probed
    /// flow (a real tool matches replies to probes by the quoted
    /// headers), and the destination counts as reached on Port
    /// Unreachable or when the destination itself answers.
    pub fn from_reply(
        spec: ProbeSpec,
        reply: ReplyPacket,
        destination: Ipv4Addr,
        timestamp: u64,
    ) -> Option<Self> {
        if reply.probe_flow != Some(spec.flow) {
            return None;
        }
        let at_destination =
            matches!(reply.kind, ReplyKind::PortUnreachable) || reply.responder == destination;
        Some(Self {
            flow: spec.flow,
            ttl: spec.ttl,
            responder: reply.responder,
            at_destination,
            ip_id: reply.reply_ip_id,
            reply_ttl: reply.reply_ttl,
            mpls: reply.mpls_stack,
            timestamp,
        })
    }
}

/// What one ping-style (direct) probe observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectObservation {
    /// The address probed (and that answered).
    pub target: Ipv4Addr,
    /// IP ID of the echo reply.
    pub ip_id: u16,
    /// IP ID carried by the probe itself: some routers simply echo it
    /// back, which MIDAR must detect as an unusable series (Sec. 4.2).
    pub probe_ip_id: u16,
    /// TTL of the echo reply as received.
    pub reply_ttl: u8,
    /// Transport timestamp of the reply.
    pub timestamp: u64,
}

/// Logical probing interface used by all algorithms.
pub trait Prober {
    /// Sends an indirect (UDP, TTL-limited) probe.
    fn probe(&mut self, flow: FlowId, ttl: u8) -> Option<ProbeObservation>;

    /// Sends a round of indirect probes, returning one observation slot
    /// per spec, in spec order.
    ///
    /// The default shim dispatches sequentially through
    /// [`Prober::probe`], so every prober is batch-callable; transports
    /// with a vectorized path override this.
    fn probe_batch(&mut self, specs: &[ProbeSpec]) -> Vec<Option<ProbeObservation>> {
        specs.iter().map(|s| self.probe(s.flow, s.ttl)).collect()
    }

    /// Sends a direct (ICMP echo) probe to a specific interface.
    fn direct_probe(&mut self, target: Ipv4Addr) -> Option<DirectObservation>;

    /// Total probe packets sent so far (including retries and losses) —
    /// the paper's cost metric.
    fn probes_sent(&self) -> u64;

    /// Destination being traced towards.
    fn destination(&self) -> Ipv4Addr;
}

/// Everything observed through a prober, kept for alias resolution.
#[derive(Debug, Clone, Default)]
pub struct ProbeLog {
    /// All indirect observations, in probing order.
    pub indirect: Vec<ProbeObservation>,
    /// All direct observations, in probing order.
    pub direct: Vec<DirectObservation>,
}

/// A [`Prober`] over a [`PacketTransport`], building and parsing real
/// packets. Batched rounds reuse the packet/reply scratch buffers below,
/// so steady-state probing performs no heap allocations on the send path.
pub struct TransportProber<T: PacketTransport> {
    transport: T,
    source: Ipv4Addr,
    destination: Ipv4Addr,
    sequence: u16,
    echo_identifier: u16,
    retries: u8,
    probes_sent: u64,
    log: ProbeLog,
    /// Reusable encode buffer for one round of probe packets.
    scratch_packets: PacketBatch,
    /// Reusable decode buffer for one round of replies.
    scratch_replies: ReplyBatch,
    /// Reusable per-round bookkeeping (pending spec indices).
    scratch_pending: Vec<usize>,
}

impl<T: PacketTransport> TransportProber<T> {
    /// Creates a prober for one source/destination pair.
    pub fn new(transport: T, source: Ipv4Addr, destination: Ipv4Addr) -> Self {
        Self {
            transport,
            source,
            destination,
            sequence: 0,
            echo_identifier: ECHO_IDENTIFIER,
            retries: 0,
            probes_sent: 0,
            log: ProbeLog::default(),
            scratch_packets: PacketBatch::new(),
            scratch_replies: ReplyBatch::new(),
            scratch_pending: Vec::new(),
        }
    }

    /// Sets how many times an unanswered probe is retried (default 0).
    /// Retries matter only under fault injection; each retry counts as a
    /// sent probe, as it would on the wire. [`Prober::probe_batch`]
    /// retries per round (all unanswered probes re-sent together) instead
    /// of immediately per probe.
    pub fn with_retries(mut self, retries: u8) -> Self {
        self.retries = retries;
        self
    }

    /// The accumulated observation log.
    pub fn log(&self) -> &ProbeLog {
        &self.log
    }

    /// Consumes the prober, returning transport and log.
    pub fn into_parts(self) -> (T, ProbeLog) {
        (self.transport, self.log)
    }

    /// Access to the underlying transport (e.g. to advance a simulated
    /// clock between rounds).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    fn next_sequence(&mut self) -> u16 {
        self.sequence = self.sequence.wrapping_add(1);
        self.sequence
    }

    /// Decodes one reply slot against its spec; returns the observation
    /// if the reply matches the probe (shared rule:
    /// [`ProbeObservation::from_reply`]).
    fn decode_reply(
        &self,
        spec: ProbeSpec,
        reply: &[u8],
        timestamp: u64,
    ) -> Option<ProbeObservation> {
        let parsed = parse_reply(reply).ok()?;
        ProbeObservation::from_reply(spec, parsed, self.destination, timestamp)
    }
}

impl<T: PacketTransport> Prober for TransportProber<T> {
    fn probe(&mut self, flow: FlowId, ttl: u8) -> Option<ProbeObservation> {
        for _attempt in 0..=self.retries {
            let sequence = self.next_sequence();
            let mut packet_buf = std::mem::take(&mut self.scratch_packets);
            packet_buf.clear();
            packet_buf.push_with(|buf| {
                build_udp_probe_into(
                    &ProbePacket {
                        source: self.source,
                        destination: self.destination,
                        flow,
                        ttl,
                        sequence,
                    },
                    buf,
                )
            });
            self.probes_sent += 1;
            let mut reply_buf = std::mem::take(&mut self.scratch_replies);
            reply_buf.clear();
            let mut answered = false;
            reply_buf.push_with(0, |buf| {
                answered = self.transport.send_packet_into(packet_buf.get(0), buf);
                answered
            });
            let obs = if answered {
                self.decode_reply(
                    ProbeSpec::new(flow, ttl),
                    reply_buf.get(0).expect("answered slot"),
                    self.transport.now(),
                )
            } else {
                None
            };
            self.scratch_packets = packet_buf;
            self.scratch_replies = reply_buf;
            if let Some(obs) = obs {
                self.log.indirect.push(obs.clone());
                return Some(obs);
            }
        }
        None
    }

    /// Round dispatch: encodes the whole round into the reusable packet
    /// batch, sends it packet by packet, and decodes the packed replies.
    /// Unanswered probes are retried in follow-up rounds (up to the
    /// configured retry count).
    fn probe_batch(&mut self, specs: &[ProbeSpec]) -> Vec<Option<ProbeObservation>> {
        let mut results: Vec<Option<ProbeObservation>> = vec![None; specs.len()];
        let mut pending = std::mem::take(&mut self.scratch_pending);
        pending.clear();
        pending.extend(0..specs.len());

        for _attempt in 0..=self.retries {
            if pending.is_empty() {
                break;
            }
            // Encode the round.
            let mut packets = std::mem::take(&mut self.scratch_packets);
            packets.clear();
            for &i in &pending {
                let sequence = self.next_sequence();
                let spec = specs[i];
                let probe = ProbePacket {
                    source: self.source,
                    destination: self.destination,
                    flow: spec.flow,
                    ttl: spec.ttl,
                    sequence,
                };
                packets.push_with(|buf| build_udp_probe_into(&probe, buf));
            }
            self.probes_sent += pending.len() as u64;

            // Send in order, stamping each slot with the clock right
            // after its send.
            let mut replies = std::mem::take(&mut self.scratch_replies);
            replies.clear();
            for packet in packets.iter() {
                let transport = &mut self.transport;
                replies.push_with(0, |buf| transport.send_packet_into(packet, buf));
                replies.set_last_timestamp(self.transport.now());
            }

            // Decode, keeping unanswered specs for the next attempt.
            let mut write = 0usize;
            for slot in 0..pending.len() {
                let i = pending[slot];
                let obs = replies
                    .get(slot)
                    .and_then(|reply| self.decode_reply(specs[i], reply, replies.timestamp(slot)));
                match obs {
                    Some(obs) => {
                        self.log.indirect.push(obs.clone());
                        results[i] = Some(obs);
                    }
                    None => {
                        pending[write] = i;
                        write += 1;
                    }
                }
            }
            pending.truncate(write);

            self.scratch_packets = packets;
            self.scratch_replies = replies;
        }

        self.scratch_pending = pending;
        results
    }

    fn direct_probe(&mut self, target: Ipv4Addr) -> Option<DirectObservation> {
        for _attempt in 0..=self.retries {
            let sequence = self.next_sequence();
            let packet = build_echo_probe(
                self.source,
                target,
                self.echo_identifier,
                sequence,
                ECHO_TTL,
            );
            self.probes_sent += 1;
            let Some(reply) = self.transport.send_packet(&packet) else {
                continue;
            };
            let Ok(parsed) = parse_reply(&reply) else {
                continue;
            };
            if parsed.kind != ReplyKind::EchoReply
                || parsed.echo != Some((self.echo_identifier, sequence))
            {
                continue;
            }
            let obs = DirectObservation {
                target: parsed.responder,
                ip_id: parsed.reply_ip_id,
                probe_ip_id: sequence,
                reply_ttl: parsed.reply_ttl,
                timestamp: self.transport.now(),
            };
            self.log.direct.push(obs.clone());
            return Some(obs);
        }
        None
    }

    fn probes_sent(&self) -> u64 {
        self.probes_sent
    }

    fn destination(&self) -> Ipv4Addr {
        self.destination
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpt_sim::SimNetwork;
    use mlpt_topo::canonical;
    use mlpt_topo::graph::addr;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

    fn prober_over(topo: mlpt_topo::MultipathTopology, seed: u64) -> TransportProber<SimNetwork> {
        let dst = topo.destination();
        TransportProber::new(SimNetwork::new(topo, seed), SRC, dst)
    }

    #[test]
    fn probe_returns_observation() {
        let mut p = prober_over(canonical::simplest_diamond(), 1);
        let obs = p.probe(FlowId(3), 1).unwrap();
        assert_eq!(obs.responder, addr(0, 0));
        assert!(!obs.at_destination);
        assert_eq!(obs.flow, FlowId(3));
        assert_eq!(obs.ttl, 1);
        assert_eq!(p.probes_sent(), 1);
        assert_eq!(p.log().indirect.len(), 1);
    }

    #[test]
    fn destination_flagged() {
        let mut p = prober_over(canonical::simplest_diamond(), 1);
        let obs = p.probe(FlowId(3), 3).unwrap();
        assert!(obs.at_destination);
        assert_eq!(obs.responder, p.destination());
    }

    #[test]
    fn direct_probe_observation() {
        let mut p = prober_over(canonical::simplest_diamond(), 1);
        let obs = p.direct_probe(addr(1, 0)).unwrap();
        assert_eq!(obs.target, addr(1, 0));
        assert_eq!(p.log().direct.len(), 1);
    }

    #[test]
    fn retries_count_as_probes() {
        use mlpt_sim::FaultPlan;
        let topo = canonical::simplest_diamond();
        let dst = topo.destination();
        let net = SimNetwork::builder(topo)
            .faults(FaultPlan::with_loss(1.0, 0.0))
            .seed(1)
            .build();
        let mut p = TransportProber::new(net, SRC, dst).with_retries(2);
        assert!(p.probe(FlowId(0), 1).is_none());
        assert_eq!(p.probes_sent(), 3, "initial try + 2 retries");
    }

    #[test]
    fn timestamps_progress() {
        let mut p = prober_over(canonical::simplest_diamond(), 1);
        let a = p.probe(FlowId(0), 1).unwrap().timestamp;
        let b = p.probe(FlowId(1), 1).unwrap().timestamp;
        assert!(b > a);
    }

    #[test]
    fn log_accumulates_ip_ids() {
        let mut p = prober_over(canonical::simplest_diamond(), 1);
        for f in 0..8u16 {
            let _ = p.probe(FlowId(f), 2);
        }
        assert_eq!(p.log().indirect.len(), 8);
        // IP IDs were stamped by the simulator's counters.
        let ids: Vec<u16> = p.log().indirect.iter().map(|o| o.ip_id).collect();
        assert!(ids.windows(2).any(|w| w[0] != w[1]));
    }

    /// The per-probe oracle: forwards every probe to the wrapped prober
    /// but keeps the trait's default one-at-a-time `probe_batch`.
    struct PerProbe<P>(P);

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

    #[test]
    fn probe_batch_matches_sequential_exactly() {
        // The headline equivalence: batched and per-probe dispatch over
        // identical simulators yield bit-identical observations, logs and
        // probe counts.
        let topo = canonical::fig1_meshed();
        let specs: Vec<ProbeSpec> = (0..24u16)
            .flat_map(|f| (1..=4u8).map(move |ttl| ProbeSpec::new(FlowId(f), ttl)))
            .collect();

        let mut batched = prober_over(topo.clone(), 99);
        let batch_results = batched.probe_batch(&specs);

        let mut sequential = PerProbe(prober_over(topo, 99));
        let seq_results = sequential.probe_batch(&specs);

        assert_eq!(batch_results, seq_results);
        assert_eq!(batched.probes_sent(), sequential.probes_sent());
        assert_eq!(batched.log().indirect, sequential.0.log().indirect);
    }

    #[test]
    fn probe_batch_counts_losses() {
        use mlpt_sim::FaultPlan;
        let topo = canonical::simplest_diamond();
        let dst = topo.destination();
        let net = SimNetwork::builder(topo)
            .faults(FaultPlan::with_loss(1.0, 0.0))
            .seed(1)
            .build();
        let mut p = TransportProber::new(net, SRC, dst).with_retries(1);
        let specs = [ProbeSpec::new(FlowId(0), 1), ProbeSpec::new(FlowId(1), 1)];
        let results = p.probe_batch(&specs);
        assert!(results.iter().all(Option::is_none));
        // 2 specs × (1 try + 1 retry) = 4 packets on the wire.
        assert_eq!(p.probes_sent(), 4);
    }

    #[test]
    fn probe_batch_empty_is_noop() {
        let mut p = prober_over(canonical::simplest_diamond(), 1);
        assert!(p.probe_batch(&[]).is_empty());
        assert_eq!(p.probes_sent(), 0);
    }

    /// MDA-Lite through `probe_batch` on the fig1 pair (seed 11), pinned
    /// as FNV-1a-64 digests of the observation log and the trace. The
    /// digests were taken while a frozen pre-batching simulator, driven
    /// one probe at a time, still produced the identical log.
    #[test]
    fn mda_lite_observation_log_matches_golden() {
        let digests: Vec<u64> = [canonical::fig1_unmeshed(), canonical::fig1_meshed()]
            .into_iter()
            .map(|topo| {
                let mut prober = prober_over(topo, 11);
                let trace =
                    crate::mda_lite::trace_mda_lite(&mut prober, &crate::TraceConfig::new(11));
                format!("{:?}{trace:?}", prober.log().indirect)
                    .bytes()
                    .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
                        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
                    })
            })
            .collect();
        assert_eq!(
            digests,
            [0xcd11_183c_0494_0f3a, 0xc773_be95_16af_8b44],
            "digests now: {digests:#018x?}"
        );
    }
}
