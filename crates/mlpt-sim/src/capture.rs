//! Packet capture: a pcap-format view of everything crossing a transport.
//!
//! Fakeroute's value is observability; this module adds the classic
//! `--pcap` affordance: [`CapturingTransport`] wraps any
//! [`PacketTransport`], records every probe and reply with its virtual
//! timestamp, and serialises the capture as a standard little-endian
//! pcap file (LINKTYPE_RAW 101: packets begin at the IPv4 header) that
//! Wireshark or tcpdump can open. It is also a [`SplitTransport`], so
//! the sweep engine (`mlpt_core::engine::SweepEngine`) can drive a trace
//! through it.

use mlpt_wire::transport::{PacketBatch, PacketTransport, ReplyBatch, SplitTransport};

/// Direction of a captured packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Tool → network (a probe).
    Probe,
    /// Network → tool (a reply).
    Reply,
}

/// One captured packet.
#[derive(Debug, Clone)]
pub struct CapturedPacket {
    /// Virtual transport time at capture.
    pub timestamp: u64,
    /// Probe or reply.
    pub direction: Direction,
    /// The raw datagram bytes.
    pub bytes: Vec<u8>,
}

/// A transport wrapper that records all traffic. As a
/// [`SplitTransport`] it serializes the inner transport's crossings,
/// exchanging one probe at a time (see the impl), which suits the
/// single-destination `SimNetwork` it wraps for `mlpt trace --pcap`.
pub struct CapturingTransport<T: PacketTransport> {
    inner: T,
    packets: Vec<CapturedPacket>,
    /// Replies of the batch most recently sent, awaiting `recv_replies`.
    replies: ReplyBatch,
}

impl<T: PacketTransport> CapturingTransport<T> {
    /// Wraps a transport.
    pub fn new(inner: T) -> Self {
        Self {
            inner,
            packets: Vec::new(),
            replies: ReplyBatch::new(),
        }
    }

    /// The capture so far.
    pub fn packets(&self) -> &[CapturedPacket] {
        &self.packets
    }

    /// Consumes the wrapper, returning the transport and the capture.
    pub fn into_parts(self) -> (T, Vec<CapturedPacket>) {
        (self.inner, self.packets)
    }

    /// Serialises the capture as a pcap file body (magic, header, records).
    ///
    /// Virtual ticks are mapped to microseconds, so inter-packet spacing
    /// is visible in analysis tools.
    pub fn to_pcap(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.packets.len() * 64);
        // Global header: magic (usec), version 2.4, zone 0, sigfigs 0,
        // snaplen 65535, network = LINKTYPE_RAW (101).
        out.extend_from_slice(&0xA1B2_C3D4u32.to_le_bytes());
        out.extend_from_slice(&2u16.to_le_bytes());
        out.extend_from_slice(&4u16.to_le_bytes());
        out.extend_from_slice(&0i32.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&65_535u32.to_le_bytes());
        out.extend_from_slice(&101u32.to_le_bytes());
        for p in &self.packets {
            let seconds = (p.timestamp / 1_000_000) as u32;
            let micros = (p.timestamp % 1_000_000) as u32;
            out.extend_from_slice(&seconds.to_le_bytes());
            out.extend_from_slice(&micros.to_le_bytes());
            out.extend_from_slice(&(p.bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(&(p.bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(&p.bytes);
        }
        out
    }

    /// Writes the capture to a file.
    pub fn write_pcap(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_pcap())
    }

    /// Capture statistics: (probes, replies).
    pub fn counts(&self) -> (usize, usize) {
        let probes = self
            .packets
            .iter()
            .filter(|p| p.direction == Direction::Probe)
            .count();
        (probes, self.packets.len() - probes)
    }
}

impl<T: PacketTransport> PacketTransport for CapturingTransport<T> {
    fn send_packet(&mut self, packet: &[u8]) -> Option<Vec<u8>> {
        let mut reply = Vec::new();
        if self.send_packet_into(packet, &mut reply) {
            Some(reply)
        } else {
            None
        }
    }

    fn send_packet_into(&mut self, packet: &[u8], reply: &mut Vec<u8>) -> bool {
        self.packets.push(CapturedPacket {
            timestamp: self.inner.now(),
            direction: Direction::Probe,
            bytes: packet.to_vec(),
        });
        let mark = reply.len();
        let answered = self.inner.send_packet_into(packet, reply);
        if answered {
            self.packets.push(CapturedPacket {
                timestamp: self.inner.now(),
                direction: Direction::Reply,
                bytes: reply[mark..].to_vec(),
            });
        }
        answered
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }
}

/// Serializes the inner transport's crossings: `send_probes` exchanges
/// each probe of the batch with the inner transport on its own, through
/// [`PacketTransport::send_packet_into`], so the capture lists every
/// probe next to its reply in send order, exactly as a one-probe-at-a-time
/// caller would have produced it. The exchange is synchronous: a reply
/// arrives at its probe's send tick, within any deadline, and an
/// unanswered slot resolves at its deadline.
impl<T: PacketTransport> SplitTransport for CapturingTransport<T> {
    fn send_probes(&mut self, probes: &PacketBatch, timeouts: &[u64]) {
        debug_assert_eq!(probes.len(), timeouts.len(), "one timeout per probe");
        let mut replies = std::mem::take(&mut self.replies);
        replies.clear();
        for (packet, &timeout) in probes.iter().zip(timeouts) {
            let mut answered = false;
            replies.push_with(0, |buf| {
                answered = self.send_packet_into(packet, buf);
                answered
            });
            let sent = self.inner.now();
            replies.set_last_timestamp(if answered {
                sent
            } else {
                sent.saturating_add(timeout)
            });
        }
        self.replies = replies;
    }

    fn recv_replies(&mut self, replies: &mut ReplyBatch) {
        std::mem::swap(replies, &mut self.replies);
        self.replies.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::SimNetwork;
    use mlpt_topo::canonical;
    use mlpt_wire::probe::{build_udp_probe, ProbePacket};
    use mlpt_wire::FlowId;
    use std::net::Ipv4Addr;

    fn capture_some() -> CapturingTransport<SimNetwork> {
        let topo = canonical::simplest_diamond();
        let dst = topo.destination();
        let mut cap = CapturingTransport::new(SimNetwork::new(topo, 1));
        for flow in 0..4u16 {
            let probe = build_udp_probe(&ProbePacket {
                source: Ipv4Addr::new(192, 0, 2, 1),
                destination: dst,
                flow: FlowId(flow),
                ttl: 2,
                sequence: flow,
            });
            let _ = cap.send_packet(&probe);
        }
        cap
    }

    #[test]
    fn records_probes_and_replies() {
        let cap = capture_some();
        let (probes, replies) = cap.counts();
        assert_eq!(probes, 4);
        assert_eq!(replies, 4);
        assert_eq!(cap.packets().len(), 8);
        // Alternating directions on a lossless network.
        for pair in cap.packets().chunks(2) {
            assert_eq!(pair[0].direction, Direction::Probe);
            assert_eq!(pair[1].direction, Direction::Reply);
        }
    }

    #[test]
    fn pcap_structure_valid() {
        let cap = capture_some();
        let pcap = cap.to_pcap();
        // Magic + version.
        assert_eq!(&pcap[0..4], &0xA1B2_C3D4u32.to_le_bytes());
        assert_eq!(u16::from_le_bytes([pcap[4], pcap[5]]), 2);
        assert_eq!(
            u32::from_le_bytes([pcap[20], pcap[21], pcap[22], pcap[23]]),
            101
        );
        // Walk the records: lengths must be consistent and IPv4 headers
        // must start each packet.
        let mut offset = 24;
        let mut records = 0;
        while offset < pcap.len() {
            let incl = u32::from_le_bytes([
                pcap[offset + 8],
                pcap[offset + 9],
                pcap[offset + 10],
                pcap[offset + 11],
            ]) as usize;
            let packet = &pcap[offset + 16..offset + 16 + incl];
            assert_eq!(packet[0] >> 4, 4, "record {records} not IPv4");
            offset += 16 + incl;
            records += 1;
        }
        assert_eq!(records, 8);
        assert_eq!(offset, pcap.len());
    }

    #[test]
    fn timestamps_monotone() {
        let cap = capture_some();
        let stamps: Vec<u64> = cap.packets().iter().map(|p| p.timestamp).collect();
        assert!(stamps.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn write_pcap_roundtrip() {
        let cap = capture_some();
        let dir = std::env::temp_dir().join("mlpt-test-capture.pcap");
        cap.write_pcap(&dir).unwrap();
        let bytes = std::fs::read(&dir).unwrap();
        assert_eq!(bytes, cap.to_pcap());
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn unanswered_probe_recorded_alone() {
        use crate::faults::FaultPlan;
        let topo = canonical::simplest_diamond();
        let dst = topo.destination();
        let net = SimNetwork::builder(topo)
            .faults(FaultPlan::with_loss(1.0, 0.0))
            .seed(1)
            .build();
        let mut cap = CapturingTransport::new(net);
        let probe = build_udp_probe(&ProbePacket {
            source: Ipv4Addr::new(192, 0, 2, 1),
            destination: dst,
            flow: FlowId(1),
            ttl: 1,
            sequence: 1,
        });
        assert!(cap.send_packet(&probe).is_none());
        let (probes, replies) = cap.counts();
        assert_eq!((probes, replies), (1, 0));
    }
}
