//! Complete probe packets and reply parsing — the prober's two verbs.
//!
//! A probe is a full IPv4 datagram: for *indirect probing* (traceroute
//! style) an IPv4+UDP packet whose TTL selects the hop, whose UDP source
//! port carries the [`FlowId`], and whose IP ID carries a sequence number;
//! for *direct probing* (ping style, used by fingerprinting and the
//! MIDAR-style comparison) an IPv4+ICMP Echo Request.
//!
//! A reply is a full IPv4 datagram carrying ICMP. [`parse_reply`] decodes
//! it and — for error messages — digs the original flow ID, TTL and
//! sequence number out of the quoted datagram, exactly as a real tool must.

use crate::flow::{FlowId, PARIS_DPORT};
use crate::icmp::{IcmpType, IcmpView, MplsLabelStackEntry, CODE_PORT_UNREACHABLE};
use crate::ipv4::{Ipv4Header, PROTO_ICMP, PROTO_UDP};
use crate::udp::{self, UdpHeader};
use crate::{WireError, WireResult};
use std::net::Ipv4Addr;

/// Payload carried by UDP probes. Real Paris Traceroute carries a small
/// payload it can use to balance the UDP checksum; ours is a fixed tag that
/// also makes probe packets recognisable in hex dumps.
pub const PROBE_PAYLOAD: &[u8; 4] = b"MLPT";

/// A probe, described logically. The prober encodes this into bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbePacket {
    /// Source address the probe claims.
    pub source: Ipv4Addr,
    /// Destination being traced towards.
    pub destination: Ipv4Addr,
    /// Flow identifier (varies the load-balanced path).
    pub flow: FlowId,
    /// Probe TTL (selects the hop that answers).
    pub ttl: u8,
    /// Sequence number, carried in the probe's IP ID and echoed in quotes.
    pub sequence: u16,
}

/// Builds the wire bytes of a UDP probe.
pub fn build_udp_probe(probe: &ProbePacket) -> Vec<u8> {
    let mut packet = Vec::with_capacity(20 + 8 + PROBE_PAYLOAD.len());
    build_udp_probe_into(probe, &mut packet);
    packet
}

/// Appends the wire bytes of a UDP probe to a reusable buffer — the
/// allocation-free encoder the batched probe engine drives once per
/// probe, amortizing buffer growth across whole rounds.
pub fn build_udp_probe_into(probe: &ProbePacket, out: &mut Vec<u8>) {
    let udp = UdpHeader::new(probe.flow.source_port(), PARIS_DPORT, PROBE_PAYLOAD.len());
    let ip = Ipv4Header::new(
        probe.source,
        probe.destination,
        PROTO_UDP,
        probe.ttl,
        probe.sequence,
        udp::HEADER_LEN + PROBE_PAYLOAD.len(),
    );
    ip.emit_into(out);
    udp.emit_into(probe.source, probe.destination, PROBE_PAYLOAD, out);
}

/// Builds the wire bytes of an ICMP Echo Request (direct probe).
///
/// `identifier` distinguishes concurrent tools; `sequence` orders probes.
pub fn build_echo_probe(
    source: Ipv4Addr,
    destination: Ipv4Addr,
    identifier: u16,
    sequence: u16,
    ttl: u8,
) -> Vec<u8> {
    let mut packet = Vec::with_capacity(20 + 8 + PROBE_PAYLOAD.len());
    build_echo_probe_into(source, destination, identifier, sequence, ttl, &mut packet);
    packet
}

/// Appends the wire bytes of an ICMP Echo Request to a reusable buffer —
/// the allocation-free encoder behind [`build_echo_probe`].
pub fn build_echo_probe_into(
    source: Ipv4Addr,
    destination: Ipv4Addr,
    identifier: u16,
    sequence: u16,
    ttl: u8,
    out: &mut Vec<u8>,
) {
    let icmp_len = 8 + PROBE_PAYLOAD.len();
    let ip = Ipv4Header::new(source, destination, PROTO_ICMP, ttl, sequence, icmp_len);
    ip.emit_into(out);
    crate::icmp::emit_echo_into(
        crate::icmp::IcmpType::EchoRequest,
        identifier,
        sequence,
        PROBE_PAYLOAD,
        out,
    );
}

/// Parses the wire bytes of a UDP probe back into its logical form.
/// Used by the simulator (Fakeroute reads flow ID and TTL from the header
/// fields of packets it captures) and by tests.
pub fn parse_udp_probe(data: &[u8]) -> WireResult<ProbePacket> {
    let (ip, ihl) = Ipv4Header::parse(data)?;
    if ip.protocol != PROTO_UDP {
        return Err(WireError::Unsupported {
            what: "probe protocol",
            value: u16::from(ip.protocol),
        });
    }
    let udp = UdpHeader::parse(&data[ihl..])?;
    let flow = FlowId::from_source_port(udp.source_port).ok_or(WireError::Unsupported {
        what: "probe source port",
        value: udp.source_port,
    })?;
    Ok(ProbePacket {
        source: ip.source,
        destination: ip.destination,
        flow,
        ttl: ip.ttl,
        sequence: ip.identification,
    })
}

/// The kind of reply a probe elicited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplyKind {
    /// ICMP Time Exceeded: the responding interface is an intermediate hop.
    TimeExceeded,
    /// ICMP Port Unreachable: the probe reached the destination.
    PortUnreachable,
    /// ICMP Destination Unreachable with another code.
    OtherUnreachable(u8),
    /// ICMP Echo Reply (to a direct probe).
    EchoReply,
}

/// A parsed reply with everything the tracing algorithms consume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyPacket {
    /// Interface address the reply came from (outer IP source).
    pub responder: Ipv4Addr,
    /// What the reply says happened.
    pub kind: ReplyKind,
    /// IP ID of the *reply* datagram: the responder's IP-ID counter sample
    /// used by the Monotonic Bounds Test.
    pub reply_ip_id: u16,
    /// TTL of the *reply* datagram as received: used by Network
    /// Fingerprinting to infer the responder's initial TTL.
    pub reply_ttl: u8,
    /// Flow ID recovered from the quoted probe (None for echo replies).
    pub probe_flow: Option<FlowId>,
    /// Destination of the quoted probe (None for echo replies). Together
    /// with `probe_sequence` this is the tag a concurrent sweep checks
    /// against the probe whose slot the reply fills (and `probe_flow`
    /// must be that probe's flow).
    pub probe_destination: Option<Ipv4Addr>,
    /// TTL of the probe as originally sent, recovered from the quote where
    /// possible (routers quote the datagram with TTL already expired, so
    /// this is the *sequence-correlated* value; see `probe_sequence`).
    pub quoted_ttl: Option<u8>,
    /// Sequence number recovered from the quoted probe's IP ID (None for
    /// echo replies, which echo the sequence in the ICMP header instead).
    pub probe_sequence: Option<u16>,
    /// Echo identifier/sequence for EchoReply messages. Together with
    /// [`responder`](Self::responder) (an Echo Reply comes from the
    /// pinged interface itself) this is the tag a concurrent sweep
    /// checks for direct probes — the Echo-Reply counterpart of the
    /// quoted-probe tag carried by error replies.
    pub echo: Option<(u16, u16)>,
    /// MPLS label stack attached via RFC 4884/4950, outermost first.
    pub mpls_stack: Vec<MplsLabelStackEntry>,
}

/// Parses a complete reply datagram (IPv4 + ICMP).
///
/// The ICMP part is validated by [`IcmpView`], and the quote and the
/// echo fields are read in place: a reply allocates only when it carries
/// an MPLS stack.
pub fn parse_reply(data: &[u8]) -> WireResult<ReplyPacket> {
    let (ip, ihl) = Ipv4Header::parse(data)?;
    if ip.protocol != PROTO_ICMP {
        return Err(WireError::Unsupported {
            what: "reply protocol",
            value: u16::from(ip.protocol),
        });
    }
    let icmp = IcmpView::parse(&data[ihl..])?;
    let kind = match icmp.icmp_type() {
        IcmpType::TimeExceeded => ReplyKind::TimeExceeded,
        IcmpType::DestinationUnreachable if icmp.code() == CODE_PORT_UNREACHABLE => {
            ReplyKind::PortUnreachable
        }
        IcmpType::DestinationUnreachable => ReplyKind::OtherUnreachable(icmp.code()),
        IcmpType::EchoReply => ReplyKind::EchoReply,
        IcmpType::EchoRequest => {
            return Err(WireError::Unsupported {
                what: "reply ICMP type (echo request)",
                value: 8,
            })
        }
    };
    let quote = icmp.quoted().and_then(parse_quote);
    Ok(ReplyPacket {
        responder: ip.source,
        kind,
        reply_ip_id: ip.identification,
        reply_ttl: ip.ttl,
        probe_flow: quote.as_ref().and_then(|q| q.flow),
        probe_destination: quote.as_ref().map(|q| q.destination),
        quoted_ttl: quote.as_ref().map(|q| q.ttl),
        probe_sequence: quote.as_ref().map(|q| q.sequence),
        echo: icmp
            .echo()
            .map(|(identifier, sequence, _)| (identifier, sequence)),
        mpls_stack: icmp.mpls_stack().collect(),
    })
}

/// What we can recover from a quoted probe datagram.
struct QuoteInfo {
    flow: Option<FlowId>,
    destination: Ipv4Addr,
    ttl: u8,
    sequence: u16,
}

/// Parses the quoted (possibly truncated, possibly stale-checksummed)
/// original datagram inside an ICMP error.
fn parse_quote(quoted: &[u8]) -> Option<QuoteInfo> {
    let (ip, ihl) = Ipv4Header::parse_lenient(quoted).ok()?;
    let flow = if ip.protocol == PROTO_UDP && quoted.len() >= ihl + 4 {
        // Only the first 8 bytes of payload are guaranteed; the source port
        // is in the first 2.
        let sport = u16::from_be_bytes([quoted[ihl], quoted[ihl + 1]]);
        FlowId::from_source_port(sport)
    } else {
        None
    };
    Some(QuoteInfo {
        flow,
        destination: ip.destination,
        ttl: ip.ttl,
        sequence: ip.identification,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::icmp::{emit_echo_into, emit_error_into, CODE_TTL_EXCEEDED};

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 9);
    const ROUTER: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);

    fn probe() -> ProbePacket {
        ProbePacket {
            source: SRC,
            destination: DST,
            flow: FlowId(12),
            ttl: 5,
            sequence: 777,
        }
    }

    /// An IPv4 datagram from `from` to `SRC` carrying the ICMP message
    /// `emit` writes.
    fn reply_from(from: Ipv4Addr, ttl: u8, ip_id: u16, emit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut icmp = Vec::new();
        emit(&mut icmp);
        let ip = Ipv4Header::new(from, SRC, PROTO_ICMP, ttl, ip_id, icmp.len());
        let mut packet = ip.emit().to_vec();
        packet.extend_from_slice(&icmp);
        packet
    }

    /// Helper constructing a router reply quoting the given probe bytes.
    fn make_time_exceeded(probe_bytes: &[u8], mpls: &[MplsLabelStackEntry]) -> Vec<u8> {
        // Routers quote the IP header + at least 8 bytes of payload.
        let quote = &probe_bytes[..28.min(probe_bytes.len())];
        reply_from(ROUTER, 61, 4242, |buf| {
            emit_error_into(IcmpType::TimeExceeded, CODE_TTL_EXCEEDED, quote, mpls, buf);
        })
    }

    /// The responder's side of an echo exchange: the fields of the Echo
    /// Request `request` carries, echoed back in an Echo Reply.
    fn echo_reply_to(request: &[u8], ttl: u8, ip_id: u16) -> Vec<u8> {
        let (ip, ihl) = Ipv4Header::parse(request).unwrap();
        assert_eq!(ip.protocol, PROTO_ICMP);
        let view = IcmpView::parse(&request[ihl..]).unwrap();
        assert_eq!(view.icmp_type(), IcmpType::EchoRequest);
        let (identifier, sequence, payload) = view.echo().unwrap();
        reply_from(ROUTER, ttl, ip_id, |buf| {
            emit_echo_into(IcmpType::EchoReply, identifier, sequence, payload, buf);
        })
    }

    #[test]
    fn udp_probe_roundtrip() {
        let p = probe();
        let bytes = build_udp_probe(&p);
        let parsed = parse_udp_probe(&bytes).unwrap();
        assert_eq!(parsed, p);
    }

    #[test]
    fn udp_probe_checksum_valid() {
        let bytes = build_udp_probe(&probe());
        assert!(UdpHeader::verify_checksum(SRC, DST, &bytes[20..]));
    }

    #[test]
    fn time_exceeded_reply_recovers_probe_fields() {
        let p = probe();
        let probe_bytes = build_udp_probe(&p);
        let reply_bytes = make_time_exceeded(&probe_bytes, &[]);
        let reply = parse_reply(&reply_bytes).unwrap();
        assert_eq!(reply.responder, ROUTER);
        assert_eq!(reply.kind, ReplyKind::TimeExceeded);
        assert_eq!(reply.probe_flow, Some(FlowId(12)));
        assert_eq!(reply.probe_destination, Some(DST), "demux tag recovered");
        assert_eq!(reply.probe_sequence, Some(777));
        assert_eq!(reply.reply_ip_id, 4242);
        assert_eq!(reply.reply_ttl, 61);
        assert!(reply.mpls_stack.is_empty());
    }

    #[test]
    fn reply_with_mpls_stack() {
        let p = probe();
        let probe_bytes = build_udp_probe(&p);
        let stack = vec![MplsLabelStackEntry::new(16001, 0, true, 254)];
        let reply_bytes = make_time_exceeded(&probe_bytes, &stack);
        let reply = parse_reply(&reply_bytes).unwrap();
        assert_eq!(reply.mpls_stack, stack);
        // Flow recovery still works through the padded quote.
        assert_eq!(reply.probe_flow, Some(FlowId(12)));
    }

    #[test]
    fn port_unreachable_reply() {
        let p = probe();
        let probe_bytes = build_udp_probe(&p);
        let packet = reply_from(DST, 60, 1, |buf| {
            let quote = &probe_bytes[..28];
            emit_error_into(
                IcmpType::DestinationUnreachable,
                CODE_PORT_UNREACHABLE,
                quote,
                &[],
                buf,
            );
        });

        let reply = parse_reply(&packet).unwrap();
        assert_eq!(reply.kind, ReplyKind::PortUnreachable);
        assert_eq!(reply.responder, DST);
        assert_eq!(reply.probe_flow, Some(FlowId(12)));
    }

    #[test]
    fn echo_probe_and_reply() {
        let req = build_echo_probe(SRC, ROUTER, 0xCAFE, 3, 64);
        let packet = echo_reply_to(&req, 61, 999);

        let reply = parse_reply(&packet).unwrap();
        assert_eq!(reply.kind, ReplyKind::EchoReply);
        assert_eq!(reply.echo, Some((0xCAFE, 3)));
        assert_eq!(reply.reply_ip_id, 999);
    }

    /// The Echo-Reply demux contract: the identifier/sequence stamped on
    /// an allocation-free-encoded request survive the responder's echo
    /// untouched, and the reply's source is the pinged interface — so
    /// (responder, sequence) uniquely tags the probe for a concurrent
    /// sweep, with the identifier telling foreign ping traffic apart.
    #[test]
    fn echo_reply_tag_round_trips_for_demux() {
        let mut req = Vec::new();
        build_echo_probe_into(SRC, ROUTER, 0x4D4C, 0xBEEF, 64, &mut req);
        assert_eq!(req, build_echo_probe(SRC, ROUTER, 0x4D4C, 0xBEEF, 64));
        // The probe's IP ID also carries the sequence (fingerprinting
        // needs it to detect id-echoing routers).
        assert_eq!(Ipv4Header::parse(&req).unwrap().0.identification, 0xBEEF);
        let packet = echo_reply_to(&req, 60, 7);

        let parsed = parse_reply(&packet).unwrap();
        assert_eq!(parsed.kind, ReplyKind::EchoReply);
        assert_eq!(parsed.responder, ROUTER, "tag half 1: the pinged interface");
        assert_eq!(
            parsed.echo,
            Some((0x4D4C, 0xBEEF)),
            "tag half 2: echoed seq"
        );
        // Echo replies carry no quote: the UDP-style tags stay empty.
        assert_eq!(parsed.probe_destination, None);
        assert_eq!(parsed.probe_sequence, None);
        assert_eq!(parsed.probe_flow, None);
    }

    #[test]
    fn non_icmp_reply_rejected() {
        let bytes = build_udp_probe(&probe());
        assert!(matches!(
            parse_reply(&bytes),
            Err(WireError::Unsupported { .. })
        ));
    }

    #[test]
    fn quote_with_stale_checksum_still_parses() {
        // Simulate a router that decremented TTL without fixing the quoted
        // header checksum.
        let p = probe();
        let mut probe_bytes = build_udp_probe(&p);
        probe_bytes[8] = 0; // TTL expired at the router
        let reply_bytes = make_time_exceeded(&probe_bytes, &[]);
        let reply = parse_reply(&reply_bytes).unwrap();
        assert_eq!(reply.probe_flow, Some(FlowId(12)));
        assert_eq!(reply.quoted_ttl, Some(0));
    }
}
