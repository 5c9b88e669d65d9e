//! Property tests for the wire substrate: round-trips and checksum
//! invariants over the whole field space.

use mlpt_wire::checksum::internet_checksum;
use mlpt_wire::icmp::{
    emit_error_into, IcmpType, IcmpView, MplsLabelStackEntry, CODE_TTL_EXCEEDED,
};
use mlpt_wire::ipv4::{Ipv4Header, PROTO_UDP};
use mlpt_wire::probe::{build_udp_probe, parse_reply, parse_udp_probe, ProbePacket};
use mlpt_wire::udp::UdpHeader;
use mlpt_wire::FlowId;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    (1u8..=254, any::<u8>(), any::<u8>(), 1u8..=254)
        .prop_map(|(a, b, c, d)| Ipv4Addr::new(a, b, c, d))
}

proptest! {
    #[test]
    fn ipv4_header_roundtrip(
        src in arb_addr(),
        dst in arb_addr(),
        ttl in 1u8..=255,
        ident in any::<u16>(),
        payload_len in 0usize..1400,
    ) {
        let h = Ipv4Header::new(src, dst, PROTO_UDP, ttl, ident, payload_len);
        let bytes = h.emit();
        let (parsed, len) = Ipv4Header::parse(&bytes).unwrap();
        prop_assert_eq!(len, 20);
        prop_assert_eq!(parsed, h);
        // Emitted checksum always verifies.
        prop_assert_eq!(internet_checksum(&bytes), 0);
    }

    #[test]
    fn ipv4_single_bit_flip_detected_or_benign(
        src in arb_addr(),
        dst in arb_addr(),
        ttl in 1u8..=255,
        ident in any::<u16>(),
        byte in 0usize..20,
        bit in 0u8..8,
    ) {
        let h = Ipv4Header::new(src, dst, PROTO_UDP, ttl, ident, 8);
        let mut bytes = h.emit();
        bytes[byte] ^= 1 << bit;
        if let Ok((parsed, _)) = Ipv4Header::parse(&bytes) {
            // The Internet checksum cannot produce a false "ok" for any
            // single-bit flip.
            prop_assert_eq!(parsed, h);
        }
    }

    #[test]
    fn udp_emit_always_verifies(
        src in arb_addr(),
        dst in arb_addr(),
        sport in 1u16..=u16::MAX,
        dport in 1u16..=u16::MAX,
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let h = UdpHeader::new(sport, dport, payload.len());
        let bytes = h.emit(src, dst, &payload);
        prop_assert!(UdpHeader::verify_checksum(src, dst, &bytes));
        let parsed = UdpHeader::parse(&bytes).unwrap();
        prop_assert_eq!(parsed.source_port, sport);
        prop_assert_eq!(parsed.destination_port, dport);
        prop_assert_eq!(parsed.length as usize, 8 + payload.len());
    }

    #[test]
    fn flow_id_sport_bijection(k in any::<u16>()) {
        let flow = FlowId(k);
        prop_assert_eq!(FlowId::from_source_port(flow.source_port()), Some(flow));
    }

    #[test]
    fn mpls_entry_roundtrip(label in 0u32..(1 << 20), exp in 0u8..8, s in any::<bool>(), ttl in any::<u8>()) {
        let e = MplsLabelStackEntry::new(label, exp, s, ttl);
        let mut bytes = Vec::new();
        emit_error_into(IcmpType::TimeExceeded, CODE_TTL_EXCEEDED, &[0; 28], &[e], &mut bytes);
        let parsed: Vec<_> = IcmpView::parse(&bytes).unwrap().mpls_stack().collect();
        prop_assert_eq!(parsed, vec![e]);
    }

    #[test]
    fn probe_roundtrip(
        src in arb_addr(),
        dst in arb_addr(),
        flow in any::<u16>(),
        ttl in 1u8..=64,
        seq in any::<u16>(),
    ) {
        let p = ProbePacket { source: src, destination: dst, flow: FlowId(flow), ttl, sequence: seq };
        let bytes = build_udp_probe(&p);
        let parsed = parse_udp_probe(&bytes).unwrap();
        prop_assert_eq!(parsed, p);
    }

    #[test]
    fn full_reply_path_recovers_probe(
        src in arb_addr(),
        dst in arb_addr(),
        router in arb_addr(),
        flow in any::<u16>(),
        ttl in 1u8..=64,
        seq in any::<u16>(),
        reply_id in any::<u16>(),
        reply_ttl in 1u8..=255,
        labels in proptest::collection::vec((0u32..(1<<20), 0u8..8, any::<u8>()), 0..4),
    ) {
        // End-to-end: build probe bytes, have a "router" quote them into a
        // Time Exceeded with optional MPLS stack, parse the reply.
        let p = ProbePacket { source: src, destination: dst, flow: FlowId(flow), ttl, sequence: seq };
        let probe_bytes = build_udp_probe(&p);

        let n = labels.len();
        let stack: Vec<MplsLabelStackEntry> = labels
            .into_iter()
            .enumerate()
            .map(|(i, (l, e, t))| MplsLabelStackEntry::new(l, e, i + 1 == n, t))
            .collect();
        let mut icmp_bytes = Vec::new();
        emit_error_into(IcmpType::TimeExceeded, CODE_TTL_EXCEEDED, &probe_bytes[..28], &stack, &mut icmp_bytes);
        let ip = Ipv4Header::new(router, src, 1, reply_ttl, reply_id, icmp_bytes.len());
        let mut packet = Vec::new();
        packet.extend_from_slice(&ip.emit());
        packet.extend_from_slice(&icmp_bytes);

        let reply = parse_reply(&packet).unwrap();
        prop_assert_eq!(reply.responder, router);
        prop_assert_eq!(reply.probe_flow, Some(FlowId(flow)));
        prop_assert_eq!(reply.probe_sequence, Some(seq));
        prop_assert_eq!(reply.reply_ip_id, reply_id);
        prop_assert_eq!(reply.reply_ttl, reply_ttl);
        prop_assert_eq!(reply.mpls_stack, stack);
    }

    #[test]
    fn checksum_order_sensitivity(words in proptest::collection::vec(any::<u16>(), 1..50)) {
        // One's-complement addition is commutative: permuting 16-bit words
        // must not change the checksum. (This is why incremental updates
        // like TTL decrement can be patched in-place by routers.)
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
        let mut reversed_words = words.clone();
        reversed_words.reverse();
        let rev_bytes: Vec<u8> = reversed_words.iter().flat_map(|w| w.to_be_bytes()).collect();
        prop_assert_eq!(internet_checksum(&bytes), internet_checksum(&rev_bytes));
    }
}
