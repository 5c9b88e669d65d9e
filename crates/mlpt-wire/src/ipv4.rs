//! The IPv4 header (RFC 791).
//!
//! Probes and replies in this workspace are plain 20-byte-header IPv4
//! datagrams. The fields the tracing algorithms care about are:
//!
//! * `ttl` — the probe's hop budget, which determines which router answers;
//! * `identification` — Paris Traceroute uses the IP ID of the *probe* to
//!   carry a sequence number (it is echoed back inside the ICMP quote), and
//!   reads the IP ID of *replies* as the router's IP-ID counter for the
//!   Monotonic Bounds Test;
//! * `protocol`, `source`, `destination` — three of the five flow-ID fields.
//!
//! Options are accepted on parse (skipped via IHL) but never emitted.

use crate::checksum::internet_checksum;
use crate::{WireError, WireResult};
use std::net::Ipv4Addr;

/// Protocol number for ICMP.
pub const PROTO_ICMP: u8 = 1;
/// Protocol number for UDP.
pub const PROTO_UDP: u8 = 17;

/// Length of a minimal (option-less) IPv4 header.
pub const MIN_HEADER_LEN: usize = 20;

/// A parsed/buildable IPv4 header. Fields not meaningful to route tracing
/// (DSCP/ECN, fragmentation) are carried but default to zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Differentiated services + ECN byte.
    pub dscp_ecn: u8,
    /// Total datagram length (header + payload) in bytes.
    pub total_length: u16,
    /// Identification field (probe sequence number / reply IP-ID counter).
    pub identification: u16,
    /// Flags (3 bits) and fragment offset (13 bits), packed as on the wire.
    pub flags_fragment: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol (`PROTO_UDP`, `PROTO_ICMP`, ...).
    pub protocol: u8,
    /// Source address.
    pub source: Ipv4Addr,
    /// Destination address.
    pub destination: Ipv4Addr,
}

impl Ipv4Header {
    /// Creates a header for a datagram carrying `payload_len` bytes of the
    /// given protocol. Flags default to Don't Fragment, as Paris Traceroute
    /// probes set it to keep the flow ID stable across paths.
    pub fn new(
        source: Ipv4Addr,
        destination: Ipv4Addr,
        protocol: u8,
        ttl: u8,
        identification: u16,
        payload_len: usize,
    ) -> Self {
        Self {
            dscp_ecn: 0,
            total_length: (MIN_HEADER_LEN + payload_len) as u16,
            identification,
            flags_fragment: 0x4000, // DF
            ttl,
            protocol,
            source,
            destination,
        }
    }

    /// Payload length implied by `total_length`.
    pub fn payload_len(&self) -> usize {
        (self.total_length as usize).saturating_sub(MIN_HEADER_LEN)
    }

    /// Emits the 20-byte header with a correct header checksum.
    pub fn emit(&self) -> [u8; MIN_HEADER_LEN] {
        let mut buf = [0u8; MIN_HEADER_LEN];
        buf[0] = 0x45; // version 4, IHL 5
        buf[1] = self.dscp_ecn;
        buf[2..4].copy_from_slice(&self.total_length.to_be_bytes());
        buf[4..6].copy_from_slice(&self.identification.to_be_bytes());
        buf[6..8].copy_from_slice(&self.flags_fragment.to_be_bytes());
        buf[8] = self.ttl;
        buf[9] = self.protocol;
        // checksum at [10..12] computed over header with zero checksum
        buf[12..16].copy_from_slice(&self.source.octets());
        buf[16..20].copy_from_slice(&self.destination.octets());
        let csum = internet_checksum(&buf);
        buf[10..12].copy_from_slice(&csum.to_be_bytes());
        buf
    }

    /// Appends the 20-byte header to a reusable buffer — the
    /// allocation-free path used by batched probe building.
    pub fn emit_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.emit());
    }

    /// Parses a header from the front of `data`, verifying version and
    /// header checksum. Returns the header and its length in bytes (IHL×4),
    /// so callers can locate the payload even when options are present.
    pub fn parse(data: &[u8]) -> WireResult<(Self, usize)> {
        let (header, ihl) = Self::decode(data, "IPv4 header")?;
        if data.len() < ihl {
            return Err(WireError::Truncated {
                what: "IPv4 header (options)",
                needed: ihl,
                got: data.len(),
            });
        }
        if internet_checksum(&data[..ihl]) != 0 {
            return Err(WireError::BadChecksum {
                what: "IPv4 header",
            });
        }
        Ok((header, ihl))
    }

    /// Parses without verifying the checksum. ICMP error messages quote the
    /// offending datagram's header as the *router* saw it — with a
    /// decremented TTL the checksum may have been recomputed or left stale
    /// by sloppy implementations, so quotes are parsed leniently.
    pub fn parse_lenient(data: &[u8]) -> WireResult<(Self, usize)> {
        let (header, ihl) = Self::decode(data, "quoted IPv4 header")?;
        if data.len() < ihl {
            return Err(WireError::BadLength { what: "IPv4 IHL" });
        }
        Ok((header, ihl))
    }

    /// Decodes the 20 fixed header bytes at the front of `data` after
    /// checking their length (`what` names the header if they are
    /// short), the version and the IHL's range. Returns the header and
    /// the IHL in bytes, which `data` may not cover.
    fn decode(data: &[u8], what: &'static str) -> WireResult<(Self, usize)> {
        if data.len() < MIN_HEADER_LEN {
            return Err(WireError::Truncated {
                what,
                needed: MIN_HEADER_LEN,
                got: data.len(),
            });
        }
        let version = data[0] >> 4;
        if version != 4 {
            return Err(WireError::Unsupported {
                what: "IP version",
                value: u16::from(version),
            });
        }
        let ihl = usize::from(data[0] & 0x0F) * 4;
        if !(MIN_HEADER_LEN..=60).contains(&ihl) {
            return Err(WireError::BadLength { what: "IPv4 IHL" });
        }
        let header = Self {
            dscp_ecn: data[1],
            total_length: u16::from_be_bytes([data[2], data[3]]),
            identification: u16::from_be_bytes([data[4], data[5]]),
            flags_fragment: u16::from_be_bytes([data[6], data[7]]),
            ttl: data[8],
            protocol: data[9],
            source: Ipv4Addr::new(data[12], data[13], data[14], data[15]),
            destination: Ipv4Addr::new(data[16], data[17], data[18], data[19]),
        };
        Ok((header, ihl))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Header {
        Ipv4Header::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(192, 0, 2, 7),
            PROTO_UDP,
            12,
            0xBEEF,
            8,
        )
    }

    #[test]
    fn roundtrip() {
        let h = sample();
        let bytes = h.emit();
        let (parsed, len) = Ipv4Header::parse(&bytes).unwrap();
        assert_eq!(len, MIN_HEADER_LEN);
        assert_eq!(parsed, h);
    }

    #[test]
    fn checksum_is_valid_on_emit() {
        let bytes = sample().emit();
        assert_eq!(internet_checksum(&bytes), 0);
    }

    #[test]
    fn corrupt_checksum_rejected() {
        let mut bytes = sample().emit();
        bytes[10] ^= 0xFF;
        assert!(matches!(
            Ipv4Header::parse(&bytes),
            Err(WireError::BadChecksum { .. })
        ));
        // Lenient parse accepts it (quoted header case).
        assert!(Ipv4Header::parse_lenient(&bytes).is_ok());
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = sample().emit();
        bytes[0] = 0x65; // version 6
        assert!(matches!(
            Ipv4Header::parse(&bytes),
            Err(WireError::Unsupported { .. })
        ));
    }

    #[test]
    fn truncated_rejected() {
        let bytes = sample().emit();
        assert!(matches!(
            Ipv4Header::parse(&bytes[..10]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn total_length_and_payload() {
        let h = sample();
        assert_eq!(h.total_length, 28);
        assert_eq!(h.payload_len(), 8);
    }

    #[test]
    fn df_flag_set() {
        let h = sample();
        assert_eq!(h.flags_fragment & 0x4000, 0x4000);
    }

    #[test]
    fn parse_with_options() {
        // Build a 24-byte header (IHL=6) by hand: base + 4 option bytes.
        let h = sample();
        let base = h.emit();
        let mut buf = Vec::from(&base[..]);
        buf[0] = 0x46; // IHL 6
        buf.splice(20..20, [1u8, 1, 1, 1]); // NOP options
                                            // Fix the checksum over the widened header.
        buf[10] = 0;
        buf[11] = 0;
        let csum = internet_checksum(&buf[..24]);
        buf[10..12].copy_from_slice(&csum.to_be_bytes());
        let (parsed, len) = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(len, 24);
        assert_eq!(parsed.source, h.source);
    }

    /// Both parsers share every check but the checksum; the strict one
    /// reports short options as truncation, the lenient one as a bad IHL.
    #[test]
    fn errors_name_the_failed_check() {
        let bytes = sample().emit();
        let with = |byte0: u8| {
            let mut edited = bytes;
            edited[0] = byte0;
            edited
        };
        let ihl = WireError::BadLength { what: "IPv4 IHL" };
        let version = WireError::Unsupported {
            what: "IP version",
            value: 6,
        };
        let short = |what| WireError::Truncated {
            what,
            needed: MIN_HEADER_LEN,
            got: 10,
        };
        let cases = [
            (
                &bytes[..10],
                short("IPv4 header"),
                short("quoted IPv4 header"),
            ),
            (&with(0x65)[..], version.clone(), version),
            (&with(0x44)[..], ihl.clone(), ihl.clone()),
            (
                &with(0x46)[..],
                WireError::Truncated {
                    what: "IPv4 header (options)",
                    needed: 24,
                    got: MIN_HEADER_LEN,
                },
                ihl,
            ),
        ];
        for (data, strict, lenient) in cases {
            assert_eq!(Ipv4Header::parse(data).unwrap_err(), strict);
            assert_eq!(Ipv4Header::parse_lenient(data).unwrap_err(), lenient);
        }
        let mut stale = bytes;
        stale[8] = 1;
        assert_eq!(
            Ipv4Header::parse(&stale).unwrap_err(),
            WireError::BadChecksum {
                what: "IPv4 header"
            }
        );
        assert_eq!(Ipv4Header::parse_lenient(&stale).unwrap().0.ttl, 1);
    }

    #[test]
    fn bad_ihl_rejected() {
        let mut bytes = sample().emit();
        bytes[0] = 0x44; // IHL 4 (< 5): invalid
        assert!(matches!(
            Ipv4Header::parse(&bytes),
            Err(WireError::BadLength { .. })
        ));
    }
}
