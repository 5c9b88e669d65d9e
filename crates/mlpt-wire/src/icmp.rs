//! ICMPv4 messages (RFC 792) with multi-part extensions (RFC 4884) and
//! MPLS label-stack objects (RFC 4950).
//!
//! Route tracing lives on ICMP:
//!
//! * **Time Exceeded** (type 11) replies identify the router interface at
//!   each TTL, quote the offending probe (letting the tool recover its flow
//!   ID and sequence number), and — from MPLS LSRs — may carry an RFC 4884
//!   extension with the MPLS label stack, which the multilevel tracer uses
//!   for alias resolution (Sec. 4.1, "MPLS Labeling").
//! * **Destination Unreachable / Port Unreachable** (type 3 code 3) marks
//!   arrival at the destination of a UDP probe.
//! * **Echo / Echo Reply** (types 8 / 0) implement *direct probing* for the
//!   MIDAR-style comparison of Table 2 and Network Fingerprinting's
//!   ping-style probe.
//!
//! Messages are written from borrowed parts into a caller's buffer
//! ([`emit_error_into`], [`emit_echo_into`], [`emit_extensions_into`])
//! and read in place through [`IcmpView`], the one validator.

use crate::checksum::internet_checksum;
use crate::{WireError, WireResult};

/// ICMP message types used by the tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IcmpType {
    /// Type 0: Echo Reply.
    EchoReply,
    /// Type 3: Destination Unreachable (code carried separately).
    DestinationUnreachable,
    /// Type 8: Echo Request.
    EchoRequest,
    /// Type 11: Time Exceeded.
    TimeExceeded,
}

impl IcmpType {
    /// Wire value of the type field.
    pub fn wire_value(self) -> u8 {
        match self {
            IcmpType::EchoReply => 0,
            IcmpType::DestinationUnreachable => 3,
            IcmpType::EchoRequest => 8,
            IcmpType::TimeExceeded => 11,
        }
    }

    /// Parses a wire type value.
    pub fn from_wire(value: u8) -> WireResult<Self> {
        match value {
            0 => Ok(IcmpType::EchoReply),
            3 => Ok(IcmpType::DestinationUnreachable),
            8 => Ok(IcmpType::EchoRequest),
            11 => Ok(IcmpType::TimeExceeded),
            other => Err(WireError::Unsupported {
                what: "ICMP type",
                value: u16::from(other),
            }),
        }
    }
}

/// Code for Port Unreachable within Destination Unreachable.
pub const CODE_PORT_UNREACHABLE: u8 = 3;
/// Code for TTL exceeded in transit within Time Exceeded.
pub const CODE_TTL_EXCEEDED: u8 = 0;

/// One entry of an MPLS label stack (RFC 4950 §2.2 / RFC 3032).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MplsLabelStackEntry {
    /// 20-bit label value.
    pub label: u32,
    /// 3-bit traffic class ("EXP") field.
    pub exp: u8,
    /// Bottom-of-stack flag.
    pub bottom_of_stack: bool,
    /// MPLS TTL.
    pub ttl: u8,
}

impl MplsLabelStackEntry {
    /// Creates an entry, masking the label to 20 bits and exp to 3 bits.
    pub fn new(label: u32, exp: u8, bottom_of_stack: bool, ttl: u8) -> Self {
        Self {
            label: label & 0x000F_FFFF,
            exp: exp & 0x07,
            bottom_of_stack,
            ttl,
        }
    }

    /// Emits the 4-byte wire form.
    pub fn emit(&self) -> [u8; 4] {
        let word = (self.label << 12)
            | (u32::from(self.exp) << 9)
            | (u32::from(self.bottom_of_stack) << 8)
            | u32::from(self.ttl);
        word.to_be_bytes()
    }

    /// Decodes one 4-byte entry.
    fn from_word(bytes: [u8; 4]) -> Self {
        let word = u32::from_be_bytes(bytes);
        Self {
            label: word >> 12,
            exp: ((word >> 9) & 0x7) as u8,
            bottom_of_stack: (word >> 8) & 0x1 == 1,
            ttl: (word & 0xFF) as u8,
        }
    }
}

/// Validates an RFC 4884 extension structure: a 4-byte header with
/// version 2, a verifying checksum, and objects whose length fields fit.
fn validate_extensions(data: &[u8]) -> WireResult<()> {
    if data.len() < 4 {
        return Err(WireError::Truncated {
            what: "ICMP extension header",
            needed: 4,
            got: data.len(),
        });
    }
    let version = data[0] >> 4;
    if version != 2 {
        return Err(WireError::Unsupported {
            what: "ICMP extension version",
            value: u16::from(version),
        });
    }
    if internet_checksum(data) != 0 {
        return Err(WireError::BadChecksum {
            what: "ICMP extension",
        });
    }
    extension_objects(data).try_for_each(|object| object.map(drop))
}

/// Walks the objects of an RFC 4884 extension structure (after its
/// header) as `(class, c-type, payload)`. An object whose length field
/// does not fit ends the walk with an error.
fn extension_objects(data: &[u8]) -> impl Iterator<Item = WireResult<(u8, u8, &[u8])>> {
    let mut rest = data.get(4..).unwrap_or_default();
    std::iter::from_fn(move || {
        if rest.len() < 4 {
            return None;
        }
        let len = usize::from(u16::from_be_bytes([rest[0], rest[1]]));
        if len < 4 || len > rest.len() {
            rest = &[];
            return Some(Err(WireError::BadLength {
                what: "ICMP extension object",
            }));
        }
        let (object, tail) = rest.split_at(len);
        rest = tail;
        Some(Ok((object[2], object[3], &object[4..])))
    })
}

/// The MPLS label-stack entries (class 1, c-type 1 objects) of a
/// validated extension structure, outermost first. Empty for an empty
/// structure.
fn mpls_entries(data: &[u8]) -> impl Iterator<Item = MplsLabelStackEntry> + '_ {
    extension_objects(data)
        .filter_map(Result::ok)
        .filter(|&(class, ctype, _)| class == 1 && ctype == 1)
        .flat_map(|(_, _, payload)| {
            payload.chunks_exact(4).map(|entry| {
                MplsLabelStackEntry::from_word([entry[0], entry[1], entry[2], entry[3]])
            })
        })
}

/// Appends an RFC 4884 extension structure (header, then one MPLS
/// label-stack object unless the stack is empty) to a reusable buffer.
pub fn emit_extensions_into(mpls_stack: &[MplsLabelStackEntry], out: &mut Vec<u8>) {
    let start = out.len();
    // Extension header: version 2 in the top nibble, reserved zero,
    // checksum placeholder.
    out.push(2 << 4);
    out.push(0);
    out.extend_from_slice(&[0, 0]);
    if !mpls_stack.is_empty() {
        let object_len = 4 + 4 * mpls_stack.len();
        out.extend_from_slice(&(object_len as u16).to_be_bytes());
        out.push(1); // class: MPLS Label Stack
        out.push(1); // c-type: incoming stack
        for entry in mpls_stack {
            out.extend_from_slice(&entry.emit());
        }
    }
    let csum = internet_checksum(&out[start..]);
    out[start + 2..start + 4].copy_from_slice(&csum.to_be_bytes());
}

/// Minimum length to which the quoted datagram is padded when RFC 4884
/// extensions follow it.
pub const RFC4884_QUOTE_LEN: usize = 128;

/// Longest quoted datagram an RFC 4884 length field can describe: 255
/// 32-bit words.
const RFC4884_MAX_QUOTE_LEN: usize = 255 * 4;

/// A validated ICMP message, borrowed from the datagram that carries it.
///
/// [`IcmpView::parse`] is the single ICMP validator: it checks the
/// minimum length, the ICMP checksum and the type, and for error
/// messages the RFC 4884 length and the extension structure (version,
/// checksum, object lengths). The accessors then read the quote, the
/// echo fields and the MPLS entries in place, so a view allocates
/// nothing. [`crate::probe::parse_reply`] reads replies through one,
/// and the simulator reads Echo Requests through one.
#[derive(Debug, Clone, Copy)]
pub struct IcmpView<'a> {
    icmp_type: IcmpType,
    /// The whole message, header included.
    data: &'a [u8],
    /// The quoted datagram of an error message, or an echo's payload.
    body: &'a [u8],
    /// The validated RFC 4884 extension structure; empty when absent.
    extensions: &'a [u8],
}

impl<'a> IcmpView<'a> {
    /// Validates a complete ICMP message (see the type docs).
    pub fn parse(data: &'a [u8]) -> WireResult<Self> {
        if data.len() < 8 {
            return Err(WireError::Truncated {
                what: "ICMP message",
                needed: 8,
                got: data.len(),
            });
        }
        if internet_checksum(data) != 0 {
            return Err(WireError::BadChecksum { what: "ICMP" });
        }
        let icmp_type = IcmpType::from_wire(data[0])?;
        let body = &data[8..];
        let (body, extensions) = match icmp_type {
            IcmpType::TimeExceeded | IcmpType::DestinationUnreachable => {
                // RFC 4884: the quote's length in 32-bit words sits in
                // the second byte of the rest-of-header; zero means no
                // extensions follow the quote.
                let quote_len = usize::from(data[5]) * 4;
                if quote_len == 0 {
                    (body, &[][..])
                } else {
                    if quote_len > body.len() {
                        return Err(WireError::BadLength {
                            what: "RFC 4884 length",
                        });
                    }
                    let (quote, extensions) = body.split_at(quote_len);
                    if !extensions.is_empty() {
                        validate_extensions(extensions)?;
                    }
                    (quote, extensions)
                }
            }
            IcmpType::EchoRequest | IcmpType::EchoReply => (body, &[][..]),
        };
        Ok(IcmpView {
            icmp_type,
            data,
            body,
            extensions,
        })
    }

    /// The message's ICMP type.
    pub fn icmp_type(&self) -> IcmpType {
        self.icmp_type
    }

    /// The message's code field.
    pub fn code(&self) -> u8 {
        self.data[1]
    }

    /// For error messages, the quoted datagram; `None` for echo messages.
    pub fn quoted(&self) -> Option<&'a [u8]> {
        match self.icmp_type {
            IcmpType::TimeExceeded | IcmpType::DestinationUnreachable => Some(self.body),
            IcmpType::EchoRequest | IcmpType::EchoReply => None,
        }
    }

    /// For echo messages, `(identifier, sequence, payload)`; `None` for
    /// error messages.
    pub fn echo(&self) -> Option<(u16, u16, &'a [u8])> {
        match self.icmp_type {
            IcmpType::EchoRequest | IcmpType::EchoReply => Some((
                u16::from_be_bytes([self.data[4], self.data[5]]),
                u16::from_be_bytes([self.data[6], self.data[7]]),
                self.body,
            )),
            IcmpType::TimeExceeded | IcmpType::DestinationUnreachable => None,
        }
    }

    /// The MPLS label stack of an error message's extensions, outermost
    /// first; empty when none is attached.
    pub fn mpls_stack(&self) -> impl Iterator<Item = MplsLabelStackEntry> + 'a {
        mpls_entries(self.extensions)
    }
}

/// Appends a complete ICMP error message (Time Exceeded or Destination
/// Unreachable) built from borrowed parts. A nonempty `mpls_stack` pads
/// the quote to [`RFC4884_QUOTE_LEN`], cuts it to 1,020 bytes (255
/// words, the most the one-byte length field describes) and follows it
/// with an RFC 4884 extension structure.
pub fn emit_error_into(
    icmp_type: IcmpType,
    code: u8,
    quoted: &[u8],
    mpls_stack: &[MplsLabelStackEntry],
    out: &mut Vec<u8>,
) {
    debug_assert!(matches!(
        icmp_type,
        IcmpType::TimeExceeded | IcmpType::DestinationUnreachable
    ));
    let start = out.len();
    out.push(icmp_type.wire_value());
    out.push(code);
    out.extend_from_slice(&[0, 0]); // checksum placeholder
    if mpls_stack.is_empty() {
        out.extend_from_slice(&[0, 0, 0, 0]); // unused rest-of-header
        out.extend_from_slice(quoted);
    } else {
        // RFC 4884: the length field (in 32-bit words) sits in the
        // second byte of the rest-of-header for both type 3 and 11.
        let quoted = &quoted[..quoted.len().min(RFC4884_MAX_QUOTE_LEN)];
        let padded_len = quoted.len().max(RFC4884_QUOTE_LEN).div_ceil(4) * 4;
        out.push(0);
        out.push((padded_len / 4) as u8);
        out.extend_from_slice(&[0, 0]);
        out.extend_from_slice(quoted);
        let new_len = out.len() + (padded_len - quoted.len());
        out.resize(new_len, 0);
        emit_extensions_into(mpls_stack, out);
    }
    let csum = internet_checksum(&out[start..]);
    out[start + 2..start + 4].copy_from_slice(&csum.to_be_bytes());
}

/// Appends a complete ICMP echo message built from borrowed parts.
pub fn emit_echo_into(
    icmp_type: IcmpType,
    identifier: u16,
    sequence: u16,
    payload: &[u8],
    out: &mut Vec<u8>,
) {
    debug_assert!(matches!(
        icmp_type,
        IcmpType::EchoRequest | IcmpType::EchoReply
    ));
    let start = out.len();
    out.push(icmp_type.wire_value());
    out.push(0);
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(&identifier.to_be_bytes());
    out.extend_from_slice(&sequence.to_be_bytes());
    out.extend_from_slice(payload);
    let csum = internet_checksum(&out[start..]);
    out[start + 2..start + 4].copy_from_slice(&csum.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_quote() -> Vec<u8> {
        // A stand-in for "IP header + first 8 bytes" (28 bytes).
        (0u8..28).collect()
    }

    fn error(icmp_type: IcmpType, quoted: &[u8], mpls_stack: &[MplsLabelStackEntry]) -> Vec<u8> {
        let code = match icmp_type {
            IcmpType::DestinationUnreachable => CODE_PORT_UNREACHABLE,
            _ => CODE_TTL_EXCEEDED,
        };
        let mut bytes = Vec::new();
        emit_error_into(icmp_type, code, quoted, mpls_stack, &mut bytes);
        bytes
    }

    fn echo(icmp_type: IcmpType, identifier: u16, sequence: u16, payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        emit_echo_into(icmp_type, identifier, sequence, payload, &mut bytes);
        bytes
    }

    /// Recomputes the ICMP checksum after a test edits the message.
    fn fix_checksum(bytes: &mut [u8]) {
        bytes[2..4].fill(0);
        let csum = internet_checksum(bytes);
        bytes[2..4].copy_from_slice(&csum.to_be_bytes());
    }

    fn two_entry_stack() -> [MplsLabelStackEntry; 2] {
        [
            MplsLabelStackEntry::new(100, 0, false, 250),
            MplsLabelStackEntry::new(200, 1, true, 249),
        ]
    }

    #[test]
    fn time_exceeded_roundtrip_plain() {
        let bytes = error(IcmpType::TimeExceeded, &sample_quote(), &[]);
        assert_eq!(internet_checksum(&bytes), 0);
        let view = IcmpView::parse(&bytes).unwrap();
        assert_eq!(view.icmp_type(), IcmpType::TimeExceeded);
        assert_eq!(view.code(), CODE_TTL_EXCEEDED);
        assert_eq!(view.quoted(), Some(&sample_quote()[..]));
        assert_eq!(view.mpls_stack().count(), 0);
    }

    #[test]
    fn port_unreachable_roundtrip() {
        let bytes = error(IcmpType::DestinationUnreachable, &sample_quote(), &[]);
        let view = IcmpView::parse(&bytes).unwrap();
        assert_eq!(view.icmp_type(), IcmpType::DestinationUnreachable);
        assert_eq!(view.code(), CODE_PORT_UNREACHABLE);
        assert_eq!(view.quoted(), Some(&sample_quote()[..]));
    }

    #[test]
    fn echo_roundtrip() {
        for icmp_type in [IcmpType::EchoRequest, IcmpType::EchoReply] {
            let bytes = echo(icmp_type, 0x1234, 7, &[9, 9, 9]);
            let view = IcmpView::parse(&bytes).unwrap();
            assert_eq!(view.icmp_type(), icmp_type);
            assert_eq!(view.echo(), Some((0x1234, 7, &[9u8, 9, 9][..])));
        }
    }

    #[test]
    fn mpls_entry_roundtrip() {
        let e = MplsLabelStackEntry::new(0xABCDE, 5, true, 64);
        assert_eq!(MplsLabelStackEntry::from_word(e.emit()), e);
    }

    #[test]
    fn mpls_entry_masks_oversized_fields() {
        let e = MplsLabelStackEntry::new(0xFFFF_FFFF, 0xFF, false, 1);
        assert_eq!(e.label, 0x000F_FFFF);
        assert_eq!(e.exp, 7);
    }

    /// The quote comes back zero-padded to 128 bytes per RFC 4884 and,
    /// past the length field's 255 words, cut to 1,020 bytes, so the
    /// length never wraps and the extension still parses.
    #[test]
    fn time_exceeded_with_mpls_roundtrip() {
        let stack = two_entry_stack();
        for len in std::iter::once(28).chain(1016..=1100) {
            let quote: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let bytes = error(IcmpType::TimeExceeded, &quote, &stack);
            let view = IcmpView::parse(&bytes).unwrap_or_else(|e| panic!("quote of {len}: {e}"));
            let kept = len.min(RFC4884_MAX_QUOTE_LEN);
            let quoted = view.quoted().unwrap();
            let padded = kept.max(RFC4884_QUOTE_LEN).div_ceil(4) * 4;
            assert_eq!(quoted.len(), padded, "quote of {len}");
            assert_eq!(&quoted[..kept], &quote[..kept], "quote of {len}");
            assert!(quoted[kept..].iter().all(|&b| b == 0), "quote of {len}");
            assert_eq!(
                view.mpls_stack().collect::<Vec<_>>(),
                stack,
                "quote of {len}"
            );
        }
    }

    /// The view borrows the quote and the echo payload from the message
    /// bytes.
    #[test]
    fn view_reads_in_place() {
        let bytes = error(IcmpType::TimeExceeded, &sample_quote(), &two_entry_stack());
        let view = IcmpView::parse(&bytes).unwrap();
        let quoted = view.quoted().unwrap();
        assert!(std::ptr::eq(quoted, &bytes[8..8 + RFC4884_QUOTE_LEN]));
        assert_eq!(view.echo(), None);

        let bytes = echo(IcmpType::EchoReply, 9, 4, &[1, 2]);
        let view = IcmpView::parse(&bytes).unwrap();
        let (_, _, payload) = view.echo().unwrap();
        assert!(std::ptr::eq(payload, &bytes[8..]));
        assert_eq!(view.quoted(), None);
        assert_eq!(view.mpls_stack().count(), 0);
    }

    #[test]
    fn corrupt_checksum_rejected() {
        let mut bytes = echo(IcmpType::EchoReply, 1, 2, &[]);
        bytes[4] ^= 0xFF;
        assert!(matches!(
            IcmpView::parse(&bytes),
            Err(WireError::BadChecksum { .. })
        ));
    }

    #[test]
    fn extension_checksum_verified() {
        let stack = [MplsLabelStackEntry::new(7, 0, true, 255)];
        let mut bytes = error(IcmpType::TimeExceeded, &sample_quote(), &stack);
        assert!(IcmpView::parse(&bytes).is_ok());
        // Corrupt the extension, then repair the message checksum so
        // only the extension's own checksum can catch it.
        bytes[8 + RFC4884_QUOTE_LEN + 5] ^= 0x01;
        fix_checksum(&mut bytes);
        assert_eq!(
            IcmpView::parse(&bytes).unwrap_err(),
            WireError::BadChecksum {
                what: "ICMP extension"
            }
        );
    }

    #[test]
    fn unknown_type_rejected() {
        // Type 42 with valid checksum.
        let mut bytes = vec![42u8, 0, 0, 0, 0, 0, 0, 0];
        fix_checksum(&mut bytes);
        assert!(matches!(
            IcmpView::parse(&bytes),
            Err(WireError::Unsupported { .. })
        ));
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            IcmpView::parse(&[11, 0, 0]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_rfc4884_length_rejected() {
        let mut bytes = error(IcmpType::TimeExceeded, &sample_quote(), &[]);
        // Claim a quote longer than the body.
        bytes[5] = 200;
        fix_checksum(&mut bytes);
        assert!(matches!(
            IcmpView::parse(&bytes),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn empty_extension_not_emitted() {
        let bytes = error(IcmpType::TimeExceeded, &[0; 28], &[]);
        // 8 header bytes + 28 quote, no padding, no extension.
        assert_eq!(bytes.len(), 36);
        assert_eq!(bytes[5], 0, "length field must be 0 without extensions");
    }
}
