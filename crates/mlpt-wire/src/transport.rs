//! The byte-level transport boundary.
//!
//! Tracing algorithms are written against [`PacketTransport`]: write a
//! complete IPv4 probe datagram, receive the complete IPv4 reply datagram
//! or `None` (loss, rate limiting, unresponsive target — the synchronous
//! analogue of a raw-socket timeout). The Fakeroute simulator implements
//! this trait in-process; a raw-socket implementation would carry the same
//! algorithms onto a real network, which is the sans-IO design goal.
//!
//! Two dispatch shapes exist:
//!
//! * the classic one-probe verb [`PacketTransport::send_packet`], plus its
//!   allocation-free variant [`PacketTransport::send_packet_into`] that
//!   writes the reply into a caller-owned buffer;
//! * the split verbs of [`SplitTransport`], which move a whole batch of
//!   probes across the boundary in one send and resolve every probe
//!   against its own deadline in one receive, using packed
//!   [`PacketBatch`]/[`ReplyBatch`] buffers whose allocations amortize to
//!   zero across rounds. This is the seam a vectorized backend
//!   (io_uring, `sendmmsg`) plugs into.

/// A packed sequence of probe datagrams awaiting dispatch.
///
/// Packets are stored back to back in one buffer with an offset table, so
/// building a round of probes costs no per-packet allocations once the
/// buffers have warmed up.
#[derive(Debug, Clone, Default)]
pub struct PacketBatch {
    bytes: Vec<u8>,
    /// End offset of each packet in `bytes`.
    bounds: Vec<usize>,
}

impl PacketBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the batch, retaining capacity.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.bounds.clear();
    }

    /// Number of packets queued.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// True if no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// Appends one packet by letting `build` write its bytes into the
    /// backing buffer (e.g. [`crate::probe::build_udp_probe_into`]).
    pub fn push_with<F: FnOnce(&mut Vec<u8>)>(&mut self, build: F) {
        build(&mut self.bytes);
        self.bounds.push(self.bytes.len());
    }

    /// Appends one packet by copying existing bytes.
    pub fn push(&mut self, packet: &[u8]) {
        self.push_with(|buf| buf.extend_from_slice(packet));
    }

    /// The bytes of packet `index`.
    pub fn get(&self, index: usize) -> &[u8] {
        let start = if index == 0 {
            0
        } else {
            self.bounds[index - 1]
        };
        &self.bytes[start..self.bounds[index]]
    }

    /// Iterates packets in queue order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// The packed replies of one dispatched batch: per probe, either the
/// reply datagram bytes or nothing (loss / rate limit / no responder),
/// plus the transport timestamp observed right after each send.
#[derive(Debug, Clone, Default)]
pub struct ReplyBatch {
    bytes: Vec<u8>,
    /// End offset per slot; `answered[i]` distinguishes an empty slot.
    bounds: Vec<usize>,
    answered: Vec<bool>,
    timestamps: Vec<u64>,
}

impl ReplyBatch {
    /// An empty reply set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all slots, retaining capacity.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.bounds.clear();
        self.answered.clear();
        self.timestamps.clear();
    }

    /// Number of slots (equals the dispatched batch's packet count).
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// True if no slots are recorded.
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// Appends one slot. `fill` writes the reply bytes into the backing
    /// buffer and returns whether a reply arrived; `timestamp` is the
    /// transport clock right after the send.
    pub fn push_with<F: FnOnce(&mut Vec<u8>) -> bool>(&mut self, timestamp: u64, fill: F) {
        let start = self.bytes.len();
        let ok = fill(&mut self.bytes);
        if !ok {
            self.bytes.truncate(start);
        }
        self.bounds.push(self.bytes.len());
        self.answered.push(ok);
        self.timestamps.push(timestamp);
    }

    /// The reply bytes of slot `index`, if that probe was answered.
    pub fn get(&self, index: usize) -> Option<&[u8]> {
        if !self.answered[index] {
            return None;
        }
        let start = if index == 0 {
            0
        } else {
            self.bounds[index - 1]
        };
        Some(&self.bytes[start..self.bounds[index]])
    }

    /// Transport timestamp recorded for slot `index`.
    pub fn timestamp(&self, index: usize) -> u64 {
        self.timestamps[index]
    }

    /// Iterates slots in order as `(reply, timestamp)`.
    pub fn iter(&self) -> impl Iterator<Item = (Option<&[u8]>, u64)> {
        (0..self.len()).map(|i| (self.get(i), self.timestamp(i)))
    }
}

/// A synchronous request/reply packet channel.
pub trait PacketTransport {
    /// Sends one probe datagram; returns the reply datagram, if any.
    fn send_packet(&mut self, packet: &[u8]) -> Option<Vec<u8>>;

    /// Allocation-free variant: appends the reply to `reply` and returns
    /// true, or returns false leaving `reply` untouched. Transports with
    /// an internally allocation-free reply path override this; the
    /// default adapts [`PacketTransport::send_packet`].
    fn send_packet_into(&mut self, packet: &[u8], reply: &mut Vec<u8>) -> bool {
        match self.send_packet(packet) {
            Some(bytes) => {
                reply.extend_from_slice(&bytes);
                true
            }
            None => false,
        }
    }

    /// Current transport time in ticks. Reply timestamps feed the
    /// Monotonic Bounds Test's time series.
    fn now(&self) -> u64;
}

impl ReplyBatch {
    /// Overwrites the most recent slot's timestamp (for senders that
    /// learn the time only after sending).
    pub fn set_last_timestamp(&mut self, timestamp: u64) {
        if let Some(last) = self.timestamps.last_mut() {
            *last = timestamp;
        }
    }
}

/// The split (asynchronous-shaped) transport contract: **send** and
/// **receive** are separate verbs, with a per-probe timeout deadline
/// carried across the boundary.
///
/// [`PacketTransport::send_packet`] bakes in the synchronous fiction that
/// every probe resolves before the call returns — which leaves a caller
/// no way to express "give up on this probe after N ticks". The split
/// contract fixes that: [`send_probes`](Self::send_probes) dispatches a
/// batch where probe *i* carries a timeout of `timeouts[i]` transport
/// ticks measured from its own send instant (its **deadline** is
/// `send_tick + timeouts[i]` on the transport's virtual clock), and
/// [`recv_replies`](Self::recv_replies) later resolves every probe of
/// that batch exactly once: either the reply that arrived by the
/// deadline, or an unanswered slot — the reply never came, or came too
/// late (the caller's pending table turns that into a typed timeout).
///
/// Contract invariants:
///
/// * Every `send_probes` must be followed by exactly one `recv_replies`
///   before the next `send_probes`; the reply batch has one slot per
///   probe, in probe order. A backend fills slot *i* with probe *i*'s
///   reply, matched by the tag the reply quotes (an ICMP error's quoted
///   probe) or echoes (an Echo Reply's identifier and sequence). The
///   sweep engine verifies that tag and counts a reply found in another
///   probe's slot as mismatched, so a backend that receives replies out
///   of order must put each back in its probe's slot.
/// * A slot is answered **iff** its reply arrived at or before its
///   deadline. Answered slots carry the reply's arrival tick as their
///   timestamp; unanswered slots resolve at their deadline.
/// * Waiting out a deadline costs no transport ticks of its own: the
///   virtual clock is driven by packets (and by explicit clock advances
///   a simulator applies), so deadlines are bookkeeping on the same
///   tick axis the replies are stamped with. A real-socket backend
///   instead blocks in `recv_replies` until the last deadline expires.
///
/// The simulator implements this natively (impairment schedules can
/// delay replies past their deadlines).
pub trait SplitTransport: PacketTransport {
    /// Send half: dispatches every probe of `probes`, recording for each
    /// the deadline `send_tick + timeouts[i]`. `timeouts.len()` must
    /// equal `probes.len()`.
    fn send_probes(&mut self, probes: &PacketBatch, timeouts: &[u64]);

    /// Recv half: resolves the batch most recently sent (see the trait
    /// docs for the slot semantics). `replies` is cleared first.
    fn recv_replies(&mut self, replies: &mut ReplyBatch);
}

/// Blanket implementation so `&mut T` can be passed where a transport is
/// consumed by value.
impl<T: PacketTransport + ?Sized> PacketTransport for &mut T {
    fn send_packet(&mut self, packet: &[u8]) -> Option<Vec<u8>> {
        (**self).send_packet(packet)
    }
    fn send_packet_into(&mut self, packet: &[u8], reply: &mut Vec<u8>) -> bool {
        (**self).send_packet_into(packet, reply)
    }
    fn now(&self) -> u64 {
        (**self).now()
    }
}

/// Blanket implementation so a caller can lend a split transport to an
/// engine and keep it (to read its counters or capture afterwards).
impl<T: SplitTransport + ?Sized> SplitTransport for &mut T {
    fn send_probes(&mut self, probes: &PacketBatch, timeouts: &[u64]) {
        (**self).send_probes(probes, timeouts)
    }
    fn recv_replies(&mut self, replies: &mut ReplyBatch) {
        (**self).recv_replies(replies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_batch_packs_and_iterates() {
        let mut batch = PacketBatch::new();
        batch.push(&[1, 2, 3]);
        batch.push_with(|buf| buf.extend_from_slice(&[4, 5]));
        batch.push(&[]);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.get(0), &[1, 2, 3]);
        assert_eq!(batch.get(1), &[4, 5]);
        assert_eq!(batch.get(2), &[] as &[u8]);
        let collected: Vec<&[u8]> = batch.iter().collect();
        assert_eq!(collected.len(), 3);
        batch.clear();
        assert!(batch.is_empty());
    }

    #[test]
    fn reply_batch_roll_back_on_loss() {
        let mut replies = ReplyBatch::new();
        replies.push_with(1, |buf| {
            buf.extend_from_slice(&[9, 9]);
            true
        });
        replies.push_with(2, |buf| {
            buf.extend_from_slice(&[7]); // written, then rolled back
            false
        });
        replies.push_with(3, |buf| {
            buf.extend_from_slice(&[5]);
            true
        });
        assert_eq!(replies.get(0), Some(&[9u8, 9][..]));
        assert_eq!(replies.get(1), None);
        assert_eq!(replies.get(2), Some(&[5u8][..]));
        assert_eq!(replies.timestamp(2), 3);
    }
}
