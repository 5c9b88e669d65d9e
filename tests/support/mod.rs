//! The one-probe-at-a-time reference driver.
//!
//! In the library the sweep engine is the only code that drives a
//! session. The equivalence tests hold it to this independent reference,
//! which shares none of the engine's dispatch loop: each probe is encoded
//! on its own, sent with [`PacketTransport::send_packet`], and its reply
//! decoded with [`parse_reply`] plus [`ProbeObservation::from_reply`]
//! (an Echo Reply must echo the probe's identifier and sequence). A
//! round's unanswered probes are re-sent together, in up to `retries`
//! more waves, each retry counting as a sent probe. Sequence numbers
//! start at 1 and are shared by UDP and echo probes.

use mlpt::core::prober::{
    DirectObservation, ProbeLog, ProbeObservation, ProbeSpec, ECHO_IDENTIFIER, ECHO_TTL,
};
use mlpt::core::session::{
    ProbeOutcome, ProbeRequest, ProbeSession, SessionState, TraceProbeSession, TraceSession,
};
use mlpt::core::Trace;
use mlpt::wire::probe::{
    build_echo_probe, build_udp_probe, parse_reply, ProbePacket, ReplyKind, ReplyPacket,
};
use mlpt::wire::transport::PacketTransport;
use mlpt::wire::FlowId;
use std::net::Ipv4Addr;

/// Drives sessions towards one destination, one probe at a time (see
/// the module docs), logging every observation in the order it arrived.
pub struct PerProbe<T> {
    transport: T,
    source: Ipv4Addr,
    destination: Ipv4Addr,
    retries: u8,
    sequence: u16,
    probes_sent: u64,
    log: ProbeLog,
}

impl<T: PacketTransport> PerProbe<T> {
    /// A driver over `transport` with `retries` retry waves per round.
    pub fn new(transport: T, source: Ipv4Addr, destination: Ipv4Addr, retries: u8) -> Self {
        Self {
            transport,
            source,
            destination,
            retries,
            sequence: 0,
            probes_sent: 0,
            log: ProbeLog::default(),
        }
    }

    /// Probe packets sent so far, retries included.
    pub fn probes_sent(&self) -> u64 {
        self.probes_sent
    }

    /// Every observation so far.
    pub fn log(&self) -> &ProbeLog {
        &self.log
    }

    /// Sends `packet` on its own, returning the parsed reply and the
    /// transport clock right after.
    fn exchange(&mut self, packet: &[u8]) -> Option<(ReplyPacket, u64)> {
        self.probes_sent += 1;
        let reply = parse_reply(&self.transport.send_packet(packet)?).ok()?;
        Some((reply, self.transport.now()))
    }

    /// Sends one indirect probe (no retry); logs and returns what
    /// answered it.
    pub fn probe(&mut self, flow: FlowId, ttl: u8) -> Option<ProbeObservation> {
        self.sequence = self.sequence.wrapping_add(1);
        let packet = build_udp_probe(&ProbePacket {
            source: self.source,
            destination: self.destination,
            flow,
            ttl,
            sequence: self.sequence,
        });
        let (reply, timestamp) = self.exchange(&packet)?;
        let spec = ProbeSpec::new(flow, ttl);
        let obs = ProbeObservation::from_reply(spec, reply, self.destination, timestamp)?;
        self.log.indirect.push(obs.clone());
        Some(obs)
    }

    /// Sends one echo probe (no retry); logs and returns what answered it.
    pub fn direct_probe(&mut self, target: Ipv4Addr) -> Option<DirectObservation> {
        self.sequence = self.sequence.wrapping_add(1);
        let sequence = self.sequence;
        let packet = build_echo_probe(self.source, target, ECHO_IDENTIFIER, sequence, ECHO_TTL);
        let (reply, timestamp) = self.exchange(&packet)?;
        if reply.kind != ReplyKind::EchoReply || reply.echo != Some((ECHO_IDENTIFIER, sequence)) {
            return None;
        }
        let obs = DirectObservation {
            target: reply.responder,
            ip_id: reply.reply_ip_id,
            probe_ip_id: sequence,
            reply_ttl: reply.reply_ttl,
            timestamp,
        };
        self.log.direct.push(obs.clone());
        Some(obs)
    }

    /// Sends one round, one probe at a time, re-sending the unanswered
    /// probes in waves; returns one slot per request, in request order.
    fn round(&mut self, requests: &[ProbeRequest]) -> Vec<Option<ProbeOutcome>> {
        let mut results = vec![None; requests.len()];
        let mut pending: Vec<usize> = (0..requests.len()).collect();
        for _wave in 0..=self.retries {
            pending.retain(|&i| {
                results[i] = match requests[i] {
                    ProbeRequest::Udp(spec) => {
                        self.probe(spec.flow, spec.ttl).map(ProbeOutcome::Udp)
                    }
                    ProbeRequest::Echo { target } => {
                        self.direct_probe(target).map(ProbeOutcome::Echo)
                    }
                };
                results[i].is_none()
            });
        }
        results
    }

    /// Drives `session` to completion; returns the packets sent for it.
    pub fn drive<S: ProbeSession>(&mut self, session: &mut S) -> u64 {
        let start = self.probes_sent;
        while session.poll() == SessionState::Probing {
            let round_start = self.probes_sent;
            let requests = session.next_rounds().to_vec();
            let mut results = self.round(&requests);
            session.note_wire_probes(self.probes_sent - round_start);
            session.on_replies(&mut results);
        }
        self.probes_sent - start
    }

    /// Runs a trace session to completion and returns its trace.
    pub fn trace<S: TraceSession>(&mut self, session: S) -> Trace {
        let mut adapted = TraceProbeSession::new(session);
        let probes_sent = self.drive(&mut adapted);
        adapted.into_inner().take_trace(probes_sent)
    }
}
