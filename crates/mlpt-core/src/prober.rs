//! Probes and what they observed.
//!
//! Tracing algorithms think in terms of "send flow f at TTL t, which
//! interface answered?": a [`ProbeSpec`] names the probe, and a
//! [`ProbeObservation`] is what answered it ([`DirectObservation`] for
//! ping-style probes). The sweep engine ([`crate::engine`]) builds the
//! real probe datagrams and decodes the real replies into observations,
//! so every algorithmic probe round-trips through the wire substrate
//! exactly as a real tool's packets would.
//!
//! Wrapping a trace session in a [`LoggedSession`] records every
//! observation it receives (interface, IP ID, reply TTL, MPLS labels,
//! timestamp) in a [`ProbeLog`], which is the "for free" data of
//! Sec. 4.1: the alias resolution stages start from what tracing
//! already collected.

use crate::artifact::RouteHealth;
use crate::session::{SessionState, TraceSession};
use crate::stopset::{StopContribution, StopSnapshot};
use crate::trace::Trace;
use mlpt_wire::icmp::MplsLabelStackEntry;
use mlpt_wire::probe::{ReplyKind, ReplyPacket};
use mlpt_wire::FlowId;
use std::net::Ipv4Addr;

/// ICMP echo identifier stamped on direct probes ("ML"), so Echo Replies
/// can be told apart from unrelated ping traffic.
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
    /// acceptance rule the sweep engine ([`crate::engine`]) applies to
    /// every UDP probe: the reply must quote the probed flow (a real tool
    /// matches replies to probes by the quoted headers), and the
    /// destination counts as reached on Port Unreachable or when the
    /// destination itself answers.
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

/// Everything a session observed, kept for alias resolution.
#[derive(Debug, Clone, Default)]
pub struct ProbeLog {
    /// All indirect observations, in probing order.
    pub indirect: Vec<ProbeObservation>,
    /// All direct observations, in probing order.
    pub direct: Vec<DirectObservation>,
}

/// A [`TraceSession`] that records every observation delivered to the
/// session it wraps in a [`ProbeLog`]: round by round, each round in spec
/// order. Every call is forwarded unchanged, so the trace is the one the
/// bare session produces.
#[derive(Debug, Clone)]
pub struct LoggedSession<S> {
    inner: S,
    log: ProbeLog,
}

impl<S> LoggedSession<S> {
    /// Wraps a trace session with an empty log.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            log: ProbeLog::default(),
        }
    }

    /// The observations recorded so far.
    pub fn log(&self) -> &ProbeLog {
        &self.log
    }

    /// Consumes the wrapper, returning the log.
    pub fn into_log(self) -> ProbeLog {
        self.log
    }
}

impl<S: TraceSession> TraceSession for LoggedSession<S> {
    fn poll(&mut self) -> SessionState {
        self.inner.poll()
    }

    fn next_rounds(&self) -> &[ProbeSpec] {
        self.inner.next_rounds()
    }

    fn on_replies(&mut self, results: &[Option<ProbeObservation>]) {
        self.log.indirect.extend(results.iter().flatten().cloned());
        self.inner.on_replies(results);
    }

    fn destination(&self) -> Ipv4Addr {
        self.inner.destination()
    }

    fn take_trace(&mut self, probes_sent: u64) -> Trace {
        self.inner.take_trace(probes_sent)
    }

    fn predicted_cost(&self) -> u64 {
        self.inner.predicted_cost()
    }

    fn adopt_stop_set(&mut self, snapshot: &StopSnapshot) {
        self.inner.adopt_stop_set(snapshot);
    }

    fn stop_contribution(&mut self) -> Option<StopContribution> {
        self.inner.stop_contribution()
    }

    fn should_retry(&self, spec: &ProbeSpec) -> bool {
        self.inner.should_retry(spec)
    }

    fn route_health(&self) -> Option<RouteHealth> {
        self.inner.route_health()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SweepConfig, SweepEngine};
    use crate::session::{MdaLiteSession, ProbeOutcome, ProbeRequest, ProbeSession};
    use mlpt_sim::{FaultPlan, SimNetwork};
    use mlpt_topo::canonical;
    use mlpt_topo::graph::addr;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

    /// Probes fixed rounds one after another, keeping every outcome.
    struct Scripted {
        destination: Ipv4Addr,
        rounds: Vec<Vec<ProbeRequest>>,
        outcomes: Vec<Option<ProbeOutcome>>,
    }

    impl ProbeSession for Scripted {
        fn poll(&mut self) -> SessionState {
            if self.rounds.is_empty() {
                SessionState::Finished
            } else {
                SessionState::Probing
            }
        }
        fn next_rounds(&self) -> &[ProbeRequest] {
            self.rounds.first().map_or(&[], Vec::as_slice)
        }
        fn on_replies(&mut self, results: &mut [Option<ProbeOutcome>]) {
            self.outcomes.extend(results.iter_mut().map(Option::take));
            self.rounds.remove(0);
        }
        fn destination(&self) -> Ipv4Addr {
            self.destination
        }
    }

    fn udp(flow: u16, ttl: u8) -> ProbeRequest {
        ProbeRequest::Udp(ProbeSpec::new(FlowId(flow), ttl))
    }

    /// Sends `rounds` as one session over `net` (towards the simplest
    /// diamond's destination) with `retries` retry waves; returns the
    /// outcomes in request order and the packets put on the wire.
    fn exchange(
        net: SimNetwork,
        retries: u8,
        rounds: Vec<Vec<ProbeRequest>>,
    ) -> (Vec<Option<ProbeOutcome>>, u64) {
        let session = Scripted {
            destination: canonical::simplest_diamond().destination(),
            rounds,
            outcomes: Vec::new(),
        };
        let mut engine = SweepEngine::new(net, SRC).with_config(SweepConfig {
            retries,
            ..SweepConfig::default()
        });
        let (session, sent) = engine.run_session(session);
        (session.outcomes, sent)
    }

    fn simplest(seed: u64) -> SimNetwork {
        SimNetwork::new(canonical::simplest_diamond(), seed)
    }

    fn silent() -> SimNetwork {
        SimNetwork::builder(canonical::simplest_diamond())
            .faults(FaultPlan::with_loss(1.0, 0.0))
            .seed(1)
            .build()
    }

    fn indirect(outcome: &Option<ProbeOutcome>) -> &ProbeObservation {
        match outcome {
            Some(ProbeOutcome::Udp(obs)) => obs,
            other => panic!("expected an indirect observation, got {other:?}"),
        }
    }

    #[test]
    fn probe_returns_observation() {
        let (outcomes, sent) = exchange(simplest(1), 0, vec![vec![udp(3, 1)]]);
        let obs = indirect(&outcomes[0]);
        assert_eq!(obs.responder, addr(0, 0));
        assert!(!obs.at_destination);
        assert_eq!(obs.flow, FlowId(3));
        assert_eq!(obs.ttl, 1);
        assert_eq!(sent, 1);
    }

    #[test]
    fn destination_flagged() {
        let (outcomes, _) = exchange(simplest(1), 0, vec![vec![udp(3, 3)]]);
        let obs = indirect(&outcomes[0]);
        assert!(obs.at_destination);
        assert_eq!(obs.responder, canonical::simplest_diamond().destination());
    }

    #[test]
    fn direct_probe_observation() {
        let target = addr(1, 0);
        let (outcomes, _) = exchange(simplest(1), 0, vec![vec![ProbeRequest::Echo { target }]]);
        match &outcomes[0] {
            Some(ProbeOutcome::Echo(obs)) => assert_eq!(obs.target, target),
            other => panic!("expected a direct observation, got {other:?}"),
        }
    }

    #[test]
    fn retries_count_as_probes() {
        let (outcomes, sent) = exchange(silent(), 2, vec![vec![udp(0, 1)]]);
        assert!(outcomes[0].is_none());
        assert_eq!(sent, 3, "initial try + 2 retries");
    }

    #[test]
    fn timestamps_progress() {
        let (outcomes, _) = exchange(simplest(1), 0, vec![vec![udp(0, 1)], vec![udp(1, 1)]]);
        assert!(indirect(&outcomes[1]).timestamp > indirect(&outcomes[0]).timestamp);
    }

    #[test]
    fn log_accumulates_ip_ids() {
        let topo = canonical::simplest_diamond();
        let mut engine = SweepEngine::new(SimNetwork::new(topo.clone(), 1), SRC);
        let session = LoggedSession::new(MdaLiteSession::new(
            topo.destination(),
            crate::TraceConfig::new(1),
        ));
        let (trace, session) = engine.run_trace(session);
        let log = session.into_log();
        // Lossless: every probe put on the wire was answered and logged.
        assert_eq!(log.indirect.len() as u64, trace.probes_sent);
        // IP IDs were stamped by the simulator's counters.
        let ids: Vec<u16> = log.indirect.iter().map(|o| o.ip_id).collect();
        assert!(ids.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn probe_batch_matches_sequential_exactly() {
        // One round crossing the transport at once and the same probes
        // one per round, over identical simulators, observe the same
        // thing with the same packet count.
        let specs: Vec<ProbeRequest> = (0..24u16)
            .flat_map(|f| (1..=4u8).map(move |ttl| udp(f, ttl)))
            .collect();
        let network = || SimNetwork::new(canonical::fig1_meshed(), 99);
        let batched = exchange(network(), 0, vec![specs.clone()]);
        let sequential = exchange(network(), 0, specs.iter().map(|&r| vec![r]).collect());
        assert_eq!(batched, sequential);
    }

    #[test]
    fn probe_batch_counts_losses() {
        let (outcomes, sent) = exchange(silent(), 1, vec![vec![udp(0, 1), udp(1, 1)]]);
        assert!(outcomes.iter().all(Option::is_none));
        // 2 specs × (1 try + 1 retry) = 4 packets on the wire.
        assert_eq!(sent, 4);
    }

    #[test]
    fn probe_batch_empty_is_noop() {
        let (outcomes, sent) = exchange(simplest(1), 0, Vec::new());
        assert!(outcomes.is_empty());
        assert_eq!(sent, 0);
    }

    /// MDA-Lite on the fig1 pair (seed 11), pinned as FNV-1a-64 digests
    /// of the observation log and the trace. The digests were taken
    /// while a frozen pre-batching simulator, driven one probe at a
    /// time, still produced the identical log.
    #[test]
    fn mda_lite_observation_log_matches_golden() {
        let digests: Vec<u64> = [canonical::fig1_unmeshed(), canonical::fig1_meshed()]
            .into_iter()
            .map(|topo| {
                let destination = topo.destination();
                let mut engine = SweepEngine::new(SimNetwork::new(topo, 11), SRC);
                let session = LoggedSession::new(MdaLiteSession::new(
                    destination,
                    crate::TraceConfig::new(11),
                ));
                let (trace, session) = engine.run_trace(session);
                format!("{:?}{trace:?}", session.log().indirect)
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
