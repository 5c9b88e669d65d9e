//! The Round 0–10 alias-resolution probing protocol (Sec. 4.2).
//!
//! "Round 0 is based on just the data obtained through MDA-Lite Paris
//! Traceroute, with no additional probing. … Round 1 adds one direct
//! probe to each of the IP addresses at a given hop, in order to provide
//! more complete Network Fingerprinting signatures. It also is the first
//! round of MBT probing, attempting to elicit 30 replies per address.
//! Each subsequent round through to Round 10 consists of an additional 30
//! indirect probes per address."
//!
//! [`AliasRoundsSession`] implements that protocol for either probing
//! method — indirect (MMLPT's own) or direct (the MIDAR-style comparator
//! of Table 2) — as a resumable sans-IO [`ProbeSession`], interleaving
//! the per-address probes so the IP-ID samples properly alternate for
//! the MBT. The interleaving is **semantically load-bearing**: the MBT
//! merges two addresses' samples into one would-be-monotonic sequence,
//! so the per-round probe order is part of the protocol, not a
//! scheduling detail. The session therefore emits each protocol round as
//! one deterministic request list (whose order no driver may change),
//! and the sweep engine produces bit-identical evidence however it
//! schedules the session: alone (`SweepEngine::run_session`, seeding
//! `base` with [`EvidenceBase::from_log`] first) or interleaved with
//! other destinations.
//!
//! Conveniently, the protocol's probe sequence does not depend on
//! replies at all (unlike the tracing algorithms): every round's
//! requests are computable up front from the trace and the candidate
//! set. Only the partitions computed *after* each round consume the
//! accumulated evidence.

use crate::evidence::EvidenceBase;
use crate::mbt::MbtParams;
use crate::resolver::{resolve, AliasPartition, SeriesSource};
use mlpt_core::session::{ProbeOutcome, ProbeRequest, ProbeSession, SessionState};
use mlpt_core::trace::Trace;
use mlpt_wire::FlowId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// Which probing style elicits the MBT's IP-ID samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProbeMethod {
    /// TTL-limited UDP probes eliciting Time Exceeded (MMLPT).
    Indirect,
    /// ICMP echo probes eliciting Echo Reply (MIDAR-style).
    Direct,
}

impl ProbeMethod {
    /// The series the resolver should consult for this method.
    pub fn series_source(self) -> SeriesSource {
        match self {
            ProbeMethod::Indirect => SeriesSource::Indirect,
            ProbeMethod::Direct => SeriesSource::Direct,
        }
    }
}

/// Protocol configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundsConfig {
    /// Number of probing rounds after Round 0 (the paper uses 10).
    pub rounds: u32,
    /// Replies attempted per address per round (the paper uses 30).
    pub replies_per_round: u32,
    /// Probing method for the MBT series.
    pub method: ProbeMethod,
    /// MBT parameters.
    pub mbt: MbtParams,
}

impl Default for RoundsConfig {
    fn default() -> Self {
        Self {
            rounds: 10,
            replies_per_round: 30,
            method: ProbeMethod::Indirect,
            mbt: MbtParams::default(),
        }
    }
}

impl RoundsConfig {
    /// Predicted probe cost of a full Round 0–N campaign over a hop with
    /// `candidates` addresses: one fingerprint-completing echo per
    /// candidate in Round 1, plus `replies_per_round` MBT probes per
    /// candidate in each of the `rounds` probing rounds. This is the
    /// admission-time cost model behind
    /// [`Admission::CostAware`](mlpt_core::engine::Admission::CostAware):
    /// the paper's campaigns are reply-independent, so the cost of a hop
    /// is known exactly from its width before a single alias probe flies
    /// (unreachable candidates can only make the real cost smaller).
    pub fn predicted_probes(&self, candidates: usize) -> u64 {
        let candidates = candidates as u64;
        candidates + u64::from(self.rounds) * u64::from(self.replies_per_round) * candidates
    }
}

/// Outcome of one round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundReport {
    /// Round number (0 = trace data only).
    pub round: u32,
    /// The alias partition computed after this round.
    pub partition: AliasPartition,
    /// Alias-resolution probes sent *so far* (cumulative, excluding the
    /// trace's own probes).
    pub cumulative_probes: u64,
}

/// How to elicit an indirect reply from a specific interface: a flow known
/// to reach it and the TTL at which it answers, harvested from the trace.
fn indirect_targets(
    trace: &Trace,
    candidates: &BTreeSet<Ipv4Addr>,
) -> BTreeMap<Ipv4Addr, (Vec<FlowId>, u8)> {
    let mut map = BTreeMap::new();
    for ttl in 1..=trace.discovery.max_observed_ttl() {
        for &addr in trace.discovery.vertices_at(ttl) {
            if candidates.contains(&addr) && !map.contains_key(&addr) {
                let flows: Vec<FlowId> = trace.discovery.flows_at(ttl, addr).collect();
                if !flows.is_empty() {
                    map.insert(addr, (flows, ttl));
                }
            }
        }
    }
    map
}

/// The Round 0–10 protocol as a resumable sans-IO [`ProbeSession`].
///
/// One session covers one candidate set (typically the addresses of one
/// hop). Each [`poll`](ProbeSession::poll) arms one protocol round as a
/// single request list: Round 1 leads with one direct probe per
/// candidate (fingerprint completion), and every round carries
/// `replies_per_round` MBT probes per address interleaved address by
/// address — the order the MBT's merged-series test depends on. After
/// each round's replies the session ingests the evidence and appends a
/// [`RoundReport`] with the partition so far.
pub struct AliasRoundsSession {
    destination: Ipv4Addr,
    candidates: BTreeSet<Ipv4Addr>,
    targets: BTreeMap<Ipv4Addr, (Vec<FlowId>, u8)>,
    base: EvidenceBase,
    config: RoundsConfig,
    source: SeriesSource,
    flow_cursor: BTreeMap<Ipv4Addr, usize>,
    reports: Vec<RoundReport>,
    /// Logical probes dispatched so far (the paper's per-round cost
    /// counter: one per probe attempted, unanswered included, transport
    /// retries excluded).
    probes: u64,
    /// The next protocol round to probe (1 ..= `config.rounds`).
    round: u32,
    requests: Vec<ProbeRequest>,
    armed: bool,
}

impl AliasRoundsSession {
    /// Creates a session over `candidates`. `base` must already hold the
    /// Round 0 evidence (seed it with [`EvidenceBase::from_log`]); the
    /// Round 0 report is computed immediately, before any probing.
    pub fn new(
        trace: &Trace,
        candidates: &BTreeSet<Ipv4Addr>,
        base: EvidenceBase,
        config: RoundsConfig,
    ) -> Self {
        let source = config.method.series_source();
        let targets = indirect_targets(trace, candidates);
        let round0 = RoundReport {
            round: 0,
            partition: resolve(&base, candidates, source, &config.mbt),
            cumulative_probes: 0,
        };
        let mut reports = Vec::with_capacity(config.rounds as usize + 1);
        reports.push(round0);
        Self {
            destination: trace.destination,
            candidates: candidates.clone(),
            targets,
            base,
            config,
            source,
            flow_cursor: BTreeMap::new(),
            reports,
            probes: 0,
            round: 1,
            requests: Vec::new(),
            armed: false,
        }
    }

    /// The reports accumulated so far (round 0 included).
    pub fn reports(&self) -> &[RoundReport] {
        &self.reports
    }

    /// Consumes the session into its reports and final evidence base.
    pub fn into_parts(self) -> (Vec<RoundReport>, EvidenceBase) {
        (self.reports, self.base)
    }

    /// Builds round `self.round`'s request list into `self.requests`.
    /// Deterministic and reply-independent; advances the flow cursors.
    fn build_round(&mut self) {
        self.requests.clear();
        // Round 1 completes fingerprints with one direct probe each.
        if self.round == 1 {
            self.requests.extend(
                self.candidates
                    .iter()
                    .map(|&target| ProbeRequest::Echo { target }),
            );
        }
        // One MBT round: `replies_per_round` probes per address,
        // interleaved address by address so the samples alternate.
        for _rep in 0..self.config.replies_per_round {
            for &addr in &self.candidates {
                match self.config.method {
                    ProbeMethod::Indirect => {
                        let Some((flows, ttl)) = self.targets.get(&addr) else {
                            continue; // no flow known to reach it
                        };
                        let cursor = self.flow_cursor.entry(addr).or_insert(0);
                        let flow = flows[*cursor % flows.len()];
                        *cursor += 1;
                        self.requests
                            .push(ProbeRequest::Udp(mlpt_core::prober::ProbeSpec::new(
                                flow, *ttl,
                            )));
                    }
                    ProbeMethod::Direct => {
                        self.requests.push(ProbeRequest::Echo { target: addr });
                    }
                }
            }
        }
    }

    /// Closes the current round: report the partition and advance.
    fn finish_round(&mut self) {
        self.reports.push(RoundReport {
            round: self.round,
            partition: resolve(&self.base, &self.candidates, self.source, &self.config.mbt),
            cumulative_probes: self.probes,
        });
        self.round += 1;
        self.armed = false;
    }
}

impl ProbeSession for AliasRoundsSession {
    fn poll(&mut self) -> SessionState {
        if self.armed {
            return SessionState::Probing;
        }
        while self.round <= self.config.rounds {
            self.build_round();
            if self.requests.is_empty() {
                // Nothing probeable this round (e.g. indirect method with
                // no reachable candidates): report over the evidence as
                // it stands and move on, exactly as the blocking loop
                // did.
                self.finish_round();
                continue;
            }
            self.armed = true;
            return SessionState::Probing;
        }
        SessionState::Finished
    }

    fn next_rounds(&self) -> &[ProbeRequest] {
        &self.requests
    }

    fn on_replies(&mut self, results: &mut [Option<ProbeOutcome>]) {
        if !self.armed {
            return;
        }
        debug_assert_eq!(
            self.requests.len(),
            results.len(),
            "one result slot per request"
        );
        for (request, result) in self.requests.iter().zip(results.iter_mut()) {
            self.probes += 1;
            match (request, result.take()) {
                (ProbeRequest::Udp(_), Some(ProbeOutcome::Udp(obs))) => {
                    self.base.add_indirect(&obs, 0);
                }
                // A lost indirect probe contributes nothing (the blocking
                // loop's `if let Some(obs)`).
                (ProbeRequest::Udp(_), _) => {}
                (ProbeRequest::Echo { .. }, Some(ProbeOutcome::Echo(obs))) => {
                    self.base.add_direct(&obs);
                }
                // An unanswered direct probe is evidence in itself
                // (MIDAR's dominant inconclusive cause).
                (ProbeRequest::Echo { target }, _) => self.base.add_direct_timeout(*target),
            }
        }
        self.finish_round();
    }

    fn destination(&self) -> Ipv4Addr {
        self.destination
    }

    fn predicted_cost(&self) -> u64 {
        if self.round > self.config.rounds {
            return 0;
        }
        // Probeable addresses per MBT round: the indirect method can
        // only reach candidates a trace flow is known to elicit.
        let per_round = match self.config.method {
            ProbeMethod::Indirect => self.targets.len() as u64,
            ProbeMethod::Direct => self.candidates.len() as u64,
        };
        let remaining_rounds = u64::from(self.config.rounds - self.round) + 1;
        let fingerprints = if self.round <= 1 {
            self.candidates.len() as u64
        } else {
            0
        };
        fingerprints + remaining_rounds * u64::from(self.config.replies_per_round) * per_round
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evidence::EvidenceBase;
    use crate::resolver::precision_recall;
    use mlpt_core::prelude::*;
    use mlpt_sim::{IpIdProfile, RouterProfile, SimNetwork};
    use mlpt_topo::graph::addr;
    use mlpt_topo::{MultipathTopology, RouterId, RouterMap};

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

    /// 1-4-1 diamond where interfaces {0,1} share router A and {2,3}
    /// share router B.
    fn grouped_topology() -> (MultipathTopology, RouterMap) {
        let mut b = MultipathTopology::builder();
        b.add_hop([addr(0, 0)]);
        b.add_hop([addr(1, 0), addr(1, 1), addr(1, 2), addr(1, 3)]);
        b.add_hop([addr(2, 0)]);
        b.connect_unmeshed(0);
        b.connect_unmeshed(1);
        let topo = b.build().unwrap();
        let routers = RouterMap::from_alias_sets([
            vec![addr(1, 0), addr(1, 1)],
            vec![addr(1, 2), addr(1, 3)],
        ]);
        (topo, routers)
    }

    fn run(
        profile_a: RouterProfile,
        profile_b: RouterProfile,
        method: ProbeMethod,
        seed: u64,
    ) -> Vec<RoundReport> {
        let (topo, routers) = grouped_topology();
        let net = SimNetwork::builder(topo.clone())
            .routers(routers)
            .profile(RouterId(0), profile_a)
            .profile(RouterId(1), profile_b)
            .seed(seed)
            .build();
        let mut engine = SweepEngine::new(net, SRC);
        let traced = LoggedSession::new(MdaLiteSession::new(
            topo.destination(),
            TraceConfig::new(seed),
        ));
        let (trace, traced) = engine.run_trace(traced);
        let candidates: BTreeSet<Ipv4Addr> = trace.vertices_at(2).iter().copied().collect();
        assert_eq!(candidates.len(), 4, "trace must find all four interfaces");
        let base = EvidenceBase::from_log(traced.log(), &candidates);
        let config = RoundsConfig {
            method,
            ..RoundsConfig::default()
        };
        let session = AliasRoundsSession::new(&trace, &candidates, base, config);
        engine.run_session(session).0.into_parts().0
    }

    #[test]
    fn indirect_rounds_find_true_aliases() {
        let reports = run(
            RouterProfile::well_behaved(),
            RouterProfile::well_behaved(),
            ProbeMethod::Indirect,
            7,
        );
        assert_eq!(reports.len(), 11);
        let final_partition = &reports.last().unwrap().partition;
        assert!(final_partition.same_set(addr(1, 0), addr(1, 1)));
        assert!(final_partition.same_set(addr(1, 2), addr(1, 3)));
        assert!(!final_partition.same_set(addr(1, 0), addr(1, 2)));
        assert_eq!(final_partition.routers().count(), 2);
    }

    #[test]
    fn probes_accumulate_monotonically() {
        let reports = run(
            RouterProfile::well_behaved(),
            RouterProfile::well_behaved(),
            ProbeMethod::Indirect,
            3,
        );
        assert_eq!(reports[0].cumulative_probes, 0);
        for w in reports.windows(2) {
            assert!(w[1].cumulative_probes > w[0].cumulative_probes);
        }
        // Round 1: 4 direct + 30×4 indirect; rounds 2-10: 30×4 each.
        let last = reports.last().unwrap().cumulative_probes;
        assert_eq!(last, 4 + 10 * 30 * 4);
    }

    #[test]
    fn later_rounds_refine_toward_final() {
        let reports = run(
            RouterProfile::well_behaved(),
            RouterProfile::well_behaved(),
            ProbeMethod::Indirect,
            11,
        );
        let reference = &reports.last().unwrap().partition;
        let (p1, _r1) = precision_recall(&reports[1].partition, reference);
        let (p10, r10) = precision_recall(reference, reference);
        assert_eq!((p10, r10), (1.0, 1.0));
        assert!(p1 > 0.0);
    }

    #[test]
    fn constant_zero_ids_fall_back_to_signatures() {
        let reports = run(
            RouterProfile {
                ipid: IpIdProfile::constant_zero(),
                ..RouterProfile::well_behaved()
            },
            RouterProfile {
                ipid: IpIdProfile::constant_zero(),
                ..RouterProfile::well_behaved()
            },
            ProbeMethod::Indirect,
            6,
        );
        // Round 0: fingerprints incomplete (no direct probe yet) and the
        // MBT helpless → nothing asserted.
        let round0 = &reports[0].partition;
        assert_eq!(round0.routers().count(), 0, "round 0 must stay apart");
        // Final round: identical complete signatures with permanently
        // unusable counters keep the whole hop together — the paper's
        // documented false-positive mechanism for constant IP IDs.
        let final_partition = &reports.last().unwrap().partition;
        assert!(final_partition.same_set(addr(1, 0), addr(1, 1)));
        assert!(final_partition.same_set(addr(1, 1), addr(1, 2)));
    }

    #[test]
    fn per_interface_counters_reject_indirect_but_accept_direct() {
        // The Table 2 phenomenon: per-interface counters for Time
        // Exceeded, router-wide for Echo Reply.
        let profile = RouterProfile {
            ipid: IpIdProfile::per_interface_indirect(2, 3),
            ..RouterProfile::well_behaved()
        };
        let indirect = run(profile, profile, ProbeMethod::Indirect, 9);
        let direct = run(profile, profile, ProbeMethod::Direct, 9);
        let ind_final = &indirect.last().unwrap().partition;
        let dir_final = &direct.last().unwrap().partition;
        assert!(
            !ind_final.same_set(addr(1, 0), addr(1, 1)),
            "indirect MBT must split per-interface counters"
        );
        assert!(
            dir_final.same_set(addr(1, 0), addr(1, 1)),
            "direct MBT sees the shared router-wide counter"
        );
        assert!(!dir_final.same_set(addr(1, 1), addr(1, 2)));
    }

    #[test]
    fn unresponsive_direct_leaves_direct_method_unable() {
        let profile = RouterProfile {
            responds_to_direct: false,
            ..RouterProfile::well_behaved()
        };
        let direct = run(profile, profile, ProbeMethod::Direct, 13);
        let final_partition = &direct.last().unwrap().partition;
        assert_eq!(final_partition.routers().count(), 0);
    }
}
