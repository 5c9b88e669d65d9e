//! The concurrent sweep engine: many sans-IO sessions over one
//! transport, with streaming admission and an adaptive in-flight budget.
//!
//! Large-scale probing is dominated by how many destinations can be kept
//! in flight at once (Donnet et al., "Efficient Route Tracing from a
//! Single Source"). The [`SweepEngine`] exploits the sans-IO split of
//! [`crate::session`]: it holds a table of live [`ProbeSession`]s — one
//! per destination — and each dispatch cycle
//!
//! 1. **admits** new sessions from the caller's stream while the pending
//!    probe backlog sits below the in-flight budget
//!    ([`Admission::Streaming`]), so cross-destination batches stay full
//!    across arbitrarily long destination lists instead of shrinking into
//!    a tail of tiny dispatches as a fixed table drains;
//! 2. **gathers** every live session's pending round into one large
//!    cross-destination [`PacketBatch`], bounded by the in-flight token
//!    budget, with tokens split fairly across sessions (a quota pass
//!    followed by a greedy pass) so no one lane hogs a reduced budget.
//!    Requests are typed ([`ProbeRequest`]): TTL-limited UDP probes
//!    towards the session's destination and ICMP Echo Requests aimed at
//!    individual interfaces share one batch;
//! 3. crosses the shared [`SplitTransport`] **once** — every probe
//!    carries a virtual-clock deadline, [`SweepConfig::probe_timeout`]
//!    doubled per retry wave and per step of its lane's backoff depth,
//!    and a probe whose reply misses its deadline resolves as a typed
//!    timeout instead of blocking the sweep;
//! 4. **demultiplexes** replies back to their sessions by slot: the
//!    transport puts probe *i*'s reply in slot *i*, and the engine
//!    accepts it only if the tag it gives back (kind, address,
//!    sequence) equals probe *i*'s — for ICMP errors the destination
//!    and sequence of the quoted probe
//!    ([`mlpt_wire::probe::ReplyPacket`]), for Echo Replies the
//!    responding interface and the echoed ICMP sequence — and, for UDP
//!    probes, it quotes the probed flow. Lost slots time out; malformed
//!    replies and replies found in another probe's slot are counted and
//!    resolve as unanswered;
//! 5. **adapts** the budget: an AIMD controller ([`AdaptiveBudget`])
//!    ramps the budget up additively while replies are clean and backs
//!    off multiplicatively when a cycle starts losing replies (loss or
//!    ICMP rate limiting — Viger et al. document why over-probing
//!    rate-limited routers corrupts results), with per-destination-lane
//!    allowances so one sick lane can neither starve the sweep nor keep
//!    burning probes into a rate limiter;
//! 6. hands completed rounds back to their sessions, which advance their
//!    state machines and produce the next rounds.
//!
//! Per destination, the engine emits the *identical* packet sequence
//! whatever else shares the sweep (same sequence numbers, same retry
//! waves), so a sweep's per-destination results are bit-identical to
//! running each session on its own — a one-session sweep
//! ([`SweepEngine::run_session`]), which is all a single-trace entry
//! point such as [`crate::mda::trace_mda`] is — no matter how admission
//! interleaves or the budget slices rounds. The property tests in
//! `tests/sweep_equivalence.rs` (traces) and
//! `tests/alias_equivalence.rs` (alias-resolution rounds, where the
//! interleaved IP-ID series are semantically load-bearing for the MBT)
//! hold every sweep to a one-probe-at-a-time reference driver kept
//! test-side, across admission modes, budgets and fault plans.
//!
//! Malformed or mismatched replies never panic a sweep: the demux path
//! is unwrap-free, counting anomalies in [`SweepStats`] and treating the
//! affected probes as lost (which the retry machinery then handles).
//!
//! # Retry-wave accounting
//!
//! Every dispatched probe resolves exactly once, into exactly one of
//! four buckets, giving the sweep-level invariant
//!
//! ```text
//! probes_timed_out + replies_delivered
//!     + malformed_replies + mismatched_replies == probes_sent
//! ```
//!
//! exactly: each probe's reply is looked for in its own slot and
//! nowhere else. The split transport guarantees one reply slot per
//! probe: an unanswered slot is a **timeout** — the probe's deadline
//! expired with no reply, or the reply was lost on the wire — and feeds
//! the next retry wave exactly as a lost reply always did. Retry waves are bounded by [`SweepConfig::retries`]; a round
//! that exhausts its waves with probes still unanswered charges them to
//! [`SweepStats::retries_exhausted`] and hands the session an honest
//! `None` for each, so no fault schedule can wedge a sweep. The
//! invariant is asserted by the fault-schedule property tests in
//! `tests/sweep_equivalence.rs` and the chaos suite in `tests/chaos.rs`.
//!
//! # Graceful degradation
//!
//! Two watchdogs keep a sweep live under hostile fault schedules, both
//! operating on **protocol state** (session rounds and retry waves)
//! rather than scheduler state, so they fire identically across
//! admission modes and budgets:
//!
//! * a per-session **stall watchdog** ([`SweepConfig::stall_rounds`]):
//!   a session whose last N rounds each resolved with zero replies is
//!   aborted ([`ProbeSession::abort`]) and reported with
//!   [`TraceOutcome::Partial`] — the caller gets the honest prefix of
//!   the topology instead of a hang (or, with retries, an unbounded
//!   probe burn into a black hole);
//! * per-lane **backoff depth**: consecutive lossy retry waves (any
//!   probe unanswered) deepen the lane's deadline exponent (reusing the AIMD loss signal
//!   at wave granularity), so a rate-limited or congested lane waits
//!   longer instead of re-probing into the fault; clean waves decay the
//!   depth back towards zero.

// Engine surface: no panic-class call without a reasoned `#[expect]` (README, "Static analysis").
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use crate::pending::probe_deadline;
use crate::prober::{DirectObservation, ProbeObservation, ECHO_IDENTIFIER, ECHO_TTL};
use crate::session::TraceSession;
use crate::session::{ProbeOutcome, ProbeRequest, ProbeSession, SessionState, TraceProbeSession};
use crate::shard::run_generations;
use crate::stopset::{StopSetConfig, StopSnapshot};
use crate::trace::{PartialReason, Trace};
use mlpt_wire::probe::{
    build_echo_probe_into, build_udp_probe_into, parse_reply, ProbePacket, ReplyKind, ReplyPacket,
};
use mlpt_wire::transport::{PacketBatch, ReplyBatch, SplitTransport};
use std::collections::{BTreeMap, VecDeque};
use std::net::Ipv4Addr;

/// How sessions enter the engine's live table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Admission {
    /// Sessions are admitted as in-flight tokens free up: a new session
    /// enters whenever the live sessions' pending probes sit below the
    /// in-flight budget, keeping batches full until the source runs dry.
    #[default]
    Streaming,
    /// Streaming admission, heaviest first: the source is staged `K`
    /// sessions at a time, each chunk ordered by descending
    /// [`ProbeSession::predicted_cost`] (ties by source index) and
    /// admitted under the same in-flight gating as
    /// [`Streaming`](Self::Streaming); deferred sessions re-enter
    /// heaviest-first too. `K = usize::MAX` drains the whole source up
    /// front (memory linear in the source buys the lookahead); a finite
    /// window gives unbounded `--stdin` streams cost-aware ordering in
    /// `O(K)` memory, though a chunk never sees costs beyond its
    /// horizon. Likely-expensive destinations — above all wide-hop alias
    /// resolution, whose Round 0–10 campaigns dwarf their neighbours —
    /// start early and amortize across the whole sweep instead of
    /// serializing at the tail, which is what sets a survey's makespan
    /// (Donnet et al., "Efficient Route Tracing from a Single Source",
    /// make the same argument for probe scheduling at scale).
    ///
    /// Determinism rule 5 still holds: the policy decides *when* a
    /// session starts, never *what* it observes. Sessions sharing a
    /// destination keep their source order (a shared lane makes their
    /// relative order observable), so per-destination outcomes are
    /// bit-identical to FIFO admission for every window —
    /// property-tested in `tests/sweep_equivalence.rs` and
    /// `tests/alias_equivalence.rs`.
    CostAware(usize),
}

impl Admission {
    /// True for the variant that orders admission by predicted cost.
    pub fn is_cost_aware(self) -> bool {
        matches!(self, Self::CostAware(_))
    }

    /// Sessions pulled from the source per staging chunk: the
    /// [`CostAware`](Self::CostAware) window (at least 1). The FIFO mode
    /// stages nothing and admits straight from the source (`None`).
    fn chunk_len(self) -> Option<usize> {
        match self {
            Self::CostAware(window) => Some(window.max(1)),
            Self::Streaming => None,
        }
    }
}

/// Tuning of the AIMD in-flight budget controller.
///
/// The controller treats [`SweepConfig::max_in_flight`] as a ceiling:
/// while a dispatch cycle's replies are clean (unanswered fraction at or
/// below [`loss_threshold`](Self::loss_threshold)) the budget grows by
/// [`increase`](Self::increase) tokens; a lossy cycle multiplies it by
/// [`backoff`](Self::backoff), never below
/// [`min_in_flight`](Self::min_in_flight). Each destination lane also
/// carries its own allowance with the same rules, so a single
/// rate-limited lane backs itself off without choking healthy lanes —
/// and a collapsed global budget is split fairly across lanes by the
/// gather pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveBudget {
    /// Floor the controller never backs off below.
    pub min_in_flight: usize,
    /// Additive increase per clean cycle (tokens).
    pub increase: usize,
    /// Multiplicative decrease factor applied on a lossy cycle.
    pub backoff: f64,
    /// Fraction of a cycle's probes that may go unanswered before the
    /// cycle counts as lossy.
    pub loss_threshold: f64,
}

impl Default for AdaptiveBudget {
    fn default() -> Self {
        Self {
            min_in_flight: 8,
            increase: 32,
            backoff: 0.5,
            loss_threshold: 0.05,
        }
    }
}

/// Tuning knobs of a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepConfig {
    /// Token budget: the most probes the engine puts on the wire in one
    /// dispatch cycle, across all sessions. Rounds that do not fit wait
    /// for the next cycle (order within each session is preserved). With
    /// an [`AdaptiveBudget`] this is the controller's ceiling.
    pub max_in_flight: usize,
    /// Per-round retry waves for unanswered probes: once a round has
    /// crossed, its unanswered probes are re-sent together, up to
    /// `retries` more times. Each retry counts as a sent probe, as it
    /// would on the wire; retries matter only under loss.
    pub retries: u8,
    /// The order sessions stream in under the budget.
    pub admission: Admission,
    /// AIMD budget controller; `None` keeps the budget fixed at
    /// [`max_in_flight`](Self::max_in_flight).
    pub adaptive: Option<AdaptiveBudget>,
    /// Deadline, in virtual-clock ticks from its send instant, of a
    /// first-attempt probe at backoff depth 0; each retry wave and each
    /// step of the lane's backoff depth doubles it, up to 64 × (values
    /// below 1 count as 1). The simulator's clock ticks once per packet,
    /// so the default of 4096 is generous: a reply beats it unless the
    /// schedule delays replies by thousands of ticks.
    pub probe_timeout: u64,
    /// Stall watchdog: a session whose last `stall_rounds` rounds each
    /// resolved with **zero** replies is aborted and reported as
    /// [`TraceOutcome::Partial`](crate::trace::TraceOutcome::Partial).
    /// `0` (the default) disables the watchdog; retry waves inside one
    /// round do not count — only completed all-silent rounds do, so the
    /// trigger is protocol state and fires identically across admission
    /// modes and budgets.
    pub stall_rounds: u32,
    /// Doubletree-style shared stop set (see [`crate::stopset`]):
    /// `Some` runs the sweep through the generation coordinator in
    /// [`crate::shard`], which owns a
    /// [`SharedStopSet`](crate::stopset::SharedStopSet), hands every
    /// session a generation snapshot via
    /// [`ProbeSession::adopt_stop_set`] as it is pulled, and commits
    /// finished sessions' contributions back in source-index order at
    /// generation boundaries. `None` (the default) keeps classic
    /// full-path probing.
    ///
    /// Determinism rule 5 extension: the stop set is **protocol
    /// state**. Sessions are partitioned into generations of
    /// [`StopSetConfig::commit_width`] consecutive source indices; a
    /// generation's sessions all see the snapshot closed over strictly
    /// earlier generations, and the next generation is pulled only once
    /// every session of this one has finished. Commits apply in
    /// source-index order with first-writer-wins per `(TTL, interface)`,
    /// so the set's contents — and through them every elision — are
    /// decided by source order, never by scheduling: streaming and
    /// cost-aware sweeps stay bit-identical and replay exactly from
    /// seed.
    pub stop_set: Option<StopSetConfig>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            max_in_flight: 1024,
            retries: 0,
            admission: Admission::default(),
            adaptive: None,
            probe_timeout: 4096,
            stall_rounds: 0,
            stop_set: None,
        }
    }
}

/// Counters describing one sweep's dispatch behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Transport crossings (send_batch calls) performed.
    pub dispatch_cycles: u64,
    /// Probe packets put on the wire (retries included).
    pub probes_sent: u64,
    /// Replies successfully demultiplexed to a session.
    pub replies_delivered: u64,
    /// Replies that failed to parse as IPv4+ICMP.
    pub malformed_replies: u64,
    /// Parsed replies that do not answer the probe whose slot they
    /// fill: the tag they give back (kind, address, sequence) differs
    /// from that probe's, or they quote another flow.
    pub mismatched_replies: u64,
    /// Largest single dispatch batch.
    pub max_batch: usize,
    /// Sessions installed as live slots, counted once per session at the
    /// moment it enters the table — whether it came straight from the
    /// source or out of the deferred store. Always equals the number of
    /// sessions the source yielded once the sweep finishes.
    pub sessions_admitted: u64,
    /// Sessions driven to completion (their results were emitted).
    /// Equals [`sessions_admitted`](Self::sessions_admitted) at the end
    /// of a sweep: every admitted session reports, even one that wedges
    /// (the defensive drain emits it).
    pub sessions_completed: u64,
    /// Deferral events: how many times a session entered the deferred
    /// store because a live slot (or an earlier deferred session) already
    /// owned its destination — the reply tags would be ambiguous while
    /// both are in flight. The indexed store admits a freed session
    /// directly, without re-deferring it past racing admissions, so each
    /// session contributes at most one event and the counter equals the
    /// number of sessions that ever waited. Not decremented on
    /// admission; `sessions_deferred <= sessions_admitted` once the
    /// sweep finishes.
    pub sessions_deferred: u64,
    /// Cycles whose unanswered fraction stayed at or below the loss
    /// threshold (the configured controller's, or the default
    /// controller's threshold when the budget is fixed — so the
    /// counters compare across both modes).
    pub clean_cycles: u64,
    /// Cycles that lost more than the threshold.
    pub lossy_cycles: u64,
    /// Multiplicative global-budget decreases applied by the controller.
    pub budget_backoffs: u64,
    /// Per-lane allowance halvings applied by the controller.
    pub lane_backoffs: u64,
    /// The in-flight budget when the sweep finished.
    pub final_in_flight_budget: usize,
    /// Probes whose reply slot came back empty: the deadline expired
    /// with no reply, or the reply was lost on the wire. Together with
    /// the three reply buckets this partitions `probes_sent` — see the
    /// retry-wave accounting section of the module docs.
    pub probes_timed_out: u64,
    /// Probes still unanswered when their round's last permitted retry
    /// wave resolved: the retry budget ran out and the session was
    /// handed an honest `None` for each.
    pub retries_exhausted: u64,
    /// Sessions whose result carried a
    /// [`TraceOutcome::Partial`](crate::trace::TraceOutcome::Partial):
    /// watchdog aborts ([`SweepConfig::stall_rounds`]) plus sessions
    /// that finalized honestly after exhausting a route-change recovery
    /// budget. Each session counts once, whichever verdict fires first.
    pub sessions_partial: u64,
    /// Deepest per-lane deadline-backoff exponent reached by any lane
    /// (consecutive lossy retry waves; see the module docs).
    pub max_lane_backoff_depth: u32,
    /// Probes the sweep's sessions never put on the wire thanks to
    /// shared-stop-set short-circuits (backward local-stop hits,
    /// forward global-stop hits, scan-phase hits), summed from the
    /// per-session
    /// [`StopContribution::probes_elided`](crate::stopset::StopContribution::probes_elided)
    /// estimates. `0` unless [`SweepConfig::stop_set`] is active.
    pub probes_elided: u64,
    /// Stop-set hits across the sweep: probes whose responder was found
    /// in the session's adopted snapshot, ending a probing direction
    /// early.
    pub stop_set_hits: u64,
    /// Timed-out probes dropped from their retry wave because the
    /// session's adopted stop set already predicts the responder
    /// ([`ProbeSession::should_retry`]): re-probing a confirmed
    /// `(TTL, interface)` pair is redundant, so the probe resolves as
    /// an elision instead of burning a retry.
    pub retries_elided: u64,
    /// Route-change artifacts detected by session audits (flow/hop
    /// mismatches, TTL loops and vanished branches per the Viger et al.
    /// taxonomy), summed from [`crate::artifact::RouteHealth`].
    pub artifacts_detected: u64,
    /// Bounded suffix re-traces the audits triggered: each one
    /// invalidated the contradicted suffix and re-entered discovery
    /// rounds from the contradicted hop.
    pub route_recoveries: u64,
    /// Audit probes charged to [`crate::artifact::ReprobeBudget`]s
    /// (a subset of `probes_sent`; audits share the wire accounting).
    pub reprobes_sent: u64,
    /// Sessions whose recovery budget ran out mid-route-change: they
    /// finalized honestly as
    /// [`PartialReason::RouteChanged`](crate::trace::PartialReason::RouteChanged).
    pub route_changed_partials: u64,
    /// Adopted stop-set predictions contradicted by later firsthand
    /// replies. Each one was repaired in place (the firsthand record
    /// replaced the adopted one) and never reached a final trace.
    pub stop_set_stale_hits: u64,
    /// Stop-set entries evicted because a contributing session's
    /// firsthand evidence contradicted or invalidated them.
    pub stop_set_evictions: u64,
    /// Generation-barrier stalls in a sharded sweep
    /// ([`crate::shard::ShardedSweepEngine`]): shard-generations that
    /// finished their slice of a generation early and parked at the
    /// barrier while the slowest shard kept dispatching. Counted by
    /// comparing per-shard dispatch-cycle deltas across the generation
    /// — virtual work, not wall clock — so the counter is deterministic
    /// and replayable. `0` for unsharded sweeps.
    pub generation_barrier_stalls: u64,
}

impl SweepStats {
    /// Mean probes per transport crossing — the dispatch-throughput
    /// metric (each crossing is the analogue of one `sendmmsg` syscall
    /// plus one round-trip wait on a real network).
    pub fn probes_per_dispatch(&self) -> f64 {
        if self.dispatch_cycles == 0 {
            0.0
        } else {
            self.probes_sent as f64 / self.dispatch_cycles as f64
        }
    }

    /// Folds another engine's counters into this aggregate (callers
    /// running several sub-sweeps back to back, e.g. address-disjoint
    /// groups, or a sharded engine combining per-shard counters).
    /// Sums every counter **saturating** (a merge of per-shard totals
    /// must clamp at the rail, never wrap back to small numbers),
    /// takes the max of the two high-water marks (`max_batch`,
    /// `max_lane_backoff_depth` — a depth is an exponent, so summing
    /// shard depths would fabricate backoff that never happened), and
    /// keeps the most recent **nonzero** `final_in_flight_budget` (a
    /// finished run always reports at least 1; 0 means the other engine
    /// never ran, e.g. an empty shard, and must not clobber a real
    /// value) — living here so a counter added to the struct cannot be
    /// silently dropped from aggregates.
    pub fn merge(&mut self, other: &SweepStats) {
        let SweepStats {
            dispatch_cycles,
            probes_sent,
            replies_delivered,
            malformed_replies,
            mismatched_replies,
            max_batch,
            sessions_admitted,
            sessions_completed,
            sessions_deferred,
            clean_cycles,
            lossy_cycles,
            budget_backoffs,
            lane_backoffs,
            final_in_flight_budget,
            probes_timed_out,
            retries_exhausted,
            sessions_partial,
            max_lane_backoff_depth,
            probes_elided,
            stop_set_hits,
            retries_elided,
            artifacts_detected,
            route_recoveries,
            reprobes_sent,
            route_changed_partials,
            stop_set_stale_hits,
            stop_set_evictions,
            generation_barrier_stalls,
        } = *other;
        self.dispatch_cycles = self.dispatch_cycles.saturating_add(dispatch_cycles);
        self.probes_sent = self.probes_sent.saturating_add(probes_sent);
        self.replies_delivered = self.replies_delivered.saturating_add(replies_delivered);
        self.malformed_replies = self.malformed_replies.saturating_add(malformed_replies);
        self.mismatched_replies = self.mismatched_replies.saturating_add(mismatched_replies);
        self.max_batch = self.max_batch.max(max_batch);
        self.sessions_admitted = self.sessions_admitted.saturating_add(sessions_admitted);
        self.sessions_completed = self.sessions_completed.saturating_add(sessions_completed);
        self.sessions_deferred = self.sessions_deferred.saturating_add(sessions_deferred);
        self.clean_cycles = self.clean_cycles.saturating_add(clean_cycles);
        self.lossy_cycles = self.lossy_cycles.saturating_add(lossy_cycles);
        self.budget_backoffs = self.budget_backoffs.saturating_add(budget_backoffs);
        self.lane_backoffs = self.lane_backoffs.saturating_add(lane_backoffs);
        if final_in_flight_budget != 0 {
            self.final_in_flight_budget = final_in_flight_budget;
        }
        self.probes_timed_out = self.probes_timed_out.saturating_add(probes_timed_out);
        self.retries_exhausted = self.retries_exhausted.saturating_add(retries_exhausted);
        self.sessions_partial = self.sessions_partial.saturating_add(sessions_partial);
        self.max_lane_backoff_depth = self.max_lane_backoff_depth.max(max_lane_backoff_depth);
        self.probes_elided = self.probes_elided.saturating_add(probes_elided);
        self.stop_set_hits = self.stop_set_hits.saturating_add(stop_set_hits);
        self.retries_elided = self.retries_elided.saturating_add(retries_elided);
        self.artifacts_detected = self.artifacts_detected.saturating_add(artifacts_detected);
        self.route_recoveries = self.route_recoveries.saturating_add(route_recoveries);
        self.reprobes_sent = self.reprobes_sent.saturating_add(reprobes_sent);
        self.route_changed_partials = self
            .route_changed_partials
            .saturating_add(route_changed_partials);
        self.stop_set_stale_hits = self.stop_set_stale_hits.saturating_add(stop_set_stale_hits);
        self.stop_set_evictions = self.stop_set_evictions.saturating_add(stop_set_evictions);
        self.generation_barrier_stalls = self
            .generation_barrier_stalls
            .saturating_add(generation_barrier_stalls);
    }
}

/// The probe kind a tag belongs to, so that a reply to a UDP probe
/// towards destination D and one to an echo probe aimed at interface D
/// can never pass for each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TagKind {
    /// Tag recovered from an ICMP error's quoted probe.
    Udp,
    /// Tag echoed back in an Echo Reply's ICMP header.
    Echo,
}

/// The tag a probe carries and a reply to it gives back. For UDP probes
/// the address is the probe's destination, which an ICMP error quotes
/// together with the sequence; for echo probes it is the pinged
/// interface, which answers itself and echoes the sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ProbeTag {
    kind: TagKind,
    address: Ipv4Addr,
    sequence: u16,
}

impl ProbeTag {
    /// The tag `reply` gives back, or `None` when it carries no usable
    /// one (no quote, or an echo under a foreign identifier).
    fn of_reply(reply: &ReplyPacket) -> Option<Self> {
        match reply.kind {
            ReplyKind::EchoReply => match reply.echo {
                Some((ECHO_IDENTIFIER, sequence)) => Some(ProbeTag {
                    kind: TagKind::Echo,
                    address: reply.responder,
                    sequence,
                }),
                _ => None,
            },
            _ => Some(ProbeTag {
                kind: TagKind::Udp,
                address: reply.probe_destination?,
                sequence: reply.probe_sequence?,
            }),
        }
    }
}

/// A live session plus its per-destination wire state.
struct SessionSlot<S> {
    session: S,
    destination: Ipv4Addr,
    /// Index of this session in the source stream — results are reported
    /// back under it, so output order is admission-independent.
    out_index: usize,
    /// Per-session sequence counter: the first probe is sequence 1, and
    /// UDP and echo probes share the counter.
    sequence: u16,
    /// Wire-level packets sent for this session, retries included.
    probes_sent: u64,
    /// Wire-level packets sent for the round currently in service
    /// (reported to the session via `note_wire_probes`).
    round_wire: u64,
    /// The round currently being serviced (copied from the session).
    round: Vec<ProbeRequest>,
    /// One result slot per round request.
    results: Vec<Option<ProbeOutcome>>,
    /// Request indices of the current retry wave, in dispatch order.
    wave: Vec<usize>,
    /// Next index into `wave` to dispatch.
    cursor: usize,
    /// Current retry wave number (0 = first transmission).
    attempt: u8,
    /// True while a round is being serviced.
    active: bool,
    /// Per-cycle dispatch cap driven by this lane's own AIMD allowance.
    allowance: usize,
    /// Probes dispatched for this lane in the current cycle.
    dispatched_cycle: u32,
    /// Replies delivered to this lane in the current cycle.
    delivered_cycle: u32,
    /// Deadline-backoff exponent: consecutive lossy retry waves deepen
    /// it, fully-answered waves decay it. Wave-granular, so it is
    /// protocol state — a cycle's slicing cannot move it.
    backoff_depth: u32,
    /// Completed rounds in a row that resolved with zero replies.
    silent_rounds: u32,
    /// Set when the stall watchdog aborts this session; the slot then
    /// finalizes as a partial result regardless of what `poll` says.
    partial: Option<PartialReason>,
}

/// A finished slot's round, result and wave buffers, kept by the engine
/// for the next admitted session, so their capacity outlives the
/// destination that grew it.
#[derive(Default)]
struct SlotBuffers {
    round: Vec<ProbeRequest>,
    results: Vec<Option<ProbeOutcome>>,
    wave: Vec<usize>,
}

impl<S> SessionSlot<S> {
    fn next_sequence(&mut self) -> u16 {
        self.sequence = self.sequence.wrapping_add(1);
        self.sequence
    }

    /// Probes of the current wave still awaiting dispatch.
    fn pending(&self) -> usize {
        if self.active {
            self.wave.len() - self.cursor
        } else {
            0
        }
    }
}

/// One in-flight probe of the current dispatch cycle. Entry *i* is the
/// probe in batch position *i*, whose reply the transport puts in slot
/// *i*.
#[derive(Debug, Clone, Copy)]
struct DispatchEntry {
    session: usize,
    spec: usize,
    /// The tag the probe's reply must give back.
    tag: ProbeTag,
}

/// Outcome of pumping an idle slot's state machine.
enum Pumped {
    /// The session finished; its result was emitted and the slot removed.
    Finished,
    /// A fresh round is armed and pending dispatch.
    Armed,
    /// Nothing to do this cycle (defensive empty-round path).
    Idle,
}

/// The deferred-session store, indexed by destination.
///
/// A session whose destination is owned by a live slot waits here until
/// that slot finishes. The store replaces the old flat `VecDeque` +
/// whole-queue `iter().position(..)` / `VecDeque::remove(pos)` rescan —
/// O(n) per admission attempt and O(n) per mid-queue removal, O(n²)
/// across a sweep with many same-destination sessions — with two O(1)
/// amortized motions: `defer` appends to the destination's own FIFO
/// queue, and `on_destination_freed` (called exactly when a live slot
/// releases its destination) moves that queue's front entry into the
/// small `ready` line the admission loop drains. Per-destination FIFO
/// order is structural (one queue per destination), which is what keeps
/// shared-lane outcomes identical to the old scan's earliest-arrival
/// pick.
struct DeferredSessions<S> {
    /// Waiting sessions per destination, each queue in source order.
    by_dest: BTreeMap<u32, VecDeque<(usize, S)>>,
    /// Sessions whose destination has been freed, awaiting admission —
    /// kept sorted by ascending source index (FIFO modes, matching the
    /// old scan's arrival-order pick) or by descending predicted cost
    /// ([`Admission::CostAware`]).
    ready: VecDeque<(usize, S)>,
    /// Total sessions held (both maps' queues plus the ready line).
    len: usize,
}

impl<S: ProbeSession> DeferredSessions<S> {
    fn new() -> Self {
        Self {
            by_dest: BTreeMap::new(),
            ready: VecDeque::new(),
            len: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if any waiting (not yet freed) session targets `dest` — a
    /// later source session for the same destination must queue behind
    /// it to preserve per-destination FIFO order.
    fn holds(&self, dest: u32) -> bool {
        self.by_dest.contains_key(&dest)
    }

    /// Parks a session behind the live owner of its destination.
    fn defer(&mut self, out_index: usize, session: S) {
        let dest = u32::from(session.destination());
        self.by_dest
            .entry(dest)
            .or_default()
            .push_back((out_index, session));
        self.len += 1;
    }

    /// Releases the next waiter on `dest` (if any) into the ready line.
    /// Called when a live slot towards `dest` finishes; at most one
    /// session per destination is ever in flight towards admission, so
    /// the remaining queue stays parked until that one's own slot frees
    /// the destination again.
    fn on_destination_freed(&mut self, dest: u32, cost_aware: bool) {
        let std::collections::btree_map::Entry::Occupied(mut queue) = self.by_dest.entry(dest)
        else {
            return;
        };
        let Some(entry) = queue.get_mut().pop_front() else {
            queue.remove();
            return;
        };
        if queue.get().is_empty() {
            queue.remove();
        }
        let pos = if cost_aware {
            let cost = entry.1.predicted_cost();
            self.ready.partition_point(|(o, s)| {
                let c = s.predicted_cost();
                c > cost || (c == cost && *o < entry.0)
            })
        } else {
            self.ready.partition_point(|(o, _)| *o < entry.0)
        };
        self.ready.insert(pos, entry);
    }

    /// The next freed session to admit, in the store's admission order.
    fn next_ready(&mut self) -> Option<(usize, S)> {
        let entry = self.ready.pop_front()?;
        self.len -= 1;
        Some(entry)
    }
}

/// Orders one staged chunk of the source for the cost-aware admission
/// modes: positions are assigned by descending
/// [`ProbeSession::predicted_cost`] (ties by source index), but the
/// sessions of one destination fill their positions in source order — a
/// shared lane observes its sessions in exactly the sequence the caller
/// supplied, which is what keeps cost-aware outcomes bit-identical to
/// FIFO admission. `base` is the source index of the chunk's first
/// session ([`Admission::CostAware`] stages `K` sessions at a time, the
/// whole source for `K = usize::MAX`).
fn reorder_by_cost<S: ProbeSession>(sessions: Vec<S>, base: usize) -> VecDeque<(usize, S)> {
    let costs: Vec<u64> = sessions.iter().map(ProbeSession::predicted_cost).collect();
    let dests: Vec<u32> = sessions
        .iter()
        .map(|s| u32::from(s.destination()))
        .collect();
    let mut order: Vec<usize> = (0..sessions.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));

    let mut per_dest: BTreeMap<u32, VecDeque<usize>> = BTreeMap::new();
    for (i, &dest) in dests.iter().enumerate() {
        per_dest.entry(dest).or_default().push_back(i);
    }
    let mut slots: Vec<Option<S>> = sessions.into_iter().map(Some).collect();
    order
        .into_iter()
        .map(|position| {
            #[expect(
                clippy::expect_used,
                reason = "invariant: per_dest holds one queue entry per session and each position is visited once"
            )]
            let source_index = per_dest
                .get_mut(&dests[position])
                .and_then(VecDeque::pop_front)
                .expect("one queue entry per session");
            #[expect(
                clippy::expect_used,
                reason = "invariant: source_index values are distinct, so each slot is taken exactly once"
            )]
            let session = slots[source_index].take().expect("each session taken once");
            (base + source_index, session)
        })
        .collect()
}

/// The sweep scheduler (see module docs).
pub struct SweepEngine<T: SplitTransport> {
    transport: T,
    source: Ipv4Addr,
    config: SweepConfig,
    stats: SweepStats,
    packets: PacketBatch,
    /// Per-probe deadlines (ticks from send), parallel to `packets`.
    timeouts: Vec<u64>,
    replies: ReplyBatch,
    dispatch: Vec<DispatchEntry>,
    /// AIMD controller state (equals `max_in_flight` when fixed).
    budget: f64,
    /// Batch size of every dispatch cycle, for tail-utilization
    /// measurements (one `u32` per transport crossing).
    cycle_sizes: Vec<u32>,
    /// Final shared-stop-set snapshot of the last run (when
    /// [`SweepConfig::stop_set`] was active).
    last_stop_snapshot: Option<StopSnapshot>,
    /// Buffers of finished session slots, emptied, for the next
    /// admissions of this or a later run.
    spare_buffers: Vec<SlotBuffers>,
}

/// Destinations of live sessions, ascending. A sorted vector keeps its
/// capacity when it empties, so a run refills it without allocating.
#[derive(Default)]
struct LiveDests(Vec<u32>);

impl LiveDests {
    fn contains(&self, dest: u32) -> bool {
        self.0.binary_search(&dest).is_ok()
    }

    fn insert(&mut self, dest: u32) {
        if let Err(at) = self.0.binary_search(&dest) {
            self.0.insert(at, dest);
        }
    }

    fn remove(&mut self, dest: u32) {
        if let Ok(at) = self.0.binary_search(&dest) {
            self.0.remove(at);
        }
    }
}

/// The scheduler over one engine for one call: the live session table
/// is generic over the session type, so one engine serves trace sweeps
/// (boxed [`TraceSession`]s behind the adapter) and alias sweeps
/// (concrete [`ProbeSession`] types) without boxing the latter. The
/// generation coordinator runs every generation of the call through the
/// same run, so its tables and their capacity outlive each generation.
pub(crate) struct SweepRun<'e, T: SplitTransport, S: ProbeSession> {
    eng: &'e mut SweepEngine<T>,
    /// Live sessions only; finished slots are removed immediately.
    slots: Vec<SessionSlot<S>>,
    /// Destinations of live sessions (admission defers duplicates).
    live_dests: LiveDests,
    /// Sessions waiting for a live slot to release their destination.
    deferred: DeferredSessions<S>,
    /// Undispatched probes across all live sessions' current waves.
    pending: usize,
    /// Replies delivered during the current cycle.
    cycle_delivered: usize,
}

impl<T: SplitTransport> SweepEngine<T> {
    /// Creates an engine over a shared transport, probing from `source`.
    pub fn new(transport: T, source: Ipv4Addr) -> Self {
        let config = SweepConfig::default();
        Self {
            transport,
            source,
            budget: config.max_in_flight as f64,
            config,
            stats: SweepStats::default(),
            packets: PacketBatch::new(),
            timeouts: Vec::new(),
            replies: ReplyBatch::new(),
            dispatch: Vec::new(),
            cycle_sizes: Vec::new(),
            last_stop_snapshot: None,
            spare_buffers: Vec::new(),
        }
    }

    /// Replaces the tuning knobs.
    pub fn with_config(mut self, config: SweepConfig) -> Self {
        self.config = config;
        self.config.max_in_flight = self.config.max_in_flight.max(1);
        self.config.probe_timeout = self.config.probe_timeout.max(1);
        if let Some(adaptive) = &mut self.config.adaptive {
            adaptive.min_in_flight = adaptive.min_in_flight.clamp(1, self.config.max_in_flight);
            adaptive.increase = adaptive.increase.max(1);
            adaptive.backoff = adaptive.backoff.clamp(0.0, 1.0);
        }
        if let Some(stop) = &mut self.config.stop_set {
            stop.commit_width = stop.commit_width.max(1);
            stop.start_ttl = stop.start_ttl.max(1);
        }
        self.budget = self.config.max_in_flight as f64;
        self
    }

    /// Dispatch statistics so far.
    pub fn stats(&self) -> &SweepStats {
        &self.stats
    }

    /// The shared stop set's final snapshot from the last run with
    /// [`SweepConfig::stop_set`] active (`None` otherwise): every
    /// committed `(TTL, interface)` pair with its predecessor link, from
    /// which each destination's elided near-source prefix is
    /// reconstructable ([`StopSnapshot::reconstruct_prefix`]).
    pub fn stop_snapshot(&self) -> Option<&StopSnapshot> {
        self.last_stop_snapshot.as_ref()
    }

    /// Batch size of every dispatch cycle so far, in cycle order — the
    /// raw series behind tail-utilization measurements (probes per
    /// dispatch over the last N% of probes).
    pub fn cycle_batches(&self) -> &[u32] {
        &self.cycle_sizes
    }

    /// The in-flight budget currently in force (the AIMD controller's
    /// value, or `max_in_flight` when fixed).
    pub fn current_budget(&self) -> usize {
        match self.config.adaptive {
            Some(adaptive) => (self.budget.round() as usize)
                .clamp(adaptive.min_in_flight, self.config.max_in_flight),
            None => self.config.max_in_flight,
        }
    }

    /// Consumes the engine, returning the transport.
    pub fn into_transport(self) -> T {
        self.transport
    }

    /// Streams trace sessions from `sessions` through the engine,
    /// returning their traces in source order. Under
    /// [`Admission::Streaming`] the source is pulled lazily as in-flight
    /// tokens free up, so arbitrary destination-list lengths run in
    /// bounded memory (plus the returned traces; use
    /// [`run_stream_with`](Self::run_stream_with) to stream those out
    /// too).
    pub fn run_stream<I>(&mut self, sessions: I) -> Vec<Trace>
    where
        I: IntoIterator<Item = Box<dyn TraceSession>>,
    {
        in_source_order(|sink| self.run_stream_with(sessions, sink))
    }

    /// Streams trace sessions through the engine, handing each finished
    /// trace to `sink` together with its index in the source stream.
    /// Traces arrive in completion order; the index makes output
    /// assembly independent of admission order.
    pub fn run_stream_with<I, F>(&mut self, sessions: I, mut sink: F)
    where
        I: IntoIterator<Item = Box<dyn TraceSession>>,
        F: FnMut(usize, Trace),
    {
        let adapted = sessions.into_iter().map(TraceProbeSession::new);
        self.run_sessions_with(adapted, |index, session, probes_sent| {
            sink(index, finish_trace(session, probes_sent).0);
        });
    }

    /// Runs one session to completion — a sweep of one destination —
    /// and returns it with the wire-level packet count the engine spent
    /// on it (retries included). This is how every single-destination
    /// entry point ([`trace_mda`](crate::mda::trace_mda) and its
    /// siblings, `mlpt_alias::multilevel::trace_multilevel`) runs.
    #[expect(
        clippy::expect_used,
        reason = "invariant: run_sessions_with hands every session of its source to the sink"
    )]
    pub fn run_session<S: ProbeSession>(&mut self, session: S) -> (S, u64) {
        let mut finished = None;
        self.run_sessions_with(std::iter::once(session), |_, session, probes_sent| {
            finished = Some((session, probes_sent));
        });
        finished.expect("the sink received the session")
    }

    /// Runs one trace session to completion (see
    /// [`run_session`](Self::run_session)) and returns its trace together
    /// with the finished session, whose own state — a
    /// [`LoggedSession`](crate::prober::LoggedSession)'s observation log,
    /// say — the caller may still want.
    pub fn run_trace<S: TraceSession>(&mut self, session: S) -> (Trace, S) {
        let (session, probes_sent) = self.run_session(TraceProbeSession::new(session));
        finish_trace(session, probes_sent)
    }

    /// The generalised entry point: streams any [`ProbeSession`] type
    /// through the engine. Each finished session is handed back to
    /// `sink` together with its index in the source stream and the
    /// wire-level packet count the engine spent on it (retries
    /// included), so the caller extracts whatever result the session
    /// type accumulates — a trace, an alias partition, a full
    /// multilevel outcome. With [`SweepConfig::stop_set`] active the
    /// source runs through the stop-set generation coordinator shared
    /// with [`crate::shard::ShardedSweepEngine`].
    pub fn run_sessions_with<S, I, F>(&mut self, sessions: I, sink: F)
    where
        S: ProbeSession,
        I: IntoIterator<Item = S>,
        F: FnMut(usize, S, u64),
    {
        let stop_set = self.config.stop_set;
        let mut run = SweepRun::new(self);
        let (counters, snapshot) = run_generations(
            stop_set,
            sessions,
            |generation, emit| run.run_source(generation, emit),
            sink,
        );
        self.stats.merge(&counters);
        self.last_stop_snapshot = snapshot;
    }

    /// The config in force (after [`with_config`](Self::with_config)'s
    /// clamping).
    pub(crate) fn config(&self) -> &SweepConfig {
        &self.config
    }
}

/// Collects traces handed to `run`'s sink into source order.
pub(crate) fn in_source_order(run: impl FnOnce(&mut dyn FnMut(usize, Trace))) -> Vec<Trace> {
    let mut out: Vec<Option<Trace>> = Vec::new();
    run(&mut |index, trace| {
        if out.len() <= index {
            out.resize_with(index + 1, || None);
        }
        out[index] = Some(trace);
    });
    out.into_iter().flatten().collect()
}

/// Turns a finished trace session into its trace, handing the session
/// back. The engine-side verdict (watchdog aborts) wins over a clean
/// session outcome, but a session that already declared itself partial
/// (e.g. `RouteChanged`) keeps its own verdict.
pub(crate) fn finish_trace<S: TraceSession>(
    mut session: TraceProbeSession<S>,
    probes_sent: u64,
) -> (Trace, S) {
    let outcome = session.outcome();
    let mut trace = session.inner_mut().take_trace(probes_sent);
    if outcome.is_partial() {
        trace.outcome = outcome;
    }
    (trace, session.into_inner())
}

impl<'e, T: SplitTransport, S: ProbeSession> SweepRun<'e, T, S> {
    /// A run over `eng` with empty tables.
    pub(crate) fn new(eng: &'e mut SweepEngine<T>) -> Self {
        Self {
            eng,
            slots: Vec::new(),
            live_dests: LiveDests::default(),
            deferred: DeferredSessions::new(),
            pending: 0,
            cycle_delivered: 0,
        }
    }

    /// The engine's dispatch statistics so far.
    pub(crate) fn stats(&self) -> &SweepStats {
        &self.eng.stats
    }

    /// The plain streaming loop, shared by every entry point: drives
    /// `source` to completion, handing each finished session to `sink`
    /// under its position in `source`. Knows nothing of stop sets; the
    /// generation coordinator calls it once per generation, and each
    /// call leaves the tables empty for the next.
    pub(crate) fn run_source(
        &mut self,
        source: &mut dyn Iterator<Item = S>,
        sink: &mut dyn FnMut(usize, S, u64),
    ) {
        let mut next_out = 0usize;
        let mut source_done = false;
        // Sessions pulled from the source but not yet admitted:
        // `CostAware(K)` stages (and reorders) `K` sessions at a time.
        // FIFO admission stages nothing.
        let mut staged: VecDeque<(usize, S)> = VecDeque::new();

        loop {
            self.refill_rounds(sink);
            self.admit_sessions(source, &mut staged, &mut next_out, &mut source_done, sink);
            if !self.gather_packets() {
                if self.deferred.is_empty() && staged.is_empty() && source_done {
                    break;
                }
                // Unreachable in practice: a deferred session waits on a
                // live destination, but nothing is live. The next
                // admission pass will admit it; just loop.
                debug_assert!(false, "deferred sessions with an empty live table");
                continue;
            }
            debug_assert_eq!(
                self.eng.packets.len(),
                self.eng.timeouts.len(),
                "one deadline per dispatched probe"
            );
            self.eng
                .transport
                .send_probes(&self.eng.packets, &self.eng.timeouts);
            self.eng.transport.recv_replies(&mut self.eng.replies);
            self.eng.stats.dispatch_cycles += 1;
            self.eng.stats.probes_sent += self.eng.packets.len() as u64;
            self.eng.stats.max_batch = self.eng.stats.max_batch.max(self.eng.packets.len());
            self.eng.cycle_sizes.push(self.eng.packets.len() as u32);
            self.demux_replies();
            self.adapt_budget();
            self.resolve_waves();
        }

        // Defensive drain: a session that wedged in the empty-round path
        // still reports a result rather than vanishing.
        while let Some(slot) = self.slots.pop() {
            self.live_dests.remove(u32::from(slot.destination));
            self.eng.stats.sessions_completed += 1;
            self.collect_route_health(&slot);
            self.emit(slot, sink);
        }
        self.eng.stats.final_in_flight_budget = self.eng.current_budget();
    }

    /// Whether this run's deferred store orders freed sessions by cost.
    fn cost_aware(&self) -> bool {
        self.eng.config.admission.is_cost_aware()
    }

    /// Folds a finishing session's route-audit health into the sweep
    /// counters. No-op for sessions that never armed an audit.
    fn collect_route_health(&mut self, slot: &SessionSlot<S>) {
        let Some(health) = slot.session.route_health() else {
            return;
        };
        let stats = &mut self.eng.stats;
        stats.artifacts_detected += health.artifacts();
        stats.route_recoveries += u64::from(health.recoveries);
        stats.reprobes_sent += health.reprobes_sent;
        stats.stop_set_stale_hits += health.stale_stop_hits;
        if health.route_changed_partial {
            stats.route_changed_partials += 1;
            // The watchdog already counted sessions it aborted; only
            // self-declared partials add to the partial-session total.
            if slot.partial.is_none() {
                stats.sessions_partial += 1;
            }
        }
    }

    /// Hands out the next session to admit: under FIFO admission straight
    /// from the source; under cost-aware admission the staged chunk
    /// first, then a fresh chunk pulled from the source.
    fn pull_next(
        &mut self,
        source: &mut dyn Iterator<Item = S>,
        staged: &mut VecDeque<(usize, S)>,
        next_out: &mut usize,
        source_done: &mut bool,
    ) -> Option<(usize, S)> {
        let Some(chunk) = self.eng.config.admission.chunk_len() else {
            if *source_done {
                return None;
            }
            let Some(session) = source.next() else {
                *source_done = true;
                return None;
            };
            let out = *next_out;
            *next_out += 1;
            return Some((out, session));
        };
        if staged.is_empty() && !*source_done {
            let mut pulled: Vec<S> = Vec::new();
            while pulled.len() < chunk {
                match source.next() {
                    Some(session) => pulled.push(session),
                    None => {
                        *source_done = true;
                        break;
                    }
                }
            }
            let base = *next_out;
            *next_out += pulled.len();
            *staged = reorder_by_cost(pulled, base);
        }
        staged.pop_front()
    }

    /// Polls idle sessions for their next rounds, emitting results of
    /// sessions that finished (their slots are removed immediately).
    fn refill_rounds(&mut self, sink: &mut dyn FnMut(usize, S, u64)) {
        let mut i = 0;
        while i < self.slots.len() {
            if self.slots[i].active {
                i += 1;
                continue;
            }
            match self.pump_slot(i, sink) {
                Pumped::Finished => {} // swap_remove: revisit index i
                Pumped::Armed | Pumped::Idle => i += 1,
            }
        }
    }

    /// Advances one idle slot: emits its result if finished (removing
    /// the slot), or arms its next round.
    fn pump_slot(&mut self, i: usize, sink: &mut dyn FnMut(usize, S, u64)) -> Pumped {
        let slot = &mut self.slots[i];
        debug_assert!(!slot.active, "pump_slot on an active slot");
        // An aborted session is finished whatever its state machine
        // says — `abort` is advisory (a default no-op), so the slot's
        // own flag is what guarantees the sweep can never hang on a
        // session that ignores it.
        let state = if slot.partial.is_some() {
            SessionState::Finished
        } else {
            slot.session.poll()
        };
        match state {
            SessionState::Finished => {
                let cost_aware = self.cost_aware();
                let slot = self.slots.swap_remove(i);
                let dest = u32::from(slot.destination);
                self.live_dests.remove(dest);
                // The destination is free again: release its next waiter
                // (if any) towards admission.
                self.deferred.on_destination_freed(dest, cost_aware);
                self.eng.stats.sessions_completed += 1;
                self.collect_route_health(&slot);
                self.emit(slot, sink);
                Pumped::Finished
            }
            SessionState::Probing => {
                let requests = slot.session.next_rounds();
                if requests.is_empty() {
                    // Defensive: a session must not yield an empty
                    // round; feed it empty replies so it advances.
                    debug_assert!(false, "session yielded an empty round");
                    let mut none: [Option<ProbeOutcome>; 0] = [];
                    slot.session.on_replies(&mut none);
                    return Pumped::Idle;
                }
                slot.round.clear();
                slot.round.extend_from_slice(requests);
                slot.results.clear();
                slot.results.resize(slot.round.len(), None);
                slot.wave.clear();
                slot.wave.extend(0..slot.round.len());
                slot.cursor = 0;
                slot.attempt = 0;
                slot.round_wire = 0;
                slot.active = true;
                self.pending += slot.round.len();
                Pumped::Armed
            }
        }
    }

    /// Pulls sessions from the stream into the live table, stopping once
    /// the pending backlog covers the budget. A session whose destination
    /// is already live — or already has earlier sessions waiting on it —
    /// is deferred until the destination frees up: a shared lane makes
    /// per-destination order observable, so waiters re-enter strictly in
    /// source order. Deferred sessions whose destinations were freed
    /// re-enter before new source pulls, so the admission path is O(1)
    /// amortized per session (no queue rescans).
    fn admit_sessions(
        &mut self,
        source: &mut dyn Iterator<Item = S>,
        staged: &mut VecDeque<(usize, S)>,
        next_out: &mut usize,
        source_done: &mut bool,
        sink: &mut dyn FnMut(usize, S, u64),
    ) {
        loop {
            if self.pending >= self.eng.current_budget() {
                return;
            }
            // Freed deferred sessions re-enter first: their destinations
            // were released by finishing slots, and the store already
            // ordered them (arrival order, or cost under the cost-aware
            // modes).
            if let Some((out, session)) = self.deferred.next_ready() {
                debug_assert!(
                    !self.live_dests.contains(u32::from(session.destination())),
                    "a freed session's destination must be free"
                );
                self.admit_one(out, session, sink);
                continue;
            }
            // Then the source, through the staged chunk.
            let Some((out, session)) = self.pull_next(source, staged, next_out, source_done) else {
                return;
            };
            let dest = u32::from(session.destination());
            if self.live_dests.contains(dest) || self.deferred.holds(dest) {
                self.eng.stats.sessions_deferred += 1;
                self.deferred.defer(out, session);
                continue;
            }
            self.admit_one(out, session, sink);
        }
    }

    /// Hands a finished slot's session to `sink` and keeps its buffers
    /// for a later admission.
    fn emit(&mut self, slot: SessionSlot<S>, sink: &mut dyn FnMut(usize, S, u64)) {
        let SessionSlot {
            session,
            out_index,
            probes_sent,
            mut round,
            mut results,
            mut wave,
            ..
        } = slot;
        round.clear();
        results.clear();
        wave.clear();
        // Room for every buffer set the run holds (the spares, the live
        // slots' and this one), so the pool grows with the live table
        // rather than doubling its way up.
        self.eng.spare_buffers.reserve(self.slots.len() + 1);
        self.eng.spare_buffers.push(SlotBuffers {
            round,
            results,
            wave,
        });
        sink(out_index, session, probes_sent);
    }

    /// Installs one session as a live slot and arms its first round (or
    /// emits its result immediately if it finishes without probing).
    fn admit_one(&mut self, out_index: usize, session: S, sink: &mut dyn FnMut(usize, S, u64)) {
        self.eng.stats.sessions_admitted += 1;
        let destination = session.destination();
        self.live_dests.insert(u32::from(destination));
        let SlotBuffers {
            round,
            results,
            wave,
        } = self.eng.spare_buffers.pop().unwrap_or_default();
        self.slots.push(SessionSlot {
            session,
            destination,
            out_index,
            sequence: 0,
            probes_sent: 0,
            round_wire: 0,
            round,
            results,
            wave,
            cursor: 0,
            attempt: 0,
            active: false,
            allowance: self.eng.config.max_in_flight,
            dispatched_cycle: 0,
            delivered_cycle: 0,
            backoff_depth: 0,
            silent_rounds: 0,
            partial: None,
        });
        // Arm the first round now so the session joins this very cycle's
        // batch — that is what keeps batches full at admission time.
        let last = self.slots.len() - 1;
        let _ = self.pump_slot(last, sink);
    }

    /// Builds the cycle's cross-destination packet batch under the token
    /// budget: a fair quota pass (budget split evenly across lanes with
    /// pending probes) followed by a greedy pass for the leftovers, both
    /// bounded by each lane's adaptive allowance. Returns false when
    /// nothing is left to dispatch.
    fn gather_packets(&mut self) -> bool {
        self.eng.packets.clear();
        self.eng.timeouts.clear();
        self.eng.dispatch.clear();
        self.cycle_delivered = 0;
        let budget = self.eng.current_budget();
        let adaptive = self.eng.config.adaptive.is_some();

        let mut lanes_pending = 0usize;
        for slot in &mut self.slots {
            slot.dispatched_cycle = 0;
            slot.delivered_cycle = 0;
            if slot.pending() > 0 {
                lanes_pending += 1;
            }
        }
        if lanes_pending == 0 {
            return false;
        }

        let quota = (budget / lanes_pending).max(1);
        for pass in 0..2 {
            for i in 0..self.slots.len() {
                if self.eng.packets.len() >= budget {
                    break;
                }
                let slot = &self.slots[i];
                if slot.pending() == 0 {
                    continue;
                }
                let already = slot.dispatched_cycle as usize;
                let lane_cap = if adaptive { slot.allowance } else { usize::MAX };
                // Mid-flight cost reappraisal: a lane whose remaining
                // predicted cost collapsed (a stop-set hit, a trace
                // nearing its destination) is capped at that cost, so
                // it stops hogging quota and allowance the heavy lanes
                // need. `0` = no estimate = uncapped; in-tree sessions
                // never predict below their current round, so the cap
                // only ever redistributes tokens, never slices rounds
                // it does not have to (and slicing is transparent
                // anyway — determinism rule 5).
                let cost_cap = match usize::try_from(slot.session.predicted_cost()) {
                    Ok(0) | Err(_) => usize::MAX,
                    Ok(cost) => cost,
                };
                let pass_cap = if pass == 0 { quota } else { lane_cap };
                let cap = lane_cap.min(pass_cap).min(cost_cap).saturating_sub(already);
                if cap > 0 {
                    self.dispatch_slot(i, cap, budget);
                }
            }
            if self.eng.packets.len() >= budget {
                break;
            }
        }
        !self.eng.packets.is_empty()
    }

    /// Encodes up to `cap` probes of slot `i`'s current wave into the
    /// cycle batch (bounded by the global budget).
    fn dispatch_slot(&mut self, i: usize, cap: usize, budget: usize) {
        let source = self.eng.source;
        let probe_timeout = self.eng.config.probe_timeout;
        let slot = &mut self.slots[i];
        let mut taken = 0usize;
        while taken < cap && slot.cursor < slot.wave.len() && self.eng.packets.len() < budget {
            let spec_idx = slot.wave[slot.cursor];
            slot.cursor += 1;
            let Some(&request) = slot.round.get(spec_idx) else {
                debug_assert!(false, "wave index out of round bounds");
                continue;
            };
            let sequence = slot.next_sequence();
            // The deadline is protocol state: attempt and backoff depth
            // advance on wave boundaries, so however the budget slices
            // this wave across cycles, the deadline sequence is
            // identical (determinism rule 5).
            self.eng.timeouts.push(probe_deadline(
                probe_timeout,
                slot.attempt,
                slot.backoff_depth,
            ));
            let tag = match request {
                ProbeRequest::Udp(spec) => {
                    let probe = ProbePacket {
                        source,
                        destination: slot.destination,
                        flow: spec.flow,
                        ttl: spec.ttl,
                        sequence,
                    };
                    self.eng
                        .packets
                        .push_with(|buf| build_udp_probe_into(&probe, buf));
                    ProbeTag {
                        kind: TagKind::Udp,
                        address: slot.destination,
                        sequence,
                    }
                }
                ProbeRequest::Echo { target } => {
                    self.eng.packets.push_with(|buf| {
                        build_echo_probe_into(
                            source,
                            target,
                            ECHO_IDENTIFIER,
                            sequence,
                            ECHO_TTL,
                            buf,
                        )
                    });
                    ProbeTag {
                        kind: TagKind::Echo,
                        address: target,
                        sequence,
                    }
                }
            };
            self.eng.dispatch.push(DispatchEntry {
                session: i,
                spec: spec_idx,
                tag,
            });
            slot.probes_sent += 1;
            slot.round_wire += 1;
            slot.dispatched_cycle += 1;
            taken += 1;
            self.pending -= 1;
        }
    }

    /// Checks every reply of the cycle against the probe whose slot it
    /// fills. The split transport returns one slot per probe, in probe
    /// order, so the reply in slot *i* is accepted only if the tag it
    /// gives back equals probe *i*'s tag and it quotes probe *i*'s flow
    /// (the acceptance rule Paris traceroute matches replies by).
    /// Anything else is charged to [`SweepStats::mismatched_replies`]
    /// and its probe resolves as unanswered.
    fn demux_replies(&mut self) {
        for slot_idx in 0..self.eng.replies.len() {
            let Some(bytes) = self.eng.replies.get(slot_idx) else {
                // No reply by the probe's deadline (lost on the wire, or
                // late past the timeout): a typed timeout, feeding the
                // retry machinery exactly like a lost reply.
                self.eng.stats.probes_timed_out += 1;
                continue;
            };
            let Ok(parsed) = parse_reply(bytes) else {
                self.eng.stats.malformed_replies += 1;
                continue;
            };
            let Some(&entry) = self.eng.dispatch.get(slot_idx) else {
                debug_assert!(false, "more reply slots than probes");
                self.eng.stats.mismatched_replies += 1;
                continue;
            };
            if ProbeTag::of_reply(&parsed) != Some(entry.tag) {
                self.eng.stats.mismatched_replies += 1;
                continue;
            }
            let Some(slot) = self.slots.get_mut(entry.session) else {
                debug_assert!(false, "dispatch entry names an unknown session");
                self.eng.stats.mismatched_replies += 1;
                continue;
            };
            let Some(&request) = slot.round.get(entry.spec) else {
                debug_assert!(false, "dispatch entry outlived its round");
                self.eng.stats.mismatched_replies += 1;
                continue;
            };
            let timestamp = self.eng.replies.timestamp(slot_idx);
            // The tags matched, so the reply's kind is the request's: an
            // ICMP error for a UDP probe, an Echo Reply from the pinged
            // target, echoing its sequence, for an echo probe.
            let outcome = match request {
                // The acceptance rule for UDP probes: the reply must
                // quote the flow we probed with.
                ProbeRequest::Udp(spec) => {
                    ProbeObservation::from_reply(spec, parsed, slot.destination, timestamp)
                        .map(ProbeOutcome::Udp)
                }
                ProbeRequest::Echo { target } => Some(ProbeOutcome::Echo(DirectObservation {
                    target,
                    ip_id: parsed.reply_ip_id,
                    probe_ip_id: entry.tag.sequence,
                    reply_ttl: parsed.reply_ttl,
                    timestamp,
                })),
            };
            let Some(outcome) = outcome else {
                self.eng.stats.mismatched_replies += 1;
                continue;
            };
            if let Some(result) = slot.results.get_mut(entry.spec) {
                *result = Some(outcome);
                slot.delivered_cycle += 1;
                self.cycle_delivered += 1;
                self.eng.stats.replies_delivered += 1;
            }
        }
    }

    /// Applies the AIMD rules to the global budget and the per-lane
    /// allowances from the just-demultiplexed cycle.
    fn adapt_budget(&mut self) {
        let dispatched = self.eng.packets.len();
        if dispatched == 0 {
            return;
        }
        let loss = 1.0 - self.cycle_delivered as f64 / dispatched as f64;
        // Classify the cycle against the loss threshold — the default
        // controller's threshold when the budget is fixed, so the
        // clean/lossy counters mean the same thing in both modes.
        let threshold = self.eng.config.adaptive.map_or_else(
            || AdaptiveBudget::default().loss_threshold,
            |c| c.loss_threshold,
        );
        if loss > threshold {
            self.eng.stats.lossy_cycles += 1;
        } else {
            self.eng.stats.clean_cycles += 1;
        }
        let Some(cfg) = self.eng.config.adaptive else {
            return;
        };
        if loss > cfg.loss_threshold {
            let floor = cfg.min_in_flight as f64;
            let next = (self.eng.budget * cfg.backoff).max(floor);
            if next < self.eng.budget {
                self.eng.stats.budget_backoffs += 1;
            }
            self.eng.budget = next;
        } else {
            self.eng.budget =
                (self.eng.budget + cfg.increase as f64).min(self.eng.config.max_in_flight as f64);
        }
        let mut lane_backoffs = 0u64;
        for slot in &mut self.slots {
            let lane_sent = slot.dispatched_cycle as usize;
            if lane_sent == 0 {
                continue;
            }
            let lane_loss = 1.0 - slot.delivered_cycle as f64 / lane_sent as f64;
            if lane_loss > cfg.loss_threshold {
                slot.allowance = (slot.allowance / 2).max(1);
                lane_backoffs += 1;
            } else {
                slot.allowance = slot
                    .allowance
                    .saturating_add(cfg.increase)
                    .min(self.eng.config.max_in_flight);
            }
        }
        self.eng.stats.lane_backoffs += lane_backoffs;
    }

    /// Completes retry waves and hands finished rounds to their
    /// sessions.
    ///
    /// The accounting audit trail (see the module docs): a wave is
    /// resolved only once fully dispatched (`cursor == wave.len()`), at
    /// which point the split transport has given every one of its probes
    /// a reply slot — answered slots were delivered by the demux pass,
    /// unanswered ones were charged to
    /// [`SweepStats::probes_timed_out`]. Unanswered requests feed the
    /// next retry wave while [`SweepConfig::retries`] allows; the last
    /// wave's leftovers are charged to
    /// [`SweepStats::retries_exhausted`] and the round finalizes with an
    /// honest `None` per missing reply, so every dispatched probe
    /// resolves exactly once and no schedule can wedge a round.
    fn resolve_waves(&mut self) {
        let mut repending = 0usize;
        for slot in &mut self.slots {
            if !slot.active || slot.cursor < slot.wave.len() {
                continue; // wave still (partially) undispatched
            }
            let still: Vec<usize> = slot
                .wave
                .iter()
                .copied()
                .filter(|&s| slot.results.get(s).is_some_and(Option::is_none))
                .collect();
            // Wave-granular deadline backoff: a lossy wave deepens this
            // lane's timeout exponent, a clean one decays it. Waves are
            // protocol state (their composition is independent of how
            // cycles sliced them), so the depth — and through it every
            // deadline — is identical across admission modes.
            if still.is_empty() {
                slot.backoff_depth = slot.backoff_depth.saturating_sub(1);
            } else {
                slot.backoff_depth = slot.backoff_depth.saturating_add(1);
                self.eng.stats.max_lane_backoff_depth = self
                    .eng
                    .stats
                    .max_lane_backoff_depth
                    .max(slot.backoff_depth);
            }
            // Stop-set retry elision: a timed-out probe whose
            // `(TTL, interface)` the session's adopted snapshot already
            // predicts is dropped from the wave instead of re-probed —
            // the session proxy-adopts the predicted responder from the
            // honest `None` slot. The verdict depends only on the
            // frozen snapshot and the probe itself (protocol state), so
            // waves stay identical across admission modes and budgets.
            let retained: Vec<usize> =
                if still.is_empty() || slot.attempt >= self.eng.config.retries {
                    self.eng.stats.retries_exhausted += still.len() as u64;
                    Vec::new()
                } else {
                    let kept: Vec<usize> = still
                        .iter()
                        .copied()
                        .filter(|&s| {
                            slot.round
                                .get(s)
                                .is_none_or(|request| slot.session.should_retry(request))
                        })
                        .collect();
                    self.eng.stats.retries_elided += (still.len() - kept.len()) as u64;
                    kept
                };
            if retained.is_empty() {
                let answered = slot.results.iter().any(Option::is_some);
                slot.session.note_wire_probes(slot.round_wire);
                slot.round_wire = 0;
                slot.session.on_replies(&mut slot.results);
                slot.active = false;
                // The stall watchdog counts completed all-silent rounds
                // — session-round granularity, so it too is protocol
                // state and trips identically however the sweep is
                // scheduled.
                if answered {
                    slot.silent_rounds = 0;
                } else {
                    slot.silent_rounds = slot.silent_rounds.saturating_add(1);
                    let limit = self.eng.config.stall_rounds;
                    if limit > 0 && slot.silent_rounds >= limit && slot.partial.is_none() {
                        let reason = PartialReason::Stalled {
                            silent_rounds: slot.silent_rounds,
                        };
                        slot.partial = Some(reason);
                        slot.session.abort(reason);
                        self.eng.stats.sessions_partial += 1;
                    }
                }
            } else {
                slot.attempt += 1;
                repending += retained.len();
                slot.wave = retained;
                slot.cursor = 0;
            }
        }
        self.pending += repending;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TraceConfig;
    use crate::prober::ProbeSpec;
    use crate::session::{MdaLiteSession, MdaSession, SingleFlowSession};
    use crate::trace::Trace;
    use mlpt_sim::SimNetwork;
    use mlpt_topo::canonical;
    use mlpt_wire::transport::PacketTransport;
    use mlpt_wire::FlowId;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

    /// A session probing one fixed round, keeping what came back.
    struct OneRound {
        destination: Ipv4Addr,
        round: Vec<ProbeRequest>,
        got: Vec<Option<ProbeOutcome>>,
        wire: u64,
        done: bool,
    }

    impl OneRound {
        fn new(destination: Ipv4Addr, round: Vec<ProbeRequest>) -> Self {
            OneRound {
                destination,
                round,
                got: Vec::new(),
                wire: 0,
                done: false,
            }
        }
    }

    impl ProbeSession for OneRound {
        fn poll(&mut self) -> SessionState {
            if self.done {
                SessionState::Finished
            } else {
                SessionState::Probing
            }
        }
        fn next_rounds(&self) -> &[ProbeRequest] {
            &self.round
        }
        fn on_replies(&mut self, results: &mut [Option<ProbeOutcome>]) {
            self.got.extend(results.iter_mut().map(Option::take));
            self.done = true;
        }
        fn destination(&self) -> Ipv4Addr {
            self.destination
        }
        fn note_wire_probes(&mut self, count: u64) {
            self.wire += count;
        }
    }

    /// One crossing's reply slots as owned `(reply, timestamp)` pairs.
    type Slots = Vec<(Option<Vec<u8>>, u64)>;

    /// A transport whose reply slots pass through `rewrite` (given the
    /// crossing's probes) before the engine reads them.
    struct Rewriting<T, F> {
        inner: T,
        sent: Vec<Vec<u8>>,
        rewrite: F,
    }

    impl<T: SplitTransport, F> PacketTransport for Rewriting<T, F> {
        fn send_packet(&mut self, packet: &[u8]) -> Option<Vec<u8>> {
            self.inner.send_packet(packet)
        }
        fn now(&self) -> u64 {
            self.inner.now()
        }
    }

    impl<T: SplitTransport, F: FnMut(&[Vec<u8>], &mut Slots)> SplitTransport for Rewriting<T, F> {
        fn send_probes(&mut self, probes: &PacketBatch, timeouts: &[u64]) {
            self.sent = probes.iter().map(<[u8]>::to_vec).collect();
            self.inner.send_probes(probes, timeouts);
        }
        fn recv_replies(&mut self, replies: &mut ReplyBatch) {
            self.inner.recv_replies(replies);
            let mut slots: Slots = replies
                .iter()
                .map(|(reply, at)| (reply.map(<[u8]>::to_vec), at))
                .collect();
            (self.rewrite)(&self.sent, &mut slots);
            replies.clear();
            for (reply, at) in slots {
                replies.push_with(at, |buf| match reply {
                    Some(bytes) => {
                        buf.extend_from_slice(&bytes);
                        true
                    }
                    None => false,
                });
            }
        }
    }

    /// Swaps the first two answered slots of a crossing; returns whether
    /// it found two.
    fn swap_first_answered(slots: &mut Slots) -> bool {
        let answered: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].0.is_some()).collect();
        let [first, second, ..] = answered[..] else {
            return false;
        };
        let reply = slots[first].0.take();
        slots[first].0 = slots[second].0.replace(reply.expect("answered"));
        true
    }

    /// Asserts the four-bucket accounting invariant of the module docs.
    fn assert_partitioned(stats: &SweepStats) {
        assert_eq!(
            stats.probes_timed_out
                + stats.replies_delivered
                + stats.malformed_replies
                + stats.mismatched_replies,
            stats.probes_sent
        );
    }

    /// The slot contract: a reply is checked against the probe whose
    /// slot it fills. Two replies crossed between slots are both
    /// mismatched, even though each names an in-flight probe, and
    /// neither reaches a session.
    #[test]
    fn crossed_slot_replies_are_mismatched() {
        let topo = canonical::fig1_unmeshed();
        let d = topo.destination();
        let round = (1..=4)
            .map(|ttl| ProbeRequest::Udp(ProbeSpec::new(FlowId(5), ttl)))
            .collect();
        let net = Rewriting {
            inner: SimNetwork::new(topo, 3),
            sent: Vec::new(),
            rewrite: |_: &[Vec<u8>], slots: &mut Slots| {
                assert!(swap_first_answered(slots));
            },
        };
        let mut engine = SweepEngine::new(net, SRC);
        let (session, probes) = engine.run_session(OneRound::new(d, round));
        assert_eq!(probes, 4);
        assert!(session.got[..2].iter().all(Option::is_none));
        assert!(session.got[2..].iter().all(Option::is_some));
        let stats = engine.stats();
        assert_eq!(stats.mismatched_replies, 2);
        assert_eq!(stats.replies_delivered, 2);
        assert_partitioned(stats);
    }

    /// The same swap on every crossing of a lossy multi-session sweep
    /// with retries: exactly the crossed replies are mismatched, and the
    /// four buckets still partition `probes_sent`.
    #[test]
    fn crossed_slots_keep_the_accounting_exact() {
        use mlpt_sim::{FaultPlan, MultiNetwork};
        let lanes = (0..4u32)
            .map(|i| {
                let topo = canonical::fig1_meshed().translated(0x0100_0000 * (i + 1) + i);
                SimNetwork::builder(topo)
                    .faults(FaultPlan::with_loss(0.0, 0.1))
                    .seed(u64::from(i))
                    .build()
            })
            .collect::<Vec<_>>();
        let dests: Vec<Ipv4Addr> = lanes.iter().map(|l| l.topology().destination()).collect();
        let mut swaps = 0u64;
        let net = Rewriting {
            inner: MultiNetwork::new(lanes).expect("distinct destinations"),
            sent: Vec::new(),
            rewrite: |_: &[Vec<u8>], slots: &mut Slots| {
                swaps += u64::from(swap_first_answered(slots));
            },
        };
        let mut engine = SweepEngine::new(net, SRC).with_config(SweepConfig {
            retries: 2,
            ..SweepConfig::default()
        });
        let sessions = dests.iter().map(|&d| {
            Box::new(MdaLiteSession::new(d, TraceConfig::new(1))) as Box<dyn TraceSession>
        });
        let traces = engine.run_stream(sessions);
        assert_eq!(traces.len(), 4);
        let stats = *engine.stats();
        drop(engine);
        assert!(swaps > 0);
        assert_eq!(stats.mismatched_replies, 2 * swaps);
        assert_eq!(stats.malformed_replies, 0);
        assert_partitioned(&stats);
    }

    /// Tags are kind-tagged: a reply of the other kind that gives back a
    /// probe's address and sequence, placed in that probe's slot, is
    /// mismatched. Here an Echo Reply from the destination echoing a UDP
    /// probe's sequence, and a Time Exceeded quoting a UDP probe towards
    /// an echo probe's target with that probe's sequence.
    #[test]
    fn replies_of_the_other_kind_are_mismatched() {
        use mlpt_topo::graph::addr;
        use mlpt_wire::icmp::{emit_echo_into, emit_error_into, IcmpType, CODE_TTL_EXCEEDED};
        use mlpt_wire::ipv4::PROTO_ICMP;
        use mlpt_wire::probe::{build_udp_probe, parse_udp_probe};
        use mlpt_wire::Ipv4Header;
        let topo = canonical::simplest_diamond();
        let d = topo.destination();
        let round = vec![
            ProbeRequest::Udp(ProbeSpec::new(FlowId(2), 1)),
            ProbeRequest::Udp(ProbeSpec::new(FlowId(2), 9)),
            ProbeRequest::Echo { target: addr(1, 0) },
        ];
        let datagram = |from: Ipv4Addr, icmp: &[u8]| {
            let ip = Ipv4Header::new(from, SRC, PROTO_ICMP, 60, 7, icmp.len());
            let mut reply = ip.emit().to_vec();
            reply.extend_from_slice(icmp);
            reply
        };
        let net = Rewriting {
            inner: SimNetwork::new(topo, 1),
            sent: Vec::new(),
            rewrite: |sent: &[Vec<u8>], slots: &mut Slots| {
                let udp = parse_udp_probe(&sent[1]).expect("a UDP probe");
                let mut icmp = Vec::new();
                emit_echo_into(
                    IcmpType::EchoReply,
                    ECHO_IDENTIFIER,
                    udp.sequence,
                    b"",
                    &mut icmp,
                );
                slots[1].0 = Some(datagram(udp.destination, &icmp));

                // An echo probe carries its sequence in its IP ID too.
                let (echo, _) = Ipv4Header::parse(&sent[2]).expect("an echo probe");
                let quoted = build_udp_probe(&ProbePacket {
                    source: SRC,
                    destination: echo.destination,
                    flow: FlowId(2),
                    ttl: 1,
                    sequence: echo.identification,
                });
                icmp.clear();
                emit_error_into(
                    IcmpType::TimeExceeded,
                    CODE_TTL_EXCEEDED,
                    &quoted,
                    &[],
                    &mut icmp,
                );
                slots[2].0 = Some(datagram(addr(0, 0), &icmp));
            },
        };
        let mut engine = SweepEngine::new(net, SRC);
        let (session, _) = engine.run_session(OneRound::new(d, round));
        assert!(matches!(session.got[0], Some(ProbeOutcome::Udp(_))));
        assert_eq!(session.got[1..], [None, None]);
        assert_eq!(engine.stats().mismatched_replies, 2);
        assert_partitioned(engine.stats());
    }

    /// A reply quoting another sequence than its slot's probe carries
    /// (here the next one the session would send) is mismatched.
    #[test]
    fn reply_quoting_another_sequence_is_mismatched() {
        let topo = canonical::simplest_diamond();
        let d = topo.destination();
        let round = vec![ProbeRequest::Udp(ProbeSpec::new(FlowId(4), 1))];
        let net = Rewriting {
            inner: SimNetwork::new(topo, 1),
            sent: Vec::new(),
            rewrite: |_: &[Vec<u8>], slots: &mut Slots| {
                let reply = slots[0].0.as_mut().expect("answered");
                let parsed = parse_reply(reply).expect("a valid reply");
                assert_eq!(parsed.probe_sequence, Some(1));
                // The quote's IP ID sits at byte 4 of the quoted header,
                // after the 20-byte reply header and the 8-byte ICMP
                // header. The quote's own checksum may go stale (tools
                // parse quotes leniently); the ICMP checksum is redone.
                reply[20 + 8 + 5] = 2;
                reply[22..24].copy_from_slice(&[0, 0]);
                let sum = mlpt_wire::checksum::internet_checksum(&reply[20..]);
                reply[22..24].copy_from_slice(&sum.to_be_bytes());
                assert_eq!(parse_reply(reply).unwrap().probe_sequence, Some(2));
            },
        };
        let mut engine = SweepEngine::new(net, SRC);
        let (session, _) = engine.run_session(OneRound::new(d, round));
        assert_eq!(session.got, vec![None]);
        assert_eq!(engine.stats().mismatched_replies, 1);
        assert_eq!(engine.stats().replies_delivered, 0);
        assert_partitioned(engine.stats());
    }

    /// The merge audit behind sharded-sweep aggregation: summed
    /// counters saturate at the rail instead of wrapping, high-water
    /// marks (`max_batch`, `max_lane_backoff_depth`) merge as max —
    /// never as sums — and `final_in_flight_budget` keeps the most
    /// recent value.
    #[test]
    fn stats_merge_saturates_and_maxes() {
        let mut total = SweepStats {
            probes_sent: u64::MAX - 3,
            probes_timed_out: u64::MAX,
            max_batch: 12,
            max_lane_backoff_depth: 5,
            final_in_flight_budget: 64,
            generation_barrier_stalls: u64::MAX - 1,
            ..SweepStats::default()
        };
        let shard = SweepStats {
            probes_sent: 10,
            probes_timed_out: 1,
            max_batch: 7,
            max_lane_backoff_depth: 3,
            final_in_flight_budget: 8,
            generation_barrier_stalls: 9,
            dispatch_cycles: 4,
            ..SweepStats::default()
        };
        total.merge(&shard);
        // Near-rail sums clamp instead of wrapping back to tiny values.
        assert_eq!(total.probes_sent, u64::MAX);
        assert_eq!(total.probes_timed_out, u64::MAX);
        assert_eq!(total.generation_barrier_stalls, u64::MAX);
        // High-water marks merge as max, not sum: a backoff *depth* is
        // an exponent, so 5 + 3 would fabricate backoff that never ran.
        assert_eq!(total.max_batch, 12);
        assert_eq!(total.max_lane_backoff_depth, 5);
        // Ordinary counters still sum; the budget keeps the newest value.
        assert_eq!(total.dispatch_cycles, 4);
        assert_eq!(total.final_in_flight_budget, 8);

        // Max semantics hold in the other direction too.
        let mut low = SweepStats {
            max_lane_backoff_depth: 2,
            max_batch: 3,
            ..SweepStats::default()
        };
        low.merge(&shard);
        assert_eq!(low.max_lane_backoff_depth, 3);
        assert_eq!(low.max_batch, 7);
        assert_eq!(low.probes_sent, 10);

        // An engine that never ran (all-zero stats, e.g. an empty
        // shard) must not clobber the aggregate's final budget.
        total.merge(&SweepStats::default());
        assert_eq!(total.final_in_flight_budget, 8);
    }

    #[test]
    fn stats_merge_covers_every_field() {
        // Every field distinct and nonzero on both sides, so a counter
        // the merge drops or mis-routes shows up as a wrong value. The
        // result is destructured with NO `..`: adding a field to
        // `SweepStats` breaks this test at compile time until its merge
        // semantics are asserted here (`merge` destructures its argument
        // the same way).
        let mut merged = SweepStats {
            dispatch_cycles: 1,
            probes_sent: 2,
            replies_delivered: 3,
            malformed_replies: 4,
            mismatched_replies: 5,
            max_batch: 6,
            sessions_admitted: 7,
            sessions_completed: 8,
            sessions_deferred: 9,
            clean_cycles: 10,
            lossy_cycles: 11,
            budget_backoffs: 12,
            lane_backoffs: 13,
            final_in_flight_budget: 14,
            probes_timed_out: 15,
            retries_exhausted: 16,
            sessions_partial: 17,
            max_lane_backoff_depth: 18,
            probes_elided: 19,
            stop_set_hits: 20,
            retries_elided: 21,
            artifacts_detected: 22,
            route_recoveries: 23,
            reprobes_sent: 24,
            route_changed_partials: 25,
            stop_set_stale_hits: 26,
            stop_set_evictions: 27,
            generation_barrier_stalls: 28,
        };
        let other = SweepStats {
            dispatch_cycles: 101,
            probes_sent: 102,
            replies_delivered: 103,
            malformed_replies: 104,
            mismatched_replies: 105,
            max_batch: 106,
            sessions_admitted: 107,
            sessions_completed: 108,
            sessions_deferred: 109,
            clean_cycles: 110,
            lossy_cycles: 111,
            budget_backoffs: 112,
            lane_backoffs: 113,
            final_in_flight_budget: 114,
            probes_timed_out: 115,
            retries_exhausted: 116,
            sessions_partial: 117,
            max_lane_backoff_depth: 118,
            probes_elided: 119,
            stop_set_hits: 120,
            retries_elided: 121,
            artifacts_detected: 122,
            route_recoveries: 123,
            reprobes_sent: 124,
            route_changed_partials: 125,
            stop_set_stale_hits: 126,
            stop_set_evictions: 127,
            generation_barrier_stalls: 128,
        };
        merged.merge(&other);
        let SweepStats {
            dispatch_cycles,
            probes_sent,
            replies_delivered,
            malformed_replies,
            mismatched_replies,
            max_batch,
            sessions_admitted,
            sessions_completed,
            sessions_deferred,
            clean_cycles,
            lossy_cycles,
            budget_backoffs,
            lane_backoffs,
            final_in_flight_budget,
            probes_timed_out,
            retries_exhausted,
            sessions_partial,
            max_lane_backoff_depth,
            probes_elided,
            stop_set_hits,
            retries_elided,
            artifacts_detected,
            route_recoveries,
            reprobes_sent,
            route_changed_partials,
            stop_set_stale_hits,
            stop_set_evictions,
            generation_barrier_stalls,
        } = merged;
        // Counters sum.
        assert_eq!(dispatch_cycles, 102);
        assert_eq!(probes_sent, 104);
        assert_eq!(replies_delivered, 106);
        assert_eq!(malformed_replies, 108);
        assert_eq!(mismatched_replies, 110);
        assert_eq!(sessions_admitted, 114);
        assert_eq!(sessions_completed, 116);
        assert_eq!(sessions_deferred, 118);
        assert_eq!(clean_cycles, 120);
        assert_eq!(lossy_cycles, 122);
        assert_eq!(budget_backoffs, 124);
        assert_eq!(lane_backoffs, 126);
        assert_eq!(probes_timed_out, 130);
        assert_eq!(retries_exhausted, 132);
        assert_eq!(sessions_partial, 134);
        assert_eq!(probes_elided, 138);
        assert_eq!(stop_set_hits, 140);
        assert_eq!(retries_elided, 142);
        assert_eq!(artifacts_detected, 144);
        assert_eq!(route_recoveries, 146);
        assert_eq!(reprobes_sent, 148);
        assert_eq!(route_changed_partials, 150);
        assert_eq!(stop_set_stale_hits, 152);
        assert_eq!(stop_set_evictions, 154);
        assert_eq!(generation_barrier_stalls, 156);
        // High-water marks take the max.
        assert_eq!(max_batch, 106);
        assert_eq!(max_lane_backoff_depth, 118);
        // The budget keeps the newest nonzero value.
        assert_eq!(final_in_flight_budget, 114);
    }

    /// A streamed source with a duplicate destination defers the second
    /// session until the first finishes, instead of failing: both traces
    /// come back, in source order.
    #[test]
    fn streamed_duplicate_destination_is_deferred() {
        let topo = canonical::fig1_unmeshed();
        let d = topo.destination();
        let net = SimNetwork::new(topo, 5);
        let mut engine = SweepEngine::new(net, SRC);
        let sessions: Vec<Box<dyn TraceSession>> = vec![
            Box::new(SingleFlowSession::new(d, TraceConfig::new(1), FlowId(1))),
            Box::new(SingleFlowSession::new(d, TraceConfig::new(2), FlowId(2))),
        ];
        let traces = engine.run_stream(sessions);
        assert_eq!(traces.len(), 2);
        assert!(traces.iter().all(|t| t.reached_destination));
        assert_eq!(engine.stats().sessions_deferred, 1);
        assert_eq!(engine.stats().sessions_completed, 2);
    }

    /// FNV-1a-64 of a value's `Debug` rendering.
    fn debug_digest(value: &impl std::fmt::Debug) -> u64 {
        format!("{value:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
                (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// A single-session sweep over a plain SimNetwork is bit-identical to
    /// what the retired blocking driver (one blocking prober per trace)
    /// produced over an identically seeded network: its trace digest and
    /// packet count, frozen while both ran.
    #[test]
    fn single_session_sweep_matches_blocking_driver() {
        let topo = canonical::fig1_meshed();
        let d = topo.destination();
        let mut engine = SweepEngine::new(SimNetwork::new(topo, 5), SRC);
        let sweep = engine
            .run_trace(MdaLiteSession::new(d, TraceConfig::new(9)))
            .0;
        assert_eq!(debug_digest(&sweep), 0x52de_575f_a229_bc59);
        assert_eq!(sweep.probes_sent, 125);
        assert_eq!(engine.stats().probes_sent, 125);
    }

    /// The token budget only slices rounds across cycles; it never
    /// changes what a session observes.
    #[test]
    fn tiny_in_flight_budget_is_transparent() {
        let topo = canonical::fig1_unmeshed();
        let d = topo.destination();
        let run = |max_in_flight: usize| -> (Trace, SweepStats) {
            let mut engine =
                SweepEngine::new(SimNetwork::new(topo.clone(), 3), SRC).with_config(SweepConfig {
                    max_in_flight,
                    ..SweepConfig::default()
                });
            let trace = engine.run_trace(MdaSession::new(d, TraceConfig::new(4))).0;
            (trace, *engine.stats())
        };
        let (big, big_stats) = run(4096);
        let (tiny, tiny_stats) = run(2);
        assert_eq!(big, tiny);
        assert_eq!(big_stats.probes_sent, tiny_stats.probes_sent);
        assert!(tiny_stats.dispatch_cycles > big_stats.dispatch_cycles);
        assert!(tiny_stats.max_batch <= 2);
    }

    /// Retry waves keep the retired blocking prober's retry semantics:
    /// under total loss every probe goes out `1 + retries` times, and
    /// the trace's evidence and packet count equal what the blocking
    /// prober produced with two retries (frozen while both ran).
    #[test]
    fn retries_match_prober_semantics() {
        use mlpt_sim::FaultPlan;
        let topo = canonical::simplest_diamond();
        let d = topo.destination();
        let lossy = SimNetwork::builder(topo)
            .faults(FaultPlan::with_loss(1.0, 0.0))
            .seed(1)
            .build();
        let mut engine = SweepEngine::new(lossy, SRC).with_config(SweepConfig {
            max_in_flight: 1024,
            retries: 2,
            ..SweepConfig::default()
        });
        let session = SingleFlowSession::new(d, TraceConfig::new(1), FlowId(0));
        let trace = engine.run_trace(session).0;
        assert!(!trace.reached_destination);
        assert_eq!(trace.probes_sent, 120);
        assert_eq!(
            engine.stats().probes_sent,
            3 * engine.stats().retries_exhausted
        );
        assert_eq!(debug_digest(&trace.discovery), 0xe376_8309_cba6_2bd6);
    }

    /// The AIMD controller ramps down under loss and never changes what a
    /// session observes (per-lane streams are independent of slicing).
    #[test]
    fn adaptive_budget_is_transparent_and_backs_off() {
        use mlpt_sim::FaultPlan;
        let topo = canonical::fig1_unmeshed();
        let d = topo.destination();
        let lossy = || {
            SimNetwork::builder(topo.clone())
                .faults(FaultPlan::with_loss(0.0, 0.3))
                .seed(11)
                .build()
        };
        let run = |adaptive: Option<AdaptiveBudget>| -> (Trace, SweepStats) {
            let mut engine = SweepEngine::new(lossy(), SRC).with_config(SweepConfig {
                max_in_flight: 64,
                retries: 1,
                adaptive,
                ..SweepConfig::default()
            });
            let trace = engine.run_trace(MdaSession::new(d, TraceConfig::new(3))).0;
            (trace, *engine.stats())
        };
        let (fixed, _) = run(None);
        let (adaptive, stats) = run(Some(AdaptiveBudget {
            min_in_flight: 2,
            ..AdaptiveBudget::default()
        }));
        assert_eq!(fixed, adaptive, "budget adaptation must not change results");
        assert!(stats.budget_backoffs > 0, "30% loss must trigger backoff");
        assert!(stats.lossy_cycles > 0);
        assert!(stats.final_in_flight_budget < 64);
    }

    /// Cost-aware admission starts the heaviest predicted sessions
    /// first: with a budget that admits one session at a time, the
    /// admission order is exactly descending predicted cost (ties by
    /// source index).
    #[test]
    fn cost_aware_admits_heaviest_first() {
        use std::cell::RefCell;
        use std::rc::Rc;

        /// A single-round session that records when it was admitted
        /// (its first poll) into a shared log.
        struct CostedSession {
            destination: Ipv4Addr,
            cost: u64,
            round: Vec<ProbeRequest>,
            log: Rc<RefCell<Vec<u64>>>,
            logged: bool,
            done: bool,
        }
        impl ProbeSession for CostedSession {
            fn poll(&mut self) -> SessionState {
                if !self.logged {
                    self.logged = true;
                    self.log.borrow_mut().push(self.cost);
                }
                if self.done {
                    SessionState::Finished
                } else {
                    SessionState::Probing
                }
            }
            fn next_rounds(&self) -> &[ProbeRequest] {
                &self.round
            }
            fn on_replies(&mut self, _results: &mut [Option<ProbeOutcome>]) {
                self.done = true;
            }
            fn destination(&self) -> Ipv4Addr {
                self.destination
            }
            fn predicted_cost(&self) -> u64 {
                self.cost
            }
        }

        let topo = canonical::simplest_diamond();
        let lanes: Vec<mlpt_topo::MultipathTopology> = (0..5u32)
            .map(|i| topo.translated(0x0100_0000 * (i + 1)))
            .collect();
        let nets: Vec<SimNetwork> = lanes
            .iter()
            .map(|t| SimNetwork::new(t.clone(), 3))
            .collect();
        let net = mlpt_sim::MultiNetwork::new(nets).expect("unique destinations");
        let mut engine = SweepEngine::new(net, SRC).with_config(SweepConfig {
            max_in_flight: 1, // admit strictly one session per cycle
            admission: Admission::CostAware(usize::MAX),
            ..SweepConfig::default()
        });
        let log = Rc::new(RefCell::new(Vec::new()));
        let costs = [7u64, 100, 3, 55, 12];
        let sessions: Vec<CostedSession> = lanes
            .iter()
            .zip(costs)
            .map(|(t, cost)| CostedSession {
                destination: t.destination(),
                cost,
                round: vec![ProbeRequest::Udp(ProbeSpec::new(FlowId(1), 1))],
                log: Rc::clone(&log),
                logged: false,
                done: false,
            })
            .collect();
        let mut finished = 0usize;
        engine.run_sessions_with(sessions, |_, _, _| finished += 1);
        assert_eq!(finished, 5);
        assert_eq!(*log.borrow(), vec![100, 55, 12, 7, 3]);
    }

    /// The deferred-queue regression test (and the satellite bugfix's
    /// acceptance): many sessions towards the *same* destination — the
    /// worst case for the old whole-queue rescans — still come back in
    /// source order, one admission per completion, with outputs and
    /// counters identical across FIFO and cost-aware admission. The
    /// per-destination FIFO order is observable here: every session
    /// shares the single lane's RNG/clock stream, so any reordering
    /// would change the traces, not just the schedule.
    #[test]
    fn duplicate_destinations_keep_source_order() {
        const SESSIONS: usize = 24;
        let topo = canonical::fig1_unmeshed();
        let d = topo.destination();
        let run = |admission: Admission| -> (Vec<Trace>, SweepStats) {
            let net = SimNetwork::new(topo.clone(), 5);
            let mut engine = SweepEngine::new(net, SRC).with_config(SweepConfig {
                max_in_flight: 64,
                admission,
                ..SweepConfig::default()
            });
            // Distinct probe budgets give every session a distinct
            // predicted cost, so cost-aware ordering *would* reorder
            // them — the per-destination FIFO fix must win.
            let sessions: Vec<Box<dyn TraceSession>> = (0..SESSIONS)
                .map(|i| {
                    let config = TraceConfig::new(9).with_probe_budget(200 + i as u64);
                    Box::new(MdaSession::new(d, config)) as Box<dyn TraceSession>
                })
                .collect();
            let traces = engine.run_stream(sessions);
            (traces, *engine.stats())
        };
        let (fifo, fifo_stats) = run(Admission::Streaming);
        let (cost, cost_stats) = run(Admission::CostAware(usize::MAX));
        assert_eq!(fifo.len(), SESSIONS);
        assert_eq!(fifo, cost, "same-destination sessions must stay FIFO");
        assert_eq!(fifo_stats.probes_sent, cost_stats.probes_sent);
        // Every session after the first waited for the lane at least
        // once; each is counted exactly once.
        assert_eq!(fifo_stats.sessions_deferred, SESSIONS as u64 - 1);
        assert_eq!(cost_stats.sessions_deferred, SESSIONS as u64 - 1);
        assert_eq!(fifo_stats.sessions_admitted, SESSIONS as u64);
        assert_eq!(fifo_stats.sessions_completed, SESSIONS as u64);
    }

    /// Cost-aware admission is pure scheduling: a multi-lane sweep's
    /// traces and wire totals are bit-identical to streaming admission.
    #[test]
    fn cost_aware_matches_streaming() {
        let lanes: Vec<mlpt_topo::MultipathTopology> = (0..10u32)
            .map(|i| canonical::fig1_meshed().translated(0x0100_0000 * (i + 1)))
            .collect();
        let run = |admission: Admission| -> (Vec<Trace>, SweepStats) {
            let nets: Vec<SimNetwork> = lanes
                .iter()
                .enumerate()
                .map(|(i, t)| SimNetwork::new(t.clone(), 11 + i as u64))
                .collect();
            let net = mlpt_sim::MultiNetwork::new(nets).expect("unique destinations");
            let mut engine = SweepEngine::new(net, SRC).with_config(SweepConfig {
                max_in_flight: 24,
                admission,
                ..SweepConfig::default()
            });
            let sessions: Vec<Box<dyn TraceSession>> = lanes
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    // Varied budgets → varied predicted costs → a real
                    // reorder under cost-aware admission.
                    let config = TraceConfig::new(i as u64).with_probe_budget(500 + 37 * i as u64);
                    Box::new(MdaSession::new(t.destination(), config)) as Box<dyn TraceSession>
                })
                .collect();
            let traces = engine.run_stream(sessions);
            (traces, *engine.stats())
        };
        let (streaming, streaming_stats) = run(Admission::Streaming);
        let (cost_aware, cost_stats) = run(Admission::CostAware(usize::MAX));
        assert_eq!(streaming, cost_aware);
        assert_eq!(streaming_stats.probes_sent, cost_stats.probes_sent);
        assert_eq!(cost_stats.sessions_admitted, 10);
        assert_eq!(cost_stats.sessions_completed, 10);
    }

    /// A hand-rolled ProbeSession mixing UDP and echo requests in one
    /// round: the engine dispatches both kinds through one batch, routes
    /// the Echo Reply by its echoed tag, and reports wire probes.
    #[test]
    fn mixed_kind_session_round_trips() {
        use mlpt_topo::graph::addr;

        let topo = canonical::simplest_diamond();
        let d = topo.destination();
        let target = addr(1, 0);
        let session = OneRound::new(
            d,
            vec![
                ProbeRequest::Udp(ProbeSpec::new(FlowId(3), 1)),
                ProbeRequest::Echo { target },
                ProbeRequest::Udp(ProbeSpec::new(FlowId(3), 3)),
            ],
        );
        let mut engine = SweepEngine::new(SimNetwork::new(topo, 1), SRC);
        let (session, probes) = engine.run_session(session);
        assert_eq!(probes, 3);
        assert_eq!(session.wire, 3);
        assert_eq!(session.got.len(), 3);
        let Some(ProbeOutcome::Udp(first)) = &session.got[0] else {
            panic!("expected a UDP observation, got {:?}", session.got[0]);
        };
        assert_eq!(first.responder, addr(0, 0));
        let Some(ProbeOutcome::Echo(echo)) = &session.got[1] else {
            panic!("expected an echo observation, got {:?}", session.got[1]);
        };
        assert_eq!(echo.target, target);
        let Some(ProbeOutcome::Udp(last)) = &session.got[2] else {
            panic!("expected a UDP observation, got {:?}", session.got[2]);
        };
        assert!(last.at_destination);
        assert_eq!(engine.stats().mismatched_replies, 0);
        assert_eq!(engine.stats().replies_delivered, 3);
    }

    /// The retry-wave accounting invariant from the module docs: every
    /// dispatched probe lands in exactly one bucket, clean or lossy.
    #[test]
    fn timeout_accounting_partitions_probes_sent() {
        use mlpt_sim::FaultPlan;
        let topo = canonical::fig1_meshed();
        let d = topo.destination();
        for reply_loss in [0.0, 0.4, 1.0] {
            let net = SimNetwork::builder(topo.clone())
                .faults(FaultPlan::with_loss(0.0, reply_loss))
                .seed(13)
                .build();
            let mut engine = SweepEngine::new(net, SRC).with_config(SweepConfig {
                retries: 2,
                ..SweepConfig::default()
            });
            let _ = engine.run_trace(MdaLiteSession::new(d, TraceConfig::new(2)));
            let stats = engine.stats();
            assert_eq!(
                stats.probes_timed_out
                    + stats.replies_delivered
                    + stats.malformed_replies
                    + stats.mismatched_replies,
                stats.probes_sent,
                "accounting must partition probes_sent at loss {reply_loss}"
            );
            if reply_loss == 0.0 {
                assert_eq!(stats.probes_timed_out, 0);
                assert_eq!(stats.retries_exhausted, 0);
            } else {
                assert!(stats.probes_timed_out > 0);
            }
            if reply_loss == 1.0 {
                assert!(stats.retries_exhausted > 0);
                assert!(
                    stats.max_lane_backoff_depth > 0,
                    "fully lost waves must deepen the lane's deadline exponent"
                );
            }
        }
    }

    /// A destination that goes dark mid-trace stalls its session; the
    /// watchdog aborts it and the trace reports an honest partial
    /// outcome instead of the sweep hanging or burning its retry budget
    /// forever.
    #[test]
    fn stall_watchdog_reports_partial_outcome() {
        use crate::trace::{PartialReason, TraceOutcome};
        use mlpt_sim::FaultPlan;
        let topo = canonical::fig1_unmeshed();
        let d = topo.destination();
        let net = SimNetwork::builder(topo)
            .faults(FaultPlan::none().with_blackhole(3))
            .seed(5)
            .build();
        let mut engine = SweepEngine::new(net, SRC).with_config(SweepConfig {
            retries: 1,
            stall_rounds: 3,
            ..SweepConfig::default()
        });
        let trace = engine
            .run_trace(MdaLiteSession::new(d, TraceConfig::new(7)))
            .0;
        assert!(!trace.reached_destination);
        assert!(trace.outcome.is_partial());
        let TraceOutcome::Partial {
            reason: PartialReason::Stalled { silent_rounds },
        } = trace.outcome
        else {
            panic!(
                "expected a stalled partial outcome, got {:?}",
                trace.outcome
            );
        };
        assert_eq!(silent_rounds, 3);
        // The prefix below the black hole was still discovered honestly.
        assert!(!trace.vertices_at(1).is_empty());
        assert!(!trace.vertices_at(2).is_empty());
        let stats = engine.stats();
        assert_eq!(stats.sessions_partial, 1);
        assert_eq!(stats.sessions_completed, 1);
        assert!(stats.probes_timed_out > 0);
    }

    /// With the watchdog off (the default), outcomes stay `Complete`
    /// and behaviour is unchanged — the robustness layer is opt-in.
    #[test]
    fn watchdog_disabled_by_default() {
        let topo = canonical::fig1_unmeshed();
        let d = topo.destination();
        let mut engine = SweepEngine::new(SimNetwork::new(topo, 3), SRC);
        let trace = engine
            .run_trace(MdaLiteSession::new(d, TraceConfig::new(3)))
            .0;
        assert_eq!(trace.outcome, crate::trace::TraceOutcome::Complete);
        assert_eq!(engine.stats().sessions_partial, 0);
    }

    /// Retry deadlines and the stall watchdog are protocol state: a
    /// sweep under a hostile schedule produces bit-identical traces
    /// whatever the admission mode or budget slicing.
    #[test]
    fn degraded_sweeps_stay_deterministic_across_schedulers() {
        use mlpt_sim::FaultSchedule;
        let lanes: Vec<mlpt_topo::MultipathTopology> = (0..6u32)
            .map(|i| canonical::fig1_meshed().translated(0x0100_0000 * (i + 1)))
            .collect();
        let run = |admission: Admission, max_in_flight: usize| -> (Vec<Trace>, SweepStats) {
            let nets: Vec<SimNetwork> = lanes
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    SimNetwork::builder(t.clone())
                        .faults(FaultSchedule::preset("flap").expect("known preset"))
                        .seed(17 + i as u64)
                        .build()
                })
                .collect();
            let net = mlpt_sim::MultiNetwork::new(nets).expect("unique destinations");
            let mut engine = SweepEngine::new(net, SRC).with_config(SweepConfig {
                max_in_flight,
                retries: 2,
                stall_rounds: 4,
                admission,
                ..SweepConfig::default()
            });
            let sessions: Vec<Box<dyn TraceSession>> = lanes
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    Box::new(MdaSession::new(t.destination(), TraceConfig::new(i as u64)))
                        as Box<dyn TraceSession>
                })
                .collect();
            let traces = engine.run_stream(sessions);
            (traces, *engine.stats())
        };
        // A budget above the sweep's probe count admits every session up
        // front: the opposite extreme from the tight streaming budget.
        const ALL_IN: usize = 1 << 20;
        let (all_in, all_in_stats) = run(Admission::Streaming, ALL_IN);
        assert!(all_in_stats.probes_sent < ALL_IN as u64);
        let (streaming, _) = run(Admission::Streaming, 16);
        let (cost_aware, cost_stats) = run(Admission::CostAware(usize::MAX), 48);
        assert_eq!(all_in, streaming);
        assert_eq!(all_in, cost_aware);
        assert_eq!(all_in_stats.probes_sent, cost_stats.probes_sent);
        assert_eq!(all_in_stats.sessions_partial, cost_stats.sessions_partial);
    }

    /// The tentpole end-to-end: sweeping a Doubletree family with a
    /// shared stop set elides the shared near-source prefix for every
    /// generation after the first, while the discovered per-destination
    /// paths — probed hops plus the prefix reconstructed from the set —
    /// stay exactly the classic single-flow paths, and every elided
    /// probe is accounted against what the classic sweep spent.
    #[test]
    fn shared_stop_set_elides_prefix_probes() {
        let lanes: Vec<mlpt_topo::MultipathTopology> = (0..16)
            .map(|i| canonical::shared_prefix_lane(12, 3, i))
            .collect();
        type Out = (Vec<Trace>, SweepStats, Option<StopSnapshot>);
        let run = |stop_set: Option<StopSetConfig>| -> Out {
            let nets: Vec<SimNetwork> = lanes
                .iter()
                .enumerate()
                .map(|(i, t)| SimNetwork::new(t.clone(), 5 + i as u64))
                .collect();
            let net = mlpt_sim::MultiNetwork::new(nets).expect("unique destinations");
            let mut engine = SweepEngine::new(net, SRC).with_config(SweepConfig {
                stop_set,
                ..SweepConfig::default()
            });
            let sessions: Vec<Box<dyn TraceSession>> = lanes
                .iter()
                .map(|t| {
                    Box::new(SingleFlowSession::new(
                        t.destination(),
                        TraceConfig::new(3),
                        FlowId(7),
                    )) as Box<dyn TraceSession>
                })
                .collect();
            let traces = engine.run_stream(sessions);
            (traces, *engine.stats(), engine.stop_snapshot().cloned())
        };
        let (classic, classic_stats, no_snap) = run(None);
        assert!(no_snap.is_none(), "no stop set, no snapshot");
        let (stopped, stats, snap) = run(Some(StopSetConfig {
            commit_width: 4,
            ..StopSetConfig::default()
        }));
        let snap = snap.expect("stop-set run publishes its final snapshot");
        assert!(stats.stop_set_hits > 0, "later generations must stop early");
        assert!(stats.probes_elided > 0);
        assert!(stats.probes_sent < classic_stats.probes_sent);
        // Exact bookkeeping: every probe the classic sweep spent is
        // either sent or elided under the stop set, never dropped.
        assert_eq!(
            stats.probes_sent + stats.probes_elided,
            classic_stats.probes_sent
        );
        let path_of = |trace: &Trace| -> Vec<(u8, Ipv4Addr)> {
            (1..=trace.discovery.max_observed_ttl())
                .flat_map(|ttl| {
                    trace
                        .discovery
                        .vertices_at(ttl)
                        .iter()
                        .map(move |v| (ttl, *v))
                })
                .collect()
        };
        for (classic_trace, stopped_trace) in classic.iter().zip(&stopped) {
            assert!(stopped_trace.reached_destination);
            let probed = path_of(stopped_trace);
            let &(first_ttl, first_iface) = probed.first().expect("non-empty trace");
            let mut full: Vec<(u8, Ipv4Addr)> = snap
                .reconstruct_prefix(first_ttl, first_iface)
                .into_iter()
                .chain(probed)
                .collect();
            full.sort_unstable();
            full.dedup();
            assert_eq!(
                full,
                path_of(classic_trace),
                "probed hops + reconstructed prefix must equal the classic path"
            );
        }
    }

    /// `CostAware(K)` reorders only a sliding window, yet — determinism
    /// rule 5 — every trace and wire total matches the full-drain
    /// `CostAware(usize::MAX)` run (and the windowed run admits the same
    /// session count).
    #[test]
    fn windowed_cost_aware_matches_full_drain() {
        let lanes: Vec<mlpt_topo::MultipathTopology> = (0..10u32)
            .map(|i| canonical::fig1_meshed().translated(0x0100_0000 * (i + 1)))
            .collect();
        let run = |admission: Admission| -> (Vec<Trace>, SweepStats) {
            let nets: Vec<SimNetwork> = lanes
                .iter()
                .enumerate()
                .map(|(i, t)| SimNetwork::new(t.clone(), 11 + i as u64))
                .collect();
            let net = mlpt_sim::MultiNetwork::new(nets).expect("unique destinations");
            let mut engine = SweepEngine::new(net, SRC).with_config(SweepConfig {
                max_in_flight: 24,
                admission,
                ..SweepConfig::default()
            });
            let sessions: Vec<Box<dyn TraceSession>> = lanes
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let config = TraceConfig::new(i as u64).with_probe_budget(500 + 37 * i as u64);
                    Box::new(MdaSession::new(t.destination(), config)) as Box<dyn TraceSession>
                })
                .collect();
            let traces = engine.run_stream(sessions);
            (traces, *engine.stats())
        };
        let (full, full_stats) = run(Admission::CostAware(usize::MAX));
        for window in [1usize, 3, 100] {
            let (windowed, windowed_stats) = run(Admission::CostAware(window));
            assert_eq!(full, windowed, "window {window} must not change results");
            assert_eq!(full_stats.probes_sent, windowed_stats.probes_sent);
            assert_eq!(windowed_stats.sessions_admitted, 10);
            assert_eq!(windowed_stats.sessions_completed, 10);
        }
    }

    /// The satellite bugfix's regression: a timed-out probe whose
    /// `(interface, TTL)` the stop set meanwhile confirmed (via a
    /// same-destination same-flow contributor) is elided instead of
    /// retried — the follower leans on Paris flow determinism and
    /// finishes without burning retry waves into a lossy path.
    #[test]
    fn timed_out_probe_with_confirmed_interface_is_elided() {
        use mlpt_sim::FaultPlan;
        let topo = canonical::shared_prefix_lane(12, 3, 0);
        let d = topo.destination();
        let run = |stop_set: Option<StopSetConfig>| -> (Vec<Trace>, SweepStats) {
            let net = SimNetwork::builder(topo.clone())
                .faults(FaultPlan::with_loss(0.0, 0.4))
                .seed(37)
                .build();
            let mut engine = SweepEngine::new(net, SRC).with_config(SweepConfig {
                retries: 4,
                stop_set,
                ..SweepConfig::default()
            });
            // Same destination, same flow: the engine defers the second
            // session until the first finishes, which also makes it the
            // next stop-set generation under `commit_width: 1`.
            let sessions: Vec<Box<dyn TraceSession>> = vec![
                Box::new(SingleFlowSession::new(d, TraceConfig::new(1), FlowId(7))),
                Box::new(SingleFlowSession::new(d, TraceConfig::new(2), FlowId(7))),
            ];
            let traces = engine.run_stream(sessions);
            (traces, *engine.stats())
        };
        let (classic, classic_stats) = run(None);
        assert!(classic.iter().all(|t| t.reached_destination));
        assert_eq!(classic_stats.retries_elided, 0, "no stop set, no elision");
        let (traces, stats) = run(Some(StopSetConfig {
            commit_width: 1,
            ..StopSetConfig::default()
        }));
        assert!(traces.iter().all(|t| t.reached_destination));
        assert!(
            stats.retries_elided > 0,
            "confirmed-interface timeouts must be elided, not retried"
        );
        // Elision never disturbs the probe accounting partition.
        assert_eq!(
            stats.probes_timed_out
                + stats.replies_delivered
                + stats.malformed_replies
                + stats.mismatched_replies,
            stats.probes_sent
        );
    }

    /// Mid-flight cost reappraisal: the fair-quota gather pass consults
    /// `predicted_cost()` every cycle, so a session whose cost collapses
    /// after admission stops hogging lane allowance — and one that stays
    /// cheap is sliced down to its real appetite.
    #[test]
    fn gather_reappraises_predicted_cost_each_cycle() {
        /// Ten one-probe-per-TTL requests in a single round, with a
        /// constant advertised cost.
        struct AppetiteSession {
            destination: Ipv4Addr,
            cost: u64,
            round: Vec<ProbeRequest>,
            done: bool,
        }
        impl ProbeSession for AppetiteSession {
            fn poll(&mut self) -> SessionState {
                if self.done {
                    SessionState::Finished
                } else {
                    SessionState::Probing
                }
            }
            fn next_rounds(&self) -> &[ProbeRequest] {
                &self.round
            }
            fn on_replies(&mut self, _results: &mut [Option<ProbeOutcome>]) {
                self.done = true;
            }
            fn destination(&self) -> Ipv4Addr {
                self.destination
            }
            fn predicted_cost(&self) -> u64 {
                self.cost
            }
        }
        let topo = canonical::shared_prefix_lane(12, 3, 0);
        let run = |cost: u64| -> SweepStats {
            let net = SimNetwork::new(topo.clone(), 3);
            let mut engine = SweepEngine::new(net, SRC);
            let session = AppetiteSession {
                destination: topo.destination(),
                cost,
                round: (1..=10)
                    .map(|t| ProbeRequest::Udp(ProbeSpec::new(FlowId(1), t)))
                    .collect(),
                done: false,
            };
            engine.run_sessions_with(vec![session], |_, _, _| {});
            *engine.stats()
        };
        // Cost 0 = "no estimate": the cap stays open, the whole round
        // crosses in one dispatch.
        let open = run(0);
        assert_eq!(open.probes_sent, 10);
        assert_eq!(open.max_batch, 10);
        // A collapsed cost of 1 is re-read every cycle: the same round
        // is sliced to one probe per dispatch.
        let capped = run(1);
        assert_eq!(capped.probes_sent, 10);
        assert_eq!(capped.max_batch, 1);
        assert!(capped.dispatch_cycles >= 10);
    }
}
