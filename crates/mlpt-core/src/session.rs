//! Sans-IO probe sessions: probing protocols as resumable state
//! machines.
//!
//! The MDA, MDA-Lite and single-flow tracers are **sessions**: state
//! machines that never touch a transport. A session is driven by
//! repeating
//!
//! 1. [`TraceSession::poll`] — advances the machine until it either has a
//!    round of probes ready ([`SessionState::Probing`]) or is done
//!    ([`SessionState::Finished`]);
//! 2. [`TraceSession::next_rounds`] — the pending round, one
//!    [`ProbeSpec`] per probe;
//! 3. [`TraceSession::on_replies`] — hands back one observation slot per
//!    spec (in spec order; `None` marks loss) and lets the machine
//!    transition.
//!
//! The one driver is the sweep engine in [`crate::engine`], which
//! interleaves many sessions' rounds over one shared transport; a single
//! trace ([`trace_mda`], [`trace_mda_lite`], [`trace_single_flow`]) is a
//! sweep of one session. Because sessions perform no IO, the schedule
//! never changes a trace. The state machines emit probe rounds in
//! **exactly** the order the original blocking implementations
//! dispatched them — including flow-allocator draws on budget-exhausted
//! paths — so a session-driven trace is bit-identical to its blocking
//! ancestor, probe for probe.
//!
//! # Sessions beyond traceroute
//!
//! Tracing only ever sends one kind of packet (a TTL-limited UDP probe
//! towards the session's destination), so [`TraceSession`] speaks
//! [`ProbeSpec`]s. Other probing protocols — above all the paper's
//! Round 0–10 alias resolution, which interleaves TTL-limited UDP with
//! ICMP Echo Requests aimed at individual interfaces — need a wider
//! vocabulary. [`ProbeSession`] is that generalisation: the same
//! poll / next round / absorb replies contract, but over typed
//! [`ProbeRequest`]s and [`ProbeOutcome`]s. The sweep engine schedules
//! `ProbeSession`s; trace sessions join in through the
//! [`TraceProbeSession`] adapter.
//!
//! [`trace_mda`]: crate::mda::trace_mda
//! [`trace_mda_lite`]: crate::mda_lite::trace_mda_lite
//! [`trace_single_flow`]: crate::single_flow::trace_single_flow

// Engine surface: no panic-class call without a reasoned `#[expect]` (README, "Static analysis").
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use crate::artifact::{AuditVerdict, RouteAudit, RouteHealth};
use crate::config::TraceConfig;
use crate::discovery::{insert_at, Discovery, FlowAllocator};
use crate::prober::{DirectObservation, ProbeObservation, ProbeSpec};
use crate::stopset::{contribution_from_discovery, StopContribution, StopSeen, StopSnapshot};
use crate::trace::{Algorithm, PartialReason, SwitchReason, Trace, TraceOutcome};
use mlpt_wire::FlowId;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// What a session wants next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// A round of probes is ready in [`TraceSession::next_rounds`].
    Probing,
    /// The trace is complete; collect it with [`TraceSession::take_trace`].
    Finished,
}

/// One typed probe a [`ProbeSession`] asks its driver to put on the wire.
///
/// The two kinds cover everything the paper's protocols send: indirect
/// (traceroute-style) probes that elicit ICMP errors, and direct
/// (ping-style) probes that elicit Echo Replies. New probe kinds (e.g. a
/// full-TTL UDP probe aimed straight at an interface) slot in as further
/// variants; drivers match exhaustively, so adding one is a compile-time
/// checklist of every dispatch path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeRequest {
    /// TTL-limited UDP towards the session's
    /// [`destination`](ProbeSession::destination) — the indirect probe
    /// behind all tracing and the MBT's Time Exceeded samples.
    Udp(ProbeSpec),
    /// ICMP Echo Request aimed directly at `target` — the direct probe
    /// behind fingerprint completion and MIDAR-style Echo Reply series.
    Echo {
        /// The interface address to ping.
        target: Ipv4Addr,
    },
}

/// What one [`ProbeRequest`] observed, typed to match the request kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// Reply to a [`ProbeRequest::Udp`] probe.
    Udp(ProbeObservation),
    /// Reply to a [`ProbeRequest::Echo`] probe.
    Echo(DirectObservation),
}

/// A resumable, transport-free probing session over typed requests — the
/// generalisation of [`TraceSession`] the sweep engine schedules.
///
/// The contract mirrors [`TraceSession`]: call
/// [`poll`](ProbeSession::poll); while it returns
/// [`SessionState::Probing`], dispatch the requests of
/// [`next_rounds`](ProbeSession::next_rounds) and answer with
/// [`on_replies`](ProbeSession::on_replies) (one slot per request, in
/// request order; `None` marks loss). Rounds are never empty while
/// probing. Drivers report wire-level packet counts through
/// [`note_wire_probes`](ProbeSession::note_wire_probes) just before each
/// round's replies, so sessions can account the paper's cost metric
/// per protocol phase even when a transport retries on their behalf.
pub trait ProbeSession {
    /// Advances the machine; returns whether probes are ready or the
    /// session is done.
    fn poll(&mut self) -> SessionState;

    /// The pending round of typed probe requests (non-empty while
    /// [`SessionState::Probing`]; empty once finished). Stable until
    /// [`on_replies`](ProbeSession::on_replies) is called.
    fn next_rounds(&self) -> &[ProbeRequest];

    /// Delivers the round's outcomes, one slot per request in request
    /// order. Slots are `&mut` so the session can move observations out
    /// instead of cloning them.
    fn on_replies(&mut self, results: &mut [Option<ProbeOutcome>]);

    /// The destination this session probes towards: the target of its
    /// [`ProbeRequest::Udp`] probes and the key under which a scheduler
    /// deduplicates concurrent sessions.
    fn destination(&self) -> Ipv4Addr;

    /// Informs the session how many packets the driver actually put on
    /// the wire for the round about to be delivered (retries included).
    /// Called immediately before [`on_replies`](ProbeSession::on_replies).
    fn note_wire_probes(&mut self, count: u64) {
        let _ = count;
    }

    /// A hint of how many probes this session is still expected to cost,
    /// consulted by cost-aware schedulers
    /// ([`crate::engine::Admission::CostAware`]) when deciding *when* to
    /// admit a session — never *what* it probes, so the hint may be
    /// arbitrarily wrong without affecting results. `0` means "no
    /// estimate" and sorts last. Trace sessions report what the
    /// remaining probe budget allows (the only a-priori bound a
    /// topology-blind tracer has); richer sessions refine the hint as
    /// they learn — the multilevel session switches to its
    /// discovered-hop-width alias cost once its trace phase completes.
    fn predicted_cost(&self) -> u64 {
        0
    }

    /// Tells the session the driver is finalizing it early (graceful
    /// degradation: the stall watchdog fired). After this call the
    /// driver treats the session as finished regardless of
    /// [`poll`](ProbeSession::poll); sessions that surface a result
    /// should record the reason and report it (trace sessions mark the
    /// trace [`crate::TraceOutcome::Partial`]). The default ignores the
    /// notification.
    fn abort(&mut self, reason: PartialReason) {
        let _ = reason;
    }

    /// Hands the session the shared-stop-set snapshot its sweep
    /// generation adopted ([`crate::stopset`]). Called once at
    /// admission, before the first [`poll`](ProbeSession::poll).
    /// Sessions without a stop-set-aware mode ignore it and probe
    /// classically; the empty snapshot must leave behaviour
    /// bit-identical to a sweep without a stop set.
    fn adopt_stop_set(&mut self, snapshot: &StopSnapshot) {
        let _ = snapshot;
    }

    /// The session's firsthand `(TTL, interface)` observations,
    /// collected by the engine once the session finishes and committed
    /// to the shared stop set in source order. `None` (the default)
    /// opts the session out of contributing. Contributions must never
    /// include observations adopted from a snapshot — only what the
    /// session itself saw on the wire.
    fn stop_contribution(&mut self) -> Option<StopContribution> {
        None
    }

    /// Whether a timed-out `request` is still worth retrying. Stop-set
    /// aware sessions answer `false` when the shared set meanwhile
    /// confirmed what the probe would observe; the engine then elides
    /// the retry and the session adopts the predicted responder when
    /// the slot comes back unanswered.
    fn should_retry(&self, request: &ProbeRequest) -> bool {
        let _ = request;
        true
    }

    /// Route-change health counters, collected by the engine when the
    /// session finalizes. `None` (the default) means the session ran no
    /// route-change audit.
    fn route_health(&self) -> Option<RouteHealth> {
        None
    }
}

/// Adapts any [`TraceSession`] to the [`ProbeSession`] contract: every
/// [`ProbeSpec`] round becomes a round of [`ProbeRequest::Udp`] requests,
/// and UDP outcomes are handed back as plain observations. This is how
/// the trace algorithms ride the generalised sweep scheduler unchanged.
pub struct TraceProbeSession<S> {
    inner: S,
    requests: Vec<ProbeRequest>,
    replies: Vec<Option<ProbeObservation>>,
    partial: Option<PartialReason>,
}

impl<S: TraceSession> TraceProbeSession<S> {
    /// Wraps a trace session.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            requests: Vec::new(),
            replies: Vec::new(),
            partial: None,
        }
    }

    /// The wrapped session.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Unwraps the trace session.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// How the finished trace should be stamped: `Partial` if the driver
    /// aborted this session, `Complete` otherwise.
    pub fn outcome(&self) -> TraceOutcome {
        match self.partial {
            Some(reason) => TraceOutcome::Partial { reason },
            None => TraceOutcome::Complete,
        }
    }
}

impl<S: TraceSession> ProbeSession for TraceProbeSession<S> {
    fn poll(&mut self) -> SessionState {
        let state = self.inner.poll();
        if state == SessionState::Probing && self.requests.is_empty() {
            self.requests.extend(
                self.inner
                    .next_rounds()
                    .iter()
                    .map(|&s| ProbeRequest::Udp(s)),
            );
        }
        state
    }

    fn next_rounds(&self) -> &[ProbeRequest] {
        &self.requests
    }

    fn on_replies(&mut self, results: &mut [Option<ProbeOutcome>]) {
        self.replies.clear();
        self.replies.extend(results.iter_mut().map(|slot| {
            match slot.take() {
                Some(ProbeOutcome::Udp(obs)) => Some(obs),
                // An echo outcome for a UDP request cannot happen through
                // a well-behaved driver; treat it as loss.
                Some(ProbeOutcome::Echo(_)) | None => None,
            }
        }));
        self.inner.on_replies(&self.replies);
        self.requests.clear();
    }

    fn destination(&self) -> Ipv4Addr {
        self.inner.destination()
    }

    fn predicted_cost(&self) -> u64 {
        self.inner.predicted_cost()
    }

    fn abort(&mut self, reason: PartialReason) {
        self.partial = Some(reason);
    }

    fn adopt_stop_set(&mut self, snapshot: &StopSnapshot) {
        self.inner.adopt_stop_set(snapshot);
    }

    fn stop_contribution(&mut self) -> Option<StopContribution> {
        self.inner.stop_contribution()
    }

    fn should_retry(&self, request: &ProbeRequest) -> bool {
        match request {
            ProbeRequest::Udp(spec) => self.inner.should_retry(spec),
            ProbeRequest::Echo { .. } => true,
        }
    }

    fn route_health(&self) -> Option<RouteHealth> {
        self.inner.route_health()
    }
}

/// A resumable, transport-free tracing session.
///
/// The contract: call [`poll`](TraceSession::poll); while it returns
/// [`SessionState::Probing`], dispatch the specs of
/// [`next_rounds`](TraceSession::next_rounds) and answer with
/// [`on_replies`](TraceSession::on_replies) (one slot per spec, in spec
/// order). Once `poll` returns [`SessionState::Finished`], collect the
/// result with [`take_trace`](TraceSession::take_trace), passing the
/// number of probe packets actually put on the wire (retries included) so
/// the trace reports the paper's cost metric faithfully.
///
/// Trace sessions are `Send`: they are pure owned data (evidence base,
/// flow allocator, pending round), which is what lets a sharded sweep
/// ([`crate::shard::ShardedSweepEngine`]) drive disjoint shards on
/// worker threads while each session still runs strictly sequentially.
pub trait TraceSession: Send {
    /// Advances the machine; returns whether probes are ready or the
    /// session is done.
    fn poll(&mut self) -> SessionState;

    /// The pending round of probes (non-empty while
    /// [`SessionState::Probing`]; empty once finished). Stable until
    /// [`on_replies`](TraceSession::on_replies) is called.
    fn next_rounds(&self) -> &[ProbeSpec];

    /// Delivers the round's outcomes, one slot per spec in spec order.
    fn on_replies(&mut self, results: &[Option<ProbeObservation>]);

    /// The destination this session traces towards.
    fn destination(&self) -> Ipv4Addr;

    /// Consumes the accumulated evidence into a [`Trace`]. `probes_sent`
    /// is the wire-level packet count the driver measured.
    fn take_trace(&mut self, probes_sent: u64) -> Trace;

    /// Cost hint for cost-aware admission (see
    /// [`ProbeSession::predicted_cost`]); the adapter forwards it. `0`
    /// means "no estimate".
    fn predicted_cost(&self) -> u64 {
        0
    }

    /// Stop-set adoption (see [`ProbeSession::adopt_stop_set`]); the
    /// adapter forwards it. Called before the first poll; the empty
    /// snapshot must leave behaviour bit-identical to classic probing.
    fn adopt_stop_set(&mut self, snapshot: &StopSnapshot) {
        let _ = snapshot;
    }

    /// Firsthand observations for the shared stop set (see
    /// [`ProbeSession::stop_contribution`]); the adapter forwards it.
    fn stop_contribution(&mut self) -> Option<StopContribution> {
        None
    }

    /// Retry-elision verdict for a timed-out `spec` (see
    /// [`ProbeSession::should_retry`]); the adapter forwards it.
    fn should_retry(&self, spec: &ProbeSpec) -> bool {
        let _ = spec;
        true
    }

    /// Route-change health counters (see [`ProbeSession::route_health`]);
    /// the adapter forwards it.
    fn route_health(&self) -> Option<RouteHealth> {
        None
    }
}

impl<S: TraceSession + ?Sized> TraceSession for Box<S> {
    fn poll(&mut self) -> SessionState {
        (**self).poll()
    }

    fn next_rounds(&self) -> &[ProbeSpec] {
        (**self).next_rounds()
    }

    fn on_replies(&mut self, results: &[Option<ProbeObservation>]) {
        (**self).on_replies(results)
    }

    fn destination(&self) -> Ipv4Addr {
        (**self).destination()
    }

    fn take_trace(&mut self, probes_sent: u64) -> Trace {
        (**self).take_trace(probes_sent)
    }

    fn predicted_cost(&self) -> u64 {
        (**self).predicted_cost()
    }

    fn adopt_stop_set(&mut self, snapshot: &StopSnapshot) {
        (**self).adopt_stop_set(snapshot)
    }

    fn stop_contribution(&mut self) -> Option<StopContribution> {
        (**self).stop_contribution()
    }

    fn should_retry(&self, spec: &ProbeSpec) -> bool {
        (**self).should_retry(spec)
    }

    fn route_health(&self) -> Option<RouteHealth> {
        (**self).route_health()
    }
}

/// True once every vertex known at `ttl` is the destination (and at least
/// one is): the trace has converged.
pub(crate) fn converged(state: &Discovery, destination: Ipv4Addr, ttl: u8) -> bool {
    let vs = state.vertices_at(ttl);
    !vs.is_empty() && vs.iter().all(|&v| v == destination)
}

/// Outcome of handing a round to [`SessionCore::emit`].
enum Emit {
    /// Probes were granted by the budget and await dispatch.
    Yield,
    /// Nothing crossed the wire. `sent_all` is false when the budget cut
    /// a non-empty round to zero (the blocking code's "break" signal) and
    /// true when the round was empty to begin with.
    NoneSent {
        /// Whether the (empty) round counts as fully sent.
        sent_all: bool,
    },
}

/// State shared by every session kind: the evidence base, the flow
/// allocator, the probe budget and the pending round.
struct SessionCore {
    destination: Ipv4Addr,
    config: TraceConfig,
    state: Discovery,
    flows: FlowAllocator,
    /// Probes charged against the budget so far (granted, not wire-level).
    used: u64,
    /// The pending round awaiting dispatch/replies.
    round: Vec<ProbeSpec>,
    /// Recycled round storage: rounds are built into this buffer and
    /// returned to it after delivery, so steady-state probing performs
    /// no per-round heap allocations (the property the blocking code's
    /// reusable `ctx.specs` provided).
    spare: Vec<ProbeSpec>,
    /// True when the budget truncated the last emitted round — the
    /// state-machine analogue of `send_probe_batch` returning false.
    round_cut: bool,
    /// Scratch for [`Discovery::probes_via`]'s successor set.
    successors: Vec<Ipv4Addr>,
}

impl SessionCore {
    fn new(destination: Ipv4Addr, config: TraceConfig) -> Self {
        let flows = FlowAllocator::new(config.seed);
        Self {
            destination,
            config,
            state: Discovery::new(),
            flows,
            used: 0,
            round: Vec::new(),
            spare: Vec::new(),
            round_cut: false,
            successors: Vec::new(),
        }
    }

    /// Hands out the recycled round buffer, emptied.
    fn specs_buffer(&mut self) -> Vec<ProbeSpec> {
        let mut buf = std::mem::take(&mut self.spare);
        buf.clear();
        buf
    }

    /// Returns an unused round buffer to the recycler.
    fn recycle(&mut self, mut buf: Vec<ProbeSpec>) {
        buf.clear();
        self.spare = buf;
    }

    fn exhausted(&self) -> bool {
        self.used >= self.config.probe_budget
    }

    /// Emits a round under the budget, mirroring the blocking
    /// `send_probe_batch`: the round is truncated to the remaining budget
    /// and noted in the discovery state before dispatch.
    fn emit(&mut self, mut specs: Vec<ProbeSpec>) -> Emit {
        let want = specs.len() as u64;
        let granted = want.min(self.config.probe_budget.saturating_sub(self.used));
        self.used += granted;
        let cut = granted < want;
        if granted == 0 {
            self.recycle(specs);
            return Emit::NoneSent { sent_all: !cut };
        }
        specs.truncate(granted as usize);
        self.state.note_probes_sent(&specs);
        self.round = specs;
        self.round_cut = cut;
        Emit::Yield
    }

    /// Records a delivered round into the discovery state.
    fn absorb(&mut self, results: &[Option<ProbeObservation>]) {
        let round = std::mem::take(&mut self.round);
        debug_assert_eq!(round.len(), results.len(), "one result slot per spec");
        for (spec, result) in round.iter().zip(results) {
            if let Some(obs) = result {
                self.state
                    .record(spec.flow, spec.ttl, obs.responder, obs.at_destination);
            }
        }
        self.recycle(round);
    }

    /// Marks every flow the state has seen as taken by the allocator
    /// (run_mda's entry behaviour, needed when the MDA resumes over
    /// MDA-Lite evidence).
    fn reserve_used_flows(&mut self) {
        self.flows.reserve(self.state.used_flows().iter().copied());
    }
}

/// Uniform (no node control) hop discovery: the persistent reuse cursor
/// plus round construction under the stopping rule. Shared by the MDA's
/// single-parent hops and every MDA-Lite hop.
struct UniformState {
    reuse: Vec<FlowId>,
    pos: usize,
}

impl UniformState {
    fn new(reuse: Vec<FlowId>) -> Self {
        Self { reuse, pos: 0 }
    }

    /// Builds the next round owed under the stopping rule, or `None` once
    /// the rule fires. Consumes reuse flows first (skipping ones already
    /// probed at `ttl`), then draws fresh ones — exactly the blocking
    /// loop's `reuse_iter.find(..).unwrap_or_else(fresh)`.
    fn build_round(&mut self, core: &mut SessionCore, ttl: u8) -> Option<Vec<ProbeSpec>> {
        let k = core.state.vertices_at(ttl).len().max(1);
        let sent = core.state.probes_at(ttl);
        if core.config.stopping.should_stop(k, sent) {
            return None;
        }
        let owed = core.config.stopping.n(k).saturating_sub(sent).max(1);
        let mut specs = core.specs_buffer();
        specs.reserve(owed as usize);
        for _ in 0..owed {
            let mut reused = None;
            while self.pos < self.reuse.len() {
                let f = self.reuse[self.pos];
                self.pos += 1;
                if !core.state.flow_probed_at(ttl, f) {
                    reused = Some(f);
                    break;
                }
            }
            let flow = match reused {
                Some(f) => f,
                // Flow space exhausted: probe with what we have (an
                // empty round reads as the rule having fired).
                None => match core.flows.try_fresh() {
                    Some(f) => f,
                    None => break,
                },
            };
            specs.push(ProbeSpec::new(flow, ttl));
        }
        if specs.is_empty() {
            return None;
        }
        Some(specs)
    }
}

/// Per-vertex node-control progress inside the MDA's multi-parent hops.
enum VertexSub {
    /// Recompute the pending-parent worklist (top of the blocking `loop`).
    LoopTop,
    /// Top of `process_vertex`'s loop for the current parent.
    Eval,
    /// A flows-reaching batch is in flight.
    WaitBatch,
    /// About to draw a fresh flow and emit one hunt probe at `ttl - 1`.
    HuntNext {
        /// Hunt iterations left (the `node_control_attempts` counter).
        left: u64,
    },
    /// A hunt probe is in flight.
    WaitHunt { flow: FlowId, left: u64 },
    /// Hunt succeeded; emit the follow-up probe at `ttl` with its flow.
    EmitPostHunt { flow: FlowId },
    /// The post-hunt probe is in flight.
    WaitPostHunt,
}

/// Multi-parent hop state: the worklist and the current parent's
/// node-control progress.
struct ParentsState {
    processed: BTreeSet<Ipv4Addr>,
    pending: Vec<Ipv4Addr>,
    idx: usize,
    sub: VertexSub,
}

impl ParentsState {
    /// Advances past the current parent (the end of one `process_vertex`
    /// call in the blocking code).
    fn finish_parent(&mut self) {
        self.processed.insert(self.pending[self.idx]);
        self.idx += 1;
        self.sub = if self.idx < self.pending.len() {
            VertexSub::Eval
        } else {
            VertexSub::LoopTop
        };
    }
}

enum MdaPhase {
    /// Evaluate the hop loop's entry conditions for the current ttl.
    HopStart,
    /// Uniform discovery at the current ttl (single known parent).
    Uniform(UniformState),
    /// Vertex-by-vertex discovery with node control.
    Parents(ParentsState),
    Done,
}

/// The full MDA as a state machine over a [`SessionCore`]. Also embedded
/// by [`MdaLiteSession`] for the switchover, resuming over everything the
/// Lite pass learned.
struct MdaMachine {
    ttl: u8,
    phase: MdaPhase,
}

impl MdaMachine {
    fn new() -> Self {
        Self::at(1)
    }

    /// A machine entering the hop loop at `ttl` — the full restart
    /// (`ttl == 1`) and route-change recovery (`ttl ==` the first
    /// invalidated hop) are the same state, since `HopStart` re-derives
    /// everything from the evidence base.
    fn at(ttl: u8) -> Self {
        Self {
            ttl: ttl.max(1),
            phase: MdaPhase::HopStart,
        }
    }

    /// End-of-hop bookkeeping shared by every exit from a hop's probing.
    fn post_hop(&mut self, core: &SessionCore) {
        if converged(&core.state, core.destination, self.ttl) || core.exhausted() {
            self.phase = MdaPhase::Done;
        } else {
            self.ttl += 1;
            self.phase = MdaPhase::HopStart;
        }
    }

    /// Advances until a round is pending (`true`) or the MDA is done
    /// (`false`).
    fn advance(&mut self, core: &mut SessionCore) -> bool {
        loop {
            match &mut self.phase {
                MdaPhase::Done => return false,
                MdaPhase::HopStart => {
                    if self.ttl > core.config.max_ttl {
                        self.phase = MdaPhase::Done;
                        continue;
                    }
                    if self.ttl > 1
                        && converged(
                            &core.state,
                            core.destination,
                            self.ttl.saturating_sub(1).max(1),
                        )
                    {
                        self.phase = MdaPhase::Done;
                        continue;
                    }
                    let single_parent =
                        self.ttl == 1 || core.state.vertices_at(self.ttl - 1).len() <= 1;
                    if single_parent {
                        let reuse = if self.ttl == 1 {
                            Vec::new()
                        } else {
                            core.state.reuse_queue(self.ttl - 1)
                        };
                        self.phase = MdaPhase::Uniform(UniformState::new(reuse));
                    } else {
                        self.phase = MdaPhase::Parents(ParentsState {
                            processed: BTreeSet::new(),
                            pending: Vec::new(),
                            idx: 0,
                            sub: VertexSub::LoopTop,
                        });
                    }
                }
                MdaPhase::Uniform(uniform) => match uniform.build_round(core, self.ttl) {
                    Some(specs) => match core.emit(specs) {
                        Emit::Yield => return true,
                        // A non-empty round cut to nothing: the budget is
                        // gone, the hop loop breaks.
                        Emit::NoneSent { .. } => self.post_hop(core),
                    },
                    None => self.post_hop(core),
                },
                MdaPhase::Parents(parents) => match parents.sub {
                    VertexSub::LoopTop => {
                        parents.pending = core
                            .state
                            .vertices_at(self.ttl - 1)
                            .iter()
                            .copied()
                            .filter(|v| !parents.processed.contains(v) && *v != core.destination)
                            .collect();
                        if parents.pending.is_empty() || core.exhausted() {
                            self.post_hop(core);
                        } else {
                            parents.idx = 0;
                            parents.sub = VertexSub::Eval;
                        }
                    }
                    VertexSub::Eval => {
                        let parent = parents.pending[parents.idx];
                        let sent_via =
                            core.state
                                .probes_via(parent, self.ttl, &mut core.successors);
                        let k = core.successors.len().max(1);
                        if core.config.stopping.should_stop(k, sent_via) {
                            parents.finish_parent();
                            continue;
                        }
                        let owed =
                            core.config.stopping.n(k).saturating_sub(sent_via).max(1) as usize;
                        let mut specs = core.specs_buffer();
                        specs.extend(
                            core.state
                                .flows_at(self.ttl - 1, parent)
                                .filter(|&f| !core.state.flow_probed_at(self.ttl, f))
                                .take(owed)
                                .map(|f| ProbeSpec::new(f, self.ttl)),
                        );
                        if !specs.is_empty() {
                            match core.emit(specs) {
                                Emit::Yield => {
                                    parents.sub = VertexSub::WaitBatch;
                                    return true;
                                }
                                Emit::NoneSent { .. } => parents.finish_parent(),
                            }
                        } else {
                            parents.sub = VertexSub::HuntNext {
                                left: core.config.node_control_attempts,
                            };
                        }
                    }
                    VertexSub::HuntNext { left } => {
                        if left == 0 {
                            // Attempts exhausted: the hunt returns None
                            // and the parent is given up on.
                            parents.finish_parent();
                            continue;
                        }
                        // The blocking hunt draws the flow before the
                        // budget check — preserved for identical
                        // allocator streams. A dry flow space ends the
                        // hunt like attempts exhaustion would.
                        let Some(flow) = core.flows.try_fresh() else {
                            parents.finish_parent();
                            continue;
                        };
                        let mut specs = core.specs_buffer();
                        specs.push(ProbeSpec::new(flow, self.ttl - 1));
                        match core.emit(specs) {
                            Emit::Yield => {
                                parents.sub = VertexSub::WaitHunt {
                                    flow,
                                    left: left - 1,
                                };
                                return true;
                            }
                            Emit::NoneSent { .. } => parents.finish_parent(),
                        }
                    }
                    VertexSub::EmitPostHunt { flow } => {
                        let mut specs = core.specs_buffer();
                        specs.push(ProbeSpec::new(flow, self.ttl));
                        match core.emit(specs) {
                            Emit::Yield => {
                                parents.sub = VertexSub::WaitPostHunt;
                                return true;
                            }
                            Emit::NoneSent { .. } => parents.finish_parent(),
                        }
                    }
                    VertexSub::WaitBatch | VertexSub::WaitHunt { .. } | VertexSub::WaitPostHunt => {
                        debug_assert!(false, "advance called while awaiting replies");
                        return true;
                    }
                },
            }
        }
    }

    /// Applies the transition the blocking code performed right after a
    /// dispatch returned (the replies are already absorbed into state).
    fn resume(&mut self, core: &SessionCore) {
        let cut = core.round_cut;
        match &mut self.phase {
            MdaPhase::Uniform(_) => {
                if cut {
                    self.post_hop(core);
                }
            }
            MdaPhase::Parents(parents) => match parents.sub {
                VertexSub::WaitBatch | VertexSub::WaitPostHunt => {
                    if cut {
                        parents.finish_parent();
                    } else {
                        parents.sub = VertexSub::Eval;
                    }
                }
                VertexSub::WaitHunt { flow, left } => {
                    let parent = parents.pending[parents.idx];
                    if cut {
                        parents.finish_parent();
                    } else if core.state.flow_vertex(self.ttl - 1, flow) == Some(parent) {
                        parents.sub = VertexSub::EmitPostHunt { flow };
                    } else if left == 0 {
                        parents.finish_parent();
                    } else {
                        parents.sub = VertexSub::HuntNext { left };
                    }
                }
                _ => debug_assert!(false, "resume without a round in flight"),
            },
            MdaPhase::HopStart | MdaPhase::Done => {
                debug_assert!(false, "resume without a round in flight")
            }
        }
    }
}

/// The classic MDA as a [`TraceSession`].
pub struct MdaSession {
    core: SessionCore,
    machine: MdaMachine,
    finished: bool,
    audit: Option<RouteAudit>,
    auditing: bool,
}

impl MdaSession {
    /// Creates a session tracing towards `destination`.
    pub fn new(destination: Ipv4Addr, config: TraceConfig) -> Self {
        let audit = config.reprobe.map(RouteAudit::new);
        let mut core = SessionCore::new(destination, config);
        core.reserve_used_flows();
        Self {
            core,
            machine: MdaMachine::new(),
            finished: false,
            audit,
            auditing: false,
        }
    }
}

impl TraceSession for MdaSession {
    fn poll(&mut self) -> SessionState {
        if self.finished {
            return SessionState::Finished;
        }
        if !self.core.round.is_empty() {
            return SessionState::Probing;
        }
        if self.machine.advance(&mut self.core) {
            return SessionState::Probing;
        }
        // The stopping rule fired: audit the committed evidence before
        // trusting it (audit probes are bounded separately and never
        // charged to the stopping rule's per-hop accounting).
        if let Some(audit) = self.audit.as_mut() {
            if let Some(specs) = audit.start(&self.core.state) {
                self.core.round = specs;
                self.auditing = true;
                return SessionState::Probing;
            }
            audit.finalize(&self.core.state);
        }
        self.finished = true;
        SessionState::Finished
    }

    fn next_rounds(&self) -> &[ProbeSpec] {
        &self.core.round
    }

    fn on_replies(&mut self, results: &[Option<ProbeObservation>]) {
        if self.core.round.is_empty() {
            return;
        }
        if self.auditing {
            self.auditing = false;
            let round = std::mem::take(&mut self.core.round);
            #[expect(
                clippy::expect_used,
                reason = "invariant: `auditing` is only set true in the branch that saw `audit` as Some, and `audit` is never cleared"
            )]
            let audit = self.audit.as_mut().expect("auditing without an audit");
            let verdict = audit.absorb(
                &round,
                results,
                &mut self.core.state,
                self.core.destination,
                &BTreeMap::new(),
            );
            self.core.recycle(round);
            if let AuditVerdict::Recover { at_ttl } = verdict {
                self.machine = MdaMachine::at(at_ttl);
            }
            return;
        }
        self.core.absorb(results);
        self.machine.resume(&self.core);
    }

    fn destination(&self) -> Ipv4Addr {
        self.core.destination
    }

    fn predicted_cost(&self) -> u64 {
        // No topology knowledge before probing: the remaining budget is
        // the only a-priori bound on what this trace can still cost.
        self.core.config.probe_budget.saturating_sub(self.core.used)
    }

    fn route_health(&self) -> Option<RouteHealth> {
        self.audit.as_ref().map(RouteAudit::health)
    }

    fn take_trace(&mut self, probes_sent: u64) -> Trace {
        Trace {
            algorithm: Algorithm::Mda,
            destination: self.core.destination,
            reached_destination: self.core.state.destination_ttl().is_some(),
            probes_sent,
            probes_elided: 0,
            switched: None,
            budget_exhausted: self.core.exhausted(),
            outcome: audit_outcome(self.audit.as_ref()),
            discovery: std::mem::take(&mut self.core.state),
        }
    }
}

/// The trace outcome a session's audit dictates: `Partial { RouteChanged }`
/// on recovery exhaustion, `Complete` otherwise (including no audit).
fn audit_outcome(audit: Option<&RouteAudit>) -> TraceOutcome {
    match audit.and_then(RouteAudit::partial) {
        Some(reason) => TraceOutcome::Partial { reason },
        None => TraceOutcome::Complete,
    }
}

/// Meshing-test context (Sec. 2.3.2), fixed when the test starts.
struct MeshState {
    vertices: Vec<Ipv4Addr>,
    from_ttl: u8,
    to_ttl: u8,
    wider_prev: bool,
    attempts: u64,
}

enum LitePhase {
    /// Stop-set mode: descending one-probe scan from below the start
    /// TTL, hunting the deepest hop the shared set already knows.
    Scan {
        /// TTL the scout probes next.
        ttl: u8,
    },
    /// A scan probe is in flight.
    ScanWait {
        /// TTL the scout probed.
        ttl: u8,
    },
    HopStart,
    Uniform(UniformState),
    UniformWait(UniformState),
    Edges {
        round: u8,
    },
    EdgesWait {
        round: u8,
    },
    MeshGather(MeshState),
    MeshGatherWait(MeshState),
    MeshTrace(MeshState),
    MeshTraceWait(MeshState),
    MeshDetect(MeshState),
    Escalate(MdaMachine),
    Done,
}

/// Stop-set state of an [`MdaLiteSession`].
struct LiteStops {
    snap: StopSnapshot,
    /// The single flow the descending scan probes with (`None` when the
    /// adopted snapshot was empty and the session probes classically).
    scout: Option<FlowId>,
    probes_elided: u64,
    stop_hits: u64,
}

/// MDA-Lite as a [`TraceSession`], including the switchover: on meshing
/// or width asymmetry the embedded [`MdaMachine`] resumes over the
/// accumulated evidence.
///
/// With an adopted non-empty stop set the session first runs a
/// descending one-probe scan with a single scout flow from below the
/// snapshot's start TTL: the first `(TTL, interface)` pair the set
/// already knows short-circuits the shared prefix, and the classic
/// hop-by-hop loop resumes just above the hit. The scan supplies only
/// single-flow evidence, which MDA-Lite's diamond detection cannot rely
/// on — so any meshing or asymmetry found later escalates, as always,
/// to a full [`MdaMachine`] from TTL 1: the full-probing fallback that
/// keeps stopping-rule soundness when the set cannot supply per-hop
/// flow evidence.
pub struct MdaLiteSession {
    core: SessionCore,
    ttl: u8,
    phase: LitePhase,
    switched: Option<SwitchReason>,
    finished: bool,
    stops: Option<LiteStops>,
    audit: Option<RouteAudit>,
    auditing: bool,
}

impl MdaLiteSession {
    /// Creates a session tracing towards `destination`.
    pub fn new(destination: Ipv4Addr, config: TraceConfig) -> Self {
        let audit = config.reprobe.map(RouteAudit::new);
        Self {
            core: SessionCore::new(destination, config),
            ttl: 1,
            phase: LitePhase::HopStart,
            switched: None,
            finished: false,
            stops: None,
            audit,
            auditing: false,
        }
    }

    /// The hop loop's exit: either escalate to the full MDA or stop.
    fn end_of_hops(&mut self) {
        if self.switched.is_some() && !self.core.exhausted() {
            self.core.reserve_used_flows();
            self.phase = LitePhase::Escalate(MdaMachine::new());
        } else {
            self.phase = LitePhase::Done;
        }
    }

    /// The width-asymmetry test followed by the hop's closing checks.
    fn check_asym_then_hop_end(&mut self) {
        if pair_is_asymmetric(&self.core.state, self.ttl) {
            self.switched = Some(SwitchReason::AsymmetryDetected { ttl: self.ttl - 1 });
            self.end_of_hops();
        } else {
            self.hop_end();
        }
    }

    fn hop_end(&mut self) {
        if converged(&self.core.state, self.core.destination, self.ttl) {
            self.end_of_hops();
        } else {
            self.ttl += 1;
            self.phase = LitePhase::HopStart;
        }
    }

    /// After uniform discovery: budget check, then edge completion (the
    /// `ttl >= 2` block) or straight to the hop's closing checks.
    fn after_uniform(&mut self) {
        if self.core.exhausted() {
            self.end_of_hops();
        } else if self.ttl >= 2 {
            self.phase = LitePhase::Edges { round: 0 };
        } else {
            self.hop_end();
        }
    }

    /// After edge completion: budget check, then the meshing test when
    /// both hops are multi-vertex, else the asymmetry test.
    fn after_edges(&mut self) {
        if self.core.exhausted() {
            self.end_of_hops();
            return;
        }
        let prev_multi = self.core.state.vertices_at(self.ttl - 1).len() >= 2;
        let curr_multi = self.core.state.vertices_at(self.ttl).len() >= 2;
        if prev_multi && curr_multi {
            let wider_prev = self.core.state.vertices_at(self.ttl - 1).len()
                >= self.core.state.vertices_at(self.ttl).len();
            let (from_ttl, to_ttl) = if wider_prev {
                (self.ttl - 1, self.ttl)
            } else {
                (self.ttl, self.ttl - 1)
            };
            self.phase = LitePhase::MeshGather(MeshState {
                vertices: self.core.state.vertices_at(from_ttl).to_vec(),
                from_ttl,
                to_ttl,
                wider_prev,
                attempts: 0,
            });
        } else {
            self.check_asym_then_hop_end();
        }
    }

    /// Advances until a round is pending (`true`) or the session is done
    /// (`false`).
    fn advance(&mut self) -> bool {
        loop {
            match std::mem::replace(&mut self.phase, LitePhase::Done) {
                LitePhase::Done => return false,
                LitePhase::Scan { ttl } => {
                    // A scan phase is only entered by `adopt_stop_set`
                    // after it installed stop state with a scout flow;
                    // if either is gone, degrade to classic probing
                    // from TTL 1 rather than panic mid-sweep.
                    let Some(scout) = self.stops.as_ref().and_then(|s| s.scout) else {
                        self.ttl = 1;
                        self.phase = LitePhase::HopStart;
                        continue;
                    };
                    let mut specs = self.core.specs_buffer();
                    specs.push(ProbeSpec::new(scout, ttl));
                    match self.core.emit(specs) {
                        Emit::Yield => {
                            self.phase = LitePhase::ScanWait { ttl };
                            return true;
                        }
                        // Budget gone before the scan found anything:
                        // fall back to classic probing from TTL 1.
                        Emit::NoneSent { .. } => {
                            self.ttl = 1;
                            self.phase = LitePhase::HopStart;
                        }
                    }
                }
                LitePhase::HopStart => {
                    if self.ttl > self.core.config.max_ttl {
                        self.end_of_hops();
                        continue;
                    }
                    let reuse = if self.ttl == 1 {
                        Vec::new()
                    } else {
                        self.core.state.reuse_queue(self.ttl - 1)
                    };
                    self.phase = LitePhase::Uniform(UniformState::new(reuse));
                }
                LitePhase::Uniform(mut uniform) => {
                    match uniform.build_round(&mut self.core, self.ttl) {
                        Some(specs) => match self.core.emit(specs) {
                            Emit::Yield => {
                                self.phase = LitePhase::UniformWait(uniform);
                                return true;
                            }
                            Emit::NoneSent { .. } => self.after_uniform(),
                        },
                        None => self.after_uniform(),
                    }
                }
                LitePhase::Edges { round } => {
                    if round >= 4 {
                        self.after_edges();
                        continue;
                    }
                    let mut work = self.core.specs_buffer();
                    build_edge_work(&self.core.state, self.ttl, &mut work);
                    if work.is_empty() {
                        self.core.recycle(work);
                        self.after_edges();
                        continue;
                    }
                    match self.core.emit(work) {
                        Emit::Yield => {
                            self.phase = LitePhase::EdgesWait { round };
                            return true;
                        }
                        Emit::NoneSent { .. } => self.after_edges(),
                    }
                }
                LitePhase::MeshGather(mut mesh) => {
                    let phi = self.core.config.phi as usize;
                    let deficit: u64 = mesh
                        .vertices
                        .iter()
                        .map(|&v| {
                            phi.saturating_sub(self.core.state.flows_at(mesh.from_ttl, v).len())
                                as u64
                        })
                        .sum();
                    if deficit == 0 {
                        self.phase = LitePhase::MeshTrace(mesh);
                        continue;
                    }
                    let allowance = self
                        .core
                        .config
                        .node_control_attempts
                        .saturating_sub(mesh.attempts);
                    let round = deficit.min(allowance);
                    if round == 0 {
                        self.phase = LitePhase::MeshTrace(mesh);
                        continue;
                    }
                    mesh.attempts += round;
                    let from_ttl = mesh.from_ttl;
                    let mut specs = self.core.specs_buffer();
                    for _ in 0..round {
                        // A dry flow space truncates the gather round.
                        let Some(flow) = self.core.flows.try_fresh() else {
                            break;
                        };
                        specs.push(ProbeSpec::new(flow, from_ttl));
                    }
                    if specs.is_empty() {
                        self.phase = LitePhase::MeshTrace(mesh);
                        continue;
                    }
                    match self.core.emit(specs) {
                        Emit::Yield => {
                            self.phase = LitePhase::MeshGatherWait(mesh);
                            return true;
                        }
                        Emit::NoneSent { .. } => self.phase = LitePhase::MeshTrace(mesh),
                    }
                }
                LitePhase::MeshTrace(mesh) => {
                    let phi = self.core.config.phi as usize;
                    let mut specs = self.core.specs_buffer();
                    for &v in &mesh.vertices {
                        specs.extend(
                            self.core
                                .state
                                .flows_at(mesh.from_ttl, v)
                                .take(phi)
                                .filter(|&f| !self.core.state.flow_probed_at(mesh.to_ttl, f))
                                .map(|f| ProbeSpec::new(f, mesh.to_ttl)),
                        );
                    }
                    match self.core.emit(specs) {
                        Emit::Yield => {
                            self.phase = LitePhase::MeshTraceWait(mesh);
                            return true;
                        }
                        // An empty round counts as fully sent: detection
                        // still runs over the accumulated evidence.
                        Emit::NoneSent { sent_all: true } => {
                            self.phase = LitePhase::MeshDetect(mesh)
                        }
                        // Budget gone: meshing_test returns "not meshed".
                        Emit::NoneSent { sent_all: false } => self.check_asym_then_hop_end(),
                    }
                }
                LitePhase::MeshDetect(mesh) => {
                    let earlier = mesh.from_ttl.min(mesh.to_ttl);
                    let state = &self.core.state;
                    let meshed = if mesh.wider_prev {
                        state
                            .vertices_at(earlier)
                            .iter()
                            .any(|&v| state.successors(earlier, v).len() >= 2)
                    } else {
                        state
                            .vertices_at(earlier + 1)
                            .iter()
                            .any(|&v| state.predecessors(earlier + 1, v).len() >= 2)
                    };
                    if meshed {
                        self.switched = Some(SwitchReason::MeshingDetected { ttl: self.ttl - 1 });
                        self.end_of_hops();
                    } else {
                        self.check_asym_then_hop_end();
                    }
                }
                LitePhase::Escalate(mut machine) => {
                    if machine.advance(&mut self.core) {
                        self.phase = LitePhase::Escalate(machine);
                        return true;
                    }
                    self.phase = LitePhase::Done;
                }
                LitePhase::ScanWait { .. }
                | LitePhase::UniformWait(_)
                | LitePhase::EdgesWait { .. }
                | LitePhase::MeshGatherWait(_)
                | LitePhase::MeshTraceWait(_) => {
                    debug_assert!(false, "advance called while awaiting replies");
                    return false;
                }
            }
        }
    }
}

impl TraceSession for MdaLiteSession {
    fn poll(&mut self) -> SessionState {
        if self.finished {
            return SessionState::Finished;
        }
        if !self.core.round.is_empty() {
            return SessionState::Probing;
        }
        if self.advance() {
            return SessionState::Probing;
        }
        // Stopping rules (or the escalated MDA) are done: audit the
        // committed evidence before trusting it.
        if let Some(audit) = self.audit.as_mut() {
            if let Some(specs) = audit.start(&self.core.state) {
                self.core.round = specs;
                self.auditing = true;
                return SessionState::Probing;
            }
            audit.finalize(&self.core.state);
        }
        self.finished = true;
        SessionState::Finished
    }

    fn next_rounds(&self) -> &[ProbeSpec] {
        &self.core.round
    }

    fn on_replies(&mut self, results: &[Option<ProbeObservation>]) {
        if self.core.round.is_empty() {
            return;
        }
        if self.auditing {
            self.auditing = false;
            let round = std::mem::take(&mut self.core.round);
            #[expect(
                clippy::expect_used,
                reason = "invariant: `auditing` is only set true in the branch that saw `audit` as Some, and `audit` is never cleared"
            )]
            let audit = self.audit.as_mut().expect("auditing without an audit");
            let verdict = audit.absorb(
                &round,
                results,
                &mut self.core.state,
                self.core.destination,
                &BTreeMap::new(),
            );
            self.core.recycle(round);
            if let AuditVerdict::Recover { at_ttl } = verdict {
                if self.switched.is_some() {
                    // The trace ended escalated: recovery re-enters the
                    // full MDA at the invalidated hop (Lite's hop loop
                    // must not resume over switched evidence).
                    self.core.reserve_used_flows();
                    self.phase = LitePhase::Escalate(MdaMachine::at(at_ttl));
                } else {
                    self.ttl = at_ttl;
                    self.phase = LitePhase::HopStart;
                }
            }
            return;
        }
        self.core.absorb(results);
        let cut = self.core.round_cut;
        match std::mem::replace(&mut self.phase, LitePhase::Done) {
            LitePhase::ScanWait { ttl } => {
                // Mirrors the `Scan` arm: stop state with a scout flow
                // is installed before any scan round can be in flight,
                // but if either is gone, degrade to classic probing
                // from TTL 1 rather than panic mid-sweep.
                let stops = self.stops.as_mut();
                let scout = stops.as_ref().and_then(|s| s.scout);
                let (Some(stops), Some(scout)) = (stops, scout) else {
                    self.ttl = 1;
                    self.phase = LitePhase::HopStart;
                    return;
                };
                let seen = self.core.state.flow_vertex(ttl, scout);
                let destination = Some(self.core.destination);
                if seen == destination && self.core.state.flow_vertex(ttl + 1, scout) == destination
                {
                    // The destination answered one TTL lower: it sits
                    // at the lowest TTL it answers, so the scout's
                    // record above goes.
                    self.core.state.remove_record(scout, ttl + 1);
                }
                let hit = seen.is_some_and(|v| stops.snap.contains(ttl, v));
                if hit {
                    // The set already knows this hop, so the prefix
                    // below is reconstructable from it; the hop loop
                    // resumes just above the hit, unless the hit is the
                    // destination, above which nothing lies. The scout's
                    // observation stays in the evidence base and counts
                    // towards the stopping rule like any other probe.
                    stops.stop_hits += 1;
                    stops.probes_elided += self
                        .core
                        .config
                        .stopping
                        .elision_estimate(u64::from(ttl - 1));
                    if seen == destination {
                        self.end_of_hops();
                    } else {
                        self.ttl = ttl + 1;
                        self.phase = LitePhase::HopStart;
                    }
                } else if ttl <= 1 {
                    // Scanned to the bottom without a hit: probe
                    // classically from TTL 1 over the scout's evidence.
                    self.ttl = 1;
                    self.phase = LitePhase::HopStart;
                } else {
                    self.phase = LitePhase::Scan { ttl: ttl - 1 };
                }
            }
            LitePhase::UniformWait(uniform) => {
                if cut {
                    self.after_uniform();
                } else {
                    self.phase = LitePhase::Uniform(uniform);
                }
            }
            LitePhase::EdgesWait { round } => {
                if cut {
                    self.after_edges();
                } else {
                    self.phase = LitePhase::Edges { round: round + 1 };
                }
            }
            LitePhase::MeshGatherWait(mesh) => {
                if cut {
                    self.phase = LitePhase::MeshTrace(mesh);
                } else {
                    self.phase = LitePhase::MeshGather(mesh);
                }
            }
            LitePhase::MeshTraceWait(mesh) => {
                if cut {
                    self.check_asym_then_hop_end();
                } else {
                    self.phase = LitePhase::MeshDetect(mesh);
                }
            }
            LitePhase::Escalate(mut machine) => {
                machine.resume(&self.core);
                self.phase = LitePhase::Escalate(machine);
            }
            other => {
                debug_assert!(false, "replies delivered with no round in flight");
                self.phase = other;
            }
        }
    }

    fn destination(&self) -> Ipv4Addr {
        self.core.destination
    }

    fn predicted_cost(&self) -> u64 {
        // Same bound as the full MDA: the remaining probe budget.
        self.core.config.probe_budget.saturating_sub(self.core.used)
    }

    fn adopt_stop_set(&mut self, snapshot: &StopSnapshot) {
        debug_assert!(
            matches!(self.phase, LitePhase::HopStart) && self.ttl == 1 && !self.finished,
            "stop sets are adopted before probing starts"
        );
        let start = snapshot.start_ttl().min(self.core.config.max_ttl);
        let scout = if snapshot.is_empty() || start <= 1 {
            // Generation 0 (or a degenerate start TTL): classic probing
            // from TTL 1, no extra flow draw — bit-identical to a sweep
            // without a stop set.
            None
        } else {
            let scout = self.core.flows.fresh();
            self.phase = LitePhase::Scan { ttl: start - 1 };
            Some(scout)
        };
        self.stops = Some(LiteStops {
            snap: snapshot.clone(),
            scout,
            probes_elided: 0,
            stop_hits: 0,
        });
    }

    fn stop_contribution(&mut self) -> Option<StopContribution> {
        // Every record in the evidence base is firsthand: MDA-Lite never
        // adopts foreign observations (scan hits only short-circuit
        // probing, they never inject records).
        let stops = self.stops.as_ref()?;
        let mut contribution = contribution_from_discovery(
            &self.core.state,
            self.core.destination,
            None,
            stops.probes_elided,
            stops.stop_hits,
        );
        if let Some(audit) = self.audit.as_ref() {
            contribution.evict.extend_from_slice(audit.evictions());
        }
        Some(contribution)
    }

    fn route_health(&self) -> Option<RouteHealth> {
        self.audit.as_ref().map(RouteAudit::health)
    }

    fn take_trace(&mut self, probes_sent: u64) -> Trace {
        Trace {
            algorithm: Algorithm::MdaLite,
            destination: self.core.destination,
            reached_destination: self.core.state.destination_ttl().is_some(),
            probes_sent,
            probes_elided: self.stops.as_ref().map_or(0, |s| s.probes_elided),
            switched: self.switched,
            budget_exhausted: self.core.exhausted(),
            outcome: audit_outcome(self.audit.as_ref()),
            discovery: std::mem::take(&mut self.core.state),
        }
    }
}

/// Deterministic edge-completion work between `ttl - 1` and `ttl`
/// (Sec. 2.3.1): forward probes for successor-less vertices, backward
/// probes for predecessor-less ones.
fn build_edge_work(state: &Discovery, ttl: u8, work: &mut Vec<ProbeSpec>) {
    for &u in state.vertices_at(ttl - 1) {
        if state.successors(ttl - 1, u).next().is_none() {
            if let Some(f) = state
                .flows_at(ttl - 1, u)
                .find(|&f| !state.flow_probed_at(ttl, f))
            {
                work.push(ProbeSpec::new(f, ttl));
            }
        }
    }
    for &v in state.vertices_at(ttl) {
        if state.predecessors(ttl, v).next().is_none() {
            if let Some(f) = state
                .flows_at(ttl, v)
                .find(|&f| !state.flow_probed_at(ttl - 1, f))
            {
                work.push(ProbeSpec::new(f, ttl - 1));
            }
        }
    }
}

/// Width-asymmetry test (Sec. 2.3.3).
pub(crate) fn pair_is_asymmetric(state: &Discovery, ttl: u8) -> bool {
    /// True if the nonzero counts are not all equal (vertices with no
    /// evidence don't testify).
    fn uneven(counts: impl Iterator<Item = usize>) -> bool {
        let mut testified = counts.filter(|&c| c > 0);
        testified
            .next()
            .is_some_and(|first| testified.any(|c| c != first))
    }
    let succ_counts = state
        .vertices_at(ttl - 1)
        .iter()
        .map(|&v| state.successors(ttl - 1, v).len());
    let pred_counts = state
        .vertices_at(ttl)
        .iter()
        .map(|&v| state.predecessors(ttl, v).len());
    uneven(succ_counts) || uneven(pred_counts)
}

/// Direction of the stop-set-aware single-flow probing legs.
enum SfDir {
    /// From the mid-path start TTL towards the destination.
    Forward,
    /// From below the start TTL towards the source, until a shared-stop
    /// hit.
    Backward,
}

/// Firsthand `(TTL, responder)` observations of one flow, ascending by
/// TTL, one per TTL.
#[derive(Default)]
struct SeenPath(Vec<(u8, Ipv4Addr)>);

impl SeenPath {
    fn position(&self, ttl: u8) -> Result<usize, usize> {
        self.0.binary_search_by_key(&ttl, |&(t, _)| t)
    }

    /// The responder observed at `ttl`.
    fn get(&self, ttl: u8) -> Option<Ipv4Addr> {
        self.position(ttl).ok().map(|i| self.0[i].1)
    }

    /// Notes `responder` at `ttl`, replacing an earlier observation
    /// there.
    fn insert(&mut self, ttl: u8, responder: Ipv4Addr) {
        match self.position(ttl) {
            Ok(i) => self.0[i].1 = responder,
            Err(i) => insert_at(&mut self.0, i, (ttl, responder)),
        }
    }

    /// Forgets every observation at or beyond `ttl`.
    fn truncate_from(&mut self, ttl: u8) {
        self.0.truncate(self.0.partition_point(|&(t, _)| t < ttl));
    }
}

/// Stop-set state of a [`SingleFlowSession`].
struct SfStops {
    snap: StopSnapshot,
    start: u8,
    dir: SfDir,
    /// Firsthand observations — the honest basis of the contribution;
    /// adopted responders never enter it.
    seen: SeenPath,
    /// Smallest TTL at which this session *itself* saw the destination.
    seen_dest_ttl: Option<u8>,
    /// A destination reply not yet recorded, with its TTL and whether it
    /// was firsthand: the destination answered with the hop below
    /// unknown, so it may sit lower. The backward leg lowers it while
    /// the destination keeps answering, and records it once a hop that
    /// is not the destination answers or the leg ends.
    held: Option<(u8, Ipv4Addr, bool)>,
    probes_elided: u64,
    stop_hits: u64,
}

impl SfStops {
    /// Adds a firsthand observation to the contribution basis.
    fn see(&mut self, ttl: u8, responder: Ipv4Addr, at_destination: bool) {
        self.seen.insert(ttl, responder);
        if at_destination {
            self.seen_dest_ttl = Some(self.seen_dest_ttl.map_or(ttl, |t| t.min(ttl)));
        }
    }
}

/// Paris traceroute with one flow identifier as a [`TraceSession`]: one
/// probe per TTL, stopping at the destination.
///
/// With an adopted stop set ([`TraceSession::adopt_stop_set`]) the
/// session runs Doubletree-style: it starts at the snapshot's mid-path
/// TTL, probes forward until the destination answers (or the set
/// predicts the rest of the path from a same-destination contributor —
/// the global stop), then probes backward towards the source until it
/// observes an interface the set already knows (the local stop), eliding
/// the shared near-source prefix. The empty snapshot leaves behaviour
/// exactly classic.
pub struct SingleFlowSession {
    destination: Ipv4Addr,
    config: TraceConfig,
    state: Discovery,
    flow: FlowId,
    ttl: u8,
    round: Vec<ProbeSpec>,
    done: bool,
    stops: Option<SfStops>,
    audit: Option<RouteAudit>,
    auditing: bool,
    finished: bool,
}

impl SingleFlowSession {
    /// Creates a session tracing towards `destination` with `flow`.
    pub fn new(destination: Ipv4Addr, config: TraceConfig, flow: FlowId) -> Self {
        let audit = config.reprobe.map(RouteAudit::new);
        Self {
            destination,
            config,
            state: Discovery::new(),
            flow,
            ttl: 1,
            round: Vec::new(),
            done: false,
            stops: None,
            audit,
            auditing: false,
            finished: false,
        }
    }

    /// Ends the forward leg: turns around below the start TTL (the
    /// backward leg), or finishes when no prefix is owed.
    fn end_forward(&mut self) {
        match self.stops.as_mut() {
            Some(stops) if matches!(stops.dir, SfDir::Forward) && stops.start > 1 => {
                stops.dir = SfDir::Backward;
                self.ttl = stops.start - 1;
            }
            _ => self.done = true,
        }
    }

    /// TTL → interface for every committed record that did *not* come
    /// from a firsthand reply — i.e. responders adopted from stop-set
    /// predictions. This is the audit's stale-versus-route-change
    /// discriminator.
    fn adopted_map(&self) -> BTreeMap<u8, Ipv4Addr> {
        let mut adopted = BTreeMap::new();
        let Some(stops) = self.stops.as_ref() else {
            return adopted;
        };
        for ttl in 1..=self.state.max_observed_ttl() {
            if let Some(vertex) = self.state.flow_vertex(ttl, self.flow) {
                if stops.seen.get(ttl) != Some(vertex) {
                    adopted.insert(ttl, vertex);
                }
            }
        }
        adopted
    }

    /// Records an observation of this session's flow; a firsthand one
    /// also joins the contribution basis.
    fn note(&mut self, ttl: u8, responder: Ipv4Addr, at_destination: bool, firsthand: bool) {
        self.state.record(self.flow, ttl, responder, at_destination);
        if let Some(stops) = self.stops.as_mut().filter(|_| firsthand) {
            stops.see(ttl, responder, at_destination);
        }
    }

    /// Whether a destination reply at `ttl` must be held back (see
    /// [`SfStops::held`]): in the forward leg while the hop below is
    /// unknown and a backward leg will probe below it, and in the
    /// backward leg while one is held already.
    fn holds_destination(&self, ttl: u8) -> bool {
        self.stops.as_ref().is_some_and(|stops| match stops.dir {
            SfDir::Forward => {
                stops.start > 1 && self.state.flow_vertex(ttl - 1, self.flow).is_none()
            }
            SfDir::Backward => stops.held.is_some(),
        })
    }

    /// Records the held destination reply, if any.
    fn release_destination(&mut self) {
        if let Some((ttl, responder, firsthand)) = self.stops.as_mut().and_then(|s| s.held.take()) {
            self.note(ttl, responder, true, firsthand);
        }
    }
}

impl TraceSession for SingleFlowSession {
    fn poll(&mut self) -> SessionState {
        if self.finished {
            return SessionState::Finished;
        }
        if !self.round.is_empty() {
            return SessionState::Probing;
        }
        if !self.done && self.ttl > self.config.max_ttl {
            // The forward leg ran out of TTL horizon; in stop-set mode
            // the backward leg below the start TTL is still owed.
            self.end_forward();
        }
        if self.done {
            // Both legs are done: audit the committed evidence before
            // trusting it.
            if let Some(audit) = self.audit.as_mut() {
                if let Some(specs) = audit.start(&self.state) {
                    self.round = specs;
                    self.auditing = true;
                    return SessionState::Probing;
                }
                audit.finalize(&self.state);
            }
            self.finished = true;
            return SessionState::Finished;
        }
        self.round.clear();
        self.round.push(ProbeSpec::new(self.flow, self.ttl));
        self.state.note_probes_sent(&self.round);
        SessionState::Probing
    }

    fn next_rounds(&self) -> &[ProbeSpec] {
        &self.round
    }

    fn on_replies(&mut self, results: &[Option<ProbeObservation>]) {
        if self.round.is_empty() {
            return;
        }
        if self.auditing {
            self.auditing = false;
            let round = std::mem::take(&mut self.round);
            let adopted = self.adopted_map();
            #[expect(
                clippy::expect_used,
                reason = "invariant: `auditing` is only set true in the branch that saw `audit` as Some, and `audit` is never cleared"
            )]
            let audit = self.audit.as_mut().expect("auditing without an audit");
            let verdict =
                audit.absorb(&round, results, &mut self.state, self.destination, &adopted);
            let invalidated = match verdict {
                AuditVerdict::Recover { at_ttl } => {
                    // Re-trace the invalidated suffix forward from the
                    // contradicted hop; the backward leg's surviving
                    // prefix is not owed again (start clamps to 1).
                    self.done = false;
                    self.ttl = at_ttl;
                    if let Some(stops) = self.stops.as_mut() {
                        stops.dir = SfDir::Forward;
                        stops.start = 1;
                    }
                    Some(at_ttl)
                }
                AuditVerdict::Exhausted { at_ttl } => Some(at_ttl),
                AuditVerdict::Clean => None,
            };
            if let Some(at_ttl) = invalidated {
                // Firsthand observations at and beyond the contradicted
                // hop describe the pre-change world: they leave the
                // contribution too.
                if let Some(stops) = self.stops.as_mut() {
                    stops.seen.truncate_from(at_ttl);
                    if stops.seen_dest_ttl.is_some_and(|t| t >= at_ttl) {
                        stops.seen_dest_ttl = None;
                    }
                }
            }
            // Audit replies are firsthand evidence: every observation the
            // surviving state agrees with (matches, repaired stale
            // adoptions, the fresh post-change record at the contradicted
            // hop) joins the contribution basis.
            if let Some(stops) = self.stops.as_mut() {
                for (spec, result) in round.iter().zip(results) {
                    let Some(obs) = result.as_ref() else { continue };
                    if self.state.flow_vertex(spec.ttl, spec.flow) != Some(obs.responder) {
                        continue;
                    }
                    stops.see(spec.ttl, obs.responder, obs.at_destination);
                }
            }
            return;
        }
        let spec = self.round[0];
        self.round.clear();
        // What the probe observed: the delivered reply, or — for an
        // unanswered slot — the responder the shared set predicts for
        // this (destination, flow, TTL). Paris flow determinism (same
        // destination + same flow ⇒ same path) makes the prediction
        // sound, and it is what lets the engine elide the retry.
        let (observed, firsthand) = match results.first().and_then(Option::as_ref) {
            Some(obs) => (Some((obs.responder, obs.at_destination)), true),
            None => (
                self.stops.as_ref().and_then(|stops| {
                    stops
                        .snap
                        .predicted_responder(spec.ttl, self.destination, self.flow)
                        .map(|(iface, _)| (iface, iface == self.destination))
                }),
                false,
            ),
        };
        match observed {
            Some((responder, true)) if self.holds_destination(spec.ttl) => {
                if let Some(stops) = self.stops.as_mut() {
                    stops.held = Some((spec.ttl, responder, firsthand));
                }
            }
            Some((responder, at_destination)) => {
                self.release_destination();
                self.note(spec.ttl, responder, at_destination, firsthand);
            }
            None => {}
        }
        if let Some(stops) = self
            .stops
            .as_mut()
            .filter(|s| matches!(s.dir, SfDir::Backward))
        {
            // Backward leg: a shared-stop hit means the set already
            // knows this interface at this TTL, so the prefix below is
            // reconstructable and probing it again is pure redundancy.
            let hit =
                observed.is_some_and(|(responder, _)| stops.snap.contains(spec.ttl, responder));
            if hit {
                stops.stop_hits += 1;
                // One probe per remaining TTL is exactly what the
                // classic tracer would have spent below here.
                stops.probes_elided += u64::from(spec.ttl - 1);
                self.done = true;
            } else if spec.ttl <= 1 {
                self.done = true;
            } else {
                self.ttl = spec.ttl - 1;
            }
            if self.done {
                self.release_destination();
            }
            return;
        }
        // Forward leg (or classic probing from TTL 1).
        if observed.is_some_and(|(_, at_destination)| at_destination) {
            self.end_forward();
            return;
        }
        // Global stop: a same-destination same-flow contributor already
        // traced this path to the destination — adopt its destination
        // TTL and skip the probes between.
        let global = observed.and_then(|(responder, _)| {
            let stops = self.stops.as_ref()?;
            let meta = stops.snap.get(spec.ttl, responder)?;
            if meta.toward == self.destination && meta.flow == Some(self.flow) && meta.reached {
                meta.dest_ttl.filter(|&dt| dt > spec.ttl)
            } else {
                None
            }
        });
        if let Some(dest_ttl) = global {
            self.state
                .record(self.flow, dest_ttl, self.destination, true);
            // `global` is derived from `self.stops` above, so the stop
            // state is present whenever this branch runs.
            if let Some(stops) = self.stops.as_mut() {
                stops.stop_hits += 1;
                stops.probes_elided += u64::from(dest_ttl - spec.ttl);
            }
            self.end_forward();
        } else {
            self.ttl += 1;
        }
    }

    fn destination(&self) -> Ipv4Addr {
        self.destination
    }

    fn predicted_cost(&self) -> u64 {
        // One probe per remaining TTL is this tracer's exact worst case.
        u64::from(self.config.max_ttl.saturating_sub(self.ttl)) + 1
    }

    fn adopt_stop_set(&mut self, snapshot: &StopSnapshot) {
        debug_assert!(
            self.round.is_empty() && self.ttl == 1 && !self.done,
            "stop sets are adopted before probing starts"
        );
        let start = if snapshot.is_empty() {
            // Generation 0: no evidence, probe exactly classically.
            1
        } else {
            snapshot.start_ttl().clamp(1, self.config.max_ttl)
        };
        self.ttl = start;
        self.stops = Some(SfStops {
            snap: snapshot.clone(),
            start,
            dir: SfDir::Forward,
            seen: SeenPath::default(),
            seen_dest_ttl: None,
            held: None,
            probes_elided: 0,
            stop_hits: 0,
        });
    }

    fn stop_contribution(&mut self) -> Option<StopContribution> {
        let stops = self.stops.as_ref()?;
        let entries = stops
            .seen
            .0
            .iter()
            .map(|&(ttl, interface)| StopSeen {
                ttl,
                interface,
                predecessor: ttl
                    .checked_sub(1)
                    .filter(|&p| p >= 1)
                    .and_then(|p| stops.seen.get(p)),
            })
            .collect();
        Some(StopContribution {
            entries,
            destination: Some(self.destination),
            flow: Some(self.flow),
            dest_ttl: stops.seen_dest_ttl,
            reached: stops.seen_dest_ttl.is_some(),
            probes_elided: stops.probes_elided,
            stop_hits: stops.stop_hits,
            evict: self
                .audit
                .as_ref()
                .map(|audit| audit.evictions().to_vec())
                .unwrap_or_default(),
        })
    }

    fn route_health(&self) -> Option<RouteHealth> {
        self.audit.as_ref().map(RouteAudit::health)
    }

    fn should_retry(&self, spec: &ProbeSpec) -> bool {
        self.stops.as_ref().is_none_or(|stops| {
            stops
                .snap
                .predicted_responder(spec.ttl, self.destination, spec.flow)
                .is_none()
        })
    }

    fn take_trace(&mut self, probes_sent: u64) -> Trace {
        Trace {
            algorithm: Algorithm::SingleFlow,
            destination: self.destination,
            reached_destination: self.state.destination_ttl().is_some(),
            probes_sent,
            probes_elided: self.stops.as_ref().map_or(0, |s| s.probes_elided),
            switched: None,
            budget_exhausted: false,
            outcome: audit_outcome(self.audit.as_ref()),
            discovery: std::mem::take(&mut self.state),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SweepEngine;
    use mlpt_sim::SimNetwork;
    use mlpt_topo::canonical;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

    /// Forwards to the wrapped session, checking the driver-facing
    /// contract on every poll: polling again changes nothing, the
    /// pending round is stable, and a round is empty exactly when the
    /// session has finished.
    struct Checked<S> {
        inner: S,
        rounds: usize,
    }

    impl<S: TraceSession> TraceSession for Checked<S> {
        fn poll(&mut self) -> SessionState {
            let state = self.inner.poll();
            let round = self.inner.next_rounds().to_vec();
            assert_eq!(self.inner.poll(), state, "poll is idempotent");
            assert_eq!(
                self.inner.next_rounds(),
                round,
                "the pending round is stable"
            );
            assert_eq!(state == SessionState::Probing, !round.is_empty());
            state
        }
        fn next_rounds(&self) -> &[ProbeSpec] {
            self.inner.next_rounds()
        }
        fn on_replies(&mut self, results: &[Option<ProbeObservation>]) {
            self.rounds += 1;
            self.inner.on_replies(results);
        }
        fn destination(&self) -> Ipv4Addr {
            self.inner.destination()
        }
        fn take_trace(&mut self, probes_sent: u64) -> Trace {
            self.inner.take_trace(probes_sent)
        }
    }

    fn engine(topo: &mlpt_topo::MultipathTopology, seed: u64) -> SweepEngine<SimNetwork> {
        SweepEngine::new(SimNetwork::new(topo.clone(), seed), SRC)
    }

    /// A session can be driven round by round through its public
    /// contract alone, and the pending round is stable across repeated
    /// polls.
    #[test]
    fn manual_drive_matches_driver() {
        let topo = canonical::fig1_unmeshed();
        let config = TraceConfig::new(9);
        let checked = Checked {
            inner: MdaSession::new(topo.destination(), config.clone()),
            rounds: 0,
        };
        let (manual, checked) = engine(&topo, 4).run_trace(checked);
        assert!(checked.rounds > 1, "a multipath trace takes several rounds");

        let via_driver = crate::mda::trace_mda(&mut engine(&topo, 4), topo.destination(), &config);
        assert_eq!(manual.probes_sent, via_driver.probes_sent);
        assert_eq!(manual.discovery, via_driver.discovery);
    }

    /// Sessions never yield an empty round while probing.
    #[test]
    fn rounds_are_never_empty() {
        let topo = canonical::fig1_meshed();
        let checked = Checked {
            inner: MdaLiteSession::new(topo.destination(), TraceConfig::new(2)),
            rounds: 0,
        };
        let (trace, _) = engine(&topo, 2).run_trace(checked);
        assert!(trace.reached_destination);
    }

    /// A finished session stays finished and reports an empty round.
    #[test]
    fn finished_is_terminal() {
        let topo = canonical::simplest_diamond();
        let session = SingleFlowSession::new(topo.destination(), TraceConfig::new(1), FlowId(3));
        let (trace, mut session) = engine(&topo, 1).run_trace(session);
        assert!(trace.reached_destination);
        assert_eq!(session.poll(), SessionState::Finished);
        assert!(session.next_rounds().is_empty());
    }
}
