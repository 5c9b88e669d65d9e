//! Layer wrappers: the benchmark times each layer from outside by
//! wrapping the public trait the engine drives it through.
//!
//! * [`TracedTrace`] / [`TracedProbe`] wrap a `TraceSession` /
//!   `ProbeSession` — the `session` layer, with `adopt_stop_set` and
//!   `stop_contribution` charged to the `stopset` layer instead.
//! * [`TracedTransport`] wraps a `SplitTransport` — the `transport`
//!   layer (the simulator standing in for the network).
//!
//! Each wrapper forwards **every** trait method, provided defaults
//! included, so wrapping can never switch a behaviour off (a dropped
//! `adopt_stop_set` would silently disable stop sets); the benchmark
//! proves it by comparing output digests of wrapped and bare runs.
//!
//! Everything a wrapper records lands in a shared [`Ledger`]. Counts
//! (rounds, crossings, per-destination crossings from admission to
//! finish) never read the clock; the clock is read only for the `*_ns`
//! totals and the per-shard busy spans.

use crate::alloc::{self, Layer};
use mlpt_core::prober::ProbeSpec;
use mlpt_core::shard::shard_of;
use mlpt_core::{
    PartialReason, ProbeObservation, ProbeOutcome, ProbeRequest, ProbeSession, RouteHealth,
    SessionState, StopContribution, StopSnapshot, Trace, TraceSession,
};
use mlpt_wire::transport::{PacketBatch, PacketTransport, ReplyBatch, SplitTransport};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Not-yet-admitted marker for a destination's admission crossing.
const UNSET: u64 = u64::MAX;

/// One shard's busy span inside the generation it is currently running:
/// first layer-call entry to last layer-call exit.
#[derive(Debug, Default)]
struct ShardSpan {
    generation: usize,
    first: u64,
    last: u64,
    open: bool,
    /// Busy nanoseconds of every closed span.
    closed_ns: u64,
}

impl ShardSpan {
    fn stamp(&mut self, generation: usize, entry: u64, exit: u64) {
        if !self.open || self.generation != generation {
            self.close();
            self.generation = generation;
            self.first = entry;
            self.open = true;
        }
        self.last = exit;
    }

    fn close(&mut self) {
        if self.open {
            self.closed_ns += self.last.saturating_sub(self.first);
            self.open = false;
        }
    }
}

/// Everything the wrappers of one traced sweep record. Counters are
/// relaxed atomics (statistics only; they publish no other data).
pub struct Ledger {
    epoch: Instant,
    shards: usize,
    session_ns: AtomicU64,
    transport_ns: AtomicU64,
    stopset_ns: AtomicU64,
    /// `on_replies` calls (one per completed round).
    rounds: AtomicU64,
    /// Probes requested by sessions (first attempts of every round).
    requested: AtomicU64,
    /// Probes put on the wire (retries included).
    probes: AtomicU64,
    /// Answered reply slots.
    replies: AtomicU64,
    /// Transport crossings per shard.
    crossings: Vec<AtomicU64>,
    /// Per source index: the owning shard's crossing count at admission.
    admitted_at: Vec<AtomicU64>,
    /// Per source index: crossings from admission to finish.
    rtts: Vec<AtomicU64>,
    /// The stop-set generation the coordinator last opened.
    generation: AtomicUsize,
    spans: Vec<Mutex<ShardSpan>>,
    /// Per generation: per-shard crossing counts when it opened.
    generation_marks: Mutex<Vec<Vec<u64>>>,
}

/// Per-sweep totals read back from a [`Ledger`].
#[derive(Debug, Clone, Default)]
pub struct LedgerTotals {
    pub session_ns: u64,
    pub transport_ns: u64,
    pub stopset_ns: u64,
    pub rounds: u64,
    pub requested: u64,
    pub probes: u64,
    pub replies: u64,
    pub crossings: u64,
    /// Sum over generations of the busiest shard's crossings: the
    /// sweep's makespan in round trips when shards run in parallel.
    pub makespan: u64,
    /// Crossings from admission to finish, per destination.
    pub dest_rtts: Vec<u64>,
    /// Summed per-shard busy spans.
    pub busy_ns: u64,
    pub generations: u64,
}

impl Ledger {
    /// A ledger for `destinations` sessions over `shards` transports.
    pub fn new(destinations: usize, shards: usize) -> Arc<Self> {
        let shards = shards.max(1);
        Arc::new(Ledger {
            epoch: Instant::now(),
            shards,
            session_ns: AtomicU64::new(0),
            transport_ns: AtomicU64::new(0),
            stopset_ns: AtomicU64::new(0),
            rounds: AtomicU64::new(0),
            requested: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            replies: AtomicU64::new(0),
            crossings: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            admitted_at: (0..destinations).map(|_| AtomicU64::new(UNSET)).collect(),
            rtts: (0..destinations).map(|_| AtomicU64::new(0)).collect(),
            generation: AtomicUsize::new(0),
            spans: (0..shards).map(|_| Mutex::default()).collect(),
            generation_marks: Mutex::new(vec![vec![0; shards]]),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn shard_of(&self, destination: Ipv4Addr) -> usize {
        shard_of(destination, self.shards)
    }

    fn span(&self, shard: usize, entry: u64, exit: u64) {
        let generation = self.generation.load(Ordering::Relaxed);
        self.spans[shard]
            .lock()
            .expect("span mutex poisoned by a panicking shard")
            .stamp(generation, entry, exit);
    }

    /// Marks the start of stop-set generation `generation` (called by
    /// the coordinator as it pulls the generation's first session).
    pub fn open_generation(&self, generation: usize) {
        if generation == 0 {
            return; // generation 0 opens with the ledger
        }
        let previous = alloc::enter(Layer::Bench);
        self.generation.store(generation, Ordering::Relaxed);
        let mark: Vec<u64> = self
            .crossings
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        self.generation_marks
            .lock()
            .expect("generation marks poisoned")
            .push(mark);
        alloc::exit(previous);
    }

    /// Reads the totals back once the sweep has ended.
    pub fn totals(&self) -> LedgerTotals {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let end: Vec<u64> = self.crossings.iter().map(load).collect();
        let marks = self
            .generation_marks
            .lock()
            .expect("generation marks poisoned");
        let mut makespan = 0;
        for (g, mark) in marks.iter().enumerate() {
            let next = marks.get(g + 1).unwrap_or(&end);
            makespan += (0..self.shards)
                .map(|s| next[s] - mark[s])
                .max()
                .unwrap_or(0);
        }
        let busy_ns = self
            .spans
            .iter()
            .map(|span| {
                let mut span = span.lock().expect("span mutex poisoned");
                span.close();
                span.closed_ns
            })
            .sum();
        LedgerTotals {
            session_ns: load(&self.session_ns),
            transport_ns: load(&self.transport_ns),
            stopset_ns: load(&self.stopset_ns),
            rounds: load(&self.rounds),
            requested: load(&self.requested),
            probes: load(&self.probes),
            replies: load(&self.replies),
            crossings: end.iter().sum(),
            makespan,
            dest_rtts: self.rtts.iter().map(load).collect(),
            busy_ns,
            generations: marks.len() as u64,
        }
    }
}

/// Times one call into `layer`, charging its nanoseconds to `total` and
/// its allocations (through the allocator's thread-local tag) to
/// `layer`. Returns the call's entry and exit stamps for busy spans.
#[inline]
fn timed<R>(
    ledger: &Ledger,
    layer: Layer,
    total: &AtomicU64,
    call: impl FnOnce() -> R,
) -> (R, u64, u64) {
    let previous = alloc::enter(layer);
    let entry = ledger.now_ns();
    let out = call();
    let exit = ledger.now_ns();
    alloc::exit(previous);
    total.fetch_add(exit - entry, Ordering::Relaxed);
    (out, entry, exit)
}

/// Session-boundary bookkeeping shared by both session wrappers.
struct Boundary {
    ledger: Arc<Ledger>,
    index: usize,
    shard: usize,
    finished: bool,
}

impl Boundary {
    fn new(ledger: Arc<Ledger>, index: usize, destination: Ipv4Addr) -> Self {
        let shard = ledger.shard_of(destination);
        Boundary {
            ledger,
            index,
            shard,
            finished: false,
        }
    }

    fn call<R>(&self, layer: Layer, call: impl FnOnce() -> R) -> R {
        let total = match layer {
            Layer::Stopset => &self.ledger.stopset_ns,
            _ => &self.ledger.session_ns,
        };
        let (out, entry, exit) = timed(&self.ledger, layer, total, call);
        self.ledger.span(self.shard, entry, exit);
        out
    }

    /// Admission is the first poll; finish is the first `Finished`.
    /// Both read the owning shard's crossing counter, never the clock.
    fn on_poll(&mut self, state: SessionState) {
        let crossings = self.ledger.crossings[self.shard].load(Ordering::Relaxed);
        let admitted = &self.ledger.admitted_at[self.index];
        if admitted.load(Ordering::Relaxed) == UNSET {
            admitted.store(crossings, Ordering::Relaxed);
        }
        if state == SessionState::Finished && !self.finished {
            self.finished = true;
            let rtts = crossings - admitted.load(Ordering::Relaxed);
            self.ledger.rtts[self.index].store(rtts, Ordering::Relaxed);
        }
    }

    fn on_round(&self, requested: usize) {
        self.ledger.rounds.fetch_add(1, Ordering::Relaxed);
        self.ledger
            .requested
            .fetch_add(requested as u64, Ordering::Relaxed);
    }
}

/// A `TraceSession` with every call timed as the `session` layer.
pub struct TracedTrace<S> {
    inner: S,
    boundary: Boundary,
}

impl<S: TraceSession> TracedTrace<S> {
    /// Wraps the session at source index `index`.
    pub fn new(inner: S, ledger: Arc<Ledger>, index: usize) -> Self {
        let boundary = Boundary::new(ledger, index, inner.destination());
        TracedTrace { inner, boundary }
    }
}

impl<S: TraceSession> TraceSession for TracedTrace<S> {
    fn poll(&mut self) -> SessionState {
        let state = self.boundary.call(Layer::Session, || self.inner.poll());
        self.boundary.on_poll(state);
        state
    }

    fn next_rounds(&self) -> &[ProbeSpec] {
        self.boundary
            .call(Layer::Session, || self.inner.next_rounds())
    }

    fn on_replies(&mut self, results: &[Option<ProbeObservation>]) {
        self.boundary.on_round(results.len());
        self.boundary
            .call(Layer::Session, || self.inner.on_replies(results))
    }

    fn destination(&self) -> Ipv4Addr {
        self.inner.destination()
    }

    fn take_trace(&mut self, probes_sent: u64) -> Trace {
        self.boundary
            .call(Layer::Session, || self.inner.take_trace(probes_sent))
    }

    fn predicted_cost(&self) -> u64 {
        self.boundary
            .call(Layer::Session, || self.inner.predicted_cost())
    }

    fn adopt_stop_set(&mut self, snapshot: &StopSnapshot) {
        self.boundary
            .call(Layer::Stopset, || self.inner.adopt_stop_set(snapshot))
    }

    fn stop_contribution(&mut self) -> Option<StopContribution> {
        self.boundary
            .call(Layer::Stopset, || self.inner.stop_contribution())
    }

    fn should_retry(&self, spec: &ProbeSpec) -> bool {
        self.boundary
            .call(Layer::Session, || self.inner.should_retry(spec))
    }

    fn route_health(&self) -> Option<RouteHealth> {
        self.boundary
            .call(Layer::Session, || self.inner.route_health())
    }
}

/// A `ProbeSession` with every call timed as the `session` layer.
pub struct TracedProbe<S> {
    inner: S,
    boundary: Boundary,
}

impl<S: ProbeSession> TracedProbe<S> {
    /// Wraps the session at source index `index`.
    pub fn new(inner: S, ledger: Arc<Ledger>, index: usize) -> Self {
        let boundary = Boundary::new(ledger, index, inner.destination());
        TracedProbe { inner, boundary }
    }

    /// Consumes the session through `finish` (the caller's result
    /// extraction), timed as session work.
    pub fn finish_with<R>(self, finish: impl FnOnce(S) -> R) -> R {
        let TracedProbe { inner, boundary } = self;
        boundary.call(Layer::Session, || finish(inner))
    }
}

impl<S: ProbeSession> ProbeSession for TracedProbe<S> {
    fn poll(&mut self) -> SessionState {
        let state = self.boundary.call(Layer::Session, || self.inner.poll());
        self.boundary.on_poll(state);
        state
    }

    fn next_rounds(&self) -> &[ProbeRequest] {
        self.boundary
            .call(Layer::Session, || self.inner.next_rounds())
    }

    fn on_replies(&mut self, results: &mut [Option<ProbeOutcome>]) {
        self.boundary.on_round(results.len());
        self.boundary
            .call(Layer::Session, || self.inner.on_replies(results))
    }

    fn destination(&self) -> Ipv4Addr {
        self.inner.destination()
    }

    fn note_wire_probes(&mut self, count: u64) {
        self.boundary
            .call(Layer::Session, || self.inner.note_wire_probes(count))
    }

    fn predicted_cost(&self) -> u64 {
        self.boundary
            .call(Layer::Session, || self.inner.predicted_cost())
    }

    fn abort(&mut self, reason: PartialReason) {
        self.boundary
            .call(Layer::Session, || self.inner.abort(reason))
    }

    fn adopt_stop_set(&mut self, snapshot: &StopSnapshot) {
        self.boundary
            .call(Layer::Stopset, || self.inner.adopt_stop_set(snapshot))
    }

    fn stop_contribution(&mut self) -> Option<StopContribution> {
        self.boundary
            .call(Layer::Stopset, || self.inner.stop_contribution())
    }

    fn should_retry(&self, request: &ProbeRequest) -> bool {
        self.boundary
            .call(Layer::Session, || self.inner.should_retry(request))
    }

    fn route_health(&self) -> Option<RouteHealth> {
        self.boundary
            .call(Layer::Session, || self.inner.route_health())
    }
}

/// A `SplitTransport` with both halves timed as the `transport` layer.
pub struct TracedTransport<T> {
    inner: T,
    ledger: Arc<Ledger>,
    shard: usize,
}

impl<T: SplitTransport> TracedTransport<T> {
    /// Wraps shard `shard`'s transport.
    pub fn new(inner: T, ledger: Arc<Ledger>, shard: usize) -> Self {
        TracedTransport {
            inner,
            ledger,
            shard,
        }
    }

    /// Times one call into the wrapped transport.
    fn call<R>(&mut self, call: impl FnOnce(&mut T) -> R) -> R {
        let TracedTransport {
            inner,
            ledger,
            shard,
        } = self;
        let (out, entry, exit) = timed(ledger, Layer::Transport, &ledger.transport_ns, || {
            call(inner)
        });
        ledger.span(*shard, entry, exit);
        out
    }
}

impl<T: SplitTransport> PacketTransport for TracedTransport<T> {
    fn send_packet(&mut self, packet: &[u8]) -> Option<Vec<u8>> {
        self.call(|inner| inner.send_packet(packet))
    }

    fn send_packet_into(&mut self, packet: &[u8], reply: &mut Vec<u8>) -> bool {
        self.call(|inner| inner.send_packet_into(packet, reply))
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }
}

impl<T: SplitTransport> SplitTransport for TracedTransport<T> {
    fn send_probes(&mut self, probes: &PacketBatch, timeouts: &[u64]) {
        self.ledger.crossings[self.shard].fetch_add(1, Ordering::Relaxed);
        self.ledger
            .probes
            .fetch_add(probes.len() as u64, Ordering::Relaxed);
        self.call(|inner| inner.send_probes(probes, timeouts));
    }

    fn recv_replies(&mut self, replies: &mut ReplyBatch) {
        self.call(|inner| inner.recv_replies(replies));
        let answered = replies.iter().filter(|(reply, _)| reply.is_some()).count();
        self.ledger
            .replies
            .fetch_add(answered as u64, Ordering::Relaxed);
    }
}
