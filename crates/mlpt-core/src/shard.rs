//! Sharded sweep engine: multicore scale-out of [`SweepEngine`].
//!
//! A single [`SweepEngine`] drives every session and every transport
//! crossing on one thread: session bookkeeping — demux, pending table,
//! retry waves, AIMD — and, on the simulator, the lanes' own work. For
//! million-destination sweeps that serial section dominates. The
//! [`ShardedSweepEngine`] splits the destination space across N
//! independent engine **shards**, each owning its own transport,
//! pending table, retry waves and AIMD budget, and drives disjoint
//! shards in parallel: shard 0 on the calling thread, every other shard
//! on a worker thread that lives for the whole call and parks between
//! generations.
//!
//! # Partition function
//!
//! [`shard_of`] maps a destination to its shard by a fixed
//! multiplicative hash of the address — **by destination, never by
//! source index** — so every session towards one destination lands on
//! the same shard (reply tags stay unambiguous, per-destination FIFO
//! order survives) and the assignment is reproducible from the
//! destination alone. The same function must partition the transport:
//! `MultiNetwork::split_by` in `mlpt-sim` takes it as the assignment
//! closure, so a shard's lanes are exactly its sessions' lanes.
//!
//! # The generation coordinator
//!
//! The shared stop set ([`crate::stopset`]) is **protocol state**
//! (determinism rule 5): its contents must be decided by source order,
//! never by scheduling. One coordinator, `run_generations`, keeps it
//! that way for both engines — [`SweepEngine::run_sessions_with`] and
//! [`ShardedSweepEngine::run_sessions_with`] both run their source
//! through it:
//!
//! 1. Sessions are pulled from the source in generations of
//!    [`StopSetConfig::commit_width`] consecutive source indices, each
//!    generation only after the previous one has committed; every
//!    session of generation *g* adopts, as it is pulled, the identical
//!    snapshot closed over generations `< g` (generation 0 adopts the
//!    empty snapshot).
//! 2. The generation goes to a runner, which drives it to completion —
//!    a **barrier**: nothing of generation *g+1* is pulled until every
//!    session of *g* has finished. A [`SweepEngine`] (and a one-shard
//!    [`ShardedSweepEngine`]) streams the generation through its plain
//!    scheduler loop; several shards partition it by [`shard_of`], send
//!    each worker its slice over a channel, and run shard 0's slice on
//!    the calling thread meanwhile. No thread is spawned per generation.
//! 3. Each finished session's contribution is harvested before the
//!    caller's sink sees the session; at the barrier the generation's
//!    snapshot is dropped, the contributions commit in **source-index
//!    order** (first-writer-wins per `(TTL, interface)`, evictions
//!    first), and generation *g+1* takes its snapshot. Both steps are
//!    cheap: with no older snapshot alive the commits write the shared
//!    map in place, and a snapshot is an `Arc` clone.
//!
//! Same generation boundaries, same commit order, same snapshots for
//! any shard count, admission mode and budget, so every
//! per-destination outcome is bit-identical and replays exactly from
//! seed. Without a stop set the whole source is one generation: a
//! single engine streams it lazily, and shards never synchronise
//! mid-sweep.
//!
//! # Accounting
//!
//! Each shard's engine keeps its own [`SweepStats`] (exposed via
//! [`ShardedSweepEngine::shard_stats`]); [`ShardedSweepEngine::stats`]
//! merges them through the audited [`SweepStats::merge`] (sums
//! saturate; high-water marks take the max) plus the shard layer's own
//! counters: stop-set elisions/hits/evictions (harvested by the
//! coordinator) and [`SweepStats::generation_barrier_stalls`]. A stall
//! is a shard-generation that finished its slice early and parked at
//! the barrier while the slowest shard kept dispatching — counted by
//! comparing per-shard *dispatch-cycle deltas* across the generation
//! (virtual work, not wall clock), so the counter is deterministic and
//! replayable like everything else.
//!
//! All accounting invariants hold per shard **and** merged: the
//! 4-bucket partition (`probes_timed_out + replies_delivered +
//! malformed_replies + mismatched_replies == probes_sent`) and the
//! stop-set ledger (`probes_sent + probes_elided == classic
//! probes_sent` under single-flow/lossless conditions) — see
//! `tests/sweep_equivalence.rs`.
//!
//! # Caveat
//!
//! Sharding assumes per-destination transport isolation: a shard's
//! transport must own every interface its sessions can elicit replies
//! from. The simulator's per-destination lanes satisfy this by
//! construction ([`MultiNetwork::split_by`] keeps each destination's
//! lane whole); a raw-socket backend trivially satisfies it (the kernel
//! routes replies by the probe's tag, not by shard).
//!
//! [`MultiNetwork::split_by`]: ../../mlpt_sim/struct.MultiNetwork.html

use crate::engine::{finish_trace, in_source_order, SweepConfig, SweepEngine, SweepStats};
use crate::session::{ProbeSession, TraceProbeSession, TraceSession};
use crate::stopset::{SharedStopSet, StopContribution, StopSetConfig, StopSnapshot};
use crate::trace::Trace;
use mlpt_wire::transport::SplitTransport;
use std::net::Ipv4Addr;
use std::sync::mpsc;

/// The deterministic destination→shard partition function.
///
/// A fixed multiplicative hash (Knuth's 2^32/φ constant) scrambles the
/// address, and a multiply-shift maps the hash's *high* bits onto
/// `0..shards`. The low k bits of the product depend only on the
/// address's low k bits, so reducing them instead would put every
/// address sharing its low bits (e.g. every `N.k.0.0` block) on one
/// shard. `shards <= 1` always maps to shard 0. The function is pure:
/// the same `(destination, shards)` pair maps identically forever, on
/// every platform — replays and transport splits agree by construction.
pub fn shard_of(destination: Ipv4Addr, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    ((u64::from(u32::from(destination).wrapping_mul(0x9E37_79B1)) * shards as u64) >> 32) as usize
}

/// The stop-set generation coordinator (see module docs): pulls
/// `sessions` generation by generation, has each session adopt the
/// current snapshot as it is pulled, hands each generation to `run` with
/// a sink taking generation-relative indices, harvests every finished
/// session's contribution before `sink` sees it under its source index,
/// and commits in source-index order at each generation's end. Without a
/// stop set the whole source is one generation.
///
/// Returns the stop-set counters (elisions, hits, evictions) for the
/// caller's [`SweepStats`], and the final snapshot when a stop set ran.
pub(crate) fn run_generations<S, I, R, F>(
    stop_set: Option<StopSetConfig>,
    sessions: I,
    mut run: R,
    mut sink: F,
) -> (SweepStats, Option<StopSnapshot>)
where
    S: ProbeSession,
    I: IntoIterator<Item = S>,
    R: FnMut(&mut dyn Iterator<Item = S>, &mut dyn FnMut(usize, S, u64)),
    F: FnMut(usize, S, u64),
{
    let width = stop_set.map_or(usize::MAX, |cfg| cfg.commit_width.max(1));
    let mut source = sessions.into_iter();
    let mut set = SharedStopSet::default();
    // What the open generation adopts; `None` without a stop set.
    let mut snapshot = stop_set.map(|_| StopSnapshot::empty());
    let mut counters = SweepStats::default();
    let mut base = 0usize;
    loop {
        let mut pulled = 0usize;
        let mut staged: Vec<(usize, StopContribution)> = Vec::new();
        let mut generation = source.by_ref().take(width).map(|mut session| {
            pulled += 1;
            if let Some(snapshot) = &snapshot {
                session.adopt_stop_set(snapshot);
            }
            session
        });
        run(&mut generation, &mut |index, mut session, probes_sent| {
            if stop_set.is_some() {
                if let Some(contribution) = session.stop_contribution() {
                    counters.probes_elided += contribution.probes_elided;
                    counters.stop_set_hits += contribution.stop_hits;
                    staged.push((base + index, contribution));
                }
            }
            sink(base + index, session, probes_sent);
        });
        if let Some(cfg) = &stop_set {
            // Every session of the generation has been through `sink`, so
            // dropping the open snapshot lets the commits below write the
            // map in place (a caller still holding sessions pays a copy).
            snapshot.take();
            staged.sort_unstable_by_key(|&(index, _)| index);
            for (index, contribution) in &staged {
                set.commit(*index, contribution);
            }
            snapshot = Some(set.snapshot(cfg));
        }
        base += pulled;
        if pulled < width {
            break;
        }
    }
    counters.stop_set_evictions = set.evictions();
    (counters, snapshot)
}

/// N independent [`SweepEngine`] shards behind one engine-shaped
/// surface (see module docs).
pub struct ShardedSweepEngine<T: SplitTransport> {
    engines: Vec<SweepEngine<T>>,
    /// Shard-layer counters the inner engines cannot see: stop-set
    /// elisions/hits/evictions and generation-barrier stalls.
    extra: SweepStats,
    /// `extra` merged with every shard's stats, rebuilt after each run.
    merged: SweepStats,
    /// Final stop-set snapshot of the last run with an active stop set.
    last_stop_snapshot: Option<StopSnapshot>,
}

impl<T: SplitTransport> ShardedSweepEngine<T> {
    /// Creates a sharded engine over `transports` (one shard per
    /// transport, at least one), probing from `source`. The caller must
    /// have partitioned the transports with the same [`shard_of`]
    /// assignment this engine applies to sessions.
    ///
    /// # Panics
    ///
    /// Panics if `transports` is empty.
    pub fn new(transports: Vec<T>, source: Ipv4Addr) -> Self {
        assert!(
            !transports.is_empty(),
            "a sharded engine needs at least one shard transport"
        );
        Self {
            engines: transports
                .into_iter()
                .map(|t| SweepEngine::new(t, source))
                .collect(),
            extra: SweepStats::default(),
            merged: SweepStats::default(),
            last_stop_snapshot: None,
        }
    }

    /// Replaces the tuning knobs of every shard. The shared stop set
    /// ([`SweepConfig::stop_set`]) is coordinated across the shards, at
    /// generation barriers (see module docs).
    pub fn with_config(mut self, config: SweepConfig) -> Self {
        self.engines = self
            .engines
            .into_iter()
            .map(|engine| engine.with_config(config))
            .collect();
        self
    }

    /// Per-shard dispatch statistics, in shard order. Protocol-level
    /// counters sum to the unsharded equivalents; scheduling counters
    /// (dispatch cycles, batch sizes, backoffs) are per-shard facts.
    pub fn shard_stats(&self) -> Vec<&SweepStats> {
        self.engines.iter().map(|e| e.stats()).collect()
    }

    /// Merged sweep statistics: every shard's counters combined through
    /// [`SweepStats::merge`], plus the shard-layer stop-set and
    /// barrier-stall counters.
    pub fn stats(&self) -> &SweepStats {
        &self.merged
    }

    /// The shared stop set's final snapshot from the last run with
    /// [`SweepConfig::stop_set`] active (`None` otherwise) — same
    /// contract as [`SweepEngine::stop_snapshot`].
    pub fn stop_snapshot(&self) -> Option<&StopSnapshot> {
        self.last_stop_snapshot.as_ref()
    }
}

impl<T: SplitTransport + Send> ShardedSweepEngine<T> {
    /// Streams trace sessions through the sharded engine, returning
    /// their traces in source order — the sharded analogue of
    /// [`SweepEngine::run_stream`].
    pub fn run_stream<I>(&mut self, sessions: I) -> Vec<Trace>
    where
        I: IntoIterator<Item = Box<dyn TraceSession>>,
    {
        in_source_order(|sink| self.run_stream_with(sessions, sink))
    }

    /// Streams trace sessions through the sharded engine, handing each
    /// finished trace to `sink` with its source index — the sharded
    /// analogue of [`SweepEngine::run_stream_with`].
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

    /// The generalised entry point — the sharded analogue of
    /// [`SweepEngine::run_sessions_with`]: streams any `Send` probe
    /// session type through the shards, handing each finished session
    /// back with its source index and wire-level probe count. One
    /// shard streams its source exactly like a [`SweepEngine`]; several
    /// emit their sessions in source order within each generation.
    ///
    /// With several shards the call opens one thread scope: shards 1 to
    /// N−1 each get a worker thread for the whole call, which runs one
    /// generation slice per job, and shard 0 runs its slices on the
    /// calling thread. A panic on any of them, or in `sink`, panics the
    /// call once every worker has been joined.
    pub fn run_sessions_with<S, I, F>(&mut self, sessions: I, sink: F)
    where
        S: ProbeSession + Send,
        I: IntoIterator<Item = S>,
        F: FnMut(usize, S, u64),
    {
        let Some((local, rest)) = self.engines.split_first_mut() else {
            return; // unreachable: `new` rejects an empty transport vector
        };
        let stop_set = local.config().stop_set;
        let (counters, snapshot) = if rest.is_empty() {
            run_generations(
                stop_set,
                sessions,
                |generation, emit| local.stream_sessions(generation, emit),
                sink,
            )
        } else {
            let stalls = &mut self.extra.generation_barrier_stalls;
            std::thread::scope(|scope| {
                let workers: Vec<Worker<S>> = rest
                    .iter_mut()
                    .map(|engine| {
                        let (jobs, inbox) = mpsc::channel();
                        let (outbox, results) = mpsc::channel();
                        // The worker ends when the caller drops `jobs`,
                        // normally or while unwinding.
                        scope.spawn(move || {
                            for slice in inbox {
                                if outbox.send(run_shard(engine, slice)).is_err() {
                                    break;
                                }
                            }
                        });
                        Worker { jobs, results }
                    })
                    .collect();
                run_generations(
                    stop_set,
                    sessions,
                    |generation, emit| *stalls += fan_out(local, &workers, generation, emit),
                    sink,
                )
            })
        };
        self.extra.merge(&counters);
        self.last_stop_snapshot = snapshot;
        let mut merged = self.extra;
        for engine in &self.engines {
            merged.merge(engine.stats());
        }
        self.merged = merged;
    }
}

/// What one shard hands back for its slice of a generation: `(generation
/// index, session, probes sent)` per session, and the dispatch cycles
/// the slice took.
type SliceOutput<S> = (Vec<(usize, S, u64)>, u64);

/// The caller's end of one shard's sweep-long worker thread.
struct Worker<S> {
    /// One generation slice per job.
    jobs: mpsc::Sender<Vec<(usize, S)>>,
    /// One output per job, in job order.
    results: mpsc::Receiver<SliceOutput<S>>,
}

/// Runs one generation across several shards: partitions it by
/// [`shard_of`] (same-destination sessions land on the same shard, so
/// reply tags stay unambiguous), hands each busy worker shard its slice,
/// runs shard 0's slice on the calling thread meanwhile, then emits
/// every session in source order. Returns the generation's barrier
/// stalls: busy shards that finished in fewer dispatch cycles than the
/// slowest one idled at the barrier.
fn fan_out<T: SplitTransport, S: ProbeSession>(
    local: &mut SweepEngine<T>,
    workers: &[Worker<S>],
    generation: &mut dyn Iterator<Item = S>,
    emit: &mut dyn FnMut(usize, S, u64),
) -> u64 {
    let shards = workers.len() + 1;
    let mut own = Vec::new();
    let mut slices: Vec<Vec<(usize, S)>> = workers.iter().map(|_| Vec::new()).collect();
    for (index, session) in generation.enumerate() {
        match shard_of(session.destination(), shards) {
            0 => own.push((index, session)),
            shard => slices[shard - 1].push((index, session)),
        }
    }
    let mut busy = Vec::new();
    for (worker, slice) in workers.iter().zip(slices) {
        if !slice.is_empty() {
            // A worker that panicked drops its inbox; the receive below
            // reports it.
            let _ = worker.jobs.send(slice);
            busy.push(worker);
        }
    }
    let mut results = Vec::new();
    let mut cycles = Vec::new();
    if !own.is_empty() {
        let (out, spent) = run_shard(local, own);
        results = out;
        cycles.push(spent);
    }
    for worker in busy {
        let (out, spent) = worker
            .results
            .recv()
            // mlpt: allow(MLPT-W004, reason = "recv() fails only if the worker panicked; panicking here unwinds the scope, which joins every worker")
            .expect("a sweep shard worker panicked");
        results.extend(out);
        cycles.push(spent);
    }
    let slowest = cycles.iter().copied().max().unwrap_or(0);
    let stalls = cycles.iter().filter(|&&spent| spent < slowest).count() as u64;

    // Emit in source order within the generation: determinism of the
    // emission sequence, not just of its contents.
    results.sort_by_key(|&(index, _, _)| index);
    for (index, session, probes_sent) in results {
        emit(index, session, probes_sent);
    }
    stalls
}

/// Runs one shard's slice of a generation to completion on its own
/// engine. Shard state is engine state: budgets, stats and dispatch
/// buffers persist across generations on their own shard, untouched by
/// the others.
fn run_shard<T: SplitTransport, S: ProbeSession>(
    engine: &mut SweepEngine<T>,
    slice: Vec<(usize, S)>,
) -> SliceOutput<S> {
    let cycles_before = engine.stats().dispatch_cycles;
    let indices: Vec<usize> = slice.iter().map(|&(index, _)| index).collect();
    let mut out = Vec::with_capacity(indices.len());
    engine.stream_sessions(
        &mut slice.into_iter().map(|(_, session)| session),
        &mut |local, session, probes_sent| out.push((indices[local], session, probes_sent)),
    );
    (out, engine.stats().dispatch_cycles - cycles_before)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TraceConfig;
    use crate::engine::{AdaptiveBudget, Admission};
    use crate::session::{MdaLiteSession, ProbeOutcome, ProbeRequest, SessionState};
    use mlpt_sim::{MultiNetwork, SimNetwork};
    use mlpt_topo::canonical;
    use std::collections::HashSet;
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

    #[test]
    fn shard_of_is_deterministic_and_in_range() {
        let dests = [
            Ipv4Addr::new(198, 51, 100, 1),
            Ipv4Addr::new(198, 51, 100, 2),
            Ipv4Addr::new(203, 0, 113, 7),
            Ipv4Addr::new(10, 0, 0, 1),
        ];
        for shards in 1..=8 {
            for d in dests {
                let s = shard_of(d, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(d, shards), "pure function");
            }
        }
        for d in dests {
            assert_eq!(shard_of(d, 0), 0);
            assert_eq!(shard_of(d, 1), 0);
        }
        // The hash actually spreads adjacent addresses (not a fixed
        // value): over a /24 of destinations every shard of 4 is hit.
        let mut hit = [false; 4];
        for host in 0..=255u8 {
            hit[shard_of(Ipv4Addr::new(198, 51, 100, host), 4)] = true;
        }
        assert!(hit.iter().all(|&h| h), "all shards reachable: {hit:?}");
    }

    /// Every shard gets at least half its fair share of 64 destinations
    /// of each address family the sweeps build, at 2, 3 and 4 shards.
    /// These families differ only in their high bits, so a partition
    /// that reduced the hash's low bits would leave shards idle.
    #[test]
    fn shard_of_balances_every_lane_address_family() {
        let translated = |topo: mlpt_topo::MultipathTopology| -> Vec<Ipv4Addr> {
            (1..=64)
                .map(|i| topo.translated(0x0100_0000 * i).destination())
                .collect()
        };
        let families = [
            // Synthetic-Internet scenarios: one 8192-address block per
            // scenario from 64.0.0.0, 128 addresses per hop.
            (
                "scenario",
                (0..64u32)
                    .map(|i| Ipv4Addr::from(0x4000_0000 + i * 8192 + (10 + i % 9) * 128))
                    .collect(),
            ),
            ("replica block", translated(canonical::meshed())),
            ("translated lane", translated(canonical::fig1_meshed())),
            (
                "shared prefix",
                (0..64)
                    .map(|i| canonical::shared_prefix_lane(20, 4, i).destination())
                    .collect(),
            ),
        ];
        for (family, destinations) in &families {
            for shards in 2..=4 {
                let mut load = vec![0usize; shards];
                for &d in destinations {
                    load[shard_of(d, shards)] += 1;
                }
                assert!(
                    load.iter().all(|&n| 2 * n * shards >= 64),
                    "{family} destinations over {shards} shards: {load:?}"
                );
            }
        }
    }

    /// `n` disjoint copies of the meshed Fig. 1 diamond.
    fn lane_topos(n: u32) -> Vec<mlpt_topo::MultipathTopology> {
        (0..n)
            .map(|i| canonical::fig1_meshed().translated(0x0100_0000 * (i + 1)))
            .collect()
    }

    fn nets_for(
        topos: &[mlpt_topo::MultipathTopology],
        pred: impl Fn(Ipv4Addr) -> bool,
    ) -> Vec<SimNetwork> {
        topos
            .iter()
            .enumerate()
            .filter(|(_, t)| pred(t.destination()))
            .map(|(i, t)| SimNetwork::new(t.clone(), 7 + i as u64))
            .collect()
    }

    fn sessions_for(topos: &[mlpt_topo::MultipathTopology]) -> Vec<Box<dyn TraceSession>> {
        topos
            .iter()
            .enumerate()
            .map(|(i, t)| {
                Box::new(MdaLiteSession::new(
                    t.destination(),
                    TraceConfig::new(i as u64),
                )) as Box<dyn TraceSession>
            })
            .collect()
    }

    /// A `shards`-shard engine over `topos`, transports split by
    /// [`shard_of`].
    fn sharded(
        topos: &[mlpt_topo::MultipathTopology],
        shards: usize,
        cfg: SweepConfig,
    ) -> ShardedSweepEngine<MultiNetwork> {
        let transports: Vec<_> = (0..shards)
            .map(|s| {
                MultiNetwork::new(nets_for(topos, |d| shard_of(d, shards) == s))
                    .expect("unique destinations")
            })
            .collect();
        ShardedSweepEngine::new(transports, SRC).with_config(cfg)
    }

    fn config(admission: Admission, stop: Option<StopSetConfig>) -> SweepConfig {
        SweepConfig {
            max_in_flight: 16,
            retries: 1,
            admission,
            adaptive: Some(AdaptiveBudget {
                min_in_flight: 2,
                ..AdaptiveBudget::default()
            }),
            stop_set: stop,
            ..SweepConfig::default()
        }
    }

    /// The heart of the tentpole: N-shard runs are bit-identical to the
    /// unsharded engine — traces, protocol stats, stop-set snapshot —
    /// across admission modes, with and without the shared stop set.
    #[test]
    fn sharded_matches_unsharded_bit_identical() {
        let topos = lane_topos(13);
        let stop = Some(StopSetConfig {
            commit_width: 4,
            ..StopSetConfig::default()
        });
        for admission in [Admission::Streaming, Admission::CostAware(usize::MAX)] {
            for stop_cfg in [None, stop] {
                let cfg = config(admission, stop_cfg);
                // Unsharded reference.
                let net =
                    MultiNetwork::new(nets_for(&topos, |_| true)).expect("unique destinations");
                let mut plain = SweepEngine::new(net, SRC).with_config(cfg);
                let want = plain.run_stream(sessions_for(&topos));
                let want_stats = *plain.stats();

                for shards in [1usize, 2, 3, 4] {
                    let mut sharded = sharded(&topos, shards, cfg);
                    let got = sharded.run_stream(sessions_for(&topos));
                    assert_eq!(want, got, "{admission:?} stop={stop_cfg:?} shards={shards}");
                    let got_stats = *sharded.stats();
                    // Protocol-level stats are scheduling-independent.
                    assert_eq!(want_stats.probes_sent, got_stats.probes_sent);
                    assert_eq!(want_stats.replies_delivered, got_stats.replies_delivered);
                    assert_eq!(want_stats.probes_timed_out, got_stats.probes_timed_out);
                    assert_eq!(want_stats.probes_elided, got_stats.probes_elided);
                    assert_eq!(want_stats.stop_set_hits, got_stats.stop_set_hits);
                    assert_eq!(want_stats.retries_elided, got_stats.retries_elided);
                    assert_eq!(want_stats.stop_set_evictions, got_stats.stop_set_evictions);
                    assert_eq!(want_stats.sessions_admitted, got_stats.sessions_admitted);
                    assert_eq!(want_stats.sessions_completed, got_stats.sessions_completed);
                    // 4-bucket partition holds per shard and merged.
                    for stats in sharded
                        .shard_stats()
                        .into_iter()
                        .copied()
                        .chain([got_stats])
                    {
                        assert_eq!(
                            stats.probes_timed_out
                                + stats.replies_delivered
                                + stats.malformed_replies
                                + stats.mismatched_replies,
                            stats.probes_sent
                        );
                    }
                    // Same final snapshot (the set is protocol state).
                    match (plain.stop_snapshot(), sharded.stop_snapshot()) {
                        (None, None) => assert!(stop_cfg.is_none()),
                        (Some(a), Some(b)) => assert_eq!(a.len(), b.len()),
                        (a, b) => panic!("snapshot presence diverged: {a:?} vs {b:?}"),
                    }
                }
            }
        }
    }

    /// Replays are exact: the same seeds and shard count reproduce the
    /// same traces and merged stats, including the barrier-stall
    /// counter (virtual work, not wall clock).
    #[test]
    fn sharded_replay_is_exact() {
        let topos = lane_topos(9);
        let cfg = config(
            Admission::Streaming,
            Some(StopSetConfig {
                commit_width: 3,
                ..StopSetConfig::default()
            }),
        );
        let run = || {
            let mut engine = sharded(&topos, 3, cfg);
            let traces = engine.run_stream(sessions_for(&topos));
            (traces, *engine.stats())
        };
        let (traces_a, stats_a) = run();
        let (traces_b, stats_b) = run();
        assert_eq!(traces_a, traces_b);
        assert_eq!(stats_a, stats_b, "replay must reproduce every counter");
    }

    /// One shard streams its source like a plain engine: without a stop
    /// set, the first session finishes long before the source is drained.
    #[test]
    fn one_shard_pulls_its_source_lazily() {
        let topos = lane_topos(64);
        let net = MultiNetwork::new(nets_for(&topos, |_| true)).expect("unique destinations");
        let mut engine = ShardedSweepEngine::new(vec![net], SRC).with_config(SweepConfig {
            max_in_flight: 16,
            ..SweepConfig::default()
        });
        let pulled = std::cell::Cell::new(0usize);
        let sessions = sessions_for(&topos)
            .into_iter()
            .inspect(|_| pulled.set(pulled.get() + 1));
        let mut pulled_at_first_finish = None;
        engine.run_stream_with(sessions, |_, _| {
            pulled_at_first_finish.get_or_insert(pulled.get());
        });
        let first = pulled_at_first_finish.expect("every session finishes");
        assert!(
            first < topos.len(),
            "all {first} sessions were pulled before the first finished"
        );
        assert_eq!(pulled.get(), topos.len());
    }

    /// A trace session that records the thread of every `poll` and, when
    /// told to, panics as its first replies arrive.
    struct Watched {
        inner: TraceProbeSession<Box<dyn TraceSession>>,
        threads: Arc<Mutex<HashSet<ThreadId>>>,
        explode: bool,
    }

    impl ProbeSession for Watched {
        fn poll(&mut self) -> SessionState {
            self.threads
                .lock()
                .expect("no poll panics while holding the lock")
                .insert(std::thread::current().id());
            self.inner.poll()
        }

        fn next_rounds(&self) -> &[ProbeRequest] {
            self.inner.next_rounds()
        }

        fn on_replies(&mut self, results: &mut [Option<ProbeOutcome>]) {
            assert!(!self.explode, "session exploded");
            self.inner.on_replies(results);
        }

        fn destination(&self) -> Ipv4Addr {
            self.inner.destination()
        }

        fn adopt_stop_set(&mut self, snapshot: &StopSnapshot) {
            self.inner.adopt_stop_set(snapshot);
        }

        fn stop_contribution(&mut self) -> Option<StopContribution> {
            self.inner.stop_contribution()
        }
    }

    /// `Watched` sessions over `topos`; the one at source index
    /// `explode`, if any, panics.
    fn watched(
        topos: &[mlpt_topo::MultipathTopology],
        threads: &Arc<Mutex<HashSet<ThreadId>>>,
        explode: Option<usize>,
    ) -> Vec<Watched> {
        sessions_for(topos)
            .into_iter()
            .enumerate()
            .map(|(i, session)| Watched {
                inner: TraceProbeSession::new(session),
                threads: Arc::clone(threads),
                explode: explode == Some(i),
            })
            .collect()
    }

    /// 16 lanes in generations of 2: eight stop-set generations.
    fn two_shards_eight_generations(
        topos: &[mlpt_topo::MultipathTopology],
    ) -> ShardedSweepEngine<MultiNetwork> {
        let stop = StopSetConfig {
            commit_width: 2,
            ..StopSetConfig::default()
        };
        sharded(topos, 2, config(Admission::Streaming, Some(stop)))
    }

    /// Worker shards live as long as the call: across every generation
    /// of a 2-shard stop-set sweep, shard 0's sessions run on the
    /// caller's thread and shard 1's on one worker thread.
    #[test]
    fn shard_workers_last_the_whole_sweep() {
        let topos = lane_topos(16);
        let mut engine = two_shards_eight_generations(&topos);
        let threads = Arc::new(Mutex::new(HashSet::new()));
        let mut finished = 0;
        engine.run_sessions_with(watched(&topos, &threads, None), |_, _, _| finished += 1);
        assert_eq!(finished, topos.len());
        let threads = threads.lock().expect("every session finished");
        assert!(
            threads.contains(&std::thread::current().id()),
            "shard 0 runs on the caller: {threads:?}"
        );
        assert_eq!(threads.len(), 2, "one thread per shard: {threads:?}");
    }

    /// A session panicking on a worker shard panics the call instead of
    /// leaving the caller waiting for that shard.
    #[test]
    #[should_panic(expected = "a sweep shard worker panicked")]
    fn worker_shard_panic_reaches_the_caller() {
        let topos = lane_topos(16);
        let victim = topos
            .iter()
            .position(|t| shard_of(t.destination(), 2) == 1)
            .expect("shard 1 owns a lane");
        let mut engine = two_shards_eight_generations(&topos);
        let threads = Arc::new(Mutex::new(HashSet::new()));
        engine.run_sessions_with(watched(&topos, &threads, Some(victim)), |_, _, _| {});
    }

    /// A sink panicking on the caller's thread mid-sweep panics the call
    /// once the parked workers are joined.
    #[test]
    #[should_panic(expected = "sink exploded")]
    fn sink_panic_joins_the_workers() {
        let topos = lane_topos(16);
        let mut engine = two_shards_eight_generations(&topos);
        let threads = Arc::new(Mutex::new(HashSet::new()));
        engine.run_sessions_with(watched(&topos, &threads, None), |index, _, _| {
            assert!(index < 4, "sink exploded");
        });
    }

    #[test]
    #[should_panic(expected = "at least one shard transport")]
    fn empty_transport_vector_rejected() {
        let _ = ShardedSweepEngine::<mlpt_sim::SimNetwork>::new(Vec::new(), SRC);
    }
}
