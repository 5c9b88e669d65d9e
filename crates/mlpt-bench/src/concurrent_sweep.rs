//! The survey-slice sweeps that the `concurrent_sweep` bench times and
//! `tests/sweep_gates.rs` gates.
//!
//! The workload is [`DESTINATIONS`] synthetic-Internet destinations
//! traced with the full MDA, exactly as `run_ip_survey` traces them,
//! three ways: the sequential full-trace loop the survey used before the
//! engine, one streaming [`SweepEngine`] over a shared `MultiNetwork`,
//! and a [`ShardedSweepEngine`] over its split. All three do the
//! identical wire work.

use mlpt_core::prelude::*;
use mlpt_core::session::{
    ProbeOutcome, ProbeRequest, ProbeSession, TraceProbeSession, TraceSession,
};
use mlpt_sim::{FaultPlan, MultiNetwork, SimNetwork};
use mlpt_survey::SyntheticInternet;
use std::net::Ipv4Addr;

/// Destinations in the survey slice.
pub const DESTINATIONS: usize = 512;

/// The streaming-admission headroom. Deliberately small relative to
/// [`DESTINATIONS`]: the engine should still be admitting new sessions
/// deep into the sweep, because leftover source is the only thing that
/// can overlap the serial round chains of straggler sessions (the MDA's
/// node-control hunts are one probe per round — a heavy trace is a long
/// chain of tiny rounds, and once the source is dry nothing can fill the
/// batches around it).
pub const MAX_IN_FLIGHT: usize = 32;

/// The trace seed of scenario `id`.
pub fn trace_seed_of(id: usize) -> u64 {
    0xA11A ^ (id as u64).wrapping_mul(0x9E37_79B9)
}

/// The simulated network of scenario `id`, seeded for its trace.
pub fn build_lane(internet: &SyntheticInternet, id: usize) -> SimNetwork {
    internet
        .scenario(id)
        .build_network(trace_seed_of(id), FaultPlan::none())
}

/// Counts the transport crossings the former blocking loop spent on a
/// session: one per maximal run of UDP requests in a round (one batched
/// send) and one per echo request (one ping, one round-trip wait). A
/// trace round is all UDP, so it counts once.
struct BlockingCrossings<S> {
    inner: S,
    crossings: u64,
}

impl<S: ProbeSession> ProbeSession for BlockingCrossings<S> {
    fn poll(&mut self) -> SessionState {
        self.inner.poll()
    }

    fn next_rounds(&self) -> &[ProbeRequest] {
        self.inner.next_rounds()
    }

    fn on_replies(&mut self, results: &mut [Option<ProbeOutcome>]) {
        let round = self.inner.next_rounds();
        let starts = (0..round.len()).filter(|&i| match round[i] {
            ProbeRequest::Echo { .. } => true,
            ProbeRequest::Udp(_) => i == 0 || !matches!(round[i - 1], ProbeRequest::Udp(_)),
        });
        self.crossings += starts.count() as u64;
        self.inner.on_replies(results);
    }

    fn destination(&self) -> Ipv4Addr {
        self.inner.destination()
    }

    fn note_wire_probes(&mut self, count: u64) {
        self.inner.note_wire_probes(count);
    }
}

/// Runs `session` alone on a fresh engine over `lane`, returning it with
/// the former blocking loop's crossing count and the packets sent.
pub fn run_blocking<S: ProbeSession>(
    lane: SimNetwork,
    source: Ipv4Addr,
    session: S,
) -> (S, u64, u64) {
    let counted = BlockingCrossings {
        inner: session,
        crossings: 0,
    };
    let (counted, probes) = SweepEngine::new(lane, source).run_session(counted);
    (counted.inner, counted.crossings, probes)
}

fn mda_session(internet: &SyntheticInternet, id: usize) -> MdaSession {
    MdaSession::new(
        internet.scenario(id).topology.destination(),
        TraceConfig::new(trace_seed_of(id)),
    )
}

/// The sequential full-trace loop (the survey's former inner loop):
/// returns the traces, the transport crossings (every probe round of
/// every trace is one) and the probes sent.
pub fn run_sequential(internet: &SyntheticInternet) -> (Vec<Trace>, u64, u64) {
    let mut traces = Vec::with_capacity(DESTINATIONS);
    let mut crossings = 0u64;
    let mut probes = 0u64;
    for id in 0..DESTINATIONS {
        let (mut session, rounds, sent) = run_blocking(
            build_lane(internet, id),
            internet.scenario(id).source,
            TraceProbeSession::new(mda_session(internet, id)),
        );
        crossings += rounds;
        probes += sent;
        traces.push(session.inner_mut().take_trace(sent));
    }
    (traces, crossings, probes)
}

/// One streaming sweep over a shared network: returns the traces, the
/// stats and the per-cycle batch sizes.
pub fn run_sweep(internet: &SyntheticInternet) -> (Vec<Trace>, SweepStats, Vec<u32>) {
    let lanes: Vec<SimNetwork> = (0..DESTINATIONS)
        .map(|id| build_lane(internet, id))
        .collect();
    let net = MultiNetwork::new(lanes).expect("scenario destinations are unique");
    let mut engine = SweepEngine::new(net, internet.scenario(0).source).with_config(SweepConfig {
        max_in_flight: MAX_IN_FLIGHT,
        admission: Admission::Streaming,
        ..SweepConfig::default()
    });
    let sessions =
        (0..DESTINATIONS).map(|id| Box::new(mda_session(internet, id)) as Box<dyn TraceSession>);
    let traces = engine.run_stream(sessions);
    (traces, *engine.stats(), engine.cycle_batches().to_vec())
}

/// One sharded sweep: the destination space split across `shards`
/// engine shards, each over its own transport partition — shard 0 on
/// the calling thread, every other shard on a worker thread that lasts
/// the whole sweep. Returns the traces, the merged stats and each
/// shard's stats.
pub fn run_sharded_sweep(
    internet: &SyntheticInternet,
    shards: usize,
) -> (Vec<Trace>, SweepStats, Vec<SweepStats>) {
    let lanes: Vec<SimNetwork> = (0..DESTINATIONS)
        .map(|id| build_lane(internet, id))
        .collect();
    let net = MultiNetwork::new(lanes).expect("scenario destinations are unique");
    let parts = net.split_by(shards, |d| shard_of(d, shards));
    let mut engine =
        ShardedSweepEngine::new(parts, internet.scenario(0).source).with_config(SweepConfig {
            max_in_flight: MAX_IN_FLIGHT,
            admission: Admission::Streaming,
            ..SweepConfig::default()
        });
    let sessions =
        (0..DESTINATIONS).map(|id| Box::new(mda_session(internet, id)) as Box<dyn TraceSession>);
    let traces = engine.run_stream(sessions);
    let per_shard = engine.shard_stats().into_iter().copied().collect();
    (traces, *engine.stats(), per_shard)
}

/// Probes per dispatch over the cycles carrying the last 10% of the
/// probes, walked from the end of the cycle series.
pub fn tail_probes_per_dispatch(cycle_sizes: &[u32]) -> f64 {
    let total: u64 = cycle_sizes.iter().map(|&c| u64::from(c)).sum();
    if total == 0 {
        return 0.0;
    }
    let want = ((total as f64 * 0.10).ceil() as u64).max(1);
    let mut got = 0u64;
    let mut cycles = 0u64;
    for &c in cycle_sizes.iter().rev() {
        got += u64::from(c);
        cycles += 1;
        if got >= want {
            break;
        }
    }
    got as f64 / cycles as f64
}
