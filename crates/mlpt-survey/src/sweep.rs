//! The scenario-sweep driver, which every many-destination sweep runs
//! through: the surveys, and the CLI's `sweep` and `alias`.
//!
//! [`SweepPlan::run`] gives each lane group one [`MultiNetwork`], split
//! by [`shard_of`] into the shards of one [`ShardedSweepEngine`], and
//! files results under their lanes' source indices. A UDP sweep is one
//! group; echo probes route by interface address, so an echo-probing
//! sweep needs address-disjoint groups
//! ([`crate::router_survey::disjoint_scenario_groups`]).
//!
//! [`in_chunks`] is the surveys' one thread fan-out: it cuts a scenario
//! range into chunks, and worker threads claim one chunk at a time,
//! front to back. Results come back in chunk order. Chunks, groups and
//! shards are scheduling: they never change a result.

use mlpt_core::{shard_of, ShardedSweepEngine, SweepConfig, SweepStats};
use mlpt_sim::{MultiNetwork, MultiNetworkError, SimNetwork};
use std::net::Ipv4Addr;
use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One destination's simulator and the vantage point that probes it.
pub type Lane = (Ipv4Addr, SimNetwork);

/// The engine one group of lanes runs on.
pub type GroupEngine = ShardedSweepEngine<MultiNetwork>;

/// How every group of a sweep runs.
#[derive(Debug, Clone, Copy)]
pub struct SweepPlan {
    /// The engine's tuning, for every group and shard.
    pub config: SweepConfig,
    /// Engine shards per group (0 counts as 1). Destinations and their
    /// lanes partition by [`shard_of`].
    pub shards: usize,
    /// Virtual ticks every lane's clock advances between dispatch
    /// cycles (see [`MultiNetwork::with_cycle_gap`]).
    pub cycle_gap: u64,
}

/// What a sweep produced.
#[derive(Debug)]
pub struct SweepOutput<R> {
    /// One result per lane, in source order.
    pub results: Vec<R>,
    /// Every group's counters, merged.
    pub stats: SweepStats,
    /// Shard i's counters merged over every group, one entry per shard.
    pub per_shard: Vec<SweepStats>,
}

impl SweepPlan {
    /// Sweeps `lanes` group by group; every lane belongs to exactly one
    /// of `groups` (indices into `lanes`; empty groups are skipped). For
    /// each group, `drive` runs the group's engine over the sessions of
    /// the group's lanes and hands each result to the sink with its
    /// position in the group (trace sweeps call `run_stream_with`, alias
    /// sweeps `run_sessions_with`).
    ///
    /// # Errors
    ///
    /// [`MultiNetwork::new`]'s error, if two lanes of a group simulate
    /// the same destination.
    ///
    /// # Panics
    ///
    /// If one group's lanes have different vantage points (an engine
    /// has one source address), or if a lane is in no group or its
    /// result is missing.
    pub fn run<R>(
        &self,
        lanes: Vec<Lane>,
        groups: &[Vec<usize>],
        mut drive: impl FnMut(&mut GroupEngine, &[usize], &mut dyn FnMut(usize, R)),
    ) -> Result<SweepOutput<R>, MultiNetworkError> {
        let shards = self.shards.max(1);
        let mut lanes: Vec<Option<Lane>> = lanes.into_iter().map(Some).collect();
        let mut results: Vec<Option<R>> = (0..lanes.len()).map(|_| None).collect();
        let mut stats = SweepStats::default();
        let mut per_shard = vec![SweepStats::default(); shards];
        for members in groups.iter().filter(|members| !members.is_empty()) {
            let (sources, networks): (Vec<Ipv4Addr>, Vec<SimNetwork>) = members
                .iter()
                .map(|&i| lanes[i].take().expect("every lane is in one group"))
                .unzip();
            let source = sources[0];
            assert!(
                sources.iter().all(|&s| s == source),
                "a sweep assumes a single vantage point"
            );
            let net = MultiNetwork::new(networks)?.with_cycle_gap(self.cycle_gap);
            let mut engine =
                ShardedSweepEngine::new(net.split_by(shards, |d| shard_of(d, shards)), source)
                    .with_config(self.config);
            drive(&mut engine, members, &mut |index, result| {
                results[members[index]] = Some(result);
            });
            stats.merge(engine.stats());
            for (slot, shard) in per_shard.iter_mut().zip(engine.shard_stats()) {
                slot.merge(shard);
            }
        }
        Ok(SweepOutput {
            results: results
                .into_iter()
                .map(|r| r.expect("every lane's session reports"))
                .collect(),
            stats,
            per_shard,
        })
    }
}

/// The worker threads a survey fans its chunks over: the host's
/// available parallelism, at most 16.
pub(crate) fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(16)
}

/// Runs `sweep` over chunks of the indices `0..count` on `workers`
/// threads and concatenates the chunks' results in index order. A chunk
/// holds at most `chunk` indices, and fewer when that leaves a worker
/// idle. Threads (the caller is one) claim one chunk at a time, front to
/// back, so chunking is pure scheduling.
///
/// # Panics
///
/// If `sweep` panics, with its payload.
pub fn in_chunks<T, F>(count: usize, chunk: usize, workers: usize, sweep: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> Vec<T> + Sync,
{
    let size = chunk.max(1).min(count.div_ceil(workers.max(1)).max(1));
    let chunks = count.div_ceil(size);
    // The counter hands out distinct chunk numbers and publishes nothing
    // else (results come back through `join`), so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    // Claims chunks until none is left; returns them with their numbers.
    let claim = || {
        std::iter::from_fn(|| {
            let c = next.fetch_add(1, Ordering::Relaxed);
            (c < chunks).then(|| (c, sweep(c * size..((c + 1) * size).min(count))))
        })
        .collect::<Vec<_>>()
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers.min(chunks))
            .map(|_| scope.spawn(claim))
            .collect();
        let mine = claim();
        helpers
            .into_iter()
            .flat_map(|helper| helper.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .chain(mine)
            .collect::<Vec<_>>()
    });
    done.sort_unstable_by_key(|&(c, _)| c);
    done.into_iter().flat_map(|(_, results)| results).collect()
}
