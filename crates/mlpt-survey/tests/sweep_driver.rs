//! The scenario-sweep driver's contract: results under source indices
//! for any grouping and shard count, `MultiNetwork::new`'s error handed
//! back, one vantage point per group, and chunks covering every index.

use mlpt_core::prelude::*;
use mlpt_sim::{MultiNetworkError, SimNetwork};
use mlpt_survey::sweep::{in_chunks, Lane, SweepOutput, SweepPlan};
use mlpt_topo::{canonical, MultipathTopology};
use std::net::Ipv4Addr;

const SOURCE: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

fn topology(i: usize) -> MultipathTopology {
    canonical::fig1_meshed().translated(0x0100_0000 * (i as u32 + 1))
}

fn lane(i: usize) -> Lane {
    (SOURCE, SimNetwork::new(topology(i), i as u64))
}

fn plan(shards: usize) -> SweepPlan {
    SweepPlan {
        config: SweepConfig::default(),
        shards,
        cycle_gap: 0,
    }
}

fn sweep(plan: &SweepPlan, groups: &[Vec<usize>]) -> SweepOutput<Trace> {
    plan.run(
        (0..5).map(lane).collect(),
        groups,
        |engine, members, emit| {
            let sessions = members.iter().map(|&i| {
                let config = TraceConfig::new(i as u64);
                Box::new(MdaSession::new(topology(i).destination(), config))
                    as Box<dyn TraceSession>
            });
            engine.run_stream_with(sessions, emit);
        },
    )
    .expect("lanes simulate distinct destinations")
}

/// Assembles `lanes` as one group and runs no session: only the checks
/// made before a group's engine is driven can pass.
fn assemble(lanes: Vec<Lane>) -> Result<SweepOutput<()>, MultiNetworkError> {
    let groups = [(0..lanes.len()).collect()];
    plan(1).run(lanes, &groups, |_, _, _| {})
}

/// Groups and shards are scheduling: every lane's trace lands under its
/// source index, and the protocol counters add up the same.
#[test]
fn results_keep_source_order_across_groups_and_shards() {
    let one = sweep(&plan(1), &[vec![0, 1, 2, 3, 4]]);
    for (i, trace) in one.results.iter().enumerate() {
        assert_eq!(trace.destination, topology(i).destination());
    }
    assert_eq!(one.per_shard, [one.stats]);
    let split = sweep(&plan(2), &[vec![3, 0], vec![], vec![4, 1, 2]]);
    assert_eq!(split.results, one.results);
    assert_eq!(split.per_shard.len(), 2);
    assert_eq!(split.stats.probes_sent, one.stats.probes_sent);
    assert_eq!(split.stats.sessions_completed, 5);
    let per_shard: u64 = split.per_shard.iter().map(|s| s.probes_sent).sum();
    assert_eq!(per_shard, one.stats.probes_sent);
}

#[test]
fn duplicate_destinations_are_an_error() {
    assert!(matches!(
        assemble(vec![lane(0), lane(0)]),
        Err(MultiNetworkError::DuplicateDestination(_))
    ));
}

#[test]
#[should_panic(expected = "single vantage point")]
fn one_group_has_one_vantage_point() {
    let (_, network) = lane(1);
    let _ = assemble(vec![lane(0), (Ipv4Addr::new(192, 0, 2, 2), network)]);
}

#[test]
fn chunks_cover_every_index_in_order() {
    for (count, chunk, workers) in [(0, 4, 2), (1, 4, 2), (17, 4, 3), (10, 100, 4), (9, 0, 1)] {
        let seen = in_chunks(count, chunk, workers, |ids| {
            assert!(ids.len() <= chunk.max(1));
            ids.collect()
        });
        assert_eq!(seen, (0..count).collect::<Vec<_>>());
    }
}
