//! The scenario-sweep driver's contract: results under source indices
//! for any grouping and shard count, `MultiNetwork::new`'s error handed
//! back, one vantage point per group, and chunks covering every index,
//! claimed front to back and returned in chunk order.

use mlpt_core::prelude::*;
use mlpt_sim::{MultiNetworkError, SimNetwork};
use mlpt_survey::sweep::{in_chunks, Lane, SweepOutput, SweepPlan};
use mlpt_topo::{canonical, MultipathTopology};
use std::net::Ipv4Addr;
use std::sync::{mpsc, Mutex};
use std::time::Duration;

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

/// Every index once, in order, for empty and single-index ranges,
/// uneven tails and more workers than chunks; one worker claims its
/// chunks front to back.
#[test]
fn chunks_cover_every_index_in_order() {
    for (count, chunk, workers) in [
        (0, 4, 2),
        (1, 4, 2),
        (17, 4, 3),
        (10, 100, 4),
        (3, 1, 64),
        (9, 0, 1),
        (97, 8, 1),
    ] {
        let claimed = Mutex::new(Vec::new());
        let seen = in_chunks(count, chunk, workers, |ids| {
            assert!(ids.len() <= chunk.max(1));
            claimed.lock().unwrap().push(ids.start);
            ids.collect()
        });
        assert_eq!(seen, (0..count).collect::<Vec<_>>());
        let claimed = claimed.into_inner().unwrap();
        if workers == 1 {
            assert!(claimed.is_sorted(), "claimed {claimed:?}");
        }
    }
}

/// Results come back in chunk order, not completion order. On 2
/// workers, chunk 0 finishes only once chunk 2 has started (so after
/// chunk 1 has returned) and chunk 2 only once chunk 3 has, so chunk 1
/// finishes first and each thread holds chunks out of order ({0, 3} and
/// {1, 2}). Each wait is bounded, so a fan-out that runs the chunks on
/// one thread still ends.
#[test]
fn results_come_back_in_chunk_order() {
    let (started_2, wait_2) = mpsc::channel();
    let (started_3, wait_3) = mpsc::channel();
    let (wait_2, wait_3) = (Mutex::new(wait_2), Mutex::new(wait_3));
    let bound = Duration::from_secs(10);
    let seen = in_chunks(4, 1, 2, |ids| {
        match ids.start {
            0 => {
                let _ = wait_2.lock().unwrap().recv_timeout(bound);
            }
            2 => {
                started_2.send(()).unwrap();
                let _ = wait_3.lock().unwrap().recv_timeout(bound);
            }
            3 => started_3.send(()).unwrap(),
            _ => {}
        }
        ids.collect()
    });
    assert_eq!(seen, [0, 1, 2, 3]);
}
