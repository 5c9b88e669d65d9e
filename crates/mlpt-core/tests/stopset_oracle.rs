//! Oracle property test for the shared stop set: random contribution
//! sequences committed generation by generation to [`SharedStopSet`] and
//! to a `BTreeMap` reference must agree on every query and on the
//! `Debug` rendering the stop-set golden digests pin.
//!
//! `reference` is the `Arc<BTreeMap<(u8, u32), StopMeta>>` set the flat
//! table replaced, copied without its docs, as the independent check.
//! Contributions draw from a few TTLs (both ends of the `u8` range), a
//! few interfaces (both ends of the `u32` range) and a few destinations
//! and flows, so keys repeat across contributors, route steps collide,
//! and evictions hit, miss, repeat and are re-claimed by the same
//! contribution. CI also runs this file in release, where the packed
//! keys' shifts and the TTL arithmetic lose their overflow checks.

use mlpt_core::stopset::StopSeen;
use mlpt_core::{SharedStopSet, StopContribution, StopSetConfig, StopSnapshot};
use mlpt_wire::FlowId;
use proptest::prelude::*;
use std::net::Ipv4Addr;

mod reference {
    use mlpt_core::{StopContribution, StopMeta, StopSetConfig};
    use mlpt_wire::FlowId;
    use std::collections::BTreeMap;
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    #[derive(Debug, Clone)]
    pub struct StopSnapshot {
        entries: Arc<BTreeMap<(u8, u32), StopMeta>>,
        start_ttl: u8,
    }

    impl StopSnapshot {
        pub fn is_empty(&self) -> bool {
            self.entries.is_empty()
        }

        pub fn len(&self) -> usize {
            self.entries.len()
        }

        pub fn start_ttl(&self) -> u8 {
            self.start_ttl
        }

        pub fn get(&self, ttl: u8, interface: Ipv4Addr) -> Option<&StopMeta> {
            self.entries.get(&(ttl, u32::from(interface)))
        }

        pub fn contains(&self, ttl: u8, interface: Ipv4Addr) -> bool {
            self.get(ttl, interface).is_some()
        }

        pub fn predicted_responder(
            &self,
            ttl: u8,
            toward: Ipv4Addr,
            flow: FlowId,
        ) -> Option<(Ipv4Addr, &StopMeta)> {
            self.entries
                .range((ttl, 0)..=(ttl, u32::MAX))
                .find(|(_, meta)| meta.toward == toward && meta.flow == Some(flow))
                .map(|(&(_, iface), meta)| (Ipv4Addr::from(iface), meta))
        }

        pub fn reconstruct_prefix(&self, ttl: u8, interface: Ipv4Addr) -> Vec<(u8, Ipv4Addr)> {
            let mut prefix = Vec::new();
            let mut cursor = Some((ttl, interface));
            while let Some((t, iface)) = cursor {
                if !self.contains(t, iface) {
                    break;
                }
                prefix.push((t, iface));
                cursor = match (
                    t.checked_sub(1),
                    self.get(t, iface).and_then(|m| m.predecessor),
                ) {
                    (Some(prev_ttl), Some(prev)) if prev_ttl >= 1 => Some((prev_ttl, prev)),
                    _ => None,
                };
            }
            prefix.reverse();
            prefix
        }
    }

    #[derive(Debug)]
    pub struct SharedStopSet {
        entries: Arc<BTreeMap<(u8, u32), StopMeta>>,
        dest_ttl_counts: [usize; 256],
        dest_ttl_total: usize,
        evictions: u64,
    }

    impl SharedStopSet {
        pub fn new() -> Self {
            Self {
                entries: Arc::default(),
                dest_ttl_counts: [0; 256],
                dest_ttl_total: 0,
                evictions: 0,
            }
        }

        pub fn len(&self) -> usize {
            self.entries.len()
        }

        pub fn is_empty(&self) -> bool {
            self.entries.is_empty()
        }

        pub fn commit(&mut self, contributor: usize, contribution: &StopContribution) {
            let entries = Arc::make_mut(&mut self.entries);
            for &(ttl, interface) in &contribution.evict {
                if entries.remove(&(ttl, u32::from(interface))).is_some() {
                    self.evictions += 1;
                }
            }
            for seen in &contribution.entries {
                entries
                    .entry((seen.ttl, u32::from(seen.interface)))
                    .or_insert(StopMeta {
                        predecessor: seen.predecessor,
                        contributor,
                        toward: contribution.destination.unwrap_or(Ipv4Addr::UNSPECIFIED),
                        flow: contribution.flow,
                        reached: contribution.reached,
                        dest_ttl: contribution.dest_ttl,
                    });
            }
            if contribution.reached {
                if let Some(dt) = contribution.dest_ttl {
                    self.dest_ttl_counts[usize::from(dt)] += 1;
                    self.dest_ttl_total += 1;
                }
            }
        }

        pub fn evictions(&self) -> u64 {
            self.evictions
        }

        pub fn snapshot(&self, config: &StopSetConfig) -> StopSnapshot {
            let start_ttl = match self.median_dest_ttl() {
                Some(median) if config.adaptive_start => (median / 2).max(2),
                _ => config.start_ttl,
            };
            StopSnapshot {
                entries: Arc::clone(&self.entries),
                start_ttl,
            }
        }

        fn median_dest_ttl(&self) -> Option<u8> {
            let mut rank = self.dest_ttl_total / 2;
            for (ttl, &count) in (0..=u8::MAX).zip(&self.dest_ttl_counts) {
                if rank < count {
                    return Some(ttl);
                }
                rank -= count;
            }
            None
        }
    }
}

/// TTLs contributions draw from: a few low ones, and both ends of `u8`.
const TTLS: [u8; 7] = [0, 1, 2, 3, 4, 254, 255];
/// Interfaces contributions draw from, both ends of `u32` among them.
const ADDRS: [Ipv4Addr; 6] = [
    Ipv4Addr::new(0, 0, 0, 0),
    Ipv4Addr::new(10, 0, 0, 1),
    Ipv4Addr::new(10, 0, 0, 2),
    Ipv4Addr::new(10, 0, 1, 1),
    Ipv4Addr::new(192, 0, 2, 9),
    Ipv4Addr::new(255, 255, 255, 255),
];
/// Never contributed: every lookup of it misses.
const MISS: Ipv4Addr = Ipv4Addr::new(172, 16, 0, 1);
/// Contributors' destinations.
const DESTS: [Ipv4Addr; 3] = [
    Ipv4Addr::new(10, 9, 0, 1),
    Ipv4Addr::new(10, 9, 0, 2),
    Ipv4Addr::new(255, 255, 255, 255),
];
/// Contributors' single flows.
const FLOWS: [FlowId; 3] = [FlowId(0), FlowId(7), FlowId(u16::MAX)];

/// `pool[i]`, or `None` one past the end.
fn pick<T: Copy>(pool: &[T], i: usize) -> Option<T> {
    pool.get(i).copied()
}

type Draw = (
    Vec<(usize, usize, usize)>,
    (usize, usize),
    (usize, bool),
    Vec<(usize, usize)>,
    bool,
);

/// Decodes raw draws into a contribution: its entries, destination and
/// flow (each possibly `None`), destination TTL and reach, evictions,
/// and whether it re-claims its first eviction with fresh evidence.
fn contribution(
    (seen, (dest, flow), (dest_ttl, reached), evict, reclaim): Draw,
) -> StopContribution {
    let mut entries: Vec<StopSeen> = seen
        .into_iter()
        .map(|(ttl, interface, predecessor)| StopSeen {
            ttl: TTLS[ttl],
            interface: ADDRS[interface],
            predecessor: pick(&ADDRS, predecessor),
        })
        .collect();
    let evict: Vec<(u8, Ipv4Addr)> = evict
        .into_iter()
        .map(|(ttl, interface)| (TTLS[ttl], ADDRS[interface]))
        .collect();
    if let (true, Some(&(ttl, interface))) = (reclaim, evict.first()) {
        entries.push(StopSeen {
            ttl,
            interface,
            predecessor: None,
        });
    }
    entries.sort_by_key(|seen| seen.ttl);
    StopContribution {
        entries,
        destination: pick(&DESTS, dest),
        flow: pick(&FLOWS, flow),
        dest_ttl: pick(&TTLS, dest_ttl),
        reached,
        probes_elided: 0,
        stop_hits: 0,
        evict,
    }
}

fn arb_contributions() -> impl Strategy<Value = Vec<StopContribution>> {
    collection::vec(
        (
            collection::vec((0..TTLS.len(), 0..ADDRS.len(), 0..ADDRS.len() + 1), 0..8),
            (0..DESTS.len() + 1, 0..FLOWS.len() + 1),
            (0..TTLS.len() + 1, any::<bool>()),
            collection::vec((0..TTLS.len(), 0..ADDRS.len()), 0..3),
            any::<bool>(),
        )
            .prop_map(contribution),
        0..48,
    )
}

/// Asserts the set and the reference agree on every query, their
/// snapshots under `config` on every lookup, and both renderings.
fn agree(
    set: &SharedStopSet,
    oracle: &reference::SharedStopSet,
    config: &StopSetConfig,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(set.len(), oracle.len());
    prop_assert_eq!(set.is_empty(), oracle.is_empty());
    prop_assert_eq!(set.evictions(), oracle.evictions());
    for adaptive_start in [false, true] {
        let config = StopSetConfig {
            adaptive_start,
            ..*config
        };
        prop_assert_eq!(
            set.snapshot(&config).start_ttl(),
            oracle.snapshot(&config).start_ttl(),
            "adaptive start {}",
            adaptive_start
        );
    }
    let snap = set.snapshot(config);
    let want = oracle.snapshot(config);
    prop_assert_eq!(snap.len(), want.len());
    prop_assert_eq!(snap.is_empty(), want.is_empty());
    for ttl in TTLS.into_iter().chain([5, 253]) {
        for interface in ADDRS.into_iter().chain([MISS]) {
            prop_assert_eq!(snap.get(ttl, interface), want.get(ttl, interface));
            prop_assert_eq!(snap.contains(ttl, interface), want.contains(ttl, interface));
            prop_assert_eq!(
                snap.reconstruct_prefix(ttl, interface),
                want.reconstruct_prefix(ttl, interface)
            );
        }
        for toward in DESTS.into_iter().chain([Ipv4Addr::UNSPECIFIED, MISS]) {
            for flow in FLOWS.into_iter().chain([FlowId(8)]) {
                prop_assert_eq!(
                    snap.predicted_responder(ttl, toward, flow),
                    want.predicted_responder(ttl, toward, flow),
                    "ttl {} toward {} flow {:?}",
                    ttl,
                    toward,
                    flow
                );
            }
        }
    }
    prop_assert_eq!(format!("{snap:?}"), format!("{want:?}"));
    prop_assert_eq!(format!("{set:?}"), format!("{oracle:?}"));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Generation by generation, in source order: the open generation's
    /// snapshot is either dropped before the commits (the set is written
    /// in place) or kept alive through them (the set is copied), and a
    /// kept snapshot never sees the commits.
    #[test]
    fn stop_set_matches_btree_reference(
        contributions in arb_contributions(),
        width in 1usize..17,
        keep in any::<u64>(),
        start_ttl in 0u8..12,
        adaptive_start in any::<bool>(),
    ) {
        let config = StopSetConfig {
            start_ttl,
            adaptive_start,
            commit_width: width,
        };
        let mut set = SharedStopSet::new();
        let mut oracle = reference::SharedStopSet::new();
        let mut open = set.snapshot(&config);
        for (generation, batch) in contributions.chunks(width).enumerate() {
            let rendered = format!("{open:?}");
            let kept: Option<StopSnapshot> = ((keep >> (generation % 64)) & 1 == 1).then_some(open);
            for (i, contribution) in batch.iter().enumerate() {
                set.commit(generation * width + i, contribution);
                oracle.commit(generation * width + i, contribution);
            }
            if let Some(kept) = kept {
                prop_assert_eq!(format!("{kept:?}"), rendered, "a kept snapshot saw a commit");
            }
            agree(&set, &oracle, &config)?;
            open = set.snapshot(&config);
        }
    }
}
