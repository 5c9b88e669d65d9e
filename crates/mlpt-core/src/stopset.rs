//! Sweep-wide shared stop sets: Doubletree-style cross-destination
//! redundancy elimination.
//!
//! A wide sweep rediscovers the same near-source hops once per
//! destination — the intra-monitor redundancy Donnet et al. ("Efficient
//! Route Tracing from a Single Source") measured at >90% of probe
//! traffic and eliminated with Doubletree. This module is that idea for
//! the sweep engine: a sweep-wide set of confirmed `(TTL, interface)`
//! pairs that stop-set-aware sessions consult to skip path prefixes
//! other sessions already mapped.
//!
//! * [`SharedStopSet`] is the engine-owned master copy. Finished
//!   sessions hand back a [`StopContribution`] of everything they
//!   firsthand observed; the engine commits contributions **in source
//!   order at generation boundaries** (see below), never in completion
//!   order.
//! * [`StopSnapshot`] is the cheap, immutable view a session adopts at
//!   admission: membership lookups plus the sweep's current mid-path
//!   start TTL. Snapshots share the master copy's `Arc`-backed map, so
//!   taking one is O(1) and allocation-free, and so is handing it to
//!   every session of a generation. The master copy is copy-on-write:
//!   a commit copies the map only while an older snapshot is still
//!   alive, and the coordinator drops the open generation's snapshot
//!   before it commits, so sweeps commit in place.
//! * [`StopSetConfig`] is the knob set: the (configurable or adaptive)
//!   start TTL and the commit width.
//!
//! # Determinism (rule 5, extended)
//!
//! Stop-set contents are **protocol state decided by source order,
//! never by scheduling**. The engine partitions the source stream into
//! *generations* of [`StopSetConfig::commit_width`] consecutive
//! sessions. Every session of generation `g` adopts the identical
//! snapshot — the union of contributions from generations `< g`,
//! committed sorted by source index with first-writer-wins per
//! `(TTL, interface)` key — and generation `g + 1` is not admitted
//! until every pulled session has completed. Which admission mode runs
//! the sweep, how the budget slices rounds, and which lane finishes
//! first therefore cannot change a single snapshot, so streaming and
//! cost-aware sweeps stay bit-identical and sweeps replay exactly from
//! seed. Generation 0 adopts the empty snapshot and
//! behaves exactly like a sweep without a stop set.
//!
//! # Honesty
//!
//! A contribution contains only interfaces the session *itself*
//! observed in replies — never entries it adopted from a snapshot or
//! inferred from one. A blackholed lane therefore contributes only the
//! honest prefix it really saw and cannot poison the shared set
//! (property-tested in `tests/sweep_equivalence.rs`).

// Engine surface: no panic-class call without a reasoned `#[expect]` (README, "Static analysis").
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use crate::discovery::Discovery;
use mlpt_wire::FlowId;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Tuning of the sweep-wide shared stop set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StopSetConfig {
    /// Mid-path TTL at which stop-set-aware sessions start probing
    /// (forward towards the destination, then backward towards the
    /// source). Values `<= 1` disable mid-path starts.
    pub start_ttl: u8,
    /// When true, the start TTL adapts to the sweep: once committed
    /// contributions report destination TTLs, the snapshot's start TTL
    /// becomes half the median destination TTL (clamped to at least 2),
    /// tracking the actual mid-path point of the destinations probed.
    pub adaptive_start: bool,
    /// Sessions per commit generation: contributions are committed in
    /// source order every `commit_width` sessions, and a generation's
    /// sessions all adopt the identical snapshot (see module docs).
    pub commit_width: usize,
}

impl Default for StopSetConfig {
    fn default() -> Self {
        Self {
            start_ttl: 8,
            adaptive_start: true,
            commit_width: 16,
        }
    }
}

/// What the shared set knows about one confirmed `(TTL, interface)`
/// pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StopMeta {
    /// The interface the contributor observed one hop earlier on the
    /// same path, if any — the predecessor link that makes
    /// per-destination path prefixes reconstructable from the set.
    pub predecessor: Option<Ipv4Addr>,
    /// Source index of the contributing session (first writer wins).
    pub contributor: usize,
    /// The destination the contributor was probing towards.
    pub toward: Ipv4Addr,
    /// The contributor's Paris flow identifier, when it probed with a
    /// single one (retry elision requires flow-determinism evidence).
    pub flow: Option<FlowId>,
    /// Whether the contributor reached its destination.
    pub reached: bool,
    /// The TTL at which the contributor's destination answered.
    pub dest_ttl: Option<u8>,
}

/// One firsthand-observed `(TTL, interface)` pair in a contribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StopSeen {
    /// Probe TTL the interface answered at.
    pub ttl: u8,
    /// The observed interface address.
    pub interface: Ipv4Addr,
    /// An interface observed at `ttl - 1` on the same path, if any.
    pub predecessor: Option<Ipv4Addr>,
}

/// Everything a finished session hands back to the shared set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StopContribution {
    /// Firsthand-observed pairs, in ascending TTL order.
    pub entries: Vec<StopSeen>,
    /// The contributor's destination.
    pub destination: Option<Ipv4Addr>,
    /// The contributor's single Paris flow, when it used exactly one.
    pub flow: Option<FlowId>,
    /// TTL at which the destination answered, if reached.
    pub dest_ttl: Option<u8>,
    /// Whether the destination answered.
    pub reached: bool,
    /// Probes this session skipped thanks to stop-set hits (estimated
    /// against what its classic mode would have sent).
    pub probes_elided: u64,
    /// Stop-set membership hits that short-circuited probing.
    pub stop_hits: u64,
    /// `(TTL, interface)` pairs this session contradicted with firsthand
    /// evidence (stale predictions, vanished branches): the shared set
    /// must drop them so a flapped prefix cannot keep serving stale
    /// predictions. Processed *before* this contribution's insertions.
    pub evict: Vec<(u8, Ipv4Addr)>,
}

/// The immutable stop-set view one generation's sessions adopt.
#[derive(Debug, Clone)]
pub struct StopSnapshot {
    entries: Arc<BTreeMap<(u8, u32), StopMeta>>,
    start_ttl: u8,
}

impl StopSnapshot {
    /// The empty snapshot generation 0 adopts (classic behaviour).
    pub fn empty() -> Self {
        Self {
            entries: Arc::new(BTreeMap::new()),
            start_ttl: 1,
        }
    }

    /// True when the set holds no entries — sessions then probe
    /// classically from TTL 1.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of `(TTL, interface)` pairs in the snapshot.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The mid-path TTL stop-set-aware sessions should start at.
    pub fn start_ttl(&self) -> u8 {
        self.start_ttl
    }

    /// Membership lookup.
    pub fn get(&self, ttl: u8, interface: Ipv4Addr) -> Option<&StopMeta> {
        self.entries.get(&(ttl, u32::from(interface)))
    }

    /// True when `(ttl, interface)` is a confirmed pair.
    pub fn contains(&self, ttl: u8, interface: Ipv4Addr) -> bool {
        self.get(ttl, interface).is_some()
    }

    /// The interface a probe at `ttl` with `flow` towards `toward`
    /// would observe, according to a same-destination same-flow entry —
    /// the only evidence strong enough to elide a retry (Paris flow
    /// determinism: same destination + same flow ⇒ same path).
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

    /// Walks predecessor links downward from `(ttl, interface)`,
    /// returning the reconstructed path prefix in ascending TTL order
    /// (ending at the given pair). This is how a per-destination path
    /// prefix is recovered for a session that backward-stopped early.
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

/// The engine-owned master stop set (see module docs for the commit
/// discipline that keeps it deterministic).
#[derive(Debug)]
pub struct SharedStopSet {
    /// Shared with every live snapshot; commits write through
    /// [`Arc::make_mut`].
    entries: Arc<BTreeMap<(u8, u32), StopMeta>>,
    /// Committed destination TTLs, counted per TTL value.
    dest_ttl_counts: [usize; 256],
    /// Sum of `dest_ttl_counts`.
    dest_ttl_total: usize,
    evictions: u64,
}

impl Default for SharedStopSet {
    fn default() -> Self {
        Self {
            entries: Arc::default(),
            dest_ttl_counts: [0; 256],
            dest_ttl_total: 0,
            evictions: 0,
        }
    }
}

impl SharedStopSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of committed `(TTL, interface)` pairs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True before any commit added an entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Commits one contribution. The caller (the engine) is responsible
    /// for calling this in ascending `contributor` (source-index) order
    /// within each generation; the first writer of a key wins, so that
    /// order is what makes the merged contents deterministic.
    ///
    /// Writes in place unless a snapshot taken earlier is still alive;
    /// then the map is copied first, so that snapshot never sees this
    /// commit.
    pub fn commit(&mut self, contributor: usize, contribution: &StopContribution) {
        let entries = Arc::make_mut(&mut self.entries);
        // Firsthand contradictions first: an evicted key freed here may
        // legitimately be re-claimed by this same contribution's fresh
        // post-change evidence below.
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

    /// Total committed entries dropped by contribution evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The immutable snapshot the next generation adopts, with the start
    /// TTL per `config` (fixed, or adaptive from the median committed
    /// destination TTL). O(1) and allocation-free: the snapshot shares
    /// the committed map, and a later [`commit`](Self::commit) copies it
    /// only while this snapshot is still alive.
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

    /// The upper median of the committed destination TTLs — the element
    /// at index `len / 2` of their sorted list — or `None` before any
    /// reached destination committed.
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

/// Builds a contribution from a discovery evidence base in which every
/// record is firsthand (sessions that adopt foreign observations must
/// track their firsthand subset separately instead). Each vertex's
/// predecessor is its first witnessed reverse edge, giving the shared
/// set the links prefix reconstruction follows.
///
/// `flow` should be `Some` only when the session probed with exactly
/// one Paris flow throughout — the evidence
/// [`StopSnapshot::predicted_responder`] requires.
pub fn contribution_from_discovery(
    state: &Discovery,
    destination: Ipv4Addr,
    flow: Option<FlowId>,
    probes_elided: u64,
    stop_hits: u64,
) -> StopContribution {
    let mut entries = Vec::with_capacity(state.total_vertices());
    for ttl in 1..=state.max_observed_ttl() {
        for &interface in state.vertices_at(ttl) {
            entries.push(StopSeen {
                ttl,
                interface,
                predecessor: state.predecessors(ttl, interface).next(),
            });
        }
    }
    let dest_ttl = state.destination_ttl();
    StopContribution {
        entries,
        destination: Some(destination),
        flow,
        dest_ttl,
        reached: dest_ttl.is_some(),
        probes_elided,
        stop_hits,
        evict: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpt_topo::graph::addr;

    fn contribution(dest: Ipv4Addr, path: &[Ipv4Addr], flow: Option<FlowId>) -> StopContribution {
        let entries = path
            .iter()
            .enumerate()
            .map(|(i, &interface)| StopSeen {
                ttl: (i + 1) as u8,
                interface,
                predecessor: i.checked_sub(1).map(|p| path[p]),
            })
            .collect();
        StopContribution {
            entries,
            destination: Some(dest),
            flow,
            dest_ttl: Some(path.len() as u8),
            reached: true,
            probes_elided: 0,
            stop_hits: 0,
            evict: Vec::new(),
        }
    }

    #[test]
    fn first_writer_wins_in_commit_order() {
        let dest_a = addr(9, 1);
        let dest_b = addr(9, 2);
        let shared = addr(1, 0);
        let mut set = SharedStopSet::new();
        set.commit(0, &contribution(dest_a, &[shared, dest_a], Some(FlowId(1))));
        set.commit(1, &contribution(dest_b, &[shared, dest_b], Some(FlowId(2))));
        let snap = set.snapshot(&StopSetConfig::default());
        let meta = snap.get(1, shared).expect("shared hop committed");
        assert_eq!(meta.contributor, 0, "the earlier source index wins");
        assert_eq!(meta.toward, dest_a);
        assert!(snap.contains(2, dest_a));
        assert!(snap.contains(2, dest_b));
    }

    #[test]
    fn snapshot_is_immutable_and_cheap() {
        let dest = addr(9, 1);
        let mut set = SharedStopSet::new();
        set.commit(0, &contribution(dest, &[addr(1, 0), dest], None));
        let before = set.snapshot(&StopSetConfig::default());
        set.commit(
            1,
            &contribution(addr(9, 2), &[addr(2, 0), addr(9, 2)], None),
        );
        assert_eq!(before.len(), 2, "older snapshots never see later commits");
        assert_eq!(set.snapshot(&StopSetConfig::default()).len(), 4);
        let clone = before.clone();
        assert_eq!(clone.len(), before.len());
    }

    #[test]
    fn adaptive_start_tracks_median_dest_ttl() {
        let cfg = StopSetConfig {
            start_ttl: 5,
            adaptive_start: true,
            commit_width: 4,
        };
        let mut set = SharedStopSet::new();
        assert_eq!(set.snapshot(&cfg).start_ttl(), 5, "no evidence: configured");
        for (i, len) in [20u8, 24, 28].into_iter().enumerate() {
            let path: Vec<Ipv4Addr> = (0..len).map(|h| addr(usize::from(h), i)).collect();
            set.commit(i, &contribution(*path.last().unwrap(), &path, None));
        }
        // Median destination TTL 24 → start at 12.
        assert_eq!(set.snapshot(&cfg).start_ttl(), 12);
        // An even count takes the upper median: 28 of 20, 24, 28, 32.
        let path: Vec<Ipv4Addr> = (0..32).map(|h| addr(h, 3)).collect();
        set.commit(3, &contribution(path[31], &path, None));
        assert_eq!(set.snapshot(&cfg).start_ttl(), 14);
        let fixed = StopSetConfig {
            adaptive_start: false,
            ..cfg
        };
        assert_eq!(set.snapshot(&fixed).start_ttl(), 5);
    }

    #[test]
    fn predicted_responder_requires_same_destination_and_flow() {
        let dest = addr(9, 1);
        let hop = addr(3, 0);
        let mut set = SharedStopSet::new();
        set.commit(
            0,
            &contribution(dest, &[addr(1, 0), addr(2, 0), hop, dest], Some(FlowId(7))),
        );
        let snap = set.snapshot(&StopSetConfig::default());
        let (iface, meta) = snap
            .predicted_responder(3, dest, FlowId(7))
            .expect("matching evidence");
        assert_eq!(iface, hop);
        assert!(meta.reached);
        assert!(snap.predicted_responder(3, dest, FlowId(8)).is_none());
        assert!(snap.predicted_responder(3, addr(9, 2), FlowId(7)).is_none());
    }

    #[test]
    fn prefix_reconstruction_follows_predecessor_links() {
        let dest = addr(9, 1);
        let path = [addr(1, 0), addr(2, 0), addr(3, 0), dest];
        let mut set = SharedStopSet::new();
        set.commit(0, &contribution(dest, &path, Some(FlowId(1))));
        let snap = set.snapshot(&StopSetConfig::default());
        let prefix = snap.reconstruct_prefix(3, addr(3, 0));
        assert_eq!(
            prefix,
            vec![(1, addr(1, 0)), (2, addr(2, 0)), (3, addr(3, 0))]
        );
        assert!(snap.reconstruct_prefix(3, addr(5, 5)).is_empty());
    }

    #[test]
    fn evictions_drop_contradicted_entries_before_insertions() {
        let dest_a = addr(9, 1);
        let dest_b = addr(9, 2);
        let stale = addr(2, 0);
        let fresh = addr(2, 7);
        let mut set = SharedStopSet::new();
        set.commit(
            0,
            &contribution(dest_a, &[addr(1, 0), stale], Some(FlowId(1))),
        );
        assert!(set.snapshot(&StopSetConfig::default()).contains(2, stale));
        // A later source contradicts (2, stale) firsthand and re-claims
        // the TTL with its post-change observation.
        let mut c = contribution(dest_b, &[addr(1, 0), fresh], Some(FlowId(2)));
        c.evict.push((2, stale));
        set.commit(1, &c);
        assert_eq!(set.evictions(), 1);
        let snap = set.snapshot(&StopSetConfig::default());
        assert!(!snap.contains(2, stale), "stale entry must be gone");
        assert!(snap.contains(2, fresh), "fresh evidence takes the slot");
        // Evicting a key nobody holds is a no-op, not a count.
        let mut noop = contribution(dest_b, &[addr(1, 0), fresh], None);
        noop.evict.push((5, addr(5, 5)));
        set.commit(2, &noop);
        assert_eq!(set.evictions(), 1);
    }

    #[test]
    fn empty_snapshot_behaves_classically() {
        let snap = StopSnapshot::empty();
        assert!(snap.is_empty());
        assert_eq!(snap.start_ttl(), 1);
        assert!(!snap.contains(1, addr(1, 0)));
    }
}
