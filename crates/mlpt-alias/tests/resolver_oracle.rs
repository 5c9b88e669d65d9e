//! Oracle property test for the alias resolver: random evidence bases
//! judged by the resolver and by a frozen reference must agree on every
//! pair verdict, every partition and every set verdict.
//!
//! `reference` is the resolver as it was before it classified each
//! series once per call: `merged_monotonic` merges both series into a
//! new `Vec` and checks it with `is_monotonic`, `test_pair` classifies
//! both series on every call, and `judge_pair` classifies them again in
//! its signature fallback. The series classifier is copied too, so the
//! reference shares no code with the crate but its types.
//!
//! The evidence mixes shared and independent IP-ID counters (started
//! near the 65,535 wraparound), constant, echoing and random series,
//! series cut to 0, 2 or 3 samples around `MIN_SAMPLES`, equal
//! timestamps across addresses (the merge's tie rule), candidates
//! missing from the base, conflicting and incomplete fingerprints, and
//! MPLS evidence that is absent, stable or unstable.

use mlpt_alias::evidence::{EvidenceBase, Fingerprint, MplsEvidence};
use mlpt_alias::mbt::{merged_monotonic, test_pair, MbtParams, PairCompatibility};
use mlpt_alias::resolver::{judge_pair, judge_set, resolve, PairVerdict, SeriesSource, SetVerdict};
use mlpt_alias::series::IpIdSample;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// The resolver before classify-once, copied without its docs.
mod reference {
    use super::*;
    use mlpt_alias::evidence::AddressEvidence;
    use mlpt_alias::series::SeriesClass;
    use std::collections::BTreeMap;

    fn forward_distance(a: u16, b: u16) -> u16 {
        b.wrapping_sub(a)
    }

    fn is_monotonic(samples: &[IpIdSample], velocity_bound: f64, slack: u32) -> bool {
        samples.windows(2).all(|w| {
            let elapsed = w[1].timestamp.saturating_sub(w[0].timestamp) as f64;
            let fwd = u32::from(forward_distance(w[0].ip_id, w[1].ip_id));
            let limit = velocity_bound * elapsed + f64::from(slack);
            fwd >= 1 && f64::from(fwd) <= limit
        })
    }

    fn classify_series(samples: &[IpIdSample], velocity_bound: f64, slack: u32) -> SeriesClass {
        if samples.len() < 3 {
            return SeriesClass::Insufficient;
        }
        if samples.windows(2).all(|w| w[0].ip_id == w[1].ip_id) {
            return SeriesClass::Constant(samples[0].ip_id);
        }
        if samples.iter().all(|s| s.ip_id == s.probe_ip_id) {
            return SeriesClass::EchoesProbe;
        }
        if is_monotonic(samples, velocity_bound, slack) {
            let first = samples.first().expect("non-empty");
            let last = samples.last().expect("non-empty");
            let elapsed = last.timestamp.saturating_sub(first.timestamp).max(1) as f64;
            let advanced: u64 = samples
                .windows(2)
                .map(|w| u64::from(forward_distance(w[0].ip_id, w[1].ip_id)))
                .sum();
            SeriesClass::Monotonic {
                velocity: advanced as f64 / elapsed,
            }
        } else {
            SeriesClass::NonMonotonic
        }
    }

    pub fn merged_monotonic(a: &[IpIdSample], b: &[IpIdSample], params: &MbtParams) -> bool {
        let mut merged: Vec<IpIdSample> = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            if a[i].timestamp <= b[j].timestamp {
                merged.push(a[i]);
                i += 1;
            } else {
                merged.push(b[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        is_monotonic(&merged, params.velocity_bound, params.slack)
    }

    pub fn test_pair(a: &[IpIdSample], b: &[IpIdSample], params: &MbtParams) -> PairCompatibility {
        let ca = classify_series(a, params.velocity_bound, params.slack);
        let cb = classify_series(b, params.velocity_bound, params.slack);
        if !ca.usable() || !cb.usable() {
            return PairCompatibility::Unknown;
        }
        if merged_monotonic(a, b, params) {
            PairCompatibility::Compatible
        } else {
            PairCompatibility::Incompatible
        }
    }

    pub fn judge_pair(
        base: &EvidenceBase,
        a: Ipv4Addr,
        b: Ipv4Addr,
        source: SeriesSource,
        params: &MbtParams,
    ) -> PairVerdict {
        let (Some(ea), Some(eb)) = (base.get(a), base.get(b)) else {
            return PairVerdict::Undetermined;
        };
        if ea.fingerprint.conflicts(&eb.fingerprint) {
            return PairVerdict::NotAlias;
        }
        if ea.mpls.conflicts(&eb.mpls) {
            return PairVerdict::NotAlias;
        }
        let (sa, sb) = match source {
            SeriesSource::Indirect => (&ea.indirect_series, &eb.indirect_series),
            SeriesSource::Direct => (&ea.direct_series, &eb.direct_series),
        };
        match test_pair(sa, sb, params) {
            PairCompatibility::Incompatible => PairVerdict::NotAlias,
            PairCompatibility::Compatible => PairVerdict::Alias,
            PairCompatibility::Unknown => {
                if ea.mpls.matches(&eb.mpls) {
                    return PairVerdict::Alias;
                }
                let unusable_for_good = |e: &AddressEvidence| {
                    let class = classify_series(
                        match source {
                            SeriesSource::Indirect => &e.indirect_series,
                            SeriesSource::Direct => &e.direct_series,
                        },
                        params.velocity_bound,
                        params.slack,
                    );
                    matches!(
                        class,
                        SeriesClass::Constant(_)
                            | SeriesClass::EchoesProbe
                            | SeriesClass::NonMonotonic
                    )
                };
                let complete = |e: &AddressEvidence| {
                    e.fingerprint.indirect_initial_ttl.is_some()
                        && e.fingerprint.direct_initial_ttl.is_some()
                };
                if unusable_for_good(ea)
                    && unusable_for_good(eb)
                    && complete(ea)
                    && complete(eb)
                    && ea.fingerprint == eb.fingerprint
                {
                    PairVerdict::WeakAlias
                } else {
                    PairVerdict::Undetermined
                }
            }
        }
    }

    pub fn resolve(
        base: &EvidenceBase,
        candidates: &BTreeSet<Ipv4Addr>,
        source: SeriesSource,
        params: &MbtParams,
    ) -> Vec<BTreeSet<Ipv4Addr>> {
        let addrs: Vec<Ipv4Addr> = candidates.iter().copied().collect();
        let n = addrs.len();
        let mut alias_pairs: Vec<(usize, usize)> = Vec::new();
        let mut conflict = vec![BTreeSet::<usize>::new(); n];
        let mut weak_pairs: Vec<(usize, usize)> = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                match judge_pair(base, addrs[i], addrs[j], source, params) {
                    PairVerdict::Alias => alias_pairs.push((i, j)),
                    PairVerdict::WeakAlias => weak_pairs.push((i, j)),
                    PairVerdict::NotAlias => {
                        conflict[i].insert(j);
                        conflict[j].insert(i);
                    }
                    PairVerdict::Undetermined => {}
                }
            }
        }
        alias_pairs.extend(weak_pairs);

        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let mut members: Vec<BTreeSet<usize>> = (0..n).map(|i| BTreeSet::from([i])).collect();
        for (i, j) in alias_pairs {
            let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
            if ri == rj {
                continue;
            }
            let blocked = members[ri]
                .iter()
                .any(|&x| members[rj].iter().any(|&y| conflict[x].contains(&y)));
            if blocked {
                continue;
            }
            let (keep, absorb) = if members[ri].len() >= members[rj].len() {
                (ri, rj)
            } else {
                (rj, ri)
            };
            parent[absorb] = keep;
            let moved = std::mem::take(&mut members[absorb]);
            members[keep].extend(moved);
        }

        let mut sets: Vec<BTreeSet<Ipv4Addr>> = Vec::new();
        let mut seen_roots = BTreeMap::new();
        for (i, &addr) in addrs.iter().enumerate() {
            let root = find(&mut parent, i);
            let entry = seen_roots.entry(root).or_insert_with(|| {
                sets.push(BTreeSet::new());
                sets.len() - 1
            });
            sets[*entry].insert(addr);
        }
        sets.sort();
        sets
    }

    pub fn judge_set(
        base: &EvidenceBase,
        set: &BTreeSet<Ipv4Addr>,
        source: SeriesSource,
        params: &MbtParams,
    ) -> SetVerdict {
        let addrs: Vec<Ipv4Addr> = set.iter().copied().collect();
        let mut any_unknown = false;
        for i in 0..addrs.len() {
            for j in i + 1..addrs.len() {
                match judge_pair(base, addrs[i], addrs[j], source, params) {
                    PairVerdict::NotAlias => return SetVerdict::Reject,
                    PairVerdict::Undetermined | PairVerdict::WeakAlias => any_unknown = true,
                    PairVerdict::Alias => {}
                }
            }
        }
        if any_unknown {
            SetVerdict::Unable
        } else {
            SetVerdict::Accept
        }
    }
}

/// How an address's replies stamp their IP IDs.
#[derive(Debug, Clone, Copy)]
enum Stamp {
    /// One of the shared counters: addresses drawing the same counter
    /// are true aliases, the others independent.
    Counter(usize),
    Constant(u16),
    Echo,
    Random,
}

const COUNTERS: usize = 3;

fn stamp(kind: u8, value: u16) -> Stamp {
    match kind % 8 {
        0..=3 => Stamp::Counter(usize::from(kind) % COUNTERS),
        4 => Stamp::Constant(value % 3),
        5 => Stamp::Echo,
        _ => Stamp::Random,
    }
}

/// Everything generated for one address.
#[derive(Debug, Clone)]
struct AddressSpec {
    indirect: Stamp,
    direct: Stamp,
    /// Most samples kept per series: around `MIN_SAMPLES`, or all.
    cap: usize,
    fingerprint: Fingerprint,
    mpls: MplsEvidence,
    /// False leaves the address out of the base (still a candidate).
    present: bool,
}

fn initial_ttl(code: u8) -> Option<u8> {
    [None, Some(64), Some(255)][usize::from(code % 3)]
}

fn address_spec(
    ((ind, dir, value), (fp, mpls, shape)): ((u8, u8, u16), (u8, u8, u8)),
) -> AddressSpec {
    AddressSpec {
        indirect: stamp(ind, value),
        direct: stamp(dir, value >> 8),
        cap: [0, 2, 3, usize::MAX, usize::MAX, usize::MAX][usize::from(shape % 6)],
        // Mostly complete and equal, so the weak-alias fallback fires.
        fingerprint: Fingerprint {
            indirect_initial_ttl: if fp % 4 == 0 {
                initial_ttl(fp / 4)
            } else {
                Some(255)
            },
            direct_initial_ttl: if fp % 5 == 0 {
                initial_ttl(fp / 5)
            } else {
                Some(64)
            },
        },
        mpls: match mpls % 6 {
            0 => MplsEvidence::Stable(100),
            1 => MplsEvidence::Stable(200),
            2 => MplsEvidence::Unstable,
            _ => MplsEvidence::None,
        },
        present: shape % 11 != 0,
    }
}

/// One sample drawn: which address, on which series, how far the clock
/// moved (0 makes a timestamp tie), how far its counter stepped, and a
/// random word for echoing and random stamps.
type Event = (u8, bool, u8, u16, u16);

fn address(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, i as u8 + 1)
}

/// Builds the base the specs and events describe.
fn build_base(specs: &[AddressSpec], starts: &[u16], events: &[Event]) -> EvidenceBase {
    let mut base = EvidenceBase::new();
    for (i, spec) in specs.iter().enumerate().filter(|(_, spec)| spec.present) {
        let evidence = base.entry(address(i));
        evidence.fingerprint = spec.fingerprint;
        evidence.mpls = spec.mpls;
    }
    let mut counters = [0u16; COUNTERS];
    counters.copy_from_slice(&starts[..COUNTERS]);
    let mut clock = 0u64;
    for &(who, direct, dt, step, word) in events {
        clock += u64::from(dt % 4);
        let i = usize::from(who) % specs.len();
        let spec = &specs[i];
        let stamp = if direct { spec.direct } else { spec.indirect };
        let ip_id = match stamp {
            Stamp::Counter(c) => {
                counters[c] = counters[c].wrapping_add(1 + step % 12);
                counters[c]
            }
            Stamp::Constant(v) => v,
            Stamp::Echo => word,
            Stamp::Random => word.rotate_left(7) ^ step,
        };
        let sample = IpIdSample {
            timestamp: clock,
            ip_id,
            probe_ip_id: word,
        };
        if !spec.present {
            continue;
        }
        let evidence = base.entry(address(i));
        let series = if direct {
            &mut evidence.direct_series
        } else {
            &mut evidence.indirect_series
        };
        if series.len() < spec.cap {
            series.push(sample);
        }
    }
    base
}

fn arb_case() -> impl Strategy<Value = (Vec<AddressSpec>, Vec<u16>, Vec<Event>, bool)> {
    (
        collection::vec(
            (
                (any::<u8>(), any::<u8>(), any::<u16>()),
                (any::<u8>(), any::<u8>(), any::<u8>()),
            )
                .prop_map(address_spec),
            1..8,
        ),
        collection::vec(65_400u16..=65_535, COUNTERS..COUNTERS + 1),
        collection::vec(
            (
                any::<u8>(),
                any::<bool>(),
                any::<u8>(),
                any::<u16>(),
                any::<u16>(),
            ),
            0..160,
        ),
        any::<bool>(),
    )
}

fn series(base: &EvidenceBase, addr: Ipv4Addr, source: SeriesSource) -> &[IpIdSample] {
    base.get(addr).map_or(&[], |e| match source {
        SeriesSource::Indirect => &e.indirect_series,
        SeriesSource::Direct => &e.direct_series,
    })
}

/// Every subset of `addrs` with two or three members, and `addrs` itself.
fn judged_sets(addrs: &[Ipv4Addr]) -> Vec<BTreeSet<Ipv4Addr>> {
    let mut sets = vec![addrs.iter().copied().collect()];
    for (i, &a) in addrs.iter().enumerate() {
        for (j, &b) in addrs.iter().enumerate().skip(i + 1) {
            sets.push(BTreeSet::from([a, b]));
            for &c in &addrs[j + 1..] {
                sets.push(BTreeSet::from([a, b, c]));
            }
        }
    }
    sets
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The resolver agrees with the frozen reference on every pair
    /// verdict, on the partition and on every set verdict, for both
    /// series sources.
    #[test]
    fn resolver_matches_frozen_reference(case in arb_case()) {
        let (specs, starts, events, tight) = case;
        let base = build_base(&specs, &starts, &events);
        let params = if tight {
            MbtParams { velocity_bound: 4.0, slack: 8 }
        } else {
            MbtParams::default()
        };
        let addrs: Vec<Ipv4Addr> = (0..specs.len()).map(address).collect();
        let candidates: BTreeSet<Ipv4Addr> = addrs.iter().copied().collect();
        for source in [SeriesSource::Indirect, SeriesSource::Direct] {
            for &a in &addrs {
                for &b in &addrs {
                    let (sa, sb) = (series(&base, a, source), series(&base, b, source));
                    prop_assert_eq!(
                        merged_monotonic(sa, sb, &params),
                        reference::merged_monotonic(sa, sb, &params),
                        "merge of {} and {}", a, b
                    );
                    prop_assert_eq!(test_pair(sa, sb, &params), reference::test_pair(sa, sb, &params));
                    if a != b {
                        prop_assert_eq!(
                            judge_pair(&base, a, b, source, &params),
                            reference::judge_pair(&base, a, b, source, &params),
                            "{} and {} from {:?}", a, b, source
                        );
                    }
                }
            }
            let partition = resolve(&base, &candidates, source, &params);
            prop_assert_eq!(
                partition.sets().to_vec(),
                reference::resolve(&base, &candidates, source, &params)
            );
            for set in judged_sets(&addrs) {
                prop_assert_eq!(
                    judge_set(&base, &set, source, &params),
                    reference::judge_set(&base, &set, source, &params),
                    "{:?} from {:?}", set, source
                );
            }
        }
    }
}
