//! Ground-truth router models.
//!
//! The multilevel tracer (Sec. 4) infers router-level structure from three
//! observable behaviours, all modelled here:
//!
//! * **IP-ID counters** — the Monotonic Bounds Test assumes a router
//!   stamps replies from one shared, monotonically increasing counter.
//!   Real routers deviate in every way the paper reports: per-interface
//!   counters (for ICMP errors) combined with a router-wide counter (for
//!   echo replies) — the 14.4 % "Reject Indirect / Accept Direct" cell of
//!   Table 2; constant (mostly zero) IP IDs — 98.6 % of MMLPT's
//!   inconclusive cases; random/non-monotonic series; and direct replies
//!   that merely copy the probe's IP ID — 22.8 % of MIDAR's inconclusive
//!   cases.
//! * **Initial TTLs** — Network Fingerprinting infers the initial TTL of
//!   reply packets; different initial TTLs for the same probe class mean
//!   different routers.
//! * **MPLS labels** — interfaces in a stable MPLS tunnel report a label;
//!   equal labels at a hop suggest a common router, differing labels
//!   different routers (Sec. 4.1).

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// How a router generates IP IDs for one class of replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CounterBehavior {
    /// One router-wide monotonic counter for this reply class.
    SharedCounter,
    /// An independent monotonic counter per interface.
    PerInterfaceCounter,
    /// A constant value (routers that always stamp 0).
    Constant(u16),
    /// A uniformly random value per reply (non-monotonic series).
    Random,
    /// The reply copies the probe's IP ID (observed for echo replies).
    CopyProbe,
    /// No reply at all for this class (unresponsive to direct probing).
    Unresponsive,
}

/// IP-ID behaviour of one router: indirect replies (ICMP errors elicited
/// by traceroute-style probing) and direct replies (echo replies) may use
/// different mechanisms — the crux of the Table 2 comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IpIdProfile {
    /// Behaviour for Time Exceeded / Destination Unreachable.
    pub indirect: CounterBehavior,
    /// Behaviour for Echo Reply.
    pub direct: CounterBehavior,
    /// If both classes use `SharedCounter`, whether they share one counter
    /// (true for most routers) or keep separate per-class counters.
    pub unified_counter: bool,
    /// Counter advance per clock tick (background traffic rate).
    pub rate: u16,
    /// Extra uniformly random advance in `0..=jitter` per sample.
    pub jitter: u16,
}

impl IpIdProfile {
    /// The well-behaved router: one shared counter for everything.
    pub fn shared(rate: u16, jitter: u16) -> Self {
        Self {
            indirect: CounterBehavior::SharedCounter,
            direct: CounterBehavior::SharedCounter,
            unified_counter: true,
            rate,
            jitter,
        }
    }

    /// The Table 2 troublemaker: per-interface counters for ICMP errors,
    /// router-wide counter for echo replies.
    pub fn per_interface_indirect(rate: u16, jitter: u16) -> Self {
        Self {
            indirect: CounterBehavior::PerInterfaceCounter,
            direct: CounterBehavior::SharedCounter,
            unified_counter: false,
            rate,
            jitter,
        }
    }

    /// Constant-zero IP IDs everywhere (MBT can conclude nothing).
    pub fn constant_zero() -> Self {
        Self {
            indirect: CounterBehavior::Constant(0),
            direct: CounterBehavior::Constant(0),
            unified_counter: true,
            rate: 0,
            jitter: 0,
        }
    }
}

impl Default for IpIdProfile {
    fn default() -> Self {
        Self::shared(2, 3)
    }
}

/// MPLS tunnel participation of a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MplsProfile {
    /// The label this router's interfaces report (20-bit).
    pub label: u32,
    /// Whether the label is constant over time; unstable labels are
    /// useless for alias resolution (Sec. 4.1) and are re-rolled per reply.
    pub stable: bool,
}

/// Full behavioural profile of one router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouterProfile {
    /// IP-ID generation.
    pub ipid: IpIdProfile,
    /// Initial TTL of ICMP error replies (fingerprint component 1).
    pub initial_ttl_indirect: u8,
    /// Initial TTL of echo replies (fingerprint component 2).
    pub initial_ttl_direct: u8,
    /// Whether the router answers direct (echo) probes at all.
    pub responds_to_direct: bool,
    /// MPLS tunnel membership.
    pub mpls: Option<MplsProfile>,
}

impl RouterProfile {
    /// A well-behaved router with the classic (255, 255) fingerprint.
    pub fn well_behaved() -> Self {
        Self {
            ipid: IpIdProfile::default(),
            initial_ttl_indirect: 255,
            initial_ttl_direct: 255,
            responds_to_direct: true,
            mpls: None,
        }
    }
}

impl Default for RouterProfile {
    fn default() -> Self {
        Self::well_behaved()
    }
}

/// Key identifying one hardware counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum CounterKey {
    /// Router-wide counter shared by all classes.
    Unified(u32),
    /// Router-wide counter for one class (0 = indirect, 1 = direct).
    PerClass(u32, u8),
    /// Per-interface counter for one class.
    PerInterface(u32, Ipv4Addr, u8),
}

/// One monotonic counter's state.
#[derive(Debug, Clone, Copy)]
struct CounterState {
    value: u16,
    last_tick: u64,
}

/// The slot of a reply class whose behaviour keeps no counter.
const NO_COUNTER: u32 = u32::MAX;

/// Runtime IP-ID state for the interfaces of one simulation.
///
/// The counters live in dense slots laid out once, when the engine is
/// built over its interfaces: one slot per counter their routers'
/// profiles can use (a router-wide counter is one slot shared by its
/// interfaces, a per-interface counter one slot per interface and
/// class). Each interface records the slot each reply class samples, so
/// a reply costs two array loads, and neither hashes nor allocates. A
/// counter takes its seeded initial value on its first sample, so a
/// counter never sampled draws nothing from the RNG.
#[derive(Debug, Default)]
pub struct IpIdEngine {
    /// Per interface, the slot each reply class (indirect, direct)
    /// samples, or [`NO_COUNTER`].
    slot_of: Vec<[u32; 2]>,
    /// Each slot's counter key, ascending; `counters` is aligned with it.
    keys: Vec<CounterKey>,
    /// `None` until the counter's first sample.
    counters: Vec<Option<CounterState>>,
    /// Sampled counters whose interfaces a route change removed, kept
    /// so that they resume if their interfaces return.
    retired: Vec<(CounterKey, CounterState)>,
}

/// Which reply class a sample is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReplyClass {
    /// Time Exceeded / Destination Unreachable.
    Indirect,
    /// Echo Reply.
    Direct,
}

impl ReplyClass {
    /// Index of the class in per-class tables and counter keys.
    fn index(self) -> usize {
        match self {
            ReplyClass::Indirect => 0,
            ReplyClass::Direct => 1,
        }
    }
}

impl IpIdProfile {
    fn behavior(&self, class: ReplyClass) -> CounterBehavior {
        match class {
            ReplyClass::Indirect => self.indirect,
            ReplyClass::Direct => self.direct,
        }
    }

    /// The counter replies of `class` from `interface` (of `router`)
    /// advance, if the class's behaviour keeps one.
    fn counter(&self, router: u32, interface: Ipv4Addr, class: ReplyClass) -> Option<CounterKey> {
        let tag = class.index() as u8;
        match self.behavior(class) {
            CounterBehavior::SharedCounter if self.unified_counter => {
                Some(CounterKey::Unified(router))
            }
            CounterBehavior::SharedCounter => Some(CounterKey::PerClass(router, tag)),
            CounterBehavior::PerInterfaceCounter => {
                Some(CounterKey::PerInterface(router, interface, tag))
            }
            _ => None,
        }
    }
}

impl IpIdEngine {
    /// Lays out the counters of `interfaces`: interface `i` is the
    /// `i`-th item, given as its address, its router and that router's
    /// IP-ID profile (the profile every later sample for it passes).
    pub fn new(interfaces: impl IntoIterator<Item = (Ipv4Addr, u32, IpIdProfile)>) -> Self {
        let mut uses: Vec<(CounterKey, usize, ReplyClass)> = Vec::new();
        let mut count = 0;
        for (i, (address, router, profile)) in interfaces.into_iter().enumerate() {
            count = i + 1;
            for class in [ReplyClass::Indirect, ReplyClass::Direct] {
                if let Some(key) = profile.counter(router, address, class) {
                    uses.push((key, i, class));
                }
            }
        }
        uses.sort_unstable();
        let distinct = uses.windows(2).filter(|w| w[0].0 != w[1].0).count() + 1;
        let mut keys: Vec<CounterKey> = Vec::with_capacity(distinct.min(uses.len()));
        let mut slot_of = vec![[NO_COUNTER; 2]; count];
        for (key, i, class) in uses {
            if keys.last() != Some(&key) {
                keys.push(key);
            }
            slot_of[i][class.index()] = (keys.len() - 1) as u32;
        }
        Self {
            slot_of,
            counters: vec![None; keys.len()],
            keys,
            retired: Vec::new(),
        }
    }

    /// Lays the slots out afresh over a changed interface set (a route
    /// change renumbers interfaces), keeping every sampled counter's
    /// state under its key: the router-wide counters and the
    /// per-interface counters of surviving interfaces carry on where
    /// they were, and those of removed interfaces resume if their
    /// interfaces return.
    pub fn rekey(&mut self, interfaces: impl IntoIterator<Item = (Ipv4Addr, u32, IpIdProfile)>) {
        let old = std::mem::replace(self, Self::new(interfaces));
        let sampled = old
            .keys
            .into_iter()
            .zip(old.counters)
            .filter_map(|(key, state)| Some((key, state?)));
        for (key, state) in old.retired.into_iter().chain(sampled) {
            match self.keys.binary_search(&key) {
                Ok(slot) => self.counters[slot] = Some(state),
                Err(_) => self.retired.push((key, state)),
            }
        }
    }

    /// Samples the IP ID interface `interface` stamps on a reply of
    /// `class`.
    ///
    /// Returns `None` if the behaviour is `Unresponsive` (no reply should
    /// be sent at all).
    pub fn sample<R: Rng>(
        &mut self,
        rng: &mut R,
        interface: usize,
        profile: &IpIdProfile,
        class: ReplyClass,
        probe_ip_id: u16,
        now: u64,
    ) -> Option<u16> {
        match profile.behavior(class) {
            CounterBehavior::Constant(v) => Some(v),
            CounterBehavior::Random => Some(rng.gen()),
            CounterBehavior::CopyProbe => Some(probe_ip_id),
            CounterBehavior::Unresponsive => None,
            CounterBehavior::SharedCounter | CounterBehavior::PerInterfaceCounter => {
                let slot = self.slot_of[interface][class.index()];
                debug_assert_ne!(slot, NO_COUNTER, "profile differs from the layout's");
                Some(self.advance(rng, slot as usize, profile, now))
            }
        }
    }

    /// Advances a counter to `now` and returns its value. The counter
    /// moves `rate` per tick plus up to `jitter` extra per sample — always
    /// strictly forward (mod 2^16), which is what the MBT exploits.
    fn advance<R: Rng>(
        &mut self,
        rng: &mut R,
        slot: usize,
        profile: &IpIdProfile,
        now: u64,
    ) -> u16 {
        let state = self.counters[slot].get_or_insert_with(|| CounterState {
            value: rng.gen(),
            last_tick: now,
        });
        let elapsed = now.saturating_sub(state.last_tick);
        let base_step = u64::from(profile.rate) * elapsed;
        let jitter_step = if profile.jitter > 0 {
            u64::from(rng.gen_range(0..=profile.jitter))
        } else {
            0
        };
        // Always advance at least 1 so two samples never collide exactly;
        // real counters increment per emitted packet.
        let step = (base_step + jitter_step).max(1);
        state.value = state.value.wrapping_add((step & 0xFFFF) as u16);
        state.last_tick = now;
        state.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const IF_A: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 0);
    const IF_B: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 1);

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    /// An engine over `interfaces` (address, router), all with profile `p`.
    fn engine(p: IpIdProfile, interfaces: &[(Ipv4Addr, u32)]) -> IpIdEngine {
        IpIdEngine::new(interfaces.iter().map(|&(a, r)| (a, r, p)))
    }

    /// Wraparound-aware forward distance.
    fn fwd(a: u16, b: u16) -> u16 {
        b.wrapping_sub(a)
    }

    #[test]
    fn shared_counter_interleaved_monotonic() {
        let p = IpIdProfile::shared(2, 3);
        let mut eng = engine(p, &[(IF_A, 1), (IF_B, 1)]);
        let mut r = rng();
        let mut last: Option<u16> = None;
        for t in 0..200u64 {
            let iface = (t % 2) as usize;
            let id = eng
                .sample(&mut r, iface, &p, ReplyClass::Indirect, 0, t)
                .unwrap();
            if let Some(prev) = last {
                // Forward distance must be small (counter velocity bound).
                assert!(fwd(prev, id) <= 16, "jump too large: {prev} -> {id}");
                assert!(fwd(prev, id) >= 1, "must strictly advance");
            }
            last = Some(id);
        }
    }

    #[test]
    fn per_interface_counters_independent() {
        let p = IpIdProfile::per_interface_indirect(2, 3);
        let mut eng = engine(p, &[(IF_A, 1), (IF_B, 1)]);
        let mut r = rng();
        let a0 = eng
            .sample(&mut r, 0, &p, ReplyClass::Indirect, 0, 0)
            .unwrap();
        let b0 = eng
            .sample(&mut r, 1, &p, ReplyClass::Indirect, 0, 1)
            .unwrap();
        // Counters are seeded independently: the two interleaved series
        // almost surely do not interleave monotonically with small steps.
        // (Deterministic seed: just check they start far apart.)
        assert!(fwd(a0, b0) > 64 || fwd(b0, a0) > 64);
        // But each interface's own series is monotonic.
        let a1 = eng
            .sample(&mut r, 0, &p, ReplyClass::Indirect, 0, 2)
            .unwrap();
        assert!(fwd(a0, a1) >= 1 && fwd(a0, a1) <= 16);
    }

    #[test]
    fn per_interface_indirect_direct_shared() {
        let p = IpIdProfile::per_interface_indirect(2, 2);
        let mut eng = engine(p, &[(IF_A, 1), (IF_B, 1)]);
        let mut r = rng();
        // Direct samples from different interfaces share a counter.
        let d0 = eng.sample(&mut r, 0, &p, ReplyClass::Direct, 0, 0).unwrap();
        let d1 = eng.sample(&mut r, 1, &p, ReplyClass::Direct, 0, 1).unwrap();
        assert!(fwd(d0, d1) >= 1 && fwd(d0, d1) <= 16);
    }

    #[test]
    fn constant_zero_always_zero() {
        let p = IpIdProfile::constant_zero();
        let mut eng = engine(p, &[(IF_A, 1)]);
        let mut r = rng();
        for t in 0..10 {
            assert_eq!(
                eng.sample(&mut r, 0, &p, ReplyClass::Indirect, 99, t),
                Some(0)
            );
        }
    }

    #[test]
    fn copy_probe_echoes() {
        let p = IpIdProfile {
            direct: CounterBehavior::CopyProbe,
            ..IpIdProfile::default()
        };
        let mut eng = engine(p, &[(IF_A, 1)]);
        let mut r = rng();
        assert_eq!(
            eng.sample(&mut r, 0, &p, ReplyClass::Direct, 0xABCD, 5),
            Some(0xABCD)
        );
    }

    #[test]
    fn unresponsive_returns_none() {
        let p = IpIdProfile {
            direct: CounterBehavior::Unresponsive,
            ..IpIdProfile::default()
        };
        let mut eng = engine(p, &[(IF_A, 1)]);
        let mut r = rng();
        assert_eq!(eng.sample(&mut r, 0, &p, ReplyClass::Direct, 0, 5), None);
    }

    #[test]
    fn different_routers_independent_counters() {
        let p = IpIdProfile::shared(2, 2);
        let mut eng = engine(p, &[(IF_A, 1), (IF_B, 2)]);
        let mut r = rng();
        let a = eng
            .sample(&mut r, 0, &p, ReplyClass::Indirect, 0, 0)
            .unwrap();
        let b = eng
            .sample(&mut r, 1, &p, ReplyClass::Indirect, 0, 1)
            .unwrap();
        assert!(fwd(a, b) > 64 || fwd(b, a) > 64);
    }

    #[test]
    fn wraparound_still_advances() {
        // Force a counter near the top of the range and step it across.
        let p = IpIdProfile::shared(1, 0);
        let mut eng = engine(p, &[(IF_A, 3)]);
        let mut r = rng();
        // Warm the counter, then find its value and advance until wrap.
        let mut prev = eng
            .sample(&mut r, 0, &p, ReplyClass::Indirect, 0, 0)
            .unwrap();
        let mut wrapped = false;
        for t in 1..200_000u64 {
            let id = eng
                .sample(&mut r, 0, &p, ReplyClass::Indirect, 0, t)
                .unwrap();
            if id < prev {
                wrapped = true;
                // Forward distance remains small through the wrap.
                assert!(fwd(prev, id) <= 16);
                break;
            }
            prev = id;
        }
        assert!(wrapped, "counter must eventually wrap");
    }

    #[test]
    fn random_behavior_varies() {
        let p = IpIdProfile {
            indirect: CounterBehavior::Random,
            ..IpIdProfile::default()
        };
        let mut eng = engine(p, &[(IF_A, 1)]);
        let mut r = rng();
        let values: std::collections::BTreeSet<u16> = (0..32u64)
            .map(|t| {
                eng.sample(&mut r, 0, &p, ReplyClass::Indirect, 0, t)
                    .unwrap()
            })
            .collect();
        assert!(values.len() > 16, "random IDs must vary");
    }

    /// One slot per counter a profile can use: a unified router is one
    /// slot for all its interfaces and both classes, a per-interface
    /// indirect profile one slot per interface plus the router's direct
    /// counter, and constant behaviours none.
    #[test]
    fn slots_follow_the_profiles() {
        let shared = engine(IpIdProfile::shared(2, 3), &[(IF_A, 1), (IF_B, 1)]);
        assert_eq!(shared.counters.len(), 1);
        let split = engine(
            IpIdProfile::per_interface_indirect(2, 3),
            &[(IF_A, 1), (IF_B, 1)],
        );
        assert_eq!(split.counters.len(), 3);
        let constant = engine(IpIdProfile::constant_zero(), &[(IF_A, 1)]);
        assert!(constant.counters.is_empty());
    }

    /// Re-keying keeps each counter's state under its key: the survivor
    /// moves to its new slot, a removed interface's counter waits aside
    /// and resumes when the interface returns.
    #[test]
    fn rekey_carries_counters_by_key() {
        let p = IpIdProfile::per_interface_indirect(1, 0);
        let mut eng = engine(p, &[(IF_A, 1), (IF_B, 1)]);
        let mut r = rng();
        let a0 = eng
            .sample(&mut r, 0, &p, ReplyClass::Indirect, 0, 0)
            .unwrap();
        let b0 = eng
            .sample(&mut r, 1, &p, ReplyClass::Indirect, 0, 0)
            .unwrap();
        // IF_A leaves: IF_B becomes interface 0.
        eng.rekey([(IF_B, 1, p)]);
        let b1 = eng
            .sample(&mut r, 0, &p, ReplyClass::Indirect, 0, 4)
            .unwrap();
        assert_eq!(fwd(b0, b1), 4);
        // IF_A returns below IF_B.
        eng.rekey([(IF_A, 1, p), (IF_B, 1, p)]);
        let a1 = eng
            .sample(&mut r, 0, &p, ReplyClass::Indirect, 0, 10)
            .unwrap();
        assert_eq!(fwd(a0, a1), 10);
        let b2 = eng
            .sample(&mut r, 1, &p, ReplyClass::Indirect, 0, 10)
            .unwrap();
        assert_eq!(fwd(b1, b2), 6);
    }
}
