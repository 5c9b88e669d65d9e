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

/// Key identifying one hardware counter inside the state store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// Runtime IP-ID state for all routers of a simulation.
#[derive(Debug, Default)]
pub struct IpIdEngine {
    #[expect(
        clippy::disallowed_types,
        reason = "looked up on every reply and never iterated, so hash order reaches no output"
    )]
    counters: std::collections::HashMap<CounterKey, CounterState>,
}

/// Which reply class a sample is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyClass {
    /// Time Exceeded / Destination Unreachable.
    Indirect,
    /// Echo Reply.
    Direct,
}

impl IpIdEngine {
    /// Creates an empty engine; counters materialise lazily with seeded
    /// initial values so distinct counters start apart.
    pub fn new() -> Self {
        Self::default()
    }

    /// Samples the IP ID a router stamps on a reply.
    ///
    /// Returns `None` if the behaviour is `Unresponsive` (no reply should
    /// be sent at all).
    #[expect(
        clippy::too_many_arguments,
        reason = "one sample needs the router, interface, profile, class, probe IP ID and clock"
    )]
    pub fn sample<R: Rng>(
        &mut self,
        rng: &mut R,
        router: u32,
        interface: Ipv4Addr,
        profile: &IpIdProfile,
        class: ReplyClass,
        probe_ip_id: u16,
        now: u64,
    ) -> Option<u16> {
        let behavior = match class {
            ReplyClass::Indirect => profile.indirect,
            ReplyClass::Direct => profile.direct,
        };
        let class_tag = match class {
            ReplyClass::Indirect => 0u8,
            ReplyClass::Direct => 1u8,
        };
        match behavior {
            CounterBehavior::Constant(v) => Some(v),
            CounterBehavior::Random => Some(rng.gen()),
            CounterBehavior::CopyProbe => Some(probe_ip_id),
            CounterBehavior::Unresponsive => None,
            CounterBehavior::SharedCounter => {
                let key = if profile.unified_counter {
                    CounterKey::Unified(router)
                } else {
                    CounterKey::PerClass(router, class_tag)
                };
                Some(self.advance(rng, key, profile, now))
            }
            CounterBehavior::PerInterfaceCounter => {
                let key = CounterKey::PerInterface(router, interface, class_tag);
                Some(self.advance(rng, key, profile, now))
            }
        }
    }

    /// Advances a counter to `now` and returns its value. The counter
    /// moves `rate` per tick plus up to `jitter` extra per sample — always
    /// strictly forward (mod 2^16), which is what the MBT exploits.
    fn advance<R: Rng>(
        &mut self,
        rng: &mut R,
        key: CounterKey,
        profile: &IpIdProfile,
        now: u64,
    ) -> u16 {
        let state = self.counters.entry(key).or_insert_with(|| CounterState {
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

    /// Wraparound-aware forward distance.
    fn fwd(a: u16, b: u16) -> u16 {
        b.wrapping_sub(a)
    }

    #[test]
    fn shared_counter_interleaved_monotonic() {
        let mut eng = IpIdEngine::new();
        let mut r = rng();
        let p = IpIdProfile::shared(2, 3);
        let mut last: Option<u16> = None;
        for t in 0..200u64 {
            let iface = if t % 2 == 0 { IF_A } else { IF_B };
            let id = eng
                .sample(&mut r, 1, iface, &p, ReplyClass::Indirect, 0, t)
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
        let mut eng = IpIdEngine::new();
        let mut r = rng();
        let p = IpIdProfile::per_interface_indirect(2, 3);
        let a0 = eng
            .sample(&mut r, 1, IF_A, &p, ReplyClass::Indirect, 0, 0)
            .unwrap();
        let b0 = eng
            .sample(&mut r, 1, IF_B, &p, ReplyClass::Indirect, 0, 1)
            .unwrap();
        // Counters are seeded independently: the two interleaved series
        // almost surely do not interleave monotonically with small steps.
        // (Deterministic seed: just check they start far apart.)
        assert!(fwd(a0, b0) > 64 || fwd(b0, a0) > 64);
        // But each interface's own series is monotonic.
        let a1 = eng
            .sample(&mut r, 1, IF_A, &p, ReplyClass::Indirect, 0, 2)
            .unwrap();
        assert!(fwd(a0, a1) >= 1 && fwd(a0, a1) <= 16);
    }

    #[test]
    fn per_interface_indirect_direct_shared() {
        let mut eng = IpIdEngine::new();
        let mut r = rng();
        let p = IpIdProfile::per_interface_indirect(2, 2);
        // Direct samples from different interfaces share a counter.
        let d0 = eng
            .sample(&mut r, 1, IF_A, &p, ReplyClass::Direct, 0, 0)
            .unwrap();
        let d1 = eng
            .sample(&mut r, 1, IF_B, &p, ReplyClass::Direct, 0, 1)
            .unwrap();
        assert!(fwd(d0, d1) >= 1 && fwd(d0, d1) <= 16);
    }

    #[test]
    fn constant_zero_always_zero() {
        let mut eng = IpIdEngine::new();
        let mut r = rng();
        let p = IpIdProfile::constant_zero();
        for t in 0..10 {
            assert_eq!(
                eng.sample(&mut r, 1, IF_A, &p, ReplyClass::Indirect, 99, t),
                Some(0)
            );
        }
    }

    #[test]
    fn copy_probe_echoes() {
        let mut eng = IpIdEngine::new();
        let mut r = rng();
        let p = IpIdProfile {
            direct: CounterBehavior::CopyProbe,
            ..IpIdProfile::default()
        };
        assert_eq!(
            eng.sample(&mut r, 1, IF_A, &p, ReplyClass::Direct, 0xABCD, 5),
            Some(0xABCD)
        );
    }

    #[test]
    fn unresponsive_returns_none() {
        let mut eng = IpIdEngine::new();
        let mut r = rng();
        let p = IpIdProfile {
            direct: CounterBehavior::Unresponsive,
            ..IpIdProfile::default()
        };
        assert_eq!(
            eng.sample(&mut r, 1, IF_A, &p, ReplyClass::Direct, 0, 5),
            None
        );
    }

    #[test]
    fn different_routers_independent_counters() {
        let mut eng = IpIdEngine::new();
        let mut r = rng();
        let p = IpIdProfile::shared(2, 2);
        let a = eng
            .sample(&mut r, 1, IF_A, &p, ReplyClass::Indirect, 0, 0)
            .unwrap();
        let b = eng
            .sample(&mut r, 2, IF_A, &p, ReplyClass::Indirect, 0, 1)
            .unwrap();
        assert!(fwd(a, b) > 64 || fwd(b, a) > 64);
    }

    #[test]
    fn wraparound_still_advances() {
        // Force a counter near the top of the range and step it across.
        let mut eng = IpIdEngine::new();
        let mut r = rng();
        let p = IpIdProfile::shared(1, 0);
        // Warm the counter, then find its value and advance until wrap.
        let mut prev = eng
            .sample(&mut r, 3, IF_A, &p, ReplyClass::Indirect, 0, 0)
            .unwrap();
        let mut wrapped = false;
        for t in 1..200_000u64 {
            let id = eng
                .sample(&mut r, 3, IF_A, &p, ReplyClass::Indirect, 0, t)
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
        let mut eng = IpIdEngine::new();
        let mut r = rng();
        let p = IpIdProfile {
            indirect: CounterBehavior::Random,
            ..IpIdProfile::default()
        };
        let values: std::collections::BTreeSet<u16> = (0..32u64)
            .map(|t| {
                eng.sample(&mut r, 1, IF_A, &p, ReplyClass::Indirect, 0, t)
                    .unwrap()
            })
            .collect();
        assert!(values.len() > 16, "random IDs must vary");
    }
}
