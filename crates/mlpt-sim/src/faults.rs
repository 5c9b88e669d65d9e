//! Fault injection.
//!
//! The MDA's idealised model assumes every probe receives a response
//! (assumption 4). The paper's future-work list (Sec. 7, item 2) calls for
//! a simulator that can violate that assumption — in particular ICMP rate
//! limiting, "one common cause of a lack of replies". Two types:
//!
//! * [`FaultPlan`] — the impairments in force at one instant:
//!   probabilistic probe loss (the forward packet vanishes),
//!   probabilistic reply loss (the ICMP reply vanishes), per-router ICMP
//!   rate limiting via a token bucket, reply **latency** (ticks added to
//!   each reply's delivery time, so a deadline-driven prober can see
//!   late replies) with an optional seeded **jitter**, and a
//!   **blackhole** (all probes to TTLs at or beyond a threshold vanish —
//!   a destination or path segment going dark).
//! * [`FaultSchedule`] — a stepped timeline of plans: the network's
//!   impairments *change at named virtual-clock ticks* (a destination
//!   going dark mid-trace, loss that flaps, congestion that ramps). A
//!   plan converts into the schedule that holds it forever. Presets for
//!   the canonical chaos scenarios live in [`FaultSchedule::preset`].

use rand::Rng;
use std::collections::BTreeMap;

/// The impairments in force at one instant of virtual time. The default
/// plan injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability a probe is dropped before reaching any router.
    pub probe_loss: f64,
    /// Probability a generated reply is dropped on the way back.
    pub reply_loss: f64,
    /// Virtual-clock ticks added to every reply's delivery time. A
    /// deadline-driven prober observes a reply only if
    /// `latency_ticks <= timeout`; the synchronous prober (which cannot
    /// express deadlines) still sees the reply, just later-stamped.
    pub latency_ticks: u64,
    /// Seeded per-probe latency spread: each reply's delivery time gains
    /// a uniform draw from `0..=jitter_ticks` on top of `latency_ticks`.
    /// Zero (the default) means perfectly flat latency — and draws
    /// nothing from the jitter stream, so jitter-free schedules stay
    /// bit-identical to builds that predate the knob.
    pub jitter_ticks: u64,
    /// Blackhole threshold: probes addressed to hops at or beyond this
    /// TTL silently vanish (no reply, ever). `Some(1)` darkens the whole
    /// path; `Some(k)` models a failure after hop `k - 1`.
    pub blackhole_min_ttl: Option<u8>,
    /// ICMP rate limit: token bucket capacity per router
    /// (None = unlimited).
    pub icmp_bucket_capacity: Option<u32>,
    /// Tokens refilled per clock tick.
    pub icmp_tokens_per_tick: f64,
}

impl FaultPlan {
    /// No faults at all: the MDA's ideal world.
    pub fn none() -> Self {
        Self {
            probe_loss: 0.0,
            reply_loss: 0.0,
            latency_ticks: 0,
            jitter_ticks: 0,
            blackhole_min_ttl: None,
            icmp_bucket_capacity: None,
            icmp_tokens_per_tick: 0.0,
        }
    }

    /// Uniform random loss on both directions.
    pub fn with_loss(probe_loss: f64, reply_loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&probe_loss));
        assert!((0.0..=1.0).contains(&reply_loss));
        Self {
            probe_loss,
            reply_loss,
            ..Self::none()
        }
    }

    /// ICMP rate limiting: each router may emit at most `capacity` replies
    /// in a burst, refilling at `tokens_per_tick`.
    pub fn with_rate_limit(capacity: u32, tokens_per_tick: f64) -> Self {
        assert!(capacity > 0);
        assert!(tokens_per_tick >= 0.0);
        Self {
            icmp_bucket_capacity: Some(capacity),
            icmp_tokens_per_tick: tokens_per_tick,
            ..Self::none()
        }
    }

    /// The rate-limiting lane profile in router-datasheet terms: each
    /// router answers at most `replies` probes per `window_ticks` of
    /// virtual time (token bucket of capacity `replies` refilling at
    /// `replies / window_ticks` tokens per tick). Bursts larger than the
    /// window allowance are suppressed — the behaviour an adaptive
    /// prober must detect and back off from (Viger et al.).
    pub fn with_rate_limit_window(replies: u32, window_ticks: u64) -> Self {
        assert!(replies > 0);
        assert!(window_ticks > 0);
        Self::with_rate_limit(replies, f64::from(replies) / window_ticks as f64)
    }

    /// This plan with reply latency added.
    pub fn with_latency(mut self, ticks: u64) -> Self {
        self.latency_ticks = ticks;
        self
    }

    /// This plan with a per-probe latency spread of `0..=ticks` added on
    /// top of the fixed reply latency.
    pub fn with_jitter(mut self, ticks: u64) -> Self {
        self.jitter_ticks = ticks;
        self
    }

    /// This plan with a blackhole from the given TTL onward.
    pub fn with_blackhole(mut self, min_ttl: u8) -> Self {
        assert!(min_ttl > 0, "TTL 0 never carries probes");
        self.blackhole_min_ttl = Some(min_ttl);
        self
    }

    /// True if this plan can suppress or delay packets at all.
    pub fn is_lossy(&self) -> bool {
        self.probe_loss > 0.0
            || self.reply_loss > 0.0
            || self.icmp_bucket_capacity.is_some()
            || self.latency_ticks > 0
            || self.jitter_ticks > 0
            || self.blackhole_min_ttl.is_some()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// A time-scheduled sequence of impairments: the plan in force is a step
/// function of the simulator's virtual clock.
///
/// Steps are `(tick, plan)` pairs sorted by tick; the plan at tick `t`
/// is the last step at or before `t`. A schedule always covers tick 0
/// (an implicit no-fault step is inserted if the first explicit step
/// starts later), so [`plan_at`](Self::plan_at) is total. The only
/// constructors ([`none`](Self::none), [`step`](Self::step) and
/// `From<FaultPlan>`) keep that invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    steps: Vec<(u64, FaultPlan)>,
}

impl FaultSchedule {
    /// No impairments, ever.
    pub fn none() -> Self {
        FaultPlan::none().into()
    }

    /// Appends a step: from `tick` onward, `plan` is in force. Ticks
    /// must be appended in strictly increasing order.
    pub fn step(mut self, tick: u64, plan: FaultPlan) -> Self {
        if let Some(&(last, _)) = self.steps.last() {
            assert!(
                tick > last || (self.steps.len() == 1 && tick == 0),
                "schedule steps must be appended in increasing tick order \
                 ({tick} after {last})"
            );
            if tick == 0 {
                // Replacing the implicit tick-0 step.
                self.steps.clear();
            }
        }
        self.steps.push((tick, plan));
        self
    }

    /// The plan in force at virtual-clock tick `tick`.
    pub fn plan_at(&self, tick: u64) -> &FaultPlan {
        let idx = self.steps.partition_point(|&(t, _)| t <= tick);
        // Index 0 always has tick 0, so idx >= 1.
        &self.steps[idx - 1].1
    }

    /// True if any step can suppress or delay packets.
    pub fn is_lossy(&self) -> bool {
        self.steps.iter().any(|(_, plan)| plan.is_lossy())
    }

    /// True if any step delays replies (nonzero latency or jitter): only
    /// then can a reply miss a probe deadline that is not already gone.
    pub fn delays_replies(&self) -> bool {
        self.steps
            .iter()
            .any(|(_, plan)| plan.latency_ticks > 0 || plan.jitter_ticks > 0)
    }

    /// Names of the built-in chaos presets, in [`preset`](Self::preset)
    /// order.
    pub fn preset_names() -> &'static [&'static str] {
        &[
            "midtrace-blackhole",
            "flap",
            "congestion-ramp",
            "rate-limit-burst",
            "jitter-spread",
        ]
    }

    /// A named chaos preset, or `None` for an unknown name.
    ///
    /// * `midtrace-blackhole` — clean network until tick 48, then every
    ///   path goes completely dark: traces in flight must finish
    ///   partial, not hang.
    /// * `flap` — loss switches on (60% both directions) and off every
    ///   32 ticks, the oscillating-quality link.
    /// * `congestion-ramp` — reply loss and latency climb together in
    ///   three steps, the queue-buildup profile.
    /// * `rate-limit-burst` — routers clamp to a tight ICMP token
    ///   bucket between ticks 16 and 96, then recover.
    /// * `jitter-spread` — from tick 32 every reply gains a seeded
    ///   uniform 0..=12-tick spread on top of a 1-tick base latency,
    ///   then settles at tick 96: the bufferbloat profile where some
    ///   replies straggle past their deadline and some squeak in.
    pub fn preset(name: &str) -> Option<Self> {
        let clean = FaultPlan::none();
        let schedule = match name {
            "midtrace-blackhole" => FaultSchedule::none().step(48, clean.with_blackhole(1)),
            "flap" => {
                let lossy = FaultPlan::with_loss(0.6, 0.6);
                FaultSchedule::none()
                    .step(32, lossy)
                    .step(64, clean)
                    .step(96, lossy)
                    .step(128, clean)
            }
            "congestion-ramp" => FaultSchedule::none()
                .step(32, FaultPlan::with_loss(0.0, 0.05).with_latency(2))
                .step(64, FaultPlan::with_loss(0.0, 0.15).with_latency(8))
                .step(96, FaultPlan::with_loss(0.0, 0.35).with_latency(32)),
            "rate-limit-burst" => FaultSchedule::none()
                .step(16, FaultPlan::with_rate_limit(2, 0.05))
                .step(96, clean),
            "jitter-spread" => FaultSchedule::none()
                .step(32, clean.with_latency(1).with_jitter(12))
                .step(96, clean),
            _ => return None,
        };
        Some(schedule)
    }
}

impl Default for FaultSchedule {
    fn default() -> Self {
        Self::none()
    }
}

/// The schedule that holds `plan` forever.
impl From<FaultPlan> for FaultSchedule {
    fn from(plan: FaultPlan) -> Self {
        Self {
            steps: vec![(0, plan)],
        }
    }
}

/// Runtime state of fault injection (token buckets per router).
#[derive(Debug, Default)]
pub struct FaultState {
    buckets: BTreeMap<u32, Bucket>,
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    last_tick: u64,
}

impl FaultState {
    /// Creates fresh state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rolls the probe-loss dice.
    pub fn drop_probe<R: Rng>(&self, plan: &FaultPlan, rng: &mut R) -> bool {
        plan.probe_loss > 0.0 && rng.gen::<f64>() < plan.probe_loss
    }

    /// Rolls the reply-loss dice.
    pub fn drop_reply<R: Rng>(&self, plan: &FaultPlan, rng: &mut R) -> bool {
        plan.reply_loss > 0.0 && rng.gen::<f64>() < plan.reply_loss
    }

    /// True if the blackhole swallows a probe addressed to hop `ttl`.
    pub fn blackholed(&self, plan: &FaultPlan, ttl: u8) -> bool {
        plan.blackhole_min_ttl.is_some_and(|min| ttl >= min)
    }

    /// Samples one reply's delivery latency: the fixed base plus a
    /// uniform jitter draw. A jitter-free plan consumes nothing from
    /// `rng`, so schedules without jitter keep their historical RNG
    /// streams intact.
    pub fn sample_latency<R: Rng>(&self, plan: &FaultPlan, rng: &mut R) -> u64 {
        if plan.jitter_ticks == 0 {
            plan.latency_ticks
        } else {
            plan.latency_ticks + rng.gen_range(0..=plan.jitter_ticks)
        }
    }

    /// Asks the router's ICMP token bucket for permission to reply.
    pub fn allow_icmp(&mut self, plan: &FaultPlan, router: u32, now: u64) -> bool {
        let Some(capacity) = plan.icmp_bucket_capacity else {
            return true;
        };
        let bucket = self.buckets.entry(router).or_insert(Bucket {
            tokens: f64::from(capacity),
            last_tick: now,
        });
        let elapsed = now.saturating_sub(bucket.last_tick) as f64;
        bucket.tokens =
            (bucket.tokens + elapsed * plan.icmp_tokens_per_tick).min(f64::from(capacity));
        bucket.last_tick = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn no_faults_never_drop() {
        let plan = FaultPlan::none();
        let mut state = FaultState::new();
        let mut rng = StdRng::seed_from_u64(1);
        for t in 0..100 {
            assert!(!state.drop_probe(&plan, &mut rng));
            assert!(!state.drop_reply(&plan, &mut rng));
            assert!(!state.blackholed(&plan, 1));
            assert!(state.allow_icmp(&plan, 1, t));
        }
        assert!(!plan.is_lossy());
        assert_eq!(plan, FaultPlan::default());
    }

    #[test]
    fn loss_rates_are_respected() {
        let plan = FaultPlan::with_loss(0.3, 0.0);
        let state = FaultState::new();
        let mut rng = StdRng::seed_from_u64(2);
        let drops = (0..20_000)
            .filter(|_| state.drop_probe(&plan, &mut rng))
            .count();
        let rate = drops as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "observed loss {rate}");
        assert!(plan.is_lossy());
    }

    #[test]
    fn token_bucket_exhausts_and_refills() {
        let plan = FaultPlan::with_rate_limit(3, 0.5);
        let mut state = FaultState::new();
        // Burst at t=0: 3 allowed, 4th denied.
        assert!(state.allow_icmp(&plan, 1, 0));
        assert!(state.allow_icmp(&plan, 1, 0));
        assert!(state.allow_icmp(&plan, 1, 0));
        assert!(!state.allow_icmp(&plan, 1, 0));
        // After 2 ticks, one token has refilled.
        assert!(state.allow_icmp(&plan, 1, 2));
        assert!(!state.allow_icmp(&plan, 1, 2));
    }

    #[test]
    fn buckets_are_per_router() {
        let plan = FaultPlan::with_rate_limit(1, 0.0);
        let mut state = FaultState::new();
        assert!(state.allow_icmp(&plan, 1, 0));
        assert!(!state.allow_icmp(&plan, 1, 0));
        // Router 2 has its own bucket.
        assert!(state.allow_icmp(&plan, 2, 0));
    }

    #[test]
    fn bucket_caps_at_capacity() {
        let plan = FaultPlan::with_rate_limit(2, 10.0);
        let mut state = FaultState::new();
        assert!(state.allow_icmp(&plan, 1, 0));
        // Long idle: refill must cap at 2, not accumulate unboundedly.
        assert!(state.allow_icmp(&plan, 1, 1000));
        assert!(state.allow_icmp(&plan, 1, 1000));
        assert!(!state.allow_icmp(&plan, 1, 1000));
    }

    #[test]
    fn rate_limit_window_profile() {
        // 4 replies per 16-tick window: capacity 4, refill 0.25/tick.
        let plan = FaultPlan::with_rate_limit_window(4, 16);
        assert_eq!(plan.icmp_bucket_capacity, Some(4));
        assert!((plan.icmp_tokens_per_tick - 0.25).abs() < 1e-12);
        let mut state = FaultState::new();
        // A burst of 4 at t=0 drains the bucket; the 5th is suppressed.
        for _ in 0..4 {
            assert!(state.allow_icmp(&plan, 1, 0));
        }
        assert!(!state.allow_icmp(&plan, 1, 0));
        // A full window later the bucket has refilled completely.
        assert!(state.allow_icmp(&plan, 1, 16));
        assert!(state.allow_icmp(&plan, 1, 16));
    }

    #[test]
    #[should_panic]
    fn invalid_loss_probability_rejected() {
        let _ = FaultPlan::with_loss(1.5, 0.0);
    }

    #[test]
    fn blackhole_threshold_semantics() {
        let plan = FaultPlan::none().with_blackhole(4);
        let state = FaultState::new();
        assert!(!state.blackholed(&plan, 3));
        assert!(state.blackholed(&plan, 4));
        assert!(state.blackholed(&plan, 255));
        assert!(plan.is_lossy());
        assert!(FaultPlan::none().with_latency(3).is_lossy());
    }

    #[test]
    fn schedule_steps_resolve_by_tick() {
        let lossy = FaultPlan::with_loss(0.5, 0.0);
        let dark = FaultPlan::none().with_blackhole(1);
        let schedule = FaultSchedule::none().step(10, lossy).step(20, dark);
        assert_eq!(*schedule.plan_at(0), FaultPlan::none());
        assert_eq!(*schedule.plan_at(9), FaultPlan::none());
        assert_eq!(*schedule.plan_at(10), lossy);
        assert_eq!(*schedule.plan_at(19), lossy);
        assert_eq!(*schedule.plan_at(20), dark);
        assert_eq!(*schedule.plan_at(u64::MAX), dark);
        assert!(schedule.is_lossy());
        assert!(!FaultSchedule::none().is_lossy());
    }

    #[test]
    #[should_panic]
    fn schedule_rejects_out_of_order_steps() {
        let _ = FaultSchedule::none()
            .step(20, FaultPlan::none())
            .step(10, FaultPlan::none());
    }

    #[test]
    fn schedule_embeds_static_plan() {
        let plan = FaultPlan::with_rate_limit(2, 0.25);
        let schedule = FaultSchedule::from(plan);
        assert_eq!(*schedule.plan_at(0), plan);
        assert_eq!(*schedule.plan_at(1_000_000), plan);
    }

    #[test]
    fn every_preset_resolves_and_round_trips() {
        for name in FaultSchedule::preset_names() {
            let schedule =
                FaultSchedule::preset(name).unwrap_or_else(|| panic!("preset {name} must exist"));
            assert!(schedule.is_lossy(), "{name} must impair something");
            assert_eq!(
                *schedule.plan_at(0),
                FaultPlan::none(),
                "{name} starts clean"
            );
        }
        assert!(FaultSchedule::preset("no-such-preset").is_none());
    }

    #[test]
    fn midtrace_blackhole_goes_dark_at_48() {
        let schedule = FaultSchedule::preset("midtrace-blackhole").unwrap();
        assert_eq!(schedule.plan_at(47).blackhole_min_ttl, None);
        assert_eq!(schedule.plan_at(48).blackhole_min_ttl, Some(1));
    }

    #[test]
    fn jitter_sampling_spreads_within_bounds() {
        let plan = FaultPlan::none().with_latency(3).with_jitter(5);
        assert!(plan.is_lossy());
        let state = FaultState::new();
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let lat = state.sample_latency(&plan, &mut rng);
            assert!((3..=8).contains(&lat), "latency {lat} out of bounds");
            seen.insert(lat);
        }
        assert!(seen.len() > 3, "jitter must actually spread: {seen:?}");
    }

    #[test]
    fn zero_jitter_consumes_no_randomness() {
        let plan = FaultPlan::none().with_latency(4);
        let state = FaultState::new();
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            assert_eq!(state.sample_latency(&plan, &mut a), 4);
        }
        // The stream is untouched: both rngs still agree.
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn jitter_spread_preset_windows() {
        let schedule = FaultSchedule::preset("jitter-spread").unwrap();
        assert_eq!(schedule.plan_at(31).jitter_ticks, 0);
        assert_eq!(schedule.plan_at(32).jitter_ticks, 12);
        assert_eq!(schedule.plan_at(32).latency_ticks, 1);
        assert_eq!(schedule.plan_at(96).jitter_ticks, 0);
    }

    #[test]
    fn only_latency_or_jitter_delays_replies() {
        let delaying: Vec<&str> = FaultSchedule::preset_names()
            .iter()
            .copied()
            .filter(|&name| FaultSchedule::preset(name).unwrap().delays_replies())
            .collect();
        assert_eq!(delaying, ["congestion-ramp", "jitter-spread"]);
        assert!(!FaultSchedule::from(FaultPlan::with_loss(0.3, 0.3)).delays_replies());
        assert!(FaultSchedule::none()
            .step(5, FaultPlan::none().with_jitter(1))
            .delays_replies());
    }
}
