//! Deadline policy for the pending table: how long each dispatched
//! probe may stay unanswered, and how that deadline grows under
//! sustained loss.
//!
//! The sweep engine dispatches probes through the split transport
//! contract ([`mlpt_wire::SplitTransport`]): every probe carries a
//! timeout measured in virtual-clock ticks from its own send instant,
//! and a probe whose reply misses that deadline resolves as a typed
//! timeout that feeds the retry machinery. The one knob is
//! [`SweepConfig::probe_timeout`](crate::SweepConfig::probe_timeout);
//! [`probe_deadline`] doubles it per retry wave and per step of the
//! lane's backoff depth.
//!
//! # Determinism (rule 5)
//!
//! Deadlines are **protocol state, never scheduler state**. A deadline
//! depends only on the probe's *attempt* number (which retry wave it
//! belongs to) and the lane's *backoff depth* (how many consecutive
//! lossy waves this session has seen), and both advance only on
//! session-round boundaries. How a scheduler slices a wave across
//! dispatch cycles therefore cannot change a single deadline, which is
//! what keeps concurrent sweeps bit-identical to sequential traces under
//! fault schedules.

/// Cap on the doubling exponent: no deadline exceeds 64 × the probe
/// timeout, so no schedule can push a deadline towards infinity.
const MAX_EXPONENT: u32 = 6;

/// The deadline, in ticks from its send instant, of a probe on attempt
/// `attempt` while its lane sits at backoff depth `depth`:
/// `probe_timeout × 2^min(attempt + depth, 6)`, saturating. The depth
/// term reuses the AIMD loss signal (per wave, so protocol state) to
/// give lossy lanes breathing room without a config change.
pub(crate) fn probe_deadline(probe_timeout: u64, attempt: u8, depth: u32) -> u64 {
    let exponent = depth.saturating_add(u32::from(attempt)).min(MAX_EXPONENT);
    probe_timeout.saturating_mul(1 << exponent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SweepConfig;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        assert_eq!(probe_deadline(10, 0, 0), 10);
        assert_eq!(probe_deadline(10, 1, 0), 20);
        assert_eq!(probe_deadline(10, 0, 1), 20);
        assert_eq!(probe_deadline(10, 1, 1), 40);
        assert_eq!(probe_deadline(10, 3, 0), 80);
        // Capped at 2^6 however deep attempt + depth go.
        assert_eq!(probe_deadline(10, 9, 9), 640);
        assert_eq!(probe_deadline(10, u8::MAX, u32::MAX), 640);
        // Saturates rather than overflows: the timeout is caller-set.
        assert_eq!(probe_deadline(u64::MAX, 0, 0), u64::MAX);
        assert_eq!(probe_deadline(u64::MAX / 2 + 1, 1, 0), u64::MAX);
    }

    #[test]
    fn zero_jitter_skips_the_rng() {
        // Deadlines draw no randomness: the default timeout's deadlines
        // are exact doublings, capped at 64x.
        let timeout = SweepConfig::default().probe_timeout;
        assert_eq!(probe_deadline(timeout, 0, 0), 4096);
        assert_eq!(probe_deadline(timeout, 1, 0), 8192);
        assert_eq!(probe_deadline(timeout, 0, 6), 4096 * 64);
        assert_eq!(probe_deadline(timeout, 0, 7), 4096 * 64);
    }
}
