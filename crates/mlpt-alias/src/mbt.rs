//! The Monotonic Bounds Test (MBT).
//!
//! MIDAR's core insight (Keys et al., cited in Sec. 4.1): if two
//! interfaces stamp replies from one shared counter, then their IP-ID
//! samples — probed *alternately* so the samples interleave in time —
//! merge into a single monotonically increasing sequence (modulo 2^16,
//! within a velocity bound). "A monotonic increase in identifiers, taking
//! wraparound into account, is consistent with the addresses being
//! aliases, whereas a single out-of-sequence identifier is used to place
//! the addresses into separate alias sets."

use crate::series::{classify_series, monotonic_step, IpIdSample, SeriesClass};
use serde::{Deserialize, Serialize};

/// Tunables for the MBT.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MbtParams {
    /// Maximum plausible counter velocity (IDs per transport tick).
    pub velocity_bound: f64,
    /// Fixed slack added to every bound (absorbs per-sample jitter).
    pub slack: u32,
}

impl Default for MbtParams {
    fn default() -> Self {
        Self {
            velocity_bound: 24.0,
            slack: 64,
        }
    }
}

/// Outcome of testing one pair of addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PairCompatibility {
    /// Both series usable and the merged series is monotonic: consistent
    /// with a shared counter.
    Compatible,
    /// Both series usable but the merge violates monotonicity: distinct
    /// counters, hence distinct routers (or per-interface counters).
    Incompatible,
    /// At least one series is unusable (constant, echoing, random, or too
    /// short): the MBT cannot conclude.
    Unknown,
}

/// Merges two timestamp-sorted series and checks monotonicity.
///
/// The merge streams: it walks both series in timestamp order (`a`
/// first on equal timestamps) and applies the step rule of
/// [`is_monotonic`](crate::series::is_monotonic) to each step of the
/// merged order, allocating nothing and returning at the first failing
/// step. Independent counters usually fail on the first step that
/// crosses from one series to the other.
pub fn merged_monotonic(a: &[IpIdSample], b: &[IpIdSample], params: &MbtParams) -> bool {
    let (mut a, mut b) = (a.iter().peekable(), b.iter().peekable());
    let mut prev: Option<&IpIdSample> = None;
    while let Some(sample) = match (a.peek(), b.peek()) {
        (Some(x), Some(y)) if x.timestamp > y.timestamp => b.next(),
        (Some(_), _) => a.next(),
        (None, _) => b.next(),
    } {
        if prev
            .is_some_and(|prev| !monotonic_step(prev, sample, params.velocity_bound, params.slack))
        {
            return false;
        }
        prev = Some(sample);
    }
    true
}

/// Runs the MBT on a pair of address series.
pub fn test_pair(a: &[IpIdSample], b: &[IpIdSample], params: &MbtParams) -> PairCompatibility {
    let ca = classify_series(a, params.velocity_bound, params.slack);
    let cb = classify_series(b, params.velocity_bound, params.slack);
    test_classified((a, ca), (b, cb), params)
}

/// [`test_pair`] on series whose classes are already known. The
/// resolver classifies each candidate's series once per
/// [`resolve`](crate::resolver::resolve) and judges every pair from
/// those classes.
pub(crate) fn test_classified(
    (a, ca): (&[IpIdSample], SeriesClass),
    (b, cb): (&[IpIdSample], SeriesClass),
    params: &MbtParams,
) -> PairCompatibility {
    if !ca.usable() || !cb.usable() {
        PairCompatibility::Unknown
    } else if merged_monotonic(a, b, params) {
        PairCompatibility::Compatible
    } else {
        PairCompatibility::Incompatible
    }
}

/// Why a series was unusable — the diagnostic breakdown of Sec. 4.2's
/// inconclusive-case analysis.
pub fn unusable_reason(samples: &[IpIdSample], params: &MbtParams) -> Option<SeriesClass> {
    let class = classify_series(samples, params.velocity_bound, params.slack);
    if class.usable() {
        None
    } else {
        Some(class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(t: u64, id: u16) -> IpIdSample {
        IpIdSample {
            timestamp: t,
            ip_id: id,
            probe_ip_id: 0xFFFF,
        }
    }

    /// Interleaved samples from one shared counter: compatible.
    #[test]
    fn shared_counter_compatible() {
        // Counter advances ~2/tick; A sampled at even ticks, B at odd.
        let a: Vec<IpIdSample> = (0..10).map(|i| s(2 * i, (100 + 4 * i) as u16)).collect();
        let b: Vec<IpIdSample> = (0..10)
            .map(|i| s(2 * i + 1, (102 + 4 * i) as u16))
            .collect();
        assert_eq!(
            test_pair(&a, &b, &MbtParams::default()),
            PairCompatibility::Compatible
        );
    }

    /// Independent counters started far apart: incompatible.
    #[test]
    fn independent_counters_incompatible() {
        let a: Vec<IpIdSample> = (0..10).map(|i| s(2 * i, (100 + 4 * i) as u16)).collect();
        let b: Vec<IpIdSample> = (0..10)
            .map(|i| s(2 * i + 1, (40_000 + 4 * i) as u16))
            .collect();
        assert_eq!(
            test_pair(&a, &b, &MbtParams::default()),
            PairCompatibility::Incompatible
        );
    }

    /// One constant series: unknown.
    #[test]
    fn constant_series_unknown() {
        let a: Vec<IpIdSample> = (0..10).map(|i| s(2 * i, (100 + 4 * i) as u16)).collect();
        let b: Vec<IpIdSample> = (0..10).map(|i| s(2 * i + 1, 0)).collect();
        assert_eq!(
            test_pair(&a, &b, &MbtParams::default()),
            PairCompatibility::Unknown
        );
    }

    /// Shared counter across the wraparound: still compatible.
    #[test]
    fn shared_counter_wraparound_compatible() {
        let a = vec![s(0, 65_500), s(4, 65_516), s(8, 12)];
        let b = vec![s(2, 65_508), s(6, 65_524), s(10, 20)];
        assert_eq!(
            test_pair(&a, &b, &MbtParams::default()),
            PairCompatibility::Compatible
        );
    }

    #[test]
    fn merge_is_order_insensitive() {
        let a = vec![s(0, 10), s(10, 30)];
        let b = vec![s(5, 20)];
        assert!(merged_monotonic(&a, &b, &MbtParams::default()));
        assert!(merged_monotonic(&b, &a, &MbtParams::default()));
    }

    #[test]
    fn short_series_unknown() {
        let a = vec![s(0, 10), s(1, 12)];
        let b = vec![s(0, 11), s(1, 13), s(2, 15)];
        assert_eq!(
            test_pair(&a, &b, &MbtParams::default()),
            PairCompatibility::Unknown
        );
    }

    #[test]
    fn unusable_reason_reports_class() {
        let constant = vec![s(0, 0), s(1, 0), s(2, 0)];
        assert_eq!(
            unusable_reason(&constant, &MbtParams::default()),
            Some(SeriesClass::Constant(0))
        );
        let good: Vec<IpIdSample> = (0..5).map(|i| s(i, (10 + 2 * i) as u16)).collect();
        assert_eq!(unusable_reason(&good, &MbtParams::default()), None);
    }
}
