//! IP-ID time series and their classification.
//!
//! An interface's replies carry IP IDs sampled from whatever mechanism its
//! router uses. The Monotonic Bounds Test only works on series that are
//! themselves monotonic counters; the paper reports the other behaviours
//! it met in the wild — constant (mostly zero) values, non-monotonic
//! (random) series, series that merely echo the probe's IP ID, and
//! addresses with too few samples — and this module classifies them.

use serde::{Deserialize, Serialize};

/// One IP-ID observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IpIdSample {
    /// Transport timestamp of the reply.
    pub timestamp: u64,
    /// The reply's IP ID.
    pub ip_id: u16,
    /// The probe's own IP ID (to detect echo behaviour).
    pub probe_ip_id: u16,
}

/// What kind of IP-ID source a series reveals.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SeriesClass {
    /// Monotonic counter (wraparound-aware) within the velocity bound;
    /// usable by the MBT. Carries the estimated velocity (IDs per tick).
    Monotonic {
        /// Estimated counter velocity in IDs per clock tick.
        velocity: f64,
    },
    /// All samples equal (the paper: "constant (mostly zero) IP IDs").
    Constant(u16),
    /// Replies echo the probe's IP ID (MIDAR's 22.8 % inconclusive case).
    EchoesProbe,
    /// Not monotonic within any reasonable velocity.
    NonMonotonic,
    /// Fewer samples than the test minimum.
    Insufficient,
}

impl SeriesClass {
    /// True if the MBT can use this series.
    pub fn usable(&self) -> bool {
        matches!(self, SeriesClass::Monotonic { .. })
    }
}

/// Wraparound-aware forward distance from `a` to `b` on the u16 ring.
pub fn forward_distance(a: u16, b: u16) -> u16 {
    b.wrapping_sub(a)
}

/// Checks that consecutive samples advance forward within the velocity
/// bound: `0 < fwd <= velocity_bound * elapsed + slack`. Duplicated
/// timestamps are tolerated with pure-slack allowance.
pub fn is_monotonic(samples: &[IpIdSample], velocity_bound: f64, slack: u32) -> bool {
    samples
        .windows(2)
        .all(|w| monotonic_step(&w[0], &w[1], velocity_bound, slack))
}

/// One step of [`is_monotonic`]: `next` advances forward from `prev`
/// within the velocity bound. The MBT's streaming merge applies it to
/// each step of the merged order.
pub(crate) fn monotonic_step(
    prev: &IpIdSample,
    next: &IpIdSample,
    velocity_bound: f64,
    slack: u32,
) -> bool {
    let elapsed = next.timestamp.saturating_sub(prev.timestamp) as f64;
    let fwd = u32::from(forward_distance(prev.ip_id, next.ip_id));
    let limit = velocity_bound * elapsed + f64::from(slack);
    fwd >= 1 && f64::from(fwd) <= limit
}

/// Minimum samples before the MBT will classify a series.
pub const MIN_SAMPLES: usize = 3;

/// Classifies a series (assumed sorted by timestamp).
pub fn classify_series(samples: &[IpIdSample], velocity_bound: f64, slack: u32) -> SeriesClass {
    if samples.len() < MIN_SAMPLES {
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
        // Sum of inter-sample forward distances (handles wraparound).
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

    #[test]
    fn monotonic_series_classified() {
        let samples: Vec<IpIdSample> = (0..10).map(|i| s(i, (100 + 3 * i) as u16)).collect();
        let class = classify_series(&samples, 8.0, 16);
        assert!(matches!(class, SeriesClass::Monotonic { .. }));
        assert!(class.usable());
        if let SeriesClass::Monotonic { velocity } = class {
            assert!((velocity - 3.0).abs() < 0.5, "velocity {velocity}");
        }
    }

    #[test]
    fn wraparound_is_monotonic() {
        let samples = vec![s(0, 65_530), s(1, 65_534), s(2, 2), s(3, 6)];
        assert!(is_monotonic(&samples, 8.0, 16));
        assert!(classify_series(&samples, 8.0, 16).usable());
    }

    #[test]
    fn constant_series() {
        let samples = vec![s(0, 0), s(1, 0), s(2, 0), s(3, 0)];
        assert_eq!(classify_series(&samples, 8.0, 16), SeriesClass::Constant(0));
    }

    #[test]
    fn echo_series() {
        let samples = vec![
            IpIdSample {
                timestamp: 0,
                ip_id: 7,
                probe_ip_id: 7,
            },
            IpIdSample {
                timestamp: 1,
                ip_id: 9,
                probe_ip_id: 9,
            },
            IpIdSample {
                timestamp: 2,
                ip_id: 4,
                probe_ip_id: 4,
            },
        ];
        assert_eq!(classify_series(&samples, 8.0, 16), SeriesClass::EchoesProbe);
    }

    #[test]
    fn random_series_nonmonotonic() {
        let samples = vec![s(0, 40_000), s(1, 12), s(2, 9_000), s(3, 60_000)];
        assert_eq!(
            classify_series(&samples, 8.0, 16),
            SeriesClass::NonMonotonic
        );
    }

    #[test]
    fn too_few_samples() {
        let samples = vec![s(0, 1), s(1, 2)];
        assert_eq!(
            classify_series(&samples, 8.0, 16),
            SeriesClass::Insufficient
        );
    }

    #[test]
    fn velocity_bound_enforced() {
        // A jump of 1000 in one tick exceeds bound 8/tick + slack 16.
        let samples = vec![s(0, 0), s(1, 1000), s(2, 1008)];
        assert!(!is_monotonic(&samples, 8.0, 16));
    }

    #[test]
    fn zero_forward_distance_rejected() {
        // Strictly increasing counters never produce equal consecutive
        // samples; equality in a *merged* series signals distinct counters
        // that happen to collide.
        let samples = vec![s(0, 5), s(1, 5), s(2, 6)];
        assert!(!is_monotonic(&samples, 8.0, 16));
    }

    #[test]
    fn forward_distance_ring() {
        assert_eq!(forward_distance(10, 15), 5);
        assert_eq!(forward_distance(65_535, 2), 3);
        assert_eq!(forward_distance(5, 5), 0);
        assert_eq!(forward_distance(10, 9), 65_535);
    }
}
