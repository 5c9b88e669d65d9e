//! Scalar summaries and ratio accounting.
//!
//! Table 1 of the paper reports, for each alternative algorithm, the ratio
//! of vertices / edges discovered and packets sent relative to a first MDA
//! run, aggregated over 10 000 measurements. `RatioSummary` implements that
//! aggregate ("sum of alternative ÷ sum of baseline"), and `Summary` is a
//! running mean/min/max/variance accumulator used throughout the harness.

use serde::{Deserialize, Serialize};

/// Running summary statistics (count, mean, variance via Welford, min, max).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds a summary from an iterator of samples.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Self::new();
        for x in iter {
            s.record(x);
        }
        s
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "Summary: NaN sample");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0.0 if fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n as f64 - 1.0)
        }
    }

    /// Minimum sample (None if empty).
    pub fn min(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Maximum sample (None if empty).
    pub fn max(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.max)
        }
    }
}

/// Aggregate ratio accumulator: Σ alternative ÷ Σ baseline.
///
/// This is the "macroscopic point of view" of Table 1: rather than averaging
/// per-trace ratios (which over-weights tiny topologies), the paper sums
/// quantities over the whole dataset and takes the ratio of sums.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RatioSummary {
    alternative_total: f64,
    baseline_total: f64,
    pairs: u64,
}

impl RatioSummary {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one (alternative, baseline) measurement pair.
    pub fn record(&mut self, alternative: f64, baseline: f64) {
        assert!(
            alternative >= 0.0 && baseline >= 0.0,
            "RatioSummary: negative quantity"
        );
        self.alternative_total += alternative;
        self.baseline_total += baseline;
        self.pairs += 1;
    }

    /// Number of pairs recorded.
    pub fn pairs(&self) -> u64 {
        self.pairs
    }

    /// Sum over the alternative series.
    pub fn alternative_total(&self) -> f64 {
        self.alternative_total
    }

    /// Sum over the baseline series.
    pub fn baseline_total(&self) -> f64 {
        self.baseline_total
    }

    /// The aggregate ratio Σ alternative ÷ Σ baseline.
    ///
    /// Returns 1.0 when both totals are zero (identical behaviour) and
    /// +∞ when only the baseline total is zero.
    pub fn ratio(&self) -> f64 {
        if self.baseline_total == 0.0 {
            if self.alternative_total == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.alternative_total / self.baseline_total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_mean_var() {
        let s = Summary::from_iter([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Known population variance 4 → sample variance 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn summary_single() {
        let s = Summary::from_iter([3.0]);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn ratio_aggregates_sums_not_means() {
        let mut r = RatioSummary::new();
        // Two traces: one tiny (1 vs 2), one large (100 vs 100).
        r.record(1.0, 2.0);
        r.record(100.0, 100.0);
        // Mean of per-trace ratios would be (0.5 + 1.0)/2 = 0.75;
        // the aggregate ratio is 101/102.
        assert!((r.ratio() - 101.0 / 102.0).abs() < 1e-12);
        assert_eq!(r.pairs(), 2);
    }

    #[test]
    fn ratio_zero_baseline() {
        let mut r = RatioSummary::new();
        r.record(0.0, 0.0);
        assert_eq!(r.ratio(), 1.0);
        r.record(5.0, 0.0);
        assert_eq!(r.ratio(), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn summary_rejects_nan() {
        let mut s = Summary::new();
        s.record(f64::NAN);
    }
}
