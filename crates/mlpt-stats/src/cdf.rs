//! Empirical cumulative distribution functions.
//!
//! The paper plots CDFs over hop pairs (Fig. 2), topologies (Fig. 4),
//! diamonds (Figs. 8, 9) and routers (Fig. 12). `EmpiricalCdf` stores the
//! sorted sample and answers both directions of query: `fraction_at_or_below`
//! (the CDF proper) and `quantile` (its inverse).

use serde::{Deserialize, Serialize};

/// An empirical CDF over `f64` samples.
///
/// Construction sorts the samples once; queries are `O(log n)`.
/// NaN samples are rejected at construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmpiricalCdf {
    sorted: Vec<f64>,
}

impl EmpiricalCdf {
    /// Builds a CDF from samples.
    ///
    /// # Panics
    /// Panics if any sample is NaN; the paper's metrics are always finite.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "EmpiricalCdf: NaN sample"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after check"));
        Self { sorted: samples }
    }

    /// Builds a CDF from any iterator of samples.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Fraction of samples `<= x` — the CDF evaluated at `x`.
    ///
    /// Returns 0.0 for an empty CDF.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // partition_point: count of samples <= x.
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) using the nearest-rank method,
    /// matching how CDF plot crossings are usually read off.
    ///
    /// Returns `None` for an empty CDF: summary paths can legitimately
    /// feed an empty series (e.g. a bench stage whose lane was fully
    /// rate-limited), and "no samples" must surface as absence, not a
    /// panic.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]` (a programming error, unlike an
    /// empty sample set).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        let first = *self.sorted.first()?;
        if q == 0.0 {
            return Some(first);
        }
        let rank = (q * self.sorted.len() as f64).ceil() as usize;
        Some(self.sorted[rank.saturating_sub(1).min(self.sorted.len() - 1)])
    }

    /// The median (0.5-quantile), `None` for an empty CDF.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Arithmetic mean of the samples.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Evaluates the CDF on a fixed grid of `x` values; convenient for
    /// printing aligned figure series.
    pub fn evaluate_on(&self, xs: &[f64]) -> Vec<(f64, f64)> {
        xs.iter()
            .map(|&x| (x, self.fraction_at_or_below(x)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cdf_behaves() {
        let cdf = EmpiricalCdf::new(vec![]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_at_or_below(1.0), 0.0);
        assert_eq!(cdf.min(), None);
        assert_eq!(cdf.max(), None);
        // Quantile queries over no samples report absence, never panic:
        // summary paths hit this when a stage produces zero samples.
        assert_eq!(cdf.quantile(0.0), None);
        assert_eq!(cdf.quantile(0.9), None);
        assert_eq!(cdf.median(), None);
    }

    #[test]
    fn simple_fractions() {
        let cdf = EmpiricalCdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.fraction_at_or_below(0.5), 0.0);
        assert_eq!(cdf.fraction_at_or_below(1.0), 0.25);
        assert_eq!(cdf.fraction_at_or_below(2.5), 0.5);
        assert_eq!(cdf.fraction_at_or_below(4.0), 1.0);
        assert_eq!(cdf.fraction_at_or_below(9.0), 1.0);
    }

    #[test]
    fn strict_vs_inclusive() {
        let cdf = EmpiricalCdf::new(vec![1.0, 1.0, 2.0]);
        assert!((cdf.fraction_at_or_below(1.0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let cdf = EmpiricalCdf::new(vec![10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(cdf.quantile(0.0), Some(10.0));
        assert_eq!(cdf.quantile(0.2), Some(10.0));
        assert_eq!(cdf.quantile(0.5), Some(30.0));
        assert_eq!(cdf.quantile(1.0), Some(50.0));
        assert_eq!(cdf.median(), Some(30.0));
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let cdf = EmpiricalCdf::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(cdf.samples(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn mean_matches_hand_computation() {
        let cdf = EmpiricalCdf::new(vec![2.0, 4.0, 6.0]);
        assert!((cdf.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = EmpiricalCdf::new(vec![f64::NAN]);
    }

    #[test]
    fn evaluate_on_grid() {
        let cdf = EmpiricalCdf::new(vec![1.0, 2.0]);
        let grid = cdf.evaluate_on(&[0.0, 1.5, 3.0]);
        assert_eq!(grid[0].1, 0.0);
        assert_eq!(grid[1].1, 0.5);
        assert_eq!(grid[2].1, 1.0);
    }
}
