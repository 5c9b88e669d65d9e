//! Two-dimensional joint histograms.
//!
//! Figures 11 (max length × max width) and 14 (max width before × after
//! alias resolution) are joint distributions rendered as log-scale heat
//! maps. `JointHistogram` counts `(x, y)` pairs and can emit the non-zero
//! cells as rows for printing or serialization.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A counting histogram over `(u64, u64)` pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct JointHistogram {
    counts: BTreeMap<(u64, u64), u64>,
    total: u64,
}

impl JointHistogram {
    /// Creates an empty joint histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `(x, y)`.
    pub fn record(&mut self, x: u64, y: u64) {
        *self.counts.entry((x, y)).or_insert(0) += 1;
        self.total += 1;
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count at cell `(x, y)`.
    pub fn count(&self, x: u64, y: u64) -> u64 {
        self.counts.get(&(x, y)).copied().unwrap_or(0)
    }

    /// Portion of observations in cell `(x, y)`.
    pub fn portion(&self, x: u64, y: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.count(x, y) as f64 / self.total as f64
    }

    /// Iterator over non-zero cells `((x, y), count)` in row-major order.
    pub fn cells(&self) -> impl Iterator<Item = ((u64, u64), u64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// Count of observations strictly below the diagonal (`y < x`): for
    /// Fig. 14 this is the mass where alias resolution reduced the width.
    pub fn below_diagonal(&self) -> u64 {
        self.counts
            .iter()
            .filter(|(&(x, y), _)| y < x)
            .map(|(_, &c)| c)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut j = JointHistogram::new();
        j.record(2, 2);
        j.record(2, 2);
        j.record(5, 3);
        assert_eq!(j.total(), 3);
        assert_eq!(j.count(2, 2), 2);
        assert_eq!(j.count(5, 3), 1);
        assert_eq!(j.count(9, 9), 0);
        assert!((j.portion(2, 2) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn diagonal_accounting() {
        let mut j = JointHistogram::new();
        j.record(56, 49); // reduced
        j.record(56, 56); // unchanged
        j.record(48, 48); // unchanged
        j.record(10, 2); // reduced
        assert_eq!(j.below_diagonal(), 2);
    }

    #[test]
    fn cells_ordering() {
        let mut j = JointHistogram::new();
        j.record(2, 1);
        j.record(1, 2);
        let cells: Vec<_> = j.cells().collect();
        assert_eq!(cells[0].0, (1, 2));
        assert_eq!(cells[1].0, (2, 1));
    }

    #[test]
    fn empty_portion_is_zero() {
        let j = JointHistogram::new();
        assert_eq!(j.portion(1, 1), 0.0);
    }
}
