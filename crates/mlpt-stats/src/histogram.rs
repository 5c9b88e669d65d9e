//! Integer-valued histograms and "portion of X" distributions.
//!
//! The survey figures (7, 10, 12, 13) are histograms over integer metrics
//! (widths, lengths, asymmetries, router sizes) normalised to portions and
//! plotted on a log y-axis. `Histogram` counts; `PortionHistogram` is its
//! normalised view.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A counting histogram over `u64` values with exact (per-value) bins.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    counts: BTreeMap<u64, u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a histogram from an iterator of values.
    pub fn from_values<I: IntoIterator<Item = u64>>(values: I) -> Self {
        let mut h = Self::new();
        for v in values {
            h.record(v);
        }
        h
    }

    /// Records one observation of `value`.
    pub fn record(&mut self, value: u64) {
        *self.counts.entry(value).or_insert(0) += 1;
        self.total += 1;
    }

    /// Records `n` observations of `value`.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        *self.counts.entry(value).or_insert(0) += n;
        self.total += n;
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count for an exact value.
    pub fn count(&self, value: u64) -> u64 {
        self.counts.get(&value).copied().unwrap_or(0)
    }

    /// Iterator over `(value, count)` in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&v, &c)| (v, c))
    }

    /// Largest recorded value.
    pub fn max_value(&self) -> Option<u64> {
        self.counts.keys().next_back().copied()
    }

    /// Portion of observations equal to `value` (0.0 for empty histogram).
    pub fn portion(&self, value: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.count(value) as f64 / self.total as f64
    }

    /// Portion of observations `<= value`.
    pub fn portion_at_or_below(&self, value: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let below: u64 = self.counts.range(..=value).map(|(_, &c)| c).sum();
        below as f64 / self.total as f64
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (v, c) in other.iter() {
            self.record_n(v, c);
        }
    }

    /// The normalised (portion) view of this histogram.
    pub fn portions(&self) -> PortionHistogram {
        let total = self.total.max(1) as f64;
        PortionHistogram {
            portions: self
                .counts
                .iter()
                .map(|(&v, &c)| (v, c as f64 / total))
                .collect(),
        }
    }

    /// The value at which the histogram peaks (mode), breaking ties toward
    /// the smaller value. The paper calls out modes at widths 48 and 56.
    pub fn mode(&self) -> Option<u64> {
        self.counts
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&v, _)| v)
    }

    /// Local maxima above `floor` portion: values whose count exceeds both
    /// neighbours' counts (used to detect the 48/56 peaks in Fig. 10/13).
    pub fn peaks(&self, floor: f64) -> Vec<u64> {
        let entries: Vec<(u64, u64)> = self.iter().collect();
        let total = self.total.max(1) as f64;
        let mut peaks = Vec::new();
        for i in 0..entries.len() {
            let (v, c) = entries[i];
            if (c as f64 / total) < floor {
                continue;
            }
            let left_ok = i == 0 || entries[i - 1].1 < c;
            let right_ok = i + 1 == entries.len() || entries[i + 1].1 < c;
            if left_ok && right_ok {
                peaks.push(v);
            }
        }
        peaks
    }
}

/// A normalised histogram: value → portion of observations.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PortionHistogram {
    portions: Vec<(u64, f64)>,
}

impl PortionHistogram {
    /// Iterator over `(value, portion)` in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.portions.iter().copied()
    }

    /// Portion for an exact value (0.0 if absent).
    pub fn portion(&self, value: u64) -> f64 {
        self.portions
            .iter()
            .find(|(v, _)| *v == value)
            .map(|(_, p)| *p)
            .unwrap_or(0.0)
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.portions.len()
    }

    /// True if no values were recorded.
    pub fn is_empty(&self) -> bool {
        self.portions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let mut h = Histogram::new();
        h.record(2);
        h.record(2);
        h.record(5);
        assert_eq!(h.total(), 3);
        assert_eq!(h.count(2), 2);
        assert_eq!(h.count(5), 1);
        assert_eq!(h.count(7), 0);
        assert_eq!(h.max_value(), Some(5));
    }

    #[test]
    fn portions_normalise() {
        let h = Histogram::from_values([1, 1, 1, 3]);
        assert!((h.portion(1) - 0.75).abs() < 1e-12);
        assert!((h.portion(3) - 0.25).abs() < 1e-12);
        let p = h.portions();
        assert!((p.portion(1) - 0.75).abs() < 1e-12);
        assert_eq!(p.portion(2), 0.0);
    }

    #[test]
    fn cumulative_portion() {
        let h = Histogram::from_values([1, 2, 2, 10]);
        assert!((h.portion_at_or_below(2) - 0.75).abs() < 1e-12);
        assert!((h.portion_at_or_below(9) - 0.75).abs() < 1e-12);
        assert_eq!(h.portion_at_or_below(10), 1.0);
        assert_eq!(h.portion_at_or_below(0), 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::from_values([1, 2]);
        let b = Histogram::from_values([2, 3]);
        a.merge(&b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.count(2), 2);
        assert_eq!(a.count(3), 1);
    }

    #[test]
    fn mode_and_peaks() {
        // Counts: 2→5, 10→2, 48→4, 52→1, 56→3, 60→1.
        let mut h = Histogram::new();
        h.record_n(2, 5);
        h.record_n(10, 2);
        h.record_n(48, 4);
        h.record_n(52, 1);
        h.record_n(56, 3);
        h.record_n(60, 1);
        assert_eq!(h.mode(), Some(2));
        let peaks = h.peaks(0.0);
        assert!(peaks.contains(&2));
        assert!(peaks.contains(&48));
        assert!(peaks.contains(&56));
        assert!(!peaks.contains(&10) || h.count(10) > h.count(48));
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.portion(3), 0.0);
        assert_eq!(h.mode(), None);
        assert!(h.portions().is_empty());
    }
}
