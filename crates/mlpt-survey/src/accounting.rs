//! Measured vs distinct diamond bookkeeping.
//!
//! "Since a diamond might show up in multiple measurements, we define each
//! encounter with a distinct diamond to be a measured diamond. Each way of
//! counting reflects a different view of what is important to consider:
//! the number of such topologies, or the likelihood of encountering one."
//! (Sec. 5). [`SurveyAccumulator`] keeps both views: every observation
//! counts once for the *measured* statistics, and the first observation
//! per [`DiamondKey`] (divergence, convergence) defines the *distinct*
//! population.

use mlpt_topo::diamond::DiamondMetrics;
use mlpt_topo::DiamondKey;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One diamond observation within one trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiamondObservation {
    /// Index of the trace (scenario) it was seen in.
    pub trace_id: usize,
    /// Its metrics as measured in that trace.
    pub metrics: DiamondMetrics,
}

/// Accumulates diamond observations into measured/distinct views.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SurveyAccumulator {
    measured: Vec<DiamondObservation>,
    distinct: BTreeMap<DiamondKey, DiamondMetrics>,
    encounter_counts: BTreeMap<DiamondKey, u64>,
}

impl SurveyAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, trace_id: usize, metrics: DiamondMetrics) {
        let key = metrics.key;
        self.distinct.entry(key).or_insert_with(|| metrics.clone());
        *self.encounter_counts.entry(key).or_insert(0) += 1;
        self.measured.push(DiamondObservation { trace_id, metrics });
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: SurveyAccumulator) {
        for obs in other.measured {
            let key = obs.metrics.key;
            self.distinct
                .entry(key)
                .or_insert_with(|| obs.metrics.clone());
            *self.encounter_counts.entry(key).or_insert(0) += 1;
            self.measured.push(obs);
        }
    }

    /// All measured observations (one per encounter).
    pub fn measured(&self) -> &[DiamondObservation] {
        &self.measured
    }

    /// Metrics of each distinct diamond (first encounter wins).
    pub fn distinct(&self) -> impl Iterator<Item = &DiamondMetrics> {
        self.distinct.values()
    }

    /// Number of measured diamonds.
    pub fn measured_count(&self) -> usize {
        self.measured.len()
    }

    /// Number of distinct diamonds.
    pub fn distinct_count(&self) -> usize {
        self.distinct.len()
    }

    /// Times each distinct diamond was encountered.
    pub fn encounters(&self, key: &DiamondKey) -> u64 {
        self.encounter_counts.get(key).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn metrics(div: u8, conv: u8, width: usize) -> DiamondMetrics {
        DiamondMetrics {
            key: DiamondKey {
                divergence: Ipv4Addr::new(10, 0, 0, div),
                convergence: Ipv4Addr::new(10, 0, 0, conv),
            },
            max_width: width,
            max_length: 2,
            min_length: 2,
            max_width_asymmetry: 0,
            meshed_hop_pairs: 0,
            total_hop_pairs: 2,
            max_probability_difference: 0.0,
        }
    }

    #[test]
    fn measured_vs_distinct() {
        let mut acc = SurveyAccumulator::new();
        acc.record(0, metrics(1, 2, 4));
        acc.record(1, metrics(1, 2, 4)); // same diamond again
        acc.record(2, metrics(3, 4, 8));
        assert_eq!(acc.measured_count(), 3);
        assert_eq!(acc.distinct_count(), 2);
        assert_eq!(
            acc.encounters(&metrics(1, 2, 4).key),
            2,
            "encounter count tracks repeats"
        );
    }

    #[test]
    fn first_encounter_defines_distinct_metrics() {
        // "there might be differences in its measured internal topology
        // from one encounter to the next" — distinct keeps the first.
        let mut acc = SurveyAccumulator::new();
        acc.record(0, metrics(1, 2, 4));
        acc.record(1, metrics(1, 2, 9));
        let widths: Vec<usize> = acc.distinct().map(|m| m.max_width).collect();
        assert_eq!(widths, vec![4]);
    }

    #[test]
    fn merge_combines() {
        let mut a = SurveyAccumulator::new();
        a.record(0, metrics(1, 2, 4));
        let mut b = SurveyAccumulator::new();
        b.record(1, metrics(1, 2, 4));
        b.record(1, metrics(7, 8, 2));
        a.merge(b);
        assert_eq!(a.measured_count(), 3);
        assert_eq!(a.distinct_count(), 2);
    }
}
