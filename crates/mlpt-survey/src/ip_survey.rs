//! The IP-level survey (Sec. 5.1).
//!
//! Traces every scenario with the full MDA (as the paper's survey did,
//! using libparistraceroute's MDA with default parameters), extracts
//! diamonds, and aggregates the metric distributions behind Figs. 7–11,
//! plus the Fig. 2 meshing-detection-failure analysis.
//!
//! Scenarios are traced by the **concurrent sweep engine**, through the
//! scenario-sweep driver ([`crate::sweep`]): destinations are grouped
//! into chunks of at most `CHUNK`, each chunk shares one
//! [`mlpt_sim::MultiNetwork`] whose lanes are the per-scenario
//! simulators, and one single-shard sweep engine *streams* the chunk's
//! [`MdaSession`]s over it: sessions are admitted as in-flight tokens
//! free up rather than entering a fixed table up front, so
//! cross-destination batches stay full until the chunk's destination
//! list runs dry instead of collapsing into a tail of tiny dispatches.
//! Worker threads ([`in_chunks`]) scale across *networks* (chunks), not
//! across individual traces. Because sweeps are bit-identical to
//! sequential tracing (per-lane RNG streams, tag-based reply demux,
//! admission-order independence), the survey's numbers are unchanged
//! from the thread-per-scenario implementation it replaced; a golden
//! digest of that implementation's report pins them.

use crate::accounting::SurveyAccumulator;
use crate::generator::{SyntheticInternet, TraceScenario};
use crate::sweep::{default_workers, in_chunks, SweepPlan};
use mlpt_core::prelude::*;
use mlpt_core::{MdaSession, TraceSession};
use mlpt_sim::FaultPlan;
use mlpt_stats::{EmpiricalCdf, Histogram, JointHistogram};
use mlpt_topo::diamond::{all_diamond_metrics, find_diamonds, meshing_miss_probability};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Destinations sharing one simulated network per worker chunk; the
/// chunk's sessions *stream* into the sweep engine under the in-flight
/// budget.
const CHUNK: usize = 128;
/// In-flight probe budget per sweep engine (the streaming-admission
/// headroom).
const MAX_IN_FLIGHT: usize = 256;

/// Configuration of an IP-level survey run.
#[derive(Debug, Clone)]
pub struct IpSurveyConfig {
    /// Number of scenarios (source-destination pairs) to trace.
    pub scenarios: usize,
    /// Seed for the tracing side (independent of the generator seed).
    pub trace_seed: u64,
    /// φ used when computing Fig. 2's meshing-miss probabilities.
    pub phi: u32,
}

impl Default for IpSurveyConfig {
    fn default() -> Self {
        Self {
            scenarios: 1000,
            trace_seed: 0xA11A,
            phi: 2,
        }
    }
}

/// Aggregated results of the IP-level survey.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IpSurveyReport {
    /// Scenarios traced.
    pub traces: usize,
    /// Traces that reached their destination (exploitable).
    pub exploitable: usize,
    /// Traces that crossed at least one load balancer (diamond found).
    pub load_balanced: usize,
    /// The diamond populations.
    pub diamonds: SurveyAccumulator,
    /// Fig. 2 (a): P(miss meshing | φ) per *measured* meshed hop pair.
    pub meshing_miss_measured: Vec<f64>,
    /// Fig. 2 (b): same per *distinct* meshed hop pair.
    pub meshing_miss_distinct: Vec<f64>,
}

impl IpSurveyReport {
    /// Fig. 7: width-asymmetry histograms (measured, distinct).
    pub fn asymmetry_histograms(&self) -> (Histogram, Histogram) {
        let measured = Histogram::from_values(
            self.diamonds
                .measured()
                .iter()
                .map(|o| o.metrics.max_width_asymmetry as u64),
        );
        let distinct = Histogram::from_values(
            self.diamonds
                .distinct()
                .map(|m| m.max_width_asymmetry as u64),
        );
        (measured, distinct)
    }

    /// Fig. 8: CDFs of max probability difference over asymmetric,
    /// unmeshed diamonds (measured, distinct).
    pub fn probability_difference_cdfs(&self) -> (EmpiricalCdf, EmpiricalCdf) {
        let filter = |m: &mlpt_topo::DiamondMetrics| {
            m.max_width_asymmetry > 0 && !m.is_meshed() && m.max_probability_difference > 0.0
        };
        let measured = EmpiricalCdf::from_iter(
            self.diamonds
                .measured()
                .iter()
                .filter(|o| filter(&o.metrics))
                .map(|o| o.metrics.max_probability_difference),
        );
        let distinct = EmpiricalCdf::from_iter(
            self.diamonds
                .distinct()
                .filter(|m| filter(m))
                .map(|m| m.max_probability_difference),
        );
        (measured, distinct)
    }

    /// Fig. 9: CDFs of the ratio of meshed hops over meshed diamonds.
    pub fn meshed_ratio_cdfs(&self) -> (EmpiricalCdf, EmpiricalCdf) {
        let measured = EmpiricalCdf::from_iter(
            self.diamonds
                .measured()
                .iter()
                .filter(|o| o.metrics.is_meshed())
                .map(|o| o.metrics.ratio_of_meshed_hops()),
        );
        let distinct = EmpiricalCdf::from_iter(
            self.diamonds
                .distinct()
                .filter(|m| m.is_meshed())
                .map(|m| m.ratio_of_meshed_hops()),
        );
        (measured, distinct)
    }

    /// Fig. 10: max length and max width histograms (measured, distinct).
    pub fn length_width_histograms(&self) -> (Histogram, Histogram, Histogram, Histogram) {
        let ml = Histogram::from_values(
            self.diamonds
                .measured()
                .iter()
                .map(|o| o.metrics.max_length as u64),
        );
        let dl = Histogram::from_values(self.diamonds.distinct().map(|m| m.max_length as u64));
        let mw = Histogram::from_values(
            self.diamonds
                .measured()
                .iter()
                .map(|o| o.metrics.max_width as u64),
        );
        let dw = Histogram::from_values(self.diamonds.distinct().map(|m| m.max_width as u64));
        (ml, dl, mw, dw)
    }

    /// Fig. 11: joint (max length, max width) histograms.
    pub fn joint_length_width(&self) -> (JointHistogram, JointHistogram) {
        let mut measured = JointHistogram::new();
        for o in self.diamonds.measured() {
            measured.record(o.metrics.max_length as u64, o.metrics.max_width as u64);
        }
        let mut distinct = JointHistogram::new();
        for m in self.diamonds.distinct() {
            distinct.record(m.max_length as u64, m.max_width as u64);
        }
        (measured, distinct)
    }

    /// Portion of diamonds with zero width asymmetry (the paper: 89 %).
    pub fn zero_asymmetry_share(&self) -> (f64, f64) {
        let (m, d) = self.asymmetry_histograms();
        (m.portion(0), d.portion(0))
    }
}

/// Runs the survey: MDA-traces every scenario end to end over the packet
/// simulator and aggregates diamond statistics from the *discovered*
/// topologies.
pub fn run_ip_survey(internet: &SyntheticInternet, config: &IpSurveyConfig) -> IpSurveyReport {
    struct PerTrace {
        exploitable: bool,
        load_balanced: bool,
        diamonds: Vec<mlpt_topo::DiamondMetrics>,
        meshing_miss: Vec<f64>,
    }

    let trace_seed_of =
        |id: usize| -> u64 { config.trace_seed ^ (id as u64).wrapping_mul(0x9E37_79B9) };

    /// Post-processing of one finished trace.
    fn analyse(trace: &Trace, phi: u32) -> PerTrace {
        let Some(topology) = trace.to_topology() else {
            return PerTrace {
                exploitable: false,
                load_balanced: false,
                diamonds: Vec::new(),
                meshing_miss: Vec::new(),
            };
        };
        let diamonds = all_diamond_metrics(&topology);
        // Fig. 2 inputs: per meshed hop pair inside each diamond, the
        // probability Eq. (1) assigns to missing the meshing with φ.
        let mut meshing_miss = Vec::new();
        for d in find_diamonds(&topology) {
            for i in d.divergence_hop..d.convergence_hop {
                if mlpt_topo::diamond::hop_pair_meshed(&topology, i) {
                    meshing_miss.push(meshing_miss_probability(&topology, i, phi));
                }
            }
        }
        PerTrace {
            exploitable: true,
            load_balanced: !diamonds.is_empty(),
            diamonds,
            meshing_miss,
        }
    }

    // Each chunk of destinations shares one MultiNetwork (one lane per
    // scenario); the chunk's sessions stream into the concurrent engine,
    // which admits them as in-flight tokens free up — no fixed per-batch
    // session table, so dispatch batches stay full until the chunk's
    // destination list is exhausted. Worker threads scale across chunks,
    // i.e. across networks. Per-lane determinism makes the traces
    // bit-identical to sequential tracing, and admission-order
    // independence makes the output independent of scheduling.
    let plan = SweepPlan {
        config: SweepConfig {
            max_in_flight: MAX_IN_FLIGHT,
            ..SweepConfig::default()
        },
        shards: 1,
        cycle_gap: 0,
    };
    let chunk = |ids: Range<usize>| {
        // One generator pass per scenario: the lane, destination and
        // source all come from the same materialisation.
        let scenarios: Vec<TraceScenario> = ids.map(|id| internet.scenario(id)).collect();
        let lanes = scenarios
            .iter()
            .map(|s| {
                (
                    s.source,
                    s.build_network(trace_seed_of(s.id), FaultPlan::none()),
                )
            })
            .collect();
        let group = [(0..scenarios.len()).collect()];
        plan.run(lanes, &group, |engine, members, emit| {
            let sessions = members.iter().map(|&i| {
                let trace = TraceConfig::new(trace_seed_of(scenarios[i].id));
                let destination = scenarios[i].topology.destination();
                Box::new(MdaSession::new(destination, trace)) as Box<dyn TraceSession>
            });
            // Analyse each trace as it completes.
            engine.run_stream_with(sessions, |index, trace| {
                emit(index, analyse(&trace, config.phi));
            });
        })
        .expect("synthetic-Internet destinations are scenario-unique")
        .results
    };
    let per_trace = in_chunks(config.scenarios, CHUNK, default_workers(), chunk);

    let mut report = IpSurveyReport {
        traces: config.scenarios,
        exploitable: 0,
        load_balanced: 0,
        diamonds: SurveyAccumulator::new(),
        meshing_miss_measured: Vec::new(),
        meshing_miss_distinct: Vec::new(),
    };
    for (id, t) in per_trace.into_iter().enumerate() {
        report.exploitable += usize::from(t.exploitable);
        report.load_balanced += usize::from(t.load_balanced);
        for m in t.diamonds {
            report.diamonds.record(id, m);
        }
        report.meshing_miss_measured.extend(t.meshing_miss.iter());
        // Distinct view: a pair's value is identical across repeat
        // encounters of the same structure, so the deduplication below
        // yields the distinct population's shape.
        report.meshing_miss_distinct.extend(t.meshing_miss);
    }
    // Dedup the distinct meshing population.
    report
        .meshing_miss_distinct
        .sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    report.meshing_miss_distinct.dedup();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::InternetConfig;

    fn small_survey() -> IpSurveyReport {
        let internet = SyntheticInternet::new(InternetConfig::with_seed(5));
        let config = IpSurveyConfig {
            scenarios: 120,
            trace_seed: 77,
            phi: 2,
        };
        run_ip_survey(&internet, &config)
    }

    /// The sweep engine is a pure scheduling change: the survey's report
    /// is the one the legacy thread-per-scenario loop produced, frozen as
    /// a golden digest (FNV-1a-64 of its `Debug` rendering).
    #[test]
    fn sweep_and_legacy_paths_agree() {
        let internet = SyntheticInternet::new(InternetConfig::with_seed(11));
        let config = IpSurveyConfig {
            scenarios: 40,
            trace_seed: 5,
            phi: 2,
        };
        let sweep = run_ip_survey(&internet, &config);
        assert_eq!(crate::debug_digest(&sweep), 0x7561_26a2_1d08_12fc);
    }

    #[test]
    fn survey_reports_population() {
        let report = small_survey();
        assert_eq!(report.traces, 120);
        assert!(report.exploitable >= 115, "sim traces should all complete");
        assert!(report.load_balanced > 30);
        assert!(report.diamonds.measured_count() >= report.load_balanced);
        assert!(report.diamonds.distinct_count() > 0);
    }

    #[test]
    fn asymmetry_mostly_zero() {
        let report = small_survey();
        let (m_share, d_share) = report.zero_asymmetry_share();
        assert!(m_share > 0.7, "measured zero-asymmetry share {m_share}");
        assert!(d_share > 0.7, "distinct zero-asymmetry share {d_share}");
    }

    #[test]
    fn length_two_dominates() {
        let report = small_survey();
        let (ml, _, mw, _) = report.length_width_histograms();
        let share = ml.portion(2);
        assert!(share > 0.3, "length-2 share {share}");
        assert!(mw.max_value().unwrap_or(0) >= 10);
    }

    #[test]
    fn meshing_miss_probabilities_bounded() {
        let report = small_survey();
        for &p in &report.meshing_miss_measured {
            assert!((0.0..=1.0).contains(&p));
        }
        // With φ = 2 the probability is at most 1/2 per contributing
        // vertex, so any meshed pair with one fan-out vertex gives ≤ 0.5.
        if !report.meshing_miss_measured.is_empty() {
            let below_half = report
                .meshing_miss_measured
                .iter()
                .filter(|&&p| p <= 0.5)
                .count() as f64
                / report.meshing_miss_measured.len() as f64;
            assert!(below_half > 0.5);
        }
    }
}
