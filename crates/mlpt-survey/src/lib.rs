//! The paper's surveys (Sec. 5) over a synthetic Internet.
//!
//! The original surveys trace from 35 PlanetLab nodes towards 350 000
//! Internet destinations. Without Internet access, this crate substitutes
//! a **synthetic Internet**: a deterministic generator of source →
//! destination multipath scenarios whose *diamond population* is
//! calibrated to the marginal statistics the paper publishes (share of
//! load-balanced routes, length/width distributions with the 48/56-wide
//! shared core structures, width asymmetry, meshing prevalence, router
//! size distribution). The tools under test — MDA, MDA-Lite, single-flow
//! Paris traceroute, and the multilevel tracer — then run *end to end over
//! the packet-level simulator* against these scenarios, and the survey
//! pipeline re-measures every figure of Sec. 5 plus the evaluation data of
//! Sec. 2.4.2 (Fig. 4 / Table 1) and Sec. 4.2 (Fig. 5 / Table 2).
//!
//! * [`generator`] — the synthetic Internet.
//! * [`accounting`] — measured vs distinct diamond bookkeeping.
//! * [`ip_survey`] — the IP-level survey (Figs. 2, 7–11).
//! * [`evaluation`] — the five-way algorithm comparison (Fig. 4, Table 1).
//! * [`router_survey`] — the router-level survey (Figs. 5, 12–14,
//!   Tables 2–3), streamed through the sweep engine as sessionized
//!   multilevel traces.
//! * [`sweep`] — the scenario-sweep driver every many-destination sweep
//!   runs through (the surveys and the CLI's `sweep` and `alias`), and
//!   the surveys' one thread fan-out, which hands chunks of scenarios
//!   to worker threads.

pub mod accounting;
pub mod evaluation;
pub mod generator;
pub mod ip_survey;
pub mod router_survey;
pub mod sweep;

pub use accounting::{DiamondObservation, SurveyAccumulator};
pub use evaluation::{evaluate_scenarios, EvaluationConfig, EvaluationOutcome, TraceRatios};
pub use generator::{InternetConfig, SyntheticInternet, TraceScenario, SCENARIO_CAPACITY};
pub use ip_survey::{run_ip_survey, IpSurveyConfig, IpSurveyReport};
pub use router_survey::{
    disjoint_scenario_groups, run_router_survey, scenario_cost_hint, ResolutionCase,
    RouterSurveyConfig, RouterSurveyReport,
};

/// FNV-1a-64 of a value's `Debug` rendering: the golden digest the
/// survey tests pin whole reports to.
#[cfg(test)]
pub(crate) fn debug_digest(value: &impl std::fmt::Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}
