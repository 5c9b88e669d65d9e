//! Experiment `fakeroute`: the Sec. 3 statistical validation.
//!
//! "For example, on a topology with the simplest possible diamond …, we
//! were able to test that the real failure probability of the topology,
//! which is 0.03125, given the set of nk values used by the MDA for a
//! failure probability of 0.05, was respected. We ran the MDA 1000 times
//! on this topology to obtain a sample mean rate of failure, and obtained
//! 50 such samples …, giving a 0.03206 mean of failure, with a 95%
//! confidence interval of size 0.00156."
//!
//! Here the tool under validation is this workspace's own MDA, run over
//! the byte-level simulator.

use super::ExperimentResult;
use crate::render::f4;
use crate::Scale;
use mlpt_core::prelude::*;
use mlpt_sim::validate_tool;
use mlpt_topo::canonical;
use serde_json::json;

/// Runs the experiment.
pub fn run(scale: Scale) -> ExperimentResult {
    let (samples, runs) = scale.fakeroute_shape();
    let topology = canonical::simplest_diamond();
    let stopping = StoppingPoints::mda95();
    let nks = stopping.as_slice().to_vec();

    let report = validate_tool(&topology, &nks, samples, runs, 0xFA4E, 0.95, |net, seed| {
        let dst = net.topology().destination();
        let truth_vertices = net.topology().total_vertices();
        let truth_edges = net.topology().total_edges();
        let mut engine = SweepEngine::new(net, "192.0.2.1".parse().unwrap());
        let trace = trace_mda(&mut engine, dst, &TraceConfig::new(seed));
        let topo = match trace.to_topology() {
            Some(t) => t,
            None => return false,
        };
        topo.total_vertices() == truth_vertices && topo.total_edges() == truth_edges
    });

    let text = format!(
        "Fakeroute validation (Sec. 3): simplest diamond, 95% stopping points\n\n\
         analytic failure probability : {} (paper: 0.03125)\n\
         empirical mean failure rate  : {} (paper: 0.03206)\n\
         95% confidence interval size : {} (paper: 0.00156)\n\
         interval                     : [{}, {}]\n\
         samples x runs               : {} x {}\n\
         analytic value within CI     : {}\n",
        f4(report.analytic_failure),
        f4(report.interval.mean),
        f4(report.interval.size()),
        f4(report.interval.low()),
        f4(report.interval.high()),
        samples,
        runs,
        report.analytic_within_interval(),
    );

    ExperimentResult {
        id: "fakeroute",
        json: json!({
            "analytic": report.analytic_failure,
            "mean": report.interval.mean,
            "ci_size": report.interval.size(),
            "ci": [report.interval.low(), report.interval.high()],
            "samples": samples,
            "runs_per_sample": runs,
            "analytic_within_ci": report.analytic_within_interval(),
            "paper": {"analytic": 0.03125, "mean": 0.03206, "ci_size": 0.00156},
        }),
        text,
    }
}
