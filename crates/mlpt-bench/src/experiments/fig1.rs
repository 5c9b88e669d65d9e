//! Experiment `fig1`: the worked probe-accounting example of Secs. 2.1
//! and 2.3.1.
//!
//! With Veitch et al.'s Table 1 stopping points (n₁ = 9, n₂ = 17,
//! n₄ = 33), the paper derives: MDA on the unmeshed 1-4-2-1 diamond costs
//! 11·n₁ + δ = 99 + δ probes; on the meshed variant 8·n₂ + 3·n₁ + δ′ =
//! 163 + δ′; MDA-Lite's vertex discovery costs n₄ + n₂ + 2·n₁ = 68 on
//! either. This experiment measures all six numbers over many runs.

use super::ExperimentResult;
use crate::render::{f3, table};
use crate::Scale;
use mlpt_core::prelude::*;
use mlpt_sim::SimNetwork;
use mlpt_stats::Summary;
use mlpt_topo::{canonical, MultipathTopology};
use serde_json::json;

fn mean_probes(topo: &MultipathTopology, runs: usize, lite: bool) -> (Summary, usize) {
    let mut summary = Summary::new();
    let mut switched = 0usize;
    for seed in 0..runs as u64 {
        let net = SimNetwork::new(topo.clone(), seed.wrapping_mul(31).wrapping_add(7));
        let mut engine = SweepEngine::new(net, "192.0.2.1".parse().unwrap());
        let config = TraceConfig::new(seed).with_stopping(StoppingPoints::veitch_table1());
        let trace = if lite {
            trace_mda_lite(&mut engine, topo.destination(), &config)
        } else {
            trace_mda(&mut engine, topo.destination(), &config)
        };
        if trace.switched.is_some() {
            switched += 1;
        }
        summary.record(trace.probes_sent as f64);
    }
    (summary, switched)
}

/// Runs the experiment.
pub fn run(scale: Scale) -> ExperimentResult {
    let runs = scale.fig1_runs();
    let unmeshed = canonical::fig1_unmeshed();
    let meshed = canonical::fig1_meshed();

    let (mda_unmeshed, _) = mean_probes(&unmeshed, runs, false);
    let (mda_meshed, _) = mean_probes(&meshed, runs, false);
    let (lite_unmeshed, lite_unmeshed_switched) = mean_probes(&unmeshed, runs, true);
    let (lite_meshed, lite_meshed_switched) = mean_probes(&meshed, runs, true);

    let rows = vec![
        vec![
            "MDA / unmeshed".into(),
            "11*n1 + d = 99 + d".into(),
            f3(mda_unmeshed.mean()),
            f3(mda_unmeshed.mean() - 99.0),
        ],
        vec![
            "MDA / meshed".into(),
            "8*n2 + 3*n1 + d' = 163 + d'".into(),
            f3(mda_meshed.mean()),
            f3(mda_meshed.mean() - 163.0),
        ],
        vec![
            "MDA-Lite / unmeshed".into(),
            "n4 + n2 + 2*n1 = 68 (+ edge & meshing-test overhead)".into(),
            f3(lite_unmeshed.mean()),
            f3(lite_unmeshed.mean() - 68.0),
        ],
        vec![
            "MDA-Lite / meshed".into(),
            "68 + overhead, then switch to MDA".into(),
            f3(lite_meshed.mean()),
            f3(lite_meshed.mean() - 68.0),
        ],
    ];
    let mut text = format!(
        "Fig. 1 / Sec. 2.1 probe accounting (Veitch Table 1 stopping points, {runs} runs)\n\n"
    );
    text.push_str(&table(
        &[
            "run",
            "paper formula",
            "measured mean probes",
            "measured - formula",
        ],
        &rows,
    ));
    text.push_str(&format!(
        "\nMDA-Lite switched to full MDA on {}/{} unmeshed runs and {}/{} meshed runs\n\
         (the meshed diamond must trigger the switch; Eq. 1 gives a 1/16 miss rate at phi = 2).\n",
        lite_unmeshed_switched, runs, lite_meshed_switched, runs
    ));
    text.push_str(&format!(
        "Probe savings on the unmeshed diamond: {:.1}% (paper: ~31%, 68 vs 99+d).\n",
        100.0 * (1.0 - lite_unmeshed.mean() / mda_unmeshed.mean())
    ));

    ExperimentResult {
        id: "fig1",
        json: json!({
            "runs": runs,
            "mda_unmeshed_mean": mda_unmeshed.mean(),
            "mda_meshed_mean": mda_meshed.mean(),
            "lite_unmeshed_mean": lite_unmeshed.mean(),
            "lite_meshed_mean": lite_meshed.mean(),
            "lite_meshed_switch_rate": lite_meshed_switched as f64 / runs as f64,
            "paper": {"mda_unmeshed": 99, "mda_meshed": 163, "lite_vertices": 68},
        }),
        text,
    }
}
