//! Experiment `fig3`: MDA-Lite vs MDA discovery curves on the four
//! Sec. 2.4.1 topologies.
//!
//! 30 runs per topology per algorithm; the vertical axis is the fraction
//! of the (known) topology's vertices/edges discovered, the horizontal
//! axis the number of probes normalised to the MDA's total for that run.
//! The paper's reading: MDA-Lite discovers more, faster, and on the
//! unswitched topologies (max-length-2, symmetric) stops well short of
//! the MDA's packet total.

use super::ExperimentResult;
use crate::progress::{logged_trace, replay, sample_at};
use crate::render::{f3, table};
use crate::Scale;
use mlpt_core::prelude::*;
use mlpt_stats::Summary;
use mlpt_topo::canonical;
use serde_json::json;

const GRID: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// Runs the experiment.
pub fn run(scale: Scale) -> ExperimentResult {
    let runs = scale.fig3_runs();
    let mut text = format!("Fig. 3: discovery vs normalised packets ({runs} runs each)\n");
    let mut payload = serde_json::Map::new();

    for (name, topo) in canonical::simulation_suite() {
        // Per grid point, across runs: vertex/edge fractions per algorithm.
        let mut curves: Vec<[Summary; 4]> = (0..GRID.len())
            .map(|_| {
                [
                    Summary::new(),
                    Summary::new(),
                    Summary::new(),
                    Summary::new(),
                ]
            })
            .collect();
        let mut lite_packet_ratio = Summary::new();

        for seed in 0..runs as u64 {
            // MDA run defines the normalisation.
            let config = TraceConfig::new(seed);
            let (mda_trace, mda_log) = logged_trace(
                &topo,
                seed,
                MdaSession::new(topo.destination(), config.clone()),
            );
            let mda_total = mda_trace.probes_sent;
            let mda_curve = replay(&mda_log, &topo);

            let (lite_trace, lite_log) =
                logged_trace(&topo, seed, MdaLiteSession::new(topo.destination(), config));
            let lite_curve = replay(&lite_log, &topo);
            lite_packet_ratio.record(lite_trace.probes_sent as f64 / mda_total as f64);

            for (gi, &x) in GRID.iter().enumerate() {
                let (mv, me) = sample_at(&mda_curve, &topo, mda_total, x);
                let (lv, le) = sample_at(&lite_curve, &topo, mda_total, x);
                curves[gi][0].record(mv);
                curves[gi][1].record(me);
                curves[gi][2].record(lv);
                curves[gi][3].record(le);
            }
        }

        let rows: Vec<Vec<String>> = GRID
            .iter()
            .enumerate()
            .map(|(gi, &x)| {
                vec![
                    f3(x),
                    f3(curves[gi][0].mean()),
                    f3(curves[gi][2].mean()),
                    f3(curves[gi][1].mean()),
                    f3(curves[gi][3].mean()),
                ]
            })
            .collect();
        text.push_str(&format!(
            "\n--- {name} diamond ---  (MDA-Lite packets / MDA packets: mean {})\n",
            f3(lite_packet_ratio.mean())
        ));
        text.push_str(&table(
            &[
                "packet fraction",
                "MDA vertices",
                "Lite vertices",
                "MDA edges",
                "Lite edges",
            ],
            &rows,
        ));

        payload.insert(
            name.to_string(),
            json!({
                "grid": GRID,
                "mda_vertices": curves.iter().map(|c| c[0].mean()).collect::<Vec<_>>(),
                "lite_vertices": curves.iter().map(|c| c[2].mean()).collect::<Vec<_>>(),
                "mda_edges": curves.iter().map(|c| c[1].mean()).collect::<Vec<_>>(),
                "lite_edges": curves.iter().map(|c| c[3].mean()).collect::<Vec<_>>(),
                "lite_packet_ratio": lite_packet_ratio.mean(),
            }),
        );
    }

    ExperimentResult {
        id: "fig3",
        json: serde_json::Value::Object(payload),
        text,
    }
}
