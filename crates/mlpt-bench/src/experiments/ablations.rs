//! Ablation experiments for the design choices DESIGN.md calls out.
//!
//! * `ablation-phi` — the MDA-Lite meshing-test effort φ: detection rate
//!   vs probing cost on the Fig. 1 meshed diamond (Sec. 2.3.2 leaves φ
//!   tunable; the paper finds φ = 2 vs φ = 4 indistinguishable end to
//!   end).
//! * `ablation-faults` — reply loss and ICMP rate limiting vs discovery
//!   completeness (the paper's future-work item 2).
//! * `ablation-stopping` — 95 % vs 99 % vs Veitch Table 1 stopping
//!   points: cost vs failure rate on the simplest diamond.
//! * `ablation-weighted` — uneven load balancing vs MDA-Lite asymmetry
//!   detection (future-work item 1).

use super::ExperimentResult;
use crate::render::{f3, f4, table};
use crate::Scale;
use mlpt_core::prelude::*;
use mlpt_sim::{FaultPlan, SimNetwork};
use mlpt_topo::canonical;
use serde_json::json;

fn runs_for(scale: Scale) -> usize {
    match scale {
        Scale::Small => 40,
        Scale::Medium => 200,
        Scale::Paper => 1_000,
    }
}

/// φ sweep on the meshed Fig. 1 diamond.
pub fn run_phi(scale: Scale) -> ExperimentResult {
    let runs = runs_for(scale);
    let topo = canonical::fig1_meshed();
    let mut rows = Vec::new();
    let mut payload = Vec::new();
    for phi in [2u32, 3, 4, 5] {
        let mut detected = 0usize;
        let mut probes = 0u64;
        for seed in 0..runs as u64 {
            let net = SimNetwork::new(topo.clone(), seed);
            let mut engine = SweepEngine::new(net, "192.0.2.1".parse().unwrap());
            let config = TraceConfig::new(seed).with_phi(phi);
            let trace = trace_mda_lite(&mut engine, topo.destination(), &config);
            if matches!(trace.switched, Some(SwitchReason::MeshingDetected { .. })) {
                detected += 1;
            }
            probes += trace.probes_sent;
        }
        let rate = detected as f64 / runs as f64;
        // Eq. 1 for this topology: miss = (1/2)^(4(phi-1)).
        let analytic_miss = 0.5f64.powi(4 * (phi as i32 - 1));
        rows.push(vec![
            phi.to_string(),
            f3(rate),
            f4(1.0 - analytic_miss),
            f3(probes as f64 / runs as f64),
        ]);
        payload.push(json!({"phi": phi, "detection_rate": rate,
                            "analytic_floor": 1.0 - analytic_miss,
                            "mean_probes": probes as f64 / runs as f64}));
    }
    let mut text =
        format!("Ablation: meshing-test effort phi on the Fig. 1 meshed diamond ({runs} runs)\n\n");
    text.push_str(&table(
        &[
            "phi",
            "meshing detection rate",
            "Eq.1 analytic floor",
            "mean probes",
        ],
        &rows,
    ));
    text.push_str("\n(The detection rate exceeds the Eq. 1 floor because hop-discovery\nprobes contribute degree evidence too.)\n");
    ExperimentResult {
        id: "ablation-phi",
        json: json!(payload),
        text,
    }
}

/// Loss/rate-limit sweep.
pub fn run_faults(scale: Scale) -> ExperimentResult {
    let runs = runs_for(scale) / 2;
    let topo = canonical::fig1_unmeshed();
    let truth_vertices = topo.total_vertices() as f64;
    let mut rows = Vec::new();
    let mut payload = Vec::new();

    let plans: [(&str, FaultPlan); 5] = [
        ("no faults", FaultPlan::none()),
        ("5% reply loss", FaultPlan::with_loss(0.0, 0.05)),
        ("15% reply loss", FaultPlan::with_loss(0.0, 0.15)),
        ("30% reply loss", FaultPlan::with_loss(0.0, 0.30)),
        ("rate limit 8/0.5", FaultPlan::with_rate_limit(8, 0.5)),
    ];
    for (label, plan) in plans {
        for retries in [0u8, 2] {
            let mut vertex_fraction = 0.0;
            let mut probes = 0u64;
            let mut reached = 0usize;
            for seed in 0..runs as u64 {
                let net = SimNetwork::builder(topo.clone())
                    .faults(plan)
                    .seed(seed)
                    .build();
                let mut engine =
                    SweepEngine::new(net, "192.0.2.1".parse().unwrap()).with_config(SweepConfig {
                        retries,
                        ..SweepConfig::default()
                    });
                let trace = trace_mda(&mut engine, topo.destination(), &TraceConfig::new(seed));
                vertex_fraction += trace.total_vertices() as f64 / truth_vertices;
                probes += trace.probes_sent;
                reached += usize::from(trace.reached_destination);
            }
            rows.push(vec![
                label.to_string(),
                retries.to_string(),
                f3(vertex_fraction / runs as f64),
                f3(reached as f64 / runs as f64),
                f3(probes as f64 / runs as f64),
            ]);
            payload.push(json!({"plan": label, "retries": retries,
                                "vertex_fraction": vertex_fraction / runs as f64,
                                "reach_rate": reached as f64 / runs as f64,
                                "mean_probes": probes as f64 / runs as f64}));
        }
    }
    let mut text = format!(
        "Ablation: fault injection vs MDA discovery on the unmeshed Fig. 1 diamond ({runs} runs each)\n\n"
    );
    text.push_str(&table(
        &[
            "faults",
            "retries",
            "vertex fraction",
            "reach rate",
            "mean probes",
        ],
        &rows,
    ));
    ExperimentResult {
        id: "ablation-faults",
        json: json!(payload),
        text,
    }
}

/// Stopping-points sweep on the simplest diamond.
pub fn run_stopping(scale: Scale) -> ExperimentResult {
    let runs = runs_for(scale) * 5;
    let topo = canonical::simplest_diamond();
    let tables = [
        ("MDA 95%", StoppingPoints::mda95()),
        ("MDA 99%", StoppingPoints::mda99()),
        ("Veitch Table 1", StoppingPoints::veitch_table1()),
    ];
    let mut rows = Vec::new();
    let mut payload = Vec::new();
    for (label, stopping) in tables {
        let analytic = mlpt_sim::mda_failure_probability(&topo, stopping.as_slice());
        let mut failures = 0usize;
        let mut probes = 0u64;
        for seed in 0..runs as u64 {
            let net = SimNetwork::new(topo.clone(), seed);
            let mut engine = SweepEngine::new(net, "192.0.2.1".parse().unwrap());
            let config = TraceConfig::new(seed).with_stopping(stopping.clone());
            let trace = trace_mda(&mut engine, topo.destination(), &config);
            if trace.total_vertices() < topo.total_vertices() {
                failures += 1;
            }
            probes += trace.probes_sent;
        }
        let rate = failures as f64 / runs as f64;
        rows.push(vec![
            label.to_string(),
            stopping.n(1).to_string(),
            f4(analytic),
            f4(rate),
            f3(probes as f64 / runs as f64),
        ]);
        payload.push(json!({"table": label, "n1": stopping.n(1),
                            "analytic": analytic, "empirical": rate,
                            "mean_probes": probes as f64 / runs as f64}));
    }
    let mut text =
        format!("Ablation: stopping points on the simplest diamond ({runs} runs each)\n\n");
    text.push_str(&table(
        &[
            "table",
            "n1",
            "analytic failure",
            "empirical failure",
            "mean probes",
        ],
        &rows,
    ));
    ExperimentResult {
        id: "ablation-stopping",
        json: json!(payload),
        text,
    }
}

/// Weighted (uneven) load balancing: the MDA model assumes uniformity;
/// this quantifies what uneven splits do to discovery and to MDA-Lite's
/// switch behaviour (paper future-work item 1).
pub fn run_weighted(scale: Scale) -> ExperimentResult {
    let runs = runs_for(scale);
    let topo = canonical::max_length_2();
    // Give the divergence point a skewed distribution: interface i gets
    // weight proportional to (i+1) — mild but real unevenness.
    let divergence = topo.hop(0)[0];
    let n = topo.successors(0, divergence).len();
    let weights: Vec<u32> = (1..=n as u32).collect();

    let mut rows = Vec::new();
    let mut payload = Vec::new();
    for (label, weighted) in [("uniform", false), ("weighted 1..28", true)] {
        let mut vertex_fraction = 0.0;
        let mut probes = 0u64;
        for seed in 0..runs as u64 {
            let mut builder = SimNetwork::builder(topo.clone()).seed(seed);
            if weighted {
                builder = builder.weights(0, divergence, weights.clone());
            }
            let net = builder.build();
            let mut engine = SweepEngine::new(net, "192.0.2.1".parse().unwrap());
            let trace = trace_mda_lite(&mut engine, topo.destination(), &TraceConfig::new(seed));
            vertex_fraction += trace.total_vertices() as f64 / topo.total_vertices() as f64;
            probes += trace.probes_sent;
        }
        rows.push(vec![
            label.to_string(),
            f3(vertex_fraction / runs as f64),
            f3(probes as f64 / runs as f64),
        ]);
        payload.push(json!({"mode": label,
                            "vertex_fraction": vertex_fraction / runs as f64,
                            "mean_probes": probes as f64 / runs as f64}));
    }
    let mut text = format!(
        "Ablation: uneven load balancing vs MDA-Lite on the 28-wide diamond ({runs} runs)\n\n"
    );
    text.push_str(&table(
        &["balancing", "vertex fraction", "mean probes"],
        &rows,
    ));
    text.push_str("\n(Uneven balancing starves low-weight interfaces of probes; the\nstopping rule, calibrated for uniformity, gives up earlier than it should.)\n");
    ExperimentResult {
        id: "ablation-weighted",
        json: json!(payload),
        text,
    }
}
