//! Batched vs single-probe dispatch: the probe engine's before/after.
//!
//! Every pair below runs the *same* trace workload twice:
//!
//! * **batched** — the current engine: vectorized `send_batch` rounds,
//!   reusable packet/reply buffers, interned-address routing tables;
//! * **single** — the legacy path preserved in
//!   [`mlpt_bench::reference::ReferenceNetwork`]: one allocating
//!   `send_packet` per probe over per-packet `HashMap` lookups, driven
//!   one probe at a time through [`mlpt_bench::reference::PerProbe`] (a
//!   unit test asserts both paths do identical work, probe for probe).
//!
//! Besides the human-readable criterion output, results and pairwise
//! speedups are written to `BENCH_probe_engine.json` at the workspace
//! root for machine consumption.

use criterion::{black_box, Bencher, Criterion};
use mlpt_bench::reference::{PerProbe, ReferenceNetwork};
use mlpt_core::prelude::*;
use mlpt_sim::SimNetwork;
use mlpt_survey::{InternetConfig, SyntheticInternet};
use mlpt_topo::{canonical, MultipathTopology};
use mlpt_wire::probe::{build_udp_probe_into, ProbePacket};
use mlpt_wire::transport::{BatchTransport, PacketBatch, PacketTransport, ReplyBatch};
use mlpt_wire::FlowId;
use serde_json::json;
use std::io::Write;
use std::net::Ipv4Addr;

const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

fn bench_trace_batched(b: &mut Bencher, topo: &MultipathTopology) {
    // The network is built once: the benchmark isolates the probe path
    // (dispatch + routing + reply assembly), not simulator construction.
    let mut net = SimNetwork::new(topo.clone(), 7);
    let mut seed = 0u64;
    b.iter(|| {
        seed += 1;
        let mut prober = TransportProber::new(&mut net, SRC, topo.destination());
        black_box(trace_mda_lite(&mut prober, &TraceConfig::new(seed)))
    });
}

fn bench_trace_single(b: &mut Bencher, topo: &MultipathTopology) {
    let mut net = ReferenceNetwork::new(topo.clone(), 7);
    let mut seed = 0u64;
    b.iter(|| {
        seed += 1;
        let mut prober = PerProbe(TransportProber::new(&mut net, SRC, topo.destination()));
        black_box(trace_mda_lite(&mut prober, &TraceConfig::new(seed)))
    });
}

/// Raw transport throughput: the same traceroute-round workload (every
/// TTL of the topology for 128 flows), dispatched as one batch vs probe
/// by probe.
fn bench_transport(c: &mut Criterion, topo: &MultipathTopology, name: &str) {
    let dst = topo.destination();
    let mut batch = PacketBatch::new();
    for flow in 0..128u16 {
        for ttl in 1..=topo.num_hops() as u8 {
            batch.push_with(|buf| {
                build_udp_probe_into(
                    &ProbePacket {
                        source: SRC,
                        destination: dst,
                        flow: FlowId(flow),
                        ttl,
                        sequence: flow,
                    },
                    buf,
                )
            });
        }
    }

    c.bench_function(&format!("transport/batched/{name}"), |b| {
        let mut net = SimNetwork::new(topo.clone(), 7);
        let mut replies = ReplyBatch::new();
        b.iter(|| {
            net.send_batch(black_box(&batch), &mut replies);
            black_box(replies.len())
        });
    });

    c.bench_function(&format!("transport/single/{name}"), |b| {
        let mut net = ReferenceNetwork::new(topo.clone(), 7);
        b.iter(|| {
            let mut answered = 0usize;
            for packet in batch.iter() {
                if net.send_packet(black_box(packet)).is_some() {
                    answered += 1;
                }
            }
            black_box(answered)
        });
    });
}

fn main() {
    let mut c = Criterion::default().sample_size(20);

    // Fig. 1-style diamond (1-4-2-1): the paper's canonical example.
    let fig1 = canonical::fig1_unmeshed();
    c.bench_function("dispatch/batched/fig1_diamond", |b| {
        bench_trace_batched(b, &fig1)
    });
    c.bench_function("dispatch/single/fig1_diamond", |b| {
        bench_trace_single(b, &fig1)
    });

    // The 48-wide meshed diamond: survey-scale probing volume.
    let meshed = canonical::meshed();
    let mut heavy = Criterion::default().sample_size(10);
    heavy.bench_function("dispatch/batched/meshed48", |b| {
        bench_trace_batched(b, &meshed)
    });
    heavy.bench_function("dispatch/single/meshed48", |b| {
        bench_trace_single(b, &meshed)
    });

    // A synthetic-Internet scenario end to end, like a survey run.
    let internet = SyntheticInternet::new(InternetConfig::default());
    let scenario = internet.scenario(8);
    let survey_topo = scenario.topology.clone();
    heavy.bench_function("dispatch/batched/survey_scenario", |b| {
        bench_trace_batched(b, &survey_topo)
    });
    heavy.bench_function("dispatch/single/survey_scenario", |b| {
        bench_trace_single(b, &survey_topo)
    });

    // Raw transport dispatch: the probe path itself, on the fig-1
    // diamond, the survey scenario, and the 48-wide meshed diamond.
    bench_transport(&mut c, &fig1, "fig1_diamond");
    bench_transport(&mut c, &survey_topo, "survey_scenario");
    bench_transport(&mut c, &meshed, "meshed48");

    // ---- machine-readable emission ------------------------------------
    let mut all = Vec::new();
    all.extend(c.results().iter().cloned());
    all.extend(heavy.results().iter().cloned());

    let mut results: Vec<serde_json::Value> = Vec::new();
    for r in &all {
        results.push(json!({
            "id": r.id,
            "mean_ns": r.mean.as_nanos() as u64,
            "median_ns": r.median.as_nanos() as u64,
            "min_ns": r.min.as_nanos() as u64,
            "max_ns": r.max.as_nanos() as u64,
            "samples": r.samples,
            "iters_per_sample": r.iters_per_sample,
        }));
    }

    let median_of = |id: String| -> Option<f64> {
        all.iter()
            .find(|r| r.id == id)
            .map(|r| r.median.as_secs_f64())
    };
    let mut speedups = serde_json::Map::new();
    for pair in [
        "dispatch/fig1_diamond",
        "dispatch/meshed48",
        "dispatch/survey_scenario",
        "transport/fig1_diamond",
        "transport/survey_scenario",
        "transport/meshed48",
    ] {
        let (kind, name) = pair.split_once('/').expect("kind/name");
        if let (Some(batched), Some(single)) = (
            median_of(format!("{kind}/batched/{name}")),
            median_of(format!("{kind}/single/{name}")),
        ) {
            speedups.insert(pair.replace('/', "_"), json!(single / batched));
        }
    }

    let headline_diamond = median_of("transport/single/fig1_diamond".into())
        .zip(median_of("transport/batched/fig1_diamond".into()))
        .map(|(s, b)| s / b);
    let headline_survey = median_of("transport/single/survey_scenario".into())
        .zip(median_of("transport/batched/survey_scenario".into()))
        .map(|(s, b)| s / b);

    let payload = json!({
        "benchmark": "probe_engine",
        // Headline numbers: probe-dispatch throughput, batched engine vs
        // the legacy per-probe path, on the fig-1 diamond and a
        // survey-style scenario. The `dispatch/*` pairs below additionally
        // include the (shared) tracing-algorithm CPU and therefore show
        // the Amdahl-limited whole-trace effect.
        "dispatch_speedup_diamond": headline_diamond,
        "dispatch_speedup_survey": headline_survey,
        "description": "batched dispatch (vectorized send_batch + interned SimNetwork) \
                        vs the legacy per-probe path (allocating send_packet + HashMap \
                        lookups); identical probing work per pair",
        "results": results,
        "speedup_batched_over_single": serde_json::Value::Object(speedups),
    });

    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_probe_engine.json");
    let mut file = std::fs::File::create(out_path).expect("create BENCH_probe_engine.json");
    file.write_all(serde_json::to_string_pretty(&payload).unwrap().as_bytes())
        .expect("write BENCH_probe_engine.json");
    println!("[probe_engine results written to {out_path}]");
}
