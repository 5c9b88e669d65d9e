//! Wall-clock timing of the sweep engine at survey scale.
//!
//! The workload is `mlpt_bench::concurrent_sweep`'s survey slice: 512
//! synthetic-Internet destinations traced with the full MDA. Timed runs:
//!
//! * the sequential full-trace loop, one `SimNetwork` per destination;
//! * the streaming engine over one shared `MultiNetwork`;
//! * the sharded engine at shard counts {1, 2, 4, host_cpus}. On a host
//!   with more than one CPU, 2 shards must beat 1 (best sample against
//!   best sample) or the bench fails; on one CPU the shard threads
//!   serialize, so the curve is recorded without the gate.
//!
//! Each run is timed over several samples after one untimed warm-up
//! run; `MLPT_BENCH_QUICK=1` (CI pull requests) takes fewer samples of
//! the same workload. Results land in `BENCH_concurrent_sweep.json` at
//! the workspace root: per run the median, quartiles and best wall-clock
//! seconds, the sample count, and the probes and transport crossings the
//! run made, with the host's CPU count. The deterministic gates on the
//! same runs (bit-identity, probes per crossing, tail utilization) are
//! tests: `crates/mlpt-bench/tests/sweep_gates.rs`.

use mlpt_bench::concurrent_sweep::{
    run_sequential, run_sharded_sweep, run_sweep, DESTINATIONS, MAX_IN_FLIGHT,
};
use mlpt_survey::{InternetConfig, SyntheticInternet};
use serde_json::{json, Value};
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

/// Runs `run` once untimed, then `samples` timed times. Returns the
/// wall-clock seconds, sorted, and the probes sent and transport
/// crossings `run` reports.
fn time(samples: usize, mut run: impl FnMut() -> (u64, u64)) -> (Vec<f64>, (u64, u64)) {
    let counts = run();
    let mut walls: Vec<f64> = (0..samples)
        .map(|_| {
            #[expect(
                clippy::disallowed_methods,
                reason = "a bench measures the host's wall clock"
            )]
            let started = Instant::now();
            black_box(run());
            started.elapsed().as_secs_f64()
        })
        .collect();
    walls.sort_by(f64::total_cmp);
    (walls, counts)
}

/// One timed run's JSON record.
fn record(id: &str, walls: &[f64], (probes, crossings): (u64, u64)) -> Value {
    // Linear interpolation between the closest ranks.
    let quantile = |q: f64| {
        let rank = q * (walls.len() - 1) as f64;
        let (lo, hi) = (walls[rank.floor() as usize], walls[rank.ceil() as usize]);
        lo + (hi - lo) * rank.fract()
    };
    println!(
        "{id:<36} median {:.3} s  q1 {:.3} s  q3 {:.3} s  ({} samples)",
        quantile(0.5),
        quantile(0.25),
        quantile(0.75),
        walls.len()
    );
    json!({
        "id": id,
        "wall_s": {
            "median": quantile(0.5),
            "q1": quantile(0.25),
            "q3": quantile(0.75),
            "best": walls[0],
            "samples": walls.len(),
        },
        "probes_sent": probes,
        "transport_crossings": crossings,
    })
}

fn main() {
    let quick = std::env::var("MLPT_BENCH_QUICK").is_ok_and(|v| !v.is_empty());
    let (samples, shard_samples) = if quick { (2, 1) } else { (5, 3) };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let internet = SyntheticInternet::new(InternetConfig::default());

    let mut runs = Vec::new();
    let (walls, counts) = time(samples, || {
        let (_, crossings, probes) = run_sequential(&internet);
        (probes, crossings)
    });
    runs.push(record("sequential_full_trace_loop", &walls, counts));
    let (walls, counts) = time(samples, || {
        let (_, stats, _) = run_sweep(&internet);
        (stats.probes_sent, stats.dispatch_cycles)
    });
    runs.push(record("streaming_engine", &walls, counts));

    let mut shard_counts = vec![1usize, 2, 4, host_cpus];
    shard_counts.sort_unstable();
    shard_counts.dedup();
    let mut best = Vec::new();
    for &shards in &shard_counts {
        let (walls, counts) = time(shard_samples, || {
            let (_, stats, _) = run_sharded_sweep(&internet, shards);
            (stats.probes_sent, stats.dispatch_cycles)
        });
        best.push(walls[0]);
        runs.push(record(&format!("sharded_engine/{shards}"), &walls, counts));
    }
    // With real parallel hardware, two shards must beat one. On a
    // single-CPU host the threads serialize, so the comparison would
    // only measure scheduler overhead: recorded, not enforced.
    let gate_armed = host_cpus > 1;
    if gate_armed {
        assert!(
            best[1] < best[0],
            "2 shards must beat 1 shard on a {host_cpus}-CPU host: {:.3}s vs {:.3}s",
            best[1],
            best[0]
        );
    }

    let payload = json!({
        "benchmark": "concurrent_sweep",
        "workload": format!(
            "{DESTINATIONS} synthetic-Internet MDA traces (the ip_survey inner loop), \
             streaming admission, in-flight budget {MAX_IN_FLIGHT} per engine"
        ),
        "quick_mode": quick,
        "host_cpus": host_cpus,
        "multicore_gate_armed": gate_armed,
        "runs": runs,
    });
    let out_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_concurrent_sweep.json"
    );
    let mut file = std::fs::File::create(out_path).expect("create BENCH_concurrent_sweep.json");
    file.write_all(serde_json::to_string_pretty(&payload).unwrap().as_bytes())
        .expect("write BENCH_concurrent_sweep.json");
    println!("[concurrent_sweep results written to {out_path}]");
}
