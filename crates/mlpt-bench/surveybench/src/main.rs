//! The repository benchmark: survey workloads timed end to end, with
//! per-layer costs from a separate traced run.
//!
//! ```text
//! surveybench --workload <ip_survey|router_survey|doubletree_sharded>
//!             --seed <n> --seconds <s> --trace <0|1>
//! surveybench --smoke
//! ```
//!
//! A run derives [`REPLICAS`] replica seeds from `--seed`; each replica
//! sweeps the workload's destinations with its own random streams. The
//! run sweeps the replicas round-robin, each at least once and until
//! `--seconds` have passed, rebuilding
//! scenarios, lanes, engines and sessions before every sweep. Every
//! sweep is checked against the simulator's ground truth and digested;
//! each replica's sweeps — bare and traced — must agree on one digest.
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`).
//!
//! `--smoke` runs every workload of `BENCHMARK.json` (read from the
//! working directory) at a quarter of its size in both modes and checks
//! that each declared metric is emitted.

mod alloc;
mod layers;
mod workloads;

use layers::{Ledger, LedgerTotals};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Iteration, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Replicas per run, each swept at least once. A few heavy routes'
/// round chains set a sweep's makespan, and one sweep draws each chain
/// once; the per-sweep counts are averaged over the replicas.
const REPLICAS: usize = 48;
/// Replicas that also get a traced reference sweep, whose ledger holds
/// the counts only the wrappers see (per-destination round trips, the
/// sharded makespan).
const TRACED_REPLICAS: usize = 8;
/// Extra traced sweeps a `--trace 1` run makes at least.
const MIN_TRACED: usize = 3;
/// Shrink factor of the `--smoke` check.
const SMOKE_SCALE: usize = 4;

const USAGE: &str = "usage: surveybench --workload <ip_survey|router_survey|doubletree_sharded> \
                     --seed <n> --seconds <s> --trace <0|1>\n       \
                     surveybench --smoke";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err("--seconds must lie in 0..=3600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The 10th percentile (nearest rank) of a per-sweep time.
fn fast_decile(values: impl Iterator<Item = u64>) -> f64 {
    percentile(&values.collect::<Vec<_>>(), 0.1)
}

/// Nearest-rank percentile of an integer sample.
fn percentile(values: &[u64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// One traced sweep with the ledger its wrappers filled.
struct Traced {
    iteration: Iteration,
    totals: LedgerTotals,
}

fn traced_sweep(workload: Workload, seed: u64, destinations: usize) -> Traced {
    let ledger = Ledger::new(destinations, workload.shards());
    let iteration = workloads::iterate(workload, seed, destinations, Some(&ledger));
    Traced {
        iteration,
        totals: ledger.totals(),
    }
}

/// A metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    context: String,
    metrics: Vec<Metric>,
}

/// Runs `args` with `destinations` destinations per sweep.
fn run(args: &Args, destinations: usize) -> Report {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let started = Instant::now();
    let seeds: Vec<u64> = (0..REPLICAS as u64)
        .map(|r| workloads::derive(args.seed, 1000 + r))
        .collect();

    // The traced reference sweeps come first in both modes: their
    // ledgers hold the clock-free counts the end-to-end metrics read
    // (per-destination round trips, the sharded makespan), and they warm
    // the caches.
    let references: Vec<Traced> = seeds[..TRACED_REPLICAS]
        .iter()
        .map(|&seed| traced_sweep(args.workload, seed, destinations))
        .collect();
    let mut bare: Vec<(usize, Iteration)> = Vec::new();
    let mut traced: Vec<(usize, Traced)> = Vec::new();
    loop {
        let replica = bare.len() % REPLICAS;
        let iteration = workloads::iterate(args.workload, seeds[replica], destinations, None);
        bare.push((replica, iteration));
        if args.trace {
            let replica = traced.len() % TRACED_REPLICAS;
            traced.push((
                replica,
                traced_sweep(args.workload, seeds[replica], destinations),
            ));
        }
        let enough = bare.len() >= REPLICAS && (!args.trace || traced.len() >= MIN_TRACED);
        if enough && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    // Every replica's first bare sweep, in replica order.
    let firsts: Vec<&Iteration> = bare[..REPLICAS].iter().map(|(_, it)| it).collect();

    // Correctness: one digest per replica across all its sweeps, bare
    // and traced (the wrappers must change nothing), the same counts
    // from every traced sweep of a replica, no broken result, and misses
    // within the workload's ceiling.
    let digests_agree = bare
        .iter()
        .map(|(r, it)| (*r, it))
        .chain(
            references
                .iter()
                .enumerate()
                .map(|(r, t)| (r, &t.iteration)),
        )
        .chain(traced.iter().map(|(r, t)| (*r, &t.iteration)))
        .all(|(r, it)| it.result.digest == firsts[r].result.digest);
    // The wrappers' clock-free counts must match the engine's own and
    // repeat exactly across a replica's traced sweeps.
    let counts_agree = references.iter().all(|t| {
        let stats = &t.iteration.result.stats;
        t.totals.probes == stats.probes_sent && t.totals.crossings == stats.dispatch_cycles
    }) && traced.iter().all(|(r, t)| {
        let reference = &references[*r].totals;
        t.totals.probes == reference.probes
            && t.totals.makespan == reference.makespan
            && t.totals.dest_rtts == reference.dest_rtts
    });
    let all_sweeps = || {
        bare.iter().map(|(_, it)| it).chain(
            references
                .iter()
                .chain(traced.iter().map(|(_, t)| t))
                .map(|t| &t.iteration),
        )
    };
    let broken = all_sweeps().map(|it| it.result.broken).max().unwrap_or(0);
    let n = destinations as f64;
    let pooled = n * REPLICAS as f64;
    let misses: usize = firsts.iter().map(|it| it.result.misses).sum();
    let miss_frac = misses as f64 / pooled;
    let max_miss_frac = args.workload.max_miss_frac();
    let correct = digests_agree && broken == 0 && miss_frac <= max_miss_frac && counts_agree;
    if !correct {
        eprintln!(
            "surveybench: check failed: digests agree {digests_agree}, broken results \
             {broken}, miss share {miss_frac:.4} (at most {max_miss_frac}), counts repeat \
             {counts_agree}"
        );
    }

    // Counts summed over the traced reference sweeps.
    let sum = |f: &dyn Fn(&Traced) -> u64| references.iter().map(f).sum::<u64>() as f64;
    let traced_pooled = n * TRACED_REPLICAS as f64;
    // Mean over the replicas' first bare sweeps.
    let per_replica = |f: &dyn Fn(&Iteration) -> u64| {
        firsts.iter().map(|it| f(it)).sum::<u64>() as f64 / REPLICAS as f64
    };
    // Median over the bare sweeps of a per-sweep count.
    let per_bare =
        |f: &dyn Fn(&Iteration) -> u64| median(bare.iter().map(|(_, it)| f(it) as f64).collect());
    // The fast decile of a per-sweep time over the bare sweeps. Load
    // from other tenants of a shared host slows whole stretches of a run,
    // up to twice over (one replica's sweep took 171 ms, then 350 ms
    // seconds later) while steal time stays near zero; the median follows
    // that load, the fast decile follows the program.
    let fast_bare = |f: &dyn Fn(&Iteration) -> u64| fast_decile(bare.iter().map(|(_, it)| f(it)));
    let bare_wall = fast_bare(&|it| it.sweep_ns);
    let context = format!(
        "surveybench workload={:?} seed={} host_cpus={host_cpus} destinations={destinations} \
         replicas={REPLICAS} bare_sweeps={} traced_sweeps={} misses={misses} broken={broken}",
        args.workload,
        args.seed,
        bare.len(),
        references.len() + traced.len(),
    );

    let metrics: Vec<Metric> = if !args.trace {
        let rtts: Vec<u64> = references
            .iter()
            .flat_map(|t| t.totals.dest_rtts.iter().copied())
            .collect();
        vec![
            ("dest_per_s", n / bare_wall * 1e9, "1/s"),
            (
                "probes_per_dest",
                per_replica(&|it| it.result.stats.probes_sent) / n,
                "count",
            ),
            // Unsharded sub-sweeps run back to back, so the makespan is
            // every crossing; parallel shards overlap, and only the
            // ledger sees each generation's busiest shard.
            (
                "makespan_rtts",
                if args.workload.shards() > 1 {
                    sum(&|t| t.totals.makespan) / TRACED_REPLICAS as f64
                } else {
                    per_replica(&|it| it.result.stats.dispatch_cycles)
                },
                "count",
            ),
            ("dest_rtts_p50", percentile(&rtts, 0.5), "count"),
            ("dest_rtts_p90", percentile(&rtts, 0.9), "count"),
            ("complete_frac", 1.0 - miss_frac, "fraction"),
            (
                "peak_heap_mb",
                per_bare(&|it| it.peak_heap_bytes as u64) / 1048576.0,
                "MB",
            ),
            ("setup_s", fast_bare(&|it| it.setup_ns()) / 1e9, "s"),
        ]
    } else {
        let traced_sweeps: Vec<&Traced> = references
            .iter()
            .chain(traced.iter().map(|(_, t)| t))
            .collect();
        // Median over the traced sweeps of a per-sweep value.
        let per_sweep =
            |f: &dyn Fn(&Traced) -> f64| median(traced_sweeps.iter().map(|t| f(t)).collect());
        let shards = args.workload.shards();
        // The engine's time is the residual of the sweep's busy time
        // (the wall clock, or with parallel shards the summed per-shard
        // busy spans) after the wrapped layers.
        let engine_ns = |t: &Traced| {
            let busy = if shards > 1 {
                t.totals.busy_ns
            } else {
                t.iteration.sweep_ns
            };
            let wrapped = t.totals.session_ns + t.totals.transport_ns + t.totals.stopset_ns;
            busy.saturating_sub(wrapped) as f64
        };
        let per_probe = |t: &Traced, value: f64| ratio(value, t.totals.probes as f64);
        let probes = sum(&|t| t.totals.probes);
        let stat =
            |f: &dyn Fn(&mlpt_core::SweepStats) -> u64| sum(&|t| f(&t.iteration.result.stats));
        let traced_wall = fast_decile(traced_sweeps.iter().map(|t| t.iteration.sweep_ns));
        vec![
            (
                "session.ns_per_probe",
                per_sweep(&|t| per_probe(t, t.totals.session_ns as f64)),
                "ns",
            ),
            (
                "session.allocs_per_probe",
                per_sweep(&|t| per_probe(t, t.iteration.allocs[1] as f64)),
                "count",
            ),
            (
                "session.rounds_per_dest",
                sum(&|t| t.totals.rounds) / traced_pooled,
                "count",
            ),
            (
                "transport.ns_per_probe",
                per_sweep(&|t| per_probe(t, t.totals.transport_ns as f64)),
                "ns",
            ),
            (
                "transport.allocs_per_probe",
                per_sweep(&|t| per_probe(t, t.iteration.allocs[2] as f64)),
                "count",
            ),
            (
                "transport.probes_per_crossing",
                ratio(probes, sum(&|t| t.totals.crossings)),
                "count",
            ),
            (
                "transport.replies_per_probe",
                ratio(sum(&|t| t.totals.replies), probes),
                "fraction",
            ),
            (
                "engine.ns_per_probe",
                per_sweep(&|t| per_probe(t, engine_ns(t))),
                "ns",
            ),
            (
                "engine.allocs_per_probe",
                per_sweep(&|t| per_probe(t, t.iteration.allocs[0] as f64)),
                "count",
            ),
            (
                "engine.ns_per_crossing",
                per_sweep(&|t| ratio(engine_ns(t), t.totals.crossings as f64)),
                "ns",
            ),
            (
                "engine.retry_frac",
                ratio(
                    probes - sum(&|t| t.totals.requested.min(t.totals.probes)),
                    probes,
                ),
                "fraction",
            ),
            (
                "engine.unmatched_reply_frac",
                ratio(
                    stat(&|s| s.malformed_replies + s.mismatched_replies),
                    sum(&|t| t.totals.replies),
                ),
                "fraction",
            ),
            (
                "stopset.elided_frac",
                ratio(
                    stat(&|s| s.probes_elided),
                    stat(&|s| s.probes_sent + s.probes_elided),
                ),
                "fraction",
            ),
            (
                "stopset.hits_per_dest",
                stat(&|s| s.stop_set_hits) / traced_pooled,
                "count",
            ),
            (
                "stopset.adopt_ns_per_dest",
                per_sweep(&|t| t.totals.stopset_ns as f64) / n,
                "ns",
            ),
            (
                "shard.generations",
                sum(&|t| t.totals.generations) / TRACED_REPLICAS as f64,
                "count",
            ),
            (
                "shard.barrier_stalls",
                stat(&|s| s.generation_barrier_stalls) / TRACED_REPLICAS as f64,
                "count",
            ),
            (
                "shard.wall_ns_per_generation",
                per_sweep(&|t| ratio(t.iteration.sweep_ns as f64, t.totals.generations as f64)),
                "ns",
            ),
            (
                "shard.busy_frac",
                per_sweep(&|t| {
                    ratio(
                        t.totals.busy_ns as f64,
                        (shards as u64 * t.iteration.sweep_ns) as f64,
                    )
                }),
                "fraction",
            ),
            (
                "setup.scenario_ns_per_dest",
                fast_bare(&|it| it.scenario_ns) / n,
                "ns",
            ),
            (
                "setup.lane_ns_per_dest",
                fast_bare(&|it| it.lane_ns) / n,
                "ns",
            ),
            (
                "trace.overhead_frac",
                traced_wall / bare_wall - 1.0,
                "fraction",
            ),
        ]
    };

    Report {
        correct,
        attempted: (destinations * bare.len()) as u64,
        failed: bare.iter().map(|(_, it)| it.result.broken as u64).sum(),
        context,
        metrics,
    }
}

fn render(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// Names listed under `section` of `BENCHMARK.json` in the working
/// directory.
fn declared(section: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let json = serde_json::parse_value(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let entries = json
        .get(section)
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("BENCHMARK.json has no `{section}` list"))?;
    entries
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(|n| n.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("a `{section}` entry has no name"))
        })
        .collect()
}

/// The reduced-size smoke check: every workload, both modes, every
/// declared metric emitted (and nothing else), every check passing.
fn smoke() -> Result<(), String> {
    for name in declared("workloads")? {
        let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let args = Args {
                workload,
                seed: 1,
                seconds: 0.0,
                trace,
            };
            let report = run(&args, workload.destinations() / SMOKE_SCALE);
            if !report.correct {
                return Err(format!("{name}: outputs failed their checks"));
            }
            let mut wanted = declared(section)?;
            let mut emitted: Vec<String> = report
                .metrics
                .iter()
                .map(|(m, _, _)| m.to_string())
                .collect();
            wanted.sort();
            emitted.sort();
            if wanted != emitted {
                return Err(format!(
                    "{name}: emits {emitted:?}, BENCHMARK.json declares {wanted:?}"
                ));
            }
            println!(
                "smoke: {name} trace={} ok ({} metrics)",
                u8::from(trace),
                emitted.len()
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() == 1 && argv[0] == "--smoke" {
        return match smoke() {
            Ok(()) => ExitCode::SUCCESS,
            Err(error) => {
                eprintln!("smoke: {error}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("error: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&args, args.workload.destinations());
    println!("{}", report.context);
    println!("{}", render(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
