//! `mlpt` — Multilevel MDA-Lite Paris Traceroute, command-line edition.
//!
//! The paper's deliverable is a command-line traceroute with multipath
//! discovery and an option for a router-level view. This binary is that
//! tool, pointed at the Fakeroute simulator (no raw sockets are available
//! in this environment; the tracing stack is transport-agnostic).
//!
//! ```text
//! mlpt trace      [--topology NAME | --scenario N] [--algo mda|lite|single] ...
//! mlpt sweep      [--topology NAME --destinations N | --stdin] ...
//! mlpt alias      N [N ...] | --stdin ...
//! mlpt multilevel [--topology NAME | --scenario N] [--rounds R] ...
//! mlpt topologies
//! ```
//!
//! Every flag is declared once, in the `FLAGS` table, with the commands
//! that accept it; `mlpt help` is rendered from that table. A flag a command
//! does not accept, or one another flag would leave without effect,
//! exits with status 2 and names itself.

use mlpt::alias::multilevel::{MultilevelOutcome, MultilevelSession};
use mlpt::alias::rounds::{ProbeMethod, RoundsConfig};
use mlpt::core::TraceReport;
use mlpt::prelude::*;
use mlpt::survey::sweep::{SweepOutput, SweepPlan};
use mlpt::survey::{disjoint_scenario_groups, scenario_cost_hint};
use mlpt::survey::{InternetConfig, SyntheticInternet, TraceScenario, SCENARIO_CAPACITY};
use mlpt::topo::{canonical, is_star};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::process::exit;

/// The address every probe is sent from (TEST-NET-1).
const SOURCE: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

/// The commands, as bits of [`Flag::commands`].
const TRACE: u8 = 1;
const SWEEP: u8 = 2;
const ALIAS: u8 = 4;
const MULTILEVEL: u8 = 8;
const TOPOLOGIES: u8 = 16;

/// Each command's name, bit and usage summary (`\n` continues it), in
/// usage order.
const COMMANDS: [(&str, u8, &str); 5] = [
    ("trace", TRACE, "multipath trace at the IP level"),
    (
        "sweep",
        SWEEP,
        "trace many destinations concurrently: their sessions stream\n\
         through one sweep engine over one shared transport",
    ),
    (
        "alias",
        ALIAS,
        "alias resolution for many synthetic-Internet scenarios at\n\
         once: one multilevel session (trace + Round 0..R) per\n\
         destination, streamed through the sweep engine in\n\
         address-disjoint sub-sweeps\n\
         N [N ...]         scenario numbers, as positional args",
    ),
    (
        "multilevel",
        MULTILEVEL,
        "MDA-Lite trace + in-trace alias resolution (router view)",
    ),
    ("topologies", TOPOLOGIES, "list canonical topologies"),
];

/// One command-line flag.
struct Flag {
    /// The flag as usage shows it: its name, then the placeholder of its
    /// value unless it is a switch.
    usage: &'static str,
    /// The commands that accept the flag.
    commands: u8,
    /// The usage text; `\n` continues it on the next line.
    help: &'static str,
    /// Checks and stores the flag's value (empty for a switch), given the
    /// flag as spelled for messages; exits with status 2 if the value is
    /// out of range.
    set: fn(&mut Options, &str, &str),
}

impl Flag {
    fn name(&self) -> &'static str {
        self.usage.split(' ').next().unwrap_or_default()
    }
}

/// Every flag of every command, in usage order.
const FLAGS: &[Flag] = &[
    Flag {
        usage: "--topology NAME",
        commands: TRACE | SWEEP | MULTILEVEL,
        help: "canonical topology (see `mlpt topologies`);\n\
               sweep also takes `shared-prefix`: lanes\n\
               sharing one near-source prefix",
        set: |o, _, v| o.topology = Some(v.to_string()),
    },
    Flag {
        usage: "--scenario N",
        commands: TRACE | MULTILEVEL,
        help: "synthetic-Internet scenario number",
        set: |o, f, v| o.scenario = Some(number(f, v, 0..SCENARIO_CAPACITY)),
    },
    Flag {
        usage: "--destinations N",
        commands: SWEEP,
        help: "concurrent destinations (default 8, at\n\
               most 200): --topology replicated in\n\
               disjoint address blocks",
        set: |o, f, v| o.destinations = number(f, v, 1..=200),
    },
    Flag {
        usage: "--stdin",
        commands: SWEEP | ALIAS,
        help: "read the destinations from stdin, one per\n\
               line (# comments ok): topology names for\n\
               sweep, scenario numbers for alias",
        set: |o, _, _| o.stdin_list = true,
    },
    Flag {
        usage: "--algo ALGO",
        commands: TRACE | SWEEP,
        help: "mda | lite (default) | single",
        set: |o, _, v| o.algo = choice("algorithm", v, &["mda", "lite", "single"]),
    },
    Flag {
        usage: "--stopping TABLE",
        commands: TRACE | SWEEP | MULTILEVEL,
        help: "95 (default) | 99 | veitch",
        set: |o, _, v| o.stopping = choice("stopping table", v, &["95", "99", "veitch"]),
    },
    Flag {
        usage: "--phi K",
        commands: TRACE | SWEEP | MULTILEVEL,
        help: "MDA-Lite meshing effort (default 2)",
        set: |o, f, v| o.phi = number(f, v, 2..),
    },
    Flag {
        usage: "--rounds R",
        commands: ALIAS | MULTILEVEL,
        help: "alias-resolution rounds (default 10)",
        set: |o, f, v| o.rounds = number(f, v, 0..),
    },
    Flag {
        usage: "--replies K",
        commands: ALIAS,
        help: "MBT replies attempted per address per\nround (default 30)",
        set: |o, f, v| o.replies = number(f, v, 0..),
    },
    Flag {
        usage: "--method M",
        commands: ALIAS,
        help: "indirect (MMLPT, default) | direct\n(MIDAR-style echo probing)",
        set: |o, _, v| o.method = choice("method", v, &["indirect", "direct"]),
    },
    Flag {
        usage: "--max-in-flight P",
        commands: SWEEP | ALIAS,
        help: "max probes in flight per dispatch\n(default 1024; --budget is an alias)",
        set: |o, f, v| o.budget = number(f, v, 1..),
    },
    Flag {
        usage: "--adaptive-budget",
        commands: SWEEP | ALIAS,
        help: "AIMD budget controller: ramps up on\n\
               clean replies, backs off on loss or\n\
               rate limiting, per-lane fair",
        set: |o, _, _| o.adaptive = true,
    },
    Flag {
        usage: "--admission MODE",
        commands: SWEEP | ALIAS,
        help: "streaming (default) | cost-aware\n\
               (heaviest predicted sessions first) |\n\
               cost-aware-windowed:K (the same, in a\n\
               K-session window); identical results",
        set: |o, _, v| o.admission = parse_admission(v),
    },
    Flag {
        usage: "--stop-set",
        commands: SWEEP | ALIAS,
        help: "share a Doubletree stop set: later\n\
               sessions start mid-path and elide the\n\
               shared near-source prefix",
        set: |o, _, _| o.stop_set = true,
    },
    Flag {
        usage: "--start-ttl T",
        commands: SWEEP | ALIAS,
        help: "fixed mid-path start TTL for --stop-set\n\
               (default: adapted to destination TTLs)",
        set: |o, f, v| o.start_ttl = Some(number(f, v, 1..)),
    },
    Flag {
        usage: "--fanout",
        commands: ALIAS,
        help: "run each destination's per-hop alias\n\
               stages as one concurrent wave phase\n\
               (a deterministic protocol variant)",
        set: |o, _, _| o.fanout = true,
    },
    Flag {
        usage: "--shards N",
        commands: SWEEP | ALIAS,
        help: "engine shards, split by destination\n\
               (default 1; results are bit-identical\n\
               for any shard count)",
        set: |o, f, v| o.shards = number(f, v, 1..),
    },
    Flag {
        usage: "--cycle-gap T",
        commands: SWEEP | ALIAS,
        help: "virtual ticks between dispatch cycles,\n\
               for rate limiters to refill (default 0)",
        set: |o, f, v| o.cycle_gap = number(f, v, 0..),
    },
    Flag {
        usage: "--loss P",
        commands: TRACE | SWEEP | MULTILEVEL,
        help: "inject reply loss probability",
        set: |o, f, v| o.loss = number(f, v, 0.0..=1.0),
    },
    Flag {
        usage: "--rate-limit N/W",
        commands: SWEEP | ALIAS,
        help: "ICMP rate limit: N replies per W ticks\nper router",
        set: |o, _, v| o.rate_limit = Some(parse_rate_limit(v)),
    },
    Flag {
        usage: "--fault-schedule NAME",
        commands: SWEEP | ALIAS,
        help: "impairments per lane over time, in place\n\
               of --loss/--rate-limit (midtrace-blackhole\n\
               | flap | congestion-ramp | rate-limit-burst\n\
               | jitter-spread); arms the stall watchdog",
        set: |o, _, v| {
            let names = FaultSchedule::preset_names();
            o.fault_schedule = Some(preset("fault schedule", v, FaultSchedule::preset, names));
        },
    },
    Flag {
        usage: "--topology-schedule NAME",
        commands: SWEEP,
        help: "route changes per lane over time\n\
               (route-flap | lb-regrow | lb-shrink |\n\
               tunnel-reveal); arms the route audit\n\
               and the stall watchdog",
        set: |o, _, v| {
            let (lookup, names) = (TopologySchedule::preset, TopologySchedule::preset_names());
            o.topology_schedule = Some(preset("topology schedule", v, lookup, names));
        },
    },
    Flag {
        usage: "--reprobe-budget N",
        commands: SWEEP,
        help: "audit probes per session for the route\n\
               audit (default 256 when armed); arms\n\
               the audit even without a schedule",
        set: |o, f, v| o.reprobe_budget = Some(number(f, v, 0..)),
    },
    Flag {
        usage: "--probe-timeout T",
        commands: SWEEP | ALIAS,
        help: "base probe deadline in virtual ticks\n\
               (default 4096, backing off on lossy\n\
               retry waves); needs a --fault-schedule\n\
               that delays replies",
        set: |o, f, v| o.probe_timeout = number(f, v, 1..),
    },
    Flag {
        usage: "--max-retries R",
        commands: TRACE | SWEEP | ALIAS | MULTILEVEL,
        help: "retry waves per round for unanswered\nprobes (default 0)",
        set: |o, f, v| o.max_retries = number(f, v, 0..),
    },
    Flag {
        usage: "--seed S",
        commands: TRACE | SWEEP | ALIAS | MULTILEVEL,
        help: "seed (default 1); a sweep's base seed",
        set: |o, f, v| o.seed = number(f, v, 0..),
    },
    Flag {
        usage: "--json",
        commands: TRACE | SWEEP | ALIAS,
        help: "emit a machine-readable report",
        set: |o, _, _| o.json = true,
    },
    Flag {
        usage: "--pcap FILE",
        commands: TRACE,
        help: "write all probe/reply packets as pcap",
        set: |o, _, v| o.pcap = Some(v.to_string()),
    },
    Flag {
        usage: "--draw",
        commands: TRACE,
        help: "append an ASCII sketch of the topology",
        set: |o, _, _| o.draw = true,
    },
];

/// Flag pairs in which the second flag leaves the first without effect.
const CANCELS: [(&str, &str); 6] = [
    ("--topology", "--scenario"),
    ("--topology", "--stdin"),
    ("--destinations", "--stdin"),
    ("--loss", "--fault-schedule"),
    ("--rate-limit", "--fault-schedule"),
    ("--draw", "--json"),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage();
        exit(2);
    };
    if matches!(command.as_str(), "-h" | "--help" | "help") {
        usage();
        return;
    }
    let Some(&(name, bit, _)) = COMMANDS.iter().find(|c| c.0 == command.as_str()) else {
        eprintln!("unknown command: {command}");
        usage();
        exit(2);
    };
    let opts = parse_options(name, bit, &args[1..]);
    match bit {
        TRACE => cmd_trace(opts),
        SWEEP => cmd_sweep(opts),
        ALIAS => cmd_alias(opts),
        MULTILEVEL => cmd_multilevel(opts),
        _ => cmd_topologies(),
    }
}

/// Prints the usage text: every command with the flags it accepts.
fn usage() {
    let indent = " ".repeat(15);
    let mut text = String::from(
        "mlpt — Multilevel MDA-Lite Paris Traceroute (over the Fakeroute simulator)\n\ncommands:",
    );
    for (name, bit, summary) in COMMANDS {
        let mut summary = summary.lines();
        text += &format!("\n  {name:<12} {}", summary.next().unwrap_or_default());
        for line in summary {
            text += &format!("\n{indent}{line}");
        }
        for flag in FLAGS.iter().filter(|flag| flag.commands & bit != 0) {
            let mut help = flag.help.lines();
            match flag.usage {
                label if label.len() < 18 => {
                    let first = help.next().unwrap_or_default();
                    text += &format!("\n{indent}{label:<18}{first}");
                }
                label => text += &format!("\n{indent}{label}"),
            }
            for line in help {
                text += &format!("\n{indent}{:18}{line}", "");
            }
        }
    }
    eprintln!("{text}");
}

/// The parsed command line: every flag's value, or its default.
#[derive(Default)]
struct Options {
    /// Names of the flags given, for the cancellation checks.
    given: Vec<&'static str>,
    /// `alias`: the scenario numbers given as positional arguments.
    targets: Vec<usize>,
    topology: Option<String>,
    scenario: Option<usize>,
    destinations: usize,
    stdin_list: bool,
    algo: String,
    stopping: String,
    phi: u32,
    rounds: u32,
    replies: u32,
    method: String,
    budget: usize,
    adaptive: bool,
    admission: Admission,
    stop_set: bool,
    start_ttl: Option<u8>,
    fanout: bool,
    shards: usize,
    cycle_gap: u64,
    loss: f64,
    rate_limit: Option<(u32, u64)>,
    fault_schedule: Option<FaultSchedule>,
    topology_schedule: Option<TopologySchedule>,
    reprobe_budget: Option<u64>,
    probe_timeout: u64,
    max_retries: u8,
    seed: u64,
    json: bool,
    pcap: Option<String>,
    draw: bool,
}

impl Options {
    /// Every flag's default.
    fn new() -> Self {
        Self {
            destinations: 8,
            algo: "lite".into(),
            stopping: "95".into(),
            phi: 2,
            rounds: 10,
            replies: 30,
            method: "indirect".into(),
            budget: 1024,
            shards: 1,
            probe_timeout: SweepConfig::default().probe_timeout,
            seed: 1,
            ..Self::default()
        }
    }
}

/// Parses the arguments of command `name` (bit `bit`), exiting with
/// status 2 and a message naming the flag on an unknown flag, a flag
/// the command does not take, a missing or bad value, or a flag another
/// flag leaves without effect (`--start-ttl` without `--stop-set`,
/// `--probe-timeout` without a `--fault-schedule` that delays replies,
/// `--phi` or `--stopping` with an `--algo` that does not read it, or a
/// pair of [`CANCELS`]).
fn parse_options(name: &str, bit: u8, args: &[String]) -> Options {
    let mut opts = Options::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let wanted = match arg.as_str() {
            "--budget" => "--max-in-flight", // the one alias
            arg => arg,
        };
        let Some(flag) = FLAGS.iter().find(|flag| flag.name() == wanted) else {
            // An all-digit argument is an alias target however large;
            // `number` reports one out of range.
            if bit != ALIAS || arg.is_empty() || !arg.bytes().all(|b| b.is_ascii_digit()) {
                eprintln!("unknown option: {arg}");
                exit(2);
            }
            opts.targets
                .push(number("alias target", arg, 0..SCENARIO_CAPACITY));
            continue;
        };
        if flag.commands & bit == 0 {
            eprintln!("mlpt {name} does not take {arg}");
            exit(2);
        }
        let value = if flag.name() == flag.usage {
            ""
        } else {
            args.next().map(String::as_str).unwrap_or_else(|| {
                eprintln!("{arg} needs a value");
                exit(2);
            })
        };
        (flag.set)(&mut opts, arg, value);
        opts.given.push(flag.name());
    }
    let given = |flag| opts.given.contains(&flag);
    for (flag, by) in CANCELS {
        if given(flag) && given(by) {
            eprintln!("{flag} has no effect with {by}");
            exit(2);
        }
    }
    if given("--start-ttl") && !given("--stop-set") {
        eprintln!("--start-ttl has no effect without --stop-set");
        exit(2);
    }
    // A deadline binds only on a reply that can arrive late.
    let delays = FaultSchedule::delays_replies;
    if given("--probe-timeout") && !opts.fault_schedule.as_ref().is_some_and(delays) {
        eprintln!("--probe-timeout has no effect unless --fault-schedule delays replies");
        exit(2);
    }
    // Only MDA-Lite reads φ; the single-flow tracer reads no stopping
    // table.
    for (flag, unread) in [
        ("--phi", opts.algo != "lite"),
        ("--stopping", opts.algo == "single"),
    ] {
        if given(flag) && unread {
            eprintln!("{flag} has no effect with --algo {}", opts.algo);
            exit(2);
        }
    }
    opts
}

/// Parses the value of numeric flag `flag`, which must lie in `range`,
/// exiting with status 2 and a message naming the flag otherwise.
fn number<T, R>(flag: &str, value: &str, range: R) -> T
where
    T: std::str::FromStr + PartialOrd,
    R: std::ops::RangeBounds<T> + std::fmt::Debug,
{
    match value.parse() {
        Ok(n) if range.contains(&n) => n,
        _ => {
            eprintln!("{flag} needs a number in {range:?}, got {value:?}");
            exit(2);
        }
    }
}

/// Returns `value` if it is one of `choices`, exiting with status 2 and
/// the list of choices otherwise.
fn choice(what: &str, value: &str, choices: &[&str]) -> String {
    if !choices.contains(&value) {
        eprintln!("unknown {what} {value} ({})", choices.join("|"));
        exit(2);
    }
    value.to_string()
}

/// Resolves a schedule preset by name, exiting with the list of known
/// presets on an unknown name.
fn preset<T>(kind: &str, name: &str, lookup: fn(&str) -> Option<T>, names: &[&str]) -> T {
    lookup(name).unwrap_or_else(|| {
        eprintln!("unknown {kind} {name} (one of: {})", names.join(" | "));
        exit(2);
    })
}

/// Parses a `--rate-limit N/W` value: N replies per W ticks, both
/// positive. Exits with status 2 otherwise.
fn parse_rate_limit(value: &str) -> (u32, u64) {
    let parsed = value
        .split_once('/')
        .and_then(|(n, w)| Some((n.parse::<u32>().ok()?, w.parse::<u64>().ok()?)));
    match parsed {
        Some((n, w)) if n > 0 && w > 0 => (n, w),
        _ => {
            eprintln!("--rate-limit needs N/W (replies per window ticks)");
            exit(2);
        }
    }
}

fn parse_admission(value: &str) -> Admission {
    match value.split_once(':') {
        None if value == "streaming" => Admission::Streaming,
        None if value == "cost-aware" => Admission::CostAware(usize::MAX),
        Some(("cost-aware-windowed", window)) => {
            Admission::CostAware(number("cost-aware-windowed", window, 1..))
        }
        _ => {
            eprintln!(
                "unknown admission mode {value} (streaming|cost-aware|cost-aware-windowed:K)"
            );
            exit(2);
        }
    }
}

fn admission_name(admission: Admission) -> String {
    match admission {
        Admission::Streaming => "streaming".into(),
        Admission::CostAware(usize::MAX) => "cost-aware".into(),
        Admission::CostAware(window) => format!("cost-aware-windowed:{window}"),
    }
}

/// Resolves a canonical topology by CLI name.
fn canonical_topology(name: &str) -> mlpt::topo::MultipathTopology {
    match name {
        "simplest" => canonical::simplest_diamond(),
        "fig1-unmeshed" => canonical::fig1_unmeshed(),
        "fig1-meshed" => canonical::fig1_meshed(),
        "max-length-2" => canonical::max_length_2(),
        "symmetric" => canonical::symmetric(),
        "asymmetric" => canonical::asymmetric(),
        "meshed" => canonical::meshed(),
        other => {
            eprintln!("unknown topology {other}; see `mlpt topologies`");
            exit(2);
        }
    }
}

/// The impairments of every simulated lane: the `--fault-schedule`, or
/// a static plan of `--loss` reply loss and `--rate-limit`.
fn lane_faults(opts: &Options) -> FaultSchedule {
    if let Some(schedule) = &opts.fault_schedule {
        return schedule.clone();
    }
    let mut plan = FaultPlan::with_loss(0.0, opts.loss);
    if let Some((replies, window)) = opts.rate_limit {
        let window_plan = FaultPlan::with_rate_limit_window(replies, window);
        plan.icmp_bucket_capacity = window_plan.icmp_bucket_capacity;
        plan.icmp_tokens_per_tick = window_plan.icmp_tokens_per_tick;
    }
    plan.into()
}

/// The trace configuration of a session seeded with `seed`.
fn trace_config(opts: &Options, seed: u64) -> TraceConfig {
    let stopping = match opts.stopping.as_str() {
        "99" => StoppingPoints::mda99(),
        "veitch" => StoppingPoints::veitch_table1(),
        _ => StoppingPoints::mda95(),
    };
    let mut config = TraceConfig::new(seed)
        .with_stopping(stopping)
        .with_phi(opts.phi);
    // A mutation schedule (or an explicit budget) arms the route audit:
    // sessions re-verify committed evidence after their stopping rule
    // fires and re-trace contradicted suffixes under the bounded budget.
    if opts.topology_schedule.is_some() || opts.reprobe_budget.is_some() {
        config = config.with_reprobe(ReprobeBudget {
            max_reprobes: opts.reprobe_budget.unwrap_or(256),
            ..ReprobeBudget::default()
        });
    }
    // Under a mutation schedule, node-control hunts against branches
    // that no longer exist can otherwise grind through the whole u16
    // flow space before the exhaustion guard stops them; a tight
    // allowance keeps the sweep fast without affecting detection.
    if opts.topology_schedule.is_some() {
        config.node_control_attempts = 500;
    }
    config
}

/// The alias-resolution protocol of `alias` and `multilevel`.
fn rounds_config(opts: &Options) -> RoundsConfig {
    RoundsConfig {
        rounds: opts.rounds,
        replies_per_round: opts.replies,
        method: match opts.method.as_str() {
            "direct" => ProbeMethod::Direct,
            _ => ProbeMethod::Indirect,
        },
        ..RoundsConfig::default()
    }
}

/// The engine's tuning; a single trace is a one-session sweep.
fn sweep_config(opts: &Options) -> SweepConfig {
    SweepConfig {
        max_in_flight: opts.budget,
        admission: opts.admission,
        adaptive: opts.adaptive.then(AdaptiveBudget::default),
        retries: opts.max_retries,
        probe_timeout: opts.probe_timeout,
        // A hostile schedule can black-hole a lane mid-trace; arm the
        // stall watchdog so that lane degrades to a partial trace
        // instead of burning its whole retry budget into the dark.
        stall_rounds: if opts.fault_schedule.is_some()
            || opts.topology_schedule.is_some()
            || opts.reprobe_budget.is_some()
        {
            8
        } else {
            0
        },
        // `--start-ttl` pins a fixed mid-path start TTL; otherwise the
        // engine adapts it from committed destination TTLs.
        stop_set: opts.stop_set.then(|| match opts.start_ttl {
            Some(start_ttl) => StopSetConfig {
                start_ttl,
                adaptive_start: false,
                ..StopSetConfig::default()
            },
            None => StopSetConfig::default(),
        }),
    }
}

/// How `sweep` and `alias` run through the scenario-sweep driver.
fn sweep_plan(opts: &Options) -> SweepPlan {
    SweepPlan {
        config: sweep_config(opts),
        shards: opts.shards,
        cycle_gap: opts.cycle_gap,
    }
}

/// A session of the `--algo` tracer towards `dest`.
fn trace_session(opts: &Options, dest: Ipv4Addr, config: TraceConfig) -> Box<dyn TraceSession> {
    match opts.algo.as_str() {
        "mda" => Box::new(MdaSession::new(dest, config)),
        "single" => Box::new(SingleFlowSession::new(
            dest,
            config,
            FlowId(opts.seed as u16),
        )),
        _ => Box::new(MdaLiteSession::new(dest, config)),
    }
}

/// Resolves the target of `trace` and `multilevel`: a canonical topology
/// or a synthetic-Internet scenario (with its ground-truth routers).
fn build_network(opts: &Options) -> (SimNetwork, Ipv4Addr, Option<RouterMap>) {
    if let Some(n) = opts.scenario {
        let scenario = SyntheticInternet::new(InternetConfig::default()).scenario(n);
        let net = scenario.build_network(opts.seed, lane_faults(opts));
        return (net, scenario.topology.destination(), Some(scenario.routers));
    }
    let topology = canonical_topology(opts.topology.as_deref().unwrap_or("fig1-unmeshed"));
    let destination = topology.destination();
    let net = SimNetwork::builder(topology)
        .faults(lane_faults(opts))
        .seed(opts.seed)
        .build();
    (net, destination, None)
}

/// The non-blank, non-comment lines of stdin, trimmed.
fn stdin_lines() -> Vec<String> {
    use std::io::BufRead;
    std::io::stdin()
        .lock()
        .lines()
        .map_while(Result::ok)
        .map(|line| line.trim().to_string())
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .collect()
}

/// Prints a report as indented JSON.
fn print_json(report: &serde_json::Value) {
    println!(
        "{}",
        // mlpt: allow(MLPT-W004, reason = "report types serialize infallibly (no maps with non-string keys, no custom Serialize)")
        serde_json::to_string_pretty(report).expect("serializable")
    );
}

/// A sweep report's `per_shard` counters: `null` with one shard.
fn per_shard_json(per_shard: &[SweepStats]) -> Option<Vec<serde_json::Value>> {
    (per_shard.len() > 1).then(|| {
        per_shard
            .iter()
            .map(|s| {
                serde_json::json!({
                    "dispatch_cycles": s.dispatch_cycles,
                    "probes_sent": s.probes_sent,
                    "probes_timed_out": s.probes_timed_out,
                    "retries_exhausted": s.retries_exhausted,
                    "budget_backoffs": s.budget_backoffs,
                    "lane_backoffs": s.lane_backoffs,
                })
            })
            .collect()
    })
}

/// A sweep report's `stats` object: the merged counters.
fn stats_json(stats: &SweepStats) -> serde_json::Value {
    serde_json::json!({
        "dispatch_cycles": stats.dispatch_cycles,
        "probes_sent": stats.probes_sent,
        "replies_delivered": stats.replies_delivered,
        "malformed_replies": stats.malformed_replies,
        "mismatched_replies": stats.mismatched_replies,
        "max_batch": stats.max_batch,
        "probes_per_dispatch": stats.probes_per_dispatch(),
        "sessions_admitted": stats.sessions_admitted,
        "sessions_completed": stats.sessions_completed,
        "sessions_deferred": stats.sessions_deferred,
        "clean_cycles": stats.clean_cycles,
        "lossy_cycles": stats.lossy_cycles,
        "budget_backoffs": stats.budget_backoffs,
        "lane_backoffs": stats.lane_backoffs,
        "final_in_flight_budget": stats.final_in_flight_budget,
        "probes_timed_out": stats.probes_timed_out,
        "retries_exhausted": stats.retries_exhausted,
        "retries_elided": stats.retries_elided,
        "sessions_partial": stats.sessions_partial,
        "max_lane_backoff_depth": stats.max_lane_backoff_depth,
        "probes_elided": stats.probes_elided,
        "stop_set_hits": stats.stop_set_hits,
        "artifacts_detected": stats.artifacts_detected,
        "route_recoveries": stats.route_recoveries,
        "reprobes_sent": stats.reprobes_sent,
        "route_changed_partials": stats.route_changed_partials,
        "stop_set_stale_hits": stats.stop_set_stale_hits,
        "stop_set_evictions": stats.stop_set_evictions,
        "generation_barrier_stalls": stats.generation_barrier_stalls,
    })
}

/// Prints the counter lines `sweep` and `alias` share: robustness, and
/// the stop set, shards and adaptive budget when they are in use.
fn print_counters<R>(output: &SweepOutput<R>, opts: &Options) {
    let stats = &output.stats;
    println!(
        "robustness: {} probes timed out, {} retries exhausted, {} partial sessions, \
         max lane backoff depth {}, {} artifacts detected, {} route recoveries, \
         {} reprobes, {} route-changed partials, {} stale stop hits",
        stats.probes_timed_out,
        stats.retries_exhausted,
        stats.sessions_partial,
        stats.max_lane_backoff_depth,
        stats.artifacts_detected,
        stats.route_recoveries,
        stats.reprobes_sent,
        stats.route_changed_partials,
        stats.stop_set_stale_hits,
    );
    if opts.stop_set {
        println!(
            "stop set: {} probes elided, {} stop-set hits, {} retries elided",
            stats.probes_elided, stats.stop_set_hits, stats.retries_elided,
        );
    }
    if output.per_shard.len() > 1 {
        let probes: Vec<String> = output
            .per_shard
            .iter()
            .map(|s| s.probes_sent.to_string())
            .collect();
        println!(
            "sharding: {} engine shards, {} generation-barrier stalls; per-shard probes {}",
            output.per_shard.len(),
            stats.generation_barrier_stalls,
            probes.join("/"),
        );
    }
    if opts.adaptive {
        println!(
            "adaptive budget: {} global backoffs, {} lane backoffs, final budget {}",
            stats.budget_backoffs, stats.lane_backoffs, stats.final_in_flight_budget,
        );
    }
}

fn cmd_topologies() {
    println!("canonical topologies (from the paper):");
    println!("  simplest       1-2-1: the Sec. 3 validation diamond");
    println!("  fig1-unmeshed  1-4-2-1, single successors (Fig. 1 left)");
    println!("  fig1-meshed    1-4-2-1, full mesh between hops 2-3 (Fig. 1 right)");
    println!("  max-length-2   divergence, 28-interface hop, convergence (Sec. 2.4.1)");
    println!("  symmetric      1-5-10-5-1, uniform and unmeshed (Sec. 2.4.1)");
    println!("  asymmetric     width asymmetry 17; forces an MDA switch (Sec. 2.4.1)");
    println!("  meshed         five multi-vertex hops, 48 wide, meshed (Sec. 2.4.1)");
    println!("  shared-prefix  sweep-only family: 20 common hops + a 4-hop private");
    println!("                 suffix per destination (Doubletree stop-set workload)");
    println!(
        "\nsynthetic scenarios: 0 to {}, e.g. `mlpt trace --scenario 7`",
        SCENARIO_CAPACITY - 1
    );
}

/// Renders a hop line in classic traceroute style.
fn render_hops(trace: &Trace, routers: Option<&RouterMap>) {
    let last = trace
        .destination_ttl()
        .unwrap_or_else(|| trace.discovery.max_observed_ttl());
    for ttl in 1..=last {
        let vertices = trace.vertices_at(ttl);
        let mut parts: Vec<String> = Vec::new();
        if vertices.is_empty() {
            parts.push("*".into());
        }
        for &v in vertices {
            if is_star(v) {
                parts.push("*".into());
                continue;
            }
            let flows = trace.discovery.flows_at(ttl, v).len();
            match routers.and_then(|r| r.router_of(v)) {
                Some(router) => parts.push(format!("{v} [R{}] ({flows} flows)", router.0)),
                None => parts.push(format!("{v} ({flows} flows)")),
            }
        }
        println!("{ttl:>3}  {}", parts.join("\n     "));
    }
}

fn cmd_trace(opts: Options) {
    let (net, destination, _truth) = build_network(&opts);
    let mut capture = mlpt::sim::CapturingTransport::new(net);
    let mut engine = SweepEngine::new(&mut capture, SOURCE).with_config(sweep_config(&opts));
    let session = trace_session(&opts, destination, trace_config(&opts, opts.seed));
    let (trace, _) = engine.run_trace(session);

    if let Some(path) = &opts.pcap {
        match capture.write_pcap(std::path::Path::new(path)) {
            Ok(()) => eprintln!("[pcap written to {path}]"),
            Err(e) => {
                eprintln!("failed to write pcap: {e}");
                exit(1);
            }
        }
    }
    if opts.json {
        print_json(&serde_json::to_value(&TraceReport::from_trace(&trace)));
        return;
    }

    println!(
        "mlpt: {} to {destination}, stopping table {}, seed {}",
        match opts.algo.as_str() {
            "mda" => "MDA",
            "single" => "single-flow Paris traceroute",
            _ => "MDA-Lite",
        },
        opts.stopping,
        opts.seed
    );
    render_hops(&trace, None);
    if opts.draw {
        if let Some(topology) = trace.to_topology() {
            println!("\n{}", mlpt::topo::render_ascii(&topology).trim_end());
        }
    }
    println!(
        "\n{} probes; destination {}; {} vertices, {} edges{}",
        trace.probes_sent,
        if trace.reached_destination {
            "reached"
        } else {
            "NOT reached"
        },
        trace.total_vertices(),
        trace.total_edges(),
        match trace.switched {
            Some(SwitchReason::MeshingDetected { ttl }) =>
                format!("; switched to full MDA (meshing at ttl {ttl})"),
            Some(SwitchReason::AsymmetryDetected { ttl }) =>
                format!("; switched to full MDA (asymmetry at ttl {ttl})"),
            None => String::new(),
        }
    );
}

/// Traces many destinations concurrently: canonical topologies replicated
/// into disjoint address blocks (one lane per destination in a shared
/// simulator), their sessions *streamed* into the sweep engine over a
/// single transport — new destinations are admitted as in-flight tokens
/// free up, so batches stay full from the first probe to the last.
fn cmd_sweep(opts: Options) {
    // The destination list: one canonical-topology name per lane, either
    // streamed in on stdin (one per line) or --topology replicated
    // --destinations times.
    let names: Vec<String> = if opts.stdin_list {
        stdin_lines()
    } else {
        let name = opts.topology.clone().unwrap_or("fig1-unmeshed".into());
        vec![name; opts.destinations]
    };
    if !(1..=200).contains(&names.len()) {
        eprintln!("the destination list needs 1 to 200 entries (address-block replication)");
        exit(2);
    }
    // One lane per destination: the topology shifted into its own /8-ish
    // block, simulated with its own seed, clock and RNG streams. The
    // `shared-prefix` family is the exception: its lanes deliberately
    // share a near-source prefix of interface addresses (the Doubletree
    // stop-set workload), so it stays untranslated.
    let topologies: Vec<mlpt::topo::MultipathTopology> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            if name == "shared-prefix" {
                canonical::shared_prefix_lane(20, 4, i)
            } else {
                canonical_topology(name).translated(0x0100_0000 * (i as u32 + 1))
            }
        })
        .collect();
    let faults = lane_faults(&opts);
    let lanes = topologies
        .iter()
        .enumerate()
        .map(|(i, topo)| {
            let mut builder = SimNetwork::builder(topo.clone())
                .seed(opts.seed.wrapping_add(i as u64))
                .faults(faults.clone());
            if let Some(schedule) = &opts.topology_schedule {
                builder = builder.topology_schedule(schedule.clone());
            }
            (SOURCE, builder.build())
        })
        .collect();

    let config = trace_config(&opts, opts.seed);
    let group = [(0..topologies.len()).collect()];
    // Sharding is pure scheduling: the traces and every protocol-level
    // counter are identical for any shard count.
    let output = sweep_plan(&opts)
        .run(lanes, &group, |engine, members, emit| {
            let sessions = members.iter().map(|&i| {
                let mut config = config.clone();
                config.seed = opts.seed.wrapping_add(i as u64);
                trace_session(&opts, topologies[i].destination(), config)
            });
            engine.run_stream_with(sessions, emit);
        })
        .unwrap_or_else(|e| {
            eprintln!("failed to assemble sweep network: {e}");
            exit(2);
        });
    let traces = &output.results;
    let stats = &output.stats;

    if opts.json {
        let destinations: Vec<serde_json::Value> = traces
            .iter()
            .map(|t| {
                serde_json::json!({
                    "destination": t.destination.to_string(),
                    "reached": t.reached_destination,
                    "probes": t.probes_sent,
                    "vertices": t.total_vertices(),
                    "edges": t.total_edges(),
                    "switched": t.switched.is_some(),
                    "partial": t.outcome.is_partial(),
                })
            })
            .collect();
        print_json(&serde_json::json!({
            "topologies": names,
            "algo": opts.algo,
            "admission": admission_name(opts.admission),
            "adaptive_budget": opts.adaptive,
            "max_in_flight": opts.budget,
            "shards": opts.shards,
            "per_shard": per_shard_json(&output.per_shard),
            "destinations": destinations,
            "stats": stats_json(stats),
        }));
        return;
    }

    println!(
        "mlpt sweep: {} destinations ({}), algo {}, base seed {}, {} admission{}",
        names.len(),
        if names.iter().all(|n| n == &names[0]) {
            names[0].clone()
        } else {
            "mixed topologies".into()
        },
        opts.algo,
        opts.seed,
        admission_name(opts.admission),
        if opts.adaptive {
            ", adaptive budget"
        } else {
            ""
        },
    );
    for trace in traces {
        println!(
            "  {}  {} probes, {} vertices, {} edges{}{}{}",
            trace.destination,
            trace.probes_sent,
            trace.total_vertices(),
            trace.total_edges(),
            if trace.reached_destination {
                ""
            } else {
                "  [destination NOT reached]"
            },
            if trace.switched.is_some() {
                "  [switched to MDA]"
            } else {
                ""
            },
            match trace.outcome {
                TraceOutcome::Complete => String::new(),
                TraceOutcome::Partial { reason } => format!("  [partial: {reason}]"),
            },
        );
    }
    println!(
        "\n{} probes over {} transport dispatches ({:.1} probes/dispatch, largest batch {}); \
         {} replies, {} lost",
        stats.probes_sent,
        stats.dispatch_cycles,
        stats.probes_per_dispatch(),
        stats.max_batch,
        stats.replies_delivered,
        stats.probes_sent - stats.replies_delivered,
    );
    println!(
        "admission: {} admitted, {} completed, {} deferred; cycles {} clean / {} lossy",
        stats.sessions_admitted,
        stats.sessions_completed,
        stats.sessions_deferred,
        stats.clean_cycles,
        stats.lossy_cycles,
    );
    print_counters(&output, &opts);
}

/// Resolves router-level aliases for many destinations concurrently:
/// one [`MultilevelSession`] per synthetic-Internet scenario, streamed
/// through the sweep engine. Scenarios whose topologies share interface
/// addresses (the generator's wide core structures) are grouped into
/// address-disjoint sub-sweeps, because echo probes route by interface.
fn cmd_alias(opts: Options) {
    let mut targets = opts.targets.clone();
    for line in opts.stdin_list.then(stdin_lines).unwrap_or_default() {
        targets.push(number("--stdin", &line, 0..SCENARIO_CAPACITY));
    }
    if targets.is_empty() {
        eprintln!("no targets: pass scenario numbers as arguments or via --stdin");
        exit(2);
    }
    if targets.iter().collect::<BTreeSet<_>>().len() != targets.len() {
        eprintln!("duplicate scenario numbers in the target list");
        exit(2);
    }

    let internet = SyntheticInternet::new(InternetConfig::default());
    let scenarios: Vec<TraceScenario> = targets.iter().map(|&id| internet.scenario(id)).collect();
    let seed_of = |i: usize| opts.seed.wrapping_add(targets[i] as u64);
    let faults = lane_faults(&opts);
    let lanes = scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| (s.source, s.build_network(seed_of(i), faults.clone())))
        .collect();
    let groups = disjoint_scenario_groups(&scenarios.iter().collect::<Vec<_>>());
    let multilevel = MultilevelConfig {
        trace: trace_config(&opts, opts.seed),
        rounds: rounds_config(&opts),
    };
    // Outcomes are bit-identical for any shard count.
    let output = sweep_plan(&opts)
        .run(lanes, &groups, |engine, members, emit| {
            let sessions = members.iter().map(|&i| {
                let mut config = multilevel.clone();
                config.trace.seed = seed_of(i);
                let hint = scenario_cost_hint(&scenarios[i], &multilevel.rounds, false);
                MultilevelSession::new(scenarios[i].topology.destination(), config)
                    .with_hop_fanout(opts.fanout)
                    .with_cost_hint(hint)
            });
            engine.run_sessions_with(sessions, |index, session, _wire| {
                emit(index, session.finish());
            });
        })
        .unwrap_or_else(|e| {
            eprintln!("failed to assemble sweep network: {e}");
            exit(2);
        });
    let outcomes: &[MultilevelOutcome] = &output.results;
    let stats = &output.stats;
    let sub_sweeps = groups.len();

    if opts.json {
        let per_scenario: Vec<serde_json::Value> = targets
            .iter()
            .zip(outcomes)
            .map(|(&id, outcome)| {
                let hops: Vec<serde_json::Value> = outcome
                    .multilevel
                    .hop_reports
                    .iter()
                    .map(|(ttl, reports)| {
                        serde_json::json!({
                            "ttl": ttl,
                            "rounds": reports.iter().map(|r| {
                                serde_json::json!({
                                    "round": r.round,
                                    "routers": r.partition.routers().count(),
                                    "aliased_addresses": r.partition.routers()
                                        .map(|s| s.len()).sum::<usize>(),
                                    "cumulative_probes": r.cumulative_probes,
                                })
                            }).collect::<Vec<_>>(),
                        })
                    })
                    .collect();
                serde_json::json!({
                    "scenario": id,
                    "destination": outcome.multilevel.trace.destination.to_string(),
                    "trace_probes": outcome.multilevel.trace.probes_sent,
                    "alias_probes": outcome.multilevel.alias_probes,
                    "router_sizes": outcome.multilevel.router_sizes(),
                    "hops": hops,
                })
            })
            .collect();
        print_json(&serde_json::json!({
            "method": opts.method,
            "rounds": opts.rounds,
            "replies_per_round": opts.replies,
            "admission": admission_name(opts.admission),
            "hop_fanout": opts.fanout,
            "sub_sweeps": sub_sweeps,
            "shards": opts.shards,
            "per_shard": per_shard_json(&output.per_shard),
            "scenarios": per_scenario,
            "stats": stats_json(stats),
        }));
        return;
    }

    println!(
        "mlpt alias: {} scenario(s), method {}, rounds 0..={} x {} replies, \
         {} admission{}{}{}",
        targets.len(),
        opts.method,
        opts.rounds,
        opts.replies,
        admission_name(opts.admission),
        if opts.adaptive {
            ", adaptive budget"
        } else {
            ""
        },
        if opts.fanout { ", hop fan-out" } else { "" },
        if sub_sweeps > 1 {
            format!(" ({sub_sweeps} address-disjoint sub-sweeps)")
        } else {
            String::new()
        },
    );
    for (&id, outcome) in targets.iter().zip(outcomes) {
        println!(
            "scenario {id} ({}): trace {} probes, alias {} probes",
            outcome.multilevel.trace.destination,
            outcome.multilevel.trace.probes_sent,
            outcome.multilevel.alias_probes,
        );
        if outcome.multilevel.hop_reports.is_empty() {
            println!("  no multi-interface hops (nothing to resolve)");
            continue;
        }
        for (ttl, reports) in &outcome.multilevel.hop_reports {
            let sizes: Vec<String> = reports
                .iter()
                .map(|r| {
                    format!(
                        "r{}:{}/{}",
                        r.round,
                        r.partition.routers().count(),
                        r.partition.routers().map(|s| s.len()).sum::<usize>(),
                    )
                })
                .collect();
            let candidates = reports
                .first()
                .map_or(0, |r| r.partition.sets().iter().map(|s| s.len()).sum());
            println!(
                "  hop {ttl} ({candidates} addrs), routers/aliased per round: {}",
                sizes.join(" ")
            );
        }
    }
    println!(
        "\nsweep: {} probes over {} dispatches ({:.1} probes/dispatch, largest batch {}); \
         {} replies",
        stats.probes_sent,
        stats.dispatch_cycles,
        stats.probes_per_dispatch(),
        stats.max_batch,
        stats.replies_delivered,
    );
    println!(
        "admission: {} admitted, {} deferred, {} completed; cycles {} clean / {} lossy",
        stats.sessions_admitted,
        stats.sessions_deferred,
        stats.sessions_completed,
        stats.clean_cycles,
        stats.lossy_cycles,
    );
    print_counters(&output, &opts);
}

fn cmd_multilevel(opts: Options) {
    let (net, destination, truth) = build_network(&opts);
    let mut engine = SweepEngine::new(net, SOURCE).with_config(sweep_config(&opts));
    let config = MultilevelConfig {
        trace: trace_config(&opts, opts.seed),
        rounds: rounds_config(&opts),
    };
    let result = trace_multilevel(&mut engine, destination, &config);

    println!(
        "mlpt: multilevel MDA-Lite to {destination}, seed {}",
        opts.seed
    );
    render_hops(&result.trace, Some(&result.router_map));
    println!("\nalias sets (routers) inferred during the trace:");
    let mut any = false;
    for (router, set) in result.router_map.alias_sets() {
        if set.len() < 2 {
            continue;
        }
        any = true;
        let members: Vec<String> = set.iter().map(|a| a.to_string()).collect();
        println!("  R{}: {}", router.0, members.join("  "));
    }
    if !any {
        println!("  (none — every interface looks like its own router)");
    }

    if let Some(truth) = truth {
        let inferred = &result.router_map;
        let mut agree = 0usize;
        let mut total = 0usize;
        let addresses: Vec<Ipv4Addr> = result.trace.all_addresses().into_iter().collect();
        for i in 0..addresses.len() {
            for j in i + 1..addresses.len() {
                total += 1;
                if inferred.are_aliases(addresses[i], addresses[j])
                    == truth.are_aliases(addresses[i], addresses[j])
                {
                    agree += 1;
                }
            }
        }
        if total > 0 {
            println!(
                "\nground truth agreement: {agree}/{total} address pairs ({:.1}%)",
                100.0 * agree as f64 / total as f64
            );
        }
    }

    if let (Some(ip), Some(router)) = (&result.ip_topology, &result.router_topology) {
        let ip_d = mlpt::topo::diamond::all_diamond_metrics(ip);
        let r_d = mlpt::topo::diamond::all_diamond_metrics(router);
        let ip_widths: Vec<usize> = ip_d.iter().map(|m| m.max_width).collect();
        let r_widths: Vec<usize> = r_d.iter().map(|m| m.max_width).collect();
        println!(
            "\ndiamonds: IP level {:?} wide → router level {:?} wide",
            ip_widths, r_widths
        );
    }
    println!(
        "\ntrace probes: {}; alias probes: {}",
        result.trace.probes_sent, result.alias_probes
    );

    // Per-hop round summary (Fig. 5 style, this trace only).
    if !result.hop_reports.is_empty() {
        let mut per_round: BTreeMap<u32, u64> = BTreeMap::new();
        for reports in result.hop_reports.values() {
            for r in reports {
                *per_round.entry(r.round).or_insert(0) += r.cumulative_probes;
            }
        }
        let rounds: Vec<String> = per_round.iter().map(|(r, p)| format!("r{r}:{p}")).collect();
        println!("alias probes by round: {}", rounds.join(" "));
    }
}
