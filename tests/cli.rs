//! Integration tests for the `mlpt` command-line tool.

use std::io::Write;
use std::process::{Command, Output, Stdio};

fn mlpt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mlpt"))
}

/// Runs `mlpt args` with `input` on its stdin.
fn mlpt_with_stdin(args: &[&str], input: &[u8]) -> Output {
    let mut child = mlpt()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin.write_all(input).expect("write input");
    drop(stdin);
    child.wait_with_output().expect("binary exits")
}

#[test]
fn trace_prints_hops_and_summary() {
    let out = mlpt()
        .args(["trace", "--topology", "fig1-unmeshed", "--seed", "5"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("MDA-Lite"), "{stdout}");
    assert!(stdout.contains("destination reached"), "{stdout}");
    // Four interfaces at ttl 2.
    let ttl2_block: Vec<&str> = stdout
        .lines()
        .skip_while(|l| !l.trim_start().starts_with("2 "))
        .take_while(|l| !l.trim_start().starts_with("3 "))
        .collect();
    assert_eq!(ttl2_block.len(), 4, "{stdout}");
}

#[test]
fn json_output_is_valid_report() {
    let out = mlpt()
        .args(["trace", "--topology", "simplest", "--json", "--seed", "3"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let report: mlpt::core::TraceReport =
        serde_json::from_slice(&out.stdout).expect("valid TraceReport JSON");
    assert!(report.reached_destination);
    assert_eq!(report.hops.len(), 3);
    assert_eq!(report.max_width(), 2);
}

#[test]
fn pcap_output_is_openable() {
    let path = std::env::temp_dir().join("mlpt-cli-test.pcap");
    let out = mlpt()
        .args([
            "trace",
            "--topology",
            "simplest",
            "--pcap",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let bytes = std::fs::read(&path).expect("pcap written");
    assert_eq!(&bytes[0..4], &0xA1B2_C3D4u32.to_le_bytes());
    assert!(bytes.len() > 24, "empty capture");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn multilevel_reports_alias_sets() {
    let out = mlpt()
        .args([
            "multilevel",
            "--scenario",
            "3",
            "--seed",
            "2",
            "--rounds",
            "3",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("alias sets"), "{stdout}");
    assert!(stdout.contains("ground truth agreement"), "{stdout}");
}

#[test]
fn meshed_topology_reports_switch() {
    let out = mlpt()
        .args(["trace", "--topology", "fig1-meshed", "--seed", "4"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("switched to full MDA (meshing"), "{stdout}");
}

/// Exit status 2 and a message naming `flag`.
fn assert_refused(args: &[&str], flag: &str) {
    let out = mlpt().args(args).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "mlpt {args:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains(flag), "mlpt {args:?}: {stderr}");
}

#[test]
fn unknown_arguments_rejected() {
    assert!(!mlpt()
        .args(["trace", "--bogus"])
        .output()
        .unwrap()
        .status
        .success());
    assert!(!mlpt()
        .args(["frobnicate"])
        .output()
        .unwrap()
        .status
        .success());
    assert!(!mlpt()
        .args(["trace", "--topology", "no-such"])
        .output()
        .unwrap()
        .status
        .success());

    // Each flag a command once parsed and then ignored is refused, by
    // name: a command and the flags (with a value) it does not take.
    let not_taken: [(&str, &[&str]); 5] = [
        (
            "trace",
            &[
                "--rounds 2",
                "--destinations 3",
                "--max-in-flight 8",
                "--budget 8",
                "--admission cost-aware",
                "--adaptive-budget",
                "--stop-set",
                "--start-ttl 3",
                "--cycle-gap 4",
                "--rate-limit 3/12",
                "--fault-schedule flap",
                "--topology-schedule route-flap",
                "--reprobe-budget 8",
                "--probe-timeout 64",
                "--stdin",
                "--shards 2",
            ],
        ),
        (
            "multilevel",
            &[
                "--algo mda",
                "--json",
                "--draw",
                "--pcap capture.pcap",
                "--destinations 3",
                "--max-in-flight 8",
                "--budget 8",
                "--admission cost-aware",
                "--adaptive-budget",
                "--stop-set",
                "--start-ttl 3",
                "--cycle-gap 4",
                "--rate-limit 3/12",
                "--fault-schedule flap",
                "--topology-schedule route-flap",
                "--reprobe-budget 8",
                "--probe-timeout 64",
                "--stdin",
                "--shards 2",
            ],
        ),
        (
            "sweep",
            &[
                "--scenario 3",
                "--rounds 2",
                "--draw",
                "--pcap capture.pcap",
            ],
        ),
        ("alias", &["--topology simplest", "--loss 0.1"]),
        ("topologies", &["--json"]),
    ];
    for (command, flags) in not_taken {
        for flag in flags {
            let mut args = vec![command];
            args.extend(flag.split_whitespace());
            assert_refused(&args, flag.split_whitespace().next().unwrap());
        }
    }

    // A flag another flag leaves without effect is refused, by name.
    for (args, flag) in [
        ("trace --scenario 3 --topology simplest", "--topology"),
        ("multilevel --scenario 3 --topology simplest", "--topology"),
        ("sweep --stdin --topology simplest", "--topology"),
        ("sweep --stdin --destinations 3", "--destinations"),
        ("sweep --fault-schedule flap --loss 0.1", "--loss"),
        (
            "sweep --fault-schedule flap --rate-limit 3/12",
            "--rate-limit",
        ),
        (
            "alias 3 --fault-schedule flap --rate-limit 3/12",
            "--rate-limit",
        ),
        ("sweep --start-ttl 4", "--start-ttl"),
        ("alias 3 --start-ttl 4", "--start-ttl"),
        ("trace --json --draw", "--draw"),
        ("trace --algo mda --phi 4", "--phi"),
        ("trace --algo single --phi 4", "--phi"),
        ("trace --algo single --stopping 99", "--stopping"),
        ("sweep --algo mda --phi 4", "--phi"),
        ("sweep --algo single --phi 4", "--phi"),
        ("sweep --algo single --stopping 99", "--stopping"),
        // A deadline binds only on a reply that can arrive late; `flap`
        // and static loss or rate limits only drop packets.
        ("sweep --probe-timeout 2", "--probe-timeout"),
        ("sweep --loss 0.3 --probe-timeout 2", "--probe-timeout"),
        (
            "sweep --fault-schedule flap --probe-timeout 2",
            "--probe-timeout",
        ),
        ("alias 3 --probe-timeout 2", "--probe-timeout"),
        (
            "alias 3 --rate-limit 3/12 --probe-timeout 2",
            "--probe-timeout",
        ),
        (
            "alias 3 --fault-schedule flap --probe-timeout 2",
            "--probe-timeout",
        ),
    ] {
        assert_refused(&args.split_whitespace().collect::<Vec<_>>(), flag);
    }

    // The simulator has no worker threads to size.
    assert_refused(&["sweep", "--workers", "2"], "--workers");
}

/// `mlpt help` lists, under each command, exactly the flags the command
/// accepts: a listed flag is never refused as "not taken", and every
/// other flag is.
#[test]
fn usage_lists_exactly_the_accepted_flags() {
    let out = mlpt().arg("help").output().expect("binary runs");
    assert!(out.status.success());
    let usage = String::from_utf8(out.stderr).unwrap();
    let mut listed: Vec<(String, Vec<String>)> = Vec::new();
    for line in usage.lines() {
        if let Some(command) = line.strip_prefix("  ").filter(|l| !l.starts_with(' ')) {
            let name = command.split_whitespace().next().unwrap().to_string();
            listed.push((name, Vec::new()));
        } else if let Some(flag) = line
            .strip_prefix(&" ".repeat(15))
            .filter(|l| l.starts_with("--"))
        {
            let (_, flags) = listed.last_mut().expect("a command heads its flags");
            flags.push(flag.split_whitespace().next().unwrap().to_string());
        }
    }
    let commands: Vec<&str> = listed.iter().map(|(c, _)| c.as_str()).collect();
    assert_eq!(
        commands,
        ["trace", "sweep", "alias", "multilevel", "topologies"]
    );
    let mut every: Vec<&String> = listed.iter().flat_map(|(_, flags)| flags).collect();
    every.sort();
    every.dedup();
    assert!(every.len() >= 29, "{every:?}");
    for (command, flags) in &listed {
        for flag in &every {
            // No value follows, so an accepted flag either runs the
            // command or asks for its value; neither says "not take".
            let out = mlpt()
                .args([command.as_str(), flag.as_str()])
                .output()
                .expect("binary runs");
            let stderr = String::from_utf8(out.stderr).unwrap();
            let refused = stderr.contains("does not take");
            assert_eq!(
                refused,
                !flags.contains(flag),
                "mlpt {command} {flag}: {stderr}"
            );
        }
    }
}

/// Bad numeric values exit 2 with a message naming the flag: values
/// out of range (which used to panic further in) and values that do not
/// parse (which used to fall back to the default silently).
#[test]
fn bad_numeric_values_rejected() {
    for args in [
        &["trace", "--loss", "1.5"][..],
        &["sweep", "--loss", "1.5"],
        &["trace", "--phi", "1"],
        &["multilevel", "--phi", "0"],
        &["trace", "--loss", "abc"],
        &["trace", "--loss", "-0.5"],
        &["trace", "--seed", "x"],
        &["sweep", "--destinations", "x"],
        &["alias", "3", "--seed", "x"],
        // Zero acted as one; it is out of range now.
        &["sweep", "--shards", "0"],
        &["alias", "3", "--shards", "0"],
        &["sweep", "--max-in-flight", "0"],
        &["alias", "3", "--budget", "0"],
        &["sweep", "--probe-timeout", "0"],
        &["alias", "3", "--probe-timeout", "0"],
        &["sweep", "--stop-set", "--start-ttl", "0"],
        &["alias", "3", "--stop-set", "--start-ttl", "0"],
        &["sweep", "--destinations", "201"],
        // The synthetic Internet has 393,216 scenarios.
        &["trace", "--scenario", "393216"],
        &["multilevel", "--scenario", "393216"],
    ] {
        let out = mlpt().args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "mlpt {args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let flag = args[args.len() - 2];
        assert!(stderr.contains(flag), "mlpt {args:?}: {stderr}");
    }
}

/// `alias` targets past the synthetic Internet's capacity (393,216
/// scenarios) exit 2 naming the target or `--stdin`; the last id still
/// traces.
#[test]
fn scenario_ids_past_capacity_rejected() {
    assert_refused(&["alias", "393216"], "alias target");
    // Past usize too: still a target out of range, not an unknown option.
    assert_refused(
        &["alias", "3", "99999999999999999999999"],
        "alias target needs a number in 0..393216",
    );
    assert_refused(&["alias", "3", "+5"], "unknown option: +5");
    let out = mlpt_with_stdin(&["alias", "--stdin"], b"3\n393216\n");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--stdin"), "{stderr}");

    let out = mlpt()
        .args(["trace", "--scenario", "393215"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("destination reached"), "{stdout}");
}

#[test]
fn topologies_lists_all_seven() {
    let out = mlpt().arg("topologies").output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    for name in [
        "simplest",
        "fig1-unmeshed",
        "fig1-meshed",
        "max-length-2",
        "symmetric",
        "asymmetric",
        "meshed",
    ] {
        assert!(stdout.contains(name), "missing {name}");
    }
    assert!(stdout.contains("scenarios: 0 to 393215"), "{stdout}");
}

#[test]
fn sweep_traces_all_destinations() {
    let out = mlpt()
        .args([
            "sweep",
            "--topology",
            "fig1-unmeshed",
            "--destinations",
            "5",
            "--algo",
            "mda",
            "--seed",
            "2",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    // One summary line per destination, each with its own address block.
    for block in ["  11.", "  12.", "  13.", "  14.", "  15."] {
        assert!(
            stdout.contains(block),
            "missing destination line {block}*: {stdout}"
        );
    }
    assert!(stdout.contains("probes/dispatch"), "{stdout}");
}

#[test]
fn sweep_json_reports_stats_and_destinations() {
    let out = mlpt()
        .args([
            "sweep",
            "--topology",
            "simplest",
            "--destinations",
            "3",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    let dests = report["destinations"].as_array().expect("array");
    assert_eq!(dests.len(), 3);
    for d in dests {
        assert_eq!(d["reached"], serde_json::Value::Bool(true));
    }
    assert!(report["stats"]["probes_per_dispatch"].as_f64().unwrap() > 1.0);
    assert!(report["stats"]["dispatch_cycles"].as_u64().unwrap() >= 1);
}

#[test]
fn sweep_rejects_zero_destinations() {
    assert!(!mlpt()
        .args(["sweep", "--destinations", "0"])
        .output()
        .unwrap()
        .status
        .success());
}

/// `--stdin` streams a destination list (one canonical topology per
/// line; blanks and comments skipped) into the engine.
#[test]
fn sweep_reads_destination_list_from_stdin() {
    let out = mlpt_with_stdin(
        &["sweep", "--stdin", "--json", "--max-in-flight", "16"],
        b"simplest\n# a comment\n\nfig1-meshed\nasymmetric\n",
    );
    assert!(out.status.success());
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(report["topologies"].as_array().expect("array").len(), 3);
    assert_eq!(report["admission"], "streaming");
    let dests = report["destinations"].as_array().expect("array");
    assert_eq!(dests.len(), 3);
    for d in dests {
        assert_eq!(d["reached"], serde_json::Value::Bool(true));
    }
    assert_eq!(report["stats"]["sessions_admitted"].as_u64(), Some(3));
    assert_eq!(report["stats"]["sessions_completed"].as_u64(), Some(3));
}

/// `--shards N` partitions the sweep across N engine shards; the
/// per-destination results and every protocol-level counter must be
/// bit-identical to the unsharded run — sharding is pure scheduling.
#[test]
fn sweep_sharded_output_matches_unsharded() {
    let base = [
        "sweep",
        "--topology",
        "fig1-meshed",
        "--destinations",
        "9",
        "--stop-set",
        "--seed",
        "5",
        "--json",
    ];
    let run = |extra: &[&str]| -> serde_json::Value {
        let out = mlpt()
            .args(base.iter().copied().chain(extra.iter().copied()))
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        serde_json::from_slice(&out.stdout).expect("valid JSON")
    };
    let plain = run(&[]);
    let sharded = run(&["--shards", "2"]);

    assert_eq!(plain["shards"].as_u64(), Some(1));
    assert_eq!(sharded["shards"].as_u64(), Some(2));
    assert_eq!(
        sharded["per_shard"]
            .as_array()
            .expect("per-shard array")
            .len(),
        2
    );
    // Per-destination outcomes are identical, in order.
    assert_eq!(plain["destinations"], sharded["destinations"]);
    // Protocol-level counters are shard-invariant; scheduling ones
    // (dispatch cycles, batch sizes, barrier stalls) may differ.
    for key in [
        "probes_sent",
        "replies_delivered",
        "probes_timed_out",
        "probes_elided",
        "stop_set_hits",
        "sessions_admitted",
        "sessions_completed",
        "sessions_partial",
    ] {
        assert_eq!(
            plain["stats"][key], sharded["stats"][key],
            "protocol counter {key} diverged under --shards 2"
        );
    }
    assert!(sharded["stats"]["generation_barrier_stalls"]
        .as_u64()
        .is_some());
}

/// The alias twin of `sweep_sharded_output_matches_unsharded`: with a
/// stop set, `--shards 2` reproduces the unsharded scenarios and every
/// protocol-level counter.
#[test]
fn alias_sharded_output_matches_unsharded() {
    let base = [
        "alias",
        "3",
        "5",
        "9",
        "--stop-set",
        "--rounds",
        "2",
        "--replies",
        "6",
        "--json",
    ];
    let run = |extra: &[&str]| -> serde_json::Value {
        let out = mlpt()
            .args(base.iter().copied().chain(extra.iter().copied()))
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        serde_json::from_slice(&out.stdout).expect("valid JSON")
    };
    let plain = run(&[]);
    let sharded = run(&["--shards", "2"]);

    assert_eq!(plain["shards"].as_u64(), Some(1));
    assert!(plain["per_shard"].is_null());
    assert_eq!(sharded["shards"].as_u64(), Some(2));
    assert_eq!(
        sharded["per_shard"]
            .as_array()
            .expect("per-shard array")
            .len(),
        2
    );
    assert_eq!(plain["scenarios"], sharded["scenarios"]);
    for key in [
        "probes_sent",
        "replies_delivered",
        "probes_timed_out",
        "probes_elided",
        "stop_set_hits",
        "sessions_admitted",
        "sessions_completed",
        "sessions_partial",
    ] {
        assert_eq!(
            plain["stats"][key], sharded["stats"][key],
            "protocol counter {key} diverged under --shards 2"
        );
    }
}

/// The adaptive budget demonstrably backs off on a rate-limited sweep:
/// lossy cycles are detected, the budget drops below the ceiling, and
/// the summary reports the controller's counters.
#[test]
fn sweep_adaptive_budget_backs_off_on_rate_limited_lanes() {
    let args = |adaptive: bool| {
        let mut v = vec![
            "sweep",
            "--topology",
            "fig1-meshed",
            "--destinations",
            "4",
            "--algo",
            "mda",
            "--max-in-flight",
            "64",
            "--rate-limit",
            "3/12",
            "--cycle-gap",
            "12",
            "--json",
        ];
        if adaptive {
            v.push("--adaptive-budget");
        }
        v
    };
    let run = |adaptive: bool| -> serde_json::Value {
        let out = mlpt().args(args(adaptive)).output().expect("binary runs");
        assert!(out.status.success());
        serde_json::from_slice(&out.stdout).expect("valid JSON")
    };
    let fixed = run(false);
    let adaptive = run(true);
    assert_eq!(fixed["adaptive_budget"], serde_json::Value::Bool(false));
    assert_eq!(adaptive["adaptive_budget"], serde_json::Value::Bool(true));
    assert!(adaptive["stats"]["lossy_cycles"].as_u64().unwrap() > 0);
    assert!(adaptive["stats"]["budget_backoffs"].as_u64().unwrap() > 0);
    assert!(
        adaptive["stats"]["final_in_flight_budget"]
            .as_u64()
            .unwrap()
            < 64
    );
    // Fewer probes burned into the rate limiter than the fixed budget.
    let probes = |r: &serde_json::Value| r["stats"]["probes_sent"].as_u64().unwrap();
    assert!(probes(&adaptive) <= probes(&fixed));
}

#[test]
fn sweep_unknown_admission_mode_rejected() {
    assert!(!mlpt()
        .args(["sweep", "--admission", "bogus"])
        .output()
        .unwrap()
        .status
        .success());
}

/// `--fault-schedule` puts a sweep under a chaos preset: the run still
/// terminates, dark destinations are flagged partial in both output
/// modes, the robustness counters appear, and the whole thing is
/// deterministic — two identical invocations produce identical bytes.
#[test]
fn sweep_fault_schedule_reports_partials_deterministically() {
    let args = [
        "sweep",
        "--destinations",
        "2",
        "--algo",
        "mda",
        "--fault-schedule",
        "midtrace-blackhole",
        "--max-retries",
        "1",
        "--seed",
        "3",
    ];
    let out = mlpt().args(args).output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("[partial: stalled"), "{stdout}");
    assert!(stdout.contains("robustness:"), "{stdout}");
    assert!(stdout.contains("probes timed out"), "{stdout}");

    let json_args: Vec<&str> = args.iter().copied().chain(["--json"]).collect();
    let run = || mlpt().args(&json_args).output().expect("binary runs");
    let first = run();
    assert!(first.status.success());
    assert_eq!(
        first.stdout,
        run().stdout,
        "chaos sweeps must be replayable"
    );
    let report: serde_json::Value = serde_json::from_slice(&first.stdout).expect("valid JSON");
    assert!(report["stats"]["probes_timed_out"].as_u64().unwrap() > 0);
    assert!(report["stats"]["retries_exhausted"].as_u64().unwrap() > 0);
    assert!(report["stats"]["sessions_partial"].as_u64().unwrap() >= 1);
    assert!(report["stats"]["max_lane_backoff_depth"].as_u64().unwrap() > 0);
    let dests = report["destinations"].as_array().expect("array");
    assert!(dests
        .iter()
        .any(|d| d["partial"] == serde_json::Value::Bool(true)));

    // The watchdog finishes a multilevel session as partial too.
    let alias_args = [
        "alias",
        "3",
        "--rounds",
        "2",
        "--replies",
        "6",
        "--fault-schedule",
        "midtrace-blackhole",
        "--seed",
        "3",
    ];
    let run = || mlpt().args(alias_args).output().expect("binary runs");
    let first = run();
    assert!(first.status.success(), "{first:?}");
    let stdout = String::from_utf8(first.stdout.clone()).unwrap();
    assert!(stdout.contains("1 partial sessions"), "{stdout}");
    assert_eq!(
        first.stdout,
        run().stdout,
        "chaos alias runs must be replayable"
    );

    // Unknown presets are rejected with the list of known ones.
    let bad = mlpt()
        .args(["sweep", "--fault-schedule", "nope"])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    let stderr = String::from_utf8(bad.stderr).unwrap();
    assert!(stderr.contains("midtrace-blackhole"), "{stderr}");
}

/// `--max-retries` buys extra probe waves for unanswered deadlines: on
/// a lossy sweep with a fixed seed, retries spend strictly more probes
/// than none, and timed-out probes are counted either way.
#[test]
fn sweep_max_retries_spends_probes_on_timeouts() {
    let run = |retries: &str| -> serde_json::Value {
        let out = mlpt()
            .args([
                "sweep",
                "--topology",
                "fig1-meshed",
                "--destinations",
                "3",
                "--algo",
                "mda",
                "--loss",
                "0.3",
                "--seed",
                "7",
                "--max-retries",
                retries,
                "--json",
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        serde_json::from_slice(&out.stdout).expect("valid JSON")
    };
    let plain = run("0");
    let retried = run("3");
    let probes = |r: &serde_json::Value| r["stats"]["probes_sent"].as_u64().unwrap();
    let timed_out = |r: &serde_json::Value| r["stats"]["probes_timed_out"].as_u64().unwrap();
    assert!(timed_out(&plain) > 0);
    assert!(timed_out(&retried) > 0);
    assert!(
        probes(&retried) > probes(&plain),
        "retry waves must cost probes: {} vs {}",
        probes(&retried),
        probes(&plain)
    );
    // Bad values are usage errors.
    assert!(!mlpt()
        .args(["sweep", "--max-retries", "many"])
        .output()
        .unwrap()
        .status
        .success());
}

/// `--probe-timeout` sets the base deadline in virtual ticks: under the
/// congestion-ramp schedule (whose reply latency climbs to 32 ticks) a
/// one-tick deadline writes late replies off as timeouts, while the
/// default deadline waits them out.
#[test]
fn sweep_probe_timeout_bounds_reply_latency() {
    let run = |timeout: &str| -> serde_json::Value {
        let out = mlpt()
            .args([
                "sweep",
                "--destinations",
                "2",
                "--algo",
                "mda",
                "--fault-schedule",
                "congestion-ramp",
                "--seed",
                "5",
                "--probe-timeout",
                timeout,
                "--json",
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        serde_json::from_slice(&out.stdout).expect("valid JSON")
    };
    let tight = run("1");
    let patient = run("4096");
    let timed_out = |r: &serde_json::Value| r["stats"]["probes_timed_out"].as_u64().unwrap();
    assert!(
        timed_out(&tight) > timed_out(&patient),
        "a one-tick deadline must miss more replies: {} vs {}",
        timed_out(&tight),
        timed_out(&patient)
    );
    // Bad values are usage errors.
    assert!(!mlpt()
        .args(["sweep", "--probe-timeout", "forever"])
        .output()
        .unwrap()
        .status
        .success());
}

/// `--probe-timeout` is accepted under a `--fault-schedule` that delays
/// replies; without one it is refused (`unknown_arguments_rejected`).
#[test]
fn probe_timeout_accepted_when_replies_are_delayed() {
    for args in [
        "sweep --destinations 2 --algo mda --fault-schedule jitter-spread --probe-timeout 2",
        "alias 3 --rounds 1 --replies 4 --fault-schedule jitter-spread --probe-timeout 2",
    ] {
        let out = mlpt()
            .args(args.split_whitespace())
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "mlpt {args}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// The alias sweep grows the same robustness surface: a chaos preset is
/// selectable, the text report carries the robustness line and the JSON
/// report the new counters.
#[test]
fn alias_fault_schedule_and_robustness_counters() {
    let out = mlpt()
        .args([
            "alias",
            "3",
            "--rounds",
            "2",
            "--replies",
            "6",
            "--fault-schedule",
            "flap",
            "--max-retries",
            "1",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("robustness:"), "{stdout}");
    let out = mlpt()
        .args([
            "alias",
            "3",
            "--rounds",
            "2",
            "--replies",
            "6",
            "--fault-schedule",
            "flap",
            "--max-retries",
            "1",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    for key in [
        "probes_timed_out",
        "retries_exhausted",
        "sessions_partial",
        "max_lane_backoff_depth",
    ] {
        assert!(
            report["stats"][key].as_u64().is_some(),
            "stats must carry {key}"
        );
    }
    assert!(!mlpt()
        .args(["alias", "3", "--fault-schedule", "bogus"])
        .output()
        .unwrap()
        .status
        .success());
}

/// Cost-aware admission and per-hop fan-out are selectable on the alias
/// sweep; the JSON report records both, and the per-scenario numbers
/// match a plain streaming run (cost-aware scheduling must not change
/// results; fan-out keeps the per-hop probe accounting).
#[test]
fn alias_cost_aware_fanout_selectable_and_consistent() {
    let run = |extra: &[&str]| -> serde_json::Value {
        let mut args = vec![
            "alias",
            "3",
            "5",
            "--rounds",
            "2",
            "--replies",
            "6",
            "--json",
        ];
        args.extend_from_slice(extra);
        let out = mlpt().args(&args).output().expect("binary runs");
        assert!(out.status.success());
        serde_json::from_slice(&out.stdout).expect("valid JSON")
    };
    let streaming = run(&[]);
    let cost_aware = run(&["--admission", "cost-aware"]);
    assert_eq!(streaming["admission"], "streaming");
    assert_eq!(cost_aware["admission"], "cost-aware");
    assert_eq!(cost_aware["hop_fanout"], false);
    // Pure scheduling: identical per-scenario results and wire totals.
    assert_eq!(streaming["scenarios"], cost_aware["scenarios"]);
    assert_eq!(
        streaming["stats"]["probes_sent"],
        cost_aware["stats"]["probes_sent"]
    );
    let fanned = run(&["--fanout", "--admission", "cost-aware"]);
    assert_eq!(fanned["hop_fanout"], true);
    // The fan-out is a protocol variant: same scenarios, same per-hop
    // cumulative probe spend (campaigns are reply-independent).
    for (a, b) in streaming["scenarios"]
        .as_array()
        .unwrap()
        .iter()
        .zip(fanned["scenarios"].as_array().unwrap())
    {
        assert_eq!(a["scenario"], b["scenario"]);
        assert_eq!(a["trace_probes"], b["trace_probes"]);
        assert_eq!(a["alias_probes"], b["alias_probes"]);
    }
    assert!(!mlpt()
        .args(["alias", "3", "--admission", "bogus"])
        .output()
        .unwrap()
        .status
        .success());
}

/// `mlpt alias` resolves several scenarios' routers through one streamed
/// sweep and reports per-round partition sizes plus engine counters.
#[test]
fn alias_resolves_scenarios_concurrently() {
    let out = mlpt()
        .args(["alias", "3", "5", "--rounds", "2", "--replies", "6"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("mlpt alias: 2 scenario(s)"), "{stdout}");
    assert!(stdout.contains("method indirect"), "{stdout}");
    assert!(stdout.contains("routers/aliased per round"), "{stdout}");
    assert!(stdout.contains("admission: 2 admitted"), "{stdout}");
    assert!(stdout.contains("2 completed"), "{stdout}");
}

/// The JSON report carries per-round partition sizes and the sweep's
/// admission/backoff counters; the direct method is selectable.
#[test]
fn alias_json_reports_rounds_and_counters() {
    let out = mlpt()
        .args([
            "alias",
            "3",
            "--method",
            "direct",
            "--rounds",
            "2",
            "--replies",
            "6",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(report["method"], "direct");
    assert_eq!(report["rounds"].as_u64(), Some(2));
    let scenarios = report["scenarios"].as_array().expect("array");
    assert_eq!(scenarios.len(), 1);
    let hops = scenarios[0]["hops"].as_array().expect("array");
    assert!(!hops.is_empty(), "scenario 3 carries a diamond");
    let rounds = hops[0]["rounds"].as_array().expect("array");
    assert_eq!(rounds.len(), 3, "rounds 0..=2");
    assert!(rounds.last().unwrap()["cumulative_probes"].as_u64() > Some(0));
    assert_eq!(report["stats"]["sessions_admitted"].as_u64(), Some(1));
    assert_eq!(report["stats"]["sessions_completed"].as_u64(), Some(1));
    assert!(report["stats"]["probes_per_dispatch"].as_f64() > Some(1.0));
}

/// `--stdin` reads scenario numbers (comments and blanks skipped); bad
/// input and empty target lists are rejected.
#[test]
fn alias_reads_targets_from_stdin() {
    let out = mlpt_with_stdin(
        &[
            "alias",
            "--stdin",
            "--rounds",
            "1",
            "--replies",
            "4",
            "--json",
        ],
        b"# targets\n3\n\n5\n",
    );
    assert!(out.status.success());
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(report["scenarios"].as_array().expect("array").len(), 2);

    // No targets at all: usage error.
    assert!(!mlpt().args(["alias"]).output().unwrap().status.success());
    // Duplicate targets would collide in one transport: rejected.
    assert!(!mlpt()
        .args(["alias", "3", "3"])
        .output()
        .unwrap()
        .status
        .success());
}

/// `--loss` acts on a synthetic-Internet scenario: the run differs from
/// the lossless one and replays byte for byte.
#[test]
fn scenario_runs_take_loss() {
    for (command, scenario, loss) in [("trace", "7", "0.5"), ("multilevel", "3", "0.3")] {
        let run = |extra: &[&str]| {
            let out = mlpt()
                .args([command, "--scenario", scenario])
                .args(extra)
                .output()
                .expect("binary runs");
            assert!(out.status.success(), "mlpt {command} {extra:?}");
            out.stdout
        };
        let lossy = run(&["--loss", loss]);
        assert_ne!(lossy, run(&[]), "mlpt {command} --loss must act");
        assert_eq!(lossy, run(&["--loss", loss]), "mlpt {command} must replay");
    }
}

/// `--max-retries` buys a single trace retry waves too: on a lossy
/// network it spends more probes than a run without it, and replays.
#[test]
fn single_trace_max_retries_spend_probes() {
    let run = |extra: &[&str]| -> serde_json::Value {
        let out = mlpt()
            .args([
                "trace",
                "--topology",
                "fig1-meshed",
                "--loss",
                "0.3",
                "--json",
            ])
            .args(extra)
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        serde_json::from_slice(&out.stdout).expect("valid JSON")
    };
    let probes = |r: &serde_json::Value| r["probes_sent"].as_u64().unwrap();
    let retried = run(&["--max-retries", "3"]);
    assert!(probes(&retried) > probes(&run(&[])));
    assert_eq!(retried, run(&["--max-retries", "3"]));

    let multilevel = |extra: &[&str]| {
        let out = mlpt()
            .args(["multilevel", "--scenario", "3", "--loss", "0.3"])
            .args(extra)
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        out.stdout
    };
    let retried = multilevel(&["--max-retries", "2"]);
    assert_ne!(retried, multilevel(&[]));
    assert_eq!(retried, multilevel(&["--max-retries", "2"]));
}
