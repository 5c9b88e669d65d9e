//! Golden digests of the `mlpt` commands, end to end through the
//! binary.
//!
//! `mlpt trace` and `mlpt multilevel` run one session per invocation;
//! `mlpt sweep` and `mlpt alias` run many destinations through one
//! sweep. Their observable output — stdout, stderr, exit code and, with
//! `--pcap`, the capture's bytes — is pinned here as FNV-1a-64 digests.
//! The single-trace grid covers all three tracers, the stopping tables,
//! `--phi`, reply loss, synthetic-Internet scenarios, `--json`, `--draw`
//! and the multilevel pipeline; the sweep grid covers the tracers,
//! shards, admission modes, the stop set, the adaptive budget, fault
//! and topology schedules, retries, probe deadlines, alias methods, hop
//! fan-out and address-disjoint sub-sweeps. A digest
//! mismatch means a trace, its probe accounting or its packet sequence
//! changed, not only its rendering.

use std::process::Command;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of one invocation's exit code, stdout and stderr.
fn run_digest(args: &[&str]) -> u64 {
    let out = Command::new(env!("CARGO_BIN_EXE_mlpt"))
        .args(args)
        .output()
        .expect("binary runs");
    let mut bytes = format!("{:?}\n", out.status.code()).into_bytes();
    bytes.extend_from_slice(&out.stdout);
    bytes.push(b'\n');
    bytes.extend_from_slice(&out.stderr);
    fnv1a(&bytes)
}

/// `mlpt` arguments and the digest of their output, one invocation a
/// line.
const GOLDENS: &str = "\
trace --topology fig1-unmeshed --algo lite --seed 3                        c969530d0be471b6
trace --topology fig1-meshed --algo mda --seed 5                           f7ce0840a03748d3
trace --topology simplest --algo single --seed 2                           69d0b40f496cc0f4
trace --topology meshed --algo lite --seed 1                               33a968c525efbbe9
trace --topology asymmetric --algo lite --seed 4                           ea8e690586d9ef89
trace --topology symmetric --algo mda --stopping 99 --seed 2               abf8d0dcf0b3f5bd
trace --topology fig1-unmeshed --algo mda --stopping veitch                00509b2c3990e82c
trace --topology meshed --algo lite --phi 4 --seed 2                       a891f6687c4718ca
trace --topology fig1-unmeshed --loss 0.1 --seed 3                         9ba00d16b1b8716b
trace --topology fig1-meshed --algo mda --loss 0.2 --seed 5                2074c10aa2b0c145
trace --topology symmetric --algo lite --loss 0.3 --seed 7                 b3019f3c399b8cdf
trace --topology max-length-2 --algo single --loss 0.3                     0a56f8aabe23b436
trace --scenario 7                                                         1682215128e108bf
trace --scenario 12 --algo mda --seed 2                                    f95be10e27ecb294
trace --scenario 38 --algo lite --seed 3                                   f8e3fab358021e8b
trace --scenario 7 --algo single --seed 4                                  2bb14b1ff19be7b7
trace --topology meshed --algo mda --json                                  7eeeee973a72d5fc
trace --topology fig1-meshed --loss 0.1 --json --seed 2                    e097a5738cd5be52
trace --topology fig1-unmeshed --draw                                      a9a192cb74be299a
trace --topology symmetric --algo mda --draw --seed 6                      230bdf6c423f120e
trace --topology simplest --algo mda --stopping 99 --json --seed 9        d9b61832f9ef3f06
trace --topology max-length-2 --algo mda --seed 3                          74c9113b8ba9d1a6
multilevel --scenario 3 --rounds 5 --seed 2                                f7afe5a5b3cc56aa
multilevel --scenario 17 --rounds 5                                        8a8ab747ffd1d78c
multilevel --topology fig1-meshed --rounds 5 --loss 0.1 --seed 3           77bd37b6963d1020
multilevel --scenario 3 --seed 4                                           7c62966d8345d42a";

/// The sweep commands' invocations and digests, in the same layout.
const SWEEP_GOLDENS: &str = "\
sweep --topology fig1-meshed --destinations 6 --algo mda --seed 4                         f7e8e027fc1f1955
sweep --topology simplest --destinations 3 --algo single --seed 2                         ac5f34dcb677c919
sweep --destinations 3 --seed 2                                                           053b2f80a3287125
sweep --topology shared-prefix --destinations 12 --stop-set --shards 2 --seed 3           a3f292751b1c28d9
sweep --topology shared-prefix --destinations 8 --stop-set --start-ttl 12 --algo single   acfb472cbe67723b
sweep --topology meshed --destinations 3 --budget 64                                      f0a532d227bbeb6b
sweep --topology symmetric --destinations 5 --admission cost-aware --json                 a80ec7251f606b13
sweep --topology fig1-meshed --destinations 9 --stop-set --shards 2 --seed 5 --json       adf0021d983761a9
sweep --topology fig1-meshed --destinations 4 --adaptive-budget --rate-limit 3/12 --cycle-gap 12 --max-in-flight 64 a14c3c6901b149ab
sweep --destinations 2 --algo mda --fault-schedule midtrace-blackhole --max-retries 1 --seed 3 c241b6a9fd1f52b4
sweep --destinations 4 --algo mda --topology-schedule route-flap --max-retries 1 --seed 3 e17a68b4d7d64d19
sweep --topology fig1-meshed --destinations 3 --algo mda --loss 0.3 --max-retries 2 --seed 7 9b3249e5db86923a
sweep --destinations 3 --algo mda --fault-schedule jitter-spread --max-retries 2 --probe-timeout 2 --seed 3 66cc979468225919
sweep --topology asymmetric --destinations 2 --reprobe-budget 32 --admission cost-aware-windowed:1 --seed 6 480aff851d1ea5e2
alias 3 5 --rounds 2 --replies 6                                                          6c0e7192a012dd22
alias 3 --method direct --rounds 2 --replies 6 --json                                     8c8dfbd03be677c6
alias 3 5 9 --fanout --shards 2 --stop-set --rounds 2 --replies 6                         6be01d8a2e81df67
alias 3 5 9 --stop-set --shards 2 --rounds 2 --replies 6 --json                           f358d621d1fa1c01
alias 62 129 --shards 2 --rounds 2 --replies 6 --json                                     677fbcb549c5527e
alias 3 5 --admission cost-aware --adaptive-budget --rate-limit 3/12 --cycle-gap 12 --max-in-flight 64 --rounds 2 --replies 6 05b0c40c66b84542
alias 3 --fault-schedule flap --max-retries 1 --rounds 2 --replies 6 --seed 2 27d9cc3114a961f3";

/// The lines of a golden table whose invocation's digest changed, with
/// the digest it has now.
fn changed_digests(goldens: &str) -> Vec<String> {
    goldens
        .lines()
        .filter_map(|line| {
            let (args, want) = line.rsplit_once(' ').expect("arguments and digest");
            let got = run_digest(&args.split_whitespace().collect::<Vec<_>>());
            let want = u64::from_str_radix(want, 16).expect("hex digest");
            (got != want).then(|| format!("{} {got:016x}", args.trim_end()))
        })
        .collect()
}

#[test]
fn trace_and_multilevel_outputs_match_goldens() {
    let changed = changed_digests(GOLDENS);
    assert!(changed.is_empty(), "digests now:\n{}", changed.join("\n"));
}

#[test]
fn sweep_and_alias_outputs_match_goldens() {
    let changed = changed_digests(SWEEP_GOLDENS);
    assert!(changed.is_empty(), "digests now:\n{}", changed.join("\n"));
}

/// Digests of a `trace --pcap` run: its output (with the capture path
/// masked) and the capture's bytes.
fn pcap_digests(name: &str, args: &str) -> (u64, u64) {
    let path = std::env::temp_dir().join(format!("mlpt-golden-{name}-{}.pcap", std::process::id()));
    let path_text = path.to_str().expect("UTF-8 temp path");
    let out = Command::new(env!("CARGO_BIN_EXE_mlpt"))
        .args(args.split_whitespace())
        .args(["--pcap", path_text])
        .output()
        .expect("binary runs");
    let capture = std::fs::read(&path).expect("pcap written");
    let _ = std::fs::remove_file(&path);
    let mut bytes = format!("{:?}\n", out.status.code()).into_bytes();
    bytes.extend_from_slice(&out.stdout);
    bytes.push(b'\n');
    bytes.extend_from_slice(
        String::from_utf8_lossy(&out.stderr)
            .replace(path_text, "<pcap>")
            .as_bytes(),
    );
    (fnv1a(&bytes), fnv1a(&capture))
}

#[test]
fn pcap_captures_match_goldens() {
    let lossless = pcap_digests("lossless", "trace --topology fig1-meshed --seed 1");
    let lossy = pcap_digests(
        "lossy",
        "trace --topology fig1-meshed --algo mda --loss 0.2 --seed 5",
    );
    assert_eq!(
        [lossless, lossy],
        [
            (0x534f_9e34_ae2e_dbb4, 0x29ac_af7f_af56_0401),
            (0x2b08_1286_4da7_561f, 0xae86_27ae_d694_505e),
        ],
        "digests now: {:#018x?}",
        [lossless, lossy]
    );
}
