//! Golden digests of the experiments' JSON payloads.
//!
//! `fig1`, `fig3`, `fakeroute` and the four ablations trace one
//! destination at a time through the library's entry points; `fig2`,
//! `fig4`, `fig5`, `table2` and `table3` run the surveys' many-
//! destination sweeps. Their JSON payloads at `--scale small` are
//! pinned here as FNV-1a-64 digests, so a change to how a trace or a
//! sweep is driven cannot move a paper figure unnoticed. The payloads
//! are deterministic: every experiment seeds its own simulators.

use mlpt_bench::experiments;
use mlpt_bench::Scale;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn json_digest(id: &str) -> u64 {
    let results = experiments::run(id, Scale::Small).expect("known experiment id");
    let json: Vec<String> = results.iter().map(|r| r.json.to_string()).collect();
    fnv1a(&json.join("\n"))
}

#[test]
fn experiment_json_matches_goldens() {
    let changed: Vec<String> = [
        ("fig1", 0xd9f5_fc98_a4a6_013f),
        ("fig3", 0x70b5_8cc5_8b00_d398),
        ("fakeroute", 0x5204_42ab_bff6_3760),
        ("ablation-phi", 0x01ee_b31a_b4ec_9719),
        ("ablation-faults", 0xbfe8_3cff_a976_3f3c),
        ("ablation-stopping", 0xc265_8738_dbbc_bd13),
        ("ablation-weighted", 0xacc6_24ff_c0fa_77cd),
        ("fig2", 0x9e10_f281_dd61_ba33),
        ("fig4", 0x5251_a23a_5774_46ac),
        ("fig5", 0xdb30_0bb9_f3a1_f0e2),
        ("table2", 0x8ffb_a011_8733_d659),
        ("table3", 0xac8d_7e2f_e801_c319),
    ]
    .into_iter()
    .filter_map(|(id, want)| {
        let got = json_digest(id);
        (got != want).then(|| format!("{id}: {got:#018x}"))
    })
    .collect();
    assert!(changed.is_empty(), "digests now:\n{}", changed.join("\n"));
}
