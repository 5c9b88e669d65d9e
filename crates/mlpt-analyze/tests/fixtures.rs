//! The fixture corpus as an executable contract: every known-bad file
//! produces exactly the expected `(lint, line)` set, the pragma'd
//! copies suppress cleanly, the scoping pair proves per-path precision,
//! and — the gate that matters — the real workspace analyzes clean.

use mlpt_analyze::{analyze_files, analyze_workspace, LintId, ScopeConfig};
use std::path::Path;

fn fixture(rel: &str) -> (String, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(rel);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    (rel.to_string(), src)
}

/// Analyzes one fixture file in isolation under the fixture scope and
/// returns its findings as `(lint, line)` pairs.
fn findings_of(rel: &str) -> Vec<(LintId, u32)> {
    let report = analyze_files(&[fixture(rel)], &ScopeConfig::fixture());
    report
        .findings
        .iter()
        .map(|f| {
            assert_eq!(f.file, rel);
            (f.lint, f.line)
        })
        .collect()
}

#[test]
fn bad_w001_wall_clock() {
    assert_eq!(
        findings_of("bad/w001_wall_clock.rs"),
        vec![(LintId::W001, 5), (LintId::W001, 10), (LintId::W001, 11),]
    );
}

#[test]
fn bad_w002_randomness() {
    assert_eq!(
        findings_of("bad/w002_randomness.rs"),
        vec![
            (LintId::W002, 5),
            (LintId::W002, 7),
            (LintId::W002, 11),
            (LintId::W002, 15),
        ]
    );
}

#[test]
fn bad_w003_hash_iteration() {
    assert_eq!(
        findings_of("bad/w003_hash_iteration.rs"),
        vec![
            (LintId::W003, 12),
            (LintId::W003, 16),
            (LintId::W003, 22),
            (LintId::W003, 31),
        ]
    );
}

#[test]
fn bad_w004_panic_class() {
    assert_eq!(
        findings_of("bad/w004_panic.rs"),
        vec![
            (LintId::W004, 6),
            (LintId::W004, 10),
            (LintId::W004, 14),
            (LintId::W004, 20),
        ]
    );
}

#[test]
fn bad_w005_merge_gap_points_at_the_missing_field() {
    let findings = findings_of("bad/w005_merge_gap.rs");
    assert_eq!(findings, vec![(LintId::W005, 8)]);
}

#[test]
fn bad_w005_no_merge_points_at_the_struct() {
    let findings = findings_of("bad/w005_no_merge.rs");
    assert_eq!(findings, vec![(LintId::W005, 5)]);
}

#[test]
fn allowed_copies_suppress_with_reasons() {
    for (rel, expected_suppressed) in [
        ("allowed/w001_allowed.rs", 2),
        ("allowed/w004_allowed.rs", 2),
    ] {
        let report = analyze_files(&[fixture(rel)], &ScopeConfig::fixture());
        assert!(report.findings.is_empty(), "{rel}: {:?}", report.findings);
        assert_eq!(report.suppressed.len(), expected_suppressed, "{rel}");
        for s in &report.suppressed {
            assert!(!s.reason.is_empty(), "{rel}: empty recorded reason");
        }
    }
}

#[test]
fn clean_file_is_silent() {
    let report = analyze_files(&[fixture("clean/clean.rs")], &ScopeConfig::fixture());
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert!(report.suppressed.is_empty());
}

#[test]
fn scoping_pair_fires_only_in_protocol_path() {
    // The SAME wall-clock read, two paths: the bench half is exempt by
    // scoping config, the protocol half fires. Precision, not recall.
    let files = vec![
        fixture("scope/crates/mlpt-bench/benches/timing.rs"),
        fixture("scope/crates/mlpt-core/src/timing.rs"),
    ];
    let report = analyze_files(&files, &ScopeConfig::fixture());
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.lint, LintId::W001);
    assert_eq!(f.file, "scope/crates/mlpt-core/src/timing.rs");
    assert_eq!(f.line, 6);
}

#[test]
fn pragma_missing_reason_is_flagged_and_suppresses_nothing() {
    let findings = findings_of("pragma/missing_reason.rs");
    assert_eq!(
        findings,
        vec![(LintId::E100, 6), (LintId::W004, 7)],
        "the unreasoned pragma must not eat the W004"
    );
}

#[test]
fn pragma_unknown_lint_is_flagged() {
    assert_eq!(
        findings_of("pragma/unknown_lint.rs"),
        vec![(LintId::E101, 5)]
    );
}

#[test]
fn pragma_unused_is_stale() {
    assert_eq!(findings_of("pragma/unused.rs"), vec![(LintId::E102, 5)]);
}

/// The acceptance gate: the real workspace, under the CI scoping
/// config, has zero live findings. Every past violation is either
/// fixed or carries a justified pragma.
#[test]
fn workspace_analyzes_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report =
        analyze_workspace(&root, &ScopeConfig::workspace_default()).expect("workspace walk");
    assert!(report.files_scanned > 50, "walk found the workspace");
    let rendered: Vec<String> = report.findings.iter().map(|f| f.render()).collect();
    assert!(
        report.findings.is_empty(),
        "live determinism findings:\n{}",
        rendered.join("\n")
    );
    // The pragma ceiling: each suppression is an audited exception, and
    // their number may not grow.
    let suppressed: Vec<String> = report
        .suppressed
        .iter()
        .map(|s| s.finding.render())
        .collect();
    assert!(
        suppressed.len() <= 12,
        "{} pragma suppressions exceed the ceiling of 12:\n{}",
        suppressed.len(),
        suppressed.join("\n")
    );
}
