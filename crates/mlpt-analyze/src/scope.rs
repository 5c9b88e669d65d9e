//! Per-lint path scoping: which files each determinism rule governs.
//!
//! The rules are not uniform across the tree — that is the point.
//! Wall-clock reads are *correct* in `mlpt-bench` (benches measure the
//! host) and forbidden in protocol code; unordered iteration only
//! corrupts probe order where probes are emitted (`mlpt-core`,
//! `mlpt-sim`); the panic-class lint polices the engine surfaces that
//! have typed errors to use instead. Scoping is what gives the pass
//! precision, not just recall.

use crate::diag::LintId;

/// Include/exclude path rules for one lint. Paths are matched as
/// `/`-separated prefixes relative to the analysis root: the rule
/// `crates/mlpt-core/src/` covers everything under that directory, and
/// a full file path covers exactly that file.
#[derive(Debug, Clone, Default)]
pub struct PathPolicy {
    /// Prefixes the lint applies to. Empty = applies everywhere.
    pub include: Vec<String>,
    /// Prefixes exempted even when included. Wins over `include`.
    pub exclude: Vec<String>,
}

impl PathPolicy {
    pub fn everywhere() -> Self {
        PathPolicy::default()
    }

    pub fn includes(mut self, prefixes: &[&str]) -> Self {
        self.include.extend(prefixes.iter().map(|s| s.to_string()));
        self
    }

    pub fn excludes(mut self, prefixes: &[&str]) -> Self {
        self.exclude.extend(prefixes.iter().map(|s| s.to_string()));
        self
    }

    fn matches_prefix(path: &str, prefix: &str) -> bool {
        path == prefix
            || path
                .strip_prefix(prefix)
                .is_some_and(|rest| prefix.ends_with('/') || rest.starts_with('/'))
    }

    pub fn applies_to(&self, path: &str) -> bool {
        if self.exclude.iter().any(|p| Self::matches_prefix(path, p)) {
            return false;
        }
        self.include.is_empty() || self.include.iter().any(|p| Self::matches_prefix(path, p))
    }
}

/// The full scoping configuration for an analysis run.
#[derive(Debug, Clone)]
pub struct ScopeConfig {
    /// Directory prefixes never scanned at all (vendored stand-ins,
    /// build output, the analyzer's own known-bad fixture corpus).
    pub global_excludes: Vec<String>,
    policies: Vec<(LintId, PathPolicy)>,
    /// `(struct, method)` pairs checked by the merge-exhaustiveness
    /// lint (MLPT-W005).
    pub merge_checks: Vec<(String, String)>,
}

impl ScopeConfig {
    /// The workspace's determinism-rule scoping. This is the config CI
    /// enforces; the rationale for each entry lives in the README's
    /// "Static analysis" section.
    pub fn workspace_default() -> Self {
        let policies = vec![
            // MLPT-W001 — wall clock. Protocol code must read the
            // virtual clock (determinism rules 1 and 4). The *only*
            // sanctioned wall-clock reads are mlpt-bench's: benches
            // exist to measure the host. This exclusion is the
            // precedent for scoping precision: the identical call that
            // is a bug in `crates/mlpt-core/src/` is the whole point in
            // `crates/mlpt-bench/benches/`.
            (
                LintId::W001,
                PathPolicy::everywhere().excludes(&["crates/mlpt-bench/"]),
            ),
            // MLPT-W002 — ambient randomness. Nowhere is exempt: even
            // benches and tests must replay from seeds (rule 2).
            (LintId::W002, PathPolicy::everywhere()),
            // MLPT-W003 — unordered iteration. Scoped to the crates
            // that emit or answer probes: hash-order leaking into
            // probe order is the rule-3/rule-5 violation. Other crates
            // may iterate hash maps for reporting, where order is
            // absorbed before anything reaches the wire.
            (
                LintId::W003,
                PathPolicy::everywhere()
                    .includes(&["crates/mlpt-core/src/", "crates/mlpt-sim/src/"]),
            ),
            // MLPT-W004 — panic-class calls. Scoped to the engine
            // surfaces that have typed errors (`TraceOutcome::Partial`,
            // `WireError`) to use instead: the sweep
            // engine, sessions, shards, the stop set, the wire crate
            // (already clean — this keeps it that way), and the CLI
            // front-end.
            (
                LintId::W004,
                PathPolicy::everywhere().includes(&[
                    "crates/mlpt-core/src/engine.rs",
                    "crates/mlpt-core/src/session.rs",
                    "crates/mlpt-core/src/shard.rs",
                    "crates/mlpt-core/src/stopset.rs",
                    "crates/mlpt-wire/src/",
                    "src/bin/mlpt.rs",
                ]),
            ),
            // MLPT-W005 — merge exhaustiveness. Applies wherever the
            // checked structs live.
            (LintId::W005, PathPolicy::everywhere()),
        ];
        ScopeConfig {
            global_excludes: vec![
                "vendor/".into(),
                "target/".into(),
                ".git/".into(),
                // The fixture corpus is *known-bad by design*.
                "crates/mlpt-analyze/fixtures/".into(),
            ],
            policies,
            merge_checks: vec![("SweepStats".into(), "merge".into())],
        }
    }

    /// Scoping for the fixture corpus: every lint applies everywhere,
    /// except a miniature copy of the bench exclusion so the corpus
    /// proves scoping precision (the same wall-clock call fires under
    /// `scope/crates/mlpt-core/` and stays silent under
    /// `scope/crates/mlpt-bench/`).
    pub fn fixture() -> Self {
        let policies = vec![
            (
                LintId::W001,
                PathPolicy::everywhere().excludes(&["scope/crates/mlpt-bench/"]),
            ),
            (LintId::W002, PathPolicy::everywhere()),
            (LintId::W003, PathPolicy::everywhere()),
            (LintId::W004, PathPolicy::everywhere()),
            (LintId::W005, PathPolicy::everywhere()),
        ];
        ScopeConfig {
            global_excludes: vec![],
            policies,
            merge_checks: vec![("SweepStats".into(), "merge".into())],
        }
    }

    /// Is `path` (relative, `/`-separated) scanned at all?
    pub fn scanned(&self, path: &str) -> bool {
        !self
            .global_excludes
            .iter()
            .any(|p| PathPolicy::matches_prefix(path, p))
    }

    /// Does `lint` govern `path`? Pragma-health diagnostics (E1xx)
    /// always apply wherever a pragma appears.
    pub fn lint_applies(&self, lint: LintId, path: &str) -> bool {
        match self.policies.iter().find(|(l, _)| *l == lint) {
            Some((_, policy)) => policy.applies_to(path),
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_matching_respects_component_boundaries() {
        let policy = PathPolicy::everywhere().includes(&["crates/mlpt-core/src/engine.rs"]);
        assert!(policy.applies_to("crates/mlpt-core/src/engine.rs"));
        assert!(!policy.applies_to("crates/mlpt-core/src/engine.rs.bak"));
        let dir = PathPolicy::everywhere().includes(&["crates/mlpt-core/src/"]);
        assert!(dir.applies_to("crates/mlpt-core/src/engine.rs"));
        assert!(!dir.applies_to("crates/mlpt-core/srcx/engine.rs"));
    }

    #[test]
    fn bench_wall_clock_is_exempt_and_core_is_not() {
        let config = ScopeConfig::workspace_default();
        assert!(!config.lint_applies(
            LintId::W001,
            "crates/mlpt-bench/benches/concurrent_sweep.rs"
        ));
        assert!(config.lint_applies(LintId::W001, "crates/mlpt-core/src/engine.rs"));
        assert!(config.lint_applies(LintId::W001, "tests/chaos.rs"));
    }

    #[test]
    fn w003_scoped_to_protocol_crates() {
        let config = ScopeConfig::workspace_default();
        assert!(config.lint_applies(LintId::W003, "crates/mlpt-sim/src/network.rs"));
        assert!(!config.lint_applies(LintId::W003, "crates/mlpt-survey/src/router_survey.rs"));
    }

    #[test]
    fn w004_scoped_to_engine_surfaces() {
        let config = ScopeConfig::workspace_default();
        assert!(config.lint_applies(LintId::W004, "crates/mlpt-core/src/session.rs"));
        assert!(config.lint_applies(LintId::W004, "src/bin/mlpt.rs"));
        assert!(config.lint_applies(LintId::W004, "crates/mlpt-wire/src/icmp.rs"));
        assert!(!config.lint_applies(LintId::W004, "crates/mlpt-core/src/mda.rs"));
    }

    #[test]
    fn fixtures_and_vendor_never_scanned() {
        let config = ScopeConfig::workspace_default();
        assert!(!config.scanned("vendor/rand/src/lib.rs"));
        assert!(!config.scanned("crates/mlpt-analyze/fixtures/bad/w001_wall_clock.rs"));
        assert!(config.scanned("crates/mlpt-analyze/src/lib.rs"));
    }
}
