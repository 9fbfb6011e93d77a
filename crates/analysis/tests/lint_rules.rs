//! Fixture self-tests: every rule must fire on its seeded violation
//! file, stay quiet on the clean file, and respect (or reject)
//! suppressions — plus end-to-end exit-code checks of the
//! `lnpram-lint` binary, including "the committed workspace is clean".

use lnpram_analysis::config::Severity;
use lnpram_analysis::{lint_source, Config, Diagnostic};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Lint a fixture as if it lived at an in-scope engine path.
fn lint_fixture(name: &str) -> Vec<Diagnostic> {
    lint_source(
        "crates/simnet/src/fixture.rs",
        &fixture(name),
        &Config::default(),
    )
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = diags.iter().map(|d| d.rule).collect();
    rules.dedup();
    rules
}

#[test]
fn determinism_positive() {
    let d = lint_fixture("determinism_violation.rs");
    assert!(!d.is_empty());
    assert!(d.iter().all(|d| d.rule == "determinism"), "{d:?}");
    // One finding per HashMap/HashSet token: use sites count, not just files.
    assert!(d.len() >= 4, "{d:?}");
}

#[test]
fn determinism_suppressed() {
    let d = lint_fixture("determinism_suppressed.rs");
    assert!(d.is_empty(), "reasoned allow must drop the finding: {d:?}");
}

#[test]
fn clock_positive() {
    let d = lint_fixture("clock_violation.rs");
    assert!(d.iter().any(|d| d.rule == "no-ambient-clock"), "{d:?}");
    // The same fixture's `.unwrap_or(0)` must NOT trip panic-surface:
    // maximal-munch keeps `unwrap_or` distinct from `unwrap`.
    assert!(d.iter().all(|d| d.rule == "no-ambient-clock"), "{d:?}");
}

#[test]
fn clock_exempt_in_trace_sink() {
    let d = lint_source(
        "crates/simnet/src/trace.rs",
        &fixture("clock_violation.rs"),
        &Config::default(),
    );
    assert!(d.is_empty(), "trace.rs is the sanctioned clock sink: {d:?}");
}

#[test]
fn rng_positive() {
    let d = lint_fixture("rng_violation.rs");
    assert_eq!(rules_of(&d), vec!["no-ambient-rng"], "{d:?}");
}

#[test]
fn unsafe_positive_outside_budget_file() {
    let d = lint_fixture("unsafe_violation.rs");
    assert_eq!(rules_of(&d), vec!["unsafe-budget"], "{d:?}");
}

#[test]
fn unsafe_budget_file_pins_exact_count() {
    let cfg = Config::default();
    let src = fixture("unsafe_violation.rs"); // one `unsafe` token
    let d = lint_source(&cfg.budget_file.clone(), &src, &cfg);
    assert_eq!(
        rules_of(&d),
        vec!["unsafe-budget"],
        "1 token vs pinned {}: must drift: {d:?}",
        cfg.budget_count
    );
}

#[test]
fn panic_positive() {
    let d = lint_fixture("panic_violation.rs");
    assert_eq!(rules_of(&d), vec!["panic-surface"], "{d:?}");
    assert_eq!(
        d.len(),
        4,
        "unwrap, empty expect, bare panic!, todo!: {d:?}"
    );
}

#[test]
fn clean_fixture_is_clean() {
    let d = lint_fixture("clean.rs");
    assert!(
        d.is_empty(),
        "decoys in literals/comments/tests fired: {d:?}"
    );
}

#[test]
fn suppression_without_reason_errors_and_does_not_suppress() {
    let d = lint_fixture("suppression_no_reason.rs");
    assert!(d.iter().any(|d| d.rule == "bad-suppression"), "{d:?}");
    assert!(d.iter().any(|d| d.rule == "panic-surface"), "{d:?}");
}

#[test]
fn slice_index_fires_only_when_enabled() {
    let src = fixture("slice_index_violation.rs");
    let off = lint_source("crates/simnet/src/fixture.rs", &src, &Config::default());
    assert!(off.is_empty(), "slice-index defaults Off: {off:?}");
    let mut cfg = Config::default();
    cfg.slice_index.severity = Severity::Error;
    let on = lint_source("crates/simnet/src/fixture.rs", &src, &cfg);
    assert_eq!(rules_of(&on), vec!["slice-index"], "{on:?}");
}

// ---------------------------------------------------------------------
// End-to-end binary checks
// ---------------------------------------------------------------------

fn run_lint(root: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_lnpram-lint"))
        .arg("--root")
        .arg(root)
        .output()
        .expect("lnpram-lint binary runs")
}

#[test]
fn binary_exits_zero_on_clean_workspace() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws_clean");
    let out = run_lint(&root);
    assert!(
        out.status.success(),
        "clean mini-workspace must pass:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn binary_exits_nonzero_on_seeded_violations() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws_bad");
    let out = run_lint(&root);
    assert_eq!(
        out.status.code(),
        Some(1),
        "seeded mini-workspace must fail:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "determinism",
        "no-ambient-clock",
        "no-ambient-rng",
        "unsafe-budget",
        "panic-surface",
    ] {
        assert!(
            text.contains(&format!("[{rule}]")),
            "missing {rule}:\n{text}"
        );
    }
    // Diagnostics carry clickable file:line anchors.
    assert!(
        text.contains("crates/simnet/src/engine.rs:"),
        "missing file:line anchors:\n{text}"
    );
}

#[test]
fn binary_exits_two_on_bad_config() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws_clean");
    let cfg = root.join("no-such-lint.toml");
    let out = Command::new(env!("CARGO_BIN_EXE_lnpram-lint"))
        .arg("--root")
        .arg(&root)
        .arg("--config")
        .arg(&cfg)
        .output()
        .expect("lnpram-lint binary runs");
    assert_eq!(out.status.code(), Some(2));
}

/// The acceptance check itself: the committed workspace lints
/// clean under the committed `lint.toml`.
#[test]
fn committed_workspace_is_lint_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/analysis sits two levels under the workspace root")
        .to_path_buf();
    let out = run_lint(&root);
    assert!(
        out.status.success(),
        "the committed tree must lint clean:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
