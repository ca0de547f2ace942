//! Fixture tree: every rule has a failing, a passing, and a suppressed
//! example under `tests/fixtures/<rule>/`. These run in the quick check tier (`cargo test -p sirep-lint`), so a
//! regression in a rule's detection or in the suppression machinery
//! fails CI immediately.

use sirep_lint::{check_file, load_config_file, rules, LintConfig};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn load_fixture_cfg() -> LintConfig {
    load_config_file(&fixtures_dir().join("lint.toml")).expect("fixture lint.toml loads")
}

/// Lint one fixture file; returns (violations-of-rule, total-suppressed).
fn lint(cfg: &LintConfig, rel: &str, rule: &str) -> (usize, usize) {
    let src = std::fs::read_to_string(fixtures_dir().join(rel))
        .unwrap_or_else(|e| panic!("read fixture {rel}: {e}"));
    let mut used = BTreeSet::new();
    let res = check_file(rel, &src, cfg, &mut used);
    let hits = res.violations.iter().filter(|v| v.rule == rule).count();
    let other: Vec<_> = res.violations.iter().filter(|v| v.rule != rule).collect();
    assert!(other.is_empty(), "{rel}: unexpected off-rule violations: {other:?}");
    (hits, res.suppressed.len())
}

#[test]
fn bad_fixtures_fail() {
    let cfg = load_fixture_cfg();
    for rule in rules::ALL_RULES {
        let (hits, _) = lint(&cfg, &format!("{rule}/bad.rs"), rule);
        assert!(hits > 0, "{rule}/bad.rs must produce at least one `{rule}` violation");
    }
}

#[test]
fn good_fixtures_pass() {
    let cfg = load_fixture_cfg();
    for rule in rules::ALL_RULES {
        let (hits, suppressed) = lint(&cfg, &format!("{rule}/good.rs"), rule);
        assert_eq!(hits, 0, "{rule}/good.rs must be clean");
        assert_eq!(suppressed, 0, "{rule}/good.rs must not need suppressions");
    }
}

#[test]
fn suppressed_fixtures_pass_with_justifications() {
    let cfg = load_fixture_cfg();
    for rule in rules::ALL_RULES {
        let (hits, suppressed) = lint(&cfg, &format!("{rule}/suppressed.rs"), rule);
        assert_eq!(hits, 0, "{rule}/suppressed.rs must be clean");
        assert!(suppressed > 0, "{rule}/suppressed.rs must exercise a suppression");
    }
}

/// Both failing shapes in `no-io-under-lock/bad.rs` are found: the
/// straight-line under-lock syscall and the may-path one (guard dropped
/// on one branch only).
#[test]
fn no_io_bad_fixture_catches_both_shapes() {
    let cfg = load_fixture_cfg();
    let (hits, _) = lint(&cfg, "no-io-under-lock/bad.rs", rules::RULE_NO_IO);
    assert_eq!(hits, 2, "expected the evict shape and the may-path shape");
}

#[test]
fn unjustified_or_unknown_directives_are_violations() {
    let cfg = load_fixture_cfg();
    let rel = "lint-directive/bad.rs";
    let src = std::fs::read_to_string(fixtures_dir().join(rel)).unwrap();
    let mut used = BTreeSet::new();
    let res = check_file(rel, &src, &cfg, &mut used);
    let directive_hits = res.violations.iter().filter(|v| v.rule == rules::RULE_DIRECTIVE).count();
    assert_eq!(directive_hits, 2, "missing-reason and unknown-rule directives: {res:?}");
    assert!(res.suppressed.is_empty(), "broken directives must never suppress");
}

#[test]
fn lock_order_cycle_is_a_config_error() {
    let err = load_config_file(&fixtures_dir().join("cycle.toml"))
        .expect_err("cyclic lock order must fail to load");
    assert!(err.contains("cycle"), "{err}");
}

// ---------------------------------------------------------------------
// The real workspace config must always load — a typo in lint.toml
// should be caught by `cargo test`, not discovered when check.sh runs.
// ---------------------------------------------------------------------

#[test]
fn workspace_lint_toml_loads() {
    let ws_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cfg = load_config_file(&ws_root.join("lint.toml")).expect("workspace lint.toml loads");
    assert!(cfg.checker.no_index.is_some());
    assert!(cfg.checker.lock_order.is_some());
    assert!(cfg.checker.no_io.is_some());
    assert!(cfg.checker.no_blocking.is_some());
    assert!(cfg.checker.lock_coverage.is_some());
}
