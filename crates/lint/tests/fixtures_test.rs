//! Fixture tree: every per-file rule has a failing, a passing, and a
//! suppressed example under `tests/fixtures/<rule>/`; the cross-file
//! registry checks each get a bad/good/suppressed mini-workspace under
//! `tests/fixtures/registry-*/` (they need `run`'s whole-tree scan).
//! These run in the quick check tier (`cargo test -p sirep-lint`), so a
//! regression in a rule's detection or in the suppression machinery
//! fails CI immediately.

use sirep_lint::{check_file, load_config_file, rules, run, LintConfig};
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

/// Every rule check_file can evaluate on a single fixture file.
const RULES: [&str; 9] = [
    rules::RULE_MULTICAST,
    rules::RULE_JOURNAL_GAUGE,
    rules::RULE_NONDET,
    rules::RULE_NO_UNWRAP,
    rules::RULE_LOCK_ORDER,
    rules::RULE_NO_IO,
    rules::RULE_NO_BLOCKING,
    rules::RULE_LOCK_COVERAGE,
    rules::RULE_WIRE_TAGS,
];

#[test]
fn bad_fixtures_fail() {
    let cfg = load_fixture_cfg();
    for rule in RULES {
        let (hits, _) = lint(&cfg, &format!("{rule}/bad.rs"), rule);
        assert!(hits > 0, "{rule}/bad.rs must produce at least one `{rule}` violation");
    }
}

#[test]
fn good_fixtures_pass() {
    let cfg = load_fixture_cfg();
    for rule in RULES {
        let (hits, suppressed) = lint(&cfg, &format!("{rule}/good.rs"), rule);
        assert_eq!(hits, 0, "{rule}/good.rs must be clean");
        assert_eq!(suppressed, 0, "{rule}/good.rs must not need suppressions");
    }
}

#[test]
fn suppressed_fixtures_pass_with_justifications() {
    let cfg = load_fixture_cfg();
    for rule in RULES {
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
// Registry mini-workspaces: cross-file checks through `run`.
// ---------------------------------------------------------------------

/// Run one registry mini-workspace; returns (violations-of-rule,
/// total-suppressed).
fn run_registry(dir: &str, rule: &str) -> (usize, usize) {
    let root = fixtures_dir().join(dir);
    let cfg = load_config_file(&root.join("lint.toml"))
        .unwrap_or_else(|e| panic!("{dir}/lint.toml loads: {e}"));
    let report = run(&root, &cfg).unwrap_or_else(|e| panic!("{dir}: run failed: {e}"));
    let hits = report.violations.iter().filter(|v| v.rule == rule).count();
    let other: Vec<_> = report.violations.iter().filter(|v| v.rule != rule).collect();
    assert!(other.is_empty(), "{dir}: unexpected off-rule violations: {other:?}");
    (hits, report.suppressed.len())
}

#[test]
fn journal_consumer_registry_fixtures() {
    let rule = rules::RULE_JOURNAL_CONSUMERS;
    let (bad, _) = run_registry("registry-journal/bad", rule);
    assert!(bad > 0, "unconsumed variant without an ignore entry must be flagged");
    let (good, good_suppressed) = run_registry("registry-journal/good", rule);
    assert_eq!(good, 0, "consumed + justified-ignore workspace must be clean");
    assert_eq!(good_suppressed, 0);
    let (sup, sup_count) = run_registry("registry-journal/suppressed", rule);
    assert_eq!(sup, 0, "suppressed workspace must report no violations");
    assert!(sup_count > 0, "the [[suppress]] entry must have matched");
}

#[test]
fn chaos_point_registry_fixtures() {
    let rule = rules::RULE_CHAOS_POINTS;
    let (bad, _) = run_registry("registry-chaos/bad", rule);
    assert!(bad > 0, "an unhooked chaos point must be flagged");
    let (good, good_suppressed) = run_registry("registry-chaos/good", rule);
    assert_eq!(good, 0, "fully-hooked workspace must be clean");
    assert_eq!(good_suppressed, 0);
    let (sup, sup_count) = run_registry("registry-chaos/suppressed", rule);
    assert_eq!(sup, 0, "suppressed workspace must report no violations");
    assert!(sup_count > 0, "the [[suppress]] entry must have matched");
}

/// A justified ignore entry whose variant the consumer *does* now match
/// is stale: it must surface as a warning so it gets deleted.
#[test]
fn stale_journal_ignore_entry_warns() {
    let root = fixtures_dir().join("registry-journal/good");
    let mut cfg = load_config_file(&root.join("lint.toml")).unwrap();
    // Point the ignore entry at a variant the consumer matches.
    if let Some(jc) = &mut cfg.registry.journal_consumers {
        jc.ignore[0].variant = "Abort".into();
    }
    let report = run(&root, &cfg).unwrap();
    assert!(
        report.violations.iter().any(|v| v.msg.contains("stale")),
        "consumed-but-ignored variant must be reported: {report:?}"
    );
}

// ---------------------------------------------------------------------
// The real workspace config must always load — a typo in lint.toml
// should be caught by `cargo test`, not discovered when check.sh runs.
// ---------------------------------------------------------------------

#[test]
fn workspace_lint_toml_loads() {
    let ws_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cfg = load_config_file(&ws_root.join("lint.toml")).expect("workspace lint.toml loads");
    assert_eq!(cfg.checker.journal_gauge.len(), 3, "all three journal-gauge scopes configured");
    assert!(cfg.checker.multicast.is_some());
    assert!(cfg.checker.nondet.is_some());
    assert!(cfg.checker.no_unwrap.is_some());
    assert!(cfg.checker.lock_order.is_some());
    assert!(cfg.checker.no_io.is_some());
    assert!(cfg.checker.no_blocking.is_some());
    assert!(cfg.checker.lock_coverage.is_some());
    assert!(cfg.registry.wire_tags.is_some());
    let jc = cfg.registry.journal_consumers.as_ref().expect("journal consumers configured");
    assert_eq!(jc.consumers.len(), 2, "1-copy-SI checker + perfetto exporter");
    let cp = cfg.registry.chaos_points.as_ref().expect("chaos points configured");
    assert_eq!(cp.enums.len(), 2, "CrashPoint + PausePoint");
}
