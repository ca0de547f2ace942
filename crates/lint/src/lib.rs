//! sirep-lint: workspace invariant checker for SI-Rep.
//!
//! Enforces the lock-discipline invariants the SRCA-Rep protocol depends
//! on, and the index ban on protocol paths (DESIGN.md §13). Five named
//! rules, each individually suppressable per-site with a written
//! justification:
//!
//! - an inline directive on or directly above the offending line:
//!   `// sirep-lint: allow(<rule>): <why this site is safe>`
//! - or a `[[suppress]]` entry in `lint.toml` with `rule`, `file`,
//!   an optional `contains` message matcher, and a mandatory `reason`.
//!
//! A suppression with no justification, a malformed directive, or an
//! unknown rule name is itself a violation — the suppression mechanism
//! must not rot silently. `--deny-stale` (CI) escalates stale
//! suppressions from warnings to a failing exit.
//!
//! Guard-sensitive rules run over a per-function control-flow graph
//! ([`cfg`]) with fixed-point may-held guard liveness ([`dataflow`]).

pub mod cfg;
pub mod config;
pub mod dataflow;
pub mod lexer;
pub mod rules;
pub mod scopes;

use rules::{
    CheckerConfig, LockClass, LockCoverageRule, LockOrderRule, NoBlockingRule, NoIndexRule,
    NoIoRule, Violation, ALL_RULES, RULE_DIRECTIVE,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// One `[[suppress]]` entry from lint.toml.
#[derive(Debug, Clone)]
pub struct TomlSuppress {
    pub rule: String,
    pub file: String,
    /// Substring the violation message must contain (site selector).
    pub contains: Option<String>,
    pub reason: String,
}

/// Fully loaded lint configuration.
#[derive(Debug)]
pub struct LintConfig {
    pub checker: CheckerConfig,
    pub roots: Vec<String>,
    pub exclude: Vec<String>,
    pub suppress: Vec<TomlSuppress>,
}

/// A violation that was suppressed, and how (`"inline"` / `"lint.toml"`).
#[derive(Debug, Clone)]
pub struct Suppressed {
    pub violation: Violation,
    pub via: String,
}

/// Result of linting one file (pre-workspace aggregation).
#[derive(Debug, Default)]
pub struct FileResult {
    pub violations: Vec<Violation>,
    pub suppressed: Vec<Suppressed>,
    /// Non-fatal notices (unused suppressions).
    pub warnings: Vec<String>,
}

#[derive(Debug, Default)]
pub struct Report {
    pub violations: Vec<Violation>,
    /// Every suppressed finding, for the JSON report: each one is a
    /// justified debt the reviewer can audit.
    pub suppressed: Vec<Suppressed>,
    pub warnings: Vec<String>,
    pub files_scanned: usize,
}

fn cfg_err<T>(msg: impl Into<String>) -> Result<T, String> {
    Err(msg.into())
}

/// Load and validate a lint.toml source string.
pub fn load_config_str(src: &str) -> Result<LintConfig, String> {
    let root = config::parse(src).map_err(|e| e.to_string())?;

    const TOP_KEYS: [&str; 5] = ["workspace", "lock-class", "lock-order", "rules", "suppress"];
    for key in root.keys() {
        if !TOP_KEYS.contains(&key.as_str()) {
            return cfg_err(format!("lint.toml: unknown section `{key}`"));
        }
    }

    let mut cfg = LintConfig {
        checker: CheckerConfig::default(),
        roots: vec!["crates".into(), "src".into()],
        exclude: Vec::new(),
        suppress: Vec::new(),
    };

    if let Some(ws) = config::get_table(&root, "workspace") {
        let roots = config::get_str_list(ws, "roots");
        if !roots.is_empty() {
            cfg.roots = roots;
        }
        cfg.exclude = config::get_str_list(ws, "exclude");
    }

    for tbl in config::get_table_array(&root, "lock-class") {
        let Some(name) = config::get_str(tbl, "name") else {
            return cfg_err("lint.toml: [[lock-class]] entry missing `name`");
        };
        let class = LockClass {
            name: name.clone(),
            lock_exprs: config::get_str_list(tbl, "lock-exprs"),
            files: config::get_str_list(tbl, "files"),
            acquire_fns: config::get_str_list(tbl, "acquire-fns"),
            param_types: config::get_str_list(tbl, "param-types"),
            held_in_impls: config::get_str_list(tbl, "held-in-impls"),
            condvars: config::get_str_list(tbl, "condvars"),
            fields: config::get_str_list(tbl, "fields"),
        };
        if (!class.condvars.is_empty() || !class.fields.is_empty()) && class.files.is_empty() {
            return cfg_err(format!(
                "lint.toml: lock-class `{name}` has condvars/fields but no `files` scope — \
                 declaration names are ambiguous across crates, scope them"
            ));
        }
        if !class.lock_exprs.is_empty() && class.files.is_empty() {
            return cfg_err(format!(
                "lint.toml: lock-class `{name}` has lock-exprs but no `files` scope — \
                 field-name suffixes are ambiguous across crates, scope them"
            ));
        }
        if cfg.checker.classes.iter().any(|c| c.name == name) {
            return cfg_err(format!("lint.toml: duplicate lock-class `{name}`"));
        }
        cfg.checker.classes.push(class);
    }

    if let Some(lo) = config::get_table(&root, "lock-order") {
        for edge in config::get_str_list(lo, "edges") {
            let Some((a, b)) = edge.split_once('<') else {
                return cfg_err(format!(
                    "lint.toml: lock-order edge `{edge}` must be `outer < inner`"
                ));
            };
            let (a, b) = (a.trim().to_string(), b.trim().to_string());
            for side in [&a, &b] {
                if !cfg.checker.classes.iter().any(|c| &c.name == side) {
                    return cfg_err(format!(
                        "lint.toml: lock-order edge references unknown class `{side}`"
                    ));
                }
            }
            cfg.checker.order_edges.push((a, b));
        }
    }
    // Cycles are a config error, caught at load time.
    cfg.checker.order_closure()?;

    if let Some(rules_tbl) = config::get_table(&root, "rules") {
        for key in rules_tbl.keys() {
            if !ALL_RULES.contains(&key.as_str()) {
                return cfg_err(format!(
                    "lint.toml: unknown rule `{key}` (known: {})",
                    ALL_RULES.join(", ")
                ));
            }
        }
        if let Some(t) = config::get_table(rules_tbl, rules::RULE_NO_INDEX) {
            cfg.checker.no_index = Some(NoIndexRule { files: config::get_str_list(t, "files") });
        }
        if let Some(t) = config::get_table(rules_tbl, rules::RULE_LOCK_ORDER) {
            cfg.checker.lock_order =
                Some(LockOrderRule { files: config::get_str_list(t, "files") });
        }
        if let Some(t) = config::get_table(rules_tbl, rules::RULE_NO_IO) {
            let allow_under = config::get_str_list(t, "allow-under");
            for class in &allow_under {
                require_class(&cfg.checker, class)?;
            }
            cfg.checker.no_io = Some(NoIoRule {
                files: config::get_str_list(t, "files"),
                calls: config::get_str_list(t, "calls"),
                allow_under,
            });
        }
        if let Some(t) = config::get_table(rules_tbl, rules::RULE_NO_BLOCKING) {
            cfg.checker.no_blocking = Some(NoBlockingRule {
                files: config::get_str_list(t, "files"),
                calls: config::get_str_list(t, "calls"),
                condvar_waits: config::get_str_list(t, "condvar-waits"),
            });
        }
        if let Some(t) = config::get_table(rules_tbl, rules::RULE_LOCK_COVERAGE) {
            let mut rule = LockCoverageRule::default();
            let types = config::get_str_list(t, "types");
            if !types.is_empty() {
                rule.types = types;
            }
            cfg.checker.lock_coverage = Some(rule);
        }
    }

    for tbl in config::get_table_array(&root, "suppress") {
        let rule =
            config::get_str(tbl, "rule").ok_or("lint.toml: [[suppress]] entry missing `rule`")?;
        if !ALL_RULES.contains(&rule.as_str()) {
            return cfg_err(format!("lint.toml: [[suppress]] names unknown rule `{rule}`"));
        }
        let file =
            config::get_str(tbl, "file").ok_or("lint.toml: [[suppress]] entry missing `file`")?;
        let reason = config::get_str(tbl, "reason").unwrap_or_default();
        if reason.trim().is_empty() {
            return cfg_err(format!(
                "lint.toml: [[suppress]] for `{rule}` in `{file}` has no `reason` — every \
                 suppression must carry a written justification"
            ));
        }
        cfg.suppress.push(TomlSuppress {
            rule,
            file,
            contains: config::get_str(tbl, "contains"),
            reason,
        });
    }

    Ok(cfg)
}

fn require_class(checker: &CheckerConfig, name: &str) -> Result<(), String> {
    if checker.classes.iter().any(|c| c.name == name) {
        Ok(())
    } else {
        cfg_err(format!("lint.toml: `{name}` names an undeclared lock-class"))
    }
}

pub fn load_config_file(path: &Path) -> Result<LintConfig, String> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    load_config_str(&src)
}

/// Lint one file's source. `file` is the workspace-relative path used for
/// rule scoping and reporting. `used_toml` collects indices of matched
/// [[suppress]] entries so `run` can warn about stale ones.
pub fn check_file(
    file: &str,
    src: &str,
    cfg: &LintConfig,
    used_toml: &mut BTreeSet<usize>,
) -> FileResult {
    let mut res = FileResult::default();
    let (toks, directives) = lexer::lex(src);
    let funcs = scopes::extract_funcs(&toks);

    let mut raw: Vec<Violation> = Vec::new();
    for f in &funcs {
        rules::check_func(f, file, &cfg.checker, &mut raw);
    }
    rules::check_lock_coverage(&toks, &funcs, file, &cfg.checker, &mut raw);

    // Directive hygiene first: malformed, unknown-rule, or reason-less
    // directives are violations in their own right and never suppress.
    let mut valid: BTreeMap<u32, Vec<&lexer::Directive>> = BTreeMap::new();
    for d in &directives {
        if let Some(what) = &d.malformed {
            res.violations.push(Violation {
                rule: RULE_DIRECTIVE.into(),
                file: file.into(),
                line: d.line,
                msg: format!("malformed suppression directive: {what}"),
            });
        } else if !ALL_RULES.contains(&d.rule.as_str()) {
            res.violations.push(Violation {
                rule: RULE_DIRECTIVE.into(),
                file: file.into(),
                line: d.line,
                msg: format!("suppression names unknown rule `{}`", d.rule),
            });
        } else if d.reason.is_empty() {
            res.violations.push(Violation {
                rule: RULE_DIRECTIVE.into(),
                file: file.into(),
                line: d.line,
                msg: format!(
                    "suppression of `{}` has no justification — write \
                     `// sirep-lint: allow({}): <why this site is safe>`",
                    d.rule, d.rule
                ),
            });
        } else {
            valid.entry(d.line).or_default().push(d);
        }
    }

    // Apply suppressions.
    let mut used_inline: BTreeSet<u32> = BTreeSet::new();
    'viol: for v in raw {
        // Inline: same line, or the contiguous directive run directly above.
        let mut lines = vec![v.line];
        let mut l = v.line;
        while l > 1 && valid.contains_key(&(l - 1)) {
            l -= 1;
            lines.push(l);
        }
        for l in lines {
            if let Some(ds) = valid.get(&l) {
                if ds.iter().any(|d| d.rule == v.rule) {
                    used_inline.insert(l);
                    res.suppressed.push(Suppressed { violation: v, via: "inline".into() });
                    continue 'viol;
                }
            }
        }
        // lint.toml [[suppress]].
        for (idx, s) in cfg.suppress.iter().enumerate() {
            if s.rule == v.rule
                && rules::file_matches(&v.file, &s.file)
                && s.contains.as_deref().is_none_or(|c| v.msg.contains(c))
            {
                used_toml.insert(idx);
                res.suppressed.push(Suppressed { violation: v, via: "lint.toml".into() });
                continue 'viol;
            }
        }
        res.violations.push(v);
    }

    for (line, ds) in &valid {
        if !used_inline.contains(line) {
            for d in ds {
                res.warnings.push(format!(
                    "{file}:{line}: suppression of `{}` matched no violation (stale?)",
                    d.rule
                ));
            }
        }
    }
    res
}

/// Walk the workspace and lint every in-scope `.rs` file.
pub fn run(workspace_root: &Path, cfg: &LintConfig) -> Result<Report, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    for root in &cfg.roots {
        let dir = workspace_root.join(root);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();

    let mut report = Report::default();
    let mut used_toml: BTreeSet<usize> = BTreeSet::new();
    for path in files {
        let rel =
            path.strip_prefix(workspace_root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        if cfg.exclude.iter().any(|e| rel.starts_with(e.as_str())) {
            continue;
        }
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        report.files_scanned += 1;
        let res = check_file(&rel, &src, cfg, &mut used_toml);
        report.violations.extend(res.violations);
        report.suppressed.extend(res.suppressed);
        report.warnings.extend(res.warnings);
    }
    for (idx, s) in cfg.suppress.iter().enumerate() {
        if !used_toml.contains(&idx) {
            report.warnings.push(format!(
                "lint.toml: [[suppress]] for `{}` in `{}` matched no violation (stale?)",
                s.rule, s.file
            ));
        }
    }
    report.violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

/// Render a [`Report`] as the `results/LINT.json` machine-readable form.
/// Hand-rolled (the lint crate is dependency-free); strings are escaped
/// per JSON's required set.
pub fn report_to_json(report: &Report) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    fn viol(v: &Violation, suppressed: Option<&str>) -> String {
        let mut s = format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"msg\":\"{}\"",
            esc(&v.rule),
            esc(&v.file),
            v.line,
            esc(&v.msg)
        );
        match suppressed {
            Some(via) => s.push_str(&format!(",\"suppressed\":true,\"via\":\"{}\"}}", esc(via))),
            None => s.push_str(",\"suppressed\":false}"),
        }
        s
    }
    let violations: Vec<String> = report.violations.iter().map(|v| viol(v, None)).collect();
    let suppressed: Vec<String> =
        report.suppressed.iter().map(|s| viol(&s.violation, Some(&s.via))).collect();
    let warnings: Vec<String> = report.warnings.iter().map(|w| format!("\"{}\"", esc(w))).collect();
    format!(
        "{{\n\"files_scanned\":{},\n\"violations\":[{}],\n\"suppressed\":[{}],\n\"warnings\":[{}]\n}}\n",
        report.files_scanned,
        violations.join(","),
        suppressed.join(","),
        warnings.join(",")
    )
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir entry: {e}"))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI_CFG: &str = r#"
[[lock-class]]
name = "node-state"
lock-exprs = ["state.lock"]
files = ["node.rs"]

[[lock-class]]
name = "gcs-group"
acquire-fns = ["multicast_total"]

[lock-order]
edges = ["node-state < gcs-group"]

[rules.no-io-under-lock]
files = ["node.rs"]
calls = ["write_all"]
"#;

    fn lint_one(cfg: &LintConfig, src: &str) -> FileResult {
        let mut used = BTreeSet::new();
        check_file("node.rs", src, cfg, &mut used)
    }

    #[test]
    fn end_to_end_violation_and_suppression() {
        let cfg = load_config_str(MINI_CFG).unwrap();
        let bad = "impl N { fn f(&self) { let st = self.state.lock(); self.sock.write_all(b); } }";
        assert_eq!(lint_one(&cfg, bad).violations.len(), 1);

        let ok = "impl N { fn f(&self) { { let st = self.state.lock(); } \
                  self.sock.write_all(b); } }";
        assert!(lint_one(&cfg, ok).violations.is_empty());

        let suppressed = "impl N { fn f(&self) { let st = self.state.lock();\n\
             // sirep-lint: allow(no-io-under-lock): a test socket nobody else waits on\n\
             self.sock.write_all(b); } }";
        let res = lint_one(&cfg, suppressed);
        assert!(res.violations.is_empty(), "{:?}", res.violations);
    }

    #[test]
    fn suppression_without_reason_is_a_violation() {
        let cfg = load_config_str(MINI_CFG).unwrap();
        let src = "impl N { fn f(&self) { let st = self.state.lock();\n\
             // sirep-lint: allow(no-io-under-lock)\n\
             self.sock.write_all(b); } }";
        let res = lint_one(&cfg, src);
        // Both the original violation (unsuppressed) and the bad directive.
        assert_eq!(res.violations.len(), 2, "{:?}", res.violations);
        assert!(res.violations.iter().any(|v| v.rule == RULE_DIRECTIVE));
    }

    #[test]
    fn toml_suppression_requires_reason() {
        let bad =
            format!("{MINI_CFG}\n[[suppress]]\nrule = \"no-io-under-lock\"\nfile = \"node.rs\"\n");
        assert!(load_config_str(&bad).is_err());
    }

    #[test]
    fn order_cycle_rejected_at_load() {
        let src = r#"
[[lock-class]]
name = "a"
acquire-fns = ["fa"]

[[lock-class]]
name = "b"
acquire-fns = ["fb"]

[lock-order]
edges = ["a < b", "b < a"]
"#;
        let err = load_config_str(src).unwrap_err();
        assert!(err.contains("cycle"), "{err}");
    }

    #[test]
    fn unknown_sections_and_rules_rejected() {
        assert!(load_config_str("[typo]\nx = 1\n").is_err());
        assert!(load_config_str("[rules.not-a-rule]\nfiles = []\n").is_err());
    }
}
