//! Cross-artifact registry checks.
//!
//! The protocol's observability artifacts form closed registries that the
//! compiler only partially checks:
//!
//! - **wire-tag-registry**: every `impl Wire` that writes a discriminant
//!   byte must use each tag once, and the decode arms must cover exactly
//!   the encoded tag set. The compiler cannot see that `out.push(7)` in
//!   `encode` and `7 => ..` in `decode` talk about the same byte; a
//!   skipped or duplicated tag silently corrupts every peer.
//! - **journal-consumer-registry**: every `EventKind` variant must be
//!   consumed by each declared consumer (the 1-copy-SI checker, the
//!   Perfetto exporter) or sit on that consumer's justified ignore-list.
//!   A new event that the checker silently ignores is an invariant with
//!   no referee.
//! - **chaos-point-registry**: every `CrashPoint`/`PausePoint` variant
//!   must have a hook site (`crash_point(CrashPoint::X)` /
//!   `pause_point(PausePoint::Y)`) in the protocol code. An armed point
//!   with no hook never fires, and the failover case it was written to
//!   exercise goes untested forever.
//!
//! Wire tags are per-file (an `impl Wire` never spans files) and run
//! inside `check_file`, so inline suppressions work. The other two are
//! cross-file: [`Scan::scan_file`] collects per-file facts during the
//! workspace walk and [`Scan::finish`] reports once every file has been
//! seen. Cross-file findings can only be suppressed via lint.toml
//! `[[suppress]]` (there is no single line to hang a directive on).

use crate::lexer::Tok;
use crate::rules::{
    file_in_scope, file_matches, Violation, RULE_CHAOS_POINTS, RULE_JOURNAL_CONSUMERS,
    RULE_WIRE_TAGS,
};
use crate::scopes::Func;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone, Default)]
pub struct WireTagRule {
    /// File scope; empty = every scanned file.
    pub files: Vec<String>,
}

/// One justified "this consumer deliberately ignores this variant" entry,
/// parsed from `"<consumer-file>: <Variant>: <reason>"`.
#[derive(Debug, Clone)]
pub struct ConsumerIgnore {
    pub file: String,
    pub variant: String,
    pub reason: String,
}

#[derive(Debug, Clone, Default)]
pub struct JournalConsumerRule {
    /// File (suffix) declaring the enum.
    pub enum_file: String,
    pub enum_name: String,
    /// Files that must each consume every variant.
    pub consumers: Vec<String>,
    pub ignore: Vec<ConsumerIgnore>,
}

#[derive(Debug, Clone, Default)]
pub struct ChaosPointRule {
    /// `(declaring file suffix, enum name)` pairs.
    pub enums: Vec<(String, String)>,
    /// Protocol files where `Enum::Variant` hook sites must appear.
    pub hook_files: Vec<String>,
}

#[derive(Debug, Clone, Default)]
pub struct RegistryRules {
    pub wire_tags: Option<WireTagRule>,
    pub journal_consumers: Option<JournalConsumerRule>,
    pub chaos_points: Option<ChaosPointRule>,
}

// ---------------------------------------------------------------------
// wire-tag-registry (per-file)
// ---------------------------------------------------------------------

/// Check every `impl Wire for T` in one file: encode tags unique, decode
/// tags unique, and the two sets equal.
pub fn check_wire_tags(funcs: &[Func], file: &str, rule: &WireTagRule, out: &mut Vec<Violation>) {
    if !rule.files.is_empty() && !file_in_scope(file, &rule.files) {
        return;
    }
    // Pair encode/decode by impl type. An impl never spans files, and no
    // file in this workspace has two `Wire` impls for one type name.
    let mut pairs: BTreeMap<&str, (Option<&Func>, Option<&Func>)> = BTreeMap::new();
    for f in funcs {
        if f.is_test || f.impl_trait.as_deref() != Some("Wire") {
            continue;
        }
        let Some(ty) = f.impl_type.as_deref() else { continue };
        let slot = pairs.entry(ty).or_default();
        match f.name.as_str() {
            "encode" => slot.0 = Some(f),
            "decode" => slot.1 = Some(f),
            _ => {}
        }
    }
    for (ty, (enc, dec)) in pairs {
        let enc_tags = enc.map(|f| encode_tags(&f.body)).unwrap_or_default();
        let dec_tags = dec.map(|f| decode_tags(&f.body)).unwrap_or_default();
        report_dupes(ty, "encode", &enc_tags, file, out);
        report_dupes(ty, "decode", &dec_tags, file, out);
        let enc_set: BTreeSet<u64> = enc_tags.iter().map(|&(v, _)| v).collect();
        let dec_set: BTreeSet<u64> = dec_tags.iter().map(|&(v, _)| v).collect();
        if enc_set == dec_set || (enc_set.is_empty() && dec_set.is_empty()) {
            continue;
        }
        let missing_dec: Vec<u64> = enc_set.difference(&dec_set).copied().collect();
        let missing_enc: Vec<u64> = dec_set.difference(&enc_set).copied().collect();
        let line = dec.or(enc).map_or(0, |f| f.line);
        let mut parts = Vec::new();
        if !missing_dec.is_empty() {
            parts.push(format!("encoded but never decoded: {}", fmt_tags(&missing_dec)));
        }
        if !missing_enc.is_empty() {
            parts.push(format!("decoded but never encoded: {}", fmt_tags(&missing_enc)));
        }
        out.push(Violation {
            rule: RULE_WIRE_TAGS.into(),
            file: file.into(),
            line,
            msg: format!(
                "`impl Wire for {ty}` has asymmetric tag bytes ({}): every tag written by \
                 `encode` must have a `decode` arm and vice versa",
                parts.join("; ")
            ),
        });
    }
}

fn fmt_tags(tags: &[u64]) -> String {
    tags.iter().map(std::string::ToString::to_string).collect::<Vec<_>>().join(", ")
}

fn report_dupes(ty: &str, side: &str, tags: &[(u64, u32)], file: &str, out: &mut Vec<Violation>) {
    let mut seen: BTreeMap<u64, u32> = BTreeMap::new();
    for &(v, line) in tags {
        if let Some(first) = seen.get(&v) {
            out.push(Violation {
                rule: RULE_WIRE_TAGS.into(),
                file: file.into(),
                line,
                msg: format!(
                    "`impl Wire for {ty}` {side} uses tag {v} twice (first at line {first}): \
                     wire tags must be unique per message"
                ),
            });
        } else {
            seen.insert(v, line);
        }
    }
}

/// Tag literals in an `encode` body: `push(<int>)`, `<int>.encode(..)`,
/// and `=> <int>` match-arm values (the `let tag = match .. {..}` idiom).
fn encode_tags(body: &[Tok]) -> Vec<(u64, u32)> {
    let mut out = Vec::new();
    for (i, t) in body.iter().enumerate() {
        if t.ident() == Some("push")
            && body.get(i + 1).is_some_and(|t| t.is_punct('('))
            && body.get(i + 3).is_some_and(|t| t.is_punct(')'))
        {
            if let Some(v) = body.get(i + 2).and_then(Tok::int_lit) {
                out.push((v, body[i + 2].line));
            }
        } else if let Some(v) = t.int_lit() {
            // `<int>.encode(..)` is a tag only when the literal is not
            // itself a field access: `self.0.encode(out)` is tuple-field
            // forwarding, not a tag byte.
            let dot_encode = body.get(i + 1).is_some_and(|t| t.is_punct('.'))
                && body.get(i + 2).and_then(Tok::ident) == Some("encode")
                && !(i >= 1 && body[i - 1].is_punct('.'));
            let arm_value = i >= 2 && body[i - 1].is_punct('>') && body[i - 2].is_punct('=');
            if dot_encode || arm_value {
                out.push((v, t.line));
            }
        }
    }
    out
}

/// Tag literals in a `decode` body: `<int> =>` match-arm patterns.
fn decode_tags(body: &[Tok]) -> Vec<(u64, u32)> {
    let mut out = Vec::new();
    for (i, t) in body.iter().enumerate() {
        if let Some(v) = t.int_lit() {
            if body.get(i + 1).is_some_and(|t| t.is_punct('='))
                && body.get(i + 2).is_some_and(|t| t.is_punct('>'))
            {
                out.push((v, t.line));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Cross-file scans (journal consumers, chaos points)
// ---------------------------------------------------------------------

/// Facts collected across the workspace walk for the cross-file checks.
#[derive(Debug, Default)]
pub struct Scan {
    /// Enum name -> declared variants `(name, line)`, from the configured
    /// declaring file.
    enums: BTreeMap<String, Vec<(String, u32)>>,
    /// Enum name -> declaring file as actually seen (for reporting).
    enum_seen_in: BTreeMap<String, String>,
    /// Consumer file pattern -> variants referenced (`Enum::Variant`) in
    /// that consumer's non-test code.
    consumer_uses: BTreeMap<String, BTreeSet<String>>,
    /// Chaos enum name -> variants referenced across all hook files.
    hook_uses: BTreeMap<String, BTreeSet<String>>,
}

impl Scan {
    /// Collect registry facts from one lexed file.
    pub fn scan_file(&mut self, file: &str, toks: &[Tok], funcs: &[Func], rules: &RegistryRules) {
        let mut wanted_enums: Vec<&str> = Vec::new();
        if let Some(jc) = &rules.journal_consumers {
            if file_matches(file, &jc.enum_file) {
                wanted_enums.push(&jc.enum_name);
            }
            for pat in &jc.consumers {
                if file_matches(file, pat) {
                    let uses = qualified_uses(toks, funcs, &jc.enum_name);
                    self.consumer_uses.entry(pat.clone()).or_default().extend(uses);
                }
            }
        }
        if let Some(cp) = &rules.chaos_points {
            for (efile, ename) in &cp.enums {
                if file_matches(file, efile) {
                    wanted_enums.push(ename);
                }
            }
            if file_in_scope(file, &cp.hook_files) {
                for (_, ename) in &cp.enums {
                    let uses = qualified_uses(toks, funcs, ename);
                    self.hook_uses.entry(ename.clone()).or_default().extend(uses);
                }
            }
        }
        for ename in wanted_enums {
            if let Some(vars) = enum_variants(toks, ename) {
                self.enums.insert(ename.to_string(), vars);
                self.enum_seen_in.insert(ename.to_string(), file.to_string());
            }
        }
    }

    /// Report once the whole workspace has been scanned.
    pub fn finish(&self, rules: &RegistryRules, out: &mut Vec<Violation>) {
        if let Some(jc) = &rules.journal_consumers {
            self.finish_journal(jc, out);
        }
        if let Some(cp) = &rules.chaos_points {
            self.finish_chaos(cp, out);
        }
    }

    fn finish_journal(&self, jc: &JournalConsumerRule, out: &mut Vec<Violation>) {
        let Some(variants) = self.enums.get(&jc.enum_name) else {
            out.push(Violation {
                rule: RULE_JOURNAL_CONSUMERS.into(),
                file: jc.enum_file.clone(),
                line: 0,
                msg: format!(
                    "enum `{}` not found in `{}` — fix the [rules.journal-consumer-registry] \
                     config",
                    jc.enum_name, jc.enum_file
                ),
            });
            return;
        };
        let declared: BTreeSet<&str> = variants.iter().map(|(v, _)| v.as_str()).collect();
        for ig in &jc.ignore {
            if !jc.consumers.iter().any(|c| c == &ig.file) {
                out.push(Violation {
                    rule: RULE_JOURNAL_CONSUMERS.into(),
                    file: ig.file.clone(),
                    line: 0,
                    msg: format!(
                        "ignore entry for `{}` names `{}` which is not a declared consumer",
                        ig.variant, ig.file
                    ),
                });
            }
            if !declared.contains(ig.variant.as_str()) {
                out.push(Violation {
                    rule: RULE_JOURNAL_CONSUMERS.into(),
                    file: ig.file.clone(),
                    line: 0,
                    msg: format!(
                        "ignore entry names unknown `{}::{}` — the variant was renamed or \
                         removed; update the ignore-list",
                        jc.enum_name, ig.variant
                    ),
                });
            }
        }
        for consumer in &jc.consumers {
            let used = self.consumer_uses.get(consumer).cloned().unwrap_or_default();
            let ignored: BTreeSet<&str> = jc
                .ignore
                .iter()
                .filter(|ig| &ig.file == consumer)
                .map(|ig| ig.variant.as_str())
                .collect();
            for (variant, _) in variants {
                let is_used = used.contains(variant);
                let is_ignored = ignored.contains(variant.as_str());
                if !is_used && !is_ignored {
                    out.push(Violation {
                        rule: RULE_JOURNAL_CONSUMERS.into(),
                        file: consumer.clone(),
                        line: 0,
                        msg: format!(
                            "journal event `{}::{variant}` is not consumed by `{consumer}` and \
                             not on its ignore-list: every protocol event needs a referee — \
                             handle it or add a justified ignore entry",
                            jc.enum_name
                        ),
                    });
                } else if is_used && is_ignored {
                    out.push(Violation {
                        rule: RULE_JOURNAL_CONSUMERS.into(),
                        file: consumer.clone(),
                        line: 0,
                        msg: format!(
                            "stale ignore entry: `{consumer}` now consumes `{}::{variant}` — \
                             delete the ignore entry",
                            jc.enum_name
                        ),
                    });
                }
            }
        }
    }

    fn finish_chaos(&self, cp: &ChaosPointRule, out: &mut Vec<Violation>) {
        for (efile, ename) in &cp.enums {
            let Some(variants) = self.enums.get(ename) else {
                out.push(Violation {
                    rule: RULE_CHAOS_POINTS.into(),
                    file: efile.clone(),
                    line: 0,
                    msg: format!(
                        "enum `{ename}` not found in `{efile}` — fix the \
                         [rules.chaos-point-registry] config"
                    ),
                });
                continue;
            };
            let hooked = self.hook_uses.get(ename).cloned().unwrap_or_default();
            let file = self.enum_seen_in.get(ename).cloned().unwrap_or_else(|| efile.clone());
            for (variant, line) in variants {
                if !hooked.contains(variant) {
                    out.push(Violation {
                        rule: RULE_CHAOS_POINTS.into(),
                        file: file.clone(),
                        line: *line,
                        msg: format!(
                            "chaos point `{ename}::{variant}` has no hook site in any of [{}]: \
                             an armed point with no hook never fires, so the failover case it \
                             models is untested",
                            cp.hook_files.join(", ")
                        ),
                    });
                }
            }
        }
    }
}

/// All `Enum::Variant` references in non-test code.
fn qualified_uses(toks: &[Tok], funcs: &[Func], ename: &str) -> BTreeSet<String> {
    let test_ranges: Vec<(u32, u32)> = funcs
        .iter()
        .filter(|f| f.is_test)
        .map(|f| (f.line, f.body.last().map_or(f.line, |t| t.line)))
        .collect();
    let in_test = |line: u32| test_ranges.iter().any(|&(a, b)| line >= a && line <= b);
    let mut out = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if t.ident() == Some(ename)
            && !in_test(t.line)
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            if let Some(v) = toks.get(i + 3).and_then(Tok::ident) {
                // Skip associated fns (`EventKind::decode`): variants are
                // CamelCase, methods snake_case.
                if v.chars().next().is_some_and(char::is_uppercase) {
                    out.insert(v.to_string());
                }
            }
        }
    }
    out
}

/// Parse `enum <name> { .. }`'s variant list from a token stream.
fn enum_variants(toks: &[Tok], name: &str) -> Option<Vec<(String, u32)>> {
    let mut i = 0;
    while i + 2 < toks.len() {
        if toks[i].ident() == Some("enum") && toks[i + 1].ident() == Some(name) {
            // Skip generics to the opening brace.
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') {
                if toks[j].is_punct(';') {
                    break;
                }
                j += 1;
            }
            if j >= toks.len() || !toks[j].is_punct('{') {
                return None;
            }
            return Some(collect_variants(toks, j + 1));
        }
        i += 1;
    }
    None
}

fn collect_variants(toks: &[Tok], start: usize) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let mut depth = 1usize;
    let mut expect = true; // at a position where a variant name may start
    let mut i = start;
    while i < toks.len() && depth > 0 {
        let t = &toks[i];
        match () {
            _ if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') => {
                depth += 1;
                if depth == 2 && t.is_punct('[') {
                    // An attribute on the next variant: skip it wholesale so
                    // its idents are not taken for a variant name.
                    let mut d = 1;
                    i += 1;
                    while i < toks.len() && d > 0 {
                        if toks[i].is_punct('[') {
                            d += 1;
                        } else if toks[i].is_punct(']') {
                            d -= 1;
                        }
                        i += 1;
                    }
                    depth -= 1;
                    continue;
                }
            }
            _ if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') => {
                depth -= 1;
            }
            _ if t.is_punct(',') && depth == 1 => expect = true,
            _ if t.is_punct('#') => {}
            _ => {
                if depth == 1 && expect {
                    if let Some(id) = t.ident() {
                        out.push((id.to_string(), t.line));
                        expect = false;
                    }
                }
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scopes::extract_funcs;

    fn wire_violations(src: &str) -> Vec<Violation> {
        let (toks, _) = lex(src);
        let funcs = extract_funcs(&toks);
        let mut out = Vec::new();
        check_wire_tags(&funcs, "wire.rs", &WireTagRule::default(), &mut out);
        out
    }

    #[test]
    fn symmetric_tags_pass() {
        let v = wire_violations(
            "impl Wire for Frame {\n\
             fn encode(&self, out: &mut Vec<u8>) { match self {\n\
               Frame::A => out.push(0), Frame::B { x } => { out.push(1); x.encode(out); } } }\n\
             fn decode(r: &mut R) -> Result<Self, E> { match u8::decode(r)? {\n\
               0 => Ok(Frame::A), 1 => Ok(Frame::B { x: u64::decode(r)? }),\n\
               _ => Err(E::Corrupt) } }\n\
             }",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn missing_decode_arm_is_flagged() {
        let v = wire_violations(
            "impl Wire for Frame {\n\
             fn encode(&self, out: &mut Vec<u8>) { match self {\n\
               Frame::A => out.push(0), Frame::B => out.push(1) } }\n\
             fn decode(r: &mut R) -> Result<Self, E> { match u8::decode(r)? {\n\
               0 => Ok(Frame::A), _ => Err(E::Corrupt) } }\n\
             }",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("encoded but never decoded: 1"), "{}", v[0].msg);
    }

    #[test]
    fn duplicate_tag_is_flagged() {
        let v = wire_violations(
            "impl Wire for Frame {\n\
             fn encode(&self, out: &mut Vec<u8>) { match self {\n\
               Frame::A => out.push(1), Frame::B => out.push(1) } }\n\
             fn decode(r: &mut R) -> Result<Self, E> { match u8::decode(r)? {\n\
               1 => Ok(Frame::A), _ => Err(E::Corrupt) } }\n\
             }",
        );
        assert!(v.iter().any(|v| v.msg.contains("uses tag 1 twice")), "{v:?}");
    }

    #[test]
    fn tag_dot_encode_and_arm_value_idioms_are_read() {
        // The `let tag = match { .. => 2 }; tag.encode(..)` and
        // `2u8.encode(..)` styles both count as encode tags.
        let v = wire_violations(
            "impl Wire for K {\n\
             fn encode(&self, out: &mut Vec<u8>) {\n\
               match self { K::A => 0u8.encode(out), K::B => { 1u8.encode(out); } } }\n\
             fn decode(r: &mut R) -> Result<Self, E> { match u8::decode(r)? {\n\
               0 => Ok(K::A), 1 => Ok(K::B), _ => Err(E::Corrupt) } }\n\
             }",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn enum_variants_and_uses() {
        let (toks, _) = lex("pub enum EventKind {\n\
               TxBegin { xact: XactId },\n\
               #[cfg(feature = \"x\")] Commit { tid: u64 },\n\
               Abort,\n\
             }\n\
             fn consume(k: EventKind) { match k { EventKind::TxBegin { .. } => {}, _ => {} } }\n\
             #[cfg(test)] mod tests { #[test] fn t() { let _ = EventKind::Abort; } }");
        let vars = enum_variants(&toks, "EventKind").unwrap();
        let names: Vec<&str> = vars.iter().map(|(v, _)| v.as_str()).collect();
        assert_eq!(names, ["TxBegin", "Commit", "Abort"]);
        let funcs = extract_funcs(&toks);
        let uses = qualified_uses(&toks, &funcs, "EventKind");
        assert!(uses.contains("TxBegin"));
        assert!(!uses.contains("Abort"), "test-only uses do not count as consumption");
    }

    #[test]
    fn journal_consumer_finish_reports_missing_and_stale() {
        let rules = RegistryRules {
            journal_consumers: Some(JournalConsumerRule {
                enum_file: "journal.rs".into(),
                enum_name: "EventKind".into(),
                consumers: vec!["offline.rs".into()],
                ignore: vec![ConsumerIgnore {
                    file: "offline.rs".into(),
                    variant: "TxBegin".into(),
                    reason: "replays commit-path only".into(),
                }],
            }),
            ..Default::default()
        };
        let mut scan = Scan::default();
        let (jt, _) = lex("pub enum EventKind { TxBegin, Commit, Abort }");
        scan.scan_file("journal.rs", &jt, &extract_funcs(&jt), &rules);
        let (ct, _) = lex("fn f(k: EventKind) { match k { EventKind::Commit => {}, _ => {} } }");
        scan.scan_file("offline.rs", &ct, &extract_funcs(&ct), &rules);
        let mut out = Vec::new();
        scan.finish(&rules, &mut out);
        // `Abort` unconsumed and unignored; `TxBegin` ignored (ok);
        // `Commit` consumed (ok).
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].msg.contains("EventKind::Abort"), "{}", out[0].msg);

        // Consuming an ignored variant makes the ignore entry stale.
        let mut scan2 = Scan::default();
        scan2.scan_file("journal.rs", &jt, &extract_funcs(&jt), &rules);
        let (ct2, _) = lex("fn f(k: EventKind) { match k {\n\
               EventKind::Commit => {}, EventKind::TxBegin => {}, EventKind::Abort => {} } }");
        scan2.scan_file("offline.rs", &ct2, &extract_funcs(&ct2), &rules);
        let mut out2 = Vec::new();
        scan2.finish(&rules, &mut out2);
        assert_eq!(out2.len(), 1, "{out2:?}");
        assert!(out2[0].msg.contains("stale ignore"), "{}", out2[0].msg);
    }

    #[test]
    fn chaos_point_finish_reports_unhooked_variant() {
        let rules = RegistryRules {
            chaos_points: Some(ChaosPointRule {
                enums: vec![("journal.rs".into(), "CrashPoint".into())],
                hook_files: vec!["node.rs".into()],
            }),
            ..Default::default()
        };
        let mut scan = Scan::default();
        let (jt, _) = lex("pub enum CrashPoint { BeforeMulticast, MidStateTransfer }");
        scan.scan_file("journal.rs", &jt, &extract_funcs(&jt), &rules);
        let (nt, _) =
            lex("fn f(&self) { if self.crash_point(CrashPoint::BeforeMulticast) { return; } }");
        scan.scan_file("node.rs", &nt, &extract_funcs(&nt), &rules);
        let mut out = Vec::new();
        scan.finish(&rules, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].msg.contains("CrashPoint::MidStateTransfer"), "{}", out[0].msg);
    }
}
