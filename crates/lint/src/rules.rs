//! The invariant rules, evaluated over per-function control-flow graphs.
//!
//! Every rule here is named after a bug this repo actually shipped (see
//! DESIGN.md §13 and §18 for the full war stories):
//!
//! - `multicast-under-lock` — PR 1's lost update: a writeset multicast
//!   outside the node state lock let the ws_list prune watermark overtake
//!   an in-flight certification.
//! - `journal-gauge-under-lock` — PR 3's gauge drift: a gauge increment
//!   after the send raced the receiver's decrement; journal events written
//!   outside the lock interleave out of protocol order.
//! - `no-ambient-nondeterminism` — PR 4's determinism pillar: the fault
//!   schedule must be a pure function of `(seed, msg, member)`; one
//!   `Instant::now` or `HashMap` iteration silently regresses seed replay.
//! - `no-unwrap-on-protocol-paths` — commit/apply/recovery code must route
//!   failures through `DbError`, not panic a replica thread.
//! - `lock-ordering` — a declared partial order over the workspace's
//!   locks, checked at every statically visible nested-acquire site.
//! - `no-io-under-lock` — PR 7's telemetry discipline and PR 6's
//!   sequencer discipline: responses are materialized first, socket calls
//!   never run while a protocol guard is live (a slow peer would extend
//!   the critical section by a network round trip).
//! - `no-blocking-under-lock` — `Condvar` waits only with their declared
//!   paired mutex; channel `recv`, thread `join`, and `sleep` under any
//!   protocol guard stall every thread contending for it.
//! - `lock-coverage` — closed world: every `Mutex`/`RwLock`/`Condvar`
//!   declaration in the workspace must map to a `lint.toml` class, so
//!   lock-ordering is fail-closed instead of opt-in.
//!
//! Guard tracking is intra-procedural: [`crate::cfg`] builds basic blocks
//! from the token stream and [`crate::dataflow`] solves may/must guard
//! liveness. Rules that *require* a lock check the must-held set (a
//! single lock-free path is the bug); rules that *forbid* work under a
//! lock check the may-held set (one bad path is a real bad path).
//! Ambient evidence — a parameter of a lock-held type (`&NodeState`) or a
//! method of a type whose `&mut self` only exists under a lock — joins
//! both sets. Calls into functions that acquire locks internally are
//! modelled by per-class `acquire-fns` patterns.

use crate::scopes::Func;
use std::collections::BTreeSet;

pub const RULE_MULTICAST: &str = "multicast-under-lock";
pub const RULE_JOURNAL_GAUGE: &str = "journal-gauge-under-lock";
pub const RULE_NONDET: &str = "no-ambient-nondeterminism";
pub const RULE_NO_UNWRAP: &str = "no-unwrap-on-protocol-paths";
pub const RULE_LOCK_ORDER: &str = "lock-ordering";
pub const RULE_NO_IO: &str = "no-io-under-lock";
pub const RULE_NO_BLOCKING: &str = "no-blocking-under-lock";
pub const RULE_LOCK_COVERAGE: &str = "lock-coverage";
pub const RULE_WIRE_TAGS: &str = "wire-tag-registry";
pub const RULE_JOURNAL_CONSUMERS: &str = "journal-consumer-registry";
pub const RULE_CHAOS_POINTS: &str = "chaos-point-registry";
/// Pseudo-rule for broken suppression directives (malformed syntax or a
/// missing justification). Not suppressible, by design.
pub const RULE_DIRECTIVE: &str = "lint-directive";

pub const ALL_RULES: [&str; 11] = [
    RULE_MULTICAST,
    RULE_JOURNAL_GAUGE,
    RULE_NONDET,
    RULE_NO_UNWRAP,
    RULE_LOCK_ORDER,
    RULE_NO_IO,
    RULE_NO_BLOCKING,
    RULE_LOCK_COVERAGE,
    RULE_WIRE_TAGS,
    RULE_JOURNAL_CONSUMERS,
    RULE_CHAOS_POINTS,
];

#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: String,
    pub file: String,
    pub line: u32,
    pub msg: String,
}

/// A lock class: how acquisitions of one logical lock appear in source.
#[derive(Debug, Clone, Default)]
pub struct LockClass {
    pub name: String,
    /// Dotted path suffixes whose call yields a guard (`state.lock`,
    /// `nodes.read`). Scoped to `files` so the same field name can mean
    /// different locks in different crates.
    pub lock_exprs: Vec<String>,
    pub files: Vec<String>,
    /// Call-path suffixes that acquire this lock internally, from any
    /// file (`multicast_total`, `journal.record*`, `auditor.report*`).
    pub acquire_fns: Vec<String>,
    /// A parameter of this type proves the lock is held (`&NodeState`).
    pub param_types: Vec<String>,
    /// Methods of these types run with the lock held (`&mut self` only
    /// reachable under it).
    pub held_in_impls: Vec<String>,
    /// Condvar field names paired with this lock (`cond`, `pause_cond`):
    /// waiting on them is legal exactly while holding this class and
    /// nothing else. Also counts for `lock-coverage`.
    pub condvars: Vec<String>,
    /// Extra declaration names covered by this class for `lock-coverage`
    /// (fields or type aliases with no guard-producing call of their own,
    /// e.g. a `type Registry = Arc<Mutex<..>>` alias).
    pub fields: Vec<String>,
}

#[derive(Debug, Clone, Default)]
pub struct CallUnderLockRule {
    pub files: Vec<String>,
    pub calls: Vec<String>,
    pub requires: String,
}

#[derive(Debug, Clone, Default)]
pub struct JournalGaugeRule {
    pub files: Vec<String>,
    pub calls: Vec<String>,
    /// Path segments that identify a gauge owner (`gauges`, `injected`).
    pub gauge_owners: Vec<String>,
    pub gauge_methods: Vec<String>,
    pub requires: String,
}

#[derive(Debug, Clone, Default)]
pub struct NondetRule {
    pub files: Vec<String>,
    /// `::`-separated paths (`Instant::now`) or bare idents (`HashMap`).
    pub banned: Vec<String>,
}

#[derive(Debug, Clone, Default)]
pub struct NoUnwrapRule {
    pub files: Vec<String>,
    pub methods: Vec<String>,
    pub macros: Vec<String>,
    pub ban_indexing: bool,
}

#[derive(Debug, Clone, Default)]
pub struct LockOrderRule {
    pub files: Vec<String>,
}

#[derive(Debug, Clone, Default)]
pub struct NoIoRule {
    pub files: Vec<String>,
    /// Call-name suffixes that hit the network or disk (`write_all`,
    /// `read_exact`, `flush`, `accept`, `connect`, `shutdown`, plus this
    /// repo's framing helpers).
    pub calls: Vec<String>,
    /// Classes under which the listed calls are legal — the per-connection
    /// write lock exists precisely to serialize frame writes.
    pub allow_under: Vec<String>,
}

#[derive(Debug, Clone, Default)]
pub struct NoBlockingRule {
    pub files: Vec<String>,
    /// Unconditionally blocking call names (`recv`, `recv_timeout`,
    /// `join`, `sleep`): a violation under *any* declared guard.
    pub calls: Vec<String>,
    /// Condvar wait method names (`wait`, `wait_for`, `wait_while`,
    /// `wait_timeout`): legal only when the receiver is a declared
    /// condvar and nothing but its paired class is held.
    pub condvar_waits: Vec<String>,
}

#[derive(Debug, Clone)]
pub struct LockCoverageRule {
    /// Type names whose declarations must be classified.
    pub types: Vec<String>,
}

impl Default for LockCoverageRule {
    fn default() -> Self {
        LockCoverageRule { types: vec!["Mutex".into(), "RwLock".into(), "Condvar".into()] }
    }
}

#[derive(Debug, Clone, Default)]
pub struct CheckerConfig {
    pub classes: Vec<LockClass>,
    /// `(outer, inner)`: holding `outer` while acquiring `inner` is legal.
    pub order_edges: Vec<(String, String)>,
    pub multicast: Option<CallUnderLockRule>,
    /// One entry per scope: different files can require different locks
    /// (node events under node-state, fault events under gcs-group).
    pub journal_gauge: Vec<JournalGaugeRule>,
    pub nondet: Option<NondetRule>,
    pub no_unwrap: Option<NoUnwrapRule>,
    pub lock_order: Option<LockOrderRule>,
    pub no_io: Option<NoIoRule>,
    pub no_blocking: Option<NoBlockingRule>,
    pub lock_coverage: Option<LockCoverageRule>,
}

impl CheckerConfig {
    /// Transitive closure of the declared order; errors on a cycle.
    pub fn order_closure(&self) -> Result<BTreeSet<(String, String)>, String> {
        let mut closure: BTreeSet<(String, String)> = self.order_edges.iter().cloned().collect();
        loop {
            let mut added = false;
            let snapshot: Vec<_> = closure.iter().cloned().collect();
            for (a, b) in &snapshot {
                for (c, d) in &snapshot {
                    if b == c && !closure.contains(&(a.clone(), d.clone())) {
                        closure.insert((a.clone(), d.clone()));
                        added = true;
                    }
                }
            }
            if !added {
                break;
            }
        }
        for (a, b) in &closure {
            if a == b {
                return Err(format!("lock-order cycle through `{a}`"));
            }
        }
        Ok(closure)
    }
}

/// Does `path` end with dotted-pattern `pat`? A trailing `*` on the final
/// pattern segment makes it a prefix match (`journal.record*`).
pub fn suffix_matches(path: &[String], pat: &str) -> bool {
    let segs: Vec<&str> = pat.split('.').collect();
    if segs.len() > path.len() {
        return false;
    }
    let tail = &path[path.len() - segs.len()..];
    for (got, want) in tail.iter().zip(segs.iter()) {
        if let Some(prefix) = want.strip_suffix('*') {
            if !got.starts_with(prefix) {
                return false;
            }
        } else if got != want {
            return false;
        }
    }
    true
}

/// File-suffix match with `/` normalization.
pub fn file_matches(file: &str, pat: &str) -> bool {
    file.ends_with(pat)
}

pub fn file_in_scope(file: &str, files: &[String]) -> bool {
    files.iter().any(|p| file_matches(file, p))
}

/// Ambient lock-class evidence for one function: parameter types and
/// impl context.
pub fn ambient_classes(func: &Func, cfg: &CheckerConfig) -> BTreeSet<String> {
    let mut ambient = BTreeSet::new();
    for class in &cfg.classes {
        let by_param = class.param_types.iter().any(|ty| func.sig_mentions_type(ty));
        let by_impl =
            func.impl_type.as_deref().is_some_and(|t| class.held_in_impls.iter().any(|i| i == t));
        if by_param || by_impl {
            ambient.insert(class.name.clone());
        }
    }
    ambient
}

// ---------------------------------------------------------------------
// Per-function rules over CFG events
// ---------------------------------------------------------------------

/// Run all configured per-function rules over one function.
pub fn check_func(func: &Func, file: &str, cfg: &CheckerConfig, out: &mut Vec<Violation>) {
    if func.is_test {
        return;
    }
    let mc = cfg.multicast.as_ref().filter(|r| file_in_scope(file, &r.files));
    let jgs: Vec<&JournalGaugeRule> =
        cfg.journal_gauge.iter().filter(|r| file_in_scope(file, &r.files)).collect();
    let nu = cfg.no_unwrap.as_ref().filter(|r| file_in_scope(file, &r.files));
    let lo = cfg.lock_order.as_ref().filter(|r| file_in_scope(file, &r.files));
    let io = cfg.no_io.as_ref().filter(|r| file_in_scope(file, &r.files));
    let blk = cfg.no_blocking.as_ref().filter(|r| file_in_scope(file, &r.files));
    if mc.is_none()
        && jgs.is_empty()
        && nu.is_none()
        && lo.is_none()
        && io.is_none()
        && blk.is_none()
    {
        return;
    }
    let closure = cfg.order_closure().unwrap_or_default();
    let ambient = ambient_classes(func, cfg);
    let ctx = crate::cfg::GuardCtx { classes: &cfg.classes, file };
    let graph = crate::cfg::build(&func.body, &ctx);
    let flow = crate::dataflow::solve(&graph);
    crate::dataflow::events(&graph, &flow, &ambient, |ev| match ev {
        crate::dataflow::Event::Acquire { class, line, held_may, .. } => {
            let Some(_lo) = lo else { return };
            for outer in &held_may {
                if *outer == class {
                    out.push(Violation {
                        rule: RULE_LOCK_ORDER.into(),
                        file: file.into(),
                        line,
                        msg: format!(
                            "re-acquire of `{class}` on a path where it is already held in `{}` \
                             (self-deadlock)",
                            func.name
                        ),
                    });
                } else if !closure.contains(&(outer.clone(), class.clone())) {
                    out.push(Violation {
                        rule: RULE_LOCK_ORDER.into(),
                        file: file.into(),
                        line,
                        msg: format!(
                            "acquiring `{class}` while holding `{outer}` in `{}` is not in the \
                             declared lock order (add `{outer} < {class}` to lint.toml [lock-order] \
                             if intended)",
                            func.name
                        ),
                    });
                }
            }
        }
        crate::dataflow::Event::Call { path, line, held_may, held_must } => {
            if let Some(r) = mc {
                if r.calls.iter().any(|p| suffix_matches(&path, p))
                    && !held_must.contains(&r.requires)
                {
                    out.push(Violation {
                        rule: RULE_MULTICAST.into(),
                        file: file.into(),
                        line,
                        msg: format!(
                            "`{}` called in `{}` on a path not holding `{}`: cert capture order \
                             must equal total-order sequence order",
                            path.join("."),
                            func.name,
                            r.requires
                        ),
                    });
                }
            }
            for r in &jgs {
                let is_journal = r.calls.iter().any(|p| suffix_matches(&path, p));
                let is_gauge = path.len() >= 2
                    && r.gauge_methods.iter().any(|m| path.last() == Some(m))
                    && path[..path.len() - 1]
                        .iter()
                        .any(|seg| r.gauge_owners.iter().any(|o| o == seg));
                if (is_journal || is_gauge) && !held_must.contains(&r.requires) {
                    out.push(Violation {
                        rule: RULE_JOURNAL_GAUGE.into(),
                        file: file.into(),
                        line,
                        msg: format!(
                            "`{}` in `{}` on a path not holding `{}`: events/gauges must be \
                             ordered by the lock that guards the state transition",
                            path.join("."),
                            func.name,
                            r.requires
                        ),
                    });
                }
            }
            if let Some(r) = nu {
                if path.len() >= 2 && r.methods.iter().any(|m| path.last() == Some(m)) {
                    out.push(Violation {
                        rule: RULE_NO_UNWRAP.into(),
                        file: file.into(),
                        line,
                        msg: format!(
                            "`.{}()` on a protocol path (`{}`): route the failure through \
                             `DbError` instead of panicking a replica thread",
                            path.last().expect("len checked"),
                            func.name
                        ),
                    });
                }
            }
            if let Some(r) = io {
                if r.calls.iter().any(|p| suffix_matches(&path, p)) {
                    let bad: Vec<&String> =
                        held_may.iter().filter(|c| !r.allow_under.contains(c)).collect();
                    if !bad.is_empty() {
                        out.push(Violation {
                            rule: RULE_NO_IO.into(),
                            file: file.into(),
                            line,
                            msg: format!(
                                "`{}` in `{}` on a path holding {}: socket/file calls must not \
                                 run under a protocol lock — materialize first, send after release",
                                path.join("."),
                                func.name,
                                fmt_classes(&bad)
                            ),
                        });
                    }
                }
            }
            if let Some(r) = blk {
                check_blocking(r, cfg, file, &func.name, &path, line, &held_may, out);
            }
        }
        crate::dataflow::Event::Macro { name, line } => {
            if let Some(r) = nu {
                if r.macros.contains(&name) {
                    out.push(Violation {
                        rule: RULE_NO_UNWRAP.into(),
                        file: file.into(),
                        line,
                        msg: format!(
                            "`{name}!` on a protocol path (`{}`): route the failure through \
                             `DbError` instead of panicking a replica thread",
                            func.name
                        ),
                    });
                }
            }
        }
        crate::dataflow::Event::Index { line } => {
            if let Some(r) = nu {
                if r.ban_indexing {
                    out.push(Violation {
                        rule: RULE_NO_UNWRAP.into(),
                        file: file.into(),
                        line,
                        msg: format!(
                            "index expression on a protocol path (`{}`): use `.get(..)` and \
                             route the miss through `DbError`",
                            func.name
                        ),
                    });
                }
            }
        }
    });
}

fn fmt_classes(classes: &[&String]) -> String {
    classes.iter().map(|c| format!("`{c}`")).collect::<Vec<_>>().join(", ")
}

/// The `no-blocking-under-lock` check for one call event.
#[allow(clippy::too_many_arguments)]
fn check_blocking(
    r: &NoBlockingRule,
    cfg: &CheckerConfig,
    file: &str,
    func_name: &str,
    path: &[String],
    line: u32,
    held_may: &BTreeSet<String>,
    out: &mut Vec<Violation>,
) {
    if held_may.is_empty() {
        return;
    }
    let Some(last) = path.last() else { return };
    if r.condvar_waits.iter().any(|w| w == last) {
        // A condvar wait: find the declared pairing from the receiver
        // field name (`self.pause_cond.wait_for(..)` -> `pause_cond`).
        let receiver = if path.len() >= 2 { Some(&path[path.len() - 2]) } else { None };
        let paired = receiver.and_then(|recv| {
            cfg.classes
                .iter()
                .find(|c| {
                    file_in_scope(file, &c.files) && c.condvars.iter().any(|cv| cv == recv.as_str())
                })
                .map(|c| c.name.clone())
        });
        match paired {
            Some(class) => {
                let others: Vec<&String> = held_may.iter().filter(|c| **c != class).collect();
                if !others.is_empty() {
                    out.push(Violation {
                        rule: RULE_NO_BLOCKING.into(),
                        file: file.into(),
                        line,
                        msg: format!(
                            "`{}` in `{}` waits on the condvar paired with `{class}` while also \
                             holding {}: a parked thread must hold nothing but the wait mutex",
                            path.join("."),
                            func_name,
                            fmt_classes(&others)
                        ),
                    });
                }
            }
            None => {
                out.push(Violation {
                    rule: RULE_NO_BLOCKING.into(),
                    file: file.into(),
                    line,
                    msg: format!(
                        "`{}` in `{}` waits on a condvar with no declared lock pairing while \
                         holding {}: declare it via `condvars` on the paired [[lock-class]]",
                        path.join("."),
                        func_name,
                        fmt_classes(&held_may.iter().collect::<Vec<_>>())
                    ),
                });
            }
        }
        return;
    }
    if r.calls.iter().any(|p| suffix_matches(path, p)) {
        out.push(Violation {
            rule: RULE_NO_BLOCKING.into(),
            file: file.into(),
            line,
            msg: format!(
                "`{}` in `{}` blocks on a path holding {}: channel receives, thread joins, and \
                 sleeps must happen outside every protocol lock",
                path.join("."),
                func_name,
                fmt_classes(&held_may.iter().collect::<Vec<_>>())
            ),
        });
    }
}

// ---------------------------------------------------------------------
// Token-level rules (whole-file scans)
// ---------------------------------------------------------------------

/// The nondeterminism rule scans raw file tokens (bans apply to `use`
/// statements and type positions too), excluding test-fn line ranges.
pub fn check_nondet(
    toks: &[crate::lexer::Tok],
    funcs: &[Func],
    file: &str,
    cfg: &CheckerConfig,
    out: &mut Vec<Violation>,
) {
    let Some(r) = cfg.nondet.as_ref().filter(|r| file_in_scope(file, &r.files)) else {
        return;
    };
    let in_test = test_line_checker(funcs);
    for (idx, t) in toks.iter().enumerate() {
        let Some(id) = t.ident() else { continue };
        for ban in &r.banned {
            let hit = if let Some((head, tail)) = ban.split_once("::") {
                id == head
                    && toks.get(idx + 1).is_some_and(|t| t.is_punct(':'))
                    && toks.get(idx + 2).is_some_and(|t| t.is_punct(':'))
                    && toks.get(idx + 3).and_then(|t| t.ident()) == Some(tail)
            } else {
                id == ban
            };
            if hit && !in_test(t.line) {
                out.push(Violation {
                    rule: RULE_NONDET.into(),
                    file: file.into(),
                    line: t.line,
                    msg: format!(
                        "`{ban}` in fault-schedule code: schedules must be pure functions of \
                         (seed, msg, member) — no wall clocks, ambient RNGs, or iteration-order-\
                         dependent containers"
                    ),
                });
            }
        }
    }
}

fn test_line_checker(funcs: &[Func]) -> impl Fn(u32) -> bool {
    let test_ranges: Vec<(u32, u32)> = funcs
        .iter()
        .filter(|f| f.is_test)
        .map(|f| (f.line, f.body.last().map_or(f.line, |t| t.line)))
        .collect();
    move |line: u32| test_ranges.iter().any(|&(a, b)| line >= a && line <= b)
}

/// `lock-coverage`: every `Mutex`/`RwLock`/`Condvar` declaration in the
/// workspace must resolve to a lint.toml lock class. Declarations are
/// type positions (`name: Mutex<..>`, `cond: Condvar`, `type X =
/// Arc<Mutex<..>>`); expression uses (`Mutex::new`), borrows (`&Mutex<T>`
/// parameters) and `use` imports are not declarations.
pub fn check_lock_coverage(
    toks: &[crate::lexer::Tok],
    funcs: &[Func],
    file: &str,
    cfg: &CheckerConfig,
    out: &mut Vec<Violation>,
) {
    let Some(r) = &cfg.lock_coverage else { return };
    let in_test = test_line_checker(funcs);
    let mut seen: BTreeSet<(String, u32)> = BTreeSet::new();
    for (idx, t) in toks.iter().enumerate() {
        let Some(id) = t.ident() else { continue };
        if !r.types.iter().any(|ty| ty == id) || in_test(t.line) {
            continue;
        }
        let next = toks.get(idx + 1);
        let is_type_position = if id == "Condvar" {
            // Bare type: not `Condvar::new(..)` / `Condvar.new` and not a
            // `use ..::{Condvar, ..}` import (previous token `:` or `{`
            // only counts when the token before the name resolves below).
            !next.is_some_and(|t| t.is_punct(':') || t.is_punct('.'))
        } else {
            // Generic type: `Mutex<..>`. `Mutex::new` has `:` next.
            next.is_some_and(|t| t.is_punct('<'))
        };
        if !is_type_position {
            continue;
        }
        let Some(name) = decl_name(toks, idx) else { continue };
        if !seen.insert((name.clone(), t.line)) {
            continue;
        }
        let classified = cfg.classes.iter().any(|c| {
            if !file_in_scope(file, &c.files) {
                return false;
            }
            c.fields.iter().any(|f| f == &name)
                || c.condvars.iter().any(|cv| cv == &name)
                || c.lock_exprs.iter().any(|e| e.split('.').next() == Some(name.as_str()))
        });
        if !classified {
            out.push(Violation {
                rule: RULE_LOCK_COVERAGE.into(),
                file: file.into(),
                line: t.line,
                msg: format!(
                    "`{name}: {id}<..>` is not mapped to any lint.toml lock class: add it to a \
                     [[lock-class]] (via lock-exprs, condvars, or fields) so the ordering and \
                     blocking rules see it — unclassified locks are invisible to every guard rule"
                ),
            });
        }
    }
}

/// Resolve the declared name for a lock type found at `idx`: walk left
/// over generic-wrapper noise (`Arc<`, `Box<`, qualifying path segments)
/// to `name :` or `type Name =`. `None` when the site is not a
/// declaration (borrows, imports, nested generic arguments).
fn decl_name(toks: &[crate::lexer::Tok], idx: usize) -> Option<String> {
    const WRAPPERS: [&str; 5] = ["Arc", "Rc", "Box", "std", "sync"];
    let mut k = idx;
    while k > 0 {
        k -= 1;
        let t = &toks[k];
        if t.is_punct('<') || t.ident().is_some_and(|s| WRAPPERS.contains(&s) || s == "parking_lot")
        {
            continue;
        }
        if t.is_punct(':') {
            // `name : ...` (single colon) vs `path :: Type` (double).
            if k > 0 && toks[k - 1].is_punct(':') {
                // `::` path qualifier: keep walking left past it.
                k -= 1;
                continue;
            }
            let name = toks.get(k.checked_sub(1)?)?.ident()?;
            // A use-import `use a::{Condvar, ..}` never has `ident :`
            // before the type, so reaching here means a real binding.
            return Some(name.to_string());
        }
        if t.is_punct('=') {
            // `type Name = Arc<Mutex<..>>` alias declaration.
            let name_tok = toks.get(k.checked_sub(1)?)?;
            let name = name_tok.ident()?;
            let kw = toks.get(k.checked_sub(2)?)?.ident()?;
            return (kw == "type").then(|| name.to_string());
        }
        // Anything else (`&`, `(`, `,`, an unrelated ident): a usage or a
        // nested generic argument, not a declaration.
        return None;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scopes::extract_funcs;

    /// Mini config mirroring the real lint.toml's shape: a guard-producing
    /// state lock, an acquire-fn class (the multicast), a condvar-paired
    /// apply lock, and an allow-under class for frame writes.
    fn test_cfg() -> CheckerConfig {
        let class = |name: &str| LockClass { name: name.into(), ..Default::default() };
        CheckerConfig {
            classes: vec![
                LockClass {
                    lock_exprs: vec!["state.lock".into()],
                    files: vec!["node.rs".into()],
                    param_types: vec!["NodeState".into()],
                    held_in_impls: vec!["StateOps".into()],
                    ..class("node-state")
                },
                LockClass { acquire_fns: vec!["multicast_total".into()], ..class("gcs-group") },
                LockClass {
                    lock_exprs: vec!["apply.lock".into()],
                    files: vec!["node.rs".into()],
                    condvars: vec!["apply_cond".into()],
                    ..class("node-apply")
                },
                LockClass {
                    lock_exprs: vec!["wl.lock".into()],
                    files: vec!["node.rs".into()],
                    ..class("tcp-write")
                },
            ],
            order_edges: vec![
                ("node-state".into(), "gcs-group".into()),
                ("node-state".into(), "node-apply".into()),
            ],
            multicast: Some(CallUnderLockRule {
                files: vec!["node.rs".into()],
                calls: vec!["multicast_total".into()],
                requires: "node-state".into(),
            }),
            lock_order: Some(LockOrderRule { files: vec!["node.rs".into()] }),
            no_io: Some(NoIoRule {
                files: vec!["node.rs".into()],
                calls: vec!["write_all".into(), "flush".into()],
                allow_under: vec!["tcp-write".into()],
            }),
            no_blocking: Some(NoBlockingRule {
                files: vec!["node.rs".into()],
                calls: vec!["recv".into(), "join".into(), "sleep".into()],
                condvar_waits: vec!["wait".into(), "wait_for".into()],
            }),
            no_unwrap: Some(NoUnwrapRule {
                files: vec!["node.rs".into()],
                methods: vec!["unwrap".into(), "expect".into()],
                macros: vec!["unimplemented".into()],
                ban_indexing: true,
            }),
            ..Default::default()
        }
    }

    fn lint(src: &str, rule: &str) -> Vec<Violation> {
        let cfg = test_cfg();
        let (toks, _) = lex(src);
        let funcs = extract_funcs(&toks);
        let mut out = Vec::new();
        for f in &funcs {
            check_func(f, "node.rs", &cfg, &mut out);
        }
        out.into_iter().filter(|v| v.rule == rule).collect()
    }

    // ----- ported linear-walker behaviors -----

    #[test]
    fn multicast_under_guard_passes() {
        let v = lint(
            "impl N { fn f(&self) { let st = self.state.lock(); \
             self.gcs.multicast_total(m); } }",
            RULE_MULTICAST,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn multicast_after_scope_end_fails() {
        let v = lint(
            "impl N { fn f(&self) { { let st = self.state.lock(); } \
             self.gcs.multicast_total(m); } }",
            RULE_MULTICAST,
        );
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn drop_releases_the_guard() {
        let v = lint(
            "impl N { fn f(&self) { let st = self.state.lock(); drop(st); \
             self.gcs.multicast_total(m); } }",
            RULE_MULTICAST,
        );
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn momentary_guard_dies_at_statement_end() {
        let v = lint(
            "impl N { fn f(&self) { self.state.lock().insert(k, v); \
             self.gcs.multicast_total(m); } }",
            RULE_MULTICAST,
        );
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn value_binding_through_momentary_lock() {
        // `let v = self.state.lock().get(k);` binds the value, not the
        // guard — the guard dies at the `;`.
        let v = lint(
            "impl N { fn f(&self) { let v = self.state.lock().get(k); \
             self.gcs.multicast_total(v); } }",
            RULE_MULTICAST,
        );
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn reacquire_is_a_self_deadlock() {
        let v = lint(
            "impl N { fn f(&self) { let a = self.state.lock(); \
             let b = self.state.lock(); } }",
            RULE_LOCK_ORDER,
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("re-acquire"), "{}", v[0].msg);
    }

    #[test]
    fn undeclared_nesting_violates_the_order() {
        // apply -> state has no declared edge (only state -> apply).
        let v = lint(
            "impl N { fn f(&self) { let a = self.apply.lock(); \
             let s = self.state.lock(); } }",
            RULE_LOCK_ORDER,
        );
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn declared_nesting_passes() {
        let v = lint(
            "impl N { fn f(&self) { let s = self.state.lock(); \
             let a = self.apply.lock(); } }",
            RULE_LOCK_ORDER,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn param_type_is_ambient_evidence() {
        let v = lint(
            "fn helper(st: &mut NodeState, gcs: &G) { gcs.multicast_total(m); }",
            RULE_MULTICAST,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn held_in_impl_is_ambient_evidence() {
        let v = lint(
            "impl StateOps { fn f(&mut self) { self.gcs.multicast_total(m); } }",
            RULE_MULTICAST,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn chained_expect_is_flagged() {
        let v = lint("fn f() { self.tbl.get(k).expect(\"missing\"); }", RULE_NO_UNWRAP);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn index_expression_is_flagged() {
        let v = lint("fn f() { let x = xs[i]; }", RULE_NO_UNWRAP);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn test_fns_are_skipped() {
        let v = lint("#[test] fn t() { self.gcs.multicast_total(m); xs[i]; }", RULE_MULTICAST);
        assert!(v.is_empty(), "{v:?}");
    }

    // ----- CFG-specific: branch/loop/early-return guard liveness -----

    #[test]
    fn conditional_drop_and_return_keeps_fallthrough_guarded() {
        // The linear walker's classic false positive: the diverging branch
        // drops the guard and returns, so the fall-through still must-hold
        // it — the branch contributes nothing to the join.
        let v = lint(
            "impl N { fn f(&self) { let st = self.state.lock(); \
             if bad { drop(st); return; } \
             self.gcs.multicast_total(m); } }",
            RULE_MULTICAST,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn drop_in_one_arm_does_not_leak_into_siblings() {
        let v = lint(
            "impl N { fn f(&self) { let st = self.state.lock(); \
             match x { A => { drop(st); } B => { self.gcs.multicast_total(m); } } } }",
            RULE_MULTICAST,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn join_after_partial_drop_is_not_must_held() {
        // One arm dropped the guard, so after the match the lock is only
        // may-held — a multicast there is a real bug on the A path.
        let v = lint(
            "impl N { fn f(&self) { let st = self.state.lock(); \
             match x { A => { drop(st); } B => {} } \
             self.gcs.multicast_total(m); } }",
            RULE_MULTICAST,
        );
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn per_branch_precision_in_if_else() {
        // Only the else branch multicasts without the lock.
        let v = lint(
            "impl N { fn f(&self) { \
             if a { let st = self.state.lock(); self.gcs.multicast_total(x); } \
             else { self.gcs.multicast_total(y); } } }",
            RULE_MULTICAST,
        );
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn try_divergence_keeps_fallthrough_guarded() {
        let v = lint(
            "impl N { fn f(&self) -> R { let st = self.state.lock(); \
             let v = self.prepare(k)?; \
             self.gcs.multicast_total(v); Ok(()) } }",
            RULE_MULTICAST,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn loop_iteration_scope_releases_each_round() {
        // The guard is taken and released inside each iteration: the back
        // edge carries no live guard, so this is not a re-acquire.
        let v = lint(
            "impl N { fn f(&self) { while going { \
             let st = self.state.lock(); st.step(); } } }",
            RULE_LOCK_ORDER,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn guard_held_across_loop_body_is_a_reacquire() {
        let v = lint(
            "impl N { fn f(&self) { let outer = self.state.lock(); \
             while going { let inner = self.state.lock(); } } }",
            RULE_LOCK_ORDER,
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("re-acquire"), "{}", v[0].msg);
    }

    // ----- no-io-under-lock -----

    #[test]
    fn io_under_protocol_lock_is_flagged() {
        let v = lint(
            "impl N { fn f(&self) { let st = self.state.lock(); \
             self.sock.write_all(buf); } }",
            RULE_NO_IO,
        );
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn io_after_release_passes() {
        let v = lint(
            "impl N { fn f(&self) { { let st = self.state.lock(); } \
             self.sock.write_all(buf); } }",
            RULE_NO_IO,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn io_under_allow_under_class_passes() {
        // The per-connection write lock exists to serialize frame writes.
        let v = lint(
            "impl N { fn f(&self) { let w = self.wl.lock(); \
             w.write_all(buf); } }",
            RULE_NO_IO,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn io_is_flagged_on_may_held_paths() {
        // One path dropped the guard, but the other still holds it at the
        // write: one bad path is a real bad path.
        let v = lint(
            "impl N { fn f(&self) { let st = self.state.lock(); \
             if a { drop(st); } \
             self.sock.write_all(buf); } }",
            RULE_NO_IO,
        );
        assert_eq!(v.len(), 1, "{v:?}");
    }

    // ----- no-blocking-under-lock -----

    #[test]
    fn paired_condvar_wait_passes() {
        let v = lint(
            "impl N { fn f(&self) { let mut g = self.apply.lock(); \
             self.apply_cond.wait(g); } }",
            RULE_NO_BLOCKING,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn condvar_wait_holding_extra_lock_is_flagged() {
        let v = lint(
            "impl N { fn f(&self) { let st = self.state.lock(); \
             let mut g = self.apply.lock(); self.apply_cond.wait(g); } }",
            RULE_NO_BLOCKING,
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("node-state"), "{}", v[0].msg);
    }

    #[test]
    fn unpaired_condvar_wait_under_lock_is_flagged() {
        let v = lint(
            "impl N { fn f(&self) { let st = self.state.lock(); \
             self.other_cond.wait_for(st, t); } }",
            RULE_NO_BLOCKING,
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("no declared lock pairing"), "{}", v[0].msg);
    }

    #[test]
    fn recv_and_join_under_lock_are_flagged() {
        let v = lint(
            "impl N { fn f(&self) { let st = self.state.lock(); \
             let m = self.chan.recv(); } }",
            RULE_NO_BLOCKING,
        );
        assert_eq!(v.len(), 1, "{v:?}");
        let v = lint("impl N { fn f(&self) { let m = self.chan.recv(); } }", RULE_NO_BLOCKING);
        assert!(v.is_empty(), "blocking calls outside any lock are fine: {v:?}");
    }

    // ----- lock-coverage -----

    fn coverage(src: &str) -> Vec<Violation> {
        let mut cfg = test_cfg();
        cfg.lock_coverage = Some(LockCoverageRule::default());
        let (toks, _) = lex(src);
        let funcs = extract_funcs(&toks);
        let mut out = Vec::new();
        check_lock_coverage(&toks, &funcs, "node.rs", &cfg, &mut out);
        out
    }

    #[test]
    fn unclassified_lock_declaration_is_flagged() {
        let v = coverage("struct S { state: Mutex<u64>, stray: Mutex<u64> }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("`stray: Mutex<..>`"), "{}", v[0].msg);
    }

    #[test]
    fn condvar_and_field_classification_cover_declarations() {
        let v =
            coverage("struct S { state: Arc<Mutex<u64>>, apply: Mutex<u64>, apply_cond: Condvar }");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn uses_and_imports_are_not_declarations() {
        let v = coverage(
            "use parking_lot::{Condvar, Mutex};\n\
             fn f(m: &Mutex<u64>) { let g = Mutex::new(0); }",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn type_alias_declarations_are_covered() {
        let v = coverage("type Registry = Arc<Mutex<Vec<u64>>>;");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("Registry"), "{}", v[0].msg);
    }

    #[test]
    fn test_code_lock_declarations_are_exempt() {
        let v = coverage(
            "#[cfg(test)] mod tests { fn h() { let scratch: Mutex<u64> = Mutex::new(0); } }",
        );
        assert!(v.is_empty(), "{v:?}");
    }
}
