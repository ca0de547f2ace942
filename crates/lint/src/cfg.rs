//! Per-function control-flow graph construction.
//!
//! The linear token walker that preceded this module assumed straight-line
//! execution: a guard dropped inside one `match` arm looked dropped in
//! every arm, and a guard acquired in an `if` branch leaked into the code
//! after the join. This module parses a function body's token stream into
//! a structured node tree (if/else, match, loops, early returns) and
//! lowers it to explicit basic blocks over *guard ops*, so the dataflow
//! pass in [`crate::dataflow`] can compute path-sensitive guard liveness.
//!
//! Still syn-free: the parse is brace/paren structure plus a handful of
//! keywords, exactly like [`crate::scopes`]. Known approximations (all
//! conservative, all documented in DESIGN.md §13.6):
//!
//! - Control flow *inside parenthesized regions* (closure arguments,
//!   `match` used as a call argument) is walked linearly; its events are
//!   still emitted, its scopes still close, but its branches are not
//!   separated.
//! - `while let` scrutinee temporaries are treated as dying at the end of
//!   the condition, not the end of the loop body.
//! - `drop(name)` kills every live guard bound to `name` (shadowed
//!   bindings are not distinguished).

use crate::lexer::{Tok, TokKind};
use crate::rules::{suffix_matches, LockClass};

/// One statically-allocated guard creation site.
#[derive(Debug, Clone)]
pub struct Site {
    pub class: String,
    /// Binding name (`let g = ...`); `None` for statement-lived
    /// temporaries (`self.armed.lock().insert(..)`).
    pub name: Option<String>,
    pub line: u32,
}

/// One operation inside a basic block.
#[derive(Debug, Clone)]
pub enum Op {
    /// A guard-producing lock expression; gen's `site`.
    Acquire { site: usize, line: u32 },
    /// A call that takes (and releases) a lock internally — an event for
    /// the ordering rules, but no liveness change.
    AcquireEvent { class: String, line: u32 },
    /// `drop(name)`: kills every live site bound to `name`.
    DropName { name: String },
    /// Scope/statement end: kills the listed sites.
    Kill { sites: Vec<usize> },
    /// A dotted/path call `a.b.c(` (lock expressions excluded).
    Call { path: Vec<String>, line: u32 },
    /// An index expression `expr[...]`.
    Index { line: u32 },
}

#[derive(Debug, Default)]
pub struct Block {
    pub ops: Vec<Op>,
    pub succ: Vec<usize>,
}

#[derive(Debug)]
pub struct Cfg {
    pub blocks: Vec<Block>,
    pub entry: usize,
    pub exit: usize,
    pub sites: Vec<Site>,
}

/// Which lock classes are visible to the linearizer for one file.
pub struct GuardCtx<'a> {
    pub classes: &'a [LockClass],
    pub file: &'a str,
}

impl GuardCtx<'_> {
    /// Class whose guard-producing `lock-exprs` match `path` (file-scoped).
    fn lock_class(&self, path: &[String]) -> Option<&str> {
        self.classes.iter().find_map(|c| {
            if !c.lock_exprs.is_empty() && !crate::rules::file_in_scope(self.file, &c.files) {
                return None;
            }
            c.lock_exprs.iter().any(|p| suffix_matches(path, p)).then_some(c.name.as_str())
        })
    }

    /// Class acquired internally by a call to `path` (any file).
    fn acquire_class(&self, path: &[String]) -> Option<&str> {
        self.classes.iter().find_map(|c| {
            c.acquire_fns.iter().any(|p| suffix_matches(path, p)).then_some(c.name.as_str())
        })
    }
}

// ---------------------------------------------------------------------
// Structured parse: token stream -> node tree
// ---------------------------------------------------------------------

#[derive(Debug)]
enum Node {
    Linear(Vec<Op>),
    /// `{ ... }`: sites created within ([lo, hi)) die at the close brace.
    Scope {
        body: Vec<Node>,
        lo: usize,
        hi: usize,
    },
    If {
        cond: Vec<Op>,
        /// Sites created while evaluating the condition.
        cond_sites: Vec<usize>,
        /// `if let` scrutinee temporaries live through both branches
        /// (edition-2021 semantics); plain `if` condition temporaries die
        /// before the branch.
        scrutinee_lives: bool,
        then_b: Vec<Node>,
        else_b: Option<Vec<Node>>,
    },
    Match {
        scrut: Vec<Op>,
        scrut_sites: Vec<usize>,
        arms: Vec<Vec<Node>>,
    },
    Loop {
        cond: Vec<Op>,
        cond_sites: Vec<usize>,
        body: Vec<Node>,
        /// `while`/`for` can skip the body; `loop` cannot.
        conditional: bool,
    },
    Return(Vec<Op>),
    Break,
    Continue,
}

struct Parser<'a> {
    toks: &'a [Tok],
    ctx: &'a GuardCtx<'a>,
    pos: usize,
    sites: Vec<Site>,
    /// Momentary (unbound) sites opened in the current statement, killed
    /// at the next `;` in the same scope.
    open_momentary: Vec<usize>,
    /// Paren/bracket/brace depth inside the current `linearize` call.
    nest_depth: usize,
}

impl<'a> Parser<'a> {
    fn peek_ident(&self, off: usize) -> Option<&str> {
        self.toks.get(self.pos + off).and_then(|t| t.ident())
    }

    fn at_punct(&self, c: char) -> bool {
        self.toks.get(self.pos).is_some_and(|t| t.is_punct(c))
    }

    /// Parse statements until the matching `}` (consumed) or end of input.
    /// `mom_mark` scopes the momentary-kill machinery to this block.
    fn parse_stmts(&mut self, stop_at_close: bool) -> Vec<Node> {
        let mut nodes = Vec::new();
        let mom_mark = self.open_momentary.len();
        while self.pos < self.toks.len() {
            if self.at_punct('}') {
                if stop_at_close {
                    self.pos += 1;
                }
                break;
            }
            match self.peek_ident(0) {
                Some("if") => {
                    let n = self.parse_if();
                    nodes.push(n);
                }
                Some("match") => {
                    let n = self.parse_match();
                    nodes.push(n);
                }
                Some("while") | Some("for") => {
                    let n = self.parse_loop(true);
                    nodes.push(n);
                }
                Some("loop") => {
                    let n = self.parse_loop(false);
                    nodes.push(n);
                }
                Some("return") => {
                    self.pos += 1;
                    let ops = self.linearize_until_semi();
                    nodes.push(Node::Return(ops));
                }
                Some("break") => {
                    self.pos += 1;
                    let ops = self.linearize_until_semi();
                    if !ops.is_empty() {
                        nodes.push(Node::Linear(ops));
                    }
                    nodes.push(Node::Break);
                }
                Some("continue") => {
                    self.pos += 1;
                    let ops = self.linearize_until_semi();
                    if !ops.is_empty() {
                        nodes.push(Node::Linear(ops));
                    }
                    nodes.push(Node::Continue);
                }
                _ => {
                    if self.at_punct('{') {
                        // `let Pat = expr else { .. };` — the only way a
                        // statement-position brace follows an `else` ident
                        // (if/else is consumed whole by parse_if). The block
                        // always diverges; model it as a branch so the
                        // happy-path fall-through stays reachable.
                        let let_else =
                            self.pos > 0 && self.toks[self.pos - 1].ident() == Some("else");
                        self.pos += 1;
                        let scope = self.parse_scope();
                        if let_else {
                            nodes.push(Node::If {
                                cond: Vec::new(),
                                cond_sites: Vec::new(),
                                scrutinee_lives: false,
                                then_b: vec![scope],
                                else_b: Some(Vec::new()),
                            });
                        } else {
                            nodes.push(scope);
                        }
                        continue;
                    }
                    if self.at_punct(';') {
                        self.pos += 1;
                        self.kill_momentary(mom_mark, &mut nodes);
                        continue;
                    }
                    // A linear statement (or the head of one: it may be
                    // interrupted by an expression-position `if`/`match`,
                    // which the outer loop picks up next).
                    let ops = self.linearize_segment();
                    if !ops.is_empty() {
                        nodes.push(Node::Linear(ops));
                    }
                }
            }
        }
        // End of block: any statement-lived guards still open die here
        // (tail expressions have no `;`).
        self.kill_momentary(mom_mark, &mut nodes);
        nodes
    }

    fn kill_momentary(&mut self, mark: usize, nodes: &mut Vec<Node>) {
        if self.open_momentary.len() > mark {
            let sites = self.open_momentary.split_off(mark);
            nodes.push(Node::Linear(vec![Op::Kill { sites }]));
        }
    }

    /// Current position is just past a `{`: parse the scope body.
    fn parse_scope(&mut self) -> Node {
        let lo = self.sites.len();
        let body = self.parse_stmts(true);
        Node::Scope { body, lo, hi: self.sites.len() }
    }

    fn parse_if(&mut self) -> Node {
        self.pos += 1; // `if`
        let scrutinee_lives = self.peek_ident(0) == Some("let");
        let site_lo = self.sites.len();
        let mom_mark = self.open_momentary.len();
        let cond = self.linearize_cond();
        self.open_momentary.truncate(mom_mark);
        let cond_sites: Vec<usize> = (site_lo..self.sites.len()).collect();
        let then_b = vec![self.parse_scope()];
        let else_b = if self.peek_ident(0) == Some("else") {
            self.pos += 1;
            if self.peek_ident(0) == Some("if") {
                Some(vec![self.parse_if()])
            } else if self.at_punct('{') {
                self.pos += 1;
                Some(vec![self.parse_scope()])
            } else {
                None
            }
        } else {
            None
        };
        Node::If { cond, cond_sites, scrutinee_lives, then_b, else_b }
    }

    fn parse_match(&mut self) -> Node {
        self.pos += 1; // `match`
        let site_lo = self.sites.len();
        let mom_mark = self.open_momentary.len();
        let scrut = self.linearize_cond();
        self.open_momentary.truncate(mom_mark);
        let scrut_sites: Vec<usize> = (site_lo..self.sites.len()).collect();
        let mut arms = Vec::new();
        while self.pos < self.toks.len() && !self.at_punct('}') {
            let arm_lo = self.sites.len();
            let mut arm_ops = self.linearize_pattern();
            let mut arm_nodes = Vec::new();
            if self.at_punct('{') {
                self.pos += 1;
                if !arm_ops.is_empty() {
                    arm_nodes.push(Node::Linear(std::mem::take(&mut arm_ops)));
                }
                arm_nodes.push(self.parse_scope());
            } else {
                arm_ops.extend(self.linearize_arm_expr());
                arm_nodes.push(Node::Linear(arm_ops));
            }
            if self.at_punct(',') {
                self.pos += 1;
            }
            arms.push(vec![Node::Scope { body: arm_nodes, lo: arm_lo, hi: self.sites.len() }]);
        }
        if self.at_punct('}') {
            self.pos += 1;
        }
        Node::Match { scrut, scrut_sites, arms }
    }

    fn parse_loop(&mut self, conditional: bool) -> Node {
        self.pos += 1; // `while` / `for` / `loop`
        let site_lo = self.sites.len();
        let mom_mark = self.open_momentary.len();
        let cond = if conditional { self.linearize_cond() } else { self.expect_open_brace() };
        self.open_momentary.truncate(mom_mark);
        let cond_sites: Vec<usize> = (site_lo..self.sites.len()).collect();
        let body = vec![self.parse_scope()];
        Node::Loop { cond, cond_sites, body, conditional }
    }

    /// For `loop`: no condition, just consume the `{`.
    fn expect_open_brace(&mut self) -> Vec<Op> {
        if self.at_punct('{') {
            self.pos += 1;
        }
        Vec::new()
    }

    /// Linearize a condition/scrutinee: tokens up to the body `{` at
    /// paren depth 0 (struct literals are illegal there, so the first
    /// such brace *is* the body). Consumes the `{`.
    fn linearize_cond(&mut self) -> Vec<Op> {
        let ops = self.linearize(|p| p.at_punct('{') && !p.in_nested(), false);
        if self.at_punct('{') {
            self.pos += 1;
        }
        ops
    }

    /// Linearize a match-arm pattern (and guard) up to `=>` (consumed).
    fn linearize_pattern(&mut self) -> Vec<Op> {
        let ops = self.linearize(
            |p| {
                p.toks.get(p.pos).is_some_and(|t| t.is_punct('='))
                    && p.toks.get(p.pos + 1).is_some_and(|t| t.is_punct('>'))
                    && !p.in_nested()
            },
            true,
        );
        if self.at_punct('=') {
            self.pos += 2;
        }
        ops
    }

    /// Linearize a braceless match-arm body up to `,` or the match's `}`
    /// at depth 0 (neither consumed here).
    fn linearize_arm_expr(&mut self) -> Vec<Op> {
        self.linearize(|p| (p.at_punct(',') || p.at_punct('}')) && !p.in_nested(), false)
    }

    /// Linearize one statement up to `;`, consuming it.
    fn linearize_until_semi(&mut self) -> Vec<Op> {
        let ops = self.linearize(|p| (p.at_punct(';') || p.at_punct('}')) && !p.in_nested(), false);
        if self.at_punct(';') {
            self.pos += 1;
        }
        ops
    }

    /// Linearize a statement head: stops at `;`/`}` like
    /// [`Self::linearize_until_semi`] but *also* at an expression-position
    /// control keyword (`let x = match … ;`), leaving it for the caller.
    fn linearize_segment(&mut self) -> Vec<Op> {
        self.linearize(
            |p| {
                if p.in_nested() {
                    return false;
                }
                if p.at_punct(';') || p.at_punct('}') || p.at_punct('{') {
                    return true;
                }
                matches!(
                    p.peek_ident(0),
                    Some(
                        "if" | "match" | "while" | "for" | "loop" | "return" | "break" | "continue"
                    )
                )
            },
            false,
        )
    }

    /// Is the scanner inside a paren/bracket/brace nest opened during the
    /// current `linearize` call? (State lives in `nest_depth`.)
    fn in_nested(&self) -> bool {
        self.nest_depth > 0
    }

    /// Core linear walk, ported from the old token walker: emits guard
    /// acquisitions, `drop(..)` releases, calls and index expressions until `stop(self)` holds at nest depth 0. Inside
    /// parens/brackets — and, when linearizing, inner braces (closure
    /// bodies in call arguments) — everything is walked linearly, with
    /// brace scopes still closing the guards they created.
    fn linearize(&mut self, stop: impl Fn(&Self) -> bool, in_pattern: bool) -> Vec<Op> {
        let mut ops = Vec::new();
        // `let NAME =` binding pending for this statement.
        let mut pending_let: Option<String> = None;
        // Brace scopes opened inside this segment: site-range marks.
        let mut brace_marks: Vec<usize> = Vec::new();
        self.nest_depth = 0;
        while self.pos < self.toks.len() {
            if stop(self) {
                break;
            }
            let t = &self.toks[self.pos];
            match &t.kind {
                TokKind::Punct('(') | TokKind::Punct('[') => {
                    // Index expression iff the previous token can end an
                    // expression.
                    if t.is_punct('[') && !in_pattern {
                        let prev = self.pos.checked_sub(1).map(|i| &self.toks[i]);
                        let is_index = prev.is_some_and(|p| {
                            (matches!(p.kind, TokKind::Ident(_))
                                || p.is_punct(')')
                                || p.is_punct(']')
                                || p.is_literal())
                                && !matches!(p.ident(), Some("return" | "in" | "else" | "match"))
                        });
                        if is_index {
                            ops.push(Op::Index { line: t.line });
                        }
                    }
                    self.nest_depth += 1;
                    self.pos += 1;
                }
                TokKind::Punct(')') | TokKind::Punct(']') => {
                    self.nest_depth = self.nest_depth.saturating_sub(1);
                    self.pos += 1;
                }
                TokKind::Punct('{') => {
                    // An expression brace inside the segment (closure body,
                    // struct literal, macro braces): a lexical scope.
                    self.nest_depth += 1;
                    brace_marks.push(self.sites.len());
                    self.pos += 1;
                }
                TokKind::Punct('}') => {
                    self.nest_depth = self.nest_depth.saturating_sub(1);
                    if let Some(lo) = brace_marks.pop() {
                        let sites: Vec<usize> = (lo..self.sites.len()).collect();
                        if !sites.is_empty() {
                            ops.push(Op::Kill { sites });
                        }
                    }
                    self.pos += 1;
                }
                TokKind::Punct(';') => {
                    // A `;` inside a nested brace (closure body statement):
                    // momentary guards opened there die now.
                    if let Some(&lo) = brace_marks.last() {
                        let sites: Vec<usize> =
                            self.open_momentary.iter().copied().filter(|&s| s >= lo).collect();
                        if !sites.is_empty() {
                            self.open_momentary.retain(|&s| s < lo);
                            ops.push(Op::Kill { sites });
                        }
                    }
                    pending_let = None;
                    self.pos += 1;
                }
                TokKind::Ident(id) if id == "let" => {
                    // `let [mut] NAME =` (not `let Pat(..) =`, not let-else).
                    let mut j = 1;
                    if self.peek_ident(j) == Some("mut") {
                        j += 1;
                    }
                    if let Some(name) = self.peek_ident(j) {
                        if self.toks.get(self.pos + j + 1).is_some_and(|t| t.is_punct('=')) {
                            pending_let = Some(name.to_string());
                        }
                    }
                    self.pos += 1;
                }
                TokKind::Ident(id)
                    if id == "drop"
                        && self.toks.get(self.pos + 1).is_some_and(|t| t.is_punct('(')) =>
                {
                    if let (Some(name), true) = (
                        self.peek_ident(2),
                        self.toks.get(self.pos + 3).is_some_and(|t| t.is_punct(')')),
                    ) {
                        ops.push(Op::DropName { name: name.to_string() });
                        self.pos += 4;
                    } else {
                        self.pos += 1;
                    }
                }
                TokKind::Ident(_) => {
                    // Dotted/path call chain ending in `(`.
                    if let Some((path, end)) = call_chain(self.toks, self.pos) {
                        let line = self.toks[end - 1].line;
                        if let Some(class) = self.ctx.lock_class(&path) {
                            // `let g = path.lock();` binds the guard — only
                            // when the lock call is the whole initializer.
                            let terminal = matching_close(self.toks, end).is_some_and(|c| {
                                self.toks.get(c + 1).is_some_and(|t| t.is_punct(';'))
                            });
                            let name = if terminal { pending_let.clone() } else { None };
                            let momentary = name.is_none();
                            let site = self.sites.len();
                            self.sites.push(Site { class: class.to_string(), name, line });
                            if momentary {
                                self.open_momentary.push(site);
                            }
                            ops.push(Op::Acquire { site, line });
                            self.pos = end + 1;
                            continue;
                        }
                        if let Some(class) = self.ctx.acquire_class(&path) {
                            ops.push(Op::AcquireEvent { class: class.to_string(), line });
                        }
                        ops.push(Op::Call { path, line });
                        self.pos = end + 1;
                        continue;
                    }
                    // Method call on a complex receiver (`foo().bar(`,
                    // `xs[k].bar(`): the chain walk can't cross `)`/`]`,
                    // but the final method name is still checkable.
                    if self.pos > 0
                        && self.toks[self.pos - 1].is_punct('.')
                        && self.toks.get(self.pos + 1).is_some_and(|t| t.is_punct('('))
                    {
                        let path =
                            vec!["#expr".to_string(), t.ident().unwrap_or_default().to_string()];
                        if let Some(class) = self.ctx.acquire_class(&path) {
                            ops.push(Op::AcquireEvent { class: class.to_string(), line: t.line });
                        }
                        ops.push(Op::Call { path, line: t.line });
                    }
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        // Close any brace scopes left open (malformed input): kill their
        // sites so guards never outlive a truncated parse.
        while let Some(lo) = brace_marks.pop() {
            let sites: Vec<usize> = (lo..self.sites.len()).collect();
            if !sites.is_empty() {
                ops.push(Op::Kill { sites });
            }
        }
        self.nest_depth = 0;
        ops
    }
}

/// Index of the `)` matching the `(` at `open`.
fn matching_close(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// If a call chain `a.b.c(` or `A::b(` ends at position `i` (i.e. `i` is
/// the first ident of the chain), return the segment path and the index
/// of the `(` token. Chains are consumed from their head so every call is
/// seen exactly once.
fn call_chain(toks: &[Tok], i: usize) -> Option<(Vec<String>, usize)> {
    if i > 0 && (toks[i - 1].is_punct('.') || toks[i - 1].is_punct(':')) {
        return None;
    }
    let mut path = vec![toks[i].ident()?.to_string()];
    let mut j = i + 1;
    loop {
        if toks.get(j).is_some_and(|t| t.is_punct('(')) {
            return Some((path, j));
        }
        if toks.get(j).is_some_and(|t| t.is_punct('.')) {
            if let Some(seg) = toks.get(j + 1).and_then(|t| t.ident()) {
                path.push(seg.to_string());
                j += 2;
                continue;
            }
            // `.0` tuple access: treat the literal as an opaque segment.
            if toks.get(j + 1).is_some_and(Tok::is_literal) {
                path.push("#tuple".to_string());
                j += 2;
                continue;
            }
            return None;
        }
        if toks.get(j).is_some_and(|t| t.is_punct(':'))
            && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
        {
            if let Some(seg) = toks.get(j + 2).and_then(|t| t.ident()) {
                path.push(seg.to_string());
                j += 3;
                continue;
            }
            // `::<T>` turbofish: skip the generic list, keep scanning.
            if toks.get(j + 2).is_some_and(|t| t.is_punct('<')) {
                let mut depth = 1;
                let mut k = j + 3;
                while k < toks.len() && depth > 0 {
                    if toks[k].is_punct('<') {
                        depth += 1;
                    } else if toks[k].is_punct('>') {
                        depth -= 1;
                    }
                    k += 1;
                }
                j = k;
                continue;
            }
            return None;
        }
        return None;
    }
}

// ---------------------------------------------------------------------
// Lowering: node tree -> basic blocks
// ---------------------------------------------------------------------

struct Lower {
    blocks: Vec<Block>,
    exit: usize,
    /// (head, exit) of each enclosing loop, innermost last.
    loops: Vec<(usize, usize)>,
    cur: usize,
}

impl Lower {
    fn new_block(&mut self) -> usize {
        self.blocks.push(Block::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.blocks[from].succ.contains(&to) {
            self.blocks[from].succ.push(to);
        }
    }

    fn emit(&mut self, op: Op) {
        match op {
            Op::Kill { ref sites } if sites.is_empty() => {}
            op => self.blocks[self.cur].ops.push(op),
        }
    }

    fn lower_nodes(&mut self, nodes: Vec<Node>) {
        for n in nodes {
            self.lower(n);
        }
    }

    fn lower(&mut self, node: Node) {
        match node {
            Node::Linear(ops) => {
                for op in ops {
                    self.emit(op);
                }
            }
            Node::Scope { body, lo, hi } => {
                self.lower_nodes(body);
                self.emit(Op::Kill { sites: (lo..hi).collect() });
            }
            Node::If { cond, cond_sites, scrutinee_lives, then_b, else_b } => {
                for op in cond {
                    self.emit(op);
                }
                if !scrutinee_lives {
                    self.emit(Op::Kill { sites: cond_sites.clone() });
                }
                let head = self.cur;
                let then_start = self.new_block();
                self.edge(head, then_start);
                self.cur = then_start;
                self.lower_nodes(then_b);
                let then_end = self.cur;
                let join = self.new_block();
                self.edge(then_end, join);
                match else_b {
                    Some(body) => {
                        let else_start = self.new_block();
                        self.edge(head, else_start);
                        self.cur = else_start;
                        self.lower_nodes(body);
                        let else_end = self.cur;
                        self.edge(else_end, join);
                    }
                    None => self.edge(head, join),
                }
                self.cur = join;
                if scrutinee_lives {
                    self.emit(Op::Kill { sites: cond_sites });
                }
            }
            Node::Match { scrut, scrut_sites, arms } => {
                for op in scrut {
                    self.emit(op);
                }
                let head = self.cur;
                let join = self.new_block();
                if arms.is_empty() {
                    self.edge(head, join);
                }
                for arm in arms {
                    let a = self.new_block();
                    self.edge(head, a);
                    self.cur = a;
                    self.lower_nodes(arm);
                    let end = self.cur;
                    self.edge(end, join);
                }
                self.cur = join;
                // Match scrutinee temporaries live until the whole match
                // expression ends (the significant_drop_in_scrutinee hazard).
                self.emit(Op::Kill { sites: scrut_sites });
            }
            Node::Loop { cond, cond_sites, body, conditional } => {
                let before = self.cur;
                let head = self.new_block();
                self.edge(before, head);
                self.cur = head;
                for op in cond {
                    self.emit(op);
                }
                self.emit(Op::Kill { sites: cond_sites });
                let exit = self.new_block();
                if conditional {
                    self.edge(head, exit);
                }
                let body_start = self.new_block();
                self.edge(head, body_start);
                self.loops.push((head, exit));
                self.cur = body_start;
                self.lower_nodes(body);
                let body_end = self.cur;
                self.edge(body_end, head);
                self.loops.pop();
                self.cur = exit;
            }
            Node::Return(ops) => {
                for op in ops {
                    self.emit(op);
                }
                let cur = self.cur;
                self.edge(cur, self.exit);
                // Anything after a `return` in the same node list is
                // unreachable; park it in a predecessor-less block.
                self.cur = self.new_block();
            }
            Node::Break => {
                if let Some(&(_, exit)) = self.loops.last() {
                    let cur = self.cur;
                    self.edge(cur, exit);
                }
                self.cur = self.new_block();
            }
            Node::Continue => {
                if let Some(&(head, _)) = self.loops.last() {
                    let cur = self.cur;
                    self.edge(cur, head);
                }
                self.cur = self.new_block();
            }
        }
    }
}

/// Build the CFG for one function body.
pub fn build(body: &[Tok], ctx: &GuardCtx<'_>) -> Cfg {
    let mut parser = Parser {
        toks: body,
        ctx,
        pos: 0,
        sites: Vec::new(),
        open_momentary: Vec::new(),
        nest_depth: 0,
    };
    let nodes = parser.parse_stmts(false);
    let sites = parser.sites;

    let mut lower = Lower { blocks: vec![Block::default()], exit: 0, loops: Vec::new(), cur: 0 };
    // Block 0 is entry; allocate exit as block 1.
    lower.exit = lower.new_block();
    let exit = lower.exit;
    lower.cur = 0;
    lower.lower_nodes(nodes);
    let last = lower.cur;
    lower.edge(last, exit);
    Cfg { blocks: lower.blocks, entry: 0, exit, sites }
}
