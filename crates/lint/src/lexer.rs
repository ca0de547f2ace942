//! A minimal Rust lexer: just enough fidelity for token-level invariant
//! checking. Comments and string/char literal *contents* never reach the
//! rules (so a `write_all(..)` in a doc example cannot trip a lock rule),
//! but `// sirep-lint:` suppression directives are parsed out of comments
//! and surfaced separately with their line numbers.
//!
//! The workspace deliberately has no `syn`/`proc-macro2` dependency (the
//! build runs offline against vendored compat crates only), so the checker
//! works on token streams plus brace structure rather than a full AST. The
//! rules in [`crate::rules`] are written against that representation.

/// One lexed token.
#[derive(Debug, Clone, PartialEq)]
pub struct Tok {
    pub kind: TokKind,
    pub line: u32,
}

#[derive(Debug, Clone, PartialEq)]
pub enum TokKind {
    /// Identifier or keyword (raw identifiers are unescaped: `r#fn` → `fn`).
    Ident(String),
    /// Single punctuation character (`::` arrives as two `:` tokens).
    Punct(char),
    /// Lifetime, without the leading quote (`'a` → `a`).
    Lifetime(String),
    /// Any literal: string, raw string, byte string, char, number. Its
    /// text is dropped, so a call inside a string cannot trip a rule.
    Literal,
}

impl Tok {
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }

    pub fn is_literal(&self) -> bool {
        self.kind == TokKind::Literal
    }
}

/// A `// sirep-lint: allow(<rule>): <reason>` suppression directive.
#[derive(Debug, Clone, PartialEq)]
pub struct Directive {
    pub line: u32,
    pub rule: String,
    /// The justification text after the rule name. Required: an empty
    /// reason is itself reported as a violation.
    pub reason: String,
    /// Set when the directive text could not be parsed (reported so typos
    /// fail loudly instead of silently not suppressing).
    pub malformed: Option<String>,
}

pub const DIRECTIVE_PREFIX: &str = "sirep-lint:";

/// Lex `src`, returning tokens and any suppression directives found in
/// comments. Never fails: unexpected bytes become `Punct` tokens so the
/// analysis degrades gracefully on exotic input.
pub fn lex(src: &str) -> (Vec<Tok>, Vec<Directive>) {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut directives = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;
    while i < b.len() {
        let c = b[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i + 2;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                let text = &src[start..i];
                if let Some(d) = parse_directive(text, line) {
                    directives.push(d);
                }
            }
            '/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                // Block comments nest in Rust.
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                i = skip_string(b, i, &mut line);
                toks.push(Tok { kind: TokKind::Literal, line });
            }
            'r' | 'b' if starts_raw_or_byte_string(b, i) => {
                i = skip_raw_or_byte_string(b, i, &mut line);
                toks.push(Tok { kind: TokKind::Literal, line });
            }
            '\'' => {
                // Lifetime vs char literal: `'ident` not followed by a
                // closing quote is a lifetime.
                let mut j = i + 1;
                while j < b.len() && (b[j] == b'_' || (b[j] as char).is_alphanumeric()) {
                    j += 1;
                }
                if j > i + 1 && (j >= b.len() || b[j] != b'\'') {
                    toks.push(Tok { kind: TokKind::Lifetime(src[i + 1..j].to_string()), line });
                    i = j;
                } else {
                    i = skip_char_literal(b, i, &mut line);
                    toks.push(Tok { kind: TokKind::Literal, line });
                }
            }
            c if c.is_ascii_digit() => {
                let mut j = i + 1;
                while j < b.len() && (b[j] == b'_' || (b[j] as char).is_ascii_alphanumeric()) {
                    j += 1;
                }
                // Fractional part only when `.` is followed by a digit, so
                // `0..n` stays Num, Dot, Dot, Ident.
                if j + 1 < b.len() && b[j] == b'.' && (b[j + 1] as char).is_ascii_digit() {
                    j += 2;
                    while j < b.len() && (b[j] == b'_' || (b[j] as char).is_ascii_alphanumeric()) {
                        j += 1;
                    }
                }
                toks.push(Tok { kind: TokKind::Literal, line });
                i = j;
            }
            c if c == '_' || c.is_alphabetic() => {
                let start = i;
                let mut j = i + 1;
                while j < b.len() && (b[j] == b'_' || (b[j] as char).is_alphanumeric()) {
                    j += 1;
                }
                toks.push(Tok { kind: TokKind::Ident(src[start..j].to_string()), line });
                i = j;
            }
            '#' if i + 1 < b.len() && b[i + 1] == b'!' && i + 2 < b.len() && b[i + 2] == b'[' => {
                // `#![...]` inner attribute: emit as punct tokens.
                toks.push(Tok { kind: TokKind::Punct('#'), line });
                i += 1;
            }
            _ => {
                // Raw identifier `r#name` is handled under 'r' above only
                // for strings; catch it here when 'r' fell through.
                toks.push(Tok { kind: TokKind::Punct(c), line });
                i += 1;
            }
        }
    }
    (toks, directives)
}

fn starts_raw_or_byte_string(b: &[u8], i: usize) -> bool {
    // r"..", r#".."#, b"..", br"..", b'..' byte char is NOT handled here
    // (plain char path covers it once we report false).
    let n = b.len();
    match b[i] {
        b'r' => {
            // Distinguish r#raw_ident from r#"raw string".
            if i + 1 < n && b[i + 1] == b'"' {
                return true;
            }
            if i + 1 < n && b[i + 1] == b'#' {
                let mut j = i + 1;
                while j < n && b[j] == b'#' {
                    j += 1;
                }
                return j < n && b[j] == b'"';
            }
            false
        }
        b'b' => {
            if i + 1 < n && b[i + 1] == b'"' {
                return true;
            }
            if i + 1 < n && b[i + 1] == b'r' {
                let mut j = i + 2;
                while j < n && b[j] == b'#' {
                    j += 1;
                }
                return j < n && b[j] == b'"';
            }
            false
        }
        _ => false,
    }
}

fn skip_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    debug_assert_eq!(b[i], b'"');
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

fn skip_raw_or_byte_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    // Skip the `r`/`b`/`br` prefix and count `#`s.
    let mut raw = false;
    while i < b.len() && (b[i] == b'r' || b[i] == b'b') {
        raw |= b[i] == b'r';
        i += 1;
    }
    let mut hashes = 0;
    while i < b.len() && b[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if i < b.len() && b[i] == b'"' {
        i += 1;
        if hashes == 0 {
            return skip_plain_after_quote(b, i, line, raw);
        }
        // Raw string: ends at `"` followed by `hashes` hashes.
        while i < b.len() {
            if b[i] == b'\n' {
                *line += 1;
            }
            if b[i] == b'"' {
                let mut j = i + 1;
                let mut seen = 0;
                while j < b.len() && b[j] == b'#' && seen < hashes {
                    j += 1;
                    seen += 1;
                }
                if seen == hashes {
                    return j;
                }
            }
            i += 1;
        }
    }
    i
}

fn skip_plain_after_quote(b: &[u8], mut i: usize, line: &mut u32, raw: bool) -> usize {
    while i < b.len() {
        match b[i] {
            b'\\' if !raw => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

fn skip_char_literal(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    debug_assert_eq!(b[i], b'\'');
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\'' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Parse a suppression directive out of one line-comment body.
fn parse_directive(comment: &str, line: u32) -> Option<Directive> {
    let t = comment.trim();
    let rest = t.strip_prefix(DIRECTIVE_PREFIX)?.trim();
    let malformed = |msg: &str| {
        Some(Directive {
            line,
            rule: String::new(),
            reason: String::new(),
            malformed: Some(msg.to_string()),
        })
    };
    let Some(inner) = rest.strip_prefix("allow(") else {
        return malformed("expected `allow(<rule>): <reason>`");
    };
    let Some(close) = inner.find(')') else {
        return malformed("unclosed `allow(`");
    };
    let rule = inner[..close].trim().to_string();
    if rule.is_empty() {
        return malformed("empty rule name in `allow()`");
    }
    let after = inner[close + 1..].trim();
    let reason = after.strip_prefix(':').map_or("", str::trim).to_string();
    Some(Directive { line, rule, reason, malformed: None })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).0.iter().filter_map(|t| t.ident().map(String::from)).collect()
    }

    #[test]
    fn comments_and_literal_contents_are_invisible() {
        let src = r###"
            // a.unwrap() in a comment
            /* nested /* unwrap() */ still comment */
            let s = "unwrap() inside a string";
            let r = r#"raw "unwrap()" string"#;
            let c = 'u';
            real_ident();
        "###;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let (toks, _) = lex("fn f<'a>(x: &'a str) { let c = 'x'; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Lifetime(l) => Some(l.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(lifetimes, vec!["a".to_string(), "a".to_string()]);
    }

    #[test]
    fn directives_parse_with_reason() {
        let (_, ds) = lex("// sirep-lint: allow(lock-ordering): registry is a leaf\nx();");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].rule, "lock-ordering");
        assert_eq!(ds[0].reason, "registry is a leaf");
        assert!(ds[0].malformed.is_none());
    }

    #[test]
    fn malformed_directives_are_flagged_not_dropped() {
        let (_, ds) = lex("// sirep-lint: allowed(nope)\n");
        assert_eq!(ds.len(), 1);
        assert!(ds[0].malformed.is_some());
        let (_, ds) = lex("// sirep-lint: allow(rule-with-no-reason)\n");
        assert_eq!(ds.len(), 1);
        assert!(ds[0].malformed.is_none());
        assert!(ds[0].reason.is_empty(), "missing reason surfaces as empty string");
    }

    #[test]
    fn numbers_do_not_eat_range_dots() {
        let (toks, _) = lex("0..n");
        let dots = toks.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2);
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let (toks, _) = lex("a\n\"x\ny\"\nb");
        let b = toks.iter().find(|t| t.ident() == Some("b")).unwrap();
        assert_eq!(b.line, 4);
    }
}
