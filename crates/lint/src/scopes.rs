//! Item extraction: carve a lexed file into functions with their body
//! token streams, remembering the enclosing `impl`/`mod` context and
//! whether the code is test-only (`#[cfg(test)]` module, `#[test]` fn).
//!
//! This is deliberately not a parser — it walks brace structure and a few
//! keywords. That is enough for the invariant rules, which only need (a)
//! per-function token streams, (b) the impl type a method belongs to, and
//! (c) a test/non-test classification.

use crate::lexer::{Tok, TokKind};

/// One extracted function.
#[derive(Debug)]
pub struct Func {
    pub name: String,
    /// Type name of the enclosing `impl` block, if any (`impl Foo` and
    /// `impl Trait for Foo` both record `Foo`).
    pub impl_type: Option<String>,
    /// Signature tokens, `fn` through the token before the body `{`.
    pub sig: Vec<Tok>,
    /// Body tokens, exclusive of the outer braces.
    pub body: Vec<Tok>,
    pub line: u32,
    /// Inside `#[cfg(test)]` / `#[test]` / a `mod tests`-style region.
    pub is_test: bool,
}

impl Func {
    /// Does the signature declare a parameter (or return) of type `ty`?
    /// Token-level: any identifier in the signature equal to `ty`.
    pub fn sig_mentions_type(&self, ty: &str) -> bool {
        self.sig.iter().any(|t| t.ident() == Some(ty))
    }
}

/// Extract all functions from a token stream.
pub fn extract_funcs(toks: &[Tok]) -> Vec<Func> {
    let mut out = Vec::new();
    let mut i = 0;
    walk(toks, &mut i, None, false, &mut out);
    out
}

/// Recursive item-level walk. `i` points into `toks`; consumes until the
/// closing `}` of the current block (or end of input at top level).
fn walk(toks: &[Tok], i: &mut usize, impl_type: Option<&str>, in_test: bool, out: &mut Vec<Func>) {
    // Attributes seen since the last item, flattened to ident lists.
    let mut pending_attrs: Vec<Vec<String>> = Vec::new();
    while *i < toks.len() {
        let t = &toks[*i];
        match &t.kind {
            TokKind::Punct('}') => {
                *i += 1;
                return;
            }
            TokKind::Punct('#') => {
                // `#[...]` or `#![...]`: collect the attribute's idents.
                *i += 1;
                if *i < toks.len() && toks[*i].is_punct('!') {
                    *i += 1;
                }
                if *i < toks.len() && toks[*i].is_punct('[') {
                    *i += 1;
                    let mut idents = Vec::new();
                    let mut depth = 1;
                    while *i < toks.len() && depth > 0 {
                        match &toks[*i].kind {
                            TokKind::Punct('[') => depth += 1,
                            TokKind::Punct(']') => depth -= 1,
                            TokKind::Ident(s) => idents.push(s.clone()),
                            _ => {}
                        }
                        *i += 1;
                    }
                    pending_attrs.push(idents);
                }
            }
            TokKind::Ident(kw) if kw == "fn" => {
                let attrs = std::mem::take(&mut pending_attrs);
                let is_test = in_test || attrs_mark_test(&attrs);
                let fn_line = t.line;
                *i += 1;
                let name = match toks.get(*i).and_then(|t| t.ident()) {
                    Some(n) => n.to_string(),
                    None => continue, // `fn` used as an ident (e.g. Fn traits lexed oddly)
                };
                // Signature runs to the body `{` at angle/paren depth 0; a
                // `;` first means a bodyless declaration.
                let sig_start = *i;
                let mut body = Vec::new();
                let mut found_body = false;
                let mut paren = 0i32;
                while *i < toks.len() {
                    match &toks[*i].kind {
                        TokKind::Punct('(') | TokKind::Punct('[') => paren += 1,
                        TokKind::Punct(')') | TokKind::Punct(']') => paren -= 1,
                        TokKind::Punct(';') if paren == 0 => {
                            *i += 1;
                            break;
                        }
                        TokKind::Punct('{') if paren == 0 => {
                            found_body = true;
                            break;
                        }
                        _ => {}
                    }
                    *i += 1;
                }
                if !found_body {
                    continue;
                }
                let sig: Vec<Tok> = toks[sig_start..*i].to_vec();
                *i += 1; // past `{`
                let mut depth = 1;
                while *i < toks.len() && depth > 0 {
                    match &toks[*i].kind {
                        TokKind::Punct('{') => depth += 1,
                        TokKind::Punct('}') => depth -= 1,
                        _ => {}
                    }
                    if depth > 0 {
                        body.push(toks[*i].clone());
                    }
                    *i += 1;
                }
                out.push(Func {
                    name,
                    impl_type: impl_type.map(String::from),
                    sig,
                    body,
                    line: fn_line,
                    is_test,
                });
            }
            TokKind::Ident(kw) if kw == "impl" => {
                let attrs = std::mem::take(&mut pending_attrs);
                let is_test = in_test || attrs_mark_test(&attrs);
                *i += 1;
                // Find the impl'd type: the last path identifier before the
                // opening `{` (handles `impl Foo`, `impl<T> Foo<T>`,
                // `impl Trait for Foo`, `impl Drop for Foo<'_>`).
                let mut last_ident: Option<String> = None;
                while *i < toks.len() && !toks[*i].is_punct('{') {
                    if toks[*i].is_punct(';') {
                        break;
                    }
                    if let Some(s) = toks[*i].ident() {
                        if s == "for" {
                            last_ident = None;
                        } else if s != "where" && s != "dyn" && s != "mut" {
                            last_ident = Some(s.to_string());
                        }
                    } else if toks[*i].is_punct('<') {
                        // Skip generic argument lists so `Foo<Bar>` records
                        // Foo, not Bar.
                        let mut depth = 1;
                        *i += 1;
                        while *i < toks.len() && depth > 0 {
                            match &toks[*i].kind {
                                TokKind::Punct('<') => depth += 1,
                                TokKind::Punct('>') => depth -= 1,
                                _ => {}
                            }
                            *i += 1;
                        }
                        continue;
                    }
                    *i += 1;
                }
                if *i < toks.len() && toks[*i].is_punct('{') {
                    *i += 1;
                    walk(toks, i, last_ident.as_deref(), is_test, out);
                }
            }
            TokKind::Ident(kw) if kw == "mod" => {
                let attrs = std::mem::take(&mut pending_attrs);
                let mod_name =
                    toks.get(*i + 1).and_then(|t| t.ident()).unwrap_or_default().to_string();
                let is_test = in_test || attrs_mark_test(&attrs) || mod_name == "tests";
                *i += 1;
                while *i < toks.len() && !toks[*i].is_punct('{') && !toks[*i].is_punct(';') {
                    *i += 1;
                }
                if *i < toks.len() && toks[*i].is_punct('{') {
                    *i += 1;
                    walk(toks, i, None, is_test, out);
                } else if *i < toks.len() {
                    *i += 1; // `mod name;`
                }
            }
            TokKind::Punct('{') => {
                // Non-item block (struct/enum/trait body, const init, …):
                // recurse so nested fns (trait default methods) are found.
                *i += 1;
                walk(toks, i, impl_type, in_test, out);
            }
            _ => {
                if !matches!(t.kind, TokKind::Punct('#')) && !t.is_punct(']') {
                    // Any other token at item level invalidates pending
                    // attributes only when it terminates an item (`;`).
                    if t.is_punct(';') {
                        pending_attrs.clear();
                    }
                }
                *i += 1;
            }
        }
    }
}

fn attrs_mark_test(attrs: &[Vec<String>]) -> bool {
    attrs.iter().any(|idents| {
        // `#[cfg(not(test))]` is production code; anything else mentioning
        // `test` (`#[test]`, `#[cfg(test)]`, `#[cfg(any(test, ..))]`) is
        // test-only.
        idents.iter().any(|s| s == "test") && !idents.iter().any(|s| s == "not")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn funcs(src: &str) -> Vec<Func> {
        extract_funcs(&lex(src).0)
    }

    #[test]
    fn finds_methods_with_impl_context() {
        let fs = funcs(
            "impl<M: Clone> Group<M> { fn join(&self) -> Member<M> { body(); } }\n\
             impl Drop for Guard<'_> { fn drop(&mut self) { x(); } }\n\
             fn free() {}",
        );
        assert_eq!(fs.len(), 3);
        assert_eq!(fs[0].name, "join");
        assert_eq!(fs[0].impl_type.as_deref(), Some("Group"));
        assert_eq!(fs[1].name, "drop");
        assert_eq!(fs[1].impl_type.as_deref(), Some("Guard"));
        assert_eq!(fs[2].impl_type, None);
    }

    #[test]
    fn test_regions_are_marked() {
        let fs = funcs(
            "#[cfg(test)] mod tests { #[test] fn t() { a(); } fn helper() { b(); } }\n\
             fn prod() { c(); }",
        );
        let t = fs.iter().find(|f| f.name == "t").unwrap();
        let helper = fs.iter().find(|f| f.name == "helper").unwrap();
        let prod = fs.iter().find(|f| f.name == "prod").unwrap();
        assert!(t.is_test);
        assert!(helper.is_test, "helpers inside cfg(test) mods are test code");
        assert!(!prod.is_test);
    }

    #[test]
    fn bodyless_trait_methods_are_skipped_and_defaults_found() {
        let fs = funcs("trait T { fn decl(&self); fn dflt(&self) { x(); } }");
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].name, "dflt");
    }

    #[test]
    fn nested_fn_bodies_stay_inside_parent_body() {
        let fs = funcs("fn outer() { fn inner() { i(); } o(); }");
        assert_eq!(fs.len(), 1, "inner fn tokens belong to outer's body stream");
        assert!(fs[0].body.iter().any(|t| t.ident() == Some("inner")));
    }

    #[test]
    fn sig_mentions_param_types() {
        let fs = funcs("fn refresh(&self, st: &NodeState) { x(); }");
        assert!(fs[0].sig_mentions_type("NodeState"));
        assert!(!fs[0].sig_mentions_type("Other"));
    }
}
