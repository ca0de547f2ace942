//! `lint.toml` loading.
//!
//! The workspace builds offline with no registry access, so there is no
//! `toml` crate to lean on; this module hand-rolls the small TOML subset
//! the config actually uses — `[table]`, `[[array-of-tables]]`, dotted
//! section names, string and array-of-string values, and `#` comments. Anything outside that subset is a hard error, not a
//! silent skip: a config typo must fail the build, or the lint it was
//! meant to configure silently stops checking.

use std::collections::BTreeMap;
use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Str(String),
    Array(Vec<Value>),
    Table(BTreeMap<String, Value>),
    /// `[[name]]` array-of-tables.
    TableArray(Vec<BTreeMap<String, Value>>),
}

#[derive(Debug)]
pub struct ConfigError {
    pub line: usize,
    pub msg: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.msg)
    }
}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, ConfigError> {
    Err(ConfigError { line, msg: msg.into() })
}

/// Parse the TOML subset into a root table.
pub fn parse(src: &str) -> Result<BTreeMap<String, Value>, ConfigError> {
    let mut root: BTreeMap<String, Value> = BTreeMap::new();
    // Path of the table currently receiving `key = value` lines, plus
    // whether it is the last element of a [[...]] array.
    let mut current: Vec<String> = Vec::new();
    let mut current_is_array = false;
    let lines: Vec<&str> = src.lines().collect();
    let mut idx = 0;
    while idx < lines.len() {
        let line_no = idx + 1;
        let mut joined;
        let mut line = strip_comment(lines[idx]).trim();
        // Multi-line array: a `key = [` value keeps consuming lines until
        // the bracket balance closes (strings cannot contain brackets that
        // matter — strip_comment already handled quoting per line).
        if line.contains('=') && array_still_open(line) {
            joined = line.to_string();
            while idx + 1 < lines.len() && array_still_open(&joined) {
                idx += 1;
                joined.push(' ');
                joined.push_str(strip_comment(lines[idx]).trim());
            }
            line = &joined;
        }
        idx += 1;
        if line.is_empty() {
            continue;
        }
        if let Some(inner) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            let path = split_path(inner, line_no)?;
            push_table_array(&mut root, &path, line_no)?;
            current = path;
            current_is_array = true;
        } else if let Some(inner) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            let path = split_path(inner, line_no)?;
            ensure_table(&mut root, &path, line_no)?;
            current = path;
            current_is_array = false;
        } else if let Some(eq) = find_eq(line) {
            let key = line[..eq].trim();
            if key.is_empty() {
                return err(line_no, "empty key");
            }
            let val = parse_value(line[eq + 1..].trim(), line_no)?;
            let tbl = resolve_mut(&mut root, &current, current_is_array, line_no)?;
            if tbl.insert(key.to_string(), val).is_some() {
                return err(line_no, format!("duplicate key `{key}`"));
            }
        } else {
            return err(line_no, format!("unparseable line: `{line}`"));
        }
    }
    Ok(root)
}

/// Does `s` contain an unbalanced `[` outside strings (a multi-line
/// array value that has not closed yet)?
fn array_still_open(s: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    let mut seen = false;
    for c in s.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => {
                depth += 1;
                seen = true;
            }
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    seen && depth > 0
}

/// `=` at top level (not inside a string).
fn find_eq(line: &str) -> Option<usize> {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '=' if !in_str => return Some(i),
            _ => {}
        }
    }
    None
}

fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn split_path(s: &str, line: usize) -> Result<Vec<String>, ConfigError> {
    let parts: Vec<String> = s.split('.').map(|p| p.trim().to_string()).collect();
    if parts.iter().any(String::is_empty) {
        return err(line, format!("bad table name `{s}`"));
    }
    Ok(parts)
}

fn ensure_table(
    root: &mut BTreeMap<String, Value>,
    path: &[String],
    line: usize,
) -> Result<(), ConfigError> {
    let mut tbl = root;
    for seg in path {
        let entry = tbl.entry(seg.clone()).or_insert_with(|| Value::Table(BTreeMap::new()));
        match entry {
            Value::Table(t) => tbl = t,
            _ => return err(line, format!("`{seg}` is not a table")),
        }
    }
    Ok(())
}

fn push_table_array(
    root: &mut BTreeMap<String, Value>,
    path: &[String],
    line: usize,
) -> Result<(), ConfigError> {
    let (last, prefix) = path.split_last().expect("split_path rejects empty");
    let mut tbl = root;
    for seg in prefix {
        let entry = tbl.entry(seg.clone()).or_insert_with(|| Value::Table(BTreeMap::new()));
        match entry {
            Value::Table(t) => tbl = t,
            _ => return err(line, format!("`{seg}` is not a table")),
        }
    }
    let entry = tbl.entry(last.clone()).or_insert_with(|| Value::TableArray(Vec::new()));
    match entry {
        Value::TableArray(v) => {
            v.push(BTreeMap::new());
            Ok(())
        }
        _ => err(line, format!("`{last}` is not an array of tables")),
    }
}

fn resolve_mut<'a>(
    root: &'a mut BTreeMap<String, Value>,
    path: &[String],
    is_array: bool,
    line: usize,
) -> Result<&'a mut BTreeMap<String, Value>, ConfigError> {
    if path.is_empty() {
        return Ok(root);
    }
    let (last, prefix) = path.split_last().expect("nonempty");
    let mut tbl = root;
    for seg in prefix {
        match tbl.get_mut(seg) {
            Some(Value::Table(t)) => tbl = t,
            _ => return err(line, format!("internal: missing table `{seg}`")),
        }
    }
    match tbl.get_mut(last) {
        Some(Value::Table(t)) if !is_array => Ok(t),
        Some(Value::TableArray(v)) if is_array => {
            Ok(v.last_mut().expect("array entry pushed on open"))
        }
        _ => err(line, format!("internal: missing table `{last}`")),
    }
}

fn parse_value(s: &str, line: usize) -> Result<Value, ConfigError> {
    if let Some(rest) = s.strip_prefix('"') {
        let Some(end) = rest.find('"') else {
            return err(line, "unterminated string");
        };
        if !rest[end + 1..].trim().is_empty() {
            return err(line, "trailing characters after string");
        }
        return Ok(Value::Str(rest[..end].to_string()));
    }
    if let Some(inner) = s.strip_prefix('[') {
        let Some(inner) = inner.strip_suffix(']') else {
            return err(line, "arrays must be single-line and end with `]`");
        };
        let mut items = Vec::new();
        for part in split_array_items(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            items.push(parse_value(part, line)?);
        }
        return Ok(Value::Array(items));
    }
    err(line, format!("unsupported value `{s}` (strings and arrays of them only)"))
}

/// Split on commas outside quotes.
fn split_array_items(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

// ---------------------------------------------------------------------
// Typed accessors used by lib.rs when building the checker config.
// ---------------------------------------------------------------------

pub fn get_str_list(tbl: &BTreeMap<String, Value>, key: &str) -> Vec<String> {
    match tbl.get(key) {
        Some(Value::Array(items)) => items
            .iter()
            .filter_map(|v| match v {
                Value::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect(),
        Some(Value::Str(s)) => vec![s.clone()],
        _ => Vec::new(),
    }
}

pub fn get_str(tbl: &BTreeMap<String, Value>, key: &str) -> Option<String> {
    match tbl.get(key) {
        Some(Value::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

pub fn get_table_array<'a>(
    tbl: &'a BTreeMap<String, Value>,
    key: &str,
) -> Vec<&'a BTreeMap<String, Value>> {
    match tbl.get(key) {
        Some(Value::TableArray(v)) => v.iter().collect(),
        _ => Vec::new(),
    }
}

pub fn get_table<'a>(
    tbl: &'a BTreeMap<String, Value>,
    key: &str,
) -> Option<&'a BTreeMap<String, Value>> {
    match tbl.get(key) {
        Some(Value::Table(t)) => Some(t),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_subset() {
        let src = r#"
# comment
[workspace]
roots = ["crates", "src"]

[[lock-class]]
name = "node-state"
files = ["crates/core/src/node.rs"]

[[lock-class]]
name = "gcs-group"

[rules.lock-ordering]
edges = ["a < b"]
"#;
        let root = parse(src).unwrap();
        let ws = get_table(&root, "workspace").unwrap();
        assert_eq!(get_str_list(ws, "roots"), vec!["crates", "src"]);
        let classes = get_table_array(&root, "lock-class");
        assert_eq!(classes.len(), 2);
        assert_eq!(get_str(classes[0], "name").unwrap(), "node-state");
        let rules = get_table(&root, "rules").unwrap();
        let lo = get_table(rules, "lock-ordering").unwrap();
        assert_eq!(get_str_list(lo, "edges"), vec!["a < b"]);
    }

    #[test]
    fn typos_fail_loudly() {
        assert!(parse("key = unquoted").is_err());
        assert!(parse("strict = true").is_err(), "no option takes a bool");
        assert!(parse("[unclosed").is_err());
        assert!(parse("a = \"x\"\na = \"y\"").is_err(), "duplicate keys rejected");
        assert!(parse("= \"v\"").is_err());
    }

    #[test]
    fn comments_inside_strings_survive() {
        let root = parse("k = \"a # not a comment\"").unwrap();
        assert_eq!(get_str(&root, "k").unwrap(), "a # not a comment");
    }
}
