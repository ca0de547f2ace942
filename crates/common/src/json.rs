//! The workspace's one JSON well-formedness checker.
//!
//! Every JSON document the workspace emits (Perfetto traces, cluster
//! reports, bench rows) comes from a hand-rolled string builder — there is
//! no JSON dependency — so the producers and the tests share this validator
//! instead of each carrying a private parser.

/// Recursive-descent JSON well-formedness check: `Ok` iff `text` is exactly
/// one RFC 8259 value. `sirep-cluster` runs it over `report.json`,
/// `trace.json` and the bench output before writing them (check.sh asserts
/// on the role's exit code, not on a JSON parser it would have to ship), and
/// the test suites run it over every renderer's output.
pub fn json_lint(text: &str) -> Result<(), String> {
    struct P<'a> {
        b: &'a [u8],
        i: usize,
    }
    impl P<'_> {
        fn ws(&mut self) {
            while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
                self.i += 1;
            }
        }
        fn peek(&self) -> Option<u8> {
            self.b.get(self.i).copied()
        }
        fn eat(&mut self, c: u8) -> Result<(), String> {
            if self.peek() == Some(c) {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at byte {}", c as char, self.i))
            }
        }
        fn value(&mut self, depth: usize) -> Result<(), String> {
            if depth > 128 {
                return Err("nesting too deep".into());
            }
            self.ws();
            match self.peek() {
                Some(b'{') => {
                    self.i += 1;
                    self.ws();
                    if self.peek() == Some(b'}') {
                        self.i += 1;
                        return Ok(());
                    }
                    loop {
                        self.ws();
                        self.string()?;
                        self.ws();
                        self.eat(b':')?;
                        self.value(depth + 1)?;
                        self.ws();
                        match self.peek() {
                            Some(b',') => self.i += 1,
                            Some(b'}') => {
                                self.i += 1;
                                return Ok(());
                            }
                            _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                        }
                    }
                }
                Some(b'[') => {
                    self.i += 1;
                    self.ws();
                    if self.peek() == Some(b']') {
                        self.i += 1;
                        return Ok(());
                    }
                    loop {
                        self.value(depth + 1)?;
                        self.ws();
                        match self.peek() {
                            Some(b',') => self.i += 1,
                            Some(b']') => {
                                self.i += 1;
                                return Ok(());
                            }
                            _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                        }
                    }
                }
                Some(b'"') => self.string(),
                Some(b't') => self.lit("true"),
                Some(b'f') => self.lit("false"),
                Some(b'n') => self.lit("null"),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                _ => Err(format!("unexpected byte {} in value position", self.i)),
            }
        }
        fn lit(&mut self, word: &str) -> Result<(), String> {
            if self.b[self.i..].starts_with(word.as_bytes()) {
                self.i += word.len();
                Ok(())
            } else {
                Err(format!("bad literal at byte {}", self.i))
            }
        }
        fn string(&mut self) -> Result<(), String> {
            self.eat(b'"')?;
            while let Some(c) = self.peek() {
                self.i += 1;
                match c {
                    b'"' => return Ok(()),
                    b'\\' => {
                        let esc = self.peek().ok_or("truncated escape")?;
                        self.i += 1;
                        match esc {
                            b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => {}
                            b'u' => {
                                for _ in 0..4 {
                                    let h = self.peek().ok_or("truncated \\u escape")?;
                                    if !h.is_ascii_hexdigit() {
                                        return Err(format!("bad \\u escape at byte {}", self.i));
                                    }
                                    self.i += 1;
                                }
                            }
                            _ => return Err(format!("bad escape at byte {}", self.i)),
                        }
                    }
                    c if c < 0x20 => {
                        return Err(format!("raw control byte in string at {}", self.i))
                    }
                    _ => {}
                }
            }
            Err("unterminated string".into())
        }
        fn number(&mut self) -> Result<(), String> {
            let start = self.i;
            if self.peek() == Some(b'-') {
                self.i += 1;
            }
            let mut digits = 0;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
                digits += 1;
            }
            if digits == 0 {
                return Err(format!("bad number at byte {start}"));
            }
            if self.peek() == Some(b'.') {
                self.i += 1;
                let mut frac = 0;
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.i += 1;
                    frac += 1;
                }
                if frac == 0 {
                    return Err(format!("bad fraction at byte {start}"));
                }
            }
            if matches!(self.peek(), Some(b'e') | Some(b'E')) {
                self.i += 1;
                if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                    self.i += 1;
                }
                let mut exp = 0;
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.i += 1;
                    exp += 1;
                }
                if exp == 0 {
                    return Err(format!("bad exponent at byte {start}"));
                }
            }
            Ok(())
        }
    }
    let mut p = P { b: text.as_bytes(), i: 0 };
    p.value(0)?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes after value at byte {}", p.i));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::json_lint;

    #[test]
    fn accepts_well_formed_documents() {
        for doc in [
            "{}",
            "[]",
            " {\"a\":[1,-2.5e+3,true,false,null,\"x\\n\\u00e9\"],\"b\":{\"c\":{}}} \n",
            "0",
            "\"\"",
        ] {
            assert_eq!(json_lint(doc), Ok(()), "{doc}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1 2]",
            "[1,]",
            "{a:1}",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"raw \n newline\"",
            "01x",
            "1.",
            "1e",
            "-",
            "tru",
            "{} {}",
        ] {
            assert!(json_lint(doc).is_err(), "{doc:?} should not parse");
        }
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(json_lint(&deep).is_err(), "nesting bound");
    }
}
