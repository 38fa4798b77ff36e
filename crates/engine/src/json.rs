//! The workspace's one JSON codec: a value enum, a recursive-descent
//! parser, and a string escaper.
//!
//! The build is offline (no serde), and every JSON document the workspace
//! reads back — Chrome-trace exports ([`crate::trace`]) and `textmr-lint`'s
//! SARIF logs — is one its own hand-rolled writers produced, so the codec
//! is small. Both readers take files from outside the program, though, so
//! the parser is written for hostile input: it never panics, it caps
//! nesting at [`MAX_DEPTH`] (recursion depth is the only stack it uses),
//! it rejects numbers that do not fit a finite `f64`, and it copies string
//! bytes in runs between escapes, so parse time is linear in the input.

use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. The workspace's own
/// documents nest 9 levels (SARIF code flows); the cap only exists so a
/// hostile `[[[[…` cannot overflow the stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, held as a finite `f64`.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array payload.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric payload.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Escape `s` for inclusion between the quotes of a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Parse one complete JSON document (surrounding whitespace allowed,
/// trailing data rejected).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return p.err("trailing data");
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    /// Open arrays/objects around the cursor.
    depth: usize,
}

impl Parser<'_> {
    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("json: {what} at byte {}", self.i))
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", c as char))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.peek() {
            Some(b'{') => self
                .nested(b'}', |p| {
                    p.ws();
                    let key = p.string()?;
                    p.ws();
                    p.eat(b':')?;
                    Ok((key, p.value()?))
                })
                .map(Json::Obj),
            Some(b'[') => self.nested(b']', Parser::value).map(Json::Arr),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("expected a value"),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            self.err("bad literal")
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.i += 1;
        }
        // The scanned bytes are ASCII, so the slice is valid UTF-8.
        match std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
        {
            Some(n) if n.is_finite() => Ok(Json::Num(n)),
            Some(_) => Err(format!("json: number out of range at byte {start}")),
            None => Err(format!("json: bad number at byte {start}")),
        }
    }

    /// The comma-separated items of an array or object, the cursor on its
    /// opening bracket; `close` is the matching closing bracket.
    fn nested<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        if self.depth == MAX_DEPTH {
            return self.err(&format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.depth += 1;
        self.i += 1;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(close) {
            self.i += 1;
        } else {
            loop {
                items.push(item(self)?);
                self.ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(c) if c == close => {
                        self.i += 1;
                        break;
                    }
                    _ => return self.err(&format!("expected ',' or '{}'", close as char)),
                }
            }
        }
        self.depth -= 1;
        Ok(items)
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one piece.
            // Both are ASCII, so they never split a multi-byte scalar and
            // the run of a `&str` input is itself valid UTF-8.
            let run = self.i;
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.i += 1;
            }
            match std::str::from_utf8(&self.b[run..self.i]) {
                Ok(s) => out.push_str(s),
                Err(_) => return Err(format!("json: invalid utf-8 at byte {run}")),
            }
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(_) => self.i += 1, // the backslash
            }
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let code = self
                        .b
                        .get(self.i + 1..self.i + 5)
                        .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .and_then(|h| u32::from_str_radix(h, 16).ok());
                    let Some(code) = code else {
                        return self.err("bad \\u escape");
                    };
                    // Surrogate halves become a replacement char: readers
                    // here need structure, not lossless astral text.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    self.i += 4;
                }
                _ => return self.err("bad escape"),
            }
            self.i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_value_kind_and_nesting() {
        let doc = parse(
            " {\"a\":[1,2.5,-3e2,true,false,null],\"s\":\"q\\\"\\\\\\n\\u0041\\/\",\
             \"o\":{},\"e\":[],\"n\":{\"x\":[{\"y\":\"z\"}]}} ",
        )
        .unwrap();
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("q\"\\\nA/"));
        let a = doc.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(a.len(), 6);
        assert_eq!(a[2].as_num(), Some(-300.0));
        assert_eq!(a[3], Json::Bool(true));
        assert_eq!(a[5], Json::Null);
        assert_eq!(doc.get("o"), Some(&Json::Obj(Vec::new())));
        assert_eq!(doc.get("e").and_then(Json::as_arr), Some(&[][..]));
        let y = doc.get("n").and_then(|n| n.get("x")).unwrap();
        assert_eq!(
            y.as_arr().unwrap()[0].get("y").and_then(Json::as_str),
            Some("z")
        );
        // Accessors are `None` off-type, never a panic.
        assert_eq!(doc.get("a").and_then(|a| a.get("k")), None);
        assert_eq!(doc.as_str(), None);
    }

    #[test]
    fn escaping_survives_the_parser() {
        let tricky = "a\"b\\c\nd\te\r\u{1}é漢\u{1f600}";
        let doc = parse(&format!("{{\"note\":\"{}\"}}", escape(tricky))).unwrap();
        assert_eq!(doc.get("note").and_then(Json::as_str), Some(tricky));
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse("\"\\u00e9\\u6f22\"").unwrap().as_str(), Some("é漢"));
        // A lone surrogate half degrades to U+FFFD.
        assert_eq!(parse("\"\\ud83d\"").unwrap().as_str(), Some("\u{fffd}"));
        for bad in ["\"\\u12\"", "\"\\u12", "\"\\uzzzz\"", "\"\\u+123\""] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("\\u escape"), "{bad}: {err}");
        }
    }

    #[test]
    fn rejects_malformed_documents_with_named_errors() {
        for (bad, what) in [
            ("", "expected a value"),
            ("not json", "bad literal"),
            ("tru", "bad literal"),
            ("nul", "bad literal"),
            ("[1,2,]", "expected a value"),
            ("[1 2]", "expected ',' or ']'"),
            ("{\"a\":1,}", "expected '\"'"),
            ("{\"a\" 1}", "expected ':'"),
            ("{\"a\":1} x", "trailing data"),
            ("[] []", "trailing data"),
            ("\"unterminated", "unterminated string"),
            ("\"bad \\q escape\"", "bad escape"),
            ("\"dangling \\", "bad escape"),
            ("-", "bad number"),
            ("1e", "bad number"),
            ("1-2", "bad number"),
            ("1e999", "number out of range"),
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains(what), "{bad:?}: got {err:?}, wanted {what:?}");
        }
    }

    #[test]
    fn nesting_is_capped_with_a_named_error() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        parse(&ok).unwrap();
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).unwrap_err().contains("nesting deeper than"));
        // The input that used to overflow the stack, in both bracket kinds.
        assert!(parse(&"[".repeat(2_000_000))
            .unwrap_err()
            .contains("nesting deeper than"));
        assert!(parse(&"{\"k\":".repeat(500_000))
            .unwrap_err()
            .contains("nesting deeper than"));
        // Depth counts open brackets, not brackets seen.
        parse(&format!("[{}]", "[[]],".repeat(10_000) + "[]")).unwrap();
    }

    #[test]
    fn one_mebibyte_string_parses_in_linear_time() {
        // The per-character tail re-validation this parser replaced took
        // > 10 s on this document; a linear scan takes milliseconds. The
        // bound is generous so a loaded CI host cannot trip it.
        let body = "é\\n".repeat(1 << 18) + &"x".repeat(1 << 20);
        let doc = format!("{{\"s\":\"{body}\"}}");
        let t = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let took = t.elapsed();
        let s = v.get("s").and_then(Json::as_str).unwrap();
        assert_eq!(s.len(), 3 * (1 << 18) + (1 << 20));
        assert!(took.as_secs_f64() < 1.0, "1 MiB string took {took:?}");
    }
}
