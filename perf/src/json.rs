//! Hand-rolled JSON: a writer for results and span files, and a small
//! parser that the tests use to check the writer and `noise` uses to read a
//! run's result line back. No serde offline, and not `lint::sarif`'s parser,
//! which the roadmap merges away.

use std::fmt::Write;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Written with Rust's shortest round-trip formatting: every digit the
    /// measurement has, no more.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order is kept: output reads in the order it was built.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Compact single-line encoding.
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out);
        out
    }

    fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                assert!(n.is_finite(), "JSON has no encoding for {n}");
                write!(out, "{n}").expect("writing to a String");
            }
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_to(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse one JSON value spanning all of `text` (surrounding whitespace
/// allowed). Covers what [`Json::write`] emits, plus whitespace.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i == p.s.len() {
        Ok(v)
    } else {
        Err(format!("trailing bytes at {}", p.i))
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.s[self.i..].starts_with(lit.as_bytes());
        if hit {
            self.i += lit.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        if self.eat("null") {
            return Ok(Json::Null);
        } else if self.eat("true") {
            return Ok(Json::Bool(true));
        } else if self.eat("false") {
            return Ok(Json::Bool(false));
        } else if self.eat("[") {
            return self.seq(b']', |p| p.value()).map(Json::Arr);
        } else if self.eat("{") {
            let field = |p: &mut Self| {
                p.ws();
                let k = p.string()?;
                p.ws();
                if !p.eat(":") {
                    return Err(format!("expected ':' at {}", p.i));
                }
                Ok((k, p.value()?))
            };
            return self.seq(b'}', field).map(Json::Obj);
        } else if self.s.get(self.i) == Some(&b'"') {
            return self.string().map(Json::Str);
        }
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
        {
            self.i += 1;
        }
        let num = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII digits");
        num.parse()
            .map(Json::Num)
            .map_err(|_| format!("bad value at {start}"))
    }

    /// Comma-separated items up to `close` (the opener is consumed).
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut out = Vec::new();
        self.ws();
        if self.s.get(self.i) == Some(&close) {
            self.i += 1;
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(&b) if b == close => {
                    self.i += 1;
                    return Ok(out);
                }
                _ => return Err(format!("expected ',' or closer at {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected string at {}", self.i));
        }
        let mut out = Vec::new();
        loop {
            let b = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            let c = char::from_u32(cp).ok_or("\\u is not a scalar value")?;
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at {}", self.i - 1)),
                    }
                }
                b => out.push(b),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_round_trips_through_the_checker() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(9.0)),
            ("nothing", Json::Null),
            (
                "metrics",
                Json::obj([(
                    "job_s",
                    Json::obj([("value", Json::Num(1.4028375019)), ("unit", Json::str("s"))]),
                )]),
            ),
            (
                "odd \"keys\"\n\\",
                Json::Arr(vec![
                    Json::Num(-0.5),
                    Json::Num(1e-9),
                    Json::Num(6.02e23),
                    Json::str("tab\there \u{1} é ✓"),
                    Json::Arr(vec![]),
                    Json::Obj(vec![]),
                ]),
            ),
        ]);
        let text = v.write();
        assert!(!text.contains('\n'), "one line: {text}");
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn numbers_keep_every_digit_and_integers_stay_integers() {
        assert_eq!(Json::Num(9.0).write(), "9");
        assert_eq!(Json::Num(0.1 + 0.2).write(), "0.30000000000000004");
        assert_eq!(parse("0.30000000000000004").unwrap(), Json::Num(0.1 + 0.2));
    }

    #[test]
    fn checker_rejects_malformed_text() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "\"open",
            "1 2",
            "nul",
            "{1:2}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        assert_eq!(
            parse(" { \"a\" : [ 1 , 2 ] } ").unwrap(),
            Json::obj([("a", Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)]))])
        );
    }

    #[test]
    #[should_panic(expected = "no encoding")]
    fn non_finite_numbers_are_a_bug_not_a_null() {
        Json::Num(f64::NAN).write();
    }
}
