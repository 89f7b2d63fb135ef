//! A linear-time JSON parser into the vendored `serde::Value` tree. The
//! daemon's answers run to hundreds of KB at fleet scale, and checking
//! each one must not cost the run more than serving it did.

use serde::Value;

/// Parses `text` as exactly one JSON value; `None` if it is malformed.
/// Numbers become `U64`/`I64` when integral and `F64` otherwise.
pub fn parse(text: &str) -> Option<Value> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    p.ws();
    let v = p.value(0)?;
    p.ws();
    (p.i == p.b.len()).then_some(v)
}

/// Nesting deeper than this is refused rather than recursed into.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.i += usize::from(hit);
        hit
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Option<Value> {
        if depth > MAX_DEPTH {
            return None;
        }
        match self.peek()? {
            b'{' => self.object(depth),
            b'[' => self.array(depth),
            b'"' => self.string().map(Value::Str),
            b't' => self.word(b"true", Value::Bool(true)),
            b'f' => self.word(b"false", Value::Bool(false)),
            b'n' => self.word(b"null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            _ => None,
        }
    }

    fn object(&mut self, depth: usize) -> Option<Value> {
        self.i += 1;
        let mut entries = Vec::new();
        self.ws();
        if self.eat(b'}') {
            return Some(Value::Map(entries));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            if !self.eat(b':') {
                return None;
            }
            self.ws();
            entries.push((key, self.value(depth + 1)?));
            self.ws();
            if self.eat(b'}') {
                return Some(Value::Map(entries));
            }
            if !self.eat(b',') {
                return None;
            }
        }
    }

    fn array(&mut self, depth: usize) -> Option<Value> {
        self.i += 1;
        let mut items = Vec::new();
        self.ws();
        if self.eat(b']') {
            return Some(Value::Seq(items));
        }
        loop {
            self.ws();
            items.push(self.value(depth + 1)?);
            self.ws();
            if self.eat(b']') {
                return Some(Value::Seq(items));
            }
            if !self.eat(b',') {
                return None;
            }
        }
    }

    fn hex4(&mut self) -> Option<u32> {
        let h = std::str::from_utf8(self.b.get(self.i..self.i + 4)?).ok()?;
        let v = u32::from_str_radix(h, 16).ok()?;
        self.i += 4;
        Some(v)
    }

    fn string(&mut self) -> Option<String> {
        if !self.eat(b'"') {
            return None;
        }
        let mut out = Vec::new();
        loop {
            let c = self.peek()?;
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).ok(),
                b'\\' => {
                    let e = self.peek()?;
                    self.i += 1;
                    let ch = match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xd800..0xdc00).contains(&hi) {
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return None;
                                }
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return None;
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                hi
                            };
                            char::from_u32(code)?
                        }
                        _ => return None,
                    };
                    let mut buf = [0u8; 4];
                    out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                }
                c if c < 0x20 => return None,
                c => out.push(c),
            }
        }
    }

    fn word(&mut self, w: &[u8], v: Value) -> Option<Value> {
        self.b[self.i..].starts_with(w).then(|| {
            self.i += w.len();
            v
        })
    }

    fn digits(&mut self) -> bool {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        self.i > start
    }

    fn number(&mut self) -> Option<Value> {
        let start = self.i;
        self.eat(b'-');
        if !self.digits() {
            return None;
        }
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
            if !self.digits() {
                return None;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.i += 1;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if !self.digits() {
                return None;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).ok()?;
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Some(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Some(Value::I64(n));
            }
        }
        text.parse::<f64>().ok().map(Value::F64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_well_formed_values() {
        let v = parse(
            " {\"a\": [1, -2, 2.5, 3e4, true, false, null, \"x\\\"y\\u00e9\\ud83d\\ude00\"]} ",
        )
        .expect("valid");
        let Value::Map(entries) = v else {
            panic!("not an object")
        };
        assert_eq!(entries[0].0, "a");
        assert_eq!(
            entries[0].1,
            Value::Seq(vec![
                Value::U64(1),
                Value::I64(-2),
                Value::F64(2.5),
                Value::F64(3e4),
                Value::Bool(true),
                Value::Bool(false),
                Value::Null,
                Value::Str("x\"y\u{e9}\u{1f600}".into()),
            ])
        );
        assert_eq!(parse("{\"n\": {\"k\": [[], {}]}}").map(|_| ()), Some(()));
    }

    #[test]
    fn agrees_with_the_vendored_parser() {
        let text = "{\"cycles\": 12, \"ratio\": 0.25, \"rows\": [{\"r\": \"fixw\", \"ok\": true}]}";
        let theirs: Value = serde_json::from_str(text).expect("vendored parse");
        assert_eq!(parse(text), Some(theirs));
    }

    #[test]
    fn refuses_malformed_values() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1,]",
            "{\"a\": 1,}",
            "tru",
            "01x",
            "\"open",
            "[1] [2]",
            "{\"a\": \"\\q\"}",
            "-",
            "1.",
            "1e",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_none(), "{bad}");
        }
        assert!(parse(&"[".repeat(1000)).is_none());
    }
}
