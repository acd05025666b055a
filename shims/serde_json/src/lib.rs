//! Offline stand-in for `serde_json`: prints and parses the [`serde::Value`]
//! tree produced by the serde shim. Supports the API surface this workspace
//! uses: [`to_string`], [`to_string_pretty`], [`from_str`].

pub use serde::Value;
use serde::{Deserialize, Error, Serialize};
use std::fmt::Write as _;

/// Result alias mirroring `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes a value to two-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parses a value from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing input at byte {}", p.pos)));
    }
    T::from_value(&v)
}

// ---------------------------------------------------------------- printing

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Num(f) => write_f64(out, *f),
        Value::Str(s) => write_string(out, s),
        Value::Arr(items) => write_seq(out, indent, level, '[', ']', items.len(), |out, i| {
            write_value(out, &items[i], indent, level + 1)
        }),
        Value::Obj(fields) => write_seq(out, indent, level, '{', '}', fields.len(), |out, i| {
            write_string(out, &fields[i].0);
            out.push(':');
            if indent.is_some() {
                out.push(' ');
            }
            write_value(out, &fields[i].1, indent, level + 1)
        }),
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (level + 1)));
        }
        item(out, i);
    }
    if len > 0 {
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * level));
        }
    }
    out.push(close);
}

fn write_f64(out: &mut String, f: f64) {
    if f.is_finite() {
        if f == f.trunc() && f.abs() < 1e15 {
            // keep a float marker so round trips stay floats
            let _ = write!(out, "{f:.1}");
        } else {
            let _ = write!(out, "{f}");
        }
    } else {
        out.push_str("null");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

// ----------------------------------------------------------------- parsing

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> Result<()> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(Error(format!("expected `{lit}` at byte {}", self.pos)))
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => {
                self.eat_literal("null")?;
                Ok(Value::Null)
            }
            Some(b't') => {
                self.eat_literal("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.eat_literal("false")?;
                Ok(Value::Bool(false))
            }
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(Error(format!("bad array at byte {}", self.pos))),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    let value = self.parse_value()?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(Error(format!("bad object at byte {}", self.pos))),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(Error(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| Error("bad \\u escape".into()))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(b) => {
                    // consume one multi-byte UTF-8 code point; validate only
                    // its own bytes (validating the whole remaining input per
                    // character would make string parsing quadratic)
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(Error("invalid UTF-8".into())),
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .ok_or_else(|| Error("invalid UTF-8".into()))?;
                    let c = std::str::from_utf8(chunk)
                        .map_err(|_| Error("invalid UTF-8".into()))?
                        .chars()
                        .next()
                        .expect("non-empty");
                    out.push(c);
                    self.pos += len;
                }
                None => return Err(Error("unterminated string".into())),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        let mut is_float = false;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".into()))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|_| Error(format!("invalid number `{text}`")))
        } else {
            match text.parse::<i128>() {
                Ok(i) => Ok(Value::Int(i)),
                // Digit strings beyond i128 range are large floats: Rust's
                // `Display` for f64 never uses exponent notation, so e.g.
                // 2.8e164 serializes as a 165-digit integer literal. Fall
                // back to f64 (shortest-repr parsing recovers the exact
                // bit pattern) instead of rejecting our own output.
                Err(_) => text
                    .parse::<f64>()
                    .map(Value::Num)
                    .map_err(|_| Error(format!("invalid integer `{text}`"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multibyte_strings_roundtrip_through_the_bytewise_decoder() {
        // 2-, 3-, and 4-byte code points survive the per-character decoder
        // (which validates only its own bytes, keeping parsing linear)
        let s = "π → 🦀 — ñ\u{1F600}中";
        let json = to_string(s).expect("serialize");
        let back: String = from_str(&json).expect("parse");
        assert_eq!(back, s);
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // regression guard for the quadratic re-validation bug: a ~1 MiB
        // string must parse in well under a second even in debug builds
        let s: String = "αβγδε ascii ".repeat(60_000);
        let json = to_string(&s).expect("serialize");
        let t = std::time::Instant::now();
        let back: String = from_str(&json).expect("parse");
        assert_eq!(back.len(), s.len());
        assert!(
            t.elapsed() < std::time::Duration::from_secs(5),
            "string parsing regressed to quadratic: {:?}",
            t.elapsed()
        );
    }

    #[test]
    fn huge_finite_floats_roundtrip_exactly() {
        // Display for f64 prints ≥1e15 magnitudes as bare digit strings
        // (no exponent); parsing must fall back to f64 past i128 range.
        for f in [2.8479602678411194e164, 1e300, -9.9e200, 1.8e19, -4.2e38] {
            let mut out = String::new();
            write_f64(&mut out, f);
            let v = from_str::<f64>(&out).expect("own float output parses");
            assert_eq!(v.to_bits(), f.to_bits(), "{out}");
            let mut again = String::new();
            write_f64(&mut again, v);
            assert_eq!(again, out);
        }
    }
}
