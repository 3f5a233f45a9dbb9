//! A minimal, dependency-free JSON value type with a deterministic pretty
//! writer (the rules of [`crate::stream`]) and a recursive-descent parser.
//!
//! The simulator's metrics exports must be bit-reproducible across runs with
//! the same seed, so the writer is deliberately boring: object keys keep the
//! insertion order chosen by the caller (the registry hands them over in
//! sorted `BTreeMap` order), floats render through Rust's shortest-roundtrip
//! formatter, and integral values print without a decimal point. Non-finite
//! numbers (`NaN`, ±∞) render as `null`, matching what strict JSON parsers
//! expect.
//!
//! The parser reads rendered documents back without pulling in `serde`:
//! `frfc-inspect` reads metrics exports and crash sidecars with it (its
//! `show` renders a sidecar's reservation tables), replay reads the
//! captured state and, on a mismatch, the live state it renders, and the
//! export contract in `tests/metrics.rs` reads the exports. Parsing is
//! the one way a tree of the network state document is built; the
//! document itself is only ever streamed.

use crate::stream::JsonWriter;
use std::fmt::{self, Write};

/// A parsed or constructed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`, also produced when writing non-finite numbers.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number; integers are kept exactly up to 2^53.
    Num(f64),
    /// A string value.
    Str(String),
    /// An array of values.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved by the writer.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(String, Json)>) -> Json {
        Json::Obj(pairs)
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up a key in an object; `None` for non-objects/missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is an integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 9.007_199_254_740_992e15 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if the value is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if the value is an object.
    pub fn entries(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Removes `key` from an object, returning the removed value.
    pub fn remove(&mut self, key: &str) -> Option<Json> {
        match self {
            Json::Obj(pairs) => {
                let idx = pairs.iter().position(|(k, _)| k == key)?;
                Some(pairs.remove(idx).1)
            }
            _ => None,
        }
    }

    /// Renders the value as pretty-printed JSON (the rules of
    /// [`crate::stream`]; trailing newline omitted).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// Writes [`Json::render`]'s bytes to `out` as they are produced,
    /// without building the whole document first.
    pub fn write_to(&self, out: &mut impl Write) -> fmt::Result {
        let mut writer = JsonWriter::new(out);
        writer.write(self);
        writer.finish().map(drop)
    }

    /// Parses a JSON document.
    ///
    /// Arrays and objects may nest at most 128 levels deep; a deeper
    /// document is an error, not a stack overflow.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    /// [`Json::render`]'s bytes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

/// A parse failure, with the byte offset where it happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so this bounds its stack use; the metrics
/// exports and crash sidecars the workspace writes nest fewer than ten
/// levels.
const MAX_NESTING: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_NESTING {
                    return Err(self.err(&format!("nesting deeper than {MAX_NESTING} levels")));
                }
                self.depth += 1;
                let nested = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                nested
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs are never emitted by our
                            // writer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. `pos` always sits on a
                    // char boundary, so slicing the source &str is O(1)
                    // (re-validating the tail bytes here would make
                    // parsing quadratic in the document size).
                    let c = self.text[self.pos..].chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a') as u32 + 10,
                Some(c @ b'A'..=b'F') => (c - b'A') as u32 + 10,
                _ => return Err(self.err("invalid \\u escape")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Removes the fields that legitimately differ between two same-seed runs:
/// the wall-clock self-profiler section and the manifest's wall-time fields.
///
/// Two metered runs with identical seeds must produce identical documents
/// after this pass — `tests/metrics.rs` relies on it.
pub fn strip_nondeterministic(doc: &mut Json) {
    doc.remove("profile");
    if let Some(manifest) = doc.get("manifest").cloned() {
        let mut manifest = manifest;
        manifest.remove("wall_ms");
        if let Json::Obj(pairs) = doc {
            for (k, v) in pairs.iter_mut() {
                if k == "manifest" {
                    *v = manifest;
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_structure() {
        let doc = Json::Obj(vec![
            ("a".into(), Json::Num(1.0)),
            ("b".into(), Json::Num(0.25)),
            ("c".into(), Json::Str("x \"quoted\"\n".into())),
            (
                "d".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(-3.0)]),
            ),
            ("e".into(), Json::Obj(vec![])),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).expect("parse");
        assert_eq!(back, doc);
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(Json::Num(42.0).render(), "42");
        assert_eq!(Json::Num(0.5).render(), "0.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn parse_rejects_hostile_nesting() {
        let deep = "[".repeat(100_000);
        let err = Json::parse(&deep).expect_err("too deep");
        assert_eq!(err.offset, MAX_NESTING);
        assert!(err.message.contains("nesting"), "{err}");
        let limit = format!("{}{}", "[".repeat(MAX_NESTING), "]".repeat(MAX_NESTING));
        assert!(Json::parse(&limit).is_ok());
        let over = format!("{{\"a\":{limit}}}");
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn parse_handles_escapes_and_exponents() {
        let doc = Json::parse(r#"{"s": "a\tbA", "n": 1.5e3}"#).expect("parse");
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("a\tbA"));
        assert_eq!(doc.get("n").and_then(Json::as_f64), Some(1500.0));
    }

    #[test]
    fn strip_removes_profile_and_wall_time() {
        let mut doc = Json::Obj(vec![
            (
                "manifest".into(),
                Json::Obj(vec![
                    ("seed".into(), Json::Num(7.0)),
                    ("wall_ms".into(), Json::Num(123.0)),
                ]),
            ),
            ("profile".into(), Json::Obj(vec![])),
            ("counters".into(), Json::Obj(vec![])),
        ]);
        strip_nondeterministic(&mut doc);
        assert!(doc.get("profile").is_none());
        let manifest = doc.get("manifest").unwrap();
        assert!(manifest.get("wall_ms").is_none());
        assert_eq!(manifest.get("seed").and_then(Json::as_u64), Some(7));
    }
}
