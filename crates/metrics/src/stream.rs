//! Streamed JSON: the pretty-printing rules every rendered document
//! follows, applied as the document is produced.
//!
//! A producer written against [`JsonSink`] describes its document once,
//! item by item. [`JsonWriter`] renders it as text while it is produced,
//! so a digest or a file never needs the whole document in memory;
//! [`JsonBuilder`] collects the same items into a [`Json`] tree for
//! callers that inspect it. [`Json::render`] is [`JsonWriter`] applied
//! to a tree, so both forms render to the same bytes.
//!
//! The rules: two-space indent; an object puts each key on its own line;
//! an array of scalars stays on one line (`[1, 2]`), any other array puts
//! each item on its own line; empty containers render as `[]` and `{}`.
//! A streamed array takes its layout from its first item. Integral
//! numbers below 2^53 print without a decimal point, other finite numbers
//! through Rust's shortest-roundtrip formatter and non-finite ones as
//! `null`. Strings escape `"`, `\`, `\n`, `\r`, `\t` and every other
//! control character (`\u00XX`).

use crate::json::Json;
use std::fmt::{self, Write};

/// Where a streamed JSON document goes: rendered text ([`JsonWriter`])
/// or a built tree ([`JsonBuilder`]).
///
/// Every value goes either at the top level (exactly one), into the
/// innermost open array, or into the innermost open object right after
/// its [`JsonSink::key`].
pub trait JsonSink {
    /// Opens an object; close it with [`JsonSink::end`].
    fn begin_object(&mut self);

    /// Opens an array; close it with [`JsonSink::end`].
    fn begin_array(&mut self);

    /// Closes the innermost open object or array.
    fn end(&mut self);

    /// Names the next value of the innermost open object.
    fn key(&mut self, key: &str);

    /// Writes a scalar, or embeds a whole tree: a text sink renders it and
    /// drops it, a tree sink keeps it.
    fn value(&mut self, value: Json);

    /// Writes a string value formatted from `args` (for example a
    /// `Debug` rendering); a text sink escapes it as it is formatted,
    /// without building the string.
    fn str_fmt(&mut self, args: fmt::Arguments<'_>);

    /// [`JsonSink::key`] followed by [`JsonSink::value`].
    fn field(&mut self, key: &str, value: Json) {
        self.key(key);
        self.value(value);
    }
}

/// One open container of a [`JsonWriter`].
struct Open {
    /// `}` or `]`.
    close: char,
    /// One item per line; objects always, arrays unless their items are
    /// scalars.
    nested: bool,
    /// No item written yet.
    empty: bool,
}

/// The text sink: renders a streamed document into any [`fmt::Write`]
/// as it is produced, holding only the stack of open containers.
///
/// Write errors are latched: after the first one nothing more is
/// written, and [`JsonWriter::finish`] reports it.
pub struct JsonWriter<W> {
    out: W,
    open: Vec<Open>,
    status: fmt::Result,
}

impl<W: Write> JsonWriter<W> {
    /// A writer rendering into `out`.
    pub fn new(out: W) -> Self {
        JsonWriter {
            out,
            open: Vec::new(),
            status: Ok(()),
        }
    }

    /// Returns the output, or the first write error.
    ///
    /// # Panics
    ///
    /// Panics if a container is still open.
    pub fn finish(self) -> Result<W, fmt::Error> {
        assert!(self.open.is_empty(), "unclosed JSON container");
        self.status.map(|()| self.out)
    }

    /// Renders `value`, a scalar or a whole tree.
    pub fn write(&mut self, value: &Json) {
        match value {
            Json::Arr(items) => {
                self.begin_array();
                // A mixed array lays out one item per line, as if its
                // first item were a container.
                if items.iter().any(is_container) {
                    self.open.last_mut().expect("just opened").nested = true;
                }
                for item in items {
                    self.write(item);
                }
                self.end();
            }
            Json::Obj(pairs) => {
                self.begin_object();
                for (key, value) in pairs {
                    self.key(key);
                    self.write(value);
                }
                self.end();
            }
            Json::Null => self.scalar(|out| out.write_str("null")),
            Json::Bool(b) => self.scalar(|out| out.write_str(if *b { "true" } else { "false" })),
            Json::Num(v) => self.scalar(|out| render_number(out, *v)),
            Json::Str(s) => self.scalar(|out| render_string(out, s)),
        }
    }

    fn emit(&mut self, f: impl FnOnce(&mut W) -> fmt::Result) {
        if self.status.is_ok() {
            self.status = f(&mut self.out);
        }
    }

    /// A line break indented to `depth` levels.
    fn newline(&mut self, depth: usize) {
        self.emit(|out| {
            out.write_char('\n')?;
            (0..depth).try_for_each(|_| out.write_str("  "))
        });
    }

    /// Places the next value: after its key in an object, else after the
    /// separator of the innermost array. An array's first item decides
    /// its layout.
    fn item(&mut self, container: bool) {
        let depth = self.open.len();
        let Some(top) = self.open.last_mut() else {
            return;
        };
        if top.close == '}' {
            return;
        }
        let first = std::mem::replace(&mut top.empty, false);
        top.nested |= first && container;
        debug_assert!(top.nested || !container, "container in a one-line array");
        let nested = top.nested;
        if !first {
            self.emit(|out| out.write_str(if nested { "," } else { ", " }));
        }
        if nested {
            self.newline(depth);
        }
    }

    fn scalar(&mut self, render: impl FnOnce(&mut W) -> fmt::Result) {
        self.item(false);
        self.emit(render);
    }

    fn begin(&mut self, open: char, close: char) {
        self.item(true);
        self.emit(|out| out.write_char(open));
        self.open.push(Open {
            close,
            nested: close == '}',
            empty: true,
        });
    }
}

impl<W: Write> JsonSink for JsonWriter<W> {
    fn begin_object(&mut self) {
        self.begin('{', '}');
    }

    fn begin_array(&mut self) {
        self.begin('[', ']');
    }

    fn end(&mut self) {
        let top = self.open.pop().expect("end() without an open container");
        if top.nested && !top.empty {
            self.newline(self.open.len());
        }
        self.emit(|out| out.write_char(top.close));
    }

    fn key(&mut self, key: &str) {
        let depth = self.open.len();
        let top = self.open.last_mut().expect("key() outside an object");
        debug_assert_eq!(top.close, '}', "key() inside an array");
        if !std::mem::replace(&mut top.empty, false) {
            self.emit(|out| out.write_char(','));
        }
        self.newline(depth);
        self.emit(|out| {
            render_string(out, key)?;
            out.write_str(": ")
        });
    }

    fn value(&mut self, value: Json) {
        self.write(&value);
    }

    fn str_fmt(&mut self, args: fmt::Arguments<'_>) {
        self.scalar(|out| {
            out.write_char('"')?;
            Escaped(&mut *out).write_fmt(args)?;
            out.write_char('"')
        });
    }
}

/// The tree sink: collects a streamed document into a [`Json`] value.
#[derive(Default)]
pub struct JsonBuilder {
    /// Open containers, innermost last.
    open: Vec<Json>,
    /// Keys of the object values not yet placed, innermost last.
    keys: Vec<String>,
    done: Option<Json>,
}

impl JsonBuilder {
    /// The finished document.
    ///
    /// # Panics
    ///
    /// Panics if a container is still open or nothing was written.
    pub fn finish(self) -> Json {
        assert!(self.open.is_empty(), "unclosed JSON container");
        self.done.expect("no JSON value was written")
    }

    fn place(&mut self, value: Json) {
        match self.open.last_mut() {
            None => self.done = Some(value),
            Some(Json::Arr(items)) => items.push(value),
            Some(Json::Obj(pairs)) => {
                let key = self.keys.pop().expect("object value without a key");
                pairs.push((key, value));
            }
            Some(_) => unreachable!("only containers are opened"),
        }
    }
}

impl JsonSink for JsonBuilder {
    fn begin_object(&mut self) {
        self.open.push(Json::Obj(Vec::new()));
    }

    fn begin_array(&mut self) {
        self.open.push(Json::Arr(Vec::new()));
    }

    fn end(&mut self) {
        let mut value = self.open.pop().expect("end() without an open container");
        // Push growth leaves up to half of each vector spare; trimming it
        // keeps the tree no larger than one built with exact sizes.
        match &mut value {
            Json::Arr(items) => items.shrink_to_fit(),
            Json::Obj(pairs) => pairs.shrink_to_fit(),
            _ => {}
        }
        self.place(value);
    }

    fn key(&mut self, key: &str) {
        self.keys.push(key.to_string());
    }

    fn value(&mut self, value: Json) {
        self.place(value);
    }

    fn str_fmt(&mut self, args: fmt::Arguments<'_>) {
        self.place(Json::Str(args.to_string()));
    }
}

fn is_container(value: &Json) -> bool {
    matches!(value, Json::Arr(_) | Json::Obj(_))
}

fn render_number(out: &mut impl Write, v: f64) -> fmt::Result {
    if !v.is_finite() {
        out.write_str("null")
    } else if v.fract() == 0.0 && v.abs() < 9.007_199_254_740_992e15 {
        write!(out, "{}", v as i64)
    } else {
        write!(out, "{v}")
    }
}

fn render_string(out: &mut impl Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    Escaped(out).write_str(s)?;
    out.write_char('"')
}

/// A [`fmt::Write`] adapter that JSON-escapes everything written through
/// it, passing unescaped runs on whole.
struct Escaped<'a, W>(&'a mut W);

impl<W: Write> Write for Escaped<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let mut run = 0;
        // Every byte that needs escaping is ASCII, so each cut falls on
        // a char boundary.
        for (i, &b) in s.as_bytes().iter().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            self.0.write_str(&s[run..i])?;
            if escape.is_empty() {
                write!(self.0, "\\u{b:04x}")?;
            } else {
                self.0.write_str(escape)?;
            }
            run = i + 1;
        }
        self.0.write_str(&s[run..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_engine::propcheck::{check, Strategy};
    use noc_engine::Rng;

    /// The tree renderer as it stood before the streaming writer, kept
    /// as the byte-for-byte reference.
    fn reference(value: &Json, out: &mut String, indent: usize) {
        match value {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if !v.is_finite() {
                    out.push_str("null");
                } else if v.fract() == 0.0 && v.abs() < 9.007_199_254_740_992e15 {
                    out.push_str(&format!("{}", *v as i64));
                } else {
                    out.push_str(&format!("{v}"));
                }
            }
            Json::Str(s) => reference_string(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    return out.push_str("[]");
                }
                if items.iter().all(|v| !is_container(v)) {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        reference(item, out, indent);
                    }
                    return out.push(']');
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    reference(item, out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    return out.push_str("{}");
                }
                out.push_str("{\n");
                for (i, (key, value)) in pairs.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    reference_string(key, out);
                    out.push_str(": ");
                    reference(value, out, indent + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }

    fn reference_string(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Drives `sink` with `value` item by item, as a producer would.
    fn stream(value: &Json, sink: &mut impl JsonSink) {
        match value {
            Json::Arr(items) => {
                sink.begin_array();
                items.iter().for_each(|item| stream(item, sink));
                sink.end();
            }
            Json::Obj(pairs) => {
                sink.begin_object();
                for (key, value) in pairs {
                    sink.key(key);
                    stream(value, sink);
                }
                sink.end();
            }
            Json::Str(s) => sink.str_fmt(format_args!("{s}")),
            scalar => sink.value(scalar.clone()),
        }
    }

    fn text(rng: &mut Rng) -> String {
        const CHARS: [char; 17] = [
            'a', 'Z', '7', ' ', '/', '"', '\\', '\n', '\r', '\t', '\0', '\u{1}', '\u{1f}',
            '\u{7f}', 'é', '日', '🚀',
        ];
        (0..rng.below(8)).map(|_| *rng.choose(&CHARS)).collect()
    }

    fn number(rng: &mut Rng) -> f64 {
        const EDGES: [f64; 9] = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            9_007_199_254_740_992.0,
            -9_007_199_254_740_994.0,
            1e300,
            0.1,
        ];
        match rng.below(4) {
            0 => *rng.choose(&EDGES),
            1 => rng.below(2_000_001) as f64 - 1_000_000.0,
            2 => (rng.unit_f64() - 0.5) * 1e4,
            _ => f64::from_bits(rng.next_u64()),
        }
    }

    fn scalar(rng: &mut Rng) -> Json {
        match rng.below(4) {
            0 => Json::Null,
            1 => Json::Bool(rng.chance(0.5)),
            2 => Json::Num(number(rng)),
            _ => Json::Str(text(rng)),
        }
    }

    /// Any value nesting at most `depth` more levels.
    fn value(rng: &mut Rng, depth: u32) -> Json {
        if depth == 0 || rng.chance(0.4) {
            scalar(rng)
        } else {
            container(rng, depth)
        }
    }

    /// An array or object nesting at most `depth >= 1` levels: empty,
    /// flat (scalars only) or nested (led by a container).
    fn container(rng: &mut Rng, depth: u32) -> Json {
        let len = rng.below(5) as usize;
        if rng.chance(0.5) {
            let pairs = (0..len).map(|_| (text(rng), value(rng, depth - 1)));
            return Json::Obj(pairs.collect());
        }
        if len == 0 || depth == 1 || rng.chance(0.5) {
            return Json::Arr((0..len).map(|_| scalar(rng)).collect());
        }
        let mut items = vec![container(rng, depth - 1)];
        items.extend((1..len).map(|_| value(rng, depth - 1)));
        Json::Arr(items)
    }

    /// Random documents nesting up to four levels.
    struct Documents;

    impl Strategy for Documents {
        type Value = Json;

        fn generate(&self, rng: &mut Rng) -> Json {
            container(rng, 4)
        }
    }

    #[test]
    fn streams_and_trees_render_the_reference_bytes() {
        check(2_000, Documents, |doc| {
            let mut want = String::new();
            reference(&doc, &mut want, 0);
            assert_eq!(doc.render(), want, "tree");
            let mut writer = JsonWriter::new(String::new());
            stream(&doc, &mut writer);
            let streamed = writer.finish().expect("writing to a String cannot fail");
            assert_eq!(streamed, want, "stream");
            let mut builder = JsonBuilder::default();
            stream(&doc, &mut builder);
            assert_eq!(builder.finish().render(), want, "built tree");
            let parsed = Json::parse(&want).expect("rendered text parses");
            assert_eq!(parsed.render(), want, "parse round trip");
        });
    }

    #[test]
    fn mixed_arrays_put_each_item_on_its_own_line() {
        let doc = Json::Arr(vec![
            Json::Num(1.0),
            Json::Obj(vec![]),
            Json::Arr(vec![Json::Null]),
        ]);
        assert_eq!(doc.render(), "[\n  1,\n  {},\n  [null]\n]");
    }
}
