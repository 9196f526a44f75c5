//! A minimal JSON value type with a writer and a parser.
//!
//! The build environment vendors no external crates, so the
//! machine-readable exports (run manifests, metric snapshots) are
//! built on this module instead of serde. It covers exactly what the
//! simulator needs:
//!
//! * [`Json`] — an owned JSON document (objects preserve insertion
//!   order, so exports are byte-stable),
//! * [`Json::to_string_pretty`] / `Display` — deterministic rendering,
//! * [`Json::parse`] — a strict recursive-descent parser, used by the
//!   round-trip tests and by CI to validate emitted manifests.
//!
//! # Examples
//!
//! ```
//! use dgl_stats::Json;
//!
//! let doc = Json::object()
//!     .field("schema", Json::str("demo"))
//!     .field("cycles", Json::uint(1234));
//! let text = doc.to_string();
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(doc, back);
//! assert_eq!(back.get("cycles").and_then(Json::as_u64), Some(1234));
//! ```

use std::fmt;

/// An owned JSON value.
///
/// Unsigned integers get their own variant so `u64` counters survive a
/// round trip exactly (no `f64` mantissa clipping below 2^53 — and an
/// explicit variant keeps the intent visible).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (simulator counters).
    UInt(u64),
    /// A finite float. Non-finite values render as `null` (JSON has no
    /// NaN/Inf), so never feed unguarded divisions in here.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (rendering is byte-stable).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object (builder entry point).
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// An empty array.
    pub fn array() -> Json {
        Json::Arr(Vec::new())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An unsigned integer value.
    pub fn uint(v: u64) -> Json {
        Json::UInt(v)
    }

    /// A float value.
    pub fn num(v: f64) -> Json {
        Json::Num(v)
    }

    /// Appends a field to an object (builder style).
    ///
    /// # Panics
    ///
    /// Panics when `self` is not an object.
    pub fn field(mut self, key: &str, value: Json) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_owned(), value)),
            _ => panic!("Json::field on a non-object"),
        }
        self
    }

    /// Appends an element to an array (builder style).
    ///
    /// # Panics
    ///
    /// Panics when `self` is not an array.
    pub fn push(mut self, value: Json) -> Json {
        match &mut self {
            Json::Arr(items) => items.push(value),
            _ => panic!("Json::push on a non-array"),
        }
        self
    }

    /// Looks up a field of an object (`None` for other variants or a
    /// missing key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64` (also accepts an integral [`Json::Num`]).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's fields in insertion order.
    pub fn entries(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Renders with two-space indentation and a trailing newline —
    /// the format the run manifests are written in.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        use fmt::Write as _;
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => {
                if v.is_finite() {
                    // `{:?}` prints the shortest representation that
                    // parses back to the same f64 and always includes a
                    // decimal point or exponent, keeping the float/int
                    // distinction through a round trip.
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent.map(|d| d + 1));
                    item.write(out, indent.map(|d| d + 1));
                }
                newline_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent.map(|d| d + 1));
                    write_escaped(out, k);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, indent.map(|d| d + 1));
                }
                newline_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (strict: one value, nothing but
    /// whitespace after it).
    ///
    /// # Errors
    ///
    /// A human-readable description with a byte offset. Arrays and
    /// objects nested more than [`MAX_DEPTH`] deep are an error, so
    /// hostile input cannot exhaust the stack.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    use fmt::Write as _;
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

/// Deepest nesting of arrays and objects [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// Parses one value inside `depth` enclosing arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes (UTF-8 passes through).
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_owned())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogates are not produced by our writer;
                            // map them to the replacement character.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                None => return Err("unterminated string".to_owned()),
                _ => unreachable!(),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                // Duplicate keys are legal JSON but always a bug in the
                // deterministic exports this parser consumes: the
                // writer emits each field once, and silently keeping
                // either copy would make `compare` lie about one of
                // them.
                return Err(format!("duplicate key `{key}` at byte {key_at}"));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_renders_compact() {
        let doc = Json::object()
            .field("a", Json::uint(1))
            .field("b", Json::array().push(Json::num(0.5)).push(Json::Null));
        assert_eq!(doc.to_string(), r#"{"a":1,"b":[0.5,null]}"#);
    }

    #[test]
    fn pretty_rendering_is_indented_and_stable() {
        let doc = Json::object().field("x", Json::object().field("y", Json::Bool(true)));
        let text = doc.to_string_pretty();
        assert_eq!(text, "{\n  \"x\": {\n    \"y\": true\n  }\n}\n");
    }

    #[test]
    fn round_trips_every_variant() {
        let doc = Json::object()
            .field("null", Json::Null)
            .field("bool", Json::Bool(false))
            .field("uint", Json::uint(u64::MAX))
            .field("float", Json::num(2.5e-3))
            .field("neg", Json::num(-7.0))
            .field("str", Json::str("a \"quote\" and a \\ and\nnewline"))
            .field("arr", Json::array().push(Json::uint(1)).push(Json::uint(2)))
            .field("empty_arr", Json::array())
            .field("empty_obj", Json::object());
        for text in [doc.to_string(), doc.to_string_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), doc, "input: {text}");
        }
    }

    #[test]
    fn u64_counters_survive_exactly() {
        let v = Json::parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        // A float stays a float even when integral.
        let v = Json::parse("1.0").unwrap();
        assert_eq!(v, Json::Num(1.0));
        assert_eq!(v.as_u64(), Some(1));
    }

    #[test]
    fn nonfinite_floats_render_as_null() {
        assert_eq!(Json::num(f64::NAN).to_string(), "null");
        assert_eq!(Json::num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"k\":".repeat(n) + "0" + &"}".repeat(n);
        assert!(Json::parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&objects(MAX_DEPTH)).is_ok());
        for deep in [arrays(MAX_DEPTH + 1), objects(MAX_DEPTH + 1)] {
            let err = Json::parse(&deep).unwrap_err();
            assert!(err.contains("nesting deeper than 128"), "{err}");
        }
        // Far past the cap the parser stops at the cap, not the stack.
        let err = Json::parse(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.ends_with(&format!("at byte {MAX_DEPTH}")), "{err}");
    }

    #[test]
    fn getters_navigate() {
        let doc = Json::parse(r#"{"a": {"b": [1, "x"]}}"#).unwrap();
        let arr = doc.get("a").and_then(|a| a.get("b")).unwrap();
        assert_eq!(arr.as_array().unwrap()[1].as_str(), Some("x"));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(doc.entries().unwrap().len(), 1);
    }

    #[test]
    fn escaped_unicode_parses() {
        let v = Json::parse(r#""é\t""#).unwrap();
        assert_eq!(v.as_str(), Some("é\t"));
    }
}
