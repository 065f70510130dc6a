//! The workspace's one JSON implementation: an escaping writer with an
//! insertion-ordered object/array builder (every document the program
//! emits — reports, daemon replies, trace lines, metrics, bench dumps —
//! is rendered through it, no serializer dependency), the indented form
//! of a compact document, and a small recursive-descent parser used to
//! read requests and *validate* emitted JSONL — by the schema tests and
//! the `metam trace-validate` CLI command.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Append a JSON string literal (quoted, escaped) to `out`.
pub fn write_string(out: &mut String, s: &str) {
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

/// Append a JSON number (finite floats render plainly; NaN/∞ become null).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Start a JSON object. Fields render in the order they are added:
///
/// ```
/// use metam_obs::json;
/// let doc = json::object()
///     .str("verb", "status")
///     .int("active", 2)
///     .opt_int("budget", None)
///     .f64("utility", f64::NAN)
///     .raw("set", &json::array().int(1).int(2).finish())
///     .finish();
/// assert_eq!(doc, r#"{"verb":"status","active":2,"budget":null,"utility":null,"set":[1,2]}"#);
/// ```
pub fn object() -> Object {
    Object {
        buf: String::from("{"),
    }
}

/// Start a JSON array; items render in the order they are added.
pub fn array() -> Array {
    Array {
        buf: String::from("["),
    }
}

/// An insertion-ordered JSON object under construction (see [`object()`]).
#[derive(Debug)]
#[must_use]
pub struct Object {
    buf: String,
}

impl Object {
    fn key(mut self, key: &str) -> Object {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        write_string(&mut self.buf, key);
        self.buf.push(':');
        self
    }

    /// Add a string field.
    pub fn str(self, key: &str, v: &str) -> Object {
        let mut o = self.key(key);
        write_string(&mut o.buf, v);
        o
    }

    /// Add a float field (NaN/∞ become `null`).
    pub fn f64(self, key: &str, v: f64) -> Object {
        let mut o = self.key(key);
        write_f64(&mut o.buf, v);
        o
    }

    /// Add an integer field.
    pub fn int(self, key: &str, v: usize) -> Object {
        let mut o = self.key(key);
        let _ = write!(o.buf, "{v}");
        o
    }

    /// Add an integer field that is `null` when absent.
    pub fn opt_int(self, key: &str, v: Option<usize>) -> Object {
        match v {
            Some(v) => self.int(key, v),
            None => self.raw(key, "null"),
        }
    }

    /// Add a boolean field.
    pub fn bool(self, key: &str, v: bool) -> Object {
        self.raw(key, if v { "true" } else { "false" })
    }

    /// Add a field whose value is already-rendered JSON (a nested object
    /// or array, or a whole document such as a `discover --json` report),
    /// spliced in without re-encoding.
    pub fn raw(self, key: &str, json: &str) -> Object {
        let mut o = self.key(key);
        o.buf.push_str(json);
        o
    }

    /// Close the object and return its compact, single-line text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// A JSON array under construction (see [`array()`]).
#[derive(Debug)]
#[must_use]
pub struct Array {
    buf: String,
}

impl Array {
    fn next(mut self) -> Array {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self
    }

    /// Add a string item.
    pub fn str(self, v: &str) -> Array {
        let mut a = self.next();
        write_string(&mut a.buf, v);
        a
    }

    /// Add a float item (NaN/∞ become `null`).
    pub fn f64(self, v: f64) -> Array {
        let mut a = self.next();
        write_f64(&mut a.buf, v);
        a
    }

    /// Add an integer item.
    pub fn int(self, v: usize) -> Array {
        let mut a = self.next();
        let _ = write!(a.buf, "{v}");
        a
    }

    /// Add an already-rendered JSON item.
    pub fn raw(self, json: &str) -> Array {
        let mut a = self.next();
        a.buf.push_str(json);
        a
    }

    /// Close the array and return its compact text.
    pub fn finish(mut self) -> String {
        self.buf.push(']');
        self.buf
    }
}

/// The indented form (2 spaces per level) of a compact document: a line
/// per field and item, `": "` after keys. Bytes inside strings are copied
/// unchanged; an empty container keeps one blank indented line.
pub fn pretty(compact: &str) -> String {
    let mut out = String::with_capacity(compact.len() * 2);
    let mut indent = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    for c in compact.chars() {
        if in_str {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push(c);
            }
            '{' | '[' => {
                indent += 1;
                out.push(c);
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
            }
            '}' | ']' => {
                indent = indent.saturating_sub(1);
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(c);
            }
            ',' => {
                out.push(c);
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
            }
            ':' => {
                out.push(c);
                out.push(' ');
            }
            c => out.push(c),
        }
    }
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (key order is not preserved).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// The deepest nesting of arrays and objects [`parse`] accepts. Deeper
/// input is an error, not a recursion that overflows the parsing thread's
/// stack (a daemon connection thread has 2 MiB).
pub const MAX_DEPTH: usize = 128;

/// Parse one complete JSON document. Trailing non-whitespace is an error,
/// and so is nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

/// `depth` counts the arrays and objects enclosing this value.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        // Surrogate pairs are not emitted by this crate's
                        // writer; map lone surrogates to the replacement
                        // character rather than failing validation.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash.
                // Both are ASCII, so the run ends on a char boundary of
                // the input text, and each byte is validated once.
                let end = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |n| *pos + n);
                let run = std::str::from_utf8(&bytes[*pos..end]).map_err(|e| e.to_string())?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_and_parser_roundtrips() {
        let mut out = String::new();
        write_string(&mut out, "a \"b\"\n\tc\\");
        let parsed = parse(&out).unwrap();
        assert_eq!(parsed, Value::Str("a \"b\"\n\tc\\".to_string()));
    }

    #[test]
    fn parses_event_shaped_objects() {
        let v = parse(
            r#"{"ts":1.5,"event":"query","name":"sequential","set":[1,2],"ok":true,"x":null}"#,
        )
        .unwrap();
        assert_eq!(v.get("ts").and_then(Value::as_f64), Some(1.5));
        assert_eq!(v.get("event").and_then(Value::as_str), Some("query"));
        assert_eq!(
            v.get("set"),
            Some(&Value::Arr(vec![Value::Num(1.0), Value::Num(2.0)]))
        );
        assert_eq!(v.get("x"), Some(&Value::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("[1,,2]").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn nonfinite_floats_write_null() {
        let mut out = String::new();
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }

    #[test]
    fn builders_render_fields_in_insertion_order() {
        let doc = object()
            .str("s", "a\"b\\\n\u{1}é")
            .f64("x", 0.1 + 0.2)
            .f64("inf", f64::INFINITY)
            .int("n", usize::MAX)
            .opt_int("none", None)
            .opt_int("some", Some(0))
            .bool("t", true)
            .raw("empty", &object().finish())
            .raw(
                "items",
                &array()
                    .str("k")
                    .f64(-0.5)
                    .int(3)
                    .raw(&array().finish())
                    .finish(),
            )
            .finish();
        assert_eq!(
            doc,
            r#"{"s":"a\"b\\\n\u0001é","x":0.30000000000000004,"inf":null,"n":18446744073709551615,"none":null,"some":0,"t":true,"empty":{},"items":["k",-0.5,3,[]]}"#
        );
        assert!(parse(&doc).is_ok());
    }

    #[test]
    fn pretty_indents_outside_strings_only() {
        let compact = r#"{"a{":[1,{"b":"x,y:\"z]"}],"c":[]}"#;
        assert_eq!(
            pretty(compact),
            "{\n  \"a{\": [\n    1,\n    {\n      \"b\": \"x,y:\\\"z]\"\n    }\n  ],\n  \"c\": [\n    \n  ]\n}"
        );
        assert_eq!(parse(&pretty(compact)), parse(compact));
    }

    #[test]
    fn nesting_beyond_max_depth_is_an_error() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        assert!(parse(&format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        ))
        .is_err());
        // A 100,000-deep line is rejected, not a stack overflow.
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
    }

    #[test]
    fn megabyte_string_value_parses_in_linear_time() {
        let body = "ab\\\"é→".repeat((1 << 20) / 8);
        let line = format!("{{\"verb\":\"{body}\"}}");
        assert!(line.len() > 1 << 20);
        let start = std::time::Instant::now();
        let v = parse(&line).expect("valid document");
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(
            v.get("verb").and_then(Value::as_str).map(str::len),
            Some(body.len() - body.matches('\\').count())
        );
        // Re-validating the rest of the line at every character made this
        // quadratic (tens of seconds); a linear scan takes milliseconds.
        assert!(secs < 5.0, "1 MiB string took {secs:.1}s");
    }
}
