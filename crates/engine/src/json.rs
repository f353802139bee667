//! Flat JSON: the one writer and the one reader the workspace has.
//!
//! Every JSON object the workspace writes is flat: scalar fields and flat
//! lists of scalars, no nesting. Corpus files, the sweep server's wire
//! lines and the CLI's `--json` reports are all built by [`Writer`], in
//! one of its two layouts. Corpus files and wire lines come back through
//! [`parse_flat_object`]. (The Chrome trace export, an array of nested
//! objects, is the one exception: [`crate::trace::chrome_trace_json`].)
//!
//! The reader accepts a subset of what the writer emits: strings without
//! escape sequences, non-negative integers, booleans and `null`. Anything
//! that must come back — a corpus file, a wire line — holds only those,
//! which is why the sweep server replaces the characters the writer would
//! escape before it writes free text.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Builds one flat object, field by field, in one of two layouts. Each
/// method appends one field of one value kind.
///
/// ```
/// use oasis_engine::json::Writer;
///
/// let line = Writer::line().u64("k", 1).str("s", "a\"b").finish();
/// assert_eq!(line, r#"{"k": 1, "s": "a\"b"}"#);
/// let pretty = Writer::pretty().hex("d", 255).finish();
/// assert_eq!(pretty, "{\n  \"d\": \"0x00000000000000ff\"\n}");
/// ```
#[derive(Debug)]
pub struct Writer {
    out: String,
    pretty: bool,
}

// Writing to a `String` cannot fail, so the `fmt::Result`s in this file
// are dropped.
impl Writer {
    /// `{"k": v, "k2": v2}` on one line.
    pub fn line() -> Self {
        Writer::new(false)
    }

    /// `{`, one field per line indented by two spaces, and `}` on a line
    /// of its own.
    pub fn pretty() -> Self {
        Writer::new(true)
    }

    fn new(pretty: bool) -> Self {
        let mut out = String::with_capacity(256);
        out.push('{');
        Writer { out, pretty }
    }

    /// Writes the separator the layout puts before a field, and the
    /// field's key; returns the buffer for the value.
    fn key(&mut self, key: &str) -> &mut String {
        let first = self.out.len() == 1;
        if !first {
            self.out.push(',');
        }
        if self.pretty {
            self.out.push_str("\n  ");
        } else if !first {
            self.out.push(' ');
        }
        write_str(&mut self.out, key);
        self.out.push_str(": ");
        &mut self.out
    }

    /// A string: `"` and `\` are backslash-escaped and control characters
    /// written as `\u00XX`; everything else is written as is.
    pub fn str(mut self, key: &str, s: &str) -> Self {
        write_str(self.key(key), s);
        self
    }

    /// A non-negative integer.
    pub fn u64(mut self, key: &str, n: u64) -> Self {
        let _ = write!(self.key(key), "{n}");
        self
    }

    /// An integer, or `null` for `None`.
    pub fn opt_u64(mut self, key: &str, n: Option<u64>) -> Self {
        match n {
            Some(n) => self.u64(key, n),
            None => {
                self.key(key).push_str("null");
                self
            }
        }
    }

    /// `true` or `false`.
    pub fn bool(mut self, key: &str, b: bool) -> Self {
        let _ = write!(self.key(key), "{b}");
        self
    }

    /// A float with three decimals (`{:.3}`).
    pub fn fixed3(mut self, key: &str, x: f64) -> Self {
        let _ = write!(self.key(key), "{x:.3}");
        self
    }

    /// A 64-bit word as the string `"0x%016x"`. Digests exceed 2^53, so a
    /// string keeps them exact in every JSON consumer.
    pub fn hex(mut self, key: &str, n: u64) -> Self {
        write_hex(self.key(key), n);
        self
    }

    /// A list of integers.
    pub fn u64s(mut self, key: &str, items: impl IntoIterator<Item = u64>) -> Self {
        write_list(self.key(key), items, |out, n| {
            let _ = write!(out, "{n}");
        });
        self
    }

    /// A list of [`Writer::hex`] words.
    pub fn hexes(mut self, key: &str, items: impl IntoIterator<Item = u64>) -> Self {
        write_list(self.key(key), items, write_hex);
        self
    }

    /// The object, without a trailing newline.
    pub fn finish(mut self) -> String {
        if self.pretty {
            self.out.push('\n');
        }
        self.out.push('}');
        self.out
    }
}

fn write_hex(out: &mut String, n: u64) {
    let _ = write!(out, "\"{n:#018x}\"");
}

fn write_list(
    out: &mut String,
    items: impl IntoIterator<Item = u64>,
    item: impl Fn(&mut String, u64),
) {
    out.push('[');
    for (i, n) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        item(out, n);
    }
    out.push(']');
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The scalar values the reader accepts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonValue {
    /// A double-quoted string (no escape sequences).
    Str(String),
    /// A non-negative integer.
    Num(u64),
    /// `true` or `false`.
    Bool(bool),
    /// The `null` literal.
    Null,
}

/// Parses one flat JSON object of scalar fields. Not a general JSON
/// parser: nesting, arrays and escape sequences are rejected, which
/// doubles as validation of corpus files and wire lines.
///
/// # Errors
///
/// Returns a message naming the first malformed construct.
pub fn parse_flat_object(text: &str) -> Result<BTreeMap<String, JsonValue>, String> {
    let mut chars = text.chars().peekable();
    skip_ws(&mut chars);
    if chars.next() != Some('{') {
        return Err("expected '{' at start of JSON object".to_string());
    }
    let mut fields = BTreeMap::new();
    loop {
        skip_ws(&mut chars);
        match chars.peek() {
            Some('}') => {
                chars.next();
                break;
            }
            Some('"') => {}
            other => return Err(format!("expected field name or '}}', got {other:?}")),
        }
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(format!("expected ':' after field '{key}'"));
        }
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some('"') => JsonValue::Str(parse_string(&mut chars)?),
            Some(c) if c.is_ascii_digit() => {
                let mut digits = String::new();
                while chars.peek().is_some_and(char::is_ascii_digit) {
                    digits.push(chars.next().expect("peeked"));
                }
                JsonValue::Num(
                    digits
                        .parse()
                        .map_err(|_| format!("bad number '{digits}' in field '{key}'"))?,
                )
            }
            Some('t' | 'f' | 'n') => {
                let mut word = String::new();
                while chars.peek().is_some_and(|c| c.is_ascii_alphabetic()) {
                    word.push(chars.next().expect("peeked"));
                }
                match word.as_str() {
                    "true" => JsonValue::Bool(true),
                    "false" => JsonValue::Bool(false),
                    "null" => JsonValue::Null,
                    w => return Err(format!("bad literal '{w}' in field '{key}'")),
                }
            }
            other => return Err(format!("unsupported value {other:?} in field '{key}'")),
        };
        if fields.insert(key.clone(), value).is_some() {
            return Err(format!("duplicate field '{key}'"));
        }
        skip_ws(&mut chars);
        match chars.peek() {
            Some(',') => {
                chars.next();
            }
            Some('}') => {}
            other => return Err(format!("expected ',' or '}}' after field, got {other:?}")),
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing content after JSON object".to_string());
    }
    Ok(fields)
}

fn field<'a>(fields: &'a BTreeMap<String, JsonValue>, key: &str) -> Result<&'a JsonValue, String> {
    fields
        .get(key)
        .ok_or_else(|| format!("missing field '{key}'"))
}

/// The string field `key` of a [`parse_flat_object`] result.
///
/// # Errors
///
/// "missing field 'key'" if it is absent, "field 'key' should be a
/// string" if it holds another type.
pub fn str_field(fields: &BTreeMap<String, JsonValue>, key: &str) -> Result<String, String> {
    match field(fields, key)? {
        JsonValue::Str(s) => Ok(s.clone()),
        v => Err(format!("field '{key}' should be a string, got {v:?}")),
    }
}

/// The integer field `key` of a [`parse_flat_object`] result.
///
/// # Errors
///
/// As [`str_field`], for a number.
pub fn u64_field(fields: &BTreeMap<String, JsonValue>, key: &str) -> Result<u64, String> {
    match field(fields, key)? {
        JsonValue::Num(n) => Ok(*n),
        v => Err(format!("field '{key}' should be a number, got {v:?}")),
    }
}

/// The integer-or-null field `key` of a [`parse_flat_object`] result:
/// `None` for `null`.
///
/// # Errors
///
/// As [`str_field`], for a number or null.
pub fn opt_u64_field(
    fields: &BTreeMap<String, JsonValue>,
    key: &str,
) -> Result<Option<u64>, String> {
    match field(fields, key)? {
        JsonValue::Null => Ok(None),
        JsonValue::Num(n) => Ok(Some(*n)),
        v => Err(format!(
            "field '{key}' should be a number or null, got {v:?}"
        )),
    }
}

/// The boolean field `key` of a [`parse_flat_object`] result.
///
/// # Errors
///
/// As [`str_field`], for a boolean.
pub fn bool_field(fields: &BTreeMap<String, JsonValue>, key: &str) -> Result<bool, String> {
    match field(fields, key)? {
        JsonValue::Bool(b) => Ok(*b),
        v => Err(format!("field '{key}' should be a boolean, got {v:?}")),
    }
}

/// The [`Writer::hex`] field `key` of a [`parse_flat_object`] result.
///
/// # Errors
///
/// As [`str_field`], or naming the string if it is not `0x` and hex
/// digits.
pub fn hex_field(fields: &BTreeMap<String, JsonValue>, key: &str) -> Result<u64, String> {
    let s = str_field(fields, key)?;
    let hex = s
        .strip_prefix("0x")
        .ok_or_else(|| format!("{key} '{s}' lacks its 0x prefix"))?;
    u64::from_str_radix(hex, 16).map_err(|e| format!("{key} '{s}': {e}"))
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.peek().is_some_and(|c| c.is_ascii_whitespace()) {
        chars.next();
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected '\"'".to_string());
    }
    let mut out = String::new();
    for c in chars.by_ref() {
        match c {
            '"' => return Ok(out),
            // Rejected rather than guessed: nothing that must come back
            // through this reader is written with escapes.
            '\\' => return Err("escape sequences are not supported".to_string()),
            c => out.push(c),
        }
    }
    Err("unterminated string".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let line = |s: &str| Writer::line().str("k", s).finish();
        assert_eq!(line("plain"), r#"{"k": "plain"}"#);
        assert_eq!(line("a\"b"), r#"{"k": "a\"b"}"#);
        assert_eq!(line("a\\b"), r#"{"k": "a\\b"}"#);
        assert_eq!(line("a\nb"), r#"{"k": "a\u000ab"}"#);
        assert_eq!(line("a—b"), r#"{"k": "a—b"}"#);
    }

    #[test]
    fn both_layouts_write_every_value_kind() {
        let fill = |w: Writer| {
            w.str("s", "x")
                .u64("n", 7)
                .bool("b", false)
                .opt_u64("none", None)
                .opt_u64("some", Some(3))
                .fixed3("f", 2.0 / 3.0)
                .hex("h", 0xab)
                .u64s("ns", [1, 2])
                .hexes("hs", [1])
                .u64s("empty", [])
                .finish()
        };
        assert_eq!(
            fill(Writer::line()),
            concat!(
                r#"{"s": "x", "n": 7, "b": false, "none": null, "some": 3, "f": 0.667, "#,
                r#""h": "0x00000000000000ab", "ns": [1, 2], "hs": ["0x0000000000000001"], "#,
                r#""empty": []}"#
            )
        );
        assert_eq!(
            fill(Writer::pretty()),
            r#"{
  "s": "x",
  "n": 7,
  "b": false,
  "none": null,
  "some": 3,
  "f": 0.667,
  "h": "0x00000000000000ab",
  "ns": [1, 2],
  "hs": ["0x0000000000000001"],
  "empty": []
}"#
        );
        assert_eq!(Writer::line().finish(), "{}");
    }

    #[test]
    fn what_the_writer_emits_in_the_readers_subset_reads_back() {
        let line = Writer::line()
            .str("s", "a b")
            .u64("n", u64::MAX)
            .bool("t", true)
            .opt_u64("z", None)
            .hex("h", 0xdead_beef)
            .finish();
        let fields = parse_flat_object(&line).expect("parses");
        assert_eq!(str_field(&fields, "s").unwrap(), "a b");
        assert_eq!(u64_field(&fields, "n").unwrap(), u64::MAX);
        assert!(bool_field(&fields, "t").unwrap());
        assert_eq!(opt_u64_field(&fields, "z").unwrap(), None);
        assert_eq!(opt_u64_field(&fields, "n").unwrap(), Some(u64::MAX));
        assert_eq!(hex_field(&fields, "h").unwrap(), 0xdead_beef);
        assert!(str_field(&fields, "missing")
            .unwrap_err()
            .contains("missing field"));
        assert!(u64_field(&fields, "s")
            .unwrap_err()
            .contains("should be a number"));
        assert!(hex_field(&fields, "s")
            .unwrap_err()
            .contains("lacks its 0x prefix"));
    }

    #[test]
    fn malformed_objects_are_rejected_naming_the_object() {
        for (bad, why) in [
            ("", "empty"),
            ("{", "unterminated"),
            ("[]", "not an object"),
            ("{\"a\": 1, \"a\": 2}", "duplicate key"),
            ("{\"a\": {\"nested\": 1}}", "nesting"),
            ("{\"a\": [1]}", "list"),
            ("{\"a\": -1}", "negative number"),
            ("{\"a\": 1.5}", "float"),
            ("{\"a\": \"x\\\"y\"}", "escape"),
            ("{\"a\": nope}", "bad literal"),
            ("{\"a\": 1} x", "trailing content"),
        ] {
            assert!(parse_flat_object(bad).is_err(), "accepted {why}: {bad}");
        }
        assert_eq!(
            parse_flat_object("[]").unwrap_err(),
            "expected '{' at start of JSON object"
        );
        assert_eq!(
            parse_flat_object("{} {}").unwrap_err(),
            "trailing content after JSON object"
        );
    }
}
