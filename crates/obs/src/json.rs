//! Minimal JSON helpers: string escaping and one recursive-descent
//! reader, [`parse`], with [`validate`] as its well-formedness-only face.
//!
//! The workspace carries no serde; exporters hand-roll their JSON and
//! this module keeps that honest. [`validate`] is what the golden-file
//! tests and the sweeps' self-validation steps call; [`parse`] builds an
//! owned [`Value`] tree so [`crate::export::schema`] can check required
//! keys and types, so CI can verify emitted traces offline.

/// Escapes `s` as a JSON string literal, including the surrounding
/// quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Maximum nesting depth [`parse`] (and so [`validate`]) accepts.
const MAX_DEPTH: usize = 64;

/// Checks that `input` is exactly one well-formed JSON value: whatever
/// [`parse`] accepts, with the tree dropped.
///
/// Accepts objects, arrays, strings (with escapes), numbers, `true`,
/// `false`, and `null`. Returns a human-readable error naming the byte
/// offset where parsing failed.
pub fn validate(input: &str) -> Result<(), String> {
    parse(input).map(drop)
}

/// An owned JSON value, produced by [`parse`]. Numbers keep their raw
/// text so integer exactness is never lost to `f64` round-tripping.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its source text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; key order preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The number as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Whether this is an object.
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }
}

/// Serializes a [`Value`] back to compact JSON text. Numbers round-trip
/// byte-exactly (they keep their source text); key and element order are
/// preserved, so `to_text(parse(t))` of compact input returns `t`.
pub fn to_text(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Num(n) => n.clone(),
        Value::Str(s) => escape(s),
        Value::Array(items) => {
            let parts: Vec<String> = items.iter().map(to_text).collect();
            format!("[{}]", parts.join(","))
        }
        Value::Object(fields) => {
            let parts: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{}:{}", escape(k), to_text(v)))
                .collect();
            format!("{{{}}}", parts.join(","))
        }
    }
}

/// Parses exactly one JSON value into an owned [`Value`] tree — the one
/// recursive-descent walker of this module.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    skip_ws(bytes, &mut pos);
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// The shared tail of `{…}` and `[…]`: after the opening bracket, zero or
/// more comma-separated items (each read by `item`) up to `close`.
fn parse_items(
    bytes: &[u8],
    pos: &mut usize,
    close: u8,
    mut item: impl FnMut(&mut usize) -> Result<(), String>,
) -> Result<(), String> {
    *pos += 1;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&close) {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        item(pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(&c) if c == close => {
                *pos += 1;
                return Ok(());
            }
            _ => {
                let close = close as char;
                return Err(format!("expected ',' or '{close}' at byte {pos}"));
            }
        }
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match bytes.get(*pos) {
        None => Err(format!("expected a value at byte {pos}")),
        Some(b'{') => {
            let mut fields = Vec::new();
            parse_items(bytes, pos, b'}', |pos| {
                let key = parse_string(bytes, pos).map_err(|e| format!("object key: {e}"))?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                skip_ws(bytes, pos);
                fields.push((key, parse_value(bytes, pos, depth + 1)?));
                Ok(())
            })?;
            Ok(Value::Object(fields))
        }
        Some(b'[') => {
            let mut items = Vec::new();
            parse_items(bytes, pos, b']', |pos| {
                items.push(parse_value(bytes, pos, depth + 1)?);
                Ok(())
            })?;
            Ok(Value::Array(items))
        }
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b't') => literal(bytes, pos, b"true").map(|()| Value::Bool(true)),
        Some(b'f') => literal(bytes, pos, b"false").map(|()| Value::Bool(false)),
        Some(b'n') => literal(bytes, pos, b"null").map(|()| Value::Null),
        Some(b'-' | b'0'..=b'9') => {
            let start = *pos;
            number(bytes, pos)?;
            Ok(Value::Num(
                std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| "non-utf8 number".to_string())?
                    .to_string(),
            ))
        }
        Some(&c) => Err(format!("unexpected byte {c:#04x} at byte {pos}")),
    }
}

/// Reads one string literal, resolving escapes as it goes.
fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the longest run of plain bytes in one go.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| matches!(b, b'"' | b'\\' | 0x00..=0x1f))
            .ok_or("unterminated string")?;
        out.push_str(
            std::str::from_utf8(&bytes[*pos..*pos + run])
                .map_err(|_| "non-utf8 string".to_string())?,
        );
        *pos += run;
        match bytes[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                out.push(match bytes.get(*pos) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'u') => {
                        let code = bytes
                            .get(*pos + 1..*pos + 5)
                            .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                            .and_then(|hex| std::str::from_utf8(hex).ok())
                            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        *pos += 4;
                        char::from_u32(code).unwrap_or('\u{fffd}')
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                });
                *pos += 1;
            }
            _ => return Err(format!("raw control byte in string at byte {pos}")),
        }
    }
}

/// Skips a run of ASCII digits; returns how many there were.
fn digits(bytes: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    *pos - start
}

fn number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    if digits(bytes, pos) == 0 {
        return Err(format!("expected digits at byte {start}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if digits(bytes, pos) == 0 {
            return Err(format!("expected fraction digits at byte {pos}"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(bytes, pos) == 0 {
            return Err(format!("expected exponent digits at byte {pos}"));
        }
    }
    Ok(())
}

fn literal(bytes: &[u8], pos: &mut usize, word: &[u8]) -> Result<(), String> {
    if bytes.len() >= *pos + word.len() && &bytes[*pos..*pos + word.len()] == word {
        *pos += word.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape("plain"), "\"plain\"");
        assert_eq!(escape("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(escape("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn validate_accepts_well_formed_documents() {
        for doc in [
            "{}",
            "[]",
            "null",
            "true",
            "-12.5e3",
            "\"str\\u00e9\"",
            "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\"}",
            " { \"k\" : [ 1 , 2 ] } ",
        ] {
            validate(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        }
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "{\"a\":1,}",
            "nul",
            "01abc",
            "\"unterminated",
            "{} extra",
            "1.",
            "1e",
        ] {
            assert!(validate(doc).is_err(), "{doc:?} should be rejected");
        }
    }

    #[test]
    fn escaped_output_round_trips_through_validate() {
        validate(&escape("tricky \"quoted\" \\slash\\ \n")).expect("escape produces valid JSON");
    }

    #[test]
    fn parse_builds_the_value_tree() {
        let v = parse("{\"a\":[1,2,{\"b\":null}],\"c\":\"x\\n\",\"d\":true}").unwrap();
        assert!(v.is_object());
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert!(a[2].get("b").unwrap().is_null());
        assert_eq!(v.get("c").unwrap().as_str(), Some("x\n"));
        assert_eq!(v.get("d"), Some(&Value::Bool(true)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_keeps_numbers_exact() {
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        let f = parse("-12.5e3").unwrap();
        assert_eq!(f.as_f64(), Some(-12_500.0));
        assert_eq!(f.as_u64(), None);
    }

    #[test]
    fn parse_unescapes_strings() {
        let v = parse("\"\\u00e9\\t\\\\\"").unwrap();
        assert_eq!(v.as_str(), Some("é\t\\"));
    }

    #[test]
    fn to_text_round_trips_compact_documents() {
        for doc in [
            "{}",
            "[]",
            "null",
            "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\",\"d\":-12.5e3}",
            "18446744073709551615",
        ] {
            assert_eq!(to_text(&parse(doc).unwrap()), doc);
        }
    }

    #[test]
    fn parse_rejects_what_validate_rejects() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "{\"a\":1,}",
            "nul",
            "01abc",
            "\"unterminated",
            "{} extra",
            "1.",
            "1e",
        ] {
            assert!(parse(doc).is_err(), "{doc:?}");
        }
        // Escapes the one-pass string reader must refuse on its own.
        for doc in [
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"\\",
            "\"raw\u{1}\"",
        ] {
            assert!(parse(doc).is_err(), "{doc:?}");
        }
    }
}
