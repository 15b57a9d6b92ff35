//! The report model: one JSON value tree, read and written here.
//!
//! The workspace builds offline with no serde. `BENCH_table1.json` is
//! built as a [`JsonValue`] tree ([`crate::json::Report::to_json`]),
//! written by [`serialize`] and read back by [`parse`], so the writer and
//! the gates of [`crate::gates`] share one schema. The reader accepts
//! standard JSON (objects, arrays, strings, numbers, booleans, null) and
//! rejects anything else with a byte offset.

use std::collections::BTreeMap;

/// A JSON value: the report model, parsed from text or built in code.
#[derive(Clone, PartialEq, Debug)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (reports only use doubles and small integers).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object (key order irrelevant to the tooling).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// An object with the given members.
    pub(crate) fn object<'a>(members: impl IntoIterator<Item = (&'a str, JsonValue)>) -> JsonValue {
        JsonValue::Object(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member access for objects; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn items(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }
}

macro_rules! from_scalar {
    ($($t:ty => |$x:ident| $value:expr,)*) => {$(
        impl From<$t> for JsonValue {
            fn from($x: $t) -> JsonValue {
                $value
            }
        }
    )*};
}

from_scalar! {
    bool => |b| JsonValue::Bool(b),
    i64 => |x| JsonValue::Number(x as f64),
    u64 => |x| JsonValue::Number(x as f64),
    usize => |x| JsonValue::Number(x as f64),
    &str => |s| JsonValue::String(s.to_string()),
    // JSON has no literal for infinities or NaN.
    f64 => |x| if x.is_finite() { JsonValue::Number(x) } else { JsonValue::Null },
}

/// `None` is `null`.
impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(v: Option<T>) -> JsonValue {
        v.map_or(JsonValue::Null, Into::into)
    }
}

impl FromIterator<JsonValue> for JsonValue {
    fn from_iter<I: IntoIterator<Item = JsonValue>>(items: I) -> JsonValue {
        JsonValue::Array(items.into_iter().collect())
    }
}

/// Writes a value as JSON text that [`parse`] reads back to the same
/// value, with a final newline. A non-finite number is written as `null`.
/// A container with an object nested anywhere inside it is laid out one
/// member per line; any other container stays on one line.
pub fn serialize(value: &JsonValue) -> String {
    let mut out = String::new();
    write_value(&mut out, value, 0);
    out.push('\n');
    out
}

fn write_value(out: &mut String, value: &JsonValue, depth: usize) {
    let (brackets, members): (_, Vec<(Option<&str>, &JsonValue)>) = match value {
        JsonValue::Array(items) => ("[]", items.iter().map(|v| (None, v)).collect()),
        JsonValue::Object(map) => ("{}", map.iter().map(|(k, v)| (Some(k.as_str()), v)).collect()),
        JsonValue::String(s) => return write_string(out, s),
        JsonValue::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Number(x) if x.is_finite() => return out.push_str(&x.to_string()),
        JsonValue::Number(_) | JsonValue::Null => return out.push_str("null"),
    };
    let expand = holds_object(value);
    let newline = |out: &mut String, depth| out.push_str(&format!("\n{}", "  ".repeat(depth)));
    out.push_str(&brackets[..1]);
    for (i, (key, member)) in members.into_iter().enumerate() {
        if i > 0 {
            out.push_str(if expand { "," } else { ", " });
        }
        if expand {
            newline(out, depth + 1);
        }
        if let Some(key) = key {
            write_string(out, key);
            out.push_str(": ");
        }
        write_value(out, member, depth + 1);
    }
    if expand {
        newline(out, depth);
    }
    out.push_str(&brackets[1..]);
}

/// Whether an object is nested anywhere inside `value`.
fn holds_object(value: &JsonValue) -> bool {
    let nested = |v: &JsonValue| matches!(v, JsonValue::Object(_)) || holds_object(v);
    match value {
        JsonValue::Array(items) => items.iter().any(nested),
        JsonValue::Object(map) => map.values().any(nested),
        _ => false,
    }
}

/// Writes a JSON string, escaping quotes, backslashes and control chars.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// Error with the byte offset where parsing failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns [`JsonError`] on malformed input or trailing garbage.
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters after the document"));
    }
    Ok(value)
}

fn err(offset: usize, message: &str) -> JsonError {
    JsonError { offset, message: message.to_string() }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, &format!("expected `{}`", ch as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(JsonValue::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(*pos, &format!("expected `{word}`")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii slice");
    text.parse::<f64>().map(JsonValue::Number).map_err(|_| err(start, "malformed number"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
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
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| err(*pos, "non-ascii \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "malformed \\u escape"))?;
                        // Surrogate pairs never occur in our reports;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "unknown escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences pass
                // through unchanged).
                let rest =
                    std::str::from_utf8(&bytes[*pos..]).map_err(|_| err(*pos, "invalid UTF-8"))?;
                let ch = rest.chars().next().expect("non-empty");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(err(*pos, "expected `,` or `]`")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(map));
            }
            _ => return Err(err(*pos, "expected `,` or `}`")),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" -12.5e1 ").unwrap(), JsonValue::Number(-125.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), JsonValue::String("a\nb".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, 2, {"b": "x"}], "c": null}"#).unwrap();
        assert_eq!(v.get("c"), Some(&JsonValue::Null));
        let items = v.get("a").unwrap().items().unwrap();
        assert_eq!(items[0].as_f64(), Some(1.0));
        assert_eq!(items[2].get("b").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn roundtrips_own_reports() {
        let v = JsonValue::object([
            ("k", "a\"b\\c\nd\u{1}".into()),
            ("n", JsonValue::Number(-0.125)),
            (
                "deep",
                JsonValue::object([("xs", vec![1u64, 2].into_iter().map(Into::into).collect())]),
            ),
        ]);
        let text = serialize(&v);
        assert!(text.contains(r#""k": "a\"b\\c\nd\u0001""#), "{text}");
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        for x in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(JsonValue::from(x), JsonValue::Null);
            assert_eq!(serialize(&JsonValue::Array(vec![JsonValue::Number(x)])), "[null]\n");
        }
    }

    #[test]
    fn containers_expand_only_around_objects() {
        let v = JsonValue::object([
            (
                "row",
                JsonValue::object([
                    ("a", 1u64.into()),
                    ("b", vec![1u64.into()].into_iter().collect()),
                ]),
            ),
            ("empty", JsonValue::Array(Vec::new())),
        ]);
        assert_eq!(serialize(&v), "{\n  \"empty\": [],\n  \"row\": {\"a\": 1, \"b\": [1]}\n}\n");
    }

    /// The committed report and the snapshots `bench_compare` gates it
    /// against, by path from the repository root.
    pub(crate) const COMMITTED: [&str; 4] = [
        "BENCH_table1.json",
        "benches/snapshots/BENCH_table1_pr7.json",
        "benches/snapshots/BENCH_table1_pr8.json",
        "benches/snapshots/BENCH_table1_pr10.json",
    ];

    /// Reads a committed report (a path from the repository root).
    pub(crate) fn committed(path: &str) -> JsonValue {
        let full = format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"));
        parse(&std::fs::read_to_string(&full).expect("committed report")).expect("valid JSON")
    }

    /// The committed report and its baselines survive a write/read cycle
    /// unchanged.
    #[test]
    fn serialize_round_trips_committed_reports() {
        for path in COMMITTED {
            let v = committed(path);
            assert_eq!(parse(&serialize(&v)).unwrap(), v, "{path}");
        }
    }

    #[test]
    fn parses_a_real_rendered_report() {
        use crate::json::Report;
        let report = Report { budget_ms: 100, seeds: 1, ..Report::default() };
        let v = parse(&serialize(&report.to_json())).unwrap();
        assert_eq!(v.get("budget_ms").and_then(JsonValue::as_f64), Some(100.0));
        assert_eq!(v.get("portfolio"), Some(&JsonValue::Null));
        assert_eq!(v, report.to_json());
    }
}
