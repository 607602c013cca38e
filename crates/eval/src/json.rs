//! A minimal JSON parser sufficient for the full-instruct output format.
//!
//! The paper's evaluation asks models for
//! `{"ANSWER": "X", "EXPLANATION": "..."}` and parses it; weaker models
//! emit malformed JSON, which is exactly the failure mode the extraction
//! cascade handles. We implement a small recursive-descent parser for
//! objects / strings / numbers / booleans — no external dependency, and
//! the parser itself is part of the reproduced system.

use std::collections::BTreeMap;

/// A typed parse failure: what went wrong and the byte offset where the
/// parser gave up. Replaces the old stringly-typed `Result<_, String>` so
/// the extraction cascade (and tests) can match on structure instead of
/// substrings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub at: usize,
    /// What the parser expected or found, e.g. `expected ':'`.
    pub message: String,
}

impl JsonError {
    fn new(at: usize, message: impl Into<String>) -> JsonError {
        JsonError { at, message: message.into() }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for JsonError {}

/// Deepest nesting of arrays and objects the parser accepts. The parser
/// recurses once per level, so unbounded depth lets a small body (the
/// gateway takes 64 KiB) overflow a handler thread's stack and abort the
/// process. Requests and model answers nest two or three deep.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value (subset: no unicode escapes beyond `\u` passthrough).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// An object with string keys.
    Object(BTreeMap<String, Json>),
    /// An array.
    Array(Vec<Json>),
    /// A string.
    String(String),
    /// A number (stored as f64).
    Number(f64),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

impl Json {
    /// Parse a complete JSON document.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::new(pos, "trailing characters"));
        }
        Ok(v)
    }

    /// Parse the *first* JSON object embedded in arbitrary text (models
    /// often wrap their JSON in prose). Scans for `{` and attempts a parse
    /// at each candidate.
    pub fn parse_embedded(input: &str) -> Option<Json> {
        let bytes = input.as_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'{' {
                let mut pos = i;
                if let Ok(v) = parse_value(bytes, &mut pos, 0) {
                    return Some(v);
                }
            }
        }
        None
    }

    /// Get a field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// Get a field case-insensitively.
    pub fn get_ci(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map
                .iter()
                .find(|(k, _)| k.eq_ignore_ascii_case(key))
                .map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parse one value; `depth` is the number of containers it sits inside.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(b, pos);
    if *pos >= b.len() {
        return Err(JsonError::new(*pos, "unexpected end of input"));
    }
    match b[*pos] {
        b'{' | b'[' if depth >= MAX_DEPTH => {
            Err(JsonError::new(*pos, format!("nesting deeper than {MAX_DEPTH} levels")))
        }
        b'{' => parse_object(b, pos, depth + 1),
        b'[' => parse_array(b, pos, depth + 1),
        b'"' => Ok(Json::String(parse_string(b, pos)?)),
        b't' => parse_lit(b, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(b, pos, "false", Json::Bool(false)),
        b'n' => parse_lit(b, pos, "null", Json::Null),
        b'-' | b'0'..=b'9' => parse_number(b, pos),
        c => Err(JsonError::new(*pos, format!("unexpected byte {:?}", c as char))),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(JsonError::new(*pos, format!("invalid literal, expected {lit:?}")))
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    *pos += 1; // consume {
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == b'}' {
        *pos += 1;
        return Ok(Json::Object(map));
    }
    loop {
        skip_ws(b, pos);
        if *pos >= b.len() || b[*pos] != b'"' {
            return Err(JsonError::new(*pos, "expected string key"));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if *pos >= b.len() || b[*pos] != b':' {
            return Err(JsonError::new(*pos, "expected ':'"));
        }
        *pos += 1;
        let value = parse_value(b, pos, depth)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(map));
            }
            _ => return Err(JsonError::new(*pos, "expected ',' or '}'")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    *pos += 1; // consume [
    let mut items = Vec::new();
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == b']' {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(JsonError::new(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    *pos += 1; // consume opening quote
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(&c @ (b'"' | b'\\' | b'/')) => out.push(c as char),
                    Some(_) | None => return Err(JsonError::new(*pos, "bad escape")),
                }
                *pos += 1;
            }
            _ => {
                // Copy one UTF-8 scalar.
                let s = &b[*pos..];
                let len = utf8_len(s[0]);
                if s.len() < len {
                    return Err(JsonError::new(*pos, "truncated UTF-8"));
                }
                let scalar = std::str::from_utf8(&s[..len])
                    .map_err(|e| JsonError::new(*pos, format!("bad UTF-8: {e}")))?;
                out.push_str(scalar);
                *pos += len;
            }
        }
    }
    Err(JsonError::new(*pos, "unterminated string"))
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if b[*pos] == b'-' {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    // The scanned range is ASCII digits/sign/exponent bytes by
    // construction, but keep the conversion fallible anyway.
    let s = std::str::from_utf8(&b[start..*pos])
        .map_err(|e| JsonError::new(start, format!("non-ASCII number: {e}")))?;
    s.parse::<f64>()
        .map(Json::Number)
        .map_err(|e| JsonError::new(start, format!("bad number {s:?}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_answer_format() {
        let j = Json::parse(r#"{"ANSWER": "B", "EXPLANATION": "because"}"#).unwrap();
        assert_eq!(j.get("ANSWER").and_then(Json::as_str), Some("B"));
        assert_eq!(j.get("EXPLANATION").and_then(Json::as_str), Some("because"));
    }

    #[test]
    fn case_insensitive_get() {
        let j = Json::parse(r#"{"answer": "C"}"#).unwrap();
        assert_eq!(j.get_ci("ANSWER").and_then(Json::as_str), Some("C"));
    }

    #[test]
    fn parses_nested_and_arrays() {
        let j = Json::parse(r#"{"a": [1, 2.5, true, null], "b": {"c": "d"}}"#).unwrap();
        match j.get("a") {
            Some(Json::Array(items)) => {
                assert_eq!(items.len(), 4);
                assert_eq!(items[0], Json::Number(1.0));
                assert_eq!(items[2], Json::Bool(true));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            j.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("d")
        );
    }

    #[test]
    fn escapes_in_strings() {
        let j = Json::parse(r#"{"s": "line\nbreak \"quoted\""}"#).unwrap();
        assert_eq!(j.get("s").and_then(Json::as_str), Some("line\nbreak \"quoted\""));
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "{",
            "{\"a\" 1}",
            "{\"a\": }",
            "[1, 2",
            "{\"a\": \"unterminated}",
            "{'single': 'quotes'}",
            "",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Json::parse("{} trailing").is_err());
    }

    #[test]
    fn embedded_object_in_prose() {
        let text = "Sure! Here is my answer: {\"ANSWER\": \"D\"} hope that helps";
        let j = Json::parse_embedded(text).unwrap();
        assert_eq!(j.get("ANSWER").and_then(Json::as_str), Some("D"));
    }

    #[test]
    fn embedded_skips_broken_then_finds_valid() {
        let text = "{oops {\"ANSWER\": \"A\"}";
        let j = Json::parse_embedded(text).unwrap();
        assert_eq!(j.get("ANSWER").and_then(Json::as_str), Some("A"));
    }

    #[test]
    fn embedded_none_when_absent() {
        assert!(Json::parse_embedded("no json here").is_none());
    }

    #[test]
    fn unicode_strings() {
        let j = Json::parse(r#"{"s": "σ Ori ☉"}"#).unwrap();
        assert_eq!(j.get("s").and_then(Json::as_str), Some("σ Ori ☉"));
    }

    /// `depth` arrays, one inside the next, around a single `1`.
    fn nested_arrays(depth: usize) -> String {
        format!("{}1{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn nesting_is_bounded_before_the_stack_is() {
        // On a spawned thread: the default 2 MiB stack of a gateway
        // handler, not the test harness's main-thread allowance.
        let verdict = std::thread::spawn(|| {
            assert!(Json::parse(&nested_arrays(MAX_DEPTH)).is_ok(), "the bound itself parses");
            let objects = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
            assert!(Json::parse(&objects).is_ok(), "objects count like arrays");
            let over = Json::parse(&nested_arrays(MAX_DEPTH + 1)).expect_err("bound + 1");
            assert_eq!(over.at, MAX_DEPTH, "rejected at the first bracket too deep");
            assert!(over.message.contains("nesting"), "{over}");
            // Unclosed, as an attacker would send it: 60 kB of `[`.
            assert!(Json::parse(&"[".repeat(60_000)).is_err());
            assert!(Json::parse(&"{\"k\":".repeat(12_000)).is_err());
            assert!(Json::parse_embedded(&"{\"k\":".repeat(12_000)).is_none());
        })
        .join();
        assert!(verdict.is_ok(), "deep nesting must be a typed error");
    }
}
