//! Minimal JSON document builder (deterministic key order, no deps).

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Finite floating-point number (non-finite renders as `null`).
    Num(f64),
    /// Unsigned integer (covers path counts up to `u128`).
    UInt(u128),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; keys keep insertion order so output is deterministic.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    // `{}` on f64 is shortest-round-trip and never scientific.
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    item.write(out, indent + 1);
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
                for (k, (key, value)) in fields.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// A parsed JSON value (owned keys, unlike the writer-side [`Json`] whose
/// object keys are static). Used by `repwf bench --check` to read committed
/// baselines back in, and by this crate for the documents it reads whole:
/// shard manifest lines, lease bodies and supervisor pins. Flat shard
/// records go through `repwf_obs::ndjson` instead.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A JSON number with a sign, fraction or exponent.
    Num(f64),
    /// An unsigned-integer JSON number (plain digit run), kept exact.
    ///
    /// Shard manifests carry f64 **bit patterns** as u64 integers;
    /// routing every number through f64 would silently corrupt values
    /// above 2^53, so integer tokens keep full precision.
    UInt(u128),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<JsonValue>),
    /// Object, in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number (integers convert lossily above
    /// 2^53, like any f64).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            JsonValue::UInt(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// Exact unsigned integer, if this is an integer token that fits u64.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. Every document
/// this workspace writes nests a few levels; the limit keeps the
/// recursive parser's stack bounded on input it did not produce.
pub const MAX_DEPTH: usize = 128;

/// Why [`parse`] rejected a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    TooDeep {
        /// Byte offset of the first bracket past the limit.
        offset: usize,
    },
    /// Malformed input (the message carries a byte offset where known).
    Syntax(String),
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::TooDeep { offset } => {
                write!(f, "nesting deeper than {MAX_DEPTH} levels at byte {offset}")
            }
            JsonError::Syntax(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for JsonError {}

impl From<String> for JsonError {
    fn from(message: String) -> Self {
        JsonError::Syntax(message)
    }
}

impl From<&str> for JsonError {
    fn from(message: &str) -> Self {
        JsonError::Syntax(message.to_string())
    }
}

/// Parses a JSON document (strict enough for round-tripping this crate's
/// own output; errors carry a byte offset).
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}").into());
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, which sits inside `depth` open arrays or
/// objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(JsonError::TooDeep { offset: *pos }),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let JsonValue::Str(key) = parse_value(b, pos, depth + 1)? else {
                    return Err(format!("object key must be a string at byte {pos}").into());
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}").into());
                }
                *pos += 1;
                fields.push((key, parse_value(b, pos, depth + 1)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}").into()),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}").into()),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut out = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(JsonValue::Str(out));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                let hex =
                                    b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                    16,
                                )
                                .map_err(|e| e.to_string())?;
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| format!("bad \\u escape {code:#x}"))?,
                                );
                                *pos += 4;
                            }
                            other => return Err(format!("bad escape {other:?}").into()),
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // Copy the whole escape-free run with one UTF-8
                        // validation: it ends at an ASCII quote, backslash
                        // or the end of input, so it never splits a char.
                        let start = *pos;
                        while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\') {
                            *pos += 1;
                        }
                        let run =
                            std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
                        out.push_str(run);
                    }
                }
            }
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(JsonValue::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(JsonValue::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(JsonValue::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let raw = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            // A plain digit run is an exact unsigned integer (bit patterns,
            // seeds, path counts); anything signed/fractional/exponential
            // is a float.
            if raw.bytes().all(|c| c.is_ascii_digit()) {
                if let Ok(n) = raw.parse::<u128>() {
                    return Ok(JsonValue::UInt(n));
                }
            }
            raw.parse::<f64>()
                .map(JsonValue::Num)
                .map_err(|_| format!("invalid number {raw:?} at byte {start}").into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_writer_output() {
        let doc = Json::Obj(vec![
            ("name", Json::str("bench \"x\"\n")),
            ("value", Json::Num(1.25)),
            ("count", Json::UInt(42)),
            ("flag", Json::Bool(true)),
            ("missing", Json::Null),
            ("xs", Json::Arr(vec![Json::Num(-3.5), Json::Num(1e-9)])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        let parsed = parse(&doc.to_string_pretty()).unwrap();
        assert_eq!(parsed.get("name").unwrap().as_str().unwrap(), "bench \"x\"\n");
        assert_eq!(parsed.get("value").unwrap().as_f64().unwrap(), 1.25);
        assert_eq!(parsed.get("count").unwrap().as_f64().unwrap(), 42.0);
        assert_eq!(parsed.get("flag").unwrap(), &JsonValue::Bool(true));
        assert_eq!(parsed.get("missing").unwrap(), &JsonValue::Null);
        let xs = parsed.get("xs").unwrap().as_arr().unwrap();
        assert_eq!(xs[0].as_f64().unwrap(), -3.5);
        assert_eq!(xs[1].as_f64().unwrap(), 1e-9);
        assert_eq!(parsed.get("empty_arr").unwrap().as_arr().unwrap().len(), 0);
    }

    #[test]
    fn integer_tokens_keep_full_precision() {
        // 2^63 + 1 is not representable in f64; shard records depend on
        // u64 bit patterns surviving a parse round-trip exactly.
        let bits = (1u64 << 63) + 1;
        let doc = parse(&format!(
            "{{\"bits\": {bits}, \"big\": {}, \"neg\": -7, \"frac\": 2.0}}",
            u128::MAX
        ))
        .unwrap();
        assert_eq!(doc.get("bits").unwrap().as_u64(), Some(bits));
        assert_eq!(doc.get("big").unwrap(), &JsonValue::UInt(u128::MAX));
        assert_eq!(doc.get("neg").unwrap().as_u64(), None, "negatives are not UInt");
        assert_eq!(doc.get("neg").unwrap().as_f64(), Some(-7.0));
        assert_eq!(doc.get("frac").unwrap(), &JsonValue::Num(2.0));
    }

    #[test]
    fn nesting_past_the_limit_is_a_typed_error_not_a_stack_overflow() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(parse(&nested(MAX_DEPTH + 1)), Err(JsonError::TooDeep { offset: MAX_DEPTH }));
        // Far deeper than any thread stack could recurse, unterminated too.
        let hostile = "[".repeat(200_000);
        assert_eq!(parse(&hostile), Err(JsonError::TooDeep { offset: MAX_DEPTH }));
        let objects = "{\"a\":".repeat(200_000);
        let err = parse(&objects).unwrap_err();
        assert!(matches!(err, JsonError::TooDeep { .. }), "{err}");
        assert!(err.to_string().contains("nesting deeper than 128 levels"), "{err}");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("123 456").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // One validation per character over the rest of the input made a
        // 4 MB string value take minutes; a single pass takes milliseconds
        // even unoptimized.
        let long = "é".repeat(1 << 20) + &"x".repeat(2 << 20);
        let doc = format!("{{\"note\": \"{long}\", \"n\": 1}}");
        assert!(doc.len() > 4_000_000);
        let start = std::time::Instant::now();
        let parsed = parse(&doc).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(parsed.get("note").unwrap().as_str(), Some(long.as_str()));
        assert_eq!(parsed.get("n").unwrap().as_u64(), Some(1));
        assert!(elapsed.as_secs_f64() < 5.0, "4 MB string took {elapsed:?}");
    }

    #[test]
    fn strings_mix_multibyte_runs_and_escapes() {
        let doc = parse(r#"{"s": "ç✓ \"q\" back\\slash caf\u00e9 é 日本\n€"}"#).unwrap();
        assert_eq!(doc.get("s").unwrap().as_str(), Some("ç✓ \"q\" back\\slash café é 日本\n€"));
        assert_eq!(parse(r#""\\""#).unwrap().as_str(), Some("\\"));
        assert_eq!(parse(r#""""#).unwrap().as_str(), Some(""));
        assert!(parse("\"é").is_err(), "unterminated after a multibyte run");
    }

    #[test]
    fn renders_nested_documents() {
        let doc = Json::Obj(vec![
            ("name", Json::str("Example \"A\"")),
            ("period", Json::Num(189.0)),
            ("paths", Json::UInt(6)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("xs", Json::Arr(vec![Json::Num(1.5), Json::Num(2.0)])),
        ]);
        let text = doc.to_string_pretty();
        assert!(text.contains("\"name\": \"Example \\\"A\\\"\""));
        assert!(text.contains("\"period\": 189"));
        assert!(text.contains("\"paths\": 6"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn non_finite_is_null() {
        assert_eq!(Json::Num(f64::NAN).to_string_pretty(), "null\n");
    }
}
