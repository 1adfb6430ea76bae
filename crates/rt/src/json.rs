//! Dependency-free JSON encode/decode for the telemetry layer.
//!
//! The run logger emits JSONL and the CLI `report` command reads it back;
//! with no serde available offline, this module provides the small JSON
//! subset both sides need: objects, arrays, strings, finite numbers, bools
//! and null. Numbers are emitted with enough precision to round-trip `f64`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value. Object keys are sorted (BTreeMap) so encoding is
/// deterministic, which keeps golden tests stable.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Convenience object builder.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// Field lookup on an object; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Compact (single-line) encoding.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    // Shortest representation that round-trips f64.
                    let _ = write!(out, "{x}");
                    // `{}` prints integers without a dot; that is valid JSON.
                } else {
                    out.push_str("null"); // JSON has no Inf/NaN
                }
            }
            Json::Str(s) => {
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
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. Far
/// above what any event or benchmark record nests; it bounds the parser's
/// recursion, so a hostile line is an error rather than a stack overflow.
const MAX_DEPTH: usize = 128;

/// Parses the value at `pos`, nested `depth` arrays/objects deep.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'{' | b'[')) && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos, depth + 1)? {
                    Json::Str(s) => s,
                    _ => return Err(format!("object key must be a string at byte {}", *pos)),
                };
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let value = parse_value(b, pos, depth + 1)?;
                fields.insert(key, value);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b'r') => s.push('\r'),
                            Some(b't') => s.push('\t'),
                            Some(b'b') => s.push('\u{8}'),
                            Some(b'f') => s.push('\u{c}'),
                            Some(b'u') => {
                                let hex =
                                    b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                    16,
                                )
                                .map_err(|e| e.to_string())?;
                                // Surrogate pairs are not needed by this
                                // workspace's event schema.
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                *pos += 4;
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar.
                        let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                        let c = rest
                            .chars()
                            .next()
                            .ok_or_else(|| "unterminated string".to_string())?;
                        s.push(c);
                        *pos += c.len_utf8();
                    }
                }
            }
        }
        Some(b't') => lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => lit(b, pos, "null", Json::Null),
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number '{text}' at byte {start}"))
        }
    }
}

fn lit(b: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_object() {
        let v = Json::obj(vec![
            ("event", Json::str("epoch_end")),
            ("ts", Json::Num(1.25)),
            ("n", Json::Num(42.0)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("arr", Json::Arr(vec![Json::Num(1.0), Json::Num(2.5)])),
        ]);
        let text = v.encode();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn f64_precision_roundtrips() {
        for x in [0.1, 1e-9, 123456.789012345, f64::MAX, 5e-324] {
            let text = Json::Num(x).encode();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back, x, "{x} round-tripped to {back}");
        }
    }

    #[test]
    fn string_escapes() {
        let v = Json::str("a\"b\\c\nd\te\u{1}");
        let text = v.encode();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
        assert!(Json::parse("nulll").is_err());
    }

    #[test]
    fn parses_nested_whitespace() {
        let v = Json::parse(" { \"a\" : [ 1 , { \"b\" : null } ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn nesting_past_the_limit_is_an_error() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&deep(MAX_DEPTH + 1)).is_err());
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).is_err());
        // Without the limit, a line like this overflows the stack.
        assert!(Json::parse(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn non_finite_encodes_as_null() {
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
        assert_eq!(Json::Num(f64::INFINITY).encode(), "null");
    }
}
