//! Minimal std-only JSON: the wire format of the serving protocol.
//!
//! The container builds without crates.io (the shims pattern from
//! `crates/shims`), so the serving layer hand-rolls the strict subset of
//! JSON it needs: a [`Json`] value tree, a recursive-descent parser with a
//! depth bound, and an encoder that always emits a single line (no raw
//! control characters), which is what makes newline-delimited framing
//! sound. Both the server and the client/load-generator speak through this
//! module, so an encode/parse asymmetry cannot hide.
//!
//! Numbers keep the integer/float distinction (`i64` vs `f64`): session
//! ids are `u64`-ish and must survive a round trip without drifting
//! through a double.

use std::fmt::{self, Write as _};

/// Maximum nesting depth accepted by the parser. Protocol messages are
/// two levels deep; anything deeper is hostile or broken input, and a
/// bound keeps recursion off the worker's stack limit.
const MAX_DEPTH: usize = 32;

/// A JSON value. Object member order is preserved (insertion order), so
/// encoded responses are deterministic and diffable in tests and CI.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fraction or exponent, in `i64` range.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (ordered key/value pairs; keys are not deduplicated —
    /// lookups return the first match, like every mainstream parser).
    Obj(Vec<(String, Json)>),
}

/// Parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.detail)
    }
}

impl std::error::Error for JsonError {}

/// Counters, sizes and ids as wire integers.
macro_rules! from_int {
    ($($int:ty),*) => {$(
        impl From<$int> for Json {
            fn from(n: $int) -> Json {
                Json::Int(n as i64)
            }
        }
    )*};
}
from_int!(u64, usize);

impl Json {
    /// Build an object from pairs (order preserved).
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Member lookup on an object (first match); `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The integer payload as `u64`, if integral and non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Numeric payload widened to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Encode onto one line (never emits a raw control character, so the
    /// result is always newline-framable).
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => {
                if x.is_finite() {
                    // `{:?}` keeps a ".0" on integral floats, preserving
                    // the float-ness of the value across a round trip.
                    let _ = write!(out, "{x:?}");
                } else {
                    // JSON has no NaN/Infinity; null is the standard
                    // lossy mapping.
                    out.push_str("null");
                }
            }
            Json::Str(s) => encode_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_str(k, out);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

/// Append `s` quoted, copying the runs between the bytes that need an
/// escape (`"`, `\` and controls, all ASCII, so every cut is a char
/// boundary) as they are.
fn encode_str(s: &str, out: &mut String) {
    out.push('"');
    let mut rest = s;
    while let Some(i) = rest
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
    {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// Parse one JSON document from `input` (surrounding whitespace allowed,
/// trailing garbage rejected).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, detail: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            detail: detail.into(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected ',' or ']' in array")),
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
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a low surrogate must
                                // follow immediately.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // A run of plain bytes, multi-byte UTF-8 included. It
                    // starts after and ends at an ASCII byte (or the end of
                    // input), so both ends are char boundaries of `text`.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("non-ascii in \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) => Ok(Json::Float(x)),
            Err(_) => Err(self.err(format!("invalid number {text:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_protocol_shapes() {
        let v = Json::obj([
            ("op", Json::str("add")),
            ("session", Json::Int(42)),
            ("value", Json::str("Jim \"JC\" Carrey\n")),
            ("k", Json::Float(1.5)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        let line = v.encode();
        assert!(!line.contains('\n'), "encoded JSON must be one line");
        assert_eq!(parse(&line).unwrap(), v);
    }

    #[test]
    fn integers_survive_exactly() {
        for n in [0i64, -1, 9_007_199_254_740_993, i64::MAX, i64::MIN] {
            let line = Json::Int(n).encode();
            assert_eq!(parse(&line).unwrap(), Json::Int(n), "{n}");
        }
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(parse("2.5").unwrap(), Json::Float(2.5));
        // Beyond i64: falls back to float rather than erroring.
        assert!(matches!(
            parse("99999999999999999999").unwrap(),
            Json::Float(_)
        ));
    }

    #[test]
    fn escapes_and_unicode() {
        assert_eq!(
            parse(r#""a\u0041\n\t\" \u00e9 \ud83d\ude00""#).unwrap(),
            Json::Str("aA\n\t\" é 😀".into())
        );
        // Raw multi-byte chars (2-, 3- and 4-byte) copy through, including
        // directly before the closing quote and directly before an escape.
        assert_eq!(parse("\"é€😀\"").unwrap(), Json::Str("é€😀".into()));
        assert_eq!(
            parse(r#""a€\n😀Aé\"""#).unwrap(),
            Json::Str("a€\n😀Aé\"".into())
        );
        // Control characters encode as escapes and round trip.
        let s = Json::Str("\u{1}\u{2}ok".into());
        assert_eq!(parse(&s.encode()).unwrap(), s);
        // Lone surrogates are rejected.
        assert!(parse(r#""\ud800""#).is_err());
        assert!(parse(r#""\ud800\u0041""#).is_err());
    }

    #[test]
    fn encodes_exact_bytes() {
        let enc = |s: &str| Json::Str(s.into()).encode();
        for b in 0u8..0x20 {
            let want = match b {
                b'\n' => "\"\\n\"".to_string(),
                b'\r' => "\"\\r\"".to_string(),
                b'\t' => "\"\\t\"".to_string(),
                _ => format!("\"\\u{b:04x}\""),
            };
            assert_eq!(enc(&char::from(b).to_string()), want, "byte {b:#04x}");
        }
        assert_eq!(enc("\u{1f}\u{b}"), r#""\u001f\u000b""#, "lowercase hex");
        assert_eq!(enc("\""), r#""\"""#);
        assert_eq!(enc("\\"), r#""\\""#);
        assert_eq!(enc("\u{7f}"), "\"\u{7f}\"", "DEL passes through");
        assert_eq!(enc(""), r#""""#);
        // 2-, 3- and 4-byte chars copy through: at either end, between
        // escapes and next to them.
        assert_eq!(enc("é"), "\"é\"");
        assert_eq!(enc("é€😀"), "\"é€😀\"");
        assert_eq!(enc("😀\n€"), "\"😀\\n€\"");
        assert_eq!(enc("\"é\\"), r#""\"é\\""#);
        assert_eq!(enc("a€\u{0}😀\té"), "\"a€\\u0000😀\\té\"");
        assert_eq!(
            Json::obj([("k\"ey", Json::str("v\u{1}"))]).encode(),
            r#"{"k\"ey":"v\u0001"}"#
        );
    }

    /// An arbitrary char, weighted towards the ones the encoder treats
    /// specially: controls, `"`, `\`, DEL and multi-byte UTF-8.
    fn any_char((class, bits): (u8, u32)) -> char {
        let c = match class % 6 {
            0 => bits % 0x20,
            1 => [0x22, 0x5c, 0x7f][(bits % 3) as usize],
            2 => 0x20 + bits % 0x60,
            3 => 0x80 + bits % 0x780,
            4 => 0x800 + bits % 0xF800,
            _ => 0x10000 + bits % 0x100000,
        };
        char::from_u32(c).unwrap_or('\u{fffd}')
    }

    proptest::proptest! {
        #[test]
        fn strings_round_trip(
            chars in proptest::collection::vec((proptest::any::<u8>(), proptest::any::<u32>()), 0..48)
        ) {
            let s: String = chars.into_iter().map(any_char).collect();
            let line = Json::Str(s.clone()).encode();
            proptest::prop_assert!(!line.contains('\n'));
            proptest::prop_assert_eq!(parse(&line).unwrap(), Json::Str(s));
        }
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "nul",
            "1.2.3",
            "\"abc",
            "\"\\q\"",
            "{\"a\":1} extra",
            "--2",
            "+1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn depth_bound_rejects_hostile_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let err = parse(&deep).unwrap_err();
        assert!(err.detail.contains("deep"));
        // At sane depths it parses fine.
        let ok = "[".repeat(20) + &"]".repeat(20);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn object_lookup_and_accessors() {
        let v = parse(r#"{"op":"sql","session":7,"k":2.0,"on":false,"xs":[1,2]}"#).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("sql"));
        assert_eq!(v.get("session").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("k").and_then(Json::as_f64), Some(2.0));
        assert_eq!(v.get("on").and_then(Json::as_bool), Some(false));
        assert_eq!(
            v.get("xs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Int(-1).as_u64(), None);
    }

    #[test]
    fn nonfinite_floats_encode_as_null() {
        assert_eq!(Json::Float(f64::NAN).encode(), "null");
        assert_eq!(Json::Float(f64::INFINITY).encode(), "null");
    }
}
