//! Minimal JSON encoding for the crate's report types.
//!
//! The workspace builds fully offline, so `serde`/`serde_json` are not
//! available. This module hand-rolls the tiny subset of JSON the
//! scenario runtime's (`tvg-scenarios`) canonical reports need:
//! objects, arrays (histograms, per-source rows), strings, numbers,
//! booleans, and `null`. [`parse`] reads that subset back, which is how
//! the report tests check that every canonical report is valid JSON.

use std::collections::BTreeMap;
use std::fmt;

use crate::metrics::{AggregateStats, DeliveryStats};

/// A parsed JSON value (the subset this crate emits).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer, kept exact (floats round-trip integers
    /// only up to 2⁵³; `u64` counters must survive unharmed).
    Int(u64),
    /// Any other JSON number, kept as `f64`.
    Num(f64),
    /// A string (no escapes are needed by this crate's types).
    Str(String),
    /// An array (scenario reports carry histograms and per-source rows).
    Arr(Vec<Json>),
    /// An object with string keys.
    Obj(BTreeMap<String, Json>),
}

/// Types encodable to JSON.
pub trait ToJson {
    /// Encodes `self` as a JSON value; its `Display` is compact JSON text.
    fn to_json_value(&self) -> Json;
}

/// Parse failure: malformed text, or JSON outside the supported subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Num(n) => {
                if !n.is_finite() {
                    // NaN/inf have no JSON representation; encode as null
                    // (serde_json's convention) so the output always
                    // parses.
                    write!(f, "null")
                } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write!(f, "\"{s}\""),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Json::Obj(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "\"{k}\":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Parses JSON text (objects, arrays, strings without escapes, numbers,
/// booleans, `null`).
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return err(format!("trailing input at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

/// Maximum nesting the parser accepts before returning an error (the
/// crate's own types nest two levels; this guards against stack
/// overflow on adversarial input).
const MAX_DEPTH: usize = 64;

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.depth += 1;
        let v = self.value_inner();
        self.depth -= 1;
        v
    }

    fn value_inner(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'"' => {
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| JsonError("invalid utf-8 in string".into()))?;
                    self.pos += 1;
                    return Ok(s.to_string());
                }
                b'\\' => return err("string escapes are not supported"),
                _ => self.pos += 1,
            }
        }
        err("unterminated string")
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        // Plain non-negative integer literals stay exact.
        if !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = s.parse::<u64>() {
                return Ok(Json::Int(n));
            }
        }
        match s.parse::<f64>() {
            Ok(n) => Ok(Json::Num(n)),
            Err(_) => err(format!("invalid number {s:?}")),
        }
    }
}

// ---- impls ------------------------------------------------------------

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num_opt_f64(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::Num)
}

fn num_opt_u64(v: Option<u64>) -> Json {
    v.map_or(Json::Null, Json::Int)
}

impl ToJson for DeliveryStats {
    fn to_json_value(&self) -> Json {
        obj(vec![
            ("delivery_ratio", Json::Num(self.delivery_ratio)),
            ("mean_time", num_opt_f64(self.mean_time)),
            ("p95_time", num_opt_u64(self.p95_time)),
            ("max_time", num_opt_u64(self.max_time)),
        ])
    }
}

impl ToJson for AggregateStats {
    fn to_json_value(&self) -> Json {
        obj(vec![
            ("runs", Json::Int(self.runs as u64)),
            ("mean_delivery_ratio", Json::Num(self.mean_delivery_ratio)),
            ("mean_time", num_opt_f64(self.mean_time)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_options_roundtrip() {
        let stats = DeliveryStats {
            delivery_ratio: 0.5,
            mean_time: None,
            p95_time: None,
            max_time: None,
        };
        let text = stats.to_json_value().to_string();
        assert_eq!(
            text,
            r#"{"delivery_ratio":0.5,"max_time":null,"mean_time":null,"p95_time":null}"#
        );
        assert_eq!(parse(&text).unwrap(), stats.to_json_value());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let bomb = "{\"a\":".repeat(100_000);
        assert!(parse(&bomb).is_err());
        // Shallow nesting within the limit still parses.
        let ok = "{\"a\":{\"b\":{\"c\":1}}}";
        assert!(parse(ok).is_ok());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{}x").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse(r#"{"a":"b\"c"}"#).is_err(), "escapes are refused");
    }

    #[test]
    fn large_integers_stay_exact() {
        // f64 rounds integers above 2⁵³; the Int variant must not.
        for n in [(1u64 << 53) + 1, u64::MAX] {
            let v = Json::Int(n);
            assert_eq!(v.to_string(), n.to_string());
            assert_eq!(parse(&v.to_string()).unwrap(), v);
        }
        let agg = AggregateStats {
            runs: usize::MAX,
            mean_delivery_ratio: 0.75,
            mean_time: Some(2.5),
        };
        let text = agg.to_json_value().to_string();
        assert!(text.contains(&format!("\"runs\":{}", usize::MAX)), "{text}");
        assert_eq!(parse(&text).unwrap(), agg.to_json_value());
        // A fractional number is never read back as an integer.
        assert_eq!(parse("2.5").unwrap(), Json::Num(2.5));
    }

    #[test]
    fn non_finite_floats_encode_as_null_and_fail_decode_typed() {
        let stats = DeliveryStats {
            delivery_ratio: f64::NAN,
            mean_time: Some(f64::INFINITY),
            p95_time: None,
            max_time: None,
        };
        assert_eq!(Json::Num(f64::NEG_INFINITY).to_string(), "null");
        let text = stats.to_json_value().to_string();
        // The text is valid JSON (parseable)...
        assert_eq!(
            text,
            r#"{"delivery_ratio":null,"max_time":null,"mean_time":null,"p95_time":null}"#
        );
        // ...and the non-finite fields read back as `null`, never as a
        // number a consumer could mistake for a measurement.
        let Json::Obj(map) = parse(&text).unwrap() else {
            panic!("object expected: {text}");
        };
        assert!(map.values().all(|v| *v == Json::Null), "{text}");
    }

    #[test]
    fn arrays_roundtrip() {
        let v = Json::Arr(vec![
            Json::Int(1),
            Json::Arr(vec![Json::Int(2), Json::Int(3)]),
            Json::Str("x".into()),
            Json::Null,
        ]);
        let text = v.to_string();
        assert_eq!(text, r#"[1,[2,3],"x",null]"#);
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(
            parse(" [ 1 , 2 ] ").unwrap(),
            Json::Arr(vec![Json::Int(1), Json::Int(2)])
        );
        assert!(parse("[1,").is_err());
        assert!(parse("[1 2]").is_err());
        let bomb = "[".repeat(100_000);
        assert!(parse(&bomb).is_err(), "deep arrays hit the depth guard");
    }

    #[test]
    fn whitespace_tolerated() {
        let spaced = " { \"runs\" : 3 , \"mean_time\" : 0.5 , \"ok\" : true } ";
        assert_eq!(
            parse(spaced).unwrap(),
            parse(r#"{"mean_time":0.5,"ok":true,"runs":3}"#).unwrap()
        );
    }
}
