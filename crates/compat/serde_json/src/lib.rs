//! Vendored, offline stand-in for the `serde_json` crate.
//!
//! Renders the [`serde::ser::Value`] trees produced by the vendored serde
//! stand-in as JSON text, and parses JSON text back into the same trees.
//! Only the entry points this workspace uses are provided: [`to_string`],
//! [`to_string_pretty`], [`from_str`], and [`from_value`]. Output
//! conventions follow the real serde_json: 2-space pretty indentation,
//! `null` for non-finite floats, externally-tagged enum variants (handled
//! by the derive layer), and standard string escaping.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use serde::de::DeError;
use serde::ser::Value;
use serde::{Deserialize, Serialize};

/// Serialisation or deserialisation error.
///
/// The vendored serialiser is infallible (every `Serialize` impl lowers into
/// a [`Value`] tree), so serialisation entry points never produce this;
/// [`from_str`] produces it for malformed text or shape mismatches.
#[derive(Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.to_string())
    }
}

/// Serialises `value` as compact JSON.
///
/// # Errors
///
/// Never fails with the vendored serialiser; the `Result` mirrors the real
/// serde_json signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialises `value` as pretty-printed JSON with 2-space indentation.
///
/// # Errors
///
/// Never fails with the vendored serialiser; the `Result` mirrors the real
/// serde_json signature.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some("  "), 0);
    Ok(out)
}

/// Deserialises a `T` from JSON text.
///
/// # Errors
///
/// Errors on malformed JSON, trailing input, or when the parsed value's
/// shape does not match `T`.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_value_text(text)?;
    Ok(T::from_value(&value)?)
}

/// Deserialises a `T` from an already-parsed [`Value`] tree.
///
/// # Errors
///
/// Errors when the value's shape does not match `T`.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, Error> {
    Ok(T::from_value(value)?)
}

fn parse_value_text(text: &str) -> Result<Value, Error> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_whitespace();
    let value = parser.parse_value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after JSON value"));
    }
    Ok(value)
}

/// Recursive-descent JSON parser over the input bytes. Positions index
/// bytes; multi-byte UTF-8 only occurs inside strings, where content is
/// re-decoded through `str` slices.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> Error {
        Error(format!("{message} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.error(&format!("unexpected character `{}`", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, keyword: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(keyword.as_bytes()) {
            self.pos += keyword.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{keyword}`")))
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if is_float {
            // `str::parse::<f64>` is the exact inverse of Rust's shortest
            // float printing, so finite floats round-trip bit-for-bit.
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.error("malformed number"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| self.error("integer out of range"))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| self.error("integer out of range"))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let unit = self.parse_hex4()?;
                            let c = if (0xd800..0xdc00).contains(&unit) {
                                // High surrogate: a `\uXXXX` low surrogate
                                // must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                } else {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                let low = self.parse_hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                let code = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid code point"))?
                            } else {
                                char::from_u32(unit)
                                    .ok_or_else(|| self.error("unpaired surrogate"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.error("malformed \\u escape"))?;
        let unit =
            u32::from_str_radix(digits, 16).map_err(|_| self.error("malformed \\u escape"))?;
        self.pos = end;
        Ok(unit)
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }
}

fn write_value(out: &mut String, value: &Value, indent: Option<&str>, level: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => write_float(out, *f),
        Value::String(s) => write_escaped(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            write_newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_newline_indent(out, indent, level + 1);
                write_escaped(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, level + 1);
            }
            write_newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn write_newline_indent(out: &mut String, indent: Option<&str>, level: usize) {
    if let Some(unit) = indent {
        out.push('\n');
        for _ in 0..level {
            out.push_str(unit);
        }
    }
}

fn write_float(out: &mut String, f: f64) {
    if f.is_finite() {
        let mut s = f.to_string();
        // Keep floats visually distinct from integers, as serde_json does.
        if !s.contains('.') && !s.contains('e') && !s.contains('E') {
            s.push_str(".0");
        }
        out.push_str(&s);
    } else {
        // Real serde_json emits null for NaN and infinities.
        out.push_str("null");
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_prints_nested_structures() {
        let value = Value::Object(vec![
            ("name".to_string(), Value::String("barnes".to_string())),
            (
                "rows".to_string(),
                Value::Array(vec![Value::Float(1.0), Value::Float(2.5)]),
            ),
        ]);
        struct Wrapper(Value);
        impl Serialize for Wrapper {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        let text = to_string_pretty(&Wrapper(value)).unwrap();
        assert_eq!(
            text,
            "{\n  \"name\": \"barnes\",\n  \"rows\": [\n    1.0,\n    2.5\n  ]\n}"
        );
    }

    #[test]
    fn compact_output_and_escaping() {
        struct Wrapper;
        impl Serialize for Wrapper {
            fn to_value(&self) -> Value {
                Value::Object(vec![(
                    "k\"ey".to_string(),
                    Value::Array(vec![Value::Null, Value::Bool(false), Value::Int(-1)]),
                )])
            }
        }
        assert_eq!(
            to_string(&Wrapper).unwrap(),
            "{\"k\\\"ey\":[null,false,-1]}"
        );
    }

    #[test]
    fn parses_nested_structures_back_into_values() {
        let value: Value =
            from_str("{\n  \"name\": \"barnes\",\n  \"rows\": [1.0, -2, 3, null, true]\n}")
                .unwrap();
        assert_eq!(
            value,
            Value::Object(vec![
                ("name".to_string(), Value::String("barnes".to_string())),
                (
                    "rows".to_string(),
                    Value::Array(vec![
                        Value::Float(1.0),
                        Value::Int(-2),
                        Value::UInt(3),
                        Value::Null,
                        Value::Bool(true),
                    ]),
                ),
            ])
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let value: Value = from_str("\"a\\n\\\"b\\\\c\\u0041\\ud83d\\ude00\"").unwrap();
        assert_eq!(value, Value::String("a\n\"b\\cA\u{1f600}".to_string()));
    }

    #[test]
    fn finite_floats_round_trip_through_text() {
        for f in [0.1, 1.0 / 3.0, 6.02e23, -1.5e-300, 0.95_f64.powi(7)] {
            let mut text = String::new();
            write_float(&mut text, f);
            let value: Value = from_str(&text).unwrap();
            assert_eq!(value, Value::Float(f));
        }
    }

    #[test]
    fn malformed_text_is_rejected() {
        assert!(from_str::<Value>("{\"a\": 1,}").is_err());
        assert!(from_str::<Value>("[1 2]").is_err());
        assert!(from_str::<Value>("1 2").is_err());
        assert!(from_str::<Value>("\"open").is_err());
        assert!(from_str::<Value>("nul").is_err());
        assert!(from_str::<Value>("").is_err());
    }

    #[test]
    fn typed_from_str_reports_shape_mismatches() {
        let parsed: Vec<u64> = from_str("[1, 2, 3]").unwrap();
        assert_eq!(parsed, vec![1, 2, 3]);
        assert!(from_str::<Vec<u64>>("[1, -2]").is_err());
        assert!(from_str::<bool>("1").is_err());
    }

    #[test]
    fn non_finite_floats_become_null() {
        struct Wrapper;
        impl Serialize for Wrapper {
            fn to_value(&self) -> Value {
                Value::Array(vec![Value::Float(f64::NAN), Value::Float(f64::INFINITY)])
            }
        }
        assert_eq!(to_string(&Wrapper).unwrap(), "[null,null]");
    }
}
