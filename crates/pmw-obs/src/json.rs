//! One small JSON value with one writer and one parser: the format of the
//! JSONL run traces ([`crate::trace`]) and of the `BENCH_*.json` artifacts
//! that `pmw-bench` writes and checks.
//!
//! A number keeps its source token: a `u64` stays exact, and a finite `f64`
//! is written with `{:?}`, the shortest form that parses back to the same
//! bits. Non-finite values are written as the strings `"inf"`, `"-inf"` and
//! `"nan"`, which are not numbers to [`Json::as_number`]. The parser takes
//! RFC 8259 text, except that a `\u` escape must name a scalar value and
//! nesting stops at 64 levels.
//!
//! `{}` writes a value compactly, with no whitespace (a trace line). `{:#}`
//! indents it one member per line, except that an array or object whose
//! members are all scalars stays on one line (an artifact row).
//!
//! ```
//! use pmw_obs::json::Json;
//! use pmw_obs::json_object;
//!
//! let row = json_object! { "log2_x": 12u64, "ns": f64::NAN };
//! assert_eq!(row.to_string(), r#"{"log2_x":12,"ns":"nan"}"#);
//! assert_eq!(row.get("ns").and_then(Json::as_number::<f64>), None);
//! let doc = json_object! { "rows": Json::Array(vec![row]) };
//! let text = format!("{doc:#}");
//! assert_eq!(text, "{\n  \"rows\": [\n    {\"log2_x\": 12, \"ns\": \"nan\"}\n  ]\n}");
//! assert_eq!(Json::parse(&text), Ok(doc));
//! assert!(Json::parse(&"[".repeat(100)).is_err());
//! ```

use std::fmt::{self, Write};

/// A JSON value, parsed or built.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its source token. Build one with `Json::from`.
    Number(String),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, its members in order.
    Object(Vec<(String, Json)>),
}

/// A [`Json`](crate::json::Json) object from `"key": value` pairs, each
/// value converted with `Json::from`.
#[macro_export]
macro_rules! json_object {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::json::Json::object([$(($key, $crate::json::Json::from($value))),*])
    };
}

impl Json {
    /// An object with these members, in this order.
    pub fn object<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The first member named `key`, when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value of a number token as `T`: `u64` reads only exact counts,
    /// `f64` any number.
    pub fn as_number<T: std::str::FromStr>(&self) -> Option<T> {
        match self {
            Json::Number(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// The text of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// Parse one JSON text, surrounding whitespace allowed.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut parser = Parser { text, pos: 0 };
        let value = parser.value(0)?;
        parser.skip_ws();
        if parser.pos < text.len() {
            return parser.fail("trailing characters after the value");
        }
        Ok(value)
    }

    /// Write `self` at nesting depth `indent`, or compactly when `None`.
    fn write(&self, f: &mut fmt::Formatter<'_>, indent: Option<usize>) -> fmt::Result {
        let (open, close, members): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return f.write_str("null"),
            Json::Bool(b) => return write!(f, "{b}"),
            Json::Number(token) => return f.write_str(token),
            Json::String(s) => return write_string(f, s),
            Json::Array(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Object(members) => {
                let members = members.iter().map(|(k, v)| (Some(k.as_str()), v));
                ('{', '}', members.collect())
            }
        };
        // An indented container spreads over lines when it holds another.
        let nested = |(_, v): &(_, &Json)| matches!(v, Json::Array(_) | Json::Object(_));
        let spread = indent.filter(|_| members.iter().any(nested));
        f.write_char(open)?;
        for (i, (key, value)) in members.into_iter().enumerate() {
            f.write_str(if i > 0 { "," } else { "" })?;
            match spread {
                Some(depth) => write!(f, "\n{:w$}", "", w = 2 * depth + 2)?,
                None if i > 0 && indent.is_some() => f.write_char(' ')?,
                None => {}
            }
            if let Some(key) = key {
                write_string(f, key)?;
                f.write_str(if indent.is_some() { ": " } else { ":" })?;
            }
            value.write(f, indent.map(|depth| depth + 1))?;
        }
        if let Some(depth) = spread {
            write!(f, "\n{:w$}", "", w = 2 * depth)?;
        }
        f.write_char(close)
    }
}

fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// `{}` is compact, `{:#}` indented (see the module docs).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, f.alternate().then_some(0))
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Number(v.to_string())
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Number(v.to_string())
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        match v {
            v if v.is_finite() => Json::Number(format!("{v:?}")),
            v if v.is_nan() => "nan".into(),
            v if v > 0.0 => "inf".into(),
            _ => "-inf".into(),
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::String(v.to_string())
    }
}

/// Why a text is not JSON, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What the parser expected or found.
    pub what: &'static str,
    /// Byte offset into the text.
    pub pos: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.pos)
    }
}

impl std::error::Error for JsonError {}

/// Deeper nesting is rejected, so a hostile file cannot overflow the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn fail<T>(&self, what: &'static str) -> Result<T, JsonError> {
        Err(JsonError {
            what,
            pos: self.pos,
        })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth >= MAX_DEPTH {
            return self.fail("nesting too deep");
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self
                .items(b'}', |p| {
                    p.skip_ws();
                    if p.peek() != Some(b'"') {
                        return p.fail("expected a key string");
                    }
                    let key = p.string()?;
                    p.skip_ws();
                    if !p.eat(b':') {
                        return p.fail("expected ':'");
                    }
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Json::Object),
            Some(b'[') => self.items(b']', |p| p.value(depth + 1)).map(Json::Array),
            Some(b'"') => self.string().map(Json::String),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => {
                for (word, value) in [
                    ("null", Json::Null),
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                ] {
                    if self.text[self.pos..].starts_with(word) {
                        self.pos += word.len();
                        return Ok(value);
                    }
                }
                self.fail("expected a value")
            }
        }
    }

    /// The comma-separated items of an array or object up to `close`, the
    /// opening bracket at `pos`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(b',') {
                return self.fail("expected ',' or a closing bracket");
            }
        }
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, kept as its token.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        if self.eat(b'.') {
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _sign = self.eat(b'+') || self.eat(b'-');
            self.digits()?;
        }
        Ok(Json::Number(self.text[start..self.pos].to_string()))
    }

    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return self.fail("expected a digit");
        }
        Ok(())
    }

    /// A string literal, the opening quote at `pos`.
    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let Some(c) = self.text[self.pos..].chars().next() else {
                return self.fail("unterminated string");
            };
            self.pos += c.len_utf8();
            let c = match c {
                '"' => return Ok(out),
                '\\' => {
                    let escaped = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = self.text.get(self.pos + 1..self.pos + 5);
                            let code = hex
                                .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok());
                            let Some(c) = code.and_then(char::from_u32) else {
                                return self.fail("bad \\u escape");
                            };
                            self.pos += 4;
                            c
                        }
                        _ => return self.fail("unknown escape"),
                    };
                    self.pos += 1;
                    escaped
                }
                c if (c as u32) < 0x20 => return self.fail("control character in a string"),
                c => c,
            };
            out.push(c);
        }
    }
}
