//! A small self-contained JSON value type, parser and writer.
//!
//! The build environment is fully offline (no crates.io), so artifact
//! serialization cannot lean on `serde`. This module provides the one JSON
//! layer every crate shares: [`Json`] is a plain tree, [`Json::parse`] is a
//! strict recursive-descent reader, and [`Json::write`] emits a compact,
//! deterministic encoding (object keys keep insertion order, floats use
//! Rust's shortest round-trip formatting, so `parse(write(v)) == v`).
//!
//! Exact integers wider than an `f64` mantissa (e.g. `fixpt::Fixed::raw`
//! payloads) must be carried as strings by the schema; [`Json::Num`] is a
//! lossless `f64` only.

use std::fmt;
use std::hash::Hasher;

use crate::diag::json_str;

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number. Non-finite floats are written as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is preserved (and significant for the writer),
    /// which keeps serialized artifacts byte-stable across processes.
    Obj(Vec<(String, Json)>),
}

/// Error produced by [`Json::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number from anything convertible to `f64` without loss of
    /// the magnitudes this codebase stores (counts, widths, areas).
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Builds a number from a `u64` count (callers keep counts < 2^53).
    pub fn count(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Builds a number from a `usize` count.
    pub fn size(n: usize) -> Json {
        Json::Num(n as f64)
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The numeric payload as an `i64`, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= i64::MIN as f64 && *n <= i64::MAX as f64 => {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
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

    /// The key/value pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// First value under `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Parses a complete JSON document (rejects trailing garbage).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Writes the compact deterministic encoding.
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    /// Appends the compact deterministic encoding to `out`.
    pub fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.is_finite() {
                    // Rust's shortest formatting round-trips exactly through
                    // str::parse::<f64>.
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        out.push_str(&format!("{}", *n as i64));
                    } else {
                        out.push_str(&format!("{n}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => out.push_str(&json_str(s)),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&json_str(k));
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// A stable 128-bit content digest rendered as 32 lowercase hex digits:
/// [`StableHasher`] fed `bytes`.
///
/// No cryptographic strength is claimed — consumers that need integrity
/// store the preimage next to the digest and compare on load, so a
/// collision degrades to a cache miss, never to wrong data.
/// Dependency-free and byte-stable across processes and platforms.
pub fn stable_digest(bytes: &[u8]) -> String {
    let mut hasher = StableHasher::new();
    hasher.write(bytes);
    hasher.hex()
}

/// The 128-bit hasher behind [`stable_digest`]: two independent
/// FNV-1a-64 lanes with distinct offset bases, fed one byte at a time.
///
/// As a [`Hasher`] it digests any [`std::hash::Hash`] value without
/// rendering it first. Integers reach [`Hasher::write`] in native byte
/// order, so such a digest is stable within one build on one platform;
/// only raw bytes, as [`stable_digest`] feeds them, digest the same
/// everywhere.
#[derive(Debug, Clone)]
pub struct StableHasher {
    a: u64,
    b: u64,
}

impl StableHasher {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher that has seen no bytes.
    pub fn new() -> StableHasher {
        StableHasher {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x6c62_272e_07bb_0142,
        }
    }

    /// Both lanes as 32 lowercase hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.a, self.b)
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl Hasher for StableHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ byte as u64).wrapping_mul(Self::PRIME);
            self.b = (self.b ^ byte as u64)
                .wrapping_mul(Self::PRIME)
                .rotate_left(1);
        }
    }

    /// The first lane; [`StableHasher::hex`] carries both.
    fn finish(&self) -> u64 {
        self.a
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
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

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
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
                            let cp = self.hex4()?;
                            // Surrogate pairs are not produced by our writer;
                            // decode lone escapes, pair high+low when present.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c).ok_or_else(|| self.err("bad surrogate"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("bad codepoint"))?
                            };
                            out.push(ch);
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Consume the whole run of ordinary bytes at once. The
                    // run splits only at ASCII delimiters, so it stays valid
                    // UTF-8 given a `&str` input (continuation bytes are
                    // ≥ 0x80 and never match a delimiter).
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == b'"' || c == b'\\' || c < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "\"hi\\n\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.write()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn round_trips_shortest_float() {
        let v = Json::Num(0.1 + 0.2);
        let back = Json::parse(&v.write()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn preserves_object_order() {
        let v = Json::obj(vec![
            ("zebra", Json::count(1)),
            ("alpha", Json::Arr(vec![Json::Null, Json::Bool(true)])),
        ]);
        assert_eq!(v.write(), "{\"zebra\":1,\"alpha\":[null,true]}");
        assert_eq!(Json::parse(&v.write()).unwrap(), v);
    }

    #[test]
    fn accessors() {
        let v = Json::parse("{\"a\": [1, 2.5], \"b\": \"x\"}").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn digest_is_stable_and_input_sensitive() {
        assert_eq!(stable_digest(b"abc"), stable_digest(b"abc"));
        assert_ne!(stable_digest(b"abc"), stable_digest(b"abd"));
        assert_eq!(stable_digest(b"").len(), 32);
        assert!(stable_digest(b"x").chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn the_hasher_is_the_digest_fed_in_pieces() {
        let mut hasher = StableHasher::new();
        hasher.write(b"ab");
        hasher.write(b"c");
        assert_eq!(hasher.hex(), stable_digest(b"abc"));
        assert_eq!(StableHasher::new().hex(), stable_digest(b""));
    }

    #[test]
    fn rejects_garbage() {
        for text in ["", "{", "[1,", "nul", "\"unterminated", "{\"a\" 1}", "1 2"] {
            assert!(Json::parse(text).is_err(), "{text}");
        }
    }

    #[test]
    fn unicode_escapes() {
        let v = Json::parse("\"\\u00e9\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("é😀"));
    }
}
