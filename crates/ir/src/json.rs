//! A small self-contained JSON value type, parser and writer.
//!
//! The build environment is fully offline (no crates.io), so artifact
//! serialization cannot lean on `serde`. This module provides the one JSON
//! layer every crate shares: [`Json`] is a plain tree, [`Json::parse`] is a
//! strict recursive-descent reader, and [`Json::write`] emits a compact,
//! deterministic encoding (object keys keep insertion order, floats use
//! Rust's shortest round-trip formatting, so `parse(write(v)) == v`).
//!
//! Both work on runs rather than characters, because every service
//! request parses and writes replies of tens of kilobytes: the bytes a
//! JSON string must escape (`"`, `\`, controls) are found eight at a time,
//! the reader copies each run between them as one `&str` slice of its
//! input (the run ends at ASCII bytes, so it is whole UTF-8), and the
//! writer escapes straight into its output buffer. Integers of at most 15
//! digits are read directly; every other number goes through
//! `str::parse::<f64>`, and both read a number exactly as that does.
//!
//! Exact integers wider than an `f64` mantissa (e.g. `fixpt::Fixed::raw`
//! payloads) must be carried as strings by the schema; [`Json::Num`] is a
//! lossless `f64` only.
//!
//! The module also holds [`stable_digest`] and its [`StableHasher`], the
//! content digest of the artifact store and the proof cache.

use std::fmt::{self, Write as _};
use std::hash::Hasher;

use crate::diag::{plain_run, write_json_str};

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
            text: input,
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
                    // str::parse::<f64>. Writing into a `String` cannot fail.
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        let _ = write!(out, "{}", *n as i64);
                    } else {
                        let _ = write!(out, "{n}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_json_str(out, s),
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
                    write_json_str(out, k);
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
/// No cryptographic strength is claimed. The artifact store keeps each
/// entry's preimage next to its digest and serves a hit only when the
/// stored preimage equals the request's byte for byte, so a collision
/// costs a cache miss, never wrong data. Dependency-free and byte-stable
/// across processes and platforms.
pub fn stable_digest(bytes: &[u8]) -> String {
    let mut hasher = StableHasher::new();
    hasher.write(bytes);
    hasher.hex()
}

/// The 128-bit hasher behind [`stable_digest`]: MurmurHash3's x64
/// 128-bit function with seed 0, so any implementation of it reproduces
/// the digests.
///
/// It consumes 16 bytes per step as two little-endian `u64` words, one
/// per 64-bit lane, and the lanes feed each other after every step.
/// Bytes short of a whole block wait in a buffer, so split writes digest
/// exactly as one write of their concatenation does. Reading the digest
/// ([`StableHasher::hex`] or [`Hasher::finish`]) mixes in the buffered
/// tail and the total length, then fully avalanches both lanes; it does
/// not consume the hasher.
///
/// As a [`Hasher`] it digests any [`std::hash::Hash`] value without
/// rendering it first. Integers reach [`Hasher::write`] in native byte
/// order, so such a digest is stable within one build on one platform;
/// only raw bytes, as [`stable_digest`] feeds them, digest the same
/// everywhere.
#[derive(Debug, Clone)]
pub struct StableHasher {
    h1: u64,
    h2: u64,
    /// The bytes of the current, incomplete block.
    tail: [u8; 16],
    /// How many bytes of `tail` are filled.
    filled: usize,
    /// Bytes written so far.
    len: u64,
}

impl StableHasher {
    const C1: u64 = 0x87c3_7b91_1142_53d5;
    const C2: u64 = 0x4cf5_ad43_2745_937f;

    /// A hasher that has seen no bytes.
    pub fn new() -> StableHasher {
        StableHasher::with_seed(0)
    }

    fn with_seed(seed: u64) -> StableHasher {
        StableHasher {
            h1: seed,
            h2: seed,
            tail: [0; 16],
            filled: 0,
            len: 0,
        }
    }

    fn mix_k1(k1: u64) -> u64 {
        k1.wrapping_mul(Self::C1)
            .rotate_left(31)
            .wrapping_mul(Self::C2)
    }

    fn mix_k2(k2: u64) -> u64 {
        k2.wrapping_mul(Self::C2)
            .rotate_left(33)
            .wrapping_mul(Self::C1)
    }

    /// Consumes one whole block.
    fn block(&mut self, block: &[u8; 16]) {
        let (k1, k2) = words(block);
        self.h1 ^= Self::mix_k1(k1);
        self.h1 = self
            .h1
            .rotate_left(27)
            .wrapping_add(self.h2)
            .wrapping_mul(5)
            .wrapping_add(0x52dc_e729);
        self.h2 ^= Self::mix_k2(k2);
        self.h2 = self
            .h2
            .rotate_left(31)
            .wrapping_add(self.h1)
            .wrapping_mul(5)
            .wrapping_add(0x3849_5ab5);
    }

    /// Both finished lanes: the buffered tail and the length mixed in,
    /// then each lane avalanched.
    fn lanes(&self) -> (u64, u64) {
        // A zero word mixes to zero, so zero-padding the tail is the
        // same as mixing only its filled words.
        let mut tail = [0; 16];
        tail[..self.filled].copy_from_slice(&self.tail[..self.filled]);
        let (k1, k2) = words(&tail);
        let mut h1 = self.h1 ^ Self::mix_k1(k1) ^ self.len;
        let mut h2 = self.h2 ^ Self::mix_k2(k2) ^ self.len;
        h1 = h1.wrapping_add(h2);
        h2 = h2.wrapping_add(h1);
        h1 = avalanche(h1);
        h2 = avalanche(h2);
        h1 = h1.wrapping_add(h2);
        h2 = h2.wrapping_add(h1);
        (h1, h2)
    }

    /// The digest of everything written so far, as 32 lowercase hex
    /// digits: the first lane, then the second.
    pub fn hex(&self) -> String {
        let (h1, h2) = self.lanes();
        format!("{h1:016x}{h2:016x}")
    }
}

/// A block as its two little-endian words.
fn words(block: &[u8; 16]) -> (u64, u64) {
    let (lo, hi) = block.split_at(8);
    (
        u64::from_le_bytes(lo.try_into().expect("eight bytes")),
        u64::from_le_bytes(hi.try_into().expect("eight bytes")),
    )
}

/// MurmurHash3's 64-bit finalizer: every input bit flips each output
/// bit with probability close to one half.
fn avalanche(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^ (k >> 33)
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl Hasher for StableHasher {
    fn write(&mut self, mut bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        if self.filled > 0 {
            let take = bytes.len().min(16 - self.filled);
            self.tail[self.filled..self.filled + take].copy_from_slice(&bytes[..take]);
            self.filled += take;
            bytes = &bytes[take..];
            if self.filled < 16 {
                return;
            }
            let tail = self.tail;
            self.block(&tail);
            self.filled = 0;
        }
        let mut blocks = bytes.chunks_exact(16);
        for block in &mut blocks {
            self.block(block.try_into().expect("sixteen bytes"));
        }
        let rest = blocks.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.filled = rest.len();
    }

    /// The digest's first 64 bits: the first 16 hex digits of
    /// [`StableHasher::hex`].
    fn finish(&self) -> u64 {
        self.lanes().0
    }
}

struct Parser<'a> {
    text: &'a str,
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
            // Copy the whole run up to the next `"`, `\\` or control byte
            // as one slice of the input. The run splits only at those
            // ASCII bytes (UTF-8 continuation bytes are >= 0x80), so both
            // ends lie on character boundaries.
            let start = self.pos;
            self.pos += plain_run(&self.bytes[start..]);
            out.push_str(
                self.text
                    .get(start..self.pos)
                    .ok_or_else(|| self.err("invalid utf-8"))?,
            );
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
                Some(_) => return Err(self.err("control character in string")),
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
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits_at = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let digits = self.pos - digits_at;
        let fraction_or_exponent = matches!(self.peek(), Some(b'.' | b'e' | b'E'));
        if (1..=15).contains(&digits) && !fraction_or_exponent {
            // At most 15 digits stay below 2^53, so the integer is exact
            // in an `f64`, which is what `str::parse::<f64>` reads too
            // (`-0` included).
            let magnitude = self.bytes[digits_at..self.pos]
                .iter()
                .fold(0u64, |acc, &c| acc * 10 + u64::from(c - b'0'))
                as f64;
            return Ok(Json::Num(if negative { -magnitude } else { magnitude }));
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
        self.text[start..self.pos]
            .parse::<f64>()
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

    /// SMHasher's verification value for MurmurHash3's x64 128-bit
    /// function: digest the keys `[]`, `[0]`, `[0, 1]`, …, `[0, …, 254]`
    /// under seeds 256, 255, …, 1, digest the concatenated 16-byte
    /// outputs (each lane little-endian) under seed 0, and read the first
    /// four bytes as a little-endian `u32`.
    #[test]
    fn the_hasher_is_murmur3_x64_128() {
        let key: Vec<u8> = (0..=255).collect();
        let mut outputs = Vec::new();
        for n in 0..256 {
            let mut hasher = StableHasher::with_seed(256 - n as u64);
            hasher.write(&key[..n]);
            let (h1, h2) = hasher.lanes();
            outputs.extend_from_slice(&h1.to_le_bytes());
            outputs.extend_from_slice(&h2.to_le_bytes());
        }
        let mut hasher = StableHasher::new();
        hasher.write(&outputs);
        assert_eq!(hasher.finish() as u32, 0x6384_ba69);
    }

    /// Known answers. Seed 0 maps the empty input to zero; the 43-byte
    /// sentence is MurmurHash3's published x64 128-bit test vector.
    #[test]
    fn known_answers_are_pinned() {
        let fox = b"The quick brown fox jumps over the lazy dog";
        let big: Vec<u8> = (0..30_000u32).map(|i| (i % 251) as u8).collect();
        for (input, digest) in [
            (&b""[..], "00000000000000000000000000000000"),
            (b"abc", "b4963f3f3fad78673ba2744126ca2d52"),
            (&fox[..15], "48137cb864e39216fd7baf64397ad64b"),
            (&fox[..16], "9d1244f4af9b32c43d153c8b2c2a3aa6"),
            (&fox[..17], "91f96376e757e9ae9b44e58dae83eb0c"),
            (&fox[..31], "9b28b5ddd9c4c5090d3c1cb80fe2f964"),
            (&fox[..32], "df6af91bb29bdacf91a341c58df1f3a6"),
            (&fox[..33], "68d135cdab7bb3dde617f8470728bb01"),
            (fox, "e34bbc7bbc071b6c7a433ca9c49a9347"),
            (&big, "e2d0106dcfbe03274a6aa84c1707d736"),
        ] {
            assert_eq!(stable_digest(input), digest, "{} bytes", input.len());
        }
    }

    #[test]
    fn split_writes_digest_as_one_write() {
        let input: Vec<u8> = (0..100u8).map(|i| i.wrapping_mul(37)).collect();
        let mut whole = StableHasher::new();
        whole.write(&input);
        for split in 0..=input.len() {
            let mut pieces = StableHasher::new();
            pieces.write(&input[..split]);
            pieces.write(&input[split..]);
            assert_eq!(pieces.hex(), whole.hex(), "split at {split}");
            assert_eq!(pieces.finish(), whole.finish(), "split at {split}");
        }
        let mut bytewise = StableHasher::new();
        input.iter().for_each(|b| bytewise.write(&[*b]));
        assert_eq!(bytewise.hex(), stable_digest(&input));
        assert_eq!(
            format!("{:016x}", whole.finish()),
            whole.hex()[..16],
            "finish() is the digest's first 64 bits"
        );
    }

    #[test]
    fn one_flipped_bit_changes_about_half_the_digest() {
        let input: Vec<u8> = (0..64).collect();
        let digest = |bytes: &[u8]| u128::from_str_radix(&stable_digest(bytes), 16).unwrap();
        let base = digest(&input);
        for bit in 0..input.len() * 8 {
            let mut flipped = input.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let changed = (digest(&flipped) ^ base).count_ones();
            assert!((40..=88).contains(&changed), "bit {bit} changed {changed}");
        }
    }

    #[test]
    fn strings_read_across_escapes_at_run_edges() {
        for (text, decoded) in [
            (r#""\n""#, "\n"),
            (r#""\"abc\"""#, "\"abc\""),
            (r#""abc\\""#, "abc\\"),
            (r#""\\abc""#, "\\abc"),
            (r#""a\tb\u0001c\/d""#, "a\tb\u{1}c/d"),
            (r#""01234567\n89abcdef\n""#, "01234567\n89abcdef\n"),
            (r#""0123456\"789abcde\\""#, "0123456\"789abcde\\"),
            (r#""é😀x""#, "é😀x"),
        ] {
            assert_eq!(Json::parse(text).unwrap().as_str(), Some(decoded), "{text}");
        }
        assert!(Json::parse("\"a\u{1}b\"").is_err(), "raw control byte");
        assert!(Json::parse("\"abc\\").is_err(), "escape at the end");
        assert!(Json::parse("\"abc").is_err(), "no closing quote");
    }

    #[test]
    fn multi_byte_utf8_runs_are_copied_whole() {
        for s in [
            "µs→",
            "é\"ü",
            "日本語\n\u{1f600}",
            "x\\→\\y",
            "ab\u{7f}cd€efghij→",
        ] {
            let text = Json::str(s).write();
            assert_eq!(Json::parse(&text).unwrap().as_str(), Some(s), "{text}");
            let wrapped = format!("[{text},{{{text}:{text}}}]");
            assert_eq!(Json::parse(&wrapped).unwrap().write(), wrapped);
        }
    }

    #[test]
    fn numbers_read_as_str_parse_reads_them() {
        for text in [
            "0",
            "-0",
            "7",
            "-7",
            "007",
            "-007",
            "123456789012345",
            "-123456789012345",
            "999999999999999",
            "1234567890123456",
            "-9999999999999999",
            "12345678901234567890",
            "1e5",
            "1E+2",
            "-2.5e-3",
            "0.1",
            "1.",
            "00.5",
            "3.0",
        ] {
            let expected: f64 = text.parse().unwrap();
            let Json::Num(got) = Json::parse(text).unwrap() else {
                panic!("{text} is not a number");
            };
            assert_eq!(got.to_bits(), expected.to_bits(), "{text}");
        }
        for text in ["-", "--1", "-a", "1e", "1e+"] {
            assert!(Json::parse(text).is_err(), "{text}");
        }
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
