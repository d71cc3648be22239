//! Structured diagnostics: the flow's unified error/warning vocabulary.
//!
//! Every layer of the flow — IR validation, directive checking, loop
//! transforms, scheduling, allocation, RTL compilation, equivalence
//! checking — reports problems as [`Diagnostic`]s: a severity, a stable
//! machine-readable code, the pass of origin, a human message, and
//! *source anchors* pointing back at the construct the user wrote (a loop
//! label, a variable name, an operation). A [`Diagnostics`] list collects
//! them in emission order and renders as text or JSON, so the same record
//! drives terminal output, pass traces and CI assertions.

use std::fmt::{self, Write as _};

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational (e.g. a pass summary worth surfacing).
    Note,
    /// The flow continued but the result may differ from the source
    /// semantics (e.g. an accepted merge hazard).
    Warning,
    /// The flow could not produce a result.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => f.write_str("note"),
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// A pointer back at the source construct a diagnostic is about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Anchor {
    /// A labelled loop.
    Loop(String),
    /// A variable or parameter, by name.
    Var(String),
    /// An operation, described (class and width).
    Op(String),
}

impl Anchor {
    /// The anchor's kind as a stable lowercase tag (for JSON).
    pub fn kind(&self) -> &'static str {
        match self {
            Anchor::Loop(_) => "loop",
            Anchor::Var(_) => "var",
            Anchor::Op(_) => "op",
        }
    }

    /// The anchored name.
    pub fn name(&self) -> &str {
        match self {
            Anchor::Loop(s) | Anchor::Var(s) | Anchor::Op(s) => s,
        }
    }
}

impl fmt::Display for Anchor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Anchor::Loop(l) => write!(f, "loop `{l}`"),
            Anchor::Var(v) => write!(f, "variable `{v}`"),
            Anchor::Op(o) => write!(f, "operation {o}"),
        }
    }
}

/// One structured problem report.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Stable machine-readable code (kebab-case, e.g. `unknown-loop`).
    pub code: &'static str,
    /// The pass that emitted it (empty until the stage recorder stamps
    /// it).
    pub pass: String,
    /// Human-readable description.
    pub message: String,
    /// Source constructs the diagnostic is about.
    pub anchors: Vec<Anchor>,
    /// Supplementary free-form notes.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Creates an error diagnostic.
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Error,
            code,
            pass: String::new(),
            message: message.into(),
            anchors: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Creates a warning diagnostic.
    pub fn warning(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, message)
        }
    }

    /// Creates a note diagnostic.
    pub fn note(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Note,
            ..Diagnostic::error(code, message)
        }
    }

    /// Stamps the pass of origin (builder style).
    pub fn in_pass(mut self, pass: impl Into<String>) -> Self {
        self.pass = pass.into();
        self
    }

    /// Attaches a source anchor (builder style).
    pub fn with_anchor(mut self, anchor: Anchor) -> Self {
        self.anchors.push(anchor);
        self
    }

    /// Attaches a note (builder style).
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Renders the diagnostic as one JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!(
            "\"severity\":{}",
            json_str(&self.severity.to_string())
        ));
        s.push_str(&format!(",\"code\":{}", json_str(self.code)));
        if !self.pass.is_empty() {
            s.push_str(&format!(",\"pass\":{}", json_str(&self.pass)));
        }
        s.push_str(&format!(",\"message\":{}", json_str(&self.message)));
        if !self.anchors.is_empty() {
            s.push_str(",\"anchors\":[");
            for (i, a) in self.anchors.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"kind\":{},\"name\":{}}}",
                    json_str(a.kind()),
                    json_str(a.name())
                ));
            }
            s.push(']');
        }
        if !self.notes.is_empty() {
            s.push_str(",\"notes\":[");
            for (i, n) in self.notes.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&json_str(n));
            }
            s.push(']');
        }
        s.push('}');
        s
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if !self.pass.is_empty() {
            write!(f, " ({})", self.pass)?;
        }
        write!(f, ": {}", self.message)?;
        for a in &self.anchors {
            write!(f, " [{a}]")?;
        }
        for n in &self.notes {
            write!(f, "\n  note: {n}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Diagnostic {}

/// An ordered collection of diagnostics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty collection.
    pub fn new() -> Self {
        Diagnostics::default()
    }

    /// Appends one diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.items.push(d);
    }

    /// Appends every diagnostic of another collection.
    pub fn extend(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
    }

    /// All diagnostics, in emission order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter()
    }

    /// Mutable access to all diagnostics, in emission order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Diagnostic> {
        self.items.iter_mut()
    }

    /// Number of diagnostics.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when no diagnostics were recorded.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// `true` when any diagnostic is an error.
    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Error)
    }

    /// The error diagnostics only.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter().filter(|d| d.severity == Severity::Error)
    }

    /// The first diagnostic with the given code, if any.
    pub fn find(&self, code: &str) -> Option<&Diagnostic> {
        self.items.iter().find(|d| d.code == code)
    }

    /// Renders all diagnostics as a JSON array.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[");
        for (i, d) in self.items.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&d.to_json());
        }
        s.push(']');
        s
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.items.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl From<Diagnostic> for Diagnostics {
    fn from(d: Diagnostic) -> Self {
        Diagnostics { items: vec![d] }
    }
}

impl FromIterator<Diagnostic> for Diagnostics {
    fn from_iter<T: IntoIterator<Item = Diagnostic>>(iter: T) -> Self {
        Diagnostics {
            items: iter.into_iter().collect(),
        }
    }
}

/// Escapes a string as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_str(&mut out, s);
    out
}

/// Appends `s` to `out` as a JSON string literal. Runs of bytes that
/// need no escape are copied whole: emitted Verilog is tens of kilobytes
/// per artifact, and every store write and service reply escapes it.
pub(crate) fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut run = 0;
    loop {
        // Every escaped character is ASCII, so `run..end` always slices
        // on a character boundary.
        let end = run + plain_run(&bytes[run..]);
        out.push_str(&s[run..end]);
        let Some(&b) = bytes.get(end) else { break };
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            // Writing into a `String` cannot fail.
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = end + 1;
    }
    out.push('"');
}

/// The length of the leading run of `bytes` that a JSON string carries
/// unescaped: everything before the first `"`, `\` or control byte
/// (below 0x20). The JSON writer copies such runs whole and the reader
/// slices them whole. Eight bytes are tested per step; the lowest
/// flagged byte of a word is always a true match, so the first match is
/// exact.
pub(crate) fn plain_run(bytes: &[u8]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let x = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        let quote = x ^ (ONES * u64::from(b'"'));
        let backslash = x ^ (ONES * u64::from(b'\\'));
        let zero_byte = |v: u64| v.wrapping_sub(ONES) & !v;
        let special =
            (zero_byte(quote) | zero_byte(backslash) | x.wrapping_sub(ONES * 0x20) & !x) & HIGHS;
        if special != 0 {
            return at + special.trailing_zeros() as usize / 8;
        }
        at += 8;
    }
    at + words
        .remainder()
        .iter()
        .position(|&b| b < 0x20 || b == b'"' || b == b'\\')
        .unwrap_or(words.remainder().len())
}

#[cfg(test)]
mod tests {
    use super::{json_str, plain_run};

    #[test]
    fn plain_run_stops_at_the_first_byte_to_escape() {
        // Every special byte at every offset of the first three words,
        // behind fillers that sit next to the specials' values and are
        // followed by bytes that set a word-wide test's borrow.
        for special in [b'"', b'\\', 0x00, 0x01, 0x1f] {
            for filler in [b' ', b'!', b'#', b'[', b']', 0x7f, 0x80, 0xc3, 0xff] {
                for at in 0..24 {
                    let mut bytes = vec![filler; at];
                    bytes.push(special);
                    bytes.extend_from_slice(&[0x00, 0x01, b'"', filler]);
                    assert_eq!(
                        plain_run(&bytes),
                        at,
                        "{special:#x} after {at} x {filler:#x}"
                    );
                }
                assert_eq!(plain_run(&[filler; 19]), 19, "no special in {filler:#x}");
            }
        }
    }

    #[test]
    fn json_str_escapes_exactly_the_json_specials() {
        assert_eq!(json_str(""), r#""""#);
        assert_eq!(json_str("plain"), r#""plain""#);
        assert_eq!(
            json_str("a\"b\\c\nd\re\tf\u{1}g\u{1f}"),
            r#""a\"b\\c\nd\re\tf\u0001g\u001f""#
        );
        // Multi-byte characters pass through whole, escapes around them.
        assert_eq!(json_str("µs→\"é\""), r#""µs→\"é\"""#);
    }
}
