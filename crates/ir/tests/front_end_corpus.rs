//! The front end's answers, pinned over a seeded corpus of mutated sources.
//!
//! Every case is a real program (the Figure-4 decoder, a FIR shaped like
//! the benchmark's, or one of the parser's unit-test sources) with one to
//! three random edits: deletions, adjacent swaps, printable-ASCII
//! insertions, and insertions from a list of lexemes that covers every
//! operator, comment and pragma openers, non-ASCII whitespace and letters,
//! an out-of-range integer, and inexact and 2^-30 decimals. A case's answer
//! is the parsed `Function` (its canonical `Display` plus its `Debug`, which
//! carries every variable's name, type and length and every constant's
//! format) or the error's line and message. The golden file holds one short
//! digest of each answer, one case per line, so a drift names its case.
//!
//! To regenerate after an intentional front-end change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p hls-ir --test front_end_corpus
//! ```

use std::path::PathBuf;

use hls_ir::parse_function;

/// Number of mutated cases in the corpus.
const CASES: usize = 10_000;

const DECODER: &str = include_str!("../../qam/src/qam_decoder.cpp");

/// A 16-tap FIR in the shape of the benchmark's FIR family.
const FIR: &str = "void fir16(sc_fixed<10,0> x_in, sc_fixed<12,0> c[16], sc_fixed<24,7> *y) {
    static sc_fixed<10,0> d[16];
    shift: for (int k = 15; k > 0; k--) {
        d[k] = d[k - 1];
    }
    d[0] = x_in;
    sc_fixed<24,7> acc = 0;
    mac: for (int k = 0; k < 16; k++) {
        acc += d[k] * c[k];
    }
    *y = acc;
}
";

/// The sources of the parser's unit tests and of its doc example.
const UNIT_SOURCES: [&str; 11] = [
    "
    void sum(sc_fixed<10,2> x[8], sc_fixed<16,8> *out) {
        sc_fixed<16,8> acc = 0;
        sum_loop: for (int k = 0; k < 8; k++) {
            acc += x[k];
        }
        *out = acc;
    }
",
    "
    #pragma design top
    void qd(sc_fixed<10,0> x_in[2], uint6 *data) {
        const int n = 4;
        static sc_fixed<10,0> c[4];
        sc_fixed<12,2> acc = 0;
        mac: for (int k = 0; k < n; k++) {
            acc += x_in[0] * c[k];
        }
        *data = acc;
    }
",
    "
    void scale(sc_fixed<10,2> x[4], sc_fixed<12,4> *out) {
        sc_fixed<12,4> acc = 0;
        s: for (int k = 0; k < 4; k++) {
            acc += x[k] * 0.5;
        }
        *out = acc;
    }
",
    "
    void q(sc_fixed<12,4> y, sc_fixed<3,0> *r) {
        *r = (sc_fixed<3,0,SC_RND_ZERO,SC_SAT>)(y - 0.0625);
    }
",
    "
    void sh(int8 a[8]) {
        up: for (int k = 4; k >= 0; k -= 2) {
            a[k + 3] = a[k + 1];
            a[k + 2] = a[k];
        }
    }
",
    "
    void s(sc_fixed<10,2> e, sc_fixed<10,2> x, sc_fixed<10,2> *out) {
        *out = x > 0 ? e : (x < 0 ? -e : 0) ;
        sc_fixed<2,2> sg = sign(x);
    }
",
    "void t(int17 a, uint6 *b) { *b = a; }",
    "void f(int8 a) {\n  b = 1;\n}",
    "void f(int8 n, int8 *o) { l: for (int k = 0; k < n; k++) { *o = k; } }",
    "void f(sc_fixed<10,2> *o) { *o = 0.1; }",
    "void f(sc_fixed<12,2> x, sc_fixed<12,2> *o) { *o = (x >> 8) + (x << 1); }",
];

/// Lexemes inserted whole: every operator the lexer knows and the
/// characters it rejects, comment and pragma openers, characters that are
/// whitespace only outside ASCII or only to `char`, a non-ASCII letter,
/// out-of-range integers, and inexact, exact and 2^-30 decimals.
const LEXEMES: [&str; 64] = [
    "<<=",
    ">>=",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "+=",
    "-=",
    "*=",
    "++",
    "--",
    "<<",
    ">>",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    "<",
    ">",
    ",",
    ";",
    ":",
    "?",
    "=",
    "+",
    "-",
    "*",
    "/",
    "!",
    "&",
    "|",
    "%",
    "@",
    ".",
    "/*",
    "*/",
    "//",
    "#",
    "\n",
    "\x0b",
    "\u{a0}",
    "\u{2028}",
    "é",
    "99999999999999999999",
    "18446744073709551620",
    "9223372036854775808",
    "9223372036854775807",
    "0.1",
    "0.5000000000001",
    "0.06250000000000000001",
    "0.0000000001",
    "0.000000000931322574615478515625",
    "3.000000000931322574615478515625",
    "0.0625",
    "1.5",
    "1.",
    " int ",
    " for ",
    " const int n = 3; ",
    " static int8 z[4]; ",
];

/// SplitMix64: a small, fixed generator, so the corpus never depends on a
/// library's sequence.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The source of case `i`: a base program with one to three edits.
fn case_source(i: usize) -> String {
    let mut rng = SplitMix64(0x00c0_ffee ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let base = match rng.below(4) {
        0 => DECODER,
        1 => FIR,
        _ => UNIT_SOURCES[rng.below(UNIT_SOURCES.len())],
    };
    let mut chars: Vec<char> = base.chars().collect();
    for _ in 0..=rng.below(3) {
        let at = rng.below(chars.len() + 1);
        match rng.below(5) {
            0 if at < chars.len() => {
                let end = (at + 1 + rng.below(3)).min(chars.len());
                chars.drain(at..end);
            }
            1 if at + 1 < chars.len() => chars.swap(at, at + 1),
            2 => {
                let c = match rng.below(96) {
                    95 => '\n',
                    k => char::from(b' ' + k as u8),
                };
                chars.insert(at, c);
            }
            _ => {
                let lexeme = LEXEMES[rng.below(LEXEMES.len())];
                chars.splice(at..at, lexeme.chars());
            }
        }
    }
    chars.into_iter().collect()
}

/// What the front end answers for `src`.
fn answer(src: &str) -> String {
    match parse_function(src) {
        Ok(f) => format!("ok\n{f}\n{f:?}"),
        Err(e) => format!("error on line {}: {}", e.line, e.message),
    }
}

fn digest(answer: &str) -> String {
    fingerprint(answer.as_bytes())[..8].to_string()
}

/// The golden file's fingerprint of one answer: two FNV-1a-64 lanes with
/// distinct offset bases, one byte per step. It is frozen here, apart
/// from the store's digest, so that the golden file outlives changes to
/// that digest.
fn fingerprint(bytes: &[u8]) -> String {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let (mut a, mut b) = (0xcbf2_9ce4_8422_2325_u64, 0x6c62_272e_07bb_0142_u64);
    for &byte in bytes {
        a = (a ^ u64::from(byte)).wrapping_mul(PRIME);
        b = (b ^ u64::from(byte)).wrapping_mul(PRIME).rotate_left(1);
    }
    format!("{a:016x}{b:016x}")
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/front_end_corpus.txt")
}

#[test]
fn mutated_sources_answer_as_pinned() {
    let mut accepted = 0;
    let actual: Vec<String> = (0..CASES)
        .map(|i| {
            let answer = answer(&case_source(i));
            accepted += usize::from(answer.starts_with("ok"));
            digest(&answer)
        })
        .collect();
    // The corpus is only a check if it exercises both kinds of answer.
    assert!(
        (CASES / 50..CASES / 2).contains(&accepted),
        "{accepted} of {CASES} cases accepted"
    );
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, actual.join("\n") + "\n").expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e} (run with UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    let expected: Vec<&str> = expected.lines().collect();
    assert_eq!(
        expected.len(),
        CASES,
        "golden holds a different number of cases"
    );
    let drifted: Vec<usize> = (0..CASES).filter(|&i| expected[i] != actual[i]).collect();
    let shown: Vec<String> = drifted
        .iter()
        .take(5)
        .map(|&i| {
            let src = case_source(i);
            format!("case {i}: {src:?}\n  now answers: {}", answer(&src))
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "{} of {CASES} cases drifted from the golden (run with UPDATE_GOLDEN=1 if intentional): \
         {drifted:?}\n{}",
        drifted.len(),
        shown.join("\n")
    );
}
