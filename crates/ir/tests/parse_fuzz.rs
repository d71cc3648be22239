//! Robustness: the front-end must reject arbitrary garbage with an error —
//! never panic — and round-trip structured programs it generated itself.

use hls_ir::parse_function;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary printable input never panics the parser.
    #[test]
    fn arbitrary_text_never_panics(s in "[ -~\n]{0,160}") {
        let _ = parse_function(&s);
    }

    /// Text mixing ASCII with non-ASCII whitespace, letters and CJK never
    /// panics: the lexer walks bytes and slices the source at byte offsets.
    #[test]
    fn non_ascii_text_never_panics(
        s in "[a-z_0-9 .;=+*/#<>(){}\n\u{b}\u{85}\u{a0}\u{2028}\u{3000}éßΩ中文字]{0,160}"
    ) {
        let _ = parse_function(&s);
        let _ = parse_function(&format!("void f(int8 *o) {{ *o = 1; }}{s}"));
    }

    /// Token-shaped garbage (valid lexemes, random order) never panics.
    #[test]
    fn token_soup_never_panics(parts in prop::collection::vec(
        prop::sample::select(vec![
            "void", "f", "(", ")", "{", "}", "[", "]", "int8", "sc_fixed",
            "<", ">", ",", ";", ":", "for", "if", "else", "static", "const",
            "=", "+=", "-=", "+", "-", "*", ">>", "<<", "?", "0", "7", "1.5",
            "x", "y", "k", "sign", "==", "<=", ">=", "++", "--", "999999999999",
        ]),
        0..48,
    )) {
        let src = parts.join(" ");
        let _ = parse_function(&src);
    }

    /// Generated well-formed accumulate programs always parse, validate and
    /// carry the right loop structure.
    #[test]
    fn generated_programs_roundtrip(n in 1i64..32, w in 4u32..16, shift in 0i64..8) {
        let src = format!(
            "void g(sc_fixed<{w},2> x[{n}], sc_fixed<20,8> *out) {{
                sc_fixed<20,8> acc = 0;
                l: for (int k = 0; k < {n}; k++) {{
                    acc += x[k] >> {shift};
                }}
                *out = acc;
            }}"
        );
        let f = parse_function(&src).expect("well-formed program parses");
        prop_assert!(hls_ir::validate(&f).is_empty());
        prop_assert_eq!(f.find_loop("l").expect("loop").trip_count(), n as usize);
    }
}
