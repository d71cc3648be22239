//! The decoder as C-like *source text*, consumed by the flow's front-end
//! parser — the closest this reproduction comes to the paper's literal
//! workflow (Figure 4 is C++ source, not an API).
//!
//! Complex arithmetic is written out over re/im scalars (as the eventual
//! hardware is), `sign_conj` becomes the ternary sign-select idiom, and
//! mu = 2⁻⁸ appears as the exact decimal it is.

use hls_ir::{parse_function, ParseError, VarId};

use crate::ir::QamDecoderIr;

/// Figure 4, as text (the paper's widths: everything 10-bit, mu = 2⁻⁸).
pub const QAM_DECODER_SOURCE: &str = include_str!("qam_decoder.cpp");

/// Parses [`QAM_DECODER_SOURCE`] and resolves the handles a harness needs.
///
/// # Errors
///
/// Returns the front-end's [`ParseError`] (which would indicate the shipped
/// source and parser have diverged — covered by tests).
pub fn parse_qam_decoder() -> Result<QamDecoderIr, ParseError> {
    let func = parse_function(QAM_DECODER_SOURCE)?;
    let by_name = |name: &str| -> VarId {
        func.iter_vars()
            .find(|(_, v)| v.name == name)
            .map(|(id, _)| id)
            .unwrap_or_else(|| panic!("variable `{name}` missing from parsed decoder"))
    };
    Ok(QamDecoderIr {
        x_in_re: by_name("x_in_re"),
        x_in_im: by_name("x_in_im"),
        data: by_name("data"),
        ffe_c: (by_name("ffe_c_re"), by_name("ffe_c_im")),
        dfe_c: (by_name("dfe_c_re"), by_name("dfe_c_im")),
        x: (by_name("x_re"), by_name("x_im")),
        sv: (by_name("sv_re"), by_name("sv_im")),
        func,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DecoderParams;
    use dsp::CFixed;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn source_parses_and_validates() {
        let ir = parse_qam_decoder().expect("parses");
        let problems = hls_ir::validate(&ir.func);
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(
            ir.func.loop_labels(),
            vec![
                "ffe",
                "dfe",
                "ffe_adapt",
                "dfe_adapt",
                "ffe_shift",
                "dfe_shift"
            ]
        );
        let trips: Vec<usize> = ir.func.loops().iter().map(|l| l.trip_count()).collect();
        assert_eq!(trips, vec![8, 16, 8, 16, 3, 15]);
    }

    #[test]
    fn parsed_source_is_bit_identical_to_the_fixed_port() {
        let p = DecoderParams::default();
        let parsed = parse_qam_decoder().expect("parses");
        let mut from_source = crate::harness::IrDecoder::from_ir(p, parsed.func.clone(), &parsed);
        let mut fixed = crate::QamDecoderFixed::new(p);
        let init = dsp::Complex::new(0.4, -0.1);
        from_source.set_ffe_tap(0, init);
        from_source.set_ffe_tap(1, init);
        fixed.set_ffe_tap(0, init);
        fixed.set_ffe_tap(1, init);
        let mut rng = StdRng::seed_from_u64(77);
        for call in 0..200 {
            let x0 = CFixed::from_f64(
                rng.gen_range(-0.5..0.5),
                rng.gen_range(-0.5..0.5),
                p.x_format(),
            );
            let x1 = CFixed::from_f64(
                rng.gen_range(-0.5..0.5),
                rng.gen_range(-0.5..0.5),
                p.x_format(),
            );
            let a = fixed.decode([x0, x1]).data;
            let b = from_source.decode(x0, x1).expect("parsed IR executes");
            assert_eq!(a, b, "call {call}");
        }
    }

    #[test]
    fn parsed_source_reproduces_table1() {
        let parsed = parse_qam_decoder().expect("parses");
        let lib = crate::table1_library();
        let expect = [35u64, 69, 19, 15];
        for (arch, cycles) in crate::table1_architectures().iter().zip(expect) {
            let r =
                hls_core::synthesize(&parsed.func, &arch.directives, &lib).expect("synthesizes");
            assert_eq!(
                r.metrics.latency_cycles, cycles,
                "{} (from C source)",
                arch.name
            );
        }
    }
}
