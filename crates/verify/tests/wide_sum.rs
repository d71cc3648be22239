//! Exact sums wider than the 64-bit format limit must fail closed, never
//! panic. Proving a 49-tap FIR of 8-bit samples and 8-bit coefficients
//! with its MAC loop unrolled drives the prover's lossless-cast
//! elimination into an accumulation chain whose exact format outgrows
//! `fixpt::MAX_WIDTH`.

use hls_core::{synthesize, Directives, MergePolicy, TechLibrary};
use hls_ir::parse_function;
use hls_verify::{prove_equiv, verify_equiv, ProveVerdict};
use rtl::Fsmd;

fn fir_source(taps: u32, width: u32, coef_width: u32) -> String {
    format!(
        "void fir{taps}(sc_fixed<{width},0> x_in, sc_fixed<{coef_width},0> c[{taps}], sc_fixed<24,7> *y) {{\n\
         \x20   static sc_fixed<{width},0> d[{taps}];\n\
         \x20   shift: for (int k = {last}; k > 0; k--) {{\n\
         \x20       d[k] = d[k - 1];\n\
         \x20   }}\n\
         \x20   d[0] = x_in;\n\
         \x20   sc_fixed<24,7> acc = 0;\n\
         \x20   mac: for (int k = 0; k < {taps}; k++) {{\n\
         \x20       acc += d[k] * c[k];\n\
         \x20   }}\n\
         \x20   *y = acc;\n\
         }}\n",
        last = taps - 1
    )
}

fn fir49_fsmd(mac_unroll: u32) -> Fsmd {
    let f = parse_function(&fir_source(49, 8, 8)).expect("parses");
    let d = Directives::new(10.0)
        .merge_policy(MergePolicy::AllowHazards)
        .grid_point(&[("mac", mac_unroll)], &[]);
    let r = synthesize(&f, &d, &TechLibrary::asic_100mhz()).expect("synthesizes");
    Fsmd::from_synthesis(&r)
}

#[test]
fn wide_fir_accumulation_fails_closed_instead_of_panicking() {
    let fsmd = fir49_fsmd(2);
    // The prover gives up on the overflowing exact sum...
    match prove_equiv(&fsmd) {
        ProveVerdict::Unknown { reason, .. } => {
            assert!(reason.contains("64-bit format limit"), "{reason}")
        }
        other => panic!("expected an inconclusive proof, got {other:?}"),
    }
    // ...and the full check falls back to fuzzing, which finds the
    // correct design correct.
    let report = verify_equiv(&fsmd);
    assert!(report.passed(), "{}", report.describe());
}

#[test]
fn the_rolled_fir_still_proves() {
    // Without unrolling every iteration casts back to the 24-bit
    // accumulator, so no exact format outgrows the limit.
    assert!(prove_equiv(&fir49_fsmd(1)).is_proved());
}
