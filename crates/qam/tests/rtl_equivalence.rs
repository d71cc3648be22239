//! The flow's verification story (Figure 1): generated RTL simulated
//! against the untimed algorithm. Every Table-1 architecture of the QAM
//! decoder is synthesized, turned into an FSMD, and driven cycle by cycle
//! on the same stimulus as the IR interpreter — words and persistent state
//! must agree bit for bit (the architecture changes the schedule, never
//! the values). The compiled simulator that runs the decoder is in turn
//! checked against the map-based reference simulator on the same
//! stimulus, call by call.

use dsp::CFixed;
use fixpt::Fixed;
use hls_ir::{Slot, VarId};
use qam_decoder::{
    build_qam_decoder_ir, table1_architectures, table1_library, DecoderParams, IrDecoder,
    QamDecoderIr, RtlDecoder,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtl::{CompiledSim, Fsmd, RtlSimulator};

/// The cold-start value of the first two forward taps.
fn init_tap() -> dsp::Complex {
    dsp::Complex::new(0.45, -0.05)
}

/// The seeded symbol stream every architecture is driven with: `calls`
/// pairs `(x0, x1)`, uniform in [-0.5, 0.5) per component.
fn symbols(p: &DecoderParams, calls: usize, seed: u64) -> Vec<(CFixed, CFixed)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..calls)
        .map(|_| {
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
            (x0, x1)
        })
        .collect()
}

/// Compares the RTL simulation of one architecture against the IR
/// interpreter. The untimed IR is the specification, but the paper's
/// default merge accepts hazards, so the reference must be the interpreter
/// on the *transformed* function (the RTL implements the transformed
/// semantics, hazards and all).
fn run_arch(arch_index: usize, calls: usize, seed: u64) {
    let p = DecoderParams::default();
    let arch = &table1_architectures()[arch_index];

    let ids = build_qam_decoder_ir(&p);
    let t = hls_core::apply_loop_transforms(&ids.func, &arch.directives);
    let mut reference = IrDecoder::from_ir(p, t.func, &ids);
    let mut hardware = RtlDecoder::try_new(p, &arch.directives).expect("decoder synthesizes");

    for tap in [0, 1] {
        reference.set_ffe_tap(tap, init_tap());
        hardware.set_ffe_tap(tap, init_tap());
    }

    for (call, (x0, x1)) in symbols(&p, calls, seed).into_iter().enumerate() {
        let a = reference.decode(x0, x1).expect("interpreter runs");
        let b = hardware.decode(x0, x1).expect("RTL simulates");
        assert_eq!(a, b, "{}: call {call}", arch.name);
    }

    // Persistent coefficient state agrees bit for bit.
    let (ref_ffe, ..) = reference.state();
    assert_eq!(
        ref_ffe,
        hardware.ffe_taps(),
        "{}: coefficient state diverged",
        arch.name
    );
}

/// The seed of each architecture's symbol stream, by Table-1 index.
const SEEDS: [u64; 4] = [101, 102, 103, 104];

#[test]
fn rtl_matches_interpreter_merged() {
    run_arch(0, 60, SEEDS[0]);
}

#[test]
fn rtl_matches_interpreter_unmerged() {
    run_arch(1, 60, SEEDS[1]);
}

#[test]
fn rtl_matches_interpreter_u2() {
    run_arch(2, 60, SEEDS[2]);
}

#[test]
fn rtl_matches_interpreter_u4() {
    run_arch(3, 60, SEEDS[3]);
}

#[test]
fn rtl_cycle_counts_match_table1() {
    let p = DecoderParams::default();
    let expect = [35u64, 69, 19, 15];
    for (arch, cycles) in table1_architectures().iter().zip(expect) {
        let mut dec = RtlDecoder::try_new(p, &arch.directives).expect("decoder synthesizes");
        let x = CFixed::zero(p.x_format());
        dec.decode(x, x).expect("decodes");
        assert_eq!(dec.cycles(), cycles, "{}", arch.name);
    }
}

#[test]
fn verilog_emits_for_every_architecture() {
    let p = DecoderParams::default();
    let ids = build_qam_decoder_ir(&p);
    for arch in table1_architectures() {
        let r = hls_core::synthesize(&ids.func, &arch.directives, &table1_library())
            .expect("synthesizes");
        let v = rtl::emit_verilog(&Fsmd::from_synthesis(&r));
        assert!(v.contains("module qam_decoder ("), "{}", arch.name);
        assert!(v.contains("output reg  signed [5:0] data"), "{}", arch.name);
        assert!(v.trim_end().ends_with("endmodule"), "{}", arch.name);
        // Every state is encoded.
        assert!(v.matches("localparam S").count() >= r.metrics.segments.len());
    }
}

/// The run_call inputs of one symbol period, as [`RtlDecoder::decode`]
/// builds them.
fn decode_inputs(
    ids: &QamDecoderIr,
    p: &DecoderParams,
    x0: CFixed,
    x1: CFixed,
) -> [(VarId, Slot); 2] {
    let fmt = p.x_format();
    let re = Slot::Array(vec![x0.re().cast(fmt), x1.re().cast(fmt)]);
    let im = Slot::Array(vec![x0.im().cast(fmt), x1.im().cast(fmt)]);
    [(ids.x_in_re, re), (ids.x_in_im, im)]
}

#[test]
fn compiled_matches_reference_after_every_call() {
    // The reference simulator and the compiled one, fed each
    // architecture's seeded stream from the same cold start, agree after
    // every call on the returned slots, the cycle counter and every
    // register and array of the staged function.
    let p = DecoderParams::default();
    let ids = build_qam_decoder_ir(&p);
    let cfmt = p.ffe_c_format();
    let re = Fixed::from_f64(init_tap().re, cfmt);
    let im = Fixed::from_f64(init_tap().im, cfmt);
    for (arch, seed) in table1_architectures().iter().zip(SEEDS) {
        let result = hls_core::synthesize(&ids.func, &arch.directives, &table1_library())
            .expect("synthesizes");
        let fsmd = Fsmd::from_synthesis(&result);
        let mut reference = RtlSimulator::new(fsmd.clone());
        let mut compiled = CompiledSim::from_fsmd(&fsmd);
        for tap in [0, 1] {
            reference.poke_array(ids.ffe_c.0, tap, re);
            reference.poke_array(ids.ffe_c.1, tap, im);
            compiled.poke_array(ids.ffe_c.0, tap, re);
            compiled.poke_array(ids.ffe_c.1, tap, im);
        }
        for (call, (x0, x1)) in symbols(&p, 60, seed).into_iter().enumerate() {
            let inputs = decode_inputs(&ids, &p, x0, x1);
            let a = reference.run_call(&inputs).expect("reference runs");
            let b = compiled.run_call(&inputs).expect("compiled runs");
            let at = format!("{}: call {call}", arch.name);
            assert_eq!(a, b, "{at}: returned slots");
            assert_eq!(reference.cycles(), compiled.cycles(), "{at}: cycles");
            for (id, var) in fsmd.function().iter_vars() {
                match var.len {
                    Some(_) => assert_eq!(
                        reference.array(id),
                        compiled.array(id),
                        "{at}: {}",
                        var.name
                    ),
                    None => assert_eq!(reference.reg(id), compiled.reg(id), "{at}: {}", var.name),
                }
            }
        }
    }
}
