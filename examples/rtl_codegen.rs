//! Generates the Verilog for the paper's merged decoder architecture and
//! cross-checks the FSMD simulation against the untimed algorithm on a few
//! symbols — the verification loop of the paper's Figure 1.
//!
//! Run with: `cargo run --release --example rtl_codegen`

use wireless_hls::dsp::CFixed;
use wireless_hls::fixpt::Fixed;
use wireless_hls::hls_core::{apply_loop_transforms, synthesize};
use wireless_hls::hls_ir::Slot;
use wireless_hls::qam_decoder::{
    build_qam_decoder_ir, table1_architectures, table1_library, DecoderParams, IrDecoder,
};
use wireless_hls::rtl::{
    capture_vectors, emit_testbench, emit_verilog, CompiledSim, Fsmd, SimProgram, VcdRecorder,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let p = DecoderParams::default();
    let ids = build_qam_decoder_ir(&p);
    let arch = &table1_architectures()[0]; // merged, 35 cycles
    let r = synthesize(&ids.func, &arch.directives, &table1_library())?;

    let fsmd = Fsmd::from_synthesis(&r);
    let verilog = emit_verilog(&fsmd);
    let path = std::env::temp_dir().join("qam_decoder.v");
    std::fs::write(&path, &verilog)?;
    println!(
        "wrote {} ({} lines, {} FSM states, {} cast functions)",
        path.display(),
        verilog.lines().count(),
        fsmd.state_count(),
        verilog.matches("endfunction").count()
    );

    // Drive RTL and the untimed reference on the same stimulus, recording
    // waveforms as we go.
    let t = apply_loop_transforms(&ids.func, &arch.directives);
    let mut reference = IrDecoder::from_ir(p, t.func, &ids);
    let program = SimProgram::compile(&fsmd);
    let mut sim = CompiledSim::new(program.clone());
    let mut waves = VcdRecorder::new(&sim);
    waves.snapshot(&sim);
    let fmt = p.x_format();
    let mut all_match = true;
    for step in 0..10 {
        let v = (step as f64 - 5.0) / 16.0;
        let x0 = CFixed::from_f64(v, -v, fmt);
        let x1 = CFixed::from_f64(v / 2.0, v / 4.0, fmt);
        let expected = reference.decode(x0, x1)?;
        let re = Slot::Array(vec![x0.re(), x1.re()]);
        let im = Slot::Array(vec![x0.im(), x1.im()]);
        let out = sim
            .run_call(&[(ids.x_in_re, re), (ids.x_in_im, im)])
            .map_err(|e| format!("rtl sim: {e}"))?;
        let got = out[&ids.data]
            .scalar()
            .map(|f: Fixed| f.to_i64())
            .unwrap_or(-1) as u8;
        println!("call {step}: untimed={expected:2} rtl={got:2}");
        all_match &= expected == got;
        waves.snapshot(&sim);
    }
    let vcd_path = std::env::temp_dir().join("qam_decoder.vcd");
    std::fs::write(&vcd_path, waves.to_vcd("qam_decoder"))?;
    println!("wrote {} ({} snapshots)", vcd_path.display(), waves.len());

    // And a self-checking testbench replaying captured vectors.
    let mut tb_sim = CompiledSim::new(program);
    let fmt2 = p.x_format();
    let mk = |v: f64| {
        use wireless_hls::fixpt::Fixed as F;
        Slot::Array(vec![F::from_f64(v, fmt2), F::from_f64(-v, fmt2)])
    };
    let stimulus: Vec<Vec<(_, Slot)>> = (0..4)
        .map(|i| {
            vec![
                (ids.x_in_re, mk(i as f64 / 16.0)),
                (ids.x_in_im, mk(-(i as f64) / 32.0)),
            ]
        })
        .collect();
    let vectors = capture_vectors(&mut tb_sim, &stimulus).map_err(|e| format!("capture: {e}"))?;
    let tb = emit_testbench(&fsmd, &vectors);
    let tb_path = std::env::temp_dir().join("tb_qam_decoder.v");
    std::fs::write(&tb_path, tb)?;
    println!(
        "wrote {} (self-checking, {} vectors)",
        tb_path.display(),
        vectors.len()
    );
    println!(
        "\n{} ({} RTL cycles total = {} per call)",
        if all_match {
            "RTL matches the untimed algorithm bit for bit"
        } else {
            "MISMATCH"
        },
        sim.cycles(),
        sim.cycles() / 10
    );
    Ok(())
}
