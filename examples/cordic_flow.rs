//! A second workload through the flow: a fixed-point CORDIC rotator
//! (the shift-add block behind the carrier recovery the paper's receiver
//! omits). The staged kernel is *generated* as C-like source — each stage
//! has its own constant shift, which is exactly why fixed-iteration CORDIC
//! hardware is written unrolled (a rolled version would need a barrel
//! shifter on every path). Synthesized, RTL-verified against the
//! interpreter, and numerically checked against `dsp::Cordic`.
//!
//! Run with: `cargo run --release --example cordic_flow`

use wireless_hls::dsp::{Complex, Cordic};
use wireless_hls::fixpt::{Fixed, Format};
use wireless_hls::hls_core::{synthesize, Directives, TechLibrary};
use wireless_hls::hls_ir::{parse_function, Interpreter, Slot};
use wireless_hls::rtl::{CompiledSim, Fsmd};

const STAGES: u32 = 8;

/// Emits the staged CORDIC kernel with exact binary atan constants
/// (quantized to 14 fractional bits — every binary fraction has a finite
/// decimal form, so the front-end parses them exactly).
fn generate_source() -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "void cordic{STAGES}(sc_fixed<16,2> x_in, sc_fixed<16,2> y_in, sc_fixed<16,2> z_in,"
    );
    let _ = writeln!(
        s,
        "             sc_fixed<16,2> *x_out, sc_fixed<16,2> *y_out) {{"
    );
    let _ = writeln!(s, "    sc_fixed<16,2> x0 = x_in;");
    let _ = writeln!(s, "    sc_fixed<16,2> y0 = y_in;");
    let _ = writeln!(s, "    sc_fixed<16,2> z0 = z_in;");
    for i in 0..STAGES {
        let atan = (2f64.powi(-(i as i32))).atan();
        let quantized = (atan * 2f64.powi(14)).round() / 2f64.powi(14);
        let (p, n) = (i + 1, i);
        let _ = writeln!(s, "    sc_fixed<16,2> x{p} = 0;");
        let _ = writeln!(s, "    sc_fixed<16,2> y{p} = 0;");
        let _ = writeln!(s, "    sc_fixed<16,2> z{p} = 0;");
        let _ = writeln!(s, "    if (z{n} >= 0) {{");
        let _ = writeln!(s, "        x{p} = x{n} - (y{n} >> {i});");
        let _ = writeln!(s, "        y{p} = y{n} + (x{n} >> {i});");
        let _ = writeln!(s, "        z{p} = z{n} - {quantized};");
        let _ = writeln!(s, "    }} else {{");
        let _ = writeln!(s, "        x{p} = x{n} + (y{n} >> {i});");
        let _ = writeln!(s, "        y{p} = y{n} - (x{n} >> {i});");
        let _ = writeln!(s, "        z{p} = z{n} + {quantized};");
        let _ = writeln!(s, "    }}");
    }
    let _ = writeln!(s, "    *x_out = x{STAGES};");
    let _ = writeln!(s, "    *y_out = y{STAGES};");
    let _ = writeln!(s, "}}");
    s
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let src = generate_source();
    let f = parse_function(&src)?;
    println!(
        "generated and parsed `{}` ({} source lines)",
        f.name,
        src.lines().count()
    );

    // Two clocks: at 10 ns several stages chain per cycle; at 4 ns fewer do.
    let lib = TechLibrary::asic_100mhz();
    for clock in [10.0, 4.0] {
        let r = synthesize(&f, &Directives::new(clock), &lib)?;
        println!(
            "clock {:>4.0} ns: {} cycles = {:.0} ns, area {:.0}",
            clock, r.metrics.latency_cycles, r.metrics.latency_ns, r.metrics.area
        );
    }

    // RTL equivalence and numeric accuracy.
    let r = synthesize(&f, &Directives::new(10.0), &lib)?;
    let fmt = Format::signed(16, 2);
    let params = r.lowered.func.params.clone();
    let (x_in, y_in, z_in, x_out, y_out) = (params[0], params[1], params[2], params[3], params[4]);

    let v = Complex::new(0.75, -0.25);
    let angle = 0.5f64;
    let inputs = vec![
        (x_in, Slot::Scalar(Fixed::from_f64(v.re, fmt))),
        (y_in, Slot::Scalar(Fixed::from_f64(v.im, fmt))),
        (z_in, Slot::Scalar(Fixed::from_f64(angle, fmt))),
    ];
    let mut interp = Interpreter::new(r.transformed.clone());
    let mut sim = CompiledSim::from_fsmd(&Fsmd::from_synthesis(&r));
    let want = interp.call(&inputs).map_err(|e| format!("interp: {e}"))?;
    let got = sim.run_call(&inputs).map_err(|e| format!("rtl: {e}"))?;
    for (name, id) in [("x_out", x_out), ("y_out", y_out)] {
        let a = want[&id].scalar().expect("scalar");
        let b = got[&id].scalar().expect("scalar");
        assert_eq!(a.raw(), b.raw(), "{name} diverged");
        println!("{name}: interpreter == RTL == {:.6}", a.to_f64());
    }

    // Against the float reference: the kernel output carries the CORDIC
    // gain; compensate and compare.
    let reference = Cordic::new(STAGES).rotate(v, angle);
    let gain = Cordic::new(STAGES).gain();
    let hw = Complex::new(
        want[&x_out].scalar().expect("scalar").to_f64() / gain,
        want[&y_out].scalar().expect("scalar").to_f64() / gain,
    );
    let err = (hw - reference).abs();
    println!(
        "vs float CORDIC: hw ({:.5}, {:.5}) ref ({:.5}, {:.5}) |err| = {err:.5}",
        hw.re, hw.im, reference.re, reference.im
    );
    assert!(err < 0.02, "fixed-point kernel within 8-stage accuracy");
    Ok(())
}
