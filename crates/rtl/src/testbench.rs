//! Self-checking Verilog testbench generation.
//!
//! The paper's flow hands generated RTL to an HDL simulator and compares it
//! against the C model. This module closes that loop offline: it captures
//! stimulus/response vectors by running the design through the
//! cycle-accurate [`CompiledSim`], then emits a Verilog testbench that drives the
//! emitted module with the same vectors and `$display`s PASS/FAIL — ready
//! for any external simulator (Icarus, Verilator, ...).

use std::fmt::Write as _;

use fixpt::Fixed;
use hls_ir::{Direction, Slot, VarId};

use crate::compile::CompiledSim;
use crate::fsmd::Fsmd;
use crate::sim::SimError;

/// One recorded transaction: inputs applied, outputs expected.
#[derive(Debug, Clone)]
pub struct TestVector {
    /// Input parameter values (by id), flattened per element.
    pub inputs: Vec<(VarId, Vec<Fixed>)>,
    /// Expected output parameter values after done.
    pub outputs: Vec<(VarId, Vec<Fixed>)>,
}

/// Runs `stimulus` through the simulator, recording one [`TestVector`] per
/// call. The simulator keeps its persistent state across calls, so the
/// vectors capture a stateful session (e.g. an adaptive filter converging).
///
/// # Errors
///
/// Propagates the first simulation error.
pub fn capture_vectors(
    sim: &mut CompiledSim,
    stimulus: &[Vec<(VarId, Slot)>],
) -> Result<Vec<TestVector>, SimError> {
    let func = sim.program().function();
    let observed: Vec<VarId> = func
        .params
        .iter()
        .copied()
        .filter(|&p| func.param_direction(p) != Direction::In)
        .collect();
    let mut vectors = Vec::with_capacity(stimulus.len());
    for call in stimulus {
        let result = sim.run_call(call)?;
        let inputs = call.iter().map(|(id, s)| (*id, slot_elems(s))).collect();
        let outputs = observed
            .iter()
            .map(|p| (*p, slot_elems(&result[p])))
            .collect();
        vectors.push(TestVector { inputs, outputs });
    }
    Ok(vectors)
}

fn slot_elems(s: &Slot) -> Vec<Fixed> {
    match s {
        Slot::Scalar(f) => vec![*f],
        Slot::Array(a) => a.clone(),
    }
}

/// Emits a self-checking testbench module `tb_<name>` for the design,
/// replaying the captured vectors.
pub fn emit_testbench(design: &Fsmd, vectors: &[TestVector]) -> String {
    let func = design.function();
    let mut out = String::new();
    let name = &design.name;
    let half = (design.clock_ns / 2.0).max(1.0);
    let _ = writeln!(
        out,
        "// Self-checking testbench for `{name}` ({} vectors)",
        vectors.len()
    );
    let _ = writeln!(out, "`timescale 1ns/1ps");
    let _ = writeln!(out, "module tb_{name};");
    let _ = writeln!(out, "    reg clk = 0, rst = 1, start = 0;");
    let _ = writeln!(out, "    wire done;");
    let _ = writeln!(out, "    integer errors = 0;");
    // Port nets.
    for p in &design.ports {
        for i in 0..p.elements {
            let pname = port_name(&p.name, p.elements, i);
            match p.direction {
                Direction::In => {
                    let _ = writeln!(out, "    reg signed [{}:0] {pname} = 0;", p.width - 1);
                }
                _ => {
                    let _ = writeln!(out, "    wire signed [{}:0] {pname};", p.width - 1);
                }
            }
        }
    }
    // DUT instantiation.
    let _ = writeln!(out, "\n    {name} dut (");
    let _ = write!(
        out,
        "        .clk(clk), .rst(rst), .start(start), .done(done)"
    );
    for p in &design.ports {
        for i in 0..p.elements {
            let pname = port_name(&p.name, p.elements, i);
            let _ = write!(out, ",\n        .{pname}({pname})");
        }
    }
    let _ = writeln!(out, "\n    );");
    let _ = writeln!(out, "\n    always #{half:.1} clk = ~clk;");
    let _ = writeln!(out, "\n    task check;");
    let _ = writeln!(out, "        input signed [63:0] expected;");
    let _ = writeln!(out, "        input signed [63:0] got;");
    let _ = writeln!(out, "        begin");
    let _ = writeln!(
        out,
        "            if (expected !== got) begin errors = errors + 1; $display(\"FAIL: expected %0d got %0d\", expected, got); end"
    );
    let _ = writeln!(out, "        end");
    let _ = writeln!(out, "    endtask");
    let _ = writeln!(out, "\n    initial begin");
    let _ = writeln!(out, "        repeat (4) @(posedge clk);");
    let _ = writeln!(out, "        rst = 0;");
    for (vi, v) in vectors.iter().enumerate() {
        let _ = writeln!(out, "        // vector {vi}");
        for (id, vals) in &v.inputs {
            let decl = func.var(*id);
            for (i, f) in vals.iter().enumerate() {
                let pname = port_name(&decl.name, decl.len.unwrap_or(1), i);
                let _ = writeln!(out, "        {pname} = {};", f.raw());
            }
        }
        let _ = writeln!(out, "        @(posedge clk); start = 1;");
        let _ = writeln!(out, "        @(posedge clk); start = 0;");
        let _ = writeln!(out, "        wait (done); @(posedge clk);");
        for (id, vals) in &v.outputs {
            let decl = func.var(*id);
            if decl.is_array() {
                continue; // inout arrays stay internal in the emitted module
            }
            for (i, f) in vals.iter().enumerate() {
                let pname = port_name(&decl.name, decl.len.unwrap_or(1), i);
                let _ = writeln!(out, "        check({}, {pname});", f.raw());
            }
        }
    }
    let _ = writeln!(
        out,
        "        if (errors == 0) $display(\"PASS: all {} vectors\"); else $display(\"FAIL: %0d errors\", errors);",
        vectors.len()
    );
    let _ = writeln!(out, "        $finish;");
    let _ = writeln!(out, "    end");
    let _ = writeln!(out, "endmodule");
    out
}

fn port_name(base: &str, elements: usize, i: usize) -> String {
    if elements == 1 {
        base.to_string()
    } else {
        format!("{base}_{i}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_core::{synthesize, Directives, TechLibrary};
    use hls_ir::{CmpOp, Expr, FunctionBuilder, Ty};

    fn design() -> (Fsmd, VarId, VarId) {
        let mut b = FunctionBuilder::new("scale2");
        let x = b.param_array("x", Ty::fixed(8, 4), 4);
        let out = b.param_scalar("out", Ty::fixed(12, 8));
        let acc = b.local("acc", Ty::fixed(12, 8));
        b.assign(acc, Expr::int_const(0));
        b.for_loop("s", 0, CmpOp::Lt, 4, 1, |b, k| {
            b.assign(acc, Expr::add(Expr::var(acc), Expr::load(x, Expr::var(k))));
        });
        b.assign(out, Expr::var(acc));
        let f = b.build();
        let r = synthesize(&f, &Directives::new(10.0), &TechLibrary::asic_100mhz())
            .expect("synthesizes");
        let (x, out) = (r.lowered.func.params[0], r.lowered.func.params[1]);
        (Fsmd::from_synthesis(&r), x, out)
    }

    fn stim(x: VarId, vals: [f64; 4]) -> Vec<(VarId, Slot)> {
        let fmt = fixpt::Format::signed(8, 4);
        vec![(
            x,
            Slot::Array(vals.iter().map(|v| Fixed::from_f64(*v, fmt)).collect()),
        )]
    }

    #[test]
    fn vectors_capture_stateful_session() {
        let (fsmd, x, out) = design();
        let mut sim = CompiledSim::from_fsmd(&fsmd);
        let vectors = capture_vectors(
            &mut sim,
            &[
                stim(x, [1.0, 2.0, 3.0, 0.5]),
                stim(x, [-1.0, 0.25, 0.0, 0.0]),
            ],
        )
        .expect("captures");
        assert_eq!(vectors.len(), 2);
        let out0 = &vectors[0]
            .outputs
            .iter()
            .find(|(id, _)| *id == out)
            .expect("out")
            .1;
        assert_eq!(out0[0].to_f64(), 6.5);
        let out1 = &vectors[1]
            .outputs
            .iter()
            .find(|(id, _)| *id == out)
            .expect("out")
            .1;
        assert_eq!(out1[0].to_f64(), -0.75);
    }

    #[test]
    fn testbench_structure() {
        let (fsmd, x, _) = design();
        let mut sim = CompiledSim::from_fsmd(&fsmd);
        let vectors =
            capture_vectors(&mut sim, &[stim(x, [1.0, 0.0, 0.0, 0.0])]).expect("captures");
        let tb = emit_testbench(&fsmd, &vectors);
        assert!(tb.contains("module tb_scale2;"), "{tb}");
        assert!(tb.contains("scale2 dut ("), "{tb}");
        assert!(tb.contains(".x_0(x_0)"), "{tb}");
        assert!(tb.contains("wait (done);"), "{tb}");
        assert!(tb.contains("check("), "{tb}");
        assert!(tb.contains("$finish;"), "{tb}");
        // Expected value is the mantissa of 1.0 in <12,8> (16 at 4 frac bits).
        assert!(tb.contains("check(16, out);"), "{tb}");
    }

    #[test]
    fn testbench_replays_every_vector() {
        let (fsmd, x, _) = design();
        let mut sim = CompiledSim::from_fsmd(&fsmd);
        let stimulus: Vec<_> = (0..5)
            .map(|i| stim(x, [i as f64 * 0.5, 0.25, 0.0, -0.5]))
            .collect();
        let vectors = capture_vectors(&mut sim, &stimulus).expect("captures");
        let tb = emit_testbench(&fsmd, &vectors);
        assert_eq!(tb.matches("// vector").count(), 5);
        assert_eq!(tb.matches("wait (done);").count(), 5);
    }
}
