//! The RTL back end's stages, appended to a synthesis run.
//!
//! [`compile_traced`] carries a design from untimed IR to Verilog in one
//! call chain: `hls_core::synthesize_traced` runs the eight synthesis
//! stages, then `build-fsmd`, `compile-sim` and `emit-verilog` run in
//! order, each recorded into the same [`PipelineRun`] through
//! [`PipelineRun::stage`], so one pass trace covers every stage. None of
//! the three changes what the trace measures, so they carry the
//! post-`metrics` stats instead of walking the design again.

use std::time::Instant;

use hls_core::{PipelineConfig, PipelineRun, SynthesisError};
use hls_ir::Function;

use crate::compile::SimProgram;
use crate::fsmd::Fsmd;
use crate::verilog::emit_verilog_with_diagnostics;

/// Everything the full front-to-back compile produces.
pub struct RtlArtifacts {
    /// The synthesis-level result (schedules, allocation, metrics).
    pub synthesis: hls_core::SynthesisResult,
    /// The FSMD netlist.
    pub fsmd: Fsmd,
    /// The dense simulation program.
    pub program: SimProgram,
    /// The emitted Verilog source.
    pub verilog: String,
}

/// Compiles `func` all the way to RTL — the synthesis stages, then the
/// FSMD, its dense simulation program and its Verilog — returning both
/// the artifacts and the full observability record.
pub fn compile_traced(
    func: &Function,
    directives: &hls_core::Directives,
    lib: &hls_core::TechLibrary,
    config: &PipelineConfig,
) -> (Result<RtlArtifacts, SynthesisError>, PipelineRun) {
    let start = Instant::now();
    let (synthesis, mut run) = hls_core::synthesize_traced(func, directives, lib, config);
    let result = synthesis.and_then(|synthesis| {
        let fsmd = run.stage(config, "build-fsmd", |_| {
            Ok(Fsmd::from_synthesis(&synthesis))
        })?;
        let program = run.stage(config, "compile-sim", |_| Ok(SimProgram::compile(&fsmd)))?;
        let verilog = run.stage(config, "emit-verilog", |diags| {
            Ok(emit_verilog_with_diagnostics(&fsmd, diags))
        })?;
        Ok(RtlArtifacts {
            synthesis,
            fsmd,
            program,
            verilog,
        })
    });
    run.trace.total_ns = start.elapsed().as_nanos() as u64;
    (result, run)
}

/// [`compile_traced`] without the trace: the plain front-to-back compile.
pub fn compile(
    func: &Function,
    directives: &hls_core::Directives,
    lib: &hls_core::TechLibrary,
) -> Result<RtlArtifacts, SynthesisError> {
    compile_traced(func, directives, lib, &PipelineConfig::default()).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_core::{Directives, TechLibrary};
    use hls_ir::{CmpOp, Expr, FunctionBuilder, Ty};

    fn sum_loop() -> Function {
        let mut b = FunctionBuilder::new("sum");
        let x = b.param_array("x", Ty::fixed(10, 0), 8);
        let out = b.param_scalar("out", Ty::fixed(14, 4));
        let acc = b.local("acc", Ty::fixed(14, 4));
        b.assign(acc, Expr::int_const(0));
        b.for_loop("sum", 0, CmpOp::Lt, 8, 1, |b, k| {
            b.assign(acc, Expr::add(Expr::var(acc), Expr::load(x, Expr::var(k))));
        });
        b.assign(out, Expr::var(acc));
        b.build()
    }

    #[test]
    fn full_pipeline_produces_all_artifacts_with_one_trace() {
        let f = sum_loop();
        let (r, run) = compile_traced(
            &f,
            &Directives::new(10.0),
            &TechLibrary::asic_100mhz(),
            &PipelineConfig::default(),
        );
        let artifacts = r.expect("compiles");
        assert!(artifacts.verilog.contains("module sum"));
        assert_eq!(
            artifacts.fsmd.cycles_per_call(),
            artifacts.synthesis.metrics.latency_cycles
        );
        assert!(artifacts.program.op_count() > 0);
        // One trace covers synthesis AND the RTL stages, in order.
        let names: Vec<&str> = run.trace.passes.iter().map(|p| p.pass.as_str()).collect();
        assert_eq!(
            &names[names.len() - 3..],
            &["build-fsmd", "compile-sim", "emit-verilog"]
        );
        // 8 synthesis passes (netlist-opt included) + the 3 RTL stages.
        assert_eq!(names.len(), 11);
        assert!(names.contains(&"netlist-opt"));
    }

    #[test]
    fn synthesis_error_stops_before_rtl_passes() {
        let f = sum_loop();
        let d = Directives::new(f64::NAN);
        let (r, run) = compile_traced(
            &f,
            &d,
            &TechLibrary::asic_100mhz(),
            &PipelineConfig::default(),
        );
        assert!(matches!(r, Err(SynthesisError::InvalidClock { .. })));
        assert!(run.trace.passes.iter().all(|p| p.pass != "build-fsmd"));
        assert_eq!(
            run.diagnostics.find("invalid-clock").unwrap().pass,
            "check-directives"
        );
    }
}
