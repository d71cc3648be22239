//! The pass-manager equivalence gate: `EquivGate` registered as a
//! `PassHook` verifies a design the moment the `metrics` pass lands, and
//! vetoes the remaining pipeline on a counterexample.

use hls_core::{Directives, Pipeline, PipelineConfig, PipelineState, TechLibrary};
use hls_ir::{CmpOp, Expr, FunctionBuilder, Ty};
use hls_verify::EquivGate;

fn sum_loop() -> hls_ir::Function {
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
fn gate_passes_a_correct_design_and_records_it() {
    let f = sum_loop();
    let gate = EquivGate;
    let mut state = PipelineState::new(&f, &Directives::new(10.0), &TechLibrary::asic_100mhz());
    let run = Pipeline::synthesis(PipelineConfig::default())
        .with_hook(&gate)
        .run(&mut state);
    assert!(run.error.is_none());
    assert!(!run.diagnostics.has_errors(), "{}", run.diagnostics);
    let ok = run
        .diagnostics
        .find("equiv-ok")
        .expect("gate note recorded");
    assert_eq!(ok.pass, "metrics");
    assert!(state.to_result().is_some(), "pipeline completed");
}

#[test]
fn gate_discharges_netlist_obligations_inline() {
    // With the optimizer on (the default), the gate's `netlist-opt`
    // branch must prove every per-pass rewrite obligation and record the
    // proof in the pass trace, alongside the end-to-end `equiv-ok`.
    let f = sum_loop();
    let gate = EquivGate;
    let mut state = PipelineState::new(&f, &Directives::new(10.0), &TechLibrary::asic_100mhz());
    let run = Pipeline::synthesis(PipelineConfig::default())
        .with_hook(&gate)
        .run(&mut state);
    assert!(run.error.is_none());
    assert!(!run.diagnostics.has_errors(), "{}", run.diagnostics);
    let note = run
        .diagnostics
        .find("netlist-equiv-ok")
        .expect("netlist obligations proved and recorded");
    assert_eq!(note.pass, "netlist-opt");
    assert!(
        run.diagnostics.find("netlist-equiv-unknown").is_none(),
        "every rewrite on this design must be decidable"
    );
    assert!(run.diagnostics.find("equiv-ok").is_some());
}

#[test]
fn gate_vetoes_an_unsound_netlist_rewrite() {
    // Corrupt the design the pipeline carries with the deliberately
    // broken self-test rewrite: the gate re-runs the optimizer on the
    // transformed function's lowering, finds the carried design is not
    // its output, and must emit the aborting error diagnostic.
    use hls_core::PassHook;
    let f = {
        let mut b = FunctionBuilder::new("diff");
        let x = b.param_scalar("x", Ty::fixed(4, 2));
        let y = b.param_scalar("y", Ty::fixed(4, 2));
        let out = b.param_scalar("out", Ty::fixed(6, 3));
        b.assign(out, Expr::sub(Expr::var(x), Expr::var(y)));
        b.build()
    };
    let d = Directives::new(10.0);
    let mut state = PipelineState::new(&f, &d, &TechLibrary::asic_100mhz());
    let run =
        Pipeline::synthesis(PipelineConfig::default().without_pass("metrics")).run(&mut state);
    assert!(run.error.is_none(), "{:?}", run.error);
    let carried = state.lowered.as_mut().expect("netlist-opt ran");
    hls_core::apply_unsound_rewrite_for_selftest(carried)
        .expect("diff kernel has a subtraction to corrupt");
    let mut diags = hls_core::Diagnostics::default();
    EquivGate.after_pass("netlist-opt", &state, &mut diags);
    assert!(
        diags.find("netlist-equiv-failed").is_some(),
        "unsound rewrite must be vetoed: {diags}"
    );
    assert!(diags.find("netlist-equiv-ok").is_none());
}

#[test]
fn gate_runs_once_even_with_rtl_passes_downstream() {
    // The gate keys on the `metrics` pass specifically; appending more
    // passes after it must not re-trigger verification, and the gated
    // pipeline still reaches them.
    struct Tail;
    impl hls_core::Pass for Tail {
        fn name(&self) -> &'static str {
            "tail"
        }
        fn run(
            &self,
            _state: &mut PipelineState,
            _diags: &mut hls_core::Diagnostics,
        ) -> Result<(), hls_core::SynthesisError> {
            Ok(())
        }
    }
    let f = sum_loop();
    let gate = EquivGate;
    let mut state = PipelineState::new(&f, &Directives::new(10.0), &TechLibrary::asic_100mhz());
    let run = Pipeline::synthesis(PipelineConfig::default())
        .with_pass(Tail)
        .with_hook(&gate)
        .run(&mut state);
    assert!(run.error.is_none());
    assert_eq!(run.trace.passes.last().unwrap().pass, "tail");
    let notes = run
        .diagnostics
        .iter()
        .filter(|d| d.code == "equiv-ok")
        .count();
    assert_eq!(notes, 1);
}
