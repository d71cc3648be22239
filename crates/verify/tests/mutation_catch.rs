//! Mutation testing of the checker itself: seed deliberate
//! scheduling/control bugs into a correct FSMD and require a concrete
//! counterexample back. A verifier that cannot catch a planted off-by-one
//! proves nothing when it says "equivalent".

use hls_core::{synthesize, Directives, TechLibrary};
use hls_ir::{CmpOp, Expr, Function, FunctionBuilder, Ty};
use hls_verify::{
    fuzz_equiv, mutate_fsmd, mutations_for, prove_equiv, verify_equiv, ProveVerdict, VerifyFinding,
};
use rtl::Fsmd;

fn synth(f: &Function) -> Fsmd {
    let r =
        synthesize(f, &Directives::new(10.0), &TechLibrary::asic_100mhz()).expect("synthesizes");
    Fsmd::from_synthesis(&r)
}

/// Tiny accumulator: total input cone (2 × 4 bits) is bit-blastable, so
/// the prover can *decide* — not merely fail to prove — every mutant.
fn narrow_sum() -> Function {
    let mut b = FunctionBuilder::new("narrow_sum");
    let x = b.param_array("x", Ty::fixed(4, 0), 2);
    let out = b.param_scalar("out", Ty::fixed(8, 0));
    let acc = b.local("acc", Ty::fixed(8, 0));
    b.assign(acc, Expr::int_const(0));
    b.for_loop("l", 0, CmpOp::Lt, 2, 1, |b, k| {
        b.assign(acc, Expr::add(Expr::var(acc), Expr::load(x, Expr::var(k))));
    });
    b.assign(out, Expr::var(acc));
    b.build()
}

/// Same shape plus a *data-dependent* array access whose index is
/// select-clamped into range. Concretely the index is always in bounds,
/// but interval analysis cannot prove it (the union of the select arms
/// spans the raw input range), so the symbolic engine reports
/// `Unsupported` and the pipeline must take the differential-fuzzing path.
fn wide_sum() -> Function {
    let mut b = FunctionBuilder::new("wide_sum");
    let x = b.param_array("x", Ty::fixed(12, 0), 4);
    let y = b.param_scalar("y", Ty::int(4));
    let out = b.param_scalar("out", Ty::fixed(16, 0));
    let acc = b.local("acc", Ty::fixed(16, 0));
    b.assign(acc, Expr::int_const(0));
    b.for_loop("l", 0, CmpOp::Lt, 3, 1, |b, k| {
        b.assign(acc, Expr::add(Expr::var(acc), Expr::load(x, Expr::var(k))));
    });
    // idx = y < 0 ? 0 : (y >= 4 ? 0 : y) — always 0..3 at runtime.
    let idx = Expr::select(
        Expr::cmp(CmpOp::Lt, Expr::var(y), Expr::int_const(0)),
        Expr::int_const(0),
        Expr::select(
            Expr::cmp(CmpOp::Ge, Expr::var(y), Expr::int_const(4)),
            Expr::int_const(0),
            Expr::var(y),
        ),
    );
    b.assign(acc, Expr::add(Expr::var(acc), Expr::load(x, idx)));
    b.assign(out, Expr::var(acc));
    b.build()
}

#[test]
fn narrow_design_is_proved() {
    let verdict = prove_equiv(&synth(&narrow_sum()));
    assert!(verdict.is_proved(), "expected proof, got {verdict:?}");
}

#[test]
fn every_narrow_mutant_is_disproved_with_a_witness() {
    let fsmd = synth(&narrow_sum());
    let mutations = mutations_for(&fsmd);
    assert!(!mutations.is_empty(), "loop design must admit mutations");
    for m in &mutations {
        let mutant = mutate_fsmd(&fsmd, m).expect("mutation applies");
        match prove_equiv(&mutant) {
            ProveVerdict::Disproved(cex) => {
                // The witness must be executable evidence: the two values
                // really differ on the reported inputs.
                assert_eq!(cex.observable, "out");
                assert_ne!(cex.ir_value, cex.rtl_value, "{m}: vacuous witness");
                assert!(!cex.inputs.is_empty(), "{m}: witness has no inputs");
            }
            other => panic!("{m}: expected Disproved, got {other:?}"),
        }
    }
}

#[test]
fn wide_mutants_are_caught_by_fuzzing_with_shrunk_stimulus() {
    let fsmd = synth(&wide_sum());

    // Sanity: the unmutated design is too wide to prove but fuzzes clean.
    let clean = verify_equiv(&fsmd);
    assert!(clean.passed(), "clean design failed: {}", clean.describe());
    assert!(
        matches!(clean.finding, VerifyFinding::Fuzzed { .. }),
        "expected the fuzz path, got {:?}",
        clean.finding
    );

    for m in &mutations_for(&fsmd) {
        let mutant = mutate_fsmd(&fsmd, m).expect("mutation applies");
        let report = verify_equiv(&mutant);
        assert!(!report.passed(), "{m}: mutant slipped through");
        match report.finding {
            VerifyFinding::FuzzCounterexample(cex) => {
                assert!(
                    cex.stimulus.len() <= 4,
                    "{m}: counterexample not shrunk: {} calls",
                    cex.stimulus.len()
                );
                assert!(cex.failing_call < cex.stimulus.len());
            }
            VerifyFinding::ProofCounterexample(_) => {}
            other => panic!("{m}: expected a counterexample, got {other:?}"),
        }
    }
}

#[test]
fn fuzzing_is_deterministic() {
    let fsmd = synth(&wide_sum());
    let a = fuzz_equiv(&fsmd);
    let b = fuzz_equiv(&fsmd);
    assert_eq!(a.calls, b.calls);
    assert_eq!(a.corpus, b.corpus);
    assert_eq!(a.coverage.states(), b.coverage.states());
    assert_eq!(
        a.coverage.branch_directions(),
        b.coverage.branch_directions()
    );
    assert!(a.counterexample.is_none() && b.counterexample.is_none());
    assert!(a.coverage.states() > 0, "no controller coverage recorded");
    assert!(a.coverage.branch_directions() > 0, "no branch coverage");
}

#[test]
fn explore_verified_passes_a_correct_design_space() {
    let cfg = hls_core::ExploreConfig {
        unroll_factors: vec![1, 2],
        per_loop_refinement: false,
        verify: hls_core::VerifyLevel::All,
        ..hls_core::ExploreConfig::default()
    };
    let r = hls_verify::explore_verified(&wide_sum(), &cfg, &TechLibrary::asic_100mhz());
    assert!(!r.points.is_empty());
    assert!(
        r.verify_failures.is_empty(),
        "spurious verify failures: {:?}",
        r.verify_failures
    );
}
