//! Counterexamples end to end: plant a controller bug, let the fuzzer
//! find and shrink a mismatch, and replay it through the public
//! differential oracle on the buggy and the correct machine.

use hls_core::{synthesize, Directives, TechLibrary};
use hls_ir::{CmpOp, Expr, FunctionBuilder, Ty};
use hls_verify::{fuzz_equiv, mutate_fsmd, mutations_for, replay_stimulus, Mutation};
use rtl::Fsmd;

/// An 8-tap accumulating loop: a trip-count mutation changes the sum, so
/// the differential fuzzer reliably catches it.
fn sum_fsmd() -> Fsmd {
    let mut b = FunctionBuilder::new("sum8");
    let x = b.param_array("x", Ty::fixed(10, 2), 8);
    let out = b.param_scalar("out", Ty::fixed(14, 6));
    let acc = b.local("acc", Ty::fixed(14, 6));
    b.assign(acc, Expr::int_const(0));
    b.for_loop("sum", 0, CmpOp::Lt, 8, 1, |b, k| {
        b.assign(acc, Expr::add(Expr::var(acc), Expr::load(x, Expr::var(k))));
    });
    b.assign(out, Expr::var(acc));
    let r = synthesize(
        &b.build(),
        &Directives::new(10.0),
        &TechLibrary::asic_100mhz(),
    )
    .expect("synthesizes");
    Fsmd::from_synthesis(&r)
}

fn buggy_fsmd() -> Fsmd {
    let good = sum_fsmd();
    let mutation = mutations_for(&good)
        .into_iter()
        .find(|m| matches!(m, Mutation::TripShort { .. }))
        .expect("loop design has a trip mutation");
    mutate_fsmd(&good, &mutation).expect("mutation applies")
}

#[test]
fn fuzzer_counterexample_shrinks_and_replays() {
    let good = sum_fsmd();
    let bad = buggy_fsmd();

    // The fuzzer finds and shrinks a mismatch on the planted bug.
    let report = fuzz_equiv(&bad);
    let cex = report
        .counterexample
        .expect("trip-short mutation must be caught");

    // Replaying the shrunk stimulus reproduces the bug at the call the
    // fuzzer reported.
    let failure = replay_stimulus(&bad, &cex.stimulus);
    assert!(failure.is_some(), "shrunk stimulus must still fail");
    assert_eq!(failure.unwrap().0, cex.failing_call);

    // The same stimulus passes on the correct machine: it detects the
    // bug, not an artifact of the oracle.
    assert!(
        replay_stimulus(&good, &cex.stimulus).is_none(),
        "counterexample must pass on the unmutated design"
    );
}
