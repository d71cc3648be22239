//! The top-level synthesis flow: validate → transform → lower → optimize
//! → schedule → allocate → report.
//!
//! [`synthesize`] runs the stage chain of [`crate::pipeline`] and keeps
//! only its result; use [`crate::synthesize_traced`] when you also want
//! the per-pass trace and structured diagnostics.

use hls_ir::Function;

use crate::allocate::Allocation;
use crate::directives::Directives;
use crate::error::SynthesisError;
use crate::lower::Lowered;
use crate::metrics::DesignMetrics;
use crate::pipeline::{synthesize_traced, PipelineConfig};
use crate::schedule::Schedule;
use crate::tech::TechLibrary;
use crate::transform::MergeReport;

/// Everything produced by one synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// The function after loop transforms (pre-lowering).
    pub transformed: Function,
    /// The lowered design: segments, ports, staging rewrites.
    pub lowered: Lowered,
    /// One schedule per segment.
    pub schedules: Vec<Schedule>,
    /// Allocation and area breakdown.
    pub allocation: Allocation,
    /// Headline metrics.
    pub metrics: DesignMetrics,
    /// Merges performed (with any accepted hazards).
    pub merges: Vec<MergeReport>,
}

impl SynthesisResult {
    /// The bill-of-materials report.
    pub fn bill_of_materials(&self) -> String {
        crate::report::bill_of_materials(&self.allocation)
    }

    /// The Gantt chart report.
    pub fn gantt_chart(&self) -> String {
        crate::report::gantt_chart(&self.lowered, &self.schedules)
    }

    /// The critical-path report.
    pub fn critical_path_report(&self) -> String {
        crate::report::critical_path_report(&self.lowered, &self.schedules)
    }

    /// The architecture summary.
    pub fn summary(&self) -> String {
        crate::report::summary(&self.metrics, &self.lowered)
    }
}

/// Synthesizes `func` under `directives` against `lib`.
///
/// # Errors
///
/// Returns a [`SynthesisError`] when the IR fails validation, a directive
/// names an unknown loop or variable, the clock is infeasible for some
/// operation, or a requested pipeline II is below the minimum.
///
/// # Examples
///
/// ```
/// use hls_core::{synthesize, Directives, TechLibrary, Unroll};
/// use hls_ir::{FunctionBuilder, Ty, Expr, CmpOp};
///
/// let mut b = FunctionBuilder::new("sum8");
/// let x = b.param_array("x", Ty::fixed(10, 0), 8);
/// let out = b.param_scalar("out", Ty::fixed(14, 4));
/// let acc = b.local("acc", Ty::fixed(14, 4));
/// b.assign(acc, Expr::int_const(0));
/// b.for_loop("sum", 0, CmpOp::Lt, 8, 1, |b, k| {
///     b.assign(acc, Expr::add(Expr::var(acc), Expr::load(x, Expr::var(k))));
/// });
/// b.assign(out, Expr::var(acc));
/// let f = b.build();
///
/// let rolled = synthesize(&f, &Directives::new(10.0), &TechLibrary::asic_100mhz())?;
/// let unrolled = synthesize(
///     &f,
///     &Directives::new(10.0).unroll("sum", Unroll::Factor(4)),
///     &TechLibrary::asic_100mhz(),
/// )?;
/// assert!(unrolled.metrics.latency_cycles < rolled.metrics.latency_cycles);
/// # Ok::<(), hls_core::SynthesisError>(())
/// ```
pub fn synthesize(
    func: &Function,
    directives: &Directives,
    lib: &TechLibrary,
) -> Result<SynthesisResult, SynthesisError> {
    synthesize_traced(func, directives, lib, &PipelineConfig::default()).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directives::Unroll;
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
    fn baseline_latency_accounts_all_segments() {
        let f = sum_loop();
        let r = synthesize(&f, &Directives::new(10.0), &TechLibrary::asic_100mhz()).unwrap();
        // init (1) + loop (8) + output commit (1) = 10.
        assert_eq!(r.metrics.latency_cycles, 10, "{}", r.metrics);
        assert_eq!(r.metrics.latency_ns, 100.0);
    }

    #[test]
    fn unknown_loop_directive_rejected() {
        let f = sum_loop();
        let d = Directives::new(10.0).unroll("nope", Unroll::Factor(2));
        let err = synthesize(&f, &d, &TechLibrary::asic_100mhz()).unwrap_err();
        assert!(matches!(err, SynthesisError::UnknownLoop { .. }), "{err}");
    }

    #[test]
    fn unknown_array_directive_rejected() {
        let f = sum_loop();
        let d =
            Directives::new(10.0).map_array("ghost", crate::directives::ArrayMapping::Registers);
        let err = synthesize(&f, &d, &TechLibrary::asic_100mhz()).unwrap_err();
        assert!(
            matches!(err, SynthesisError::UnknownVariable { .. }),
            "{err}"
        );
    }

    #[test]
    fn invalid_ir_rejected() {
        let mut b = FunctionBuilder::new("bad");
        let s = b.param_scalar("s", Ty::int(8));
        let out = b.param_scalar("out", Ty::int(8));
        b.assign(out, Expr::load(s, Expr::int_const(0)));
        let f = b.build();
        let err = synthesize(&f, &Directives::new(10.0), &TechLibrary::asic_100mhz()).unwrap_err();
        assert!(matches!(err, SynthesisError::InvalidIr { .. }), "{err}");
    }

    #[test]
    fn pipelining_a_single_cycle_body_gives_no_benefit() {
        // The paper: "for this algorithm ... loop pipelining does not
        // provide as much benefit as loop unrolling. The main reason is that
        // the loop body is simple enough that each iteration of the loop can
        // be executed in a single cycle."
        let f = sum_loop();
        let plain = synthesize(&f, &Directives::new(10.0), &TechLibrary::asic_100mhz()).unwrap();
        let piped = synthesize(
            &f,
            &Directives::new(10.0).pipeline("sum", 1),
            &TechLibrary::asic_100mhz(),
        )
        .unwrap();
        assert_eq!(plain.metrics.latency_cycles, piped.metrics.latency_cycles);
    }

    #[test]
    fn unrolling_reduces_latency() {
        let f = sum_loop();
        // U=2: two chained adds still fit one cycle -> 1 + 4 + 1 = 6.
        let u2 = synthesize(
            &f,
            &Directives::new(10.0).unroll("sum", Unroll::Factor(2)),
            &TechLibrary::asic_100mhz(),
        )
        .unwrap();
        assert_eq!(u2.metrics.latency_cycles, 6, "{}", u2.metrics);
        // U=4 chains four accumulator adds; the body may need two cycles
        // (the reason the paper kept U=2 on its accumulating loop), but
        // latency still beats the rolled 10 cycles.
        let u4 = synthesize(
            &f,
            &Directives::new(10.0).unroll("sum", Unroll::Factor(4)),
            &TechLibrary::asic_100mhz(),
        )
        .unwrap();
        assert!(u4.metrics.latency_cycles < 10, "{}", u4.metrics);
    }

    #[test]
    fn full_unroll_collapses_into_straight_code() {
        let f = sum_loop();
        let full = synthesize(
            &f,
            &Directives::new(10.0).unroll("sum", Unroll::Full),
            &TechLibrary::asic_100mhz(),
        )
        .unwrap();
        // 8 chained 14-bit adds at ~2.2 ns each exceed one cycle but fit a
        // few; latency must be well under the rolled 10.
        assert!(full.metrics.latency_cycles <= 5, "{}", full.metrics);
        assert!(full.transformed.loops().is_empty());
    }

    #[test]
    fn infeasible_pipeline_ii_reported() {
        // A loop whose body takes 2 cycles with the accumulator written in
        // the second cannot sustain II = 1.
        let mut b = FunctionBuilder::new("deep");
        let x = b.param_array("x", Ty::fixed(14, 2), 8);
        let acc = b.param_scalar("acc", Ty::fixed(16, 4));
        b.for_loop("l", 0, CmpOp::Lt, 8, 1, |b, k| {
            // Three chained multiplies exceed one 10 ns cycle.
            let t = Expr::mul(
                Expr::mul(Expr::load(x, Expr::var(k)), Expr::load(x, Expr::var(k))),
                Expr::mul(Expr::load(x, Expr::var(k)), Expr::var(acc)),
            );
            b.assign(acc, Expr::cast(Ty::fixed(16, 4), t));
        });
        let f = b.build();
        let d = Directives::new(10.0).pipeline("l", 1);
        match synthesize(&f, &d, &TechLibrary::asic_100mhz()) {
            Err(SynthesisError::InfeasibleInitiationInterval {
                label,
                requested,
                minimum,
            }) => {
                assert_eq!(label, "l");
                assert_eq!(requested, 1);
                assert!(minimum > 1, "minimum {minimum}");
            }
            other => panic!("expected infeasible II, got {other:?}"),
        }
    }

    #[test]
    fn streamed_arrays_access_over_time() {
        // Section 2.1: "an array uint10 x[1024] may generate a port of
        // width 10 bits that is read over time". A streamed input array
        // serializes its element accesses, so a fully-unrolled reader
        // cannot read all elements in one cycle.
        let mk = || {
            let mut b = FunctionBuilder::new("stream_sum");
            let x = b.param_array("x", Ty::fixed(10, 10), 8);
            let out = b.param_scalar("out", Ty::fixed(14, 14));
            let acc = b.local("acc", Ty::fixed(14, 14));
            b.assign(acc, Expr::int_const(0));
            b.for_loop("s", 0, CmpOp::Lt, 8, 1, |b, k| {
                b.assign(acc, Expr::add(Expr::var(acc), Expr::load(x, Expr::var(k))));
            });
            b.assign(out, Expr::var(acc));
            b.build()
        };
        let lib = TechLibrary::asic_100mhz();
        let registered = synthesize(
            &mk(),
            &Directives::new(10.0).unroll("s", Unroll::Full),
            &lib,
        )
        .unwrap();
        let streamed = synthesize(
            &mk(),
            &Directives::new(10.0)
                .unroll("s", Unroll::Full)
                .interface("x", crate::directives::InterfaceKind::Stream),
            &lib,
        )
        .unwrap();
        assert!(
            streamed.metrics.latency_cycles > registered.metrics.latency_cycles,
            "streamed {} vs registered {}",
            streamed.metrics.latency_cycles,
            registered.metrics.latency_cycles
        );
        // One element per cycle: at least 8 cycles just for the reads.
        assert!(streamed.metrics.latency_cycles >= 8);
    }

    #[test]
    fn reports_render() {
        let f = sum_loop();
        let r = synthesize(&f, &Directives::new(10.0), &TechLibrary::asic_100mhz()).unwrap();
        assert!(r.bill_of_materials().contains("total area"));
        assert!(r.gantt_chart().contains("segment"));
        assert!(r.critical_path_report().contains("critical path"));
        assert!(r.summary().contains("ports"));
    }
}
