//! Randomized soundness checks for budgeted design-space exploration:
//! across a proptest-driven family of two-loop accumulator functions and
//! randomized sweep configurations, (1) branch-and-bound pruning must
//! return exactly the serial reference's Pareto frontier, fastest
//! latency and smallest area, with every pruned candidate provably
//! dominated corner-for-corner, and (2) the admissible resource-aware
//! bounds the pruning relies on must never exceed what synthesis
//! actually reports — including across per-loop unroll grids, clocks and
//! pipeline-II directives.

use hls_core::{
    apply_loop_transforms, explore, explore_serial, lower_bound, Directives, ExploreBudget,
    ExploreConfig, LoopGrid, MergePolicy, TechLibrary, VerifyLevel,
};
use hls_ir::{CmpOp, Expr, Function, FunctionBuilder, Ty};
use proptest::prelude::*;

/// Two accumulation loops with parametric trip counts and element widths
/// feeding one output — the structural skeleton of the paper's decoder
/// (independent FIR-style loops a sweep can unroll and merge).
fn two_loops(trip1: usize, trip2: usize, w1: u32, w2: u32) -> Function {
    let mut b = FunctionBuilder::new("t");
    let x = b.param_array("x", Ty::fixed(w1, 0), trip1);
    let y = b.param_array("y", Ty::fixed(w2, 0), trip2);
    let out = b.param_scalar("out", Ty::fixed(24, 6));
    let a1 = b.local("a1", Ty::fixed(24, 6));
    let a2 = b.local("a2", Ty::fixed(24, 6));
    b.assign(a1, Expr::int_const(0));
    b.for_loop("l1", 0, CmpOp::Lt, trip1 as i64, 1, |b, k| {
        b.assign(a1, Expr::add(Expr::var(a1), Expr::load(x, Expr::var(k))));
    });
    b.assign(a2, Expr::int_const(0));
    b.for_loop("l2", 0, CmpOp::Lt, trip2 as i64, 1, |b, k| {
        b.assign(a2, Expr::add(Expr::var(a2), Expr::load(y, Expr::var(k))));
    });
    b.assign(out, Expr::add(Expr::var(a1), Expr::var(a2)));
    b.build()
}

fn config(clocks: Vec<f64>, unrolls: Vec<u32>, both_merges: bool) -> ExploreConfig {
    ExploreConfig {
        clock_period_ns: clocks[0],
        clock_periods_ns: clocks,
        unroll_factors: unrolls,
        merge_policies: if both_merges {
            vec![MergePolicy::Off, MergePolicy::AllowHazards]
        } else {
            vec![MergePolicy::Off]
        },
        per_loop_refinement: true,
        loop_grids: None,
        verify: VerifyLevel::Off,
        budget: None,
        cache: None,
    }
}

/// Pruning exactness shared by the uniform-sweep and grid-sweep
/// proptests: identical frontier, full accounting (a candidate is a
/// point, a failure or a pruned record), corner-for-corner dominance of
/// everything pruned, and bit-identical metrics for everything kept.
fn assert_budgeted_matches_reference(
    reference: &hls_core::ExploreResult,
    budgeted: &hls_core::ExploreResult,
) {
    let frontier = |r: &hls_core::ExploreResult| -> Vec<(u64, u64)> {
        r.pareto()
            .iter()
            .map(|p| (p.latency_cycles, p.area.to_bits()))
            .collect()
    };
    assert_eq!(frontier(reference), frontier(budgeted));
    // Tight bounds may prune candidates that would have *failed* (e.g. an
    // infeasible initiation interval), so failures sit on both sides of
    // the accounting.
    assert_eq!(
        reference.points.len() + reference.failures.len(),
        budgeted.points.len() + budgeted.pruned.len() + budgeted.failures.len(),
        "every candidate is evaluated, failed or pruned"
    );
    // Every corner of each pruned candidate's envelope is strictly
    // dominated by some evaluated point (witnesses may differ per
    // corner), so its actual design could not have reached the frontier.
    for pr in &budgeted.pruned {
        assert!(!pr.corners.is_empty(), "{} has no corners", pr.label);
        for &(cl, ca) in &pr.corners {
            assert!(
                budgeted.points.iter().any(|p| {
                    p.latency_cycles <= cl && p.area <= ca && (p.latency_cycles < cl || p.area < ca)
                }),
                "pruned candidate {} corner ({cl}, {ca}) is not dominated",
                pr.label
            );
        }
        assert!(
            !pr.dominated_by.is_empty(),
            "pruned candidate {} names no witnesses",
            pr.label
        );
    }
    // Evaluated points carry identical metrics to the reference.
    for p in &budgeted.points {
        let r = reference.points.iter().find(|q| q.label == p.label);
        let r = r.expect("every budgeted point exists in the reference");
        assert_eq!(r.latency_cycles, p.latency_cycles);
        assert_eq!(r.area.to_bits(), p.area.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Budgeted (and parallel) exploration returns the serial reference's
    /// exact Pareto set; pruned candidates are strictly dominated and
    /// account, together with the evaluated points and failures, for the
    /// whole sweep.
    #[test]
    fn budgeted_sweep_preserves_the_reference_frontier(
        trip1 in 2usize..10,
        trip2 in 2usize..12,
        w1 in 6u32..12,
        w2 in 6u32..12,
        clock_picks in prop::sample::select(vec![
            vec![10.0f64],
            vec![5.0, 10.0],
            vec![5.0, 10.0, 20.0],
            vec![7.5, 20.0, 40.0],
        ]),
        unrolls in prop::sample::select(vec![
            vec![1u32],
            vec![1, 2],
            vec![1, 2, 4],
            vec![1, 4, 8],
        ]),
        both_merges in prop::bool::ANY,
    ) {
        let f = two_loops(trip1, trip2, w1, w2);
        let lib = TechLibrary::asic_100mhz();
        let cfg = config(clock_picks, unrolls, both_merges);
        let reference = explore_serial(&f, &cfg, &lib);
        let budgeted_cfg = ExploreConfig {
            budget: Some(ExploreBudget),
            ..cfg
        };
        let budgeted = explore(&f, &budgeted_cfg, &lib);
        assert_budgeted_matches_reference(&reference, &budgeted);
    }

    /// The widened sweep: the same exactness holds when candidates come
    /// from a combinatorial per-loop grid (independent unroll factors per
    /// loop crossed with pipeline-II choices and the clock grid).
    #[test]
    fn budgeted_grid_sweep_preserves_the_reference_frontier(
        trip1 in 2usize..8,
        trip2 in 2usize..10,
        w in 6u32..12,
        iis in prop::sample::select(vec![
            vec![None],
            vec![None, Some(1u32)],
            vec![None, Some(2)],
        ]),
    ) {
        let f = two_loops(trip1, trip2, w, w);
        let lib = TechLibrary::asic_100mhz();
        let cfg = ExploreConfig {
            loop_grids: Some(LoopGrid {
                unroll: vec![
                    ("l1".to_string(), vec![1, 2, 4]),
                    ("l2".to_string(), vec![1, 2, 4]),
                ],
                pipeline: vec![("l2".to_string(), iis)],
            }),
            ..config(vec![5.0, 10.0, 20.0], vec![1], false)
        };
        let reference = explore_serial(&f, &cfg, &lib);
        let budgeted = explore(
            &f,
            &ExploreConfig {
                budget: Some(ExploreBudget),
                ..cfg
            },
            &lib,
        );
        assert_budgeted_matches_reference(&reference, &budgeted);
    }

    /// Admissibility: for every point a sweep evaluates, the pre-schedule
    /// lower bound never exceeds the synthesized design's actual
    /// latency/area — the property that makes pruning exact.
    #[test]
    fn lower_bounds_are_admissible_across_the_sweep(
        trip1 in 2usize..10,
        trip2 in 2usize..12,
        w1 in 6u32..12,
        w2 in 6u32..12,
        clock in prop::sample::select(vec![5.0f64, 7.5, 10.0, 20.0]),
    ) {
        let f = two_loops(trip1, trip2, w1, w2);
        let lib = TechLibrary::asic_100mhz();
        let cfg = config(vec![clock], vec![1, 2, 4], true);
        let r = explore_serial(&f, &cfg, &lib);
        prop_assert!(!r.points.is_empty());
        for p in &r.points {
            let transformed = apply_loop_transforms(&f, &p.directives);
            let b = lower_bound(&transformed.func, &p.directives, &lib);
            prop_assert!(
                b.latency_cycles <= p.latency_cycles,
                "latency bound {} > actual {} for {}",
                b.latency_cycles, p.latency_cycles, p.label
            );
            prop_assert!(
                b.area <= p.area + 1e-9,
                "area bound {} > actual {} for {}",
                b.area, p.area, p.label
            );
        }
    }

    /// FU-concurrency bound admissibility across randomized per-loop
    /// unroll grids × clocks × pipeline-II: the resource-aware bound sits
    /// at or below the synthesized design on both axes, and some corner
    /// of its envelope sits componentwise at-or-below the actual point
    /// (the property corner-wise pruning relies on).
    #[test]
    fn grid_bounds_are_admissible(
        trip1 in 2usize..10,
        trip2 in 2usize..12,
        u1 in prop::sample::select(vec![1u32, 2, 4, 8]),
        u2 in prop::sample::select(vec![1u32, 2, 4, 8]),
        ii in prop::sample::select(vec![None, Some(1u32), Some(2), Some(4)]),
        clock in prop::sample::select(vec![5.0f64, 7.5, 10.0, 20.0]),
    ) {
        let f = two_loops(trip1, trip2, 10, 10);
        let lib = TechLibrary::asic_100mhz();
        let d = Directives::new(clock)
            .merge_policy(MergePolicy::Off)
            .grid_point(&[("l1", u1), ("l2", u2)], &[("l2", ii)]);
        let transformed = apply_loop_transforms(&f, &d);
        let b = lower_bound(&transformed.func, &d, &lib);
        // Infeasible points (e.g. II below the recurrence minimum) have
        // nothing to be admissible against; the explorer records them as
        // failures either way.
        if let Ok(r) = hls_core::synthesize(&f, &d, &lib) {
            prop_assert!(
                b.latency_cycles <= r.metrics.latency_cycles,
                "latency bound {} > actual {} (U{u1}/U{u2}, II {ii:?}, {clock} ns)",
                b.latency_cycles, r.metrics.latency_cycles
            );
            prop_assert!(
                b.area <= r.metrics.area + 1e-9,
                "area bound {} > actual {} (U{u1}/U{u2}, II {ii:?}, {clock} ns)",
                b.area, r.metrics.area
            );
            prop_assert!(
                b.corners.iter().any(|&(cl, ca)| {
                    cl <= r.metrics.latency_cycles && ca <= r.metrics.area + 1e-9
                }),
                "no envelope corner sits below the actual point \
                 (U{u1}/U{u2}, II {ii:?}, {clock} ns)"
            );
        }
    }
}

/// Non-proptest determinism check: the same budgeted sweep run twice
/// (parallel worker pool and all) yields identical points, pruned lists
/// and frontier — wave order and the domination test are deterministic.
#[test]
fn budgeted_sweep_is_deterministic() {
    let f = two_loops(8, 16, 10, 10);
    let lib = TechLibrary::asic_100mhz();
    let cfg = ExploreConfig {
        budget: Some(ExploreBudget),
        ..config(vec![5.0, 10.0, 20.0], vec![1, 2, 4, 8], true)
    };
    let a = explore(&f, &cfg, &lib);
    let b = explore(&f, &cfg, &lib);
    let key = |r: &hls_core::ExploreResult| {
        (
            r.points
                .iter()
                .map(|p| (p.label.clone(), p.latency_cycles, p.area.to_bits()))
                .collect::<Vec<_>>(),
            r.pruned.iter().map(|p| p.label.clone()).collect::<Vec<_>>(),
            r.wave_stats.clone(),
        )
    };
    assert_eq!(key(&a), key(&b));
}

/// A 16-tap FIR in the shape of the benchmark's FIR sweeps: a delay-line
/// shift loop and a multiply-accumulate loop.
const FIR16: &str = "
void fir16(sc_fixed<10,0> x_in, sc_fixed<12,0> c[16], sc_fixed<24,7> *y) {
    static sc_fixed<10,0> d[16];
    shift: for (int k = 15; k > 0; k--) {
        d[k] = d[k - 1];
    }
    d[0] = x_in;
    sc_fixed<24,7> acc = 0;
    mac: for (int k = 0; k < 16; k++) {
        acc += d[k] * c[k];
    }
    *y = acc;
}
";

/// Pruning depends only on the candidate order and the completed waves:
/// a budgeted FIR sweep (unroll {1,2,4} per loop, six clocks, both merge
/// policies; 108 candidates) returns the same points, pruned labels,
/// evaluations and wave stats on every run, parallel or serial.
#[test]
fn budgeted_fir_sweep_prunes_identically_on_every_run() {
    let f = hls_ir::parse_function(FIR16).expect("parses");
    let lib = TechLibrary::asic_100mhz();
    let cfg = ExploreConfig {
        loop_grids: Some(LoopGrid {
            unroll: vec![
                ("shift".to_string(), vec![1, 2, 4]),
                ("mac".to_string(), vec![1, 2, 4]),
            ],
            pipeline: Vec::new(),
        }),
        ..config(vec![8.0, 9.5, 11.0, 13.0, 16.0, 20.0], vec![1], true)
    }
    .budgeted();
    let key = |r: &hls_core::ExploreResult| {
        (
            r.points
                .iter()
                .map(|p| (p.label.clone(), p.latency_cycles, p.area.to_bits()))
                .collect::<Vec<_>>(),
            r.pruned.iter().map(|p| p.label.clone()).collect::<Vec<_>>(),
            r.evaluations,
            r.wave_stats.clone(),
        )
    };
    let first = key(&explore(&f, &cfg, &lib));
    assert_eq!(first.0.len() + first.1.len(), 108, "no candidate fails");
    assert!(!first.1.is_empty(), "the sweep prunes");
    for run in 1..10 {
        let r = if run % 2 == 0 {
            explore(&f, &cfg, &lib)
        } else {
            explore_serial(&f, &cfg, &lib)
        };
        assert_eq!(key(&r), first, "run {run}");
    }
}
