//! Differential property tests for the prefix cache.
//!
//! The cache's contract is *invisibility*: for any directive grid, any
//! clock set and any technology library, exploration with the cache off,
//! with a cold cache, and with a warm (fully populated) cache must
//! produce bit-identical results. The first test samples that space with
//! a hand-rolled deterministic RNG — randomized unroll grids, merge
//! policies, clock lists and library perturbations — and compares the
//! complete result (every point's label, latency and the exact bits of
//! its area, plus every failure) across the three regimes. The second
//! drives the serve path (`synthesize_traced`, which `synthd` reaches
//! through `compile_traced`) the same way.

use std::sync::Arc;

use hls_core::{
    explore, synthesize_traced, CacheActivity, Directives, ExploreConfig, ExploreResult,
    MergePolicy, OptLevel, PassCache, PipelineConfig, PipelineRun, SynthesisError, SynthesisResult,
    TechLibrary, Unroll, VerifyLevel,
};
use hls_ir::{parse_function, Function};

const SRC: &str = r#"
    void diff(sc_fixed<6,3> x[3], sc_fixed<12,6> *out) {
        sc_fixed<12,6> acc = 0;
        up: for (int i = 0; i < 3; i++) { acc += x[i] * 2; }
        dn: for (int j = 0; j < 3; j++) { acc += x[j] - x[0] + x[0]; }
        *out = acc;
    }
"#;

/// Hand-rolled xorshift64* — deterministic and dependency-free, so the
/// sampled grids are reproducible from the seed alone.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[(self.next() % xs.len() as u64) as usize]
    }

    /// Nonempty random subset, preserving order.
    fn subset<T: Copy>(&mut self, xs: &[T]) -> Vec<T> {
        let mut out: Vec<T> = xs
            .iter()
            .copied()
            .filter(|_| self.next() & 1 == 1)
            .collect();
        if out.is_empty() {
            out.push(self.pick(xs));
        }
        out
    }
}

/// The complete observable outcome of a sweep, bit-exact: every point's
/// label, cycle count and area *bits*, and every failure.
fn fingerprint(r: &ExploreResult) -> String {
    let mut s = String::new();
    for p in &r.points {
        s.push_str(&format!(
            "{}|{}|{:016x}\n",
            p.label,
            p.latency_cycles,
            p.area.to_bits()
        ));
    }
    for (label, err) in &r.failures {
        s.push_str(&format!("fail {label}: {err:?}\n"));
    }
    s
}

#[test]
fn randomized_grids_explore_bit_identically_with_and_without_cache() {
    let func = parse_function(SRC).unwrap();
    let mut rng = XorShift(0x1357_2005);
    for trial in 0..6u32 {
        let clocks = rng.subset(&[5.0, 7.5, 10.0, 12.5, 20.0, 33.3]);
        let unrolls = rng.subset(&[1u32, 2, 3]);
        let policies = rng.subset(&[MergePolicy::Off, MergePolicy::AllowHazards]);
        let per_loop = rng.next() & 1 == 1;
        // Perturb the library half the time: the cache must neither leak
        // one library's results into another nor change either's.
        let lib = TechLibrary::asic_100mhz().with_delay_base_offset((rng.next() % 8) as f64 * 0.01);
        let config = |cache: Option<Arc<PassCache>>| ExploreConfig {
            clock_period_ns: clocks[0],
            clock_periods_ns: clocks.clone(),
            unroll_factors: unrolls.clone(),
            merge_policies: policies.clone(),
            per_loop_refinement: per_loop,
            verify: VerifyLevel::Off,
            budget: None,
            loop_grids: None,
            cache,
        };
        let baseline = explore(&func, &config(None), &lib);
        assert!(
            !baseline.points.is_empty(),
            "trial {trial}: sampled grid must synthesize something"
        );
        let cache = Arc::new(PassCache::default());
        let cold = explore(&func, &config(Some(Arc::clone(&cache))), &lib);
        let warm = explore(&func, &config(Some(Arc::clone(&cache))), &lib);
        assert_eq!(
            fingerprint(&baseline),
            fingerprint(&cold),
            "trial {trial}: cold cached sweep diverged from uncached"
        );
        assert_eq!(
            fingerprint(&baseline),
            fingerprint(&warm),
            "trial {trial}: warm cached sweep diverged from uncached"
        );
        assert!(
            cache.stats().hits > 0,
            "trial {trial}: the warm sweep must actually replay cache entries"
        );
    }
}

/// Figure 4's decoder, the design of the paper's Table 1.
const DECODER: &str = include_str!("../../qam/src/qam_decoder.cpp");

/// One Table-1 architecture (as `qam_decoder::table1_architectures`
/// defines them) at `clock_ns`, with the netlist optimizer on.
fn table1(arch: u64, clock_ns: f64) -> Directives {
    let d = Directives::new(clock_ns);
    let d = match arch % 4 {
        0 => d,
        1 => d.no_merging(),
        2 => d
            .unroll("dfe", Unroll::Factor(2))
            .unroll("dfe_adapt", Unroll::Factor(2))
            .unroll("dfe_shift", Unroll::Factor(2)),
        _ => d
            .unroll("dfe", Unroll::Factor(2))
            .unroll("ffe_adapt", Unroll::Factor(2))
            .unroll("dfe_adapt", Unroll::Factor(4))
            .unroll("dfe_shift", Unroll::Factor(4)),
    };
    d.netlist_opt_level(OptLevel::Full)
}

/// Everything a serve-path run answers, bit-exact: the design (or the
/// error) and the diagnostics, minus the notes that say a pass was
/// replayed.
fn answer(
    result: &Result<SynthesisResult, SynthesisError>,
    run: &PipelineRun,
) -> (String, Vec<String>) {
    let design = match result {
        Ok(r) => format!(
            "{:?}\n{:?}\n{:?}\n{:?}",
            r.lowered, r.schedules, r.allocation, r.metrics
        ),
        Err(e) => format!("error: {e:?}"),
    };
    let diagnostics = run
        .diagnostics
        .iter()
        .filter(|d| d.code != "memo-hit")
        .map(|d| format!("{:?}|{}|{}|{}", d.severity, d.code, d.pass, d.message))
        .collect();
    (design, diagnostics)
}

fn replayed_prefix(run: &PipelineRun) -> bool {
    ["loop-transforms", "lower", "netlist-opt"]
        .iter()
        .all(|name| {
            run.trace
                .passes
                .iter()
                .any(|p| p.pass == *name && p.memo_hit)
        })
}

#[test]
fn serve_path_synthesizes_identically_with_and_without_cache() {
    let small = parse_function(SRC).unwrap();
    let decoder = parse_function(DECODER).unwrap();
    let mut rng = XorShift(0x2005_0317);
    let levels = [OptLevel::Off, OptLevel::Basic, OptLevel::Full];
    let mut cases: Vec<(&Function, Directives, TechLibrary)> = Vec::new();
    for _ in 0..12 {
        let clock = rng.pick(&[5.0, 7.5, 10.0, 12.5, 20.0]);
        let lib = TechLibrary::asic_100mhz().with_delay_base_offset((rng.next() % 4) as f64 * 0.01);
        if rng.next().is_multiple_of(3) {
            cases.push((&decoder, table1(rng.next(), clock), lib));
        } else {
            let mut d = Directives::new(clock)
                .unroll("up", Unroll::Factor(rng.pick(&[1, 3])))
                .netlist_opt_level(rng.pick(&levels));
            d.merge_policy = rng.pick(&[MergePolicy::Off, MergePolicy::AllowHazards]);
            cases.push((&small, d, lib));
        }
    }
    // No operator fits a 0.05 ns clock: the run fails at `schedule`,
    // after the prefix was published, and must fail identically when
    // the prefix is replayed.
    cases.push((&small, Directives::new(0.05), TechLibrary::asic_100mhz()));
    cases.push((&decoder, table1(2, 0.05), TechLibrary::asic_100mhz()));

    let with = |cache: &Arc<PassCache>| PipelineConfig {
        cache: Some(Arc::clone(cache)),
        ..PipelineConfig::default()
    };
    let run_all = |config: &PipelineConfig| -> Vec<_> {
        cases
            .iter()
            .map(|(f, d, lib)| {
                let (result, run) = synthesize_traced(f, d, lib, config);
                let answer = answer(&result, &run);
                (answer, run)
            })
            .collect()
    };

    let baseline = run_all(&PipelineConfig::default());
    assert!(
        baseline
            .iter()
            .any(|((design, _), _)| design.starts_with("error")),
        "the infeasible clocks must fail"
    );
    assert!(
        baseline
            .iter()
            .filter(|((design, _), _)| !design.starts_with("error"))
            .count()
            > cases.len() / 2,
        "most sampled cases must synthesize"
    );
    let cache = Arc::new(PassCache::default());
    let cold = run_all(&with(&cache));
    let warm = run_all(&with(&cache));
    for (i, (base, _)) in baseline.iter().enumerate() {
        assert_eq!(
            base, &cold[i].0,
            "case {i}: cold cache diverged from uncached"
        );
        assert_eq!(
            base, &warm[i].0,
            "case {i}: warm cache diverged from uncached"
        );
        let run = &warm[i].1;
        assert!(
            replayed_prefix(run),
            "case {i}: warm run replayed no prefix"
        );
        let expect = CacheActivity {
            hits: 1,
            misses: 0,
            inserts: 0,
        };
        assert_eq!(run.trace.cache, expect, "case {i}: warm run");
    }
}
