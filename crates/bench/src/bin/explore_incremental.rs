//! Incremental synthesis & proof caching benchmark: a warm verified
//! sweep.
//!
//! The Table-1 × clock sweep (180 points, `VerifyLevel::All`) runs cold
//! to populate a shared prefix cache and proof cache, then runs again
//! warm. The warm sweep must be at least 5x faster, report a
//! bit-identical Pareto frontier and per-point metrics, record zero
//! equivalence failures, and replay from both caches; the binary exits
//! nonzero on any violation.
//!
//! Results land in `BENCH_incremental.json` at the repo root (schema
//! documented in DESIGN.md §12).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use hls_core::{ExploreConfig, ExploreResult, MergePolicy, PassCache, VerifyLevel};
use hls_verify::{explore_verified_with, ExploreProver, ProofCache};
use qam_decoder::{build_qam_decoder_ir, table1_library, DecoderParams};

/// The warm verified sweep must be at least this much faster than the
/// cold populating run.
const REQUIRED_WARM_SPEEDUP: f64 = 5.0;

/// The Table-1 knob sweep crossed with the clock sweep — identical to
/// `explore_budget`'s verified sweep, plus the shared prefix cache.
fn sweep_config(cache: Arc<PassCache>) -> ExploreConfig {
    ExploreConfig {
        clock_period_ns: 10.0,
        clock_periods_ns: vec![5.0, 7.5, 10.0, 15.0, 20.0, 40.0],
        unroll_factors: vec![1, 2, 4],
        merge_policies: vec![MergePolicy::Off, MergePolicy::AllowHazards],
        per_loop_refinement: true,
        verify: VerifyLevel::All,
        budget: None,
        loop_grids: None,
        cache: Some(cache),
    }
}

fn frontier(r: &ExploreResult) -> Vec<(String, u64, f64)> {
    r.pareto()
        .iter()
        .map(|p| (p.label.clone(), p.latency_cycles, p.area))
        .collect()
}

fn main() {
    let mut failed = false;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            eprintln!("FAIL: {what}");
            failed = true;
        }
    };

    let ir = build_qam_decoder_ir(&DecoderParams::default());
    let lib = table1_library();
    let pass_cache = Arc::new(PassCache::default());
    let proof_cache = Arc::new(ProofCache::in_memory());
    let config = sweep_config(Arc::clone(&pass_cache));

    // Deep verification: every proved machine is also cross-checked by
    // the differential fuzzer (prover and simulator as independent
    // oracles). That is the regime an overnight verified sweep runs in —
    // and the work the proof cache amortizes away on the warm pass.
    let t0 = Instant::now();
    let cold = explore_verified_with(
        &ir.func,
        &config,
        &lib,
        &ExploreProver::new()
            .with_cross_check()
            .with_cache(Arc::clone(&proof_cache)),
    );
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    let warm = explore_verified_with(
        &ir.func,
        &config,
        &lib,
        &ExploreProver::new()
            .with_cross_check()
            .with_cache(Arc::clone(&proof_cache)),
    );
    let warm_ms = t0.elapsed().as_secs_f64() * 1e3;
    let warm_speedup = cold_ms / warm_ms;

    let frontier_identical = frontier(&warm) == frontier(&cold);
    check(frontier_identical, "warm frontier differs from cold");
    check(
        warm.points.len() == cold.points.len(),
        "warm sweep must evaluate every point the cold sweep does",
    );
    let by_label: BTreeMap<&str, (u64, f64)> = cold
        .points
        .iter()
        .map(|p| (p.label.as_str(), (p.latency_cycles, p.area)))
        .collect();
    for p in &warm.points {
        check(
            by_label.get(p.label.as_str()) == Some(&(p.latency_cycles, p.area)),
            &format!("warm point {} metrics differ from cold", p.label),
        );
    }
    check(
        cold.verify_failures.is_empty() && warm.verify_failures.is_empty(),
        "verified sweep reported equivalence failures",
    );
    check(
        warm_speedup >= REQUIRED_WARM_SPEEDUP,
        &format!(
            "warm sweep speedup {warm_speedup:.2}x below the required {REQUIRED_WARM_SPEEDUP:.1}x"
        ),
    );
    let pass_stats = pass_cache.stats();
    let sweep_proof_stats = proof_cache.stats();
    check(pass_stats.hits > 0, "prefix cache recorded no hits");
    check(
        sweep_proof_stats.hits > 0,
        "proof cache recorded no hits on the warm sweep",
    );

    println!(
        "warm sweep: cold {cold_ms:.1} ms, warm {warm_ms:.1} ms ({warm_speedup:.2}x), \
         {} points, frontier {}",
        cold.points.len(),
        frontier(&cold).len(),
    );
    println!(
        "prefix cache: {} hits / {} misses / {} inserts, {} evictions",
        pass_stats.hits, pass_stats.misses, pass_stats.inserts, pass_stats.evictions,
    );
    let json = format!(
        "{{\n  \"warm_sweep\": {{\"cold_ms\":{cold_ms:.3},\"warm_ms\":{warm_ms:.3},\
         \"speedup\":{warm_speedup:.3},\"points\":{},\"frontier_identical\":{frontier_identical},\
         \"verify_failures\":{},\"pass_cache\":{},\"proof_cache\":{}}}\n}}",
        cold.points.len(),
        cold.verify_failures.len() + warm.verify_failures.len(),
        pass_stats.to_json().write(),
        sweep_proof_stats.to_json().write(),
    );
    std::fs::write("BENCH_incremental.json", format!("{json}\n")).expect("write benchmark output");
    println!("wrote BENCH_incremental.json");

    if failed {
        std::process::exit(1);
    }
}
