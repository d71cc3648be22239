//! Incremental synthesis & proof caching benchmark.
//!
//! Three scenarios, each enforcing its optimization contract (the binary
//! exits nonzero on any violation):
//!
//! 1. **Warm verified sweep** — the Table-1 × clock sweep (180 points,
//!    `VerifyLevel::All`) runs cold to populate a shared prefix cache and
//!    proof cache, then runs again warm. The warm sweep must be at least
//!    5x faster, report a bit-identical Pareto frontier and per-point
//!    metrics, and record zero equivalence failures and zero cached-
//!    verdict downgrades.
//! 2. **Obligation reuse on a dense grid** — a synthetic six-loop kernel
//!    swept over 3⁶ × 7 clocks × 2 merge policies = 10,206 candidates,
//!    each point discharging its netlist rewrite obligations. Obligations
//!    are clock-independent, so one proof covers seven clocks: the run
//!    with a proof cache must beat the run without one by ≥1.5x cold vs
//!    cold, with a nonzero hit rate, verdict tallies identical to the
//!    uncached run, and zero downgrades.
//! 3. **Service restart** — a design synthesizes under a persistent prefix
//!    cache + proof cache, the caches are dropped ("the daemon exits"),
//!    fresh caches reopen the same directories, and a clock twin request
//!    must replay its prefix — every pass upstream of `schedule` — from
//!    the persistent tier (memo-hit pass records, no cache miss) and
//!    replay the equivalence verdict, with byte-identical Verilog against
//!    an uncached run.
//!
//! Results land in `BENCH_incremental.json` at the repo root (schema
//! documented in DESIGN.md §12).

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hls_core::{
    apply_loop_transforms, lower, netlist_obligations, transform_signature, Directives,
    ExploreConfig, ExploreResult, LoopGrid, MergePolicy, NetlistObligation, NetlistOptConfig,
    PassCache, PassCacheConfig, PipelineConfig, TechLibrary, VerifyLevel,
};
use hls_ir::{parse_function, Function};
use hls_verify::{
    check_netlist_obligations_keyed, explore_verified_with, obligation_key_tagged,
    verify_equiv_cached, ExploreProver, NetlistCrossCheck, ProofCache, ProofCacheConfig,
    ProveOptions, ProveVerdict,
};
use qam_decoder::{build_qam_decoder_ir, table1_library, DecoderParams};
use rtl::{compile_traced, Fsmd};

/// The warm verified sweep must be at least this much faster than the
/// cold populating run.
const REQUIRED_WARM_SPEEDUP: f64 = 5.0;
/// The proof-cached grid must beat the uncached grid by at least this
/// factor, cold vs cold.
const REQUIRED_OBLIGATION_SPEEDUP: f64 = 1.5;

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

/// A deliberately small six-loop kernel: every loop body carries a
/// rewrite the netlist optimizer fires on (folding `* 2`, cancelling
/// `- x[0] + x[0]`), so every sweep point ships obligations, and the
/// narrow widths keep each proof inside the exhaustive bit-blast budget.
const SIX_LOOP_SRC: &str = r#"
    void grid6(sc_fixed<4,2> x[4], sc_fixed<10,6> *out) {
        sc_fixed<10,6> acc = 0;
        l0: for (int a = 0; a < 4; a++) { acc += x[a] * 2; }
        l1: for (int b = 0; b < 4; b++) { acc += x[b] - x[0] + x[0]; }
        l2: for (int c = 0; c < 4; c++) { acc += x[c] * 2; }
        l3: for (int d = 0; d < 4; d++) { acc += x[d] - x[1] + x[1]; }
        l4: for (int e = 0; e < 4; e++) { acc += x[e] * 2; }
        l5: for (int f = 0; f < 4; f++) { acc += x[f] - x[2] + x[2]; }
        *out = acc;
    }
"#;

/// 3⁶ per-loop unroll grid × 7 clocks × 2 merge policies = 10,206
/// candidates over the six-loop kernel, every point checked.
fn grid_config() -> ExploreConfig {
    ExploreConfig {
        clock_period_ns: 10.0,
        clock_periods_ns: vec![5.0, 7.5, 10.0, 15.0, 20.0, 30.0, 40.0],
        unroll_factors: Vec::new(),
        merge_policies: vec![MergePolicy::Off, MergePolicy::AllowHazards],
        per_loop_refinement: false,
        verify: VerifyLevel::All,
        budget: None,
        loop_grids: Some(LoopGrid {
            unroll: ["l0", "l1", "l2", "l3", "l4", "l5"]
                .iter()
                .map(|l| (l.to_string(), vec![1, 2, 4]))
                .collect(),
            pipeline: Vec::new(),
        }),
        cache: None,
    }
}

fn frontier(r: &ExploreResult) -> Vec<(String, u64, f64)> {
    r.pareto()
        .iter()
        .map(|p| (p.label.clone(), p.latency_cycles, p.area))
        .collect()
}

/// Aggregate verdict tallies for the obligation grid — equal tallies on
/// the cached and uncached runs demonstrate the cache changed nothing.
#[derive(Debug, Default, PartialEq, Eq, Clone, Copy)]
struct VerdictTally {
    proved: u64,
    disproved: u64,
    unknown: u64,
}

/// Runs the 10,206-point grid, discharging each point's netlist
/// obligations through an optional proof cache. The obligation *sets*
/// are memoized per unique lowering in both runs (obligations are
/// clock-independent), so the only difference between the runs is
/// whether the proofs themselves replay.
fn run_obligation_grid(
    func: &Function,
    lib: &TechLibrary,
    cache: Option<&ProofCache>,
) -> (f64, ExploreResult, VerdictTally) {
    let opts = ProveOptions::default();
    // Deep-verification regime: every symbolic proof is also
    // cross-checked by sampled differential execution in independent
    // tables — the work a verdict cache amortizes across clock points.
    let cross = NetlistCrossCheck::default();
    // One obligation set per unique lowering, with the content keys
    // memoized beside it: obligations are clock-independent, so all
    // clock points of a signature share the set — and key derivation
    // serializes both sides of every obligation, so it is paid once per
    // set, not once per point.
    type ObSet = (Arc<Vec<NetlistObligation>>, Option<Arc<Vec<String>>>);
    let memo: Mutex<HashMap<String, ObSet>> = Mutex::new(HashMap::new());
    let tally = Mutex::new(VerdictTally::default());
    let config = grid_config();
    let t0 = Instant::now();
    let result = hls_core::explore_with_check(func, &config, lib, &|f, d, l, _result| {
        let sig = transform_signature(d);
        let (obs, keys) = {
            let mut memo = memo.lock().unwrap();
            match memo.get(&sig) {
                Some((obs, keys)) => (Arc::clone(obs), keys.clone()),
                None => {
                    let t = apply_loop_transforms(f, d);
                    let obs = Arc::new(netlist_obligations(
                        &lower(&t.func, d),
                        &NetlistOptConfig::default(),
                        l,
                    ));
                    let keys = cache.map(|_| {
                        Arc::new(
                            obs.iter()
                                .map(|ob| obligation_key_tagged(ob, &opts, &cross.tag()))
                                .collect(),
                        )
                    });
                    memo.insert(sig, (Arc::clone(&obs), keys.clone()));
                    (obs, keys)
                }
            }
        };
        let verdicts = check_netlist_obligations_keyed(
            &obs,
            keys.as_deref().map(Vec::as_slice),
            &opts,
            Some(&cross),
            cache,
        );
        let mut t = tally.lock().unwrap();
        let mut refuted = Vec::new();
        for (ob, v) in obs.iter().zip(&verdicts) {
            match v {
                ProveVerdict::Proved { .. } => t.proved += 1,
                ProveVerdict::Disproved(_) => {
                    t.disproved += 1;
                    refuted.push(ob.pass);
                }
                ProveVerdict::Unknown { .. } => t.unknown += 1,
            }
        }
        if refuted.is_empty() {
            Ok(())
        } else {
            Err(format!("refuted netlist rewrites: {}", refuted.join(", ")))
        }
    });
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let tally = *tally.lock().unwrap();
    (ms, result, tally)
}

fn main() {
    let mut failed = false;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            eprintln!("FAIL: {what}");
            failed = true;
        }
    };

    // ------------------------------------------------------------------
    // Scenario 1: cold vs warm verified Table-1 × clock sweep.
    // ------------------------------------------------------------------
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
    check(
        sweep_proof_stats.downgrades == 0,
        "proof cache reported cached-verdict downgrades",
    );

    // ------------------------------------------------------------------
    // Scenario 2: obligation reuse across the 10,206-point grid.
    // ------------------------------------------------------------------
    let grid_func = parse_function(SIX_LOOP_SRC).expect("six-loop kernel parses");
    let grid_lib = TechLibrary::asic_100mhz();

    let (uncached_ms, grid_uncached, tally_uncached) =
        run_obligation_grid(&grid_func, &grid_lib, None);
    let obligation_cache = ProofCache::in_memory();
    let (cached_ms, grid_cached, tally_cached) =
        run_obligation_grid(&grid_func, &grid_lib, Some(&obligation_cache));
    let grid_speedup = uncached_ms / cached_ms;
    let grid_stats = obligation_cache.stats();
    let grid_lookups = grid_stats.hits + grid_stats.misses;
    let hit_rate = grid_stats.hits as f64 / grid_lookups.max(1) as f64;

    let grid_candidates = grid_cached.points.len() + grid_cached.failures.len();
    check(
        grid_candidates >= 10_000,
        &format!("grid sweep visited only {grid_candidates} candidates"),
    );
    check(
        tally_uncached.proved > 0,
        "grid points discharged no obligations",
    );
    check(
        tally_cached == tally_uncached,
        "cached grid verdict tallies differ from the uncached run",
    );
    check(
        tally_cached.disproved == 0,
        "grid reported refuted rewrites",
    );
    check(
        frontier(&grid_cached) == frontier(&grid_uncached),
        "cached grid frontier differs from the uncached run",
    );
    check(hit_rate > 0.0, "obligation cache hit rate is zero");
    check(
        grid_stats.downgrades == 0,
        "obligation cache reported cached-verdict downgrades",
    );
    check(
        grid_speedup >= REQUIRED_OBLIGATION_SPEEDUP,
        &format!(
            "obligation-reuse speedup {grid_speedup:.2}x below the required \
             {REQUIRED_OBLIGATION_SPEEDUP:.1}x"
        ),
    );

    // ------------------------------------------------------------------
    // Scenario 3: service restart replays the persistent tier.
    // ------------------------------------------------------------------
    let root = std::env::temp_dir().join(format!("hls-bench-incremental-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let persist_pass = PassCacheConfig {
        persist_dir: Some(root.join("passes")),
    };
    let persist_proof = ProofCacheConfig {
        persist_dir: Some(root.join("proofs")),
    };
    let twin_a = Directives::new(20.0);
    let twin_b = Directives::new(40.0);

    // First daemon lifetime: synthesize and verify under clock A.
    {
        let cache = Arc::new(PassCache::new(persist_pass.clone()));
        let proof = ProofCache::new(&persist_proof);
        let cfg = PipelineConfig {
            cache: Some(cache),
            ..PipelineConfig::default()
        };
        let (result, _run) = compile_traced(&ir.func, &twin_a, &lib, &cfg);
        let artifacts = result.expect("clock-A synthesis succeeds");
        let report = verify_equiv_cached(&artifacts.fsmd, &proof);
        check(report.passed(), "clock-A design failed verification");
    }

    // "Restart": fresh caches over the same directories; the clock twin
    // must replay its prefix, everything upstream of `schedule`, from
    // disk.
    let restart_cache = Arc::new(PassCache::new(persist_pass.clone()));
    let restart_proof = ProofCache::new(&persist_proof);
    let cfg = PipelineConfig {
        cache: Some(Arc::clone(&restart_cache)),
        ..PipelineConfig::default()
    };
    let (result, run) = compile_traced(&ir.func, &twin_b, &lib, &cfg);
    let artifacts = result.expect("clock-twin synthesis succeeds");
    let mut memo_passes: Vec<&str> = Vec::new();
    for rec in &run.trace.passes {
        if rec.memo_hit {
            memo_passes.push(rec.pass.as_str());
        }
    }
    for stage in ["loop-transforms", "lower", "netlist-opt"] {
        check(
            memo_passes.contains(&stage),
            &format!("restart did not replay `{stage}` from the persistent tier"),
        );
    }
    let restart_stats = restart_cache.stats();
    check(
        restart_stats.persist_hits >= 1 && restart_stats.misses == 0,
        "restart prefix was not replayed from the persistent tier",
    );
    let twin_report = verify_equiv_cached(&artifacts.fsmd, &restart_proof);
    check(
        twin_report.passed(),
        "clock twin failed verification after restart",
    );
    let restart_proof_stats = restart_proof.stats();
    check(
        restart_proof_stats.persist_hits >= 1,
        "clock-twin verdict was not replayed from the persistent proof tier",
    );
    check(
        Fsmd::from_synthesis(&artifacts.synthesis).same_machine(&artifacts.fsmd),
        "restart produced an inconsistent machine",
    );

    // The replayed artifact must be byte-identical to an uncached run.
    let (baseline, _run) = compile_traced(&ir.func, &twin_b, &lib, &PipelineConfig::default());
    let baseline = baseline.expect("uncached clock-twin synthesis succeeds");
    let verilog_identical = baseline.verilog == artifacts.verilog;
    check(
        verilog_identical,
        "restart Verilog differs from the uncached run",
    );
    let _ = std::fs::remove_dir_all(&root);

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
    println!(
        "obligation grid: {grid_candidates} candidates, uncached {uncached_ms:.0} ms, \
         cached {cached_ms:.0} ms ({grid_speedup:.2}x), hit rate {:.1}%, \
         {} proved / {} unknown / {} disproved",
        hit_rate * 100.0,
        tally_cached.proved,
        tally_cached.unknown,
        tally_cached.disproved,
    );
    println!(
        "restart: memoed passes {:?}, {} persistent prefix hits, {} prefix misses, \
         {} persistent proof hits",
        memo_passes,
        restart_stats.persist_hits,
        restart_stats.misses,
        restart_proof_stats.persist_hits,
    );

    let json = format!(
        "{{\n  \"warm_sweep\": {{\"cold_ms\":{cold_ms:.3},\"warm_ms\":{warm_ms:.3},\
         \"speedup\":{warm_speedup:.3},\"points\":{},\"frontier_identical\":{frontier_identical},\
         \"verify_failures\":{},\"pass_cache\":{},\"proof_cache\":{}}},\n  \
         \"obligation_grid\": {{\"candidates\":{grid_candidates},\"uncached_ms\":{uncached_ms:.3},\
         \"cached_ms\":{cached_ms:.3},\"speedup\":{grid_speedup:.3},\"hit_rate\":{hit_rate:.4},\
         \"proved\":{},\"unknown\":{},\"disproved\":{},\"downgrades\":{}}},\n  \
         \"restart\": {{\"memo_passes\":{},\"persist_pass_hits\":{},\"pass_misses\":{},\
         \"persist_proof_hits\":{},\"verilog_identical\":{verilog_identical}}}\n}}",
        cold.points.len(),
        cold.verify_failures.len() + warm.verify_failures.len(),
        pass_stats.to_json().write(),
        sweep_proof_stats.to_json().write(),
        tally_cached.proved,
        tally_cached.unknown,
        tally_cached.disproved,
        grid_stats.downgrades,
        hls_ir::Json::Arr(
            memo_passes
                .iter()
                .map(|p| hls_ir::Json::str(p.to_string()))
                .collect()
        )
        .write(),
        restart_stats.persist_hits,
        restart_stats.misses,
        restart_proof_stats.persist_hits,
    );
    std::fs::write("BENCH_incremental.json", format!("{json}\n")).expect("write benchmark output");
    println!("wrote BENCH_incremental.json");

    if failed {
        std::process::exit(1);
    }
}
