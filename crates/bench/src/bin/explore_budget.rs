//! Budgeted design-space exploration report: the Table-1 directive
//! sweep crossed with a target-clock sweep, explored two ways —
//!
//! 1. **fused** — proofs run inside the explorer's worker pool against
//!    each point's already-built synthesis result, sharing IR contexts
//!    and replaying verdicts for structurally identical clock twins
//!    (`explore_verified`);
//! 2. **budgeted + fused** — the same, plus branch-and-bound pruning of
//!    candidates whose admissible bounds are already dominated.
//!
//! Then a dense 10,206-point per-loop grid, unverified, with and without
//! the budget.
//!
//! Each flow, and the grid's budgeted sweep, runs `REPEATS` times and
//! reports its minimum wall time and whether every repeat pruned the same
//! labels with the same evaluation count (`pruned_identical`). The
//! binary *enforces* exactness and exits nonzero if it does not hold:
//! both flows must report the identical Pareto frontier and identical
//! per-point metrics (budgeted may drop dominated interior points, but
//! only into its pruned list), no equivalence check may fail, pruning
//! must fire, and the grid's budgeted sweep must prune at least half of
//! its candidates and still reproduce the unbudgeted frontier. No wall
//! time is a pass condition. Results land in `BENCH_explore.json` at
//! the repo root (schema documented in DESIGN.md under "Exploration &
//! budgeting").

use std::collections::BTreeMap;
use std::time::Instant;

use hls_core::{explore, ExploreConfig, ExploreResult, LoopGrid, MergePolicy, VerifyLevel};
use hls_verify::explore_verified;
use qam_decoder::{build_qam_decoder_ir, table1_library, DecoderParams};

const REPEATS: usize = 3;
/// The dense grid sweep must discard at least this fraction of its
/// candidates by bound alone.
const REQUIRED_PRUNE_RATE: f64 = 0.5;

/// The Table-1 knob sweep (uniform + per-loop unrolling, both merge
/// policies) crossed with a realistic target-clock sweep, 5 ns (200 MHz)
/// to 40 ns (25 MHz). Slow clocks chain identically and become clock
/// twins — exactly the redundancy the fused prover's structural memo is
/// built to exploit.
fn sweep_config() -> ExploreConfig {
    ExploreConfig {
        clock_period_ns: 10.0,
        clock_periods_ns: vec![5.0, 7.5, 10.0, 15.0, 20.0, 40.0],
        unroll_factors: vec![1, 2, 4],
        merge_policies: vec![MergePolicy::Off, MergePolicy::AllowHazards],
        per_loop_refinement: true,
        verify: VerifyLevel::All,
        budget: None,
        loop_grids: None,
        cache: None,
    }
}

/// The dense per-loop design space: every decoder loop swept over its own
/// unroll axis, crossed with seven clocks and both merge policies —
/// 3⁶ × 7 × 2 = 10,206 candidates. Equivalence checking is off here: the
/// grid exists to measure pruning at scale, and the budgeted sweep is
/// validated against the unbudgeted reference frontier instead.
fn grid_config() -> ExploreConfig {
    let loops = [
        "ffe",
        "dfe",
        "ffe_adapt",
        "dfe_adapt",
        "ffe_shift",
        "dfe_shift",
    ];
    ExploreConfig {
        clock_period_ns: 10.0,
        clock_periods_ns: vec![5.0, 7.5, 10.0, 15.0, 20.0, 30.0, 40.0],
        unroll_factors: Vec::new(),
        merge_policies: vec![MergePolicy::Off, MergePolicy::AllowHazards],
        per_loop_refinement: false,
        verify: VerifyLevel::Off,
        budget: None,
        loop_grids: Some(LoopGrid {
            unroll: loops
                .iter()
                .map(|l| (l.to_string(), vec![1, 2, 4]))
                .collect(),
            pipeline: Vec::new(),
        }),
        cache: None,
    }
}

struct Flow {
    name: &'static str,
    ms: f64,
    result: ExploreResult,
    /// Every repeat pruned the same labels with the same evaluations.
    pruned_identical: bool,
}

/// The labels a sweep pruned and how many jobs it evaluated.
fn prune_set(r: &ExploreResult) -> (Vec<&str>, usize) {
    let labels = r.pruned.iter().map(|p| p.label.as_str()).collect();
    (labels, r.evaluations)
}

/// Runs `sweep` `REPEATS` times, keeping the fastest repeat's result.
fn run_flow(name: &'static str, sweep: impl Fn() -> ExploreResult) -> Flow {
    let mut runs: Vec<(f64, ExploreResult)> = (0..REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            let r = sweep();
            (t0.elapsed().as_secs_f64() * 1e3, r)
        })
        .collect();
    let pruned_identical = runs
        .iter()
        .all(|(_, r)| prune_set(r) == prune_set(&runs[0].1));
    let best = (0..runs.len())
        .min_by(|&i, &j| runs[i].0.total_cmp(&runs[j].0))
        .expect("at least one repeat");
    let (ms, result) = runs.swap_remove(best);
    Flow {
        name,
        ms,
        result,
        pruned_identical,
    }
}

fn frontier(r: &ExploreResult) -> Vec<(String, u64, f64)> {
    r.pareto()
        .iter()
        .map(|p| (p.label.clone(), p.latency_cycles, p.area))
        .collect()
}

fn main() {
    let ir = build_qam_decoder_ir(&DecoderParams::default());
    let lib = table1_library();
    let config = sweep_config();
    let budgeted_config = config.clone().budgeted();

    let fused = run_flow("fused", || explore_verified(&ir.func, &config, &lib));
    let budgeted = run_flow("budgeted-fused", || {
        explore_verified(&ir.func, &budgeted_config, &lib)
    });

    let mut failed = false;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            eprintln!("FAIL: {what}");
            failed = true;
        }
    };

    // Exactness: the unbudgeted fused flow is the reference (its
    // points match the serial explorer's, checked in the hls-verify
    // tests). The budgeted flow must report the same frontier and the
    // same metrics for every point it evaluated, moving dominated
    // interior points into `pruned` but nowhere else.
    let reference = frontier(&fused.result);
    check(
        frontier(&budgeted.result) == reference,
        "budgeted-fused frontier differs from the fused reference",
    );
    for flow in [&fused, &budgeted] {
        check(
            flow.result.verify_failures.is_empty(),
            &format!("{} reported equivalence failures", flow.name),
        );
    }
    let by_label: BTreeMap<&str, (u64, f64)> = fused
        .result
        .points
        .iter()
        .map(|p| (p.label.as_str(), (p.latency_cycles, p.area)))
        .collect();
    check(
        budgeted.result.points.len() + budgeted.result.pruned.len() == fused.result.points.len(),
        "budgeted flow must account for every reference point (evaluated or pruned)",
    );
    for p in &budgeted.result.points {
        check(
            by_label.get(p.label.as_str()) == Some(&(p.latency_cycles, p.area)),
            &format!("point {} metrics differ from the reference", p.label),
        );
    }

    check(
        !budgeted.result.pruned.is_empty(),
        "budgeted flow pruned nothing on the Table-1 sweep",
    );
    check(
        budgeted.pruned_identical,
        "budgeted flow pruned different candidates across repeats",
    );
    for p in &budgeted.result.pruned {
        check(
            !p.corners.is_empty() && !p.dominated_by.is_empty(),
            &format!("pruned candidate {} carries no bound evidence", p.label),
        );
    }

    // Dense 10k-point grid: the budgeted sweep must discard at least half
    // the space by bound alone and still reproduce the unbudgeted
    // frontier bit for bit.
    let grid_cfg = grid_config();
    let t0 = Instant::now();
    let grid_ref = explore(&ir.func, &grid_cfg, &lib);
    let grid_ref_ms = t0.elapsed().as_secs_f64() * 1e3;
    let grid_budgeted_cfg = grid_cfg.clone().budgeted();
    let grid = run_flow("grid", || explore(&ir.func, &grid_budgeted_cfg, &lib));
    let (grid_budgeted, grid_ms) = (&grid.result, grid.ms);
    let grid_candidates = grid_ref.points.len() + grid_ref.failures.len();
    check(
        grid_candidates >= 10_000,
        &format!("grid sweep visited only {grid_candidates} candidates"),
    );
    let grid_frontier_ok = frontier(grid_budgeted) == frontier(&grid_ref);
    check(grid_frontier_ok, "grid frontier differs from the reference");
    check(
        grid.pruned_identical,
        "grid sweep pruned different candidates across repeats",
    );
    check(
        grid_ref.points.len() + grid_ref.failures.len()
            == grid_budgeted.points.len()
                + grid_budgeted.pruned.len()
                + grid_budgeted.failures.len(),
        "grid sweep must account for every candidate (kept, pruned or failed)",
    );
    let prune_rate = grid_budgeted.prune_rate();
    check(
        prune_rate >= REQUIRED_PRUNE_RATE,
        &format!("grid prune rate {prune_rate:.3} below the required {REQUIRED_PRUNE_RATE:.2}"),
    );

    println!(
        "sweep: {} candidates, {} unique evaluations, {} transform prefixes",
        fused.result.points.len() + fused.result.failures.len(),
        fused.result.evaluations,
        fused.result.transform_evaluations,
    );
    for flow in [&fused, &budgeted] {
        println!(
            "{:>16}: {:7.1} ms  ({} points, {} pruned, {} frontier)",
            flow.name,
            flow.ms,
            flow.result.points.len(),
            flow.result.pruned.len(),
            flow.result.pareto().len(),
        );
    }
    println!(
        "grid: {} candidates, {} kept, {} pruned ({:.1}%), {} failed, \
         {} waves, frontier {} in {:.0} ms (reference {:.0} ms)",
        grid_candidates,
        grid_budgeted.points.len(),
        grid_budgeted.pruned.len(),
        prune_rate * 100.0,
        grid_budgeted.failures.len(),
        grid_budgeted.wave_stats.len(),
        grid_budgeted.pareto().len(),
        grid_ms,
        grid_ref_ms,
    );

    let flows_json: Vec<String> = [&fused, &budgeted]
        .iter()
        .map(|f| {
            format!(
                "{{\"name\":\"{}\",\"ms\":{:.3},\"points\":{},\"pruned\":{},\"evaluations\":{},\"verify_failures\":{},\"prune_rate\":{:.4},\"waves\":{},\"pruned_identical\":{}}}",
                f.name,
                f.ms,
                f.result.points.len(),
                f.result.pruned.len(),
                f.result.evaluations,
                f.result.verify_failures.len(),
                f.result.prune_rate(),
                f.result.wave_stats.len(),
                f.pruned_identical,
            )
        })
        .collect();
    let frontier_json: Vec<String> = reference
        .iter()
        .map(|(label, lat, area)| {
            format!("{{\"label\":\"{label}\",\"latency_cycles\":{lat},\"area\":{area:.1}}}")
        })
        .collect();
    let grid_frontier_json: Vec<String> = frontier(grid_budgeted)
        .iter()
        .map(|(label, lat, area)| {
            format!("{{\"label\":\"{label}\",\"latency_cycles\":{lat},\"area\":{area:.1}}}")
        })
        .collect();
    let grid_json = format!(
        "{{\"candidates\":{},\"points\":{},\"pruned\":{},\"failures\":{},\
         \"prune_rate\":{:.4},\"required_prune_rate\":{:.2},\"waves\":{},\
         \"frontier_size\":{},\"frontier_identical\":{},\"pruned_identical\":{},\
         \"ms_budgeted\":{:.1},\"ms_reference\":{:.1},\"frontier\":[{}]}}",
        grid_candidates,
        grid_budgeted.points.len(),
        grid_budgeted.pruned.len(),
        grid_budgeted.failures.len(),
        prune_rate,
        REQUIRED_PRUNE_RATE,
        grid_budgeted.wave_stats.len(),
        grid_budgeted.pareto().len(),
        grid_frontier_ok,
        grid.pruned_identical,
        grid_ms,
        grid_ref_ms,
        grid_frontier_json.join(","),
    );
    let json = format!(
        "{{\"repeats\":{REPEATS},\"frontier_identical\":{},\"flows\":[{}],\
         \"frontier\":[{}],\"grid\":{}}}\n",
        !failed,
        flows_json.join(","),
        frontier_json.join(","),
        grid_json
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_explore.json");
    std::fs::write(path, &json).expect("writes BENCH_explore.json");
    println!("wrote BENCH_explore.json");

    if failed {
        std::process::exit(1);
    }
}
