//! The `dse_sweep` workload: the paper's architecture exploration, run in
//! process through `hls_verify::explore_verified_with`. No store, wire or
//! server is involved, so a pipeline or prover change shows here undiluted
//! and a store or server change must show nothing.

use std::time::{Duration, Instant};

use hls_core::{explore, DesignPoint, ExploreConfig, ExploreResult, VerifyLevel};
use hls_ir::{parse_function, Function};
use hls_verify::{explore_verified_with, ExploreProver, ProverStats};
use qam_decoder::table1_library;

use crate::check;
use crate::gen::{sampled, Kernel, SweepPlan};
use crate::stats::peak_rss_mb;

/// One completed sweep.
pub struct Swept {
    pub index: usize,
    pub plan: SweepPlan,
    pub func: Function,
    pub wall_ns: u64,
    pub result: ExploreResult,
    pub prover: ProverStats,
}

/// Runs one cold sweep: a fresh prover and no pass cache.
pub fn sweep(index: usize, plan: SweepPlan) -> Swept {
    let func = parse_function(&plan.kernel.source()).expect("generated sources parse");
    let prover = ExploreProver::new();
    let t0 = Instant::now();
    let result = explore_verified_with(&func, &plan.config(), &table1_library(), &prover);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    Swept {
        index,
        plan,
        func,
        wall_ns,
        result,
        prover: prover.stats(),
    }
}

/// The set-up sweep: the paper's decoder over a small fixed grid, run once
/// per process before timing so code, allocator and thread pool are warm.
pub fn warm_up() -> Swept {
    let plan = SweepPlan {
        kernel: Kernel::Qam {
            nffe: 8,
            ndfe: 16,
            width: 10,
        },
        loops: vec!["dfe", "dfe_adapt"],
        clocks: vec![10.0],
    };
    sweep(usize::MAX, plan)
}

/// Sweeps after which `peak_rss_mb` is read, so it does not grow with the
/// window's throughput.
pub const RSS_SWEEPS: usize = 50;

/// Runs sweeps from the seeded plan stream, one after another, for
/// `seconds`. Returns them with this process's peak RSS in MB after
/// [`RSS_SWEEPS`] sweeps (or at the end of a window that completed fewer).
pub fn run(seed: u64, seconds: f64) -> (Vec<Swept>, f64) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut done = Vec::new();
    let mut rss = None;
    for (i, plan) in SweepPlan::stream(seed).enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        done.push(sweep(i, plan));
        if done.len() == RSS_SWEEPS {
            rss = Some(peak_rss_mb("self"));
        }
    }
    (done, rss.unwrap_or_else(|| peak_rss_mb("self")))
}

/// Checks one sweep: no point may fail synthesis or its proof, every
/// frontier point must re-synthesize to its reported latency and area and
/// simulate like the interpreter, and on the seeded 5% sample pruning must
/// keep the frontier of the unpruned, unverified sweep.
pub fn check(s: &Swept, seed: u64) -> Result<(), String> {
    if let Some((label, e)) = s.result.failures.first() {
        return Err(format!("{label}: synthesis failed: {e}"));
    }
    if let Some((label, e)) = s.result.verify_failures.first() {
        return Err(format!("{label}: proof failed: {e}"));
    }
    let lib = table1_library();
    let frontier = s.result.pareto();
    if frontier.is_empty() {
        return Err("the sweep found no design point".into());
    }
    for p in &frontier {
        let art = rtl::compile(&s.func, &p.directives, &lib)
            .map_err(|e| format!("{}: re-synthesis failed: {e}", p.label))?;
        let m = &art.synthesis.metrics;
        if (m.latency_cycles, m.area) != (p.latency_cycles, p.area) {
            return Err(format!("{}: re-synthesis reports other metrics", p.label));
        }
        check::simulate(
            &s.func,
            p.directives.merge_policy,
            &art,
            p.latency_cycles,
            seed ^ s.index as u64,
        )
        .map_err(|e| format!("{}: {e}", p.label))?;
    }
    if sampled(seed, s.index) {
        let unpruned = ExploreConfig {
            budget: None,
            verify: VerifyLevel::Off,
            ..s.plan.config()
        };
        let reference = explore(&s.func, &unpruned, &lib);
        if corners(&reference.pareto()) != corners(&frontier) {
            return Err("pruning changed the Pareto frontier".into());
        }
    }
    Ok(())
}

fn corners(points: &[&DesignPoint]) -> Vec<(u64, u64)> {
    points
        .iter()
        .map(|p| (p.latency_cycles, p.area.to_bits()))
        .collect()
}
