//! Automatic design-space exploration.
//!
//! The paper's methodology pitch is that "a variety of micro architectures
//! can be rapidly explored". This module automates the exploration the
//! paper's designer did by hand: sweep unroll factors (and optionally the
//! merge policy) over every loop, synthesize each point, and keep the
//! latency/area Pareto frontier.
//!
//! Sweeps come in two shapes: the classic uniform sweep (one unroll
//! factor applied to every loop, plus single-loop refinements) and the
//! combinatorial per-loop grid ([`LoopGrid`]) that crosses each loop's own
//! unroll factors and pipeline-II choices with the clock grid — the shape
//! that reaches 10k+ points on the paper's decoder.
//!
//! Five throughput levers keep large sweeps rapid:
//!
//! - **Memoization** — candidates are keyed by their canonicalized
//!   [`Directives`], so duplicate knob settings (common once per-loop
//!   refinement overlaps the uniform sweep) synthesize once.
//! - **Prefix memoization** — the loop-transform prefix of the pipeline
//!   depends on the function, the merge policy, the loop, array and
//!   interface directives, the optimizer config and the library, never
//!   on the clock, the FU limits or the stream shell — and the lowering
//!   and netlist optimization after it are equally clock-independent.
//!   Candidates sharing that prefix (every point of a clock sweep,
//!   notably) transform, lower and optimize once. Jobs are grouped by
//!   [`crate::passcache::prefix_key`] plus their FU limits (the one
//!   further input of the bound profile), and each group runs the loop
//!   transforms once. Groups whose transform results are equal and whose
//!   lowering inputs (per-loop pipeline IIs, array and interface
//!   mappings, optimizer config, FU limits) agree are one *design*: an
//!   unroll factor at or above a loop's trip unrolls it fully whatever
//!   its value, and a merge policy that merges nothing transforms like
//!   `Off`. Each design is lowered, optimized and bounded once, and
//!   every candidate replays its design's prefix through the synthesis
//!   chain ([`crate::synthesize_traced_with_prefix`]). A clock-only twin
//!   re-runs nothing upstream of the scheduler.
//! - **Parallel evaluation** — the groups' transforms, the designs'
//!   prefixes and then the unique candidates run across all available
//!   cores via scoped
//!   threads, the calling thread working alongside the spawned ones.
//!   Results are keyed by index, so point order, failure order and the
//!   Pareto frontier are identical to the serial path
//!   ([`explore_serial`]) regardless of thread timing.
//! - **Branch-and-bound pruning** — with an [`ExploreBudget`], each
//!   prefix yields one resource-aware [`BoundProfile`]
//!   ([`crate::bound::bound_profile`]), specialized per clock into an
//!   admissible envelope of latency/area corners tracing the candidate's
//!   feasible schedule-depth trade-off. A candidate is pruned exactly
//!   when *every* corner is strictly dominated by a completed design
//!   point: admissibility puts some corner componentwise below the
//!   candidate's actual point, so that corner's dominator strictly
//!   dominates the actual too and the Pareto frontier never loses a
//!   member. Candidates run in deterministic waves (geometrically
//!   growing, so early points start pruning while late waves amortize),
//!   and pruning only consults points completed in *earlier* waves, so
//!   the pruned set depends on candidate order alone, never on thread
//!   timing. Every pruned candidate records its corners and the
//!   completed points that dominated them ([`PrunedCandidate`]), and
//!   per-wave efficacy lands in [`ExploreResult::wave_stats`].
//! - **Fused synthesize + verify** — [`explore_with_check`] runs the
//!   equivalence checker *inside* the synthesis worker pool, reusing each
//!   candidate's just-built [`SynthesisResult`] instead of re-synthesizing
//!   it: at [`VerifyLevel::All`] every proof overlaps other candidates'
//!   synthesis.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use hls_ir::Function;

use crate::bound::{bound_from_profile, bound_profile, BoundProfile, DesignBound};
use crate::directives::{ArrayMapping, Directives, InterfaceKind, MergePolicy, Unroll};
use crate::error::SynthesisError;
use crate::lower::lower;
use crate::netlist::{optimize_lowered, NetlistOptConfig};
use crate::passcache::{self, NetlistEntry};
use crate::pipeline::{
    synthesize_traced, synthesize_traced_with_prefix, PassTrace, PipelineConfig,
};
use crate::synthesize::SynthesisResult;
use crate::tech::TechLibrary;
use crate::transform::{apply_loop_transforms, TransformResult};

/// One explored design point.
#[derive(Debug, Clone)]
pub struct DesignPoint {
    /// The directives that produced it.
    pub directives: Directives,
    /// Human-readable description of the knob settings.
    pub label: String,
    /// Latency in cycles.
    pub latency_cycles: u64,
    /// Area (abstract units).
    pub area: f64,
}

impl DesignPoint {
    /// `true` if `self` dominates `other` (no worse on both axes, better on
    /// at least one).
    pub fn dominates(&self, other: &DesignPoint) -> bool {
        (self.latency_cycles <= other.latency_cycles && self.area <= other.area)
            && (self.latency_cycles < other.latency_cycles || self.area < other.area)
    }
}

/// How much of an explored design space to equivalence-check.
///
/// The checker itself lives downstream (the `hls-verify` crate proves or
/// fuzzes IR↔FSMD equivalence); this crate only carries the policy and the
/// [`explore_with_check`] hook so exploration results can be gated without
/// a dependency cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyLevel {
    /// No equivalence checking (the historical behavior).
    #[default]
    Off,
    /// Check every unique feasible point.
    All,
}

/// Branch-and-bound pruning for [`ExploreConfig::budget`]. It has no
/// settings: a candidate is pruned exactly when its bound envelope is
/// strictly dominated by a point completed in an earlier wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExploreBudget;

/// A per-loop grid sweep: each listed loop sweeps its *own* unroll
/// factors and pipeline-II choices, and the candidate set is the full
/// cross product of every axis (× the clock grid × the merge policies).
/// This is the combinatorial alternative to [`ExploreConfig::unroll_factors`]'
/// uniform sweep — six loops with three factors each already give 729
/// unroll assignments before clocks and policies multiply in.
///
/// Axes with an empty choice list are ignored; factor `1` and II `None`
/// are the defaults, so including them in an axis is how a grid also
/// covers the rolled/unpipelined corner.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoopGrid {
    /// Unroll factors per loop, as `(label, factors)`.
    pub unroll: Vec<(String, Vec<u32>)>,
    /// Pipeline-II choices per loop, as `(label, choices)`; `None` leaves
    /// the loop unpipelined.
    pub pipeline: Vec<(String, Vec<Option<u32>>)>,
}

impl LoopGrid {
    /// The number of candidates this grid contributes per (clock, policy)
    /// pair — the product of every non-empty axis.
    pub fn points_per_clock(&self) -> usize {
        let u: usize = self
            .unroll
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(_, v)| v.len())
            .product();
        let p: usize = self
            .pipeline
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(_, v)| v.len())
            .product();
        u * p
    }
}

/// Exploration configuration.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Clock period for every point.
    pub clock_period_ns: f64,
    /// Additional clock periods to sweep. Empty (the default) means only
    /// [`ExploreConfig::clock_period_ns`] is explored; non-empty replaces
    /// it with this list. Points of a clock sweep share their prefix
    /// (loop transforms, lowering and netlist-opt): the transforms run
    /// once per unique [`crate::passcache::prefix_key`], the rest once
    /// per distinct transformed design.
    pub clock_periods_ns: Vec<f64>,
    /// Unroll factors to try per loop (1 = rolled). The sweep applies one
    /// factor to *all* loops of trip count ≥ factor per point, plus the
    /// per-loop refinements below.
    pub unroll_factors: Vec<u32>,
    /// Merge policies to try.
    pub merge_policies: Vec<MergePolicy>,
    /// Also try per-loop unrolling of each individual loop (on top of the
    /// uniform sweep) — finds asymmetric winners like the paper's fourth
    /// architecture.
    pub per_loop_refinement: bool,
    /// A combinatorial per-loop grid. `None` (the default) runs the
    /// uniform sweep above; `Some` **replaces** it — candidates become the
    /// cross product of the grid's axes with the clock grid and the merge
    /// policies, and [`ExploreConfig::unroll_factors`]/
    /// [`ExploreConfig::per_loop_refinement`] are ignored.
    pub loop_grids: Option<LoopGrid>,
    /// Which explored points [`explore_with_check`] equivalence-checks.
    /// Plain [`explore`]/[`explore_serial`] ignore this (they have no
    /// checker to run).
    pub verify: VerifyLevel,
    /// Branch-and-bound pruning. `None` (the default) evaluates every
    /// unique candidate; `Some` skips the back end of candidates whose
    /// admissible lower bounds are already strictly dominated by a point
    /// completed in an earlier wave. Pruning never changes the Pareto
    /// frontier, the fastest point's latency or the smallest point's area
    /// — only dominated interior points can disappear (into
    /// [`ExploreResult::pruned`]).
    pub budget: Option<ExploreBudget>,
    /// A shared prefix cache ([`crate::passcache::PassCache`]). When set,
    /// each group first looks up its [`crate::passcache::prefix_key`];
    /// every group that misses publishes its design's prefix under its
    /// key once the design is built, so repeated sweeps (and the serve
    /// path, which looks up the same key) reuse prefixes instead of
    /// rebuilding them.
    /// `None` (the default) keeps the in-sweep prefix sharing only.
    pub cache: Option<Arc<crate::passcache::PassCache>>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            clock_period_ns: 10.0,
            clock_periods_ns: Vec::new(),
            unroll_factors: vec![1, 2, 4],
            merge_policies: vec![MergePolicy::Off, MergePolicy::AllowHazards],
            per_loop_refinement: true,
            loop_grids: None,
            verify: VerifyLevel::Off,
            budget: None,
            cache: None,
        }
    }
}

impl ExploreConfig {
    /// This configuration with default branch-and-bound pruning enabled.
    pub fn budgeted(self) -> Self {
        ExploreConfig {
            budget: Some(ExploreBudget),
            ..self
        }
    }
}

/// A candidate whose back end was skipped by branch-and-bound pruning:
/// its admissible bounds were already strictly dominated by a completed
/// design point, so its actual latency/area could not have reached the
/// Pareto frontier.
#[derive(Debug, Clone)]
pub struct PrunedCandidate {
    /// Human-readable description of the knob settings.
    pub label: String,
    /// The candidate's admissible latency lower bound (its actual latency
    /// would have been at least this).
    pub latency_bound_cycles: u64,
    /// The candidate's admissible area lower bound.
    pub area_bound: f64,
    /// The candidate's full bound envelope — admissible `(latency, area)`
    /// corners tracing its feasible schedule-depth trade-off. Every corner
    /// was strictly dominated by a completed point, which is exactly why
    /// the candidate was pruned.
    pub corners: Vec<(u64, f64)>,
    /// The labels of the completed design points that dominated the
    /// corners (deduplicated, in corner order) — enough to diagnose any
    /// prune decision from a serialized result alone.
    pub dominated_by: Vec<String>,
}

/// Pruning efficacy of one evaluation wave.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaveStats {
    /// Unique jobs whose back end ran in this wave.
    pub evaluated: usize,
    /// Unique jobs pruned at this wave's admission check.
    pub pruned: usize,
}

/// The exploration outcome.
#[derive(Debug, Clone)]
pub struct ExploreResult {
    /// Every feasible point evaluated, in candidate-generation order.
    pub points: Vec<DesignPoint>,
    /// Points that failed to synthesize, with their errors.
    pub failures: Vec<(String, SynthesisError)>,
    /// Unique directive sets actually synthesized. Candidates whose
    /// canonicalized directives matched an earlier candidate reused its
    /// memoized result, and candidates pruned by the budget never ran.
    pub evaluations: usize,
    /// Prefix groups: unique directive sets that differ in their
    /// [`crate::passcache::prefix_key`] or their FU limits. Each group
    /// runs the loop transforms once (or reads its prefix from
    /// [`ExploreConfig::cache`]). Candidates that differ only in the clock
    /// or the stream shell share a group (see the module docs), so this
    /// is ≤ [`ExploreResult::evaluations`] of an unbudgeted sweep.
    pub transform_evaluations: usize,
    /// Prefixes actually built: lowering and netlist-opt ran once per
    /// distinct transform result and lowering inputs, less the designs
    /// whose prefix came from [`ExploreConfig::cache`]. Groups whose
    /// transforms agree share one build, so this is ≤
    /// [`ExploreResult::transform_evaluations`].
    pub prefix_builds: usize,
    /// Points that synthesized but *failed the equivalence check*, as
    /// `(label, diagnosis)`. Always empty unless the result came from
    /// [`explore_with_check`] with [`ExploreConfig::verify`] enabled.
    pub verify_failures: Vec<(String, String)>,
    /// Candidates skipped by branch-and-bound pruning, in
    /// candidate-generation order. Always empty without
    /// [`ExploreConfig::budget`].
    pub pruned: Vec<PrunedCandidate>,
    /// Per-wave pruning efficacy, in wave order (unique jobs, not
    /// candidate aliases). Empty without [`ExploreConfig::budget`].
    pub wave_stats: Vec<WaveStats>,
}

impl ExploreResult {
    /// The latency/area Pareto frontier, sorted by latency.
    pub fn pareto(&self) -> Vec<&DesignPoint> {
        let mut frontier: Vec<&DesignPoint> = self
            .points
            .iter()
            .filter(|p| !self.points.iter().any(|q| q.dominates(p)))
            .collect();
        frontier.sort_by_key(|p| (p.latency_cycles, p.area as u64));
        frontier.dedup_by(|a, b| a.latency_cycles == b.latency_cycles && a.area == b.area);
        frontier
    }

    /// The fastest feasible point.
    pub fn fastest(&self) -> Option<&DesignPoint> {
        self.points.iter().min_by_key(|p| p.latency_cycles)
    }

    /// The smallest feasible point.
    pub fn smallest(&self) -> Option<&DesignPoint> {
        self.points
            .iter()
            .min_by(|a, b| a.area.partial_cmp(&b.area).expect("finite areas"))
    }

    /// The fraction of wave-scheduled unique jobs that pruning skipped
    /// (`0.0` when no budget ran).
    pub fn prune_rate(&self) -> f64 {
        let evaluated: usize = self.wave_stats.iter().map(|w| w.evaluated).sum();
        let pruned: usize = self.wave_stats.iter().map(|w| w.pruned).sum();
        if evaluated + pruned == 0 {
            0.0
        } else {
            pruned as f64 / (evaluated + pruned) as f64
        }
    }
}

/// A canonical, order-independent rendering of every field of a directive
/// set, used as the memo-cache key. The maps inside [`Directives`] are
/// `BTreeMap`s, so its derived `Debug` is already sorted; the clock is
/// also keyed by its exact bit pattern, which tells apart the NaNs that
/// `Debug` prints alike.
fn canonical_key(d: &Directives) -> String {
    format!("clk={:016x};{d:?}", d.clock_period_ns.to_bits())
}

/// The latency/area outcome of synthesizing one unique directive set.
type JobOutcome = Result<(u64, f64), SynthesisError>;

/// The clock-independent prefix every job of one design shares: the
/// transform result and the optimized netlist of its lowering and, under
/// a budget, the bound profile of that netlist.
struct Prefix {
    netlist: Arc<NetlistEntry>,
    profile: Option<BoundProfile>,
}

/// One unique directive set to synthesize, with the prefix of its design
/// (`None` for invalid IR, which the pipeline's validate pass must
/// report).
struct Job<'a> {
    directives: &'a Directives,
    prefix: Option<&'a Prefix>,
}

/// A prefix group's loop-transform result: computed, or read with the
/// rest of its prefix from the shared cache.
enum Head {
    Transformed(TransformResult),
    Cached(Arc<NetlistEntry>),
}

impl Head {
    fn transformed(&self) -> &TransformResult {
        match self {
            Head::Transformed(t) => t,
            Head::Cached(entry) => &entry.transformed,
        }
    }
}

/// Exactly the directive inputs `lower`, `optimize_lowered` and
/// `bound_profile` read: per-loop pipeline IIs, array and interface
/// mappings, the optimizer config and the FU limits. Unroll factors and
/// the merge policy are not among them: they reach the prefix only
/// through the transform result.
#[derive(PartialEq)]
struct LoweringInputs<'a> {
    pipeline: Vec<(&'a str, u32)>,
    arrays: &'a BTreeMap<String, ArrayMapping>,
    interfaces: &'a BTreeMap<String, InterfaceKind>,
    netlist_opt: NetlistOptConfig,
    fu_limits: &'a BTreeMap<String, u32>,
}

impl<'a> LoweringInputs<'a> {
    fn of(d: &'a Directives) -> LoweringInputs<'a> {
        LoweringInputs {
            pipeline: d
                .loops
                .iter()
                .filter_map(|(label, l)| Some((label.as_str(), l.pipeline_ii?)))
                .collect(),
            arrays: &d.arrays,
            interfaces: &d.interfaces,
            netlist_opt: d.netlist_opt,
            fu_limits: &d.fu_limits,
        }
    }
}

/// Whether two transform results are the same design: `==`, with every
/// constant's format equal too (`Function`'s `==` compares constants by
/// value alone, but a constant's format sets the width of the logic it
/// feeds).
fn same_transform(a: &TransformResult, b: &TransformResult) -> bool {
    a.merges == b.merges && a.func == b.func && a.func.same_constants(&b.func)
}

/// An equivalence checker for one design point: `Ok(())` if the
/// synthesized design provably (or empirically) implements `func` under
/// the given directives, `Err(diagnosis)` otherwise.
///
/// The checker receives the [`SynthesisResult`] the explorer already
/// built for the point, so it never has to re-synthesize — and it must
/// be `Sync`, because [`explore_with_check`] runs it inside the
/// synthesis worker pool.
///
/// The real implementation lives in the `hls-verify` crate (which depends
/// on this one and on the RTL backend); keeping only the function shape
/// here avoids a dependency cycle.
pub type PointChecker<'a> = dyn Fn(&Function, &Directives, &TechLibrary, &SynthesisResult) -> Result<(), String>
    + Sync
    + 'a;

/// Everything one synthesis worker produced for one unique job.
struct JobResult {
    outcome: JobOutcome,
    /// The equivalence verdict, when the sweep checks its points.
    check: Option<Result<(), String>>,
}

/// An observer of every evaluated job's pass trace, called on the worker
/// that ran the job. The public entry points pass a no-op; the unit tests
/// use it to see which passes a job replayed.
type TraceObserver<'a> = dyn Fn(&PassTrace) + Sync + 'a;

fn run_job(
    func: &Function,
    job: &Job<'_>,
    lib: &TechLibrary,
    check: Option<&PointChecker<'_>>,
    observe: &TraceObserver<'_>,
) -> JobResult {
    let pipeline_config = PipelineConfig {
        // The sweep only reads pass timings and memo flags from the
        // traces; the per-pass design-size snapshots would cost more
        // than a fully memo-served job.
        skip_trace_stats: true,
        ..PipelineConfig::default()
    };
    let (result, run) = match job.prefix {
        Some(p) => synthesize_traced_with_prefix(
            func,
            job.directives,
            lib,
            &pipeline_config,
            Arc::clone(&p.netlist),
        ),
        None => synthesize_traced(func, job.directives, lib, &pipeline_config),
    };
    observe(&run.trace);
    match result {
        Ok(r) => JobResult {
            outcome: Ok((r.metrics.latency_cycles, r.metrics.area)),
            check: check.map(|c| c(func, job.directives, lib, &r)),
        },
        Err(e) => JobResult {
            outcome: Err(e),
            check: None,
        },
    }
}

/// Maps `f` over `0..n`, across the worker pool when `parallel`. The pool
/// is `available_parallelism()` workers, the calling thread among them: it
/// works alongside the spawned threads instead of parking in the scope
/// join, so a 2-core host runs two threads (and two malloc arenas), not
/// three. A shared atomic cursor hands out indices; each value lands at
/// its own slot, so the returned order is independent of thread
/// scheduling.
///
/// The sweep builds its prefixes and candidates through it, and
/// `hls-verify` discharges netlist obligations through it.
pub fn par_map<T, F>(parallel: bool, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(n);
    if !parallel || workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let v = f(i);
        *slots[i].lock().expect("no panics hold this lock") = Some(v);
    };
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("worker finished")
                .expect("every index ran")
        })
        .collect()
}

/// Every assignment of one choice index per axis, in odometer order (last
/// axis fastest). `lens` must be all non-zero; an empty `lens` yields the
/// single empty assignment.
fn cross(lens: &[usize]) -> Vec<Vec<usize>> {
    let total: usize = lens.iter().product();
    let mut combos = Vec::with_capacity(total);
    let mut idx = vec![0usize; lens.len()];
    loop {
        combos.push(idx.clone());
        let mut k = lens.len();
        loop {
            if k == 0 {
                return combos;
            }
            k -= 1;
            idx[k] += 1;
            if idx[k] < lens[k] {
                break;
            }
            idx[k] = 0;
        }
    }
}

/// Enumerates the per-loop grid sweep: clock × merge policy × the cross
/// product of every loop's unroll factors × every loop's pipeline-II
/// choices, in deterministic order with self-describing labels.
fn grid_candidates(config: &ExploreConfig, grid: &LoopGrid) -> Vec<(String, Directives)> {
    let clocks: Vec<f64> = if config.clock_periods_ns.is_empty() {
        vec![config.clock_period_ns]
    } else {
        config.clock_periods_ns.clone()
    };
    let sweep = clocks.len() > 1;
    let u_axes: Vec<(&str, &[u32])> = grid
        .unroll
        .iter()
        .filter(|(_, v)| !v.is_empty())
        .map(|(l, v)| (l.as_str(), v.as_slice()))
        .collect();
    let ii_axes: Vec<(&str, &[Option<u32>])> = grid
        .pipeline
        .iter()
        .filter(|(_, v)| !v.is_empty())
        .map(|(l, v)| (l.as_str(), v.as_slice()))
        .collect();
    let u_lens: Vec<usize> = u_axes.iter().map(|(_, v)| v.len()).collect();
    let ii_lens: Vec<usize> = ii_axes.iter().map(|(_, v)| v.len()).collect();
    let u_combos = cross(&u_lens);
    let ii_combos = cross(&ii_lens);

    let mut candidates = Vec::new();
    for &clk in &clocks {
        let suffix = if sweep {
            format!(" @{clk}ns")
        } else {
            String::new()
        };
        for &policy in &config.merge_policies {
            for ui in &u_combos {
                let unroll: Vec<(&str, u32)> = u_axes
                    .iter()
                    .zip(ui)
                    .map(|(&(l, fs), &i)| (l, fs[i]))
                    .collect();
                let u_label: Vec<String> = unroll.iter().map(|(l, f)| format!("{l}={f}")).collect();
                for pi in &ii_combos {
                    let pipeline: Vec<(&str, Option<u32>)> = ii_axes
                        .iter()
                        .zip(pi)
                        .map(|(&(l, iis), &i)| (l, iis[i]))
                        .collect();
                    let d = Directives::new(clk)
                        .merge_policy(policy)
                        .grid_point(&unroll, &pipeline);
                    let mut label = format!("{policy:?} U[{}]", u_label.join(","));
                    if !pipeline.is_empty() {
                        let ii_label: Vec<String> = pipeline
                            .iter()
                            .map(|(l, ii)| match ii {
                                Some(ii) => format!("{l}={ii}"),
                                None => format!("{l}=-"),
                            })
                            .collect();
                        label.push_str(&format!(" II[{}]", ii_label.join(",")));
                    }
                    label.push_str(&suffix);
                    candidates.push((label, d));
                }
            }
        }
    }
    candidates
}

fn candidates_for(func: &Function, config: &ExploreConfig) -> Vec<(String, Directives)> {
    if let Some(grid) = &config.loop_grids {
        return grid_candidates(config, grid);
    }
    let labels = func.loop_labels();
    let clocks: Vec<f64> = if config.clock_periods_ns.is_empty() {
        vec![config.clock_period_ns]
    } else {
        config.clock_periods_ns.clone()
    };
    let sweep = clocks.len() > 1;
    let mut candidates: Vec<(String, Directives)> = Vec::new();

    for &clk in &clocks {
        let suffix = if sweep {
            format!(" @{clk}ns")
        } else {
            String::new()
        };
        for &policy in &config.merge_policies {
            for &u in &config.unroll_factors {
                let mut d = Directives::new(clk).merge_policy(policy);
                if u > 1 {
                    for l in &labels {
                        d = d.unroll(l, Unroll::Factor(u));
                    }
                }
                candidates.push((format!("{policy:?} U{u} (all loops){suffix}"), d));
                if config.per_loop_refinement && u > 1 {
                    for target in &labels {
                        let d = Directives::new(clk)
                            .merge_policy(policy)
                            .unroll(target, Unroll::Factor(u));
                        candidates.push((format!("{policy:?} U{u} ({target}){suffix}"), d));
                    }
                }
            }
        }
    }
    candidates
}

/// How many candidates the first pruning wave evaluates. Small enough
/// that the first completed points start pruning early; later waves grow
/// geometrically (×2 up to [`MAX_PRUNE_WAVE`]) so a 10k-point sweep is
/// not serialized into thousands of tiny barriers.
const PRUNE_WAVE: usize = 8;

/// The geometric wave-growth cap: large enough to keep every worker of
/// the pool saturated, small enough that fresh frontier points keep
/// feeding the prune check across a dense sweep.
const MAX_PRUNE_WAVE: usize = 512;

/// If every corner of the candidate's bound envelope is strictly
/// dominated by some completed frontier point, returns the dominating
/// jobs (deduplicated, in corner order); otherwise `None`.
///
/// Per-corner witnesses may differ. This is still sound: admissibility
/// guarantees some corner sits componentwise at-or-below the candidate's
/// actual point, so that corner's dominator `p` satisfies
/// `p ≤ corner ≤ actual` with strictness surviving on the strict axis —
/// `p` strictly dominates the actual point wherever it lands, and
/// anything the pruned point could have dominated, `p` dominates too
/// (transitivity through the corner). The frontier is unchanged.
fn dominating_witnesses(frontier: &[(u64, f64, usize)], b: &DesignBound) -> Option<Vec<usize>> {
    let mut witnesses: Vec<usize> = Vec::new();
    for &(cl, ca) in &b.corners {
        let &(_, _, job) = frontier
            .iter()
            .find(|&&(lat, area, _)| lat <= cl && area <= ca && (lat < cl || area < ca))?;
        if !witnesses.contains(&job) {
            witnesses.push(job);
        }
    }
    Some(witnesses)
}

/// Folds a completed point into the running frontier of completed points
/// — the only points the prune check needs to consult: any point they
/// weakly dominate can only strictly dominate a corner they also strictly
/// dominate. Keeping the scan list Pareto-minimal is what keeps the
/// per-corner witness search cheap across 10k-point sweeps.
fn push_frontier(frontier: &mut Vec<(u64, f64, usize)>, lat: u64, area: f64, job: usize) {
    if frontier.iter().any(|&(l, a, _)| l <= lat && a <= area) {
        return; // weakly dominated (or duplicate): adds no pruning power
    }
    frontier.retain(|&(l, a, _)| !(lat <= l && area <= a));
    frontier.push((lat, area, job));
}

/// The deterministic evaluation order under pruning: the latency-sorted
/// and area-sorted rankings of the bound minima, interleaved. Both ends
/// of the eventual frontier complete in the earliest waves, so the prune
/// check has extremal points to consult across the whole latency/area
/// span — not just one corner of it. Ties break on the lower index;
/// unbounded jobs (no transform prefix) run last in index order.
fn eval_order(bounds: &[Option<DesignBound>]) -> Vec<usize> {
    let n = bounds.len();
    let bounded: Vec<usize> = (0..n).filter(|&i| bounds[i].is_some()).collect();
    let mut by_lat = bounded.clone();
    by_lat.sort_by_key(|&i| (bounds[i].as_ref().expect("bounded").latency_cycles, i));
    let mut by_area = bounded;
    by_area.sort_by(|&i, &j| {
        let (bi, bj) = (
            bounds[i].as_ref().expect("bounded"),
            bounds[j].as_ref().expect("bounded"),
        );
        bi.area.total_cmp(&bj.area).then(i.cmp(&j))
    });
    let mut order = Vec::with_capacity(n);
    let mut used = vec![false; n];
    for k in 0..by_lat.len() {
        for &i in &[by_lat[k], by_area[k]] {
            if !used[i] {
                used[i] = true;
                order.push(i);
            }
        }
    }
    order.extend((0..n).filter(|&i| !used[i]));
    order
}

/// The resolution of one unique job after the wave loop: pruned (with the
/// bound envelope and the dominating jobs) or done.
enum Slot {
    Pruned(DesignBound, Vec<usize>),
    Done(Box<JobResult>),
}

fn explore_impl(
    func: &Function,
    config: &ExploreConfig,
    lib: &TechLibrary,
    parallel: bool,
    check: Option<&PointChecker<'_>>,
    observe: &TraceObserver<'_>,
) -> ExploreResult {
    let candidates = candidates_for(func, config);

    // Memoize: map every candidate to a unique job; duplicate knob
    // settings synthesize once and share the outcome.
    let mut uniques: Vec<&Directives> = Vec::new();
    let mut job_of_key: BTreeMap<String, usize> = BTreeMap::new();
    let job_of_candidate: Vec<usize> = candidates
        .iter()
        .map(|(_, d)| {
            *job_of_key.entry(canonical_key(d)).or_insert_with(|| {
                uniques.push(d);
                uniques.len() - 1
            })
        })
        .collect();

    // Prefix memoization, in two steps. Jobs are grouped by their prefix
    // key plus their FU limits, the one input `bound_profile` reads beyond
    // the key (clock sweeps hit this hard: every clock shares one group).
    // The function and library are hashed once per sweep, and each job
    // finishes a clone of that hasher. Skipped when the IR is invalid: the
    // pipeline's validate pass must report that, and transforms assume
    // validated IR.
    let hasher = hls_ir::validate(func)
        .is_empty()
        .then(|| passcache::prefix_hasher(func, lib));
    let mut groups: Vec<(&Directives, String)> = Vec::new();
    let mut group_of_key: BTreeMap<(String, &BTreeMap<String, u32>), usize> = BTreeMap::new();
    let group_of_job: Vec<Option<usize>> = uniques
        .iter()
        .map(|&d| {
            let key = passcache::finish_prefix_key(hasher.clone()?, d);
            Some(
                *group_of_key
                    .entry((key.clone(), &d.fu_limits))
                    .or_insert_with(|| {
                        groups.push((d, key));
                        groups.len() - 1
                    }),
            )
        })
        .collect();
    let transform_evaluations = groups.len();
    let cache = config.cache.as_deref();

    // Each group transforms once, across the worker pool, unless the
    // shared cache holds its prefix.
    let heads: Vec<Head> = par_map(parallel, groups.len(), |g| {
        let (d, key) = &groups[g];
        match cache.and_then(|c| c.get(key)) {
            Some(entry) => Head::Cached(entry),
            None => Head::Transformed(apply_loop_transforms(func, d)),
        }
    });

    // Then groups whose transform results and lowering inputs are equal
    // share one prefix: unroll factors at or above a loop's trip, or
    // merge policies that merge nothing, transform alike. Membership is
    // decided by `==` within buckets of cheap shape facts, which costs a
    // few microseconds where hashing a transformed design costs as much
    // as transforming it. A design's source is its first group with a
    // cached prefix, else its first group.
    let mut sources: Vec<usize> = Vec::new();
    let mut design_of_group: Vec<usize> = Vec::with_capacity(groups.len());
    let mut buckets: HashMap<(usize, usize, usize), Vec<usize>> = HashMap::new();
    for (g, head) in heads.iter().enumerate() {
        let t = head.transformed();
        let inputs = LoweringInputs::of(groups[g].0);
        let bucket = buckets
            .entry((t.func.vars.len(), t.func.body.len(), t.merges.len()))
            .or_default();
        let same = bucket.iter().copied().find(|&k| {
            let source = sources[k];
            LoweringInputs::of(groups[source].0) == inputs
                && same_transform(heads[source].transformed(), t)
        });
        let k = match same {
            Some(k) => {
                if matches!(head, Head::Cached(_))
                    && matches!(heads[sources[k]], Head::Transformed(_))
                {
                    sources[k] = g;
                }
                k
            }
            None => {
                sources.push(g);
                bucket.push(sources.len() - 1);
                sources.len() - 1
            }
        };
        design_of_group.push(k);
    }

    // Each design is lowered and optimized once (unless its prefix came
    // from the cache) and bounded once, across the worker pool, before any
    // job runs: pruning orders the jobs by their bounds.
    let budgeted = config.budget.is_some();
    let prefixes: Vec<Prefix> = par_map(parallel, sources.len(), |k| {
        let g = sources[k];
        let d = groups[g].0;
        let netlist = match &heads[g] {
            Head::Cached(entry) => Arc::clone(entry),
            Head::Transformed(t) => {
                let mut lowered = lower(&t.func, d);
                let report = optimize_lowered(&mut lowered, &d.netlist_opt, lib);
                Arc::new(NetlistEntry {
                    transformed: t.clone(),
                    lowered,
                    report,
                })
            }
        };
        let profile = budgeted.then(|| bound_profile(&netlist.lowered, d, lib));
        Prefix { netlist, profile }
    });
    let prefix_builds = sources
        .iter()
        .filter(|&&g| matches!(heads[g], Head::Transformed(_)))
        .count();
    // Every group that missed the cache publishes its design's prefix
    // under its own key, so a later lookup of any key that maps to the
    // design hits.
    if let Some(cache) = cache {
        for (g, head) in heads.iter().enumerate() {
            if matches!(head, Head::Transformed(_)) {
                cache.put(&groups[g].1, &prefixes[design_of_group[g]].netlist);
            }
        }
    }
    // Each design's prefix holds its own copy of its transform result, so
    // the groups' copies go before any job runs.
    drop(heads);
    let prefix_of_job: Vec<Option<usize>> = group_of_job
        .iter()
        .map(|g| g.map(|g| design_of_group[g]))
        .collect();

    let jobs: Vec<Job<'_>> = uniques
        .iter()
        .zip(&prefix_of_job)
        .map(|(d, p)| Job {
            directives: d,
            prefix: p.map(|k| &prefixes[k]),
        })
        .collect();

    let check = check.filter(|_| config.verify == VerifyLevel::All);

    // Bounds exist only under a budget and only for candidates whose
    // prefix was built (an invalid-IR run has nothing to bound — and
    // nothing to prune, since every job just reports the validation
    // error). Each is a cheap per-clock specialization of its prefix's
    // shared profile.
    let bounds: Vec<Option<DesignBound>> = jobs
        .iter()
        .map(|j| {
            let profile = j.prefix?.profile.as_ref()?;
            Some(bound_from_profile(profile, j.directives))
        })
        .collect();

    // A representative label per unique job (the first candidate that
    // mapped to it) — the name pruning reports as a dominating witness.
    let mut job_label: Vec<&str> = vec![""; jobs.len()];
    for ((label, _), &job) in candidates.iter().zip(&job_of_candidate) {
        if job_label[job].is_empty() {
            job_label[job] = label.as_str();
        }
    }

    // The wave loop. Without a budget there is a single wave holding every
    // job — exactly the old fan-out. With one, candidates run in
    // deterministic waves of geometrically growing size; before each wave,
    // candidates whose bound envelope is corner-for-corner strictly
    // dominated by points completed in *earlier* waves are pruned.
    // Consulting only earlier waves makes the prune set a function of the
    // candidate order alone, independent of thread timing, and dominated
    // candidates are interior by construction, so the frontier never
    // moves.
    let order: Vec<usize> = if config.budget.is_some() {
        eval_order(&bounds)
    } else {
        (0..jobs.len()).collect()
    };

    let mut slots: Vec<Option<Slot>> = (0..jobs.len()).map(|_| None).collect();
    let mut frontier: Vec<(u64, f64, usize)> = Vec::new();
    let mut wave_stats: Vec<WaveStats> = Vec::new();
    let mut start = 0usize;
    let mut wave_len = if config.budget.is_some() {
        PRUNE_WAVE
    } else {
        order.len().max(1)
    };
    while start < order.len() {
        let wave = &order[start..order.len().min(start + wave_len)];
        start += wave.len();
        wave_len = (wave_len * 2).clamp(1, MAX_PRUNE_WAVE);
        let mut to_run: Vec<usize> = Vec::new();
        for &i in wave {
            // Only a budget builds bounds, so only a budget prunes.
            let bound = bounds[i].as_ref();
            match bound.and_then(|b| dominating_witnesses(&frontier, b)) {
                Some(w) => {
                    let b = bound.expect("pruned jobs have bounds").clone();
                    slots[i] = Some(Slot::Pruned(b, w));
                }
                None => to_run.push(i),
            }
        }
        if config.budget.is_some() {
            wave_stats.push(WaveStats {
                evaluated: to_run.len(),
                pruned: wave.len() - to_run.len(),
            });
        }
        let results = par_map(parallel, to_run.len(), |k| {
            run_job(func, &jobs[to_run[k]], lib, check, observe)
        });
        for (&i, r) in to_run.iter().zip(results) {
            if let Ok((lat, area)) = &r.outcome {
                push_frontier(&mut frontier, *lat, *area, i);
            }
            slots[i] = Some(Slot::Done(Box::new(r)));
        }
    }
    let evaluations = slots
        .iter()
        .filter(|s| matches!(s, Some(Slot::Done(_))))
        .count();

    // Assemble in candidate order, exactly as the serial reference does,
    // harvesting the fused equivalence verdicts per point.
    let mut points = Vec::new();
    let mut failures = Vec::new();
    let mut verify_failures: Vec<(String, String)> = Vec::new();
    let mut pruned = Vec::new();
    for ((label, d), &job) in candidates.iter().zip(&job_of_candidate) {
        match slots[job].as_ref().expect("every job resolved") {
            Slot::Pruned(b, witnesses) => pruned.push(PrunedCandidate {
                label: label.clone(),
                latency_bound_cycles: b.latency_cycles,
                area_bound: b.area,
                corners: b.corners.clone(),
                dominated_by: witnesses
                    .iter()
                    .map(|&j| job_label[j].to_string())
                    .collect(),
            }),
            Slot::Done(r) => match &r.outcome {
                Ok((latency_cycles, area)) => {
                    if let Some(Err(msg)) = &r.check {
                        verify_failures.push((label.clone(), msg.clone()));
                    }
                    points.push(DesignPoint {
                        directives: d.clone(),
                        label: label.clone(),
                        latency_cycles: *latency_cycles,
                        area: *area,
                    });
                }
                Err(e) => failures.push((label.clone(), e.clone())),
            },
        }
    }

    ExploreResult {
        points,
        failures,
        evaluations,
        transform_evaluations,
        prefix_builds,
        verify_failures,
        pruned,
        wave_stats,
    }
}

/// Explores the design space of `func` under `config`.
///
/// Candidates are synthesized across all available cores; the result is
/// deterministic and identical to [`explore_serial`].
pub fn explore(func: &Function, config: &ExploreConfig, lib: &TechLibrary) -> ExploreResult {
    explore_impl(func, config, lib, true, None, &|_| {})
}

/// Explores on the current thread only — the single-threaded reference
/// path for [`explore`].
pub fn explore_serial(func: &Function, config: &ExploreConfig, lib: &TechLibrary) -> ExploreResult {
    explore_impl(func, config, lib, false, None, &|_| {})
}

/// [`explore`] with fused equivalence checking: at [`VerifyLevel::All`]
/// every unique feasible point is checked *inside* the synthesis worker
/// pool, against the [`SynthesisResult`] the explorer already built, so
/// proofs overlap synthesis. Failures land in
/// [`ExploreResult::verify_failures`]; the points themselves are kept so
/// callers can still see *what* was wrong with the frontier.
///
/// Checked directive sets are deduplicated by the same canonical key as
/// the synthesis memo cache, so candidates that alias one memo entry cost
/// one check.
pub fn explore_with_check(
    func: &Function,
    config: &ExploreConfig,
    lib: &TechLibrary,
    check: &PointChecker<'_>,
) -> ExploreResult {
    explore_impl(func, config, lib, true, Some(check), &|_| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::{CmpOp, Expr, FunctionBuilder, Ty};

    fn two_loops() -> Function {
        let mut b = FunctionBuilder::new("t");
        let x = b.param_array("x", Ty::fixed(10, 0), 8);
        let y = b.param_array("y", Ty::fixed(10, 0), 16);
        let out = b.param_scalar("out", Ty::fixed(20, 6));
        let a1 = b.local("a1", Ty::fixed(20, 6));
        let a2 = b.local("a2", Ty::fixed(20, 6));
        b.assign(a1, Expr::int_const(0));
        b.for_loop("l1", 0, CmpOp::Lt, 8, 1, |b, k| {
            b.assign(a1, Expr::add(Expr::var(a1), Expr::load(x, Expr::var(k))));
        });
        b.assign(a2, Expr::int_const(0));
        b.for_loop("l2", 0, CmpOp::Lt, 16, 1, |b, k| {
            b.assign(a2, Expr::add(Expr::var(a2), Expr::load(y, Expr::var(k))));
        });
        b.assign(out, Expr::add(Expr::var(a1), Expr::var(a2)));
        b.build()
    }

    #[test]
    fn exploration_finds_points_and_frontier() {
        let f = two_loops();
        let r = explore(&f, &ExploreConfig::default(), &TechLibrary::asic_100mhz());
        assert!(r.points.len() >= 6, "{} points", r.points.len());
        let pareto = r.pareto();
        assert!(!pareto.is_empty());
        // Frontier is sorted by latency and strictly improving in area.
        for w in pareto.windows(2) {
            assert!(w[0].latency_cycles <= w[1].latency_cycles);
            assert!(w[0].area >= w[1].area, "frontier must trade area for speed");
        }
        // The fastest point is on the frontier.
        let fastest = r.fastest().expect("points exist");
        assert!(pareto
            .iter()
            .any(|p| p.latency_cycles == fastest.latency_cycles));
    }

    #[test]
    fn dominance_is_strict() {
        let a = DesignPoint {
            directives: Directives::new(10.0),
            label: "a".into(),
            latency_cycles: 10,
            area: 100.0,
        };
        let b = DesignPoint {
            latency_cycles: 10,
            area: 100.0,
            label: "b".into(),
            ..a.clone()
        };
        assert!(!a.dominates(&b), "equal points do not dominate");
        let c = DesignPoint {
            latency_cycles: 9,
            area: 100.0,
            label: "c".into(),
            ..a.clone()
        };
        assert!(c.dominates(&a));
        assert!(!a.dominates(&c));
    }

    #[test]
    fn parallel_exploration_matches_serial_exactly() {
        let f = two_loops();
        let cfg = ExploreConfig::default();
        let lib = TechLibrary::asic_100mhz();
        let par = explore(&f, &cfg, &lib);
        let ser = explore_serial(&f, &cfg, &lib);
        assert_eq!(par.points.len(), ser.points.len());
        for (p, s) in par.points.iter().zip(&ser.points) {
            assert_eq!(p.label, s.label);
            assert_eq!(p.latency_cycles, s.latency_cycles);
            assert_eq!(p.area, s.area);
            assert_eq!(p.directives, s.directives);
        }
        assert_eq!(par.failures.len(), ser.failures.len());
        assert_eq!(par.evaluations, ser.evaluations);
        assert_eq!(par.transform_evaluations, ser.transform_evaluations);
        // Identical points imply an identical Pareto frontier.
        let fp: Vec<_> = par
            .pareto()
            .iter()
            .map(|p| (p.latency_cycles, p.area))
            .collect();
        let fs: Vec<_> = ser
            .pareto()
            .iter()
            .map(|p| (p.latency_cycles, p.area))
            .collect();
        assert_eq!(fp, fs);
    }

    #[test]
    fn duplicate_directives_synthesize_once() {
        // With a single loop, "U=n on all loops" and "U=n on l1" are the
        // same directive set — the memo cache must collapse them.
        let mut b = FunctionBuilder::new("one");
        let x = b.param_array("x", Ty::fixed(10, 0), 8);
        let out = b.param_scalar("out", Ty::fixed(16, 6));
        let acc = b.local("acc", Ty::fixed(16, 6));
        b.assign(acc, Expr::int_const(0));
        b.for_loop("l1", 0, CmpOp::Lt, 8, 1, |b, k| {
            b.assign(acc, Expr::add(Expr::var(acc), Expr::load(x, Expr::var(k))));
        });
        b.assign(out, Expr::var(acc));
        let f = b.build();
        let r = explore(&f, &ExploreConfig::default(), &TechLibrary::asic_100mhz());
        let total = r.points.len() + r.failures.len();
        assert!(
            r.evaluations < total,
            "expected memo hits: {} evaluations for {} candidates",
            r.evaluations,
            total
        );
        // Duplicates share the memoized outcome bit for bit.
        let all = r
            .points
            .iter()
            .find(|p| p.label.contains("all loops") && p.label.contains("U2"));
        let one = r
            .points
            .iter()
            .find(|p| p.label.contains("(l1)") && p.label.contains("U2"));
        let (all, one) = (all.expect("uniform point"), one.expect("refined point"));
        assert_eq!(all.latency_cycles, one.latency_cycles);
        assert_eq!(all.area, one.area);
    }

    #[test]
    fn canonical_key_ignores_insertion_order() {
        let a = Directives::new(10.0)
            .unroll("l1", Unroll::Factor(2))
            .unroll("l2", Unroll::Factor(4));
        let b = Directives::new(10.0)
            .unroll("l2", Unroll::Factor(4))
            .unroll("l1", Unroll::Factor(2));
        assert_eq!(canonical_key(&a), canonical_key(&b));
        let c = Directives::new(10.0).unroll("l1", Unroll::Factor(2));
        assert_ne!(canonical_key(&a), canonical_key(&c));
    }

    #[test]
    fn canonical_key_covers_every_directive_field() {
        use crate::directives::{ArrayMapping, InterfaceKind};
        use crate::netlist::OptLevel;
        use crate::tech::OpClass;
        let d = || Directives::new(10.0);
        let memory = ArrayMapping::Memory {
            read_ports: 1,
            write_ports: 1,
        };
        let variants = [
            Directives::new(10.5),
            d().merge_policy(MergePolicy::Off),
            d().unroll("l1", Unroll::Factor(2)),
            d().map_array("x", memory),
            d().interface("x", InterfaceKind::Stream),
            d().limit_fu(OpClass::Mul, 1),
            d().netlist_opt_level(OptLevel::Basic),
            d().stream_interface(2, false),
        ];
        for v in &variants {
            assert_ne!(canonical_key(v), canonical_key(&d()), "{v:?}");
        }
    }

    #[test]
    fn clock_sweep_shares_transform_prefixes() {
        let f = two_loops();
        let lib = TechLibrary::asic_100mhz();
        let one_clock = ExploreConfig::default();
        let swept = ExploreConfig {
            clock_periods_ns: vec![5.0, 10.0, 20.0],
            ..ExploreConfig::default()
        };
        let base = explore(&f, &one_clock, &lib);
        let r = explore(&f, &swept, &lib);
        // Three clocks triple the synthesis work but NOT the transform
        // work: the prefix memo collapses them onto one transform per
        // unique (merge, loops) combination.
        assert_eq!(r.evaluations, 3 * base.evaluations);
        assert_eq!(r.transform_evaluations, base.transform_evaluations);
        assert!(r.transform_evaluations < r.evaluations);
        // Every clock's points are present and labelled with their clock.
        for clk in ["@5ns", "@10ns", "@20ns"] {
            assert!(
                r.points.iter().any(|p| p.label.contains(clk)),
                "missing points for {clk}"
            );
        }
        // The 10 ns sweep slice agrees exactly with the single-clock run.
        for p in base.points.iter() {
            let swept_twin = r
                .points
                .iter()
                .find(|q| q.label == format!("{} @10ns", p.label))
                .expect("swept twin exists");
            assert_eq!(p.latency_cycles, swept_twin.latency_cycles);
            assert_eq!(p.area, swept_twin.area);
        }
    }

    #[test]
    fn seeded_transform_prefix_changes_no_point() {
        // The prefix memo must be invisible: points computed through the
        // seeded transform pass equal a fresh unseeded synthesis.
        let f = two_loops();
        let lib = TechLibrary::asic_100mhz();
        let r = explore(&f, &ExploreConfig::default(), &lib);
        assert!(r.transform_evaluations <= r.evaluations);
        for p in &r.points {
            let fresh = crate::synthesize::synthesize(&f, &p.directives, &lib).expect("feasible");
            assert_eq!(
                p.latency_cycles, fresh.metrics.latency_cycles,
                "{}",
                p.label
            );
            assert_eq!(p.area, fresh.metrics.area, "{}", p.label);
        }
    }

    #[test]
    fn netlist_opt_runs_once_per_prefix_key() {
        // The optimizer runs when a group's prefix is built; every
        // evaluated job, each clock twin included, replays that result.
        use std::sync::Mutex;
        let f = two_loops();
        let lib = TechLibrary::asic_100mhz();
        let cfg = ExploreConfig {
            clock_periods_ns: vec![5.0, 10.0, 20.0],
            ..ExploreConfig::default()
        };
        for parallel in [false, true] {
            let replayed: Mutex<Vec<bool>> = Mutex::new(Vec::new());
            let r = explore_impl(&f, &cfg, &lib, parallel, None, &|trace| {
                let record = trace
                    .passes
                    .iter()
                    .find(|p| p.pass == "netlist-opt")
                    .expect("every job reaches netlist-opt");
                replayed.lock().expect("no panics").push(record.memo_hit);
            });
            let replayed = replayed.into_inner().expect("no panics");
            assert_eq!(replayed.len(), r.evaluations);
            assert!(replayed.iter().all(|&hit| hit), "parallel: {parallel}");
            assert!(r.transform_evaluations < r.evaluations);
        }
    }

    #[test]
    fn merging_appears_on_the_frontier() {
        // For back-to-back independent loops, merging is pure win on
        // latency; the frontier must include a merged point as its fast end
        // relative to the unmerged rolled design.
        let f = two_loops();
        let cfg = ExploreConfig {
            unroll_factors: vec![1],
            merge_policies: vec![MergePolicy::Off, MergePolicy::AllowHazards],
            per_loop_refinement: false,
            ..ExploreConfig::default()
        };
        let r = explore(&f, &cfg, &TechLibrary::asic_100mhz());
        let off = r
            .points
            .iter()
            .find(|p| p.label.contains("Off"))
            .expect("off point");
        let merged = r
            .points
            .iter()
            .find(|p| p.label.contains("AllowHazards"))
            .expect("merged point");
        assert!(merged.latency_cycles < off.latency_cycles);
    }

    /// A clock sweep widened enough that bound-dominated candidates exist.
    fn swept_config() -> ExploreConfig {
        ExploreConfig {
            clock_periods_ns: vec![5.0, 10.0, 20.0],
            unroll_factors: vec![1, 2, 4, 8],
            ..ExploreConfig::default()
        }
    }

    #[test]
    fn budgeted_exploration_keeps_the_frontier_identical() {
        let f = two_loops();
        let lib = TechLibrary::asic_100mhz();
        let reference = explore_serial(&f, &swept_config(), &lib);
        let budgeted_cfg = ExploreConfig {
            budget: Some(ExploreBudget),
            ..swept_config()
        };
        let budgeted = explore(&f, &budgeted_cfg, &lib);
        // Pruning may drop dominated interior points but must preserve the
        // frontier, the fastest latency and the smallest area exactly.
        let rf: Vec<_> = reference
            .pareto()
            .iter()
            .map(|p| (p.latency_cycles, p.area))
            .collect();
        let bf: Vec<_> = budgeted
            .pareto()
            .iter()
            .map(|p| (p.latency_cycles, p.area))
            .collect();
        assert_eq!(rf, bf);
        assert_eq!(
            reference.fastest().map(|p| p.latency_cycles),
            budgeted.fastest().map(|p| p.latency_cycles)
        );
        assert_eq!(
            reference.smallest().map(|p| p.area),
            budgeted.smallest().map(|p| p.area)
        );
        // Every surviving budgeted point is bit-identical to its
        // reference twin.
        for p in &budgeted.points {
            let twin = reference
                .points
                .iter()
                .find(|q| q.label == p.label)
                .expect("twin exists");
            assert_eq!(p.latency_cycles, twin.latency_cycles, "{}", p.label);
            assert_eq!(p.area, twin.area, "{}", p.label);
        }
        // Points + pruned candidates + failures account for every
        // reference candidate.
        assert_eq!(
            budgeted.points.len() + budgeted.pruned.len() + budgeted.failures.len(),
            reference.points.len() + reference.failures.len()
        );
    }

    #[test]
    fn pruned_candidates_are_strictly_dominated() {
        let f = two_loops();
        let lib = TechLibrary::asic_100mhz();
        let cfg = ExploreConfig {
            budget: Some(ExploreBudget),
            ..swept_config()
        };
        let r = explore(&f, &cfg, &lib);
        // Soundness: every corner of each pruned candidate's envelope is
        // strictly dominated by some completed point (possibly different
        // per corner), so its actual point — componentwise at-or-above
        // some corner — could not have reached the frontier.
        for pc in &r.pruned {
            assert!(
                !pc.corners.is_empty(),
                "pruned `{}` has no corners",
                pc.label
            );
            for &(cl, ca) in &pc.corners {
                assert!(
                    r.points.iter().any(|p| {
                        p.latency_cycles <= cl
                            && p.area <= ca
                            && (p.latency_cycles < cl || p.area < ca)
                    }),
                    "pruned `{}` corner ({cl} cycles, {ca:.1} area) is not dominated",
                    pc.label,
                );
            }
            // The recorded witnesses name real completed points that do
            // the dominating.
            assert!(
                !pc.dominated_by.is_empty(),
                "`{}` has no witnesses",
                pc.label
            );
            for w in &pc.dominated_by {
                let witness =
                    r.points.iter().find(|p| &p.label == w).unwrap_or_else(|| {
                        panic!("witness `{w}` of `{}` is not a point", pc.label)
                    });
                assert!(pc.corners.iter().any(|&(cl, ca)| {
                    witness.latency_cycles <= cl
                        && witness.area <= ca
                        && (witness.latency_cycles < cl || witness.area < ca)
                }));
            }
        }
        // Evaluations count only the jobs that actually ran, and the wave
        // stats account for every unique job exactly once.
        let unbudgeted = explore(&f, &swept_config(), &lib);
        assert!(r.evaluations <= unbudgeted.evaluations);
        let evaluated: usize = r.wave_stats.iter().map(|w| w.evaluated).sum();
        let wave_pruned: usize = r.wave_stats.iter().map(|w| w.pruned).sum();
        assert_eq!(evaluated, r.evaluations);
        assert_eq!(evaluated + wave_pruned, unbudgeted.evaluations);
        assert!((0.0..=1.0).contains(&r.prune_rate()));
    }

    #[test]
    fn per_loop_grid_reaches_the_combinatorial_count() {
        let f = two_loops();
        let lib = TechLibrary::asic_100mhz();
        let grid = LoopGrid {
            unroll: vec![("l1".into(), vec![1, 2, 4]), ("l2".into(), vec![1, 2, 4])],
            pipeline: Vec::new(),
        };
        assert_eq!(grid.points_per_clock(), 9);
        let cfg = ExploreConfig {
            loop_grids: Some(grid),
            merge_policies: vec![MergePolicy::Off],
            ..ExploreConfig::default()
        };
        let r = explore(&f, &cfg, &lib);
        // 3 × 3 per-loop factors, one clock, one policy: every candidate
        // is a unique directive set and every label is distinct.
        assert_eq!(r.points.len() + r.failures.len(), 9);
        assert_eq!(r.evaluations, 9);
        let mut labels: Vec<&String> = r.points.iter().map(|p| &p.label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), r.points.len(), "grid labels are unique");
        // The asymmetric assignments the uniform sweep cannot reach exist.
        assert!(r.points.iter().any(|p| p.label.contains("U[l1=2,l2=4]")));
        // A grid point at the defaults memo-aliases the plain rolled
        // design: same metrics as the uniform sweep's U1 point.
        let uniform = explore(
            &f,
            &ExploreConfig {
                unroll_factors: vec![1],
                merge_policies: vec![MergePolicy::Off],
                per_loop_refinement: false,
                ..ExploreConfig::default()
            },
            &lib,
        );
        let rolled_grid = r
            .points
            .iter()
            .find(|p| p.label.contains("U[l1=1,l2=1]"))
            .expect("rolled grid point");
        let rolled_uniform = &uniform.points[0];
        assert_eq!(rolled_grid.latency_cycles, rolled_uniform.latency_cycles);
        assert_eq!(rolled_grid.area, rolled_uniform.area);
    }

    #[test]
    fn budgeted_grid_sweep_preserves_the_frontier() {
        let f = two_loops();
        let lib = TechLibrary::asic_100mhz();
        let cfg = ExploreConfig {
            clock_periods_ns: vec![5.0, 10.0, 20.0],
            loop_grids: Some(LoopGrid {
                unroll: vec![
                    ("l1".into(), vec![1, 2, 4, 8]),
                    ("l2".into(), vec![1, 2, 4, 8]),
                ],
                pipeline: vec![("l2".into(), vec![None, Some(2)])],
            }),
            ..ExploreConfig::default()
        };
        let reference = explore_serial(&f, &cfg, &lib);
        let budgeted = explore(
            &f,
            &ExploreConfig {
                budget: Some(ExploreBudget),
                ..cfg.clone()
            },
            &lib,
        );
        let rf: Vec<_> = reference
            .pareto()
            .iter()
            .map(|p| (p.latency_cycles, p.area))
            .collect();
        let bf: Vec<_> = budgeted
            .pareto()
            .iter()
            .map(|p| (p.latency_cycles, p.area))
            .collect();
        assert_eq!(rf, bf, "budgeted grid sweep moved the frontier");
        // Pruning fires on a grid this dense, and every candidate is
        // accounted for: a point, a failure, or a pruned record.
        assert!(!budgeted.pruned.is_empty(), "no pruning on a dense grid");
        assert_eq!(
            budgeted.points.len() + budgeted.pruned.len() + budgeted.failures.len(),
            reference.points.len() + reference.failures.len()
        );
    }

    #[test]
    fn budgeted_pruning_is_deterministic_across_serial_and_parallel() {
        // Pruning consults only points completed in earlier waves, so the
        // full result (points, pruned set, evaluations, wave stats) is
        // identical regardless of threading.
        let f = two_loops();
        let lib = TechLibrary::asic_100mhz();
        let cfg = swept_config().budgeted();
        let par = explore(&f, &cfg, &lib);
        let ser = explore_serial(&f, &cfg, &lib);
        let key = |r: &ExploreResult| {
            (
                r.points
                    .iter()
                    .map(|p| (p.label.clone(), p.latency_cycles, p.area))
                    .collect::<Vec<_>>(),
                r.pruned.iter().map(|p| p.label.clone()).collect::<Vec<_>>(),
                r.evaluations,
                r.wave_stats.clone(),
            )
        };
        assert!(!par.pruned.is_empty(), "the swept config prunes");
        assert_eq!(key(&par), key(&ser));
    }

    /// A 16-tap FIR: a delay-line shift loop (15 trips) and a
    /// multiply-accumulate loop (16 trips) that never merge.
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

    const QAM_DECODER: &str = include_str!("../../qam/src/qam_decoder.cpp");

    /// The pipeline corpus's FIR sweep: unroll {1, 2, 4} on both loops,
    /// three clocks, both merge policies, budgeted.
    fn fir_sweep() -> ExploreConfig {
        ExploreConfig {
            clock_periods_ns: vec![8.0, 12.0, 16.0],
            loop_grids: Some(LoopGrid {
                unroll: vec![
                    ("shift".into(), vec![1, 2, 4]),
                    ("mac".into(), vec![1, 2, 4]),
                ],
                pipeline: Vec::new(),
            }),
            ..ExploreConfig::default()
        }
        .budgeted()
    }

    /// Everything a sweep returns that does not depend on timing.
    fn answer(r: &ExploreResult) -> String {
        let points: Vec<_> = r
            .points
            .iter()
            .map(|p| (&p.label, p.latency_cycles, p.area.to_bits()))
            .collect();
        let failures: Vec<_> = r.failures.iter().map(|(l, e)| (l, e.code())).collect();
        let pruned: Vec<_> = r
            .pruned
            .iter()
            .map(|p| (&p.label, &p.corners, &p.dominated_by))
            .collect();
        format!(
            "{points:?} {failures:?} {pruned:?} {:?} {} {} {}",
            r.wave_stats, r.evaluations, r.transform_evaluations, r.prefix_builds
        )
    }

    #[test]
    fn fir_sweep_builds_one_prefix_per_distinct_design() {
        // The FIR's loops never merge, so both merge policies transform
        // every unroll pair alike: 18 groups, 9 designs.
        let f = hls_ir::parse_function(FIR16).expect("parses");
        let r = explore(&f, &fir_sweep(), &TechLibrary::asic_100mhz());
        assert_eq!(r.transform_evaluations, 18);
        assert_eq!(r.prefix_builds, 9);
    }

    #[test]
    fn decoder_sweep_builds_every_distinct_design() {
        // The pipeline corpus's decoder sweep: its 30 groups transform to
        // 30 distinct designs, so nothing is shared and nothing is lost.
        let f = hls_ir::parse_function(QAM_DECODER).expect("parses");
        let cfg = ExploreConfig {
            clock_period_ns: 5.0,
            clock_periods_ns: vec![5.0, 10.0, 20.0],
            ..ExploreConfig::default()
        }
        .budgeted();
        let r = explore(&f, &cfg, &TechLibrary::asic_100mhz());
        assert_eq!(r.transform_evaluations, 30);
        assert_eq!(r.prefix_builds, 30);
    }

    #[test]
    fn unroll_factors_at_or_above_the_trip_share_one_build() {
        // `l1` runs 8 trips: factors 8 and 16 both unroll it fully.
        let f = two_loops();
        let grid = |factors: Vec<u32>| ExploreConfig {
            merge_policies: vec![MergePolicy::Off],
            loop_grids: Some(LoopGrid {
                unroll: vec![("l1".into(), factors)],
                pipeline: Vec::new(),
            }),
            ..ExploreConfig::default()
        };
        let lib = TechLibrary::asic_100mhz();
        let shared = explore(&f, &grid(vec![8, 16]), &lib);
        assert_eq!((shared.transform_evaluations, shared.prefix_builds), (2, 1));
        let distinct = explore(&f, &grid(vec![2, 4]), &lib);
        assert_eq!(
            (distinct.transform_evaluations, distinct.prefix_builds),
            (2, 2)
        );
        let (p8, p16) = (&shared.points[0], &shared.points[1]);
        assert_eq!((p8.latency_cycles, p8.area), (p16.latency_cycles, p16.area));
    }

    #[test]
    fn pipeline_iis_never_share_a_build() {
        // The unroll axis alone would share one build; every II of `l2`
        // needs its own lowering.
        let f = two_loops();
        let cfg = ExploreConfig {
            merge_policies: vec![MergePolicy::Off],
            loop_grids: Some(LoopGrid {
                unroll: vec![("l1".into(), vec![8, 16])],
                pipeline: vec![("l2".into(), vec![None, Some(1), Some(2)])],
            }),
            ..ExploreConfig::default()
        };
        let lib = TechLibrary::asic_100mhz();
        let r = explore(&f, &cfg, &lib);
        assert_eq!((r.transform_evaluations, r.prefix_builds), (6, 3));
        for p in &r.points {
            let fresh = crate::synthesize::synthesize(&f, &p.directives, &lib).expect("feasible");
            assert_eq!(
                p.latency_cycles, fresh.metrics.latency_cycles,
                "{}",
                p.label
            );
        }
    }

    #[test]
    fn shared_builds_replay_exactly_what_a_fresh_synthesis_builds() {
        // Every evaluated point of sweeps that share builds is the very
        // design a fresh synthesis of its directives builds.
        use std::sync::atomic::AtomicUsize;
        let lib = TechLibrary::asic_100mhz();
        let two = two_loops();
        let fir = hls_ir::parse_function(FIR16).expect("parses");
        let grid = ExploreConfig {
            loop_grids: Some(LoopGrid {
                unroll: vec![("l1".into(), vec![1, 8, 16])],
                pipeline: vec![("l2".into(), vec![None, Some(2)])],
            }),
            ..ExploreConfig::default()
        };
        for (f, cfg) in [(&fir, fir_sweep()), (&two, grid)] {
            let cfg = ExploreConfig {
                verify: VerifyLevel::All,
                ..cfg
            };
            let checked = AtomicUsize::new(0);
            let r = explore_with_check(f, &cfg, &lib, &|func, d, l, result| {
                let fresh = crate::synthesize::synthesize(func, d, l).expect("feasible");
                assert_eq!(result.transformed, fresh.transformed);
                assert_eq!(result.merges, fresh.merges);
                assert_eq!(result.lowered, fresh.lowered);
                assert_eq!(result.schedules, fresh.schedules);
                assert_eq!(result.allocation, fresh.allocation);
                assert_eq!(result.metrics.latency_cycles, fresh.metrics.latency_cycles);
                assert_eq!(result.metrics.area.to_bits(), fresh.metrics.area.to_bits());
                checked.fetch_add(1, Ordering::Relaxed);
                Ok(())
            });
            assert!(r.prefix_builds < r.transform_evaluations);
            assert_eq!(checked.into_inner(), r.evaluations);
            assert!(r.verify_failures.is_empty());
        }
    }

    #[test]
    fn shared_builds_keep_serial_and_parallel_sweeps_identical() {
        let lib = TechLibrary::asic_100mhz();
        let fir = hls_ir::parse_function(FIR16).expect("parses");
        let par = explore(&fir, &fir_sweep(), &lib);
        let ser = explore_serial(&fir, &fir_sweep(), &lib);
        assert!(!par.pruned.is_empty());
        assert_eq!(answer(&par), answer(&ser));
    }

    #[test]
    fn a_cached_sweep_publishes_every_key_and_replays_them_all() {
        // The cold sweep looks up all 18 keys, builds the 9 designs and
        // publishes each under every key that maps to it; the warm sweep
        // hits every key and builds nothing.
        let lib = TechLibrary::asic_100mhz();
        let fir = hls_ir::parse_function(FIR16).expect("parses");
        let cache = Arc::new(crate::passcache::PassCache::default());
        let cfg = ExploreConfig {
            cache: Some(Arc::clone(&cache)),
            ..fir_sweep()
        };
        let uncached = explore(&fir, &fir_sweep(), &lib);
        let cold = explore(&fir, &cfg, &lib);
        let s = cache.stats();
        assert_eq!((s.misses, s.inserts, s.hits), (18, 18, 0));
        assert_eq!(cold.prefix_builds, 9);
        let warm = explore(&fir, &cfg, &lib);
        assert_eq!(cache.stats().hits, 18);
        assert_eq!(warm.prefix_builds, 0);
        let timing_free = |r: &ExploreResult| answer(r).rsplit_once(' ').unwrap().0.to_string();
        assert_eq!(timing_free(&cold), timing_free(&uncached));
        assert_eq!(timing_free(&warm), timing_free(&uncached));
        // Whatever key a prefix was published under, it is the prefix a
        // synthesis under that key builds.
        for p in &cold.points {
            let key = crate::passcache::prefix_key(&fir, &p.directives, &lib);
            let entry = cache.get(&key).expect("published");
            let t = apply_loop_transforms(&fir, &p.directives);
            let mut lowered = lower(&t.func, &p.directives);
            let report = optimize_lowered(&mut lowered, &p.directives.netlist_opt, &lib);
            assert_eq!(entry.transformed.func, t.func, "{}", p.label);
            assert_eq!(entry.lowered, lowered, "{}", p.label);
            assert_eq!(entry.report, report, "{}", p.label);
        }
    }

    #[test]
    fn fused_all_checker_sees_the_real_synthesis_result() {
        use std::sync::Mutex;
        let f = two_loops();
        let lib = TechLibrary::asic_100mhz();
        let cfg = ExploreConfig {
            verify: VerifyLevel::All,
            ..ExploreConfig::default()
        };
        let seen: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let r = explore_with_check(&f, &cfg, &lib, &|func, d, l, result| {
            // The stored result must be the very design a fresh synthesis
            // builds: the same optimized netlist, schedules and allocation
            // (a prefix replayed for the wrong directives cannot pass), and
            // so the same metrics.
            let fresh = crate::synthesize::synthesize(func, d, l).expect("feasible");
            assert_eq!(result.lowered, fresh.lowered);
            assert_eq!(result.schedules, fresh.schedules);
            assert_eq!(result.allocation, fresh.allocation);
            assert_eq!(result.metrics.latency_cycles, fresh.metrics.latency_cycles);
            assert_eq!(result.metrics.area, fresh.metrics.area);
            seen.lock()
                .expect("no panics")
                .push(format!("{:?}", d.merge_policy));
            if d.merge_policy == MergePolicy::AllowHazards {
                Err("rejected for the test".into())
            } else {
                Ok(())
            }
        });
        // Each unique feasible job was checked exactly once.
        assert_eq!(seen.lock().expect("no panics").len(), r.evaluations);
        // Every AllowHazards point (and only those) failed.
        let failed: Vec<&String> = r.verify_failures.iter().map(|(l, _)| l).collect();
        for p in &r.points {
            assert_eq!(
                failed.contains(&&p.label),
                p.directives.merge_policy == MergePolicy::AllowHazards,
                "{}",
                p.label
            );
        }
    }
}
