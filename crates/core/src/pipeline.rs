//! The pass-manager pipeline: synthesis as an explicit, instrumented
//! sequence of passes.
//!
//! The paper's methodology is one C source plus *directives* flowing
//! through interface synthesis, loop transforms, scheduling and
//! allocation. This module makes that flow first-class: each step is a
//! [`Pass`] over a typed [`PipelineState`] (IR → transformed → lowered →
//! scheduled → allocated → RTL artifacts), run by a [`Pipeline`] that
//! records per-pass wall time and IR stat deltas ([`PassTrace`]), stamps
//! structured [`Diagnostic`]s with their pass of origin, optionally
//! re-validates the IR after every IR-mutating pass
//! ([`PipelineConfig::check_invariants`]), and lets downstream crates
//! observe every step through [`PassHook`]s (the `hls-verify` crate hangs
//! its equivalence gate off one).
//!
//! [`synthesize`](crate::synthesize), `explore`, the RTL backend's
//! compile flow and the decoder harnesses are all built on this manager;
//! [`synthesize_traced`] is the entry point that also returns the trace.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use hls_ir::diag::json_str;
use hls_ir::{Diagnostic, Diagnostics, Expr, Function, Stmt};

use crate::allocate::{allocate, Allocation};
use crate::directives::Directives;
use crate::error::SynthesisError;
use crate::lower::{lower, Lowered, Segment};
use crate::metrics::{segment_cycles, DesignMetrics};
use crate::netlist::optimize_lowered;
use crate::passcache::{self, NetlistEntry, PassCache};
use crate::schedule::{recurrence_min_ii, schedule_dfg, Schedule};
use crate::synthesize::SynthesisResult;
use crate::tech::TechLibrary;
use crate::transform::{apply_loop_transforms, MergeReport, TransformResult};

// ---------------------------------------------------------------------------
// State
// ---------------------------------------------------------------------------

/// Everything a synthesis run carries between passes.
///
/// The typed slots fill in pipeline order: `func` holds the input IR and
/// is replaced by the transformed IR; `lowered`, `schedules`,
/// `allocation` and `metrics` start empty and are populated by their
/// passes. RTL-level passes (which live downstream in the `rtl` crate)
/// stash their products in the typed-by-key [`artifacts`] map.
///
/// [`artifacts`]: PipelineState::artifacts
pub struct PipelineState {
    /// The directives guiding this run.
    pub directives: Directives,
    /// The technology library.
    pub lib: TechLibrary,
    /// The current IR (input, then transformed in place by passes).
    pub func: Function,
    /// Merges performed by the transform pass.
    pub merges: Vec<MergeReport>,
    /// The lowered design, once lowering has run.
    pub lowered: Option<Lowered>,
    /// One schedule per segment, once scheduling has run.
    pub schedules: Option<Vec<Schedule>>,
    /// The allocation, once allocation has run.
    pub allocation: Option<Allocation>,
    /// Headline metrics, once the metrics pass has run.
    pub metrics: Option<DesignMetrics>,
    /// Opaque artifacts for downstream passes (FSMD, compiled simulation,
    /// Verilog), keyed by a stable name.
    pub artifacts: BTreeMap<&'static str, Box<dyn Any + Send>>,
    /// The prefix cache `loop-transforms` consults and `netlist-opt`
    /// publishes to (populated from [`PipelineConfig::cache`] when the
    /// run starts).
    pub cache: Option<Arc<PassCache>>,
    /// Exact prefix-cache activity of *this* run (the shared cache's own
    /// counters aggregate concurrent runs).
    pub cache_events: CacheActivity,
    /// The prefix this run replays: `loop-transforms`, `lower` and
    /// `netlist-opt` install its transform result and optimized design
    /// as memo hits instead of computing them. Filled by
    /// [`synthesize_traced_with_prefix`], or by `loop-transforms` on a
    /// cache hit.
    pub prefix: Option<Arc<NetlistEntry>>,
}

impl PipelineState {
    /// A fresh state holding the input IR.
    pub fn new(func: &Function, directives: &Directives, lib: &TechLibrary) -> Self {
        PipelineState {
            directives: directives.clone(),
            lib: lib.clone(),
            func: func.clone(),
            merges: Vec::new(),
            lowered: None,
            schedules: None,
            allocation: None,
            metrics: None,
            artifacts: BTreeMap::new(),
            cache: None,
            cache_events: CacheActivity::default(),
            prefix: None,
        }
    }

    /// The function the next pass should operate on: the lowered (staged)
    /// function once lowering has run, the transformed function before.
    pub fn current_func(&self) -> &Function {
        self.lowered.as_ref().map(|l| &l.func).unwrap_or(&self.func)
    }

    /// Stores a typed artifact under `key`, replacing any previous one.
    pub fn put_artifact<T: Any + Send>(&mut self, key: &'static str, value: T) {
        self.artifacts.insert(key, Box::new(value));
    }

    /// Borrows the artifact stored under `key`, if present and of type `T`.
    pub fn artifact<T: Any + Send>(&self, key: &str) -> Option<&T> {
        self.artifacts.get(key).and_then(|b| b.downcast_ref())
    }

    /// Removes and returns the artifact stored under `key`.
    pub fn take_artifact<T: Any + Send>(&mut self, key: &str) -> Option<T> {
        let boxed = self.artifacts.remove(key)?;
        match boxed.downcast::<T>() {
            Ok(v) => Some(*v),
            Err(_) => None,
        }
    }

    /// Assembles the classic [`SynthesisResult`] from a completed run.
    /// Returns `None` while any slot is still empty.
    pub fn to_result(&self) -> Option<SynthesisResult> {
        Some(SynthesisResult {
            transformed: self.func.clone(),
            lowered: self.lowered.clone()?,
            schedules: self.schedules.clone()?,
            allocation: self.allocation.clone()?,
            metrics: self.metrics.clone()?,
            merges: self.merges.clone(),
        })
    }

    /// Snapshot of the observable size of the design at this point.
    pub fn stats(&self) -> IrStats {
        let func = self.current_func();
        let mut ops = 0usize;
        for s in &func.body {
            count_stmt_ops(s, &mut ops);
        }
        IrStats {
            ops,
            loops: func.loops().len(),
            segments: self.lowered.as_ref().map(|l| l.segments.len()).unwrap_or(0),
            cells: self
                .lowered
                .as_ref()
                .map(|l| l.segments.iter().map(|s| s.dfg().len()).sum())
                .unwrap_or(0),
            fus: self
                .allocation
                .as_ref()
                .map(|a| a.fu_groups.iter().map(|g| g.count).sum())
                .unwrap_or(0),
        }
    }
}

fn count_expr_ops(e: &Expr, ops: &mut usize) {
    match e {
        Expr::Const(_) | Expr::ConstBool(_) | Expr::Var(_) => {}
        Expr::Load { index, .. } => {
            *ops += 1;
            count_expr_ops(index, ops);
        }
        Expr::Unary { arg, .. } | Expr::Cast { arg, .. } => {
            *ops += 1;
            count_expr_ops(arg, ops);
        }
        Expr::Binary { lhs, rhs, .. } | Expr::Compare { lhs, rhs, .. } => {
            *ops += 1;
            count_expr_ops(lhs, ops);
            count_expr_ops(rhs, ops);
        }
        Expr::Select { cond, then_, else_ } => {
            *ops += 1;
            count_expr_ops(cond, ops);
            count_expr_ops(then_, ops);
            count_expr_ops(else_, ops);
        }
    }
}

fn count_stmt_ops(s: &Stmt, ops: &mut usize) {
    match s {
        Stmt::Assign { value, .. } => {
            *ops += 1; // the register write itself
            count_expr_ops(value, ops);
        }
        Stmt::Store { index, value, .. } => {
            *ops += 1;
            count_expr_ops(index, ops);
            count_expr_ops(value, ops);
        }
        Stmt::For(l) => {
            for s in &l.body {
                count_stmt_ops(s, ops);
            }
        }
        Stmt::If { cond, then_, else_ } => {
            count_expr_ops(cond, ops);
            for s in then_.iter().chain(else_) {
                count_stmt_ops(s, ops);
            }
        }
    }
}

/// Observable design size at one point in the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IrStats {
    /// Expression operations (including register writes) in the IR.
    pub ops: usize,
    /// Loops remaining in the IR.
    pub loops: usize,
    /// Lowered segments (0 before lowering).
    pub segments: usize,
    /// Netlist cells across all lowered segment DFGs (0 before lowering).
    pub cells: usize,
    /// Allocated functional-unit instances (0 before allocation).
    pub fus: u32,
}

impl IrStats {
    fn json_fields(&self) -> String {
        format!(
            "\"ops\":{},\"loops\":{},\"segments\":{},\"cells\":{},\"fus\":{}",
            self.ops, self.loops, self.segments, self.cells, self.fus
        )
    }
}

// ---------------------------------------------------------------------------
// Pass trait, hooks, config
// ---------------------------------------------------------------------------

/// One step of the synthesis flow.
pub trait Pass {
    /// Stable kebab-case pass name; shows up in traces and as the
    /// diagnostics' pass of origin.
    fn name(&self) -> &'static str;

    /// `true` when the pass rewrites the IR (triggers post-pass
    /// re-validation under [`PipelineConfig::check_invariants`]).
    fn mutates_ir(&self) -> bool {
        false
    }

    /// Names of passes that must have run (and be enabled) earlier in the
    /// sequence for this pass to be meaningful. The manager validates the
    /// whole sequence against these before running anything and rejects
    /// unsatisfiable configurations (e.g. schedule with lower disabled)
    /// with an `invalid-pipeline-config` diagnostic instead of letting a
    /// pass panic on an empty state slot.
    fn requires(&self) -> &'static [&'static str] {
        &[]
    }

    /// Runs the pass. Warnings and notes go into `diags`; a returned
    /// error aborts the pipeline (the manager records it both as the
    /// typed error and as a stamped diagnostic).
    fn run(&self, state: &mut PipelineState, diags: &mut Diagnostics)
        -> Result<(), SynthesisError>;
}

/// An observer invoked after every successful pass — the seam through
/// which downstream crates (equivalence checking, logging, metrics
/// export) watch a run without being passes themselves. A hook may push
/// error diagnostics to abort the remainder of the pipeline.
pub trait PassHook {
    /// Called after `pass` ran successfully on `state`.
    fn after_pass(&self, pass: &str, state: &PipelineState, diags: &mut Diagnostics);
}

/// Pipeline behaviour knobs.
#[derive(Debug, Clone, Default)]
pub struct PipelineConfig {
    /// Re-run `hls_ir::validate` on the current function after every
    /// IR-mutating pass; a violation aborts with an `invalid-ir`
    /// diagnostic naming the offending pass. Passes satisfied from a memo
    /// cache are *not* re-walked (their result was validated when first
    /// computed); the trace records them as [`InvariantCheck::Cached`].
    pub check_invariants: bool,
    /// Pass names to skip. The manager validates that no *enabled* pass
    /// [`requires`](Pass::requires) a disabled or missing one before the
    /// run starts; violations abort with `invalid-pipeline-config`.
    pub disabled_passes: Vec<String>,
    /// A shared prefix cache. When set, `loop-transforms` looks the run's
    /// prefix up before computing, a hit replays `loop-transforms`,
    /// `lower` and `netlist-opt` as memo hits, and on a miss
    /// `netlist-opt` publishes the prefix it computed. A pipeline that
    /// disables one of those three passes leaves the cache alone.
    /// `schedule` and `allocate` read the clock and always run. `None`
    /// (the default) runs every pass cold.
    pub cache: Option<Arc<PassCache>>,
    /// Skip the per-pass [`IrStats`] snapshots in the trace (they read as
    /// all-zero). Walking the design before and after every pass costs
    /// more than a fully memo-served run does; bulk drivers that only
    /// consume timings and memo flags — the design-space explorer — turn
    /// the walks off. Off by default: interactive traces keep their stats.
    pub skip_trace_stats: bool,
}

impl PipelineConfig {
    /// The checked configuration: invariants re-validated after every
    /// IR-mutating pass.
    pub fn checked() -> Self {
        PipelineConfig {
            check_invariants: true,
            ..PipelineConfig::default()
        }
    }

    /// The front-end-only preset: validation, directive checking and loop
    /// transforms run; lowering, scheduling, allocation and metrics are
    /// disabled. Useful for inspecting the transformed IR (or timing the
    /// transform prefix) without paying for the back end.
    pub fn transform_only() -> Self {
        PipelineConfig::default()
            .without_pass("lower")
            .without_pass("netlist-opt")
            .without_pass("schedule")
            .without_pass("allocate")
            .without_pass("metrics")
    }

    /// Disables the named pass (builder style).
    pub fn without_pass(mut self, name: &str) -> Self {
        if !self.disabled_passes.iter().any(|p| p == name) {
            self.disabled_passes.push(name.to_string());
        }
        self
    }

    /// Whether the named pass is enabled under this configuration.
    pub fn is_enabled(&self, name: &str) -> bool {
        !self.disabled_passes.iter().any(|p| p == name)
    }
}

/// Whether (and how) post-pass invariant re-validation ran for one pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InvariantCheck {
    /// Not checked (disabled, pass does not mutate IR, or the pass aborted).
    #[default]
    NotRun,
    /// The IR was re-validated after the pass.
    Checked,
    /// The pass was a memo hit; its result was validated when first
    /// computed, so the re-walk was skipped.
    Cached,
}

impl InvariantCheck {
    /// JSON value: `true`, `false`, or `"cached"`.
    fn json_value(self) -> &'static str {
        match self {
            InvariantCheck::NotRun => "false",
            InvariantCheck::Checked => "true",
            InvariantCheck::Cached => "\"cached\"",
        }
    }
}

// ---------------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------------

/// Prefix-cache lookups, misses and insertions attributable to one run:
/// at most one lookup and one insertion.
///
/// Counted by the run itself (not diffed from the shared cache's global
/// counters), so the numbers stay exact when many runs share one cache
/// concurrently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheActivity {
    /// Prefixes served from the cache.
    pub hits: u64,
    /// Prefix lookups that found nothing.
    pub misses: u64,
    /// Prefixes published to the cache.
    pub inserts: u64,
}

/// What one pass did and cost.
#[derive(Debug, Clone)]
pub struct PassRecord {
    /// The pass name.
    pub pass: String,
    /// Wall time in nanoseconds.
    pub wall_ns: u64,
    /// Design stats before the pass.
    pub before: IrStats,
    /// Design stats after the pass.
    pub after: IrStats,
    /// Diagnostics emitted during the pass (including by hooks).
    pub diagnostics: usize,
    /// Whether post-pass invariant re-validation ran (or was skipped
    /// because the pass was satisfied from a validated memo entry).
    pub invariants_checked: InvariantCheck,
    /// Whether the pass was satisfied from a memo cache (shared prefix).
    pub memo_hit: bool,
}

/// The machine-readable record of one pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PassTrace {
    /// Design name (the function's).
    pub design: String,
    /// One record per executed pass, in order.
    pub passes: Vec<PassRecord>,
    /// Total wall time in nanoseconds.
    pub total_ns: u64,
    /// Prefix-cache activity of this run (all zero when no cache was
    /// attached).
    pub cache: CacheActivity,
}

impl PassTrace {
    /// Renders the trace as a JSON object (stable schema, documented in
    /// DESIGN.md under "Pipeline & diagnostics").
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"design\":{}", json_str(&self.design)));
        s.push_str(&format!(",\"total_ns\":{}", self.total_ns));
        s.push_str(&format!(
            ",\"cache\":{{\"hits\":{},\"misses\":{},\"inserts\":{}}}",
            self.cache.hits, self.cache.misses, self.cache.inserts
        ));
        s.push_str(",\"passes\":[");
        for (i, p) in self.passes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"pass\":{},\"wall_ns\":{},\"before\":{{{}}},\"after\":{{{}}},\
                 \"diagnostics\":{},\"invariants_checked\":{},\"memo_hit\":{}}}",
                json_str(&p.pass),
                p.wall_ns,
                p.before.json_fields(),
                p.after.json_fields(),
                p.diagnostics,
                p.invariants_checked.json_value(),
                p.memo_hit,
            ));
        }
        s.push_str("]}");
        s
    }

    /// Renders a human-readable per-pass report.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "pipeline `{}`: {} passes, {:.3} ms",
            self.design,
            self.passes.len(),
            self.total_ns as f64 / 1e6
        );
        let _ = writeln!(
            out,
            "{:<16} {:>9} {:>7} {:>6} {:>5} {:>8} {:>4} {:>6} {:>5}",
            "pass", "time(us)", "ops", "loops", "segs", "cells", "FUs", "diags", "memo"
        );
        for p in &self.passes {
            let delta = |b: i64, a: i64| -> String {
                if a == b {
                    format!("{a}")
                } else {
                    format!("{a}({:+})", a - b)
                }
            };
            let _ = writeln!(
                out,
                "{:<16} {:>9.1} {:>7} {:>6} {:>5} {:>8} {:>4} {:>6} {:>5}",
                p.pass,
                p.wall_ns as f64 / 1e3,
                delta(p.before.ops as i64, p.after.ops as i64),
                delta(p.before.loops as i64, p.after.loops as i64),
                delta(p.before.segments as i64, p.after.segments as i64),
                delta(p.before.cells as i64, p.after.cells as i64),
                delta(p.before.fus as i64, p.after.fus as i64),
                p.diagnostics,
                if p.memo_hit { "hit" } else { "-" },
            );
        }
        out
    }
}

/// Everything a pipeline run reports besides the design itself.
#[derive(Debug, Clone, Default)]
pub struct PipelineRun {
    /// Per-pass observability record.
    pub trace: PassTrace,
    /// Every diagnostic emitted, stamped with its pass of origin.
    pub diagnostics: Diagnostics,
    /// The typed error that aborted the run, if any.
    pub error: Option<SynthesisError>,
}

// ---------------------------------------------------------------------------
// The manager
// ---------------------------------------------------------------------------

/// An ordered pass sequence plus hooks and configuration.
pub struct Pipeline<'a> {
    passes: Vec<Box<dyn Pass + 'a>>,
    hooks: Vec<&'a dyn PassHook>,
    config: PipelineConfig,
}

impl<'a> Pipeline<'a> {
    /// An empty pipeline under `config`.
    pub fn new(config: PipelineConfig) -> Self {
        Pipeline {
            passes: Vec::new(),
            hooks: Vec::new(),
            config,
        }
    }

    /// The standard synthesis pipeline: validate → check-directives →
    /// loop-transforms → lower → netlist-opt → schedule → allocate →
    /// metrics.
    pub fn synthesis(config: PipelineConfig) -> Self {
        Pipeline::new(config)
            .with_pass(ValidateIrPass)
            .with_pass(CheckDirectivesPass)
            .with_pass(LoopTransformsPass)
            .with_pass(LowerPass)
            .with_pass(NetlistOptPass)
            .with_pass(SchedulePass)
            .with_pass(AllocatePass)
            .with_pass(MetricsPass)
    }

    /// Appends a pass (builder style).
    pub fn with_pass(mut self, pass: impl Pass + 'a) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Registers an observer invoked after every pass (builder style).
    pub fn with_hook(mut self, hook: &'a dyn PassHook) -> Self {
        self.hooks.push(hook);
        self
    }

    /// Runs every pass over `state`, stopping at the first error (from a
    /// pass, an invariant re-validation, or an error diagnostic pushed by
    /// a hook).
    pub fn run(&self, state: &mut PipelineState) -> PipelineRun {
        let mut run = PipelineRun {
            trace: PassTrace {
                design: state.func.name.clone(),
                ..PassTrace::default()
            },
            ..PipelineRun::default()
        };
        let total_start = Instant::now();
        // A prefix spans three passes: a pipeline that does not run all
        // of them neither replays nor publishes one.
        let runs = |name: &str| {
            self.config.is_enabled(name) && self.passes.iter().any(|p| p.name() == name)
        };
        if PREFIX_PASSES.iter().all(|name| runs(name)) {
            if state.cache.is_none() {
                state.cache = self.config.cache.clone();
            }
        } else {
            state.cache = None;
            state.prefix = None;
        }

        // Reject unsatisfiable configurations up front: every enabled
        // pass's prerequisites must be enabled and sequenced earlier.
        let mut problems = Vec::new();
        let mut seen: Vec<&'static str> = Vec::new();
        for pass in &self.passes {
            if !self.config.is_enabled(pass.name()) {
                continue;
            }
            for req in pass.requires() {
                if !seen.contains(req) {
                    let why = if self.passes.iter().any(|p| p.name() == *req) {
                        if self.config.is_enabled(req) {
                            "sequenced after it"
                        } else {
                            "disabled"
                        }
                    } else {
                        "missing from the pipeline"
                    };
                    problems.push(format!(
                        "pass `{}` requires `{req}`, but it is {why}",
                        pass.name()
                    ));
                }
            }
            seen.push(pass.name());
        }
        if !problems.is_empty() {
            let e = SynthesisError::InvalidPipelineConfig { problems };
            run.diagnostics.push(e.to_diagnostic());
            run.error = Some(e);
            run.trace.total_ns = total_start.elapsed().as_nanos() as u64;
            return run;
        }

        // Between passes the state is untouched, so each pass's entry
        // stats equal the previous pass's exit stats; carrying them over
        // halves the stat walks, which a memo-served run is dominated by.
        let mut carried_stats: Option<IrStats> = None;
        for pass in &self.passes {
            if !self.config.is_enabled(pass.name()) {
                continue;
            }
            let before = if self.config.skip_trace_stats {
                IrStats::default()
            } else {
                carried_stats.unwrap_or_else(|| state.stats())
            };
            let diags_before = run.diagnostics.len();
            let start = Instant::now();
            let result = pass.run(state, &mut run.diagnostics);
            // A pass replaying the prefix marks it with a note.
            let memo_hit = run
                .diagnostics
                .iter()
                .skip(diags_before)
                .any(|d| d.code == "memo-hit");
            // Stamp the pass of origin on everything emitted here.
            stamp_pass(&mut run.diagnostics, diags_before, pass.name());

            let mut aborted = false;
            if let Err(e) = result {
                run.diagnostics.push(e.to_diagnostic().in_pass(pass.name()));
                run.error = Some(e);
                aborted = true;
            }

            // Post-pass invariant re-validation. A memo hit reuses a
            // result that was validated when first computed, so the
            // re-walk is skipped and recorded as cached.
            let mut invariants_checked = InvariantCheck::NotRun;
            if !aborted && self.config.check_invariants && pass.mutates_ir() && memo_hit {
                invariants_checked = InvariantCheck::Cached;
            } else if !aborted && self.config.check_invariants && pass.mutates_ir() {
                invariants_checked = InvariantCheck::Checked;
                let problems = hls_ir::validate(state.current_func());
                if !problems.is_empty() {
                    for p in &problems {
                        run.diagnostics.push(
                            p.to_diagnostic()
                                .in_pass(pass.name())
                                .with_note("invariant re-validation after this pass"),
                        );
                    }
                    run.error = Some(SynthesisError::InvalidIr {
                        problems: problems.iter().map(|p| p.to_string()).collect(),
                    });
                    aborted = true;
                }
            }

            // Hooks observe the completed pass.
            if !aborted {
                for hook in &self.hooks {
                    let n = run.diagnostics.len();
                    hook.after_pass(pass.name(), state, &mut run.diagnostics);
                    stamp_pass(&mut run.diagnostics, n, pass.name());
                }
                if run.diagnostics.has_errors() && run.error.is_none() {
                    aborted = true;
                }
            }

            let after = if self.config.skip_trace_stats {
                IrStats::default()
            } else {
                state.stats()
            };
            carried_stats = Some(after);
            run.trace.passes.push(PassRecord {
                pass: pass.name().to_string(),
                wall_ns: start.elapsed().as_nanos() as u64,
                before,
                after,
                diagnostics: run.diagnostics.len() - diags_before,
                invariants_checked,
                memo_hit,
            });
            if aborted {
                break;
            }
        }
        run.trace.cache = state.cache_events;
        run.trace.total_ns = total_start.elapsed().as_nanos() as u64;
        run
    }
}

/// The typed error for a pass finding an upstream state slot empty —
/// reachable only through a custom pass that claims a standard name
/// without filling the standard slot (sequence validation catches
/// everything else before the run starts).
fn missing_slot(pass: &str, producer: &str) -> SynthesisError {
    SynthesisError::InvalidPipelineConfig {
        problems: vec![format!(
            "pass `{pass}` needs the `{producer}` result, which is missing"
        )],
    }
}

/// Stamps `pass` on every diagnostic from `from` onward that has no pass.
fn stamp_pass(diags: &mut Diagnostics, from: usize, pass: &str) {
    for d in diags.iter_mut().skip(from) {
        if d.pass.is_empty() {
            d.pass = pass.to_string();
        }
    }
}

// ---------------------------------------------------------------------------
// The standard passes
// ---------------------------------------------------------------------------

/// Validates the input IR (structure, shapes, types, loop sanity).
pub struct ValidateIrPass;

impl Pass for ValidateIrPass {
    fn name(&self) -> &'static str {
        "validate-ir"
    }

    fn run(
        &self,
        state: &mut PipelineState,
        _diags: &mut Diagnostics,
    ) -> Result<(), SynthesisError> {
        let problems = hls_ir::validate(&state.func);
        if problems.is_empty() {
            Ok(())
        } else {
            Err(SynthesisError::InvalidIr {
                problems: problems.iter().map(|p| p.to_string()).collect(),
            })
        }
    }
}

/// Checks that every directive refers to something that exists and that
/// the clock is usable.
pub struct CheckDirectivesPass;

impl Pass for CheckDirectivesPass {
    fn name(&self) -> &'static str {
        "check-directives"
    }

    fn run(
        &self,
        state: &mut PipelineState,
        _diags: &mut Diagnostics,
    ) -> Result<(), SynthesisError> {
        let clock = state.directives.clock_period_ns;
        if !clock.is_finite() || clock <= 0.0 {
            return Err(SynthesisError::InvalidClock { clock_ns: clock });
        }
        let labels = state.func.loop_labels();
        for label in state.directives.loops.keys() {
            if !labels.contains(label) {
                return Err(SynthesisError::UnknownLoop {
                    label: label.clone(),
                });
            }
        }
        let var_names: Vec<&str> = state.func.vars.iter().map(|v| v.name.as_str()).collect();
        for name in state
            .directives
            .arrays
            .keys()
            .chain(state.directives.interfaces.keys())
        {
            if !var_names.contains(&name.as_str()) {
                return Err(SynthesisError::UnknownVariable { name: name.clone() });
            }
        }
        Ok(())
    }
}

/// The passes a prefix covers: a run replays them together or not at
/// all.
const PREFIX_PASSES: [&str; 3] = ["loop-transforms", "lower", "netlist-opt"];

/// Artifact key under which a missed lookup leaves the prefix key for
/// `netlist-opt` to publish under.
const PREFIX_KEY: &str = "prefix-key";

/// Applies counter narrowing, unrolling and merging; accepted merge
/// hazards surface as `merge-hazard` warnings.
///
/// With a prefix cache attached and no prefix in the state, this pass
/// makes the run's one lookup; a hit fills [`PipelineState::prefix`].
/// With a prefix, it replays the prefix's transform result.
pub struct LoopTransformsPass;

impl Pass for LoopTransformsPass {
    fn name(&self) -> &'static str {
        "loop-transforms"
    }

    fn mutates_ir(&self) -> bool {
        true
    }

    fn run(
        &self,
        state: &mut PipelineState,
        diags: &mut Diagnostics,
    ) -> Result<(), SynthesisError> {
        if let (None, Some(cache)) = (&state.prefix, state.cache.clone()) {
            // `state.func` is still the pipeline input here; the key
            // covers it and every directive and library input of the
            // three prefix passes.
            let base = passcache::base_key(&state.func);
            let key = passcache::prefix_key(&base, &state.directives, &state.lib);
            match cache.get(&key) {
                Some(prefix) => {
                    state.cache_events.hits += 1;
                    state.prefix = Some(prefix);
                }
                None => {
                    state.cache_events.misses += 1;
                    state.put_artifact(PREFIX_KEY, key);
                }
            }
        }
        let t = match &state.prefix {
            Some(prefix) => {
                diags.push(Diagnostic::note(
                    "memo-hit",
                    "loop transforms replayed from the prefix",
                ));
                prefix.transformed.clone()
            }
            None => apply_loop_transforms(&state.func, &state.directives),
        };
        for m in &t.merges {
            for h in &m.hazards {
                diags.push(
                    Diagnostic::warning("merge-hazard", h.to_string())
                        .with_anchor(hls_ir::Anchor::Loop(h.first.clone()))
                        .with_anchor(hls_ir::Anchor::Loop(h.second.clone()))
                        .with_anchor(hls_ir::Anchor::Var(h.var.clone())),
                );
            }
        }
        state.func = t.func;
        state.merges = t.merges;
        Ok(())
    }
}

/// Lowers the transformed IR: hoisting, output staging, segmentation and
/// interface synthesis.
///
/// With a prefix, lowering already ran when the prefix was built: the
/// pass records a memo hit and computes nothing, and `netlist-opt`
/// installs the prefix's optimized design.
pub struct LowerPass;

impl Pass for LowerPass {
    fn name(&self) -> &'static str {
        "lower"
    }

    fn mutates_ir(&self) -> bool {
        true
    }

    fn run(
        &self,
        state: &mut PipelineState,
        diags: &mut Diagnostics,
    ) -> Result<(), SynthesisError> {
        if state.prefix.is_some() {
            diags.push(Diagnostic::note(
                "memo-hit",
                "lowering replayed from the prefix",
            ));
        } else {
            state.lowered = Some(lower(&state.func, &state.directives));
        }
        Ok(())
    }
}

/// Optimizes the lowered netlist in place: constant folding, cross-state
/// constant propagation, common-subexpression sharing and delay-aware
/// chain rebalancing, as selected by
/// [`Directives::netlist_opt`](crate::Directives). The per-pass
/// measurements land under the `netlist-report` artifact key; proof
/// obligations are computed only on demand
/// ([`crate::netlist::netlist_obligations`]).
///
/// With a prefix, the pass installs the prefix's optimized design and
/// report instead of optimizing. After a cache miss it publishes the
/// prefix this run computed.
pub struct NetlistOptPass;

impl Pass for NetlistOptPass {
    fn name(&self) -> &'static str {
        "netlist-opt"
    }

    fn requires(&self) -> &'static [&'static str] {
        &["lower"]
    }

    fn run(
        &self,
        state: &mut PipelineState,
        diags: &mut Diagnostics,
    ) -> Result<(), SynthesisError> {
        if let Some(prefix) = &state.prefix {
            diags.push(Diagnostic::note(
                "memo-hit",
                "optimized netlist replayed from the prefix",
            ));
            if state.directives.netlist_opt.is_enabled() {
                diags.push(Diagnostic::note("netlist-opt", prefix.report.describe()));
            }
            let (lowered, report) = (prefix.lowered.clone(), prefix.report.clone());
            state.lowered = Some(lowered);
            state.put_artifact("netlist-report", report);
            return Ok(());
        }
        let key = state.take_artifact::<String>(PREFIX_KEY);
        let cfg = state.directives.netlist_opt;
        let lowered = state
            .lowered
            .as_mut()
            .ok_or_else(|| missing_slot("netlist-opt", "lower"))?;
        let report = optimize_lowered(lowered, &cfg, &state.lib);
        if let (Some(cache), Some(key)) = (&state.cache, key) {
            let prefix = NetlistEntry {
                transformed: TransformResult {
                    func: state.func.clone(),
                    merges: state.merges.clone(),
                },
                lowered: lowered.clone(),
                report: report.clone(),
            };
            cache.put(&key, &Arc::new(prefix));
            state.cache_events.inserts += 1;
        }
        if cfg.is_enabled() {
            diags.push(Diagnostic::note("netlist-opt", report.describe()));
        }
        state.put_artifact("netlist-report", report);
        Ok(())
    }
}

/// Schedules every segment and checks pipelined loops against their
/// recurrence-minimum initiation interval.
pub struct SchedulePass;

impl Pass for SchedulePass {
    fn name(&self) -> &'static str {
        "schedule"
    }

    fn requires(&self) -> &'static [&'static str] {
        &["lower"]
    }

    fn run(
        &self,
        state: &mut PipelineState,
        _diags: &mut Diagnostics,
    ) -> Result<(), SynthesisError> {
        let lowered = state
            .lowered
            .as_ref()
            .ok_or_else(|| missing_slot("schedule", "lower"))?;
        // Memory-mapped arrays and streamed array parameters (Section 2.1:
        // index accesses become accesses over time) compete for ports
        // instead of being freely parallel registers.
        let lowered_func = lowered.func.clone();
        let d2 = state.directives.clone();
        let mem_ports = move |v: hls_ir::VarId| -> Option<(u32, u32)> {
            let name = &lowered_func.var(v).name;
            if let crate::directives::ArrayMapping::Memory {
                read_ports,
                write_ports,
            } = d2.array_mapping(name)
            {
                return Some((read_ports, write_ports));
            }
            if d2.interface_kind(name) == crate::directives::InterfaceKind::Stream {
                return Some((1, 1)); // one element per cycle, over time
            }
            None
        };

        let mut schedules = Vec::new();
        for seg in &lowered.segments {
            let sched = schedule_dfg(seg.dfg(), &state.directives, &state.lib, &mem_ports)?;
            if let Segment::Loop {
                label,
                pipeline_ii: Some(ii),
                dfg,
                ..
            } = seg
            {
                let min_ii = recurrence_min_ii(dfg, &sched);
                if *ii < min_ii {
                    return Err(SynthesisError::InfeasibleInitiationInterval {
                        label: label.clone(),
                        requested: *ii,
                        minimum: min_ii,
                    });
                }
            }
            schedules.push(sched);
        }
        state.schedules = Some(schedules);
        Ok(())
    }
}

/// Allocates functional units, registers and muxes.
pub struct AllocatePass;

impl Pass for AllocatePass {
    fn name(&self) -> &'static str {
        "allocate"
    }

    fn requires(&self) -> &'static [&'static str] {
        &["lower", "schedule"]
    }

    fn run(
        &self,
        state: &mut PipelineState,
        _diags: &mut Diagnostics,
    ) -> Result<(), SynthesisError> {
        let lowered = state
            .lowered
            .as_ref()
            .ok_or_else(|| missing_slot("allocate", "lower"))?;
        let schedules = state
            .schedules
            .as_ref()
            .ok_or_else(|| missing_slot("allocate", "schedule"))?;
        let allocation = allocate(
            &lowered.func,
            lowered,
            schedules,
            &state.directives,
            &state.lib,
        );
        state.allocation = Some(allocation);
        Ok(())
    }
}

/// Computes headline metrics from the scheduled, allocated design.
pub struct MetricsPass;

impl Pass for MetricsPass {
    fn name(&self) -> &'static str {
        "metrics"
    }

    fn requires(&self) -> &'static [&'static str] {
        &["lower", "schedule", "allocate"]
    }

    fn run(
        &self,
        state: &mut PipelineState,
        _diags: &mut Diagnostics,
    ) -> Result<(), SynthesisError> {
        let lowered = state
            .lowered
            .as_ref()
            .ok_or_else(|| missing_slot("metrics", "lower"))?;
        let schedules = state
            .schedules
            .as_ref()
            .ok_or_else(|| missing_slot("metrics", "schedule"))?;
        let allocation = state
            .allocation
            .as_ref()
            .ok_or_else(|| missing_slot("metrics", "allocate"))?;
        let segments: Vec<_> = lowered
            .segments
            .iter()
            .zip(schedules)
            .map(|(s, sc)| segment_cycles(s, sc))
            .collect();
        let latency_cycles: u64 = segments.iter().map(|s| s.cycles).sum();
        let critical = schedules
            .iter()
            .map(Schedule::critical_path_ns)
            .fold(0.0, f64::max);
        state.metrics = Some(DesignMetrics {
            latency_cycles,
            latency_ns: latency_cycles as f64 * state.directives.clock_period_ns,
            clock_ns: state.directives.clock_period_ns,
            critical_path_ns: critical,
            segments,
            area: allocation.total_area,
            allocation: allocation.clone(),
        });
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Synthesizes `func` through the standard pipeline, returning both the
/// classic result and the full observability record (pass trace plus
/// stamped diagnostics).
pub fn synthesize_traced(
    func: &Function,
    directives: &Directives,
    lib: &TechLibrary,
    config: &PipelineConfig,
) -> (Result<SynthesisResult, SynthesisError>, PipelineRun) {
    let pipeline = Pipeline::synthesis(config.clone());
    let mut state = PipelineState::new(func, directives, lib);
    let run = pipeline.run(&mut state);
    (finish_run(&state, &run), run)
}

/// Extracts the [`SynthesisResult`] from a completed run, mapping an
/// incomplete state (some passes disabled, e.g. under
/// [`PipelineConfig::transform_only`]) to a typed error instead of
/// panicking.
fn finish_run(state: &PipelineState, run: &PipelineRun) -> Result<SynthesisResult, SynthesisError> {
    match &run.error {
        Some(e) => Err(e.clone()),
        None => state
            .to_result()
            .ok_or_else(|| SynthesisError::InvalidPipelineConfig {
                problems: vec![
                "pipeline completed without a full synthesis result (back-end passes disabled?)"
                    .to_string(),
            ],
            }),
    }
}

/// [`synthesize_traced`] replaying a precomputed prefix: the transform
/// result and the optimized netlist that `loop-transforms`, `lower` and
/// `netlist-opt` install as memo hits. Only validation, directive
/// checking, schedule, allocate and metrics do real work, which is what
/// makes the clock-only twins of a dense sweep nearly free. The explorer
/// builds one prefix per transform signature and replays it for every
/// candidate of that signature.
///
/// The prefix must have been built from `func` under inputs with the
/// same [`passcache::prefix_key`]: the clock may differ, but the loop,
/// array and interface directives, the optimizer config and the library
/// may not. Replaying any other prefix yields a design that does not
/// implement `directives`.
pub fn synthesize_traced_with_prefix(
    func: &Function,
    directives: &Directives,
    lib: &TechLibrary,
    config: &PipelineConfig,
    prefix: Arc<NetlistEntry>,
) -> (Result<SynthesisResult, SynthesisError>, PipelineRun) {
    let pipeline = Pipeline::synthesis(config.clone());
    let mut state = PipelineState::new(func, directives, lib);
    state.prefix = Some(prefix);
    let run = pipeline.run(&mut state);
    (finish_run(&state, &run), run)
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
    fn trace_records_every_pass_in_order() {
        let f = sum_loop();
        let (r, run) = synthesize_traced(
            &f,
            &Directives::new(10.0),
            &TechLibrary::asic_100mhz(),
            &PipelineConfig::default(),
        );
        assert!(r.is_ok());
        let names: Vec<&str> = run.trace.passes.iter().map(|p| p.pass.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "validate-ir",
                "check-directives",
                "loop-transforms",
                "lower",
                "netlist-opt",
                "schedule",
                "allocate",
                "metrics"
            ]
        );
        // Lowering introduces segments; allocation introduces FUs.
        let lower = &run.trace.passes[3];
        assert_eq!(lower.before.segments, 0);
        assert!(lower.after.segments >= 3);
        let alloc = &run.trace.passes[6];
        assert_eq!(alloc.before.fus, 0);
        assert!(alloc.after.fus > 0);
    }

    #[test]
    fn check_invariants_validates_after_mutating_passes() {
        let f = sum_loop();
        let (r, run) = synthesize_traced(
            &f,
            &Directives::new(10.0).unroll("sum", Unroll::Factor(2)),
            &TechLibrary::asic_100mhz(),
            &PipelineConfig::checked(),
        );
        assert!(r.is_ok());
        for p in &run.trace.passes {
            let expect = if matches!(p.pass.as_str(), "loop-transforms" | "lower") {
                InvariantCheck::Checked
            } else {
                InvariantCheck::NotRun
            };
            assert_eq!(p.invariants_checked, expect, "pass {}", p.pass);
        }
    }

    /// The explorer's shared prefix for `d`: the transform result and the
    /// optimized netlist of its lowering.
    fn prefix(f: &Function, d: &Directives, lib: &TechLibrary) -> Arc<NetlistEntry> {
        let transformed = apply_loop_transforms(f, d);
        let mut lowered = lower(&transformed.func, d);
        let report = optimize_lowered(&mut lowered, &d.netlist_opt, lib);
        Arc::new(NetlistEntry {
            transformed,
            lowered,
            report,
        })
    }

    #[test]
    fn memo_hit_skips_invariant_revalidation_and_records_cached() {
        let f = sum_loop();
        let d = Directives::new(10.0).unroll("sum", Unroll::Factor(2));
        let lib = TechLibrary::asic_100mhz();
        let p = prefix(&f, &d, &lib);
        let (r, run) = synthesize_traced_with_prefix(&f, &d, &lib, &PipelineConfig::checked(), p);
        assert!(r.is_ok());
        let record = |name: &str| run.trace.passes.iter().find(|p| p.pass == name).unwrap();
        // Both mutating passes replay the prefix: memo hits, not re-walked.
        for name in ["loop-transforms", "lower"] {
            assert!(record(name).memo_hit, "{name}");
            assert_eq!(record(name).invariants_checked, InvariantCheck::Cached);
        }
        // The optimizer is replayed too, so nothing upstream of the
        // scheduler ran.
        assert!(record("netlist-opt").memo_hit);
        assert!(!record("schedule").memo_hit);
        // And the JSON carries the mixed-type value.
        assert!(run
            .trace
            .to_json()
            .contains("\"invariants_checked\":\"cached\""));
    }

    #[test]
    fn transform_only_preset_runs_front_end_only() {
        let f = sum_loop();
        let d = Directives::new(10.0).unroll("sum", Unroll::Full);
        let lib = TechLibrary::asic_100mhz();
        let cfg = PipelineConfig::transform_only();
        let mut state = PipelineState::new(&f, &d, &lib);
        let run = Pipeline::synthesis(cfg.clone()).run(&mut state);
        assert!(run.error.is_none(), "{:?}", run.error);
        let names: Vec<&str> = run.trace.passes.iter().map(|p| p.pass.as_str()).collect();
        assert_eq!(
            names,
            vec!["validate-ir", "check-directives", "loop-transforms"]
        );
        // The transform ran (loop fully unrolled), but nothing was lowered.
        assert!(state.func.loops().is_empty());
        assert!(state.lowered.is_none() && state.metrics.is_none());
        // The traced entry point reports the incomplete result as a typed
        // error, not a panic.
        let (r, _) = synthesize_traced(&f, &d, &lib, &cfg);
        assert!(matches!(
            r,
            Err(SynthesisError::InvalidPipelineConfig { .. })
        ));
    }

    #[test]
    fn disabling_a_prerequisite_is_rejected_with_a_diagnostic() {
        let f = sum_loop();
        let d = Directives::new(10.0);
        let lib = TechLibrary::asic_100mhz();
        // schedule without lower: unsatisfiable.
        let cfg = PipelineConfig::default().without_pass("lower");
        let mut state = PipelineState::new(&f, &d, &lib);
        let run = Pipeline::synthesis(cfg).run(&mut state);
        assert!(matches!(
            run.error,
            Some(SynthesisError::InvalidPipelineConfig { .. })
        ));
        // Nothing ran.
        assert!(run.trace.passes.is_empty());
        let diag = run
            .diagnostics
            .find("invalid-pipeline-config")
            .expect("diagnostic");
        assert!(diag.message.contains("`schedule` requires `lower`"));
    }

    #[test]
    fn error_aborts_and_is_stamped_with_pass_of_origin() {
        let f = sum_loop();
        let d = Directives::new(10.0).unroll("ghost", Unroll::Factor(2));
        let (r, run) = synthesize_traced(
            &f,
            &d,
            &TechLibrary::asic_100mhz(),
            &PipelineConfig::default(),
        );
        assert!(matches!(r, Err(SynthesisError::UnknownLoop { .. })));
        // The pipeline stopped at check-directives.
        assert_eq!(run.trace.passes.last().unwrap().pass, "check-directives");
        let diag = run.diagnostics.find("unknown-loop").expect("diagnostic");
        assert_eq!(diag.pass, "check-directives");
        assert!(diag
            .anchors
            .iter()
            .any(|a| matches!(a, hls_ir::Anchor::Loop(l) if l == "ghost")));
    }

    #[test]
    fn trace_json_is_well_formed() {
        let f = sum_loop();
        let (_, run) = synthesize_traced(
            &f,
            &Directives::new(10.0),
            &TechLibrary::asic_100mhz(),
            &PipelineConfig::default(),
        );
        let json = run.trace.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"design\":\"sum\""));
        assert!(json.contains("\"pass\":\"schedule\""));
        // Balanced braces/brackets (cheap well-formedness check; the bench
        // smoke test runs a real parser over the emitted file).
        let braces = json.matches('{').count();
        assert_eq!(braces, json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn hooks_observe_every_pass_and_can_abort() {
        struct Recorder(std::cell::RefCell<Vec<String>>);
        impl PassHook for Recorder {
            fn after_pass(&self, pass: &str, _state: &PipelineState, _d: &mut Diagnostics) {
                self.0.borrow_mut().push(pass.to_string());
            }
        }
        let rec = Recorder(std::cell::RefCell::new(Vec::new()));
        let f = sum_loop();
        let mut state = PipelineState::new(&f, &Directives::new(10.0), &TechLibrary::asic_100mhz());
        let run = Pipeline::synthesis(PipelineConfig::default())
            .with_hook(&rec)
            .run(&mut state);
        assert!(run.error.is_none());
        assert_eq!(rec.0.borrow().len(), 8);

        struct Gate;
        impl PassHook for Gate {
            fn after_pass(&self, pass: &str, _state: &PipelineState, d: &mut Diagnostics) {
                if pass == "lower" {
                    d.push(Diagnostic::error("gate-failed", "hook vetoed the design"));
                }
            }
        }
        let gate = Gate;
        let mut state = PipelineState::new(&f, &Directives::new(10.0), &TechLibrary::asic_100mhz());
        let run = Pipeline::synthesis(PipelineConfig::default())
            .with_hook(&gate)
            .run(&mut state);
        assert!(run.diagnostics.has_errors());
        assert_eq!(run.trace.passes.last().unwrap().pass, "lower");
        assert_eq!(run.diagnostics.find("gate-failed").unwrap().pass, "lower");
    }

    #[test]
    fn seeded_transform_marks_memo_hit_and_matches_unseeded() {
        let f = sum_loop();
        let d = Directives::new(10.0).unroll("sum", Unroll::Factor(2));
        let lib = TechLibrary::asic_100mhz();
        let (plain, plain_run) = synthesize_traced(&f, &d, &lib, &PipelineConfig::default());
        let p = prefix(&f, &d, &lib);
        let (seeded, run) =
            synthesize_traced_with_prefix(&f, &d, &lib, &PipelineConfig::default(), p);
        let (plain, seeded) = (plain.unwrap(), seeded.unwrap());
        assert_eq!(plain.transformed, seeded.transformed);
        assert_eq!(plain.lowered, seeded.lowered);
        assert_eq!(plain.schedules, seeded.schedules);
        assert_eq!(plain.metrics.latency_cycles, seeded.metrics.latency_cycles);
        assert_eq!(plain.metrics.area, seeded.metrics.area);
        for name in ["loop-transforms", "lower", "netlist-opt"] {
            let record = run.trace.passes.iter().find(|p| p.pass == name).unwrap();
            assert!(record.memo_hit, "{name}");
        }
        // The seeded run reports the same optimization; its diagnostics
        // differ from the cold run's only by the memo-hit notes.
        let notes = |run: &PipelineRun| -> Vec<(String, String)> {
            run.diagnostics
                .iter()
                .filter(|d| d.code != "memo-hit")
                .map(|d| (d.code.to_string(), d.message.clone()))
                .collect()
        };
        assert_eq!(notes(&plain_run), notes(&run));
    }
}
