//! The synthesis flow as one call chain, with one stage recorder.
//!
//! The paper's methodology is one C source plus *directives* flowing
//! through a fixed sequence: interface synthesis, loop transforms,
//! scheduling, allocation and RTL. The designer steers that sequence but
//! never rearranges it, and neither does this crate: [`synthesize_traced`]
//! calls its eight stages in order — `validate-ir`, `check-directives`,
//! `loop-transforms`, `lower`, `netlist-opt`, `schedule`, `allocate`,
//! `metrics` — over owned values, and moves what they produce into the
//! [`SynthesisResult`]. The RTL back end extends the same run with
//! `build-fsmd`, `compile-sim` and `emit-verilog` (`rtl::compile_traced`).
//!
//! Every stage is recorded the same way: by [`PipelineRun::stage`], the
//! one public recorder, or, for a synthesis stage that changes what the
//! trace measures, by the private form it wraps. The recorder times the
//! stage, records the design's size before and after it
//! ([`IrStats`], unless [`PipelineConfig::skip_trace_stats`]), marks a
//! stage that replayed a prefix as a memo hit, stamps the stage as the
//! pass of origin on every diagnostic it emits, and turns a failure into
//! a stamped diagnostic plus [`PipelineRun::error`]. Under
//! [`PipelineConfig::check_invariants`] it re-validates the IR after the
//! two stages that rewrite it, `loop-transforms` and `lower`.
//!
//! [`synthesize`](crate::synthesize), `explore`, the RTL back end, the
//! stream shell and the decoder harnesses all run this chain;
//! [`synthesize_traced`] also returns the record.

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
use crate::transform::{apply_loop_transforms, TransformResult};

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Pipeline behaviour knobs.
#[derive(Debug, Clone, Default)]
pub struct PipelineConfig {
    /// Re-run `hls_ir::validate` on the IR after each stage that rewrites
    /// it (`loop-transforms` and `lower`); a violation aborts with an
    /// `invalid-ir` diagnostic naming the stage. A stage that replayed a
    /// prefix is *not* re-walked (its result was validated when first
    /// computed); the trace records it as [`InvariantCheck::Cached`].
    pub check_invariants: bool,
    /// A shared prefix cache. When set, `loop-transforms` looks the run's
    /// prefix up before computing, a hit replays `loop-transforms`,
    /// `lower` and `netlist-opt` as memo hits, and on a miss
    /// `netlist-opt` publishes the prefix it computed. `schedule` and
    /// `allocate` read the clock and always run. `None` (the default)
    /// runs every stage cold.
    pub cache: Option<Arc<PassCache>>,
    /// Skip the per-stage [`IrStats`] snapshots in the trace (they read as
    /// all-zero). Walking the design after the stages that change it
    /// costs more than a fully memo-served run does; bulk callers that
    /// only consume timings and memo flags — the design-space explorer —
    /// turn the walks off. Off by default: interactive traces keep their
    /// stats.
    pub skip_trace_stats: bool,
}

impl PipelineConfig {
    /// The checked configuration: the IR re-validated after every stage
    /// that rewrites it.
    pub fn checked() -> Self {
        PipelineConfig {
            check_invariants: true,
            ..PipelineConfig::default()
        }
    }
}

// ---------------------------------------------------------------------------
// What the trace measures
// ---------------------------------------------------------------------------

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

/// The design as a stage leaves it, before allocation: the current IR
/// (the lowered function once lowering has run) and the lowered design.
#[derive(Clone, Copy)]
struct Design<'a> {
    func: &'a Function,
    lowered: Option<&'a Lowered>,
}

impl<'a> Design<'a> {
    /// The design before lowering: IR only.
    fn ir(func: &'a Function) -> Self {
        Design {
            func,
            lowered: None,
        }
    }

    /// The lowered design.
    fn lowered(lowered: &'a Lowered) -> Self {
        Design {
            func: &lowered.func,
            lowered: Some(lowered),
        }
    }

    /// The observable size of the design (no functional units yet).
    fn stats(&self) -> IrStats {
        let mut ops = 0usize;
        for s in &self.func.body {
            count_stmt_ops(s, &mut ops);
        }
        IrStats {
            ops,
            loops: self.func.loops().len(),
            segments: self.lowered.map_or(0, |l| l.segments.len()),
            cells: self
                .lowered
                .map_or(0, |l| l.segments.iter().map(|s| s.dfg().len()).sum()),
            fus: 0,
        }
    }
}

/// What a stage did to the design, as the recorder measures it.
enum Exit<'a> {
    /// The stage left the measured design as it found it: its exit stats
    /// are its entry stats, and nothing is walked.
    Unchanged,
    /// The stage rewrote the IR into this design: its stats are measured
    /// and, under [`PipelineConfig::check_invariants`], its function is
    /// re-validated unless the stage replayed a prefix.
    Rewritten(Design<'a>),
    /// The stage replayed an IR rewrite that left the measured design as
    /// it was (`lower` with a prefix: the prefix installs the lowered
    /// design at `netlist-opt`). Under
    /// [`PipelineConfig::check_invariants`] it records as
    /// [`InvariantCheck::Cached`].
    Replayed,
    /// The stage changed the netlist, not the IR: its stats are measured.
    Resized(Design<'a>),
    /// The stage allocated this many functional units and changed
    /// nothing else the trace measures.
    Allocated(u32),
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

// ---------------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------------

/// Whether (and how) post-pass invariant re-validation ran for one pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InvariantCheck {
    /// Not checked (disabled, the pass does not rewrite the IR, or it
    /// aborted).
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
    /// Diagnostics emitted during the pass.
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

// ---------------------------------------------------------------------------
// The recorder
// ---------------------------------------------------------------------------

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

impl PipelineRun {
    /// Runs `body` as the stage `name` of this run and records it in the
    /// trace, the way every synthesis stage is recorded: its wall time;
    /// its entry and exit [`IrStats`], which are the previous stage's
    /// exit stats because such a stage does not change what they
    /// measure (zero under [`PipelineConfig::skip_trace_stats`]); a memo
    /// hit when `body` emits a `memo-hit` note; and `name` as the pass of
    /// origin of every diagnostic `body` emits. A failing stage's error
    /// becomes a stamped diagnostic and [`PipelineRun::error`], and is
    /// returned, so the caller stops there.
    ///
    /// This is how a downstream crate extends a synthesis run: the RTL
    /// back end records `build-fsmd`, `compile-sim` and `emit-verilog`
    /// after `metrics` this way.
    pub fn stage<T>(
        &mut self,
        config: &PipelineConfig,
        name: &'static str,
        body: impl FnOnce(&mut Diagnostics) -> Result<T, SynthesisError>,
    ) -> Result<T, SynthesisError> {
        self.record(config, name, None, body, |_| Exit::Unchanged)
    }

    /// [`PipelineRun::stage`] for a stage that may change the design:
    /// `exit` says how, from the stage's product. `first` is the design
    /// the run starts from, measured only when this is the run's first
    /// stage; every later stage enters with its predecessor's exit stats.
    fn record<T>(
        &mut self,
        config: &PipelineConfig,
        name: &'static str,
        first: Option<Design<'_>>,
        body: impl FnOnce(&mut Diagnostics) -> Result<T, SynthesisError>,
        exit: impl FnOnce(&T) -> Exit<'_>,
    ) -> Result<T, SynthesisError> {
        let before = match (config.skip_trace_stats, self.trace.passes.last(), first) {
            (true, _, _) | (false, None, None) => IrStats::default(),
            (false, Some(previous), _) => previous.after,
            (false, None, Some(design)) => design.stats(),
        };
        let diags_before = self.diagnostics.len();
        let start = Instant::now();
        let result = body(&mut self.diagnostics);
        // A stage replaying the prefix marks it with a note.
        let memo_hit = self
            .diagnostics
            .iter()
            .skip(diags_before)
            .any(|d| d.code == "memo-hit");
        stamp_pass(&mut self.diagnostics, diags_before, name);

        let mut invariants_checked = InvariantCheck::NotRun;
        let mut after = before;
        let result = match result {
            Err(e) => {
                self.diagnostics.push(e.to_diagnostic().in_pass(name));
                self.error = Some(e.clone());
                Err(e)
            }
            Ok(product) => {
                let exit = exit(&product);
                let mut problems = Vec::new();
                if config.check_invariants {
                    // A memo hit reuses a result that was validated when
                    // first computed, so the re-walk is skipped.
                    match exit {
                        Exit::Rewritten(_) | Exit::Replayed if memo_hit => {
                            invariants_checked = InvariantCheck::Cached;
                        }
                        Exit::Rewritten(design) => {
                            problems = hls_ir::validate(design.func);
                            invariants_checked = InvariantCheck::Checked;
                        }
                        _ => {}
                    }
                }
                if !config.skip_trace_stats {
                    match exit {
                        Exit::Rewritten(design) | Exit::Resized(design) => after = design.stats(),
                        Exit::Allocated(fus) => after.fus = fus,
                        Exit::Unchanged | Exit::Replayed => {}
                    }
                }
                if problems.is_empty() {
                    Ok(product)
                } else {
                    for p in &problems {
                        self.diagnostics.push(
                            p.to_diagnostic()
                                .in_pass(name)
                                .with_note("invariant re-validation after this pass"),
                        );
                    }
                    let e = SynthesisError::InvalidIr {
                        problems: problems.iter().map(|p| p.to_string()).collect(),
                    };
                    self.error = Some(e.clone());
                    Err(e)
                }
            }
        };
        self.trace.passes.push(PassRecord {
            pass: name.to_string(),
            wall_ns: start.elapsed().as_nanos() as u64,
            before,
            after,
            diagnostics: self.diagnostics.len() - diags_before,
            invariants_checked,
            memo_hit,
        });
        result
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
// The synthesis stages
// ---------------------------------------------------------------------------

/// Synthesizes `func` through the eight synthesis stages, returning both
/// the result and the full observability record (pass trace plus
/// stamped diagnostics).
pub fn synthesize_traced(
    func: &Function,
    directives: &Directives,
    lib: &TechLibrary,
    config: &PipelineConfig,
) -> (Result<SynthesisResult, SynthesisError>, PipelineRun) {
    traced(func, directives, lib, config, None)
}

/// [`synthesize_traced`] replaying a precomputed prefix: the transform
/// result and the optimized netlist that `loop-transforms`, `lower` and
/// `netlist-opt` install as memo hits. Only validation, directive
/// checking, schedule, allocate and metrics do real work, which is what
/// makes the clock-only twins of a dense sweep nearly free. The explorer
/// builds one prefix per [`passcache::prefix_key`] and replays it for
/// every candidate with that key.
///
/// The prefix must be the one `directives` build from this very `func`
/// and `lib`. One built under the same [`passcache::prefix_key`] is (the
/// key covers the function, every constant's format included, the merge
/// policy, the loop, array and interface directives, the optimizer config
/// and the library; only the clock, the FU limits and the stream shell
/// may differ). So is one built under another key when its transform
/// result equals what `directives` transform `func` to, constant formats
/// included, and the lowering inputs agree: the per-loop pipeline IIs,
/// the interface mappings and the optimizer config. The explorer shares
/// prefixes that way between, for instance, unroll factors at or above a
/// loop's trip. Replaying any other prefix yields a design that does not
/// implement `directives`.
pub fn synthesize_traced_with_prefix(
    func: &Function,
    directives: &Directives,
    lib: &TechLibrary,
    config: &PipelineConfig,
    prefix: Arc<NetlistEntry>,
) -> (Result<SynthesisResult, SynthesisError>, PipelineRun) {
    traced(func, directives, lib, config, Some(prefix))
}

fn traced(
    func: &Function,
    d: &Directives,
    lib: &TechLibrary,
    config: &PipelineConfig,
    prefix: Option<Arc<NetlistEntry>>,
) -> (Result<SynthesisResult, SynthesisError>, PipelineRun) {
    let start = Instant::now();
    let mut run = PipelineRun {
        trace: PassTrace {
            design: func.name.clone(),
            ..PassTrace::default()
        },
        ..PipelineRun::default()
    };
    let mut activity = CacheActivity::default();
    let result = synthesis(func, d, lib, config, prefix, &mut activity, &mut run);
    run.trace.cache = activity;
    run.trace.total_ns = start.elapsed().as_nanos() as u64;
    (result, run)
}

/// The eight stages in order, stopping at the first that fails.
///
/// With a prefix (given, or found by `loop-transforms` in the shared
/// cache), `loop-transforms`, `lower` and `netlist-opt` replay it as memo
/// hits. Without one, they compute it, and after a cache miss
/// `netlist-opt` publishes it.
fn synthesis(
    func: &Function,
    d: &Directives,
    lib: &TechLibrary,
    config: &PipelineConfig,
    mut prefix: Option<Arc<NetlistEntry>>,
    activity: &mut CacheActivity,
    run: &mut PipelineRun,
) -> Result<SynthesisResult, SynthesisError> {
    run.record(
        config,
        "validate-ir",
        Some(Design::ir(func)),
        |_| validate_ir(func),
        |_| Exit::Unchanged,
    )?;
    run.stage(config, "check-directives", |_| check_directives(func, d))?;

    // The run's one prefix-cache lookup belongs to `loop-transforms`; a
    // miss leaves the key for `netlist-opt` to publish under.
    let mut publish: Option<(&Arc<PassCache>, String)> = None;
    let transformed = run.record(
        config,
        "loop-transforms",
        None,
        |diags| {
            if let (None, Some(cache)) = (&prefix, &config.cache) {
                // The key covers the input function and every directive
                // and library input of the three prefix stages.
                let key = passcache::prefix_key(func, d, lib);
                match cache.get(&key) {
                    Some(hit) => {
                        activity.hits += 1;
                        prefix = Some(hit);
                    }
                    None => {
                        activity.misses += 1;
                        publish = Some((cache, key));
                    }
                }
            }
            Ok(loop_transforms(func, d, prefix.as_deref(), diags))
        },
        |t| Exit::Rewritten(Design::ir(&t.func)),
    )?;

    let lowered = match &prefix {
        // Lowering already ran when the prefix was built.
        Some(prefix) => {
            run.record(
                config,
                "lower",
                None,
                |diags| {
                    diags.push(Diagnostic::note(
                        "memo-hit",
                        "lowering replayed from the prefix",
                    ));
                    Ok(())
                },
                |_| Exit::Replayed,
            )?;
            run.record(
                config,
                "netlist-opt",
                None,
                |diags| {
                    diags.push(Diagnostic::note(
                        "memo-hit",
                        "optimized netlist replayed from the prefix",
                    ));
                    if d.netlist_opt.is_enabled() {
                        diags.push(Diagnostic::note("netlist-opt", prefix.report.describe()));
                    }
                    Ok(prefix.lowered.clone())
                },
                |l| Exit::Resized(Design::lowered(l)),
            )?
        }
        None => {
            let lowered = run.record(
                config,
                "lower",
                None,
                |_| Ok(lower(&transformed.func, d)),
                |l| Exit::Rewritten(Design::lowered(l)),
            )?;
            run.record(
                config,
                "netlist-opt",
                None,
                |diags| {
                    Ok(netlist_opt(
                        lowered,
                        &transformed,
                        d,
                        lib,
                        publish,
                        activity,
                        diags,
                    ))
                },
                |l| Exit::Resized(Design::lowered(l)),
            )?
        }
    };

    let schedules = run.stage(config, "schedule", |_| schedule(&lowered, d, lib))?;
    let allocation = run.record(
        config,
        "allocate",
        None,
        |_| Ok(allocate(&lowered.func, &lowered, &schedules, d, lib)),
        |a| Exit::Allocated(a.fu_groups.iter().map(|g| g.count).sum()),
    )?;
    let metrics = run.stage(config, "metrics", |_| {
        Ok(design_metrics(&lowered, &schedules, &allocation, d))
    })?;
    Ok(SynthesisResult {
        transformed: transformed.func,
        lowered,
        schedules,
        allocation,
        metrics,
        merges: transformed.merges,
    })
}

/// `validate-ir`: the input IR's structure, shapes, types and loops.
fn validate_ir(func: &Function) -> Result<(), SynthesisError> {
    let problems = hls_ir::validate(func);
    if problems.is_empty() {
        Ok(())
    } else {
        Err(SynthesisError::InvalidIr {
            problems: problems.iter().map(|p| p.to_string()).collect(),
        })
    }
}

/// `check-directives`: every directive refers to something that exists,
/// and the clock is usable.
fn check_directives(func: &Function, d: &Directives) -> Result<(), SynthesisError> {
    let clock = d.clock_period_ns;
    if !clock.is_finite() || clock <= 0.0 {
        return Err(SynthesisError::InvalidClock { clock_ns: clock });
    }
    let labels = func.loop_labels();
    for label in d.loops.keys() {
        if !labels.contains(label) {
            return Err(SynthesisError::UnknownLoop {
                label: label.clone(),
            });
        }
    }
    let var_names: Vec<&str> = func.vars.iter().map(|v| v.name.as_str()).collect();
    for name in d.arrays.keys().chain(d.interfaces.keys()) {
        if !var_names.contains(&name.as_str()) {
            return Err(SynthesisError::UnknownVariable { name: name.clone() });
        }
    }
    Ok(())
}

/// `loop-transforms`: counter narrowing, unrolling and merging, or the
/// prefix's transform result replayed. Accepted merge hazards surface as
/// `merge-hazard` warnings.
fn loop_transforms(
    func: &Function,
    d: &Directives,
    prefix: Option<&NetlistEntry>,
    diags: &mut Diagnostics,
) -> TransformResult {
    let t = match prefix {
        Some(prefix) => {
            diags.push(Diagnostic::note(
                "memo-hit",
                "loop transforms replayed from the prefix",
            ));
            prefix.transformed.clone()
        }
        None => apply_loop_transforms(func, d),
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
    t
}

/// `netlist-opt`: constant folding, cross-state constant propagation,
/// common-subexpression sharing and delay-aware chain rebalancing of the
/// lowered netlist, as selected by
/// [`Directives::netlist_opt`](crate::Directives). Proof obligations are
/// computed only on demand ([`crate::netlist::netlist_obligations`]).
/// After a cache miss (`publish`), the prefix this run computed is
/// published.
fn netlist_opt(
    mut lowered: Lowered,
    transformed: &TransformResult,
    d: &Directives,
    lib: &TechLibrary,
    publish: Option<(&Arc<PassCache>, String)>,
    activity: &mut CacheActivity,
    diags: &mut Diagnostics,
) -> Lowered {
    let report = optimize_lowered(&mut lowered, &d.netlist_opt, lib);
    if let Some((cache, key)) = publish {
        let prefix = NetlistEntry {
            transformed: transformed.clone(),
            lowered: lowered.clone(),
            report: report.clone(),
        };
        cache.put(&key, &Arc::new(prefix));
        activity.inserts += 1;
    }
    if d.netlist_opt.is_enabled() {
        diags.push(Diagnostic::note("netlist-opt", report.describe()));
    }
    lowered
}

/// `schedule`: every segment, with pipelined loops checked against their
/// recurrence-minimum initiation interval.
fn schedule(
    lowered: &Lowered,
    d: &Directives,
    lib: &TechLibrary,
) -> Result<Vec<Schedule>, SynthesisError> {
    let mem_ports = |v| d.mem_ports(&lowered.func, v);
    let mut schedules = Vec::new();
    for seg in &lowered.segments {
        let sched = schedule_dfg(seg.dfg(), d, lib, &mem_ports)?;
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
    Ok(schedules)
}

/// `metrics`: the headline metrics of the scheduled, allocated design.
fn design_metrics(
    lowered: &Lowered,
    schedules: &[Schedule],
    allocation: &Allocation,
    d: &Directives,
) -> DesignMetrics {
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
    DesignMetrics {
        latency_cycles,
        latency_ns: latency_cycles as f64 * d.clock_period_ns,
        clock_ns: d.clock_period_ns,
        critical_path_ns: critical,
        segments,
        area: allocation.total_area,
        allocation: allocation.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directives::Unroll;
    use crate::lower::lower;
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
    fn an_error_aborts_the_run_and_names_its_stage() {
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
    fn a_downstream_stage_extends_the_run() {
        let f = sum_loop();
        let config = PipelineConfig::default();
        let (r, mut run) = synthesize_traced(
            &f,
            &Directives::new(10.0),
            &TechLibrary::asic_100mhz(),
            &config,
        );
        assert!(r.is_ok());
        let metrics = run.trace.passes.last().unwrap().after;
        assert!(metrics.fus > 0 && metrics.segments > 0);

        // A stage that does not touch the design carries the exit stats
        // of `metrics`; its notes are stamped with its name, and a
        // `memo-hit` note marks it as a memo hit.
        let n = run
            .stage(&config, "tail", |diags| {
                diags.push(Diagnostic::note("memo-hit", "replayed"));
                Ok(7)
            })
            .unwrap();
        assert_eq!(n, 7);
        let tail = run.trace.passes.last().unwrap();
        assert_eq!(
            (tail.pass.as_str(), tail.before, tail.after),
            ("tail", metrics, metrics)
        );
        assert!(tail.memo_hit);
        assert_eq!(tail.diagnostics, 1);
        assert_eq!(run.diagnostics.find("memo-hit").unwrap().pass, "tail");

        // A failing stage is recorded, and its error becomes a stamped
        // diagnostic and the run's error.
        let err = run
            .stage(&config, "veto", |_| -> Result<(), _> {
                Err(SynthesisError::Unschedulable {
                    context: "vetoed".into(),
                })
            })
            .unwrap_err();
        assert!(matches!(err, SynthesisError::Unschedulable { .. }));
        assert!(matches!(
            run.error,
            Some(SynthesisError::Unschedulable { .. })
        ));
        assert_eq!(run.trace.passes.last().unwrap().pass, "veto");
        let diag = run.diagnostics.iter().last().unwrap();
        assert_eq!((diag.pass.as_str(), diag.code), ("veto", err.code()));
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
