//! Loop transformations: unrolling and merging (Sections 2.3–2.4).
//!
//! Both transforms rewrite the structured IR and are verified against the
//! interpreter in tests. Merging performs a value-based dependence analysis:
//! interleaving the iterations of loops that originally ran back-to-back is
//! bit-exact only when no read of a shared variable can observe a write
//! from the *wrong side* of the original loop boundary. The paper's
//! `ffe`/`dfe` merge is exact; its adaptation/shift merge is not (the shift
//! loops overwrite taps the adaptation loops still read), which the
//! analysis reports as hazards. Under the default
//! [`MergePolicy::AllowHazards`](crate::MergePolicy) the merge
//! proceeds anyway — mirroring the tool run the paper reports — and the
//! hazards only perturb the sign-LMS gradient (quantified in the test
//! suite).

use std::fmt;

use hls_ir::Loop;
use hls_ir::{CmpOp, Expr, Function, Stmt, Ty, Var, VarId, VarKind};

use crate::directives::{Directives, MergePolicy, Unroll};
use crate::fxhash::FxHashMap;

/// Kind of cross-boundary dependence violated by a merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HazardKind {
    /// A later loop reads a value before the earlier loop has written it.
    ReadBeforeWrite,
    /// An earlier loop's read observes a later loop's write too early.
    WriteBeforeRead,
    /// Two writes land in the wrong order.
    WriteOrder,
}

impl fmt::Display for HazardKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HazardKind::ReadBeforeWrite => f.write_str("read-before-write"),
            HazardKind::WriteBeforeRead => f.write_str("write-before-read"),
            HazardKind::WriteOrder => f.write_str("write-order"),
        }
    }
}

/// One detected merge hazard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeHazard {
    /// Label of the earlier loop.
    pub first: String,
    /// Label of the later loop.
    pub second: String,
    /// The shared variable.
    pub var: String,
    /// The dependence kind violated.
    pub kind: HazardKind,
}

impl fmt::Display for MergeHazard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "merging `{}` with `{}` breaks a {} dependence on `{}`",
            self.first, self.second, self.kind, self.var
        )
    }
}

/// Report of one performed merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeReport {
    /// Labels of the merged loops, in order.
    pub merged: Vec<String>,
    /// The surviving label (the first loop's).
    pub label: String,
    /// Trip count of the merged loop.
    pub trip_count: usize,
    /// Hazards accepted by the merge (empty when bit-exact).
    pub hazards: Vec<MergeHazard>,
}

/// Output of the transform pipeline.
#[derive(Debug, Clone)]
pub struct TransformResult {
    /// The rewritten function.
    pub func: Function,
    /// Every merge performed.
    pub merges: Vec<MergeReport>,
}

impl TransformResult {
    /// All hazards across all merges.
    pub fn hazards(&self) -> Vec<&MergeHazard> {
        self.merges.iter().flat_map(|m| m.hazards.iter()).collect()
    }
}

/// Applies unrolling then merging according to `directives`.
///
/// Unrolling runs first so that merging sees the post-unroll trip counts —
/// this is what makes the paper's third architecture merge an 8-iteration
/// `ffe` with a 16/2 = 8-iteration `dfe`.
pub fn apply_loop_transforms(func: &Function, directives: &Directives) -> TransformResult {
    let mut func = func.clone();
    narrow_counters(&mut func);
    unroll_all(&mut func, directives);
    let merges = merge_top_level(&mut func, directives);
    TransformResult { func, merges }
}

/// Automatic bit reduction for loop counters (the paper's Figure 2): each
/// counter shrinks to the minimal signed width covering every value it
/// takes, including the exit value the final comparison evaluates.
fn narrow_counters(func: &mut Function) {
    let narrowed: Vec<(VarId, u32)> = func
        .loops()
        .iter()
        .map(|l| {
            let mut vals = l.iteration_values();
            let exit = vals.last().map(|v| v + l.step).unwrap_or(l.start);
            vals.push(exit);
            let width = vals
                .iter()
                .map(|v| fixpt::BitInt::required_width(*v as i128, fixpt::Signedness::Signed))
                .max()
                .unwrap_or(2);
            (l.var, width)
        })
        .collect();
    for (var, width) in narrowed {
        func.vars[var.index()].ty = Ty::int(width.max(2));
    }
}

// ---------------------------------------------------------------------------
// Unrolling
// ---------------------------------------------------------------------------

fn unroll_all(func: &mut Function, directives: &Directives) {
    let body = std::mem::take(&mut func.body);
    let mut vars = std::mem::take(&mut func.vars);
    let new_body = unroll_block(body, directives, &mut vars);
    func.vars = vars;
    func.body = new_body;
}

fn unroll_block(stmts: Vec<Stmt>, directives: &Directives, vars: &mut Vec<Var>) -> Vec<Stmt> {
    let mut out = Vec::new();
    for s in stmts {
        match s {
            Stmt::For(l) => out.extend(unroll_loop(l, directives, vars)),
            Stmt::If { cond, then_, else_ } => out.push(Stmt::If {
                cond,
                then_: unroll_block(then_, directives, vars),
                else_: unroll_block(else_, directives, vars),
            }),
            other => out.push(other),
        }
    }
    out
}

fn unroll_loop(mut l: Loop, directives: &Directives, vars: &mut Vec<Var>) -> Vec<Stmt> {
    // Recurse into the body first (nested loops may carry directives too).
    l.body = unroll_block(std::mem::take(&mut l.body), directives, vars);
    let d = directives.loop_directive(&l.label);
    let trip = l.trip_count();
    let factor = d.unroll.factor(trip);
    if factor <= 1 || trip == 0 {
        return vec![Stmt::For(l)];
    }

    // The old counter becomes an ordinary (dead after substitution) local.
    vars[l.var.index()].kind = VarKind::Local;

    if matches!(d.unroll, Unroll::Full) || factor >= trip {
        // Full unroll: straight-line copies with constant counters.
        let mut out = Vec::new();
        for k in l.iteration_values() {
            out.push(Stmt::Assign {
                var: l.var,
                value: Expr::int_const(k),
            });
            out.extend(l.body.iter().cloned());
        }
        return out;
    }

    // Partial unroll: ceil(trip / factor) iterations of `factor` body
    // copies. Each copy gets a strength-reduced *induction register* that
    // starts at `start + j*step` and advances by `factor*step` per
    // iteration, so no multiplier sits on the index path.
    let new_trip = trip.div_ceil(factor);
    let m = fresh_counter(vars, &format!("{}_u", l.label), new_trip as i64);
    let stride = l.step * factor as i64;
    let mut init = Vec::new();
    let mut body = Vec::new();
    for j in 0..factor {
        let start_j = l.start + l.step * j as i64;
        // Width must cover every value plus the final (overshooting)
        // increment of an unconditional induction update.
        let last = start_j + stride * (new_trip as i64 - 1);
        let width = [start_j, last, last + stride]
            .iter()
            .map(|v| fixpt::BitInt::required_width(*v as i128, fixpt::Signedness::Signed))
            .max()
            .unwrap_or(2)
            .max(2);
        let k_ind = VarId::from_raw(vars.len() as u32);
        vars.push(Var {
            name: format!("{}_k{j}", l.label),
            ty: Ty::int(width),
            kind: VarKind::Local,
            len: None,
        });
        init.push(Stmt::Assign {
            var: k_ind,
            value: Expr::int_const(start_j),
        });
        // Body copy with the counter substituted by the induction register.
        let copy: Vec<Stmt> = l
            .body
            .iter()
            .map(|st| substitute_stmt(st, l.var, k_ind))
            .collect();
        // Copy j runs in the first q_j iterations.
        let q_j = (trip - 1 - j) / factor + 1;
        if q_j == new_trip {
            body.extend(copy);
        } else {
            let cond = Expr::cmp(CmpOp::Lt, Expr::var(m), Expr::int_const(q_j as i64));
            body.push(Stmt::If {
                cond,
                then_: copy,
                else_: Vec::new(),
            });
        }
        // Unconditional induction update (the overshoot is covered by the
        // register width and never observed).
        body.push(Stmt::Assign {
            var: k_ind,
            value: Expr::add(Expr::var(k_ind), Expr::int_const(stride)),
        });
    }
    let mut out = init;
    out.push(Stmt::For(Loop {
        label: l.label,
        var: m,
        start: 0,
        cmp: CmpOp::Lt,
        bound: new_trip as i64,
        step: 1,
        body,
    }));
    out
}

/// Substitutes every use of scalar `from` with `to` in one statement.
fn substitute_stmt(s: &Stmt, from: VarId, to: VarId) -> Stmt {
    let map = |v: VarId| (v == from).then(|| Expr::var(to));
    match s {
        Stmt::Assign { var, value } => Stmt::Assign {
            var: if *var == from { to } else { *var },
            value: value.substitute(&map),
        },
        Stmt::Store {
            array,
            index,
            value,
        } => Stmt::Store {
            array: *array,
            index: index.substitute(&map),
            value: value.substitute(&map),
        },
        Stmt::For(l) => Stmt::For(Loop {
            body: l
                .body
                .iter()
                .map(|st| substitute_stmt(st, from, to))
                .collect(),
            ..l.clone()
        }),
        Stmt::If { cond, then_, else_ } => Stmt::If {
            cond: cond.substitute(&map),
            then_: then_
                .iter()
                .map(|st| substitute_stmt(st, from, to))
                .collect(),
            else_: else_
                .iter()
                .map(|st| substitute_stmt(st, from, to))
                .collect(),
        },
    }
}

fn fresh_counter(vars: &mut Vec<Var>, name: &str, bound: i64) -> VarId {
    let id = VarId::from_raw(vars.len() as u32);
    let width = fixpt::BitInt::required_width(bound as i128, fixpt::Signedness::Signed).max(2);
    vars.push(Var {
        name: name.to_string(),
        ty: Ty::int(width),
        kind: VarKind::Counter,
        len: None,
    });
    id
}

// ---------------------------------------------------------------------------
// Merging
// ---------------------------------------------------------------------------

fn merge_top_level(func: &mut Function, directives: &Directives) -> Vec<MergeReport> {
    if directives.merge_policy == MergePolicy::Off {
        return Vec::new();
    }
    // Unrolling leaves induction-register initializations between loops;
    // hoist independent statements out of the way so loop adjacency (and
    // thus mergeability) is preserved.
    hoist_between_loops(func);
    let body = std::mem::take(&mut func.body);
    let mut vars = std::mem::take(&mut func.vars);
    let mut reports = Vec::new();
    let mut out: Vec<Stmt> = Vec::new();
    let mut run: Vec<Loop> = Vec::new();

    let flush = |run: &mut Vec<Loop>,
                 out: &mut Vec<Stmt>,
                 vars: &mut Vec<Var>,
                 reports: &mut Vec<MergeReport>| {
        if run.len() < 2 {
            // A lone loop has nothing to merge with.
            out.extend(run.drain(..).map(Stmt::For));
            return;
        }
        // Each loop's accesses are summarized once; every pair check of
        // the run reads the summaries.
        let summaries: Vec<AccessSummary> = run
            .iter()
            .map(|l| AccessSummary::of(l, vars.len()))
            .collect();
        let mut loops = std::mem::take(run).into_iter();
        let mut start = 0;
        for len in partition_run(&summaries, directives.merge_policy) {
            let group: Vec<Loop> = loops.by_ref().take(len).collect();
            let summaries = &summaries[start..start + len];
            start += len;
            if len == 1 {
                out.extend(group.into_iter().map(Stmt::For));
            } else {
                let (init, merged, report) = merge_group(group, summaries, vars);
                out.extend(init);
                out.push(Stmt::For(merged));
                reports.push(report);
            }
        }
    };

    for s in body {
        match s {
            Stmt::For(l) if !directives.loop_directive(&l.label).no_merge => run.push(l),
            other => {
                flush(&mut run, &mut out, &mut vars, &mut reports);
                out.push(other);
            }
        }
    }
    flush(&mut run, &mut out, &mut vars, &mut reports);

    func.vars = vars;
    func.body = out;
    reports
}

/// Splits a run of adjacent loops into mergeable groups according to
/// policy: the lengths of consecutive groups, from the loops' access
/// summaries.
fn partition_run(summaries: &[AccessSummary], policy: MergePolicy) -> Vec<usize> {
    match policy {
        MergePolicy::Off => vec![1; summaries.len()],
        MergePolicy::AllowHazards => vec![summaries.len()],
        MergePolicy::ExactOnly => {
            // A loop joins the last group when it is hazard-free with
            // every member.
            let mut groups: Vec<usize> = Vec::new();
            let mut group_start = 0;
            for (j, later) in summaries.iter().enumerate() {
                let fits = j > 0
                    && summaries[group_start..j]
                        .iter()
                        .all(|prev| witnesses(prev, later, true).is_empty());
                if fits {
                    *groups.last_mut().expect("nonempty") += 1;
                } else {
                    groups.push(1);
                    group_start = j;
                }
            }
            groups
        }
    }
}

fn merge_group(
    group: Vec<Loop>,
    summaries: &[AccessSummary],
    vars: &mut Vec<Var>,
) -> (Vec<Stmt>, Loop, MergeReport) {
    let label = group[0].label.clone();
    let trip = group.iter().map(Loop::trip_count).max().unwrap_or(0);
    let mut hazards = Vec::new();
    for i in 0..group.len() {
        for j in (i + 1)..group.len() {
            hazards.extend(hazards_between(
                &group[i],
                &summaries[i],
                &group[j],
                &summaries[j],
                vars,
            ));
        }
    }
    let m = fresh_counter(vars, &format!("{label}_m"), trip as i64);
    let merged_labels = group.iter().map(|l| l.label.clone()).collect();
    let mut init = Vec::new();
    let mut body = Vec::new();
    for l in group {
        // The constituent counter becomes an induction register: set to its
        // start value before the loop and stepped (under the guard) at the
        // end of its section, so no multiplier sits on the index path.
        vars[l.var.index()].kind = VarKind::Local;
        init.push(Stmt::Assign {
            var: l.var,
            value: Expr::int_const(l.start),
        });
        let trip_count = l.trip_count();
        let mut section: Vec<Stmt> = l.body;
        section.push(Stmt::Assign {
            var: l.var,
            value: Expr::add(Expr::var(l.var), Expr::int_const(l.step)),
        });
        if trip_count < trip {
            let cond = Expr::cmp(CmpOp::Lt, Expr::var(m), Expr::int_const(trip_count as i64));
            body.push(Stmt::If {
                cond,
                then_: section,
                else_: Vec::new(),
            });
        } else {
            body.extend(section);
        }
    }
    let merged = Loop {
        label: label.clone(),
        var: m,
        start: 0,
        cmp: CmpOp::Lt,
        bound: trip as i64,
        step: 1,
        body,
    };
    let report = MergeReport {
        merged: merged_labels,
        label,
        trip_count: trip,
        hazards,
    };
    (init, merged, report)
}

/// Hoists loop-independent straight-line statements upward across loops so
/// that code stranded between two loops does not consume its own FSM state.
pub(crate) fn hoist_between_loops(func: &mut Function) {
    let mut body = std::mem::take(&mut func.body);
    let mut changed = true;
    while changed {
        changed = false;
        for i in 1..body.len() {
            let movable = matches!(body[i], Stmt::Assign { .. } | Stmt::Store { .. });
            if !movable || !matches!(body[i - 1], Stmt::For(_)) {
                continue;
            }
            let stmt_reads = body[i].reads();
            let stmt_writes = body[i].writes();
            let Stmt::For(l) = &body[i - 1] else {
                unreachable!()
            };
            let loop_reads: Vec<VarId> = l.body.iter().flat_map(|s| s.reads()).collect();
            let mut loop_writes: Vec<VarId> = l.body.iter().flat_map(|s| s.writes()).collect();
            loop_writes.push(l.var);
            let conflict = stmt_reads.iter().any(|v| loop_writes.contains(v))
                || stmt_writes
                    .iter()
                    .any(|v| loop_writes.contains(v) || loop_reads.contains(v));
            if !conflict {
                body.swap(i - 1, i);
                changed = true;
            }
        }
    }
    func.body = body;
}

// ---------------------------------------------------------------------------
// Dependence analysis
// ---------------------------------------------------------------------------
//
// Each loop is executed abstractly, iteration by iteration, with every
// statically evaluable scalar tracked (`collect`). That yields the loop's
// access sequence: one access per variable read or write, with its
// element (the statically evaluated index, `Some(0)` for a scalar, `None`
// for "any element") and its *slot*, the merged iteration it runs in. An
// access's *position* is its index in the sequence, so positions grow
// with slots.
//
// Merging `first` with `second` breaks a dependence when an access of
// `first` and an aliasing access of `second` (same variable, elements
// that may coincide, at least one a write) land in slots
// `first_slot > second_slot`: within one merged iteration `first`'s body
// runs before `second`'s, so equal slots keep the original order. The
// hazards are reported in the order of each one's first witness pair,
// `(position in first, position in second)` ordered lexicographically.
//
// One summary per loop ([`AccessSummary`]) answers that for every pair
// in time linear in the summaries: for a key of `first`, the earliest
// aliasing access of `second` has the lowest slot of all of them, so the
// key is a witness exactly from its first slot above that one on, and
// that earliest access is its partner.

/// `(variable, element, write)`: one kind of access. The element is
/// `None` when the index is not statically known.
type AccessKey = (VarId, Option<i64>, bool);

/// `(slot, position)` of one access.
type Seen = (usize, usize);

/// A loop's accesses, summarized for merge legality. Built once per loop
/// and read by every pair check the loop takes part in.
#[derive(Debug, Default)]
struct AccessSummary {
    /// Per access key, the first access of every slot the key occurs in,
    /// in ascending slot order.
    by_key: FxHashMap<AccessKey, Vec<Seen>>,
    /// Per `(variable, write)`, the first access over every element.
    by_var: FxHashMap<(VarId, bool), Seen>,
}

impl AccessSummary {
    /// Abstractly executes every iteration of `l` (its counter and the
    /// scalars of a function with `vars` variables tracked).
    fn of(l: &Loop, vars: usize) -> AccessSummary {
        let mut walk = AccessWalk {
            summary: AccessSummary::default(),
            slot: 0,
            pos: 0,
        };
        let mut env = Env(vec![None; vars]);
        for (slot, k) in l.iteration_values().into_iter().enumerate() {
            env.0.fill(None);
            env.set(l.var, Some(k));
            walk.slot = slot;
            walk.stmts(&l.body, &mut env);
        }
        let mut summary = walk.summary;
        for (&(var, _, write), seen) in &summary.by_key {
            let first = summary.by_var.entry((var, write)).or_insert(seen[0]);
            if seen[0].1 < first.1 {
                *first = seen[0];
            }
        }
        summary
    }

    /// The first access of `var` with write flag `write` whose element may
    /// be `element`. It is the earliest of them and so in the lowest slot.
    fn first_aliasing(&self, var: VarId, element: Option<i64>, write: bool) -> Option<Seen> {
        if element.is_none() {
            return self.by_var.get(&(var, write)).copied();
        }
        let first = |e: Option<i64>| self.by_key.get(&(var, e, write)).map(|seen| seen[0]);
        [first(element), first(None)]
            .into_iter()
            .flatten()
            .min_by_key(|&(_, pos)| pos)
    }
}

/// The first witness pair of every hazard between a `first` and a
/// `second` loop, as `(position in first, position in second, variable,
/// kind)`, in witness order. A `(variable, kind)` may appear more than
/// once (once per element of `first`); its first entry is its first
/// witness. With `stop_at_one`, returns as soon as one is found.
fn witnesses(
    first: &AccessSummary,
    second: &AccessSummary,
    stop_at_one: bool,
) -> Vec<(usize, usize, VarId, HazardKind)> {
    let mut found = Vec::new();
    for (&(var, element, w1), seen) in &first.by_key {
        for w2 in [false, true] {
            let kind = match (w1, w2) {
                // first writes, second reads: the read must not come
                // earlier than the write.
                (true, false) => HazardKind::ReadBeforeWrite,
                // first reads, second writes: the write must not come
                // earlier than the read.
                (false, true) => HazardKind::WriteBeforeRead,
                (true, true) => HazardKind::WriteOrder,
                (false, false) => continue,
            };
            let Some((slot2, pos2)) = second.first_aliasing(var, element, w2) else {
                continue;
            };
            let later = seen.partition_point(|&(slot, _)| slot <= slot2);
            if let Some(&(_, pos1)) = seen.get(later) {
                found.push((pos1, pos2, var, kind));
                if stop_at_one {
                    return found;
                }
            }
        }
    }
    // Every entry has its own position pair: the first position names
    // the key, and the two write flags give the second one.
    found.sort_unstable_by_key(|&(pos1, pos2, _, _)| (pos1, pos2));
    found
}

/// The hazards of merging loop `first` (summary `a`) with the later loop
/// `second` (summary `b`), deduplicated by variable name and kind in
/// witness order.
fn hazards_between(
    first: &Loop,
    a: &AccessSummary,
    second: &Loop,
    b: &AccessSummary,
    vars: &[Var],
) -> Vec<MergeHazard> {
    let mut hazards: Vec<MergeHazard> = Vec::new();
    for (_, _, var, kind) in witnesses(a, b, false) {
        let var = &vars[var.index()].name;
        if !hazards.iter().any(|h| h.kind == kind && &h.var == var) {
            hazards.push(MergeHazard {
                first: first.label.clone(),
                second: second.label.clone(),
                var: var.clone(),
                kind,
            });
        }
    }
    hazards
}

/// Computes the hazards created by interleaving `first` (originally earlier)
/// with `second` iteration-by-iteration.
///
/// Within one merged iteration `first`'s body executes before `second`'s, so
/// an access pair is ordered correctly iff `first`'s slot ≤ `second`'s slot
/// for first→second dependences, and strictly `<` the other way around.
/// Hazards come in the order of their first witness pair (see the
/// dependence analysis notes in this module's source).
pub fn merge_hazards(first: &Loop, second: &Loop, vars: &[Var]) -> Vec<MergeHazard> {
    let a = AccessSummary::of(first, vars.len());
    let b = AccessSummary::of(second, vars.len());
    hazards_between(first, &a, second, &b, vars)
}

/// Statically known scalar values during abstract execution, by variable
/// index (`None` is unknown).
#[derive(Debug, Clone)]
struct Env(Vec<Option<i64>>);

impl Env {
    fn get(&self, v: VarId) -> Option<i64> {
        self.0.get(v.index()).copied().flatten()
    }

    fn set(&mut self, v: VarId, value: Option<i64>) {
        let i = v.index();
        if i >= self.0.len() {
            self.0.resize(i + 1, None);
        }
        self.0[i] = value;
    }
}

/// Abstract execution of one loop, feeding its accesses, in order, into
/// a summary.
struct AccessWalk {
    summary: AccessSummary,
    /// The slot of the iteration being executed.
    slot: usize,
    /// The position the next access takes.
    pos: usize,
}

impl AccessWalk {
    fn access(&mut self, var: VarId, element: Option<i64>, write: bool) {
        let at = (self.slot, self.pos);
        self.pos += 1;
        let seen = self
            .summary
            .by_key
            .entry((var, element, write))
            .or_default();
        if seen.last().is_none_or(|&(slot, _)| slot != at.0) {
            seen.push(at);
        }
    }

    fn stmts(&mut self, stmts: &[Stmt], env: &mut Env) {
        for s in stmts {
            match s {
                Stmt::Assign { var, value } => {
                    self.expr(value, env);
                    self.access(*var, Some(0), true);
                    env.set(*var, eval_int(value, env));
                }
                Stmt::Store {
                    array,
                    index,
                    value,
                } => {
                    self.expr(index, env);
                    self.expr(value, env);
                    self.access(*array, eval_int(index, env), true);
                }
                Stmt::For(inner) => {
                    // Nested loop: execute abstractly with its own counter.
                    for k in inner.iteration_values() {
                        env.set(inner.var, Some(k));
                        self.stmts(&inner.body, env);
                    }
                }
                Stmt::If { cond, then_, else_ } => {
                    self.expr(cond, env);
                    match eval_bool(cond, env) {
                        Some(true) => self.stmts(then_, env),
                        Some(false) => self.stmts(else_, env),
                        None => {
                            // Both branches may run; scalars they write
                            // become unknown.
                            let mut e1 = env.clone();
                            self.stmts(then_, &mut e1);
                            let mut e2 = env.clone();
                            self.stmts(else_, &mut e2);
                            for (i, v) in env.0.iter_mut().enumerate() {
                                let id = VarId::from_raw(i as u32);
                                if v.is_some() && (e1.get(id) != *v || e2.get(id) != *v) {
                                    *v = None;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    fn expr(&mut self, e: &Expr, env: &Env) {
        match e {
            Expr::Var(v) => self.access(*v, Some(0), false),
            Expr::Load { array, index } => {
                self.expr(index, env);
                self.access(*array, eval_int(index, env), false);
            }
            Expr::Const(_) | Expr::ConstBool(_) => {}
            Expr::Unary { arg, .. } | Expr::Cast { arg, .. } => self.expr(arg, env),
            Expr::Binary { lhs, rhs, .. } | Expr::Compare { lhs, rhs, .. } => {
                self.expr(lhs, env);
                self.expr(rhs, env);
            }
            Expr::Select { cond, then_, else_ } => {
                self.expr(cond, env);
                self.expr(then_, env);
                self.expr(else_, env);
            }
        }
    }
}

/// Best-effort static integer evaluation (affine counter expressions).
fn eval_int(e: &Expr, env: &Env) -> Option<i64> {
    match e {
        Expr::Const(c) => Some(c.to_i64()),
        Expr::Var(v) => env.get(*v),
        Expr::Binary { op, lhs, rhs } => {
            let a = eval_int(lhs, env)?;
            let b = eval_int(rhs, env)?;
            match op {
                hls_ir::BinOp::Add => Some(a + b),
                hls_ir::BinOp::Sub => Some(a - b),
                hls_ir::BinOp::Mul => Some(a * b),
                _ => None,
            }
        }
        Expr::Cast { arg, .. } => eval_int(arg, env),
        _ => None,
    }
}

fn eval_bool(e: &Expr, env: &Env) -> Option<bool> {
    match e {
        Expr::ConstBool(b) => Some(*b),
        Expr::Compare { op, lhs, rhs } => {
            let a = eval_int(lhs, env)?;
            let b = eval_int(rhs, env)?;
            Some(op.eval(a.cmp(&b)))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixpt::{Fixed, Format, Signedness};
    use hls_ir::{FunctionBuilder, Interpreter, Slot};
    use std::collections::BTreeMap;

    /// Builds `out[k] = a[k] * 2` over n elements, plus a second loop
    /// `acc += out[k]` — merge-exact because out[k] is written at slot k and
    /// read at slot k (first body runs before second within a slot).
    fn exact_pair(n: i64) -> Function {
        let mut b = FunctionBuilder::new("p");
        let a = b.param_array("a", Ty::int(8), n as usize);
        let o = b.param_array("o", Ty::int(10), n as usize);
        let acc = b.param_scalar("acc", Ty::int(16));
        b.for_loop("scale", 0, CmpOp::Lt, n, 1, |b, k| {
            b.store(
                o,
                Expr::var(k),
                Expr::mul(Expr::load(a, Expr::var(k)), Expr::int_const(2)),
            );
        });
        b.for_loop("sum", 0, CmpOp::Lt, n, 1, |b, k| {
            b.assign(acc, Expr::add(Expr::var(acc), Expr::load(o, Expr::var(k))));
        });
        b.build()
    }

    /// A shift loop after a read loop — the paper's hazardous pattern.
    fn hazard_pair() -> Function {
        let mut b = FunctionBuilder::new("h");
        let x = b.param_array("x", Ty::int(8), 8);
        let acc = b.param_scalar("acc", Ty::int(16));
        b.for_loop("read", 0, CmpOp::Lt, 8, 1, |b, k| {
            b.assign(acc, Expr::add(Expr::var(acc), Expr::load(x, Expr::var(k))));
        });
        b.for_loop("shift", 6, CmpOp::Ge, 0, -1, |b, k| {
            b.store(
                x,
                Expr::add(Expr::var(k), Expr::int_const(1)),
                Expr::load(x, Expr::var(k)),
            );
        });
        b.build()
    }

    fn run(func: &Function, inputs: &[(VarId, Slot)]) -> BTreeMap<VarId, Slot> {
        // Fill unsupplied parameters with zeros (scalars and arrays alike).
        let mut all: Vec<(VarId, Slot)> = inputs.to_vec();
        for &p in &func.params {
            if all.iter().any(|(id, _)| *id == p) {
                continue;
            }
            let v = func.var(p);
            let fmt = v.ty.format().expect("numeric param");
            let slot = match v.len {
                Some(n) => Slot::Array(vec![Fixed::zero(fmt); n]),
                None => Slot::Scalar(Fixed::zero(fmt)),
            };
            all.push((p, slot));
        }
        Interpreter::new(func.clone())
            .call(&all)
            .expect("interpreter runs")
    }

    fn int_arr(vals: &[i64], width: u32) -> Slot {
        let fmt = Format::integer(width, Signedness::Signed);
        Slot::Array(vals.iter().map(|v| Fixed::from_int(*v, fmt)).collect())
    }

    #[test]
    fn exact_merge_detected_and_preserves_semantics() {
        let f = exact_pair(6);
        let d = Directives::new(10.0).merge_policy(MergePolicy::ExactOnly);
        let t = apply_loop_transforms(&f, &d);
        assert_eq!(t.merges.len(), 1);
        assert!(t.merges[0].hazards.is_empty());
        assert_eq!(t.merges[0].merged, vec!["scale", "sum"]);
        assert_eq!(t.func.loops().len(), 1);
        assert_eq!(t.func.find_loop("scale").unwrap().trip_count(), 6);

        let a = f.params[0];
        let acc = f.params[2];
        let inputs = vec![(a, int_arr(&[1, -2, 3, -4, 5, -6], 8))];
        let ref_out = run(&f, &inputs);
        let merged_out = run(&t.func, &inputs);
        assert_eq!(
            ref_out[&acc].scalar().unwrap().to_i64(),
            merged_out[&acc].scalar().unwrap().to_i64()
        );
        assert_eq!(
            ref_out[&acc].scalar().unwrap().to_i64(),
            2 * (1 - 2 + 3 - 4 + 5 - 6)
        );
    }

    #[test]
    fn hazardous_merge_detected() {
        let f = hazard_pair();
        let read = f.find_loop("read").unwrap().clone();
        let shift = f.find_loop("shift").unwrap().clone();
        let hz = merge_hazards(&read, &shift, &f.vars);
        assert!(
            hz.iter()
                .any(|h| h.var == "x" && h.kind == HazardKind::WriteBeforeRead),
            "{hz:?}"
        );
    }

    #[test]
    fn exact_only_policy_refuses_hazardous_merge() {
        let f = hazard_pair();
        let d = Directives::new(10.0).merge_policy(MergePolicy::ExactOnly);
        let t = apply_loop_transforms(&f, &d);
        assert!(t.merges.is_empty());
        assert_eq!(t.func.loops().len(), 2);
    }

    #[test]
    fn allow_hazards_merges_and_reports() {
        let f = hazard_pair();
        let d = Directives::new(10.0); // AllowHazards default
        let t = apply_loop_transforms(&f, &d);
        assert_eq!(t.merges.len(), 1);
        assert!(!t.merges[0].hazards.is_empty());
        assert_eq!(t.func.loops().len(), 1);
        assert_eq!(t.func.find_loop("read").unwrap().trip_count(), 8);
    }

    #[test]
    fn merged_loops_with_different_trips_are_guarded() {
        let mut b = FunctionBuilder::new("g");
        let a = b.param_array("a", Ty::int(8), 4);
        let o = b.param_array("o", Ty::int(8), 8);
        b.for_loop("short", 0, CmpOp::Lt, 4, 1, |b, k| {
            b.store(o, Expr::var(k), Expr::load(a, Expr::var(k)));
        });
        b.for_loop("long", 0, CmpOp::Lt, 8, 1, |b, k| {
            b.store(
                o,
                Expr::var(k),
                Expr::add(Expr::load(o, Expr::var(k)), Expr::int_const(1)),
            );
        });
        let f = b.build();
        let d = Directives::new(10.0);
        let t = apply_loop_transforms(&f, &d);
        assert_eq!(t.func.loops().len(), 1);
        let merged = t.func.find_loop("short").unwrap();
        assert_eq!(merged.trip_count(), 8);

        // Semantics: o[k] = a[k] + 1 for k < 4, else 1.
        let a_id = f.params[0];
        let o_id = f.params[1];
        let out = run(&t.func, &[(a_id, int_arr(&[5, 6, 7, 8], 8))]);
        let vals: Vec<i64> = out[&o_id]
            .array()
            .unwrap()
            .iter()
            .map(|v| v.to_i64())
            .collect();
        assert_eq!(vals, vec![6, 7, 8, 9, 1, 1, 1, 1]);
    }

    #[test]
    fn partial_unroll_preserves_semantics() {
        for (n, factor) in [(8, 2), (16, 4), (15, 4), (7, 2), (5, 3)] {
            let f = exact_pair(n);
            let d = Directives::new(10.0)
                .no_merging()
                .unroll("scale", Unroll::Factor(factor))
                .unroll("sum", Unroll::Factor(factor));
            let t = apply_loop_transforms(&f, &d);
            let expect_trip = (n as usize).div_ceil(factor as usize);
            assert_eq!(
                t.func.find_loop("scale").unwrap().trip_count(),
                expect_trip,
                "n={n} f={factor}"
            );

            let vals: Vec<i64> = (0..n).map(|i| i - 3).collect();
            let a = f.params[0];
            let acc = f.params[2];
            let ref_out = run(&f, &[(a, int_arr(&vals, 8))]);
            let unr_out = run(&t.func, &[(a, int_arr(&vals, 8))]);
            assert_eq!(
                ref_out[&acc].scalar().unwrap().to_i64(),
                unr_out[&acc].scalar().unwrap().to_i64(),
                "n={n} f={factor}"
            );
        }
    }

    #[test]
    fn full_unroll_eliminates_loop() {
        let f = exact_pair(4);
        let d = Directives::new(10.0)
            .no_merging()
            .unroll("scale", Unroll::Full);
        let t = apply_loop_transforms(&f, &d);
        assert!(t.func.find_loop("scale").is_none());
        assert!(t.func.find_loop("sum").is_some());

        let a = f.params[0];
        let acc = f.params[2];
        let ref_out = run(&f, &[(a, int_arr(&[9, 8, 7, 6], 8))]);
        let unr_out = run(&t.func, &[(a, int_arr(&[9, 8, 7, 6], 8))]);
        assert_eq!(
            ref_out[&acc].scalar().unwrap().to_i64(),
            unr_out[&acc].scalar().unwrap().to_i64()
        );
    }

    #[test]
    fn unroll_descending_loop_preserves_semantics() {
        // The paper's dfe_shift shape: descending shift with U = 4.
        let mut b = FunctionBuilder::new("s");
        let a = b.param_array("a", Ty::int(8), 16);
        b.for_loop("shift", 14, CmpOp::Ge, 0, -1, |b, k| {
            b.store(
                a,
                Expr::add(Expr::var(k), Expr::int_const(1)),
                Expr::load(a, Expr::var(k)),
            );
        });
        let f = b.build();
        let d = Directives::new(10.0)
            .no_merging()
            .unroll("shift", Unroll::Factor(4));
        let t = apply_loop_transforms(&f, &d);
        assert_eq!(t.func.find_loop("shift").unwrap().trip_count(), 4); // ceil(15/4)

        let vals: Vec<i64> = (0..16).collect();
        let a_id = f.params[0];
        let ref_out = run(&f, &[(a_id, int_arr(&vals, 8))]);
        let unr_out = run(&t.func, &[(a_id, int_arr(&vals, 8))]);
        assert_eq!(
            ref_out[&a_id].array().unwrap(),
            unr_out[&a_id].array().unwrap()
        );
    }

    #[test]
    fn unroll_then_merge_composes() {
        // Like the paper's third architecture: unroll the long loop to match
        // the short one, then merge.
        let mut b = FunctionBuilder::new("c");
        let a = b.param_array("a", Ty::int(8), 8);
        let c = b.param_array("c", Ty::int(8), 16);
        let s1 = b.param_scalar("s1", Ty::int(16));
        let s2 = b.param_scalar("s2", Ty::int(16));
        b.for_loop("short", 0, CmpOp::Lt, 8, 1, |b, k| {
            b.assign(s1, Expr::add(Expr::var(s1), Expr::load(a, Expr::var(k))));
        });
        b.for_loop("long", 0, CmpOp::Lt, 16, 1, |b, k| {
            b.assign(s2, Expr::add(Expr::var(s2), Expr::load(c, Expr::var(k))));
        });
        let f = b.build();
        let d = Directives::new(10.0).unroll("long", Unroll::Factor(2));
        let t = apply_loop_transforms(&f, &d);
        assert_eq!(t.func.loops().len(), 1);
        assert_eq!(t.func.find_loop("short").unwrap().trip_count(), 8);

        let (a_id, c_id, s1_id, s2_id) = (f.params[0], f.params[1], f.params[2], f.params[3]);
        let av: Vec<i64> = (0..8).collect();
        let cv: Vec<i64> = (0..16).map(|i| i * 2).collect();
        let out = run(&t.func, &[(a_id, int_arr(&av, 8)), (c_id, int_arr(&cv, 8))]);
        assert_eq!(
            out[&s1_id].scalar().unwrap().to_i64(),
            av.iter().sum::<i64>()
        );
        assert_eq!(
            out[&s2_id].scalar().unwrap().to_i64(),
            cv.iter().sum::<i64>()
        );
    }

    #[test]
    fn transformed_functions_still_validate() {
        let f = exact_pair(15);
        let d = Directives::new(10.0).unroll("scale", Unroll::Factor(4));
        let t = apply_loop_transforms(&f, &d);
        assert!(
            hls_ir::validate(&t.func).is_empty(),
            "{:?}",
            hls_ir::validate(&t.func)
        );
    }
}
