//! Differential test of merge legality: [`hls_core::merge_hazards`]
//! against the quadratic analysis it replaced, kept here as the
//! reference. The reference enumerates every access of both loops and
//! compares each access of the first loop with each access of the
//! second; the library summarizes each loop once and answers from the
//! summaries. Both must return the same hazards in the same order.
//!
//! Cases: every ordered pair of the decoder's top-level loops under each
//! Table-1 architecture's unrolls, the loop pairs of the diagnostics and
//! transform tests, and seeded random pairs (ascending and descending
//! loops; constant, affine and unknown indices; nested loops; `if`
//! guards; scalars and arrays).

use std::collections::BTreeMap;

use hls_core::{apply_loop_transforms, merge_hazards, Directives, HazardKind, MergeHazard, Unroll};
use hls_ir::{
    parse_function, BinOp, CmpOp, Expr, Function, FunctionBuilder, Loop, Stmt, Ty, Var, VarId,
    VarKind,
};
use proptest::prelude::*;
use proptest::strategy::TestRng;

// ---------------------------------------------------------------------------
// The reference: the quadratic analysis, verbatim
// ---------------------------------------------------------------------------

/// One observed variable access during abstract per-iteration execution.
#[derive(Debug, Clone, PartialEq)]
struct Access {
    var: VarId,
    /// Element index when statically known; `None` means "any element".
    index: Option<i64>,
    write: bool,
    /// Merged-iteration slot in which the access happens.
    iter: usize,
}

fn reference_hazards(first: &Loop, second: &Loop, vars: &[Var]) -> Vec<MergeHazard> {
    let acc1 = loop_accesses(first);
    let acc2 = loop_accesses(second);
    let mut hazards = Vec::new();
    let mut push = |var: VarId, kind: HazardKind| {
        let h = MergeHazard {
            first: first.label.clone(),
            second: second.label.clone(),
            var: vars[var.index()].name.clone(),
            kind,
        };
        if !hazards.contains(&h) {
            hazards.push(h);
        }
    };
    for a1 in &acc1 {
        for a2 in &acc2 {
            if a1.var != a2.var || !may_alias(a1.index, a2.index) {
                continue;
            }
            match (a1.write, a2.write) {
                (true, false) => {
                    if a1.iter > a2.iter {
                        push(a1.var, HazardKind::ReadBeforeWrite);
                    }
                }
                (false, true) => {
                    if a1.iter > a2.iter {
                        push(a1.var, HazardKind::WriteBeforeRead);
                    }
                }
                (true, true) => {
                    if a1.iter > a2.iter {
                        push(a1.var, HazardKind::WriteOrder);
                    }
                }
                (false, false) => {}
            }
        }
    }
    hazards
}

fn loop_accesses(l: &Loop) -> Vec<Access> {
    let mut out = Vec::new();
    for (slot, k) in l.iteration_values().into_iter().enumerate() {
        let mut env: BTreeMap<VarId, i64> = BTreeMap::new();
        env.insert(l.var, k);
        collect_accesses(&l.body, &mut env, slot, &mut out);
    }
    out
}

fn collect_accesses(
    stmts: &[Stmt],
    env: &mut BTreeMap<VarId, i64>,
    slot: usize,
    out: &mut Vec<Access>,
) {
    for s in stmts {
        match s {
            Stmt::Assign { var, value } => {
                expr_accesses(value, env, slot, out);
                out.push(Access {
                    var: *var,
                    index: Some(0),
                    write: true,
                    iter: slot,
                });
                match eval_int(value, env) {
                    Some(v) => {
                        env.insert(*var, v);
                    }
                    None => {
                        env.remove(var);
                    }
                }
            }
            Stmt::Store {
                array,
                index,
                value,
            } => {
                expr_accesses(index, env, slot, out);
                expr_accesses(value, env, slot, out);
                out.push(Access {
                    var: *array,
                    index: eval_int(index, env),
                    write: true,
                    iter: slot,
                });
            }
            Stmt::For(inner) => {
                for k in inner.iteration_values() {
                    env.insert(inner.var, k);
                    collect_accesses(&inner.body, env, slot, out);
                }
            }
            Stmt::If { cond, then_, else_ } => {
                expr_accesses(cond, env, slot, out);
                match eval_bool(cond, env) {
                    Some(true) => collect_accesses(then_, env, slot, out),
                    Some(false) => collect_accesses(else_, env, slot, out),
                    None => {
                        let mut e1 = env.clone();
                        collect_accesses(then_, &mut e1, slot, out);
                        let mut e2 = env.clone();
                        collect_accesses(else_, &mut e2, slot, out);
                        let keys: Vec<VarId> = env.keys().copied().collect();
                        for k in keys {
                            if e1.get(&k) != Some(&env[&k]) || e2.get(&k) != Some(&env[&k]) {
                                env.remove(&k);
                            }
                        }
                    }
                }
            }
        }
    }
}

fn expr_accesses(e: &Expr, env: &BTreeMap<VarId, i64>, slot: usize, out: &mut Vec<Access>) {
    match e {
        Expr::Var(v) => out.push(Access {
            var: *v,
            index: Some(0),
            write: false,
            iter: slot,
        }),
        Expr::Load { array, index } => {
            expr_accesses(index, env, slot, out);
            out.push(Access {
                var: *array,
                index: eval_int(index, env),
                write: false,
                iter: slot,
            });
        }
        Expr::Const(_) | Expr::ConstBool(_) => {}
        Expr::Unary { arg, .. } | Expr::Cast { arg, .. } => expr_accesses(arg, env, slot, out),
        Expr::Binary { lhs, rhs, .. } | Expr::Compare { lhs, rhs, .. } => {
            expr_accesses(lhs, env, slot, out);
            expr_accesses(rhs, env, slot, out);
        }
        Expr::Select { cond, then_, else_ } => {
            expr_accesses(cond, env, slot, out);
            expr_accesses(then_, env, slot, out);
            expr_accesses(else_, env, slot, out);
        }
    }
}

fn may_alias(a: Option<i64>, b: Option<i64>) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => x == y,
        _ => true,
    }
}

fn eval_int(e: &Expr, env: &BTreeMap<VarId, i64>) -> Option<i64> {
    match e {
        Expr::Const(c) => Some(c.to_i64()),
        Expr::Var(v) => env.get(v).copied(),
        Expr::Binary { op, lhs, rhs } => {
            let a = eval_int(lhs, env)?;
            let b = eval_int(rhs, env)?;
            match op {
                BinOp::Add => Some(a + b),
                BinOp::Sub => Some(a - b),
                BinOp::Mul => Some(a * b),
                _ => None,
            }
        }
        Expr::Cast { arg, .. } => eval_int(arg, env),
        _ => None,
    }
}

fn eval_bool(e: &Expr, env: &BTreeMap<VarId, i64>) -> Option<bool> {
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

/// Asserts that the library and the reference agree on `first` then
/// `second`, order included, and returns the hazards.
fn assert_agree(first: &Loop, second: &Loop, vars: &[Var]) -> Vec<MergeHazard> {
    let expected = reference_hazards(first, second, vars);
    let actual = merge_hazards(first, second, vars);
    assert_eq!(
        actual, expected,
        "`{}` then `{}` disagree",
        first.label, second.label
    );
    actual
}

/// Every ordered pair of the top-level loops of `f`.
fn assert_all_pairs_agree(f: &Function) -> usize {
    let loops: Vec<&Loop> = f
        .body
        .iter()
        .filter_map(|s| match s {
            Stmt::For(l) => Some(l),
            _ => None,
        })
        .collect();
    let mut hazardous = 0;
    for (i, a) in loops.iter().enumerate() {
        for (j, b) in loops.iter().enumerate() {
            if i != j && !assert_agree(a, b, &f.vars).is_empty() {
                hazardous += 1;
            }
        }
    }
    hazardous
}

// ---------------------------------------------------------------------------
// The decoder under the Table-1 unrolls
// ---------------------------------------------------------------------------

const QAM_DECODER_SOURCE: &str = include_str!("../../qam/src/qam_decoder.cpp");

/// The unroll directives of the four Table-1 architectures (`merged`,
/// `none`, `merged-u2`, `merged-u4`).
fn table1_unrolls() -> Vec<(&'static str, Vec<(&'static str, u32)>)> {
    vec![
        ("merged", vec![]),
        ("none", vec![]),
        (
            "merged-u2",
            vec![("dfe", 2), ("dfe_adapt", 2), ("dfe_shift", 2)],
        ),
        (
            "merged-u4",
            vec![
                ("dfe", 2),
                ("ffe_adapt", 2),
                ("dfe_adapt", 4),
                ("dfe_shift", 4),
            ],
        ),
    ]
}

#[test]
fn decoder_loop_pairs_agree_under_every_table1_unroll() {
    let decoder = parse_function(QAM_DECODER_SOURCE).expect("the decoder parses");
    let mut hazardous = 0;
    for (arch, unrolls) in table1_unrolls() {
        // Unrolled as the architecture unrolls them, not yet merged.
        let mut d = Directives::new(10.0).no_merging();
        for (label, factor) in unrolls {
            d = d.unroll(label, Unroll::Factor(factor));
        }
        let t = apply_loop_transforms(&decoder, &d);
        assert_eq!(t.func.loops().len(), 6, "{arch}");
        hazardous += assert_all_pairs_agree(&t.func);
    }
    assert!(hazardous > 0, "no decoder pair is hazardous");
}

// ---------------------------------------------------------------------------
// The hand-written pairs of the diagnostics and transform tests
// ---------------------------------------------------------------------------

/// A read loop followed by the shift loop that overwrites what it reads.
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

/// `out[k] = a[k] * 2`, then `acc += out[k]`: merge-exact.
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

/// A producer and a consumer whose nested window loop reads `x[k + j]`
/// for `j < window`: hazardous for a window above one.
fn nested_window(window: i64) -> Function {
    let mut b = FunctionBuilder::new("n");
    let x = b.param_array("x", Ty::int(8), 8);
    let a = b.param_array("a", Ty::int(8), 8);
    let acc = b.param_scalar("acc", Ty::int(16));
    b.for_loop("produce", 0, CmpOp::Lt, 6, 1, |b, k| {
        b.store(x, Expr::var(k), Expr::load(a, Expr::var(k)));
    });
    b.for_loop("consume", 0, CmpOp::Lt, 4, 1, |b, k| {
        b.for_loop("win", 0, CmpOp::Lt, window, 1, |b, j| {
            b.assign(
                acc,
                Expr::add(
                    Expr::var(acc),
                    Expr::load(x, Expr::add(Expr::var(k), Expr::var(j))),
                ),
            );
        });
    });
    b.build()
}

/// A producer and a consumer that only ever reads `x[k]`, three times.
fn nested_aligned() -> Function {
    let mut b = FunctionBuilder::new("s");
    let x = b.param_array("x", Ty::int(8), 8);
    let a = b.param_array("a", Ty::int(8), 8);
    let acc = b.param_scalar("acc", Ty::int(16));
    b.for_loop("produce", 0, CmpOp::Lt, 6, 1, |b, k| {
        b.store(x, Expr::var(k), Expr::load(a, Expr::var(k)));
    });
    b.for_loop("consume", 0, CmpOp::Lt, 6, 1, |b, k| {
        b.for_loop("rep", 0, CmpOp::Lt, 3, 1, |b, _j| {
            b.assign(acc, Expr::add(Expr::var(acc), Expr::load(x, Expr::var(k))));
        });
    });
    b.build()
}

/// Two loops writing one array in opposite directions.
fn opposing_writes() -> Function {
    let mut b = FunctionBuilder::new("w");
    let o = b.param_array("o", Ty::int(8), 8);
    b.for_loop("up", 0, CmpOp::Lt, 8, 1, |b, k| {
        b.store(o, Expr::var(k), Expr::int_const(1));
    });
    b.for_loop("down", 0, CmpOp::Lt, 8, 1, |b, k| {
        b.store(
            o,
            Expr::sub(Expr::int_const(7), Expr::var(k)),
            Expr::int_const(2),
        );
    });
    b.build()
}

#[test]
fn hand_written_pairs_agree() {
    let cases = [
        hazard_pair(),
        exact_pair(6),
        nested_window(3),
        nested_window(1),
        nested_aligned(),
        opposing_writes(),
    ];
    let hazardous: usize = cases.iter().map(assert_all_pairs_agree).sum();
    assert!(hazardous > 0);
}

// ---------------------------------------------------------------------------
// Seeded random pairs
// ---------------------------------------------------------------------------

/// Builds random loop pairs over two 8-element arrays (`a`, `b`), two
/// scalar parameters whose values are never known (`s`, `t`) and one
/// local (`u`) that abstract execution tracks when it is assigned a
/// counter expression.
struct PairGen<'r> {
    rng: &'r mut TestRng,
    vars: Vec<Var>,
}

/// The indices of the shared variables `a`, `b`, `s`, `t` and `u`.
const A: u32 = 0;
const B: u32 = 1;
const S: u32 = 2;
const T: u32 = 3;
const U: u32 = 4;

fn v(raw: u32) -> VarId {
    VarId::from_raw(raw)
}

impl PairGen<'_> {
    fn below(&mut self, n: u64) -> u64 {
        self.rng.next_u64() % n
    }

    fn pick(&mut self, n: u64) -> usize {
        self.below(n) as usize
    }

    fn counter(&mut self, name: String) -> VarId {
        let id = VarId::from_raw(self.vars.len() as u32);
        self.vars.push(Var {
            name,
            ty: Ty::int(8),
            kind: VarKind::Counter,
            len: None,
        });
        id
    }

    /// An ascending or descending loop of 1–6 iterations.
    fn looped(&mut self, label: String, depth: u32, counters: &[VarId]) -> Loop {
        let var = self.counter(format!("{label}_k"));
        let trip = 1 + self.below(6) as i64;
        let (start, cmp, bound, step) = match self.pick(4) {
            0 => (0, CmpOp::Lt, trip, 1),
            1 => (0, CmpOp::Lt, 2 * trip, 2),
            2 => (trip - 1, CmpOp::Ge, 0, -1),
            _ => (trip, CmpOp::Gt, 0, -1),
        };
        let mut scope = counters.to_vec();
        scope.push(var);
        let len = 1 + self.pick(4);
        let body = (0..len).map(|_| self.stmt(depth, &scope)).collect();
        Loop {
            label,
            var,
            start,
            cmp,
            bound,
            step,
            body,
        }
    }

    fn stmt(&mut self, depth: u32, counters: &[VarId]) -> Stmt {
        match self.pick(if depth < 2 { 7 } else { 5 }) {
            0 | 1 => Stmt::Store {
                array: [v(A), v(B)][self.pick(2)],
                index: self.index(counters),
                value: self.value(counters, 1),
            },
            2 => Stmt::Assign {
                var: [v(S), v(T)][self.pick(2)],
                value: self.value(counters, 1),
            },
            // `u` tracks a counter expression, or becomes unknown.
            3 => Stmt::Assign {
                var: v(U),
                value: if self.pick(3) == 0 {
                    Expr::var(v(S))
                } else {
                    self.index(counters)
                },
            },
            4 => Stmt::Store {
                array: [v(A), v(B)][self.pick(2)],
                index: Expr::var(v(U)),
                value: self.value(counters, 1),
            },
            5 => {
                let cond = self.cond(counters);
                let then_ = (0..1 + self.pick(2))
                    .map(|_| self.stmt(depth + 1, counters))
                    .collect();
                let else_ = (0..self.pick(2))
                    .map(|_| self.stmt(depth + 1, counters))
                    .collect();
                Stmt::If { cond, then_, else_ }
            }
            _ => {
                let label = format!("inner{}", self.vars.len());
                Stmt::For(self.looped(label, depth + 1, counters))
            }
        }
    }

    /// A known or unknown guard.
    fn cond(&mut self, counters: &[VarId]) -> Expr {
        let k = counters[self.pick(counters.len() as u64)];
        match self.pick(4) {
            0 => Expr::cmp(
                CmpOp::Lt,
                Expr::var(k),
                Expr::int_const(self.below(5) as i64),
            ),
            1 => Expr::cmp(CmpOp::Ge, Expr::var(v(U)), Expr::int_const(2)),
            2 => Expr::cmp(CmpOp::Gt, Expr::var(v(S)), Expr::int_const(0)),
            _ => Expr::ConstBool(self.pick(2) == 0),
        }
    }

    /// A constant, affine or unknown element index.
    fn index(&mut self, counters: &[VarId]) -> Expr {
        let k = Expr::var(counters[self.pick(counters.len() as u64)]);
        let c = Expr::int_const(self.below(8) as i64);
        match self.pick(7) {
            0 => c,
            1 => k,
            2 => Expr::add(k, c),
            3 => Expr::sub(Expr::int_const(7), k),
            4 => Expr::add(Expr::mul(k, Expr::int_const(2)), c),
            5 => Expr::load(v(B), k),
            _ => Expr::var(v(S)),
        }
    }

    fn value(&mut self, counters: &[VarId], depth: u32) -> Expr {
        let leaf = depth >= 2;
        match self.pick(if leaf { 4 } else { 6 }) {
            0 => Expr::load(v(A), self.index(counters)),
            1 => Expr::load(v(B), self.index(counters)),
            2 => Expr::var([v(S), v(T), v(U)][self.pick(3)]),
            3 => Expr::int_const(self.below(16) as i64),
            4 => Expr::add(
                self.value(counters, depth + 1),
                self.value(counters, depth + 1),
            ),
            _ => Expr::select(
                self.cond(counters),
                self.value(counters, depth + 1),
                self.value(counters, depth + 1),
            ),
        }
    }
}

/// A random `(first, second, vars)` loop pair.
#[derive(Debug)]
struct Pair {
    first: Loop,
    second: Loop,
    vars: Vec<Var>,
}

fn pair_strategy() -> BoxedStrategy<Pair> {
    BoxedStrategy::new(|rng| {
        let scalar = |name: &str, kind: VarKind| Var {
            name: name.to_string(),
            ty: Ty::int(8),
            kind,
            len: None,
        };
        let array = |name: &str| Var {
            len: Some(8),
            ..scalar(name, VarKind::Param)
        };
        let mut g = PairGen {
            rng,
            vars: vec![
                array("a"),
                array("b"),
                scalar("s", VarKind::Param),
                scalar("t", VarKind::Param),
                scalar("u", VarKind::Local),
            ],
        };
        let first = g.looped("first".into(), 0, &[]);
        let second = g.looped("second".into(), 0, &[]);
        Pair {
            first,
            second,
            vars: g.vars,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn seeded_pairs_agree(pair in pair_strategy()) {
        assert_agree(&pair.first, &pair.second, &pair.vars);
        assert_agree(&pair.second, &pair.first, &pair.vars);
    }
}

/// The random pairs reach every hazard kind and both outcomes: a
/// generator that only produced hazard-free pairs would test little.
#[test]
fn seeded_pairs_cover_every_hazard_kind() {
    let mut rng = TestRng::for_test("merge_legality::coverage");
    let strategy = pair_strategy();
    let mut kinds: Vec<HazardKind> = Vec::new();
    let mut clean = 0;
    for _ in 0..512 {
        let pair = strategy.sample(&mut rng);
        let hz = assert_agree(&pair.first, &pair.second, &pair.vars);
        if hz.is_empty() {
            clean += 1;
        }
        for h in hz {
            if !kinds.contains(&h.kind) {
                kinds.push(h.kind);
            }
        }
    }
    assert_eq!(kinds.len(), 3, "{kinds:?}");
    assert!(clean > 0);
}
