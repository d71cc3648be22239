//! Statements and structured loops.

use crate::expr::{CmpOp, Expr};
use crate::func::VarId;

/// Safety cap on statically-evaluated trip counts.
pub const MAX_TRIP_COUNT: usize = 1 << 20;

/// A counted `for` loop with compile-time bounds, as written in the paper's
/// C source (`nfe: for(int k=0; k < nffe; k++) …`).
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Loop {
    /// The C label (used to address the loop from synthesis directives).
    pub label: String,
    /// The loop counter variable.
    pub var: VarId,
    /// Initial counter value.
    pub start: i64,
    /// Comparison between counter and `bound` that keeps the loop running.
    pub cmp: CmpOp,
    /// Loop bound.
    pub bound: i64,
    /// Per-iteration counter increment (may be negative).
    pub step: i64,
    /// Loop body.
    pub body: Vec<Stmt>,
}

impl Loop {
    /// The sequence of values taken by the counter, in execution order.
    ///
    /// Returns an empty vector for loops that never execute. The sequence is
    /// capped at [`MAX_TRIP_COUNT`] as a safety net against non-terminating
    /// bounds (e.g. a zero step).
    pub fn iteration_values(&self) -> Vec<i64> {
        let mut vals = Vec::new();
        let mut k = self.start;
        while self.cmp.eval(k.cmp(&self.bound)) {
            vals.push(k);
            if self.step == 0 || vals.len() >= MAX_TRIP_COUNT {
                break;
            }
            k += self.step;
        }
        vals
    }

    /// Number of iterations the loop executes.
    pub fn trip_count(&self) -> usize {
        self.iteration_values().len()
    }

    /// `true` when the counter sequence is affine in the iteration index
    /// (`k = start + m * step`), which all counted loops are; kept for
    /// clarity at call sites performing affine counter substitution.
    pub fn is_affine(&self) -> bool {
        true
    }

    /// Counter value at iteration `m` (affine form).
    pub fn counter_at(&self, m: usize) -> i64 {
        self.start + m as i64 * self.step
    }
}

/// A structured statement.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Stmt {
    /// Assignment to a scalar variable; the value is cast to the variable's
    /// declared type with default modes (C++ assignment semantics).
    Assign {
        /// Destination variable.
        var: VarId,
        /// Value expression.
        value: Expr,
    },
    /// Store into `array[index]`; the value is cast to the element type.
    Store {
        /// Destination array.
        array: VarId,
        /// Element index.
        index: Expr,
        /// Value expression.
        value: Expr,
    },
    /// A counted loop.
    For(Loop),
    /// A two-way conditional.
    If {
        /// Condition (boolean).
        cond: Expr,
        /// Statements executed when true.
        then_: Vec<Stmt>,
        /// Statements executed when false.
        else_: Vec<Stmt>,
    },
}

impl Stmt {
    /// Visits every statement in this subtree, pre-order.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        f(self);
        match self {
            Stmt::Assign { .. } | Stmt::Store { .. } => {}
            Stmt::For(l) => {
                for s in &l.body {
                    s.visit(f);
                }
            }
            Stmt::If { then_, else_, .. } => {
                for s in then_ {
                    s.visit(f);
                }
                for s in else_ {
                    s.visit(f);
                }
            }
        }
    }

    /// Variables written (directly or in nested statements), including
    /// arrays stored to and loop counters.
    pub fn writes(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.visit(&mut |s| match s {
            Stmt::Assign { var, .. } => out.push(*var),
            Stmt::Store { array, .. } => out.push(*array),
            Stmt::For(l) => out.push(l.var),
            Stmt::If { .. } => {}
        });
        out
    }

    /// Variables read (directly or in nested statements).
    pub fn reads(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.visit(&mut |s| match s {
            Stmt::Assign { value, .. } => out.extend(value.reads()),
            Stmt::Store { index, value, .. } => {
                out.extend(index.reads());
                out.extend(value.reads());
            }
            Stmt::For(l) => {
                // The body reads are collected by the visitor; the counter
                // itself is loop-internal but body loads read it.
                let _ = l;
            }
            Stmt::If { cond, .. } => out.extend(cond.reads()),
        });
        out
    }
}

/// Finds every loop (recursively) in a statement list, pre-order.
pub fn collect_loops(stmts: &[Stmt]) -> Vec<&Loop> {
    let mut loops = Vec::new();
    for s in stmts {
        s.visit(&mut |s| {
            if let Stmt::For(l) = s {
                loops.push(l);
            }
        });
    }
    loops
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mkloop(start: i64, cmp: CmpOp, bound: i64, step: i64) -> Loop {
        Loop {
            label: "l".into(),
            var: VarId::from_raw(0),
            start,
            cmp,
            bound,
            step,
            body: vec![],
        }
    }

    #[test]
    fn ascending_loop() {
        // for(k=0; k<8; k++) — the paper's ffe loop.
        let l = mkloop(0, CmpOp::Lt, 8, 1);
        assert_eq!(l.trip_count(), 8);
        assert_eq!(l.iteration_values(), vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn descending_step_two() {
        // for(k=nffe-4; k>=0; k-=2) — the paper's ffe_shift loop (nffe=8).
        let l = mkloop(4, CmpOp::Ge, 0, -2);
        assert_eq!(l.iteration_values(), vec![4, 2, 0]);
        assert_eq!(l.trip_count(), 3);
    }

    #[test]
    fn descending_by_one() {
        // for(k=ndfe-2; k>=0; k--) — the paper's dfe_shift loop (ndfe=16).
        let l = mkloop(14, CmpOp::Ge, 0, -1);
        assert_eq!(l.trip_count(), 15);
        assert_eq!(l.counter_at(0), 14);
        assert_eq!(l.counter_at(14), 0);
    }

    #[test]
    fn empty_loop() {
        let l = mkloop(5, CmpOp::Lt, 5, 1);
        assert_eq!(l.trip_count(), 0);
    }

    #[test]
    fn zero_step_capped() {
        let l = mkloop(0, CmpOp::Lt, 5, 0);
        assert_eq!(l.trip_count(), 1); // capped immediately after one value
    }

    #[test]
    fn counter_at_matches_sequence() {
        let l = mkloop(3, CmpOp::Le, 21, 3);
        for (m, v) in l.iteration_values().iter().enumerate() {
            assert_eq!(l.counter_at(m), *v);
        }
    }

    #[test]
    fn writes_and_loops() {
        let inner = Stmt::Assign {
            var: VarId::from_raw(3),
            value: Expr::int_const(0),
        };
        let l = Loop {
            body: vec![inner],
            ..mkloop(0, CmpOp::Lt, 4, 1)
        };
        let s = Stmt::For(l);
        let w = s.writes();
        assert!(w.contains(&VarId::from_raw(3)));
        assert!(w.contains(&VarId::from_raw(0)));
        let loops = collect_loops(std::slice::from_ref(&s));
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].label, "l");
    }
}
