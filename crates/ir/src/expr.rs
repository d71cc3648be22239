//! Expression trees.

use std::fmt;
use std::hash::{Hash, Hasher};

use fixpt::{Fixed, Overflow, Quantization};

use crate::func::VarId;
use crate::ty::Ty;

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation (exact, widening).
    Neg,
    /// Sign extraction: yields -1, 0 or 1 as `fixed<2,2>`.
    Signum,
    /// Logical NOT of a boolean.
    Not,
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Exact addition.
    Add,
    /// Exact subtraction.
    Sub,
    /// Exact multiplication.
    Mul,
    /// Value shift left by a constant amount (wraps within format).
    Shl,
    /// Value shift right by a constant amount (truncates).
    Shr,
    /// Boolean AND.
    And,
    /// Boolean OR.
    Or,
}

/// Comparison operators, yielding [`Ty::Bool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Evaluates the comparison on an [`Ordering`](std::cmp::Ordering).
    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// An expression tree.
///
/// Arithmetic is *exact* (full precision, as in SystemC expressions);
/// precision is lost only at [`Expr::Cast`] nodes and at assignment to a
/// typed variable.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A fixed-point constant.
    Const(Fixed),
    /// A boolean constant.
    ConstBool(bool),
    /// Read of a scalar variable (or loop counter).
    Var(VarId),
    /// Read of `array[index]`.
    Load {
        /// The array variable.
        array: VarId,
        /// The element index expression.
        index: Box<Expr>,
    },
    /// A unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// The operand.
        arg: Box<Expr>,
    },
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// A comparison producing a boolean.
    Compare {
        /// The comparison operator.
        op: CmpOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// A two-way multiplexer: `cond ? then_ : else_`.
    Select {
        /// The boolean condition.
        cond: Box<Expr>,
        /// Value when true.
        then_: Box<Expr>,
        /// Value when false.
        else_: Box<Expr>,
    },
    /// An explicit cast with quantization and overflow modes, like the
    /// paper's `(sc_fixed<FFE_W,0,SC_RND_ZERO,SC_SAT>)(y.r() - offset)`.
    Cast {
        /// Destination type.
        ty: Ty,
        /// Quantization applied when fractional bits are dropped.
        quantization: Quantization,
        /// Overflow handling when the value exceeds the destination range.
        overflow: Overflow,
        /// The operand.
        arg: Box<Expr>,
    },
}

/// Structural hash. A constant hashes as its raw bits and format, finer
/// than [`Fixed`]'s own value hash: a shift reads its operand's format,
/// so two constants of equal value but different formats are different
/// expressions to anything keyed on this hash.
impl Hash for Expr {
    fn hash<H: Hasher>(&self, h: &mut H) {
        std::mem::discriminant(self).hash(h);
        match self {
            Expr::Const(x) => (x.raw(), x.format()).hash(h),
            Expr::ConstBool(b) => b.hash(h),
            Expr::Var(v) => v.hash(h),
            Expr::Load { array, index } => (array, index).hash(h),
            Expr::Unary { op, arg } => (op, arg).hash(h),
            Expr::Binary { op, lhs, rhs } => (op, lhs, rhs).hash(h),
            Expr::Compare { op, lhs, rhs } => (op, lhs, rhs).hash(h),
            Expr::Select { cond, then_, else_ } => (cond, then_, else_).hash(h),
            Expr::Cast {
                ty,
                quantization,
                overflow,
                arg,
            } => (ty, quantization, overflow, arg).hash(h),
        }
    }
}

// The constructor names mirror the IR mnemonics; they are associated
// functions (not methods), so they cannot be confused with the `std::ops`
// traits at a call site.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Integer constant helper. The constant carries the minimal signed
    /// integer format that holds `v`, so exact expression arithmetic never
    /// widens more than needed.
    pub fn int_const(v: i64) -> Expr {
        let width = fixpt::BitInt::required_width(v as i128, fixpt::Signedness::Signed);
        Expr::Const(Fixed::from_int(
            v,
            fixpt::Format::integer(width, fixpt::Signedness::Signed),
        ))
    }

    /// Variable read helper.
    pub fn var(v: VarId) -> Expr {
        Expr::Var(v)
    }

    /// `lhs + rhs`.
    pub fn add(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// `lhs - rhs`.
    pub fn sub(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op: BinOp::Sub,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// `lhs * rhs`.
    pub fn mul(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op: BinOp::Mul,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Comparison helper.
    pub fn cmp(op: CmpOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Compare {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// `array[index]` load helper.
    pub fn load(array: VarId, index: Expr) -> Expr {
        Expr::Load {
            array,
            index: Box::new(index),
        }
    }

    /// Default-mode cast helper (truncate, wrap).
    pub fn cast(ty: Ty, arg: Expr) -> Expr {
        Expr::Cast {
            ty,
            quantization: Quantization::Trn,
            overflow: Overflow::Wrap,
            arg: Box::new(arg),
        }
    }

    /// Explicit-mode cast helper.
    pub fn cast_with(ty: Ty, q: Quantization, o: Overflow, arg: Expr) -> Expr {
        Expr::Cast {
            ty,
            quantization: q,
            overflow: o,
            arg: Box::new(arg),
        }
    }

    /// Negation helper.
    pub fn neg(arg: Expr) -> Expr {
        Expr::Unary {
            op: UnOp::Neg,
            arg: Box::new(arg),
        }
    }

    /// Signum helper (-1/0/1).
    pub fn signum(arg: Expr) -> Expr {
        Expr::Unary {
            op: UnOp::Signum,
            arg: Box::new(arg),
        }
    }

    /// Select (mux) helper.
    pub fn select(cond: Expr, then_: Expr, else_: Expr) -> Expr {
        Expr::Select {
            cond: Box::new(cond),
            then_: Box::new(then_),
            else_: Box::new(else_),
        }
    }

    /// Visits every sub-expression (including `self`), pre-order.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Const(_) | Expr::ConstBool(_) | Expr::Var(_) => {}
            Expr::Load { index, .. } => index.visit(f),
            Expr::Unary { arg, .. } => arg.visit(f),
            Expr::Binary { lhs, rhs, .. } | Expr::Compare { lhs, rhs, .. } => {
                lhs.visit(f);
                rhs.visit(f);
            }
            Expr::Select { cond, then_, else_ } => {
                cond.visit(f);
                then_.visit(f);
                else_.visit(f);
            }
            Expr::Cast { arg, .. } => arg.visit(f),
        }
    }

    /// Collects every variable read by this expression (including arrays and
    /// load indices).
    pub fn reads(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.visit(&mut |e| match e {
            Expr::Var(v) => out.push(*v),
            Expr::Load { array, .. } => out.push(*array),
            _ => {}
        });
        out
    }

    /// Rewrites every variable reference through `map` (used by loop
    /// transforms when substituting counters).
    pub fn substitute(&self, map: &impl Fn(VarId) -> Option<Expr>) -> Expr {
        match self {
            Expr::Const(_) | Expr::ConstBool(_) => self.clone(),
            Expr::Var(v) => map(*v).unwrap_or_else(|| self.clone()),
            Expr::Load { array, index } => Expr::Load {
                array: *array,
                index: Box::new(index.substitute(map)),
            },
            Expr::Unary { op, arg } => Expr::Unary {
                op: *op,
                arg: Box::new(arg.substitute(map)),
            },
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: Box::new(lhs.substitute(map)),
                rhs: Box::new(rhs.substitute(map)),
            },
            Expr::Compare { op, lhs, rhs } => Expr::Compare {
                op: *op,
                lhs: Box::new(lhs.substitute(map)),
                rhs: Box::new(rhs.substitute(map)),
            },
            Expr::Select { cond, then_, else_ } => Expr::Select {
                cond: Box::new(cond.substitute(map)),
                then_: Box::new(then_.substitute(map)),
                else_: Box::new(else_.substitute(map)),
            },
            Expr::Cast {
                ty,
                quantization,
                overflow,
                arg,
            } => Expr::Cast {
                ty: *ty,
                quantization: *quantization,
                overflow: *overflow,
                arg: Box::new(arg.substitute(map)),
            },
        }
    }

    /// Number of primitive operation nodes (excluding constants and reads).
    pub fn op_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |e| {
            if !matches!(e, Expr::Const(_) | Expr::ConstBool(_) | Expr::Var(_)) {
                n += 1;
            }
        });
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::VarId;

    #[test]
    fn cmp_eval() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Lt.eval(Less));
        assert!(!CmpOp::Lt.eval(Equal));
        assert!(CmpOp::Le.eval(Equal));
        assert!(CmpOp::Ge.eval(Greater));
        assert!(CmpOp::Ne.eval(Less));
        assert!(CmpOp::Eq.eval(Equal));
        assert!(!CmpOp::Gt.eval(Equal));
    }

    #[test]
    fn reads_collects_vars_and_arrays() {
        let a = VarId::from_raw(0);
        let x = VarId::from_raw(1);
        let k = VarId::from_raw(2);
        let e = Expr::add(Expr::var(a), Expr::load(x, Expr::var(k)));
        let mut reads = e.reads();
        reads.sort();
        assert_eq!(reads, vec![a, x, k]);
    }

    #[test]
    fn substitute_replaces_counter() {
        let k = VarId::from_raw(0);
        let x = VarId::from_raw(1);
        let e = Expr::load(x, Expr::var(k));
        let m = VarId::from_raw(2);
        let sub = e.substitute(&|v| (v == k).then(|| Expr::mul(Expr::var(m), Expr::int_const(2))));
        match sub {
            Expr::Load { index, .. } => {
                assert_eq!(index.op_count(), 1); // the mul node
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn op_count() {
        let e = Expr::add(
            Expr::mul(Expr::var(VarId::from_raw(0)), Expr::var(VarId::from_raw(1))),
            Expr::int_const(1),
        );
        assert_eq!(e.op_count(), 2);
    }
}
