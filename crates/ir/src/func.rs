//! Functions, variables and the top-level design unit.

use std::fmt;

use crate::expr::Expr;
use crate::stmt::{collect_loops, Loop, Stmt};
use crate::ty::Ty;

/// Identifier of a variable within a [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(u32);

impl VarId {
    /// Builds a `VarId` from its raw index. Intended for tests and for
    /// tooling that serializes IR; normal construction goes through the
    /// [`FunctionBuilder`](crate::build::FunctionBuilder).
    pub fn from_raw(raw: u32) -> VarId {
        VarId(raw)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// What role a variable plays in the function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// A function argument (scalar or array). Interface synthesis maps these
    /// to ports, memories or streams.
    Param,
    /// A `static` variable: state preserved between calls (the paper's tap
    /// and coefficient arrays). Initialized to zero.
    Static,
    /// A function-local temporary.
    Local,
    /// A loop counter.
    Counter,
}

/// Direction of a parameter, inferred from use (the paper's in/out/inout
/// pointer-argument analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Only read.
    In,
    /// Only written.
    Out,
    /// Read and written.
    InOut,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::In => f.write_str("in"),
            Direction::Out => f.write_str("out"),
            Direction::InOut => f.write_str("inout"),
        }
    }
}

/// A variable declaration.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Var {
    /// Source-level name.
    pub name: String,
    /// Element type (for arrays, the element type).
    pub ty: Ty,
    /// Role of the variable.
    pub kind: VarKind,
    /// `Some(n)` when the variable is an `n`-element array.
    pub len: Option<usize>,
}

impl Var {
    /// `true` if the variable is an array.
    pub fn is_array(&self) -> bool {
        self.len.is_some()
    }
}

/// A synthesizable function: the design's top level (`#pragma design top`).
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// All variables: parameters, statics, locals and counters.
    pub vars: Vec<Var>,
    /// Parameter variables in declaration order.
    pub params: Vec<VarId>,
    /// The function body.
    pub body: Vec<Stmt>,
}

impl Function {
    /// Looks up a variable declaration.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this function.
    pub fn var(&self, id: VarId) -> &Var {
        &self.vars[id.index()]
    }

    /// Iterates over `(id, var)` pairs.
    pub fn iter_vars(&self) -> impl Iterator<Item = (VarId, &Var)> {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, v)| (VarId(i as u32), v))
    }

    /// All static (inter-call state) variables.
    pub fn statics(&self) -> Vec<VarId> {
        self.iter_vars()
            .filter(|(_, v)| v.kind == VarKind::Static)
            .map(|(id, _)| id)
            .collect()
    }

    /// All loops in the body, pre-order.
    pub fn loops(&self) -> Vec<&Loop> {
        collect_loops(&self.body)
    }

    /// Finds a loop by label.
    pub fn find_loop(&self, label: &str) -> Option<&Loop> {
        self.loops().into_iter().find(|l| l.label == label)
    }

    /// Labels of every loop, pre-order.
    pub fn loop_labels(&self) -> Vec<String> {
        self.loops().iter().map(|l| l.label.clone()).collect()
    }

    /// Infers the direction of parameter `p` from reads and writes in the
    /// body, mirroring the paper's treatment of pointer arguments.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a parameter of this function.
    pub fn param_direction(&self, p: VarId) -> Direction {
        assert!(
            self.params.contains(&p),
            "{} is not a parameter of {}",
            self.var(p).name,
            self.name
        );
        direction(self.accesses()[p.index()])
    }

    /// Whether the body reads and whether it writes each variable,
    /// indexed by [`VarId`], from one walk of the body. A variable is
    /// written by an assignment or a store and read wherever an
    /// assigned value, a store's index or value, or a condition names it
    /// (a load reads its array); loop headers count for neither.
    fn accesses(&self) -> Vec<(bool, bool)> {
        let mut accesses = vec![(false, false); self.vars.len()];
        for s in &self.body {
            s.visit(&mut |s| {
                let (written, read): (Option<VarId>, [Option<&Expr>; 2]) = match s {
                    Stmt::Assign { var, value } => (Some(*var), [Some(value), None]),
                    Stmt::Store {
                        array,
                        index,
                        value,
                    } => (Some(*array), [Some(index), Some(value)]),
                    Stmt::If { cond, .. } => (None, [Some(cond), None]),
                    Stmt::For(_) => (None, [None, None]),
                };
                if let Some(access) = written.and_then(|v| accesses.get_mut(v.index())) {
                    access.1 = true;
                }
                for e in read.into_iter().flatten() {
                    e.visit(&mut |e| {
                        if let Expr::Var(v) | Expr::Load { array: v, .. } = e {
                            if let Some(access) = accesses.get_mut(v.index()) {
                                access.0 = true;
                            }
                        }
                    });
                }
            });
        }
        accesses
    }

    /// Whether the bodies hold the same constants in the same order, each
    /// equal in raw bits and format. `Fixed`'s `==` compares values, so
    /// two functions can be `==` while a constant differs in format, yet
    /// a shift or an operation's result format reads it. `==` and this
    /// together compare constants as `Hash` does.
    pub fn same_constants(&self, other: &Function) -> bool {
        self.constant_bits() == other.constant_bits()
    }

    /// Every constant of the body, pre-order, as its raw bits and format.
    fn constant_bits(&self) -> Vec<(i128, fixpt::Format)> {
        let mut bits = Vec::new();
        let mut push = |e: &Expr| {
            e.visit(&mut |e| {
                if let Expr::Const(c) = e {
                    bits.push((c.raw(), c.format()));
                }
            })
        };
        for s in &self.body {
            s.visit(&mut |s| match s {
                Stmt::Assign { value, .. } => push(value),
                Stmt::Store { index, value, .. } => {
                    push(index);
                    push(value);
                }
                Stmt::If { cond, .. } => push(cond),
                Stmt::For(_) => {}
            });
        }
        bits
    }

    /// Total primitive operation count over the whole body (a rough
    /// complexity measure used by reports).
    pub fn op_count(&self) -> usize {
        let mut n = 0;
        for s in &self.body {
            s.visit(&mut |s| {
                n += match s {
                    Stmt::Assign { value, .. } => value.op_count(),
                    Stmt::Store { index, value, .. } => index.op_count() + value.op_count() + 1,
                    Stmt::If { cond, .. } => cond.op_count(),
                    Stmt::For(_) => 0,
                };
            });
        }
        n
    }
}

/// A parameter's direction from whether the body reads and writes it.
fn direction((read, written): (bool, bool)) -> Direction {
    match (read, written) {
        (_, false) => Direction::In,
        (false, true) => Direction::Out,
        (true, true) => Direction::InOut,
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "fn {}(", self.name)?;
        let accesses = self.accesses();
        for &p in &self.params {
            let v = self.var(p);
            let dir = direction(accesses[p.index()]);
            match v.len {
                Some(n) => writeln!(f, "    {dir} {}: [{}; {n}],", v.name, v.ty)?,
                None => writeln!(f, "    {dir} {}: {},", v.name, v.ty)?,
            }
        }
        writeln!(f, ") {{")?;
        for &s in self.statics().iter() {
            let v = self.var(s);
            match v.len {
                Some(n) => writeln!(f, "    static {}: [{}; {n}];", v.name, v.ty)?,
                None => writeln!(f, "    static {}: {};", v.name, v.ty)?,
            }
        }
        for s in &self.body {
            fmt_stmt(self, s, f, 1)?;
        }
        writeln!(f, "}}")
    }
}

fn fmt_stmt(func: &Function, s: &Stmt, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
    let pad = |f: &mut fmt::Formatter<'_>| (0..indent).try_for_each(|_| f.write_str("    "));
    let name = |v: VarId| func.var(v).name.as_str();
    pad(f)?;
    match s {
        Stmt::Assign { var, value } => {
            f.write_str(name(*var))?;
            f.write_str(" = ")?;
            fmt_expr(func, value, f)?;
            f.write_str(";\n")
        }
        Stmt::Store {
            array,
            index,
            value,
        } => {
            f.write_str(name(*array))?;
            f.write_str("[")?;
            fmt_expr(func, index, f)?;
            f.write_str("] = ")?;
            fmt_expr(func, value, f)?;
            f.write_str(";\n")
        }
        Stmt::For(l) => {
            let counter = name(l.var);
            writeln!(
                f,
                "{}: for ({counter} = {}; {counter} {} {}; {counter} += {}) {{",
                l.label, l.start, l.cmp, l.bound, l.step
            )?;
            for s in &l.body {
                fmt_stmt(func, s, f, indent + 1)?;
            }
            pad(f)?;
            f.write_str("}\n")
        }
        Stmt::If { cond, then_, else_ } => {
            f.write_str("if (")?;
            fmt_expr(func, cond, f)?;
            f.write_str(") {\n")?;
            for s in then_ {
                fmt_stmt(func, s, f, indent + 1)?;
            }
            if !else_.is_empty() {
                pad(f)?;
                f.write_str("} else {\n")?;
                for s in else_ {
                    fmt_stmt(func, s, f, indent + 1)?;
                }
            }
            pad(f)?;
            f.write_str("}\n")
        }
    }
}

fn fmt_expr(func: &Function, e: &Expr, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    use crate::expr::{BinOp, UnOp};
    match e {
        Expr::Const(c) => write!(f, "{c}"),
        Expr::ConstBool(b) => write!(f, "{b}"),
        Expr::Var(v) => f.write_str(&func.var(*v).name),
        Expr::Load { array, index } => {
            f.write_str(&func.var(*array).name)?;
            f.write_str("[")?;
            fmt_expr(func, index, f)?;
            f.write_str("]")
        }
        Expr::Unary { op, arg } => {
            f.write_str(match op {
                UnOp::Neg => "-(",
                UnOp::Signum => "sign(",
                UnOp::Not => "!(",
            })?;
            fmt_expr(func, arg, f)?;
            f.write_str(")")
        }
        Expr::Binary { op, lhs, rhs } => {
            let sym = match op {
                BinOp::Add => " + ",
                BinOp::Sub => " - ",
                BinOp::Mul => " * ",
                BinOp::Shl => " << ",
                BinOp::Shr => " >> ",
                BinOp::And => " && ",
                BinOp::Or => " || ",
            };
            f.write_str("(")?;
            fmt_expr(func, lhs, f)?;
            f.write_str(sym)?;
            fmt_expr(func, rhs, f)?;
            f.write_str(")")
        }
        Expr::Compare { op, lhs, rhs } => {
            f.write_str("(")?;
            fmt_expr(func, lhs, f)?;
            write!(f, " {op} ")?;
            fmt_expr(func, rhs, f)?;
            f.write_str(")")
        }
        Expr::Select { cond, then_, else_ } => {
            f.write_str("(")?;
            fmt_expr(func, cond, f)?;
            f.write_str(" ? ")?;
            fmt_expr(func, then_, f)?;
            f.write_str(" : ")?;
            fmt_expr(func, else_, f)?;
            f.write_str(")")
        }
        Expr::Cast { ty, arg, .. } => {
            write!(f, "({ty})(")?;
            fmt_expr(func, arg, f)?;
            f.write_str(")")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::FunctionBuilder;
    use crate::expr::CmpOp;

    fn sample() -> Function {
        let mut b = FunctionBuilder::new("f");
        let x = b.param_array("x", Ty::int(10), 4);
        let out = b.param_scalar("out", Ty::int(16));
        let acc = b.local("acc", Ty::int(16));
        b.assign(acc, Expr::int_const(0));
        b.for_loop("sum", 0, CmpOp::Lt, 4, 1, |b, k| {
            b.assign(acc, Expr::add(Expr::var(acc), Expr::load(x, Expr::var(k))));
        });
        b.assign(out, Expr::var(acc));
        b.build()
    }

    #[test]
    fn directions() {
        let f = sample();
        assert_eq!(f.param_direction(f.params[0]), Direction::In);
        assert_eq!(f.param_direction(f.params[1]), Direction::Out);
    }

    #[test]
    fn loop_lookup() {
        let f = sample();
        assert_eq!(f.loop_labels(), vec!["sum"]);
        assert_eq!(f.find_loop("sum").unwrap().trip_count(), 4);
        assert!(f.find_loop("nope").is_none());
    }

    #[test]
    fn display_roundtrip_contains_structure() {
        let f = sample();
        let text = f.to_string();
        assert!(text.contains("fn f("), "{text}");
        assert!(text.contains("sum: for"), "{text}");
        assert!(text.contains("acc = (acc + x[sum_k]);"), "{text}");
    }

    #[test]
    fn op_count_counts_loads_and_adds() {
        let f = sample();
        // add + load inside loop = 2 ops.
        assert_eq!(f.op_count(), 2);
    }
}
