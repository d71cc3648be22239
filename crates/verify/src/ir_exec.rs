//! Symbolic execution of the untimed IR — the interpreter's semantics
//! lifted from [`Fixed`] values to [`SymId`] expression nodes.
//!
//! Mirrors `hls_ir::Interpreter` operation-for-operation: assignment casts
//! into the declared format, `Select` evaluates both arms (mux semantics),
//! short-circuit `&&`/`||` become strict 1-bit AND/OR (expressions are
//! effect-free, so the value is identical), counted loops unroll over
//! their concrete iteration values, and `if` statements on *symbolic*
//! conditions are if-converted by executing both branches on copies of the
//! environment and merging every written variable through an `Ite` — which
//! is exactly what the DFG if-conversion does on the hardware side.

use fixpt::Fixed;
use hls_ir::{BinOp, Expr, Function, Stmt, Ty, UnOp};

use crate::state::{
    index_in_bounds, select_element, store_element, ExecResult, SymSlot, Unsupported,
};
use crate::sym::{Op, SymId, SymTable};

/// The symbolic environment: one optional slot per function variable,
/// indexed by `VarId::index`.
pub type SymEnv = Vec<Option<SymSlot>>;

/// Executes the whole function body symbolically, updating `env` in place.
///
/// # Errors
///
/// Returns [`Unsupported`] when a construct cannot be executed
/// symbolically (non-constant shift amounts, indices that cannot be
/// proven in bounds, …); the caller treats this as "fall back to fuzzing",
/// never as a verdict.
pub fn exec_function(t: &mut SymTable, func: &Function, env: &mut SymEnv) -> ExecResult<()> {
    exec_block(t, func, &func.body, env)
}

fn exec_block(
    t: &mut SymTable,
    func: &Function,
    stmts: &[Stmt],
    env: &mut SymEnv,
) -> ExecResult<()> {
    for s in stmts {
        exec_stmt(t, func, s, env)?;
    }
    Ok(())
}

fn exec_stmt(t: &mut SymTable, func: &Function, s: &Stmt, env: &mut SymEnv) -> ExecResult<()> {
    match s {
        Stmt::Assign { var, value } => {
            let v = eval(t, func, value, env)?;
            let decl = func.var(*var);
            let stored = match decl.ty {
                // Booleans are stored as 1-bit integers; the value is
                // already a 1-bit node.
                Ty::Bool => v,
                Ty::Fixed(fmt) => t.intern(Op::Cast(
                    v,
                    fmt,
                    fixpt::Quantization::Trn,
                    fixpt::Overflow::Wrap,
                )),
            };
            match env[var.index()].as_mut() {
                Some(SymSlot::Scalar(slot)) => {
                    *slot = stored;
                    Ok(())
                }
                _ => Err(Unsupported(format!("assign to non-scalar {}", decl.name))),
            }
        }
        Stmt::Store {
            array,
            index,
            value,
        } => {
            let idx = eval(t, func, index, env)?;
            let val = eval(t, func, value, env)?;
            let decl = func.var(*array);
            let fmt = decl
                .ty
                .format()
                .ok_or_else(|| Unsupported(format!("store into bool array {}", decl.name)))?;
            let stored = t.intern(Op::Cast(
                val,
                fmt,
                fixpt::Quantization::Trn,
                fixpt::Overflow::Wrap,
            ));
            let in_bounds_sym = {
                let len = decl.len.unwrap_or(0);
                index_in_bounds(t, idx, len)
            };
            match env[array.index()].as_mut() {
                Some(SymSlot::Array(_)) => {}
                _ => return Err(Unsupported(format!("store to non-array {}", decl.name))),
            }
            if let Some(c) = t.const_value(idx) {
                let i = c.to_i64();
                let elems = match env[array.index()].as_mut() {
                    Some(SymSlot::Array(a)) => a,
                    _ => unreachable!("checked above"),
                };
                if i < 0 || i as usize >= elems.len() {
                    return Err(Unsupported(format!(
                        "store out of bounds: {}[{i}]",
                        decl.name
                    )));
                }
                elems[i as usize] = stored;
                Ok(())
            } else if in_bounds_sym {
                let mut elems = match env[array.index()].take() {
                    Some(SymSlot::Array(a)) => a,
                    _ => unreachable!("checked above"),
                };
                store_element(t, idx, stored, None, &mut elems);
                env[array.index()] = Some(SymSlot::Array(elems));
                Ok(())
            } else {
                Err(Unsupported(format!(
                    "store index into {} not provably in bounds",
                    decl.name
                )))
            }
        }
        Stmt::For(l) => {
            let cfmt = func
                .var(l.var)
                .ty
                .format()
                .unwrap_or_else(crate::state::index_format);
            for k in l.iteration_values() {
                let kc = t.constant(Fixed::from_int(k, cfmt));
                if let Some(SymSlot::Scalar(slot)) = env[l.var.index()].as_mut() {
                    *slot = kc;
                }
                exec_block(t, func, &l.body, env)?;
            }
            Ok(())
        }
        Stmt::If { cond, then_, else_ } => {
            let c = eval(t, func, cond, env)?;
            if let Some(cv) = t.const_value(c) {
                // Concrete condition: take one branch, like the
                // interpreter.
                return if !cv.is_zero() {
                    exec_block(t, func, then_, env)
                } else {
                    exec_block(t, func, else_, env)
                };
            }
            // Symbolic condition: if-convert. Execute both branches on
            // copies and merge every slot through an Ite, exactly the
            // multiplexer network the DFG builds.
            let mut env_t = env.clone();
            let mut env_e = env.clone();
            exec_block(t, func, then_, &mut env_t)?;
            exec_block(t, func, else_, &mut env_e)?;
            for (i, slot) in env.iter_mut().enumerate() {
                let merged = match (env_t[i].clone(), env_e[i].clone()) {
                    (Some(SymSlot::Scalar(a)), Some(SymSlot::Scalar(b))) => {
                        Some(SymSlot::Scalar(merge_scalar(t, c, a, b)))
                    }
                    (Some(SymSlot::Array(a)), Some(SymSlot::Array(b))) => Some(SymSlot::Array(
                        a.iter()
                            .zip(b.iter())
                            .map(|(&x, &y)| merge_scalar(t, c, x, y))
                            .collect(),
                    )),
                    (x, _) => x,
                };
                *slot = merged;
            }
            Ok(())
        }
    }
}

/// The *runtime* format the interpreter's value of `e` carries — a static
/// mirror of `hls_ir::Interpreter::eval`'s dynamic format rules (variables
/// and array elements hold their declared formats thanks to cast-on-assign;
/// arithmetic widens exactly; shifts keep their operand's format). Returns
/// `None` when the format is data-dependent (a `Select` whose arms differ),
/// the expression is boolean-valued, or an exact intermediate format would
/// exceed the 64-bit limit.
fn machine_format(func: &Function, e: &Expr) -> Option<fixpt::Format> {
    match e {
        Expr::Const(c) => Some(c.format()),
        Expr::ConstBool(_) => None,
        Expr::Var(v) => func.var(*v).ty.format(),
        Expr::Load { array, .. } => func.var(*array).ty.format(),
        Expr::Unary { op, arg } => match op {
            UnOp::Neg => machine_format(func, arg)?.checked_neg_format(),
            UnOp::Signum => Some(fixpt::Format::signed(2, 2)),
            UnOp::Not => None,
        },
        Expr::Binary { op, lhs, rhs } => match op {
            BinOp::Add => {
                machine_format(func, lhs)?.checked_add_format(&machine_format(func, rhs)?)
            }
            BinOp::Sub => {
                machine_format(func, lhs)?.checked_sub_format(&machine_format(func, rhs)?)
            }
            BinOp::Mul => {
                machine_format(func, lhs)?.checked_mul_format(&machine_format(func, rhs)?)
            }
            BinOp::Shl | BinOp::Shr => machine_format(func, lhs),
            BinOp::And | BinOp::Or => None,
        },
        Expr::Compare { .. } => None,
        Expr::Select { then_, else_, .. } => {
            let a = machine_format(func, then_)?;
            let b = machine_format(func, else_)?;
            (a == b).then_some(a)
        }
        Expr::Cast { ty, .. } => ty.format(),
    }
}

fn merge_scalar(t: &mut SymTable, c: SymId, a: SymId, b: SymId) -> SymId {
    if a == b {
        a
    } else {
        t.intern(Op::Ite(c, a, b))
    }
}

fn eval(t: &mut SymTable, func: &Function, e: &Expr, env: &SymEnv) -> ExecResult<SymId> {
    match e {
        Expr::Const(c) => Ok(t.constant(*c)),
        Expr::ConstBool(b) => Ok(t.constant_bool(*b)),
        Expr::Var(v) => match env[v.index()].as_ref() {
            Some(SymSlot::Scalar(s)) => Ok(*s),
            _ => Err(Unsupported(format!(
                "read of non-scalar {}",
                func.var(*v).name
            ))),
        },
        Expr::Load { array, index } => {
            let idx = eval(t, func, index, env)?;
            let decl = func.var(*array);
            let elems = match env[array.index()].as_ref() {
                Some(SymSlot::Array(a)) => a.clone(),
                _ => return Err(Unsupported(format!("load from non-array {}", decl.name))),
            };
            if let Some(c) = t.const_value(idx) {
                let i = c.to_i64();
                if i < 0 || i as usize >= elems.len() {
                    return Err(Unsupported(format!(
                        "load out of bounds: {}[{i}]",
                        decl.name
                    )));
                }
                Ok(elems[i as usize])
            } else if index_in_bounds(t, idx, elems.len()) {
                Ok(select_element(t, idx, &elems))
            } else {
                Err(Unsupported(format!(
                    "load index into {} not provably in bounds",
                    decl.name
                )))
            }
        }
        Expr::Unary { op, arg } => {
            let a = eval(t, func, arg, env)?;
            Ok(match op {
                UnOp::Neg => t.intern_exact(Op::Neg(a))?,
                UnOp::Signum => t.intern(Op::Signum(a)),
                UnOp::Not => t.intern(Op::Not(a)),
            })
        }
        Expr::Binary { op, lhs, rhs } => match op {
            // Strict 1-bit logic: value-identical to the interpreter's
            // short circuit because IR expressions are effect-free.
            BinOp::And | BinOp::Or => {
                let a = eval(t, func, lhs, env)?;
                let b = eval(t, func, rhs, env)?;
                Ok(t.intern(if matches!(op, BinOp::And) {
                    Op::And(a, b)
                } else {
                    Op::Or(a, b)
                }))
            }
            BinOp::Shl | BinOp::Shr => {
                let n = match rhs.as_ref() {
                    Expr::Const(c) => c.to_i64(),
                    _ => return Err(Unsupported("non-constant shift amount".into())),
                };
                if n < 0 {
                    return Err(Unsupported("negative shift amount".into()));
                }
                let a = eval(t, func, lhs, env)?;
                // The interpreter shifts in the operand's runtime format;
                // pin it into the node so symbolic rewrites cannot change
                // what the shift wraps/truncates in.
                let fm = machine_format(func, lhs).ok_or_else(|| {
                    Unsupported("shift operand without a static runtime format".into())
                })?;
                Ok(t.intern(if matches!(op, BinOp::Shl) {
                    Op::Shl(a, n as u32, fm)
                } else {
                    Op::Shr(a, n as u32, fm)
                }))
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul => {
                let a = eval(t, func, lhs, env)?;
                let b = eval(t, func, rhs, env)?;
                t.intern_exact(match op {
                    BinOp::Add => Op::Add(a, b),
                    BinOp::Sub => Op::Sub(a, b),
                    BinOp::Mul => Op::Mul(a, b),
                    _ => unreachable!(),
                })
            }
        },
        Expr::Compare { op, lhs, rhs } => {
            let a = eval(t, func, lhs, env)?;
            let b = eval(t, func, rhs, env)?;
            Ok(t.intern(Op::Cmp(*op, a, b)))
        }
        Expr::Select { cond, then_, else_ } => {
            let c = eval(t, func, cond, env)?;
            // Evaluate both arms (hardware mux semantics) but yield one,
            // unchanged — any bus alignment is the FSMD side's explicit
            // (lossless, rewritten-away) cast.
            let a = eval(t, func, then_, env)?;
            let b = eval(t, func, else_, env)?;
            Ok(merge_scalar(t, c, a, b))
        }
        Expr::Cast {
            ty,
            quantization,
            overflow,
            arg,
        } => {
            let a = eval(t, func, arg, env)?;
            let fmt = ty
                .format()
                .ok_or_else(|| Unsupported("cast to bool".into()))?;
            Ok(t.intern(Op::Cast(a, fmt, *quantization, *overflow)))
        }
    }
}
