//! Symbolic execution of a synthesized FSMD — the RTL simulator's
//! semantics lifted from registers of [`Fixed`] to registers of [`SymId`].
//!
//! The walk mirrors `rtl::RtlSimulator::run_call` exactly: segments in
//! control order, loop counters initialized and stepped concretely between
//! body runs, and within one body run every scheduled node evaluated in
//! `nodes_in_cycle` order with the op semantics of `eval_node`
//! (`VarWrite`/`Mux` alignment casts, clamped speculative loads, gated
//! conditional stores, strength-reduced `MulPow2` as exact
//! multiplication).

use fixpt::{Fixed, Overflow, Quantization};
use hls_core::dfg::{Dfg, NodeId, NodeKind};
use hls_core::Schedule;
use hls_ir::{BinOp, UnOp};
use rtl::{Control, Fsmd};

use crate::state::{index_in_bounds, select_element, store_element, ExecResult, Unsupported};
use crate::sym::{Op, SymId, SymTable};

/// Symbolic register/array state of the FSMD, indexed by `VarId::index`.
#[derive(Debug, Clone)]
pub struct FsmdState {
    /// Scalar registers.
    pub regs: Vec<Option<SymId>>,
    /// Register arrays.
    pub arrays: Vec<Option<Vec<SymId>>>,
}

impl FsmdState {
    /// An all-empty state sized for `fsmd`'s function.
    pub fn new(fsmd: &Fsmd) -> FsmdState {
        let n = fsmd.function().iter_vars().count();
        FsmdState {
            regs: vec![None; n],
            arrays: vec![None; n],
        }
    }
}

/// Runs one start/done transaction symbolically, updating `st` in place.
///
/// # Errors
///
/// Returns [`Unsupported`] for constructs outside the symbolic fragment
/// (dynamic shift amounts, unprovable array indices); the caller falls
/// back to fuzzing.
pub fn exec_fsmd(t: &mut SymTable, fsmd: &Fsmd, st: &mut FsmdState) -> ExecResult<()> {
    // Borrow the function rather than cloning it: a clone copies every
    // statement tree and variable table per transaction, which dominated
    // the fused-explore per-machine floor.
    let func = fsmd.function();
    // One node-value scratch buffer reused across all body runs (a 16-trip
    // loop previously allocated 16 of these).
    let mut values: Vec<Option<SymId>> = Vec::new();
    for (si, ctl) in fsmd.control.iter().enumerate() {
        let dfg = fsmd.lowered.segments[si].dfg();
        let sched = &fsmd.schedules[si];
        match ctl {
            Control::Straight { depth } => {
                run_body(t, func, dfg, sched, *depth, st, &mut values)?;
            }
            Control::Loop {
                depth,
                trip,
                counter,
                start,
                step,
                ..
            } => {
                let cfmt = func
                    .var(*counter)
                    .ty
                    .format()
                    .unwrap_or_else(crate::sym::bool_format);
                st.regs[counter.index()] = Some(t.constant(Fixed::from_int(*start, cfmt)));
                for _ in 0..*trip {
                    run_body(t, func, dfg, sched, *depth, st, &mut values)?;
                    // The counter register steps concretely between body
                    // runs (its value is data-independent).
                    let k = st.regs[counter.index()].expect("counter initialized");
                    let kv = t
                        .const_value(k)
                        .ok_or_else(|| Unsupported("loop counter became data-dependent".into()))?;
                    st.regs[counter.index()] =
                        Some(t.constant(Fixed::from_int(kv.to_i64() + *step, cfmt)));
                }
            }
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn run_body(
    t: &mut SymTable,
    func: &hls_ir::Function,
    dfg: &Dfg,
    sched: &Schedule,
    depth: u32,
    st: &mut FsmdState,
    values: &mut Vec<Option<SymId>>,
) -> ExecResult<()> {
    values.clear();
    values.resize(dfg.len(), None);
    for cycle in 0..depth.max(1) {
        for id in sched.nodes_in_cycle(cycle) {
            let v = eval_node(t, func, dfg, id, values, st)?;
            values[id.index()] = Some(v);
        }
    }
    Ok(())
}

pub(crate) fn eval_node(
    t: &mut SymTable,
    func: &hls_ir::Function,
    dfg: &Dfg,
    id: NodeId,
    values: &[Option<SymId>],
    st: &mut FsmdState,
) -> ExecResult<SymId> {
    let node = dfg.node(id);
    let val = |p: NodeId| values[p.index()].expect("predecessor evaluated");
    Ok(match &node.kind {
        NodeKind::Const(c) => t.constant(*c),
        NodeKind::VarRead(v) => st.regs[v.index()].expect("register initialized"),
        NodeKind::VarWrite(v) => {
            let x = cast_default(t, val(node.preds[0]), node.format);
            st.regs[v.index()] = Some(x);
            x
        }
        NodeKind::Bin(op) => {
            let a = val(node.preds[0]);
            let b = val(node.preds[1]);
            match op {
                BinOp::Add => t.intern_exact(Op::Add(a, b))?,
                BinOp::Sub => t.intern_exact(Op::Sub(a, b))?,
                BinOp::Mul => t.intern_exact(Op::Mul(a, b))?,
                BinOp::Shl | BinOp::Shr => {
                    let n = t
                        .const_value(b)
                        .ok_or_else(|| Unsupported("dynamic shift amount".into()))?
                        .to_i64()
                        .max(0) as u32;
                    // The simulator shifts in the operand's runtime format,
                    // which for every DFG node is its `format` field; pin
                    // it so symbolic rewrites cannot change what the shift
                    // wraps/truncates in.
                    let fm = dfg.node(node.preds[0]).format;
                    t.intern(if matches!(op, BinOp::Shl) {
                        Op::Shl(a, n, fm)
                    } else {
                        Op::Shr(a, n, fm)
                    })
                }
                BinOp::And => t.intern(Op::And(a, b)),
                BinOp::Or => t.intern(Op::Or(a, b)),
            }
        }
        // Strength-reduced power-of-two multiply: same semantics as Mul
        // (this *is* the canonicalization that matches it with the IR
        // side's plain multiplication).
        NodeKind::MulPow2 => {
            let a = val(node.preds[0]);
            let b = val(node.preds[1]);
            t.intern_exact(Op::Mul(a, b))?
        }
        NodeKind::Un(op) => {
            let a = val(node.preds[0]);
            match op {
                UnOp::Neg => t.intern_exact(Op::Neg(a))?,
                UnOp::Signum => t.intern(Op::Signum(a)),
                UnOp::Not => t.intern(Op::Not(a)),
            }
        }
        NodeKind::Cmp(op) => {
            let a = val(node.preds[0]);
            let b = val(node.preds[1]);
            t.intern(Op::Cmp(*op, a, b))
        }
        NodeKind::Mux | NodeKind::EnableMux => {
            // Chosen arm, aligned onto the mux's (lossless-union) bus
            // format; cast-after-choose equals choose-then-cast.
            let c = val(node.preds[0]);
            let a = val(node.preds[1]);
            let b = val(node.preds[2]);
            let arm = if a == b {
                a
            } else {
                t.intern(Op::Ite(c, a, b))
            };
            cast_default(t, arm, node.format)
        }
        NodeKind::Cast(q, o) => t.intern(Op::Cast(val(node.preds[0]), node.format, *q, *o)),
        NodeKind::Load(arr) => {
            let idx = val(node.preds[0]);
            // Borrow the element vector in place; the old per-load clone of
            // the whole symbolic array was the hottest allocation in the
            // fused verify fan-out. `st` and `t` are distinct bindings, so
            // the immutable borrow coexists with interning into `t`.
            let elems = st.arrays[arr.index()].as_ref().expect("array initialized");
            if let Some(c) = t.const_value(idx) {
                // Speculative out-of-range reads clamp, like the
                // simulator (only reachable under a false predicate).
                let i = c.to_i64().clamp(0, elems.len() as i64 - 1) as usize;
                elems[i]
            } else if index_in_bounds(t, idx, elems.len()) {
                select_element(t, idx, elems)
            } else {
                return Err(Unsupported(format!(
                    "load index into {} not provably in bounds",
                    func.var(*arr).name
                )));
            }
        }
        NodeKind::Store(arr) | NodeKind::StoreCond(arr) => {
            let idx = val(node.preds[0]);
            let v = val(node.preds[1]);
            let cond = match node.kind {
                NodeKind::StoreCond(_) => {
                    let c = val(node.preds[2]);
                    match t.const_value(c) {
                        // Gated write enable: constantly-false means no
                        // write at all (the address may be wild then).
                        Some(cv) if cv.is_zero() => return Ok(v),
                        Some(_) => None,
                        None => Some(c),
                    }
                }
                _ => None,
            };
            let mut elems = st.arrays[arr.index()].take().expect("array initialized");
            if let Some(ci) = t.const_value(idx) {
                let i = ci.to_i64();
                if i < 0 || i as usize >= elems.len() {
                    return Err(Unsupported(format!(
                        "store out of bounds: {}[{i}]",
                        func.var(*arr).name
                    )));
                }
                let i = i as usize;
                elems[i] = match cond {
                    Some(c) => {
                        let old = elems[i];
                        t.intern(Op::Ite(c, v, old))
                    }
                    None => v,
                };
            } else if index_in_bounds(t, idx, elems.len()) {
                store_element(t, idx, v, cond, &mut elems);
            } else {
                st.arrays[arr.index()] = Some(elems);
                return Err(Unsupported(format!(
                    "store index into {} not provably in bounds",
                    func.var(*arr).name
                )));
            }
            st.arrays[arr.index()] = Some(elems);
            v
        }
    })
}

fn cast_default(t: &mut SymTable, v: SymId, fmt: fixpt::Format) -> SymId {
    t.intern(Op::Cast(v, fmt, Quantization::Trn, Overflow::Wrap))
}
