//! The canonical JSON encoding of a [`Lowered`] design: `hls-verify`'s
//! `fsmd_key` hashes it to key the proof cache.
//!
//! The encoding is deterministic: key order is fixed, and `i64`/`i128`
//! values travel as decimal strings, so nothing is squeezed through an
//! `f64`. It is also injective: two designs encode identically exactly
//! when they are `==`, which is what makes a key derived from it sound
//! (`crates/core/tests/passcache_differential.rs` checks this on the
//! Table-1 designs and on single-field mutations). Nothing decodes it:
//! the caches keep no disk tier, so a key only has to agree within one
//! process.

use fixpt::{Fixed, Format, Overflow, Quantization};
use hls_ir::{
    BinOp, CmpOp, Direction, Expr, Function, Json, Loop, Stmt, Ty, UnOp, Var, VarId, VarKind,
};

use crate::dfg::{Dfg, Node, NodeKind};
use crate::directives::InterfaceKind;
use crate::lower::{Lowered, Port, Segment};

// ---------------------------------------------------------------------------
// Scalar helpers
// ---------------------------------------------------------------------------

fn i64_to_json(v: i64) -> Json {
    Json::str(v.to_string())
}

fn fmt_to_json(f: Format) -> Json {
    Json::Arr(vec![
        Json::count(f.width() as u64),
        Json::num(f.int_bits()),
        Json::Bool(f.is_signed()),
    ])
}

fn fixed_to_json(x: Fixed) -> Json {
    Json::Arr(vec![
        Json::str(x.raw().to_string()),
        fmt_to_json(x.format()),
    ])
}

// ---------------------------------------------------------------------------
// Enum string tables
// ---------------------------------------------------------------------------

fn quant_str(q: Quantization) -> &'static str {
    match q {
        Quantization::Trn => "trn",
        Quantization::TrnZero => "trn_zero",
        Quantization::Rnd => "rnd",
        Quantization::RndZero => "rnd_zero",
        Quantization::RndMinInf => "rnd_min_inf",
        Quantization::RndInf => "rnd_inf",
        Quantization::RndConv => "rnd_conv",
    }
}

fn ovf_str(o: Overflow) -> &'static str {
    match o {
        Overflow::Wrap => "wrap",
        Overflow::Sat => "sat",
        Overflow::SatZero => "sat_zero",
        Overflow::SatSym => "sat_sym",
    }
}

fn unop_str(op: UnOp) -> &'static str {
    match op {
        UnOp::Neg => "neg",
        UnOp::Signum => "signum",
        UnOp::Not => "not",
    }
}

fn binop_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::Shl => "shl",
        BinOp::Shr => "shr",
        BinOp::And => "and",
        BinOp::Or => "or",
    }
}

fn cmpop_str(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "eq",
        CmpOp::Ne => "ne",
        CmpOp::Lt => "lt",
        CmpOp::Le => "le",
        CmpOp::Gt => "gt",
        CmpOp::Ge => "ge",
    }
}

fn varkind_str(k: VarKind) -> &'static str {
    match k {
        VarKind::Param => "param",
        VarKind::Static => "static",
        VarKind::Local => "local",
        VarKind::Counter => "counter",
    }
}

fn direction_str(d: Direction) -> &'static str {
    match d {
        Direction::In => "in",
        Direction::Out => "out",
        Direction::InOut => "inout",
    }
}

fn iface_str(k: InterfaceKind) -> &'static str {
    match k {
        InterfaceKind::Wire => "wire",
        InterfaceKind::RegisterHandshake => "reg_handshake",
        InterfaceKind::Memory => "memory",
        InterfaceKind::Stream => "stream",
    }
}

// ---------------------------------------------------------------------------
// IR: types, variables, expressions, statements, functions
// ---------------------------------------------------------------------------

fn ty_to_json(t: &Ty) -> Json {
    match t {
        Ty::Bool => Json::str("bool"),
        Ty::Fixed(f) => fmt_to_json(*f),
    }
}

fn varid_to_json(v: VarId) -> Json {
    Json::count(v.index() as u64)
}

fn var_to_json(v: &Var) -> Json {
    Json::Arr(vec![
        Json::str(v.name.clone()),
        ty_to_json(&v.ty),
        Json::str(varkind_str(v.kind)),
        match v.len {
            None => Json::Null,
            Some(n) => Json::size(n),
        },
    ])
}

fn expr_to_json(e: &Expr) -> Json {
    match e {
        Expr::Const(x) => Json::Arr(vec![Json::str("c"), fixed_to_json(*x)]),
        Expr::ConstBool(b) => Json::Arr(vec![Json::str("cb"), Json::Bool(*b)]),
        Expr::Var(v) => Json::Arr(vec![Json::str("v"), varid_to_json(*v)]),
        Expr::Load { array, index } => Json::Arr(vec![
            Json::str("ld"),
            varid_to_json(*array),
            expr_to_json(index),
        ]),
        Expr::Unary { op, arg } => Json::Arr(vec![
            Json::str("u"),
            Json::str(unop_str(*op)),
            expr_to_json(arg),
        ]),
        Expr::Binary { op, lhs, rhs } => Json::Arr(vec![
            Json::str("b"),
            Json::str(binop_str(*op)),
            expr_to_json(lhs),
            expr_to_json(rhs),
        ]),
        Expr::Compare { op, lhs, rhs } => Json::Arr(vec![
            Json::str("cmp"),
            Json::str(cmpop_str(*op)),
            expr_to_json(lhs),
            expr_to_json(rhs),
        ]),
        Expr::Select { cond, then_, else_ } => Json::Arr(vec![
            Json::str("sel"),
            expr_to_json(cond),
            expr_to_json(then_),
            expr_to_json(else_),
        ]),
        Expr::Cast {
            ty,
            quantization,
            overflow,
            arg,
        } => Json::Arr(vec![
            Json::str("cast"),
            ty_to_json(ty),
            Json::str(quant_str(*quantization)),
            Json::str(ovf_str(*overflow)),
            expr_to_json(arg),
        ]),
    }
}

fn stmts_to_json(stmts: &[Stmt]) -> Json {
    Json::Arr(stmts.iter().map(stmt_to_json).collect())
}

fn stmt_to_json(s: &Stmt) -> Json {
    match s {
        Stmt::Assign { var, value } => Json::Arr(vec![
            Json::str("as"),
            varid_to_json(*var),
            expr_to_json(value),
        ]),
        Stmt::Store {
            array,
            index,
            value,
        } => Json::Arr(vec![
            Json::str("st"),
            varid_to_json(*array),
            expr_to_json(index),
            expr_to_json(value),
        ]),
        Stmt::For(l) => Json::Arr(vec![Json::str("for"), loop_to_json(l)]),
        Stmt::If { cond, then_, else_ } => Json::Arr(vec![
            Json::str("if"),
            expr_to_json(cond),
            stmts_to_json(then_),
            stmts_to_json(else_),
        ]),
    }
}

fn loop_to_json(l: &Loop) -> Json {
    Json::obj(vec![
        ("label", Json::str(l.label.clone())),
        ("var", varid_to_json(l.var)),
        ("start", i64_to_json(l.start)),
        ("cmp", Json::str(cmpop_str(l.cmp))),
        ("bound", i64_to_json(l.bound)),
        ("step", i64_to_json(l.step)),
        ("body", stmts_to_json(&l.body)),
    ])
}

/// Encodes a [`Function`] (name, variable table, parameters, body).
fn function_to_json(f: &Function) -> Json {
    Json::obj(vec![
        ("name", Json::str(f.name.clone())),
        ("vars", Json::Arr(f.vars.iter().map(var_to_json).collect())),
        (
            "params",
            Json::Arr(f.params.iter().map(|&p| varid_to_json(p)).collect()),
        ),
        ("body", stmts_to_json(&f.body)),
    ])
}

// ---------------------------------------------------------------------------
// DFG, segments, lowered designs
// ---------------------------------------------------------------------------

fn node_kind_to_json(k: &NodeKind) -> Json {
    match k {
        NodeKind::Const(x) => Json::Arr(vec![Json::str("c"), fixed_to_json(*x)]),
        NodeKind::VarRead(v) => Json::Arr(vec![Json::str("vr"), varid_to_json(*v)]),
        NodeKind::VarWrite(v) => Json::Arr(vec![Json::str("vw"), varid_to_json(*v)]),
        NodeKind::Bin(op) => Json::Arr(vec![Json::str("b"), Json::str(binop_str(*op))]),
        NodeKind::MulPow2 => Json::Arr(vec![Json::str("mp2")]),
        NodeKind::Un(op) => Json::Arr(vec![Json::str("u"), Json::str(unop_str(*op))]),
        NodeKind::Cmp(op) => Json::Arr(vec![Json::str("cmp"), Json::str(cmpop_str(*op))]),
        NodeKind::Mux => Json::Arr(vec![Json::str("mux")]),
        NodeKind::EnableMux => Json::Arr(vec![Json::str("emux")]),
        NodeKind::Cast(q, o) => Json::Arr(vec![
            Json::str("cast"),
            Json::str(quant_str(*q)),
            Json::str(ovf_str(*o)),
        ]),
        NodeKind::Load(v) => Json::Arr(vec![Json::str("ld"), varid_to_json(*v)]),
        NodeKind::Store(v) => Json::Arr(vec![Json::str("st"), varid_to_json(*v)]),
        NodeKind::StoreCond(v) => Json::Arr(vec![Json::str("stc"), varid_to_json(*v)]),
    }
}

fn node_to_json(n: &Node) -> Json {
    Json::Arr(vec![
        node_kind_to_json(&n.kind),
        Json::Arr(
            n.preds
                .iter()
                .map(|p| Json::count(p.index() as u64))
                .collect(),
        ),
        fmt_to_json(n.format),
    ])
}

fn dfg_to_json(d: &Dfg) -> Json {
    Json::obj(vec![
        (
            "nodes",
            Json::Arr(d.nodes().iter().map(node_to_json).collect()),
        ),
        (
            "live_in",
            Json::Arr(d.live_in.iter().map(|&v| varid_to_json(v)).collect()),
        ),
        (
            "live_out",
            Json::Arr(d.live_out.iter().map(|&v| varid_to_json(v)).collect()),
        ),
    ])
}

fn segment_to_json(s: &Segment) -> Json {
    match s {
        Segment::Straight { dfg } => Json::obj(vec![("dfg", dfg_to_json(dfg))]),
        Segment::Loop {
            label,
            trip,
            counter,
            start,
            cmp,
            bound,
            step,
            pipeline_ii,
            dfg,
        } => Json::obj(vec![
            ("label", Json::str(label.clone())),
            ("trip", Json::size(*trip)),
            ("counter", varid_to_json(*counter)),
            ("start", i64_to_json(*start)),
            ("cmp", Json::str(cmpop_str(*cmp))),
            ("bound", i64_to_json(*bound)),
            ("step", i64_to_json(*step)),
            (
                "ii",
                match pipeline_ii {
                    None => Json::Null,
                    Some(ii) => Json::count(*ii as u64),
                },
            ),
            ("dfg", dfg_to_json(dfg)),
        ]),
    }
}

fn port_to_json(p: &Port) -> Json {
    Json::obj(vec![
        ("name", Json::str(p.name.clone())),
        ("dir", Json::str(direction_str(p.direction))),
        ("kind", Json::str(iface_str(p.kind))),
        ("width", Json::count(p.width as u64)),
        ("elements", Json::size(p.elements)),
    ])
}

/// Encodes a [`Lowered`] design (function, segments, ports, handshake).
pub fn lowered_to_json(l: &Lowered) -> Json {
    Json::obj(vec![
        ("func", function_to_json(&l.func)),
        (
            "segments",
            Json::Arr(l.segments.iter().map(segment_to_json).collect()),
        ),
        (
            "ports",
            Json::Arr(l.ports.iter().map(port_to_json).collect()),
        ),
        ("handshake", Json::Bool(l.handshake)),
    ])
}
