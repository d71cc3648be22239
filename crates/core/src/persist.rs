//! Deterministic JSON codecs for mid-pipeline artifacts.
//!
//! The persistent tier of the prefix cache ([`crate::passcache`]) stores
//! each prefix — its [`TransformResult`], its optimized [`Lowered`]
//! design and the netlist optimizer's [`NetlistReport`] — on disk, and
//! the proof cache keys designs by their [`Lowered`] encoding. These
//! codecs give them a
//! byte-stable encoding built on [`hls_ir::Json`]: key order is fixed,
//! floats are rendered as IEEE-754 bit patterns (never shortest-decimal),
//! and `i64`/`i128` values travel as decimal strings so nothing is
//! squeezed through an `f64`.
//!
//! Decoding is total but unforgiving: any malformed, truncated or
//! schema-drifted document decodes to `None`, which the cache treats as a
//! miss (and quarantines the file). A decoded artifact is bit-identical
//! to the one encoded — the differential tests in this module round-trip
//! real synthesis output and compare with `PartialEq` on every field.

use fixpt::{Fixed, Format, Overflow, Quantization, Signedness};
use hls_ir::{
    BinOp, CmpOp, Direction, Expr, Function, Json, Loop, Stmt, Ty, UnOp, Var, VarId, VarKind,
};

use crate::dfg::{Dfg, Node, NodeId, NodeKind};
use crate::directives::InterfaceKind;
use crate::lower::{Lowered, Port, Segment};
use crate::netlist::{NetlistReport, PassDelta};
use crate::transform::{HazardKind, MergeHazard, MergeReport, TransformResult};

// ---------------------------------------------------------------------------
// Scalar helpers
// ---------------------------------------------------------------------------

fn i64_to_json(v: i64) -> Json {
    Json::str(v.to_string())
}

fn i64_from_json(j: &Json) -> Option<i64> {
    j.as_str()?.parse().ok()
}

fn f64_to_json(v: f64) -> Json {
    Json::str(format!("{:016x}", v.to_bits()))
}

fn f64_from_json(j: &Json) -> Option<f64> {
    Some(f64::from_bits(u64::from_str_radix(j.as_str()?, 16).ok()?))
}

fn usize_from_json(j: &Json) -> Option<usize> {
    Some(j.as_u64()? as usize)
}

fn fmt_to_json(f: Format) -> Json {
    Json::Arr(vec![
        Json::count(f.width() as u64),
        Json::num(f.int_bits()),
        Json::Bool(f.is_signed()),
    ])
}

fn fmt_from_json(j: &Json) -> Option<Format> {
    let a = j.as_arr()?;
    if a.len() != 3 {
        return None;
    }
    let width = a[0].as_u64()? as u32;
    let int_bits = a[1].as_i64()? as i32;
    let sign = if a[2].as_bool()? {
        Signedness::Signed
    } else {
        Signedness::Unsigned
    };
    Format::new(width, int_bits, sign).ok()
}

fn fixed_to_json(x: Fixed) -> Json {
    Json::Arr(vec![
        Json::str(x.raw().to_string()),
        fmt_to_json(x.format()),
    ])
}

fn fixed_from_json(j: &Json) -> Option<Fixed> {
    let a = j.as_arr()?;
    if a.len() != 2 {
        return None;
    }
    let raw: i128 = a[0].as_str()?.parse().ok()?;
    Fixed::from_raw(raw, fmt_from_json(&a[1])?).ok()
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

fn quant_parse(s: &str) -> Option<Quantization> {
    Some(match s {
        "trn" => Quantization::Trn,
        "trn_zero" => Quantization::TrnZero,
        "rnd" => Quantization::Rnd,
        "rnd_zero" => Quantization::RndZero,
        "rnd_min_inf" => Quantization::RndMinInf,
        "rnd_inf" => Quantization::RndInf,
        "rnd_conv" => Quantization::RndConv,
        _ => return None,
    })
}

fn ovf_str(o: Overflow) -> &'static str {
    match o {
        Overflow::Wrap => "wrap",
        Overflow::Sat => "sat",
        Overflow::SatZero => "sat_zero",
        Overflow::SatSym => "sat_sym",
    }
}

fn ovf_parse(s: &str) -> Option<Overflow> {
    Some(match s {
        "wrap" => Overflow::Wrap,
        "sat" => Overflow::Sat,
        "sat_zero" => Overflow::SatZero,
        "sat_sym" => Overflow::SatSym,
        _ => return None,
    })
}

fn unop_str(op: UnOp) -> &'static str {
    match op {
        UnOp::Neg => "neg",
        UnOp::Signum => "signum",
        UnOp::Not => "not",
    }
}

fn unop_parse(s: &str) -> Option<UnOp> {
    Some(match s {
        "neg" => UnOp::Neg,
        "signum" => UnOp::Signum,
        "not" => UnOp::Not,
        _ => return None,
    })
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

fn binop_parse(s: &str) -> Option<BinOp> {
    Some(match s {
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "mul" => BinOp::Mul,
        "shl" => BinOp::Shl,
        "shr" => BinOp::Shr,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        _ => return None,
    })
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

fn cmpop_parse(s: &str) -> Option<CmpOp> {
    Some(match s {
        "eq" => CmpOp::Eq,
        "ne" => CmpOp::Ne,
        "lt" => CmpOp::Lt,
        "le" => CmpOp::Le,
        "gt" => CmpOp::Gt,
        "ge" => CmpOp::Ge,
        _ => return None,
    })
}

fn varkind_str(k: VarKind) -> &'static str {
    match k {
        VarKind::Param => "param",
        VarKind::Static => "static",
        VarKind::Local => "local",
        VarKind::Counter => "counter",
    }
}

fn varkind_parse(s: &str) -> Option<VarKind> {
    Some(match s {
        "param" => VarKind::Param,
        "static" => VarKind::Static,
        "local" => VarKind::Local,
        "counter" => VarKind::Counter,
        _ => return None,
    })
}

fn direction_str(d: Direction) -> &'static str {
    match d {
        Direction::In => "in",
        Direction::Out => "out",
        Direction::InOut => "inout",
    }
}

fn direction_parse(s: &str) -> Option<Direction> {
    Some(match s {
        "in" => Direction::In,
        "out" => Direction::Out,
        "inout" => Direction::InOut,
        _ => return None,
    })
}

fn iface_str(k: InterfaceKind) -> &'static str {
    match k {
        InterfaceKind::Wire => "wire",
        InterfaceKind::RegisterHandshake => "reg_handshake",
        InterfaceKind::Memory => "memory",
        InterfaceKind::Stream => "stream",
    }
}

fn iface_parse(s: &str) -> Option<InterfaceKind> {
    Some(match s {
        "wire" => InterfaceKind::Wire,
        "reg_handshake" => InterfaceKind::RegisterHandshake,
        "memory" => InterfaceKind::Memory,
        "stream" => InterfaceKind::Stream,
        _ => return None,
    })
}

fn hazard_str(k: HazardKind) -> &'static str {
    match k {
        HazardKind::ReadBeforeWrite => "read-before-write",
        HazardKind::WriteBeforeRead => "write-before-read",
        HazardKind::WriteOrder => "write-order",
    }
}

fn hazard_parse(s: &str) -> Option<HazardKind> {
    Some(match s {
        "read-before-write" => HazardKind::ReadBeforeWrite,
        "write-before-read" => HazardKind::WriteBeforeRead,
        "write-order" => HazardKind::WriteOrder,
        _ => return None,
    })
}

/// Interns a netlist pass name back to the optimizer's `&'static str`
/// table ([`crate::netlist::Mode`] names).
fn pass_name_intern(s: &str) -> Option<&'static str> {
    Some(match s {
        "const-fold" => "const-fold",
        "reg-const-prop" => "reg-const-prop",
        "cse" => "cse",
        "rebalance" => "rebalance",
        _ => return None,
    })
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

fn ty_from_json(j: &Json) -> Option<Ty> {
    match j {
        Json::Str(s) if s == "bool" => Some(Ty::Bool),
        _ => Some(Ty::Fixed(fmt_from_json(j)?)),
    }
}

fn varid_to_json(v: VarId) -> Json {
    Json::count(v.index() as u64)
}

fn varid_from_json(j: &Json) -> Option<VarId> {
    Some(VarId::from_raw(j.as_u64()? as u32))
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

fn var_from_json(j: &Json) -> Option<Var> {
    let a = j.as_arr()?;
    if a.len() != 4 {
        return None;
    }
    Some(Var {
        name: a[0].as_str()?.to_string(),
        ty: ty_from_json(&a[1])?,
        kind: varkind_parse(a[2].as_str()?)?,
        len: match &a[3] {
            Json::Null => None,
            other => Some(usize_from_json(other)?),
        },
    })
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

fn expr_from_json(j: &Json) -> Option<Expr> {
    let a = j.as_arr()?;
    let tag = a.first()?.as_str()?;
    Some(match (tag, a.len()) {
        ("c", 2) => Expr::Const(fixed_from_json(&a[1])?),
        ("cb", 2) => Expr::ConstBool(a[1].as_bool()?),
        ("v", 2) => Expr::Var(varid_from_json(&a[1])?),
        ("ld", 3) => Expr::Load {
            array: varid_from_json(&a[1])?,
            index: Box::new(expr_from_json(&a[2])?),
        },
        ("u", 3) => Expr::Unary {
            op: unop_parse(a[1].as_str()?)?,
            arg: Box::new(expr_from_json(&a[2])?),
        },
        ("b", 4) => Expr::Binary {
            op: binop_parse(a[1].as_str()?)?,
            lhs: Box::new(expr_from_json(&a[2])?),
            rhs: Box::new(expr_from_json(&a[3])?),
        },
        ("cmp", 4) => Expr::Compare {
            op: cmpop_parse(a[1].as_str()?)?,
            lhs: Box::new(expr_from_json(&a[2])?),
            rhs: Box::new(expr_from_json(&a[3])?),
        },
        ("sel", 4) => Expr::Select {
            cond: Box::new(expr_from_json(&a[1])?),
            then_: Box::new(expr_from_json(&a[2])?),
            else_: Box::new(expr_from_json(&a[3])?),
        },
        ("cast", 5) => Expr::Cast {
            ty: ty_from_json(&a[1])?,
            quantization: quant_parse(a[2].as_str()?)?,
            overflow: ovf_parse(a[3].as_str()?)?,
            arg: Box::new(expr_from_json(&a[4])?),
        },
        _ => return None,
    })
}

fn stmts_to_json(stmts: &[Stmt]) -> Json {
    Json::Arr(stmts.iter().map(stmt_to_json).collect())
}

fn stmts_from_json(j: &Json) -> Option<Vec<Stmt>> {
    j.as_arr()?.iter().map(stmt_from_json).collect()
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

fn stmt_from_json(j: &Json) -> Option<Stmt> {
    let a = j.as_arr()?;
    let tag = a.first()?.as_str()?;
    Some(match (tag, a.len()) {
        ("as", 3) => Stmt::Assign {
            var: varid_from_json(&a[1])?,
            value: expr_from_json(&a[2])?,
        },
        ("st", 4) => Stmt::Store {
            array: varid_from_json(&a[1])?,
            index: expr_from_json(&a[2])?,
            value: expr_from_json(&a[3])?,
        },
        ("for", 2) => Stmt::For(loop_from_json(&a[1])?),
        ("if", 4) => Stmt::If {
            cond: expr_from_json(&a[1])?,
            then_: stmts_from_json(&a[2])?,
            else_: stmts_from_json(&a[3])?,
        },
        _ => return None,
    })
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

fn loop_from_json(j: &Json) -> Option<Loop> {
    Some(Loop {
        label: j.get("label")?.as_str()?.to_string(),
        var: varid_from_json(j.get("var")?)?,
        start: i64_from_json(j.get("start")?)?,
        cmp: cmpop_parse(j.get("cmp")?.as_str()?)?,
        bound: i64_from_json(j.get("bound")?)?,
        step: i64_from_json(j.get("step")?)?,
        body: stmts_from_json(j.get("body")?)?,
    })
}

/// Encodes a [`Function`] (name, variable table, parameters, body).
pub fn function_to_json(f: &Function) -> Json {
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

/// Decodes a [`Function`]; `None` on any malformed field.
pub fn function_from_json(j: &Json) -> Option<Function> {
    Some(Function {
        name: j.get("name")?.as_str()?.to_string(),
        vars: j
            .get("vars")?
            .as_arr()?
            .iter()
            .map(var_from_json)
            .collect::<Option<Vec<_>>>()?,
        params: j
            .get("params")?
            .as_arr()?
            .iter()
            .map(varid_from_json)
            .collect::<Option<Vec<_>>>()?,
        body: stmts_from_json(j.get("body")?)?,
    })
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

fn node_kind_from_json(j: &Json) -> Option<NodeKind> {
    let a = j.as_arr()?;
    let tag = a.first()?.as_str()?;
    Some(match (tag, a.len()) {
        ("c", 2) => NodeKind::Const(fixed_from_json(&a[1])?),
        ("vr", 2) => NodeKind::VarRead(varid_from_json(&a[1])?),
        ("vw", 2) => NodeKind::VarWrite(varid_from_json(&a[1])?),
        ("b", 2) => NodeKind::Bin(binop_parse(a[1].as_str()?)?),
        ("mp2", 1) => NodeKind::MulPow2,
        ("u", 2) => NodeKind::Un(unop_parse(a[1].as_str()?)?),
        ("cmp", 2) => NodeKind::Cmp(cmpop_parse(a[1].as_str()?)?),
        ("mux", 1) => NodeKind::Mux,
        ("emux", 1) => NodeKind::EnableMux,
        ("cast", 3) => NodeKind::Cast(quant_parse(a[1].as_str()?)?, ovf_parse(a[2].as_str()?)?),
        ("ld", 2) => NodeKind::Load(varid_from_json(&a[1])?),
        ("st", 2) => NodeKind::Store(varid_from_json(&a[1])?),
        ("stc", 2) => NodeKind::StoreCond(varid_from_json(&a[1])?),
        _ => return None,
    })
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

fn dfg_from_json(j: &Json) -> Option<Dfg> {
    let mut dfg = Dfg::default();
    let nodes = j.get("nodes")?.as_arr()?;
    for n in nodes {
        let a = n.as_arr()?;
        if a.len() != 3 {
            return None;
        }
        let kind = node_kind_from_json(&a[0])?;
        let preds: Vec<NodeId> = a[1]
            .as_arr()?
            .iter()
            .map(|p| {
                let raw = p.as_u64()? as u32;
                // A predecessor must reference an earlier node; reject
                // forward edges outright rather than building a cyclic DFG.
                ((raw as usize) < nodes.len()).then_some(NodeId(raw))
            })
            .collect::<Option<Vec<_>>>()?;
        let format = fmt_from_json(&a[2])?;
        dfg.push(kind, preds, format);
    }
    dfg.live_in = j
        .get("live_in")?
        .as_arr()?
        .iter()
        .map(varid_from_json)
        .collect::<Option<Vec<_>>>()?;
    dfg.live_out = j
        .get("live_out")?
        .as_arr()?
        .iter()
        .map(varid_from_json)
        .collect::<Option<Vec<_>>>()?;
    Some(dfg)
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

fn segment_from_json(j: &Json) -> Option<Segment> {
    if j.get("label").is_none() {
        return Some(Segment::Straight {
            dfg: dfg_from_json(j.get("dfg")?)?,
        });
    }
    Some(Segment::Loop {
        label: j.get("label")?.as_str()?.to_string(),
        trip: usize_from_json(j.get("trip")?)?,
        counter: varid_from_json(j.get("counter")?)?,
        start: i64_from_json(j.get("start")?)?,
        cmp: cmpop_parse(j.get("cmp")?.as_str()?)?,
        bound: i64_from_json(j.get("bound")?)?,
        step: i64_from_json(j.get("step")?)?,
        pipeline_ii: match j.get("ii")? {
            Json::Null => None,
            other => Some(other.as_u64()? as u32),
        },
        dfg: dfg_from_json(j.get("dfg")?)?,
    })
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

fn port_from_json(j: &Json) -> Option<Port> {
    Some(Port {
        name: j.get("name")?.as_str()?.to_string(),
        direction: direction_parse(j.get("dir")?.as_str()?)?,
        kind: iface_parse(j.get("kind")?.as_str()?)?,
        width: j.get("width")?.as_u64()? as u32,
        elements: usize_from_json(j.get("elements")?)?,
    })
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

/// Decodes a [`Lowered`] design; `None` on any malformed field.
pub fn lowered_from_json(j: &Json) -> Option<Lowered> {
    Some(Lowered {
        func: function_from_json(j.get("func")?)?,
        segments: j
            .get("segments")?
            .as_arr()?
            .iter()
            .map(segment_from_json)
            .collect::<Option<Vec<_>>>()?,
        ports: j
            .get("ports")?
            .as_arr()?
            .iter()
            .map(port_from_json)
            .collect::<Option<Vec<_>>>()?,
        handshake: j.get("handshake")?.as_bool()?,
    })
}

// ---------------------------------------------------------------------------
// Transform results
// ---------------------------------------------------------------------------

fn merge_report_to_json(m: &MergeReport) -> Json {
    Json::obj(vec![
        (
            "merged",
            Json::Arr(m.merged.iter().map(|s| Json::str(s.clone())).collect()),
        ),
        ("label", Json::str(m.label.clone())),
        ("trip", Json::size(m.trip_count)),
        (
            "hazards",
            Json::Arr(
                m.hazards
                    .iter()
                    .map(|h| {
                        Json::obj(vec![
                            ("first", Json::str(h.first.clone())),
                            ("second", Json::str(h.second.clone())),
                            ("var", Json::str(h.var.clone())),
                            ("kind", Json::str(hazard_str(h.kind))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn merge_report_from_json(j: &Json) -> Option<MergeReport> {
    Some(MergeReport {
        merged: j
            .get("merged")?
            .as_arr()?
            .iter()
            .map(|s| Some(s.as_str()?.to_string()))
            .collect::<Option<Vec<_>>>()?,
        label: j.get("label")?.as_str()?.to_string(),
        trip_count: usize_from_json(j.get("trip")?)?,
        hazards: j
            .get("hazards")?
            .as_arr()?
            .iter()
            .map(|h| {
                Some(MergeHazard {
                    first: h.get("first")?.as_str()?.to_string(),
                    second: h.get("second")?.as_str()?.to_string(),
                    var: h.get("var")?.as_str()?.to_string(),
                    kind: hazard_parse(h.get("kind")?.as_str()?)?,
                })
            })
            .collect::<Option<Vec<_>>>()?,
    })
}

/// Encodes a [`TransformResult`] (rewritten function plus merge reports).
pub fn transform_to_json(t: &TransformResult) -> Json {
    Json::obj(vec![
        ("func", function_to_json(&t.func)),
        (
            "merges",
            Json::Arr(t.merges.iter().map(merge_report_to_json).collect()),
        ),
    ])
}

/// Decodes a [`TransformResult`]; `None` on any malformed field.
pub fn transform_from_json(j: &Json) -> Option<TransformResult> {
    Some(TransformResult {
        func: function_from_json(j.get("func")?)?,
        merges: j
            .get("merges")?
            .as_arr()?
            .iter()
            .map(merge_report_from_json)
            .collect::<Option<Vec<_>>>()?,
    })
}

// ---------------------------------------------------------------------------
// Netlist optimizer outputs
// ---------------------------------------------------------------------------

fn pass_delta_to_json(d: &PassDelta) -> Json {
    Json::obj(vec![
        ("pass", Json::str(d.pass)),
        ("changed", Json::size(d.changed_segments)),
        ("cells_before", Json::size(d.cells_before)),
        ("cells_after", Json::size(d.cells_after)),
        ("depth_before", Json::size(d.depth_before)),
        ("depth_after", Json::size(d.depth_after)),
        ("crit_before", f64_to_json(d.critical_ns_before)),
        ("crit_after", f64_to_json(d.critical_ns_after)),
    ])
}

fn pass_delta_from_json(j: &Json) -> Option<PassDelta> {
    Some(PassDelta {
        pass: pass_name_intern(j.get("pass")?.as_str()?)?,
        changed_segments: usize_from_json(j.get("changed")?)?,
        cells_before: usize_from_json(j.get("cells_before")?)?,
        cells_after: usize_from_json(j.get("cells_after")?)?,
        depth_before: usize_from_json(j.get("depth_before")?)?,
        depth_after: usize_from_json(j.get("depth_after")?)?,
        critical_ns_before: f64_from_json(j.get("crit_before")?)?,
        critical_ns_after: f64_from_json(j.get("crit_after")?)?,
    })
}

/// Encodes a [`NetlistReport`] with bit-exact critical-path floats.
pub fn report_to_json(r: &NetlistReport) -> Json {
    Json::obj(vec![(
        "deltas",
        Json::Arr(r.deltas.iter().map(pass_delta_to_json).collect()),
    )])
}

/// Decodes a [`NetlistReport`]; `None` on any malformed field.
pub fn report_from_json(j: &Json) -> Option<NetlistReport> {
    Some(NetlistReport {
        deltas: j
            .get("deltas")?
            .as_arr()?
            .iter()
            .map(pass_delta_from_json)
            .collect::<Option<Vec<_>>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{optimize_lowered, NetlistOptConfig};
    use crate::tech::TechLibrary;
    use crate::transform::apply_loop_transforms;
    use crate::Directives;
    use hls_ir::parse_function;

    const SRC: &str = r#"
        void kernel(sc_fixed<8,4> x[4], sc_fixed<12,6> *out) {
            static sc_fixed<8,4> taps[4];
            sc_fixed<12,6> acc = 0;
            shift: for (int i = 3; i > 0; i--) {
                taps[i] = taps[i - 1];
            }
            taps[0] = x[0];
            mac: for (int k = 0; k < 4; k++) {
                if (taps[k] > 0) {
                    acc += taps[k] * 2;
                } else {
                    acc -= (sc_fixed<8,4>)(taps[k] >> 1);
                }
            }
            *out = acc - x[0] + x[0];
        }
    "#;

    #[test]
    fn function_round_trips() {
        let func = parse_function(SRC).unwrap();
        let j = function_to_json(&func);
        let text = j.write();
        let back = function_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(func, back);
        // The encoding itself is byte-stable.
        assert_eq!(text, function_to_json(&back).write());
    }

    #[test]
    fn transform_round_trips() {
        let func = parse_function(SRC).unwrap();
        let mut d = Directives::new(10.0);
        d.loops.entry("mac".into()).or_default().unroll = crate::directives::Unroll::Factor(2);
        let t = apply_loop_transforms(&func, &d);
        let j = transform_to_json(&t);
        let back = transform_from_json(&Json::parse(&j.write()).unwrap()).unwrap();
        assert_eq!(t.func, back.func);
        assert_eq!(t.merges, back.merges);
    }

    #[test]
    fn lowered_and_report_round_trip() {
        let func = parse_function(SRC).unwrap();
        let d = Directives::new(10.0);
        let mut low = crate::lower(&func, &d);
        let report = optimize_lowered(
            &mut low,
            &NetlistOptConfig::default(),
            &TechLibrary::asic_100mhz(),
        );

        let back = lowered_from_json(&Json::parse(&lowered_to_json(&low).write()).unwrap());
        assert_eq!(Some(low), back);

        let r = &report;
        let back = report_from_json(&Json::parse(&report_to_json(r).write()).unwrap()).unwrap();
        assert_eq!(r, &back);
        for (i, (a, b)) in r.deltas.iter().zip(&back.deltas).enumerate() {
            assert_eq!(
                a.critical_ns_before.to_bits(),
                b.critical_ns_before.to_bits(),
                "delta {i} before bits"
            );
            assert_eq!(a.critical_ns_after.to_bits(), b.critical_ns_after.to_bits());
        }
    }

    #[test]
    fn malformed_documents_decode_to_none() {
        let func = parse_function(SRC).unwrap();
        let good = function_to_json(&func).write();
        // Truncated JSON fails to parse at all; a structurally valid but
        // schema-drifted document must decode to None, not panic.
        assert!(Json::parse(&good[..good.len() / 2]).is_err());
        let j = Json::parse(&good.replace("\"param\"", "\"banana\"")).unwrap();
        assert!(function_from_json(&j).is_none());
        assert!(lowered_from_json(&Json::obj(vec![("func", Json::Null)])).is_none());
        assert!(transform_from_json(&Json::Null).is_none());
    }
}
