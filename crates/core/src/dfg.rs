//! Data-flow graphs: the scheduler's view of straight-line code.
//!
//! Structured statements (including the guards introduced by loop merging
//! and partial unrolling) are *if-converted* into a pure data-flow graph of
//! primitive operations with multiplexers, exactly the form a datapath
//! implements. Array accesses carry conservative ordering edges unless
//! their indices are statically distinct.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use fixpt::{Format, Overflow, Quantization, Signedness};
use hls_ir::{BinOp, CmpOp, Expr, Function, Stmt, UnOp, VarId};

use crate::tech::OpClass;

/// Node identifier within a [`Dfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The operation a node performs.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// A constant (no hardware; folded into operand wiring).
    Const(fixpt::Fixed),
    /// Read of a scalar register (variable live into the segment).
    VarRead(VarId),
    /// Commit of a scalar register (variable live out of the segment).
    VarWrite(VarId),
    /// Binary arithmetic.
    Bin(BinOp),
    /// Multiplication where one operand is a constant power of two: same
    /// semantics as `Bin(Mul)` but implemented as wiring (a fixed shift),
    /// so it occupies no multiplier.
    MulPow2,
    /// Unary arithmetic.
    Un(UnOp),
    /// Comparison.
    Cmp(CmpOp),
    /// Two-way multiplexer; preds are `[cond, then, else]`.
    Mux,
    /// A predication mux whose false arm is the destination register's
    /// start-of-cycle value: realized as a register write-enable, so it
    /// costs no datapath logic. Same evaluation semantics as [`NodeKind::Mux`].
    EnableMux,
    /// Format cast (quantization/overflow logic).
    Cast(Quantization, Overflow),
    /// Array element read; preds are `[index]`.
    Load(VarId),
    /// Array element write; preds are `[index, value]` plus ordering edges.
    Store(VarId),
    /// Predicated array write (a gated write enable); preds are
    /// `[index, value, cond]` plus ordering edges. Nothing is written when
    /// the condition is false.
    StoreCond(VarId),
}

/// Structural hash; a constant hashes as its raw bits and format, as
/// [`Expr`]'s hash does.
impl Hash for NodeKind {
    fn hash<H: Hasher>(&self, h: &mut H) {
        std::mem::discriminant(self).hash(h);
        match self {
            NodeKind::Const(x) => (x.raw(), x.format()).hash(h),
            NodeKind::VarRead(v)
            | NodeKind::VarWrite(v)
            | NodeKind::Load(v)
            | NodeKind::Store(v)
            | NodeKind::StoreCond(v) => v.hash(h),
            NodeKind::Bin(op) => op.hash(h),
            NodeKind::Un(op) => op.hash(h),
            NodeKind::Cmp(op) => op.hash(h),
            NodeKind::Cast(q, o) => (q, o).hash(h),
            NodeKind::MulPow2 | NodeKind::Mux | NodeKind::EnableMux => {}
        }
    }
}

/// One DFG node.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Node {
    /// The operation.
    pub kind: NodeKind,
    /// Data predecessors (operand producers), then ordering predecessors.
    pub preds: Vec<NodeId>,
    /// Output format (booleans are 1-bit unsigned).
    pub format: Format,
}

impl Node {
    /// The hardware operator class this node occupies.
    pub fn op_class(&self, memory_arrays: &dyn Fn(VarId) -> bool) -> OpClass {
        match &self.kind {
            NodeKind::Const(_) => OpClass::Shift, // wiring
            NodeKind::VarRead(_) => OpClass::RegRead,
            NodeKind::VarWrite(_) => OpClass::RegWrite,
            NodeKind::Bin(BinOp::Add) | NodeKind::Bin(BinOp::Sub) => OpClass::Add,
            NodeKind::Bin(BinOp::Mul) => OpClass::Mul,
            NodeKind::MulPow2 => OpClass::Shift,
            NodeKind::Bin(BinOp::Shl) | NodeKind::Bin(BinOp::Shr) => OpClass::Shift,
            NodeKind::Bin(BinOp::And) | NodeKind::Bin(BinOp::Or) => OpClass::Shift,
            NodeKind::Un(UnOp::Neg) => OpClass::Neg,
            NodeKind::Un(UnOp::Signum) => OpClass::Sign,
            NodeKind::Un(UnOp::Not) => OpClass::Shift,
            NodeKind::Cmp(_) => OpClass::Cmp,
            NodeKind::Mux => OpClass::Mux,
            NodeKind::EnableMux => OpClass::Shift,
            NodeKind::Cast(..) => OpClass::Cast,
            NodeKind::Load(a) => {
                if memory_arrays(*a) {
                    OpClass::MemRead
                } else {
                    OpClass::RegRead
                }
            }
            NodeKind::Store(a) | NodeKind::StoreCond(a) => {
                if memory_arrays(*a) {
                    OpClass::MemWrite
                } else {
                    OpClass::RegWrite
                }
            }
        }
    }

    /// The array accessed, for memory-port accounting.
    pub fn accessed_array(&self) -> Option<VarId> {
        match self.kind {
            NodeKind::Load(a) | NodeKind::Store(a) | NodeKind::StoreCond(a) => Some(a),
            _ => None,
        }
    }
}

/// A data-flow graph for one straight-line region or one loop body.
#[derive(Debug, Clone, Default, PartialEq, Hash)]
pub struct Dfg {
    nodes: Vec<Node>,
    /// Variables read from registers (live-in), in first-read order.
    pub live_in: Vec<VarId>,
    /// Variables committed to registers (live-out).
    pub live_out: Vec<VarId>,
}

impl Dfg {
    /// All nodes, indexable by [`NodeId::index`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates `(id, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// The node for an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this graph.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Appends a node (crate-internal: the builder and the netlist
    /// rewriter construct graphs; everyone else consumes them).
    pub(crate) fn push(&mut self, kind: NodeKind, preds: Vec<NodeId>, format: Format) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind,
            preds,
            format,
        });
        id
    }

    /// `true` when the graph contains a loop-carried dependence on `var`
    /// (both a live-in read and a live-out write).
    pub fn is_recurrence(&self, var: VarId) -> bool {
        self.live_in.contains(&var) && self.live_out.contains(&var)
    }
}

/// Builds the DFG for a list of statements containing no loops.
///
/// `func` supplies variable declarations. `If` statements are if-converted:
/// scalar assignments merge through muxes, stores become read-modify-write
/// with a mux.
///
/// # Panics
///
/// Panics if the statements contain a `For` loop (loops are separate
/// segments) — lowering is expected to run on loop-free regions.
pub fn build_dfg(func: &Function, stmts: &[Stmt]) -> Dfg {
    let mut b = DfgBuilder {
        func,
        dfg: Dfg::default(),
        defs: BTreeMap::new(),
        array_last_store: BTreeMap::new(),
        array_loads_since: BTreeMap::new(),
        written: Vec::new(),
    };
    b.block(stmts, None);
    b.finish()
}

struct DfgBuilder<'f> {
    func: &'f Function,
    dfg: Dfg,
    /// Current producer of each scalar variable.
    defs: BTreeMap<VarId, NodeId>,
    /// Last store node per array (with known index when constant).
    array_last_store: BTreeMap<VarId, Vec<(Option<i64>, NodeId)>>,
    /// Loads since the last store, per array (anti-dependence edges).
    array_loads_since: BTreeMap<VarId, Vec<NodeId>>,
    /// Scalar variables written (in order, deduplicated at finish).
    written: Vec<VarId>,
}

impl<'f> DfgBuilder<'f> {
    fn bool_format() -> Format {
        Format::integer(1, Signedness::Unsigned)
    }

    fn var_format(&self, v: VarId) -> Format {
        self.func
            .var(v)
            .ty
            .format()
            .unwrap_or_else(Self::bool_format)
    }

    fn read_var(&mut self, v: VarId) -> NodeId {
        if let Some(&n) = self.defs.get(&v) {
            return n;
        }
        let fmt = self.var_format(v);
        if !self.dfg.live_in.contains(&v) {
            self.dfg.live_in.push(v);
        }
        let n = self.dfg.push(NodeKind::VarRead(v), vec![], fmt);
        self.defs.insert(v, n);
        n
    }

    fn expr(&mut self, e: &Expr) -> NodeId {
        match e {
            Expr::Const(c) => self.dfg.push(NodeKind::Const(*c), vec![], c.format()),
            Expr::ConstBool(bv) => {
                let c = fixpt::Fixed::from_int(*bv as i64, Self::bool_format());
                self.dfg
                    .push(NodeKind::Const(c), vec![], Self::bool_format())
            }
            Expr::Var(v) => self.read_var(*v),
            Expr::Load { array, index } => {
                let idx = self.expr(index);
                let static_idx = const_index(index);
                let fmt = self.var_format(*array);
                let mut preds = vec![idx];
                // Order after stores that may alias.
                if let Some(stores) = self.array_last_store.get(array) {
                    for (s_idx, s_node) in stores {
                        if may_alias(*s_idx, static_idx) {
                            preds.push(*s_node);
                        }
                    }
                }
                let n = self.dfg.push(NodeKind::Load(*array), preds, fmt);
                self.array_loads_since.entry(*array).or_default().push(n);
                n
            }
            Expr::Unary { op, arg } => {
                let a = self.expr(arg);
                let af = self.dfg.node(a).format;
                let fmt = match op {
                    UnOp::Neg => af.neg_format(),
                    UnOp::Signum => Format::signed(2, 2),
                    UnOp::Not => Self::bool_format(),
                };
                self.dfg.push(NodeKind::Un(*op), vec![a], fmt)
            }
            Expr::Binary { op, lhs, rhs } => {
                let a = self.expr(lhs);
                let b = self.expr(rhs);
                let (fa, fb) = (self.dfg.node(a).format, self.dfg.node(b).format);
                let fmt = match op {
                    BinOp::Add => fa.add_format(&fb),
                    BinOp::Sub => fa.sub_format(&fb),
                    BinOp::Mul => fa.mul_format(&fb),
                    BinOp::Shl | BinOp::Shr => fa,
                    BinOp::And | BinOp::Or => Self::bool_format(),
                };
                if *op == BinOp::Mul
                    && (is_pow2_const(self.dfg.node(a)) || is_pow2_const(self.dfg.node(b)))
                {
                    // Multiplying by a constant power of two is a fixed
                    // shift in hardware.
                    return self.dfg.push(NodeKind::MulPow2, vec![a, b], fmt);
                }
                self.dfg.push(NodeKind::Bin(*op), vec![a, b], fmt)
            }
            Expr::Compare { op, lhs, rhs } => {
                let a = self.expr(lhs);
                let b = self.expr(rhs);
                self.dfg
                    .push(NodeKind::Cmp(*op), vec![a, b], Self::bool_format())
            }
            Expr::Select { cond, then_, else_ } => {
                let c = self.expr(cond);
                let t = self.expr(then_);
                let e2 = self.expr(else_);
                let fmt = common_format(self.dfg.node(t).format, self.dfg.node(e2).format);
                self.dfg.push(NodeKind::Mux, vec![c, t, e2], fmt)
            }
            Expr::Cast {
                ty,
                quantization,
                overflow,
                arg,
            } => {
                let a = self.expr(arg);
                let fmt = ty.format().unwrap_or_else(Self::bool_format);
                self.dfg
                    .push(NodeKind::Cast(*quantization, *overflow), vec![a], fmt)
            }
        }
    }

    fn assign(&mut self, var: VarId, value: &Expr, pred: Option<NodeId>) {
        let mut val = self.expr(value);
        let decl_fmt = self.var_format(var);
        // Assignment semantics: cast to the declared format (skip the node
        // when the producer already has that format).
        if self.dfg.node(val).format != decl_fmt {
            val = self.dfg.push(
                NodeKind::Cast(Quantization::Trn, Overflow::Wrap),
                vec![val],
                decl_fmt,
            );
        }
        // Predicated assignment: mux with the old value. When the old value
        // is the register's start-of-cycle content (a plain read), the mux
        // is just a write-enable.
        if let Some(c) = pred {
            let old = self.read_var(var);
            let kind = if matches!(self.dfg.node(old).kind, NodeKind::VarRead(_)) {
                NodeKind::EnableMux
            } else {
                NodeKind::Mux
            };
            val = self.dfg.push(kind, vec![c, val, old], decl_fmt);
        }
        self.defs.insert(var, val);
        if !self.written.contains(&var) {
            self.written.push(var);
        }
    }

    fn store(&mut self, array: VarId, index: &Expr, value: &Expr, pred: Option<NodeId>) {
        let idx = self.expr(index);
        let mut val = self.expr(value);
        let decl_fmt = self.var_format(array);
        if self.dfg.node(val).format != decl_fmt {
            val = self.dfg.push(
                NodeKind::Cast(Quantization::Trn, Overflow::Wrap),
                vec![val],
                decl_fmt,
            );
        }
        let static_idx = const_index(index);
        let mut preds = vec![idx, val];
        if let Some(c) = pred {
            preds.push(c);
        }
        // Order after aliasing stores and all loads since the last store.
        if let Some(stores) = self.array_last_store.get(&array) {
            for (s_idx, s) in stores {
                if may_alias(*s_idx, static_idx) {
                    preds.push(*s);
                }
            }
        }
        if let Some(loads) = self.array_loads_since.get(&array) {
            preds.extend(loads.iter().copied());
        }
        let kind = if pred.is_some() {
            NodeKind::StoreCond(array)
        } else {
            NodeKind::Store(array)
        };
        let n = self.dfg.push(kind, preds, decl_fmt);
        let entry = self.array_last_store.entry(array).or_default();
        match static_idx {
            Some(i) => {
                entry.retain(|(prev, _)| *prev != Some(i));
                entry.push((Some(i), n));
            }
            None => {
                entry.clear();
                entry.push((None, n));
            }
        }
        self.array_loads_since.insert(array, Vec::new());
        if !self.dfg.live_out.contains(&array) {
            self.dfg.live_out.push(array);
        }
    }

    fn block(&mut self, stmts: &[Stmt], pred: Option<NodeId>) {
        for s in stmts {
            match s {
                Stmt::Assign { var, value } => self.assign(*var, value, pred),
                Stmt::Store {
                    array,
                    index,
                    value,
                } => self.store(*array, index, value, pred),
                Stmt::If { cond, then_, else_ } => {
                    let c = self.expr(cond);
                    let c = match pred {
                        Some(p) => self.dfg.push(
                            NodeKind::Bin(BinOp::And),
                            vec![p, c],
                            Self::bool_format(),
                        ),
                        None => c,
                    };
                    self.block(then_, Some(c));
                    if !else_.is_empty() {
                        let not_c =
                            self.dfg
                                .push(NodeKind::Un(UnOp::Not), vec![c], Self::bool_format());
                        self.block(else_, Some(not_c));
                    }
                }
                Stmt::For(_) => panic!("build_dfg expects loop-free regions"),
            }
        }
    }

    fn finish(mut self) -> Dfg {
        // Commit every written scalar with a register-write node.
        for var in std::mem::take(&mut self.written) {
            let val = self.defs[&var];
            let fmt = self.var_format(var);
            self.dfg.push(NodeKind::VarWrite(var), vec![val], fmt);
            if !self.dfg.live_out.contains(&var) {
                self.dfg.live_out.push(var);
            }
        }
        self.dfg
    }
}

/// `true` for constant nodes holding ±2^n mantissas (pure binary-point
/// scalings).
fn is_pow2_const(n: &Node) -> bool {
    match &n.kind {
        NodeKind::Const(c) => {
            let m = c.raw().unsigned_abs();
            m != 0 && m.is_power_of_two()
        }
        _ => false,
    }
}

fn const_index(e: &Expr) -> Option<i64> {
    match e {
        Expr::Const(c) => Some(c.to_i64()),
        _ => None,
    }
}

fn may_alias(a: Option<i64>, b: Option<i64>) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => x == y,
        _ => true,
    }
}

/// A fixed-width bitset over DFG node indices.
///
/// The list scheduler tracks per-cycle dependence state (which nodes have
/// been placed in the cycle currently being filled) with one of these
/// instead of scanning `node_cycle` per predecessor: a membership test is
/// one word load and the whole set clears in `O(words)` between cycles.
#[derive(Debug, Clone, Default)]
pub struct FixedBitSet {
    words: Vec<u64>,
}

impl FixedBitSet {
    /// An empty set over a universe of `n` indices.
    pub fn new(n: usize) -> Self {
        FixedBitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Inserts `i`.
    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// `true` when `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }
}

/// The smallest format that holds every value of both operands — the bus
/// format a hardware mux aligns its arms to. Also used by the explorer's
/// lower-bound model, which mirrors the builder's format inference without
/// constructing a graph.
pub(crate) fn common_format(a: Format, b: Format) -> Format {
    let signed = a.is_signed() || b.is_signed();
    let eff = |f: Format| f.int_bits() + (signed && !f.is_signed()) as i32;
    let int = eff(a).max(eff(b));
    let frac = a.frac_bits().max(b.frac_bits());
    let width = ((int + frac).max(1)) as u32;
    let s = if signed {
        Signedness::Signed
    } else {
        Signedness::Unsigned
    };
    Format::new(width, int, s).expect("mux bus format within bounds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::{FunctionBuilder, Ty};

    fn ids(dfg: &Dfg, pred: impl Fn(&Node) -> bool) -> Vec<NodeId> {
        dfg.iter()
            .filter(|(_, n)| pred(n))
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn simple_mac_graph() {
        let mut b = FunctionBuilder::new("mac");
        let x = b.param_scalar("x", Ty::fixed(10, 0));
        let c = b.param_scalar("c", Ty::fixed(10, 0));
        let acc = b.param_scalar("acc", Ty::fixed(22, 2));
        b.assign(
            acc,
            Expr::add(Expr::var(acc), Expr::mul(Expr::var(x), Expr::var(c))),
        );
        let f = b.build();
        let dfg = build_dfg(&f, &f.body);
        assert_eq!(
            ids(&dfg, |n| matches!(n.kind, NodeKind::Bin(BinOp::Mul))).len(),
            1
        );
        assert_eq!(
            ids(&dfg, |n| matches!(n.kind, NodeKind::Bin(BinOp::Add))).len(),
            1
        );
        // Mul of two fixed<10,0> is fixed<20,0>.
        let mul = ids(&dfg, |n| matches!(n.kind, NodeKind::Bin(BinOp::Mul)))[0];
        assert_eq!(dfg.node(mul).format.width(), 20);
        // acc is live-in (read) and live-out (written).
        assert!(dfg.is_recurrence(f.params[2]));
    }

    #[test]
    fn assignment_inserts_cast_when_formats_differ() {
        let mut b = FunctionBuilder::new("q");
        let x = b.param_scalar("x", Ty::fixed(10, 0));
        let out = b.param_scalar("out", Ty::fixed(6, 0));
        b.assign(out, Expr::var(x));
        let f = b.build();
        let dfg = build_dfg(&f, &f.body);
        assert_eq!(ids(&dfg, |n| matches!(n.kind, NodeKind::Cast(..))).len(), 1);
    }

    #[test]
    fn if_conversion_muxes_scalars() {
        let mut b = FunctionBuilder::new("sel");
        let x = b.param_scalar("x", Ty::int(8));
        let out = b.param_scalar("out", Ty::int(8));
        b.if_else(
            Expr::cmp(CmpOp::Gt, Expr::var(x), Expr::int_const(0)),
            |b| b.assign(out, Expr::int_const(1)),
            |b| b.assign(out, Expr::int_const(2)),
        );
        let f = b.build();
        let dfg = build_dfg(&f, &f.body);
        // First predicated assignment sees the register's start-of-cycle
        // value (write-enable mux); the second sees the first's result and
        // needs a real mux.
        assert_eq!(
            ids(&dfg, |n| matches!(n.kind, NodeKind::EnableMux)).len(),
            1
        );
        assert_eq!(ids(&dfg, |n| matches!(n.kind, NodeKind::Mux)).len(), 1);
        assert_eq!(ids(&dfg, |n| matches!(n.kind, NodeKind::Cmp(_))).len(), 1);
        assert_eq!(
            ids(&dfg, |n| matches!(n.kind, NodeKind::Un(UnOp::Not))).len(),
            1
        );
        // out committed once.
        assert_eq!(
            ids(&dfg, |n| matches!(n.kind, NodeKind::VarWrite(_))).len(),
            1
        );
    }

    #[test]
    fn store_after_store_same_index_ordered() {
        let mut b = FunctionBuilder::new("ss");
        let a = b.param_array("a", Ty::int(8), 4);
        b.store(a, Expr::int_const(1), Expr::int_const(5));
        b.store(a, Expr::int_const(1), Expr::int_const(6));
        let f = b.build();
        let dfg = build_dfg(&f, &f.body);
        let stores = ids(&dfg, |n| matches!(n.kind, NodeKind::Store(_)));
        assert_eq!(stores.len(), 2);
        // Second store must be ordered after the first.
        assert!(dfg.node(stores[1]).preds.contains(&stores[0]));
    }

    #[test]
    fn disjoint_constant_indices_not_ordered() {
        let mut b = FunctionBuilder::new("sd");
        let a = b.param_array("a", Ty::int(8), 4);
        b.store(a, Expr::int_const(0), Expr::int_const(5));
        b.store(a, Expr::int_const(1), Expr::int_const(6));
        let f = b.build();
        let dfg = build_dfg(&f, &f.body);
        let stores = ids(&dfg, |n| matches!(n.kind, NodeKind::Store(_)));
        assert!(!dfg.node(stores[1]).preds.contains(&stores[0]));
    }

    #[test]
    fn load_after_aliasing_store_ordered() {
        let mut b = FunctionBuilder::new("ls");
        let a = b.param_array("a", Ty::int(8), 4);
        let i = b.param_scalar("i", Ty::int(3));
        let out = b.param_scalar("out", Ty::int(8));
        b.store(a, Expr::var(i), Expr::int_const(5));
        b.assign(out, Expr::load(a, Expr::int_const(2)));
        let f = b.build();
        let dfg = build_dfg(&f, &f.body);
        let stores = ids(&dfg, |n| matches!(n.kind, NodeKind::Store(_)));
        let loads = ids(&dfg, |n| matches!(n.kind, NodeKind::Load(_)));
        // Store index unknown -> the load may alias and must be ordered.
        assert!(dfg.node(loads[0]).preds.contains(&stores[0]));
    }

    #[test]
    fn predicated_store_becomes_gated_write() {
        let mut b = FunctionBuilder::new("ps");
        let a = b.param_array("a", Ty::int(8), 4);
        let x = b.param_scalar("x", Ty::int(8));
        b.if_then(
            Expr::cmp(CmpOp::Gt, Expr::var(x), Expr::int_const(0)),
            |b| {
                b.store(a, Expr::int_const(2), Expr::var(x));
            },
        );
        let f = b.build();
        let dfg = build_dfg(&f, &f.body);
        // The predicate gates the write enable: a conditional store with
        // [index, value, cond] operands, no read-modify-write.
        assert_eq!(ids(&dfg, |n| matches!(n.kind, NodeKind::Load(_))).len(), 0);
        let stores = ids(&dfg, |n| matches!(n.kind, NodeKind::StoreCond(_)));
        assert_eq!(stores.len(), 1);
        assert_eq!(dfg.node(stores[0]).preds.len(), 3);
    }
}
