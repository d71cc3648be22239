//! Netlist rewriting between lowering and scheduling.
//!
//! The lowered design ([`Lowered`]) carries one [`Dfg`] per control
//! segment. This module treats those graphs as a rewritable netlist of
//! hash-consed cells (every node has an explicit [`Format`], i.e. a bit
//! width and fixed-point interpretation) and runs a small pass pipeline
//! over them, mirroring the synthesis stage chain one level down:
//!
//! * **`const-fold`** — evaluates constant cones with exactly the
//!   simulator's semantics and applies identity/mux simplifications
//!   (`x + 0`, `x - x`, `x * 1`, constant mux selects, same-target mux
//!   arms, double negation, cast-of-cast collapse, …).
//! * **`reg-const-prop`** — propagates constants *across registers*:
//!   a value committed by an earlier segment's `VarWrite` substitutes
//!   later segments' `VarRead`s of the same variable (loop bodies only
//!   see values their iterations cannot overwrite).
//! * **`cse`** — shares structurally identical pure cells within a
//!   segment via hash-consing (one adder where the source built two).
//! * **`rebalance`** — flattens chains of *exact* (lossless-format)
//!   adds/subtracts and rebuilds them as arrival-time-ordered balanced
//!   trees under the [`TechLibrary`] delay model, cutting critical-path
//!   depth the way retiming-free tree rebalancing does in RTL
//!   optimizers.
//!
//! Every rewrite is value-preserving per cell: a replacement node
//! always has the **same [`Format`]** as the node it replaces, so the
//! runtime invariant "the value computed for a node is represented in
//! `node.format`" survives — the Verilog emitter's fraction alignment
//! and the simulators' exact arithmetic both rely on it.
//!
//! [`optimize_lowered`] rewrites the design and reports per-pass
//! measurements; it keeps no snapshots. Soundness is checked on demand:
//! [`netlist_obligations`] re-runs the same passes on a copy of the raw
//! lowering and returns one [`NetlistObligation`] per pass that changed
//! anything (the whole design before and after). `hls-verify`
//! discharges each one by symbolic execution of both versions from a
//! common free entry state, with an exhaustive bit-blast fallback for
//! narrow cones (`check_netlist_obligations`). The `netlist_opt` report
//! discharges the obligations of 1,458 lowerings this way and fails on
//! any refuted rewrite; served and swept designs are instead proved end
//! to end, IR against the FSMD built from the optimized design, so an
//! unsound rewrite cannot reach a verified artifact either way.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};

use fixpt::{Fixed, Format, Overflow, Quantization, Signedness};
use hls_ir::{BinOp, Json, UnOp, VarId};

use crate::dfg::{Dfg, NodeId, NodeKind};
use crate::lower::{Lowered, Segment};
use crate::tech::TechLibrary;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// How aggressively the netlist optimizer runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// No rewriting at all: the lowered graphs reach the scheduler
    /// exactly as the builder produced them (the escape hatch, and the
    /// mode the golden Figure-4 snapshots are pinned to).
    Off,
    /// Constant folding + common-subexpression sharing only.
    Basic,
    /// All passes, including cross-register constant propagation and
    /// delay-aware chain rebalancing (the default).
    #[default]
    Full,
}

impl OptLevel {
    /// Stable name, used in JSON and digests.
    pub fn as_str(self) -> &'static str {
        match self {
            OptLevel::Off => "off",
            OptLevel::Basic => "basic",
            OptLevel::Full => "full",
        }
    }

    /// Inverse of [`OptLevel::as_str`].
    pub fn parse(s: &str) -> Option<OptLevel> {
        match s {
            "off" => Some(OptLevel::Off),
            "basic" => Some(OptLevel::Basic),
            "full" => Some(OptLevel::Full),
            _ => None,
        }
    }
}

/// Netlist-optimization knobs; part of [`Directives`](crate::Directives)
/// and therefore of the hls-serve canonical request digest (opt-on and
/// opt-off artifacts can never alias).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct NetlistOptConfig {
    /// The optimization level (default: [`OptLevel::Full`]).
    pub level: OptLevel,
}

impl NetlistOptConfig {
    /// All passes on (the default).
    pub fn full() -> NetlistOptConfig {
        NetlistOptConfig {
            level: OptLevel::Full,
        }
    }

    /// Folding and sharing only.
    pub fn basic() -> NetlistOptConfig {
        NetlistOptConfig {
            level: OptLevel::Basic,
        }
    }

    /// The escape hatch: no rewriting.
    pub fn off() -> NetlistOptConfig {
        NetlistOptConfig {
            level: OptLevel::Off,
        }
    }

    /// Whether any pass will run.
    pub fn is_enabled(&self) -> bool {
        self.level != OptLevel::Off
    }

    /// The pass list for this level, in execution order.
    pub fn passes(&self) -> &'static [Mode] {
        match self.level {
            OptLevel::Off => &[],
            OptLevel::Basic => &[Mode::Fold, Mode::Cse],
            OptLevel::Full => &[Mode::Fold, Mode::ConstProp, Mode::Cse, Mode::Rebalance],
        }
    }

    /// JSON form (`{"level": "full"}`).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![("level", Json::str(self.level.as_str()))])
    }

    /// Inverse of [`NetlistOptConfig::to_json`]; missing fields default.
    pub fn from_json(v: &Json) -> Result<NetlistOptConfig, String> {
        let mut cfg = NetlistOptConfig::default();
        if let Some(l) = v.get("level") {
            let s = l.as_str().ok_or("netlist_opt: `level` is not a string")?;
            cfg.level =
                OptLevel::parse(s).ok_or_else(|| format!("netlist_opt: unknown level `{s}`"))?;
        }
        Ok(cfg)
    }
}

// ---------------------------------------------------------------------------
// Pass identities and reporting
// ---------------------------------------------------------------------------

/// One netlist rewrite pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Constant folding + identity/mux simplification.
    Fold,
    /// Cross-register constant propagation.
    ConstProp,
    /// Common-subexpression sharing (hash-consing pure cells).
    Cse,
    /// Delay-aware add/sub chain rebalancing.
    Rebalance,
}

impl Mode {
    /// Stable pass name (used in traces, reports and obligations).
    pub fn name(self) -> &'static str {
        match self {
            Mode::Fold => "const-fold",
            Mode::ConstProp => "reg-const-prop",
            Mode::Cse => "cse",
            Mode::Rebalance => "rebalance",
        }
    }
}

/// Before/after measurements for one pass over one design.
#[derive(Debug, Clone, PartialEq)]
pub struct PassDelta {
    /// Pass name ([`Mode::name`]).
    pub pass: &'static str,
    /// How many segment graphs the pass changed.
    pub changed_segments: usize,
    /// Total cells across all segments before the pass.
    pub cells_before: usize,
    /// Total cells after.
    pub cells_after: usize,
    /// Longest combinational operator chain before (max over segments).
    pub depth_before: usize,
    /// Longest chain after.
    pub depth_after: usize,
    /// Critical-path estimate under the library delay model before (ns).
    pub critical_ns_before: f64,
    /// Critical-path estimate after (ns).
    pub critical_ns_after: f64,
}

impl PassDelta {
    /// Stable JSON form for benches.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("pass", Json::str(self.pass)),
            ("changed_segments", Json::num(self.changed_segments as u32)),
            ("cells_before", Json::num(self.cells_before as u32)),
            ("cells_after", Json::num(self.cells_after as u32)),
            ("depth_before", Json::num(self.depth_before as u32)),
            ("depth_after", Json::num(self.depth_after as u32)),
            ("critical_ns_before", Json::num(self.critical_ns_before)),
            ("critical_ns_after", Json::num(self.critical_ns_after)),
        ])
    }
}

/// The per-pass deltas of one [`optimize_lowered`] run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetlistReport {
    /// One entry per executed pass, in order.
    pub deltas: Vec<PassDelta>,
}

impl NetlistReport {
    /// Cells before the first pass (0 when no pass ran).
    pub fn cells_before(&self) -> usize {
        self.deltas.first().map_or(0, |d| d.cells_before)
    }

    /// Cells after the last pass.
    pub fn cells_after(&self) -> usize {
        self.deltas.last().map_or(0, |d| d.cells_after)
    }

    /// One-line human summary for diagnostics.
    pub fn describe(&self) -> String {
        if self.deltas.is_empty() {
            return "netlist optimization disabled".to_string();
        }
        let first = &self.deltas[0];
        let last = &self.deltas[self.deltas.len() - 1];
        format!(
            "{} -> {} cells, depth {} -> {}, critical {:.2} -> {:.2} ns ({} passes)",
            first.cells_before,
            last.cells_after,
            first.depth_before,
            last.depth_after,
            first.critical_ns_before,
            last.critical_ns_after,
            self.deltas.len()
        )
    }

    /// Stable JSON form for benches.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![(
            "passes",
            Json::Arr(self.deltas.iter().map(PassDelta::to_json).collect()),
        )])
    }
}

/// An equivalence obligation: "the design `after` computes the same
/// final register/array state as `before` from every entry state".
/// [`netlist_obligations`] emits one per pass that changed anything;
/// `hls_verify`'s symbolic executor discharges them (the `netlist-opt`
/// equivalence gate), never assumes them.
#[derive(Debug, Clone)]
pub struct NetlistObligation {
    /// The pass that performed the rewrite.
    pub pass: &'static str,
    /// The design before the pass.
    pub before: Lowered,
    /// The design after the pass.
    pub after: Lowered,
}

// ---------------------------------------------------------------------------
// Measurements
// ---------------------------------------------------------------------------

/// Total cell count across all segment graphs.
pub fn lowered_cells(lowered: &Lowered) -> usize {
    lowered.segments.iter().map(|s| s.dfg().len()).sum()
}

/// Longest combinational operator chain in one graph (registers, casts
/// and pure-wiring shifts count as depth 0).
pub fn logic_depth(dfg: &Dfg) -> usize {
    let mut depth = vec![0usize; dfg.len()];
    let mut best = 0;
    for (i, node) in dfg.nodes().iter().enumerate() {
        let preds = node.preds.iter().map(|p| depth[p.index()]).max();
        let own = match &node.kind {
            NodeKind::Bin(BinOp::Shl | BinOp::Shr) => 0,
            NodeKind::Bin(_)
            | NodeKind::MulPow2
            | NodeKind::Un(_)
            | NodeKind::Cmp(_)
            | NodeKind::Mux
            | NodeKind::EnableMux => 1,
            _ => 0,
        };
        depth[i] = preds.unwrap_or(0) + own;
        best = best.max(depth[i]);
    }
    best
}

/// Critical-path arrival estimate (ns) of one graph under the library
/// delay model (arrays priced as register files).
pub fn critical_path_ns(dfg: &Dfg, lib: &TechLibrary) -> f64 {
    let mut arr = vec![0.0f64; dfg.len()];
    let mut best = 0.0f64;
    for (i, node) in dfg.nodes().iter().enumerate() {
        let preds = node
            .preds
            .iter()
            .map(|p| arr[p.index()])
            .fold(0.0f64, f64::max);
        let class = node.op_class(&|_: VarId| false);
        arr[i] = preds + lib.delay(class, node.format.width());
        best = best.max(arr[i]);
    }
    best
}

/// `(cells, depth, critical_ns)` over a whole lowered design (depth and
/// critical path are maxima over segments, cells the sum).
pub fn lowered_netlist_stats(lowered: &Lowered, lib: &TechLibrary) -> (usize, usize, f64) {
    let mut cells = 0;
    let mut depth = 0;
    let mut crit = 0.0f64;
    for seg in &lowered.segments {
        let dfg = seg.dfg();
        cells += dfg.len();
        depth = depth.max(logic_depth(dfg));
        crit = crit.max(critical_path_ns(dfg, lib));
    }
    (cells, depth, crit)
}

// ---------------------------------------------------------------------------
// Format helpers
// ---------------------------------------------------------------------------
//
// The rewriter uses `Format::checked_*_format` both to guard folding (so
// a hand-built graph can never panic the optimizer) and to detect "exact"
// cells: a node whose format is precisely the lossless result format of
// its operand formats, which is the licence for algebraic rewrites.

/// Whether every value of `src` is exactly representable in `dst`
/// (no quantization, no overflow) — the licence to treat a
/// `cast(Trn, Wrap)` into `dst` as value-preserving.
fn lossless_into(src: Format, dst: Format) -> bool {
    if dst.frac_bits() < src.frac_bits() {
        return false;
    }
    if src.is_signed() {
        dst.is_signed() && dst.int_bits() >= src.int_bits()
    } else if dst.is_signed() {
        dst.int_bits() > src.int_bits()
    } else {
        dst.int_bits() >= src.int_bits()
    }
}

fn bool_format() -> Format {
    Format::integer(1, Signedness::Unsigned)
}

fn bool_fixed(b: bool) -> Fixed {
    Fixed::from_int(b as i64, bool_format())
}

fn is_one(v: Fixed) -> bool {
    let frac = v.format().frac_bits();
    (0..=126).contains(&frac) && v.raw() == 1i128 << frac
}

// ---------------------------------------------------------------------------
// Hash-consing keys
// ---------------------------------------------------------------------------

/// Structural identity of a cell: opcode, operands and output format.
/// `Fixed` hashes by value across formats, so constants key on the raw
/// representation *and* the format triple.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CellKey {
    tag: u8,
    sub: u8,
    aux: i128,
    preds: Operands,
    width: u32,
    int_bits: i32,
    signed: bool,
}

/// A cell's operand ids: up to three inline, which covers every pure
/// cell but a load ordered after aliasing stores, and more on the heap.
/// A given operand count always takes the same form, so equality is
/// that of the id lists.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Operands {
    Inline(u8, [u32; 3]),
    Spilled(Vec<u32>),
}

impl Operands {
    fn of(preds: &[NodeId]) -> Operands {
        if preds.len() <= 3 {
            let mut ids = [0u32; 3];
            for (id, p) in ids.iter_mut().zip(preds) {
                *id = p.0;
            }
            Operands::Inline(preds.len() as u8, ids)
        } else {
            Operands::Spilled(preds.iter().map(|p| p.0).collect())
        }
    }
}

impl CellKey {
    fn of(kind: &NodeKind, preds: &[NodeId], fmt: Format) -> Option<CellKey> {
        let (tag, sub, aux) = match kind {
            NodeKind::Const(c) => (0u8, 0u8, c.raw()),
            NodeKind::VarRead(v) => (1, 0, v.index() as i128),
            NodeKind::Bin(op) => (2, *op as u8, 0),
            NodeKind::MulPow2 => (3, 0, 0),
            NodeKind::Un(op) => (4, *op as u8, 0),
            NodeKind::Cmp(op) => (5, *op as u8, 0),
            NodeKind::Mux => (6, 0, 0),
            NodeKind::EnableMux => (7, 0, 0),
            NodeKind::Cast(q, o) => (8, ((*q as u8) << 4) | (*o as u8), 0),
            NodeKind::Load(v) => (9, 0, v.index() as i128),
            // Effects are never shared.
            NodeKind::VarWrite(_) | NodeKind::Store(_) | NodeKind::StoreCond(_) => return None,
        };
        Some(CellKey {
            tag,
            sub,
            aux,
            preds: Operands::of(preds),
            width: fmt.width(),
            int_bits: fmt.int_bits(),
            signed: fmt.is_signed(),
        })
    }
}

// ---------------------------------------------------------------------------
// The rewriter
// ---------------------------------------------------------------------------

/// Rebuilds one segment graph, applying folding/identities at every
/// emission, optional hash-consing of pure cells, optional register
/// constant substitution, and optional chain rebalancing.
struct Rewriter<'a> {
    src: &'a Dfg,
    lib: &'a TechLibrary,
    out: Dfg,
    /// src NodeId -> out NodeId (None until visited / for absorbed cells).
    map: Vec<Option<NodeId>>,
    /// Structural memo over `out` cells. Its keys carry constants from
    /// client source, so it keeps the std hasher's random keys: a fixed
    /// hash would let crafted constants collide and make each lookup
    /// linear.
    memo: HashMap<CellKey, NodeId>,
    /// Known constant value per out cell.
    consts: Vec<Option<Fixed>>,
    /// Arrival-time estimate per out cell (library delay model).
    arr: Vec<f64>,
    /// Share pure cells (CSE)? Constants and reads are always shared.
    share: bool,
    /// Register values known constant at segment entry (by var index).
    env: Option<&'a BTreeMap<usize, Fixed>>,
    /// Rebalance bookkeeping (empty outside `Mode::Rebalance`).
    absorbed: Vec<bool>,
    tree_root: Vec<bool>,
}

impl<'a> Rewriter<'a> {
    fn new(
        src: &'a Dfg,
        lib: &'a TechLibrary,
        share: bool,
        env: Option<&'a BTreeMap<usize, Fixed>>,
    ) -> Rewriter<'a> {
        Rewriter {
            src,
            lib,
            out: Dfg::default(),
            map: vec![None; src.len()],
            memo: HashMap::with_capacity(src.len()),
            consts: Vec::new(),
            arr: Vec::new(),
            share,
            env,
            absorbed: vec![false; src.len()],
            tree_root: vec![false; src.len()],
        }
    }

    /// Appends a cell (after the memo missed or was skipped).
    fn push_new(&mut self, kind: NodeKind, preds: Vec<NodeId>, fmt: Format) -> NodeId {
        let cval = match &kind {
            NodeKind::Const(c) => Some(*c),
            _ => None,
        };
        let id = self.out.push(kind, preds, fmt);
        let node = self.out.node(id);
        let pred_arr = node
            .preds
            .iter()
            .map(|p| self.arr[p.index()])
            .fold(0.0f64, f64::max);
        let delay = self
            .lib
            .delay(node.op_class(&|_: VarId| false), fmt.width());
        self.consts.push(cval);
        self.arr.push(pred_arr + delay);
        id
    }

    /// Emits a cell, sharing it when hash-consing applies.
    fn emit(&mut self, kind: NodeKind, preds: Vec<NodeId>, fmt: Format) -> NodeId {
        let consable = match &kind {
            NodeKind::Const(_) | NodeKind::VarRead(_) => true,
            NodeKind::VarWrite(_) | NodeKind::Store(_) | NodeKind::StoreCond(_) => false,
            _ => self.share,
        };
        if consable {
            if let Some(key) = CellKey::of(&kind, &preds, fmt) {
                // One hash per lookup: a miss reserves the id the cell is
                // about to get.
                match self.memo.entry(key) {
                    Entry::Occupied(hit) => return *hit.get(),
                    Entry::Vacant(miss) => {
                        miss.insert(NodeId(self.out.len() as u32));
                    }
                }
            }
        }
        self.push_new(kind, preds, fmt)
    }

    /// The known constant value of an out cell.
    fn cval(&self, id: NodeId) -> Option<Fixed> {
        self.consts[id.index()]
    }

    /// `id`, represented in `fmt` — the identity when formats already
    /// match, a folded constant for constant cells, a `Trn`/`Wrap` cast
    /// otherwise (exactly the simulators' mux/assign alignment cast).
    fn cast_to(&mut self, id: NodeId, fmt: Format) -> NodeId {
        if self.out.node(id).format == fmt {
            return id;
        }
        if let Some(c) = self.cval(id) {
            return self.emit(NodeKind::Const(c.cast(fmt)), Vec::new(), fmt);
        }
        self.emit(
            NodeKind::Cast(Quantization::Trn, Overflow::Wrap),
            vec![id],
            fmt,
        )
    }

    /// Constant-folds a binary op with the simulator's exact semantics.
    /// Returns `None` when the exact result would exceed 64 bits.
    fn fold_bin(op: BinOp, a: Fixed, b: Fixed) -> Option<Fixed> {
        match op {
            BinOp::Add => {
                a.format().checked_add_format(&b.format())?;
                Some(a.exact_add(&b))
            }
            BinOp::Sub => {
                a.format().checked_sub_format(&b.format())?;
                Some(a.exact_sub(&b))
            }
            BinOp::Mul => {
                a.format().checked_mul_format(&b.format())?;
                Some(a.exact_mul(&b))
            }
            BinOp::Shl => Some(a.shl(b.to_i64().max(0) as u32)),
            BinOp::Shr => Some(a.shr(b.to_i64().max(0) as u32)),
            BinOp::And => Some(bool_fixed(!a.is_zero() && !b.is_zero())),
            BinOp::Or => Some(bool_fixed(!a.is_zero() || !b.is_zero())),
        }
    }

    /// The exact result format of `op` over the out formats of `preds`,
    /// when representable.
    fn exact_bin_format(&self, op: BinOp, a: NodeId, b: NodeId) -> Option<Format> {
        let fa = self.out.node(a).format;
        let fb = self.out.node(b).format;
        match op {
            BinOp::Add => fa.checked_add_format(&fb),
            BinOp::Sub => fa.checked_sub_format(&fb),
            BinOp::Mul => fa.checked_mul_format(&fb),
            _ => None,
        }
    }

    /// Emits the rewritten form of one source node whose predecessors
    /// are already mapped. Folding + identities run on every path; the
    /// returned cell always has format `fmt` (the source node's).
    fn simplify(&mut self, kind: NodeKind, fmt: Format, preds: Vec<NodeId>) -> NodeId {
        let c0 = preds.first().and_then(|p| self.cval(*p));
        let c1 = preds.get(1).and_then(|p| self.cval(*p));
        let c2 = preds.get(2).and_then(|p| self.cval(*p));
        match &kind {
            NodeKind::VarRead(v) => {
                if let Some(env) = self.env {
                    if let Some(&c) = env.get(&v.index()) {
                        if c.format() == fmt {
                            return self.emit(NodeKind::Const(c), Vec::new(), fmt);
                        }
                    }
                }
                self.emit(kind, preds, fmt)
            }
            NodeKind::Bin(op) => {
                let op = *op;
                if let (Some(a), Some(b)) = (c0, c1) {
                    if let Some(v) = Self::fold_bin(op, a, b) {
                        if v.format() == fmt {
                            return self.emit(NodeKind::Const(v), Vec::new(), fmt);
                        }
                    }
                }
                // Algebraic identities fire only on *exact* cells —
                // nodes whose format is precisely the lossless result
                // format of their operands (the builder's invariant),
                // which makes the replacement's alignment cast
                // provably value-preserving.
                let exact = self.exact_bin_format(op, preds[0], preds[1]) == Some(fmt);
                match op {
                    BinOp::Add if exact => {
                        if c0.is_some_and(|v| v.is_zero()) {
                            return self.cast_to(preds[1], fmt);
                        }
                        if c1.is_some_and(|v| v.is_zero()) {
                            return self.cast_to(preds[0], fmt);
                        }
                    }
                    BinOp::Sub if exact => {
                        if c1.is_some_and(|v| v.is_zero()) {
                            return self.cast_to(preds[0], fmt);
                        }
                        if preds[0] == preds[1] {
                            return self.emit(NodeKind::Const(Fixed::zero(fmt)), Vec::new(), fmt);
                        }
                    }
                    BinOp::Mul if exact => {
                        if c0.is_some_and(|v| v.is_zero()) || c1.is_some_and(|v| v.is_zero()) {
                            return self.emit(NodeKind::Const(Fixed::zero(fmt)), Vec::new(), fmt);
                        }
                        if c0.is_some_and(is_one) {
                            return self.cast_to(preds[1], fmt);
                        }
                        if c1.is_some_and(is_one) {
                            return self.cast_to(preds[0], fmt);
                        }
                    }
                    BinOp::And | BinOp::Or if fmt == bool_format() => {
                        let t0 = c0.map(|v| !v.is_zero());
                        let t1 = c1.map(|v| !v.is_zero());
                        let is_and = matches!(op, BinOp::And);
                        // x && false == false; x || true == true.
                        if t0 == Some(!is_and) || t1 == Some(!is_and) {
                            return self.emit(
                                NodeKind::Const(bool_fixed(!is_and)),
                                Vec::new(),
                                fmt,
                            );
                        }
                        // x && true == x; x || false == x (bool operands
                        // are already 0/1, so no re-normalization needed).
                        if t0 == Some(is_and) && self.out.node(preds[1]).format == fmt {
                            return preds[1];
                        }
                        if t1 == Some(is_and) && self.out.node(preds[0]).format == fmt {
                            return preds[0];
                        }
                        if preds[0] == preds[1] && self.out.node(preds[0]).format == fmt {
                            // x && x == x, x || x == x
                            return preds[0];
                        }
                    }
                    BinOp::Shl | BinOp::Shr => {
                        let shift_zero = c1.is_some_and(|v| v.to_i64().max(0) == 0);
                        if shift_zero && self.out.node(preds[0]).format == fmt {
                            return preds[0];
                        }
                    }
                    _ => {}
                }
                self.emit(kind, preds, fmt)
            }
            NodeKind::MulPow2 => {
                if let (Some(a), Some(b)) = (c0, c1) {
                    if let Some(v) = Self::fold_bin(BinOp::Mul, a, b) {
                        if v.format() == fmt {
                            return self.emit(NodeKind::Const(v), Vec::new(), fmt);
                        }
                    }
                }
                let exact = self.exact_bin_format(BinOp::Mul, preds[0], preds[1]) == Some(fmt);
                if exact {
                    if c0.is_some_and(|v| v.is_zero()) || c1.is_some_and(|v| v.is_zero()) {
                        return self.emit(NodeKind::Const(Fixed::zero(fmt)), Vec::new(), fmt);
                    }
                    if c0.is_some_and(is_one) {
                        return self.cast_to(preds[1], fmt);
                    }
                    if c1.is_some_and(is_one) {
                        return self.cast_to(preds[0], fmt);
                    }
                }
                self.emit(kind, preds, fmt)
            }
            NodeKind::Un(op) => {
                if let Some(a) = c0 {
                    let folded = match op {
                        UnOp::Neg => a.format().checked_neg_format().map(|_| a.negate()),
                        UnOp::Signum => {
                            Some(Fixed::from_int(a.signum() as i64, Format::signed(2, 2)))
                        }
                        UnOp::Not => Some(bool_fixed(a.is_zero())),
                    };
                    if let Some(v) = folded {
                        if v.format() == fmt {
                            return self.emit(NodeKind::Const(v), Vec::new(), fmt);
                        }
                    }
                }
                // !!x == x; -(-x) == x up to (lossless) widening.
                let inner = self.out.node(preds[0]);
                match (op, &inner.kind) {
                    (UnOp::Not, NodeKind::Un(UnOp::Not)) => {
                        let x = inner.preds[0];
                        if self.out.node(x).format == fmt {
                            return x;
                        }
                    }
                    (UnOp::Neg, NodeKind::Un(UnOp::Neg))
                        if inner.format.checked_neg_format() == Some(fmt) =>
                    {
                        let x = inner.preds[0];
                        return self.cast_to(x, fmt);
                    }
                    _ => {}
                }
                self.emit(kind, preds, fmt)
            }
            NodeKind::Cmp(op) => {
                if let (Some(a), Some(b)) = (c0, c1) {
                    let v = bool_fixed(op.eval(a.cmp(&b)));
                    if v.format() == fmt {
                        return self.emit(NodeKind::Const(v), Vec::new(), fmt);
                    }
                }
                if preds[0] == preds[1] && fmt == bool_format() {
                    let v = bool_fixed(op.eval(std::cmp::Ordering::Equal));
                    return self.emit(NodeKind::Const(v), Vec::new(), fmt);
                }
                self.emit(kind, preds, fmt)
            }
            NodeKind::Mux | NodeKind::EnableMux => {
                // The runtime semantics is `chosen_arm.cast(fmt)`, so
                // replacing a decided mux by `cast_to(arm, fmt)` is the
                // very same operation — no losslessness needed.
                if let Some(c) = c0 {
                    let arm = if !c.is_zero() { preds[1] } else { preds[2] };
                    return self.cast_to(arm, fmt);
                }
                if preds[1] == preds[2] {
                    return self.cast_to(preds[1], fmt);
                }
                if let (Some(t), Some(e)) = (c1, c2) {
                    if t.cast(fmt) == e.cast(fmt) {
                        return self.emit(NodeKind::Const(t.cast(fmt)), Vec::new(), fmt);
                    }
                }
                self.emit(kind, preds, fmt)
            }
            NodeKind::Cast(q, o) => {
                let mut x = preds[0];
                // Collapse cast-of-cast when the inner is lossless.
                loop {
                    let node = self.out.node(x);
                    match node.kind {
                        NodeKind::Cast(_, _)
                            if lossless_into(self.out.node(node.preds[0]).format, node.format) =>
                        {
                            x = node.preds[0];
                        }
                        _ => break,
                    }
                }
                if self.out.node(x).format == fmt {
                    return x;
                }
                if let Some(c) = self.cval(x) {
                    let v = c.cast_with(fmt, *q, *o);
                    return self.emit(NodeKind::Const(v), Vec::new(), fmt);
                }
                self.emit(kind, vec![x], fmt)
            }
            NodeKind::StoreCond(arr) => {
                if let Some(c) = c2 {
                    if c.is_zero() {
                        // Never fires: the "store" is its value operand
                        // (ordering successors hang off that instead).
                        return preds[1];
                    }
                    // Always fires: demote to an unconditional store.
                    let mut p = vec![preds[0], preds[1]];
                    p.extend_from_slice(&preds[3..]);
                    return self.emit(NodeKind::Store(*arr), p, fmt);
                }
                self.emit(kind, preds, fmt)
            }
            NodeKind::Const(_) | NodeKind::VarWrite(_) | NodeKind::Load(_) | NodeKind::Store(_) => {
                self.emit(kind, preds, fmt)
            }
        }
    }

    /// Maps the predecessors of a source node into the out graph.
    fn mapped_preds(&self, id: NodeId) -> Vec<NodeId> {
        self.src
            .node(id)
            .preds
            .iter()
            .map(|p| self.map[p.index()].expect("predecessors precede consumers"))
            .collect()
    }

    /// Emits a source subtree structurally (the rebalance bail-out
    /// path: absorbed cells may not be mapped yet).
    fn emit_structural(&mut self, id: NodeId) -> NodeId {
        if let Some(out) = self.map[id.index()] {
            return out;
        }
        let node = self.src.node(id);
        let preds = node
            .preds
            .iter()
            .map(|p| self.emit_structural(*p))
            .collect();
        let out = self.simplify(node.kind.clone(), node.format, preds);
        self.map[id.index()] = Some(out);
        out
    }

    // -- rebalancing --------------------------------------------------

    /// Precomputes which exact add/sub cells are absorbed into a parent
    /// chain and which are the chain roots.
    fn plan_rebalance(&mut self) {
        let n = self.src.len();
        let mut use_count = vec![0usize; n];
        let mut only_consumer = vec![None; n];
        for (i, node) in self.src.nodes().iter().enumerate() {
            for p in &node.preds {
                use_count[p.index()] += 1;
                only_consumer[p.index()] = Some(i);
            }
        }
        let src_exact = |i: usize| -> bool {
            let node = &self.src.nodes()[i];
            match node.kind {
                NodeKind::Bin(op @ (BinOp::Add | BinOp::Sub)) => {
                    let fa = self.src.node(node.preds[0]).format;
                    let fb = self.src.node(node.preds[1]).format;
                    let exact = match op {
                        BinOp::Add => fa.checked_add_format(&fb),
                        _ => fa.checked_sub_format(&fb),
                    };
                    exact == Some(node.format)
                }
                _ => false,
            }
        };
        for i in 0..n {
            if !src_exact(i) {
                continue;
            }
            let absorbed = use_count[i] == 1 && only_consumer[i].is_some_and(&src_exact);
            if absorbed {
                self.absorbed[i] = true;
            } else {
                self.tree_root[i] = true;
            }
        }
    }

    /// Leaves of the exact add/sub chain rooted at `id`, with signs.
    fn chain_leaves(&self, id: NodeId, pos: bool, is_root: bool, acc: &mut Vec<(NodeId, bool)>) {
        if !is_root && !self.absorbed[id.index()] {
            acc.push((id, pos));
            return;
        }
        let node = self.src.node(id);
        match node.kind {
            NodeKind::Bin(BinOp::Add) => {
                self.chain_leaves(node.preds[0], pos, false, acc);
                self.chain_leaves(node.preds[1], pos, false, acc);
            }
            NodeKind::Bin(BinOp::Sub) => {
                self.chain_leaves(node.preds[0], pos, false, acc);
                self.chain_leaves(node.preds[1], !pos, false, acc);
            }
            _ => acc.push((id, pos)),
        }
    }

    /// Rebuilds the chain rooted at `root` as an arrival-ordered tree.
    /// `None` means "couldn't (width overflow or trivial chain)" — the
    /// caller falls back to structural emission.
    fn rebalance_root(&mut self, root: NodeId) -> Option<NodeId> {
        let mut leaves = Vec::new();
        self.chain_leaves(root, true, true, &mut leaves);
        if leaves.len() < 3 {
            return None;
        }
        let root_fmt = self.src.node(root).format;
        // (out id, positive sign, arrival estimate)
        let mut terms: Vec<(NodeId, bool, f64)> = leaves
            .iter()
            .map(|&(leaf, pos)| {
                let out = self.map[leaf.index()].expect("leaves are emitted before the root");
                (out, pos, self.arr[out.index()])
            })
            .collect();
        while terms.len() > 1 {
            // Combine the two earliest-arriving terms (Huffman order).
            terms.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
            let (a, pa, _) = terms.remove(0);
            let (b, pb, _) = terms.remove(0);
            let (op, lhs, rhs, pos) = match (pa, pb) {
                (true, true) => (BinOp::Add, a, b, true),
                (true, false) => (BinOp::Sub, a, b, true),
                (false, true) => (BinOp::Sub, b, a, true),
                (false, false) => (BinOp::Add, a, b, false),
            };
            let fmt = self.exact_bin_format(op, lhs, rhs)?;
            let id = self.simplify(NodeKind::Bin(op), fmt, vec![lhs, rhs]);
            terms.push((id, pos, self.arr[id.index()]));
        }
        let (mut id, pos, _) = terms[0];
        if !pos {
            let fmt = self.out.node(id).format.checked_neg_format()?;
            id = self.simplify(NodeKind::Un(UnOp::Neg), fmt, vec![id]);
        }
        // The chain's own format contains the exact range of the
        // re-associated sum (each step's format was the lossless result
        // format), so this final alignment cast is value-preserving.
        Some(self.cast_to(id, root_fmt))
    }

    // -- the driver ---------------------------------------------------

    /// Rewrites the whole graph and returns the compacted result.
    fn run(mut self, rebalance: bool) -> Dfg {
        if rebalance {
            self.plan_rebalance();
        }
        let n = self.src.len();
        for i in 0..n {
            if self.absorbed[i] {
                continue; // emitted by (or with) its chain root
            }
            let id = NodeId(i as u32);
            let out = if self.tree_root[i] {
                match self.rebalance_root(id) {
                    Some(out) => out,
                    None => self.emit_structural(id),
                }
            } else {
                let node = self.src.node(id);
                let preds = self.mapped_preds(id);
                self.simplify(node.kind.clone(), node.format, preds)
            };
            debug_assert_eq!(
                self.out.node(out).format,
                self.src.node(id).format,
                "netlist rewrites preserve cell formats"
            );
            self.map[i] = Some(out);
        }
        self.out.live_out = self.src.live_out.clone();
        compact(self.out)
    }
}

/// Drops cells no effect (register/array write) depends on and
/// recomputes `live_in` from the surviving reads. A graph whose every
/// cell is live is kept as it is.
fn compact(mut dfg: Dfg) -> Dfg {
    let n = dfg.len();
    let mut live = vec![false; n];
    for (i, node) in dfg.nodes().iter().enumerate() {
        if matches!(
            node.kind,
            NodeKind::VarWrite(_) | NodeKind::Store(_) | NodeKind::StoreCond(_)
        ) {
            live[i] = true;
        }
    }
    for i in (0..n).rev() {
        if live[i] {
            for p in &dfg.nodes()[i].preds {
                live[p.index()] = true;
            }
        }
    }
    if live.iter().all(|&l| l) {
        let mut live_in: Vec<VarId> = Vec::new();
        for (_, node) in dfg.iter() {
            if let NodeKind::VarRead(v) = node.kind {
                if !live_in.contains(&v) {
                    live_in.push(v);
                }
            }
        }
        dfg.live_in = live_in;
        return dfg;
    }
    let mut out = Dfg::default();
    let mut map: Vec<Option<NodeId>> = vec![None; n];
    let mut live_in: Vec<VarId> = Vec::new();
    for (i, node) in dfg.nodes().iter().enumerate() {
        if !live[i] {
            continue;
        }
        if let NodeKind::VarRead(v) = node.kind {
            if !live_in.contains(&v) {
                live_in.push(v);
            }
        }
        let preds = node
            .preds
            .iter()
            .map(|p| map[p.index()].expect("live cells have live predecessors"))
            .collect();
        map[i] = Some(out.push(node.kind.clone(), preds, node.format));
    }
    out.live_in = live_in;
    out.live_out = dfg.live_out.clone();
    out
}

// ---------------------------------------------------------------------------
// Pass drivers
// ---------------------------------------------------------------------------

/// Variables whose `VarRead` feeds an `EnableMux` old-value operand.
/// Register substitution skips them so the builder's "old value is a
/// plain register read" shape (which downstream consumers may pattern
/// match into a write enable) survives rewriting.
fn enable_mux_guarded_vars(dfg: &Dfg) -> BTreeSet<usize> {
    let mut guarded = BTreeSet::new();
    for (_, node) in dfg.iter() {
        if let NodeKind::EnableMux = node.kind {
            if let NodeKind::VarRead(v) = dfg.node(node.preds[2]).kind {
                guarded.insert(v.index());
            }
        }
    }
    guarded
}

/// Variables written (as registers) anywhere in the graph.
fn written_vars(dfg: &Dfg) -> BTreeSet<usize> {
    dfg.iter()
        .filter_map(|(_, node)| match node.kind {
            NodeKind::VarWrite(v) => Some(v.index()),
            _ => None,
        })
        .collect()
}

/// Rewrites one graph under `mode`; `env` is the register-constant
/// environment for `reg-const-prop` (already restricted by the caller).
fn rewrite_dfg(
    dfg: &Dfg,
    mode: Mode,
    env: Option<&BTreeMap<usize, Fixed>>,
    lib: &TechLibrary,
) -> Dfg {
    let share = mode == Mode::Cse;
    let rw = Rewriter::new(dfg, lib, share, env);
    rw.run(mode == Mode::Rebalance)
}

/// Runs one pass over every segment; returns how many changed.
fn run_mode(lowered: &mut Lowered, mode: Mode, lib: &TechLibrary) -> usize {
    if mode == Mode::ConstProp {
        return const_prop(lowered, lib);
    }
    let mut changed = 0;
    for seg in &mut lowered.segments {
        let dfg = match seg {
            Segment::Straight { dfg } => dfg,
            Segment::Loop { dfg, .. } => dfg,
        };
        let new = rewrite_dfg(dfg, mode, None, lib);
        if new != *dfg {
            *dfg = new;
            changed += 1;
        }
    }
    changed
}

/// Cross-register constant propagation: threads a register-constant
/// environment through the segment sequence. The environment starts
/// empty (parameters, statics and locals hold unknown values at entry —
/// the FSM runs forever, so the previous call's final state is the next
/// call's entry state) and only ever holds values this call committed.
fn const_prop(lowered: &mut Lowered, lib: &TechLibrary) -> usize {
    let mut env: BTreeMap<usize, Fixed> = BTreeMap::new();
    let mut changed = 0;
    let func = &lowered.func;
    for seg in &mut lowered.segments {
        match seg {
            Segment::Straight { dfg } => {
                // One read per variable, evaluated against the segment
                // entry state: every committed constant substitutes.
                let mut sub = env.clone();
                for v in enable_mux_guarded_vars(dfg) {
                    sub.remove(&v);
                }
                let new = rewrite_dfg(dfg, Mode::ConstProp, Some(&sub), lib);
                for (_, node) in new.iter() {
                    if let NodeKind::VarWrite(v) = node.kind {
                        // The committed value is the write operand cast
                        // to the register's format (the sim semantics).
                        match new.node(node.preds[0]).kind {
                            NodeKind::Const(c) => {
                                env.insert(v.index(), c.cast(node.format));
                            }
                            _ => {
                                env.remove(&v.index());
                            }
                        }
                    }
                }
                if new != *dfg {
                    *dfg = new;
                    changed += 1;
                }
            }
            Segment::Loop {
                trip,
                counter,
                start,
                step,
                dfg,
                ..
            } => {
                // Iterations >= 2 read what the previous iteration
                // wrote, so anything the body writes (and the counter)
                // is off-limits for substitution.
                let written = written_vars(dfg);
                let mut sub = env.clone();
                for v in &written {
                    sub.remove(v);
                }
                for v in enable_mux_guarded_vars(dfg) {
                    sub.remove(&v);
                }
                sub.remove(&counter.index());
                let cfmt = func.var(*counter).ty.format().unwrap_or_else(bool_format);
                if *trip == 1 {
                    // A single iteration sees the counter at its start
                    // value (the loop-entry initialization).
                    sub.insert(counter.index(), Fixed::from_int(*start, cfmt));
                }
                let new = rewrite_dfg(dfg, Mode::ConstProp, Some(&sub), lib);
                for v in &written {
                    env.remove(v);
                }
                if *trip >= 1 && *trip <= 100_000 {
                    // The counter's exit value, stepped exactly the way
                    // the simulators step it (wrapping from_int).
                    let mut v = Fixed::from_int(*start, cfmt);
                    for _ in 0..*trip {
                        v = Fixed::from_int(v.to_i64() + *step, cfmt);
                    }
                    env.insert(counter.index(), v);
                } else {
                    env.remove(&counter.index());
                }
                if new != *dfg {
                    *dfg = new;
                    changed += 1;
                }
            }
        }
    }
    changed
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Optimizes a lowered design in place and returns per-pass
/// measurements. Takes no snapshots: callers that need the per-pass proof
/// obligations ask [`netlist_obligations`] for them.
pub fn optimize_lowered(
    lowered: &mut Lowered,
    cfg: &NetlistOptConfig,
    lib: &TechLibrary,
) -> NetlistReport {
    run_passes(lowered, cfg, lib, None)
}

/// The equivalence obligations of optimizing `raw`: the same passes
/// [`optimize_lowered`] runs, re-run on a copy, with one obligation per
/// pass that changed the design. The optimizer is deterministic, so the
/// obligations chain from `raw` to exactly the design
/// [`optimize_lowered`] produces from it.
pub fn netlist_obligations(
    raw: &Lowered,
    cfg: &NetlistOptConfig,
    lib: &TechLibrary,
) -> Vec<NetlistObligation> {
    let mut lowered = raw.clone();
    let mut obligations = Vec::new();
    run_passes(&mut lowered, cfg, lib, Some(&mut obligations));
    obligations
}

/// The pass loop behind [`optimize_lowered`] and [`netlist_obligations`]:
/// with a sink, each pass snapshots the design first and records the
/// before/after pair when it changed something.
fn run_passes(
    lowered: &mut Lowered,
    cfg: &NetlistOptConfig,
    lib: &TechLibrary,
    mut obligations: Option<&mut Vec<NetlistObligation>>,
) -> NetlistReport {
    let mut report = NetlistReport::default();
    if cfg.passes().is_empty() {
        return report;
    }
    // Each design state is measured once: a pass's "after" is the next
    // pass's "before", and a pass that changed nothing left it as it was.
    let mut stats = lowered_netlist_stats(lowered, lib);
    for &mode in cfg.passes() {
        let before = obligations.is_some().then(|| lowered.clone());
        let (cells_before, depth_before, crit_before) = stats;
        let changed_segments = run_mode(lowered, mode, lib);
        if changed_segments > 0 {
            stats = lowered_netlist_stats(lowered, lib);
        }
        let (cells_after, depth_after, crit_after) = stats;
        report.deltas.push(PassDelta {
            pass: mode.name(),
            changed_segments,
            cells_before,
            cells_after,
            depth_before,
            depth_after,
            critical_ns_before: crit_before,
            critical_ns_after: crit_after,
        });
        if let (Some(sink), Some(before), true) =
            (obligations.as_deref_mut(), before, changed_segments > 0)
        {
            sink.push(NetlistObligation {
                pass: mode.name(),
                before,
                after: lowered.clone(),
            });
        }
    }
    report
}

/// Deliberately breaks a design (swaps the operands of the first
/// subtraction it finds) and returns the corresponding *unsound*
/// obligation. Exists so tests can prove the equivalence gate actually
/// refutes bad rewrites instead of rubber-stamping them.
#[doc(hidden)]
pub fn apply_unsound_rewrite_for_selftest(lowered: &mut Lowered) -> Option<NetlistObligation> {
    let before = lowered.clone();
    for seg in &mut lowered.segments {
        let dfg = match seg {
            Segment::Straight { dfg } => dfg,
            Segment::Loop { dfg, .. } => dfg,
        };
        let target = dfg.iter().find_map(|(id, node)| match node.kind {
            NodeKind::Bin(BinOp::Sub) if node.preds[0] != node.preds[1] => Some(id),
            _ => None,
        });
        let Some(target) = target else { continue };
        // Rebuild the graph with that one cell's operands swapped
        // (sub_format is symmetric, so the graph stays well-formed —
        // only the *value* changes).
        let mut out = Dfg::default();
        for (id, node) in dfg.iter() {
            let mut preds = node.preds.clone();
            if id == target {
                preds.swap(0, 1);
            }
            out.push(node.kind.clone(), preds, node.format);
        }
        out.live_in = dfg.live_in.clone();
        out.live_out = dfg.live_out.clone();
        *dfg = out;
        return Some(NetlistObligation {
            pass: "selftest-unsound",
            before,
            after: lowered.clone(),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::Dfg;
    use hls_ir::{parse_function, Function};

    fn lib() -> TechLibrary {
        TechLibrary::asic_100mhz()
    }

    /// A function whose parameter formats the tests hand-build around:
    /// five sc_fixed<8,4> inputs and a wide output.
    fn chain_func() -> Function {
        parse_function(
            "void chain(sc_fixed<8,4> a, sc_fixed<8,4> b, sc_fixed<8,4> c, \
             sc_fixed<8,4> d, sc_fixed<8,4> e, sc_fixed<12,8> *y) { *y = a; }",
        )
        .expect("fixture parses")
    }

    fn fmt(w: u32, i: i32) -> Format {
        Format::signed(w, i)
    }

    fn wrap(func: &Function, dfg: Dfg) -> Lowered {
        Lowered {
            func: func.clone(),
            segments: vec![Segment::Straight { dfg }],
            ports: Vec::new(),
            handshake: false,
        }
    }

    fn count_kind(dfg: &Dfg, pred: impl Fn(&NodeKind) -> bool) -> usize {
        dfg.iter().filter(|(_, n)| pred(&n.kind)).count()
    }

    #[test]
    fn config_json_round_trips_and_defaults_on() {
        let cfg = NetlistOptConfig::default();
        assert_eq!(cfg.level, OptLevel::Full);
        for cfg in [
            NetlistOptConfig::off(),
            NetlistOptConfig::basic(),
            NetlistOptConfig::full(),
        ] {
            let back = NetlistOptConfig::from_json(&cfg.to_json()).unwrap();
            assert_eq!(cfg, back);
        }
        // Missing fields default; unknown levels are loud.
        assert_eq!(
            NetlistOptConfig::from_json(&Json::obj(vec![])).unwrap(),
            NetlistOptConfig::default()
        );
        assert!(
            NetlistOptConfig::from_json(&Json::obj(vec![("level", Json::str("turbo"))])).is_err()
        );
    }

    #[test]
    fn constant_cones_fold_to_constants() {
        let func = chain_func();
        let (a, y) = (func.params[0], func.params[5]);
        let f8 = fmt(8, 4);
        let mut dfg = Dfg::default();
        let c2 = dfg.push(NodeKind::Const(Fixed::from_int(2, f8)), vec![], f8);
        let c3 = dfg.push(NodeKind::Const(Fixed::from_int(3, f8)), vec![], f8);
        let sum = dfg.push(NodeKind::Bin(BinOp::Add), vec![c2, c3], fmt(9, 5));
        let ra = dfg.push(NodeKind::VarRead(a), vec![], f8);
        let prod = dfg.push(NodeKind::Bin(BinOp::Mul), vec![sum, ra], fmt(17, 9));
        let w = dfg.push(NodeKind::VarWrite(y), vec![prod], fmt(12, 8));
        let _ = w;
        dfg.live_in = vec![a];
        let mut lowered = wrap(&func, dfg);
        let raw = lowered.clone();
        let report = optimize_lowered(&mut lowered, &NetlistOptConfig::basic(), &lib());
        let dfg = lowered.segments[0].dfg();
        assert_eq!(
            count_kind(dfg, |k| matches!(k, NodeKind::Bin(BinOp::Add))),
            0,
            "2 + 3 folds away: {dfg:?}"
        );
        let five = dfg.iter().any(|(_, n)| match n.kind {
            NodeKind::Const(c) => c.to_i64() == 5,
            _ => false,
        });
        assert!(five, "the folded constant 5 feeds the multiply");
        assert!(
            !netlist_obligations(&raw, &NetlistOptConfig::basic(), &lib()).is_empty(),
            "folding emits an obligation"
        );
        assert_eq!(report.deltas.len(), 2, "basic = fold + cse");
    }

    #[test]
    fn identities_and_constant_muxes_simplify() {
        let func = chain_func();
        let (a, y) = (func.params[0], func.params[5]);
        let f8 = fmt(8, 4);
        let f9 = fmt(9, 5);
        let mut dfg = Dfg::default();
        let ra = dfg.push(NodeKind::VarRead(a), vec![], f8);
        let zero = dfg.push(NodeKind::Const(Fixed::zero(f8)), vec![], f8);
        // a + 0 -> a (as a widening cast)
        let add = dfg.push(NodeKind::Bin(BinOp::Add), vec![ra, zero], f9);
        // mux(true, add, a-a) -> add
        let t = dfg.push(NodeKind::Const(bool_fixed(true)), vec![], bool_format());
        let sub = dfg.push(NodeKind::Bin(BinOp::Sub), vec![ra, ra], f9);
        let mux = dfg.push(NodeKind::Mux, vec![t, add, sub], f9);
        dfg.push(NodeKind::VarWrite(y), vec![mux], fmt(12, 8));
        dfg.live_in = vec![a];
        let mut lowered = wrap(&func, dfg);
        optimize_lowered(&mut lowered, &NetlistOptConfig::basic(), &lib());
        let dfg = lowered.segments[0].dfg();
        assert_eq!(
            count_kind(dfg, |k| matches!(
                k,
                NodeKind::Bin(_) | NodeKind::Mux | NodeKind::EnableMux
            )),
            0,
            "adder, subtractor and mux all simplify away: {dfg:?}"
        );
    }

    #[test]
    fn cse_shares_identical_cells() {
        let func = chain_func();
        let (a, b, y) = (func.params[0], func.params[1], func.params[5]);
        let f8 = fmt(8, 4);
        let f9 = fmt(9, 5);
        let mut dfg = Dfg::default();
        let ra = dfg.push(NodeKind::VarRead(a), vec![], f8);
        let rb = dfg.push(NodeKind::VarRead(b), vec![], f8);
        let s1 = dfg.push(NodeKind::Bin(BinOp::Add), vec![ra, rb], f9);
        let s2 = dfg.push(NodeKind::Bin(BinOp::Add), vec![ra, rb], f9);
        let both = dfg.push(NodeKind::Bin(BinOp::Add), vec![s1, s2], fmt(10, 6));
        dfg.push(NodeKind::VarWrite(y), vec![both], fmt(12, 8));
        dfg.live_in = vec![a, b];
        let mut lowered = wrap(&func, dfg);
        let before = count_kind(lowered.segments[0].dfg(), |k| {
            matches!(k, NodeKind::Bin(BinOp::Add))
        });
        optimize_lowered(&mut lowered, &NetlistOptConfig::basic(), &lib());
        let after = count_kind(lowered.segments[0].dfg(), |k| {
            matches!(k, NodeKind::Bin(BinOp::Add))
        });
        assert_eq!(before, 3);
        assert_eq!(after, 2, "the duplicate adder is shared");
    }

    #[test]
    fn constants_propagate_across_registers() {
        let func = chain_func();
        let (a, b, y) = (func.params[0], func.params[1], func.params[5]);
        let f8 = fmt(8, 4);
        // Segment 1: b <- 3. Segment 2: y <- b + a.
        let mut s1 = Dfg::default();
        let c3 = s1.push(NodeKind::Const(Fixed::from_int(3, f8)), vec![], f8);
        s1.push(NodeKind::VarWrite(b), vec![c3], f8);
        let mut s2 = Dfg::default();
        let rb = s2.push(NodeKind::VarRead(b), vec![], f8);
        let ra = s2.push(NodeKind::VarRead(a), vec![], f8);
        let sum = s2.push(NodeKind::Bin(BinOp::Add), vec![rb, ra], fmt(9, 5));
        s2.push(NodeKind::VarWrite(y), vec![sum], fmt(12, 8));
        s2.live_in = vec![b, a];
        let mut lowered = Lowered {
            func: func.clone(),
            segments: vec![Segment::Straight { dfg: s1 }, Segment::Straight { dfg: s2 }],
            ports: Vec::new(),
            handshake: false,
        };
        optimize_lowered(&mut lowered, &NetlistOptConfig::full(), &lib());
        let s2 = lowered.segments[1].dfg();
        assert_eq!(
            count_kind(s2, |k| matches!(k, NodeKind::VarRead(_))),
            1,
            "only `a` is still read; `b` became the constant 3: {s2:?}"
        );
        assert!(
            !s2.live_in.contains(&b),
            "live_in drops the propagated register"
        );
    }

    #[test]
    fn rebalance_cuts_chain_depth_and_preserves_formats() {
        let func = chain_func();
        let ps = &func.params;
        let f8 = fmt(8, 4);
        let mut dfg = Dfg::default();
        let reads: Vec<NodeId> = (0..5)
            .map(|i| dfg.push(NodeKind::VarRead(ps[i]), vec![], f8))
            .collect();
        // ((((a+b)+c)+d)+e), every step in its exact format.
        let mut acc = reads[0];
        for &r in reads.iter().skip(1) {
            let fa = dfg.node(acc).format;
            let fmt_i = fa.checked_add_format(&f8).unwrap();
            acc = dfg.push(NodeKind::Bin(BinOp::Add), vec![acc, r], fmt_i);
        }
        dfg.push(NodeKind::VarWrite(ps[5]), vec![acc], fmt(12, 8));
        dfg.live_in = ps[..5].to_vec();
        let mut lowered = wrap(&func, dfg);
        let depth_before = logic_depth(lowered.segments[0].dfg());
        let report = optimize_lowered(&mut lowered, &NetlistOptConfig::full(), &lib());
        let dfg = lowered.segments[0].dfg();
        let depth_after = logic_depth(dfg);
        assert_eq!(depth_before, 4);
        assert!(
            depth_after < depth_before,
            "the serial chain becomes a tree: depth {depth_before} -> {depth_after}"
        );
        let rb = report
            .deltas
            .iter()
            .find(|d| d.pass == "rebalance")
            .unwrap();
        assert!(rb.changed_segments > 0);
        assert!(rb.critical_ns_after < rb.critical_ns_before);
        // Format preservation at the write boundary.
        let w = dfg
            .iter()
            .find(|(_, n)| matches!(n.kind, NodeKind::VarWrite(_)))
            .unwrap();
        assert_eq!(dfg.node(w.1.preds[0]).format, fmt(12, 8));
    }

    #[test]
    fn off_level_is_a_true_no_op() {
        let func = chain_func();
        let (a, y) = (func.params[0], func.params[5]);
        let f8 = fmt(8, 4);
        let mut dfg = Dfg::default();
        let c2 = dfg.push(NodeKind::Const(Fixed::from_int(2, f8)), vec![], f8);
        let c3 = dfg.push(NodeKind::Const(Fixed::from_int(3, f8)), vec![], f8);
        let sum = dfg.push(NodeKind::Bin(BinOp::Add), vec![c2, c3], fmt(9, 5));
        let ra = dfg.push(NodeKind::VarRead(a), vec![], f8);
        let prod = dfg.push(NodeKind::Bin(BinOp::Mul), vec![sum, ra], fmt(17, 9));
        dfg.push(NodeKind::VarWrite(y), vec![prod], fmt(12, 8));
        dfg.live_in = vec![a];
        let mut lowered = wrap(&func, dfg);
        let before = lowered.clone();
        let report = optimize_lowered(&mut lowered, &NetlistOptConfig::off(), &lib());
        assert_eq!(lowered, before, "Off leaves the design untouched");
        assert!(netlist_obligations(&before, &NetlistOptConfig::off(), &lib()).is_empty());
        assert!(report.deltas.is_empty());
    }

    #[test]
    fn unsound_selftest_rewrite_changes_the_design() {
        let func = chain_func();
        let (a, b, y) = (func.params[0], func.params[1], func.params[5]);
        let f8 = fmt(8, 4);
        let mut dfg = Dfg::default();
        let ra = dfg.push(NodeKind::VarRead(a), vec![], f8);
        let rb = dfg.push(NodeKind::VarRead(b), vec![], f8);
        let sub = dfg.push(NodeKind::Bin(BinOp::Sub), vec![ra, rb], fmt(9, 5));
        dfg.push(NodeKind::VarWrite(y), vec![sub], fmt(12, 8));
        dfg.live_in = vec![a, b];
        let mut lowered = wrap(&func, dfg);
        let ob = apply_unsound_rewrite_for_selftest(&mut lowered).expect("found a sub");
        assert_eq!(ob.pass, "selftest-unsound");
        assert_ne!(
            ob.before.segments[0].dfg(),
            lowered.segments[0].dfg(),
            "operands actually swapped"
        );
    }
}
