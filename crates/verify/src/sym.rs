//! Word-level symbolic expression DAGs over bit-accurate fixed point.
//!
//! Both the IR interpreter semantics and the FSMD per-state op streams are
//! executed into one shared [`SymTable`]: a hash-consed arena of
//! [`Fixed`]-valued operations. The table applies a small *normalizing
//! rewrite system* at construction time — constant folding, commutativity
//! canonicalization, shift algebra, lossless-cast elimination, cast-chain
//! collapse, and mux cast hoisting — so that two computations that are
//! equal for every input tend to intern to the *same* node id. Canonical
//! equality (`a == b` as [`SymId`]s) is therefore a proof of functional
//! equivalence; disequality is decided by the exhaustive bit-blast
//! fallback in [`crate::equiv`] when the input cone is narrow enough.
//!
//! Soundness invariant: every rewrite preserves the node's *value* for all
//! possible input valuations, and [`SymTable::eval`] reproduces exactly the
//! arithmetic the concrete executors perform (`exact_add`, `cast_with`,
//! …), so a bit-blast verdict speaks about the real machines, not an
//! abstraction. The one format-sensitive operation — shifting, which
//! wraps/truncates in the operand's *runtime* format — pins that format
//! into the node ([`Op::Shl`]/[`Op::Shr`]) at translation time, so value-
//! preserving rewrites on the operand can never change what a shift
//! computes.

use std::collections::{BTreeMap, HashMap};

use fixpt::{Fixed, Format, Overflow, Quantization, Signedness};
use hls_ir::CmpOp;

use crate::state::{ExecResult, Unsupported};

/// Identifier of one hash-consed node in a [`SymTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymId(u32);

impl SymId {
    /// The raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The operation a symbolic node performs.
///
/// Booleans are 1-bit unsigned values, exactly as the interpreter stores
/// them and the RTL wires them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// A free input: an arbitrary value of the given format.
    Input(u32, Format),
    /// A constant, keyed by `(raw, format)` — the format matters because
    /// downstream shifts and casts are format-sensitive.
    Const(i128, Format),
    /// Exact widening addition.
    Add(SymId, SymId),
    /// Exact widening subtraction.
    Sub(SymId, SymId),
    /// Exact widening multiplication.
    Mul(SymId, SymId),
    /// Exact negation.
    Neg(SymId),
    /// Three-valued sign, in `Format::signed(2, 2)`.
    Signum(SymId),
    /// Boolean negation.
    Not(SymId),
    /// Strict boolean AND (expressions are effect-free, so this has the
    /// same value as the interpreter's short-circuit form).
    And(SymId, SymId),
    /// Strict boolean OR.
    Or(SymId, SymId),
    /// Value comparison (format-independent, like `Fixed`'s `Ord`).
    Cmp(CmpOp, SymId, SymId),
    /// If-then-else on a boolean: yields the chosen arm *unchanged* (any
    /// bus alignment is an explicit [`Op::Cast`], mirroring the DFG).
    Ite(SymId, SymId, SymId),
    /// Fixed-point resize with explicit quantization/overflow modes.
    Cast(SymId, Format, Quantization, Overflow),
    /// Left shift by a constant, wrapping in the *pinned* format — the
    /// operand's runtime format in the concrete machine, captured at
    /// translation time. Pinning it here (instead of deriving it from the
    /// operand node) is what keeps the lossless-cast elimination sound:
    /// rewrites may change the operand's symbolic format, but never the
    /// format the machine shifts in.
    Shl(SymId, u32, Format),
    /// Right shift by a constant, truncating in the pinned format (same
    /// contract as [`Op::Shl`]).
    Shr(SymId, u32, Format),
}

impl Op {
    fn operands(&self) -> Vec<SymId> {
        match *self {
            Op::Input(..) | Op::Const(..) => vec![],
            Op::Neg(a) | Op::Signum(a) | Op::Not(a) => vec![a],
            Op::Cast(a, ..) | Op::Shl(a, ..) | Op::Shr(a, ..) => vec![a],
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::And(a, b)
            | Op::Or(a, b)
            | Op::Cmp(_, a, b) => vec![a, b],
            Op::Ite(c, t, e) => vec![c, t, e],
        }
    }
}

/// A sound enclosure of a node's possible values: every reachable value is
/// `m · 2⁻ᶠʳᵃᶜ` for some integer `lo ≤ m ≤ hi`.
///
/// This is the analysis behind the *fixed-point resize laws*: a cast whose
/// operand interval provably fits the destination format losslessly is the
/// identity *on values* — so it collapses out of cast chains, hoists out
/// of muxes, and is looked through at value-based consumers, which is what
/// lets the IR-side and FSMD-side DAGs (which insert alignment casts at
/// different places) converge to one canonical form. A lossless cast is
/// NOT erased outright: downstream shifts wrap in the operand's runtime
/// format, so the format change itself is observable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    lo: i128,
    hi: i128,
    frac: i32,
}

impl Interval {
    fn from_format(f: Format) -> Interval {
        Interval {
            lo: f.min_raw(),
            hi: f.max_raw(),
            frac: f.frac_bits(),
        }
    }

    fn point(raw: i128, frac: i32) -> Interval {
        Interval {
            lo: raw,
            hi: raw,
            frac,
        }
    }

    /// Rescales both intervals to a common `frac`; `None` on overflow.
    fn aligned(self, other: Interval) -> Option<(Interval, Interval)> {
        let frac = self.frac.max(other.frac);
        Some((self.rescale(frac)?, other.rescale(frac)?))
    }

    fn rescale(self, frac: i32) -> Option<Interval> {
        let shift = u32::try_from(frac - self.frac).ok()?;
        Some(Interval {
            lo: self
                .lo
                .checked_shl(shift)
                .filter(|v| v >> shift == self.lo)?,
            hi: self
                .hi
                .checked_shl(shift)
                .filter(|v| v >> shift == self.hi)?,
            frac,
        })
    }

    fn add(self, other: Interval) -> Option<Interval> {
        let (a, b) = self.aligned(other)?;
        Some(Interval {
            lo: a.lo.checked_add(b.lo)?,
            hi: a.hi.checked_add(b.hi)?,
            frac: a.frac,
        })
    }

    fn sub(self, other: Interval) -> Option<Interval> {
        other.neg().and_then(|n| self.add(n))
    }

    fn neg(self) -> Option<Interval> {
        Some(Interval {
            lo: self.hi.checked_neg()?,
            hi: self.lo.checked_neg()?,
            frac: self.frac,
        })
    }

    fn mul(self, other: Interval) -> Option<Interval> {
        let products = [
            self.lo.checked_mul(other.lo)?,
            self.lo.checked_mul(other.hi)?,
            self.hi.checked_mul(other.lo)?,
            self.hi.checked_mul(other.hi)?,
        ];
        Some(Interval {
            lo: *products.iter().min().expect("non-empty"),
            hi: *products.iter().max().expect("non-empty"),
            frac: self.frac.checked_add(other.frac)?,
        })
    }

    fn union(self, other: Interval) -> Option<Interval> {
        let (a, b) = self.aligned(other)?;
        Some(Interval {
            lo: a.lo.min(b.lo),
            hi: a.hi.max(b.hi),
            frac: a.frac,
        })
    }

    /// `true` if every value in the interval is exactly representable in
    /// `f` (so a cast into `f` is the identity for all reachable values).
    fn fits_losslessly(self, f: Format) -> bool {
        if self.frac > f.frac_bits() {
            return false;
        }
        match self.aligned(Interval::from_format(f)) {
            Some((v, r)) => v.lo >= r.lo && v.hi <= r.hi,
            None => false,
        }
    }

    /// `true` if every value lies in the *integer* range `[lo, hi]`.
    pub(crate) fn within_ints(self, lo: i128, hi: i128) -> bool {
        let r = Interval { lo, hi, frac: 0 };
        match self.aligned(r) {
            Some((v, r)) => v.lo >= r.lo && v.hi <= r.hi,
            None => false,
        }
    }

    /// `true` if all values are strictly positive / negative / zero.
    fn sign(self) -> Option<i32> {
        if self.lo > 0 {
            Some(1)
        } else if self.hi < 0 {
            Some(-1)
        } else if self.lo == 0 && self.hi == 0 {
            Some(0)
        } else {
            None
        }
    }
}

#[derive(Debug, Clone)]
struct NodeData {
    op: Op,
    /// The statically-known runtime format of the value, when it is the
    /// same on every path (an [`Op::Ite`] of differently-formatted arms
    /// has none).
    fmt: Option<Format>,
    /// Sound value enclosure, when representable.
    iv: Option<Interval>,
}

/// The 1-bit unsigned format used for booleans throughout the flow.
pub fn bool_format() -> Format {
    Format::integer(1, Signedness::Unsigned)
}

/// A hash-consed arena of symbolic nodes with normalizing construction.
#[derive(Debug, Default, Clone)]
pub struct SymTable {
    nodes: Vec<NodeData>,
    dedup: HashMap<Op, SymId>,
    next_input: u32,
}

impl SymTable {
    /// An empty table.
    pub fn new() -> SymTable {
        SymTable::default()
    }

    /// Number of interned nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if no nodes have been interned.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Creates a fresh free input of the given format and returns its id
    /// together with the input ordinal (used to name counterexamples).
    pub fn fresh_input(&mut self, format: Format) -> SymId {
        let n = self.next_input;
        self.next_input += 1;
        self.intern(Op::Input(n, format))
    }

    /// Interns a constant.
    pub fn constant(&mut self, value: Fixed) -> SymId {
        self.intern(Op::Const(value.raw(), value.format()))
    }

    /// Interns a boolean constant (1-bit unsigned, like the interpreter).
    pub fn constant_bool(&mut self, b: bool) -> SymId {
        self.constant(Fixed::from_int(b as i64, bool_format()))
    }

    /// The statically-known format of a node, if any.
    pub fn format_of(&self, id: SymId) -> Option<Format> {
        self.nodes[id.index()].fmt
    }

    /// The value enclosure of a node, if one could be computed.
    pub(crate) fn interval_of(&self, id: SymId) -> Option<Interval> {
        self.nodes[id.index()].iv
    }

    /// The `(ordinal, format)` of a node, if it is an [`Op::Input`].
    pub fn input_info(&self, id: SymId) -> Option<(u32, Format)> {
        match self.nodes[id.index()].op {
            Op::Input(n, f) => Some((n, f)),
            _ => None,
        }
    }

    /// The constant value of a node, if it is an [`Op::Const`].
    pub fn const_value(&self, id: SymId) -> Option<Fixed> {
        match self.nodes[id.index()].op {
            Op::Const(raw, f) => Some(Fixed::from_raw(raw, f).expect("interned raw in range")),
            _ => None,
        }
    }

    fn op_of(&self, id: SymId) -> &Op {
        &self.nodes[id.index()].op
    }

    /// Interns `op`, first applying the normalizing rewrites. The returned
    /// id denotes a node whose value equals `op`'s for every input.
    pub fn intern(&mut self, op: Op) -> SymId {
        match self.rewrite(op) {
            Ok(id) => id,
            Err(op) => self.intern_raw(op),
        }
    }

    /// [`intern`](Self::intern) for arithmetic translated from a design:
    /// an `Add`, `Sub`, `Mul` or `Neg` whose exact result format would
    /// exceed the 64-bit limit is refused instead of interned. No exact
    /// node can stand for such a value (its concrete evaluation would
    /// overflow the fixed-point arithmetic), so the execution gives up and
    /// the caller falls back to fuzzing — never to a verdict.
    pub fn intern_exact(&mut self, op: Op) -> ExecResult<SymId> {
        let arithmetic = matches!(op, Op::Add(..) | Op::Sub(..) | Op::Mul(..) | Op::Neg(_));
        let known = op.operands().iter().all(|&o| self.format_of(o).is_some());
        if arithmetic && known && self.fmt_of(&op).is_none() {
            return Err(Unsupported(format!(
                "exact arithmetic exceeds the {}-bit format limit",
                fixpt::MAX_WIDTH
            )));
        }
        Ok(self.intern(op))
    }

    /// Interns an op as-is, bypassing the rewrites — used on ops the
    /// rewriter just returned (already canonical) and by the chain
    /// canonicalizers when rebuilding a flattened sum (each spine node is
    /// canonical by construction, so re-rewriting would only recurse).
    fn intern_raw(&mut self, op: Op) -> SymId {
        if let Some(&id) = self.dedup.get(&op) {
            return id;
        }
        let fmt = self.fmt_of(&op);
        let iv = self.iv_of(&op, fmt);
        let id = SymId(u32::try_from(self.nodes.len()).expect("node count fits u32"));
        self.nodes.push(NodeData {
            op: op.clone(),
            fmt,
            iv,
        });
        self.dedup.insert(op, id);
        id
    }

    /// Leaves of the maximal `Add` chain rooted at `root`, left to right
    /// (iterative: unrolled accumulation chains can be deep).
    fn add_leaves(&self, root: SymId, out: &mut Vec<SymId>) {
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            match *self.op_of(id) {
                Op::Add(a, b) => {
                    stack.push(b);
                    stack.push(a);
                }
                _ => out.push(id),
            }
        }
    }

    /// Flattens an additive chain into the canonical form: constants
    /// folded into one leaf, `x + (−x)` pairs cancelled, the remaining
    /// leaves sorted by id and rebuilt as a left-deep spine. Two sums
    /// built in any association order (a rebalanced adder tree vs. the
    /// original chain, notably) intern to the same node this way.
    ///
    /// `Err(Op::Add(a, b))` means "intern as given": either the chain is
    /// already canonical, or a leaf's format is unknown / an intermediate
    /// exact format would exceed the 64-bit limit — rebuilding in a
    /// different order could then panic inside the exact arithmetic, so
    /// the rewrite conservatively bails (costing only canonicality, never
    /// soundness).
    fn canonicalize_add(&mut self, a: SymId, b: SymId) -> Result<SymId, Op> {
        let mut leaves = Vec::new();
        self.add_leaves(a, &mut leaves);
        self.add_leaves(b, &mut leaves);

        // Fold every constant leaf into one exact accumulator.
        let mut acc: Option<Fixed> = None;
        let mut counts: BTreeMap<SymId, usize> = BTreeMap::new();
        for &l in &leaves {
            match self.const_value(l) {
                Some(c) => {
                    acc = Some(match acc {
                        Some(p) => match p.format().checked_add_format(&c.format()) {
                            Some(_) => p.exact_add(&c),
                            None => return Err(Op::Add(a, b)),
                        },
                        None => c,
                    })
                }
                None => *counts.entry(l).or_insert(0) += 1,
            }
        }
        // Cancel `x` against `Neg(x)`: exact negation, so every such pair
        // contributes zero on all inputs.
        let ids: Vec<SymId> = counts.keys().copied().collect();
        for l in ids {
            if let Op::Neg(x) = *self.op_of(l) {
                let k = counts
                    .get(&l)
                    .copied()
                    .unwrap_or(0)
                    .min(counts.get(&x).copied().unwrap_or(0));
                if k > 0 {
                    *counts.get_mut(&l).expect("counted") -= k;
                    *counts.get_mut(&x).expect("counted") -= k;
                }
            }
        }
        let mut canon: Vec<SymId> = Vec::new();
        for (&l, &n) in &counts {
            canon.extend(std::iter::repeat_n(l, n));
        }
        // A zero constant vanishes; a non-zero one joins the sorted leaves.
        if let Some(c) = acc {
            if !c.is_zero() || canon.is_empty() {
                let cid = self.constant(c);
                let at = canon.partition_point(|&l| l < cid);
                canon.insert(at, cid);
            }
        }
        match canon.len() {
            0 => return Ok(self.constant(Fixed::from_int(0, bool_format()))),
            1 => return Ok(canon[0]),
            _ => {}
        }
        // Already canonical? (Sorted leaf sequence and left-deep shape:
        // `b` a leaf, `a` canonical-by-induction.) Intern as given.
        if canon == leaves && !matches!(self.op_of(b), Op::Add(..)) {
            return Err(Op::Add(a, b));
        }
        // Format guard: rebuilding in a different association order must
        // not push an exact intermediate format past the width limit.
        let mut fmt = match self.format_of(canon[0]) {
            Some(f) => f,
            None => return Err(Op::Add(a, b)),
        };
        for &l in &canon[1..] {
            let lf = match self.format_of(l) {
                Some(f) => f,
                None => return Err(Op::Add(a, b)),
            };
            fmt = match fmt.checked_add_format(&lf) {
                Some(f) => f,
                None => return Err(Op::Add(a, b)),
            };
        }
        let mut root = canon[0];
        for &l in &canon[1..] {
            root = self.intern_raw(Op::Add(root, l));
        }
        Ok(root)
    }

    /// One rewriting step: `Ok(id)` means the op reduced to an existing
    /// node, `Err(op)` returns the (possibly canonicalized) op to intern.
    fn rewrite(&mut self, op: Op) -> Result<SymId, Op> {
        // Constant folding: every operation on constants evaluates with
        // the exact fixpt arithmetic the concrete machines use.
        if !matches!(op, Op::Const(..) | Op::Input(..)) {
            let consts: Option<Vec<Fixed>> =
                op.operands().iter().map(|&o| self.const_value(o)).collect();
            if let Some(vals) = consts {
                let folded = eval_op(&op, &vals);
                return Ok(self.constant(folded));
            }
        }
        match op {
            // Additive chains canonicalize wholesale: flatten, fold
            // constants, cancel `x + (−x)`, sort, rebuild left-deep. This
            // subsumes plain commutativity and is what lets a rebalanced
            // adder tree meet the original serial chain.
            Op::Add(a, b) => self.canonicalize_add(a, b),
            // Subtraction moves into the additive domain (`a − b` is
            // exactly `a + (−b)` in the exact arithmetic) so differences
            // join the same canonical sums. The expansion is wider than
            // `sub_format` (negation costs a bit), so it only fires when
            // both the negation and the resulting sum stay representable.
            Op::Sub(a, b) => {
                let widened = self
                    .format_of(a)
                    .zip(self.format_of(b).and_then(|f| f.checked_neg_format()));
                match widened.and_then(|(fa, nf)| fa.checked_add_format(&nf)) {
                    Some(_) => {
                        let nb = self.intern(Op::Neg(b));
                        Ok(self.intern(Op::Add(a, nb)))
                    }
                    None => Err(Op::Sub(a, b)),
                }
            }
            Op::Neg(a) => match *self.op_of(a) {
                // Exact negation is an involution on values.
                Op::Neg(x) => Ok(x),
                // −(x + y) = (−x) + (−y): pushing negation to the leaves
                // lets subtract chains built in any shape flatten into
                // one canonical sum. Guarded per leaf by the negation
                // format staying representable.
                Op::Add(..) => {
                    let mut leaves = Vec::new();
                    self.add_leaves(a, &mut leaves);
                    // Guard every negated leaf and the whole rebuilt sum:
                    // the distributed chain is a bit wider per leaf, and
                    // no intermediate may pass the width limit.
                    let mut negf = Vec::with_capacity(leaves.len());
                    for &l in &leaves {
                        match self.format_of(l).and_then(|f| f.checked_neg_format()) {
                            Some(f) => negf.push(f),
                            None => return Err(Op::Neg(a)),
                        }
                    }
                    let mut acc = negf[0];
                    for &f in &negf[1..] {
                        acc = match acc.checked_add_format(&f) {
                            Some(f) => f,
                            None => return Err(Op::Neg(a)),
                        };
                    }
                    let mut negs = Vec::with_capacity(leaves.len());
                    for &l in &leaves {
                        negs.push(self.intern(Op::Neg(l)));
                    }
                    let mut root = negs[0];
                    for &n in &negs[1..] {
                        root = self.intern(Op::Add(root, n));
                    }
                    Ok(root)
                }
                _ => Err(Op::Neg(a)),
            },
            Op::Mul(a, b) => {
                // ×0 and ×1 are value-exact in the exact arithmetic, and
                // every consumer in this DAG is value-based, so the
                // product format's extra bits carry no information.
                let one = Fixed::from_int(1, Format::signed(2, 2));
                match (self.const_value(a), self.const_value(b)) {
                    (Some(c), _) if c.is_zero() || c == one => Ok(if c.is_zero() { a } else { b }),
                    (_, Some(c)) if c.is_zero() || c == one => Ok(if c.is_zero() { b } else { a }),
                    // Commutativity canonicalization: order operands by id.
                    _ if a > b => Err(Op::Mul(b, a)),
                    _ => Err(Op::Mul(a, b)),
                }
            }
            Op::And(a, b) if a > b => Err(Op::And(b, a)),
            Op::Or(a, b) if a > b => Err(Op::Or(b, a)),
            Op::Cmp(c, a, b) if a > b => Err(Op::Cmp(mirror(c), b, a)),
            Op::And(a, b) | Op::Or(a, b) if a == b => Ok(a),
            Op::And(a, b) => match (self.const_value(a), self.const_value(b)) {
                (Some(c), _) => Ok(if c.is_zero() {
                    self.constant_bool(false)
                } else {
                    b
                }),
                (_, Some(c)) => Ok(if c.is_zero() {
                    self.constant_bool(false)
                } else {
                    a
                }),
                _ => Err(Op::And(a, b)),
            },
            Op::Or(a, b) => match (self.const_value(a), self.const_value(b)) {
                (Some(c), _) => Ok(if c.is_zero() {
                    b
                } else {
                    self.constant_bool(true)
                }),
                (_, Some(c)) => Ok(if c.is_zero() {
                    a
                } else {
                    self.constant_bool(true)
                }),
                _ => Err(Op::Or(a, b)),
            },
            Op::Not(a) => match self.op_of(a) {
                Op::Not(inner) => Ok(*inner),
                _ => Err(Op::Not(a)),
            },
            // A comparison of a node with itself is decided by reflexivity.
            Op::Cmp(c, a, b) if a == b => {
                let v = c.eval(std::cmp::Ordering::Equal);
                Ok(self.constant_bool(v))
            }
            Op::Ite(c, t, e) => {
                if t == e {
                    return Ok(t);
                }
                if let Some(cv) = self.const_value(c) {
                    return Ok(if !cv.is_zero() { t } else { e });
                }
                if let Op::Not(inner) = self.op_of(c) {
                    let inner = *inner;
                    return Ok(self.intern(Op::Ite(inner, e, t)));
                }
                // Cast hoisting: a mux whose arms are the same resize of
                // two values is the resize of the mux of the values. This
                // is how the FSMD side's bus-alignment casts (inserted on
                // each mux arm) meet the IR side's bare select.
                if let (&Op::Cast(x, f1, q1, o1), &Op::Cast(y, f2, q2, o2)) =
                    (self.op_of(t), self.op_of(e))
                {
                    if (f1, q1, o1) == (f2, q2, o2) {
                        let inner = self.intern(Op::Ite(c, x, y));
                        return Ok(self.intern(Op::Cast(inner, f1, q1, o1)));
                    }
                }
                Err(Op::Ite(c, t, e))
            }
            // Fixed-point resize laws. A cast whose operand provably fits
            // the target format is value-invisible, and every consumer in
            // this DAG is value-based (shifts pin the machine format they
            // operate in rather than reading the operand node's format),
            // so it vanishes. This is the workhorse that lets the IR
            // side's exact intermediate formats meet the FSMD side's
            // bus-aligned ones. When the operand's own interval is
            // unknown, a known-lossless *inner* cast still collapses out
            // of a cast chain.
            Op::Cast(a, f, q, o) => {
                if self.format_of(a) == Some(f) {
                    return Ok(a);
                }
                if self.interval_of(a).is_some_and(|iv| iv.fits_losslessly(f)) {
                    return Ok(a);
                }
                if let Op::Cast(x, f1, _, _) = *self.op_of(a) {
                    let inner_lossless =
                        self.interval_of(x).is_some_and(|iv| iv.fits_losslessly(f1));
                    if inner_lossless {
                        return Ok(self.intern(Op::Cast(x, f, q, o)));
                    }
                }
                Err(Op::Cast(a, f, q, o))
            }
            // Shift algebra: zero shifts vanish (the operand's machine
            // value is representable in the pinned format by construction,
            // so the implicit re-format is identity); same-direction
            // shifts in the same pinned format compose raw-wise on the
            // same register width, so wrapping and truncation compose.
            Op::Shl(a, 0, _) | Op::Shr(a, 0, _) => Ok(a),
            Op::Shl(a, n, fm) => match *self.op_of(a) {
                Op::Shl(inner, m, f2) if f2 == fm => Err(Op::Shl(inner, n + m, fm)),
                _ => Err(Op::Shl(a, n, fm)),
            },
            Op::Shr(a, n, fm) => match *self.op_of(a) {
                Op::Shr(inner, m, f2) if f2 == fm => Err(Op::Shr(inner, n + m, fm)),
                _ => Err(Op::Shr(a, n, fm)),
            },
            other => Err(other),
        }
    }

    fn fmt_of(&self, op: &Op) -> Option<Format> {
        let f = |id: SymId| self.format_of(id);
        match *op {
            Op::Input(_, fm) | Op::Const(_, fm) => Some(fm),
            Op::Add(a, b) => f(a)?.checked_add_format(&f(b)?),
            Op::Sub(a, b) => f(a)?.checked_sub_format(&f(b)?),
            Op::Mul(a, b) => f(a)?.checked_mul_format(&f(b)?),
            Op::Neg(a) => f(a)?.checked_neg_format(),
            Op::Signum(_) => Some(Format::signed(2, 2)),
            Op::Not(_) | Op::And(..) | Op::Or(..) | Op::Cmp(..) => Some(bool_format()),
            Op::Ite(_, t, e) => match (f(t), f(e)) {
                (Some(a), Some(b)) if a == b => Some(a),
                _ => None,
            },
            Op::Cast(_, fm, _, _) => Some(fm),
            Op::Shl(_, _, fm) | Op::Shr(_, _, fm) => Some(fm),
        }
    }

    fn iv_of(&self, op: &Op, fmt: Option<Format>) -> Option<Interval> {
        let iv = |id: SymId| self.interval_of(id);
        let fallback = fmt.map(Interval::from_format);
        let refined = match *op {
            Op::Const(raw, f) => Some(Interval::point(raw, f.frac_bits())),
            Op::Add(a, b) => iv(a)?.add(iv(b)?),
            Op::Sub(a, b) => iv(a)?.sub(iv(b)?),
            Op::Mul(a, b) => iv(a)?.mul(iv(b)?),
            Op::Neg(a) => iv(a)?.neg(),
            Op::Signum(a) => {
                let s = iv(a).and_then(Interval::sign);
                Some(match s {
                    Some(s) => Interval::point(s as i128, 0),
                    None => Interval {
                        lo: -1,
                        hi: 1,
                        frac: 0,
                    },
                })
            }
            Op::Not(_) | Op::And(..) | Op::Or(..) | Op::Cmp(..) => Some(Interval {
                lo: 0,
                hi: 1,
                frac: 0,
            }),
            Op::Ite(_, t, e) => iv(t)?.union(iv(e)?),
            Op::Cast(a, f, _, _) => match iv(a) {
                Some(src) if src.fits_losslessly(f) => Some(src),
                _ => Some(Interval::from_format(f)),
            },
            _ => None,
        };
        refined.or(fallback)
    }

    /// Collects the distinct free inputs (`(ordinal, format, id)`) that
    /// `roots` depend on, in ordinal order.
    pub fn support(&self, roots: &[SymId]) -> Vec<(u32, Format, SymId)> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<SymId> = roots.to_vec();
        let mut inputs = Vec::new();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id.index()], true) {
                continue;
            }
            if let Op::Input(n, f) = self.nodes[id.index()].op {
                inputs.push((n, f, id));
            }
            stack.extend(self.nodes[id.index()].op.operands());
        }
        inputs.sort_by_key(|&(n, _, _)| n);
        inputs
    }

    /// Evaluates `roots` concretely under the given input valuation
    /// (`ordinal → value`). Every node is evaluated exactly once, in the
    /// all-arms style of the hardware (mux arms and dead guards included),
    /// which matches both the RTL simulator and the interpreter's
    /// evaluate-both-arms `Select`.
    pub fn eval(&self, roots: &[SymId], inputs: &HashMap<u32, Fixed>) -> Vec<Fixed> {
        Evaluator::new().eval(self, roots, inputs)
    }
}

/// A reusable concrete evaluator: keeps its memo buffers alive across
/// valuations (generation-stamped) so exhaustive bit-blast enumeration
/// does not allocate per input point.
#[derive(Debug, Default)]
pub struct Evaluator {
    vals: Vec<Fixed>,
    stamp: Vec<u32>,
    cur: u32,
    stack: Vec<(SymId, bool)>,
}

impl Evaluator {
    /// A fresh evaluator.
    pub fn new() -> Evaluator {
        Evaluator::default()
    }

    /// Evaluates `roots` concretely under `inputs` (`ordinal → value`).
    /// See [`SymTable::eval`] for the all-arms semantics.
    pub fn eval(
        &mut self,
        t: &SymTable,
        roots: &[SymId],
        inputs: &HashMap<u32, Fixed>,
    ) -> Vec<Fixed> {
        if self.vals.len() < t.nodes.len() {
            let zero = Fixed::from_int(0, bool_format());
            self.vals.resize(t.nodes.len(), zero);
            self.stamp.resize(t.nodes.len(), 0);
        }
        self.cur += 1;
        for &root in roots {
            self.eval_into(t, root, inputs);
        }
        roots.iter().map(|r| self.vals[r.index()]).collect()
    }

    fn eval_into(&mut self, t: &SymTable, root: SymId, inputs: &HashMap<u32, Fixed>) {
        // Iterative post-order so deep unrolled datapaths cannot overflow
        // the call stack.
        self.stack.clear();
        self.stack.push((root, false));
        while let Some((id, expanded)) = self.stack.pop() {
            if self.stamp[id.index()] == self.cur {
                continue;
            }
            let node = &t.nodes[id.index()];
            if !expanded {
                self.stack.push((id, true));
                for o in node.op.operands() {
                    if self.stamp[o.index()] != self.cur {
                        self.stack.push((o, false));
                    }
                }
                continue;
            }
            let vals: Vec<Fixed> = node
                .op
                .operands()
                .iter()
                .map(|o| self.vals[o.index()])
                .collect();
            let v = match node.op {
                Op::Input(n, f) => {
                    let v = *inputs.get(&n).expect("valuation covers support");
                    debug_assert_eq!(v.format(), f, "input valuation format");
                    v
                }
                _ => eval_op(&node.op, &vals),
            };
            self.vals[id.index()] = v;
            self.stamp[id.index()] = self.cur;
        }
    }
}

/// Mirror of a comparison under operand swap.
fn mirror(c: CmpOp) -> CmpOp {
    match c {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Ge => CmpOp::Le,
    }
}

/// Concrete evaluation of one op on operand values — the single source of
/// truth shared by constant folding and [`SymTable::eval`], mirroring the
/// interpreter and the RTL simulator op-for-op.
fn eval_op(op: &Op, vals: &[Fixed]) -> Fixed {
    let b = |f: &Fixed| !f.is_zero();
    let mk_bool = |v: bool| Fixed::from_int(v as i64, bool_format());
    match *op {
        Op::Input(..) => unreachable!("inputs are valued by the caller"),
        Op::Const(raw, f) => Fixed::from_raw(raw, f).expect("interned raw in range"),
        Op::Add(..) => vals[0].exact_add(&vals[1]),
        Op::Sub(..) => vals[0].exact_sub(&vals[1]),
        Op::Mul(..) => vals[0].exact_mul(&vals[1]),
        Op::Neg(_) => vals[0].negate(),
        Op::Signum(_) => Fixed::from_int(vals[0].signum() as i64, Format::signed(2, 2)),
        Op::Not(_) => mk_bool(!b(&vals[0])),
        Op::And(..) => mk_bool(b(&vals[0]) && b(&vals[1])),
        Op::Or(..) => mk_bool(b(&vals[0]) || b(&vals[1])),
        Op::Cmp(c, ..) => mk_bool(c.eval(vals[0].cmp(&vals[1]))),
        Op::Ite(..) => {
            if b(&vals[0]) {
                vals[1]
            } else {
                vals[2]
            }
        }
        Op::Cast(_, f, q, o) => vals[0].cast_with(f, q, o),
        // The operand's machine value is representable in the pinned
        // format (it *is* the operand's machine format at translation
        // time), so the cast is a lossless re-format and the shift
        // wraps/truncates exactly as the concrete machines do.
        Op::Shl(_, n, fm) => vals[0].cast(fm).shl(n),
        Op::Shr(_, n, fm) => vals[0].cast(fm).shr(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fx(v: i64, w: u32, i: i32) -> Fixed {
        Fixed::from_int(v, Format::signed(w, i))
    }

    #[test]
    fn hash_consing_dedups_structurally() {
        let mut t = SymTable::new();
        let a = t.fresh_input(Format::signed(8, 4));
        let b = t.fresh_input(Format::signed(8, 4));
        let s1 = t.intern(Op::Add(a, b));
        let s2 = t.intern(Op::Add(b, a)); // commuted
        assert_eq!(s1, s2);
    }

    #[test]
    fn rebalanced_adder_trees_are_canonical() {
        // The netlist rebalance pass re-associates serial accumulation
        // chains into balanced trees; both shapes must intern to one node.
        let mut t = SymTable::new();
        let f = Format::signed(8, 4);
        let vars: Vec<SymId> = (0..4).map(|_| t.fresh_input(f)).collect();
        let (a, b, c, d) = (vars[0], vars[1], vars[2], vars[3]);
        let ab = t.intern(Op::Add(a, b));
        let abc = t.intern(Op::Add(ab, c));
        let serial = t.intern(Op::Add(abc, d));
        let cd = t.intern(Op::Add(c, d));
        let tree = t.intern(Op::Add(ab, cd));
        assert_eq!(serial, tree, "association order must not matter");
        // Constants scattered through the chain fold into one leaf.
        let k1 = t.constant(fx(3, 8, 8));
        let k2 = t.constant(fx(4, 8, 8));
        let l = t.intern(Op::Add(ab, k1));
        let l = t.intern(Op::Add(l, k2));
        let k7 = t.constant(fx(7, 9, 9));
        let folded = t.intern(Op::Add(ab, k7));
        assert_eq!(l, folded, "chain constants fold into one leaf");
    }

    #[test]
    fn subtraction_joins_the_additive_domain() {
        // a − b interned directly equals a + (−b), and (a + b) − b
        // cancels back to a — the algebra the delay-rebalance pass leans
        // on when it re-associates mixed add/sub chains.
        let mut t = SymTable::new();
        let f = Format::signed(8, 4);
        let a = t.fresh_input(f);
        let b = t.fresh_input(f);
        let sub = t.intern(Op::Sub(a, b));
        let nb = t.intern(Op::Neg(b));
        let add = t.intern(Op::Add(a, nb));
        assert_eq!(sub, add, "a − b canonicalizes to a + (−b)");
        let ab = t.intern(Op::Add(a, b));
        let back = t.intern(Op::Sub(ab, b));
        assert_eq!(back, a, "(a + b) − b cancels to a");
        // Negation is an involution and distributes over sums.
        let nn = t.intern(Op::Neg(nb));
        assert_eq!(nn, b);
        let neg_sum = t.intern(Op::Neg(ab));
        let na = t.intern(Op::Neg(a));
        let dist = t.intern(Op::Add(na, nb));
        assert_eq!(neg_sum, dist, "−(a + b) = (−a) + (−b)");
    }

    #[test]
    fn multiplicative_identities_vanish() {
        let mut t = SymTable::new();
        let x = t.fresh_input(Format::signed(8, 4));
        let one = t.constant(fx(1, 8, 8));
        let zero = t.constant(fx(0, 8, 8));
        assert_eq!(t.intern(Op::Mul(x, one)), x, "x × 1 = x");
        assert_eq!(t.intern(Op::Mul(one, x)), x, "1 × x = x");
        let z = t.intern(Op::Mul(x, zero));
        assert_eq!(t.const_value(z).map(|c| c.to_i64()), Some(0), "x × 0 = 0");
    }

    #[test]
    fn wide_chains_bail_rather_than_overflow_the_exact_format() {
        // Leaves near the 64-bit width limit: re-associating could push
        // an exact intermediate past it, so canonicalization declines and
        // the nodes intern as built (sound, merely less canonical).
        let mut t = SymTable::new();
        let f = Format::signed(63, 32);
        let a = t.fresh_input(f);
        let b = t.fresh_input(f);
        let s = t.intern(Op::Sub(a, b));
        assert!(
            matches!(t.op_of(s), Op::Sub(..)),
            "negation would need 64+1 bits, so Sub stays opaque"
        );
    }

    #[test]
    fn constants_fold() {
        let mut t = SymTable::new();
        let a = t.constant(fx(3, 8, 8));
        let b = t.constant(fx(4, 8, 8));
        let s = t.intern(Op::Add(a, b));
        assert_eq!(t.const_value(s).unwrap().to_i64(), 7);
    }

    #[test]
    fn lossless_cast_is_eliminated() {
        // A cast whose operand provably fits the target format preserves
        // the value, and (shifts being format-pinned) no consumer can
        // observe the format change: the node vanishes entirely.
        let mut t = SymTable::new();
        let a = t.fresh_input(Format::signed(8, 4));
        let c = t.intern(Op::Cast(
            a,
            Format::signed(16, 8),
            Quantization::Trn,
            Overflow::Wrap,
        ));
        assert_eq!(c, a);
    }

    #[test]
    fn lossless_inner_casts_collapse_out_of_chains() {
        // Align-then-clip equals a direct clip when the alignment step is
        // lossless — even though the clip itself is not.
        let mut t = SymTable::new();
        let a = t.fresh_input(Format::signed(8, 4));
        let wide = t.intern(Op::Cast(
            a,
            Format::signed(16, 8),
            Quantization::Trn,
            Overflow::Wrap,
        ));
        let clip = Format::signed(5, 2);
        let out = t.intern(Op::Cast(wide, clip, Quantization::Trn, Overflow::Wrap));
        let direct = t.intern(Op::Cast(a, clip, Quantization::Trn, Overflow::Wrap));
        assert_eq!(out, direct, "align-then-clip equals direct clip");
    }

    #[test]
    fn mux_arm_casts_hoist() {
        // Lossy (clipping) casts cannot vanish, but identical casts on
        // both mux arms hoist over the mux — matching the IR side's
        // bare select followed by one resize.
        let mut t = SymTable::new();
        let c = t.fresh_input(bool_format());
        let x = t.fresh_input(Format::signed(8, 4));
        let y = t.fresh_input(Format::signed(8, 4));
        let clip = Format::signed(5, 2);
        let cx = t.intern(Op::Cast(x, clip, Quantization::Trn, Overflow::Wrap));
        let cy = t.intern(Op::Cast(y, clip, Quantization::Trn, Overflow::Wrap));
        let aligned_mux = t.intern(Op::Ite(c, cx, cy));
        let bare_mux = t.intern(Op::Ite(c, x, y));
        let cast_of_mux = t.intern(Op::Cast(bare_mux, clip, Quantization::Trn, Overflow::Wrap));
        assert_eq!(aligned_mux, cast_of_mux, "arm casts hoist over the mux");
    }

    #[test]
    fn shl_wraps_in_its_pinned_format_despite_cast_elimination() {
        // Regression: a Shl after a value-lossless widening cast must wrap
        // in the *widened* format even though the cast node itself is
        // rewritten away (3 << 2 wraps to -4 in signed(4), but is 12 in
        // signed(9)). The pinned format on the shift carries that
        // information independently of the operand node.
        let mut t = SymTable::new();
        let f4 = Format::signed(4, 4);
        let f9 = Format::signed(9, 9);
        let x = t.fresh_input(f4);
        let c = t.intern(Op::Cast(x, f9, Quantization::Trn, Overflow::Wrap));
        assert_eq!(c, x, "the widening cast is eliminated");
        let s = t.intern(Op::Shl(c, 2, f9));
        let mut env = HashMap::new();
        let v = Fixed::from_raw(3, f4).unwrap();
        env.insert(0u32, v);
        let got = t.eval(&[s], &env)[0];
        let concrete = v.cast_with(f9, Quantization::Trn, Overflow::Wrap).shl(2);
        assert_eq!(got.raw(), concrete.raw());
        assert_eq!(got.to_i64(), 12);
        // The same shift pinned to the narrow format wraps: a distinct node.
        let narrow = t.intern(Op::Shl(x, 2, f4));
        assert_ne!(narrow, s);
        let wrapped = t.eval(&[narrow], &env)[0];
        assert_eq!(wrapped.to_i64(), v.shl(2).to_i64());
    }

    #[test]
    fn interval_tracks_additions() {
        let mut t = SymTable::new();
        let a = t.fresh_input(Format::signed(4, 4)); // [-8, 7]
        let b = t.fresh_input(Format::signed(4, 4));
        let s = t.intern(Op::Add(a, b));
        let iv = t.interval_of(s).unwrap();
        assert_eq!((iv.lo, iv.hi, iv.frac), (-16, 14, 0));
    }

    #[test]
    fn eval_matches_fixed_arithmetic() {
        let mut t = SymTable::new();
        let f = Format::signed(8, 4);
        let a = t.fresh_input(f);
        let b = t.fresh_input(f);
        let sum = t.intern(Op::Add(a, b));
        let prod = t.intern(Op::Mul(a, sum));
        let mut env = HashMap::new();
        let va = Fixed::from_raw(5, f).unwrap();
        let vb = Fixed::from_raw(-3, f).unwrap();
        env.insert(0, va);
        env.insert(1, vb);
        let got = t.eval(&[prod], &env);
        assert_eq!(got[0], va.exact_mul(&va.exact_add(&vb)));
    }

    #[test]
    fn shift_algebra_composes() {
        let mut t = SymTable::new();
        let f = Format::signed(12, 6);
        let a = t.fresh_input(f);
        let s1 = t.intern(Op::Shr(a, 2, f));
        let s2 = t.intern(Op::Shr(s1, 3, f));
        assert_eq!(s2, t.intern(Op::Shr(a, 5, f)));
        assert_eq!(t.intern(Op::Shl(a, 0, f)), a);
        // Shifts in *different* pinned formats must not compose.
        let g = Format::signed(20, 10);
        let o1 = t.intern(Op::Shr(a, 2, g));
        let o2 = t.intern(Op::Shr(o1, 3, f));
        assert_ne!(o2, t.intern(Op::Shr(a, 5, f)));
        assert_ne!(o2, t.intern(Op::Shr(a, 5, g)));
    }

    #[test]
    fn ite_normalizes_negated_condition() {
        let mut t = SymTable::new();
        let f = Format::signed(8, 4);
        let x = t.fresh_input(f);
        let y = t.fresh_input(f);
        let zero = t.constant(Fixed::from_int(0, f));
        let c = t.intern(Op::Cmp(CmpOp::Lt, x, zero));
        let nc = t.intern(Op::Not(c));
        let a = t.intern(Op::Ite(c, x, y));
        let b = t.intern(Op::Ite(nc, y, x));
        assert_eq!(a, b);
    }
}
