//! Compiled simulation: the cycle-accurate simulator every library path
//! runs.
//!
//! [`SimProgram::compile`] lowers an [`Fsmd`] *once* into a dense program:
//!
//! - every scalar register lives in one flat `Vec<Fixed>` register file and
//!   every array in one flat backing store, both indexed through a
//!   precomputed `VarId → usize` table;
//! - every FSM state becomes a linear slice of pre-resolved [`Op`]s whose
//!   operand/result indices point into a per-segment scratch buffer, with
//!   constants baked in at compile time;
//! - schedule legality (operands produced before use) is checked during
//!   compilation, so execution needs no checks, no map lookups and no
//!   per-cycle allocation.
//!
//! [`CompiledSim`] then executes `run_call` as straight-line interpretation
//! of those ops. Design-space exploration, the differential fuzzer, the
//! testbench generator, waveforms and long convergence runs all execute
//! designs through it; the map-based reference model in `sim.rs` exists
//! only for the tests that cross-check this one.

use std::collections::BTreeMap;

use fixpt::{Fixed, Format, Signedness};
use hls_core::dfg::{Dfg, NodeKind};
use hls_core::Schedule;
use hls_ir::{BinOp, CmpOp, Slot, UnOp, VarId};

use crate::fsmd::{Control, Fsmd};
use crate::sim::SimError;

fn bool_format() -> Format {
    Format::integer(1, Signedness::Unsigned)
}

fn bool_fixed(b: bool) -> Fixed {
    Fixed::from_int(b as i64, bool_format())
}

/// Where a variable's storage lives in the dense state.
#[derive(Debug, Clone, Copy)]
enum VarSlot {
    /// Index into the scalar register file.
    Reg(u32),
    /// Index into the array descriptor table.
    Array(u32),
}

/// One array's slice of the flat array store.
#[derive(Debug, Clone)]
struct ArrayMeta {
    offset: u32,
    len: u32,
    format: Format,
    name: String,
}

/// A pre-resolved datapath operation. Operand fields are scratch-buffer
/// indices; `dst` is the producing node's scratch slot.
#[derive(Debug, Clone)]
enum OpKind {
    /// `scratch[dst] = regs[reg]`
    ReadReg { reg: u32 },
    /// `regs[reg] = scratch[src].cast(fmt)` (also forwarded to `dst`).
    WriteReg { reg: u32, src: u32 },
    /// Binary arithmetic on scratch slots.
    Bin { op: BinOp, a: u32, b: u32 },
    /// Multiply by a power-of-two constant (wiring, same math as mul).
    MulPow2 { a: u32, b: u32 },
    /// Unary arithmetic.
    Un { op: UnOp, a: u32 },
    /// Comparison producing a 1-bit value.
    Cmp { op: CmpOp, a: u32, b: u32 },
    /// Two-way mux; the selected arm is cast to the node format.
    Mux { c: u32, t: u32, e: u32 },
    /// Format cast.
    Cast {
        q: fixpt::Quantization,
        o: fixpt::Overflow,
        a: u32,
    },
    /// Array element read (out-of-range addresses, reachable only under a
    /// false predicate, clamp).
    Load { arr: u32, idx: u32 },
    /// Array element write; out-of-range is a simulation error.
    Store { arr: u32, idx: u32, val: u32 },
    /// Gated array write: nothing is written when `cond` is zero.
    StoreCond {
        arr: u32,
        idx: u32,
        val: u32,
        cond: u32,
    },
}

#[derive(Debug, Clone)]
struct Op {
    kind: OpKind,
    dst: u32,
    fmt: Format,
}

/// Per-segment control, with the counter pre-resolved to its register slot.
#[derive(Debug, Clone)]
enum SegControl {
    Straight,
    Loop {
        trip: u32,
        counter_reg: u32,
        counter_fmt: Format,
        start: i64,
        step: i64,
    },
}

/// One segment's straight-line body.
#[derive(Debug, Clone)]
struct SegProgram {
    control: SegControl,
    /// Ops in execution order (cycle-major, start-time order within a
    /// cycle — the combinational evaluation order of each state).
    ops: Vec<Op>,
    /// Cycles one body execution takes.
    depth: u32,
    /// `(slot, value)` constants baked into the scratch buffer.
    consts: Vec<(u32, Fixed)>,
    /// Scratch buffer length (one slot per DFG node).
    scratch_len: u32,
}

/// An [`Fsmd`] lowered into dense, pre-resolved form.
///
/// Compile once, then run many [`CompiledSim`]s (or one, many times); the
/// per-call work touches only flat vectors.
#[derive(Debug, Clone)]
pub struct SimProgram {
    func: hls_ir::Function,
    name: String,
    /// `VarId::index() → VarSlot`.
    var_slots: Vec<VarSlot>,
    /// Declared format of each scalar register slot.
    reg_formats: Vec<Format>,
    /// Array descriptors (indexed by `VarSlot::Array`).
    arrays: Vec<ArrayMeta>,
    /// Total words in the flat array store.
    array_words: u32,
    segments: Vec<SegProgram>,
    /// Clock period of the source design (ns), for waveform timestamps.
    clock_ns: f64,
}

impl SimProgram {
    /// Lowers `design` into dense form.
    ///
    /// # Panics
    ///
    /// Panics if a schedule uses a value before the cycle that produces it
    /// — that would be a scheduler bug, which compiling surfaces eagerly.
    pub fn compile(design: &Fsmd) -> SimProgram {
        let func = design.function().clone();

        // Dense storage layout: every scalar gets a register-file slot,
        // every array a contiguous run of the flat store.
        let mut var_slots = Vec::with_capacity(func.vars.len());
        let mut reg_formats = Vec::new();
        let mut arrays = Vec::new();
        let mut array_words = 0u32;
        for (_id, v) in func.iter_vars() {
            let fmt = v.ty.format().unwrap_or_else(bool_format);
            match v.len {
                Some(n) => {
                    var_slots.push(VarSlot::Array(arrays.len() as u32));
                    arrays.push(ArrayMeta {
                        offset: array_words,
                        len: n as u32,
                        format: fmt,
                        name: v.name.clone(),
                    });
                    array_words += n as u32;
                }
                None => {
                    var_slots.push(VarSlot::Reg(reg_formats.len() as u32));
                    reg_formats.push(fmt);
                }
            }
        }
        let reg_of = |v: VarId| match var_slots[v.index()] {
            VarSlot::Reg(r) => r,
            VarSlot::Array(_) => panic!("{} is an array, not a register", func.var(v).name),
        };
        let arr_of = |v: VarId| match var_slots[v.index()] {
            VarSlot::Array(a) => a,
            VarSlot::Reg(_) => panic!("{} is a register, not an array", func.var(v).name),
        };

        // Lower each segment body into a linear op list.
        let segments = design
            .control
            .iter()
            .enumerate()
            .map(|(si, ctl)| {
                let dfg = design.lowered.segments[si].dfg();
                let sched = &design.schedules[si];
                let control = match ctl {
                    Control::Straight { .. } => SegControl::Straight,
                    Control::Loop {
                        counter,
                        start,
                        step,
                        trip,
                        ..
                    } => SegControl::Loop {
                        trip: *trip as u32,
                        counter_reg: reg_of(*counter),
                        counter_fmt: func.var(*counter).ty.format().unwrap_or_else(bool_format),
                        start: *start,
                        step: *step,
                    },
                };
                let depth = match ctl {
                    Control::Straight { depth } => *depth,
                    Control::Loop { depth, .. } => *depth,
                };
                let body = compile_segment(&func.name, dfg, sched, depth, &reg_of, &arr_of);
                SegProgram { control, ..body }
            })
            .collect();

        SimProgram {
            name: func.name.clone(),
            func,
            var_slots,
            reg_formats,
            arrays,
            array_words,
            segments,
            clock_ns: design.clock_ns,
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The function whose variables the datapath references.
    pub fn function(&self) -> &hls_ir::Function {
        &self.func
    }

    /// Clock period of the source design, in nanoseconds.
    pub fn clock_ns(&self) -> f64 {
        self.clock_ns
    }

    /// Total pre-resolved ops across all segments (one per DFG node that
    /// does real work; constants are baked away).
    pub fn op_count(&self) -> usize {
        self.segments.iter().map(|s| s.ops.len()).sum()
    }
}

/// Lowers one DFG + schedule into a linear op list, validating that the
/// schedule produces every operand before it is consumed.
fn compile_segment(
    design: &str,
    dfg: &Dfg,
    sched: &Schedule,
    depth: u32,
    reg_of: &dyn Fn(VarId) -> u32,
    arr_of: &dyn Fn(VarId) -> u32,
) -> SegProgram {
    let mut ops = Vec::with_capacity(dfg.len());
    let mut defined = vec![false; dfg.len()];

    // Constants are baked into the scratch buffer up front — they need no
    // runtime op regardless of where (or whether) the schedule placed them.
    let mut consts = Vec::new();
    for (i, node) in dfg.nodes().iter().enumerate() {
        if let NodeKind::Const(c) = node.kind {
            consts.push((i as u32, c));
            defined[i] = true;
        }
    }

    for cycle in 0..depth.max(1) {
        for id in sched.nodes_in_cycle(cycle) {
            let node = dfg.node(id);
            let dst = id.index() as u32;
            let operand = |k: usize| {
                let p = node.preds[k];
                assert!(
                    defined[p.index()],
                    "{design}: schedule uses node {} before it is produced",
                    p.index(),
                );
                p.index() as u32
            };
            let kind = match &node.kind {
                NodeKind::Const(_) => continue, // baked above
                NodeKind::VarRead(v) => OpKind::ReadReg { reg: reg_of(*v) },
                NodeKind::VarWrite(v) => OpKind::WriteReg {
                    reg: reg_of(*v),
                    src: operand(0),
                },
                NodeKind::Bin(op) => OpKind::Bin {
                    op: *op,
                    a: operand(0),
                    b: operand(1),
                },
                NodeKind::MulPow2 => OpKind::MulPow2 {
                    a: operand(0),
                    b: operand(1),
                },
                NodeKind::Un(op) => OpKind::Un {
                    op: *op,
                    a: operand(0),
                },
                NodeKind::Cmp(op) => OpKind::Cmp {
                    op: *op,
                    a: operand(0),
                    b: operand(1),
                },
                NodeKind::Mux | NodeKind::EnableMux => OpKind::Mux {
                    c: operand(0),
                    t: operand(1),
                    e: operand(2),
                },
                NodeKind::Cast(q, o) => OpKind::Cast {
                    q: *q,
                    o: *o,
                    a: operand(0),
                },
                NodeKind::Load(arr) => OpKind::Load {
                    arr: arr_of(*arr),
                    idx: operand(0),
                },
                NodeKind::Store(arr) => OpKind::Store {
                    arr: arr_of(*arr),
                    idx: operand(0),
                    val: operand(1),
                },
                NodeKind::StoreCond(arr) => OpKind::StoreCond {
                    arr: arr_of(*arr),
                    idx: operand(0),
                    val: operand(1),
                    cond: operand(2),
                },
            };
            ops.push(Op {
                kind,
                dst,
                fmt: node.format,
            });
            defined[id.index()] = true;
        }
    }

    SegProgram {
        control: SegControl::Straight, // overwritten by the caller
        ops,
        depth,
        consts,
        scratch_len: dfg.len() as u32,
    }
}

/// The compiled-program simulator with persistent state registers: dense
/// state, no per-cycle allocation. One [`CompiledSim::run_call`] is one
/// start/done handshake.
///
/// # Examples
///
/// ```
/// use hls_core::{synthesize, Directives, TechLibrary};
/// use hls_ir::{FunctionBuilder, Ty, Expr};
/// use rtl::{CompiledSim, Fsmd, SimProgram};
/// use fixpt::{Fixed, Format};
///
/// let mut b = FunctionBuilder::new("twice");
/// let x = b.param_scalar("x", Ty::fixed(8, 4));
/// let y = b.param_scalar("y", Ty::fixed(10, 6));
/// b.assign(y, Expr::add(Expr::var(x), Expr::var(x)));
/// let r = synthesize(&b.build(), &Directives::new(10.0), &TechLibrary::asic_100mhz())?;
///
/// let program = SimProgram::compile(&Fsmd::from_synthesis(&r));
/// let mut sim = CompiledSim::new(program);
/// let arg = hls_ir::Slot::Scalar(Fixed::from_f64(1.25, Format::signed(8, 4)));
/// let out = sim.run_call(&[(x, arg)]).expect("simulates");
/// assert_eq!(out[&y].scalar().unwrap().to_f64(), 2.5);
/// # Ok::<(), hls_core::SynthesisError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompiledSim {
    program: SimProgram,
    /// Flat scalar register file.
    regs: Vec<Fixed>,
    /// Flat array store.
    array_store: Vec<Fixed>,
    /// One scratch buffer per segment, constants pre-baked.
    scratch: Vec<Vec<Fixed>>,
    cycles: u64,
}

impl CompiledSim {
    /// Creates a simulator over `program` with zeroed (reset) state.
    pub fn new(program: SimProgram) -> CompiledSim {
        let regs = program
            .reg_formats
            .iter()
            .map(|f| Fixed::zero(*f))
            .collect();
        let mut array_store = Vec::with_capacity(program.array_words as usize);
        for a in &program.arrays {
            array_store.extend(std::iter::repeat_n(Fixed::zero(a.format), a.len as usize));
        }
        let scratch = program
            .segments
            .iter()
            .map(|s| {
                let mut buf = vec![bool_fixed(false); s.scratch_len as usize];
                for (slot, v) in &s.consts {
                    buf[*slot as usize] = *v;
                }
                buf
            })
            .collect();
        CompiledSim {
            program,
            regs,
            array_store,
            scratch,
            cycles: 0,
        }
    }

    /// Compiles and wraps `design` in one step.
    pub fn from_fsmd(design: &Fsmd) -> CompiledSim {
        CompiledSim::new(SimProgram::compile(design))
    }

    /// The compiled program.
    pub fn program(&self) -> &SimProgram {
        &self.program
    }

    /// Total cycles simulated.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Asserts reset: zeroes every register and array.
    pub fn reset(&mut self) {
        for (r, fmt) in self.regs.iter_mut().zip(&self.program.reg_formats) {
            *r = Fixed::zero(*fmt);
        }
        for a in &self.program.arrays {
            for w in &mut self.array_store[a.offset as usize..(a.offset + a.len) as usize] {
                *w = Fixed::zero(a.format);
            }
        }
        self.cycles = 0;
    }

    /// Reads a persistent register (for state comparison against the
    /// interpreter).
    pub fn reg(&self, id: VarId) -> Option<Fixed> {
        match self.program.var_slots.get(id.index())? {
            VarSlot::Reg(r) => Some(self.regs[*r as usize]),
            VarSlot::Array(_) => None,
        }
    }

    /// Reads a persistent array.
    pub fn array(&self, id: VarId) -> Option<&[Fixed]> {
        match self.program.var_slots.get(id.index())? {
            VarSlot::Array(a) => {
                let m = &self.program.arrays[*a as usize];
                Some(&self.array_store[m.offset as usize..(m.offset + m.len) as usize])
            }
            VarSlot::Reg(_) => None,
        }
    }

    /// Overwrites one element of a state array (testbench preloading).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an array or `index` is out of bounds.
    pub fn poke_array(&mut self, id: VarId, index: usize, value: Fixed) {
        match self.program.var_slots[id.index()] {
            VarSlot::Array(a) => {
                let m = &self.program.arrays[a as usize];
                assert!(index < m.len as usize, "poke_array index out of bounds");
                self.array_store[m.offset as usize + index] = value.cast(m.format);
            }
            VarSlot::Reg(_) => {
                panic!("{} is not an array", self.program.func.var(id).name)
            }
        }
    }

    /// Runs one start/done transaction: samples `inputs` into the input
    /// registers, steps through every state, and returns the parameter
    /// values at done.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on missing/misshapen inputs or out-of-bounds
    /// store indexing.
    pub fn run_call(
        &mut self,
        inputs: &[(VarId, Slot)],
    ) -> Result<BTreeMap<VarId, Slot>, SimError> {
        self.run_call_observed(inputs, |_, _| {})
    }

    /// [`CompiledSim::run_call`] that calls `observe(segment, values)`
    /// after each body run of a segment, with the value every DFG node of
    /// that segment took in the run (indexed by node index; nodes the
    /// schedule never places keep stale values). The differential fuzzer
    /// reads controller and branch coverage off these values.
    ///
    /// # Errors
    ///
    /// As [`CompiledSim::run_call`]; `observe` sees only the body runs that
    /// completed.
    pub fn run_call_observed<F: FnMut(usize, &[Fixed])>(
        &mut self,
        inputs: &[(VarId, Slot)],
        mut observe: F,
    ) -> Result<BTreeMap<VarId, Slot>, SimError> {
        // Sample inputs. (`program` and the state vectors are disjoint
        // fields, so iterating the former while writing the latter is fine.)
        for &p in &self.program.func.params {
            let supplied = inputs.iter().find(|(id, _)| *id == p).map(|(_, s)| s);
            match (self.program.var_slots[p.index()], supplied) {
                (VarSlot::Reg(r), Some(Slot::Scalar(f))) => {
                    let fmt = self.program.reg_formats[r as usize];
                    self.regs[r as usize] = f.cast(fmt);
                }
                (VarSlot::Array(a), Some(Slot::Array(vals)))
                    if vals.len() == self.program.arrays[a as usize].len as usize =>
                {
                    let m = &self.program.arrays[a as usize];
                    for (w, v) in self.array_store[m.offset as usize..].iter_mut().zip(vals) {
                        *w = v.cast(m.format);
                    }
                }
                (_, Some(_)) => {
                    return Err(SimError::BadArgument {
                        param: self.program.func.var(p).name.clone(),
                    })
                }
                (_, None) => {
                    if self.program.func.param_direction(p) != hls_ir::Direction::Out {
                        return Err(SimError::MissingInput {
                            param: self.program.func.var(p).name.clone(),
                        });
                    }
                }
            }
        }

        // Execute every segment as straight-line code.
        for si in 0..self.program.segments.len() {
            match self.program.segments[si].control.clone() {
                SegControl::Straight => {
                    self.run_body(si, &mut observe)?;
                }
                SegControl::Loop {
                    trip,
                    counter_reg,
                    counter_fmt,
                    start,
                    step,
                } => {
                    self.regs[counter_reg as usize] = Fixed::from_int(start, counter_fmt);
                    for _ in 0..trip {
                        self.run_body(si, &mut observe)?;
                        let k = self.regs[counter_reg as usize];
                        self.regs[counter_reg as usize] =
                            Fixed::from_int(k.to_i64() + step, counter_fmt);
                    }
                }
            }
        }

        // Read back parameters at done.
        Ok(self
            .program
            .func
            .params
            .iter()
            .map(|&p| {
                let slot = match self.program.var_slots[p.index()] {
                    VarSlot::Reg(r) => Slot::Scalar(self.regs[r as usize]),
                    VarSlot::Array(a) => {
                        let m = &self.program.arrays[a as usize];
                        Slot::Array(
                            self.array_store[m.offset as usize..(m.offset + m.len) as usize]
                                .to_vec(),
                        )
                    }
                };
                (p, slot)
            })
            .collect())
    }

    /// Executes one segment body once: a single pass over pre-resolved ops,
    /// then hands the run's node values to `observe`.
    fn run_body<F: FnMut(usize, &[Fixed])>(
        &mut self,
        si: usize,
        observe: &mut F,
    ) -> Result<(), SimError> {
        let seg = &self.program.segments[si];
        let scratch = &mut self.scratch[si];
        for op in &seg.ops {
            let v = match &op.kind {
                OpKind::ReadReg { reg } => self.regs[*reg as usize],
                OpKind::WriteReg { reg, src } => {
                    let x = scratch[*src as usize].cast(op.fmt);
                    self.regs[*reg as usize] = x;
                    x
                }
                OpKind::Bin { op: b, a, b: rhs } => {
                    let x = scratch[*a as usize];
                    let y = scratch[*rhs as usize];
                    match b {
                        BinOp::Add => x.exact_add(&y),
                        BinOp::Sub => x.exact_sub(&y),
                        BinOp::Mul => x.exact_mul(&y),
                        BinOp::Shl => x.shl(y.to_i64().max(0) as u32),
                        BinOp::Shr => x.shr(y.to_i64().max(0) as u32),
                        BinOp::And => bool_fixed(!x.is_zero() && !y.is_zero()),
                        BinOp::Or => bool_fixed(!x.is_zero() || !y.is_zero()),
                    }
                }
                OpKind::MulPow2 { a, b } => scratch[*a as usize].exact_mul(&scratch[*b as usize]),
                OpKind::Un { op: u, a } => {
                    let x = scratch[*a as usize];
                    match u {
                        UnOp::Neg => x.negate(),
                        UnOp::Signum => Fixed::from_int(x.signum() as i64, Format::signed(2, 2)),
                        UnOp::Not => bool_fixed(x.is_zero()),
                    }
                }
                OpKind::Cmp { op: c, a, b } => {
                    bool_fixed(c.eval(scratch[*a as usize].cmp(&scratch[*b as usize])))
                }
                OpKind::Mux { c, t, e } => {
                    let arm = if !scratch[*c as usize].is_zero() {
                        scratch[*t as usize]
                    } else {
                        scratch[*e as usize]
                    };
                    arm.cast(op.fmt)
                }
                OpKind::Cast { q, o, a } => scratch[*a as usize].cast_with(op.fmt, *q, *o),
                OpKind::Load { arr, idx } => {
                    let m = &self.program.arrays[*arr as usize];
                    // Out-of-range reads (only reachable under a false
                    // predicate, whose consumers discard the value) clamp.
                    let i = scratch[*idx as usize].to_i64().clamp(0, m.len as i64 - 1) as usize;
                    self.array_store[m.offset as usize + i]
                }
                OpKind::Store { arr, idx, val } => {
                    let m = &self.program.arrays[*arr as usize];
                    let i = scratch[*idx as usize].to_i64();
                    let v = scratch[*val as usize];
                    if i < 0 || i >= m.len as i64 {
                        return Err(SimError::IndexOutOfBounds {
                            array: m.name.clone(),
                            index: i,
                            len: m.len as usize,
                        });
                    }
                    self.array_store[m.offset as usize + i as usize] = v;
                    v
                }
                OpKind::StoreCond {
                    arr,
                    idx,
                    val,
                    cond,
                } => {
                    let v = scratch[*val as usize];
                    if !scratch[*cond as usize].is_zero() {
                        let m = &self.program.arrays[*arr as usize];
                        let i = scratch[*idx as usize].to_i64();
                        if i < 0 || i >= m.len as i64 {
                            return Err(SimError::IndexOutOfBounds {
                                array: m.name.clone(),
                                index: i,
                                len: m.len as usize,
                            });
                        }
                        self.array_store[m.offset as usize + i as usize] = v;
                    }
                    v
                }
            };
            scratch[op.dst as usize] = v;
        }
        self.cycles += seg.depth.max(1) as u64;
        observe(si, scratch);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_core::{synthesize, Directives, TechLibrary, Unroll};
    use hls_ir::{CmpOp, Expr, FunctionBuilder, Ty};

    fn sum_design(unroll: Option<u32>) -> hls_core::SynthesisResult {
        let mut b = FunctionBuilder::new("sum");
        let x = b.param_array("x", Ty::fixed(10, 2), 8);
        let out = b.param_scalar("out", Ty::fixed(16, 6));
        let acc = b.local("acc", Ty::fixed(16, 6));
        b.assign(acc, Expr::int_const(0));
        b.for_loop("sum", 0, CmpOp::Lt, 8, 1, |b, k| {
            b.assign(acc, Expr::add(Expr::var(acc), Expr::load(x, Expr::var(k))));
        });
        b.assign(out, Expr::var(acc));
        let f = b.build();
        let mut d = Directives::new(10.0);
        if let Some(u) = unroll {
            d = d.unroll("sum", Unroll::Factor(u));
        }
        synthesize(&f, &d, &TechLibrary::asic_100mhz()).expect("synthesizes")
    }

    fn input_slot(vals: &[f64]) -> Slot {
        let fmt = Format::signed(10, 2);
        Slot::Array(vals.iter().map(|v| Fixed::from_f64(*v, fmt)).collect())
    }

    #[test]
    fn missing_input_reported() {
        let r = sum_design(None);
        let mut sim = CompiledSim::from_fsmd(&Fsmd::from_synthesis(&r));
        let err = sim.run_call(&[]).unwrap_err();
        assert!(matches!(err, SimError::MissingInput { .. }));
    }

    #[test]
    fn bad_shape_reported() {
        let r = sum_design(None);
        let mut sim = CompiledSim::from_fsmd(&Fsmd::from_synthesis(&r));
        let x = r.lowered.func.params[0];
        let err = sim
            .run_call(&[(x, Slot::Scalar(Fixed::zero(Format::signed(10, 2))))])
            .unwrap_err();
        assert!(matches!(err, SimError::BadArgument { .. }));
    }

    #[test]
    fn reset_clears_state_and_cycles() {
        let r = sum_design(None);
        let mut sim = CompiledSim::from_fsmd(&Fsmd::from_synthesis(&r));
        let x = r.lowered.func.params[0];
        sim.run_call(&[(x, input_slot(&[1.0; 8]))]).expect("runs");
        assert!(sim.cycles() > 0);
        sim.reset();
        assert_eq!(sim.cycles(), 0);
        let out = r.lowered.func.params[1];
        assert!(sim.reg(out).expect("scalar").is_zero());
    }

    #[test]
    fn static_state_persists_across_calls() {
        let mut b = FunctionBuilder::new("counter");
        let out = b.param_scalar("out", Ty::int(8));
        let n = b.static_scalar("n", Ty::int(8));
        b.assign(n, Expr::add(Expr::var(n), Expr::int_const(1)));
        b.assign(out, Expr::var(n));
        let f = b.build();
        let r = synthesize(&f, &Directives::new(10.0), &TechLibrary::asic_100mhz()).expect("ok");
        let out_id = r.lowered.func.params[0];
        let mut sim = CompiledSim::from_fsmd(&Fsmd::from_synthesis(&r));
        let r1 = sim.run_call(&[]).expect("runs");
        let r2 = sim.run_call(&[]).expect("runs");
        assert_eq!(r1[&out_id].scalar().expect("s").to_i64(), 1);
        assert_eq!(r2[&out_id].scalar().expect("s").to_i64(), 2);
    }

    #[test]
    fn constants_are_baked_not_executed() {
        let r = sum_design(None);
        let program = SimProgram::compile(&Fsmd::from_synthesis(&r));
        let const_nodes: usize = r
            .lowered
            .segments
            .iter()
            .map(|s| {
                s.dfg()
                    .nodes()
                    .iter()
                    .filter(|n| matches!(n.kind, hls_core::dfg::NodeKind::Const(_)))
                    .count()
            })
            .sum();
        let total_nodes: usize = r.lowered.segments.iter().map(|s| s.dfg().len()).sum();
        assert!(const_nodes > 0, "design has constants");
        assert_eq!(program.op_count(), total_nodes - const_nodes);
    }
}
