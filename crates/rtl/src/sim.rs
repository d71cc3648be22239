//! The reference model of FSMD execution, and the simulation error type.
//!
//! [`RtlSimulator`] executes the scheduled datapath state by state: each
//! cycle's operations run in schedule order (all intra-cycle dependences
//! are explicit DFG edges, so this *is* the combinational evaluation
//! order), register and array commits become visible as they execute —
//! matching the forwarding semantics the scheduler assumed. One `run_call`
//! corresponds to one start/done handshake.
//!
//! It walks the `Fsmd` itself through map-backed register files, which
//! keeps it short and readable and makes it slow. Library code runs
//! [`CompiledSim`](crate::CompiledSim); this model exists so tests can
//! compare the compiled engine against an independent walk, after every
//! call, on returned slots, cycles and every register and array.

use std::collections::BTreeMap;
use std::fmt;

use fixpt::{Fixed, Format, Signedness};
use hls_core::dfg::{Dfg, NodeId, NodeKind};
use hls_core::Schedule;
use hls_ir::{BinOp, Slot, UnOp, VarId};

use crate::fsmd::{Control, Fsmd};

/// Simulation failure (indicates a bug in generation, not in the design).
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// An array index left the declared bounds.
    IndexOutOfBounds {
        /// Array name.
        array: String,
        /// Evaluated index.
        index: i64,
        /// Declared length.
        len: usize,
    },
    /// A required input was not supplied.
    MissingInput {
        /// Parameter name.
        param: String,
    },
    /// An input had the wrong shape or length.
    BadArgument {
        /// Parameter name.
        param: String,
    },
    /// A node was evaluated before its predecessor — a malformed schedule,
    /// reachable only through an [`Fsmd`] whose schedules were edited by
    /// hand. Only [`RtlSimulator`] reports it;
    /// [`SimProgram::compile`](crate::SimProgram::compile) panics on the
    /// same schedule.
    UnscheduledPredecessor {
        /// DFG index of the unevaluated predecessor.
        node: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::IndexOutOfBounds { array, index, len } => {
                write!(f, "index {index} out of bounds for {array}[{len}]")
            }
            SimError::MissingInput { param } => write!(f, "missing input for port {param}"),
            SimError::BadArgument { param } => {
                write!(f, "argument for {param} has the wrong shape")
            }
            SimError::UnscheduledPredecessor { node } => {
                write!(f, "node {node} read before it was scheduled")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The reference cycle-accurate simulator with persistent state registers:
/// what tests compare [`CompiledSim`](crate::CompiledSim) against.
#[derive(Debug, Clone)]
pub struct RtlSimulator {
    design: Fsmd,
    /// All scalar registers (statics, staged locals, counters).
    regs: BTreeMap<VarId, Fixed>,
    /// All register arrays.
    arrays: BTreeMap<VarId, Vec<Fixed>>,
    /// Cycles executed since construction.
    cycles: u64,
}

impl RtlSimulator {
    /// Creates a simulator with zeroed state (reset).
    pub fn new(design: Fsmd) -> Self {
        let mut sim = RtlSimulator {
            design,
            regs: BTreeMap::new(),
            arrays: BTreeMap::new(),
            cycles: 0,
        };
        sim.reset();
        sim
    }

    /// The design under simulation.
    pub fn design(&self) -> &Fsmd {
        &self.design
    }

    /// Total cycles simulated.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Asserts reset: zeroes every register and array.
    pub fn reset(&mut self) {
        self.regs.clear();
        self.arrays.clear();
        let func = self.design.function().clone();
        for (id, v) in func.iter_vars() {
            let fmt = v.ty.format().unwrap_or_else(bool_format);
            match v.len {
                Some(n) => {
                    self.arrays.insert(id, vec![Fixed::zero(fmt); n]);
                }
                None => {
                    self.regs.insert(id, Fixed::zero(fmt));
                }
            }
        }
        self.cycles = 0;
    }

    /// Reads a persistent register (for state comparison against the
    /// interpreter).
    pub fn reg(&self, id: VarId) -> Option<Fixed> {
        self.regs.get(&id).copied()
    }

    /// Reads a persistent array.
    pub fn array(&self, id: VarId) -> Option<&[Fixed]> {
        self.arrays.get(&id).map(Vec::as_slice)
    }

    /// Overwrites one element of a state array (testbench preloading).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an array or `index` is out of bounds.
    pub fn poke_array(&mut self, id: VarId, index: usize, value: Fixed) {
        let fmt = self
            .design
            .function()
            .var(id)
            .ty
            .format()
            .expect("numeric array");
        self.arrays.get_mut(&id).expect("array exists")[index] = value.cast(fmt);
    }

    /// Runs one start/done transaction: samples `inputs` into the input
    /// registers, steps through every state, and returns the parameter
    /// values at done.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on missing/misshapen inputs or out-of-bounds
    /// indexing (which would indicate a generation bug).
    pub fn run_call(
        &mut self,
        inputs: &[(VarId, Slot)],
    ) -> Result<BTreeMap<VarId, Slot>, SimError> {
        let func = self.design.function().clone();
        // Sample inputs.
        for &p in &func.params {
            let v = func.var(p);
            let supplied = inputs
                .iter()
                .find(|(id, _)| *id == p)
                .map(|(_, s)| s.clone());
            match supplied {
                Some(Slot::Scalar(f)) if v.len.is_none() => {
                    let fmt = v.ty.format().unwrap_or_else(bool_format);
                    self.regs.insert(p, f.cast(fmt));
                }
                Some(Slot::Array(a)) if v.len == Some(a.len()) => {
                    let fmt = v.ty.format().unwrap_or_else(bool_format);
                    self.arrays
                        .insert(p, a.iter().map(|f| f.cast(fmt)).collect());
                }
                Some(_) => {
                    return Err(SimError::BadArgument {
                        param: v.name.clone(),
                    })
                }
                None => {
                    if func.param_direction(p) != hls_ir::Direction::Out {
                        return Err(SimError::MissingInput {
                            param: v.name.clone(),
                        });
                    }
                }
            }
        }

        // Execute every segment.
        let control = self.design.control.clone();
        for (si, ctl) in control.iter().enumerate() {
            let dfg = self.design.lowered.segments[si].dfg().clone();
            let sched = self.design.schedules[si].clone();
            match ctl {
                Control::Straight { depth } => {
                    self.run_body(&dfg, &sched, *depth)?;
                }
                Control::Loop {
                    depth,
                    trip,
                    counter,
                    start,
                    step,
                    ..
                } => {
                    // Counter register initialization (loop entry).
                    let cfmt = func.var(*counter).ty.format().unwrap_or_else(bool_format);
                    self.regs.insert(*counter, Fixed::from_int(*start, cfmt));
                    for _ in 0..*trip {
                        self.run_body(&dfg, &sched, *depth)?;
                        let k = self.regs[counter];
                        self.regs
                            .insert(*counter, Fixed::from_int(k.to_i64() + *step, cfmt));
                    }
                }
            }
        }

        // Read back parameters at done.
        Ok(func
            .params
            .iter()
            .map(|&p| {
                let v = func.var(p);
                let slot = match v.len {
                    Some(_) => Slot::Array(self.arrays[&p].clone()),
                    None => Slot::Scalar(self.regs[&p]),
                };
                (p, slot)
            })
            .collect())
    }

    /// Executes the `depth` states of one segment body once.
    fn run_body(&mut self, dfg: &Dfg, sched: &Schedule, depth: u32) -> Result<(), SimError> {
        let mut values: Vec<Option<Fixed>> = vec![None; dfg.len()];
        for cycle in 0..depth.max(1) {
            for id in sched.nodes_in_cycle(cycle) {
                let v = self.eval_node(dfg, id, &values)?;
                values[id.index()] = Some(v);
            }
            self.cycles += 1;
        }
        Ok(())
    }

    fn eval_node(
        &mut self,
        dfg: &Dfg,
        id: NodeId,
        values: &[Option<Fixed>],
    ) -> Result<Fixed, SimError> {
        let node = dfg.node(id);
        // A missing predecessor value means the schedule is malformed
        // (only reachable through a hand-edited Fsmd); report it, don't
        // panic.
        let val = |p: NodeId| {
            values[p.index()].ok_or(SimError::UnscheduledPredecessor { node: p.index() })
        };
        Ok(match &node.kind {
            NodeKind::Const(c) => *c,
            NodeKind::VarRead(v) => self.regs[v],
            NodeKind::VarWrite(v) => {
                let x = val(node.preds[0])?.cast(node.format);
                self.regs.insert(*v, x);
                x
            }
            NodeKind::Bin(op) => {
                let a = val(node.preds[0])?;
                let b = val(node.preds[1])?;
                match op {
                    BinOp::Add => a.exact_add(&b),
                    BinOp::Sub => a.exact_sub(&b),
                    BinOp::Mul => a.exact_mul(&b),
                    BinOp::Shl => a.shl(b.to_i64().max(0) as u32),
                    BinOp::Shr => a.shr(b.to_i64().max(0) as u32),
                    BinOp::And => bool_fixed(!a.is_zero() && !b.is_zero()),
                    BinOp::Or => bool_fixed(!a.is_zero() || !b.is_zero()),
                }
            }
            NodeKind::MulPow2 => val(node.preds[0])?.exact_mul(&val(node.preds[1])?),
            NodeKind::Un(op) => {
                let a = val(node.preds[0])?;
                match op {
                    UnOp::Neg => a.negate(),
                    UnOp::Signum => Fixed::from_int(a.signum() as i64, Format::signed(2, 2)),
                    UnOp::Not => bool_fixed(a.is_zero()),
                }
            }
            NodeKind::Cmp(op) => {
                let a = val(node.preds[0])?;
                let b = val(node.preds[1])?;
                bool_fixed(op.eval(a.cmp(&b)))
            }
            NodeKind::Mux | NodeKind::EnableMux => {
                // Both arms share the mux's bus format (a lossless union of
                // the arm formats), so the alignment cast never loses bits.
                let c = val(node.preds[0])?;
                let arm = if !c.is_zero() {
                    val(node.preds[1])?
                } else {
                    val(node.preds[2])?
                };
                arm.cast(node.format)
            }
            NodeKind::Cast(q, o) => val(node.preds[0])?.cast_with(node.format, *q, *o),
            NodeKind::Load(arr) => {
                // A register-array read of an out-of-range address (only
                // reachable under a false predicate, whose consumers
                // discard the value) returns an arbitrary element; clamp.
                let idx = val(node.preds[0])?.to_i64();
                let a = &self.arrays[arr];
                let idx = idx.clamp(0, a.len() as i64 - 1) as usize;
                a[idx]
            }
            NodeKind::Store(arr) | NodeKind::StoreCond(arr) => {
                if let NodeKind::StoreCond(_) = node.kind {
                    // Gated write enable: no write when the predicate is
                    // false (the address may be out of range then).
                    if val(node.preds[2])?.is_zero() {
                        return val(node.preds[1]);
                    }
                }
                let idx = val(node.preds[0])?.to_i64();
                let v = val(node.preds[1])?;
                let a = match self.arrays.get_mut(arr) {
                    Some(a) => a,
                    None => {
                        return Err(SimError::BadArgument {
                            param: self.design.function().var(*arr).name.clone(),
                        })
                    }
                };
                if idx < 0 || idx as usize >= a.len() {
                    let len = a.len();
                    return Err(SimError::IndexOutOfBounds {
                        array: self.design.function().var(*arr).name.clone(),
                        index: idx,
                        len,
                    });
                }
                a[idx as usize] = v;
                v
            }
        })
    }
}

fn bool_format() -> Format {
    Format::integer(1, Signedness::Unsigned)
}

fn bool_fixed(b: bool) -> Fixed {
    Fixed::from_int(b as i64, bool_format())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompiledSim;
    use hls_core::{synthesize, Directives, TechLibrary, Unroll};
    use hls_ir::{CmpOp, Expr, FunctionBuilder, Interpreter, Ty};

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
    fn matches_interpreter_on_sum() {
        let r = sum_design(None);
        let mut sim = RtlSimulator::new(Fsmd::from_synthesis(&r));
        // All values within the fixed<10,2> range [-2, 2).
        let vals = [1.5, -0.25, 0.75, 1.75, -1.0, 0.5, 0.25, -0.5];
        let x = r.lowered.func.params[0];
        let out = r.lowered.func.params[1];
        let got = sim.run_call(&[(x, input_slot(&vals))]).expect("runs");
        let expect: f64 = vals.iter().sum();
        assert_eq!(got[&out].scalar().expect("scalar").to_f64(), expect);
        // Cycle count equals the scheduler's latency.
        assert_eq!(sim.cycles(), r.metrics.latency_cycles);

        // And agrees with the interpreter bit for bit.
        let mut interp = Interpreter::new(r.transformed.clone());
        let i_out = interp.call(&[(x, input_slot(&vals))]).expect("interprets");
        assert_eq!(
            i_out[&out].scalar().expect("scalar").raw(),
            got[&out].scalar().expect("scalar").raw()
        );
    }

    #[test]
    fn unrolled_variant_agrees_and_is_faster() {
        let rolled = sum_design(None);
        let unrolled = sum_design(Some(2));
        let vals = [0.5, 0.5, -1.25, 1.5, 0.0, 1.0, -0.75, 0.25];
        let run = |r: &hls_core::SynthesisResult| {
            let mut sim = RtlSimulator::new(Fsmd::from_synthesis(r));
            let x = r.lowered.func.params[0];
            let out = r.lowered.func.params[1];
            let got = sim.run_call(&[(x, input_slot(&vals))]).expect("runs");
            (got[&out].scalar().expect("scalar").to_f64(), sim.cycles())
        };
        let (v1, c1) = run(&rolled);
        let (v2, c2) = run(&unrolled);
        assert_eq!(v1, v2);
        assert!(c2 < c1, "unrolled {c2} vs rolled {c1}");
    }

    #[test]
    fn missing_input_reported() {
        let r = sum_design(None);
        let mut sim = RtlSimulator::new(Fsmd::from_synthesis(&r));
        let err = sim.run_call(&[]).unwrap_err();
        assert!(matches!(err, SimError::MissingInput { .. }));
    }

    #[test]
    fn reset_clears_state() {
        let r = sum_design(None);
        let mut sim = RtlSimulator::new(Fsmd::from_synthesis(&r));
        let x = r.lowered.func.params[0];
        sim.run_call(&[(x, input_slot(&[1.0; 8]))]).expect("runs");
        assert!(sim.cycles() > 0);
        sim.reset();
        assert_eq!(sim.cycles(), 0);
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
        let mut sim = RtlSimulator::new(Fsmd::from_synthesis(&r));
        let r1 = sim.run_call(&[]).expect("runs");
        let r2 = sim.run_call(&[]).expect("runs");
        assert_eq!(r1[&out_id].scalar().expect("s").to_i64(), 1);
        assert_eq!(r2[&out_id].scalar().expect("s").to_i64(), 2);
    }

    /// Drives the reference and the compiled simulator with the same calls
    /// and compares, after every call, the returned slots, the cycle
    /// counters and every register and array of the staged function.
    fn assert_engines_agree(fsmd: &Fsmd, calls: &[Vec<(VarId, Slot)>]) {
        let mut reference = RtlSimulator::new(fsmd.clone());
        let mut compiled = CompiledSim::from_fsmd(fsmd);
        for (ci, call) in calls.iter().enumerate() {
            assert_eq!(
                reference.run_call(call),
                compiled.run_call(call),
                "call {ci}"
            );
            assert_eq!(reference.cycles(), compiled.cycles(), "cycles, call {ci}");
            for (id, v) in fsmd.function().iter_vars() {
                match v.len {
                    Some(_) => assert_eq!(reference.array(id), compiled.array(id), "{}", v.name),
                    None => assert_eq!(reference.reg(id), compiled.reg(id), "{}", v.name),
                }
            }
        }
    }

    #[test]
    fn compiled_matches_reference_rolled_and_unrolled() {
        let vals = [1.5, -0.25, 0.75, 1.75, -1.0, 0.5, 0.25, -0.5];
        for unroll in [None, Some(2), Some(8)] {
            let r = sum_design(unroll);
            let x = r.lowered.func.params[0];
            assert_engines_agree(&Fsmd::from_synthesis(&r), &[vec![(x, input_slot(&vals))]]);
        }
    }

    #[test]
    fn compiled_matches_reference_on_static_state() {
        // The waveform tests' accumulator: a static register that every
        // call updates, so the engines must agree on state carried over
        // between calls, not just on one call's outputs.
        let mut b = FunctionBuilder::new("acc");
        let x = b.param_scalar("x", Ty::fixed(8, 4));
        let out = b.param_scalar("out", Ty::fixed(12, 8));
        let state = b.static_scalar("state", Ty::fixed(12, 8));
        b.assign(state, Expr::add(Expr::var(state), Expr::var(x)));
        b.assign(out, Expr::var(state));
        let r = synthesize(
            &b.build(),
            &Directives::new(10.0),
            &TechLibrary::asic_100mhz(),
        )
        .expect("synthesizes");
        let x = r.lowered.func.params[0];
        let calls: Vec<_> = (0..5)
            .map(|k| {
                let v = Fixed::from_f64(0.5 * k as f64, Format::signed(8, 4));
                vec![(x, Slot::Scalar(v))]
            })
            .collect();
        assert_engines_agree(&Fsmd::from_synthesis(&r), &calls);
    }
}
