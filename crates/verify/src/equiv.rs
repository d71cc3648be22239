//! The prover: symbolic IR↔FSMD equivalence with bit-blast fallback.
//!
//! Both machines are run over one shared [`SymTable`] from a common
//! symbolic start state (shared free inputs for parameters and `static`
//! state; the RTL's call-to-call-persistent locals modeled as unconstrained
//! "stale" values, the interpreter's per-call zeroing as zeros). Every
//! observable — each `out`/`inout` parameter element and every `static`
//! element — yields one proof obligation: the IR-side node must equal the
//! FSMD-side node for all inputs.
//!
//! Obligations discharge in two stages: **canonical** (the normalizing
//! hash-consed construction interned both sides to the same node) and
//! **exhaustive bit-blast** (when the obligation's input cone is at most
//! [`ProveOptions::max_blast_bits`] wide, enumerate every valuation and
//! compare concretely — a complete decision procedure that also yields
//! counterexamples). Anything wider stays [`ProveVerdict::Unknown`] and is
//! handed to the differential fuzzer.

use std::collections::HashMap;

use fixpt::Fixed;
use hls_ir::{Direction, VarKind};
use rtl::Fsmd;

use crate::fsmd_exec::{exec_fsmd, FsmdState};
use crate::ir_exec::{exec_function, SymEnv};
use crate::state::{index_format, SymSlot};
use crate::sym::{bool_format, Evaluator, SymId, SymTable};

/// Prover knobs.
#[derive(Debug, Clone)]
pub struct ProveOptions {
    /// Maximum total input-cone width (in bits) for the exhaustive
    /// bit-blast fallback. `2^max_blast_bits` concrete evaluations bound
    /// the worst case.
    pub max_blast_bits: u32,
}

impl Default for ProveOptions {
    fn default() -> ProveOptions {
        ProveOptions { max_blast_bits: 20 }
    }
}

/// How one obligation was discharged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofMethod {
    /// Both sides interned to the same canonical DAG node.
    Canonical,
    /// Exhaustively enumerated over the obligation's input cone.
    BitBlast {
        /// Number of input valuations checked.
        points: u64,
    },
}

/// One discharged proof obligation.
#[derive(Debug, Clone)]
pub struct Obligation {
    /// Human-readable observable name (`out`, `ffe_c[3]`, …).
    pub name: String,
    /// How it was proved.
    pub method: ProofMethod,
}

/// A concrete input valuation on which the two machines disagree.
#[derive(Debug, Clone)]
pub struct ProofCex {
    /// The observable that differs.
    pub observable: String,
    /// The (named) free-input valuation exhibiting the difference.
    pub inputs: Vec<(String, Fixed)>,
    /// Value computed by the untimed IR.
    pub ir_value: Fixed,
    /// Value computed by the FSMD.
    pub rtl_value: Fixed,
}

/// Outcome of [`prove_equiv`].
#[derive(Debug, Clone)]
pub enum ProveVerdict {
    /// Every observable is equal for *all* inputs and reachable states.
    Proved {
        /// The discharged obligations.
        obligations: Vec<Obligation>,
        /// Total interned DAG nodes (a size/sharing metric).
        sym_nodes: usize,
    },
    /// A concrete counterexample was found (bit-blast only — canonical
    /// disequality alone is never treated as a verdict).
    Disproved(ProofCex),
    /// Not decidable by this engine (wide cones or unsupported
    /// constructs); fall back to differential fuzzing.
    Unknown {
        /// What stopped the proof.
        reason: String,
        /// Obligations that *were* discharged before giving up.
        proved: usize,
        /// Names of the undischarged observables.
        unproved: Vec<String>,
    },
}

impl ProveVerdict {
    /// `true` for [`ProveVerdict::Proved`].
    pub fn is_proved(&self) -> bool {
        matches!(self, ProveVerdict::Proved { .. })
    }
}

/// Proves (or refutes, or gives up on) the equivalence of `fsmd` against
/// the untimed semantics of its own (transformed, staged) function —
/// i.e. that scheduling, binding, if-conversion and FSMD generation
/// preserved the program.
pub fn prove_equiv(fsmd: &Fsmd) -> ProveVerdict {
    prove_equiv_with(fsmd, &ProveOptions::default())
}

/// [`prove_equiv`] with explicit options.
pub fn prove_equiv_with(fsmd: &Fsmd, opts: &ProveOptions) -> ProveVerdict {
    prove_equiv_in(&IrContext::for_function(fsmd.function()), fsmd, opts)
}

/// The function-only half of a proof: the shared symbolic start state and
/// the IR side's complete symbolic execution, over a private [`SymTable`].
///
/// Everything here depends only on the FSMD's (transformed, staged)
/// function — not on the schedule, binding or clock — so every machine
/// of one function (each point of a design-space sweep that transforms
/// alike, notably) can share one context: [`prove_equiv_in`] clones the
/// table and runs only the FSMD side on top. Roughly half of a proof's
/// wall time lives here. [`crate::ExploreProver`] keeps one context per
/// function for the length of a sweep.
pub struct IrContext {
    func: hls_ir::Function,
    t: SymTable,
    names: HashMap<u32, String>,
    ir_env: SymEnv,
    regs_init: Vec<Option<SymId>>,
    arrays_init: Vec<Option<Vec<SymId>>>,
    /// The IR side's failure, if it stepped outside the symbolic
    /// fragment; every proof from this context reports it.
    ir_error: Option<String>,
}

impl IrContext {
    /// Builds the start state and symbolically executes the IR side of
    /// `func` (an FSMD's function — already transformed and staged).
    pub fn for_function(func: &hls_ir::Function) -> IrContext {
        let func = func.clone();
        let mut t = SymTable::new();
        let mut names: HashMap<u32, String> = HashMap::new();
        let nvars = func.iter_vars().count();
        let mut ir_env: SymEnv = vec![None; nvars];
        let mut regs_init: Vec<Option<SymId>> = vec![None; nvars];
        let mut arrays_init: Vec<Option<Vec<SymId>>> = vec![None; nvars];

        // Build the common symbolic start state.
        for (id, v) in func.iter_vars() {
            let rtl_fmt = v.ty.format().unwrap_or_else(bool_format);
            let ir_zero_fmt = v.ty.format().unwrap_or_else(index_format);
            let shared = matches!(v.kind, VarKind::Static)
                || (v.kind == VarKind::Param && func.param_direction(id) != Direction::Out);
            if shared {
                // Inputs and persistent state: one arbitrary value seen by
                // *both* machines (declared-format, i.e. post-coercion).
                match v.len {
                    None => {
                        let s = fresh_named(&mut t, &mut names, v.name.clone(), rtl_fmt);
                        ir_env[id.index()] = Some(SymSlot::Scalar(s));
                        regs_init[id.index()] = Some(s);
                    }
                    Some(n) => {
                        let elems: Vec<SymId> = (0..n)
                            .map(|i| {
                                fresh_named(&mut t, &mut names, format!("{}[{i}]", v.name), rtl_fmt)
                            })
                            .collect();
                        ir_env[id.index()] = Some(SymSlot::Array(elems.clone()));
                        arrays_init[id.index()] = Some(elems);
                    }
                }
            } else {
                // IR side: out-params, locals and counters are zeroed per
                // call by the interpreter.
                let zero = t.constant(Fixed::from_int(0, ir_zero_fmt));
                ir_env[id.index()] = Some(match v.len {
                    None => SymSlot::Scalar(zero),
                    Some(n) => SymSlot::Array(vec![zero; n]),
                });
                // RTL side: those registers persist across calls, so model
                // them as arbitrary *unshared* stale values. If a stale value
                // ever reaches an observable, the design genuinely disagrees
                // with the per-call interpreter on some call sequence.
                match v.len {
                    None => {
                        let s =
                            fresh_named(&mut t, &mut names, format!("stale {}", v.name), rtl_fmt);
                        regs_init[id.index()] = Some(s);
                    }
                    Some(n) => {
                        let elems: Vec<SymId> = (0..n)
                            .map(|i| {
                                fresh_named(
                                    &mut t,
                                    &mut names,
                                    format!("stale {}[{i}]", v.name),
                                    rtl_fmt,
                                )
                            })
                            .collect();
                        arrays_init[id.index()] = Some(elems);
                    }
                }
            }
        }

        // Run the IR machine once; every proof over this context reuses
        // its canonical nodes.
        let ir_error = exec_function(&mut t, &func, &mut ir_env)
            .err()
            .map(|e| format!("IR side: {e}"));
        IrContext {
            func,
            t,
            names,
            ir_env,
            regs_init,
            arrays_init,
            ir_error,
        }
    }

    /// The function this context executed.
    pub fn function(&self) -> &hls_ir::Function {
        &self.func
    }
}

/// [`prove_equiv_with`] on a prebuilt [`IrContext`]: clones the context's
/// symbolic table and runs only the FSMD side. `fsmd.function()` must be
/// the function the context was built for, every constant equal in raw
/// bits and format; [`crate::ExploreProver`] checks exactly that before
/// it reuses a context.
pub fn prove_equiv_in(ctx: &IrContext, fsmd: &Fsmd, opts: &ProveOptions) -> ProveVerdict {
    let func = &ctx.func;
    if let Some(e) = &ctx.ir_error {
        return unknown_all(func, e.clone());
    }
    let mut t = ctx.t.clone();
    let names = &ctx.names;
    let ir_env = &ctx.ir_env;
    let mut rtl = FsmdState::new(fsmd);
    rtl.regs.clone_from(&ctx.regs_init);
    rtl.arrays.clone_from(&ctx.arrays_init);

    if let Err(e) = exec_fsmd(&mut t, fsmd, &mut rtl) {
        return unknown_all(func, format!("FSMD side: {e}"));
    }

    // Collect obligations: every out/inout parameter and static element.
    let mut obligations: Vec<(String, SymId, SymId)> = Vec::new();
    for (id, v) in func.iter_vars() {
        let observable = match v.kind {
            VarKind::Param => func.param_direction(id) != Direction::In,
            VarKind::Static => true,
            _ => false,
        };
        if !observable {
            continue;
        }
        match (&ir_env[id.index()], v.len) {
            (Some(SymSlot::Scalar(a)), None) => {
                let b = rtl.regs[id.index()].expect("register state");
                obligations.push((v.name.clone(), *a, b));
            }
            (Some(SymSlot::Array(a)), Some(_)) => {
                let b = rtl.arrays[id.index()].clone().expect("array state");
                for (i, (&x, y)) in a.iter().zip(b).enumerate() {
                    obligations.push((format!("{}[{i}]", v.name), x, y));
                }
            }
            _ => return unknown_all(func, format!("misshapen slot for {}", v.name)),
        }
    }

    // Stage 1: canonical equality. Stage 2: exhaustive bit-blast.
    let mut proved: Vec<Obligation> = Vec::new();
    let mut unproved: Vec<String> = Vec::new();
    let mut ev = Evaluator::new();
    for (name, a, b) in obligations {
        if a == b {
            proved.push(Obligation {
                name,
                method: ProofMethod::Canonical,
            });
            continue;
        }
        let support = t.support(&[a, b]);
        let bits: u32 = support.iter().map(|&(_, f, _)| f.width()).sum();
        if bits > opts.max_blast_bits {
            unproved.push(format!("{name} (cone {bits} bits)"));
            continue;
        }
        match bit_blast(&t, &mut ev, &name, a, b, &support, names) {
            Ok(points) => proved.push(Obligation {
                name,
                method: ProofMethod::BitBlast { points },
            }),
            Err(cex) => return ProveVerdict::Disproved(cex),
        }
    }

    if unproved.is_empty() {
        ProveVerdict::Proved {
            obligations: proved,
            sym_nodes: t.len(),
        }
    } else {
        ProveVerdict::Unknown {
            reason: "input cones too wide for exhaustive bit-blast".into(),
            proved: proved.len(),
            unproved,
        }
    }
}

fn fresh_named(
    t: &mut SymTable,
    names: &mut HashMap<u32, String>,
    name: String,
    fmt: fixpt::Format,
) -> SymId {
    let id = t.fresh_input(fmt);
    let (n, _) = t.input_info(id).expect("fresh input");
    names.insert(n, name);
    id
}

fn unknown_all(func: &hls_ir::Function, reason: String) -> ProveVerdict {
    let unproved = func
        .params
        .iter()
        .map(|&p| func.var(p).name.clone())
        .collect();
    ProveVerdict::Unknown {
        reason,
        proved: 0,
        unproved,
    }
}

/// Exhaustively enumerates the joint input cone of `(a, b)`; `Ok(points)`
/// if they agree everywhere, `Err` with the first disagreeing valuation.
pub(crate) fn bit_blast(
    t: &SymTable,
    ev: &mut Evaluator,
    observable: &str,
    a: SymId,
    b: SymId,
    support: &[(u32, fixpt::Format, SymId)],
    names: &HashMap<u32, String>,
) -> Result<u64, ProofCex> {
    let mut raws: Vec<i128> = support.iter().map(|&(_, f, _)| f.min_raw()).collect();
    let mut env: HashMap<u32, Fixed> = HashMap::new();
    let mut points = 0u64;
    loop {
        for (i, &(n, f, _)) in support.iter().enumerate() {
            env.insert(n, Fixed::from_raw(raws[i], f).expect("raw in range"));
        }
        let vals = ev.eval(t, &[a, b], &env);
        points += 1;
        if vals[0] != vals[1] {
            let inputs = support
                .iter()
                .map(|&(n, _, _)| {
                    let name = names.get(&n).cloned().unwrap_or_else(|| format!("#{n}"));
                    (name, env[&n])
                })
                .collect();
            return Err(ProofCex {
                observable: observable.to_string(),
                inputs,
                ir_value: vals[0],
                rtl_value: vals[1],
            });
        }
        // Odometer step.
        let mut i = 0;
        loop {
            if i == support.len() {
                return Ok(points);
            }
            let f = support[i].1;
            if raws[i] < f.max_raw() {
                raws[i] += 1;
                break;
            }
            raws[i] = f.min_raw();
            i += 1;
        }
    }
}
