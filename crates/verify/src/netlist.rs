//! Per-pass equivalence obligations for the netlist optimizer.
//!
//! `hls_core::netlist_obligations` describes every rewrite the netlist
//! optimizer performs as a [`NetlistObligation`] — the lowered design
//! before and after one pass. This module discharges them: both designs
//! execute symbolically over one
//! shared [`SymTable`] from a common *fully arbitrary* start state (every
//! register and array element a fresh free input, so the proof covers
//! every reachable machine state, not just the reset state), and every
//! final register and array element is an observable that must agree.
//!
//! Obligations discharge exactly like the end-to-end prover: canonical
//! equality first (the normalizing construction interned both sides to
//! one node), then exhaustive bit-blast over narrow input cones, and
//! [`ProveVerdict::Unknown`] otherwise — never silently assumed. The
//! end-to-end IR↔FSMD gate still verifies the *optimized* design, so an
//! `Unknown` here only costs per-pass attribution, not soundness.

use std::collections::HashMap;

use fixpt::{Fixed, Format};
use hls_core::dfg::Dfg;
use hls_core::{Lowered, NetlistObligation, Segment};

use crate::equiv::{bit_blast, Obligation, ProofCex, ProofMethod, ProveOptions, ProveVerdict};
use crate::fsmd_exec::{eval_node, FsmdState};
use crate::fuzz::{random_fixed, SplitMix64};
use crate::state::{ExecResult, Unsupported};
use crate::sym::{bool_format, Evaluator, SymId, SymTable};

/// Checks every obligation of one synthesis run; returns one verdict per
/// obligation, in order. Obligations are independent proofs, so they are
/// discharged in parallel through [`hls_core::par_map`].
pub fn check_netlist_obligations(
    obligations: &[NetlistObligation],
    opts: &ProveOptions,
) -> Vec<ProveVerdict> {
    hls_core::par_map(true, obligations.len(), |i| {
        check_netlist_obligation(&obligations[i], opts)
    })
}

/// Proves (or refutes, or gives up on) one pass's rewrite: the lowered
/// design after the pass must compute the same final state as the design
/// before it, for every input and every start state.
pub fn check_netlist_obligation(ob: &NetlistObligation, opts: &ProveOptions) -> ProveVerdict {
    let func = &ob.before.func;
    let mut t = SymTable::new();
    let mut names: HashMap<u32, String> = HashMap::new();

    // Fully arbitrary start state, shared by both sides: a netlist pass
    // must preserve the segment semantics from *any* register contents
    // (segments run mid-design, after arbitrary prior state updates).
    let nvars = func.iter_vars().count();
    let mut init = FsmdState {
        regs: vec![None; nvars],
        arrays: vec![None; nvars],
    };
    for (id, v) in func.iter_vars() {
        let fmt = v.ty.format().unwrap_or_else(bool_format);
        match v.len {
            None => {
                let s = t.fresh_input(fmt);
                let (n, _) = t.input_info(s).expect("fresh input");
                names.insert(n, v.name.clone());
                init.regs[id.index()] = Some(s);
            }
            Some(len) => {
                let elems: Vec<SymId> = (0..len)
                    .map(|i| {
                        let s = t.fresh_input(fmt);
                        let (n, _) = t.input_info(s).expect("fresh input");
                        names.insert(n, format!("{}[{i}]", v.name));
                        s
                    })
                    .collect();
                init.arrays[id.index()] = Some(elems);
            }
        }
    }

    let mut before = init.clone();
    if let Err(e) = exec_lowered(&mut t, &ob.before, &mut before) {
        return unknown_all(func, format!("{}: before side: {e}", ob.pass));
    }
    let mut after = init;
    if let Err(e) = exec_lowered(&mut t, &ob.after, &mut after) {
        return unknown_all(func, format!("{}: after side: {e}", ob.pass));
    }

    // Every final register and array element must agree — a netlist pass
    // may not change *any* architectural state, observable or not (a
    // later segment may read it).
    let mut pairs: Vec<(String, SymId, SymId)> = Vec::new();
    for (id, v) in func.iter_vars() {
        match v.len {
            None => {
                let a = before.regs[id.index()].expect("register state");
                let b = after.regs[id.index()].expect("register state");
                pairs.push((v.name.clone(), a, b));
            }
            Some(_) => {
                let a = before.arrays[id.index()].as_ref().expect("array state");
                let b = after.arrays[id.index()].as_ref().expect("array state");
                for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
                    pairs.push((format!("{}[{i}]", v.name), x, y));
                }
            }
        }
    }

    let mut proved: Vec<Obligation> = Vec::new();
    let mut unproved: Vec<String> = Vec::new();
    let mut ev = Evaluator::new();
    for (name, a, b) in pairs {
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
        match bit_blast(&t, &mut ev, &name, a, b, &support, &names) {
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
            reason: format!("{}: input cones too wide for exhaustive bit-blast", ob.pass),
            proved: proved.len(),
            unproved,
        }
    }
}

/// Concrete cross-check knobs for netlist obligations.
///
/// After a symbolic `Proved`, both sides of the obligation are
/// re-executed in *independent* symbolic tables — taking the
/// shared-table normalizer out of the trusted base — and their final
/// states compared under deterministic pseudo-random input valuations.
/// A divergence demotes the verdict to `Disproved` with the
/// offending valuation; agreement leaves the proved verdict
/// byte-identical to the plain checker's. Deep-verification sweeps run
/// in this regime.
#[derive(Debug, Clone)]
pub struct NetlistCrossCheck {
    /// Seed for the stimulus stream. Restarted for every obligation, so
    /// verdicts are independent of check order and parallelism.
    pub seed: u64,
    /// Input valuations compared per obligation.
    pub vectors: usize,
}

impl Default for NetlistCrossCheck {
    fn default() -> NetlistCrossCheck {
        NetlistCrossCheck {
            seed: 0x6e7_2005,
            vectors: 16,
        }
    }
}

/// [`check_netlist_obligation`] under an optional concrete cross-check:
/// a symbolic `Proved` must additionally survive
/// [`NetlistCrossCheck::vectors`] sampled differential executions.
/// `Disproved` and `Unknown` verdicts pass through untouched — the
/// cross-check can only *demote* a proof, never rescue one.
pub fn check_netlist_obligation_with(
    ob: &NetlistObligation,
    opts: &ProveOptions,
    cross: Option<&NetlistCrossCheck>,
) -> ProveVerdict {
    let verdict = check_netlist_obligation(ob, opts);
    match (&verdict, cross) {
        (ProveVerdict::Proved { .. }, Some(c)) => match cross_check_obligation(ob, c) {
            Some(cex) => ProveVerdict::Disproved(cex),
            None => verdict,
        },
        _ => verdict,
    }
}

/// Executes one side of an obligation in its *own* fresh table from a
/// fully arbitrary start state. Inputs are created in variable order, so
/// ordinals line up across the two sides of an obligation (they share
/// one [`Function`](hls_ir::Function)). Returns the table, the final
/// observables (name, node) in variable order, and the created inputs.
#[allow(clippy::type_complexity)]
fn exec_fresh_side(
    lowered: &Lowered,
) -> Result<(SymTable, Vec<(String, SymId)>, Vec<(u32, Format, String)>), String> {
    let func = &lowered.func;
    let mut t = SymTable::new();
    let nvars = func.iter_vars().count();
    let mut st = FsmdState {
        regs: vec![None; nvars],
        arrays: vec![None; nvars],
    };
    let mut inputs: Vec<(u32, Format, String)> = Vec::new();
    for (id, v) in func.iter_vars() {
        let fmt = v.ty.format().unwrap_or_else(bool_format);
        match v.len {
            None => {
                let s = t.fresh_input(fmt);
                let (n, _) = t.input_info(s).expect("fresh input");
                inputs.push((n, fmt, v.name.clone()));
                st.regs[id.index()] = Some(s);
            }
            Some(len) => {
                let elems: Vec<SymId> = (0..len)
                    .map(|i| {
                        let s = t.fresh_input(fmt);
                        let (n, _) = t.input_info(s).expect("fresh input");
                        inputs.push((n, fmt, format!("{}[{i}]", v.name)));
                        s
                    })
                    .collect();
                st.arrays[id.index()] = Some(elems);
            }
        }
    }
    exec_lowered(&mut t, lowered, &mut st).map_err(|e| e.to_string())?;
    let mut observables = Vec::new();
    for (id, v) in func.iter_vars() {
        match v.len {
            None => {
                observables.push((v.name.clone(), st.regs[id.index()].expect("register state")));
            }
            Some(_) => {
                let elems = st.arrays[id.index()].as_ref().expect("array state");
                for (i, &s) in elems.iter().enumerate() {
                    observables.push((format!("{}[{i}]", v.name), s));
                }
            }
        }
    }
    Ok((t, observables, inputs))
}

/// Samples the two sides of an obligation in independent tables; `Some`
/// is a concrete divergence (the prover was wrong somewhere), `None`
/// means every sampled valuation agreed. A side the executor cannot run
/// returns `None` — the symbolic verdict (which executed the same
/// design) stands on its own there.
fn cross_check_obligation(ob: &NetlistObligation, cross: &NetlistCrossCheck) -> Option<ProofCex> {
    let (tb, before, inputs) = exec_fresh_side(&ob.before).ok()?;
    let (ta, after, inputs_after) = exec_fresh_side(&ob.after).ok()?;
    if before.len() != after.len() || inputs != inputs_after {
        // Sides over different state spaces never canonically agree, so
        // the symbolic checker already refused; nothing to sample.
        return None;
    }
    let broots: Vec<SymId> = before.iter().map(|&(_, s)| s).collect();
    let aroots: Vec<SymId> = after.iter().map(|&(_, s)| s).collect();
    let mut rng = SplitMix64(cross.seed);
    let mut evb = Evaluator::new();
    let mut eva = Evaluator::new();
    for _ in 0..cross.vectors {
        let valuation: HashMap<u32, Fixed> = inputs
            .iter()
            .map(|&(n, f, _)| (n, random_fixed(f, &mut rng)))
            .collect();
        let vb = evb.eval(&tb, &broots, &valuation);
        let va = eva.eval(&ta, &aroots, &valuation);
        for ((name, _), (b, a)) in before.iter().zip(vb.iter().zip(&va)) {
            if b != a {
                return Some(ProofCex {
                    observable: name.clone(),
                    inputs: inputs
                        .iter()
                        .map(|&(n, _, ref label)| (label.clone(), valuation[&n]))
                        .collect(),
                    ir_value: *b,
                    rtl_value: *a,
                });
            }
        }
    }
    None
}

/// Symbolically executes a lowered design (pre-schedule): segments in
/// order, straight-line DFGs evaluated node-by-node in construction order
/// (predecessors precede consumers), loop bodies once per trip with the
/// counter register stepped concretely between runs — exactly the
/// concretization the FSMD executor applies, so both layers of proof see
/// the same loop semantics.
pub fn exec_lowered(t: &mut SymTable, lowered: &Lowered, st: &mut FsmdState) -> ExecResult<()> {
    let func = &lowered.func;
    let mut values: Vec<Option<SymId>> = Vec::new();
    for seg in &lowered.segments {
        match seg {
            Segment::Straight { dfg } => run_dfg(t, func, dfg, st, &mut values)?,
            Segment::Loop {
                trip,
                counter,
                start,
                step,
                dfg,
                ..
            } => {
                let cfmt = func.var(*counter).ty.format().unwrap_or_else(bool_format);
                st.regs[counter.index()] = Some(t.constant(fixpt::Fixed::from_int(*start, cfmt)));
                for _ in 0..*trip {
                    run_dfg(t, func, dfg, st, &mut values)?;
                    let k = st.regs[counter.index()].expect("counter initialized");
                    let kv = t
                        .const_value(k)
                        .ok_or_else(|| Unsupported("loop counter became data-dependent".into()))?;
                    st.regs[counter.index()] =
                        Some(t.constant(fixpt::Fixed::from_int(kv.to_i64() + *step, cfmt)));
                }
            }
        }
    }
    Ok(())
}

fn run_dfg(
    t: &mut SymTable,
    func: &hls_ir::Function,
    dfg: &Dfg,
    st: &mut FsmdState,
    values: &mut Vec<Option<SymId>>,
) -> ExecResult<()> {
    values.clear();
    values.resize(dfg.len(), None);
    for (id, _) in dfg.iter() {
        let v = eval_node(t, func, dfg, id, values, st)?;
        values[id.index()] = Some(v);
    }
    Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use hls_core::{
        lower, netlist_obligations, optimize_lowered, Directives, NetlistOptConfig, OptLevel,
        TechLibrary,
    };
    use hls_ir::parse_function;

    // Narrow on purpose: the corrupted-rewrite test below must land
    // within the exhaustive bit-blast budget so refutation is a theorem,
    // not a sample.
    const SRC: &str = r#"
        void kernel(sc_fixed<5,3> x[2], sc_fixed<9,5> *out) {
            sc_fixed<9,5> acc = 0;
            acc_loop: for (int k = 0; k < 2; k++) {
                acc += x[k] * 2;
            }
            *out = acc - x[0] + x[0];
        }
    "#;

    fn lowered_pair() -> Vec<NetlistObligation> {
        let func = parse_function(SRC).unwrap();
        let d = Directives::new(10.0);
        netlist_obligations(
            &lower(&func, &d),
            &NetlistOptConfig::default(),
            &TechLibrary::asic_100mhz(),
        )
    }

    #[test]
    fn on_demand_obligations_describe_the_optimizers_run() {
        // For every Table-1 design, the obligations chain from the raw
        // lowering, name exactly the passes the report says changed
        // something, and end at the design `optimize_lowered` produces.
        let ir = qam_decoder::build_qam_decoder_ir(&qam_decoder::DecoderParams::default());
        let lib = qam_decoder::table1_library();
        for arch in qam_decoder::table1_architectures() {
            for level in [OptLevel::Full, OptLevel::Basic] {
                let d = arch.directives.clone().netlist_opt_level(level);
                let transformed = hls_core::apply_loop_transforms(&ir.func, &d);
                let raw = lower(&transformed.func, &d);
                let obs = netlist_obligations(&raw, &d.netlist_opt, &lib);
                let mut optimized = raw.clone();
                let report = optimize_lowered(&mut optimized, &d.netlist_opt, &lib);
                let what = format!("{} at {level:?}", arch.name);
                assert!(!obs.is_empty(), "{what}: the optimizer rewrites something");
                assert!(
                    obs[0].before == raw,
                    "{what}: the chain starts at the raw lowering"
                );
                for pair in obs.windows(2) {
                    assert!(
                        pair[0].after == pair[1].before,
                        "{what}: the chain is unbroken"
                    );
                }
                let changed: Vec<&str> = report
                    .deltas
                    .iter()
                    .filter(|delta| delta.changed_segments > 0)
                    .map(|delta| delta.pass)
                    .collect();
                let named: Vec<&str> = obs.iter().map(|ob| ob.pass).collect();
                assert_eq!(named, changed, "{what}");
                assert!(
                    obs.last().map(|ob| &ob.after) == Some(&optimized),
                    "{what}: the chain ends at the optimizer's output"
                );
            }
        }
    }

    #[test]
    fn real_pass_obligations_prove() {
        let obs = lowered_pair();
        assert!(!obs.is_empty(), "default opt must rewrite something");
        for (ob, v) in obs
            .iter()
            .zip(check_netlist_obligations(&obs, &ProveOptions::default()))
        {
            assert!(v.is_proved(), "pass {} must prove, got {v:?}", ob.pass);
        }
    }

    #[test]
    fn cross_check_preserves_passing_verdicts_exactly() {
        let obs = lowered_pair();
        assert!(!obs.is_empty(), "default opt must rewrite something");
        let opts = ProveOptions::default();
        let cross = NetlistCrossCheck::default();
        for ob in &obs {
            let plain = check_netlist_obligation(ob, &opts);
            let checked = check_netlist_obligation_with(ob, &opts, Some(&cross));
            assert_eq!(
                format!("{plain:?}"),
                format!("{checked:?}"),
                "a passing cross-check must not perturb the verdict"
            );
        }
    }

    #[test]
    fn cross_check_refutes_unsound_rewrites() {
        let func = parse_function(SRC).unwrap();
        let d = Directives::new(10.0);
        let mut low = lower(&func, &d);
        let ob = hls_core::apply_unsound_rewrite_for_selftest(&mut low)
            .expect("kernel has a subtraction to corrupt");
        let cross = NetlistCrossCheck::default();
        match check_netlist_obligation_with(&ob, &ProveOptions::default(), Some(&cross)) {
            ProveVerdict::Disproved(cex) => {
                assert!(!cex.inputs.is_empty(), "counterexample names its inputs");
            }
            v => panic!("unsound rewrite must stay disproved, got {v:?}"),
        }
    }

    #[test]
    fn unsound_rewrite_is_refuted() {
        // The deliberately broken self-test rewrite (operand swap on a
        // subtraction) must be caught — this is the mutation test for the
        // equivalence gate itself.
        let func = parse_function(SRC).unwrap();
        let d = Directives::new(10.0);
        let mut low = lower(&func, &d);
        let ob = hls_core::apply_unsound_rewrite_for_selftest(&mut low)
            .expect("kernel has a subtraction to corrupt");
        match check_netlist_obligation(&ob, &ProveOptions::default()) {
            ProveVerdict::Disproved(cex) => {
                assert!(!cex.inputs.is_empty(), "counterexample names its inputs");
            }
            v => panic!("unsound rewrite must be disproved, got {v:?}"),
        }
    }
}
