//! The staged verification pipeline: prove first, fuzz the remainder.
//!
//! [`verify_equiv`] is the one call sites use: it runs the symbolic
//! prover ([`crate::equiv`]) and, only when the prover returns
//! [`ProveVerdict::Unknown`], falls back to coverage-guided differential
//! fuzzing ([`crate::fuzz`]). A [`ProveVerdict::Disproved`] or a fuzz
//! counterexample is a hard failure with a concrete witness.
//!
//! [`explore_verified`] plugs the same pipeline into design-space
//! exploration via `hls_core::explore_with_check`, gating the Pareto
//! frontier (or every point) on equivalence. [`EquivGate`] plugs it into
//! the pass manager itself: registered as a `PassHook`, it verifies the
//! design the moment metrics land and vetoes the rest of the pipeline on
//! a counterexample.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use hls_core::{
    explore_with_check, lower, netlist_obligations, Diagnostic, Diagnostics, ExploreConfig,
    ExploreResult, PassHook, PipelineState, TechLibrary,
};
use hls_ir::Function;
use rtl::Fsmd;

use crate::equiv::{
    prove_equiv_in, prove_equiv_with, IrContext, ProofCex, ProofMethod, ProveOptions, ProveVerdict,
};
use crate::fuzz::{fuzz_equiv_with, FuzzCex, FuzzConfig};
use crate::proofcache::{fsmd_key, ProofCache};

/// How [`verify_equiv`] reached its conclusion.
#[derive(Debug, Clone)]
pub enum VerifyFinding {
    /// Every observable proved equal for all inputs (canonical form or
    /// exhaustive bit-blast).
    Proved {
        /// Discharged obligations.
        obligations: usize,
        /// How many needed the bit-blast fallback.
        bit_blasted: usize,
        /// Interned DAG size.
        sym_nodes: usize,
    },
    /// The prover found a concrete input on which the machines differ.
    ProofCounterexample(ProofCex),
    /// The prover gave up; the differential fuzzer found no mismatch.
    Fuzzed {
        /// Why the prover stopped.
        prover_reason: String,
        /// Calls executed on both machines.
        calls: u64,
        /// Distinct controller states covered.
        states: usize,
        /// Distinct branch directions covered.
        branch_directions: usize,
    },
    /// The fuzzer found (and shrank) a mismatch.
    FuzzCounterexample(FuzzCex),
}

/// Outcome of [`verify_equiv`].
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// What happened.
    pub finding: VerifyFinding,
}

impl VerifyReport {
    /// `true` when no disagreement between IR and FSMD was found.
    pub fn passed(&self) -> bool {
        matches!(
            self.finding,
            VerifyFinding::Proved { .. } | VerifyFinding::Fuzzed { .. }
        )
    }

    /// One-line human-readable summary.
    pub fn describe(&self) -> String {
        match &self.finding {
            VerifyFinding::Proved {
                obligations,
                bit_blasted,
                sym_nodes,
            } => format!(
                "PROVED: {obligations} observables ({bit_blasted} by bit-blast), {sym_nodes} DAG nodes"
            ),
            VerifyFinding::ProofCounterexample(cex) => format!(
                "DISPROVED: {} = {:?} (IR) vs {:?} (FSMD) at {:?}",
                cex.observable, cex.ir_value, cex.rtl_value, cex.inputs
            ),
            VerifyFinding::Fuzzed {
                prover_reason,
                calls,
                states,
                branch_directions,
            } => format!(
                "FUZZED clean: {calls} calls, {states} controller states, \
                 {branch_directions} branch directions (prover: {prover_reason})"
            ),
            VerifyFinding::FuzzCounterexample(cex) => format!(
                "FUZZ COUNTEREXAMPLE ({} calls, fails at call {}): {}",
                cex.stimulus.len(),
                cex.failing_call,
                cex.message
            ),
        }
    }
}

/// Checks that `fsmd` implements its function's untimed semantics:
/// symbolic proof first, coverage-guided differential fuzzing if the
/// design is too wide to prove. Default knobs throughout.
pub fn verify_equiv(fsmd: &Fsmd) -> VerifyReport {
    verify_equiv_with(fsmd, &ProveOptions::default(), &FuzzConfig::default())
}

/// [`verify_equiv`] with explicit prover and fuzzer configuration.
pub fn verify_equiv_with(fsmd: &Fsmd, prove: &ProveOptions, fuzz: &FuzzConfig) -> VerifyReport {
    settle(prove_equiv_with(fsmd, prove), fsmd, fuzz)
}

/// [`verify_equiv`] through a [`ProofCache`]: the verdict is replayed
/// when the machine's structural key (clock excluded — clock twins
/// share one proof) hits, and recorded otherwise. Every verdict in a
/// cache comes from the default knobs, so the key names the machine
/// alone.
pub fn verify_equiv_cached(fsmd: &Fsmd, cache: &ProofCache) -> VerifyReport {
    let key = fsmd_key(fsmd);
    if let Some(report) = cache.get_fsmd(&key) {
        return report;
    }
    let report = verify_equiv(fsmd);
    cache.put_fsmd(&key, &report);
    report
}

/// [`verify_equiv`], persisting any fuzzer-shrunk counterexample as an
/// on-disk regression fixture under `fixture_root` (see [`crate::fixtures`]
/// for the layout). A failed write never masks the verification verdict —
/// the report is returned either way, with the fixture digest alongside
/// when one was saved.
pub fn verify_equiv_persist(
    fsmd: &Fsmd,
    fixture_root: &std::path::Path,
) -> (VerifyReport, Option<String>) {
    let report = verify_equiv(fsmd);
    let digest = match &report.finding {
        VerifyFinding::FuzzCounterexample(cex) => {
            crate::fixtures::save_counterexample(fixture_root, &fsmd.name, cex).ok()
        }
        _ => None,
    };
    (report, digest)
}

/// Turns a prover verdict into a [`VerifyReport`], falling back to the
/// differential fuzzer when the prover gave up.
fn settle(verdict: ProveVerdict, fsmd: &Fsmd, fuzz: &FuzzConfig) -> VerifyReport {
    let finding = match verdict {
        ProveVerdict::Proved {
            obligations,
            sym_nodes,
        } => VerifyFinding::Proved {
            obligations: obligations.len(),
            bit_blasted: obligations
                .iter()
                .filter(|o| matches!(o.method, ProofMethod::BitBlast { .. }))
                .count(),
            sym_nodes,
        },
        ProveVerdict::Disproved(cex) => VerifyFinding::ProofCounterexample(cex),
        ProveVerdict::Unknown { reason, .. } => {
            let report = fuzz_equiv_with(fsmd, fuzz);
            match report.counterexample {
                Some(cex) => VerifyFinding::FuzzCounterexample(cex),
                None => VerifyFinding::Fuzzed {
                    prover_reason: reason,
                    calls: report.calls,
                    states: report.coverage.states(),
                    branch_directions: report.coverage.branch_directions(),
                },
            }
        }
    };
    VerifyReport { finding }
}

/// A sweep-scoped verifier: [`verify_equiv`] with two memoization layers
/// that exploit the structure of a design-space sweep.
///
/// 1. **IR-context sharing.** The IR side of a proof — symbolic start
///    state plus the interpreter's complete symbolic execution — depends
///    only on the FSMD's transformed function, not on its schedule,
///    binding or clock. Points are grouped by
///    `hls_core::transform_signature` (candidates sharing it share one
///    transformed function) and each group builds one [`IrContext`];
///    every proof in the group clones the symbolic table and runs only
///    the FSMD side. Roughly half of each proof's wall time is shared
///    this way. The group's function is still compared against each
///    member ([`Fsmd::function`] vs the context's), so a signature
///    collision across different source functions degrades to a private
///    context, never to a wrong proof.
/// 2. **Structural verdict memoization.** Clock twins — sweep points
///    whose schedules chain identically under different target clocks —
///    are [`Fsmd::same_machine`]: equal control, schedules, ports and
///    lowered design. The first twin's verdict is replayed for the rest;
///    the hit test is full structural equality, not a hash or heuristic.
///
/// Both layers are behind mutexes, so one prover can be shared by the
/// explorer's worker pool (it is `Sync`); [`explore_verified`] does
/// exactly that. A fresh proof uses [`verify_equiv`]'s default knobs,
/// so every report is the one [`verify_equiv`] gives for the machine.
pub struct ExploreProver {
    groups: Mutex<HashMap<String, Vec<Arc<ProofGroup>>>>,
    counters: Mutex<ProverStats>,
}

/// One shared-function group: the prebuilt IR context plus the verdicts
/// of every distinct machine proved so far.
struct ProofGroup {
    ctx: IrContext,
    machines: Mutex<Vec<(Fsmd, VerifyReport)>>,
}

/// Cache effectiveness counters for an [`ExploreProver`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProverStats {
    /// Distinct IR contexts built (one per distinct transformed function).
    pub contexts: usize,
    /// Proofs actually run (FSMD-side execution + obligations).
    pub proofs: usize,
    /// Verdicts replayed for structurally identical machines.
    pub memo_hits: usize,
}

impl Default for ExploreProver {
    fn default() -> ExploreProver {
        ExploreProver::new()
    }
}

impl ExploreProver {
    /// A fresh prover with empty memo layers.
    pub fn new() -> ExploreProver {
        ExploreProver {
            groups: Mutex::new(HashMap::new()),
            counters: Mutex::new(ProverStats::default()),
        }
    }

    /// [`verify_equiv`] through both memo layers. `directives` must be
    /// the directive set `fsmd` was synthesized under — its transform
    /// signature locates the shared group (and the group's function is
    /// verified against the FSMD's before anything is reused).
    pub fn verify(&self, directives: &hls_core::Directives, fsmd: &Fsmd) -> VerifyReport {
        let group = self.group_for(&hls_core::transform_signature(directives), fsmd);
        if let Some(hit) = group
            .machines
            .lock()
            .unwrap()
            .iter()
            .find(|(m, _)| m.same_machine(fsmd))
        {
            self.counters.lock().unwrap().memo_hits += 1;
            return hit.1.clone();
        }
        let report = settle(
            prove_equiv_in(&group.ctx, fsmd, &ProveOptions::default()),
            fsmd,
            &FuzzConfig::default(),
        );
        self.counters.lock().unwrap().proofs += 1;
        group
            .machines
            .lock()
            .unwrap()
            .push((fsmd.clone(), report.clone()));
        report
    }

    /// The group whose context executed exactly `fsmd.function()`,
    /// building it on first sight. Signature collisions (same signature,
    /// different function) get their own group.
    fn group_for(&self, signature: &str, fsmd: &Fsmd) -> Arc<ProofGroup> {
        let mut groups = self.groups.lock().unwrap();
        let bucket = groups.entry(signature.to_string()).or_default();
        if let Some(g) = bucket.iter().find(|g| g.ctx.function() == fsmd.function()) {
            return Arc::clone(g);
        }
        let g = Arc::new(ProofGroup {
            ctx: IrContext::for_function(fsmd.function()),
            machines: Mutex::new(Vec::new()),
        });
        self.counters.lock().unwrap().contexts += 1;
        bucket.push(Arc::clone(&g));
        g
    }

    /// Cache effectiveness so far.
    pub fn stats(&self) -> ProverStats {
        *self.counters.lock().unwrap()
    }
}

/// An equivalence gate for the synthesis pass manager.
///
/// Registered via `Pipeline::with_hook`, it fires twice:
///
/// - after `netlist-opt`, it re-lowers the transformed function, asks
///   `hls_core::netlist_obligations` for the per-pass rewrite
///   obligations of that lowering and discharges them through
///   [`crate::check_netlist_obligations`]. The obligations must end at
///   the design the pipeline carries: if they do not (a replayed prefix
///   the gate never saw being optimized, say), or a rewrite is refuted,
///   the gate emits a `netlist-equiv-failed` error, aborting synthesis.
///   An undecidable rewrite becomes a warning, and a fully proved set a
///   `netlist-equiv-ok` note;
/// - after `metrics` (the last synthesis stage), it builds the FSMD and
///   runs [`verify_equiv`] on it — end to end, against the *optimized*
///   design, so netlist `Unknown`s cost attribution but never soundness.
///   A counterexample becomes an `equiv-failed` error diagnostic —
///   aborting the remaining passes (RTL emission never sees an unproven
///   design) — and a clean result becomes an `equiv-ok` note, so the
///   pass trace records that verification ran.
#[derive(Debug, Clone, Default)]
pub struct EquivGate;

impl PassHook for EquivGate {
    fn after_pass(&self, pass: &str, state: &PipelineState, diags: &mut Diagnostics) {
        match pass {
            "netlist-opt" => gate_netlist(state, diags),
            "metrics" => {
                let Some(result) = state.to_result() else {
                    return;
                };
                let report = verify_equiv(&Fsmd::from_synthesis(&result));
                if report.passed() {
                    diags.push(Diagnostic::note("equiv-ok", report.describe()));
                } else {
                    diags.push(Diagnostic::error("equiv-failed", report.describe()));
                }
            }
            _ => {}
        }
    }
}

/// The gate's `netlist-opt` check: the rewrite obligations of lowering
/// `state.func` must end at the design the pipeline carries, and every
/// one must prove.
fn gate_netlist(state: &PipelineState, diags: &mut Diagnostics) {
    let Some(carried) = &state.lowered else {
        return;
    };
    let raw = lower(&state.func, &state.directives);
    let obligations = netlist_obligations(&raw, &state.directives.netlist_opt, &state.lib);
    let optimized = obligations.last().map_or(&raw, |ob| &ob.after);
    if optimized != carried {
        diags.push(Diagnostic::error(
            "netlist-equiv-failed",
            "the carried design is not the optimizer's output for this lowering",
        ));
        return;
    }
    if obligations.is_empty() {
        return;
    }
    let mut proved = 0usize;
    let mut unknown: Vec<String> = Vec::new();
    for (ob, verdict) in obligations.iter().zip(crate::check_netlist_obligations(
        &obligations,
        &ProveOptions::default(),
    )) {
        match verdict {
            ProveVerdict::Proved { .. } => proved += 1,
            ProveVerdict::Disproved(cex) => {
                diags.push(Diagnostic::error(
                    "netlist-equiv-failed",
                    format!(
                        "pass {} broke observable {} (ir={}, rtl={})",
                        ob.pass, cex.observable, cex.ir_value, cex.rtl_value
                    ),
                ));
                return;
            }
            ProveVerdict::Unknown { reason, .. } => unknown.push(reason),
        }
    }
    if unknown.is_empty() {
        diags.push(Diagnostic::note(
            "netlist-equiv-ok",
            format!("{proved} netlist rewrite obligation(s) proved"),
        ));
    } else {
        diags.push(Diagnostic::warning(
            "netlist-equiv-unknown",
            format!(
                "{proved} proved, {} undecided ({}); end-to-end gate still applies",
                unknown.len(),
                unknown.join("; ")
            ),
        ));
    }
}

/// Design-space exploration gated on equivalence: explores like
/// `hls_core::explore` and verifies the points selected by
/// [`ExploreConfig::verify`] *inside* the explorer's worker pool, reusing
/// each point's already-built synthesis result (no re-synthesis) and a
/// shared [`ExploreProver`] (IR-context sharing + structural verdict
/// memoization across the sweep). Any failure lands in
/// `ExploreResult::verify_failures`.
pub fn explore_verified(
    func: &Function,
    config: &ExploreConfig,
    lib: &TechLibrary,
) -> ExploreResult {
    explore_verified_with(func, config, lib, &ExploreProver::new())
}

/// [`explore_verified`] with a caller-owned [`ExploreProver`], so the
/// caller can read the prover's [`ExploreProver::stats`] afterwards, or
/// let one prover span several sweeps: a re-sweep replays the verdicts
/// of machines it already proved.
pub fn explore_verified_with(
    func: &Function,
    config: &ExploreConfig,
    lib: &TechLibrary,
    prover: &ExploreProver,
) -> ExploreResult {
    explore_with_check(func, config, lib, &|_, d, _, result| {
        let fsmd = Fsmd::from_synthesis(result);
        let report = prover.verify(d, &fsmd);
        if report.passed() {
            Ok(())
        } else {
            Err(report.describe())
        }
    })
}
