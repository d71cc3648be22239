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
//! frontier (or every point) on equivalence. The service runs
//! [`verify_equiv_cached`] on every verified request. The per-rewrite
//! netlist obligations have their own checker
//! ([`crate::check_netlist_obligations`]), which the `netlist_opt`
//! report runs on every rewrite of its grid.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use hls_core::{explore_with_check, ExploreConfig, ExploreResult, TechLibrary};
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
///    member ([`Fsmd::function`] vs the context's, constants by raw bits
///    and format), so a signature collision across different source
///    functions degrades to a private context, never to a wrong proof.
/// 2. **Structural verdict memoization.** Clock twins — sweep points
///    whose schedules chain identically under different target clocks —
///    are [`Fsmd::same_machine`]: equal control, schedules, ports and
///    lowered design, constants compared by raw bits and format. The
///    first twin's verdict is replayed for the rest; the hit test is full
///    structural equality, not a hash or heuristic.
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
    /// different function) get their own group, and so does a function
    /// whose constants differ from the group's only in format.
    fn group_for(&self, signature: &str, fsmd: &Fsmd) -> Arc<ProofGroup> {
        let mut groups = self.groups.lock().unwrap();
        let bucket = groups.entry(signature.to_string()).or_default();
        let f = fsmd.function();
        if let Some(g) = bucket
            .iter()
            .find(|g| g.ctx.function() == f && g.ctx.function().same_constants(f))
        {
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
