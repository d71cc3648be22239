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
//! [`verify_equiv_cached`] on every verified request, and a sweep's
//! [`ExploreProver`] takes the same step: compute the machine's
//! [`fsmd_key`], replay the verdict a [`ProofCache`] holds under it or
//! prove and record one. That key is the only relation deciding that two
//! machines share a verdict. The per-rewrite
//! netlist obligations have their own checker
//! ([`crate::check_netlist_obligations`]), which the `netlist_opt`
//! report runs on every rewrite of its grid.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use hls_core::{explore_with_check, ExploreConfig, ExploreResult, TechLibrary};
use hls_ir::{Function, StableHasher};
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
    replay_or_prove(fsmd, cache, || verify_equiv(fsmd))
}

/// The one verdict step: the report `cache` holds under `fsmd`'s key, or
/// else `prove`'s report, recorded there. `prove` must give the report
/// [`verify_equiv`] gives; callers differ only in where the IR half of
/// the proof comes from.
fn replay_or_prove(
    fsmd: &Fsmd,
    cache: &ProofCache,
    prove: impl FnOnce() -> VerifyReport,
) -> VerifyReport {
    let key = fsmd_key(fsmd);
    if let Some(report) = cache.get_fsmd(&key) {
        return report;
    }
    let report = prove();
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

/// A sweep-scoped verifier: [`verify_equiv_cached`] with the IR half of
/// each proof shared across the sweep.
///
/// Verdicts live in a [`ProofCache`] under [`fsmd_key`], the key the
/// service uses: a machine whose key was proved before (a clock twin, or
/// another directive set that synthesizes the same machine) replays that
/// verdict. On a miss, the proof runs on an [`IrContext`] shared by every
/// machine of the same function. The IR half of a proof (symbolic start
/// state plus the interpreter's complete symbolic execution) depends only
/// on the FSMD's transformed function, not on its schedule, binding or
/// clock, and holds roughly half of each proof's wall time. Contexts are
/// keyed by a digest of the function, and a context is reused only for a
/// function equal to its own, constants compared by raw bits and format;
/// any other function under that digest proves on a private context.
///
/// The prover is `Sync`, so the explorer's worker pool shares one;
/// [`explore_verified`] does exactly that. Every proof uses
/// [`verify_equiv`]'s default knobs, so every report is the one
/// [`verify_equiv`] gives for the machine.
pub struct ExploreProver {
    verdicts: ProofCache,
    contexts: Mutex<HashMap<String, Arc<IrContext>>>,
    built: AtomicUsize,
}

/// Cache effectiveness counters for an [`ExploreProver`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProverStats {
    /// IR contexts built (one per distinct transformed function).
    pub contexts: usize,
    /// Proofs run: verdict lookups that missed.
    pub proofs: usize,
    /// Verdicts replayed for machines with an equal key.
    pub memo_hits: usize,
}

impl Default for ExploreProver {
    fn default() -> ExploreProver {
        ExploreProver::new()
    }
}

impl ExploreProver {
    /// A fresh prover with no verdicts and no contexts.
    pub fn new() -> ExploreProver {
        ExploreProver {
            verdicts: ProofCache::in_memory(),
            contexts: Mutex::new(HashMap::new()),
            built: AtomicUsize::new(0),
        }
    }

    /// [`verify_equiv_cached`] through this prover's verdicts, proving a
    /// miss on the shared context of the machine's function.
    pub fn verify(&self, fsmd: &Fsmd) -> VerifyReport {
        replay_or_prove(fsmd, &self.verdicts, || {
            let ctx = self.context_for(fsmd.function());
            settle(
                prove_equiv_in(&ctx, fsmd, &ProveOptions::default()),
                fsmd,
                &FuzzConfig::default(),
            )
        })
    }

    /// The context that executed exactly `f`, built on first sight while
    /// the map is locked. The digest hashes every constant's raw bits and
    /// format, so only a collision names a context built for another
    /// function; `f` then gets a private one.
    fn context_for(&self, f: &Function) -> Arc<IrContext> {
        let build = || {
            self.built.fetch_add(1, Ordering::Relaxed);
            Arc::new(IrContext::for_function(f))
        };
        let mut hasher = StableHasher::new();
        f.hash(&mut hasher);
        let mut contexts = self.contexts.lock().expect("context map poisoned");
        let ctx = contexts.entry(hasher.hex()).or_insert_with(build);
        if ctx.function() == f && ctx.function().same_constants(f) {
            Arc::clone(ctx)
        } else {
            build()
        }
    }

    /// Cache effectiveness so far.
    pub fn stats(&self) -> ProverStats {
        let verdicts = self.verdicts.stats();
        ProverStats {
            contexts: self.built.load(Ordering::Relaxed),
            proofs: verdicts.misses as usize,
            memo_hits: verdicts.hits as usize,
        }
    }
}

/// Design-space exploration gated on equivalence: explores like
/// `hls_core::explore` and verifies the points selected by
/// [`ExploreConfig::verify`] *inside* the explorer's worker pool, reusing
/// each point's already-built synthesis result (no re-synthesis) and a
/// shared [`ExploreProver`] (IR contexts shared per function, verdicts
/// replayed per [`fsmd_key`]). Any failure lands in
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
/// of machines it already proved (up to [`crate::proofcache::CAPACITY`]
/// verdicts, the least recently used evicted first).
pub fn explore_verified_with(
    func: &Function,
    config: &ExploreConfig,
    lib: &TechLibrary,
    prover: &ExploreProver,
) -> ExploreResult {
    explore_with_check(func, config, lib, &|_, _, _, result| {
        let fsmd = Fsmd::from_synthesis(result);
        let report = prover.verify(&fsmd);
        if report.passed() {
            Ok(())
        } else {
            Err(report.describe())
        }
    })
}
