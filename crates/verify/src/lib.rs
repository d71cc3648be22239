//! # hls-verify
//!
//! The flow's correctness backbone: *proves* — not just samples — that a
//! synthesized FSMD implements its untimed IR function.
//!
//! Three layers, used in order by [`verify_equiv`]:
//!
//! 1. **Symbolic proof** ([`equiv`]): both machines execute into one
//!    hash-consed, normalizing bit-vector expression DAG ([`sym`]);
//!    observables that intern to the same canonical node are proved for
//!    all inputs, and narrow residual obligations are decided by
//!    exhaustive bit-blast.
//! 2. **Coverage-guided differential fuzzing** ([`fuzz`]): for designs
//!    too wide to prove, deterministic seeded stimulus evolves under
//!    FSMD branch/state coverage, and any mismatch against the
//!    interpreter is **shrunk** to a minimal failing stimulus.
//! 3. **Integration** ([`explore_verified`], the `verify_equiv` CLI in
//!    `bench-harness`, and mutation self-checks in [`mutate`]) so
//!    design-space exploration and CI can gate on equivalence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod equiv;
pub mod fsmd_exec;
pub mod fuzz;
pub mod ir_exec;
pub mod mutate;
pub mod netlist;
pub mod pipeline;
pub mod proofcache;
pub mod state;
pub mod sym;

pub use equiv::{
    prove_equiv, prove_equiv_in, prove_equiv_with, IrContext, Obligation, ProofCex, ProofMethod,
    ProveOptions, ProveVerdict,
};
pub use fuzz::{
    fuzz_equiv, fuzz_equiv_with, replay_stimulus, Coverage, FuzzCex, FuzzConfig, FuzzReport,
    SplitMix64, Stimulus,
};
pub use mutate::{mutate_fsmd, mutations_for, Mutation};
pub use netlist::{
    check_netlist_obligation, check_netlist_obligation_with, check_netlist_obligations,
    exec_lowered, NetlistCrossCheck,
};
pub use pipeline::{
    explore_verified, explore_verified_with, verify_equiv, verify_equiv_cached, verify_equiv_with,
    ExploreProver, ProverStats, VerifyFinding, VerifyReport,
};
pub use proofcache::{fsmd_key, ProofCache, ProofCacheConfig, ProofCacheStats};
