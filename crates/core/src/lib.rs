//! Guided algorithmic synthesis: the primary contribution of *C Based
//! Hardware Design for Wireless Applications* (DATE 2005), reproduced.
//!
//! The engine turns an untimed [`hls_ir::Function`] into a cycle-accurate
//! architecture under designer-supplied [`Directives`]:
//!
//! - **interface synthesis** — parameters become wires, registered
//!   handshake ports, memories or streams ([`InterfaceKind`]);
//! - **variable/array mapping** — arrays split into registers or map to
//!   ported memories ([`ArrayMapping`]);
//! - **loop unrolling** and **loop merging** — structured rewrites with a
//!   value-based dependence analysis ([`transform`]);
//! - **loop pipelining** — initiation-interval accounting with recurrence
//!   checks;
//! - **scheduling** — resource-constrained list scheduling with operator
//!   chaining against a [`TechLibrary`];
//! - **allocation/binding** — functional-unit sharing, register and mux
//!   estimation, and the reports the paper names (bill of materials, Gantt
//!   chart, critical path).
//!
//! The entry point is [`synthesize`]; see the crate examples and the
//! `qam-decoder` crate for the paper's full case study.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allocate;
pub mod bound;
pub mod dfg;
mod directives;
mod error;
pub mod explore;
mod fxhash;
mod lower;
mod lru;
mod metrics;
pub mod netlist;
pub mod passcache;
pub mod pipeline;
pub mod report;
mod schedule;
mod synthesize;
mod tech;
pub mod transform;

pub use allocate::{allocate, Allocation, FuGroup};
pub use bound::{bound_from_profile, bound_profile, lower_bound, BoundProfile, DesignBound};
pub use directives::{
    ArrayMapping, Directives, InterfaceKind, LoopDirective, MergePolicy, StreamInterface, Unroll,
};
pub use error::SynthesisError;
pub use explore::{
    explore, explore_serial, explore_with_check, par_map, DesignPoint, ExploreBudget,
    ExploreConfig, ExploreResult, LoopGrid, PointChecker, PrunedCandidate, VerifyLevel, WaveStats,
};
pub use hls_ir::{Anchor, Diagnostic, Diagnostics, Severity};
pub use lower::{lower, Lowered, Port, Segment};
pub use lru::{CacheStats, Lru};
pub use metrics::{segment_cycles, DesignMetrics, SegmentCycles};
pub use netlist::{
    apply_unsound_rewrite_for_selftest, netlist_obligations, optimize_lowered, NetlistObligation,
    NetlistOptConfig, NetlistReport, OptLevel, PassDelta,
};
pub use passcache::{NetlistEntry, PassCache, PassCacheConfig, PassCacheStats};
pub use pipeline::{
    synthesize_traced, synthesize_traced_with_prefix, CacheActivity, InvariantCheck, IrStats,
    PassRecord, PassTrace, PipelineConfig, PipelineRun,
};
pub use schedule::{recurrence_min_ii, schedule_dfg, Schedule};
pub use synthesize::{synthesize, SynthesisResult};
pub use tech::{OpClass, TechLibrary};
pub use transform::{
    apply_loop_transforms, merge_hazards, HazardKind, MergeHazard, MergeReport, TransformResult,
};
