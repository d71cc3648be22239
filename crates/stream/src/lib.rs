//! Stream-interface synthesis and multi-module system composition.
//!
//! The DATE 2005 flow synthesizes *one* C function into *one* module with
//! a start/done call interface. Real receivers are pipelines of such
//! modules; this crate closes that gap:
//!
//! * [`synthesize_stream`] runs the normal synthesis stages and wraps
//!   the FSMD in a ready/valid [`HandshakeShell`] — one token in per
//!   call, one token out, with a registered output stage so `ready` never
//!   depends combinationally on `valid`.
//! * [`SystemGraph`] composes shelled modules through typed FIFO
//!   channels ([`ChannelCfg`]), validates formats and forbids
//!   zero-latency fall-through cycles.
//! * [`SystemSim`] co-simulates the composed system cycle by cycle,
//!   stepping each member's compiled simulator behind its shell through
//!   the FIFOs, under arbitrary per-port [`StallSchedule`]s.
//! * [`check_latency_insensitivity`] proves the composition's output
//!   token streams invariant under randomized backpressure and FIFO
//!   depths.
//! * [`emit_system_verilog`] writes the top-level netlist: a generated
//!   `stream_fifo` primitive, one handshake wrapper per module and the
//!   system module wiring them together.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod check;
mod graph;
mod shell;
mod sim;
mod verilog;

pub use check::{check_latency_insensitivity, LiConfig, LiFailure, LiReport};
pub use graph::{ChannelCfg, GraphError, ModuleId, SystemGraph, Topology};
pub use shell::{
    synthesize_stream, synthesize_stream_sweep, HandshakeShell, ShellError, StreamModule,
    StreamPort,
};
pub use sim::{StallPlan, StallSchedule, SystemRun, SystemSim, SystemSimError};
pub use verilog::emit_system_verilog;
