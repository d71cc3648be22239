//! Register-transfer-level back end: FSMD netlists generated from
//! schedules, a compiled cycle-accurate simulator ([`CompiledSim`]), and a
//! Verilog-2001 emitter.
//!
//! This closes the verification loop of the paper's Figure 1: the
//! generated RTL is simulated against the untimed algorithm (the
//! `hls-ir` interpreter) on the same stimulus — see the workspace
//! integration tests — and the same design can be emitted as Verilog for
//! an external flow (the paper's FPGA-prototyping path).
//!
//! # Example
//!
//! ```
//! use hls_core::{synthesize, Directives, TechLibrary};
//! use hls_ir::{FunctionBuilder, Ty, Expr, CmpOp};
//! use rtl::{CompiledSim, Fsmd, emit_verilog};
//!
//! let mut b = FunctionBuilder::new("twice");
//! let x = b.param_scalar("x", Ty::fixed(8, 4));
//! let y = b.param_scalar("y", Ty::fixed(10, 6));
//! b.assign(y, Expr::add(Expr::var(x), Expr::var(x)));
//! let r = synthesize(&b.build(), &Directives::new(10.0), &TechLibrary::asic_100mhz())?;
//!
//! let fsmd = Fsmd::from_synthesis(&r);
//! let verilog = emit_verilog(&fsmd);
//! assert!(verilog.contains("module twice"));
//!
//! let mut sim = CompiledSim::from_fsmd(&fsmd);
//! # use fixpt::{Fixed, Format};
//! let out = sim.run_call(&[(x, hls_ir::Slot::Scalar(Fixed::from_f64(1.25, Format::signed(8, 4))))])
//!     .expect("simulates");
//! assert_eq!(out[&y].scalar().unwrap().to_f64(), 2.5);
//! # Ok::<(), hls_core::SynthesisError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compile;
mod fsmd;
pub mod passes;
mod sim;
mod testbench;
mod vcd;
mod verilog;

pub use compile::{CompiledSim, SimProgram};
pub use fsmd::{Control, Fsmd};
pub use passes::{compile, compile_traced, RtlArtifacts};
pub use sim::{RtlSimulator, SimError};
pub use testbench::{capture_vectors, emit_testbench, TestVector};
pub use vcd::VcdRecorder;
pub use verilog::{emit_verilog, emit_verilog_with_diagnostics};
