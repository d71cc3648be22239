//! Typed structured intermediate representation for algorithmic synthesis.
//!
//! This crate is the front half of the flow described in *C Based Hardware
//! Design for Wireless Applications* (DATE 2005). Where Catapult C consumes
//! untimed C++, this reproduction consumes IR built through
//! [`FunctionBuilder`] — the same constructs the paper's Figure 4 uses:
//! labelled counted loops, static state arrays, fixed-point expressions with
//! explicit quantization/overflow casts, and typed parameters whose
//! direction (in/out/inout) is inferred from use.
//!
//! The crate also carries the two analyses the synthesis engine relies on:
//!
//! - [`validate`] — structural and type checking,
//! - [`bitwidth`] — automatic bit reduction (the paper's Figure 2), and
//! - [`Interpreter`] — a bit-accurate executable semantics that serves as
//!   the golden reference for loop transforms and generated RTL.
//!
//! # Example
//!
//! ```
//! use hls_ir::{FunctionBuilder, Ty, Expr, CmpOp, Interpreter, Slot, validate};
//! use fixpt::{Fixed, Format};
//!
//! let mut b = FunctionBuilder::new("scale");
//! let x = b.param_array("x", Ty::fixed(10, 2), 4);
//! let out = b.param_array("y", Ty::fixed(10, 2), 4);
//! b.for_loop("s", 0, CmpOp::Lt, 4, 1, |b, k| {
//!     let half = Expr::Const(Fixed::from_f64(0.5, Format::signed(2, 1)));
//!     b.store(out, Expr::var(k), Expr::mul(Expr::load(x, Expr::var(k)), half));
//! });
//! let f = b.build();
//! assert!(validate(&f).is_empty());
//!
//! let mut interp = Interpreter::new(f);
//! let fmt = Format::signed(10, 2);
//! let input = Slot::Array(vec![Fixed::from_f64(1.5, fmt); 4]);
//! let result = interp.call(&[(x, input)])?;
//! assert_eq!(result[&out].array().unwrap()[0].to_f64(), 0.75);
//! # Ok::<(), hls_ir::EvalError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitwidth;
mod build;
pub mod diag;
mod expr;
mod func;
mod interp;
pub mod json;
mod parse;
mod stmt;
mod ty;
mod validate;

pub use build::FunctionBuilder;
pub use diag::{Anchor, Diagnostic, Diagnostics, Severity};
pub use expr::{BinOp, CmpOp, Expr, UnOp};
pub use func::{Direction, Function, Var, VarId, VarKind};
pub use interp::{EvalError, Interpreter, Slot, Value};
pub use json::{stable_digest, Json, JsonError, StableHasher};
pub use parse::{parse_function, ParseError};
pub use stmt::{collect_loops, Loop, Stmt, MAX_TRIP_COUNT};
pub use ty::Ty;
pub use validate::{validate, validate_diagnostics, ValidateError};
