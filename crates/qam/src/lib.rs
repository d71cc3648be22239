//! The paper's case study: a 64-QAM adaptive decision-feedback equalizer in
//! three equivalent forms, plus the Table-1 architectures.
//!
//! - [`QamDecoderFixed`] — a statement-for-statement bit-accurate port of
//!   the paper's Figure 4 C++ (fixed-point, `static` state).
//! - [`build_qam_decoder_ir`] — the same algorithm as synthesis IR (the
//!   flow's input), with [`IrDecoder`] driving it through the interpreter.
//! - [`dsp::Equalizer`] — the floating-point algorithm-validation model.
//!
//! [`table1_architectures`] carries the four directive sets of the paper's
//! Table 1 together with the reported latency/rate/area rows.
//!
//! # Example: synthesize the default architecture
//!
//! ```
//! use qam_decoder::{build_qam_decoder_ir, table1_architectures, DecoderParams, table1_library};
//!
//! let ir = build_qam_decoder_ir(&DecoderParams::default());
//! let arch = &table1_architectures()[0]; // "merged"
//! let result = hls_core::synthesize(&ir.func, &arch.directives, &table1_library())?;
//! assert_eq!(result.metrics.latency_cycles, 35); // 3 + 16 + 16
//! # Ok::<(), hls_core::SynthesisError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arch;
mod fixed;
mod harness;
mod ir;
mod params;
mod rtl_harness;
mod source;

pub use arch::{
    table1_architectures, table1_library, Architecture, PaperRow, BITS_PER_CALL, CLOCK_NS,
};
pub use fixed::{data_code, DecodeOutput, QamDecoderFixed};
pub use harness::{IrDecoder, TapPairs};
pub use ir::{build_qam_decoder_ir, QamDecoderIr};
pub use params::DecoderParams;
pub use rtl_harness::{RtlBuildError, RtlDecoder};
pub use source::{parse_qam_decoder, QAM_DECODER_SOURCE};
