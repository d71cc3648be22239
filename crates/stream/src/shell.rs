//! Handshake shells: the stream-interface synthesis step.
//!
//! The paper's directive list *leads* with interface synthesis; this
//! module reproduces it for streams. A [`HandshakeShell`] wraps a
//! synthesized FSMD's start/done call interface in ready/valid token
//! ports: one input token carries every `In` parameter, one output token
//! every `Out` parameter. The shell stalls the core on `!in_valid` /
//! `!out_ready` and holds results in a registered output stage, so
//! `ready` is never a combinational function of `valid` — the property
//! that keeps composed systems free of handshake combinational loops.
//!
//! [`synthesize_stream`] builds the shell from a finished synthesis: the
//! synthesis stages, then the FSMD, then [`HandshakeShell::from_synthesis`]
//! under the [`Directives::stream`] directive.

use std::fmt;

use fixpt::Format;
use hls_core::{Directives, SynthesisError, SynthesisResult, TechLibrary};
use hls_ir::{Direction, VarId};
use rtl::Fsmd;

/// One stream port of a shelled module: a parameter of the synthesized
/// function lifted to a ready/valid token port.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamPort {
    /// Port name (the parameter's name).
    pub name: String,
    /// The backing parameter in the lowered function.
    pub var: VarId,
    /// Fixed-point format of one element.
    pub format: Format,
    /// Element width in bits.
    pub width: u32,
    /// Elements per token (1 for scalars, N for array parameters —
    /// an array travels as one wide token, not serialized).
    pub elements: usize,
}

impl StreamPort {
    /// Total payload bits of one token on this port.
    pub fn token_bits(&self) -> u64 {
        self.width as u64 * self.elements as u64
    }
}

/// Why a design cannot be wrapped in a stream shell.
#[derive(Debug, Clone, PartialEq)]
pub enum ShellError {
    /// An `InOut` parameter: a stream token flows one way; read-modify-
    /// write state belongs in statics, not parameters.
    InOutParam {
        /// The offending parameter.
        param: String,
    },
    /// The design consumes nothing — it cannot sit in a dataflow graph.
    NoInputs {
        /// The design name.
        module: String,
    },
    /// The design produces nothing.
    NoOutputs {
        /// The design name.
        module: String,
    },
    /// A parameter without a fixed-point format (boolean).
    UnsupportedPort {
        /// The offending parameter.
        param: String,
    },
}

impl fmt::Display for ShellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShellError::InOutParam { param } => write!(
                f,
                "parameter `{param}` is InOut; stream tokens flow one way — keep \
                 read-modify-write state in a static"
            ),
            ShellError::NoInputs { module } => {
                write!(f, "design `{module}` has no In parameters to stream")
            }
            ShellError::NoOutputs { module } => {
                write!(f, "design `{module}` has no Out parameters to stream")
            }
            ShellError::UnsupportedPort { param } => {
                write!(f, "parameter `{param}` has no fixed-point format")
            }
        }
    }
}

impl std::error::Error for ShellError {}

/// The ready/valid handshake shell around one synthesized design.
#[derive(Debug, Clone)]
pub struct HandshakeShell {
    /// The wrapped design's name.
    pub module: String,
    /// Input token ports (one per `In` parameter, declaration order).
    pub inputs: Vec<StreamPort>,
    /// Output token ports (one per `Out` parameter, declaration order).
    pub outputs: Vec<StreamPort>,
    /// Core cycles per token (the FSMD's start-to-done latency).
    pub core_latency: u64,
    /// Shell cycles per token: core latency plus one for the registered
    /// output (skid) stage that decouples `ready` from `valid`.
    pub shell_latency: u64,
    /// Core datapath + controller area (abstract units).
    pub core_area: f64,
    /// Handshake overhead area: output holding registers, per-port
    /// valid/ready state bits and the 3-state shell controller.
    pub overhead_area: f64,
}

impl HandshakeShell {
    /// Derives the shell of a synthesized design: `In` parameters become
    /// input token ports, `Out` parameters output token ports.
    ///
    /// # Errors
    ///
    /// Returns a [`ShellError`] for `InOut` or boolean parameters and
    /// for designs with no inputs or no outputs.
    pub fn from_synthesis(r: &SynthesisResult, lib: &TechLibrary) -> Result<Self, ShellError> {
        let func = &r.lowered.func;
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        for &p in &func.params {
            let v = func.var(p);
            let format = v.ty.format().ok_or_else(|| ShellError::UnsupportedPort {
                param: v.name.clone(),
            })?;
            let port = StreamPort {
                name: v.name.clone(),
                var: p,
                format,
                width: v.ty.width(),
                elements: v.len.unwrap_or(1),
            };
            match func.param_direction(p) {
                Direction::In => inputs.push(port),
                Direction::Out => outputs.push(port),
                Direction::InOut => {
                    return Err(ShellError::InOutParam {
                        param: v.name.clone(),
                    })
                }
            }
        }
        if inputs.is_empty() {
            return Err(ShellError::NoInputs {
                module: func.name.clone(),
            });
        }
        if outputs.is_empty() {
            return Err(ShellError::NoOutputs {
                module: func.name.clone(),
            });
        }
        // Overhead: one holding register per output token bit (the
        // registered skid stage), one captured/pending flag per port,
        // and the Collect -> Busy -> Offer controller.
        let holding_bits: u64 = outputs.iter().map(StreamPort::token_bits).sum();
        let flag_bits = (inputs.len() + outputs.len()) as u64;
        let overhead_area =
            lib.register_area(holding_bits) + lib.register_area(flag_bits) + lib.controller_area(3);
        let core_latency = r.metrics.latency_cycles;
        Ok(HandshakeShell {
            module: func.name.clone(),
            inputs,
            outputs,
            core_latency,
            shell_latency: core_latency + 1,
            core_area: r.metrics.area,
            overhead_area,
        })
    }

    /// Handshake area overhead relative to the core, in percent.
    pub fn overhead_pct(&self) -> f64 {
        100.0 * self.overhead_area / self.core_area.max(f64::MIN_POSITIVE)
    }

    /// The input port named `name`, if any.
    pub fn input(&self, name: &str) -> Option<(usize, &StreamPort)> {
        self.inputs.iter().enumerate().find(|(_, p)| p.name == name)
    }

    /// The output port named `name`, if any.
    pub fn output(&self, name: &str) -> Option<(usize, &StreamPort)> {
        self.outputs
            .iter()
            .enumerate()
            .find(|(_, p)| p.name == name)
    }
}

/// One stream-shelled module ready for system composition: the synthesis
/// result, its FSMD and its handshake shell.
#[derive(Debug, Clone)]
pub struct StreamModule {
    /// The full synthesis result (metrics, schedules, allocation).
    pub result: SynthesisResult,
    /// The FSMD netlist (simulation + Verilog source).
    pub fsmd: Fsmd,
    /// The handshake shell.
    pub shell: HandshakeShell,
    /// The stream directive the module was synthesized under (default
    /// channel depth / fall-through for its ports).
    pub stream: hls_core::StreamInterface,
}

/// Synthesizes a function straight to a stream-shelled module: the
/// synthesis stages, the FSMD built from their result, and the
/// [`HandshakeShell`] around it. The directive set must carry
/// [`Directives::stream`].
///
/// # Errors
///
/// Returns the synthesis [`SynthesisError`] on any stage failure, and an
/// `invalid-pipeline-config` error when the stream directive is absent
/// or the design cannot be shelled (see [`ShellError`]).
pub fn synthesize_stream(
    func: &hls_ir::Function,
    directives: &Directives,
    lib: &TechLibrary,
) -> Result<StreamModule, SynthesisError> {
    let Some(stream) = directives.stream else {
        return Err(SynthesisError::InvalidPipelineConfig {
            problems: vec![
                "synthesize_stream needs a `stream` interface directive (Directives::stream_interface)"
                    .to_string(),
            ],
        });
    };
    let result = hls_core::synthesize(func, directives, lib)?;
    let fsmd = Fsmd::from_synthesis(&result);
    let shell = HandshakeShell::from_synthesis(&result, lib).map_err(|e| {
        SynthesisError::InvalidPipelineConfig {
            problems: vec![format!("stream-shell: {e}")],
        }
    })?;
    Ok(StreamModule {
        result,
        fsmd,
        shell,
        stream,
    })
}

/// Synthesizes every architecture row of a `(name, directives)` sweep,
/// returning `(name, module)` pairs — the stream counterpart of the
/// Table-1 sweep helpers.
///
/// # Errors
///
/// Fails on the first row that fails.
pub fn synthesize_stream_sweep(
    func: &hls_ir::Function,
    architectures: &[(String, Directives)],
    lib: &TechLibrary,
) -> Result<Vec<(String, StreamModule)>, SynthesisError> {
    architectures
        .iter()
        .map(|(name, d)| synthesize_stream(func, d, lib).map(|m| (name.clone(), m)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::{Expr, FunctionBuilder, Ty};

    fn ty() -> Ty {
        Ty::fixed(12, 4)
    }

    fn lib() -> TechLibrary {
        TechLibrary::asic_100mhz()
    }

    #[test]
    fn shell_classifies_ports_and_charges_overhead() {
        let w = dsp::cordic_stream(4);
        let m = synthesize_stream(&w.func, &w.directives, &lib()).expect("synthesizes");
        let names: Vec<&str> = m.shell.inputs.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["xin", "yin", "zin"]);
        let names: Vec<&str> = m.shell.outputs.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["xout", "yout"]);
        assert_eq!(m.shell.shell_latency, m.shell.core_latency + 1);
        assert!(m.shell.overhead_area > 0.0);
        assert!(m.shell.overhead_pct() > 0.0);
    }

    #[test]
    fn inout_parameters_are_rejected() {
        let mut b = FunctionBuilder::new("rmw");
        let a = b.param_scalar("a", ty());
        let y = b.param_scalar("y", ty());
        // `a` is read and written: InOut.
        b.assign(a, Expr::add(Expr::var(a), Expr::int_const(1)));
        b.assign(y, Expr::var(a));
        let func = b.build();
        let d = Directives::new(10.0).stream_interface(2, false);
        let err = synthesize_stream(&func, &d, &lib()).unwrap_err();
        assert!(err.to_string().contains("InOut"), "unexpected error: {err}");
    }

    #[test]
    fn pure_sinks_and_sources_are_rejected() {
        let mut b = FunctionBuilder::new("source");
        let y = b.param_scalar("y", ty());
        b.assign(y, Expr::int_const(3));
        let func = b.build();
        let d = Directives::new(10.0).stream_interface(2, false);
        let err = synthesize_stream(&func, &d, &lib()).unwrap_err();
        assert!(
            err.to_string().contains("no In parameters"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn missing_stream_directive_is_an_explicit_error() {
        let w = dsp::fir_stream(4);
        let err = synthesize_stream(&w.func, &Directives::new(10.0), &lib()).unwrap_err();
        assert!(
            err.to_string().contains("stream"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn sweep_synthesizes_every_architecture() {
        let w = dsp::fir_stream(4);
        let rows = synthesize_stream_sweep(&w.func, &w.architectures, &lib()).expect("all rows");
        assert_eq!(rows.len(), w.architectures.len());
        // Unrolling changes latency but never the interface.
        for (_, m) in &rows {
            assert_eq!(m.shell.inputs.len(), 1);
            assert_eq!(m.shell.outputs.len(), 1);
        }
    }
}
