//! Synthesis errors: the typed failure kinds of the pipeline.
//!
//! Every variant maps onto a structured [`Diagnostic`] (stable code,
//! severity, source anchors) via [`SynthesisError::to_diagnostic`]; the
//! stage recorder stamps the pass of origin when a stage returns one.

use std::fmt;

use hls_ir::{Anchor, Diagnostic};

/// Failure to synthesize a design.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthesisError {
    /// The input IR failed validation.
    InvalidIr {
        /// The validation messages.
        problems: Vec<String>,
    },
    /// The requested clock period is not a positive finite number.
    InvalidClock {
        /// The offending clock period.
        clock_ns: f64,
    },
    /// A directive referenced a loop label that does not exist.
    UnknownLoop {
        /// The missing label.
        label: String,
    },
    /// A directive referenced an array/parameter name that does not exist.
    UnknownVariable {
        /// The missing name.
        name: String,
    },
    /// A single operation is slower than the clock period.
    InfeasibleClock {
        /// Description of the offending operation.
        op: String,
        /// Its propagation delay in nanoseconds.
        delay_ns: f64,
        /// The requested clock period.
        clock_ns: f64,
    },
    /// A requested pipeline initiation interval is below the minimum forced
    /// by recurrences or resource limits.
    InfeasibleInitiationInterval {
        /// The loop label.
        label: String,
        /// The requested II.
        requested: u32,
        /// The minimum achievable II.
        minimum: u32,
    },
    /// The scheduler could not place all operations (over-constrained
    /// resources).
    Unschedulable {
        /// Human-readable context.
        context: String,
    },
    /// The flow was asked for something it cannot build: a stream module
    /// without a stream interface directive, or a design the stream shell
    /// cannot wrap (`hls_stream::synthesize_stream`).
    InvalidPipelineConfig {
        /// The configuration problems.
        problems: Vec<String>,
    },
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::InvalidIr { problems } => {
                write!(f, "input IR failed validation: {}", problems.join("; "))
            }
            SynthesisError::InvalidClock { clock_ns } => {
                write!(
                    f,
                    "clock period {clock_ns} ns is not a positive finite number"
                )
            }
            SynthesisError::UnknownLoop { label } => {
                write!(f, "directive references unknown loop `{label}`")
            }
            SynthesisError::UnknownVariable { name } => {
                write!(f, "directive references unknown variable `{name}`")
            }
            SynthesisError::InfeasibleClock {
                op,
                delay_ns,
                clock_ns,
            } => write!(
                f,
                "operation {op} needs {delay_ns:.2} ns but the clock period is {clock_ns:.2} ns"
            ),
            SynthesisError::InfeasibleInitiationInterval {
                label,
                requested,
                minimum,
            } => write!(
                f,
                "loop `{label}` cannot be pipelined at II={requested}; minimum is {minimum}"
            ),
            SynthesisError::Unschedulable { context } => {
                write!(f, "scheduling failed: {context}")
            }
            SynthesisError::InvalidPipelineConfig { problems } => {
                write!(f, "invalid pipeline configuration: {}", problems.join("; "))
            }
        }
    }
}

impl std::error::Error for SynthesisError {}

impl SynthesisError {
    /// The stable machine-readable diagnostic code of this error kind.
    pub fn code(&self) -> &'static str {
        match self {
            SynthesisError::InvalidIr { .. } => "invalid-ir",
            SynthesisError::InvalidClock { .. } => "invalid-clock",
            SynthesisError::UnknownLoop { .. } => "unknown-loop",
            SynthesisError::UnknownVariable { .. } => "unknown-variable",
            SynthesisError::InfeasibleClock { .. } => "infeasible-clock",
            SynthesisError::InfeasibleInitiationInterval { .. } => "infeasible-ii",
            SynthesisError::Unschedulable { .. } => "unschedulable",
            SynthesisError::InvalidPipelineConfig { .. } => "invalid-pipeline-config",
        }
    }

    /// Converts the error into a structured [`Diagnostic`] with the
    /// appropriate code and source anchors. The pass of origin is stamped
    /// by the stage recorder.
    pub fn to_diagnostic(&self) -> Diagnostic {
        let d = Diagnostic::error(self.code(), self.to_string());
        match self {
            SynthesisError::InvalidIr { problems } => {
                problems.iter().fold(d, |d, p| d.with_note(p.clone()))
            }
            SynthesisError::InvalidClock { .. } => d,
            SynthesisError::UnknownLoop { label } => d.with_anchor(Anchor::Loop(label.clone())),
            SynthesisError::UnknownVariable { name } => d.with_anchor(Anchor::Var(name.clone())),
            SynthesisError::InfeasibleClock { op, .. } => d.with_anchor(Anchor::Op(op.clone())),
            SynthesisError::InfeasibleInitiationInterval { label, .. } => {
                d.with_anchor(Anchor::Loop(label.clone()))
            }
            SynthesisError::Unschedulable { .. } => d,
            SynthesisError::InvalidPipelineConfig { problems } => {
                problems.iter().fold(d, |d, p| d.with_note(p.clone()))
            }
        }
    }
}
