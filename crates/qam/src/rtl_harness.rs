//! RTL-level decoder harness: synthesizes one architecture and drives its
//! cycle-accurate simulation ([`CompiledSim`]) symbol by symbol, mirroring
//! [`IrDecoder`]'s interface so the two levels can be compared bit for
//! bit.
//!
//! [`IrDecoder`]: crate::IrDecoder

use std::fmt;

use dsp::CFixed;
use fixpt::Fixed;
use hls_core::{Diagnostics, PipelineConfig, SynthesisError};
use hls_ir::{Function, Slot, VarId};
use rtl::{CompiledSim, Fsmd, SimError};

use crate::arch::table1_library;
use crate::ir::{build_qam_decoder_ir, QamDecoderIr};
use crate::params::DecoderParams;

/// Why [`RtlDecoder`] construction failed: the synthesis error together
/// with the pass pipeline's structured diagnostics (pass of origin,
/// anchors, notes), so callers can report *where* in the flow the design
/// was rejected instead of just that it was.
#[derive(Debug, Clone)]
pub struct RtlBuildError {
    /// The underlying synthesis failure.
    pub error: SynthesisError,
    /// Everything the pipeline recorded up to (and including) the failure.
    pub diagnostics: Diagnostics,
}

impl fmt::Display for RtlBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decoder synthesis failed: {}", self.error)?;
        for d in self.diagnostics.iter() {
            write!(f, "\n  [{}] {}: {}", d.pass, d.code, d.message)?;
        }
        Ok(())
    }
}

impl std::error::Error for RtlBuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// A synthesized decoder driven through cycle-accurate simulation.
#[derive(Debug, Clone)]
pub struct RtlDecoder {
    sim: CompiledSim,
    ids: QamDecoderIr,
    params: DecoderParams,
}

impl RtlDecoder {
    /// Synthesizes the decoder under `directives` (with the Table-1
    /// technology library) and compiles its simulation.
    ///
    /// # Errors
    ///
    /// Returns an [`RtlBuildError`] carrying the synthesis failure and the
    /// pipeline's diagnostics when the directives reject (unknown loop,
    /// infeasible clock or II, …).
    pub fn try_new(
        params: DecoderParams,
        directives: &hls_core::Directives,
    ) -> Result<Self, Box<RtlBuildError>> {
        let ids = build_qam_decoder_ir(&params);
        let (result, run) = hls_core::synthesize_traced(
            &ids.func,
            directives,
            &table1_library(),
            &PipelineConfig::default(),
        );
        let result = result.map_err(|error| {
            Box::new(RtlBuildError {
                error,
                diagnostics: run.diagnostics,
            })
        })?;
        let sim = CompiledSim::from_fsmd(&Fsmd::from_synthesis(&result));
        Ok(RtlDecoder { sim, ids, params })
    }

    /// The parameters.
    pub fn params(&self) -> &DecoderParams {
        &self.params
    }

    /// The IR variable ids of the decoder's ports and state.
    pub fn ids(&self) -> &QamDecoderIr {
        &self.ids
    }

    /// The staged function the simulated datapath references (its variable
    /// set enumerates all registers and arrays).
    pub fn function(&self) -> &Function {
        self.sim.program().function()
    }

    /// Total cycles simulated.
    pub fn cycles(&self) -> u64 {
        self.sim.cycles()
    }

    /// Reads a persistent register.
    pub fn reg(&self, id: VarId) -> Option<Fixed> {
        self.sim.reg(id)
    }

    /// Reads a persistent array.
    pub fn array(&self, id: VarId) -> Option<&[Fixed]> {
        self.sim.array(id)
    }

    /// Sets one forward coefficient in the persistent state (cold-start),
    /// mirroring [`crate::QamDecoderFixed::set_ffe_tap`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_ffe_tap(&mut self, index: usize, value: dsp::Complex) {
        let fmt = self.params.ffe_c_format();
        let (re, im) = self.ids.ffe_c;
        self.sim
            .poke_array(re, index, Fixed::from_f64(value.re, fmt));
        self.sim
            .poke_array(im, index, Fixed::from_f64(value.im, fmt));
    }

    /// Decodes one symbol period (`x0` newest), returning the 6-bit word.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures (which indicate generation bugs).
    pub fn decode(&mut self, x0: CFixed, x1: CFixed) -> Result<u8, SimError> {
        let fmt = self.params.x_format();
        let re = Slot::Array(vec![x0.re().cast(fmt), x1.re().cast(fmt)]);
        let im = Slot::Array(vec![x0.im().cast(fmt), x1.im().cast(fmt)]);
        let out = self
            .sim
            .run_call(&[(self.ids.x_in_re, re), (self.ids.x_in_im, im)])?;
        Ok(out[&self.ids.data]
            .scalar()
            .expect("data is scalar")
            .to_i64() as u8)
    }

    /// The forward-coefficient state as `(re, im)` float pairs.
    pub fn ffe_taps(&self) -> Vec<(f64, f64)> {
        let re = self.array(self.ids.ffe_c.0).expect("array");
        let im = self.array(self.ids.ffe_c.1).expect("array");
        re.iter()
            .zip(im)
            .map(|(r, i)| (r.to_f64(), i.to_f64()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_directives_are_reported_not_panicked() {
        let p = DecoderParams::default();
        let d = hls_core::Directives::new(10.0).unroll("no_such_loop", hls_core::Unroll::Factor(2));
        let err = RtlDecoder::try_new(p, &d).expect_err("unknown loop must be rejected");
        assert!(
            matches!(err.error, hls_core::SynthesisError::UnknownLoop { .. }),
            "{err}"
        );
        // The error carries the pipeline's structured diagnostics, stamped
        // with the pass that rejected the design.
        let diag = err
            .diagnostics
            .find("unknown-loop")
            .expect("diagnostic recorded");
        assert_eq!(diag.pass, "check-directives");
        assert!(err.to_string().contains("unknown-loop"), "{err}");
    }
}
