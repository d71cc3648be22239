//! The correctness oracle, run after each measured window and outside its
//! timing.
//!
//! A served design is checked against two references that do not come
//! from the server: the same request compiled in this process (the
//! Verilog must be byte-equal) and the untimed IR interpreter (the
//! compiled simulator must compute the same outputs over seeded calls,
//! and take exactly the reported number of cycles per call).

use hls_core::MergePolicy;
use hls_ir::{parse_function, Function, Interpreter, Slot};
use hls_serve::SynthesisRequest;
use hls_verify::SplitMix64;
use rtl::{CompiledSim, RtlArtifacts};

use crate::gen::Expect;
use crate::load::{Reply, Sent};

/// Seeded calls each simulated design must agree on.
const CALLS: usize = 16;

/// Checks one served reply against what its operation expects.
/// `prefill` holds the artifact digest of each pre-filled entry's first
/// serve.
pub fn check_sent(s: &Sent, prefill: &[Option<String>], seed: u64) -> Result<(), String> {
    let r = &s.reply;
    match s.expect {
        Expect::Infeasible => {
            return match r.failure_code.as_deref() {
                Some("infeasible-clock") => Ok(()),
                other => Err(format!("expected infeasible-clock, got {other:?}")),
            };
        }
        Expect::Hit(i) => {
            if !r.cache_hit {
                return Err("a pre-filled entry was not served from the store".into());
            }
            if r.artifact.is_none() || r.artifact != prefill[i] {
                return Err("a store hit differs from the entry's first serve".into());
            }
        }
        Expect::Fresh => {
            if r.cache_hit {
                return Err("a fresh request was served from the store".into());
            }
        }
    }
    if let Some(e) = &r.error {
        return Err(e.clone());
    }
    if r.artifact.is_none() {
        return Err("the reply carries no artifact".into());
    }
    match (s.verify, r.verdict) {
        (true, Some(true)) | (false, None) => {}
        (true, Some(false)) => return Err("the equivalence verdict failed".into()),
        _ => return Err("the reply's verdict does not match the request's verify flag".into()),
    }
    if let Some(request) = &s.request {
        check_served_design(request, r, seed ^ s.index as u64)?;
    }
    Ok(())
}

/// Recompiles `request` in process and checks the served reply against it
/// and against the interpreter.
pub fn check_served_design(request: &SynthesisRequest, r: &Reply, seed: u64) -> Result<(), String> {
    let func = parse_function(&request.source).map_err(|e| format!("source: {e}"))?;
    let art = rtl::compile(&func, &request.directives, &request.library)
        .map_err(|e| format!("in-process compile: {e}"))?;
    if r.verilog.as_deref() != Some(art.verilog.as_str()) {
        return Err("served Verilog differs from the in-process compile".into());
    }
    let cycles = r.latency_cycles.ok_or("the reply carries no latency")?;
    simulate(&func, request.directives.merge_policy, &art, cycles, seed)
}

/// Runs [`CALLS`] seeded calls through the compiled simulator and the
/// interpreter and compares every parameter after each call, and the
/// cycles each call took against `claimed_cycles`.
///
/// The reference is the source function, except under
/// [`MergePolicy::AllowHazards`], whose merges knowingly change the
/// computation: there it is the transformed function the RTL implements.
pub fn simulate(
    original: &Function,
    merge: MergePolicy,
    art: &RtlArtifacts,
    claimed_cycles: u64,
    seed: u64,
) -> Result<(), String> {
    let reference = match merge {
        MergePolicy::AllowHazards => &art.synthesis.transformed,
        MergePolicy::ExactOnly | MergePolicy::Off => original,
    };
    let hw = art.program.function();
    if reference.params.len() != hw.params.len() {
        return Err("the hardware's ports differ from the source's parameters".into());
    }
    let mut interp = Interpreter::new(reference.clone());
    let mut sim = CompiledSim::new(art.program.clone());
    let mut rng = SplitMix64(seed);
    for call in 0..CALLS {
        let inputs: Vec<(usize, Slot)> = reference
            .params
            .iter()
            .enumerate()
            .filter(|(_, &p)| reference.param_direction(p) != hls_ir::Direction::Out)
            .map(|(i, &p)| (i, random_slot(reference, p, &mut rng)))
            .collect();
        let to = |params: &[hls_ir::VarId]| -> Vec<(hls_ir::VarId, Slot)> {
            inputs
                .iter()
                .map(|(i, s)| (params[*i], s.clone()))
                .collect()
        };
        let want = interp
            .call(&to(&reference.params))
            .map_err(|e| format!("interpreter, call {call}: {e:?}"))?;
        let before = sim.cycles();
        let got = sim
            .run_call(&to(&hw.params))
            .map_err(|e| format!("simulator, call {call}: {e:?}"))?;
        if sim.cycles() - before != claimed_cycles {
            return Err(format!(
                "call {call} took {} cycles, the reply claims {claimed_cycles}",
                sim.cycles() - before
            ));
        }
        for (i, (&p, &q)) in reference.params.iter().zip(&hw.params).enumerate() {
            if want.get(&p) != got.get(&q) {
                return Err(format!(
                    "call {call}: parameter {} differs from the interpreter",
                    reference.var(reference.params[i]).name
                ));
            }
        }
    }
    Ok(())
}

fn random_slot(func: &Function, p: hls_ir::VarId, rng: &mut SplitMix64) -> Slot {
    let v = func.var(p);
    let fmt = v.ty.format().expect("parameters are numeric");
    let mut draw = || {
        let span = (fmt.max_raw() - fmt.min_raw() + 1) as u64;
        fixpt::Fixed::from_raw(fmt.min_raw() + rng.below(span) as i128, fmt).expect("raw in range")
    };
    match v.len {
        Some(n) => Slot::Array((0..n).map(|_| draw()).collect()),
        None => Slot::Scalar(draw()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Mix, OpStream};

    /// A correct reply to a sampled fresh request, as the server sends it.
    fn served(seed: u64) -> Sent {
        let mut stream = OpStream::new(Mix::Cold, seed, 0);
        let op = stream.next_op();
        let func = parse_function(&op.request.source).unwrap();
        let art = rtl::compile(&func, &op.request.directives, &op.request.library).unwrap();
        Sent {
            index: op.index,
            expect: op.expect,
            verify: op.request.verify,
            latency_ns: 1,
            reply: Reply {
                latency_cycles: Some(art.synthesis.metrics.latency_cycles),
                area: Some(art.synthesis.metrics.area),
                artifact: Some("digest".into()),
                verilog: Some(art.verilog),
                ..Reply::default()
            },
            request: Some(op.request),
        }
    }

    #[test]
    fn a_correct_reply_passes() {
        for seed in 0..6 {
            check_sent(&served(seed), &[], seed).unwrap();
        }
    }

    #[test]
    fn a_flipped_verilog_byte_fails() {
        let mut s = served(1);
        let v = s.reply.verilog.as_mut().unwrap();
        let mut bytes = std::mem::take(v).into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        *v = String::from_utf8(bytes).unwrap();
        assert!(check_sent(&s, &[], 1).unwrap_err().contains("Verilog"));
    }

    #[test]
    fn a_wrong_latency_fails() {
        let mut s = served(2);
        *s.reply.latency_cycles.as_mut().unwrap() += 1;
        assert!(check_sent(&s, &[], 2).unwrap_err().contains("cycles"));
    }

    #[test]
    fn hits_must_match_their_first_serve() {
        let mut s = served(3);
        s.request = None;
        s.expect = Expect::Hit(0);
        s.reply.cache_hit = true;
        let first = vec![s.reply.artifact.clone()];
        check_sent(&s, &first, 3).unwrap();
        assert!(check_sent(&s, &[Some("other".into())], 3).is_err());
        s.reply.cache_hit = false;
        assert!(check_sent(&s, &first, 3).is_err());
    }

    #[test]
    fn verdicts_must_match_the_verify_flag() {
        let mut s = served(5);
        s.reply.verdict = Some(true);
        assert!(check_sent(&s, &[], 5).is_err(), "unrequested verdict");
        s.verify = true;
        check_sent(&s, &[], 5).unwrap();
        s.reply.verdict = Some(false);
        assert!(check_sent(&s, &[], 5).is_err(), "failed verdict");
        s.reply.verdict = None;
        assert!(check_sent(&s, &[], 5).is_err(), "missing verdict");
    }

    #[test]
    fn infeasible_requests_must_carry_their_code() {
        let mut s = served(4);
        s.expect = Expect::Infeasible;
        assert!(check_sent(&s, &[], 4).is_err());
        s.reply.failure_code = Some("infeasible-clock".into());
        check_sent(&s, &[], 4).unwrap();
    }
}
