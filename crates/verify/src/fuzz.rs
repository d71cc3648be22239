//! Coverage-guided differential fuzzing with counterexample shrinking.
//!
//! For designs whose input cones are too wide to prove, the fuzzer drives
//! the untimed interpreter and the cycle-accurate FSMD simulator with the
//! same stimulus and compares every observable after every call —
//! out/inout parameters *and* the persistent `static` state.
//!
//! Stimulus evolves under **controller coverage**: an instrumented mirror
//! of the FSMD walk records which `(segment, state)` pairs execute and
//! which direction every datapath branch point (comparison, mux,
//! write-enable) takes; mutants that light up new coverage join the
//! corpus. Seeding is fully deterministic ([`FuzzConfig::seed`]), so a
//! failure reproduces bit-for-bit.
//!
//! Any mismatch is **delta-debugged** to a minimal stimulus: calls are
//! dropped, elements zeroed, and magnitudes halved until the failure is
//! 1-minimal under those operators.

use std::collections::{BTreeMap, BTreeSet};

use fixpt::Fixed;
use hls_core::dfg::{Dfg, NodeId, NodeKind};
use hls_ir::{BinOp, Direction, Function, Interpreter, Slot, UnOp, VarId, VarKind};
use rtl::{Control, Fsmd, RtlSimulator};

/// Deterministic SplitMix64 — tiny, seedable, and dependency-free.
///
/// Public so downstream verification harnesses (e.g. the stream-system
/// latency-insensitivity checker in `hls-stream`) draw their randomized
/// stimulus from the same seeded generator the differential fuzzer uses:
/// every reported failure replays from nothing but a `u64` seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Advances the state and returns the next 64 pseudo-random bits.
    ///
    /// Not an `Iterator`: the stream is infinite and `None` is
    /// unrepresentable, so the `next` name stays.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// A value uniform in `0..n` (`n` clamped to ≥ 1).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Fuzzer knobs.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// RNG seed; identical seeds reproduce identical campaigns.
    pub seed: u64,
    /// Mutation iterations after the deterministic seed corpus.
    pub iterations: usize,
    /// Maximum calls (stimulus symbols) per test case.
    pub max_calls: usize,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seed: 0x7a9_2005,
            iterations: 200,
            max_calls: 4,
        }
    }
}

/// One test case: the argument list for each successive call.
pub type Stimulus = Vec<Vec<(VarId, Slot)>>;

/// Controller/branch coverage accumulated over a campaign.
#[derive(Debug, Clone, Default)]
pub struct Coverage {
    /// `(segment, state)` controller pairs executed.
    states: BTreeSet<(usize, u32)>,
    /// `(segment, node, direction)` branch outcomes observed.
    branches: BTreeSet<(usize, u32, bool)>,
}

impl Coverage {
    /// Number of distinct controller states executed.
    pub fn states(&self) -> usize {
        self.states.len()
    }

    /// Number of distinct branch-direction outcomes observed.
    pub fn branch_directions(&self) -> usize {
        self.branches.len()
    }

    fn merge_new(&mut self, other: &Coverage) -> bool {
        let mut grew = false;
        for &s in &other.states {
            grew |= self.states.insert(s);
        }
        for &b in &other.branches {
            grew |= self.branches.insert(b);
        }
        grew
    }
}

/// A mismatch found by the fuzzer, already shrunk.
#[derive(Debug, Clone)]
pub struct FuzzCex {
    /// The minimal failing stimulus.
    pub stimulus: Stimulus,
    /// Which call of the stimulus first diverges (0-based).
    pub failing_call: usize,
    /// The observable that differs and the two values, rendered.
    pub message: String,
}

/// Campaign summary.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Calls executed across the whole campaign (both machines).
    pub calls: u64,
    /// Final coverage.
    pub coverage: Coverage,
    /// Corpus size at the end.
    pub corpus: usize,
    /// The shrunk counterexample, if the machines ever disagreed.
    pub counterexample: Option<FuzzCex>,
}

/// Runs a deterministic coverage-guided differential campaign with the
/// default configuration.
pub fn fuzz_equiv(fsmd: &Fsmd) -> FuzzReport {
    fuzz_equiv_with(fsmd, &FuzzConfig::default())
}

/// [`fuzz_equiv`] with explicit configuration.
pub fn fuzz_equiv_with(fsmd: &Fsmd, cfg: &FuzzConfig) -> FuzzReport {
    let func = fsmd.function().clone();
    let mut rng = SplitMix64(cfg.seed);
    let mut cov = Coverage::default();
    let mut corpus: Vec<Stimulus> = Vec::new();
    let mut calls = 0u64;

    // Deterministic seed corpus: zeros, extremes, and small randoms, at
    // one and at max_calls depth.
    let mut seeds: Vec<Stimulus> = vec![
        vec![zero_call(&func)],
        vec![zero_call(&func); cfg.max_calls.max(1)],
        vec![extreme_call(&func, false)],
        vec![extreme_call(&func, true), extreme_call(&func, false)],
        // Full-depth bursts: designs with static state (delay lines,
        // adaptive taps) only expose deep bugs after the state has
        // filled, which no short stimulus can reach. One alternating
        // extremes, one random (extremes saturate; random values keep
        // intermediate arithmetic away from the clamp rails where
        // differences get masked).
        (0..cfg.max_calls.max(1))
            .map(|i| extreme_call(&func, i % 2 == 0))
            .collect(),
        (0..cfg.max_calls.max(1))
            .map(|_| random_call(&func, &mut rng))
            .collect(),
    ];
    for _ in 0..4 {
        let n = 1 + rng.below(cfg.max_calls.max(1) as u64) as usize;
        seeds.push((0..n).map(|_| random_call(&func, &mut rng)).collect());
    }

    let campaign = |stim: &Stimulus,
                    cov: &mut Coverage,
                    corpus: &mut Vec<Stimulus>,
                    calls: &mut u64|
     -> Option<FuzzCex> {
        *calls += stim.len() as u64;
        if let Some((at, msg)) = run_diff(fsmd, stim) {
            let min = shrink(fsmd, stim.clone());
            let (at, msg) = run_diff(fsmd, &min).unwrap_or((at, msg));
            return Some(FuzzCex {
                stimulus: min,
                failing_call: at,
                message: msg,
            });
        }
        let c = run_coverage(fsmd, stim);
        if cov.merge_new(&c) {
            corpus.push(stim.clone());
        }
        None
    };

    for stim in &seeds {
        if let Some(cex) = campaign(stim, &mut cov, &mut corpus, &mut calls) {
            return FuzzReport {
                calls,
                coverage: cov,
                corpus: corpus.len(),
                counterexample: Some(cex),
            };
        }
    }
    if corpus.is_empty() {
        corpus.push(vec![zero_call(&func)]);
    }

    for _ in 0..cfg.iterations {
        let base = corpus[rng.below(corpus.len() as u64) as usize].clone();
        let stim = mutate_stimulus(&func, base, cfg.max_calls, &mut rng);
        if let Some(cex) = campaign(&stim, &mut cov, &mut corpus, &mut calls) {
            return FuzzReport {
                calls,
                coverage: cov,
                corpus: corpus.len(),
                counterexample: Some(cex),
            };
        }
    }

    FuzzReport {
        calls,
        coverage: cov,
        corpus: corpus.len(),
        counterexample: None,
    }
}

fn input_params(func: &Function) -> Vec<VarId> {
    func.params
        .iter()
        .copied()
        .filter(|&p| func.param_direction(p) != Direction::Out)
        .collect()
}

fn slot_of<F: FnMut(fixpt::Format) -> Fixed>(func: &Function, p: VarId, mut gen: F) -> Slot {
    let v = func.var(p);
    let fmt =
        v.ty.format()
            .unwrap_or_else(|| fixpt::Format::integer(1, fixpt::Signedness::Unsigned));
    match v.len {
        Some(n) => Slot::Array((0..n).map(|_| gen(fmt)).collect()),
        None => Slot::Scalar(gen(fmt)),
    }
}

fn zero_call(func: &Function) -> Vec<(VarId, Slot)> {
    input_params(func)
        .into_iter()
        .map(|p| (p, slot_of(func, p, |f| Fixed::from_int(0, f))))
        .collect()
}

fn extreme_call(func: &Function, low: bool) -> Vec<(VarId, Slot)> {
    input_params(func)
        .into_iter()
        .map(|p| {
            (
                p,
                slot_of(func, p, |f| {
                    let raw = if low { f.min_raw() } else { f.max_raw() };
                    Fixed::from_raw(raw, f).expect("raw in range")
                }),
            )
        })
        .collect()
}

pub(crate) fn random_fixed(f: fixpt::Format, rng: &mut SplitMix64) -> Fixed {
    let span = (f.max_raw() - f.min_raw() + 1) as u64;
    let raw = f.min_raw() + rng.below(span) as i128;
    Fixed::from_raw(raw, f).expect("raw in range")
}

fn random_call(func: &Function, rng: &mut SplitMix64) -> Vec<(VarId, Slot)> {
    input_params(func)
        .into_iter()
        .map(|p| (p, slot_of(func, p, |f| random_fixed(f, rng))))
        .collect()
}

fn mutate_stimulus(
    func: &Function,
    mut stim: Stimulus,
    max_calls: usize,
    rng: &mut SplitMix64,
) -> Stimulus {
    match rng.below(5) {
        0 if stim.len() < max_calls => {
            stim.push(random_call(func, rng));
        }
        1 if stim.len() > 1 => {
            let i = rng.below(stim.len() as u64) as usize;
            stim.remove(i);
        }
        _ => {
            // Point mutation of one element of one call.
            if stim.is_empty() {
                stim.push(random_call(func, rng));
            }
            let ci = rng.below(stim.len() as u64) as usize;
            let call = &mut stim[ci];
            if call.is_empty() {
                return stim;
            }
            let pi = rng.below(call.len() as u64) as usize;
            let kind = rng.below(3);
            let slot = &mut call[pi].1;
            let mutate_one = |f: &mut Fixed, rng: &mut SplitMix64| {
                let fmt = f.format();
                *f = match kind {
                    0 => random_fixed(fmt, rng),
                    1 => Fixed::from_int(0, fmt),
                    _ => {
                        let raw = (f.raw() + 1).min(fmt.max_raw());
                        Fixed::from_raw(raw, fmt).expect("raw in range")
                    }
                };
            };
            match slot {
                Slot::Scalar(f) => mutate_one(f, rng),
                Slot::Array(a) => {
                    if !a.is_empty() {
                        let ei = rng.below(a.len() as u64) as usize;
                        mutate_one(&mut a[ei], rng);
                    }
                }
            }
        }
    }
    stim
}

/// Replays a stimulus through the differential oracle: both machines run
/// from reset, and the result is `Some((call, message))` at the first
/// diverging call, `None` when the machines agree on every observable.
///
/// This is the exact oracle the fuzzer and shrinker use internally; it is
/// public so a shrunk counterexample can be replayed as a regression
/// check.
pub fn replay_stimulus(fsmd: &Fsmd, stim: &Stimulus) -> Option<(usize, String)> {
    run_diff(fsmd, stim)
}

/// Runs the stimulus on both machines from reset; `Some((call, message))`
/// at the first diverging call.
fn run_diff(fsmd: &Fsmd, stim: &Stimulus) -> Option<(usize, String)> {
    let func = fsmd.function().clone();
    let mut interp = Interpreter::new(func.clone());
    let mut sim = RtlSimulator::new(fsmd.clone());
    for (ci, call) in stim.iter().enumerate() {
        let want: Result<BTreeMap<VarId, Slot>, _> = interp.call(call);
        let got = sim.run_call(call);
        let (want, got) = match (want, got) {
            (Ok(w), Ok(g)) => (w, g),
            (Err(e), Ok(_)) => return Some((ci, format!("interpreter error: {e:?}"))),
            (Ok(_), Err(e)) => return Some((ci, format!("simulator error: {e:?}"))),
            (Err(_), Err(_)) => continue,
        };
        // Compare observable parameters…
        for &p in &func.params {
            if func.param_direction(p) == Direction::In {
                continue;
            }
            if want[&p] != got[&p] {
                return Some((
                    ci,
                    format!(
                        "call {ci}: {} differs: interpreter {:?} vs FSMD {:?}",
                        func.var(p).name,
                        want[&p],
                        got[&p]
                    ),
                ));
            }
        }
        // …and the persistent static state.
        for (id, v) in func.iter_vars() {
            if v.kind != VarKind::Static {
                continue;
            }
            let w = interp.static_slot(id).cloned();
            let g = match v.len {
                Some(_) => sim.array(id).map(|a| Slot::Array(a.to_vec())),
                None => sim.reg(id).map(Slot::Scalar),
            };
            if w != g {
                return Some((
                    ci,
                    format!(
                        "call {ci}: static {} differs: interpreter {w:?} vs FSMD {g:?}",
                        v.name
                    ),
                ));
            }
        }
    }
    None
}

/// Delta-debugs a failing stimulus to a minimal one: drop calls, zero
/// elements, then halve magnitudes, to a fixpoint.
fn shrink(fsmd: &Fsmd, mut stim: Stimulus) -> Stimulus {
    let fails = |s: &Stimulus| run_diff(fsmd, s).is_some();
    debug_assert!(fails(&stim));
    loop {
        let mut progressed = false;
        // Drop whole calls.
        let mut i = 0;
        while stim.len() > 1 && i < stim.len() {
            let mut cand = stim.clone();
            cand.remove(i);
            if fails(&cand) {
                stim = cand;
                progressed = true;
            } else {
                i += 1;
            }
        }
        // Zero, then halve, each element.
        for ci in 0..stim.len() {
            for pi in 0..stim[ci].len() {
                let n = match &stim[ci][pi].1 {
                    Slot::Scalar(_) => 1,
                    Slot::Array(a) => a.len(),
                };
                for ei in 0..n {
                    let cur = element(&stim[ci][pi].1, ei);
                    if cur.raw() == 0 {
                        continue;
                    }
                    let fmt = cur.format();
                    let zero = Fixed::from_int(0, fmt);
                    let mut cand = stim.clone();
                    set_element(&mut cand[ci][pi].1, ei, zero);
                    if fails(&cand) {
                        stim = cand;
                        progressed = true;
                        continue;
                    }
                    let halved = Fixed::from_raw(cur.raw() / 2, fmt).expect("raw in range");
                    let mut cand = stim.clone();
                    set_element(&mut cand[ci][pi].1, ei, halved);
                    if fails(&cand) {
                        stim = cand;
                        progressed = true;
                    }
                }
            }
        }
        if !progressed {
            return stim;
        }
    }
}

fn element(s: &Slot, i: usize) -> Fixed {
    match s {
        Slot::Scalar(f) => *f,
        Slot::Array(a) => a[i],
    }
}

fn set_element(s: &mut Slot, i: usize, v: Fixed) {
    match s {
        Slot::Scalar(f) => *f = v,
        Slot::Array(a) => a[i] = v,
    }
}

/// A concrete mirror of the FSMD walk instrumented for controller-state
/// and branch-direction coverage. Used only to *guide* the fuzzer; the
/// pass/fail oracle is always the real simulator vs the interpreter.
fn run_coverage(fsmd: &Fsmd, stim: &Stimulus) -> Coverage {
    let mut cov = Coverage::default();
    let func = fsmd.function().clone();
    let bool_fmt = fixpt::Format::integer(1, fixpt::Signedness::Unsigned);
    let mut regs: Vec<Fixed> = Vec::new();
    let mut arrays: Vec<Vec<Fixed>> = Vec::new();
    for (_, v) in func.iter_vars() {
        let fmt = v.ty.format().unwrap_or(bool_fmt);
        regs.push(Fixed::from_int(0, fmt));
        arrays.push(vec![Fixed::from_int(0, fmt); v.len.unwrap_or(0)]);
    }
    for call in stim {
        // Sample inputs.
        for &p in &func.params {
            let v = func.var(p);
            let fmt = v.ty.format().unwrap_or(bool_fmt);
            if let Some((_, s)) = call.iter().find(|(id, _)| *id == p) {
                match s {
                    Slot::Scalar(f) => regs[p.index()] = f.cast(fmt),
                    Slot::Array(a) => arrays[p.index()] = a.iter().map(|f| f.cast(fmt)).collect(),
                }
            }
        }
        for (si, ctl) in fsmd.control.iter().enumerate() {
            let dfg = fsmd.lowered.segments[si].dfg();
            let sched = &fsmd.schedules[si];
            match ctl {
                Control::Straight { depth } => {
                    cov_body(si, dfg, sched, *depth, &mut regs, &mut arrays, &mut cov);
                }
                Control::Loop {
                    depth,
                    trip,
                    counter,
                    start,
                    step,
                    ..
                } => {
                    let cfmt = func.var(*counter).ty.format().unwrap_or(bool_fmt);
                    regs[counter.index()] = Fixed::from_int(*start, cfmt);
                    for _ in 0..*trip {
                        cov_body(si, dfg, sched, *depth, &mut regs, &mut arrays, &mut cov);
                        let k = regs[counter.index()].to_i64();
                        regs[counter.index()] = Fixed::from_int(k + *step, cfmt);
                    }
                }
            }
        }
    }
    cov
}

fn cov_body(
    si: usize,
    dfg: &Dfg,
    sched: &hls_core::Schedule,
    depth: u32,
    regs: &mut [Fixed],
    arrays: &mut [Vec<Fixed>],
    cov: &mut Coverage,
) {
    let bool_fixed = |b: bool| {
        Fixed::from_int(
            b as i64,
            fixpt::Format::integer(1, fixpt::Signedness::Unsigned),
        )
    };
    let mut values: Vec<Option<Fixed>> = vec![None; dfg.len()];
    for cycle in 0..depth.max(1) {
        cov.states.insert((si, cycle));
        for id in sched.nodes_in_cycle(cycle) {
            let node = dfg.node(id);
            let val = |p: NodeId| values[p.index()].expect("predecessor evaluated");
            let mut branch = |dir: bool| {
                cov.branches.insert((si, id.index() as u32, dir));
            };
            let v = match &node.kind {
                NodeKind::Const(c) => *c,
                NodeKind::VarRead(v) => regs[v.index()],
                NodeKind::VarWrite(v) => {
                    let x = val(node.preds[0]).cast(node.format);
                    regs[v.index()] = x;
                    x
                }
                NodeKind::Bin(op) => {
                    let a = val(node.preds[0]);
                    let b = val(node.preds[1]);
                    match op {
                        BinOp::Add => a.exact_add(&b),
                        BinOp::Sub => a.exact_sub(&b),
                        BinOp::Mul => a.exact_mul(&b),
                        BinOp::Shl => a.shl(b.to_i64().max(0) as u32),
                        BinOp::Shr => a.shr(b.to_i64().max(0) as u32),
                        BinOp::And => {
                            let r = !a.is_zero() && !b.is_zero();
                            branch(r);
                            bool_fixed(r)
                        }
                        BinOp::Or => {
                            let r = !a.is_zero() || !b.is_zero();
                            branch(r);
                            bool_fixed(r)
                        }
                    }
                }
                NodeKind::MulPow2 => val(node.preds[0]).exact_mul(&val(node.preds[1])),
                NodeKind::Un(op) => {
                    let a = val(node.preds[0]);
                    match op {
                        UnOp::Neg => a.negate(),
                        UnOp::Signum => {
                            Fixed::from_int(a.signum() as i64, fixpt::Format::signed(2, 2))
                        }
                        UnOp::Not => bool_fixed(a.is_zero()),
                    }
                }
                NodeKind::Cmp(op) => {
                    let r = op.eval(val(node.preds[0]).cmp(&val(node.preds[1])));
                    branch(r);
                    bool_fixed(r)
                }
                NodeKind::Mux | NodeKind::EnableMux => {
                    let c = !val(node.preds[0]).is_zero();
                    branch(c);
                    let arm = if c {
                        val(node.preds[1])
                    } else {
                        val(node.preds[2])
                    };
                    arm.cast(node.format)
                }
                NodeKind::Cast(q, o) => val(node.preds[0]).cast_with(node.format, *q, *o),
                NodeKind::Load(arr) => {
                    let a = &arrays[arr.index()];
                    let idx = val(node.preds[0]).to_i64().clamp(0, a.len() as i64 - 1);
                    a[idx as usize]
                }
                NodeKind::Store(arr) | NodeKind::StoreCond(arr) => {
                    let enabled = match node.kind {
                        NodeKind::StoreCond(_) => {
                            let e = !val(node.preds[2]).is_zero();
                            branch(e);
                            e
                        }
                        _ => true,
                    };
                    let v = val(node.preds[1]);
                    if enabled {
                        let a = &mut arrays[arr.index()];
                        let idx = val(node.preds[0]).to_i64();
                        if idx >= 0 && (idx as usize) < a.len() {
                            a[idx as usize] = v;
                        }
                    }
                    v
                }
            };
            values[id.index()] = Some(v);
        }
    }
}
