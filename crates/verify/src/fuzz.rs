//! Coverage-guided differential fuzzing with counterexample shrinking.
//!
//! For designs whose input cones are too wide to prove, the fuzzer drives
//! the untimed interpreter and the cycle-accurate FSMD simulator
//! ([`CompiledSim`], compiled once per campaign and reset per stimulus)
//! with the same stimulus and compares every observable after every call —
//! out/inout parameters *and* the persistent `static` state.
//!
//! Stimulus evolves under **controller coverage**, read off the same
//! simulator run that gives the verdict: after each body run of a segment
//! the simulator hands over the node values of that run, from which the
//! fuzzer records which `(segment, state)` pairs executed and which
//! direction every datapath branch point (comparison, logical operator,
//! mux, write-enable) took; mutants that light up new coverage join the
//! corpus. Seeding is fully deterministic ([`FuzzConfig::seed`]), so a
//! failure reproduces bit-for-bit.
//!
//! Any mismatch is **delta-debugged** to a minimal stimulus: calls are
//! dropped, elements zeroed, and magnitudes halved until the failure is
//! 1-minimal under those operators.

use std::collections::BTreeSet;

use fixpt::Fixed;
use hls_core::dfg::NodeKind;
use hls_ir::{BinOp, Direction, Function, Interpreter, Slot, VarId, VarKind};
use rtl::{CompiledSim, Control, Fsmd};

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
    let func = fsmd.function();
    let mut oracle = Oracle::new(fsmd);
    let mut rng = SplitMix64(cfg.seed);
    let mut report = FuzzReport {
        calls: 0,
        coverage: Coverage::default(),
        corpus: 0,
        counterexample: None,
    };
    let mut corpus: Vec<Stimulus> = Vec::new();

    // Deterministic seed corpus: zeros, extremes, and small randoms, at
    // one and at max_calls depth.
    let mut seeds: Vec<Stimulus> = vec![
        vec![zero_call(func)],
        vec![zero_call(func); cfg.max_calls.max(1)],
        vec![extreme_call(func, false)],
        vec![extreme_call(func, true), extreme_call(func, false)],
        // Full-depth bursts: designs with static state (delay lines,
        // adaptive taps) only expose deep bugs after the state has
        // filled, which no short stimulus can reach. One alternating
        // extremes, one random (extremes saturate; random values keep
        // intermediate arithmetic away from the clamp rails where
        // differences get masked).
        (0..cfg.max_calls.max(1))
            .map(|i| extreme_call(func, i % 2 == 0))
            .collect(),
        (0..cfg.max_calls.max(1))
            .map(|_| random_call(func, &mut rng))
            .collect(),
    ];
    for _ in 0..4 {
        let n = 1 + rng.below(cfg.max_calls.max(1) as u64) as usize;
        seeds.push((0..n).map(|_| random_call(func, &mut rng)).collect());
    }

    let failed = seeds
        .iter()
        .any(|stim| campaign_step(&mut oracle, stim, &mut report, &mut corpus));
    if !failed {
        if corpus.is_empty() {
            corpus.push(vec![zero_call(func)]);
        }
        for _ in 0..cfg.iterations {
            let base = corpus[rng.below(corpus.len() as u64) as usize].clone();
            let stim = mutate_stimulus(func, base, cfg.max_calls, &mut rng);
            if campaign_step(&mut oracle, &stim, &mut report, &mut corpus) {
                break;
            }
        }
    }
    report.corpus = corpus.len();
    report
}

/// Runs one stimulus of the campaign. On a mismatch the shrunk
/// counterexample lands in `report` and the result is `true`; otherwise
/// the stimulus joins the corpus if it grew the coverage.
fn campaign_step(
    oracle: &mut Oracle,
    stim: &Stimulus,
    report: &mut FuzzReport,
    corpus: &mut Vec<Stimulus>,
) -> bool {
    report.calls += stim.len() as u64;
    if let Some((at, msg)) = oracle.run(stim) {
        let min = shrink(oracle, stim.clone());
        let (at, msg) = oracle.run(&min).unwrap_or((at, msg));
        report.counterexample = Some(FuzzCex {
            stimulus: min,
            failing_call: at,
            message: msg,
        });
    } else if oracle.record_coverage(&mut report.coverage) {
        corpus.push(stim.clone());
    }
    report.counterexample.is_some()
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
    Oracle::new(fsmd).run(stim)
}

/// The differential oracle of one campaign: the untimed interpreter and
/// the FSMD compiled once, both reset before every stimulus. One run of a
/// stimulus gives the verdict and the controller coverage it reached.
struct Oracle {
    interp: Interpreter,
    sim: CompiledSim,
    segments: Vec<SegmentProbe>,
    /// Per segment: whether a body ran in the last run.
    ran: Vec<bool>,
    /// Per segment and branch point: the directions taken in the last
    /// run (bit 0 false, bit 1 true).
    taken: Vec<Vec<u8>>,
}

/// What one body run of a segment covers.
struct SegmentProbe {
    /// The controller states it executes.
    states: u32,
    /// Its branch points as `(node, decider)`: the branch goes the way
    /// the `decider` node's value is nonzero.
    branches: Vec<(u32, u32)>,
}

impl Oracle {
    fn new(fsmd: &Fsmd) -> Oracle {
        let segments: Vec<SegmentProbe> = fsmd
            .control
            .iter()
            .enumerate()
            .map(|(si, ctl)| {
                let (Control::Straight { depth } | Control::Loop { depth, .. }) = ctl;
                let dfg = fsmd.lowered.segments[si].dfg();
                let states = (*depth).max(1);
                let mut branches = Vec::new();
                for cycle in 0..states {
                    for id in fsmd.schedules[si].nodes_in_cycle(cycle) {
                        let node = dfg.node(id);
                        let decider = match node.kind {
                            NodeKind::Bin(BinOp::And | BinOp::Or) | NodeKind::Cmp(_) => id,
                            NodeKind::Mux | NodeKind::EnableMux => node.preds[0],
                            NodeKind::StoreCond(_) => node.preds[2],
                            _ => continue,
                        };
                        branches.push((id.index() as u32, decider.index() as u32));
                    }
                }
                SegmentProbe { states, branches }
            })
            .collect();
        Oracle {
            interp: Interpreter::new(fsmd.function().clone()),
            sim: CompiledSim::from_fsmd(fsmd),
            ran: vec![false; segments.len()],
            taken: segments.iter().map(|s| vec![0; s.branches.len()]).collect(),
            segments,
        }
    }

    /// Runs the stimulus on both machines from reset; `Some((call,
    /// message))` at the first diverging call.
    fn run(&mut self, stim: &Stimulus) -> Option<(usize, String)> {
        let Oracle {
            interp,
            sim,
            segments,
            ran,
            taken,
        } = self;
        interp.reset();
        sim.reset();
        ran.fill(false);
        for t in taken.iter_mut() {
            t.fill(0);
        }
        for (ci, call) in stim.iter().enumerate() {
            let want = interp.call(call);
            let got = sim.run_call_observed(call, |si, values| {
                ran[si] = true;
                for (t, &(_, decider)) in taken[si].iter_mut().zip(&segments[si].branches) {
                    *t |= 1 << u8::from(!values[decider as usize].is_zero());
                }
            });
            let (want, got) = match (want, got) {
                (Ok(w), Ok(g)) => (w, g),
                (Err(e), Ok(_)) => return Some((ci, format!("interpreter error: {e:?}"))),
                (Ok(_), Err(e)) => return Some((ci, format!("simulator error: {e:?}"))),
                (Err(_), Err(_)) => continue,
            };
            let func = interp.function();
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

    /// Merges the last run's coverage into `cov`; `true` if it grew.
    fn record_coverage(&self, cov: &mut Coverage) -> bool {
        let mut grew = false;
        for (si, seg) in self.segments.iter().enumerate() {
            if !self.ran[si] {
                continue;
            }
            for state in 0..seg.states {
                grew |= cov.states.insert((si, state));
            }
            for (&(node, _), &t) in seg.branches.iter().zip(&self.taken[si]) {
                for dir in [false, true] {
                    if t & (1 << u8::from(dir)) != 0 {
                        grew |= cov.branches.insert((si, node, dir));
                    }
                }
            }
        }
        grew
    }
}

/// Delta-debugs a failing stimulus to a minimal one: drop calls, zero
/// elements, then halve magnitudes, to a fixpoint.
fn shrink(oracle: &mut Oracle, mut stim: Stimulus) -> Stimulus {
    let mut fails = |s: &Stimulus| oracle.run(s).is_some();
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
