//! Seeded input generation.
//!
//! Every input the benchmark sends is built here from `--seed` alone:
//! kernel families written as C text, directive draws, and the operation
//! stream of each workload. The same seed gives byte-identical requests.
//! No draw ever carries a `pipeline` directive: `rtl` does not implement
//! pipelined loops, and a later fix would legitimately change latencies.

use std::collections::HashSet;

use hls_core::{Directives, ExploreConfig, LoopGrid, MergePolicy, VerifyLevel};
use hls_serve::SynthesisRequest;
use hls_verify::SplitMix64;
use qam_decoder::{table1_library, QAM_DECODER_SOURCE};

/// Clocks are drawn from `MIN_CLOCK_NS + k * CLOCK_STEP_NS`, `k < CLOCK_STEPS`
/// (8–20 ns): every operator of every family fits one cycle at 8 ns.
const MIN_CLOCK_NS: f64 = 8.0;
const CLOCK_STEP_NS: f64 = 0.25;
const CLOCK_STEPS: u64 = 49;

const NFFE: [u32; 5] = [4, 6, 8, 10, 12];
const NDFE: [u32; 5] = [8, 12, 16, 20, 24];
const WIDTHS: [u32; 3] = [8, 10, 12];
/// FIR coefficient widths. 8-bit coefficients are left out: proving a FIR
/// of 49 or more 8-bit taps with 8-bit samples panics in `hls-verify`
/// (an exact sum wider than 64 bits), and no operation may fail here.
const COEF_WIDTHS: [u32; 2] = [10, 12];
const FIR_TAPS: std::ops::RangeInclusive<u32> = 8..=63;
const FIR_BANDS: usize = 8;
const FIR_BAND_TAPS: u32 = 7;
const QAM_LOOPS: [&str; 6] = [
    "ffe",
    "dfe",
    "ffe_adapt",
    "dfe_adapt",
    "ffe_shift",
    "dfe_shift",
];
const FIR_LOOPS: [&str; 2] = ["shift", "mac"];
const MERGES: [MergePolicy; 3] = [
    MergePolicy::AllowHazards,
    MergePolicy::ExactOnly,
    MergePolicy::Off,
];

/// The number of fixed infeasible-clock decoder requests in `warm_read`
/// (0.5 to 1.4 ns): no multiplier of the decoder fits such a clock, so
/// scheduling must fail.
pub const INFEASIBLE_CLOCKS: usize = 10;

/// A kernel family member, rendered to C text by [`Kernel::source`].
///
/// Kernel sizes are stratified by position in the stream: the `k`-th
/// decoder cycles through all 25 equalizer-length pairs and the `k`-th FIR
/// through 8 bands of 7 taps, and the seed draws the rest. Decoder and FIR
/// work differ several-fold, and so do small and large members of a
/// family; fixing the mix by position keeps the latency quantiles and QoR
/// of every seed on the same spread of sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Figure 4's decoder with its equalizer lengths and datapath width
    /// substituted.
    Qam { nffe: u32, ndfe: u32, width: u32 },
    /// An n-tap FIR filter with a static delay line of `width`-bit samples
    /// and `coef_width`-bit coefficients.
    Fir {
        taps: u32,
        width: u32,
        coef_width: u32,
    },
}

impl Kernel {
    /// The `k`-th decoder of a stream.
    fn qam(k: usize, rng: &mut SplitMix64) -> Kernel {
        Kernel::Qam {
            nffe: NFFE[k % NFFE.len()],
            ndfe: NDFE[(k / NFFE.len()) % NDFE.len()],
            width: pick(rng, &WIDTHS),
        }
    }

    /// The `k`-th FIR of a stream.
    fn fir(k: usize, rng: &mut SplitMix64) -> Kernel {
        let band = (k % FIR_BANDS) as u32;
        Kernel::Fir {
            taps: FIR_TAPS.start() + FIR_BAND_TAPS * band + rng.below(FIR_BAND_TAPS.into()) as u32,
            width: pick(rng, &WIDTHS),
            coef_width: pick(rng, &COEF_WIDTHS),
        }
    }

    /// The kernel of request `i`: two decoders, then one FIR.
    fn of_request(i: usize, rng: &mut SplitMix64) -> Kernel {
        match i % 3 {
            2 => Kernel::fir(i / 3, rng),
            r => Kernel::qam(2 * (i / 3) + r, rng),
        }
    }

    /// The kernel of sweep `i`: one decoder, then two FIRs. Decoder sweeps
    /// cost several times more, so two FIR sweeps per decoder sweep keep
    /// enough sweeps in a window for a tail percentile with ten samples
    /// beyond it.
    fn of_sweep(i: usize, rng: &mut SplitMix64) -> Kernel {
        match i % 3 {
            0 => Kernel::qam(i / 3, rng),
            r => Kernel::fir(2 * (i / 3) + r - 1, rng),
        }
    }

    /// The C source of this kernel.
    pub fn source(&self) -> String {
        match *self {
            Kernel::Qam { nffe, ndfe, width } => QAM_DECODER_SOURCE
                .replace("const int nffe = 8;", &format!("const int nffe = {nffe};"))
                .replace("const int ndfe = 16;", &format!("const int ndfe = {ndfe};"))
                .replace("sc_fixed<10,0>", &format!("sc_fixed<{width},0>"))
                .replace("sc_fixed<11,1>", &format!("sc_fixed<{},1>", width + 1)),
            Kernel::Fir {
                taps,
                width,
                coef_width,
            } => format!(
                "void fir{taps}(sc_fixed<{width},0> x_in, sc_fixed<{coef_width},0> c[{taps}], sc_fixed<24,7> *y) {{\n\
                 \x20   static sc_fixed<{width},0> d[{taps}];\n\
                 \x20   shift: for (int k = {last}; k > 0; k--) {{\n\
                 \x20       d[k] = d[k - 1];\n\
                 \x20   }}\n\
                 \x20   d[0] = x_in;\n\
                 \x20   sc_fixed<24,7> acc = 0;\n\
                 \x20   mac: for (int k = 0; k < {taps}; k++) {{\n\
                 \x20       acc += d[k] * c[k];\n\
                 \x20   }}\n\
                 \x20   *y = acc;\n\
                 }}\n",
                last = taps - 1
            ),
        }
    }

    /// A short label naming the family member.
    pub fn name(&self) -> String {
        match *self {
            Kernel::Qam { nffe, ndfe, width } => format!("qam-f{nffe}-d{ndfe}-w{width}"),
            Kernel::Fir {
                taps,
                width,
                coef_width,
            } => format!("fir{taps}-w{width}-c{coef_width}"),
        }
    }

    /// The loop labels a directive may unroll.
    pub fn loops(&self) -> &'static [&'static str] {
        match self {
            Kernel::Qam { .. } => &QAM_LOOPS,
            Kernel::Fir { .. } => &FIR_LOOPS,
        }
    }
}

/// Loops and clocks every sweep of a family explores: 162 candidates per
/// decoder sweep, 54 per FIR sweep.
const QAM_SWEEP_LOOPS: usize = 3;
const FIR_SWEEP_LOOPS: usize = 2;
const SWEEP_CLOCKS: usize = 3;

/// The loop transforms of one draw: unroll factors and a merge policy.
#[derive(Debug, Clone, PartialEq)]
pub struct Transform {
    /// `(loop, factor)` for every loop unrolled by more than 1, sorted.
    pub unroll: Vec<(&'static str, u32)>,
    pub merge: MergePolicy,
}

impl Transform {
    /// Picks an unroll factor from {1, 2, 4} for 1–3 of the kernel's loops
    /// and a merge policy.
    fn draw(kernel: &Kernel, rng: &mut SplitMix64) -> Transform {
        let loops = kernel.loops();
        let n = 1 + rng.below(loops.len().min(3) as u64) as usize;
        let mut unroll: Vec<(&'static str, u32)> = choose(rng, loops, n)
            .into_iter()
            .map(|l| (l, pick(rng, &[1, 2, 4])))
            .filter(|&(_, factor)| factor > 1)
            .collect();
        unroll.sort_unstable();
        Transform {
            unroll,
            merge: pick(rng, &MERGES),
        }
    }

    fn directives(&self, clock_ns: f64) -> Directives {
        Directives::new(clock_ns)
            .merge_policy(self.merge)
            .grid_point(&self.unroll, &[])
    }

    fn key(&self) -> String {
        format!("{:?}{:?}", self.merge, self.unroll)
    }
}

fn pick<T: Copy>(rng: &mut SplitMix64, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

/// `n` distinct items, in draw order (a partial Fisher–Yates shuffle).
fn choose<T: Copy>(rng: &mut SplitMix64, items: &[T], n: usize) -> Vec<T> {
    let mut items = items.to_vec();
    for i in 0..n {
        let j = i + rng.below((items.len() - i) as u64) as usize;
        items.swap(i, j);
    }
    items.truncate(n);
    items
}

fn draw_clock(rng: &mut SplitMix64) -> f64 {
    MIN_CLOCK_NS + CLOCK_STEP_NS * rng.below(CLOCK_STEPS) as f64
}

/// `n` distinct clocks, ascending.
fn draw_clocks(rng: &mut SplitMix64, n: usize) -> Vec<f64> {
    let mut steps: Vec<u64> = Vec::with_capacity(n);
    while steps.len() < n {
        let s = rng.below(CLOCK_STEPS);
        if !steps.contains(&s) {
            steps.push(s);
        }
    }
    steps.sort_unstable();
    steps
        .into_iter()
        .map(|s| MIN_CLOCK_NS + CLOCK_STEP_NS * s as f64)
        .collect()
}

fn request(
    kernel: &Kernel,
    transform: &Transform,
    clock_ns: f64,
    verify: bool,
) -> SynthesisRequest {
    SynthesisRequest {
        design: format!("{}@{clock_ns}ns", kernel.name()),
        source: kernel.source(),
        directives: transform.directives(clock_ns),
        library: table1_library(),
        verify,
    }
}

/// Draws (kernel, transform) pairs that never repeat within one stream.
/// The space holds about 61,000 pairs (each FIR band 1,134, each decoder
/// stratum 2,097), so a window would need some 27,000 requests to exhaust
/// it; a stream that does stops with a panic rather than spinning.
struct UniqueDraws {
    rng: SplitMix64,
    seen: HashSet<(Kernel, String)>,
}

impl UniqueDraws {
    fn new(rng: SplitMix64) -> UniqueDraws {
        UniqueDraws {
            rng,
            seen: HashSet::new(),
        }
    }

    /// The pair for request `i`.
    fn next(&mut self, i: usize) -> (Kernel, Transform) {
        for _ in 0..10_000 {
            let kernel = Kernel::of_request(i, &mut self.rng);
            let transform = Transform::draw(&kernel, &mut self.rng);
            if self.seen.insert((kernel, transform.key())) {
                return (kernel, transform);
            }
        }
        panic!("request {i}: every kernel and transform of its stratum was drawn already")
    }
}

/// What the oracle expects of one operation's reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A request never sent before: a miss that must synthesize.
    Fresh,
    /// A repeat of pre-filled entry `i`: a hit byte-identical to its
    /// first serve.
    Hit(usize),
    /// A request whose clock no operator fits: `failure_code`
    /// `infeasible-clock`, from the negative cache after its first serve.
    Infeasible,
}

/// One generated operation.
#[derive(Debug, Clone)]
pub struct Op {
    pub index: usize,
    pub request: SynthesisRequest,
    pub expect: Expect,
}

/// Which server workload a stream generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Unique unverified requests.
    Cold,
    /// Unique transform configurations, each verified at 3 clocks in a row.
    Verified,
    /// 94% Zipf(1.0) hits on the pre-fill, 5% fresh misses, 1% infeasible.
    WarmRead,
}

/// The share of `warm_read` operations, in percent, that are hits and
/// fresh misses; the rest are infeasible-clock requests.
const WARM_HIT_PCT: u64 = 94;
const WARM_FRESH_PCT: u64 = 5;

/// The seeded, endless operation stream of one server workload.
pub struct OpStream {
    mix: Mix,
    rng: SplitMix64,
    draws: UniqueDraws,
    /// `synth_verified`: the configuration being swept and its clocks left.
    pending: Vec<SynthesisRequest>,
    prefill: Vec<SynthesisRequest>,
    zipf_cdf: Vec<f64>,
    next_index: usize,
}

/// Per-stream salts, so workloads with one seed draw unrelated inputs.
const SALT_OPS: u64 = 0x6f70_7321;
const SALT_PREFILL: u64 = 0x7072_6566;

impl OpStream {
    /// The stream of `mix` for `seed`, with `prefill` pre-filled entries
    /// for [`Mix::WarmRead`] (ignored otherwise).
    pub fn new(mix: Mix, seed: u64, prefill: usize) -> OpStream {
        let mut draws = UniqueDraws::new(SplitMix64(seed ^ SALT_PREFILL));
        let prefill: Vec<SynthesisRequest> = if mix == Mix::WarmRead {
            (0..prefill)
                .map(|i| {
                    let (k, t) = draws.next(i);
                    request(&k, &t, draw_clock(&mut draws.rng), false)
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut total = 0.0;
        let zipf_cdf = (1..=prefill.len())
            .map(|rank| {
                total += 1.0 / rank as f64;
                total
            })
            .collect();
        // Fresh draws continue the pre-fill's uniqueness set, so a fresh
        // miss can never repeat a pre-filled entry.
        draws.rng = SplitMix64(seed ^ SALT_OPS);
        OpStream {
            mix,
            rng: SplitMix64(seed.rotate_left(17) ^ SALT_OPS),
            draws,
            pending: Vec::new(),
            prefill,
            zipf_cdf,
            next_index: 0,
        }
    }

    /// The requests that pre-fill the store (`warm_read` only).
    pub fn prefill(&self) -> &[SynthesisRequest] {
        &self.prefill
    }

    fn zipf(&mut self) -> usize {
        let total = self.zipf_cdf.last().copied().unwrap_or(0.0);
        let u = (self.rng.next() >> 11) as f64 / (1u64 << 53) as f64 * total;
        self.zipf_cdf
            .partition_point(|&c| c <= u)
            .min(self.zipf_cdf.len() - 1)
    }

    fn fresh(&mut self, verify: bool) -> SynthesisRequest {
        let (k, t) = self.draws.next(self.next_index);
        request(&k, &t, draw_clock(&mut self.rng), verify)
    }

    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        let (request, expect) = match self.mix {
            Mix::Cold => (self.fresh(false), Expect::Fresh),
            Mix::Verified => {
                if self.pending.is_empty() {
                    let (k, t) = self.draws.next(self.next_index / 3);
                    self.pending = draw_clocks(&mut self.rng, 3)
                        .into_iter()
                        .rev()
                        .map(|c| request(&k, &t, c, true))
                        .collect();
                }
                let r = self.pending.pop().expect("refilled above");
                (r, Expect::Fresh)
            }
            Mix::WarmRead => {
                let u = self.rng.below(100);
                if u < WARM_HIT_PCT {
                    let i = self.zipf();
                    (self.prefill[i].clone(), Expect::Hit(i))
                } else if u < WARM_HIT_PCT + WARM_FRESH_PCT {
                    (self.fresh(false), Expect::Fresh)
                } else {
                    let i = self.rng.below(INFEASIBLE_CLOCKS as u64) as usize;
                    (infeasible_request(i), Expect::Infeasible)
                }
            }
        };
        let index = self.next_index;
        self.next_index += 1;
        Op {
            index,
            request,
            expect,
        }
    }
}

/// The `i`-th fixed infeasible-clock request: Figure 4's decoder at
/// 0.5 + 0.1·i ns.
pub fn infeasible_request(i: usize) -> SynthesisRequest {
    let clock_ns = 0.5 + 0.1 * i as f64;
    let mut r = SynthesisRequest::new(QAM_DECODER_SOURCE);
    r.design = format!("qam@{clock_ns:.1}ns");
    r.library = table1_library();
    r.directives = Directives::new(clock_ns);
    r
}

/// Whether operation `index` belongs to the oracle's seeded 5% sample.
pub fn sampled(seed: u64, index: usize) -> bool {
    SplitMix64(seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)).below(20) == 0
}

/// One design-space sweep: a kernel, a per-loop unroll grid, clocks and
/// both merge policies, explored with pruning and full verification.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    pub kernel: Kernel,
    pub loops: Vec<&'static str>,
    pub clocks: Vec<f64>,
}

impl SweepPlan {
    /// The seeded sweep plans of `dse_sweep`, in order.
    pub fn stream(seed: u64) -> impl Iterator<Item = SweepPlan> {
        let mut rng = SplitMix64(seed ^ 0x7377_6565_7021);
        (0..).map(move |i| {
            let kernel = Kernel::of_sweep(i, &mut rng);
            let n = match kernel {
                Kernel::Qam { .. } => QAM_SWEEP_LOOPS,
                Kernel::Fir { .. } => FIR_SWEEP_LOOPS,
            };
            let loops = choose(&mut rng, kernel.loops(), n);
            let clocks = draw_clocks(&mut rng, SWEEP_CLOCKS);
            SweepPlan {
                kernel,
                loops,
                clocks,
            }
        })
    }

    /// The explorer configuration: unroll {1,2,4} per loop, every clock,
    /// both merge policies, branch-and-bound pruning, every point proved.
    pub fn config(&self) -> ExploreConfig {
        ExploreConfig {
            clock_periods_ns: self.clocks.clone(),
            merge_policies: vec![MergePolicy::Off, MergePolicy::AllowHazards],
            loop_grids: Some(LoopGrid {
                unroll: self
                    .loops
                    .iter()
                    .map(|l| (l.to_string(), vec![1, 2, 4]))
                    .collect(),
                pipeline: Vec::new(),
            }),
            verify: VerifyLevel::All,
            cache: None,
            ..ExploreConfig::default()
        }
        .budgeted()
    }

    /// Candidates in the sweep's grid.
    pub fn candidates(&self) -> usize {
        3usize.pow(self.loops.len() as u32) * self.clocks.len() * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_serve::batch_to_json;
    use qam_decoder::table1_architectures;

    fn ops(mix: Mix, seed: u64, n: usize) -> Vec<Op> {
        let mut s = OpStream::new(mix, seed, 50);
        (0..n).map(|_| s.next_op()).collect()
    }

    fn wire(ops: &[Op]) -> String {
        let reqs: Vec<SynthesisRequest> = ops.iter().map(|o| o.request.clone()).collect();
        batch_to_json(&reqs).write()
    }

    #[test]
    fn same_seed_gives_byte_identical_requests() {
        for mix in [Mix::Cold, Mix::Verified, Mix::WarmRead] {
            assert_eq!(wire(&ops(mix, 7, 200)), wire(&ops(mix, 7, 200)), "{mix:?}");
            assert_ne!(wire(&ops(mix, 7, 200)), wire(&ops(mix, 8, 200)), "{mix:?}");
        }
        let a: Vec<String> = SweepPlan::stream(3)
            .take(20)
            .map(|p| format!("{p:?}"))
            .collect();
        let b: Vec<String> = SweepPlan::stream(3)
            .take(20)
            .map(|p| format!("{p:?}"))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn draws_never_pipeline_and_cold_pairs_are_unique() {
        let mut seen = HashSet::new();
        for op in ops(Mix::Cold, 1, 500) {
            let d = &op.request.directives;
            assert!(d.loops.values().all(|l| l.pipeline_ii.is_none()));
            let transform = format!("{:?}{:?}", d.merge_policy, d.loops);
            assert!(seen.insert((op.request.source, transform)), "repeat");
        }
    }

    #[test]
    fn verified_stream_sweeps_each_configuration_at_three_clocks() {
        let ops = ops(Mix::Verified, 2, 30);
        for triple in ops.chunks(3) {
            let src: HashSet<&str> = triple.iter().map(|o| o.request.source.as_str()).collect();
            let clocks: HashSet<u64> = triple
                .iter()
                .map(|o| o.request.directives.clock_period_ns.to_bits())
                .collect();
            assert_eq!((src.len(), clocks.len()), (1, 3));
            assert!(triple.iter().all(|o| o.request.verify));
        }
    }

    #[test]
    fn warm_mix_is_mostly_hits_on_the_prefill() {
        let ops = ops(Mix::WarmRead, 5, 2000);
        let hits = ops
            .iter()
            .filter(|o| matches!(o.expect, Expect::Hit(_)))
            .count();
        let infeasible = ops
            .iter()
            .filter(|o| o.expect == Expect::Infeasible)
            .count();
        assert!((1800..1960).contains(&hits), "{hits}");
        assert!((5..50).contains(&infeasible), "{infeasible}");
        // Zipf: rank 0 is the most requested entry.
        let top = ops.iter().filter(|o| o.expect == Expect::Hit(0)).count();
        let tail = ops.iter().filter(|o| o.expect == Expect::Hit(49)).count();
        assert!(top > 4 * tail.max(1), "{top} vs {tail}");
    }

    #[test]
    fn paper_kernel_is_the_substitution_identity() {
        let k = Kernel::Qam {
            nffe: 8,
            ndfe: 16,
            width: 10,
        };
        assert_eq!(k.source(), QAM_DECODER_SOURCE);
    }

    #[test]
    fn table1_anchors_give_the_papers_cycles() {
        let func = hls_ir::parse_function(QAM_DECODER_SOURCE).expect("parses");
        let lib = table1_library();
        let cycles: Vec<u64> = table1_architectures()
            .iter()
            .map(|a| {
                rtl::compile(&func, &a.directives, &lib)
                    .expect("compiles")
                    .synthesis
                    .metrics
                    .latency_cycles
            })
            .collect();
        assert_eq!(cycles, [35, 69, 19, 15]);
    }

    #[test]
    fn every_family_member_synthesizes_and_proves_at_the_fastest_clock() {
        let lib = table1_library();
        let mut kernels = Vec::new();
        for width in WIDTHS {
            for nffe in NFFE {
                for ndfe in NDFE {
                    kernels.push(Kernel::Qam { nffe, ndfe, width });
                }
            }
            for coef_width in COEF_WIDTHS {
                kernels.extend(FIR_TAPS.map(|taps| Kernel::Fir {
                    taps,
                    width,
                    coef_width,
                }));
            }
        }
        for k in kernels {
            let func = hls_ir::parse_function(&k.source())
                .unwrap_or_else(|e| panic!("{} does not parse: {e}", k.name()));
            let labels = func.loop_labels();
            for l in k.loops() {
                assert!(labels.iter().any(|x| x == l), "{}: no loop {l}", k.name());
            }
            // The widest unroll of the first three loops, fully merged, at
            // the fastest drawn clock.
            let t = Transform {
                unroll: k.loops().iter().take(3).map(|l| (*l, 4)).collect(),
                merge: MergePolicy::AllowHazards,
            };
            let art = rtl::compile(&func, &t.directives(MIN_CLOCK_NS), &lib)
                .unwrap_or_else(|e| panic!("{} does not synthesize: {e}", k.name()));
            assert!(
                hls_verify::verify_equiv(&art.fsmd).passed(),
                "{} does not prove",
                k.name()
            );
        }
    }

    #[test]
    fn infeasible_requests_fail_to_schedule() {
        for i in [0, INFEASIBLE_CLOCKS - 1] {
            let r = infeasible_request(i);
            let func = hls_ir::parse_function(&r.source).expect("parses");
            let err = rtl::compile(&func, &r.directives, &r.library)
                .err()
                .expect("must fail");
            assert_eq!(err.code(), "infeasible-clock");
        }
    }

    #[test]
    fn sweeps_repeat_the_same_grid_sizes_on_every_seed() {
        let sizes = |seed| -> Vec<usize> {
            SweepPlan::stream(seed)
                .take(30)
                .map(|p| p.candidates())
                .collect()
        };
        assert_eq!(sizes(1), sizes(2));
        for p in SweepPlan::stream(9).take(200) {
            assert!([54, 162].contains(&p.candidates()), "{p:?}");
            assert_eq!(
                p.config().loop_grids.expect("grid").points_per_clock() * p.clocks.len() * 2,
                p.candidates()
            );
        }
    }
}
