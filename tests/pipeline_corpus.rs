//! The synthesis flow's observable answers, pinned over a fixed corpus.
//!
//! Every entry point that runs the stage sequence is driven here:
//! `rtl::compile_traced` (the serve path), `synthesize_traced`,
//! `synthesize_traced_with_prefix` (every explored candidate), the shared
//! prefix cache cold and warm, each diagnostic code the flow can raise,
//! an infeasible clock with and without a replayed prefix,
//! `synthesize_stream`, two budgeted `explore` sweeps (the decoder's
//! uniform sweep and a 16-tap FIR grid) and `optimize_lowered` over
//! seeded points of the decoder's six-loop grid. A case's answer is its
//! pass trace with the clock readings (`wall_ns`, `total_ns`) zeroed, its
//! diagnostics, its error code, the `Debug` of its synthesis result and,
//! for compiles, the Verilog. The golden file holds one digest of each
//! answer, one case per line, so a drift names its case.
//!
//! To regenerate after an intentional change to the flow's output:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test pipeline_corpus
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wireless_hls::dsp;
use wireless_hls::hls_core::{
    apply_loop_transforms, explore, lower, optimize_lowered, synthesize_traced,
    synthesize_traced_with_prefix, ArrayMapping, Directives, ExploreBudget, ExploreConfig,
    ExploreResult, LoopGrid, MergePolicy, NetlistEntry, OptLevel, PassCache, PipelineConfig,
    PipelineRun, SynthesisError, SynthesisResult, TechLibrary, Unroll, VerifyLevel,
};
use wireless_hls::hls_ir::{parse_function, CmpOp, Expr, Function, FunctionBuilder, Ty};
use wireless_hls::hls_stream::synthesize_stream;
use wireless_hls::qam_decoder::{
    build_qam_decoder_ir, table1_architectures, table1_library, DecoderParams,
};
use wireless_hls::rtl::{compile_traced, emit_verilog};

const LEVELS: [OptLevel; 3] = [OptLevel::Off, OptLevel::Basic, OptLevel::Full];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/pipeline_corpus.txt")
}

fn decoder() -> Function {
    build_qam_decoder_ir(&DecoderParams::default()).func
}

/// The four Table-1 architectures at `level`, as `(name, directives)`.
fn table1(level: OptLevel) -> Vec<(&'static str, Directives)> {
    table1_architectures()
        .into_iter()
        .map(|a| (a.name, a.directives.netlist_opt_level(level)))
        .collect()
}

/// The prefix the explorer would build for `d`: the transform result
/// and the optimized netlist of its lowering.
fn prefix(f: &Function, d: &Directives, lib: &TechLibrary) -> Arc<NetlistEntry> {
    let transformed = apply_loop_transforms(f, d);
    let mut lowered = lower(&transformed.func, d);
    let report = optimize_lowered(&mut lowered, &d.netlist_opt, lib);
    Arc::new(NetlistEntry {
        transformed,
        lowered,
        report,
    })
}

/// The run's trace with its clock readings zeroed; the rest of it is
/// deterministic.
fn trace_json(run: &PipelineRun) -> String {
    let mut trace = run.trace.clone();
    trace.total_ns = 0;
    for p in &mut trace.passes {
        p.wall_ns = 0;
    }
    trace.to_json()
}

fn traced_answer(
    result: Result<&SynthesisResult, &SynthesisError>,
    run: &PipelineRun,
    verilog: Option<&str>,
) -> String {
    let (design, code) = match result {
        Ok(r) => (format!("{r:?}"), "-"),
        Err(e) => (String::from("-"), e.code()),
    };
    format!(
        "trace {}\ndiagnostics {}\nerror {code}\nresult {design}\nverilog {}",
        trace_json(run),
        run.diagnostics.to_json(),
        verilog.unwrap_or("-"),
    )
}

fn compile_answer(f: &Function, d: &Directives, config: &PipelineConfig) -> String {
    let (result, run) = compile_traced(f, d, &table1_library(), config);
    match &result {
        Ok(a) => traced_answer(Ok(&a.synthesis), &run, Some(&a.verilog)),
        Err(e) => traced_answer(Err(e), &run, None),
    }
}

fn synth_answer(f: &Function, d: &Directives, config: &PipelineConfig) -> String {
    let (result, run) = synthesize_traced(f, d, &table1_library(), config);
    traced_answer(result.as_ref(), &run, None)
}

fn replay_answer(f: &Function, d: &Directives, config: &PipelineConfig) -> String {
    let lib = table1_library();
    let p = prefix(f, d, &lib);
    let (result, run) = synthesize_traced_with_prefix(f, d, &lib, config, p);
    traced_answer(result.as_ref(), &run, None)
}

/// The accumulating sum loop of the diagnostics tests.
fn sum_loop() -> Function {
    let mut b = FunctionBuilder::new("sum");
    let x = b.param_array("x", Ty::fixed(10, 0), 8);
    let out = b.param_scalar("out", Ty::fixed(14, 4));
    let acc = b.local("acc", Ty::fixed(14, 4));
    b.assign(acc, Expr::int_const(0));
    b.for_loop("sum", 0, CmpOp::Lt, 8, 1, |b, k| {
        b.assign(acc, Expr::add(Expr::var(acc), Expr::load(x, Expr::var(k))));
    });
    b.assign(out, Expr::var(acc));
    b.build()
}

/// Loading from a scalar parameter fails IR validation.
fn invalid_ir() -> Function {
    let mut b = FunctionBuilder::new("bad");
    let s = b.param_scalar("s", Ty::int(8));
    let out = b.param_scalar("out", Ty::int(8));
    b.assign(out, Expr::load(s, Expr::int_const(0)));
    b.build()
}

/// An accumulator recurrence spanning two cycles: II = 1 is infeasible.
fn deep_recurrence() -> Function {
    let mut b = FunctionBuilder::new("deep");
    let x = b.param_array("x", Ty::fixed(14, 2), 8);
    let acc = b.param_scalar("acc", Ty::fixed(16, 4));
    b.for_loop("l", 0, CmpOp::Lt, 8, 1, |b, k| {
        let t = Expr::mul(
            Expr::mul(Expr::load(x, Expr::var(k)), Expr::load(x, Expr::var(k))),
            Expr::mul(Expr::load(x, Expr::var(k)), Expr::var(acc)),
        );
        b.assign(acc, Expr::cast(Ty::fixed(16, 4), t));
    });
    b.build()
}

/// A read loop merged with the shift loop that overwrites what it reads.
fn hazard_pair() -> Function {
    let mut b = FunctionBuilder::new("h");
    let x = b.param_array("x", Ty::int(8), 8);
    let acc = b.param_scalar("acc", Ty::int(16));
    b.for_loop("read", 0, CmpOp::Lt, 8, 1, |b, k| {
        b.assign(acc, Expr::add(Expr::var(acc), Expr::load(x, Expr::var(k))));
    });
    b.for_loop("shift", 6, CmpOp::Ge, 0, -1, |b, k| {
        b.store(
            x,
            Expr::add(Expr::var(k), Expr::int_const(1)),
            Expr::load(x, Expr::var(k)),
        );
    });
    b.build()
}

/// A function whose only parameter besides the output is read and
/// written: it cannot be wrapped in a stream shell.
fn read_modify_write() -> Function {
    let mut b = FunctionBuilder::new("rmw");
    let a = b.param_scalar("a", Ty::fixed(12, 4));
    let y = b.param_scalar("y", Ty::fixed(12, 4));
    b.assign(a, Expr::add(Expr::var(a), Expr::int_const(1)));
    b.assign(y, Expr::var(a));
    b.build()
}

fn stream_answer(f: &Function, d: &Directives) -> String {
    match synthesize_stream(f, d, &table1_library()) {
        Ok(m) => format!(
            "result {:?}\nshell {:?}\nstream {:?}\nverilog {}",
            m.result,
            m.shell,
            m.stream,
            emit_verilog(&m.fsmd)
        ),
        Err(e) => format!("error {} {e}", e.code()),
    }
}

fn explore_answer() -> String {
    let config = ExploreConfig {
        clock_period_ns: 5.0,
        clock_periods_ns: vec![5.0, 10.0, 20.0],
        unroll_factors: vec![1, 2, 4],
        merge_policies: vec![MergePolicy::Off, MergePolicy::AllowHazards],
        per_loop_refinement: true,
        loop_grids: None,
        verify: VerifyLevel::Off,
        budget: Some(ExploreBudget),
        cache: None,
    };
    sweep_answer(&explore(&decoder(), &config, &table1_library()))
}

/// A 16-tap FIR in the shape of the end-to-end benchmark's FIR sweeps: a
/// delay-line shift loop and a multiply-accumulate loop.
const FIR16: &str = "
void fir16(sc_fixed<10,0> x_in, sc_fixed<12,0> c[16], sc_fixed<24,7> *y) {
    static sc_fixed<10,0> d[16];
    shift: for (int k = 15; k > 0; k--) {
        d[k] = d[k - 1];
    }
    d[0] = x_in;
    sc_fixed<24,7> acc = 0;
    mac: for (int k = 0; k < 16; k++) {
        acc += d[k] * c[k];
    }
    *y = acc;
}
";

/// The budgeted FIR sweep: unroll {1, 2, 4} on `shift` and `mac`, three
/// clocks and both merge policies (54 candidates).
fn fir_sweep_answer() -> String {
    let func = parse_function(FIR16).expect("the FIR parses");
    let config = ExploreConfig {
        clock_periods_ns: vec![8.0, 12.0, 16.0],
        merge_policies: vec![MergePolicy::Off, MergePolicy::AllowHazards],
        loop_grids: Some(LoopGrid {
            unroll: vec![
                ("shift".to_string(), vec![1, 2, 4]),
                ("mac".to_string(), vec![1, 2, 4]),
            ],
            pipeline: Vec::new(),
        }),
        verify: VerifyLevel::Off,
        ..ExploreConfig::default()
    }
    .budgeted();
    sweep_answer(&explore(&func, &config, &table1_library()))
}

fn sweep_answer(r: &ExploreResult) -> String {
    assert!(!r.pruned.is_empty(), "the budgeted sweep prunes nothing");
    let points: Vec<_> = r
        .points
        .iter()
        .map(|p| (&p.label, p.latency_cycles, p.area.to_bits()))
        .collect();
    let failures: Vec<_> = r.failures.iter().map(|(l, e)| (l, e.code())).collect();
    let pruned: Vec<_> = r.pruned.iter().map(|p| &p.label).collect();
    format!(
        "points {points:?}\nfailures {failures:?}\nevaluations {} {}\npruned {pruned:?}\nwaves {:?}",
        r.evaluations, r.transform_evaluations, r.wave_stats
    )
}

/// `optimize_lowered` at `level` over 64 seeded points of the decoder's
/// six-loop grid (unroll {1, 2, 4} per loop, one of the three merge
/// policies): per point, the fingerprint of the optimized `Lowered` and
/// its `NetlistReport`. Every level sees the same points.
fn netlist_grid_answer(level: OptLevel) -> String {
    let func = decoder();
    let lib = table1_library();
    let labels = func.loop_labels();
    assert_eq!(labels.len(), 6, "the decoder has six loops");
    let policies = [
        MergePolicy::Off,
        MergePolicy::AllowHazards,
        MergePolicy::ExactOnly,
    ];
    let mut rng = StdRng::seed_from_u64(0x006e_6574_6c69_7374);
    let mut answer = String::new();
    for _ in 0..64 {
        let mut d = Directives::new(10.0)
            .merge_policy(policies[rng.gen_range(0..3usize)])
            .netlist_opt_level(level);
        for label in &labels {
            d = d.unroll(label, Unroll::Factor([1, 2, 4][rng.gen_range(0..3usize)]));
        }
        let transformed = apply_loop_transforms(&func, &d);
        let mut lowered = lower(&transformed.func, &d);
        let report = optimize_lowered(&mut lowered, &d.netlist_opt, &lib);
        let point = format!("{lowered:?}\n{report:?}");
        answer.push_str(&fingerprint(point.as_bytes()));
        answer.push('\n');
    }
    answer
}

/// Every case of the corpus as `(name, answer)`, in a fixed order.
fn corpus() -> Vec<(String, String)> {
    let mut cases = Vec::new();
    let func = decoder();
    let default = PipelineConfig::default();
    let checked = PipelineConfig::checked();
    let skipping = PipelineConfig {
        skip_trace_stats: true,
        ..PipelineConfig::default()
    };

    for level in LEVELS {
        for (arch, d) in table1(level) {
            for (tag, config) in [("default", &default), ("checked", &checked)] {
                cases.push((
                    format!("compile/{arch}/{level:?}/{tag}"),
                    compile_answer(&func, &d, config),
                ));
            }
            for (tag, config) in [("stats", &default), ("skip-stats", &skipping)] {
                cases.push((
                    format!("prefix/{arch}/{level:?}/{tag}"),
                    replay_answer(&func, &d, config),
                ));
            }
        }
    }

    let cache = Arc::new(PassCache::default());
    let cached = PipelineConfig {
        cache: Some(Arc::clone(&cache)),
        ..PipelineConfig::default()
    };
    for pass in ["cold", "warm"] {
        for (arch, d) in table1(OptLevel::Full) {
            cases.push((
                format!("cache/{pass}/{arch}"),
                compile_answer(&func, &d, &cached),
            ));
        }
    }

    // No operator fits a 0.05 ns clock: every run fails at `schedule`,
    // after the prefix was built, replayed or published.
    let (arch, tiny) = table1(OptLevel::Full).swap_remove(0);
    let mut tiny = tiny;
    tiny.clock_period_ns = 0.05;
    for (tag, config) in [("default", &default), ("checked", &checked)] {
        cases.push((
            format!("tiny-clock/{arch}/synthesize/{tag}"),
            synth_answer(&func, &tiny, config),
        ));
        cases.push((
            format!("tiny-clock/{arch}/compile/{tag}"),
            compile_answer(&func, &tiny, config),
        ));
        cases.push((
            format!("tiny-clock/{arch}/prefix/{tag}"),
            replay_answer(&func, &tiny, config),
        ));
    }
    for pass in ["cold", "warm"] {
        cases.push((
            format!("tiny-clock/{arch}/cache/{pass}"),
            compile_answer(&func, &tiny, &cached),
        ));
    }

    let diagnostics: Vec<(String, Function, Directives)> = vec![
        (
            "unknown-loop".into(),
            sum_loop(),
            Directives::new(10.0).unroll("nope", Unroll::Factor(2)),
        ),
        (
            "unknown-variable".into(),
            sum_loop(),
            Directives::new(10.0).map_array("ghost", ArrayMapping::Registers),
        ),
        ("invalid-ir".into(), invalid_ir(), Directives::new(10.0)),
        (
            "infeasible-ii".into(),
            deep_recurrence(),
            Directives::new(10.0).pipeline("l", 1),
        ),
        ("merge-hazard".into(), hazard_pair(), Directives::new(10.0)),
    ]
    .into_iter()
    .chain(
        [0.0, -5.0, f64::NAN, f64::INFINITY]
            .into_iter()
            .map(|clock| {
                (
                    format!("invalid-clock/{clock}"),
                    sum_loop(),
                    Directives::new(clock),
                )
            }),
    )
    .collect();
    for (code, f, d) in &diagnostics {
        for (tag, config) in [("default", &default), ("checked", &checked)] {
            cases.push((
                format!("diagnostic/{code}/synthesize/{tag}"),
                synth_answer(f, d, config),
            ));
            cases.push((
                format!("diagnostic/{code}/compile/{tag}"),
                compile_answer(f, d, config),
            ));
        }
    }

    for w in [dsp::cordic_stream(8), dsp::fir_stream(8)] {
        cases.push((
            format!("stream/{}", w.name),
            stream_answer(&w.func, &w.directives),
        ));
    }
    let fir = dsp::fir_stream(8);
    cases.push((
        "stream/missing-directive".into(),
        stream_answer(&fir.func, &Directives::new(10.0)),
    ));
    cases.push((
        "stream/inout-parameter".into(),
        stream_answer(
            &read_modify_write(),
            &Directives::new(10.0).stream_interface(2, false),
        ),
    ));

    cases.push(("explore/budgeted".into(), explore_answer()));
    cases.push(("explore/fir16-grid".into(), fir_sweep_answer()));
    for level in LEVELS {
        cases.push((
            format!("netlist/decoder-grid/{level:?}"),
            netlist_grid_answer(level),
        ));
    }
    cases
}

/// The golden file's fingerprint of one answer: two FNV-1a-64 lanes with
/// distinct offset bases, one byte per step. It is frozen here, apart
/// from the store's digest, so that the golden file outlives changes to
/// that digest.
fn fingerprint(bytes: &[u8]) -> String {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let (mut a, mut b) = (0xcbf2_9ce4_8422_2325_u64, 0x6c62_272e_07bb_0142_u64);
    for &byte in bytes {
        a = (a ^ u64::from(byte)).wrapping_mul(PRIME);
        b = (b ^ u64::from(byte)).wrapping_mul(PRIME).rotate_left(1);
    }
    format!("{a:016x}{b:016x}")
}

#[test]
fn the_flow_answers_as_pinned() {
    let corpus = corpus();
    let actual: Vec<String> = corpus
        .iter()
        .map(|(name, answer)| format!("{name} {}", fingerprint(answer.as_bytes())))
        .collect();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, actual.join("\n") + "\n").expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e} (run with UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    let expected: Vec<&str> = expected.lines().collect();
    assert_eq!(
        expected.len(),
        actual.len(),
        "golden holds a different number of cases"
    );
    let drifted: Vec<&str> = actual
        .iter()
        .zip(&expected)
        .filter(|(a, e)| a != e)
        .map(|(a, _)| a.split(' ').next().unwrap_or(""))
        .collect();
    assert!(
        drifted.is_empty(),
        "{} of {} cases drifted from the golden: {drifted:?}",
        drifted.len(),
        actual.len()
    );
}
