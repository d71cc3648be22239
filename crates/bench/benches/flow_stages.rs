//! Criterion bench: cost of each flow stage in isolation — parsing C
//! source, transforms, lowering, scheduling — over the decoder IR; the
//! three call chains that run the stages (a compile, an explored
//! candidate's prefix replay, a stream module); the proof cache's key and
//! the default differential fuzzing campaign on each Table-1 machine; one
//! verified sweep per kernel family; one warm store hit served by a
//! cluster node; and the per-byte codecs of that hit on its reply.
//!
//! A name filter runs a subset: `cargo bench --bench flow_stages -- fuzz`.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use hls_cluster::{read_frame, ClusterConfig, ClusterNode, Frame, Incoming};
use hls_core::{
    apply_loop_transforms, lower, optimize_lowered, schedule_dfg, synthesize,
    synthesize_traced_with_prefix, Directives, ExploreConfig, LoopGrid, MergePolicy, NetlistEntry,
    PipelineConfig, TechLibrary, VerifyLevel,
};
use hls_ir::{parse_function, stable_digest, Json};
use hls_serve::{batch_to_json, ArtifactStore, ServiceConfig, StoreConfig, SynthesisRequest};
use hls_stream::synthesize_stream;
use hls_verify::{explore_verified, fsmd_key, fuzz_equiv};
use qam_decoder::{
    build_qam_decoder_ir, table1_architectures, table1_library, DecoderParams, QAM_DECODER_SOURCE,
};
use rtl::{compile_traced, Fsmd};

/// A 32-tap FIR in the shape of the end-to-end benchmark's FIR family.
const FIR_SOURCE: &str =
    "void fir32(sc_fixed<10,0> x_in, sc_fixed<12,0> c[32], sc_fixed<24,7> *y) {
    static sc_fixed<10,0> d[32];
    shift: for (int k = 31; k > 0; k--) {
        d[k] = d[k - 1];
    }
    d[0] = x_in;
    sc_fixed<24,7> acc = 0;
    mac: for (int k = 0; k < 32; k++) {
        acc += d[k] * c[k];
    }
    *y = acc;
}
";

fn bench_stages(c: &mut Criterion) {
    let ir = build_qam_decoder_ir(&DecoderParams::default());
    let d = Directives::new(10.0);
    let lib = TechLibrary::asic_100mhz();
    let mut g = c.benchmark_group("flow_stages");

    g.bench_function("parse_decoder", |b| {
        b.iter(|| std::hint::black_box(parse_function(QAM_DECODER_SOURCE).expect("parses")))
    });
    g.bench_function("parse_fir", |b| {
        b.iter(|| std::hint::black_box(parse_function(FIR_SOURCE).expect("parses")))
    });

    g.bench_function("build_ir", |b| {
        b.iter(|| std::hint::black_box(build_qam_decoder_ir(&DecoderParams::default())))
    });
    g.bench_function("validate", |b| {
        b.iter(|| std::hint::black_box(hls_ir::validate(&ir.func)))
    });
    g.bench_function("transforms", |b| {
        b.iter(|| std::hint::black_box(apply_loop_transforms(&ir.func, &d)))
    });
    let t = apply_loop_transforms(&ir.func, &d);
    g.bench_function("lowering", |b| {
        b.iter(|| std::hint::black_box(lower(&t.func, &d)))
    });
    let lowered = lower(&t.func, &d);
    g.bench_function("schedule_all_segments", |b| {
        b.iter(|| {
            for seg in &lowered.segments {
                std::hint::black_box(
                    schedule_dfg(seg.dfg(), &d, &lib, &|_| None).expect("schedules"),
                );
            }
        })
    });
    g.finish();
}

/// The call chains over the stages, per Table-1 architecture:
/// `compile/<arch>` is `compile_traced` under the default configuration,
/// as every served miss runs it; `prefix_job/<arch>` replays the
/// architecture's prefix with `skip_trace_stats`, as every explored
/// candidate does; `stream_module/<workload>` is `synthesize_stream`.
fn bench_call_chains(c: &mut Criterion) {
    let func = parse_function(QAM_DECODER_SOURCE).expect("parses");
    let lib = table1_library();
    let mut g = c.benchmark_group("flow_stages");
    for arch in table1_architectures() {
        let config = PipelineConfig::default();
        g.bench_function(format!("compile/{}", arch.name), |b| {
            b.iter(|| compile_traced(&func, &arch.directives, &lib, &config))
        });
    }
    let skipping = PipelineConfig {
        skip_trace_stats: true,
        ..PipelineConfig::default()
    };
    for arch in table1_architectures() {
        let d = &arch.directives;
        let transformed = apply_loop_transforms(&func, d);
        let mut lowered = lower(&transformed.func, d);
        let report = optimize_lowered(&mut lowered, &d.netlist_opt, &lib);
        let prefix = Arc::new(NetlistEntry {
            transformed,
            lowered,
            report,
        });
        g.bench_function(format!("prefix_job/{}", arch.name), |b| {
            b.iter(|| synthesize_traced_with_prefix(&func, d, &lib, &skipping, Arc::clone(&prefix)))
        });
    }
    for (name, w) in [
        ("cordic8", dsp::cordic_stream(8)),
        ("fir8", dsp::fir_stream(8)),
    ] {
        g.bench_function(format!("stream_module/{name}"), |b| {
            b.iter(|| synthesize_stream(&w.func, &w.directives, &lib).expect("synthesizes"))
        });
    }
    g.finish();
}

/// `fsmd_key` on each Table-1 machine: what every verified request pays
/// before its proof-cache lookup.
fn bench_proof_key(c: &mut Criterion) {
    let func = parse_function(QAM_DECODER_SOURCE).expect("parses");
    let lib = table1_library();
    let mut g = c.benchmark_group("flow_stages");
    for arch in table1_architectures() {
        let r = synthesize(&func, &arch.directives, &lib).expect("synthesizes");
        let fsmd = Fsmd::from_synthesis(&r);
        g.bench_function(format!("proof_key/{}", arch.name), |b| {
            b.iter(|| fsmd_key(&fsmd))
        });
    }
    g.finish();
}

/// `fuzz_equiv` under the default configuration on each Table-1 machine:
/// one whole coverage-guided differential campaign, the fallback of every
/// design the prover cannot decide. A campaign runs 327 calls on `merged`
/// and `none` and 490 on the unrolled designs (its report's `calls`), so
/// calls per second is that count over the time per iteration.
fn bench_fuzz(c: &mut Criterion) {
    let func = parse_function(QAM_DECODER_SOURCE).expect("parses");
    let lib = table1_library();
    let mut g = c.benchmark_group("flow_stages");
    for arch in table1_architectures() {
        let r = synthesize(&func, &arch.directives, &lib).expect("synthesizes");
        let fsmd = Fsmd::from_synthesis(&r);
        g.bench_function(format!("fuzz/{}", arch.name), |b| {
            b.iter(|| {
                let report = fuzz_equiv(&fsmd);
                assert!(report.counterexample.is_none(), "{}", arch.name);
                report
            })
        });
    }
    g.finish();
}

/// One verified sweep per kernel family, in the end-to-end benchmark's
/// sweep shape: unroll {1, 2, 4} per loop, three clocks, both merge
/// policies, branch-and-bound pruning and every point proved.
/// `verified_sweep/fir` sweeps the 32-tap FIR's two loops (54
/// candidates), `verified_sweep/qam` three of the decoder's loops (162).
fn bench_verified_sweep(c: &mut Criterion) {
    let lib = table1_library();
    let mut g = c.benchmark_group("flow_stages");
    for (name, source, loops) in [
        ("fir", FIR_SOURCE, &["shift", "mac"][..]),
        ("qam", QAM_DECODER_SOURCE, &["ffe", "dfe", "dfe_adapt"][..]),
    ] {
        let func = parse_function(source).expect("parses");
        let config = ExploreConfig {
            clock_periods_ns: vec![8.0, 12.0, 16.0],
            merge_policies: vec![MergePolicy::Off, MergePolicy::AllowHazards],
            loop_grids: Some(LoopGrid {
                unroll: loops
                    .iter()
                    .map(|l| (l.to_string(), vec![1, 2, 4]))
                    .collect(),
                pipeline: Vec::new(),
            }),
            verify: VerifyLevel::All,
            cache: None,
            ..ExploreConfig::default()
        }
        .budgeted();
        g.bench_function(format!("verified_sweep/{name}"), |b| {
            b.iter(|| {
                let r = explore_verified(&func, &config, &lib);
                assert!(r.failures.is_empty() && r.verify_failures.is_empty());
                r
            })
        });
    }
    g.finish();
}

/// One warm decoder hit through a `ClusterNode`, in process: from the
/// request frame's bytes to the reply line's bytes, as `handle_connection`
/// answers each frame (without the socket).
fn bench_serve_hit(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("flow-stages-serve-hit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open(&dir, StoreConfig::default()).expect("store opens");
    let node = ClusterNode::new(ClusterConfig::single(ServiceConfig::default()), store)
        .expect("node builds");
    let merged = table1_architectures().remove(0);
    let request = SynthesisRequest {
        design: merged.name.to_string(),
        source: QAM_DECODER_SOURCE.to_string(),
        directives: merged.directives,
        library: table1_library(),
        verify: false,
    };
    let mut frame = Vec::new();
    Frame::Batch {
        requests: batch_to_json(&[request]),
    }
    .write_line(&mut frame)
    .expect("frames write to memory");
    let call = || {
        let Ok(Some(Incoming::Frame(f))) = read_frame(&mut frame.as_slice()) else {
            panic!("the request frame reads back");
        };
        node.reply_line(f)
    };
    assert!(
        !call().contains("\"cache_hit\":true"),
        "the first call synthesizes"
    );
    assert!(
        call().contains("\"cache_hit\":true"),
        "the second call hits"
    );
    let mut g = c.benchmark_group("flow_stages");
    g.bench_function("serve_hit", |b| b.iter(call));

    // The codecs a hit runs, on its ~33 KB reply: the store digests the
    // body (here the reply's first 28 KiB), both ends parse and write
    // JSON, and every request key renders the decoder's IR.
    let reply = call();
    let reply = reply.trim_end();
    let body = &reply.as_bytes()[..28 * 1024];
    g.bench_function("codec/digest_28k", |b| b.iter(|| stable_digest(body)));
    g.bench_function("codec/json_parse_reply", |b| {
        b.iter(|| Json::parse(reply).expect("the reply parses"))
    });
    let parsed = Json::parse(reply).expect("the reply parses");
    g.bench_function("codec/json_write_reply", |b| b.iter(|| parsed.write()));
    let func = parse_function(QAM_DECODER_SOURCE).expect("parses");
    g.bench_function("codec/render_decoder", |b| b.iter(|| func.to_string()));
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_stages,
    bench_call_chains,
    bench_proof_key,
    bench_fuzz,
    bench_verified_sweep,
    bench_serve_hit
);
criterion_main!(benches);
