//! Criterion bench: the compiled-simulation fast path against the
//! reference simulator on every Table-1 architecture, and parallel
//! against serial design-space exploration.
//!
//! Beyond printing the usual criterion lines, the run records every
//! measurement (and the derived speedups) in `BENCH_sim.json` at the repo
//! root, so the fast path's advantage is tracked in-tree:
//!
//! ```text
//! cargo bench -p bench-harness --bench sim_fast_path
//! ```

use std::time::Duration;

use criterion::{black_box, BenchResult, Criterion};
use fixpt::Fixed;
use hls_core::{explore, explore_serial, ExploreConfig};
use hls_ir::Slot;
use qam_decoder::{build_qam_decoder_ir, table1_architectures, table1_library, DecoderParams};
use rtl::{CompiledSim, Fsmd, RtlSimulator};

fn bench_simulators(c: &mut Criterion) {
    let p = DecoderParams::default();
    let ids = build_qam_decoder_ir(&p);
    let fmt = p.x_format();
    let mut g = c.benchmark_group("sim_fast_path");
    for arch in table1_architectures() {
        let r = hls_core::synthesize(&ids.func, &arch.directives, &table1_library())
            .expect("Table-1 architecture synthesizes");
        let fsmd = Fsmd::from_synthesis(&r);
        let inputs = || {
            let re = Slot::Array(vec![Fixed::from_f64(0.3, fmt), Fixed::from_f64(-0.1, fmt)]);
            let im = Slot::Array(vec![Fixed::from_f64(-0.2, fmt), Fixed::from_f64(0.4, fmt)]);
            [(ids.x_in_re, re), (ids.x_in_im, im)]
        };

        let mut reference = RtlSimulator::new(fsmd.clone());
        g.bench_function(format!("reference/{}", arch.name), |b| {
            b.iter(|| black_box(reference.run_call(&inputs()).expect("reference runs")))
        });

        let mut compiled = CompiledSim::from_fsmd(&fsmd);
        g.bench_function(format!("compiled/{}", arch.name), |b| {
            b.iter(|| black_box(compiled.run_call(&inputs()).expect("compiled runs")))
        });
    }
    g.finish();
}

fn bench_exploration(c: &mut Criterion) {
    let p = DecoderParams::default();
    let ids = build_qam_decoder_ir(&p);
    let cfg = ExploreConfig::default();
    let lib = table1_library();
    let mut g = c.benchmark_group("explore");
    g.bench_function("serial", |b| {
        b.iter(|| black_box(explore_serial(&ids.func, &cfg, &lib).points.len()))
    });
    g.bench_function("parallel", |b| {
        b.iter(|| black_box(explore(&ids.func, &cfg, &lib).points.len()))
    });
    g.finish();
}

/// Mean time of one measurement by id, if present.
fn mean_of(results: &[BenchResult], id: &str) -> Option<f64> {
    results.iter().find(|r| r.id == id).map(|r| r.mean_ns)
}

fn render_json(results: &[BenchResult]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"generated_by\": \"cargo bench -p bench-harness --bench sim_fast_path\",\n");
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"iters\": {}}}{comma}\n",
            r.id, r.mean_ns, r.min_ns, r.iters
        ));
    }
    out.push_str("  ],\n  \"speedups\": {\n");
    let mut lines = Vec::new();
    for arch in table1_architectures() {
        if let (Some(refe), Some(comp)) = (
            mean_of(results, &format!("sim_fast_path/reference/{}", arch.name)),
            mean_of(results, &format!("sim_fast_path/compiled/{}", arch.name)),
        ) {
            lines.push(format!(
                "    \"sim_compiled_vs_reference/{}\": {:.2}",
                arch.name,
                refe / comp
            ));
        }
    }
    if let (Some(ser), Some(par)) = (
        mean_of(results, "explore/serial"),
        mean_of(results, "explore/parallel"),
    ) {
        lines.push(format!(
            "    \"explore_parallel_vs_serial\": {:.2}",
            ser / par
        ));
    }
    out.push_str(&lines.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
}

fn main() {
    // BENCH_sim.json records whole runs, so this bench takes no name
    // filter from the command line.
    let mut c = Criterion::default()
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    bench_simulators(&mut c);
    bench_exploration(&mut c);

    let json = render_json(c.results());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    std::fs::write(path, &json).expect("writes BENCH_sim.json");
    println!("\nwrote {path}");
    for arch in table1_architectures() {
        if let (Some(refe), Some(comp)) = (
            mean_of(
                c.results(),
                &format!("sim_fast_path/reference/{}", arch.name),
            ),
            mean_of(
                c.results(),
                &format!("sim_fast_path/compiled/{}", arch.name),
            ),
        ) {
            println!("compiled speedup ({}): {:.2}x", arch.name, refe / comp);
        }
    }
}
