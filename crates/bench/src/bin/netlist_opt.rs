//! Netlist-optimizer measurement: runs every Table-1 architecture across
//! a clock sweep with the rewrite passes off and on (`OptLevel::Full`),
//! records the per-pass cell/depth/critical-path deltas, discharges every
//! rewrite's equivalence obligation (`netlist_obligations` of the
//! point's lowering) through the `hls-verify` prover, and
//! writes the machine-readable record to `BENCH_netlist.json` at the repo
//! root (schema documented in DESIGN.md under "Netlist optimization").
//!
//! A second, denser grid proves every rewrite of a six-loop kernel under
//! every per-loop unroll factor and merge policy (`grid` in the JSON).
//!
//! The binary is also the CI smoke for the rewrite layer: it exits
//! non-zero unless (a) zero obligations are Disproved anywhere in the
//! sweep, (b) the rebalance pass reduces logic depth on at least one
//! design point, (c) at least one design point shows a measured win
//! (strictly fewer cycles, strictly smaller area, or timing closed at a
//! clock where the unoptimized design cannot be scheduled), and (d)
//! every obligation of the grid is Proved.

use std::time::Instant;

use hls_core::netlist::logic_depth;
use hls_core::{
    apply_loop_transforms, netlist_obligations, optimize_lowered, synthesize, Directives,
    MergePolicy, NetlistObligation, NetlistReport, OptLevel, PassDelta, TechLibrary,
};
use hls_ir::{parse_function, Expr, FunctionBuilder, Ty};
use hls_verify::{
    check_netlist_obligation_with, check_netlist_obligations, NetlistCrossCheck, ProveOptions,
    ProveVerdict,
};
use qam_decoder::{build_qam_decoder_ir, table1_architectures, table1_library, DecoderParams};

/// One synthesized design point, or the reason it did not schedule.
struct Point {
    metrics: Option<hls_core::DesignMetrics>,
    report: NetlistReport,
    obligations: Vec<NetlistObligation>,
}

fn run_point(
    func: &hls_ir::Function,
    directives: &hls_core::Directives,
    lib: &hls_core::TechLibrary,
) -> Point {
    // The optimizer is deterministic: optimizing the transformed
    // function's lowering here reproduces the `netlist-opt` stage of the
    // synthesis below, and its obligations are those of that stage.
    let transformed = apply_loop_transforms(func, directives);
    let mut lowered = hls_core::lower(&transformed.func, directives);
    let obligations = netlist_obligations(&lowered, &directives.netlist_opt, lib);
    let report = optimize_lowered(&mut lowered, &directives.netlist_opt, lib);
    let metrics = synthesize(func, directives, lib).ok().map(|r| r.metrics);
    Point {
        metrics,
        report,
        obligations,
    }
}

fn metrics_json(m: &Option<hls_core::DesignMetrics>) -> String {
    match m {
        None => "null".to_string(),
        Some(m) => format!(
            "{{\"latency_cycles\":{},\"latency_ns\":{},\"critical_path_ns\":{:.4},\
             \"area\":{:.2},\"fu_mux_area\":{:.2}}}",
            m.latency_cycles,
            m.latency_ns,
            m.critical_path_ns,
            m.area,
            m.allocation.fu_area + m.allocation.mux_area
        ),
    }
}

/// A serial accumulate chain `out = x0 + x1 + ... + x{n-1}` as the front
/// end writes it — the canonical shape the rebalance pass exists for.
/// Table-1's deepest chains are multiply-dominated, so the depth win is
/// measured here, on the structure the pass targets, through the same
/// `lower` → `optimize_lowered` path the pipeline uses.
fn chain_kernel(n: usize) -> hls_ir::Function {
    let mut b = FunctionBuilder::new("acc_chain");
    let xs: Vec<_> = (0..n)
        .map(|i| b.param_scalar(format!("x{i}"), Ty::fixed(12, 6)))
        .collect();
    let out = b.param_scalar("out", Ty::fixed(18, 10));
    let mut e = Expr::var(xs[0]);
    for &x in &xs[1..] {
        e = Expr::add(e, Expr::var(x));
    }
    b.assign(out, e);
    b.build()
}

/// A deliberately small six-loop kernel: every loop body carries a
/// rewrite the netlist optimizer fires on (folding `* 2`, cancelling
/// `- x[0] + x[0]`), so every lowering ships obligations, and the
/// narrow widths keep each proof inside the exhaustive bit-blast budget.
const SIX_LOOP_SRC: &str = r#"
    void grid6(sc_fixed<4,2> x[4], sc_fixed<10,6> *out) {
        sc_fixed<10,6> acc = 0;
        l0: for (int a = 0; a < 4; a++) { acc += x[a] * 2; }
        l1: for (int b = 0; b < 4; b++) { acc += x[b] - x[0] + x[0]; }
        l2: for (int c = 0; c < 4; c++) { acc += x[c] * 2; }
        l3: for (int d = 0; d < 4; d++) { acc += x[d] - x[1] + x[1]; }
        l4: for (int e = 0; e < 4; e++) { acc += x[e] * 2; }
        l5: for (int f = 0; f < 4; f++) { acc += x[f] - x[2] + x[2]; }
        *out = acc;
    }
"#;

/// Verdict counts over the grid.
#[derive(Default)]
struct Tally {
    obligations: usize,
    proved: usize,
    unknown: usize,
    disproved: usize,
}

/// Discharges the rewrite obligations of every lowering of the six-loop
/// kernel: unroll factors {1, 2, 4} on each loop × both merge policies,
/// 3⁶ × 2 = 1,458 lowerings. Obligations never read the clock, so one
/// clock covers the grid. Every proof is also cross-checked by sampled
/// execution in independent symbolic tables ([`NetlistCrossCheck`]).
/// Returns the lowering count and the tally.
fn obligation_grid() -> (usize, Tally) {
    let func = parse_function(SIX_LOOP_SRC).expect("six-loop kernel parses");
    let lib = TechLibrary::asic_100mhz();
    let opts = ProveOptions::default();
    let cross = NetlistCrossCheck::default();
    let loops = ["l0", "l1", "l2", "l3", "l4", "l5"];
    let mut lowerings = 0;
    let mut tally = Tally::default();
    for policy in [MergePolicy::Off, MergePolicy::AllowHazards] {
        for combo in 0..3u32.pow(6) {
            let unroll: Vec<(&str, u32)> = loops
                .iter()
                .enumerate()
                .map(|(i, &l)| (l, [1, 2, 4][(combo / 3u32.pow(i as u32) % 3) as usize]))
                .collect();
            let d = Directives::new(10.0)
                .merge_policy(policy)
                .grid_point(&unroll, &[]);
            let transformed = apply_loop_transforms(&func, &d);
            let raw = hls_core::lower(&transformed.func, &d);
            lowerings += 1;
            for ob in netlist_obligations(&raw, &d.netlist_opt, &lib) {
                tally.obligations += 1;
                match check_netlist_obligation_with(&ob, &opts, Some(&cross)) {
                    ProveVerdict::Proved { .. } => tally.proved += 1,
                    ProveVerdict::Unknown { reason, .. } => {
                        tally.unknown += 1;
                        println!(
                            "  [grid unknown] {policy:?} {unroll:?}, pass {}: {reason}",
                            ob.pass
                        );
                    }
                    ProveVerdict::Disproved(cex) => {
                        tally.disproved += 1;
                        println!(
                            "  [grid DISPROVED] {policy:?} {unroll:?}, pass {}: observable {}",
                            ob.pass, cex.observable
                        );
                    }
                }
            }
        }
    }
    (lowerings, tally)
}

fn main() {
    let ir = build_qam_decoder_ir(&DecoderParams::default());
    let lib = table1_library();
    let opts = ProveOptions::default();
    // The paper's 100 MHz point plus tighter and looser clocks: tight
    // clocks stress chaining (where depth matters), loose ones expose
    // the pure cell-count savings.
    let clocks = [9.0, 10.0, 12.0, 16.0];

    let mut entries = Vec::new();
    let mut rebalance_depth_wins = 0usize;
    let mut measured_wins = 0usize;
    let (mut proved, mut unknown, mut disproved) = (0usize, 0usize, 0usize);

    for arch in table1_architectures() {
        for &clock in &clocks {
            let mut d_off = arch.directives.clone().netlist_opt_level(OptLevel::Off);
            d_off.clock_period_ns = clock;
            let mut d_on = arch.directives.clone().netlist_opt_level(OptLevel::Full);
            d_on.clock_period_ns = clock;

            let off = run_point(&ir.func, &d_off, &lib);
            let on = run_point(&ir.func, &d_on, &lib);

            // Discharge every obligation the optimized run emitted.
            let verdicts = check_netlist_obligations(&on.obligations, &opts);
            let mut point_disproved = 0usize;
            for (ob, v) in on.obligations.iter().zip(&verdicts) {
                match v {
                    ProveVerdict::Proved { .. } => proved += 1,
                    ProveVerdict::Unknown { reason, .. } => {
                        unknown += 1;
                        println!(
                            "  [unknown] {} @ {:.0} ns, pass {}: {}",
                            arch.name, clock, ob.pass, reason
                        );
                    }
                    ProveVerdict::Disproved(cex) => {
                        disproved += 1;
                        point_disproved += 1;
                        println!(
                            "  [DISPROVED] {} @ {:.0} ns, pass {}: observable {}",
                            arch.name, clock, ob.pass, cex.observable
                        );
                    }
                }
            }

            // Per-point wins.
            let rebalance_delta = on
                .report
                .deltas
                .iter()
                .find(|p| p.pass == "rebalance")
                .map(|p| (p.depth_before, p.depth_after));
            if let Some((before, after)) = rebalance_delta {
                if after < before {
                    rebalance_depth_wins += 1;
                }
            }
            let win = match (&off.metrics, &on.metrics) {
                (Some(a), Some(b)) => {
                    b.latency_cycles < a.latency_cycles
                        || b.area < a.area
                        || b.critical_path_ns < a.critical_path_ns
                }
                // The optimizer closed timing at a clock the baseline
                // cannot schedule at all.
                (None, Some(_)) => true,
                _ => false,
            };
            if win {
                measured_wins += 1;
            }

            println!(
                "== {} @ {:.0} ns ==  off={}  on={}  ({}; {} obligations, {} disproved)",
                arch.name,
                clock,
                off.metrics
                    .as_ref()
                    .map_or("unschedulable".to_string(), |m| format!(
                        "{} cyc / area {:.0}",
                        m.latency_cycles, m.area
                    )),
                on.metrics
                    .as_ref()
                    .map_or("unschedulable".to_string(), |m| format!(
                        "{} cyc / area {:.0}",
                        m.latency_cycles, m.area
                    )),
                on.report.describe(),
                verdicts.len(),
                point_disproved
            );

            let passes: Vec<String> = on
                .report
                .deltas
                .iter()
                .map(|p: &PassDelta| p.to_json().write())
                .collect();
            entries.push(format!(
                "{{\"arch\":\"{}\",\"clock_ns\":{clock},\"off\":{},\"on\":{},\
                 \"passes\":[{}],\"obligations\":{},\"proved\":{},\"unknown\":{},\
                 \"disproved\":{}}}",
                arch.name,
                metrics_json(&off.metrics),
                metrics_json(&on.metrics),
                passes.join(","),
                verdicts.len(),
                verdicts
                    .iter()
                    .filter(|v| matches!(v, ProveVerdict::Proved { .. }))
                    .count(),
                verdicts
                    .iter()
                    .filter(|v| matches!(v, ProveVerdict::Unknown { .. }))
                    .count(),
                point_disproved
            ));
        }
    }

    // Rebalance microbench: an 8-term accumulate chain, serial depth 7,
    // through the real lower → optimize path.
    let chain = chain_kernel(8);
    let d = hls_core::Directives::new(10.0).netlist_opt_level(OptLevel::Full);
    let mut low = hls_core::lower(&chain, &d);
    let obligations = netlist_obligations(&low, &d.netlist_opt, &lib);
    let depth_serial = low.segments.iter().map(|s| logic_depth(s.dfg())).max();
    let report = optimize_lowered(&mut low, &d.netlist_opt, &lib);
    let depth_tree = low.segments.iter().map(|s| logic_depth(s.dfg())).max();
    for v in check_netlist_obligations(&obligations, &opts) {
        match v {
            ProveVerdict::Proved { .. } => proved += 1,
            ProveVerdict::Unknown { .. } => unknown += 1,
            ProveVerdict::Disproved(_) => disproved += 1,
        }
    }
    let (depth_serial, depth_tree) = (depth_serial.unwrap_or(0), depth_tree.unwrap_or(0));
    if depth_tree < depth_serial {
        rebalance_depth_wins += 1;
    }
    println!(
        "== acc_chain(8) microbench ==  depth {} -> {}  ({})",
        depth_serial,
        depth_tree,
        report.describe()
    );
    let micro = format!(
        "{{\"kernel\":\"acc_chain8\",\"depth_before\":{depth_serial},\
         \"depth_after\":{depth_tree},\"passes\":[{}]}}",
        report
            .deltas
            .iter()
            .map(|p| p.to_json().write())
            .collect::<Vec<_>>()
            .join(",")
    );

    let t0 = Instant::now();
    let (lowerings, g) = obligation_grid();
    let grid_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "== grid6 obligation grid ==  {lowerings} lowerings, {} obligations: \
         {} proved / {} unknown / {} disproved ({grid_ms:.0} ms)",
        g.obligations, g.proved, g.unknown, g.disproved
    );
    let grid = format!(
        "{{\"kernel\":\"grid6\",\"lowerings\":{lowerings},\"obligations\":{},\
         \"proved\":{},\"unknown\":{},\"disproved\":{},\"ms\":{grid_ms:.3}}}",
        g.obligations, g.proved, g.unknown, g.disproved
    );

    let json = format!(
        "{{\"points\":[{}],\"microbench\":{micro},\"grid\":{grid},\
         \"summary\":{{\"proved\":{proved},\"unknown\":{unknown},\
         \"disproved\":{disproved},\"rebalance_depth_wins\":{rebalance_depth_wins},\
         \"measured_wins\":{measured_wins}}}}}\n",
        entries.join(",")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_netlist.json");
    std::fs::write(path, &json).expect("writes BENCH_netlist.json");
    println!(
        "wrote BENCH_netlist.json ({} points; {} proved / {} unknown / {} disproved; \
         {} rebalance depth wins, {} measured wins)",
        entries.len(),
        proved,
        unknown,
        disproved,
        rebalance_depth_wins,
        measured_wins
    );

    // CI smoke: soundness and a measurable benefit are both hard gates.
    assert_eq!(disproved, 0, "an optimization pass was refuted");
    assert!(
        rebalance_depth_wins > 0,
        "rebalance never reduced logic depth anywhere in the sweep"
    );
    assert!(
        measured_wins > 0,
        "optimization produced no cycle/area/critical-path win anywhere in the sweep"
    );
    assert_eq!(g.disproved, 0, "a grid rewrite was refuted");
    assert_eq!(g.unknown, 0, "a grid rewrite was left unproved");
}
