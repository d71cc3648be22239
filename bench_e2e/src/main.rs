//! `bench_e2e`: the end-to-end benchmark of the synthesis service and of
//! design-space exploration, with a traced per-layer replay.
//!
//! ```text
//! bench_e2e --workload NAME --seed N --seconds S --trace 0|1   one run
//! bench_e2e --seed N                       every workload, one child each
//! bench_e2e --repeat R --seed N [--workload NAME]   seeds N..N+R, spreads
//! ```
//!
//! A run prints a human-readable table on stderr and, as the last line of
//! stdout, `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! README.md for the workloads and what every metric means.

mod check;
mod gen;
mod load;
mod stats;
mod sweep;
mod trace;

use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Mutex;
use std::time::Instant;

use hls_ir::Json;
use hls_serve::{ArtifactStore, StoreConfig, SynthesisRequest};
use qam_decoder::{table1_architectures, table1_library, QAM_DECODER_SOURCE};

use crate::gen::{Mix, OpStream};
use crate::load::{call_batch, closed_loop, Backend, Reply, Synthd};
use crate::stats::{cpu_seconds, geomean, mean, nproc, percentile, ratio, Spread};
use crate::trace::{Replay, REQUEST};

/// The benchmark's definition: metric names, units, bounds, workloads.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Entries `warm_read` pre-fills the store with, in batches of
/// [`PREFILL_BATCH`].
const PREFILL: usize = 1000;
const PREFILL_BATCH: usize = 100;
/// QoR is the geometric mean over the distinct designs served by the first
/// operations of the stream, a set that does not depend on how many
/// operations a window completes.
const QOR_REQUESTS: usize = 1000;
const QOR_SWEEPS: usize = 100;
/// Tail percentiles, with well over ten samples beyond them in every
/// window: thousands of requests, about two hundred sweeps.
const REQUEST_TAIL_PCT: f64 = 95.0;
const SWEEP_TAIL_PCT: f64 = 90.0;
/// Operations the traced run replays in process.
const REPLAY_REQUESTS: usize = 300;
const REPLAY_SWEEPS: usize = 8;
/// Table 1's cycle counts, which the set-up checks through the server.
const TABLE1_CYCLES: [u64; 4] = [35, 69, 19, 15];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SynthCold,
    SynthVerified,
    WarmRead,
    DseSweep,
}

const WORKLOADS: [Workload; 4] = [
    Workload::SynthCold,
    Workload::SynthVerified,
    Workload::WarmRead,
    Workload::DseSweep,
];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::SynthCold => "synth_cold",
            Workload::SynthVerified => "synth_verified",
            Workload::WarmRead => "warm_read",
            Workload::DseSweep => "dse_sweep",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
    server: Backend,
    out: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: bench_e2e [--workload {}] [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20                [--repeat R] [--synthd PATH]",
        WORKLOADS.map(Workload::name).join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let definition = definition();
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: definition
            .get("run_seconds")
            .and_then(Json::as_f64)
            .unwrap_or(15.0),
        trace: false,
        repeat: None,
        // Like the repository's own multi-process benchmarks, look for
        // synthd next to this executable unless told otherwise.
        server: Backend::Process(
            std::env::current_exe()
                .map_err(|e| format!("current exe: {e}"))?
                .with_file_name("synthd"),
        ),
        out: PathBuf::from("target/bench-e2e"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or(format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Some(
                    Workload::parse(&v).ok_or(format!("unknown workload `{v}`\n{}", usage()))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--repeat" => {
                args.repeat = Some(value()?.parse().map_err(|e| format!("--repeat: {e}"))?)
            }
            "--synthd" => args.server = Backend::Process(PathBuf::from(value()?)),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(args)
}

fn definition() -> Json {
    Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON")
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    definition()
        .get(section)
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

/// The result of one run.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// The result line: every metric BENCHMARK.json declares for this kind
    /// of run, with its unit.
    fn to_json(&self, trace: bool) -> Json {
        let section = if trace { "per_layer" } else { "end_to_end" };
        let metrics = declared(section)
            .into_iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(&name).copied().unwrap_or(f64::NAN);
                let m = Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]);
                (name, m)
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::size(self.attempted)),
            ("failed", Json::size(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// Counts failed checks and keeps the first few reasons for the log.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    reasons: Vec<String>,
}

impl Tally {
    fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.reasons.len() < 10 {
                self.reasons.push(format!("{what}: {e}"));
            }
        }
    }

    fn report(&self) {
        for r in &self.reasons {
            eprintln!("  FAILED {r}");
        }
    }
}

/// What one untraced window measured.
struct EndToEnd<'a> {
    setup_s: &'a [f64],
    ops_per_s: f64,
    /// Latency of every operation, in nanoseconds.
    latency_ns: &'a [f64],
    tail_pct: f64,
    peak_rss_mb: f64,
}

impl EndToEnd<'_> {
    /// The end-to-end metrics, with QoR over the `(cycles, area)` of the
    /// designs `qor` yields.
    fn metrics(&self, qor: impl Iterator<Item = (u64, f64)>) -> BTreeMap<String, f64> {
        let (cycles, area): (Vec<f64>, Vec<f64>) = qor.map(|(c, a)| (c as f64, a)).unzip();
        let ms: Vec<f64> = self.latency_ns.iter().map(|n| n / 1e6).collect();
        [
            ("setup_s", Spread::of(self.setup_s).median),
            ("ops_per_s", self.ops_per_s),
            ("latency_p50_ms", percentile(&ms, 50.0)),
            ("latency_tail_ms", percentile(&ms, self.tail_pct)),
            ("peak_rss_mb", self.peak_rss_mb),
            ("qor_cycles_geomean", geomean(&cycles)),
            ("qor_area_geomean", geomean(&area)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }
}

/// The four Table-1 architectures as unverified requests.
fn anchor_requests() -> Vec<SynthesisRequest> {
    table1_architectures()
        .into_iter()
        .map(|a| SynthesisRequest {
            design: format!("table1-{}", a.name),
            source: QAM_DECODER_SOURCE.to_string(),
            directives: a.directives,
            library: table1_library(),
            verify: false,
        })
        .collect()
}

fn check_anchor(r: &Reply, cycles: u64) -> Result<(), String> {
    match (&r.error, r.latency_cycles) {
        (None, Some(c)) if c == cycles => Ok(()),
        (Some(e), _) => Err(e.clone()),
        (None, got) => Err(format!("{got:?} cycles, the paper's design takes {cycles}")),
    }
}

/// A counter of the server's `Frame::Stats` report.
fn counter(stats: &Json, block: &str, key: &str) -> f64 {
    stats
        .get(block)
        .and_then(|b| b.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// `hits / (hits + misses)` of one stats block over the window.
fn hit_ratio(before: &Json, after: &Json, block: &str) -> f64 {
    let delta = |k: &str| counter(after, block, k) - counter(before, block, k);
    ratio(delta("hits"), delta("hits") + delta("misses"))
}

/// Per-layer timings and sizes of a replay.
fn replay_metrics(replay: &Replay, metrics: &mut BTreeMap<String, f64>) {
    let layers = replay.tracer.layers();
    for (name, _) in declared("per_layer") {
        if let Some(span) = name.strip_suffix("_us") {
            if let Some(l) = layers.get(span) {
                metrics.insert(name.clone(), l.mean_us());
            }
        }
    }
    let kb = |v: &[usize]| mean(&v.iter().map(|&b| b as f64 / 1024.0).collect::<Vec<_>>());
    metrics.insert("serve.reply_kb".into(), kb(&replay.reply_bytes));
    metrics.insert("rtl.verilog_kb".into(), kb(&replay.verilog_bytes));
    eprintln!(
        "\n  {:<26}{:>8}{:>12}{:>12}{:>11}",
        "layer", "calls", "total ms", "self ms", "p50 us"
    );
    for (name, l) in &layers {
        eprintln!(
            "  {name:<26}{:>8}{:>12.1}{:>12.1}{:>11.1}",
            l.calls,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6,
            l.p50_ns / 1e3
        );
    }
}

fn write_trace(args: &Args, w: Workload, replay: &Replay) -> Result<(), String> {
    let path = args
        .out
        .join(format!("trace-{}-{}.ndjson", w.name(), args.seed));
    replay
        .tracer
        .write_ndjson(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "  wrote {} ({} spans)",
        path.display(),
        replay.tracer.spans().len()
    );
    Ok(())
}

/// One server workload: `synthd` set up [`SETUP_REPEATS`] times, the last
/// one measured under the closed loop, then checked by the oracle.
fn run_server(args: &Args, w: Workload, run_dir: &Path) -> Result<Outcome, String> {
    let mix = match w {
        Workload::SynthCold => Mix::Cold,
        Workload::SynthVerified => Mix::Verified,
        Workload::WarmRead => Mix::WarmRead,
        Workload::DseSweep => unreachable!("dse_sweep runs in process"),
    };
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    // The last set-up's server, stream and replies (anchors, pre-fill).
    let mut kept: Option<(Synthd, OpStream, Vec<Reply>, Vec<Reply>)> = None;
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    for k in 0..repeats {
        if let Some((old, ..)) = kept.take() {
            old.discard();
        }
        let t0 = Instant::now();
        let stream = OpStream::new(mix, args.seed, PREFILL);
        let server = Synthd::start(&args.server, &run_dir.join(format!("setup{k}")))?;
        let anchors = call_batch(&server.addr, &anchor_requests(), false);
        let mut prefill: Vec<Reply> = Vec::new();
        for chunk in stream.prefill().chunks(PREFILL_BATCH) {
            prefill.extend(call_batch(&server.addr, chunk, false));
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some((server, stream, anchors, prefill));
    }
    let (server, stream, anchors, prefill) = kept.expect("at least one set-up");
    for (r, cycles) in anchors.iter().zip(TABLE1_CYCLES) {
        tally.record("table-1 anchor", check_anchor(r, cycles));
    }
    for r in &prefill {
        let ok = match (&r.error, &r.artifact) {
            (None, Some(_)) if !r.cache_hit => Ok(()),
            _ => Err(format!("pre-fill reply {r:?}")),
        };
        tally.record("pre-fill", ok);
    }
    let prefill_art: Vec<Option<String>> = prefill.iter().map(|r| r.artifact.clone()).collect();

    let pid = server.proc_name();
    let stats0 = server.stats()?;
    let cpu0 = cpu_seconds(&pid);
    let stream = Mutex::new(stream);
    let window = closed_loop(&server, &stream, args.seconds, args.seed);
    let server_cpu = cpu_seconds(&pid) - cpu0;
    let stats1 = server.stats()?;
    let store_dir = server.store.clone();
    drop(server);

    for s in &window.sent {
        tally.record(
            &format!("op {}", s.index),
            check::check_sent(s, &prefill_art, args.seed),
        );
    }
    if w == Workload::WarmRead {
        // Each infeasible request runs the pipeline once; repeats come from
        // the negative cache, or share a concurrent client's run.
        let reruns = window
            .sent
            .iter()
            .filter(|s| s.expect == gen::Expect::Infeasible && !s.reply.negative_hit)
            .count();
        let limit = gen::INFEASIBLE_CLOCKS * load::CLIENTS;
        tally.record(
            "negative cache",
            if reruns <= limit {
                Ok(())
            } else {
                Err(format!("{reruns} infeasible requests re-ran the pipeline"))
            },
        );
    }
    let lat: Vec<f64> = window.sent.iter().map(|s| s.latency_ns as f64).collect();
    let n = window.sent.len();
    eprintln!(
        "{}: {n} requests in {:.1} s from {} clients; server cpu {:.2}, client cpu {:.2} \
         (share of {} cores); store {} entries",
        w.name(),
        window.wall_s,
        load::CLIENTS,
        server_cpu / (window.wall_s * nproc() as f64),
        window.client_cpu_s / (window.wall_s * nproc() as f64),
        nproc(),
        counter(&stats1, "store", "entries"),
    );
    tally.report();

    let mut metrics = BTreeMap::new();
    if args.trace {
        let store = ArtifactStore::open(&store_dir, StoreConfig::default())
            .map_err(|e| format!("replay store: {e}"))?;
        let mut replay = Replay::new(store);
        let mut stream = stream.into_inner().expect("clients joined");
        for _ in 0..REPLAY_REQUESTS {
            replay.request(&stream.next_op().request, true);
        }
        replay_metrics(&replay, &mut metrics);
        write_trace(args, w, &replay)?;
        metrics.insert("store.entries".into(), counter(&stats1, "store", "entries"));
        metrics.insert(
            "store.hit_ratio".into(),
            hit_ratio(&stats0, &stats1, "store"),
        );
        metrics.insert(
            "core.passcache.hit_ratio".into(),
            hit_ratio(&stats0, &stats1, "pass_cache"),
        );
        metrics.insert(
            "verify.proofcache.hit_ratio".into(),
            hit_ratio(&stats0, &stats1, "proof_cache"),
        );
        metrics.insert(
            "work.cpu_util".into(),
            server_cpu / (window.wall_s * nproc() as f64),
        );
        let replayed_us = replay.tracer.layers()[REQUEST].mean_us();
        metrics.insert("unattributed_us".into(), mean(&lat) / 1e3 - replayed_us);
    } else {
        let mut seen = HashSet::new();
        let designs = window
            .sent
            .iter()
            .take(QOR_REQUESTS)
            .filter(|s| seen.insert(s.reply.artifact.clone()))
            .filter_map(|s| Some((s.reply.latency_cycles?, s.reply.area?)));
        metrics = EndToEnd {
            setup_s: &setup_s,
            ops_per_s: n as f64 / window.wall_s,
            latency_ns: &lat,
            tail_pct: REQUEST_TAIL_PCT,
            peak_rss_mb: window.peak_rss_mb,
        }
        .metrics(designs);
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// `dse_sweep`: cold verified sweeps in this process for the window.
fn run_dse(args: &Args, run_dir: &Path) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let setup_s: Vec<f64> = (0..repeats)
        .map(|_| {
            let t0 = Instant::now();
            let warm = sweep::warm_up();
            let s = t0.elapsed().as_secs_f64();
            tally.record("warm-up sweep", sweep::check(&warm, args.seed));
            s
        })
        .collect();

    let cpu0 = cpu_seconds("self");
    let main_cpu0 = cpu_seconds("thread-self");
    let t0 = Instant::now();
    let (swept, rss) = sweep::run(args.seed, args.seconds);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu = cpu_seconds("self") - cpu0;
    let main_cpu = cpu_seconds("thread-self") - main_cpu0;

    for s in &swept {
        tally.record(&format!("sweep {}", s.index), sweep::check(s, args.seed));
    }
    let candidates: usize = swept.iter().map(|s| s.plan.candidates()).sum();
    let evaluations: usize = swept.iter().map(|s| s.result.evaluations).sum();
    let transforms: usize = swept.iter().map(|s| s.result.transform_evaluations).sum();
    let proofs: usize = swept.iter().map(|s| s.prover.proofs).sum();
    let memo: usize = swept.iter().map(|s| s.prover.memo_hits).sum();
    let util = cpu / (wall_s * nproc() as f64);
    eprintln!(
        "dse_sweep: {} sweeps, {candidates} candidates in {wall_s:.1} s; evaluated {:.3}, \
         transforms/evaluation {:.3}, prover memo {:.3}; cpu {util:.2} of {} cores \
         (coordinating thread {:.2})",
        swept.len(),
        ratio(evaluations as f64, candidates as f64),
        ratio(transforms as f64, evaluations as f64),
        ratio(memo as f64, (proofs + memo) as f64),
        nproc(),
        main_cpu / wall_s,
    );
    tally.report();

    let wall: Vec<f64> = swept.iter().map(|s| s.wall_ns as f64).collect();
    let mut metrics = BTreeMap::new();
    if args.trace {
        let store = ArtifactStore::open(&run_dir.join("replay-store"), StoreConfig::default())
            .map_err(|e| format!("replay store: {e}"))?;
        let mut replay = Replay::new(store);
        let mut gaps = Vec::new();
        for (index, plan) in gen::SweepPlan::stream(args.seed)
            .take(REPLAY_SWEEPS)
            .enumerate()
        {
            let trace = replay.new_trace();
            let source = plan.kernel.source();
            let s = replay
                .tracer
                .time(trace, None, "explore.sweep", || sweep::sweep(index, plan));
            let t0 = Instant::now();
            for p in &s.result.points {
                let req = SynthesisRequest {
                    design: p.label.clone(),
                    source: source.clone(),
                    directives: p.directives.clone(),
                    library: table1_library(),
                    verify: true,
                };
                replay.request(&req, false);
            }
            let replayed_ns = t0.elapsed().as_nanos() as f64;
            if let Some(untraced) = swept.get(index) {
                gaps.push((untraced.wall_ns as f64 - replayed_ns) / 1e3);
            }
        }
        replay_metrics(&replay, &mut metrics);
        write_trace(args, Workload::DseSweep, &replay)?;
        let census = replay.store.stats();
        metrics.insert("store.entries".into(), census.entries as f64);
        metrics.insert(
            "store.hit_ratio".into(),
            ratio(census.hits as f64, (census.hits + census.misses) as f64),
        );
        let pc = replay.pass_cache.stats();
        metrics.insert(
            "core.passcache.hit_ratio".into(),
            ratio(pc.hits as f64, (pc.hits + pc.misses) as f64),
        );
        let vc = replay.proof_cache.stats();
        metrics.insert(
            "verify.proofcache.hit_ratio".into(),
            ratio(vc.hits as f64, (vc.hits + vc.misses) as f64),
        );
        metrics.insert("work.cpu_util".into(), util);
        metrics.insert("unattributed_us".into(), mean(&gaps));
    } else {
        let frontier = swept.iter().take(QOR_SWEEPS).flat_map(|s| {
            s.result
                .pareto()
                .into_iter()
                .map(|p| (p.latency_cycles, p.area))
                .collect::<Vec<_>>()
        });
        metrics = EndToEnd {
            setup_s: &setup_s,
            ops_per_s: candidates as f64 / wall_s,
            latency_ns: &wall,
            tail_pct: SWEEP_TAIL_PCT,
            peak_rss_mb: rss,
        }
        .metrics(frontier);
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

fn run_one(args: &Args, w: Workload) -> Result<Outcome, String> {
    let run_dir = args.out.join(format!(
        "run-{}-{}-{}",
        w.name(),
        args.seed,
        std::process::id()
    ));
    fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let result = match w {
        Workload::DseSweep => run_dse(args, &run_dir),
        _ => run_server(args, w, &run_dir),
    };
    let _ = fs::remove_dir_all(&run_dir);
    result
}

fn print_table(outcome: &Outcome, trace: bool) {
    let section = if trace { "per_layer" } else { "end_to_end" };
    for (name, unit) in declared(section) {
        let v = outcome.metrics.get(&name).copied().unwrap_or(f64::NAN);
        eprintln!("  {name:<30}{v:>14.4} {unit}");
    }
    eprintln!(
        "  correct {} ({} failed of {} checked)",
        outcome.failed == 0,
        outcome.failed,
        outcome.attempted
    );
}

/// Runs one workload in a child process and returns its result line.
fn child(args: &Args, w: Workload, seed: u64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut cmd = Command::new(exe);
    match &args.server {
        Backend::Process(synthd) => {
            cmd.arg("--synthd").arg(synthd);
        }
        #[cfg(test)]
        Backend::InProcess => {}
    }
    let out = cmd
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    match Json::parse(last) {
        Ok(v) if out.status.success() => Ok(v),
        _ => Err(format!("{} (seed {seed}) failed: {}", w.name(), out.status)),
    }
}

/// Every (workload, metric) over seeds `seed..seed+repeat`: median,
/// quartiles, min–max, and a flag where the quartile spread exceeds the
/// metric's bound.
fn run_repeat(args: &Args, repeat: usize) -> Result<bool, String> {
    let def = definition();
    let bounds: BTreeMap<String, f64> = def
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    let workloads: Vec<Workload> = args.workload.map_or(WORKLOADS.to_vec(), |w| vec![w]);
    let mut steady = true;
    let mut medians = Vec::new();
    for w in workloads {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut failed = 0;
        for seed in args.seed..args.seed + repeat as u64 {
            let line = child(args, w, seed)?;
            failed += line.get("failed").and_then(Json::as_u64).unwrap_or(1);
            for (name, m) in line
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap_or_default()
            {
                let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                values.entry(name.clone()).or_default().push(v);
            }
        }
        eprintln!(
            "\n{} over seeds {}..{}: {failed} failed",
            w.name(),
            args.seed,
            args.seed + repeat as u64 - 1
        );
        eprintln!(
            "  {:<22}{:>12}{:>12}{:>12}{:>12}{:>12}{:>9}{:>7}",
            "metric", "median", "q1", "q3", "min", "max", "iqr/med", "bound"
        );
        let mut row = Vec::new();
        for (name, v) in &values {
            let s = Spread::of(v);
            let bound = bounds.get(name).copied().unwrap_or(f64::NAN);
            // setup_s is exempt: its median is compared, not its spread.
            let flag = name != "setup_s" && s.iqr_share() > bound;
            steady &= !flag;
            eprintln!(
                "  {name:<22}{:>12.4}{:>12.4}{:>12.4}{:>12.4}{:>12.4}{:>9.3}{:>7.2}{}",
                s.median,
                s.q1,
                s.q3,
                s.min,
                s.max,
                s.iqr_share(),
                bound,
                if flag { "  FLAG" } else { "" }
            );
            row.push((name.as_str(), Json::Num(s.median)));
        }
        medians.push((w.name(), Json::obj(row)));
        steady &= failed == 0;
    }
    println!("{}", Json::obj(medians).write());
    Ok(steady)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = fs::create_dir_all(&args.out) {
        eprintln!("bench_e2e: {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    match &args.server {
        Backend::Process(synthd)
            if !synthd.exists() && args.workload != Some(Workload::DseSweep) =>
        {
            eprintln!(
                "bench_e2e: synthd not found at {} (build it with \
                 `cargo build --release -p hls-cluster --bin synthd`)",
                synthd.display()
            );
            return ExitCode::FAILURE;
        }
        _ => {}
    }
    if let Some(repeat) = args.repeat {
        return match run_repeat(&args, repeat.max(1)) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("bench_e2e: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(w) = args.workload else {
        // Every workload, each in a fresh process: no cache, page-cache-warm
        // store or allocator state carries from one to the next.
        let mut ok = true;
        for w in WORKLOADS {
            match child(&args, w, args.seed) {
                Ok(line) => {
                    ok &= line.get("correct").and_then(Json::as_bool) == Some(true);
                    println!(
                        "{}",
                        Json::obj(vec![("workload", Json::str(w.name())), ("result", line)])
                            .write()
                    );
                }
                Err(e) => {
                    eprintln!("bench_e2e: {e}");
                    ok = false;
                }
            }
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    };
    match run_one(&args, w) {
        Ok(outcome) => {
            print_table(&outcome, args.trace);
            println!("{}", outcome.to_json(args.trace).write());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench_e2e: {}: {e}", w.name());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at a one-second window against an in-process server:
    /// the oracle passes, every declared metric is printed with its unit,
    /// and each trace file is non-empty with every span's parent present.
    #[test]
    fn every_workload_runs_and_prints_every_declared_metric() {
        let out = std::env::temp_dir().join(format!("bench-e2e-smoke-{}", std::process::id()));
        let runs = [
            (Workload::SynthCold, false),
            (Workload::SynthCold, true),
            (Workload::SynthVerified, true),
            (Workload::WarmRead, true),
            (Workload::DseSweep, false),
            (Workload::DseSweep, true),
        ];
        for (w, trace) in runs {
            let args = Args {
                workload: Some(w),
                seed: 3,
                seconds: 1.0,
                trace,
                repeat: None,
                server: Backend::InProcess,
                out: out.clone(),
            };
            fs::create_dir_all(&args.out).unwrap();
            let outcome = run_one(&args, w).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            let line = outcome.to_json(trace);
            assert_eq!(
                line.get("correct").and_then(Json::as_bool),
                Some(true),
                "{line:?}"
            );
            assert!(line.get("attempted").and_then(Json::as_u64).unwrap() > 0);
            let metrics = line.get("metrics").unwrap();
            let section = if trace { "per_layer" } else { "end_to_end" };
            for (name, unit) in declared(section) {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                let v = m.get("value").and_then(Json::as_f64);
                assert!(v.is_some_and(f64::is_finite), "{} {name}: {v:?}", w.name());
            }
            if trace {
                let path = out.join(format!("trace-{}-3.ndjson", w.name()));
                let spans: Vec<Json> = fs::read_to_string(path)
                    .unwrap()
                    .lines()
                    .map(|l| Json::parse(l).unwrap())
                    .collect();
                assert!(!spans.is_empty());
                let ids: HashSet<u64> = spans
                    .iter()
                    .map(|s| s.get("span").and_then(Json::as_u64).unwrap())
                    .collect();
                for s in &spans {
                    if let Some(p) = s.get("parent").and_then(Json::as_u64) {
                        assert!(ids.contains(&p), "{s:?}");
                    }
                }
            }
        }
        fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn benchmark_json_names_the_metrics_this_binary_reports() {
        let end_to_end: Vec<String> = declared("end_to_end").into_iter().map(|m| m.0).collect();
        assert_eq!(
            end_to_end,
            [
                "setup_s",
                "ops_per_s",
                "latency_p50_ms",
                "latency_tail_ms",
                "peak_rss_mb",
                "qor_cycles_geomean",
                "qor_area_geomean"
            ]
        );
        let per_layer = declared("per_layer");
        assert!(per_layer.len() > 20);
        for (name, unit) in &per_layer {
            assert!(!unit.is_empty(), "{name}");
        }
        let workloads: Vec<String> = definition()
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS.map(Workload::name));
    }
}
