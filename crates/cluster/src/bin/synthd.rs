//! `synthd` — the batch-synthesis service CLI.
//!
//! Modes:
//!
//! - **One-shot** (default): read one JSON batch from stdin, serve it,
//!   print the JSON report to stdout.
//! - **Daemon** (`--daemon`): read NDJSON batches from stdin, answer one
//!   JSON report line per input line, until EOF.
//! - **Server** (`--listen ADDR` or the legacy `--socket PATH`): accept
//!   connections on a Unix socket or TCP port. Connections may speak
//!   the versioned `hls-cluster/v1` frame protocol (many frames per
//!   connection) or the legacy plain-batch protocol (one JSON batch
//!   line, one report line) — the server answers whichever arrives.
//! - **Cluster** (`--cluster --peers A,B,C --self-index N`): the same
//!   server, but requests are routed across the member shards by
//!   content digest: misses forward to their owning shard, identical
//!   in-flight requests collapse cluster-wide, fresh entries (and
//!   fresh negative-cache failures) replicate to `--replicas` holders.
//!
//! A socket path that already exists is probed before binding: a dead
//! leftover is reclaimed, a live server is refused with a structured
//! diagnostic — never unlinked out from under its owner.
//!
//! `--example` prints a ready-to-run sample batch; `--stats` prints the
//! store's census and exits. The store root defaults to `.hls-serve`
//! (override with `--store DIR`); `--max-bytes`, `--workers`,
//! `--max-cost-ns` tune eviction, the worker pool and admission.
//!
//! `--incremental` attaches an in-memory prefix cache and proof cache to
//! every synthesis: a request that differs from an earlier one only in
//! its clock replays that request's prefix (loop transforms, lowering
//! and the optimized netlist) and re-runs only `schedule` onward, and a
//! clock twin's proof replays too. Both caches live and die with the
//! process; their counters appear in every batch report and in the
//! cluster stats frame, while `--stats` reports the store alone.

use std::io::{BufRead, Read};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use hls_cluster::{serve, Addr, ClusterConfig, ClusterNode, Listener, DEFAULT_VNODES};
use hls_core::PassCache;
use hls_serve::{
    parse_batch, prepare_batch, serve_encoded, ArtifactStore, ServiceConfig, StoreConfig,
};
use hls_verify::ProofCache;

const EXAMPLE: &str = r#"{"requests": [
  {"design": "sum8",
   "source": "void sum(sc_fixed<10,2> x[8], sc_fixed<16,8> *out) { sc_fixed<16,8> acc = 0; sum_loop: for (int k = 0; k < 8; k++) { acc += x[k]; } *out = acc; }",
   "directives": {"clock_period_ns": 10.0, "loops": {"sum_loop": {"unroll": 2}}},
   "library": "asic_100mhz",
   "verify": true},
  {"design": "twice",
   "source": "void twice(sc_fixed<8,4> x, sc_fixed<10,6> *y) { *y = x + x; }",
   "library": "asic_100mhz",
   "verify": false}
]}"#;

struct Options {
    store_root: PathBuf,
    store: StoreConfig,
    service: ServiceConfig,
    daemon: bool,
    listen: Option<Addr>,
    cluster: bool,
    peers: Vec<Addr>,
    self_index: usize,
    replicas: usize,
    vnodes: usize,
    example: bool,
    stats: bool,
    incremental: bool,
}

fn usage() -> &'static str {
    "usage: synthd [--store DIR] [--max-bytes N] [--workers N] [--max-cost-ns N]\n\
     \x20             [--incremental]\n\
     \x20             [--daemon | --listen ADDR | --socket PATH | --example | --stats]\n\
     \x20             [--cluster --peers A,B,C --self-index N [--replicas N] [--vnodes N]]\n\
     Addresses are `unix:PATH` or `tcp:HOST:PORT`. In cluster mode the\n\
     peer list must be identical (and identically ordered) on every\n\
     member; --listen defaults to the member's own peer entry.\n\
     Reads a JSON request batch on stdin and writes a JSON report to stdout."
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        store_root: PathBuf::from(".hls-serve"),
        store: StoreConfig::default(),
        service: ServiceConfig::default(),
        daemon: false,
        listen: None,
        cluster: false,
        peers: Vec::new(),
        self_index: 0,
        replicas: 2,
        vnodes: DEFAULT_VNODES,
        example: false,
        stats: false,
        incremental: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--store" => opts.store_root = PathBuf::from(value("--store")?),
            "--max-bytes" => {
                opts.store.max_bytes = value("--max-bytes")?
                    .parse()
                    .map_err(|e| format!("--max-bytes: {e}"))?
            }
            "--workers" => {
                opts.service.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--max-cost-ns" => {
                opts.service.max_cost_ns = Some(
                    value("--max-cost-ns")?
                        .parse()
                        .map_err(|e| format!("--max-cost-ns: {e}"))?,
                )
            }
            "--daemon" => opts.daemon = true,
            "--listen" => opts.listen = Some(Addr::parse(&value("--listen")?)?),
            "--socket" => opts.listen = Some(Addr::Unix(PathBuf::from(value("--socket")?))),
            "--cluster" => opts.cluster = true,
            "--peers" => opts.peers = Addr::parse_list(&value("--peers")?)?,
            "--self-index" => {
                opts.self_index = value("--self-index")?
                    .parse()
                    .map_err(|e| format!("--self-index: {e}"))?
            }
            "--replicas" => {
                opts.replicas = value("--replicas")?
                    .parse()
                    .map_err(|e| format!("--replicas: {e}"))?
            }
            "--vnodes" => {
                opts.vnodes = value("--vnodes")?
                    .parse()
                    .map_err(|e| format!("--vnodes: {e}"))?
            }
            "--incremental" => opts.incremental = true,
            "--example" => opts.example = true,
            "--stats" => opts.stats = true,
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if opts.cluster {
        if opts.peers.is_empty() {
            return Err(format!("--cluster needs --peers\n{}", usage()));
        }
        if opts.self_index >= opts.peers.len() {
            return Err(format!(
                "--self-index {} is out of range for {} peers",
                opts.self_index,
                opts.peers.len()
            ));
        }
        if opts.listen.is_none() {
            opts.listen = Some(opts.peers[opts.self_index].clone());
        }
    }
    Ok(opts)
}

fn serve_text(text: &str, store: &ArtifactStore, cfg: &ServiceConfig) -> String {
    match parse_batch(text) {
        Ok(requests) => {
            let prepared = prepare_batch(&requests);
            serve_encoded(requests.iter().zip(&prepared), store, cfg).write_report(store)
        }
        Err(e) => format!("{{\"error\":{}}}", hls_ir::Json::str(e).write()),
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if opts.example {
        println!("{EXAMPLE}");
        return ExitCode::SUCCESS;
    }
    let store = match ArtifactStore::open(&opts.store_root, opts.store) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "synthd: cannot open store at {}: {e}",
                opts.store_root.display()
            );
            return ExitCode::FAILURE;
        }
    };
    if opts.stats {
        let census = hls_ir::Json::obj(vec![("store", store.stats().to_json())]);
        println!("{}", census.write());
        return ExitCode::SUCCESS;
    }
    let mut opts = opts;
    if opts.incremental {
        opts.service.pass_cache = Some(Arc::new(PassCache::default()));
        opts.service.proof_cache = Some(Arc::new(ProofCache::in_memory()));
    }

    if let Some(addr) = &opts.listen {
        let cfg = if opts.cluster {
            ClusterConfig {
                self_index: opts.self_index,
                members: opts.peers.clone(),
                replicas: opts.replicas,
                vnodes: opts.vnodes,
                service: opts.service.clone(),
            }
        } else {
            ClusterConfig::single(opts.service.clone())
        };
        let node = match ClusterNode::new(cfg, store) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("synthd: {e}");
                return ExitCode::FAILURE;
            }
        };
        let listener = match Listener::bind(addr) {
            Ok(l) => l,
            Err(diag) => {
                eprintln!("synthd: {}", diag.to_json());
                return ExitCode::FAILURE;
            }
        };
        eprintln!("synthd: listening on {addr}");
        serve(Arc::new(node), listener);
        return ExitCode::SUCCESS;
    }

    if opts.daemon {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let line = match line {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("synthd: stdin: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            println!("{}", serve_text(&line, &store, &opts.service));
        }
        return ExitCode::SUCCESS;
    }

    let mut text = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut text) {
        eprintln!("synthd: stdin: {e}");
        return ExitCode::FAILURE;
    }
    let report = serve_text(&text, &store, &opts.service);
    println!("{report}");
    if report.starts_with("{\"error\"") {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
