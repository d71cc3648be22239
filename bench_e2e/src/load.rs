//! The server side: one `synthd` process and the closed-loop load that
//! drives it through the real wire path (`PeerClient::call` with
//! one-request `Frame::Batch` frames).

use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use hls_cluster::{Addr, Frame, PeerClient};
use hls_ir::{stable_digest, Json};
use hls_serve::{batch_to_json, SynthesisRequest};

use crate::gen::{sampled, Expect, OpStream};
use crate::stats::{cpu_seconds, peak_rss_mb};

/// Client threads of the closed loop: one per core of the 2-core host the
/// deployment targets, each waiting for its reply before sending again.
pub const CLIENTS: usize = 2;

/// `peak_rss_mb` is the server's high-water mark once this many requests
/// have completed, so it does not grow with the window's throughput.
pub const RSS_REQUESTS: usize = 1000;

/// `synthd`'s worker pool in this deployment.
const WORKERS: &str = "2";

/// Where the server runs.
pub enum Backend {
    /// The `synthd` executable at this path, as a child process.
    Process(PathBuf),
    /// A server thread in this process, started with the calls `synthd`'s
    /// `main` makes: the smoke test's stand-in for the executable.
    #[cfg(test)]
    InProcess,
}

/// One running `synthd`, killed and reaped on drop.
pub struct Synthd {
    child: Option<Child>,
    dir: PathBuf,
    pub addr: Addr,
    pub store: PathBuf,
}

impl Synthd {
    /// Starts `synthd` over a fresh store under `dir` and waits until it
    /// answers a ping.
    pub fn start(backend: &Backend, dir: &Path) -> Result<Synthd, String> {
        let _ = fs::remove_dir_all(dir);
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let store = dir.join("store");
        // A relative socket path stays under the 108-byte limit of
        // `sun_path` wherever the checkout lives.
        let addr = Addr::Unix(dir.join("synthd.sock"));
        let child = match backend {
            Backend::Process(exe) => {
                let log =
                    File::create(dir.join("synthd.log")).map_err(|e| format!("synthd.log: {e}"))?;
                let child = Command::new(exe)
                    .arg("--listen")
                    .arg(addr.to_string())
                    .arg("--store")
                    .arg(&store)
                    .args(["--workers", WORKERS, "--incremental"])
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(log)
                    .spawn()
                    .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
                Some(child)
            }
            #[cfg(test)]
            Backend::InProcess => {
                serve_in_process(&addr, &store)?;
                None
            }
        };
        let mut server = Synthd {
            child,
            dir: dir.to_path_buf(),
            addr,
            store,
        };
        let client = PeerClient::new(server.addr.clone());
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if matches!(client.call(&Frame::Ping), Ok(Frame::Pong { .. })) {
                return Ok(server);
            }
            if let Some(Ok(Some(status))) = server.child.as_mut().map(Child::try_wait) {
                return Err(format!("synthd exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("synthd never answered a ping".into());
            }
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// Stops the server and deletes its directory, store included. Files
    /// written seconds ago are deleted before the kernel writes them back,
    /// so no write-back of an abandoned store competes with a later window.
    pub fn discard(self) {
        let dir = self.dir.clone();
        drop(self);
        let _ = fs::remove_dir_all(dir);
    }

    /// The server's `/proc` name: its pid, or `self` in process.
    pub fn proc_name(&self) -> String {
        self.child
            .as_ref()
            .map_or_else(|| "self".to_string(), |c| c.id().to_string())
    }

    /// The server's `Frame::Stats` report.
    pub fn stats(&self) -> Result<Json, String> {
        match PeerClient::new(self.addr.clone()).call(&Frame::Stats) {
            Ok(Frame::Report(r)) => Ok(r),
            other => Err(format!("stats reply: {other:?}")),
        }
    }
}

impl Drop for Synthd {
    fn drop(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `synthd --listen ADDR --store DIR --workers 2 --incremental`, on a
/// thread of this process. `hls_cluster::serve` never returns, so the
/// thread lives until the test process exits.
#[cfg(test)]
fn serve_in_process(addr: &Addr, store: &Path) -> Result<(), String> {
    use std::sync::Arc;

    use hls_cluster::{ClusterConfig, ClusterNode, Listener};
    use hls_core::{PassCache, PassCacheConfig};
    use hls_serve::{ArtifactStore, ServiceConfig, StoreConfig};
    use hls_verify::{ProofCache, ProofCacheConfig};

    let store = ArtifactStore::open(store, StoreConfig::default()).map_err(|e| e.to_string())?;
    let service = ServiceConfig {
        workers: 2,
        pass_cache: Some(Arc::new(PassCache::new(PassCacheConfig::default()))),
        proof_cache: Some(Arc::new(ProofCache::new(&ProofCacheConfig {
            persist_dir: None,
        }))),
        ..ServiceConfig::default()
    };
    let node = ClusterNode::new(ClusterConfig::single(service), store)?;
    let listener = Listener::bind(addr).map_err(|d| d.to_json().to_string())?;
    thread::spawn(move || hls_cluster::serve(Arc::new(node), listener));
    Ok(())
}

/// What the oracle keeps of one reply.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    /// A transport error, or the outcome's `error` field.
    pub error: Option<String>,
    pub cache_hit: bool,
    pub negative_hit: bool,
    pub failure_code: Option<String>,
    pub latency_cycles: Option<u64>,
    pub area: Option<f64>,
    /// `verdict.passed`, when the artifact carries a verdict.
    pub verdict: Option<bool>,
    /// A digest over every artifact field a store hit must reproduce.
    pub artifact: Option<String>,
    /// The Verilog, kept only for replies the oracle recompiles.
    pub verilog: Option<String>,
}

impl Reply {
    fn from_outcome(o: &Json, keep_verilog: bool) -> Reply {
        let str_of = |k: &str| o.get(k).and_then(Json::as_str).map(str::to_string);
        let metrics = o.get("metrics");
        let artifact = o.get("verilog").map(|_| {
            let fields: String = ["verilog", "metrics", "verdict", "diagnostics", "trace"]
                .iter()
                .map(|k| o.get(k).map_or_else(String::new, Json::write))
                .collect::<Vec<_>>()
                .join("\n");
            stable_digest(fields.as_bytes())
        });
        Reply {
            error: str_of("error"),
            cache_hit: o.get("cache_hit").and_then(Json::as_bool) == Some(true),
            negative_hit: o.get("negative_hit").and_then(Json::as_bool) == Some(true),
            failure_code: str_of("failure_code"),
            latency_cycles: metrics
                .and_then(|m| m.get("latency_cycles"))
                .and_then(Json::as_u64),
            area: metrics.and_then(|m| m.get("area")).and_then(Json::as_f64),
            verdict: o
                .get("verdict")
                .and_then(|v| v.get("passed"))
                .and_then(Json::as_bool),
            artifact,
            verilog: if keep_verilog {
                str_of("verilog")
            } else {
                None
            },
        }
    }

    fn failed(error: String) -> Reply {
        Reply {
            error: Some(error),
            ..Reply::default()
        }
    }
}

/// Sends `requests` as one batch and returns one reply per request.
pub fn call_batch(addr: &Addr, requests: &[SynthesisRequest], keep_verilog: bool) -> Vec<Reply> {
    let frame = Frame::Batch {
        requests: batch_to_json(requests),
    };
    match PeerClient::new(addr.clone()).call(&frame) {
        Ok(Frame::Report(report)) => {
            let outcomes = report
                .get("outcomes")
                .and_then(Json::as_arr)
                .unwrap_or_default();
            (0..requests.len())
                .map(|i| match outcomes.get(i) {
                    Some(o) => Reply::from_outcome(o, keep_verilog),
                    None => Reply::failed("reply omitted this request".into()),
                })
                .collect()
        }
        other => {
            let e = format!("batch reply: {other:?}");
            requests.iter().map(|_| Reply::failed(e.clone())).collect()
        }
    }
}

/// One operation as the load generator saw it.
#[derive(Debug, Clone)]
pub struct Sent {
    pub index: usize,
    pub expect: Expect,
    /// Whether the request asked for an equivalence verdict.
    pub verify: bool,
    /// The request, kept only for the oracle's sample.
    pub request: Option<SynthesisRequest>,
    pub latency_ns: u64,
    pub reply: Reply,
}

/// What one measured window produced.
pub struct Window {
    /// Every completed operation, in stream order.
    pub sent: Vec<Sent>,
    pub wall_s: f64,
    /// CPU seconds the client threads spent (request building, framing,
    /// reply parsing).
    pub client_cpu_s: f64,
    /// The server's peak RSS after [`RSS_REQUESTS`] requests (or at the
    /// end of a window that completed fewer).
    pub peak_rss_mb: f64,
}

/// Runs the closed loop against `server` for `seconds`: each of [`CLIENTS`]
/// threads takes the stream's next operation, sends it, and waits for the
/// reply before taking another.
pub fn closed_loop(server: &Synthd, stream: &Mutex<OpStream>, seconds: f64, seed: u64) -> Window {
    let addr = &server.addr;
    let pid = server.proc_name();
    let completed = AtomicUsize::new(0);
    let rss_at_count = Mutex::new(None);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<Sent>, f64)> = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let cpu0 = cpu_seconds("thread-self");
                    let mut sent = Vec::new();
                    while Instant::now() < deadline {
                        let op = stream.lock().expect("generator never panics").next_op();
                        let keep = sampled(seed, op.index);
                        let t0 = Instant::now();
                        let reply = call_batch(addr, std::slice::from_ref(&op.request), keep)
                            .pop()
                            .expect("one reply per request");
                        let latency_ns = t0.elapsed().as_nanos() as u64;
                        if completed.fetch_add(1, Ordering::Relaxed) + 1 == RSS_REQUESTS {
                            *rss_at_count.lock().expect("never poisoned") = Some(peak_rss_mb(&pid));
                        }
                        sent.push(Sent {
                            index: op.index,
                            expect: op.expect,
                            verify: op.request.verify,
                            request: keep.then_some(op.request),
                            latency_ns,
                            reply,
                        });
                    }
                    (sent, cpu_seconds("thread-self") - cpu0)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let client_cpu_s = per_client.iter().map(|(_, c)| c).sum();
    let mut sent: Vec<Sent> = per_client.into_iter().flat_map(|(s, _)| s).collect();
    sent.sort_by_key(|s| s.index);
    let peak_rss_mb = rss_at_count
        .into_inner()
        .expect("never poisoned")
        .unwrap_or_else(|| peak_rss_mb(&pid));
    Window {
        sent,
        wall_s,
        client_cpu_s,
        peak_rss_mb,
    }
}
