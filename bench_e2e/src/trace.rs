//! The traced replay: the request path re-run in this process, one layer's
//! public function at a time, each call recorded as a span.
//!
//! Spans of one request share a trace id; the per-pass records of
//! `rtl::compile_traced` become consecutive child spans of its
//! `rtl.compile` span. Spans stay in memory and are written as NDJSON when
//! the run ends. The replay times the layers; the untimed window beside it
//! gives the end-to-end numbers, and the gap between the two is
//! `unattributed_us`.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use hls_core::{apply_loop_transforms, lower_bound, PassCache, PassCacheConfig, PipelineConfig};
use hls_ir::{parse_function, Json};
use hls_serve::{
    request_key, ArtifactStore, CachedArtifact, NegativeEntry, RequestOutcome, SynthesisRequest,
    Verdict,
};
use hls_verify::{verify_equiv_cached, ProofCache};
use rtl::compile_traced;

use crate::stats::percentile;

/// The root span of one replayed request; its children are the layers.
pub const REQUEST: &str = "request";

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub trace: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn add(
        &mut self,
        trace: u64,
        parent: Option<u64>,
        name: &str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            trace,
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Opens a span that [`Tracer::end`] closes.
    pub fn begin(&mut self, trace: u64, parent: Option<u64>, name: &str) -> u64 {
        let now = self.now_ns();
        self.add(trace, parent, name, now, now)
    }

    pub fn end(&mut self, id: u64) {
        let now = self.now_ns();
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Records `f` as one span.
    pub fn time<T>(
        &mut self,
        trace: u64,
        parent: Option<u64>,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(trace, parent, name);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one NDJSON line.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::obj(vec![
                ("trace", Json::count(s.trace)),
                ("span", Json::count(s.id)),
                ("parent", s.parent.map_or(Json::Null, Json::count)),
                ("name", Json::str(s.name.clone())),
                ("start_ns", Json::count(s.start_ns)),
                ("end_ns", Json::count(s.end_ns)),
            ]);
            writeln!(out, "{}", line.write())?;
        }
        out.flush()
    }

    /// Per span name: calls, total, self time (total minus the time its
    /// direct children cover) and the median call.
    pub fn layers(&self) -> BTreeMap<String, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize - 1] += s.dur_ns();
            }
        }
        let mut durs: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut layers: BTreeMap<String, Layer> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let l = layers.entry(s.name.clone()).or_default();
            l.calls += 1;
            l.total_ns += s.dur_ns();
            l.self_ns += s.dur_ns().saturating_sub(children);
            durs.entry(s.name.clone())
                .or_default()
                .push(s.dur_ns() as f64);
        }
        for (name, d) in durs {
            if let Some(l) = layers.get_mut(&name) {
                l.p50_ns = percentile(&d, 50.0);
            }
        }
        layers
    }
}

/// One row of the per-layer table.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub p50_ns: f64,
}

impl Layer {
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// The span name of a pass `rtl::compile_traced` runs: the pass name
/// under the crate that owns it.
fn pass_layer(pass: &str) -> String {
    match pass {
        "build-fsmd" | "compile-sim" | "emit-verilog" => format!("rtl.{pass}"),
        _ => format!("core.{pass}"),
    }
}

/// The request path, replayed against an in-process store with the same
/// caches `synthd --incremental` runs.
pub struct Replay {
    pub store: ArtifactStore,
    pub pass_cache: Arc<PassCache>,
    pub proof_cache: Arc<ProofCache>,
    pub tracer: Tracer,
    next_trace: u64,
    /// Bytes of every encoded reply.
    pub reply_bytes: Vec<usize>,
    /// Bytes of every emitted Verilog module.
    pub verilog_bytes: Vec<usize>,
}

impl Replay {
    pub fn new(store: ArtifactStore) -> Replay {
        Replay {
            store,
            pass_cache: Arc::new(PassCache::new(PassCacheConfig::default())),
            proof_cache: Arc::new(ProofCache::in_memory()),
            tracer: Tracer::default(),
            next_trace: 0,
            reply_bytes: Vec::new(),
            verilog_bytes: Vec::new(),
        }
    }

    pub fn new_trace(&mut self) -> u64 {
        self.next_trace += 1;
        self.next_trace
    }

    /// Replays one request in the order the service runs it: parse →
    /// `request_key` → `apply_loop_transforms` + `lower_bound` → `lookup`
    /// (+ `lookup_negative` on a miss) → `compile_traced` →
    /// `verify_equiv_cached` → `insert` → `stats` → `to_json().write()`.
    ///
    /// With `probe_verify`, an unverified request's design is also proved,
    /// in a separate root span outside the request, so `verify.equiv` is
    /// measured on every workload's designs.
    pub fn request(&mut self, req: &SynthesisRequest, probe_verify: bool) {
        let trace = self.new_trace();
        let t = &mut self.tracer;
        let root = t.begin(trace, None, REQUEST);
        let at = Some(root);
        let func = t
            .time(trace, at, "ir.parse", || parse_function(&req.source))
            .expect("generated sources parse");
        let key = t.time(trace, at, "serve.digest", || {
            request_key(&func, &req.directives, &req.library, req.verify)
        });
        let design = req.label(&func).to_string();
        t.time(trace, at, "serve.admission", || {
            let transformed = apply_loop_transforms(&func, &req.directives);
            lower_bound(&transformed.func, &req.directives, &req.library)
        });
        let store = &self.store;
        let found = t.time(trace, at, "store.lookup", || match store.lookup(&key) {
            Some(hit) => Some(Ok(hit)),
            None => store.lookup_negative(&key).map(Err),
        });
        let mut outcome = RequestOutcome {
            design: design.clone(),
            digest: key.digest.clone(),
            cache_hit: false,
            deduped: false,
            rejected: false,
            negative_hit: false,
            failure: None,
            modeled_cost_ns: None,
            diagnostics: None,
            artifact: None,
            error: None,
        };
        match found {
            Some(Ok(hit)) => {
                outcome.cache_hit = true;
                outcome.artifact = Some(hit);
            }
            Some(Err(failure)) => {
                outcome.negative_hit = true;
                outcome.error = Some(format!("synthesis: {}", failure.error));
                outcome.failure = Some(failure);
            }
            None => {
                let compile = t.begin(trace, at, "rtl.compile");
                let config = PipelineConfig {
                    cache: Some(Arc::clone(&self.pass_cache)),
                    ..PipelineConfig::default()
                };
                let (result, run) = compile_traced(&func, &req.directives, &req.library, &config);
                t.end(compile);
                let mut cursor = t.spans()[compile as usize - 1].start_ns;
                for pass in &run.trace.passes {
                    let name = pass_layer(&pass.pass);
                    t.add(trace, Some(compile), &name, cursor, cursor + pass.wall_ns);
                    cursor += pass.wall_ns;
                }
                let diagnostics =
                    Json::parse(&run.diagnostics.to_json()).unwrap_or(Json::Arr(Vec::new()));
                match result {
                    Ok(art) => {
                        self.verilog_bytes.push(art.verilog.len());
                        let proofs = &self.proof_cache;
                        let verdict = if req.verify {
                            let report = t.time(trace, at, "verify.equiv", || {
                                verify_equiv_cached(&art.fsmd, proofs)
                            });
                            Some(Verdict {
                                passed: report.passed(),
                                detail: report.describe(),
                            })
                        } else {
                            if probe_verify {
                                self.next_trace += 1;
                                t.time(self.next_trace, None, "verify.equiv", || {
                                    verify_equiv_cached(&art.fsmd, proofs)
                                });
                            }
                            None
                        };
                        let artifact = CachedArtifact {
                            design,
                            verilog: art.verilog,
                            metrics: art.synthesis.metrics,
                            trace: Json::parse(&run.trace.to_json()).unwrap_or(Json::Null),
                            verdict,
                            diagnostics,
                        };
                        t.time(trace, at, "store.insert", || store.insert(&key, &artifact))
                            .expect("the replay store accepts inserts");
                        outcome.artifact = Some(artifact);
                    }
                    Err(e) => {
                        let failure = NegativeEntry {
                            design,
                            code: e.code().to_string(),
                            error: e.to_string(),
                            diagnostics,
                        };
                        t.time(trace, at, "store.insert", || {
                            store.insert_negative(&key, &failure)
                        })
                        .expect("the replay store accepts inserts");
                        outcome.error = Some(format!("synthesis: {e}"));
                        outcome.failure = Some(failure);
                    }
                }
            }
        }
        t.time(trace, at, "store.census", || store.stats());
        let reply = t.time(trace, at, "serve.encode", || outcome.to_json().write());
        self.reply_bytes.push(reply.len());
        t.end(root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Mix, OpStream};

    #[test]
    fn replayed_requests_nest_every_span_under_a_present_parent() {
        let dir = std::env::temp_dir().join(format!("bench-e2e-trace-{}", std::process::id()));
        let store = ArtifactStore::open(&dir, hls_serve::StoreConfig::default()).unwrap();
        let mut replay = Replay::new(store);
        let mut stream = OpStream::new(Mix::Cold, 1, 0);
        let req = stream.next_op().request;
        replay.request(&req, true);
        replay.request(&req, true);
        let spans = replay.tracer.spans();
        for s in spans {
            if let Some(p) = s.parent {
                let parent = &spans[p as usize - 1];
                assert_eq!(parent.trace, s.trace);
                assert!(parent.start_ns <= s.start_ns, "{} starts early", s.name);
            }
        }
        let layers = replay.tracer.layers();
        assert_eq!(layers[REQUEST].calls, 2);
        assert_eq!(layers["rtl.compile"].calls, 1, "the second request hits");
        assert_eq!(layers["core.schedule"].calls, 1);
        assert_eq!(layers["verify.equiv"].calls, 1);
        assert!(layers[REQUEST].self_ns < layers[REQUEST].total_ns);
        fs::remove_dir_all(&dir).ok();
    }
}
