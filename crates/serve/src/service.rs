//! The concurrent batch-synthesis engine.
//!
//! [`serve_batch`] is [`prepare_batch`] followed by [`serve_prepared`];
//! callers that already prepared their requests (the cluster router,
//! which needs each digest to route) call [`serve_prepared`] directly,
//! so no request is parsed or digested twice in one process.
//!
//! The pass itself is [`serve_encoded`]: it answers with each artifact
//! still in the bytes the store verified (a hit) or just wrote (a fresh
//! miss), so a server writes its reply with
//! [`EncodedOutcome::write_into`] and [`ReportText`], splicing those
//! bytes in without decoding or re-encoding them. [`serve_prepared`]
//! decodes the same bytes for in-process callers. Each request's work
//! runs once, in this order:
//!
//! 1. **Prepare**: each unique source is parsed and canonically
//!    rendered once, and every request's content address is derived
//!    from that rendering.
//! 2. **Dedup**: requests with the same content address collapse to one
//!    job; duplicates share the executor's result and are counted in
//!    [`CountersSnapshot::deduped`].
//! 3. **Lookup**: each unique job probes the store, then its negative
//!    side, on the coordinating thread. A hit returns the stored
//!    artifact's verified bytes; a negative hit replays the stored
//!    [`NegativeEntry`] (error + structured diagnostics) — this exact
//!    request already *failed* the pipeline. Neither is bounded, priced
//!    or admitted.
//! 4. **Bound misses**, only under a ceiling
//!    ([`ServiceConfig::max_cost_ns`]) and only when two or more misses
//!    queue: each gets the explorer's resource-aware admissible bound
//!    ([`lower_bound`], computed on the loop-transformed design exactly
//!    as the sweep computes it), and the queue runs cheapest-first by
//!    bounded operation count. Admission is the bound's only reader, so
//!    without a ceiling no miss is bounded and the misses go straight to
//!    the workers; a lone miss needs no order, and no model can price it
//!    (below).
//! 5. **Admission**, under a ceiling: a bounded miss whose modeled cost
//!    reaches the ceiling is rejected. A rejection carries the modeled
//!    cost that decided it ([`RequestOutcome::modeled_cost_ns`]) and a
//!    structured [`Diagnostic`] with the candidate's bounded latency,
//!    area and operation count, so callers can tell a design that was
//!    *too big* from one that merely arrived late. No other outcome
//!    carries a modeled cost: the model depends on which batch-mates
//!    finished first, and a served artifact must read the same on every
//!    serve.
//! 6. **Synthesize**: admitted misses run the pipeline (+ equivalence
//!    check when requested) on a scoped-thread worker pool and are
//!    inserted; fresh deterministic failures are persisted to the
//!    negative side. Only content-addressed failures are cached: parse
//!    errors never reach a digest and admission rejections depend on
//!    the dynamic cost model, so neither is persisted. Only a bounded
//!    miss trains the cost model.
//!
//! The cost model (observed ns per bounded operation, trained by
//! completed syntheses) lives for one batch. It has no observation
//! before the batch's first synthesis finishes, which is why a lone
//! miss can never be priced or rejected.
//!
//! **Observability**: hit/miss/dedup/error counters plus negative-hit
//! and negative-insert counters, the unique-job count (`queue_peak`),
//! and power-of-two latency histograms per stage.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use std::sync::Arc;

use hls_core::{
    apply_loop_transforms, lower_bound, DesignBound, Diagnostic, Diagnostics, PassCache,
    PassCacheStats, PipelineConfig,
};
use hls_ir::{Function, Json};
use hls_verify::{verify_equiv, verify_equiv_cached, ProofCache, ProofCacheStats};
use rtl::compile_traced;

use crate::digest::RequestKey;
use crate::negative::NegativeEntry;
use crate::request::{prepare_batch, Prepared, SynthesisRequest};
use crate::store::{ArtifactStore, CachedArtifact, EncodedArtifact, Verdict};

/// Service tuning.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads for the batch pool.
    pub workers: usize,
    /// Reject jobs whose modeled back-end cost reaches this many
    /// nanoseconds. `None` admits everything, and then no miss is
    /// bounded or priced: the bound and the cost model serve admission
    /// alone.
    pub max_cost_ns: Option<u64>,
    /// A shared prefix cache threaded into every pipeline invocation: a
    /// clock twin of an earlier request replays its clock-independent
    /// prefix (loop transforms, lowering, netlist optimization).
    pub pass_cache: Option<Arc<PassCache>>,
    /// A shared proof-verdict cache: verified requests replay FSMD
    /// equivalence verdicts for machines already proved (clock twins
    /// included) instead of re-proving them.
    pub proof_cache: Option<Arc<ProofCache>>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(1),
            max_cost_ns: None,
            pass_cache: None,
            proof_cache: None,
        }
    }
}

const HIST_BUCKETS: usize = 24;

/// A lock-free power-of-two latency histogram (microsecond buckets:
/// bucket 0 holds sub-microsecond samples, bucket *i* holds
/// `[2^(i-1), 2^i)` µs, the last bucket everything beyond).
#[derive(Debug, Default)]
struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    total_us: AtomicU64,
}

impl LatencyHistogram {
    fn record(&self, d: Duration) {
        let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let idx = if us == 0 {
            0
        } else {
            ((64 - us.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            total_us: self.total_us.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A latency histogram frozen for reporting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, in microseconds.
    pub total_us: u64,
    /// Power-of-two bucket counts (trailing zero buckets trimmed).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Serializes the histogram.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::count(self.count)),
            ("total_us", Json::count(self.total_us)),
            (
                "buckets",
                Json::Arr(self.buckets.iter().map(|&b| Json::count(b)).collect()),
            ),
        ])
    }
}

/// Per-batch observability counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountersSnapshot {
    /// Jobs served from the store.
    pub hits: u64,
    /// Jobs that had to synthesize.
    pub misses: u64,
    /// Jobs that ran the full pipeline successfully.
    pub synthesized: u64,
    /// Requests collapsed onto an identical in-flight request.
    pub deduped: u64,
    /// Jobs rejected by admission control.
    pub rejected: u64,
    /// Jobs that failed (parse, synthesis or store errors).
    pub errors: u64,
    /// Failures served from the negative cache (no pipeline run).
    pub neg_hits: u64,
    /// Fresh deterministic failures persisted to the negative cache.
    pub neg_inserts: u64,
    /// Unique jobs enqueued (the queue's peak depth).
    pub queue_peak: u64,
    /// Store-lookup latency per job.
    pub lookup_us: HistogramSnapshot,
    /// Synthesis-pipeline latency per miss.
    pub synth_us: HistogramSnapshot,
    /// Equivalence-check latency per verified miss.
    pub verify_us: HistogramSnapshot,
    /// Store-insert latency per miss.
    pub insert_us: HistogramSnapshot,
    /// Prefix-cache census, when the service runs one.
    pub pass_cache: Option<PassCacheStats>,
    /// Proof-cache census, when the service runs one.
    pub proof_cache: Option<ProofCacheStats>,
}

impl CountersSnapshot {
    /// Serializes the counters.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("hits", Json::count(self.hits)),
            ("misses", Json::count(self.misses)),
            ("synthesized", Json::count(self.synthesized)),
            ("deduped", Json::count(self.deduped)),
            ("rejected", Json::count(self.rejected)),
            ("errors", Json::count(self.errors)),
            ("neg_hits", Json::count(self.neg_hits)),
            ("neg_inserts", Json::count(self.neg_inserts)),
            ("queue_peak", Json::count(self.queue_peak)),
            ("lookup_us", self.lookup_us.to_json()),
            ("synth_us", self.synth_us.to_json()),
            ("verify_us", self.verify_us.to_json()),
            ("insert_us", self.insert_us.to_json()),
        ];
        if let Some(pc) = &self.pass_cache {
            fields.push(("pass_cache", pc.to_json()));
        }
        if let Some(pc) = &self.proof_cache {
            fields.push(("proof_cache", pc.to_json()));
        }
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

/// The outcome of one request in a batch, in request order.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// The request's label.
    pub design: String,
    /// The request's content address (empty if the source failed to parse).
    pub digest: String,
    /// Whether the artifact came from the store.
    pub cache_hit: bool,
    /// Whether this request shared an identical in-flight request's work.
    pub deduped: bool,
    /// Whether admission control rejected the job.
    pub rejected: bool,
    /// Whether the failure was served from the negative cache (the
    /// pipeline was *not* re-run).
    pub negative_hit: bool,
    /// The structured failure, for requests that failed the pipeline —
    /// fresh or replayed from the negative cache.
    pub failure: Option<NegativeEntry>,
    /// The modeled back-end cost that got the job rejected; set on
    /// admission rejections only. An admitted miss carries none, so its
    /// first serve differs from its later hits only in `cache_hit` and
    /// `deduped`.
    pub modeled_cost_ns: Option<u64>,
    /// Structured diagnostics for requests that never reached the
    /// pipeline (admission rejections carry the candidate's admissible
    /// latency/area bounds here).
    pub diagnostics: Option<Diagnostics>,
    /// The served artifact (absent on error or rejection).
    pub artifact: Option<CachedArtifact>,
    /// What went wrong, when something did.
    pub error: Option<String>,
}

impl RequestOutcome {
    /// An outcome with every flag clear and nothing attached.
    fn empty(design: String, digest: &str) -> RequestOutcome {
        RequestOutcome {
            design,
            digest: digest.to_string(),
            cache_hit: false,
            deduped: false,
            rejected: false,
            negative_hit: false,
            failure: None,
            modeled_cost_ns: None,
            diagnostics: None,
            artifact: None,
            error: None,
        }
    }

    fn failed(design: &str, digest: &str, error: String) -> RequestOutcome {
        RequestOutcome {
            error: Some(error),
            ..RequestOutcome::empty(design.to_string(), digest)
        }
    }

    /// Serializes the outcome as a response envelope.
    pub fn to_json(&self) -> Json {
        let mut fields = self.head_fields();
        if let Some(a) = &self.artifact {
            fields.extend(a.reply_fields());
        }
        fields.extend(self.tail_fields());
        Json::obj(fields)
    }

    /// The envelope's fields before the artifact's.
    fn head_fields(&self) -> Vec<(&'static str, Json)> {
        let mut fields = vec![
            ("design", Json::str(self.design.clone())),
            ("digest", Json::str(self.digest.clone())),
            ("cache_hit", Json::Bool(self.cache_hit)),
            ("deduped", Json::Bool(self.deduped)),
        ];
        if self.rejected {
            fields.push(("rejected", Json::Bool(true)));
        }
        if self.negative_hit {
            fields.push(("negative_hit", Json::Bool(true)));
        }
        if let Some(f) = &self.failure {
            fields.push(("failure_code", Json::str(f.code.clone())));
            fields.push(("diagnostics", f.diagnostics.clone()));
        }
        if let Some(cost) = self.modeled_cost_ns {
            fields.push(("modeled_cost_ns", Json::count(cost)));
        }
        if let Some(d) = &self.diagnostics {
            fields.push((
                "diagnostics",
                Json::parse(&d.to_json()).unwrap_or(Json::Arr(Vec::new())),
            ));
        }
        fields
    }

    /// The envelope's fields after the artifact's.
    fn tail_fields(&self) -> Vec<(&'static str, Json)> {
        match &self.error {
            Some(e) => vec![("error", Json::str(e.clone()))],
            None => Vec::new(),
        }
    }
}

/// One request's outcome as the service answers it, with the artifact
/// still in the bytes the store verified or wrote.
#[derive(Debug, Clone)]
pub struct EncodedOutcome {
    /// The outcome, without its artifact: `outcome.artifact` is `None`.
    pub outcome: RequestOutcome,
    /// The served artifact, for hits and fresh misses.
    pub artifact: Option<EncodedArtifact>,
}

impl EncodedOutcome {
    fn new(outcome: RequestOutcome) -> EncodedOutcome {
        EncodedOutcome {
            outcome,
            artifact: None,
        }
    }

    /// Appends the outcome's response envelope to `out`, with the
    /// artifact's bytes spliced in: byte-identical to
    /// `self.decode().to_json().write()`.
    pub fn write_into(&self, out: &mut String) {
        let Some(artifact) = &self.artifact else {
            return self.outcome.to_json().write_into(out);
        };
        // The head always has fields, so it writes as `{…}`; reopen it.
        Json::obj(self.outcome.head_fields()).write_into(out);
        out.pop();
        out.push(',');
        out.push_str(artifact.reply_fields());
        for (key, value) in self.outcome.tail_fields() {
            push_member(out, key, &value);
        }
        out.push('}');
    }

    /// The outcome with its artifact decoded, for in-process callers.
    pub fn decode(self) -> RequestOutcome {
        let mut outcome = self.outcome;
        if let Some(artifact) = self.artifact {
            match artifact.decode() {
                Ok(a) => outcome.artifact = Some(a),
                Err(e) => outcome.error = Some(format!("internal: served artifact: {e}")),
            }
        }
        outcome
    }
}

/// Everything [`serve_batch`] returns.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-request outcomes, in request order.
    pub outcomes: Vec<RequestOutcome>,
    /// Service counters for this batch.
    pub counters: CountersSnapshot,
}

/// Everything [`serve_encoded`] returns.
#[derive(Debug)]
pub struct EncodedBatch {
    /// Per-request outcomes, in request order.
    pub outcomes: Vec<EncodedOutcome>,
    /// Service counters for this batch.
    pub counters: CountersSnapshot,
}

impl EncodedBatch {
    /// The batch's report text: `{"outcomes":[…],"counters":{…},
    /// "store":{…}}`.
    pub fn write_report(&self, store: &ArtifactStore) -> String {
        let mut report = ReportText::new();
        for o in &self.outcomes {
            o.write_into(report.next_outcome());
        }
        report.finish(&self.counters, Vec::new(), store)
    }
}

/// A batch report written as text in one pass — the one report encoder:
/// `{"outcomes":[…],"counters":{…}`, then any extra fields, then
/// `"store":{…}}`.
#[derive(Debug)]
pub struct ReportText {
    text: String,
    outcomes: usize,
}

impl Default for ReportText {
    fn default() -> Self {
        ReportText::new()
    }
}

impl ReportText {
    /// An empty report.
    pub fn new() -> ReportText {
        ReportText {
            text: String::from("{\"outcomes\":["),
            outcomes: 0,
        }
    }

    /// Opens the next outcome's slot: the caller appends exactly one JSON
    /// object to the returned text.
    pub fn next_outcome(&mut self) -> &mut String {
        if self.outcomes > 0 {
            self.text.push(',');
        }
        self.outcomes += 1;
        &mut self.text
    }

    /// Closes the outcomes and appends `counters`, then `fields` in order,
    /// then the store's census.
    pub fn finish(
        mut self,
        counters: &CountersSnapshot,
        fields: Vec<(&str, Json)>,
        store: &ArtifactStore,
    ) -> String {
        let tail = [("counters", counters.to_json())]
            .into_iter()
            .chain(fields)
            .chain([("store", store.stats().to_json())]);
        self.text.push(']');
        for (key, value) in tail {
            push_member(&mut self.text, key, &value);
        }
        self.text.push('}');
        self.text
    }
}

/// Appends `,"key":value` to an object being written.
fn push_member(out: &mut String, key: &str, value: &Json) {
    out.push(',');
    Json::str(key).write_into(out);
    out.push(':');
    value.write_into(out);
}

/// Observed mean synthesis cost per bounded operation, for admission.
#[derive(Debug, Default)]
struct CostModel {
    total_ns: AtomicU64,
    total_ops: AtomicU64,
}

impl CostModel {
    fn observe(&self, ops: usize, elapsed: Duration) {
        self.total_ns.fetch_add(
            u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        self.total_ops.fetch_add(ops as u64, Ordering::Relaxed);
    }

    fn modeled_ns(&self, ops: usize) -> Option<u64> {
        let total_ops = self.total_ops.load(Ordering::Relaxed);
        if total_ops == 0 {
            return None;
        }
        let per_op = self.total_ns.load(Ordering::Relaxed) as f64 / total_ops as f64;
        Some((per_op * ops as f64) as u64)
    }
}

/// One unique request the store could not answer.
struct Job<'a> {
    req: &'a SynthesisRequest,
    func: &'a Function,
    key: &'a RequestKey,
    /// The explorer's admissible bound for this candidate, computed on
    /// the loop-transformed design when two or more misses queue under
    /// a ceiling — sizes the queue and prices admission, and is reported
    /// verbatim on rejection.
    bound: Option<DesignBound>,
}

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    synthesized: AtomicU64,
    rejected: AtomicU64,
    errors: AtomicU64,
    neg_hits: AtomicU64,
    neg_inserts: AtomicU64,
    lookup: LatencyHistogram,
    synth: LatencyHistogram,
    verify: LatencyHistogram,
    insert: LatencyHistogram,
}

/// Runs a batch of requests against `store`, returning per-request
/// outcomes in request order.
pub fn serve_batch(
    requests: &[SynthesisRequest],
    store: &ArtifactStore,
    cfg: &ServiceConfig,
) -> BatchReport {
    let prepared = prepare_batch(requests);
    serve_prepared(requests.iter().zip(&prepared), store, cfg)
}

/// Runs requests that [`prepare_batch`] already prepared, each paired
/// with its preparation, returning outcomes in the pairs' order.
pub fn serve_prepared<'a>(
    batch: impl IntoIterator<Item = (&'a SynthesisRequest, &'a Prepared)>,
    store: &ArtifactStore,
    cfg: &ServiceConfig,
) -> BatchReport {
    let served = serve_encoded(batch, store, cfg);
    BatchReport {
        outcomes: served
            .outcomes
            .into_iter()
            .map(EncodedOutcome::decode)
            .collect(),
        counters: served.counters,
    }
}

/// [`serve_prepared`] without the decode: each served artifact stays in
/// the bytes the store verified or wrote, ready to be spliced into a
/// reply.
pub fn serve_encoded<'a>(
    batch: impl IntoIterator<Item = (&'a SynthesisRequest, &'a Prepared)>,
    store: &ArtifactStore,
    cfg: &ServiceConfig,
) -> EncodedBatch {
    let batch: Vec<(&SynthesisRequest, &Prepared)> = batch.into_iter().collect();
    let counters = Counters::default();

    // Collapse identical content addresses onto one job each, and answer
    // every job the store already holds before anything is bounded.
    let mut executor: HashMap<&str, usize> = HashMap::new();
    let mut deduped = 0u64;
    let mut results: HashMap<&str, EncodedOutcome> = HashMap::new();
    let mut misses: Vec<Job> = Vec::new();
    for (i, &(req, prepared)) in batch.iter().enumerate() {
        let Ok((func, key)) = prepared else { continue };
        if executor.contains_key(key.digest.as_str()) {
            deduped += 1;
            continue;
        }
        executor.insert(&key.digest, i);
        match lookup(req, func, key, store, &counters) {
            Some(outcome) => {
                results.insert(&key.digest, outcome);
            }
            None => misses.push(Job {
                req,
                func,
                key,
                bound: None,
            }),
        }
    }
    let queue_peak = executor.len() as u64;

    // Only admission reads a bound. Without a ceiling nothing is
    // rejected, and a lone miss needs no order while the batch's cost
    // model has no observation to price it with.
    if cfg.max_cost_ns.is_some() && misses.len() >= 2 {
        for job in &mut misses {
            // Bound the transformed design, exactly as the explorer
            // bounds sweep candidates: unrolling changes the operation
            // count the cost model sizes against.
            let transformed = apply_loop_transforms(job.func, &job.req.directives);
            job.bound = Some(lower_bound(
                &transformed.func,
                &job.req.directives,
                &job.req.library,
            ));
        }
        // Cheapest-first: workers pop from the back.
        let ops = |j: &Job| j.bound.as_ref().map_or(0, |b| b.ops);
        misses.sort_by(|a, b| (ops(b), &b.key.digest).cmp(&(ops(a), &a.key.digest)));
    }

    let model = CostModel::default();
    let workers = cfg.workers.max(1).min(misses.len());
    let queue = Mutex::new(misses);
    let results = Mutex::new(results);

    thread::scope(|s| {
        for _ in 0..workers {
            // A panicking worker poisons these locks while the job that
            // panicked is simply absent from `results`; the survivors
            // keep draining the queue, so recover the guard.
            s.spawn(|| loop {
                let job = queue.lock().unwrap_or_else(|e| e.into_inner()).pop();
                let Some(job) = job else { break };
                let outcome = run_job(&job, store, cfg, &model, &counters);
                results
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(&job.key.digest, outcome);
            });
        }
    });

    let results = results.into_inner().unwrap_or_else(|e| e.into_inner());
    let outcomes = batch
        .iter()
        .enumerate()
        .map(|(i, &(req, prepared))| match prepared {
            Err(e) => {
                counters.errors.fetch_add(1, Ordering::Relaxed);
                EncodedOutcome::new(RequestOutcome::failed(&req.design, "", e.clone()))
            }
            Ok((_, key)) => match results.get(key.digest.as_str()) {
                Some(done) => {
                    let mut o = done.clone();
                    o.outcome.deduped = executor.get(key.digest.as_str()) != Some(&i);
                    o
                }
                // Reachable only if the executing worker panicked
                // mid-job; report it as this request's failure instead
                // of tearing down the whole batch.
                None => {
                    counters.errors.fetch_add(1, Ordering::Relaxed);
                    EncodedOutcome::new(RequestOutcome::failed(
                        &req.design,
                        &key.digest,
                        "internal: worker died before recording an outcome".to_string(),
                    ))
                }
            },
        })
        .collect();

    EncodedBatch {
        outcomes,
        counters: CountersSnapshot {
            hits: counters.hits.load(Ordering::Relaxed),
            misses: counters.misses.load(Ordering::Relaxed),
            synthesized: counters.synthesized.load(Ordering::Relaxed),
            deduped,
            rejected: counters.rejected.load(Ordering::Relaxed),
            errors: counters.errors.load(Ordering::Relaxed),
            neg_hits: counters.neg_hits.load(Ordering::Relaxed),
            neg_inserts: counters.neg_inserts.load(Ordering::Relaxed),
            queue_peak,
            lookup_us: counters.lookup.snapshot(),
            synth_us: counters.synth.snapshot(),
            verify_us: counters.verify.snapshot(),
            insert_us: counters.insert.snapshot(),
            pass_cache: cfg.pass_cache.as_ref().map(|c| c.stats()),
            proof_cache: cfg.proof_cache.as_ref().map(|c| c.stats()),
        },
    }
}

/// Answers one unique request from the store: its artifact, else its
/// cached failure. `None` means it has to be synthesized.
fn lookup(
    req: &SynthesisRequest,
    func: &Function,
    key: &RequestKey,
    store: &ArtifactStore,
    counters: &Counters,
) -> Option<EncodedOutcome> {
    let t = Instant::now();
    let cached = store.lookup_encoded(key);
    counters.lookup.record(t.elapsed());
    let mut outcome = RequestOutcome::empty(req.label(func).to_string(), &key.digest);
    if let Some(artifact) = cached {
        counters.hits.fetch_add(1, Ordering::Relaxed);
        outcome.cache_hit = true;
        return Some(EncodedOutcome {
            outcome,
            artifact: Some(artifact),
        });
    }

    // A positive miss may still be a *negative* hit: this exact request
    // already failed the pipeline deterministically, so replay the
    // stored failure instead of re-running.
    let failure = store.lookup_negative(key)?;
    counters.neg_hits.fetch_add(1, Ordering::Relaxed);
    counters.errors.fetch_add(1, Ordering::Relaxed);
    outcome.negative_hit = true;
    outcome.error = Some(format!("synthesis: {}", failure.error));
    outcome.failure = Some(failure);
    Some(EncodedOutcome::new(outcome))
}

fn run_job(
    job: &Job,
    store: &ArtifactStore,
    cfg: &ServiceConfig,
    model: &CostModel,
    counters: &Counters,
) -> EncodedOutcome {
    let req = job.req;
    let design = req.label(job.func).to_string();
    let modeled_cost_ns = job.bound.as_ref().and_then(|b| model.modeled_ns(b.ops));

    // Admission: reject jobs modeled at/over the ceiling. The rejection
    // reports the bound that sized the job, so the caller sees exactly
    // what the admission decision was based on.
    if let (Some(max), Some(cost), Some(bound)) = (cfg.max_cost_ns, modeled_cost_ns, &job.bound) {
        if cost >= max {
            counters.rejected.fetch_add(1, Ordering::Relaxed);
            let diag = Diagnostic::error(
                "admission-rejected",
                format!("modeled cost {cost} ns reaches the {max} ns ceiling"),
            )
            .in_pass("admission")
            .with_note(format!(
                "admissible bound: latency >= {} cycles, area >= {:.1}",
                bound.latency_cycles, bound.area
            ))
            .with_note(format!("bounded operations: {}", bound.ops));
            return EncodedOutcome::new(RequestOutcome {
                rejected: true,
                modeled_cost_ns: Some(cost),
                diagnostics: Some(Diagnostics::from(diag)),
                ..RequestOutcome::failed(
                    &design,
                    &job.key.digest,
                    format!("admission: modeled cost {cost} ns reaches the {max} ns ceiling"),
                )
            });
        }
    }
    counters.misses.fetch_add(1, Ordering::Relaxed);

    let t = Instant::now();
    let pipeline_config = PipelineConfig {
        cache: cfg.pass_cache.clone(),
        ..PipelineConfig::default()
    };
    let (result, run) = compile_traced(job.func, &req.directives, &req.library, &pipeline_config);
    let synth_time = t.elapsed();
    counters.synth.record(synth_time);
    if let Some(bound) = &job.bound {
        model.observe(bound.ops, synth_time);
    }

    let artifacts = match result {
        Ok(a) => a,
        Err(e) => {
            counters.errors.fetch_add(1, Ordering::Relaxed);
            let failure = NegativeEntry {
                design: design.clone(),
                code: e.code().to_string(),
                error: e.to_string(),
                diagnostics: Json::parse(&run.diagnostics.to_json())
                    .unwrap_or(Json::Arr(Vec::new())),
            };
            let mut outcome =
                RequestOutcome::failed(&design, &job.key.digest, format!("synthesis: {e}"));
            // Persist the deterministic failure so retries are store
            // reads; a store error only costs the cache, not the reply.
            match store.insert_negative(job.key, &failure) {
                Ok(()) => {
                    counters.neg_inserts.fetch_add(1, Ordering::Relaxed);
                }
                Err(io) => {
                    outcome.error = Some(format!("synthesis: {e} (failure not cached: {io})"));
                }
            }
            outcome.failure = Some(failure);
            return EncodedOutcome::new(outcome);
        }
    };
    let verdict = if req.verify {
        let t = Instant::now();
        let report = match &cfg.proof_cache {
            Some(cache) => verify_equiv_cached(&artifacts.fsmd, cache),
            None => verify_equiv(&artifacts.fsmd),
        };
        counters.verify.record(t.elapsed());
        Some(Verdict {
            passed: report.passed(),
            detail: report.describe(),
        })
    } else {
        None
    };
    let artifact = CachedArtifact {
        design: design.clone(),
        verilog: artifacts.verilog,
        metrics: artifacts.synthesis.metrics,
        trace: Json::parse(&run.trace.to_json()).unwrap_or(Json::Null),
        verdict,
        diagnostics: Json::parse(&run.diagnostics.to_json()).unwrap_or(Json::Arr(Vec::new())),
    };
    let t = Instant::now();
    let artifact = EncodedArtifact::encode(&artifact);
    let insert = store.insert_encoded(job.key, &artifact);
    counters.insert.record(t.elapsed());
    counters.synthesized.fetch_add(1, Ordering::Relaxed);
    EncodedOutcome {
        outcome: RequestOutcome {
            error: insert
                .err()
                .map(|e| format!("artifact served but not cached: {e}")),
            ..RequestOutcome::empty(design, &job.key.digest)
        },
        artifact: Some(artifact),
    }
}
