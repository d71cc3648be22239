//! The cluster node: routing, in-flight dedup, and frame dispatch.
//!
//! A [`ClusterNode`] owns one shard's [`ArtifactStore`] and the shared
//! [`HashRing`]. A client `batch` frame is partitioned by each
//! request's digest prefix: requests this shard owns are served
//! locally, the rest are forwarded to their owners as `synth` frames.
//! `synth` frames are *never* re-forwarded — every request crosses the
//! fabric at most once, so routing cannot loop. If an owner is
//! unreachable, its partition is served locally instead (counted as
//! `fallback_local`), so a shard loss degrades throughput, not
//! availability.
//!
//! **Synthesize-once**: concurrent connections asking for the same
//! digest collapse onto one pipeline run. The first request becomes
//! the executor and registers an in-flight slot; followers block on
//! the slot's condvar and reuse the executor's outcome (counted as
//! `inflight_deduped`). This extends `serve_batch`'s intra-batch dedup
//! across connections — N clients sweeping the same grid cost one
//! synthesis per point cluster-wide.
//!
//! A batch is prepared (parsed and digested) once, on arrival: the
//! digests route it, claim its in-flight slots, and are handed with the
//! parsed functions to [`serve_encoded`], so the service never parses
//! or digests a request again.
//!
//! The report is written as text in one pass ([`ReportText`]): each
//! local outcome splices its artifact's stored bytes after its head
//! fields, so a hit is never decoded or re-encoded on its way to the
//! socket. The `Json` forms ([`ClusterNode::route_batch`],
//! [`ClusterNode::handle`]) parse that same text.
//!
//! Fresh results (positive artifacts *and* fresh negative-cache
//! entries) are replicated synchronously to the next `replicas - 1`
//! distinct ring members before the batch returns, so a warm read
//! survives the owner's loss and is byte-identical on every holder.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use hls_ir::Json;
use hls_serve::{
    batch_to_json, parse_batch, prepare_batch, serve_encoded, ArtifactStore, CountersSnapshot,
    EncodedOutcome, EntryKind, Prepared, ReportText, RequestOutcome, ServiceConfig,
    SynthesisRequest,
};

use crate::listen::{Connection, Listener};
use crate::peer::{Addr, PeerClient};
use crate::replicate::replicate_entries;
use crate::ring::{HashRing, DEFAULT_VNODES};
use crate::wire::{read_frame, report_line, Frame, Incoming};

/// How long a follower waits on an in-flight executor before giving up
/// and synthesizing on its own (covers an executor that died mid-job).
pub const INFLIGHT_WAIT: Duration = Duration::from_secs(300);

/// Static cluster topology plus the local service tuning.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// This shard's index into `members`.
    pub self_index: usize,
    /// Every member's address, identically ordered on every shard —
    /// the list *is* the ring input, so it must match across the
    /// cluster.
    pub members: Vec<Addr>,
    /// Total copies of each fresh entry (owner + `replicas - 1`
    /// peers). `1` disables replication.
    pub replicas: usize,
    /// Virtual nodes per member on the hash ring.
    pub vnodes: usize,
    /// Local batch-engine tuning.
    pub service: ServiceConfig,
}

impl ClusterConfig {
    /// A single-node "cluster" — everything local, nothing forwarded.
    pub fn single(service: ServiceConfig) -> ClusterConfig {
        ClusterConfig {
            self_index: 0,
            members: Vec::new(),
            replicas: 1,
            vnodes: DEFAULT_VNODES,
            service,
        }
    }
}

/// Routing and replication counters, one set per node.
#[derive(Debug, Default)]
pub struct NodeCounters {
    /// Requests forwarded to their owning shard.
    pub forwarded: AtomicU64,
    /// Requests served locally because their owner was unreachable.
    pub fallback_local: AtomicU64,
    /// Requests that reused another connection's in-flight synthesis.
    pub inflight_deduped: AtomicU64,
    /// Entries pushed to peers by replication.
    pub replicated_out: AtomicU64,
    /// Entries admitted from peers' `put` frames.
    pub replicated_in: AtomicU64,
    /// Peer calls that failed (connect, send, or receive).
    pub remote_errors: AtomicU64,
}

impl NodeCounters {
    /// Serializes the counters.
    pub fn to_json(&self) -> Json {
        let c = |a: &AtomicU64| Json::count(a.load(Ordering::Relaxed));
        Json::obj(vec![
            ("forwarded", c(&self.forwarded)),
            ("fallback_local", c(&self.fallback_local)),
            ("inflight_deduped", c(&self.inflight_deduped)),
            ("replicated_out", c(&self.replicated_out)),
            ("replicated_in", c(&self.replicated_in)),
            ("remote_errors", c(&self.remote_errors)),
        ])
    }
}

/// One in-flight synthesis, shared between its executor and followers.
struct InflightSlot {
    done: Mutex<Option<EncodedOutcome>>,
    cv: Condvar,
}

/// One shard of the cluster.
pub struct ClusterNode {
    pub(crate) cfg: ClusterConfig,
    pub(crate) ring: HashRing,
    pub(crate) store: ArtifactStore,
    pub(crate) counters: NodeCounters,
    inflight: Mutex<HashMap<String, Arc<InflightSlot>>>,
}

/// One request's answer, as the report writes it.
#[derive(Clone)]
enum Answer {
    /// Served on this shard.
    Local(EncodedOutcome),
    /// Served on this shard because its owner could not be reached.
    Fallback(EncodedOutcome, String),
    /// The owner's reply.
    Remote(Json),
}

/// Where one request's digest routes.
enum Route {
    /// Served here (owned locally, unparseable, or single-node).
    Local,
    /// Owned by another member.
    Remote(usize),
}

impl ClusterNode {
    /// Builds a node over an already-open store. `cfg.members` may be
    /// empty for a standalone node.
    pub fn new(cfg: ClusterConfig, store: ArtifactStore) -> Result<ClusterNode, String> {
        if !cfg.members.is_empty() && cfg.self_index >= cfg.members.len() {
            return Err(format!(
                "cluster: self index {} is out of range for {} members",
                cfg.self_index,
                cfg.members.len()
            ));
        }
        let names: Vec<String> = cfg.members.iter().map(Addr::to_string).collect();
        let ring = HashRing::new(&names, cfg.vnodes.max(1));
        Ok(ClusterNode {
            ring,
            store,
            counters: NodeCounters::default(),
            inflight: Mutex::new(HashMap::new()),
            cfg,
        })
    }

    /// The node's store.
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// The node's routing counters.
    pub fn counters(&self) -> &NodeCounters {
        &self.counters
    }

    /// Answers one protocol frame.
    pub fn handle(&self, frame: Frame) -> Frame {
        match frame {
            Frame::Batch { requests } => self.report_frame(&requests, false),
            Frame::Synth { requests } => self.report_frame(&requests, true),
            Frame::Get { digest } => {
                let found = self
                    .store
                    .read_raw(EntryKind::Positive, &digest)
                    .map(|e| (EntryKind::Positive, e))
                    .or_else(|| {
                        self.store
                            .read_raw(EntryKind::Negative, &digest)
                            .map(|e| (EntryKind::Negative, e))
                    });
                Frame::Entry { found }
            }
            Frame::Put { entries } => {
                let mut stored = 0u64;
                for e in &entries {
                    if let Ok(true) = self.store.insert_raw(e.kind, &e.digest, &e.entry) {
                        stored += 1;
                    }
                }
                self.counters
                    .replicated_in
                    .fetch_add(stored, Ordering::Relaxed);
                Frame::Stored { stored }
            }
            Frame::Ping => Frame::Pong {
                shard: self.cfg.self_index as u64,
            },
            Frame::Stats => {
                let mut fields = vec![
                    ("self", Json::count(self.cfg.self_index as u64)),
                    (
                        "members",
                        Json::Arr(
                            self.cfg
                                .members
                                .iter()
                                .map(|a| Json::str(a.to_string()))
                                .collect(),
                        ),
                    ),
                    ("cluster", self.counters.to_json()),
                    ("store", self.store.stats().to_json()),
                ];
                if let Some(c) = &self.cfg.service.pass_cache {
                    fields.push(("pass_cache", c.stats().to_json()));
                }
                if let Some(c) = &self.cfg.service.proof_cache {
                    fields.push(("proof_cache", c.stats().to_json()));
                }
                Frame::Report(Json::obj(fields))
            }
            reply @ (Frame::Report(_)
            | Frame::Entry { .. }
            | Frame::Stored { .. }
            | Frame::Pong { .. }
            | Frame::Error { .. }) => Frame::Error {
                message: format!("`{}` is a reply frame, not a request", reply.op()),
            },
        }
    }

    /// Answers one protocol frame with its reply line, newline included:
    /// the bytes `self.handle(frame).write_line` writes, with a batch
    /// report written straight from the service's bytes.
    pub fn reply_line(&self, frame: Frame) -> String {
        let report = match &frame {
            Frame::Batch { requests } => self.handle_batch(requests, false),
            Frame::Synth { requests } => self.handle_batch(requests, true),
            _ => return self.handle(frame).line(),
        };
        match report {
            Ok(report) => report_line(&report),
            Err(message) => Frame::Error { message }.line(),
        }
    }

    /// Serves a legacy (pre-cluster) plain-batch line: JSON in, the
    /// report document out, exactly as `synthd --socket` always spoke.
    pub fn handle_legacy(&self, line: &str) -> String {
        match parse_batch(line) {
            Ok(requests) => self.write_report(&requests, false),
            Err(e) => format!("{{\"error\":{}}}", Json::str(e).write()),
        }
    }

    fn report_frame(&self, requests: &Json, forwarded: bool) -> Frame {
        match self.handle_batch(requests, forwarded) {
            Ok(report) => Frame::Report(parse_report(&report)),
            Err(message) => Frame::Error { message },
        }
    }

    /// A batch frame's report text, or why the batch does not parse.
    fn handle_batch(&self, requests: &Json, forwarded: bool) -> Result<String, String> {
        hls_serve::batch_from_json(requests).map(|requests| self.write_report(&requests, forwarded))
    }

    /// Routes a parsed batch and returns the report document:
    /// `{"outcomes": [...], "counters": {...}, "routing": {...},
    /// "store": {...}}` with outcomes in request order regardless of
    /// which shard served each one. This is the parse of the report text
    /// [`handle_connection`] writes.
    pub fn route_batch(&self, requests: &[SynthesisRequest], forwarded: bool) -> Json {
        parse_report(&self.write_report(requests, forwarded))
    }

    /// Routes a parsed batch and writes the report as text in one pass
    /// (see [`ClusterNode::route_batch`] for its layout).
    fn write_report(&self, requests: &[SynthesisRequest], forwarded: bool) -> String {
        let single = self.cfg.members.len() <= 1;
        let prepared = prepare_batch(requests);
        let routes: Vec<Route> = prepared
            .iter()
            .map(|p| {
                if forwarded || single {
                    return Route::Local;
                }
                match p {
                    // Unparseable sources have no digest; serve locally
                    // so the parse error is reported here.
                    Err(_) => Route::Local,
                    Ok((_, key)) => {
                        let owner = self.ring.owner(key.shard_prefix());
                        if owner == self.cfg.self_index {
                            Route::Local
                        } else {
                            Route::Remote(owner)
                        }
                    }
                }
            })
            .collect();

        // Partition preserving request order within each destination.
        let mut local: Vec<usize> = Vec::new();
        let mut remote: HashMap<usize, Vec<usize>> = HashMap::new();
        for (i, route) in routes.iter().enumerate() {
            match route {
                Route::Local => local.push(i),
                Route::Remote(owner) => remote.entry(*owner).or_default().push(i),
            }
        }
        let forwarded_n = remote.values().map(Vec::len).sum::<usize>() as u64;
        self.counters
            .forwarded
            .fetch_add(forwarded_n, Ordering::Relaxed);

        let mut answers: Vec<Option<Answer>> = vec![None; requests.len()];
        let mut counters = CountersSnapshot::default();
        let mut fallback_n = 0u64;

        // Forward each remote partition on its own thread while the
        // local partition runs on this one.
        let mut remote_parts: Vec<(usize, Vec<usize>)> = remote.into_iter().collect();
        remote_parts.sort_unstable();
        let replies: Vec<(Vec<usize>, Result<Json, String>)> = thread::scope(|s| {
            let handles: Vec<_> = remote_parts
                .iter()
                .map(|(owner, indices)| {
                    let part: Vec<SynthesisRequest> =
                        indices.iter().map(|&i| requests[i].clone()).collect();
                    let client = PeerClient::new(self.cfg.members[*owner].clone());
                    s.spawn(move || {
                        match client.call(&Frame::Synth {
                            requests: batch_to_json(&part),
                        }) {
                            Ok(Frame::Report(report)) => Ok(report),
                            Ok(Frame::Error { message }) => Err(message),
                            Ok(other) => Err(format!("peer answered `{}` to synth", other.op())),
                            Err(e) => Err(e),
                        }
                    })
                })
                .collect();

            let (local_outcomes, local_counters) = self.serve_local(requests, &prepared, &local);
            for (slot, outcome) in local.iter().zip(local_outcomes) {
                answers[*slot] = Some(Answer::Local(outcome));
            }
            counters = local_counters;

            remote_parts
                .iter()
                .zip(handles)
                .map(|((_, indices), h)| {
                    let reply = h.join().unwrap_or_else(|_| {
                        Err("internal: forwarding thread panicked".to_string())
                    });
                    (indices.clone(), reply)
                })
                .collect()
        });

        for (indices, reply) in replies {
            match reply {
                Ok(report) => {
                    let empty = Vec::new();
                    let remote_outcomes = report
                        .get("outcomes")
                        .and_then(Json::as_arr)
                        .unwrap_or(&empty);
                    for (slot, outcome) in indices.iter().zip(remote_outcomes) {
                        answers[*slot] = Some(Answer::Remote(outcome.clone()));
                    }
                    // A short reply (peer bug) leaves `None`s, filled as
                    // errors below rather than panicking here.
                }
                Err(e) => {
                    // The owner is unreachable: serve its partition
                    // here so the client still gets every answer.
                    self.counters.remote_errors.fetch_add(1, Ordering::Relaxed);
                    fallback_n += indices.len() as u64;
                    let (fallback_outcomes, fallback_counters) =
                        self.serve_local(requests, &prepared, &indices);
                    for (slot, outcome) in indices.iter().zip(fallback_outcomes) {
                        answers[*slot] = Some(Answer::Fallback(outcome, e.clone()));
                    }
                    merge_counters(&mut counters, &fallback_counters);
                }
            }
        }
        self.counters
            .fallback_local
            .fetch_add(fallback_n, Ordering::Relaxed);

        let mut report = ReportText::new();
        for (i, answer) in answers.iter().enumerate() {
            let out = report.next_outcome();
            match answer {
                Some(Answer::Local(o)) => o.write_into(out),
                Some(Answer::Fallback(o, e)) => {
                    o.write_into(out);
                    out.pop(); // the closing brace
                    out.push_str(",\"forward_error\":");
                    Json::str(e.clone()).write_into(out);
                    out.push('}');
                }
                Some(Answer::Remote(v)) => v.write_into(out),
                None => Json::obj(vec![
                    ("design", Json::str(requests[i].design.clone())),
                    ("error", Json::str("peer reply omitted this request")),
                ])
                .write_into(out),
            }
        }
        let routing = Json::obj(vec![
            ("self", Json::count(self.cfg.self_index as u64)),
            ("local", Json::count(local.len() as u64)),
            ("forwarded", Json::count(forwarded_n)),
            ("fallback_local", Json::count(fallback_n)),
        ]);
        report.finish(&counters, vec![("routing", routing)], &self.store)
    }

    /// Serves the requests at `indices` on this shard with
    /// cross-connection in-flight dedup, returning outcomes in the
    /// same order as `indices`. `prepared` is [`prepare_batch`] of
    /// `requests`.
    fn serve_local(
        &self,
        requests: &[SynthesisRequest],
        prepared: &[Prepared],
        indices: &[usize],
    ) -> (Vec<EncodedOutcome>, CountersSnapshot) {
        // Claim or follow the in-flight slot for each digest. Requests
        // that fail to parse have no digest and always run.
        enum Part {
            Run,
            Follow(Arc<InflightSlot>),
        }
        let mut claimed: Vec<(usize, String)> = Vec::new();
        let parts: Vec<(usize, Part)> = {
            let mut table = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
            indices
                .iter()
                .map(|&i| {
                    let Ok((_, key)) = &prepared[i] else {
                        return (i, Part::Run);
                    };
                    match table.get(&key.digest) {
                        Some(slot) => (i, Part::Follow(Arc::clone(slot))),
                        None => {
                            let slot = Arc::new(InflightSlot {
                                done: Mutex::new(None),
                                cv: Condvar::new(),
                            });
                            table.insert(key.digest.clone(), slot);
                            claimed.push((i, key.digest.clone()));
                            (i, Part::Run)
                        }
                    }
                })
                .collect()
        };

        let to_run: Vec<usize> = parts
            .iter()
            .filter(|(_, p)| matches!(p, Part::Run))
            .map(|(i, _)| *i)
            .collect();
        let report = serve_encoded(
            to_run.iter().map(|&i| (&requests[i], &prepared[i])),
            &self.store,
            &self.cfg.service,
        );

        // Publish executor outcomes and release the slots.
        {
            let mut table = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
            for (i, digest) in &claimed {
                let Some(slot) = table.remove(digest) else {
                    continue;
                };
                let pos = to_run.iter().position(|r| r == i).unwrap_or(0);
                let mut done = slot.done.lock().unwrap_or_else(|e| e.into_inner());
                *done = report.outcomes.get(pos).cloned();
                slot.cv.notify_all();
            }
        }

        // Replicate fresh entries (positive and negative) to peers.
        if self.cfg.replicas > 1 && self.cfg.members.len() > 1 {
            let fresh: Vec<(String, EntryKind)> = report
                .outcomes
                .iter()
                .filter(|o| !o.outcome.cache_hit && !o.outcome.rejected)
                .filter(|o| !o.outcome.digest.is_empty())
                .filter_map(|o| {
                    let digest = o.outcome.digest.clone();
                    if o.artifact.is_some() {
                        Some((digest, EntryKind::Positive))
                    } else if o.outcome.failure.is_some() && !o.outcome.negative_hit {
                        Some((digest, EntryKind::Negative))
                    } else {
                        None
                    }
                })
                .collect();
            replicate_entries(self, &fresh);
        }

        let mut by_index: HashMap<usize, EncodedOutcome> = to_run
            .iter()
            .zip(report.outcomes)
            .map(|(&i, o)| (i, o))
            .collect();
        let outcomes = parts
            .into_iter()
            .map(|(i, part)| match part {
                Part::Run => by_index
                    .remove(&i)
                    .unwrap_or_else(|| missing_outcome(&requests[i].design)),
                Part::Follow(slot) => {
                    self.counters
                        .inflight_deduped
                        .fetch_add(1, Ordering::Relaxed);
                    match wait_inflight(&slot) {
                        Some(mut o) => {
                            o.outcome.deduped = true;
                            o
                        }
                        // The executor died or timed out: run it
                        // ourselves rather than hang the client.
                        None => {
                            let one = [(&requests[i], &prepared[i])];
                            let mut r = serve_encoded(one, &self.store, &self.cfg.service);
                            r.outcomes
                                .pop()
                                .unwrap_or_else(|| missing_outcome(&requests[i].design))
                        }
                    }
                }
            })
            .collect();
        (outcomes, report.counters)
    }
}

fn missing_outcome(design: &str) -> EncodedOutcome {
    let outcome = RequestOutcome {
        design: design.to_string(),
        digest: String::new(),
        cache_hit: false,
        deduped: false,
        rejected: false,
        negative_hit: false,
        failure: None,
        modeled_cost_ns: None,
        diagnostics: None,
        artifact: None,
        error: Some("internal: outcome missing from batch report".to_string()),
    };
    EncodedOutcome {
        outcome,
        artifact: None,
    }
}

fn wait_inflight(slot: &InflightSlot) -> Option<EncodedOutcome> {
    let mut done = slot.done.lock().unwrap_or_else(|e| e.into_inner());
    let deadline = std::time::Instant::now() + INFLIGHT_WAIT;
    while done.is_none() {
        let now = std::time::Instant::now();
        if now >= deadline {
            return None;
        }
        let (guard, _) = slot
            .cv
            .wait_timeout(done, deadline - now)
            .unwrap_or_else(|e| e.into_inner());
        done = guard;
    }
    done.clone()
}

/// The document form of a report `ClusterNode::write_report` wrote.
fn parse_report(text: &str) -> Json {
    Json::parse(text).unwrap_or_else(|e| {
        Json::obj(vec![(
            "error",
            Json::str(format!("internal: report does not parse: {e}")),
        )])
    })
}

/// Sums `extra` into `into` (numeric counters and histograms both).
fn merge_counters(into: &mut CountersSnapshot, extra: &CountersSnapshot) {
    into.hits += extra.hits;
    into.misses += extra.misses;
    into.synthesized += extra.synthesized;
    into.deduped += extra.deduped;
    into.rejected += extra.rejected;
    into.errors += extra.errors;
    into.neg_hits += extra.neg_hits;
    into.neg_inserts += extra.neg_inserts;
    into.queue_peak += extra.queue_peak;
    for (a, b) in [
        (&mut into.lookup_us, &extra.lookup_us),
        (&mut into.synth_us, &extra.synth_us),
        (&mut into.verify_us, &extra.verify_us),
        (&mut into.insert_us, &extra.insert_us),
    ] {
        a.count += b.count;
        a.total_us += b.total_us;
        if a.buckets.len() < b.buckets.len() {
            a.buckets.resize(b.buckets.len(), 0);
        }
        for (i, v) in b.buckets.iter().enumerate() {
            a.buckets[i] += v;
        }
    }
}

/// Accepts connections forever, one handler thread per connection.
pub fn serve(node: Arc<ClusterNode>, listener: Listener) {
    loop {
        match listener.accept() {
            Ok(conn) => {
                let node = Arc::clone(&node);
                thread::spawn(move || handle_connection(&node, conn));
            }
            Err(e) => {
                eprintln!("synthd: accept: {e}");
                thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Answers frames (and legacy batch lines) on one connection until EOF.
pub fn handle_connection(node: &ClusterNode, conn: Connection) {
    let Ok(mut write) = conn.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(conn);
    while let Ok(Some(incoming)) = read_frame(&mut reader) {
        let reply = match incoming {
            Incoming::Frame(f) => node.reply_line(f),
            Incoming::Legacy(line) => node.handle_legacy(&line) + "\n",
            Incoming::Malformed(message) => Frame::Error { message }.line(),
        };
        if write
            .write_all(reply.as_bytes())
            .and_then(|()| write.flush())
            .is_err()
        {
            break;
        }
    }
}
