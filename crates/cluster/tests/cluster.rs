//! Three-shard cluster integration: routing, synthesize-once dedup,
//! replication, shard-loss survival, negative caching, and protocol
//! compatibility — all in-process over real Unix sockets.

use std::collections::HashMap;
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use hls_cluster::{
    handle_connection, serve, Addr, ClusterConfig, ClusterNode, Connection, Frame, HashRing,
    Listener, PeerClient, DEFAULT_VNODES,
};
use hls_core::PassCache;
use hls_ir::Json;
use hls_serve::{
    prepare_batch, serve_batch, serve_encoded, ArtifactStore, EncodedOutcome, EntryKind,
    RequestOutcome, ServiceConfig, StoreConfig, SynthesisRequest,
};
use hls_verify::ProofCache;
use qam_decoder::{table1_library, QAM_DECODER_SOURCE};

const SRC: &str = "void twice(sc_fixed<8,4> x, sc_fixed<10,6> *y) { *y = x + x; }";

/// One test's directory in the system temp directory, holding its stores
/// and sockets. Dropping it removes the directory, so a test cleans up
/// after itself whether it passes or fails.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("hls-cluster-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("creates the scratch directory");
        Scratch(dir)
    }

    fn store(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    fn sock(&self, i: usize) -> PathBuf {
        self.0.join(format!("{i}.sock"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A request for the shared tiny design at one target clock — each
/// clock is a distinct content digest spread across the ring.
fn req(clock: f64) -> SynthesisRequest {
    let mut r = SynthesisRequest::new(SRC);
    r.design = format!("twice@{clock}ns");
    r.directives.clock_period_ns = clock;
    r
}

fn grid(n: usize) -> Vec<SynthesisRequest> {
    (0..n).map(|i| req(4.0 + i as f64)).collect()
}

/// Boots a cluster: one node + listener thread per member. Returns the
/// node handles (for store/counter assertions), the member list and the
/// directory of the stores and sockets.
fn boot(
    tag: &str,
    n: usize,
    service: ServiceConfig,
) -> (Vec<Arc<ClusterNode>>, Vec<Addr>, Scratch) {
    let scratch = Scratch::new(tag);
    let members: Vec<Addr> = (0..n).map(|i| Addr::Unix(scratch.sock(i))).collect();
    let nodes: Vec<Arc<ClusterNode>> = (0..n)
        .map(|i| {
            let store = hls_serve::ArtifactStore::open(
                &scratch.store(&format!("store{i}")),
                hls_serve::StoreConfig::default(),
            )
            .expect("store opens");
            let cfg = ClusterConfig {
                self_index: i,
                members: members.clone(),
                replicas: 2,
                vnodes: DEFAULT_VNODES,
                service: service.clone(),
            };
            Arc::new(ClusterNode::new(cfg, store).expect("node builds"))
        })
        .collect();
    for (i, node) in nodes.iter().enumerate() {
        let listener = Listener::bind(&members[i]).expect("binds");
        let node = Arc::clone(node);
        thread::spawn(move || serve(node, listener));
    }
    // Every member answers pings before the test proceeds.
    for (i, m) in members.iter().enumerate() {
        let client = PeerClient::new(m.clone());
        for attempt in 0..100 {
            match client.call(&Frame::Ping) {
                Ok(Frame::Pong { shard }) => {
                    assert_eq!(shard, i as u64);
                    break;
                }
                _ if attempt < 99 => thread::sleep(Duration::from_millis(10)),
                other => panic!("shard {i} never came up: {other:?}"),
            }
        }
    }
    (nodes, members, scratch)
}

fn batch_frame(requests: &[SynthesisRequest]) -> Frame {
    Frame::Batch {
        requests: hls_serve::batch_to_json(requests),
    }
}

fn report(addr: &Addr, requests: &[SynthesisRequest]) -> Json {
    match PeerClient::new(addr.clone()).call(&batch_frame(requests)) {
        Ok(Frame::Report(r)) => r,
        other => panic!("expected a report, got {other:?}"),
    }
}

fn outcomes(report: &Json) -> &[Json] {
    report
        .get("outcomes")
        .and_then(Json::as_arr)
        .expect("outcomes")
}

fn verilog(outcome: &Json) -> &str {
    outcome
        .get("verilog")
        .and_then(Json::as_str)
        .expect("verilog")
}

#[test]
fn three_shards_route_replicate_and_serve_bit_identical_hits() {
    let n = 12;
    let (nodes, members, _scratch) = boot("route", 3, ServiceConfig::default());
    let requests = grid(n);

    // Cold: every request synthesizes somewhere in the cluster.
    let cold = report(&members[0], &requests);
    let cold_outcomes = outcomes(&cold);
    assert_eq!(cold_outcomes.len(), n);
    let cold_verilog: Vec<String> = cold_outcomes
        .iter()
        .map(|o| {
            assert!(o.get("error").is_none(), "cold outcome errored: {o:?}");
            verilog(o).to_string()
        })
        .collect();
    // The grid must actually exercise routing (deterministic digests).
    let forwarded = cold
        .get("routing")
        .and_then(|r| r.get("forwarded"))
        .and_then(Json::as_u64)
        .expect("routing.forwarded");
    assert!(forwarded > 0, "grid never left shard 0");

    // Every digest must live on >= 2 stores, byte-identically.
    for o in cold_outcomes {
        let digest = o.get("digest").and_then(Json::as_str).expect("digest");
        let copies: Vec<String> = nodes
            .iter()
            .filter_map(|node| node.store().read_raw(EntryKind::Positive, digest))
            .collect();
        assert!(
            copies.len() >= 2,
            "digest {digest} has {} copies, wanted >= 2",
            copies.len()
        );
        assert!(
            copies.windows(2).all(|w| w[0] == w[1]),
            "replicas of {digest} differ"
        );
    }

    // Warm from *every* shard: all hits, Verilog byte-identical to cold.
    for m in &members {
        let warm = report(m, &requests);
        for (i, o) in outcomes(&warm).iter().enumerate() {
            assert_eq!(
                o.get("cache_hit").and_then(Json::as_bool),
                Some(true),
                "warm outcome {i} via {m} was not a hit: {o:?}"
            );
            assert_eq!(
                verilog(o),
                cold_verilog[i],
                "warm Verilog {i} via {m} differs from cold"
            );
        }
    }
}

#[test]
fn concurrent_identical_requests_synthesize_once_across_connections() {
    let (nodes, members, _scratch) = boot("dedup", 1, ServiceConfig::default());
    let one = vec![req(6.0)];

    // Both connections leave the barrier together. The router claims the
    // in-flight slot before its store lookup and inserts before it
    // releases the slot, so the second arrival either follows the first
    // one's run or hits its stored artifact: never a second synthesis.
    let start = Barrier::new(2);
    let send = || {
        start.wait();
        report(&members[0], &one)
    };
    let (first, second) = thread::scope(|s| {
        let a = s.spawn(send);
        let b = s.spawn(send);
        (a.join().expect("first"), b.join().expect("second"))
    });

    let synthesized = |r: &Json| {
        r.get("counters")
            .and_then(|c| c.get("synthesized"))
            .and_then(Json::as_u64)
            .expect("counters.synthesized")
    };
    assert_eq!(
        synthesized(&first) + synthesized(&second),
        1,
        "the pipeline must run exactly once for identical concurrent requests"
    );
    for r in [&first, &second] {
        let o = &outcomes(r)[0];
        assert!(o.get("error").is_none(), "outcome errored: {o:?}");
        assert!(!verilog(o).is_empty());
    }
    // The follower either joined the in-flight run or (if it arrived
    // after publication) hit the store; both mean no second synthesis.
    let deduped = nodes[0]
        .counters()
        .inflight_deduped
        .load(std::sync::atomic::Ordering::Relaxed);
    let second_hit = outcomes(&second)[0]
        .get("cache_hit")
        .and_then(Json::as_bool)
        == Some(true);
    let first_hit = outcomes(&first)[0].get("cache_hit").and_then(Json::as_bool) == Some(true);
    assert!(
        deduped >= 1 || second_hit || first_hit,
        "follower neither deduped nor hit"
    );
}

#[test]
fn owner_loss_is_survived_by_replica_holders() {
    let n = 12;
    let (_nodes, members, _scratch) = boot("loss", 3, ServiceConfig::default());
    let requests = grid(n);

    // Cold populate + synchronous replication.
    let cold = report(&members[0], &requests);
    let cold_outcomes = outcomes(&cold);

    // The victim is whichever shard owns the first request's digest, and
    // the survivor the next shard holding its replica; the ring is
    // deterministic, so recompute it rather than assume an owner.
    let names: Vec<String> = members.iter().map(|m| m.to_string()).collect();
    let ring = HashRing::new(&names, DEFAULT_VNODES);
    let victim_req = 0;
    let digest = cold_outcomes[victim_req]
        .get("digest")
        .and_then(Json::as_str)
        .expect("digest");
    let prefix = u8::from_str_radix(&digest[..2], 16).expect("hex prefix");
    let replicas = ring.replicas(prefix, 2);
    let (victim, survivor) = (replicas[0], replicas[1]);

    // Kill the owner the Unix way: unlink its socket so connects fail.
    let Addr::Unix(path) = &members[victim] else {
        unreachable!()
    };
    fs::remove_file(path).expect("unlink the owner's socket");

    // The survivor that holds the replica serves the hit locally after
    // the forward fails.
    let warm = report(&members[survivor], &requests);
    let o = &outcomes(&warm)[victim_req];
    assert_eq!(
        o.get("cache_hit").and_then(Json::as_bool),
        Some(true),
        "replica holder must serve the dead owner's entry as a hit: {o:?}"
    );
    assert_eq!(verilog(o), verilog(&cold_outcomes[victim_req]));
    let fallback = warm
        .get("routing")
        .and_then(|r| r.get("fallback_local"))
        .and_then(Json::as_u64)
        .expect("routing.fallback_local");
    assert!(fallback > 0, "dead owner must force local fallback");

    // Every other request still gets a full answer.
    for o in outcomes(&warm) {
        assert!(
            o.get("verilog").is_some(),
            "request lost to the dead shard: {o:?}"
        );
    }
}

#[test]
fn deterministic_failures_are_negative_cached_and_replicated() {
    let (nodes, members, _scratch) = boot("neg", 3, ServiceConfig::default());
    // An infeasible target clock: the schedule stage can never fit a
    // multiply in 0.5 ns, deterministically, on any shard.
    let mut bad = SynthesisRequest::new(QAM_DECODER_SOURCE);
    bad.design = "qam@0.5ns".into();
    bad.library = table1_library();
    bad.directives = hls_core::Directives::new(0.5);
    let batch = vec![bad];

    let first = report(&members[0], &batch);
    let o = &outcomes(&first)[0];
    assert_eq!(
        o.get("failure_code").and_then(Json::as_str),
        Some("infeasible-clock"),
        "first attempt must fail the schedule: {o:?}"
    );
    assert_ne!(o.get("negative_hit").and_then(Json::as_bool), Some(true));
    let digest = o
        .get("digest")
        .and_then(Json::as_str)
        .expect("digest")
        .to_string();

    // The failure document replicated like any other entry.
    let copies = nodes
        .iter()
        .filter(|node| {
            node.store()
                .read_raw(EntryKind::Negative, &digest)
                .is_some()
        })
        .count();
    assert!(
        copies >= 2,
        "negative entry has {copies} copies, wanted >= 2"
    );

    // Retry from a *different* shard: same failure, no pipeline re-run.
    let second = report(&members[1], &batch);
    let o = &outcomes(&second)[0];
    assert_eq!(
        o.get("negative_hit").and_then(Json::as_bool),
        Some(true),
        "retry must be served from the negative cache: {o:?}"
    );
    assert_eq!(
        o.get("failure_code").and_then(Json::as_str),
        Some("infeasible-clock")
    );
    assert_eq!(
        second
            .get("counters")
            .and_then(|c| c.get("synthesized"))
            .and_then(Json::as_u64),
        Some(0),
        "negative hit must not re-run the pipeline"
    );
}

/// An outcome's wire form, minus what differs between twin stores: the
/// pass trace of an artifact synthesized in the test (its per-pass wall
/// times differ from run to run) and the numbers of an admission
/// rejection (its modeled cost comes from observed synthesis time).
fn comparable(outcome: &Json, copied: &[String]) -> String {
    let mut o = outcome.clone();
    let digest = o.get("digest").and_then(Json::as_str).unwrap_or_default();
    if !copied.iter().any(|c| c == digest) {
        if let Json::Obj(fields) = &mut o {
            fields.retain(|(k, _)| k != "trace");
        }
    }
    let text = o.write();
    if o.get("rejected").and_then(Json::as_bool) != Some(true) {
        return text;
    }
    let mut masked = String::new();
    for c in text.chars() {
        if !c.is_ascii_digit() {
            masked.push(c);
        } else if !masked.ends_with('#') {
            masked.push('#');
        }
    }
    masked
}

/// A report minus what differs between twin stores: outcomes as in
/// [`comparable`], the latency histograms and the positive byte total.
fn comparable_report(report: &Json, copied: &[String]) -> String {
    let Json::Obj(fields) = report else {
        panic!("report is not an object: {report:?}")
    };
    let fields: Vec<(String, Json)> = fields
        .iter()
        .map(|(k, v)| {
            let v = match (k.as_str(), v) {
                ("outcomes", Json::Arr(items)) => Json::Arr(
                    items
                        .iter()
                        .map(|o| Json::str(comparable(o, copied)))
                        .collect(),
                ),
                ("counters" | "store", Json::Obj(inner)) => Json::Obj(
                    inner
                        .iter()
                        .filter(|(k, _)| !k.ends_with("_us") && k != "bytes")
                        .cloned()
                        .collect(),
                ),
                _ => v.clone(),
            };
            (k.clone(), v)
        })
        .collect();
    Json::Obj(fields).write()
}

/// An outcome's bytes with `cache_hit` and `deduped` cleared: the only
/// fields in which a hit may differ from its first serve.
fn unflagged(outcome: &str) -> String {
    outcome
        .replacen("\"cache_hit\":true", "\"cache_hit\":false", 1)
        .replacen("\"deduped\":true", "\"deduped\":false", 1)
}

#[test]
fn router_and_service_agree_on_a_mixed_batch() {
    let stored = req(6.0);
    // No operation fits a 0.05 ns clock: a deterministic failure.
    let infeasible = req(0.05);
    let mut broken = SynthesisRequest::new("void broken(");
    broken.design = "broken".into();
    let fresh = req(9.0);
    // More bounded operations than `twice`, so it queues behind it.
    let mut big = SynthesisRequest::new(
        "void sum(sc_fixed<10,2> x[8], sc_fixed<16,8> *out) { sc_fixed<16,8> acc = 0; \
         sum_loop: for (int k = 0; k < 8; k++) { acc += x[k]; } *out = acc; }",
    );
    big.design = "sum".into();
    // Once the model has one observation, every bounded job is over
    // budget: the second miss of a batch is rejected.
    let strict = ServiceConfig {
        workers: 1,
        max_cost_ns: Some(1),
        ..ServiceConfig::default()
    };
    let inputs = [
        (
            "mixed",
            ServiceConfig::default(),
            vec![
                broken.clone(),
                stored.clone(),
                fresh.clone(),
                infeasible.clone(),
                stored.clone(),
                fresh.clone(),
            ],
            1,
        ),
        (
            "admission",
            strict,
            vec![fresh.clone(), fresh, infeasible.clone(), big, broken],
            2,
        ),
    ];
    for (tag, service, batch, calls) in inputs {
        // Three twins: the service itself, the router's `Json` API and a
        // connection served by `handle_connection`.
        let scratch = Scratch::new(&format!("agree-{tag}"));
        let twin =
            |side: &str| ArtifactStore::open(&scratch.store(side), StoreConfig::default()).unwrap();
        let (direct, routed, wired) = (twin("direct"), twin("routed"), twin("wired"));

        // Prime the service's twin with an answer and a failure, and copy
        // the entries byte for byte, so every twin holds the same replies.
        let primed = serve_batch(
            &[stored.clone(), infeasible.clone()],
            &direct,
            &ServiceConfig::default(),
        );
        let mut copied = Vec::new();
        for o in &primed.outcomes {
            for kind in [EntryKind::Positive, EntryKind::Negative] {
                if let Some(entry) = direct.read_raw(kind, &o.digest) {
                    for store in [&routed, &wired] {
                        let fresh = store.insert_raw(kind, &o.digest, &entry);
                        assert!(fresh.expect("the twin accepts the entry"));
                    }
                    copied.push(o.digest.clone());
                }
            }
        }
        assert_eq!(copied.len(), 2, "one positive and one negative entry");
        // Each artifact's first serve, by digest.
        let mut first_serves: HashMap<String, String> = primed
            .outcomes
            .iter()
            .filter(|o| o.artifact.is_some())
            .map(|o| (o.digest.clone(), o.to_json().write()))
            .collect();

        let node = ClusterNode::new(ClusterConfig::single(service.clone()), routed).unwrap();
        let wired = ClusterNode::new(ClusterConfig::single(service.clone()), wired).unwrap();
        let (client, server) = UnixStream::pair().expect("socket pair");
        thread::scope(|s| {
            s.spawn(|| handle_connection(&wired, Connection::Unix(server)));
            let mut reader = BufReader::new(client.try_clone().unwrap());
            let mut writer = client;
            for call in 0..calls {
                let at = format!("{tag}, call {call}");
                let prepared = prepare_batch(&batch);
                let served = serve_encoded(batch.iter().zip(&prepared), &direct, &service);
                let bytes: Vec<String> = served
                    .outcomes
                    .iter()
                    .map(|o| {
                        let mut text = String::new();
                        o.write_into(&mut text);
                        text
                    })
                    .collect();
                let decoded: Vec<RequestOutcome> = served
                    .outcomes
                    .into_iter()
                    .map(EncodedOutcome::decode)
                    .collect();
                for (i, (b, o)) in bytes.iter().zip(&decoded).enumerate() {
                    assert_eq!(b, &o.to_json().write(), "{at}: outcome {i}'s bytes");
                    if o.artifact.is_none() {
                        continue;
                    }
                    match first_serves.get(&o.digest) {
                        Some(first) => assert_eq!(
                            unflagged(b),
                            unflagged(first),
                            "{at}: outcome {i} differs from its first serve"
                        ),
                        None => {
                            assert!(!o.cache_hit, "{at}: a hit must follow a serve");
                            first_serves.insert(o.digest.clone(), b.clone());
                        }
                    }
                }

                let report = node.route_batch(&batch, false);
                let want: Vec<String> = decoded
                    .iter()
                    .map(|o| comparable(&o.to_json(), &copied))
                    .collect();
                let got: Vec<String> = outcomes(&report)
                    .iter()
                    .map(|o| comparable(o, &copied))
                    .collect();
                assert_eq!(got.len(), batch.len());
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g, w, "{at}: outcome {i} differs between router and service");
                }

                writer
                    .write_all(batch_frame(&batch).line().as_bytes())
                    .unwrap();
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                let frame = Frame::from_json(&Json::parse(&line).expect("reply is JSON"));
                let Ok(Frame::Report(wire)) = frame else {
                    panic!("{at}: expected a report line, got {line}")
                };
                assert_eq!(
                    Frame::Report(wire.clone()).line(),
                    line,
                    "{at}: not canonical"
                );
                assert_eq!(
                    comparable_report(&wire, &copied),
                    comparable_report(&report, &copied),
                    "{at}: the reply line and the Json API disagree"
                );

                // The batch covers every path the hand-off carries.
                let o = &decoded;
                match (tag, call) {
                    ("mixed", _) => {
                        assert!(o[0].error.as_ref().unwrap().contains("does not parse"));
                        assert!(o[1].cache_hit && o[4].cache_hit && o[4].deduped);
                        assert!(o[2].artifact.is_some() && !o[2].cache_hit && o[5].deduped);
                        assert!(o[3].negative_hit);
                    }
                    (_, 0) => {
                        assert!(o[0].artifact.is_some() && !o[0].cache_hit && o[1].deduped);
                        assert!(o[2].negative_hit);
                        assert!(o[3].rejected, "{at}: {:?}", o[3].error);
                        assert!(o[4].error.as_ref().unwrap().contains("does not parse"));
                    }
                    _ => assert!(o[0].cache_hit && o[1].cache_hit && o[1].deduped),
                }
            }
        });
    }
}

#[test]
fn legacy_plain_batch_lines_and_bad_frames_are_answered() {
    let (_nodes, members, _scratch) = boot("legacy", 1, ServiceConfig::default());
    let Addr::Unix(path) = &members[0] else {
        unreachable!()
    };
    let mut stream = UnixStream::connect(path).expect("connects");

    // Legacy: a bare batch line gets a bare report line (no proto tag).
    let batch = hls_serve::batch_to_json(&[req(5.0)]).write();
    stream.write_all(batch.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let reply = Json::parse(&line).expect("legacy reply is JSON");
    assert!(
        reply.get("proto").is_none(),
        "legacy reply must not be a frame"
    );
    assert_eq!(outcomes(&reply).len(), 1);
    assert!(outcomes(&reply)[0].get("verilog").is_some());

    // A version-mismatched frame on the same connection errors loudly.
    stream
        .write_all(b"{\"proto\":\"hls-cluster/v0\",\"op\":\"ping\"}\n")
        .unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let reply = Json::parse(&line).expect("error reply is JSON");
    let message = reply
        .get("error")
        .and_then(Json::as_str)
        .expect("error frame");
    assert!(message.contains("version mismatch"), "{message}");
}

#[test]
fn stats_frame_reports_membership_and_store_census() {
    let (_nodes, members, _scratch) = boot("stats", 3, ServiceConfig::default());
    let _ = report(&members[0], &grid(3));
    let stats = match PeerClient::new(members[0].clone()).call(&Frame::Stats) {
        Ok(Frame::Report(r)) => r,
        other => panic!("expected a stats report, got {other:?}"),
    };
    assert_eq!(stats.get("self").and_then(Json::as_u64), Some(0));
    assert_eq!(
        stats
            .get("members")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(3)
    );
    assert!(stats
        .get("cluster")
        .and_then(|c| c.get("forwarded"))
        .is_some());
    assert!(stats.get("store").and_then(|s| s.get("entries")).is_some());

    // A member with both caches, as `synthd --incremental` boots one.
    // The decoder at 20 ns and at 40 ns chains identically, so the
    // second request replays the first one's prefix and proof.
    let service = ServiceConfig {
        pass_cache: Some(Arc::new(PassCache::default())),
        proof_cache: Some(Arc::new(ProofCache::in_memory())),
        ..ServiceConfig::default()
    };
    let (_nodes, members, _scratch) = boot("stats-incremental", 1, service);
    for clock in [20.0, 40.0] {
        let mut r = SynthesisRequest::new(QAM_DECODER_SOURCE);
        r.directives.clock_period_ns = clock;
        r.library = table1_library();
        r.verify = true;
        let served = report(&members[0], &[r]);
        assert!(outcomes(&served)[0].get("error").is_none(), "{served:?}");
    }
    let stats = match PeerClient::new(members[0].clone()).call(&Frame::Stats) {
        Ok(Frame::Report(r)) => r,
        other => panic!("expected a stats report, got {other:?}"),
    };
    // The benchmark derives its cache hit ratios from `hits` and
    // `misses` of both blocks, reading a missing key as 0. No disk-tier
    // or obligation counter remains beside them.
    for block in ["pass_cache", "proof_cache"] {
        let counters = stats.get(block).unwrap_or_else(|| panic!("no {block}"));
        let keys: Vec<&str> = counters
            .as_obj()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            ["hits", "misses", "inserts", "evictions", "entries"],
            "{block}"
        );
        assert!(
            counters.get("hits").and_then(Json::as_u64) >= Some(1),
            "{block}: {counters:?}"
        );
    }
}
