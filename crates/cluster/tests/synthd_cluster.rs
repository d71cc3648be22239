//! `synthd` in cluster mode as three real processes, booted from its
//! command line (`--cluster --peers … --self-index i --replicas 2`).
//! A cold grid enters through one shard, then the same grid is asked of
//! every shard: each must answer from its peers' replicated stores with
//! the cold Verilog, byte for byte. `cluster.rs` drives the same router
//! in process; this test covers the binary and the process boundaries.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::Duration;

use hls_cluster::{Addr, Frame, PeerClient};
use hls_core::{Directives, Unroll};
use hls_ir::Json;
use hls_serve::{batch_to_json, SynthesisRequest};

const SUM8: &str = "void sum8(sc_fixed<10,2> x[8], sc_fixed<16,8> *out) { \
                    sc_fixed<16,8> acc = 0; \
                    acc_loop: for (int k = 0; k < 8; k++) { acc += x[k]; } *out = acc; }";

/// Three `synthd --cluster` shards, killed on drop with their stores
/// and sockets removed.
struct Shards {
    children: Vec<Child>,
    members: Vec<Addr>,
    scratch: PathBuf,
}

impl Shards {
    fn boot(tag: &str) -> Shards {
        let scratch = std::env::temp_dir().join(format!("hls-synthd-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch).expect("scratch directory");
        let members: Vec<Addr> = (0..3)
            .map(|i| Addr::Unix(scratch.join(format!("{i}.sock"))))
            .collect();
        let peers = members
            .iter()
            .map(Addr::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let mut shards = Shards {
            children: Vec::new(),
            members,
            scratch,
        };
        for i in 0..shards.members.len() {
            let child = Command::new(env!("CARGO_BIN_EXE_synthd"))
                .arg("--store")
                .arg(shards.scratch.join(format!("store{i}")))
                .args(["--cluster", "--peers", &peers])
                .args(["--self-index", &i.to_string()])
                .args(["--replicas", "2"])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .expect("synthd spawns");
            shards.children.push(child);
        }
        for (i, member) in shards.members.iter().enumerate() {
            let client = PeerClient::new(member.clone());
            let mut up = false;
            for _ in 0..500 {
                if let Ok(Frame::Pong { shard }) = client.call(&Frame::Ping) {
                    assert_eq!(shard, i as u64, "{member} answered as another shard");
                    up = true;
                    break;
                }
                if let Ok(Some(status)) = shards.children[i].try_wait() {
                    panic!("shard {i} exited before listening: {status}");
                }
                thread::sleep(Duration::from_millis(20));
            }
            assert!(up, "shard {i} ({member}) never answered a ping");
        }
        shards
    }

    fn call(&self, shard: usize, frame: &Frame) -> Json {
        match PeerClient::new(self.members[shard].clone()).call(frame) {
            Ok(Frame::Report(report)) => report,
            other => panic!("shard {shard}: expected a report, got {other:?}"),
        }
    }

    fn batch(&self, shard: usize, requests: &[SynthesisRequest]) -> Json {
        self.call(
            shard,
            &Frame::Batch {
                requests: batch_to_json(requests),
            },
        )
    }
}

impl Drop for Shards {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

/// The accumulate kernel at unroll 1, 2 and 4 × four clocks: twelve
/// distinct content digests, spread over the ring.
fn grid() -> Vec<SynthesisRequest> {
    let mut requests = Vec::new();
    for unroll in [1, 2, 4] {
        for clock in [6.0, 8.0, 10.0, 12.0] {
            let mut r = SynthesisRequest::new(SUM8);
            r.design = format!("sum8/u{unroll}@{clock}ns");
            r.directives = Directives::new(clock);
            if unroll > 1 {
                r.directives = r.directives.unroll("acc_loop", Unroll::Factor(unroll));
            }
            requests.push(r);
        }
    }
    requests
}

fn outcomes(report: &Json) -> &[Json] {
    report
        .get("outcomes")
        .and_then(Json::as_arr)
        .expect("report.outcomes")
}

fn field<'a>(report: &'a Json, block: &str, key: &str) -> Option<&'a Json> {
    report.get(block).and_then(|b| b.get(key))
}

#[test]
fn synthd_shards_forward_replicate_and_serve_identical_warm_hits() {
    let shards = Shards::boot("cluster");
    let requests = grid();

    let cold = shards.batch(0, &requests);
    let cold_verilog: Vec<String> = outcomes(&cold)
        .iter()
        .map(|o| {
            assert!(o.get("error").is_none(), "cold outcome errored: {o:?}");
            let v = o.get("verilog").and_then(Json::as_str).unwrap_or_default();
            assert!(!v.is_empty(), "cold outcome has no Verilog: {o:?}");
            v.to_string()
        })
        .collect();
    assert_eq!(cold_verilog.len(), requests.len());
    let forwarded = field(&cold, "routing", "forwarded").and_then(Json::as_u64);
    assert!(
        forwarded > Some(0),
        "the grid never left shard 0: {forwarded:?}"
    );

    for shard in 0..shards.members.len() {
        let warm = shards.batch(shard, &requests);
        for (i, o) in outcomes(&warm).iter().enumerate() {
            assert_eq!(
                o.get("cache_hit").and_then(Json::as_bool),
                Some(true),
                "shard {shard}, request {i}: warm ask was not a hit: {o:?}"
            );
            assert_eq!(
                o.get("verilog").and_then(Json::as_str),
                Some(cold_verilog[i].as_str()),
                "shard {shard}, request {i}: warm Verilog differs from cold"
            );
        }
    }

    // A deterministic failure replicates too: the retry through another
    // shard replays it from the negative side.
    let mut infeasible = SynthesisRequest::new(SUM8);
    infeasible.design = "sum8@0.05ns".into();
    infeasible.directives = Directives::new(0.05);
    let infeasible = [infeasible];
    let first = shards.batch(0, &infeasible);
    let o = &outcomes(&first)[0];
    assert_eq!(
        o.get("failure_code").and_then(Json::as_str),
        Some("infeasible-clock"),
        "{o:?}"
    );
    assert_ne!(o.get("negative_hit").and_then(Json::as_bool), Some(true));
    let retry = shards.batch(1, &infeasible);
    let o = &outcomes(&retry)[0];
    assert_eq!(
        o.get("negative_hit").and_then(Json::as_bool),
        Some(true),
        "the retry must replay the stored failure: {o:?}"
    );

    let stats: Vec<Json> = (0..shards.members.len())
        .map(|shard| shards.call(shard, &Frame::Stats))
        .collect();
    let total = |block: &str, key: &str| -> u64 {
        stats
            .iter()
            .map(|s| {
                field(s, block, key)
                    .and_then(Json::as_u64)
                    .unwrap_or_else(|| panic!("stats frame lacks {block}.{key}: {s:?}"))
            })
            .sum()
    };
    assert_eq!(total("cluster", "remote_errors"), 0, "a peer call failed");
    assert!(total("cluster", "replicated_in") > 0, "nothing replicated");
    assert!(total("store", "neg_inserts") > 0, "no failure was stored");
}
