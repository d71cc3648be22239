//! The JSON codec reproduces what the service writes, byte for byte:
//! `Json::parse` then `Json::write` of a served decoder reply, and of
//! `synthd`'s report on its `--example` batch, cold and warm, gives back
//! the text.

use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use hls_cluster::{ClusterConfig, ClusterNode, Frame};
use hls_ir::Json;
use hls_serve::{batch_to_json, ArtifactStore, ServiceConfig, StoreConfig, SynthesisRequest};
use qam_decoder::{table1_architectures, table1_library, QAM_DECODER_SOURCE};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hls-codec-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn assert_round_trips(text: &str, what: &str) {
    let again = Json::parse(text)
        .unwrap_or_else(|e| panic!("{what} does not parse: {e}"))
        .write();
    assert!(again == text, "{what} does not round-trip");
}

#[test]
fn a_served_decoder_reply_round_trips() {
    let dir = scratch("reply");
    let store = ArtifactStore::open(&dir, StoreConfig::default()).unwrap();
    let node = ClusterNode::new(ClusterConfig::single(ServiceConfig::default()), store).unwrap();
    let merged = table1_architectures().remove(0);
    let request = SynthesisRequest {
        design: merged.name.to_string(),
        source: QAM_DECODER_SOURCE.to_string(),
        directives: merged.directives,
        library: table1_library(),
        verify: true,
    };
    let frame = || Frame::Batch {
        requests: batch_to_json(std::slice::from_ref(&request)),
    };
    let cold = node.reply_line(frame());
    let warm = node.reply_line(frame());
    assert!(warm.contains("\"cache_hit\":true"), "the second call hits");
    assert!(warm.len() > 20_000, "a decoder reply carries its Verilog");
    assert_round_trips(cold.trim_end(), "the cold reply");
    assert_round_trips(warm.trim_end(), "the warm reply");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn the_synthd_example_report_round_trips() {
    let synthd = env!("CARGO_BIN_EXE_synthd");
    let example = Command::new(synthd)
        .arg("--example")
        .output()
        .expect("synthd runs");
    assert!(example.status.success());
    let dir = scratch("example");
    let serve = || {
        let mut child = Command::new(synthd)
            .arg("--store")
            .arg(&dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("synthd spawns");
        child
            .stdin
            .take()
            .expect("stdin is piped")
            .write_all(&example.stdout)
            .expect("the batch is written");
        let out = child.wait_with_output().expect("synthd finishes");
        assert!(out.status.success());
        String::from_utf8(out.stdout).expect("the report is UTF-8")
    };
    let cold = serve();
    let warm = serve();
    assert!(warm.contains("\"cache_hit\":true"), "the second run hits");
    assert_round_trips(cold.trim_end(), "the cold report");
    assert_round_trips(warm.trim_end(), "the warm report");
    let _ = fs::remove_dir_all(&dir);
}
