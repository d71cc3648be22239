//! The cluster wire protocol: versioned NDJSON frames.
//!
//! Every message is one JSON object on one line, carrying a `proto`
//! version tag and an `op`. The framing is deliberately the same as
//! `synthd`'s NDJSON daemon mode — one line in, one line out — so the
//! cluster speaks over anything that looks like a byte stream: Unix
//! sockets, TCP, or a pipe in a test. A line *without* a `proto` field
//! is not a cluster frame; servers treat it as a legacy plain batch
//! (the pre-cluster `synthd --socket` protocol) so old clients keep
//! working against new shards.
//!
//! Request frames:
//!
//! | op      | fields                    | meaning                              |
//! |---------|---------------------------|--------------------------------------|
//! | `batch` | `requests: [...]`         | client entry point; the shard routes |
//! | `synth` | `requests: [...]`         | owner-side sub-batch; never re-forwarded |
//! | `get`   | `digest`                  | raw entry fetch (positive, then negative) |
//! | `put`   | `entries: [{digest, kind, entry}]` | replicate raw entries in   |
//! | `ping`  |                           | liveness probe                       |
//! | `stats` |                           | store census + node counters         |
//!
//! Reply frames: `report` (per-request outcomes + counters + routing),
//! `entry`, `stored`, `pong`, `error`. A version mismatch is answered
//! with an `error` frame naming both versions — never silence.

use std::io::{self, BufRead, Write};

use hls_ir::Json;
use hls_serve::EntryKind;

/// The protocol version tag carried by every frame. Bump on any change
/// to frame layout; mismatched peers refuse each other loudly.
pub const PROTO: &str = "hls-cluster/v1";

/// One raw store entry in flight between shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutEntry {
    /// The entry's content digest (its identity in every store).
    pub digest: String,
    /// Which side of the store it belongs to.
    pub kind: EntryKind,
    /// The exact on-disk document text; the receiver re-verifies the
    /// full integrity chain before admitting it.
    pub entry: String,
}

/// A named frame field.
type Field = (&'static str, Json);

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client entry point: a batch of synthesis requests to route.
    Batch {
        /// The batch, in [`hls_serve::parse_batch`]'s schema.
        requests: Json,
    },
    /// A forwarded sub-batch for this shard to serve as owner. Never
    /// re-forwarded — this is what makes routing loop-free.
    Synth {
        /// The sub-batch, same schema as `Batch`.
        requests: Json,
    },
    /// Fetch the raw entry for a digest (positive first, then negative).
    Get {
        /// The content digest to look up.
        digest: String,
    },
    /// Replicate raw entries into this shard's store.
    Put {
        /// The entries to admit (each re-verified on arrival).
        entries: Vec<PutEntry>,
    },
    /// Liveness probe.
    Ping,
    /// Store census + node counters.
    Stats,
    /// Reply: a routed batch report (outcomes, counters, routing).
    Report(
        /// The report document.
        Json,
    ),
    /// Reply to `Get`.
    Entry {
        /// Which side of the store the entry came from, with its raw
        /// text; `None` when the digest is unknown here.
        found: Option<(EntryKind, String)>,
    },
    /// Reply to `Put`: how many entries were admitted.
    Stored {
        /// Entries that passed integrity and landed (or already existed).
        stored: u64,
    },
    /// Reply to `Ping`.
    Pong {
        /// The replying shard's index in the member list.
        shard: u64,
    },
    /// Any failure the peer wants the caller to see.
    Error {
        /// Human-readable description.
        message: String,
    },
}

impl Frame {
    /// The frame's `op` tag on the wire.
    pub fn op(&self) -> &'static str {
        match self {
            Frame::Batch { .. } => "batch",
            Frame::Synth { .. } => "synth",
            Frame::Get { .. } => "get",
            Frame::Put { .. } => "put",
            Frame::Ping => "ping",
            Frame::Stats => "stats",
            Frame::Report(_) => "report",
            Frame::Entry { .. } => "entry",
            Frame::Stored { .. } => "stored",
            Frame::Pong { .. } => "pong",
            Frame::Error { .. } => "error",
        }
    }

    /// Serializes the frame as a single JSON object.
    pub fn to_json(&self) -> Json {
        let (mut fields, payload) = self.fields();
        fields.extend(payload.map(|(key, v)| (key, v.clone())));
        Json::obj(fields)
    }

    /// The frame's fields in wire order, except that its payload document
    /// (a batch's `requests`, a report), which is always the last field,
    /// comes apart and borrowed so that writing a frame never copies it.
    fn fields(&self) -> (Vec<Field>, Option<(&'static str, &Json)>) {
        let mut fields = head(self.op());
        match self {
            Frame::Batch { requests } | Frame::Synth { requests } => {
                return (fields, Some(("requests", requests)));
            }
            Frame::Report(v) => return (fields, Some(("report", v))),
            Frame::Get { digest } => fields.push(("digest", Json::str(digest.clone()))),
            Frame::Put { entries } => fields.push((
                "entries",
                Json::Arr(
                    entries
                        .iter()
                        .map(|e| {
                            Json::obj(vec![
                                ("digest", Json::str(e.digest.clone())),
                                ("kind", Json::str(e.kind.name())),
                                ("entry", Json::str(e.entry.clone())),
                            ])
                        })
                        .collect(),
                ),
            )),
            Frame::Ping | Frame::Stats => {}
            Frame::Entry { found } => match found {
                Some((kind, entry)) => {
                    fields.push(("found", Json::Bool(true)));
                    fields.push(("kind", Json::str(kind.name())));
                    fields.push(("entry", Json::str(entry.clone())));
                }
                None => fields.push(("found", Json::Bool(false))),
            },
            Frame::Stored { stored } => fields.push(("stored", Json::count(*stored))),
            Frame::Pong { shard } => fields.push(("shard", Json::count(*shard))),
            Frame::Error { message } => fields.push(("error", Json::str(message.clone()))),
        }
        (fields, None)
    }

    /// Parses a frame, checking the protocol version.
    pub fn from_json(v: &Json) -> Result<Frame, String> {
        Frame::from_owned(v.clone())
    }

    /// [`Frame::from_json`] on an owned document: the payload moves into
    /// the frame instead of being copied.
    fn from_owned(mut v: Json) -> Result<Frame, String> {
        let payload = match (payload_key(&v), &mut v) {
            (Some(key), Json::Obj(pairs)) => pairs
                .iter()
                .position(|(k, _)| k == key)
                .map(|i| pairs.remove(i).1),
            _ => None,
        };
        let proto = v
            .get("proto")
            .and_then(Json::as_str)
            .ok_or("frame: missing proto tag")?;
        if proto != PROTO {
            return Err(format!(
                "frame: protocol version mismatch (peer speaks `{proto}`, this shard `{PROTO}`)"
            ));
        }
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("frame: missing op")?;
        let requests =
            |payload: Option<Json>| payload.ok_or_else(|| format!("frame: `{op}` needs requests"));
        match op {
            "batch" => Ok(Frame::Batch {
                requests: requests(payload)?,
            }),
            "synth" => Ok(Frame::Synth {
                requests: requests(payload)?,
            }),
            "get" => Ok(Frame::Get {
                digest: v
                    .get("digest")
                    .and_then(Json::as_str)
                    .ok_or("frame: `get` needs digest")?
                    .to_string(),
            }),
            "put" => {
                let entries = v
                    .get("entries")
                    .and_then(Json::as_arr)
                    .ok_or("frame: `put` needs entries")?;
                entries
                    .iter()
                    .map(|e| {
                        Ok(PutEntry {
                            digest: e
                                .get("digest")
                                .and_then(Json::as_str)
                                .ok_or("frame: put entry needs digest")?
                                .to_string(),
                            kind: e
                                .get("kind")
                                .and_then(Json::as_str)
                                .and_then(EntryKind::by_name)
                                .ok_or("frame: put entry needs a valid kind")?,
                            entry: e
                                .get("entry")
                                .and_then(Json::as_str)
                                .ok_or("frame: put entry needs entry text")?
                                .to_string(),
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()
                    .map(|entries| Frame::Put { entries })
            }
            "ping" => Ok(Frame::Ping),
            "stats" => Ok(Frame::Stats),
            "report" => Ok(Frame::Report(payload.unwrap_or(Json::Null))),
            "entry" => {
                let found = v.get("found").and_then(Json::as_bool).unwrap_or(false);
                if !found {
                    return Ok(Frame::Entry { found: None });
                }
                let kind = v
                    .get("kind")
                    .and_then(Json::as_str)
                    .and_then(EntryKind::by_name)
                    .ok_or("frame: entry reply needs a valid kind")?;
                let entry = v
                    .get("entry")
                    .and_then(Json::as_str)
                    .ok_or("frame: entry reply needs entry text")?
                    .to_string();
                Ok(Frame::Entry {
                    found: Some((kind, entry)),
                })
            }
            "stored" => Ok(Frame::Stored {
                stored: v.get("stored").and_then(Json::as_u64).unwrap_or(0),
            }),
            "pong" => Ok(Frame::Pong {
                shard: v.get("shard").and_then(Json::as_u64).unwrap_or(0),
            }),
            "error" => Ok(Frame::Error {
                message: v
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unspecified peer error")
                    .to_string(),
            }),
            other => Err(format!("frame: unknown op `{other}`")),
        }
    }

    /// Writes the frame as one NDJSON line.
    pub fn write_line(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(self.line().as_bytes())?;
        w.flush()
    }

    /// The frame's NDJSON line, newline included.
    pub fn line(&self) -> String {
        let (fields, payload) = self.fields();
        match payload {
            Some((key, v)) => payload_line(fields, key, |line| v.write_into(line)),
            None => Json::obj(fields).write() + "\n",
        }
    }
}

/// The line of a `report` frame whose report is already written as text:
/// the bytes `Frame::Report(Json::parse(report)).line()` returns for a
/// report in the compact encoding.
pub(crate) fn report_line(report: &str) -> String {
    payload_line(head("report"), "report", |line| line.push_str(report))
}

/// The fields every frame opens with.
fn head(op: &str) -> Vec<Field> {
    vec![("proto", Json::str(PROTO)), ("op", Json::str(op))]
}

/// A frame line from its head fields and its payload, which is always
/// the last field.
fn payload_line(head: Vec<Field>, key: &str, payload: impl FnOnce(&mut String)) -> String {
    let mut line = Json::obj(head).write();
    line.pop(); // the closing brace
    line.push_str(&format!(",\"{key}\":"));
    payload(&mut line);
    line.push_str("}\n");
    line
}

/// The field that carries the payload document of a frame with this op.
fn payload_key(v: &Json) -> Option<&'static str> {
    match v.get("op").and_then(Json::as_str)? {
        "batch" | "synth" => Some("requests"),
        "report" => Some("report"),
        _ => None,
    }
}

/// One line read off a connection, classified.
#[derive(Debug, Clone, PartialEq)]
pub enum Incoming {
    /// A well-formed cluster frame.
    Frame(Frame),
    /// Valid JSON without a `proto` tag: the legacy plain-batch
    /// protocol (the raw line, for `hls_serve::parse_batch`).
    Legacy(String),
    /// Unparseable JSON or a bad frame (version mismatch, unknown op);
    /// the server answers with an `error` frame carrying this message.
    Malformed(String),
}

/// Reads one NDJSON line and classifies it. `Ok(None)` is a clean EOF;
/// blank lines are skipped.
pub fn read_frame(r: &mut impl BufRead) -> io::Result<Option<Incoming>> {
    let mut line = String::new();
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        if !line.trim().is_empty() {
            break;
        }
    }
    let classified = match Json::parse(&line) {
        Ok(v) if v.get("proto").is_none() => Incoming::Legacy(line.trim().to_string()),
        Ok(v) => match Frame::from_owned(v) {
            Ok(f) => Incoming::Frame(f),
            Err(e) => Incoming::Malformed(e),
        },
        Err(e) => Incoming::Malformed(format!("line is not valid JSON: {e}")),
    };
    Ok(Some(classified))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let frames = vec![
            Frame::Batch {
                requests: Json::Arr(vec![Json::obj(vec![("source", Json::str("void f() {}"))])]),
            },
            Frame::Synth {
                requests: Json::Arr(Vec::new()),
            },
            Frame::Get {
                digest: "ab".repeat(16),
            },
            Frame::Put {
                entries: vec![PutEntry {
                    digest: "cd".repeat(16),
                    kind: EntryKind::Negative,
                    entry: "{\"schema\":\"x\"}".into(),
                }],
            },
            Frame::Ping,
            Frame::Stats,
            Frame::Report(Json::obj(vec![("outcomes", Json::Arr(Vec::new()))])),
            Frame::Entry {
                found: Some((EntryKind::Positive, "{}".into())),
            },
            Frame::Entry { found: None },
            Frame::Stored { stored: 3 },
            Frame::Pong { shard: 2 },
            Frame::Error {
                message: "nope".into(),
            },
        ];
        for f in frames {
            let back = Frame::from_json(&f.to_json()).unwrap();
            assert_eq!(back, f);
        }
    }

    #[test]
    fn written_lines_are_the_json_encoding() {
        let frames = [
            Frame::Batch {
                requests: Json::Arr(vec![Json::obj(vec![("source", Json::str("void f() {}"))])]),
            },
            Frame::Synth {
                requests: Json::Arr(Vec::new()),
            },
            Frame::Report(Json::obj(vec![("outcomes", Json::Arr(Vec::new()))])),
            Frame::Stored { stored: 3 },
        ];
        for f in frames {
            let mut buf = Vec::new();
            f.write_line(&mut buf).unwrap();
            assert_eq!(
                String::from_utf8(buf.clone()).unwrap(),
                f.to_json().write() + "\n"
            );
            let back = read_frame(&mut std::io::Cursor::new(buf)).unwrap().unwrap();
            assert_eq!(back, Incoming::Frame(f));
        }
    }

    #[test]
    fn version_mismatch_is_loud() {
        let v = Json::obj(vec![
            ("proto", Json::str("hls-cluster/v0")),
            ("op", Json::str("ping")),
        ]);
        let err = Frame::from_json(&v).unwrap_err();
        assert!(err.contains("version mismatch"), "{err}");
        assert!(err.contains("hls-cluster/v0"), "{err}");
    }

    #[test]
    fn legacy_lines_fall_through() {
        let mut input = std::io::Cursor::new(b"{\"requests\": []}\n".to_vec());
        let got = read_frame(&mut input).unwrap().unwrap();
        assert_eq!(got, Incoming::Legacy("{\"requests\": []}".to_string()));
        // EOF after the single line.
        assert!(read_frame(&mut input).unwrap().is_none());
    }

    #[test]
    fn mismatched_and_malformed_lines_are_classified() {
        let mut input = std::io::Cursor::new(
            b"{\"proto\":\"hls-cluster/v0\",\"op\":\"ping\"}\nnot json\n".to_vec(),
        );
        let Some(Incoming::Malformed(e)) = read_frame(&mut input).unwrap() else {
            panic!("version mismatch must classify as malformed");
        };
        assert!(e.contains("version mismatch"), "{e}");
        let Some(Incoming::Malformed(e)) = read_frame(&mut input).unwrap() else {
            panic!("junk must classify as malformed");
        };
        assert!(e.contains("not valid JSON"), "{e}");
    }

    #[test]
    fn frame_lines_round_trip_through_a_stream() {
        let mut buf = Vec::new();
        Frame::Pong { shard: 1 }.write_line(&mut buf).unwrap();
        Frame::Ping.write_line(&mut buf).unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r).unwrap().unwrap(),
            Incoming::Frame(Frame::Pong { shard: 1 })
        );
        assert_eq!(
            read_frame(&mut r).unwrap().unwrap(),
            Incoming::Frame(Frame::Ping)
        );
        assert!(read_frame(&mut r).unwrap().is_none());
    }
}
