//! # hls-serve
//!
//! The flow's serving layer: synthesis as a cached, concurrent service.
//!
//! Synthesis is deterministic — the same IR, directives and technology
//! library always produce the same Verilog, metrics and verdicts — so
//! re-running the back end for a request that has been answered before
//! is pure waste. This crate closes that loop:
//!
//! - [`digest`] canonicalizes a request into a content address: a
//!   stable digest over the parsed IR's display form, the canonical
//!   directive JSON, the exact clock bits, the library fingerprint and
//!   the verify flag.
//! - [`store`] is the content-addressed on-disk artifact store: atomic
//!   (temp + rename) writes, advisory locks, digest re-verification on
//!   every load with quarantine for corrupt entries, and deterministic
//!   size-bounded LRU eviction.
//! - [`request`] defines the JSON wire schema for request batches.
//! - [`service`] is the batch engine: in-flight dedup, store lookups
//!   before any admission work, then a scoped-thread worker pool with
//!   cost-ordered scheduling and admission control for misses, driven
//!   by a per-batch cost model over the explorer's admissible bounds,
//!   and per-stage observability.
//!
//! The `synthd` binary wraps it all as a one-shot filter, an NDJSON
//! daemon, or (on Unix) a socket server.
//!
//! # Example
//!
//! ```
//! use hls_serve::{parse_batch, serve_batch, ArtifactStore, ServiceConfig, StoreConfig};
//!
//! let dir = std::env::temp_dir().join(format!("hls-serve-doc-{}", std::process::id()));
//! let store = ArtifactStore::open(&dir, StoreConfig::default())?;
//! let batch = r#"{"requests": [{
//!     "source": "void twice(sc_fixed<8,4> x, sc_fixed<10,6> *y) { *y = x + x; }",
//!     "verify": true
//! }]}"#;
//! let requests = parse_batch(batch).expect("parses");
//!
//! let cold = serve_batch(&requests, &store, &ServiceConfig::default());
//! assert!(cold.outcomes[0].artifact.as_ref().unwrap().verdict.as_ref().unwrap().passed);
//!
//! let warm = serve_batch(&requests, &store, &ServiceConfig::default());
//! assert!(warm.outcomes[0].cache_hit);
//! assert_eq!(
//!     warm.outcomes[0].artifact.as_ref().unwrap().verilog,
//!     cold.outcomes[0].artifact.as_ref().unwrap().verilog,
//! );
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod negative;
pub mod request;
pub mod service;
pub mod store;

pub use digest::{request_key, request_key_for_text, RequestKey, REQUEST_SCHEMA};
pub use negative::{NegativeEntry, NEGATIVE_SCHEMA};
pub use request::{
    batch_from_json, batch_to_json, parse_batch, prepare_batch, Prepared, SynthesisRequest,
};
pub use service::{
    serve_batch, serve_encoded, serve_prepared, BatchReport, CountersSnapshot, EncodedBatch,
    EncodedOutcome, HistogramSnapshot, ReportText, RequestOutcome, ServiceConfig,
};
pub use store::{
    ArtifactStore, CachedArtifact, EncodedArtifact, EntryKind, StoreConfig, StoreStats, Verdict,
    ENTRY_SCHEMA, STALE_LOCK,
};
