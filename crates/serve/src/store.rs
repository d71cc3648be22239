//! The content-addressed artifact store.
//!
//! On-disk layout under the store root:
//!
//! ```text
//! root/
//!   objects/<2-hex-prefix>/<digest>.json    one entry per request digest
//!   negative/<2-hex-prefix>/<digest>.json   cached synthesis failures
//!   tmp/                                    staging for atomic writes
//!   quarantine/                             entries that failed integrity
//!   locks/                                  advisory writer/evictor locks
//! ```
//!
//! Every entry is a single JSON document carrying the canonical request
//! preimage, a body and a digest of the body, in that order. Positive
//! entries (under `objects/`) carry an [`EncodedArtifact`]: the artifact's
//! reply fragment (Verilog, metrics, verify verdict, diagnostics, pass
//! trace — the keys a reply carries, in reply order) followed by its
//! `design` label, so a hit is served by splicing the stored bytes into
//! the reply. Negative entries (under `negative/`) carry a
//! [`NegativeEntry`] — the structured failure of a deterministic
//! pipeline error, so retries of a bad request cost a store read instead
//! of a pipeline re-run. Loads re-verify both digests from the entry's
//! head alone — the filename against the preimage and the body digest
//! against the body's exact byte range — and move anything inconsistent
//! to `quarantine/`, reporting a miss so the caller simply
//! re-synthesizes. A hit also requires the stored preimage to equal the
//! request's byte for byte, so a digest collision reads as a miss (and
//! leaves the entry, valid for its own request, in place). Writes stage
//! into `tmp/` and `rename(2)` into place, so readers never observe a
//! torn entry and concurrent writers of the same digest are harmless
//! (they produce identical bytes). Advisory locks in `locks/` keep
//! concurrent writers and the evictor from duplicating work; a lock
//! older than [`STALE_LOCK`] is presumed abandoned and stolen. Opening
//! a store sweeps `tmp/` of staging files older than [`STALE_LOCK`] —
//! the residue of a writer that died between write and rename.
//!
//! Entries also move *between* stores: [`ArtifactStore::read_raw`]
//! returns the exact on-disk document and
//! [`ArtifactStore::insert_raw`] re-verifies the full integrity chain
//! (schema, preimage→digest, body digest) before admitting foreign
//! bytes, and requires the body to be exactly what this store's encoder
//! writes for the value it decodes to. Hits never decode a body, so this
//! admission check, and local inserts publishing only what the encoder
//! produced, are what keep every served body canonical. Replication in
//! `hls-cluster` is built on this pair, which is what makes replicated
//! reads byte-identical to the owner's.
//!
//! Reads refresh the entry's modification time, so eviction — which
//! removes entries in `(mtime, digest)` order until the store fits
//! [`StoreConfig::max_bytes`] — approximates least-recently-used and is
//! deterministic given the timestamps. Negative entries share the same
//! budget and eviction order.
//!
//! Each handle keeps an in-memory index of the entries: `(mtime, size)`
//! per digest and side, the `(mtime, digest)` eviction order, and
//! running entry and byte totals per side. [`ArtifactStore::open`] builds
//! it with the only directory walk the store makes; afterwards inserts,
//! LRU touches, quarantines and evictions keep it current (the mtime of
//! a new entry comes from one `stat` of the renamed file, a touch records
//! the exact time it set). So the budget check after every insert is a
//! comparison of the running total, and [`ArtifactStore::stats`] is O(1).
//!
//! The census therefore counts what *this handle* has seen. A second
//! handle on the same root (another process, say) is reconciled lazily:
//! an entry it wrote is adopted, with its size, when this handle finds
//! it on disk (a lookup hit, or losing an insert race to it), and an
//! entry it removed is dropped when this handle finds it gone (a lookup
//! miss, an insert, or an eviction that finds nothing to remove).
//! Reopening the root re-walks the directory and agrees with the disk.

use std::collections::{BTreeSet, HashMap};
use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, SystemTime};

use hls_core::DesignMetrics;
use hls_ir::{stable_digest, Json};

use crate::digest::RequestKey;
use crate::negative::{NegativeEntry, NEGATIVE_SCHEMA};

/// Schema tag of one positive store entry (bump on layout changes). v3:
/// the entry's digests moved to MurmurHash3 with
/// [`REQUEST_SCHEMA`](crate::REQUEST_SCHEMA) v4.
pub const ENTRY_SCHEMA: &str = "hls-serve-artifact/v3";

/// Age past which a writer/evictor lock is presumed abandoned.
pub const STALE_LOCK: Duration = Duration::from_secs(30);

/// Which side of the store an entry lives on. Ordered positive first,
/// which breaks `(mtime, digest)` ties in the eviction order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EntryKind {
    /// A synthesized artifact under `objects/`.
    Positive,
    /// A cached deterministic failure under `negative/`.
    Negative,
}

impl EntryKind {
    fn dir(self) -> &'static str {
        match self {
            EntryKind::Positive => "objects",
            EntryKind::Negative => "negative",
        }
    }

    fn schema(self) -> &'static str {
        match self {
            EntryKind::Positive => ENTRY_SCHEMA,
            EntryKind::Negative => NEGATIVE_SCHEMA,
        }
    }

    /// The kind's wire name (used by the cluster protocol).
    pub fn name(self) -> &'static str {
        match self {
            EntryKind::Positive => "positive",
            EntryKind::Negative => "negative",
        }
    }

    /// Parses a wire name back into a kind.
    pub fn by_name(name: &str) -> Option<EntryKind> {
        match name {
            "positive" => Some(EntryKind::Positive),
            "negative" => Some(EntryKind::Negative),
            _ => None,
        }
    }
}

/// Store tuning.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Eviction threshold: total size of `objects/` plus `negative/`
    /// the store trims down to after every insert. The default is
    /// generous (256 MiB).
    pub max_bytes: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            max_bytes: 256 * 1024 * 1024,
        }
    }
}

/// A verification verdict carried by a cached artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Whether the equivalence check passed.
    pub passed: bool,
    /// Human-readable summary of the finding.
    pub detail: String,
}

/// One artifact as stored and served: everything the pipeline produced
/// for a request, minus the request itself (the digest identifies it).
#[derive(Debug, Clone)]
pub struct CachedArtifact {
    /// Design (module) name.
    pub design: String,
    /// The emitted Verilog source, byte-exact.
    pub verilog: String,
    /// Headline synthesis metrics.
    pub metrics: DesignMetrics,
    /// The full per-pass trace, as structured JSON.
    pub trace: Json,
    /// Equivalence-check verdict, when the request asked for one.
    pub verdict: Option<Verdict>,
    /// Pipeline diagnostics (including the Verilog emitter's lints).
    pub diagnostics: Json,
}

impl CachedArtifact {
    /// The artifact's reply fields, in reply order. This is the one
    /// artifact encoding: [`EncodedArtifact::encode`] stores exactly these
    /// and [`RequestOutcome::to_json`](crate::RequestOutcome::to_json)
    /// emits exactly these.
    pub(crate) fn reply_fields(&self) -> Vec<(&'static str, Json)> {
        let verdict = match &self.verdict {
            None => Json::Null,
            Some(v) => Json::obj(vec![
                ("passed", Json::Bool(v.passed)),
                ("detail", Json::str(v.detail.clone())),
            ]),
        };
        vec![
            ("verilog", Json::str(self.verilog.clone())),
            ("metrics", self.metrics.to_json()),
            ("verdict", verdict),
            ("diagnostics", self.diagnostics.clone()),
            ("trace", self.trace.clone()),
        ]
    }

    fn from_json(v: &Json) -> Result<CachedArtifact, String> {
        let verdict = match v.get("verdict") {
            None | Some(Json::Null) => None,
            Some(w) => Some(Verdict {
                passed: w
                    .get("passed")
                    .and_then(Json::as_bool)
                    .ok_or("entry: verdict missing passed")?,
                detail: w
                    .get("detail")
                    .and_then(Json::as_str)
                    .ok_or("entry: verdict missing detail")?
                    .to_string(),
            }),
        };
        Ok(CachedArtifact {
            design: v
                .get("design")
                .and_then(Json::as_str)
                .ok_or("entry: missing design")?
                .to_string(),
            verilog: v
                .get("verilog")
                .and_then(Json::as_str)
                .ok_or("entry: missing verilog")?
                .to_string(),
            metrics: DesignMetrics::from_json(v.get("metrics").ok_or("entry: missing metrics")?)?,
            trace: v.get("trace").cloned().unwrap_or(Json::Null),
            verdict,
            diagnostics: v
                .get("diagnostics")
                .cloned()
                .unwrap_or(Json::Arr(Vec::new())),
        })
    }
}

/// Where the `design` field starts in an encoded artifact: it is the
/// body's last field, after the reply fragment.
const DESIGN_FIELD: &str = ",\"design\":";

/// One artifact as the store holds and serves it: the body of a positive
/// entry, `{"verilog":…,"metrics":…,"verdict":…,"diagnostics":…,
/// "trace":…,"design":…}`. Everything before `design` is the reply
/// fragment a hit splices into its reply; `design` is the artifact's own
/// label, which a reply never carries (an outcome's `design` is the
/// request's label).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedArtifact {
    body: String,
    /// Byte offset of [`DESIGN_FIELD`] in `body`.
    design_at: usize,
}

impl EncodedArtifact {
    /// Encodes an artifact: the one encoder of artifact bytes.
    pub fn encode(artifact: &CachedArtifact) -> EncodedArtifact {
        let mut body = Json::obj(artifact.reply_fields()).write();
        body.pop(); // the closing brace
        let design_at = body.len();
        body.push_str(DESIGN_FIELD);
        Json::str(artifact.design.clone()).write_into(&mut body);
        body.push('}');
        EncodedArtifact { body, design_at }
    }

    /// Wraps a verified entry body; a body that is not an object with a
    /// `design` field is refused. The field is found from the end: the
    /// body is canonical (local inserts encode it, admission checks it),
    /// and the marker's quotes cannot occur unescaped inside the string
    /// value that follows it.
    fn from_body(body: String) -> Option<EncodedArtifact> {
        if !body.starts_with('{') || !body.ends_with('}') {
            return None;
        }
        let design_at = body.rfind(DESIGN_FIELD)?;
        Some(EncodedArtifact { body, design_at })
    }

    /// The whole body, as stored and digested.
    pub fn as_str(&self) -> &str {
        &self.body
    }

    /// The reply fragment: the artifact's reply fields as object members,
    /// without braces, byte-identical to what
    /// [`RequestOutcome::to_json`](crate::RequestOutcome::to_json) writes
    /// for them.
    pub(crate) fn reply_fields(&self) -> &str {
        &self.body[1..self.design_at]
    }

    /// Decodes the body, for in-process callers.
    pub fn decode(&self) -> Result<CachedArtifact, String> {
        let v = Json::parse(&self.body).map_err(|e| format!("entry: {e}"))?;
        CachedArtifact::from_json(&v)
    }
}

/// Monotonic counters exposed by [`ArtifactStore::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Positive entries currently on disk.
    pub entries: u64,
    /// Total bytes under `objects/`.
    pub bytes: u64,
    /// Negative (failure) entries currently on disk.
    pub neg_entries: u64,
    /// Total bytes under `negative/`.
    pub neg_bytes: u64,
    /// Lookups that returned a verified entry.
    pub hits: u64,
    /// Lookups that found nothing servable.
    pub misses: u64,
    /// Negative lookups that returned a cached failure.
    pub neg_hits: u64,
    /// Entries written by this handle.
    pub inserts: u64,
    /// Negative entries written by this handle.
    pub neg_inserts: u64,
    /// Entries removed by LRU eviction.
    pub evictions: u64,
    /// Entries moved to `quarantine/` after failing integrity.
    pub quarantined: u64,
}

/// What one handle knows of the entries on disk (see the module docs).
/// Each update is made under the handle's lock together with the
/// filesystem call or `stat` it records, so concurrent hits, inserts and
/// evictions through one handle cannot leave it out of step with the disk.
#[derive(Debug, Default)]
struct Index {
    /// `digest → (mtime, size)`, one map per [`EntryKind`].
    sides: [HashMap<String, (SystemTime, u64)>; 2],
    /// Running byte total per side.
    bytes: [u64; 2],
    /// Every entry in eviction order.
    lru: BTreeSet<(SystemTime, String, EntryKind)>,
}

impl Index {
    /// Records (or re-records) one entry.
    fn put(&mut self, kind: EntryKind, digest: &str, mtime: SystemTime, size: u64) {
        self.remove(kind, digest);
        self.sides[kind as usize].insert(digest.to_string(), (mtime, size));
        self.bytes[kind as usize] += size;
        self.lru.insert((mtime, digest.to_string(), kind));
    }

    /// Forgets one entry, if indexed.
    fn remove(&mut self, kind: EntryKind, digest: &str) {
        if let Some((mtime, size)) = self.sides[kind as usize].remove(digest) {
            self.bytes[kind as usize] -= size;
            self.lru.remove(&(mtime, digest.to_string(), kind));
        }
    }

    fn total_bytes(&self) -> u64 {
        self.bytes[0] + self.bytes[1]
    }

    /// Removes and returns the least recently used entry.
    fn pop_oldest(&mut self) -> Option<(SystemTime, String, EntryKind, u64)> {
        let (mtime, digest, kind) = self.lru.pop_first()?;
        let (_, size) = self.sides[kind as usize].remove(&digest)?;
        self.bytes[kind as usize] -= size;
        Some((mtime, digest, kind, size))
    }
}

impl StoreStats {
    /// Serializes the counters for service reports.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("entries", Json::count(self.entries)),
            ("bytes", Json::count(self.bytes)),
            ("neg_entries", Json::count(self.neg_entries)),
            ("neg_bytes", Json::count(self.neg_bytes)),
            ("hits", Json::count(self.hits)),
            ("misses", Json::count(self.misses)),
            ("neg_hits", Json::count(self.neg_hits)),
            ("inserts", Json::count(self.inserts)),
            ("neg_inserts", Json::count(self.neg_inserts)),
            ("evictions", Json::count(self.evictions)),
            ("quarantined", Json::count(self.quarantined)),
        ])
    }
}

/// A handle on one on-disk store. Opening walks the store once to build
/// the index; safe to share across threads and processes (all mutation
/// is atomic-rename or lock-guarded).
#[derive(Debug)]
pub struct ArtifactStore {
    root: PathBuf,
    max_bytes: u64,
    index: Mutex<Index>,
    hits: AtomicU64,
    misses: AtomicU64,
    neg_hits: AtomicU64,
    inserts: AtomicU64,
    neg_inserts: AtomicU64,
    evictions: AtomicU64,
    quarantined: AtomicU64,
}

impl ArtifactStore {
    /// Opens (creating if needed) the store rooted at `root`, sweeping
    /// staging files abandoned by a crashed writer (older than
    /// [`STALE_LOCK`]) out of `tmp/`, and indexes the entries on disk.
    pub fn open(root: &Path, config: StoreConfig) -> io::Result<ArtifactStore> {
        for sub in ["objects", "negative", "tmp", "quarantine", "locks"] {
            fs::create_dir_all(root.join(sub))?;
        }
        // A writer that died between `fs::write` and `fs::rename` leaves
        // its staging file behind forever (the rename never happened).
        // Entries are never served from tmp/, so this is purely space
        // hygiene — but a crash-looping writer would otherwise grow it
        // without bound. Young files may belong to a live writer; only
        // stale ones go.
        if let Ok(staged) = fs::read_dir(root.join("tmp")) {
            for file in staged.flatten() {
                let stale = file
                    .metadata()
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|t| t.elapsed().ok())
                    .is_some_and(|age| age > STALE_LOCK);
                if stale {
                    let _ = fs::remove_file(file.path());
                }
            }
        }
        let mut index = Index::default();
        for kind in [EntryKind::Positive, EntryKind::Negative] {
            walk(&root.join(kind.dir()), |digest, mtime, size| {
                index.put(kind, digest, mtime, size)
            });
        }
        Ok(ArtifactStore {
            root: root.to_path_buf(),
            max_bytes: config.max_bytes,
            index: Mutex::new(index),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            neg_hits: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            neg_inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn index(&self) -> MutexGuard<'_, Index> {
        self.index.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether the entry is on disk, reconciling the index with the
    /// `stat`: an entry found is (re-)recorded with its size and mtime,
    /// an entry gone is forgotten.
    fn present(&self, kind: EntryKind, digest: &str) -> bool {
        let mut index = self.index();
        match fs::metadata(self.entry_path(kind, digest)) {
            Ok(meta) => {
                index.put(kind, digest, mtime_of(&meta), meta.len());
                true
            }
            Err(_) => {
                index.remove(kind, digest);
                false
            }
        }
    }

    fn shard_dir(&self, kind: EntryKind, digest: &str) -> PathBuf {
        self.root
            .join(kind.dir())
            .join(digest.get(..2).unwrap_or("xx"))
    }

    fn entry_path(&self, kind: EntryKind, digest: &str) -> PathBuf {
        self.shard_dir(kind, digest).join(format!("{digest}.json"))
    }

    /// Looks an artifact up, verifying integrity, and decodes it. A hit
    /// refreshes the entry's modification time (the LRU signal). Corrupt
    /// entries are quarantined and reported as misses.
    pub fn lookup(&self, key: &RequestKey) -> Option<CachedArtifact> {
        self.lookup_with(key, |a| a.decode().ok())
    }

    /// [`ArtifactStore::lookup`] without the decode: a hit returns the
    /// entry's verified body bytes, ready to be spliced into a reply.
    pub fn lookup_encoded(&self, key: &RequestKey) -> Option<EncodedArtifact> {
        self.lookup_with(key, Some)
    }

    /// The one positive load path: load and verify the entry, then `read`
    /// the artifact out of its body. A body `read` refuses is corrupt.
    fn lookup_with<T>(
        &self,
        key: &RequestKey,
        read: impl FnOnce(EncodedArtifact) -> Option<T>,
    ) -> Option<T> {
        let body = self.load_checked(EntryKind::Positive, key)?;
        match EncodedArtifact::from_body(body).and_then(read) {
            Some(found) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(found)
            }
            None => {
                self.quarantine(EntryKind::Positive, &key.digest);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Looks up a cached failure for `key`. A hit means the identical
    /// request already failed the pipeline deterministically; the
    /// caller serves the stored diagnostics instead of re-running.
    pub fn lookup_negative(&self, key: &RequestKey) -> Option<NegativeEntry> {
        let body = self.load_checked(EntryKind::Negative, key)?;
        let entry = Json::parse(&body)
            .ok()
            .and_then(|v| NegativeEntry::from_json(&v).ok());
        match entry {
            Some(entry) => {
                self.neg_hits.fetch_add(1, Ordering::Relaxed);
                Some(entry)
            }
            None => {
                self.quarantine(EntryKind::Negative, &key.digest);
                None
            }
        }
    }

    /// Loads, integrity-checks and LRU-touches the entry for `key`,
    /// returning its verified body text. Corrupt documents are
    /// quarantined. An intact entry whose preimage is not `key`'s (a
    /// digest collision) is a miss and stays in place: it is valid for
    /// its own request. Positive misses count toward `misses`; negative
    /// probes are silent (every cold request probes the negative side).
    fn load_checked(&self, kind: EntryKind, key: &RequestKey) -> Option<String> {
        let digest = key.digest.as_str();
        let path = self.entry_path(kind, digest);
        let miss = || {
            if kind == EntryKind::Positive {
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
            None
        };
        let mut text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => {
                self.present(kind, digest);
                return miss();
            }
        };
        let Some((preimage, body)) = check_entry(&text, digest, kind.schema()) else {
            self.quarantine(kind, digest);
            return miss();
        };
        if preimage != key.preimage {
            return miss();
        }
        // LRU touch; failure to touch only ages the entry early.
        let now = SystemTime::now();
        let mut index = self.index();
        let touch = fs::File::options()
            .write(true)
            .open(&path)
            .and_then(|f| f.set_modified(now));
        if touch.is_ok() {
            index.put(kind, digest, now, text.len() as u64);
        } else {
            drop(index);
            self.present(kind, digest);
        }
        text.truncate(body.end);
        text.drain(..body.start);
        Some(text)
    }

    fn quarantine(&self, kind: EntryKind, digest: &str) {
        let path = self.entry_path(kind, digest);
        let name = match kind {
            EntryKind::Positive => format!("{digest}.json"),
            EntryKind::Negative => format!("{digest}.neg.json"),
        };
        let dest = self.root.join("quarantine").join(name);
        let mut index = self.index();
        index.remove(kind, digest);
        if fs::rename(&path, &dest).is_ok() {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
        } else {
            // Another handle got there first (or the file vanished);
            // either way the bad entry is out of the serving path.
            let _ = fs::remove_file(&path);
        }
    }

    /// Inserts an artifact under `key`, atomically, then trims the store
    /// to its size budget. Inserting an already-present digest is a
    /// no-op (content addressing makes the bytes identical).
    pub fn insert(&self, key: &RequestKey, artifact: &CachedArtifact) -> io::Result<()> {
        self.insert_encoded(key, &EncodedArtifact::encode(artifact))
    }

    /// [`ArtifactStore::insert`] of an artifact already encoded, so that
    /// the caller can serve the very bytes the store holds.
    pub(crate) fn insert_encoded(
        &self,
        key: &RequestKey,
        artifact: &EncodedArtifact,
    ) -> io::Result<()> {
        self.write_document(EntryKind::Positive, key, artifact.as_str())
    }

    /// Persists a deterministic synthesis failure under `key` so
    /// identical retries are served from disk.
    pub fn insert_negative(&self, key: &RequestKey, entry: &NegativeEntry) -> io::Result<()> {
        self.write_document(EntryKind::Negative, key, &entry.to_json().write())
    }

    fn write_document(&self, kind: EntryKind, key: &RequestKey, body: &str) -> io::Result<()> {
        if self.present(kind, &key.digest) {
            return Ok(());
        }
        let _guard = LockGuard::acquire(&self.root, &key.digest)?;
        if self.present(kind, &key.digest) {
            return Ok(()); // lost the race; the winner wrote our bytes
        }
        let head = Json::obj(vec![
            ("schema", Json::str(kind.schema())),
            ("preimage", Json::str(key.preimage.clone())),
            ("body_digest", Json::str(stable_digest(body.as_bytes()))),
        ])
        .write();
        // `body` is the entry's last field (see `check_entry`), so the
        // document is the head with the body text spliced in before its
        // closing brace — byte-identical to serializing the whole entry,
        // without serializing the body twice.
        let entry = format!("{}{BODY_FIELD}{body}}}", &head[..head.len() - 1]);
        self.publish(kind, &key.digest, &entry)
    }

    /// Writes a new entry, records it in the index and trims the store
    /// to its budget.
    fn publish(&self, kind: EntryKind, digest: &str, text: &str) -> io::Result<()> {
        self.stage_and_rename(kind, digest, text)?;
        self.present(kind, digest);
        self.count_insert(kind);
        self.enforce_budget()?;
        Ok(())
    }

    fn stage_and_rename(&self, kind: EntryKind, digest: &str, text: &str) -> io::Result<()> {
        fs::create_dir_all(self.shard_dir(kind, digest))?;
        let tmp = self.root.join("tmp").join(format!(
            "{digest}.{}.{}.tmp",
            kind.name(),
            std::process::id()
        ));
        fs::write(&tmp, text)?;
        fs::rename(&tmp, self.entry_path(kind, digest))
    }

    fn count_insert(&self, kind: EntryKind) {
        match kind {
            EntryKind::Positive => self.inserts.fetch_add(1, Ordering::Relaxed),
            EntryKind::Negative => self.neg_inserts.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Returns the exact on-disk document for `digest` (after an
    /// integrity check), or `None` when absent or corrupt. This is the
    /// replication read path: the raw bytes round-trip to a peer store
    /// unchanged, so a replica serves byte-identical artifacts.
    pub fn read_raw(&self, kind: EntryKind, digest: &str) -> Option<String> {
        let Ok(text) = fs::read_to_string(self.entry_path(kind, digest)) else {
            self.present(kind, digest);
            return None;
        };
        if check_entry(&text, digest, kind.schema()).is_none() {
            self.quarantine(kind, digest);
            return None;
        }
        self.present(kind, digest);
        Some(text)
    }

    /// Admits a raw entry document produced by another store handle
    /// (typically a cluster peer). The full integrity chain — schema
    /// tag, preimage against `digest`, body digest against the body's
    /// byte range — is re-verified, and the body must decode and
    /// re-encode to the same bytes, before the bytes land; other
    /// documents are refused with `Ok(false)`. Admitted entries are
    /// written with the same atomic staging as local inserts.
    pub fn insert_raw(&self, kind: EntryKind, digest: &str, text: &str) -> io::Result<bool> {
        let Some((_, body)) = check_entry(text, digest, kind.schema()) else {
            return Ok(false);
        };
        if !is_canonical(kind, &text[body]) {
            return Ok(false);
        }
        if self.present(kind, digest) {
            return Ok(true);
        }
        let _guard = LockGuard::acquire(&self.root, digest)?;
        if !self.present(kind, digest) {
            self.publish(kind, digest, text)?;
        }
        Ok(true)
    }

    /// Evicts least-recently-used entries (positive and negative share
    /// one budget and one `(mtime, digest)` order) until the store fits
    /// its size budget. Returns the evicted digests in eviction order.
    /// Runs under the store-wide eviction lock, so concurrent writers
    /// trim once.
    pub fn enforce_budget(&self) -> io::Result<Vec<String>> {
        if self.index().total_bytes() <= self.max_bytes {
            return Ok(Vec::new());
        }
        let _guard = LockGuard::acquire(&self.root, "evict")?;
        let mut index = self.index();
        let mut evicted = Vec::new();
        let mut stuck = Vec::new();
        while index.total_bytes() > self.max_bytes {
            let Some((mtime, digest, kind, size)) = index.pop_oldest() else {
                break;
            };
            match fs::remove_file(self.entry_path(kind, &digest)) {
                Ok(()) => {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    evicted.push(digest);
                }
                // Another handle removed it; forgetting it was all to do.
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(_) => stuck.push((kind, digest, mtime, size)),
            }
        }
        for (kind, digest, mtime, size) in stuck {
            index.put(kind, &digest, mtime, size);
        }
        Ok(evicted)
    }

    /// Current counters plus the census of the index: O(1), and exact
    /// for everything this handle has seen (see the module docs).
    pub fn stats(&self) -> StoreStats {
        let index = self.index();
        let [pos, neg] = &index.sides;
        StoreStats {
            entries: pos.len() as u64,
            bytes: index.bytes[EntryKind::Positive as usize],
            neg_entries: neg.len() as u64,
            neg_bytes: index.bytes[EntryKind::Negative as usize],
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            neg_hits: self.neg_hits.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            neg_inserts: self.neg_inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }
}

/// Calls `visit(digest, mtime, size)` for every entry file under one side
/// of the store (`<side>/<shard>/<digest>.json`).
fn walk(side: &Path, mut visit: impl FnMut(&str, SystemTime, u64)) {
    let Ok(shards) = fs::read_dir(side) else {
        return;
    };
    for shard in shards.flatten() {
        let Ok(files) = fs::read_dir(shard.path()) else {
            continue;
        };
        for file in files.flatten() {
            let path = file.path();
            let (Some(digest), Ok(meta)) =
                (path.file_stem().and_then(|s| s.to_str()), file.metadata())
            else {
                continue;
            };
            visit(digest, mtime_of(&meta), meta.len());
        }
    }
}

fn mtime_of(meta: &fs::Metadata) -> SystemTime {
    meta.modified().unwrap_or(SystemTime::UNIX_EPOCH)
}

/// Separates an entry's head from its body, which is always the last
/// field.
const BODY_FIELD: &str = ",\"body\":";

/// Integrity-checks one entry document from its head alone, returning its
/// preimage and the body's byte range. `None` means the entry must not be
/// served (quarantine it).
fn check_entry(text: &str, digest: &str, schema: &str) -> Option<(String, Range<usize>)> {
    // `body` is the entry's last field and the writer is deterministic,
    // so the body's digest can be checked against its exact byte range —
    // no parse of the body on the hot path. The marker cannot occur
    // earlier: inside JSON strings its quotes would be escaped.
    let head_end = text.find(BODY_FIELD)?;
    let body = head_end + BODY_FIELD.len()..text.len().checked_sub(1)?;
    if !text.ends_with('}') {
        return None;
    }
    let body_text = text.get(body.clone())?;
    let head = Json::parse(&format!("{}}}", &text[..head_end])).ok()?;
    if head.get("schema")?.as_str()? != schema {
        return None;
    }
    let preimage = head.get("preimage")?.as_str()?;
    if stable_digest(preimage.as_bytes()) != digest {
        return None; // filename does not match the preimage: corrupt or misplaced
    }
    if stable_digest(body_text.as_bytes()) != head.get("body_digest")?.as_str()? {
        return None; // body tampered or torn
    }
    Some((preimage.to_string(), body))
}

/// Whether `body` is exactly what this store's encoder writes for the
/// value it decodes to — the admission check for foreign documents.
fn is_canonical(kind: EntryKind, body: &str) -> bool {
    let Ok(v) = Json::parse(body) else {
        return false;
    };
    let again = match kind {
        EntryKind::Positive => {
            CachedArtifact::from_json(&v).map(|a| EncodedArtifact::encode(&a).body)
        }
        EntryKind::Negative => NegativeEntry::from_json(&v).map(|e| e.to_json().write()),
    };
    again.is_ok_and(|again| again == body)
}

/// An advisory lock file in `locks/`, deleted on drop. Acquisition spins
/// briefly; locks older than [`STALE_LOCK`] are presumed abandoned by a
/// crashed process and stolen.
struct LockGuard {
    path: PathBuf,
}

impl LockGuard {
    fn acquire(root: &Path, name: &str) -> io::Result<LockGuard> {
        let path = root.join("locks").join(format!("{name}.lock"));
        for attempt in 0..400u32 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(_) => return Ok(LockGuard { path }),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let stale = fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|t| t.elapsed().ok())
                        .is_some_and(|age| age > STALE_LOCK);
                    if stale || attempt == 399 {
                        let _ = fs::remove_file(&path);
                    } else {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
                Err(e) => return Err(e),
            }
        }
        // Fall through after stealing: one final attempt.
        fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
            .map(|_| LockGuard { path })
    }
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}
