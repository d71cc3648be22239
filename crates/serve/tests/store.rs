//! Artifact-store integrity under concurrency, corruption and pressure:
//! the ISSUE's acceptance gauntlet for the content-addressed store.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::thread;
use std::time::{Duration, SystemTime};

use hls_core::{synthesize, DesignMetrics, Directives, OptLevel, TechLibrary};
use hls_ir::{parse_function, stable_digest, Json};
use hls_serve::{
    ArtifactStore, CachedArtifact, EncodedArtifact, NegativeEntry, RequestKey, StoreConfig,
    Verdict, ENTRY_SCHEMA, STALE_LOCK,
};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hls-store-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A fabricated but well-formed key: digest always matches the preimage,
/// as the store requires.
fn key(tag: &str) -> RequestKey {
    let preimage = format!("store-test-preimage/{tag}");
    RequestKey {
        digest: stable_digest(preimage.as_bytes()),
        preimage,
    }
}

fn metrics() -> DesignMetrics {
    static ONCE: OnceLock<DesignMetrics> = OnceLock::new();
    ONCE.get_or_init(|| {
        let f = parse_function("void t(sc_fixed<8,4> x, sc_fixed<10,6> *y) { *y = x + x; }")
            .expect("parses");
        synthesize(&f, &Directives::new(10.0), &TechLibrary::asic_100mhz())
            .expect("synthesizes")
            .metrics
    })
    .clone()
}

fn artifact(tag: &str) -> CachedArtifact {
    CachedArtifact {
        design: tag.to_string(),
        verilog: format!("module {tag}();\nendmodule\n"),
        metrics: metrics(),
        trace: Json::Null,
        verdict: Some(Verdict {
            passed: true,
            detail: "proved".into(),
        }),
        diagnostics: Json::Arr(Vec::new()),
    }
}

/// A positive lookup that reports only whether it hit.
type Probe = fn(&ArtifactStore, &RequestKey) -> bool;

/// Both positive load paths: the decoding lookup and the byte lookup.
const LOOKUPS: [(&str, Probe); 2] = [
    ("lookup", |s, k| s.lookup(k).is_some()),
    ("lookup_encoded", |s, k| s.lookup_encoded(k).is_some()),
];

#[test]
fn eight_writers_eight_readers_stress() {
    let root = scratch("stress");
    let store = ArtifactStore::open(&root, StoreConfig::default()).unwrap();
    const WRITERS: usize = 8;
    const READERS: usize = 8;
    const PER_WRITER: usize = 24;
    let done = AtomicBool::new(false);

    thread::scope(|s| {
        for w in 0..WRITERS {
            let store = &store;
            s.spawn(move || {
                for i in 0..PER_WRITER {
                    // Writers collide on half the key space on purpose.
                    let tag = format!("{}-{i}", w % 2);
                    store.insert(&key(&tag), &artifact(&tag)).expect("insert");
                }
            });
        }
        for _ in 0..READERS {
            let store = &store;
            let done = &done;
            s.spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    for w in 0..2 {
                        for i in 0..PER_WRITER {
                            let tag = format!("{w}-{i}");
                            if let Some(a) = store.lookup(&key(&tag)) {
                                // A served entry is never torn.
                                assert_eq!(a.design, tag);
                                assert!(a.verilog.contains(&format!("module {tag}")));
                            }
                        }
                    }
                }
            });
        }
        // Writers are the first WRITERS handles; scope drops in reverse
        // order of spawn, so signal readers once everything is inserted.
        s.spawn(|| {
            // Poll until the full key space is present, then stop readers.
            loop {
                let all = (0..2).all(|w| {
                    (0..PER_WRITER).all(|i| store.lookup(&key(&format!("{w}-{i}"))).is_some())
                });
                if all {
                    done.store(true, Ordering::Relaxed);
                    break;
                }
                thread::sleep(Duration::from_millis(1));
            }
        });
    });

    let stats = store.stats();
    assert_eq!(stats.entries, 2 * PER_WRITER as u64);
    assert_eq!(stats.quarantined, 0, "no reader ever saw a torn entry");
    assert_eq!(stats.evictions, 0);
    // Every key is servable after the dust settles.
    for w in 0..2 {
        for i in 0..PER_WRITER {
            assert!(store.lookup(&key(&format!("{w}-{i}"))).is_some());
        }
    }
    // No stale locks or temp files left behind.
    assert_eq!(fs::read_dir(root.join("locks")).unwrap().count(), 0);
    assert_eq!(fs::read_dir(root.join("tmp")).unwrap().count(), 0);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn truncated_entry_is_quarantined_and_recoverable() {
    for (name, lookup) in LOOKUPS {
        truncated_entry_is_quarantined_and_recoverable_by(name, lookup);
    }
}

fn truncated_entry_is_quarantined_and_recoverable_by(name: &str, lookup: Probe) {
    let root = scratch(&format!("quarantine-{name}"));
    let store = ArtifactStore::open(&root, StoreConfig::default()).unwrap();
    let k = key("victim");
    store.insert(&k, &artifact("victim")).unwrap();

    // Truncate the entry mid-document, as a crash or disk fault would.
    let path = root
        .join("objects")
        .join(&k.digest[..2])
        .join(format!("{}.json", k.digest));
    let text = fs::read_to_string(&path).unwrap();
    fs::write(&path, &text[..text.len() / 2]).unwrap();

    // The load integrity-checks, quarantines, and reports a miss.
    assert!(!lookup(&store, &k), "{name}");
    assert!(!path.exists(), "corrupt entry left the serving path");
    assert!(root
        .join("quarantine")
        .join(format!("{}.json", k.digest))
        .exists());
    let stats = store.stats();
    assert_eq!(stats.quarantined, 1);
    assert_eq!(stats.misses, 1);

    // Re-synthesis (a fresh insert) repopulates the same digest.
    store.insert(&k, &artifact("victim")).unwrap();
    let back = store.lookup(&k).expect("repopulated");
    assert_eq!(back.verilog, artifact("victim").verilog);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn tampered_body_fails_the_body_digest() {
    for (name, lookup) in LOOKUPS {
        tampered_body_fails_the_body_digest_by(name, lookup);
    }
}

fn tampered_body_fails_the_body_digest_by(name: &str, lookup: Probe) {
    let root = scratch(&format!("tamper-{name}"));
    let store = ArtifactStore::open(&root, StoreConfig::default()).unwrap();
    let k = key("tamper");
    store.insert(&k, &artifact("tamper")).unwrap();
    let path = root
        .join("objects")
        .join(&k.digest[..2])
        .join(format!("{}.json", k.digest));
    // Flip the Verilog inside an otherwise well-formed document.
    let text = fs::read_to_string(&path).unwrap();
    fs::write(&path, text.replace("module tamper", "module mallory")).unwrap();
    assert!(
        !lookup(&store, &k),
        "{name}: body digest must catch tampering"
    );
    assert_eq!(store.stats().quarantined, 1);
    let _ = fs::remove_dir_all(&root);
}

/// Builds a store with `n` entries whose modification times are pinned to
/// a deterministic ladder (entry `i` at epoch + `i` seconds).
fn pinned_store(root: &Path, n: usize, max_bytes: u64) -> ArtifactStore {
    let store = ArtifactStore::open(root, StoreConfig { max_bytes }).unwrap();
    for i in 0..n {
        let tag = format!("evict-{i}");
        store.insert(&key(&tag), &artifact(&tag)).unwrap();
        let k = key(&tag);
        let path = root
            .join("objects")
            .join(&k.digest[..2])
            .join(format!("{}.json", k.digest));
        let f = fs::File::options().write(true).open(&path).unwrap();
        f.set_modified(SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000 + i as u64))
            .unwrap();
    }
    store
}

#[test]
fn eviction_is_lru_and_deterministic() {
    // Two stores built identically evict identically.
    let size = {
        let root = scratch("evict-probe");
        let store = pinned_store(&root, 1, u64::MAX);
        let bytes = store.stats().bytes;
        let _ = fs::remove_dir_all(&root);
        bytes
    };
    let budget = size * 4 + size / 2; // room for 4 of the 10 entries
    let mut evicted_runs = Vec::new();
    for run in 0..2 {
        let root = scratch(&format!("evict-{run}"));
        // Populate (and pin mtimes) without pressure, then open a
        // size-bounded handle and trim once.
        pinned_store(&root, 10, u64::MAX);
        let store = ArtifactStore::open(&root, StoreConfig { max_bytes: budget }).unwrap();
        let evicted = store.enforce_budget().unwrap();
        // Survivors are exactly the most recently used entries.
        for i in 0..10 {
            let tag = format!("evict-{i}");
            let present = store.lookup(&key(&tag)).is_some();
            assert_eq!(present, i >= 6, "entry {i} survival under LRU");
        }
        assert!(store.stats().bytes <= budget);
        evicted_runs.push(evicted);
        let _ = fs::remove_dir_all(&root);
    }
    assert_eq!(
        evicted_runs[0], evicted_runs[1],
        "eviction order is deterministic"
    );
    assert_eq!(evicted_runs[0].len(), 6);
}

#[test]
fn request_digest_is_stable_across_processes() {
    // Golden constant: computed once in a separate process. If this test
    // fails, the canonical preimage changed — bump REQUEST_SCHEMA and
    // update the constant, because every existing store entry is invalid.
    let f = parse_function(
        "void sum(sc_fixed<10,2> x[8], sc_fixed<16,8> *out) { sc_fixed<16,8> acc = 0; \
         sum_loop: for (int k = 0; k < 8; k++) { acc += x[k]; } *out = acc; }",
    )
    .unwrap();
    let k = hls_serve::request_key(
        &f,
        &Directives::new(10.0),
        &TechLibrary::asic_100mhz(),
        true,
    );
    assert_eq!(k.digest, "c0f3e968a710b9d90b19e82fa874234d");
}

#[test]
fn a_hit_requires_the_requests_own_preimage() {
    // The digest is not collision-resistant, so no hit may rest on it
    // alone: a key with an entry's digest but another preimage (a
    // collision) misses on both sides, and the entry, valid for its own
    // request, stays on disk unquarantined.
    let root = scratch("preimage");
    let store = ArtifactStore::open(&root, StoreConfig::default()).unwrap();
    let p1 = "store-test-preimage/p1".to_string();
    let stored = RequestKey {
        digest: stable_digest(p1.as_bytes()),
        preimage: p1,
    };
    let colliding = RequestKey {
        digest: stored.digest.clone(),
        preimage: "store-test-preimage/p2".to_string(),
    };
    store.insert(&stored, &artifact("p1")).unwrap();
    store.insert_negative(&stored, &failure("p1")).unwrap();

    assert!(store.lookup(&colliding).is_none());
    assert!(store.lookup_encoded(&colliding).is_none());
    assert!(store.lookup_negative(&colliding).is_none());
    for side in ["objects", "negative"] {
        assert!(entry_file(&root, side, &stored.digest).exists(), "{side}");
    }
    let stats = store.stats();
    assert_eq!(stats.quarantined, 0);
    assert_eq!((stats.hits, stats.neg_hits, stats.misses), (0, 0, 2));
    assert_eq!((stats.entries, stats.neg_entries), (1, 1));

    // The entries still answer their own request.
    assert_eq!(
        store.lookup(&stored).unwrap().verilog,
        artifact("p1").verilog
    );
    assert_eq!(store.lookup_negative(&stored).unwrap(), failure("p1"));
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn netlist_opt_levels_never_alias_in_the_digest() {
    // Opt-on and opt-off artifacts are different designs; their request
    // keys must be distinct or the cache would serve one for the other.
    let f = parse_function(
        "void sum(sc_fixed<10,2> x[8], sc_fixed<16,8> *out) { sc_fixed<16,8> acc = 0; \
         sum_loop: for (int k = 0; k < 8; k++) { acc += x[k]; } *out = acc; }",
    )
    .unwrap();
    let lib = TechLibrary::asic_100mhz();
    let digest_at = |level: OptLevel| {
        let d = Directives::new(10.0).netlist_opt_level(level);
        hls_serve::request_key(&f, &d, &lib, true)
    };
    let on = digest_at(OptLevel::Full);
    let basic = digest_at(OptLevel::Basic);
    let off = digest_at(OptLevel::Off);
    assert_ne!(on.digest, off.digest);
    assert_ne!(on.digest, basic.digest);
    assert_ne!(basic.digest, off.digest);
    // The preimage names the level, so a cache miss is explainable.
    assert!(on.preimage.contains("\"netlist_opt\":{\"level\":\"full\"}"));
    assert!(off.preimage.contains("\"netlist_opt\":{\"level\":\"off\"}"));
    // Default directives are opt-on at Full: same key as the explicit one.
    let default = hls_serve::request_key(&f, &Directives::new(10.0), &lib, true);
    assert_eq!(default.digest, on.digest);
}

#[test]
fn abandoned_staging_files_are_swept_on_reopen() {
    let root = scratch("sweep");
    let store = ArtifactStore::open(&root, StoreConfig::default()).unwrap();
    let k = key("sweep");
    store.insert(&k, &artifact("sweep")).unwrap();

    // Simulate a writer that died between `write` and `rename`: its
    // staging file exists, the rename never happened.
    let stale = root
        .join("tmp")
        .join(format!("{}.positive.99999.tmp", k.digest));
    fs::write(&stale, "{\"half\":\"written").unwrap();
    let young = root.join("tmp").join("deadbeef.positive.99998.tmp");
    fs::write(&young, "{\"live\":\"writer").unwrap();
    // Age only the dead writer's file past the staleness horizon.
    fs::File::options()
        .write(true)
        .open(&stale)
        .unwrap()
        .set_modified(SystemTime::now() - STALE_LOCK - Duration::from_secs(60))
        .unwrap();

    drop(store);
    let store = ArtifactStore::open(&root, StoreConfig::default()).unwrap();
    assert!(!stale.exists(), "stale staging file must be swept");
    assert!(
        young.exists(),
        "young staging file may belong to a live writer"
    );
    // The committed entry is untouched by recovery.
    let back = store.lookup(&k).expect("committed entry still serves");
    assert_eq!(back.verilog, artifact("sweep").verilog);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn negative_entries_round_trip_and_torn_ones_are_rejected() {
    let root = scratch("negative");
    let store = ArtifactStore::open(&root, StoreConfig::default()).unwrap();
    let k = key("negative");
    let failure = NegativeEntry {
        design: "bad".into(),
        code: "infeasible-clock".into(),
        error: "operation cannot fit the clock".into(),
        diagnostics: Json::Arr(Vec::new()),
    };
    store.insert_negative(&k, &failure).unwrap();
    let back = store.lookup_negative(&k).expect("round-trips");
    assert_eq!(back.code, "infeasible-clock");
    assert_eq!(back.error, failure.error);
    assert_eq!(store.stats().neg_entries, 1);

    // Tear the body: the digest check must refuse and quarantine it.
    let path = root
        .join("negative")
        .join(&k.digest[..2])
        .join(format!("{}.json", k.digest));
    let text = fs::read_to_string(&path).unwrap();
    fs::write(&path, &text[..text.len() - 8]).unwrap();
    assert!(
        store.lookup_negative(&k).is_none(),
        "torn entry must not serve"
    );
    assert!(!path.exists(), "torn entry left the serving path");
    assert_eq!(store.stats().quarantined, 1);

    // Repopulation leaves a consistent store.
    store.insert_negative(&k, &failure).unwrap();
    assert!(store.lookup_negative(&k).is_some());
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn foreign_raw_documents_are_reverified_before_admission() {
    use hls_serve::EntryKind;
    let a_root = scratch("raw-a");
    let b_root = scratch("raw-b");
    let a = ArtifactStore::open(&a_root, StoreConfig::default()).unwrap();
    let b = ArtifactStore::open(&b_root, StoreConfig::default()).unwrap();
    let k = key("raw");
    a.insert(&k, &artifact("raw")).unwrap();
    let text = a
        .read_raw(EntryKind::Positive, &k.digest)
        .expect("raw read");

    // The genuine document is admitted and serves byte-identically.
    assert!(b.insert_raw(EntryKind::Positive, &k.digest, &text).unwrap());
    assert_eq!(
        b.read_raw(EntryKind::Positive, &k.digest).as_deref(),
        Some(text.as_str()),
        "admitted replica must be byte-identical"
    );
    assert_eq!(b.lookup(&k).unwrap().verilog, artifact("raw").verilog);

    // A tampered body is refused without error.
    let c_root = scratch("raw-c");
    let c = ArtifactStore::open(&c_root, StoreConfig::default()).unwrap();
    let tampered = text.replace("module raw", "module owned");
    assert!(!c
        .insert_raw(EntryKind::Positive, &k.digest, &tampered)
        .unwrap());
    assert!(c.lookup(&k).is_none());
    // A positive document cannot land on the negative side (schema).
    assert!(!c.insert_raw(EntryKind::Negative, &k.digest, &text).unwrap());
    assert_eq!(c.stats().neg_entries, 0);

    // Bodies with a valid envelope and digests are refused unless they
    // are artifacts in exactly the encoding this store writes.
    let genuine = EncodedArtifact::encode(&artifact("raw"));
    let spaced = genuine.as_str().replacen(',', ", ", 1);
    for body in ["{\"design\":\"x\"}", spaced.as_str()] {
        let document = Json::obj(vec![
            ("schema", Json::str(ENTRY_SCHEMA)),
            ("preimage", Json::str(k.preimage.clone())),
            ("body_digest", Json::str(stable_digest(body.as_bytes()))),
        ])
        .write();
        let document = format!("{},\"body\":{body}}}", &document[..document.len() - 1]);
        assert!(
            !c.insert_raw(EntryKind::Positive, &k.digest, &document)
                .unwrap(),
            "admitted {body}"
        );
        assert!(c.lookup_encoded(&k).is_none());
        assert!(c.lookup(&k).is_none());
    }
    assert_eq!(c.stats().entries, 0);
    assert_eq!(c.stats().quarantined, 0, "refused documents never land");

    for root in [&a_root, &b_root, &c_root] {
        let _ = fs::remove_dir_all(root);
    }
}

/// `[entries, bytes, neg_entries, neg_bytes]` from a walk of the tree.
fn disk_census(root: &Path) -> [u64; 4] {
    let side = |dir: &str| {
        let (mut n, mut bytes) = (0, 0);
        for shard in fs::read_dir(root.join(dir)).unwrap().flatten() {
            for file in fs::read_dir(shard.path()).unwrap().flatten() {
                n += 1;
                bytes += file.metadata().unwrap().len();
            }
        }
        [n, bytes]
    };
    let [entries, bytes] = side("objects");
    let [neg_entries, neg_bytes] = side("negative");
    [entries, bytes, neg_entries, neg_bytes]
}

/// Every entry on disk in eviction order: `(mtime, digest, side)`.
fn disk_lru(root: &Path) -> Vec<(SystemTime, String, u8)> {
    let mut entries = Vec::new();
    for (side, dir) in ["objects", "negative"].into_iter().enumerate() {
        for shard in fs::read_dir(root.join(dir)).unwrap().flatten() {
            for file in fs::read_dir(shard.path()).unwrap().flatten() {
                let path = file.path();
                let digest = path.file_stem().unwrap().to_str().unwrap().to_string();
                let mtime = file.metadata().unwrap().modified().unwrap();
                entries.push((mtime, digest, side as u8));
            }
        }
    }
    entries.sort();
    entries
}

fn census(store: &ArtifactStore) -> [u64; 4] {
    let s = store.stats();
    [s.entries, s.bytes, s.neg_entries, s.neg_bytes]
}

fn entry_file(root: &Path, side: &str, digest: &str) -> PathBuf {
    root.join(side)
        .join(&digest[..2])
        .join(format!("{digest}.json"))
}

fn failure(tag: &str) -> NegativeEntry {
    NegativeEntry {
        design: tag.to_string(),
        code: "infeasible-clock".into(),
        error: format!("{tag}: operation cannot fit the clock"),
        diagnostics: Json::Arr(Vec::new()),
    }
}

#[test]
fn census_matches_a_directory_walk_through_random_operations() {
    use hls_serve::EntryKind;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    // Raw documents come from a donor store, as replication does.
    let donor_root = scratch("census-donor");
    let donor = ArtifactStore::open(&donor_root, StoreConfig::default()).unwrap();
    let tags: Vec<String> = (0..12).map(|i| format!("census-{i:02}")).collect();
    let mut raw = Vec::new();
    for tag in &tags {
        let k = key(tag);
        donor.insert(&k, &artifact(tag)).unwrap();
        donor.insert_negative(&k, &failure(tag)).unwrap();
        raw.push([
            donor.read_raw(EntryKind::Positive, &k.digest).unwrap(),
            donor.read_raw(EntryKind::Negative, &k.digest).unwrap(),
        ]);
    }
    // A budget of about five positive entries, so inserts also evict.
    let budget = raw[0][0].len() as u64 * 5;

    let root = scratch("census");
    let store = ArtifactStore::open(&root, StoreConfig { max_bytes: budget }).unwrap();
    let mut rng = StdRng::seed_from_u64(0x5eed_ce05);
    // What the counters must read, from what the disk held before each op.
    let (mut hits, mut misses, mut quarantined, mut evictions) = (0u64, 0u64, 0u64, 0u64);
    let mut lru_checks = 0;
    for step in 0..400 {
        let i = rng.gen_range(0..tags.len());
        let (tag, k) = (&tags[i], key(&tags[i]));
        let object = entry_file(&root, "objects", &k.digest);
        let before = disk_lru(&root);
        let op = rng.gen_range(0..10u32);
        match op {
            0 => store.insert(&k, &artifact(tag)).unwrap(),
            1 => store.insert_negative(&k, &failure(tag)).unwrap(),
            2 => assert!(store
                .insert_raw(EntryKind::Positive, &k.digest, &raw[i][0])
                .unwrap()),
            3 => assert!(store
                .insert_raw(EntryKind::Negative, &k.digest, &raw[i][1])
                .unwrap()),
            4 | 8 => {
                let present = object.exists();
                let found = if op == 4 {
                    store.lookup(&k).map(|a| EncodedArtifact::encode(&a))
                } else {
                    store.lookup_encoded(&k)
                };
                assert_eq!(found.is_some(), present, "step {step} (op {op})");
                if let Some(found) = found {
                    assert_eq!(found, EncodedArtifact::encode(&artifact(tag)));
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
            5 => {
                store.lookup_negative(&k);
            }
            6 | 9 => {
                // An external truncation, then the load that quarantines it.
                let negative = op == 6 && rng.gen_bool(0.5);
                let path = entry_file(
                    &root,
                    if negative { "negative" } else { "objects" },
                    &k.digest,
                );
                if let Ok(text) = fs::read_to_string(&path) {
                    fs::write(&path, &text[..text.len() / 2]).unwrap();
                    let served = if negative {
                        store.lookup_negative(&k).is_some()
                    } else if op == 6 {
                        store.lookup(&k).is_some()
                    } else {
                        store.lookup_encoded(&k).is_some()
                    };
                    assert!(!served, "step {step}: a torn entry must not serve");
                    assert!(!path.exists(), "step {step}: torn entry quarantined");
                    quarantined += 1;
                    misses += u64::from(!negative);
                }
            }
            _ => {
                store.enforce_budget().unwrap();
                assert!(census(&store)[1] + census(&store)[3] <= budget);
            }
        }
        // Whatever an op evicted was the least recently used, in the
        // store's `(mtime, digest, kind)` order (checked when no two
        // entries share a timestamp on disk).
        let after: Vec<_> = disk_lru(&root)
            .into_iter()
            .map(|(_, d, s)| (d, s))
            .collect();
        let gone: Vec<_> = before
            .iter()
            .filter(|(_, d, s)| !after.contains(&(d.clone(), *s)))
            .collect();
        let removed_by_op = matches!(op, 6 | 9) as usize;
        if gone.len() > removed_by_op && before.windows(2).all(|w| w[0].0 != w[1].0) {
            let oldest: Vec<_> = before.iter().take(gone.len()).collect();
            assert_eq!(
                gone, oldest,
                "step {step} (op {op}): eviction left LRU order"
            );
            lru_checks += 1;
        }
        if matches!(op, 0..=3) {
            evictions += gone.len() as u64;
        }
        assert_eq!(census(&store), disk_census(&root), "step {step} (op {op})");
        let stats = store.stats();
        let counts = [stats.hits, stats.misses, stats.quarantined, stats.evictions];
        assert_eq!(
            counts,
            [hits, misses, quarantined, evictions],
            "step {step} (op {op}): hits, misses, quarantines, evictions"
        );
    }
    let stats = store.stats();
    assert!(stats.evictions > 0, "the budget must have bitten");
    assert!(
        lru_checks > 0,
        "evictions must have been checked against the disk"
    );
    assert!(stats.quarantined > 0, "truncations must have been drawn");
    assert!(stats.hits > 0 && stats.misses > 0);
    assert!(stats.entries > 0 && stats.neg_entries > 0);

    // A fresh handle's walk agrees with the live index.
    let live = census(&store);
    drop(store);
    let reopened = ArtifactStore::open(&root, StoreConfig { max_bytes: budget }).unwrap();
    assert_eq!(census(&reopened), live);
    for root in [&root, &donor_root] {
        let _ = fs::remove_dir_all(root);
    }
}

#[test]
fn insert_over_budget_evicts_lru_on_a_live_handle() {
    // Equal-length tags give equal-size entries.
    let tag = |i: usize| format!("lru-{i:02}");
    let size = {
        let root = scratch("evict-live-probe");
        let store = ArtifactStore::open(&root, StoreConfig::default()).unwrap();
        store.insert(&key(&tag(0)), &artifact(&tag(0))).unwrap();
        let bytes = store.stats().bytes;
        let _ = fs::remove_dir_all(&root);
        bytes
    };
    let root = scratch("evict-live");
    let store = ArtifactStore::open(
        &root,
        StoreConfig {
            max_bytes: size * 4 + size / 2,
        },
    )
    .unwrap();
    // Sleeps keep every mtime distinct even on coarse filesystem clocks.
    let tick = || thread::sleep(Duration::from_millis(20));
    for i in 0..4 {
        store.insert(&key(&tag(i)), &artifact(&tag(i))).unwrap();
        tick();
    }
    // Refresh the oldest entry: it is now the most recently used.
    assert!(store.lookup(&key(&tag(0))).is_some());
    tick();
    // The untouched entries, in (mtime, digest) order, as on disk.
    let mut untouched: Vec<(SystemTime, String)> = (1..4)
        .map(|i| {
            let digest = key(&tag(i)).digest;
            let path = entry_file(&root, "objects", &digest);
            (fs::metadata(path).unwrap().modified().unwrap(), digest)
        })
        .collect();
    untouched.sort();

    // Two inserts on the live handle overflow the budget twice.
    for i in 4..6 {
        store.insert(&key(&tag(i)), &artifact(&tag(i))).unwrap();
        tick();
    }
    let stats = store.stats();
    assert_eq!(stats.evictions, 2);
    assert_eq!(stats.entries, 4);
    assert!(stats.bytes <= size * 4 + size / 2);
    for (n, (_, digest)) in untouched.iter().enumerate() {
        assert_eq!(
            entry_file(&root, "objects", digest).exists(),
            n == 2,
            "only the two oldest untouched entries are evicted"
        );
    }
    for i in [0, 4, 5] {
        assert!(store.lookup(&key(&tag(i))).is_some(), "entry {i} survives");
    }
    assert_eq!(census(&store), disk_census(&root));
    let _ = fs::remove_dir_all(&root);
}
