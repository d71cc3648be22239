//! Persistent document tier for the prefix and proof caches.
//!
//! A minimal content-addressed object store mirroring the `hls-serve`
//! artifact store's durability envelope: atomic tmp+rename publication,
//! a self-describing schema/key/body-digest envelope rechecked on every
//! load, and quarantine (never silent reuse) of torn or corrupted
//! entries. It is deliberately simpler than the serve store — no file locks,
//! no negative entries, no budget enforcement — because a cache
//! miss is always recoverable by recomputation, so every failure mode
//! here degrades to a miss.
//!
//! Layout under the root:
//!
//! ```text
//! objects/<first-2-hex>/<key>.json   one envelope per cached document
//! quarantine/<key>.json              entries that failed integrity
//! tmp/                               in-flight writes (tmp+rename)
//! ```
//!
//! The census ([`DocStore::census`], [`DocStore::quarantined`]) is a
//! running count: [`DocStore::open`] walks `objects/` and `quarantine/`
//! once, and the handle then updates the totals with its own puts and
//! quarantines, so reading them never touches the disk. Entries written
//! or removed by another process show up at the next open.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use hls_ir::{stable_digest, Json};

/// Envelope schema tag; bumped on any incompatible layout change so old
/// stores read as misses, never as wrong data.
const SCHEMA: &str = "hls-passcache/v1";

/// Process-wide sequence for unique tmp names (combined with the pid, so
/// concurrent processes sharing a store directory never collide).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A persistent key→document store with integrity checking.
#[derive(Debug)]
pub struct DocStore {
    root: PathBuf,
    /// Running census, updated under this lock together with the
    /// rename it mirrors.
    census: Mutex<Census>,
}

/// What this handle knows is on disk: the size of every object file,
/// their total, and the number of quarantined files.
#[derive(Debug, Default)]
struct Census {
    objects: HashMap<PathBuf, u64>,
    bytes: u64,
    quarantined: u64,
}

impl DocStore {
    /// Opens (creating if needed) a store rooted at `root`, counting the
    /// entries already in it.
    pub fn open(root: &Path) -> io::Result<DocStore> {
        fs::create_dir_all(root.join("objects"))?;
        fs::create_dir_all(root.join("tmp"))?;
        let objects: HashMap<PathBuf, u64> = list_files(&root.join("objects")).collect();
        let census = Census {
            bytes: objects.values().sum(),
            objects,
            quarantined: list_files(&root.join("quarantine")).count() as u64,
        };
        Ok(DocStore {
            root: root.to_path_buf(),
            census: Mutex::new(census),
        })
    }

    fn census_lock(&self) -> std::sync::MutexGuard<'_, Census> {
        self.census.lock().expect("docstore census poisoned")
    }

    fn object_path(&self, key: &str) -> PathBuf {
        let shard = &key[..2.min(key.len())];
        self.root
            .join("objects")
            .join(shard)
            .join(format!("{key}.json"))
    }

    /// Whether an object file exists for `key`.
    ///
    /// A metadata probe only — the envelope is not read or re-verified,
    /// so a torn entry still answers `true` here and is quarantined on
    /// the eventual [`get`](DocStore::get). Callers use this to skip
    /// rewriting immutable content-addressed entries, where a false
    /// positive costs one later miss, never a wrong value.
    pub fn contains(&self, key: &str) -> bool {
        Self::key_ok(key) && self.object_path(key).is_file()
    }

    /// True when `key` is safe to embed in a file name (the 32-hex digest
    /// form every cache key uses).
    fn key_ok(key: &str) -> bool {
        !key.is_empty() && key.len() <= 64 && key.bytes().all(|b| b.is_ascii_hexdigit())
    }

    /// Publishes `body` under `key`. Best-effort: I/O errors drop the
    /// write (the entry simply stays a miss); they never corrupt an
    /// existing entry because publication is tmp+rename.
    pub fn put(&self, key: &str, body: &Json) {
        if !Self::key_ok(key) {
            return;
        }
        let envelope = Json::obj(vec![
            ("schema", Json::str(SCHEMA)),
            ("key", Json::str(key)),
            (
                "body_digest",
                Json::str(stable_digest(body.write().as_bytes())),
            ),
            ("body", body.clone()),
        ]);
        let text = envelope.write();
        let tmp = self.root.join("tmp").join(format!(
            "{}-{}.tmp",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if fs::write(&tmp, &text).is_err() {
            let _ = fs::remove_file(&tmp);
            return;
        }
        let dest = self.object_path(key);
        if let Some(dir) = dest.parent() {
            let _ = fs::create_dir_all(dir);
        }
        let mut census = self.census_lock();
        if fs::rename(&tmp, &dest).is_err() {
            let _ = fs::remove_file(&tmp);
            return;
        }
        let size = text.len() as u64;
        if let Some(old) = census.objects.insert(dest, size) {
            census.bytes -= old;
        }
        census.bytes += size;
    }

    /// Loads the document stored under `key`, rechecking the envelope's
    /// integrity. A torn, corrupted or schema-drifted entry is moved to
    /// `quarantine/` and reads as a miss.
    pub fn get(&self, key: &str) -> Option<Json> {
        if !Self::key_ok(key) {
            return None;
        }
        let path = self.object_path(key);
        let text = fs::read_to_string(&path).ok()?;
        match Self::check_envelope(key, &text) {
            Some(body) => Some(body),
            None => {
                self.quarantine(key, &path);
                None
            }
        }
    }

    /// Validates one envelope text against its expected key; returns the
    /// body only when schema, key and body digest all check out.
    fn check_envelope(key: &str, text: &str) -> Option<Json> {
        let doc = Json::parse(text).ok()?;
        if doc.get("schema")?.as_str()? != SCHEMA {
            return None;
        }
        if doc.get("key")?.as_str()? != key {
            return None;
        }
        let body = doc.get("body")?;
        let digest = stable_digest(body.write().as_bytes());
        if doc.get("body_digest")?.as_str()? != digest {
            return None;
        }
        Some(body.clone())
    }

    fn quarantine(&self, key: &str, path: &Path) {
        let qdir = self.root.join("quarantine");
        let _ = fs::create_dir_all(&qdir);
        let qpath = qdir.join(format!("{key}.json"));
        let mut census = self.census_lock();
        let requarantine = qpath.exists();
        if fs::rename(path, &qpath).is_ok() {
            if !requarantine {
                census.quarantined += 1;
            }
        } else if fs::remove_file(path).is_err() {
            // Could not isolate it, nor make sure it cannot be served
            // again: it stays in the tree, and in the census.
            return;
        }
        if let Some(size) = census.objects.remove(path) {
            census.bytes -= size;
        }
    }

    /// Number of quarantined entries (for tests and stats), from the
    /// running census.
    pub fn quarantined(&self) -> u64 {
        self.census_lock().quarantined
    }

    /// `(entries, bytes)` stored under `objects/`, from the running
    /// census.
    pub fn census(&self) -> (u64, u64) {
        let c = self.census_lock();
        (c.objects.len() as u64, c.bytes)
    }
}

/// Every regular file under `dir`, recursively, with its size.
fn list_files(dir: &Path) -> impl Iterator<Item = (PathBuf, u64)> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(rd) = fs::read_dir(&d) else { continue };
        for e in rd.flatten() {
            let Ok(meta) = e.metadata() else { continue };
            if meta.is_dir() {
                stack.push(e.path());
            } else {
                files.push((e.path(), meta.len()));
            }
        }
    }
    files.into_iter()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hls-docstore-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trip_and_census() {
        let root = tmp_root("rt");
        let store = DocStore::open(&root).unwrap();
        let key = stable_digest(b"doc-1");
        let body = Json::obj(vec![("x", Json::count(7))]);
        assert!(store.get(&key).is_none());
        store.put(&key, &body);
        assert_eq!(store.get(&key), Some(body));
        let (entries, bytes) = store.census();
        assert_eq!(entries, 1);
        assert!(bytes > 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_and_corrupt_entries_quarantine() {
        let root = tmp_root("torn");
        let store = DocStore::open(&root).unwrap();
        let key = stable_digest(b"doc-2");
        store.put(&key, &Json::obj(vec![("x", Json::count(7))]));
        let path = store.object_path(&key);

        // Torn write: truncate the file mid-envelope.
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(store.get(&key).is_none());
        assert_eq!(store.quarantined(), 1);
        assert!(!path.exists(), "torn entry must leave the object tree");

        // Repopulate, then corrupt the body without touching the digest.
        store.put(&key, &Json::obj(vec![("x", Json::count(7))]));
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replace("\"x\":7", "\"x\":8")).unwrap();
        assert!(store.get(&key).is_none());
        assert_eq!(
            store.quarantined(),
            1,
            "same key re-quarantines over itself"
        );

        // Repopulate once more: the store must serve the fresh entry.
        let body = Json::obj(vec![("x", Json::count(9))]);
        store.put(&key, &body);
        assert_eq!(store.get(&key), Some(body));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn running_census_matches_a_directory_walk() {
        let root = tmp_root("census");
        let walk = || {
            let objects: Vec<(PathBuf, u64)> = list_files(&root.join("objects")).collect();
            let bytes = objects.iter().map(|(_, b)| b).sum::<u64>();
            let quarantined = list_files(&root.join("quarantine")).count() as u64;
            ((objects.len() as u64, bytes), quarantined)
        };
        let mut store = DocStore::open(&root).unwrap();
        // xorshift64: a seeded mix of puts (new keys, and rewrites of a
        // different size), torn-entry quarantines and reopens.
        let mut seed = 0x2005_0317_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for step in 0..300 {
            let key = stable_digest(format!("k{}", next() % 16).as_bytes());
            match next() % 8 {
                0..=3 => store.put(
                    &key,
                    &Json::Arr(vec![Json::count(7); (next() % 5) as usize]),
                ),
                4..=6 => {
                    let path = store.object_path(&key);
                    if let Ok(text) = fs::read_to_string(&path) {
                        fs::write(&path, &text[..text.len() / 2]).unwrap();
                    }
                    assert!(store.get(&key).is_none(), "step {step}");
                }
                _ => store = DocStore::open(&root).unwrap(),
            }
            let ((entries, bytes), quarantined) = walk();
            assert_eq!(store.census(), (entries, bytes), "step {step}");
            assert_eq!(store.quarantined(), quarantined, "step {step}");
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn wrong_key_and_schema_read_as_miss() {
        let root = tmp_root("schema");
        let store = DocStore::open(&root).unwrap();
        let key_a = stable_digest(b"a");
        let key_b = stable_digest(b"b");
        store.put(&key_a, &Json::Null);
        // An entry copied to the wrong key must not be served.
        let src = store.object_path(&key_a);
        let dst = store.object_path(&key_b);
        fs::create_dir_all(dst.parent().unwrap()).unwrap();
        fs::copy(&src, &dst).unwrap();
        assert!(store.get(&key_b).is_none());
        assert!(store.get(&key_a).is_some());
        assert!(store.get("not a key").is_none());
        let _ = fs::remove_dir_all(&root);
    }
}
