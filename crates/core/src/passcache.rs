//! The prefix cache: one content-addressed entry per transform signature.
//!
//! A *prefix* ([`NetlistEntry`]) is the clock-independent head of a
//! synthesis run: the loop-transform result, the optimized [`Lowered`]
//! design that `netlist-opt` produced from its lowering, and that
//! optimization's [`NetlistReport`]. It is the design the flow schedules,
//! emits and proves, and the one artifact worth reusing: `schedule` and
//! `allocate` read the clock and together cost about a tenth of a
//! millisecond, so they always run.
//!
//! Prefixes are keyed by [`netlist_key`], the end of a key chain:
//! [`base_key`] digests the exact input function, and [`transform_key`],
//! [`lower_key`] and [`netlist_key`] each add the inputs of one stage —
//! the directive subset the stage reads and, from `netlist-opt` on, the
//! [`TechLibrary::fingerprint`]. No key reads the clock, so clock twins
//! share one prefix; any other input change misses by construction.
//!
//! The pipeline makes at most one lookup, before `loop-transforms`, and
//! one publication, after `netlist-opt` ([`crate::pipeline`]); the
//! explorer reads or publishes one prefix per transform signature.
//! Storage is one in-memory map bounded by a fixed LRU entry count, and
//! an optional persistent tier ([`crate::docstore`]) holding one
//! document per prefix, with tmp+rename publication, an integrity
//! re-check on load and quarantine of torn entries. A hit replays the
//! exact cold-run objects, so cached and uncached runs produce
//! byte-identical artifacts.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hls_ir::{stable_digest, Function, Json};

use crate::directives::Directives;
use crate::docstore::DocStore;
use crate::lower::Lowered;
use crate::netlist::NetlistReport;
use crate::persist;
use crate::tech::TechLibrary;
use crate::transform::TransformResult;

/// Key-derivation schema tag; bumped whenever key composition or the
/// cached value changes shape, so stale persistent tiers read as misses.
const KEY_SCHEMA: &str = "pc2";

/// In-memory entry bound. A prefix of one of the paper's Table-1
/// designs retains 60–141 KB of heap, so 64 entries cap the tier near
/// 9 MB for designs of that size, while holding every transform
/// signature of the Table-1 sweep (30) twice over (DESIGN.md §12).
const CAPACITY: usize = 64;

// ---------------------------------------------------------------------------
// Key derivation
// ---------------------------------------------------------------------------

/// Key of the pipeline's input slot: the source function's canonical IR
/// rendering (parameter formats, statements, loop structure — everything
/// synthesis reads).
pub fn base_key(func: &Function) -> String {
    stable_digest(format!("{KEY_SCHEMA};base;{func}").as_bytes())
}

/// `loop-transforms` key: input function plus the merge policy and
/// per-loop directives the transform pipeline reads (the same subset
/// [`crate::explore::transform_signature`] renders).
pub fn transform_key(base_key: &str, d: &Directives) -> String {
    stable_digest(
        format!(
            "{KEY_SCHEMA};loop-transforms;{base_key};{}",
            crate::explore::transform_signature(d)
        )
        .as_bytes(),
    )
}

/// `lower` key: transformed-function key plus the loop, array and
/// interface directives lowering reads (pipelining, port synthesis).
/// Clock-independent.
pub fn lower_key(transform_key: &str, d: &Directives) -> String {
    stable_digest(
        format!(
            "{KEY_SCHEMA};lower;{transform_key};loops={:?};arrays={:?};ifaces={:?}",
            d.loops, d.arrays, d.interfaces
        )
        .as_bytes(),
    )
}

/// `netlist-opt` key: lowered-design key plus the optimizer config and
/// the library fingerprint (rebalancing uses the delay model).
/// Clock-independent — clock twins share this entry. It is the key a
/// prefix is cached under.
pub fn netlist_key(lower_key: &str, d: &Directives, lib: &TechLibrary) -> String {
    stable_digest(
        format!(
            "{KEY_SCHEMA};netlist-opt;{lower_key};opt={};lib={}",
            d.netlist_opt.to_json().write(),
            lib.fingerprint()
        )
        .as_bytes(),
    )
}

/// The whole chain from a [`base_key`]: the [`netlist_key`] of the prefix
/// that `d` and `lib` build from the keyed function.
pub fn prefix_key(base_key: &str, d: &Directives, lib: &TechLibrary) -> String {
    netlist_key(&lower_key(&transform_key(base_key, d), d), d, lib)
}

// ---------------------------------------------------------------------------
// The cached value
// ---------------------------------------------------------------------------

/// A prefix: everything a synthesis run computes before it reads the
/// clock. The pipeline replays it for `loop-transforms`, `lower` and
/// `netlist-opt`, and the explorer builds one per transform signature.
#[derive(Debug, Clone)]
pub struct NetlistEntry {
    /// The loop-transform result the design was lowered from.
    pub transformed: TransformResult,
    /// The design after netlist optimization.
    pub lowered: Lowered,
    /// Per-pass measurements of the optimization.
    pub report: NetlistReport,
}

fn entry_to_json(e: &NetlistEntry) -> Json {
    Json::obj(vec![
        ("transformed", persist::transform_to_json(&e.transformed)),
        ("lowered", persist::lowered_to_json(&e.lowered)),
        ("report", persist::report_to_json(&e.report)),
    ])
}

fn entry_from_json(j: &Json) -> Option<NetlistEntry> {
    Some(NetlistEntry {
        transformed: persist::transform_from_json(j.get("transformed")?)?,
        lowered: persist::lowered_from_json(j.get("lowered")?)?,
        report: persist::report_from_json(j.get("report")?)?,
    })
}

// ---------------------------------------------------------------------------
// The cache
// ---------------------------------------------------------------------------

/// Configuration for [`PassCache`].
#[derive(Debug, Clone, Default)]
pub struct PassCacheConfig {
    /// Root of the persistent tier; `None` keeps the cache memory-only.
    pub persist_dir: Option<PathBuf>,
}

/// A census of the cache's activity and occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassCacheStats {
    /// Lookups served from either tier.
    pub hits: u64,
    /// Lookups that found nothing (the prefix ran cold).
    pub misses: u64,
    /// Prefixes inserted into the in-memory tier.
    pub inserts: u64,
    /// In-memory entries displaced by the LRU bound.
    pub evictions: u64,
    /// The subset of `hits` served by the persistent tier.
    pub persist_hits: u64,
    /// Current in-memory entry count.
    pub entries: u64,
    /// Entries in the persistent tier (0 when disabled).
    pub persist_entries: u64,
    /// Bytes in the persistent tier (0 when disabled).
    pub persist_bytes: u64,
    /// Persistent entries quarantined after failing integrity checks.
    pub persist_quarantined: u64,
}

impl PassCacheStats {
    /// Stable JSON form for `--stats` and the cluster stats frame.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("hits", Json::count(self.hits)),
            ("misses", Json::count(self.misses)),
            ("inserts", Json::count(self.inserts)),
            ("evictions", Json::count(self.evictions)),
            ("persist_hits", Json::count(self.persist_hits)),
            ("entries", Json::count(self.entries)),
            ("persist_entries", Json::count(self.persist_entries)),
            ("persist_bytes", Json::count(self.persist_bytes)),
            ("persist_quarantined", Json::count(self.persist_quarantined)),
        ])
    }
}

/// The in-memory tier: prefixes by key, each with its last-use tick.
#[derive(Default)]
struct Lru {
    map: HashMap<String, (Arc<NetlistEntry>, u64)>,
    tick: u64,
}

/// The two-tier content-addressed prefix cache. Cheap to share: clone an
/// `Arc<PassCache>` into every [`crate::pipeline::PipelineConfig`] (or
/// [`crate::ExploreConfig`]) that should reuse prefixes.
pub struct PassCache {
    lru: Mutex<Lru>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    persist_hits: AtomicU64,
    persist: Option<DocStore>,
}

impl std::fmt::Debug for PassCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for PassCache {
    fn default() -> Self {
        PassCache::new(PassCacheConfig::default())
    }
}

impl PassCache {
    /// Creates a cache. The persistent tier is best-effort: if the
    /// directory cannot be created the cache runs memory-only (a cache
    /// must never turn an I/O problem into a synthesis failure).
    pub fn new(cfg: PassCacheConfig) -> PassCache {
        PassCache::with_capacity(cfg, CAPACITY)
    }

    fn with_capacity(cfg: PassCacheConfig, capacity: usize) -> PassCache {
        PassCache {
            lru: Mutex::new(Lru::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            persist_hits: AtomicU64::new(0),
            persist: cfg
                .persist_dir
                .as_ref()
                .and_then(|dir| DocStore::open(dir).ok()),
        }
    }

    /// Snapshot of counters and occupancy across both tiers. Constant
    /// time: the persistent tier keeps a running census.
    pub fn stats(&self) -> PassCacheStats {
        let entries = self.lru().map.len() as u64;
        let (persist_entries, persist_bytes) = self.persist.as_ref().map_or((0, 0), |p| p.census());
        PassCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            persist_hits: self.persist_hits.load(Ordering::Relaxed),
            entries,
            persist_entries,
            persist_bytes,
            persist_quarantined: self.persist.as_ref().map_or(0, |p| p.quarantined()),
        }
    }

    fn lru(&self) -> std::sync::MutexGuard<'_, Lru> {
        self.lru.lock().expect("prefix cache poisoned")
    }

    /// Looks up the prefix cached under `key` (a [`netlist_key`]): the
    /// in-memory tier first, then the persistent one.
    pub fn get(&self, key: &str) -> Option<Arc<NetlistEntry>> {
        let found = {
            let mut lru = self.lru();
            lru.tick += 1;
            let tick = lru.tick;
            lru.map.get_mut(key).map(|(entry, used)| {
                *used = tick;
                Arc::clone(entry)
            })
        };
        if let Some(entry) = found {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(entry);
        }
        let stored = self.persist.as_ref().and_then(|p| p.get(key));
        if let Some(entry) = stored.as_ref().and_then(entry_from_json) {
            let entry = Arc::new(entry);
            self.insert_mem(key, &entry);
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.persist_hits.fetch_add(1, Ordering::Relaxed);
            return Some(entry);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Publishes a prefix to both tiers.
    pub fn put(&self, key: &str, entry: &Arc<NetlistEntry>) {
        self.insert_mem(key, entry);
        if let Some(store) = &self.persist {
            // Content-addressed entries are immutable: a key already on
            // disk holds exactly this body, so rewriting it would only
            // burn a tmp+rename cycle.
            if !store.contains(key) {
                store.put(key, &entry_to_json(entry));
            }
        }
    }

    fn insert_mem(&self, key: &str, entry: &Arc<NetlistEntry>) {
        let mut lru = self.lru();
        lru.tick += 1;
        let tick = lru.tick;
        lru.map.insert(key.to_string(), (Arc::clone(entry), tick));
        self.inserts.fetch_add(1, Ordering::Relaxed);
        while lru.map.len() > self.capacity {
            let oldest = lru
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
                .expect("an over-full map has entries");
            lru.map.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directives::MergePolicy;
    use crate::netlist::optimize_lowered;
    use crate::transform::apply_loop_transforms;
    use hls_ir::parse_function;

    const SRC: &str = r#"
        void k(sc_fixed<8,4> x[2], sc_fixed<12,6> *out) {
            sc_fixed<12,6> acc = 0;
            l: for (int i = 0; i < 2; i++) {
                acc += x[i] * 2;
            }
            *out = acc;
        }
    "#;

    fn sample_entry() -> Arc<NetlistEntry> {
        let func = parse_function(SRC).unwrap();
        let d = Directives::new(10.0);
        let transformed = apply_loop_transforms(&func, &d);
        let mut lowered = crate::lower(&transformed.func, &d);
        let report = optimize_lowered(&mut lowered, &d.netlist_opt, &TechLibrary::asic_100mhz());
        Arc::new(NetlistEntry {
            transformed,
            lowered,
            report,
        })
    }

    fn assert_same(a: &NetlistEntry, b: &NetlistEntry) {
        assert_eq!(a.transformed.func, b.transformed.func);
        assert_eq!(a.transformed.merges, b.transformed.merges);
        assert_eq!(a.lowered, b.lowered);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn keys_chain_and_separate_stages() {
        let func = parse_function(SRC).unwrap();
        let d = Directives::new(10.0);
        let lib = TechLibrary::asic_100mhz();
        let b = base_key(&func);
        let t = transform_key(&b, &d);
        let l = lower_key(&t, &d);
        let n = netlist_key(&l, &d, &lib);
        let all = [&b, &t, &l, &n];
        for (i, x) in all.iter().enumerate() {
            assert_eq!(x.len(), 32);
            for y in &all[i + 1..] {
                assert_ne!(x, y, "stage keys must not collide");
            }
        }
        // Determinism: recomputation yields the same key.
        assert_eq!(t, transform_key(&base_key(&func), &d));
        assert_eq!(n, prefix_key(&b, &d, &lib));
    }

    #[test]
    fn clock_only_affects_clock_dependent_stages() {
        let func = parse_function(SRC).unwrap();
        let lib = TechLibrary::asic_100mhz();
        let d1 = Directives::new(10.0);
        let mut d2 = Directives::new(10.0);
        d2.clock_period_ns = f64::from_bits(d2.clock_period_ns.to_bits() + 1);
        let b = base_key(&func);
        assert_eq!(transform_key(&b, &d1), transform_key(&b, &d2));
        let t = transform_key(&b, &d1);
        assert_eq!(lower_key(&t, &d1), lower_key(&t, &d2));
        let l = lower_key(&t, &d1);
        assert_eq!(netlist_key(&l, &d1, &lib), netlist_key(&l, &d2, &lib));
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let cache = PassCache::with_capacity(PassCacheConfig::default(), 2);
        let e = sample_entry();
        let (k1, k2, k3) = ("aa", "bb", "cc");
        cache.put(k1, &e);
        cache.put(k2, &e);
        // A hit refreshes k1, so the third insert displaces k2.
        assert!(cache.get(k1).is_some());
        cache.put(k3, &e);
        assert!(cache.get(k2).is_none());
        assert!(cache.get(k1).is_some());
        assert!(cache.get(k3).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.inserts, 3);
        assert_eq!(s.entries, 2);
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn one_directive_bit_forces_a_miss() {
        let func = parse_function(SRC).unwrap();
        let b = base_key(&func);
        let d1 = Directives::new(10.0);
        // One directive bit (an unroll factor) re-keys the transform
        // stage and, through key chaining, every stage downstream.
        let d2 = Directives::new(10.0).unroll("l", crate::directives::Unroll::Factor(2));
        assert_ne!(transform_key(&b, &d1), transform_key(&b, &d2));
        // A merge-policy flip re-keys too.
        let mut d3 = Directives::new(10.0);
        d3.merge_policy = if d3.merge_policy == MergePolicy::Off {
            MergePolicy::AllowHazards
        } else {
            MergePolicy::Off
        };
        assert_ne!(transform_key(&b, &d1), transform_key(&b, &d3));
    }

    #[test]
    fn one_library_delay_forces_a_miss_downstream_only() {
        let func = parse_function(SRC).unwrap();
        let d = Directives::new(10.0);
        let lib1 = TechLibrary::asic_100mhz();
        let lib2 = lib1.with_delay_base_offset(1e-3);
        let b = base_key(&func);
        let t = transform_key(&b, &d);
        let l = lower_key(&t, &d);
        // Transforms and lowering never read the library, so their keys
        // are library-blind by construction; the first library consumer
        // (netlist-opt) and everything after it must miss.
        assert_ne!(netlist_key(&l, &d, &lib1), netlist_key(&l, &d, &lib2));
    }

    #[test]
    fn corrupt_persistent_entry_quarantines_and_repopulates() {
        fn truncate_objects(dir: &std::path::Path) {
            for entry in std::fs::read_dir(dir).expect("readable dir") {
                let path = entry.expect("dir entry").path();
                if path.is_dir() {
                    if path.file_name().is_some_and(|n| n == "quarantine") {
                        continue;
                    }
                    truncate_objects(&path);
                } else if path.extension().is_some_and(|e| e == "json") {
                    let data = std::fs::read(&path).expect("readable object");
                    std::fs::write(&path, &data[..data.len() / 2]).expect("truncable object");
                }
            }
        }
        let dir =
            std::env::temp_dir().join(format!("hls-passcache-test-{}-corrupt", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let e = sample_entry();
        let key = stable_digest(b"corrupt-me");
        let config = PassCacheConfig {
            persist_dir: Some(dir.clone()),
        };
        PassCache::new(config.clone()).put(&key, &e);
        // Tear every persisted object in place, as a crash mid-write
        // (against the store's tmp+rename discipline) or disk fault
        // would.
        truncate_objects(&dir);
        let cache = PassCache::new(config.clone());
        assert!(
            cache.get(&key).is_none(),
            "torn entry must read as a miss, never a wrong value"
        );
        assert!(cache.stats().persist_quarantined >= 1, "teardown recorded");
        // The miss's recompute repopulates the persistent tier...
        cache.put(&key, &e);
        // ...and a fresh process serves the repaired entry again.
        let cache = PassCache::new(config);
        let back = cache.get(&key).expect("repopulated entry");
        assert_same(&back, &e);
        assert_eq!(cache.stats().persist_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_tier_survives_reopen() {
        let dir =
            std::env::temp_dir().join(format!("hls-passcache-test-{}-reopen", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let e = sample_entry();
        let key = stable_digest(b"prefix-key");
        let config = PassCacheConfig {
            persist_dir: Some(dir.clone()),
        };
        PassCache::new(config.clone()).put(&key, &e);
        let cache = PassCache::new(config);
        let back = cache.get(&key).expect("persisted entry");
        assert_same(&back, &e);
        let s = cache.stats();
        assert_eq!(s.persist_hits, 1);
        assert_eq!(s.persist_entries, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn documents_of_another_shape_read_as_misses() {
        // A document that is not a prefix (as an older tier's per-stage
        // documents are) decodes to nothing, so the lookup misses.
        let dir =
            std::env::temp_dir().join(format!("hls-passcache-test-{}-shape", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = stable_digest(b"old-stage-doc");
        DocStore::open(&dir).unwrap().put(
            &key,
            &Json::obj(vec![("stage", Json::str("lower")), ("data", Json::Null)]),
        );
        let cache = PassCache::new(PassCacheConfig {
            persist_dir: Some(dir.clone()),
        });
        assert!(cache.get(&key).is_none());
        assert_eq!(cache.stats().misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
