//! The entry bound and census both in-memory caches share: the prefix
//! cache ([`crate::PassCache`]) and the proof-verdict cache in
//! `hls-verify`.

use std::collections::HashMap;

use hls_ir::Json;

/// A map with a fixed entry capacity that evicts the least recently
/// used entry: every value carries the tick of its last insert or hit,
/// and an insert past the capacity drops the smallest tick. It counts
/// its own hits, misses, inserts and evictions.
#[derive(Debug)]
pub struct Lru<V> {
    map: HashMap<String, (V, u64)>,
    tick: u64,
    capacity: usize,
    stats: CacheStats,
}

/// A census of an [`Lru`]'s activity and occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found their key.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Values inserted.
    pub inserts: u64,
    /// Entries displaced by the capacity.
    pub evictions: u64,
    /// Current entry count.
    pub entries: u64,
}

impl CacheStats {
    /// Stable JSON form for batch reports and the cluster stats frame.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("hits", Json::count(self.hits)),
            ("misses", Json::count(self.misses)),
            ("inserts", Json::count(self.inserts)),
            ("evictions", Json::count(self.evictions)),
            ("entries", Json::count(self.entries)),
        ])
    }
}

impl<V> Lru<V> {
    /// An empty map holding at most `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Lru<V> {
        Lru {
            map: HashMap::new(),
            tick: 0,
            capacity: capacity.max(1),
            stats: CacheStats::default(),
        }
    }

    /// The value under `key`, marked as the most recently used.
    pub fn get(&mut self, key: &str) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        let found = self.map.get_mut(key).map(|(value, used)| {
            *used = tick;
            &*value
        });
        if found.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        found
    }

    /// Stores `value` under `key` as the most recently used entry,
    /// evicting the least recently used ones past the capacity.
    pub fn insert(&mut self, key: &str, value: V) {
        self.tick += 1;
        self.map.insert(key.to_string(), (value, self.tick));
        self.stats.inserts += 1;
        while self.map.len() > self.capacity {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
                .expect("an over-full map has entries");
            self.map.remove(&oldest);
            self.stats.evictions += 1;
        }
    }

    /// Counters and the current entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.map.len() as u64,
            ..self.stats
        }
    }
}
