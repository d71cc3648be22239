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
//! The synthesis chain makes at most one lookup, in `loop-transforms`,
//! and one publication, in `netlist-opt` ([`crate::pipeline`]); the
//! explorer reads or publishes one prefix per transform signature.
//! Storage is memory only: one map bounded by a fixed [`Lru`] entry
//! count, so a key only has to agree within one process. A hit replays
//! the exact cold-run objects, so cached and uncached runs produce
//! byte-identical artifacts.

use std::sync::{Arc, Mutex};

use hls_ir::{stable_digest, Function};

use crate::directives::Directives;
use crate::lower::Lowered;
use crate::lru::{CacheStats, Lru};
use crate::netlist::NetlistReport;
use crate::tech::TechLibrary;
use crate::transform::TransformResult;

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
    stable_digest(format!("base;{func}").as_bytes())
}

/// `loop-transforms` key: input function plus the merge policy and
/// per-loop directives the transform pipeline reads (the same subset
/// the explorer's `transform_signature` renders).
pub fn transform_key(base_key: &str, d: &Directives) -> String {
    stable_digest(
        format!(
            "loop-transforms;{base_key};{}",
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
            "lower;{transform_key};loops={:?};arrays={:?};ifaces={:?}",
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
            "netlist-opt;{lower_key};opt={};lib={}",
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

// ---------------------------------------------------------------------------
// The cache
// ---------------------------------------------------------------------------

/// Configuration for [`PassCache`]. It has no settings: it is kept only
/// for the benchmark harness's `PassCache::new(PassCacheConfig::default())`
/// calls, and goes with the next change to that harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassCacheConfig;

/// The prefix cache's counters and occupancy.
pub type PassCacheStats = CacheStats;

/// The in-memory, content-addressed prefix cache. Cheap to share: clone
/// an `Arc<PassCache>` into every [`crate::pipeline::PipelineConfig`]
/// (or [`crate::ExploreConfig`]) that should reuse prefixes.
pub struct PassCache {
    lru: Mutex<Lru<Arc<NetlistEntry>>>,
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
        PassCache::with_capacity(CAPACITY)
    }
}

impl PassCache {
    /// Creates an empty cache bounded at the default capacity.
    pub fn new(_cfg: PassCacheConfig) -> PassCache {
        PassCache::default()
    }

    fn with_capacity(capacity: usize) -> PassCache {
        PassCache {
            lru: Mutex::new(Lru::new(capacity)),
        }
    }

    fn lru(&self) -> std::sync::MutexGuard<'_, Lru<Arc<NetlistEntry>>> {
        self.lru.lock().expect("prefix cache poisoned")
    }

    /// Snapshot of counters and occupancy.
    pub fn stats(&self) -> PassCacheStats {
        self.lru().stats()
    }

    /// Looks up the prefix cached under `key` (a [`netlist_key`]).
    pub fn get(&self, key: &str) -> Option<Arc<NetlistEntry>> {
        self.lru().get(key).map(Arc::clone)
    }

    /// Publishes a prefix.
    pub fn put(&self, key: &str, entry: &Arc<NetlistEntry>) {
        self.lru().insert(key, Arc::clone(entry));
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
        let cache = PassCache::with_capacity(2);
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
}
