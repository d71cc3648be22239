//! Content-addressed FSMD equivalence verdicts, in memory.
//!
//! Whole-machine equivalence proofs are the most expensive stage of the
//! flow, and they repeat across clock twins, across directive sets that
//! synthesize one machine and across repeated requests. A verdict is
//! keyed by [`fsmd_key`], a hash of the machine's name, ports, control,
//! schedules and lowered design that deliberately *excludes*
//! [`rtl::Fsmd::clock_ns`]: clock twins chain identically, so one proof
//! covers them all. The key is the flow's only machine identity: the
//! service ([`crate::verify_equiv_cached`]) and the sweep prover
//! ([`crate::ExploreProver`]) both replay and record verdicts in a
//! [`ProofCache`] under it, and both prove with the default knobs, so
//! the key names the machine and nothing else.
//!
//! # Soundness
//!
//! The key is the machine's own [`std::hash::Hash`], digested by one
//! 128-bit [`StableHasher`]; nothing is rendered to text first. Every
//! field the proof reads is hashed, each at least as finely as the proof
//! can tell two values apart: a constant hashes as its raw bits and
//! format (`Fixed`'s `==` compares values, yet a shift reads its
//! operand's format), and a schedule time as its bit pattern. So equal
//! keys mean equal machines, up to a 128-bit collision, and a replayed
//! report — `Proved` or a counterexample — is byte-identical to
//! recomputing it. Where the hash is finer than behaviour (`-0.0` against
//! `0.0` in a schedule time) two machines that behave alike get two
//! keys, which costs a miss, never a wrong verdict; `tests/proof_key.rs`
//! checks on the Table-1 designs that the key splits exactly where a
//! structural comparison of every field does. There is no disk tier: a
//! key only has to agree within one process. The cache holds at most
//! [`CAPACITY`] verdicts and evicts the least recently used one; an
//! evicted machine simply re-proves.

use std::hash::Hash;
use std::sync::Mutex;

use hls_core::{CacheStats, Lru};
use hls_ir::StableHasher;
use rtl::Fsmd;

use crate::pipeline::VerifyReport;

/// Verdict bound. A long-lived `synthd --incremental` adds one verdict
/// per verified miss. The benchmark's verified workload served at most
/// 4,898 requests in one 15 s window on a 2-core host (327 requests/s),
/// and about 52% of its proof lookups miss, so one window stores at most
/// ~2,550 verdicts: 4,096 evict there only past ~525 requests/s.
pub const CAPACITY: usize = 4096;

/// Cache key for one FSMD equivalence proof.
///
/// Hashes the machine's name, ports, control, schedules and lowered
/// design: two machines equal in all of them get the same key regardless
/// of target clock — the clock only annotates emitted Verilog, never the
/// proved behavior.
pub fn fsmd_key(fsmd: &Fsmd) -> String {
    let mut hasher = StableHasher::new();
    (
        &fsmd.name,
        &fsmd.ports,
        &fsmd.control,
        &fsmd.schedules,
        &fsmd.lowered,
    )
        .hash(&mut hasher);
    hasher.hex()
}

/// Configuration for a [`ProofCache`]. Its one field can only be
/// `None`: it is kept only for the benchmark harness's
/// `ProofCacheConfig { persist_dir: None }`, and goes with the next
/// change to that harness.
#[derive(Debug, Clone, Default)]
pub struct ProofCacheConfig {
    /// Always `None`: there is no disk tier.
    pub persist_dir: Option<std::convert::Infallible>,
}

/// The proof cache's counters and occupancy.
pub type ProofCacheStats = CacheStats;

/// A bounded in-memory verdict cache, shared by reference across the
/// service's workers or owned by one [`crate::ExploreProver`].
#[derive(Debug)]
pub struct ProofCache {
    lru: Mutex<Lru<VerifyReport>>,
}

impl Default for ProofCache {
    fn default() -> ProofCache {
        ProofCache::in_memory()
    }
}

impl ProofCache {
    /// An empty cache; the same as [`ProofCache::in_memory`].
    pub fn new(_config: &ProofCacheConfig) -> ProofCache {
        ProofCache::in_memory()
    }

    /// An empty cache bounded at [`CAPACITY`] verdicts.
    pub fn in_memory() -> ProofCache {
        ProofCache::with_capacity(CAPACITY)
    }

    fn with_capacity(capacity: usize) -> ProofCache {
        ProofCache {
            lru: Mutex::new(Lru::new(capacity)),
        }
    }

    fn lru(&self) -> std::sync::MutexGuard<'_, Lru<VerifyReport>> {
        self.lru.lock().expect("proof cache poisoned")
    }

    /// Replays the FSMD verdict proved under `key`, if any.
    pub fn get_fsmd(&self, key: &str) -> Option<VerifyReport> {
        self.lru().get(key).cloned()
    }

    /// Records an FSMD verdict under `key`, evicting the least recently
    /// used verdict when the cache is full.
    pub fn put_fsmd(&self, key: &str, report: &VerifyReport) {
        self.lru().insert(key, report.clone());
    }

    /// Effectiveness counters and census.
    pub fn stats(&self) -> ProofCacheStats {
        self.lru().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{verify_equiv, verify_equiv_cached};
    use hls_core::{synthesize, Directives, TechLibrary, Unroll};
    use hls_ir::parse_function;

    const SRC: &str = r#"
        void k(sc_fixed<6,3> x[4], sc_fixed<10,6> *out) {
            sc_fixed<10,6> acc = 0;
            l: for (int i = 0; i < 4; i++) {
                acc += x[i] * 2;
            }
            *out = acc;
        }
    "#;

    /// Three structurally different machines: the kernel unrolled by 1,
    /// 2 and 4.
    fn machines() -> Vec<Fsmd> {
        let func = parse_function(SRC).unwrap();
        [1, 2, 4]
            .iter()
            .map(|&u| {
                let d = Directives::new(10.0).unroll("l", Unroll::Factor(u));
                let r = synthesize(&func, &d, &TechLibrary::asic_100mhz()).unwrap();
                Fsmd::from_synthesis(&r)
            })
            .collect()
    }

    #[test]
    fn lru_evicts_the_least_recently_used_verdict() {
        let m = machines();
        let keys: Vec<String> = m.iter().map(fsmd_key).collect();
        assert!(keys[0] != keys[1] && keys[1] != keys[2] && keys[0] != keys[2]);
        let cache = ProofCache::with_capacity(2);
        let first = verify_equiv_cached(&m[0], &cache);
        verify_equiv_cached(&m[1], &cache);
        // A hit refreshes machine 0, so the third verdict displaces
        // machine 1.
        assert!(cache.get_fsmd(&keys[0]).is_some());
        verify_equiv_cached(&m[2], &cache);
        assert!(cache.get_fsmd(&keys[1]).is_none());
        assert!(cache.get_fsmd(&keys[0]).is_some());
        assert!(cache.get_fsmd(&keys[2]).is_some());
        let s = cache.stats();
        assert_eq!((s.inserts, s.evictions, s.entries), (3, 1, 2));
        assert_eq!((s.hits, s.misses), (3, 4));

        // The evicted machine re-proves, to the report a fresh proof
        // gives, and displaces the now least recently used machine 0.
        let again = verify_equiv_cached(&m[1], &cache);
        assert!(again.passed(), "{}", again.describe());
        assert_eq!(format!("{again:?}"), format!("{:?}", verify_equiv(&m[1])));
        assert_eq!(cache.stats().evictions, 2);
        assert!(cache.get_fsmd(&keys[0]).is_none());
        assert_eq!(format!("{first:?}"), format!("{:?}", verify_equiv(&m[0])));
    }
}
