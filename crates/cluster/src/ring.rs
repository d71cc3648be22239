//! Consistent-hash routing by content digest.
//!
//! The store already shards its directory layout by the digest's first
//! byte (`objects/<2-hex-prefix>/`), so the 256 prefixes are the
//! natural unit of ownership: the ring maps each prefix onto one owner
//! shard, and every request routes by `RequestKey::shard_prefix`.
//!
//! The ring is the classic virtual-node construction: each member
//! contributes `vnodes` points on a `u64` circle (the first 64 bits of
//! the [`StableHasher`] digest of `"<name>#<v>"`, the hash the store
//! keys use), each prefix hashes to a point, and the owner is the first
//! member point clockwise. Properties the tests pin down:
//!
//! - **Deterministic**: ownership is a pure function of the member
//!   names — every shard computes the identical ring from the shared
//!   `--peers` list, with no coordination traffic.
//! - **Balanced**: with the default vnode count the 256 prefixes split
//!   across members within a reasonable factor.
//! - **Stable under growth**: adding a member re-homes roughly
//!   `256/(n+1)` prefixes and never moves a prefix between two
//!   surviving members.
//!
//! Replica placement walks the circle past the owner collecting the
//! next *distinct* members, so an entry's copies land on different
//! shards and a read of a popular entry survives a shard loss.

use std::hash::Hasher;

use hls_ir::StableHasher;

/// Default virtual nodes per member.
pub const DEFAULT_VNODES: usize = 64;

/// A consistent-hash ring over the 256 digest prefixes.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(position, member index)` sorted by position.
    points: Vec<(u64, usize)>,
    members: usize,
}

/// Hashes an arbitrary label onto the ring circle: the first 64 bits of
/// its digest.
fn point(label: &str) -> u64 {
    let mut hasher = StableHasher::new();
    hasher.write(label.as_bytes());
    hasher.finish()
}

impl HashRing {
    /// Builds the ring for `names` (one per member, order = shard
    /// index) with `vnodes` points each. Names must be the same on
    /// every shard — the member addresses as written in `--peers`.
    pub fn new(names: &[String], vnodes: usize) -> HashRing {
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(names.len() * vnodes);
        for (i, name) in names.iter().enumerate() {
            for v in 0..vnodes {
                points.push((point(&format!("{name}#{v}")), i));
            }
        }
        // Ties (astronomically unlikely) break by member index so the
        // ring is still a pure function of the name list.
        points.sort_unstable();
        HashRing {
            points,
            members: names.len(),
        }
    }

    /// Number of members on the ring.
    pub fn members(&self) -> usize {
        self.members
    }

    /// The member owning a digest prefix.
    pub fn owner(&self, prefix: u8) -> usize {
        self.replicas(prefix, 1)[0]
    }

    /// The first `n` *distinct* members clockwise from the prefix's
    /// point: the owner first, then the replica holders. `n` is capped
    /// at the member count.
    pub fn replicas(&self, prefix: u8, n: usize) -> Vec<usize> {
        let n = n.clamp(1, self.members.max(1));
        let p = point(&format!("prefix/{prefix:02x}"));
        let start = self.points.partition_point(|&(pos, _)| pos < p);
        let mut out = Vec::with_capacity(n);
        for i in 0..self.points.len() {
            let (_, member) = self.points[(start + i) % self.points.len()];
            if !out.contains(&member) {
                out.push(member);
                if out.len() == n {
                    break;
                }
            }
        }
        out
    }

    /// Prefix counts per member — the balance histogram.
    pub fn load(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.members];
        for prefix in 0..=255u8 {
            counts[self.owner(prefix)] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| format!("unix:/tmp/shard-{i}.sock"))
            .collect()
    }

    #[test]
    fn ownership_is_deterministic_and_total() {
        let a = HashRing::new(&names(3), DEFAULT_VNODES);
        let b = HashRing::new(&names(3), DEFAULT_VNODES);
        for prefix in 0..=255u8 {
            assert_eq!(a.owner(prefix), b.owner(prefix));
            assert!(a.owner(prefix) < 3);
        }
    }

    #[test]
    fn load_is_reasonably_balanced() {
        let ring = HashRing::new(&names(3), DEFAULT_VNODES);
        let load = ring.load();
        assert_eq!(load.iter().sum::<usize>(), 256);
        for (i, &l) in load.iter().enumerate() {
            // Perfect would be ~85; accept a 2x imbalance either way.
            assert!((43..=171).contains(&l), "member {i} owns {l} prefixes");
        }
    }

    #[test]
    fn replicas_are_distinct_and_start_at_the_owner() {
        let ring = HashRing::new(&names(3), DEFAULT_VNODES);
        for prefix in 0..=255u8 {
            let r = ring.replicas(prefix, 2);
            assert_eq!(r.len(), 2);
            assert_eq!(r[0], ring.owner(prefix));
            assert_ne!(r[0], r[1]);
        }
        // Asking for more copies than members caps out.
        assert_eq!(ring.replicas(0, 9).len(), 3);
    }

    #[test]
    fn growth_moves_only_a_fraction_and_only_to_the_newcomer() {
        let three = HashRing::new(&names(3), DEFAULT_VNODES);
        let four = HashRing::new(&names(4), DEFAULT_VNODES);
        let mut moved = 0;
        for prefix in 0..=255u8 {
            let (before, after) = (three.owner(prefix), four.owner(prefix));
            if before != after {
                moved += 1;
                assert_eq!(after, 3, "prefix {prefix:02x} moved between survivors");
            }
        }
        // Expected ~256/4 = 64; consistent hashing keeps it near that,
        // never the wholesale reshuffle a mod-N scheme would cause.
        assert!(moved > 0 && moved <= 128, "moved {moved} prefixes");
    }
}
