//! A multiply-rotate hasher (the `FxHash` scheme) for the dependence
//! analysis's access keys: a variable id, an element index and a write
//! flag. It costs a fraction of the std default, SipHash, per key, but
//! its hashes are fixed, so element indices taken from client source
//! could be crafted to collide. That is tolerable only here: with every
//! key colliding, each lookup scans the keys of one loop, so the
//! analysis falls back to work quadratic in a loop's accesses, the order
//! of the pairwise comparison the summaries replaced. A map whose
//! collisions would cost more than the linear work it exists for, such
//! as the netlist rewriter's memo, keeps SipHash.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Folds each word in with a rotate, an xor and a multiply.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FxHasher(u64);

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(i.into());
    }

    fn write_u32(&mut self, i: u32) {
        self.add(i.into());
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
