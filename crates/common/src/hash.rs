//! Fast hashing for hot paths.
//!
//! The default std hasher (SipHash 1-3) is designed to resist HashDoS,
//! which is irrelevant inside a simulator and measurably slow for the
//! integer keys (ids, grid cells, versions) that dominate this workspace.
//! [`FxHasher`] reimplements the rustc/Firefox "Fx" multiply-xor hash —
//! the perf guide's first recommendation — so we do not need to add a
//! dependency outside the allowed crate list.
//!
//! Use [`FastMap`]/[`FastSet`] wherever iteration order does not matter;
//! use `BTreeMap` where deterministic iteration order is observable
//! (experiment output must be reproducible).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Fx hash (64-bit golden-ratio-ish).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hash: for each 8-byte word, `state = (state rotl 5 ^ word) * SEED`.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let (head, tail) = bytes.split_at(8);
            self.add(u64::from_le_bytes(head.try_into().unwrap()));
            bytes = tail;
        }
        if !bytes.is_empty() {
            let mut buf = [0u8; 8];
            buf[..bytes.len()].copy_from_slice(bytes);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the fast Fx hash.
pub type FastMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the fast Fx hash.
pub type FastSet<K> = HashSet<K, FxBuildHasher>;

/// Hash one value with the Fx hash (handy for content fingerprints).
pub fn fx_hash_one<T: std::hash::Hash>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_basics() {
        let mut m: FastMap<u64, &str> = FastMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn hash_is_stable_per_value() {
        assert_eq!(fx_hash_one(&12345u64), fx_hash_one(&12345u64));
        assert_ne!(fx_hash_one(&12345u64), fx_hash_one(&12346u64));
        assert_eq!(fx_hash_one(&"abc"), fx_hash_one(&"abc"));
    }

    #[test]
    fn byte_tail_is_hashed() {
        // Strings differing only in a sub-8-byte tail must differ.
        assert_ne!(fx_hash_one(&"aaaaaaaab"), fx_hash_one(&"aaaaaaaac"));
    }

    #[test]
    fn distribution_smoke() {
        // Sequential integer keys should spread over the low bits (the
        // bits hashbrown indexes with): most of 4096 keys should land in
        // distinct buckets of a 4096-bucket table.
        let mut buckets = vec![false; 4096];
        let mut distinct = 0usize;
        for i in 0..4096u64 {
            let b = (fx_hash_one(&i) & 0xfff) as usize;
            if !buckets[b] {
                buckets[b] = true;
                distinct += 1;
            }
        }
        assert!(distinct > 2200, "poor distribution: {distinct}/4096");
    }
}
