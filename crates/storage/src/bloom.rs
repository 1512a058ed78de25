//! Per-run bloom filters for the LSM read path.
//!
//! An LSM point lookup that misses the memtable must probe every
//! immutable run newest-first; on a missing key that is `O(runs)` binary
//! searches for nothing. A bloom filter in front of each run answers
//! "definitely not here" from a handful of bit tests, so a miss touches
//! the run's sorted entries only on the (rare) false positive — the
//! standard LevelDB/RocksDB trick, sized here by bits-per-key.
//!
//! The filter uses double hashing (Kirsch–Mitzenmacher): two independent
//! Fx hashes `h1`, `h2` derive the `k` probe positions as
//! `h1 + i·h2 mod m`, which preserves the classic false-positive rate
//! without `k` full hash passes over the key.

use mv_common::hash::FxHasher;
use std::hash::Hasher as _;

/// A fixed-size bloom filter over byte-string keys.
#[derive(Debug, Clone)]
pub(crate) struct Bloom {
    bits: Vec<u64>,
    /// Total bit count (`bits.len() * 64`).
    nbits: u64,
    /// Number of probe positions per key.
    k: u32,
}

fn hash_with_seed(key: &[u8], seed: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(seed);
    h.write(key);
    h.finish()
}

impl Bloom {
    /// A filter sized for `expected_keys` at `bits_per_key` bits each.
    /// `k` is derived as `bits_per_key · ln 2`, clamped to `[1, 8]` —
    /// the optimum for the classic false-positive formula.
    pub(crate) fn with_params(expected_keys: usize, bits_per_key: usize) -> Self {
        let nbits = (expected_keys.max(1) * bits_per_key.max(1)).max(64) as u64;
        let words = nbits.div_ceil(64) as usize;
        let k = ((bits_per_key as f64 * std::f64::consts::LN_2).round() as u32).clamp(1, 8);
        Bloom { bits: vec![0u64; words], nbits: words as u64 * 64, k }
    }

    /// Build a filter over an iterator of keys.
    pub(crate) fn from_keys<'a>(
        keys: impl Iterator<Item = &'a [u8]>,
        expected_keys: usize,
        bits_per_key: usize,
    ) -> Self {
        let mut bloom = Bloom::with_params(expected_keys, bits_per_key);
        for key in keys {
            bloom.insert(key);
        }
        bloom
    }

    #[inline]
    fn probes(&self, key: &[u8]) -> impl Iterator<Item = u64> + '_ {
        let h1 = hash_with_seed(key, 0x9e37_79b9_7f4a_7c15);
        // An even h2 would cycle through a subgroup of the bit positions;
        // forcing it odd keeps the probe sequence full-period.
        let h2 = hash_with_seed(key, 0xc2b2_ae3d_27d4_eb4f) | 1;
        (0..self.k as u64).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % self.nbits)
    }

    /// Add a key.
    pub fn insert(&mut self, key: &[u8]) {
        let positions: Vec<u64> = self.probes(key).collect();
        for pos in positions {
            self.bits[(pos / 64) as usize] |= 1 << (pos % 64);
        }
    }

    /// True when the key *may* be present; false means definitely absent.
    #[inline]
    pub(crate) fn may_contain(&self, key: &[u8]) -> bool {
        self.probes(key)
            .all(|pos| self.bits[(pos / 64) as usize] & (1 << (pos % 64)) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserted_keys_are_always_found() {
        let keys: Vec<Vec<u8>> = (0..1_000u32).map(|i| format!("key-{i}").into_bytes()).collect();
        let bloom = Bloom::from_keys(keys.iter().map(Vec::as_slice), keys.len(), 10);
        for k in &keys {
            assert!(bloom.may_contain(k), "no false negatives allowed");
        }
    }

    #[test]
    fn false_positive_rate_is_near_theory() {
        let keys: Vec<Vec<u8>> = (0..10_000u32).map(|i| format!("in-{i}").into_bytes()).collect();
        let bloom = Bloom::from_keys(keys.iter().map(Vec::as_slice), keys.len(), 10);
        let mut fps = 0u32;
        let probes = 10_000u32;
        for i in 0..probes {
            if bloom.may_contain(format!("out-{i}").as_bytes()) {
                fps += 1;
            }
        }
        // 10 bits/key with optimal k gives ~1% FP; allow generous slack.
        let rate = fps as f64 / probes as f64;
        assert!(rate < 0.05, "false-positive rate {rate} too high");
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let bloom = Bloom::with_params(100, 10);
        assert!(!bloom.may_contain(b"anything"));
        assert!(bloom.bits.len() * 8 >= 100 * 10 / 8);
    }

    #[test]
    fn tiny_filters_are_clamped_to_a_useful_floor() {
        // Zero expected keys / 1 bit per key still yields a working filter.
        let mut bloom = Bloom::with_params(0, 1);
        bloom.insert(b"x");
        assert!(bloom.may_contain(b"x"));
    }
}
