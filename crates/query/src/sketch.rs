//! Sketch-based distributed metadata estimation (HyperLogLog).
//!
//! §IV-G, fifth challenge: *"ensure that meta-data that are required for
//! optimization can be estimated locally at each site/cluster to
//! minimize information exchange, while at the same time the quality of
//! the generated plan may not be significantly compromised."*
//!
//! Cardinalities are the optimizer metadata that matter most (join
//! ordering, distinct counts for group-by sizing). The classic answer is
//! a mergeable sketch: every site summarizes its local column into a
//! [`Hll`] (2^b byte registers), ships the sketch instead of the data,
//! and the coordinator merges sketches register-wise — union cardinality
//! at ~1.04/√m relative error for m-register sketches. E11e measures
//! bytes exchanged and estimate error against shipping raw values.

use mv_common::hash::fx_hash_one;
use std::hash::Hash;

/// The murmur3 64-bit finalizer: full-avalanche bit mixing.
#[inline]
fn mix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// A HyperLogLog cardinality sketch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hll {
    /// log2 of the register count.
    b: u8,
    registers: Vec<u8>,
}

impl Hll {
    /// Create a sketch with `2^b` registers (`4 ≤ b ≤ 16`).
    pub fn new(b: u8) -> Self {
        assert!((4..=16).contains(&b), "b must be in 4..=16");
        Hll { b, registers: vec![0; 1 << b] }
    }

    /// Number of registers.
    pub fn m(&self) -> usize {
        self.registers.len()
    }

    /// Serialized size in bytes (what a site ships to the coordinator).
    pub fn bytes(&self) -> usize {
        self.registers.len() + 1
    }

    /// Add one value.
    pub fn insert<T: Hash>(&mut self, value: &T) {
        // FxHash is fast but its extreme bits are too structured for
        // register bucketing (sequential keys stride through buckets);
        // run the murmur3 finalizer to get avalanche behaviour.
        let h = mix64(fx_hash_one(value));
        let idx = (h >> (64 - self.b)) as usize;
        let rest = h << self.b;
        // Rank: leading zeros of the remaining bits + 1 (capped).
        let rank = (rest.leading_zeros() as u8 + 1).min(64 - self.b + 1);
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Merge another sketch (register-wise max). Sketches must share `b`.
    ///
    /// # Panics
    /// Panics on mismatched register counts.
    pub fn merge(&mut self, other: &Hll) {
        assert_eq!(self.b, other.b, "cannot merge sketches of different precision");
        for (r, o) in self.registers.iter_mut().zip(&other.registers) {
            *r = (*r).max(*o);
        }
    }

    /// Estimate the distinct count.
    pub fn estimate(&self) -> f64 {
        let m = self.m() as f64;
        let alpha = match self.m() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        };
        let sum: f64 = self.registers.iter().map(|&r| 2f64.powi(-(r as i32))).sum();
        let raw = alpha * m * m / sum;
        // Small-range correction: linear counting.
        let zeros = self.registers.iter().filter(|&&r| r == 0).count();
        if raw <= 2.5 * m && zeros > 0 {
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_common::seeded_rng;
    use rand::Rng;

    #[test]
    fn estimates_within_expected_error() {
        for &n in &[100usize, 10_000, 200_000] {
            let mut h = Hll::new(12); // 4096 registers → ~1.6% error
            for i in 0..n {
                h.insert(&(i as u64));
            }
            let est = h.estimate();
            let rel = (est - n as f64).abs() / n as f64;
            assert!(rel < 5.0 * 1.04 / (h.m() as f64).sqrt(), "n={n}: est {est}, rel {rel}");
        }
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut h = Hll::new(10);
        for _ in 0..50 {
            for i in 0..1000u64 {
                h.insert(&i);
            }
        }
        let est = h.estimate();
        assert!((est - 1000.0).abs() / 1000.0 < 0.2, "est {est}");
    }

    #[test]
    fn merge_equals_union() {
        let mut rng = seeded_rng(5);
        let mut a = Hll::new(12);
        let mut b = Hll::new(12);
        let mut union = Hll::new(12);
        let mut truth = std::collections::BTreeSet::new();
        for _ in 0..20_000 {
            let v: u64 = rng.gen_range(0..30_000);
            if rng.gen_bool(0.5) {
                a.insert(&v);
            } else {
                b.insert(&v);
            }
            union.insert(&v);
            truth.insert(v);
        }
        a.merge(&b);
        assert_eq!(a, union, "merge must equal inserting the union directly");
        let rel = (a.estimate() - truth.len() as f64).abs() / truth.len() as f64;
        assert!(rel < 0.1, "union estimate off by {rel}");
    }

    #[test]
    fn sketch_is_tiny_versus_the_data() {
        let h = Hll::new(12);
        assert_eq!(h.bytes(), 4097);
        // 200k 8-byte values would be 1.6 MB on the wire.
        assert!(h.bytes() * 100 < 200_000 * 8);
    }

    #[test]
    #[should_panic(expected = "different precision")]
    fn mismatched_merge_panics() {
        let mut a = Hll::new(10);
        a.merge(&Hll::new(12));
    }
}
