//! Structured P2P key lookup (Chord-style).
//!
//! §IV-E: *"For queries that access static data that are stored locally,
//! techniques that can facilitate search/discovery of relevant
//! information are critical. P2P search methods may be applicable here
//! \[42\], \[45\], \[83\]."* — and the architecture vision closes with
//! *"publish/subscribe system over peer-to-peer networks"*.
//!
//! This module implements the canonical structured overlay: peers sit on
//! a 64-bit identifier ring, every key is owned by its successor, and
//! each peer keeps a logarithmic finger table. Greedy finger routing
//! reaches any key's owner in O(log n) hops; the naive baseline walks
//! the ring successor-by-successor in O(n). E15c measures both.

use mv_common::hash::fx_hash_one;

/// A Chord-style ring over the given peer ids.
#[derive(Debug)]
pub struct ChordRing {
    /// Sorted peer ids on the 64-bit ring.
    peers: Vec<u64>,
    /// fingers[i][k] = index (into `peers`) of the peer owning
    /// `peers[i] + 2^k`.
    fingers: Vec<Vec<usize>>,
}

/// Result of a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// lint:allow(dead-pub): returned by `ChordRing::lookup`, which other crates call
pub struct Lookup {
    /// Index (into the peer list) of the key's owner.
    pub owner: usize,
    /// Overlay hops taken.
    pub hops: u32,
}

impl ChordRing {
    /// Build a ring from peer ids (deduplicated, sorted internally).
    ///
    /// # Panics
    /// Panics on an empty peer set.
    pub fn new(mut peer_ids: Vec<u64>) -> Self {
        peer_ids.sort_unstable();
        peer_ids.dedup();
        assert!(!peer_ids.is_empty(), "a ring needs at least one peer");
        let mut ring = ChordRing { peers: peer_ids, fingers: Vec::new() };
        ring.rebuild_fingers();
        ring
    }

    /// Build a ring of `n` synthetic peers (ids hashed from indices, so
    /// the ring is uniformly populated).
    pub fn with_peers(n: usize) -> Self {
        ChordRing::new((0..n as u64).map(|i| fx_hash_one(&(i, "peer"))).collect())
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// True when the ring has no peers (construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Index of the peer owning `key` (its successor on the ring).
    pub(crate) fn owner_of(&self, key: u64) -> usize {
        match self.peers.binary_search(&key) {
            Ok(i) => i,
            Err(i) => i % self.peers.len(),
        }
    }

    fn rebuild_fingers(&mut self) {
        let n = self.peers.len();
        self.fingers = (0..n)
            .map(|i| {
                (0..64)
                    .map(|k| self.owner_of(self.peers[i].wrapping_add(1u64 << k)))
                    .collect()
            })
            .collect();
    }

    /// Peer joins; fingers are rebuilt (a real deployment stabilizes
    /// incrementally; correctness is what the experiments need).
    pub fn join(&mut self, peer_id: u64) {
        if let Err(i) = self.peers.binary_search(&peer_id) {
            self.peers.insert(i, peer_id);
            self.rebuild_fingers();
        }
    }

    /// Clockwise distance from `a` to `b` on the ring.
    #[inline]
    fn dist(a: u64, b: u64) -> u64 {
        b.wrapping_sub(a)
    }

    /// Greedy finger routing from peer index `start` to `key`'s owner.
    pub fn lookup(&self, start: usize, key: u64) -> Lookup {
        let owner = self.owner_of(key);
        let mut cur = start;
        let mut hops = 0u32;
        while cur != owner {
            // Jump to the finger that gets closest to the key without
            // overshooting it (classic closest-preceding-finger rule).
            let mut best = cur;
            let mut best_dist = Self::dist(self.peers[cur], key);
            for &f in &self.fingers[cur] {
                if f == cur {
                    continue;
                }
                let d = Self::dist(self.peers[f], key);
                if d < best_dist {
                    best = f;
                    best_dist = d;
                }
            }
            if best == cur {
                // No finger improves: the successor owns the key.
                cur = owner;
            } else {
                cur = best;
            }
            hops += 1;
        }
        Lookup { owner, hops }
    }

    /// Baseline: walk the ring successor-by-successor.
    pub fn lookup_naive(&self, start: usize, key: u64) -> Lookup {
        let owner = self.owner_of(key);
        let n = self.peers.len();
        let hops = ((owner + n) - start) % n;
        Lookup { owner, hops: hops as u32 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_common::seeded_rng;
    use rand::Rng;

    #[test]
    fn owner_is_successor_on_the_ring() {
        let ring = ChordRing::new(vec![10, 20, 30]);
        assert_eq!(ring.owner_of(10), 0);
        assert_eq!(ring.owner_of(15), 1);
        assert_eq!(ring.owner_of(30), 2);
        assert_eq!(ring.owner_of(31), 0, "wraps to the smallest id");
    }

    #[test]
    fn lookup_agrees_with_naive_and_is_logarithmic() {
        let ring = ChordRing::with_peers(1024);
        let mut rng = seeded_rng(77);
        let mut max_hops = 0;
        for _ in 0..300 {
            let key: u64 = rng.gen();
            let start = rng.gen_range(0..ring.len());
            let fast = ring.lookup(start, key);
            let slow = ring.lookup_naive(start, key);
            assert_eq!(fast.owner, slow.owner, "both must find the true owner");
            max_hops = max_hops.max(fast.hops);
        }
        // log2(1024) = 10; greedy routing stays within a small multiple.
        assert!(max_hops <= 14, "max hops {max_hops} for 1024 peers");
    }

    #[test]
    fn hops_grow_logarithmically_with_ring_size() {
        let mut rng = seeded_rng(78);
        let mean_hops = |n: usize, rng: &mut rand::rngs::StdRng| -> f64 {
            let ring = ChordRing::with_peers(n);
            let total: u32 = (0..200)
                .map(|_| ring.lookup(rng.gen_range(0..n), rng.gen()).hops)
                .sum();
            total as f64 / 200.0
        };
        let small = mean_hops(64, &mut rng);
        let big = mean_hops(4096, &mut rng);
        // 64× more peers, hops grow by roughly log ratio (~2×), not 64×.
        assert!(big < small * 3.0, "small {small}, big {big}");
        assert!(big > small, "more peers must take more hops");
    }

    #[test]
    fn join_preserves_correctness() {
        let mut ring = ChordRing::new(vec![100, 200, 300]);
        ring.join(250);
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.peers[ring.owner_of(220)], 250);
        let solo = ChordRing::new(vec![5]);
        assert_eq!(solo.lookup(0, 42).hops, 0);
    }

    #[test]
    fn duplicate_ids_are_deduplicated() {
        let ring = ChordRing::new(vec![7, 7, 9]);
        assert_eq!(ring.len(), 2);
    }
}
