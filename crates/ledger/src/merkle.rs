//! Append-only Merkle tree with inclusion and consistency proofs.
//!
//! Hashing follows RFC 6962 (Certificate Transparency): leaves are
//! `H(0x00 ‖ data)`, interior nodes `H(0x01 ‖ left ‖ right)`, and the
//! tree over `n` leaves splits at the largest power of two strictly
//! smaller than `n`. Inclusion proofs are the standard audit paths.
//!
//! Consistency proofs use an RFC-6962-*inspired* explicit-tile format:
//! the proof carries the hashes of the maximal aligned power-of-two
//! subtrees ("tiles") that decompose `[0, n0)` and tile `[n0, n1)`. The
//! verifier recomputes *both* roots from those committed tiles, so a
//! prover cannot claim consistency between unrelated trees. Proofs stay
//! O(log n), marginally larger than RFC 6962's, with a much simpler
//! verifier — a trade DESIGN.md documents.

use crate::sha256::{sha256, sha256_pair};
use mv_common::hash::FastMap;
use serde::{Deserialize, Serialize};

/// A 32-byte SHA-256 digest.
pub(crate) type Digest = [u8; 32];

const LEAF_PREFIX: u8 = 0x00;
const NODE_PREFIX: u8 = 0x01;

/// Hash a leaf (domain-separated).
pub(crate) fn leaf_hash(data: &[u8]) -> Digest {
    let mut buf = Vec::with_capacity(1 + data.len());
    buf.push(LEAF_PREFIX);
    buf.extend_from_slice(data);
    sha256(&buf)
}

/// Hash an interior node.
#[inline]
pub(crate) fn node_hash(left: &Digest, right: &Digest) -> Digest {
    sha256_pair(NODE_PREFIX, left, right)
}

/// An inclusion proof for one leaf against a tree root.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
// lint:allow(dead-pub): returned by `MerkleTree::prove_inclusion`, which other crates call
pub struct InclusionProof {
    /// Leaf index.
    pub index: u64,
    /// Tree size the proof targets.
    pub tree_size: u64,
    /// Sibling hashes, bottom-up.
    pub path: Vec<Digest>,
}

impl InclusionProof {
    /// Proof size in bytes (for E5's proof-size table).
    pub fn size_bytes(&self) -> usize {
        16 + 32 * self.path.len()
    }
}

/// A consistency proof between two historical sizes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
// lint:allow(dead-pub): returned by `MerkleTree::prove_consistency`, which other crates call
pub struct ConsistencyProof {
    /// Old tree size.
    pub old_size: u64,
    /// New tree size.
    pub new_size: u64,
    /// Hashes of the tiles decomposing `[0, old_size)`, ascending offset.
    pub old_tiles: Vec<Digest>,
    /// Hashes of the tiles tiling `[old_size, new_size)`, ascending.
    pub new_tiles: Vec<Digest>,
}

impl ConsistencyProof {
    /// Proof size in bytes.
    pub fn size_bytes(&self) -> usize {
        16 + 32 * (self.old_tiles.len() + self.new_tiles.len())
    }
}

/// Decompose `[0, n)` into maximal aligned power-of-two tiles
/// (binary decomposition, descending sizes).
fn decompose_prefix(n: u64) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut offset = 0u64;
    let mut bit = 63u32;
    loop {
        let size = 1u64 << bit;
        if n & size != 0 {
            out.push((offset, size));
            offset += size;
        }
        if bit == 0 {
            break;
        }
        bit -= 1;
    }
    out
}

/// Tile `[a, b)` greedily with aligned power-of-two tiles.
fn tile_range(a: u64, b: u64) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut p = a;
    while p < b {
        let align = if p == 0 { u64::MAX } else { 1u64 << p.trailing_zeros() };
        let mut size = align.min(b - p);
        // Round size down to a power of two.
        size = if size.is_power_of_two() { size } else { 1u64 << (63 - size.leading_zeros()) };
        out.push((p, size));
        p += size;
    }
    out
}

/// Fold a set of contiguous aligned tiles (ascending offsets, tiling
/// `[0, n)`) into the RFC-6962 root: merge aligned sibling pairs
/// bottom-up, then right-fold the descending remainder.
fn fold_tiles(tiles: &[(u64, u64, Digest)]) -> Option<Digest> {
    let mut stack: Vec<(u64, u64, Digest)> = Vec::with_capacity(tiles.len());
    for &t in tiles {
        stack.push(t);
        loop {
            let n = stack.len();
            if n < 2 {
                break;
            }
            let (lo, ls, lh) = stack[n - 2];
            let (ro, rs, rh) = stack[n - 1];
            if ls == rs && lo + ls == ro && lo % (2 * ls) == 0 {
                let merged = (lo, 2 * ls, node_hash(&lh, &rh));
                stack.truncate(n - 2);
                stack.push(merged);
            } else {
                break;
            }
        }
    }
    let (_, _, mut acc) = *stack.last()?;
    for &(_, _, h) in stack.iter().rev().skip(1) {
        acc = node_hash(&h, &acc);
    }
    Some(acc)
}

/// The append-only tree.
#[derive(Debug, Default)]
pub struct MerkleTree {
    leaves: Vec<Digest>,
    /// Memo of complete power-of-two subtree hashes (stable forever in an
    /// append-only tree).
    memo: FastMap<(u64, u64), Digest>,
}

impl MerkleTree {
    /// An empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a leaf; returns its index.
    pub fn append(&mut self, data: &[u8]) -> u64 {
        self.leaves.push(leaf_hash(data));
        self.leaves.len() as u64 - 1
    }

    /// Number of leaves.
    pub fn size(&self) -> u64 {
        self.leaves.len() as u64
    }

    /// Hash of the subtree over `[start, start+n)` (RFC 6962 recursion).
    fn subtree(&mut self, start: u64, n: u64) -> Digest {
        debug_assert!(n >= 1 && start + n <= self.size());
        if n == 1 {
            return self.leaves[start as usize];
        }
        let memoizable = n.is_power_of_two();
        if memoizable {
            if let Some(h) = self.memo.get(&(start, n)) {
                return *h;
            }
        }
        let k = largest_pow2_below(n);
        let left = self.subtree(start, k);
        let right = self.subtree(start + k, n - k);
        let h = node_hash(&left, &right);
        if memoizable {
            self.memo.insert((start, n), h);
        }
        h
    }

    /// Root over the first `n` leaves (historical root).
    ///
    /// # Panics
    /// Panics if `n` exceeds the current size.
    pub(crate) fn root_at(&mut self, n: u64) -> Digest {
        assert!(n <= self.size(), "root_at({n}) beyond size {}", self.size());
        if n == 0 {
            return sha256(b"");
        }
        self.subtree(0, n)
    }

    /// Current root.
    pub fn root(&mut self) -> Digest {
        self.root_at(self.size())
    }

    /// Inclusion proof for leaf `index` in the tree of size `tree_size`.
    pub fn prove_inclusion(&mut self, index: u64, tree_size: u64) -> InclusionProof {
        assert!(index < tree_size && tree_size <= self.size());
        let mut path = Vec::new();
        self.path_rec(index, 0, tree_size, &mut path);
        InclusionProof { index, tree_size, path }
    }

    fn path_rec(&mut self, m: u64, start: u64, n: u64, out: &mut Vec<Digest>) {
        if n == 1 {
            return;
        }
        let k = largest_pow2_below(n);
        if m < k {
            self.path_rec(m, start, k, out);
            let sib = self.subtree(start + k, n - k);
            out.push(sib);
        } else {
            self.path_rec(m - k, start + k, n - k, out);
            let sib = self.subtree(start, k);
            out.push(sib);
        }
    }

    /// Consistency proof between historical sizes `old_size ≤ new_size`.
    pub fn prove_consistency(&mut self, old_size: u64, new_size: u64) -> ConsistencyProof {
        assert!(old_size <= new_size && new_size <= self.size());
        let old_tiles = decompose_prefix(old_size)
            .into_iter()
            .map(|(o, s)| self.subtree(o, s))
            .collect();
        let new_tiles = tile_range(old_size, new_size)
            .into_iter()
            .map(|(o, s)| self.subtree(o, s))
            .collect();
        ConsistencyProof { old_size, new_size, old_tiles, new_tiles }
    }
}

fn largest_pow2_below(n: u64) -> u64 {
    debug_assert!(n >= 2);
    let mut k = 1u64 << (63 - (n - 1).leading_zeros());
    if k == n {
        k >>= 1;
    }
    k
}

/// Verify an inclusion proof: does `data` live at `proof.index` under
/// `root` (a tree of `proof.tree_size` leaves)?
pub fn verify_inclusion(data: &[u8], proof: &InclusionProof, root: &Digest) -> bool {
    if proof.index >= proof.tree_size {
        return false;
    }
    fn climb(m: u64, n: u64, leaf: Digest, path: &[Digest]) -> Option<Digest> {
        if n == 1 {
            return if path.is_empty() { Some(leaf) } else { None };
        }
        let (&last, rest) = path.split_last()?;
        let k = largest_pow2_below(n);
        if m < k {
            let sub = climb(m, k, leaf, rest)?;
            Some(node_hash(&sub, &last))
        } else {
            let sub = climb(m - k, n - k, leaf, rest)?;
            Some(node_hash(&last, &sub))
        }
    }
    climb(proof.index, proof.tree_size, leaf_hash(data), &proof.path)
        .is_some_and(|computed| &computed == root)
}

/// Verify a consistency proof: `old_root` (over `old_size` leaves) is a
/// prefix of `new_root` (over `new_size`).
pub(crate) fn verify_consistency(proof: &ConsistencyProof, old_root: &Digest, new_root: &Digest) -> bool {
    if proof.old_size > proof.new_size {
        return false;
    }
    if proof.new_size == 0 {
        return proof.old_tiles.is_empty()
            && proof.new_tiles.is_empty()
            && old_root == new_root
            && *new_root == sha256(b"");
    }
    if proof.old_size == 0 {
        // Anything extends the empty tree; only the new root matters.
        let tiles = tile_range(0, proof.new_size);
        if tiles.len() != proof.new_tiles.len() {
            return false;
        }
        let tagged: Vec<(u64, u64, Digest)> = tiles
            .iter()
            .zip(&proof.new_tiles)
            .map(|(&(o, s), &h)| (o, s, h))
            .collect();
        return fold_tiles(&tagged).is_some_and(|r| &r == new_root) && proof.old_tiles.is_empty();
    }
    let old_shape = decompose_prefix(proof.old_size);
    let new_shape = tile_range(proof.old_size, proof.new_size);
    if old_shape.len() != proof.old_tiles.len() || new_shape.len() != proof.new_tiles.len() {
        return false;
    }
    let old_tagged: Vec<(u64, u64, Digest)> = old_shape
        .iter()
        .zip(&proof.old_tiles)
        .map(|(&(o, s), &h)| (o, s, h))
        .collect();
    let Some(computed_old) = fold_tiles(&old_tagged) else {
        return false;
    };
    if &computed_old != old_root {
        return false;
    }
    let mut all = old_tagged;
    all.extend(new_shape.iter().zip(&proof.new_tiles).map(|(&(o, s), &h)| (o, s, h)));
    fold_tiles(&all).is_some_and(|r| &r == new_root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn build(n: u64) -> MerkleTree {
        let mut t = MerkleTree::new();
        for i in 0..n {
            t.append(format!("entry-{i}").as_bytes());
        }
        t
    }

    #[test]
    fn rfc6962_small_tree_shape() {
        // Root of a 2-leaf tree must be H(1, H(0,d0), H(0,d1)).
        let mut t = MerkleTree::new();
        t.append(b"d0");
        t.append(b"d1");
        let expected = node_hash(&leaf_hash(b"d0"), &leaf_hash(b"d1"));
        assert_eq!(t.root(), expected);
    }

    #[test]
    fn root_changes_with_every_append() {
        let mut t = MerkleTree::new();
        let mut seen = std::collections::BTreeSet::new();
        seen.insert(t.root());
        for i in 0..20u64 {
            t.append(&i.to_le_bytes());
            assert!(seen.insert(t.root()), "root repeated at size {}", i + 1);
        }
    }

    #[test]
    fn inclusion_proofs_verify_for_all_sizes() {
        let mut t = build(33);
        for n in 1..=33u64 {
            let root = t.root_at(n);
            for i in 0..n {
                let p = t.prove_inclusion(i, n);
                assert!(
                    verify_inclusion(format!("entry-{i}").as_bytes(), &p, &root),
                    "inclusion failed i={i} n={n}"
                );
            }
        }
    }

    #[test]
    fn inclusion_rejects_wrong_data_root_index() {
        let mut t = build(16);
        let root = t.root();
        let p = t.prove_inclusion(3, 16);
        assert!(verify_inclusion(b"entry-3", &p, &root));
        assert!(!verify_inclusion(b"entry-4", &p, &root));
        assert!(!verify_inclusion(b"entry-3", &p, &[0u8; 32]));
        let mut wrong_index = p.clone();
        wrong_index.index = 4;
        assert!(!verify_inclusion(b"entry-3", &wrong_index, &root));
        let mut truncated = p.clone();
        truncated.path.pop();
        assert!(!verify_inclusion(b"entry-3", &truncated, &root));
    }

    #[test]
    fn proof_size_is_logarithmic() {
        let mut t = build(1024);
        let p = t.prove_inclusion(0, 1024);
        assert_eq!(p.path.len(), 10);
        assert_eq!(p.size_bytes(), 16 + 320);
    }

    #[test]
    fn consistency_proofs_verify_across_growth() {
        let mut t = build(40);
        for n0 in [1u64, 2, 3, 7, 8, 13, 32, 40] {
            for n1 in [8u64, 13, 32, 33, 40] {
                if n0 > n1 {
                    continue;
                }
                let r0 = t.root_at(n0);
                let r1 = t.root_at(n1);
                let p = t.prove_consistency(n0, n1);
                assert!(verify_consistency(&p, &r0, &r1), "consistency failed {n0}→{n1}");
            }
        }
    }

    #[test]
    fn consistency_rejects_forked_history() {
        let mut honest = build(20);
        // A forked tree: same first 10 entries, then diverges.
        let mut forked = MerkleTree::new();
        for i in 0..10u64 {
            forked.append(format!("entry-{i}").as_bytes());
        }
        for i in 0..10u64 {
            forked.append(format!("tampered-{i}").as_bytes());
        }
        let r10 = honest.root_at(10);
        let forged_r20 = forked.root_at(20);
        let p = honest.prove_consistency(10, 20);
        // The honest proof cannot link the honest old root to a forked new root.
        assert!(!verify_consistency(&p, &r10, &forged_r20));
        // Nor can the forked tree produce a proof from a *different* old root.
        let p_forked = forked.prove_consistency(10, 20);
        assert!(verify_consistency(&p_forked, &r10, &forged_r20),
            "fork shares the first 10 entries, so this consistency is genuine");
        let r10_fake = honest.root_at(11);
        assert!(!verify_consistency(&p_forked, &r10_fake, &forged_r20));
    }

    #[test]
    fn empty_tree_root_is_hash_of_empty() {
        let mut t = MerkleTree::new();
        assert_eq!(t.root(), sha256(b""));
        let p = t.prove_consistency(0, 0);
        assert!(verify_consistency(&p, &sha256(b""), &sha256(b"")));
    }

    #[test]
    fn decompose_and_tile_shapes() {
        assert_eq!(decompose_prefix(6), vec![(0, 4), (4, 2)]);
        assert_eq!(decompose_prefix(1), vec![(0, 1)]);
        assert_eq!(tile_range(3, 6), vec![(3, 1), (4, 2)]);
        assert_eq!(tile_range(0, 8), vec![(0, 8)]);
        assert_eq!(tile_range(5, 5), vec![]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_inclusion_roundtrip(n in 1u64..80, pick in 0u64..80) {
            let pick = pick % n;
            let mut t = build(n);
            let root = t.root();
            let p = t.prove_inclusion(pick, n);
            let data = format!("entry-{pick}");
            prop_assert!(verify_inclusion(data.as_bytes(), &p, &root));
            // Mutating any path element breaks it.
            if !p.path.is_empty() {
                let mut bad = p.clone();
                bad.path[0][0] ^= 0xff;
                prop_assert!(!verify_inclusion(data.as_bytes(), &bad, &root));
            }
        }

        #[test]
        fn prop_consistency_roundtrip(n0 in 0u64..60, extra in 0u64..60) {
            let n1 = n0 + extra;
            let mut t = build(n1.max(1));
            let r0 = t.root_at(n0);
            let r1 = t.root_at(n1);
            let p = t.prove_consistency(n0, n1);
            prop_assert!(verify_consistency(&p, &r0, &r1));
        }
    }
}
