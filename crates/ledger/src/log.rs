//! Transparency log with signed tree heads and a third-party auditor.
//!
//! The log wraps the Merkle tree: every batch of appends produces a new
//! [`TreeHead`] carrying the size, root, and a MAC-style signature (a
//! keyed hash — we have no asymmetric crypto on the allowed dependency
//! list, and for the §IV-D auditor model a shared-key MAC gives the same
//! experimental shape). The [`Auditor`] is the paper's "trusted third
//! party": it retains the last verified head and checks every new head's
//! consistency proof, catching history rewrites.

use crate::merkle::{verify_consistency, ConsistencyProof, Digest, InclusionProof, MerkleTree};
use crate::sha256::sha256;
use serde::{Deserialize, Serialize};

/// A signed tree head.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
// lint:allow(dead-pub): returned by `TransparencyLog::head`, which other crates call
pub struct TreeHead {
    /// Number of entries covered.
    pub size: u64,
    /// Merkle root over those entries.
    pub root: Digest,
    /// Keyed hash over (size, root).
    pub signature: Digest,
}

fn sign(key: &[u8], size: u64, root: &Digest) -> Digest {
    let mut buf = Vec::with_capacity(key.len() + 8 + 32);
    buf.extend_from_slice(key);
    buf.extend_from_slice(&size.to_le_bytes());
    buf.extend_from_slice(root);
    sha256(&buf)
}

/// The log service.
pub struct TransparencyLog {
    tree: MerkleTree,
    key: Vec<u8>,
}

impl TransparencyLog {
    /// A log signing with `key`.
    pub fn new(key: &[u8]) -> Self {
        TransparencyLog { tree: MerkleTree::new(), key: key.to_vec() }
    }

    /// Append an entry; returns its index.
    pub fn append(&mut self, entry: &[u8]) -> u64 {
        self.tree.append(entry)
    }

    /// Entries currently in the log.
    pub fn size(&self) -> u64 {
        self.tree.size()
    }

    /// Produce the current signed head.
    pub fn head(&mut self) -> TreeHead {
        let size = self.tree.size();
        let root = self.tree.root();
        TreeHead { size, root, signature: sign(&self.key, size, &root) }
    }

    /// Inclusion proof for `index` against the current head.
    pub fn prove_inclusion(&mut self, index: u64) -> InclusionProof {
        let size = self.tree.size();
        self.tree.prove_inclusion(index, size)
    }

    /// Consistency proof between two historical sizes.
    pub fn prove_consistency(&mut self, old_size: u64, new_size: u64) -> ConsistencyProof {
        self.tree.prove_consistency(old_size, new_size)
    }

    /// Check a head's signature (clients and auditors do this first).
    pub(crate) fn verify_signature(key: &[u8], head: &TreeHead) -> bool {
        sign(key, head.size, &head.root) == head.signature
    }
}

/// The third-party auditor of §IV-D: retains the last good head and
/// demands a consistency proof for every successor.
pub struct Auditor {
    key: Vec<u8>,
    last: Option<TreeHead>,
    /// Heads accepted so far.
    pub heads_verified: u64,
    /// Violations caught (bad signature, inconsistent history, shrink).
    pub violations: u64,
}

impl Auditor {
    /// An auditor sharing the log's MAC key.
    pub fn new(key: &[u8]) -> Self {
        Auditor { key: key.to_vec(), last: None, heads_verified: 0, violations: 0 }
    }

    /// Present a new head plus a consistency proof from the last accepted
    /// head. Returns true when accepted.
    pub fn check_head(&mut self, head: &TreeHead, consistency: &ConsistencyProof) -> bool {
        if !TransparencyLog::verify_signature(&self.key, head) {
            self.violations += 1;
            return false;
        }
        if let Some(prev) = self.last {
            let shape_ok = consistency.old_size == prev.size && consistency.new_size == head.size;
            if !shape_ok
                || head.size < prev.size
                || !verify_consistency(consistency, &prev.root, &head.root)
            {
                self.violations += 1;
                return false;
            }
        }
        self.last = Some(*head);
        self.heads_verified += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: &[u8] = b"shared-auditor-key";

    #[test]
    fn auditor_accepts_honest_growth() {
        let mut log = TransparencyLog::new(KEY);
        let mut auditor = Auditor::new(KEY);
        let mut prev_size = 0u64;
        for batch in 0..5u64 {
            for i in 0..10u64 {
                log.append(format!("tx-{batch}-{i}").as_bytes());
            }
            let head = log.head();
            let proof = log.prove_consistency(prev_size, head.size);
            assert!(auditor.check_head(&head, &proof), "batch {batch}");
            prev_size = head.size;
        }
        assert_eq!(auditor.heads_verified, 5);
        assert_eq!(auditor.violations, 0);
    }

    #[test]
    fn auditor_catches_history_rewrite() {
        let mut log = TransparencyLog::new(KEY);
        let mut auditor = Auditor::new(KEY);
        for i in 0..10u64 {
            log.append(format!("tx-{i}").as_bytes());
        }
        let head = log.head();
        let proof = log.prove_consistency(0, head.size);
        assert!(auditor.check_head(&head, &proof));

        // The operator rewrites history: a fresh log with entry 3 changed.
        let mut evil = TransparencyLog::new(KEY);
        for i in 0..10u64 {
            let data =
                if i == 3 { "tx-EVIL".to_string() } else { format!("tx-{i}") };
            evil.append(data.as_bytes());
        }
        for i in 10..15u64 {
            evil.append(format!("tx-{i}").as_bytes());
        }
        let evil_head = evil.head();
        let evil_proof = evil.prove_consistency(10, 15);
        assert!(
            !auditor.check_head(&evil_head, &evil_proof),
            "rewrite must be rejected"
        );
        assert_eq!(auditor.violations, 1);
    }

    #[test]
    fn auditor_rejects_forged_signature_and_shrink() {
        let mut log = TransparencyLog::new(KEY);
        let mut auditor = Auditor::new(KEY);
        log.append(b"a");
        log.append(b"b");
        let head = log.head();
        let proof = log.prove_consistency(0, 2);
        assert!(auditor.check_head(&head, &proof));

        let mut forged = head;
        forged.root[0] ^= 1;
        assert!(!auditor.check_head(&forged, &proof));

        // A "shrunk" head signed with the right key still fails.
        let mut log2 = TransparencyLog::new(KEY);
        log2.append(b"a");
        let small_head = log2.head();
        let p = log2.prove_consistency(1, 1);
        assert!(!auditor.check_head(&small_head, &p));
        assert_eq!(auditor.violations, 2);
    }

    #[test]
    fn wrong_key_signature_rejected() {
        let mut log = TransparencyLog::new(b"key-A");
        log.append(b"x");
        let head = log.head();
        assert!(TransparencyLog::verify_signature(b"key-A", &head));
        assert!(!TransparencyLog::verify_signature(b"key-B", &head));
    }
}
