//! A verifiable key-value ledger with deferred verification.
//!
//! GlassDB-flavoured (the paper's \[87\]): every committed write appends a
//! `(key, value)` digest entry to a transparency log; reads return the
//! value together with an inclusion *promise*. Verifying each promise
//! synchronously would put a Merkle proof on every read's critical path,
//! so clients batch promises and verify them against one fresh signed
//! head — the "deferred verification" trade GlassDB makes. E5 measures
//! both modes.

use crate::log::{TransparencyLog, TreeHead};
use crate::merkle::{verify_inclusion, InclusionProof};
use mv_common::hash::FastMap;
use mv_common::MvError;
use mv_common::MvResult;

/// A read receipt awaiting verification.
#[derive(Debug, Clone)]
// lint:allow(dead-pub): returned by `VerifiableKv::get`, which other crates call
pub struct ReadPromise {
    /// The serialized log entry the read claims to reflect.
    pub entry: Vec<u8>,
    /// Log index of that entry.
    pub index: u64,
}

fn encode_entry(key: &str, value: &[u8], version: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(key.len() + value.len() + 16);
    buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
    buf.extend_from_slice(key.as_bytes());
    buf.extend_from_slice(&version.to_le_bytes());
    buf.extend_from_slice(value);
    buf
}

/// The ledger server: a KV map backed by a transparency log.
pub struct VerifiableKv {
    log: TransparencyLog,
    /// key → (value, version, log index).
    store: FastMap<String, (Vec<u8>, u64, u64)>,
}

impl VerifiableKv {
    /// A ledger signing heads with `key`.
    pub fn new(signing_key: &[u8]) -> Self {
        VerifiableKv { log: TransparencyLog::new(signing_key), store: FastMap::default() }
    }

    /// Commit a write; the ledger entry is appended before the store is
    /// updated (log-ahead).
    pub fn put(&mut self, key: &str, value: &[u8]) -> u64 {
        let version = self.store.get(key).map(|(_, v, _)| v + 1).unwrap_or(0);
        let entry = encode_entry(key, value, version);
        let index = self.log.append(&entry);
        self.store.insert(key.to_string(), (value.to_vec(), version, index));
        index
    }

    /// Read with a verification promise (deferred mode).
    pub fn get(&self, key: &str) -> MvResult<(Vec<u8>, ReadPromise)> {
        let (value, version, index) = self
            .store
            .get(key)
            .cloned()
            .ok_or_else(|| MvError::InvalidArgument(format!("unknown key {key}")))?;
        let entry = encode_entry(key, &value, version);
        Ok((value, ReadPromise { entry, index }))
    }

    /// Read with an eagerly generated and verified proof (synchronous
    /// mode — the expensive baseline).
    pub fn get_verified(&mut self, key: &str) -> MvResult<Vec<u8>> {
        let (value, promise) = self.get(key)?;
        let head = self.log.head();
        let proof = self.log.prove_inclusion(promise.index);
        if !verify_inclusion(&promise.entry, &proof, &head.root) {
            return Err(MvError::VerificationFailed(format!("inclusion of key {key}")));
        }
        Ok(value)
    }

    /// Produce the proofs needed to settle a batch of promises against
    /// the current head: `(head, per-promise inclusion proofs)`.
    pub fn settle(&mut self, promises: &[ReadPromise]) -> (TreeHead, Vec<InclusionProof>) {
        let head = self.log.head();
        let proofs =
            promises.iter().map(|p| self.log.prove_inclusion(p.index)).collect();
        (head, proofs)
    }

    /// Current signed head.
    pub fn head(&mut self) -> TreeHead {
        self.log.head()
    }

    /// Consistency proof between heads (for the auditor).
    pub fn prove_consistency(&mut self, old: u64, new: u64) -> crate::merkle::ConsistencyProof {
        self.log.prove_consistency(old, new)
    }

    /// Number of committed log entries.
    pub fn log_size(&self) -> u64 {
        self.log.size()
    }

    /// Tamper with the *store* (not the log) — test hook modelling a
    /// compromised server returning a value that was never committed.
    #[doc(hidden)]
    pub fn tamper_store(&mut self, key: &str, fake_value: &[u8]) {
        if let Some(slot) = self.store.get_mut(key) {
            slot.0 = fake_value.to_vec();
        }
    }
}

/// Client-side deferred verifier: collects promises, settles in batches.
pub struct DeferredVerifier {
    promises: Vec<ReadPromise>,
}

impl DeferredVerifier {
    /// Empty batch.
    pub fn new() -> Self {
        DeferredVerifier { promises: Vec::new() }
    }

    /// Add a read's promise to the batch.
    pub fn collect(&mut self, p: ReadPromise) {
        self.promises.push(p);
    }

    /// Pending promise count.
    pub fn pending(&self) -> usize {
        self.promises.len()
    }

    /// Settle the batch against the server; returns Ok(n) with the number
    /// of verified reads or the first failure.
    pub fn settle(&mut self, server: &mut VerifiableKv) -> MvResult<usize> {
        let (head, proofs) = server.settle(&self.promises);
        for (promise, proof) in self.promises.iter().zip(&proofs) {
            if proof.tree_size != head.size
                || !verify_inclusion(&promise.entry, proof, &head.root)
            {
                return Err(MvError::VerificationFailed(format!(
                    "read at log index {}",
                    promise.index
                )));
            }
        }
        let n = self.promises.len();
        self.promises.clear();
        Ok(n)
    }
}

impl Default for DeferredVerifier {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::Auditor;

    #[test]
    fn put_get_roundtrip_with_sync_verification() {
        let mut kv = VerifiableKv::new(b"k");
        kv.put("price:42", b"19.99");
        kv.put("stock:42", b"7");
        assert_eq!(kv.get_verified("price:42").unwrap(), b"19.99");
        assert_eq!(kv.log_size(), 2);
        assert!(kv.get_verified("missing").is_err());
    }

    #[test]
    fn versions_append_new_entries() {
        let mut kv = VerifiableKv::new(b"k");
        kv.put("x", b"1");
        kv.put("x", b"2");
        kv.put("x", b"3");
        assert_eq!(kv.log_size(), 3);
        assert_eq!(kv.get_verified("x").unwrap(), b"3");
    }

    #[test]
    fn deferred_batch_verification() {
        let mut kv = VerifiableKv::new(b"k");
        for i in 0..50 {
            kv.put(&format!("k{i}"), format!("v{i}").as_bytes());
        }
        let mut verifier = DeferredVerifier::new();
        for i in 0..50 {
            let (v, promise) = kv.get(&format!("k{i}")).unwrap();
            assert_eq!(v, format!("v{i}").as_bytes());
            verifier.collect(promise);
        }
        assert_eq!(verifier.pending(), 50);
        assert_eq!(verifier.settle(&mut kv).unwrap(), 50);
        assert_eq!(verifier.pending(), 0);
    }

    #[test]
    fn tampered_store_value_fails_verification() {
        let mut kv = VerifiableKv::new(b"k");
        kv.put("balance", b"100");
        kv.tamper_store("balance", b"1000000");
        // Sync mode catches it.
        assert!(kv.get_verified("balance").is_err());
        // Deferred mode catches it at settlement.
        let (v, promise) = kv.get("balance").unwrap();
        assert_eq!(v, b"1000000"); // the lie is served…
        let mut verifier = DeferredVerifier::new();
        verifier.collect(promise);
        assert!(verifier.settle(&mut kv).is_err()); // …and caught.
    }

    #[test]
    fn auditor_integration() {
        let mut kv = VerifiableKv::new(b"shared");
        let mut auditor = Auditor::new(b"shared");
        kv.put("a", b"1");
        let h1 = kv.head();
        assert!(auditor.check_head(&h1, &kv.prove_consistency(0, h1.size)));
        kv.put("b", b"2");
        kv.put("c", b"3");
        let h2 = kv.head();
        assert!(auditor.check_head(&h2, &kv.prove_consistency(h1.size, h2.size)));
    }
}
