#![forbid(unsafe_code)]
//! `mv-ledger` — verifiable ledger structures.
//!
//! §IV-D: *"One possible solution is to use verifiable ledger database
//! systems \[90\], \[87\] with a trusted third party serving as the auditor.
//! … The system may combine efficient cryptographic techniques, often
//! found in authenticated data structures such as the Merkle Tree, and
//! transparency logs…"*. (Reference \[87\] is GlassDB.)
//!
//! This crate builds that stack from the hash function up — no external
//! crypto dependencies are on the allowed list, so SHA-256 is implemented
//! in-crate (`sha256()`, FIPS 180-4, pinned to the standard test
//! vectors):
//!
//! * [`merkle`] — an append-only RFC-6962-style Merkle tree with
//!   inclusion proofs and consistency proofs between tree sizes;
//! * [`log`] — a transparency log issuing signed tree heads, plus the
//!   third-party [`log::Auditor`] that verifies head-to-head consistency;
//! * [`ledger`] — a verifiable key-value ledger with per-read inclusion
//!   proofs and GlassDB-style deferred (batched) verification;
//! * [`consensus`] — the §IV-D cost comparison: PBFT-style BFT
//!   replication vs. this crate's ledger-plus-auditor design point.

pub mod consensus;
pub mod ledger;
pub mod log;
pub mod merkle;
pub mod sha256;

pub use consensus::ReplicationModel;
pub use ledger::VerifiableKv;
pub use log::{Auditor, TransparencyLog};
pub use merkle::MerkleTree;
