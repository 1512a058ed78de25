#![forbid(unsafe_code)]
//! `mv-storage` — the heterogeneous storage layer of Fig. 7.
//!
//! §IV-E2: the cloud-storage layer *"contains heterogeneous data stores,
//! including the key-value (KV) store, object store, block store, etc."* —
//! and §IV-F asks how data from the two spaces should be *organized*
//! (together, apart, or hybrid) and for *"novel buffer management and
//! caching schemes … conscious of the semantics"*.
//!
//! * [`kv`] — a log-structured KV store: mutable memtable, immutable
//!   sorted runs, per-run [`bloom`] filters, size-tiered compaction,
//!   range scans, tombstones;
//! * [`sharded_kv`] — the KV store partitioned across key-hash shards
//!   with the `mv_core::sharded` ownership discipline (durable ingest
//!   fast path, E17);
//! * [`group_commit`] — the write-ahead log: records coalesce into one
//!   checksum-framed batch per sync, with byte/record/deadline triggers,
//!   whole-batch crash atomicity, and `seal_fence` as the one way to
//!   trim it;
//! * [`wal`] — the logged record, its payload codec, and the recovery
//!   report;
//! * [`bloom`] — double-hashed bloom filters for the LSM read path;
//! * [`object`] — a content-addressed object store with refcounted
//!   deduplication (shared avatar assets land here in E13);
//! * [`block`] — a fixed-size block store with a free bitmap and extent
//!   allocation;
//! * [`bufferpool`] — a page cache with LRU, LFU and the **space-aware**
//!   eviction policy §IV-F sketches (physical-space pages are protected
//!   over virtual-space pages);
//! * [`organization`] — the §IV-F unified / separate / hybrid layouts,
//!   measurable against single-space and cross-space access mixes (E9).

pub mod block;
pub mod bloom;
pub mod bufferpool;
pub mod group_commit;
pub mod kv;
pub mod object;
pub mod organization;
pub mod sharded_kv;
pub mod wal;

pub use block::BlockStore;
pub use bloom::Bloom;
pub use bufferpool::{BufferPool, EvictionPolicy, PageId};
pub use group_commit::{GroupCommitPolicy, GroupCommitWal};
pub use kv::{KvConfig, KvStore};
pub use object::ObjectStore;
pub use organization::{DataOrganization, Layout};
pub use sharded_kv::ShardedKv;
pub use wal::{RecoveryReport, WalRecord, WalRecordRef};
