#![forbid(unsafe_code)]
//! `mv-txn` — transactions for the decentralized metaverse database.
//!
//! §IV-E1: *"distributed transactions are essential for accessing data
//! across multiple data centers. However, distributed transactions are
//! hard to process at scale to ensure high throughput, high availability
//! and yet low latency due to the network partition and non-negligible
//! inter-data-center network latency. Although existing works \[51\], \[86\]
//! on reducing network overhead for inter-data-center transactions can
//! potentially help…"* (\[86\] is Carousel's single-round commit.)
//!
//! * [`mvcc`] — a multi-version store with snapshot-isolation and
//!   serializable transactions (first-committer-wins write-write
//!   conflict detection plus read-set validation), exposing a
//!   prepare/install/release surface for two-phase commit, generic over
//!   its key and value types;
//! * [`sharded`] — shard routing over N stores with one shared
//!   timestamp oracle;
//! * [`distributed`] — a contention + latency simulation comparing
//!   two-phase commit against a Carousel-style single-round protocol on
//!   `mv-net` multi-DC topologies (experiment E6).

pub mod distributed;
pub mod mvcc;
pub mod sharded;

pub use distributed::{CommitProtocol, DistributedSim, SimParams};
pub use mvcc::{IsolationLevel, MvccKey, MvccStore, Transaction};
pub use sharded::ShardedMvcc;
