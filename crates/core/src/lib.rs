#![forbid(unsafe_code)]
//! `mv-core` — the co-space engine (the paper's primary contribution,
//! made executable).
//!
//! Fig. 1 of the paper shows data flowing *within* each space and
//! *across* spaces: the physical space is sensed and materialized in the
//! virtual space, and virtual actions are relayed back to physical
//! actors. This crate is that loop:
//!
//! * [`entity`] — co-space entities with a presence in either or both
//!   spaces (a soldier and their virtual twin; a product and its virtual
//!   listing);
//! * [`events`] — the cross-space event model and bus (a virtual
//!   air-raid becomes physical "perish" commands; a physical purchase
//!   becomes a virtual stock update);
//! * [`engine`] — [`engine::Metaverse`]: entity registry, one spatial
//!   index per space, coherency-bounded twin synchronization
//!   (physical→virtual, §IV-C), virtual→physical command relay, and
//!   divergence accounting; `Metaverse::apply` is the one dispatch from
//!   a [`DurableOp`] onto those writes, which every layer routes to;
//! * [`interest`] — per-user area-of-interest management so each user's
//!   update stream scales with local density, not world population (the
//!   MMO "consistency across multiple virtual views" problem);
//! * [`sharded`] — [`sharded::ShardedMetaverse`]: the same engine
//!   partitioned across owner shards that take dense ids in turn (the id
//!   is the address: shard `id % n`, slot `id / n`), with parallel
//!   batched writes and deterministic event-log merging (§IV-C at ingest
//!   scale);
//! * [`durable`] — [`durable::DurableMetaverse`]: the sharded engine
//!   wired to `mv-storage` (log-then-apply through a group-commit WAL,
//!   event-log drain into a sharded LSM, replay-based crash recovery —
//!   the §IV-F durable ingest path, measured in E17);
//! * [`replicated`] — [`replicated::ReplicatedMetaverse`]: the durable
//!   engine raft-replicated across a 3–5 node region over the fault
//!   simulator (`mv-raft` leader election, log replication, snapshot
//!   install), so acknowledged writes survive leader crashes, minority
//!   partitions, and total per-node state loss (§IV disaggregation;
//!   proven by `tests/raft_failover.rs`, measured in E20);
//! * [`txn`] — cross-shard snapshot-isolation/serializable transactions
//!   over the durable engine: MVCC version chains per entity field,
//!   two-phase commit riding the group-commit WAL, in-doubt resolution
//!   on recovery (§IV-E1, proven by `tests/txn_differential.rs`);
//! * [`ops`] — a replayable operation model and generator used to prove
//!   the sharded engine observationally equivalent to the sequential
//!   one (`tests/sharded_differential.rs`).
//!
//! The examples in the repository root (`examples/`) drive this façade
//! through the paper's five §II scenarios.

pub mod arena;
pub mod durable;
pub mod engine;
pub mod entity;
pub mod events;
pub mod interest;
pub mod ops;
pub mod replicated;
pub mod sharded;
pub mod txn;

pub use durable::{DurableMetaverse, DurableOp};
pub use replicated::{RegionConfig, ReplicatedMetaverse};
pub use txn::{MetaTxn, TxnCrashPoint};
pub use engine::{Metaverse, SyncPolicy};
pub use entity::EntityKind;
pub use events::{Command, EventKind};
pub use interest::InterestManager;
pub use sharded::{ShardedMetaverse, WriteOp};
