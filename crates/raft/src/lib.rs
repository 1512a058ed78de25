#![forbid(unsafe_code)]
//! `mv-raft` — a deterministic, sim-clock-driven Raft-style replicated
//! log for co-space shard groups.
//!
//! The paper's §IV consistency/disaggregation story (Fig. 7) assumes
//! metaverse state survives node loss and network partition at
//! geo-distributed scale; everything below this crate (WAL, LSM, MVCC
//! 2PC) is single-node durable. This crate replicates the durable log
//! itself: a [`RaftNode`] per region replica runs leader election with
//! randomized-but-*seeded* timeouts, log replication with commit-index
//! advancement, snapshot install for lagging or state-lost followers,
//! and leader read leases — all as a pure discrete-event state machine
//! on virtual time.
//!
//! Design constraints that shape the API:
//!
//! * **No wall clock, no ambient RNG.** Election timeouts are a pure
//!   function of `(seed, node, term)` (same SplitMix64 finalizer family
//!   the reliable transport uses for retry jitter), so two runs of the
//!   same scripted fault plan are byte-identical.
//! * **The node owns no I/O.** [`RaftNode::tick`] and
//!   [`RaftNode::handle`] return [`Outgoing`] messages; the embedder
//!   ships them over `mv_net::reliable::ReliableTransport` (or anything
//!   else) and feeds deliveries back in. Commands are opaque bytes, so
//!   the crate has no dependency on the engine it replicates.
//! * **Persistence is a `GroupCommitWal`.** Term/vote, log entries,
//!   suffix truncations, and snapshots are [`RaftRecord`]s appended to
//!   a per-node group-commit WAL and synced *before* the protocol acts
//!   on them (a vote is granted only after the vote is durable; an
//!   append is acknowledged only after the entries are). A crash drops
//!   volatile role/commit state; [`RaftNode::restart`] folds the
//!   durable records back into term/vote/log/snapshot. Compaction and an
//!   accepted snapshot trim the WAL by sealing that state as one fence
//!   batch (`seal_fence`), which drops every batch before it.
//! * **Commit rule.** The leader advances the commit index to the
//!   highest index replicated on a majority *whose entry term is the
//!   leader's current term* (Raft §5.4.2 — older-term entries commit
//!   only transitively). On becoming leader a no-op entry (empty
//!   command) is appended so the new term has something to commit.
//! * **Read leases.** A leader's lease extends to the majority-th
//!   freshest peer acknowledgement plus the *minimum* election timeout:
//!   no rival can win an election before the lease expires, so
//!   [`RaftNode::lease_valid`] gates linearizable-enough local reads. A
//!   leader cut off in a minority partition loses its lease one
//!   election-min after its last majority contact and refuses reads.
//!
//! `mv_core::replicated::ReplicatedMetaverse` wires this under the
//! durable engine; `tests/raft_failover.rs` drives 3–5 node regions
//! through scripted leader crashes, minority partitions, and
//! crash+restart with full state loss, asserting no acknowledged commit
//! is ever lost, no term ever has two leaders, and every replica
//! reconverges byte-identically.

pub mod msg;
pub mod node;
pub mod record;

pub use msg::{Outgoing, RaftMsg};
pub use node::{RaftConfig, RaftNode};
pub use record::RaftRecord;

/// SplitMix64-style finalizer: maps a key pair to a well-mixed u64 with
/// no state (the same family `shard_of_key` and the transport jitter use).
#[inline]
pub(crate) fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map a u64 to `[0, 1)`.
#[inline]
pub(crate) fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}
