#![forbid(unsafe_code)]
//! `mv-net` — discrete-event simulation substrate and network model.
//!
//! The paper's challenges (§IV-C consistency, §IV-E1 decentralized
//! transactions, §IV-E2 disaggregation) are all *quantitative functions of
//! network latency and bandwidth*. Since we have no SmartNICs, RDMA
//! fabrics, or multi-continent deployments on hand, we substitute a
//! deterministic discrete-event simulator (see DESIGN.md §2): the trade-off
//! curves the paper predicts depend on latency/bandwidth *ratios*, which
//! the simulator reproduces and can sweep.
//!
//! * [`sim`] — a generic discrete-event loop ([`sim::Sim`]) over a virtual
//!   clock; events are closures over a user-supplied world type.
//! * [`link`] — link specifications (latency, bandwidth, jitter, loss) and
//!   canned link classes (RDMA-ish, LAN, WAN, cellular).
//! * [`network`] — a routed message-level network: nodes, links, BFS
//!   routing with a route cache, store-and-forward transfer-time
//!   computation with per-link serialization, and group partitions.
//! * [`topology`] — builders for the paper's deployment shapes: multi-DC
//!   meshes (§IV-E1) and the device–cloud–storage disaggregation of
//!   Fig. 7 (§IV-E2);
//! * [`p2p`] — a Chord-style structured overlay for the P2P search
//!   methods §IV-E points at (O(log n) key lookup vs. ring walking);
//! * [`fault`] — deterministic fault injection: a [`fault::FaultPlan`]
//!   scripts link degradation, partitions and node crash/restart as
//!   ordinary scheduler events, counted in `Network::stats`;
//! * [`reliable`] — at-least-once delivery over the lossy network:
//!   sender sequence numbers, timeouts with capped exponential backoff
//!   and deterministic jitter, bounded retries, receiver-side dedup and
//!   crash epochs (§IV-C's "disruptive networks" machinery);
//! * [`outbox`] — the one client-delivery path on top of it: per-client
//!   routing, ship-or-retain, expiry re-retention and pinned-order replay
//!   ([`outbox::Outbox`]), and the client-side newest-`seq` dedup
//!   ([`outbox::Inbox`]); each message type's [`outbox::Retained`] impl
//!   is its policy (retention key and replay order).

pub mod fault;
pub mod link;
pub mod network;
pub mod outbox;
pub mod p2p;
pub mod reliable;
pub mod sim;
pub mod topology;

pub use fault::{Fault, FaultPlan, FaultTarget};
pub use link::LinkSpec;
pub use network::Network;
pub use outbox::{Inbox, Outbox, Retained, Retention};
pub use p2p::ChordRing;
pub use reliable::{Event as ReliableEvent, ReliableTransport, RetryPolicy};
pub use sim::Sim;
pub use topology::{DisaggTopology, MultiDcTopology};
