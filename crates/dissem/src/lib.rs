#![forbid(unsafe_code)]
//! `mv-dissem` — data dissemination with bounded incoherency.
//!
//! §IV-C (Data Consistency): *"Given the constraints in bandwidth and the
//! large amount of data to be transmitted, we do not expect to see a truly
//! consistent view in both worlds. However, we can try to keep the virtual
//! world as close to the real world as possible. One solution is to
//! tolerate some degree of discrepancies — for numerical data, they may
//! be within certain coherency requirements; for multimedia data, a low
//! resolution image/video may be used instead."* …and later: *"A closely
//! related approach is to study how data to be transmitted should be
//! prioritized."*
//!
//! * [`coherency`] — per-client per-object incoherency bounds with
//!   server-side value filtering. The paper notes prior schemes "assume a
//!   small number of distinct objects, and so do not scale"; the filter
//!   here is O(1) per (update, subscriber) with hash-indexed state, and
//!   experiment E3 sweeps it to 100k objects.
//! * [`payload`] — delta encoding for numeric state vectors and
//!   resolution degradation for multimedia payloads (the "low resolution
//!   image/video" escape hatch).
//! * [`sched`] — priority/deadline transmission scheduling over a
//!   bandwidth-limited uplink (E4).
//! * [`resume`] — the retention policy for disruption-tolerant client
//!   outboxes: newest value per object, replayed most critical first,
//!   after ICeDB (the paper's reference \[92\]).
//! * [`reliable`] — [`PushServer`] numbers pushes and hands them to
//!   `mv-net`'s shared client outbox; the client-side [`Replica`] is
//!   `mv-net`'s newest-`seq` inbox, so a flapping client converges to
//!   exactly the retained state.

pub mod coherency;
pub mod payload;
pub mod reliable;
pub mod resume;
pub mod sched;

pub use coherency::{Bound, CoherencyServer};
pub use payload::{DeltaCodec, MediaResolution};
pub use reliable::{PushServer, Replica};
pub use resume::OutMsg;
pub use sched::{LinkScheduler, Priority, SchedPolicy, TxRequest};
