#![forbid(unsafe_code)]
//! `mv-assets` — high-fidelity digital-asset management (§IV-I).
//!
//! §IV-I: *"a key challenge towards high-fidelity is data explosion …
//! In contrast to learning a representation for each avatar or object
//! independently, a promising research direction is to create
//! generalizable representation that can be shared among similar avatars
//! or objects, and develop algorithms to efficiently customise, store,
//! and operate the digital assets."*
//!
//! We cannot train NeRFs here (no GPUs, no neural nets on the dependency
//! list), so per DESIGN.md's substitution table the *data-management*
//! behaviour is modelled: assets have a full-fidelity byte size, avatars
//! derive from archetypes with small customization deltas, and streaming
//! follows a progressive level-of-detail ladder.
//!
//! * [`repr`] — independent vs. shared(base + delta) representation
//!   storage accounting on the real `mv-storage` object store (E13a);
//! * [`streaming`] — progressive LOD streaming sessions: startup bytes,
//!   total bytes, quality, as a function of viewer distance (E13b).

pub mod repr;
pub mod streaming;

pub use repr::{AssetCatalog, ReprStrategy};
pub use streaming::{stream_scene, SceneParams};
