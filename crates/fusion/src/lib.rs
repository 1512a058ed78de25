#![forbid(unsafe_code)]
//! `mv-fusion` — data fusion over heterogeneous sources.
//!
//! §IV-A: *"data fusion in the metaverse is more challenging as the inputs
//! may come from a wide variety of sources including blogs, video/audio
//! clips, and photographs … Such fusion of information on a single entity
//! requires a substantial amount of inference over semantics that are
//! extracted from multiple data sources."* The paper contrasts this with
//! plain stream aggregation ("more complex logic inferences") and plain
//! data integration ("detects events that had taken place … and depicts
//! these events accurately").
//!
//! The crate implements that pipeline end to end:
//!
//! * [`record`] — typed field values and source ids;
//! * [`rfid`] — SMURF-style adaptive-window cleaning of raw RFID read
//!   streams (missed-read smoothing vs. departure responsiveness);
//! * [`resolve`] — entity resolution: blocking + trigram-Jaccard
//!   similarity + union-find clustering, so mentions from different
//!   sources land on the same entity;
//! * [`evidence`] — per-entity Bayesian (log-odds) combination of
//!   conflicting location/state observations weighted by per-source
//!   reliability;
//! * [`events`] — rule-based event detection over the fused state (the
//!   "depict events in the metaverse" half);
//! * [`library`] — the Fig. 6 co-space library scenario with ground
//!   truth, used by experiment E2 to show fusion beating every single
//!   source.

pub mod events;
pub mod evidence;
pub mod library;
pub mod record;
pub mod rfid;
pub mod resolve;

pub use evidence::{EvidencePool, Observation};
pub use record::{SourceId, Value};
pub use rfid::WindowPolicy;
pub use resolve::EntityResolver;
