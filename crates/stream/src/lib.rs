#![forbid(unsafe_code)]
//! `mv-stream` — the stream-processing engine.
//!
//! §III observes that the metaverse generates data that "may break the
//! 3Vs", and §IV-G closes with: *"the metaverse produces huge amounts of
//! data, in the form of data streams. … To sustain high stream ingress
//! traffic, data processing operators have to be replicated and run in
//! parallel threads."* This crate provides:
//!
//! * [`record`] — the stream record type flowing through every operator
//!   (timestamped, keyed, space-tagged — the §IV-F unified organization);
//! * [`ops`] — composable operators: map, filter, **interpolate** (the
//!   new operator §IV-G explicitly calls for: *"sensor data may have to
//!   be interpolated … for them to be consumed by the virtual space"*),
//!   and tumbling/sliding window aggregation;
//! * [`pipeline`] — single-threaded operator chains plus a key-partitioned
//!   parallel executor built on `crossbeam` channels (operator replication
//!   across threads);
//! * [`sched`] — multi-query QoS scheduling in the style of Sharaf et al.
//!   (the paper's reference \[69\]): FCFS, round-robin, shortest-job-first,
//!   earliest-deadline-first and freshness-weighted policies, with
//!   response-time and staleness accounting (experiment E14).

pub mod ops;
pub mod pipeline;
pub mod record;
pub mod sched;

pub use ops::{AggKind, FilterOp, InterpolateOp, MapOp, WindowAggOp, WindowKind};
pub use pipeline::{ParallelPipeline, Pipeline};
pub use record::StreamRecord;
pub use sched::{MultiQueryScheduler, Policy, QuerySpec};
