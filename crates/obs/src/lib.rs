#![forbid(unsafe_code)]
//! `mv-obs` — the observability layer for the cospace platform.
//!
//! The paper's §IV challenges all hinge on *measuring* the deluge: the
//! device–cloud–storage disaggregation of Fig. 7 only works if every
//! layer can report where time and bytes go, and edge/cloud placement
//! decisions (Lim et al., "Realizing the Metaverse with Edge
//! Intelligence") need per-hop latency accounting. This crate is the
//! substrate every performance claim in EXPERIMENTS.md reports against:
//!
//! * [`registry`] — a mergeable [`registry::Registry`] of named
//!   counters, gauges, and fixed-bucket log-scaled histograms
//!   ([`registry::LogHistogram`]: bounded memory, mergeable across
//!   shards). Components count in their own `mv_common::metrics::
//!   Counters`; a reader assembles a registry from them with
//!   [`registry::Registry::absorb`]. Metric names follow
//!   `<crate>.<component>.<metric>` (DESIGN.md §8).
//! * [`trace`] — causal span tracing on the *virtual* clock: a
//!   [`trace::TraceCtx`] minted at op ingest rides every payload through
//!   transport retries, outbox replays, broker delivery, and WAL group
//!   commit; the collected [`trace::SpanRecord`]s are deterministic
//!   (seed-stable ids, sim-time stamps), so a single update's critical
//!   path is reconstructible — and two same-seed runs hash identically.
//! * [`profile`] — a per-tick scoped wall-clock profiler for engine
//!   loops ([`profile::TickProfiler`]), reporting into the same
//!   log-scaled histograms.
//! * [`export`] — JSONL + pretty-table export used by the `experiments`
//!   binary for every `exp_*` bench.
//! * [`window`] — sliding-window aggregation over a registry: a fixed
//!   ring of per-tick buckets turning cumulative counters and
//!   histograms into windowed rates and windowed p50/p99, with a
//!   merge that commutes with [`registry::Registry::merge`].
//! * [`slo`] — declarative SLOs (latency, availability, staleness)
//!   evaluated by multi-window burn-rate rules, emitting a canonical
//!   seed-reproducible alert log; [`slo::HealthMonitor`] is the
//!   per-tick pump gluing windows, SLOs, and the recorder together.
//! * [`recorder`] — a black-box flight recorder: a bounded ring of
//!   recent metric deltas, alerts, and component events, dumped as a
//!   schema-versioned JSONL debug bundle when an alert fires, an
//!   invariant trips, or crash recovery runs.
//!
//! Everything here is deterministic where it touches simulation state
//! (span ids, sim timestamps, counter iteration order) and wall-clock
//! only where it measures real CPU (the profiler).

pub mod export;
pub mod profile;
pub mod recorder;
pub mod registry;
pub mod slo;
pub mod trace;
pub mod window;

pub use profile::TickProfiler;
pub use recorder::BUNDLE_SCHEMA;
pub use registry::{CounterId, GaugeId, HistoId, LogHistogram, Registry};
pub use slo::{AlertKind, HealthMonitor, SloEngine, SloSpec};
pub use trace::{SharedTracer, SpanRecord, TraceCtx, Tracer};
pub use window::MetricWindows;
