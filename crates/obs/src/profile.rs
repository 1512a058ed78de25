//! Per-tick scoped wall-clock profiling for engine loops.
//!
//! Unlike the tracer (which runs on *simulated* time), the profiler
//! measures real CPU: where does an engine tick actually spend its
//! microseconds? A [`TickProfiler`] is created once per loop; each tick
//! calls [`TickProfiler::tick`], and inside the tick, stages are timed
//! with [`TickProfiler::scope`] (RAII — the guard records on drop) or
//! [`TickProfiler::time`] (closure form). Stage durations accumulate
//! into [`LogHistogram`]s, so a million ticks cost the same memory as
//! ten.
//!
//! Wall-clock readings are inherently nondeterministic; keep profiler
//! output out of determinism-hashed artifacts (the exporters segregate
//! it for exactly this reason).

use crate::export::JsonlSink;
use crate::registry::LogHistogram;
use mv_common::table::{f3, Table};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Accumulates per-stage wall-clock histograms across engine ticks.
#[derive(Debug, Default)]
pub struct TickProfiler {
    ticks: u64,
    tick_start: Option<Instant>,
    tick_histo: LogHistogram,
    stages: BTreeMap<&'static str, LogHistogram>,
}

impl TickProfiler {
    /// A fresh profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark the start of a tick; the previous tick (if any) is closed
    /// and its total duration recorded.
    pub fn tick(&mut self) {
        let now = Instant::now();
        if let Some(start) = self.tick_start.replace(now) {
            self.tick_histo.record(now.duration_since(start).as_secs_f64());
        }
        self.ticks += 1;
    }

    /// Close the final tick (call once after the loop).
    pub fn finish(&mut self) {
        if let Some(start) = self.tick_start.take() {
            self.tick_histo.record(start.elapsed().as_secs_f64());
        }
    }

    /// Time a stage with an RAII guard; the elapsed wall time is
    /// recorded when the guard drops.
    pub fn scope<'a>(&'a mut self, stage: &'static str) -> StageGuard<'a> {
        StageGuard { profiler: self, stage, start: Instant::now() }
    }

    /// Time a closure as a stage and return its result.
    pub fn time<T>(&mut self, stage: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(stage, start.elapsed().as_secs_f64());
        out
    }

    /// Record an externally measured stage duration (seconds).
    pub fn record(&mut self, stage: &'static str, secs: f64) {
        self.stages.entry(stage).or_default().record(secs);
    }

    /// Ticks started so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Stage histograms in name order.
    pub fn stages(&self) -> impl Iterator<Item = (&'static str, &LogHistogram)> + '_ {
        self.stages.iter().map(|(k, v)| (*k, v))
    }

    /// One stage's histogram, if it ever ran.
    pub fn stage(&self, name: &str) -> Option<&LogHistogram> {
        self.stages.get(name)
    }

    /// Render the profile as a table: one row per stage plus a
    /// whole-tick row, durations in microseconds.
    pub fn table(&self, title: impl Into<String>) -> Table {
        let mut t =
            Table::new(title, &["stage", "calls", "mean_us", "p95_us", "max_us", "total_ms"]);
        let us = 1_000_000.0;
        for (name, h) in &self.stages {
            t.row(&[
                name.to_string(),
                h.count().to_string(),
                f3(h.mean() * us),
                f3(h.quantile(0.95) * us),
                f3(h.max() * us),
                f3(h.sum() * 1_000.0),
            ]);
        }
        if !self.tick_histo.is_empty() {
            let h = &self.tick_histo;
            t.row(&[
                "(tick)".to_string(),
                h.count().to_string(),
                f3(h.mean() * us),
                f3(h.quantile(0.95) * us),
                f3(h.max() * us),
                f3(h.sum() * 1_000.0),
            ]);
        }
        t
    }

    /// Export the profile as JSONL through a reusable sink — the
    /// per-tick form (`{"kind":"tick_profile","stage":…,…}` lines).
    ///
    /// Unlike [`TickProfiler::table`], this allocates nothing of its
    /// own: everything is written into the sink's buffer, so a loop
    /// exporting every tick stays off its own profile once the sink
    /// has warmed up (assert with [`JsonlSink::grows`]).
    pub fn export_jsonl(&self, sink: &mut JsonlSink) {
        let us = 1_000_000.0;
        sink.write_with(|buf| {
            for (name, h) in &self.stages {
                let _ = writeln!(
                    buf,
                    "{{\"kind\":\"tick_profile\",\"stage\":\"{name}\",\"calls\":{},\
                     \"mean_us\":{:.3},\"max_us\":{:.3},\"total_ms\":{:.3}}}",
                    h.count(),
                    h.mean() * us,
                    h.max() * us,
                    h.sum() * 1_000.0,
                );
            }
            if !self.tick_histo.is_empty() {
                let h = &self.tick_histo;
                let _ = writeln!(
                    buf,
                    "{{\"kind\":\"tick_profile\",\"stage\":\"(tick)\",\"calls\":{},\
                     \"mean_us\":{:.3},\"max_us\":{:.3},\"total_ms\":{:.3}}}",
                    h.count(),
                    h.mean() * us,
                    h.max() * us,
                    h.sum() * 1_000.0,
                );
            }
        });
    }
}

/// RAII guard from [`TickProfiler::scope`]; records on drop.
// lint:allow(dead-pub): returned by `TickProfiler::scope`, which other crates call
pub struct StageGuard<'a> {
    profiler: &'a mut TickProfiler,
    stage: &'static str,
    start: Instant,
}

impl Drop for StageGuard<'_> {
    fn drop(&mut self) {
        let secs = self.start.elapsed().as_secs_f64();
        self.profiler.record(self.stage, secs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_and_ticks_accumulate() {
        let mut p = TickProfiler::new();
        for _ in 0..3 {
            p.tick();
            {
                let _g = p.scope("apply");
            }
            p.time("flush", || std::hint::black_box(1 + 1));
        }
        p.finish();
        assert_eq!(p.ticks(), 3);
        assert_eq!(p.tick_histo.count(), 3);
        assert_eq!(p.stage("apply").unwrap().count(), 3);
        assert_eq!(p.stage("flush").unwrap().count(), 3);
        assert!(p.stage("missing").is_none());
        let stage_names: Vec<&str> = p.stages().map(|(n, _)| n).collect();
        assert_eq!(stage_names, vec!["apply", "flush"]);
    }

    #[test]
    fn table_has_one_row_per_stage_plus_tick() {
        let mut p = TickProfiler::new();
        p.tick();
        p.record("a", 0.001);
        p.record("b", 0.002);
        p.finish();
        let t = p.table("profile");
        assert_eq!(t.len(), 3); // a, b, (tick)
        assert!(t.render().contains("(tick)"));
    }

    #[test]
    fn jsonl_export_reuses_the_sink_buffer() {
        let mut p = TickProfiler::new();
        let mut sink = JsonlSink::default();
        for _ in 0..200 {
            p.tick();
            p.record("apply", 0.001);
            sink.clear();
            p.export_jsonl(&mut sink);
        }
        p.finish();
        // Stage set is fixed after the first tick, so line lengths are
        // stable and the buffer stops growing almost immediately.
        let grows = sink.grows();
        sink.clear();
        p.export_jsonl(&mut sink);
        assert_eq!(sink.grows(), grows, "steady-state export must not reallocate");
        assert!(sink.as_str().contains("\"stage\":\"apply\""));
        assert!(sink.as_str().contains("\"stage\":\"(tick)\""));
    }

    #[test]
    fn finish_without_tick_is_harmless() {
        let mut p = TickProfiler::new();
        p.finish();
        assert_eq!(p.tick_histo.count(), 0);
    }
}
