//! JSONL export for experiment artifacts.
//!
//! The `experiments` binary renders pretty tables for humans; this
//! module emits the same data as JSON Lines for machines (one JSON
//! object per line — trivially greppable, diffable, and appendable).
//! The encoder is hand-rolled and tiny: metric names and table cells
//! are plain strings and numbers, so a full JSON stack is not worth a
//! dependency.
//!
//! Line shapes:
//! * table row — `{"kind":"table","table":<title>,"<header>":<cell>,…}`
//! * span — `{"kind":"span","trace":…,"span":…,"parent":…,"name":…,
//!   "start_us":…,"end_us":…,"status":…}`
//! * counter / gauge — `{"kind":"counter","name":…,"value":…}`
//! * histogram — `{"kind":"histogram","name":…,"count":…,"mean":…,
//!   "p50":…,"p95":…,"max":…}`
//! * windowed metric — `{"kind":"window_counter","name":…,"ticks":…,
//!   "delta":…,"rate":…}` / `{"kind":"window_gauge","name":…,"last":…}`
//!   / `{"kind":"window_histo","name":…,"ticks":…,"count":…,"mean":…,
//!   "p50":…,"p99":…}`
//! * SLO status — `{"kind":"slo","slo":…,"active":…}` plus one
//!   `{"kind":"slo_totals",…}` summary
//! * alert event — `{"kind":"alert","seq":…,"slo":…,"alert":"fire",…}`

use crate::registry::Registry;
use crate::slo::{AlertEvent, SloEngine};
use crate::trace::SpanRecord;
use crate::window::{MetricWindows, WindowHisto};
use mv_common::table::Table;
use std::fmt::Write as _;

/// Escape a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    json_escape_into(&mut out, s);
    out
}

/// [`json_escape`] into a caller-owned buffer (no allocation when the
/// buffer has capacity) — the hot-loop form used by [`JsonlSink`].
pub fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A cell rendered as a bare JSON number when it parses as one, else as
/// a quoted string — so `"12.5"` exports as `12.5` but `"3.42x"` stays
/// a string.
fn json_value_into(out: &mut String, cell: &str) {
    if !cell.is_empty() && cell.parse::<f64>().is_ok_and(f64::is_finite) {
        out.push_str(cell);
    } else {
        out.push('"');
        json_escape_into(out, cell);
        out.push('"');
    }
}

/// Export a rendered [`Table`] as JSONL: one object per data row, keyed
/// by the column headers.
pub fn table_to_jsonl(table: &Table) -> String {
    let mut out = String::new();
    table_to_jsonl_into(&mut out, table);
    out
}

/// [`table_to_jsonl`] into a caller-owned buffer.
pub fn table_to_jsonl_into(out: &mut String, table: &Table) {
    for row in table.rows() {
        out.push_str("{\"kind\":\"table\",\"table\":\"");
        json_escape_into(out, table.title());
        out.push('"');
        for (header, cell) in table.headers().iter().zip(row) {
            out.push_str(",\"");
            json_escape_into(out, header);
            out.push_str("\":");
            json_value_into(out, cell);
        }
        out.push_str("}\n");
    }
}

/// Export span records as JSONL, one span per line, in the order given.
/// Feed it `Tracer::trace_records` output (sorted) for deterministic
/// files.
pub fn spans_to_jsonl(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    spans_to_jsonl_into(&mut out, spans);
    out
}

/// [`spans_to_jsonl`] into a caller-owned buffer.
pub fn spans_to_jsonl_into(out: &mut String, spans: &[SpanRecord]) {
    for s in spans {
        out.push_str("{\"kind\":\"span\",\"trace\":");
        let _ = write!(out, "{}", s.trace);
        out.push_str(",\"span\":");
        let _ = write!(out, "{}", s.span);
        out.push_str(",\"parent\":");
        let _ = write!(out, "{}", s.parent);
        out.push_str(",\"name\":\"");
        json_escape_into(out, s.name);
        let _ = write!(out, "\",\"start_us\":{},\"end_us\":{},\"status\":\"", s.start.as_micros(), s.end.as_micros());
        json_escape_into(out, s.status);
        out.push_str("\"}\n");
    }
}

/// Export a registry snapshot as JSONL: counters, gauges, then
/// histogram summaries, each name-sorted.
pub fn registry_to_jsonl(reg: &Registry) -> String {
    let mut out = String::new();
    registry_to_jsonl_into(&mut out, reg);
    out
}

/// [`registry_to_jsonl`] into a caller-owned buffer.
pub fn registry_to_jsonl_into(out: &mut String, reg: &Registry) {
    for (name, v) in reg.counters() {
        out.push_str("{\"kind\":\"counter\",\"name\":\"");
        json_escape_into(out, name);
        let _ = writeln!(out, "\",\"value\":{v}}}");
    }
    for (name, v) in reg.gauges() {
        out.push_str("{\"kind\":\"gauge\",\"name\":\"");
        json_escape_into(out, name);
        let _ = writeln!(out, "\",\"value\":{v}}}");
    }
    for (name, h) in reg.histograms() {
        out.push_str("{\"kind\":\"histogram\",\"name\":\"");
        json_escape_into(out, name);
        let _ = writeln!(
            out,
            "\",\"count\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"max\":{}}}",
            h.count(),
            h.mean(),
            h.quantile(0.5),
            h.quantile(0.95),
            h.max(),
        );
    }
}

/// Export the windowed view of every metric over the last `k` ticks:
/// counter deltas/rates, latest gauge values, and windowed histogram
/// quantiles. `scratch` is the reusable histogram accumulator — pass
/// the same one every tick and the encoder allocates nothing once warm
/// (the [`JsonlSink::windows`] form owns one for you).
pub fn windows_to_jsonl_into(
    out: &mut String,
    w: &MetricWindows,
    k: usize,
    scratch: &mut WindowHisto,
) {
    let ticks = w.window_ticks(k);
    for name in w.counter_names() {
        out.push_str("{\"kind\":\"window_counter\",\"name\":\"");
        json_escape_into(out, name);
        let _ = writeln!(
            out,
            "\",\"ticks\":{ticks},\"delta\":{},\"rate\":{}}}",
            w.counter_delta(name, k),
            w.rate(name, k),
        );
    }
    for name in w.gauge_names() {
        out.push_str("{\"kind\":\"window_gauge\",\"name\":\"");
        json_escape_into(out, name);
        let _ = writeln!(out, "\",\"last\":{}}}", w.gauge_last(name));
    }
    for name in w.histo_names() {
        w.histo_window_into(name, k, scratch);
        out.push_str("{\"kind\":\"window_histo\",\"name\":\"");
        json_escape_into(out, name);
        let _ = writeln!(
            out,
            "\",\"ticks\":{ticks},\"count\":{},\"mean\":{},\"p50\":{},\"p99\":{}}}",
            scratch.count(),
            scratch.mean(),
            scratch.quantile(0.5),
            scratch.quantile(0.99),
        );
    }
}

/// Allocating convenience form of [`windows_to_jsonl_into`].
pub fn windows_to_jsonl(w: &MetricWindows, k: usize) -> String {
    let mut out = String::new();
    let mut scratch = WindowHisto::new();
    windows_to_jsonl_into(&mut out, w, k, &mut scratch);
    out
}

/// Export an [`SloEngine`]'s current status: one `{"kind":"slo"}` line
/// per armed spec plus a `{"kind":"slo_totals"}` summary.
pub fn slo_to_jsonl_into(out: &mut String, engine: &SloEngine) {
    for spec in engine.specs() {
        out.push_str("{\"kind\":\"slo\",\"slo\":\"");
        json_escape_into(out, &spec.name);
        let _ = writeln!(out, "\",\"active\":{}}}", engine.is_active(&spec.name));
    }
    let _ = writeln!(
        out,
        "{{\"kind\":\"slo_totals\",\"armed\":{},\"active\":{},\"fired\":{},\"cleared\":{}}}",
        engine.specs().len(),
        engine.active_count(),
        engine.fired_total(),
        engine.cleared_total(),
    );
}

/// Allocating convenience form of [`slo_to_jsonl_into`].
pub fn slo_to_jsonl(engine: &SloEngine) -> String {
    let mut out = String::new();
    slo_to_jsonl_into(&mut out, engine);
    out
}

/// Export alert events as JSONL, one per line, in the order given —
/// pass [`SloEngine::events`] (or a tail slice for the current tick's
/// new events). Burn rates use the same fixed `{:.3}` formatting as the
/// canonical alert log, so the lines are byte-stable across same-seed
/// runs.
pub fn alerts_to_jsonl_into(out: &mut String, events: &[AlertEvent]) {
    for e in events {
        out.push_str("{\"kind\":\"alert\",\"seq\":");
        let _ = write!(out, "{},\"at_us\":{},\"slo\":\"", e.seq, e.at.as_micros());
        json_escape_into(out, &e.slo);
        let _ = writeln!(
            out,
            "\",\"alert\":\"{}\",\"burn_fast\":{:.3},\"burn_slow\":{:.3},\
             \"fast_bad\":{},\"fast_total\":{},\"slow_bad\":{},\"slow_total\":{}}}",
            e.kind.as_str(),
            e.burn_fast,
            e.burn_slow,
            e.fast_bad,
            e.fast_total,
            e.slow_bad,
            e.slow_total,
        );
    }
}

/// Allocating convenience form of [`alerts_to_jsonl_into`].
pub fn alerts_to_jsonl(events: &[AlertEvent]) -> String {
    let mut out = String::new();
    alerts_to_jsonl_into(&mut out, events);
    out
}

/// A reusable JSONL encode buffer for per-tick export loops.
///
/// Exporting the profiler or a span batch every tick used to allocate a
/// fresh `String` (and one more per escaped cell) per tick — the
/// profiler itself showed up on the profile it was producing. A sink is
/// allocated once, `clear`ed per tick (capacity kept), and written
/// through the `*_into` encoders above. [`JsonlSink::grows`] counts
/// buffer reallocations, so steady-state loops can *assert* the encode
/// path has stopped allocating (see the macro-benchmark, DESIGN.md §13).
#[derive(Debug, Default)]
pub struct JsonlSink {
    buf: String,
    grows: u64,
    /// Reused by [`Self::windows`] so windowed-histogram export never
    /// allocates a fresh accumulator per tick.
    histo_scratch: WindowHisto,
}

impl JsonlSink {
    /// A sink with a preallocated buffer.
    pub fn with_capacity(bytes: usize) -> Self {
        JsonlSink {
            buf: String::with_capacity(bytes),
            grows: 0,
            histo_scratch: WindowHisto::new(),
        }
    }

    /// Clear the buffer for the next tick, keeping its capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// The encoded JSONL so far.
    pub fn as_str(&self) -> &str {
        &self.buf
    }

    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been encoded since the last clear.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// How many times a write outgrew the buffer and forced a
    /// reallocation. Zero after warm-up means the encode path is
    /// allocation-free in steady state.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    fn track<R>(&mut self, f: impl FnOnce(&mut String) -> R) -> R {
        let before = self.buf.capacity();
        let r = f(&mut self.buf);
        if self.buf.capacity() != before {
            self.grows += 1;
        }
        r
    }

    /// Append a table's rows as JSONL.
    pub fn table(&mut self, table: &Table) {
        self.track(|buf| table_to_jsonl_into(buf, table));
    }

    /// Append span records as JSONL.
    pub fn spans(&mut self, spans: &[SpanRecord]) {
        self.track(|buf| spans_to_jsonl_into(buf, spans));
    }

    /// Append a registry snapshot as JSONL.
    pub fn registry(&mut self, reg: &Registry) {
        self.track(|buf| registry_to_jsonl_into(buf, reg));
    }

    /// Append the windowed view of every metric over the last `k`
    /// ticks (see [`windows_to_jsonl_into`]); the histogram scratch is
    /// owned by the sink, so steady-state streaming is allocation-free.
    pub fn windows(&mut self, w: &MetricWindows, k: usize) {
        let before = self.buf.capacity();
        windows_to_jsonl_into(&mut self.buf, w, k, &mut self.histo_scratch);
        if self.buf.capacity() != before {
            self.grows += 1;
        }
    }

    /// Append an SLO engine's status lines (see [`slo_to_jsonl_into`]).
    pub fn slo(&mut self, engine: &SloEngine) {
        self.track(|buf| slo_to_jsonl_into(buf, engine));
    }

    /// Append alert events (see [`alerts_to_jsonl_into`]).
    pub fn alerts(&mut self, events: &[AlertEvent]) {
        self.track(|buf| alerts_to_jsonl_into(buf, events));
    }

    /// Append one raw, pre-formed JSONL line (caller supplies valid
    /// JSON; a newline is added).
    pub fn raw_line(&mut self, line: &str) {
        self.track(|buf| {
            buf.push_str(line);
            buf.push('\n');
        });
    }

    /// Write through a closure with reallocation tracking — the hook
    /// custom encoders (e.g. [`crate::profile::TickProfiler::export_jsonl`])
    /// use to stay on the shared buffer.
    pub fn write_with(&mut self, f: impl FnOnce(&mut String)) {
        self.track(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use mv_common::time::SimTime;

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn table_rows_become_objects() {
        let mut t = Table::new("e18 stages", &["stage", "mean_ms", "note"]);
        t.row(&["wal".into(), "1.25".into(), "3.42x".into()]);
        let j = table_to_jsonl(&t);
        assert_eq!(
            j,
            "{\"kind\":\"table\",\"table\":\"e18 stages\",\"stage\":\"wal\",\
             \"mean_ms\":1.25,\"note\":\"3.42x\"}\n"
        );
    }

    #[test]
    fn spans_export_in_given_order() {
        let mut tr = Tracer::new();
        let ctx = tr.start_trace("root", SimTime::from_millis(1));
        tr.close(ctx.span, SimTime::from_millis(3), "ok");
        let j = spans_to_jsonl(&tr.trace_records(ctx.trace));
        assert_eq!(
            j,
            "{\"kind\":\"span\",\"trace\":1,\"span\":1,\"parent\":0,\"name\":\"root\",\
             \"start_us\":1000,\"end_us\":3000,\"status\":\"ok\"}\n"
        );
    }

    #[test]
    fn sink_reuse_stops_allocating_after_warmup() {
        // The satellite-2 claim: a per-tick export loop through one sink
        // reallocates only while warming up; once the buffer has grown to
        // the per-tick high-water mark, steady state is allocation-free.
        let mut t = Table::new("profile", &["stage", "mean_us"]);
        t.row(&["ingest".into(), "12.5".into()]);
        t.row(&["fanout".into(), "3.25".into()]);
        let mut sink = JsonlSink::default();
        for _ in 0..3 {
            sink.clear();
            sink.table(&t);
            sink.raw_line("{\"kind\":\"tick\",\"n\":1}");
        }
        let after_warmup = sink.grows();
        for _ in 0..1000 {
            sink.clear();
            sink.table(&t);
            sink.raw_line("{\"kind\":\"tick\",\"n\":1}");
        }
        assert_eq!(sink.grows(), after_warmup, "steady-state export must not reallocate");
        assert!(sink.as_str().contains("\"stage\":\"ingest\""));
        assert_eq!(sink.as_str(), table_to_jsonl(&t) + "{\"kind\":\"tick\",\"n\":1}\n");
    }

    #[test]
    fn preallocated_sink_never_grows() {
        let mut sink = JsonlSink::with_capacity(1 << 16);
        let mut t = Table::new("x", &["a"]);
        t.row(&["1".into()]);
        for _ in 0..100 {
            sink.clear();
            sink.table(&t);
        }
        assert_eq!(sink.grows(), 0);
    }

    #[test]
    fn windowed_and_slo_lines_have_expected_shapes() {
        use crate::slo::SloSpec;

        let mut r = Registry::new();
        let c = r.counter("net.transport.sent");
        let g = r.gauge("core.replicated.commit_lag");
        let h = r.histo("core.replicated.ack_ms");
        let mut w = MetricWindows::new(4);
        for i in 1..=4u64 {
            r.add(c, 2);
            r.set_gauge(g, i as f64);
            r.record(h, 8.0);
            w.roll(&r);
        }
        let j = windows_to_jsonl(&w, 4);
        assert!(j.contains(
            "{\"kind\":\"window_counter\",\"name\":\"net.transport.sent\",\
             \"ticks\":4,\"delta\":8,\"rate\":2}"
        ));
        assert!(
            j.contains("{\"kind\":\"window_gauge\",\"name\":\"core.replicated.commit_lag\",\"last\":4}")
        );
        assert!(j.contains("\"kind\":\"window_histo\",\"name\":\"core.replicated.ack_ms\",\"ticks\":4,\"count\":4"));

        let mut engine = SloEngine::new();
        engine.arm(SloSpec::availability("t.avail", "t.c.err", "t.c.total", 0.01));
        let s = slo_to_jsonl(&engine);
        assert!(s.contains("{\"kind\":\"slo\",\"slo\":\"t.avail\",\"active\":false}"));
        assert!(s.contains(
            "{\"kind\":\"slo_totals\",\"armed\":1,\"active\":0,\"fired\":0,\"cleared\":0}"
        ));
        assert!(alerts_to_jsonl(engine.events()).is_empty());
    }

    #[test]
    fn alert_events_export_canonical_fields() {
        use crate::slo::{HealthMonitor, SloSpec};

        let mut reg = Registry::new();
        let mut mon = HealthMonitor::new(64, 16);
        mon.arm(
            SloSpec::availability("t.avail", "t.c.err", "t.c.total", 0.01)
                .windows(8, 32)
                .min_events(4),
        );
        let (errs, total) = (reg.counter("t.c.err"), reg.counter("t.c.total"));
        for ms in 0..150u64 {
            reg.incr(total);
            if (50..90).contains(&ms) {
                reg.incr(errs);
            }
            mon.tick(SimTime::from_millis(ms), &reg);
        }
        let j = alerts_to_jsonl(mon.alert_log());
        assert!(j.contains("\"kind\":\"alert\",\"seq\":0,"), "{j}");
        assert!(j.contains("\"slo\":\"t.avail\",\"alert\":\"fire\""), "{j}");
        assert!(j.contains("\"alert\":\"clear\""), "{j}");
        // One line per event, every line a JSON object.
        assert_eq!(j.lines().count(), mon.alert_log().len());
        assert!(j.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn health_streaming_stops_allocating_after_warmup() {
        // The satellite-6 claim: streaming windowed metrics + SLO
        // status + new alert events through one sink every tick stops
        // reallocating once the buffer and the histogram scratch have
        // warmed up — the exporter never becomes per-tick allocation
        // pressure on the loop it is observing.
        use crate::slo::SloSpec;

        let mut r = Registry::new();
        let c = r.counter("t.c.total");
        let e = r.counter("t.c.err");
        let g = r.gauge("t.g.lag");
        let h = r.histo("t.h.ms");
        let mut w = MetricWindows::new(16);
        let mut engine = SloEngine::new();
        engine.arm(
            SloSpec::availability("t.avail", "t.c.err", "t.c.total", 0.05)
                .windows(4, 16)
                .min_events(4),
        );
        let mut sink = JsonlSink::default();
        let mut step = |tick: u64, sink: &mut JsonlSink| {
            r.add(c, 3);
            // A burst of errors during warmup so the alert path (fire
            // and clear events, active status flips) is exercised and
            // its buffer high-water mark is established before the
            // steady-state measurement starts.
            if (10..30).contains(&tick) {
                r.add(e, 3);
            }
            r.set_gauge(g, (tick % 7) as f64);
            r.record(h, (tick % 32) as f64 + 1.0);
            w.roll(&r);
            let before = engine.events().len();
            engine.evaluate(SimTime::from_millis(tick), &w);
            sink.clear();
            sink.windows(&w, 8);
            sink.slo(&engine);
            sink.alerts(&engine.events()[before..]);
        };
        for tick in 0..40u64 {
            step(tick, &mut sink);
        }
        let after_warmup = sink.grows();
        for tick in 40..1000u64 {
            step(tick, &mut sink);
        }
        assert!(engine.fired_total() >= 1, "alert path never exercised");
        assert_eq!(
            sink.grows(),
            after_warmup,
            "steady-state health export must not reallocate"
        );
        assert!(sink.as_str().contains("\"kind\":\"window_counter\""));
        assert!(sink.as_str().contains("\"kind\":\"slo_totals\""));
    }

    #[test]
    fn registry_snapshot_exports_all_kinds() {
        let mut r = Registry::new();
        let c = r.counter("net.sent");
        r.add(c, 7);
        let g = r.gauge("core.live");
        r.set_gauge(g, 2.5);
        let h = r.histo("lat");
        r.record(h, 4.0);
        let j = registry_to_jsonl(&r);
        assert!(j.contains("{\"kind\":\"counter\",\"name\":\"net.sent\",\"value\":7}"));
        assert!(j.contains("{\"kind\":\"gauge\",\"name\":\"core.live\",\"value\":2.5}"));
        assert!(j.contains("\"kind\":\"histogram\",\"name\":\"lat\",\"count\":1"));
    }
}
