//! Black-box flight recorder: the last `N` ticks of evidence, dumped
//! as a schema-versioned JSONL "debug bundle" when something goes
//! wrong.
//!
//! Counters tell you *that* the error budget burned; the recorder
//! tells you *what the system looked like while it burned*. A
//! [`FlightRecorder`] keeps a bounded ring of [`TickEvidence`] — the
//! per-tick metric deltas and gauge values extracted from
//! `crate::window`, the canonical alert lines from `crate::slo`, and
//! any component event-log lines fed in (raft leader changes, crash
//! epochs, recovery summaries). On a trigger — an SLO alert firing, an
//! invariant tripping, or a crash-recovery path running — [`dump`]
//! freezes the ring into a [`DebugBundle`] whose first line names the
//! [`BUNDLE_SCHEMA`].
//!
//! Determinism: evidence is sim-clock-stamped and name-sorted, so two
//! same-seed runs produce byte-identical bundles
//! ([`FlightRecorder::bundle_hash`] is CI-gated by E22). Memory is
//! bounded by `cap_ticks × per-tick line caps × bundle cap` — the
//! recorder can run armed forever.
//!
//! This file is in the `panic-path` lint scope: no unwraps, no `[]`
//! indexing.
//!
//! [`dump`]: FlightRecorder::dump

use crate::export::json_escape_into;
use mv_common::hash::fx_hash_one;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Schema tag on every bundle's header line. Bump on layout changes;
/// `bench_check` validates it.
pub const BUNDLE_SCHEMA: &str = "mv-debug-bundle/v1";

/// One tick's worth of evidence: metric deltas, gauge values, alert
/// lines, and component event-log lines.
#[derive(Debug, Clone, Default)]
// lint:allow(dead-pub): taken by `FlightRecorder::push`, which other crates call
pub struct TickEvidence {
    /// Sim timestamp of the tick, microseconds.
    pub at_us: u64,
    /// Counters that moved this tick: `(name, delta)`, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Gauge values as of this tick, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// Canonical alert lines emitted this tick (`crate::slo`).
    pub alerts: Vec<String>,
    /// Component event-log lines observed this tick.
    pub events: Vec<String>,
    /// Rendered span lines closed this tick (optional).
    pub spans: Vec<String>,
}

impl TickEvidence {
    /// Empty evidence stamped at `at_us`.
    pub fn at(at_us: u64) -> Self {
        TickEvidence { at_us, ..Default::default() }
    }
}

/// A frozen snapshot of the recorder's ring, rendered as JSONL.
#[derive(Debug, Clone)]
// lint:allow(dead-pub): returned by `FlightRecorder::bundles`, which other crates call
pub struct DebugBundle {
    /// Bundle sequence number within this recorder (0-based).
    pub seq: u64,
    /// Why the dump happened (e.g. `slo-fire:region.availability`,
    /// `invariant:divergence`, `recovery:n2`).
    pub reason: String,
    /// Sim timestamp of the trigger, microseconds.
    pub at_us: u64,
    /// The rendered bundle: one header line, then one line per
    /// buffered tick, oldest first.
    pub jsonl: String,
}

/// Bounded ring of recent evidence plus the bundles dumped so far.
#[derive(Debug)]
// lint:allow(dead-pub): the type of `HealthMonitor::recorder`, which other crates read
pub struct FlightRecorder {
    cap_ticks: usize,
    max_bundles: usize,
    max_lines: usize,
    ring: VecDeque<TickEvidence>,
    bundles: Vec<DebugBundle>,
    dropped_bundles: u64,
}

impl FlightRecorder {
    /// A recorder keeping the last `cap_ticks` ticks, at most 8
    /// bundles, and at most 64 lines per evidence category per tick.
    pub fn new(cap_ticks: usize) -> Self {
        Self::with_limits(cap_ticks, 8, 64)
    }

    /// Fully parameterised constructor (all caps clamped to ≥ 1).
    pub(crate) fn with_limits(cap_ticks: usize, max_bundles: usize, max_lines: usize) -> Self {
        FlightRecorder {
            cap_ticks: cap_ticks.max(1),
            max_bundles: max_bundles.max(1),
            max_lines: max_lines.max(1),
            ring: VecDeque::new(),
            bundles: Vec::new(),
            dropped_bundles: 0,
        }
    }

    /// Bundles dumped so far, oldest first.
    pub fn bundles(&self) -> &[DebugBundle] {
        &self.bundles
    }

    /// Append one tick of evidence, evicting the oldest tick when the
    /// ring is full. Over-long line lists are truncated with a
    /// `(+n more)` marker so memory stays bounded.
    pub fn push(&mut self, mut ev: TickEvidence) {
        truncate_lines(&mut ev.alerts, self.max_lines);
        truncate_lines(&mut ev.events, self.max_lines);
        truncate_lines(&mut ev.spans, self.max_lines);
        if self.ring.len() == self.cap_ticks {
            self.ring.pop_front();
        }
        self.ring.push_back(ev);
    }

    /// Freeze the ring into a bundle. Returns false (and counts a
    /// dropped bundle) once `max_bundles` have been dumped — an alert
    /// storm must not turn the recorder into the memory problem.
    pub fn dump(&mut self, reason: &str, at_us: u64) -> bool {
        if self.bundles.len() >= self.max_bundles {
            self.dropped_bundles += 1;
            return false;
        }
        let seq = self.bundles.len() as u64;
        let mut out = String::new();
        out.push_str("{\"schema\":\"");
        out.push_str(BUNDLE_SCHEMA);
        out.push_str("\",\"seq\":");
        let _ = write!(out, "{seq}");
        out.push_str(",\"reason\":\"");
        json_escape_into(&mut out, reason);
        out.push_str("\",\"at_us\":");
        let _ = write!(out, "{at_us}");
        out.push_str(",\"ticks\":");
        let _ = write!(out, "{}", self.ring.len());
        out.push_str("}\n");
        for ev in &self.ring {
            render_tick(&mut out, ev);
        }
        self.bundles.push(DebugBundle { seq, reason: reason.to_string(), at_us, jsonl: out });
        true
    }

    /// All bundles concatenated — the byte string E22's determinism
    /// gate compares across same-seed runs.
    pub(crate) fn bundle_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for b in &self.bundles {
            out.extend_from_slice(b.jsonl.as_bytes());
        }
        out
    }

    /// Fingerprint of `Self::bundle_bytes`.
    pub fn bundle_hash(&self) -> u64 {
        fx_hash_one(&self.bundle_bytes())
    }
}

fn truncate_lines(lines: &mut Vec<String>, cap: usize) {
    if lines.len() > cap {
        let extra = lines.len() - cap;
        lines.truncate(cap);
        lines.push(format!("(+{extra} more)"));
    }
}

fn render_tick(out: &mut String, ev: &TickEvidence) {
    out.push_str("{\"kind\":\"tick\",\"at_us\":");
    let _ = write!(out, "{}", ev.at_us);
    out.push_str(",\"counters\":{");
    for (i, (name, d)) in ev.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        json_escape_into(out, name);
        out.push_str("\":");
        let _ = write!(out, "{d}");
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, v)) in ev.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        json_escape_into(out, name);
        out.push_str("\":");
        let _ = write!(out, "{v}");
    }
    out.push('}');
    render_str_list(out, "alerts", &ev.alerts);
    render_str_list(out, "events", &ev.events);
    render_str_list(out, "spans", &ev.spans);
    out.push_str("}\n");
}

fn render_str_list(out: &mut String, key: &str, lines: &[String]) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":[");
    for (i, line) in lines.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        json_escape_into(out, line);
        out.push('"');
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(at_us: u64, counter: u64) -> TickEvidence {
        let mut ev = TickEvidence::at(at_us);
        ev.counters.push(("t.c.x".to_string(), counter));
        ev.gauges.push(("t.g.y".to_string(), 1.5));
        ev
    }

    #[test]
    fn ring_is_bounded_and_fifo() {
        let mut fr = FlightRecorder::new(3);
        for i in 0..5 {
            fr.push(tick(i * 1000, i));
        }
        assert_eq!(fr.ring.len(), 3);
        assert!(fr.dump("test", 5000));
        let b = &fr.bundles()[0];
        // Oldest retained tick is #2.
        assert!(b.jsonl.contains("\"at_us\":2000"), "{}", b.jsonl);
        assert!(!b.jsonl.contains("\"at_us\":1000"));
        assert!(b.jsonl.starts_with("{\"schema\":\"mv-debug-bundle/v1\""));
        assert!(b.jsonl.contains("\"ticks\":3"));
    }

    #[test]
    fn bundle_cap_drops_excess_dumps() {
        let mut fr = FlightRecorder::with_limits(2, 2, 8);
        fr.push(tick(0, 1));
        assert!(fr.dump("a", 1));
        assert!(fr.dump("b", 2));
        assert!(!fr.dump("c", 3));
        assert_eq!(fr.bundles().len(), 2);
        assert_eq!(fr.dropped_bundles, 1);
    }

    #[test]
    fn long_line_lists_truncate_with_marker() {
        let mut fr = FlightRecorder::with_limits(4, 4, 2);
        let mut ev = TickEvidence::at(0);
        ev.events = (0..5).map(|i| format!("event {i}")).collect();
        fr.push(ev);
        fr.dump("t", 0);
        let b = &fr.bundles()[0];
        assert!(b.jsonl.contains("(+3 more)"), "{}", b.jsonl);
        assert!(!b.jsonl.contains("event 4"));
    }

    #[test]
    fn bundles_hash_deterministically() {
        let build = || {
            let mut fr = FlightRecorder::new(4);
            fr.push(tick(1000, 7));
            fr.push(tick(2000, 9));
            fr.dump("slo-fire:x", 2000);
            fr
        };
        assert_eq!(build().bundle_hash(), build().bundle_hash());
        assert_eq!(build().bundle_bytes(), build().bundle_bytes());
    }

    #[test]
    fn escaping_survives_hostile_reasons() {
        let mut fr = FlightRecorder::new(1);
        fr.push(TickEvidence::at(0));
        fr.dump("quote\" and \\ backslash", 0);
        let b = &fr.bundles()[0];
        assert!(b.jsonl.contains("quote\\\" and \\\\ backslash"), "{}", b.jsonl);
    }
}
