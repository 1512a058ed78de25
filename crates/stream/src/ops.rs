//! Stream operators.
//!
//! Operators are push-based: `process` consumes one input record and
//! appends zero or more outputs; `flush` force-closes any buffered state
//! (open windows) at end-of-stream. All operators are deterministic.

use crate::record::StreamRecord;
use mv_common::hash::FastMap;
use mv_common::time::{SimDuration, SimTime};

/// A single-input stream operator.
// lint:allow(dead-pub): the bound of `Pipeline::then`, which other crates call
pub trait Operator: Send {
    /// Consume one record, appending outputs to `out`.
    fn process(&mut self, rec: StreamRecord, out: &mut Vec<StreamRecord>);

    /// Close buffered state (open windows) as of `now`.
    fn flush(&mut self, _now: SimTime, _out: &mut Vec<StreamRecord>) {}

    /// A short name for plans and diagnostics.
    fn name(&self) -> &'static str;
}

/// Stateless 1→1 transformation via a user-defined function.
pub struct MapOp {
    f: Box<dyn Fn(StreamRecord) -> StreamRecord + Send>,
}

impl MapOp {
    /// Wrap a UDF.
    pub fn new(f: impl Fn(StreamRecord) -> StreamRecord + Send + 'static) -> Self {
        MapOp { f: Box::new(f) }
    }
}

impl Operator for MapOp {
    fn process(&mut self, rec: StreamRecord, out: &mut Vec<StreamRecord>) {
        out.push((self.f)(rec));
    }
    fn name(&self) -> &'static str {
        "map"
    }
}

/// Stateless filter via a user-defined predicate.
pub struct FilterOp {
    pred: Box<dyn Fn(&StreamRecord) -> bool + Send>,
}

impl FilterOp {
    /// Wrap a predicate.
    pub fn new(pred: impl Fn(&StreamRecord) -> bool + Send + 'static) -> Self {
        FilterOp { pred: Box::new(pred) }
    }
}

impl Operator for FilterOp {
    fn process(&mut self, rec: StreamRecord, out: &mut Vec<StreamRecord>) {
        if (self.pred)(&rec) {
            out.push(rec);
        }
    }
    fn name(&self) -> &'static str {
        "filter"
    }
}

/// The interpolation operator §IV-G calls for: when a key's consecutive
/// samples are further apart than `max_gap`, emit linearly interpolated
/// samples every `step` so the virtual space sees a smooth signal.
pub struct InterpolateOp {
    step: SimDuration,
    max_gap: SimDuration,
    last: FastMap<u64, StreamRecord>,
}

impl InterpolateOp {
    /// Interpolate gaps larger than `max_gap` at `step` resolution.
    ///
    /// # Panics
    /// Panics if `step` is zero.
    pub fn new(step: SimDuration, max_gap: SimDuration) -> Self {
        assert!(step.as_micros() > 0, "interpolation step must be positive");
        InterpolateOp { step, max_gap, last: FastMap::default() }
    }
}

impl Operator for InterpolateOp {
    fn process(&mut self, rec: StreamRecord, out: &mut Vec<StreamRecord>) {
        if let Some(prev) = self.last.get(&rec.key).copied() {
            let gap = rec.ts.since(prev.ts);
            if gap > self.max_gap && gap.as_micros() > 0 {
                // Emit intermediate samples strictly between prev and rec.
                let mut t = prev.ts + self.step;
                while t < rec.ts {
                    let frac = t.since(prev.ts).as_micros() as f64 / gap.as_micros() as f64;
                    let v = prev.value + (rec.value - prev.value) * frac;
                    out.push(StreamRecord { ts: t, key: rec.key, value: v, space: rec.space });
                    t += self.step;
                }
            }
        }
        self.last.insert(rec.key, rec);
        out.push(rec);
    }
    fn name(&self) -> &'static str {
        "interpolate"
    }
}

/// Aggregation kind for window operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// Sum of values.
    Sum,
    /// Arithmetic mean.
    Avg,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Count of records.
    Count,
}

impl AggKind {
    fn finish(self, sum: f64, min: f64, max: f64, n: u64) -> f64 {
        match self {
            AggKind::Sum => sum,
            AggKind::Avg => {
                if n == 0 {
                    0.0
                } else {
                    sum / n as f64
                }
            }
            AggKind::Min => min,
            AggKind::Max => max,
            AggKind::Count => n as f64,
        }
    }
}

/// Window shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// Non-overlapping windows of the given length.
    Tumbling(SimDuration),
    /// Overlapping windows of `len`, advancing by `slide`.
    Sliding {
        /// Window length.
        len: SimDuration,
        /// Advance between window starts; must divide evenly into sensible
        /// window boundaries (`slide <= len`).
        slide: SimDuration,
    },
}

#[derive(Debug, Clone, Copy)]
struct WindowAcc {
    sum: f64,
    min: f64,
    max: f64,
    n: u64,
}

impl WindowAcc {
    fn new() -> Self {
        WindowAcc { sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY, n: 0 }
    }
    fn add(&mut self, v: f64) {
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.n += 1;
    }
}

/// Per-key event-time window aggregation. Emits one record per closed
/// window per key, timestamped at the window end. Records are assumed
/// in-order per key (the fusion layer reorders late data upstream).
pub struct WindowAggOp {
    kind: WindowKind,
    agg: AggKind,
    /// Open windows: (key, window_start_us) → accumulator.
    open: FastMap<(u64, u64), WindowAcc>,
    /// High-water mark of event time seen.
    watermark: SimTime,
}

impl WindowAggOp {
    /// Create a window aggregation.
    ///
    /// # Panics
    /// Panics on zero-length windows or `slide > len` / zero slide.
    pub fn new(kind: WindowKind, agg: AggKind) -> Self {
        match kind {
            WindowKind::Tumbling(len) => assert!(len.as_micros() > 0, "zero window"),
            WindowKind::Sliding { len, slide } => {
                assert!(len.as_micros() > 0 && slide.as_micros() > 0, "zero window/slide");
                assert!(slide <= len, "slide must not exceed window length");
            }
        }
        WindowAggOp { kind, agg, open: FastMap::default(), watermark: SimTime::ZERO }
    }

    /// Window starts containing timestamp `t`.
    fn windows_for(&self, t: SimTime) -> Vec<u64> {
        match self.kind {
            WindowKind::Tumbling(len) => {
                let l = len.as_micros();
                vec![(t.as_micros() / l) * l]
            }
            WindowKind::Sliding { len, slide } => {
                let l = len.as_micros();
                let s = slide.as_micros();
                let ts = t.as_micros();
                // Starts w with w <= ts < w + l and w ≡ 0 (mod s).
                let first = (ts.saturating_sub(l.saturating_sub(s)) / s) * s;
                let mut out = Vec::new();
                let mut w = first;
                while w <= ts {
                    if ts < w + l {
                        out.push(w);
                    }
                    w += s;
                }
                out
            }
        }
    }

    fn window_len(&self) -> u64 {
        match self.kind {
            WindowKind::Tumbling(len) => len.as_micros(),
            WindowKind::Sliding { len, .. } => len.as_micros(),
        }
    }

    fn emit_closed(&mut self, out: &mut Vec<StreamRecord>) {
        let len = self.window_len();
        let wm = self.watermark.as_micros();
        let mut closed: Vec<(u64, u64)> = self
            .open
            .keys()
            .filter(|(_, start)| start + len <= wm)
            .copied()
            .collect();
        // Deterministic emission order: by window end then key.
        closed.sort_by_key(|&(k, s)| (s, k));
        for key @ (k, start) in closed {
            let acc = self.open.remove(&key).expect("listed above");
            out.push(StreamRecord {
                ts: SimTime::from_micros(start + len),
                key: k,
                value: self.agg.finish(acc.sum, acc.min, acc.max, acc.n),
                space: mv_common::Space::Physical,
            });
        }
    }
}

impl Operator for WindowAggOp {
    fn process(&mut self, rec: StreamRecord, out: &mut Vec<StreamRecord>) {
        for w in self.windows_for(rec.ts) {
            self.open.entry((rec.key, w)).or_insert_with(WindowAcc::new).add(rec.value);
        }
        if rec.ts > self.watermark {
            self.watermark = rec.ts;
            self.emit_closed(out);
        }
    }

    fn flush(&mut self, _now: SimTime, out: &mut Vec<StreamRecord>) {
        // End-of-stream: close every open window.
        self.watermark = SimTime::MAX;
        self.emit_closed(out);
    }

    fn name(&self) -> &'static str {
        "window_agg"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ms: u64, key: u64, v: f64) -> StreamRecord {
        StreamRecord::physical(SimTime::from_millis(ms), key, v)
    }

    #[test]
    fn map_and_filter_compose() {
        let mut m = MapOp::new(|r| r.with_value(r.value * 2.0));
        let mut f = FilterOp::new(|r| r.value > 5.0);
        let mut out = Vec::new();
        m.process(rec(1, 1, 2.0), &mut out);
        m.process(rec(2, 1, 4.0), &mut out);
        let mut final_out = Vec::new();
        for r in out.drain(..) {
            f.process(r, &mut final_out);
        }
        assert_eq!(final_out.len(), 1);
        assert_eq!(final_out[0].value, 8.0);
    }

    #[test]
    fn interpolate_fills_gaps() {
        let mut op =
            InterpolateOp::new(SimDuration::from_millis(10), SimDuration::from_millis(15));
        let mut out = Vec::new();
        op.process(rec(0, 1, 0.0), &mut out);
        assert_eq!(out.len(), 1); // first sample passes through
        out.clear();
        // 40 ms gap > 15 ms max: expect samples at 10, 20, 30 + original.
        op.process(rec(40, 1, 4.0), &mut out);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].ts, SimTime::from_millis(10));
        assert!((out[0].value - 1.0).abs() < 1e-9);
        assert!((out[1].value - 2.0).abs() < 1e-9);
        assert!((out[2].value - 3.0).abs() < 1e-9);
        assert_eq!(out[3], rec(40, 1, 4.0));
    }

    #[test]
    fn interpolate_ignores_small_gaps_and_other_keys() {
        let mut op =
            InterpolateOp::new(SimDuration::from_millis(10), SimDuration::from_millis(50));
        let mut out = Vec::new();
        op.process(rec(0, 1, 0.0), &mut out);
        op.process(rec(20, 1, 2.0), &mut out); // gap below max_gap
        op.process(rec(100, 2, 5.0), &mut out); // different key, first sample
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn tumbling_window_sums() {
        let mut op =
            WindowAggOp::new(WindowKind::Tumbling(SimDuration::from_millis(10)), AggKind::Sum);
        let mut out = Vec::new();
        op.process(rec(1, 1, 1.0), &mut out);
        op.process(rec(5, 1, 2.0), &mut out);
        op.process(rec(12, 1, 4.0), &mut out); // closes [0,10)
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ts, SimTime::from_millis(10));
        assert_eq!(out[0].value, 3.0);
        op.flush(SimTime::from_millis(100), &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].value, 4.0);
    }

    #[test]
    fn tumbling_window_multiple_keys() {
        let mut op =
            WindowAggOp::new(WindowKind::Tumbling(SimDuration::from_millis(10)), AggKind::Count);
        let mut out = Vec::new();
        op.process(rec(1, 1, 1.0), &mut out);
        op.process(rec(2, 2, 1.0), &mut out);
        op.process(rec(3, 2, 1.0), &mut out);
        op.flush(SimTime::from_millis(10), &mut out);
        assert_eq!(out.len(), 2);
        // Deterministic order: by (window end, key).
        assert_eq!((out[0].key, out[0].value), (1, 1.0));
        assert_eq!((out[1].key, out[1].value), (2, 2.0));
    }

    #[test]
    fn sliding_windows_overlap() {
        let mut op = WindowAggOp::new(
            WindowKind::Sliding {
                len: SimDuration::from_millis(20),
                slide: SimDuration::from_millis(10),
            },
            AggKind::Sum,
        );
        let mut out = Vec::new();
        op.process(rec(5, 1, 1.0), &mut out); // in windows [0,20) and... only [0,20) (window starting at -10 doesn't exist)
        op.process(rec(15, 1, 2.0), &mut out); // in [0,20) and [10,30)
        op.process(rec(35, 1, 4.0), &mut out); // closes [0,20) and [10,30)
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].ts, SimTime::from_millis(20));
        assert_eq!(out[0].value, 3.0);
        assert_eq!(out[1].ts, SimTime::from_millis(30));
        assert_eq!(out[1].value, 2.0);
    }

    #[test]
    fn avg_min_max_aggregations() {
        for (agg, expect) in [(AggKind::Avg, 2.0), (AggKind::Min, 1.0), (AggKind::Max, 3.0)] {
            let mut op =
                WindowAggOp::new(WindowKind::Tumbling(SimDuration::from_millis(10)), agg);
            let mut out = Vec::new();
            op.process(rec(1, 1, 1.0), &mut out);
            op.process(rec(2, 1, 3.0), &mut out);
            op.flush(SimTime::from_millis(10), &mut out);
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].value, expect, "{agg:?}");
        }
    }
}
