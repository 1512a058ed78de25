//! Sliding-window aggregation over a [`Registry`] snapshot stream.
//!
//! The registry's counters and histograms are *cumulative*: perfect for
//! totals, useless for "is the error rate elevated *right now*". This
//! module turns cumulative metrics into windowed ones: a
//! [`MetricWindows`] is rolled once per sim tick against a registry and
//! keeps a fixed ring of per-tick deltas — counter increments, histogram
//! bucket increments, gauge samples — so any suffix window of up to
//! `len` ticks can be queried in O(window) time with memory bounded by
//! `names × len`, never by update volume.
//!
//! Determinism: everything here is integer bucket arithmetic plus IEEE
//! divisions of integers, driven by the sim clock. Two same-seed runs
//! roll identical registries and therefore produce identical windowed
//! values; the SLO layer (`crate::slo`) builds its reproducible alert
//! log on top of that.
//!
//! Merging: [`MetricWindows::merge_from`] mirrors [`Registry::merge`]
//! — counters and histogram buckets sum slot-wise, gauges take the
//! other side's value (latest wins). For windows of the same length
//! rolled in lockstep (one `roll` per sim tick on every shard), merging
//! windows commutes with merging registries: `window(merge(r1, r2)) ≡
//! merge(window(r1), window(r2))` — property-tested in
//! `tests/window_merge.rs`.
//!
//! This file is in the `panic-path` lint scope: no unwraps, no `[]`
//! indexing — a malformed query degrades to zero, it never panics.

use crate::registry::{LogHistogram, Registry, LOG_BUCKETS};
use std::collections::BTreeMap;

/// Per-counter state: last seen cumulative total plus a ring of
/// per-tick deltas.
#[derive(Debug, Clone)]
struct CounterTrack {
    total: u64,
    ring: Vec<u64>,
}

/// Per-histogram state: cumulative bucket counts plus flattened rings
/// of per-tick bucket/count/sum deltas (slot `s` owns
/// `ring[s*LOG_BUCKETS .. (s+1)*LOG_BUCKETS]`).
#[derive(Debug, Clone)]
struct HistoTrack {
    cum_buckets: Vec<u64>,
    cum_count: u64,
    cum_sum: f64,
    ring: Vec<u64>,
    counts: Vec<u64>,
    sums: Vec<f64>,
}

/// Per-gauge state: the latest value plus a ring of per-tick samples
/// (carried forward on ticks where the gauge is not written).
#[derive(Debug, Clone)]
struct GaugeTrack {
    last: f64,
    ring: Vec<f64>,
}

/// Aggregated view of one histogram over a window of recent ticks:
/// merged bucket counts plus count/sum. Quantiles interpolate inside
/// the power-of-two buckets (no exact min/max is available for a
/// window, so unlike [`LogHistogram::quantile`] estimates are clamped
/// only to bucket bounds).
#[derive(Debug, Clone, Default)]
// lint:allow(dead-pub): returned by `MetricWindows::histo_window`, which other crates call
pub struct WindowHisto {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
}

impl WindowHisto {
    /// An empty window view (reusable across fills — see
    /// `MetricWindows::histo_window_into`).
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self) {
        self.buckets.clear();
        self.buckets.resize(LOG_BUCKETS, 0);
        self.count = 0;
        self.sum = 0.0;
    }

    fn add_chunk(&mut self, chunk: &[u64], count: u64, sum: f64) {
        for (a, b) in self.buckets.iter_mut().zip(chunk.iter()) {
            *a += b;
        }
        self.count += count;
        self.sum += sum;
    }

    /// Number of samples in the window.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples in the window.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean sample in the window (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile `q in [0,1]` from the windowed buckets:
    /// nearest-rank to a bucket, then linear interpolation inside it.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            if b == 0 {
                continue;
            }
            if seen + b >= rank {
                let lo = LogHistogram::bucket_floor(i);
                let hi = LogHistogram::bucket_floor(i + 1).max(lo);
                let frac = (rank - seen) as f64 / b as f64;
                return lo + (hi - lo) * frac;
            }
            seen += b;
        }
        0.0
    }

    /// Samples whose bucket lower bound is at or above `threshold` —
    /// i.e. samples *provably* ≥ threshold. The threshold is
    /// effectively rounded up to a bucket boundary; SLO latency
    /// objectives should pick power-of-two thresholds to make the
    /// boundary exact.
    pub(crate) fn at_or_above(&self, threshold: f64) -> u64 {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(i, _)| LogHistogram::bucket_floor(*i) >= threshold)
            .map(|(_, &b)| b)
            .sum()
    }
}

/// Sliding-window aggregation over a registry: a fixed ring of `len`
/// per-tick buckets per metric. Roll once per sim tick with
/// [`MetricWindows::roll`], then query any suffix window of `k ≤ len`
/// ticks.
#[derive(Debug, Clone)]
pub struct MetricWindows {
    len: usize,
    ticks: u64,
    counters: BTreeMap<String, CounterTrack>,
    histos: BTreeMap<String, HistoTrack>,
    gauges: BTreeMap<String, GaugeTrack>,
}

impl MetricWindows {
    /// A window ring of `len` ticks (clamped to at least 1).
    pub fn new(len: usize) -> Self {
        MetricWindows {
            len: len.max(1),
            ticks: 0,
            counters: BTreeMap::new(),
            histos: BTreeMap::new(),
            gauges: BTreeMap::new(),
        }
    }

    /// Ring length in ticks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True before the first roll.
    pub fn is_empty(&self) -> bool {
        self.ticks == 0
    }

    /// Number of ticks rolled so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Ticks of data a `k`-tick query actually covers (less than `k`
    /// until the ring has filled).
    pub(crate) fn window_ticks(&self, k: usize) -> u64 {
        k.max(1).min(self.valid()) as u64
    }

    fn valid(&self) -> usize {
        self.ticks.min(self.len as u64) as usize
    }

    /// Ring slot of the `j`-th most recent tick (0 = the last rolled
    /// tick); `None` when fewer than `j + 1` ticks exist.
    fn slot_back(&self, j: usize) -> Option<usize> {
        let t = self.ticks.checked_sub(1 + j as u64)?;
        Some((t % self.len as u64) as usize)
    }

    /// Ingest one tick: diff the registry's cumulative state against
    /// the last roll and store the deltas in this tick's ring slot.
    pub fn roll(&mut self, reg: &Registry) {
        let slot = (self.ticks % self.len as u64) as usize;
        // Zero this tick's slot in every known track first: a metric
        // the registry no longer moves still owns a stale slot from
        // `len` ticks ago, and a gauge carries its last value forward.
        for t in self.counters.values_mut() {
            if let Some(s) = t.ring.get_mut(slot) {
                *s = 0;
            }
        }
        for t in self.histos.values_mut() {
            let start = slot * LOG_BUCKETS;
            if let Some(chunk) = t.ring.get_mut(start..start + LOG_BUCKETS) {
                for b in chunk {
                    *b = 0;
                }
            }
            if let Some(c) = t.counts.get_mut(slot) {
                *c = 0;
            }
            if let Some(s) = t.sums.get_mut(slot) {
                *s = 0.0;
            }
        }
        for t in self.gauges.values_mut() {
            let last = t.last;
            if let Some(s) = t.ring.get_mut(slot) {
                *s = last;
            }
        }
        for (name, v) in reg.counters() {
            match self.counters.get_mut(name) {
                Some(t) => {
                    let d = v.saturating_sub(t.total);
                    t.total = v;
                    if let Some(s) = t.ring.get_mut(slot) {
                        *s = d;
                    }
                }
                None => {
                    // First sighting: the whole total is this tick's delta.
                    let mut t = CounterTrack { total: v, ring: vec![0; self.len] };
                    if let Some(s) = t.ring.get_mut(slot) {
                        *s = v;
                    }
                    self.counters.insert(name.to_string(), t);
                }
            }
        }
        for (name, h) in reg.histograms() {
            match self.histos.get_mut(name) {
                Some(t) => {
                    let start = slot * LOG_BUCKETS;
                    if let Some(chunk) = t.ring.get_mut(start..start + LOG_BUCKETS) {
                        for ((d, cur), cum) in chunk
                            .iter_mut()
                            .zip(h.bucket_counts().iter())
                            .zip(t.cum_buckets.iter_mut())
                        {
                            *d = cur.saturating_sub(*cum);
                            *cum = *cur;
                        }
                    }
                    let dc = h.count().saturating_sub(t.cum_count);
                    let ds = h.sum() - t.cum_sum;
                    t.cum_count = h.count();
                    t.cum_sum = h.sum();
                    if let Some(c) = t.counts.get_mut(slot) {
                        *c = dc;
                    }
                    if let Some(s) = t.sums.get_mut(slot) {
                        *s = ds;
                    }
                }
                None => {
                    let mut t = HistoTrack {
                        cum_buckets: h.bucket_counts().to_vec(),
                        cum_count: h.count(),
                        cum_sum: h.sum(),
                        ring: vec![0; self.len * LOG_BUCKETS],
                        counts: vec![0; self.len],
                        sums: vec![0.0; self.len],
                    };
                    let start = slot * LOG_BUCKETS;
                    if let Some(chunk) = t.ring.get_mut(start..start + LOG_BUCKETS) {
                        for (d, cur) in chunk.iter_mut().zip(h.bucket_counts().iter()) {
                            *d = *cur;
                        }
                    }
                    if let Some(c) = t.counts.get_mut(slot) {
                        *c = h.count();
                    }
                    if let Some(s) = t.sums.get_mut(slot) {
                        *s = h.sum();
                    }
                    self.histos.insert(name.to_string(), t);
                }
            }
        }
        for (name, v) in reg.gauges() {
            match self.gauges.get_mut(name) {
                Some(t) => {
                    t.last = v;
                    if let Some(s) = t.ring.get_mut(slot) {
                        *s = v;
                    }
                }
                None => {
                    let mut t = GaugeTrack { last: v, ring: vec![0.0; self.len] };
                    if let Some(s) = t.ring.get_mut(slot) {
                        *s = v;
                    }
                    self.gauges.insert(name.to_string(), t);
                }
            }
        }
        self.ticks += 1;
    }

    /// Sum of counter `name`'s increments over the last `k` ticks
    /// (0 for an unknown counter).
    pub fn counter_delta(&self, name: &str, k: usize) -> u64 {
        let Some(t) = self.counters.get(name) else {
            return 0;
        };
        let n = k.max(1).min(self.valid());
        let mut sum = 0u64;
        for j in 0..n {
            if let Some(slot) = self.slot_back(j) {
                sum += t.ring.get(slot).copied().unwrap_or(0);
            }
        }
        sum
    }

    /// Per-tick rate of counter `name` over the last `k` ticks.
    pub fn rate(&self, name: &str, k: usize) -> f64 {
        let ticks = self.window_ticks(k);
        if ticks == 0 {
            return 0.0;
        }
        self.counter_delta(name, k) as f64 / ticks as f64
    }

    /// Fill `out` with histogram `name`'s windowed view over the last
    /// `k` ticks, reusing `out`'s buffers. Returns false (and leaves
    /// `out` empty) for an unknown histogram.
    pub(crate) fn histo_window_into(&self, name: &str, k: usize, out: &mut WindowHisto) -> bool {
        out.reset();
        let Some(t) = self.histos.get(name) else {
            return false;
        };
        let n = k.max(1).min(self.valid());
        for j in 0..n {
            if let Some(slot) = self.slot_back(j) {
                let start = slot * LOG_BUCKETS;
                if let Some(chunk) = t.ring.get(start..start + LOG_BUCKETS) {
                    out.add_chunk(
                        chunk,
                        t.counts.get(slot).copied().unwrap_or(0),
                        t.sums.get(slot).copied().unwrap_or(0.0),
                    );
                }
            }
        }
        true
    }

    /// Allocating convenience form of `Self::histo_window_into`.
    pub fn histo_window(&self, name: &str, k: usize) -> WindowHisto {
        let mut out = WindowHisto::new();
        self.histo_window_into(name, k, &mut out);
        out
    }

    /// Latest value of gauge `name` (0 if unknown).
    pub(crate) fn gauge_last(&self, name: &str) -> f64 {
        self.gauges.get(name).map_or(0.0, |t| t.last)
    }

    /// Ticks among the last `k` where gauge `name` exceeded
    /// `threshold`.
    pub(crate) fn gauge_ticks_above(&self, name: &str, threshold: f64, k: usize) -> u64 {
        let Some(t) = self.gauges.get(name) else {
            return 0;
        };
        let n = k.max(1).min(self.valid());
        let mut above = 0u64;
        for j in 0..n {
            if let Some(slot) = self.slot_back(j) {
                if t.ring.get(slot).copied().unwrap_or(0.0) > threshold {
                    above += 1;
                }
            }
        }
        above
    }

    /// Counter names seen so far, sorted.
    pub(crate) fn counter_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.counters.keys().map(String::as_str)
    }

    /// Histogram names seen so far, sorted.
    pub(crate) fn histo_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.histos.keys().map(String::as_str)
    }

    /// Gauge names seen so far, sorted.
    pub(crate) fn gauge_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.gauges.keys().map(String::as_str)
    }

    /// Visit every counter with a non-zero delta on the most recent
    /// tick, in name order (the flight recorder's per-tick evidence).
    pub(crate) fn for_each_last_counter_delta(&self, mut f: impl FnMut(&str, u64)) {
        let Some(slot) = self.slot_back(0) else {
            return;
        };
        for (name, t) in &self.counters {
            let d = t.ring.get(slot).copied().unwrap_or(0);
            if d > 0 {
                f(name, d);
            }
        }
    }

    /// Visit every gauge's latest value, in name order.
    pub(crate) fn for_each_gauge(&self, mut f: impl FnMut(&str, f64)) {
        for (name, t) in &self.gauges {
            f(name, t.last);
        }
    }

    /// Merge another window into this one, mirroring
    /// [`Registry::merge`]: counters and histogram buckets sum
    /// slot-wise, gauges take `other`'s values. Both windows must have
    /// the same ring length and be rolled in lockstep (same tick
    /// count) for slot-exact alignment; slots are paired by recency.
    /// Merging into a freshly-constructed window copies `other`.
    pub fn merge_from(&mut self, other: &MetricWindows) {
        if self.ticks == 0 {
            *self = other.clone();
            return;
        }
        let n = self.valid().min(other.valid());
        for (name, ot) in &other.counters {
            let st = self
                .counters
                .entry(name.clone())
                .or_insert_with(|| CounterTrack { total: 0, ring: vec![0; self.len] });
            st.total += ot.total;
            for j in 0..n {
                let (Some(ss), Some(os)) = (slot_back_of(self.ticks, self.len, j), slot_back_of(other.ticks, other.len, j)) else {
                    continue;
                };
                let d = ot.ring.get(os).copied().unwrap_or(0);
                if let Some(s) = st.ring.get_mut(ss) {
                    *s += d;
                }
            }
        }
        for (name, ot) in &other.histos {
            let len = self.len;
            let st = self.histos.entry(name.clone()).or_insert_with(|| HistoTrack {
                cum_buckets: vec![0; LOG_BUCKETS],
                cum_count: 0,
                cum_sum: 0.0,
                ring: vec![0; len * LOG_BUCKETS],
                counts: vec![0; len],
                sums: vec![0.0; len],
            });
            for (a, b) in st.cum_buckets.iter_mut().zip(ot.cum_buckets.iter()) {
                *a += b;
            }
            st.cum_count += ot.cum_count;
            st.cum_sum += ot.cum_sum;
            for j in 0..n {
                let (Some(ss), Some(os)) = (slot_back_of(self.ticks, self.len, j), slot_back_of(other.ticks, other.len, j)) else {
                    continue;
                };
                let (sstart, ostart) = (ss * LOG_BUCKETS, os * LOG_BUCKETS);
                if let (Some(schunk), Some(ochunk)) = (
                    st.ring.get_mut(sstart..sstart + LOG_BUCKETS),
                    ot.ring.get(ostart..ostart + LOG_BUCKETS),
                ) {
                    for (a, b) in schunk.iter_mut().zip(ochunk.iter()) {
                        *a += b;
                    }
                }
                let dc = ot.counts.get(os).copied().unwrap_or(0);
                if let Some(c) = st.counts.get_mut(ss) {
                    *c += dc;
                }
                let dsum = ot.sums.get(os).copied().unwrap_or(0.0);
                if let Some(s) = st.sums.get_mut(ss) {
                    *s += dsum;
                }
            }
        }
        for (name, ot) in &other.gauges {
            let st = self
                .gauges
                .entry(name.clone())
                .or_insert_with(|| GaugeTrack { last: 0.0, ring: vec![0.0; self.len] });
            st.last = ot.last;
            for j in 0..n {
                let (Some(ss), Some(os)) = (slot_back_of(self.ticks, self.len, j), slot_back_of(other.ticks, other.len, j)) else {
                    continue;
                };
                let v = ot.ring.get(os).copied().unwrap_or(0.0);
                if let Some(s) = st.ring.get_mut(ss) {
                    *s = v;
                }
            }
        }
    }
}

/// Free-standing form of [`MetricWindows::slot_back`], usable while a
/// track is mutably borrowed.
fn slot_back_of(ticks: u64, len: usize, j: usize) -> Option<usize> {
    let t = ticks.checked_sub(1 + j as u64)?;
    Some((t % len as u64) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg_with(counter: u64) -> Registry {
        let mut r = Registry::new();
        let c = r.counter("t.c.x");
        r.add(c, counter);
        r
    }

    #[test]
    fn windowed_counter_rates_slide() {
        let mut w = MetricWindows::new(4);
        let mut r = Registry::new();
        let c = r.counter("t.c.x");
        for i in 0..10u64 {
            r.add(c, i); // deltas 0,1,2,…,9
            w.roll(&r);
        }
        // Last 4 deltas: 6+7+8+9 = 30.
        assert_eq!(w.counter_delta("t.c.x", 4), 30);
        assert_eq!(w.counter_delta("t.c.x", 2), 17);
        assert_eq!(w.rate("t.c.x", 4), 30.0 / 4.0);
        // Ask for more than the ring holds: clamped to 4.
        assert_eq!(w.counter_delta("t.c.x", 100), 30);
        assert_eq!(w.window_ticks(100), 4);
    }

    #[test]
    fn first_sighting_counts_whole_total() {
        let mut w = MetricWindows::new(8);
        w.roll(&reg_with(5));
        assert_eq!(w.counter_delta("t.c.x", 8), 5);
        w.roll(&reg_with(7));
        assert_eq!(w.counter_delta("t.c.x", 8), 7);
        assert_eq!(w.counter_delta("t.c.x", 1), 2);
    }

    #[test]
    fn windowed_histogram_quantiles() {
        let mut w = MetricWindows::new(4);
        let mut r = Registry::new();
        let h = r.histo("t.h.lat");
        // Two ticks of fast samples, then two of slow ones.
        for _ in 0..2 {
            for _ in 0..100 {
                r.record(h, 1.0);
            }
            w.roll(&r);
        }
        for _ in 0..2 {
            for _ in 0..100 {
                r.record(h, 512.0);
            }
            w.roll(&r);
        }
        let last2 = w.histo_window("t.h.lat", 2);
        assert_eq!(last2.count(), 200);
        assert!(last2.quantile(0.5) >= 512.0, "{}", last2.quantile(0.5));
        assert_eq!(last2.at_or_above(512.0), 200);
        let all = w.histo_window("t.h.lat", 4);
        assert_eq!(all.count(), 400);
        assert_eq!(all.at_or_above(512.0), 200);
        // A window older than the ring: only the retained 4 ticks.
        assert!(w.histo_window("t.h.lat", 99).count() == 400);
    }

    #[test]
    fn gauges_carry_forward_and_count_above() {
        let mut w = MetricWindows::new(8);
        let mut r = Registry::new();
        let g = r.gauge("t.g.lag");
        r.set_gauge(g, 10.0);
        w.roll(&r);
        // Gauge not rewritten: carried forward.
        w.roll(&r);
        r.set_gauge(g, 0.0);
        w.roll(&r);
        assert_eq!(w.gauge_last("t.g.lag"), 0.0);
        assert_eq!(w.gauge_ticks_above("t.g.lag", 5.0, 8), 2);
        assert_eq!(w.gauge_ticks_above("t.g.lag", 5.0, 1), 0);
    }

    #[test]
    fn merge_matches_registry_merge() {
        // Roll two shards in lockstep, and a third window over the
        // merged registry; merged windows must agree with the window
        // of the merge.
        let mut wa = MetricWindows::new(4);
        let mut wb = MetricWindows::new(4);
        let mut wm = MetricWindows::new(4);
        let mut ra = Registry::new();
        let mut rb = Registry::new();
        let ca = ra.counter("t.c.x");
        let cb = rb.counter("t.c.x");
        let ha = ra.histo("t.h.l");
        let hb = rb.histo("t.h.l");
        for i in 0..6u64 {
            ra.add(ca, i);
            rb.add(cb, 2 * i);
            ra.record(ha, (i + 1) as f64);
            rb.record(hb, ((i + 1) * 100) as f64);
            wa.roll(&ra);
            wb.roll(&rb);
            let mut merged_reg = Registry::new();
            merged_reg.merge(&ra);
            merged_reg.merge(&rb);
            wm.roll(&merged_reg);
        }
        let mut combined = MetricWindows::new(4);
        combined.merge_from(&wa);
        combined.merge_from(&wb);
        for k in [1, 2, 4] {
            assert_eq!(combined.counter_delta("t.c.x", k), wm.counter_delta("t.c.x", k), "k={k}");
            let a = combined.histo_window("t.h.l", k);
            let b = wm.histo_window("t.h.l", k);
            assert_eq!(a.count(), b.count(), "k={k}");
            assert_eq!(a.quantile(0.5).to_bits(), b.quantile(0.5).to_bits(), "k={k}");
            assert_eq!(a.quantile(0.99).to_bits(), b.quantile(0.99).to_bits(), "k={k}");
        }
    }

    #[test]
    fn unknown_names_degrade_to_zero() {
        let w = MetricWindows::new(4);
        assert_eq!(w.counter_delta("no.such.counter", 4), 0);
        assert_eq!(w.rate("no.such.counter", 4), 0.0);
        assert_eq!(w.gauge_last("no.such.gauge"), 0.0);
        let mut out = WindowHisto::new();
        assert!(!w.histo_window_into("no.such.histo", 4, &mut out));
        assert_eq!(out.count(), 0);
        assert_eq!(out.quantile(0.5), 0.0);
    }
}
