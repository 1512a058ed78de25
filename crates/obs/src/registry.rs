//! A mergeable metrics registry: counters, gauges, log-scaled histograms.
//!
//! Hot paths pre-intern a metric name into a typed handle
//! ([`CounterId`], [`GaugeId`], [`HistoId`]) and then update by index —
//! no string hashing per update. Iteration, merge, and export all walk
//! names in sorted order, so registry output is deterministic.
//!
//! [`LogHistogram`] replaces the raw-sample `mv_common::metrics::
//! Histogram` on hot paths: 64 power-of-two buckets plus exact
//! count/sum/min/max, so memory is bounded regardless of sample volume
//! and two shards' histograms merge bucket-wise. The raw-sample type
//! stays around for bench post-processing where exact quantiles matter.
//!
//! Components do not write into a registry: each counts in its own
//! `mv_common::metrics::Counters`, with no lock and no handle. A
//! registry is put together when someone reads one —
//! [`Registry::absorb`] folds a component's counters in under its
//! `<crate>.<component>` prefix (DESIGN.md §8).

use mv_common::metrics::Counters;
use std::collections::BTreeMap;
use std::fmt;

/// Number of power-of-two buckets in a [`LogHistogram`].
pub const LOG_BUCKETS: usize = 64;
/// Bucket 0 covers everything below `2^-BUCKET_OFFSET`.
const BUCKET_OFFSET: i32 = 32;

/// A fixed-memory histogram over positive `f64` samples: 64
/// power-of-two buckets spanning `[2^-32, 2^32)` (seconds, bytes,
/// microseconds — any unit fits), plus exact count/sum/min/max.
/// Mergeable bucket-wise across shards and threads.
#[derive(Clone)]
pub struct LogHistogram {
    buckets: [u64; LOG_BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; LOG_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LogHistogram {{ n={} mean={:.3} p50={:.3} p95={:.3} max={:.3} }}",
            self.count,
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.95),
            self.max()
        )
    }
}

fn bucket_of(v: f64) -> usize {
    if v <= 0.0 || v.is_nan() {
        return 0;
    }
    let idx = v.log2().floor() as i32 + BUCKET_OFFSET;
    idx.clamp(0, LOG_BUCKETS as i32 - 1) as usize
}

/// Lower bound of bucket `i` (0 for the underflow bucket).
fn bucket_lo(i: usize) -> f64 {
    if i == 0 {
        0.0
    } else {
        ((i as i32 - BUCKET_OFFSET) as f64).exp2()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample (non-positive values land in the underflow
    /// bucket but still count toward mean/min/max exactly).
    #[inline]
    pub fn record(&mut self, v: f64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples (exact).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (exact; 0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample (exact; 0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (exact; 0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Approximate quantile `q in [0,1]`: nearest-rank to a bucket, then
    /// linear interpolation inside it, clamped to the exact min/max.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return self.min;
        }
        if q == 1.0 {
            return self.max;
        }
        // Rank in [1, count].
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            if b == 0 {
                continue;
            }
            if seen + b >= rank {
                let lo = bucket_lo(i);
                let hi = bucket_lo(i + 1).max(lo);
                let frac = (rank - seen) as f64 / b as f64;
                let est = lo + (hi - lo) * frac;
                return est.clamp(self.min, self.max);
            }
            seen += b;
        }
        self.max()
    }

    /// The raw per-bucket counts (index `i` covers `[bucket_floor(i),
    /// bucket_floor(i + 1))`). The window layer diffs these per tick.
    pub fn bucket_counts(&self) -> &[u64; LOG_BUCKETS] {
        &self.buckets
    }

    /// Lower bound of bucket `i` (0 for the underflow bucket). Public so
    /// the window layer can reconstruct quantiles from bucket deltas.
    pub fn bucket_floor(i: usize) -> f64 {
        bucket_lo(i)
    }

    /// Merge another histogram into this one, bucket-wise.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Drop all samples.
    pub fn clear(&mut self) {
        *self = Self::default();
    }
}

/// Handle to a counter in a [`Registry`] (O(1) updates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);
/// Handle to a gauge in a [`Registry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(u32);
/// Handle to a histogram in a [`Registry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoId(u32);

/// A registry of named metrics with interned-handle hot paths and
/// deterministic (name-sorted) iteration. Memory is bounded by the
/// number of *names*, never the number of updates.
#[derive(Debug, Default, Clone)]
pub struct Registry {
    counter_index: BTreeMap<String, u32>,
    counters: Vec<u64>,
    gauge_index: BTreeMap<String, u32>,
    gauges: Vec<f64>,
    histo_index: BTreeMap<String, u32>,
    histos: Vec<LogHistogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a counter name into a handle (idempotent).
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(&i) = self.counter_index.get(name) {
            return CounterId(i);
        }
        let i = self.counters.len() as u32;
        self.counter_index.insert(name.to_string(), i);
        self.counters.push(0);
        CounterId(i)
    }

    /// Add `delta` to a counter by handle.
    #[inline]
    pub fn add(&mut self, id: CounterId, delta: u64) {
        // lint:allow(panic-path): CounterId handles are only minted by counter() after pushing the slot; typed-handle invariant
        self.counters[id.0 as usize] += delta;
    }

    /// Increment a counter by handle.
    #[inline]
    pub fn incr(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Read a counter by handle.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0 as usize]
    }

    /// Read a counter by name (0 if never interned).
    pub fn counter_get(&self, name: &str) -> u64 {
        self.counter_index.get(name).map_or(0, |&i| self.counters[i as usize])
    }

    /// Intern a gauge name into a handle (idempotent).
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(&i) = self.gauge_index.get(name) {
            return GaugeId(i);
        }
        let i = self.gauges.len() as u32;
        self.gauge_index.insert(name.to_string(), i);
        self.gauges.push(0.0);
        GaugeId(i)
    }

    /// Set a gauge by handle.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, v: f64) {
        // lint:allow(panic-path): GaugeId handles are only minted by gauge() after pushing the slot; typed-handle invariant
        self.gauges[id.0 as usize] = v;
    }

    /// Read a gauge by handle.
    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        self.gauges[id.0 as usize]
    }

    /// Read a gauge by name (0 if never interned).
    pub fn gauge_get(&self, name: &str) -> f64 {
        self.gauge_index.get(name).map_or(0.0, |&i| self.gauges[i as usize])
    }

    /// Intern a histogram name into a handle (idempotent).
    pub fn histo(&mut self, name: &str) -> HistoId {
        if let Some(&i) = self.histo_index.get(name) {
            return HistoId(i);
        }
        let i = self.histos.len() as u32;
        self.histo_index.insert(name.to_string(), i);
        self.histos.push(LogHistogram::new());
        HistoId(i)
    }

    /// Record into a histogram by handle.
    #[inline]
    pub fn record(&mut self, id: HistoId, v: f64) {
        self.histos[id.0 as usize].record(v);
    }

    /// Borrow a histogram by handle.
    pub fn histo_ref(&self, id: HistoId) -> &LogHistogram {
        &self.histos[id.0 as usize]
    }

    /// Merge a whole histogram into the one behind `id`, bucket-wise.
    pub fn merge_histo(&mut self, id: HistoId, other: &LogHistogram) {
        // lint:allow(panic-path): HistoId handles are only minted by histo() after pushing the slot; typed-handle invariant
        self.histos[id.0 as usize].merge(other);
    }

    /// Borrow a histogram by name, if interned.
    pub fn histo_get(&self, name: &str) -> Option<&LogHistogram> {
        self.histo_index.get(name).map(|&i| &self.histos[i as usize])
    }

    /// Counter `(name, value)` pairs in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        // lint:allow(panic-path): counter_index stores indices this registry interned; the two grow in lockstep
        self.counter_index.iter().map(|(k, &i)| (k.as_str(), self.counters[i as usize]))
    }

    /// Gauge `(name, value)` pairs in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        // lint:allow(panic-path): gauge_index stores indices this registry interned; the two grow in lockstep
        self.gauge_index.iter().map(|(k, &i)| (k.as_str(), self.gauges[i as usize]))
    }

    /// Histogram `(name, histogram)` pairs in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &LogHistogram)> + '_ {
        // lint:allow(panic-path): histo_index stores indices this registry interned; the two grow in lockstep
        self.histo_index.iter().map(|(k, &i)| (k.as_str(), &self.histos[i as usize]))
    }

    /// Fold a component's counters in as `<prefix>.<name>`, summing with
    /// what is already there (replicas counting under one prefix add
    /// up).
    pub fn absorb(&mut self, prefix: &str, counters: &Counters) {
        let mut full = String::with_capacity(prefix.len() + 32);
        for (name, v) in counters.iter() {
            full.clear();
            full.push_str(prefix);
            full.push('.');
            full.push_str(name);
            let id = self.counter(&full);
            self.add(id, v);
        }
    }

    /// Merge another registry into this one: counters sum, gauges take
    /// the other's value (latest wins), histograms merge bucket-wise.
    pub fn merge(&mut self, other: &Registry) {
        for (name, v) in other.counters() {
            let id = self.counter(name);
            self.add(id, v);
        }
        for (name, v) in other.gauges() {
            let id = self.gauge(name);
            self.set_gauge(id, v);
        }
        let pairs: Vec<(String, LogHistogram)> =
            other.histograms().map(|(n, h)| (n.to_string(), h.clone())).collect();
        for (name, h) in pairs {
            let id = self.histo(&name);
            self.histos[id.0 as usize].merge(&h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_histogram_tracks_exact_aggregates() {
        let mut h = LogHistogram::new();
        for v in [1.0, 2.0, 4.0, 8.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 15.0);
        assert_eq!(h.mean(), 3.75);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 8.0);
        assert!(!h.is_empty());
    }

    #[test]
    fn log_histogram_quantiles_bracket_the_data() {
        let mut h = LogHistogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        // Power-of-two buckets: estimates are within one bucket of truth
        // and clamped to the observed range.
        assert!((250.0..=1000.0).contains(&p50), "p50 {p50}");
        assert!(p99 >= p50 && p99 <= 1000.0, "p99 {p99}");
        assert_eq!(h.quantile(0.0).max(1.0), 1.0);
        assert_eq!(h.quantile(1.0), 1000.0);
    }

    #[test]
    fn log_histogram_empty_and_underflow() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        let mut h = LogHistogram::new();
        h.record(0.0);
        h.record(-3.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), -3.0);
    }

    #[test]
    fn log_histogram_merge_is_bucketwise() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for i in 0..100 {
            a.record(i as f64 + 1.0);
            b.record((i as f64 + 1.0) * 1000.0);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 200);
        assert_eq!(merged.min(), 1.0);
        assert_eq!(merged.max(), 100_000.0);
        assert!((merged.sum() - (a.sum() + b.sum())).abs() < 1e-9);
    }

    #[test]
    fn registry_handles_are_o1_and_idempotent() {
        let mut r = Registry::new();
        let c1 = r.counter("net.transport.sent");
        let c2 = r.counter("net.transport.sent");
        assert_eq!(c1, c2);
        r.incr(c1);
        r.add(c2, 4);
        assert_eq!(r.counter_value(c1), 5);
        assert_eq!(r.counter_get("net.transport.sent"), 5);
        assert_eq!(r.counter_get("missing"), 0);

        let g = r.gauge("core.engine.live");
        r.set_gauge(g, 42.0);
        assert_eq!(r.gauge_value(g), 42.0);
        assert_eq!(r.gauge_get("core.engine.live"), 42.0);

        let h = r.histo("storage.wal.batch_bytes");
        r.record(h, 128.0);
        assert_eq!(r.histo_ref(h).count(), 1);
        assert!(r.histo_get("storage.wal.batch_bytes").is_some());
    }

    #[test]
    fn registry_iteration_is_name_sorted() {
        let mut r = Registry::new();
        r.counter("z.last");
        r.counter("a.first");
        r.counter("m.mid");
        let names: Vec<&str> = r.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a.first", "m.mid", "z.last"]);
    }

    #[test]
    fn registry_merge_sums_counters_and_merges_histos() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        let ca = a.counter("x");
        a.add(ca, 3);
        let cb = b.counter("x");
        b.add(cb, 4);
        let cy = b.counter("y");
        b.incr(cy);
        let ha = a.histo("lat");
        a.record(ha, 1.0);
        let hb = b.histo("lat");
        b.record(hb, 2.0);
        a.merge(&b);
        assert_eq!(a.counter_get("x"), 7);
        assert_eq!(a.counter_get("y"), 1);
        assert_eq!(a.histo_get("lat").unwrap().count(), 2);
    }

    #[test]
    fn absorb_prefixes_and_sums_component_counters() {
        let mut node_a = Counters::new();
        let mut node_b = Counters::new();
        let mut net = Counters::new();
        node_a.add("entries_sent", 3);
        node_b.add("entries_sent", 4);
        node_b.incr("crashes");
        net.add("msgs_sent", 0);
        let mut r = Registry::new();
        r.absorb("raft.node", &node_a);
        r.absorb("raft.node", &node_b);
        r.absorb("net.network", &net);
        let all: Vec<(&str, u64)> = r.counters().collect();
        // A counter touched with zero is listed, as the component lists it.
        assert_eq!(
            all,
            vec![("net.network.msgs_sent", 0), ("raft.node.crashes", 1), ("raft.node.entries_sent", 7)]
        );
    }
}
