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
//! [`StatSet`] is the registry-backed drop-in for ad-hoc `Counters`
//! fields, used by `Network`, `ReliableTransport`, and the client outbox
//! that `dissem` and `pubsub` deliver through (`mv_net::outbox`): same
//! `incr`/`add`/`get` surface,
//! deterministic `Debug`, but the values live in a [`Registry`] under
//! `<prefix>.<name>` — attach all three components to one
//! [`SharedRegistry`] and a single snapshot reports every layer without
//! hand-merging (and without double counting across crash-epoch
//! resets: endpoint state resets, the registry does not).

use mv_common::hash::FastMap;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

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

    /// Index of the bucket a sample `v` lands in.
    pub fn bucket_index(v: f64) -> usize {
        bucket_of(v)
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
#[derive(Debug, Default)]
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
        // lint:allow(panic-path): gauge_index stores indices this registry interned; the two grow in lockstep
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

    /// Counter pairs under `prefix.` with the prefix stripped, in name
    /// order (what [`StatSet`]'s `Debug` prints).
    pub fn counters_under<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.counters().filter_map(move |(name, v)| {
            if prefix.is_empty() {
                return Some((name, v));
            }
            name.strip_prefix(prefix).and_then(|rest| rest.strip_prefix('.')).map(|n| (n, v))
        })
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

/// A cloneable, thread-shareable handle to one [`Registry`].
#[derive(Debug, Clone, Default)]
pub struct SharedRegistry(Arc<Mutex<Registry>>);

impl SharedRegistry {
    /// A fresh shared registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f` with the registry locked.
    pub fn with<T>(&self, f: impl FnOnce(&mut Registry) -> T) -> T {
        f(&mut self.0.lock())
    }

    /// Read a counter by full name.
    pub fn counter_get(&self, name: &str) -> u64 {
        self.0.lock().counter_get(name)
    }

    /// Counter snapshot in name order.
    pub fn counter_snapshot(&self) -> Vec<(String, u64)> {
        self.0.lock().counters().map(|(n, v)| (n.to_string(), v)).collect()
    }

    /// True when two handles share one registry.
    pub fn same_as(&self, other: &SharedRegistry) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// A component-scoped view of a [`SharedRegistry`]: the drop-in for the
/// ad-hoc `Counters` fields on `Network`, `ReliableTransport`, and the
/// client outbox. Keeps the `incr`/`add`/`get` surface and a
/// deterministic `Debug`, but the values live under
/// `<prefix>.<name>` in the registry, so components sharing one
/// registry report through one snapshot — no hand-merging, no double
/// counting across crash-epoch endpoint resets.
pub struct StatSet {
    prefix: &'static str,
    registry: SharedRegistry,
    /// Leaf-name → interned handle, cached per component.
    ids: FastMap<&'static str, CounterId>,
    /// Leaf-name → interned gauge handle.
    gauge_ids: FastMap<&'static str, GaugeId>,
    /// Leaf-name → interned histogram handle.
    histo_ids: FastMap<&'static str, HistoId>,
}

impl Default for StatSet {
    fn default() -> Self {
        StatSet::new("")
    }
}

impl StatSet {
    /// A stat set over its own private registry, namespaced by `prefix`
    /// (e.g. `"net.transport"`).
    pub fn new(prefix: &'static str) -> Self {
        StatSet {
            prefix,
            registry: SharedRegistry::new(),
            ids: FastMap::default(),
            gauge_ids: FastMap::default(),
            histo_ids: FastMap::default(),
        }
    }

    /// A stat set writing into an existing shared registry.
    pub fn in_registry(prefix: &'static str, registry: &SharedRegistry) -> Self {
        StatSet {
            prefix,
            registry: registry.clone(),
            ids: FastMap::default(),
            gauge_ids: FastMap::default(),
            histo_ids: FastMap::default(),
        }
    }

    /// The namespace prefix.
    pub fn prefix(&self) -> &'static str {
        self.prefix
    }

    /// The backing registry handle.
    pub fn registry(&self) -> &SharedRegistry {
        &self.registry
    }

    /// Re-home this stat set onto `registry`, carrying current values
    /// over (so attaching after the fact loses nothing).
    pub fn attach(&mut self, registry: &SharedRegistry) {
        if self.registry.same_as(registry) {
            return;
        }
        let moved: Vec<(String, u64)> = self
            .registry
            .with(|r| r.counters().map(|(n, v)| (n.to_string(), v)).collect());
        let moved_gauges: Vec<(String, f64)> =
            self.registry.with(|r| r.gauges().map(|(n, v)| (n.to_string(), v)).collect());
        let moved_histos: Vec<(String, LogHistogram)> =
            self.registry.with(|r| r.histograms().map(|(n, h)| (n.to_string(), h.clone())).collect());
        registry.with(|r| {
            for (name, v) in moved {
                let id = r.counter(&name);
                r.add(id, v);
            }
            for (name, v) in moved_gauges {
                let id = r.gauge(&name);
                r.set_gauge(id, v);
            }
            for (name, h) in moved_histos {
                let id = r.histo(&name);
                r.merge_histo(id, &h);
            }
        });
        self.registry = registry.clone();
        self.ids.clear();
        self.gauge_ids.clear();
        self.histo_ids.clear();
    }

    fn full_name(&self, name: &str) -> String {
        if self.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}.{}", self.prefix, name)
        }
    }

    fn id(&mut self, name: &'static str) -> CounterId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let full = self.full_name(name);
        let id = self.registry.with(|r| r.counter(&full));
        self.ids.insert(name, id);
        id
    }

    /// Add `delta` to counter `name` (created at zero on first use).
    #[inline]
    pub fn add(&mut self, name: &'static str, delta: u64) {
        let id = self.id(name);
        self.registry.with(|r| r.add(id, delta));
    }

    /// Increment counter `name` by one.
    #[inline]
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Read counter `name` (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.registry.counter_get(&self.full_name(name))
    }

    fn gauge_id(&mut self, name: &'static str) -> GaugeId {
        if let Some(&id) = self.gauge_ids.get(name) {
            return id;
        }
        let full = self.full_name(name);
        let id = self.registry.with(|r| r.gauge(&full));
        self.gauge_ids.insert(name, id);
        id
    }

    /// Set gauge `name` (created at zero on first use).
    #[inline]
    pub fn set_gauge(&mut self, name: &'static str, v: f64) {
        let id = self.gauge_id(name);
        self.registry.with(|r| r.set_gauge(id, v));
    }

    /// Read gauge `name` (0 if never touched).
    pub fn gauge(&self, name: &str) -> f64 {
        self.registry.with(|r| r.gauge_get(&self.full_name(name)))
    }

    fn histo_id(&mut self, name: &'static str) -> HistoId {
        if let Some(&id) = self.histo_ids.get(name) {
            return id;
        }
        let full = self.full_name(name);
        let id = self.registry.with(|r| r.histo(&full));
        self.histo_ids.insert(name, id);
        id
    }

    /// Record one sample into histogram `name` (created on first use).
    #[inline]
    pub fn observe(&mut self, name: &'static str, v: f64) {
        let id = self.histo_id(name);
        self.registry.with(|r| r.record(id, v));
    }

    /// Clone of histogram `name`, if ever observed.
    pub fn histo_snapshot(&self, name: &str) -> Option<LogHistogram> {
        self.registry.with(|r| r.histo_get(&self.full_name(name)).cloned())
    }

    /// Snapshot of this component's counters (prefix stripped), in name
    /// order.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        self.registry
            .with(|r| r.counters_under(self.prefix).map(|(n, v)| (n.to_string(), v)).collect())
    }
}

impl fmt::Debug for StatSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StatSet({})", self)
    }
}

impl fmt::Display for StatSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, v) in self.snapshot() {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{k}={v}")?;
            first = false;
        }
        Ok(())
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
    fn statset_is_counters_compatible() {
        let mut s = StatSet::new("net.test");
        s.incr("sent");
        s.add("sent", 2);
        s.add("bytes", 100);
        assert_eq!(s.get("sent"), 3);
        assert_eq!(s.get("missing"), 0);
        assert_eq!(s.to_string(), "bytes=100 sent=3");
        // Debug is deterministic (the fault harness hashes it).
        assert_eq!(format!("{s:?}"), "StatSet(bytes=100 sent=3)");
    }

    #[test]
    fn statsets_consolidate_into_one_registry() {
        let reg = SharedRegistry::new();
        let mut net = StatSet::in_registry("net.network", &reg);
        let mut tx = StatSet::in_registry("net.transport", &reg);
        net.incr("msgs_sent");
        tx.incr("sent");
        tx.incr("endpoint_resets"); // a crash-epoch reset…
        net.incr("faults_node_crash"); // …and the fault layer's view of it
        let snap = reg.counter_snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        // One namespaced counter each: nothing is counted twice.
        assert_eq!(
            names,
            vec![
                "net.network.faults_node_crash",
                "net.network.msgs_sent",
                "net.transport.endpoint_resets",
                "net.transport.sent"
            ]
        );
        assert!(snap.iter().all(|(_, v)| *v == 1));
    }

    #[test]
    fn statset_gauges_and_histos() {
        let reg = SharedRegistry::new();
        let mut s = StatSet::in_registry("raft.test", &reg);
        s.set_gauge("commit_lag", 7.0);
        assert_eq!(s.gauge("commit_lag"), 7.0);
        s.observe("election_ms", 120.0);
        s.observe("election_ms", 240.0);
        let h = s.histo_snapshot("election_ms").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(reg.with(|r| r.gauge_get("raft.test.commit_lag")), 7.0);
        assert!(reg.with(|r| r.histo_get("raft.test.election_ms").is_some()));
    }

    #[test]
    fn statset_attach_carries_gauges_and_histos() {
        let mut s = StatSet::new("raft.test");
        s.set_gauge("term", 3.0);
        s.observe("lat", 8.0);
        let reg = SharedRegistry::new();
        s.attach(&reg);
        assert_eq!(reg.with(|r| r.gauge_get("raft.test.term")), 3.0);
        assert_eq!(reg.with(|r| r.histo_get("raft.test.lat").map(|h| h.count())), Some(1));
        s.observe("lat", 16.0);
        assert_eq!(reg.with(|r| r.histo_get("raft.test.lat").map(|h| h.count())), Some(2));
    }

    #[test]
    fn statset_attach_carries_values_over() {
        let mut s = StatSet::new("net.t");
        s.add("sent", 9);
        let reg = SharedRegistry::new();
        s.attach(&reg);
        s.incr("sent");
        assert_eq!(s.get("sent"), 10);
        assert_eq!(reg.counter_get("net.t.sent"), 10);
        // Re-attaching to the same registry is a no-op.
        s.attach(&reg);
        assert_eq!(s.get("sent"), 10);
    }
}
