//! Lightweight metrics: counters and streaming histograms.
//!
//! [`Counters`] is the one counter type: every component on a serving
//! path (network, transport, outbox, broker, raft node, transactions,
//! engines, stores) counts in its own, and a reader that wants one view
//! folds them into an `mv_obs::Registry` under each component's prefix
//! (`Registry::absorb`).
//!
//! Every experiment harness reports latency percentiles and throughput;
//! [`Histogram`] keeps raw samples (experiments are bounded, so memory is
//! fine) and computes exact quantiles, which keeps the reported tables
//! honest — no HDR bucketing error to explain away.

use std::fmt;

/// An exact-quantile histogram over `f64` samples.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty histogram with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Histogram { samples: Vec::with_capacity(cap), sorted: true }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: f64) {
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().cloned().fold(f64::INFINITY, f64::min)
        }
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_by(|a, b| a.total_cmp(b));
            self.sorted = true;
        }
    }

    /// Exact quantile `q in [0,1]` by nearest-rank (0 when empty).
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.samples.len() as f64 - 1.0) * q).round() as usize;
        self.samples[idx]
    }

    /// Interpolated percentile `p in [0,100]` (0 when empty).
    ///
    /// Uses the linear-interpolation definition (R-7): rank
    /// `r = (n-1)·p/100`; when `r` lands exactly on a sample index the
    /// sample is returned as-is, otherwise the two neighbours are
    /// blended by the fractional rank. The exact-boundary case matters:
    /// interpolating `lo + (samples[hi] - samples[lo]) * frac` with
    /// `frac == 0` must not peek at `samples[lo + 1]` — for `p = 100`
    /// that index is out of bounds, and for interior boundary ranks it
    /// silently blended in the next sample under FP rounding.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let p = p.clamp(0.0, 100.0);
        let rank = (self.samples.len() as f64 - 1.0) * p / 100.0;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            // Exact-boundary rank: the percentile *is* this sample.
            return self.samples[lo];
        }
        let frac = rank - lo as f64;
        self.samples[lo] + (self.samples[hi] - self.samples[lo]) * frac
    }

    /// Median.
    pub fn p50(&mut self) -> f64 {
        self.quantile(0.50)
    }
    /// 95th percentile.
    pub fn p95(&mut self) -> f64 {
        self.quantile(0.95)
    }
    /// 99th percentile.
    pub fn p99(&mut self) -> f64 {
        self.quantile(0.99)
    }

    /// Merge another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// Drop all samples.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.sorted = true;
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut h = self.clone();
        write!(
            f,
            "n={} mean={:.3} p50={:.3} p95={:.3} p99={:.3} max={:.3}",
            h.count(),
            h.mean(),
            h.p50(),
            h.p95(),
            h.p99(),
            h.max()
        )
    }
}

/// A named set of monotonically increasing counters with deterministic
/// iteration order (name order), used for experiment accounting (messages
/// sent, bytes saved, cache hits…).
///
/// The counters are a name-sorted `Vec`. A caller names a counter with a
/// string literal, and every use of one literal is one address, so an
/// increment first looks for that address and only then searches by
/// content: a field add on the hot path, with no string comparison. Two
/// equal names at different addresses still meet in one counter.
#[derive(Clone, Default)]
pub struct Counters {
    inner: Vec<(&'static str, u64)>,
}

impl Counters {
    /// Empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to counter `name` (created at zero on first use).
    #[inline]
    pub fn add(&mut self, name: &'static str, delta: u64) {
        if let Some((_, value)) = self.inner.iter_mut().find(|(k, _)| std::ptr::eq(*k, name)) {
            *value += delta;
            return;
        }
        match self.inner.binary_search_by(|(k, _)| (*k).cmp(name)) {
            // Equal content at another address: keep the caller's, so its
            // next increment takes the pointer probe.
            Ok(at) => {
                if let Some(entry) = self.inner.get_mut(at) {
                    *entry = (name, entry.1 + delta);
                }
            }
            Err(at) => self.inner.insert(at, (name, delta)),
        }
    }

    /// Increment counter `name` by one.
    #[inline]
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Read counter `name` (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        match self.inner.binary_search_by(|(k, _)| (*k).cmp(name)) {
            Ok(at) => self.inner.get(at).map_or(0, |(_, v)| *v),
            Err(_) => 0,
        }
    }

    /// Iterate `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.inner.iter().copied()
    }

    /// Merge another counter set into this one (summing shared names).
    pub fn merge(&mut self, other: &Counters) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }
}

/// As a `BTreeMap<&str, u64>` field named `inner` prints.
impl fmt::Debug for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Map<'a>(&'a [(&'static str, u64)]);
        impl fmt::Debug for Map<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.iter().map(|(k, v)| (k, v))).finish()
            }
        }
        f.debug_struct("Counters").field("inner", &Map(&self.inner)).finish()
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, v) in self.iter() {
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
    fn histogram_quantiles_exact() {
        let mut h = Histogram::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.p50(), 3.0);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 5.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 5.0);
        assert!((h.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_empty_is_zero() {
        let mut h = Histogram::new();
        assert_eq!(h.p99(), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn histogram_max_of_all_negative_samples() {
        // Regression: max() used to fold from 0.0, so a histogram holding
        // only negative samples (e.g. signed divergence deltas) reported a
        // phantom maximum of 0.0 instead of its true largest sample.
        let mut h = Histogram::new();
        h.record(-5.0);
        h.record(-2.0);
        h.record(-9.0);
        assert_eq!(h.max(), -2.0);
        assert_eq!(h.min(), -9.0);
        // Empty stays 0, mirroring min()/mean().
        assert_eq!(Histogram::new().max(), 0.0);
    }

    #[test]
    fn percentile_exact_boundary_rank_returns_the_sample() {
        // Regression: when (n-1)·p/100 lands exactly on a sample index,
        // percentile() must return that sample verbatim — no
        // interpolation against a neighbour (which reads one past the
        // end at p=100 and skews interior boundary ranks).
        let mut h = Histogram::new();
        for v in [10.0, 20.0, 30.0, 40.0, 50.0] {
            h.record(v);
        }
        // (5-1)·25/100 = 1.0 exactly → samples[1].
        assert_eq!(h.percentile(25.0), 20.0);
        assert_eq!(h.percentile(50.0), 30.0);
        assert_eq!(h.percentile(75.0), 40.0);
        // Endpoints are exact boundaries too.
        assert_eq!(h.percentile(0.0), 10.0);
        assert_eq!(h.percentile(100.0), 50.0);
        // Interior non-boundary ranks interpolate linearly:
        // rank = 4·62.5/100 = 2.5 → midway between 30 and 40.
        assert_eq!(h.percentile(62.5), 35.0);
        // Out-of-range p clamps.
        assert_eq!(h.percentile(-5.0), 10.0);
        assert_eq!(h.percentile(250.0), 50.0);
        // Empty histogram mirrors quantile().
        assert_eq!(Histogram::new().percentile(50.0), 0.0);
        // Single sample: every p is a boundary.
        let mut one = Histogram::new();
        one.record(7.0);
        assert_eq!(one.percentile(100.0), 7.0);
        assert_eq!(one.percentile(37.0), 7.0);
    }

    #[test]
    fn histogram_merge_combines() {
        let mut a = Histogram::new();
        a.record(1.0);
        let mut b = Histogram::new();
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 3.0);
    }

    #[test]
    fn histogram_interleaved_record_and_quantile() {
        let mut h = Histogram::new();
        h.record(10.0);
        assert_eq!(h.p50(), 10.0);
        h.record(0.0); // must re-sort lazily
        assert_eq!(h.quantile(0.0), 0.0);
    }

    #[test]
    fn counters_accumulate_and_merge() {
        let mut c = Counters::new();
        c.incr("msgs");
        c.add("msgs", 2);
        c.add("bytes", 100);
        assert_eq!(c.get("msgs"), 3);
        assert_eq!(c.get("missing"), 0);
        let mut d = Counters::new();
        d.add("msgs", 7);
        c.merge(&d);
        assert_eq!(c.get("msgs"), 10);
        assert_eq!(c.to_string(), "bytes=100 msgs=10");
    }

    /// What `Counters` printed as when it was a `BTreeMap` field.
    #[derive(Debug)]
    struct Model {
        inner: std::collections::BTreeMap<&'static str, u64>,
    }

    use proptest::prelude::*;
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        // Interleaved increments, adds and merges, each name used both as
        // a literal and as an equal copy at another address, read back
        // through every accessor against a `BTreeMap`.
        #[test]
        fn counters_agree_with_a_btreemap_model(
            script in collection::vec((0u8..4, 0usize..12, 0u64..1000), 0..120),
        ) {
            const NAMES: [&str; 6] = ["sync_msgs", "a", "forwards", "ab", "", "z"];
            let copies: Vec<&'static str> = NAMES.iter().map(|n| &*Box::leak(Box::<str>::from(*n))).collect();
            let name = |k: usize| NAMES.get(k).copied().unwrap_or_else(|| copies[k - NAMES.len()]);
            let (mut c, mut model) = (Counters::new(), Model { inner: Default::default() });
            let (mut other, mut other_model) = (Counters::new(), Model { inner: Default::default() });
            for (what, k, delta) in script {
                match what {
                    0 => {
                        c.incr(name(k));
                        *model.inner.entry(name(k)).or_default() += 1;
                    }
                    1 => {
                        c.add(name(k), delta);
                        *model.inner.entry(name(k)).or_default() += delta;
                    }
                    2 => {
                        other.add(name(k), delta);
                        *other_model.inner.entry(name(k)).or_default() += delta;
                    }
                    _ => {
                        c.merge(&other);
                        for (k, v) in &other_model.inner {
                            *model.inner.entry(k).or_default() += v;
                        }
                    }
                }
            }
            for k in 0..12 {
                prop_assert_eq!(c.get(name(k)), model.inner.get(name(k)).copied().unwrap_or(0));
            }
            prop_assert_eq!(c.get("missing"), 0);
            prop_assert_eq!(c.iter().collect::<Vec<_>>(), model.inner.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>());
            let display: Vec<String> = model.inner.iter().map(|(k, v)| format!("{k}={v}")).collect();
            prop_assert_eq!(c.to_string(), display.join(" "));
            prop_assert_eq!(format!("{c:?}"), format!("{model:?}").replacen("Model", "Counters", 1));
            prop_assert_eq!(format!("{c:#?}"), format!("{model:#?}").replacen("Model", "Counters", 1));
        }
    }
}
