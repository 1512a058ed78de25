//! A log-structured in-memory KV store.
//!
//! The write path is the classic LSM shape: puts land in a mutable
//! memtable (a B-tree); when the memtable exceeds its budget it freezes
//! into an immutable sorted run; reads check memtable → runs newest-first;
//! compaction merges runs, dropping shadowed versions and tombstones.
//! "Disk" is simulated by the run vector — what matters for the
//! experiments is the *shape* of the access paths, not actual I/O.
//!
//! Two classic LSM refinements keep the shape honest at ingest scale
//! (§IV-F's "massive volumes of data … generated continuously"):
//!
//! * **Per-run bloom filters** (`crate::bloom::Bloom`) — a point get
//!   that misses the memtable consults each run's filter before binary
//!   searching it, so lookups of absent keys cost bit tests instead of
//!   `O(runs)` searches. E17 measures the probe savings.
//! * **Size-tiered compaction** — instead of a full merge of *all* runs
//!   at a fixed run count (write amplification proportional to total
//!   data on every trigger), runs are bucketed into size tiers and only
//!   an age-contiguous window of `tier_fanout` similar-sized runs is
//!   merged at a time. Write amplification per flushed byte is bounded
//!   by the tier depth (`O(log_fanout(data/budget))`) and the run count
//!   stays `O(fanout · tiers)`. Tombstones drop only when the merge
//!   window includes the oldest run (nothing older can be shadowed).
//!
//! [`KvStore::compact`] remains the *major* compaction (merge everything
//! into one run, drop all tombstones), used before snapshots.

use crate::bloom::Bloom;
use bytes::Bytes;
use mv_common::metrics::Counters;
use std::cell::Cell;
use std::collections::BTreeMap;

/// Tuning knobs for the store.
#[derive(Debug, Clone, Copy)]
pub struct KvConfig {
    /// Memtable freeze threshold in bytes.
    pub memtable_budget: usize,
    /// Bloom-filter budget per run; `0` disables filters (every get
    /// binary-searches every run it reaches — the E17 baseline).
    pub bloom_bits_per_key: usize,
    /// How many similar-sized, age-contiguous runs trigger a tier merge.
    pub tier_fanout: usize,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig { memtable_budget: 1 << 20, bloom_bits_per_key: 10, tier_fanout: 4 }
    }
}

/// A sorted immutable run: key → value (None = tombstone), plus its
/// bloom filter and byte size (the tiering key).
#[derive(Debug)]
struct Run {
    entries: Vec<(Bytes, Option<Bytes>)>,
    bytes: usize,
    bloom: Option<Bloom>,
}

impl Run {
    fn build(entries: Vec<(Bytes, Option<Bytes>)>, bloom_bits_per_key: usize) -> Self {
        let bytes = entries
            .iter()
            .map(|(k, v)| k.len() + v.as_ref().map_or(0, Bytes::len))
            .sum();
        let bloom = (bloom_bits_per_key > 0).then(|| {
            Bloom::from_keys(
                entries.iter().map(|(k, _)| k.as_ref()),
                entries.len(),
                bloom_bits_per_key,
            )
        });
        Run { entries, bytes, bloom }
    }

    /// Size tier: log2 bucket of the run's byte size. Runs within a
    /// factor-of-two of each other share a tier.
    fn tier(&self) -> u32 {
        (self.bytes.max(1) as u64).ilog2()
    }
}

/// The store.
#[derive(Debug)]
pub struct KvStore {
    memtable: BTreeMap<Bytes, Option<Bytes>>,
    memtable_bytes: usize,
    config: KvConfig,
    /// Immutable runs, newest last.
    runs: Vec<Run>,
    /// Monotone flush counter (diagnostics).
    pub flushes: u64,
    /// Compactions performed (tier merges + major compactions).
    pub compactions: u64,
    /// Bytes read into / written out of compaction merges.
    compaction_read_bytes: u64,
    compaction_write_bytes: u64,
    /// Read-path accounting (Cells: `get` takes `&self`).
    run_probes: Cell<u64>,
    bloom_skips: Cell<u64>,
    /// Reused k-way merge cursors (one per window run); cleared and
    /// refilled per compaction so steady-state merges allocate only the
    /// output run itself.
    merge_cursors: Vec<usize>,
}

impl KvStore {
    /// A store with the default configuration (1 MiB memtable budget,
    /// 10-bit bloom filters, fanout-4 size-tiered compaction).
    pub fn new() -> Self {
        Self::with_config(KvConfig::default())
    }

    /// A store with an explicit memtable budget in bytes.
    pub fn with_memtable_budget(budget: usize) -> Self {
        Self::with_config(KvConfig { memtable_budget: budget, ..KvConfig::default() })
    }

    /// A store with explicit tuning knobs. A zero memtable budget is
    /// clamped to one byte (flush-per-write), zero fanout to two.
    pub fn with_config(config: KvConfig) -> Self {
        let config = KvConfig {
            memtable_budget: config.memtable_budget.max(1),
            tier_fanout: config.tier_fanout.max(2),
            ..config
        };
        KvStore {
            memtable: BTreeMap::new(),
            memtable_bytes: 0,
            config,
            runs: Vec::new(),
            flushes: 0,
            compactions: 0,
            compaction_read_bytes: 0,
            compaction_write_bytes: 0,
            run_probes: Cell::new(0),
            bloom_skips: Cell::new(0),
            merge_cursors: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> KvConfig {
        self.config
    }

    /// Byte cost of one memtable entry.
    fn entry_size(key: &Bytes, value: &Option<Bytes>) -> usize {
        key.len() + value.as_ref().map_or(0, Bytes::len)
    }

    /// Insert into the memtable with exact accounting: replacing an
    /// existing entry credits back the replaced entry's bytes, so
    /// overwrite-heavy workloads do not inflate `memtable_bytes` and
    /// flush prematurely.
    fn insert_mem(&mut self, key: Bytes, value: Option<Bytes>) {
        let added = Self::entry_size(&key, &value);
        if let Some(old) = self.memtable.insert(key.clone(), value) {
            let replaced = Self::entry_size(&key, &old);
            self.memtable_bytes = self.memtable_bytes.saturating_sub(replaced);
        }
        self.memtable_bytes += added;
        self.maybe_flush();
    }

    /// Insert or overwrite a key.
    pub fn put(&mut self, key: impl Into<Bytes>, value: impl Into<Bytes>) {
        self.insert_mem(key.into(), Some(value.into()));
    }

    /// Delete a key (writes a tombstone).
    pub fn delete(&mut self, key: impl Into<Bytes>) {
        self.insert_mem(key.into(), None);
    }

    /// Point lookup. Runs are consulted newest-first; each run's bloom
    /// filter is checked before its entries, so absent keys skip the
    /// binary search on all but false-positive runs.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        if let Some(v) = self.memtable.get(key) {
            return v.clone();
        }
        for run in self.runs.iter().rev() {
            if let Some(bloom) = &run.bloom {
                if !bloom.may_contain(key) {
                    self.bloom_skips.set(self.bloom_skips.get() + 1);
                    continue;
                }
            }
            self.run_probes.set(self.run_probes.get() + 1);
            if let Ok(idx) = run.entries.binary_search_by(|(k, _)| k.as_ref().cmp(key)) {
                return run.entries[idx].1.clone();
            }
        }
        None
    }

    /// Range scan over `[lo, hi)`, newest version per key, tombstones
    /// elided, ascending key order.
    pub fn scan(&self, lo: &[u8], hi: &[u8]) -> Vec<(Bytes, Bytes)> {
        // Merge: memtable wins, then newer runs win.
        let mut merged: BTreeMap<Bytes, Option<Bytes>> = BTreeMap::new();
        for run in &self.runs {
            let start = run.entries.partition_point(|(k, _)| k.as_ref() < lo);
            for (k, v) in &run.entries[start..] {
                if k.as_ref() >= hi {
                    break;
                }
                merged.insert(k.clone(), v.clone());
            }
        }
        for (k, v) in self.memtable.range::<[u8], _>((
            std::ops::Bound::Included(lo),
            std::ops::Bound::Excluded(hi),
        )) {
            merged.insert(k.clone(), v.clone());
        }
        merged.into_iter().filter_map(|(k, v)| v.map(|v| (k, v))).collect()
    }

    /// Freeze the memtable into a run if over budget.
    fn maybe_flush(&mut self) {
        if self.memtable_bytes >= self.config.memtable_budget {
            self.flush();
        }
    }

    /// Force-freeze the memtable (used before snapshots/recovery points).
    pub fn flush(&mut self) {
        if self.memtable.is_empty() {
            return;
        }
        let entries: Vec<(Bytes, Option<Bytes>)> =
            std::mem::take(&mut self.memtable).into_iter().collect();
        self.memtable_bytes = 0;
        self.runs.push(Run::build(entries, self.config.bloom_bits_per_key));
        self.flushes += 1;
        self.maybe_tier_compact();
    }

    /// Size-tiered compaction: find the oldest age-contiguous window of
    /// `tier_fanout` runs sharing a size tier and merge it into one run
    /// in place. Repeats until no tier is over-full (a merge can promote
    /// its output into a tier that then itself overflows).
    fn maybe_tier_compact(&mut self) {
        loop {
            let Some((start, len)) = self.find_tier_window() else {
                return;
            };
            self.merge_window(start, len);
        }
    }

    /// Oldest contiguous window of `tier_fanout` same-tier runs, if any.
    fn find_tier_window(&self) -> Option<(usize, usize)> {
        let fanout = self.config.tier_fanout;
        let mut start = 0;
        while start < self.runs.len() {
            let tier = self.runs[start].tier();
            let mut end = start + 1;
            while end < self.runs.len() && self.runs[end].tier() == tier {
                end += 1;
            }
            if end - start >= fanout {
                return Some((start, fanout));
            }
            start = end;
        }
        None
    }

    /// Merge `len` runs starting at `start` (age-contiguous; newer runs
    /// shadow older). Tombstones drop only when the window includes the
    /// oldest run — otherwise they may still shadow entries below.
    ///
    /// The merge is a cursor-based k-way pass over the window's sorted
    /// entries, straight into a `Vec` sized to the worst case. The
    /// previous implementation funnelled every entry through a
    /// `BTreeMap` (one node allocation per entry, `O(total log total)`
    /// ordered inserts) only to drain it again; the k-way pass is
    /// `O(total · k)` key comparisons with `k = tier_fanout` (usually 4)
    /// and allocates nothing but the output run. Output is identical:
    /// sorted unique keys, newest version wins, same tombstone rule.
    fn merge_window(&mut self, start: usize, len: usize) {
        let drop_tombstones = start == 0;
        let total: usize =
            self.runs.iter().skip(start).take(len).map(|r| r.entries.len()).sum();
        self.merge_cursors.clear();
        self.merge_cursors.resize(len, 0);
        let mut entries: Vec<(Bytes, Option<Bytes>)> = Vec::with_capacity(total);
        loop {
            // Find the smallest key under any cursor. On ties the newer
            // run (larger window index) shadows: advance the older
            // cursor past its dead entry and keep scanning.
            let mut best: Option<usize> = None;
            for wi in 0..len {
                // lint:allow(panic-path): wi < len and start + len <= runs.len(): the compaction window the caller selected
                let run = &self.runs[start + wi].entries;
                // lint:allow(panic-path): wi < len == merge_cursors.len(); resized above
                let Some((key, _)) = run.get(self.merge_cursors[wi]) else { continue };
                match best {
                    None => best = Some(wi),
                    Some(b) => {
                        // lint:allow(panic-path): b is a window index whose cursor run.get() just yielded; all three indices in-bounds by construction
                        let best_key = &self.runs[start + b].entries[self.merge_cursors[b]].0;
                        if key < best_key {
                            best = Some(wi);
                        } else if key == best_key {
                            // wi > b, so wi is the newer run.
                            // lint:allow(panic-path): b < len == merge_cursors.len(); resized above
                            self.merge_cursors[b] += 1;
                            best = Some(wi);
                        }
                    }
                }
            }
            let Some(wi) = best else { break };
            // lint:allow(panic-path): best = Some(wi) only after run.get(cursor) yielded exactly this entry
            let (key, value) = self.runs[start + wi].entries[self.merge_cursors[wi]].clone();
            // lint:allow(panic-path): wi < len == merge_cursors.len(); resized above
            self.merge_cursors[wi] += 1;
            if !drop_tombstones || value.is_some() {
                entries.push((key, value));
            }
        }
        for run in self.runs.drain(start..start + len) {
            self.compaction_read_bytes += run.bytes as u64;
        }
        let run = Run::build(entries, self.config.bloom_bits_per_key);
        self.compaction_write_bytes += run.bytes as u64;
        self.runs.insert(start, run);
        self.compactions += 1;
    }

    /// Major compaction: merge all runs into one, dropping shadowed
    /// versions and tombstones that no longer shadow anything.
    pub fn compact(&mut self) {
        if self.runs.len() <= 1 {
            return;
        }
        self.merge_window(0, self.runs.len());
    }

    /// Total bytes held in immutable runs.
    pub fn run_bytes(&self) -> usize {
        self.runs.iter().map(|r| r.bytes).sum()
    }

    /// Current memtable fill in bytes (exact, overwrite-aware).
    pub fn memtable_bytes(&self) -> usize {
        self.memtable_bytes
    }

    /// Flush/compaction/filter accounting as a mergeable counter set:
    /// `flushes`, `compactions`, `compaction_read_bytes`,
    /// `compaction_write_bytes` (write amplification numerator),
    /// `run_probes` (binary searches performed), `bloom_skips` (probes a
    /// filter avoided).
    pub fn stats(&self) -> Counters {
        let mut c = Counters::new();
        c.add("flushes", self.flushes);
        c.add("compactions", self.compactions);
        c.add("compaction_read_bytes", self.compaction_read_bytes);
        c.add("compaction_write_bytes", self.compaction_write_bytes);
        c.add("run_probes", self.run_probes.get());
        c.add("bloom_skips", self.bloom_skips.get());
        c
    }

    /// Live key count (scan-based; diagnostics only).
    pub fn len(&self) -> usize {
        self.scan(&[], &[0xffu8; 64]).len()
    }

    /// True when no live keys exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for KvStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_common::seeded_rng;
    use proptest::prelude::*;
    use rand::Rng;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn put_get_overwrite_delete() {
        let mut kv = KvStore::new();
        kv.put(b("a"), b("1"));
        assert_eq!(kv.get(b"a"), Some(b("1")));
        kv.put(b("a"), b("2"));
        assert_eq!(kv.get(b"a"), Some(b("2")));
        kv.delete(b("a"));
        assert_eq!(kv.get(b"a"), None);
        assert_eq!(kv.get(b"zzz"), None);
    }

    #[test]
    fn reads_span_memtable_and_runs() {
        let mut kv = KvStore::with_memtable_budget(64);
        for i in 0..100u32 {
            kv.put(Bytes::from(format!("key{i:03}")), Bytes::from(format!("v{i}")));
        }
        assert!(!kv.runs.is_empty(), "small budget must have flushed");
        for i in 0..100u32 {
            assert_eq!(
                kv.get(format!("key{i:03}").as_bytes()),
                Some(Bytes::from(format!("v{i}"))),
                "key{i}"
            );
        }
    }

    #[test]
    fn newer_run_shadows_older() {
        let mut kv = KvStore::with_memtable_budget(1 << 20);
        kv.put(b("k"), b("old"));
        kv.flush();
        kv.put(b("k"), b("new"));
        kv.flush();
        assert_eq!(kv.get(b"k"), Some(b("new")));
        kv.compact();
        assert_eq!(kv.get(b"k"), Some(b("new")));
        assert_eq!(kv.runs.len(), 1);
    }

    #[test]
    fn tombstones_survive_flush_until_compaction() {
        let mut kv = KvStore::new();
        kv.put(b("k"), b("v"));
        kv.flush();
        kv.delete(b("k"));
        kv.flush();
        assert_eq!(kv.get(b"k"), None);
        kv.compact();
        assert_eq!(kv.get(b"k"), None);
        assert!(kv.is_empty());
    }

    #[test]
    fn scan_merges_and_orders() {
        let mut kv = KvStore::with_memtable_budget(48);
        kv.put(b("b"), b("2"));
        kv.put(b("d"), b("4"));
        kv.flush();
        kv.put(b("a"), b("1"));
        kv.put(b("c"), b("3"));
        kv.delete(b("d"));
        let hits = kv.scan(b"a", b"e");
        let keys: Vec<&[u8]> = hits.iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(keys, vec![b"a".as_ref(), b"b".as_ref(), b"c".as_ref()]);
        // Range excludes the upper bound.
        let partial = kv.scan(b"a", b"c");
        assert_eq!(partial.len(), 2);
    }

    #[test]
    fn size_tiered_compaction_bounds_run_count() {
        let mut kv = KvStore::with_config(KvConfig {
            memtable_budget: 16,
            tier_fanout: 4,
            ..KvConfig::default()
        });
        for i in 0..400u32 {
            kv.put(Bytes::from(format!("k{i}")), Bytes::from(vec![0u8; 8]));
        }
        assert!(kv.compactions > 0, "tier merges must have fired");
        // Run count is bounded by fanout × tier depth, far below the
        // flush count (one run per ~put at this budget).
        assert!(kv.flushes > 50, "sanity: lots of flushes happened");
        assert!(
            kv.runs.len() <= 16,
            "size tiering must bound the run count: {} runs after {} flushes",
            kv.runs.len(),
            kv.flushes
        );
        // Every key is still readable through the tiers.
        for i in 0..400u32 {
            assert!(kv.get(format!("k{i}").as_bytes()).is_some(), "k{i}");
        }
    }

    #[test]
    fn tier_merges_do_not_drop_covered_tombstones() {
        // A tombstone merged in a window that excludes the oldest run
        // must survive (it still shadows the value below).
        let mut kv = KvStore::with_config(KvConfig {
            memtable_budget: 1 << 20,
            tier_fanout: 2,
            bloom_bits_per_key: 10,
        });
        // Oldest run: a large value for "k" (big enough to sit in a
        // higher size tier than the tombstone runs that follow).
        kv.put(b("k"), Bytes::from(vec![7u8; 256]));
        kv.flush();
        // Two small runs containing the tombstone and an unrelated key:
        // same (small) tier, contiguous, newer than the big run — the
        // fanout-2 window merges them without touching the oldest run.
        kv.delete(b("k"));
        kv.flush();
        kv.put(b("x"), b(""));
        kv.flush();
        assert!(kv.compactions > 0, "the two small runs must have merged");
        assert!(kv.runs.len() >= 2, "the oldest run must not be in the window");
        assert_eq!(kv.get(b"k"), None, "tombstone still shadows the old value");
        assert_eq!(kv.get(b"x"), Some(b("")));
        // A major compaction finally drops both.
        kv.compact();
        assert_eq!(kv.get(b"k"), None);
        assert_eq!(kv.runs.len(), 1);
    }

    #[test]
    fn overwrites_do_not_inflate_memtable_accounting() {
        // Regression (satellite): put/delete used to add the new entry's
        // bytes without crediting the replaced entry, so N overwrites of
        // one key counted N× the size and flushed prematurely.
        let budget = 1 << 16;
        let mut kv = KvStore::with_memtable_budget(budget);
        // Each entry is ~24 bytes; 10k overwrites would previously count
        // ~240 KB >> budget and force flushes. Exact accounting keeps the
        // memtable at one entry's worth of bytes: zero flushes.
        for i in 0..10_000u32 {
            kv.put(b("hot-key"), Bytes::from(format!("value-{i:08}")));
        }
        assert_eq!(kv.flushes, 0, "overwrites of one key must not flush under budget");
        assert_eq!(kv.memtable_bytes(), "hot-key".len() + "value-00009999".len());
        assert_eq!(kv.get(b"hot-key"), Some(b("value-00009999")));
        // Delete-over-put shrinks the accounted bytes to the tombstone.
        kv.delete(b("hot-key"));
        assert_eq!(kv.memtable_bytes(), "hot-key".len());
        // And put-over-delete swaps the tombstone back out.
        kv.put(b("hot-key"), b("v"));
        assert_eq!(kv.memtable_bytes(), "hot-key".len() + 1);
    }

    #[test]
    fn bloom_filters_skip_runs_on_missing_keys() {
        let mut kv = KvStore::with_config(KvConfig {
            memtable_budget: 256,
            bloom_bits_per_key: 10,
            tier_fanout: 4,
        });
        for i in 0..500u32 {
            kv.put(Bytes::from(format!("key-{i:04}")), Bytes::from(vec![1u8; 16]));
        }
        assert!(kv.runs.len() > 1);
        for i in 0..500u32 {
            assert_eq!(kv.get(format!("absent-{i}").as_bytes()), None);
        }
        let stats = kv.stats();
        let probes = stats.get("run_probes");
        let skips = stats.get("bloom_skips");
        assert!(
            skips > 9 * probes,
            "filters must absorb the vast majority of absent-key probes: \
             {skips} skips vs {probes} probes"
        );
    }

    #[test]
    fn bloom_disabled_probes_every_run() {
        let mut kv = KvStore::with_config(KvConfig {
            memtable_budget: 256,
            bloom_bits_per_key: 0,
            tier_fanout: 4,
        });
        for i in 0..200u32 {
            kv.put(Bytes::from(format!("key-{i:04}")), Bytes::from(vec![1u8; 16]));
        }
        let runs = kv.runs.len() as u64;
        assert!(runs > 1);
        assert_eq!(kv.get(b"absent"), None);
        assert_eq!(kv.stats().get("run_probes"), runs, "no filters: every run probed");
        assert_eq!(kv.stats().get("bloom_skips"), 0);
    }

    #[test]
    fn compaction_stats_track_bytes_moved() {
        let mut kv = KvStore::with_memtable_budget(64);
        for i in 0..200u32 {
            kv.put(Bytes::from(format!("k{i:03}")), Bytes::from(vec![2u8; 16]));
        }
        let stats = kv.stats();
        assert!(stats.get("compactions") > 0);
        assert!(stats.get("compaction_read_bytes") > 0);
        assert!(stats.get("compaction_write_bytes") > 0);
        // Merges only dedup/drop, never invent bytes.
        assert!(stats.get("compaction_write_bytes") <= stats.get("compaction_read_bytes"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_matches_btreemap_model(
            ops in proptest::collection::vec((0u8..3, "[a-d]{1,3}", "[x-z]{0,3}"), 1..120),
            budget in 16usize..256,
            fanout in 2usize..5,
            bloom_bits in 0usize..12,
        ) {
            let mut kv = KvStore::with_config(KvConfig {
                memtable_budget: budget,
                bloom_bits_per_key: bloom_bits,
                tier_fanout: fanout,
            });
            let mut model: BTreeMap<String, String> = BTreeMap::new();
            for (op, k, v) in &ops {
                match op {
                    0 => {
                        kv.put(Bytes::from(k.clone()), Bytes::from(v.clone()));
                        model.insert(k.clone(), v.clone());
                    }
                    1 => {
                        kv.delete(Bytes::from(k.clone()));
                        model.remove(k);
                    }
                    _ => {
                        let got = kv.get(k.as_bytes()).map(|b| String::from_utf8_lossy(&b).to_string());
                        prop_assert_eq!(got, model.get(k).cloned());
                    }
                }
            }
            // Full scan equals the model.
            let scanned: Vec<(String, String)> = kv
                .scan(b"a", b"zzzz")
                .into_iter()
                .map(|(k, v)| (
                    String::from_utf8_lossy(&k).to_string(),
                    String::from_utf8_lossy(&v).to_string(),
                ))
                .collect();
            let expected: Vec<(String, String)> =
                model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            prop_assert_eq!(scanned, expected);
        }
    }

    #[test]
    fn randomized_stress_against_model() {
        let mut rng = seeded_rng(99);
        let mut kv = KvStore::with_memtable_budget(128);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for _ in 0..5000 {
            let key = format!("key-{}", rng.gen_range(0..300)).into_bytes();
            if rng.gen_bool(0.7) {
                let val = format!("val-{}", rng.gen_range(0..1000)).into_bytes();
                kv.put(Bytes::from(key.clone()), Bytes::from(val.clone()));
                model.insert(key, val);
            } else {
                kv.delete(Bytes::from(key.clone()));
                model.remove(&key);
            }
        }
        for i in 0..300 {
            let key = format!("key-{i}").into_bytes();
            assert_eq!(
                kv.get(&key).map(|b| b.to_vec()),
                model.get(&key).cloned(),
                "key-{i}"
            );
        }
    }
}
