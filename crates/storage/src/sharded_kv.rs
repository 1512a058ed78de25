//! `ShardedKv` — the LSM store partitioned across N shards by key hash.
//!
//! The single [`KvStore`] serializes every memtable insert, flush, and
//! compaction on one thread; behind the sharded engine (E1d) that single
//! store becomes the durable-path bottleneck §IV-F warns about. This
//! module applies the same ownership discipline as `mv_core::sharded`:
//! each key lives on exactly one shard (Fx hash + SplitMix64 finalizer,
//! reduced mod the shard count), each shard is a complete [`KvStore`]
//! (memtable, runs, blooms, tiering — byte-for-byte the single-shard
//! code), and this module only adds routing plus deterministic
//! reassembly:
//!
//! * batched writes ([`ShardedKv::apply_batch`]) are partitioned by
//!   owner (stable, preserving per-key order) and applied by one scoped
//!   thread per shard — or sequentially with per-shard wall clocks when
//!   `set_parallel_apply(false)`, feeding E17's critical-path model
//!   exactly like E1d's;
//! * point reads route to the owner shard; scans fan out and merge the
//!   per-shard sorted results (ownership makes them disjoint);
//! * [`ShardedKv::stats`] merges per-shard [`Counters`].

use crate::kv::{KvConfig, KvStore};
use crate::wal::WalRecord;
use bytes::Bytes;
use mv_common::hash::FxHasher;
use mv_common::metrics::Counters;
use std::hash::Hasher as _;
use std::time::Instant;

/// Owner shard of a key: Fx hash of the bytes pushed through a
/// SplitMix64 finalizer (Fx alone is too linear for low-entropy keys),
/// reduced mod the shard count.
#[inline]
pub fn shard_of_key(key: &[u8], shards: usize) -> usize {
    let mut h = FxHasher::default();
    h.write(key);
    let mut z = h.finish().wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) as usize % shards
}

/// The sharded store. Same observable behaviour as one [`KvStore`]
/// (see module docs), scaled across key-hash shards.
#[derive(Debug)]
pub struct ShardedKv {
    shards: Vec<KvStore>,
    /// Per-shard wall seconds of the last [`apply_batch`] call.
    ///
    /// [`apply_batch`]: ShardedKv::apply_batch
    last_shard_walls: Vec<f64>,
    /// When false, `apply_batch` runs shards sequentially on the calling
    /// thread so the per-shard walls measure pure per-shard work — the
    /// honest-timing mode E17's critical-path model requires (cf. E1d).
    parallel_apply: bool,
    /// Per-shard staging queues of record indices, kept across
    /// [`apply_batch`] calls so steady-state batches route with zero
    /// queue allocations (cleared, capacity retained).
    ///
    /// [`apply_batch`]: ShardedKv::apply_batch
    staging: Vec<Vec<usize>>,
    /// Times a staging queue had to grow mid-routing. Flat across
    /// same-shaped batches once warm; exported via [`ShardedKv::stats`].
    staging_reallocs: u64,
}

impl ShardedKv {
    /// Build with `shards` owner shards, each a [`KvStore`] with the
    /// given config. A shard count of zero is clamped to one — a sweep
    /// written as `0..n` should degrade to the unsharded store, not
    /// panic.
    pub fn new(shards: usize, config: KvConfig) -> Self {
        let shards = shards.max(1);
        ShardedKv {
            shards: (0..shards).map(|_| KvStore::with_config(config)).collect(),
            last_shard_walls: vec![0.0; shards],
            parallel_apply: true,
            staging: (0..shards).map(|_| Vec::new()).collect(),
            staging_reallocs: 0,
        }
    }

    /// Default config on `shards` shards.
    pub fn with_defaults(shards: usize) -> Self {
        ShardedKv::new(shards, KvConfig::default())
    }

    /// Number of owner shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn owner(&self, key: &[u8]) -> usize {
        shard_of_key(key, self.shards.len())
    }

    /// Toggle parallel batch application (see the field docs; default
    /// on).
    pub fn set_parallel_apply(&mut self, on: bool) {
        self.parallel_apply = on;
    }

    /// Wall seconds each shard spent applying its queue in the last
    /// [`apply_batch`]. The maximum is the batch's critical path.
    ///
    /// [`apply_batch`]: ShardedKv::apply_batch
    pub fn last_shard_walls(&self) -> &[f64] {
        &self.last_shard_walls
    }

    /// Insert or overwrite a key (routes to the owner shard).
    pub fn put(&mut self, key: impl Into<Bytes>, value: impl Into<Bytes>) {
        let key = key.into();
        let owner = self.owner(&key);
        self.shards[owner].put(key, value.into());
    }

    /// Delete a key (routes to the owner shard).
    pub fn delete(&mut self, key: impl Into<Bytes>) {
        let key = key.into();
        let owner = self.owner(&key);
        self.shards[owner].delete(key);
    }

    /// Point lookup (owner shard only — no fan-out).
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        self.shards[self.owner(key)].get(key)
    }

    /// Apply a batch of logged mutations: ops are routed to their owner
    /// shards (stable, preserving per-key order) and each shard applies
    /// its queue on its own scoped thread — one thread per shard, the
    /// `mv_core::sharded` ownership discipline.
    pub fn apply_batch(&mut self, records: &[WalRecord]) {
        let n = self.shards.len();
        // Route into the persistent staging queues (record indices, not
        // references, so the scratch can outlive the borrow): clear keeps
        // capacity, so a steady stream of same-shaped batches routes with
        // zero allocations after the first.
        for q in &mut self.staging {
            q.clear();
        }
        for (i, rec) in records.iter().enumerate() {
            let key = match rec {
                WalRecord::Put { key, .. } | WalRecord::Delete { key } => key.as_slice(),
            };
            let q = &mut self.staging[shard_of_key(key, n)];
            if q.len() == q.capacity() {
                self.staging_reallocs += 1;
            }
            q.push(i);
        }
        let mut walls = vec![0.0f64; n];
        let run_queue = |shard: &mut KvStore, queue: &[usize]| {
            // lint:allow(wall-clock): measures real CPU time of the serial replay path for the speedup report; never feeds sim state
            let t0 = Instant::now();
            for &ri in queue {
                match &records[ri] {
                    WalRecord::Put { key, value } => shard.put(
                        Bytes::copy_from_slice(key),
                        Bytes::copy_from_slice(value),
                    ),
                    WalRecord::Delete { key } => shard.delete(Bytes::copy_from_slice(key)),
                }
            }
            t0.elapsed().as_secs_f64()
        };
        if self.parallel_apply {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter_mut()
                    .zip(self.staging.iter())
                    .map(|(shard, queue)| scope.spawn(|| run_queue(shard, queue)))
                    .collect();
                for (si, handle) in handles.into_iter().enumerate() {
                    walls[si] = handle.join().expect("shard worker panicked");
                }
            });
        } else {
            for (si, (shard, queue)) in
                self.shards.iter_mut().zip(self.staging.iter()).enumerate()
            {
                walls[si] = run_queue(shard, queue);
            }
        }
        self.last_shard_walls = walls;
    }

    /// Range scan over `[lo, hi)`: fan out to every shard, merge the
    /// (disjoint) sorted results into one ascending sequence.
    pub fn scan(&self, lo: &[u8], hi: &[u8]) -> Vec<(Bytes, Bytes)> {
        let mut merged: Vec<(Bytes, Bytes)> =
            self.shards.iter().flat_map(|s| s.scan(lo, hi)).collect();
        merged.sort_by(|(a, _), (b, _)| a.cmp(b));
        merged
    }

    /// Total bytes held in immutable runs across all shards.
    pub fn run_bytes(&self) -> usize {
        self.shards.iter().map(KvStore::run_bytes).sum()
    }

    /// Total memtable fill in bytes across all shards.
    pub fn memtable_bytes(&self) -> usize {
        self.shards.iter().map(KvStore::memtable_bytes).sum()
    }

    /// Per-shard [`KvStore::stats`], merged, plus the router's own
    /// `staging_reallocs` (growths of the persistent per-shard staging
    /// queues — flat in steady state).
    pub fn stats(&self) -> Counters {
        let mut all = Counters::new();
        for shard in &self.shards {
            all.merge(&shard.stats());
        }
        all.add("staging_reallocs", self.staging_reallocs);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let mut kv = ShardedKv::with_defaults(0);
        assert_eq!(kv.shard_count(), 1);
        kv.put(b("a"), b("1"));
        assert_eq!(kv.get(b"a"), Some(b("1")));
    }

    #[test]
    fn routing_is_stable_and_spreads_keys() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for i in 0..4_000u32 {
            let key = format!("entity-{i}");
            let s = shard_of_key(key.as_bytes(), shards);
            assert_eq!(s, shard_of_key(key.as_bytes(), shards), "stable");
            counts[s] += 1;
        }
        let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(
            *lo * 2 > *hi,
            "hash routing must spread low-entropy keys: {counts:?}"
        );
    }

    #[test]
    fn batch_apply_matches_op_at_a_time() {
        let records: Vec<WalRecord> = (0..500u32)
            .map(|i| WalRecord::Put {
                key: format!("k{}", i % 120).into_bytes(),
                value: format!("v{i}").into_bytes(),
            })
            .chain((0..40u32).map(|i| WalRecord::Delete {
                key: format!("k{}", i * 3).into_bytes(),
            }))
            .collect();
        let mut batched = ShardedKv::new(4, KvConfig { memtable_budget: 64, ..KvConfig::default() });
        batched.apply_batch(&records);
        let mut serial = ShardedKv::new(4, KvConfig { memtable_budget: 64, ..KvConfig::default() });
        for rec in &records {
            match rec {
                WalRecord::Put { key, value } => {
                    serial.put(Bytes::from(key.clone()), Bytes::from(value.clone()))
                }
                WalRecord::Delete { key } => serial.delete(Bytes::from(key.clone())),
            }
        }
        assert_eq!(batched.scan(b"", b"\xff"), serial.scan(b"", b"\xff"));
        assert_eq!(batched.last_shard_walls().len(), 4);
    }

    #[test]
    fn serial_apply_mode_produces_identical_state() {
        let records: Vec<WalRecord> = (0..300u32)
            .map(|i| WalRecord::Put {
                key: format!("key-{}", i % 90).into_bytes(),
                value: vec![i as u8; 12],
            })
            .collect();
        let mut par = ShardedKv::with_defaults(4);
        par.apply_batch(&records);
        let mut ser = ShardedKv::with_defaults(4);
        ser.set_parallel_apply(false);
        ser.apply_batch(&records);
        assert_eq!(par.scan(b"", b"\xff"), ser.scan(b"", b"\xff"));
        assert!(ser.last_shard_walls().iter().all(|w| *w >= 0.0));
    }

    #[test]
    fn staging_queues_stop_reallocating_after_first_batch() {
        let records: Vec<WalRecord> = (0..600u32)
            .map(|i| WalRecord::Put {
                key: format!("entity-{}", i % 150).into_bytes(),
                value: format!("v{i}").into_bytes(),
            })
            .collect();
        let mut kv = ShardedKv::with_defaults(4);
        kv.set_parallel_apply(false);
        kv.apply_batch(&records);
        let warm = kv.stats().get("staging_reallocs");
        assert!(warm > 0, "first batch must grow the staging queues");
        for _ in 0..20 {
            kv.apply_batch(&records);
        }
        assert_eq!(
            kv.stats().get("staging_reallocs"),
            warm,
            "steady-state batches must reuse staging capacity"
        );
    }

    #[test]
    fn merged_stats_accumulate_across_shards() {
        let mut kv = ShardedKv::new(4, KvConfig { memtable_budget: 32, ..KvConfig::default() });
        for i in 0..400u32 {
            kv.put(Bytes::from(format!("k{i:04}")), Bytes::from(vec![3u8; 16]));
        }
        let stats = kv.stats();
        assert!(stats.get("flushes") > 0);
        for i in 0..200u32 {
            assert_eq!(kv.get(format!("absent-{i}").as_bytes()), None);
        }
        let stats = kv.stats();
        assert!(stats.get("bloom_skips") > 0, "missing keys must hit the filters");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_sharded_matches_btreemap_model(
            ops in proptest::collection::vec((0u8..3, "[a-e]{1,3}", "[x-z]{0,3}"), 1..120),
            shards in 1usize..6,
            budget in 16usize..128,
        ) {
            let mut kv = ShardedKv::new(
                shards,
                KvConfig { memtable_budget: budget, ..KvConfig::default() },
            );
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
                        let got = kv.get(k.as_bytes())
                            .map(|b| String::from_utf8_lossy(&b).to_string());
                        prop_assert_eq!(got, model.get(k).cloned());
                    }
                }
            }
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
}
