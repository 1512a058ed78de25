//! Shard routing over N [`MvccStore`]s with one shared timestamp
//! oracle.
//!
//! A transaction spans shards freely: reads route key-by-key, and
//! commit runs the two-phase surface exposed by [`MvccStore`] —
//! validate + write-lock on every touched shard, then install at a
//! single oracle timestamp (or release on abort). The caller owning a
//! durable log (see `mv-core`'s `DurableMetaverse::txn`) interleaves
//! its prepare/decision records between those steps.
//!
//! Routing is a caller-supplied pure function of the key, so a caller
//! decides which keys share a shard. `mv-core` keys its chains by
//! `(entity, field)` and routes by a hash of the entity id's bytes, so
//! every field of one entity lands on one MVCC shard, and a
//! transaction's prepare records name the shards its keys route to.
//! That hash is not the engine's placement (`id % n`): an MVCC shard is
//! not an engine shard.

use crate::mvcc::{GcPass, IsolationLevel, MvccKey, MvccStore, Transaction};
use bytes::Bytes;
use mv_common::id::{IdGen, TxnId};
use mv_common::time::TimestampOracle;
use mv_common::MvResult;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::Arc;

/// A pure key → shard-index routing function over keys named by `R`.
/// Must return a value in `0..shards` for every key.
pub(crate) type ShardRouter<R> = fn(&R, usize) -> usize;

/// One participant shard's share of a transaction's key sets, each in
/// key order. [`ShardedMvcc::route`] builds the whole partition once per
/// commit; prepare, install and release all take it from there.
#[derive(Debug)]
// lint:allow(dead-pub): taken and returned by `ShardedMvcc::route`/`prepare`/`install`, which mv-core calls
pub struct ShardSets<K, V> {
    shard: usize,
    reads: Vec<K>,
    writes: Vec<(K, Option<V>)>,
}

/// N MVCC stores behind a router, sharing one oracle. See the module
/// docs.
///
/// Shard 0 lives in its own field so "at least one shard" is a
/// structural guarantee: every routed access stays total (panic-free)
/// without a checked fallback that could fail.
#[derive(Debug)]
pub struct ShardedMvcc<K: MvccKey, V> {
    head: MvccStore<K, V>,
    rest: Vec<MvccStore<K, V>>,
    oracle: Arc<TimestampOracle>,
    router: ShardRouter<K::Ref>,
    ids: IdGen,
    /// Begin timestamps of transactions begun but not yet finished
    /// (committed, aborted, or dropped via [`ShardedMvcc::finish`]),
    /// keyed by raw txn id. The oldest entry pins the GC horizon:
    /// versions it can still read are never collected under it.
    live: Mutex<BTreeMap<u64, u64>>,
}

impl ShardedMvcc<Bytes, Bytes> {
    /// `shards` byte-keyed stores (at least one) at `level`, routed by
    /// `router`.
    pub fn new(shards: usize, level: IsolationLevel, router: ShardRouter<[u8]>) -> Self {
        Self::with_router(shards, level, router)
    }

    /// [`Self::digest_by`] over byte keys and values, hashed as they are.
    pub fn digest(&self, heads: impl IntoIterator<Item = (Bytes, u64, Bytes)>) -> u64 {
        self.digest_by(heads, |key, out| out.extend_from_slice(key), |value, out| out.extend_from_slice(value))
    }
}

impl<K: MvccKey, V: Clone + PartialEq + Debug> ShardedMvcc<K, V> {
    /// `shards` stores (at least one) at `level`, routed by `router`.
    pub fn with_router(shards: usize, level: IsolationLevel, router: ShardRouter<K::Ref>) -> Self {
        let n = shards.max(1);
        let oracle = Arc::new(TimestampOracle::new());
        ShardedMvcc {
            head: MvccStore::with_oracle(level, Arc::clone(&oracle)),
            rest: (1..n).map(|_| MvccStore::with_oracle(level, Arc::clone(&oracle))).collect(),
            oracle,
            router,
            ids: IdGen::new(),
            live: Mutex::new(BTreeMap::new()),
        }
    }

    /// The shared oracle.
    pub fn oracle(&self) -> &Arc<TimestampOracle> {
        &self.oracle
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        1 + self.rest.len()
    }

    /// The shard `key` routes to.
    pub fn shard_of(&self, key: &K::Ref) -> usize {
        (self.router)(key, self.shard_count()).min(self.rest.len())
    }

    /// All shard stores, in shard order.
    fn stores(&self) -> impl Iterator<Item = &MvccStore<K, V>> {
        std::iter::once(&self.head).chain(self.rest.iter())
    }

    /// Begin a transaction snapshotted at the oracle's current
    /// timestamp. The handle works across every shard. The snapshot is
    /// registered live — it pins the automatic GC horizon until
    /// [`ShardedMvcc::finish`] retires the transaction.
    pub fn begin(&self) -> Transaction<K, V> {
        // Id and snapshot are drawn under the registry lock, so both are
        // monotone in registration order: the first entry is the oldest.
        let mut live = self.live.lock();
        let id: TxnId = self.ids.next();
        let begin_ts = self.oracle.current();
        debug_assert!(
            live.last_key_value().is_none_or(|(last, ts)| *last < id.raw() && *ts <= begin_ts),
            "txn ids and begin timestamps are both monotone"
        );
        live.insert(id.raw(), begin_ts);
        Transaction::with_snapshot(id, begin_ts)
    }

    /// Retire a transaction's snapshot registration (idempotent). Every
    /// begun transaction must end up here — commit, abort, or explicit
    /// drop — or its snapshot pins the GC horizon forever.
    pub fn finish(&self, id: TxnId) {
        self.live.lock().remove(&id.raw());
    }

    /// The begin timestamp of the oldest still-live snapshot, if any.
    pub fn oldest_live_snapshot(&self) -> Option<u64> {
        self.live.lock().values().next().copied()
    }

    /// Number of begun-but-unfinished transactions.
    pub fn live_snapshot_count(&self) -> usize {
        self.live.lock().len()
    }

    /// Garbage-collect every shard at the highest horizon no live
    /// snapshot can observe below: the oldest live begin timestamp, or
    /// the oracle's current timestamp when nothing is live. Callers no
    /// longer pick a horizon by hand — a long-running transaction
    /// simply pins it.
    pub fn auto_gc(&self) -> GcPass {
        self.gc(self.auto_horizon())
    }

    fn auto_horizon(&self) -> u64 {
        let current = self.oracle.current();
        self.oldest_live_snapshot().map_or(current, |oldest| oldest.min(current))
    }

    /// Read `key` inside `txn`, routed to its shard.
    pub fn read(&self, txn: &mut Transaction<K, V>, key: &K::Ref) -> Option<V> {
        self.store_for(key).read(txn, key)
    }

    /// [`MvccStore::read_versioned`] routed to `key`'s shard.
    pub fn read_versioned(&self, txn: &mut Transaction<K, V>, key: &K::Ref) -> Option<Option<V>> {
        self.store_for(key).read_versioned(txn, key)
    }

    /// Read the newest version of `key` visible at `ts`.
    #[cfg(test)]
    pub(crate) fn read_at(&self, key: &K::Ref, ts: u64) -> Option<V> {
        self.store_for(key).read_at(key, ts)
    }

    /// Latest committed value of `key`.
    #[cfg(test)]
    pub(crate) fn read_latest(&self, key: &K::Ref) -> Option<V> {
        self.read_at(key, self.oracle.current())
    }

    /// Route `txn`'s key sets to shards, once: one [`ShardSets`] per
    /// participant — every shard holding a write (these get durable
    /// prepare records) plus, under serializable validation, every
    /// shard holding a read (a key both read and written is validated
    /// once, as a write). Ascending by shard index so lock
    /// acquisition order is deterministic (no deadlock between
    /// concurrent preparers).
    pub fn route(&self, txn: &Transaction<K, V>) -> Vec<ShardSets<K, V>> {
        let mut parts: Vec<ShardSets<K, V>> = (0..self.shard_count())
            .map(|shard| ShardSets { shard, reads: Vec::new(), writes: Vec::new() })
            .collect();
        for (key, value) in txn.write_set() {
            if let Some(part) = parts.get_mut(self.shard_of(key.borrow())) {
                part.writes.push((key.clone(), value.clone()));
            }
        }
        if self.head.level() == IsolationLevel::Serializable {
            for key in txn.read_only_keys() {
                if let Some(part) = parts.get_mut(self.shard_of(key.borrow())) {
                    part.reads.push(key.clone());
                }
            }
        }
        parts.retain(|part| !(part.reads.is_empty() && part.writes.is_empty()));
        parts
    }

    /// Phase 1 on one participant: validate `txn`'s reads/writes there
    /// and write-lock the writes.
    pub fn prepare(&self, txn: &Transaction<K, V>, part: &ShardSets<K, V>) -> MvResult<()> {
        self.store_at(part.shard).prepare(txn, &part.reads, &part.writes)
    }

    /// Phase 2 (commit) on every write shard: install versions at
    /// `commit_ts`, each key with no chain after the head `before` finds
    /// for it, and drop the locks.
    pub fn install(&self, txn_id: TxnId, parts: Vec<ShardSets<K, V>>, commit_ts: u64, before: impl Fn(&K) -> Option<(V, u64)>) {
        for part in parts {
            if !part.writes.is_empty() {
                self.store_at(part.shard).install_prepared(txn_id, part.writes, commit_ts, &before);
            }
        }
    }

    /// Phase 2 (abort): release the locks held on `prepared` — the
    /// participants that did prepare (prepare acquires in ascending
    /// participant order, so a failure at participant k leaves exactly
    /// the participants before k locked).
    pub fn release(&self, txn_id: TxnId, prepared: &[ShardSets<K, V>]) {
        for part in prepared {
            self.store_at(part.shard).release_prepared(txn_id, &part.writes);
        }
    }

    /// Install one version directly (recovery replay), routed to the
    /// key's shard; advances the oracle past `commit_ts`.
    pub fn install_version(&self, key: &K::Ref, value: Option<V>, commit_ts: u64) {
        self.store_for(key).install_version(K::owned(key), value, commit_ts);
    }

    /// [`MvccStore::save_before_image`], routed to the key's shard.
    pub fn save_before_image(&self, key: &K::Ref, value: V, commit_ts: u64) {
        self.store_for(key).save_before_image(key, value, commit_ts);
    }

    /// One-call atomic commit across all shards at sim time `now` —
    /// prepare everywhere, then install at one fresh timestamp (or
    /// release everything and return the validation error).
    #[cfg(test)]
    pub(crate) fn commit_at(&self, txn: Transaction<K, V>, now: mv_common::time::SimTime) -> MvResult<u64> {
        let parts = self.route(&txn);
        for (i, part) in parts.iter().enumerate() {
            if let Err(e) = self.prepare(&txn, part) {
                self.release(txn.id, parts.get(..i).unwrap_or_default());
                self.finish(txn.id);
                return Err(e);
            }
        }
        let commit_ts = self.oracle.next(now);
        self.install(txn.id, parts, commit_ts, |_| None);
        self.finish(txn.id);
        Ok(commit_ts)
    }

    /// Garbage-collect every shard at `horizon`; the shards' passes
    /// summed.
    pub fn gc(&self, horizon: u64) -> GcPass {
        self.stores().map(|store| store.gc(horizon)).sum()
    }

    /// [`MvccStore::clear`] on every shard; the shards' counts summed.
    pub fn clear(&self) -> GcPass {
        self.stores().map(MvccStore::clear).sum()
    }

    /// Live keys across all shards.
    pub fn key_count(&self) -> usize {
        self.stores().map(MvccStore::key_count).sum()
    }

    /// Total versions across all shards.
    pub fn version_count(&self) -> usize {
        self.stores().map(MvccStore::version_count).sum()
    }

    /// Prepared-but-undecided locks across all shards (0 when quiesced).
    pub fn lock_count(&self) -> usize {
        self.stores().map(MvccStore::lock_count).sum()
    }

    /// Deterministic digest folding every shard's digest in shard
    /// order; each of `heads` goes to its key's shard (see
    /// [`MvccStore::digest_by`]).
    pub fn digest_by(
        &self,
        heads: impl IntoIterator<Item = (K, u64, V)>,
        key_bytes: impl Fn(&K, &mut Vec<u8>),
        value_bytes: impl Fn(&V, &mut Vec<u8>),
    ) -> u64 {
        use std::hash::Hasher as _;
        let heads: Vec<_> = heads.into_iter().collect();
        let mut h = mv_common::hash::FxHasher::default();
        for (i, s) in self.stores().enumerate() {
            let routed: Vec<_> = heads.iter().filter(|head| self.shard_of(head.0.borrow()) == i).cloned().collect();
            h.write_u64(s.digest_by(&routed, &key_bytes, &value_bytes));
        }
        h.finish()
    }

    fn store_for(&self, key: &K::Ref) -> &MvccStore<K, V> {
        self.store_at(self.shard_of(key))
    }

    fn store_at(&self, si: usize) -> &MvccStore<K, V> {
        // shard_of clamps into range; out-of-range indices fall back to
        // shard 0, which the `head` field guarantees exists.
        match si.checked_sub(1) {
            None => &self.head,
            Some(r) => self.rest.get(r).unwrap_or(&self.head),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_common::hash::fx_hash_one;
    use mv_common::time::SimTime;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    /// Routes by the Fx hash of the whole key.
    fn fx_router(key: &[u8], shards: usize) -> usize {
        (fx_hash_one(&key) % shards.max(1) as u64) as usize
    }

    fn db(shards: usize) -> ShardedMvcc<Bytes, Bytes> {
        ShardedMvcc::new(shards, IsolationLevel::Serializable, fx_router)
    }

    #[test]
    fn cross_shard_commit_is_atomic_and_readable() {
        let db = db(4);
        let mut t = db.begin();
        for i in 0..16 {
            t.write(Bytes::from(format!("key{i}")), Bytes::from(vec![i as u8]));
        }
        let ts = db.commit_at(t, SimTime::from_millis(1)).unwrap();
        for i in 0..16 {
            assert_eq!(db.read_at(format!("key{i}").as_bytes(), ts), Some(Bytes::from(vec![i as u8])));
        }
        assert_eq!(db.lock_count(), 0, "no locks survive a decided txn");
        assert_eq!(db.key_count(), 16);
    }

    #[test]
    fn shard_count_never_changes_outcomes() {
        // The same three-txn history (one conflict) plays out
        // identically at every shard count.
        for shards in [1usize, 2, 4, 8] {
            let db = db(shards);
            let mut init = db.begin();
            init.write(b("a"), b("0"));
            init.write(b("b"), b("0"));
            db.commit_at(init, SimTime::ZERO).unwrap();

            let mut t1 = db.begin();
            let mut t2 = db.begin();
            assert_eq!(db.read(&mut t1, b"a"), Some(b("0")));
            t1.write(b("a"), b("1"));
            t2.write(b("a"), b("2"));
            assert!(db.commit_at(t1, SimTime::ZERO).is_ok(), "shards={shards}");
            assert!(db.commit_at(t2, SimTime::ZERO).is_err(), "shards={shards}: FCW");
            assert_eq!(db.read_latest(b"a"), Some(b("1")), "shards={shards}");
            assert_eq!(db.lock_count(), 0, "shards={shards}");
        }
    }

    #[test]
    fn failed_prepare_releases_earlier_participants() {
        let db = db(8);
        // Seed a key, then have a blocker prepare-lock it.
        let mut init = db.begin();
        for i in 0..8 {
            init.write(Bytes::from(format!("key{i}")), b("0"));
        }
        db.commit_at(init, SimTime::ZERO).unwrap();

        let mut blocker = db.begin();
        blocker.write(b("key7"), b("x"));
        let bp = db.route(&blocker);
        for part in &bp {
            db.prepare(&blocker, part).unwrap();
        }

        // A txn spanning many shards including the locked key must fail
        // its commit and leave zero locks of its own behind.
        let mut t = db.begin();
        for i in 0..8 {
            t.write(Bytes::from(format!("key{i}")), b("y"));
        }
        let before = db.lock_count();
        assert!(db.commit_at(t, SimTime::ZERO).is_err());
        assert_eq!(db.lock_count(), before, "failed commit released its own locks");

        db.release(blocker.id, &bp);
        assert_eq!(db.lock_count(), 0);
    }

    #[test]
    fn auto_gc_collects_behind_the_oldest_live_snapshot() {
        let db = db(4);
        // Ten rewrites of the same key build a ten-version chain.
        for i in 0..10 {
            let mut t = db.begin();
            t.write(b("hot"), Bytes::from(vec![i as u8]));
            db.commit_at(t, SimTime::from_millis(1 + i)).unwrap();
        }
        assert!(db.version_count() >= 10);
        assert_eq!(db.live_snapshot_count(), 0, "commit_at retires its txn");
        // Nothing is live, so the collector trims to one version per key.
        assert!(db.auto_gc().dropped > 0);
        assert_eq!(db.version_count(), 1);
        assert_eq!(db.read_latest(b"hot"), Some(Bytes::from(vec![9u8])));
    }

    #[test]
    fn long_running_transaction_pins_the_horizon() {
        let db = db(4);
        let mut init = db.begin();
        init.write(b("hot"), b("v0"));
        db.commit_at(init, SimTime::from_millis(1)).unwrap();

        // A reader opens a snapshot, then ten writers churn the key.
        let mut reader = db.begin();
        let pinned = db.oldest_live_snapshot().expect("reader is live");
        for i in 0..10 {
            let mut t = db.begin();
            t.write(b("hot"), Bytes::from(vec![i as u8]));
            db.commit_at(t, SimTime::from_millis(2 + i)).unwrap();
        }
        // The collector may not take anything the reader can still see:
        // its snapshot predates every churn commit, so the chain stays.
        let before = db.version_count();
        db.auto_gc();
        assert_eq!(db.version_count(), before, "live snapshot pins the horizon");
        assert_eq!(db.oldest_live_snapshot(), Some(pinned));
        assert_eq!(db.read(&mut reader, b"hot"), Some(b("v0")), "snapshot intact after GC");

        // Retiring the reader releases the pin; the chain collapses.
        db.finish(reader.id);
        assert_eq!(db.live_snapshot_count(), 0);
        assert!(db.auto_gc().dropped > 0);
        assert_eq!(db.version_count(), 1);
    }

    #[test]
    fn failed_commit_retires_its_snapshot() {
        let db = db(2);
        let mut init = db.begin();
        init.write(b("k"), b("0"));
        db.commit_at(init, SimTime::ZERO).unwrap();
        let mut t1 = db.begin();
        let mut t2 = db.begin();
        assert_eq!(db.read(&mut t1, b"k"), Some(b("0")));
        t1.write(b("k"), b("1"));
        t2.write(b("k"), b("2"));
        db.commit_at(t1, SimTime::ZERO).unwrap();
        assert!(db.commit_at(t2, SimTime::ZERO).is_err());
        assert_eq!(db.live_snapshot_count(), 0, "the loser's snapshot is retired too");
    }

    #[test]
    fn digest_tracks_content_not_construction_order() {
        let a = db(4);
        let b_ = db(4);
        for dbx in [&a, &b_] {
            let mut t = dbx.begin();
            t.write(b("k1"), b("v1"));
            t.write(b("k2"), b("v2"));
            dbx.commit_at(t, SimTime::from_micros(7)).unwrap();
        }
        assert_eq!(a.digest([]), b_.digest([]));
        let mut t = a.begin();
        t.write(b("k1"), b("v9"));
        a.commit_at(t, SimTime::from_micros(8)).unwrap();
        assert_ne!(a.digest([]), b_.digest([]));
    }

    /// `clear` counts what a collection at the current timestamp counts,
    /// and leaves no chain for the next install to find.
    #[test]
    fn clear_counts_a_collection_at_now_and_empties_the_store() {
        let (cleared, collected) = (db(4), db(4));
        for store in [&cleared, &collected] {
            for i in 0..12u8 {
                let mut t = store.begin();
                t.write(Bytes::from(format!("key{}", i % 5)), Bytes::from(vec![i]));
                if i % 4 == 0 {
                    t.delete(b("gone"));
                }
                store.commit_at(t, SimTime::from_millis(u64::from(i))).unwrap();
            }
        }
        let now = collected.oracle().current();
        assert_eq!(cleared.clear(), collected.gc(now));
        assert_eq!(cleared.clear(), GcPass::default());
        assert_eq!((cleared.key_count(), cleared.version_count()), (0, 0));
        cleared.install_version(b"key0", Some(b("v")), now + 1);
        assert_eq!((cleared.key_count(), cleared.version_count()), (1, 1));
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The reference-oracle property across shards: two stores run
        /// the same script of commits, deletes, direct installs, held
        /// and retired snapshots; one collects with `gc`/`auto_gc`, the
        /// other with the whole-store walk at the same horizons. They
        /// must agree shard by shard, chain by chain, and on every
        /// count.
        #[test]
        fn gc_matches_the_whole_store_walk_at_every_shard_count(
            ops in proptest::collection::vec(
                (0u8..8, 0u8..6, 0u8..6, 0u8..200, 0.0f64..1.2),
                1..80,
            ),
        ) {
            for shards in [1usize, 2, 4] {
                let (fast, walk) = (db(shards), db(shards));
                let (mut held_fast, mut held_walk) = (Vec::new(), Vec::new());
                for (op, k1, k2, val, frac) in &ops {
                    let key = |k: &u8| Bytes::from(format!("key{k}"));
                    let now = SimTime::from_micros(u64::from(*val));
                    let mut outcomes = Vec::new();
                    for (dbx, held) in [(&fast, &mut held_fast), (&walk, &mut held_walk)] {
                        match op {
                            // Write two keys / delete one and write the other.
                            0 | 1 => {
                                let mut t = dbx.begin();
                                if *op == 0 {
                                    t.write(key(k1), Bytes::from(vec![*val]));
                                } else {
                                    t.delete(key(k1));
                                }
                                t.write(key(k2), Bytes::from(vec![*val]));
                                outcomes.push(dbx.commit_at(t, now).is_ok());
                            }
                            2 => {
                                let value = (*val % 2 == 0).then(|| Bytes::from(vec![*val]));
                                let ts = dbx.oracle().current() + 1 + u64::from(*val % 3);
                                dbx.install_version(&key(k1), value, ts);
                            }
                            // Begin and hold: pins the automatic horizon.
                            3 => held.push(dbx.begin()),
                            4 if !held.is_empty() => {
                                let t = held.remove(usize::from(*val) % held.len());
                                dbx.finish(t.id);
                            }
                            // A held (stale) snapshot races a commit: may conflict.
                            5 if !held.is_empty() => {
                                let mut t = held.remove(usize::from(*val) % held.len());
                                dbx.read(&mut t, &key(k1));
                                t.write(key(k2), Bytes::from(vec![*val]));
                                outcomes.push(dbx.commit_at(t, now).is_ok());
                            }
                            _ => {}
                        }
                    }
                    prop_assert!(outcomes.windows(2).all(|w| w[0] == w[1]), "outcomes differ");
                    let horizon = match op {
                        6 => Some(fast.auto_horizon()),
                        7 => Some((fast.oracle().current() as f64 * frac) as u64),
                        _ => None,
                    };
                    if let Some(h) = horizon {
                        let pass = if *op == 6 { fast.auto_gc() } else { fast.gc(h) };
                        let walked: usize = walk.stores().map(|s| s.gc_by_walk(h)).sum();
                        prop_assert_eq!(pass.dropped, walked, "shards={} horizon={}", shards, h);
                        prop_assert!(pass.visited <= pass.dropped);
                    }
                    for (a, b) in fast.stores().zip(walk.stores()) {
                        prop_assert_eq!(a.chain_dump(), b.chain_dump(), "shards={}", shards);
                    }
                    prop_assert_eq!(fast.digest([]), walk.digest([]));
                    prop_assert_eq!(fast.key_count(), walk.key_count());
                    prop_assert_eq!(fast.version_count(), walk.version_count());
                }
                // Everything retired: the final pass leaves one live
                // version per surviving key on both sides.
                for t in held_fast.drain(..) {
                    fast.finish(t.id);
                }
                let now = walk.oracle().current();
                let walked: usize = walk.stores().map(|s| s.gc_by_walk(now)).sum();
                prop_assert_eq!(fast.auto_gc().dropped, walked);
                prop_assert_eq!(fast.digest([]), walk.digest([]));
                prop_assert_eq!(fast.version_count(), fast.key_count());
            }
        }
    }
}
