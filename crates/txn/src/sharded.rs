//! Shard routing over N [`MvccStore`]s with one shared timestamp
//! oracle — the transactional twin of `mv-storage`'s `ShardedKv`.
//!
//! A transaction spans shards freely: reads route key-by-key, and
//! commit runs the two-phase surface exposed by [`MvccStore`] —
//! validate + write-lock on every touched shard, then install at a
//! single oracle timestamp (or release on abort). The caller owning a
//! durable log (see `mv-core`'s `DurableMetaverse::txn`) interleaves
//! its prepare/decision records between those steps; callers without
//! one get the same atomicity from [`ShardedMvcc::commit_at`] because
//! the whole sequence runs under this process's control.
//!
//! Routing is a caller-supplied pure function so the MVCC shards can be
//! aligned with whatever partitioning the embedding store uses (the
//! engine passes `ShardedKv`'s hash so version chains and KV rows for
//! one entity land on the same shard index).

use crate::mvcc::{GcPass, IsolationLevel, MvccStore, Transaction};
use bytes::Bytes;
use mv_common::hash::fx_hash_one;
use mv_common::id::{IdGen, TxnId};
use mv_common::time::{SimTime, TimestampOracle};
use mv_common::MvResult;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A pure key → shard-index routing function. Must return a value in
/// `0..shards` for every key.
pub type ShardRouter = fn(&[u8], usize) -> usize;

/// The default router: Fx hash of the whole key.
pub fn fx_router(key: &[u8], shards: usize) -> usize {
    (fx_hash_one(&key) % shards.max(1) as u64) as usize
}

/// One participant shard's share of a transaction's key sets, each in
/// key order. [`ShardedMvcc::route`] builds the whole partition once per
/// commit; prepare, install and release all take it from there.
#[derive(Debug)]
pub struct ShardSets {
    shard: usize,
    reads: Vec<Bytes>,
    writes: Vec<(Bytes, Option<Bytes>)>,
}

/// N MVCC stores behind a router, sharing one oracle. See the module
/// docs.
///
/// Shard 0 lives in its own field so "at least one shard" is a
/// structural guarantee: every routed access stays total (panic-free)
/// without a checked fallback that could fail.
#[derive(Debug)]
pub struct ShardedMvcc {
    head: MvccStore,
    rest: Vec<MvccStore>,
    oracle: Arc<TimestampOracle>,
    router: ShardRouter,
    ids: IdGen,
    /// Begin timestamps of transactions begun but not yet finished
    /// (committed, aborted, or dropped via [`ShardedMvcc::finish`]),
    /// keyed by raw txn id. The oldest entry pins the GC horizon:
    /// versions it can still read are never collected under it.
    live: Mutex<BTreeMap<u64, u64>>,
}

impl ShardedMvcc {
    /// `shards` stores (at least one) at `level`, routed by `router`.
    pub fn new(shards: usize, level: IsolationLevel, router: ShardRouter) -> Self {
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
    pub fn shard_of(&self, key: &[u8]) -> usize {
        (self.router)(key, self.shard_count()).min(self.rest.len())
    }

    /// Direct access to one shard's store (diagnostics, recovery).
    pub fn shard(&self, i: usize) -> Option<&MvccStore> {
        match i.checked_sub(1) {
            None => Some(&self.head),
            Some(r) => self.rest.get(r),
        }
    }

    /// All shard stores, in shard order.
    fn stores(&self) -> impl Iterator<Item = &MvccStore> {
        std::iter::once(&self.head).chain(self.rest.iter())
    }

    /// Begin a transaction snapshotted at the oracle's current
    /// timestamp. The handle works across every shard. The snapshot is
    /// registered live — it pins the automatic GC horizon until
    /// [`ShardedMvcc::finish`] (or a [`ShardedMvcc::commit_at`] /
    /// release path that calls it) retires the transaction.
    pub fn begin(&self) -> Transaction {
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
    pub fn read(&self, txn: &mut Transaction, key: &[u8]) -> Option<Bytes> {
        self.store_for(key).read(txn, key)
    }

    /// [`MvccStore::read_versioned`] routed to `key`'s shard.
    pub fn read_versioned(&self, txn: &mut Transaction, key: &[u8]) -> Option<Option<Bytes>> {
        self.store_for(key).read_versioned(txn, key)
    }

    /// Read the newest version of `key` visible at `ts`.
    pub fn read_at(&self, key: &[u8], ts: u64) -> Option<Bytes> {
        self.store_for(key).read_at(key, ts)
    }

    /// Latest committed value of `key`.
    pub fn read_latest(&self, key: &[u8]) -> Option<Bytes> {
        self.read_at(key, self.oracle.current())
    }

    /// [`MvccStore::for_each_head`] over every shard.
    pub fn for_each_head<'a>(&'a mut self, mut f: impl FnMut(&'a Bytes, u64, &'a Bytes)) {
        for store in std::iter::once(&mut self.head).chain(self.rest.iter_mut()) {
            store.for_each_head(&mut f);
        }
    }

    /// Route `txn`'s key sets to shards, once: one [`ShardSets`] per
    /// participant — every shard holding a write (these get durable
    /// prepare records) plus, under serializable validation, every
    /// shard holding a read. Ascending by shard index so lock
    /// acquisition order is deterministic (no deadlock between
    /// concurrent preparers).
    pub fn route(&self, txn: &Transaction) -> Vec<ShardSets> {
        let mut parts: Vec<ShardSets> = (0..self.shard_count())
            .map(|shard| ShardSets { shard, reads: Vec::new(), writes: Vec::new() })
            .collect();
        for (key, value) in txn.write_set() {
            if let Some(part) = parts.get_mut(self.shard_of(key)) {
                part.writes.push((key.clone(), value.clone()));
            }
        }
        if self.head.level() == IsolationLevel::Serializable {
            for key in txn.read_keys() {
                if let Some(part) = parts.get_mut(self.shard_of(key)) {
                    part.reads.push(key.clone());
                }
            }
        }
        parts.retain(|part| !(part.reads.is_empty() && part.writes.is_empty()));
        parts
    }

    /// Phase 1 on one participant: validate `txn`'s reads/writes there
    /// and write-lock the writes.
    pub fn prepare(&self, txn: &Transaction, part: &ShardSets) -> MvResult<()> {
        self.store_at(part.shard).prepare(txn, &part.reads, &part.writes)
    }

    /// Phase 2 (commit) on every write shard: install versions at
    /// `commit_ts` and drop the locks.
    pub fn install(&self, txn_id: TxnId, parts: Vec<ShardSets>, commit_ts: u64) {
        for part in parts {
            if !part.writes.is_empty() {
                self.store_at(part.shard).install_prepared(txn_id, part.writes, commit_ts);
            }
        }
    }

    /// Phase 2 (abort): release the locks held on `prepared` — the
    /// participants that did prepare (prepare acquires in ascending
    /// participant order, so a failure at participant k leaves exactly
    /// the participants before k locked).
    pub fn release(&self, txn_id: TxnId, prepared: &[ShardSets]) {
        for part in prepared {
            self.store_at(part.shard).release_prepared(txn_id, &part.writes);
        }
    }

    /// Install one version directly (recovery replay), routed to the
    /// key's shard; advances the oracle past `commit_ts`.
    pub fn install_version(&self, key: &[u8], value: Option<Bytes>, commit_ts: u64) {
        self.store_for(key).install_version(Bytes::copy_from_slice(key), value, commit_ts);
    }

    /// Install a non-transactional write at `commit_ts`, drawn from the
    /// oracle just before. With no snapshot live *now*, none can read the
    /// version it supersedes (one beginning later reads at a `begin_ts` ≥
    /// `commit_ts`), so the head is replaced in place
    /// (`MvccStore::install_unread`); otherwise the version appends.
    pub fn install_plain(&self, key: &[u8], value: Option<Bytes>, commit_ts: u64) {
        let store = self.store_for(key);
        if self.live.lock().is_empty() {
            store.install_unread(key, value, commit_ts);
        } else {
            store.install_version(Bytes::copy_from_slice(key), value, commit_ts);
        }
    }

    /// One-call atomic commit across all shards at sim time `now` —
    /// prepare everywhere, then install at one fresh timestamp (or
    /// release everything and return the validation error).
    pub fn commit_at(&self, txn: Transaction, now: SimTime) -> MvResult<u64> {
        let parts = self.route(&txn);
        for (i, part) in parts.iter().enumerate() {
            if let Err(e) = self.prepare(&txn, part) {
                self.release(txn.id, parts.get(..i).unwrap_or_default());
                self.finish(txn.id);
                return Err(e);
            }
        }
        let commit_ts = self.oracle.next(now);
        self.install(txn.id, parts, commit_ts);
        self.finish(txn.id);
        Ok(commit_ts)
    }

    /// Garbage-collect every shard at `horizon`; the shards' passes
    /// summed.
    pub fn gc(&self, horizon: u64) -> GcPass {
        let mut pass = GcPass::default();
        for store in self.stores() {
            let shard_pass = store.gc(horizon);
            pass.visited += shard_pass.visited;
            pass.dropped += shard_pass.dropped;
        }
        pass
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
    /// order.
    pub fn digest(&self) -> u64 {
        use std::hash::Hasher as _;
        let mut h = mv_common::hash::FxHasher::default();
        for s in self.stores() {
            h.write_u64(s.digest());
        }
        h.finish()
    }

    fn store_for(&self, key: &[u8]) -> &MvccStore {
        self.store_at(self.shard_of(key))
    }

    fn store_at(&self, si: usize) -> &MvccStore {
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

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn db(shards: usize) -> ShardedMvcc {
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
        assert_eq!(a.digest(), b_.digest());
        let mut t = a.begin();
        t.write(b("k1"), b("v9"));
        a.commit_at(t, SimTime::from_micros(8)).unwrap();
        assert_ne!(a.digest(), b_.digest());
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
                    prop_assert_eq!(fast.digest(), walk.digest());
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
                prop_assert_eq!(fast.digest(), walk.digest());
                prop_assert_eq!(fast.version_count(), fast.key_count());
            }
        }

        /// The plain-write rule against its definition: one store takes
        /// plain writes through `install_plain`, the other appends them
        /// with `install_version`. Every held snapshot reads the same
        /// from both after every step, the first never holds more
        /// versions, and once every snapshot ends one collection leaves
        /// both with the same chains — one version per key.
        #[test]
        fn plain_installs_read_as_appends_then_collect(
            ops in proptest::collection::vec((0u8..4, 0u8..6, 0u8..200), 1..80),
        ) {
            let (inplace, append) = (db(2), db(2));
            let (mut held_in, mut held_ap) = (Vec::new(), Vec::new());
            let keys: Vec<Bytes> = (0..6).map(|k| Bytes::from(format!("key{k}"))).collect();
            for (op, k, val) in &ops {
                match op {
                    0 | 1 => {
                        let (key, value) = (&keys[usize::from(*k)], Some(Bytes::from(vec![*val])));
                        let now = SimTime::from_micros(u64::from(*val));
                        inplace.install_plain(key, value.clone(), inplace.oracle().next(now));
                        append.install_version(key, value, append.oracle().next(now));
                    }
                    2 => {
                        held_in.push(inplace.begin());
                        held_ap.push(append.begin());
                    }
                    _ if !held_in.is_empty() => {
                        let i = usize::from(*val) % held_in.len();
                        inplace.finish(held_in.remove(i).id);
                        append.finish(held_ap.remove(i).id);
                    }
                    _ => {}
                }
                for (a, b) in held_in.iter_mut().zip(held_ap.iter_mut()) {
                    for key in &keys {
                        prop_assert_eq!(inplace.read(a, key), append.read(b, key));
                    }
                }
                prop_assert!(inplace.version_count() <= append.version_count());
            }
            for t in held_in {
                inplace.finish(t.id);
            }
            for t in held_ap {
                append.finish(t.id);
            }
            inplace.auto_gc();
            append.auto_gc();
            prop_assert_eq!(inplace.digest(), append.digest());
            prop_assert_eq!(inplace.version_count(), inplace.key_count());
        }
    }
}
