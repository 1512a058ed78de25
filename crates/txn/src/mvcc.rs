//! Multi-version concurrency control with snapshot-isolation and
//! serializable transactions.
//!
//! Each key keeps a version chain ordered by commit timestamp. A
//! transaction reads as of its begin timestamp, buffers writes privately,
//! and records every key it read. Commit validation is
//! first-committer-wins on the write set; under
//! [`IsolationLevel::Serializable`] the read set is validated the same
//! way (OCC backward validation), which upgrades SI to
//! conflict-serializability — the committed history is equivalent to the
//! serial execution in commit-timestamp order. Plain
//! [`IsolationLevel::Snapshot`] deliberately permits write skew, and the
//! tests pin down both behaviours.
//!
//! The store is interior-mutability-safe: every method takes `&self`
//! (one `parking_lot::Mutex` around the chains), so N stores can sit
//! behind shard routing and be driven from scoped threads — see
//! [`crate::sharded::ShardedMvcc`]. Commit timestamps come from a shared
//! [`TimestampOracle`] driven by the sim clock, so cross-shard
//! transactions get one globally ordered timestamp.
//!
//! For two-phase commit the validate/install steps are exposed
//! separately: [`MvccStore::prepare`] validates and write-locks a
//! transaction's keys on this store (a prepared-but-undecided writer
//! blocks conflicting preparers), [`MvccStore::install_prepared`]
//! installs the versions at the coordinator's commit timestamp, and
//! [`MvccStore::release_prepared`] backs a lock out on abort.

use bytes::Bytes;
use mv_common::hash::FastMap;
use mv_common::id::{IdGen, TxnId};
use mv_common::time::{SimTime, TimestampOracle};
use mv_common::{MvError, MvResult};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::hash::Hasher as _;
use std::sync::Arc;

/// A committed version.
#[derive(Debug, Clone)]
struct Version {
    commit_ts: u64,
    value: Option<Bytes>, // None = deletion
}

/// What a transaction's commit must defend against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IsolationLevel {
    /// First-committer-wins on the write set only: prevents lost
    /// updates, permits write skew (classic SI).
    #[default]
    Snapshot,
    /// Additionally validates the read set, rejecting any transaction
    /// whose reads were overwritten after its snapshot: committed
    /// transactions are equivalent to the serial execution in
    /// commit-timestamp order.
    Serializable,
}

/// What one collection pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcPass {
    /// Chains the collector looked at.
    pub visited: usize,
    /// Versions it dropped.
    pub dropped: usize,
}

/// Mutex-guarded store state.
#[derive(Debug, Default)]
struct Inner {
    /// key → version chain (ascending commit_ts).
    chains: FastMap<Bytes, Vec<Version>>,
    /// The GC candidates — every chain some horizon can trim — as a
    /// min-heap on [`ripe_ts`]. A chain is listed exactly while
    /// `ripe_ts` is `Some`, and its entry never goes stale: installs
    /// append, and appending to a listed chain does not move its ripe
    /// timestamp. An unlisted chain is one live non-tombstone version,
    /// which no horizon trims (and which `install_unread` may overwrite
    /// with another).
    ripe: BinaryHeap<Reverse<(u64, Bytes)>>,
    /// Prepared-but-undecided write locks (2PC phase 1).
    locks: FastMap<Bytes, TxnId>,
    commits: u64,
    aborts: u64,
}

/// The lowest horizon at which [`trim`] drops something from `chain`
/// (ascending commit_ts): its head tombstone's timestamp, else its
/// second version's (the one that supersedes the head). `None` for a
/// chain no horizon can trim.
fn ripe_ts(chain: &[Version]) -> Option<u64> {
    match chain {
        [head, ..] if head.value.is_none() => Some(head.commit_ts),
        [_, second, ..] => Some(second.commit_ts),
        _ => None,
    }
}

/// Drop the versions of `chain` no snapshot at or after `horizon` can
/// distinguish (see [`MvccStore::gc`]); returns how many went.
fn trim(chain: &mut Vec<Version>, horizon: u64) -> usize {
    // Index of the newest version visible at the horizon.
    let keep_from = chain.iter().rposition(|v| v.commit_ts <= horizon).unwrap_or(0);
    chain.drain(..keep_from);
    let survivor_is_dead_tombstone =
        chain.first().is_some_and(|v| v.commit_ts <= horizon && v.value.is_none());
    if survivor_is_dead_tombstone {
        chain.remove(0);
    }
    keep_from + usize::from(survivor_is_dead_tombstone)
}

impl Inner {
    /// Append a version to `key`'s chain — the one install site, so the
    /// candidate heap sees every chain that becomes trimmable.
    fn push_version(&mut self, key: Bytes, version: Version) {
        let mut entry = match self.chains.entry(key) {
            Entry::Occupied(entry) => entry,
            Entry::Vacant(slot) => slot.insert_entry(Vec::new()),
        };
        let chain = entry.get_mut();
        debug_assert!(
            chain.last().is_none_or(|last| last.commit_ts <= version.commit_ts),
            "version chains are ascending by commit_ts"
        );
        let listed = ripe_ts(chain).is_some();
        chain.push(version);
        if !listed {
            if let Some(ripe) = ripe_ts(chain) {
                self.ripe.push(Reverse((ripe, entry.key().clone())));
            }
        }
    }
}

/// The store. All methods take `&self`; see the module docs.
#[derive(Debug, Default)]
pub struct MvccStore {
    inner: Mutex<Inner>,
    oracle: Arc<TimestampOracle>,
    ids: IdGen,
    level: IsolationLevel,
}

/// An open transaction handle. Writes are buffered privately; reads are
/// recorded for serializable validation.
#[derive(Debug)]
pub struct Transaction {
    /// Identifier.
    pub id: TxnId,
    begin_ts: u64,
    reads: BTreeSet<Bytes>,
    writes: BTreeMap<Bytes, Option<Bytes>>,
}

impl Transaction {
    /// A transaction snapshotted at `begin_ts` (normally built by
    /// [`MvccStore::begin`] / `ShardedMvcc::begin`).
    pub fn with_snapshot(id: TxnId, begin_ts: u64) -> Transaction {
        Transaction { id, begin_ts, reads: BTreeSet::new(), writes: BTreeMap::new() }
    }

    /// The snapshot timestamp.
    pub fn begin_ts(&self) -> u64 {
        self.begin_ts
    }

    /// Buffer a write.
    pub fn write(&mut self, key: impl Into<Bytes>, value: impl Into<Bytes>) {
        self.writes.insert(key.into(), Some(value.into()));
    }

    /// Buffer a delete.
    pub fn delete(&mut self, key: impl Into<Bytes>) {
        self.writes.insert(key.into(), None);
    }

    /// Keys read so far, in key order.
    pub fn read_keys(&self) -> impl Iterator<Item = &Bytes> + '_ {
        self.reads.iter()
    }

    /// Buffered writes, in key order (`None` = delete).
    pub fn write_set(&self) -> impl Iterator<Item = (&Bytes, &Option<Bytes>)> + '_ {
        self.writes.iter()
    }

    /// Number of buffered writes.
    pub fn write_count(&self) -> usize {
        self.writes.len()
    }
}

impl MvccStore {
    /// An empty store: snapshot isolation, private oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store at the given isolation level.
    pub fn with_level(level: IsolationLevel) -> Self {
        MvccStore { level, ..Self::default() }
    }

    /// An empty store sharing `oracle` (how shards of one logical
    /// database agree on timestamps).
    pub fn with_oracle(level: IsolationLevel, oracle: Arc<TimestampOracle>) -> Self {
        MvccStore { level, oracle, ..Self::default() }
    }

    /// The timestamp oracle.
    pub fn oracle(&self) -> &Arc<TimestampOracle> {
        &self.oracle
    }

    /// The isolation level commits validate at.
    pub fn level(&self) -> IsolationLevel {
        self.level
    }

    /// Begin a transaction snapshotted at the oracle's current
    /// timestamp.
    pub fn begin(&self) -> Transaction {
        Transaction::with_snapshot(self.ids.next(), self.oracle.current())
    }

    /// Read `key` inside `txn` (snapshot + read-your-writes), recording
    /// the read for serializable validation.
    pub fn read(&self, txn: &mut Transaction, key: &[u8]) -> Option<Bytes> {
        self.read_versioned(txn, key).flatten()
    }

    /// [`Self::read`] distinguishing "no chain at all" (outer `None`)
    /// from "visible value or tombstone" (outer `Some`). Callers
    /// layering MVCC over a non-versioned store use the outer `None` to
    /// fall back.
    pub fn read_versioned(&self, txn: &mut Transaction, key: &[u8]) -> Option<Option<Bytes>> {
        if !txn.reads.contains(key) {
            txn.reads.insert(Bytes::copy_from_slice(key));
        }
        if let Some(buffered) = txn.writes.get(key) {
            return Some(buffered.clone());
        }
        let g = self.inner.lock();
        let chain = g.chains.get(key)?;
        Some(
            chain
                .iter()
                .rev()
                .find(|v| v.commit_ts <= txn.begin_ts)
                .and_then(|v| v.value.clone()),
        )
    }

    /// Read the newest version of `key` visible at timestamp `ts`.
    pub fn read_at(&self, key: &[u8], ts: u64) -> Option<Bytes> {
        let g = self.inner.lock();
        let chain = g.chains.get(key)?;
        chain.iter().rev().find(|v| v.commit_ts <= ts).and_then(|v| v.value.clone())
    }

    /// Latest committed value (auto-commit read).
    pub fn read_latest(&self, key: &[u8]) -> Option<Bytes> {
        self.read_at(key, self.oracle.current())
    }

    /// Call `f` with every key's head — its newest version and commit
    /// timestamp, unless that is a tombstone: what a collection at the
    /// current timestamp leaves of the chain — in no particular order.
    /// `&mut` access reads the chains without taking the lock.
    pub fn for_each_head<'a>(&'a mut self, mut f: impl FnMut(&'a Bytes, u64, &'a Bytes)) {
        for (key, chain) in self.inner.get_mut().chains.iter() {
            if let Some(Version { commit_ts, value: Some(value) }) = chain.last() {
                f(key, *commit_ts, value);
            }
        }
    }

    /// Buffer a write inside the transaction.
    pub fn write(&self, txn: &mut Transaction, key: impl Into<Bytes>, value: impl Into<Bytes>) {
        txn.write(key, value);
    }

    /// Buffer a delete inside the transaction.
    pub fn delete(&self, txn: &mut Transaction, key: impl Into<Bytes>) {
        txn.delete(key);
    }

    /// Commit at sim time `now`: validate (per the isolation level),
    /// then install versions at a fresh oracle timestamp, which is
    /// returned.
    pub fn commit_at(&self, txn: Transaction, now: SimTime) -> MvResult<u64> {
        let mut g = self.inner.lock();
        if let Err(e) = validate(&g, self.level, &txn, txn.read_keys(), txn.writes.keys()) {
            g.aborts += 1;
            return Err(e);
        }
        let commit_ts = self.oracle.next(now);
        for (key, value) in txn.writes {
            g.push_version(key, Version { commit_ts, value });
        }
        g.commits += 1;
        Ok(commit_ts)
    }

    /// [`Self::commit_at`] at the sim origin (the oracle still advances
    /// strictly, so pure logical-clock use works unchanged).
    pub fn commit(&self, txn: Transaction) -> MvResult<u64> {
        self.commit_at(txn, SimTime::ZERO)
    }

    /// Abort (drop) a transaction explicitly.
    pub fn abort(&self, txn: Transaction) {
        drop(txn);
        self.inner.lock().aborts += 1;
    }

    // ---- two-phase commit surface ----------------------------------

    /// Phase 1 for the subset of `txn` this store owns: validate
    /// `reads`/`writes` (this store's share of the transaction's key
    /// sets) and write-lock `writes`. A prepared key conflicts with
    /// every other preparer until decided. On `Err` nothing is locked
    /// here.
    pub fn prepare(
        &self,
        txn: &Transaction,
        reads: &[Bytes],
        writes: &[(Bytes, Option<Bytes>)],
    ) -> MvResult<()> {
        let mut g = self.inner.lock();
        let write_keys = writes.iter().map(|(k, _)| k);
        if let Err(e) = validate(&g, self.level, txn, reads.iter(), write_keys.clone()) {
            g.aborts += 1;
            return Err(e);
        }
        for key in write_keys {
            g.locks.insert(key.clone(), txn.id);
        }
        Ok(())
    }

    /// Phase 2 (commit): install `writes` at `commit_ts` and release the
    /// locks `txn` holds on them. The coordinator allocates `commit_ts`
    /// from the shared oracle once per transaction.
    pub fn install_prepared(
        &self,
        txn_id: TxnId,
        writes: Vec<(Bytes, Option<Bytes>)>,
        commit_ts: u64,
    ) {
        let mut g = self.inner.lock();
        for (key, value) in writes {
            if g.locks.get(&key) == Some(&txn_id) {
                g.locks.remove(&key);
            }
            g.push_version(key, Version { commit_ts, value });
        }
        g.commits += 1;
    }

    /// Phase 2 (abort): release the locks `txn` holds on `writes`.
    pub fn release_prepared(&self, txn_id: TxnId, writes: &[(Bytes, Option<Bytes>)]) {
        let mut g = self.inner.lock();
        for (key, _) in writes {
            if g.locks.get(key) == Some(&txn_id) {
                g.locks.remove(key);
            }
        }
        g.aborts += 1;
    }

    /// Install one version directly at `commit_ts`, bypassing
    /// validation — the recovery path replaying decided transactions
    /// from the log. Advances the oracle past `commit_ts`.
    pub fn install_version(&self, key: impl Into<Bytes>, value: Option<Bytes>, commit_ts: u64) {
        self.oracle.advance_past(commit_ts);
        self.inner.lock().push_version(key.into(), Version { commit_ts, value });
    }

    /// [`Self::install_version`] when no snapshot is live to read the
    /// version this one supersedes: a chain that is one live version is
    /// overwritten in place — what `gc` at the current timestamp would
    /// leave after the append — and stays unlisted. Any other chain, or a
    /// tombstone, appends. A bare store cannot see live snapshots, so the
    /// public entry is [`crate::ShardedMvcc::install_plain`], which holds
    /// the registry and checks it.
    pub(crate) fn install_unread(&self, key: &[u8], value: Option<Bytes>, commit_ts: u64) {
        self.oracle.advance_past(commit_ts);
        let mut g = self.inner.lock();
        if let Some([head]) = g.chains.get_mut(key).map(Vec::as_mut_slice) {
            if head.value.is_some() && value.is_some() {
                debug_assert!(head.commit_ts <= commit_ts, "version chains are ascending");
                *head = Version { commit_ts, value };
                return;
            }
        }
        g.push_version(Bytes::copy_from_slice(key), Version { commit_ts, value });
    }

    /// Locks currently held (prepared-but-undecided keys).
    pub fn lock_count(&self) -> usize {
        self.inner.lock().locks.len()
    }

    // ---- maintenance ------------------------------------------------

    /// Garbage-collect versions no snapshot at or after `horizon` can
    /// distinguish: per key, everything below the newest version at or
    /// below the horizon goes, and if that survivor is itself a
    /// tombstone it goes too (a snapshot ≥ horizon reads "absent" either
    /// way). Keys left with no versions are dropped entirely, so
    /// deleted-key garbage is actually reclaimed.
    ///
    /// Only chains ripe at `horizon` are visited — each visit drops at
    /// least one version — so a pass costs what it collects, not the
    /// size of the store, and a horizon pinned below every candidate
    /// costs one heap peek. Every other chain is one the whole-store
    /// walk would have left untouched.
    pub fn gc(&self, horizon: u64) -> GcPass {
        let g = &mut *self.inner.lock();
        let mut pass = GcPass::default();
        while let Some(mut top) = g.ripe.peek_mut().filter(|top| top.0 .0 <= horizon) {
            let Reverse((ripe, key)) = &mut *top;
            let Some(chain) = g.chains.get_mut(&*key) else {
                PeekMut::pop(top);
                continue;
            };
            pass.visited += 1;
            pass.dropped += trim(chain, horizon);
            match ripe_ts(chain) {
                // Still trimmable, at a horizon above this one: the
                // entry sifts down when `top` drops.
                Some(next) => *ripe = next,
                None => {
                    if chain.is_empty() {
                        g.chains.remove(&*key);
                    }
                    PeekMut::pop(top);
                }
            }
        }
        pass
    }

    /// The whole-store walk [`Self::gc`] replaced, kept verbatim as the
    /// reference the property tests hold it to: every chain visited,
    /// the candidate heap neither read nor maintained (so a store
    /// collected this way must only ever be collected this way).
    /// Returns the versions dropped.
    #[cfg(test)]
    pub(crate) fn gc_by_walk(&self, horizon: u64) -> usize {
        let mut g = self.inner.lock();
        let mut dropped = 0;
        for chain in g.chains.values_mut() {
            // Index of the newest version visible at the horizon.
            let keep_from = chain.iter().rposition(|v| v.commit_ts <= horizon).unwrap_or(0);
            dropped += keep_from;
            chain.drain(..keep_from);
            let survivor_is_dead_tombstone = chain
                .first()
                .is_some_and(|v| v.commit_ts <= horizon && v.value.is_none());
            if survivor_is_dead_tombstone {
                chain.remove(0);
                dropped += 1;
            }
        }
        g.chains.retain(|_, c| !c.is_empty());
        dropped
    }

    /// Every chain, in key order, rendered for comparison.
    #[cfg(test)]
    pub(crate) fn chain_dump(&self) -> String {
        let g = self.inner.lock();
        let mut chains: Vec<_> = g.chains.iter().collect();
        chains.sort_unstable_by_key(|(key, _)| *key);
        format!("{chains:?}")
    }

    /// Number of live keys (with any version).
    pub fn key_count(&self) -> usize {
        self.inner.lock().chains.len()
    }

    /// Total versions across all chains.
    pub fn version_count(&self) -> usize {
        self.inner.lock().chains.values().map(Vec::len).sum()
    }

    /// Commits performed.
    pub fn commits(&self) -> u64 {
        self.inner.lock().commits
    }

    /// Aborts (validation failures + explicit).
    pub fn aborts(&self) -> u64 {
        self.inner.lock().aborts
    }

    /// Deterministic digest of the committed state: chains folded in
    /// key order, versions in chain order. Two stores with equal
    /// digests hold the same versioned history — the differential
    /// harness compares these across crash/recovery.
    pub fn digest(&self) -> u64 {
        let g = self.inner.lock();
        let mut keys: Vec<&Bytes> = g.chains.keys().collect();
        keys.sort_unstable();
        let mut h = mv_common::hash::FxHasher::default();
        for key in keys {
            h.write(key);
            if let Some(chain) = g.chains.get(key) {
                for v in chain {
                    h.write_u64(v.commit_ts);
                    match &v.value {
                        Some(b) => {
                            h.write_u8(1);
                            h.write(b);
                        }
                        None => h.write_u8(0),
                    }
                }
            }
        }
        h.finish()
    }
}

/// Shared validation: first-committer-wins over `writes`, plus the same
/// check over `reads` under [`IsolationLevel::Serializable`]. A key
/// locked by another prepared transaction conflicts in both roles.
fn validate<'a>(
    inner: &Inner,
    level: IsolationLevel,
    txn: &Transaction,
    reads: impl Iterator<Item = &'a Bytes>,
    writes: impl Iterator<Item = &'a Bytes>,
) -> MvResult<()> {
    let check = |key: &Bytes, role: &str| -> MvResult<()> {
        if let Some(owner) = inner.locks.get(key) {
            if *owner != txn.id {
                return Err(MvError::Conflict(format!(
                    "{role} key {key:?} is prepare-locked by {owner}"
                )));
            }
        }
        if let Some(last) = inner.chains.get(key).and_then(|c| c.last()) {
            if last.commit_ts > txn.begin_ts {
                return Err(MvError::Conflict(format!(
                    "{role}-write conflict on {key:?} ({} > begin {})",
                    last.commit_ts, txn.begin_ts
                )));
            }
        }
        Ok(())
    };
    for key in writes {
        check(key, "write")?;
    }
    if level == IsolationLevel::Serializable {
        for key in reads {
            check(key, "read")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn read_your_writes_and_commit() {
        let db = MvccStore::new();
        let mut t = db.begin();
        db.write(&mut t, b("k"), b("v1"));
        assert_eq!(db.read(&mut t, b"k"), Some(b("v1")));
        assert_eq!(db.read_latest(b"k"), None, "uncommitted writes invisible");
        db.commit(t).unwrap();
        assert_eq!(db.read_latest(b"k"), Some(b("v1")));
    }

    #[test]
    fn snapshot_reads_ignore_later_commits() {
        let db = MvccStore::new();
        let mut t0 = db.begin();
        db.write(&mut t0, b("k"), b("old"));
        db.commit(t0).unwrap();

        let mut reader = db.begin();
        let mut writer = db.begin();
        db.write(&mut writer, b("k"), b("new"));
        db.commit(writer).unwrap();

        // The reader still sees the old snapshot.
        assert_eq!(db.read(&mut reader, b"k"), Some(b("old")));
        assert_eq!(db.read_latest(b"k"), Some(b("new")));
    }

    #[test]
    fn lost_update_is_prevented() {
        let db = MvccStore::new();
        let mut init = db.begin();
        db.write(&mut init, b("counter"), b("0"));
        db.commit(init).unwrap();

        let mut t1 = db.begin();
        let mut t2 = db.begin();
        db.write(&mut t1, b("counter"), b("1"));
        db.write(&mut t2, b("counter"), b("2"));
        assert!(db.commit(t1).is_ok());
        let err = db.commit(t2).unwrap_err();
        assert!(err.is_retryable());
        assert_eq!(db.aborts(), 1);
    }

    #[test]
    fn write_skew_is_permitted_under_si() {
        // The classic SI anomaly: two txns each read the other's key and
        // write their own — both commit because write sets are disjoint.
        let db = MvccStore::new();
        let mut init = db.begin();
        db.write(&mut init, b("oncall_alice"), b("yes"));
        db.write(&mut init, b("oncall_bob"), b("yes"));
        db.commit(init).unwrap();

        let mut t1 = db.begin();
        let mut t2 = db.begin();
        assert_eq!(db.read(&mut t1, b"oncall_bob"), Some(b("yes")));
        assert_eq!(db.read(&mut t2, b"oncall_alice"), Some(b("yes")));
        db.write(&mut t1, b("oncall_alice"), b("no"));
        db.write(&mut t2, b("oncall_bob"), b("no"));
        assert!(db.commit(t1).is_ok());
        assert!(db.commit(t2).is_ok(), "SI permits write skew by design");
    }

    #[test]
    fn write_skew_is_rejected_under_serializable() {
        // Same history as above, but the second committer's read of
        // `oncall_alice` was overwritten after its snapshot: read-set
        // validation rejects it.
        let db = MvccStore::with_level(IsolationLevel::Serializable);
        let mut init = db.begin();
        db.write(&mut init, b("oncall_alice"), b("yes"));
        db.write(&mut init, b("oncall_bob"), b("yes"));
        db.commit(init).unwrap();

        let mut t1 = db.begin();
        let mut t2 = db.begin();
        assert_eq!(db.read(&mut t1, b"oncall_bob"), Some(b("yes")));
        assert_eq!(db.read(&mut t2, b"oncall_alice"), Some(b("yes")));
        db.write(&mut t1, b("oncall_alice"), b("no"));
        db.write(&mut t2, b("oncall_bob"), b("no"));
        assert!(db.commit(t1).is_ok());
        let err = db.commit(t2).unwrap_err();
        assert!(err.is_retryable(), "write skew must abort: {err}");
    }

    #[test]
    fn serializable_read_only_transactions_always_commit() {
        let db = MvccStore::with_level(IsolationLevel::Serializable);
        let mut init = db.begin();
        db.write(&mut init, b("k"), b("v"));
        db.commit(init).unwrap();
        let mut reader = db.begin();
        assert_eq!(db.read(&mut reader, b"k"), Some(b("v")));
        // A writer commits after the reader's snapshot…
        let mut w = db.begin();
        db.write(&mut w, b("unrelated"), b("x"));
        db.commit(w).unwrap();
        // …but the reader's read set is untouched, so it commits.
        assert!(db.commit(reader).is_ok());
    }

    #[test]
    fn deletes_are_versioned() {
        let db = MvccStore::new();
        let mut t0 = db.begin();
        db.write(&mut t0, b("k"), b("v"));
        db.commit(t0).unwrap();
        let mut reader = db.begin();
        let mut t1 = db.begin();
        db.delete(&mut t1, b("k"));
        db.commit(t1).unwrap();
        assert_eq!(db.read_latest(b"k"), None);
        assert_eq!(db.read(&mut reader, b"k"), Some(b("v")), "old snapshot still sees it");
    }

    #[test]
    fn explicit_abort_discards_writes() {
        let db = MvccStore::new();
        let mut t = db.begin();
        db.write(&mut t, b("k"), b("v"));
        db.abort(t);
        assert_eq!(db.read_latest(b"k"), None);
        assert_eq!(db.aborts(), 1);
    }

    #[test]
    fn gc_trims_invisible_versions() {
        let db = MvccStore::new();
        for i in 0..10 {
            let mut t = db.begin();
            db.write(&mut t, b("k"), Bytes::from(format!("v{i}")));
            db.commit(t).unwrap();
        }
        let horizon = db.oracle().current();
        let dropped = db.gc(horizon).dropped;
        assert_eq!(dropped, 9);
        assert_eq!(db.read_latest(b"k"), Some(b("v9")));
    }

    #[test]
    fn gc_reclaims_dead_tombstones() {
        let db = MvccStore::new();
        let mut t0 = db.begin();
        db.write(&mut t0, b("k"), b("v"));
        db.commit(t0).unwrap();
        let mut t1 = db.begin();
        db.delete(&mut t1, b("k"));
        db.commit(t1).unwrap();
        assert_eq!(db.key_count(), 1, "tombstone keeps the key alive pre-GC");
        let dropped = db.gc(db.oracle().current()).dropped;
        assert_eq!(dropped, 2, "the overwritten version and the dead tombstone");
        assert_eq!(db.key_count(), 0, "deleted-key garbage reclaimed");
        assert_eq!(db.read_latest(b"k"), None);
    }

    #[test]
    fn conflict_detection_is_per_key() {
        let db = MvccStore::new();
        let mut t1 = db.begin();
        let mut t2 = db.begin();
        db.write(&mut t1, b("a"), b("1"));
        db.write(&mut t2, b("b"), b("2"));
        assert!(db.commit(t1).is_ok());
        assert!(db.commit(t2).is_ok(), "disjoint write sets never conflict");
    }

    #[test]
    fn prepare_locks_block_conflicting_preparers_until_decided() {
        let db = MvccStore::new();
        let mut t1 = db.begin();
        let mut t2 = db.begin();
        db.write(&mut t1, b("k"), b("1"));
        db.write(&mut t2, b("k"), b("2"));
        let pairs = |t: &Transaction| -> Vec<(Bytes, Option<Bytes>)> {
            t.write_set().map(|(k, v)| (k.clone(), v.clone())).collect()
        };
        let (w1, w2) = (pairs(&t1), pairs(&t2));
        db.prepare(&t1, &[], &w1).unwrap();
        assert_eq!(db.lock_count(), 1);
        let err = db.prepare(&t2, &[], &w2).unwrap_err();
        assert!(err.to_string().contains("prepare-locked"), "{err}");

        // Abort path releases the lock; t2 can then prepare and commit.
        db.release_prepared(t1.id, &w1);
        assert_eq!(db.lock_count(), 0);
        db.prepare(&t2, &[], &w2).unwrap();
        let ts = db.oracle().next(SimTime::ZERO);
        db.install_prepared(t2.id, w2, ts);
        assert_eq!(db.lock_count(), 0);
        assert_eq!(db.read_latest(b"k"), Some(b("2")));
    }

    /// The satellite claim: `begin`/`commit` are `&self` and safe to
    /// drive from concurrent threads; commit timestamps come out
    /// strictly ordered and every transaction either commits or aborts.
    #[test]
    fn concurrent_begin_commit_ordering() {
        let db = std::sync::Arc::new(MvccStore::new());
        const THREADS: usize = 4;
        const PER: usize = 200;
        let results: Vec<MvResult<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|ti| {
                    let db = std::sync::Arc::clone(&db);
                    s.spawn(move || {
                        (0..PER)
                            .map(|i| {
                                let mut t = db.begin();
                                // Threads share a small hot set, so some
                                // first-committer-wins aborts must occur.
                                let key = format!("k{}", i % 8);
                                db.write(&mut t, Bytes::from(key), Bytes::from(vec![ti as u8]));
                                db.commit(t)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("no panic")).collect()
        });
        let mut commit_timestamps: Vec<u64> =
            results.iter().filter_map(|r| r.as_ref().ok().copied()).collect();
        let committed = commit_timestamps.len() as u64;
        let aborted = (results.len() as u64) - committed;
        assert_eq!(db.commits(), committed);
        assert_eq!(db.aborts(), aborted);
        commit_timestamps.sort_unstable();
        commit_timestamps.dedup();
        assert_eq!(commit_timestamps.len() as u64, committed, "commit timestamps are unique");
        assert!(committed >= 1, "something must commit");
    }

    /// `gc` on `fast` and the reference walk on `walk`, which have seen
    /// the same history: same versions dropped, same chains left, and
    /// every chain `gc` visited gave something up.
    fn gc_both(fast: &MvccStore, walk: &MvccStore, horizon: u64) -> GcPass {
        let pass = fast.gc(horizon);
        assert_eq!(pass.dropped, walk.gc_by_walk(horizon), "versions dropped at {horizon}");
        assert!(pass.visited <= pass.dropped, "a visit that dropped nothing: {pass:?}");
        assert_eq!(fast.chain_dump(), walk.chain_dump(), "chains after gc({horizon})");
        assert_eq!(fast.digest(), walk.digest());
        pass
    }

    #[test]
    fn sole_tombstone_above_the_horizon_survives_then_is_reclaimed() {
        let (fast, walk) = (MvccStore::new(), MvccStore::new());
        let mut deleted_at = 0;
        for db in [&fast, &walk] {
            let mut t = db.begin();
            db.write(&mut t, b("other"), b("v"));
            db.commit(t).unwrap();
            // Deleting a key that never existed leaves a lone tombstone.
            let mut t = db.begin();
            db.delete(&mut t, b("ghost"));
            deleted_at = db.commit(t).unwrap();
        }
        let below = gc_both(&fast, &walk, deleted_at - 1);
        assert_eq!(below, GcPass::default(), "nothing is ripe below the tombstone");
        assert_eq!(fast.key_count(), 2, "the tombstone still shadows older snapshots");
        let at = gc_both(&fast, &walk, deleted_at);
        assert_eq!(at, GcPass { visited: 1, dropped: 1 });
        assert_eq!(fast.key_count(), 1, "only the live key remains");
        assert_eq!(gc_both(&fast, &walk, u64::MAX), GcPass::default());
    }

    #[test]
    fn deleted_collected_then_recreated_key_is_tracked_afresh() {
        let (fast, walk) = (MvccStore::new(), MvccStore::new());
        let put = |value: Option<&str>| {
            for db in [&fast, &walk] {
                let mut t = db.begin();
                match value {
                    Some(v) => db.write(&mut t, b("k"), b(v)),
                    None => db.delete(&mut t, b("k")),
                }
                db.commit(t).unwrap();
            }
        };
        put(Some("v1"));
        put(None);
        assert_eq!(gc_both(&fast, &walk, u64::MAX), GcPass { visited: 1, dropped: 2 });
        assert_eq!(fast.key_count(), 0);
        // Re-created: one live version is not a candidate...
        put(Some("v2"));
        assert_eq!(gc_both(&fast, &walk, u64::MAX), GcPass::default());
        // ...until it is overwritten again.
        put(Some("v3"));
        assert_eq!(gc_both(&fast, &walk, u64::MAX), GcPass { visited: 1, dropped: 1 });
        assert_eq!(fast.read_latest(b"k"), Some(b("v3")));
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Satellite property: GC at horizon `h` never changes
        /// `read_at(_, ts)` for any `ts ≥ h`, across arbitrary committed
        /// histories with overwrites and deletes.
        #[test]
        fn gc_preserves_reads_at_or_after_the_horizon(
            ops in proptest::collection::vec((0u8..2, 0u8..6, 0u8..200), 1..60),
            horizon_frac in 0.0f64..1.0,
        ) {
            let db = MvccStore::new();
            let keys: Vec<Bytes> = (0..6).map(|i| Bytes::from(format!("key{i}"))).collect();
            let mut commit_ts = Vec::new();
            for (op, ki, val) in &ops {
                let mut t = db.begin();
                let key = keys[*ki as usize].clone();
                if *op == 0 {
                    db.write(&mut t, key, Bytes::from(vec![*val]));
                } else {
                    db.delete(&mut t, key);
                }
                commit_ts.push(db.commit(t).expect("serial commits never conflict"));
            }
            let last = *commit_ts.last().expect("at least one op");
            let h_index = ((commit_ts.len() - 1) as f64 * horizon_frac) as usize;
            let horizon = commit_ts[h_index];
            // Probe every key at every timestamp ≥ horizon (plus the
            // far future) before and after GC.
            let probe_points: Vec<u64> = commit_ts
                .iter()
                .copied()
                .filter(|ts| *ts >= horizon)
                .chain([last + 1])
                .collect();
            let probe = |db: &MvccStore| -> Vec<Option<Bytes>> {
                keys.iter()
                    .flat_map(|k| probe_points.iter().map(|ts| db.read_at(k, *ts)))
                    .collect()
            };
            let before = probe(&db);
            let versions_before = db.version_count();
            let dropped = db.gc(horizon).dropped;
            let after = probe(&db);
            prop_assert_eq!(before, after, "GC changed a visible read");
            prop_assert_eq!(db.version_count(), versions_before - dropped);
            // GC at the newest timestamp reclaims every key whose
            // visible state is "deleted".
            db.gc(last);
            let live = keys.iter().filter(|k| db.read_at(k, last).is_some()).count();
            prop_assert_eq!(db.key_count(), live, "tombstone-only chains must be dropped");
        }

        /// The reference-oracle property: over random scripts of
        /// commits, deletes, direct installs and collections at
        /// arbitrary (non-monotone, possibly future) horizons, the
        /// candidate-driven `gc` leaves exactly what the whole-store
        /// walk leaves and reports the same versions dropped.
        #[test]
        fn gc_matches_the_whole_store_walk(
            ops in proptest::collection::vec((0u8..5, 0u8..6, 0u8..200, 0.0f64..1.2), 1..80),
        ) {
            let (fast, walk) = (MvccStore::new(), MvccStore::new());
            for (op, ki, val, frac) in &ops {
                let key = Bytes::from(format!("key{ki}"));
                if *op == 4 {
                    let horizon = (fast.oracle().current() as f64 * frac) as u64;
                    gc_both(&fast, &walk, horizon);
                    continue;
                }
                for db in [&fast, &walk] {
                    let next = db.oracle().current() + 1 + u64::from(*val % 3);
                    match op {
                        0 | 1 => {
                            let mut t = db.begin();
                            if *op == 0 {
                                db.write(&mut t, key.clone(), Bytes::from(vec![*val]));
                            } else {
                                db.delete(&mut t, key.clone());
                            }
                            db.commit(t).expect("serial commits never conflict");
                        }
                        2 => db.install_version(key.clone(), Some(Bytes::from(vec![*val])), next),
                        _ => db.install_version(key.clone(), None, next),
                    }
                }
                prop_assert_eq!(fast.chain_dump(), walk.chain_dump());
            }
            gc_both(&fast, &walk, u64::MAX);
            prop_assert_eq!(fast.key_count(), walk.key_count());
            prop_assert_eq!(fast.version_count(), walk.version_count());
            prop_assert_eq!(fast.version_count(), fast.key_count(), "one live version per key");
        }
    }
}
