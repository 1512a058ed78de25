//! Cross-shard transactions over the durable engine.
//!
//! §IV-E1 calls distributed transactions essential for data that spans
//! co-space partitions (trades, shared-object mutations crossing region
//! boundaries). This module wires `mv-txn`'s MVCC through
//! [`DurableMetaverse`]: a transaction reads a consistent snapshot of
//! entity state (version chains in [`mv_txn::ShardedMvcc`], routed by
//! entity id, over the live engine for keys never written
//! transactionally), buffers writes, and commits with two-phase
//! commit riding the group-commit WAL:
//!
//! 1. **validate + lock** — every participant shard runs
//!    first-committer-wins validation over the write set *and* the read
//!    set (serializable, not just SI), then write-locks the transaction's
//!    keys;
//! 2. **prepare records** — one [`DurableOp::TxnPrepare`] per write
//!    shard is appended and the batch synced (phase-1 durability);
//! 3. **decision record** — one [`DurableOp::TxnDecision`] is appended
//!    and synced: *this sync is the commit point*;
//! 4. **apply** — versions install at the decision's oracle timestamp
//!    and the buffered ops replay into the engine, in exactly the order
//!    recovery would replay them from the log.
//!
//! A crash anywhere before step 3's sync leaves the transaction
//! *in-doubt*: recovery finds prepares with no decision and presumes
//! abort (nothing was applied, nothing will be). A crash after the
//! commit point loses nothing: recovery replays the decision's ops from
//! the prepare records. Either way no transaction is ever half-applied —
//! `tests/txn_differential.rs` sweeps every crash boundary and checks
//! byte-identical recovery.
//!
//! A key's newest version — its *head* — is the engine's own field plus
//! a commit timestamp beside it in the entity's row. Every
//! engine-accepted plain write (`DurableMetaverse::apply`, `update_attr`,
//! `apply_batch`) stamps its field at a fresh oracle timestamp, live and
//! on recovery alike, so a transactional snapshot never observes a torn
//! read from a bypassing write (the anomaly DESIGN.md §10 used to
//! document). With no snapshot live that is all it does. While one is,
//! the write first saves the head it supersedes as its key's first chain
//! version (a before-image), then appends its own, so a snapshot reads
//! what it began with and validation sees every later write. A field at
//! timestamp 0 — written only at spawn — reads through to the engine and
//! saves nothing: a snapshot older than a key's chain reads
//! absent-at-snapshot, never a newer live value.
//!
//! GC is automatic: every commit and abort collects at the oldest live
//! snapshot's begin timestamp (a long-running transaction pins the
//! horizon), or empties the chains when none is live. A pass visits only
//! the chains that hold garbage at its horizon, so ending a transaction
//! costs what the transaction wrote, whatever the size of the store.

use crate::arena::EntityRef;
use crate::durable::{DurableMetaverse, DurableOp};
use crate::entity::Attrs;
use crate::sharded::{ShardedMetaverse, WriteOp};
use mv_common::codec::{put_u64, wire_u32, SliceReader};
use mv_common::geom::Point;
use mv_common::hash::FastMap;
use mv_common::id::{EntityId, TxnId};
use mv_common::metrics::Counters;
use mv_common::time::{SimTime, TimestampOracle};
use mv_common::{MvError, MvResult};
use mv_obs::TraceCtx;
use mv_txn::{IsolationLevel, MvccKey, ShardedMvcc, Transaction};
use std::ops::RangeBounds;
use std::sync::{Mutex, MutexGuard, PoisonError};

// ---- MVCC keys ---------------------------------------------------------
//
// A version chain is keyed by the field it versions, `(entity, field)`:
// the position, or an attribute by its id in `TxnState`'s name table. A
// version holds the field's value as the engine holds it, a point or a
// number. Keys route by a hash of the entity id's bytes, as a
// transaction's prepare records do, so every key of one entity lands on
// one MVCC shard and the prepares name the shards its keys live on. The
// digest hashes each key as the bytes `[tag][entity id LE][name]` and
// each value as its floats, little-endian: the byte keys and values the
// store once held, in their order, so digests compare across versions.

/// The MVCC shard of entity `id`'s keys, of `shards`.
fn shard_of(id: EntityId, shards: usize) -> usize {
    mv_storage::sharded_kv::shard_of_key(&id.raw().to_le_bytes(), shards)
}

/// A field's MVCC key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct FieldKey {
    id: EntityId,
    field: FieldId,
}

/// Which of an entity's fields a key versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum FieldId {
    Position,
    /// An attribute, by its id in [`Names`].
    Attr(u32),
}

impl MvccKey for FieldKey {
    type Ref = FieldKey;
    fn owned(key: &FieldKey) -> FieldKey {
        *key
    }
}

/// The MVCC router: by the key's entity (see [`shard_of`]).
fn route(key: &FieldKey, shards: usize) -> usize {
    shard_of(key.id, shards)
}

/// What a version holds: its field's value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FieldValue {
    Position(Point),
    Attr(f64),
}

impl FieldValue {
    /// Append the bytes the digest hashes for this value.
    fn put(self, out: &mut Vec<u8>) {
        match self {
            FieldValue::Position(p) => {
                out.extend_from_slice(&p.x.to_le_bytes());
                out.extend_from_slice(&p.y.to_le_bytes());
            }
            FieldValue::Attr(v) => out.extend_from_slice(&v.to_le_bytes()),
        }
    }
}

/// Attribute names by id: the table a key's [`FieldId::Attr`] indexes.
/// Ids are never reused, so a key means the same field for as long as
/// the table lives.
#[derive(Debug, Default)]
struct Names {
    ids: FastMap<Box<str>, u32>,
    names: Vec<Box<str>>,
}

impl Names {
    /// `field`'s key; a new attribute name takes the next id.
    fn key(&mut self, field: Field<'_>) -> FieldKey {
        let field_id = match field {
            Field::Position(_) => FieldId::Position,
            Field::Attr(_, name) => FieldId::Attr(match self.ids.get(name) {
                Some(at) => *at,
                None => {
                    let at = wire_u32(self.names.len());
                    self.names.push(name.into());
                    self.ids.insert(name.into(), at);
                    at
                }
            }),
        };
        FieldKey { id: field.entity(), field: field_id }
    }

    /// The field `key` names.
    fn field(&self, key: FieldKey) -> Option<Field<'_>> {
        match key.field {
            FieldId::Position => Some(Field::Position(key.id)),
            FieldId::Attr(at) => Some(Field::Attr(key.id, self.names.get(at as usize)?)),
        }
    }
}

/// How an image writes one head: none (timestamp 0), or the engine's
/// field at the timestamp that follows.
const HEAD_NONE: u8 = 0;
const HEAD_AS_FIELD: u8 = 1;

/// The engine field a move or an attribute write addresses: what one
/// MVCC key versions.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Field<'a> {
    Position(EntityId),
    Attr(EntityId, &'a str),
}

impl<'a> Field<'a> {
    /// The field `op` writes, if it is a transactional leaf op.
    fn of(op: &'a DurableOp) -> Option<Self> {
        Self::written(op).map(|(field, _)| field)
    }

    /// The field `op` writes and the value it writes there.
    fn written(op: &'a DurableOp) -> Option<(Self, FieldValue)> {
        match op {
            DurableOp::Position { id, position, .. } => Some((Field::Position(*id), FieldValue::Position(*position))),
            DurableOp::Attr { id, name, value, .. } => Some((Field::Attr(*id, name), FieldValue::Attr(*value))),
            _ => None,
        }
    }

    /// The field a batched write `op` writes and the value it writes
    /// there.
    fn of_write(op: &'a WriteOp) -> (Self, FieldValue) {
        match op {
            WriteOp::Position { id, position, .. } => (Field::Position(*id), FieldValue::Position(*position)),
            WriteOp::Attr { id, name, value, .. } => (Field::Attr(*id, name), FieldValue::Attr(*value)),
        }
    }

    fn entity(self) -> EntityId {
        let (Field::Position(id) | Field::Attr(id, _)) = self;
        id
    }

    /// Append the bytes the digest hashes for this field's key:
    /// `[tag][entity id LE][name]`, tag 0 the position and 1 an attribute.
    fn put_key(self, out: &mut Vec<u8>) {
        let (tag, name) = match self {
            Field::Position(_) => (0, ""),
            Field::Attr(_, name) => (1, name),
        };
        out.push(tag);
        out.extend_from_slice(&self.entity().raw().to_le_bytes());
        out.extend_from_slice(name.as_bytes());
    }

    /// The field's value in its row `e`, as a version holds it, and its
    /// head's commit timestamp (0: none).
    fn head(self, e: EntityRef<'_>) -> Option<(FieldValue, u64)> {
        match self {
            Field::Position(_) => Some((FieldValue::Position(e.position), e.position_ts)),
            Field::Attr(_, name) => e.attrs.head(name).map(|(value, ts)| (FieldValue::Attr(value), ts)),
        }
    }

    /// The field's value in `engine` and its head's commit timestamp
    /// (0: none), when that is in `at`.
    fn version(self, engine: &ShardedMetaverse, at: impl RangeBounds<u64>) -> Option<(FieldValue, u64)> {
        self.head(engine.entity(self.entity()).ok()?).filter(|(_, ts)| at.contains(ts))
    }

    /// Entity `id`'s fields in image order: its position, then each of
    /// `attrs` in name order.
    fn all(id: EntityId, attrs: &'a Attrs) -> impl Iterator<Item = Field<'a>> {
        std::iter::once(Field::Position(id)).chain(attrs.iter().map(move |(name, _)| Field::Attr(id, name)))
    }
}

/// Transactional state owned by [`DurableMetaverse`]: the sharded MVCC
/// chains that hold versions while a snapshot is live (serializable), the
/// attribute names their keys use, and the `core.txn.*` counters; the
/// heads live in the engine's rows.
pub(crate) struct TxnState {
    pub(crate) mvcc: ShardedMvcc<FieldKey, FieldValue>,
    /// Behind a lock because a transactional read (`&self`) may meet a
    /// name first.
    names: Mutex<Names>,
    pub(crate) stats: Counters,
}

impl TxnState {
    pub(crate) fn new(shards: usize) -> Self {
        TxnState {
            mvcc: ShardedMvcc::with_router(shards.max(1), IsolationLevel::Serializable, route),
            names: Mutex::default(),
            stats: Counters::new(),
        }
    }

    /// Start over as a recovery does: no chain, snapshot or count, on
    /// as many shards. The name table stays, so a transaction begun
    /// before still names the same fields.
    pub(crate) fn reset(&mut self) {
        let names = std::mem::take(&mut self.names);
        *self = TxnState { names, ..TxnState::new(self.mvcc.shard_count()) };
    }

    /// The name table. A panic inside [`Names::key`] leaves at most a
    /// name no id points to, so a poisoned table is still a valid one.
    fn names(&self) -> MutexGuard<'_, Names> {
        self.names.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether a snapshot is live; if one is, before writes overwrite
    /// `fields` in `engine`, start each key's chain, if it has none, with
    /// the head the write supersedes. A field with no head keeps nothing.
    fn save_before_images<'a>(&self, engine: &ShardedMetaverse, fields: impl IntoIterator<Item = Field<'a>>) -> bool {
        let live = self.mvcc.live_snapshot_count() > 0;
        if live {
            let mut names = self.names();
            for field in fields {
                if let Some((value, ts)) = field.version(engine, 1..) {
                    self.mvcc.save_before_image(&names.key(field), value, ts);
                }
            }
        }
        live
    }

    /// [`Self::save_before_images`] for the one field `op` writes.
    pub(crate) fn save_before_write(&self, engine: &ShardedMetaverse, op: &DurableOp) -> bool {
        self.save_before_images(engine, Field::of(op))
    }

    /// With a snapshot `live`, append the version a plain write of
    /// `value` to `field` committed at `ts`, after
    /// [`Self::save_before_images`].
    fn install_plain(&mut self, field: Field<'_>, value: FieldValue, ts: u64) {
        let key = names_mut(&mut self.names).key(field);
        self.mvcc.install_version(&key, Some(value), ts);
    }

    /// The plain write `op`, which `engine` applied, heads its field at a
    /// fresh oracle timestamp drawn from the op's own time — live and on
    /// recovery alike, so the timestamps match. With a snapshot `live`, it
    /// also appends its version to the key's chain. Single-op writes and
    /// replay come here; a batch goes through [`Self::plain_batch`].
    pub(crate) fn plain_written(&mut self, engine: &mut ShardedMetaverse, op: &DurableOp, live: bool) {
        let Some((field, value)) = Field::written(op) else { return };
        let ts = self.mvcc.oracle().next(op.ts());
        if live {
            self.install_plain(field, value, ts);
        }
        stamp(engine, op, ts);
        self.stats.incr("plain_versions");
    }

    /// Apply the plain writes `ops` to `engine` as one batch
    /// ([`ShardedMetaverse::apply_stamped`]): the timestamps each accepted
    /// op would draw written one at a time ([`Self::plain_written`]) are
    /// drawn on the calling thread, in op order, by the oracle's own rule,
    /// and each owner shard's worker stamps them in the rows it writes.
    /// With a snapshot live, the before-images are saved before the
    /// workers run and the versions installed after, both in op order.
    pub(crate) fn plain_batch(&mut self, engine: &mut ShardedMetaverse, ops: &[WriteOp]) -> Vec<MvResult<bool>> {
        let live = self.save_before_images(engine, ops.iter().map(|op| Field::of_write(op).0));
        let oracle = self.mvcc.oracle();
        let (mut last, mut written) = (oracle.current(), 0);
        let mut installs = Vec::new();
        let results = engine.apply_stamped(ops, |op, owner| {
            if !owner.is_live(op.entity()) {
                return 0;
            }
            last = TimestampOracle::following(last, op.ts());
            written += 1;
            if live {
                installs.push((op, last));
            }
            last
        });
        oracle.advance_past(last);
        for (op, ts) in installs {
            let (field, value) = Field::of_write(op);
            self.install_plain(field, value, ts);
        }
        if written > 0 {
            self.stats.add("plain_versions", written);
        }
        results
    }

    /// Collect once a transaction ends: at the oldest live snapshot's
    /// begin timestamp, or, with none live, empty the chains, counted as
    /// a collection at the current timestamp. Returns the versions
    /// dropped.
    pub(crate) fn collect(&mut self) -> usize {
        let pass = if self.mvcc.live_snapshot_count() > 0 { self.mvcc.auto_gc() } else { self.mvcc.clear() };
        if pass.visited > 0 {
            self.stats.add("gc_chains_visited", pass.visited as u64);
            self.stats.add("gc_versions_auto", pass.dropped as u64);
        }
        pass.dropped
    }
}

/// The name table, without locking: `&mut` proves no one else holds it.
fn names_mut(names: &mut Mutex<Names>) -> &mut Names {
    names.get_mut().unwrap_or_else(PoisonError::into_inner)
}

/// Make `ts` the commit timestamp of the head of the field `op`, which
/// `engine` applied, writes: in the field's entity's row.
pub(crate) fn stamp(engine: &mut ShardedMetaverse, op: &DurableOp, ts: u64) {
    let Some(field) = Field::of(op) else { return };
    let Some((position_ts, attrs)) = engine.heads_mut(field.entity()) else { return };
    match field {
        Field::Position(_) => *position_ts = ts,
        Field::Attr(_, name) => attrs.stamp(name, ts),
    }
}

/// Every head in `engine`, as its field and `(value, commit_ts)`, in id
/// order.
fn heads(engine: &ShardedMetaverse) -> impl Iterator<Item = (Field<'_>, (FieldValue, u64))> + '_ {
    let ids = (0..engine.spawned_count() as u64).map(EntityId::new);
    let fields = ids.filter_map(|id| engine.entity(id).ok()).flat_map(|e| Field::all(e.id, e.attrs));
    fields.filter_map(|field| Some((field, field.version(engine, 1..)?)))
}

/// Write `e`'s heads into an image: its position's, then each
/// attribute's in name order.
pub(crate) fn put_heads(out: &mut Vec<u8>, e: EntityRef<'_>) {
    for ts in Field::all(e.id, e.attrs).map(|field| field.head(e).map_or(0, |(_, ts)| ts)) {
        out.push(if ts == 0 { HEAD_NONE } else { HEAD_AS_FIELD });
        if ts > 0 {
            put_u64(out, ts);
        }
    }
}

/// Read what [`put_heads`] wrote for each entity of `engine` into its
/// row, then the empty extras list. `None` on damage: an unknown tag, a
/// head at timestamp 0, any head unless `heads`, or extras.
pub(crate) fn decode_heads(engine: &mut ShardedMetaverse, r: &mut SliceReader<'_>, heads: bool) -> Option<()> {
    for id in (0..engine.spawned_count() as u64).map(EntityId::new) {
        let (position_ts, attrs) = engine.heads_mut(id)?;
        for ts in std::iter::once(position_ts).chain(attrs.heads_mut()) {
            *ts = match r.u8()? {
                HEAD_NONE => 0,
                HEAD_AS_FIELD if heads => r.u64().filter(|ts| *ts > 0)?,
                _ => return None,
            };
        }
    }
    (r.u32()? == 0).then_some(())
}

/// An open transaction against a [`DurableMetaverse`]: a snapshot
/// handle with its read set, and the buffered writes as the durable ops
/// to replay on commit. Reads go through
/// [`DurableMetaverse::txn_read_attr`]; writes buffer locally here
/// and touch nothing until [`DurableMetaverse::commit_txn`], which keys
/// them.
pub struct MetaTxn {
    pub(crate) inner: Transaction<FieldKey, FieldValue>,
    pub(crate) ops: Vec<DurableOp>,
    pub(crate) root: Option<TraceCtx>,
}

impl MetaTxn {
    /// Raw transaction id (also the id logged in 2PC records).
    pub fn id(&self) -> u64 {
        self.inner.id.raw()
    }

    /// Snapshot timestamp.
    pub fn begin_ts(&self) -> u64 {
        self.inner.begin_ts()
    }

    /// Buffer an attribute write.
    pub fn write_attr(&mut self, id: EntityId, name: &str, value: f64, now: SimTime) {
        self.ops.push(DurableOp::Attr { id, name: name.to_string(), value, ts: now });
    }

    /// Buffer a ground-truth position write.
    #[cfg(test)]
    pub(crate) fn write_position(&mut self, id: EntityId, position: Point, now: SimTime) {
        self.ops.push(DurableOp::Position { id, position, ts: now });
    }

    /// The value the newest buffered write to `field` writes.
    fn buffered(&self, field: Field<'_>) -> Option<FieldValue> {
        self.ops.iter().rev().filter_map(Field::written).find(|(written, _)| *written == field).map(|(_, value)| value)
    }
}

/// Where [`DurableMetaverse::commit_txn_crashing`] pulls the plug. Each
/// point sits on a prepare/decision boundary of the 2PC flow; the sweep
/// in `tests/txn_differential.rs` visits all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnCrashPoint {
    /// After appending the first `n` prepare records (1-based), before
    /// any sync: the whole transaction sits in the volatile WAL tail.
    AfterPrepare(usize),
    /// After the phase-1 sync: prepares durable, no decision — the
    /// canonical in-doubt state.
    AfterPrepareSync,
    /// Decision appended but unsynced: still in-doubt (the decision
    /// batch dies with the crash).
    AfterDecisionAppend,
    /// Decision synced — *past the commit point* — but nothing applied:
    /// recovery must fully apply the transaction.
    AfterDecisionSync,
}

impl TxnCrashPoint {
    /// Every boundary for a transaction spanning `write_shards` shards.
    pub fn sweep(write_shards: usize) -> Vec<TxnCrashPoint> {
        let mut points: Vec<TxnCrashPoint> =
            (1..=write_shards.max(1)).map(TxnCrashPoint::AfterPrepare).collect();
        points.extend([
            TxnCrashPoint::AfterPrepareSync,
            TxnCrashPoint::AfterDecisionAppend,
            TxnCrashPoint::AfterDecisionSync,
        ]);
        points
    }
}

impl DurableMetaverse {
    /// Begin a transaction snapshotted at the current oracle timestamp.
    pub fn txn(&mut self, now: SimTime) -> MetaTxn {
        self.txns.stats.incr("begun");
        let root = self.tracer.as_ref().and_then(|tr| tr.maybe_trace("txn.begin", now));
        MetaTxn { inner: self.txns.mvcc.begin(), ops: Vec::new(), root }
    }

    /// Read an attribute inside `txn`: buffered write, else the version
    /// in the key's chain its snapshot sees, else (a key with no chain)
    /// the engine's value, if its head is no newer than the snapshot.
    /// `None` = entity/attribute absent at the snapshot.
    pub fn txn_read_attr(&self, txn: &mut MetaTxn, id: EntityId, name: &str) -> Option<f64> {
        match self.txn_read(txn, Field::Attr(id, name))? {
            FieldValue::Attr(value) => Some(value),
            FieldValue::Position(_) => None,
        }
    }

    /// Read a ground-truth position inside `txn` (same rules as
    /// [`Self::txn_read_attr`]).
    #[cfg(test)]
    pub(crate) fn txn_read_position(&self, txn: &mut MetaTxn, id: EntityId) -> Option<Point> {
        match self.txn_read(txn, Field::Position(id))? {
            FieldValue::Position(position) => Some(position),
            FieldValue::Attr(_) => None,
        }
    }

    /// Read `field` inside `txn` (see [`Self::txn_read_attr`]), recording
    /// the read for validation.
    fn txn_read(&self, txn: &mut MetaTxn, field: Field<'_>) -> Option<FieldValue> {
        let key = self.txns.names().key(field);
        let visible = self.txns.mvcc.read_versioned(&mut txn.inner, &key);
        if let Some(value) = txn.buffered(field) {
            return Some(value);
        }
        match visible {
            Some(visible) => visible,
            None => field.version(&self.engine, ..=txn.begin_ts()).map(|(value, _)| value),
        }
    }

    /// Commit `txn` with cross-shard 2PC (see the module docs). Returns
    /// the commit timestamp. A write to an unknown or retired entity
    /// aborts the transaction with the error the plain write would
    /// return, and [`MvError::Conflict`] aborts it too — cleanly, either
    /// way: nothing logged, nothing applied, no locks left behind.
    pub fn commit_txn(&mut self, txn: MetaTxn, now: SimTime) -> MvResult<u64> {
        // `None` only happens when a crash point fires; there is none.
        self.commit_txn_crashing(txn, now, None).map(|ts| ts.unwrap_or(0))
    }

    /// [`Self::commit_txn`] with an injected crash: at `crash`, the
    /// commit stops dead and returns `Ok(None)` — the caller owns a
    /// half-written WAL and *must* [`Self::crash_and_recover`] before
    /// touching the engine again, exactly as after a process kill.
    pub fn commit_txn_crashing(
        &mut self,
        txn: MetaTxn,
        now: SimTime,
        crash: Option<TxnCrashPoint>,
    ) -> MvResult<Option<u64>> {
        let MetaTxn { mut inner, ops, root } = txn;
        let txn_id = inner.id;
        // Phase 0: every write must be one the engine accepts, checked
        // before any lock or log record — the plain path's refusal.
        let refused = ops.iter().filter_map(DurableOp::entity).find_map(|id| self.engine.live(id).err());
        if let Some(e) = refused {
            self.end_aborted(txn_id, root, now, "aborted_refused");
            return Err(e);
        }
        let crashed = move |dm: &mut Self, root: Option<TraceCtx>| {
            // The snapshot is retired even on a simulated process kill:
            // recovery rebuilds `TxnState` wholesale, but the surviving
            // in-memory registry must not pin the GC horizon on a ghost.
            dm.txns.mvcc.finish(txn_id);
            dm.txns.stats.incr("crash_interrupted");
            if let (Some(tr), Some(c)) = (&dm.tracer, root) {
                tr.abort(c.span, "lost");
            }
            Ok(None)
        };

        // Key the write set: each buffered op's field, at the value the
        // newest write to it writes.
        let names = names_mut(&mut self.txns.names);
        for (field, value) in ops.iter().filter_map(Field::written) {
            inner.write(names.key(field), value);
        }

        // Phase 1a: validate + write-lock every participant shard
        // (write shards, plus read shards for serializable validation),
        // in ascending index order so concurrent preparers cannot
        // deadlock. The key sets are routed to shards once, here.
        let parts = self.txns.mvcc.route(&inner);
        for (i, part) in parts.iter().enumerate() {
            let prep_span = match (&self.tracer, root) {
                (Some(tr), Some(c)) => Some(tr.child(c, "txn.prepare", now)),
                _ => None,
            };
            match self.txns.mvcc.prepare(&inner, part) {
                Ok(()) => {
                    if let (Some(tr), Some(s)) = (&self.tracer, prep_span) {
                        tr.close(s, now, "prepared");
                    }
                }
                Err(e) => {
                    if let (Some(tr), Some(s)) = (&self.tracer, prep_span) {
                        tr.close(s, now, "conflict");
                    }
                    self.txns.mvcc.release(txn_id, parts.get(..i).unwrap_or(&[]));
                    self.end_aborted(txn_id, root, now, "aborted_conflict");
                    return Err(e);
                }
            }
        }

        // A transaction begun before a recovery is no live snapshot of the
        // recovered store: a write since may be a head with no chain.
        let names = names_mut(&mut self.txns.names);
        let newer = |key: &FieldKey| names.field(*key).and_then(|f| f.version(&self.engine, inner.begin_ts().saturating_add(1)..)).is_some();
        if inner.write_set().map(|(k, _)| k).chain(inner.read_only_keys()).any(newer) {
            self.txns.mvcc.release(txn_id, &parts);
            self.end_aborted(txn_id, root, now, "aborted_conflict");
            return Err(MvError::Conflict("a head is newer than the snapshot".into()));
        }

        // Phase 1b: durable prepare records, one per write shard, in
        // shard order — the order recovery replays in. A single-shard
        // transaction takes the fast path: prepare and decision ride
        // *one* batch and one sync — batch recovery is all-or-nothing,
        // so "decision durable ⟹ prepare durable" still holds.
        let prepares = self.prepare_records(txn_id.raw(), ops, now);
        let write_shards = prepares.len();
        for (logged, prepare) in prepares.iter().enumerate() {
            self.log(prepare, None);
            self.txns.stats.incr("prepares_logged");
            if crash == Some(TxnCrashPoint::AfterPrepare(logged + 1)) {
                return crashed(self, root);
            }
        }
        if write_shards > 1 {
            self.wal.sync();
            self.txns.stats.incr("commit_syncs");
        }
        if crash == Some(TxnCrashPoint::AfterPrepareSync) {
            return crashed(self, root);
        }

        // Phase 2: the decision. Its sync is the commit point.
        let commit_ts = self.txns.mvcc.oracle().next(now);
        if write_shards > 0 {
            let decision = DurableOp::TxnDecision { txn: txn_id.raw(), commit: true, commit_ts, ts: now };
            self.log(&decision, None);
            self.txns.stats.incr("decisions_logged");
            if crash == Some(TxnCrashPoint::AfterDecisionAppend) {
                return crashed(self, root);
            }
            self.wal.sync();
            self.txns.stats.incr("commit_syncs");
        }
        if crash == Some(TxnCrashPoint::AfterDecisionSync) {
            return crashed(self, root);
        }

        // Apply: install versions at the decision timestamp, each after the
        // head it supersedes, replay the buffered ops into the engine in
        // prepare-record order (phase 0 checked that the engine accepts
        // each) and stamp their heads. The engine only counts the events
        // the replay makes, so none pile up until the next `commit`.
        let names = names_mut(&mut self.txns.names);
        let before = |key: &FieldKey| names.field(*key)?.version(&self.engine, 1..);
        self.txns.mvcc.install(txn_id, parts, commit_ts, before);
        for prepare in &prepares {
            let DurableOp::TxnPrepare { ops, .. } = prepare else { continue };
            for op in ops {
                let applied = self.engine.apply(op);
                debug_assert!(applied.is_ok(), "a checked write was refused: {applied:?}");
                if applied.is_ok() {
                    stamp(&mut self.engine, op, commit_ts);
                }
            }
        }
        self.txns.mvcc.finish(txn_id);
        self.txns.collect();
        self.txns.stats.incr("committed");
        match write_shards {
            0 => self.txns.stats.incr("readonly_commits"),
            1 => self.txns.stats.incr("single_shard_commits"),
            _ => self.txns.stats.incr("cross_shard_commits"),
        }
        if let (Some(tr), Some(c)) = (&self.tracer, root) {
            tr.event(c, "txn.commit", now, "ok");
            tr.close(c.span, now, "committed");
        }
        Ok(Some(commit_ts))
    }

    /// Abort an open transaction explicitly (nothing was locked or
    /// logged — begin/read/write touch no shared state).
    pub fn abort_txn(&mut self, txn: MetaTxn, now: SimTime) {
        self.end_aborted(txn.inner.id, txn.root, now, "aborted_explicit");
    }

    /// End an aborted transaction holding no locks: finish its snapshot,
    /// collect, count it under `counter` (`aborted_<why>`) and close its
    /// root span with the reason `<why>`.
    fn end_aborted(&mut self, id: TxnId, root: Option<TraceCtx>, now: SimTime, counter: &'static str) {
        self.txns.mvcc.finish(id);
        self.txns.collect();
        self.txns.stats.incr(counter);
        if let (Some(tr), Some(c)) = (&self.tracer, root) {
            tr.event(c, "txn.abort", now, counter.trim_start_matches("aborted_"));
            tr.close(c.span, now, "aborted");
        }
    }

    /// `txn`'s buffered ops as its [`DurableOp::TxnPrepare`] records:
    /// one per write shard in ascending shard order, program order kept
    /// within each. An op routes by its entity id, exactly as its MVCC
    /// key does (see [`shard_of`]).
    fn prepare_records(&self, txn: u64, mut ops: Vec<DurableOp>, now: SimTime) -> Vec<DurableOp> {
        let n = self.txns.mvcc.shard_count();
        let shard = |op: &DurableOp| op.entity().map(|id| shard_of(id, n));
        ops.retain(|op| shard(op).is_some());
        // Stable: program order stays within each shard. The last shard's
        // ops keep the buffer, so a single-shard commit copies none.
        ops.sort_by_key(shard);
        let mut records = Vec::new();
        while let Some(si) = ops.first().and_then(shard) {
            let rest = ops.split_off(ops.partition_point(|op| shard(op) == Some(si)));
            let shard_ops = std::mem::replace(&mut ops, rest);
            records.push(DurableOp::TxnPrepare { txn, shard: wire_u32(si), ops: shard_ops, ts: now });
        }
        records
    }

    /// The `core.txn.*` counters. A recovery starts them at zero, and
    /// what it counts (`plain_versions`, `recovered_commits`,
    /// `recovered_aborts`, `indoubt_aborted`) is the log after the
    /// restored image only: an orphaned prepare a later checkpoint
    /// trimmed is not counted again by the next recovery.
    pub fn txn_stats(&self) -> &Counters {
        &self.txns.stats
    }

    /// Current oracle timestamp (every committed txn so far is ≤ this).
    #[cfg(test)]
    pub(crate) fn txn_current_ts(&self) -> u64 {
        self.txns.mvcc.oracle().current()
    }

    /// Begin timestamp of the oldest open transaction, if any (the
    /// automatic GC horizon clamp).
    #[cfg(test)]
    pub(crate) fn txn_oldest_live_snapshot(&self) -> Option<u64> {
        self.txns.mvcc.oldest_live_snapshot()
    }

    /// Deterministic digest of the MVCC version chains — the physical
    /// chains, and each head with none as a one-version chain (compared
    /// across crash/recovery by the differential harness).
    pub fn txn_digest(&self) -> u64 {
        let mut names = self.txns.names();
        let heads: Vec<_> = heads(&self.engine).map(|(field, (value, ts))| (names.key(field), ts, value)).collect();
        let key_bytes = |key: &FieldKey, out: &mut Vec<u8>| names.field(*key).into_iter().for_each(|field| field.put_key(out));
        self.txns.mvcc.digest_by(heads, key_bytes, |value, out| value.put(out))
    }

    /// Prepared-but-undecided locks (0 whenever no commit is mid-flight
    /// — a nonzero value after recovery would mean a leak).
    pub fn txn_lock_count(&self) -> usize {
        self.txns.mvcc.lock_count()
    }

    /// Live MVCC version count (GC pressure metric): the chains'
    /// versions, plus one for each head with no chain (every chain ends
    /// in a head).
    pub fn txn_version_count(&self) -> usize {
        let heads = heads(&self.engine).count();
        (self.txns.mvcc.version_count() + heads).saturating_sub(self.txns.mvcc.key_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::WriteOp;
    use crate::entity::EntityKind;
    use bytes::Bytes;
    use std::collections::BTreeMap;

    // ---- the byte-keyed store, as the test oracle -------------------------
    //
    // Before keys were typed, a chain was keyed by `[tag][entity id LE][name]`
    // and held its value's floats little-endian, and the router hashed the
    // id bytes. [`Reference`] drives `mv-txn`'s byte instantiation that way.

    impl Field<'_> {
        /// The field's byte key: the bytes the digest hashes for it.
        fn key(self) -> Vec<u8> {
            let mut key = Vec::new();
            self.put_key(&mut key);
            key
        }
    }

    /// The byte router: the id bytes of the key, hashed as [`shard_of`] does.
    fn txn_route(key: &[u8], shards: usize) -> usize {
        mv_storage::sharded_kv::shard_of_key(key.get(1..9).unwrap_or(key), shards)
    }

    /// A value as the byte store holds it.
    fn value_bytes(value: FieldValue) -> Bytes {
        let mut bytes = Vec::new();
        value.put(&mut bytes);
        Bytes::from(bytes)
    }

    fn f64_value(v: f64) -> Bytes {
        value_bytes(FieldValue::Attr(v))
    }

    fn point_value(p: Point) -> Bytes {
        value_bytes(FieldValue::Position(p))
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn world(shards: usize, entities: usize) -> (DurableMetaverse, Vec<EntityId>) {
        let mut dm = DurableMetaverse::with_defaults(shards);
        let ids = (0..entities)
            .map(|i| {
                let id =
                    dm.spawn(format!("e{i}"), EntityKind::Avatar, Point::new(i as f64, 0.0), t(1));
                dm.update_attr(id, "gold", 100.0, t(1)).expect("live entity");
                id
            })
            .collect();
        dm.commit(t(1));
        (dm, ids)
    }

    #[test]
    fn trade_moves_value_atomically() {
        let (mut dm, ids) = world(4, 8);
        let mut txn = dm.txn(t(2));
        let a = dm.txn_read_attr(&mut txn, ids[0], "gold").expect("seeded");
        let b = dm.txn_read_attr(&mut txn, ids[5], "gold").expect("seeded");
        txn.write_attr(ids[0], "gold", a - 30.0, t(2));
        txn.write_attr(ids[5], "gold", b + 30.0, t(2));
        let ts = dm.commit_txn(txn, t(2)).expect("no contention");
        assert!(ts > 0);
        // Engine state reflects the trade…
        assert_eq!(dm.engine().entity(ids[0]).unwrap().attr("gold"), 70.0);
        assert_eq!(dm.engine().entity(ids[5]).unwrap().attr("gold"), 130.0);
        // …and so does a fresh transactional snapshot.
        let mut check = dm.txn(t(3));
        assert_eq!(dm.txn_read_attr(&mut check, ids[0], "gold"), Some(70.0));
        assert_eq!(dm.txn_read_attr(&mut check, ids[5], "gold"), Some(130.0));
        assert_eq!(dm.txn_lock_count(), 0);
        assert_eq!(dm.txn_stats().get("committed"), 1);
    }

    #[test]
    fn conflicting_trades_first_committer_wins() {
        let (mut dm, ids) = world(4, 4);
        let mut t1 = dm.txn(t(2));
        let mut t2 = dm.txn(t(2));
        let v1 = dm.txn_read_attr(&mut t1, ids[0], "gold").expect("seeded");
        let v2 = dm.txn_read_attr(&mut t2, ids[0], "gold").expect("seeded");
        t1.write_attr(ids[0], "gold", v1 - 10.0, t(2));
        t2.write_attr(ids[0], "gold", v2 - 90.0, t(2));
        assert!(dm.commit_txn(t1, t(2)).is_ok());
        let err = dm.commit_txn(t2, t(2)).expect_err("second writer must abort");
        assert!(err.is_retryable());
        assert_eq!(dm.engine().entity(ids[0]).unwrap().attr("gold"), 90.0, "no double spend");
        assert_eq!(dm.txn_stats().get("aborted_conflict"), 1);
        assert_eq!(dm.txn_lock_count(), 0);
    }

    #[test]
    fn long_running_txn_pins_the_auto_gc_horizon() {
        let (mut dm, ids) = world(4, 4);
        // Establish a transactional baseline version, then open a
        // long-running reader snapshotted on top of it.
        let mut init = dm.txn(t(2));
        let base = dm.txn_read_attr(&mut init, ids[0], "gold").expect("seeded");
        init.write_attr(ids[0], "gold", base, t(2));
        dm.commit_txn(init, t(2)).expect("baseline");
        let mut reader = dm.txn(t(2));
        let seen = dm.txn_read_attr(&mut reader, ids[0], "gold").expect("seeded");

        // Twenty commits rewrite the same attribute. Every commit runs
        // the automatic collector, but the reader's snapshot pins the
        // horizon — the version chain must keep growing.
        for i in 0..20u64 {
            let mut txn = dm.txn(t(3 + i));
            let cur = dm.txn_read_attr(&mut txn, ids[0], "gold").expect("seeded");
            txn.write_attr(ids[0], "gold", cur + 1.0, t(3 + i));
            dm.commit_txn(txn, t(3 + i)).expect("no contention");
        }
        assert!(
            dm.txn_version_count() >= 20,
            "pinned horizon must retain the churned chain, got {}",
            dm.txn_version_count()
        );
        assert!(dm.txn_oldest_live_snapshot().is_some());
        assert_eq!(
            dm.txn_read_attr(&mut reader, ids[0], "gold"),
            Some(seen),
            "the pinned snapshot still reads its original value"
        );

        // Retiring the reader unpins the horizon; the next commit's
        // automatic collection trims every superseded version.
        dm.abort_txn(reader, t(40));
        assert_eq!(dm.txn_oldest_live_snapshot(), None);
        let mut last = dm.txn(t(41));
        let cur = dm.txn_read_attr(&mut last, ids[0], "gold").expect("seeded");
        last.write_attr(ids[0], "gold", cur, t(41));
        dm.commit_txn(last, t(41)).expect("no contention");
        assert!(
            dm.txn_version_count() <= 1 + ids.len() * 3,
            "unpinned collector must trim the chain, got {}",
            dm.txn_version_count()
        );
        assert!(dm.txn_stats().get("gc_versions_auto") > 0);
    }

    /// A transaction writing a retired or unknown entity aborts with the
    /// refusal the plain write gets, before any lock or log record: the
    /// engine and the next snapshot keep the value from before.
    #[test]
    fn a_transaction_cannot_write_a_retired_entity() {
        let mut dm = DurableMetaverse::with_defaults(2);
        let id = dm.spawn("p", EntityKind::Product, Point::ORIGIN, t(1));
        dm.update_attr(id, "stock", 5.0, t(2)).unwrap();
        dm.apply(&DurableOp::Retire { id, ts: t(3) }, None).unwrap();
        let logged = dm.wal.len();
        let mut txn = dm.txn(t(4));
        txn.write_attr(id, "stock", 4.0, t(4));
        let refused = dm.commit_txn(txn, t(4)).unwrap_err();
        assert!(matches!(refused, MvError::IllegalState(_)), "got {refused:?}");
        assert_eq!(dm.wal.len(), logged, "nothing logged");
        assert_eq!((dm.txn_lock_count(), dm.txn_oldest_live_snapshot()), (0, None));
        assert_eq!(dm.txn_stats().get("aborted_refused"), 1);
        let mut reader = dm.txn(t(5));
        assert_eq!(dm.txn_read_attr(&mut reader, id, "stock"), Some(5.0));
        dm.abort_txn(reader, t(5));
        assert_eq!(dm.engine().entity(id).unwrap().attr("stock"), 5.0);
        assert_eq!(dm.update_attr(id, "stock", 4.0, t(6)), Err(refused));

        let unknown = EntityId::new(99);
        let mut txn = dm.txn(t(7));
        txn.write_position(unknown, Point::ORIGIN, t(7));
        let plain = dm.apply(&DurableOp::Position { id: unknown, position: Point::ORIGIN, ts: t(7) }, None);
        assert_eq!(dm.commit_txn(txn, t(7)).map(drop), plain.map(drop));
        assert_eq!(dm.txn_stats().get("aborted_refused"), 2);
        assert_eq!(dm.txn_lock_count(), 0);
    }

    #[test]
    fn txn_snapshot_never_observes_a_bypassing_plain_write() {
        let (mut dm, ids) = world(2, 2);
        // The plain seed write installed a version; snapshot on top.
        let mut reader = dm.txn(t(2));
        assert_eq!(dm.txn_read_attr(&mut reader, ids[0], "gold"), Some(100.0));

        // Plain writes land *after* the snapshot, bypassing 2PC...
        dm.update_attr(ids[0], "gold", 9_999.0, t(3)).unwrap();
        let id = ids[0];
        dm.apply(&DurableOp::Position { id, position: Point::new(777.0, 777.0), ts: t(3) }, None).unwrap();
        let batch = vec![WriteOp::Attr { id: ids[0], name: "gold".into(), value: 4_242.0, ts: t(4) }];
        assert!(dm.apply_batch(&batch).iter().all(|r| r.is_ok()));

        // ...the live engine sees them immediately...
        assert_eq!(dm.engine().entity(ids[0]).unwrap().attr("gold"), 4_242.0);
        // ...but the open snapshot still reads its own version — no tear.
        assert_eq!(dm.txn_read_attr(&mut reader, ids[0], "gold"), Some(100.0));
        // A position chain born after the snapshot reads absent-at-
        // snapshot, never the newer live value.
        assert_eq!(dm.txn_read_position(&mut reader, ids[0]), None);

        // Serializable validation sees the plain write as a conflict: a
        // stale read-modify-write on top of it must abort.
        let stale = dm.txn_read_attr(&mut reader, ids[0], "gold").unwrap();
        reader.write_attr(ids[0], "gold", stale + 1.0, t(5));
        assert!(dm.commit_txn(reader, t(5)).is_err(), "plain write must conflict");
        assert_eq!(dm.engine().entity(ids[0]).unwrap().attr("gold"), 4_242.0);

        // Recovery rebuilds the plain-write versions byte-identically
        // (sync first — unsynced tail writes die with the crash).
        dm.commit(t(6));
        let chains = dm.txn_digest();
        dm.crash_and_recover();
        assert_eq!(dm.txn_digest(), chains, "plain versions rebuilt identically");
        assert!(dm.txn_stats().get("plain_versions") > 0);
    }

    /// MVCC memory follows the keys written, not the writes: with no
    /// snapshot live, 1× and 10× the same plain writes leave one version
    /// per key, recovery rebuilds exactly those chains, and its collector
    /// finds nothing left to take. `plain_versions` is read before the
    /// crash: recovery restores the image the commit took and counts only
    /// the writes logged after it (none here).
    #[test]
    fn plain_write_versions_are_independent_of_history() {
        let versions = |rounds: u64| {
            let mut dm = DurableMetaverse::with_defaults(4);
            let ids: Vec<EntityId> = (0..16)
                .map(|i| dm.spawn(format!("e{i}"), EntityKind::Avatar, Point::ORIGIN, t(1)))
                .collect();
            for r in 0..rounds {
                let (now, position) = (t(2 + r), Point::new(1.0, r as f64));
                let batch: Vec<WriteOp> =
                    ids.iter().map(|&id| WriteOp::Position { id, position, ts: now }).collect();
                assert!(dm.apply_batch(&batch).iter().all(|r| r.is_ok()));
                for &id in &ids {
                    dm.update_attr(id, "hp", r as f64, now).expect("live entity");
                    let position = Point::new(r as f64, 2.0);
                    dm.apply(&DurableOp::Position { id, position, ts: now }, None).expect("live entity");
                }
            }
            dm.commit(t(100));
            assert_eq!(dm.txn_stats().get("plain_versions"), 3 * 16 * rounds);
            let (live, chains) = (dm.txn_version_count(), dm.txn_digest());
            dm.crash_and_recover();
            assert_eq!(dm.txn_digest(), chains, "{rounds}×: recovered chains are the live ones");
            assert_eq!(dm.txn_stats().get("gc_versions_auto"), 0, "{rounds}×");
            live
        };
        assert_eq!(versions(1), 32, "one version per position and per attribute");
        assert_eq!(versions(10), 32);
    }

    /// A snapshot open across plain writes keeps what it can read: the
    /// writes append behind it and it still reads its own value. Once it
    /// ends the collector takes the pinned versions, and later plain
    /// writes replace heads again.
    #[test]
    fn a_live_snapshot_pins_plain_versions_until_it_ends() {
        let (mut dm, ids) = world(2, 4);
        assert_eq!(dm.txn_version_count(), 4, "world() wrote one plain `gold` each");
        let mut reader = dm.txn(t(2));
        assert_eq!(dm.txn_read_attr(&mut reader, ids[0], "gold"), Some(100.0));
        for i in 0..10u64 {
            for &id in &ids {
                dm.update_attr(id, "gold", i as f64, t(3 + i)).expect("live entity");
            }
        }
        assert_eq!(dm.txn_version_count(), 4 * 11, "every write kept behind the snapshot");
        assert_eq!(dm.txn_read_attr(&mut reader, ids[0], "gold"), Some(100.0));

        dm.abort_txn(reader, t(20));
        assert_eq!(dm.txn_version_count(), 4, "the collector took every pinned version");
        for &id in &ids {
            dm.update_attr(id, "gold", 7.0, t(21)).expect("live entity");
        }
        assert_eq!(dm.txn_version_count(), 4, "nothing live: writes replace heads");
        let mut after = dm.txn(t(22));
        assert_eq!(dm.txn_read_attr(&mut after, ids[0], "gold"), Some(7.0));
    }

    /// With no snapshot live, a plain write stamps its head's timestamp
    /// and builds no chain: 1× and 10× the same writes, through all
    /// three entry points, leave `mv-txn`'s store empty while the 32
    /// heads read as versions. A live snapshot then keeps every write
    /// behind its before-image and still reads its own value; once it
    /// ends the store is empty again.
    #[test]
    fn idle_plain_writes_hold_no_chains() {
        let physical = |dm: &DurableMetaverse| (dm.txns.mvcc.key_count(), dm.txns.mvcc.version_count());
        for rounds in [1u64, 10] {
            let mut dm = DurableMetaverse::with_defaults(4);
            let ids: Vec<EntityId> = (0..16)
                .map(|i| dm.spawn(format!("e{i}"), EntityKind::Avatar, Point::ORIGIN, t(1)))
                .collect();
            let write = |dm: &mut DurableMetaverse, r: u64| {
                let (now, position) = (t(2 + r), Point::new(1.0, r as f64));
                let batch: Vec<WriteOp> =
                    ids.iter().map(|&id| WriteOp::Position { id, position, ts: now }).collect();
                assert!(dm.apply_batch(&batch).iter().all(|r| r.is_ok()));
                for &id in &ids {
                    dm.update_attr(id, "hp", r as f64, now).expect("live entity");
                    let position = Point::new(r as f64, 2.0);
                    dm.apply(&DurableOp::Position { id, position, ts: now }, None).expect("live entity");
                }
            };
            for r in 0..rounds {
                write(&mut dm, r);
            }
            assert_eq!(dm.txn_stats().get("plain_versions"), 3 * 16 * rounds);
            assert_eq!(physical(&dm), (0, 0), "{rounds}×: no chain without a snapshot");
            assert_eq!(dm.txn_version_count(), 32, "{rounds}×: one head per position and attribute");

            let mut reader = dm.txn(t(50));
            let hp = dm.txn_read_attr(&mut reader, ids[0], "hp");
            for r in rounds..rounds + 3 {
                write(&mut dm, r);
            }
            // Each position: its before-image and two writes a round; each
            // `hp`: its before-image and one write a round.
            assert_eq!(physical(&dm), (32, 16 * 7 + 16 * 4), "{rounds}×");
            assert_eq!(dm.txn_version_count(), 16 * 7 + 16 * 4);
            assert_eq!(dm.txn_read_attr(&mut reader, ids[0], "hp"), hp);
            dm.abort_txn(reader, t(60));
            assert_eq!(physical(&dm), (0, 0), "{rounds}×: the chains went with the snapshot");
            assert_eq!(dm.txn_version_count(), 32);
        }
    }

    /// Nothing reads a durable engine's co-space events, so committed
    /// transactions leave none behind, however many run between commits.
    #[test]
    fn durable_engine_holds_no_event_backlog_after_transactions() {
        let (mut dm, ids) = world(2, 8);
        let synced = dm.engine().stats().get("sync_msgs");
        for i in 0..100u64 {
            let mut txn = dm.txn(t(2 + i));
            txn.write_position(ids[i as usize % 8], Point::new(i as f64 * 10.0 + 5.0, 0.0), t(2 + i));
            dm.commit_txn(txn, t(2 + i)).expect("serial commits");
        }
        assert_eq!(dm.engine().stats().get("sync_msgs") - synced, 100, "every move synced");
        assert!(dm.engine.drain_events().is_empty());
    }

    #[test]
    fn serializable_rejects_stale_reads() {
        let (mut dm, ids) = world(2, 2);
        let mut reader = dm.txn(t(2));
        // reader snapshots a's gold, then a concurrent txn changes it.
        let seen = dm.txn_read_attr(&mut reader, ids[0], "gold").expect("seeded");
        let mut w = dm.txn(t(2));
        let cur = dm.txn_read_attr(&mut w, ids[0], "gold").expect("seeded");
        w.write_attr(ids[0], "gold", cur + 1.0, t(2));
        dm.commit_txn(w, t(2)).expect("first writer");
        // reader writes somewhere else based on the stale read: rejected.
        let mut update = dm.txn(t(2));
        // (carry the read set over — same handle keeps reading)
        update.write_attr(ids[1], "gold", seen * 2.0, t(2));
        drop(update);
        reader.write_attr(ids[1], "gold", seen * 2.0, t(2));
        let err = dm.commit_txn(reader, t(2)).expect_err("stale read must abort");
        assert!(err.is_retryable());
    }

    #[test]
    fn committed_txns_survive_crash_and_recovery() {
        let (mut dm, ids) = world(4, 6);
        let mut txn = dm.txn(t(2));
        let a = dm.txn_read_attr(&mut txn, ids[1], "gold").expect("seeded");
        txn.write_attr(ids[1], "gold", a - 5.0, t(2));
        txn.write_position(ids[2], Point::new(42.0, 7.0), t(2));
        dm.commit_txn(txn, t(2)).expect("commit");
        let engine_bytes = dm.state_encoding();
        let chains = dm.txn_digest();

        dm.crash_and_recover();
        assert_eq!(dm.state_encoding(), engine_bytes, "engine byte-identical");
        assert_eq!(dm.txn_digest(), chains, "version chains byte-identical");
        assert_eq!(dm.txn_lock_count(), 0);
        let mut check = dm.txn(t(3));
        assert_eq!(dm.txn_read_attr(&mut check, ids[1], "gold"), Some(95.0));
        assert_eq!(dm.txn_read_position(&mut check, ids[2]), Some(Point::new(42.0, 7.0)));
    }

    #[test]
    fn indoubt_transactions_presume_abort() {
        let (mut dm, ids) = world(4, 6);
        let committed = {
            let mut txn = dm.txn(t(2));
            let a = dm.txn_read_attr(&mut txn, ids[0], "gold").expect("seeded");
            txn.write_attr(ids[0], "gold", a + 1.0, t(2));
            dm.commit_txn(txn, t(2)).expect("commit");
            dm.state_encoding()
        };
        // A second txn dies after its prepares are durable but before
        // any decision: the canonical in-doubt state. Pick a write set
        // that genuinely spans two shards — a single-shard txn takes
        // the one-sync fast path and its crash would lose the tail
        // instead of leaving prepares in doubt.
        let s1 = txn_route(&Field::Attr(ids[1], "gold").key(), 4);
        let far = ids
            .iter()
            .copied()
            .find(|&id| txn_route(&Field::Attr(id, "gold").key(), 4) != s1)
            .expect("some entity routes to another shard");
        let mut doomed = dm.txn(t(3));
        let b = dm.txn_read_attr(&mut doomed, ids[1], "gold").expect("seeded");
        doomed.write_attr(ids[1], "gold", b * 0.5, t(3));
        doomed.write_attr(far, "gold", b * 2.0, t(3));
        let r = dm
            .commit_txn_crashing(doomed, t(3), Some(TxnCrashPoint::AfterPrepareSync))
            .expect("crash injection is not an error");
        assert_eq!(r, None, "the commit never finished");

        dm.crash_and_recover();
        assert_eq!(dm.state_encoding(), committed, "in-doubt txn fully absent");
        assert_eq!(dm.txn_stats().get("indoubt_aborted"), 1);
        assert_eq!(dm.txn_lock_count(), 0, "recovery leaves no locks");
        // The world keeps working afterwards.
        let mut after = dm.txn(t(4));
        assert_eq!(dm.txn_read_attr(&mut after, ids[1], "gold"), Some(100.0));
    }

    #[test]
    fn decision_synced_means_committed_even_if_apply_never_ran() {
        let (mut dm, ids) = world(4, 4);
        let mut txn = dm.txn(t(2));
        let a = dm.txn_read_attr(&mut txn, ids[0], "gold").expect("seeded");
        txn.write_attr(ids[0], "gold", a - 40.0, t(2));
        txn.write_attr(ids[3], "gold", a + 40.0, t(2));
        let r = dm
            .commit_txn_crashing(txn, t(2), Some(TxnCrashPoint::AfterDecisionSync))
            .expect("crash injection");
        assert_eq!(r, None);
        dm.crash_and_recover();
        // Past the commit point: recovery must apply everything.
        assert_eq!(dm.engine().entity(ids[0]).unwrap().attr("gold"), 60.0);
        assert_eq!(dm.engine().entity(ids[3]).unwrap().attr("gold"), 140.0);
        assert_eq!(dm.txn_stats().get("recovered_commits"), 1);
        assert_eq!(dm.txn_lock_count(), 0);
    }

    #[test]
    fn single_shard_commits_take_the_one_sync_fast_path() {
        let (mut dm, ids) = world(4, 8);
        let base = dm.txn_stats().get("commit_syncs");

        // One write → one shard → one sync.
        let mut solo = dm.txn(t(2));
        let a = dm.txn_read_attr(&mut solo, ids[0], "gold").expect("seeded");
        solo.write_attr(ids[0], "gold", a + 1.0, t(2));
        dm.commit_txn(solo, t(2)).expect("commit");
        assert_eq!(dm.txn_stats().get("commit_syncs"), base + 1, "fast path: one sync");
        assert_eq!(dm.txn_stats().get("single_shard_commits"), 1);

        // A write set spanning two shards → prepare sync + decision sync.
        let s0 = txn_route(&Field::Attr(ids[0], "gold").key(), 4);
        let far = ids
            .iter()
            .copied()
            .find(|&id| txn_route(&Field::Attr(id, "gold").key(), 4) != s0)
            .expect("some entity routes to another shard");
        let mut cross = dm.txn(t(3));
        let b = dm.txn_read_attr(&mut cross, ids[0], "gold").expect("seeded");
        cross.write_attr(ids[0], "gold", b - 5.0, t(3));
        cross.write_attr(far, "gold", b + 5.0, t(3));
        dm.commit_txn(cross, t(3)).expect("commit");
        assert_eq!(dm.txn_stats().get("commit_syncs"), base + 3, "2PC: two syncs");
        assert_eq!(dm.txn_stats().get("cross_shard_commits"), 1);

        // The fast path is still durable: everything survives recovery.
        let bytes = dm.state_encoding();
        dm.crash_and_recover();
        assert_eq!(dm.state_encoding(), bytes);
    }

    #[test]
    fn txn_spans_open_and_close_cleanly() {
        let tracer = mv_obs::SharedTracer::new();
        let (mut dm, ids) = world(2, 4);
        dm.set_tracer(tracer.clone());
        let mut txn = dm.txn(t(2));
        let a = dm.txn_read_attr(&mut txn, ids[0], "gold").expect("seeded");
        txn.write_attr(ids[0], "gold", a - 1.0, t(2));
        txn.write_attr(ids[1], "gold", a + 1.0, t(2));
        dm.commit_txn(txn, t(2)).expect("commit");
        dm.commit(t(2));
        assert_eq!(tracer.open_count(), 0, "no leaked spans");
        let recs = tracer.records();
        assert!(recs.iter().any(|r| r.name == "txn.begin" && r.status == "committed"));
        assert!(recs.iter().any(|r| r.name == "txn.prepare" && r.status == "prepared"));
        assert!(recs.iter().any(|r| r.name == "txn.commit"));

        let doomed = dm.txn(t(3));
        dm.abort_txn(doomed, t(3));
        assert_eq!(tracer.open_count(), 0);
        assert!(tracer
            .records()
            .iter()
            .any(|r| r.name == "txn.begin" && r.status == "aborted"));
    }

    #[test]
    fn txn_gc_keeps_latest_state_readable() {
        let (mut dm, ids) = world(2, 2);
        for i in 0..10u64 {
            let mut txn = dm.txn(t(2 + i));
            txn.write_attr(ids[0], "gold", i as f64, t(2 + i));
            dm.commit_txn(txn, t(2 + i)).expect("serial commits");
        }
        // With no snapshot live, the automatic collector already trimmed
        // each superseded version at commit time, and the latest state
        // stays readable.
        assert!(dm.txn_stats().get("gc_versions_auto") >= 9);
        let mut check = dm.txn(t(20));
        assert_eq!(dm.txn_read_attr(&mut check, ids[0], "gold"), Some(9.0));
    }

    /// What [`purchase_script`] counted.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct GcWork {
        visited: u64,
        dropped: u64,
        committed: u64,
    }

    /// The flash-sale shape (groups of 8 same-snapshot purchases on a
    /// few hot products, first committer wins) against a seeded pool of
    /// `pool` entities; only the first 64 are ever bought from or by.
    /// Returns the collector's counters and the versions installed.
    fn purchase_script(pool: usize, groups: u64) -> (GcWork, u64) {
        let (mut dm, ids) = world(4, pool);
        let mut init = dm.txn(t(2));
        for &id in &ids {
            init.write_attr(id, "stock", 1e9, t(2));
            init.write_attr(id, "revenue", 0.0, t(2));
        }
        dm.commit_txn(init, t(2)).expect("seed txn runs alone");
        // `world` wrote one plain `gold` version per entity.
        let mut installed = 3 * pool as u64;
        let mut lcg = 0x9E37_79B9_7F4A_7C15u64;
        let mut pick = |n: u64| {
            lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ((lcg >> 33) % n) as usize
        };
        for g in 0..groups {
            let now = t(3 + g);
            let mut group = Vec::new();
            for _ in 0..8 {
                let (product, buyer) = (ids[pick(4)], ids[8 + pick(56)]);
                let mut txn = dm.txn(now);
                let stock = dm.txn_read_attr(&mut txn, product, "stock").expect("seeded");
                let revenue = dm.txn_read_attr(&mut txn, product, "revenue").expect("seeded");
                let gold = dm.txn_read_attr(&mut txn, buyer, "gold").expect("seeded");
                txn.write_attr(product, "stock", stock - 1.0, now);
                txn.write_attr(product, "revenue", revenue + 5.0, now);
                txn.write_attr(buyer, "gold", gold - 5.0, now);
                group.push(txn);
            }
            for txn in group {
                let writes = txn.ops.len() as u64;
                if dm.commit_txn(txn, now).is_ok() {
                    installed += writes;
                }
            }
        }
        let stats = dm.txn_stats();
        let work = GcWork {
            visited: stats.get("gc_chains_visited"),
            dropped: stats.get("gc_versions_auto"),
            committed: stats.get("committed"),
        };
        (work, installed)
    }

    /// Commit cost follows the transaction, not the store: the same
    /// script collects the same versions from the same number of chain
    /// visits whether 64 or 16 384 entities' chains sit in the store —
    /// and never visits more chains than versions were installed (each
    /// visit drops at least one). Counts, no clock.
    #[test]
    fn gc_work_is_independent_of_store_size() {
        let (small, small_installed) = purchase_script(64, 1_000);
        let (large, large_installed) = purchase_script(16_384, 1_000);
        println!("pool=64:    {small:?} installed={small_installed}");
        println!("pool=16384: {large:?} installed={large_installed}");
        assert_eq!(small, large);
        assert!((1_000..8_000).contains(&small.committed), "some purchases win, some conflict");
        assert!(small.visited > 0 && small.visited <= small.dropped, "{small:?}");
        assert!(small.dropped <= small_installed && large.dropped <= large_installed);
    }

    /// The chain store as it was before heads moved into the engine,
    /// driven beside a [`DurableMetaverse`]: every accepted write installs
    /// a version (`install_version`), a plain write with no snapshot live
    /// replaces its key's head (what `gc` at its timestamp leaves after
    /// the append), and every transaction's end runs `auto_gc`.
    struct Reference {
        mvcc: ShardedMvcc<Bytes, Bytes>,
        /// Each key's newest version: what a recovery rebuilds.
        heads: BTreeMap<Vec<u8>, (u64, Bytes)>,
    }

    /// A held transaction on both sides; `ids` are the entities the
    /// reference's commit checks the engine accepts writes to.
    struct Held {
        txn: MetaTxn,
        reference: Transaction<Bytes, Bytes>,
        ids: Vec<EntityId>,
    }

    /// What a write of `x` to `field` logs, and the value its version
    /// holds.
    fn write_of(field: Field<'static>, x: f64, now: SimTime) -> (DurableOp, Bytes) {
        match field {
            Field::Position(id) => {
                let position = Point::new(x, 1.0);
                (DurableOp::Position { id, position, ts: now }, point_value(position))
            }
            Field::Attr(id, name) => (DurableOp::Attr { id, name: name.into(), value: x, ts: now }, f64_value(x)),
        }
    }

    /// `field` as `txn` reads it, as version bytes.
    fn read(dm: &DurableMetaverse, txn: &mut MetaTxn, field: Field<'_>) -> Option<Bytes> {
        match field {
            Field::Position(id) => dm.txn_read_position(txn, id).map(point_value),
            Field::Attr(id, name) => dm.txn_read_attr(txn, id, name).map(f64_value),
        }
    }

    impl Reference {
        fn new(shards: usize) -> Self {
            let mvcc = ShardedMvcc::new(shards, IsolationLevel::Serializable, txn_route);
            Reference { mvcc, heads: BTreeMap::new() }
        }

        /// A plain write `op` the engine accepted.
        fn plain(&mut self, op: &DurableOp, value: Bytes) {
            let Some(field) = Field::of(op) else { return };
            let ts = self.mvcc.oracle().next(op.ts());
            self.mvcc.install_version(&field.key(), Some(value.clone()), ts);
            if self.mvcc.live_snapshot_count() == 0 {
                self.mvcc.gc(ts);
            }
            self.heads.insert(field.key(), (ts, value));
        }

        /// A snapshot read: the chain's version, else the engine's value.
        fn read(&self, dm: &DurableMetaverse, txn: &mut Transaction<Bytes, Bytes>, field: Field<'_>) -> Option<Bytes> {
            match self.mvcc.read_versioned(txn, &field.key()) {
                Some(visible) => visible,
                None => field.version(&dm.engine, ..).map(|(value, _)| value_bytes(value)),
            }
        }

        /// Commit `held` as `commit_txn` did: refuse a write the engine
        /// refuses, validate, install, collect. `Err(retryable)`.
        fn commit(&mut self, dm: &DurableMetaverse, held: &Held, now: SimTime) -> Result<u64, bool> {
            let txn = &held.reference;
            let outcome = if held.ids.iter().any(|id| dm.engine.live(*id).is_err()) {
                Err(false)
            } else {
                let parts = self.mvcc.route(txn);
                match parts.iter().position(|part| self.mvcc.prepare(txn, part).is_err()) {
                    Some(failed) => {
                        self.mvcc.release(txn.id, &parts[..failed]);
                        Err(true)
                    }
                    None => {
                        let ts = self.mvcc.oracle().next(now);
                        for (key, value) in txn.write_set() {
                            self.heads.insert(key.to_vec(), (ts, value.clone().expect("no deletes")));
                        }
                        self.mvcc.install(txn.id, parts, ts, |_| None);
                        Ok(ts)
                    }
                }
            };
            self.end(txn.id);
            outcome
        }

        fn end(&mut self, id: TxnId) {
            self.mvcc.finish(id);
            self.mvcc.auto_gc();
        }

        /// After `dm` recovered: every snapshot gone, each key's newest
        /// version left. The oracle is the recovered one, which the log
        /// and the image set as before.
        fn recovered(&mut self, dm: &DurableMetaverse) {
            let fresh = Reference::new(self.mvcc.shard_count());
            fresh.mvcc.oracle().advance_past(dm.txn_current_ts());
            for (key, (ts, value)) in &self.heads {
                fresh.mvcc.install_version(key, Some(value.clone()), *ts);
            }
            self.mvcc = fresh.mvcc;
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The head columns against the chain store they replaced: a
        /// script of transaction begins, reads, writes, commits and
        /// aborts, plain `apply`, `update_attr` and `apply_batch` writes
        /// (some to retired or unknown entities), retires, checkpointing
        /// commits and crashes. After every step every open snapshot
        /// reads every field as the reference does, every outcome and
        /// read matches, and so do `txn_digest`, `txn_version_count` and
        /// the oracle. With no transaction open, `mv-txn` holds no chain.
        #[test]
        fn heads_read_as_the_chain_store(
            steps in proptest::collection::vec((0u8..10, 0u8..8, 0u8..8, 0u8..64), 1..60),
        ) {
            let mut dm = DurableMetaverse::with_defaults(2);
            let mut reference = Reference::new(2);
            let mut ids: Vec<EntityId> = (0..6)
                .map(|i| dm.spawn(format!("e{i}"), EntityKind::Avatar, Point::new(i as f64, 0.0), t(1)))
                .collect();
            ids.push(EntityId::new(99));
            let field = |e: u8, f: u8| {
                let id = ids[usize::from(e) % ids.len()];
                match f % 3 {
                    0 => Field::Position(id),
                    1 => Field::Attr(id, "gold"),
                    _ => Field::Attr(id, "hp"),
                }
            };
            let mut held: Vec<Held> = Vec::new();
            for (step, &(kind, a, b, x)) in steps.iter().enumerate() {
                let now = t(2 + step as u64);
                let pick = usize::from(a) % held.len().max(1);
                match kind {
                    0 if held.len() < 4 => {
                        let txn = dm.txn(now);
                        held.push(Held { txn, reference: reference.mvcc.begin(), ids: Vec::new() });
                    }
                    1 if !held.is_empty() => {
                        let h = &mut held[pick];
                        let got = read(&dm, &mut h.txn, field(b, x));
                        let want = reference.read(&dm, &mut h.reference, field(b, x));
                        proptest::prop_assert_eq!(got, want, "read at step {}", step);
                    }
                    2 if !held.is_empty() => {
                        let h = &mut held[pick];
                        let (op, value) = write_of(field(b, x), f64::from(x), now);
                        match &op {
                            DurableOp::Position { id, position, .. } => h.txn.write_position(*id, *position, now),
                            DurableOp::Attr { id, name, value, .. } => h.txn.write_attr(*id, name, *value, now),
                            _ => unreachable!("a leaf op"),
                        }
                        h.reference.write(field(b, x).key(), value);
                        h.ids.extend(op.entity());
                    }
                    3 if !held.is_empty() => {
                        let h = held.remove(pick);
                        let want = reference.commit(&dm, &h, now);
                        let got = dm.commit_txn(h.txn, now).map_err(|e| e.is_retryable());
                        proptest::prop_assert_eq!(got, want, "commit at step {}", step);
                    }
                    4 if !held.is_empty() => {
                        let h = held.remove(pick);
                        reference.end(h.reference.id);
                        dm.abort_txn(h.txn, now);
                    }
                    5 => {
                        let (op, value) = write_of(field(b, a), f64::from(x), now);
                        let accepted = match &op {
                            DurableOp::Attr { id, name, value, .. } if x % 2 == 1 => {
                                dm.update_attr(*id, name, *value, now).is_ok()
                            }
                            _ => dm.apply(&op, None).is_ok(),
                        };
                        if accepted {
                            reference.plain(&op, value);
                        }
                    }
                    6 => {
                        let writes: Vec<(DurableOp, Bytes)> =
                            (0..3u8).map(|i| write_of(field(b + i, a + i), f64::from(x + i), now)).collect();
                        let batch: Vec<WriteOp> = writes
                            .iter()
                            .map(|(op, _)| match op.clone() {
                                DurableOp::Position { id, position, ts } => WriteOp::Position { id, position, ts },
                                DurableOp::Attr { id, name, value, ts } => WriteOp::Attr { id, name, value, ts },
                                _ => unreachable!("a leaf op"),
                            })
                            .collect();
                        for ((op, value), r) in writes.into_iter().zip(dm.apply_batch(&batch)) {
                            if r.is_ok() {
                                reference.plain(&op, value);
                            }
                        }
                    }
                    7 if x % 4 == 0 => {
                        let _ = dm.apply(&DurableOp::Retire { id: field(b, 0).entity(), ts: now }, None);
                    }
                    8 => {
                        dm.commit(now);
                    }
                    // Held transactions outlive the crash: no snapshot
                    // of the recovered store, they validate against it.
                    9 => {
                        dm.commit(now);
                        dm.crash_and_recover();
                        reference.recovered(&dm);
                    }
                    _ => {}
                }
                for h in &held {
                    let (id, begin) = (h.txn.inner.id, h.txn.begin_ts());
                    for e in 0..7 {
                        for f in 0..3 {
                            let mut probe = MetaTxn { inner: Transaction::with_snapshot(id, begin), ops: Vec::new(), root: None };
                            let mut reference_probe = Transaction::with_snapshot(h.reference.id, begin);
                            proptest::prop_assert_eq!(
                                read(&dm, &mut probe, field(e, f)),
                                reference.read(&dm, &mut reference_probe, field(e, f)),
                                "snapshot {} reads entity {} field {} after step {}", begin, e, f, step
                            );
                        }
                    }
                }
                proptest::prop_assert_eq!(dm.txn_digest(), reference.mvcc.digest([]), "after step {}", step);
                proptest::prop_assert_eq!(dm.txn_version_count(), reference.mvcc.version_count());
                proptest::prop_assert_eq!(dm.txn_current_ts(), reference.mvcc.oracle().current());
                if held.is_empty() {
                    proptest::prop_assert_eq!(dm.txns.mvcc.key_count(), 0, "a chain with no snapshot open");
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Typed keys against the byte keys they replaced. Groups of
        /// transactions begin on one snapshot, read and write positions
        /// and attributes of a few entities (so they conflict), and commit
        /// in turn, first committer winning; some abort explicitly, and
        /// plain writes land while the group's snapshot is live. The typed
        /// store and the byte-keyed [`Reference`] give the same reads and
        /// commit outcomes, and after every step the same `txn_digest`,
        /// `txn_version_count` and oracle.
        #[test]
        fn typed_keys_read_and_commit_as_byte_keys(
            groups in proptest::collection::vec(
                (1usize..6, proptest::collection::vec((0u8..4, 0u8..16, 0u8..16, 0u8..64), 0..16)),
                1..10,
            ),
        ) {
            let mut dm = DurableMetaverse::with_defaults(4);
            let mut reference = Reference::new(4);
            let ids: Vec<EntityId> = (0..8)
                .map(|i| dm.spawn(format!("e{i}"), EntityKind::Product, Point::new(i as f64, 0.0), t(1)))
                .collect();
            let field = |e: u8, f: u8| {
                let id = ids[usize::from(e) % ids.len()];
                match f % 4 {
                    0 => Field::Position(id),
                    1 => Field::Attr(id, "gold"),
                    2 => Field::Attr(id, "stock"),
                    _ => Field::Attr(id, "hp"),
                }
            };
            let same = |dm: &DurableMetaverse, reference: &Reference| {
                (dm.txn_digest(), dm.txn_version_count(), dm.txn_current_ts())
                    == (reference.mvcc.digest([]), reference.mvcc.version_count(), reference.mvcc.oracle().current())
            };
            for (g, (size, steps)) in groups.iter().enumerate() {
                let now = t(2 + g as u64);
                let mut held: Vec<Held> = (0..*size)
                    .map(|_| Held { txn: dm.txn(now), reference: reference.mvcc.begin(), ids: Vec::new() })
                    .collect();
                for (step, &(kind, a, b, x)) in steps.iter().enumerate() {
                    let pick = usize::from(a) % held.len().max(1);
                    match kind {
                        0 if !held.is_empty() => {
                            let h = &mut held[pick];
                            let got = read(&dm, &mut h.txn, field(b, x));
                            let want = reference.read(&dm, &mut h.reference, field(b, x));
                            proptest::prop_assert_eq!(got, want, "group {} step {}", g, step);
                        }
                        1 if !held.is_empty() => {
                            let h = &mut held[pick];
                            let (op, value) = write_of(field(b, x), f64::from(x), now);
                            match &op {
                                DurableOp::Position { id, position, .. } => h.txn.write_position(*id, *position, now),
                                DurableOp::Attr { id, name, value, .. } => h.txn.write_attr(*id, name, *value, now),
                                _ => unreachable!("a leaf op"),
                            }
                            h.reference.write(field(b, x).key(), value);
                            h.ids.extend(op.entity());
                        }
                        2 if !held.is_empty() => {
                            let h = held.remove(pick);
                            reference.end(h.reference.id);
                            dm.abort_txn(h.txn, now);
                        }
                        3 => {
                            let (op, value) = write_of(field(b, a), f64::from(x), now);
                            let accepted = match &op {
                                DurableOp::Attr { id, name, value, .. } => dm.update_attr(*id, name, *value, now).is_ok(),
                                _ => dm.apply(&op, None).is_ok(),
                            };
                            proptest::prop_assert!(accepted, "every entity is live");
                            reference.plain(&op, value);
                        }
                        _ => {}
                    }
                    proptest::prop_assert!(same(&dm, &reference), "group {} step {}", g, step);
                }
                for (i, h) in held.into_iter().enumerate() {
                    let want = reference.commit(&dm, &h, now);
                    let got = dm.commit_txn(h.txn, now).map_err(|e| e.is_retryable());
                    proptest::prop_assert_eq!(got, want, "group {} commit {}", g, i);
                    proptest::prop_assert!(same(&dm, &reference), "group {} commit {}", g, i);
                }
                proptest::prop_assert_eq!(dm.txns.mvcc.key_count(), 0, "a chain with no snapshot open");
                if g % 3 == 2 {
                    dm.commit(now);
                }
            }
        }
    }
}
