//! `DurableMetaverse` — the sharded engine wired to durable storage.
//!
//! E1a/E1d proved the *in-memory* sharded engine ingests millions of
//! updates per second; §IV-F asks what persists that deluge. This module
//! closes the gap: every mutation is encoded as a [`DurableOp`] and
//! appended to a group-commit WAL (`mv_storage::GroupCommitWal`)
//! *before* it is applied to the [`ShardedMetaverse`]; `commit` seals
//! the batch. The write path is therefore log-then-apply with a
//! per-batch (not per-record) sync cost — the durable ingest fast path
//! E17 measures.
//!
//! **The log is the store.** A commit also seals a verified checkpoint
//! image of the engine and its MVCC heads as a WAL batch of its own, and
//! trims the log behind it, once the log since the newest image is as
//! large as that image: memory and recovery follow live state.
//!
//! **Recovery is the newest image plus replay.**
//! [`DurableMetaverse::crash_and_recover`] discards all volatile state,
//! recovers the WAL (truncate at the first corrupt *batch*, lose the
//! unsynced tail wholesale), restores the newest intact image and replays
//! the ops after it. The engine is deterministic, so the recovered state
//! is *byte-identical* to the pre-crash engine at the last durable point
//! ([`DurableMetaverse::state_encoding`]; `tests/fault_recovery.rs`
//! checks it against a replay of the whole log).

use crate::arena::EntityRef;
use crate::engine::{not_a_write, Applied};
use crate::entity::{Entity, EntityKind};
use crate::sharded::{place, ShardedMetaverse, WriteOp};
use crate::txn::{decode_heads, put_heads, stamp, TxnState};
use mv_common::codec::{put_chunk, put_chunk_with, put_f64, put_u32, put_u64, wire_u32, SliceReader};
use mv_common::geom::{Aabb, Point};
use mv_common::hash::{fx_hash_one, FxHasher};
use mv_common::id::EntityId;
use mv_common::time::SimTime;
use mv_common::{MvResult, Space};
use mv_obs::{SharedTracer, TraceCtx};
use mv_storage::kv::KvConfig;
use mv_storage::wal::{RecoveryReport, WalRecord, WalRecordRef};
use mv_storage::{GroupCommitPolicy, GroupCommitWal, ShardedKv};
use std::hash::Hasher as _;

/// One logged engine mutation — the WAL's unit of replay. Ops carry
/// everything needed to re-execute them; entity ids are *not* logged on
/// spawn because the engine's next id is deterministic (the number of
/// entities held: dense ids in spawn order), so replay re-derives them.
#[derive(Debug, Clone, PartialEq)]
pub enum DurableOp {
    /// Register an entity (id assigned deterministically at apply time).
    Spawn {
        /// Entity name.
        name: String,
        /// Entity kind.
        kind: EntityKind,
        /// Initial ground-truth position.
        position: Point,
        /// When.
        ts: SimTime,
    },
    /// Ground-truth move.
    Position {
        /// Entity to move.
        id: EntityId,
        /// New position.
        position: Point,
        /// When.
        ts: SimTime,
    },
    /// Attribute write.
    Attr {
        /// Entity to update.
        id: EntityId,
        /// Attribute name.
        name: String,
        /// New value.
        value: f64,
        /// When.
        ts: SimTime,
    },
    /// Retire an entity.
    Retire {
        /// Entity to retire.
        id: EntityId,
        /// When.
        ts: SimTime,
    },
    /// An area effect (air raid, flash sale…) — logged as one op and
    /// re-executed on replay (its fan-out is a deterministic function of
    /// engine state).
    AreaEffect {
        /// Space the effect occurs in.
        space: Space,
        /// Effect tag.
        effect: String,
        /// Affected region.
        region: Aabb,
        /// Command relayed to affected twins.
        action: String,
        /// Whether affected entities retire.
        retire: bool,
        /// When.
        ts: SimTime,
    },
    /// 2PC phase 1: the slice of transaction `txn` bound for one
    /// participant shard, made durable *before* any decision. Never
    /// applied on its own — recovery buffers it until a decision record
    /// resolves it (no decision = in-doubt = presumed abort). Nested ops
    /// are restricted to the transactional leaf set
    /// ([`DurableOp::Position`] / [`DurableOp::Attr`]); anything else is
    /// structural damage and the record refuses to decode.
    TxnPrepare {
        /// Raw transaction id.
        txn: u64,
        /// Participant shard index (MVCC routing).
        shard: u32,
        /// The shard's ops, in program order.
        ops: Vec<DurableOp>,
        /// When.
        ts: SimTime,
    },
    /// 2PC phase 2: the coordinator's decision. Its durability is the
    /// commit point — the log's prefix property guarantees every prepare
    /// of `txn` is durable below it.
    TxnDecision {
        /// Raw transaction id.
        txn: u64,
        /// Commit (`true`) or abort (`false`).
        commit: bool,
        /// Oracle timestamp the versions install at.
        commit_ts: u64,
        /// When.
        ts: SimTime,
    },
}

impl DurableOp {
    /// The op's timestamp (drives the WAL's deadline trigger).
    pub fn ts(&self) -> SimTime {
        match self {
            DurableOp::Spawn { ts, .. }
            | DurableOp::Position { ts, .. }
            | DurableOp::Attr { ts, .. }
            | DurableOp::Retire { ts, .. }
            | DurableOp::AreaEffect { ts, .. }
            | DurableOp::TxnPrepare { ts, .. }
            | DurableOp::TxnDecision { ts, .. } => *ts,
        }
    }

    /// Whether this op may appear inside a [`DurableOp::TxnPrepare`].
    pub(crate) fn is_txn_leaf(&self) -> bool {
        matches!(self, DurableOp::Position { .. } | DurableOp::Attr { .. })
    }

    /// The one entity a move, attribute write or retire addresses
    /// (decides its owner shard); `None` for every other op.
    pub fn entity(&self) -> Option<EntityId> {
        match self {
            DurableOp::Position { id, .. } | DurableOp::Attr { id, .. } => Some(*id),
            DurableOp::Retire { id, .. } => Some(*id),
            _ => None,
        }
    }

    /// Lift a batched engine write into its logged form.
    pub fn from_write(op: &WriteOp) -> DurableOp {
        match op {
            WriteOp::Position { id, position, ts } => {
                DurableOp::Position { id: *id, position: *position, ts: *ts }
            }
            WriteOp::Attr { id, name, value, ts } => {
                DurableOp::Attr { id: *id, name: name.clone(), value: *value, ts: *ts }
            }
        }
    }
}

// ---- canonical byte encoding -------------------------------------------
//
// Hand-rolled little-endian framing (tag byte + fields, strings as
// `[len u32][bytes]`) so the WAL image and the state encoding are stable
// across compiler/serde versions — "byte-identical" must mean bytes.
// Tags 1–7 are ops; tag 8 is a checkpoint image, which is a whole state
// and never decodes as an op.

/// First byte of a checkpoint image.
const CHECKPOINT_TAG: u8 = 8;
/// Image layout version (the byte after the tag).
const IMAGE_VERSION: u8 = 1;
/// Tag, version, then the fx checksum of everything after it.
const IMAGE_HEADER: usize = 10;

/// The Fx checksum of an image's body (length included).
pub(crate) fn image_checksum(body: &[u8]) -> u64 {
    fx_hash_one(&body)
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_chunk(out, s.as_bytes());
}

fn put_point(out: &mut Vec<u8>, p: Point) {
    put_f64(out, p.x);
    put_f64(out, p.y);
}

fn kind_tag(kind: EntityKind) -> u8 {
    match kind {
        EntityKind::Person => 0,
        EntityKind::Vehicle => 1,
        EntityKind::Sensor => 2,
        EntityKind::Product => 3,
        EntityKind::Avatar => 4,
        EntityKind::SceneObject => 5,
    }
}

fn kind_from_tag(tag: u8) -> Option<EntityKind> {
    Some(match tag {
        0 => EntityKind::Person,
        1 => EntityKind::Vehicle,
        2 => EntityKind::Sensor,
        3 => EntityKind::Product,
        4 => EntityKind::Avatar,
        5 => EntityKind::SceneObject,
        _ => return None,
    })
}

fn space_tag(space: Space) -> u8 {
    match space {
        Space::Physical => 0,
        Space::Virtual => 1,
    }
}

fn space_from_tag(tag: u8) -> Option<Space> {
    match tag {
        0 => Some(Space::Physical),
        1 => Some(Space::Virtual),
        _ => None,
    }
}

/// Read a length-prefixed UTF-8 string. Validation happens in place on
/// the borrowed slice ([`SliceReader`] is zero-copy), so damaged input
/// is rejected before any allocation; the single copy is the `String`
/// the kept op actually owns.
fn read_str(r: &mut SliceReader<'_>) -> Option<String> {
    let bytes = r.chunk()?;
    std::str::from_utf8(bytes).ok().map(str::to_owned)
}

/// Read two little-endian `f64`s as a point.
fn read_point(r: &mut SliceReader<'_>) -> Option<Point> {
    Some(Point::new(r.f64()?, r.f64()?))
}

/// A flag is one byte, 0 or 1: any other byte is damage, not "probably
/// true", so the decoder refuses it.
fn read_bool(r: &mut SliceReader<'_>) -> Option<bool> {
    match r.u8()? {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

impl DurableOp {
    /// Encode into the canonical byte form (a WAL record value).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Append the canonical byte form to `out` — what [`Self::encode`]
    /// returns, written in place (a logged op goes straight into its
    /// group-commit batch).
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            DurableOp::Spawn { name, kind, position, ts } => {
                out.push(1);
                put_str(out, name);
                out.push(kind_tag(*kind));
                put_point(out, *position);
                put_u64(out, ts.as_micros());
            }
            DurableOp::Position { id, position, ts } => {
                out.push(2);
                put_u64(out, id.raw());
                put_point(out, *position);
                put_u64(out, ts.as_micros());
            }
            DurableOp::Attr { id, name, value, ts } => {
                out.push(3);
                put_u64(out, id.raw());
                put_str(out, name);
                put_f64(out, *value);
                put_u64(out, ts.as_micros());
            }
            DurableOp::Retire { id, ts } => {
                out.push(4);
                put_u64(out, id.raw());
                put_u64(out, ts.as_micros());
            }
            DurableOp::AreaEffect { space, effect, region, action, retire, ts } => {
                out.push(5);
                out.push(space_tag(*space));
                put_str(out, effect);
                put_point(out, region.lo);
                put_point(out, region.hi);
                put_str(out, action);
                out.push(u8::from(*retire));
                put_u64(out, ts.as_micros());
            }
            DurableOp::TxnPrepare { txn, shard, ops, ts } => {
                out.push(6);
                put_u64(out, *txn);
                put_u32(out, *shard);
                put_u32(out, wire_u32(ops.len()));
                for op in ops {
                    put_chunk_with(out, |out| op.encode_into(out));
                }
                put_u64(out, ts.as_micros());
            }
            DurableOp::TxnDecision { txn, commit, commit_ts, ts } => {
                out.push(7);
                put_u64(out, *txn);
                out.push(u8::from(*commit));
                put_u64(out, *commit_ts);
                put_u64(out, ts.as_micros());
            }
        }
    }

    /// Decode the canonical byte form; `None` on any structural damage.
    /// The walk is zero-copy (a [`SliceReader`] over the WAL value);
    /// only fields the kept op owns — the strings — are copied out.
    pub fn decode(bytes: &[u8]) -> Option<DurableOp> {
        let mut r = SliceReader::new(bytes);
        let op = match r.u8()? {
            1 => DurableOp::Spawn {
                name: read_str(&mut r)?,
                kind: kind_from_tag(r.u8()?)?,
                position: read_point(&mut r)?,
                ts: SimTime(r.u64()?),
            },
            2 => DurableOp::Position {
                id: EntityId::new(r.u64()?),
                position: read_point(&mut r)?,
                ts: SimTime(r.u64()?),
            },
            3 => DurableOp::Attr {
                id: EntityId::new(r.u64()?),
                name: read_str(&mut r)?,
                value: r.f64()?,
                ts: SimTime(r.u64()?),
            },
            4 => DurableOp::Retire { id: EntityId::new(r.u64()?), ts: SimTime(r.u64()?) },
            5 => DurableOp::AreaEffect {
                space: space_from_tag(r.u8()?)?,
                effect: read_str(&mut r)?,
                // The corners as written: a live apply uses the region
                // exactly as built, so replay must too.
                region: Aabb { lo: read_point(&mut r)?, hi: read_point(&mut r)? },
                action: read_str(&mut r)?,
                retire: read_bool(&mut r)?,
                ts: SimTime(r.u64()?),
            },
            6 => {
                let txn = r.u64()?;
                let shard = r.u32()?;
                let count = r.u32()?;
                // No `with_capacity(count)`: a hostile count field must
                // not reserve memory it can't back with bytes.
                let mut ops = Vec::new();
                for _ in 0..count {
                    let len = r.u32()? as usize;
                    let nested = DurableOp::decode(r.take(len)?)?;
                    if !nested.is_txn_leaf() {
                        return None;
                    }
                    ops.push(nested);
                }
                DurableOp::TxnPrepare { txn, shard, ops, ts: SimTime(r.u64()?) }
            }
            7 => DurableOp::TxnDecision {
                txn: r.u64()?,
                commit: read_bool(&mut r)?,
                commit_ts: r.u64()?,
                ts: SimTime(r.u64()?),
            },
            _ => return None,
        };
        r.done().then_some(op)
    }
}

/// Canonical byte encoding of one entity (a section of
/// [`DurableMetaverse::state_encoding`]).
fn encode_entity(out: &mut Vec<u8>, e: EntityRef<'_>) {
    put_u64(out, e.id.raw());
    put_str(out, e.name);
    out.push(kind_tag(e.kind));
    put_point(out, e.position);
    put_point(out, e.twin_position);
    put_u32(out, wire_u32(e.attrs.iter().len()));
    for (name, value) in e.attrs.iter() {
        put_str(out, name);
        put_f64(out, *value);
    }
    out.push(u8::from(e.retired));
}

/// Inverse of [`encode_entity`].
fn decode_entity(r: &mut SliceReader<'_>) -> Option<Entity> {
    let mut e = Entity::new(
        EntityId::new(r.u64()?),
        read_str(r)?,
        kind_from_tag(r.u8()?)?,
        read_point(r)?,
    );
    e.twin_position = read_point(r)?;
    // A repeated or unsorted name is damage (see `Attrs::push`).
    for _ in 0..r.u32()? {
        e.attrs.push(read_str(r)?.into(), r.f64()?)?;
    }
    e.retired = read_bool(r)?;
    Some(e)
}

/// One shard's entities, encoded by one worker in slot order (ascending
/// id order): their state sections, their heads when an image asks for
/// them, and where each row's bytes end in both.
#[derive(Default)]
struct ShardSection {
    state: Vec<u8>,
    heads: Vec<u8>,
    rows: Vec<(usize, usize)>,
}

/// Encode every shard's entities on the shard workers
/// ([`ShardedMetaverse::map_shards`]), row `r` of section `s` being the
/// entity [`place`] puts at slot `r` of shard `s`, each followed in its
/// shard's heads by what `put_heads` writes for it, reserving `hint`
/// bytes for each shard's state and heads.
fn encode_sections(engine: &ShardedMetaverse, hint: usize, put_heads: impl Fn(&mut Vec<u8>, EntityRef<'_>) + Sync) -> Vec<ShardSection> {
    engine.map_shards(|shard| {
        let mut section = ShardSection {
            state: Vec::with_capacity(hint),
            heads: Vec::with_capacity(hint),
            rows: Vec::with_capacity(shard.row_count()),
        };
        for e in shard.entities_by_id() {
            encode_entity(&mut section.state, e);
            put_heads(&mut section.heads, e);
            section.rows.push((section.state.len(), section.heads.len()));
        }
        section
    })
}

/// The encoded bytes of the entities with ids `0..count` in `sections`
/// (one per shard, as [`encode_sections`] returns them), in id order:
/// each one's state section and its heads, entity `k` being the row
/// [`place`] gives it. An id no section holds yields nothing.
fn rows_in_id_order(count: usize, sections: &[ShardSection]) -> impl Iterator<Item = (&[u8], &[u8])> {
    (0..count as u64).map(EntityId::new).filter_map(move |id| {
        let (shard, row) = place(id, sections.len());
        let section = sections.get(shard)?;
        let &(state_start, heads_start) = row.checked_sub(1).map_or(Some(&(0, 0)), |prev| section.rows.get(prev))?;
        let &(state_end, heads_end) = section.rows.get(row)?;
        Some((section.state.get(state_start..state_end)?, section.heads.get(heads_start..heads_end)?))
    })
}

/// The state encoding of `engine`, whose encoded rows `sections` hold,
/// appended to `out`.
fn put_state(out: &mut Vec<u8>, engine: &ShardedMetaverse, sections: &[ShardSection]) {
    let count = engine.spawned_count();
    out.push(1); // version
    put_u64(out, engine.now().as_micros());
    put_u64(out, engine.live_count() as u64);
    put_u64(out, count as u64);
    for (state, _) in rows_in_id_order(count, sections) {
        out.extend_from_slice(state);
    }
    put_counters(out, engine);
}

/// [`DurableMetaverse::state_encoding`] of `engine`.
pub(crate) fn state_encoding(engine: &ShardedMetaverse) -> Vec<u8> {
    let sections = encode_sections(engine, 0, |_, _| {});
    let mut out = Vec::new();
    put_state(&mut out, engine, &sections);
    out
}

/// Hash of [`state_encoding`] (cheap equality witness).
pub(crate) fn state_digest(engine: &ShardedMetaverse) -> u64 {
    let mut h = FxHasher::default();
    h.write(&state_encoding(engine));
    h.finish()
}

/// The checkpoint image of `engine`: tag 8, a version, the fx checksum
/// of the rest, [`state_encoding`], then the MVCC state — the oracle's
/// timestamp `oracle`, the next event id, each field's head timestamp
/// from its row (see [`put_heads`]) and an empty extras list. A durable
/// engine's image is the MVCC state a replay of the whole log would
/// leave; a replica's raft snapshot has none: oracle 0 and no head. The
/// shard workers encode their own entities
/// ([`ShardedMetaverse::map_shards`]); the calling thread merges their
/// bytes in id order. `last_len`, the size of the previous image, sizes
/// the buffers.
pub(crate) fn encode_image(engine: &ShardedMetaverse, oracle: u64, last_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(last_len + last_len / 8);
    out.extend_from_slice(&[CHECKPOINT_TAG, IMAGE_VERSION]);
    out.resize(IMAGE_HEADER, 0);
    // The previous image's size bounds each shard's share of this one.
    let sections = encode_sections(engine, last_len / engine.shard_count(), put_heads);
    put_state(&mut out, engine, &sections);
    put_u64(&mut out, oracle);
    put_u64(&mut out, engine.next_event());
    for (_, heads) in rows_in_id_order(engine.spawned_count(), &sections) {
        out.extend_from_slice(heads);
    }
    drop(sections);
    put_u32(&mut out, 0);
    let sum = image_checksum(out.get(IMAGE_HEADER..).unwrap_or_default());
    if let Some(slot) = out.get_mut(2..IMAGE_HEADER) {
        slot.copy_from_slice(&sum.to_le_bytes());
    }
    out
}

/// The inverse of [`encode_image`]: the engine `image` encodes, on
/// `shards` shards with batch application `parallel`
/// ([`ShardedMetaverse::set_parallel_apply`]), its heads in its rows,
/// and its oracle timestamp. Unless `heads`, an image with a head or a
/// nonzero oracle is refused (a replica keeps no MVCC state). Entity `k`
/// goes to list `k % n` at row `k / n` ([`place`]). Total on hostile
/// input: `None` on a wrong tag, version or checksum or on structural
/// damage, a repeated or unsorted attribute name included — never a
/// panic, and no allocation sized by a length field. Well-formed bytes
/// that no engine produces (a wrong live count) may restore to an engine
/// that encodes differently; snapshot install compares the re-encoding.
pub(crate) fn restore_image(image: &[u8], shards: usize, parallel: bool, heads: bool) -> Option<(ShardedMetaverse, u64)> {
    let ([CHECKPOINT_TAG, IMAGE_VERSION, sum @ ..], body) = image.split_at_checked(IMAGE_HEADER)?
    else {
        return None;
    };
    if image_checksum(body) != u64::from_le_bytes(sum.try_into().ok()?) {
        return None;
    }
    let mut r = SliceReader::new(body);
    if r.u8()? != 1 {
        return None;
    }
    let clock = SimTime(r.u64()?);
    let _live = r.u64()?;
    let count = r.u64()?;
    // Each entity goes straight to its owner shard's list, at the slot
    // `place` gives it; the shard's worker takes it from there (see
    // `ShardedMetaverse::restore`).
    let shards = shards.max(1);
    let mut owned: Vec<Vec<Entity>> = (0..shards).map(|_| Vec::new()).collect();
    let mut decoded = 0;
    while decoded < count {
        let e = decode_entity(&mut r)?;
        // Ids are dense in spawn order; anything else would land out
        // of place in the arena and skip or repeat an id.
        if e.id.raw() != decoded {
            return None;
        }
        owned.get_mut(place(e.id, shards).0)?.push(e);
        decoded += 1;
    }
    let mut counters = Vec::new();
    for _ in 0..r.u32()? {
        let name = read_str(&mut r)?;
        let name = ENGINE_COUNTERS.iter().find(|known| **known == name)?;
        counters.push((*name, r.u64()?));
    }
    let (oracle, next_event) = (r.u64().filter(|oracle| heads || *oracle == 0)?, r.u64()?);
    let mut engine = ShardedMetaverse::restore(shards, parallel, clock, owned, &counters, next_event);
    decode_heads(&mut engine, &mut r, heads)?;
    r.done().then_some((engine, oracle))
}

/// The engine's counter totals, the last part of the state encoding.
fn put_counters(out: &mut Vec<u8>, engine: &ShardedMetaverse) {
    let stats = engine.stats();
    let entries: Vec<(&str, u64)> = stats.iter().collect();
    put_u32(out, wire_u32(entries.len()));
    for (name, value) in entries {
        put_str(out, name);
        put_u64(out, value);
    }
}

/// The engine counters [`DurableMetaverse::state_encoding`] carries
/// (`Counters` keys are static, so a decoded name must be one of these).
const ENGINE_COUNTERS: [&str; 3] = ["commands", "suppressed_syncs", "sync_msgs"];

/// The durable engine: a [`ShardedMetaverse`] whose mutations are
/// logged (group-commit WAL) before application, and whose log is
/// trimmed behind checkpoint images (see the module docs).
pub struct DurableMetaverse {
    pub(crate) engine: ShardedMetaverse,
    /// The group-commit log. Public so fault tests can inject
    /// corruption between commit and recovery.
    pub wal: GroupCommitWal,
    /// Always empty (see [`Self::kv`]).
    kv: ShardedKv,
    /// Bytes of the newest image encoded or restored (0: none yet).
    image_len: usize,
    /// Span collector (see [`Self::set_tracer`] for which ops mint a
    /// `core.durable.ingest` root).
    pub(crate) tracer: Option<SharedTracer>,
    /// Transactional state: the sharded MVCC overlay and its counters
    /// (see `crate::txn`).
    pub(crate) txns: TxnState,
}

impl DurableMetaverse {
    /// Build with `shards` engine and MVCC shards and the default WAL
    /// policy.
    pub fn with_defaults(shards: usize) -> Self {
        Self::new(shards, shards, KvConfig::default(), GroupCommitPolicy::default())
    }

    /// Build with explicit shard counts and WAL policy. `txn_shards`
    /// sizes the MVCC shards; `_kv_config` is ignored (the engine keeps
    /// no KV).
    pub fn new(
        engine_shards: usize,
        txn_shards: usize,
        _kv_config: KvConfig,
        wal_policy: GroupCommitPolicy,
    ) -> Self {
        DurableMetaverse {
            engine: ShardedMetaverse::counting(engine_shards),
            wal: GroupCommitWal::with_policy(wal_policy),
            kv: ShardedKv::with_defaults(1),
            image_len: 0,
            tracer: None,
            txns: TxnState::new(txn_shards),
        }
    }

    /// Install a span collector. An op applied *with* a [`TraceCtx`]
    /// (e.g. delivered over the reliable transport) keeps it. A move or
    /// attribute write applied alone without one — through
    /// [`Self::apply`] or [`Self::update_attr`], not in an
    /// [`Self::apply_batch`] — mints a `core.durable.ingest` root,
    /// subject to the tracer's sampling rate; spawns, retires, area
    /// effects and batches mint none. The WAL shares the tracer, so each
    /// op logged with a context gets a `storage.wal.group_commit` span.
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.wal.set_tracer(tracer.clone());
        self.tracer = Some(tracer);
    }

    /// The installed span collector, if any.
    pub fn tracer(&self) -> Option<&SharedTracer> {
        self.tracer.as_ref()
    }

    /// The wrapped engine (read-only: mutations must go through
    /// [`Self::apply`] or they will not survive a crash).
    pub fn engine(&self) -> &ShardedMetaverse {
        &self.engine
    }

    /// An empty KV store, kept for callers that read its stats: the log
    /// of checkpoint images and ops is the engine's store.
    pub fn kv(&self) -> &ShardedKv {
        &self.kv
    }

    /// Ids of every entity ever registered, in spawn order: ids are
    /// dense, so these are `0..` their count.
    pub fn ids(&self) -> Vec<EntityId> {
        (0..self.engine.spawned_count() as u64).map(EntityId::new).collect()
    }

    /// Serial/parallel batch application on the engine's shards (serial
    /// mode is what honest per-shard timing needs; see
    /// `ShardedMetaverse::set_parallel_apply`).
    pub fn set_parallel_apply(&mut self, on: bool) {
        self.engine.set_parallel_apply(on);
    }

    /// Log one op (not yet durable — `commit` seals the batch). An op
    /// carrying a causal context gets a `storage.wal.group_commit` span
    /// that closes when its batch seals (its duration is the group-commit
    /// wait the op paid). The record carries no key: replay follows log
    /// order.
    pub(crate) fn log(&mut self, op: &DurableOp, ctx: Option<TraceCtx>) {
        self.wal.append_put_with(&[], op.ts(), ctx, |out| op.encode_into(out));
    }

    /// Resolve the context for one applied op: adopt the caller's, or,
    /// for a move or attribute write, mint a sampled
    /// `core.durable.ingest` root. Returns `(ctx, minted_root)` — a
    /// minted root is owned here and closed by [`Self::apply`].
    fn ingest_ctx(&self, op: &DurableOp, ctx: Option<TraceCtx>) -> (Option<TraceCtx>, Option<u64>) {
        if ctx.is_some() || !op.is_txn_leaf() {
            return (ctx, None);
        }
        let Some(tr) = &self.tracer else { return (None, None) };
        match tr.maybe_trace("core.durable.ingest", op.ts()) {
            Some(c) => (Some(c), Some(c.span)),
            None => (None, None),
        }
    }

    /// The one write path: log `op`, apply it to the engine, give an
    /// accepted move or attribute write its MVCC head, and trace it
    /// under `ctx` (see [`Self::set_tracer`]). A transaction record is
    /// refused unlogged: it commits through [`Self::commit_txn`].
    pub fn apply(&mut self, op: &DurableOp, ctx: Option<TraceCtx>) -> MvResult<Applied> {
        if let DurableOp::TxnPrepare { .. } | DurableOp::TxnDecision { .. } = op {
            return Err(not_a_write());
        }
        let (ctx, minted) = self.ingest_ctx(op, ctx);
        self.log(op, ctx);
        let live = self.txns.save_before_images(&self.engine, [op]);
        let applied = self.engine.apply(op);
        if applied.is_ok() {
            self.txns.plain_written(&mut self.engine, [op], live);
        }
        // Mark the apply instant under `ctx`, and close a root minted here
        // (a caller's root stays open: the caller owns its lifetime).
        if let Some(tr) = &self.tracer {
            if let Some(c) = ctx {
                tr.event(c, "core.durable.apply", op.ts(), if applied.is_ok() { "ok" } else { "err" });
            }
            if let Some(root) = minted {
                tr.close(root, op.ts(), "applied");
            }
        }
        applied
    }

    /// Logged spawn ([`Self::apply`]). Ids are dense in spawn order, so
    /// the new entity's id is the count of those before it.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        kind: EntityKind,
        position: Point,
        now: SimTime,
    ) -> EntityId {
        let id = EntityId::new(self.engine.spawned_count() as u64);
        let spawned = self.apply(&DurableOp::Spawn { name: name.into(), kind, position, ts: now }, None);
        debug_assert_eq!(spawned, Ok(Applied::Spawned(id)));
        id
    }

    /// Logged attribute write ([`Self::apply`]); `Ok(true)` when a sync
    /// message crossed the boundary.
    pub fn update_attr(&mut self, id: EntityId, name: &str, value: f64, now: SimTime) -> MvResult<bool> {
        let op = DurableOp::Attr { id, name: name.to_string(), value, ts: now };
        self.apply(&op, None).map(|applied| applied == Applied::Synced(true))
    }

    /// Logged batched writes: each op is lifted to its logged form once
    /// and logged individually, and the shards apply the lifted batch in
    /// parallel, each op through
    /// [`Metaverse::apply`](crate::Metaverse::apply) (per-entity replay
    /// order is append order, which the batch's stable partitioning
    /// preserves); then one pass in op order gives the accepted ops their
    /// MVCC heads. Ops in a batch mint no ingest roots.
    pub fn apply_batch(&mut self, ops: &[WriteOp]) -> Vec<MvResult<bool>> {
        let logged: Vec<DurableOp> = ops.iter().map(DurableOp::from_write).collect();
        for op in &logged {
            self.log(op, None);
        }
        let live = self.txns.save_before_images(&self.engine, &logged);
        let results = self.engine.apply_ops(&logged);
        let accepted = logged.iter().zip(&results).filter(|(_, r)| r.is_ok()).map(|(op, _)| op);
        self.txns.plain_written(&mut self.engine, accepted, live);
        results
    }

    /// Group commit: seal the pending WAL batch, then
    /// [`Self::drain_to_storage`].
    pub fn commit(&mut self, _now: SimTime) {
        self.wal.sync();
        self.drain_to_storage();
    }

    /// The storage half of [`Self::commit`]: on the first commit and once
    /// [`GroupCommitWal::checkpoint_due`] (the log is twice the newest
    /// image, the rule raft replicas compact by too), seal a new image as
    /// a batch of its own and trim every batch before it. The engine only
    /// counts its co-space events (nothing reads them), so there are none
    /// to drain: the image records the next event id.
    pub fn drain_to_storage(&mut self) {
        if self.wal.checkpoint_due(self.image_len) {
            // No public call returns between a transaction's prepare and
            // its decision (a simulated crash must be recovered first),
            // so no image can split one.
            debug_assert_eq!(self.txns.mvcc.lock_count(), 0, "checkpoint inside a 2PC commit");
            let image = self.checkpoint_image();
            let now = self.engine.now();
            self.wal.seal_fence([WalRecord::Put { key: Vec::new(), value: image }], now);
        }
    }

    /// Simulate a crash and recover: all volatile state (engine, MVCC
    /// chains, unsynced WAL tail) is discarded; the WAL is recovered
    /// (truncating at the first corrupt batch); the newest intact image
    /// is restored from the bytes the log lends, and the ops after it
    /// replay. The result equals the pre-crash engine at the last durable
    /// point, and a replay of the whole log, in [`Self::state_encoding`]
    /// and `txn_digest`. A torn image batch is dropped, and recovery
    /// starts from the older image the trim had not removed; an image
    /// damaged *after* its trim leaves nothing to replay onto, so the
    /// report names the corruption and the engine is empty. An image the
    /// log's checksum passes but `restore` refuses is damage too:
    /// the log is truncated at its batch and the report names that
    /// offset. `replayed` counts the records from the restored image on.
    ///
    /// Transactional records resolve in-doubt state here: a
    /// [`DurableOp::TxnPrepare`] is buffered, never applied on its own;
    /// a [`DurableOp::TxnDecision`] with `commit` replays the buffered
    /// ops and heads what the engine applied at the recorded `commit_ts`
    /// (no snapshot survives a crash to need a chain); an abort
    /// decision discards them; and prepares still unresolved at the end
    /// of the log are *presumed aborts* — discarded and counted in the
    /// `core.txn.indoubt_aborted` stat.
    /// Replay drops the engine's errors: an op that failed pre-crash fails
    /// identically on replay — determinism is what recovery needs.
    pub fn crash_and_recover(&mut self) -> RecoveryReport {
        let mut report = self.wal.crash_with_report();
        let mut wal = std::mem::take(&mut self.wal);
        let parallel = self.engine.parallel_apply();
        self.engine = ShardedMetaverse::counting(self.engine.shard_count());
        self.engine.set_parallel_apply(parallel);
        self.txns.reset();
        self.image_len = 0;
        fn image_of(rec: WalRecordRef<'_>) -> Option<&[u8]> {
            match rec {
                WalRecordRef::Put { value, .. } if value.first() == Some(&CHECKPOINT_TAG) => Some(value),
                _ => None,
            }
        }
        // Restore the newest image. An image is sealed alone, so a batch
        // holding one starts with it; one that passed the log's checksum
        // but not its own is damage, and goes with everything after it.
        let start = loop {
            let batches = wal.durable_batches().enumerate();
            let newest = batches.filter_map(|(i, mut b)| Some((i, image_of(b.next()?)?))).last();
            let Some((i, image)) = newest else { break 0 };
            if self.restore(image).is_some() {
                break i;
            }
            wal.refuse_batch(i, &mut report);
        };
        report.replayed = 0;
        let mut prepared: mv_common::hash::FastMap<u64, Vec<DurableOp>> =
            mv_common::hash::FastMap::default();
        for batch in wal.durable_batches().skip(start) {
            for rec in batch {
                report.replayed += 1;
                let WalRecordRef::Put { value, .. } = rec else { continue };
                let Some(op) = DurableOp::decode(value) else { continue };
                match op {
                    DurableOp::TxnPrepare { txn, ops, .. } => {
                        prepared.entry(txn).or_default().extend(ops);
                    }
                    DurableOp::TxnDecision { txn, commit, commit_ts, .. } => {
                        // A decision with no buffered prepares is hostile
                        // or duplicated input — there is nothing to apply.
                        let Some(ops) = prepared.remove(&txn) else { continue };
                        if commit {
                            for op in &ops {
                                if self.engine.apply(op).is_ok() {
                                    stamp(&mut self.engine, op, commit_ts);
                                }
                            }
                            self.txns.mvcc.oracle().advance_past(commit_ts);
                            self.txns.stats.incr("recovered_commits");
                        } else {
                            self.txns.stats.incr("recovered_aborts");
                        }
                    }
                    other => {
                        if self.engine.apply(&other).is_ok() {
                            self.txns.plain_written(&mut self.engine, [&other], false);
                        }
                    }
                }
            }
        }
        self.wal = wal;
        self.txns.stats.add("indoubt_aborted", prepared.len() as u64);
        report
    }

    /// Canonical byte encoding of the whole engine state: clock, live
    /// count, every entity ever spawned (in spawn order, fully encoded),
    /// and the engine's counter totals. Two engines with equal encodings
    /// are observably identical; the fault tests compare these
    /// byte-for-byte across crash/recovery.
    pub fn state_encoding(&self) -> Vec<u8> {
        state_encoding(&self.engine)
    }

    /// The checkpoint image ([`encode_image`]) of the engine, its rows'
    /// MVCC heads and the oracle, all of that state a crash leaves (see
    /// [`put_heads`]).
    pub(crate) fn checkpoint_image(&mut self) -> Vec<u8> {
        let image = encode_image(&self.engine, self.txns.mvcc.oracle().current(), self.image_len);
        self.image_len = image.len();
        image
    }

    /// The inverse of [`Self::checkpoint_image`] ([`restore_image`]): the
    /// engine and MVCC store (not the WAL) become those `image` encodes.
    /// `None`, with `self` untouched, on any damage.
    pub(crate) fn restore(&mut self, image: &[u8]) -> Option<()> {
        let (shards, parallel) = (self.engine.shard_count(), self.engine.parallel_apply());
        let (engine, oracle) = restore_image(image, shards, parallel, true)?;
        self.engine = engine;
        self.txns.reset();
        self.txns.mvcc.oracle().advance_past(oracle);
        self.image_len = image.len();
        Some(())
    }

    /// Hash of [`Self::state_encoding`] (cheap equality witness).
    pub fn state_digest(&self) -> u64 {
        state_digest(&self.engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_storage::wal::Corruption;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn durable_op_encoding_round_trips() {
        let ops = vec![
            DurableOp::Spawn {
                name: "scout-7".into(),
                kind: EntityKind::Vehicle,
                position: p(3.5, -2.25),
                ts: t(7),
            },
            DurableOp::Position { id: EntityId::new(42), position: p(1.0, 2.0), ts: t(8) },
            DurableOp::Attr { id: EntityId::new(3), name: "fuel".into(), value: 0.75, ts: t(9) },
            DurableOp::Retire { id: EntityId::new(9), ts: t(10) },
            DurableOp::AreaEffect {
                space: Space::Virtual,
                effect: "air_raid".into(),
                region: Aabb::new(p(0.0, 0.0), p(10.0, 10.0)),
                action: "perish".into(),
                retire: true,
                ts: t(11),
            },
        ];
        for op in ops {
            let bytes = op.encode();
            assert_eq!(DurableOp::decode(&bytes), Some(op.clone()), "{op:?}");
            // Truncations never decode (and never panic).
            for cut in 0..bytes.len() {
                assert_eq!(DurableOp::decode(&bytes[..cut]), None, "{op:?} cut at {cut}");
            }
        }
        assert_eq!(DurableOp::decode(&[99]), None, "unknown tag");
    }

    #[test]
    fn txn_record_encoding_round_trips() {
        let prepare = DurableOp::TxnPrepare {
            txn: 77,
            shard: 3,
            ops: vec![
                DurableOp::Attr { id: EntityId::new(1), name: "gold".into(), value: 9.5, ts: t(4) },
                DurableOp::Position { id: EntityId::new(2), position: p(1.0, 2.0), ts: t(4) },
            ],
            ts: t(4),
        };
        let decision = DurableOp::TxnDecision { txn: 77, commit: true, commit_ts: 12345, ts: t(5) };
        for op in [prepare, decision] {
            let bytes = op.encode();
            assert_eq!(DurableOp::decode(&bytes), Some(op.clone()), "{op:?}");
            for cut in 0..bytes.len() {
                assert_eq!(DurableOp::decode(&bytes[..cut]), None, "{op:?} truncated at {cut}");
            }
        }
    }

    /// The op codec is canonical: from one encoding of each variant
    /// (a nested prepare, an inverted region, a NaN-cornered region, NaN
    /// and ±∞ floats), every truncation and three flips of every byte,
    /// whatever bytes the decoder accepts re-encode to themselves.
    #[test]
    fn accepted_op_bytes_re_encode_to_themselves() {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let id = EntityId::new(5);
        let raid = |region, retire| DurableOp::AreaEffect {
            space: Space::Virtual,
            effect: "raid".into(),
            region,
            action: "perish".into(),
            retire,
            ts: t(3),
        };
        let ops = [
            DurableOp::Spawn { name: "s".into(), kind: EntityKind::Person, position: p(inf, -inf), ts: t(1) },
            DurableOp::Position { id, position: p(nan, 1.0), ts: t(2) },
            DurableOp::Attr { id, name: "hp".into(), value: -inf, ts: t(2) },
            DurableOp::Retire { id, ts: t(2) },
            raid(Aabb { lo: p(10.0, 10.0), hi: p(-1.0, -1.0) }, true),
            raid(Aabb { lo: p(0.0, 0.0), hi: p(nan, 3.0) }, false),
            DurableOp::TxnPrepare {
                txn: 9,
                shard: 1,
                ops: vec![
                    DurableOp::Attr { id, name: "gold".into(), value: nan, ts: t(4) },
                    DurableOp::Position { id, position: p(-inf, inf), ts: t(4) },
                ],
                ts: t(4),
            },
            DurableOp::TxnDecision { txn: 9, commit: false, commit_ts: 0, ts: t(5) },
        ];
        for op in &ops {
            let bytes = op.encode();
            let mut damaged: Vec<Vec<u8>> = (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
            for at in 0..bytes.len() {
                for bit in [0u8, 4, 7] {
                    let mut flipped = bytes.clone();
                    flipped[at] ^= 1 << bit;
                    damaged.push(flipped);
                }
            }
            for b in std::iter::once(&bytes).chain(&damaged) {
                if let Some(decoded) = DurableOp::decode(b) {
                    assert_eq!(&decoded.encode(), b, "{op:?} accepted as {decoded:?}");
                }
            }
        }
    }

    /// An area effect replays with its region as built: over an inverted
    /// box or one with a NaN corner a live apply retires nobody, and so
    /// must the replay of the log.
    #[test]
    fn an_area_effect_replays_as_it_was_applied() {
        let inverted = Aabb { lo: p(10.0, 10.0), hi: p(-1.0, -1.0) };
        let nan_corner = Aabb { lo: p(0.0, 0.0), hi: p(f64::NAN, 3.0) };
        for region in [inverted, nan_corner] {
            let mut dm = DurableMetaverse::with_defaults(2);
            for i in 0..4 {
                dm.spawn(format!("p{i}"), EntityKind::Person, p(i as f64, i as f64), t(1));
            }
            dm.commit(t(1));
            let raid = DurableOp::AreaEffect {
                space: Space::Virtual,
                effect: "raid".into(),
                region,
                action: "perish".into(),
                retire: true,
                ts: t(2),
            };
            dm.apply(&raid, None).unwrap();
            dm.commit(t(2));
            let live = dm.state_encoding();
            dm.crash_and_recover();
            assert_eq!(dm.state_encoding(), live, "{region:?}");
        }
    }

    /// An op is logged by encoding it straight into its batch; the log
    /// holds the bytes of the op encoded apart and appended as a keyless
    /// put, batch for batch, across several count-triggered seals.
    #[test]
    fn logged_ops_are_the_bytes_of_an_appended_record() {
        let id = EntityId::new(0);
        let script = [
            DurableOp::Spawn { name: "a".into(), kind: EntityKind::Avatar, position: p(1.0, 2.0), ts: t(1) },
            DurableOp::Position { id, position: p(3.0, 4.0), ts: t(2) },
            DurableOp::Attr { id, name: "hp".into(), value: 0.5, ts: t(2) },
            DurableOp::AreaEffect {
                space: Space::Virtual,
                effect: "raid".into(),
                region: Aabb::new(p(0.0, 0.0), p(9.0, 9.0)),
                action: "perish".into(),
                retire: false,
                ts: t(3),
            },
            DurableOp::TxnPrepare {
                txn: 7,
                shard: 1,
                ops: vec![
                    DurableOp::Attr { id, name: "gold".into(), value: 2.0, ts: t(4) },
                    DurableOp::Position { id, position: p(5.0, 6.0), ts: t(4) },
                ],
                ts: t(4),
            },
            DurableOp::TxnDecision { txn: 7, commit: true, commit_ts: 11, ts: t(4) },
            DurableOp::Retire { id, ts: t(5) },
        ];
        // A prepare's nested ops each carry their length before their
        // bytes, as when each was encoded apart and copied in.
        let DurableOp::TxnPrepare { ops, .. } = &script[4] else { unreachable!("the script's prepare") };
        let mut prepare = vec![6u8];
        prepare.extend_from_slice(&7u64.to_le_bytes());
        prepare.extend_from_slice(&1u32.to_le_bytes());
        prepare.extend_from_slice(&2u32.to_le_bytes());
        for nested in ops {
            prepare.extend_from_slice(&(nested.encode().len() as u32).to_le_bytes());
            prepare.extend_from_slice(&nested.encode());
        }
        prepare.extend_from_slice(&t(4).as_micros().to_le_bytes());
        assert_eq!(script[4].encode(), prepare);
        let mut dm = DurableMetaverse::with_defaults(2);
        let mut appended = GroupCommitWal::with_policy(GroupCommitPolicy::default());
        for op in script.iter().cycle().take(100 * script.len()) {
            dm.log(op, None);
            appended.append(WalRecord::Put { key: Vec::new(), value: op.encode() }, op.ts());
            let mut out = b"prefix".to_vec();
            op.encode_into(&mut out);
            assert_eq!((&out[..6], &out[6..]), (&b"prefix"[..], &op.encode()[..]), "{op:?}");
        }
        dm.wal.sync();
        appended.sync();
        let batches = |wal: &GroupCommitWal| {
            wal.durable_batches().map(|batch| batch.map(|rec| rec.to_owned()).collect::<Vec<_>>()).collect::<Vec<_>>()
        };
        assert!(batches(&dm.wal).len() > 2, "the script crosses several seals");
        assert_eq!(batches(&dm.wal), batches(&appended));
        assert_eq!(dm.wal.encoded_len(), appended.encoded_len());
        assert_eq!(dm.wal.stats.to_string(), appended.stats.to_string());
    }

    #[test]
    fn hostile_txn_prepare_frames_decode_to_none_not_panic() {
        // A prepare whose op count claims far more nested frames than
        // the buffer holds: must refuse, not loop or reserve memory.
        let mut bytes = vec![6u8];
        bytes.extend_from_slice(&1u64.to_le_bytes()); // txn
        bytes.extend_from_slice(&0u32.to_le_bytes()); // shard
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // op count
        assert_eq!(DurableOp::decode(&bytes), None);

        // A nested frame whose length field overruns the buffer.
        let mut bytes = vec![6u8];
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes()); // one op…
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // …of absurd length
        bytes.extend_from_slice(b"xx");
        assert_eq!(DurableOp::decode(&bytes), None);

        // Nested ops outside the transactional leaf set: a Spawn smuggled
        // into a prepare (could desync replay's id assignment), or a
        // prepare nested inside a prepare (unbounded recursion bait).
        let spawn = DurableOp::Spawn {
            name: "evil".into(),
            kind: EntityKind::Avatar,
            position: p(0.0, 0.0),
            ts: t(1),
        };
        let nested_prepare = DurableOp::TxnPrepare { txn: 2, shard: 0, ops: vec![], ts: t(1) };
        for smuggled in [spawn, nested_prepare] {
            let inner = smuggled.encode();
            let mut bytes = vec![6u8];
            bytes.extend_from_slice(&1u64.to_le_bytes());
            bytes.extend_from_slice(&0u32.to_le_bytes());
            bytes.extend_from_slice(&1u32.to_le_bytes());
            bytes.extend_from_slice(&(inner.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&inner);
            bytes.extend_from_slice(&t(1).as_micros().to_le_bytes());
            assert_eq!(DurableOp::decode(&bytes), None, "non-leaf nested op must not decode");
        }
    }

    #[test]
    fn hostile_decision_tags_decode_to_none_not_panic() {
        // The commit flag is strictly 0 or 1 — an unknown tag is damage,
        // never "probably commit".
        for tag in [2u8, 7, 255] {
            let mut bytes = vec![7u8];
            bytes.extend_from_slice(&9u64.to_le_bytes()); // txn
            bytes.push(tag);
            bytes.extend_from_slice(&100u64.to_le_bytes()); // commit_ts
            bytes.extend_from_slice(&t(2).as_micros().to_le_bytes());
            assert_eq!(DurableOp::decode(&bytes), None, "decision tag {tag}");
        }
    }

    #[test]
    fn orphaned_prepares_and_stray_decisions_recover_cleanly() {
        // Hand-craft a WAL holding (a) a prepare with no decision and
        // (b) a decision with no prepares: recovery must apply neither
        // and never panic.
        let mut dm = DurableMetaverse::with_defaults(2);
        let id = dm.spawn("a", EntityKind::Person, p(0.0, 0.0), t(1));
        dm.commit(t(1));
        let baseline = dm.state_encoding();

        let orphan_prepare = DurableOp::TxnPrepare {
            txn: 500,
            shard: 0,
            ops: vec![DurableOp::Attr { id, name: "hp".into(), value: 1.0, ts: t(2) }],
            ts: t(2),
        };
        let stray_decision =
            DurableOp::TxnDecision { txn: 501, commit: true, commit_ts: 999, ts: t(2) };
        dm.log(&orphan_prepare, None);
        dm.log(&stray_decision, None);
        // Seal without a checkpoint: an image would supersede the orphan.
        dm.wal.sync();

        dm.crash_and_recover();
        assert_eq!(dm.state_encoding(), baseline, "neither record mutated the engine");
        assert_eq!(dm.txn_stats().get("indoubt_aborted"), 1, "orphan counted");
        assert_eq!(dm.txn_lock_count(), 0);
    }

    #[test]
    fn hostile_string_lengths_decode_to_none_not_panic() {
        // A Spawn op whose name length field claims u32::MAX bytes: the
        // reader must refuse it, not index past the buffer.
        let mut bytes = vec![1u8];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(b"x");
        assert_eq!(DurableOp::decode(&bytes), None);

        // Valid op with trailing garbage: `done()` rejects it.
        let op = DurableOp::Retire { id: EntityId::new(9), ts: t(10) };
        let mut bytes = op.encode();
        bytes.push(0);
        assert_eq!(DurableOp::decode(&bytes), None);
    }

    #[test]
    fn committed_mutations_survive_crash_byte_identically() {
        let mut dm = DurableMetaverse::with_defaults(4);
        let ids: Vec<EntityId> = (0..32)
            .map(|i| dm.spawn(format!("e{i}"), EntityKind::Person, p(i as f64, 0.0), t(1)))
            .collect();
        let ops: Vec<WriteOp> = ids
            .iter()
            .enumerate()
            .map(|(i, id)| WriteOp::Position {
                id: *id,
                position: p(i as f64, i as f64 * 2.0),
                ts: t(2),
            })
            .collect();
        dm.apply_batch(&ops);
        dm.update_attr(ids[0], "health", 0.5, t(3)).unwrap();
        dm.apply(&DurableOp::Retire { id: ids[1], ts: t(3) }, None).unwrap();
        dm.commit(t(3));
        let committed = dm.state_encoding();
        let committed_digest = dm.state_digest();

        // Uncommitted tail: must vanish on crash.
        dm.apply(&DurableOp::Position { id: ids[2], position: p(999.0, 999.0), ts: t(4) }, None).unwrap();
        dm.spawn("ghost", EntityKind::Avatar, p(0.0, 0.0), t(4));
        assert_ne!(dm.state_encoding(), committed);

        let report = dm.crash_and_recover();
        assert_eq!(report.corruption, None);
        assert_eq!(dm.state_encoding(), committed, "recovered state must be byte-identical");
        assert_eq!(dm.state_digest(), committed_digest);
        assert_eq!(dm.engine().live_count(), 31);
        assert_eq!(dm.engine().entity(ids[2]).unwrap().position, p(2.0, 4.0));
    }

    #[test]
    fn traced_ops_mint_ingest_roots_and_wal_spans() {
        let tracer = mv_obs::SharedTracer::new();
        let mut dm = DurableMetaverse::with_defaults(2);
        dm.set_tracer(tracer.clone());
        let id = dm.spawn("a", EntityKind::Person, p(0.0, 0.0), t(1));

        // Context-less updates mint their own ingest roots and close
        // them at apply; the WAL spans close when `commit` seals.
        dm.apply(&DurableOp::Position { id, position: p(1.0, 1.0), ts: t(2) }, None).unwrap();
        dm.update_attr(id, "hp", 0.5, t(3)).unwrap();
        dm.commit(t(3));
        assert_eq!(tracer.open_count(), 0, "no leaked spans");
        let recs = tracer.records();
        let count = |name: &str, status: &str| {
            recs.iter().filter(|r| r.name == name && r.status == status).count()
        };
        assert_eq!(count("core.durable.ingest", "applied"), 2);
        assert_eq!(count("core.durable.apply", "ok"), 2);
        assert_eq!(count("storage.wal.group_commit", "sealed"), 2);

        // A caller-supplied root is adopted, not closed: the caller owns
        // the update's end-to-end lifetime.
        let root = tracer.start_trace("test.e2e", t(4));
        dm.apply(&DurableOp::Position { id, position: p(2.0, 2.0), ts: t(4) }, Some(root)).unwrap();
        assert_eq!(tracer.open_count(), 2, "caller root + pending wal span");
        dm.commit(t(4));
        tracer.close(root.span, t(5), "ok");
        assert_eq!(tracer.open_count(), 0);
        assert_eq!(tracer.trace_count(), 3);
    }

    #[test]
    fn restore_then_any_suffix_matches_the_engine_that_never_stopped() {
        use crate::ops::{gen_ops, Op, Replay};
        for seed in [3u64, 17, 4242] {
            let mut ops = gen_ops(&mut mv_common::seeded_rng(seed), 240, 150.0);
            // What the generator does not produce: a twin left behind its
            // truth (a move under the 1 m bound), NaN coordinates.
            let at = ops.len() / 4;
            ops.splice(
                at..at,
                [
                    Op::Move { slot: 0, position: p(70.0, 70.0) },
                    Op::Move { slot: 0, position: p(70.4, 70.0) },
                    Op::Spawn { name: "nowhere".into(), kind: EntityKind::Avatar, position: p(f64::NAN, f64::NAN) },
                    Op::Move { slot: 0, position: p(f64::NAN, 3.0) },
                ],
            );
            for shards in [1usize, 2, 4] {
                for cut in [0, at + 2, at + 4, ops.len() / 2, ops.len()] {
                    let label = format!("seed {seed}, {shards} shards, restored after op {cut}");
                    let mut kept = DurableMetaverse::with_defaults(shards);
                    let mut script = Replay::default();
                    script.run(&mut kept, &ops[..cut]);
                    let image = kept.checkpoint_image();
                    let mut restored = DurableMetaverse::with_defaults(shards);
                    restored.restore(&image).expect(&label);
                    assert_eq!(restored.checkpoint_image(), image, "{label}");
                    assert_eq!(restored.ids(), kept.ids(), "{label}");
                    assert_eq!(
                        script.clone().run(&mut restored, &ops[cut..]),
                        script.run(&mut kept, &ops[cut..]),
                        "{label}"
                    );
                    assert_eq!(restored.state_encoding(), kept.state_encoding(), "{label}");
                    assert_eq!(restored.txn_digest(), kept.txn_digest(), "{label}");
                    if cut == ops.len() / 2 {
                        let e = kept.engine();
                        assert!(e.live_count() < kept.ids().len(), "{label}: nothing retired yet");
                        assert!(e.stats().get("commands") > 0, "{label}: no area effect hit anyone");
                    }
                }
            }
        }
    }

    /// The serial encoder the shard workers replaced, kept as the oracle
    /// their merged bytes must equal: [`DurableMetaverse::state_encoding`]
    /// of `engine` with entities `ids`, one lookup per id, appended to
    /// `out`; `each` sees every entity encoded.
    fn encode_state(engine: &ShardedMetaverse, ids: &[EntityId], out: &mut Vec<u8>, mut each: impl FnMut(EntityRef<'_>)) {
        out.push(1); // version
        put_u64(out, engine.now().as_micros());
        put_u64(out, engine.live_count() as u64);
        put_u64(out, ids.len() as u64);
        for id in ids {
            if let Ok(e) = engine.entity(*id) {
                encode_entity(out, e);
                each(e);
            }
        }
        put_counters(out, engine);
    }

    /// [`DurableMetaverse::checkpoint_image`] as the serial encoder wrote it.
    fn serial_image(dm: &DurableMetaverse) -> Vec<u8> {
        let mut out = vec![CHECKPOINT_TAG, IMAGE_VERSION];
        out.resize(IMAGE_HEADER, 0);
        let mut heads = Vec::new();
        encode_state(&dm.engine, &dm.ids(), &mut out, |e| put_heads(&mut heads, e));
        put_u64(&mut out, dm.txns.mvcc.oracle().current());
        put_u64(&mut out, dm.engine.next_event());
        out.extend_from_slice(&heads);
        put_u32(&mut out, 0);
        reseal(&mut out);
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        // The shard workers' image is the serial encoder's, byte for
        // byte, at 1, 2, 4 and 8 shards, below and above the row gate,
        // over spawns, retires, area effects, attribute writes and a
        // snapshot held across the encode; and a restore on the workers
        // equals one on the calling thread.
        #[test]
        fn shard_worker_images_match_the_serial_encoder(
            ops in crate::ops::strategies::OpSeq { min_ops: 1, max_ops: 120, world: 150.0 },
            log2_shards in 0u32..4,
            above_gate in 0u8..2,
            writes in 0usize..64,
        ) {
            use crate::ops::Replay;
            use crate::sharded::MIN_ROWS_PER_WORKER;
            let shards = 1usize << log2_shards;
            let mut dm = DurableMetaverse::with_defaults(shards);
            let mut script = Replay::default();
            script.run(&mut dm, &ops);
            let rows = if above_gate == 1 { MIN_ROWS_PER_WORKER * shards } else { MIN_ROWS_PER_WORKER - 1 };
            for i in dm.ids().len()..rows {
                dm.spawn(format!("bulk{i}"), EntityKind::Sensor, p(i as f64 % 150.0, 7.0), t(500));
            }
            let snapshot = dm.txn(t(501));
            let batch: Vec<WriteOp> = (0..writes)
                .map(|k| {
                    let id = EntityId::new((k * 7919 % rows) as u64);
                    let name = ["hp", "gold", "stock"][k % 3].to_string();
                    WriteOp::Attr { id, name, value: k as f64, ts: t(502) }
                })
                .collect();
            dm.apply_batch(&batch);
            let image = dm.checkpoint_image();
            proptest::prop_assert_eq!(&image, &serial_image(&dm));
            let mut state = Vec::new();
            encode_state(&dm.engine, &dm.ids(), &mut state, |_| {});
            proptest::prop_assert_eq!(dm.state_encoding(), state);
            dm.abort_txn(snapshot, t(503));

            let mut threaded = DurableMetaverse::with_defaults(shards);
            threaded.restore(&image).expect("a clean image");
            let mut serial = DurableMetaverse::with_defaults(shards);
            serial.set_parallel_apply(false);
            serial.restore(&image).expect("a clean image");
            proptest::prop_assert!(!serial.engine().parallel_apply(), "a restore keeps the serial setting");
            proptest::prop_assert_eq!(threaded.state_encoding(), serial.state_encoding());
            proptest::prop_assert_eq!(threaded.txn_digest(), serial.txn_digest());
            proptest::prop_assert_eq!(threaded.checkpoint_image(), image.clone());
            proptest::prop_assert_eq!(serial.checkpoint_image(), image);
        }
    }

    /// Recompute an image's checksum after the test edited its body, so
    /// the edit reaches the structural decoder.
    fn reseal(image: &mut [u8]) {
        let sum = image_checksum(&image[IMAGE_HEADER..]);
        image[2..IMAGE_HEADER].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn restore_refuses_hostile_bytes_without_panicking() {
        let mut dm = DurableMetaverse::with_defaults(2);
        let id = dm.spawn("a", EntityKind::Person, p(1.0, 2.0), t(1));
        dm.spawn("b", EntityKind::Avatar, p(3.0, 4.0), t(2));
        dm.update_attr(id, "hp", 0.5, t(3)).unwrap();
        dm.apply(&DurableOp::Position { id, position: p(5.0, 6.0), ts: t(4) }, None).unwrap();
        // A committed transaction that wrote attributes of a retired
        // entity. `commit_txn` refuses such a write, so the records go
        // into the log by hand, and recovery commits them as a hostile log
        // would have it. The engine refuses both writes, so neither gets a
        // head: a snapshot reads no `loot` and the engine's `hp`.
        dm.apply(&DurableOp::Retire { id, ts: t(5) }, None).unwrap();
        let heads = dm.txn_digest();
        let ops = vec![
            DurableOp::Attr { id, name: "loot".into(), value: 9.0, ts: t(6) },
            DurableOp::Attr { id, name: "hp".into(), value: 0.25, ts: t(6) },
        ];
        let commit_ts = dm.txn_current_ts() + 1;
        dm.log(&DurableOp::TxnPrepare { txn: 1, shard: 0, ops, ts: t(6) }, None);
        dm.log(&DurableOp::TxnDecision { txn: 1, commit: true, commit_ts, ts: t(6) }, None);
        dm.wal.sync();
        dm.crash_and_recover();
        assert_eq!(dm.txn_stats().get("recovered_commits"), 1);
        assert_eq!(dm.txn_digest(), heads, "the refused writes left no head");
        let mut reader = dm.txn(t(7));
        assert_eq!(dm.txn_read_attr(&mut reader, id, "loot"), None);
        assert_eq!(dm.txn_read_attr(&mut reader, id, "hp"), Some(0.5));
        dm.commit_txn(reader, t(7)).unwrap();
        let image = dm.checkpoint_image();
        let mut restored = DurableMetaverse::with_defaults(2);
        restored.restore(&image).expect("clean image");
        assert_eq!(restored.txn_digest(), dm.txn_digest());
        assert_eq!(restored.txn_current_ts(), dm.txn_current_ts());
        assert_eq!(restored.checkpoint_image(), image);

        let refuses = |bytes: &[u8], what: &str| {
            assert!(DurableMetaverse::with_defaults(2).restore(bytes).is_none(), "{what}");
        };
        for cut in 0..image.len() {
            refuses(&image[..cut], &format!("cut at {cut}"));
            // Past the checksum, the structure itself must refuse.
            if cut >= IMAGE_HEADER {
                let mut resealed = image[..cut].to_vec();
                reseal(&mut resealed);
                refuses(&resealed, &format!("resealed cut at {cut}"));
            }
        }
        let mut flipped = image.clone();
        for at in 0..image.len() {
            for mask in [0x01, 0x80, 0xFF] {
                flipped[at] ^= mask;
                refuses(&flipped, &format!("byte {at} ^ {mask:#x}"));
                // A resealed flip may decode (a coordinate is any f64),
                // but never panics.
                reseal(&mut flipped);
                let _ = DurableMetaverse::with_defaults(2).restore(&flipped);
                flipped.copy_from_slice(&image);
            }
        }
        let state = IMAGE_HEADER;
        let edit = |at: usize, bytes: &[u8]| {
            let mut edited = image.clone();
            edited[at..at + bytes.len()].copy_from_slice(bytes);
            reseal(&mut edited);
            edited
        };
        // An entity count far beyond what the buffer holds.
        refuses(&edit(state + 17, &u64::MAX.to_le_bytes()), "entity count u64::MAX");
        // Entity ids must be 0, 1, 2… in order.
        refuses(&edit(state + 25, &[1]), "entity ids out of order");
        // A counter this engine does not keep.
        let at = image.windows(9).position(|w| w == b"sync_msgs").expect("counter name");
        refuses(&edit(at, b"x"), "unknown counter");
        refuses(&edit(state, &[9]), "state version");
        refuses(&edit(1, &[9]), "image version");
        // The image ends with its extras count: every head is an engine
        // field, so it is 0.
        let extras = image.len() - 4;
        assert_eq!(image[extras..], 0u32.to_le_bytes());
        for count in [1, u32::MAX] {
            refuses(&edit(extras, &count.to_le_bytes()), "a non-zero extras count is refused");
        }
        // The heads follow the state, the oracle and the next event id;
        // the first is `a`'s position: tag 1 (the field) and a timestamp.
        let heads = IMAGE_HEADER + dm.state_encoding().len() + 16;
        assert_eq!(image[heads], 1);
        refuses(&edit(heads, &[2]), "a head spelled out rather than the field");
        refuses(&edit(heads + 1, &0u64.to_le_bytes()), "a head at timestamp 0");
    }

    /// An image the log's checksum passes but `restore` refuses is
    /// damage at its batch: the log is truncated there, the report names
    /// the offset, and recovery starts from the image before it — or,
    /// when the trim left none, from nothing.
    #[test]
    fn an_image_restore_refuses_truncates_the_log_at_its_batch() {
        let mut dm = DurableMetaverse::with_defaults(2);
        let id = dm.spawn("a", EntityKind::Person, p(0.0, 0.0), t(1));
        dm.commit(t(1));
        dm.apply(&DurableOp::Position { id, position: p(1.0, 1.0), ts: t(2) }, None).unwrap();
        dm.wal.sync();
        let kept = dm.state_encoding();
        let at = dm.wal.encoded_len();
        let mut bad = dm.checkpoint_image();
        *bad.last_mut().unwrap() ^= 1;
        let bad = WalRecord::Put { key: Vec::new(), value: bad };
        dm.wal.append(bad.clone(), t(2));
        dm.wal.sync();
        dm.update_attr(id, "hp", 0.5, t(3)).unwrap();
        dm.wal.sync();
        let report = dm.crash_and_recover();
        assert_eq!(report.corruption, Some(Corruption::ChecksumMismatch { at }));
        assert_eq!((report.replayed, report.valid_bytes, dm.wal.encoded_len()), (2, at, at));
        assert_eq!(dm.state_encoding(), kept);

        // Sealed as a fence, the refused image was the log's only one.
        dm.wal.seal_fence([bad], t(4));
        dm.update_attr(id, "hp", 0.25, t(4)).unwrap();
        dm.wal.sync();
        let report = dm.crash_and_recover();
        assert_eq!(report.corruption, Some(Corruption::ChecksumMismatch { at: 0 }));
        assert_eq!((report.replayed, dm.wal.len(), dm.ids().len()), (0, 0, 0));
        assert_eq!(dm.state_encoding(), DurableMetaverse::with_defaults(2).state_encoding());
    }

    /// A durable engine only counts its co-space events. Through spawns,
    /// batched and single writes, retires, area effects, commits (with
    /// their checkpoint images), a crash and an image restore, no shard
    /// holds a buffered event or has allocated a buffer, and the next
    /// event id and the state encoding are those of a recording engine
    /// fed the same ops and drained (the images differ: the durable
    /// engine's rows carry its plain writes' heads).
    #[test]
    fn durable_engines_count_events_and_keep_none() {
        use crate::ops::{gen_ops, Op};
        let ops = gen_ops(&mut mv_common::seeded_rng(29), 600, 150.0);
        for shards in [1, 3, 4] {
            let mut dm = DurableMetaverse::with_defaults(shards);
            let mut bare = ShardedMetaverse::with_defaults(shards);
            let check = |dm: &DurableMetaverse, bare: &mut ShardedMetaverse, at: &str| {
                bare.drain_events();
                for bus in dm.engine.buses() {
                    assert_eq!((bus.pending().len(), bus.buffer_capacity()), (0, 0), "{shards} shards, {at}");
                }
                assert_eq!(dm.engine.next_event(), bare.next_event(), "{shards} shards, {at}");
                assert_eq!(state_encoding(&dm.engine), state_encoding(bare), "{shards} shards, {at}");
            };
            let (mut ids, mut batch) = (Vec::new(), Vec::new());
            let flush = |dm: &mut DurableMetaverse, bare: &mut ShardedMetaverse, batch: &mut Vec<WriteOp>| {
                assert_eq!(dm.apply_batch(batch), bare.apply_batch(batch));
                batch.clear();
            };
            for (i, op) in ops.iter().enumerate() {
                let ts = t(i as u64);
                match op {
                    Op::Move { slot, position } => batch.push(WriteOp::Position { id: ids[*slot], position: *position, ts }),
                    Op::Attr { slot, name, value } => {
                        batch.push(WriteOp::Attr { id: ids[*slot], name: name.clone(), value: *value, ts })
                    }
                    other => {
                        flush(&mut dm, &mut bare, &mut batch);
                        let Some(write) = other.write(&ids, ts) else { continue };
                        let applied = dm.apply(&write, None);
                        assert_eq!(applied, bare.apply(&write));
                        if let Ok(Applied::Spawned(id)) = applied {
                            ids.push(id);
                        }
                    }
                }
                if i % 97 == 96 {
                    flush(&mut dm, &mut bare, &mut batch);
                    dm.commit(ts);
                    check(&dm, &mut bare, "commit");
                }
            }
            flush(&mut dm, &mut bare, &mut batch);
            dm.commit(t(ops.len() as u64));
            check(&dm, &mut bare, "last commit");
            dm.crash_and_recover();
            check(&dm, &mut bare, "recovery");
            let image = dm.checkpoint_image();
            assert!(dm.restore(&image).is_some());
            check(&dm, &mut bare, "restore");
            let write = WriteOp::Position { id: ids[0], position: p(500.0, 500.0), ts: t(9_999) };
            flush(&mut dm, &mut bare, &mut vec![write]);
            check(&dm, &mut bare, "a write after the restore");
        }
    }

    #[test]
    fn area_effects_replay_deterministically() {
        let build = || {
            let mut dm = DurableMetaverse::with_defaults(4);
            // Physical-authoritative entities: their *twins* live in the
            // virtual space, which is what a virtual air raid targets.
            for i in 0..24 {
                dm.spawn(format!("troop{i}"), EntityKind::Person, p(i as f64, i as f64), t(1));
            }
            let raid = DurableOp::AreaEffect {
                space: Space::Virtual,
                effect: "air_raid".into(),
                region: Aabb::new(p(0.0, 0.0), p(11.5, 11.5)),
                action: "perish".into(),
                retire: true,
                ts: t(2),
            };
            dm.apply(&raid, None).unwrap();
            dm.commit(t(2));
            dm
        };
        let mut a = build();
        let b = build();
        assert_eq!(a.state_encoding(), b.state_encoding(), "same ops, same bytes");
        a.crash_and_recover();
        assert_eq!(a.state_encoding(), b.state_encoding(), "replayed bytes identical too");
        assert!(a.engine().live_count() < 24, "the raid retired someone");
    }
}
