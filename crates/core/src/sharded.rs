//! `ShardedMetaverse` — the co-space engine partitioned across N shards.
//!
//! §IV-C of the paper argues the co-space write path must absorb "data
//! of unprecedented scale" from sensed physical entities; one entity map
//! plus two spatial indexes eventually serializes on a single lock. This
//! module partitions the engine by *entity ownership*: ids are dense in
//! spawn order, and entity `k` lives on shard `k % n` at row `k / n` of
//! its arena (round robin, `place`), so the id is the address and no
//! table maps one to the other. A shard is a complete [`Metaverse`] —
//! entity columns, truth/twin [`GridIndex`]es (built at the shard count
//! as their stride, so each files an entity by its slot), event bus,
//! counters —
//! so every per-entity code path is byte-for-byte the code the
//! sequential engine runs. What this module adds is the routing and the
//! *deterministic reassembly*:
//!
//! * batched writes ([`ShardedMetaverse::apply_batch`]) are partitioned
//!   by owner (stable, preserving per-entity order) and applied, as they
//!   are, by one scoped thread per shard: one pass over each op, on its
//!   owner. A durable engine's batch also draws each accepted op's MVCC
//!   head timestamp while routing, on the calling thread and in op order,
//!   and the owner's worker stamps it in the row it writes;
//! * a cross-shard probe visits the shards on the calling thread,
//!   collects their hits in one buffer and sorts it once (ownership makes
//!   shard results disjoint); only the `*_batch` forms spend a thread
//!   round, splitting the probes, not the shards, across it;
//! * area effects scan all shards for targets, then retire each victim
//!   through its owner shard;
//! * the merged event log is ordered by `(ts, entity, shard, shard-seq)`
//!   and re-numbered, so two runs over the same ops produce *identical
//!   bytes* regardless of thread scheduling.
//!
//! An engine built by the public constructors records its events for
//! [`ShardedMetaverse::drain_events`]. The engines of a
//! `DurableMetaverse` and of a raft replica only count theirs
//! (`EventBus`): nothing reads them, and a
//! write then builds no event. Both number events alike, so the next
//! event id a checkpoint image records is the same either way.
//!
//! Equivalence with the sequential engine is not argued, it is *tested*:
//! `tests/sharded_differential.rs` replays random op sequences against
//! both engines and asserts identical results at every step.
//!
//! [`GridIndex`]: mv_spatial::GridIndex

use crate::arena::EntityRef;
use crate::durable::DurableOp;
use crate::engine::{not_a_write, sorted_distinct, Applied, Metaverse, SyncPolicy};
use crate::entity::{Attrs, Entity, EntityKind};
use crate::events::CoEvent;
use mv_common::geom::{Aabb, Point};
use mv_common::id::{EntityId, EventId};
use mv_common::metrics::Counters;
use mv_common::time::SimTime;
use mv_common::Space;
use mv_common::{MvError, MvResult};
use mv_obs::SharedTracer;
use std::time::Instant;

/// Where entity `id` lives on `shards` owner shards (at least 1):
/// shard `id % n`, at slot `id / n` of that shard's arena. Ids are dense
/// in spawn order, so the shards take spawns in turn and each one's
/// slots ascend with its ids; the next id is the number of rows held.
/// The only place the rule is written.
#[inline]
pub(crate) fn place(id: EntityId, shards: usize) -> (usize, usize) {
    let n = shards.max(1) as u64;
    ((id.raw() % n) as usize, usize::try_from(id.raw() / n).unwrap_or(usize::MAX))
}

/// A batch probe spawns its workers only when each would take at least
/// this many probes; smaller batches run on the calling thread. Measured
/// on the 2-thread host (100 k entities, 200 m probes, p50 µs inline /
/// threaded): 2 shards, 16 probes 63 / 81, 32 probes 125 / 118; 4 shards,
/// 32 probes 171 / 187, 64 probes 338 / 306; 8 shards, 64 probes 495 /
/// 489, 128 probes 971 / 849 — a worker costs about 25 µs to spawn and
/// join, a probe about 2 µs per shard it visits.
const MIN_PROBES_PER_WORKER: usize = 16;

/// The checkpoint encode and restore spawn one worker per shard only
/// when each would take at least this many entities; smaller states, as
/// a replica's raft snapshot of a few hundred entities, run on the
/// calling thread. Measured on the 2-thread host (2 shards, entities with
/// a moved position and one attribute; median µs, encode serial /
/// threaded, restore serial / threaded): 512 rows per worker 177 / 276,
/// 568 / 709; 1 024 rows 327 / 404, 1 314 / 1 297; 2 048 rows 612 / 686,
/// 2 593 / 2 455; 4 096 rows 1 393 / 1 409, 5 254 / 4 807; 50 000 rows
/// 22 553 / 20 683, 66 240 / 57 813 — a round costs about 80 µs, and there a
/// second worker saves well under half of the rows' time.
pub(crate) const MIN_ROWS_PER_WORKER: usize = 4096;

/// `work` over `items`, its results in item order: one scoped worker per
/// item when `threaded`, else in turn on the calling thread. A panicked
/// worker's panic propagates.
fn fan_out<I: Send, T: Send>(
    items: impl IntoIterator<Item = I>,
    threaded: bool,
    work: impl Fn(I) -> T + Sync,
) -> Vec<T> {
    if !threaded {
        return items.into_iter().map(work).collect();
    }
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items.into_iter().map(|item| scope.spawn(move || work(item))).collect();
        // lint:allow(panic-path): a panicked shard worker poisons the round; propagating the panic is the contract
        handles.into_iter().map(|h| h.join().expect("shard worker panicked")).collect()
    })
}

/// One write in a batch. Carries its own timestamp so a batch can span
/// simulation ticks and still replay exactly like op-at-a-time
/// application (each shard applies its ops in batch order).
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOp {
    /// Ground-truth move (authoritative space).
    Position {
        /// Entity to move.
        id: EntityId,
        /// New ground-truth position.
        position: Point,
        /// When the move was observed.
        ts: SimTime,
    },
    /// Attribute write (authoritative space).
    Attr {
        /// Entity to update.
        id: EntityId,
        /// Attribute name.
        name: String,
        /// New value.
        value: f64,
        /// When the write was observed.
        ts: SimTime,
    },
}

impl WriteOp {
    /// The entity this op addresses (decides the owner shard).
    pub fn entity(&self) -> EntityId {
        match self {
            WriteOp::Position { id, .. } | WriteOp::Attr { id, .. } => *id,
        }
    }

    /// The op's timestamp.
    pub fn ts(&self) -> SimTime {
        match self {
            WriteOp::Position { ts, .. } | WriteOp::Attr { ts, .. } => *ts,
        }
    }
}

/// The sharded co-space engine. Same observable behaviour as
/// [`Metaverse`] (see module docs), scaled across owner shards.
pub struct ShardedMetaverse {
    shards: Vec<Metaverse>,
    clock: SimTime,
    /// The merged id of the first event still pending on the shards
    /// (per-shard ids are re-numbered at drain).
    next_event: u64,
    /// Per-shard wall seconds of the last [`apply_batch`] call.
    ///
    /// [`apply_batch`]: ShardedMetaverse::apply_batch
    last_shard_walls: Vec<f64>,
    /// When false, `apply_batch`, the checkpoint encode and restore run
    /// shards sequentially on the calling thread (timing mode: on an
    /// oversubscribed host, in-thread wall clocks include descheduling,
    /// so per-shard costs are only honest when shards run one at a time).
    parallel_apply: bool,
    /// Span collector: each (sampled) `apply_batch` call mints a
    /// `core.sharded.apply_batch` root marking the batch's ingest.
    tracer: Option<SharedTracer>,
}

impl ShardedMetaverse {
    /// Build with `shards` owner shards (each a full engine with the
    /// given policy and grid cell size). A shard count of zero is
    /// clamped to one — a sweep written as `0..n` should degrade to the
    /// unsharded engine, not panic.
    pub fn new(policy: SyncPolicy, cell_size: f64, shards: usize) -> Self {
        ShardedMetaverse::build(policy, cell_size, shards, true)
    }

    /// Default policy and cells, on shards that count their events and
    /// keep none: the engine of an owner that never reads them (a durable
    /// engine, a raft replica).
    pub(crate) fn counting(shards: usize) -> Self {
        ShardedMetaverse::build(SyncPolicy::default(), 50.0, shards, false)
    }

    fn build(policy: SyncPolicy, cell_size: f64, shards: usize, record: bool) -> Self {
        let shards = shards.max(1);
        ShardedMetaverse {
            shards: (0..shards).map(|_| Metaverse::shard(policy, cell_size, shards, record)).collect(),
            clock: SimTime::ZERO,
            next_event: 0,
            last_shard_walls: vec![0.0; shards],
            parallel_apply: true,
            tracer: None,
        }
    }

    /// Default policy, 50 m grid cells.
    pub fn with_defaults(shards: usize) -> Self {
        ShardedMetaverse::new(SyncPolicy::default(), 50.0, shards)
    }

    /// Rebuild an engine from what a checkpoint image records of one: the
    /// clock, every entity ever spawned, listed by owner shard (list `s`
    /// holds, in slot order, the entities [`place`] gives to shard `s` of
    /// `shards`; the ids are `0..` their count, the caller checks), the
    /// counter totals and the next event id, with batch application
    /// `parallel` as [`Self::set_parallel_apply`] sets it. Each shard
    /// materialises its own entities as a spawn would, on a worker of its
    /// own above the row gate ([`MIN_ROWS_PER_WORKER`]); the next spawn
    /// takes the id after the last (the rows held), the totals land on
    /// shard 0 (only their sum is observable) and the events the rebuild
    /// regenerates are dropped. Every owner of a restored engine (a
    /// durable engine, a replica) reads no events, so its shards count
    /// them ([`Self::counting`]).
    pub(crate) fn restore(
        shards: usize,
        parallel: bool,
        clock: SimTime,
        owned: Vec<Vec<Entity>>,
        counters: &[(&'static str, u64)],
        next_event: u64,
    ) -> Self {
        let mut mv = ShardedMetaverse::counting(shards);
        mv.parallel_apply = parallel;
        mv.clock = clock;
        mv.next_event = next_event;
        let count = owned.iter().map(Vec::len).sum();
        let threaded = mv.threaded_rows(count);
        debug_assert_eq!(owned.len(), mv.shards.len());
        fan_out(mv.shards.iter_mut().zip(owned), threaded, |(shard, own)| {
            for entity in own {
                shard.insert_prebuilt(entity, clock);
            }
            shard.drain_events();
        });
        if let Some(first) = mv.shards.first_mut() {
            for &(name, total) in counters {
                first.stats.add(name, total);
            }
        }
        mv
    }

    /// Number of owner shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Current engine time (max over observed update times).
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Toggle parallel batch application. With it off, `apply_batch`
    /// applies shard queues sequentially (and the checkpoint encode and
    /// restore run on the calling thread) and the per-shard walls in
    /// [`last_shard_walls`] measure pure per-shard work (no scheduler
    /// interference) — what E1d's critical-path model needs.
    ///
    /// [`last_shard_walls`]: ShardedMetaverse::last_shard_walls
    pub fn set_parallel_apply(&mut self, on: bool) {
        self.parallel_apply = on;
    }

    /// Whether batch application runs on the shard workers (see
    /// [`Self::set_parallel_apply`]).
    pub(crate) fn parallel_apply(&self) -> bool {
        self.parallel_apply
    }

    /// Whether a per-shard round over `rows` entities spawns its workers:
    /// with parallel apply on, more than one shard, and at least
    /// [`MIN_ROWS_PER_WORKER`] rows for each.
    fn threaded_rows(&self, rows: usize) -> bool {
        let n = self.shards.len();
        self.parallel_apply && n > 1 && rows.div_ceil(n) >= MIN_ROWS_PER_WORKER
    }

    /// `work` on every shard, its results in shard order: on one worker
    /// per shard above the row gate ([`MIN_ROWS_PER_WORKER`]), else in
    /// turn on the calling thread — the checkpoint encode's round.
    pub(crate) fn map_shards<T: Send>(&self, work: impl Fn(&Metaverse) -> T + Sync) -> Vec<T> {
        let rows = self.shards.iter().map(Metaverse::row_count).sum();
        fan_out(&self.shards, self.threaded_rows(rows), work)
    }

    /// Install a span collector: each (sampled) [`apply_batch`] call
    /// records a `core.sharded.apply_batch` ingest root.
    ///
    /// [`apply_batch`]: ShardedMetaverse::apply_batch
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.tracer = Some(tracer);
    }

    /// Wall seconds each shard spent applying its queue in the last
    /// [`apply_batch`]. The maximum is the batch's critical path.
    ///
    /// [`apply_batch`]: ShardedMetaverse::apply_batch
    pub fn last_shard_walls(&self) -> &[f64] {
        &self.last_shard_walls
    }

    fn advance(&mut self, now: SimTime) {
        self.clock = self.clock.max(now);
    }

    fn owner(&self, id: EntityId) -> usize {
        place(id, self.shards.len()).0
    }

    /// The shard that owns `id`. Always present (`place` is taken mod
    /// the shard count); looked up, not indexed, because recovery
    /// applies through here.
    fn owner_shard(&mut self, id: EntityId) -> MvResult<&mut Metaverse> {
        let owner = self.owner(id);
        self.shards.get_mut(owner).ok_or(MvError::not_found("entity", id.raw()))
    }

    /// Apply one op. A spawn takes the next id, the number of entities
    /// held, so spawn order yields the dense ids the sequential engine
    /// assigns; an area effect scans every shard's twin index for
    /// targets, then commands (and retires) each through its owner shard
    /// in id order — the commands the sequential engine emits; every
    /// other op goes to its owner shard's [`Metaverse::apply`].
    pub fn apply(&mut self, op: &DurableOp) -> MvResult<Applied> {
        match op {
            DurableOp::Spawn { name, kind, position, ts } => {
                self.advance(*ts);
                let id = EntityId::new(self.spawned_count() as u64);
                if let Ok(shard) = self.owner_shard(id) {
                    shard.insert_prebuilt(Entity::new(id, name.clone(), *kind, *position), *ts);
                }
                Ok(Applied::Spawned(id))
            }
            DurableOp::AreaEffect { space, effect, region, action, retire, ts } => {
                self.advance(*ts);
                // The area-effect fact is a global (entity-less) event;
                // record it once. Shard 0 hosts globals so the merged log
                // sees it exactly once, like the sequential engine's does.
                if let Some(first) = self.shards.first_mut() {
                    first.note_area_effect(*space, effect, *region, *ts);
                }
                let targets = self.probe(|shard, ids| shard.twins_into(*space, region, ids));
                let commands = targets.into_iter().filter_map(|id| {
                    self.owner_shard(id).ok()?.relay_command(id, action, *retire, *ts)
                });
                Ok(Applied::Commands(commands.collect()))
            }
            _ => {
                let id = op.entity().ok_or_else(not_a_write)?;
                self.advance(op.ts());
                self.owner_shard(id)?.apply(op)
            }
        }
    }

    /// Register many entities at once: ids are assigned in input order
    /// (matching sequential spawns), and each shard materializes every
    /// n-th spec from its own offset — on one worker per shard above the
    /// row gate (`MIN_ROWS_PER_WORKER`).
    pub fn spawn_batch(
        &mut self,
        specs: &[(String, EntityKind, Point)],
        now: SimTime,
    ) -> Vec<EntityId> {
        self.advance(now);
        let (n, first) = (self.shards.len(), self.spawned_count());
        let threaded = self.threaded_rows(specs.len());
        fan_out(self.shards.iter_mut().enumerate(), threaded, |(s, shard)| {
            // Spec `i` takes id `first + i`. The shards take consecutive ids
            // in turn, so this one's are every n-th from its first.
            let offset = (0..n).find(|&i| place(EntityId::new((first + i) as u64), n).0 == s);
            for (i, (name, kind, position)) in specs.iter().enumerate().skip(offset.unwrap_or(n)).step_by(n) {
                let id = EntityId::new((first + i) as u64);
                shard.insert_prebuilt(Entity::new(id, name.clone(), *kind, *position), now);
            }
        });
        (first..first + specs.len()).map(|k| EntityId::new(k as u64)).collect()
    }

    /// Apply a batch of writes. Ops are routed to their owner shards
    /// (stable partition: two ops on the same entity keep their relative
    /// order) and the shard queues run on scoped threads. Returns one
    /// result per op, in input order, identical to applying the ops
    /// one-by-one on the sequential engine: `Ok(synced)` or the
    /// per-entity error. Each shard's worker applies its own ops, as
    /// they are, through [`Metaverse::update_position`] and
    /// [`Metaverse::update_attr`].
    pub fn apply_batch(&mut self, ops: &[WriteOp]) -> Vec<MvResult<bool>> {
        self.apply_stamped(ops, |_, _| 0)
    }

    /// The one batch path ([`Self::apply_batch`]), each accepted op also
    /// stamping its field's MVCC head. While the ops are routed, on the
    /// calling thread and in op order, `head` gets each op and its owner
    /// shard and returns the commit timestamp the op's head takes (0:
    /// none). A batch of moves and attribute writes retires no one, so
    /// whether the engine will accept an op is known here already: its
    /// entity is held and live. The owner's worker stamps the timestamp
    /// in the row it has just written.
    pub(crate) fn apply_stamped<'o>(
        &mut self,
        ops: &'o [WriteOp],
        mut head: impl FnMut(&'o WriteOp, &Metaverse) -> u64,
    ) -> Vec<MvResult<bool>> {
        let n = self.shards.len();
        let mut queues: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
        let mut latest = SimTime::ZERO;
        for (i, op) in ops.iter().enumerate() {
            let owner = place(op.entity(), n).0;
            let (Some(queue), Some(shard)) = (queues.get_mut(owner), self.shards.get(owner)) else { continue };
            queue.push((i, head(op, shard)));
            latest = latest.max(op.ts());
        }
        self.advance(latest);
        // One sampled root per batch (not per op): the ingest marker the
        // observability layer keys on, at one Option check when untraced.
        if let Some(tr) = &self.tracer {
            if let Some(ctx) = tr.maybe_trace("core.sharded.apply_batch", self.clock) {
                tr.close(ctx.span, self.clock, "applied");
            }
        }
        let run_queue = |(shard, queue): (&mut Metaverse, &Vec<(usize, u64)>)| {
            // lint:allow(wall-clock): measures real CPU time of the serial critical path for the speedup report; never feeds sim state
            let t0 = Instant::now();
            let out: Vec<(usize, MvResult<bool>)> = queue
                .iter()
                .filter_map(|&(i, ts)| Some((i, shard.write(ops.get(i)?, ts))))
                .collect();
            (out, t0.elapsed().as_secs_f64())
        };
        let done = fan_out(self.shards.iter_mut().zip(&queues), self.parallel_apply, run_queue);
        let mut results: Vec<Option<MvResult<bool>>> = vec![None; ops.len()];
        let mut walls = Vec::with_capacity(n);
        for (out, wall) in done {
            walls.push(wall);
            for (i, r) in out {
                if let Some(slot) = results.get_mut(i) {
                    *slot = Some(r);
                }
            }
        }
        self.last_shard_walls = walls;
        results
            .into_iter()
            // lint:allow(panic-path): routing places every op index in exactly one queue, so every slot was filled
            .map(|r| r.expect("every op was routed to exactly one shard"))
            .collect()
    }

    /// `Ok` when `id` names a live entity, else the refusal a write to
    /// it gets (what a transaction checks its writes against).
    pub(crate) fn live(&self, id: EntityId) -> MvResult<()> {
        let shard = self.shards.get(self.owner(id)).ok_or(MvError::not_found("entity", id.raw()))?;
        shard.live_slot(id).map(drop)
    }

    /// Access an entity as a borrowed column view (routes to the owner
    /// shard).
    pub fn entity(&self, id: EntityId) -> MvResult<EntityRef<'_>> {
        self.shards[self.owner(id)].entity(id)
    }

    /// Entity `id`'s head timestamps, in its owner shard's row.
    pub(crate) fn heads_mut(&mut self, id: EntityId) -> Option<(&mut u64, &mut Attrs)> {
        self.owner_shard(id).ok()?.heads_mut(id)
    }

    /// Number of live entities across all shards.
    pub fn live_count(&self) -> usize {
        self.shards.iter().map(Metaverse::live_count).sum()
    }

    /// Number of entities ever spawned, retired ones included: ids are
    /// dense in spawn order, so theirs are `0..` this count, and it is
    /// the rows the shards hold.
    pub(crate) fn spawned_count(&self) -> usize {
        self.shards.iter().map(Metaverse::row_count).sum()
    }

    /// One probe: every shard appends its hits to one buffer on the
    /// calling thread, and the buffer is sorted once. A probe costs a few
    /// microseconds and a scoped-thread round tens of them, so a single
    /// probe never spawns.
    fn probe(&self, kernel: impl Fn(&Metaverse, &mut Vec<EntityId>)) -> Vec<EntityId> {
        let mut ids = Vec::new();
        for shard in &self.shards {
            kernel(shard, &mut ids);
        }
        sorted_distinct(ids)
    }

    /// Many probes: element `i` is `one(&areas[i])`. Probes are
    /// independent reads, so a large batch is cut into one contiguous run
    /// of probes per shard-count worker (the thread budget `apply_batch`
    /// uses) and each worker runs the single-probe path — at most one
    /// thread round per call, and no reassembly beyond concatenation.
    fn probe_batch<F>(&self, areas: &[Aabb], one: F) -> Vec<Vec<EntityId>>
    where
        F: Fn(&Aabb) -> Vec<EntityId> + Sync,
    {
        let workers = self.shards.len();
        let run = areas.len().div_ceil(workers);
        if workers == 1 || run < MIN_PROBES_PER_WORKER {
            return areas.iter().map(&one).collect();
        }
        let one = &one;
        let runs = fan_out(areas.chunks(run), true, |chunk| chunk.iter().map(one).collect::<Vec<_>>());
        runs.into_iter().flatten().collect()
    }

    /// Ground-truth entities of `space` within `area`, collected across
    /// shards, sorted by id — identical to [`Metaverse::query_truth`].
    pub fn query_truth(&self, space: Space, area: &Aabb) -> Vec<EntityId> {
        self.probe(|shard, ids| shard.truth_into(space, area, ids))
    }

    /// Entities visible in `space` within `area`, collected across
    /// shards, sorted by id — identical to [`Metaverse::query_visible`].
    pub fn query_visible(&self, space: Space, area: &Aabb) -> Vec<EntityId> {
        // Shards partition entities, and an entity's truth and twin rows
        // both live on its owner shard, so per-shard visible sets are
        // disjoint: the union needs no cross-shard dedup.
        self.probe(|shard, ids| shard.visible_into(space, area, ids))
    }

    /// Batched [`query_truth`]: element `i` equals
    /// `query_truth(space, &areas[i])`, at no more than one thread round
    /// for the whole probe set.
    ///
    /// [`query_truth`]: ShardedMetaverse::query_truth
    pub(crate) fn query_truth_batch(&self, space: Space, areas: &[Aabb]) -> Vec<Vec<EntityId>> {
        self.probe_batch(areas, |area| self.query_truth(space, area))
    }

    /// Batched [`query_visible`]: element `i` equals
    /// `query_visible(space, &areas[i])`, at no more than one thread
    /// round for the whole probe set.
    ///
    /// [`query_visible`]: ShardedMetaverse::query_visible
    pub fn query_visible_batch(&self, space: Space, areas: &[Aabb]) -> Vec<Vec<EntityId>> {
        self.probe_batch(areas, |area| self.query_visible(space, area))
    }

    /// Mean twin divergence over live entities across all shards.
    pub fn mean_divergence(&self) -> f64 {
        let (sum, count) = self
            .shards
            .iter()
            .map(Metaverse::divergence_parts)
            .fold((0.0, 0usize), |(s, c), (sum, _, count)| (s + sum, c + count));
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Maximum twin divergence over live entities across all shards.
    pub fn max_divergence(&self) -> f64 {
        self.shards
            .iter()
            .map(Metaverse::max_divergence)
            .fold(0.0, f64::max)
    }

    /// Counter totals summed across shards (`sync_msgs`,
    /// `suppressed_syncs`, `commands`) — equals the sequential engine's
    /// single counter set.
    pub fn stats(&self) -> Counters {
        let mut total = Counters::new();
        for shard in &self.shards {
            total.merge(&shard.stats);
        }
        total
    }

    /// Drain and merge every shard's event buffer into one
    /// deterministically ordered log.
    ///
    /// Merge order is `(ts, entity, shard, shard-local sequence)` with
    /// entity-less events last within a timestamp. Per-entity order is
    /// exact (an entity's events all come from its owner shard, where
    /// the local sequence preserves emission order), and the order never
    /// depends on thread scheduling — replaying the same ops yields a
    /// byte-identical log. Event ids are re-numbered globally. An engine
    /// that only counts its events (a durable engine's, a replica's)
    /// drains an empty log, and its ids advance past the events it
    /// counted.
    pub fn drain_events(&mut self) -> Vec<CoEvent> {
        let mut next = self.next_event;
        self.next_event = self.next_event();
        let mut tagged: Vec<(u64, usize, usize, CoEvent)> = Vec::new();
        for (si, shard) in self.shards.iter_mut().enumerate() {
            for (seq, event) in shard.drain_events().into_iter().enumerate() {
                let entity_key = event.entity.map_or(u64::MAX, EntityId::raw);
                tagged.push((entity_key, si, seq, event));
            }
        }
        tagged.sort_by_key(|(entity_key, si, seq, event)| (event.ts, *entity_key, *si, *seq));
        tagged
            .into_iter()
            .map(|(_, _, _, mut event)| {
                event.id = EventId::new(next);
                next += 1;
                event
            })
            .collect()
    }

    /// The id the next event emitted will get once drained: the next
    /// merged id plus every event pending on the shards, recorded or
    /// counted.
    pub(crate) fn next_event(&self) -> u64 {
        self.next_event + self.shards.iter().map(Metaverse::pending_events).sum::<u64>()
    }

    /// Every shard's event bus, for tests that check what they hold.
    #[cfg(test)]
    pub(crate) fn buses(&self) -> impl Iterator<Item = &crate::events::EventBus> {
        self.shards.iter().map(Metaverse::bus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Command;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// The typed writes these tests drive, each one call into
    /// [`ShardedMetaverse::apply`].
    trait TypedWrites {
        fn spawn(&mut self, name: impl Into<String>, kind: EntityKind, position: Point, ts: SimTime) -> EntityId;
        fn update_position(&mut self, id: EntityId, position: Point, ts: SimTime) -> MvResult<Applied>;
        fn retire(&mut self, id: EntityId, ts: SimTime) -> MvResult<Applied>;
        fn area_effect(&mut self, space: Space, region: Aabb, ts: SimTime) -> Vec<Command>;
    }

    impl TypedWrites for ShardedMetaverse {
        fn spawn(&mut self, name: impl Into<String>, kind: EntityKind, position: Point, ts: SimTime) -> EntityId {
            match self.apply(&DurableOp::Spawn { name: name.into(), kind, position, ts }) {
                Ok(Applied::Spawned(id)) => id,
                other => panic!("a spawn returned {other:?}"),
            }
        }
        fn update_position(&mut self, id: EntityId, position: Point, ts: SimTime) -> MvResult<Applied> {
            self.apply(&DurableOp::Position { id, position, ts })
        }
        fn retire(&mut self, id: EntityId, ts: SimTime) -> MvResult<Applied> {
            self.apply(&DurableOp::Retire { id, ts })
        }
        /// A retiring "raid" relaying "perish".
        fn area_effect(&mut self, space: Space, region: Aabb, ts: SimTime) -> Vec<Command> {
            let (effect, action) = ("raid".to_string(), "perish".to_string());
            match self.apply(&DurableOp::AreaEffect { space, effect, region, action, retire: true, ts }) {
                Ok(Applied::Commands(commands)) => commands,
                other => panic!("an area effect returned {other:?}"),
            }
        }
    }

    #[test]
    fn place_is_exact_round_robin() {
        for n in 1..=8usize {
            let mut held = vec![0usize; n];
            for k in 0..100usize {
                // Ids 0..k spread as evenly as k allows.
                for &h in &held {
                    assert!(h == k / n || h == k.div_ceil(n), "{n} shards, {k} ids: {held:?}");
                }
                let (shard, slot) = place(EntityId::new(k as u64), n);
                assert_eq!((shard, slot), (k % n, held[shard]), "id {k} on {n} shards");
                held[shard] += 1;
            }
        }
        assert_eq!(place(EntityId::new(123), 0), (0, 123), "zero shards clamp to one");
    }

    #[test]
    fn spawn_assigns_sequential_ids_across_shards() {
        let mut mv = ShardedMetaverse::with_defaults(4);
        let a = mv.spawn("a", EntityKind::Person, Point::ORIGIN, t(0));
        let b = mv.spawn("b", EntityKind::Avatar, Point::new(1.0, 1.0), t(1));
        let c = mv.spawn("c", EntityKind::Vehicle, Point::new(2.0, 2.0), t(2));
        assert_eq!((a.raw(), b.raw(), c.raw()), (0, 1, 2));
        assert_eq!(mv.live_count(), 3);
        assert_eq!(mv.now(), t(2));
    }

    #[test]
    fn spawn_batch_matches_sequential_spawns() {
        let specs: Vec<(String, EntityKind, Point)> = (0..64)
            .map(|i| (format!("e{i}"), EntityKind::Person, Point::new(i as f64, 0.0)))
            .collect();
        let mut batched = ShardedMetaverse::with_defaults(4);
        let ids = batched.spawn_batch(&specs, t(0));
        let mut sequential = ShardedMetaverse::with_defaults(4);
        let seq_ids: Vec<_> = specs
            .iter()
            .map(|(n, k, p)| sequential.spawn(n.clone(), *k, *p, t(0)))
            .collect();
        assert_eq!(ids, seq_ids);
        assert_eq!(
            format!("{:?}", batched.drain_events()),
            format!("{:?}", sequential.drain_events())
        );
    }

    #[test]
    fn batch_results_preserve_input_order_and_errors() {
        let mut mv = ShardedMetaverse::with_defaults(4);
        let ids: Vec<_> = (0..8)
            .map(|i| mv.spawn(format!("e{i}"), EntityKind::Person, Point::ORIGIN, t(0)))
            .collect();
        mv.retire(ids[3], t(1)).unwrap();
        let ops: Vec<WriteOp> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| WriteOp::Position {
                id,
                position: Point::new(100.0 + i as f64, 0.0),
                ts: t(2),
            })
            .collect();
        let results = mv.apply_batch(&ops);
        assert_eq!(results.len(), 8);
        for (i, r) in results.iter().enumerate() {
            if i == 3 {
                assert!(r.is_err(), "retired entity must reject the move");
            } else {
                assert!(*r.as_ref().unwrap(), "100 m move forces a sync");
            }
        }
        assert_eq!(mv.stats().get("sync_msgs"), 7);
        assert_eq!(mv.last_shard_walls().len(), 4);
    }

    #[test]
    fn merged_event_log_is_identical_across_runs() {
        let run = || {
            let mut mv = ShardedMetaverse::with_defaults(8);
            let ids: Vec<_> = (0..32)
                .map(|i| mv.spawn(format!("e{i}"), EntityKind::Person, Point::ORIGIN, t(0)))
                .collect();
            let ops: Vec<WriteOp> = ids
                .iter()
                .map(|&id| WriteOp::Position { id, position: Point::new(50.0, 50.0), ts: t(1) })
                .collect();
            mv.apply_batch(&ops);
            mv.area_effect(Space::Virtual, Aabb::centered(Point::new(50.0, 50.0), 10.0), t(2));
            format!("{:?}", mv.drain_events())
        };
        let first = run();
        for _ in 0..4 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn counted_events_number_later_ones_as_a_drain_would() {
        let later = |record: bool| {
            let mut mv = if record { ShardedMetaverse::with_defaults(4) } else { ShardedMetaverse::counting(4) };
            for i in 0..8 {
                mv.spawn(format!("e{i}"), EntityKind::Person, Point::ORIGIN, t(0));
            }
            mv.update_position(EntityId::new(3), Point::new(90.0, 0.0), t(1)).unwrap();
            assert_eq!(mv.drain_events().is_empty(), !record);
            mv.update_position(EntityId::new(5), Point::new(90.0, 0.0), t(2)).unwrap();
            (mv.next_event(), mv.drain_events().len(), mv.next_event())
        };
        assert_eq!(later(true), (10, 1, 10));
        assert_eq!(later(false), (10, 0, 10));
    }

    #[test]
    fn batch_queries_match_per_probe_queries() {
        let mut mv = ShardedMetaverse::with_defaults(4);
        let mut rng = mv_common::seeded_rng(7);
        use rand::Rng as _;
        for i in 0..200 {
            let p = Point::new(rng.gen_range(0.0..500.0), rng.gen_range(0.0..500.0));
            mv.spawn(format!("e{i}"), EntityKind::Person, p, t(0));
        }
        // Move some so twins diverge and both indexes carry entries.
        let ops: Vec<WriteOp> = (0..100u64)
            .map(|i| WriteOp::Position {
                id: EntityId::new(i),
                position: Point::new(rng.gen_range(0.0..500.0), rng.gen_range(0.0..500.0)),
                ts: t(1),
            })
            .collect();
        mv.apply_batch(&ops);
        mv.retire(EntityId::new(3), t(2)).unwrap();
        // 4 shards × 16 probes per worker: 25 probes run on the calling
        // thread, 101 on workers with a short last run.
        let areas: Vec<Aabb> = (0..100)
            .map(|_| {
                let c = Point::new(rng.gen_range(0.0..500.0), rng.gen_range(0.0..500.0));
                Aabb::centered(c, rng.gen_range(5.0..200.0))
            })
            .chain([Aabb::everything()])
            .collect();
        for areas in [&areas[..0], &areas[76..], &areas[..]] {
            for space in [Space::Physical, Space::Virtual] {
                let truth = mv.query_truth_batch(space, areas);
                let visible = mv.query_visible_batch(space, areas);
                assert_eq!((truth.len(), visible.len()), (areas.len(), areas.len()));
                for (i, area) in areas.iter().enumerate() {
                    assert_eq!(truth[i], mv.query_truth(space, area), "truth probe {i}");
                    assert_eq!(visible[i], mv.query_visible(space, area), "visible probe {i}");
                }
            }
        }
    }

    #[test]
    fn nan_positions_never_surface_in_probes() {
        let nan = Point::new(f64::NAN, f64::NAN);
        let mut mv = ShardedMetaverse::with_defaults(2);
        let spawned_nan = mv.spawn("n", EntityKind::Person, nan, t(0));
        let moved_nan = mv.spawn("m", EntityKind::Avatar, Point::new(5.0, 5.0), t(0));
        let stays = mv.spawn("s", EntityKind::Person, Point::new(6.0, 6.0), t(0));
        mv.update_position(moved_nan, nan, t(1)).unwrap();
        // 50 m cells: cell (0, 0) is strictly inside this probe.
        let over_origin = Aabb::new(Point::new(-60.0, -60.0), Point::new(110.0, 110.0));
        for area in [over_origin, Aabb::everything()] {
            // The avatar's twin never synced (NaN divergence compares
            // false), so it is still seen where it last was.
            assert_eq!(mv.query_truth(Space::Physical, &area), vec![stays]);
            assert_eq!(mv.query_truth(Space::Virtual, &area), vec![]);
            assert_eq!(mv.query_visible(Space::Physical, &area), vec![moved_nan, stays]);
        }
        mv.retire(spawned_nan, t(2)).unwrap();
        assert_eq!(mv.live_count(), 2);
    }

    use proptest::prelude::*;
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        // What lets a probe skip the per-hit liveness lookup and the
        // dedup, checked at the end of random sequences of every length
        // (retires and retiring area effects included) on the sequential
        // engine and on every shard.
        #[test]
        fn retired_ids_leave_every_index_and_truth_and_twins_stay_disjoint(
            ops in crate::ops::strategies::OpSeq { min_ops: 1, max_ops: 100, world: 150.0 },
            shards in 1usize..5,
        ) {
            let policy = SyncPolicy { position_bound: 2.0, attr_bound: 0.5 };
            let mut seq = Metaverse::new(policy, 25.0);
            let mut sharded = ShardedMetaverse::new(policy, 25.0, shards);
            prop_assert_eq!(crate::ops::replay(&mut seq, &ops), crate::ops::replay(&mut sharded, &ops));
            seq.assert_index_invariants();
            for shard in &sharded.shards {
                shard.assert_index_invariants();
            }
        }
    }

    /// What `place` promises of `mv` after `spawned` spawns: id `k` is
    /// row `k / n` of shard `k % n` and nowhere else, each shard's rows
    /// ascend, the rows held are the spawns, and an id past them reads
    /// as not found.
    fn check_placement(mv: &ShardedMetaverse, spawned: usize) -> Result<(), TestCaseError> {
        let n = mv.shard_count();
        prop_assert_eq!(mv.spawned_count(), spawned);
        let mut rows = 0;
        for (s, shard) in mv.shards.iter().enumerate() {
            let ids: Vec<u64> = shard.entities_by_id().map(|e| e.id.raw()).collect();
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "shard {s} of {n}: {ids:?}");
            for (row, &k) in ids.iter().enumerate() {
                prop_assert_eq!((k as usize % n, k as usize / n), (s, row));
            }
            rows += ids.len();
            shard.assert_index_invariants();
        }
        prop_assert_eq!(rows, spawned);
        for k in 0..spawned as u64 {
            let id = EntityId::new(k);
            prop_assert_eq!(mv.entity(id).map(|e| e.id).ok(), Some(id));
            let holders = mv.shards.iter().filter(|shard| shard.entity(id).is_ok()).count();
            prop_assert_eq!(holders, 1, "id {} on {} shards", k, n);
        }
        for past in [spawned, spawned + 1, spawned + n] {
            prop_assert!(mv.entity(EntityId::new(past as u64)).is_err(), "id {past} of {spawned}");
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        // Spawns, batch spawns, retires, retiring area effects and an
        // image round trip, each followed by `check_placement`, at 1, 2,
        // 3 (no power of two), 4 and 8 shards.
        #[test]
        fn ids_are_addresses_through_every_write_and_a_round_trip(
            script in collection::vec((0u8..6, 0usize..1000, 0.0f64..200.0, 0.0f64..200.0, 5.0f64..60.0), 1..40),
        ) {
            const KINDS: [EntityKind; 3] = [EntityKind::Person, EntityKind::Avatar, EntityKind::Product];
            for n in [1, 2, 3, 4, 8] {
                let mut mv = ShardedMetaverse::with_defaults(n);
                let mut spawned = 0;
                for (i, &(what, pick, x, y, r)) in script.iter().enumerate() {
                    let (ts, at) = (t(i as u64), Point::new(x, y));
                    match what {
                        0 | 1 => {
                            let id = mv.spawn(format!("e{spawned}"), KINDS[pick % 3], at, ts);
                            prop_assert_eq!(id.raw(), spawned as u64);
                            spawned += 1;
                        }
                        2 => {
                            let specs: Vec<_> = (0..pick % 9)
                                .map(|j| (format!("b{j}"), KINDS[(pick + j) % 3], Point::new(x, y + j as f64)))
                                .collect();
                            let ids = mv.spawn_batch(&specs, ts);
                            let want: Vec<_> = (spawned..spawned + specs.len()).map(|k| EntityId::new(k as u64)).collect();
                            prop_assert_eq!(ids, want);
                            spawned += specs.len();
                        }
                        3 if spawned > 0 => {
                            let _ = mv.retire(EntityId::new((pick % spawned) as u64), ts);
                        }
                        4 => {
                            let space = if pick % 2 == 0 { Space::Physical } else { Space::Virtual };
                            mv.area_effect(space, Aabb::centered(at, r), ts);
                        }
                        _ => {
                            let before = crate::durable::state_encoding(&mv);
                            let image = crate::durable::encode_image(&mv, 0, 0);
                            mv = crate::durable::restore_image(&image, n, pick % 2 == 0, false).expect("an image restores").0;
                            prop_assert_eq!(crate::durable::state_encoding(&mv), before);
                        }
                    }
                    check_placement(&mv, spawned)?;
                }
            }
        }
    }

    #[test]
    fn zero_shards_clamps_to_one_instead_of_panicking() {
        let mut mv = ShardedMetaverse::with_defaults(0);
        assert_eq!(mv.shard_count(), 1);
        // And the clamped engine actually works.
        let id = mv.spawn("e", EntityKind::Avatar, Point::ORIGIN, t(0));
        let ops = [WriteOp::Position { id, position: Point::new(1.0, 2.0), ts: t(1) }];
        mv.apply_batch(&ops);
        assert_eq!(mv.live_count(), 1);
    }

    #[test]
    fn serial_apply_mode_matches_parallel_apply() {
        let build = |parallel: bool| {
            let mut mv = ShardedMetaverse::with_defaults(4);
            mv.set_parallel_apply(parallel);
            let ids: Vec<_> = (0..16)
                .map(|i| mv.spawn(format!("e{i}"), EntityKind::Vehicle, Point::ORIGIN, t(0)))
                .collect();
            let ops: Vec<WriteOp> = ids
                .iter()
                .enumerate()
                .map(|(i, &id)| WriteOp::Position { id, position: Point::new(i as f64 * 3.0, 0.0), ts: t(1) })
                .collect();
            let results: Vec<String> = mv.apply_batch(&ops).iter().map(|r| format!("{r:?}")).collect();
            (results, format!("{:?}", mv.drain_events()), mv.stats().to_string())
        };
        assert_eq!(build(true), build(false));
    }
}
