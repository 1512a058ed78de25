//! The `Metaverse` engine: Fig. 1's bidirectional loop.
//!
//! Ground-truth movement lands in the authoritative space's spatial
//! index immediately; the *other* space's materialized twin is refreshed
//! only when the divergence exceeds the sync policy's coherency bound —
//! §IV-C's "keep the virtual world as close to the real world as
//! possible … tolerate some degree of discrepancies", which is what
//! makes the cross-space traffic affordable. Virtual actions (area
//! effects) query the virtual index and produce commands relayed to
//! physical actors.

use crate::arena::{EntityArena, EntityRef};
use crate::durable::DurableOp;
use crate::entity::{Attrs, Entity, EntityKind};
use crate::events::{Command, CoEvent, EventBus, EventKind};
use crate::sharded::WriteOp;
use mv_common::geom::{Aabb, Point};
use mv_common::id::EntityId;
use mv_common::metrics::Counters;
use mv_common::time::SimTime;
use mv_common::Space;
use mv_common::{MvError, MvResult};
use mv_spatial::{GridIndex, SpatialIndex};

/// Synchronization policy for the cross-space boundary.
#[derive(Debug, Clone, Copy)]
pub struct SyncPolicy {
    /// Twin positions may lag ground truth by up to this distance
    /// (metres) before a sync message is forced.
    pub position_bound: f64,
    /// Attribute values may drift by this much before syncing.
    pub attr_bound: f64,
}

impl Default for SyncPolicy {
    fn default() -> Self {
        SyncPolicy { position_bound: 1.0, attr_bound: 0.0 }
    }
}

/// What one applied [`DurableOp`] did — the outcome every layer's
/// `apply` returns.
#[derive(Debug, Clone, PartialEq)]
// lint:allow(dead-pub): returned by every layer's `apply`, which other crates call
pub enum Applied {
    /// A spawn registered the entity with this id.
    Spawned(EntityId),
    /// A move or attribute write landed; `true` when a sync message
    /// crossed the boundary.
    Synced(bool),
    /// A retire took the entity out of both spaces.
    Retired,
    /// An area effect relayed these commands, in id order.
    Commands(Vec<Command>),
}

/// The co-space engine.
pub struct Metaverse {
    policy: SyncPolicy,
    /// Struct-of-arrays entity storage: dense hot columns behind u32
    /// slots that are arithmetic on the id (see `EntityArena`).
    entities: EntityArena,
    /// Spatial index over *ground-truth* positions, per authoritative
    /// space. Every index is built at the owner-shard count as its stride,
    /// so it files an entity by its slot.
    truth_index: [GridIndex; 2],
    /// Spatial index over *twin* positions, per materialized space (the
    /// index entry lives in the OPPOSITE space of the entity's authority).
    twin_index: [GridIndex; 2],
    bus: EventBus,
    clock: SimTime,
    /// `sync_msgs`, `suppressed_syncs`, `commands` counters.
    pub stats: Counters,
}

fn space_slot(space: Space) -> usize {
    match space {
        Space::Physical => 0,
        Space::Virtual => 1,
    }
}

/// The two indexes an entity whose authority is `auth` lives in: that
/// space's truth index and the other space's twin index. Matched, not
/// indexed, so the write and restore paths carry no panic-capable
/// indexing.
fn auth_indexes<'a>(
    truth: &'a mut [GridIndex; 2],
    twin: &'a mut [GridIndex; 2],
    auth: Space,
) -> (&'a mut GridIndex, &'a mut GridIndex) {
    let ([truth_phys, truth_virt], [twin_phys, twin_virt]) = (truth, twin);
    match auth {
        Space::Physical => (truth_phys, twin_virt),
        Space::Virtual => (truth_virt, twin_phys),
    }
}

/// The refusal of a transaction record where an engine write belongs.
pub(crate) fn not_a_write() -> MvError {
    MvError::InvalidArgument("a transaction record commits through commit_txn".into())
}

/// Finish a probe: the hits of every shard and index, collected in one
/// buffer, sorted once. Each live entity is in exactly one index per
/// space and on exactly one shard, so the sorted ids are distinct.
pub(crate) fn sorted_distinct(mut ids: Vec<EntityId>) -> Vec<EntityId> {
    ids.sort_unstable();
    debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
    ids
}

impl Metaverse {
    /// Build with a policy; `cell_size` configures all spatial indexes.
    pub fn new(policy: SyncPolicy, cell_size: f64) -> Self {
        Metaverse::shard(policy, cell_size, 1, true)
    }

    /// One of `shards` owner shards of a sharded engine: it holds the
    /// entities `sharded::place` gives it and never spawns on its own.
    /// Its events are recorded when `record`, else only counted
    /// ([`EventBus`]).
    pub(crate) fn shard(policy: SyncPolicy, cell_size: f64, shards: usize, record: bool) -> Self {
        Metaverse {
            policy,
            entities: EntityArena::new(shards),
            // Shard `s` holds ids `≡ s (mod shards)`, at slot `id / shards`:
            // the grids' stride.
            truth_index: [GridIndex::with_stride(cell_size, shards), GridIndex::with_stride(cell_size, shards)],
            twin_index: [GridIndex::with_stride(cell_size, shards), GridIndex::with_stride(cell_size, shards)],
            bus: if record { EventBus::new() } else { EventBus::counting() },
            clock: SimTime::ZERO,
            stats: Counters::new(),
        }
    }

    /// Default policy, 50 m grid cells.
    pub fn with_defaults() -> Self {
        Metaverse::new(SyncPolicy::default(), 50.0)
    }

    /// Current engine time (max over observed update times).
    pub fn now(&self) -> SimTime {
        self.clock
    }

    fn advance(&mut self, now: SimTime) {
        self.clock = self.clock.max(now);
    }

    /// Register an entity; it is immediately materialized in both spaces.
    /// Its id is the number of entities held: ids are dense in spawn
    /// order.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        kind: EntityKind,
        position: Point,
        now: SimTime,
    ) -> EntityId {
        let id = EntityId::new(self.entities.len() as u64);
        self.insert_prebuilt(Entity::new(id, name, kind, position), now);
        id
    }

    /// Insert an entity whose id was allocated elsewhere (the sharded
    /// engine numbers entities globally, then routes each one to the
    /// shard `sharded::place` names). Identical materialization semantics
    /// to [`spawn`]; a restored entity may also arrive retired (it enters
    /// no index) or with a twin that lags its truth.
    ///
    /// [`spawn`]: Metaverse::spawn
    pub(crate) fn insert_prebuilt(&mut self, entity: Entity, now: SimTime) {
        self.advance(now);
        let id = entity.id;
        let auth = entity.kind.authoritative_space();
        if !entity.retired {
            let (truth, twin) = auth_indexes(&mut self.truth_index, &mut self.twin_index, auth);
            truth.insert(id, entity.position);
            twin.insert(id, entity.twin_position);
        }
        self.entities.insert(entity);
        self.bus.emit(now, auth, Some(id), || EventKind::Moved);
    }

    /// Access an entity as a borrowed column view.
    pub fn entity(&self, id: EntityId) -> MvResult<EntityRef<'_>> {
        self.entities.get(id).ok_or(MvError::not_found("entity", id.raw()))
    }

    /// Number of live (non-retired) entities (O(1): the arena keeps
    /// the count).
    pub fn live_count(&self) -> usize {
        self.entities.live_count()
    }

    /// Apply one op: the single dispatch from a [`DurableOp`] onto the
    /// typed writes below. A transaction record is not an engine write
    /// (it commits through `DurableMetaverse::commit_txn`) and is refused
    /// untouched.
    pub fn apply(&mut self, op: &DurableOp) -> MvResult<Applied> {
        match op {
            DurableOp::Spawn { name, kind, position, ts } => {
                Ok(Applied::Spawned(self.spawn(name.clone(), *kind, *position, *ts)))
            }
            DurableOp::Position { id, position, ts } => {
                self.update_position(*id, *position, *ts).map(Applied::Synced)
            }
            DurableOp::Attr { id, name, value, ts } => {
                self.update_attr(*id, name, *value, *ts).map(Applied::Synced)
            }
            DurableOp::Retire { id, ts } => self.retire(*id, *ts).map(|()| Applied::Retired),
            DurableOp::AreaEffect { space, effect, region, action, retire, ts } => Ok(
                Applied::Commands(self.area_effect(*space, effect, *region, action, *retire, *ts)),
            ),
            DurableOp::TxnPrepare { .. } | DurableOp::TxnDecision { .. } => Err(not_a_write()),
        }
    }

    /// Whether `id` names a live entity of this engine: one every write
    /// to it is accepted by.
    pub(crate) fn is_live(&self, id: EntityId) -> bool {
        self.entities.slot_of(id).is_some_and(|slot| !self.entities.retired(slot))
    }

    /// Apply one batched write through [`Self::update_position`] or
    /// [`Self::update_attr`]; once it is accepted, a nonzero `head`
    /// becomes the commit timestamp of the written field's MVCC head, in
    /// the row just written.
    pub(crate) fn write(&mut self, op: &WriteOp, head: u64) -> MvResult<bool> {
        let synced = match op {
            WriteOp::Position { id, position, ts } => self.update_position(*id, *position, *ts)?,
            WriteOp::Attr { id, name, value, ts } => self.update_attr(*id, name, *value, *ts)?,
        };
        if head > 0 {
            if let Some((position_ts, attrs)) = self.entities.heads_mut(op.entity()) {
                match op {
                    WriteOp::Position { .. } => *position_ts = head,
                    WriteOp::Attr { name, .. } => attrs.stamp(name, head),
                }
            }
        }
        Ok(synced)
    }

    /// The slot of a live entity, or the refusal every write to an
    /// unknown or retired entity returns.
    pub(crate) fn live_slot(&self, id: EntityId) -> MvResult<u32> {
        let slot = self
            .entities
            .slot_of(id)
            .ok_or(MvError::not_found("entity", id.raw()))?;
        if self.entities.retired(slot) {
            return Err(MvError::IllegalState(format!("entity {id} is retired")));
        }
        Ok(slot)
    }

    /// Move an entity's ground truth (in its authoritative space). The
    /// twin in the other space syncs only if the coherency bound is
    /// violated. Returns true when a sync message crossed the boundary.
    pub fn update_position(&mut self, id: EntityId, position: Point, now: SimTime) -> MvResult<bool> {
        self.advance(now);
        let slot = self.live_slot(id)?;
        self.entities.set_position(slot, position);
        let auth = self.entities.kind(slot).authoritative_space();
        let (truth, twin) = auth_indexes(&mut self.truth_index, &mut self.twin_index, auth);
        truth.update(id, position);
        let diverged = self.entities.divergence(slot) > self.policy.position_bound;
        if diverged {
            self.entities.set_twin_position(slot, position);
            twin.update(id, position);
            self.stats.incr("sync_msgs");
            self.bus.emit(now, auth.other(), Some(id), || EventKind::TwinSynced);
        } else {
            self.stats.incr("suppressed_syncs");
        }
        Ok(diverged)
    }

    /// Update an attribute of the entity (authoritative-space write);
    /// relayed when it moves more than the attr bound. Returns true when
    /// a sync message crossed the boundary (mirrors [`update_position`]).
    ///
    /// [`update_position`]: Metaverse::update_position
    pub fn update_attr(&mut self, id: EntityId, name: &str, value: f64, now: SimTime) -> MvResult<bool> {
        self.advance(now);
        let slot = self.live_slot(id)?;
        let old = self.entities.set_attr(slot, name, value).unwrap_or(0.0);
        let relayed = (value - old).abs() > self.policy.attr_bound;
        if relayed {
            let auth = self.entities.kind(slot).authoritative_space();
            self.stats.incr("sync_msgs");
            self.bus.emit(now, auth.other(), Some(id), || EventKind::AttrChanged {
                name: name.to_string(),
                value,
            });
        } else {
            self.stats.incr("suppressed_syncs");
        }
        Ok(relayed)
    }

    /// Ground-truth entities of `space` within `area` (its authoritative
    /// residents), excluding retired ones, sorted by id.
    pub fn query_truth(&self, space: Space, area: &Aabb) -> Vec<EntityId> {
        let mut ids = Vec::new();
        self.truth_into(space, area, &mut ids);
        sorted_distinct(ids)
    }

    /// Entities *visible in* `space` within `area`: its own residents
    /// plus materialized twins from the other space — the unified view a
    /// user immersed in that space actually sees.
    pub fn query_visible(&self, space: Space, area: &Aabb) -> Vec<EntityId> {
        let mut ids = Vec::new();
        self.visible_into(space, area, &mut ids);
        sorted_distinct(ids)
    }

    /// Append `index`'s hits in `area` to `out`, unsorted. [`retire`]
    /// removes an id from both of its indexes, so every hit is live and
    /// needs no per-hit lookup.
    ///
    /// [`retire`]: Metaverse::retire
    fn live_into(&self, index: &GridIndex, area: &Aabb, out: &mut Vec<EntityId>) {
        let start = out.len();
        index.range_into(area, out);
        debug_assert!(out[start..].iter().all(|&id| !self.entities.is_retired(id)));
    }

    /// Append the ground-truth residents of `space` within `area` to
    /// `out`, unsorted (the per-shard kernel of a truth probe).
    pub(crate) fn truth_into(&self, space: Space, area: &Aabb, out: &mut Vec<EntityId>) {
        self.live_into(&self.truth_index[space_slot(space)], area, out);
    }

    /// Append the twins materialized in `space` within `area` to `out`,
    /// unsorted — the targets an area effect raised there would hit.
    pub(crate) fn twins_into(&self, space: Space, area: &Aabb, out: &mut Vec<EntityId>) {
        self.live_into(&self.twin_index[space_slot(space)], area, out);
    }

    /// Append everything visible in `space` within `area` to `out`,
    /// unsorted. The two indexes of a space hold disjoint authority
    /// classes (residents against twins of the other space's residents),
    /// so the union needs no dedup.
    pub(crate) fn visible_into(&self, space: Space, area: &Aabb, out: &mut Vec<EntityId>) {
        self.truth_into(space, area, out);
        self.twins_into(space, area, out);
    }

    /// Raise an area effect in `space` (e.g. a virtual air-raid). Every
    /// entity *visible in that space* inside the region whose authority is
    /// the other space gets a relayed command — Fig. 1's virtual→physical
    /// arrow. Affected entities are retired when `retire` is set (the
    /// paper's "the troops should perish").
    pub fn area_effect(
        &mut self,
        space: Space,
        effect: &str,
        region: Aabb,
        action: &str,
        retire: bool,
        now: SimTime,
    ) -> Vec<Command> {
        self.note_area_effect(space, effect, region, now);
        let mut targets = Vec::new();
        self.twins_into(space, &region, &mut targets);
        let targets = sorted_distinct(targets).into_iter();
        targets.filter_map(|id| self.relay_command(id, action, retire, now)).collect()
    }

    /// Record the area-effect fact on the timeline (first half of
    /// [`area_effect`]; split out so the sharded engine can emit it once
    /// while scanning every shard for targets).
    ///
    /// [`area_effect`]: Metaverse::area_effect
    pub(crate) fn note_area_effect(&mut self, space: Space, effect: &str, region: Aabb, now: SimTime) {
        self.advance(now);
        self.bus.emit(now, space, None, || EventKind::AreaEffect { effect: effect.to_string(), region });
    }

    /// Relay one area-effect command to a live entity owned by this
    /// engine, retiring it when requested (second half of
    /// [`area_effect`]). Every target comes from a twin index, which
    /// holds live entities only, so `None` (an unknown id) never happens.
    ///
    /// [`area_effect`]: Metaverse::area_effect
    pub(crate) fn relay_command(&mut self, id: EntityId, action: &str, retire: bool, now: SimTime) -> Option<Command> {
        let slot = self.entities.slot_of(id)?;
        let target_space = self.entities.kind(slot).authoritative_space();
        let command = Command {
            target_space,
            entity: id,
            action: action.to_string(),
            ts: now,
        };
        self.stats.incr("commands");
        if retire {
            let retired = self.retire(id, now);
            debug_assert!(retired.is_ok(), "an area-effect target is live");
        }
        Some(command)
    }

    /// Retire an entity from both spaces.
    pub fn retire(&mut self, id: EntityId, now: SimTime) -> MvResult<()> {
        self.advance(now);
        let slot = self
            .entities
            .slot_of(id)
            .ok_or(MvError::not_found("entity", id.raw()))?;
        if self.entities.retired(slot) {
            return Err(MvError::IllegalState(format!("entity {id} already retired")));
        }
        self.entities.retire(slot);
        let auth = self.entities.kind(slot).authoritative_space();
        let (truth, twin) = auth_indexes(&mut self.truth_index, &mut self.twin_index, auth);
        truth.remove(id);
        twin.remove(id);
        self.bus.emit(now, auth, Some(id), || EventKind::Retired);
        Ok(())
    }

    /// Mean divergence between truth and twins over live entities — the
    /// §IV-C consistency metric E1 reports.
    pub fn mean_divergence(&self) -> f64 {
        let (sum, _, count) = self.divergence_parts();
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Maximum divergence over live entities.
    pub fn max_divergence(&self) -> f64 {
        self.divergence_parts().1
    }

    /// `(sum, max, live count)` of twin divergences — the shard-mergeable
    /// form of [`mean_divergence`]/[`max_divergence`] (sums and maxima
    /// combine across shards; means do not). Max is 0 with no live
    /// entities, mirroring the public accessors.
    ///
    /// [`mean_divergence`]: Metaverse::mean_divergence
    /// [`max_divergence`]: Metaverse::max_divergence
    pub(crate) fn divergence_parts(&self) -> (f64, f64, usize) {
        // f64 addition is not associative, so the arena folds in
        // ascending-id order — slot order, one sequential pass over the
        // dense position columns.
        self.entities.divergence_parts()
    }

    /// Drain the event log.
    pub fn drain_events(&mut self) -> Vec<CoEvent> {
        self.bus.drain()
    }

    /// Events emitted since the last drain, recorded or only counted.
    pub(crate) fn pending_events(&self) -> u64 {
        self.bus.pending_count()
    }

    /// The event bus, for tests that check what it holds.
    #[cfg(test)]
    pub(crate) fn bus(&self) -> &EventBus {
        &self.bus
    }

    /// Every entity held, retired ones included, in ascending id order.
    pub(crate) fn entities_by_id(&self) -> impl Iterator<Item = EntityRef<'_>> {
        self.entities.rows_by_id()
    }

    /// Entities held, retired ones included.
    pub(crate) fn row_count(&self) -> usize {
        self.entities.len()
    }

    /// Entity `id`'s head timestamps: its position's and its attributes'.
    pub(crate) fn heads_mut(&mut self, id: EntityId) -> Option<(&mut u64, &mut Attrs)> {
        self.entities.heads_mut(id)
    }

    /// The two facts the probe path relies on instead of a per-hit
    /// filter and a dedup: a live entity is in exactly its authority's
    /// truth index and the other space's twin index (so the two indexes
    /// of one space are disjoint), and a retired one is in none, at the
    /// positions the arena holds.
    #[cfg(test)]
    pub(crate) fn assert_index_invariants(&self) {
        for slot in 0..self.entities.len() as u32 {
            let e = self.entities.get_slot(slot).expect("slot below len");
            let auth = space_slot(e.kind.authoritative_space());
            let live = |p: Point| (!e.retired).then_some(p);
            assert_eq!(self.truth_index[auth].get(e.id), live(e.position), "{e:?}");
            assert_eq!(self.twin_index[1 - auth].get(e.id), live(e.twin_position), "{e:?}");
            assert_eq!(self.truth_index[1 - auth].get(e.id), None, "{e:?}");
            assert_eq!(self.twin_index[auth].get(e.id), None, "{e:?}");
        }
        let indexed: usize = self.truth_index.iter().chain(&self.twin_index).map(GridIndex::len).sum();
        assert_eq!(indexed, 2 * self.live_count());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_common::seeded_rng;
    use rand::Rng;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn spawn_materializes_in_both_spaces() {
        let mut mv = Metaverse::with_defaults();
        let id = mv.spawn("alice", EntityKind::Person, Point::new(5.0, 5.0), t(0));
        let area = Aabb::centered(Point::new(5.0, 5.0), 1.0);
        assert_eq!(mv.query_truth(Space::Physical, &area), vec![id]);
        // Alice's twin is visible in the virtual space.
        assert_eq!(mv.query_visible(Space::Virtual, &area), vec![id]);
        // But she is not a virtual-authoritative resident.
        assert!(mv.query_truth(Space::Virtual, &area).is_empty());
    }

    #[test]
    fn small_moves_suppress_sync_large_moves_force_it() {
        let mut mv = Metaverse::new(SyncPolicy { position_bound: 2.0, attr_bound: 0.0 }, 50.0);
        let id = mv.spawn("s", EntityKind::Person, Point::ORIGIN, t(0));
        assert!(!mv.update_position(id, Point::new(1.0, 0.0), t(1)).unwrap());
        assert!(!mv.update_position(id, Point::new(1.9, 0.0), t(2)).unwrap());
        assert_eq!(mv.stats.get("suppressed_syncs"), 2);
        assert!(mv.update_position(id, Point::new(4.0, 0.0), t(3)).unwrap());
        assert_eq!(mv.stats.get("sync_msgs"), 1);
        // After the sync, divergence resets.
        assert_eq!(mv.entity(id).unwrap().divergence(), 0.0);
    }

    #[test]
    fn divergence_never_exceeds_bound_after_update() {
        let mut mv = Metaverse::new(SyncPolicy { position_bound: 3.0, attr_bound: 0.0 }, 50.0);
        let mut rng = seeded_rng(4);
        let mut ids = Vec::new();
        for i in 0..50 {
            ids.push(mv.spawn(format!("e{i}"), EntityKind::Vehicle, Point::ORIGIN, t(0)));
        }
        for step in 1..200u64 {
            for &id in &ids {
                let cur = mv.entity(id).unwrap().position;
                let next = Point::new(
                    cur.x + rng.gen_range(-2.0..2.0),
                    cur.y + rng.gen_range(-2.0..2.0),
                );
                mv.update_position(id, next, t(step)).unwrap();
            }
            assert!(
                mv.max_divergence() <= 3.0 + 1e-9,
                "bound violated at step {step}: {}",
                mv.max_divergence()
            );
        }
        // The bound must have actually saved messages.
        assert!(mv.stats.get("suppressed_syncs") > mv.stats.get("sync_msgs"));
    }

    #[test]
    fn virtual_air_raid_perishes_physical_troops_in_region() {
        let mut mv = Metaverse::with_defaults();
        let in_zone = mv.spawn("t1", EntityKind::Person, Point::new(10.0, 10.0), t(0));
        let outside = mv.spawn("t2", EntityKind::Person, Point::new(200.0, 200.0), t(0));
        let cmds = mv.area_effect(
            Space::Virtual,
            "air_raid",
            Aabb::centered(Point::new(10.0, 10.0), 20.0),
            "perish",
            true,
            t(5),
        );
        assert_eq!(cmds.len(), 1);
        assert_eq!(cmds[0].entity, in_zone);
        assert_eq!(cmds[0].target_space, Space::Physical);
        assert_eq!(cmds[0].action, "perish");
        assert!(mv.entity(in_zone).unwrap().retired);
        assert!(!mv.entity(outside).unwrap().retired);
        assert_eq!(mv.live_count(), 1);
        // Retired entities vanish from queries.
        assert!(mv
            .query_visible(Space::Virtual, &Aabb::centered(Point::new(10.0, 10.0), 20.0))
            .is_empty());
    }

    #[test]
    fn stale_twin_position_affects_area_targeting() {
        // The §IV-C trade-off made visible: with a loose bound, a troop
        // that moved out of the blast zone *physically* can still be hit
        // because the virtual twin lags.
        let mut mv = Metaverse::new(SyncPolicy { position_bound: 50.0, attr_bound: 0.0 }, 50.0);
        let id = mv.spawn("t", EntityKind::Person, Point::new(10.0, 10.0), t(0));
        // Physically walks 30 m away — under the 50 m bound, no sync.
        mv.update_position(id, Point::new(40.0, 10.0), t(1)).unwrap();
        assert_eq!(mv.entity(id).unwrap().twin_position, Point::new(10.0, 10.0));
        let cmds = mv.area_effect(
            Space::Virtual,
            "air_raid",
            Aabb::centered(Point::new(10.0, 10.0), 5.0),
            "perish",
            true,
            t(2),
        );
        assert_eq!(cmds.len(), 1, "the stale twin is in the zone");
    }

    #[test]
    fn attr_updates_relay_and_retired_entities_reject_moves() {
        let mut mv = Metaverse::with_defaults();
        let id = mv.spawn("p", EntityKind::Product, Point::ORIGIN, t(0));
        mv.update_attr(id, "stock", 10.0, t(1)).unwrap();
        assert_eq!(mv.entity(id).unwrap().attr("stock"), 10.0);
        let events = mv.drain_events();
        assert!(events
            .iter()
            .any(|e| matches!(&e.kind, EventKind::AttrChanged { name, value } if name == "stock" && *value == 10.0)));
        mv.retire(id, t(2)).unwrap();
        assert!(mv.update_position(id, Point::new(1.0, 1.0), t(3)).is_err());
        assert!(mv.retire(id, t(4)).is_err());
    }

    #[test]
    fn identical_positions_across_spaces_stay_distinct() {
        // A physical person and a virtual avatar at the exact same
        // coordinates: truth queries keep them apart (each is resident
        // in its own space), while both spaces *see* both of them.
        let mut mv = Metaverse::with_defaults();
        let p = Point::new(7.0, 7.0);
        let person = mv.spawn("p", EntityKind::Person, p, t(0));
        let avatar = mv.spawn("a", EntityKind::Avatar, p, t(0));
        let sensor = mv.spawn("s", EntityKind::Sensor, p, t(0));
        let area = Aabb::centered(p, 1.0);
        assert_eq!(mv.query_truth(Space::Physical, &area), vec![person, sensor]);
        assert_eq!(mv.query_truth(Space::Virtual, &area), vec![avatar]);
        for space in Space::ALL {
            assert_eq!(mv.query_visible(space, &area), vec![person, avatar, sensor]);
        }
    }

    #[test]
    fn area_effect_without_retire_leaves_entities_queryable() {
        let mut mv = Metaverse::with_defaults();
        let id = mv.spawn("t", EntityKind::Person, Point::new(10.0, 10.0), t(0));
        let zone = Aabb::centered(Point::new(10.0, 10.0), 5.0);
        let cmds = mv.area_effect(Space::Virtual, "warning_siren", zone, "take_cover", false, t(1));
        assert_eq!(cmds.len(), 1);
        assert_eq!(cmds[0].entity, id);
        assert!(!mv.entity(id).unwrap().retired);
        assert_eq!(mv.live_count(), 1);
        assert_eq!(mv.query_visible(Space::Virtual, &zone), vec![id]);
        // A second effect hits the same (still live) target again.
        let again = mv.area_effect(Space::Virtual, "warning_siren", zone, "take_cover", false, t(2));
        assert_eq!(again.len(), 1);
        assert_eq!(mv.stats.get("commands"), 2);
    }

    #[test]
    fn update_attr_on_retired_entity_errors() {
        let mut mv = Metaverse::with_defaults();
        let id = mv.spawn("p", EntityKind::Product, Point::ORIGIN, t(0));
        mv.update_attr(id, "stock", 5.0, t(1)).unwrap();
        mv.retire(id, t(2)).unwrap();
        let err = mv.update_attr(id, "stock", 7.0, t(3)).unwrap_err();
        assert!(matches!(err, MvError::IllegalState(_)), "got {err:?}");
        // The write was rejected, not half-applied.
        assert_eq!(mv.entity(id).unwrap().attr("stock"), 5.0);
    }

    #[test]
    fn divergence_metrics_are_zero_when_all_entities_retired() {
        let mut mv = Metaverse::new(SyncPolicy { position_bound: 100.0, attr_bound: 0.0 }, 50.0);
        let a = mv.spawn("a", EntityKind::Person, Point::ORIGIN, t(0));
        let b = mv.spawn("b", EntityKind::Vehicle, Point::ORIGIN, t(0));
        // Build up real divergence first (under the loose bound, no sync).
        mv.update_position(a, Point::new(30.0, 0.0), t(1)).unwrap();
        mv.update_position(b, Point::new(0.0, 40.0), t(1)).unwrap();
        assert!(mv.mean_divergence() > 0.0);
        assert!(mv.max_divergence() > 0.0);
        mv.retire(a, t(2)).unwrap();
        mv.retire(b, t(2)).unwrap();
        assert_eq!(mv.live_count(), 0);
        assert_eq!(mv.mean_divergence(), 0.0);
        assert_eq!(mv.max_divergence(), 0.0);
    }

    #[test]
    fn unknown_entity_errors() {
        let mut mv = Metaverse::with_defaults();
        assert!(mv.entity(EntityId::new(9)).is_err());
        assert!(mv.update_position(EntityId::new(9), Point::ORIGIN, t(0)).is_err());
        assert!(mv.update_attr(EntityId::new(9), "x", 1.0, t(0)).is_err());
    }

    #[test]
    fn avatars_are_virtual_authoritative() {
        let mut mv = Metaverse::with_defaults();
        let id = mv.spawn("npc", EntityKind::Avatar, Point::new(3.0, 3.0), t(0));
        let area = Aabb::centered(Point::new(3.0, 3.0), 1.0);
        assert_eq!(mv.query_truth(Space::Virtual, &area), vec![id]);
        // The avatar's twin is what physical users see (e.g. via AR).
        assert_eq!(mv.query_visible(Space::Physical, &area), vec![id]);
    }
}
