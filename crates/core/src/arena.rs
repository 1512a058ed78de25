//! Struct-of-arrays entity storage.
//!
//! The engine used to keep one `FastMap<EntityId, Entity>` — every
//! access paid a hash hop and landed on a ~130-byte struct mixing the
//! fields hot paths touch every tick (positions, retired flag) with
//! cold ones they never do (name string, attribute map). This arena
//! splits them: entities live in dense columns addressed by a `u32`
//! slot, and the slot is arithmetic on the id — entity `k` of an engine
//! on `n` shards sits at slot `k / n` of shard `k % n` (see
//! `sharded::place`), so no map stands at the edge. Query filters read
//! a packed `retired` column, divergence analytics stream two position
//! columns sequentially, and slot order is ascending id order by
//! construction, so whole-arena scans are already id-sorted.
//!
//! A row also holds its fields' MVCC head timestamps (`crate::txn`): the
//! position's in a column, each attribute's beside its value in [`Attrs`].
//!
//! `Entity` remains the owned construction/transfer type;
//! [`EntityRef`] is the borrowed column view the engine hands out.

use crate::entity::{Attrs, Entity, EntityKind};
use crate::sharded::place;
use mv_common::geom::Point;
use mv_common::id::EntityId;

/// A borrowed view of one entity, assembled from the arena's columns.
///
/// Field-compatible with `Entity` at read sites (`.position`,
/// `.retired`, `.attrs`, …), so swapping the map of structs for the
/// arena did not ripple through every caller.
#[derive(Debug, Clone, Copy)]
// lint:allow(dead-pub): returned by `Metaverse::entity` and `ShardedMetaverse::entity`
pub struct EntityRef<'a> {
    /// Identifier (shared across both presences).
    pub id: EntityId,
    /// Human-readable name.
    pub name: &'a str,
    /// Kind.
    pub kind: EntityKind,
    /// Ground-truth position in the authoritative space.
    pub position: Point,
    /// The other space's materialized view of the position.
    pub twin_position: Point,
    /// Free-form numeric attributes.
    pub attrs: &'a Attrs,
    /// True once destroyed/perished/sold out.
    pub retired: bool,
    /// Commit timestamp of the position's MVCC head (0: none).
    pub(crate) position_ts: u64,
}

impl EntityRef<'_> {
    /// Distance between truth and the materialized twin — the §IV-C
    /// incoherency of this entity.
    pub fn divergence(&self) -> f64 {
        self.position.dist(self.twin_position)
    }

    /// Read an attribute (0 default keeps call sites tidy).
    pub fn attr(&self, name: &str) -> f64 {
        self.attrs.get(name).copied().unwrap_or(0.0)
    }
}

/// The struct-of-arrays arena (see module docs). Slots are never
/// reused: retirement flips a flag but keeps the row, matching the
/// engine's keep-for-audit semantics.
#[derive(Debug, Default)]
pub(crate) struct EntityArena {
    /// The owner shard count, at least 1: the stride between the ids of
    /// consecutive rows.
    shards: usize,
    // Hot columns: touched every tick by updates, queries, analytics.
    /// Row `s` holds the entity `place` puts at slot `s`; checked on
    /// every lookup, so an id held elsewhere reads as not-found.
    ids: Vec<EntityId>,
    positions: Vec<Point>,
    twin_positions: Vec<Point>,
    kinds: Vec<EntityKind>,
    retired: Vec<bool>,
    position_ts: Vec<u64>,
    // Cold columns: touched on spawn, attr ops, and encode only.
    names: Vec<String>,
    attrs: Vec<Attrs>,
    /// Live (non-retired) rows, maintained incrementally so
    /// `live_count` is O(1) instead of a full scan.
    live: usize,
}

impl EntityArena {
    /// An empty arena of one of `shards` owner shards.
    pub fn new(shards: usize) -> Self {
        EntityArena { shards: shards.max(1), ..EntityArena::default() }
    }

    /// Rows (live + retired).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Live (non-retired) rows.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Insert an entity at the next slot, returning it. The caller
    /// places it: the slot is the one `place` gives its id.
    pub fn insert(&mut self, e: Entity) -> u32 {
        let slot = self.ids.len() as u32;
        debug_assert_eq!(place(e.id, self.shards).1, self.ids.len(), "entity {} out of place", e.id);
        self.ids.push(e.id);
        self.positions.push(e.position);
        self.twin_positions.push(e.twin_position);
        self.kinds.push(e.kind);
        self.retired.push(e.retired);
        self.position_ts.push(0);
        self.names.push(e.name);
        self.attrs.push(e.attrs);
        if !e.retired {
            self.live += 1;
        }
        slot
    }

    /// Slot of an id, if this arena holds it.
    pub(crate) fn slot_of(&self, id: EntityId) -> Option<u32> {
        let slot = place(id, self.shards).1;
        (self.ids.get(slot) == Some(&id)).then_some(slot as u32)
    }

    /// Borrowed view by id.
    pub fn get(&self, id: EntityId) -> Option<EntityRef<'_>> {
        self.slot_of(id).and_then(|s| self.get_slot(s))
    }

    /// Borrowed view by slot; `None` on an out-of-range slot.
    ///
    /// Slot accessors here are total: slots only ever come from this
    /// arena, but the arena sits under the durable-replay path, so
    /// every read degrades gracefully instead of panicking. Out-of-range
    /// single-column reads below return the value a missing row would
    /// have (retired, origin positions, zero attrs); engine flows check
    /// [`retired`](EntityArena::retired) first, which turns an
    /// out-of-range slot into an error before any other column is read.
    pub(crate) fn get_slot(&self, slot: u32) -> Option<EntityRef<'_>> {
        let s = slot as usize;
        Some(EntityRef {
            id: self.ids.get(s).copied()?,
            name: self.names.get(s)?,
            kind: self.kinds.get(s).copied()?,
            position: self.positions.get(s).copied()?,
            twin_position: self.twin_positions.get(s).copied()?,
            attrs: self.attrs.get(s)?,
            retired: self.retired.get(s).copied()?,
            position_ts: self.position_ts.get(s).copied()?,
        })
    }

    /// True when `id` is registered and retired. Unknown ids are not
    /// retired (queries only see registered ids).
    pub(crate) fn is_retired(&self, id: EntityId) -> bool {
        self.slot_of(id)
            .and_then(|s| self.retired.get(s as usize))
            .copied()
            .unwrap_or(false)
    }

    /// Retired flag by slot. Out-of-range slots read as retired, so a
    /// bad slot fails closed (callers treat retired as "gone").
    pub fn retired(&self, slot: u32) -> bool {
        self.retired.get(slot as usize).copied().unwrap_or(true)
    }

    /// Kind by slot (out of range: the default kind; unreachable after
    /// a [`retired`](EntityArena::retired) check, which fails closed).
    pub fn kind(&self, slot: u32) -> EntityKind {
        self.kinds.get(slot as usize).copied().unwrap_or(EntityKind::Person)
    }

    /// Truth/twin distance by slot (out of range: 0).
    pub fn divergence(&self, slot: u32) -> f64 {
        match (self.positions.get(slot as usize), self.twin_positions.get(slot as usize)) {
            (Some(p), Some(t)) => p.dist(*t),
            _ => 0.0,
        }
    }

    /// Write the ground-truth position (no-op out of range).
    pub(crate) fn set_position(&mut self, slot: u32, p: Point) {
        if let Some(q) = self.positions.get_mut(slot as usize) {
            *q = p;
        }
    }

    /// Write the twin position (no-op out of range).
    pub(crate) fn set_twin_position(&mut self, slot: u32, p: Point) {
        if let Some(q) = self.twin_positions.get_mut(slot as usize) {
            *q = p;
        }
    }

    /// Write an attribute, returning its previous value (no-op out of range).
    pub(crate) fn set_attr(&mut self, slot: u32, name: &str, v: f64) -> Option<f64> {
        self.attrs.get_mut(slot as usize)?.set(name, v)
    }

    /// Entity `id`'s head timestamps: its position's and its attributes'.
    pub(crate) fn heads_mut(&mut self, id: EntityId) -> Option<(&mut u64, &mut Attrs)> {
        let s = self.slot_of(id)? as usize;
        Some((self.position_ts.get_mut(s)?, self.attrs.get_mut(s)?))
    }

    /// Flip the retired flag on (idempotent calls are the caller's
    /// bug; the engine checks first).
    pub fn retire(&mut self, slot: u32) {
        if let Some(r) = self.retired.get_mut(slot as usize) {
            if !*r {
                *r = true;
                self.live -= 1;
            }
        }
    }

    /// Every row, retired ones included, in ascending id order (slot
    /// order).
    pub(crate) fn rows_by_id(&self) -> impl Iterator<Item = EntityRef<'_>> {
        (0..self.ids.len() as u32).filter_map(|slot| self.get_slot(slot))
    }

    /// `(sum, max, live count)` of twin divergences in ascending-id
    /// order — f64 addition is not associative, so the fold order is
    /// pinned: one sequential pass over two dense columns.
    pub(crate) fn divergence_parts(&self) -> (f64, f64, usize) {
        let rows = self
            .retired
            .iter()
            .zip(self.positions.iter().zip(self.twin_positions.iter()));
        let mut acc = (0.0f64, 0.0f64, 0usize);
        for (&retired, (p, t)) in rows {
            if !retired {
                let d = p.dist(*t);
                acc = (acc.0 + d, f64::max(acc.1, d), acc.2 + 1);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ent(i: u64, x: f64) -> Entity {
        Entity::new(EntityId::new(i), format!("e{i}"), EntityKind::Person, Point::new(x, 0.0))
    }

    #[test]
    fn insert_get_and_columns_agree() {
        let mut a = EntityArena::new(1);
        let s0 = a.insert(ent(0, 1.0));
        let s1 = a.insert(ent(1, 2.0));
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(a.len(), 2);
        assert_eq!(a.live_count(), 2);
        let r = a.get(EntityId::new(1)).unwrap();
        assert_eq!(r.id, EntityId::new(1));
        assert_eq!(r.name, "e1");
        assert_eq!(r.position, Point::new(2.0, 0.0));
        assert_eq!(r.twin_position, r.position);
        assert!(!r.retired);
        assert_eq!(r.divergence(), 0.0);
        assert!(a.get(EntityId::new(9)).is_none());
    }

    #[test]
    fn retire_is_a_flag_not_a_removal() {
        let mut a = EntityArena::new(1);
        a.insert(ent(0, 0.0));
        let s = a.slot_of(EntityId::new(0)).unwrap();
        a.retire(s);
        assert!(a.is_retired(EntityId::new(0)));
        assert_eq!(a.live_count(), 0);
        assert_eq!(a.len(), 1, "row kept for audit");
        assert_eq!(a.get(EntityId::new(0)).unwrap().name, "e0");
    }

    #[test]
    fn attrs_and_positions_update_in_place() {
        let mut a = EntityArena::new(1);
        let s = a.insert(ent(3, 0.0));
        a.set_position(s, Point::new(5.0, 0.0));
        assert_eq!(a.divergence(s), 5.0);
        a.set_twin_position(s, Point::new(5.0, 0.0));
        assert_eq!(a.divergence(s), 0.0);
        assert_eq!(a.get_slot(s).unwrap().attr("fuel"), 0.0);
        assert_eq!(a.set_attr(s, "fuel", 0.75), None);
        assert_eq!(a.set_attr(s, "fuel", 0.5), Some(0.75));
        assert_eq!(a.get_slot(s).unwrap().attr("fuel"), 0.5);
        assert_eq!(a.set_attr(999, "fuel", 1.0), None, "out of range: a no-op");
        assert!(a.get_slot(999).is_none());
        assert!(a.retired(999), "out-of-range slots fail closed as retired");
    }

    #[test]
    fn an_id_of_another_residue_class_reads_as_not_found() {
        // Shard 1 of 3 holds ids 1, 4, 7 at slots 0, 1, 2.
        let mut a = EntityArena::new(3);
        for i in [1u64, 4, 7] {
            a.insert(ent(i, i as f64));
        }
        assert_eq!(a.slot_of(EntityId::new(4)), Some(1));
        assert_eq!(a.get(EntityId::new(7)).unwrap().position, Point::new(7.0, 0.0));
        // Ids 0, 3 and 6 place at slots 0–2 too, but on shard 0.
        for i in [0u64, 3, 6, 2, 10] {
            assert_eq!(a.slot_of(EntityId::new(i)), None, "id {i}");
            assert!(a.get(EntityId::new(i)).is_none());
            assert!(!a.is_retired(EntityId::new(i)));
        }
    }

    #[test]
    fn divergence_parts_fold_live_rows_in_id_order() {
        let mut ordered = EntityArena::new(1);
        for i in 0..40u64 {
            let mut e = ent(i, 0.0);
            e.position = Point::new(i as f64 * 0.1, 0.3);
            if i % 7 == 0 {
                e.retired = true;
            }
            ordered.insert(e);
        }
        let live: Vec<f64> = (0..40u64)
            .filter(|i| i % 7 != 0)
            .map(|i| Point::new(i as f64 * 0.1, 0.3).dist(Point::ORIGIN))
            .collect();
        let sum = live.iter().fold(0.0, |s, d| s + d);
        let max = live.iter().copied().fold(0.0, f64::max);
        assert_eq!(ordered.divergence_parts(), (sum, max, live.len()));
        let ids = ordered.rows_by_id().map(|r| r.id).collect::<Vec<_>>();
        assert_eq!(ids, (0..40).map(EntityId::new).collect::<Vec<_>>());
        assert_eq!(ordered.live_count(), live.len());
    }
}
