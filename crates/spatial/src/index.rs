//! The common spatial-index interface and the brute-force baseline.

use mv_common::geom::{Aabb, Point};
use mv_common::hash::FastMap;
use mv_common::id::EntityId;

/// A point index over entities, supporting the update-intensive access
/// pattern §IV-F describes: frequent position updates interleaved with
/// range and k-nearest-neighbour queries.
pub trait SpatialIndex {
    /// Insert an entity at `p`; replaces any previous position.
    fn insert(&mut self, id: EntityId, p: Point);

    /// Remove an entity; returns its last position if present.
    fn remove(&mut self, id: EntityId) -> Option<Point>;

    /// Move an entity to `p` (insert if absent).
    fn update(&mut self, id: EntityId, p: Point) {
        self.remove(id);
        self.insert(id, p);
    }

    /// Current position of an entity.
    fn get(&self, id: EntityId) -> Option<Point>;

    /// All entities inside `area` (boundary inclusive), in arbitrary order.
    fn range(&self, area: &Aabb) -> Vec<EntityId>;

    /// Answer many range probes at once; element `i` equals
    /// `self.range(&areas[i])`.
    fn range_batch(&self, areas: &[Aabb]) -> Vec<Vec<EntityId>> {
        areas.iter().map(|a| self.range(a)).collect()
    }

    /// The `k` entities nearest to `p`, nearest first. Ties are broken by
    /// entity id so results are deterministic.
    fn knn(&self, p: Point, k: usize) -> Vec<EntityId>;

    /// Number of indexed entities.
    fn len(&self) -> usize;

    /// True when the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The O(n)-everything baseline: a flat map scanned on every query.
///
/// Every experiment in E10 compares the real indexes against this; it is
/// also the oracle the property tests check the indexes against.
#[derive(Debug, Default, Clone)]
pub struct ScanIndex {
    positions: FastMap<EntityId, Point>,
}

impl ScanIndex {
    /// An empty baseline index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Iterate all `(id, position)` pairs, ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = (EntityId, Point)> + '_ {
        let mut all: Vec<(EntityId, Point)> =
            self.positions.iter().map(|(k, v)| (*k, *v)).collect();
        all.sort_unstable_by_key(|&(id, _)| id);
        all.into_iter()
    }
}

impl SpatialIndex for ScanIndex {
    fn insert(&mut self, id: EntityId, p: Point) {
        self.positions.insert(id, p);
    }

    fn remove(&mut self, id: EntityId) -> Option<Point> {
        self.positions.remove(&id)
    }

    fn get(&self, id: EntityId) -> Option<Point> {
        self.positions.get(&id).copied()
    }

    fn range(&self, area: &Aabb) -> Vec<EntityId> {
        let mut hits: Vec<EntityId> = self
            .positions
            .iter()
            .filter(|(_, p)| area.contains(**p))
            .map(|(id, _)| *id)
            .collect();
        hits.sort_unstable();
        hits
    }

    fn knn(&self, p: Point, k: usize) -> Vec<EntityId> {
        let mut all: Vec<(EntityId, f64)> =
            self.positions.iter().map(|(id, q)| (*id, p.dist_sq(*q))).collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all.into_iter().map(|(id, _)| id).collect()
    }

    fn len(&self) -> usize {
        self.positions.len()
    }
}

/// Deterministically sort a query result (helper shared by tests and
/// experiments when comparing index outputs).
pub fn sorted(mut ids: Vec<EntityId>) -> Vec<EntityId> {
    ids.sort_unstable();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u64) -> EntityId {
        EntityId::new(i)
    }

    #[test]
    fn insert_get_remove() {
        let mut idx = ScanIndex::new();
        idx.insert(e(1), Point::new(1.0, 1.0));
        assert_eq!(idx.get(e(1)), Some(Point::new(1.0, 1.0)));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.remove(e(1)), Some(Point::new(1.0, 1.0)));
        assert!(idx.is_empty());
        assert_eq!(idx.remove(e(1)), None);
    }

    #[test]
    fn update_moves() {
        let mut idx = ScanIndex::new();
        idx.insert(e(1), Point::new(0.0, 0.0));
        idx.update(e(1), Point::new(5.0, 5.0));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.get(e(1)), Some(Point::new(5.0, 5.0)));
    }

    #[test]
    fn range_query_boundary_inclusive() {
        let mut idx = ScanIndex::new();
        idx.insert(e(1), Point::new(0.0, 0.0));
        idx.insert(e(2), Point::new(1.0, 1.0));
        idx.insert(e(3), Point::new(2.0, 2.0));
        let hits = sorted(idx.range(&Aabb::new(Point::ORIGIN, Point::new(1.0, 1.0))));
        assert_eq!(hits, vec![e(1), e(2)]);
    }

    #[test]
    fn knn_orders_by_distance_then_id() {
        let mut idx = ScanIndex::new();
        idx.insert(e(10), Point::new(1.0, 0.0));
        idx.insert(e(2), Point::new(2.0, 0.0));
        idx.insert(e(5), Point::new(1.0, 0.0)); // tie with e(10)
        let knn = idx.knn(Point::ORIGIN, 2);
        assert_eq!(knn, vec![e(5), e(10)]);
        // k larger than population returns everyone.
        assert_eq!(idx.knn(Point::ORIGIN, 10).len(), 3);
    }
}
