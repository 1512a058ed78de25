//! Uniform-grid point index.
//!
//! The workhorse for update-intensive movement streams: an update touches
//! at most two cells (hash-map buckets), a range query enumerates the
//! covered cells. The grid is the index the co-space engine (`mv-core`)
//! uses for the physical space by default.
//!
//! A bucket holds `(id, point)` pairs, so a probe tests candidates out of
//! contiguous memory, and a cell strictly inside the probe's cell
//! rectangle is taken whole: `p ↦ floor(p / cell_size) as i64` is
//! monotone (division by a positive constant, `floor` and the saturating
//! cast all are), so `cell_of(p) < cell_of(hi)` implies `p < hi`, and
//! likewise above `lo`. A NaN coordinate has no order; it is filed under
//! cell `i64::MIN`, which is never strictly inside any rectangle, so the
//! point test (false for NaN) keeps it out of every result.

use crate::index::SpatialIndex;
use mv_common::geom::{Aabb, Point};
use mv_common::hash::FastMap;
use mv_common::id::EntityId;
use std::collections::hash_map::Entry;

/// Integer cell coordinates.
type Cell = (i64, i64);

/// A uniform grid over the plane with square cells of `cell_size` metres.
#[derive(Debug, Clone)]
pub struct GridIndex {
    cell_size: f64,
    /// Every entry sits in `cell_of` its stored point; no bucket is empty.
    cells: FastMap<Cell, Vec<(EntityId, Point)>>,
    /// Each id's point and its slot in that point's bucket, so a move
    /// out of a crowded cell costs no scan of the crowd.
    positions: FastMap<EntityId, (Point, usize)>,
}

impl GridIndex {
    /// Create a grid with the given cell size.
    ///
    /// # Panics
    /// Panics if `cell_size` is not strictly positive and finite.
    pub fn new(cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell_size must be positive and finite"
        );
        GridIndex { cell_size, cells: FastMap::default(), positions: FastMap::default() }
    }

    /// The configured cell size.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    #[inline]
    fn cell_of(&self, p: Point) -> Cell {
        let axis = |v: f64| if v.is_nan() { i64::MIN } else { (v / self.cell_size).floor() as i64 };
        (axis(p.x), axis(p.y))
    }

    /// Take the entry at `slot` out of `cell`'s bucket; the bucket's last
    /// entry fills the hole and learns its new slot.
    fn unfile(&mut self, cell: Cell, slot: usize) {
        let Entry::Occupied(mut filed) = self.cells.entry(cell) else { return };
        let bucket = filed.get_mut();
        bucket.swap_remove(slot);
        if let Some(&(moved, _)) = bucket.get(slot) {
            if let Some(entry) = self.positions.get_mut(&moved) {
                entry.1 = slot;
            }
        } else if bucket.is_empty() {
            filed.remove();
        }
    }

    /// Append the ids inside `area` (boundary inclusive) to `out`, in
    /// arbitrary order; `out` is never cleared, so one buffer can collect
    /// several probes or indexes.
    ///
    /// Huge queries (e.g. `Aabb::everything()`) would enumerate an
    /// astronomically large cell rectangle; when the query covers more
    /// cells than are occupied, walk the occupied cells instead.
    pub fn range_into(&self, area: &Aabb, out: &mut Vec<EntityId>) {
        let lo = self.cell_of(area.lo);
        let hi = self.cell_of(area.hi);
        let mut take = |(cx, cy): Cell, bucket: &[(EntityId, Point)]| {
            if lo.0 < cx && cx < hi.0 && lo.1 < cy && cy < hi.1 {
                out.extend(bucket.iter().map(|e| e.0));
            } else {
                out.extend(bucket.iter().filter(|e| area.contains(e.1)).map(|e| e.0));
            }
        };
        let span = (hi.0 as i128 - lo.0 as i128 + 1)
            .saturating_mul(hi.1 as i128 - lo.1 as i128 + 1);
        if span > self.cells.len() as i128 {
            let mut covered: Vec<(Cell, &[(EntityId, Point)])> = self
                .cells
                .iter()
                .filter(|(c, _)| lo.0 <= c.0 && c.0 <= hi.0 && lo.1 <= c.1 && c.1 <= hi.1)
                .map(|(c, bucket)| (*c, bucket.as_slice()))
                .collect();
            covered.sort_unstable_by_key(|&(c, _)| c);
            for (cell, bucket) in covered {
                take(cell, bucket);
            }
            return;
        }
        for cx in lo.0..=hi.0 {
            for cy in lo.1..=hi.1 {
                if let Some(bucket) = self.cells.get(&(cx, cy)) {
                    take((cx, cy), bucket);
                }
            }
        }
    }
}

impl SpatialIndex for GridIndex {
    fn insert(&mut self, id: EntityId, p: Point) {
        let bucket = self.cells.entry(self.cell_of(p)).or_default();
        bucket.push((id, p));
        if let Some((old, slot)) = self.positions.insert(id, (p, bucket.len() - 1)) {
            // Drop the stale entry. After a move within one cell that
            // lets the fresh entry, the bucket's last, take its slot.
            self.unfile(self.cell_of(old), slot);
        }
    }

    fn update(&mut self, id: EntityId, p: Point) {
        self.insert(id, p);
    }

    fn remove(&mut self, id: EntityId) -> Option<Point> {
        let (p, slot) = self.positions.remove(&id)?;
        self.unfile(self.cell_of(p), slot);
        Some(p)
    }

    fn get(&self, id: EntityId) -> Option<Point> {
        self.positions.get(&id).map(|&(p, _)| p)
    }

    fn range(&self, area: &Aabb) -> Vec<EntityId> {
        let mut out = Vec::new();
        self.range_into(area, &mut out);
        out
    }

    fn knn(&self, p: Point, k: usize) -> Vec<EntityId> {
        if k == 0 || self.positions.is_empty() {
            return Vec::new();
        }
        // Expanding-ring search: examine cells in growing square rings
        // around p; stop once the k-th best distance is no larger than the
        // closest possible point in the next unexplored ring, or every
        // stored point has been seen (each sits in exactly one cell).
        let center = self.cell_of(p);
        let mut best: Vec<(f64, EntityId)> = Vec::with_capacity(k + 1);
        let mut seen = 0usize;
        let mut walked = 0usize;
        let mut ring = 0i64;
        while seen < self.positions.len() {
            if walked <= self.cells.len() {
                // Visit cells at Chebyshev distance `ring` from the center
                // (wrapping: a wrapped cell is merely visited early).
                let mut visit = |dx: i64, dy: i64| {
                    walked += 1;
                    if let Some(bucket) = self.cells.get(&(center.0.wrapping_add(dx), center.1.wrapping_add(dy))) {
                        seen += bucket.len();
                        best.extend(bucket.iter().map(|&(id, q)| (p.dist_sq(q), id)));
                    }
                };
                if ring == 0 {
                    visit(0, 0);
                } else {
                    for dx in -ring..=ring {
                        visit(dx, -ring);
                        visit(dx, ring);
                    }
                    for dy in (-ring + 1)..ring {
                        visit(-ring, dy);
                        visit(ring, dy);
                    }
                }
            } else {
                // Rings over sparse or far-flung data have cost more cell
                // lookups than there are buckets: one pass over the
                // buckets is the cheaper way to the same answer.
                seen = self.positions.len();
                best.clear();
                best.extend(self.cells.values().flatten().map(|&(id, q)| (p.dist_sq(q), id)));
            }
            best.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            best.truncate(k);
            // Distance to the nearest edge of the next ring.
            if best.len() == k && best[k - 1].0.sqrt() <= ring as f64 * self.cell_size {
                break;
            }
            ring += 1;
        }
        best.into_iter().map(|(_, id)| id).collect()
    }

    fn len(&self) -> usize {
        self.positions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{sorted, ScanIndex};
    use mv_common::seeded_rng;
    use proptest::prelude::*;
    use rand::Rng;

    fn e(i: u64) -> EntityId {
        EntityId::new(i)
    }

    #[test]
    fn basic_insert_range() {
        let mut g = GridIndex::new(10.0);
        g.insert(e(1), Point::new(5.0, 5.0));
        g.insert(e(2), Point::new(15.0, 5.0));
        g.insert(e(3), Point::new(-5.0, -5.0));
        let hits = sorted(g.range(&Aabb::new(Point::ORIGIN, Point::new(20.0, 10.0))));
        assert_eq!(hits, vec![e(1), e(2)]);
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn update_across_cells() {
        let mut g = GridIndex::new(1.0);
        g.insert(e(1), Point::new(0.5, 0.5));
        g.update(e(1), Point::new(10.5, 10.5));
        assert_eq!(g.len(), 1);
        assert!(g.range(&Aabb::centered(Point::new(0.5, 0.5), 0.4)).is_empty());
        assert_eq!(g.range(&Aabb::centered(Point::new(10.5, 10.5), 0.4)), vec![e(1)]);
        assert_eq!(g.cells.len(), 1);
    }

    #[test]
    fn insert_same_cell_does_not_duplicate() {
        let mut g = GridIndex::new(10.0);
        g.insert(e(1), Point::new(1.0, 1.0));
        g.insert(e(1), Point::new(2.0, 2.0)); // same cell
        let hits = g.range(&Aabb::centered(Point::new(2.0, 2.0), 5.0));
        assert_eq!(hits, vec![e(1)]);
    }

    #[test]
    fn everything_query_terminates_and_returns_all() {
        // Regression: the unbounded box used to enumerate 2^64 cells (and
        // its cell-span product overflowed i128). Must be instant.
        let mut g = GridIndex::new(500.0);
        for i in 0..1000u64 {
            g.insert(e(i), Point::new((i % 317) as f64 * 300.0, (i % 211) as f64 * 300.0));
        }
        let t0 = std::time::Instant::now();
        let all = g.range(&Aabb::everything());
        assert_eq!(all.len(), 1000);
        assert!(t0.elapsed().as_millis() < 1000, "everything() too slow");
    }

    #[test]
    fn knn_matches_scan_on_fixed_case() {
        let mut g = GridIndex::new(2.0);
        let mut s = ScanIndex::new();
        let pts = [(0.0, 0.0), (1.0, 1.0), (3.0, 0.0), (10.0, 10.0), (-2.0, 1.0)];
        for (i, (x, y)) in pts.iter().enumerate() {
            g.insert(e(i as u64), Point::new(*x, *y));
            s.insert(e(i as u64), Point::new(*x, *y));
        }
        for k in 0..=5 {
            assert_eq!(g.knn(Point::new(0.2, 0.1), k), s.knn(Point::new(0.2, 0.1), k), "k={k}");
        }
    }

    #[test]
    fn randomized_equivalence_with_scan() {
        let mut rng = seeded_rng(42);
        let mut g = GridIndex::new(7.0);
        let mut s = ScanIndex::new();
        for i in 0..500u64 {
            let p = Point::new(rng.gen_range(-100.0..100.0), rng.gen_range(-100.0..100.0));
            g.insert(e(i), p);
            s.insert(e(i), p);
        }
        // Random updates and removals.
        for i in 0..200u64 {
            let p = Point::new(rng.gen_range(-100.0..100.0), rng.gen_range(-100.0..100.0));
            g.update(e(i), p);
            s.update(e(i), p);
        }
        for i in 300..350u64 {
            assert_eq!(g.remove(e(i)), s.remove(e(i)));
        }
        for _ in 0..50 {
            let c = Point::new(rng.gen_range(-100.0..100.0), rng.gen_range(-100.0..100.0));
            let r = rng.gen_range(1.0..40.0);
            let area = Aabb::centered(c, r);
            assert_eq!(sorted(g.range(&area)), sorted(s.range(&area)));
            assert_eq!(g.knn(c, 5), s.knn(c, 5));
        }
        assert_eq!(g.len(), s.len());
    }

    #[test]
    fn wide_probes_walk_occupied_cells_and_match_scan() {
        let mut rng = seeded_rng(8);
        let mut g = GridIndex::new(5.0);
        let mut s = ScanIndex::new();
        let wide = [Aabb::centered(Point::ORIGIN, 10_000.0), Aabb::everything()];
        for area in &wide {
            assert!(g.range(area).is_empty(), "empty index");
        }
        for i in 0..400u64 {
            let p = Point::new(rng.gen_range(-200.0..200.0), rng.gen_range(-200.0..200.0));
            g.insert(e(i), p);
            s.insert(e(i), p);
        }
        for area in &wide {
            assert_eq!(sorted(g.range(area)), s.range(area));
        }
        assert_eq!(g.range_batch(&wide), vec![g.range(&wide[0]), g.range(&wide[1])]);
    }

    #[test]
    fn range_into_appends_and_never_clears() {
        let mut g = GridIndex::new(10.0);
        g.insert(e(1), Point::new(5.0, 5.0));
        g.insert(e(2), Point::new(95.0, 95.0));
        let mut out = vec![e(77)];
        g.range_into(&Aabb::centered(Point::new(5.0, 5.0), 1.0), &mut out);
        g.range_into(&Aabb::centered(Point::new(50.0, 50.0), 1.0), &mut out);
        g.range_into(&Aabb::centered(Point::new(95.0, 95.0), 1.0), &mut out);
        assert_eq!(out, vec![e(77), e(1), e(2)]);
    }

    #[test]
    fn nan_points_are_stored_but_no_probe_returns_them() {
        let mut g = GridIndex::new(10.0);
        g.insert(e(1), Point::new(f64::NAN, f64::NAN));
        g.insert(e(2), Point::new(5.0, f64::NAN));
        g.insert(e(3), Point::new(5.0, 5.0));
        assert_eq!(g.len(), 3);
        assert!(g.get(e(1)).is_some_and(|p| p.x.is_nan()));
        // Cell (0, 0) is strictly inside this probe's cell rectangle, so
        // its bucket is taken without a point test.
        let around_origin = Aabb::new(Point::new(-25.0, -25.0), Point::new(25.0, 25.0));
        for area in [around_origin, Aabb::centered(Point::new(5.0, 5.0), 1.0), Aabb::everything()] {
            assert_eq!(g.range(&area), vec![e(3)]);
        }
        // A NaN point that becomes finite is indexed like any other, and
        // removal finds a NaN point where it was filed.
        g.update(e(2), Point::new(6.0, 6.0));
        assert_eq!(sorted(g.range(&around_origin)), vec![e(2), e(3)]);
        assert!(g.remove(e(1)).is_some_and(|p| p.y.is_nan()));
        assert_eq!((g.len(), g.cells.len()), (2, 1));
    }

    #[test]
    fn knn_reaches_far_outliers_without_walking_the_gap() {
        let mut g = GridIndex::new(1.0);
        let mut s = ScanIndex::new();
        let pts = [(0.5, 0.5), (2.5, 0.5), (1.0e12, -1.0e12), (f64::INFINITY, 0.0)];
        for (i, (x, y)) in pts.iter().enumerate() {
            g.insert(e(i as u64), Point::new(*x, *y));
            s.insert(e(i as u64), Point::new(*x, *y));
        }
        for k in 1..=5 {
            assert_eq!(g.knn(Point::ORIGIN, k), s.knn(Point::ORIGIN, k), "k={k}");
        }
    }

    /// A coordinate in quarter-cell units, so every fourth value is an
    /// exact multiple of the cell size.
    fn quarter(units: i32, cell: f64) -> f64 {
        f64::from(units) * (cell / 4.0)
    }

    proptest! {
        #[test]
        fn prop_range_into_equals_scan_on_cell_edges(
            pts in proptest::collection::vec((-24i32..24, -24i32..24), 1..60),
            probes in proptest::collection::vec(
                (-26i32..26, -26i32..26, -26i32..26, -26i32..26), 1..10),
            cell in 0.5f64..20.0,
        ) {
            let mut g = GridIndex::new(cell);
            let mut s = ScanIndex::new();
            for (i, &(x, y)) in pts.iter().enumerate() {
                let p = Point::new(quarter(x, cell), quarter(y, cell));
                g.insert(e(i as u64), p);
                s.insert(e(i as u64), p);
            }
            // Corners as drawn: edges on cell edges and on stored points,
            // zero-area boxes, and boxes inverted on either axis.
            let areas = probes
                .iter()
                .map(|&(x0, y0, x1, y1)| Aabb {
                    lo: Point::new(quarter(x0, cell), quarter(y0, cell)),
                    hi: Point::new(quarter(x1, cell), quarter(y1, cell)),
                })
                .chain([Aabb::everything()]);
            let mut out = Vec::new();
            for area in areas {
                let before = out.len();
                g.range_into(&area, &mut out);
                prop_assert_eq!(sorted(out[before..].to_vec()), s.range(&area));
            }
        }

        #[test]
        fn prop_buckets_hold_each_point_once_at_its_current_position(
            ops in proptest::collection::vec((0u8..3, 0u64..12, -24i32..24, -24i32..24), 1..120),
            cell in 0.5f64..20.0,
        ) {
            let mut g = GridIndex::new(cell);
            for &(op, id, x, y) in &ops {
                // Quarter-cell steps make same-cell moves common.
                let p = Point::new(quarter(x, cell), quarter(y, cell));
                match op {
                    0 => g.insert(e(id), p),
                    1 => g.update(e(id), p),
                    _ => { g.remove(e(id)); }
                }
                let mut filed = 0;
                for (&c, bucket) in &g.cells {
                    prop_assert!(!bucket.is_empty());
                    for (slot, &(id, q)) in bucket.iter().enumerate() {
                        prop_assert_eq!(g.positions.get(&id), Some(&(q, slot)));
                        prop_assert_eq!(g.cell_of(q), c);
                        filed += 1;
                    }
                }
                prop_assert_eq!(filed, g.len());
            }
        }

        #[test]
        fn prop_grid_range_equals_scan(
            pts in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..60),
            qx in -50.0f64..50.0,
            qy in -50.0f64..50.0,
            r in 0.1f64..30.0,
            cell in 0.5f64..20.0,
        ) {
            let mut g = GridIndex::new(cell);
            let mut s = ScanIndex::new();
            for (i, (x, y)) in pts.iter().enumerate() {
                g.insert(e(i as u64), Point::new(*x, *y));
                s.insert(e(i as u64), Point::new(*x, *y));
            }
            let area = Aabb::centered(Point::new(qx, qy), r);
            prop_assert_eq!(sorted(g.range(&area)), sorted(s.range(&area)));
        }

        #[test]
        fn prop_grid_knn_equals_scan(
            pts in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..40),
            qx in -50.0f64..50.0,
            qy in -50.0f64..50.0,
            k in 1usize..8,
        ) {
            let mut g = GridIndex::new(5.0);
            let mut s = ScanIndex::new();
            for (i, (x, y)) in pts.iter().enumerate() {
                g.insert(e(i as u64), Point::new(*x, *y));
                s.insert(e(i as u64), Point::new(*x, *y));
            }
            prop_assert_eq!(g.knn(Point::new(qx, qy), k), s.knn(Point::new(qx, qy), k));
        }
    }
}
