//! An ST2B-style self-tunable B+-tree index for moving objects.
//!
//! Follows the design of the ST2B-tree (Chen, Ooi, Tan, Nascimento,
//! SIGMOD'08 — the paper's reference \[22\]): moving-object positions are
//! linearized into one-dimensional keys and stored in a B+-tree (here,
//! `std::collections::BTreeMap`, which *is* an in-memory B-tree), with
//! two signature features:
//!
//! 1. **Two time-rolled logical subtrees.** The timeline is divided into
//!    windows; an update lands in the subtree of its window's *phase*
//!    (window index mod 2). A range query consults both phases. When a
//!    window rolls over, the stale phase drains lazily: each object
//!    migrates on its next update, and the infrequent updaters can be
//!    swept with [`St2bTree::force_migrate`]. This keeps updates cheap
//!    (no global reorganization) — the property §IV-F asks for in
//!    *"update intensive applications and frequently changing scenes"*.
//!
//! 2. **Per-region self-tuning grain.** Space is carved into fixed
//!    super-regions; each region linearizes positions with its own grid
//!    granularity, re-chosen from observed density at every
//!    [`St2bTree::tune`] (dense downtown regions get fine cells, empty
//!    countryside coarse ones). Keys are `(phase, region, row, col)` so
//!    one query row is one contiguous B-tree scan.

use crate::index::SpatialIndex;
use mv_common::geom::{Aabb, Point};
use mv_common::hash::FastMap;
use mv_common::id::EntityId;
use mv_common::time::SimTime;
use std::collections::BTreeMap;

/// Maximum cells-per-side for a region's local grid (2^10).
const MAX_GRID: u32 = 1024;
/// Target average number of objects per local cell when tuning.
const TARGET_PER_CELL: f64 = 8.0;

#[derive(Debug, Clone, Copy)]
struct ObjState {
    pos: Point,
    key: u64,
    phase: u8,
}

/// The index. See module docs for the design.
#[derive(Debug)]
pub struct St2bTree {
    /// Side length of a super-region, metres.
    region_size: f64,
    /// Number of regions per side of the covered square universe.
    regions_per_side: u32,
    /// Universe lower corner.
    origin: Point,
    /// Current per-region cells-per-side (tuned).
    grain: Vec<u32>,
    /// Live object counts per region (drives tuning).
    region_counts: Vec<u32>,
    /// Rollover window length in simulated time.
    window: u64,
    /// Current time (drives the phase).
    now: SimTime,
    /// The B-tree: key -> bucket of objects.
    tree: BTreeMap<u64, Vec<EntityId>>,
    /// Per-object state.
    objs: FastMap<EntityId, ObjState>,
}

impl St2bTree {
    /// Create an index covering the square `[origin, origin + regions_per_side
    /// * region_size)²`, with phase windows of `window_us` microseconds.
    ///
    /// Positions outside the universe are clamped onto the border region,
    /// so the structure never loses objects.
    pub fn new(origin: Point, region_size: f64, regions_per_side: u32, window_us: u64) -> Self {
        assert!(region_size > 0.0 && regions_per_side > 0 && window_us > 0);
        let n = (regions_per_side * regions_per_side) as usize;
        St2bTree {
            region_size,
            regions_per_side,
            origin,
            grain: vec![8; n],
            region_counts: vec![0; n],
            window: window_us,
            now: SimTime::ZERO,
            tree: BTreeMap::new(),
            objs: FastMap::default(),
        }
    }

    /// Advance the index's notion of time (phase selection).
    pub fn set_now(&mut self, now: SimTime) {
        self.now = self.now.max(now);
    }

    #[inline]
    fn phase_at(&self, t: SimTime) -> u8 {
        ((t.as_micros() / self.window) % 2) as u8
    }

    #[inline]
    fn region_of(&self, p: Point) -> (u32, u32) {
        let side = self.regions_per_side as i64;
        let rx = (((p.x - self.origin.x) / self.region_size).floor() as i64).clamp(0, side - 1);
        let ry = (((p.y - self.origin.y) / self.region_size).floor() as i64).clamp(0, side - 1);
        (rx as u32, ry as u32)
    }

    #[inline]
    fn region_idx(&self, rx: u32, ry: u32) -> usize {
        (ry * self.regions_per_side + rx) as usize
    }

    /// Key layout (msb→lsb): phase:1 | region:20 | row:10 | col:10.
    fn key_for(&self, p: Point, phase: u8) -> u64 {
        let (rx, ry) = self.region_of(p);
        let ridx = self.region_idx(rx, ry) as u64;
        let g = self.grain[ridx as usize] as f64;
        let cell = self.region_size / g;
        let local_x = p.x - self.origin.x - rx as f64 * self.region_size;
        let local_y = p.y - self.origin.y - ry as f64 * self.region_size;
        let col = ((local_x / cell).floor() as i64).clamp(0, g as i64 - 1) as u64;
        let row = ((local_y / cell).floor() as i64).clamp(0, g as i64 - 1) as u64;
        ((phase as u64) << 40) | (ridx << 20) | (row << 10) | col
    }

    fn tree_insert(&mut self, id: EntityId, key: u64) {
        self.tree.entry(key).or_default().push(id);
    }

    fn tree_remove(&mut self, id: EntityId, key: u64) {
        if let Some(bucket) = self.tree.get_mut(&key) {
            if let Some(i) = bucket.iter().position(|&e| e == id) {
                bucket.swap_remove(i);
            }
            if bucket.is_empty() {
                self.tree.remove(&key);
            }
        }
    }

    /// Timestamped update — the primary ST2B operation. Also advances the
    /// index's clock.
    pub fn update_at(&mut self, id: EntityId, p: Point, now: SimTime) {
        self.set_now(now);
        let phase = self.phase_at(self.now);
        let key = self.key_for(p, phase);
        if let Some(old) = self.objs.insert(id, ObjState { pos: p, key, phase }) {
            self.tree_remove(id, old.key);
            let (orx, ory) = self.region_of(old.pos);
            let oidx = self.region_idx(orx, ory);
            self.region_counts[oidx] = self.region_counts[oidx].saturating_sub(1);
        }
        let (rx, ry) = self.region_of(p);
        let ridx = self.region_idx(rx, ry);
        self.region_counts[ridx] += 1;
        self.tree_insert(id, key);
    }

    /// Migrate every object still filed under the stale phase into the
    /// current phase (the sweep that catches infrequent updaters after a
    /// window rollover). Returns how many objects moved.
    pub fn force_migrate(&mut self) -> usize {
        let current = self.phase_at(self.now);
        let mut stale: Vec<(EntityId, Point)> = self
            .objs
            .iter()
            .filter(|(_, st)| st.phase != current)
            .map(|(id, st)| (*id, st.pos))
            .collect();
        stale.sort_unstable_by_key(|&(id, _)| id);
        let n = stale.len();
        let now = self.now;
        for (id, pos) in stale {
            self.update_at(id, pos, now);
        }
        n
    }

    /// Re-tune every region's grain to the observed density. Objects in
    /// retuned regions are re-keyed immediately (their cells changed).
    /// Returns the number of regions whose grain changed.
    pub fn tune(&mut self) -> usize {
        let mut changed = 0usize;
        let mut retune: Vec<usize> = Vec::new();
        for ridx in 0..self.grain.len() {
            let count = self.region_counts[ridx] as f64;
            let cells = (count / TARGET_PER_CELL).max(1.0);
            let per_side = (cells.sqrt().ceil() as u32).clamp(1, MAX_GRID.min(1 << 10));
            // Snap to powers of two to limit churn.
            let per_side = per_side.next_power_of_two().min(1 << 10);
            if per_side != self.grain[ridx] {
                self.grain[ridx] = per_side;
                changed += 1;
                retune.push(ridx);
            }
        }
        if changed > 0 {
            // Re-key objects in retuned regions.
            let retune_set: std::collections::HashSet<usize> = retune.into_iter().collect();
            let mut affected: Vec<(EntityId, Point)> = self
                .objs
                .iter()
                .filter(|(_, st)| {
                    let (rx, ry) = self.region_of(st.pos);
                    retune_set.contains(&self.region_idx(rx, ry))
                })
                .map(|(id, st)| (*id, st.pos))
                .collect();
            affected.sort_unstable_by_key(|&(id, _)| id);
            let now = self.now;
            for (id, pos) in affected {
                self.update_at(id, pos, now);
            }
        }
        changed
    }

    /// Current grain (cells per side) of the region containing `p`.
    pub fn grain_at(&self, p: Point) -> u32 {
        let (rx, ry) = self.region_of(p);
        self.grain[self.region_idx(rx, ry)]
    }

    fn range_phase(&self, area: &Aabb, phase: u8, out: &mut Vec<EntityId>) {
        // Enumerate regions overlapping the area, then rows within each
        // region; each row is one contiguous B-tree range scan.
        let (rx_lo, ry_lo) = self.region_of(area.lo);
        let (rx_hi, ry_hi) = self.region_of(area.hi);
        for ry in ry_lo..=ry_hi {
            for rx in rx_lo..=rx_hi {
                let ridx = self.region_idx(rx, ry) as u64;
                let g = self.grain[ridx as usize];
                let cell = self.region_size / g as f64;
                let region_x0 = self.origin.x + rx as f64 * self.region_size;
                let region_y0 = self.origin.y + ry as f64 * self.region_size;
                let col_lo =
                    (((area.lo.x - region_x0) / cell).floor() as i64).clamp(0, g as i64 - 1) as u64;
                let col_hi =
                    (((area.hi.x - region_x0) / cell).floor() as i64).clamp(0, g as i64 - 1) as u64;
                let row_lo =
                    (((area.lo.y - region_y0) / cell).floor() as i64).clamp(0, g as i64 - 1) as u64;
                let row_hi =
                    (((area.hi.y - region_y0) / cell).floor() as i64).clamp(0, g as i64 - 1) as u64;
                for row in row_lo..=row_hi {
                    let base = ((phase as u64) << 40) | (ridx << 20) | (row << 10);
                    let start = base | col_lo;
                    let end = base | col_hi;
                    for (_, bucket) in self.tree.range(start..=end) {
                        for &id in bucket {
                            let st = &self.objs[&id];
                            if area.contains(st.pos) {
                                out.push(id);
                            }
                        }
                    }
                }
            }
        }
    }
}

impl SpatialIndex for St2bTree {
    fn insert(&mut self, id: EntityId, p: Point) {
        let now = self.now;
        self.update_at(id, p, now);
    }

    fn remove(&mut self, id: EntityId) -> Option<Point> {
        let st = self.objs.remove(&id)?;
        self.tree_remove(id, st.key);
        let (rx, ry) = self.region_of(st.pos);
        let ridx = self.region_idx(rx, ry);
        self.region_counts[ridx] = self.region_counts[ridx].saturating_sub(1);
        Some(st.pos)
    }

    fn get(&self, id: EntityId) -> Option<Point> {
        self.objs.get(&id).map(|st| st.pos)
    }

    fn range(&self, area: &Aabb) -> Vec<EntityId> {
        let mut out = Vec::new();
        self.range_phase(area, 0, &mut out);
        self.range_phase(area, 1, &mut out);
        out
    }

    fn knn(&self, p: Point, k: usize) -> Vec<EntityId> {
        if k == 0 || self.objs.is_empty() {
            return Vec::new();
        }
        // Expanding-radius search; radius doubles until enough candidates
        // are guaranteed correct (candidates beyond the ring are farther
        // than the ring's inradius).
        let universe = self.region_size * self.regions_per_side as f64;
        let mut r = self.region_size / self.grain_at(p).max(1) as f64;
        loop {
            let hits = self.range(&Aabb::centered(p, r));
            if hits.len() >= k || r > universe * 2.0 {
                let mut scored: Vec<(f64, EntityId)> = if hits.len() >= k {
                    hits.into_iter().map(|id| (p.dist_sq(self.objs[&id].pos), id)).collect()
                } else {
                    // Fewer than k objects in the whole universe.
                    self.objs.iter().map(|(id, st)| (p.dist_sq(st.pos), *id)).collect()
                };
                scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                // Guarantee: the k-th candidate must lie within r (else a
                // point just outside the box could be closer) — if not,
                // expand once more.
                if scored.len() >= k {
                    let kth = scored[k.min(scored.len()) - 1].0.sqrt();
                    if kth > r && r <= universe * 2.0 {
                        r *= 2.0;
                        continue;
                    }
                }
                scored.truncate(k);
                return scored.into_iter().map(|(_, id)| id).collect();
            }
            r *= 2.0;
        }
    }

    fn len(&self) -> usize {
        self.objs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{sorted, ScanIndex};
    use mv_common::seeded_rng;
    use mv_common::time::SimDuration;
    use proptest::prelude::*;
    use rand::Rng;

    fn e(i: u64) -> EntityId {
        EntityId::new(i)
    }

    fn tree() -> St2bTree {
        St2bTree::new(Point::ORIGIN, 25.0, 8, 1_000_000) // 200 m universe
    }

    #[test]
    fn insert_range_remove() {
        let mut t = tree();
        t.insert(e(1), Point::new(10.0, 10.0));
        t.insert(e(2), Point::new(150.0, 150.0));
        let hits = t.range(&Aabb::centered(Point::new(10.0, 10.0), 5.0));
        assert_eq!(hits, vec![e(1)]);
        assert_eq!(t.remove(e(1)), Some(Point::new(10.0, 10.0)));
        assert_eq!(t.len(), 1);
        assert!(t.range(&Aabb::centered(Point::new(10.0, 10.0), 5.0)).is_empty());
    }

    #[test]
    fn out_of_universe_positions_are_clamped_not_lost() {
        let mut t = tree();
        t.insert(e(1), Point::new(-50.0, 900.0));
        assert_eq!(t.len(), 1);
        let all = t.range(&Aabb::everything());
        assert_eq!(all, vec![e(1)]);
        assert_eq!(t.get(e(1)), Some(Point::new(-50.0, 900.0)));
    }

    #[test]
    fn phase_rolls_with_time_and_queries_span_phases() {
        let mut t = tree();
        t.update_at(e(1), Point::new(10.0, 10.0), SimTime::ZERO);
        // One window later the phase flips; a new object lands in phase 1.
        t.update_at(e(2), Point::new(12.0, 10.0), SimTime::from_secs(1));
        let hits = sorted(t.range(&Aabb::centered(Point::new(11.0, 10.0), 5.0)));
        assert_eq!(hits, vec![e(1), e(2)]);
    }

    #[test]
    fn force_migrate_drains_stale_phase() {
        let mut t = tree();
        for i in 0..20u64 {
            t.update_at(e(i), Point::new(i as f64, 5.0), SimTime::ZERO);
        }
        t.set_now(SimTime::ZERO + SimDuration::from_secs(1));
        let moved = t.force_migrate();
        assert_eq!(moved, 20);
        // Everything still findable, now all in the current phase.
        assert_eq!(t.range(&Aabb::everything()).len(), 20);
        assert_eq!(t.force_migrate(), 0);
    }

    #[test]
    fn tuning_refines_dense_regions() {
        let mut t = tree();
        let mut rng = seeded_rng(3);
        // Cram 2000 objects into one region, 3 into another.
        for i in 0..2000u64 {
            let p = Point::new(rng.gen_range(0.0..25.0), rng.gen_range(0.0..25.0));
            t.insert(e(i), p);
        }
        for i in 2000..2003u64 {
            t.insert(e(i), Point::new(150.0 + i as f64 * 0.001, 150.0));
        }
        let changed = t.tune();
        assert!(changed >= 1);
        assert!(t.grain_at(Point::new(10.0, 10.0)) > t.grain_at(Point::new(150.0, 150.0)));
        // Re-keying preserved the data.
        assert_eq!(t.range(&Aabb::everything()).len(), 2003);
        let hits = t.range(&Aabb::new(Point::ORIGIN, Point::new(25.0, 25.0)));
        assert_eq!(hits.len(), 2000);
    }

    #[test]
    fn randomized_equivalence_with_scan_across_time() {
        let mut rng = seeded_rng(11);
        let mut t = tree();
        let mut s = ScanIndex::new();
        let mut now = SimTime::ZERO;
        for step in 0..10 {
            for i in 0..300u64 {
                if rng.gen_bool(0.7) {
                    let p = Point::new(rng.gen_range(0.0..200.0), rng.gen_range(0.0..200.0));
                    t.update_at(e(i), p, now);
                    s.update(e(i), p);
                }
            }
            if step == 4 {
                t.tune();
            }
            if step == 7 {
                t.force_migrate();
            }
            for _ in 0..10 {
                let c = Point::new(rng.gen_range(0.0..200.0), rng.gen_range(0.0..200.0));
                let area = Aabb::centered(c, rng.gen_range(2.0..60.0));
                assert_eq!(sorted(t.range(&area)), sorted(s.range(&area)), "step {step}");
            }
            now += SimDuration::from_millis(400);
        }
        assert_eq!(t.len(), s.len());
    }

    #[test]
    fn knn_matches_scan() {
        let mut rng = seeded_rng(13);
        let mut t = tree();
        let mut s = ScanIndex::new();
        for i in 0..400u64 {
            let p = Point::new(rng.gen_range(0.0..200.0), rng.gen_range(0.0..200.0));
            t.insert(e(i), p);
            s.insert(e(i), p);
        }
        for _ in 0..25 {
            let c = Point::new(rng.gen_range(0.0..200.0), rng.gen_range(0.0..200.0));
            assert_eq!(t.knn(c, 5), s.knn(c, 5));
        }
        // k exceeding the population.
        let mut small = tree();
        small.insert(e(1), Point::new(1.0, 1.0));
        assert_eq!(small.knn(Point::ORIGIN, 10), vec![e(1)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_st2b_range_equals_scan(
            pts in proptest::collection::vec((0.0f64..200.0, 0.0f64..200.0), 1..80),
            qx in 0.0f64..200.0,
            qy in 0.0f64..200.0,
            r in 0.5f64..80.0,
        ) {
            let mut t = tree();
            let mut s = ScanIndex::new();
            for (i, (x, y)) in pts.iter().enumerate() {
                t.insert(e(i as u64), Point::new(*x, *y));
                s.insert(e(i as u64), Point::new(*x, *y));
            }
            let area = Aabb::centered(Point::new(qx, qy), r);
            prop_assert_eq!(sorted(t.range(&area)), sorted(s.range(&area)));
        }
    }
}
