//! Moving queries over moving objects.
//!
//! §IV-G, fourth challenge: *"we are also dealing with moving queries (a
//! user moving in the virtual environment may need to track all users
//! within his/her views — as he/she moves, his/her views of the space
//! changes). There are very few works on moving queries over moving
//! objects \[30\], \[29\], and this area is certainly worth further
//! exploration."*
//!
//! This module implements a continuous-range-query engine with two
//! strategies, mirroring the MobiEyes/motion-adaptive line of work:
//!
//! * [`QueryStrategy::NaiveReeval`] — every read re-runs the range query
//!   against the spatial index (one *probe* per read);
//! * [`QueryStrategy::SafeRegion`] — each query caches a candidate set
//!   within an enlarged radius `r + buffer` around an *evaluation point*.
//!   While the observer stays within `buffer` of the evaluation point the
//!   cached candidates are guaranteed to be a superset of the true result,
//!   so reads only filter the cache; object updates patch the cache in
//!   O(1) per query. Only when the observer escapes its safe region does
//!   the engine pay another index probe.
//!
//! The engine counts probes and cache patches so experiment E11c can
//! report the re-evaluation savings.

use crate::grid::GridIndex;
use crate::index::SpatialIndex;
use mv_common::geom::{Aabb, Point};
use mv_common::hash::FastMap;
use mv_common::id::{EntityId, IdGen, QueryId};
use mv_common::metrics::Counters;
use mv_common::{MvError, MvResult};

/// How a continuous query is maintained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryStrategy {
    /// Re-run the index range query on every read.
    NaiveReeval,
    /// Cache candidates within `r + buffer` of an evaluation point;
    /// re-probe only when the observer leaves the safe region.
    SafeRegion {
        /// Extra radius cached beyond the query radius.
        buffer: f64,
    },
}

#[derive(Debug)]
struct ContinuousQuery {
    observer: Point,
    radius: f64,
    /// Where the candidate set was last evaluated.
    eval_point: Point,
    /// Candidate objects (within radius + buffer of eval_point).
    candidates: FastMap<EntityId, Point>,
    /// Whether candidates are populated (SafeRegion only).
    primed: bool,
}

/// A continuous range-query engine over moving objects.
#[derive(Debug)]
pub struct MovingQueryEngine {
    index: GridIndex,
    objects: FastMap<EntityId, Point>,
    queries: FastMap<QueryId, ContinuousQuery>,
    strategy: QueryStrategy,
    ids: IdGen,
    /// `index_probes`, `cache_patches`, `reads` counters.
    pub stats: Counters,
}

impl MovingQueryEngine {
    /// Create an engine with the given maintenance strategy; `cell_size`
    /// configures the underlying grid index.
    pub fn new(strategy: QueryStrategy, cell_size: f64) -> Self {
        if let QueryStrategy::SafeRegion { buffer } = strategy {
            assert!(buffer > 0.0, "safe-region buffer must be positive");
        }
        MovingQueryEngine {
            index: GridIndex::new(cell_size),
            objects: FastMap::default(),
            queries: FastMap::default(),
            strategy,
            ids: IdGen::new(),
            stats: Counters::new(),
        }
    }

    /// The active strategy.
    pub fn strategy(&self) -> QueryStrategy {
        self.strategy
    }

    /// Insert or move an object.
    pub fn update_object(&mut self, id: EntityId, p: Point) {
        self.index.update(id, p);
        self.objects.insert(id, p);
        if let QueryStrategy::SafeRegion { buffer } = self.strategy {
            for q in self.queries.values_mut() {
                if !q.primed {
                    continue;
                }
                let reach = q.radius + buffer;
                if q.eval_point.dist_sq(p) <= reach * reach {
                    q.candidates.insert(id, p);
                    self.stats.incr("cache_patches");
                } else if q.candidates.remove(&id).is_some() {
                    self.stats.incr("cache_patches");
                }
            }
        }
    }

    /// Number of tracked objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Register a continuous range query.
    pub fn register_query(&mut self, observer: Point, radius: f64) -> QueryId {
        let qid: QueryId = self.ids.next();
        self.queries.insert(
            qid,
            ContinuousQuery {
                observer,
                radius,
                eval_point: observer,
                candidates: FastMap::default(),
                primed: false,
            },
        );
        qid
    }

    /// Move a query's observer.
    pub fn move_observer(&mut self, qid: QueryId, p: Point) -> MvResult<()> {
        let q = self
            .queries
            .get_mut(&qid)
            .ok_or(MvError::not_found("query", qid.raw()))?;
        q.observer = p;
        Ok(())
    }

    fn probe(
        index: &GridIndex,
        stats: &mut Counters,
        center: Point,
        radius: f64,
    ) -> Vec<(EntityId, Point)> {
        stats.incr("index_probes");
        index
            .range(&Aabb::centered(center, radius))
            .into_iter()
            .filter_map(|id| {
                let p = index.get(id).expect("indexed object has a position");
                if center.dist_sq(p) <= radius * radius {
                    Some((id, p))
                } else {
                    None
                }
            })
            .collect()
    }

    /// Read the query's current result (ids sorted for determinism).
    pub fn result(&mut self, qid: QueryId) -> MvResult<Vec<EntityId>> {
        let strategy = self.strategy;
        let q = self
            .queries
            .get_mut(&qid)
            .ok_or(MvError::not_found("query", qid.raw()))?;
        self.stats.incr("reads");
        let mut out: Vec<EntityId> = match strategy {
            QueryStrategy::NaiveReeval => {
                Self::probe(&self.index, &mut self.stats, q.observer, q.radius)
                    .into_iter()
                    .map(|(id, _)| id)
                    .collect()
            }
            QueryStrategy::SafeRegion { buffer } => {
                let escaped = q.eval_point.dist_sq(q.observer) > buffer * buffer;
                if !q.primed || escaped {
                    let cands = Self::probe(
                        &self.index,
                        &mut self.stats,
                        q.observer,
                        q.radius + buffer,
                    );
                    q.candidates = cands.into_iter().collect();
                    q.eval_point = q.observer;
                    q.primed = true;
                }
                let r2 = q.radius * q.radius;
                q.candidates
                    .iter()
                    .filter(|(_, p)| q.observer.dist_sq(**p) <= r2)
                    .map(|(id, _)| *id)
                    .collect()
            }
        };
        out.sort_unstable();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_common::seeded_rng;
    use rand::Rng;

    fn e(i: u64) -> EntityId {
        EntityId::new(i)
    }

    #[test]
    fn naive_returns_objects_in_range() {
        let mut eng = MovingQueryEngine::new(QueryStrategy::NaiveReeval, 10.0);
        eng.update_object(e(1), Point::new(1.0, 0.0));
        eng.update_object(e(2), Point::new(100.0, 0.0));
        let q = eng.register_query(Point::ORIGIN, 5.0);
        assert_eq!(eng.result(q).unwrap(), vec![e(1)]);
        eng.move_observer(q, Point::new(99.0, 0.0)).unwrap();
        assert_eq!(eng.result(q).unwrap(), vec![e(2)]);
    }

    #[test]
    fn safe_region_matches_naive_under_random_motion() {
        let mut rng = seeded_rng(21);
        let mut naive = MovingQueryEngine::new(QueryStrategy::NaiveReeval, 10.0);
        let mut safe = MovingQueryEngine::new(QueryStrategy::SafeRegion { buffer: 8.0 }, 10.0);
        // 100 objects.
        let mut pos = Vec::new();
        for i in 0..100u64 {
            let p = Point::new(rng.gen_range(0.0..200.0), rng.gen_range(0.0..200.0));
            naive.update_object(e(i), p);
            safe.update_object(e(i), p);
            pos.push(p);
        }
        let mut obs = Point::new(100.0, 100.0);
        let qn = naive.register_query(obs, 20.0);
        let qs = safe.register_query(obs, 20.0);
        for step in 0..200 {
            // Random small observer step.
            obs = Point::new(
                (obs.x + rng.gen_range(-3.0..3.0)).clamp(0.0, 200.0),
                (obs.y + rng.gen_range(-3.0..3.0)).clamp(0.0, 200.0),
            );
            naive.move_observer(qn, obs).unwrap();
            safe.move_observer(qs, obs).unwrap();
            // A few object moves.
            for _ in 0..5 {
                let i = rng.gen_range(0..100u64);
                let p = Point::new(
                    (pos[i as usize].x + rng.gen_range(-5.0..5.0)).clamp(0.0, 200.0),
                    (pos[i as usize].y + rng.gen_range(-5.0..5.0)).clamp(0.0, 200.0),
                );
                pos[i as usize] = p;
                naive.update_object(e(i), p);
                safe.update_object(e(i), p);
            }
            assert_eq!(
                naive.result(qn).unwrap(),
                safe.result(qs).unwrap(),
                "diverged at step {step}"
            );
        }
        // The whole point: far fewer index probes.
        let naive_probes = naive.stats.get("index_probes");
        let safe_probes = safe.stats.get("index_probes");
        assert!(
            safe_probes * 3 < naive_probes,
            "safe {safe_probes} vs naive {naive_probes} probes"
        );
    }

    #[test]
    fn safe_region_reprobes_on_escape() {
        let mut eng = MovingQueryEngine::new(QueryStrategy::SafeRegion { buffer: 5.0 }, 10.0);
        eng.update_object(e(1), Point::new(0.0, 0.0));
        let q = eng.register_query(Point::ORIGIN, 10.0);
        eng.result(q).unwrap(); // primes: 1 probe
        assert_eq!(eng.stats.get("index_probes"), 1);
        eng.move_observer(q, Point::new(3.0, 0.0)).unwrap();
        eng.result(q).unwrap(); // within buffer: no probe
        assert_eq!(eng.stats.get("index_probes"), 1);
        eng.move_observer(q, Point::new(9.0, 0.0)).unwrap();
        eng.result(q).unwrap(); // escaped: re-probe
        assert_eq!(eng.stats.get("index_probes"), 2);
    }

    #[test]
    fn object_updates_patch_cache() {
        let mut eng = MovingQueryEngine::new(QueryStrategy::SafeRegion { buffer: 5.0 }, 10.0);
        let q = eng.register_query(Point::ORIGIN, 10.0);
        assert!(eng.result(q).unwrap().is_empty());
        // Object appears inside the query range after priming.
        eng.update_object(e(7), Point::new(2.0, 2.0));
        assert_eq!(eng.result(q).unwrap(), vec![e(7)]);
        // …moves to the buffer zone (out of result, still cached)…
        eng.update_object(e(7), Point::new(12.0, 0.0));
        assert!(eng.result(q).unwrap().is_empty());
        // …and far away (dropped from cache).
        eng.update_object(e(7), Point::new(100.0, 0.0));
        assert!(eng.result(q).unwrap().is_empty());
        // All of that without extra probes.
        assert_eq!(eng.stats.get("index_probes"), 1);
        assert!(eng.stats.get("cache_patches") >= 2);
    }

    #[test]
    fn unknown_query_errors() {
        let mut eng = MovingQueryEngine::new(QueryStrategy::NaiveReeval, 10.0);
        assert!(eng.result(QueryId::new(99)).is_err());
        assert!(eng.move_observer(QueryId::new(99), Point::ORIGIN).is_err());
    }
}
