//! An HDoV-style degree-of-visibility hierarchy for virtual walkthroughs.
//!
//! §IV-F cites the HDoV tree (Shou, Huang, Tan — reference \[71\]) as the
//! structure for *"index\[ing\] content at different degrees of visibility
//! in a virtual walkthrough environment"* and asks for a more dynamic
//! variant. This module provides one: a quadtree over scene objects where
//! every internal node carries visibility aggregates (object count,
//! maximum object radius), so a walkthrough query can
//!
//! * prune whole subtrees whose *maximum possible* degree of visibility
//!   from the viewpoint falls below the culling threshold, and
//! * assign each returned object a level of detail ([`Lod`]) from its
//!   actual degree of visibility (apparent size = radius / distance).
//!
//! Unlike the original (statically precomputed) HDoV tree, objects can be
//! inserted and removed at any time — the aggregates are maintained
//! incrementally, which is exactly the "more robust and dynamic
//! structure" the paper calls for.

use mv_common::geom::{Aabb, Point};
use mv_common::hash::FastMap;
use mv_common::id::EntityId;

/// Level of detail at which an object should be streamed/rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lod {
    /// Tiny on screen: coarse impostor.
    Low,
    /// Moderate: reduced mesh/texture.
    Medium,
    /// Dominant on screen: full detail.
    Full,
}

impl Lod {
    /// Classify a degree of visibility (apparent size, radius/distance).
    pub(crate) fn classify(dov: f64) -> Option<Lod> {
        if dov >= FULL_DOV {
            Some(Lod::Full)
        } else if dov >= MEDIUM_DOV {
            Some(Lod::Medium)
        } else if dov >= CULL_DOV {
            Some(Lod::Low)
        } else {
            None
        }
    }

    /// Representative payload size (bytes) for streaming this LOD of an
    /// object whose full representation is `full_bytes` — used by the
    /// dissemination and asset experiments.
    pub fn payload_bytes(self, full_bytes: u64) -> u64 {
        match self {
            Lod::Full => full_bytes,
            Lod::Medium => (full_bytes / 8).max(1),
            Lod::Low => (full_bytes / 64).max(1),
        }
    }
}

/// Apparent size at and above which full detail is used.
pub(crate) const FULL_DOV: f64 = 0.10;
/// Apparent size at and above which medium detail is used.
pub(crate) const MEDIUM_DOV: f64 = 0.02;
/// Apparent size below which an object is culled entirely.
pub(crate) const CULL_DOV: f64 = 0.004;

/// A visible object with its assigned detail level.
#[derive(Debug, Clone, Copy, PartialEq)]
// lint:allow(dead-pub): returned by `HdovTree::walkthrough`, which other crates call
pub struct VisibleObject {
    /// The object.
    pub id: EntityId,
    /// Chosen level of detail.
    pub lod: Lod,
    /// Its degree of visibility from the query viewpoint.
    pub dov: f64,
}

#[derive(Debug, Clone, Copy)]
struct SceneObject {
    pos: Point,
    radius: f64,
}

const LEAF_CAP: usize = 16;
const MAX_DEPTH: u32 = 12;

#[derive(Debug)]
struct QNode {
    bounds: Aabb,
    depth: u32,
    /// Aggregates over the whole subtree.
    count: usize,
    max_radius: f64,
    objects: Vec<(EntityId, SceneObject)>,
    children: Option<Box<[QNode; 4]>>,
}

impl QNode {
    fn new(bounds: Aabb, depth: u32) -> Self {
        QNode { bounds, depth, count: 0, max_radius: 0.0, objects: Vec::new(), children: None }
    }

    fn quadrant(&self, p: Point) -> usize {
        let c = self.bounds.center();
        match (p.x >= c.x, p.y >= c.y) {
            (false, false) => 0,
            (true, false) => 1,
            (false, true) => 2,
            (true, true) => 3,
        }
    }

    fn child_bounds(&self, q: usize) -> Aabb {
        let c = self.bounds.center();
        match q {
            0 => Aabb::new(self.bounds.lo, c),
            1 => Aabb::new(Point::new(c.x, self.bounds.lo.y), Point::new(self.bounds.hi.x, c.y)),
            2 => Aabb::new(Point::new(self.bounds.lo.x, c.y), Point::new(c.x, self.bounds.hi.y)),
            _ => Aabb::new(c, self.bounds.hi),
        }
    }

    fn insert(&mut self, id: EntityId, obj: SceneObject) {
        self.count += 1;
        self.max_radius = self.max_radius.max(obj.radius);
        let q = self.quadrant(obj.pos);
        if let Some(children) = &mut self.children {
            children[q].insert(id, obj);
            return;
        }
        self.objects.push((id, obj));
        if self.objects.len() > LEAF_CAP && self.depth < MAX_DEPTH {
            let mut children = Box::new([
                QNode::new(self.child_bounds(0), self.depth + 1),
                QNode::new(self.child_bounds(1), self.depth + 1),
                QNode::new(self.child_bounds(2), self.depth + 1),
                QNode::new(self.child_bounds(3), self.depth + 1),
            ]);
            for (oid, o) in self.objects.drain(..) {
                let q = match (o.pos.x >= self.bounds.center().x, o.pos.y >= self.bounds.center().y)
                {
                    (false, false) => 0,
                    (true, false) => 1,
                    (false, true) => 2,
                    (true, true) => 3,
                };
                children[q].insert(oid, o);
            }
            self.children = Some(children);
        }
    }

    /// Remove by id+position; returns true when found. Aggregates are
    /// recomputed on the path (max_radius may shrink).
    fn remove(&mut self, id: EntityId, pos: Point) -> bool {
        let q = self.quadrant(pos);
        let found = if let Some(children) = &mut self.children {
            children[q].remove(id, pos)
        } else if let Some(i) = self.objects.iter().position(|(e, _)| *e == id) {
            self.objects.swap_remove(i);
            true
        } else {
            false
        };
        if found {
            self.count -= 1;
            self.max_radius = match &self.children {
                Some(children) => children.iter().map(|c| c.max_radius).fold(0.0, f64::max),
                None => self.objects.iter().map(|(_, o)| o.radius).fold(0.0, f64::max),
            };
        }
        found
    }

    fn walkthrough(&self, viewpoint: Point, out: &mut Vec<VisibleObject>, visited: &mut usize) {
        *visited += 1;
        if self.count == 0 {
            return;
        }
        // Upper bound on any descendant's DoV: the largest radius in the
        // subtree over the smallest possible distance to the node's box.
        let min_dist = self.bounds.min_dist(viewpoint);
        let max_dov = if min_dist <= 0.0 { f64::INFINITY } else { self.max_radius / min_dist };
        if max_dov < CULL_DOV {
            return; // whole subtree invisible — the HDoV pruning step
        }
        if let Some(children) = &self.children {
            for c in children.iter() {
                c.walkthrough(viewpoint, out, visited);
            }
        } else {
            for (id, o) in &self.objects {
                let d = viewpoint.dist(o.pos);
                let dov = if d <= 0.0 { f64::INFINITY } else { o.radius / d };
                if let Some(lod) = Lod::classify(dov) {
                    out.push(VisibleObject { id: *id, lod, dov });
                }
            }
        }
    }
}

/// The dynamic HDoV tree.
#[derive(Debug)]
pub struct HdovTree {
    root: QNode,
    objs: FastMap<EntityId, SceneObject>,
}

impl HdovTree {
    /// Create a tree over the given scene bounds.
    pub fn new(bounds: Aabb) -> Self {
        HdovTree { root: QNode::new(bounds, 0), objs: FastMap::default() }
    }

    /// Insert (or relocate) an object with a bounding radius.
    ///
    /// # Panics
    /// Panics if `radius` is not positive and finite.
    pub fn insert(&mut self, id: EntityId, pos: Point, radius: f64) {
        assert!(radius.is_finite() && radius > 0.0, "object radius must be positive");
        if self.objs.contains_key(&id) {
            self.remove(id);
        }
        let pos = Point::new(
            pos.x.clamp(self.root.bounds.lo.x, self.root.bounds.hi.x),
            pos.y.clamp(self.root.bounds.lo.y, self.root.bounds.hi.y),
        );
        let obj = SceneObject { pos, radius };
        self.objs.insert(id, obj);
        self.root.insert(id, obj);
    }

    /// Remove an object.
    pub fn remove(&mut self, id: EntityId) -> bool {
        match self.objs.remove(&id) {
            Some(obj) => self.root.remove(id, obj.pos),
            None => false,
        }
    }

    /// Number of scene objects.
    pub fn len(&self) -> usize {
        self.objs.len()
    }

    /// True when the scene is empty.
    pub fn is_empty(&self) -> bool {
        self.objs.is_empty()
    }

    /// A walkthrough query: everything visible from `viewpoint`, with
    /// LODs, plus the number of tree nodes visited (the experiment metric
    /// contrasted with the full-scan baseline).
    pub fn walkthrough(&self, viewpoint: Point) -> (Vec<VisibleObject>, usize) {
        let mut out = Vec::new();
        let mut visited = 0usize;
        self.root.walkthrough(viewpoint, &mut out, &mut visited);
        // Deterministic order: most visible first, ties by id.
        out.sort_by(|a, b| {
            b.dov.total_cmp(&a.dov).then(a.id.cmp(&b.id))
        });
        (out, visited)
    }

    /// The brute-force oracle: classify every object with no pruning.
    pub fn walkthrough_scan(&self, viewpoint: Point) -> Vec<VisibleObject> {
        let mut out: Vec<VisibleObject> = self
            .objs
            .iter()
            .filter_map(|(id, o)| {
                let d = viewpoint.dist(o.pos);
                let dov = if d <= 0.0 { f64::INFINITY } else { o.radius / d };
                Lod::classify(dov).map(|lod| VisibleObject { id: *id, lod, dov })
            })
            .collect();
        out.sort_by(|a, b| {
            b.dov.total_cmp(&a.dov).then(a.id.cmp(&b.id))
        });
        out
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

    fn scene() -> HdovTree {
        HdovTree::new(Aabb::new(Point::ORIGIN, Point::new(1000.0, 1000.0)))
    }

    #[test]
    fn lod_classification_thresholds() {
        assert_eq!(Lod::classify(0.5), Some(Lod::Full));
        assert_eq!(Lod::classify(0.05), Some(Lod::Medium));
        assert_eq!(Lod::classify(0.01), Some(Lod::Low));
        assert_eq!(Lod::classify(0.001), None);
    }

    #[test]
    fn payload_shrinks_with_lod() {
        assert_eq!(Lod::Full.payload_bytes(6400), 6400);
        assert_eq!(Lod::Medium.payload_bytes(6400), 800);
        assert_eq!(Lod::Low.payload_bytes(6400), 100);
        assert_eq!(Lod::Low.payload_bytes(10), 1); // floor of 1 byte
    }

    #[test]
    fn near_object_full_far_object_culled() {
        let mut t = scene();
        t.insert(e(1), Point::new(10.0, 10.0), 2.0);
        t.insert(e(2), Point::new(900.0, 900.0), 2.0);
        let (vis, _) = t.walkthrough(Point::new(5.0, 10.0));
        assert_eq!(vis.len(), 1);
        assert_eq!(vis[0].id, e(1));
        assert_eq!(vis[0].lod, Lod::Full);
    }

    #[test]
    fn large_far_object_still_visible() {
        let mut t = scene();
        t.insert(e(1), Point::new(800.0, 800.0), 50.0); // a "mountain"
        let (vis, _) = t.walkthrough(Point::new(0.0, 0.0));
        assert_eq!(vis.len(), 1);
        assert_eq!(vis[0].lod, Lod::Medium); // 50/1131 ≈ 0.044
    }

    #[test]
    fn matches_scan_oracle() {
        let mut rng = seeded_rng(5);
        let mut t = scene();
        for i in 0..2000u64 {
            let p = Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
            t.insert(e(i), p, rng.gen_range(0.1..5.0));
        }
        for _ in 0..20 {
            let vp = Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
            let (vis, _) = t.walkthrough(vp);
            let oracle = t.walkthrough_scan(vp);
            assert_eq!(vis.len(), oracle.len());
            assert_eq!(
                vis.iter().map(|v| (v.id, v.lod)).collect::<Vec<_>>(),
                oracle.iter().map(|v| (v.id, v.lod)).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn pruning_visits_fraction_of_nodes() {
        let mut rng = seeded_rng(6);
        let mut t = scene();
        for i in 0..20_000u64 {
            let p = Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
            t.insert(e(i), p, rng.gen_range(0.1..1.0));
        }
        let (_, visited) = t.walkthrough(Point::new(500.0, 500.0));
        // Count total nodes by a worst-case query from very far away is
        // impossible (everything culls); instead check visited is far
        // below the object count — pruning must be doing real work.
        assert!(visited < 2000, "visited {visited} nodes for 20k objects");
    }

    #[test]
    fn remove_updates_aggregates() {
        let mut t = scene();
        t.insert(e(1), Point::new(500.0, 500.0), 100.0);
        t.insert(e(2), Point::new(510.0, 500.0), 0.5);
        assert!(t.remove(e(1)));
        assert!(!t.remove(e(1)));
        // From far away, only the big object would have been visible; now
        // the subtree must be culled thanks to the shrunken max_radius.
        let (vis, _) = t.walkthrough(Point::new(0.0, 0.0));
        assert!(vis.is_empty());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn relocating_object_changes_visibility() {
        let mut t = scene();
        t.insert(e(1), Point::new(900.0, 900.0), 1.0);
        let (vis, _) = t.walkthrough(Point::new(10.0, 10.0));
        assert!(vis.is_empty());
        t.insert(e(1), Point::new(12.0, 10.0), 1.0); // relocate near
        let (vis, _) = t.walkthrough(Point::new(10.0, 10.0));
        assert_eq!(vis.len(), 1);
        assert_eq!(t.len(), 1);
    }
}
