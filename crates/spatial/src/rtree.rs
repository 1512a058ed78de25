//! An in-memory R-tree with quadratic splits.
//!
//! Serves two roles: (a) the classic disk-era spatial index the paper's
//! §IV-F implies is a poor fit for update-intensive metaverse workloads —
//! E10 quantifies its update cost against the grid and ST2B trees — and
//! (b) a genuinely fast range/kNN structure for mostly-static data
//! (terrain features, shop footprints).

use crate::index::SpatialIndex;
use mv_common::geom::{Aabb, Point};
use mv_common::hash::FastMap;
use mv_common::id::EntityId;

const MAX_ENTRIES: usize = 16;
const MIN_ENTRIES: usize = 6; // ~40% of MAX, the classic Guttman setting

#[derive(Debug, Clone)]
enum Node {
    Leaf { mbr: Aabb, entries: Vec<(EntityId, Point)> },
    Inner { mbr: Aabb, children: Vec<Node> },
}

impl Node {
    fn mbr(&self) -> Aabb {
        match self {
            Node::Leaf { mbr, .. } | Node::Inner { mbr, .. } => *mbr,
        }
    }

    fn recompute_mbr(&mut self) {
        match self {
            Node::Leaf { mbr, entries } => {
                let mut b = Aabb::new(entries[0].1, entries[0].1);
                for (_, p) in entries.iter().skip(1) {
                    b.expand_to(*p);
                }
                *mbr = b;
            }
            Node::Inner { mbr, children } => {
                let mut b = children[0].mbr();
                for c in children.iter().skip(1) {
                    b = b.union(&c.mbr());
                }
                *mbr = b;
            }
        }
    }

    #[cfg(test)]
    fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Inner { children, .. } => 1 + children[0].depth(),
        }
    }
}

/// An R-tree point index.
#[derive(Debug, Clone)]
pub struct RTree {
    root: Option<Node>,
    positions: FastMap<EntityId, Point>,
}

impl Default for RTree {
    fn default() -> Self {
        Self::new()
    }
}

impl RTree {
    /// An empty tree.
    pub fn new() -> Self {
        RTree { root: None, positions: FastMap::default() }
    }

    /// Height of the tree (diagnostics; 0 when empty).
    #[cfg(test)]
    pub(crate) fn height(&self) -> usize {
        self.root.as_ref().map_or(0, Node::depth)
    }

    fn insert_rec(node: &mut Node, id: EntityId, p: Point) -> Option<Node> {
        match node {
            Node::Leaf { mbr, entries } => {
                entries.push((id, p));
                mbr.expand_to(p);
                if entries.len() > MAX_ENTRIES {
                    let (a, b) = split_leaf(std::mem::take(entries));
                    let (mbr_a, ent_a) = a;
                    let (mbr_b, ent_b) = b;
                    *node = Node::Leaf { mbr: mbr_a, entries: ent_a };
                    Some(Node::Leaf { mbr: mbr_b, entries: ent_b })
                } else {
                    None
                }
            }
            Node::Inner { mbr, children } => {
                mbr.expand_to(p);
                // Choose the child needing least enlargement (ties: area).
                let pbox = Aabb::new(p, p);
                let mut best = 0usize;
                let mut best_enl = f64::INFINITY;
                let mut best_area = f64::INFINITY;
                for (i, c) in children.iter().enumerate() {
                    let enl = c.mbr().enlargement(&pbox);
                    let area = c.mbr().area();
                    if enl < best_enl || (enl == best_enl && area < best_area) {
                        best = i;
                        best_enl = enl;
                        best_area = area;
                    }
                }
                if let Some(split) = Self::insert_rec(&mut children[best], id, p) {
                    children.push(split);
                    if children.len() > MAX_ENTRIES {
                        let (a, b) = split_inner(std::mem::take(children));
                        let (mbr_a, ch_a) = a;
                        let (mbr_b, ch_b) = b;
                        *node = Node::Inner { mbr: mbr_a, children: ch_a };
                        return Some(Node::Inner { mbr: mbr_b, children: ch_b });
                    }
                }
                None
            }
        }
    }

    /// Remove an entry; returns true when found. Underfull nodes are
    /// handled by re-inserting orphaned entries (Guttman's condense step,
    /// simplified: we only condense the path we touched).
    fn remove_rec(node: &mut Node, id: EntityId, p: Point, orphans: &mut Vec<(EntityId, Point)>) -> bool {
        match node {
            Node::Leaf { entries, .. } => {
                if let Some(idx) = entries.iter().position(|(e, _)| *e == id) {
                    entries.swap_remove(idx);
                    if !entries.is_empty() {
                        node.recompute_mbr();
                    }
                    true
                } else {
                    false
                }
            }
            Node::Inner { children, .. } => {
                let mut found = false;
                let mut remove_child: Option<usize> = None;
                for (i, c) in children.iter_mut().enumerate() {
                    if c.mbr().contains(p) && Self::remove_rec(c, id, p, orphans) {
                        found = true;
                        let under = match c {
                            Node::Leaf { entries, .. } => entries.len() < MIN_ENTRIES,
                            Node::Inner { children, .. } => children.len() < MIN_ENTRIES,
                        };
                        if under {
                            remove_child = Some(i);
                        }
                        break;
                    }
                }
                if let Some(i) = remove_child {
                    let removed = children.swap_remove(i);
                    collect_entries(removed, orphans);
                }
                if found && !children.is_empty() {
                    node.recompute_mbr();
                }
                found
            }
        }
    }

    fn range_rec(node: &Node, area: &Aabb, out: &mut Vec<EntityId>) {
        match node {
            Node::Leaf { mbr, entries } => {
                if area.intersects(mbr) {
                    for (id, p) in entries {
                        if area.contains(*p) {
                            out.push(*id);
                        }
                    }
                }
            }
            Node::Inner { mbr, children } => {
                if area.intersects(mbr) {
                    for c in children {
                        Self::range_rec(c, area, out);
                    }
                }
            }
        }
    }
}

fn collect_entries(node: Node, out: &mut Vec<(EntityId, Point)>) {
    match node {
        Node::Leaf { entries, .. } => out.extend(entries),
        Node::Inner { children, .. } => {
            for c in children {
                collect_entries(c, out);
            }
        }
    }
}

/// A split half: the group's bounding box and its members.
type SplitHalf<T> = (Aabb, Vec<T>);
/// A leaf entry: the entity and its position.
type LeafEntry = (EntityId, Point);

/// Guttman's quadratic split over leaf entries.
fn split_leaf(entries: Vec<LeafEntry>) -> (SplitHalf<LeafEntry>, SplitHalf<LeafEntry>) {
    let boxes: Vec<Aabb> = entries.iter().map(|(_, p)| Aabb::new(*p, *p)).collect();
    let (seed_a, seed_b) = pick_seeds(&boxes);
    distribute(entries, boxes, seed_a, seed_b)
}

/// Quadratic split over inner children.
fn split_inner(children: Vec<Node>) -> (SplitHalf<Node>, SplitHalf<Node>) {
    let boxes: Vec<Aabb> = children.iter().map(Node::mbr).collect();
    let (seed_a, seed_b) = pick_seeds(&boxes);
    distribute(children, boxes, seed_a, seed_b)
}

fn pick_seeds(boxes: &[Aabb]) -> (usize, usize) {
    let mut worst = (0, 1);
    let mut worst_waste = f64::NEG_INFINITY;
    for i in 0..boxes.len() {
        for j in (i + 1)..boxes.len() {
            let waste = boxes[i].union(&boxes[j]).area() - boxes[i].area() - boxes[j].area();
            if waste > worst_waste {
                worst_waste = waste;
                worst = (i, j);
            }
        }
    }
    worst
}

fn distribute<T>(items: Vec<T>, boxes: Vec<Aabb>, seed_a: usize, seed_b: usize) -> (SplitHalf<T>, SplitHalf<T>) {
    let total = items.len();
    let mut group_a: Vec<T> = Vec::with_capacity(total);
    let mut group_b: Vec<T> = Vec::with_capacity(total);
    let mut mbr_a = boxes[seed_a];
    let mut mbr_b = boxes[seed_b];
    for (i, (item, bx)) in items.into_iter().zip(boxes.iter()).enumerate() {
        if i == seed_a {
            group_a.push(item);
            continue;
        }
        if i == seed_b {
            group_b.push(item);
            continue;
        }
        // Force balance so neither group can fall below MIN_ENTRIES.
        let remaining_assignable = total - i; // not exact, but conservative
        if group_a.len() + remaining_assignable <= MIN_ENTRIES {
            mbr_a = mbr_a.union(bx);
            group_a.push(item);
            continue;
        }
        if group_b.len() + remaining_assignable <= MIN_ENTRIES {
            mbr_b = mbr_b.union(bx);
            group_b.push(item);
            continue;
        }
        let enl_a = mbr_a.enlargement(bx);
        let enl_b = mbr_b.enlargement(bx);
        if enl_a < enl_b || (enl_a == enl_b && mbr_a.area() <= mbr_b.area()) {
            mbr_a = mbr_a.union(bx);
            group_a.push(item);
        } else {
            mbr_b = mbr_b.union(bx);
            group_b.push(item);
        }
    }
    ((mbr_a, group_a), (mbr_b, group_b))
}

impl SpatialIndex for RTree {
    fn insert(&mut self, id: EntityId, p: Point) {
        if self.positions.contains_key(&id) {
            self.remove(id);
        }
        self.positions.insert(id, p);
        match &mut self.root {
            None => {
                self.root =
                    Some(Node::Leaf { mbr: Aabb::new(p, p), entries: vec![(id, p)] });
            }
            Some(root) => {
                if let Some(split) = Self::insert_rec(root, id, p) {
                    let old = self.root.take().expect("root present");
                    let mbr = old.mbr().union(&split.mbr());
                    self.root = Some(Node::Inner { mbr, children: vec![old, split] });
                }
            }
        }
    }

    fn remove(&mut self, id: EntityId) -> Option<Point> {
        let p = self.positions.remove(&id)?;
        let mut orphans = Vec::new();
        let mut emptied = false;
        if let Some(root) = &mut self.root {
            Self::remove_rec(root, id, p, &mut orphans);
            match root {
                Node::Leaf { entries, .. } if entries.is_empty() => emptied = true,
                Node::Inner { children, .. } => {
                    if children.is_empty() {
                        emptied = true;
                    } else if children.len() == 1 {
                        // Collapse a single-child root.
                        let child = children.pop().expect("len checked");
                        *root = child;
                    }
                }
                _ => {}
            }
        }
        if emptied {
            self.root = None;
        }
        // Re-insert entries orphaned by condensation.
        for (oid, op) in orphans {
            // positions map still holds them; bypass the double-remove.
            match &mut self.root {
                None => {
                    self.root =
                        Some(Node::Leaf { mbr: Aabb::new(op, op), entries: vec![(oid, op)] });
                }
                Some(root) => {
                    if let Some(split) = Self::insert_rec(root, oid, op) {
                        let old = self.root.take().expect("root present");
                        let mbr = old.mbr().union(&split.mbr());
                        self.root = Some(Node::Inner { mbr, children: vec![old, split] });
                    }
                }
            }
        }
        Some(p)
    }

    fn get(&self, id: EntityId) -> Option<Point> {
        self.positions.get(&id).copied()
    }

    fn range(&self, area: &Aabb) -> Vec<EntityId> {
        let mut out = Vec::new();
        if let Some(root) = &self.root {
            Self::range_rec(root, area, &mut out);
        }
        out
    }

    fn knn(&self, p: Point, k: usize) -> Vec<EntityId> {
        // Best-first search with a min-heap on MBR min-dist.
        use std::cmp::Ordering;
        use std::collections::BinaryHeap;

        struct HeapItem<'a> {
            dist: f64,
            id: Option<EntityId>, // Some for points, None for nodes
            node: Option<&'a Node>,
        }
        impl PartialEq for HeapItem<'_> {
            fn eq(&self, other: &Self) -> bool {
                self.dist == other.dist && self.id == other.id
            }
        }
        impl Eq for HeapItem<'_> {}
        impl PartialOrd for HeapItem<'_> {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for HeapItem<'_> {
            fn cmp(&self, other: &Self) -> Ordering {
                // Reverse for min-heap; break distance ties by id so the
                // result order is deterministic.
                other.dist.total_cmp(&self.dist).then_with(|| other.id.cmp(&self.id))
            }
        }

        if k == 0 {
            return Vec::new();
        }
        let mut heap = BinaryHeap::new();
        if let Some(root) = &self.root {
            heap.push(HeapItem { dist: root.mbr().min_dist(p), id: None, node: Some(root) });
        }
        let mut out = Vec::with_capacity(k);
        while let Some(item) = heap.pop() {
            match (item.id, item.node) {
                (Some(id), _) => {
                    out.push(id);
                    if out.len() == k {
                        break;
                    }
                }
                (None, Some(Node::Leaf { entries, .. })) => {
                    for (id, q) in entries {
                        heap.push(HeapItem { dist: p.dist(*q), id: Some(*id), node: None });
                    }
                }
                (None, Some(Node::Inner { children, .. })) => {
                    for c in children {
                        heap.push(HeapItem { dist: c.mbr().min_dist(p), id: None, node: Some(c) });
                    }
                }
                (None, None) => unreachable!("heap items are points or nodes"),
            }
        }
        out
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
    fn grows_and_splits() {
        let mut t = RTree::new();
        for i in 0..200u64 {
            t.insert(e(i), Point::new((i % 20) as f64, (i / 20) as f64));
        }
        assert_eq!(t.len(), 200);
        assert!(t.height() >= 2, "tree should have split, height={}", t.height());
        let all = t.range(&Aabb::everything());
        assert_eq!(all.len(), 200);
    }

    #[test]
    fn range_query_correct() {
        let mut t = RTree::new();
        t.insert(e(1), Point::new(1.0, 1.0));
        t.insert(e(2), Point::new(5.0, 5.0));
        t.insert(e(3), Point::new(9.0, 9.0));
        let hits = sorted(t.range(&Aabb::new(Point::ORIGIN, Point::new(6.0, 6.0))));
        assert_eq!(hits, vec![e(1), e(2)]);
    }

    #[test]
    fn remove_and_reinsert() {
        let mut t = RTree::new();
        for i in 0..100u64 {
            t.insert(e(i), Point::new(i as f64, 0.0));
        }
        for i in 0..50u64 {
            assert_eq!(t.remove(e(i)), Some(Point::new(i as f64, 0.0)));
        }
        assert_eq!(t.remove(e(7)), None);
        assert_eq!(t.len(), 50);
        let all = sorted(t.range(&Aabb::everything()));
        assert_eq!(all, (50..100).map(e).collect::<Vec<_>>());
    }

    #[test]
    fn remove_to_empty_and_reuse() {
        let mut t = RTree::new();
        for i in 0..40u64 {
            t.insert(e(i), Point::new(i as f64, i as f64));
        }
        for i in 0..40u64 {
            t.remove(e(i));
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        t.insert(e(1), Point::new(0.0, 0.0));
        assert_eq!(t.range(&Aabb::everything()), vec![e(1)]);
    }

    #[test]
    fn insert_existing_id_relocates() {
        let mut t = RTree::new();
        t.insert(e(1), Point::new(0.0, 0.0));
        t.insert(e(1), Point::new(9.0, 9.0));
        assert_eq!(t.len(), 1);
        assert!(t.range(&Aabb::centered(Point::ORIGIN, 1.0)).is_empty());
        assert_eq!(t.range(&Aabb::centered(Point::new(9.0, 9.0), 1.0)), vec![e(1)]);
    }

    #[test]
    fn randomized_equivalence_with_scan() {
        let mut rng = seeded_rng(7);
        let mut t = RTree::new();
        let mut s = ScanIndex::new();
        for i in 0..600u64 {
            let p = Point::new(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0));
            t.insert(e(i), p);
            s.insert(e(i), p);
        }
        for i in 0..300u64 {
            if rng.gen_bool(0.5) {
                let p = Point::new(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0));
                t.update(e(i), p);
                s.update(e(i), p);
            } else {
                t.remove(e(i));
                s.remove(e(i));
            }
        }
        for _ in 0..40 {
            let c = Point::new(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0));
            let area = Aabb::centered(c, rng.gen_range(1.0..25.0));
            assert_eq!(sorted(t.range(&area)), sorted(s.range(&area)));
        }
        assert_eq!(t.len(), s.len());
    }

    #[test]
    fn knn_matches_scan() {
        let mut rng = seeded_rng(9);
        let mut t = RTree::new();
        let mut s = ScanIndex::new();
        for i in 0..300u64 {
            let p = Point::new(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0));
            t.insert(e(i), p);
            s.insert(e(i), p);
        }
        for _ in 0..20 {
            let c = Point::new(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0));
            assert_eq!(t.knn(c, 7), s.knn(c, 7));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_rtree_range_equals_scan(
            pts in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..80),
            qx in -50.0f64..50.0,
            qy in -50.0f64..50.0,
            r in 0.1f64..30.0,
        ) {
            let mut t = RTree::new();
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
