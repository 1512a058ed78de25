//! 2-D geometry for the spatial substrate.
//!
//! The co-space scenarios (troop movement over a 100 km × 100 km theatre,
//! shoppers in a mall, players on a city grid, a virtual walkthrough) are
//! all fundamentally planar, so the platform standardizes on 2-D points
//! and axis-aligned boxes; a `z`/floor dimension, where needed (HDoV
//! walkthroughs), is modelled as discrete cells by the caller.

use serde::{Deserialize, Serialize};

/// A point (or free vector) in the plane, metres.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

impl Point {
    /// Origin.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Construct a point.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(self, other: Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared Euclidean distance (avoids the sqrt on hot comparison paths).
    #[inline]
    pub fn dist_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Vector addition. (Named like `std::ops::Add::add` on purpose: the
    /// call sites read as vector algebra; implementing the operator trait
    /// for a type that is both point and vector invites misuse.)
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Point) -> Point {
        Point::new(self.x + other.x, self.y + other.y)
    }

    /// Vector subtraction (`self - other`).
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Point) -> Point {
        Point::new(self.x - other.x, self.y - other.y)
    }

    /// Scale by a factor.
    #[inline]
    pub fn scale(self, f: f64) -> Point {
        Point::new(self.x * f, self.y * f)
    }

    /// Vector length.
    #[inline]
    pub fn norm(self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Unit vector in this direction (zero vector stays zero).
    pub fn normalized(self) -> Point {
        let n = self.norm();
        if n == 0.0 {
            Point::ORIGIN
        } else {
            self.scale(1.0 / n)
        }
    }

    /// Clamp each coordinate into `[lo, hi]`.
    pub fn clamp(self, lo: f64, hi: f64) -> Point {
        Point::new(self.x.clamp(lo, hi), self.y.clamp(lo, hi))
    }
}

/// An axis-aligned bounding box, `lo` inclusive, `hi` inclusive.
///
/// Inclusive upper bounds make range queries over discretely sampled
/// positions unambiguous (a point lying exactly on the boundary belongs to
/// the box).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aabb {
    pub lo: Point,
    pub hi: Point,
}

impl Aabb {
    /// Construct from corners; coordinates are reordered so `lo <= hi`.
    pub fn new(a: Point, b: Point) -> Self {
        Aabb {
            lo: Point::new(a.x.min(b.x), a.y.min(b.y)),
            hi: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// A square box centred at `c` with half-extent `r`.
    pub fn centered(c: Point, r: f64) -> Self {
        Aabb::new(Point::new(c.x - r, c.y - r), Point::new(c.x + r, c.y + r))
    }

    /// The whole plane (useful as a query default).
    pub fn everything() -> Self {
        Aabb {
            lo: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
            hi: Point::new(f64::INFINITY, f64::INFINITY),
        }
    }

    /// Does the box contain `p`?
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.lo.x && p.x <= self.hi.x && p.y >= self.lo.y && p.y <= self.hi.y
    }

    /// Do the boxes overlap (boundary touch counts)?
    #[inline]
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.lo.x <= other.hi.x
            && self.hi.x >= other.lo.x
            && self.lo.y <= other.hi.y
            && self.hi.y >= other.lo.y
    }

    /// Is `other` entirely inside `self`?
    #[inline]
    pub fn contains_box(&self, other: &Aabb) -> bool {
        self.lo.x <= other.lo.x
            && self.lo.y <= other.lo.y
            && self.hi.x >= other.hi.x
            && self.hi.y >= other.hi.y
    }

    /// The smallest box covering both.
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            lo: Point::new(self.lo.x.min(other.lo.x), self.lo.y.min(other.lo.y)),
            hi: Point::new(self.hi.x.max(other.hi.x), self.hi.y.max(other.hi.y)),
        }
    }

    /// Grow to cover `p`.
    pub fn expand_to(&mut self, p: Point) {
        self.lo.x = self.lo.x.min(p.x);
        self.lo.y = self.lo.y.min(p.y);
        self.hi.x = self.hi.x.max(p.x);
        self.hi.y = self.hi.y.max(p.y);
    }

    /// Width × height.
    #[inline]
    pub fn area(&self) -> f64 {
        (self.hi.x - self.lo.x) * (self.hi.y - self.lo.y)
    }

    /// Half the perimeter (the R-tree split heuristic metric).
    #[inline]
    pub fn margin(&self) -> f64 {
        (self.hi.x - self.lo.x) + (self.hi.y - self.lo.y)
    }

    /// Centre point.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new((self.lo.x + self.hi.x) * 0.5, (self.lo.y + self.hi.y) * 0.5)
    }

    /// Area added by extending this box to also cover `other`.
    pub fn enlargement(&self, other: &Aabb) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Smallest distance from the box to point `p` (0 when inside) —
    /// the lower bound used by best-first kNN search.
    pub fn min_dist(&self, p: Point) -> f64 {
        let dx = (self.lo.x - p.x).max(0.0).max(p.x - self.hi.x);
        let dy = (self.lo.y - p.y).max(0.0).max(p.y - self.hi.y);
        (dx * dx + dy * dy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_algebra() {
        let a = Point::new(3.0, 4.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.dist(Point::ORIGIN), 5.0);
        assert_eq!(a.sub(a), Point::ORIGIN);
        assert_eq!(a.scale(2.0), Point::new(6.0, 8.0));
        let u = a.normalized();
        assert!((u.norm() - 1.0).abs() < 1e-12);
        assert_eq!(Point::ORIGIN.normalized(), Point::ORIGIN);
    }

    #[test]
    fn aabb_reorders_corners() {
        let b = Aabb::new(Point::new(5.0, -1.0), Point::new(-5.0, 1.0));
        assert_eq!(b.lo, Point::new(-5.0, -1.0));
        assert_eq!(b.hi, Point::new(5.0, 1.0));
        assert_eq!(b.area(), 20.0);
        assert_eq!(b.center(), Point::ORIGIN);
    }

    #[test]
    fn containment_is_boundary_inclusive() {
        let b = Aabb::new(Point::ORIGIN, Point::new(1.0, 1.0));
        assert!(b.contains(Point::new(1.0, 1.0)));
        assert!(b.contains(Point::new(0.0, 0.5)));
        assert!(!b.contains(Point::new(1.0001, 0.5)));
    }

    #[test]
    fn intersection_and_union() {
        let a = Aabb::new(Point::ORIGIN, Point::new(2.0, 2.0));
        let b = Aabb::new(Point::new(1.0, 1.0), Point::new(3.0, 3.0));
        let c = Aabb::new(Point::new(5.0, 5.0), Point::new(6.0, 6.0));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        let u = a.union(&b);
        assert!(u.contains_box(&a) && u.contains_box(&b));
        assert_eq!(a.enlargement(&b), u.area() - a.area());
    }

    #[test]
    fn min_dist_lower_bound() {
        let b = Aabb::new(Point::ORIGIN, Point::new(1.0, 1.0));
        assert_eq!(b.min_dist(Point::new(0.5, 0.5)), 0.0);
        assert!((b.min_dist(Point::new(2.0, 1.0)) - 1.0).abs() < 1e-12);
        // Corner distance.
        assert!((b.min_dist(Point::new(2.0, 2.0)) - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn expand_to_covers_point() {
        let mut b = Aabb::centered(Point::ORIGIN, 1.0);
        b.expand_to(Point::new(5.0, -3.0));
        assert!(b.contains(Point::new(5.0, -3.0)));
        assert!(b.contains(Point::new(-1.0, 1.0)));
    }
}
