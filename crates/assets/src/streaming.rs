//! Progressive LOD streaming of scene assets.
//!
//! A viewer stands in a scene of avatars/objects; each visible object is
//! streamed at the LOD its degree of visibility warrants (reusing the
//! `mv-spatial` HDoV machinery). Progressive transfer means the first
//! renderable frame needs only the lowest LOD of each visible object —
//! the §IV-I data-explosion mitigation: you never ship skin-level detail
//! for someone across the stadium.

use mv_common::geom::{Aabb, Point};
use mv_common::seeded_rng;
use mv_spatial::hdov::{HdovTree, Lod};
use mv_common::id::EntityId;
use rand::Rng;

/// Scene generation parameters.
#[derive(Debug, Clone)]
pub struct SceneParams {
    /// Objects in the scene.
    pub objects: usize,
    /// Scene side length, metres.
    pub side: f64,
    /// Full-fidelity bytes per object.
    pub full_bytes: u64,
    /// Object radius range (visual size).
    pub radius: (f64, f64),
    /// RNG seed.
    pub seed: u64,
}

impl Default for SceneParams {
    fn default() -> Self {
        SceneParams {
            objects: 10_000,
            side: 1_000.0,
            full_bytes: 6_400_000,
            radius: (0.3, 2.0),
            seed: 21,
        }
    }
}

/// Results of streaming one viewpoint.
#[derive(Debug, Clone, Copy)]
// lint:allow(dead-pub): returned by `stream_scene`, which other crates call
pub struct StreamReport {
    /// Objects visible at all.
    pub visible: usize,
    /// Bytes for the first renderable frame (lowest LOD of everything
    /// visible).
    pub startup_bytes: u64,
    /// Bytes for the fully refined frame (target LOD of everything).
    pub full_bytes: u64,
    /// Bytes a naive ship-everything-full approach would move.
    pub naive_bytes: u64,
}

/// Build the scene and stream it from `viewpoint`.
pub fn stream_scene(params: &SceneParams, viewpoint: Point) -> StreamReport {
    let mut rng = seeded_rng(params.seed);
    let mut tree = HdovTree::new(Aabb::new(
        Point::ORIGIN,
        Point::new(params.side, params.side),
    ));
    for i in 0..params.objects {
        let p = Point::new(rng.gen_range(0.0..params.side), rng.gen_range(0.0..params.side));
        let r = rng.gen_range(params.radius.0..params.radius.1);
        tree.insert(EntityId::new(i as u64), p, r);
    }
    let (visible, _) = tree.walkthrough(viewpoint);
    let mut startup = 0u64;
    let mut full = 0u64;
    for v in &visible {
        // First frame: the cheapest representation that renders.
        startup += Lod::Low.payload_bytes(params.full_bytes);
        // Refined frame: the LOD visibility actually warrants.
        full += v.lod.payload_bytes(params.full_bytes);
    }
    StreamReport {
        visible: visible.len(),
        startup_bytes: startup,
        full_bytes: full,
        naive_bytes: params.objects as u64 * params.full_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progressive_startup_is_a_sliver_of_refined() {
        let r = stream_scene(&SceneParams::default(), Point::new(500.0, 500.0));
        assert!(r.visible > 0);
        // The refined frame includes Full-detail payloads (64× a Low
        // payload) for nearby objects, so startup must come in strictly
        // cheaper — how much cheaper depends on how many objects sit
        // close to the viewer.
        let ratio = r.startup_bytes as f64 / r.full_bytes as f64;
        assert!(ratio < 0.95, "startup should beat the refined frame, ratio {ratio}");
        assert!(r.startup_bytes < r.full_bytes);
    }

    #[test]
    fn lod_streaming_crushes_naive_shipping() {
        let r = stream_scene(&SceneParams::default(), Point::new(500.0, 500.0));
        assert!(
            r.full_bytes * 20 < r.naive_bytes,
            "LOD {} vs naive {}",
            r.full_bytes,
            r.naive_bytes
        );
    }

    #[test]
    fn corner_viewpoint_sees_less_than_center() {
        let params = SceneParams::default();
        let center = stream_scene(&params, Point::new(500.0, 500.0));
        let corner = stream_scene(&params, Point::new(-2_000.0, -2_000.0));
        assert!(corner.visible <= center.visible);
        assert!(corner.full_bytes <= center.full_bytes);
    }

    #[test]
    fn bigger_objects_cost_more_refined_bytes() {
        let small = SceneParams { radius: (0.2, 0.4), ..Default::default() };
        let big = SceneParams { radius: (3.0, 6.0), ..Default::default() };
        let rs = stream_scene(&small, Point::new(500.0, 500.0));
        let rb = stream_scene(&big, Point::new(500.0, 500.0));
        assert!(rb.full_bytes > rs.full_bytes, "{} vs {}", rb.full_bytes, rs.full_bytes);
    }
}
