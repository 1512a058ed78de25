#![forbid(unsafe_code)]
//! `mv-spatial` — spatial indexing for the co-space.
//!
//! §IV-F of the paper: *"The metaverse would have a huge amount of
//! trajectory and virtual walkthrough data, and to facilitate efficient
//! retrieval, efficient indexes are needed"*, calling out the HDoV tree
//! \[71\] for walkthroughs and B+-tree-based moving-object indexes
//! (ST2B-tree \[22\], Bx \[47\]) for locational data, and §IV-G's fourth
//! challenge: *moving queries over moving objects*.
//!
//! This crate implements that toolbox:
//!
//! * [`index`] — the common [`index::SpatialIndex`] trait plus a
//!   brute-force [`index::ScanIndex`] baseline (every experiment needs the
//!   baseline the paper implicitly compares against);
//! * [`grid`] — a uniform-grid index (fast updates, the classic choice
//!   for update-intensive workloads);
//! * [`rtree`] — an in-memory R-tree with quadratic splits (fast range
//!   queries, expensive updates — the static-index strawman);
//! * [`st2b`] — an ST2B-style self-tunable B+-tree over space-filling-curve
//!   keys with two time-rolled logical subtrees and per-region grain
//!   adaptation;
//! * [`hdov`] — an HDoV-style degree-of-visibility hierarchy for virtual
//!   walkthrough queries with level-of-detail answers;
//! * [`movingq`] — continuous range queries from moving observers over
//!   moving objects, with a safe-region optimization vs. naive
//!   re-evaluation;
//! * [`trajectory`] — per-entity position histories with dead-reckoning
//!   compression and time-bucketed spatio-temporal range queries (the
//!   "huge amount of trajectory data" §IV-F opens with).

pub mod grid;
pub mod hdov;
pub mod index;
pub mod movingq;
pub mod rtree;
pub mod st2b;
pub mod trajectory;

pub use grid::GridIndex;
pub use hdov::{HdovTree, Lod};
pub use index::{ScanIndex, SpatialIndex};
pub use movingq::{MovingQueryEngine, QueryStrategy};
pub use rtree::RTree;
pub use st2b::St2bTree;
pub use trajectory::TrajectoryStore;
