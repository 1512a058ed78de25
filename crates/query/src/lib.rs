#![forbid(unsafe_code)]
//! `mv-query` — query processing and optimization for the co-space.
//!
//! §IV-G raises five challenges; this crate implements the four that are
//! algorithmic (the fifth, moving queries, lives in `mv-spatial::movingq`
//! next to its index):
//!
//! * [`predicate`] — ordering expensive predicates by rank
//!   `(selectivity − 1) / cost` (Hellerstein, the paper's reference
//!   \[39\]), with a measured executor comparing orderings (E11a);
//! * [`space_aware`] — "space"-aware execution: contended allocations
//!   (the last item both a physical and an online shopper want) resolved
//!   with physical-priority policies (E11b);
//! * [`approx`] — approximate execution for virtual-space consumers
//!   ("approximate data may be tolerated"): uniform sampling with error
//!   accounting;
//! * [`sketch`] — HyperLogLog sketches for the fifth challenge: optimizer
//!   metadata "estimated locally at each site … to minimize information
//!   exchange".

pub mod approx;
pub mod predicate;
pub mod sketch;
pub mod space_aware;

pub use approx::ApproxAggregator;
pub use predicate::{optimal_order, PredicateSpec, PredicateExecutor};
pub use sketch::Hll;
pub use space_aware::{AllocPolicy, ContendedAllocator, PurchaseRequest};
