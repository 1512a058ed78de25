#![forbid(unsafe_code)]
//! `mv-common` — shared substrate for the cospace platform.
//!
//! Every other crate in the workspace builds on the primitives defined here:
//!
//! * [`id`] — strongly-typed identifiers for entities, nodes, clients, …
//! * [`time`] — a discrete virtual clock ([`time::SimTime`]) so that all
//!   experiments are deterministic and independent of wall-clock jitter;
//! * [`hash`] — an FxHash-style fast hasher plus [`hash::FastMap`] /
//!   [`hash::FastSet`] aliases for hot paths (per the Rust perf guide,
//!   SipHash is needlessly slow for integer keys and HashDoS is not a
//!   concern inside a simulator);
//! * [`geom`] — 2-D points, bounding boxes and the little vector algebra
//!   the spatial crates need;
//! * [`sample`] — Zipf and other skewed samplers used by the workload
//!   generators;
//! * [`metrics`] — counters and streaming histograms (p50/p95/p99) used by
//!   every experiment harness;
//! * [`table`] — a tiny fixed-width table printer for experiment output;
//! * [`error`] — the workspace-wide error type [`MvError`];
//! * [`codec`] — the one little-endian codec: checked narrowing
//!   ([`codec::wire_u32`]), the `put_*` writers and the total
//!   [`codec::SliceReader`] every encoder and decoder uses.
//!
//! The paper ("The Metaverse Data Deluge", ICDE 2023) describes data that
//! lives in two interacting spaces; the [`Space`] enum is the tag used
//! across the whole workspace to mark which side of the co-space a datum
//! originated from (§IV-F "Organization of Data").

pub mod codec;
pub mod error;
pub mod geom;
pub mod hash;
pub mod id;
pub mod metrics;
pub mod sample;
pub mod table;
pub mod time;

pub use error::{MvError, MvResult};

use serde::{Deserialize, Serialize};

/// Which side of the co-space a datum, user, or event belongs to.
///
/// The metaverse integrates a *physical* space (sensors, shoppers, troops)
/// with a *virtual* space (avatars, virtual shops, simulated forces).
/// §IV-F of the paper discusses whether data from the two spaces should be
/// stored together or apart; tagging every record with its `Space` is the
/// "unified" strategy and the cheapest to start from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Space {
    /// Originates from the physical world (sensed).
    Physical,
    /// Originates from the virtual world (computed / user-generated).
    Virtual,
}

impl Space {
    /// The other space.
    #[inline]
    pub fn other(self) -> Space {
        match self {
            Space::Physical => Space::Virtual,
            Space::Virtual => Space::Physical,
        }
    }

    /// All spaces, in a fixed order.
    pub const ALL: [Space; 2] = [Space::Physical, Space::Virtual];
}

impl std::fmt::Display for Space {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Space::Physical => write!(f, "physical"),
            Space::Virtual => write!(f, "virtual"),
        }
    }
}

/// Construct the workspace-standard deterministic RNG from a seed.
///
/// All experiments and property tests derive their randomness from
/// explicitly seeded [`rand::rngs::StdRng`] instances so that every table
/// in EXPERIMENTS.md is reproducible bit-for-bit.
pub fn seeded_rng(seed: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn space_other_roundtrips() {
        for s in Space::ALL {
            assert_eq!(s.other().other(), s);
            assert_ne!(s.other(), s);
        }
    }

    #[test]
    fn space_display() {
        assert_eq!(Space::Physical.to_string(), "physical");
        assert_eq!(Space::Virtual.to_string(), "virtual");
    }

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }
}
