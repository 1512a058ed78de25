//! The §III data deluge: a million-entity update/query storm.
//!
//! This is the macro-benchmark driver workload (DESIGN.md §13): a
//! co-space with `entities` concurrently active entities whose update
//! traffic is Zipf(α)-skewed across entity ranks (a few avatars and
//! sensors generate most of the writes) and punctuated by flash-crowd
//! bursts — every `burst_every` ticks, `burst_len` ticks carry
//! `burst_multiplier`× the base op volume, concentrated on a hot venue
//! region (the §IV-E "Black Friday" shape at the whole-world scale).
//!
//! Everything is seeded and deterministic: the same [`DelugeParams`]
//! always produce the same trace, byte for byte (see
//! [`DelugeTrace::canonical_bytes`] and the proptests below). The trace
//! is *pre-generated* so benchmark loops measure the serving stack, not
//! the RNG.

use mv_common::geom::Point;
use mv_common::sample::Zipf;
use mv_common::seeded_rng;
use mv_common::time::{SimDuration, SimTime};
use mv_core::EntityKind;
use rand::Rng;

/// Attribute names the deluge writes, indexed by [`DelugeOp::Attr`].
pub const ATTR_NAMES: [&str; 4] = ["hp", "score", "stock", "temp"];

/// Parameters for the deluge generator.
#[derive(Debug, Clone)]
pub struct DelugeParams {
    /// Concurrently active entities (spawned before tick 0).
    pub entities: usize,
    /// Simulated ticks to generate.
    pub ticks: u64,
    /// Sim time per tick.
    pub tick: SimDuration,
    /// Base update ops per tick (before burst multiplication).
    pub ops_per_tick: usize,
    /// Zipf exponent over entity ranks (entity 0 is hottest).
    pub zipf_alpha: f64,
    /// Fraction of ops that are attribute writes (rest are moves).
    pub attr_fraction: f64,
    /// A flash crowd starts every `burst_every` ticks (0 = never).
    pub burst_every: u64,
    /// Burst duration in ticks.
    pub burst_len: u64,
    /// Op-volume multiple during a burst tick.
    pub burst_multiplier: u32,
    /// World side length, metres (positions stay in `[0, world_side)`).
    pub world_side: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DelugeParams {
    fn default() -> Self {
        DelugeParams {
            entities: 10_000,
            ticks: 16,
            tick: SimDuration::from_millis(100),
            ops_per_tick: 2_000,
            zipf_alpha: 0.9,
            attr_fraction: 0.25,
            burst_every: 8,
            burst_len: 2,
            burst_multiplier: 4,
            world_side: 10_000.0,
            seed: 8,
        }
    }
}

/// One pre-generated update op. Entity is an index into the spawn list
/// (rank order: index 0 is the Zipf-hottest entity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelugeOp {
    /// Move the entity to an absolute position.
    Move {
        /// Entity index (spawn-list rank).
        entity: u32,
        /// Destination.
        to: Point,
    },
    /// Write an attribute.
    Attr {
        /// Entity index (spawn-list rank).
        entity: u32,
        /// Index into [`ATTR_NAMES`].
        name: u8,
        /// New value.
        value: f64,
    },
}

impl DelugeOp {
    /// The targeted entity index.
    pub fn entity(&self) -> u32 {
        match *self {
            DelugeOp::Move { entity, .. } | DelugeOp::Attr { entity, .. } => entity,
        }
    }
}

/// One tick of the trace.
#[derive(Debug, Clone)]
// lint:allow(dead-pub): exposed by `DelugeTrace::ticks`, which other crates use
pub struct DelugeTick {
    /// Tick start on the sim clock.
    pub start: SimTime,
    /// Whether this tick falls inside a flash-crowd window.
    pub burst: bool,
    /// The tick's ops, in arrival order.
    pub ops: Vec<DelugeOp>,
}

/// The full pre-generated trace.
#[derive(Debug, Clone)]
pub struct DelugeTrace {
    /// Spawn specs, index = entity rank (0 = hottest).
    pub spawns: Vec<(String, EntityKind, Point)>,
    /// Per-tick op batches.
    pub ticks: Vec<DelugeTick>,
    /// The flash-crowd venue (bursts concentrate moves around it).
    pub venue: Point,
    /// The parameters that produced the trace.
    pub params: DelugeParams,
}

/// Entity kinds cycled through the spawn list (mixes both
/// authoritative spaces so the twin-sync path is exercised).
const KINDS: [EntityKind; 4] =
    [EntityKind::Avatar, EntityKind::Person, EntityKind::Sensor, EntityKind::Vehicle];

/// Generate the deluge trace for `params`.
pub fn generate(params: &DelugeParams) -> DelugeTrace {
    let mut rng = seeded_rng(params.seed);
    let side = params.world_side;
    let zipf = Zipf::new(params.entities.max(1), params.zipf_alpha);
    let spawns: Vec<(String, EntityKind, Point)> = (0..params.entities)
        .map(|i| {
            let kind = KINDS[i % KINDS.len()];
            let p = Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
            (format!("d{i}"), kind, p)
        })
        .collect();
    let venue = Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
    let mut ticks = Vec::with_capacity(params.ticks as usize);
    for t in 0..params.ticks {
        let burst = params.burst_every > 0
            && params.burst_len > 0
            && t % params.burst_every < params.burst_len
            && t >= params.burst_every.min(params.ticks); // warm-up: no burst in the first cycle
        let volume = if burst {
            params.ops_per_tick * params.burst_multiplier as usize
        } else {
            params.ops_per_tick
        };
        let mut ops = Vec::with_capacity(volume);
        for _ in 0..volume {
            let entity = zipf.sample(&mut rng) as u32;
            if rng.gen::<f64>() < params.attr_fraction {
                let name = rng.gen_range(0..ATTR_NAMES.len()) as u8;
                ops.push(DelugeOp::Attr { entity, name, value: rng.gen_range(0.0..100.0) });
            } else {
                // Bursts pull the crowd toward the venue; base load is a
                // random waypoint anywhere in the world.
                let to = if burst {
                    Point::new(
                        (venue.x + rng.gen_range(-250.0..250.0)).clamp(0.0, side),
                        (venue.y + rng.gen_range(-250.0..250.0)).clamp(0.0, side),
                    )
                } else {
                    Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side))
                };
                ops.push(DelugeOp::Move { entity, to });
            }
        }
        ticks.push(DelugeTick {
            start: SimTime::ZERO + params.tick.mul_f64(t as f64),
            burst,
            ops,
        });
    }
    DelugeTrace { spawns, ticks, venue, params: params.clone() }
}

impl DelugeTrace {
    /// Total op count across all ticks.
    pub fn total_ops(&self) -> usize {
        self.ticks.iter().map(|t| t.ops.len()).sum()
    }

    /// Canonical byte encoding of the whole trace — the determinism
    /// witness (same seed ⇒ byte-identical; see the proptests).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.spawns.len() * 24 + self.total_ops() * 24);
        out.extend_from_slice(&(self.spawns.len() as u64).to_le_bytes());
        for (name, kind, p) in &self.spawns {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.push(*kind as u8);
            out.extend_from_slice(&p.x.to_le_bytes());
            out.extend_from_slice(&p.y.to_le_bytes());
        }
        out.extend_from_slice(&self.venue.x.to_le_bytes());
        out.extend_from_slice(&self.venue.y.to_le_bytes());
        out.extend_from_slice(&(self.ticks.len() as u64).to_le_bytes());
        for tick in &self.ticks {
            out.extend_from_slice(&tick.start.as_micros().to_le_bytes());
            out.push(u8::from(tick.burst));
            out.extend_from_slice(&(tick.ops.len() as u64).to_le_bytes());
            for op in &tick.ops {
                match *op {
                    DelugeOp::Move { entity, to } => {
                        out.push(1);
                        out.extend_from_slice(&entity.to_le_bytes());
                        out.extend_from_slice(&to.x.to_le_bytes());
                        out.extend_from_slice(&to.y.to_le_bytes());
                    }
                    DelugeOp::Attr { entity, name, value } => {
                        out.push(2);
                        out.extend_from_slice(&entity.to_le_bytes());
                        out.push(name);
                        out.extend_from_slice(&value.to_le_bytes());
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn volume_and_shape_track_configuration() {
        let params = DelugeParams::default();
        let trace = generate(&params);
        assert_eq!(trace.spawns.len(), params.entities);
        assert_eq!(trace.ticks.len(), params.ticks as usize);
        for (i, tick) in trace.ticks.iter().enumerate() {
            assert_eq!(tick.start.as_micros(), i as u64 * params.tick.as_micros());
        }
    }

    #[test]
    fn burst_ticks_carry_the_configured_load_multiple() {
        let params = DelugeParams::default();
        let trace = generate(&params);
        assert!(trace.ticks.iter().any(|t| t.burst), "no burst generated");
        assert!(trace.ticks.iter().any(|t| !t.burst), "everything is burst");
        for tick in &trace.ticks {
            let expect = if tick.burst {
                params.ops_per_tick * params.burst_multiplier as usize
            } else {
                params.ops_per_tick
            };
            assert_eq!(tick.ops.len(), expect, "burst={}", tick.burst);
        }
    }

    #[test]
    fn burst_moves_concentrate_on_the_venue() {
        let params = DelugeParams::default();
        let trace = generate(&params);
        let near = |p: Point| p.dist(trace.venue) < 500.0;
        let frac_near = |burst: bool| {
            let (mut near_n, mut total) = (0usize, 0usize);
            for tick in trace.ticks.iter().filter(|t| t.burst == burst) {
                for op in &tick.ops {
                    if let DelugeOp::Move { to, .. } = op {
                        total += 1;
                        near_n += usize::from(near(*to));
                    }
                }
            }
            near_n as f64 / total.max(1) as f64
        };
        assert!(frac_near(true) > 0.9, "burst moves near venue: {}", frac_near(true));
        assert!(frac_near(false) < 0.2, "base moves spread out: {}", frac_near(false));
    }

    #[test]
    fn entity_frequency_ranks_follow_the_zipf_law() {
        // With α = 0.9 over n entities, rank r's expected share is
        // r^-α / H. Check the observed top-rank shares against the pmf
        // within a ×2 tolerance band (sampling noise at this volume is
        // far smaller).
        let params = DelugeParams {
            entities: 1_000,
            ticks: 20,
            ops_per_tick: 10_000,
            ..Default::default()
        };
        let trace = generate(&params);
        let zipf = Zipf::new(params.entities, params.zipf_alpha);
        let mut counts = vec![0u64; params.entities];
        let mut total = 0u64;
        for tick in &trace.ticks {
            for op in &tick.ops {
                counts[op.entity() as usize] += 1;
                total += 1;
            }
        }
        for rank in [0usize, 1, 2, 10, 100] {
            let observed = counts[rank] as f64 / total as f64;
            let expected = zipf.pmf(rank);
            assert!(
                observed > expected * 0.5 && observed < expected * 2.0,
                "rank {rank}: observed {observed:.5} vs pmf {expected:.5}"
            );
        }
        // Skew sanity: the hottest entity sees far more than the median.
        assert!(counts[0] > counts[500] * 20, "{} vs {}", counts[0], counts[500]);
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let params = DelugeParams::default();
        let a = generate(&params).canonical_bytes();
        let b = generate(&params).canonical_bytes();
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_same_seed_traces_are_byte_identical(
            seed in 0u64..1_000,
            entities in 1usize..200,
            ops in 1usize..200,
            alpha in 0.0f64..1.5,
        ) {
            let params = DelugeParams {
                entities,
                ticks: 6,
                ops_per_tick: ops,
                zipf_alpha: alpha,
                seed,
                ..Default::default()
            };
            let a = generate(&params).canonical_bytes();
            let b = generate(&params).canonical_bytes();
            prop_assert_eq!(a, b);
        }

        #[test]
        fn prop_burst_windows_hold_the_multiplier(
            seed in 0u64..1_000,
            every in 2u64..6,
            len in 1u64..3,
            mult in 2u32..6,
        ) {
            let params = DelugeParams {
                entities: 50,
                ticks: 24,
                ops_per_tick: 40,
                burst_every: every,
                burst_len: len.min(every),
                burst_multiplier: mult,
                seed,
                ..Default::default()
            };
            let trace = generate(&params);
            for tick in &trace.ticks {
                let expect = if tick.burst {
                    params.ops_per_tick * mult as usize
                } else {
                    params.ops_per_tick
                };
                prop_assert_eq!(tick.ops.len(), expect);
            }
        }

        #[test]
        fn prop_ops_stay_in_domain(seed in 0u64..500) {
            let params = DelugeParams {
                entities: 64,
                ticks: 4,
                ops_per_tick: 64,
                seed,
                ..Default::default()
            };
            let trace = generate(&params);
            for tick in &trace.ticks {
                for op in &tick.ops {
                    prop_assert!((op.entity() as usize) < params.entities);
                    match *op {
                        DelugeOp::Move { to, .. } => {
                            prop_assert!(to.x >= 0.0 && to.x <= params.world_side);
                            prop_assert!(to.y >= 0.0 && to.y <= params.world_side);
                        }
                        DelugeOp::Attr { name, value, .. } => {
                            prop_assert!((name as usize) < ATTR_NAMES.len());
                            prop_assert!((0.0..100.0).contains(&value));
                        }
                    }
                }
            }
        }
    }
}
