//! §II location-based gaming.
//!
//! Players roam a city grid (random waypoint); points of interest (POIs
//! — gyms, spawn points, quests) are scattered with hot spots; an
//! *encounter* fires when a player comes within trigger range of a POI.
//! The workload exercises moving-queries-over-moving-objects (each
//! player's view is a moving range query) and the pub/sub layer
//! (encounters publish geo-textual events).

use crate::movement::MoverField;
use mv_common::geom::{Aabb, Point};
use mv_common::sample::Zipf;
use mv_common::seeded_rng;
use mv_common::time::{SimDuration, SimTime};
use rand::Rng;

/// Game parameters.
#[derive(Debug, Clone)]
pub struct GameParams {
    /// Players in the city.
    pub players: usize,
    /// Points of interest.
    pub pois: usize,
    /// City side length, metres.
    pub city_side: f64,
    /// Encounter trigger radius.
    pub trigger_radius: f64,
    /// Tick interval.
    pub tick: SimDuration,
    /// Session length.
    pub duration: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GameParams {
    fn default() -> Self {
        GameParams {
            players: 200,
            pois: 100,
            city_side: 5_000.0,
            trigger_radius: 30.0,
            tick: SimDuration::from_millis(500),
            duration: SimDuration::from_secs(60),
            seed: 17,
        }
    }
}

/// An encounter between a player and a POI.
#[derive(Debug, Clone, Copy, PartialEq)]
// lint:allow(dead-pub): exposed by `GameWorkload::encounters`, which other crates use
pub struct Encounter {
    /// When.
    pub ts: SimTime,
    /// Player index.
    pub player: usize,
    /// POI index.
    pub poi: usize,
}

/// The generated session.
#[derive(Debug)]
pub struct GameWorkload {
    /// POI positions (static).
    pub pois: Vec<Point>,
    /// Player position reports: `(time, player, pos)`.
    pub movements: Vec<(SimTime, usize, Point)>,
    /// Encounters, time-ordered.
    pub encounters: Vec<Encounter>,
}

impl GameWorkload {
    /// Generate a session.
    pub fn generate(params: &GameParams) -> Self {
        let bounds = Aabb::new(Point::ORIGIN, Point::new(params.city_side, params.city_side));
        let mut rng = seeded_rng(params.seed);
        // POIs cluster: a few hot plazas attract many POIs.
        let hot = Zipf::new(16, 1.2);
        let plazas: Vec<Point> = (0..16)
            .map(|_| {
                Point::new(
                    rng.gen_range(0.0..params.city_side),
                    rng.gen_range(0.0..params.city_side),
                )
            })
            .collect();
        let pois: Vec<Point> = (0..params.pois)
            .map(|_| {
                let plaza = plazas[hot.sample(&mut rng)];
                Point::new(
                    (plaza.x + rng.gen_range(-200.0..200.0)).clamp(0.0, params.city_side),
                    (plaza.y + rng.gen_range(-200.0..200.0)).clamp(0.0, params.city_side),
                )
            })
            .collect();

        let mut players =
            MoverField::new(bounds, params.players, (1.0, 2.5), params.seed ^ 0xabc);
        let mut movements = Vec::new();
        let mut encounters = Vec::new();
        // Cooldown: one encounter per (player, poi) per minute of game time.
        let mut last_hit: std::collections::BTreeMap<(usize, usize), SimTime> =
            Default::default();
        let steps = params.duration.as_micros() / params.tick.as_micros();
        let dt = params.tick.as_secs_f64();
        let r2 = params.trigger_radius * params.trigger_radius;
        for s in 1..=steps {
            let now = SimTime::ZERO + params.tick.mul_f64(s as f64);
            for (i, p) in players.step(dt) {
                movements.push((now, i, p));
                for (j, poi) in pois.iter().enumerate() {
                    if p.dist_sq(*poi) <= r2 {
                        let ok = last_hit
                            .get(&(i, j))
                            .is_none_or(|&t| now.since(t) > SimDuration::from_secs(60));
                        if ok {
                            last_hit.insert((i, j), now);
                            encounters.push(Encounter { ts: now, player: i, poi: j });
                        }
                    }
                }
            }
        }
        GameWorkload { pois, movements, encounters }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_produces_movement_and_encounters() {
        let w = GameWorkload::generate(&GameParams::default());
        assert_eq!(w.pois.len(), 100);
        assert_eq!(w.movements.len(), 200 * 120); // players × ticks
        assert!(!w.encounters.is_empty(), "an hour of roaming should hit POIs");
        assert!(w.encounters.windows(2).all(|e| e[0].ts <= e[1].ts));
    }

    #[test]
    fn encounters_respect_trigger_radius() {
        let params = GameParams::default();
        let w = GameWorkload::generate(&params);
        // Reconstruct positions at encounter times.
        let pos_at: std::collections::BTreeMap<(u64, usize), Point> = w
            .movements
            .iter()
            .map(|(t, i, p)| ((t.as_micros(), *i), *p))
            .collect();
        for e in &w.encounters {
            let p = pos_at[&(e.ts.as_micros(), e.player)];
            assert!(
                p.dist(w.pois[e.poi]) <= params.trigger_radius + 1e-9,
                "encounter outside radius"
            );
        }
    }

    #[test]
    fn cooldown_prevents_duplicate_spam() {
        let w = GameWorkload::generate(&GameParams::default());
        // No (player, poi) pair may fire twice within 60 s.
        let mut last: std::collections::BTreeMap<(usize, usize), SimTime> = Default::default();
        for e in &w.encounters {
            if let Some(prev) = last.get(&(e.player, e.poi)) {
                assert!(e.ts.since(*prev) > SimDuration::from_secs(60));
            }
            last.insert((e.player, e.poi), e.ts);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = GameWorkload::generate(&GameParams::default());
        let b = GameWorkload::generate(&GameParams::default());
        assert_eq!(a.encounters, b.encounters);
    }
}
