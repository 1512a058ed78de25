//! The §II military exercise scenario.
//!
//! *"a physical exercise over a physical space of 5 km by 5 km compared
//! to a virtual model that simulates a war over 100 km by 100 km space"*:
//! physical troops and vehicles move in the small box and are tracked by
//! sensors; virtual forces manoeuvre across the full theatre; the
//! command centre periodically orders virtual air-raids that must be
//! relayed to the ground.

use crate::movement::MoverField;
use mv_common::geom::{Aabb, Point};
use mv_common::seeded_rng;
use mv_common::time::{SimDuration, SimTime};
use rand::Rng;

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct ExerciseParams {
    /// Physical troops in the 5 km box.
    pub physical_troops: usize,
    /// Virtual units across the theatre.
    pub virtual_units: usize,
    /// Sensor report interval.
    pub report_interval: SimDuration,
    /// Exercise length.
    pub duration: SimDuration,
    /// Mean time between virtual strikes.
    pub strike_interval: SimDuration,
    /// Strike blast radius, metres.
    pub blast_radius: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ExerciseParams {
    fn default() -> Self {
        ExerciseParams {
            physical_troops: 500,
            virtual_units: 5_000,
            report_interval: SimDuration::from_millis(1000),
            duration: SimDuration::from_secs(120),
            strike_interval: SimDuration::from_secs(15),
            blast_radius: 250.0,
            seed: 3,
        }
    }
}

/// One timeline item of the exercise.
#[derive(Debug, Clone, PartialEq)]
pub enum ExerciseOp {
    /// A sensed physical position report: (troop index, position).
    PhysicalReport(usize, Point),
    /// A virtual unit manoeuvre: (unit index, position).
    VirtualMove(usize, Point),
    /// A commanded strike at a point in the virtual theatre.
    Strike(Point),
}

/// The generated exercise: a time-ordered operation stream.
#[derive(Debug)]
pub struct MilitaryExercise {
    /// Physical sub-exercise bounds (5 km box at the theatre's centre).
    pub physical_bounds: Aabb,
    /// Full virtual theatre (100 km box).
    pub theatre_bounds: Aabb,
    /// Time-ordered `(time, op)` stream.
    pub timeline: Vec<(SimTime, ExerciseOp)>,
    /// Strike blast radius.
    pub blast_radius: f64,
}

impl MilitaryExercise {
    /// Generate the exercise.
    pub fn generate(params: &ExerciseParams) -> Self {
        let theatre = Aabb::new(Point::ORIGIN, Point::new(100_000.0, 100_000.0));
        let physical = Aabb::new(Point::new(47_500.0, 47_500.0), Point::new(52_500.0, 52_500.0));
        let mut rng = seeded_rng(params.seed);
        let mut troops =
            MoverField::new(physical, params.physical_troops, (1.0, 2.0), params.seed ^ 1);
        let mut units =
            MoverField::new(theatre, params.virtual_units, (5.0, 15.0), params.seed ^ 2);

        let mut timeline = Vec::new();
        let steps = params.duration.as_micros() / params.report_interval.as_micros();
        let dt = params.report_interval.as_secs_f64();
        let mut next_strike = params.strike_interval.mul_f64(rng.gen_range(0.5..1.5));
        for s in 1..=steps {
            let now = SimTime::ZERO + params.report_interval.mul_f64(s as f64);
            for (i, p) in troops.step(dt) {
                timeline.push((now, ExerciseOp::PhysicalReport(i, p)));
            }
            for (i, p) in units.step(dt) {
                timeline.push((now, ExerciseOp::VirtualMove(i, p)));
            }
            if SimTime::ZERO + next_strike <= now {
                // Strikes concentrate near the physical box: the virtual
                // commander targets the contested ground.
                let target = Point::new(
                    rng.gen_range(physical.lo.x - 2_000.0..physical.hi.x + 2_000.0),
                    rng.gen_range(physical.lo.y - 2_000.0..physical.hi.y + 2_000.0),
                );
                timeline.push((now, ExerciseOp::Strike(target)));
                next_strike = next_strike + params.strike_interval.mul_f64(rng.gen_range(0.5..1.5));
            }
        }
        MilitaryExercise {
            physical_bounds: physical,
            theatre_bounds: theatre,
            timeline,
            blast_radius: params.blast_radius,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Count of each op kind.
    fn op_counts(ex: &MilitaryExercise) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for (_, op) in &ex.timeline {
            match op {
                ExerciseOp::PhysicalReport(..) => counts.0 += 1,
                ExerciseOp::VirtualMove(..) => counts.1 += 1,
                ExerciseOp::Strike(_) => counts.2 += 1,
            }
        }
        counts
    }

    #[test]
    fn scales_and_bounds_match_the_paper() {
        let ex = MilitaryExercise::generate(&ExerciseParams {
            physical_troops: 50,
            virtual_units: 200,
            duration: SimDuration::from_secs(10),
            ..Default::default()
        });
        assert_eq!(ex.theatre_bounds.area(), 1e10); // 100 km × 100 km
        assert_eq!(ex.physical_bounds.area(), 25e6); // 5 km × 5 km
        assert!(ex.theatre_bounds.contains_box(&ex.physical_bounds));
        for (_, op) in &ex.timeline {
            match op {
                ExerciseOp::PhysicalReport(_, p) => {
                    assert!(ex.physical_bounds.contains(*p), "{p:?} outside physical box")
                }
                ExerciseOp::VirtualMove(_, p) => assert!(ex.theatre_bounds.contains(*p)),
                ExerciseOp::Strike(_) => {}
            }
        }
    }

    #[test]
    fn timeline_is_time_ordered_and_complete() {
        let ex = MilitaryExercise::generate(&ExerciseParams {
            physical_troops: 10,
            virtual_units: 20,
            duration: SimDuration::from_secs(30),
            ..Default::default()
        });
        assert!(ex.timeline.windows(2).all(|w| w[0].0 <= w[1].0));
        let (reports, moves, strikes) = op_counts(&ex);
        assert_eq!(reports, 10 * 30);
        assert_eq!(moves, 20 * 30);
        assert!(strikes >= 1, "a 30 s exercise should see a strike");
    }

    #[test]
    fn deterministic_per_seed() {
        let p = ExerciseParams {
            physical_troops: 5,
            virtual_units: 5,
            duration: SimDuration::from_secs(5),
            ..Default::default()
        };
        let a = MilitaryExercise::generate(&p);
        let b = MilitaryExercise::generate(&p);
        assert_eq!(a.timeline, b.timeline);
    }
}
