//! A generic discrete-event simulation loop.
//!
//! Events are `FnOnce(&mut W, &mut Sim<W>)` closures scheduled at virtual
//! timestamps; the loop pops them in (time, insertion-order) order, so
//! simultaneous events fire deterministically in scheduling order. The
//! whole workspace's experiments run on this loop — there is no wall-clock
//! anywhere, which is what makes the EXPERIMENTS.md tables reproducible.

use mv_common::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An event: a one-shot closure over the world and the scheduler.
pub type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Scheduler<W>)>;

struct Entry<W> {
    at: SimTime,
    seq: u64,
    f: EventFn<W>,
}

impl<W> PartialEq for Entry<W> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<W> Eq for Entry<W> {}
impl<W> PartialOrd for Entry<W> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for Entry<W> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The scheduling half of the simulator, passed to firing events so they
/// can enqueue follow-up events while the world is mutably borrowed.
pub struct Scheduler<W> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<Entry<W>>>,
    fired: u64,
}

impl<W> Scheduler<W> {
    fn new() -> Self {
        Scheduler { now: SimTime::ZERO, seq: 0, queue: BinaryHeap::new(), fired: 0 }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `f` at absolute time `at`; times in the past are clamped
    /// to "now" (they fire next, preserving causality).
    pub fn at(&mut self, at: SimTime, f: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Entry { at, seq, f: Box::new(f) }));
    }

    /// Schedule `f` after a delay from now.
    pub fn after(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    ) {
        let at = self.now + delay;
        self.at(at, f);
    }

    /// Number of events fired so far.
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// A discrete-event simulator over world state `W`.
pub struct Sim<W> {
    /// The simulated world, freely accessible between runs.
    pub world: W,
    sched: Scheduler<W>,
}

impl<W> Sim<W> {
    /// Create a simulator owning `world`, clock at zero.
    pub fn new(world: W) -> Self {
        Sim { world, sched: Scheduler::new() }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Access the scheduler (to seed initial events).
    pub fn scheduler(&mut self) -> &mut Scheduler<W> {
        &mut self.sched
    }

    /// Schedule an event at absolute time `at`.
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static) {
        self.sched.at(at, f);
    }

    /// Run until the queue drains or virtual time would exceed `until`.
    /// Returns the number of events fired by this call. Events scheduled
    /// later than `until` remain queued; the clock stops at the last fired
    /// event (or `until` if nothing fired beyond it).
    pub fn run_until(&mut self, until: SimTime) -> u64 {
        let mut fired = 0u64;
        while let Some(Reverse(head)) = self.sched.queue.peek() {
            if head.at > until {
                break;
            }
            let Reverse(entry) = self.sched.queue.pop().expect("peeked entry vanished");
            debug_assert!(entry.at >= self.sched.now, "event queue went backwards");
            self.sched.now = entry.at;
            self.sched.fired += 1;
            fired += 1;
            (entry.f)(&mut self.world, &mut self.sched);
        }
        // Advance the clock to the horizon, except for the MAX sentinel
        // used by `run_to_completion` (the clock then rests at the last
        // fired event).
        if until != SimTime::MAX && self.sched.now < until {
            self.sched.now = until;
        }
        fired
    }

    /// Run until the event queue is completely drained.
    pub fn run_to_completion(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    /// Total events fired over the simulator's lifetime.
    pub fn events_fired(&self) -> u64 {
        self.sched.fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new(Vec::<u32>::new());
        sim.schedule_at(SimTime::from_millis(30), |w, _| w.push(3));
        sim.schedule_at(SimTime::from_millis(10), |w, _| w.push(1));
        sim.schedule_at(SimTime::from_millis(20), |w, _| w.push(2));
        sim.run_to_completion();
        assert_eq!(sim.world, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_millis(30));
    }

    #[test]
    fn simultaneous_events_fire_in_scheduling_order() {
        let mut sim = Sim::new(Vec::<u32>::new());
        for i in 0..10 {
            sim.schedule_at(SimTime::from_millis(5), move |w, _| w.push(i));
        }
        sim.run_to_completion();
        assert_eq!(sim.world, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_followups() {
        // A self-perpetuating tick that counts to 5.
        fn tick(w: &mut u32, s: &mut Scheduler<u32>) {
            *w += 1;
            if *w < 5 {
                s.after(SimDuration::from_millis(1), tick);
            }
        }
        let mut sim = Sim::new(0u32);
        sim.schedule_at(SimTime::ZERO, tick);
        sim.run_to_completion();
        assert_eq!(sim.world, 5);
        assert_eq!(sim.now(), SimTime::from_millis(4));
        assert_eq!(sim.events_fired(), 5);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut sim = Sim::new(Vec::<u32>::new());
        sim.schedule_at(SimTime::from_millis(10), |w, _| w.push(1));
        sim.schedule_at(SimTime::from_millis(100), |w, _| w.push(2));
        let fired = sim.run_until(SimTime::from_millis(50));
        assert_eq!(fired, 1);
        assert_eq!(sim.world, vec![1]);
        assert_eq!(sim.now(), SimTime::from_millis(50));
        // The remaining event is still queued and fires later.
        sim.run_to_completion();
        assert_eq!(sim.world, vec![1, 2]);
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        let mut sim = Sim::new(Vec::<u32>::new());
        sim.schedule_at(SimTime::from_millis(10), |w, s| {
            w.push(1);
            // Attempt to schedule in the past; must fire at "now", not panic.
            s.at(SimTime::from_millis(1), |w, _| w.push(2));
        });
        sim.run_to_completion();
        assert_eq!(sim.world, vec![1, 2]);
        assert_eq!(sim.now(), SimTime::from_millis(10));
    }
}
