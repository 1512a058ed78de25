//! Deterministic fault injection on the discrete-event simulator.
//!
//! §IV-C points at "methods developed for intermittently-connected and
//! disruptive networks", and the fabrics the platform spans (cellular
//! uplinks §I, inter-DC WANs §IV-E1) are exactly the ones that flap,
//! partition, and crash. A [`FaultPlan`] is a *script*: a list of
//! `(virtual time, fault)` pairs built up front and installed into the
//! [`Scheduler`], so faults are ordinary simulation events — two runs of
//! the same plan over the same seed are byte-identical, and every
//! injected fault is counted in `Network::stats` (`faults_*` counters).
//!
//! The plan mutates the world through the [`FaultTarget`] trait: the
//! world hands out its [`Network`], and optionally reacts to node
//! crash/restart (dropping volatile state, re-syncing after restart) —
//! that is where the *state loss* half of a crash lives, since the
//! network itself only models reachability.

use crate::link::LinkSpec;
use crate::network::Network;
use crate::sim::Scheduler;
use mv_common::id::NodeId;
use mv_common::time::SimTime;

/// One injectable fault.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Replace a link's spec (both directions) — e.g. spike latency/loss.
    DegradeLink {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
        /// The degraded spec.
        spec: LinkSpec,
    },
    /// Restore a degraded link (both directions) to its healthy spec.
    RestoreLink {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
    },
    /// Sever two partition groups bidirectionally.
    Partition {
        /// First group.
        group_a: u32,
        /// Second group.
        group_b: u32,
    },
    /// Heal two previously severed groups.
    Heal {
        /// First group.
        group_a: u32,
        /// Second group.
        group_b: u32,
    },
    /// Crash a node: unreachable until restarted, volatile state lost
    /// (the world's [`FaultTarget::on_node_crash`] drops it).
    Crash {
        /// The victim.
        node: NodeId,
    },
    /// Restart a crashed node (state must be rebuilt by the world).
    Restart {
        /// The restarting node.
        node: NodeId,
    },
}

/// What a fault plan needs from the simulated world.
pub trait FaultTarget {
    /// The network faults apply to.
    fn fault_network(&mut self) -> &mut Network;

    /// Called after `node` crashes — drop its volatile state here.
    fn on_node_crash(&mut self, _node: NodeId) {}

    /// Called after `node` restarts — schedule recovery here.
    fn on_node_restart(&mut self, _node: NodeId) {}
}

/// A scripted schedule of faults. Build it up front (possibly from a
/// seeded RNG), then [`install`](FaultPlan::install) it into the
/// scheduler; the plan is consumed and each fault fires as a simulation
/// event at its virtual timestamp.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<(SimTime, Fault)>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule one fault at an absolute virtual time.
    pub fn at(mut self, at: SimTime, fault: Fault) -> Self {
        self.events.push((at, fault));
        self
    }

    /// Sever groups over `[from, until)`, healing at `until`.
    pub fn partition_between(
        self,
        group_a: u32,
        group_b: u32,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.at(from, Fault::Partition { group_a, group_b })
            .at(until, Fault::Heal { group_a, group_b })
    }

    /// Crash a node over `[from, until)`, restarting at `until`.
    pub fn crash_window(self, node: NodeId, from: SimTime, until: SimTime) -> Self {
        self.at(from, Fault::Crash { node }).at(until, Fault::Restart { node })
    }

    /// Number of scheduled fault events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Install every fault as a scheduler event. Events are sorted by
    /// `(time, insertion order)` first, so ties fire in the order the
    /// plan listed them regardless of how it was assembled.
    pub fn install<W: FaultTarget + 'static>(mut self, sched: &mut Scheduler<W>) {
        // Stable sort keeps same-timestamp faults in plan order.
        self.events.sort_by_key(|(t, _)| *t);
        for (at, fault) in self.events {
            sched.at(at, move |w: &mut W, _s| apply(w, &fault));
        }
    }
}

/// Apply one fault to the world. Faults referencing unknown nodes/links
/// are counted (`faults_invalid`) rather than panicking: a plan written
/// against a sweep-varied topology may legitimately name absent links.
pub fn apply<W: FaultTarget + ?Sized>(w: &mut W, fault: &Fault) {
    let invalid = match fault {
        Fault::DegradeLink { a, b, spec } => {
            w.fault_network().degrade_link_bidi(*a, *b, *spec).is_err()
        }
        Fault::RestoreLink { a, b } => w.fault_network().restore_link_bidi(*a, *b).is_err(),
        Fault::Partition { group_a, group_b } => {
            w.fault_network().sever(*group_a, *group_b);
            false
        }
        Fault::Heal { group_a, group_b } => {
            w.fault_network().heal(*group_a, *group_b);
            false
        }
        Fault::Crash { node } => {
            let bad = w.fault_network().crash_node(*node).is_err();
            if !bad {
                w.on_node_crash(*node);
            }
            bad
        }
        Fault::Restart { node } => {
            let bad = w.fault_network().restart_node(*node).is_err();
            if !bad {
                w.on_node_restart(*node);
            }
            bad
        }
    };
    if invalid {
        w.fault_network().stats.incr("faults_invalid");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkClass;
    use crate::sim::Sim;
    use mv_common::seeded_rng;

    struct World {
        net: Network,
        crash_log: Vec<(NodeId, &'static str)>,
    }

    impl FaultTarget for World {
        fn fault_network(&mut self) -> &mut Network {
            &mut self.net
        }
        fn on_node_crash(&mut self, node: NodeId) {
            self.crash_log.push((node, "crash"));
        }
        fn on_node_restart(&mut self, node: NodeId) {
            self.crash_log.push((node, "restart"));
        }
    }

    fn world() -> World {
        let mut net = Network::new();
        for i in 0..2 {
            net.add_node(NodeId::new(i), "n");
        }
        net.add_link_bidi(NodeId::new(0), NodeId::new(1), LinkClass::Lan.spec());
        net.set_group(NodeId::new(1), 1).unwrap();
        World { net, crash_log: Vec::new() }
    }

    #[test]
    fn plan_fires_at_virtual_timestamps() {
        let mut sim = Sim::new(world());
        FaultPlan::new()
            .partition_between(0, 1, SimTime::from_secs(1), SimTime::from_secs(2))
            .crash_window(NodeId::new(1), SimTime::from_secs(3), SimTime::from_secs(4))
            .install(sim.scheduler());

        let mut rng = seeded_rng(5);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        // Before the partition: reachable.
        sim.run_until(SimTime::from_millis(500));
        assert!(sim.world.net.transfer(a, b, 1, sim.now(), &mut rng).is_ok());
        // During the partition: severed.
        sim.run_until(SimTime::from_millis(1_500));
        assert!(sim.world.net.transfer(a, b, 1, sim.now(), &mut rng).is_err());
        // After heal, before crash: reachable again.
        sim.run_until(SimTime::from_millis(2_500));
        assert!(sim.world.net.transfer(a, b, 1, sim.now(), &mut rng).is_ok());
        // During the crash window: node 1 down, hooks fired in order.
        sim.run_until(SimTime::from_millis(3_500));
        assert!(!sim.world.net.is_up(b));
        sim.run_to_completion();
        assert!(sim.world.net.is_up(b));
        assert_eq!(sim.world.crash_log, vec![(b, "crash"), (b, "restart")]);
    }

    #[test]
    fn fault_counters_audit_every_injection() {
        let mut sim = Sim::new(world());
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        FaultPlan::new()
            .at(SimTime::from_millis(10), Fault::DegradeLink { a, b, spec: LinkClass::Cellular5G.spec() })
            .at(SimTime::from_millis(20), Fault::RestoreLink { a, b })
            .partition_between(0, 1, SimTime::from_millis(30), SimTime::from_millis(40))
            .at(SimTime::from_millis(50), Fault::Crash { node: NodeId::new(7) }) // unknown
            .install(sim.scheduler());
        sim.run_to_completion();
        let s = &sim.world.net.stats;
        assert_eq!(s.get("faults_link_degraded"), 2); // bidi = two directed links
        assert_eq!(s.get("faults_link_restored"), 2);
        assert_eq!(s.get("faults_severed"), 1);
        assert_eq!(s.get("faults_healed"), 1);
        assert_eq!(s.get("faults_invalid"), 1);
        assert!(sim.world.crash_log.is_empty());
    }

    #[test]
    fn same_plan_same_seed_is_reproducible() {
        let run = || {
            let mut sim = Sim::new(world());
            FaultPlan::new()
                .partition_between(0, 1, SimTime::from_millis(5), SimTime::from_millis(9))
                .install(sim.scheduler());
            // A probe that records outcomes interleaved with the faults.
            let mut log: Vec<(u64, bool)> = Vec::new();
            let mut rng = seeded_rng(11);
            for ms in (0..12).step_by(2) {
                sim.run_until(SimTime::from_millis(ms));
                let ok = sim
                    .world
                    .net
                    .transfer(NodeId::new(0), NodeId::new(1), 8, sim.now(), &mut rng)
                    .is_ok();
                log.push((ms, ok));
            }
            sim.run_to_completion();
            (log, format!("{:?}", sim.world.net.stats))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_length_crash_window_restarts_in_the_same_instant() {
        // `from == until` degenerates to crash+restart at one timestamp;
        // plan order resolves the tie, so the node is up afterwards and
        // both hooks fired (in order) and were counted.
        let t = SimTime::from_millis(2);
        let b = NodeId::new(1);
        let mut sim = Sim::new(world());
        FaultPlan::new().crash_window(b, t, t).install(sim.scheduler());
        sim.run_to_completion();
        assert!(sim.world.net.is_up(b), "zero-length window leaves the node up");
        assert_eq!(sim.world.crash_log, vec![(b, "crash"), (b, "restart")]);
        assert_eq!(sim.world.net.stats.get("faults_node_crash"), 1);
        assert_eq!(sim.world.net.stats.get("faults_node_restart"), 1);
    }

    #[test]
    fn overlapping_partitions_on_one_pair_heal_at_the_first_until() {
        // Two overlapping windows on the same group pair: severed state
        // is a set, not a counter, so the first window's heal reconnects
        // the pair even though the second window is still "open" — and
        // every injection (including the no-op second heal) is audited.
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let mut sim = Sim::new(world());
        FaultPlan::new()
            .partition_between(0, 1, SimTime::from_millis(10), SimTime::from_millis(30))
            .partition_between(0, 1, SimTime::from_millis(20), SimTime::from_millis(40))
            .install(sim.scheduler());
        let mut rng = seeded_rng(3);
        sim.run_until(SimTime::from_millis(25));
        assert!(sim.world.net.transfer(a, b, 1, sim.now(), &mut rng).is_err(), "both open");
        sim.run_until(SimTime::from_millis(35));
        assert!(
            sim.world.net.transfer(a, b, 1, sim.now(), &mut rng).is_ok(),
            "first heal reconnects the pair (set semantics, not refcounts)"
        );
        sim.run_to_completion();
        assert_eq!(sim.world.net.stats.get("faults_severed"), 2);
        assert_eq!(sim.world.net.stats.get("faults_healed"), 2);
    }

    #[test]
    fn fault_scheduled_at_the_current_tick_still_fires() {
        // Installing a fault at the scheduler's current instant (t = 0,
        // before any run) must fire it on the next drain, not drop it.
        let b = NodeId::new(1);
        let mut sim = Sim::new(world());
        FaultPlan::new()
            .at(SimTime::ZERO, Fault::Crash { node: b })
            .install(sim.scheduler());
        assert!(sim.world.net.is_up(b), "nothing fires before the scheduler drains");
        sim.run_until(SimTime::ZERO);
        assert!(!sim.world.net.is_up(b), "a current-tick fault fires on the next drain");
        assert_eq!(sim.world.crash_log, vec![(b, "crash")]);
        assert_eq!(sim.world.net.stats.get("faults_node_crash"), 1);
    }

    #[test]
    fn simultaneous_faults_fire_in_plan_order() {
        // Heal listed before sever at the same instant: sever wins the
        // tie because plan order is preserved; listed the other way the
        // window closes immediately.
        let t = SimTime::from_millis(1);
        let mut sim = Sim::new(world());
        FaultPlan::new()
            .at(t, Fault::Heal { group_a: 0, group_b: 1 })
            .at(t, Fault::Partition { group_a: 0, group_b: 1 })
            .install(sim.scheduler());
        sim.run_to_completion();
        let mut rng = seeded_rng(1);
        assert!(sim
            .world
            .net
            .transfer(NodeId::new(0), NodeId::new(1), 1, sim.now(), &mut rng)
            .is_err());
        // Empty plans are fine.
        assert!(FaultPlan::new().is_empty());
        assert_eq!(FaultPlan::new().at(t, Fault::Heal { group_a: 0, group_b: 1 }).len(), 1);
    }
}
