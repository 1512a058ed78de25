//! Raft failover safety harness: a replicated co-space region driven
//! through scripted leader crashes, minority partitions, and
//! crash+restart with total state loss.
//!
//! A client spawns one entity every 10 ms into a 3- or 5-replica
//! `ReplicatedMetaverse` region while a fault script fires at fixed
//! virtual times. Leader-targeted faults (crash the leader, partition
//! the leader into a minority) resolve their victim *at fire time* —
//! leadership is itself a pure function of the seed, so the runs stay
//! deterministic. Asserted, for every scenario × replica count:
//!
//! * **No acknowledged write is ever lost.** A write acks only when its
//!   proposing leader applies it at a committed index; every acked
//!   command must be present in every replica's applied history at the
//!   end of the run.
//! * **Election safety.** No term ever has two leaders (and no instant
//!   has two valid read leases) — `ReplicatedMetaverse` records any
//!   violation it observes while running.
//! * **Byte-identical reconvergence.** After the faults heal, every
//!   replica's engine reaches the same `state_encoding` (compared via
//!   digest) and the same applied-command history.
//! * **Same-seed determinism.** Re-running a scenario with the same
//!   seed reproduces the event log, digests, and ack sequence exactly.

use mv_common::geom::Point;
use mv_common::hash::fx_hash_one;
use mv_common::id::NodeId;
use mv_common::time::SimTime;
use mv_core::entity::EntityKind;
use mv_core::replicated::RegionConfig;
use mv_core::{DurableOp, ReplicatedMetaverse};
use mv_net::fault::{apply, Fault, FaultTarget};
use mv_net::{FaultPlan, Network, Sim};

/// Writes flow over `[WRITE_START, WRITE_END)`, one per 10 ms.
const WRITE_START_MS: u64 = 1_000;
const WRITE_END_MS: u64 = 6_000;
/// The fault window.
const FAULT_AT_MS: u64 = 2_000;
const HEAL_AT_MS: u64 = 4_000;
/// Quiet tail for reconvergence.
const END_MS: u64 = 9_000;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Scenario {
    /// Crash whoever leads at the fault instant; restart at the heal.
    LeaderCrash,
    /// Partition the leader (plus minority peers) from the majority.
    MinorityPartition,
    /// Crash a fixed node with *disk* loss: it restarts empty and must
    /// catch up via snapshot install or full backfill.
    WipeCrash,
}

struct World {
    region: ReplicatedMetaverse,
    /// Victim of a leader-targeted fault, resolved at fire time.
    victim: Option<NodeId>,
    next_write: u64,
    submitted: Vec<Vec<u8>>,
    unavail_ticks: u64,
}

impl FaultTarget for World {
    fn fault_network(&mut self) -> &mut Network {
        self.region.fault_network()
    }
    fn on_node_crash(&mut self, node: NodeId) {
        self.region.on_node_crash(node);
    }
    fn on_node_restart(&mut self, node: NodeId) {
        self.region.on_node_restart(node);
    }
}

impl World {
    fn tick(&mut self, now: SimTime) {
        self.region.tick(now);
        let ms = now.as_micros() / 1_000;
        if (WRITE_START_MS..WRITE_END_MS).contains(&ms) && ms.is_multiple_of(10) {
            let op = DurableOp::Spawn {
                name: format!("w{}", self.next_write),
                kind: EntityKind::Avatar,
                position: Point::new(self.next_write as f64, 0.0),
                ts: now,
            };
            match self.region.submit(&op, now) {
                Some(_) => {
                    self.submitted.push(op.encode());
                    self.next_write += 1;
                }
                None => self.unavail_ticks += 1,
            }
        }
    }
}

struct RunResult {
    acked: Vec<Vec<u8>>,
    submitted: usize,
    unavail_ticks: u64,
    digests: Vec<Option<u64>>,
    history_hashes: Vec<Option<u64>>,
    violations: Vec<String>,
    up_count: usize,
    members: usize,
    log_hash: u64,
    applied_all: bool,
    /// Proposals still waiting for their leader's commit at the end.
    pending_submits: f64,
    /// Snapshots accepted region-wide (`raft.node.snapshots_installed`).
    snapshots_installed: u64,
}

fn run(scenario: Scenario, replicas: usize, seed: u64) -> RunResult {
    let cfg = RegionConfig { replicas, ..RegionConfig::default() };
    let mut world = World {
        region: ReplicatedMetaverse::new(cfg, seed),
        victim: None,
        next_write: 0,
        submitted: Vec::new(),
        unavail_ticks: 0,
    };
    let fixed_victim = NodeId::new(1);
    if scenario == Scenario::WipeCrash {
        world.region.set_wipe_on_crash(fixed_victim, true);
    }
    let mut sim = Sim::new(world);
    let sched = sim.scheduler();

    match scenario {
        Scenario::LeaderCrash => {
            // The victim is whoever leads when the fault fires.
            sched.at(SimTime::from_millis(FAULT_AT_MS), |w: &mut World, _s| {
                if let Some(leader) = w.region.leader() {
                    w.victim = Some(leader);
                    apply(w, &Fault::Crash { node: leader });
                }
            });
            sched.at(SimTime::from_millis(HEAL_AT_MS), |w: &mut World, _s| {
                if let Some(victim) = w.victim.take() {
                    apply(w, &Fault::Restart { node: victim });
                }
            });
        }
        Scenario::MinorityPartition => {
            sched.at(SimTime::from_millis(FAULT_AT_MS), |w: &mut World, _s| {
                w.region.partition_minority_with_leader();
            });
            sched.at(SimTime::from_millis(HEAL_AT_MS), |w: &mut World, _s| {
                w.region.heal_partition();
            });
        }
        Scenario::WipeCrash => {
            // A fixed-target crash window exercises the scripted
            // FaultPlan path end to end (counted in Network::stats).
            FaultPlan::new()
                .crash_window(
                    fixed_victim,
                    SimTime::from_millis(FAULT_AT_MS),
                    SimTime::from_millis(HEAL_AT_MS),
                )
                .install(sched);
        }
    }

    for ms in 0..=END_MS {
        sched.at(SimTime::from_millis(ms), |w: &mut World, s| w.tick(s.now()));
    }
    sim.run_to_completion();

    let w = &sim.world;
    let n = w.region.members().len();
    let acked = w.region.acked().to_vec();
    let applied_all = acked.iter().all(|cmd| (0..n).all(|i| w.region.replica_applied(i, cmd)));
    RunResult {
        acked,
        submitted: w.submitted.len(),
        unavail_ticks: w.unavail_ticks,
        digests: w.region.replica_digests(),
        history_hashes: (0..n).map(|i| w.region.history_hash(i)).collect(),
        violations: w.region.violations().to_vec(),
        up_count: w.region.up_count(),
        members: n,
        log_hash: fx_hash_one(&w.region.log),
        applied_all,
        pending_submits: w.region.registry().gauge_get("core.replicated.pending_submits"),
        snapshots_installed: w
            .region
            .registry()
            .counter_get("raft.node.snapshots_installed"),
    }
}

fn assert_safety(r: &RunResult, label: &str) {
    assert_eq!(r.up_count, r.members, "{label}: every replica back up at the end");
    assert!(r.violations.is_empty(), "{label}: safety violations: {:?}", r.violations);
    assert!(
        !r.acked.is_empty() && r.submitted > 0,
        "{label}: the workload must actually ack writes (acked {}, submitted {})",
        r.acked.len(),
        r.submitted
    );
    assert!(
        r.acked.len() <= r.submitted,
        "{label}: acks cannot exceed submissions"
    );
    assert!(r.applied_all, "{label}: an acknowledged write is missing from a replica");
    assert!(
        r.digests.iter().all(|d| d.is_some() && *d == r.digests[0]),
        "{label}: replicas did not reconverge byte-identically: {:?}",
        r.digests
    );
    assert!(
        r.history_hashes.iter().all(|h| h.is_some() && *h == r.history_hashes[0]),
        "{label}: applied histories diverged: {:?}",
        r.history_hashes
    );
    assert_eq!(
        r.pending_submits, 0.0,
        "{label}: a proposal outlived its leader's term in the pending set"
    );
}

fn assert_deterministic(a: &RunResult, b: &RunResult, label: &str) {
    assert_eq!(a.log_hash, b.log_hash, "{label}: event logs diverged across same-seed runs");
    assert_eq!(a.digests, b.digests, "{label}: digests diverged across same-seed runs");
    assert_eq!(a.acked, b.acked, "{label}: ack sequences diverged across same-seed runs");
    assert_eq!(a.unavail_ticks, b.unavail_ticks, "{label}: availability diverged");
}

#[test]
fn leader_crash_loses_no_acked_writes() {
    for &replicas in &[3usize, 5] {
        let label = format!("leader-crash/{replicas}");
        let r = run(Scenario::LeaderCrash, replicas, 42);
        assert_safety(&r, &label);
        assert!(
            r.unavail_ticks > 0,
            "{label}: a leader crash must open an unavailability window"
        );
        let again = run(Scenario::LeaderCrash, replicas, 42);
        assert_deterministic(&r, &again, &label);
    }
}

#[test]
fn minority_partition_never_splits_the_brain() {
    for &replicas in &[3usize, 5] {
        let label = format!("minority-partition/{replicas}");
        let r = run(Scenario::MinorityPartition, replicas, 43);
        assert_safety(&r, &label);
        let again = run(Scenario::MinorityPartition, replicas, 43);
        assert_deterministic(&r, &again, &label);
    }
}

#[test]
fn wiped_node_catches_up_via_snapshot() {
    for &replicas in &[3usize, 5] {
        let label = format!("wipe-crash/{replicas}");
        let r = run(Scenario::WipeCrash, replicas, 44);
        assert_safety(&r, &label);
        assert!(
            r.snapshots_installed >= 1,
            "{label}: the wiped node caught up without a snapshot"
        );
        let again = run(Scenario::WipeCrash, replicas, 44);
        assert_deterministic(&r, &again, &label);
    }
}

#[test]
fn different_seeds_explore_different_histories() {
    let a = run(Scenario::LeaderCrash, 3, 42);
    let b = run(Scenario::LeaderCrash, 3, 1042);
    assert_ne!(a.log_hash, b.log_hash, "seeds must actually steer the run");
}
