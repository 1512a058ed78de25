//! E20 — raft-replicated region failover (§IV disaggregation, fault
//! tolerance for the durable co-space engine).
//!
//! A client spawns one entity every 10 ms into a [`ReplicatedMetaverse`]
//! region while a scripted fault fires mid-run: crash the current
//! leader, partition it into a minority, or crash-and-wipe a fixed
//! replica (disk loss — it must catch up via snapshot install). The
//! sweep crosses replica count {1, 3, 5} with the three fault scripts;
//! the 1-replica column is the unreplicated baseline the paper's
//! robustness argument is measured against: it is unavailable for the
//! *entire* fault window and *loses acknowledged writes* under disk
//! loss, where the replicated regions bound unavailability to one
//! election and never lose an acked write. Reconvergence is checked
//! byte-identically (engine `state_encoding` digests must agree across
//! replicas at the end), and the determinism table reruns a cell to
//! show the whole region — elections included — is a pure function of
//! its seed.

use mv_common::geom::Point;
use mv_common::hash::fx_hash_one;
use mv_common::id::NodeId;
use mv_common::table::{n, Table};
use mv_common::time::SimTime;
use mv_core::entity::EntityKind;
use mv_core::replicated::RegionConfig;
use mv_core::{DurableOp, ReplicatedMetaverse};
use mv_net::fault::{apply, Fault, FaultTarget};
use mv_net::{FaultPlan, Network, Sim};

/// Writes flow over `[WRITE_START, WRITE_END)`, one per 10 ms. Shared
/// with E22 (`crate::exp_health`), which reruns these fault scripts
/// with SLOs armed.
pub const WRITE_START_MS: u64 = 1_000;
/// End of the write window (exclusive).
pub const WRITE_END_MS: u64 = 6_000;
/// Fault injection time.
pub const FAULT_AT_MS: u64 = 2_000;
/// Fault heal time.
pub const HEAL_AT_MS: u64 = 4_000;
/// Quiet tail for reconvergence.
pub const END_MS: u64 = 9_000;

#[derive(Clone, Copy)]
enum Scenario {
    LeaderCrash,
    MinorityPartition,
    WipeCrash,
}

impl Scenario {
    fn name(self) -> &'static str {
        match self {
            Scenario::LeaderCrash => "leader-crash",
            Scenario::MinorityPartition => "minority-partition",
            Scenario::WipeCrash => "wipe-crash",
        }
    }
}

struct World {
    region: ReplicatedMetaverse,
    victim: Option<NodeId>,
    next_write: u64,
    submitted: usize,
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
                    self.submitted += 1;
                    self.next_write += 1;
                }
                None => self.unavail_ticks += 1,
            }
        }
    }
}

struct CellResult {
    submitted: usize,
    acked: usize,
    /// Write attempts that found no available leader (10 ms each).
    unavail_ticks: u64,
    /// Acked commands missing from at least one replica at the end.
    lost_acked: usize,
    /// Every replica's engine digest equal at the end of the run.
    reconverged: bool,
    /// Raft terms that elected a leader over the run.
    terms: usize,
    violations: usize,
    log_hash: u64,
}

fn run_cell(scenario: Scenario, replicas: usize, seed: u64) -> CellResult {
    let cfg = RegionConfig { replicas, ..RegionConfig::default() };
    // Members are numbered from 0; wipe a follower when one exists, the
    // lone node in the unreplicated baseline.
    let fixed_victim = NodeId::new(u64::from(replicas > 1));
    let mut world = World {
        region: ReplicatedMetaverse::new(cfg, seed),
        victim: None,
        next_write: 0,
        submitted: 0,
        unavail_ticks: 0,
    };
    if matches!(scenario, Scenario::WipeCrash) {
        world.region.set_wipe_on_crash(fixed_victim, true);
    }
    let mut sim = Sim::new(world);
    let sched = sim.scheduler();

    match scenario {
        Scenario::LeaderCrash => {
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
    let members = w.region.members().len();
    let lost_acked = w
        .region
        .acked()
        .iter()
        .filter(|cmd| !(0..members).all(|i| w.region.replica_applied(i, cmd)))
        .count();
    let digests = w.region.replica_digests();
    CellResult {
        submitted: w.submitted,
        acked: w.region.acked().len(),
        unavail_ticks: w.unavail_ticks,
        lost_acked,
        reconverged: digests.iter().all(|d| d.is_some() && *d == digests[0]),
        terms: w.region.elected_terms(),
        violations: w.region.violations().len(),
        log_hash: fx_hash_one(&w.region.log),
    }
}

/// Run E20: replica count × fault script sweep + determinism check.
pub fn e20() -> Vec<Table> {
    let mut sweep = Table::new(
        "E20a: failover under scripted faults (1 write/10ms over [1s,6s), fault [2s,4s), \
         seed 20; replicas=1 is the unreplicated baseline)",
        &[
            "replicas",
            "scenario",
            "submitted",
            "acked",
            "unavail_ms",
            "lost_acked",
            "reconverged",
            "terms",
            "violations",
        ],
    );
    for &replicas in &[1usize, 3, 5] {
        for &scenario in
            &[Scenario::LeaderCrash, Scenario::MinorityPartition, Scenario::WipeCrash]
        {
            let r = run_cell(scenario, replicas, 20);
            sweep.row(&[
                n(replicas as u64),
                scenario.name().into(),
                n(r.submitted as u64),
                n(r.acked as u64),
                n(r.unavail_ticks * 10),
                n(r.lost_acked as u64),
                if r.reconverged { "yes".into() } else { "NO".into() },
                n(r.terms as u64),
                n(r.violations as u64),
            ]);
        }
    }

    let mut det = Table::new(
        "E20b: same-seed runs are byte-identical (leader-crash, 3 replicas)",
        &["seed", "log_hash", "matches_rerun"],
    );
    for &seed in &[20u64, 1020] {
        let a = run_cell(Scenario::LeaderCrash, 3, seed);
        let b = run_cell(Scenario::LeaderCrash, 3, seed);
        det.row(&[
            n(seed),
            format!("{:016x}", a.log_hash),
            if a.log_hash == b.log_hash { "yes".into() } else { "NO".into() },
        ]);
    }
    vec![sweep, det]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicated_regions_never_lose_acked_writes_but_the_baseline_does() {
        // 3 replicas: disk loss on one node loses nothing and the
        // region reconverges byte-identically.
        let r3 = run_cell(Scenario::WipeCrash, 3, 20);
        assert_eq!(r3.lost_acked, 0);
        assert_eq!(r3.violations, 0);
        assert!(r3.reconverged);
        assert!(r3.acked > 0 && r3.acked <= r3.submitted);
        // The unreplicated baseline loses every write acked before the
        // wipe — the point of E20's comparison column.
        let r1 = run_cell(Scenario::WipeCrash, 1, 20);
        assert!(r1.lost_acked > 0, "a wiped single node must lose acked writes");
    }

    #[test]
    fn e20_cells_are_deterministic() {
        let a = run_cell(Scenario::LeaderCrash, 3, 20);
        let b = run_cell(Scenario::LeaderCrash, 3, 20);
        assert_eq!(a.log_hash, b.log_hash);
        assert_eq!(a.acked, b.acked);
        assert_eq!(a.unavail_ticks, b.unavail_ticks);
    }
}
