//! E22 — operational health: burn-rate SLO alerts over the replicated
//! region's fault scripts (§IV operating the deluge, not just storing
//! it).
//!
//! E20 proved the region survives its faults; E22 proves the *health
//! layer notices them*. Each cell reruns an E20 fault script — crash
//! the leader, partition it into a minority, crash-and-wipe a fixed
//! follower — with an armed [`HealthMonitor`] rolling a per-ms
//! [`mv_obs::MetricWindows`] over the region's registry and evaluating
//! four SLOs by the multi-window burn-rate rule:
//!
//! * `region.availability` — submit failures / attempts (error ratio);
//! * `region.replica-down` — `core.replicated.down_replicas` gauge > 0;
//! * `region.commit-lag` — `core.replicated.commit_lag` gauge above
//!   threshold (a partitioned leader accepts writes it cannot commit);
//! * `region.ack-latency` — `core.replicated.ack_ms` tail above 64 ms.
//!
//! The claims E22 gates in CI: every fault script fires at least one
//! alert within [`DETECT_BOUND_MS`] of injection; every alert clears by
//! the end of the quiet tail; the fault-free baseline fires *nothing*;
//! and the alert log and flight-recorder bundles are byte-identical
//! across same-seed runs.

use crate::exp_raft::{END_MS, FAULT_AT_MS, HEAL_AT_MS, WRITE_END_MS, WRITE_START_MS};
use mv_common::geom::Point;
use mv_common::id::NodeId;
use mv_common::table::{n, Table};
use mv_common::time::SimTime;
use mv_core::entity::EntityKind;
use mv_core::replicated::RegionConfig;
use mv_core::{DurableOp, ReplicatedMetaverse};
use mv_net::fault::{apply, Fault, FaultTarget};
use mv_net::{FaultPlan, Network, Sim};
use mv_obs::export::JsonlSink;
use mv_obs::{HealthMonitor, SloSpec};

/// An alert must fire within this many ms of fault injection.
pub const DETECT_BOUND_MS: u64 = 600;

/// The fault scripts E22 arms SLOs over (`None` = fault-free baseline).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// No fault: the false-positive control.
    Baseline,
    /// Crash the current leader at `FAULT_AT_MS`, restart at `HEAL_AT_MS`.
    LeaderCrash,
    /// Partition the leader into a minority for the fault window.
    MinorityPartition,
    /// Crash a fixed follower with disk wipe (snapshot catch-up on heal).
    WipeCrash,
}

impl Scenario {
    fn name(self) -> &'static str {
        match self {
            Scenario::Baseline => "baseline",
            Scenario::LeaderCrash => "leader-crash",
            Scenario::MinorityPartition => "minority-partition",
            Scenario::WipeCrash => "wipe-crash",
        }
    }
}

/// The four SLOs E22 arms, tuned for the 1 ms health tick: fast window
/// 100 ticks, slow window 300, so detection needs a sustained signal
/// but stays well inside [`DETECT_BOUND_MS`].
fn armed_slos() -> Vec<SloSpec> {
    vec![
        SloSpec::availability(
            "region.availability",
            "core.replicated.submit_unavailable",
            "core.replicated.submit_attempts",
            0.05,
        )
        .windows(100, 300)
        .burn(2.0, 1.0)
        .min_events(4),
        SloSpec::staleness("region.replica-down", "core.replicated.down_replicas", 0.5, 0.2)
            .windows(100, 300)
            .burn(2.0, 1.0)
            .min_events(20),
        SloSpec::staleness("region.commit-lag", "core.replicated.commit_lag", 8.0, 0.2)
            .windows(100, 300)
            .burn(2.0, 1.0)
            .min_events(20),
        SloSpec::latency("region.ack-latency", "core.replicated.ack_ms", 64.0, 0.10)
            .windows(100, 300)
            .burn(2.0, 1.0)
            .min_events(8),
    ]
}

struct World {
    region: ReplicatedMetaverse,
    monitor: HealthMonitor,
    victim: Option<NodeId>,
    next_write: u64,
    /// Region log lines already forwarded into the recorder.
    log_consumed: usize,
    /// Node that restarted since the last health tick → recovery dump.
    pending_recovery: Option<NodeId>,
    /// Per-tick windowed/SLO stats stream (the `experiments --jsonl`
    /// path): a preallocated sink whose `grows()` counter proves the
    /// exporter never allocates while the run it observes is hot.
    sink: JsonlSink,
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
        self.pending_recovery = Some(node);
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
            if self.region.submit(&op, now).is_some() {
                self.next_write += 1;
            }
        }
        // Forward new region event-log lines into the flight recorder's
        // evidence, then pump the monitor.
        for line in self.region.log.iter().skip(self.log_consumed) {
            self.monitor.note_event(line.clone());
        }
        self.log_consumed = self.region.log.len();
        if let Some(node) = self.pending_recovery.take() {
            self.monitor.dump(&format!("recovery:n{}", node.raw()), now);
        }
        let new_events = self.monitor.tick(now, &self.region.registry());
        // Stream this tick's windowed view, SLO status, and any new
        // alert events through the reused sink — the same encode path
        // `experiments --jsonl` uses, kept allocation-free in steady
        // state (gated by `CellResult::export_grows`).
        let tail = self.monitor.engine.events().len().saturating_sub(new_events);
        self.sink.clear();
        self.sink.windows(&self.monitor.windows, 100);
        self.sink.slo(&self.monitor.engine);
        self.sink.alerts(self.monitor.engine.events().get(tail..).unwrap_or(&[]));
    }
}

/// What one E22 cell measures.
pub struct CellResult {
    /// Fire events over the run.
    pub fired: u64,
    /// Clear events over the run.
    pub cleared: u64,
    /// Sim ms of the first fire event, if any.
    pub first_fire_ms: Option<u64>,
    /// Sim ms of the last clear event, if any.
    pub last_clear_ms: Option<u64>,
    /// Alerts still active at the end of the quiet tail.
    pub active_at_end: usize,
    /// Distinct SLOs that fired.
    pub slos_fired: Vec<String>,
    /// Debug bundles dumped (alert fires + recovery dumps).
    pub bundles: usize,
    /// Canonical alert log (byte-stable across same-seed runs).
    pub alert_log: String,
    /// Fingerprint of the canonical alert log.
    pub log_hash: u64,
    /// Fingerprint of every dumped bundle's bytes.
    pub bundle_hash: u64,
    /// Buffer reallocations in the per-tick windowed/SLO stats stream
    /// (0 = the exporter stayed allocation-free for the whole run).
    pub export_grows: u64,
}

/// Run one fault script with the SLO set armed.
pub fn run_cell(scenario: Scenario, replicas: usize, seed: u64) -> CellResult {
    let cfg = RegionConfig { replicas, ..RegionConfig::default() };
    let fixed_victim = NodeId::new(u64::from(replicas > 1));
    let region = ReplicatedMetaverse::new(cfg, seed);
    let mut monitor = HealthMonitor::new(512, 64);
    for spec in armed_slos() {
        monitor.arm(spec);
    }
    let mut world = World {
        region,
        monitor,
        victim: None,
        next_write: 0,
        log_consumed: 0,
        pending_recovery: None,
        sink: JsonlSink::with_capacity(1 << 14),
    };
    if scenario == Scenario::WipeCrash {
        world.region.set_wipe_on_crash(fixed_victim, true);
    }
    let mut sim = Sim::new(world);
    let sched = sim.scheduler();

    match scenario {
        Scenario::Baseline => {}
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
    let events = w.monitor.alert_log();
    let first_fire_ms = events
        .iter()
        .find(|e| e.kind == mv_obs::AlertKind::Fire)
        .map(|e| e.at.as_micros() / 1_000);
    let last_clear_ms = events
        .iter()
        .rev()
        .find(|e| e.kind == mv_obs::AlertKind::Clear)
        .map(|e| e.at.as_micros() / 1_000);
    let mut slos_fired: Vec<String> = events
        .iter()
        .filter(|e| e.kind == mv_obs::AlertKind::Fire)
        .map(|e| e.slo.clone())
        .collect();
    slos_fired.sort();
    slos_fired.dedup();
    CellResult {
        fired: w.monitor.engine.fired_total(),
        cleared: w.monitor.engine.cleared_total(),
        first_fire_ms,
        last_clear_ms,
        active_at_end: w.monitor.active_alerts(),
        slos_fired,
        bundles: w.monitor.recorder.bundles().len(),
        alert_log: w.monitor.canonical_alert_log(),
        log_hash: w.monitor.engine.log_hash(),
        bundle_hash: w.monitor.recorder.bundle_hash(),
        export_grows: w.sink.grows(),
    }
}

/// What the injected-regression canary produced.
pub struct CanaryResult {
    /// Alerts fired (must be ≥ 1 or the alert path is broken).
    pub fired: u64,
    /// The canonical alert log.
    pub alert_log: String,
    /// The first dumped debug bundle's JSONL (empty if none dumped).
    pub bundle_jsonl: String,
}

/// Injected-regression canary: a deliberately broken run — 100% error
/// ratio against an absurdly strict availability SLO — that must fire
/// an alert and dump a bundle. `bench_check` runs this to prove the
/// alert path itself works; a health gate that can never fire is worse
/// than none.
pub fn alert_canary() -> CanaryResult {
    let mut reg = mv_obs::Registry::new();
    let mut mon = HealthMonitor::new(32, 16);
    mon.arm(
        SloSpec::availability(
            "canary.availability",
            "bench.canary.err",
            "bench.canary.total",
            0.001,
        )
        .windows(4, 8)
        .burn(1.0, 1.0)
        .min_events(4),
    );
    let (e, t) = (reg.counter("bench.canary.err"), reg.counter("bench.canary.total"));
    for ms in 0..32u64 {
        reg.incr(t);
        reg.incr(e);
        mon.tick(SimTime::from_millis(ms), &reg);
    }
    CanaryResult {
        fired: mon.engine.fired_total(),
        alert_log: mon.canonical_alert_log(),
        bundle_jsonl: mon
            .recorder
            .bundles()
            .first()
            .map(|b| b.jsonl.clone())
            .unwrap_or_default(),
    }
}

/// Run E22: fault script × armed-SLO sweep + determinism check.
pub fn e22() -> Vec<Table> {
    let mut sweep = Table::new(
        "E22a: burn-rate alerts under scripted faults (3 replicas, fault [2s,4s), seed 22; \
         detect_ms is first fire minus injection)",
        &[
            "scenario",
            "fired",
            "cleared",
            "detect_ms",
            "cleared_by_end",
            "slos_fired",
            "bundles",
            "export_grows",
        ],
    );
    for &scenario in &[
        Scenario::Baseline,
        Scenario::LeaderCrash,
        Scenario::MinorityPartition,
        Scenario::WipeCrash,
    ] {
        let r = run_cell(scenario, 3, 22);
        let detect = match r.first_fire_ms {
            Some(ms) => n(ms.saturating_sub(FAULT_AT_MS)),
            None => "-".into(),
        };
        sweep.row(&[
            scenario.name().into(),
            n(r.fired),
            n(r.cleared),
            detect,
            if r.active_at_end == 0 { "yes".into() } else { "NO".into() },
            if r.slos_fired.is_empty() { "-".into() } else { r.slos_fired.join(",") },
            n(r.bundles as u64),
            n(r.export_grows),
        ]);
    }

    let mut det = Table::new(
        "E22b: same-seed alert logs and debug bundles are byte-identical (leader-crash, 3 \
         replicas)",
        &["seed", "alert_log_hash", "bundle_hash", "matches_rerun"],
    );
    for &seed in &[22u64, 1022] {
        let a = run_cell(Scenario::LeaderCrash, 3, seed);
        let b = run_cell(Scenario::LeaderCrash, 3, seed);
        let same = a.log_hash == b.log_hash && a.bundle_hash == b.bundle_hash;
        det.row(&[
            n(seed),
            format!("{:016x}", a.log_hash),
            format!("{:016x}", a.bundle_hash),
            if same { "yes".into() } else { "NO".into() },
        ]);
    }
    vec![sweep, det]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fault_script_fires_within_bound_and_clears() {
        for &scenario in
            &[Scenario::LeaderCrash, Scenario::MinorityPartition, Scenario::WipeCrash]
        {
            let r = run_cell(scenario, 3, 22);
            let first = r
                .first_fire_ms
                .unwrap_or_else(|| panic!("{}: no alert fired\n{}", scenario.name(), r.alert_log));
            assert!(
                (FAULT_AT_MS..=FAULT_AT_MS + DETECT_BOUND_MS).contains(&first),
                "{}: first fire at {first} ms (fault at {FAULT_AT_MS})\n{}",
                scenario.name(),
                r.alert_log
            );
            assert_eq!(
                r.active_at_end,
                0,
                "{}: alerts still active at end\n{}",
                scenario.name(),
                r.alert_log
            );
            assert!(r.bundles >= 1, "{}: no debug bundle dumped", scenario.name());
        }
    }

    #[test]
    fn baseline_never_fires() {
        let r = run_cell(Scenario::Baseline, 3, 22);
        assert_eq!(r.fired, 0, "false positives on fault-free baseline:\n{}", r.alert_log);
        assert_eq!(r.bundles, 0);
    }

    #[test]
    fn alert_canary_fires_and_dumps() {
        let c = alert_canary();
        assert!(c.fired >= 1, "injected regression did not fire:\n{}", c.alert_log);
        assert!(c.alert_log.contains("slo=canary.availability kind=fire"), "{}", c.alert_log);
        assert!(
            c.bundle_jsonl.starts_with("{\"schema\":\"mv-debug-bundle/v1\""),
            "{}",
            c.bundle_jsonl
        );
    }

    #[test]
    fn per_tick_health_export_never_reallocates() {
        // Satellite 6: the preallocated windowed/SLO stats stream must
        // stay allocation-free across a whole faulted run — including
        // the ticks where alerts fire and the export gains lines.
        for &scenario in &[Scenario::Baseline, Scenario::LeaderCrash] {
            let r = run_cell(scenario, 3, 22);
            assert_eq!(
                r.export_grows,
                0,
                "{}: per-tick export reallocated",
                scenario.name()
            );
        }
    }

    #[test]
    fn e22_cells_are_deterministic() {
        let a = run_cell(Scenario::LeaderCrash, 3, 22);
        let b = run_cell(Scenario::LeaderCrash, 3, 22);
        assert_eq!(a.alert_log, b.alert_log);
        assert_eq!(a.log_hash, b.log_hash);
        assert_eq!(a.bundle_hash, b.bundle_hash);
    }
}
