//! `replicated_region`: a 3-replica raft region (5 ms one-way links, no
//! loss) under an open-loop client on the **sim clock**.
//!
//! One `ReplicatedMetaverse::tick` per sim-ms. The client submits a
//! Spawn/Position/Attr mix at each op's due sim-ms whatever the region is
//! doing, so the generator is never late; a refused `submit` is tried
//! again the next ms, and an op accepted but not acknowledged within a
//! sim-second (its leader died) is submitted again. Ack latency runs from
//! the op's due time to the tick at which its encoded command shows up in
//! `acked()`. The network is simulated, so sim-clock figures repeat
//! exactly per seed and say nothing about wall time; the wall figures are
//! the processor time the region needs per tick and per acknowledged op.
//!
//! * Phase A (every run): 2 ops/ms. Feeds the end-to-end metrics.
//! * Phase B (`--trace 1`): a fresh region per rate, 3 sim-s each + 1 s
//!   drain; finds the highest rate that is sustained.
//! * Phase C (`--trace 1`): fresh region, 2 ops/ms for 8 sim-s, leader
//!   crashed at 3 s and restarted at 5 s, then a quiet tail until the
//!   restarted replica has caught up (at most 10 s).

use crate::metrics::{quantile, ratio, Report, Steps, REPL_RATES};
use crate::trace::Tracer;
use crate::RunArgs;
use mv_common::geom::Point;
use mv_common::id::EntityId;
use mv_common::seeded_rng;
use mv_common::time::SimTime;
use mv_core::replicated::RegionConfig;
use mv_core::{DurableOp, EntityKind, ReplicatedMetaverse, ShardedMetaverse};
use mv_net::fault::{apply, Fault};
use rand::Rng;
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// The latency limit a sustained rate must meet, sim-ms at p99.
const ACK_LIMIT_MS: f64 = 50.0;
/// An accepted op still unacknowledged after this long is submitted again.
const ACK_TIMEOUT_MS: u64 = 1_000;
/// Entities the op mix addresses; the first ops of a phase spawn them.
const POOL: usize = 256;
/// Quiet sim-ms before load, for the first election.
const ELECT_MS: u64 = 1_000;
/// Load run on each instance before its measured phase, sim-ms.
const WARM_MS: u64 = 500;
const PHASE_A_RATE: u64 = 2;
/// Measured sim-ms of phase A per second of `--seconds`, from timings on
/// the 2-core host.
const PHASE_A_MS_PER_SECOND: f64 = 2_500.0;
const PHASE_B_LOAD_MS: u64 = 3_000;
/// Quiet tail after the load of phases A and B, sim-ms.
const DRAIN_MS: u64 = 1_000;
const PHASE_C_LOAD_MS: u64 = 8_000;
const PHASE_C_CRASH_MS: u64 = 3_000;
const PHASE_C_RESTART_MS: u64 = 5_000;
/// Longest quiet tail of phase C; it ends as soon as the replicas agree.
const PHASE_C_TAIL_MS: u64 = 10_000;

/// The commands of one phase, `rate` due per sim-ms of load. Every
/// command is distinct (its timestamp is), so an ack names its op.
struct Inputs {
    cmds: Vec<DurableOp>,
    /// `cmds` encoded, as `acked()` will name them.
    encoded: Vec<Vec<u8>>,
    rate: u64,
    gen_s: f64,
    digest: u64,
}

fn generate(rate: u64, load_ms: u64, seed: u64) -> Inputs {
    let start = Instant::now();
    // Ids come from a scratch engine: spawn order fixes them.
    let mut scratch = ShardedMetaverse::with_defaults(2);
    let specs: Vec<(String, EntityKind, Point)> = (0..POOL)
        .map(|i| {
            (
                format!("r{i}"),
                EntityKind::Avatar,
                Point::new(i as f64, 0.0),
            )
        })
        .collect();
    let ids: Vec<EntityId> = scratch.spawn_batch(&specs, SimTime::ZERO);
    let mut rng = seeded_rng(seed);
    let total = (rate * load_ms) as usize;
    let cmds: Vec<DurableOp> = (0..total)
        .map(|k| {
            // Distinct per op: µs = due ms × 1000 + position within the ms.
            let ts = SimTime::from_micros((k as u64 / rate) * 1_000 + k as u64 % rate);
            if k < POOL {
                let (name, kind, position) = specs[k].clone();
                DurableOp::Spawn {
                    name,
                    kind,
                    position,
                    ts,
                }
            } else if rng.gen_bool(0.75) {
                let position = Point::new(rng.gen_range(0.0..1_000.0), rng.gen_range(0.0..1_000.0));
                DurableOp::Position {
                    id: ids[rng.gen_range(0..POOL)],
                    position,
                    ts,
                }
            } else {
                DurableOp::Attr {
                    id: ids[rng.gen_range(0..POOL)],
                    name: "hp".into(),
                    value: rng.gen_range(0.0..100.0),
                    ts,
                }
            }
        })
        .collect();
    let encoded: Vec<Vec<u8>> = cmds.iter().map(DurableOp::encode).collect();
    let digest = mv_common::hash::fx_hash_one(&encoded);
    Inputs {
        cmds,
        encoded,
        rate,
        gen_s: start.elapsed().as_secs_f64(),
        digest,
    }
}

/// One region and the open-loop client's state against it.
struct Client {
    region: ReplicatedMetaverse,
    /// Sim-ms already ticked.
    now_ms: u64,
    /// Index of the next op that falls due.
    next_due: usize,
    /// Load began at this sim-ms (op k is due at `load_start + k / rate`).
    load_start: u64,
    /// Ops due and not yet accepted by a leader, oldest first.
    queue: VecDeque<usize>,
    /// Accepted and awaiting ack: encoded command → (op, accepted at ms).
    in_flight: BTreeMap<Vec<u8>, (usize, u64)>,
    acked_seen: usize,
    submitted: u64,
    refused: u64,
    resubmitted: u64,
    /// Ack latency per acknowledged op, sim-ms from its due time.
    ack_ms: Vec<f64>,
    /// One step per sim-ms; a request is an acknowledged op and the
    /// service sample the wall of the `tick` call.
    steps: Steps,
    first_refused_ms: Option<u64>,
    /// First accepted submit after the first refusal.
    recovered_ms: Option<u64>,
    /// Sim-ms from the crashed leader's restart until every replica was
    /// in the same state again (phase C).
    catchup_ms: Option<u64>,
}

impl Client {
    fn new(seed: u64) -> Self {
        Client {
            region: ReplicatedMetaverse::new(RegionConfig::default(), seed),
            now_ms: 0,
            next_due: 0,
            load_start: 0,
            queue: VecDeque::new(),
            in_flight: BTreeMap::new(),
            acked_seen: 0,
            submitted: 0,
            refused: 0,
            resubmitted: 0,
            ack_ms: Vec::new(),
            steps: Steps::default(),
            first_refused_ms: None,
            recovered_ms: None,
            catchup_ms: None,
        }
    }

    /// Ops accepted or queued and not yet acknowledged.
    fn backlog(&self) -> u64 {
        (self.queue.len() + self.in_flight.len()) as u64
    }

    /// Advance one sim-ms: submit what is due (if `load`), tick, collect acks.
    fn step(&mut self, inputs: &Inputs, load: bool, tr: &mut Tracer) {
        let ms = self.now_ms;
        let now = SimTime::from_millis(ms);
        tr.set_request(ms);
        let start = Instant::now();
        let root = tr.open("bench.sim_ms");
        if load {
            let due_until =
                (((ms - self.load_start + 1) * inputs.rate) as usize).min(inputs.cmds.len());
            self.queue.extend(self.next_due..due_until);
            self.next_due = due_until;
        }
        // Accepted ops whose leader died before acking go back in line.
        let mut late: Vec<usize> = self
            .in_flight
            .values()
            .filter(|&&(_, at)| ms - at >= ACK_TIMEOUT_MS)
            .map(|&(k, _)| k)
            .collect();
        if !late.is_empty() {
            late.sort_unstable();
            self.in_flight
                .retain(|_, &mut (_, at)| ms - at < ACK_TIMEOUT_MS);
            self.resubmitted += late.len() as u64;
            for k in late.into_iter().rev() {
                self.queue.push_front(k);
            }
        }
        let span = tr.open("core.replicated.submit");
        let mut calls = 0u64;
        while let Some(&k) = self.queue.front() {
            calls += 1;
            if self.region.submit(&inputs.cmds[k], now).is_none() {
                self.refused += 1;
                self.first_refused_ms.get_or_insert(ms);
                break;
            }
            if self.first_refused_ms.is_some() {
                self.recovered_ms.get_or_insert(ms);
            }
            self.submitted += 1;
            self.queue.pop_front();
            self.in_flight.insert(inputs.encoded[k].clone(), (k, ms));
        }
        tr.close_calls(span, calls);

        let tick_start = Instant::now();
        tr.call("core.replicated.tick", || self.region.tick(now));
        self.steps.service(tick_start.elapsed().as_secs_f64() * 1e6);
        tr.close(root);
        let wall_s = start.elapsed().as_secs_f64();

        let mut acks = 0;
        for cmd in &self.region.acked()[self.acked_seen..] {
            // A command acked twice (once late by its old leader) counts once.
            if let Some((k, _)) = self.in_flight.remove(cmd) {
                let due_ms = self.load_start + k as u64 / inputs.rate;
                self.ack_ms.push((ms - due_ms) as f64);
                acks += 1;
            }
        }
        self.steps.step(wall_s, acks);
        self.acked_seen = self.region.acked().len();
        self.now_ms += 1;
    }

    fn run(&mut self, inputs: &Inputs, ms: u64, load: bool, tr: &mut Tracer) {
        for _ in 0..ms {
            self.step(inputs, load, tr);
        }
    }
}

/// A fresh region, its first election, and `warm_ms` of load.
fn prepare(inputs: &Inputs, seed: u64, warm_ms: u64) -> Client {
    let mut client = Client::new(seed);
    let mut off = Tracer::new(false);
    client.run(inputs, ELECT_MS, false, &mut off);
    client.load_start = client.now_ms;
    client.run(inputs, warm_ms, true, &mut off);
    // The warm-up's measurements are not the run's.
    client.ack_ms.clear();
    client.steps = Steps::default();
    client
}

/// The region-level checks: no safety violation, every replica holds
/// every acknowledged command, all replicas in the same state.
fn check_region(client: &Client, phase: &str, converged: bool, report: &mut Report) {
    let region = &client.region;
    let ops = client.steps.requests().max(1);
    if !region.violations().is_empty() {
        report.fail(
            ops,
            format!("phase {phase}: safety violations {:?}", region.violations()),
        );
    }
    if !converged {
        return;
    }
    // Equal history hashes mean every replica applied the same commands
    // in the same order, so membership is checked on one of them.
    let replicas = region.members().len();
    let hashes: Vec<Option<u64>> = (0..replicas).map(|i| region.history_hash(i)).collect();
    if !hashes.iter().all(|h| h.is_some() && *h == hashes[0]) {
        report.fail(
            ops,
            format!("phase {phase}: replica histories differ: {hashes:?}"),
        );
    }
    let lost = region
        .acked()
        .iter()
        .filter(|cmd| !region.replica_applied(0, cmd))
        .count();
    if lost > 0 {
        report.fail(
            lost as u64,
            format!("phase {phase}: {lost} acknowledged commands missing on the replicas"),
        );
    }
    let digests = region.replica_digests();
    if !digests.iter().all(|d| d.is_some() && *d == digests[0]) {
        report.fail(
            ops,
            format!("phase {phase}: replica digests differ: {digests:?}"),
        );
    }
    let unacked = client.backlog();
    if unacked > 0 {
        report.fail(
            unacked,
            format!("phase {phase}: {unacked} ops still unacknowledged after the quiet tail"),
        );
    }
}

/// Phase A on a prepared client: load, then a quiet tail.
fn phase_a(client: &mut Client, inputs: &Inputs, load_ms: u64, tr: &mut Tracer) {
    client.run(inputs, load_ms, true, tr);
    let loaded = client.steps.len();
    client.run(inputs, DRAIN_MS, false, &mut Tracer::new(false));
    // Throughput and tick samples cover the loaded stretch only.
    client.steps.keep_first(loaded);
}

/// One phase-B step: is `rate` sustained? Returns (sustained, backlog at
/// the end of load, wall µs per ack).
fn phase_b_step(rate: u64, load_ms: u64, seed: u64, report: &mut Report) -> (bool, u64, f64) {
    let inputs = generate(rate, load_ms, seed);
    let mut client = prepare(&inputs, seed, 0);
    let mut off = Tracer::new(false);
    client.run(&inputs, load_ms / 2, true, &mut off);
    let backlog_mid = client.backlog();
    client.run(&inputs, load_ms - load_ms / 2, true, &mut off);
    let backlog_end = client.backlog();
    let wall_us_per_ack = ratio(client.steps.wall_s() * 1e6, client.steps.requests() as f64);
    client.run(&inputs, DRAIN_MS, false, &mut off);
    let p99 = quantile(&mut client.ack_ms, 0.99);
    // Sustained: latency limit met, nothing refused, backlog not growing
    // by more than 10 ms of submissions over the second half.
    let sustained =
        p99 <= ACK_LIMIT_MS && client.refused == 0 && backlog_end <= backlog_mid + 10 * rate;
    check_region(&client, &format!("B@{rate}"), false, report);
    report.attempted += client.submitted;
    (sustained, backlog_end, wall_us_per_ack)
}

/// Phase C: leader crash and restart under load. Returns the client.
fn phase_c(inputs: &Inputs, seed: u64) -> Client {
    let mut client = prepare(inputs, seed, 0);
    let mut off = Tracer::new(false);
    client.run(inputs, PHASE_C_CRASH_MS, true, &mut off);
    let victim = client.region.leader();
    if let Some(node) = victim {
        apply(&mut client.region, &Fault::Crash { node });
    }
    client.run(
        inputs,
        PHASE_C_RESTART_MS - PHASE_C_CRASH_MS,
        true,
        &mut off,
    );
    if let Some(node) = victim {
        apply(&mut client.region, &Fault::Restart { node });
    }
    let restarted_ms = client.now_ms;
    client.run(inputs, PHASE_C_LOAD_MS - PHASE_C_RESTART_MS, true, &mut off);
    // The restarted replica catches up by one snapshot install per
    // heartbeat, slower than the load arrives, so it converges only in
    // the quiet tail; how long that takes is a result, not a constant.
    let tail_end = client.now_ms + PHASE_C_TAIL_MS;
    while client.now_ms < tail_end && client.catchup_ms.is_none() {
        client.run(inputs, 50, false, &mut off);
        let digests = client.region.replica_digests();
        if client.backlog() == 0 && digests.iter().all(|d| d.is_some() && *d == digests[0]) {
            client.catchup_ms = Some(client.now_ms - restarted_ms);
        }
    }
    client
}

/// Counter `name` summed over the given regions' shared registries.
fn summed_counter(clients: &[&Client], name: &str) -> f64 {
    clients
        .iter()
        .map(|c| c.region.registry().counter_get(name))
        .sum::<u64>() as f64
}

pub fn run(args: &RunArgs) -> Report {
    // `--smoke` shrinks every duration 20×, except the failover script,
    // which needs room for an election timeout.
    let (a_ms, b_ms, warm_ms) = if args.smoke {
        (300, PHASE_B_LOAD_MS / 20, WARM_MS / 5)
    } else {
        (
            (PHASE_A_MS_PER_SECOND * args.seconds as f64).round() as u64,
            PHASE_B_LOAD_MS,
            WARM_MS,
        )
    };
    let mut report = Report::default();

    let ((mut client, inputs), setup_s) = crate::set_up_repeatedly(|| {
        let inputs = generate(PHASE_A_RATE, warm_ms + a_ms, args.seed);
        (prepare(&inputs, args.seed, warm_ms), inputs)
    });
    report.set("setup_s", setup_s);
    report.set("workloads.gen_s", inputs.gen_s);
    report.digests.insert("inputs", inputs.digest);

    phase_a(&mut client, &inputs, a_ms, &mut Tracer::new(false));
    check_region(&client, "A", true, &mut report);
    report.attempted += client.submitted;
    report
        .digests
        .insert("state", client.region.replica_digests()[0].unwrap_or(0));
    report
        .digests
        .insert("log", mv_common::hash::fx_hash_one(&client.region.log));
    client.steps.report(
        &format!("ops acknowledged (phase A, {a_ms} sim-ms at {PHASE_A_RATE} ops/sim-ms, open loop on the sim clock, generator never late)"),
        &mut report,
    );
    report.set("repl_ack_ms_p99", quantile(&mut client.ack_ms, 0.99));

    if args.trace {
        let untraced_s = client.steps.wall_s();
        let mut traced = prepare(&inputs, args.seed, warm_ms);
        let mut tracer = Tracer::new(true);
        phase_a(&mut traced, &inputs, a_ms, &mut tracer);
        if traced.region.replica_digests() != client.region.replica_digests() {
            report.fail(
                traced.steps.requests(),
                "traced phase A ended in a different state than the untraced one".into(),
            );
        }
        report.set(
            "bench.trace_overhead_share",
            ratio(traced.steps.wall_s() - untraced_s, untraced_s),
        );
        let mut tick_us = tracer.durations_us("core.replicated.tick");
        report.set("core.replicated.tick_s", tick_us.iter().sum::<f64>() / 1e6);
        report.set("core.replicated.tick_us_p50", quantile(&mut tick_us, 0.50));
        report.set("core.replicated.tick_us_max", quantile(&mut tick_us, 1.0));
        report.set(
            "core.replicated.submit_s",
            tracer.total("core.replicated.submit").0,
        );
        crate::write_spans(args, &tracer);
        crate::print_self_times(&tracer);
        drop(traced);

        let mut max_rate = 0;
        for rate in REPL_RATES {
            let (sustained, backlog_end, wall_us_per_ack) =
                phase_b_step(rate, b_ms, args.seed, &mut report);
            report.set(
                &format!("core.replicated.backlog_end.{rate}"),
                backlog_end as f64,
            );
            report.set(
                &format!("core.replicated.wall_us_per_ack.{rate}"),
                wall_us_per_ack,
            );
            if sustained {
                max_rate = max_rate.max(rate);
            }
        }
        report.set("repl_max_rate_ops_per_ms", max_rate as f64);

        let c_inputs = generate(PHASE_A_RATE, PHASE_C_LOAD_MS, args.seed);
        let failover = phase_c(&c_inputs, args.seed);
        check_region(&failover, "C", true, &mut report);
        report.attempted += failover.submitted;
        let unavail = match (failover.first_refused_ms, failover.recovered_ms) {
            (Some(down), Some(up)) => up - down,
            _ => 0,
        };
        report.set("repl_failover_unavail_ms", unavail as f64);
        report.set(
            "core.replicated.catchup_ms",
            failover.catchup_ms.unwrap_or(0) as f64,
        );
        println!(
            "# phase C: {} submits refused, {} ops resubmitted after a lost leader, unavailable {unavail} sim-ms, \
             restarted replica caught up after {:?} sim-ms",
            failover.refused, failover.resubmitted, failover.catchup_ms
        );

        // Layer counts: the steady phase and the failover phase together.
        let both = [&client, &failover];
        for name in [
            "client_appends",
            "appends_sent",
            "entries_sent",
            "heartbeats_sent",
            "entries_committed",
            "wal_records",
            "compactions",
            "snapshots_sent",
            "snapshots_installed",
            "elections_started",
            "leaders_elected",
        ] {
            report.set(
                &format!("raft.{name}"),
                summed_counter(&both, &format!("raft.node.{name}")),
            );
        }
        let commits = summed_counter(&both, "raft.node.client_appends");
        let msgs = summed_counter(&both, "raft.node.appends_sent")
            + summed_counter(&both, "raft.node.heartbeats_sent");
        report.set("raft.msgs_per_commit", ratio(msgs, commits));
        report.set(
            "raft.wal_records_per_commit",
            ratio(summed_counter(&both, "raft.node.wal_records"), commits),
        );
        for name in [
            "sent",
            "transmissions",
            "retransmits",
            "delivered",
            "duplicates",
            "expired",
        ] {
            report.set(
                &format!("net.reliable.{name}"),
                summed_counter(&both, &format!("net.transport.{name}")),
            );
        }
        for name in ["acks", "submit_unavailable", "leader_changes"] {
            report.set(
                &format!("core.replicated.{name}"),
                summed_counter(&both, &format!("core.replicated.{name}")),
            );
        }
    }
    report.set("peak_rss_mb", crate::metrics::peak_rss_mb());
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(seed: u64, trace: bool) -> RunArgs {
        RunArgs {
            workload: "replicated_region".into(),
            seed,
            seconds: 1,
            trace,
            smoke: true,
            spans_dir: None,
        }
    }

    #[test]
    fn same_seed_repeats_sim_metrics_and_digests_and_another_seed_differs() {
        let a = run(&smoke(11, false));
        let b = run(&smoke(11, false));
        let c = run(&smoke(12, false));
        assert!(a.correct(), "{:?}", a.failures);
        assert_eq!(a.digests, b.digests);
        assert_eq!(a.get("repl_ack_ms_p99"), b.get("repl_ack_ms_p99"));
        assert_eq!(a.attempted, b.attempted);
        assert_ne!(a.digests["inputs"], c.digests["inputs"]);
    }

    #[test]
    fn traced_run_matches_and_survives_the_failover() {
        let report = run(&smoke(11, true));
        assert!(report.correct(), "{:?}", report.failures);
        assert!(
            report.get("repl_failover_unavail_ms").expect("set") > 0.0,
            "a crashed leader refuses submits"
        );
        assert!(report.get("raft.leaders_elected").expect("set") >= 2.0);
        assert!(report.get("repl_max_rate_ops_per_ms").expect("set") >= 1.0);
    }

    #[test]
    fn diverged_replicas_and_unacked_ops_trip_the_region_checks() {
        let inputs = generate(PHASE_A_RATE, 200, 11);
        let mut client = prepare(&inputs, 11, 0);
        let mut off = Tracer::new(false);
        client.run(&inputs, 200, true, &mut off);
        // No quiet tail: the last ops are still in flight, and a crashed
        // replica has no digest.
        let follower = *client
            .region
            .members()
            .iter()
            .find(|&&m| Some(m) != client.region.leader())
            .expect("follower");
        apply(&mut client.region, &Fault::Crash { node: follower });
        let mut report = Report::default();
        check_region(&client, "test", true, &mut report);
        assert!(!report.correct());
        assert!(
            report.failures.iter().any(|f| f.contains("digests differ")),
            "{:?}",
            report.failures
        );
        assert!(
            report.failures.iter().any(|f| f.contains("unacknowledged")),
            "{:?}",
            report.failures
        );
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("histories differ")),
            "{:?}",
            report.failures
        );
    }
}
