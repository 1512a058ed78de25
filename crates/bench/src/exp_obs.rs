//! E18 — end-to-end causal tracing under faults (observability).
//!
//! E16 proved the stack *reconverges* after a partition; E18 shows
//! *where the time went*. A client mints one `e18.update` trace per
//! update, ships it to the server over the reliable transport (through
//! E16's partition fault), and the server applies it to a
//! [`DurableMetaverse`] whose group-commit WAL shares the same tracer.
//! Every stage an update passes through — client queueing, transport
//! send/attempt/retry, delivery, WAL group-commit, engine apply —
//! leaves a span on the simulated clock, so the per-update critical
//! path is reconstructible as a tree, retransmissions included.
//!
//! * **E18a — stage breakdown.** Per-stage latency over all traced
//!   updates of a faulted run: queue (client buffer wait), transport
//!   (first send to first delivery), retry (time burned in
//!   retransmission timeouts), WAL (group-commit wait), apply
//!   (delivery to durable commit).
//! * **E18b — span tree.** The full tree of the worst (most-retried)
//!   partition-crossing update, rendered from the span log.
//! * **E18c — tick profile.** The engine loop's wall-clock cost per
//!   stage from [`TickProfiler`] (host-dependent; shape, not numbers).
//! * **E18d — overhead.** The E17 ingest path (group-commit WAL
//!   appends) with tracing off vs. sampled tracing on; acceptance is
//!   < 5% (the `traced_overhead_under_5_percent` test enforces it).
//! * **E18e — determinism.** Same-seed runs produce byte-identical
//!   span logs ([`mv_obs::Tracer::canonical_bytes`]); different seeds
//!   do not. Zero spans leak.

use mv_common::hash::FastMap;
use mv_common::id::{EntityId, NodeId};
use mv_common::seeded_rng;
use mv_common::table::{f2, n, pct, Table};
use mv_common::time::{SimDuration, SimTime};
use mv_core::{DurableMetaverse, DurableOp, EntityKind};
use mv_net::{FaultPlan, FaultTarget, LinkSpec, Network, ReliableTransport, RetryPolicy, Sim};
use mv_net::reliable::Event;
use mv_obs::{LogHistogram, SharedTracer, SpanRecord, TickProfiler, TraceCtx};
use mv_storage::wal::WalRecord;
use mv_storage::{GroupCommitPolicy, GroupCommitWal};
use std::time::Instant;

const SERVER: NodeId = NodeId::new(0);
const CLIENT: NodeId = NodeId::new(1);
const TICK_MS: u64 = 10;
/// Client buffers updates and flushes every this many ticks (the
/// "queue" stage exists because of this batching).
const FLUSH_TICKS: u64 = 3;
/// Updates are produced until here…
const PRODUCE_MS: u64 = 2_000;
/// …the partition opens here…
const PARTITION_AT_MS: u64 = 1_000;
/// …lasts this long…
const PART_MS: u64 = 500;
/// …and the sim runs this much longer so retries drain.
const TAIL_MS: u64 = 5_000;

/// One client→server update (payloads must be `Clone` for the
/// transport's retransmission buffer).
#[derive(Debug, Clone)]
struct Upd {
    entity: usize,
    value: f64,
}

struct World {
    net: Network,
    rng: rand::rngs::StdRng,
    transport: ReliableTransport<Upd>,
    dm: DurableMetaverse,
    ids: Vec<EntityId>,
    tracer: SharedTracer,
    /// Client-side buffer: updates wait here until the next flush.
    queue: Vec<(TraceCtx, Upd)>,
    /// trace id → its open root span, closed when the update becomes
    /// durable (or expires).
    roots: FastMap<u64, u64>,
    /// Traces applied since the last commit (their roots close at the
    /// commit that makes them durable).
    to_commit: Vec<u64>,
    tick: u64,
    expired: u64,
    profiler: TickProfiler,
}

impl FaultTarget for World {
    fn fault_network(&mut self) -> &mut Network {
        &mut self.net
    }
}

impl World {
    fn new(seed: u64, loss: f64) -> Self {
        let mut net = Network::new();
        net.add_node(SERVER, "server");
        net.add_node(CLIENT, "client");
        net.add_link_bidi(
            SERVER,
            CLIENT,
            LinkSpec::new(SimDuration::from_millis(5), 1e8).with_loss(loss),
        );
        net.set_group(CLIENT, 1).unwrap();
        let tracer = SharedTracer::new();
        let mut transport = ReliableTransport::new(RetryPolicy::default(), seed);
        transport.set_tracer(tracer.clone());
        let mut dm = DurableMetaverse::with_defaults(2);
        dm.set_tracer(tracer.clone());
        let ids = (0..8)
            .map(|i| {
                dm.spawn(
                    format!("obj{i}"),
                    EntityKind::SceneObject,
                    mv_common::geom::Point::new(i as f64, 0.0),
                    SimTime::ZERO,
                )
            })
            .collect();
        dm.commit(SimTime::ZERO);
        World {
            net,
            rng: seeded_rng(seed),
            transport,
            dm,
            ids,
            tracer,
            queue: Vec::new(),
            roots: FastMap::default(),
            to_commit: Vec::new(),
            tick: 0,
            expired: 0,
            profiler: TickProfiler::new(),
        }
    }

    fn step(&mut self, now: SimTime) {
        self.profiler.tick();
        let ms = now.as_millis_f64() as u64;

        // Ingest: mint one trace per produced update, buffer it.
        if ms < PRODUCE_MS {
            let _g = self.profiler.scope("ingest");
            let ctx = self.tracer.start_trace("e18.update", now);
            self.roots.insert(ctx.trace, ctx.span);
            let upd =
                Upd { entity: (self.tick % 8) as usize, value: self.tick as f64 };
            self.queue.push((ctx, upd));
            self.tick += 1;
        }

        // Flush: ship the buffered updates over the reliable transport.
        if self.tick.is_multiple_of(FLUSH_TICKS) || ms >= PRODUCE_MS {
            let _g = self.profiler.scope("flush");
            for (ctx, upd) in self.queue.drain(..) {
                self.transport.send_traced(
                    &mut self.net,
                    &mut self.rng,
                    CLIENT,
                    SERVER,
                    upd,
                    64,
                    now,
                    Some(ctx),
                );
            }
        }

        // Pump: deliver, apply into the durable engine under the
        // message's context (WAL span + apply event land in the trace).
        {
            let _g = self.profiler.scope("pump");
            for ev in self.transport.poll(&mut self.net, &mut self.rng, now) {
                match ev {
                    Event::Delivered { at, payload, ctx, .. } => {
                        let id = self.ids[payload.entity];
                        let position = mv_common::geom::Point::new(payload.value, 0.0);
                        self.dm.apply(&DurableOp::Position { id, position, ts: at }, ctx).unwrap();
                        if let Some(c) = ctx {
                            self.to_commit.push(c.trace);
                        }
                    }
                    Event::Expired { at, ctx, .. } => {
                        self.expired += 1;
                        if let Some(c) = ctx {
                            if let Some(root) = self.roots.remove(&c.trace) {
                                self.tracer.close(root, at, "expired");
                            }
                        }
                    }
                }
            }
        }

        // Commit: seal the WAL batch; the updates it made durable are
        // complete — their roots close here.
        if !self.to_commit.is_empty() {
            let _g = self.profiler.scope("commit");
            self.dm.commit(now);
            for trace in self.to_commit.drain(..) {
                if let Some(root) = self.roots.remove(&trace) {
                    self.tracer.close(root, now, "durable");
                }
            }
        }
        self.profiler.finish();
    }
}

/// Per-update stage latencies extracted from one trace's span records.
struct Stages {
    queue: f64,
    transport: f64,
    retry: f64,
    wal: f64,
    apply: f64,
    total: f64,
    retries: usize,
}

fn dur_ms(r: &SpanRecord) -> f64 {
    (r.end - r.start).as_millis_f64()
}

/// Reconstruct the stage breakdown of one durable update; `None` for
/// traces that expired or never completed.
fn stages_of(recs: &[SpanRecord]) -> Option<Stages> {
    let root = recs.iter().find(|r| r.parent == 0 && r.status == "durable")?;
    let send = recs.iter().find(|r| r.name == "net.transport.send")?;
    let deliver =
        recs.iter().find(|r| r.name == "net.transport.deliver" && r.status == "ok")?;
    let retries: Vec<&SpanRecord> =
        recs.iter().filter(|r| r.name == "net.transport.retry").collect();
    let wal = recs.iter().find(|r| r.name == "storage.wal.group_commit");
    Some(Stages {
        queue: (send.start - root.start).as_millis_f64(),
        transport: (deliver.start - send.start).as_millis_f64(),
        retry: retries.iter().map(|r| dur_ms(r)).sum(),
        wal: wal.map_or(0.0, dur_ms),
        apply: (root.end - deliver.start).as_millis_f64(),
        total: dur_ms(root),
        retries: retries.len(),
    })
}

struct RunResult {
    /// (trace id, stages) for every durable update.
    stages: Vec<(u64, Stages)>,
    expired: u64,
    open_spans: usize,
    log_hash: u64,
    tracer: SharedTracer,
    profile: Table,
}

fn run_cell(seed: u64, loss: f64) -> RunResult {
    let end_ms = PRODUCE_MS + TAIL_MS;
    let mut sim = Sim::new(World::new(seed, loss));
    let sched = sim.scheduler();
    FaultPlan::new()
        .partition_between(
            0,
            1,
            SimTime::from_millis(PARTITION_AT_MS),
            SimTime::from_millis(PARTITION_AT_MS + PART_MS),
        )
        .install(sched);
    for ms in (0..=end_ms).step_by(TICK_MS as usize) {
        sched.at(SimTime::from_millis(ms), |w: &mut World, s| w.step(s.now()));
    }
    sim.run_to_completion();

    let w = sim.world;
    let stages = (1..=w.tracer.trace_count())
        .filter_map(|t| stages_of(&w.tracer.trace_records(t)).map(|s| (t, s)))
        .collect();
    RunResult {
        stages,
        expired: w.expired,
        open_spans: w.tracer.open_count(),
        log_hash: w.tracer.with(|t| t.log_hash()),
        profile: w.profiler.table(
            "E18c: engine-loop tick profile (host wall clock; shape only)",
        ),
        tracer: w.tracer,
    }
}

/// E18d: one timed pass of the E17 ingest path (group-commit WAL
/// appends, batch 256) over `recs`, untraced (`sample` = `None`) or with
/// roots sampled 1 in `sample`. Returns CPU seconds for the appends and
/// the final sync, and the durable record count.
fn time_appends(recs: &[WalRecord], sample: Option<u64>) -> (f64, usize) {
    let mut wal = GroupCommitWal::with_policy(GroupCommitPolicy::by_records(256));
    let secs = match sample.map(SharedTracer::sampled) {
        None => {
            let t0 = Instant::now();
            for rec in recs {
                wal.append(rec.clone(), SimTime::ZERO);
            }
            wal.sync();
            t0.elapsed().as_secs_f64()
        }
        Some(tracer) => {
            wal.set_tracer(tracer.clone());
            let t0 = Instant::now();
            for (i, rec) in recs.iter().enumerate() {
                let at = SimTime(i as u64);
                let ctx = tracer.maybe_trace("core.durable.ingest", at);
                wal.append_traced(rec.clone(), at, ctx);
                if let Some(c) = ctx {
                    tracer.close(c.span, at, "applied");
                }
            }
            wal.sync();
            let secs = t0.elapsed().as_secs_f64();
            assert_eq!(tracer.open_count(), 0);
            secs
        }
    };
    (secs, wal.durable().count())
}

/// Relative overhead of the traced ingest path over `count` appends:
/// each side's best of `rounds` passes, with the side that runs first
/// alternating between rounds so neither always gets the warmer (or
/// colder) slot.
fn best_overhead(count: usize, sample: u64, rounds: usize) -> f64 {
    let recs: Vec<WalRecord> = (0..count)
        .map(|i| WalRecord::Put {
            key: (i as u64 % 4096).to_le_bytes().to_vec(),
            value: vec![(i % 251) as u8; 64],
        })
        .collect();
    let (mut plain, mut traced) = (f64::INFINITY, f64::INFINITY);
    for round in 0..rounds {
        let order = if round % 2 == 0 { [None, Some(sample)] } else { [Some(sample), None] };
        for side in order {
            let (secs, durable) = time_appends(&recs, side);
            assert_eq!(durable, count, "both sides make the same records durable");
            let best = if side.is_some() { &mut traced } else { &mut plain };
            *best = best.min(secs);
        }
    }
    traced / plain - 1.0
}

/// Passes each side of the E18d overhead comparison gets.
const OVERHEAD_ROUNDS: usize = 15;

/// Run E18: stage breakdown, worst-trace tree, tick profile, overhead,
/// determinism.
pub fn e18() -> Vec<Table> {
    e18_sized(40_000)
}

/// E18 at an explicit overhead-measurement size (CI smoke runs small).
pub fn e18_sized(overhead_records: usize) -> Vec<Table> {
    let r = run_cell(18, 0.05);

    let mut histos: std::collections::BTreeMap<&str, LogHistogram> = Default::default();
    for (_, s) in &r.stages {
        for (stage, ms) in [
            ("queue", s.queue),
            ("transport", s.transport),
            ("retry", s.retry),
            ("wal", s.wal),
            ("apply", s.apply),
            ("end_to_end", s.total),
        ] {
            histos.entry(stage).or_default().record(ms);
        }
    }
    let mut a = Table::new(
        format!(
            "E18a: per-stage latency of {} durable updates ({} expired) — \
             loss 0.05, partition {PARTITION_AT_MS}–{} ms, seed 18",
            r.stages.len(),
            r.expired,
            PARTITION_AT_MS + PART_MS,
        ),
        &["stage", "updates", "mean_ms", "p95_ms", "max_ms"],
    );
    for (stage, h) in &histos {
        a.row(&[
            (*stage).to_string(),
            n(h.count()),
            f2(h.mean()),
            f2(h.quantile(0.95)),
            f2(h.max()),
        ]);
    }

    // The worst partition-crossing update, as a span tree.
    let worst = r
        .stages
        .iter()
        .max_by(|(ta, sa), (tb, sb)| {
            sa.retries.cmp(&sb.retries).then(sa.total.total_cmp(&sb.total)).then(ta.cmp(tb))
        })
        .map(|(t, _)| *t)
        .expect("at least one durable update");
    let mut b = Table::new(
        format!("E18b: span tree of the most-retried update (trace {worst})"),
        &["span"],
    );
    for line in r.tracer.render_trace(worst) {
        b.row(&[line]);
    }

    let mut d = Table::new(
        format!(
            "E18d: tracing overhead on the E17 ingest path \
             ({overhead_records} WAL appends, batch 256, best of {OVERHEAD_ROUNDS} per side)"
        ),
        &["sampling", "overhead"],
    );
    for &sample in &[64u64, 1] {
        let over = best_overhead(overhead_records, sample, OVERHEAD_ROUNDS);
        d.row(&[format!("1 in {sample}"), pct(over.max(0.0))]);
    }

    let mut e = Table::new(
        "E18e: span-log determinism (canonical-bytes hash)",
        &["seed", "log_hash", "open_spans", "matches_rerun"],
    );
    for seed in [18u64, 19] {
        let first = run_cell(seed, 0.05);
        let second = run_cell(seed, 0.05);
        e.row(&[
            n(seed),
            format!("{:016x}", first.log_hash),
            n(first.open_spans as u64),
            (first.log_hash == second.log_hash).to_string(),
        ]);
    }

    vec![a, b, r.profile, d, e]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e18_reconstructs_partition_crossing_critical_path() {
        let r = run_cell(18, 0.05);
        assert_eq!(r.open_spans, 0, "no span may leak at sim end");
        assert!(!r.stages.is_empty(), "updates became durable");
        // The partition forces at least one update through a retry, and
        // its stage extraction must see the complete path.
        let crossed = r
            .stages
            .iter()
            .map(|(_, s)| s)
            .find(|s| s.retries > 0)
            .expect("some update crossed the partition via retries");
        assert!(crossed.retry > 0.0, "retry time visible in the breakdown");
        assert!(crossed.transport >= crossed.retry * 0.5, "retries inside transport window");
        assert!(
            crossed.total >= crossed.queue + crossed.transport,
            "end-to-end covers queue + transport"
        );
        // Every durable update has a WAL group-commit span.
        assert!(r.stages.iter().all(|(_, s)| s.wal >= 0.0 && s.total > 0.0));
    }

    #[test]
    fn e18_span_logs_are_seed_deterministic() {
        let a = run_cell(7, 0.05);
        let b = run_cell(7, 0.05);
        assert_eq!(a.log_hash, b.log_hash, "same seed, same canonical span log");
        let c = run_cell(8, 0.05);
        assert_ne!(a.log_hash, c.log_hash, "different seed, different log");
    }

    /// The PR's acceptance criterion: sampled tracing adds < 5% to the
    /// E17 ingest path. Each side's best of several alternating passes
    /// absorbs CI noise.
    #[test]
    fn traced_overhead_under_5_percent() {
        let over = best_overhead(20_000, 64, OVERHEAD_ROUNDS);
        assert!(over < 0.05, "sampled tracing overhead {:.2}% ≥ 5%", over * 100.0);
    }
}
