//! `deluge_ingest` and `aoi_query`: the §III deluge through the durable
//! co-space engine, one closed-loop client.
//!
//! Both drive the same tick on a [`DurableMetaverse`] with 2 engine and 2
//! KV shards: stage the tick's pre-generated ops, then (timed)
//! `apply_batch` → `commit` → one `BrokerTree::publish` per move →
//! AoI probes. They differ in where the work is. `deluge_ingest` is
//! write-heavy (thousands of Zipf writes a tick with flash-crowd bursts,
//! a `LinkScheduler::run` per subscriber edge, a sliver of probes) and
//! ends with `crash_and_recover`; `aoi_query` is read-heavy (few writes,
//! thousands of single probes, the same areas once more through
//! `query_visible_batch`, a divergence sweep, 4 096 subscriptions) and
//! never overflows the KV memtable budget by much.

use crate::metrics::{quantile, ratio, Report, Steps, CHUNKS};
use crate::trace::Tracer;
use crate::RunArgs;
use mv_common::geom::{Aabb, Point};
use mv_common::id::{ClientId, EntityId};
use mv_common::metrics::Histogram;
use mv_common::sample::Zipf;
use mv_common::seeded_rng;
use mv_common::time::{SimDuration, SimTime};
use mv_common::Space;
use mv_core::{DurableMetaverse, WriteOp};
use mv_dissem::{LinkScheduler, Priority, SchedPolicy, TxRequest};
use mv_pubsub::{BrokerTree, Publication, Subscription};
use mv_storage::{GroupCommitPolicy, KvConfig};
use mv_workloads::deluge::{self, DelugeOp, DelugeParams, DelugeTrace, ATTR_NAMES};
use std::time::Instant;

/// Engine and KV shards: one per core of the 2-core host the sizes were
/// chosen on, so the default parallel apply never runs more threads than
/// cores.
pub const SHARDS: usize = 2;
/// Records per WAL group commit.
const WAL_BATCH: usize = 256;
/// Fanout regions per world side (regions = side²).
const REGIONS_PER_SIDE: usize = 8;
/// Modelled payload of one disseminated update, bytes.
const UPDATE_BYTES: u64 = 512;
/// Modelled per-subscriber downlink, bytes per second.
const LINK_BYTES_PER_SEC: f64 = 1.0e8;
/// Half side of an AoI probe, metres (200 m × 200 m areas).
const PROBE_HALF_SIDE: f64 = 100.0;
/// Ticks run on each instance before its measured phase: two burst cycles.
const WARM_TICKS: u64 = 16;
/// Measured ticks the ladder replays (eight burst cycles).
const LADDER_TICKS: usize = 64;
/// The composed durable-path calls whose cost the ladder's rungs add up to.
const COMPOSED_CALLS: [&str; 3] = [
    "core.durable.apply_batch",
    "storage.group_commit.sync",
    "core.durable.drain_to_storage",
];

/// Which of the two workloads a [`Shape`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Write-heavy: dissemination per tick, recovery at the end.
    Ingest,
    /// Read-heavy: batch probes and a divergence sweep per tick.
    Query,
}

/// The stated sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub kind: Kind,
    pub entities: usize,
    /// Base write ops per tick (burst ticks carry 4×).
    pub ops_per_tick: usize,
    pub attr_fraction: f64,
    /// Flash-crowd bursts, 2 ticks in every 8.
    pub bursts: bool,
    pub subscribers: usize,
    /// Single `query_visible` probes per tick.
    pub probes_per_tick: usize,
    /// Measured ticks per second of `--seconds`, from timings on the
    /// 2-core host.
    pub ticks_per_second: f64,
}

pub const DELUGE_INGEST: Shape = Shape {
    kind: Kind::Ingest,
    entities: 100_000,
    ops_per_tick: 2_000,
    attr_fraction: 0.25,
    bursts: true,
    subscribers: 64,
    probes_per_tick: 16,
    ticks_per_second: 80.0,
};

pub const AOI_QUERY: Shape = Shape {
    kind: Kind::Query,
    entities: 100_000,
    ops_per_tick: 1_000,
    attr_fraction: 0.0,
    bursts: false,
    subscribers: 4_096,
    probes_per_tick: 1_024,
    ticks_per_second: 15.0,
};

impl Shape {
    /// The sizes of one run: `--smoke` shrinks every size about 20×.
    fn sized(mut self, args: &RunArgs) -> (Shape, u64) {
        if args.smoke {
            self.entities /= 20;
            self.ops_per_tick /= 20;
            self.probes_per_tick = (self.probes_per_tick / 20).max(8);
            self.subscribers = (self.subscribers / 20).max(16);
            return (self, 24);
        }
        // The same number of ticks, and with bursts a whole number of
        // burst cycles, in every stretch the end-to-end medians are over.
        let unit = if self.bursts { 8 * CHUNKS } else { CHUNKS } as u64;
        let ticks =
            (self.ticks_per_second * args.seconds as f64 / unit as f64).round() as u64 * unit;
        (self, ticks.max(unit))
    }
}

/// Everything made from the seed before the timed region.
struct Inputs {
    trace: DelugeTrace,
    /// Probe areas per tick, Zipf-hot around spawn positions.
    areas: Vec<Vec<Aabb>>,
    gen_s: f64,
}

fn generate(shape: &Shape, ticks: u64, seed: u64) -> Inputs {
    let start = Instant::now();
    let params = DelugeParams {
        entities: shape.entities,
        ticks: WARM_TICKS + ticks,
        ops_per_tick: shape.ops_per_tick,
        attr_fraction: shape.attr_fraction,
        burst_every: if shape.bursts { 8 } else { 0 },
        seed,
        ..Default::default()
    };
    let trace = deluge::generate(&params);
    let zipf = Zipf::new(shape.entities.max(1), params.zipf_alpha);
    let mut rng = seeded_rng(seed ^ 0x9E37_79B9_7F4A_7C15);
    let areas = (0..params.ticks)
        .map(|_| {
            (0..shape.probes_per_tick)
                .map(|_| Aabb::centered(trace.spawns[zipf.sample(&mut rng)].2, PROBE_HALF_SIDE))
                .collect()
        })
        .collect();
    Inputs {
        trace,
        areas,
        gen_s: start.elapsed().as_secs_f64(),
    }
}

/// The system under test plus the benchmark's fanout plumbing.
struct World {
    dm: DurableMetaverse,
    ids: Vec<EntityId>,
    broker: BrokerTree,
    terms: Vec<String>,
    region_side: f64,
    link: LinkScheduler,
    /// One downlink queue per subscriber; deliveries go round-robin (the
    /// broker reports a count, not a recipient list).
    edges: Vec<Vec<TxRequest>>,
    next_edge: usize,
    spawn_s: f64,
}

fn build_world(shape: &Shape, trace: &DelugeTrace) -> World {
    let mut dm = DurableMetaverse::new(
        SHARDS,
        SHARDS,
        KvConfig::default(),
        GroupCommitPolicy::by_records(WAL_BATCH),
    );
    let start = Instant::now();
    for (name, kind, p) in &trace.spawns {
        dm.spawn(name.clone(), *kind, *p, SimTime::ZERO);
    }
    dm.commit(SimTime::ZERO);
    let spawn_s = start.elapsed().as_secs_f64();
    let ids = dm.ids().to_vec();

    let regions = REGIONS_PER_SIDE * REGIONS_PER_SIDE;
    let region_side = trace.params.world_side / REGIONS_PER_SIDE as f64;
    let terms: Vec<String> = (0..regions)
        .map(|r| format!("r{}x{}", r % REGIONS_PER_SIDE, r / REGIONS_PER_SIDE))
        .collect();
    let mut broker = BrokerTree::new(2, 4);
    let leaves = broker.leaves();
    for s in 0..shape.subscribers {
        let r = s % regions;
        let lo = Point::new(
            (r % REGIONS_PER_SIDE) as f64 * region_side,
            (r / REGIONS_PER_SIDE) as f64 * region_side,
        );
        let sub = Subscription::new(ClientId::new(s as u64))
            .with_term(&terms[r])
            .in_region(Aabb::new(
                lo,
                Point::new(lo.x + region_side, lo.y + region_side),
            ));
        broker.subscribe(leaves[s % leaves.len()], sub);
    }
    World {
        dm,
        ids,
        broker,
        terms,
        region_side,
        link: LinkScheduler::new(LINK_BYTES_PER_SEC),
        edges: vec![Vec::new(); shape.subscribers.max(1)],
        next_edge: 0,
        spawn_s,
    }
}

impl World {
    fn region_of(&self, p: Point) -> usize {
        let gx = ((p.x / self.region_side) as usize).min(REGIONS_PER_SIDE - 1);
        let gy = ((p.y / self.region_side) as usize).min(REGIONS_PER_SIDE - 1);
        gy * REGIONS_PER_SIDE + gx
    }
}

/// What the timed ticks add up to.
#[derive(Default)]
struct Acc {
    /// One step per tick; a request is a write op (service: the tick) on
    /// the ingest workload and an AoI probe (service: the probe) on the
    /// query workload.
    steps: Steps,
    /// Write-path wall (apply + commit + fanout), ms, one per tick.
    write_path_ms: Vec<f64>,
    /// Single `query_visible` wall, µs, one per probe.
    query_us: Vec<f64>,
    batch_probes: u64,
    ops: u64,
    /// Subscriptions matched, as `publish` returned them.
    deliveries: u64,
    apply_errors: u64,
    hits: u64,
    batch_mismatches: u64,
    dissem_requests: u64,
    dissem_ms: Histogram,
    stall_ms_max: f64,
}

/// Staging buffers reused across ticks (filled outside the timed region).
#[derive(Default)]
struct Staged {
    writes: Vec<WriteOp>,
    pubs: Vec<Publication>,
    delivered: Vec<usize>,
    singles: Vec<Vec<EntityId>>,
}

/// Tick `t`'s generated ops as engine write ops, op i arriving spread
/// uniformly across the tick.
fn stage_writes(inputs: &Inputs, ids: &[EntityId], t: usize, out: &mut Vec<WriteOp>) {
    let tick = &inputs.trace.ticks[t];
    let tick_us = inputs.trace.params.tick.as_micros();
    let nops = tick.ops.len().max(1) as u64;
    out.clear();
    for (i, op) in tick.ops.iter().enumerate() {
        let ts = tick.start + SimDuration::from_micros(i as u64 * tick_us / nops);
        out.push(match *op {
            DelugeOp::Move { entity, to } => WriteOp::Position {
                id: ids[entity as usize],
                position: to,
                ts,
            },
            DelugeOp::Attr {
                entity,
                name,
                value,
            } => WriteOp::Attr {
                id: ids[entity as usize],
                name: ATTR_NAMES[name as usize].to_string(),
                value,
                ts,
            },
        });
    }
}

fn run_tick(
    shape: &Shape,
    w: &mut World,
    inputs: &Inputs,
    t: usize,
    staged: &mut Staged,
    tr: &mut Tracer,
    acc: &mut Acc,
) {
    let tick_end = inputs.trace.ticks[t].start + inputs.trace.params.tick;

    // Staging: generated ops become the calls' argument types. Untimed.
    stage_writes(inputs, &w.ids, t, &mut staged.writes);
    staged.pubs.clear();
    for op in &staged.writes {
        if let WriteOp::Position { position, ts, .. } = *op {
            staged.pubs.push(
                Publication::new(ts)
                    .term(&w.terms[w.region_of(position)])
                    .at(position)
                    .in_space(Space::Physical),
            );
        }
    }
    let areas = &inputs.areas[t];

    tr.set_request(t as u64);
    let tick_start = Instant::now();
    let root = tr.open("bench.tick");

    let results = tr.call("core.durable.apply_batch", || {
        w.dm.apply_batch(&staged.writes)
    });
    acc.apply_errors += results.iter().filter(|r| r.is_err()).count() as u64;

    // The traced run issues `commit` as its two public halves so each
    // layer gets its own span; the digests of both runs must agree.
    if tr.is_on() {
        tr.call("storage.group_commit.sync", || w.dm.wal.sync());
        let drain_start = Instant::now();
        tr.call("core.durable.drain_to_storage", || w.dm.drain_to_storage());
        acc.stall_ms_max = acc
            .stall_ms_max
            .max(drain_start.elapsed().as_secs_f64() * 1e3);
    } else {
        w.dm.commit(tick_end);
    }

    let span = tr.open("pubsub.broker.publish");
    staged.delivered.clear();
    for p in &staged.pubs {
        staged.delivered.push(w.broker.publish(p));
    }
    tr.close_calls(span, staged.pubs.len() as u64);
    acc.deliveries += staged.delivered.iter().sum::<usize>() as u64;
    acc.write_path_ms
        .push(tick_start.elapsed().as_secs_f64() * 1e3);

    if shape.kind == Kind::Ingest {
        for (p, &delivered) in staged.pubs.iter().zip(&staged.delivered) {
            for _ in 0..delivered {
                let edge = w.next_edge % w.edges.len();
                w.edges[edge].push(TxRequest {
                    arrival: p.ts,
                    bytes: UPDATE_BYTES,
                    priority: Priority::Normal,
                    deadline: None,
                });
                w.next_edge += 1;
            }
        }
        let span = tr.open("dissem.sched.run");
        let mut runs = 0u64;
        let mut reports = Vec::new();
        for q in &mut w.edges {
            if !q.is_empty() {
                acc.dissem_requests += q.len() as u64;
                reports.push(w.link.run(std::mem::take(q), SchedPolicy::WeightedFair));
                runs += 1;
            }
        }
        tr.close_calls(span, runs);
        for report in &reports {
            for h in report.latency_ms.values() {
                acc.dissem_ms.merge(h);
            }
        }
    }

    let span = tr.open("core.sharded.query_visible");
    staged.singles.clear();
    for area in areas {
        let probe_start = Instant::now();
        let hits = w.dm.engine().query_visible(Space::Physical, area);
        let probe_us = probe_start.elapsed().as_secs_f64() * 1e6;
        acc.query_us.push(probe_us);
        if shape.kind == Kind::Query {
            acc.steps.service(probe_us);
        }
        acc.hits += hits.len() as u64;
        staged.singles.push(hits);
    }
    tr.close_calls(span, areas.len() as u64);

    if shape.kind == Kind::Query {
        let batch = tr.call("core.sharded.query_visible_batch", || {
            w.dm.engine().query_visible_batch(Space::Physical, areas)
        });
        acc.batch_probes += areas.len() as u64;
        std::hint::black_box(tr.call("core.arena.mean_divergence", || {
            w.dm.engine().mean_divergence()
        }));
        tr.close(root);
        acc.steps
            .step(tick_start.elapsed().as_secs_f64(), areas.len() as u64);
        // Correctness check, untimed: batch results equal the singles.
        acc.batch_mismatches += count_batch_mismatches(&batch, &staged.singles);
    } else {
        tr.close(root);
        let tick_s = tick_start.elapsed().as_secs_f64();
        acc.steps.service(tick_s * 1e6);
        acc.steps.step(tick_s, staged.writes.len() as u64);
    }
    acc.ops += staged.writes.len() as u64;
}

/// Areas whose batch result differs from the single-probe result.
pub fn count_batch_mismatches(batch: &[Vec<EntityId>], singles: &[Vec<EntityId>]) -> u64 {
    let differing = batch.iter().zip(singles).filter(|(b, s)| b != s).count();
    (differing + batch.len().abs_diff(singles.len())) as u64
}

/// Spawn, subscribe, and run the warm-up ticks on a fresh instance.
fn prepare(shape: &Shape, inputs: &Inputs) -> World {
    let mut world = build_world(shape, &inputs.trace);
    let mut staged = Staged::default();
    let mut warm = Acc::default();
    let mut off = Tracer::new(false);
    for t in 0..WARM_TICKS as usize {
        run_tick(
            shape,
            &mut world,
            inputs,
            t,
            &mut staged,
            &mut off,
            &mut warm,
        );
    }
    world
}

/// One set-up: generate, then [`prepare`].
fn set_up(shape: &Shape, ticks: u64, seed: u64) -> (World, Inputs) {
    let inputs = generate(shape, ticks, seed);
    (prepare(shape, &inputs), inputs)
}

/// One measured pass over the ticks after the warm-up.
struct Pass {
    world: World,
    acc: Acc,
    state_digest: u64,
    tracer: Tracer,
}

fn measure(shape: &Shape, mut world: World, inputs: &Inputs, traced: bool) -> Pass {
    let mut acc = Acc::default();
    let mut staged = Staged::default();
    let mut tracer = Tracer::new(traced);
    for t in WARM_TICKS as usize..inputs.trace.ticks.len() {
        run_tick(
            shape,
            &mut world,
            inputs,
            t,
            &mut staged,
            &mut tracer,
            &mut acc,
        );
    }
    let state_digest = world.dm.state_digest();
    Pass {
        world,
        acc,
        state_digest,
        tracer,
    }
}

/// Crash, recover, and check the state digest came back. Returns
/// (recover wall, records replayed).
fn recover_and_check(pass: &mut Pass, report: &mut Report) -> (f64, u64) {
    let start = Instant::now();
    let recovery = pass.world.dm.crash_and_recover();
    let recover_s = start.elapsed().as_secs_f64();
    let after = pass.world.dm.state_digest();
    if after != pass.state_digest {
        report.fail(
            pass.acc.ops,
            format!(
                "state digest {:016x} became {after:016x} across crash_and_recover",
                pass.state_digest
            ),
        );
    }
    (recover_s, recovery.replayed as u64)
}

/// Run `deluge_ingest` or `aoi_query`.
pub fn run(shape: Shape, args: &RunArgs) -> Report {
    let (shape, ticks) = shape.sized(args);
    let mut report = Report::default();

    let ((world, inputs), setup_s) = crate::set_up_repeatedly(|| set_up(&shape, ticks, args.seed));
    let spawn_s = world.spawn_s;
    report.set("setup_s", setup_s);
    report.digests.insert(
        "inputs",
        mv_common::hash::fx_hash_one(&inputs.trace.canonical_bytes()),
    );

    let mut pass = measure(&shape, world, &inputs, false);
    check_pass(&pass, &mut report);
    fill_end_to_end(&shape, &mut pass, &mut report);
    report.digests.insert("state", pass.state_digest);

    // Counts read before recovery rebuilds the stores.
    fill_durable_counts(&pass.world.dm, shape.entities, &mut report);
    fill_counts(&pass, &mut report);
    if shape.kind == Kind::Ingest {
        let (recover_s, replayed) = recover_and_check(&mut pass, &mut report);
        fill_recovery(recover_s, replayed, &mut report);
    }
    report.set("workloads.gen_s", inputs.gen_s);
    report.set(
        "core.durable.spawn_ns_per_entity",
        ratio(spawn_s * 1e9, shape.entities as f64),
    );

    if args.trace {
        let untraced_s = pass.acc.steps.wall_s();
        drop(pass);
        let traced = measure(&shape, prepare(&shape, &inputs), &inputs, true);
        if traced.state_digest != report.digests["state"] {
            report.fail(
                traced.acc.ops,
                "traced run (wal.sync + drain_to_storage) ended in a different state than commit()"
                    .into(),
            );
        }
        report.set(
            "bench.trace_overhead_share",
            ratio(traced.acc.steps.wall_s() - untraced_s, untraced_s),
        );
        fill_layers(&shape, &traced, &mut report);
        if shape.kind == Kind::Ingest {
            fill_ladder(&shape, &traced, &inputs, &mut report);
        }
        crate::write_spans(args, &traced.tracer);
        crate::print_self_times(&traced.tracer);
    }
    report.set("peak_rss_mb", crate::metrics::peak_rss_mb());
    report
}

/// Failures seen while ticking: refused writes and batch mismatches.
fn check_pass(pass: &Pass, report: &mut Report) {
    let acc = &pass.acc;
    report.attempted += acc.ops + acc.query_us.len() as u64 + acc.batch_probes;
    if acc.apply_errors > 0 {
        report.fail(
            acc.apply_errors,
            format!("{} writes were refused by apply_batch", acc.apply_errors),
        );
    }
    if acc.batch_mismatches > 0 {
        report.fail(
            acc.batch_mismatches,
            format!(
                "{} query_visible_batch results differ from query_visible",
                acc.batch_mismatches
            ),
        );
    }
}

fn fill_end_to_end(shape: &Shape, pass: &mut Pass, report: &mut Report) {
    let acc = &mut pass.acc;
    let what = if shape.kind == Kind::Ingest {
        "write ops"
    } else {
        "AoI probes"
    };
    acc.steps.report(what, report);

    let write_path_s = acc.write_path_ms.iter().sum::<f64>() / 1e3;
    report.set("ingest_ops_per_s", ratio(acc.ops as f64, write_path_s));
    report.set("tick_ms_p95", quantile(&mut acc.write_path_ms, 0.95));
    report.set("query_us_p50", quantile(&mut acc.query_us, 0.50));
    report.set("query_us_p99", quantile(&mut acc.query_us, 0.99));
}

/// What the durable engine stores and how its log batched, from the public
/// stat sets (shared with `flash_sale_txn`).
pub fn fill_durable_counts(dm: &DurableMetaverse, entities: usize, report: &mut Report) {
    let wal = &dm.wal.stats;
    let stored =
        wal.get("synced_bytes") + dm.kv().run_bytes() as u64 + dm.kv().memtable_bytes() as u64;
    report.set(
        "stored_bytes_per_entity",
        ratio(stored as f64, entities as f64),
    );
    for name in ["batches", "records_synced", "synced_bytes"] {
        report.set(
            &format!("storage.group_commit.{name}"),
            wal.get(name) as f64,
        );
    }
    report.set(
        "storage.group_commit.records_per_batch",
        ratio(wal.get("records_synced") as f64, wal.get("batches") as f64),
    );
}

/// The recovery figures of one `crash_and_recover`.
pub fn fill_recovery(recover_s: f64, replayed: u64, report: &mut Report) {
    report.set("recover_s", recover_s);
    report.set("core.durable.records_replayed", replayed as f64);
    report.set(
        "core.durable.recover_ns_per_rec",
        ratio(recover_s * 1e9, replayed as f64),
    );
}

/// Counts from the public stat sets of the untraced pass.
fn fill_counts(pass: &Pass, report: &mut Report) {
    let dm = &pass.world.dm;
    let kv = dm.kv().stats();
    for name in [
        "flushes",
        "compactions",
        "compaction_read_bytes",
        "compaction_write_bytes",
        "bloom_skips",
        "run_probes",
        "staging_reallocs",
    ] {
        report.set(&format!("storage.kv.{name}"), kv.get(name) as f64);
    }
    report.set("storage.kv.run_bytes", dm.kv().run_bytes() as f64);
    let engine = dm.engine().stats();
    report.set("core.sharded.sync_msgs", engine.get("sync_msgs") as f64);
    report.set(
        "core.sharded.suppressed_syncs",
        engine.get("suppressed_syncs") as f64,
    );
    report.set(
        "core.txn.plain_versions",
        dm.txn_stats().get("plain_versions") as f64,
    );
    let acc = &pass.acc;
    let broker = &pass.world.broker.stats;
    report.set("pubsub.broker.deliveries", acc.deliveries as f64);
    report.set("pubsub.broker.forwards", broker.get("forwards") as f64);
    report.set("pubsub.broker.pruned", broker.get("pruned") as f64);
    report.set(
        "pubsub.broker.useful_share",
        ratio(acc.deliveries as f64, broker.get("forwards") as f64),
    );
    report.set(
        "core.sharded.hits_per_probe",
        ratio(acc.hits as f64, acc.query_us.len() as f64),
    );
    report.set("dissem.sched.requests", acc.dissem_requests as f64);
    let mut dissem = acc.dissem_ms.clone();
    report.set("dissem.sched.dissem_ms_p50", dissem.p50());
    report.set("dissem.sched.dissem_ms_p99", dissem.p99());
}

/// Per-layer times from the spans of the traced pass.
fn fill_layers(shape: &Shape, pass: &Pass, report: &mut Report) {
    let tr = &pass.tracer;
    let acc = &pass.acc;
    let (apply_s, _) = tr.total("core.durable.apply_batch");
    report.set("core.durable.apply_s", apply_s);
    report.set(
        "core.durable.apply_ns_per_op",
        ratio(apply_s * 1e9, acc.ops as f64),
    );
    let (sync_s, syncs) = tr.total("storage.group_commit.sync");
    report.set("storage.group_commit.sync_s", sync_s);
    report.set(
        "storage.group_commit.sync_ns_per_batch",
        ratio(sync_s * 1e9, syncs as f64),
    );
    report.set(
        "core.durable.drain_s",
        tr.total("core.durable.drain_to_storage").0,
    );
    report.set("storage.kv.stall_ms_max", acc.stall_ms_max);
    let (publish_s, pubs) = tr.total("pubsub.broker.publish");
    report.set("pubsub.broker.publish_s", publish_s);
    report.set(
        "pubsub.broker.publish_ns_per_pub",
        ratio(publish_s * 1e9, pubs as f64),
    );
    report.set("dissem.sched.run_s", tr.total("dissem.sched.run").0);
    let (query_s, probes) = tr.total("core.sharded.query_visible");
    report.set(
        "core.sharded.query_ns_per_probe",
        ratio(query_s * 1e9, probes as f64),
    );
    let (batch_s, _) = tr.total("core.sharded.query_visible_batch");
    report.set(
        "core.sharded.query_batch_ns_per_probe",
        ratio(batch_s * 1e9, acc.batch_probes as f64),
    );
    let (divergence_s, sweeps) = tr.total("core.arena.mean_divergence");
    report.set("core.arena.divergence_s", divergence_s);
    report.set(
        "core.arena.divergence_ns_per_entity",
        ratio(divergence_s * 1e9, (sweeps * shape.entities as u64) as f64),
    );
}

/// Run the ladder over the first measured ticks and compare its rungs
/// with the composed calls' spans over the same ticks.
fn fill_ladder(shape: &Shape, traced: &Pass, inputs: &Inputs, report: &mut Report) {
    let first = WARM_TICKS as usize;
    let last = (first + LADDER_TICKS).min(inputs.trace.ticks.len());
    let ticks: Vec<Vec<WriteOp>> = (first..last)
        .map(|t| {
            let mut writes = Vec::new();
            stage_writes(inputs, &traced.world.ids, t, &mut writes);
            writes
        })
        .collect();
    // `state_encoding` looks up and encodes every entity, which is what
    // `drain_to_storage` does for the touched ones: it stands in as the
    // snapshot-encoding rung, and gives the snapshot size.
    let encode_start = Instant::now();
    let encoding_bytes = traced.world.dm.state_encoding().len();
    let snapshot_ns = ratio(
        encode_start.elapsed().as_secs_f64() * 1e9,
        shape.entities as f64,
    );
    let rungs = crate::ladder::run(
        &ticks,
        &inputs.trace.spawns,
        encoding_bytes / shape.entities.max(1),
    );
    let snapshot_s = snapshot_ns * rungs.kv_records as f64 / 1e9;
    report.set("core.durable.snapshot_ns_per_entity", snapshot_ns);
    let ops = rungs.ops as f64;
    report.set(
        "core.durable_op.encode_ns_per_op",
        ratio(rungs.encode_s * 1e9, ops),
    );
    report.set(
        "core.durable_op.decode_ns_per_op",
        ratio(rungs.decode_s * 1e9, ops),
    );
    report.set(
        "core.durable_op.bytes_per_op",
        ratio(rungs.encoded_bytes as f64, ops),
    );
    report.set(
        "storage.group_commit.append_ns_per_rec",
        ratio(rungs.wal_append_s * 1e9, ops),
    );
    report.set(
        "txn.mvcc.install_ns_per_op",
        ratio(rungs.mvcc_install_s * 1e9, ops),
    );
    report.set(
        "core.sharded.apply_ns_per_op",
        ratio(rungs.sharded_apply_s * 1e9, ops),
    );
    report.set(
        "core.sharded.entity_read_ns",
        ratio(rungs.entity_read_s * 1e9, rungs.kv_records as f64),
    );
    report.set(
        "storage.kv.apply_ns_per_rec",
        ratio(rungs.kv_apply_s * 1e9, rungs.kv_records as f64),
    );
    report.set("storage.kv.write_amp", rungs.kv_write_amp);
    let composed_ns: u64 = traced
        .tracer
        .spans()
        .iter()
        .filter(|s| {
            (first..last).contains(&(s.request as usize)) && COMPOSED_CALLS.contains(&s.name)
        })
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let composed_s = composed_ns as f64 / 1e9;
    report.set(
        "bench.ladder_residual_share",
        ratio(composed_s - rungs.total_s() - snapshot_s, composed_s),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(seed: u64, trace: bool) -> RunArgs {
        RunArgs {
            workload: "test".into(),
            seed,
            seconds: 1,
            trace,
            smoke: true,
            spans_dir: None,
        }
    }

    #[test]
    fn same_seed_repeats_counts_and_digests_and_another_seed_differs() {
        for shape in [DELUGE_INGEST, AOI_QUERY] {
            let a = run(shape, &smoke(11, false));
            let b = run(shape, &smoke(11, false));
            let c = run(shape, &smoke(12, false));
            assert!(a.correct(), "{:?}", a.failures);
            assert_eq!(a.digests, b.digests);
            assert_eq!(a.attempted, b.attempted);
            for name in [
                "stored_bytes_per_entity",
                "storage.kv.flushes",
                "pubsub.broker.deliveries",
            ] {
                assert_eq!(a.get(name), b.get(name), "{name}");
            }
            assert_ne!(a.digests["inputs"], c.digests["inputs"]);
            assert_ne!(a.digests["state"], c.digests["state"]);
        }
    }

    /// Pins `commit()` ≡ `wal.sync()` + `drain_to_storage()`.
    #[test]
    fn traced_and_untraced_runs_end_in_the_same_state() {
        for shape in [DELUGE_INGEST, AOI_QUERY] {
            let (shape, ticks) = shape.sized(&smoke(11, false));
            let (world, inputs) = set_up(&shape, ticks, 11);
            let plain = measure(&shape, world, &inputs, false);
            let traced = measure(&shape, prepare(&shape, &inputs), &inputs, true);
            assert_eq!(plain.state_digest, traced.state_digest);
            assert!(traced.tracer.total("storage.group_commit.sync").1 > 0);
            assert!(plain.tracer.spans().is_empty());
        }
    }

    #[test]
    fn a_flipped_wal_bit_trips_the_recovery_digest_check() {
        let (shape, ticks) = DELUGE_INGEST.sized(&smoke(11, false));
        let (world, inputs) = set_up(&shape, ticks, 11);
        let mut pass = measure(&shape, world, &inputs, false);
        let mut clean = Report::default();
        let middle = pass.world.dm.wal.encoded_len() / 2;
        assert!(pass.world.dm.wal.inject_bit_flip(middle, 3));
        recover_and_check(&mut pass, &mut clean);
        assert!(!clean.correct());
        assert!(clean.failed > 0);
        assert!(clean.failures[0].contains("crash_and_recover"));
    }

    #[test]
    fn a_differing_batch_result_is_counted() {
        let id = |raw| EntityId::new(raw);
        let singles = vec![vec![id(1), id(2)], vec![id(3)]];
        assert_eq!(count_batch_mismatches(&singles.clone(), &singles), 0);
        let batch = vec![vec![id(1), id(2)], vec![id(4)]];
        assert_eq!(count_batch_mismatches(&batch, &singles), 1);
        assert_eq!(count_batch_mismatches(&batch[..1], &singles), 1);
    }
}
