//! End-to-end fault recovery: the co-space sync loop driven through a
//! scripted partition and a client crash.
//!
//! A server updates eight objects round-robin (one update per 10 ms
//! tick) and pushes each over `mv-dissem`'s reliable push path to a
//! client replica across a 5%-lossy link. A `FaultPlan` injects:
//!
//! * a bidirectional partition over `[1 s, 2 s)` — the transport's
//!   retries must carry every buffered-in-flight update across the heal
//!   without the application noticing more than a divergence bump;
//! * a client crash over `[3 s, 3.5 s)` with full state loss (replica
//!   cleared, transport endpoint state dropped) — recovery is a full
//!   re-push of the server's truth after restart.
//!
//! Asserted: (a) replica divergence stays within the update-rate bound
//! during the partition, (b) the replica reconverges to *exact* equality
//! with the server's truth after the faults heal, and (c) two runs with
//! the same seed produce byte-identical event logs and fault counters.
//!
//! `pubsub_broker` drives `mv-pubsub`'s reliable broker through the same
//! fault script; `durable_engine` covers storage faults.

use mv_common::id::{ClientId, NodeId, ObjectId};
use mv_common::seeded_rng;
use mv_common::time::{SimDuration, SimTime};
use mv_dissem::sched::Priority;
use mv_dissem::{PushServer, Replica};
use mv_net::{FaultPlan, FaultTarget, LinkSpec, Network, RetryPolicy, Sim};
use std::collections::BTreeMap;

const SERVER: NodeId = NodeId::new(0);
const CLIENT_NODE: NodeId = NodeId::new(1);
const CLIENT: ClientId = ClientId::new(1);
const OBJECTS: u64 = 8;
/// One object update per tick, round-robin.
const TICK_MS: u64 = 10;
/// Updates stop here; the tail of the run is pure convergence time.
const LAST_UPDATE_MS: u64 = 4_500;
const END_MS: u64 = 6_000;

struct World {
    net: Network,
    rng: rand::rngs::StdRng,
    ps: PushServer,
    replica: Replica,
    /// Server-side ground truth: object → value.
    truth: BTreeMap<u64, f64>,
    tick: u64,
    /// True right after a client restart: the next pump performs the
    /// full state re-push + reconnect.
    resync_due: bool,
    /// The deterministic event log compared across runs.
    log: Vec<String>,
    /// (ms, max |truth − replica|) divergence samples.
    samples: Vec<(u64, f64)>,
}

impl FaultTarget for World {
    fn fault_network(&mut self) -> &mut Network {
        &mut self.net
    }

    fn on_node_crash(&mut self, node: NodeId) {
        // State loss: the transport forgets the endpoint, the outbox
        // starts buffering, and the replica is wiped.
        self.ps.outbox.on_node_crash(node);
        self.replica.clear();
        self.log.push(format!("crash node={}", node.raw()));
    }

    fn on_node_restart(&mut self, node: NodeId) {
        self.resync_due = true;
        self.log.push(format!("restart node={}", node.raw()));
    }
}

impl World {
    fn new(seed: u64) -> Self {
        let mut net = Network::new();
        net.add_node(SERVER, "server");
        net.add_node(CLIENT_NODE, "client");
        net.add_link_bidi(
            SERVER,
            CLIENT_NODE,
            LinkSpec::new(SimDuration::from_millis(5), 1e8).with_loss(0.05),
        );
        net.set_group(CLIENT_NODE, 1).unwrap();
        let mut ps = PushServer::new(SERVER, RetryPolicy::default(), seed, 64);
        ps.outbox.register(CLIENT, CLIENT_NODE);
        World {
            net,
            rng: seeded_rng(seed),
            ps,
            replica: Replica::new(),
            truth: BTreeMap::new(),
            tick: 0,
            resync_due: false,
            log: Vec::new(),
            samples: Vec::new(),
        }
    }

    /// Advance the co-space: one object takes a new value; push it.
    fn update(&mut self, now: SimTime) {
        let obj = self.tick % OBJECTS;
        let value = self.tick as f64;
        self.tick += 1;
        self.truth.insert(obj, value);
        self.ps.push(
            &mut self.net,
            &mut self.rng,
            CLIENT,
            ObjectId::new(obj),
            value,
            Priority::Normal,
            now,
        );
    }

    /// Pump transport arrivals into the replica; handle pending resync.
    fn pump(&mut self, now: SimTime) {
        if self.resync_due {
            self.resync_due = false;
            // Full state transfer: re-push every object's current value
            // (buffered — the outbox is disconnected), then reconnect to
            // replay the backlog most-critical-first.
            let truth: Vec<(u64, f64)> = self.truth.iter().map(|(&o, &v)| (o, v)).collect();
            for (obj, value) in truth {
                self.ps.push(
                    &mut self.net,
                    &mut self.rng,
                    CLIENT,
                    ObjectId::new(obj),
                    value,
                    Priority::Normal,
                    now,
                );
            }
            let n = self.ps.outbox.reconnect(&mut self.net, &mut self.rng, CLIENT, now);
            self.log.push(format!("resync at={}ms replayed={n}", now.as_millis_f64() as u64));
        }
        for (_client, msg) in self.ps.outbox.poll(&mut self.net, &mut self.rng, now) {
            if self.replica.accept(&msg) {
                self.log.push(format!(
                    "apply at={}ms obj={} val={} seq={}",
                    now.as_millis_f64() as u64,
                    msg.object.raw(),
                    msg.value,
                    msg.seq
                ));
            }
        }
    }

    /// Max |truth − replica| over all objects; a missing replica entry
    /// counts as the full truth value (divergence from an implicit 0).
    fn divergence(&self) -> f64 {
        self.truth
            .iter()
            .map(|(&o, &v)| match self.replica.get(ObjectId::new(o)) {
                Some(r) => (v - r.value).abs(),
                None => v.abs(),
            })
            .fold(0.0, f64::max)
    }

    fn sample(&mut self, now: SimTime) {
        let d = self.divergence();
        self.samples.push((now.as_millis_f64() as u64, d));
        self.log.push(format!("sample at={}ms div={d}", now.as_millis_f64() as u64));
    }
}

/// Everything a determinism check needs out of one run.
#[derive(Debug, PartialEq)]
struct RunResult {
    log: Vec<String>,
    samples: Vec<(u64, f64)>,
    faults: String,
    transport_stats: String,
    replica_stats: String,
    converged: bool,
}

/// One full scripted run.
fn run(seed: u64) -> RunResult {
    let mut sim = Sim::new(World::new(seed));
    let sched = sim.scheduler();

    FaultPlan::new()
        .partition_between(0, 1, SimTime::from_secs(1), SimTime::from_secs(2))
        .crash_window(CLIENT_NODE, SimTime::from_millis(3_000), SimTime::from_millis(3_500))
        .install(sched);

    for ms in (0..=LAST_UPDATE_MS).step_by(TICK_MS as usize) {
        sched.at(SimTime::from_millis(ms), |w: &mut World, s| w.update(s.now()));
    }
    // The pump runs every millisecond: transport timers and arrivals are
    // all processed at a fixed, deterministic cadence.
    for ms in 0..=END_MS {
        sched.at(SimTime::from_millis(ms), |w: &mut World, s| w.pump(s.now()));
    }
    for ms in (50..=END_MS).step_by(50) {
        sched.at(SimTime::from_millis(ms), |w: &mut World, s| w.sample(s.now()));
    }

    sim.run_to_completion();
    let w = &sim.world;

    let faults: String = format!(
        "severed={} healed={} crash={} restart={}",
        w.net.stats.get("faults_severed"),
        w.net.stats.get("faults_healed"),
        w.net.stats.get("faults_node_crash"),
        w.net.stats.get("faults_node_restart"),
    );
    let converged = w.divergence() == 0.0 && w.replica.len() == w.truth.len();
    RunResult {
        log: w.log.clone(),
        samples: w.samples.clone(),
        faults,
        transport_stats: format!("{:?}", w.ps.outbox.transport.stats),
        replica_stats: format!("{:?}", w.replica.stats),
        converged,
    }
}

#[test]
fn partition_and_crash_recover_to_exact_state() {
    let RunResult { log, samples, faults, transport_stats, converged, .. } = run(42);

    // (a) Bounded divergence during the partition. Truth advances one
    // tick per 10 ms, so a 1 s partition can open a gap of at most ~100
    // ticks, plus retransmission lag before the cut. The replica had all
    // eight objects by then, so nothing is "missing" in the metric.
    let during_partition: Vec<f64> = samples
        .iter()
        .filter(|&&(ms, _)| (1_000..2_000).contains(&ms))
        .map(|&(_, d)| d)
        .collect();
    let max_partition_div = during_partition.iter().copied().fold(0.0, f64::max);
    assert!(
        max_partition_div <= 160.0,
        "partition divergence must stay within the update-rate bound: {max_partition_div}"
    );
    assert!(
        max_partition_div >= 50.0,
        "a 1 s partition must actually open a divergence gap: {max_partition_div}"
    );

    // After the heal, retransmissions close the gap well before the
    // crash window opens.
    let pre_crash: Vec<f64> = samples
        .iter()
        .filter(|&&(ms, _)| (2_500..3_000).contains(&ms))
        .map(|&(_, d)| d)
        .collect();
    assert!(
        pre_crash.iter().all(|&d| d <= 60.0),
        "post-heal divergence should have collapsed: {pre_crash:?}"
    );

    // (b) Exact reconvergence: once updates stop and the resync drains,
    // the replica equals the truth, value for value.
    assert!(converged, "replica must reconverge exactly after the faults heal");
    let final_div = samples.last().expect("samples").1;
    assert_eq!(final_div, 0.0);

    // The scripted faults all fired and were counted.
    assert_eq!(faults, "severed=1 healed=1 crash=1 restart=1");
    // The crash/restart actually exercised recovery machinery.
    assert!(log.iter().any(|l| l.starts_with("crash ")), "crash hook fired");
    assert!(log.iter().any(|l| l.starts_with("resync ")), "restart triggered a resync");
    assert!(transport_stats.contains("retransmits"), "loss exercised retries: {transport_stats}");
}

// ---- durable engine: crash recovery through the storage layer ----------
//
// The scripted-world tests above exercise *network* faults; the tests
// below exercise *storage* faults through `DurableMetaverse`: every
// engine mutation is logged to a group-commit WAL before application,
// and recovery restores the newest checkpoint image in the surviving log
// and replays what follows it. The claims: the recovered state is
// byte-identical to the pre-crash engine at the last durable horizon,
// and to a replay of the whole log by an engine that never checkpointed;
// a crash mid-batch loses the whole batch — recovery always lands
// exactly on a commit point, never between two.

mod durable_engine {
    use mv_common::geom::{Aabb, Point};
    use mv_common::id::EntityId;
    use mv_common::time::SimTime;
    use mv_common::Space;
    use mv_core::{DurableMetaverse, DurableOp, EntityKind, TxnCrashPoint, WriteOp};
    use mv_storage::kv::KvConfig;
    use mv_storage::wal::{WalRecord, WalRecordRef};
    use mv_storage::GroupCommitPolicy;

    const SHARDS: usize = 4;
    const ENTITIES: usize = 64;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// A durable engine whose WAL seals only on explicit `commit` (the
    /// record/byte triggers are effectively off), so WAL batches and
    /// commit points coincide 1:1 — which is what lets the torn-write
    /// test say "recovery lands on a commit point" precisely.
    fn build() -> DurableMetaverse {
        let mut dm = DurableMetaverse::new(
            SHARDS,
            SHARDS,
            KvConfig::default(),
            GroupCommitPolicy::by_records(usize::MAX),
        );
        let ids: Vec<EntityId> = (0..ENTITIES)
            .map(|i| {
                dm.spawn(
                    format!("troop{i}"),
                    EntityKind::Person,
                    Point::new(i as f64, (i % 8) as f64),
                    t(1),
                )
            })
            .collect();
        // Batched moves + attribute writes, like a real ingest tick.
        let moves: Vec<WriteOp> = ids
            .iter()
            .enumerate()
            .map(|(i, id)| WriteOp::Position {
                id: *id,
                position: Point::new(i as f64 + 5.0, i as f64),
                ts: t(2),
            })
            .chain(ids.iter().take(16).map(|id| WriteOp::Attr {
                id: *id,
                name: "health".into(),
                value: 0.75,
                ts: t(2),
            }))
            .collect();
        for r in dm.apply_batch(&moves) {
            r.expect("all entities live");
        }
        // An area effect retires a handful through their owner shards.
        let raid = DurableOp::AreaEffect {
            space: Space::Virtual,
            effect: "air_raid".into(),
            region: Aabb::new(Point::new(0.0, 0.0), Point::new(9.0, 9.0)),
            action: "perish".into(),
            retire: true,
            ts: t(3),
        };
        dm.apply(&raid, None).unwrap();
        dm
    }

    #[test]
    fn recovery_is_byte_identical_to_the_committed_engine() {
        let mut dm = build();
        dm.commit(t(3));
        let committed = dm.state_encoding();
        let digest = dm.state_digest();
        assert!(dm.engine().live_count() < ENTITIES, "the raid retired entities");

        // An uncommitted tail that must vanish wholesale.
        let ghost = dm.spawn("ghost", EntityKind::Avatar, Point::ORIGIN, t(4));
        dm.update_attr(ghost, "hp", 1.0, t(4)).unwrap();
        assert_ne!(dm.state_encoding(), committed);

        let report = dm.crash_and_recover();
        assert_eq!(report.corruption, None);
        assert!(report.replayed > 0);
        assert_eq!(
            dm.state_encoding(),
            committed,
            "recovered engine must be byte-identical to the pre-crash commit"
        );
        assert_eq!(dm.state_digest(), digest);

        // Crash again: recovery is a fixed point.
        dm.crash_and_recover();
        assert_eq!(dm.state_encoding(), committed);
    }

    #[test]
    fn torn_write_mid_batch_recovers_to_the_previous_commit_point() {
        let mut dm = build();
        dm.commit(t(3));
        let after_first_commit = dm.state_encoding();
        let intact_log = dm.wal.encoded_len();

        // A second committed batch of work…
        let id = dm.ids()[10];
        dm.apply(&DurableOp::Position { id, position: Point::new(500.0, 500.0), ts: t(5) }, None).unwrap();
        dm.update_attr(id, "health", 0.1, t(5)).unwrap();
        dm.commit(t(5));
        let after_second_commit = dm.state_encoding();
        assert_ne!(after_first_commit, after_second_commit);

        // …whose batch frame is torn mid-write. The whole second batch
        // must vanish — never a prefix of it (e.g. the position update
        // without the attr write would be a state no commit produced).
        dm.wal.inject_torn_write(intact_log + 7);
        let report = dm.crash_and_recover();
        assert!(report.corruption.is_some(), "the tear must be detected");
        assert_eq!(
            dm.state_encoding(),
            after_first_commit,
            "recovery must land exactly on the previous commit point"
        );
        assert_eq!(dm.engine().entity(id).unwrap().attr("health"), 0.75);
    }

    #[test]
    fn bit_flip_in_an_earlier_batch_truncates_to_the_commit_before_it() {
        let mut dm = build();
        dm.commit(t(3));
        let first = dm.state_encoding();
        let first_log = dm.wal.encoded_len();

        dm.update_attr(dm.ids()[20], "morale", 0.9, t(4)).unwrap();
        dm.commit(t(4));
        dm.update_attr(dm.ids()[21], "morale", 0.2, t(5)).unwrap();
        dm.commit(t(5));

        // Corrupt the *second* batch: the third is intact but sits past
        // the damage, so recovery truncates back to commit one.
        assert!(dm.wal.inject_bit_flip(first_log + 13, 2));
        let report = dm.crash_and_recover();
        assert!(report.corruption.is_some());
        assert_eq!(
            dm.state_encoding(),
            first,
            "everything after the first corrupt batch is dropped, not replayed"
        );
    }

    #[test]
    fn same_ops_same_bytes_across_independent_runs() {
        // The recovery guarantee rests on replay determinism: two
        // engines fed the same ops — one via crash recovery — are
        // byte-identical, version chains included.
        let mut a = build();
        a.commit(t(3));
        let mut b = build();
        b.commit(t(3));
        assert_eq!(a.state_encoding(), b.state_encoding());
        a.crash_and_recover();
        assert_eq!(a.state_encoding(), b.state_encoding());
        assert_eq!(a.txn_digest(), b.txn_digest());
    }

    /// Round `r` of writes: a quarter of the entities move (the retired
    /// ones refuse) and an eighth change `morale`.
    fn round(dm: &mut DurableMetaverse, r: u64) {
        let now = t(10 + r);
        let ids = dm.ids();
        let quarter = ids.iter().skip(r as usize % 4).step_by(4);
        let ops: Vec<WriteOp> = quarter
            .clone()
            .map(|&id| WriteOp::Position {
                id,
                position: Point::new(id.raw() as f64 + 20.0, (r % 7) as f64 * 10.0),
                ts: now,
            })
            .chain(quarter.step_by(2).map(|&id| WriteOp::Attr {
                id,
                name: "morale".into(),
                value: r as f64,
                ts: now,
            }))
            .collect();
        dm.apply_batch(&ops);
    }

    /// `commit`, reporting whether it sealed a checkpoint: the image is a
    /// batch of its own, so two batches sealed instead of one.
    fn commit_checkpointed(dm: &mut DurableMetaverse, now: SimTime) -> bool {
        let before = dm.wal.stats.get("batches");
        dm.commit(now);
        dm.wal.stats.get("batches") == before + 2
    }

    /// What recovery leaves: engine bytes, chain digest, in-doubt count.
    fn recovered(dm: &mut DurableMetaverse) -> (Vec<u8>, u64, u64) {
        dm.crash_and_recover();
        (dm.state_encoding(), dm.txn_digest(), dm.txn_stats().get("indoubt_aborted"))
    }

    /// The reference: `build()` and `rounds` rounds on an engine that
    /// only ever syncs — it never checkpoints, so its recovery replays
    /// the whole log.
    fn full_replay(rounds: u64) -> (Vec<u8>, u64, u64) {
        let mut dm = build();
        dm.wal.sync();
        for r in 0..rounds {
            round(&mut dm, r);
            dm.wal.sync();
        }
        recovered(&mut dm)
    }

    /// `build()`, committed, then rounds committed until a commit takes
    /// the second checkpoint. Returns that round and the engine.
    fn to_second_checkpoint() -> (u64, DurableMetaverse) {
        let mut dm = build();
        assert!(commit_checkpointed(&mut dm, t(3)), "the first commit checkpoints");
        for r in 0..100 {
            round(&mut dm, r);
            if commit_checkpointed(&mut dm, t(10 + r)) {
                return (r, dm);
            }
        }
        panic!("no second checkpoint in 100 rounds");
    }

    /// Every crash point around the fence recovers what a replay of the
    /// whole log recovers: before the image seals, after it seals but
    /// before the trim, with the image torn and the older log intact,
    /// and with the log trimmed to exactly the image and its suffix.
    #[test]
    fn crash_points_around_the_checkpoint_fence_recover_as_full_replay() {
        let (due, mut checkpointed) = to_second_checkpoint();
        let image = match checkpointed.wal.durable().next() {
            Some(WalRecordRef::Put { value, .. }) => value.to_vec(),
            other => panic!("the trimmed log starts with the image, not {other:?}"),
        };
        assert_eq!(checkpointed.wal.durable_batches().count(), 1, "trimmed to the image");
        // Up to the round whose commit is due a checkpoint, then sealed
        // with `wal.sync()` alone: the checkpoint never happened.
        let before_seal = || {
            let mut dm = build();
            dm.commit(t(3));
            for r in 0..due {
                round(&mut dm, r);
                dm.commit(t(10 + r));
            }
            round(&mut dm, due);
            dm.wal.sync();
            dm
        };
        let reference = full_replay(due + 1);

        assert_eq!(recovered(&mut before_seal()), reference, "crash before the image seals");

        let sealed_untrimmed = || {
            let mut dm = before_seal();
            let older_log = dm.wal.encoded_len();
            dm.wal.append(WalRecord::Put { key: Vec::new(), value: image.clone() }, t(10 + due));
            dm.wal.sync();
            (dm, older_log)
        };
        let (mut dm, _) = sealed_untrimmed();
        assert_eq!(recovered(&mut dm), reference, "crash after the seal, before the trim");

        let (mut dm, older_log) = sealed_untrimmed();
        dm.wal.inject_torn_write(older_log + image.len() / 2);
        assert!(dm.crash_and_recover().corruption.is_some());
        assert_eq!(recovered(&mut dm), reference, "image torn, older log intact");

        assert_eq!(recovered(&mut checkpointed), reference, "log trimmed to the image");
        round(&mut checkpointed, due + 1);
        checkpointed.commit(t(11 + due));
        assert_eq!(checkpointed.wal.durable_batches().count(), 2, "the image and one suffix batch");
        assert_eq!(recovered(&mut checkpointed), full_replay(due + 2), "image plus suffix");
    }

    /// The image is the only copy of what it replaced: damaged after the
    /// trim, it leaves nothing to replay onto. Recovery says so and yields
    /// the empty engine, never one no commit produced.
    #[test]
    fn a_checkpoint_damaged_after_its_trim_recovers_to_nothing() {
        let (due, mut dm) = to_second_checkpoint();
        round(&mut dm, due + 1);
        dm.commit(t(11 + due));
        assert!(dm.wal.inject_bit_flip(40, 1), "a byte inside the image");
        let report = dm.crash_and_recover();
        assert!(report.corruption.is_some());
        assert_eq!(report.replayed, 0);
        let empty = DurableMetaverse::with_defaults(SHARDS);
        assert_eq!(dm.state_encoding(), empty.state_encoding());
        assert_eq!(dm.txn_digest(), empty.txn_digest());
        assert!(dm.ids().is_empty());
    }

    /// A checkpoint sealed by the commit just before a crashing
    /// cross-shard transaction changes nothing the crash sweep recovers:
    /// engine bytes, chains and the presumed-abort count all equal the
    /// sweep on an engine that never checkpointed.
    #[test]
    fn a_checkpoint_before_a_crashing_commit_recovers_as_full_replay() {
        let run = |checkpoint: bool, point: TxnCrashPoint| {
            let mut dm = build();
            if checkpoint {
                assert!(commit_checkpointed(&mut dm, t(3)));
            } else {
                dm.wal.sync();
            }
            let mut txn = dm.txn(t(4));
            for &id in &dm.ids()[32..48] {
                txn.write_attr(id, "gold", id.raw() as f64, t(4));
            }
            let outcome = dm.commit_txn_crashing(txn, t(4), Some(point)).expect("no contention");
            (outcome, recovered(&mut dm))
        };
        let mut indoubt = 0;
        for point in TxnCrashPoint::sweep(SHARDS) {
            let (outcome, with_image) = run(true, point);
            assert_eq!(outcome, None, "{point:?} fires");
            assert_eq!(with_image, run(false, point).1, "{point:?}");
            indoubt += with_image.2;
        }
        assert_eq!(indoubt, 2, "two points leave durable prepares in doubt");
    }

    /// Recovery work follows live state, not history: the same entities
    /// and keys reached by 10× the commits leave the same number of
    /// records to recover, give or take one checkpoint interval.
    #[test]
    fn recovery_work_is_independent_of_history() {
        let recover = |rounds: u64| {
            let mut dm = build();
            dm.commit(t(3));
            let (mut checkpoints, mut last) = (Vec::new(), 0);
            for r in 0..rounds {
                round(&mut dm, r);
                if commit_checkpointed(&mut dm, t(10 + r)) {
                    checkpoints.push(r - last);
                    last = r;
                }
            }
            let versions = dm.txn_version_count();
            let records = dm.crash_and_recover().replayed;
            assert_eq!(dm.txn_version_count(), versions, "{rounds} rounds");
            (records, versions, checkpoints)
        };
        let (short, short_keys, _) = recover(32);
        let (long, long_keys, intervals) = recover(320);
        assert_eq!(short_keys, long_keys, "the same live keys");
        // Each round logs a record per fourth entity and per eighth.
        let per_round = ENTITIES / 4 + ENTITIES / 8;
        let interval = *intervals.iter().max().expect("checkpoints") as usize;
        println!("records to recover: {short} after 32 rounds, {long} after 320; {intervals:?}");
        assert!(intervals.len() >= 10, "{intervals:?}");
        assert!(long.abs_diff(short) <= interval * per_round, "{short} vs {long} records");
        assert!(long <= 1 + (interval + 1) * per_round, "{long} records");
    }
}

#[test]
fn same_seed_runs_are_byte_identical() {
    // (c) The whole scenario — fault schedule, loss draws, retry jitter,
    // delivery order, divergence trace — is a pure function of the seed.
    let a = run(42);
    let b = run(42);
    assert_eq!(a.log, b.log, "event logs must be identical");
    assert_eq!(a.samples, b.samples, "divergence samples must be identical");
    assert_eq!(a, b, "fault counters and stats must be identical");

    // A different seed draws different loss/jitter but must still
    // converge to the same exact final state.
    let c = run(7);
    assert!(c.converged, "other seeds converge too");
    assert_ne!(a.transport_stats, c.transport_stats, "different seeds take different retry paths");
}

// ---- pub/sub broker: the same fault script through matched delivery ----
//
// A broker publishes one `sale` event per tick to a subscribed client
// over the same 5%-lossy link, through the same faults as the push
// scenario: a partition over `[1 s, 2 s)` and a client crash with state
// loss over `[3 s, 3.5 s)`. The crash wipes the client's inbox (a new
// incarnation) and makes the broker retain for it; the restart
// reconnects the client, which replays what was retained.

mod pubsub_broker {
    use super::{CLIENT, CLIENT_NODE, END_MS, LAST_UPDATE_MS, SERVER, TICK_MS};
    use mv_common::id::NodeId;
    use mv_common::seeded_rng;
    use mv_common::time::{SimDuration, SimTime};
    use mv_net::{FaultPlan, FaultTarget, LinkSpec, Network, RetryPolicy, Sim};
    use mv_pubsub::{InboxDedup, Publication, ReliableBroker, Subscription};
    use std::collections::BTreeSet;

    struct World {
        net: Network,
        rng: rand::rngs::StdRng,
        broker: ReliableBroker,
        inbox: InboxDedup,
        /// Bumped by each client crash.
        incarnation: u32,
        reconnect_due: bool,
        /// Publish time in ms, indexed by `pub_id`.
        published: Vec<u64>,
        /// `(incarnation, pub_id, ms)` per processed publication.
        processed: Vec<(u32, u64, u64)>,
        log: Vec<String>,
    }

    impl FaultTarget for World {
        fn fault_network(&mut self) -> &mut Network {
            &mut self.net
        }

        fn on_node_crash(&mut self, node: NodeId) {
            self.broker.outbox.on_node_crash(node);
            self.inbox.clear();
            self.incarnation += 1;
            self.log.push(format!("crash node={}", node.raw()));
        }

        fn on_node_restart(&mut self, node: NodeId) {
            self.reconnect_due = true;
            self.log.push(format!("restart node={}", node.raw()));
        }
    }

    impl World {
        fn new(seed: u64) -> Self {
            let mut net = Network::new();
            net.add_node(SERVER, "broker");
            net.add_node(CLIENT_NODE, "client");
            net.add_link_bidi(
                SERVER,
                CLIENT_NODE,
                LinkSpec::new(SimDuration::from_millis(5), 1e8).with_loss(0.05),
            );
            net.set_group(CLIENT_NODE, 1).unwrap();
            let mut broker = ReliableBroker::new(SERVER, RetryPolicy::default(), seed, 128);
            broker.outbox.register(CLIENT, CLIENT_NODE);
            broker.subscribe(Subscription::new(CLIENT).with_term("sale"));
            World {
                net,
                rng: seeded_rng(seed),
                broker,
                inbox: InboxDedup::new(),
                incarnation: 0,
                reconnect_due: false,
                published: Vec::new(),
                processed: Vec::new(),
                log: Vec::new(),
            }
        }

        fn publish(&mut self, now: SimTime) {
            let n = self.published.len() as f64;
            let p = Publication::new(now).term("sale").attr("n", n);
            self.broker.publish(&mut self.net, &mut self.rng, p, now);
            self.published.push(now.as_millis_f64() as u64);
        }

        fn pump(&mut self, now: SimTime) {
            let ms = now.as_millis_f64() as u64;
            if self.reconnect_due {
                self.reconnect_due = false;
                let n = self.broker.outbox.reconnect(&mut self.net, &mut self.rng, CLIENT, now);
                self.log.push(format!("reconnect at={ms}ms replayed={n}"));
            }
            for (_client, msg) in self.broker.outbox.poll(&mut self.net, &mut self.rng, now) {
                if self.inbox.accept(&msg) {
                    self.processed.push((self.incarnation, msg.pub_id, ms));
                    self.log.push(format!("process at={ms}ms pub={}", msg.pub_id));
                }
            }
        }
    }

    #[derive(Debug, PartialEq)]
    struct RunResult {
        published: Vec<u64>,
        processed: Vec<(u32, u64, u64)>,
        log: Vec<String>,
        counters: String,
    }

    fn run(seed: u64) -> RunResult {
        let mut sim = Sim::new(World::new(seed));
        let sched = sim.scheduler();
        FaultPlan::new()
            .partition_between(0, 1, SimTime::from_secs(1), SimTime::from_secs(2))
            .crash_window(CLIENT_NODE, SimTime::from_millis(3_000), SimTime::from_millis(3_500))
            .install(sched);
        for ms in (0..=LAST_UPDATE_MS).step_by(TICK_MS as usize) {
            sched.at(SimTime::from_millis(ms), |w: &mut World, s| w.publish(s.now()));
        }
        for ms in 0..=END_MS {
            sched.at(SimTime::from_millis(ms), |w: &mut World, s| w.pump(s.now()));
        }
        sim.run_to_completion();
        // Retransmissions that were backed off past the scripted end
        // still land: drain the transport until it is idle.
        let mut w = sim.world;
        while let Some(at) = w.broker.outbox.next_wakeup() {
            w.pump(at);
        }
        let counters = format!(
            "{:?} {:?} {:?} {:?} {:?}",
            w.net.stats,
            w.broker.outbox.transport.stats,
            w.broker.outbox.retention.stats,
            w.broker.stats,
            w.inbox.stats,
        );
        RunResult { published: w.published, processed: w.processed, log: w.log, counters }
    }

    #[test]
    fn partition_and_crash_process_each_publication_once_per_incarnation() {
        let r = run(42);

        // Nothing is processed twice within one client incarnation.
        let distinct: BTreeSet<(u32, u64)> =
            r.processed.iter().map(|&(i, id, _)| (i, id)).collect();
        assert_eq!(distinct.len(), r.processed.len(), "a publication processed twice");

        // Every publication matched while the client was cut off is
        // processed once it is back: after the heal for the partition,
        // by the new incarnation after the reconnect for the crash.
        let processed_after = |id: u64, incarnation: u32, from_ms: u64| {
            r.processed.iter().any(|&(i, p, ms)| p == id && i >= incarnation && ms >= from_ms)
        };
        let mut partitioned = 0;
        let mut down = 0;
        for (id, &at) in r.published.iter().enumerate() {
            let id = id as u64;
            if (1_000..2_000).contains(&at) {
                partitioned += 1;
                assert!(processed_after(id, 0, 2_000), "pub {id} (at {at} ms) lost: partition");
            } else if (3_000..3_500).contains(&at) {
                down += 1;
                assert!(processed_after(id, 1, 3_500), "pub {id} (at {at} ms) lost: crash");
            }
        }
        assert_eq!((partitioned, down), (100, 50));
        // Nothing was lost at all, and the faults were exercised: the
        // crash window was retained and replayed on reconnect.
        let ever: BTreeSet<u64> = r.processed.iter().map(|&(_, id, _)| id).collect();
        assert_eq!(ever.len(), r.published.len(), "every publication processed");
        let replayed =
            r.log.iter().any(|l| l.starts_with("reconnect ") && !l.ends_with("replayed=0"));
        assert!(replayed, "the reconnect replayed nothing: {:?}", r.log);
        assert!(r.counters.contains("retransmits"), "loss exercised retries: {}", r.counters);

        // Same seed, same bytes: log, processing order and every counter.
        assert_eq!(r, run(42));
    }
}
