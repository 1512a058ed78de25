//! Differential serializability proof of the cross-shard transaction
//! layer.
//!
//! The claim under test: every execution of concurrent interleaved
//! transactions over `DurableMetaverse` — with injected conflicts,
//! explicit aborts, and crashes at every 2PC boundary — is equivalent
//! to *some* serial execution of the committed subset. The witness
//! order is commit-timestamp order: the harness replays the committed
//! transactions one at a time against a sequential oracle (a plain
//! `BTreeMap`), asserting that
//!
//! * every value each transaction *observed* equals the oracle value at
//!   its position in the serial order (reads are serializable),
//! * the final oracle state equals the engine's attribute state *and* a
//!   fresh transactional snapshot (writes are serializable),
//! * commit timestamps are unique and strictly ordered (the order is a
//!   total one).
//!
//! On top of that:
//!
//! * shard counts {1, 2, 4, 8} produce identical committed outcomes and
//!   byte-identical engine state for the same schedule (sharding is
//!   invisible);
//! * a crash-point sweep visits every prepare/decision boundary of a
//!   cross-shard commit and asserts all-or-nothing recovery,
//!   byte-identical to a twin world where the transaction either never
//!   ran or committed normally — no transaction is ever half-applied;
//! * the same seed replays to byte-identical engine bytes and MVCC
//!   chain digests, crashes included.

use mv_common::geom::Point;
use mv_common::id::EntityId;
use mv_common::time::SimTime;
use mv_core::entity::EntityKind;
use mv_core::{DurableMetaverse, DurableOp, TxnCrashPoint};
use mv_storage::wal::WalRecordRef;
use mv_storage::GroupCommitPolicy;
use proptest::prelude::*;
use std::collections::BTreeMap;

const INIT_GOLD: f64 = 128.0;

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

/// What one generated transaction does: a list of `(from, to, amount)`
/// transfers over the entity pool, then a resolution.
#[derive(Debug, Clone)]
struct TxnSpec {
    transfers: Vec<(usize, usize, f64)>,
    resolution: Resolution,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Resolution {
    Commit,
    AbortExplicit,
    /// Attempt commit but pull the plug at the given 2PC boundary, then
    /// recover. (If the boundary is never reached — e.g. a crash "after
    /// prepare 3" of a 2-shard transaction — the commit completes.)
    Crash(TxnCrashPoint),
}

/// A schedule: groups of transactions that run interleaved (all begin,
/// then all read, then all buffer writes, then resolve in order) — the
/// begin-before-commit overlap is what manufactures conflicts.
#[derive(Debug, Clone)]
struct Schedule {
    entities: usize,
    groups: Vec<Vec<TxnSpec>>,
}

/// What one transaction was observed to do, for the serial replay.
#[derive(Debug, Clone)]
struct Observed {
    commit_ts: u64,
    /// entity → gold value seen at the snapshot (unique first reads).
    reads: Vec<(usize, Option<f64>)>,
    /// entity → final gold value written.
    writes: Vec<(usize, f64)>,
}

fn decode_spec(
    entities: usize,
    raw_groups: &[Vec<(u8, u8, u8, u8)>],
    allow_crash: bool,
) -> Schedule {
    let crash_points = TxnCrashPoint::sweep(4);
    let groups = raw_groups
        .iter()
        .map(|g| {
            g.iter()
                .map(|&(from, to, amt, kind)| {
                    let resolution = match kind % 8 {
                        6 => Resolution::AbortExplicit,
                        7 if allow_crash => {
                            Resolution::Crash(crash_points[amt as usize % crash_points.len()])
                        }
                        _ => Resolution::Commit,
                    };
                    TxnSpec {
                        transfers: vec![
                            (from as usize % entities, to as usize % entities, 1.0 + f64::from(amt % 8)),
                            // a second hop widens the footprint across shards
                            (to as usize % entities, (from as usize + 1) % entities, 1.0),
                        ],
                        resolution,
                    }
                })
                .collect()
        })
        .collect();
    Schedule { entities, groups }
}

/// Build a world whose WAL only seals on explicit sync, so decision
/// durability is exactly what the 2PC flow says it is.
fn world(shards: usize, entities: usize) -> (DurableMetaverse, Vec<EntityId>) {
    let mut dm = DurableMetaverse::new(
        shards,
        shards,
        mv_storage::KvConfig::default(),
        GroupCommitPolicy::by_records(10_000),
    );
    let ids: Vec<EntityId> = (0..entities)
        .map(|i| dm.spawn(format!("e{i}"), EntityKind::Avatar, Point::new(i as f64, 0.0), t(1)))
        .collect();
    dm.commit(t(1));
    (dm, ids)
}

/// Was a commit decision for `txn_id` durable? (The authoritative
/// post-recovery outcome of a crashed commit.)
fn decision_durable(dm: &DurableMetaverse, txn_id: u64) -> Option<u64> {
    dm.wal.durable().find_map(|rec| {
        let WalRecordRef::Put { value, .. } = rec else { return None };
        match DurableOp::decode(value) {
            Some(DurableOp::TxnDecision { txn, commit: true, commit_ts, .. }) if txn == txn_id => {
                Some(commit_ts)
            }
            _ => None,
        }
    })
}

/// Run `schedule` and return the world plus the committed transactions'
/// observations (init seeding included), in execution order.
fn run_schedule(shards: usize, schedule: &Schedule) -> (DurableMetaverse, Vec<Observed>) {
    let (mut dm, ids) = world(shards, schedule.entities);
    let mut committed: Vec<Observed> = Vec::new();

    // Seed every entity's gold transactionally so all keys are
    // versioned from the start (no live-engine fallback in play).
    let mut init = dm.txn(t(2));
    for &id in &ids {
        init.write_attr(id, "gold", INIT_GOLD, t(2));
    }
    let init_writes = (0..ids.len()).map(|i| (i, INIT_GOLD)).collect();
    let ts = dm.commit_txn(init, t(2)).expect("empty world: init cannot conflict");
    committed.push(Observed { commit_ts: ts, reads: Vec::new(), writes: init_writes });

    for (gi, group) in schedule.groups.iter().enumerate() {
        let now = t(10 + gi as u64);
        // Begin all, read all, buffer all — the transactions overlap.
        let mut open = Vec::new();
        for spec in group {
            let mut txn = dm.txn(now);
            let mut touched: Vec<usize> = spec
                .transfers
                .iter()
                .flat_map(|&(f, to, _)| [f, to])
                .collect();
            touched.sort_unstable();
            touched.dedup();
            let reads: Vec<(usize, Option<f64>)> = touched
                .iter()
                .map(|&e| (e, dm.txn_read_attr(&mut txn, ids[e], "gold")))
                .collect();
            // Compute final values locally (read-your-writes semantics),
            // then buffer one write per touched entity.
            let mut local: BTreeMap<usize, f64> =
                reads.iter().map(|&(e, v)| (e, v.unwrap_or(0.0))).collect();
            for &(from, to, amt) in &spec.transfers {
                *local.entry(from).or_insert(0.0) -= amt;
                *local.entry(to).or_insert(0.0) += amt;
            }
            let writes: Vec<(usize, f64)> = local.into_iter().collect();
            for &(e, v) in &writes {
                txn.write_attr(ids[e], "gold", v, now);
            }
            open.push((txn, spec.resolution, reads, writes));
        }
        // Resolve in order; first committer wins, the rest conflict out.
        for (txn, resolution, reads, writes) in open {
            match resolution {
                Resolution::Commit => {
                    if let Ok(ts) = dm.commit_txn(txn, now) {
                        committed.push(Observed { commit_ts: ts, reads, writes });
                    }
                }
                Resolution::AbortExplicit => dm.abort_txn(txn, now),
                Resolution::Crash(point) => {
                    let txn_id = txn.id();
                    match dm.commit_txn_crashing(txn, now, Some(point)) {
                        // Validation lost before the crash point: a
                        // plain conflict abort.
                        Err(_) => {}
                        // The boundary was never reached; the commit
                        // completed normally.
                        Ok(Some(ts)) => {
                            committed.push(Observed { commit_ts: ts, reads, writes })
                        }
                        // The plug was pulled: recover, then let the log
                        // say whether the decision became durable.
                        Ok(None) => {
                            dm.crash_and_recover();
                            assert_eq!(dm.txn_lock_count(), 0, "recovery must leave no locks");
                            if let Some(ts) = decision_durable(&dm, txn_id) {
                                committed.push(Observed { commit_ts: ts, reads, writes });
                            }
                        }
                    }
                }
            }
        }
    }
    dm.commit(t(1000));
    (dm, committed)
}

/// The serializability check: replay `committed` in commit-timestamp
/// order against a sequential oracle and compare reads, final engine
/// state, and a fresh snapshot.
fn assert_serializable(
    dm: &mut DurableMetaverse,
    ids: &[EntityId],
    committed: &[Observed],
) -> Result<(), TestCaseError> {
    let mut serial: Vec<&Observed> = committed.iter().collect();
    serial.sort_by_key(|o| o.commit_ts);
    for pair in serial.windows(2) {
        prop_assert!(
            pair[0].commit_ts < pair[1].commit_ts,
            "commit timestamps must be unique and totally ordered"
        );
    }
    let mut model: BTreeMap<usize, f64> = BTreeMap::new();
    for obs in &serial {
        for &(e, seen) in &obs.reads {
            prop_assert_eq!(
                seen,
                model.get(&e).copied(),
                "txn at ts {} observed entity {} = {:?}, serial oracle says {:?}",
                obs.commit_ts,
                e,
                seen,
                model.get(&e).copied()
            );
        }
        for &(e, v) in &obs.writes {
            model.insert(e, v);
        }
    }
    // Total gold is conserved by construction (transfers), so the model
    // itself is self-checking.
    let total: f64 = model.values().sum();
    prop_assert!(
        (total - INIT_GOLD * ids.len() as f64).abs() < 1e-6,
        "transfers must conserve total gold, got {total}"
    );
    // Engine state and a fresh transactional snapshot agree with the
    // serial oracle.
    let mut check = dm.txn(t(2000));
    for (e, &id) in ids.iter().enumerate() {
        let engine_val = dm.engine().entity(id).ok().and_then(|en| en.attrs.get("gold").copied());
        let snapshot_val = dm.txn_read_attr(&mut check, id, "gold");
        prop_assert_eq!(engine_val, model.get(&e).copied(), "engine vs oracle, entity {}", e);
        prop_assert_eq!(snapshot_val, model.get(&e).copied(), "snapshot vs oracle, entity {}", e);
    }
    Ok(())
}

fn ids_of(n: usize, dm: &DurableMetaverse) -> Vec<EntityId> {
    dm.ids().get(..n).map(<[EntityId]>::to_vec).unwrap_or_default()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Conflict-heavy interleaved schedules, no crashes: outcomes are
    /// serializable and *identical across shard counts*, byte for byte.
    #[test]
    fn interleaved_txns_are_serializable_across_shard_counts(
        raw in proptest::collection::vec(
            proptest::collection::vec((0u8..255, 0u8..255, 0u8..255, 0u8..7), 1..5),
            1..8,
        ),
        entities in 4usize..10,
    ) {
        let schedule = decode_spec(entities, &raw, false);
        // (engine bytes, per-txn (commit_ts, write count)) at 1 shard.
        type Baseline = (Vec<u8>, Vec<(u64, usize)>);
        let mut baseline: Option<Baseline> = None;
        for shards in [1usize, 2, 4, 8] {
            let (mut dm, committed) = run_schedule(shards, &schedule);
            let ids = ids_of(entities, &dm);
            assert_serializable(&mut dm, &ids, &committed)?;
            let outcome: Vec<(u64, usize)> =
                committed.iter().map(|o| (o.commit_ts, o.writes.len())).collect();
            let bytes = dm.state_encoding();
            match &baseline {
                None => baseline = Some((bytes, outcome)),
                Some((b_bytes, b_outcome)) => {
                    prop_assert_eq!(&outcome, b_outcome, "commit outcomes differ at shards={}", shards);
                    prop_assert_eq!(&bytes, b_bytes, "engine bytes differ at shards={}", shards);
                }
            }
        }
    }

    /// Crash-enabled schedules on 4 shards: still serializable, still
    /// deterministic — the same seed replays to byte-identical engine
    /// bytes and MVCC chain digests, mid-2PC crashes included.
    #[test]
    fn crashing_txns_stay_serializable_and_replay_byte_identically(
        raw in proptest::collection::vec(
            proptest::collection::vec((0u8..255, 0u8..255, 0u8..255, 0u8..8), 1..5),
            1..8,
        ),
        entities in 4usize..10,
    ) {
        let schedule = decode_spec(entities, &raw, true);
        let (mut dm, committed) = run_schedule(4, &schedule);
        let ids = ids_of(entities, &dm);
        assert_serializable(&mut dm, &ids, &committed)?;
        prop_assert_eq!(dm.txn_lock_count(), 0);

        let (dm2, committed2) = run_schedule(4, &schedule);
        prop_assert_eq!(committed.len(), committed2.len(), "same schedule, same commits");
        prop_assert_eq!(
            dm.state_encoding(),
            dm2.state_encoding(),
            "same-seed replay must be byte-identical"
        );
        prop_assert_eq!(dm.txn_digest(), dm2.txn_digest(), "version chains must match too");
    }
}

/// The exhaustive crash-point sweep: one cross-shard transaction, a
/// crash at *every* prepare/decision boundary, and a twin world proving
/// all-or-nothing — the recovered state is byte-identical to either
/// "the transaction never happened" or "it committed normally". Nothing
/// in between exists.
#[test]
fn crash_sweep_never_half_applies_a_transaction() {
    const ENTITIES: usize = 12;
    const SHARDS: usize = 4;

    // Twin A: the transaction never runs.
    let build_base = || {
        let (mut dm, ids) = world(SHARDS, ENTITIES);
        let mut init = dm.txn(t(2));
        for &id in &ids {
            init.write_attr(id, "gold", INIT_GOLD, t(2));
        }
        dm.commit_txn(init, t(2)).expect("init");
        dm.commit(t(2));
        (dm, ids)
    };
    let run_txn = |dm: &mut DurableMetaverse, ids: &[EntityId], crash: Option<TxnCrashPoint>| {
        let mut txn = dm.txn(t(3));
        // Touch every entity so the txn spans all four shards.
        for (i, &id) in ids.iter().enumerate() {
            let v = dm.txn_read_attr(&mut txn, id, "gold").expect("seeded");
            txn.write_attr(id, "gold", if i % 2 == 0 { v - 7.0 } else { v + 7.0 }, t(3));
        }
        dm.commit_txn_crashing(txn, t(3), crash).expect("no contention")
    };

    let (base_dm, _) = build_base();
    let never_ran = base_dm.state_encoding();

    // Twin B: the transaction commits normally.
    let (mut committed_dm, ids) = build_base();
    assert!(run_txn(&mut committed_dm, &ids, None).is_some());
    let committed_bytes = committed_dm.state_encoding();
    let committed_chains = committed_dm.txn_digest();
    assert_ne!(never_ran, committed_bytes, "the txn is observable");

    let mut outcomes = Vec::new();
    for point in TxnCrashPoint::sweep(SHARDS) {
        let (mut dm, ids) = build_base();
        let r = run_txn(&mut dm, &ids, Some(point));
        assert_eq!(r, None, "{point:?}: the crash must fire");
        dm.crash_and_recover();
        assert_eq!(dm.txn_lock_count(), 0, "{point:?}: no leaked locks");

        let bytes = dm.state_encoding();
        let aborted = bytes == never_ran;
        let committed = bytes == committed_bytes;
        assert!(
            aborted ^ committed,
            "{point:?}: recovered state is neither twin — the txn was half-applied"
        );
        if committed {
            assert_eq!(dm.txn_digest(), committed_chains, "{point:?}: chains match the twin");
        }
        // The decision sync is the commit point: before it, recovery
        // aborts; at/after it, recovery commits.
        let expect_committed = point == TxnCrashPoint::AfterDecisionSync;
        assert_eq!(
            committed, expect_committed,
            "{point:?}: wrong side of the commit point"
        );
        // In-doubt resolution shows in the stats exactly when the
        // prepares survived to the log (a pre-sync crash loses the whole
        // volatile tail, so recovery never even sees the transaction).
        let prepares_durable = matches!(
            point,
            TxnCrashPoint::AfterPrepareSync | TxnCrashPoint::AfterDecisionAppend
        );
        assert_eq!(
            dm.txn_stats().get("indoubt_aborted"),
            u64::from(prepares_durable && aborted),
            "{point:?}: in-doubt accounting"
        );
        // The world stays writable after recovery.
        let mut after = dm.txn(t(5));
        let v = dm.txn_read_attr(&mut after, ids[0], "gold").expect("still readable");
        after.write_attr(ids[0], "gold", v + 1.0, t(5));
        dm.commit_txn(after, t(5)).expect("post-recovery commits work");
        outcomes.push((point, committed));
    }
    // Sanity: the sweep exercised both sides of the commit point.
    assert!(outcomes.iter().any(|&(_, c)| c) && outcomes.iter().any(|&(_, c)| !c));
}

/// Mid-sequence crashes interleaved with further successful commits:
/// the final history is still serializable and the recovered worlds
/// keep their commit timestamps strictly ordered.
#[test]
fn recovery_then_more_commits_stays_serializable() {
    let raw = vec![
        vec![(0u8, 1, 3, 0), (1, 2, 5, 7)],
        vec![(2, 3, 2, 7), (3, 4, 1, 0)],
        vec![(0, 4, 6, 0), (4, 5, 4, 7), (5, 0, 2, 0)],
    ];
    let schedule = decode_spec(6, &raw, true);
    let (mut dm, committed) = run_schedule(4, &schedule);
    let ids = ids_of(6, &dm);
    assert_serializable(&mut dm, &ids, &committed).expect("serializable");
    // Recovery ran at least once (the spec injects three crash txns) and
    // the world still quiesces clean.
    assert_eq!(dm.txn_lock_count(), 0);
    assert_eq!(dm.wal.queue_depth(), 0);
}
