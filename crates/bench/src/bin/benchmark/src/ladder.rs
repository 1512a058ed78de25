//! The per-layer ladder of `deluge_ingest`: each tick's write ops replayed
//! through every rung of the durable write path alone, on a fresh
//! instance of that layer, so a rung's cost is known apart from the
//! others. The rungs, bottom up:
//!
//! 1. `core.durable_op` — `DurableOp::from_write` + `encode`, and `decode`;
//! 2. `storage.group_commit` — `append` of the encoded records (sealing
//!    every 256) + one `sync` per tick;
//! 3. `txn.mvcc` — the version a plain write installs
//!    (`oracle().next` + `install_version`), keyed as `mv-core` keys it;
//! 4. `core.sharded` — `ShardedMetaverse::apply_batch` + `drain_events`,
//!    and then one `entity` read (name and attributes walked) per entity
//!    the events touched, in the order `drain_to_storage` reads them;
//! 5. `storage.kv` — `ShardedKv::apply_batch` on one record per touched
//!    entity, of the entity snapshot's size.
//!
//! Their sum, plus the snapshot encoding the caller times through
//! `DurableMetaverse::state_encoding`, is compared with what the composed
//! `DurableMetaverse` calls (`apply_batch`, `wal.sync`,
//! `drain_to_storage`) cost over the same ticks; what is left is
//! `core.durable`'s own glue (routing, key and record building) and shows
//! as the residual.

use crate::cospace::SHARDS;
use bytes::Bytes;
use mv_common::geom::Point;
use mv_common::id::EntityId;
use mv_common::time::SimTime;
use mv_core::{DurableOp, EntityKind, ShardedMetaverse, WriteOp};
use mv_storage::sharded_kv::shard_of_key;
use mv_storage::{GroupCommitPolicy, GroupCommitWal, KvConfig, ShardedKv, WalRecord};
use mv_txn::{IsolationLevel, ShardedMvcc};
use std::hint::black_box;
use std::time::Instant;

/// Seconds per op of each rung, plus the counts behind them.
#[derive(Debug, Default)]
pub struct Rungs {
    pub ops: u64,
    pub encode_s: f64,
    pub decode_s: f64,
    pub encoded_bytes: u64,
    pub wal_append_s: f64,
    pub wal_sync_s: f64,
    pub mvcc_install_s: f64,
    pub sharded_apply_s: f64,
    pub entity_read_s: f64,
    pub kv_apply_s: f64,
    pub kv_records: u64,
    /// Bytes written to runs (flushes and compactions) per snapshot byte
    /// put, over the rung's whole life, its initial load included.
    pub kv_write_amp: f64,
}

impl Rungs {
    /// Wall of all rungs together.
    pub fn total_s(&self) -> f64 {
        self.encode_s
            + self.wal_append_s
            + self.wal_sync_s
            + self.mvcc_install_s
            + self.sharded_apply_s
            + self.entity_read_s
            + self.kv_apply_s
    }
}

/// MVCC routing as `mv-core` does it: by the entity id inside the key, so
/// chains land on the shard of the entity's KV snapshot.
fn route(key: &[u8], shards: usize) -> usize {
    shard_of_key(key.get(1..9).unwrap_or(key), shards)
}

/// The MVCC key and value of a plain write, in `mv-core`'s scheme
/// (`[tag][entity id LE][attr name]`).
fn mvcc_record(op: &WriteOp) -> (Vec<u8>, Bytes) {
    match op {
        WriteOp::Position { id, position, .. } => {
            let mut key = vec![0u8];
            key.extend_from_slice(&id.raw().to_le_bytes());
            let mut value = Vec::with_capacity(16);
            value.extend_from_slice(&position.x.to_le_bytes());
            value.extend_from_slice(&position.y.to_le_bytes());
            (key, Bytes::from(value))
        }
        WriteOp::Attr {
            id, name, value, ..
        } => {
            let mut key = vec![1u8];
            key.extend_from_slice(&id.raw().to_le_bytes());
            key.extend_from_slice(name.as_bytes());
            (key, Bytes::copy_from_slice(&value.to_le_bytes()))
        }
    }
}

/// Replay `ticks` through every rung. `spawns` seeds the engine and KV
/// rungs with the world the ops address; `snapshot_bytes` is the size of
/// one entity snapshot in the composed run.
pub fn run(
    ticks: &[Vec<WriteOp>],
    spawns: &[(String, EntityKind, Point)],
    snapshot_bytes: usize,
) -> Rungs {
    let mut r = Rungs::default();

    // Rungs 1 and 2: codec, then the log on the encoded records.
    let mut wal = GroupCommitWal::with_policy(GroupCommitPolicy::by_records(256));
    let mut lsn = 0u64;
    for tick in ticks {
        let start = Instant::now();
        let encoded: Vec<Vec<u8>> = tick
            .iter()
            .map(|op| DurableOp::from_write(op).encode())
            .collect();
        r.encode_s += start.elapsed().as_secs_f64();
        r.encoded_bytes += encoded.iter().map(|e| e.len() as u64).sum::<u64>();

        let start = Instant::now();
        for bytes in &encoded {
            black_box(DurableOp::decode(black_box(bytes)));
        }
        r.decode_s += start.elapsed().as_secs_f64();

        let records: Vec<(WalRecord, SimTime)> = encoded
            .into_iter()
            .zip(tick)
            .map(|(value, op)| {
                lsn += 1;
                (
                    WalRecord::Put {
                        key: lsn.to_le_bytes().to_vec(),
                        value,
                    },
                    op.ts(),
                )
            })
            .collect();
        let start = Instant::now();
        for (record, ts) in records {
            wal.append(record, ts);
        }
        r.wal_append_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        wal.sync();
        r.wal_sync_s += start.elapsed().as_secs_f64();
        r.ops += tick.len() as u64;
    }
    drop(wal);

    // Rung 3: the version store.
    let mvcc = ShardedMvcc::new(SHARDS, IsolationLevel::Serializable, route);
    for tick in ticks {
        let start = Instant::now();
        for op in tick {
            let (key, value) = mvcc_record(op);
            let commit_ts = mvcc.oracle().next(op.ts());
            mvcc.install_version(&key, Some(value), commit_ts);
        }
        r.mvcc_install_s += start.elapsed().as_secs_f64();
    }
    drop(mvcc);

    // Rung 4: the sharded engine.
    let mut engine = ShardedMetaverse::with_defaults(SHARDS);
    engine.spawn_batch(spawns, SimTime::ZERO);
    engine.drain_events();
    let mut touched_per_tick: Vec<Vec<u64>> = Vec::with_capacity(ticks.len());
    for tick in ticks {
        let start = Instant::now();
        black_box(engine.apply_batch(tick));
        let events = engine.drain_events();
        r.sharded_apply_s += start.elapsed().as_secs_f64();
        let mut touched: Vec<EntityId> = events.iter().filter_map(|e| e.entity).collect();
        touched.sort_unstable();
        touched.dedup();
        let start = Instant::now();
        for &id in &touched {
            if let Ok(e) = engine.entity(id) {
                black_box(
                    e.name.len()
                        + e.attrs
                            .iter()
                            .map(|(k, v)| k.len() + *v as usize)
                            .sum::<usize>(),
                );
            }
        }
        r.entity_read_s += start.elapsed().as_secs_f64();
        touched_per_tick.push(touched.into_iter().map(EntityId::raw).collect());
    }
    drop(engine);

    // Rung 5: the KV store, holding a snapshot of every entity first.
    let mut kv = ShardedKv::new(SHARDS, KvConfig::default());
    let record = |raw: u64| WalRecord::Put {
        key: raw.to_le_bytes().to_vec(),
        value: vec![0xA5; snapshot_bytes],
    };
    let highest = touched_per_tick
        .iter()
        .flatten()
        .copied()
        .max()
        .unwrap_or(0)
        .max(spawns.len() as u64);
    let record_bytes = 8 + snapshot_bytes as u64;
    kv.apply_batch(&(0..=highest).map(record).collect::<Vec<_>>());
    let mut put_bytes = (highest + 1) * record_bytes;
    for touched in &touched_per_tick {
        let records: Vec<WalRecord> = touched.iter().copied().map(record).collect();
        put_bytes += records.len() as u64 * record_bytes;
        let start = Instant::now();
        kv.apply_batch(&records);
        r.kv_apply_s += start.elapsed().as_secs_f64();
        r.kv_records += records.len() as u64;
    }
    // Live runs = flushed + compacted-out − compacted-in, so everything
    // ever written to a run is the live bytes plus what compactions read.
    let written = kv.run_bytes() as u64 + kv.stats().get("compaction_read_bytes");
    r.kv_write_amp = crate::metrics::ratio(written as f64, put_bytes as f64);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rung_sees_every_op() {
        let spawns: Vec<(String, EntityKind, Point)> = (0..50)
            .map(|i| {
                (
                    format!("e{i}"),
                    EntityKind::Avatar,
                    Point::new(f64::from(i), 0.0),
                )
            })
            .collect();
        let mut engine = ShardedMetaverse::with_defaults(SHARDS);
        let ids: Vec<EntityId> = engine.spawn_batch(&spawns, SimTime::ZERO);
        let ticks: Vec<Vec<WriteOp>> = (0..4u64)
            .map(|t| {
                ids.iter()
                    .enumerate()
                    .map(|(i, &id)| {
                        let ts = SimTime::from_millis(t * 100 + 1);
                        if i % 2 == 0 {
                            WriteOp::Position {
                                id,
                                position: Point::new(t as f64, i as f64),
                                ts,
                            }
                        } else {
                            WriteOp::Attr {
                                id,
                                name: "hp".into(),
                                value: t as f64,
                                ts,
                            }
                        }
                    })
                    .collect()
            })
            .collect();
        let r = run(&ticks, &spawns, 96);
        assert_eq!(r.ops, 200);
        assert!(r.encoded_bytes > 200 * 16);
        assert!(
            r.kv_records > 0 && r.kv_records <= 200,
            "one record per entity a tick's events touch"
        );
        assert!(r.kv_write_amp >= 0.0);
        assert!(r.total_s() > 0.0);
    }
}
