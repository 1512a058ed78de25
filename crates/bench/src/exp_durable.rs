//! E17 — durable ingest fast path (§IV-F: persisting the deluge).
//!
//! Claims reproduced:
//!
//! * **E17a — group commit.** Syncing the WAL record-at-a-time charges
//!   every record a full frame encode, a checksum pass, and a device
//!   flush. Coalescing records into one checksum-framed batch per sync
//!   amortizes all three; on the critical-path model the durable ingest
//!   rate rises ≥ 5× by batch 256. The baseline is the same
//!   `GroupCommitWal` at batch 1.
//! * **E17b — sharded durable apply.** Draining the log into a
//!   key-hash-sharded LSM scales the apply stage with the shard count
//!   (per-batch critical path = slowest shard), the same ownership
//!   discipline E1d proved for the engine.
//! * **E17c — bloom filters.** Point gets for absent keys probe every
//!   run without filters; 10-bit-per-key blooms absorb ≥ 80% of those
//!   probes.
//!
//! **Critical-path model.** CPU work is measured on this host; each
//! `sync()` is additionally charged a fixed [`SYNC_LATENCY_US`]
//! (≈ an NVMe flush) that the in-memory WAL does not actually pay —
//! the DESIGN.md §2 substitution (simulate the device, measure the
//! compute), applied to storage exactly as E1d applies it to cores.
//! The `cpu_ms` column keeps the measured part visible next to the
//! modelled totals, and the single-core caveat from E1d applies to the
//! sharded rows.

use bytes::Bytes;
use mv_common::table::{f2, n, pct, Table};
use mv_common::time::SimTime;
use mv_storage::kv::KvConfig;
use mv_storage::{GroupCommitPolicy, GroupCommitWal, KvStore, ShardedKv, WalRecord};
use std::time::Instant;

/// Modelled device-flush latency charged per `sync()`, in microseconds
/// (an NVMe-class flush; the DESIGN.md §2 device substitution).
pub const SYNC_LATENCY_US: f64 = 20.0;

/// Deterministic synthetic ingest records (entity-snapshot shaped:
/// 8-byte id key, ~64-byte value).
fn records(count: usize) -> Vec<WalRecord> {
    (0..count)
        .map(|i| WalRecord::Put {
            key: (i as u64 % 4096).to_le_bytes().to_vec(),
            value: vec![(i % 251) as u8; 64],
        })
        .collect()
}

/// Group commit at a fixed record trigger (batch 1 is the
/// record-at-a-time baseline: one batch, one sync per record). Returns
/// `(cpu seconds, sync count)`.
fn run_group_commit(recs: &[WalRecord], batch: usize) -> (f64, u64) {
    let mut wal = GroupCommitWal::with_policy(GroupCommitPolicy::by_records(batch));
    let t0 = Instant::now();
    for rec in recs {
        wal.append(rec.clone(), SimTime::ZERO);
    }
    wal.sync();
    let cpu = t0.elapsed().as_secs_f64();
    assert_eq!(wal.durable().count(), recs.len());
    (cpu, wal.stats.get("batches"))
}

/// Model seconds for a run: measured CPU + `syncs` modelled flushes.
fn model_s(cpu_s: f64, syncs: u64) -> f64 {
    cpu_s + syncs as f64 * SYNC_LATENCY_US * 1e-6
}

/// One E17a sweep: group-commit speedup over record-at-a-time on
/// `count` records at `batch`. Returns (baseline tput, grouped tput).
fn measure_group_commit(count: usize, batch: usize) -> (f64, f64) {
    let recs = records(count);
    let (base_cpu, base_syncs) = run_group_commit(&recs, 1);
    let (grp_cpu, grp_syncs) = run_group_commit(&recs, batch);
    let base = count as f64 / model_s(base_cpu, base_syncs);
    let grp = count as f64 / model_s(grp_cpu, grp_syncs);
    (base, grp)
}

/// One E17b sweep point: critical-path seconds to apply `recs` into a
/// `shards`-way [`ShardedKv`] in `batch`-sized chunks, plus one modelled
/// flush per chunk.
fn measure_sharded_apply(recs: &[WalRecord], shards: usize, batch: usize) -> f64 {
    let mut kv = ShardedKv::new(
        shards,
        KvConfig { memtable_budget: 32 << 10, ..KvConfig::default() },
    );
    kv.set_parallel_apply(false);
    let mut crit_s = 0.0;
    let mut chunks = 0u64;
    for chunk in recs.chunks(batch) {
        kv.apply_batch(chunk);
        crit_s += kv.last_shard_walls().iter().cloned().fold(0.0, f64::max);
        chunks += 1;
    }
    model_s(crit_s, chunks)
}

/// E17c: absent-key point gets against a run-heavy store, with and
/// without filters. Returns `(probes without, probes with, savings)`.
fn measure_bloom_savings(keys: usize, gets: usize) -> (u64, u64, f64) {
    let build = |bits: usize| {
        let mut kv = KvStore::with_config(KvConfig {
            memtable_budget: 2 << 10,
            bloom_bits_per_key: bits,
            tier_fanout: 4,
        });
        for i in 0..keys {
            kv.put(
                Bytes::from(format!("present-{i:06}")),
                Bytes::from(vec![(i % 251) as u8; 32]),
            );
        }
        for g in 0..gets {
            assert_eq!(kv.get(format!("absent-{g:06}").as_bytes()), None);
        }
        kv.stats().get("run_probes")
    };
    let without = build(0);
    let with = build(10);
    let savings = 1.0 - with as f64 / without.max(1) as f64;
    (without, with, savings)
}

/// Run E17: group-commit batch sweep, shard sweep, bloom savings.
pub fn e17() -> Vec<Table> {
    e17_sized(40_000, 40_000, 20_000, 10_000)
}

/// E17 at explicit sizes (the CI smoke runs a small sweep).
pub fn e17_sized(
    wal_records: usize,
    apply_records: usize,
    bloom_keys: usize,
    bloom_gets: usize,
) -> Vec<Table> {
    let mut a = Table::new(
        format!(
            "E17a: durable WAL ingest — group commit vs record-at-a-time \
             ({wal_records} records, modelled {SYNC_LATENCY_US} µs/sync; \
             critical-path model, single core)"
        ),
        &["batch", "records", "base_rec_per_s", "grouped_rec_per_s", "speedup"],
    );
    for &batch in &[16usize, 64, 256, 1024] {
        let (base, grp) = measure_group_commit(wal_records, batch);
        a.row(&[
            n(batch as u64),
            n(wal_records as u64),
            f2(base),
            f2(grp),
            f2(grp / base),
        ]);
    }

    let mut b = Table::new(
        format!(
            "E17b: sharded LSM durable apply — critical-path throughput vs shards \
             ({apply_records} records, batch 1024, modelled {SYNC_LATENCY_US} µs/sync per batch; \
             single-core caveat as E1d)"
        ),
        &["shards", "records", "model_ms", "rec_per_s", "speedup"],
    );
    let recs = records(apply_records);
    let mut base_tput = 0.0;
    for &shards in &[1usize, 2, 4, 8] {
        let secs = measure_sharded_apply(&recs, shards, 1024);
        let tput = apply_records as f64 / secs;
        if shards == 1 {
            base_tput = tput;
        }
        b.row(&[
            n(shards as u64),
            n(apply_records as u64),
            f2(secs * 1e3),
            f2(tput),
            f2(tput / base_tput),
        ]);
    }

    let (without, with, savings) = measure_bloom_savings(bloom_keys, bloom_gets);
    let mut c = Table::new(
        format!(
            "E17c: bloom filters — run probes on {bloom_gets} absent-key point gets \
             over {bloom_keys} resident keys (10 bits/key vs none)"
        ),
        &["bits_per_key", "run_probes", "probe_savings"],
    );
    c.row(&[n(0), n(without), pct(0.0)]);
    c.row(&[n(10), n(with), pct(savings)]);

    vec![a, b, c]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The PR's acceptance criterion: ≥ 5× durable-ingest speedup at
    /// batch ≥ 256 on the critical-path model. The modelled sync counts
    /// (n vs n/256) dominate the ratio, so this is stable on busy CI
    /// hosts; best-of-3 absorbs the rest.
    #[test]
    fn group_commit_at_batch_256_is_at_least_5x() {
        let mut best = 0.0f64;
        for _ in 0..3 {
            let (base, grp) = measure_group_commit(8_000, 256);
            best = best.max(grp / base);
            if best >= 5.0 {
                break;
            }
        }
        assert!(best >= 5.0, "group-commit speedup {best:.2}× below 5×");
    }

    /// The PR's acceptance criterion: filters absorb ≥ 80% of absent-key
    /// run probes.
    #[test]
    fn bloom_filters_cut_point_get_probes_by_80_percent() {
        let (without, with, savings) = measure_bloom_savings(4_000, 2_000);
        assert!(without > 0);
        assert!(
            savings >= 0.8,
            "bloom savings {:.1}% below 80% ({} → {} probes)",
            savings * 100.0,
            without,
            with
        );
    }

    #[test]
    fn sharded_apply_model_is_positive_and_finite() {
        let recs = records(4_000);
        for shards in [1usize, 4] {
            let secs = measure_sharded_apply(&recs, shards, 512);
            assert!(secs.is_finite() && secs > 0.0);
        }
    }
}
