//! E6 — decentralized transactions (§IV-E1), and E19 — the *real*
//! cross-shard MVCC commit path over the durable engine.
//!
//! E6 claims reproduced: inter-DC latency dominates commit cost; the
//! single-round protocol (Carousel-style, \[86\]) halves latency vs. 2PC
//! and, because locks are held for a shorter window, aborts less under
//! contention.
//!
//! E19 measures the engine path that `tests/txn_differential.rs`
//! proves correct: snapshot-begin / serializable-validate / 2PC over
//! the group-commit WAL. Cross-shard commits pay two WAL syncs
//! (prepare barrier + decision); single-shard commits take the
//! one-sync fast path — the same 2:1 round structure E6's
//! `DistributedSim` models at WAN scale.

use mv_common::hash::fx_hash_one;
use mv_common::sample::Zipf;
use mv_common::table::{f2, n, pct, Table};
use mv_common::time::SimDuration;
use mv_txn::{CommitProtocol, DistributedSim, SimParams};

/// Run E6.
pub fn e6() -> Vec<Table> {
    let mut lat_t = Table::new(
        "E6a: commit latency vs. inter-DC RTT (3 DCs, 3 keys/txn, low contention)",
        &["one_way_ms", "protocol", "p50_ms", "p99_ms", "abort_rate"],
    );
    for &ms in &[5u64, 20, 40, 120] {
        for proto in CommitProtocol::ALL {
            let sim = DistributedSim::new(SimParams {
                inter_dc_latency: SimDuration::from_millis(ms),
                zipf_alpha: 0.2,
                keys: 100_000,
                mean_interarrival_us: 5_000.0,
                seed: 6,
                ..Default::default()
            });
            let mut r = sim.run(proto);
            lat_t.row(&[
                n(ms),
                proto.name().into(),
                f2(r.latency_ms.p50()),
                f2(r.latency_ms.p99()),
                pct(r.abort_rate()),
            ]);
        }
    }

    let mut cont_t = Table::new(
        "E6b: contention interaction (40 ms one-way, zipf sweep over 2k keys)",
        &["zipf_alpha", "protocol", "committed", "aborted", "abort_rate"],
    );
    for &alpha in &[0.4f64, 0.8, 1.2] {
        for proto in CommitProtocol::ALL {
            let sim = DistributedSim::new(SimParams {
                zipf_alpha: alpha,
                keys: 2_000,
                mean_interarrival_us: 2_000.0,
                seed: 6,
                ..Default::default()
            });
            let r = sim.run(proto);
            cont_t.row(&[
                f2(alpha),
                proto.name().into(),
                n(r.committed),
                n(r.aborted),
                pct(r.abort_rate()),
            ]);
        }
    }
    vec![lat_t, cont_t, e6c_partition()]
}

/// E6c: network partitions (§IV-E1 "due to the network partition…"):
/// availability of single-DC vs. cross-DC transactions while one DC is
/// cut off.
fn e6c_partition() -> Table {
    use mv_common::table::pct;
    use mv_common::time::SimTime;
    use mv_net::topology::MultiDcTopology;
    use rand::Rng;
    let mut t = Table::new(
        "E6c: availability under a partition (3 DCs, DC2 severed; 1000 txns, keys uniform over DCs)",
        &["keys_per_txn", "txns_unaffected", "txns_blocked", "availability"],
    );
    for &keys_per_txn in &[1usize, 2, 3] {
        let mut topo = MultiDcTopology::build(3, 0, mv_common::time::SimDuration::from_millis(40));
        // DC 2 is partitioned away.
        topo.net.sever(0, 2);
        topo.net.sever(1, 2);
        let mut rng = mv_common::seeded_rng(66);
        let mut ok = 0u64;
        let mut blocked = 0u64;
        for _ in 0..1_000 {
            let client_dc = rng.gen_range(0..3usize);
            let participant_dcs: Vec<usize> =
                (0..keys_per_txn).map(|_| rng.gen_range(0..3)).collect();
            // A txn can commit iff the client can reach every participant.
            let reachable = participant_dcs.iter().all(|&p| {
                p == client_dc
                    || topo
                        .net
                        .transfer(
                            topo.coordinators[client_dc],
                            topo.coordinators[p],
                            64,
                            SimTime::ZERO,
                            &mut rng,
                        )
                        .is_ok()
            });
            if reachable {
                ok += 1;
            } else {
                blocked += 1;
            }
        }
        t.row(&[
            n(keys_per_txn as u64),
            n(ok),
            n(blocked),
            pct(ok as f64 / 1000.0),
        ]);
    }
    t
}

/// One measured E19 cell.
#[derive(Debug, Clone, Copy)]
pub struct E19Cell {
    /// Transactions attempted.
    pub offered: u64,
    /// Transactions that validated and committed.
    pub committed: u64,
    /// First-committer-wins / serializable-read aborts.
    pub aborted: u64,
    /// Fraction of commits whose write set spanned >1 KV shard.
    pub cross_share: f64,
    /// Modelled mean commit latency (µs): one WAL sync for
    /// single-shard commits, two for cross-shard, at
    /// [`crate::exp_durable::SYNC_LATENCY_US`] each.
    pub mean_commit_us: f64,
    /// Chains the automatic collector visited (`core.txn.gc_chains_visited`).
    pub gc_visited: u64,
    /// Versions it dropped (`core.txn.gc_versions_auto`).
    pub gc_dropped: u64,
    /// Engine bytes ⊕ MVCC chain digest — the determinism witness.
    pub digest: u64,
}

/// Run one E19 cell: `groups` rounds of `GROUP` interleaved zipf(0.9)
/// gold transfers against a `DurableMetaverse` with `shards` shards
/// and `pool` hot entities. Every transaction in a round begins on the
/// same snapshot before any of them commits, so overlapping write sets
/// conflict and serializable read validation gets exercised — the
/// abort rate is a real contention measurement, not a model.
pub fn e19_cell(shards: usize, pool: usize, groups: usize, seed: u64) -> E19Cell {
    use mv_common::geom::Point;
    use mv_common::time::SimTime;
    use mv_core::{DurableMetaverse, EntityKind};
    use rand::Rng;
    const GROUP: usize = 8;

    let mut dm = DurableMetaverse::new(
        shards,
        shards,
        mv_storage::KvConfig::default(),
        // Explicit-sync-only WAL: every sync E19 charges for is one the
        // commit path itself issued.
        mv_storage::GroupCommitPolicy::by_records(1_000_000),
    );
    let mut now_ms = 1u64;
    let ids: Vec<_> = (0..pool)
        .map(|i| {
            dm.spawn(
                format!("p{i}"),
                EntityKind::Avatar,
                Point::new(i as f64, 0.0),
                SimTime::from_millis(now_ms),
            )
        })
        .collect();
    dm.commit(SimTime::from_millis(now_ms));
    now_ms += 1;
    // Seed the gold transactionally so every balance lives in a version
    // chain from the start.
    let mut init = dm.txn(SimTime::from_millis(now_ms));
    for &id in &ids {
        init.write_attr(id, "gold", 1_000.0, SimTime::from_millis(now_ms));
    }
    dm.commit_txn(init, SimTime::from_millis(now_ms))
        .expect("seed txn runs alone");
    let base_single = dm.txn_stats().get("single_shard_commits");
    let base_cross = dm.txn_stats().get("cross_shard_commits");

    let zipf = Zipf::new(pool, 0.9);
    let mut rng = mv_common::seeded_rng(seed);
    let (mut committed, mut aborted) = (0u64, 0u64);
    for _ in 0..groups {
        now_ms += 1;
        let now = SimTime::from_millis(now_ms);
        // Begin the whole group on one snapshot generation...
        let mut batch = Vec::new();
        for _ in 0..GROUP {
            let mut txn = dm.txn(now);
            let from = ids[zipf.sample(&mut rng) % pool];
            let to = ids[zipf.sample(&mut rng) % pool];
            let amt = 1.0 + rng.gen_range(0..8) as f64;
            let a = dm.txn_read_attr(&mut txn, from, "gold").unwrap_or(0.0);
            if from == to {
                txn.write_attr(from, "gold", a, now);
            } else {
                let b = dm.txn_read_attr(&mut txn, to, "gold").unwrap_or(0.0);
                txn.write_attr(from, "gold", a - amt, now);
                txn.write_attr(to, "gold", b + amt, now);
            }
            batch.push(txn);
        }
        // ...then race them through commit: first committer wins.
        for txn in batch {
            match dm.commit_txn(txn, now) {
                Ok(_) => committed += 1,
                Err(_) => aborted += 1,
            }
        }
    }

    let single = dm.txn_stats().get("single_shard_commits") - base_single;
    let cross = dm.txn_stats().get("cross_shard_commits") - base_cross;
    let done = (single + cross).max(1);
    E19Cell {
        offered: (groups * GROUP) as u64,
        committed,
        aborted,
        cross_share: cross as f64 / done as f64,
        mean_commit_us: (single as f64 + 2.0 * cross as f64)
            * crate::exp_durable::SYNC_LATENCY_US
            / done as f64,
        gc_visited: dm.txn_stats().get("gc_chains_visited"),
        gc_dropped: dm.txn_stats().get("gc_versions_auto"),
        digest: fx_hash_one(&dm.state_encoding()) ^ dm.txn_digest(),
    }
}

/// Run E19.
pub fn e19() -> Vec<Table> {
    let mut t = Table::new(
        "E19: durable MVCC commit — abort rate and modelled latency vs. contention × shard count \
         (zipf 0.9, groups of 8 same-snapshot txns, sync = 20 µs)",
        &[
            "shards",
            "keys",
            "offered",
            "committed",
            "aborted",
            "abort_rate",
            "cross_shard",
            "mean_commit_us",
            "gc_visited",
            "gc_dropped",
            "digest",
        ],
    );
    for &shards in &[1usize, 2, 4, 8] {
        for &pool in &[8usize, 64, 512] {
            let c = e19_cell(shards, pool, 250, 19);
            t.row(&[
                n(shards as u64),
                n(pool as u64),
                n(c.offered),
                n(c.committed),
                n(c.aborted),
                pct(c.aborted as f64 / c.offered as f64),
                pct(c.cross_share),
                f2(c.mean_commit_us),
                n(c.gc_visited),
                n(c.gc_dropped),
                format!("{:016x}", c.digest),
            ]);
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn tables_cover_both_protocols() {
        let tables = super::e6();
        let rendered = tables[0].render();
        assert!(rendered.contains("2pc") && rendered.contains("single-round"));
    }

    #[test]
    fn e19_is_deterministic_across_runs() {
        let a = super::e19_cell(4, 64, 40, 19);
        let b = super::e19_cell(4, 64, 40, 19);
        assert_eq!(a.digest, b.digest, "same seed, same bytes");
        assert_eq!((a.committed, a.aborted), (b.committed, b.aborted));
        assert!(a.committed + a.aborted == a.offered);
        assert!(a.aborted > 0, "same-snapshot groups must collide sometimes");
    }

    #[test]
    fn e19_contention_and_sharding_move_the_right_way() {
        // Hotter pool → more aborts.
        let hot = super::e19_cell(4, 8, 60, 7);
        let cold = super::e19_cell(4, 512, 60, 7);
        assert!(
            hot.aborted > cold.aborted,
            "8-key pool ({}) must abort more than 512-key pool ({})",
            hot.aborted,
            cold.aborted
        );
        // One shard → everything is a fast-path commit at 1 sync.
        let one = super::e19_cell(1, 64, 40, 7);
        assert!(one.cross_share == 0.0);
        assert!((one.mean_commit_us - crate::exp_durable::SYNC_LATENCY_US).abs() < 1e-9);
        // More shards → more cross-shard commits → pricier mean commit.
        let many = super::e19_cell(8, 64, 40, 7);
        assert!(many.cross_share > 0.5, "8 shards: most 2-key txns span shards");
        assert!(many.mean_commit_us > one.mean_commit_us);
    }
}
