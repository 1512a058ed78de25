//! Criterion micro-benches for E6: MVCC commit cost and the distributed
//! simulation round — and for E25, one durable purchase commit against
//! stores of growing size.

use criterion::{criterion_group, criterion_main, Criterion};
use bytes::Bytes;
use mv_common::geom::Point;
use mv_common::time::{SimDuration, SimTime};
use mv_core::{DurableMetaverse, EntityKind};
use mv_txn::{CommitProtocol, DistributedSim, MvccStore, SimParams};

fn bench_mvcc(c: &mut Criterion) {
    let mut group = c.benchmark_group("mvcc");
    group.sample_size(20);
    group.bench_function("txn_commit_3_writes", |b| {
        let db = MvccStore::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let mut t = db.begin();
            for k in 0..3u64 {
                db.write(&mut t, Bytes::from(format!("k{}", (i * 3 + k) % 10_000)), Bytes::from_static(b"v"));
            }
            db.commit(t).expect("disjoint keys never conflict")
        })
    });
    group.bench_function("snapshot_read", |b| {
        let db = MvccStore::new();
        for i in 0..10_000u64 {
            let mut t = db.begin();
            db.write(&mut t, Bytes::from(format!("k{i}")), Bytes::from_static(b"v"));
            db.commit(t).expect("fresh keys");
        }
        let mut t = db.begin();
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 10_000;
            db.read(&mut t, format!("k{i}").as_bytes())
        })
    });
    group.finish();
}

/// One purchase-shaped `commit_txn` (three reads, three writes, two
/// entities) on a `DurableMetaverse` holding `pool` seeded version
/// chains: commit cost must not follow the store's size.
fn bench_durable_commit(c: &mut Criterion) {
    const PRODUCTS: usize = 4;
    let mut group = c.benchmark_group("durable_commit_txn");
    for pool in [64usize, 6_144, 65_536] {
        let mut dm = DurableMetaverse::with_defaults(4);
        let ids: Vec<_> = (0..pool)
            .map(|i| {
                let at = Point::new(i as f64, 0.0);
                dm.spawn(format!("e{i}"), EntityKind::Avatar, at, SimTime::from_millis(1))
            })
            .collect();
        dm.commit(SimTime::from_millis(1));
        let now = SimTime::from_millis(2);
        let mut init = dm.txn(now);
        for &id in &ids {
            init.write_attr(id, "gold", 1e9, now);
        }
        for &product in &ids[..PRODUCTS] {
            init.write_attr(product, "stock", 1e9, now);
            init.write_attr(product, "revenue", 0.0, now);
        }
        dm.commit_txn(init, now).expect("the seeding transaction runs alone");
        let mut i = 0usize;
        group.bench_function(format!("pool={pool}"), |b| {
            b.iter(|| {
                i += 1;
                let (product, buyer) = (ids[i % PRODUCTS], ids[PRODUCTS + i % (pool - PRODUCTS)]);
                let mut txn = dm.txn(now);
                let stock = dm.txn_read_attr(&mut txn, product, "stock").unwrap_or(0.0);
                let revenue = dm.txn_read_attr(&mut txn, product, "revenue").unwrap_or(0.0);
                let gold = dm.txn_read_attr(&mut txn, buyer, "gold").unwrap_or(0.0);
                txn.write_attr(product, "stock", stock - 1.0, now);
                txn.write_attr(product, "revenue", revenue + 5.0, now);
                txn.write_attr(buyer, "gold", gold - 5.0, now);
                dm.commit_txn(txn, now).expect("serial purchases never conflict")
            })
        });
    }
    group.finish();
}

fn bench_distributed(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributed_commit_sim");
    group.sample_size(10);
    for proto in CommitProtocol::ALL {
        group.bench_function(proto.name(), |b| {
            let sim = DistributedSim::new(SimParams {
                txns: 500,
                inter_dc_latency: SimDuration::from_millis(40),
                ..Default::default()
            });
            b.iter(|| sim.run(proto).committed)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mvcc, bench_durable_commit, bench_distributed);
criterion_main!(benches);
