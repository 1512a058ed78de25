//! Heap allocations of a purchase-shaped transaction, counted.
//!
//! The flash-sale shape: 2 048 products and 2 048 buyers on a 2-shard
//! durable engine, products drawn Zipf(1.0), buyers uniformly, groups of
//! 8 purchases that begin on one snapshot and then commit in turn (first
//! committer wins). A purchase reads the product's `stock` and `revenue`
//! and the buyer's `gold`, and writes all three. Every allocation the
//! thread makes from a group's first `txn` to its last `commit_txn` is
//! counted by a counting global allocator. Keys and values are the
//! engine's types, so what a purchase allocates is its log record's
//! attribute names and a few buffers, not a key per read and per write.

mod common;

use common::allocations;
use metaverse_deluge::common::geom::Point;
use metaverse_deluge::common::id::EntityId;
use metaverse_deluge::common::time::SimTime;
use metaverse_deluge::core::{DurableMetaverse, EntityKind, MetaTxn};

const PRODUCTS: usize = 2_048;
const BUYERS: usize = 2_048;
const GROUP: usize = 8;
const WARM_GROUPS: usize = 500;
const MEASURED_GROUPS: usize = 2_000;
/// The most a purchase may allocate on average, begin to commit.
const BUDGET: f64 = 17.0;

/// `(product, buyer)` of every purchase: products Zipf(1.0) by inverse
/// CDF, buyers uniform, from one LCG.
fn purchases(n: usize) -> Vec<(usize, usize)> {
    let mut cdf: Vec<f64> = (1..=PRODUCTS).map(|k| 1.0 / k as f64).collect();
    for i in 1..cdf.len() {
        cdf[i] += cdf[i - 1];
    }
    let total = cdf[PRODUCTS - 1];
    let mut lcg = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (lcg >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| {
            let u = next() * total;
            let product = cdf.partition_point(|c| *c < u).min(PRODUCTS - 1);
            let buyer = ((next() * BUYERS as f64) as usize).min(BUYERS - 1);
            (product, buyer)
        })
        .collect()
}

#[test]
fn a_purchase_allocates_at_most_its_budget() {
    let now = SimTime::from_millis(1);
    let mut dm = DurableMetaverse::with_defaults(2);
    let mut spawn = |prefix: &str, n: usize| -> Vec<EntityId> {
        let spawned = (0..n).map(|i| dm.spawn(format!("{prefix}{i}"), EntityKind::Avatar, Point::new(i as f64, 0.0), now));
        spawned.collect()
    };
    let (products, buyers) = (spawn("product", PRODUCTS), spawn("buyer", BUYERS));
    dm.commit(now);
    let mut init = dm.txn(now);
    for &p in &products {
        init.write_attr(p, "stock", 1e9, now);
        init.write_attr(p, "revenue", 0.0, now);
    }
    for &b in &buyers {
        init.write_attr(b, "gold", 1e9, now);
    }
    dm.commit_txn(init, now).expect("the seeding transaction runs alone");

    let plan = purchases((WARM_GROUPS + MEASURED_GROUPS) * GROUP);
    let mut txns: Vec<MetaTxn> = Vec::with_capacity(GROUP);
    let (mut counted, mut committed) = (0u64, 0u64);
    for (g, group) in plan.chunks(GROUP).enumerate() {
        let now = SimTime::from_millis(2 + g as u64);
        let start = allocations();
        for _ in group {
            txns.push(dm.txn(now));
        }
        for (txn, &(p, b)) in txns.iter_mut().zip(group) {
            let (product, buyer) = (products[p], buyers[b]);
            let stock = dm.txn_read_attr(txn, product, "stock").unwrap_or(0.0);
            let revenue = dm.txn_read_attr(txn, product, "revenue").unwrap_or(0.0);
            let gold = dm.txn_read_attr(txn, buyer, "gold").unwrap_or(0.0);
            txn.write_attr(product, "stock", stock - 1.0, now);
            txn.write_attr(buyer, "gold", gold - 5.0, now);
            txn.write_attr(product, "revenue", revenue + 5.0, now);
        }
        for txn in txns.drain(..) {
            if dm.commit_txn(txn, now).is_ok() && g >= WARM_GROUPS {
                committed += 1;
            }
        }
        if g >= WARM_GROUPS {
            counted += allocations() - start;
        }
    }
    let per_purchase = counted as f64 / (MEASURED_GROUPS * GROUP) as f64;
    println!("{per_purchase:.2} allocations per purchase, {committed} of {} committed", MEASURED_GROUPS * GROUP);
    assert!(committed > 0 && committed < (MEASURED_GROUPS * GROUP) as u64, "some purchases win, some conflict");
    assert!(per_purchase <= BUDGET, "{per_purchase:.2} allocations per purchase, budget {BUDGET}");
}
