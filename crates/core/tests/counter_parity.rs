//! Counter parity: the counters a region and a transaction script report
//! are pinned name by name and value by value.
//!
//! A fixed-seed 3-replica region is driven through a leader crash, a
//! wipe-restart of a follower and a minority partition, with client
//! submits between ticks; its assembled registry's whole counter list is
//! compared with a literal. A flash-sale-shaped transaction script (groups
//! of same-snapshot purchases on Zipf-hot products, an explicit abort, a
//! refused write, a read-only commit, then a crash in doubt and recovery)
//! is checked the same way through `txn_stats()`. The literals were taken
//! when each component still wrote through a shared registry, so a
//! counter dropped, renamed or counted twice on the way to one registry
//! fails here.

use mv_common::geom::Point;
use mv_common::id::{EntityId, NodeId};
use mv_common::time::SimTime;
use mv_core::durable::DurableOp;
use mv_core::{DurableMetaverse, EntityKind, MetaTxn, RegionConfig, ReplicatedMetaverse, TxnCrashPoint};
use mv_net::fault::{apply, Fault};

const SEED: u64 = 49;
const END_MS: u64 = 7_000;

fn region_counters(w: &ReplicatedMetaverse) -> Vec<(String, u64)> {
    w.registry().counters().map(|(n, v)| (n.to_string(), v)).collect()
}

fn counter(w: &ReplicatedMetaverse, name: &str) -> u64 {
    w.registry().counter_get(name)
}

fn txn_counters(dm: &DurableMetaverse) -> Vec<(String, u64)> {
    dm.txn_stats().iter().map(|(n, v)| (n.to_string(), v)).collect()
}

fn pairs(list: &[(&str, u64)]) -> Vec<(String, u64)> {
    list.iter().map(|(n, v)| (n.to_string(), *v)).collect()
}

/// The region script. Every fault lands between two ticks and is read
/// back before the next one, as is one submit in ten.
fn run_region() -> ReplicatedMetaverse {
    let mut w = ReplicatedMetaverse::new(RegionConfig::default(), SEED);
    let mut crashed: Option<NodeId> = None;
    let mut wiped: Option<NodeId> = None;
    let mut writes = 0u64;
    for ms in 0..=END_MS {
        let now = SimTime::from_millis(ms);
        w.tick(now);
        match ms {
            1_500 => {
                let leader = w.leader().expect("a leader by 1.5 s");
                let (crashes, faults) = (counter(&w, "raft.node.crashes"), counter(&w, "net.network.faults_node_crash"));
                apply(&mut w, &Fault::Crash { node: leader });
                assert_eq!(counter(&w, "raft.node.crashes"), crashes + 1, "a crash is visible before the next tick");
                assert_eq!(counter(&w, "net.network.faults_node_crash"), faults + 1);
                crashed = Some(leader);
            }
            2_200 => {
                let node = crashed.take().expect("crashed at 1.5 s");
                apply(&mut w, &Fault::Restart { node });
                assert!(counter(&w, "raft.node.restarts") >= 1);
            }
            2_800 => {
                let leader = w.leader().expect("a leader after the restart");
                let follower = *w.members().iter().find(|&&m| m != leader).expect("3 replicas");
                w.set_wipe_on_crash(follower, true);
                apply(&mut w, &Fault::Crash { node: follower });
                wiped = Some(follower);
            }
            3_400 => {
                let node = wiped.take().expect("wiped at 2.8 s");
                apply(&mut w, &Fault::Restart { node });
                assert!(counter(&w, "raft.node.wipes") >= 1, "a wipe is visible before the next tick");
            }
            4_200 => {
                let healed = counter(&w, "net.network.faults_severed");
                assert!(w.partition_minority_with_leader().is_some());
                assert_eq!(counter(&w, "net.network.faults_severed"), healed + 1);
            }
            4_900 => w.heal_partition(),
            _ => {}
        }
        if (500..6_500).contains(&ms) && ms % 10 == 0 {
            let op = DurableOp::Spawn {
                name: format!("w{writes}"),
                kind: EntityKind::Avatar,
                position: Point::new(writes as f64, 0.0),
                ts: now,
            };
            let attempts = counter(&w, "core.replicated.submit_attempts");
            if w.submit(&op, now).is_some() {
                writes += 1;
            }
            if ms % 100 == 0 {
                assert_eq!(counter(&w, "core.replicated.submit_attempts"), attempts + 1, "a submit is visible at once");
            }
        }
    }
    assert!(w.violations().is_empty(), "{:?}", w.violations());
    w
}

#[test]
fn region_counters_are_pinned() {
    let w = run_region();
    let expected = pairs(&REGION);
    assert_eq!(region_counters(&w), expected);
    // Same seed, same counters.
    assert_eq!(region_counters(&run_region()), expected);
}

const PRODUCTS: usize = 64;
const BUYERS: usize = 64;
const GROUP: usize = 8;
const GROUPS: usize = 40;

/// `(product, buyer)` of every purchase: products Zipf(1.0) by inverse
/// CDF, buyers uniform, from one LCG.
fn purchases(n: usize) -> Vec<(usize, usize)> {
    let mut cdf: Vec<f64> = (1..=PRODUCTS).map(|k| 1.0 / k as f64).collect();
    for i in 1..cdf.len() {
        cdf[i] += cdf[i - 1];
    }
    let total = cdf[PRODUCTS - 1];
    let mut lcg = 0x0049_0049_0049_0049u64;
    let mut next = move || {
        lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (lcg >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| {
            let product = cdf.partition_point(|c| *c < next() * total).min(PRODUCTS - 1);
            let buyer = ((next() * BUYERS as f64) as usize).min(BUYERS - 1);
            (product, buyer)
        })
        .collect()
}

/// One purchase: read the product's stock and revenue and the buyer's
/// gold, write all three.
fn buy(dm: &DurableMetaverse, txn: &mut MetaTxn, product: EntityId, buyer: EntityId, now: SimTime) {
    let stock = dm.txn_read_attr(txn, product, "stock").unwrap_or(0.0);
    let revenue = dm.txn_read_attr(txn, product, "revenue").unwrap_or(0.0);
    let gold = dm.txn_read_attr(txn, buyer, "gold").unwrap_or(0.0);
    txn.write_attr(product, "stock", stock - 1.0, now);
    txn.write_attr(buyer, "gold", gold - 5.0, now);
    txn.write_attr(product, "revenue", revenue + 5.0, now);
}

#[test]
fn txn_counters_are_pinned() {
    let now = SimTime::from_millis(1);
    let mut dm = DurableMetaverse::with_defaults(2);
    let mut spawn = |prefix: &str, n: usize| -> Vec<EntityId> {
        (0..n).map(|i| dm.spawn(format!("{prefix}{i}"), EntityKind::Avatar, Point::new(i as f64, 0.0), now)).collect()
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

    let mut txns: Vec<MetaTxn> = Vec::with_capacity(GROUP);
    for (g, group) in purchases(GROUPS * GROUP).chunks(GROUP).enumerate() {
        let now = SimTime::from_millis(2 + g as u64);
        for _ in group {
            txns.push(dm.txn(now));
        }
        for (txn, &(p, b)) in txns.iter_mut().zip(group) {
            buy(&dm, txn, products[p], buyers[b], now);
        }
        // A plain write lands while the group's snapshot is live.
        dm.update_attr(products[g % PRODUCTS], "views", g as f64, now).expect("a live product");
        for txn in txns.drain(..) {
            let _ = dm.commit_txn(txn, now);
        }
    }
    let now = SimTime::from_millis(100);
    let mut explicit = dm.txn(now);
    buy(&dm, &mut explicit, products[0], buyers[0], now);
    dm.abort_txn(explicit, now);
    let mut reader = dm.txn(now);
    let _ = dm.txn_read_attr(&mut reader, products[1], "stock");
    dm.commit_txn(reader, now).expect("a read-only commit");
    dm.apply(&DurableOp::Retire { id: buyers[BUYERS - 1], ts: now }, None).expect("a live buyer");
    let mut refused = dm.txn(now);
    buy(&dm, &mut refused, products[2], buyers[BUYERS - 1], now);
    assert!(dm.commit_txn(refused, now).is_err(), "a write to a retired buyer");
    assert_eq!(txn_counters(&dm), pairs(&TXN_BEFORE_CRASH));

    // A cross-shard purchase crashes in doubt; recovery aborts it and
    // counts what the log after the image holds.
    let mut doubt = dm.txn(now);
    let (product, buyer) = (0..PRODUCTS)
        .flat_map(|p| (0..BUYERS - 1).map(move |b| (p, b)))
        .map(|(p, b)| (products[p], buyers[b]))
        .find(|(p, b)| p.raw() % 2 != b.raw() % 2)
        .expect("entities on both shards");
    buy(&dm, &mut doubt, product, buyer, now);
    assert_eq!(dm.commit_txn_crashing(doubt, now, Some(TxnCrashPoint::AfterPrepareSync)), Ok(None));
    dm.crash_and_recover();
    for g in 0..4u64 {
        let now = SimTime::from_millis(200 + g);
        for (p, b) in [(0, 1), (1, 2), (2, 3), (0, 4)] {
            let mut txn = dm.txn(now);
            buy(&dm, &mut txn, products[p + g as usize], buyers[b], now);
            dm.commit_txn(txn, now).expect("purchases one at a time never conflict");
        }
    }
    assert_eq!(txn_counters(&dm), pairs(&TXN_AFTER_RECOVERY));
}

/// The region's counters after [`run_region`].
const REGION: [(&str, u64); 39] = [
    ("core.replicated.acks", 507),
    ("core.replicated.leader_changes", 3),
    ("core.replicated.submit_attempts", 600),
    ("core.replicated.submit_unavailable", 21),
    ("net.network.bytes_sent", 180174),
    ("net.network.faults_healed", 1),
    ("net.network.faults_node_crash", 2),
    ("net.network.faults_node_restart", 2),
    ("net.network.faults_severed", 1),
    ("net.network.msgs_sent", 4591),
    ("net.transport.ack_unreachable", 3),
    ("net.transport.acked", 2291),
    ("net.transport.acks_sent", 2296),
    ("net.transport.data_unreachable", 228),
    ("net.transport.delivered", 2296),
    ("net.transport.dropped_dst_down", 2),
    ("net.transport.endpoint_resets", 2),
    ("net.transport.expired", 69),
    ("net.transport.retransmits", 163),
    ("net.transport.sent", 2363),
    ("net.transport.transmissions", 2526),
    ("raft.node.appends_sent", 978),
    ("raft.node.client_appends", 579),
    ("raft.node.commit_advances", 898),
    ("raft.node.compactions", 47),
    ("raft.node.crashes", 2),
    ("raft.node.elections_started", 3),
    ("raft.node.entries_accepted", 1106),
    ("raft.node.entries_committed", 513),
    ("raft.node.entries_sent", 2291),
    ("raft.node.heartbeats_sent", 229),
    ("raft.node.leaders_elected", 3),
    ("raft.node.restarts", 2),
    ("raft.node.snapshots_installed", 1),
    ("raft.node.snapshots_sent", 1),
    ("raft.node.step_downs", 1),
    ("raft.node.votes_granted", 4),
    ("raft.node.wal_records", 1815),
    ("raft.node.wipes", 1),
];

/// `core.txn.*` before the crash.
const TXN_BEFORE_CRASH: [(&str, u64); 14] = [
    ("aborted_conflict", 62),
    ("aborted_explicit", 1),
    ("aborted_refused", 1),
    ("begun", 324),
    ("commit_syncs", 381),
    ("committed", 260),
    ("cross_shard_commits", 122),
    ("decisions_logged", 259),
    ("gc_chains_visited", 774),
    ("gc_versions_auto", 774),
    ("plain_versions", 40),
    ("prepares_logged", 381),
    ("readonly_commits", 1),
    ("single_shard_commits", 137),
];

/// `core.txn.*` after recovery: it starts them at zero and counts the
/// log after the restored image.
const TXN_AFTER_RECOVERY: [(&str, u64); 12] = [
    ("begun", 16),
    ("commit_syncs", 28),
    ("committed", 16),
    ("cross_shard_commits", 12),
    ("decisions_logged", 16),
    ("gc_chains_visited", 48),
    ("gc_versions_auto", 48),
    ("indoubt_aborted", 1),
    ("plain_versions", 40),
    ("prepares_logged", 28),
    ("recovered_commits", 259),
    ("single_shard_commits", 4),
];
