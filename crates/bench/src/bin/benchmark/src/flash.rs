//! `flash_sale_txn`: the §IV-E "Black Friday" burst as serializable
//! transactions over the durable engine, one closed-loop client.
//!
//! `FlashSale::generate` gives the product of every purchase (Zipf 1.0
//! over 2 048 products); buyers are drawn uniformly from 2 048. Purchases
//! run in groups of 8 that all begin on one snapshot and then race through
//! `commit_txn` (first committer wins), the shape of E19. A purchase reads
//! the product's `stock` and `revenue` and the buyer's `gold`, and writes
//! `stock − 1`, `gold − price`, `revenue + price`. Every 4th group is
//! followed by 8 plain `update_attr` writes (`views`) on the same
//! products. The run ends with `crash_and_recover`.
//!
//! Prices and balances are whole numbers held in `f64`, so the
//! conservation checks are exact.

use crate::cospace::{fill_durable_counts, fill_recovery, SHARDS};
use crate::metrics::{quantile, ratio, Report, Steps};
use crate::trace::Tracer;
use crate::RunArgs;
use mv_common::geom::Point;
use mv_common::id::EntityId;
use mv_common::seeded_rng;
use mv_common::time::{SimDuration, SimTime};
use mv_core::{DurableMetaverse, EntityKind, MetaTxn};
use mv_workloads::marketplace::{FlashSale, MarketParams};
use rand::Rng;
use std::time::Instant;

const PRODUCTS: usize = 2_048;
const BUYERS: usize = 2_048;
/// Transactions per same-snapshot group.
const GROUP: usize = 8;
/// A plain-write round follows every this-many groups.
const PLAIN_EVERY: usize = 4;
const INITIAL_STOCK: f64 = 1e9;
const INITIAL_GOLD: f64 = 1e9;
/// Groups run on each instance before its measured phase.
const WARM_GROUPS: usize = 2_000;
/// Measured groups per second of `--seconds`, from timings on the 2-core
/// host.
const GROUPS_PER_SECOND: f64 = 3_000.0;

fn price(product: usize) -> f64 {
    1.0 + (product % 8) as f64
}

/// One purchase: which product, which buyer.
#[derive(Debug, Clone, Copy)]
struct Purchase {
    product: usize,
    buyer: usize,
}

struct Inputs {
    purchases: Vec<Purchase>,
    gen_s: f64,
    digest: u64,
}

fn generate(groups: usize, products: usize, buyers: usize, seed: u64) -> Inputs {
    let start = Instant::now();
    let wanted = (WARM_GROUPS.min(groups) + groups) * GROUP;
    // One long sale window at 10 000 requests per sim-second, a tenth
    // longer than the expected need so the stream never runs short.
    let secs = (wanted as f64 * 1.1 / 10_000.0).ceil() as u64 + 1;
    let sale = FlashSale::generate(&MarketParams {
        products,
        base_rate: 1_000.0,
        burst_multiplier: 10.0,
        sale_window: (SimTime::ZERO, SimTime::from_secs(secs)),
        duration: SimDuration::from_secs(secs),
        seed,
        ..Default::default()
    });
    assert!(
        sale.requests.len() >= wanted,
        "sale stream too short: {} < {wanted}",
        sale.requests.len()
    );
    let mut rng = seeded_rng(seed ^ 0xB0_7E25);
    let purchases: Vec<Purchase> = sale.requests[..wanted]
        .iter()
        .map(|r| Purchase {
            product: r.product,
            buyer: rng.gen_range(0..buyers),
        })
        .collect();
    let digest = mv_common::hash::fx_hash_one(
        &purchases
            .iter()
            .map(|p| (p.product, p.buyer))
            .collect::<Vec<_>>(),
    );
    Inputs {
        purchases,
        gen_s: start.elapsed().as_secs_f64(),
        digest,
    }
}

struct World {
    dm: DurableMetaverse,
    products: Vec<EntityId>,
    buyers: Vec<EntityId>,
    /// Committed purchases per product, counted by the client.
    sold: Vec<u64>,
    now_ms: u64,
}

fn build_world(products: usize, buyers: usize) -> World {
    let mut dm = DurableMetaverse::with_defaults(SHARDS);
    let now = SimTime::from_millis(1);
    let spawn = |dm: &mut DurableMetaverse, prefix: &str, n: usize| -> Vec<EntityId> {
        (0..n)
            .map(|i| {
                dm.spawn(
                    format!("{prefix}{i}"),
                    EntityKind::Avatar,
                    Point::new(i as f64, 0.0),
                    now,
                )
            })
            .collect()
    };
    let products = spawn(&mut dm, "product", products);
    let buyers = spawn(&mut dm, "buyer", buyers);
    dm.commit(now);
    // Seed balances transactionally so every key has a version chain.
    let now = SimTime::from_millis(2);
    let mut init = dm.txn(now);
    for &p in &products {
        init.write_attr(p, "stock", INITIAL_STOCK, now);
        init.write_attr(p, "revenue", 0.0, now);
    }
    for &b in &buyers {
        init.write_attr(b, "gold", INITIAL_GOLD, now);
    }
    dm.commit_txn(init, now)
        .expect("the seeding transaction runs alone");
    let sold = vec![0; products.len()];
    World {
        dm,
        products,
        buyers,
        sold,
        now_ms: 2,
    }
}

#[derive(Default)]
struct Acc {
    /// One step per group; a request is a committed transaction and its
    /// service the `commit_txn` call (aborted attempts are sampled too).
    steps: Steps,
    begun: u64,
    committed: u64,
    aborted: u64,
    plain_writes: u64,
    plain_errors: u64,
}

/// Run groups `[from, to)` of the purchase stream.
fn run_groups(
    w: &mut World,
    inputs: &Inputs,
    from: usize,
    to: usize,
    tr: &mut Tracer,
    acc: &mut Acc,
) {
    let mut txns: Vec<MetaTxn> = Vec::with_capacity(GROUP);
    for g in from..to {
        let group = &inputs.purchases[g * GROUP..(g + 1) * GROUP];
        w.now_ms += 1;
        let now = SimTime::from_millis(w.now_ms);
        tr.set_request(g as u64);
        let group_start = Instant::now();
        let root = tr.open("bench.txn_group");

        // The whole group begins on one snapshot, reads and buffers its
        // writes, and only then races through commit.
        let span = tr.open("core.txn.begin");
        txns.clear();
        for _ in group {
            txns.push(w.dm.txn(now));
        }
        tr.close_calls(span, GROUP as u64);

        let span = tr.open("core.txn.read");
        for (txn, p) in txns.iter_mut().zip(group) {
            let (product, buyer) = (w.products[p.product], w.buyers[p.buyer]);
            let stock = w.dm.txn_read_attr(txn, product, "stock").unwrap_or(0.0);
            let revenue = w.dm.txn_read_attr(txn, product, "revenue").unwrap_or(0.0);
            let gold = w.dm.txn_read_attr(txn, buyer, "gold").unwrap_or(0.0);
            txn.write_attr(product, "stock", stock - 1.0, now);
            txn.write_attr(buyer, "gold", gold - price(p.product), now);
            txn.write_attr(product, "revenue", revenue + price(p.product), now);
        }
        tr.close_calls(span, 3 * GROUP as u64);

        let span = tr.open("core.txn.commit");
        let mut committed = 0;
        for (txn, p) in txns.drain(..).zip(group) {
            let commit_start = Instant::now();
            let outcome = w.dm.commit_txn(txn, now);
            acc.steps
                .service(commit_start.elapsed().as_secs_f64() * 1e6);
            match outcome {
                Ok(_) => {
                    committed += 1;
                    w.sold[p.product] += 1;
                }
                Err(_) => acc.aborted += 1,
            }
        }
        tr.close_calls(span, GROUP as u64);
        acc.begun += GROUP as u64;

        if g % PLAIN_EVERY == PLAIN_EVERY - 1 {
            let span = tr.open("core.durable.update_attr");
            for p in group {
                acc.plain_writes += 1;
                if w.dm
                    .update_attr(w.products[p.product], "views", g as f64, now)
                    .is_err()
                {
                    acc.plain_errors += 1;
                }
            }
            tr.close_calls(span, GROUP as u64);
        }
        tr.close(root);
        acc.committed += committed;
        acc.steps
            .step(group_start.elapsed().as_secs_f64(), committed);
    }
}

fn prepare(inputs: &Inputs, products: usize, buyers: usize, warm: usize) -> World {
    let mut world = build_world(products, buyers);
    run_groups(
        &mut world,
        inputs,
        0,
        warm,
        &mut Tracer::new(false),
        &mut Acc::default(),
    );
    world
}

fn attr(dm: &DurableMetaverse, id: EntityId, name: &str) -> f64 {
    dm.engine()
        .entity(id)
        .ok()
        .and_then(|e| e.attrs.get(name).copied())
        .unwrap_or(f64::NAN)
}

/// Σ(gold + revenue) is conserved and each product's stock dropped by its
/// committed purchases. `when` names the moment for the failure note.
fn check_books(w: &World, when: &str, ops: u64, report: &mut Report) {
    let gold: f64 = w.buyers.iter().map(|&b| attr(&w.dm, b, "gold")).sum();
    let revenue: f64 = w.products.iter().map(|&p| attr(&w.dm, p, "revenue")).sum();
    let expected = INITIAL_GOLD * w.buyers.len() as f64;
    if gold + revenue != expected {
        report.fail(
            ops,
            format!("{when}: gold {gold} + revenue {revenue} != {expected}"),
        );
    }
    let wrong = w
        .products
        .iter()
        .zip(&w.sold)
        .filter(|(p, sold)| attr(&w.dm, **p, "stock") != INITIAL_STOCK - **sold as f64)
        .count();
    if wrong > 0 {
        report.fail(
            ops,
            format!("{when}: {wrong} products' stock drop differs from their committed purchases"),
        );
    }
}

/// Crash, recover, and check the digest and the books came back.
fn recover_and_check(w: &mut World, before: u64, ops: u64, report: &mut Report) -> (f64, u64) {
    let start = Instant::now();
    let recovery = w.dm.crash_and_recover();
    let recover_s = start.elapsed().as_secs_f64();
    let after = w.dm.state_digest();
    if after != before {
        report.fail(
            ops,
            format!("state digest {before:016x} became {after:016x} across crash_and_recover"),
        );
    }
    check_books(w, "after recovery", ops, report);
    (recover_s, recovery.replayed as u64)
}

pub fn run(args: &RunArgs) -> Report {
    let (groups, products, buyers) = if args.smoke {
        (400, PRODUCTS / 20, BUYERS / 20)
    } else {
        (
            (GROUPS_PER_SECOND * args.seconds as f64).round() as usize,
            PRODUCTS,
            BUYERS,
        )
    };
    let warm = WARM_GROUPS.min(groups);
    let mut report = Report::default();

    let ((mut world, inputs), setup_s) = crate::set_up_repeatedly(|| {
        let inputs = generate(groups, products, buyers, args.seed);
        (prepare(&inputs, products, buyers, warm), inputs)
    });
    report.set("setup_s", setup_s);
    report.set("workloads.gen_s", inputs.gen_s);
    report.digests.insert("inputs", inputs.digest);

    let mut acc = Acc::default();
    run_groups(
        &mut world,
        &inputs,
        warm,
        warm + groups,
        &mut Tracer::new(false),
        &mut acc,
    );
    report.attempted = acc.begun + acc.plain_writes;
    if acc.plain_errors > 0 {
        report.fail(
            acc.plain_errors,
            format!("{} plain writes were refused", acc.plain_errors),
        );
    }
    // Make the tail of plain writes durable before the crash.
    world.dm.commit(SimTime::from_millis(world.now_ms));
    check_books(&world, "before recovery", acc.begun, &mut report);
    let digest = world.dm.state_digest();
    report.digests.insert("state", digest);

    acc.steps.report("transactions committed", &mut report);
    report.set(
        "txn_commit_us_p99",
        quantile(&mut acc.steps.service_us().to_vec(), 0.99),
    );
    report.set(
        "txn_abort_share",
        ratio(acc.aborted as f64, acc.begun as f64),
    );

    fill_durable_counts(&world.dm, products + buyers, &mut report);
    for name in [
        "begun",
        "committed",
        "aborted_conflict",
        "single_shard_commits",
        "cross_shard_commits",
        "commit_syncs",
        "prepares_logged",
        "decisions_logged",
        "plain_versions",
        "gc_versions_auto",
    ] {
        report.set(
            &format!("core.txn.{name}"),
            world.dm.txn_stats().get(name) as f64,
        );
    }
    report.set(
        "core.txn.useful_share",
        ratio(
            world.dm.txn_stats().get("committed") as f64,
            world.dm.txn_stats().get("begun") as f64,
        ),
    );

    let (recover_s, replayed) = recover_and_check(&mut world, digest, acc.begun, &mut report);
    fill_recovery(recover_s, replayed, &mut report);
    report.set(
        "core.txn.recovered_commits",
        world.dm.txn_stats().get("recovered_commits") as f64,
    );
    report.set(
        "core.txn.indoubt_aborted",
        world.dm.txn_stats().get("indoubt_aborted") as f64,
    );

    if args.trace {
        drop(world);
        let mut traced_world = prepare(&inputs, products, buyers, warm);
        let mut tracer = Tracer::new(true);
        let mut traced = Acc::default();
        run_groups(
            &mut traced_world,
            &inputs,
            warm,
            warm + groups,
            &mut tracer,
            &mut traced,
        );
        traced_world
            .dm
            .commit(SimTime::from_millis(traced_world.now_ms));
        if traced_world.dm.state_digest() != digest {
            report.fail(
                traced.begun,
                "traced run ended in a different state than the untraced run".into(),
            );
        }
        report.set(
            "bench.trace_overhead_share",
            ratio(
                traced.steps.wall_s() - acc.steps.wall_s(),
                acc.steps.wall_s(),
            ),
        );
        for (metric, span) in [
            ("core.txn.begin_ns", "core.txn.begin"),
            ("core.txn.read_ns", "core.txn.read"),
            ("core.txn.commit_ns", "core.txn.commit"),
        ] {
            let (total_s, calls) = tracer.total(span);
            report.set(metric, ratio(total_s * 1e9, calls as f64));
        }
        crate::write_spans(args, &tracer);
        crate::print_self_times(&tracer);
    }
    report.set("peak_rss_mb", crate::metrics::peak_rss_mb());
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(seed: u64) -> RunArgs {
        RunArgs {
            workload: "flash_sale_txn".into(),
            seed,
            seconds: 1,
            trace: false,
            smoke: true,
            spans_dir: None,
        }
    }

    #[test]
    fn same_seed_repeats_counts_and_digests_and_another_seed_differs() {
        let a = run(&smoke(11));
        let b = run(&smoke(11));
        let c = run(&smoke(12));
        assert!(a.correct(), "{:?}", a.failures);
        assert_eq!(a.digests, b.digests);
        for name in [
            "txn_abort_share",
            "core.txn.committed",
            "stored_bytes_per_entity",
        ] {
            assert_eq!(a.get(name), b.get(name), "{name}");
        }
        assert!(
            a.get("txn_abort_share").expect("set") > 0.0,
            "same-snapshot groups must collide"
        );
        assert_ne!(a.digests["inputs"], c.digests["inputs"]);
    }

    #[test]
    fn traced_and_untraced_runs_end_in_the_same_state() {
        let report = run(&RunArgs {
            trace: true,
            ..smoke(11)
        });
        assert!(report.correct(), "{:?}", report.failures);
        assert!(report.get("core.txn.commit_ns").expect("set") > 0.0);
    }

    fn small_world() -> (World, Inputs) {
        let inputs = generate(50, 16, 16, 11);
        let mut world = build_world(16, 16);
        run_groups(
            &mut world,
            &inputs,
            0,
            50,
            &mut Tracer::new(false),
            &mut Acc::default(),
        );
        world.dm.commit(SimTime::from_millis(world.now_ms));
        (world, inputs)
    }

    #[test]
    fn a_write_outside_the_books_trips_the_conservation_check() {
        let (mut world, _) = small_world();
        let mut clean = Report::default();
        check_books(&world, "clean", 1, &mut clean);
        assert!(clean.correct(), "{:?}", clean.failures);
        let now = SimTime::from_millis(world.now_ms + 1);
        world
            .dm
            .update_attr(world.buyers[0], "gold", 5.0, now)
            .expect("live entity");
        let mut report = Report::default();
        check_books(&world, "tampered", 7, &mut report);
        assert!(!report.correct());
        assert_eq!(report.failed, 7);
    }

    #[test]
    fn a_miscounted_sale_trips_the_stock_check() {
        let (mut world, _) = small_world();
        world.sold[0] += 1;
        let mut report = Report::default();
        check_books(&world, "miscounted", 1, &mut report);
        assert!(report.failures[0].contains("stock"));
    }

    #[test]
    fn a_flipped_wal_bit_trips_the_recovery_digest_check() {
        let (mut world, _) = small_world();
        let before = world.dm.state_digest();
        let middle = world.dm.wal.encoded_len() / 2;
        assert!(world.dm.wal.inject_bit_flip(middle, 3));
        let mut report = Report::default();
        recover_and_check(&mut world, before, 9, &mut report);
        assert!(!report.correct());
        assert!(report.failed >= 9);
    }
}
