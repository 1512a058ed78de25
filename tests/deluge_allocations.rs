//! Heap allocations of the durable deluge tick's `apply_batch`, counted.
//!
//! The `deluge_ingest` shape: 100 000 entities on a 2-shard durable
//! engine grouping 256 records per log batch, fed the seed-11 deluge
//! trace (2 000 writes a tick, a quarter of them attribute writes, with
//! flash-crowd bursts of 4× two ticks in every eight). Each tick stages
//! its writes, then runs `apply_batch` and `commit`. Shards apply in turn
//! on the calling thread (`set_parallel_apply(false)`), so the counting
//! allocator sees every allocation the batch makes; ticks 50–199 are
//! counted, after the grids and the log have grown to their working size.

mod common;

use common::allocations;
use metaverse_deluge::common::time::{SimDuration, SimTime};
use metaverse_deluge::core::{DurableMetaverse, WriteOp};
use metaverse_deluge::storage::{GroupCommitPolicy, KvConfig};
use metaverse_deluge::workloads::deluge::{self, DelugeOp, DelugeParams, ATTR_NAMES};

const ENTITIES: usize = 100_000;
const TICKS: u64 = 200;
const COUNTED_FROM: usize = 50;
/// The most an op may allocate in `apply_batch`, on average.
const BUDGET: f64 = 0.25;

#[test]
fn a_deluge_tick_allocates_at_most_its_budget() {
    let trace = deluge::generate(&DelugeParams {
        entities: ENTITIES,
        ticks: TICKS,
        ops_per_tick: 2_000,
        attr_fraction: 0.25,
        burst_every: 8,
        seed: 11,
        ..Default::default()
    });
    let mut dm = DurableMetaverse::new(
        2,
        2,
        KvConfig::default(),
        GroupCommitPolicy::by_records(256),
    );
    dm.set_parallel_apply(false);
    for (name, kind, p) in &trace.spawns {
        dm.spawn(name.clone(), *kind, *p, SimTime::ZERO);
    }
    dm.commit(SimTime::ZERO);
    let ids = dm.ids();
    let tick_us = trace.params.tick.as_micros();
    let mut writes: Vec<WriteOp> = Vec::new();
    let (mut counted, mut ops, mut refused) = (0u64, 0u64, 0usize);
    for (t, tick) in trace.ticks.iter().enumerate() {
        // Op i arrives spread uniformly across the tick.
        let nops = tick.ops.len().max(1) as u64;
        writes.clear();
        writes.extend(tick.ops.iter().enumerate().map(|(i, op)| {
            let ts = tick.start + SimDuration::from_micros(i as u64 * tick_us / nops);
            match *op {
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
            }
        }));
        let start = allocations();
        let results = dm.apply_batch(&writes);
        if t >= COUNTED_FROM {
            counted += allocations() - start;
            ops += writes.len() as u64;
        }
        refused += results.iter().filter(|r| r.is_err()).count();
        dm.commit(tick.start);
    }
    let per_op = counted as f64 / ops as f64;
    println!("{per_op:.3} allocations per op in apply_batch ({counted} over {ops} ops, ticks {COUNTED_FROM}–{})", TICKS - 1);
    assert_eq!(refused, 0, "every deluge write addresses a live entity");
    assert!(
        per_op <= BUDGET,
        "{per_op:.3} allocations per op, budget {BUDGET}"
    );
}
