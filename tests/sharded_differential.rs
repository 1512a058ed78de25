//! Differential proof of the sharded engine.
//!
//! The sequential `Metaverse` is the specification; `ShardedMetaverse`
//! claims to be observationally equivalent for every shard count. This
//! harness replays op sequences (fixed seeds and proptest-generated)
//! against both engines with shard counts {1, 2, 4, 8} and asserts, at
//! the level a client could observe:
//!
//! * per-op outcomes (return values, query results, relayed commands
//!   in order) are identical, op by op;
//! * after each query op, the batch form over every area probed so far
//!   returns what the single probes and the sequential engine return
//!   (`replay` folds a digest of it into the op's fingerprint);
//! * the drained event logs hold the same facts (canonicalized — the
//!   engines order/number independently);
//! * counter totals, live counts, and divergence metrics agree
//!   (`mean_divergence` up to f64 summation order across shards);
//! * the sharded engine's *merged* log is byte-identical run-to-run —
//!   thread scheduling never leaks into observable state;
//! * coalescing writes into batches (`apply_batch`) changes nothing;
//! * the durable engine — every write logged, then a `commit` and a
//!   `crash_and_recover` at a seeded cut — renders the same per-op
//!   outcomes, counters and divergence as the sequential engine (events
//!   are not compared: the durable engine drops them at commit).

use mv_common::seeded_rng;
use mv_common::time::SimTime;
use mv_core::ops::{canonical_log, gen_ops, replay, replay_batched, Op, Replay};
use mv_core::{DurableMetaverse, Metaverse, ShardedMetaverse, SyncPolicy};
use proptest::prelude::*;
use rand::Rng;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const WORLD: f64 = 200.0;

fn policy() -> SyncPolicy {
    SyncPolicy { position_bound: 2.0, attr_bound: 0.5 }
}

/// Replay `ops` on the spec engine and on sharded engines at every
/// shard count, asserting full observable equivalence. Returns the spec
/// fingerprints so callers can add their own checks.
fn assert_equivalent(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut spec = Metaverse::new(policy(), 25.0);
    let spec_fps = replay(&mut spec, ops);
    let spec_log = canonical_log(&spec.drain_events());

    for shards in SHARD_COUNTS {
        let mut sharded = ShardedMetaverse::new(policy(), 25.0, shards);
        let fps = replay(&mut sharded, ops);
        for (i, (s, p)) in spec_fps.iter().zip(&fps).enumerate() {
            prop_assert_eq!(s, p, "shards={}: first divergence at op {} = {:?}", shards, i, ops[i]);
        }
        prop_assert_eq!(spec.live_count(), sharded.live_count(), "live count, shards={}", shards);
        prop_assert_eq!(
            spec.stats.to_string(),
            sharded.stats().to_string(),
            "counter totals, shards={}",
            shards
        );
        prop_assert_eq!(
            spec.max_divergence(),
            sharded.max_divergence(),
            "max divergence, shards={}",
            shards
        );
        let mean_gap = (spec.mean_divergence() - sharded.mean_divergence()).abs();
        prop_assert!(
            mean_gap < 1e-9,
            "mean divergence gap {} too large, shards={}",
            mean_gap,
            shards
        );
        let log = canonical_log(&sharded.drain_events());
        prop_assert_eq!(&spec_log, &log, "event logs differ, shards={}", shards);
    }
    Ok(())
}

/// Replay `ops` through durable engines at every shard count, with a
/// `commit` and a `crash_and_recover` at a cut drawn from a seed, and
/// hold them to the sequential engine under the durable engine's
/// (default) sync policy: per-op outcomes, live count, counter totals
/// and divergence.
fn assert_durable_equivalent(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut spec = Metaverse::with_defaults();
    let spec_fps = replay(&mut spec, ops);
    let cut = seeded_rng(ops.len() as u64).gen_range(0..=ops.len());
    for shards in SHARD_COUNTS {
        let mut durable = DurableMetaverse::with_defaults(shards);
        let mut script = Replay::default();
        let mut fps = script.run(&mut durable, &ops[..cut]);
        durable.commit(SimTime::from_millis(cut as u64));
        let report = durable.crash_and_recover();
        prop_assert_eq!(report.corruption, None, "shards={}", shards);
        fps.extend(script.run(&mut durable, &ops[cut..]));
        for (i, (s, d)) in spec_fps.iter().zip(&fps).enumerate() {
            prop_assert_eq!(s, d, "durable shards={} cut={}: first divergence at op {} = {:?}", shards, cut, i, ops[i]);
        }
        let engine = durable.engine();
        prop_assert_eq!(spec.live_count(), engine.live_count(), "live count, shards={}", shards);
        prop_assert_eq!(spec.stats.to_string(), engine.stats().to_string(), "counter totals, shards={}", shards);
        prop_assert_eq!(spec.max_divergence(), engine.max_divergence(), "max divergence, shards={}", shards);
        let mean_gap = (spec.mean_divergence() - engine.mean_divergence()).abs();
        prop_assert!(mean_gap < 1e-9, "mean divergence gap {} too large, shards={}", mean_gap, shards);
    }
    Ok(())
}

/// One full replay of `ops` on a fresh sharded engine, returning the
/// merged event log rendered to bytes.
fn merged_log_bytes(ops: &[Op], shards: usize) -> String {
    let mut sharded = ShardedMetaverse::new(policy(), 25.0, shards);
    replay(&mut sharded, ops);
    format!("{:?}", sharded.drain_events())
}

#[test]
fn differential_fixed_seeds_all_shard_counts() {
    // The long run probes ~200 areas, so its batches outgrow the
    // calling-thread size of the batch form at every shard count.
    for (seed, count) in FIXED {
        let ops = gen_ops(&mut seeded_rng(seed), count, WORLD);
        assert_equivalent(&ops).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
    }
}

#[test]
fn merged_event_log_is_byte_identical_across_runs() {
    let ops = gen_ops(&mut seeded_rng(77), 400, WORLD);
    for shards in SHARD_COUNTS {
        let first = merged_log_bytes(&ops, shards);
        for run in 1..4 {
            assert_eq!(
                merged_log_bytes(&ops, shards),
                first,
                "shards={shards}: merged log changed between run 0 and run {run}"
            );
        }
    }
}

#[test]
fn batched_replay_matches_op_at_a_time_replay() {
    let ops = gen_ops(&mut seeded_rng(9), 350, WORLD);
    let mut spec = Metaverse::new(policy(), 25.0);
    let spec_fps = replay(&mut spec, &ops);
    let spec_log = canonical_log(&spec.drain_events());
    for shards in SHARD_COUNTS {
        for batch in [1usize, 7, 64] {
            let mut sharded = ShardedMetaverse::new(policy(), 25.0, shards);
            let fps = replay_batched(&mut sharded, &ops, batch);
            assert_eq!(spec_fps, fps, "shards={shards} batch={batch}");
            assert_eq!(
                spec_log,
                canonical_log(&sharded.drain_events()),
                "event logs differ, shards={shards} batch={batch}"
            );
        }
    }
}

/// The fixed seeds [`differential_fixed_seeds_all_shard_counts`] runs.
const FIXED: [(u64, usize); 5] = [(1, 300), (2, 300), (3, 300), (42, 300), (2023, 1200)];

#[test]
fn durable_engine_matches_the_sequential_engine_across_a_crash() {
    for (seed, count) in FIXED {
        let ops = gen_ops(&mut seeded_rng(seed), count, WORLD);
        assert_durable_equivalent(&ops).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
    }
    assert_durable_equivalent(&heavy_retirement()).unwrap();
}

/// Most of the population retired by one area effect, then full-world
/// queries in both spaces.
fn heavy_retirement() -> Vec<Op> {
    let mut ops = gen_ops(&mut seeded_rng(5), 200, WORLD);
    ops.push(Op::AreaEffect {
        space: mv_common::Space::Virtual,
        effect: "purge".into(),
        region: mv_common::geom::Aabb::new(
            mv_common::geom::Point::ORIGIN,
            mv_common::geom::Point::new(WORLD, WORLD),
        ),
        action: "perish".into(),
        retire: true,
    });
    for space in mv_common::Space::ALL {
        ops.push(Op::QueryTruth {
            space,
            area: mv_common::geom::Aabb::new(
                mv_common::geom::Point::ORIGIN,
                mv_common::geom::Point::new(WORLD, WORLD),
            ),
        });
        ops.push(Op::QueryVisible {
            space,
            area: mv_common::geom::Aabb::new(
                mv_common::geom::Point::ORIGIN,
                mv_common::geom::Point::new(WORLD, WORLD),
            ),
        });
    }
    ops
}

#[test]
fn queries_agree_after_heavy_retirement() {
    // Drive most of the population through area_effect retirement, then
    // compare full-world queries — no retired id may linger in any
    // shard's truth or twin index.
    assert_equivalent(&heavy_retirement()).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn differential_random_sequences(ops in mv_core::ops::strategies::OpSeq { min_ops: 1, max_ops: 250, world: WORLD }) {
        assert_equivalent(&ops)?;
    }

    #[test]
    fn durable_random_sequences_across_a_crash(ops in mv_core::ops::strategies::OpSeq { min_ops: 1, max_ops: 250, world: WORLD }) {
        assert_durable_equivalent(&ops)?;
    }
}
