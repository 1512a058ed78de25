//! Replayable co-space operations — the differential-testing op model.
//!
//! The sharded engine's equivalence claim is only as strong as the op
//! coverage thrown at it, so this module defines (1) a closed [`Op`]
//! vocabulary covering every public mutation and query of the engine,
//! (2) a seeded generator producing arbitrary-but-valid op sequences
//! (slots reference previously spawned entities, so error paths like
//! "move a retired entity" arise organically), and (3) a [`CoSpace`]
//! facade implemented by [`Metaverse`], [`ShardedMetaverse`] and
//! [`DurableMetaverse`] so one replay loop drives any engine — each
//! write a [`DurableOp`] through the engine's one `apply` — and yields
//! comparable fingerprints. `tests/sharded_differential.rs` is the
//! consumer.

use crate::durable::{DurableMetaverse, DurableOp};
use crate::engine::{Applied, Metaverse};
use crate::entity::EntityKind;
use crate::events::CoEvent;
use crate::sharded::{ShardedMetaverse, WriteOp};
use mv_common::geom::{Aabb, Point};
use mv_common::hash::FxHasher;
use mv_common::id::EntityId;
use mv_common::time::SimTime;
use mv_common::{MvResult, Space};
use rand::rngs::StdRng;
use rand::Rng;
use std::hash::{Hash, Hasher};

/// One replayable operation. `slot` fields index the list of ids
/// returned by spawns so far (op sequences stay meaningful without
/// knowing concrete ids up front).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Register an entity.
    Spawn {
        /// Entity name.
        name: String,
        /// Entity kind (decides the authoritative space).
        kind: EntityKind,
        /// Initial position.
        position: Point,
    },
    /// Move the `slot`-th spawned entity's ground truth.
    Move {
        /// Index into the spawned-id list.
        slot: usize,
        /// New position.
        position: Point,
    },
    /// Write an attribute of the `slot`-th spawned entity.
    Attr {
        /// Index into the spawned-id list.
        slot: usize,
        /// Attribute name.
        name: String,
        /// New value.
        value: f64,
    },
    /// Retire the `slot`-th spawned entity.
    Retire {
        /// Index into the spawned-id list.
        slot: usize,
    },
    /// Raise an area effect.
    AreaEffect {
        /// Space the effect is raised in.
        space: Space,
        /// Effect tag.
        effect: String,
        /// Affected region.
        region: Aabb,
        /// Relayed action tag.
        action: String,
        /// Whether victims are retired.
        retire: bool,
    },
    /// Ground-truth range query.
    QueryTruth {
        /// Queried space.
        space: Space,
        /// Queried area.
        area: Aabb,
    },
    /// Visible-set range query.
    QueryVisible {
        /// Queried space.
        space: Space,
        /// Queried area.
        area: Aabb,
    },
}

const KINDS: [EntityKind; 6] = [
    EntityKind::Person,
    EntityKind::Vehicle,
    EntityKind::Sensor,
    EntityKind::Product,
    EntityKind::Avatar,
    EntityKind::SceneObject,
];

/// Generate `count` ops inside a `world`-sized square. The mix leans on
/// moves (the hot path) but exercises every variant, including ops that
/// will fail (moves/attrs/retires of already-retired entities). The
/// first op is always a spawn so slot-addressed ops have a target.
pub fn gen_ops(rng: &mut StdRng, count: usize, world: f64) -> Vec<Op> {
    let mut ops = Vec::with_capacity(count);
    let mut spawned = 0usize;
    let point = |rng: &mut StdRng| Point::new(rng.gen_range(0.0..world), rng.gen_range(0.0..world));
    let space = |rng: &mut StdRng| if rng.gen_bool(0.5) { Space::Physical } else { Space::Virtual };
    for i in 0..count {
        let roll: f64 = if spawned == 0 { 0.0 } else { rng.gen_range(0.0..1.0) };
        let op = if roll < 0.18 {
            spawned += 1;
            Op::Spawn {
                name: format!("e{i}"),
                kind: KINDS[rng.gen_range(0..KINDS.len())],
                position: point(rng),
            }
        } else if roll < 0.58 {
            Op::Move { slot: rng.gen_range(0..spawned), position: point(rng) }
        } else if roll < 0.70 {
            Op::Attr {
                slot: rng.gen_range(0..spawned),
                name: ["health", "stock", "score"][rng.gen_range(0..3)].to_string(),
                value: rng.gen_range(-10.0..10.0),
            }
        } else if roll < 0.76 {
            Op::Retire { slot: rng.gen_range(0..spawned) }
        } else if roll < 0.82 {
            Op::AreaEffect {
                space: space(rng),
                effect: "blast".to_string(),
                region: Aabb::centered(point(rng), rng.gen_range(5.0..world / 2.0)),
                action: "perish".to_string(),
                retire: rng.gen_bool(0.5),
            }
        } else if roll < 0.91 {
            Op::QueryTruth { space: space(rng), area: Aabb::centered(point(rng), rng.gen_range(5.0..world)) }
        } else {
            Op::QueryVisible { space: space(rng), area: Aabb::centered(point(rng), rng.gen_range(5.0..world)) }
        };
        ops.push(op);
    }
    ops
}

impl Op {
    /// The write this op makes at `ts`, its slots resolved against the
    /// spawned `ids`; `None` for a query.
    pub(crate) fn write(&self, ids: &[EntityId], ts: SimTime) -> Option<DurableOp> {
        Some(match self {
            Op::Spawn { name, kind, position } => {
                DurableOp::Spawn { name: name.clone(), kind: *kind, position: *position, ts }
            }
            Op::Move { slot, position } => DurableOp::Position { id: ids[*slot], position: *position, ts },
            Op::Attr { slot, name, value } => {
                DurableOp::Attr { id: ids[*slot], name: name.clone(), value: *value, ts }
            }
            Op::Retire { slot } => DurableOp::Retire { id: ids[*slot], ts },
            Op::AreaEffect { space, effect, region, action, retire } => DurableOp::AreaEffect {
                space: *space,
                effect: effect.clone(),
                region: *region,
                action: action.clone(),
                retire: *retire,
                ts,
            },
            Op::QueryTruth { .. } | Op::QueryVisible { .. } => return None,
        })
    }
}

/// The engine surface the replayer drives — one write entry point and
/// the probes — implemented by the sequential [`Metaverse`], the
/// [`ShardedMetaverse`] and the [`DurableMetaverse`], which is the whole
/// point: one op sequence, several engines, comparable outcomes.
pub trait CoSpace {
    /// Apply one write: the engine's one write entry point.
    fn apply(&mut self, op: &DurableOp) -> MvResult<Applied>;
    /// Ground-truth range query.
    fn query_truth(&self, space: Space, area: &Aabb) -> Vec<EntityId>;
    /// Visible-set range query.
    fn query_visible(&self, space: Space, area: &Aabb) -> Vec<EntityId>;
    /// Batched [`CoSpace::query_truth`]: one single probe per area,
    /// unless the engine has a batch form of its own.
    fn query_truth_batch(&self, space: Space, areas: &[Aabb]) -> Vec<Vec<EntityId>> {
        areas.iter().map(|area| self.query_truth(space, area)).collect()
    }
    /// Batched [`CoSpace::query_visible`] (as [`CoSpace::query_truth_batch`]).
    fn query_visible_batch(&self, space: Space, areas: &[Aabb]) -> Vec<Vec<EntityId>> {
        areas.iter().map(|area| self.query_visible(space, area)).collect()
    }
}

impl CoSpace for Metaverse {
    fn apply(&mut self, op: &DurableOp) -> MvResult<Applied> {
        Metaverse::apply(self, op)
    }
    fn query_truth(&self, space: Space, area: &Aabb) -> Vec<EntityId> {
        Metaverse::query_truth(self, space, area)
    }
    fn query_visible(&self, space: Space, area: &Aabb) -> Vec<EntityId> {
        Metaverse::query_visible(self, space, area)
    }
}

impl CoSpace for ShardedMetaverse {
    fn apply(&mut self, op: &DurableOp) -> MvResult<Applied> {
        ShardedMetaverse::apply(self, op)
    }
    fn query_truth(&self, space: Space, area: &Aabb) -> Vec<EntityId> {
        ShardedMetaverse::query_truth(self, space, area)
    }
    fn query_visible(&self, space: Space, area: &Aabb) -> Vec<EntityId> {
        ShardedMetaverse::query_visible(self, space, area)
    }
    fn query_truth_batch(&self, space: Space, areas: &[Aabb]) -> Vec<Vec<EntityId>> {
        ShardedMetaverse::query_truth_batch(self, space, areas)
    }
    fn query_visible_batch(&self, space: Space, areas: &[Aabb]) -> Vec<Vec<EntityId>> {
        ShardedMetaverse::query_visible_batch(self, space, areas)
    }
}

/// Writes are logged ([`DurableMetaverse::apply`]); reads go to the
/// engine.
impl CoSpace for DurableMetaverse {
    fn apply(&mut self, op: &DurableOp) -> MvResult<Applied> {
        DurableMetaverse::apply(self, op, None)
    }
    fn query_truth(&self, space: Space, area: &Aabb) -> Vec<EntityId> {
        self.engine().query_truth(space, area)
    }
    fn query_visible(&self, space: Space, area: &Aabb) -> Vec<EntityId> {
        self.engine().query_visible(space, area)
    }
    fn query_truth_batch(&self, space: Space, areas: &[Aabb]) -> Vec<Vec<EntityId>> {
        self.engine().query_truth_batch(space, areas)
    }
    fn query_visible_batch(&self, space: Space, areas: &[Aabb]) -> Vec<Vec<EntityId>> {
        self.engine().query_visible_batch(space, areas)
    }
}

/// Fingerprint of a query op: the single probe's result, and a digest
/// of the batch form run over every area probed so far in the replay.
/// The sequential engine's batch form is its single probe per area, so
/// equal fingerprints across engines tie the sharded batch form to the
/// sharded single probes and to the sequential engine at once — with
/// batches growing through the sharded engine's inline and threaded
/// sizes as the replay goes on.
fn query_fp<E: CoSpace>(engine: &E, seen: &mut Vec<Aabb>, visible: bool, space: Space, area: &Aabb) -> String {
    seen.push(*area);
    let (tag, single, batch) = if visible {
        ("visible", engine.query_visible(space, area), engine.query_visible_batch(space, seen))
    } else {
        ("truth", engine.query_truth(space, area), engine.query_truth_batch(space, seen))
    };
    let mut digest = FxHasher::default();
    batch.hash(&mut digest);
    format!("{tag} {single:?} batch {:016x}", digest.finish())
}

/// A replay in progress: the ids spawns returned and the areas probed
/// so far, and the index of the next op (op `i` happens at `t = i` ms).
/// A script replayed in pieces renders what one run renders — on one
/// engine, or on an engine restored between the pieces and driven by a
/// clone of this state.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    ids: Vec<EntityId>,
    seen: Vec<Aabb>,
    next: u64,
}

impl Replay {
    /// Replay `ops` against an engine: every op's observable outcome
    /// (the write's `apply` result, the query's result) is rendered to a
    /// fingerprint string, so two replays are equivalent iff their
    /// fingerprint vectors are equal — and a mismatch pinpoints the first
    /// diverging op.
    pub fn run<E: CoSpace>(&mut self, engine: &mut E, ops: &[Op]) -> Vec<String> {
        ops.iter().map(|op| self.step(engine, op)).collect()
    }

    /// The time of the next op, and advance past it.
    fn tick(&mut self) -> SimTime {
        self.next += 1;
        SimTime::from_millis(self.next - 1)
    }

    /// One op's fingerprint; a spawn's id joins the slot table.
    fn step<E: CoSpace>(&mut self, engine: &mut E, op: &Op) -> String {
        let now = self.tick();
        match op {
            Op::QueryTruth { space, area } => query_fp(engine, &mut self.seen, false, *space, area),
            Op::QueryVisible { space, area } => query_fp(engine, &mut self.seen, true, *space, area),
            write => {
                let applied = engine.apply(&write.write(&self.ids, now).expect("not a query"));
                if let Ok(Applied::Spawned(id)) = &applied {
                    self.ids.push(*id);
                }
                format!("{applied:?}")
            }
        }
    }
}

/// Replay `ops` against a fresh engine (see [`Replay::run`]).
pub fn replay<E: CoSpace>(engine: &mut E, ops: &[Op]) -> Vec<String> {
    Replay::default().run(engine, ops)
}

/// Replay for the sharded engine with consecutive `Move`/`Attr` ops
/// coalesced into [`WriteOp`] batches (flushed whenever a non-batchable
/// op or the end of the sequence arrives, or the batch reaches
/// `max_batch`). Produces the same fingerprint vector as [`replay`]:
/// batch results come back in submission order.
pub fn replay_batched(engine: &mut ShardedMetaverse, ops: &[Op], max_batch: usize) -> Vec<String> {
    assert!(max_batch > 0, "batch size must be positive");
    let mut script = Replay::default();
    let mut out: Vec<Option<String>> = vec![None; ops.len()];
    let mut batch: Vec<(usize, WriteOp)> = Vec::new();
    let flush = |engine: &mut ShardedMetaverse, batch: &mut Vec<(usize, WriteOp)>, out: &mut Vec<Option<String>>| {
        if batch.is_empty() {
            return;
        }
        let write_ops: Vec<WriteOp> = batch.iter().map(|(_, w)| w.clone()).collect();
        for ((i, _), result) in batch.drain(..).zip(engine.apply_batch(&write_ops)) {
            out[i] = Some(format!("{:?}", result.map(Applied::Synced)));
        }
    };
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Move { slot, position } => {
                let (id, ts) = (script.ids[*slot], script.tick());
                batch.push((i, WriteOp::Position { id, position: *position, ts }));
            }
            Op::Attr { slot, name, value } => {
                let (id, ts) = (script.ids[*slot], script.tick());
                batch.push((i, WriteOp::Attr { id, name: name.clone(), value: *value, ts }));
            }
            other => {
                flush(engine, &mut batch, &mut out);
                out[i] = Some(script.step(engine, other));
            }
        }
        if batch.len() >= max_batch {
            flush(engine, &mut batch, &mut out);
        }
    }
    flush(engine, &mut batch, &mut out);
    out.into_iter().map(|fp| fp.expect("every op produced a fingerprint")).collect()
}

/// Canonical rendering of an event log for cross-engine comparison:
/// event ids are dropped (the engines number independently) and entries
/// are sorted by `(ts, space, entity, kind)`, so any two logs holding
/// the same facts render identically.
pub fn canonical_log(events: &[CoEvent]) -> Vec<String> {
    let mut lines: Vec<String> = events
        .iter()
        .map(|e| {
            format!(
                "{:?}|{:?}|{:?}|{:?}",
                e.ts,
                e.space,
                e.entity.map(EntityId::raw),
                e.kind
            )
        })
        .collect();
    lines.sort_unstable();
    lines
}

/// Proptest strategies over op sequences (available to dependents via
/// the `testing` feature; always on for in-crate tests).
#[cfg(any(test, feature = "testing"))]
pub mod strategies {
    use super::{gen_ops, Op};
    use proptest::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Strategy producing a random op sequence: length drawn from
    /// `min_ops..=max_ops`, positions inside a `world`-sized square.
    #[derive(Debug, Clone)]
    pub struct OpSeq {
        /// Minimum sequence length.
        pub min_ops: usize,
        /// Maximum sequence length.
        pub max_ops: usize,
        /// World side length (positions/areas fall inside it).
        pub world: f64,
    }

    impl Default for OpSeq {
        fn default() -> Self {
            OpSeq { min_ops: 1, max_ops: 120, world: 200.0 }
        }
    }

    impl Strategy for OpSeq {
        type Value = Vec<Op>;
        fn generate(&self, rng: &mut StdRng) -> Vec<Op> {
            let count = rng.gen_range(self.min_ops..=self.max_ops);
            gen_ops(rng, count, self.world)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SyncPolicy;
    use mv_common::seeded_rng;
    use proptest::prelude::*;

    #[test]
    fn generator_is_deterministic_and_covers_all_variants() {
        let ops_a = gen_ops(&mut seeded_rng(7), 400, 200.0);
        let ops_b = gen_ops(&mut seeded_rng(7), 400, 200.0);
        assert_eq!(ops_a, ops_b);
        let has = |pred: fn(&Op) -> bool| ops_a.iter().any(pred);
        assert!(has(|o| matches!(o, Op::Spawn { .. })));
        assert!(has(|o| matches!(o, Op::Move { .. })));
        assert!(has(|o| matches!(o, Op::Attr { .. })));
        assert!(has(|o| matches!(o, Op::Retire { .. })));
        assert!(has(|o| matches!(o, Op::AreaEffect { .. })));
        assert!(has(|o| matches!(o, Op::QueryTruth { .. })));
        assert!(has(|o| matches!(o, Op::QueryVisible { .. })));
    }

    #[test]
    fn replay_produces_one_fingerprint_per_op() {
        let ops = gen_ops(&mut seeded_rng(3), 100, 150.0);
        let mut mv = Metaverse::with_defaults();
        let fps = replay(&mut mv, &ops);
        assert_eq!(fps.len(), ops.len());
    }

    #[test]
    fn canonical_log_is_order_insensitive() {
        let mut mv = Metaverse::with_defaults();
        let ops = gen_ops(&mut seeded_rng(11), 60, 100.0);
        replay(&mut mv, &ops);
        let events = mv.drain_events();
        let mut reversed = events.clone();
        reversed.reverse();
        assert_eq!(canonical_log(&events), canonical_log(&reversed));
        assert_eq!(canonical_log(&events).len(), events.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        // Satellite invariant: what a space shows is exactly its own
        // residents plus the twins materialized into it — sorted, deduped.
        #[test]
        fn query_visible_is_truth_union_twins(seed in 0u64..1_000_000, ops in strategies::OpSeq { min_ops: 1, max_ops: 80, world: 120.0 }) {
            let mut mv = Metaverse::new(SyncPolicy { position_bound: 2.0, attr_bound: 0.5 }, 25.0);
            replay(&mut mv, &ops);
            let mut probe = seeded_rng(seed);
            for _ in 0..8 {
                let center = mv_common::geom::Point::new(probe.gen_range(0.0..120.0), probe.gen_range(0.0..120.0));
                let area = mv_common::geom::Aabb::centered(center, probe.gen_range(5.0..80.0));
                for space in mv_common::Space::ALL {
                    let visible = mv.query_visible(space, &area);
                    let mut expected = mv.query_truth(space, &area);
                    mv.twins_into(space, &area, &mut expected);
                    expected.sort_unstable();
                    expected.dedup();
                    prop_assert_eq!(&visible, &expected);
                    // Sorted + deduped by construction.
                    let mut sorted = visible.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    prop_assert_eq!(visible, sorted);
                }
            }
        }
    }
}
