//! Cross-space events and commands.
//!
//! Events are facts raised in one space; commands are the engine's
//! relayed instructions to actors in the *other* space (the paper's
//! military example: a virtual air-raid ⇒ ground troops "perish").
//!
//! An engine keeps its events on an `EventBus` until they are
//! drained. A bus that nobody drains for reading (a durable engine's, a
//! raft replica's) only counts them: the ids stay the same and no event
//! is built.

use mv_common::geom::Aabb;
use mv_common::id::{EntityId, EventId};
use mv_common::time::SimTime;
use mv_common::Space;
use serde::{Deserialize, Serialize};

/// What happened.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// An entity moved (authoritative-space update).
    Moved,
    /// The twin was re-synchronized across the boundary.
    TwinSynced,
    /// An entity's attribute changed.
    AttrChanged {
        /// Attribute name.
        name: String,
        /// New value.
        value: f64,
    },
    /// An area-effect action in some space (air-raid, flash-sale zone…).
    AreaEffect {
        /// Effect tag ("air_raid", "flash_sale").
        effect: String,
        /// Affected region.
        region: Aabb,
    },
    /// An entity was retired (perished, sold out, despawned).
    Retired,
}

/// One event on the co-space timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
// lint:allow(dead-pub): returned by `drain_events`, which other crates call
pub struct CoEvent {
    /// Identifier.
    pub id: EventId,
    /// When.
    pub ts: SimTime,
    /// Which space raised it.
    pub space: Space,
    /// Subject entity, if any.
    pub entity: Option<EntityId>,
    /// What happened.
    pub kind: EventKind,
}

/// A relayed instruction for an actor in the target space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Command {
    /// Space whose actors must act.
    pub target_space: Space,
    /// Acting/affected entity.
    pub entity: EntityId,
    /// Instruction tag ("perish", "restock", "reinforce"…).
    pub action: String,
    /// When the command was issued.
    pub ts: SimTime,
}

/// A simple ordered event log with drain semantics.
///
/// A bus either records: each event is built and kept until a drain
/// takes it. Or it counts (the crate's durable engines and raft
/// replicas, whose owners never read an event): an emit only numbers
/// the event, which is never built, so a write allocates nothing here.
/// Both number events alike, so the ids a log hands out do not depend
/// on which kind of bus kept it.
#[derive(Debug)]
pub(crate) struct EventBus {
    /// Recorded, not yet drained; stays empty when counting.
    events: Vec<CoEvent>,
    /// Total events ever emitted.
    next: u64,
    /// `next` at the last drain: the events since are pending.
    drained: u64,
    record: bool,
}

impl Default for EventBus {
    fn default() -> Self {
        EventBus { events: Vec::new(), next: 0, drained: 0, record: true }
    }
}

impl EventBus {
    /// Empty bus that records.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty bus that counts: it numbers events and keeps none.
    pub(crate) fn counting() -> Self {
        EventBus { record: false, ..Self::default() }
    }

    /// Record an event; returns its id. `kind` is built only when the
    /// bus records.
    pub(crate) fn emit(
        &mut self,
        ts: SimTime,
        space: Space,
        entity: Option<EntityId>,
        kind: impl FnOnce() -> EventKind,
    ) -> EventId {
        let id = EventId::new(self.next);
        self.next += 1;
        if self.record {
            self.events.push(CoEvent { id, ts, space, entity, kind: kind() });
        }
        id
    }

    /// Events recorded so far (not yet drained; none when counting).
    #[cfg(test)]
    pub(crate) fn pending(&self) -> &[CoEvent] {
        &self.events
    }

    /// Events emitted since the last drain, recorded or counted.
    pub(crate) fn pending_count(&self) -> u64 {
        self.next - self.drained
    }

    /// Take all recorded events (none when counting); the pending count
    /// restarts at zero.
    pub fn drain(&mut self) -> Vec<CoEvent> {
        self.drained = self.next;
        std::mem::take(&mut self.events)
    }

    /// Capacity of the event buffer (0 on a counting bus: it never
    /// allocated).
    #[cfg(test)]
    pub(crate) fn buffer_capacity(&self) -> usize {
        self.events.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_common::geom::Point;

    #[test]
    fn bus_assigns_ordered_ids_and_drains() {
        let mut bus = EventBus::new();
        let a = bus.emit(SimTime::ZERO, Space::Physical, None, || EventKind::Moved);
        let b = bus.emit(SimTime::from_millis(1), Space::Virtual, None, || EventKind::Retired);
        assert!(a < b);
        assert_eq!(bus.pending().len(), 2);
        let drained = bus.drain();
        assert_eq!(drained.len(), 2);
        assert!(bus.pending().is_empty());
        assert_eq!(bus.next, 2);
    }

    #[test]
    fn a_counting_bus_numbers_events_it_never_builds() {
        let mut bus = EventBus::counting();
        let a = bus.emit(SimTime::ZERO, Space::Physical, None, || unreachable!("built"));
        let b = bus.emit(SimTime::ZERO, Space::Virtual, None, || unreachable!("built"));
        assert!(a < b);
        assert_eq!((bus.pending().len(), bus.pending_count(), bus.buffer_capacity()), (0, 2, 0));
        assert!(bus.drain().is_empty());
        assert_eq!((bus.pending_count(), bus.next), (0, 2));
    }

    #[test]
    fn area_effect_carries_region() {
        let mut bus = EventBus::new();
        bus.emit(
            SimTime::ZERO,
            Space::Virtual,
            None,
            || EventKind::AreaEffect {
                effect: "air_raid".into(),
                region: Aabb::centered(Point::new(10.0, 10.0), 5.0),
            },
        );
        match &bus.pending()[0].kind {
            EventKind::AreaEffect { effect, region } => {
                assert_eq!(effect, "air_raid");
                assert!(region.contains(Point::new(12.0, 12.0)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
