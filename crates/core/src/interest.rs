//! Interest management: per-user areas of interest over the co-space.
//!
//! §IV quotes the MMO literature's open problem of *"methods to guarantee
//! consistency across multiple virtual views"* scaled to many users. The
//! standard engine answer is interest management: each user only receives
//! updates about entities inside their area of interest (AOI), so the
//! per-user stream scales with local density, not world population.
//!
//! [`InterestManager`] sits on top of [`crate::Metaverse`]: users attach
//! an AOI to their viewer entity; after each engine tick the manager
//! diffs every user's visible set and emits enter/leave deltas — the
//! messages an update-dissemination layer would actually ship.

use crate::engine::Metaverse;
use mv_common::geom::Aabb;
use mv_common::hash::{FastMap, FastSet};
use mv_common::id::{ClientId, EntityId};
use mv_common::metrics::Counters;
use mv_common::Space;
use mv_common::{MvError, MvResult};

/// A delta delivered to one client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// lint:allow(dead-pub): returned by `InterestManager::tick`, which other crates call
pub enum InterestUpdate {
    /// An entity entered the client's AOI (ship full state).
    Entered(ClientId, EntityId),
    /// An entity left the AOI (client may drop its replica).
    Left(ClientId, EntityId),
}

#[derive(Debug)]
struct Aoi {
    viewer: EntityId,
    radius: f64,
    space: Space,
    known: FastSet<EntityId>,
}

/// The manager.
#[derive(Debug, Default)]
pub struct InterestManager {
    aois: FastMap<ClientId, Aoi>,
    /// `enters`, `leaves`, `clients_ticked` counters.
    pub stats: Counters,
}

impl InterestManager {
    /// An empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach an AOI: `client` follows `viewer` and sees everything
    /// visible in `space` within `radius` of it.
    pub fn subscribe(&mut self, client: ClientId, viewer: EntityId, radius: f64, space: Space) {
        assert!(radius > 0.0, "AOI radius must be positive");
        self.aois.insert(client, Aoi { viewer, radius, space, known: FastSet::default() });
    }

    /// Detach a client.
    pub fn unsubscribe(&mut self, client: ClientId) -> bool {
        self.aois.remove(&client).is_some()
    }

    /// Diff every client's AOI against the world; returns the deltas in
    /// deterministic (client, entity) order.
    pub fn tick(&mut self, world: &Metaverse) -> MvResult<Vec<InterestUpdate>> {
        let mut out = Vec::new();
        let mut clients: Vec<ClientId> = self.aois.keys().copied().collect();
        clients.sort_unstable();
        for client in clients {
            let aoi = self.aois.get_mut(&client).expect("listed above");
            let viewer = world.entity(aoi.viewer)?;
            if viewer.retired {
                return Err(MvError::IllegalState(format!(
                    "viewer {} of client {client} is retired",
                    aoi.viewer
                )));
            }
            let center = viewer.position;
            let visible: FastSet<EntityId> = world
                .query_visible(aoi.space, &Aabb::centered(center, aoi.radius))
                .into_iter()
                .filter(|&id| id != aoi.viewer)
                .collect();
            let mut entered: Vec<EntityId> =
                visible.difference(&aoi.known).copied().collect();
            let mut left: Vec<EntityId> = aoi.known.difference(&visible).copied().collect();
            entered.sort_unstable();
            left.sort_unstable();
            for e in entered {
                self.stats.incr("enters");
                out.push(InterestUpdate::Entered(client, e));
            }
            for e in left {
                self.stats.incr("leaves");
                out.push(InterestUpdate::Left(client, e));
            }
            aoi.known = visible;
            self.stats.incr("clients_ticked");
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SyncPolicy;
    use crate::entity::EntityKind;
    use mv_common::geom::Point;
    use mv_common::time::SimTime;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn world_with_viewer() -> (Metaverse, EntityId) {
        let mut world = Metaverse::new(SyncPolicy { position_bound: 0.1, attr_bound: 0.0 }, 50.0);
        let viewer = world.spawn("viewer", EntityKind::Avatar, Point::ORIGIN, t(0));
        (world, viewer)
    }

    #[test]
    fn enter_and_leave_deltas() {
        let (mut world, viewer) = world_with_viewer();
        let mut im = InterestManager::new();
        let client = ClientId::new(1);
        im.subscribe(client, viewer, 50.0, Space::Virtual);
        assert!(im.tick(&world).unwrap().is_empty());

        let npc = world.spawn("npc", EntityKind::Avatar, Point::new(10.0, 0.0), t(1));
        let updates = im.tick(&world).unwrap();
        assert_eq!(updates, vec![InterestUpdate::Entered(client, npc)]);
        // No change, no traffic.
        assert!(im.tick(&world).unwrap().is_empty());
        // The NPC wanders off.
        world.update_position(npc, Point::new(500.0, 0.0), t(2)).unwrap();
        let updates = im.tick(&world).unwrap();
        assert_eq!(updates, vec![InterestUpdate::Left(client, npc)]);
    }

    #[test]
    fn viewer_movement_shifts_the_aoi() {
        let (mut world, viewer) = world_with_viewer();
        let far = world.spawn("far", EntityKind::Avatar, Point::new(200.0, 0.0), t(0));
        let mut im = InterestManager::new();
        let client = ClientId::new(1);
        im.subscribe(client, viewer, 50.0, Space::Virtual);
        assert!(im.tick(&world).unwrap().is_empty());
        world.update_position(viewer, Point::new(180.0, 0.0), t(1)).unwrap();
        let updates = im.tick(&world).unwrap();
        assert_eq!(updates, vec![InterestUpdate::Entered(client, far)]);
    }

    #[test]
    fn cross_space_twins_are_visible_in_the_aoi() {
        // A physical person's twin enters a virtual viewer's AOI.
        let (mut world, viewer) = world_with_viewer();
        let mut im = InterestManager::new();
        let client = ClientId::new(1);
        im.subscribe(client, viewer, 50.0, Space::Virtual);
        let person = world.spawn("person", EntityKind::Person, Point::new(20.0, 0.0), t(1));
        let updates = im.tick(&world).unwrap();
        assert_eq!(updates, vec![InterestUpdate::Entered(client, person)]);
    }

    #[test]
    fn traffic_scales_with_local_density_not_world_size() {
        let (mut world, viewer) = world_with_viewer();
        // 5 nearby entities, 500 far away.
        for i in 0..5 {
            world.spawn(format!("near{i}"), EntityKind::Avatar, Point::new(i as f64, 5.0), t(0));
        }
        for i in 0..500 {
            world.spawn(
                format!("far{i}"),
                EntityKind::Avatar,
                Point::new(5_000.0 + i as f64, 0.0),
                t(0),
            );
        }
        let mut im = InterestManager::new();
        let client = ClientId::new(1);
        im.subscribe(client, viewer, 50.0, Space::Virtual);
        let updates = im.tick(&world).unwrap();
        assert_eq!(updates.len(), 5, "only the local cluster is delivered");
    }

    #[test]
    fn multiple_clients_are_independent_and_ordered() {
        let (mut world, v1) = world_with_viewer();
        let v2 = world.spawn("viewer2", EntityKind::Avatar, Point::new(1_000.0, 0.0), t(0));
        let mut im = InterestManager::new();
        im.subscribe(ClientId::new(2), v2, 50.0, Space::Virtual);
        im.subscribe(ClientId::new(1), v1, 50.0, Space::Virtual);
        let near_v2 = world.spawn("x", EntityKind::Avatar, Point::new(1_010.0, 0.0), t(1));
        let updates = im.tick(&world).unwrap();
        // Only client 2's AOI holds x; client 1 sees nobody.
        assert_eq!(updates, vec![InterestUpdate::Entered(ClientId::new(2), near_v2)]);
    }

    #[test]
    fn retired_viewer_is_an_error() {
        let (mut world, viewer) = world_with_viewer();
        let mut im = InterestManager::new();
        im.subscribe(ClientId::new(1), viewer, 50.0, Space::Virtual);
        world.retire(viewer, t(1)).unwrap();
        assert!(im.tick(&world).is_err());
        assert!(im.unsubscribe(ClientId::new(1)));
        assert!(!im.unsubscribe(ClientId::new(1)));
    }
}
