//! Co-space entities.

use mv_common::geom::Point;
use mv_common::id::EntityId;
use mv_common::Space;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What an entity is — drives default sync behaviour and which space is
/// authoritative for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EntityKind {
    /// A sensed person/soldier/shopper (physical-authoritative).
    Person,
    /// A sensed vehicle (physical-authoritative).
    Vehicle,
    /// A deployed sensor (physical, static).
    Sensor,
    /// A product with stock in both spaces.
    Product,
    /// A purely virtual avatar or NPC (virtual-authoritative).
    Avatar,
    /// A virtual scene object (building, prop).
    SceneObject,
}

impl EntityKind {
    /// Which space owns the ground truth for this kind.
    pub fn authoritative_space(self) -> Space {
        match self {
            EntityKind::Person | EntityKind::Vehicle | EntityKind::Sensor => Space::Physical,
            EntityKind::Product => Space::Physical, // quantity-on-hand is physical truth
            EntityKind::Avatar | EntityKind::SceneObject => Space::Virtual,
        }
    }
}

/// A registered co-space entity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Entity {
    /// Identifier (shared across both presences).
    pub id: EntityId,
    /// Human-readable name.
    pub name: String,
    /// Kind.
    pub kind: EntityKind,
    /// Ground-truth position in the authoritative space.
    pub position: Point,
    /// The other space's *materialized* view of the position (the twin).
    /// Lags within the sync policy's coherency bound.
    pub twin_position: Point,
    /// Free-form numeric attributes (health, stock, score…), tagged by
    /// name; both spaces read them, the authoritative space writes.
    pub attrs: BTreeMap<String, f64>,
    /// True once the entity has been destroyed/perished/sold out; kept
    /// for audit, excluded from queries.
    pub retired: bool,
}

impl Entity {
    /// Construct at a position; the twin starts synchronized.
    pub fn new(id: EntityId, name: impl Into<String>, kind: EntityKind, position: Point) -> Self {
        Entity {
            id,
            name: name.into(),
            kind,
            position,
            twin_position: position,
            attrs: BTreeMap::new(),
            retired: false,
        }
    }

    /// Distance between truth and the materialized twin — the §IV-C
    /// incoherency of this entity.
    pub fn divergence(&self) -> f64 {
        self.position.dist(self.twin_position)
    }

    /// Read an attribute (0 default keeps call sites tidy).
    pub fn attr(&self, name: &str) -> f64 {
        self.attrs.get(name).copied().unwrap_or(0.0)
    }

    /// Write an attribute, copying the name only when it is new.
    pub fn set_attr(&mut self, name: &str, v: f64) {
        match self.attrs.get_mut(name) {
            Some(value) => *value = v,
            None => {
                self.attrs.insert(name.to_owned(), v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn authoritative_spaces() {
        assert_eq!(EntityKind::Person.authoritative_space(), Space::Physical);
        assert_eq!(EntityKind::Avatar.authoritative_space(), Space::Virtual);
        assert_eq!(EntityKind::Product.authoritative_space(), Space::Physical);
    }

    #[test]
    fn divergence_starts_at_zero() {
        let e = Entity::new(EntityId::new(1), "alice", EntityKind::Person, Point::new(1.0, 2.0));
        assert_eq!(e.divergence(), 0.0);
    }

    #[test]
    fn attrs_default_to_zero() {
        let mut e = Entity::new(EntityId::new(1), "tank", EntityKind::Vehicle, Point::ORIGIN);
        assert_eq!(e.attr("fuel"), 0.0);
        e.set_attr("fuel", 0.8);
        assert_eq!(e.attr("fuel"), 0.8);
    }
}
