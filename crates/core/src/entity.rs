//! Co-space entities. An attribute is kept once, in its entity's
//! [`Attrs`], with its MVCC head's commit timestamp beside its value.

use mv_common::geom::Point;
use mv_common::id::EntityId;
use mv_common::Space;
use serde::{Deserialize, Serialize};

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
    pub(crate) fn authoritative_space(self) -> Space {
        match self {
            EntityKind::Person | EntityKind::Vehicle | EntityKind::Sensor => Space::Physical,
            EntityKind::Product => Space::Physical, // quantity-on-hand is physical truth
            EntityKind::Avatar | EntityKind::SceneObject => Space::Virtual,
        }
    }
}

/// A registered co-space entity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Entity {
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
    pub attrs: Attrs,
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
            attrs: Attrs::default(),
            retired: false,
        }
    }
}

/// One entity's attributes, sorted by name: each one's value and the
/// commit timestamp of its MVCC head (0: none).
#[derive(Debug, Clone, Default, PartialEq)]
// lint:allow(dead-pub): the type of `EntityRef::attrs`, which other crates read
pub struct Attrs(Vec<(Box<str>, f64, u64)>);

impl Attrs {
    fn find(&self, name: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|attr| (*attr.0).cmp(name))
    }

    /// The value of attribute `name`.
    pub fn get(&self, name: &str) -> Option<&f64> {
        Some(&self.0.get(self.find(name).ok()?)?.1)
    }

    /// `(name, value)` of every attribute, in name order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&str, &f64)> {
        self.0.iter().map(|(name, value, _)| (&**name, value))
    }

    /// Write attribute `name`, returning its previous value. The name is
    /// copied only when it is new; a new attribute has no head.
    pub fn set(&mut self, name: &str, value: f64) -> Option<f64> {
        match self.find(name) {
            Ok(at) => self.0.get_mut(at).map(|attr| std::mem::replace(&mut attr.1, value)),
            Err(at) => {
                self.0.insert(at, (name.into(), value, 0));
                None
            }
        }
    }

    /// Append attribute `name`; `None`, appending nothing, unless it
    /// sorts after every name held (a decoder's check: a sorted insert of
    /// hostile unsorted names would be quadratic).
    pub(crate) fn push(&mut self, name: Box<str>, value: f64) -> Option<()> {
        self.0.last().is_none_or(|last| last.0 < name).then(|| self.0.push((name, value, 0)))
    }

    /// The value of attribute `name` and its head's commit timestamp
    /// (0: none).
    pub(crate) fn head(&self, name: &str) -> Option<(f64, u64)> {
        let attr = self.0.get(self.find(name).ok()?)?;
        Some((attr.1, attr.2))
    }

    /// Make `ts` the commit timestamp of `name`'s head, if it is held.
    pub(crate) fn stamp(&mut self, name: &str, ts: u64) {
        if let Some(attr) = self.find(name).ok().and_then(|at| self.0.get_mut(at)) {
            attr.2 = ts;
        }
    }

    /// Every attribute's head timestamp, in name order.
    pub(crate) fn heads_mut(&mut self) -> impl Iterator<Item = &mut u64> {
        self.0.iter_mut().map(|attr| &mut attr.2)
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
    fn attrs_start_empty() {
        let mut e = Entity::new(EntityId::new(1), "tank", EntityKind::Vehicle, Point::ORIGIN);
        assert_eq!(e.attrs.get("fuel"), None);
        assert_eq!(e.attrs.set("fuel", 0.8), None);
        assert_eq!(e.attrs.get("fuel"), Some(&0.8));
    }

    #[test]
    fn attrs_push_only_ascending_names() {
        let mut attrs = Attrs::default();
        assert_eq!(attrs.push("b".into(), 1.0), Some(()));
        assert_eq!(attrs.push("b".into(), 2.0), None, "a repeated name");
        assert_eq!(attrs.push("a".into(), 3.0), None, "a name that steps back");
        assert_eq!(attrs.push("c".into(), 4.0), Some(()));
        assert_eq!(attrs.iter().collect::<Vec<_>>(), [("b", &1.0), ("c", &4.0)]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        // Interleaved writes and stamps on a handful of names, read back
        // through every accessor against a `BTreeMap` of (value, head).
        #[test]
        fn attrs_read_as_a_btreemap(
            script in proptest::collection::vec((0u8..2, 0usize..6, -4i32..4, 1u64..100), 0..80),
        ) {
            use std::collections::BTreeMap;
            const NAMES: [&str; 6] = ["hp", "gold", "", "g", "stock", "z"];
            let (mut attrs, mut model) = (Attrs::default(), BTreeMap::<String, (f64, u64)>::new());
            for (what, k, value, ts) in script {
                let (name, value) = (NAMES[k], f64::from(value));
                if what == 0 {
                    let previous = model.get(name).map(|held| held.0);
                    proptest::prop_assert_eq!(attrs.set(name, value), previous);
                    model.entry(name.to_string()).or_default().0 = value;
                } else {
                    attrs.stamp(name, ts);
                    if let Some(held) = model.get_mut(name) {
                        held.1 = ts;
                    }
                }
            }
            for name in NAMES.iter().copied().chain(["missing"]) {
                proptest::prop_assert_eq!(attrs.get(name), model.get(name).map(|held| &held.0));
                proptest::prop_assert_eq!(attrs.head(name), model.get(name).copied());
            }
            let want: Vec<(&str, &f64)> = model.iter().map(|(name, held)| (name.as_str(), &held.0)).collect();
            proptest::prop_assert_eq!(attrs.iter().collect::<Vec<_>>(), want);
            let heads: Vec<u64> = attrs.clone().heads_mut().map(|ts| *ts).collect();
            proptest::prop_assert_eq!(heads, model.values().map(|held| held.1).collect::<Vec<_>>());
            proptest::prop_assert_eq!(attrs.iter().len(), model.len());
        }
    }
}
