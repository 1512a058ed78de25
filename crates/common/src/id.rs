//! Strongly-typed identifiers.
//!
//! Raw `u64`s invite mixing up an entity id with a node id; each domain
//! gets its own newtype via the `define_id!` macro. All ids are `Copy`, hash fast
//! (they feed [`crate::hash::FastMap`]), and order deterministically.

use std::sync::atomic::{AtomicU64, Ordering};

/// Defines an id newtype with a monotonic generator.
#[macro_export]
macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord,
            serde::Serialize, serde::Deserialize,
        )]
        pub struct $name(pub u64);

        impl $name {
            /// Wrap a raw value.
            #[inline]
            pub const fn new(v: u64) -> Self {
                Self(v)
            }

            /// The raw value.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}#{}", stringify!($name), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                Self(v)
            }
        }
    };
}

define_id!(
    /// An entity that exists in the co-space: a soldier, a shopper, an
    /// avatar, a book, a sensor-tracked vehicle…
    EntityId
);
define_id!(
    /// A node in the simulated network (device, edge broker, cloud
    /// executor, storage server, data-center coordinator).
    NodeId
);
define_id!(
    /// A subscriber / end-client of the dissemination or pub/sub layer.
    ClientId
);
define_id!(
    /// A data object tracked by the dissemination layer (e.g. one
    /// scoreboard value, one product's quantity-on-hand, one avatar pose).
    ObjectId
);
define_id!(
    /// A continuous query registered with the stream engine.
    QueryId
);
define_id!(
    /// A transaction in the distributed transaction layer.
    TxnId
);
define_id!(
    /// An event detected by the fusion layer or raised in either space.
    EventId
);
define_id!(
    /// A party participating in data collaboration (§IV-B).
    PartyId
);

/// A monotonically increasing id generator, safe to share across threads.
///
/// Each subsystem owns its own generator so ids stay dense per domain,
/// which keeps them friendly to `Vec`-indexed side tables.
#[derive(Debug, Default)]
pub struct IdGen {
    next: AtomicU64,
}

impl IdGen {
    /// A generator starting at zero.
    pub const fn new() -> Self {
        Self { next: AtomicU64::new(0) }
    }

    /// Allocate the next raw id.
    #[inline]
    pub(crate) fn next_raw(&self) -> u64 {
        // lint:allow(relaxed-ordering): id allocation needs atomicity only — uniqueness holds under any ordering, and nothing is published via this counter
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocate the next id of type `T`.
    #[inline]
    pub fn next<T: From<u64>>(&self) -> T {
        T::from(self.next_raw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_distinct_types() {
        let e = EntityId::new(1);
        let n = NodeId::new(1);
        // Same raw value, different types; both display their kind.
        assert_eq!(e.raw(), n.raw());
        assert!(e.to_string().starts_with("EntityId#"));
        assert!(n.to_string().starts_with("NodeId#"));
    }

    #[test]
    fn idgen_is_monotonic_and_dense() {
        let g = IdGen::new();
        let a: EntityId = g.next();
        let b: EntityId = g.next();
        let c: EntityId = g.next();
        assert_eq!((a.raw(), b.raw(), c.raw()), (0, 1, 2));
    }

    #[test]
    fn idgen_threaded_uniqueness() {
        use std::sync::Arc;
        let g = Arc::new(IdGen::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let g = Arc::clone(&g);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| g.next_raw()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000);
    }
}
