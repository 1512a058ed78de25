//! Independent vs. shared asset representations.
//!
//! Under the **independent** strategy every avatar stores a full
//! representation. Under the **shared** strategy avatars derived from the
//! same archetype store one full base (deduplicated by the content-
//! addressed object store) plus a per-avatar customization delta —
//! the §IV-I "generalizable representation … efficiently customise"
//! design point made concrete.

use bytes::Bytes;
use mv_common::seeded_rng;
use mv_common::Space;
use mv_storage::ObjectStore;
use rand::Rng;

/// Storage strategy for avatar representations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReprStrategy {
    /// One full representation per avatar.
    Independent,
    /// One base per archetype + a small delta per avatar.
    Shared,
}

impl ReprStrategy {
    /// Both strategies.
    pub const ALL: [ReprStrategy; 2] = [ReprStrategy::Independent, ReprStrategy::Shared];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ReprStrategy::Independent => "independent",
            ReprStrategy::Shared => "shared",
        }
    }
}

/// A catalog of avatars stored under one strategy.
#[derive(Debug)]
pub struct AssetCatalog {
    strategy: ReprStrategy,
    /// Full representation size of one avatar, bytes.
    pub base_bytes: usize,
    /// Customization delta size, bytes.
    pub delta_bytes: usize,
    store: ObjectStore,
    avatars: usize,
}

impl AssetCatalog {
    /// New catalog; defaults model a ~6.4 MB avatar with 2% deltas.
    pub fn new(strategy: ReprStrategy) -> Self {
        AssetCatalog {
            strategy,
            base_bytes: 6_400_000,
            delta_bytes: 128_000,
            store: ObjectStore::new(),
            avatars: 0,
        }
    }

    /// Deterministic pseudo-payload for an archetype (content-addressed
    /// dedup needs identical bytes for identical archetypes).
    fn base_payload(&self, archetype: u32) -> Bytes {
        // A small representative payload scaled down 1000×: the object
        // store accounts *logical* bytes separately, so we keep memory
        // manageable while byte accounting stays proportional.
        let scale = (self.base_bytes / 1000).max(1);
        let mut v = Vec::with_capacity(scale);
        let mut rng = seeded_rng(archetype as u64);
        for _ in 0..scale {
            v.push(rng.gen::<u8>());
        }
        Bytes::from(v)
    }

    fn delta_payload(&self, avatar: usize) -> Bytes {
        let scale = (self.delta_bytes / 1000).max(1);
        let mut v = Vec::with_capacity(scale);
        let mut rng = seeded_rng(0x5eed ^ avatar as u64);
        for _ in 0..scale {
            v.push(rng.gen::<u8>());
        }
        Bytes::from(v)
    }

    /// Ingest one avatar derived from `archetype`.
    pub fn ingest(&mut self, archetype: u32) {
        let id = self.avatars;
        self.avatars += 1;
        match self.strategy {
            ReprStrategy::Independent => {
                // A full, unique representation (base ⊕ customization —
                // unique per avatar, so nothing dedups).
                let mut payload = self.base_payload(archetype).to_vec();
                let delta = self.delta_payload(id);
                for (i, b) in delta.iter().enumerate() {
                    let idx = i % payload.len();
                    payload[idx] ^= b;
                }
                self.store.put(&format!("avatar/{id}"), Bytes::from(payload), Space::Virtual);
            }
            ReprStrategy::Shared => {
                self.store.put(
                    &format!("base/{archetype}"),
                    self.base_payload(archetype),
                    Space::Virtual,
                );
                self.store.put(
                    &format!("delta/{id}"),
                    self.delta_payload(id),
                    Space::Virtual,
                );
            }
        }
    }

    /// Physical bytes in the store (scaled model bytes).
    pub fn physical_bytes(&self) -> u64 {
        self.store.bytes().1
    }

    /// Physical bytes extrapolated back to full-size assets.
    pub fn physical_bytes_full_scale(&self) -> u64 {
        self.physical_bytes() * 1000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populate(strategy: ReprStrategy, avatars: usize, archetypes: u32) -> AssetCatalog {
        let mut cat = AssetCatalog::new(strategy);
        for i in 0..avatars {
            cat.ingest(i as u32 % archetypes);
        }
        cat
    }

    #[test]
    fn shared_representation_slashes_storage() {
        let independent = populate(ReprStrategy::Independent, 1000, 20);
        let shared = populate(ReprStrategy::Shared, 1000, 20);
        let ind = independent.physical_bytes();
        let sh = shared.physical_bytes();
        assert!(sh * 10 < ind, "shared {sh} vs independent {ind}");
    }

    #[test]
    fn storage_grows_with_archetypes_not_avatars_when_shared() {
        let few = populate(ReprStrategy::Shared, 1000, 5);
        let many = populate(ReprStrategy::Shared, 1000, 100);
        assert!(many.physical_bytes() > few.physical_bytes());
        // Doubling avatars under fixed archetypes adds only deltas.
        let double = populate(ReprStrategy::Shared, 2000, 5);
        let added = double.physical_bytes() - few.physical_bytes();
        let delta_cost = 1000 * (few.delta_bytes as u64 / 1000);
        assert!(
            added <= delta_cost + delta_cost / 10,
            "added {added} vs pure-delta cost {delta_cost}"
        );
    }

    #[test]
    fn independent_grows_linearly() {
        let a = populate(ReprStrategy::Independent, 100, 5);
        let b = populate(ReprStrategy::Independent, 200, 5);
        let ratio = b.physical_bytes() as f64 / a.physical_bytes() as f64;
        assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
    }
}
