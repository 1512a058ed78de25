//! Coherency-bounded push dissemination.
//!
//! Clients subscribe to objects with an incoherency bound; the server
//! filters updates and pushes only those that would otherwise leave a
//! client's cached copy more than its bound away from the source value.
//! The invariant (checked by property tests): after every call, for every
//! (client, object) subscription, `|source − client_copy| ≤ bound`
//! evaluated at push boundaries.

use mv_common::hash::FastMap;
use mv_common::id::{ClientId, ObjectId};
use mv_common::metrics::Counters;

/// A subscription's incoherency tolerance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Push whenever |v − last_pushed| exceeds this absolute amount.
    Absolute(f64),
    /// Push whenever the relative drift |v − last|/max(|last|, ε) exceeds
    /// this fraction.
    Relative(f64),
    /// No tolerance: every update is pushed (the naive baseline).
    Exact,
}

impl Bound {
    /// Does moving from `last_sent` to `v` violate the bound?
    #[inline]
    pub(crate) fn violated(self, last_sent: f64, v: f64) -> bool {
        match self {
            Bound::Exact => v != last_sent,
            Bound::Absolute(eps) => (v - last_sent).abs() > eps,
            Bound::Relative(frac) => {
                let base = last_sent.abs().max(1e-9);
                ((v - last_sent) / base).abs() > frac
            }
        }
    }
}

/// One push to one client.
#[derive(Debug, Clone, Copy, PartialEq)]
// lint:allow(dead-pub): exposed by `CoherencyServer::subscribe`, which other crates use
pub struct PushMsg {
    /// Destination client.
    pub client: ClientId,
    /// Object whose value is pushed.
    pub object: ObjectId,
    /// The fresh value.
    pub value: f64,
}

/// The dissemination server.
#[derive(Debug, Default)]
pub struct CoherencyServer {
    values: FastMap<ObjectId, f64>,
    subs: FastMap<ObjectId, Vec<(ClientId, Bound)>>,
    last_sent: FastMap<(ObjectId, ClientId), f64>,
    /// `updates`, `pushes`, `suppressed` counters.
    pub stats: Counters,
}

impl CoherencyServer {
    /// An empty server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Subscribe `client` to `object` with a bound. The current value (if
    /// any) is pushed immediately so the client starts coherent.
    pub fn subscribe(&mut self, client: ClientId, object: ObjectId, bound: Bound) -> Option<PushMsg> {
        let subs = self.subs.entry(object).or_default();
        if let Some(existing) = subs.iter_mut().find(|(c, _)| *c == client) {
            existing.1 = bound;
        } else {
            subs.push((client, bound));
        }
        self.values.get(&object).copied().map(|v| {
            self.last_sent.insert((object, client), v);
            self.stats.incr("pushes");
            PushMsg { client, object, value: v }
        })
    }

    /// Remove a subscription.
    pub fn unsubscribe(&mut self, client: ClientId, object: ObjectId) -> bool {
        let mut removed = false;
        if let Some(subs) = self.subs.get_mut(&object) {
            let before = subs.len();
            subs.retain(|(c, _)| *c != client);
            removed = subs.len() != before;
        }
        self.last_sent.remove(&(object, client));
        removed
    }

    /// Apply a source update; returns the pushes it triggers. Clients not
    /// pushed keep their old copy — by construction still within bound.
    pub fn update(&mut self, object: ObjectId, value: f64) -> Vec<PushMsg> {
        self.values.insert(object, value);
        self.stats.incr("updates");
        let mut out = Vec::new();
        if let Some(watchers) = self.subs.get(&object) {
            for &(client, bound) in watchers {
                let key = (object, client);
                let last = self.last_sent.get(&key).copied();
                let must_push = match last {
                    None => true, // never synced
                    Some(prev) => bound.violated(prev, value),
                };
                if must_push {
                    self.last_sent.insert(key, value);
                    out.push(PushMsg { client, object, value });
                } else {
                    self.stats.incr("suppressed");
                }
            }
        }
        self.stats.add("pushes", out.len() as u64);
        out
    }

    /// Source-of-truth value of an object.
    pub fn value(&self, object: ObjectId) -> Option<f64> {
        self.values.get(&object).copied()
    }

    /// The last value pushed to a (client, object) pair.
    pub fn client_copy(&self, client: ClientId, object: ObjectId) -> Option<f64> {
        self.last_sent.get(&(object, client)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_common::seeded_rng;
    use proptest::prelude::*;
    use rand::Rng;

    fn c(i: u64) -> ClientId {
        ClientId::new(i)
    }
    fn o(i: u64) -> ObjectId {
        ObjectId::new(i)
    }

    #[test]
    fn exact_bound_pushes_everything() {
        let mut s = CoherencyServer::new();
        s.subscribe(c(1), o(1), Bound::Exact);
        assert_eq!(s.update(o(1), 1.0).len(), 1);
        assert_eq!(s.update(o(1), 2.0).len(), 1);
        assert_eq!(s.update(o(1), 2.0).len(), 0); // unchanged value
        assert_eq!(s.stats.get("pushes"), 2);
    }

    #[test]
    fn absolute_bound_suppresses_small_drift() {
        let mut s = CoherencyServer::new();
        s.subscribe(c(1), o(1), Bound::Absolute(1.0));
        assert_eq!(s.update(o(1), 10.0).len(), 1); // first sync
        assert!(s.update(o(1), 10.5).is_empty());
        assert!(s.update(o(1), 10.9).is_empty());
        let pushed = s.update(o(1), 11.5); // drift 1.5 > 1.0
        assert_eq!(pushed.len(), 1);
        assert_eq!(s.client_copy(c(1), o(1)), Some(11.5));
        assert_eq!(s.stats.get("suppressed"), 2);
    }

    #[test]
    fn relative_bound_scales_with_magnitude() {
        let mut s = CoherencyServer::new();
        s.subscribe(c(1), o(1), Bound::Relative(0.10));
        s.update(o(1), 100.0);
        assert!(s.update(o(1), 105.0).is_empty()); // 5% drift
        assert_eq!(s.update(o(1), 120.0).len(), 1); // 20% drift
    }

    #[test]
    fn late_subscriber_gets_current_value() {
        let mut s = CoherencyServer::new();
        s.update(o(1), 42.0);
        let push = s.subscribe(c(1), o(1), Bound::Absolute(5.0));
        assert_eq!(push, Some(PushMsg { client: c(1), object: o(1), value: 42.0 }));
    }

    #[test]
    fn mixed_bounds_per_client() {
        let mut s = CoherencyServer::new();
        s.subscribe(c(1), o(1), Bound::Absolute(0.5));
        s.subscribe(c(2), o(1), Bound::Absolute(5.0));
        s.update(o(1), 0.0);
        let pushes = s.update(o(1), 1.0);
        assert_eq!(pushes.len(), 1);
        assert_eq!(pushes[0].client, c(1));
        assert_eq!(s.subs[&o(1)].len(), 2);
    }

    #[test]
    fn unsubscribe_stops_pushes() {
        let mut s = CoherencyServer::new();
        s.subscribe(c(1), o(1), Bound::Exact);
        s.update(o(1), 1.0);
        assert!(s.unsubscribe(c(1), o(1)));
        assert!(!s.unsubscribe(c(1), o(1)));
        assert!(s.update(o(1), 2.0).is_empty());
    }

    #[test]
    fn resubscribe_updates_bound() {
        let mut s = CoherencyServer::new();
        s.subscribe(c(1), o(1), Bound::Exact);
        s.update(o(1), 1.0);
        s.subscribe(c(1), o(1), Bound::Absolute(100.0));
        assert_eq!(s.subs[&o(1)].len(), 1);
        assert!(s.update(o(1), 50.0).is_empty());
    }

    #[test]
    fn suppression_ratio_grows_with_bound() {
        let mut rng = seeded_rng(17);
        let mut walk = 0.0f64;
        let values: Vec<f64> = (0..2000)
            .map(|_| {
                walk += rng.gen_range(-1.0..1.0);
                walk
            })
            .collect();
        let mut pushes_by_bound = Vec::new();
        for bound in [0.0, 1.0, 4.0, 16.0] {
            let mut s = CoherencyServer::new();
            let b = if bound == 0.0 { Bound::Exact } else { Bound::Absolute(bound) };
            s.subscribe(c(1), o(1), b);
            for &v in &values {
                s.update(o(1), v);
            }
            pushes_by_bound.push(s.stats.get("pushes"));
        }
        // Monotone non-increasing push counts as the bound loosens.
        assert!(pushes_by_bound.windows(2).all(|w| w[0] >= w[1]), "{pushes_by_bound:?}");
        assert!(pushes_by_bound[3] * 10 < pushes_by_bound[0], "{pushes_by_bound:?}");
    }

    proptest! {
        #[test]
        fn prop_client_copy_within_absolute_bound(
            values in proptest::collection::vec(-1000.0f64..1000.0, 1..200),
            eps in 0.1f64..50.0,
        ) {
            let mut s = CoherencyServer::new();
            s.subscribe(c(1), o(1), Bound::Absolute(eps));
            for &v in &values {
                s.update(o(1), v);
                let copy = s.client_copy(c(1), o(1)).expect("synced after first update");
                // The invariant: the client's copy never drifts beyond eps
                // from the source at update boundaries.
                prop_assert!((copy - v).abs() <= eps, "copy {copy} vs source {v} eps {eps}");
            }
        }

        #[test]
        fn prop_exact_bound_equals_distinct_updates(
            values in proptest::collection::vec(-10.0f64..10.0, 1..100),
        ) {
            let mut s = CoherencyServer::new();
            s.subscribe(c(1), o(1), Bound::Exact);
            let mut expected = 0u64;
            let mut last = f64::NAN;
            for &v in &values {
                s.update(o(1), v);
                if v != last {
                    expected += 1;
                    last = v;
                }
            }
            prop_assert_eq!(s.stats.get("pushes"), expected);
        }
    }
}
