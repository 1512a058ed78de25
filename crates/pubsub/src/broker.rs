//! A broker tree with subscription covering.
//!
//! The §IV-E vision: pub/sub over an overlay where each peer serves many
//! mobile clients. Brokers form a tree; each broker summarizes its
//! subtree's interests (the union of required terms plus a flag for
//! term-less subscriptions). A publication entering at the root is only
//! forwarded into subtrees whose summary could match — the classic
//! subscription-covering optimization — and we count broker-hop messages
//! against flooding (E15b).

use crate::matcher::{IndexedMatcher, Matcher};
use crate::publication::Publication;
use crate::subscription::Subscription;
use mv_common::hash::FastSet;
use mv_common::metrics::Counters;

/// Node in the broker tree.
#[derive(Debug)]
struct Broker {
    children: Vec<usize>,
    /// Local matcher over subscriptions attached at this broker.
    matcher: IndexedMatcher,
    /// Union of required terms over this broker's subtree.
    subtree_terms: FastSet<String>,
    /// True if any subscription in the subtree has no required term (so
    /// every event could match somewhere below).
    subtree_unfiltered: bool,
}

/// The tree.
#[derive(Debug)]
pub struct BrokerTree {
    brokers: Vec<Broker>,
    parent: Vec<Option<usize>>,
    /// `forwards` (broker-to-broker messages), `deliveries` counters.
    pub stats: Counters,
}

impl BrokerTree {
    /// Build a tree with `depth` levels and `fanout` children per broker
    /// (depth 1 = root only).
    pub fn new(depth: usize, fanout: usize) -> Self {
        assert!(depth >= 1 && fanout >= 1);
        let mut brokers = vec![];
        let mut parent = vec![];
        fn build(
            brokers: &mut Vec<Broker>,
            parent: &mut Vec<Option<usize>>,
            p: Option<usize>,
            depth: usize,
            fanout: usize,
        ) -> usize {
            let id = brokers.len();
            brokers.push(Broker {
                children: Vec::new(),
                matcher: IndexedMatcher::new(),
                subtree_terms: FastSet::default(),
                subtree_unfiltered: false,
            });
            parent.push(p);
            if depth > 1 {
                for _ in 0..fanout {
                    let c = build(brokers, parent, Some(id), depth - 1, fanout);
                    brokers[id].children.push(c);
                }
            }
            id
        }
        build(&mut brokers, &mut parent, None, depth, fanout);
        BrokerTree { brokers, parent, stats: Counters::new() }
    }

    /// Leaf broker ids (where clients attach).
    pub fn leaves(&self) -> Vec<usize> {
        (0..self.brokers.len()).filter(|&b| self.brokers[b].children.is_empty()).collect()
    }

    /// Attach a subscription at a broker; summaries propagate to the root.
    pub fn subscribe(&mut self, broker: usize, sub: Subscription) {
        let first_term = sub.terms.first().cloned();
        self.brokers[broker].matcher.add(sub);
        // Update summaries up the path.
        let mut at = Some(broker);
        while let Some(b) = at {
            match &first_term {
                Some(t) => {
                    self.brokers[b].subtree_terms.insert(t.clone());
                }
                None => self.brokers[b].subtree_unfiltered = true,
            }
            at = self.parent[b];
        }
    }

    fn subtree_may_match(&self, broker: usize, p: &Publication) -> bool {
        let b = &self.brokers[broker];
        b.subtree_unfiltered || p.terms.iter().any(|t| b.subtree_terms.contains(t))
    }

    /// Publish at the root with covering; returns matched subscription
    /// count across the tree.
    pub fn publish(&mut self, p: &Publication) -> usize {
        self.publish_at(0, p)
    }

    /// Publish at `broker` and below: each broker counts its matches
    /// without collecting them ([`IndexedMatcher::count_matches`]), so a
    /// publication allocates nothing.
    fn publish_at(&mut self, broker: usize, p: &Publication) -> usize {
        let mut delivered = self.brokers[broker].matcher.count_matches(p);
        // By index, not a clone: the recursion needs `self` mutably.
        for k in 0..self.brokers[broker].children.len() {
            let c = self.brokers[broker].children[k];
            if self.subtree_may_match(c, p) {
                self.stats.incr("forwards");
                delivered += self.publish_at(c, p);
            } else {
                self.stats.incr("pruned");
            }
        }
        self.stats.add("deliveries", delivered as u64);
        delivered
    }

    /// Publish by flooding (no covering) — the baseline; counts hops.
    pub fn publish_flood(&mut self, p: &Publication) -> usize {
        let mut delivered = 0usize;
        let mut stack = vec![0usize];
        while let Some(b) = stack.pop() {
            delivered += self.brokers[b].matcher.count_matches(p);
            for &c in &self.brokers[b].children {
                self.stats.incr("flood_forwards");
                stack.push(c);
            }
        }
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_common::id::ClientId;
    use mv_common::time::SimTime;

    fn sub(i: u64, term: &str) -> Subscription {
        Subscription::new(ClientId::new(i)).with_term(term)
    }

    #[test]
    fn tree_shape() {
        let t = BrokerTree::new(3, 2);
        assert_eq!(t.brokers.len(), 7);
        assert_eq!(t.leaves().len(), 4);
    }

    #[test]
    fn covering_prunes_uninterested_subtrees() {
        let mut t = BrokerTree::new(3, 2);
        let leaves = t.leaves();
        t.subscribe(leaves[0], sub(1, "sale"));
        t.subscribe(leaves[3], sub(2, "game"));
        let p = Publication::new(SimTime::ZERO).term("sale");
        let delivered = t.publish(&p);
        assert_eq!(delivered, 1);
        // Flooding visits all 6 edges; covering should forward fewer.
        let forwards = t.stats.get("forwards");
        assert!(forwards < 6, "forwards {forwards}");
        assert!(t.stats.get("pruned") > 0);
    }

    #[test]
    fn covering_and_flooding_deliver_identically() {
        let mut t = BrokerTree::new(4, 2);
        let leaves = t.leaves();
        for (i, &leaf) in leaves.iter().enumerate() {
            t.subscribe(leaf, sub(i as u64, if i % 2 == 0 { "sale" } else { "game" }));
        }
        for term in ["sale", "game", "other"] {
            let p = Publication::new(SimTime::ZERO).term(term);
            assert_eq!(t.publish(&p), t.publish_flood(&p), "term {term}");
        }
    }

    #[test]
    fn unfiltered_subscription_defeats_pruning_for_its_subtree() {
        let mut t = BrokerTree::new(2, 2);
        let leaves = t.leaves();
        t.subscribe(leaves[0], Subscription::new(ClientId::new(1))); // matches everything
        let p = Publication::new(SimTime::ZERO).term("whatever");
        assert_eq!(t.publish(&p), 1);
    }

    #[test]
    fn subscriptions_at_inner_brokers_work() {
        let mut t = BrokerTree::new(3, 2);
        t.subscribe(0, sub(1, "root"));
        let p = Publication::new(SimTime::ZERO).term("root");
        assert_eq!(t.publish(&p), 1);
    }
}
