//! A single matcher-backed broker delivering over `mv-net`'s
//! client-delivery path.
//!
//! [`crate::broker::BrokerTree`] studies *routing* (which subtrees an
//! event must visit); this module studies *delivery*: once the matcher
//! says a client is interested, the notification still has to cross a
//! lossy, partitioning network. Each publication is assigned a monotone
//! `pub_id` and every matched client's copy goes to [`mv_net::Outbox`],
//! which ships it (connected clients) or retains it (disconnected
//! clients, and messages the transport gave up on). [`PubMsg`] is the
//! policy: it is retained by `pub_id`, so every matched publication
//! survives, and reconnect replays in ascending `pub_id` order — a total,
//! pinned order. The client-side [`InboxDedup`] drops `pub_id`s it has
//! already seen, so a flapping client processes every retained
//! publication exactly once even when transport-level retries or replays
//! duplicate the bytes.

use crate::matcher::{IndexedMatcher, Matcher};
use crate::publication::Publication;
use crate::subscription::Subscription;
use mv_common::id::{ClientId, NodeId};
use mv_common::metrics::Counters;
use mv_common::time::SimTime;
use mv_net::{Inbox, Network, Outbox, Retained, RetryPolicy};
use mv_obs::TraceCtx;
use rand::Rng;
use std::collections::BTreeSet;

/// One matched notification in flight (or retained).
#[derive(Debug, Clone, PartialEq)]
// lint:allow(dead-pub): exposed by `InboxDedup`, which other crates use
pub struct PubMsg {
    /// Broker-assigned monotone id: the retention key, the app-level
    /// dedup key and the replay order.
    pub pub_id: u64,
    /// The matched publication.
    pub publication: Publication,
    /// Causal context of the publish, carried through retention,
    /// replay, and every transport attempt.
    pub ctx: Option<TraceCtx>,
}

/// Every publication kept (`pub_id` keys are unique), replayed in
/// `pub_id` order.
impl Retained for PubMsg {
    type Key = u64;
    type Order = u64;
    fn key(&self) -> u64 {
        self.pub_id
    }
    fn seq(&self) -> u64 {
        self.pub_id
    }
    fn order(&self) -> u64 {
        self.pub_id
    }
    fn ctx(&self) -> Option<TraceCtx> {
        self.ctx
    }
}

/// Client-side inbox dedup: processes each `pub_id` once, however many
/// times the bytes arrive (transport retries, reconnect replays).
pub type InboxDedup = Inbox<PubMsg>;

/// Broker: matcher + the shared client outbox.
#[derive(Debug)]
pub struct ReliableBroker {
    matcher: IndexedMatcher,
    /// Client routing, retention, expiry and replay.
    pub outbox: Outbox<PubMsg>,
    next_pub_id: u64,
    /// `matched` counter (`pubsub.broker.*` in a registry).
    pub stats: Counters,
}

impl ReliableBroker {
    /// A broker at `node`, charging `msg_bytes` per notification;
    /// `seed` pins the transport's retry jitter.
    pub fn new(node: NodeId, policy: RetryPolicy, seed: u64, msg_bytes: u64) -> Self {
        ReliableBroker {
            matcher: IndexedMatcher::new(),
            outbox: Outbox::new(node, policy, seed, msg_bytes),
            next_pub_id: 0,
            stats: Counters::new(),
        }
    }

    /// Attach a subscription (routed by its `client` field).
    pub fn subscribe(&mut self, sub: Subscription) {
        self.matcher.add(sub);
    }

    /// Publish: match, assign a `pub_id`, and offer it to each matched
    /// client. Returns the `pub_id` (also when nothing matched).
    pub fn publish<R: Rng + ?Sized>(
        &mut self,
        net: &mut Network,
        rng: &mut R,
        p: Publication,
        now: SimTime,
    ) -> u64 {
        self.publish_traced(net, rng, p, now, None)
    }

    /// [`Self::publish`] carrying the publish's causal context: every
    /// matched client's delivery (including retention and replay) hangs
    /// off the same trace.
    pub(crate) fn publish_traced<R: Rng + ?Sized>(
        &mut self,
        net: &mut Network,
        rng: &mut R,
        p: Publication,
        now: SimTime,
        ctx: Option<TraceCtx>,
    ) -> u64 {
        let pub_id = self.next_pub_id;
        self.next_pub_id += 1;
        // A client with several matching subscriptions gets the event
        // once; BTreeSet keeps the fan-out order deterministic.
        let matched: BTreeSet<ClientId> = self
            .matcher
            .match_pub(&p)
            .into_iter()
            .map(|i| self.matcher.get(i).client)
            .collect();
        for client in matched {
            self.stats.incr("matched");
            let msg = PubMsg { pub_id, publication: p.clone(), ctx };
            self.outbox.offer(net, rng, client, msg, now);
        }
        pub_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_common::seeded_rng;
    use mv_common::time::SimDuration;
    use mv_net::LinkSpec;

    fn world(loss: f64) -> (Network, NodeId, NodeId) {
        let mut net = Network::new();
        let (broker, client) = (NodeId::new(0), NodeId::new(1));
        net.add_node(broker, "broker");
        net.add_node(client, "client");
        net.add_link_bidi(
            broker,
            client,
            LinkSpec::new(SimDuration::from_millis(8), 1e8).with_loss(loss),
        );
        net.set_group(client, 1).unwrap();
        (net, broker, client)
    }

    fn drain(
        broker: &mut ReliableBroker,
        inbox: &mut InboxDedup,
        net: &mut Network,
        rng: &mut rand::rngs::StdRng,
    ) -> Vec<u64> {
        let mut processed = Vec::new();
        while let Some(at) = broker.outbox.next_wakeup() {
            for (_client, msg) in broker.outbox.poll(net, rng, at) {
                if inbox.accept(&msg) {
                    processed.push(msg.pub_id);
                }
            }
        }
        processed
    }

    fn sale(i: u64) -> Publication {
        Publication::new(SimTime::from_millis(i)).term("sale").attr("n", i as f64)
    }

    #[test]
    fn matched_publications_reach_the_subscriber() {
        let (mut net, bnode, cnode) = world(0.0);
        let mut broker = ReliableBroker::new(bnode, RetryPolicy::default(), 1, 128);
        let mut rng = seeded_rng(1);
        let client = ClientId::new(1);
        broker.outbox.register(client, cnode);
        broker.subscribe(Subscription::new(client).with_term("sale"));
        broker.publish(&mut net, &mut rng, sale(0), SimTime::ZERO);
        broker.publish(&mut net, &mut rng, Publication::new(SimTime::ZERO).term("game"), SimTime::ZERO);
        let mut inbox = InboxDedup::new();
        let processed = drain(&mut broker, &mut inbox, &mut net, &mut rng);
        assert_eq!(processed, vec![0], "only the matching publication arrives");
        assert_eq!(broker.stats.get("matched"), 1);
    }

    #[test]
    fn overlapping_subscriptions_deliver_once_per_publication() {
        let (mut net, bnode, cnode) = world(0.0);
        let mut broker = ReliableBroker::new(bnode, RetryPolicy::default(), 2, 128);
        let mut rng = seeded_rng(2);
        let client = ClientId::new(1);
        broker.outbox.register(client, cnode);
        broker.subscribe(Subscription::new(client).with_term("sale"));
        broker.subscribe(Subscription::new(client)); // unfiltered — also matches
        broker.publish(&mut net, &mut rng, sale(0), SimTime::ZERO);
        let mut inbox = InboxDedup::new();
        let processed = drain(&mut broker, &mut inbox, &mut net, &mut rng);
        assert_eq!(processed, vec![0]);
        assert_eq!(inbox.stats.get("stale"), 0, "broker collapses per-client fan-out");
    }

    #[test]
    fn flapping_client_processes_every_retained_publication_exactly_once() {
        let (mut net, bnode, cnode) = world(0.25);
        let mut broker = ReliableBroker::new(bnode, RetryPolicy::default(), 8, 128);
        let mut rng = seeded_rng(8);
        let client = ClientId::new(1);
        broker.outbox.register(client, cnode);
        broker.subscribe(Subscription::new(client).with_term("sale"));
        let mut inbox = InboxDedup::new();

        // Phase 1: connected, lossy — some publications flow.
        for i in 0..5 {
            broker.publish(&mut net, &mut rng, sale(i), SimTime::from_millis(i));
        }
        drain(&mut broker, &mut inbox, &mut net, &mut rng);

        // Phase 2: client flaps off; publications retain.
        broker.outbox.disconnect(client);
        net.sever(0, 1);
        for i in 5..12 {
            broker.publish(&mut net, &mut rng, sale(i), SimTime::from_millis(i));
        }
        assert_eq!(broker.outbox.retention.backlog(client), 7);

        // Phase 3: heal + reconnect; the retained backlog is re-sent in
        // ascending pub_id order (arrival order may still shuffle under
        // loss — the guarantee is exactly-once, not ordered delivery).
        net.heal(0, 1);
        assert_eq!(broker.outbox.reconnect(&mut net, &mut rng, client, SimTime::from_secs(1)), 7);
        let mut replayed = drain(&mut broker, &mut inbox, &mut net, &mut rng);
        replayed.sort_unstable();
        assert_eq!(replayed, (5..12).collect::<Vec<u64>>(), "every retained pub, none twice");

        // Every matched publication processed exactly once.
        assert_eq!(inbox.len(), 12);
        assert_eq!(inbox.stats.get("accepted"), 12);
        assert_eq!(broker.outbox.retention.backlog(client), 0);
    }

    #[test]
    fn re_registering_a_disconnected_client_keeps_its_retained_publications() {
        let (mut net, bnode, cnode) = world(0.0);
        let mut broker = ReliableBroker::new(bnode, RetryPolicy::default(), 5, 128);
        let mut rng = seeded_rng(5);
        let client = ClientId::new(1);
        broker.outbox.register(client, cnode);
        broker.subscribe(Subscription::new(client).with_term("sale"));
        broker.outbox.disconnect(client);
        for i in 0..4 {
            broker.publish(&mut net, &mut rng, sale(i), SimTime::from_millis(i));
        }
        // The client's registration is repeated (say, by a session
        // layer that re-announces it) while it is still away.
        broker.outbox.register(client, cnode);
        assert!(!broker.outbox.retention.is_connected(client));
        assert_eq!(broker.outbox.reconnect(&mut net, &mut rng, client, SimTime::from_secs(1)), 4);
        let mut inbox = InboxDedup::new();
        let processed = drain(&mut broker, &mut inbox, &mut net, &mut rng);
        assert_eq!(processed, vec![0, 1, 2, 3], "every retained publication replayed");
    }

    #[test]
    fn expired_notifications_survive_via_retention() {
        let (mut net, bnode, cnode) = world(0.0);
        let policy = RetryPolicy { max_attempts: 2, ..RetryPolicy::default() };
        let mut broker = ReliableBroker::new(bnode, policy, 3, 128);
        let mut rng = seeded_rng(3);
        let client = ClientId::new(1);
        broker.outbox.register(client, cnode);
        broker.subscribe(Subscription::new(client).with_term("sale"));

        // Partition strikes before the broker learns of it.
        net.sever(0, 1);
        broker.publish(&mut net, &mut rng, sale(0), SimTime::ZERO);
        let mut inbox = InboxDedup::new();
        drain(&mut broker, &mut inbox, &mut net, &mut rng);
        assert!(inbox.is_empty());
        assert_eq!(broker.outbox.transport.stats.get("expired"), 1);
        assert_eq!(broker.outbox.retention.backlog(client), 1, "expired notification retained");

        net.heal(0, 1);
        broker.outbox.reconnect(&mut net, &mut rng, client, SimTime::from_secs(10));
        let processed = drain(&mut broker, &mut inbox, &mut net, &mut rng);
        assert_eq!(processed, vec![0]);
    }

    #[test]
    fn two_runs_same_seed_are_identical() {
        let run = || {
            let (mut net, bnode, cnode) = world(0.3);
            let mut broker = ReliableBroker::new(bnode, RetryPolicy::default(), 42, 128);
            let mut rng = seeded_rng(42);
            let client = ClientId::new(1);
            broker.outbox.register(client, cnode);
            broker.subscribe(Subscription::new(client).with_term("sale"));
            let mut inbox = InboxDedup::new();
            for i in 0..15 {
                broker.publish(&mut net, &mut rng, sale(i), SimTime::from_millis(i));
            }
            let processed = drain(&mut broker, &mut inbox, &mut net, &mut rng);
            let transport = format!("{:?}", broker.outbox.transport.stats);
            (processed, transport, format!("{:?}", broker.stats))
        };
        assert_eq!(run(), run());
    }
}
