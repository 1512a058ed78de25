//! One client-delivery path over the reliable transport (§IV-C's
//! *"intermittently-connected and disruptive networks"*).
//!
//! [`Outbox`] ships a message to a connected client and retains it while
//! the client is away; a message the transport gives up on is retained
//! again and its client marked disconnected; reconnect replays the
//! backlog in a pinned order. On the client, an [`Inbox`] accepts a
//! message only when its `seq` is newer than the last one it accepted
//! for the same key. The transport's own dedup cannot do that: a message
//! that expires and is replayed gets a fresh transport sequence.
//!
//! Users differ only in their message type's [`Retained`] impl: the
//! retention key (a backlog keeps the newest message per key) and the
//! replay order. `mv-dissem` keys by object and replays by `(priority,
//! object)`; `mv-pubsub` keys by `pub_id`, so every publication is kept,
//! and replays by `pub_id`. See DESIGN.md ("Fault model").

use crate::network::Network;
use crate::reliable::{Event, ReliableTransport, RetryPolicy};
use mv_common::hash::FastMap;
use mv_common::id::{ClientId, NodeId};
use mv_common::metrics::Counters;
use mv_common::time::SimTime;
use mv_obs::TraceCtx;
use rand::Rng;
use std::collections::hash_map::Entry;
use std::fmt::Debug;
use std::hash::Hash;

/// A message an [`Outbox`] can retain and an [`Inbox`] can deduplicate.
pub trait Retained: Clone + Debug {
    /// Retention key: a backlog holds one message per key.
    type Key: Copy + Eq + Hash + Debug;
    /// Replay order; total over distinct keys, so a backlog replays the
    /// same way whatever order it was filled in.
    type Order: Ord;
    /// This message's retention key.
    fn key(&self) -> Self::Key;
    /// Of two messages with one key, the higher `seq` is the newer.
    fn seq(&self) -> u64;
    /// This message's place in a reconnect replay.
    fn order(&self) -> Self::Order;
    /// Causal context, carried through retention, replay and every
    /// transport attempt.
    fn ctx(&self) -> Option<TraceCtx>;
}

#[derive(Debug)]
struct Backlog<M: Retained> {
    connected: bool,
    retained: FastMap<M::Key, M>,
}

/// What each client still needs to see: its connection state and its
/// backlog. Network-free, so the retention rule can be measured alone.
#[derive(Debug)]
pub struct Retention<M: Retained> {
    clients: FastMap<ClientId, Backlog<M>>,
    /// `shipped`, `retained`, `merged` (an older message for a key died)
    /// and `replayed` counters (`net.outbox.*` in a registry).
    pub stats: Counters,
}

impl<M: Retained> Default for Retention<M> {
    fn default() -> Self {
        Retention { clients: FastMap::default(), stats: Counters::new() }
    }
}

impl<M: Retained> Retention<M> {
    /// No clients.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a client; a new one starts connected. Re-registering a
    /// known client keeps its backlog and its connection state.
    pub fn register(&mut self, client: ClientId) {
        let fresh = || Backlog { connected: true, retained: FastMap::default() };
        self.clients.entry(client).or_insert_with(fresh);
    }

    /// Mark a client disconnected: its messages are retained from now on.
    pub fn disconnect(&mut self, client: ClientId) {
        if let Some(b) = self.clients.get_mut(&client) {
            b.connected = false;
        }
    }

    /// Is the client currently connected?
    pub fn is_connected(&self, client: ClientId) -> bool {
        self.clients.get(&client).is_some_and(|b| b.connected)
    }

    /// Messages waiting for a client.
    pub fn backlog(&self, client: ClientId) -> usize {
        self.clients.get(&client).map_or(0, |b| b.retained.len())
    }

    /// Ship or retain: the message back when its client is connected,
    /// `None` when it was retained (client away) or dropped (unknown).
    pub fn offer(&mut self, client: ClientId, msg: M) -> Option<M> {
        let backlog = self.clients.get_mut(&client)?;
        if backlog.connected {
            self.stats.incr("shipped");
            return Some(msg);
        }
        retain(backlog, &mut self.stats, msg);
        None
    }

    /// Take back a message whose delivery failed: the client is marked
    /// disconnected and the message retained, unless its key already
    /// holds an equal or higher `seq`.
    pub fn rebuffer(&mut self, client: ClientId, msg: M) {
        if let Some(backlog) = self.clients.get_mut(&client) {
            backlog.connected = false;
            retain(backlog, &mut self.stats, msg);
        }
    }

    /// Reconnect a client: marks it connected and hands back its backlog
    /// in ascending [`Retained::order`].
    pub fn reconnect(&mut self, client: ClientId) -> Vec<M> {
        let Some(backlog) = self.clients.get_mut(&client) else {
            return Vec::new();
        };
        backlog.connected = true;
        let mut msgs: Vec<M> = backlog.retained.drain().map(|(_, m)| m).collect();
        msgs.sort_by_key(M::order);
        self.stats.add("replayed", msgs.len() as u64);
        msgs
    }
}

/// Newest-wins by `seq` within one key.
fn retain<M: Retained>(backlog: &mut Backlog<M>, stats: &mut Counters, msg: M) {
    match backlog.retained.entry(msg.key()) {
        Entry::Occupied(mut held) => {
            if held.get().seq() < msg.seq() {
                held.insert(msg);
            }
            stats.incr("merged");
        }
        Entry::Vacant(slot) => {
            slot.insert(msg);
            stats.incr("retained");
        }
    }
}

/// Server side: client routing and [`Retention`] wired onto
/// [`ReliableTransport`]. Attach a tracer to the transport and the
/// retain, rebuffer and replay steps log `net.outbox.*` events on it.
#[derive(Debug)]
pub struct Outbox<M: Retained> {
    /// The sending node.
    node: NodeId,
    /// Wire bytes charged per message.
    msg_bytes: u64,
    /// What each client still needs to see.
    pub retention: Retention<M>,
    /// Delivery machinery (retries, transport dedup, expiry).
    pub transport: ReliableTransport<M>,
    /// client → its network node.
    routes: FastMap<ClientId, NodeId>,
    /// network node → client, for mapping transport events back.
    clients_by_node: FastMap<NodeId, ClientId>,
}

impl<M: Retained> Outbox<M> {
    /// An outbox at `node`, shipping `msg_bytes`-sized messages under
    /// `policy`; `seed` pins the transport's retry jitter.
    pub fn new(node: NodeId, policy: RetryPolicy, seed: u64, msg_bytes: u64) -> Self {
        Outbox {
            node,
            msg_bytes,
            retention: Retention::new(),
            transport: ReliableTransport::new(policy, seed),
            routes: FastMap::default(),
            clients_by_node: FastMap::default(),
        }
    }

    /// Register a client living at `node` (see [`Retention::register`]).
    pub fn register(&mut self, client: ClientId, node: NodeId) {
        self.retention.register(client);
        self.routes.insert(client, node);
        self.clients_by_node.insert(node, client);
    }

    /// Mark a client disconnected: its messages are retained from now on.
    pub fn disconnect(&mut self, client: ClientId) {
        self.retention.disconnect(client);
    }

    /// Ship `msg` to a connected client, retain it for an absent one,
    /// drop it for an unregistered one.
    pub fn offer<R: Rng + ?Sized>(
        &mut self,
        net: &mut Network,
        rng: &mut R,
        client: ClientId,
        msg: M,
        now: SimTime,
    ) {
        let Some(&dst) = self.routes.get(&client) else {
            return;
        };
        let ctx = msg.ctx();
        match self.retention.offer(client, msg) {
            Some(msg) => {
                self.transport.send_traced(net, rng, self.node, dst, msg, self.msg_bytes, now, ctx);
            }
            None => self.trace(ctx, "net.outbox.retain", now),
        }
    }

    /// Reconnect a client and ship its backlog in replay order. Returns
    /// how many messages were replayed onto the wire.
    pub fn reconnect<R: Rng + ?Sized>(
        &mut self,
        net: &mut Network,
        rng: &mut R,
        client: ClientId,
        now: SimTime,
    ) -> usize {
        let Some(&dst) = self.routes.get(&client) else {
            return 0;
        };
        let backlog = self.retention.reconnect(client);
        let n = backlog.len();
        for msg in backlog {
            let ctx = msg.ctx();
            self.trace(ctx, "net.outbox.replay", now);
            self.transport.send_traced(net, rng, self.node, dst, msg, self.msg_bytes, now, ctx);
        }
        n
    }

    /// Earliest pending transport work; drive the clock here and `poll`.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.transport.next_wakeup()
    }

    /// Pump the transport up to `now`. Messages that reached a client
    /// node are returned for the client's [`Inbox`]; messages the
    /// transport gave up on are [rebuffered](Retention::rebuffer), so the
    /// next [`reconnect`](Self::reconnect) replays them.
    pub fn poll<R: Rng + ?Sized>(
        &mut self,
        net: &mut Network,
        rng: &mut R,
        now: SimTime,
    ) -> Vec<(ClientId, M)> {
        let mut arrived = Vec::new();
        for ev in self.transport.poll(net, rng, now) {
            match ev {
                Event::Delivered { dst, payload, .. } => {
                    if let Some(&client) = self.clients_by_node.get(&dst) {
                        arrived.push((client, payload));
                    }
                }
                Event::Expired { dst, payload, at, .. } => {
                    if let Some(&client) = self.clients_by_node.get(&dst) {
                        self.trace(payload.ctx(), "net.outbox.rebuffer", at);
                        self.retention.rebuffer(client, payload);
                    }
                }
            }
        }
        arrived
    }

    /// A node crashed: drop the transport's volatile state for it and,
    /// if a client lived there, start retaining for it. Call from
    /// `FaultTarget::on_node_crash`.
    pub fn on_node_crash(&mut self, node: NodeId) {
        self.transport.on_node_crash(node);
        if let Some(&client) = self.clients_by_node.get(&node) {
            self.retention.disconnect(client);
        }
    }

    fn trace(&self, ctx: Option<TraceCtx>, name: &'static str, at: SimTime) {
        if let (Some(tr), Some(c)) = (self.transport.tracer(), ctx) {
            tr.event(c, name, at, "ok");
        }
    }
}

/// Client side: the newest accepted message per key. A message is
/// accepted only when its `seq` is higher than its key's, so transport
/// retries, reconnect replays and superseded values are absorbed and
/// each retained message is processed at most once.
#[derive(Debug)]
pub struct Inbox<M: Retained> {
    latest: FastMap<M::Key, M>,
    /// `accepted` / `stale` counters.
    pub stats: Counters,
}

impl<M: Retained> Default for Inbox<M> {
    fn default() -> Self {
        Inbox { latest: FastMap::default(), stats: Counters::new() }
    }
}

impl<M: Retained> Inbox<M> {
    /// An empty inbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accept `msg` if it is newer than what its key holds; otherwise
    /// count it `stale` and return false.
    pub fn accept(&mut self, msg: &M) -> bool {
        if self.latest.get(&msg.key()).is_some_and(|held| held.seq() >= msg.seq()) {
            self.stats.incr("stale");
            return false;
        }
        self.latest.insert(msg.key(), msg.clone());
        self.stats.incr("accepted");
        true
    }

    /// The newest accepted message for `key`.
    pub fn get(&self, key: M::Key) -> Option<&M> {
        self.latest.get(&key)
    }

    /// Number of keys holding a message.
    pub fn len(&self) -> usize {
        self.latest.len()
    }

    /// True when nothing has been accepted.
    pub fn is_empty(&self) -> bool {
        self.latest.is_empty()
    }

    /// Drop all state (a client crash loses its inbox).
    pub fn clear(&mut self) {
        self.latest.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use mv_common::seeded_rng;
    use mv_common::time::SimDuration;
    use mv_obs::SharedTracer;

    /// A minimal policy: keyed by `key`, replayed by `key`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Msg {
        key: u64,
        seq: u64,
        ctx: Option<TraceCtx>,
    }

    impl Retained for Msg {
        type Key = u64;
        type Order = u64;
        fn key(&self) -> u64 {
            self.key
        }
        fn seq(&self) -> u64 {
            self.seq
        }
        fn order(&self) -> u64 {
            self.key
        }
        fn ctx(&self) -> Option<TraceCtx> {
            self.ctx
        }
    }

    fn msg(key: u64, seq: u64) -> Msg {
        Msg { key, seq, ctx: None }
    }

    const C: ClientId = ClientId::new(1);

    #[test]
    fn re_registering_keeps_the_backlog_and_the_connection_state() {
        let mut r = Retention::new();
        r.register(C);
        r.disconnect(C);
        assert!(r.offer(C, msg(1, 1)).is_none());
        assert!(r.offer(C, msg(2, 2)).is_none());
        r.register(C);
        assert!(!r.is_connected(C), "re-registering does not reconnect");
        assert_eq!(r.backlog(C), 2, "re-registering keeps what was retained");
        assert_eq!(r.reconnect(C), vec![msg(1, 1), msg(2, 2)]);
    }

    #[test]
    fn a_key_keeps_its_highest_seq_whatever_the_arrival_order() {
        let mut r = Retention::new();
        r.register(C);
        r.disconnect(C);
        r.offer(C, msg(3, 5));
        r.rebuffer(C, msg(3, 4)); // an older bounce dies
        r.offer(C, msg(1, 6));
        r.rebuffer(C, msg(1, 7)); // a newer bounce replaces
        assert_eq!(r.stats.get("retained"), 2);
        assert_eq!(r.stats.get("merged"), 2);
        assert_eq!(r.reconnect(C), vec![msg(1, 7), msg(3, 5)], "replay in key order");
        assert_eq!(r.stats.get("replayed"), 2);

        let mut inbox = Inbox::new();
        assert!(inbox.accept(&msg(3, 5)));
        assert!(!inbox.accept(&msg(3, 5)), "a duplicate is stale");
        assert!(!inbox.accept(&msg(3, 4)), "an older seq is stale");
        assert!(inbox.accept(&msg(3, 9)));
        assert_eq!(inbox.get(3), Some(&msg(3, 9)));
        assert_eq!((inbox.stats.get("accepted"), inbox.stats.get("stale")), (2, 2));
    }

    #[test]
    fn retain_rebuffer_and_replay_are_traced() {
        let mut net = Network::new();
        let (server, node) = (NodeId::new(0), NodeId::new(1));
        net.add_node(server, "server");
        net.add_node(node, "client");
        net.add_link_bidi(server, node, LinkSpec::new(SimDuration::from_millis(5), 1e8));
        net.set_group(node, 1).unwrap();
        let mut rng = seeded_rng(5);
        let policy = RetryPolicy { max_attempts: 2, ..RetryPolicy::default() };
        let mut outbox = Outbox::new(server, policy, 5, 64);
        let tracer = SharedTracer::new();
        outbox.transport.set_tracer(tracer.clone());
        outbox.register(C, node);
        let ctx = |at| Some(tracer.start_trace("test.update", at));

        net.sever(0, 1);
        outbox.offer(
            &mut net,
            &mut rng,
            C,
            Msg { key: 1, seq: 1, ctx: ctx(SimTime::ZERO) },
            SimTime::ZERO,
        );
        while let Some(at) = outbox.next_wakeup() {
            assert!(outbox.poll(&mut net, &mut rng, at).is_empty());
        }
        assert!(!outbox.retention.is_connected(C), "expiry implies disconnection");
        outbox.offer(
            &mut net,
            &mut rng,
            C,
            Msg { key: 2, seq: 2, ctx: ctx(SimTime::ZERO) },
            SimTime::ZERO,
        );
        net.heal(0, 1);
        let now = SimTime::from_secs(5);
        assert_eq!(outbox.reconnect(&mut net, &mut rng, C, now), 2);
        let mut inbox = Inbox::new();
        while let Some(at) = outbox.next_wakeup() {
            for (_, m) in outbox.poll(&mut net, &mut rng, at) {
                inbox.accept(&m);
            }
        }
        assert_eq!(inbox.len(), 2);
        let events: Vec<&str> = tracer.records().iter().map(|r| r.name).collect();
        for name in ["net.outbox.rebuffer", "net.outbox.retain", "net.outbox.replay"] {
            assert!(events.contains(&name), "{name} missing from {events:?}");
        }
    }
}
