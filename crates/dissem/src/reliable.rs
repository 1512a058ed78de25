//! Outbox dissemination over `mv-net`'s client-delivery path.
//!
//! [`crate::resume`] decides *what* a client should eventually see
//! (newest value per object, priority-ordered replay); [`mv_net::Outbox`]
//! decides *how it survives the trip*: every push and every reconnect
//! replay rides the reliable transport, so lost messages retransmit, a
//! message the transport gives up on is retained again (newest-wins), and
//! the client-side [`Replica`] accepts each object's updates in `seq`
//! order only — the end-to-end effect is that a flapping client
//! converges to exactly the retained state, applying each retained
//! update once. This module adds dissem's numbering: one `seq` per push.

use crate::resume::OutMsg;
use crate::sched::Priority;
use mv_common::id::{ClientId, NodeId, ObjectId};
use mv_common::time::SimTime;
use mv_net::{Inbox, Network, Outbox, RetryPolicy};
use mv_obs::TraceCtx;
use rand::Rng;

/// Server side: pushes numbered and handed to the shared outbox.
#[derive(Debug)]
pub struct PushServer {
    /// Client routing, retention, expiry and replay.
    pub outbox: Outbox<OutMsg>,
    /// Sequence number of the newest push.
    seq: u64,
}

/// Client-side replica of pushed object values: the newest [`OutMsg`]
/// per object, so replayed, duplicated or superseded messages count as
/// `stale` and each retained update mutates the replica at most once.
pub type Replica = Inbox<OutMsg>;

impl PushServer {
    /// A server at `server`, shipping `msg_bytes`-sized messages under
    /// `policy`; `seed` pins the transport's retry jitter.
    pub fn new(server: NodeId, policy: RetryPolicy, seed: u64, msg_bytes: u64) -> Self {
        PushServer { outbox: Outbox::new(server, policy, seed, msg_bytes), seq: 0 }
    }

    /// Push a value to a client: delivered over the transport when the
    /// client is connected, retained otherwise.
    #[allow(clippy::too_many_arguments)]
    pub fn push<R: Rng + ?Sized>(
        &mut self,
        net: &mut Network,
        rng: &mut R,
        client: ClientId,
        object: ObjectId,
        value: f64,
        priority: Priority,
        now: SimTime,
    ) {
        self.push_traced(net, rng, client, object, value, priority, now, None);
    }

    /// [`Self::push`] carrying the update's causal context: the context
    /// rides in the [`OutMsg`] through retention, newest-wins merges,
    /// expiry, and reconnect replays, so every transport attempt for
    /// this value hangs off the same trace.
    #[allow(clippy::too_many_arguments)]
    pub fn push_traced<R: Rng + ?Sized>(
        &mut self,
        net: &mut Network,
        rng: &mut R,
        client: ClientId,
        object: ObjectId,
        value: f64,
        priority: Priority,
        now: SimTime,
        ctx: Option<TraceCtx>,
    ) {
        self.seq += 1;
        let msg = OutMsg { object, value, priority, seq: self.seq, ctx };
        self.outbox.offer(net, rng, client, msg, now);
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
        let (server, client) = (NodeId::new(0), NodeId::new(1));
        net.add_node(server, "server");
        net.add_node(client, "client");
        net.add_link_bidi(
            server,
            client,
            LinkSpec::new(SimDuration::from_millis(10), 1e8).with_loss(loss),
        );
        net.set_group(client, 1).unwrap();
        (net, server, client)
    }

    fn drain(
        ps: &mut PushServer,
        replica: &mut Replica,
        net: &mut Network,
        rng: &mut rand::rngs::StdRng,
    ) {
        while let Some(at) = ps.outbox.next_wakeup() {
            for (_client, msg) in ps.outbox.poll(net, rng, at) {
                replica.accept(&msg);
            }
        }
    }

    #[test]
    fn connected_push_rides_the_reliable_transport() {
        let (mut net, server, node) = world(0.0);
        let mut ps = PushServer::new(server, RetryPolicy::default(), 1, 64);
        let mut rng = seeded_rng(1);
        let client = ClientId::new(1);
        ps.outbox.register(client, node);
        ps.push(&mut net, &mut rng, client, ObjectId::new(7), 3.5, Priority::Normal, SimTime::ZERO);
        let mut replica = Replica::new();
        drain(&mut ps, &mut replica, &mut net, &mut rng);
        assert_eq!(replica.get(ObjectId::new(7)).map(|m| m.value), Some(3.5));
        assert_eq!(replica.stats.get("accepted"), 1);
        assert_eq!(ps.outbox.transport.stats.get("delivered"), 1);
    }

    #[test]
    fn flapping_client_receives_every_retained_update_exactly_once() {
        let (mut net, server, node) = world(0.2);
        let mut ps = PushServer::new(server, RetryPolicy::default(), 9, 64);
        let mut rng = seeded_rng(9);
        let client = ClientId::new(1);
        ps.outbox.register(client, node);

        // Client drops off; the link also partitions.
        ps.outbox.disconnect(client);
        net.sever(0, 1);
        for i in 0..10u64 {
            // Two updates per object: only the newest is retained.
            for round in 0..2 {
                ps.push(
                    &mut net,
                    &mut rng,
                    client,
                    ObjectId::new(i),
                    (i * 10 + round) as f64,
                    Priority::Normal,
                    SimTime::ZERO,
                );
            }
        }
        assert_eq!(ps.outbox.retention.backlog(client), 10);

        // Heal + reconnect: the retained backlog replays reliably.
        net.heal(0, 1);
        let replayed = ps.outbox.reconnect(&mut net, &mut rng, client, SimTime::from_secs(1));
        assert_eq!(replayed, 10);
        let mut replica = Replica::new();
        drain(&mut ps, &mut replica, &mut net, &mut rng);

        // Every object holds exactly its newest value, applied once.
        assert_eq!(replica.len(), 10);
        for i in 0..10u64 {
            assert_eq!(replica.get(ObjectId::new(i)).map(|m| m.value), Some((i * 10 + 1) as f64));
        }
        assert_eq!(replica.stats.get("accepted"), 10, "each retained update applied once");
        assert_eq!(replica.stats.get("stale"), 0);
    }

    #[test]
    fn expired_messages_rebuffer_and_replay_after_reconnect() {
        let (mut net, server, node) = world(0.0);
        // Tight policy so expiry happens fast.
        let policy = RetryPolicy { max_attempts: 2, ..RetryPolicy::default() };
        let mut ps = PushServer::new(server, policy, 4, 64);
        let mut rng = seeded_rng(4);
        let client = ClientId::new(1);
        ps.outbox.register(client, node);

        // The server still believes the client is connected, but the
        // network has already partitioned: the send expires.
        net.sever(0, 1);
        ps.push(&mut net, &mut rng, client, ObjectId::new(1), 1.0, Priority::Normal, SimTime::ZERO);
        let mut replica = Replica::new();
        drain(&mut ps, &mut replica, &mut net, &mut rng);
        assert!(replica.is_empty());
        assert_eq!(ps.outbox.transport.stats.get("expired"), 1);
        assert_eq!(ps.outbox.retention.backlog(client), 1, "expired message re-buffered");
        assert!(!ps.outbox.retention.is_connected(client), "expiry implies disconnection");

        // A newer value supersedes the re-buffered one while offline.
        ps.push(&mut net, &mut rng, client, ObjectId::new(1), 2.0, Priority::Normal, SimTime::ZERO);
        net.heal(0, 1);
        ps.outbox.reconnect(&mut net, &mut rng, client, SimTime::from_secs(5));
        drain(&mut ps, &mut replica, &mut net, &mut rng);
        assert_eq!(replica.get(ObjectId::new(1)).map(|m| m.value), Some(2.0));
        assert_eq!(replica.stats.get("accepted"), 1);
    }

    #[test]
    fn two_runs_same_seed_are_identical() {
        let run = || {
            let (mut net, server, node) = world(0.3);
            let mut ps = PushServer::new(server, RetryPolicy::default(), 77, 64);
            let mut rng = seeded_rng(77);
            let client = ClientId::new(1);
            ps.outbox.register(client, node);
            for i in 0..20u64 {
                ps.push(
                    &mut net,
                    &mut rng,
                    client,
                    ObjectId::new(i % 5),
                    i as f64,
                    Priority::Normal,
                    SimTime::from_millis(i),
                );
            }
            let mut replica = Replica::new();
            drain(&mut ps, &mut replica, &mut net, &mut rng);
            (
                format!("{:?}", ps.outbox.transport.stats),
                format!("{:?}", replica.stats),
                (0..5u64)
                    .map(|i| replica.get(ObjectId::new(i)).map(|m| m.value))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }
}
