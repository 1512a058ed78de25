//! Disruption-tolerant client outboxes: dissem's retention policy.
//!
//! §IV-C points to *"methods developed for intermittently-connected and
//! disruptive networks \[92\]"* (ICeDB). Mobile co-space clients drop off
//! cellular links constantly; while a client is disconnected the server
//! retains its pushes in an outbox that (a) keeps only the newest value
//! per object — stale intermediate values are useless to a reconnecting
//! client — and (b) releases the backlog in priority order on reconnect.
//!
//! The outbox itself is `mv-net`'s [`mv_net::Retention`]; this module is
//! the policy it runs with: [`OutMsg`] is retained by object and replayed
//! by `(priority, object)`.

use crate::sched::Priority;
use mv_common::id::ObjectId;
use mv_net::Retained;
use mv_obs::TraceCtx;

/// One retained (or delivered) outbox message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutMsg {
    /// Target object.
    pub object: ObjectId,
    /// Newest value.
    pub value: f64,
    /// Criticality (drives replay order).
    pub priority: Priority,
    /// Monotone sequence number of the *latest* absorbed update.
    pub seq: u64,
    /// Causal context of the *latest* absorbed update (newest-wins
    /// merges keep the winner's context, like its value).
    pub ctx: Option<TraceCtx>,
}

/// Newest value per object; replay most critical first, ties broken by
/// object id. Object keys are unique within a backlog, so the replay
/// order is total: two runs that retained the same messages (in any
/// insertion order) replay them identically.
impl Retained for OutMsg {
    type Key = ObjectId;
    type Order = (Priority, ObjectId);
    fn key(&self) -> ObjectId {
        self.object
    }
    fn seq(&self) -> u64 {
        self.seq
    }
    fn order(&self) -> (Priority, ObjectId) {
        (self.priority, self.object)
    }
    fn ctx(&self) -> Option<TraceCtx> {
        self.ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_common::id::ClientId;
    use mv_net::Retention;

    fn c(i: u64) -> ClientId {
        ClientId::new(i)
    }
    fn o(i: u64) -> ObjectId {
        ObjectId::new(i)
    }

    /// The retention rule with dissem's numbering: one `seq` per push.
    #[derive(Default)]
    struct Mgr {
        outbox: Retention<OutMsg>,
        seq: u64,
    }

    impl Mgr {
        fn push(
            &mut self,
            client: ClientId,
            object: ObjectId,
            value: f64,
            priority: Priority,
        ) -> Option<OutMsg> {
            self.seq += 1;
            self.outbox.offer(client, OutMsg { object, value, priority, seq: self.seq, ctx: None })
        }
    }

    fn registered(client: ClientId) -> Mgr {
        let mut m = Mgr::default();
        m.outbox.register(client);
        m
    }

    #[test]
    fn connected_clients_get_immediate_delivery() {
        let mut m = registered(c(1));
        let msg = m.push(c(1), o(1), 5.0, Priority::Normal);
        assert!(msg.is_some());
        assert_eq!(m.outbox.stats.get("shipped"), 1);
        assert_eq!(m.outbox.backlog(c(1)), 0);
    }

    #[test]
    fn disconnected_pushes_buffer_and_merge() {
        let mut m = registered(c(1));
        m.outbox.disconnect(c(1));
        assert!(m.push(c(1), o(1), 1.0, Priority::Normal).is_none());
        assert!(m.push(c(1), o(1), 2.0, Priority::Normal).is_none());
        assert!(m.push(c(1), o(1), 3.0, Priority::Normal).is_none());
        assert!(m.push(c(1), o(2), 9.0, Priority::Normal).is_none());
        // Three updates to o(1) collapse into one buffered message.
        assert_eq!(m.outbox.backlog(c(1)), 2);
        assert_eq!(m.outbox.stats.get("merged"), 2);
        let replay = m.outbox.reconnect(c(1));
        assert_eq!(replay.len(), 2);
        let o1 = replay.iter().find(|r| r.object == o(1)).unwrap();
        assert_eq!(o1.value, 3.0); // newest wins
    }

    #[test]
    fn replay_is_priority_ordered() {
        let mut m = registered(c(1));
        m.outbox.disconnect(c(1));
        m.push(c(1), o(3), 1.0, Priority::Bulk);
        m.push(c(1), o(1), 2.0, Priority::Critical);
        m.push(c(1), o(2), 3.0, Priority::High);
        let replay = m.outbox.reconnect(c(1));
        let prios: Vec<Priority> = replay.iter().map(|r| r.priority).collect();
        assert_eq!(prios, vec![Priority::Critical, Priority::High, Priority::Bulk]);
        assert!(m.outbox.is_connected(c(1)));
    }

    #[test]
    fn unknown_client_is_dropped_silently() {
        let mut m = Mgr::default();
        assert!(m.push(c(9), o(1), 1.0, Priority::Normal).is_none());
        assert!(m.outbox.reconnect(c(9)).is_empty());
        assert!(!m.outbox.is_connected(c(9)));
    }

    #[test]
    fn equal_priority_replay_order_is_pinned_across_insertion_orders() {
        // The documented tie-break is ascending object id. Buffer the
        // same equal-priority messages in three different insertion
        // orders; every reconnect must drain them identically.
        let objects = [7u64, 3, 9, 1, 5];
        let orders: [Vec<usize>; 3] =
            [vec![0, 1, 2, 3, 4], vec![4, 3, 2, 1, 0], vec![2, 0, 4, 1, 3]];
        let mut replays = Vec::new();
        for order in &orders {
            let mut m = registered(c(1));
            m.outbox.disconnect(c(1));
            for &i in order {
                m.push(c(1), o(objects[i]), objects[i] as f64, Priority::Normal);
            }
            let replay: Vec<u64> =
                m.outbox.reconnect(c(1)).iter().map(|r| r.object.raw()).collect();
            replays.push(replay);
        }
        assert_eq!(replays[0], vec![1, 3, 5, 7, 9], "ascending object id");
        assert_eq!(replays[0], replays[1]);
        assert_eq!(replays[0], replays[2]);
    }

    #[test]
    fn rebuffer_keeps_the_newest_value_and_disconnects() {
        let mut m = registered(c(1));
        // A delivered message later bounces (transport gave up on it).
        let stale = m.push(c(1), o(1), 1.0, Priority::Normal).unwrap();
        let fresh = m.push(c(1), o(1), 2.0, Priority::Normal).unwrap();
        m.outbox.rebuffer(c(1), fresh);
        assert!(!m.outbox.is_connected(c(1)));
        // The older bounce must not clobber the newer buffered value.
        m.outbox.rebuffer(c(1), stale);
        let replay = m.outbox.reconnect(c(1));
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].value, 2.0);
        // Unknown clients are ignored.
        m.outbox.rebuffer(c(9), stale);
        assert_eq!(m.outbox.backlog(c(9)), 0);
    }

    #[test]
    fn reconnect_resumes_immediate_delivery() {
        let mut m = registered(c(1));
        m.outbox.disconnect(c(1));
        m.push(c(1), o(1), 1.0, Priority::Normal);
        m.outbox.reconnect(c(1));
        assert!(m.push(c(1), o(1), 2.0, Priority::Normal).is_some());
    }
}
