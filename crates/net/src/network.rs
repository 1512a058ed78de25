//! A routed, message-level network model.
//!
//! Nodes are registered with a kind label; links are directed pairs with a
//! [`LinkSpec`]. Transfers are store-and-forward: each hop adds propagation
//! latency (+ jitter), a serialization delay, and queues behind earlier
//! transfers on the same link (per-link `busy_until`). Group partitions
//! model the network partitions §IV-E1 worries about.

use crate::link::LinkSpec;
use mv_common::hash::{FastMap, FastSet};
use mv_common::id::NodeId;
use mv_common::metrics::Counters;
use mv_common::time::{SimDuration, SimTime};
use mv_common::{MvError, MvResult};
use rand::Rng;

/// Outcome of a transfer attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// lint:allow(dead-pub): returned by `Network::transfer`, which other crates call
pub enum Delivery {
    /// The message arrives at the destination at this time.
    At(SimTime),
    /// The message was lost on a lossy link.
    Lost,
}

impl Delivery {
    /// The arrival time, if delivered.
    pub fn time(self) -> Option<SimTime> {
        match self {
            Delivery::At(t) => Some(t),
            Delivery::Lost => None,
        }
    }
}

#[derive(Debug, Clone)]
struct NodeInfo {
    #[allow(dead_code)]
    kind: &'static str,
    group: u32,
}

#[derive(Debug, Clone)]
struct LinkState {
    spec: LinkSpec,
    /// The healthy spec, restored after a fault window ends.
    base: LinkSpec,
    busy_until: SimTime,
}

/// The network: nodes, directed links, routing, partitions, accounting.
#[derive(Debug, Default)]
pub struct Network {
    nodes: FastMap<NodeId, NodeInfo>,
    links: FastMap<(NodeId, NodeId), LinkState>,
    adjacency: FastMap<NodeId, Vec<NodeId>>,
    route_cache: FastMap<(NodeId, NodeId), Option<Vec<NodeId>>>,
    /// Pairs of partition groups that cannot currently reach each other.
    severed: FastSet<(u32, u32)>,
    /// Nodes that are currently crashed (refuse all traffic).
    down: FastSet<NodeId>,
    /// Message/byte accounting, plus one `faults_*` counter per injected
    /// fault kind (the fault layer's audit trail); `net.network.*` in a
    /// registry.
    pub stats: Counters,
}

impl Network {
    /// An empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a node with a human-readable kind ("device", "executor",
    /// "storage", "coordinator"…). All nodes start in partition group 0.
    pub fn add_node(&mut self, id: NodeId, kind: &'static str) {
        self.nodes.insert(id, NodeInfo { kind, group: 0 });
        self.adjacency.entry(id).or_default();
        self.route_cache.clear();
    }

    /// Assign a node to a partition group (used by [`Self::sever`]).
    pub fn set_group(&mut self, id: NodeId, group: u32) -> MvResult<()> {
        self.nodes
            .get_mut(&id)
            .map(|n| n.group = group)
            .ok_or(MvError::not_found("node", id.raw()))
    }

    /// Add a *directed* link. Use [`Self::add_link_bidi`] for the common case.
    pub(crate) fn add_link(&mut self, from: NodeId, to: NodeId, spec: LinkSpec) {
        self.links
            .insert((from, to), LinkState { spec, base: spec, busy_until: SimTime::ZERO });
        self.adjacency.entry(from).or_default().push(to);
        self.route_cache.clear();
    }

    /// Add a symmetric pair of links.
    pub fn add_link_bidi(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        self.add_link(a, b, spec);
        self.add_link(b, a, spec);
    }

    /// Sever connectivity between two partition groups (both directions).
    pub fn sever(&mut self, group_a: u32, group_b: u32) {
        self.severed.insert((group_a, group_b));
        self.severed.insert((group_b, group_a));
        self.stats.incr("faults_severed");
    }

    /// Heal a previously severed pair of groups.
    pub fn heal(&mut self, group_a: u32, group_b: u32) {
        self.severed.remove(&(group_a, group_b));
        self.severed.remove(&(group_b, group_a));
        self.stats.incr("faults_healed");
    }

    /// Crash a node: until [`Self::restart_node`], every transfer whose
    /// route touches it fails with [`MvError::Unreachable`]. Whatever state
    /// the node held is the *caller's* problem (see `fault::FaultTarget`'s
    /// crash hook) — the network only models reachability.
    pub(crate) fn crash_node(&mut self, id: NodeId) -> MvResult<()> {
        if !self.nodes.contains_key(&id) {
            return Err(MvError::not_found("node", id.raw()));
        }
        self.down.insert(id);
        self.stats.incr("faults_node_crash");
        Ok(())
    }

    /// Restart a crashed node (a no-op reachability-wise if it was up).
    pub(crate) fn restart_node(&mut self, id: NodeId) -> MvResult<()> {
        if !self.nodes.contains_key(&id) {
            return Err(MvError::not_found("node", id.raw()));
        }
        self.down.remove(&id);
        self.stats.incr("faults_node_restart");
        Ok(())
    }

    /// Is the node registered and not crashed?
    pub(crate) fn is_up(&self, id: NodeId) -> bool {
        self.nodes.contains_key(&id) && !self.down.contains(&id)
    }

    /// Replace a directed link's spec for a fault window (the healthy spec
    /// is remembered and comes back on [`Self::restore_link`]).
    pub(crate) fn degrade_link(&mut self, from: NodeId, to: NodeId, spec: LinkSpec) -> MvResult<()> {
        let link = self
            .links
            .get_mut(&(from, to))
            .ok_or(MvError::Unreachable { node: to.raw() })?;
        link.spec = spec;
        self.stats.incr("faults_link_degraded");
        Ok(())
    }

    /// Restore a degraded directed link to its healthy spec.
    pub(crate) fn restore_link(&mut self, from: NodeId, to: NodeId) -> MvResult<()> {
        let link = self
            .links
            .get_mut(&(from, to))
            .ok_or(MvError::Unreachable { node: to.raw() })?;
        link.spec = link.base;
        self.stats.incr("faults_link_restored");
        Ok(())
    }

    /// [`Self::degrade_link`] in both directions.
    pub(crate) fn degrade_link_bidi(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> MvResult<()> {
        self.degrade_link(a, b, spec)?;
        self.degrade_link(b, a, spec)
    }

    /// [`Self::restore_link`] in both directions.
    pub(crate) fn restore_link_bidi(&mut self, a: NodeId, b: NodeId) -> MvResult<()> {
        self.restore_link(a, b)?;
        self.restore_link(b, a)
    }

    fn groups_connected(&self, a: NodeId, b: NodeId) -> bool {
        let (Some(na), Some(nb)) = (self.nodes.get(&a), self.nodes.get(&b)) else {
            return false;
        };
        !self.severed.contains(&(na.group, nb.group))
    }

    /// Shortest route (fewest hops) from `src` to `dst`, ignoring
    /// partitions (those are checked per-hop at transfer time). Cached.
    pub fn route(&mut self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        if let Some(cached) = self.route_cache.get(&(src, dst)) {
            return cached.clone();
        }
        let computed = self.bfs(src, dst);
        self.route_cache.insert((src, dst), computed.clone());
        computed
    }

    fn bfs(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        if src == dst {
            return Some(vec![src]);
        }
        let mut prev: FastMap<NodeId, NodeId> = FastMap::default();
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(src);
        prev.insert(src, src);
        while let Some(cur) = queue.pop_front() {
            if let Some(neigh) = self.adjacency.get(&cur) {
                for &n in neigh {
                    if let std::collections::hash_map::Entry::Vacant(e) = prev.entry(n) {
                        e.insert(cur);
                        if n == dst {
                            // Reconstruct.
                            let mut path = vec![dst];
                            let mut at = dst;
                            while at != src {
                                match prev.get(&at) {
                                    Some(&p) => at = p,
                                    None => return None,
                                }
                                path.push(at);
                            }
                            path.reverse();
                            return Some(path);
                        }
                        queue.push_back(n);
                    }
                }
            }
        }
        None
    }

    /// The pure one-way latency of the route (no queueing, no payload) —
    /// handy for protocol analysis (e.g. expected 2PC round trips).
    pub fn path_latency(&mut self, src: NodeId, dst: NodeId) -> MvResult<SimDuration> {
        let path = self
            .route(src, dst)
            .ok_or(MvError::Unreachable { node: dst.raw() })?;
        let mut total = SimDuration::ZERO;
        for hop in path.windows(2) {
            let link = self
                .links
                .get(&(hop[0], hop[1]))
                .ok_or(MvError::Unreachable { node: hop[1].raw() })?;
            total = total + link.spec.latency;
        }
        Ok(total)
    }

    /// Compute the delivery time for a transfer of `bytes` from `src` to
    /// `dst`, departing at `now`. Mutates per-link queues (serialization)
    /// and draws jitter/loss from `rng`. Returns an error when no route
    /// exists or a partition blocks a hop.
    pub fn transfer<R: Rng + ?Sized>(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        now: SimTime,
        rng: &mut R,
    ) -> MvResult<Delivery> {
        if !self.nodes.contains_key(&src) {
            return Err(MvError::not_found("node", src.raw()));
        }
        if self.down.contains(&src) {
            return Err(MvError::Unreachable { node: src.raw() });
        }
        if self.down.contains(&dst) {
            return Err(MvError::Unreachable { node: dst.raw() });
        }
        if !self.groups_connected(src, dst) {
            return Err(MvError::Unreachable { node: dst.raw() });
        }
        let path = self
            .route(src, dst)
            .ok_or(MvError::Unreachable { node: dst.raw() })?;
        let mut t = now;
        for hop in path.windows(2) {
            let &[a, b] = hop else { continue };
            if self.down.contains(&b) {
                return Err(MvError::Unreachable { node: b.raw() });
            }
            if !self.groups_connected(a, b) {
                return Err(MvError::Unreachable { node: b.raw() });
            }
            let link = self
                .links
                .get_mut(&(a, b))
                .ok_or(MvError::Unreachable { node: b.raw() })?;
            // Loss check per hop.
            if link.spec.loss > 0.0 && rng.gen::<f64>() < link.spec.loss {
                self.stats.incr("msgs_lost");
                return Ok(Delivery::Lost);
            }
            // Queue behind earlier transfers on this link, then serialize,
            // then propagate (+ jitter).
            let start = t.max(link.busy_until);
            let ser = link.spec.serialization_delay(bytes);
            link.busy_until = start + ser;
            let mut prop = link.spec.latency;
            if link.spec.jitter_frac > 0.0 {
                prop = prop + link.spec.latency.mul_f64(link.spec.jitter_frac * rng.gen::<f64>());
            }
            t = start + ser + prop;
        }
        self.stats.incr("msgs_sent");
        self.stats.add("bytes_sent", bytes);
        Ok(Delivery::At(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkClass;
    use mv_common::seeded_rng;

    fn simple_net() -> Network {
        // a -- b -- c chain with 1 ms / 1 MB/s links.
        let mut net = Network::new();
        for i in 0..3 {
            net.add_node(NodeId::new(i), "n");
        }
        let spec = LinkSpec::new(SimDuration::from_millis(1), 1e6);
        net.add_link_bidi(NodeId::new(0), NodeId::new(1), spec);
        net.add_link_bidi(NodeId::new(1), NodeId::new(2), spec);
        net
    }

    #[test]
    fn routes_multi_hop() {
        let mut net = simple_net();
        let r = net.route(NodeId::new(0), NodeId::new(2)).unwrap();
        assert_eq!(r, vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
        assert_eq!(
            net.path_latency(NodeId::new(0), NodeId::new(2)).unwrap(),
            SimDuration::from_millis(2)
        );
    }

    #[test]
    fn transfer_time_includes_latency_and_serialization() {
        let mut net = simple_net();
        let mut rng = seeded_rng(1);
        // 1000 bytes over two 1 MB/s hops: 2 × (1 ms ser + 1 ms prop) = 4 ms.
        let d = net
            .transfer(NodeId::new(0), NodeId::new(2), 1000, SimTime::ZERO, &mut rng)
            .unwrap();
        assert_eq!(d, Delivery::At(SimTime::from_millis(4)));
    }

    #[test]
    fn link_serialization_queues_back_to_back_transfers() {
        let mut net = simple_net();
        let mut rng = seeded_rng(1);
        let a = NodeId::new(0);
        let b = NodeId::new(1);
        let t1 = net.transfer(a, b, 1000, SimTime::ZERO, &mut rng).unwrap().time().unwrap();
        let t2 = net.transfer(a, b, 1000, SimTime::ZERO, &mut rng).unwrap().time().unwrap();
        // Second transfer waits for the first's serialization slot.
        assert_eq!(t1, SimTime::from_millis(2));
        assert_eq!(t2, SimTime::from_millis(3));
    }

    #[test]
    fn unreachable_without_route() {
        let mut net = Network::new();
        net.add_node(NodeId::new(0), "n");
        net.add_node(NodeId::new(1), "n");
        let mut rng = seeded_rng(1);
        let err = net
            .transfer(NodeId::new(0), NodeId::new(1), 10, SimTime::ZERO, &mut rng)
            .unwrap_err();
        assert!(matches!(err, MvError::Unreachable { .. }));
    }

    #[test]
    fn partitions_block_and_heal() {
        let mut net = simple_net();
        net.set_group(NodeId::new(2), 1).unwrap();
        net.sever(0, 1);
        let mut rng = seeded_rng(1);
        assert!(net
            .transfer(NodeId::new(0), NodeId::new(2), 10, SimTime::ZERO, &mut rng)
            .is_err());
        // Intra-group traffic unaffected.
        assert!(net
            .transfer(NodeId::new(0), NodeId::new(1), 10, SimTime::ZERO, &mut rng)
            .is_ok());
        net.heal(0, 1);
        assert!(net
            .transfer(NodeId::new(0), NodeId::new(2), 10, SimTime::ZERO, &mut rng)
            .is_ok());
    }

    #[test]
    fn lossy_link_eventually_drops() {
        let mut net = Network::new();
        net.add_node(NodeId::new(0), "n");
        net.add_node(NodeId::new(1), "n");
        net.add_link(
            NodeId::new(0),
            NodeId::new(1),
            LinkSpec::new(SimDuration::from_millis(1), 0.0).with_loss(0.5),
        );
        let mut rng = seeded_rng(7);
        let mut lost = 0;
        for _ in 0..100 {
            if let Delivery::Lost =
                net.transfer(NodeId::new(0), NodeId::new(1), 1, SimTime::ZERO, &mut rng).unwrap()
            {
                lost += 1;
            }
        }
        assert!(lost > 20 && lost < 80, "lost {lost}/100");
        assert_eq!(net.stats.get("msgs_lost"), lost);
    }

    #[test]
    fn crashed_nodes_refuse_traffic_until_restart() {
        let mut net = simple_net();
        let mut rng = seeded_rng(1);
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        // Crash the relay: endpoints are up, the route through b is not.
        net.crash_node(b).unwrap();
        assert!(!net.is_up(b) && net.is_up(a));
        assert!(net.transfer(a, c, 10, SimTime::ZERO, &mut rng).is_err());
        assert!(net.transfer(a, b, 10, SimTime::ZERO, &mut rng).is_err());
        net.restart_node(b).unwrap();
        assert!(net.transfer(a, c, 10, SimTime::ZERO, &mut rng).is_ok());
        assert_eq!(net.stats.get("faults_node_crash"), 1);
        assert_eq!(net.stats.get("faults_node_restart"), 1);
        // Unknown nodes are a typed error, not silent state.
        assert!(net.crash_node(NodeId::new(99)).is_err());
        assert!(!net.is_up(NodeId::new(99)));
    }

    #[test]
    fn degraded_links_come_back_with_their_base_spec() {
        let mut net = simple_net();
        let mut rng = seeded_rng(1);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let healthy = net.transfer(a, b, 0, SimTime::ZERO, &mut rng).unwrap();
        assert_eq!(healthy, Delivery::At(SimTime::from_millis(1)));
        net.degrade_link_bidi(a, b, LinkSpec::new(SimDuration::from_millis(50), 1e6)).unwrap();
        let slow = net.transfer(a, b, 0, SimTime::ZERO, &mut rng).unwrap();
        assert_eq!(slow, Delivery::At(SimTime::from_millis(50)));
        net.restore_link_bidi(a, b).unwrap();
        let again = net.transfer(a, b, 0, SimTime::ZERO, &mut rng).unwrap();
        assert_eq!(again, Delivery::At(SimTime::from_millis(1)));
        assert_eq!(net.stats.get("faults_link_degraded"), 2);
        assert_eq!(net.stats.get("faults_link_restored"), 2);
        // Degrading a non-existent link is an error.
        assert!(net.degrade_link(a, NodeId::new(2), LinkClass::Lan.spec()).is_err());
    }

    #[test]
    fn canned_classes_integrate() {
        let mut net = Network::new();
        net.add_node(NodeId::new(0), "dc");
        net.add_node(NodeId::new(1), "dc");
        net.add_link_bidi(NodeId::new(0), NodeId::new(1), LinkClass::Lan.spec());
        let rtt = net.path_latency(NodeId::new(0), NodeId::new(1)).unwrap();
        assert_eq!(rtt, SimDuration::from_micros(100));
    }
}
