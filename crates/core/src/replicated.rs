//! `ReplicatedMetaverse` — a raft-replicated co-space region.
//!
//! The durable engine (`crate::durable`) survives a crash of its *own*
//! node; §IV's consistency/disaggregation story needs region state to
//! survive the node entirely. This module closes that gap: a group of
//! 3–5 replicas each runs a [`RaftNode`] (`mv-raft`) over the fault
//! simulator's [`Network`] + [`ReliableTransport`], and every client
//! mutation travels as an encoded [`DurableOp`] through the leader's
//! raft log. An operation is **acknowledged** only when the proposing
//! leader applies it at its committed index — by Raft's log-matching
//! and leader-completeness properties, an acknowledged op is then on a
//! majority and survives any minority of crashes, partitions, and even
//! total per-node state loss.
//!
//! Each replica's state machine is a bare [`ShardedMetaverse`] fed
//! strictly by committed raft entries in index order: the raft log is
//! its recovery source, so it keeps no log of its own, and it runs no
//! transactions, so it keeps no MVCC state. Nothing reads its co-space
//! events, so it only counts them: an applied command builds no event,
//! and the count is the next event id its snapshot records. The engine is
//! deterministic, so replicas stay byte-identical (per their state
//! encoding) without further coordination — the fault harness
//! (`tests/raft_failover.rs`) checks exactly that after every fault
//! boundary.
//!
//! Snapshots carry state, not history: a snapshot is the engine's
//! checkpoint image — the durable log's own verified codec (version, fx
//! checksum, state encoding, and an MVCC section that is empty here:
//! no head, oracle 0) — so its size, and the cost of taking, shipping
//! and installing one, follows the entities, not the age of the region.
//! A replica compacts by the durable log's checkpoint rule (its raft log
//! at least twice its snapshot), so its log stays about two snapshots
//! plus what it has not applied, however large the state.
//! Install verifies the checksum, rebuilds an engine from the image and
//! *re-encodes* it: anything but the same bytes back is refused loudly
//! rather than installed silently — among them a durable engine's image
//! that carries heads or a nonzero oracle, which raft never ships.
//!
//! The commands themselves are kept once, region-wide, by raft index
//! (`CommittedLog`): the first replica to apply an index records its
//! command, every other apply of that index is compared against it (log
//! matching, checked at every apply), and the audit calls
//! ([`ReplicatedMetaverse::history_hash`],
//! [`ReplicatedMetaverse::replica_applied`]) read a replica's history as
//! "the committed commands up to its applied index".
//!
//! Faults arrive through [`FaultTarget`]: a node crash bumps the
//! transport epoch, crashes the raft WAL (losing its unsynced tail) and
//! discards the replica's entire engine; restart folds the surviving
//! raft records back and rebuilds the engine by replay (or snapshot
//! install, for a node flagged `wipe_on_crash` that lost its disk too).

use crate::durable::{encode_image, restore_image, state_digest, DurableOp};
use crate::sharded::ShardedMetaverse;
use bytes::Bytes;
use mv_common::hash::FxHasher;
use mv_common::id::NodeId;
use mv_common::time::{SimDuration, SimTime};
use mv_net::fault::FaultTarget;
use mv_net::{LinkSpec, Network, ReliableEvent, ReliableTransport, RetryPolicy};
use mv_obs::{CounterId, GaugeId, HistoId, Registry};
use mv_raft::{RaftConfig, RaftMsg, RaftNode};

pub use mv_raft::RaftConfig as RaftTuning;
use rand::rngs::StdRng;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hasher as _;

/// Apply one committed command to a replica's engine. `false` when the
/// engine refused it, or it does not decode; the engine refuses
/// transactional frames untouched — the replicated log carries only
/// plain ops.
fn apply_command(engine: &mut ShardedMetaverse, cmd: &[u8]) -> bool {
    DurableOp::decode(cmd).is_some_and(|op| engine.apply(&op).is_ok())
}

/// Rebuild a replica's engine on `shards` shards from a snapshot. The
/// image's checksum catches damage (a flipped coordinate bit is still a
/// well-formed state); the re-encoding catches bytes that no replica
/// produces and any drift between the image's encoder and decoder.
/// `None` on either, or on structural damage.
fn install(shards: usize, bytes: &[u8]) -> Option<ShardedMetaverse> {
    let (engine, _) = restore_image(bytes, shards, true, false)?;
    (encode_image(&engine, 0, bytes.len()) == bytes).then_some(engine)
}

/// The region's committed commands, kept once for every replica and
/// outside every snapshot. Raft's log-matching property says index `k`
/// holds the same command on every node that commits it; this is where
/// that is checked, and what the audit calls read.
#[derive(Default)]
struct CommittedLog {
    /// `cmds[k - 1]` is the command committed at raft index `k` (empty
    /// for a leader's no-op).
    cmds: Vec<Bytes>,
    /// The first index each command committed at. Commands arrive from
    /// clients, so the map keeps the collision-resistant default hasher;
    /// it is probed, never iterated.
    first_index: HashMap<Bytes, u64>,
}

impl CommittedLog {
    /// A replica applies `cmd` at `index`: the first to get there records
    /// it, everyone after must bring the same bytes. `false` = they did
    /// not, or `index` skipped ahead of anything a replica ever applied.
    /// A different command rewrites the history from `index` on — what
    /// the replicas hold now is what the audit calls must describe, and
    /// a region that lost a majority of its disks does restart its log.
    fn observe(&mut self, index: u64, cmd: &[u8]) -> bool {
        let Some(at) = index.checked_sub(1).and_then(|at| usize::try_from(at).ok()) else {
            return false;
        };
        if self.cmds.get(at).is_some_and(|seen| seen.as_ref() == cmd) {
            return true;
        }
        let first_there = at == self.cmds.len();
        if at > self.cmds.len() {
            return false;
        }
        for (gone, was) in self.cmds.drain(at..).zip(index..) {
            if self.first_index.get(&gone) == Some(&was) {
                self.first_index.remove(&gone);
            }
        }
        let cmd = Bytes::copy_from_slice(cmd);
        self.first_index.entry(cmd.clone()).or_insert(index);
        self.cmds.push(cmd);
        first_there
    }

    /// The commands at indices `..= applied`, oldest first.
    fn prefix(&self, applied: u64) -> &[Bytes] {
        let end = usize::try_from(applied).unwrap_or(usize::MAX).min(self.cmds.len());
        self.cmds.get(..end).unwrap_or_default()
    }
}

/// The region's own `core.replicated.*` metrics: a registry interned
/// once, at construction, and written through its handles.
struct RegionMetrics {
    registry: Registry,
    submit_attempts: CounterId,
    submit_unavailable: CounterId,
    acks: CounterId,
    leader_changes: CounterId,
    /// Submit → ack latency, in sim-ms.
    ack_ms: HistoId,
    down_replicas: GaugeId,
    commit_lag: GaugeId,
    term: GaugeId,
    has_leader: GaugeId,
    pending_submits: GaugeId,
}

impl RegionMetrics {
    fn new() -> Self {
        let mut r = Registry::new();
        RegionMetrics {
            submit_attempts: r.counter("core.replicated.submit_attempts"),
            submit_unavailable: r.counter("core.replicated.submit_unavailable"),
            acks: r.counter("core.replicated.acks"),
            leader_changes: r.counter("core.replicated.leader_changes"),
            ack_ms: r.histo("core.replicated.ack_ms"),
            down_replicas: r.gauge("core.replicated.down_replicas"),
            commit_lag: r.gauge("core.replicated.commit_lag"),
            term: r.gauge("core.replicated.term"),
            has_leader: r.gauge("core.replicated.has_leader"),
            pending_submits: r.gauge("core.replicated.pending_submits"),
            registry: r,
        }
    }
}

/// Per-replica tuning for a [`ReplicatedMetaverse`] region.
#[derive(Debug, Clone, Copy)]
pub struct RegionConfig {
    /// Group size (3 or 5 in the harness).
    pub replicas: usize,
    /// Engine shards per replica.
    pub shards: usize,
    /// Raft protocol timing.
    pub raft: RaftConfig,
    /// One-way link latency between any two replicas.
    pub link_latency: SimDuration,
    /// Link loss fraction.
    pub link_loss: f64,
}

impl Default for RegionConfig {
    fn default() -> Self {
        RegionConfig {
            replicas: 3,
            shards: 2,
            raft: RaftConfig::default(),
            link_latency: SimDuration::from_millis(5),
            link_loss: 0.0,
        }
    }
}

struct ReplicaSlot {
    node: RaftNode,
    /// The replica's engine; `None` while the process is down (volatile
    /// state dropped) — the one mark of a replica being down.
    engine: Option<ShardedMetaverse>,
    /// Crash also destroys the disk: restart via [`RaftNode::wipe`].
    wipe_on_crash: bool,
    /// Highest raft index applied into `engine`.
    applied_raft: u64,
}

/// A raft-replicated co-space region over the fault simulator. See the
/// module docs for the guarantees; drive it by calling
/// [`Self::tick`] every simulated millisecond (or finer) and submitting
/// client ops through [`Self::submit`].
pub struct ReplicatedMetaverse {
    net: Network,
    transport: ReliableTransport<RaftMsg>,
    rng: StdRng,
    cfg: RegionConfig,
    members: Vec<NodeId>,
    replicas: Vec<ReplicaSlot>,
    /// `core.replicated.*`: `submit_attempts`/`submit_unavailable`/
    /// `acks`/`leader_changes` counters, the `ack_ms` latency
    /// histogram, and `down_replicas`/`commit_lag`/`term`/`has_leader`/
    /// `pending_submits` gauges. [`Self::registry`] adds every other
    /// layer's counters to a copy.
    metrics: RegionMetrics,
    /// Client writes awaiting commit, keyed by where they were proposed:
    /// `(leader, index) → (cmd, submitted_at)`. The entry goes when that
    /// leader applies (or installs past) that index, whatever committed
    /// there — so a deposed leader's proposals do not linger.
    pending: BTreeMap<(NodeId, u64), (Vec<u8>, SimTime)>,
    /// Every committed command, once (see [`CommittedLog`]).
    committed: CommittedLog,
    /// Commands acknowledged to the client, in ack order. The safety
    /// harness checks every one survives on every replica.
    acked: Vec<Vec<u8>>,
    /// First leader observed per term; a second, different one is a
    /// safety violation.
    leaders_by_term: BTreeMap<u64, NodeId>,
    /// Safety violations observed while running (must stay empty).
    violations: Vec<String>,
    /// Event log for whole-run determinism hashing.
    pub log: Vec<String>,
    now: SimTime,
}

impl FaultTarget for ReplicatedMetaverse {
    fn fault_network(&mut self) -> &mut Network {
        &mut self.net
    }

    fn on_node_crash(&mut self, node: NodeId) {
        self.transport.on_node_crash(node);
        let now = self.now;
        if let Some(slot) = self.replicas.iter_mut().find(|s| s.node.id() == node) {
            slot.engine = None; // volatile engine state is gone
            slot.applied_raft = 0;
            slot.node.crash();
            self.log.push(format!("{now} crash {node:?}"));
        }
    }

    fn on_node_restart(&mut self, node: NodeId) {
        let now = self.now;
        let wipe = self
            .replicas
            .iter()
            .find(|s| s.node.id() == node)
            .is_some_and(|s| s.wipe_on_crash);
        if let Some(slot) = self.replicas.iter_mut().find(|s| s.node.id() == node) {
            if wipe {
                slot.node.wipe(now);
            } else {
                slot.node.restart(now);
            }
            // The engine rebuilds from the node's durable image: its
            // snapshot (if any) is re-flagged for install by restart();
            // committed entries above it re-drain through the normal
            // apply path in `tick`.
            slot.engine = Some(ShardedMetaverse::counting(self.cfg.shards));
            slot.applied_raft = 0;
            self.log.push(format!("{now} restart {node:?} wipe={wipe}"));
        }
    }
}

impl ReplicatedMetaverse {
    /// Build a fully-meshed region of `cfg.replicas` nodes. `seed` pins
    /// everything: election timeouts, transport jitter, link loss.
    pub fn new(cfg: RegionConfig, seed: u64) -> Self {
        let members: Vec<NodeId> = (0..cfg.replicas as u64).map(NodeId::new).collect();
        let mut net = Network::new();
        for &m in &members {
            net.add_node(m, "replica");
        }
        for (i, &a) in members.iter().enumerate() {
            for &b in members.iter().skip(i + 1) {
                net.add_link_bidi(
                    a,
                    b,
                    LinkSpec::new(cfg.link_latency, 1e8).with_loss(cfg.link_loss),
                );
            }
        }
        let replicas: Vec<ReplicaSlot> = members
            .iter()
            .map(|&m| ReplicaSlot {
                node: RaftNode::new(m, &members, cfg.raft, seed ^ 0x5eed, SimTime::ZERO),
                engine: Some(ShardedMetaverse::counting(cfg.shards)),
                wipe_on_crash: false,
                applied_raft: 0,
            })
            .collect();
        // Raft retries at its own cadence (heartbeats); the transport's
        // retry budget stays short so a partitioned message dies fast
        // instead of ghost-delivering after the heal.
        let policy = RetryPolicy {
            initial_rto: SimDuration::from_millis(50),
            backoff: 2.0,
            max_rto: SimDuration::from_millis(500),
            max_attempts: 3,
            jitter_frac: 0.1,
        };
        ReplicatedMetaverse {
            net,
            transport: ReliableTransport::new(policy, seed ^ 0x7a57),
            rng: mv_common::seeded_rng(seed),
            cfg,
            members,
            replicas,
            metrics: RegionMetrics::new(),
            pending: BTreeMap::new(),
            committed: CommittedLog::default(),
            acked: Vec::new(),
            leaders_by_term: BTreeMap::new(),
            violations: Vec::new(),
            log: Vec::new(),
            now: SimTime::ZERO,
        }
    }

    /// Flag one replica so its next crash also loses its disk (restart
    /// through [`RaftNode::wipe`] → snapshot/backfill recovery).
    pub fn set_wipe_on_crash(&mut self, node: NodeId, wipe: bool) {
        if let Some(slot) = self.replicas.iter_mut().find(|s| s.node.id() == node) {
            slot.wipe_on_crash = wipe;
        }
    }

    /// The group's member ids, in replica order.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// The current leader among *up* replicas, if any.
    pub fn leader(&self) -> Option<NodeId> {
        self.replicas.iter().find(|s| s.engine.is_some() && s.node.is_leader()).map(|s| s.node.id())
    }

    /// Submit one client op. Returns the raft index it was proposed at,
    /// or `None` when no up replica currently leads (the client must
    /// retry — that window is the measured unavailability).
    pub fn submit(&mut self, op: &DurableOp, now: SimTime) -> Option<u64> {
        let cmd = op.encode();
        self.metrics.registry.incr(self.metrics.submit_attempts);
        let appended = (|| {
            let slot = self.replicas.iter_mut().find(|s| s.engine.is_some() && s.node.is_leader())?;
            let leader = slot.node.id();
            let index = slot.node.client_append(cmd.clone(), now)?;
            Some((leader, index))
        })();
        let Some((leader, index)) = appended else {
            // Measured unavailability: the availability SLO burns here.
            self.metrics.registry.incr(self.metrics.submit_unavailable);
            return None;
        };
        self.pending.insert((leader, index), (cmd, now));
        Some(index)
    }

    /// Commands acknowledged as committed, in ack order.
    pub fn acked(&self) -> &[Vec<u8>] {
        &self.acked
    }

    /// Safety violations observed so far (two leaders in a term,
    /// refused snapshot installs, commit divergence). Must stay empty.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Number of distinct terms that elected a leader (election churn).
    pub fn elected_terms(&self) -> usize {
        self.leaders_by_term.len()
    }

    /// Per-replica engine digests (`None` while down).
    pub fn replica_digests(&self) -> Vec<Option<u64>> {
        self.replicas.iter().map(|s| s.engine.as_ref().map(state_digest)).collect()
    }

    /// Replica `i`'s applied index, `None` while it is down.
    fn applied_index(&self, i: usize) -> Option<u64> {
        let slot = self.replicas.get(i)?;
        slot.engine.as_ref().map(|_| slot.applied_raft)
    }

    /// Hash of replica `i`'s applied-command history — the committed
    /// commands up to its applied index, in order (`None` while down).
    /// Compaction-invariant, so equal hashes across replicas mean the
    /// same committed commands applied in the same order.
    pub fn history_hash(&self, i: usize) -> Option<u64> {
        let mut h = FxHasher::default();
        for cmd in self.committed.prefix(self.applied_index(i)?) {
            h.write(cmd);
        }
        Some(h.finish())
    }

    /// Does `cmd` appear in replica `i`'s applied history?
    pub fn replica_applied(&self, i: usize, cmd: &[u8]) -> bool {
        let first = self.committed.first_index.get(cmd);
        first.is_some_and(|&k| self.applied_index(i).is_some_and(|applied| k <= applied))
    }

    /// Number of replicas currently up.
    pub fn up_count(&self) -> usize {
        self.replicas.iter().filter(|s| s.engine.is_some()).count()
    }

    /// Move the leader (and enough followers to form a minority) into
    /// partition group 1 and sever it from the rest. Returns the
    /// severed minority, `None` when no leader is up.
    pub fn partition_minority_with_leader(&mut self) -> Option<Vec<NodeId>> {
        let leader = self.leader()?;
        let minority_size = (self.members.len() - 1) / 2; // 3→1, 5→2
        let mut minority = vec![leader];
        minority.extend(
            self.members
                .iter()
                .copied()
                .filter(|&m| m != leader)
                .take(minority_size.saturating_sub(1)),
        );
        for &m in &self.members {
            let group = u32::from(minority.contains(&m));
            let _ = self.net.set_group(m, group);
        }
        self.net.sever(0, 1);
        self.log.push(format!("{} sever minority {minority:?}", self.now));
        Some(minority)
    }

    /// Heal the minority partition and put every node back in group 0.
    pub fn heal_partition(&mut self) {
        self.net.heal(0, 1);
        for &m in &self.members {
            let _ = self.net.set_group(m, 0);
        }
        self.log.push(format!("{} heal", self.now));
    }

    /// Every layer's metrics, assembled now: the region's
    /// `core.replicated.*` (gauges as of the last tick), the network's
    /// `net.network.*`, the transport's `net.transport.*`, and every
    /// replica's `raft.node.*` summed. Hand it to an
    /// `mv_obs::HealthMonitor` tick to watch the region.
    pub fn registry(&self) -> Registry {
        let mut r = self.metrics.registry.clone();
        r.absorb("net.network", &self.net.stats);
        r.absorb("net.transport", &self.transport.stats);
        for slot in &self.replicas {
            r.absorb("raft.node", &slot.node.stats);
            if !slot.node.election_ms.is_empty() {
                let id = r.histo("raft.node.election_ms");
                r.merge_histo(id, &slot.node.election_ms);
            }
        }
        r
    }

    /// One scheduler tick: deliver transport arrivals to up replicas,
    /// fire raft timers, ship outgoing messages, drain committed
    /// entries into each engine, resolve client acks, and compact each
    /// log its node says is due ([`RaftNode::compaction_due`]).
    pub fn tick(&mut self, now: SimTime) {
        self.now = now;
        let mut sends: Vec<(NodeId, mv_raft::Outgoing)> = Vec::new();

        for ev in self.transport.poll(&mut self.net, &mut self.rng, now) {
            let ReliableEvent::Delivered { src, dst, payload, .. } = ev else { continue };
            let Some(slot) = self.replicas.iter_mut().find(|s| s.node.id() == dst && s.engine.is_some())
            else {
                continue;
            };
            for o in slot.node.handle(src, payload, now) {
                sends.push((dst, o));
            }
        }

        for slot in self.replicas.iter_mut().filter(|s| s.engine.is_some()) {
            let from = slot.node.id();
            for o in slot.node.tick(now) {
                sends.push((from, o));
            }
        }

        for (src, out) in sends {
            let bytes = out.msg.wire_bytes();
            self.transport.send(&mut self.net, &mut self.rng, src, out.to, out.msg, bytes, now);
        }

        self.pump_state_machines(now);
        self.observe_leaders(now);
        self.publish_health_gauges();
    }

    /// Region-level gauges for the SLO layer, refreshed once per tick:
    /// replica liveness, worst commit lag, leader presence and term.
    fn publish_health_gauges(&mut self) {
        let down = (self.replicas.len() - self.up_count()) as f64;
        let commit_lag = self
            .replicas
            .iter()
            .filter(|s| s.engine.is_some())
            .map(|s| s.node.last_index().saturating_sub(s.node.commit_index()))
            .max()
            .unwrap_or(0) as f64;
        let term = self
            .replicas
            .iter()
            .filter(|s| s.engine.is_some())
            .map(|s| s.node.term())
            .max()
            .unwrap_or(0) as f64;
        let has_leader = if self.leader().is_some() { 1.0 } else { 0.0 };
        let m = &mut self.metrics;
        m.registry.set_gauge(m.down_replicas, down);
        m.registry.set_gauge(m.commit_lag, commit_lag);
        m.registry.set_gauge(m.term, term);
        m.registry.set_gauge(m.has_leader, has_leader);
        m.registry.set_gauge(m.pending_submits, self.pending.len() as f64);
    }

    fn pump_state_machines(&mut self, now: SimTime) {
        let shards = self.cfg.shards;
        for slot in self.replicas.iter_mut().filter(|s| s.engine.is_some()) {
            let id = slot.node.id();
            // A freshly accepted (or restart-recovered) snapshot
            // replaces the engine wholesale.
            if let Some((base, _term, data)) = slot.node.take_pending_install() {
                match install(shards, &data) {
                    Some(engine) => {
                        slot.engine = Some(engine);
                        slot.applied_raft = base;
                        // Its proposals at or below `base` will never be
                        // applied one by one; the client retries them.
                        self.pending.retain(|&(leader, index), _| leader != id || index > base);
                        self.log.push(format!("{now} install {id:?} base={base}"));
                    }
                    None => {
                        self.violations
                            .push(format!("{now} {id:?}: snapshot at base={base} refused"));
                    }
                }
            }
            let Some(engine) = slot.engine.as_mut() else { continue };
            for (index, cmd) in slot.node.take_committed() {
                slot.applied_raft = index;
                if !self.committed.observe(index, &cmd) {
                    self.violations.push(format!(
                        "{now} {id:?}: index {index} committed a different command than on another replica"
                    ));
                }
                if !cmd.is_empty() {
                    apply_command(engine, &cmd);
                }
                // The proposing leader's commit is the client ack — if
                // what committed at its index is what it proposed.
                if let Some((proposed, submitted)) = self.pending.remove(&(id, index)) {
                    if proposed == cmd {
                        let m = &mut self.metrics;
                        m.registry.incr(m.acks);
                        m.registry.record(m.ack_ms, now.since(submitted).as_millis_f64());
                        self.acked.push(proposed);
                    }
                }
            }
            if slot.applied_raft > slot.node.base_index() && slot.node.compaction_due() {
                // The node's previous snapshot sizes the new one's buffers.
                let snapshot = encode_image(engine, 0, slot.node.snapshot_len());
                slot.node.compact(slot.applied_raft, snapshot.into(), now);
                self.log.push(format!(
                    "{now} compact {id:?} base={}",
                    slot.node.base_index()
                ));
            }
        }
    }

    /// Record leadership per term; a term with two distinct leaders is
    /// the election-safety violation the harness asserts never happens.
    fn observe_leaders(&mut self, now: SimTime) {
        for slot in self.replicas.iter().filter(|s| s.engine.is_some() && s.node.is_leader()) {
            let (term, id) = (slot.node.term(), slot.node.id());
            match self.leaders_by_term.get(&term) {
                None => {
                    self.leaders_by_term.insert(term, id);
                    self.metrics.registry.incr(self.metrics.leader_changes);
                    self.log.push(format!("{now} leader {id:?} term={term}"));
                }
                Some(&prev) if prev != id => {
                    self.violations
                        .push(format!("{now} two leaders in term {term}: {prev:?} and {id:?}"));
                }
                Some(_) => {}
            }
        }
        // Two simultaneously valid read leases would let both serve
        // stale local reads — the lease-safety property says it cannot
        // happen (a rival needs at least one election-min of silence).
        let holders = self
            .replicas
            .iter()
            .filter(|s| s.engine.is_some() && s.node.is_leader() && s.node.lease_valid(now))
            .count();
        if holders > 1 {
            self.violations.push(format!("{now} {holders} simultaneous lease holders"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_common::geom::Point;
    use mv_common::Space;
    use mv_common::time::SimTime;
    use crate::durable::{state_encoding, DurableMetaverse};
    use crate::entity::EntityKind;

    /// A replica's snapshot of `engine`, with no previous one to size it.
    fn snapshot(engine: &ShardedMetaverse) -> Vec<u8> {
        encode_image(engine, 0, 0)
    }

    fn spawn_op(i: u64, now: SimTime) -> DurableOp {
        DurableOp::Spawn {
            name: format!("e{i}"),
            kind: EntityKind::Avatar,
            position: Point::new(i as f64, 0.0),
            ts: now,
        }
    }

    fn drive(world: &mut ReplicatedMetaverse, from_ms: u64, to_ms: u64) {
        for ms in from_ms..to_ms {
            world.tick(SimTime::from_millis(ms));
        }
    }

    #[test]
    fn region_elects_replicates_and_acks() {
        let mut w = ReplicatedMetaverse::new(RegionConfig::default(), 7);
        drive(&mut w, 0, 1_000);
        let leader = w.leader().expect("a leader by 1s");
        for i in 0..5 {
            let op = spawn_op(i, SimTime::from_millis(1_000 + i * 20));
            assert!(w.submit(&op, SimTime::from_millis(1_000 + i * 20)).is_some());
            drive(&mut w, 1_000 + i * 20, 1_000 + (i + 1) * 20);
        }
        drive(&mut w, 1_100, 1_600);
        assert_eq!(w.acked().len(), 5, "all submissions commit and ack");
        assert!(w.violations().is_empty(), "{:?}", w.violations());
        let digests = w.replica_digests();
        assert!(digests.iter().all(|d| *d == digests[0] && d.is_some()), "{digests:?}");
        assert_eq!(w.leader(), Some(leader), "stable leadership in a quiet net");
        // Every acked command survives on every replica.
        for cmd in w.acked().to_vec() {
            for i in 0..w.members().len() {
                assert!(w.replica_applied(i, &cmd), "replica {i} lost an acked write");
            }
        }
    }

    #[test]
    fn area_effect_commands_replicate_deterministically() {
        use mv_common::geom::Aabb;
        let mut w = ReplicatedMetaverse::new(RegionConfig::default(), 11);
        drive(&mut w, 0, 1_000);
        for i in 0..4 {
            let t = SimTime::from_millis(1_000 + i * 30);
            w.submit(&spawn_op(i, t), t);
            drive(&mut w, 1_000 + i * 30, 1_000 + (i + 1) * 30);
        }
        let t = SimTime::from_millis(1_200);
        let raid = DurableOp::AreaEffect {
            space: Space::Virtual,
            effect: "air_raid".into(),
            region: Aabb::new(Point::new(-1.0, -1.0), Point::new(2.5, 1.0)),
            action: "perish".into(),
            retire: true,
            ts: t,
        };
        w.submit(&raid, t);
        drive(&mut w, 1_200, 1_700);
        let digests = w.replica_digests();
        assert!(digests.iter().all(|d| *d == digests[0] && d.is_some()), "{digests:?}");
        assert!(w.violations().is_empty(), "{:?}", w.violations());
    }

    /// A state with everything the encoding can hold: attributes, a
    /// retired entity, a twin lagging its truth, a NaN coordinate, an
    /// area effect's retirements and every counter.
    fn rich_engine() -> ShardedMetaverse {
        use mv_common::geom::Aabb;
        use mv_common::id::EntityId;
        let mut engine = ShardedMetaverse::with_defaults(2);
        let t = SimTime::from_millis;
        for i in 0..6 {
            assert!(apply_command(&mut engine, &spawn_op(i, t(i + 1)).encode()));
        }
        let id = EntityId::new;
        let ops = [
            DurableOp::Attr { id: id(0), name: "hp".into(), value: 0.5, ts: t(10) },
            DurableOp::Position { id: id(1), position: Point::new(40.0, 2.0), ts: t(11) },
            // Under the 1 m bound: the twin stays behind.
            DurableOp::Position { id: id(1), position: Point::new(40.4, 2.0), ts: t(12) },
            DurableOp::Position { id: id(2), position: Point::new(f64::NAN, 1.0), ts: t(13) },
            DurableOp::Retire { id: id(3), ts: t(14) },
            DurableOp::AreaEffect {
                space: Space::Physical,
                effect: "raid".into(),
                region: Aabb::new(Point::new(3.5, -1.0), Point::new(5.5, 1.0)),
                action: "perish".into(),
                retire: true,
                ts: t(15),
            },
        ];
        for op in ops {
            assert!(apply_command(&mut engine, &op.encode()), "{op:?}");
        }
        engine
    }

    #[test]
    fn snapshot_install_verifies_and_refuses_damage() {
        let engine = rich_engine();
        assert_eq!(engine.live_count(), 3, "one retired by hand, two by the raid");
        let snap = snapshot(&engine);
        let rebuilt = install(2, &snap).expect("clean install");
        assert_eq!(state_encoding(&rebuilt), state_encoding(&engine));
        // Every truncation and every single-byte flip must refuse, not
        // panic and not silently diverge.
        for cut in 0..snap.len() {
            assert!(install(2, &snap[..cut]).is_none(), "cut at {cut}");
        }
        let mut bad = snap.clone();
        for at in 0..snap.len() {
            for mask in [0x01, 0x80, 0xFF] {
                bad[at] ^= mask;
                assert!(install(2, &bad).is_none(), "byte {at} ^ {mask:#x}");
                bad[at] ^= mask;
            }
        }
        let mut trailing = snap.clone();
        trailing.push(0);
        assert!(install(2, &trailing).is_none());

        // A durable engine's image carries its plain writes' heads and its
        // oracle. Raft never ships one, and a replica refuses it: its
        // re-encoding has neither. The same state without them installs.
        let mut source = DurableMetaverse::with_defaults(2);
        let t = SimTime::from_millis;
        let id = source.spawn("a", EntityKind::Avatar, Point::ORIGIN, t(1));
        source.update_attr(id, "hp", 0.5, t(2)).unwrap();
        let image = source.checkpoint_image();
        assert!(source.txn_current_ts() > 0);
        assert!(install(2, &image).is_none(), "a heads-carrying image");
        assert!(DurableMetaverse::with_defaults(2).restore(&image).is_some());
        let mut bare = ShardedMetaverse::with_defaults(2);
        let spawn = DurableOp::Spawn { name: "a".into(), kind: EntityKind::Avatar, position: Point::ORIGIN, ts: t(1) };
        for op in [spawn, DurableOp::Attr { id, name: "hp".into(), value: 0.5, ts: t(2) }] {
            assert!(apply_command(&mut bare, &op.encode()));
        }
        assert_eq!(state_encoding(&bare), source.state_encoding());
        assert!(install(2, &snapshot(&bare)).is_some());
    }

    #[test]
    fn well_formed_bytes_no_engine_produces_are_refused_by_the_re_encoding() {
        // A correct checksum over a state whose live count lies: restore
        // accepts the structure, the re-encoding does not match.
        let reseal = |image: &mut Vec<u8>| {
            let sum = crate::durable::image_checksum(&image[10..]);
            image[2..10].copy_from_slice(&sum.to_le_bytes());
        };
        let mut forged = snapshot(&rich_engine());
        forged[10 + 9] ^= 1; // low byte of the state section's live count
        reseal(&mut forged);
        assert!(restore_image(&forged, 2, true, false).is_some());
        assert!(install(2, &forged).is_none());

        // An entity's attribute names ascend, as the encoder writes them.
        // An image that repeats a name or lists two out of order is
        // refused outright, by a durable restore too (a repeated name used
        // to restore with the later value).
        let mut engine = rich_engine();
        for name in ["zq", "zr"] {
            let op = DurableOp::Attr { id: mv_common::id::EntityId::new(0), name: name.into(), value: 1.0, ts: SimTime::from_millis(20) };
            assert!(apply_command(&mut engine, &op.encode()), "{op:?}");
        }
        let clean = snapshot(&engine);
        assert!(DurableMetaverse::with_defaults(2).restore(&clean).is_some());
        let at = clean.windows(2).position(|w| w == b"zr").expect("the last name of entity 0");
        for (name, what) in [(b"zq", "a repeated name"), (b"zp", "names that descend")] {
            let mut forged = clean.clone();
            forged[at..at + 2].copy_from_slice(name);
            reseal(&mut forged);
            assert!(restore_image(&forged, 2, true, false).is_none(), "{what}");
            assert!(DurableMetaverse::with_defaults(2).restore(&forged).is_none(), "{what}");
        }
    }

    /// The replica as it was before it became a bare engine, kept as the
    /// oracle the bare one must match: a whole durable engine whose log
    /// and MVCC state stay empty, each command applied to its engine
    /// alone, its snapshot the durable checkpoint image, and its install
    /// a durable restore checked by re-encoding.
    struct DurableReplica {
        dm: DurableMetaverse,
    }

    impl DurableReplica {
        fn apply(&mut self, cmd: &[u8]) -> bool {
            DurableOp::decode(cmd).is_some_and(|op| self.dm.engine.apply(&op).is_ok())
        }

        fn install(shards: usize, bytes: &[u8]) -> Option<DurableReplica> {
            let mut dm = DurableMetaverse::with_defaults(shards);
            dm.restore(bytes)?;
            (dm.checkpoint_image() == bytes).then_some(DurableReplica { dm })
        }
    }

    /// The writes of `ops` as a client submits them: op `i` at `i` ms, each
    /// slot resolved to the dense id its spawn got.
    fn commands(ops: &[crate::ops::Op]) -> Vec<DurableOp> {
        use mv_common::id::EntityId;
        let mut ids = Vec::new();
        let mut cmds = Vec::new();
        for (op, ms) in ops.iter().zip(0..) {
            let Some(cmd) = op.write(&ids, SimTime::from_millis(ms)) else { continue };
            if let DurableOp::Spawn { .. } = cmd {
                ids.push(EntityId::new(ids.len() as u64));
            }
            cmds.push(cmd);
        }
        cmds
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        // A bare replica applies what the durable one did and snapshots
        // its bytes, at 1, 2 and 4 shards, over spawns, retires, area
        // effects, attribute writes and NaN coordinates, with the events
        // drained every few commands; either snapshot
        // installs on both, and each install re-encodes to the snapshot.
        #[test]
        fn bare_replica_snapshots_match_the_durable_engines(
            ops in crate::ops::strategies::OpSeq { min_ops: 1, max_ops: 150, world: 150.0 },
            log2_shards in 0u32..3,
            nan_at in 0usize..150,
            drain_every in 1usize..8,
        ) {
            use crate::ops::Op;
            let shards = 1usize << log2_shards;
            let mut ops = ops;
            let at = nan_at.min(ops.len());
            ops.splice(at..at, [
                Op::Spawn { name: "nowhere".into(), kind: EntityKind::Avatar, position: Point::new(f64::NAN, f64::NAN) },
                Op::Move { slot: 0, position: Point::new(f64::NAN, 3.0) },
                Op::Attr { slot: 0, name: "hp".into(), value: f64::NAN },
            ]);
            let mut bare = ShardedMetaverse::with_defaults(shards);
            let mut oracle = DurableReplica { dm: DurableMetaverse::with_defaults(shards) };
            for (k, cmd) in commands(&ops).iter().enumerate() {
                let bytes = cmd.encode();
                proptest::prop_assert_eq!(apply_command(&mut bare, &bytes), oracle.apply(&bytes), "{:?}", cmd);
                if k % drain_every == 0 {
                    bare.drain_events();
                    oracle.dm.engine.drain_events();
                }
            }
            let snap = snapshot(&bare);
            proptest::prop_assert_eq!(&snap, &oracle.dm.checkpoint_image());
            let installed = install(shards, &snap).expect("a clean snapshot");
            proptest::prop_assert_eq!(&snapshot(&installed), &snap);
            proptest::prop_assert_eq!(state_encoding(&installed), oracle.dm.state_encoding());
            let reinstalled = DurableReplica::install(shards, &snap).expect("a clean snapshot");
            proptest::prop_assert_eq!(reinstalled.dm.state_encoding(), state_encoding(&installed));
        }
    }

    #[test]
    fn the_committed_log_catches_a_replica_that_applies_something_else() {
        let mut log = CommittedLog::default();
        assert!(log.observe(1, b""), "a no-op keeps the indices dense");
        assert!(log.observe(2, b"a"));
        assert!(log.observe(2, b"a"), "a second replica agreeing");
        assert!(!log.observe(4, b"c"), "nobody applied index 3");
        assert!(log.observe(3, b"a"));
        assert_eq!(log.first_index.get(&b"a"[..]), Some(&2), "first commit wins");
        assert_eq!(log.prefix(2).len(), 2);
        assert_eq!(log.prefix(99).len(), 3);
        // Log matching broken: reported, and the history follows the
        // replica that rewrote it.
        assert!(!log.observe(2, b"b"));
        assert_eq!(log.prefix(99), [Bytes::new(), Bytes::from_static(b"b")]);
        assert_eq!(log.first_index.get(&b"a"[..]), None);
        assert_eq!(log.first_index.get(&b"b"[..]), Some(&2));
    }

    /// `rate` ops per sim-ms for `load_ms`: the first 64 spawn a pool,
    /// the rest alternate moves and `hp` writes over it, so the state's
    /// size stops growing while the history keeps doing so.
    fn steady_load(w: &mut ReplicatedMetaverse, rate: u64, load_ms: u64) {
        pool_load(w, 64, rate, load_ms, |_, _| {});
    }

    /// [`steady_load`] over a pool of `pool` entities, calling `each_tick`
    /// with the region and the longest command submitted so far after
    /// every tick from the first op on.
    fn pool_load(
        w: &mut ReplicatedMetaverse,
        pool: u64,
        rate: u64,
        load_ms: u64,
        mut each_tick: impl FnMut(&ReplicatedMetaverse, usize),
    ) {
        use mv_common::id::EntityId;
        drive(w, 0, 1_000);
        let mut k = 0u64;
        let mut longest = 0;
        for ms in 1_000..1_500 + load_ms {
            let due = if ms < 1_000 + load_ms { rate } else { 0 };
            for _ in 0..due {
                let ts = SimTime::from_micros(ms * 1_000 + k % rate);
                let id = EntityId::new(k % pool);
                let op = if k < pool {
                    spawn_op(k, ts)
                } else if (k / pool) % 2 == 1 {
                    DurableOp::Attr { id, name: "hp".into(), value: k as f64, ts }
                } else {
                    DurableOp::Position { id, position: Point::new(k as f64, 1.0), ts }
                };
                longest = longest.max(op.encode().len());
                assert!(w.submit(&op, ts).is_some(), "quiet network keeps its leader");
                k += 1;
            }
            w.tick(SimTime::from_millis(ms));
            each_tick(w, longest);
        }
    }

    #[test]
    fn replication_work_is_independent_of_history() {
        let counter = |w: &ReplicatedMetaverse, name: &str| w.registry().counter_get(name) as f64;
        let mut snapshot_len = Vec::new();
        for load_ms in [2_000, 20_000] {
            let mut w = ReplicatedMetaverse::new(RegionConfig::default(), 11);
            steady_load(&mut w, 2, load_ms);
            assert_eq!(w.acked().len() as u64, 2 * load_ms);
            assert!(w.violations().is_empty(), "{:?}", w.violations());
            let peers = (w.members().len() - 1) as f64;
            let per_commit = counter(&w, "raft.node.entries_sent") / counter(&w, "raft.node.entries_committed");
            assert!(per_commit <= peers + 0.1, "{load_ms} sim-ms: each entry sent {per_commit} times");
            let lens: Vec<usize> =
                w.replicas.iter().map(|s| snapshot(s.engine.as_ref().expect("up")).len()).collect();
            assert!(lens.iter().all(|l| *l == lens[0]), "{lens:?}");
            snapshot_len.push(lens[0]);
            assert_eq!(w.registry().gauge_get("core.replicated.pending_submits"), 0.0);
        }
        assert_eq!(snapshot_len[0], snapshot_len[1], "ten times the history, the same state");
    }

    /// Bytes a log holding `rec` alone, as one batch, takes: the most one
    /// raft record adds to a node's log (records synced together share a
    /// batch header).
    fn batch_of_one(rec: &mv_raft::RaftRecord) -> usize {
        let mut wal = mv_storage::GroupCommitWal::default();
        wal.append(
            mv_storage::WalRecord::Put {
                key: Vec::new(),
                value: rec.encode(),
            },
            SimTime::ZERO,
        );
        wal.sync();
        wal.encoded_len()
    }

    /// A replica compacts by the durable log's rule, not every so many
    /// entries. After every tick its raft log holds at most two snapshots,
    /// plus the entries it has not applied (no compaction may drop them)
    /// and one fence's records. Once the state has stopped growing, each
    /// compaction waits for about one snapshot's worth of new records, so
    /// the compactions are bounded by the bytes appended over the final
    /// snapshot's size — about 10 per replica here, where a fixed 64-entry
    /// count takes about 90.
    #[test]
    fn a_replicas_raft_log_stays_within_two_snapshots() {
        use mv_raft::RaftRecord;
        const POOL: u64 = 512;
        let (index, term) = (u64::MAX, u64::MAX);
        let fence_records = batch_of_one(&RaftRecord::Snapshot {
            index,
            term,
            data: Bytes::new(),
        }) + batch_of_one(&RaftRecord::HardState {
            term,
            voted: Some(NodeId::new(u64::MAX - 1)),
        });
        let mut w = ReplicatedMetaverse::new(RegionConfig::default(), 11);
        let n = w.members().len();
        // Per replica: the last base seen and the snapshot it left, the
        // most entries ever unapplied, and every compaction's
        // `(snapshot before it, last index when it happened)`.
        let mut base = vec![(0u64, 0usize); n];
        let mut unapplied_max = vec![0u64; n];
        let mut compactions: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
        let mut entry_max = 0;
        pool_load(&mut w, POOL, 2, 3_000, |w, longest| {
            entry_max = batch_of_one(&RaftRecord::Entry {
                index,
                term,
                cmd: vec![0; longest],
            });
            for (i, slot) in w.replicas.iter().enumerate() {
                let node = &slot.node;
                let unapplied = node.last_index() - slot.applied_raft;
                let bound =
                    2 * node.snapshot_len() + fence_records + unapplied as usize * entry_max;
                assert!(
                    node.wal_len() <= bound,
                    "{:?}: {} log bytes over {bound}",
                    node.id(),
                    node.wal_len()
                );
                unapplied_max[i] = unapplied_max[i].max(unapplied);
                if node.base_index() != base[i].0 {
                    compactions[i].push((base[i].1, node.last_index()));
                    base[i] = (node.base_index(), node.snapshot_len());
                }
            }
        });
        assert!(w.violations().is_empty(), "{:?}", w.violations());
        assert_eq!(
            w.registry().counter_get("raft.node.snapshots_installed"),
            0,
            "every base moved by compaction"
        );
        let total: usize = compactions.iter().map(Vec::len).sum();
        assert_eq!(
            w.registry().counter_get("raft.node.compactions"),
            total as u64
        );
        let last = snapshot(w.replicas[0].engine.as_ref().expect("up")).len();
        for (i, taken) in compactions.iter().enumerate() {
            assert_eq!(
                base[i].1, last,
                "replica {i}'s last snapshot is the final state"
            );
            // From the first compaction that follows a final-size snapshot
            // on, each one needed `last` less one fence's records and the
            // unapplied entries of new bytes, and each entry appended brought
            // at most `entry_max`.
            let steady: Vec<u64> = taken
                .iter()
                .filter(|(before, _)| *before == last)
                .map(|&(_, at)| at)
                .collect();
            let (Some(first), Some(end)) = (steady.first(), steady.last()) else {
                panic!("replica {i}: no steady compactions")
            };
            let per = last - fence_records - unapplied_max[i] as usize * entry_max;
            let appended = (end - first) as usize * entry_max;
            assert!(
                steady.len() - 1 <= appended / per,
                "replica {i}: {} compactions for {appended} bytes at {per}",
                steady.len() - 1
            );
            assert!(steady.len() >= 2, "replica {i} compacted the steady state");
        }
    }

    #[test]
    fn a_wiped_replica_is_sent_about_one_snapshot_per_install() {
        let mut w = ReplicatedMetaverse::new(RegionConfig::default(), 11);
        let victim = NodeId::new(1);
        w.set_wipe_on_crash(victim, true);
        steady_load(&mut w, 2, 500);
        w.on_node_crash(victim);
        drive(&mut w, 2_000, 3_000);
        w.on_node_restart(victim);
        drive(&mut w, 3_000, 4_000);
        let sent = w.registry().counter_get("raft.node.snapshots_sent");
        let installed = w.registry().counter_get("raft.node.snapshots_installed");
        assert!(installed >= 1, "the wiped replica caught up by install");
        assert!(sent <= 2 * installed, "{sent} snapshots sent for {installed} installs");
        let digests = w.replica_digests();
        assert!(digests.iter().all(|d| d.is_some() && *d == digests[0]), "{digests:?}");
        assert!(w.violations().is_empty(), "{:?}", w.violations());
    }

    /// A replica only counts its co-space events. After a steady load
    /// and a wiped replica's catch-up by snapshot install, no replica's
    /// shard holds a buffered event or has allocated a buffer, and each
    /// one's next event id and snapshot are those of a recording engine
    /// fed the same committed commands and drained.
    #[test]
    fn replicas_count_events_and_keep_none() {
        let mut w = ReplicatedMetaverse::new(RegionConfig::default(), 13);
        let victim = NodeId::new(2);
        w.set_wipe_on_crash(victim, true);
        steady_load(&mut w, 2, 400);
        w.on_node_crash(victim);
        drive(&mut w, 2_000, 2_500);
        w.on_node_restart(victim);
        drive(&mut w, 2_500, 3_500);
        assert!(w.registry().counter_get("raft.node.snapshots_installed") >= 1, "the wiped replica installed");
        for slot in &w.replicas {
            let engine = slot.engine.as_ref().expect("up");
            for bus in engine.buses() {
                assert_eq!((bus.pending().len(), bus.buffer_capacity()), (0, 0), "{:?}", slot.node.id());
            }
            let mut bare = ShardedMetaverse::with_defaults(w.cfg.shards);
            for cmd in w.committed.prefix(slot.applied_raft).iter().filter(|cmd| !cmd.is_empty()) {
                assert!(apply_command(&mut bare, cmd));
            }
            assert!(!bare.drain_events().is_empty());
            assert_eq!(engine.next_event(), bare.next_event(), "{:?}", slot.node.id());
            assert_eq!(snapshot(engine), snapshot(&bare), "{:?}", slot.node.id());
        }
    }

    #[test]
    fn replica_event_backlog_stays_empty() {
        let mut w = ReplicatedMetaverse::new(RegionConfig::default(), 5);
        steady_load(&mut w, 10, 1_000);
        assert_eq!(w.acked().len(), 10_000);
        for slot in &mut w.replicas {
            let engine = slot.engine.as_mut().expect("up");
            assert!(engine.drain_events().is_empty(), "{:?} kept events", slot.node.id());
        }
    }
}
