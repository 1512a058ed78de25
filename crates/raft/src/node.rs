//! The per-replica raft state machine.
//!
//! [`RaftNode`] is pure protocol state plus a `GroupCommitWal` standing
//! in for its disk: [`RaftNode::tick`] fires timers (election timeout,
//! heartbeat), [`RaftNode::handle`] processes one delivered message,
//! and both return the messages to ship. The embedder applies committed
//! commands by draining [`RaftNode::take_committed`] and reacts to an
//! accepted snapshot via [`RaftNode::take_pending_install`].
//!
//! Every protocol rule that Raft requires to be *stable* is appended to
//! the WAL and synced before the node acts on it (grant a vote, ack an
//! append, advertise a term). A crash (`crash`) drops volatile state —
//! role, commit index, peer bookkeeping, unsynced WAL tail — and
//! [`RaftNode::restart`] folds the surviving records back; a wiped node
//! ([`RaftNode::wipe`]) restarts empty and catches up via snapshot
//! install. The WAL is trimmed only by a fence (`seal_fence`), at
//! [`RaftNode::compact`] and at an accepted snapshot.

use crate::msg::{LogEntry, Outgoing, RaftMsg};
use crate::record::{FoldedState, RaftRecord};
use crate::{mix, unit_f64};
use bytes::Bytes;
use mv_common::id::NodeId;
use mv_common::metrics::Counters;
use mv_common::time::{SimDuration, SimTime};
use mv_obs::{LogHistogram, SharedTracer};
use mv_storage::wal::{WalRecord, WalRecordRef};
use mv_storage::{GroupCommitPolicy, GroupCommitWal};
use std::collections::BTreeMap;

/// Protocol timing and compaction tuning. All durations are virtual.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaftConfig {
    /// Minimum election timeout (also the lease extension unit — a
    /// rival cannot win an election in less than this).
    pub election_min: SimDuration,
    /// Seeded spread added on top: timeout ∈ `[min, min + spread)`,
    /// drawn as a pure function of `(seed, node, term)`.
    pub election_spread: SimDuration,
    /// Leader heartbeat interval (must be well under `election_min`).
    pub heartbeat: SimDuration,
    /// Max entries per AppendEntries message.
    pub max_batch: usize,
}

impl Default for RaftConfig {
    fn default() -> Self {
        RaftConfig {
            election_min: SimDuration::from_millis(150),
            election_spread: SimDuration::from_millis(150),
            heartbeat: SimDuration::from_millis(50),
            max_batch: 64,
        }
    }
}

/// A node's current protocol role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// lint:allow(dead-pub): returned by `RaftNode::role`, which other crates call
pub enum Role {
    /// Accepting entries from a leader.
    Follower,
    /// Soliciting votes after an election timeout.
    Candidate,
    /// Replicating entries; the only role that accepts client appends.
    Leader,
}

/// How the leader is feeding one peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PeerState {
    /// The peer's log position is unconfirmed (new leader, a refusal) or
    /// it has been silent for a heartbeat interval: one append per
    /// heartbeat, none in between, until an append succeeds.
    Probe,
    /// Pipelined: `next` runs ahead of `matched`, each tick ships what
    /// is unsent, and a reply only confirms.
    Replicate,
    /// An InstallSnapshot left at `sent`: heartbeats only until its
    /// reply arrives or a heartbeat interval lapses.
    Snapshot { sent: SimTime },
}

/// The leader's view of one peer.
#[derive(Debug, Clone, Copy)]
struct Progress {
    /// Highest index known replicated on the peer (commit-rule input).
    matched: u64,
    /// First index not yet sent. In [`PeerState::Replicate`] it moves
    /// when entries are sent, not when they are acknowledged.
    next: u64,
    state: PeerState,
    /// Freshest same-term reply (lease input; silence demotes to probe).
    last_ack: Option<SimTime>,
}

/// See the module docs. One instance per region replica.
pub struct RaftNode {
    id: NodeId,
    /// Every *other* member, sorted (deterministic send order).
    peers: Vec<NodeId>,
    cfg: RaftConfig,
    seed: u64,
    // -- persistent (mirrored in `wal`) ----------------------------------
    term: u64,
    voted: Option<NodeId>,
    /// Last index covered by `snapshot` (0 = none).
    base_index: u64,
    base_term: u64,
    snapshot: Option<Bytes>,
    /// Entries above `base_index`.
    log: Vec<LogEntry>,
    /// The node's "disk".
    wal: GroupCommitWal,
    // -- volatile --------------------------------------------------------
    role: Role,
    leader_hint: Option<NodeId>,
    commit_index: u64,
    /// Everything at or below this was handed to the embedder.
    applied_index: u64,
    votes: Vec<NodeId>,
    /// Per-peer replication progress; filled on election, empty otherwise.
    progress: BTreeMap<NodeId, Progress>,
    election_deadline: SimTime,
    heartbeat_due: SimTime,
    /// An accepted snapshot the embedder has not yet installed.
    pending_install: bool,
    /// Open `raft.election` span, if an election is in flight.
    election_span: Option<u64>,
    /// When the in-flight election started (duration probe).
    election_started: Option<SimTime>,
    tracer: Option<SharedTracer>,
    /// `raft.node.*` counters (`elections_started`, `leaders_elected`,
    /// `entries_committed`, `snapshots_installed`, …).
    pub stats: Counters,
    /// `raft.node.election_ms`: how long each election this node won took.
    pub election_ms: LogHistogram,
}

impl RaftNode {
    /// A fresh member of the group `members` (must contain `id`).
    /// `seed` pins the election-timeout stream.
    pub fn new(id: NodeId, members: &[NodeId], cfg: RaftConfig, seed: u64, now: SimTime) -> Self {
        let mut peers: Vec<NodeId> = members.iter().copied().filter(|m| *m != id).collect();
        peers.sort_unstable();
        peers.dedup();
        let mut node = RaftNode {
            id,
            peers,
            cfg,
            seed,
            term: 0,
            voted: None,
            base_index: 0,
            base_term: 0,
            snapshot: None,
            log: Vec::new(),
            wal: Self::empty_disk(),
            role: Role::Follower,
            leader_hint: None,
            commit_index: 0,
            applied_index: 0,
            votes: Vec::new(),
            progress: BTreeMap::new(),
            election_deadline: SimTime::ZERO,
            heartbeat_due: SimTime::ZERO,
            pending_install: false,
            election_span: None,
            election_started: None,
            tracer: None,
            stats: Counters::new(),
            election_ms: LogHistogram::new(),
        };
        node.election_deadline = now + node.election_timeout(0);
        node
    }

    /// A new disk: a WAL that seals only when the protocol syncs.
    fn empty_disk() -> GroupCommitWal {
        GroupCommitWal::with_policy(GroupCommitPolicy::by_records(usize::MAX))
    }

    /// Collect `raft.election/append/commit/snapshot` spans here.
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.tracer = Some(tracer);
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// True when this node believes it is the leader.
    pub fn is_leader(&self) -> bool {
        self.role == Role::Leader
    }

    /// Current term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Highest log index (snapshot base + entries).
    pub fn last_index(&self) -> u64 {
        self.base_index + self.log.len() as u64
    }

    /// Highest committed index.
    pub fn commit_index(&self) -> u64 {
        self.commit_index
    }

    /// Last index covered by the local snapshot (0 = none).
    pub fn base_index(&self) -> u64 {
        self.base_index
    }

    /// Bytes of the local snapshot (0 = none).
    pub fn snapshot_len(&self) -> usize {
        self.snapshot.as_ref().map_or(0, Bytes::len)
    }

    /// Bytes of the node's durable log, its snapshot record included.
    pub fn wal_len(&self) -> usize {
        self.wal.encoded_len()
    }

    /// Is a [`Self::compact`] due? The durable engine's checkpoint rule
    /// ([`GroupCommitWal::checkpoint_due`]) on this node's log against its
    /// snapshot: the log is bounded by about two snapshots plus what has
    /// not been applied yet, a size set by the state, not the history.
    pub fn compaction_due(&self) -> bool {
        self.wal.checkpoint_due(self.snapshot_len())
    }

    /// Group size (peers + self).
    pub fn members(&self) -> usize {
        self.peers.len() + 1
    }

    fn majority(&self) -> usize {
        self.members() / 2 + 1
    }

    /// The seeded election timeout for `term`: a pure function, so two
    /// same-seed runs elect identically.
    fn election_timeout(&self, term: u64) -> SimDuration {
        let jitter = self.cfg.election_spread.mul_f64(unit_f64(mix(
            mix(self.seed, self.id.raw()),
            term,
        )));
        self.cfg.election_min + jitter
    }

    /// Term of the entry at `index`, if this node still has it.
    fn term_at(&self, index: u64) -> Option<u64> {
        if index == 0 {
            return Some(0);
        }
        if index == self.base_index {
            return Some(self.base_term);
        }
        let off = index.checked_sub(self.base_index + 1)? as usize;
        self.log.get(off).map(|e| e.term)
    }

    fn last_term(&self) -> u64 {
        self.log.last().map_or(self.base_term, |e| e.term)
    }

    /// Append `recs` to the WAL and sync: the group-commit batch is the
    /// durability unit, so one protocol step costs one sync however
    /// many records it wrote.
    fn persist(&mut self, recs: &[RaftRecord], now: SimTime) {
        if recs.is_empty() {
            return;
        }
        for rec in recs {
            self.wal.append(wal_record(rec), now);
        }
        self.wal.sync();
        self.stats.add("wal_records", recs.len() as u64);
    }

    /// [`Self::persist`] `recs` as the WAL's fence: they stand in for
    /// everything logged before them, so once they seal that goes.
    fn persist_fence(&mut self, recs: &[RaftRecord], now: SimTime) {
        self.wal.seal_fence(recs.iter().map(wal_record), now);
        self.stats.add("wal_records", recs.len() as u64);
    }

    fn persist_hard_state(&mut self, now: SimTime) {
        self.persist(&[RaftRecord::HardState { term: self.term, voted: self.voted }], now);
    }

    /// Observe a higher term: adopt it and fall back to follower.
    fn step_down(&mut self, term: u64, now: SimTime) {
        if self.role == Role::Leader {
            self.stats.incr("step_downs");
        }
        self.close_election(now, "lost");
        self.term = term;
        self.voted = None;
        self.role = Role::Follower;
        self.votes.clear();
        self.progress.clear();
        self.election_deadline = now + self.election_timeout(term);
        self.persist_hard_state(now);
    }

    fn close_election(&mut self, now: SimTime, status: &'static str) {
        if let (Some(tr), Some(span)) = (&self.tracer, self.election_span.take()) {
            tr.close(span, now, status);
        }
    }

    // -- timers ----------------------------------------------------------

    /// Advance timers to `now`: start an election when the timeout
    /// lapses; when leading, ship unsent entries to every replicating
    /// peer and, once per heartbeat interval, one append to every peer.
    /// Returns messages to ship.
    pub fn tick(&mut self, now: SimTime) -> Vec<Outgoing> {
        let mut out = Vec::new();
        match self.role {
            Role::Leader => {
                let heartbeat = now >= self.heartbeat_due;
                if heartbeat {
                    self.heartbeat_due = now + self.cfg.heartbeat;
                }
                let (last, interval) = (self.last_index(), self.cfg.heartbeat);
                for i in 0..self.peers.len() {
                    let Some(&p) = self.peers.get(i) else { break };
                    let Some(pr) = self.progress.get_mut(&p) else { continue };
                    if heartbeat {
                        let lapsed = |t: SimTime| now.since(t) >= interval;
                        match pr.state {
                            PeerState::Replicate if pr.last_ack.is_none_or(lapsed) => {
                                pr.state = PeerState::Probe;
                            }
                            PeerState::Snapshot { sent } if lapsed(sent) => {
                                pr.state = PeerState::Probe;
                            }
                            _ => {}
                        }
                    } else if pr.state != PeerState::Replicate || pr.next > last {
                        continue;
                    }
                    out.extend(self.append_for(p));
                }
            }
            Role::Follower | Role::Candidate => {
                if now >= self.election_deadline {
                    self.start_election(now, &mut out);
                }
            }
        }
        out
    }

    fn start_election(&mut self, now: SimTime, out: &mut Vec<Outgoing>) {
        self.close_election(now, "lost");
        self.term += 1;
        self.role = Role::Candidate;
        self.voted = Some(self.id);
        self.votes = vec![self.id];
        self.leader_hint = None;
        self.election_deadline = now + self.election_timeout(self.term);
        self.persist_hard_state(now);
        self.stats.incr("elections_started");
        self.election_started = Some(now);
        if let Some(tr) = &self.tracer {
            if let Some(ctx) = tr.maybe_trace("raft.election", now) {
                self.election_span = Some(ctx.span);
            }
        }
        let msg = RaftMsg::Vote {
            term: self.term,
            last_index: self.last_index(),
            last_term: self.last_term(),
        };
        for &p in &self.peers {
            out.push(Outgoing { to: p, msg: msg.clone() });
        }
        if self.votes.len() >= self.majority() {
            // Single-node group: win immediately.
            self.become_leader(now, out);
        }
    }

    fn become_leader(&mut self, now: SimTime, out: &mut Vec<Outgoing>) {
        self.role = Role::Leader;
        self.leader_hint = Some(self.id);
        self.stats.incr("leaders_elected");
        if let Some(started) = self.election_started.take() {
            self.election_ms.record(now.since(started).as_millis_f64());
        }
        self.close_election(now, "won");
        // Nothing is known about any peer's log yet: probe from our tail.
        let fresh = Progress {
            matched: 0,
            next: self.last_index() + 1,
            state: PeerState::Probe,
            last_ack: None,
        };
        self.progress = self.peers.iter().map(|&p| (p, fresh)).collect();
        // A no-op entry gives the new term something to commit (§5.4.2:
        // older-term entries only commit transitively through it).
        let index = self.last_index() + 1;
        self.log.push(LogEntry { term: self.term, cmd: Vec::new() });
        self.persist(&[RaftRecord::Entry { index, term: self.term, cmd: Vec::new() }], now);
        self.advance_commit(now);
        self.heartbeat_due = now + self.cfg.heartbeat;
        for i in 0..self.peers.len() {
            let Some(&p) = self.peers.get(i) else { break };
            out.extend(self.append_for(p));
        }
    }

    /// The AppendEntries owed to peer `p`: the entries from its `next`
    /// (at most `max_batch`, possibly none — a heartbeat). A replicating
    /// peer's `next` moves past them at once, so each entry is sent once
    /// unless a refusal backs `next` off. For a peer whose `next` was
    /// compacted away this is a bare heartbeat at our tail: if the peer
    /// is alive it refuses, and the refusal is answered with the
    /// snapshot ([`Self::on_append_reply`]) — a dead peer is never sent
    /// one.
    fn append_for(&mut self, p: NodeId) -> Option<Outgoing> {
        let pr = *self.progress.get(&p)?;
        let bare = pr.next <= self.base_index || matches!(pr.state, PeerState::Snapshot { .. });
        let prev_index = if bare { self.last_index() } else { pr.next - 1 };
        let prev_term = self.term_at(prev_index)?;
        let from = (prev_index - self.base_index) as usize;
        let entries: Vec<LogEntry> =
            self.log.get(from..).unwrap_or_default().iter().take(self.cfg.max_batch).cloned().collect();
        if entries.is_empty() {
            self.stats.incr("heartbeats_sent");
        } else {
            self.stats.incr("appends_sent");
            self.stats.add("entries_sent", entries.len() as u64);
            if pr.state == PeerState::Replicate {
                self.progress.get_mut(&p)?.next += entries.len() as u64;
            }
        }
        Some(Outgoing {
            to: p,
            msg: RaftMsg::Append {
                term: self.term,
                prev_index,
                prev_term,
                entries,
                commit: self.commit_index,
            },
        })
    }

    /// Ship the snapshot to peer `p` and stop feeding it entries until
    /// the install is acknowledged (or a heartbeat interval lapses).
    fn snapshot_for(&mut self, p: NodeId, now: SimTime) -> Option<Outgoing> {
        let data = self.snapshot.clone()?;
        self.progress.get_mut(&p)?.state = PeerState::Snapshot { sent: now };
        self.stats.incr("snapshots_sent");
        self.trace_instant("raft.snapshot", now, "sent");
        Some(Outgoing {
            to: p,
            msg: RaftMsg::Snap {
                term: self.term,
                base_index: self.base_index,
                base_term: self.base_term,
                data,
            },
        })
    }

    /// A zero-duration span marking one protocol event (sampled).
    fn trace_instant(&self, name: &'static str, now: SimTime, status: &'static str) {
        if let Some(tr) = &self.tracer {
            if let Some(ctx) = tr.maybe_trace(name, now) {
                tr.close(ctx.span, now, status);
            }
        }
    }

    // -- client surface --------------------------------------------------

    /// Append a client command to the leader's log. Returns the entry's
    /// index (acknowledge the client only once `commit_index` reaches
    /// it), or `None` when this node is not the leader.
    pub fn client_append(&mut self, cmd: Vec<u8>, now: SimTime) -> Option<u64> {
        if self.role != Role::Leader {
            return None;
        }
        let index = self.last_index() + 1;
        self.log.push(LogEntry { term: self.term, cmd: cmd.clone() });
        self.persist(&[RaftRecord::Entry { index, term: self.term, cmd }], now);
        self.stats.incr("client_appends");
        self.advance_commit(now);
        Some(index)
    }

    /// True while the leader's read lease is valid: a majority of the
    /// group acknowledged this term within the last minimum election
    /// timeout, so no rival can have been elected yet — local reads are
    /// safe without a round trip.
    pub fn lease_valid(&self, now: SimTime) -> bool {
        if self.role != Role::Leader {
            return false;
        }
        let needed = self.majority() - 1; // self counts implicitly
        if needed == 0 {
            return true;
        }
        let mut acks: Vec<SimTime> = self.progress.values().filter_map(|p| p.last_ack).collect();
        acks.sort_unstable_by(|a, b| b.cmp(a));
        match acks.get(needed - 1) {
            Some(&kth) => now < kth + self.cfg.election_min,
            None => false,
        }
    }

    /// Drain entries committed since the last drain, in index order.
    /// No-op entries are included (callers skip empty commands) so the
    /// index bookkeeping stays dense.
    pub fn take_committed(&mut self) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        while self.applied_index < self.commit_index {
            let idx = self.applied_index + 1;
            let Some(off) = idx.checked_sub(self.base_index + 1) else { break };
            let Some(entry) = self.log.get(off as usize) else { break };
            out.push((idx, entry.cmd.clone()));
            self.applied_index = idx;
        }
        out
    }

    /// An accepted InstallSnapshot the embedder has not yet applied:
    /// returns `(base_index, base_term, payload)` once per install.
    pub fn take_pending_install(&mut self) -> Option<(u64, u64, Bytes)> {
        if !self.pending_install {
            return None;
        }
        self.pending_install = false;
        Some((self.base_index, self.base_term, self.snapshot.clone()?))
    }

    /// Compact the log: `snapshot` covers everything up to `index`
    /// (which must be applied). Entries at or below `index` are
    /// discarded, and the WAL is trimmed by a fence
    /// (`GroupCommitWal::seal_fence`): snapshot record, hard state and
    /// surviving entries seal as one batch, then every batch before it
    /// goes — so recovery replay stays proportional to the live suffix.
    pub fn compact(&mut self, index: u64, snapshot: Bytes, now: SimTime) {
        if index <= self.base_index || index > self.applied_index {
            return;
        }
        let Some(term) = self.term_at(index) else { return };
        let covered = (index - self.base_index) as usize;
        self.log.drain(..covered.min(self.log.len()));
        self.base_index = index;
        self.base_term = term;
        self.snapshot = Some(snapshot.clone());
        self.stats.incr("compactions");
        self.trace_instant("raft.snapshot", now, "compacted");
        let mut recs = vec![
            RaftRecord::Snapshot { index, term, data: snapshot },
            RaftRecord::HardState { term: self.term, voted: self.voted },
        ];
        for (i, e) in self.log.iter().enumerate() {
            recs.push(RaftRecord::Entry {
                index: self.base_index + 1 + i as u64,
                term: e.term,
                cmd: e.cmd.clone(),
            });
        }
        self.persist_fence(&recs, now);
    }

    // -- message handling ------------------------------------------------

    /// Process one delivered message. Returns replies/side-sends.
    pub fn handle(&mut self, from: NodeId, msg: RaftMsg, now: SimTime) -> Vec<Outgoing> {
        let mut out = Vec::new();
        if msg.term() > self.term {
            self.step_down(msg.term(), now);
        }
        match msg {
            RaftMsg::Vote { term, last_index, last_term } => {
                self.on_vote(from, term, last_index, last_term, now, &mut out);
            }
            RaftMsg::VoteReply { term, granted } => {
                self.on_vote_reply(from, term, granted, now, &mut out);
            }
            RaftMsg::Append { term, prev_index, prev_term, entries, commit } => {
                self.on_append(from, term, prev_index, prev_term, entries, commit, now, &mut out);
            }
            RaftMsg::AppendReply { term, ok, match_index } => {
                self.on_append_reply(from, term, ok, match_index, now, &mut out);
            }
            RaftMsg::Snap { term, base_index, base_term, data } => {
                self.on_snap(from, term, base_index, base_term, data, now, &mut out);
            }
            RaftMsg::SnapReply { term, match_index } => {
                self.on_reply_progress(from, term, match_index, now, &mut out);
            }
        }
        out
    }

    fn on_vote(
        &mut self,
        from: NodeId,
        term: u64,
        last_index: u64,
        last_term: u64,
        now: SimTime,
        out: &mut Vec<Outgoing>,
    ) {
        let up_to_date = (last_term, last_index) >= (self.last_term(), self.last_index());
        let grant = term == self.term
            && self.voted.is_none_or(|v| v == from)
            && up_to_date
            && self.role != Role::Leader;
        if grant {
            self.voted = Some(from);
            self.election_deadline = now + self.election_timeout(term);
            // The vote must be durable before the reply leaves: a
            // restarted node must not vote twice in one term.
            self.persist_hard_state(now);
            self.stats.incr("votes_granted");
        }
        out.push(Outgoing { to: from, msg: RaftMsg::VoteReply { term: self.term, granted: grant } });
    }

    fn on_vote_reply(
        &mut self,
        from: NodeId,
        term: u64,
        granted: bool,
        now: SimTime,
        out: &mut Vec<Outgoing>,
    ) {
        if self.role != Role::Candidate || term != self.term || !granted {
            return;
        }
        if !self.votes.contains(&from) {
            self.votes.push(from);
        }
        if self.votes.len() >= self.majority() {
            self.become_leader(now, out);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_append(
        &mut self,
        from: NodeId,
        term: u64,
        prev_index: u64,
        prev_term: u64,
        entries: Vec<LogEntry>,
        commit: u64,
        now: SimTime,
        out: &mut Vec<Outgoing>,
    ) {
        if term < self.term {
            out.push(Outgoing {
                to: from,
                msg: RaftMsg::AppendReply { term: self.term, ok: false, match_index: 0 },
            });
            return;
        }
        // A current-term AppendEntries is proof of a legitimate leader.
        if self.role != Role::Follower {
            self.close_election(now, "lost");
            self.role = Role::Follower;
        }
        self.leader_hint = Some(from);
        self.election_deadline = now + self.election_timeout(term);

        // Entries our snapshot already covers are skipped, not re-checked
        // — the snapshot is authoritative for its prefix.
        let (mut prev_index, mut prev_term, mut entries) = (prev_index, prev_term, entries);
        if prev_index < self.base_index {
            let skip = (self.base_index - prev_index) as usize;
            if skip >= entries.len() {
                out.push(Outgoing {
                    to: from,
                    msg: RaftMsg::AppendReply {
                        term: self.term,
                        ok: true,
                        match_index: self.base_index,
                    },
                });
                return;
            }
            entries.drain(..skip);
            prev_index = self.base_index;
            prev_term = self.base_term;
        }

        let consistent = self.term_at(prev_index) == Some(prev_term);
        if !consistent {
            // Back-off hint: the highest index the leader should try
            // next (our last index, or just below the conflict).
            let hint = self.last_index().min(prev_index.saturating_sub(1)).max(self.base_index);
            out.push(Outgoing {
                to: from,
                msg: RaftMsg::AppendReply { term: self.term, ok: false, match_index: hint },
            });
            return;
        }

        let mut recs = Vec::new();
        let mut idx = prev_index;
        for e in entries.iter() {
            idx += 1;
            match self.term_at(idx) {
                Some(t) if t == e.term => continue, // already have it
                Some(_) => {
                    // Conflict: discard our suffix, then append.
                    let keep = (idx - self.base_index - 1) as usize;
                    self.log.truncate(keep);
                    recs.push(RaftRecord::Truncate { from: idx });
                    self.log.push(e.clone());
                    recs.push(RaftRecord::Entry { index: idx, term: e.term, cmd: e.cmd.clone() });
                }
                None => {
                    self.log.push(e.clone());
                    recs.push(RaftRecord::Entry { index: idx, term: e.term, cmd: e.cmd.clone() });
                }
            }
        }
        // Durable before acknowledged: the ack promises the entries
        // survive this node's crash.
        self.persist(&recs, now);
        if !entries.is_empty() {
            self.stats.add("entries_accepted", entries.len() as u64);
        }
        let match_index = prev_index + entries.len() as u64;
        let new_commit = commit.min(self.last_index());
        if new_commit > self.commit_index {
            self.commit_index = new_commit;
            self.stats.incr("commit_advances");
        }
        out.push(Outgoing {
            to: from,
            msg: RaftMsg::AppendReply { term: self.term, ok: true, match_index },
        });
    }

    fn on_append_reply(
        &mut self,
        from: NodeId,
        term: u64,
        ok: bool,
        match_index: u64,
        now: SimTime,
        out: &mut Vec<Outgoing>,
    ) {
        if self.role != Role::Leader || term != self.term {
            return;
        }
        if ok {
            self.on_reply_progress(from, term, match_index, now, out);
            return;
        }
        let base = self.base_index;
        let Some(pr) = self.progress.get_mut(&from) else { return };
        pr.last_ack = Some(now);
        if matches!(pr.state, PeerState::Snapshot { .. }) {
            return; // refusing the heartbeats that cover an install in flight
        }
        // The hint names the peer's tail, so a refusal that does not
        // lower `next` is the echo of an append sent before the back-off.
        let news = match_index + 1 < pr.next;
        if news {
            pr.next = match_index + 1;
            pr.state = PeerState::Probe;
        }
        if pr.next <= base {
            // A live peer behind our compacted prefix.
            out.extend(self.snapshot_for(from, now));
        } else if news {
            out.extend(self.append_for(from));
        }
    }

    /// Success progress shared by AppendReply and SnapReply: confirm what
    /// the peer holds, resume pipelining, and send on only if entries
    /// beyond `next` remain.
    fn on_reply_progress(
        &mut self,
        from: NodeId,
        term: u64,
        match_index: u64,
        now: SimTime,
        out: &mut Vec<Outgoing>,
    ) {
        if self.role != Role::Leader || term != self.term {
            return;
        }
        let Some(pr) = self.progress.get_mut(&from) else { return };
        pr.last_ack = Some(now);
        pr.matched = pr.matched.max(match_index);
        pr.next = pr.next.max(match_index + 1);
        pr.state = PeerState::Replicate;
        let unsent = pr.next <= self.base_index + self.log.len() as u64;
        self.advance_commit(now);
        if unsent {
            out.extend(self.append_for(from));
        }
    }

    /// Leader commit rule: the majority-replicated index whose entry is
    /// from the current term.
    fn advance_commit(&mut self, now: SimTime) {
        if self.role != Role::Leader {
            return;
        }
        let mut matches: Vec<u64> = self.progress.values().map(|p| p.matched).collect();
        matches.push(self.last_index());
        matches.sort_unstable_by(|a, b| b.cmp(a));
        let Some(&candidate) = matches.get(self.majority() - 1) else { return };
        if candidate > self.commit_index && self.term_at(candidate) == Some(self.term) {
            let advanced = candidate - self.commit_index;
            self.commit_index = candidate;
            self.stats.add("entries_committed", advanced);
            self.trace_instant("raft.commit", now, "advanced");
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_snap(
        &mut self,
        from: NodeId,
        term: u64,
        base_index: u64,
        base_term: u64,
        data: Bytes,
        now: SimTime,
        out: &mut Vec<Outgoing>,
    ) {
        if term < self.term {
            out.push(Outgoing {
                to: from,
                msg: RaftMsg::SnapReply { term: self.term, match_index: 0 },
            });
            return;
        }
        if self.role != Role::Follower {
            self.close_election(now, "lost");
            self.role = Role::Follower;
        }
        self.leader_hint = Some(from);
        self.election_deadline = now + self.election_timeout(term);
        if base_index <= self.commit_index {
            // Nothing new: we already committed past the snapshot.
            out.push(Outgoing {
                to: from,
                msg: RaftMsg::SnapReply { term: self.term, match_index: self.commit_index },
            });
            return;
        }
        // Accept: the snapshot replaces our log wholesale (any suffix
        // we hold may conflict; the leader backfills from base_index).
        self.log.clear();
        self.base_index = base_index;
        self.base_term = base_term;
        self.snapshot = Some(data.clone());
        self.commit_index = base_index;
        self.applied_index = base_index;
        self.pending_install = true;
        self.stats.incr("snapshots_installed");
        self.trace_instant("raft.snapshot", now, "installed");
        self.persist_fence(
            &[
                RaftRecord::Snapshot { index: base_index, term: base_term, data },
                RaftRecord::HardState { term: self.term, voted: self.voted },
            ],
            now,
        );
        out.push(Outgoing {
            to: from,
            msg: RaftMsg::SnapReply { term: self.term, match_index: base_index },
        });
    }

    // -- crash / restart -------------------------------------------------

    /// The node's process dies: the unsynced WAL tail is lost (the
    /// protocol syncs before acting, so in practice nothing is pending)
    /// and all volatile state becomes garbage. The embedder must call
    /// [`Self::restart`] before using the node again.
    pub fn crash(&mut self) {
        self.wal.crash_with_report();
        self.stats.incr("crashes");
    }

    /// Rebuild from the durable WAL image: term/vote/log/snapshot fold
    /// back; role, commit index, and peer bookkeeping reset. The
    /// embedder rebuilds its state machine from
    /// [`Self::take_pending_install`] (set when a snapshot survived)
    /// plus re-delivered committed entries.
    pub fn restart(&mut self, now: SimTime) {
        let folded = FoldedState::from_records(self.wal.durable().filter_map(|r| match r {
            WalRecordRef::Put { value, .. } => Some(value),
            WalRecordRef::Delete { .. } => None,
        }));
        self.term = folded.term;
        self.voted = folded.voted;
        self.base_index = folded.base_index;
        self.base_term = folded.base_term;
        self.snapshot = folded.snapshot;
        self.log = folded.log;
        self.role = Role::Follower;
        self.leader_hint = None;
        self.commit_index = self.base_index;
        self.applied_index = self.base_index;
        self.votes.clear();
        self.progress.clear();
        self.pending_install = self.snapshot.is_some();
        self.election_span = None;
        self.election_deadline = now + self.election_timeout(self.term);
        self.stats.incr("restarts");
    }

    /// Total state loss: disk *and* memory gone (a replaced machine).
    /// The node restarts empty and catches up via snapshot install or
    /// full log backfill.
    pub fn wipe(&mut self, now: SimTime) {
        self.wal = Self::empty_disk();
        self.term = 0;
        self.voted = None;
        self.base_index = 0;
        self.base_term = 0;
        self.snapshot = None;
        self.log.clear();
        self.restart(now);
        self.stats.incr("wipes");
    }

    /// Deterministic digest of the committed log prefix (index, term,
    /// command bytes, folded over the snapshot base). Two replicas with
    /// equal digests agree on the committed history.
    pub fn committed_digest(&self) -> u64 {
        use std::hash::Hasher as _;
        let mut h = mv_common::hash::FxHasher::default();
        h.write_u64(self.base_index);
        h.write_u64(self.base_term);
        if let Some(s) = &self.snapshot {
            h.write(s);
        }
        for i in (self.base_index + 1)..=self.commit_index {
            let Some(off) = i.checked_sub(self.base_index + 1) else { continue };
            let Some(e) = self.log.get(off as usize) else { continue };
            h.write_u64(i);
            h.write_u64(e.term);
            h.write(&e.cmd);
        }
        h.finish()
    }
}

/// A raft record as the WAL logs it: keyless, like every `DurableOp`.
fn wal_record(rec: &RaftRecord) -> WalRecord {
    WalRecord::Put { key: Vec::new(), value: rec.encode() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(n: u64) -> Vec<RaftNode> {
        let members: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        members
            .iter()
            .map(|&m| RaftNode::new(m, &members, RaftConfig::default(), 42, SimTime::ZERO))
            .collect()
    }

    /// Deliver every outgoing message instantly until quiescent.
    fn settle(nodes: &mut [RaftNode], mut pending: Vec<(NodeId, Outgoing)>, now: SimTime) {
        let mut guard = 0;
        while let Some((from, Outgoing { to, msg })) = pending.pop() {
            guard += 1;
            assert!(guard < 100_000, "message storm");
            let Some(node) = nodes.iter_mut().find(|n| n.id() == to) else { continue };
            for o in node.handle(from, msg, now) {
                pending.push((to, o));
            }
        }
    }

    fn tick_all(nodes: &mut [RaftNode], now: SimTime) {
        let ids: Vec<NodeId> = nodes.iter().map(|n| n.id()).collect();
        let mut pending = Vec::new();
        for (i, node) in nodes.iter_mut().enumerate() {
            for o in node.tick(now) {
                pending.push((ids[i], o));
            }
        }
        settle(nodes, pending, now);
    }

    /// A group plus a continuously advancing clock. Time must move in
    /// small steps: a silent gap longer than an election timeout is a
    /// leader failure, by design.
    struct Cluster {
        nodes: Vec<RaftNode>,
        now: SimTime,
    }

    impl Cluster {
        fn new(n: u64) -> Self {
            Cluster { nodes: group(n), now: SimTime::ZERO }
        }

        /// Advance `ms` milliseconds, ticking every ms.
        fn run_ms(&mut self, ms: u64) {
            for _ in 0..ms {
                self.now += SimDuration::from_millis(1);
                tick_all(&mut self.nodes, self.now);
            }
        }

        fn run_until_leader(&mut self, to_ms: u64) -> usize {
            for _ in 0..to_ms {
                self.run_ms(1);
                if let Some(i) = self.nodes.iter().position(|n| n.is_leader()) {
                    return i;
                }
            }
            panic!("no leader by {to_ms}ms");
        }
    }

    #[test]
    fn three_nodes_elect_exactly_one_leader() {
        let mut c = Cluster::new(3);
        let li = c.run_until_leader(1_000);
        assert_eq!(c.nodes.iter().filter(|n| n.is_leader()).count(), 1);
        let term = c.nodes[li].term();
        for n in &c.nodes {
            assert_eq!(n.term(), term, "all converge on the leader's term");
        }
    }

    #[test]
    fn appends_replicate_and_commit() {
        let mut c = Cluster::new(3);
        let li = c.run_until_leader(1_000);
        c.run_ms(100);
        let idx = c.nodes[li].client_append(b"w1".to_vec(), c.now).expect("leader");
        c.run_ms(120);
        assert!(c.nodes[li].commit_index() >= idx, "majority replication commits");
        for n in c.nodes.iter_mut() {
            let cmds: Vec<Vec<u8>> =
                n.take_committed().into_iter().map(|(_, c)| c).filter(|c| !c.is_empty()).collect();
            assert_eq!(cmds, vec![b"w1".to_vec()], "node {:?}", n.id());
        }
        let d0 = c.nodes[0].committed_digest();
        assert!(c.nodes.iter().all(|n| n.committed_digest() == d0));
    }

    #[test]
    fn crash_and_restart_preserve_durable_log() {
        let mut c = Cluster::new(3);
        let li = c.run_until_leader(1_000);
        c.run_ms(100);
        c.nodes[li].client_append(b"x".to_vec(), c.now).unwrap();
        c.run_ms(60);
        let fi = (li + 1) % 3;
        let (term, last) = (c.nodes[fi].term(), c.nodes[fi].last_index());
        c.nodes[fi].crash();
        c.nodes[fi].restart(c.now);
        assert_eq!(c.nodes[fi].term(), term, "term survives");
        assert_eq!(c.nodes[fi].last_index(), last, "log survives");
        assert_eq!(c.nodes[fi].role(), Role::Follower);
    }

    #[test]
    fn compaction_serves_snapshot_to_wiped_follower() {
        let mut c = Cluster::new(3);
        let li = c.run_until_leader(1_000);
        c.run_ms(100);
        for i in 0..8u8 {
            c.nodes[li].client_append(vec![i], c.now).unwrap();
            c.run_ms(60);
        }
        // Apply + compact on the leader.
        let applied: u64 = {
            let now = c.now;
            let n = &mut c.nodes[li];
            n.take_committed();
            let a = n.commit_index();
            n.compact(a, "sm-snapshot".into(), now);
            a
        };
        assert_eq!(c.nodes[li].base_index(), applied);
        assert!(applied >= 9, "8 commands + no-op all committed");
        // A follower loses everything; the leader must snapshot it.
        let fi = (li + 1) % 3;
        c.nodes[fi].wipe(c.now);
        c.run_ms(500);
        let f = &mut c.nodes[fi];
        assert!(f.base_index() >= applied, "snapshot installed");
        let (bi, _bt, data) = f.take_pending_install().expect("pending install for embedder");
        assert_eq!(bi, applied);
        assert_eq!(&data[..], b"sm-snapshot");
        let d = c.nodes[li].committed_digest();
        assert_eq!(c.nodes[fi].committed_digest(), d, "wiped node reconverges");
    }

    /// A settled 3-group whose leader is then driven by hand: returns
    /// the cluster, the leader's slot and one follower's.
    fn led_cluster() -> (Cluster, usize, usize) {
        let mut c = Cluster::new(3);
        let li = c.run_until_leader(1_000);
        c.run_ms(100);
        (c, li, (li + 1) % 3)
    }

    /// Deliver `msg` from node `from` to node `to`, returning the replies.
    fn deliver(c: &mut Cluster, from: usize, to: usize, msg: RaftMsg) -> Vec<RaftMsg> {
        let (from_id, now) = (c.nodes[from].id(), c.now);
        c.nodes[to].handle(from_id, msg, now).into_iter().map(|o| o.msg).collect()
    }

    /// One leader tick at the next millisecond; messages for `held` are
    /// returned instead of delivered, everything else settles at once.
    fn leader_tick(c: &mut Cluster, li: usize, held: usize) -> Vec<RaftMsg> {
        c.now += SimDuration::from_millis(1);
        let (leader_id, held_id, now) = (c.nodes[li].id(), c.nodes[held].id(), c.now);
        let (kept, rest): (Vec<_>, Vec<_>) =
            c.nodes[li].tick(now).into_iter().partition(|o| o.to == held_id);
        settle(&mut c.nodes, rest.into_iter().map(|o| (leader_id, o)).collect(), now);
        kept.into_iter().map(|o| o.msg).collect()
    }

    #[test]
    fn a_lost_append_is_refused_backed_off_and_resent() {
        let (mut c, li, fi) = led_cluster();
        let fid = c.nodes[fi].id();
        assert_eq!(c.nodes[li].progress[&fid].state, PeerState::Replicate);
        let a = c.nodes[li].client_append(b"a".to_vec(), c.now).unwrap();
        let lost = leader_tick(&mut c, li, fi);
        assert!(matches!(&lost[..], [RaftMsg::Append { entries, .. }] if entries.len() == 1));
        assert_eq!(c.nodes[li].progress[&fid].next, a + 1, "sent is sent: next moved on");
        // The next append names a predecessor the follower never got.
        let b = c.nodes[li].client_append(b"b".to_vec(), c.now).unwrap();
        let mut sent = leader_tick(&mut c, li, fi);
        assert!(matches!(&sent[..], [RaftMsg::Append { prev_index, .. }] if *prev_index == a));
        let refusal = deliver(&mut c, li, fi, sent.remove(0));
        assert!(matches!(&refusal[..], [RaftMsg::AppendReply { ok: false, match_index, .. }] if *match_index == a - 1));
        let mut resent = deliver(&mut c, fi, li, refusal[0].clone());
        assert!(
            matches!(&resent[..], [RaftMsg::Append { prev_index, entries, .. }] if *prev_index == a - 1 && entries.len() == 2),
            "{resent:?}"
        );
        assert_eq!(c.nodes[li].progress[&fid].state, PeerState::Probe);
        // The echo of an append sent before the back-off changes nothing.
        assert!(deliver(&mut c, fi, li, refusal[0].clone()).is_empty());
        let ok = deliver(&mut c, li, fi, resent.remove(0));
        assert!(deliver(&mut c, fi, li, ok[0].clone()).is_empty(), "nothing beyond next remains");
        let pr = c.nodes[li].progress[&fid];
        assert_eq!((pr.state, pr.matched, pr.next), (PeerState::Replicate, b, b + 1));
        assert_eq!(c.nodes[fi].last_index(), b);
    }

    #[test]
    fn a_silent_peer_gets_one_append_per_heartbeat() {
        let (mut c, li, fi) = led_cluster();
        let fid = c.nodes[fi].id();
        // The first silent interval: still replicating, still fed.
        for _ in 0..60 {
            c.nodes[li].client_append(b"x".to_vec(), c.now).unwrap();
            leader_tick(&mut c, li, fi);
        }
        assert_eq!(c.nodes[li].progress[&fid].state, PeerState::Probe);
        let mut to_silent = 0;
        for _ in 0..500 {
            c.nodes[li].client_append(b"x".to_vec(), c.now).unwrap();
            to_silent += leader_tick(&mut c, li, fi).len();
        }
        assert_eq!(to_silent, 10, "500 ms of load, 10 heartbeats");
        assert!(c.nodes[li].commit_index() >= 550, "the other follower is a majority");
    }

    #[test]
    fn exactly_one_snapshot_is_in_flight() {
        let (mut c, li, fi) = led_cluster();
        let fid = c.nodes[fi].id();
        for i in 0..8u8 {
            c.nodes[li].client_append(vec![i], c.now).unwrap();
            c.run_ms(5);
        }
        let now = c.now;
        c.nodes[li].take_committed();
        let base = c.nodes[li].commit_index();
        c.nodes[li].compact(base, "state".into(), now);
        c.nodes[fi].wipe(now);
        // Collect what the wiped follower is sent over three heartbeat
        // intervals; it answers appends (refusing them) but every
        // snapshot is lost on the way.
        let (mut snaps_by_interval, mut entries_sent) = (vec![0usize; 3], 0);
        for ms in 0..150 {
            c.nodes[li].client_append(b"x".to_vec(), c.now).unwrap();
            let mut inbox = leader_tick(&mut c, li, fi);
            while let Some(msg) = inbox.pop() {
                match msg {
                    RaftMsg::Snap { .. } => snaps_by_interval[ms / 50] += 1,
                    RaftMsg::Append { ref entries, .. } => {
                        // Until its first refusal the leader does not
                        // know the peer fell behind the base.
                        if snaps_by_interval[0] > 0 {
                            entries_sent += entries.len();
                        }
                        for reply in deliver(&mut c, li, fi, msg) {
                            inbox.extend(deliver(&mut c, fi, li, reply));
                        }
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert_eq!(snaps_by_interval.iter().sum::<usize>(), 3, "{snaps_by_interval:?}");
        assert!(snaps_by_interval.iter().all(|&n| n <= 1), "{snaps_by_interval:?}");
        assert_eq!(entries_sent, 0, "a peer waiting for a snapshot is sent heartbeats only");
        assert!(matches!(c.nodes[li].progress[&fid].state, PeerState::Snapshot { .. }));
        // Once one arrives the peer is fed entries again.
        let (leader_id, term, now) = (c.nodes[li].id(), c.nodes[li].term(), c.now);
        let snap = c.nodes[li].snapshot_for(fid, now).expect("snapshot");
        assert!(matches!(snap.msg, RaftMsg::Snap { .. }));
        let reply = deliver(&mut c, li, fi, snap.msg);
        assert!(matches!(&reply[..], [RaftMsg::SnapReply { match_index, .. }] if *match_index == base));
        let more = deliver(&mut c, fi, li, reply[0].clone());
        assert!(matches!(&more[..], [RaftMsg::Append { prev_index, entries, .. }] if *prev_index == base && !entries.is_empty()));
        assert_eq!(c.nodes[li].progress[&fid].state, PeerState::Replicate);
        assert_eq!((c.nodes[fi].leader_hint, c.nodes[fi].term()), (Some(leader_id), term));
    }

    /// What `crash` + `restart` must bring back: term, vote, snapshot
    /// base and log end.
    fn durable_view(n: &RaftNode) -> (u64, Option<NodeId>, u64, u64) {
        (n.term, n.voted, n.base_index, n.last_index())
    }

    /// Commit `count` one-byte commands through the leader.
    fn commit_commands(c: &mut Cluster, li: usize, count: u8) {
        for i in 0..count {
            c.nodes[li].client_append(vec![i], c.now).unwrap();
            c.run_ms(5);
        }
        c.run_ms(60);
    }

    /// Apply node `i`'s committed entries and compact at `index`.
    fn apply_and_compact(c: &mut Cluster, i: usize, index: u64, snapshot: &[u8]) {
        let now = c.now;
        c.nodes[i].take_committed();
        c.nodes[i].compact(index, Bytes::copy_from_slice(snapshot), now);
    }

    #[test]
    fn a_node_restarts_from_its_compaction_fence() {
        let (mut c, li, fi) = led_cluster();
        commit_commands(&mut c, li, 8);
        let commit = c.nodes[fi].commit_index();
        // Compact below the commit point, so entries survive in the fence.
        apply_and_compact(&mut c, fi, commit - 3, b"state");
        let f = &mut c.nodes[fi];
        assert_eq!(f.wal.durable_batches().count(), 1, "the fence alone");
        let (view, digest) = (durable_view(f), f.committed_digest());
        let base_term = f.base_term;
        f.crash();
        f.restart(c.now);
        assert_eq!(durable_view(f), view);
        assert_eq!(f.take_pending_install(), Some((commit - 3, base_term, "state".into())));
        c.run_ms(60);
        assert_eq!(c.nodes[fi].commit_index(), commit, "re-committed from the leader");
        assert_eq!(c.nodes[fi].committed_digest(), digest);
    }

    #[test]
    fn a_node_restarts_from_an_accepted_snapshot() {
        let (mut c, li, fi) = led_cluster();
        commit_commands(&mut c, li, 8);
        let base = c.nodes[li].commit_index();
        apply_and_compact(&mut c, li, base, b"state");
        c.nodes[fi].wipe(c.now);
        let (fid, now) = (c.nodes[fi].id(), c.now);
        let snap = c.nodes[li].snapshot_for(fid, now).expect("snapshot").msg;
        let reply = deliver(&mut c, li, fi, snap);
        assert!(matches!(&reply[..], [RaftMsg::SnapReply { match_index, .. }] if *match_index == base));
        let f = &mut c.nodes[fi];
        assert_eq!(f.wal.durable_batches().count(), 1, "the fence alone");
        let (view, digest) = (durable_view(f), f.committed_digest());
        f.crash();
        f.restart(c.now);
        assert_eq!(durable_view(f), view);
        assert_eq!(view.2, base);
        let (bi, _, data) = c.nodes[fi].take_pending_install().expect("pending install");
        assert_eq!((bi, &data[..]), (base, &b"state"[..]));
        assert_eq!(c.nodes[fi].committed_digest(), digest);
        c.run_ms(100);
        assert_eq!(c.nodes[fi].committed_digest(), c.nodes[li].committed_digest());
    }

    /// Work does not grow with history: after each compaction the WAL is
    /// one batch, and after 10× the compactions it is the size it was
    /// after one (within one batch), while the bytes ever synced grow.
    #[test]
    fn the_raft_log_after_a_trim_is_independent_of_history() {
        let (mut c, li, fi) = led_cluster();
        let mut after = Vec::new();
        for _ in 0..10 {
            commit_commands(&mut c, li, 16);
            for i in [li, fi] {
                let index = c.nodes[i].commit_index();
                apply_and_compact(&mut c, i, index, &[7; 32]);
                assert_eq!(c.nodes[i].wal.durable_batches().count(), 1, "node {i}");
            }
            let w = &c.nodes[fi].wal;
            after.push((w.encoded_len(), w.durable().count(), w.stats.get("synced_bytes")));
        }
        let ((one, one_records, one_synced), (ten, ten_records, ten_synced)) = (after[0], after[9]);
        assert!(ten.abs_diff(one) <= one, "{one} B after 1 compaction, {ten} B after 10");
        assert_eq!(ten_records, one_records, "recovery folds the same records");
        assert!(ten_synced >= 5 * one_synced, "{one_synced} B synced after 1, {ten_synced} after 10");
    }

    /// The single-copy limit: once the fence's trim has run, the fence is
    /// the node's only copy. Torn after the trim, it restarts the node
    /// empty, as a wipe does, and the group brings it back by snapshot.
    #[test]
    fn a_fence_torn_after_its_trim_restarts_the_node_empty() {
        let (mut c, li, fi) = led_cluster();
        commit_commands(&mut c, li, 8);
        for i in [li, fi] {
            let index = c.nodes[i].commit_index();
            apply_and_compact(&mut c, i, index, b"state");
        }
        let f = &mut c.nodes[fi];
        let torn = f.wal.encoded_len() - 1;
        f.wal.inject_torn_write(torn);
        f.crash();
        f.restart(c.now);
        assert_eq!(durable_view(f), (0, None, 0, 0), "empty, as after a wipe");
        assert_eq!(f.take_pending_install(), None);
        c.run_ms(500);
        let f = &mut c.nodes[fi];
        assert!(f.take_pending_install().is_some(), "rebuilt from a snapshot");
        assert_eq!(c.nodes[fi].committed_digest(), c.nodes[li].committed_digest());
    }

    #[test]
    fn votes_are_durable_across_restart() {
        let members: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let mut n =
            RaftNode::new(NodeId::new(0), &members, RaftConfig::default(), 1, SimTime::ZERO);
        let now = SimTime::from_millis(1);
        let out = n.handle(
            NodeId::new(1),
            RaftMsg::Vote { term: 5, last_index: 0, last_term: 0 },
            now,
        );
        assert!(matches!(out[0].msg, RaftMsg::VoteReply { granted: true, .. }));
        n.crash();
        n.restart(now);
        // Same-term rival asks after restart: must refuse (vote durable).
        let out = n.handle(
            NodeId::new(2),
            RaftMsg::Vote { term: 5, last_index: 9, last_term: 4 },
            now,
        );
        assert!(
            matches!(out[0].msg, RaftMsg::VoteReply { granted: false, .. }),
            "restart must not forget the vote: {out:?}"
        );
    }

    #[test]
    fn stale_term_messages_are_rejected() {
        let mut c = Cluster::new(3);
        let li = c.run_until_leader(1_000);
        let term = c.nodes[li].term();
        let out = c.nodes[li].handle(
            NodeId::new(99),
            RaftMsg::Append { term: term - 1, prev_index: 0, prev_term: 0, entries: vec![], commit: 0 },
            c.now,
        );
        assert!(matches!(out[0].msg, RaftMsg::AppendReply { ok: false, .. }));
        assert!(c.nodes[li].is_leader(), "stale append must not depose the leader");
    }

    #[test]
    fn lease_expires_without_majority_contact() {
        let mut c = Cluster::new(3);
        let li = c.run_until_leader(1_000);
        c.run_ms(100);
        assert!(
            c.nodes[li].lease_valid(c.now + SimDuration::from_millis(10)),
            "fresh heartbeat acks extend the lease"
        );
        // No further acks: the lease dies within one election-min, well
        // before a rival could have won.
        assert!(!c.nodes[li].lease_valid(c.now + SimDuration::from_secs(10)));
    }

    #[test]
    fn same_seed_elections_are_identical() {
        let run = || {
            let mut c = Cluster::new(5);
            let li = c.run_until_leader(2_000);
            (li, c.now, c.nodes[li].term(), c.nodes.iter().map(|n| n.term()).collect::<Vec<_>>())
        };
        assert_eq!(run(), run());
    }
}
