//! Raft wire messages.
//!
//! Messages travel typed over `ReliableTransport<RaftMsg>` (the
//! simulator delivers in-process values; only *sizes* hit the modelled
//! network), so no wire codec is needed — [`RaftMsg::wire_bytes`]
//! charges a faithful serialized size against link bandwidth instead.

use bytes::Bytes;
use mv_common::id::NodeId;

/// One replicated log entry: the term it was proposed in plus opaque
/// command bytes (empty = leader no-op, skipped by state machines).
#[derive(Debug, Clone, PartialEq, Eq)]
// lint:allow(dead-pub): carried by `RaftMsg::Append`, which other crates match
pub struct LogEntry {
    /// Proposing term.
    pub term: u64,
    /// Opaque command.
    pub cmd: Vec<u8>,
}

/// Everything one raft node says to another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaftMsg {
    /// RequestVote: `last_index`/`last_term` describe the candidate's
    /// log head for the §5.4.1 up-to-date check.
    Vote {
        /// Candidate's term.
        term: u64,
        /// Candidate's last log index.
        last_index: u64,
        /// Term of that entry.
        last_term: u64,
    },
    /// RequestVote response.
    VoteReply {
        /// Responder's term.
        term: u64,
        /// Whether the vote was granted (and made durable first).
        granted: bool,
    },
    /// AppendEntries: heartbeat + replication in one.
    Append {
        /// Leader's term.
        term: u64,
        /// Index immediately before `entries`.
        prev_index: u64,
        /// Term of the entry at `prev_index`.
        prev_term: u64,
        /// Entries to append (may be empty: pure heartbeat).
        entries: Vec<LogEntry>,
        /// Leader's commit index.
        commit: u64,
    },
    /// AppendEntries response. On success `match_index` is the highest
    /// index known replicated; on failure it is a back-off hint (the
    /// follower's best guess at where the logs still agree).
    AppendReply {
        /// Responder's term.
        term: u64,
        /// Whether the entries were accepted (and made durable first).
        ok: bool,
        /// Match index (success) or conflict hint (failure).
        match_index: u64,
    },
    /// InstallSnapshot for a follower whose next index fell below the
    /// leader's compacted log base.
    Snap {
        /// Leader's term.
        term: u64,
        /// Last index the snapshot covers.
        base_index: u64,
        /// Term of that entry.
        base_term: u64,
        /// Opaque state-machine snapshot payload (a shared buffer: one
        /// compaction's bytes serve every peer that needs them).
        data: Bytes,
    },
    /// InstallSnapshot response.
    SnapReply {
        /// Responder's term.
        term: u64,
        /// The responder's log base after installing.
        match_index: u64,
    },
}

impl RaftMsg {
    /// The term the message carries (every raft message has one).
    pub fn term(&self) -> u64 {
        match self {
            RaftMsg::Vote { term, .. }
            | RaftMsg::VoteReply { term, .. }
            | RaftMsg::Append { term, .. }
            | RaftMsg::AppendReply { term, .. }
            | RaftMsg::Snap { term, .. }
            | RaftMsg::SnapReply { term, .. } => *term,
        }
    }

    /// Bytes this message would occupy serialized — charged against the
    /// simulated network's bandwidth (tag + fields + payload bytes).
    pub fn wire_bytes(&self) -> u64 {
        match self {
            RaftMsg::Vote { .. } => 1 + 24,
            RaftMsg::VoteReply { .. } => 1 + 9,
            RaftMsg::Append { entries, .. } => {
                1 + 32 + entries.iter().map(|e| 12 + e.cmd.len() as u64).sum::<u64>()
            }
            RaftMsg::AppendReply { .. } => 1 + 17,
            RaftMsg::Snap { data, .. } => 1 + 24 + data.len() as u64,
            RaftMsg::SnapReply { .. } => 1 + 16,
        }
    }
}

/// A message addressed to one peer, produced by `RaftNode::tick` /
/// `RaftNode::handle` for the embedder to ship.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outgoing {
    /// Destination node.
    pub to: NodeId,
    /// The message.
    pub msg: RaftMsg,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_scale_with_payload() {
        let small = RaftMsg::Append { term: 1, prev_index: 0, prev_term: 0, entries: vec![], commit: 0 };
        let big = RaftMsg::Append {
            term: 1,
            prev_index: 0,
            prev_term: 0,
            entries: vec![LogEntry { term: 1, cmd: vec![0; 100] }],
            commit: 0,
        };
        assert!(big.wire_bytes() > small.wire_bytes() + 100);
        assert_eq!(small.term(), 1);
    }
}
