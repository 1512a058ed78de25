//! Persistent raft state as WAL records.
//!
//! Everything Raft §5 requires to be stable before acting — current
//! term, vote, log entries, suffix truncations, and snapshots — is one
//! [`RaftRecord`] appended to the node's `GroupCommitWal` and synced
//! before the protocol proceeds. The encoding is the same hand-rolled
//! little-endian framing `DurableOp` uses (tag byte + fields, byte
//! strings as `[len u32][bytes]`), and decoding is *panic-free*: a
//! recovery pass over a damaged or hostile WAL image must refuse bad
//! frames, never index past a buffer or reserve unbacked memory
//! (`mv-lint`'s panic-path rule audits this file).

use crate::msg::LogEntry;
use bytes::Bytes;
use mv_common::codec::{put_chunk, put_u64, SliceReader};
use mv_common::id::NodeId;

/// One durable raft state change — the unit of recovery replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaftRecord {
    /// Term and vote: `voted` is the granted candidate, if any. Synced
    /// before any vote reply or message carrying the new term leaves
    /// the node.
    HardState {
        /// Current term.
        term: u64,
        /// Candidate voted for in `term`, if any.
        voted: Option<NodeId>,
    },
    /// One log entry at an explicit index (indices are 1-based; the
    /// entry's position is re-checked on recovery, not trusted blindly).
    Entry {
        /// Log index.
        index: u64,
        /// Term the entry was created in.
        term: u64,
        /// Opaque command bytes (empty = leader no-op).
        cmd: Vec<u8>,
    },
    /// Discard every entry at or above `from` (a follower overwrote a
    /// conflicting suffix).
    Truncate {
        /// First discarded index.
        from: u64,
    },
    /// A state-machine snapshot covering the log prefix `..= index`.
    /// Entries at or below it are discarded.
    Snapshot {
        /// Last log index the snapshot covers.
        index: u64,
        /// Term of that entry.
        term: u64,
        /// Opaque state-machine snapshot payload (shared, not copied,
        /// between the node, its messages and this record).
        data: Bytes,
    },
}

impl RaftRecord {
    /// Encode into the canonical byte form (a WAL record value).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            RaftRecord::HardState { term, voted } => {
                out.push(1);
                put_u64(&mut out, *term);
                // 0 = none, else raw id + 1 (NodeId 0 is a valid node).
                put_u64(&mut out, voted.map_or(0, |n| n.raw() + 1));
            }
            RaftRecord::Entry { index, term, cmd } => {
                out.push(2);
                put_u64(&mut out, *index);
                put_u64(&mut out, *term);
                put_chunk(&mut out, cmd);
            }
            RaftRecord::Truncate { from } => {
                out.push(3);
                put_u64(&mut out, *from);
            }
            RaftRecord::Snapshot { index, term, data } => {
                out.push(4);
                put_u64(&mut out, *index);
                put_u64(&mut out, *term);
                put_chunk(&mut out, data);
            }
        }
        out
    }

    /// Decode the canonical byte form; `None` on any structural damage.
    pub fn decode(bytes: &[u8]) -> Option<RaftRecord> {
        let mut r = SliceReader::new(bytes);
        let rec = match r.u8()? {
            1 => {
                let term = r.u64()?;
                let voted = match r.u64()? {
                    0 => None,
                    v => Some(NodeId::new(v - 1)),
                };
                RaftRecord::HardState { term, voted }
            }
            2 => RaftRecord::Entry { index: r.u64()?, term: r.u64()?, cmd: r.chunk()?.to_vec() },
            3 => RaftRecord::Truncate { from: r.u64()? },
            4 => {
                let (index, term) = (r.u64()?, r.u64()?);
                RaftRecord::Snapshot { index, term, data: Bytes::copy_from_slice(r.chunk()?) }
            }
            _ => return None,
        };
        r.done().then_some(rec)
    }
}

/// Fold a recovered WAL image back into `(term, voted, base, log,
/// snapshot)`. Unknown or damaged frames are skipped (the WAL layer
/// already truncated at the first corrupt *batch*; a record it
/// delivered but this crate can't read is treated as absent rather
/// than fatal — determinism over optimism).
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct FoldedState {
    /// Current term.
    pub term: u64,
    /// Vote cast in `term`, if any.
    pub voted: Option<NodeId>,
    /// Last index covered by `snapshot` (0 = none).
    pub base_index: u64,
    /// Term of the entry at `base_index`.
    pub base_term: u64,
    /// Snapshot payload, if one was taken.
    pub snapshot: Option<Bytes>,
    /// Entries above `base_index`, in index order.
    pub log: Vec<LogEntry>,
}

impl FoldedState {
    /// Replay `records` in order into a folded state.
    pub(crate) fn from_records<'a>(records: impl Iterator<Item = &'a [u8]>) -> FoldedState {
        let mut st = FoldedState::default();
        for bytes in records {
            let Some(rec) = RaftRecord::decode(bytes) else { continue };
            match rec {
                RaftRecord::HardState { term, voted } => {
                    st.term = term;
                    st.voted = voted;
                }
                RaftRecord::Entry { index, term, cmd } => {
                    if index <= st.base_index {
                        continue; // already covered by a snapshot
                    }
                    let next = st.base_index + st.log.len() as u64 + 1;
                    if index < next {
                        // An overwrite without an explicit truncate —
                        // honour the later record.
                        st.log.truncate((index - st.base_index - 1) as usize);
                    } else if index > next {
                        continue; // gap: refuse to fabricate entries
                    }
                    st.log.push(LogEntry { term, cmd });
                }
                RaftRecord::Truncate { from } => {
                    let keep = from.saturating_sub(st.base_index + 1) as usize;
                    st.log.truncate(keep);
                }
                RaftRecord::Snapshot { index, term, data } => {
                    if index < st.base_index {
                        continue;
                    }
                    let covered = index.saturating_sub(st.base_index) as usize;
                    if covered >= st.log.len() {
                        st.log.clear();
                    } else {
                        st.log.drain(..covered);
                    }
                    st.base_index = index;
                    st.base_term = term;
                    st.snapshot = Some(data);
                }
            }
        }
        st
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_and_truncations_refuse() {
        let recs = vec![
            RaftRecord::HardState { term: 7, voted: Some(NodeId::new(0)) },
            RaftRecord::HardState { term: 8, voted: None },
            RaftRecord::Entry { index: 3, term: 2, cmd: b"hello".to_vec() },
            RaftRecord::Entry { index: 4, term: 2, cmd: Vec::new() },
            RaftRecord::Truncate { from: 4 },
            RaftRecord::Snapshot { index: 9, term: 3, data: vec![1, 2, 3].into() },
        ];
        for rec in recs {
            let bytes = rec.encode();
            assert_eq!(RaftRecord::decode(&bytes), Some(rec.clone()), "{rec:?}");
            for cut in 0..bytes.len() {
                assert_eq!(RaftRecord::decode(&bytes[..cut]), None, "{rec:?} cut {cut}");
            }
            let mut trailing = bytes.clone();
            trailing.push(0);
            assert_eq!(RaftRecord::decode(&trailing), None, "trailing byte");
        }
        assert_eq!(RaftRecord::decode(&[9]), None, "unknown tag");
    }

    #[test]
    fn hostile_lengths_decode_to_none_not_panic() {
        // An entry whose cmd length claims u32::MAX bytes.
        let mut bytes = vec![2u8];
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(b"x");
        assert_eq!(RaftRecord::decode(&bytes), None);
    }

    #[test]
    fn fold_rebuilds_term_vote_log_and_snapshot() {
        let img: Vec<Vec<u8>> = vec![
            RaftRecord::HardState { term: 1, voted: Some(NodeId::new(2)) }.encode(),
            RaftRecord::Entry { index: 1, term: 1, cmd: b"a".to_vec() }.encode(),
            RaftRecord::Entry { index: 2, term: 1, cmd: b"b".to_vec() }.encode(),
            RaftRecord::Entry { index: 3, term: 1, cmd: b"c".to_vec() }.encode(),
            RaftRecord::Truncate { from: 3 }.encode(),
            RaftRecord::Entry { index: 3, term: 2, cmd: b"c2".to_vec() }.encode(),
            RaftRecord::HardState { term: 2, voted: None }.encode(),
            RaftRecord::Snapshot { index: 1, term: 1, data: "snap".into() }.encode(),
        ];
        let st = FoldedState::from_records(img.iter().map(Vec::as_slice));
        assert_eq!(st.term, 2);
        assert_eq!(st.voted, None);
        assert_eq!(st.base_index, 1);
        assert_eq!(st.base_term, 1);
        assert_eq!(st.snapshot.as_deref(), Some(b"snap".as_slice()));
        assert_eq!(
            st.log,
            vec![
                LogEntry { term: 1, cmd: b"b".to_vec() },
                LogEntry { term: 2, cmd: b"c2".to_vec() },
            ]
        );
    }

    #[test]
    fn fold_skips_gaps_and_damaged_frames() {
        let img: Vec<Vec<u8>> = vec![
            RaftRecord::Entry { index: 1, term: 1, cmd: b"a".to_vec() }.encode(),
            vec![0xFF, 0x01], // damage
            RaftRecord::Entry { index: 5, term: 1, cmd: b"gap".to_vec() }.encode(),
            RaftRecord::Entry { index: 2, term: 1, cmd: b"b".to_vec() }.encode(),
        ];
        let st = FoldedState::from_records(img.iter().map(Vec::as_slice));
        assert_eq!(st.log.len(), 2, "gap entry refused, rest kept");
    }
}
