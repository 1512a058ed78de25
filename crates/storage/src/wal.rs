//! The logged record, its payload codec, and the recovery report.
//!
//! [`crate::group_commit::GroupCommitWal`] is the write-ahead log; this
//! module holds what it logs and reports. A [`WalRecord`] is encoded
//! into a payload (`[tag u8][chunk…]`), and
//! recovery decodes each one in place as a borrowed [`WalRecordRef`].
//! Decoding is total: hostile bytes give `None`, never a panic. A crash
//! re-validates the log and says what it kept and dropped in a
//! [`RecoveryReport`], naming the first damage as a [`Corruption`].

use mv_common::codec::{put_chunk, put_chunk_with, SliceReader};
use mv_common::hash::FxHasher;
use serde::{Deserialize, Serialize};
use std::hash::Hasher as _;

/// One logged mutation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WalRecord {
    /// Insert/overwrite.
    Put {
        /// Key bytes.
        key: Vec<u8>,
        /// Value bytes.
        value: Vec<u8>,
    },
    /// Tombstone.
    Delete {
        /// Key bytes.
        key: Vec<u8>,
    },
}

/// A borrowed view of one logged mutation — the zero-copy decode form.
///
/// Recovery scans decode into this first: the key/value slices borrow
/// the log buffer, so validation, routing, and filtering allocate
/// nothing. [`WalRecordRef::to_owned`] copies only once a record is
/// actually kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalRecordRef<'a> {
    /// Insert/overwrite (borrowed).
    Put {
        /// Key bytes, borrowing the log.
        key: &'a [u8],
        /// Value bytes, borrowing the log.
        value: &'a [u8],
    },
    /// Tombstone (borrowed).
    Delete {
        /// Key bytes, borrowing the log.
        key: &'a [u8],
    },
}

impl WalRecordRef<'_> {
    /// The key of either variant.
    pub fn key(&self) -> &[u8] {
        match self {
            WalRecordRef::Put { key, .. } | WalRecordRef::Delete { key } => key,
        }
    }

    /// Copy into the owned form (the only allocation on the decode
    /// path).
    pub fn to_owned(&self) -> WalRecord {
        match *self {
            WalRecordRef::Put { key, value } => {
                WalRecord::Put { key: key.to_vec(), value: value.to_vec() }
            }
            WalRecordRef::Delete { key } => WalRecord::Delete { key: key.to_vec() },
        }
    }
}

/// Why recovery stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// The log ended mid-batch (torn write): fewer bytes than the batch
    /// header promised.
    TornTail {
        /// Byte offset of the incomplete batch.
        at: usize,
    },
    /// A batch no longer matches its checksum (bit rot / torn overwrite
    /// inside it), or its records do not decode.
    ChecksumMismatch {
        /// Byte offset of the corrupt batch.
        at: usize,
    },
}

/// What a recovery pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records replayed (the intact durable prefix).
    pub replayed: usize,
    /// Bytes of log kept.
    pub valid_bytes: usize,
    /// Bytes of log discarded (corrupt batch onward).
    pub dropped_bytes: usize,
    /// Why the scan stopped, if it did not consume the whole log.
    pub corruption: Option<Corruption>,
}

pub(crate) fn checksum(payload: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(payload);
    h.finish()
}

pub(crate) fn encode_payload(rec: &WalRecord, out: &mut Vec<u8>) {
    match rec {
        WalRecord::Put { key, value } => encode_put_with(out, key, |out| out.extend_from_slice(value)),
        WalRecord::Delete { key } => {
            out.push(2);
            put_chunk(out, key);
        }
    }
}

/// Encode a put of `key` whose value `value` writes straight into
/// `out` — the one put framing ([`encode_payload`] writes an owned
/// value through it).
pub(crate) fn encode_put_with(out: &mut Vec<u8>, key: &[u8], value: impl FnOnce(&mut Vec<u8>)) {
    out.push(1);
    put_chunk(out, key);
    put_chunk_with(out, value);
}

/// Decode one payload into the borrowed form; `None` on any structural
/// damage (a checksum that still matched makes this vanishingly rare,
/// but recovery must never panic on hostile bytes). Nothing is copied:
/// the returned record borrows `payload`.
pub(crate) fn decode_payload_ref(payload: &[u8]) -> Option<WalRecordRef<'_>> {
    let mut r = SliceReader::new(payload);
    let rec = match r.u8()? {
        1 => WalRecordRef::Put { key: r.chunk()?, value: r.chunk()? },
        2 => WalRecordRef::Delete { key: r.chunk()? },
        _ => return None,
    };
    r.done().then_some(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_tags_and_trailing_garbage_decode_to_none() {
        // Unknown record tag.
        assert_eq!(decode_payload_ref(&[9u8, 1, 2, 3]), None);
        // Empty payload (no tag byte at all).
        assert_eq!(decode_payload_ref(&[]), None);
        // A valid Delete record followed by trailing garbage.
        let mut payload = vec![2u8];
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.push(b'k');
        assert_eq!(decode_payload_ref(&payload), Some(WalRecordRef::Delete { key: b"k" }));
        payload.push(0xFF);
        assert_eq!(decode_payload_ref(&payload), None);
    }
}
