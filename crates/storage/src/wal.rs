//! Write-ahead logging with crash/recovery and corruption simulation.
//!
//! The WAL is the durability half of the KV store: every mutation is
//! appended (and "synced") before being applied. A crash is simulated by
//! rebuilding the store from the log alone; recovery replays records up
//! to the synced horizon. The unsynced tail is lost — exactly the
//! semantics the tests pin down.
//!
//! Durability is only as good as the medium: synced records live in a
//! byte-encoded log of checksummed frames (`[len u32][checksum u64]
//! [payload]`), and the fault layer can flip a bit or tear the tail at a
//! chosen offset ([`Wal::inject_bit_flip`], [`Wal::inject_torn_write`]).
//! Recovery ([`Wal::crash_with_report`]) scans frames and **truncates at
//! the first corrupt record** — everything before it replays, everything
//! after is dropped rather than replayed as garbage — and reports what
//! it did in a [`RecoveryReport`].

use crate::kv::KvStore;
use mv_common::codec::{put_chunk, put_u32, put_u64, read_u32_le, read_u64_le, wire_u32, SliceReader};
use bytes::Bytes;
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
    /// The log ended mid-frame (torn write): fewer bytes than the frame
    /// header promised.
    TornTail {
        /// Byte offset of the incomplete frame.
        at: usize,
    },
    /// A frame's payload no longer matches its checksum (bit rot / torn
    /// overwrite inside the frame).
    ChecksumMismatch {
        /// Byte offset of the corrupt frame.
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
    /// Bytes of log discarded (corrupt frame onward).
    pub dropped_bytes: usize,
    /// Why the scan stopped, if it did not consume the whole log.
    pub corruption: Option<Corruption>,
}

/// Frame header: payload length + payload checksum.
const FRAME_HEADER: usize = 4 + 8;

pub(crate) fn checksum(payload: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(payload);
    h.finish()
}

pub(crate) fn encode_payload(rec: &WalRecord, out: &mut Vec<u8>) {
    match rec {
        WalRecord::Put { key, value } => {
            out.push(1);
            put_chunk(out, key);
            put_chunk(out, value);
        }
        WalRecord::Delete { key } => {
            out.push(2);
            put_chunk(out, key);
        }
    }
}

fn append_frame(log: &mut Vec<u8>, rec: &WalRecord) {
    let mut payload = Vec::new();
    encode_payload(rec, &mut payload);
    put_u32(log, wire_u32(payload.len()));
    put_u64(log, checksum(&payload));
    log.extend_from_slice(&payload);
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

/// Owned-form decode: [`decode_payload_ref`] plus the final copy.
pub(crate) fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    decode_payload_ref(payload).map(|r| r.to_owned())
}

/// Scan `log`, returning the intact record prefix and a report.
fn decode_log(log: &[u8]) -> (Vec<WalRecord>, RecoveryReport) {
    let mut records = Vec::new();
    let mut at = 0usize;
    let mut corruption = None;
    while at < log.len() {
        let (Some(len), Some(sum)) = (read_u32_le(log, at), read_u64_le(log, at + 4))
        else {
            corruption = Some(Corruption::TornTail { at });
            break;
        };
        let len = len as usize;
        let Some(payload) = log.get(at + FRAME_HEADER..at + FRAME_HEADER + len) else {
            // Length field runs past the log: torn write (or a flipped
            // bit in the length itself — indistinguishable, same cure).
            corruption = Some(Corruption::TornTail { at });
            break;
        };
        if checksum(payload) != sum {
            corruption = Some(Corruption::ChecksumMismatch { at });
            break;
        }
        let Some(rec) = decode_payload(payload) else {
            corruption = Some(Corruption::ChecksumMismatch { at });
            break;
        };
        records.push(rec);
        at += FRAME_HEADER + len;
    }
    let report = RecoveryReport {
        replayed: records.len(),
        valid_bytes: at,
        dropped_bytes: log.len() - at,
        corruption,
    };
    (records, report)
}

/// The log. "Durability" is the `synced` watermark: records at indices
/// below it survive a crash; the tail does not. Synced records are also
/// materialized as checksummed byte frames — the thing crashes recover
/// from and faults corrupt.
#[derive(Debug, Default)]
pub struct Wal {
    records: Vec<WalRecord>,
    synced: usize,
    /// Byte-encoded image of the synced prefix (checksummed frames).
    log: Vec<u8>,
    last_recovery: Option<RecoveryReport>,
}

impl Wal {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record (not yet durable). Returns its LSN.
    pub fn append(&mut self, rec: WalRecord) -> u64 {
        self.records.push(rec);
        self.records.len() as u64 - 1
    }

    /// Make everything appended so far durable (encode it into the
    /// checksummed byte log).
    pub fn sync(&mut self) {
        for rec in self.records.iter().skip(self.synced) {
            append_frame(&mut self.log, rec);
        }
        self.synced = self.records.len();
    }

    /// Records that would survive a crash.
    pub fn durable(&self) -> &[WalRecord] {
        self.records.get(..self.synced).unwrap_or(&[])
    }

    /// Total appended records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Size of the durable byte log (injection offsets index into this).
    pub fn encoded_len(&self) -> usize {
        self.log.len()
    }

    /// Flip bit `bit` (0–7) of byte `offset` in the durable log.
    /// Returns false (no-op) when `offset` is out of range.
    pub fn inject_bit_flip(&mut self, offset: usize, bit: u8) -> bool {
        match self.log.get_mut(offset) {
            Some(byte) => {
                *byte ^= 1 << (bit & 7);
                true
            }
            None => false,
        }
    }

    /// Tear the durable log down to its first `keep` bytes, as an
    /// interrupted write would.
    pub fn inject_torn_write(&mut self, keep: usize) {
        self.log.truncate(keep);
    }

    /// Simulate a crash: the unsynced tail is lost, and the synced
    /// records are re-read from the (possibly corrupted) byte log.
    pub fn crash(&mut self) {
        self.crash_with_report();
    }

    /// [`Self::crash`], reporting what recovery found. The log is
    /// truncated at the first corrupt record; nothing past it replays.
    pub fn crash_with_report(&mut self) -> RecoveryReport {
        let (records, report) = decode_log(&self.log);
        self.log.truncate(report.valid_bytes);
        self.records = records;
        self.synced = self.records.len();
        self.last_recovery = Some(report);
        report
    }

    /// Report of the most recent recovery, if any.
    pub fn last_recovery(&self) -> Option<RecoveryReport> {
        self.last_recovery
    }

    /// Truncate the durable prefix after a checkpoint (records below
    /// `upto` are covered by flushed runs and no longer needed). The
    /// byte log is rewritten to match.
    pub fn checkpoint(&mut self, upto: usize) {
        let upto = upto.min(self.synced);
        self.records.drain(..upto);
        self.synced -= upto;
        let mut log = Vec::new();
        for rec in self.records.iter().take(self.synced) {
            append_frame(&mut log, rec);
        }
        self.log = log;
    }
}

/// A KV store coupled to a WAL: mutations log first, then apply.
#[derive(Debug, Default)]
pub struct DurableKv {
    /// The in-memory store.
    pub kv: KvStore,
    /// The log.
    pub wal: Wal,
}

impl DurableKv {
    /// Fresh store + log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Logged put.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.wal.append(WalRecord::Put { key: key.to_vec(), value: value.to_vec() });
        self.kv.put(Bytes::copy_from_slice(key), Bytes::copy_from_slice(value));
    }

    /// Logged delete.
    pub fn delete(&mut self, key: &[u8]) {
        self.wal.append(WalRecord::Delete { key: key.to_vec() });
        self.kv.delete(Bytes::copy_from_slice(key));
    }

    /// Group-commit: sync the log.
    pub fn commit(&mut self) {
        self.wal.sync();
    }

    /// Read through to the store.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        self.kv.get(key)
    }

    /// Simulate a crash and recover: volatile state is discarded and the
    /// durable log replayed into a fresh store.
    pub fn crash_and_recover(&mut self) {
        self.crash_and_recover_report();
    }

    /// [`Self::crash_and_recover`], returning what recovery found (how
    /// many records replayed, and where — if anywhere — the log was
    /// truncated for corruption).
    pub fn crash_and_recover_report(&mut self) -> RecoveryReport {
        let report = self.wal.crash_with_report();
        let mut kv = KvStore::new();
        for rec in self.wal.durable() {
            match rec {
                WalRecord::Put { key, value } => {
                    kv.put(Bytes::from(key.clone()), Bytes::from(value.clone()))
                }
                WalRecord::Delete { key } => kv.delete(Bytes::from(key.clone())),
            }
        }
        self.kv = kv;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn committed_writes_survive_crash() {
        let mut db = DurableKv::new();
        db.put(b"a", b"1");
        db.put(b"b", b"2");
        db.commit();
        db.crash_and_recover();
        assert_eq!(db.get(b"a"), Some(Bytes::from_static(b"1")));
        assert_eq!(db.get(b"b"), Some(Bytes::from_static(b"2")));
    }

    #[test]
    fn uncommitted_tail_is_lost() {
        let mut db = DurableKv::new();
        db.put(b"a", b"1");
        db.commit();
        db.put(b"b", b"2"); // never committed
        db.crash_and_recover();
        assert_eq!(db.get(b"a"), Some(Bytes::from_static(b"1")));
        assert_eq!(db.get(b"b"), None);
    }

    #[test]
    fn deletes_replay_correctly() {
        let mut db = DurableKv::new();
        db.put(b"a", b"1");
        db.delete(b"a");
        db.put(b"a", b"2");
        db.delete(b"a");
        db.commit();
        db.crash_and_recover();
        assert_eq!(db.get(b"a"), None);
    }

    #[test]
    fn double_crash_is_idempotent() {
        let mut db = DurableKv::new();
        db.put(b"x", b"y");
        db.commit();
        db.crash_and_recover();
        db.crash_and_recover();
        assert_eq!(db.get(b"x"), Some(Bytes::from_static(b"y")));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_crash_preserves_exactly_the_committed_prefix(
            ops in proptest::collection::vec((0u8..2, "[a-c]{1,2}", "[x-z]{1,2}"), 1..60),
            commit_every in 1usize..8,
        ) {
            let mut db = DurableKv::new();
            // Shadow model of the state as of the last commit.
            let mut committed_model: std::collections::BTreeMap<Vec<u8>, Option<Vec<u8>>> =
                Default::default();
            let mut pending: Vec<(Vec<u8>, Option<Vec<u8>>)> = Vec::new();
            for (i, (op, k, v)) in ops.iter().enumerate() {
                if *op == 0 {
                    db.put(k.as_bytes(), v.as_bytes());
                    pending.push((k.clone().into_bytes(), Some(v.clone().into_bytes())));
                } else {
                    db.delete(k.as_bytes());
                    pending.push((k.clone().into_bytes(), None));
                }
                if (i + 1) % commit_every == 0 {
                    db.commit();
                    for (key, val) in pending.drain(..) {
                        committed_model.insert(key, val);
                    }
                }
            }
            // Crash with the tail uncommitted.
            db.crash_and_recover();
            for (k, expected) in &committed_model {
                prop_assert_eq!(
                    db.get(k).map(|b| b.to_vec()),
                    expected.clone(),
                    "key {:?}", k
                );
            }
            // Nothing from the uncommitted tail leaked (keys only in the
            // tail must be absent).
            for (k, _) in &pending {
                if !committed_model.contains_key(k) {
                    prop_assert_eq!(db.get(k), None);
                }
            }
        }
    }

    /// Store equality = identical `scan` over the full key range.
    fn full_scan(db: &DurableKv) -> Vec<(Bytes, Bytes)> {
        db.kv.scan(b"", b"\xff\xff\xff\xff")
    }

    #[test]
    fn bit_flip_truncates_at_first_corrupt_record() {
        let mut db = DurableKv::new();
        db.put(b"a", b"1");
        db.commit();
        let first_frame_end = db.wal.encoded_len();
        db.put(b"b", b"2");
        db.put(b"c", b"3");
        db.commit();
        // Damage the payload of the *second* frame.
        assert!(db.wal.inject_bit_flip(first_frame_end + FRAME_HEADER, 3));
        let report = db.crash_and_recover_report();
        // Record 1 survives; records 2 and 3 are dropped, not replayed as
        // garbage — even though record 3's frame is itself intact.
        assert_eq!(report.replayed, 1);
        assert_eq!(report.corruption, Some(Corruption::ChecksumMismatch { at: first_frame_end }));
        assert_eq!(db.get(b"a"), Some(Bytes::from_static(b"1")));
        assert_eq!(db.get(b"b"), None);
        assert_eq!(db.get(b"c"), None);
        assert!(report.dropped_bytes > 0);
        assert_eq!(db.wal.last_recovery(), Some(report));
    }

    #[test]
    fn torn_write_drops_the_partial_frame() {
        let mut db = DurableKv::new();
        db.put(b"a", b"1");
        db.commit();
        let intact = db.wal.encoded_len();
        db.put(b"b", b"2");
        db.commit();
        // The second frame's write was interrupted 3 bytes in.
        db.wal.inject_torn_write(intact + 3);
        let report = db.crash_and_recover_report();
        assert_eq!(report.replayed, 1);
        assert_eq!(report.corruption, Some(Corruption::TornTail { at: intact }));
        assert_eq!(report.valid_bytes, intact);
        assert_eq!(db.get(b"a"), Some(Bytes::from_static(b"1")));
        assert_eq!(db.get(b"b"), None);
    }

    #[test]
    fn hostile_length_fields_recover_cleanly_instead_of_panicking() {
        // A frame length of u32::MAX claims more payload than exists:
        // recovery must report a torn tail, not slice out of bounds.
        let mut log = Vec::new();
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&0u64.to_le_bytes());
        log.extend_from_slice(b"short");
        let (records, report) = decode_log(&log);
        assert!(records.is_empty());
        assert_eq!(report.corruption, Some(Corruption::TornTail { at: 0 }));

        // A frame whose checksum is *valid* but whose inner chunk length
        // lies (tag=Put, key length far past the payload end): the
        // payload decode fails structurally, and recovery stops clean.
        let mut payload = vec![1u8];
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        payload.extend_from_slice(b"k");
        let mut log = Vec::new();
        log.extend_from_slice(&wire_u32(payload.len()).to_le_bytes());
        log.extend_from_slice(&checksum(&payload).to_le_bytes());
        log.extend_from_slice(&payload);
        let (records, report) = decode_log(&log);
        assert!(records.is_empty());
        assert_eq!(report.corruption, Some(Corruption::ChecksumMismatch { at: 0 }));
    }

    #[test]
    fn unknown_tags_and_trailing_garbage_decode_to_none() {
        // Unknown record tag.
        assert_eq!(decode_payload(&[9u8, 1, 2, 3]), None);
        // Empty payload (no tag byte at all).
        assert_eq!(decode_payload(&[]), None);
        // A valid Delete record followed by trailing garbage.
        let mut payload = vec![2u8];
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.push(b'k');
        assert!(decode_payload(&payload).is_some());
        payload.push(0xFF);
        assert_eq!(decode_payload(&payload), None);
    }

    #[test]
    fn recovery_from_empty_and_never_synced_logs() {
        // Brand-new store: recovery of an empty log is a clean no-op.
        let mut db = DurableKv::new();
        let report = db.crash_and_recover_report();
        assert_eq!(
            report,
            RecoveryReport { replayed: 0, valid_bytes: 0, dropped_bytes: 0, corruption: None }
        );
        assert!(full_scan(&db).is_empty());

        // Appends without a single commit: nothing was ever synced, so
        // the crash wipes everything and recovery still reports clean.
        let mut db = DurableKv::new();
        db.put(b"a", b"1");
        db.delete(b"a");
        db.put(b"b", b"2");
        let report = db.crash_and_recover_report();
        assert_eq!(report.replayed, 0);
        assert_eq!(report.corruption, None);
        assert!(full_scan(&db).is_empty());
        assert!(db.wal.is_empty());
    }

    #[test]
    fn crash_recover_crash_is_idempotent_even_after_corruption() {
        let mut db = DurableKv::new();
        for i in 0..8u8 {
            db.put(&[b'k', i], &[i]);
            db.commit();
        }
        db.delete(&[b'k', 0]);
        db.commit();
        // Corrupt somewhere in the middle of the log.
        assert!(db.wal.inject_bit_flip(db.wal.encoded_len() / 2, 5));
        let first = db.crash_and_recover_report();
        let snapshot = full_scan(&db);
        // Second crash+recovery: the log was truncated at the corruption,
        // so this pass sees a clean (shorter) log and rebuilds the exact
        // same store.
        let second = db.crash_and_recover_report();
        assert_eq!(second.replayed, first.replayed);
        assert_eq!(second.corruption, None, "first recovery must have excised the damage");
        assert_eq!(second.dropped_bytes, 0);
        assert_eq!(full_scan(&db), snapshot);
        // And a third, for luck: still a fixed point.
        db.crash_and_recover();
        assert_eq!(full_scan(&db), snapshot);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn prop_any_single_bit_flip_yields_a_clean_prefix(
            ops in proptest::collection::vec((0u8..2, "[a-d]{1,3}", "[x-z]{0,3}"), 1..20),
            offset_frac in 0.0f64..1.0,
            bit in 0u8..8,
        ) {
            let mut db = DurableKv::new();
            let mut committed: Vec<WalRecord> = Vec::new();
            for (op, k, v) in &ops {
                if *op == 0 {
                    db.put(k.as_bytes(), v.as_bytes());
                    committed.push(WalRecord::Put {
                        key: k.clone().into_bytes(),
                        value: v.clone().into_bytes(),
                    });
                } else {
                    db.delete(k.as_bytes());
                    committed.push(WalRecord::Delete { key: k.clone().into_bytes() });
                }
            }
            db.commit();
            let offset = ((db.wal.encoded_len() as f64 - 1.0) * offset_frac) as usize;
            prop_assert!(db.wal.inject_bit_flip(offset, bit));
            // Recovery never panics, and whatever replays is a strict
            // prefix of what was committed.
            let report = db.crash_and_recover_report();
            prop_assert!(report.replayed <= committed.len());
            prop_assert_eq!(db.wal.durable(), &committed[..report.replayed]);
            // A single flipped bit is always detected (frames are
            // header-checksummed), so some suffix must have been dropped.
            prop_assert!(report.corruption.is_some());
            prop_assert!(report.dropped_bytes > 0);
        }
    }

    #[test]
    fn checkpoint_trims_log() {
        let mut wal = Wal::new();
        for i in 0..10u8 {
            wal.append(WalRecord::Delete { key: vec![i] });
        }
        wal.sync();
        assert_eq!(wal.durable().len(), 10);
        wal.checkpoint(6);
        assert_eq!(wal.len(), 4);
        assert_eq!(wal.durable().len(), 4);
        // Checkpoint beyond the sync point is clamped.
        wal.append(WalRecord::Delete { key: vec![99] });
        wal.checkpoint(100);
        assert_eq!(wal.len(), 1); // the unsynced record remains
    }
}
