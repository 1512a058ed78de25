//! The write-ahead log: group commit.
//!
//! Syncing a log record at a time pays a frame header, a checksum pass,
//! and — on real hardware — a device flush *per record*. At deluge
//! ingest rates the flush dominates: §IV-F's "massive volumes of data …
//! generated continuously at rapid speed" cannot be made durable one
//! fsync at a time. [`GroupCommitWal`] coalesces appended records into
//! an in-memory batch and seals the whole batch into a single
//! checksum-framed unit per `sync()` — one header, one checksum pass,
//! one (simulated) device flush, amortized over the batch (GlassDB-style
//! batching, applied to the log; cf. E5b). Record at a time is the same
//! log at `GroupCommitPolicy::by_records(1)`: E17a's baseline.
//!
//! **Atomicity unit = the batch.** A batch frame is
//! `[count u32][len u32][checksum u64][records…]`; recovery validates
//! whole frames, so a crash mid-batch (torn write, bit rot) loses the
//! *entire* batch — never a prefix of it. The unsynced pending tail is
//! lost wholesale on crash.
//!
//! **The byte image is the only copy.** A record lives once, as bytes in
//! its batch frame. Readers borrow [`WalRecordRef`]s from the validating
//! walk recovery truncates with, re-run by every [`GroupCommitWal::durable`]
//! call, so nothing is decoded into a second list or copied on recovery.
//!
//! **The log is trimmed behind a fence:** a batch that stands in for
//! everything before it (a checkpoint image, or a raft node's snapshot
//! record with the state that survives it; [`GroupCommitWal::seal_fence`]).
//! Besides the fence, only a crash's truncation,
//! [`GroupCommitWal::refuse_batch`] and the fault injectors drop durable
//! bytes.
//!
//! Sealing is driven by a [`GroupCommitPolicy`]: a batch closes when it
//! reaches `max_records`, `max_bytes`, or its oldest pending record has
//! waited `max_delay` of virtual time — the classic throughput/latency
//! trigger triple — or when the caller forces `sync()`.

use crate::wal::{
    checksum, decode_payload_ref, encode_payload, encode_put_with, Corruption, RecoveryReport,
    WalRecord, WalRecordRef,
};
use mv_common::codec::{put_chunk_with, read_u32_le, read_u64_le, wire_u32, SliceReader};
use mv_common::metrics::Counters;
use mv_common::time::{SimDuration, SimTime};
use mv_obs::{SharedTracer, TraceCtx};

/// Batch frame header: record count + payload length + payload checksum.
const BATCH_HEADER: usize = 4 + 4 + 8;

/// When a pending batch seals.
#[derive(Debug, Clone, Copy)]
pub struct GroupCommitPolicy {
    /// Seal after this many pending records.
    pub max_records: usize,
    /// Seal once the pending payload reaches this many bytes.
    pub max_bytes: usize,
    /// Seal once the oldest pending record has waited this long
    /// (virtual time; checked on `append`/`tick`).
    pub max_delay: SimDuration,
}

impl Default for GroupCommitPolicy {
    fn default() -> Self {
        GroupCommitPolicy {
            max_records: 256,
            max_bytes: 64 << 10,
            max_delay: SimDuration::from_millis(5),
        }
    }
}

impl GroupCommitPolicy {
    /// A policy that seals on record count alone (byte/deadline triggers
    /// effectively off) — what the E17 batch-size sweep uses.
    pub fn by_records(max_records: usize) -> Self {
        GroupCommitPolicy {
            max_records: max_records.max(1),
            max_bytes: usize::MAX,
            max_delay: SimDuration(u64::MAX),
        }
    }
}

/// The group-commit log.
#[derive(Debug, Default)]
pub struct GroupCommitWal {
    policy: GroupCommitPolicy,
    /// Records in the sealed batches of `log`.
    sealed: usize,
    /// Records appended but not yet sealed — lost wholesale on crash.
    pending: usize,
    /// Encoded payload bytes of the pending batch (records are encoded
    /// on append; sealing only frames + checksums the accumulated
    /// payload — the per-batch, not per-record, commit cost).
    pending_payload: Vec<u8>,
    /// Virtual arrival time of the oldest pending record.
    pending_since: Option<SimTime>,
    /// The sealed batches as checksummed frames — the only copy of the
    /// durable records ([`Self::durable`] decodes them in place).
    log: Vec<u8>,
    /// Span collector for traced appends (see [`Self::set_tracer`]).
    tracer: Option<SharedTracer>,
    /// Latest virtual time this WAL has observed (append/tick). `sync()`
    /// and `seal()` take no `now`, so traced spans close at this clock —
    /// group commit never runs the clock backwards, it only coalesces.
    clock: SimTime,
    /// Open `storage.wal.group_commit` spans of the pending batch;
    /// closed wholesale at seal ("sealed") or crash ("lost").
    pending_spans: Vec<u64>,
    /// `batches`, `records_synced`, `synced_bytes`, and per-trigger
    /// counts (`trigger_records`, `trigger_bytes`, `trigger_deadline`,
    /// `trigger_explicit`).
    pub stats: Counters,
}

impl GroupCommitWal {
    /// An empty log with an explicit trigger policy (`Default` is the
    /// default policy).
    pub fn with_policy(policy: GroupCommitPolicy) -> Self {
        GroupCommitWal { policy, ..Default::default() }
    }

    /// Records appended but not yet sealed into a durable batch — the
    /// group-commit queue depth health probes watch.
    pub fn queue_depth(&self) -> usize {
        self.pending
    }

    /// Encoded bytes of the unsealed pending batch.
    pub fn queued_bytes(&self) -> usize {
        self.pending_payload.len()
    }

    /// Collect a `storage.wal.group_commit` span per traced append: the
    /// span opens at append time and closes when the record's batch
    /// seals (status "sealed") — so the span's duration *is* the group
    /// commit latency the record paid — or aborts on crash ("lost").
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.tracer = Some(tracer);
    }

    /// Append a record at virtual time `now` (not yet durable). Returns
    /// true when this append sealed a batch (count/byte/deadline
    /// trigger). The record is encoded into the pending payload here, so
    /// the later seal costs one frame + one checksum regardless of how
    /// many records the batch holds.
    pub fn append(&mut self, rec: WalRecord, now: SimTime) -> bool {
        self.append_traced(rec, now, None)
    }

    /// [`Self::append`] carrying the record's causal context.
    pub fn append_traced(&mut self, rec: WalRecord, now: SimTime, ctx: Option<TraceCtx>) -> bool {
        self.push(now, ctx, |out| encode_payload(&rec, out));
        self.maybe_seal(now)
    }

    /// Append a put of `key` whose value `value` encodes straight into
    /// the pending batch — the bytes [`Self::append_traced`] logs for
    /// the same record, with no value built apart and copied in.
    pub fn append_put_with(
        &mut self,
        key: &[u8],
        now: SimTime,
        ctx: Option<TraceCtx>,
        value: impl FnOnce(&mut Vec<u8>),
    ) -> bool {
        self.push(now, ctx, |out| encode_put_with(out, key, value));
        self.maybe_seal(now)
    }

    /// Frame the record `payload` encodes into the pending batch,
    /// checking no trigger: the one path a record enters the log by.
    fn push(&mut self, now: SimTime, ctx: Option<TraceCtx>, payload: impl FnOnce(&mut Vec<u8>)) {
        self.clock = self.clock.max(now);
        if let (Some(tr), Some(c)) = (&self.tracer, ctx) {
            self.pending_spans.push(tr.child(c, "storage.wal.group_commit", now));
        }
        self.pending_since.get_or_insert(now);
        put_chunk_with(&mut self.pending_payload, payload);
        self.pending += 1;
    }

    /// Check the deadline trigger without appending (call on timer
    /// ticks). Returns true when a batch sealed.
    pub fn tick(&mut self, now: SimTime) -> bool {
        self.clock = self.clock.max(now);
        self.maybe_seal(now)
    }

    fn maybe_seal(&mut self, now: SimTime) -> bool {
        let Some(since) = self.pending_since else {
            return false;
        };
        let Some(trigger) = self.trigger(self.pending, self.pending_payload.len(), now.since(since)) else {
            return false;
        };
        self.stats.incr(trigger);
        self.seal();
        true
    }

    /// The trigger a batch of `records` holding `bytes` whose oldest
    /// record waited `waited` meets, if any.
    fn trigger(&self, records: usize, bytes: usize, waited: SimDuration) -> Option<&'static str> {
        if records >= self.policy.max_records {
            Some("trigger_records")
        } else if bytes >= self.policy.max_bytes {
            Some("trigger_bytes")
        } else if waited >= self.policy.max_delay {
            Some("trigger_deadline")
        } else {
            None
        }
    }

    /// Force-seal whatever is pending (the explicit group commit).
    /// No-op on an empty pending set.
    pub fn sync(&mut self) {
        if self.pending > 0 {
            self.stats.incr("trigger_explicit");
            self.seal();
        }
    }

    /// Seal the records of `fence` as one batch of their own after
    /// whatever was pending, and only then drop every batch before it
    /// (Raft's log compaction, the fence as its snapshot record): a crash
    /// in between loses the trim, never the fence's predecessors. An
    /// empty fence stands in for nothing, so it seals and trims nothing.
    /// `len()` counts what the trim left; `stats` keep counting every
    /// batch sealed. The fence's batch is built in place as the whole
    /// new log — each record copied once, one checksum pass — in the old
    /// log's buffer: the log grows back to that size before the next
    /// fence, and pages already in memory spare it a fresh allocation's
    /// page faults.
    pub fn seal_fence(&mut self, fence: impl IntoIterator<Item = WalRecord>, now: SimTime) {
        let fence: Vec<WalRecord> = fence.into_iter().collect();
        if fence.is_empty() {
            return;
        }
        self.sync();
        self.clock = self.clock.max(now);
        let mut log = std::mem::take(&mut self.log);
        log.clear();
        log.resize(BATCH_HEADER, 0);
        for rec in &fence {
            put_chunk_with(&mut log, |out| encode_payload(rec, out));
        }
        let payload = log.get(BATCH_HEADER..).unwrap_or_default();
        let header = frame_header(fence.len(), payload);
        let trigger = self.trigger(fence.len(), payload.len(), SimDuration::ZERO);
        self.stats.incr(trigger.unwrap_or("trigger_explicit"));
        if let Some(slot) = log.get_mut(..BATCH_HEADER) {
            slot.copy_from_slice(&header);
        }
        let framed = log.len();
        self.log = log;
        self.sealed = 0;
        self.sealed_batch(fence.len(), framed);
    }

    /// Seal the pending records into one checksummed batch frame.
    fn seal(&mut self) {
        let count = self.pending;
        debug_assert!(count > 0, "seal() requires pending records");
        // Every traced record in this batch becomes durable now: its
        // group-commit wait ends at the seal instant. One lock closes them all.
        if let (Some(tr), false) = (&self.tracer, self.pending_spans.is_empty()) {
            let (spans, clock) = (&self.pending_spans, self.clock);
            tr.with(|t| spans.iter().for_each(|&span| t.close(span, clock, "sealed")));
        }
        self.pending_spans.clear();
        self.log.extend_from_slice(&frame_header(count, &self.pending_payload));
        self.log.extend_from_slice(&self.pending_payload);
        let framed = BATCH_HEADER + self.pending_payload.len();
        self.pending_payload.clear();
        self.pending = 0;
        self.pending_since = None;
        self.sealed_batch(count, framed);
    }

    /// Count a sealed batch of `count` records, `framed` bytes long.
    fn sealed_batch(&mut self, count: usize, framed: usize) {
        self.sealed += count;
        self.stats.incr("batches");
        self.stats.add("records_synced", count as u64);
        self.stats.add("synced_bytes", framed as u64);
    }

    /// Records that would survive a crash, borrowed from the byte log in
    /// append order. Every call re-validates the frames it walks, so
    /// damage done since the last crash (a flipped bit, a torn tail)
    /// ends the walk before the damaged batch — never part-way through
    /// one, and never with a panic.
    pub fn durable(&self) -> impl Iterator<Item = WalRecordRef<'_>> {
        self.durable_batches().flatten()
    }

    /// [`Self::durable`] one sealed batch at a time, in seal order.
    pub fn durable_batches(&self) -> impl Iterator<Item = impl Iterator<Item = WalRecordRef<'_>>> {
        batches(&self.log).map_while(Result::ok).map(|(_, payload)| records(payload))
    }

    /// Total appended records (sealed + pending).
    pub fn len(&self) -> usize {
        self.sealed + self.pending
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the durable byte log (injection offsets index into this).
    pub fn encoded_len(&self) -> usize {
        self.log.len()
    }

    /// The checkpoint rule of the durable engine and of raft replicas:
    /// seal a new image once the log is at least twice the newest image of
    /// `image_len` bytes (0 = none yet, so the first call is due). A fence
    /// leaves the log at about one image, so between checkpoints it takes
    /// about one image's worth of records: the log stays near two images
    /// however long the history, and writing images stays a fixed share of
    /// the bytes logged (Raft's snapshot-when-the-log-outgrows-the-state).
    pub fn checkpoint_due(&self, image_len: usize) -> bool {
        self.encoded_len() >= 2 * image_len
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
    /// interrupted batch write would.
    pub fn inject_torn_write(&mut self, keep: usize) {
        self.log.truncate(keep);
    }

    /// Simulate a crash: the pending tail is lost, and the sealed
    /// batches are re-validated in the (possibly corrupted) byte log.
    /// The log is truncated at the first corrupt *batch*; a damaged
    /// batch is dropped in full along with everything after it. No
    /// record is copied: the surviving frames stay where they are.
    pub fn crash_with_report(&mut self) -> RecoveryReport {
        // The pending tail dies with the crash; its spans must not leak.
        if let Some(tr) = &self.tracer {
            for span in self.pending_spans.drain(..) {
                tr.abort(span, "lost");
            }
        } else {
            self.pending_spans.clear();
        }
        let mut report =
            RecoveryReport { replayed: 0, valid_bytes: 0, dropped_bytes: 0, corruption: None };
        for batch in batches(&self.log) {
            match batch {
                Ok((count, payload)) => {
                    report.replayed += count;
                    report.valid_bytes += BATCH_HEADER + payload.len();
                }
                Err(corruption) => report.corruption = Some(corruption),
            }
        }
        report.dropped_bytes = self.log.len() - report.valid_bytes;
        self.log.truncate(report.valid_bytes);
        self.sealed = report.replayed;
        self.pending = 0;
        self.pending_payload.clear();
        self.pending_since = None;
        report
    }

    /// After [`Self::crash_with_report`]: treat intact batch `index`,
    /// whose contents the caller refuses, as that recovery's first
    /// corrupt batch — it goes with every batch after it, and `report`
    /// says so. No-op past the last batch.
    pub fn refuse_batch(&mut self, index: usize, report: &mut RecoveryReport) {
        let (mut at, mut kept) = (0, 0);
        for (count, payload) in batches(&self.log).map_while(Result::ok).take(index) {
            at += BATCH_HEADER + payload.len();
            kept += count;
        }
        if at < self.log.len() {
            report.corruption = Some(Corruption::ChecksumMismatch { at });
            report.replayed = kept;
            report.valid_bytes = at;
            report.dropped_bytes += self.log.len() - at;
            self.log.truncate(at);
            self.sealed = kept;
        }
    }
}

/// The header of a batch of `count` records whose encoded payload is
/// `payload`: the count, the payload's length and its checksum, each
/// little-endian — the bytes of one little-endian `u128`.
fn frame_header(count: usize, payload: &[u8]) -> [u8; BATCH_HEADER] {
    let (count, len) = (u128::from(wire_u32(count)), u128::from(wire_u32(payload.len())));
    (count | len << 32 | u128::from(checksum(payload)) << 64).to_le_bytes()
}

/// The one validating walk over a batch log: each intact batch's
/// `(record count, payload)` in order, then — if the walk stopped short
/// of the end — one `Err` saying why. Whole batches or nothing.
fn batches(log: &[u8]) -> impl Iterator<Item = Result<(usize, &[u8]), Corruption>> {
    let mut at = Some(0);
    std::iter::from_fn(move || {
        let start = at.filter(|&start| start < log.len())?;
        let batch = batch_at(log, start);
        at = batch.ok().map(|(_, payload)| start + BATCH_HEADER + payload.len());
        Some(batch)
    })
}

/// Validate the frame at `at`: whole, checksum intact, and splitting
/// into exactly its record count of well-formed records. The count sits
/// outside the checksummed payload, so a damaged one fails the split
/// (which stops at the first record the payload cannot hold) instead of
/// sizing anything.
fn batch_at(log: &[u8], at: usize) -> Result<(usize, &[u8]), Corruption> {
    let (Some(count), Some(len), Some(sum)) = (
        read_u32_le(log, at),
        read_u32_le(log, at + 4),
        read_u64_le(log, at + 8),
    ) else {
        return Err(Corruption::TornTail { at });
    };
    let (count, len) = (count as usize, len as usize);
    let payload = log.get(at + BATCH_HEADER..at + BATCH_HEADER + len);
    let payload = payload.ok_or(Corruption::TornTail { at })?;
    let mut walk = SliceReader::new(payload);
    let intact = checksum(payload) == sum
        && (0..count).all(|_| walk.chunk().and_then(decode_payload_ref).is_some())
        && walk.done();
    intact.then_some((count, payload)).ok_or(Corruption::ChecksumMismatch { at })
}

/// The records of a payload [`batch_at`] validated, borrowed in place.
fn records(payload: &[u8]) -> impl Iterator<Item = WalRecordRef<'_>> {
    let mut walk = SliceReader::new(payload);
    std::iter::from_fn(move || walk.chunk().and_then(decode_payload_ref))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::KvStore;
    use mv_common::codec::{put_u32, put_u64};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn put(i: u32) -> WalRecord {
        WalRecord::Put { key: format!("k{i}").into_bytes(), value: format!("v{i}").into_bytes() }
    }

    /// A put (`op` 0) or a delete (any other `op`) of `key`.
    fn write(op: u8, key: &str, value: &str) -> WalRecord {
        let key = key.as_bytes().to_vec();
        match op {
            0 => WalRecord::Put { key, value: value.as_bytes().to_vec() },
            _ => WalRecord::Delete { key },
        }
    }

    /// The durable records replayed into a fresh store, as recovery would.
    fn replay(wal: &GroupCommitWal) -> KvStore {
        let mut kv = KvStore::new();
        for rec in wal.durable() {
            match rec {
                WalRecordRef::Put { key, value } => kv.put(key.to_vec(), value.to_vec()),
                WalRecordRef::Delete { key } => kv.delete(key.to_vec()),
            }
        }
        kv
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// The durable records, copied out for comparison.
    fn durable(wal: &GroupCommitWal) -> Vec<WalRecord> {
        wal.durable().map(|r| r.to_owned()).collect()
    }

    /// Record counts of the intact batches, in seal order.
    fn batch_sizes(wal: &GroupCommitWal) -> Vec<usize> {
        wal.durable_batches().map(Iterator::count).collect()
    }

    /// `(records so far, end byte)` after each intact batch, from `(0, 0)`.
    fn bounds_of(wal: &GroupCommitWal) -> Vec<(usize, usize)> {
        let mut bounds = vec![(0, 0)];
        for (count, payload) in batches(&wal.log).map_while(Result::ok) {
            let (records, end) = bounds[bounds.len() - 1];
            bounds.push((records + count, end + BATCH_HEADER + payload.len()));
        }
        bounds
    }

    /// The last boundary at or before byte `at`: what survives damage there.
    fn survivors(bounds: &[(usize, usize)], at: usize) -> (usize, usize) {
        bounds.iter().rev().find(|&&(_, end)| end <= at).copied().unwrap_or((0, 0))
    }

    /// Six records sealed as batches of 1, 2 and 3, with their bounds.
    fn small_log() -> (GroupCommitWal, Vec<WalRecord>, Vec<(usize, usize)>) {
        let mut wal = GroupCommitWal::with_policy(GroupCommitPolicy::by_records(usize::MAX));
        let records: Vec<WalRecord> = (0..6).map(put).collect();
        let mut next = records.iter();
        for size in [1, 2, 3] {
            for rec in next.by_ref().take(size) {
                wal.append(rec.clone(), t(0));
            }
            wal.sync();
        }
        let bounds = bounds_of(&wal);
        assert_eq!(bounds.iter().map(|b| b.0).collect::<Vec<_>>(), [0, 1, 3, 6]);
        (wal, records, bounds)
    }

    #[test]
    fn record_count_trigger_seals_batches() {
        let mut wal = GroupCommitWal::with_policy(GroupCommitPolicy::by_records(4));
        for i in 0..10 {
            let sealed = wal.append(put(i), t(0));
            assert_eq!(sealed, i % 4 == 3, "append {i}");
        }
        assert_eq!(wal.durable().count(), 8);
        assert_eq!(wal.queue_depth(), 2);
        assert_eq!(batch_sizes(&wal), [4, 4]);
        assert_eq!(wal.stats.get("trigger_records"), 2);
        wal.sync();
        assert_eq!(durable(&wal), (0..10).map(put).collect::<Vec<_>>());
        assert_eq!(batch_sizes(&wal), [4, 4, 2]);
        assert_eq!(wal.stats.get("trigger_explicit"), 1);
    }

    #[test]
    fn byte_trigger_seals_on_payload_size() {
        let mut wal = GroupCommitWal::with_policy(GroupCommitPolicy {
            max_records: usize::MAX,
            max_bytes: 64,
            max_delay: SimDuration(u64::MAX),
        });
        let mut sealed = false;
        for i in 0..20 {
            sealed |= wal.append(put(i), t(0));
            if sealed {
                break;
            }
        }
        assert!(sealed, "64-byte trigger must fire well before 20 records");
        assert_eq!(wal.stats.get("trigger_bytes"), 1);
    }

    #[test]
    fn deletes_replay_correctly() {
        let mut wal = GroupCommitWal::default();
        let writes = [write(0, "a", "1"), write(1, "a", ""), write(0, "a", "2"), write(1, "a", "")];
        for rec in &writes {
            wal.append(rec.clone(), t(0));
        }
        wal.sync();
        assert_eq!(wal.crash_with_report().replayed, 4);
        assert_eq!(durable(&wal), writes);
        assert_eq!(replay(&wal).get(b"a"), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Mixed puts and deletes at a random sync cadence, then a crash:
        /// exactly the records up to the last sync survive, and they
        /// replay to the store as of that sync.
        #[test]
        fn prop_crash_preserves_exactly_the_committed_prefix(
            ops in proptest::collection::vec((0u8..2, "[a-c]{1,2}", "[x-z]{1,2}"), 1..60),
            commit_every in 1usize..8,
        ) {
            let mut wal = GroupCommitWal::with_policy(GroupCommitPolicy::by_records(usize::MAX));
            let (mut logged, mut committed) = (Vec::new(), 0);
            for (i, (op, k, v)) in ops.iter().enumerate() {
                logged.push(write(*op, k, v));
                wal.append(write(*op, k, v), t(0));
                if (i + 1) % commit_every == 0 {
                    wal.sync();
                    committed = logged.len();
                }
            }
            let report = wal.crash_with_report();
            prop_assert_eq!((report.replayed, report.corruption), (committed, None));
            prop_assert_eq!(durable(&wal), &logged[..committed]);
            // Shadow model of the store as of the last sync.
            let mut model: BTreeMap<&str, Option<&str>> = BTreeMap::new();
            for (op, k, v) in &ops[..committed] {
                model.insert(k, (*op == 0).then_some(v.as_str()));
            }
            let kv = replay(&wal);
            for (op, k, _) in &ops {
                let expected = model.get(k.as_str()).copied().flatten();
                let got = kv.get(k.as_bytes());
                prop_assert_eq!(got.as_deref(), expected.map(str::as_bytes), "key {} op {}", k, op);
            }
        }
    }

    #[test]
    fn deadline_trigger_seals_aged_batches() {
        let mut wal = GroupCommitWal::with_policy(GroupCommitPolicy {
            max_records: usize::MAX,
            max_bytes: usize::MAX,
            max_delay: SimDuration::from_millis(5),
        });
        assert!(!wal.append(put(0), t(0)));
        assert!(!wal.tick(t(4)), "deadline not yet reached");
        assert!(wal.tick(t(5)), "5 ms deadline seals the batch");
        assert_eq!(wal.durable().count(), 1);
        assert_eq!(wal.stats.get("trigger_deadline"), 1);
        // Empty pending: ticks are no-ops.
        assert!(!wal.tick(t(100)));
    }

    #[test]
    fn unsynced_pending_tail_is_lost_on_crash() {
        let mut wal = GroupCommitWal::with_policy(GroupCommitPolicy::by_records(4));
        for i in 0..6 {
            wal.append(put(i), t(0));
        }
        // One sealed batch of 4, two pending.
        let report = wal.crash_with_report();
        assert_eq!(report.replayed, 4);
        assert_eq!(report.corruption, None);
        assert_eq!(durable(&wal), (0..4).map(put).collect::<Vec<_>>());
        assert_eq!((wal.queue_depth(), wal.len()), (0, 4));
    }

    /// Crash mid-batch loses the whole batch, never a prefix of it —
    /// `durable()` only ever shrinks by whole batches. Every truncation
    /// of a log of 1-, 2- and 3-record batches.
    #[test]
    fn torn_write_mid_batch_drops_the_whole_batch() {
        let full = small_log().0.encoded_len();
        for keep in 0..=full {
            let (mut wal, records, bounds) = small_log();
            wal.inject_torn_write(keep);
            let report = wal.crash_with_report();
            let (kept, intact) = survivors(&bounds, keep);
            assert_eq!(report.replayed, kept, "torn at {keep}");
            assert_eq!((report.valid_bytes, report.dropped_bytes), (intact, keep - intact));
            let torn = (keep > intact).then_some(Corruption::TornTail { at: intact });
            assert_eq!(report.corruption, torn, "torn at {keep}");
            assert_eq!(durable(&wal), records[..kept], "torn at {keep}");
            assert_eq!(wal.len(), kept);
        }
    }

    /// Three flips of every byte of the same log: the damaged batch and
    /// everything after it go, the batches before it stay, and a second
    /// crash is a fixed point (the damage was excised).
    #[test]
    fn bit_flip_in_a_batch_truncates_at_that_batch() {
        let len = small_log().0.encoded_len();
        for at in 0..len {
            for bit in [0u8, 4, 7] {
                let (mut wal, records, bounds) = small_log();
                assert!(wal.inject_bit_flip(at, bit));
                let report = wal.crash_with_report();
                let (kept, intact) = survivors(&bounds, at);
                let label = format!("byte {at} bit {bit}");
                assert_eq!((report.replayed, report.valid_bytes), (kept, intact), "{label}");
                assert!(report.corruption.is_some(), "{label}");
                assert_eq!(durable(&wal), records[..kept], "{label}");
                let again = wal.crash_with_report();
                assert_eq!((again.replayed, again.corruption), (kept, None));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn prop_any_single_bit_flip_loses_only_whole_batches(
            n_records in 1usize..40,
            batch in 1usize..8,
            offset_frac in 0.0f64..1.0,
            later_frac in 0.0f64..1.0,
            bit in 0u8..8,
        ) {
            let mut wal = GroupCommitWal::with_policy(GroupCommitPolicy::by_records(batch));
            let records: Vec<WalRecord> = (0..n_records as u32).map(put).collect();
            for rec in &records {
                wal.append(rec.clone(), t(0));
            }
            wal.sync();
            let bounds = bounds_of(&wal);
            prop_assert_eq!(bounds.last().map(|b| b.0), Some(n_records));
            let offset = ((wal.encoded_len() as f64 - 1.0) * offset_frac) as usize;
            prop_assert!(wal.inject_bit_flip(offset, bit));
            let report = wal.crash_with_report();
            // Detected, and the surviving records are exactly the
            // concatenation of the whole batches before the flip.
            prop_assert!(report.corruption.is_some());
            let (kept, _) = survivors(&bounds, offset);
            prop_assert_eq!(report.replayed, kept);
            prop_assert_eq!(durable(&wal), &records[..kept]);

            // Damage after the crash, with no second crash: `durable()`
            // re-validates and stops before the damaged batch.
            if wal.encoded_len() > 0 {
                let at = ((wal.encoded_len() as f64 - 1.0) * later_frac) as usize;
                prop_assert!(wal.inject_bit_flip(at, bit));
                let (before, _) = survivors(&bounds, at);
                prop_assert_eq!(durable(&wal), &records[..before]);
            }
        }
    }

    #[test]
    fn hostile_batch_headers_recover_cleanly_instead_of_panicking() {
        let walk_of = |log: &[u8]| {
            let mut walk = batches(log);
            let stop = walk.next().and_then(Result::err);
            assert_eq!(walk.next(), None);
            stop
        };
        // count = u32::MAX over a tiny (checksum-valid) payload: the
        // record walk must run off the payload end and drop the batch —
        // no monster allocation, no slice panic.
        let mut payload = Vec::new();
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&[0xAB, 0xCD]);
        let mut log = Vec::new();
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&wire_u32(payload.len()).to_le_bytes());
        log.extend_from_slice(&checksum(&payload).to_le_bytes());
        log.extend_from_slice(&payload);
        assert_eq!(walk_of(&log), Some(Corruption::ChecksumMismatch { at: 0 }));

        // Batch length of u32::MAX: a torn tail, not an OOB read.
        let mut log = Vec::new();
        log.extend_from_slice(&1u32.to_le_bytes());
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(walk_of(&log), Some(Corruption::TornTail { at: 0 }));

        // A header shorter than BATCH_HEADER bytes: torn tail too.
        assert_eq!(walk_of(&[1, 2, 3]), Some(Corruption::TornTail { at: 0 }));

        // Header and checksum valid, but the one record's key length runs
        // past the payload: the record does not decode, so the batch goes.
        let mut record = vec![1u8];
        record.extend_from_slice(&u32::MAX.to_le_bytes());
        record.extend_from_slice(b"k");
        let mut payload = Vec::new();
        put_u32(&mut payload, wire_u32(record.len()));
        payload.extend_from_slice(&record);
        let mut log = Vec::new();
        put_u32(&mut log, 1);
        put_u32(&mut log, wire_u32(payload.len()));
        put_u64(&mut log, checksum(&payload));
        log.extend_from_slice(&payload);
        assert_eq!(walk_of(&log), Some(Corruption::ChecksumMismatch { at: 0 }));
    }

    /// A fence seals alone, after whatever was pending, and the batches
    /// before it go; counts follow the trim, stats keep counting.
    #[test]
    fn a_fence_seals_alone_then_trims_what_came_before() {
        let (mut wal, _, _) = small_log();
        wal.append(put(6), t(1));
        wal.seal_fence([put(7)], t(1));
        assert_eq!(batch_sizes(&wal), [1], "the pending record sealed, then was trimmed");
        assert_eq!((wal.len(), wal.stats.get("batches")), (1, 5));
        wal.append(put(8), t(2));
        wal.sync();
        assert_eq!(durable(&wal), [put(7), put(8)]);
        let fence_end = bounds_of(&wal)[1].1;
        assert_eq!(wal.crash_with_report().replayed, 2, "a trimmed log recovers as it is");
        // Damage inside the fence leaves nothing: what it replaced is gone.
        wal.inject_bit_flip(fence_end - 1, 0);
        assert_eq!((wal.crash_with_report().replayed, wal.len()), (0, 0));
    }

    /// A fence of several records is one batch, whatever the policy:
    /// `len()` counts its records, and damage to it leaves none of them.
    #[test]
    fn a_fence_of_several_records_seals_as_one_batch() {
        let mut wal = GroupCommitWal::with_policy(GroupCommitPolicy::by_records(2));
        for i in 0..5 {
            wal.append(put(i), t(0));
        }
        wal.seal_fence((5..8).map(put), t(1));
        assert_eq!(batch_sizes(&wal), [3], "one batch, though the policy seals at 2");
        assert_eq!((wal.len(), wal.queue_depth()), (3, 0));
        assert_eq!(durable(&wal), (5..8).map(put).collect::<Vec<_>>());
        assert_eq!(wal.stats.get("batches"), 4, "2 full, the pending one, the fence");
        wal.append(put(8), t(2));
        wal.sync();
        assert_eq!(wal.crash_with_report().replayed, 4);
        wal.inject_torn_write(bounds_of(&wal)[1].1 - 1);
        assert_eq!((wal.crash_with_report().replayed, wal.len()), (0, 0));
    }

    /// An empty fence stands in for nothing: nothing seals, nothing is
    /// trimmed, and the pending tail stays pending.
    #[test]
    fn an_empty_fence_trims_nothing() {
        let (mut wal, records, _) = small_log();
        wal.append(put(6), t(1));
        let (bytes, batches) = (wal.encoded_len(), wal.stats.get("batches"));
        wal.seal_fence([], t(1));
        assert_eq!((wal.encoded_len(), wal.stats.get("batches")), (bytes, batches));
        assert_eq!((wal.len(), wal.queue_depth()), (7, 1));
        assert_eq!(durable(&wal), records);
    }

    /// A refused batch is recovery's first damage: it and everything
    /// after it go, and the report reads as if its checksum had failed.
    #[test]
    fn a_refused_batch_truncates_like_a_corrupt_one() {
        let (mut wal, records, bounds) = small_log();
        wal.inject_torn_write(bounds[3].1 - 1);
        let mut report = wal.crash_with_report();
        assert_eq!(report.corruption, Some(Corruption::TornTail { at: bounds[2].1 }));
        wal.refuse_batch(1, &mut report);
        let expected = RecoveryReport {
            replayed: 1,
            valid_bytes: bounds[1].1,
            dropped_bytes: bounds[3].1 - 1 - bounds[1].1,
            corruption: Some(Corruption::ChecksumMismatch { at: bounds[1].1 }),
        };
        assert_eq!(report, expected);
        assert_eq!((durable(&wal), wal.len()), (records[..1].to_vec(), 1));
        wal.refuse_batch(1, &mut report);
        assert_eq!(report, expected, "past the last batch: no-op");
    }

    #[test]
    fn empty_and_never_synced_logs_recover_clean() {
        let mut wal = GroupCommitWal::default();
        let report = wal.crash_with_report();
        assert_eq!(
            report,
            RecoveryReport { replayed: 0, valid_bytes: 0, dropped_bytes: 0, corruption: None }
        );
        wal.append(put(1), t(0));
        wal.append(put(2), t(0));
        // Never sealed: the crash wipes everything, cleanly.
        let report = wal.crash_with_report();
        assert_eq!(report.replayed, 0);
        assert!(wal.is_empty());
    }

    #[test]
    fn traced_appends_close_at_seal_and_abort_on_crash() {
        let tracer = mv_obs::SharedTracer::new();
        let mut wal = GroupCommitWal::with_policy(GroupCommitPolicy::by_records(2));
        wal.set_tracer(tracer.clone());
        let root = tracer.start_trace("test.root", t(0));

        // Two traced appends fill a batch; both spans close "sealed" at
        // the WAL clock of the sealing append.
        wal.append_traced(put(1), t(1), Some(root));
        assert_eq!(tracer.open_count(), 2, "root + one pending wal span");
        wal.append_traced(put(2), t(3), Some(root));
        assert_eq!(tracer.open_count(), 1, "only the root remains open");
        let sealed: Vec<_> = tracer
            .records()
            .into_iter()
            .filter(|r| r.name == "storage.wal.group_commit")
            .collect();
        assert_eq!(sealed.len(), 2);
        assert!(sealed.iter().all(|r| r.status == "sealed" && r.end == t(3)));
        assert_eq!(sealed[0].start, t(1));

        // A pending (unsealed) traced record dies with the crash: its
        // span aborts "lost" instead of leaking.
        wal.append_traced(put(3), t(5), Some(root));
        assert_eq!(tracer.open_count(), 2);
        wal.crash_with_report();
        assert_eq!(tracer.open_count(), 1);
        let lost: Vec<_> =
            tracer.records().into_iter().filter(|r| r.status == "lost").collect();
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].end, lost[0].start, "aborted spans have no duration");

        // Untraced appends never touch the tracer.
        wal.append(put(4), t(6));
        wal.sync();
        assert_eq!(tracer.open_count(), 1);
    }

    #[test]
    fn batch_framing_amortizes_header_bytes() {
        // One 64-record batch spends one header; 64 single-record
        // batches spend 64. The byte log shows the amortization.
        let mut grouped = GroupCommitWal::with_policy(GroupCommitPolicy::by_records(64));
        let mut single = GroupCommitWal::with_policy(GroupCommitPolicy::by_records(1));
        for i in 0..64 {
            grouped.append(put(i), t(0));
            single.append(put(i), t(0));
        }
        grouped.sync();
        assert_eq!(durable(&grouped), durable(&single));
        assert_eq!(grouped.durable().count(), 64);
        assert_eq!(grouped.stats.get("batches"), 1);
        assert_eq!(single.stats.get("batches"), 64);
        assert_eq!(
            single.encoded_len() - grouped.encoded_len(),
            63 * BATCH_HEADER,
            "per-batch framing overhead"
        );
    }
}
