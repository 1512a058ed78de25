//! The workspace's one little-endian codec: checked narrowing for wire
//! fields, the `put_*` writers every encoder frames with, and the total
//! readers every decoder walks with.
//!
//! Every encoder in the workspace frames variable-length data with a
//! `u32` length prefix (and a few other `u32` wire fields: counts,
//! shard indices). Writing `len as u32` at each site silently truncates
//! if a payload ever crosses 4 GiB — the frame would decode as a
//! *shorter* record and the checksum of the remainder would fail in a
//! way that looks like corruption, not like an oversized write. The
//! workspace lint (`cast-truncation`) bans the bare cast on codec
//! paths; [`wire_u32`] is the sanctioned spelling.
//!
//! Decoders read bytes that survived a crash — or that a fault schedule
//! deliberately mangled — so every read here is total: out of range
//! returns `None`, never panics. `mv-lint`'s `panic-path` rule holds the
//! WAL, group-commit, raft and durable-engine decode paths to that
//! standard; these helpers are how they meet it.

/// Convert a `usize` destined for a `u32` wire field (length prefix,
/// count, shard index), checking the narrowing.
///
/// Debug builds assert; release builds saturate to `u32::MAX`, which a
/// reader's bounds check then rejects as a hostile length instead of
/// mis-framing the stream. For every value this workspace actually
/// produces (payloads are far below 4 GiB) the result is bit-identical
/// to the old `as u32` cast, so experiment output does not move.
#[inline]
pub fn wire_u32(n: usize) -> u32 {
    debug_assert!(
        u64::try_from(n).unwrap_or(u64::MAX) <= u64::from(u32::MAX),
        "value {n} exceeds the u32 wire field"
    );
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `f64`.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `[len u32][bytes]`, the framing [`SliceReader::chunk`] reads.
pub fn put_chunk(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, wire_u32(bytes.len()));
    out.extend_from_slice(bytes);
}

/// Append the chunk `write` encodes, in place: a length placeholder,
/// then `write`'s bytes, then the length patched in — the bytes
/// [`put_chunk`] writes for them, without building them apart first.
pub fn put_chunk_with(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    put_u32(out, 0);
    write(out);
    let len = wire_u32(out.len() - start - 4);
    // The slot always exists: the placeholder was pushed just above.
    if let Some(slot) = out.get_mut(start..start + 4) {
        slot.copy_from_slice(&len.to_le_bytes());
    }
}

/// Read a little-endian `u32` at byte offset `at`.
pub fn read_u32_le(bytes: &[u8], at: usize) -> Option<u32> {
    let chunk: [u8; 4] = bytes.get(at..at.checked_add(4)?)?.try_into().ok()?;
    Some(u32::from_le_bytes(chunk))
}

/// Read a little-endian `u64` at byte offset `at`.
pub fn read_u64_le(bytes: &[u8], at: usize) -> Option<u64> {
    let chunk: [u8; 8] = bytes.get(at..at.checked_add(8)?)?.try_into().ok()?;
    Some(u64::from_le_bytes(chunk))
}

/// A checked little-endian cursor over borrowed bytes.
///
/// All reads are total — out-of-range returns `None`, never panics —
/// and all slice outputs borrow from the input (`&'a [u8]`), so callers
/// can route, validate, and filter without copying; owned copies happen
/// only where an owned type is actually constructed.
#[derive(Debug, Clone, Copy)]
pub struct SliceReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> SliceReader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SliceReader { buf, at: 0 }
    }

    /// Borrow the next `n` bytes and advance past them.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let chunk = self.buf.get(self.at..end)?;
        self.at = end;
        Some(chunk)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).and_then(|b| b.first().copied())
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        let chunk: [u8; 4] = self.take(4)?.try_into().ok()?;
        Some(u32::from_le_bytes(chunk))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        let chunk: [u8; 8] = self.take(8)?.try_into().ok()?;
        Some(u64::from_le_bytes(chunk))
    }

    /// Read a little-endian `f64`.
    pub fn f64(&mut self) -> Option<f64> {
        let chunk: [u8; 8] = self.take(8)?.try_into().ok()?;
        Some(f64::from_le_bytes(chunk))
    }

    /// Read a `u32` length prefix then borrow that many bytes.
    pub fn chunk(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// True once the cursor has consumed the whole buffer — decoders
    /// use this to reject trailing garbage.
    pub fn done(&self) -> bool {
        self.at == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_u32_is_identity_in_range() {
        for n in [0usize, 1, 251, 65_535, 1 << 20] {
            assert_eq!(wire_u32(n), n as u32);
        }
        assert_eq!(wire_u32(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn wire_u32_saturates_in_release() {
        assert_eq!(wire_u32(usize::MAX), u32::MAX);
    }

    #[test]
    fn reads_in_range() {
        let mut b = 7u32.to_le_bytes().to_vec();
        b.extend_from_slice(&9u64.to_le_bytes());
        assert_eq!(read_u32_le(&b, 0), Some(7));
        assert_eq!(read_u64_le(&b, 4), Some(9));
    }

    #[test]
    fn out_of_range_is_none_not_panic() {
        let b = [1u8, 2, 3];
        assert_eq!(read_u32_le(&b, 0), None);
        assert_eq!(read_u32_le(&b, usize::MAX), None);
        assert_eq!(read_u64_le(&b, 1), None);
        assert_eq!(read_u64_le(&b, usize::MAX - 2), None);
    }

    #[test]
    fn slice_reader_walks_a_frame_borrowing_chunks() {
        let mut b = Vec::new();
        b.push(7u8);
        put_chunk(&mut b, b"abc");
        put_u64(&mut b, 42);
        put_f64(&mut b, 1.5);
        let mut r = SliceReader::new(&b);
        assert_eq!(r.u8(), Some(7));
        let chunk = r.chunk().unwrap();
        assert_eq!(chunk, b"abc");
        // The chunk borrows the input buffer — same allocation.
        assert!(std::ptr::eq(chunk.as_ptr(), b[5..].as_ptr()));
        assert_eq!(r.u64(), Some(42));
        assert_eq!(r.f64(), Some(1.5));
        assert!(r.done());
        // A chunk written in place frames the same bytes.
        let mut c = vec![7u8];
        put_chunk_with(&mut c, |out| out.extend_from_slice(b"abc"));
        assert_eq!(c, b[..8]);
    }

    #[test]
    fn slice_reader_is_total_on_truncated_and_hostile_input() {
        let mut r = SliceReader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), None, "short read must not advance-panic");
        assert_eq!(r.u8(), Some(1), "failed read must not consume bytes");
        // Hostile length prefix far past the buffer.
        let mut hostile = Vec::new();
        put_u32(&mut hostile, u32::MAX);
        hostile.extend_from_slice(b"abc");
        let mut r = SliceReader::new(&hostile);
        assert_eq!(r.chunk(), None);
        let mut r = SliceReader::new(&[]);
        assert_eq!(r.u8(), None);
        assert_eq!(r.u64(), None);
        assert!(r.done());
    }

    #[test]
    fn writers_frame_exactly_what_the_reader_reads() {
        let mut b = Vec::new();
        put_chunk(&mut b, b"abc");
        put_u32(&mut b, 9);
        assert_eq!(b, [3, 0, 0, 0, b'a', b'b', b'c', 9, 0, 0, 0]);
        let mut r = SliceReader::new(&b);
        assert_eq!((r.chunk(), r.u32()), (Some(&b"abc"[..]), Some(9)));
        assert!(r.done());
    }
}
