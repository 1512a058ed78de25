//! Virtual time.
//!
//! Everything in the workspace runs on simulated time so that experiments
//! are deterministic. [`SimTime`] is a microsecond-resolution instant
//! and [`SimDuration`] the matching span; a simulation driver (usually
//! the discrete-event loop in `mv-net`) advances the time.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicU64, Ordering};

/// An instant on the simulated timeline, in microseconds since start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The origin of the simulated timeline.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future (used as an "infinite" deadline sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }
    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }
    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Microseconds since the origin.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }
    /// Milliseconds since the origin (fractional).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }
    /// Seconds since the origin (fractional).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Duration since an earlier instant; saturates at zero if `earlier`
    /// is actually later (late/out-of-order data is common in the fusion
    /// layer, and a panic there would be wrong).
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }
    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }
    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }
    /// Construct from fractional seconds (rounded to the nearest µs).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s * 1_000_000.0).round().max(0.0) as u64)
    }

    /// Microseconds in this span.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }
    /// Milliseconds in this span (fractional).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }
    /// Seconds in this span (fractional).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Scale the span by a factor (used for jitter and backoff).
    #[inline]
    pub fn mul_f64(self, f: f64) -> Self {
        SimDuration((self.0 as f64 * f).round().max(0.0) as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

/// Bits of the commit-sequence suffix inside an oracle timestamp (the
/// low bits that disambiguate commits landing at the same sim µs).
pub(crate) const TS_SEQ_BITS: u32 = 16;

/// A deterministic commit-timestamp oracle driven by the sim clock.
///
/// Transaction timestamps must be (a) strictly monotonic — they define
/// the serial order MVCC validation certifies — and (b) comparable with
/// simulated time, so a version written "at t=5ms" orders after every
/// commit from earlier ticks regardless of allocation interleaving.
/// [`TimestampOracle::next`] therefore embeds the sim clock in the high
/// bits (`now.as_micros() << TS_SEQ_BITS`) and bumps a sequence suffix
/// when several commits land inside one simulated microsecond. Given the
/// same sequence of `next` calls, the oracle produces the same
/// timestamps — determinism comes from the caller's schedule, never from
/// wall clocks.
#[derive(Debug, Default)]
pub struct TimestampOracle {
    last: AtomicU64,
}

impl TimestampOracle {
    /// An oracle at the origin (no timestamp allocated yet).
    pub const fn new() -> Self {
        Self { last: AtomicU64::new(0) }
    }

    /// The most recently allocated (or observed) timestamp; `0` before
    /// the first allocation. Snapshots read here: a snapshot at
    /// `current()` sees every commit allocated so far and none after.
    #[inline]
    pub fn current(&self) -> u64 {
        self.last.load(Ordering::SeqCst)
    }

    /// Allocate the next timestamp at sim time `now`: the larger of
    /// `last + 1` and `now << TS_SEQ_BITS`, so results are strictly
    /// monotonic and never behind the sim clock.
    pub fn next(&self, now: SimTime) -> u64 {
        let floor = now.as_micros().saturating_mul(1 << TS_SEQ_BITS);
        let mut cur = self.last.load(Ordering::SeqCst);
        loop {
            let candidate = floor.max(cur.saturating_add(1));
            match self.last.compare_exchange_weak(
                cur,
                candidate,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return candidate,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Fast-forward past `ts` (recovery replays call this with each
    /// logged commit timestamp so post-recovery allocations stay above
    /// everything already durable). Never moves backwards.
    pub fn advance_past(&self, ts: u64) {
        self.last.fetch_max(ts, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_millis(5);
        let t2 = t + SimDuration::from_millis(3);
        assert_eq!(t2.as_micros(), 8_000);
        assert_eq!((t2 - t).as_millis_f64(), 3.0);
    }

    #[test]
    fn since_saturates_for_out_of_order() {
        let early = SimTime::from_millis(1);
        let late = SimTime::from_millis(2);
        assert_eq!(early.since(late), SimDuration::ZERO);
        assert_eq!(late.since(early), SimDuration::from_millis(1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_micros(12).to_string(), "12us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn from_secs_f64_rounds_and_clamps() {
        assert_eq!(SimDuration::from_secs_f64(0.0000015).as_micros(), 2);
        assert_eq!(SimDuration::from_secs_f64(-1.0).as_micros(), 0);
    }

    #[test]
    fn oracle_is_strictly_monotonic_and_clock_driven() {
        let o = TimestampOracle::new();
        assert_eq!(o.current(), 0);
        let a = o.next(SimTime::from_micros(3));
        let b = o.next(SimTime::from_micros(3));
        let c = o.next(SimTime::from_micros(3));
        assert_eq!(a, 3 << TS_SEQ_BITS, "first ts at t=3µs embeds the clock");
        assert_eq!((b, c), (a + 1, a + 2), "same-µs commits get sequence suffixes");
        // A later sim instant jumps the timestamp past the whole suffix range.
        let d = o.next(SimTime::from_micros(4));
        assert_eq!(d, 4 << TS_SEQ_BITS);
        // The sim clock running "backwards" (out-of-order callers) still
        // yields strictly increasing timestamps.
        let e = o.next(SimTime::from_micros(1));
        assert_eq!(e, d + 1);
        assert_eq!(o.current(), e);
    }

    #[test]
    fn oracle_advance_past_never_regresses() {
        let o = TimestampOracle::new();
        o.advance_past(500);
        assert_eq!(o.current(), 500);
        o.advance_past(100);
        assert_eq!(o.current(), 500);
        assert_eq!(o.next(SimTime::ZERO), 501);
    }

    #[test]
    fn oracle_concurrent_allocations_are_unique() {
        let o = std::sync::Arc::new(TimestampOracle::new());
        let mut all: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let o = std::sync::Arc::clone(&o);
                    s.spawn(move || {
                        (0..500).map(|j| o.next(SimTime::from_micros(i * 7 + j % 5))).collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("no panic")).collect()
        });
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 2000, "every allocation distinct");
    }
}
