//! Causal span tracing on the simulated clock.
//!
//! A [`TraceCtx`] is minted where an operation enters the system (op
//! ingest in `DurableMetaverse`/`ShardedMetaverse`, or a bench driver)
//! and rides inside every payload the op turns into: transport frames,
//! outbox entries, broker publications, WAL records. Each stage opens a
//! *span* (a named child with a start time), and closes it when the
//! stage completes — or aborts it when a crash destroys the state that
//! would have closed it. The result is a per-run log of
//! [`SpanRecord`]s from which a single update's end-to-end critical
//! path — including retransmissions and replays under `FaultPlan`
//! faults — is reconstructible as a tree.
//!
//! Everything is deterministic: ids are sequential (so seed-stable in a
//! deterministic simulation), timestamps are sim-clock, and
//! [`Tracer::canonical_bytes`] sorts by `(trace, span)` — two same-seed
//! runs produce byte-identical span logs ([`Tracer::log_hash`]).

use mv_common::hash::{fx_hash_one, FastMap};
use mv_common::time::SimTime;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The causal context an in-flight operation carries: which trace it
/// belongs to and which span is its current parent. `Copy` so payload
/// structs can embed it without ceremony.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// Trace id: one per traced operation, sequential from 1.
    pub trace: u64,
    /// Parent span id for the next child this context spawns.
    pub span: u64,
}

impl TraceCtx {
    /// The same trace with a different parent span (what a stage passes
    /// downstream after opening its own span).
    pub fn with_span(self, span: u64) -> TraceCtx {
        TraceCtx { trace: self.trace, span }
    }
}

/// One completed (or aborted) span. `end == start` with a non-`"ok"`
/// status marks an instant event or an abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace: u64,
    /// This span's id (unique per tracer, sequential from 1).
    pub span: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Stage name, `<crate>.<component>.<stage>`.
    pub name: &'static str,
    /// Sim time the stage began.
    pub start: SimTime,
    /// Sim time the stage ended (== start for events/aborts).
    pub end: SimTime,
    /// Outcome: `"ok"`, `"acked"`, `"timeout"`, `"expired"`,
    /// `"crashed"`, `"sealed"`, `"lost"`, …
    pub status: &'static str,
}

#[derive(Debug, Clone)]
struct OpenSpan {
    trace: u64,
    parent: u64,
    name: &'static str,
    start: SimTime,
}

/// Collects spans for one run. Single-threaded by design (the
/// simulations are); wrap in [`SharedTracer`] to hand one instance to
/// several components.
#[derive(Debug, Default)]
pub struct Tracer {
    next_trace: u64,
    next_span: u64,
    /// Mint a root for every k-th `maybe_trace` call (0 ⇒ trace all).
    sample_every: u64,
    /// Calls seen by `maybe_trace` (the sampling counter).
    minted_calls: u64,
    /// Open spans by id. Nothing iterates them (they are only inserted,
    /// removed and counted), so order is never observable.
    open: FastMap<u64, OpenSpan>,
    closed: Vec<SpanRecord>,
}

/// Span records a sampled tracer has room for before its span log first
/// grows (144 KiB). A growth in mid-run can land just past a buffer the
/// traced path is growing too — a group-commit log of a few MB — so the
/// allocator must copy that buffer on its next growth; on E18d's 40 000
/// appends one such copy reads as 13 % of "tracing overhead".
const SPAN_LOG_RESERVE: usize = 2048;

impl Tracer {
    /// A tracer that traces every operation.
    pub fn new() -> Self {
        Self::default()
    }

    /// A tracer that mints a root for one in every `k` `maybe_trace`
    /// calls (`k == 0` or `1` ⇒ every call). Spans opened under an
    /// already-minted context are always recorded regardless of `k`.
    pub fn sampled(k: u64) -> Self {
        Tracer { sample_every: k, closed: Vec::with_capacity(SPAN_LOG_RESERVE), ..Self::default() }
    }

    /// Sampling root mint: returns a context for every k-th call.
    pub fn maybe_trace(&mut self, name: &'static str, at: SimTime) -> Option<TraceCtx> {
        self.minted_calls += 1;
        if self.sample_every > 1 && !(self.minted_calls - 1).is_multiple_of(self.sample_every) {
            return None;
        }
        Some(self.start_trace(name, at))
    }

    /// Unconditionally mint a new trace whose root span is open at `at`.
    pub fn start_trace(&mut self, name: &'static str, at: SimTime) -> TraceCtx {
        self.next_trace += 1;
        let trace = self.next_trace;
        self.next_span += 1;
        let span = self.next_span;
        self.open.insert(span, OpenSpan { trace, parent: 0, name, start: at });
        TraceCtx { trace, span }
    }

    /// Open a child span under `ctx`; returns its span id for `close`.
    pub fn child(&mut self, ctx: TraceCtx, name: &'static str, at: SimTime) -> u64 {
        self.next_span += 1;
        let span = self.next_span;
        self.open.insert(span, OpenSpan { trace: ctx.trace, parent: ctx.span, name, start: at });
        span
    }

    /// Close an open span at `at` with `status`. Unknown ids are
    /// ignored — a span may legitimately be closed by whichever of two
    /// racing paths (ack vs. expiry) gets there first.
    pub fn close(&mut self, span: u64, at: SimTime, status: &'static str) {
        if let Some(o) = self.open.remove(&span) {
            self.closed.push(SpanRecord {
                trace: o.trace,
                span,
                parent: o.parent,
                name: o.name,
                start: o.start,
                end: at.max(o.start),
                status,
            });
        }
    }

    /// Close an open span *at its own start time* — for crash paths
    /// where no meaningful end time exists (the state that would have
    /// closed it is gone). Keeps the no-leaked-spans invariant.
    pub fn abort(&mut self, span: u64, status: &'static str) {
        if let Some(o) = self.open.remove(&span) {
            self.closed.push(SpanRecord {
                trace: o.trace,
                span,
                parent: o.parent,
                name: o.name,
                start: o.start,
                end: o.start,
                status,
            });
        }
    }

    /// Record an instant event (zero-duration span) under `ctx`.
    pub fn event(&mut self, ctx: TraceCtx, name: &'static str, at: SimTime, status: &'static str) {
        self.next_span += 1;
        self.closed.push(SpanRecord {
            trace: ctx.trace,
            span: self.next_span,
            parent: ctx.span,
            name,
            start: at,
            end: at,
            status,
        });
    }

    /// Number of spans still open (must be 0 at sim end — leaked spans
    /// mean a stage lost track of an in-flight operation).
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Number of traces minted so far.
    pub fn trace_count(&self) -> u64 {
        self.next_trace
    }

    /// All completed spans, in completion order.
    pub fn records(&self) -> &[SpanRecord] {
        &self.closed
    }

    /// Completed spans of one trace, sorted `(start, span)` so parents
    /// precede children at equal times.
    pub fn trace_records(&self, trace: u64) -> Vec<SpanRecord> {
        let mut v: Vec<SpanRecord> =
            self.closed.iter().filter(|r| r.trace == trace).cloned().collect();
        v.sort_by_key(|r| (r.start, r.span));
        v
    }

    /// The canonical byte encoding of the span log: records sorted by
    /// `(trace, span)`, each as LE `trace, span, parent, start, end,
    /// name-hash, status-hash`. Two same-seed runs must produce
    /// byte-identical output (the CI determinism gate hashes this).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut recs: Vec<&SpanRecord> = self.closed.iter().collect();
        recs.sort_by_key(|r| (r.trace, r.span));
        let mut out = Vec::with_capacity(recs.len() * 56);
        for r in recs {
            out.extend_from_slice(&r.trace.to_le_bytes());
            out.extend_from_slice(&r.span.to_le_bytes());
            out.extend_from_slice(&r.parent.to_le_bytes());
            out.extend_from_slice(&r.start.as_micros().to_le_bytes());
            out.extend_from_slice(&r.end.as_micros().to_le_bytes());
            out.extend_from_slice(&fx_hash_one(&r.name).to_le_bytes());
            out.extend_from_slice(&fx_hash_one(&r.status).to_le_bytes());
        }
        out
    }

    /// Hash of [`Self::canonical_bytes`] — the determinism fingerprint.
    pub fn log_hash(&self) -> u64 {
        fx_hash_one(&self.canonical_bytes())
    }

    /// Render one trace as an indented tree, children under parents,
    /// siblings in `(start, span)` order. Purely sim-time data, so the
    /// output is deterministic and safe to embed in golden files.
    pub fn render_trace(&self, trace: u64) -> Vec<String> {
        let recs = self.trace_records(trace);
        let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
        for r in &recs {
            children.entry(r.parent).or_default().push(r);
        }
        let mut lines = Vec::new();
        fn walk(
            span: u64,
            depth: usize,
            children: &BTreeMap<u64, Vec<&SpanRecord>>,
            lines: &mut Vec<String>,
        ) {
            if let Some(kids) = children.get(&span) {
                for r in kids {
                    lines.push(format!(
                        "{}{} [{:.3}ms +{:.3}ms] {}",
                        "  ".repeat(depth),
                        r.name,
                        r.start.as_millis_f64(),
                        (r.end - r.start).as_millis_f64(),
                        r.status,
                    ));
                    walk(r.span, depth + 1, children, lines);
                }
            }
        }
        walk(0, 0, &children, &mut lines);
        lines
    }
}

/// A cloneable handle to one [`Tracer`], so the transport, the WAL, the
/// engine, and the bench driver all write into the same span log.
///
/// Sampling is decided *outside* the lock: the rate is cached at
/// construction and a shared countdown says how many calls remain
/// before the next minted root, so a sampled-out [`Self::maybe_trace`]
/// on a hot ingest path costs one load and one store — no locked
/// instruction, no division — and the lock is only taken for roots that
/// are actually minted.
#[derive(Debug, Clone, Default)]
pub struct SharedTracer {
    inner: Arc<Mutex<Tracer>>,
    /// Cached sampling rate (0/1 ⇒ trace every call).
    sample_every: u64,
    /// `maybe_trace` calls left to skip before the next minted root.
    skip: Arc<AtomicU64>,
}

impl SharedTracer {
    /// A shared tracer that traces every operation.
    pub fn new() -> Self {
        Self::default()
    }

    /// A shared tracer sampling one in every `k` root mints.
    pub fn sampled(k: u64) -> Self {
        SharedTracer {
            inner: Arc::new(Mutex::new(Tracer::sampled(k))),
            sample_every: k,
            skip: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Run `f` with the tracer locked.
    pub fn with<T>(&self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        f(&mut self.inner.lock())
    }

    /// See [`Tracer::maybe_trace`] — the same calls are sampled, and the
    /// sampled-out case never takes the lock. The countdown is a plain
    /// load and store, not a read-modify-write: every caller runs on its
    /// simulation's one thread, so the sequence is deterministic. (Two
    /// threads racing here could skip or mint one root too many; they
    /// could never corrupt the span log, which stays behind the lock.)
    #[inline]
    pub fn maybe_trace(&self, name: &'static str, at: SimTime) -> Option<TraceCtx> {
        // lint:allow(relaxed-ordering): sampled-out fast path must not synchronize; the sims are single-threaded so the count stays deterministic
        let (skip, order) = (&*self.skip, Ordering::Relaxed);
        match skip.load(order) {
            0 => skip.store(self.sample_every.saturating_sub(1), order),
            left => {
                skip.store(left - 1, order);
                return None;
            }
        }
        Some(self.start_trace(name, at))
    }

    /// See [`Tracer::start_trace`].
    pub fn start_trace(&self, name: &'static str, at: SimTime) -> TraceCtx {
        self.inner.lock().start_trace(name, at)
    }

    /// See [`Tracer::child`].
    pub fn child(&self, ctx: TraceCtx, name: &'static str, at: SimTime) -> u64 {
        self.inner.lock().child(ctx, name, at)
    }

    /// See [`Tracer::close`].
    pub fn close(&self, span: u64, at: SimTime, status: &'static str) {
        self.inner.lock().close(span, at, status)
    }

    /// See [`Tracer::abort`].
    pub fn abort(&self, span: u64, status: &'static str) {
        self.inner.lock().abort(span, status)
    }

    /// See [`Tracer::event`].
    pub fn event(&self, ctx: TraceCtx, name: &'static str, at: SimTime, status: &'static str) {
        self.inner.lock().event(ctx, name, at, status)
    }

    /// See [`Tracer::open_count`].
    pub fn open_count(&self) -> usize {
        self.inner.lock().open_count()
    }

    /// See [`Tracer::trace_count`].
    pub fn trace_count(&self) -> u64 {
        self.inner.lock().trace_count()
    }

    /// See [`Tracer::log_hash`].
    pub fn log_hash(&self) -> u64 {
        self.inner.lock().log_hash()
    }

    /// See [`Tracer::canonical_bytes`].
    pub fn canonical_bytes(&self) -> Vec<u8> {
        self.inner.lock().canonical_bytes()
    }

    /// Snapshot of all completed spans.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.inner.lock().records().to_vec()
    }

    /// See [`Tracer::trace_records`].
    pub fn trace_records(&self, trace: u64) -> Vec<SpanRecord> {
        self.inner.lock().trace_records(trace)
    }

    /// See [`Tracer::render_trace`].
    pub fn render_trace(&self, trace: u64) -> Vec<String> {
        self.inner.lock().render_trace(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn spans_nest_and_close() {
        let mut tr = Tracer::new();
        let ctx = tr.start_trace("e.root", t(0));
        let child = tr.child(ctx, "net.transport.send", t(1));
        let retry = tr.child(ctx.with_span(child), "net.transport.retry", t(5));
        tr.close(retry, t(7), "ok");
        tr.close(child, t(8), "acked");
        tr.close(ctx.span, t(10), "ok");
        assert_eq!(tr.open_count(), 0);
        let recs = tr.trace_records(ctx.trace);
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].name, "e.root");
        assert_eq!(recs[0].parent, 0);
        assert_eq!(recs[1].parent, ctx.span);
        assert_eq!(recs[2].parent, child);
        let tree = tr.render_trace(ctx.trace);
        assert_eq!(tree.len(), 3);
        assert!(tree[0].starts_with("e.root"));
        assert!(tree[1].starts_with("  net.transport.send"));
        assert!(tree[2].starts_with("    net.transport.retry"));
    }

    #[test]
    fn close_is_idempotent_and_abort_zero_duration() {
        let mut tr = Tracer::new();
        let ctx = tr.start_trace("r", t(3));
        tr.close(ctx.span, t(9), "ok");
        tr.close(ctx.span, t(99), "late"); // no-op
        assert_eq!(tr.records().len(), 1);
        assert_eq!(tr.records()[0].end, t(9));

        let ctx2 = tr.start_trace("r2", t(5));
        tr.abort(ctx2.span, "crashed");
        let r = &tr.trace_records(ctx2.trace)[0];
        assert_eq!(r.start, r.end);
        assert_eq!(r.status, "crashed");
        assert_eq!(tr.open_count(), 0);
    }

    #[test]
    fn close_never_ends_before_start() {
        let mut tr = Tracer::new();
        let ctx = tr.start_trace("r", t(10));
        tr.close(ctx.span, t(2), "ok"); // out-of-order close clamps
        assert_eq!(tr.records()[0].end, t(10));
    }

    #[test]
    fn sampling_mints_every_kth() {
        let mut tr = Tracer::sampled(4);
        let minted: Vec<bool> =
            (0..8).map(|i| tr.maybe_trace("in", t(i)).is_some()).collect();
        assert_eq!(minted, vec![true, false, false, false, true, false, false, false]);
        assert_eq!(tr.trace_count(), 2);
        // k=0 and k=1 trace everything.
        let mut all = Tracer::sampled(1);
        assert!(all.maybe_trace("in", t(0)).is_some());
        assert!(all.maybe_trace("in", t(1)).is_some());

        // The shared tracer's countdown mints on the same calls, across
        // clones, at every rate.
        for k in [0u64, 1, 2, 4, 64] {
            let (mut plain, shared) = (Tracer::sampled(k), SharedTracer::sampled(k));
            let clone = shared.clone();
            for i in 0..200 {
                let via = if i % 3 == 0 { &clone } else { &shared };
                let expect = plain.maybe_trace("in", t(i)).is_some();
                assert_eq!(via.maybe_trace("in", t(i)).is_some(), expect, "k={k} call {i}");
            }
            assert_eq!(shared.trace_count(), plain.trace_count(), "k={k}");
        }
    }

    #[test]
    fn events_are_instant_and_recorded() {
        let mut tr = Tracer::new();
        let ctx = tr.start_trace("r", t(0));
        tr.event(ctx, "net.transport.deliver", t(4), "duplicate");
        tr.close(ctx.span, t(5), "ok");
        let recs = tr.trace_records(ctx.trace);
        assert_eq!(recs.len(), 2);
        let ev = recs.iter().find(|r| r.name == "net.transport.deliver").unwrap();
        assert_eq!(ev.start, ev.end);
        assert_eq!(ev.parent, ctx.span);
    }

    #[test]
    fn log_hash_is_order_insensitive_but_content_sensitive() {
        let build = |close_first: bool| {
            let mut tr = Tracer::new();
            let a = tr.start_trace("a", t(0));
            let b = tr.start_trace("b", t(1));
            if close_first {
                tr.close(a.span, t(2), "ok");
                tr.close(b.span, t(3), "ok");
            } else {
                tr.close(b.span, t(3), "ok");
                tr.close(a.span, t(2), "ok");
            }
            tr.log_hash()
        };
        // Same spans, different completion order → same canonical hash.
        assert_eq!(build(true), build(false));

        let mut other = Tracer::new();
        let a = other.start_trace("a", t(0));
        other.close(a.span, t(2), "expired");
        assert_ne!(build(true), other.log_hash());
    }

    #[test]
    fn shared_tracer_is_one_log() {
        let st = SharedTracer::new();
        let st2 = st.clone();
        let ctx = st.start_trace("r", t(0));
        st2.close(ctx.span, t(1), "ok");
        assert_eq!(st.open_count(), 0);
        assert_eq!(st.records().len(), 1);
        assert_eq!(st2.records().len(), 1);
    }
}
