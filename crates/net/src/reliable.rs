//! Reliable (at-least-once) delivery over the lossy [`Network`].
//!
//! Nothing above `Network::transfer` could previously survive a lost
//! message, a partition, or a crashed peer — a gap the paper's own
//! deployment story (cellular uplinks §I, inter-DC WANs §IV-E1,
//! intermittently-connected clients §IV-C) cannot afford. This module
//! adds the classic reliable-delivery machinery as a *simulation-time*
//! state machine:
//!
//! * per-`(src, dst)` **sender sequence numbers** and a retransmission
//!   window (timeout → capped exponential backoff → bounded retries →
//!   give-up event the application can act on);
//! * **receiver-side dedup** so retransmissions deliver each sequence
//!   number to the application exactly once *per sender incarnation*;
//! * **acks** that travel back over the same lossy network (a lost ack
//!   causes a retransmission, which dedup absorbs);
//! * **crash epochs**: [`ReliableTransport::on_node_crash`] drops the
//!   node's sender/receiver state and bumps its incarnation, so a
//!   restarted sender's fresh sequence numbers are not mistaken for
//!   duplicates and stale in-flight traffic is discarded.
//!
//! Everything is driven by virtual time: the owner calls
//! [`ReliableTransport::poll`] whenever the clock reaches
//! [`ReliableTransport::next_wakeup`] (discrete-event worlds schedule a
//! pump event there). Backoff jitter is a pure function of
//! `(seed, src, dst, seq, attempt)` — no RNG state — so two runs with the
//! same seed produce identical retransmission schedules.

use crate::network::{Delivery, Network};
use mv_common::hash::FastMap;
use mv_common::id::NodeId;
use mv_common::metrics::Counters;
use mv_common::time::{SimDuration, SimTime};
use mv_obs::{SharedTracer, TraceCtx};
use rand::Rng;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// Wire size charged for an ack.
const ACK_BYTES: u64 = 16;

/// Timeout/retry policy for one transport.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retransmission timeout for the first attempt.
    pub initial_rto: SimDuration,
    /// Multiplier applied per retry (capped by `max_rto`).
    pub backoff: f64,
    /// Upper bound on the (pre-jitter) timeout.
    pub max_rto: SimDuration,
    /// Total transmission attempts before giving up (≥ 1).
    pub max_attempts: u32,
    /// Jitter as a fraction of the timeout, drawn deterministically in
    /// `[0, jitter_frac * rto)` per `(message, attempt)`.
    pub jitter_frac: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            initial_rto: SimDuration::from_millis(100),
            backoff: 2.0,
            max_rto: SimDuration::from_secs(2),
            max_attempts: 8,
            jitter_frac: 0.1,
        }
    }
}

impl RetryPolicy {
    /// The timeout armed after transmission attempt `attempt` (0-based),
    /// jittered deterministically by `key`.
    pub fn rto(&self, attempt: u32, key: u64) -> SimDuration {
        let factor = self.backoff.max(1.0).powi(attempt.min(30) as i32);
        let base = self.initial_rto.mul_f64(factor).min(self.max_rto);
        if self.jitter_frac <= 0.0 {
            return base;
        }
        base + base.mul_f64(self.jitter_frac * unit_f64(mix(key, attempt as u64)))
    }
}

/// SplitMix64-style finalizer (same family as `shard_of_key`): maps a key to
/// a well-mixed u64 with no state.
#[inline]
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map a u64 to `[0, 1)`.
#[inline]
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// What the transport reports back to the application from [`poll`].
///
/// [`poll`]: ReliableTransport::poll
#[derive(Debug, Clone, PartialEq)]
pub enum Event<P> {
    /// A payload reached `dst` for the first time (dedup already done).
    Delivered {
        /// Sending node.
        src: NodeId,
        /// Receiving node.
        dst: NodeId,
        /// Sender sequence number within the stream.
        seq: u64,
        /// Arrival (virtual) time.
        at: SimTime,
        /// The payload.
        payload: P,
        /// Causal context the message carried, for the application to
        /// continue the trace downstream.
        ctx: Option<TraceCtx>,
    },
    /// A message exhausted its retries without an ack. The payload is
    /// handed back so the application can retain/re-route it.
    Expired {
        /// Sending node.
        src: NodeId,
        /// Receiving node.
        dst: NodeId,
        /// Sender sequence number within the stream.
        seq: u64,
        /// Give-up (virtual) time.
        at: SimTime,
        /// The payload, returned to the sender's application layer.
        payload: P,
        /// Causal context the message carried, so the application's
        /// retain/re-route path stays on the same trace.
        ctx: Option<TraceCtx>,
    },
}

#[derive(Debug)]
struct InFlight<P> {
    payload: P,
    bytes: u64,
    /// Transmissions performed so far (≥ 1 once sent).
    attempts: u32,
    /// Causal context the payload carries (propagated on every retry).
    ctx: Option<TraceCtx>,
    /// Open `net.transport.send` span, closed at ack/expiry/crash.
    send_span: Option<u64>,
    /// Open span of the current transmission attempt.
    attempt_span: Option<u64>,
}

#[derive(Debug)]
struct SenderStream<P> {
    epoch: u32,
    next_seq: u64,
    window: BTreeMap<u64, InFlight<P>>,
}

// Hand-written so `P` needs no `Default` bound.
impl<P> Default for SenderStream<P> {
    fn default() -> Self {
        SenderStream { epoch: 0, next_seq: 0, window: BTreeMap::new() }
    }
}

#[derive(Debug, Default)]
struct ReceiverStream {
    epoch: u32,
    /// Everything below this was delivered (contiguous prefix).
    next_expected: u64,
    /// Delivered out-of-order seqs at/above `next_expected`.
    out_of_order: BTreeSet<u64>,
}

impl ReceiverStream {
    fn already_delivered(&self, seq: u64) -> bool {
        seq < self.next_expected || self.out_of_order.contains(&seq)
    }

    fn mark_delivered(&mut self, seq: u64) {
        self.out_of_order.insert(seq);
        while self.out_of_order.remove(&self.next_expected) {
            self.next_expected += 1;
        }
    }
}

#[derive(Debug, Clone)]
enum Wire<P> {
    Data { src: NodeId, dst: NodeId, seq: u64, epoch: u32, payload: P, ctx: Option<TraceCtx> },
    Ack { src: NodeId, dst: NodeId, seq: u64, epoch: u32 },
    RetryTimer { src: NodeId, dst: NodeId, seq: u64, epoch: u32 },
}

#[derive(Debug)]
struct Pending<P> {
    at: SimTime,
    tick: u64,
    wire: Wire<P>,
}

impl<P> PartialEq for Pending<P> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.tick) == (other.at, other.tick)
    }
}
impl<P> Eq for Pending<P> {}
impl<P> PartialOrd for Pending<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for Pending<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.tick).cmp(&(other.at, other.tick))
    }
}

/// The reliable transport: many concurrent `(src, dst)` streams over one
/// [`Network`]. See the module docs for the guarantees.
#[derive(Debug)]
pub struct ReliableTransport<P> {
    policy: RetryPolicy,
    /// Seed folded into every jitter draw.
    seed: u64,
    senders: FastMap<(NodeId, NodeId), SenderStream<P>>,
    receivers: FastMap<(NodeId, NodeId), ReceiverStream>,
    /// Current incarnation per node (bumped by crashes).
    epochs: FastMap<NodeId, u32>,
    queue: BinaryHeap<Reverse<Pending<P>>>,
    tick: u64,
    /// Span collector (off by default; see [`Self::set_tracer`]).
    tracer: Option<SharedTracer>,
    /// Delivery/retry accounting (`sent`, `retransmits`, `delivered`,
    /// `duplicates`, `expired`, …); `net.transport.*` in a registry.
    pub stats: Counters,
}

impl<P: Clone> ReliableTransport<P> {
    /// A transport with the given policy; `seed` pins the jitter stream.
    pub fn new(policy: RetryPolicy, seed: u64) -> Self {
        ReliableTransport {
            policy: RetryPolicy { max_attempts: policy.max_attempts.max(1), ..policy },
            seed,
            senders: FastMap::default(),
            receivers: FastMap::default(),
            epochs: FastMap::default(),
            queue: BinaryHeap::new(),
            tick: 0,
            tracer: None,
            stats: Counters::new(),
        }
    }

    /// Collect spans for traced messages into `tracer`. Messages sent
    /// via [`Self::send_traced`] with a context then get a
    /// `net.transport.send` span per message, an
    /// `attempt`/`retry` child per transmission, and deliver/duplicate
    /// events at the receiver.
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.tracer = Some(tracer);
    }

    /// The tracer, if one is attached.
    pub fn tracer(&self) -> Option<&SharedTracer> {
        self.tracer.as_ref()
    }

    /// The configured policy.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Messages awaiting an ack on the `src → dst` stream.
    pub fn in_flight(&self, src: NodeId, dst: NodeId) -> usize {
        self.senders.get(&(src, dst)).map_or(0, |s| s.window.len())
    }

    /// Earliest pending wire arrival or timer, if any. Drive the clock
    /// here and call [`poll`](Self::poll).
    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse(p)| p.at)
    }

    /// True when no wire traffic or timers remain.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    fn push(&mut self, at: SimTime, wire: Wire<P>) {
        let tick = self.tick;
        self.tick += 1;
        self.queue.push(Reverse(Pending { at, tick, wire }));
    }

    fn jitter_key(&self, src: NodeId, dst: NodeId, seq: u64) -> u64 {
        mix(mix(self.seed, src.raw()), mix(dst.raw(), seq))
    }

    /// Send `payload` (`bytes` on the wire) from `src` to `dst`. Returns
    /// the stream sequence number. The message is retried until acked,
    /// expired ([`Event::Expired`]) or the sender crashes.
    #[allow(clippy::too_many_arguments)]
    pub fn send<R: Rng + ?Sized>(
        &mut self,
        net: &mut Network,
        rng: &mut R,
        src: NodeId,
        dst: NodeId,
        payload: P,
        bytes: u64,
        now: SimTime,
    ) -> u64 {
        self.send_traced(net, rng, src, dst, payload, bytes, now, None)
    }

    /// [`Self::send`] carrying a causal context. With a tracer attached,
    /// opens a `net.transport.send` span (child of `ctx`) that stays
    /// open until the message is acked, expires, or dies with a crash,
    /// plus one `attempt`/`retry` child per transmission — so the span
    /// log shows exactly where a message's latency went.
    #[allow(clippy::too_many_arguments)]
    pub fn send_traced<R: Rng + ?Sized>(
        &mut self,
        net: &mut Network,
        rng: &mut R,
        src: NodeId,
        dst: NodeId,
        payload: P,
        bytes: u64,
        now: SimTime,
        ctx: Option<TraceCtx>,
    ) -> u64 {
        let epoch = self.epochs.get(&src).copied().unwrap_or(0);
        let (ctx, send_span, attempt_span) = match (&self.tracer, ctx) {
            (Some(tr), Some(parent)) => {
                let send_span = tr.child(parent, "net.transport.send", now);
                let sub = parent.with_span(send_span);
                let attempt = tr.child(sub, "net.transport.attempt", now);
                // Downstream (receiver side) hangs off the send span.
                (Some(sub), Some(send_span), Some(attempt))
            }
            (_, ctx) => (ctx, None, None),
        };
        let stream = self.senders.entry((src, dst)).or_default();
        stream.epoch = epoch;
        let seq = stream.next_seq;
        stream.next_seq += 1;
        stream.window.insert(
            seq,
            InFlight { payload: payload.clone(), bytes, attempts: 1, ctx, send_span, attempt_span },
        );
        self.stats.incr("sent");
        self.transmit(net, rng, src, dst, seq, epoch, payload, bytes, now, ctx);
        let rto = self.policy.rto(0, self.jitter_key(src, dst, seq));
        self.push(now + rto, Wire::RetryTimer { src, dst, seq, epoch });
        seq
    }

    #[allow(clippy::too_many_arguments)]
    fn transmit<R: Rng + ?Sized>(
        &mut self,
        net: &mut Network,
        rng: &mut R,
        src: NodeId,
        dst: NodeId,
        seq: u64,
        epoch: u32,
        payload: P,
        bytes: u64,
        now: SimTime,
        ctx: Option<TraceCtx>,
    ) {
        self.stats.incr("transmissions");
        match net.transfer(src, dst, bytes, now, rng) {
            Ok(Delivery::At(t)) => {
                self.push(t, Wire::Data { src, dst, seq, epoch, payload, ctx });
            }
            Ok(Delivery::Lost) => self.stats.incr("data_lost"),
            Err(_) => self.stats.incr("data_unreachable"),
        }
    }

    /// Process every arrival and timer due at or before `now`, in
    /// deterministic `(time, enqueue order)` order. Returns the
    /// application-visible events, oldest first.
    pub fn poll<R: Rng + ?Sized>(
        &mut self,
        net: &mut Network,
        rng: &mut R,
        now: SimTime,
    ) -> Vec<Event<P>> {
        let mut events = Vec::new();
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.at > now {
                break;
            }
            let Some(Reverse(Pending { at, wire, .. })) = self.queue.pop() else {
                break; // unreachable: the peek above saw a head
            };
            match wire {
                Wire::Data { src, dst, seq, epoch, payload, ctx } => {
                    self.on_data(net, rng, src, dst, seq, epoch, payload, at, ctx, &mut events);
                }
                Wire::Ack { src, dst, seq, epoch } => {
                    self.on_ack(src, dst, seq, epoch, at);
                }
                Wire::RetryTimer { src, dst, seq, epoch } => {
                    self.on_timer(net, rng, src, dst, seq, epoch, at, &mut events);
                }
            }
        }
        events
    }

    #[allow(clippy::too_many_arguments)]
    fn on_data<R: Rng + ?Sized>(
        &mut self,
        net: &mut Network,
        rng: &mut R,
        src: NodeId,
        dst: NodeId,
        seq: u64,
        epoch: u32,
        payload: P,
        at: SimTime,
        ctx: Option<TraceCtx>,
        events: &mut Vec<Event<P>>,
    ) {
        if !net.is_up(dst) {
            self.stats.incr("dropped_dst_down");
            return;
        }
        let stream = self.receivers.entry((src, dst)).or_default();
        if epoch < stream.epoch {
            // Traffic from a previous incarnation of the sender.
            self.stats.incr("stale_epoch");
            return;
        }
        if epoch > stream.epoch {
            // The sender restarted: its sequence space starts over.
            *stream = ReceiverStream { epoch, ..ReceiverStream::default() };
        }
        let duplicate = stream.already_delivered(seq);
        if duplicate {
            self.stats.incr("duplicates");
            if let (Some(tr), Some(c)) = (&self.tracer, ctx) {
                tr.event(c, "net.transport.deliver", at, "duplicate");
            }
        } else {
            stream.mark_delivered(seq);
            self.stats.incr("delivered");
            if let (Some(tr), Some(c)) = (&self.tracer, ctx) {
                tr.event(c, "net.transport.deliver", at, "ok");
            }
            events.push(Event::Delivered { src, dst, seq, at, payload, ctx });
        }
        // Always (re-)ack — the sender may have missed the first ack.
        self.stats.incr("acks_sent");
        match net.transfer(dst, src, ACK_BYTES, at, rng) {
            Ok(Delivery::At(t)) => self.push(t, Wire::Ack { src, dst, seq, epoch }),
            Ok(Delivery::Lost) => self.stats.incr("ack_lost"),
            Err(_) => self.stats.incr("ack_unreachable"),
        }
    }

    fn on_ack(&mut self, src: NodeId, dst: NodeId, seq: u64, epoch: u32, at: SimTime) {
        let Some(stream) = self.senders.get_mut(&(src, dst)) else {
            return; // sender crashed since
        };
        if stream.epoch != epoch {
            self.stats.incr("stale_epoch");
            return;
        }
        if let Some(inflight) = stream.window.remove(&seq) {
            self.stats.incr("acked");
            if let Some(tr) = &self.tracer {
                if let Some(span) = inflight.attempt_span {
                    tr.close(span, at, "acked");
                }
                if let Some(span) = inflight.send_span {
                    tr.close(span, at, "acked");
                }
            }
        } else {
            self.stats.incr("dup_acks");
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_timer<R: Rng + ?Sized>(
        &mut self,
        net: &mut Network,
        rng: &mut R,
        src: NodeId,
        dst: NodeId,
        seq: u64,
        epoch: u32,
        at: SimTime,
        events: &mut Vec<Event<P>>,
    ) {
        let Some(stream) = self.senders.get_mut(&(src, dst)) else {
            return; // sender crashed; window gone
        };
        if stream.epoch != epoch {
            return; // a previous incarnation's timer
        }
        let Some(attempts) = stream.window.get(&seq).map(|w| w.attempts) else {
            return; // acked already
        };
        if attempts >= self.policy.max_attempts {
            let Some(inflight) = stream.window.remove(&seq) else {
                return; // unreachable: presence checked just above
            };
            self.stats.incr("expired");
            if let Some(tr) = &self.tracer {
                if let Some(span) = inflight.attempt_span {
                    tr.close(span, at, "timeout");
                }
                if let Some(span) = inflight.send_span {
                    tr.close(span, at, "expired");
                }
            }
            events.push(Event::Expired {
                src,
                dst,
                seq,
                at,
                payload: inflight.payload,
                ctx: inflight.ctx,
            });
            return;
        }
        let Some(entry) = stream.window.get_mut(&seq) else {
            return; // unreachable: presence checked just above
        };
        entry.attempts += 1;
        let (payload, bytes, ctx) = (entry.payload.clone(), entry.bytes, entry.ctx);
        // The previous attempt timed out; its successor is a `retry`
        // child of the same send span.
        if let Some(tr) = &self.tracer {
            if let Some(span) = entry.attempt_span.take() {
                tr.close(span, at, "timeout");
            }
            if let (Some(c), Some(send_span)) = (ctx, entry.send_span) {
                entry.attempt_span =
                    Some(tr.child(c.with_span(send_span), "net.transport.retry", at));
            }
        }
        self.stats.incr("retransmits");
        self.transmit(net, rng, src, dst, seq, epoch, payload, bytes, at, ctx);
        let rto = self.policy.rto(attempts, self.jitter_key(src, dst, seq));
        self.push(at + rto, Wire::RetryTimer { src, dst, seq, epoch });
    }

    /// The node crashed: its sender windows and receiver dedup state are
    /// volatile and lost, and its incarnation is bumped so post-restart
    /// streams restart cleanly (fresh sequence space, stale in-flight
    /// traffic discarded). Call this from `FaultTarget::on_node_crash`.
    pub fn on_node_crash(&mut self, node: NodeId) {
        *self.epochs.entry(node).or_insert(0) += 1;
        let tracer = self.tracer.clone();
        self.senders.retain(|(src, _), stream| {
            if *src != node {
                return true;
            }
            // The window dies with the node: abort its open spans so
            // nothing leaks (no meaningful end time exists — the state
            // that would have closed them is gone).
            if let Some(tr) = &tracer {
                for inflight in stream.window.values_mut() {
                    if let Some(span) = inflight.attempt_span.take() {
                        tr.abort(span, "crashed");
                    }
                    if let Some(span) = inflight.send_span.take() {
                        tr.abort(span, "crashed");
                    }
                }
            }
            false
        });
        self.receivers.retain(|(_, dst), _| *dst != node);
        self.stats.incr("endpoint_resets");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use mv_common::seeded_rng;

    fn pair(loss: f64) -> (Network, NodeId, NodeId) {
        let mut net = Network::new();
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        net.add_node(a, "n");
        net.add_node(b, "n");
        net.add_link_bidi(a, b, LinkSpec::new(SimDuration::from_millis(5), 1e9).with_loss(loss));
        net.set_group(b, 1).unwrap();
        (net, a, b)
    }

    fn drain<P: Clone>(
        t: &mut ReliableTransport<P>,
        net: &mut Network,
        rng: &mut rand::rngs::StdRng,
    ) -> Vec<Event<P>> {
        let mut all = Vec::new();
        while let Some(at) = t.next_wakeup() {
            all.extend(t.poll(net, rng, at));
        }
        all
    }

    #[test]
    fn lossless_delivery_is_exactly_once_and_acked() {
        let (mut net, a, b) = pair(0.0);
        let mut t = ReliableTransport::new(RetryPolicy::default(), 1);
        let mut rng = seeded_rng(1);
        for i in 0..5u64 {
            let seq = t.send(&mut net, &mut rng, a, b, i, 100, SimTime::ZERO);
            assert_eq!(seq, i);
        }
        let events = drain(&mut t, &mut net, &mut rng);
        let delivered: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                Event::Delivered { payload, .. } => Some(*payload),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![0, 1, 2, 3, 4]);
        assert_eq!(t.stats.get("delivered"), 5);
        assert_eq!(t.stats.get("acked"), 5);
        assert_eq!(t.stats.get("retransmits"), 0);
        assert_eq!(t.in_flight(a, b), 0);
        assert!(t.is_idle());
    }

    #[test]
    fn loss_is_survived_by_retransmission_without_duplicate_delivery() {
        let (mut net, a, b) = pair(0.4);
        let mut t = ReliableTransport::new(
            RetryPolicy { max_attempts: 30, ..RetryPolicy::default() },
            7,
        );
        let mut rng = seeded_rng(7);
        for i in 0..50u64 {
            t.send(&mut net, &mut rng, a, b, i, 64, SimTime::ZERO);
        }
        let events = drain(&mut t, &mut net, &mut rng);
        let mut delivered: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                Event::Delivered { payload, .. } => Some(*payload),
                _ => None,
            })
            .collect();
        delivered.sort_unstable();
        assert_eq!(delivered, (0..50).collect::<Vec<_>>(), "each payload exactly once");
        assert!(t.stats.get("retransmits") > 0, "40% loss must retransmit");
        assert_eq!(t.stats.get("expired"), 0);
        // Lost data and lost acks were both exercised at this loss rate.
        assert!(t.stats.get("data_lost") + t.stats.get("ack_lost") > 0);
    }

    #[test]
    fn unreachable_peer_expires_after_bounded_attempts() {
        let (mut net, a, b) = pair(0.0);
        net.sever(0, 1);
        let policy = RetryPolicy { max_attempts: 3, ..RetryPolicy::default() };
        let mut t = ReliableTransport::new(policy, 1);
        let mut rng = seeded_rng(1);
        t.send(&mut net, &mut rng, a, b, 42u64, 10, SimTime::ZERO);
        let events = drain(&mut t, &mut net, &mut rng);
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], Event::Expired { payload: 42, .. }));
        assert_eq!(t.stats.get("transmissions"), 3);
        assert_eq!(t.stats.get("data_unreachable"), 3);
        assert_eq!(t.in_flight(a, b), 0);
    }

    #[test]
    fn partition_heal_mid_retry_recovers_the_message() {
        let (mut net, a, b) = pair(0.0);
        net.sever(0, 1);
        let mut t = ReliableTransport::new(RetryPolicy::default(), 3);
        let mut rng = seeded_rng(3);
        t.send(&mut net, &mut rng, a, b, 9u64, 10, SimTime::ZERO);
        // Let two retries fail, then heal and drain.
        for _ in 0..2 {
            let at = t.next_wakeup().unwrap();
            t.poll(&mut net, &mut rng, at);
        }
        net.heal(0, 1);
        let events = drain(&mut t, &mut net, &mut rng);
        assert!(matches!(events[0], Event::Delivered { payload: 9, .. }));
        assert_eq!(t.stats.get("expired"), 0);
    }

    #[test]
    fn backoff_grows_and_caps_deterministically() {
        let p = RetryPolicy {
            initial_rto: SimDuration::from_millis(100),
            backoff: 2.0,
            max_rto: SimDuration::from_millis(500),
            max_attempts: 8,
            jitter_frac: 0.0,
        };
        assert_eq!(p.rto(0, 1), SimDuration::from_millis(100));
        assert_eq!(p.rto(1, 1), SimDuration::from_millis(200));
        assert_eq!(p.rto(2, 1), SimDuration::from_millis(400));
        assert_eq!(p.rto(3, 1), SimDuration::from_millis(500), "capped");
        assert_eq!(p.rto(30, 1), SimDuration::from_millis(500));
        // Jitter is deterministic per (key, attempt) and bounded.
        let pj = RetryPolicy { jitter_frac: 0.5, ..p };
        for attempt in 0..5 {
            let a = pj.rto(attempt, 99);
            let bexp = p.rto(attempt, 99);
            assert_eq!(a, pj.rto(attempt, 99));
            assert!(a >= bexp && a <= bexp + bexp.mul_f64(0.5));
        }
        assert_ne!(pj.rto(0, 1), pj.rto(0, 2), "different keys, different jitter");
    }

    #[test]
    fn receiver_crash_loses_dedup_state_but_epochs_keep_streams_clean() {
        let (mut net, a, b) = pair(0.0);
        let mut t = ReliableTransport::new(RetryPolicy::default(), 5);
        let mut rng = seeded_rng(5);
        t.send(&mut net, &mut rng, a, b, 1u64, 10, SimTime::ZERO);
        drain(&mut t, &mut net, &mut rng);
        assert_eq!(t.stats.get("delivered"), 1);

        // Sender crashes: its stream restarts at seq 0 under a new epoch;
        // the receiver must treat that as fresh, not as a duplicate.
        net.crash_node(a).unwrap();
        t.on_node_crash(a);
        net.restart_node(a).unwrap();
        t.send(&mut net, &mut rng, a, b, 2u64, 10, SimTime::from_secs(1));
        let events = drain(&mut t, &mut net, &mut rng);
        assert!(
            matches!(events[0], Event::Delivered { payload: 2, seq: 0, .. }),
            "fresh epoch restarts the sequence space: {events:?}"
        );
        assert_eq!(t.stats.get("duplicates"), 0);
    }

    #[test]
    fn traced_send_closes_spans_on_ack_and_crash() {
        use mv_obs::SharedTracer;
        let (mut net, a, b) = pair(0.0);
        let mut t = ReliableTransport::new(RetryPolicy::default(), 1);
        let tracer = SharedTracer::new();
        t.set_tracer(tracer.clone());
        let mut rng = seeded_rng(1);

        // Acked message: send + attempt spans close with "acked", and the
        // receiver logs a deliver event carrying the downstream context.
        let root = tracer.start_trace("test.op", SimTime::ZERO);
        t.send_traced(&mut net, &mut rng, a, b, 1u64, 64, SimTime::ZERO, Some(root));
        let events = drain(&mut t, &mut net, &mut rng);
        assert!(matches!(
            events[0],
            Event::Delivered { payload: 1, ctx: Some(c), .. } if c.trace == root.trace
        ));
        tracer.close(root.span, SimTime::from_millis(20), "ok");
        assert_eq!(tracer.open_count(), 0, "ack path must close every span");
        let names: Vec<&str> = tracer.records().iter().map(|r| r.name).collect();
        assert!(names.contains(&"net.transport.send"));
        assert!(names.contains(&"net.transport.attempt"));
        assert!(names.contains(&"net.transport.deliver"));

        // Crashed sender: the window dies, but its spans are aborted —
        // never leaked.
        let root2 = tracer.start_trace("test.op2", SimTime::from_secs(1));
        net.sever(0, 1); // keep it in flight
        t.send_traced(&mut net, &mut rng, a, b, 2u64, 64, SimTime::from_secs(1), Some(root2));
        assert!(tracer.open_count() > 1);
        t.on_node_crash(a);
        tracer.close(root2.span, SimTime::from_secs(1), "crashed");
        assert_eq!(tracer.open_count(), 0, "crash path must abort every span");
        let crashed = tracer
            .records()
            .iter()
            .filter(|r| r.trace == root2.trace && r.status == "crashed")
            .count();
        assert!(crashed >= 2, "send + attempt aborted: {crashed}");

        // Untraced sends on a traced transport stay span-free.
        net.heal(0, 1);
        t.send(&mut net, &mut rng, a, b, 3u64, 64, SimTime::from_secs(2));
        drain(&mut t, &mut net, &mut rng);
        assert_eq!(tracer.open_count(), 0);
    }

    #[test]
    fn two_runs_same_seed_are_identical() {
        let run = || {
            let (mut net, a, b) = pair(0.25);
            let mut t = ReliableTransport::new(RetryPolicy::default(), 21);
            let mut rng = seeded_rng(21);
            for i in 0..20u64 {
                t.send(&mut net, &mut rng, a, b, i, 128, SimTime::from_millis(i));
            }
            let log: Vec<String> =
                drain(&mut t, &mut net, &mut rng).iter().map(|e| format!("{e:?}")).collect();
            (log, format!("{:?}", t.stats))
        };
        assert_eq!(run(), run());
    }
}
