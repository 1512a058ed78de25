//! Declarative SLOs evaluated by multi-window burn-rate rules, plus
//! the [`HealthMonitor`] that glues windows, SLOs, and the flight
//! recorder into one per-tick pump.
//!
//! An [`SloSpec`] names an [`Objective`] — a latency objective over a
//! histogram, an availability/error-ratio objective over a counter
//! pair, or a staleness/divergence objective over a gauge — plus an
//! error *budget* (the tolerable bad fraction). Each tick the engine
//! computes the observed bad fraction over a **fast** and a **slow**
//! window and divides by the budget to get a *burn rate* (1.0 = burning
//! exactly at budget). An alert fires when **both** windows burn at or
//! above `burn_fire` — the SRE multi-window rule: the slow window
//! proves it is not a blip, the fast window proves it is still
//! happening — and clears when the fast window's burn drops below
//! `burn_clear` (hysteresis).
//!
//! Determinism: burn rates are IEEE divisions of windowed integers on
//! the sim clock, so the alert event log is seed-reproducible;
//! [`SloEngine::canonical_log`] renders it with fixed formatting and
//! E22 gates its byte-identity across same-seed runs. Evaluation is
//! also order-independent across shard-merged registries for counter
//! and histogram objectives (windowed sums commute); gauge objectives
//! inherit the registry's latest-wins gauge merge and are
//! order-sensitive by design.
//!
//! This file is in the `panic-path` lint scope: no unwraps, no `[]`
//! indexing.

use crate::recorder::{FlightRecorder, TickEvidence};
use crate::registry::{CounterId, GaugeId, Registry};
use crate::window::{MetricWindows, WindowHisto};
use mv_common::hash::fx_hash_one;
use mv_common::time::SimTime;
use std::fmt::Write as _;

/// What an SLO watches, and what fraction of badness its budget
/// tolerates.
#[derive(Debug, Clone)]
// lint:allow(dead-pub): the type of `SloSpec::objective`, which other crates set
pub enum Objective {
    /// Fraction of `histo` samples at or above `threshold` must stay
    /// below `budget`. The threshold is bucketised by the log-scaled
    /// histogram — pick power-of-two thresholds for exact boundaries.
    Latency { histo: String, threshold: f64, budget: f64 },
    /// `errors / total` (windowed counter deltas) must stay below
    /// `budget`.
    ErrorRatio { errors: String, total: String, budget: f64 },
    /// Fraction of ticks where `gauge` exceeds `max` must stay below
    /// `budget`.
    Staleness { gauge: String, max: f64, budget: f64 },
}

/// One declarative SLO: an objective plus burn-rate windows and
/// thresholds.
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// Canonical slug, e.g. `region.availability`.
    pub name: String,
    /// What is measured.
    pub objective: Objective,
    /// Fast window in ticks (detects "still happening").
    pub fast_window: usize,
    /// Slow window in ticks (proves "not a blip").
    pub slow_window: usize,
    /// Burn rate at or above which (on **both** windows) the alert
    /// fires.
    pub burn_fire: f64,
    /// Fast-window burn rate below which an active alert clears.
    pub burn_clear: f64,
    /// Minimum event count in a window before its burn is trusted
    /// (avoids firing off a handful of samples).
    pub min_events: u64,
}

impl SloSpec {
    fn with_defaults(name: &str, objective: Objective) -> Self {
        SloSpec {
            name: name.to_string(),
            objective,
            fast_window: 64,
            slow_window: 256,
            burn_fire: 2.0,
            burn_clear: 1.0,
            min_events: 8,
        }
    }

    /// Latency objective: fraction of `histo` samples ≥ `threshold`
    /// stays below `budget`.
    pub fn latency(name: &str, histo: &str, threshold: f64, budget: f64) -> Self {
        Self::with_defaults(
            name,
            Objective::Latency { histo: histo.to_string(), threshold, budget },
        )
    }

    /// Availability objective: `errors / total` stays below `budget`.
    pub fn availability(name: &str, errors: &str, total: &str, budget: f64) -> Self {
        Self::with_defaults(
            name,
            Objective::ErrorRatio { errors: errors.to_string(), total: total.to_string(), budget },
        )
    }

    /// Staleness/divergence objective: fraction of ticks with `gauge >
    /// max` stays below `budget`.
    pub fn staleness(name: &str, gauge: &str, max: f64, budget: f64) -> Self {
        Self::with_defaults(name, Objective::Staleness { gauge: gauge.to_string(), max, budget })
    }

    /// Override the fast/slow windows (ticks).
    pub fn windows(mut self, fast: usize, slow: usize) -> Self {
        self.fast_window = fast.max(1);
        self.slow_window = slow.max(self.fast_window);
        self
    }

    /// Override the fire/clear burn thresholds.
    pub fn burn(mut self, fire: f64, clear: f64) -> Self {
        self.burn_fire = fire;
        self.burn_clear = clear;
        self
    }

    /// Override the minimum trusted event count.
    pub fn min_events(mut self, n: u64) -> Self {
        self.min_events = n;
        self
    }
}

/// Fire or clear.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// Both windows burning at or above `burn_fire`.
    Fire,
    /// Fast window dropped below `burn_clear`.
    Clear,
}

impl AlertKind {
    /// Canonical lowercase tag.
    pub fn as_str(&self) -> &'static str {
        match self {
            AlertKind::Fire => "fire",
            AlertKind::Clear => "clear",
        }
    }
}

/// One entry in the canonical alert event log.
#[derive(Debug, Clone)]
// lint:allow(dead-pub): returned by `HealthMonitor::alert_log`, which other crates call
pub struct AlertEvent {
    /// Log sequence number (0-based).
    pub seq: u64,
    /// Sim time of the evaluation tick.
    pub at: SimTime,
    /// The SLO's name.
    pub slo: String,
    /// Fire or clear.
    pub kind: AlertKind,
    /// Burn rate over the fast window at this tick.
    pub burn_fast: f64,
    /// Burn rate over the slow window at this tick.
    pub burn_slow: f64,
    /// Bad/total evidence behind `burn_fast`.
    pub fast_bad: u64,
    /// Total events in the fast window.
    pub fast_total: u64,
    /// Bad/total evidence behind `burn_slow`.
    pub slow_bad: u64,
    /// Total events in the slow window.
    pub slow_total: u64,
}

impl AlertEvent {
    /// Append the canonical one-line rendering (fixed `{:.3}` burn
    /// formatting — byte-stable across same-seed runs).
    pub fn render_into(&self, out: &mut String) {
        let _ = write!(
            out,
            "seq={} at_us={} slo={} kind={} burn_fast={:.3} burn_slow={:.3} fast={}/{} slow={}/{}",
            self.seq,
            self.at.as_micros(),
            self.slo,
            self.kind.as_str(),
            self.burn_fast,
            self.burn_slow,
            self.fast_bad,
            self.fast_total,
            self.slow_bad,
            self.slow_total,
        );
    }

    /// Allocating form of [`Self::render_into`].
    pub(crate) fn canonical_line(&self) -> String {
        let mut s = String::new();
        self.render_into(&mut s);
        s
    }
}

/// Windowed evidence for one (spec, window) pair.
#[derive(Debug, Clone, Copy, Default)]
struct WindowEval {
    bad: u64,
    total: u64,
    burn: f64,
}

/// The burn-rate evaluator: armed specs, per-spec active flags, and
/// the append-only alert event log.
#[derive(Debug, Default)]
pub struct SloEngine {
    specs: Vec<SloSpec>,
    active: Vec<bool>,
    events: Vec<AlertEvent>,
    fired_total: u64,
    cleared_total: u64,
    scratch: WindowHisto,
}

impl SloEngine {
    /// An engine with no specs armed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm one SLO. The window ring evaluating it must be at least
    /// `slow_window` ticks long.
    pub fn arm(&mut self, spec: SloSpec) {
        self.specs.push(spec);
        self.active.push(false);
    }

    /// The armed specs.
    pub fn specs(&self) -> &[SloSpec] {
        &self.specs
    }

    /// Number of currently-firing alerts.
    pub(crate) fn active_count(&self) -> usize {
        self.active.iter().filter(|a| **a).count()
    }

    /// True when the named SLO is currently firing.
    pub(crate) fn is_active(&self, name: &str) -> bool {
        self.specs
            .iter()
            .zip(self.active.iter())
            .any(|(s, &a)| a && s.name == name)
    }

    /// Total fire events so far.
    pub fn fired_total(&self) -> u64 {
        self.fired_total
    }

    /// Total clear events so far.
    pub fn cleared_total(&self) -> u64 {
        self.cleared_total
    }

    /// The full alert event log, in emission order.
    pub fn events(&self) -> &[AlertEvent] {
        &self.events
    }

    /// Evaluate every armed spec against `w` at sim time `now`,
    /// appending fire/clear events. Returns how many events this tick
    /// produced (they are the log's tail).
    pub fn evaluate(&mut self, now: SimTime, w: &MetricWindows) -> usize {
        let before = self.events.len();
        for (i, spec) in self.specs.iter().enumerate() {
            let fast = eval_window(spec, w, spec.fast_window, &mut self.scratch);
            let slow = eval_window(spec, w, spec.slow_window, &mut self.scratch);
            let was_active = self.active.get(i).copied().unwrap_or(false);
            let next = if was_active {
                fast.burn >= spec.burn_clear
            } else {
                fast.burn >= spec.burn_fire && slow.burn >= spec.burn_fire
            };
            if next != was_active {
                let kind = if next { AlertKind::Fire } else { AlertKind::Clear };
                if next {
                    self.fired_total += 1;
                } else {
                    self.cleared_total += 1;
                }
                self.events.push(AlertEvent {
                    seq: self.events.len() as u64,
                    at: now,
                    slo: spec.name.clone(),
                    kind,
                    burn_fast: fast.burn,
                    burn_slow: slow.burn,
                    fast_bad: fast.bad,
                    fast_total: fast.total,
                    slow_bad: slow.bad,
                    slow_total: slow.total,
                });
                if let Some(a) = self.active.get_mut(i) {
                    *a = next;
                }
            }
        }
        self.events.len() - before
    }

    /// The canonical alert log: one [`AlertEvent::render_into`] line
    /// per event. Byte-identical across same-seed runs (E22's gate).
    pub fn canonical_log(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            e.render_into(&mut out);
            out.push('\n');
        }
        out
    }

    /// Fingerprint of [`Self::canonical_log`].
    pub fn log_hash(&self) -> u64 {
        fx_hash_one(&self.canonical_log())
    }
}

/// Burn over one window: bad fraction ÷ budget, zero until
/// `min_events` events exist.
fn eval_window(spec: &SloSpec, w: &MetricWindows, k: usize, scratch: &mut WindowHisto) -> WindowEval {
    let (bad, total, budget) = match &spec.objective {
        Objective::Latency { histo, threshold, budget } => {
            w.histo_window_into(histo, k, scratch);
            (scratch.at_or_above(*threshold), scratch.count(), *budget)
        }
        Objective::ErrorRatio { errors, total, budget } => {
            (w.counter_delta(errors, k), w.counter_delta(total, k), *budget)
        }
        Objective::Staleness { gauge, max, budget } => {
            (w.gauge_ticks_above(gauge, *max, k), w.window_ticks(k), *budget)
        }
    };
    if total < spec.min_events.max(1) || budget <= 0.0 {
        return WindowEval { bad, total, burn: 0.0 };
    }
    let frac = bad as f64 / total as f64;
    WindowEval { bad, total, burn: frac / budget }
}

/// The per-tick health pump: rolls a [`MetricWindows`] over the
/// caller's registry and its own `obs.slo.*` stats, evaluates the
/// [`SloEngine`], publishes the stats, feeds the [`FlightRecorder`], and
/// dumps a debug bundle on every alert fire.
#[derive(Debug)]
pub struct HealthMonitor {
    /// `obs.slo.*`: the monitor's own counters and gauges.
    registry: Registry,
    /// The sliding windows (public: probes and tests may query).
    pub windows: MetricWindows,
    /// The burn-rate engine.
    pub engine: SloEngine,
    /// The flight recorder.
    pub recorder: FlightRecorder,
    pending_events: Vec<String>,
    fired_id: CounterId,
    cleared_id: CounterId,
    active_id: GaugeId,
    armed_id: GaugeId,
    published_fired: u64,
    published_cleared: u64,
}

impl HealthMonitor {
    /// A monitor with a `window_len`-tick ring and a
    /// `recorder_ticks`-tick flight recorder.
    pub fn new(window_len: usize, recorder_ticks: usize) -> Self {
        let mut registry = Registry::new();
        let fired_id = registry.counter("obs.slo.fired");
        let cleared_id = registry.counter("obs.slo.cleared");
        let active_id = registry.gauge("obs.slo.active");
        let armed_id = registry.gauge("obs.slo.armed");
        HealthMonitor {
            registry,
            windows: MetricWindows::new(window_len),
            engine: SloEngine::new(),
            recorder: FlightRecorder::new(recorder_ticks),
            pending_events: Vec::new(),
            fired_id,
            cleared_id,
            active_id,
            armed_id,
            published_fired: 0,
            published_cleared: 0,
        }
    }

    /// The monitor's own `obs.slo.*` stats.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Arm one SLO.
    pub fn arm(&mut self, spec: SloSpec) {
        self.engine.arm(spec);
    }

    /// Feed one component event-log line (raft leader change, crash
    /// epoch, recovery summary) into the next tick's evidence.
    pub fn note_event(&mut self, line: String) {
        self.pending_events.push(line);
    }

    /// Manual dump trigger for invariant trips and crash-recovery
    /// paths.
    pub fn dump(&mut self, reason: &str, now: SimTime) -> bool {
        self.recorder.dump(reason, now.as_micros())
    }

    /// One health tick: roll the windows over `watched` and the
    /// monitor's own stats, evaluate, publish, record. Returns the number
    /// of alert events this tick produced.
    pub fn tick(&mut self, now: SimTime, watched: &Registry) -> usize {
        let mut all = watched.clone();
        all.merge(&self.registry);
        self.windows.roll(&all);
        let new_events = self.engine.evaluate(now, &self.windows);

        // Publish obs.slo.*: the next roll sees them beside what the
        // monitor watches.
        let fired = self.engine.fired_total();
        let cleared = self.engine.cleared_total();
        let active = self.engine.active_count() as f64;
        let armed = self.engine.specs().len() as f64;
        let (d_fired, d_cleared) = (
            fired.saturating_sub(self.published_fired),
            cleared.saturating_sub(self.published_cleared),
        );
        self.published_fired = fired;
        self.published_cleared = cleared;
        self.registry.add(self.fired_id, d_fired);
        self.registry.add(self.cleared_id, d_cleared);
        self.registry.set_gauge(self.active_id, active);
        self.registry.set_gauge(self.armed_id, armed);

        // Evidence for the flight recorder.
        let mut ev = TickEvidence::at(now.as_micros());
        self.windows.for_each_last_counter_delta(|n, d| ev.counters.push((n.to_string(), d)));
        self.windows.for_each_gauge(|n, v| ev.gauges.push((n.to_string(), v)));
        ev.events.append(&mut self.pending_events);
        let tail = self.engine.events().len().saturating_sub(new_events);
        let mut fire_reasons: Vec<String> = Vec::new();
        for e in self.engine.events().iter().skip(tail) {
            ev.alerts.push(e.canonical_line());
            if e.kind == AlertKind::Fire {
                fire_reasons.push(format!("slo-fire:{}", e.slo));
            }
        }
        self.recorder.push(ev);
        for reason in fire_reasons {
            self.recorder.dump(&reason, now.as_micros());
        }
        new_events
    }

    /// See [`SloEngine::events`].
    pub fn alert_log(&self) -> &[AlertEvent] {
        self.engine.events()
    }

    /// See [`SloEngine::canonical_log`].
    pub fn canonical_alert_log(&self) -> String {
        self.engine.canonical_log()
    }

    /// See `SloEngine::active_count`.
    pub fn active_alerts(&self) -> usize {
        self.engine.active_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Drive an availability SLO through healthy → outage → recovery.
    #[test]
    fn availability_fires_and_clears() {
        let mut reg = Registry::new();
        let mut mon = HealthMonitor::new(64, 16);
        mon.arm(
            SloSpec::availability("t.avail", "t.c.err", "t.c.total", 0.01)
                .windows(8, 32)
                .burn(2.0, 1.0)
                .min_events(4),
        );
        let (errs, total) = (reg.counter("t.c.err"), reg.counter("t.c.total"));
        let mut fired_at = None;
        let mut cleared_at = None;
        for ms in 0..200u64 {
            reg.incr(total);
            // Outage between ms 50 and 100: every request errors.
            if (50..100).contains(&ms) {
                reg.incr(errs);
            }
            mon.tick(t(ms), &reg);
            if fired_at.is_none() && mon.active_alerts() > 0 {
                fired_at = Some(ms);
            }
            if fired_at.is_some() && cleared_at.is_none() && mon.active_alerts() == 0 {
                cleared_at = Some(ms);
            }
        }
        let fired_at = fired_at.expect("alert never fired");
        let cleared_at = cleared_at.expect("alert never cleared");
        assert!((50..=80).contains(&fired_at), "fired at {fired_at}");
        assert!(cleared_at > 100, "cleared at {cleared_at}");
        let log = mon.canonical_alert_log();
        assert!(log.contains("slo=t.avail kind=fire"), "{log}");
        assert!(log.contains("slo=t.avail kind=clear"), "{log}");
        // A fire dumps a bundle.
        assert_eq!(mon.recorder.bundles().len(), 1);
        assert!(mon.recorder.bundles()[0].reason.contains("t.avail"));
        // Registry-visible stats.
        assert_eq!(mon.registry().counter_get("obs.slo.fired"), 1);
        assert_eq!(mon.registry().counter_get("obs.slo.cleared"), 1);
        assert_eq!(mon.registry().gauge_get("obs.slo.armed"), 1.0);
    }

    #[test]
    fn healthy_baseline_never_fires() {
        let mut reg = Registry::new();
        let mut mon = HealthMonitor::new(64, 16);
        mon.arm(SloSpec::availability("t.avail", "t.c.err", "t.c.total", 0.01).windows(8, 32));
        mon.arm(SloSpec::latency("t.lat", "t.h.ms", 64.0, 0.05).windows(8, 32).min_events(4));
        mon.arm(SloSpec::staleness("t.stale", "t.g.lag", 10.0, 0.1).windows(8, 32).min_events(4));
        let (total, h, g) = (reg.counter("t.c.total"), reg.histo("t.h.ms"), reg.gauge("t.g.lag"));
        for ms in 0..300u64 {
            reg.incr(total);
            reg.record(h, 2.0);
            reg.set_gauge(g, 1.0);
            mon.tick(t(ms), &reg);
        }
        assert_eq!(mon.alert_log().len(), 0, "{}", mon.canonical_alert_log());
        assert_eq!(mon.recorder.bundles().len(), 0);
    }

    #[test]
    fn latency_objective_burns_on_slow_tail() {
        let mut reg = Registry::new();
        let mut mon = HealthMonitor::new(64, 16);
        mon.arm(SloSpec::latency("t.lat", "t.h.ms", 64.0, 0.05).windows(8, 32).min_events(4));
        let h = reg.histo("t.h.ms");
        for ms in 0..120u64 {
            for _ in 0..10 {
                // After ms 40, half the samples blow the 64 ms threshold.
                let v = if ms >= 40 { 128.0 } else { 2.0 };
                reg.record(h, if ms >= 40 && ms % 2 == 0 { v } else { 2.0 });
            }
            mon.tick(t(ms), &reg);
        }
        assert!(mon.engine.fired_total() >= 1, "{}", mon.canonical_alert_log());
        assert!(mon.engine.is_active("t.lat"));
    }

    #[test]
    fn staleness_objective_watches_gauges() {
        let mut reg = Registry::new();
        let mut mon = HealthMonitor::new(64, 16);
        mon.arm(
            SloSpec::staleness("t.stale", "t.g.lag", 10.0, 0.25).windows(8, 16).min_events(4),
        );
        let g = reg.gauge("t.g.lag");
        for ms in 0..100u64 {
            reg.set_gauge(g, if ms >= 30 { 50.0 } else { 0.0 });
            mon.tick(t(ms), &reg);
        }
        assert!(mon.engine.is_active("t.stale"), "{}", mon.canonical_alert_log());
        // Gauge recovers → alert clears.
        for ms in 100..160u64 {
            reg.set_gauge(g, 0.0);
            mon.tick(t(ms), &reg);
        }
        assert!(!mon.engine.is_active("t.stale"), "{}", mon.canonical_alert_log());
        assert_eq!(mon.engine.cleared_total(), 1);
    }

    #[test]
    fn min_events_gates_thin_windows() {
        let mut reg = Registry::new();
        let mut mon = HealthMonitor::new(64, 16);
        mon.arm(
            SloSpec::availability("t.avail", "t.c.err", "t.c.total", 0.01)
                .windows(8, 32)
                .min_events(100),
        );
        let (errs, total) = (reg.counter("t.c.err"), reg.counter("t.c.total"));
        for ms in 0..50u64 {
            reg.incr(total);
            reg.incr(errs); // 100% errors, but too few events to trust
            mon.tick(t(ms), &reg);
        }
        assert_eq!(mon.alert_log().len(), 0);
    }

    #[test]
    fn canonical_log_is_reproducible() {
        let run = || {
            let mut reg = Registry::new();
            let mut mon = HealthMonitor::new(64, 16);
            mon.arm(
                SloSpec::availability("t.avail", "t.c.err", "t.c.total", 0.01)
                    .windows(8, 32)
                    .min_events(4),
            );
            let (errs, total) = (reg.counter("t.c.err"), reg.counter("t.c.total"));
            for ms in 0..150u64 {
                reg.incr(total);
                if (50..90).contains(&ms) {
                    reg.incr(errs);
                }
                mon.tick(t(ms), &reg);
            }
            (mon.canonical_alert_log(), mon.engine.log_hash(), mon.recorder.bundle_hash())
        };
        assert_eq!(run(), run());
    }
}
