//! Rule-based event detection over fused state.
//!
//! §IV-A: metaverse data management "detects events that had taken place
//! based on these data sources and depicts these events accurately and
//! efficiently in the metaverse". Rules are predicates over an entity's
//! fused belief history; firing produces a `DetectedEvent` that the
//! co-space engine materializes in the other space.

use crate::evidence::FusedBelief;
use mv_common::hash::FastMap;
use mv_common::time::SimTime;

/// A detected event, ready for materialization in the co-space.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DetectedEvent {
    /// Rule that fired.
    pub rule: &'static str,
    /// Entity the event concerns.
    pub entity: usize,
    /// When it was detected.
    pub ts: SimTime,
    /// Hypothesis involved (e.g. the new shelf), if meaningful.
    pub hypothesis: Option<u64>,
}

/// Predicate signature: `(previous belief, current belief) → fire?`.
pub(crate) type RulePredicate = Box<dyn Fn(Option<&FusedBelief>, &FusedBelief) -> bool + Send>;

/// A detection rule: inspects the previous and current fused belief.
pub(crate) struct Rule {
    /// Rule name (appears in events).
    pub name: &'static str,
    /// The firing predicate.
    pub pred: RulePredicate,
}

impl Rule {
    /// Build a rule.
    pub fn new(
        name: &'static str,
        pred: impl Fn(Option<&FusedBelief>, &FusedBelief) -> bool + Send + 'static,
    ) -> Self {
        Rule { name, pred: Box::new(pred) }
    }

    /// Built-in: entity's winning hypothesis changed with confident margin.
    pub(crate) fn state_changed(min_margin: f64) -> Self {
        Rule::new("state_changed", move |prev, cur| {
            matches!(prev, Some(p) if p.hypothesis != cur.hypothesis && cur.margin >= min_margin)
        })
    }
}

/// The detector: feeds fused beliefs through rules, tracking per-entity
/// previous state.
pub(crate) struct EventDetector {
    rules: Vec<Rule>,
    last_seen: FastMap<usize, (FusedBelief, SimTime)>,
}

impl EventDetector {
    /// A detector with the given rules.
    pub fn new(rules: Vec<Rule>) -> Self {
        EventDetector { rules, last_seen: FastMap::default() }
    }

    /// Feed the current fused belief of an entity; returns fired events.
    pub fn observe(&mut self, entity: usize, belief: FusedBelief, now: SimTime) -> Vec<DetectedEvent> {
        let prev = self.last_seen.get(&entity).map(|(b, _)| *b);
        let mut fired = Vec::new();
        for rule in &self.rules {
            if (rule.pred)(prev.as_ref(), &belief) {
                fired.push(DetectedEvent {
                    rule: rule.name,
                    entity,
                    ts: now,
                    hypothesis: Some(belief.hypothesis),
                });
            }
        }
        self.last_seen.insert(entity, (belief, now));
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn belief(hyp: u64, margin: f64) -> FusedBelief {
        FusedBelief { hypothesis: hyp, log_odds: 2.0, margin, support: 3 }
    }

    #[test]
    fn state_change_fires_on_a_confident_new_hypothesis() {
        let mut det = EventDetector::new(vec![Rule::state_changed(0.5)]);
        // A first sighting has no previous state to change from.
        assert!(det.observe(1, belief(10, 5.0), SimTime::from_millis(1)).is_empty());
        // Same hypothesis: nothing fires.
        assert!(det.observe(1, belief(10, 5.0), SimTime::from_millis(2)).is_empty());
        // Changed hypothesis with margin: fires.
        let ev = det.observe(1, belief(11, 5.0), SimTime::from_millis(3));
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].rule, "state_changed");
        assert_eq!(ev[0].hypothesis, Some(11));
    }

    #[test]
    fn low_margin_change_does_not_fire_state_change() {
        let mut det = EventDetector::new(vec![Rule::state_changed(1.0)]);
        det.observe(1, belief(10, 5.0), SimTime::from_millis(1));
        let ev = det.observe(1, belief(11, 0.2), SimTime::from_millis(2));
        assert!(ev.is_empty());
    }

    #[test]
    fn custom_rule_closure() {
        let mut det = EventDetector::new(vec![Rule::new("strong", |_, cur| cur.log_odds > 1.0)]);
        let ev = det.observe(1, belief(1, 9.0), SimTime::ZERO);
        assert_eq!(ev[0].rule, "strong");
    }
}
