//! Evidence combination: Bayesian fusion of conflicting observations.
//!
//! Each source observes a discrete hypothesis for an entity (e.g. "book B
//! is on shelf 3"). Sources are weighted by reliability `p`: an
//! observation contributes `ln(p / (1-p))` log-odds to its hypothesis
//! (the standard independent-evidence update). The fused belief is the
//! hypothesis with the greatest accumulated log-odds; the margin over the
//! runner-up is exposed as a confidence signal for the event layer.
//!
//! This is precisely the step §IV-A distinguishes from "relatively simple
//! aggregation … over data streams": two RFID ghost reads can be outvoted
//! by one reliable camera sighting *because* the combination is weighted
//! inference, not counting.

use mv_common::hash::FastMap;
use mv_common::time::SimTime;

/// One observation: `source` claims `entity` is in state `hypothesis`.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Resolved entity index (from `EntityResolver`).
    pub entity: usize,
    /// The claimed discrete state (shelf id, zone id, status code…).
    pub hypothesis: u64,
    /// Source reliability in (0.5, 1): probability the claim is correct.
    pub reliability: f64,
    /// Observation time (newer evidence can be weighted via decay).
    pub ts: SimTime,
}

/// The fused belief for one entity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FusedBelief {
    /// Winning hypothesis.
    pub hypothesis: u64,
    /// Its accumulated log-odds.
    pub log_odds: f64,
    /// Margin over the runner-up hypothesis (∞ when unopposed).
    pub margin: f64,
    /// Number of observations fused.
    pub support: usize,
}

/// Accumulates observations per (entity, hypothesis) and answers fused
/// beliefs. Optionally applies exponential time decay so stale evidence
/// fades — the dynamic-scene requirement of §IV-F.
#[derive(Debug)]
pub struct EvidencePool {
    /// Half-life of evidence in microseconds (None = no decay).
    half_life_us: Option<f64>,
    /// (entity) → hypothesis → (log-odds, latest ts, count).
    beliefs: FastMap<usize, FastMap<u64, (f64, SimTime, usize)>>,
}

impl EvidencePool {
    /// A pool without time decay.
    pub fn new() -> Self {
        EvidencePool { half_life_us: None, beliefs: FastMap::default() }
    }

    /// A pool whose evidence halves in weight every `half_life_us`.
    pub fn with_half_life_us(half_life_us: f64) -> Self {
        assert!(half_life_us > 0.0);
        EvidencePool { half_life_us: Some(half_life_us), beliefs: FastMap::default() }
    }

    /// Ingest one observation.
    ///
    /// # Panics
    /// Panics if reliability is outside `(0.5, 1.0)` — an observation at
    /// or below coin-flip reliability carries no positive evidence and
    /// indicates a configuration bug.
    pub fn observe(&mut self, obs: &Observation) {
        assert!(
            obs.reliability > 0.5 && obs.reliability < 1.0,
            "reliability must be in (0.5, 1), got {}",
            obs.reliability
        );
        let delta = (obs.reliability / (1.0 - obs.reliability)).ln();
        let per_entity = self.beliefs.entry(obs.entity).or_default();
        let slot = per_entity.entry(obs.hypothesis).or_insert((0.0, obs.ts, 0));
        // Decay the existing mass to the new observation's time.
        if let Some(hl) = self.half_life_us {
            let dt = obs.ts.since(slot.1).as_micros() as f64;
            slot.0 *= 0.5f64.powf(dt / hl);
        }
        slot.0 += delta;
        slot.1 = slot.1.max(obs.ts);
        slot.2 += 1;
    }

    /// The fused belief for an entity as of `now` (decay applied), if any
    /// evidence exists.
    pub(crate) fn belief(&self, entity: usize, now: SimTime) -> Option<FusedBelief> {
        let per_entity = self.beliefs.get(&entity)?;
        let mut scored: Vec<(u64, f64, usize)> = per_entity
            .iter()
            .map(|(&h, &(lo, ts, n))| {
                let lo = match self.half_life_us {
                    Some(hl) => lo * 0.5f64.powf(now.since(ts).as_micros() as f64 / hl),
                    None => lo,
                };
                (h, lo, n)
            })
            .collect();
        // Deterministic: by log-odds desc, then hypothesis asc.
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let (hyp, lo, n) = scored[0];
        let margin = if scored.len() > 1 { lo - scored[1].1 } else { f64::INFINITY };
        Some(FusedBelief {
            hypothesis: hyp,
            log_odds: lo,
            margin,
            support: per_entity.values().map(|v| v.2).sum::<usize>().max(n),
        })
    }

    /// Entities with any evidence.
    pub fn entities(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.beliefs.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

impl Default for EvidencePool {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(entity: usize, hyp: u64, rel: f64, ms: u64) -> Observation {
        Observation { entity, hypothesis: hyp, reliability: rel, ts: SimTime::from_millis(ms) }
    }

    #[test]
    fn single_observation_wins() {
        let mut pool = EvidencePool::new();
        pool.observe(&obs(0, 7, 0.8, 1));
        let b = pool.belief(0, SimTime::from_millis(1)).unwrap();
        assert_eq!(b.hypothesis, 7);
        assert_eq!(b.margin, f64::INFINITY);
        assert_eq!(b.support, 1);
    }

    #[test]
    fn reliable_source_outvotes_two_weak_ones() {
        // Two RFID ghost reads (0.6) for shelf 9 vs one camera (0.9) for
        // shelf 3: ln(0.9/0.1)=2.20 > 2×ln(0.6/0.4)=0.81.
        let mut pool = EvidencePool::new();
        pool.observe(&obs(0, 9, 0.6, 1));
        pool.observe(&obs(0, 9, 0.6, 2));
        pool.observe(&obs(0, 3, 0.9, 3));
        let b = pool.belief(0, SimTime::from_millis(3)).unwrap();
        assert_eq!(b.hypothesis, 3);
        assert!(b.margin > 0.0);
    }

    #[test]
    fn counting_would_have_gotten_it_wrong() {
        // The explicit §IV-A contrast: majority vote (aggregation) picks 9,
        // weighted inference picks 3.
        let votes = [(9u64, 0.6), (9, 0.6), (3, 0.9)];
        let mut counts: std::collections::BTreeMap<u64, usize> = Default::default();
        for (h, _) in votes {
            *counts.entry(h).or_default() += 1;
        }
        let majority = *counts.iter().max_by_key(|(_, &c)| c).unwrap().0;
        assert_eq!(majority, 9);
        // (the weighted answer is asserted in the previous test)
    }

    #[test]
    fn decay_lets_fresh_evidence_overturn_stale() {
        let mut pool = EvidencePool::with_half_life_us(1_000.0); // 1 ms half-life
        // Strong but old claim for shelf 1.
        pool.observe(&obs(0, 1, 0.95, 0));
        pool.observe(&obs(0, 1, 0.95, 0));
        // Weak but fresh claim for shelf 2, 20 ms later (evidence for 1
        // decayed by 2^-20).
        pool.observe(&obs(0, 2, 0.6, 20));
        let b = pool.belief(0, SimTime::from_millis(20)).unwrap();
        assert_eq!(b.hypothesis, 2);
    }

    #[test]
    fn without_decay_stale_strength_persists() {
        let mut pool = EvidencePool::new();
        pool.observe(&obs(0, 1, 0.95, 0));
        pool.observe(&obs(0, 1, 0.95, 0));
        pool.observe(&obs(0, 2, 0.6, 20));
        let b = pool.belief(0, SimTime::from_millis(20)).unwrap();
        assert_eq!(b.hypothesis, 1);
    }

    #[test]
    fn entities_listing_and_missing_belief() {
        let mut pool = EvidencePool::new();
        pool.observe(&obs(3, 1, 0.8, 0));
        pool.observe(&obs(1, 1, 0.8, 0));
        assert_eq!(pool.entities(), vec![1, 3]);
        assert!(pool.belief(2, SimTime::ZERO).is_none());
    }

    #[test]
    #[should_panic(expected = "reliability")]
    fn coin_flip_reliability_rejected() {
        let mut pool = EvidencePool::new();
        pool.observe(&obs(0, 1, 0.5, 0));
    }
}
