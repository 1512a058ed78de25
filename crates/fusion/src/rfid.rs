//! Adaptive RFID stream cleaning.
//!
//! §IV cites the RFID-cleaning line of work (Gonzalez et al. \[32\],
//! Jeffery et al.'s adaptive middleware \[46\]) among the physical-space
//! problems the metaverse inherits: raw RFID reads are riddled with
//! *missed reads* (a present tag not seen this epoch) and the naive
//! "present iff read" signal flickers. The classic fix is per-tag
//! sliding-window smoothing, and the classic tension is window size:
//! small windows flicker, large windows report departed tags as present.
//!
//! `AdaptiveCleaner` implements a SMURF-flavoured resolution: estimate
//! each tag's read rate `p̂` online, size the window so a present tag is
//! missed for a whole window with probability ≤ δ
//! (`W = ln δ / ln(1 − p̂)`), and declare departure early when the reads
//! observed in the current window fall statistically below the binomial
//! expectation (mean − 2σ). E2c measures flicker and departure lag
//! against fixed windows.

use mv_common::hash::FastMap;

/// Per-tag smoothing state.
#[derive(Debug, Clone)]
struct TagState {
    /// Recent read outcomes (true = read), newest last, bounded.
    history: Vec<bool>,
    /// Smoothed read-rate estimate.
    p_hat: f64,
    /// Epoch of the last positive read.
    last_read_epoch: Option<u64>,
}

const HISTORY_CAP: usize = 64;
const P_HAT_ALPHA: f64 = 0.1; // EWMA rate for the read-rate estimate

/// Window policies for comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowPolicy {
    /// Present iff read in the current epoch (the raw signal).
    Raw,
    /// Present iff read within the last `w` epochs.
    Fixed(u64),
    /// SMURF-style: window from the read-rate estimate at miss
    /// probability δ, with binomial early-departure detection.
    Adaptive {
        /// Acceptable probability of a false "departed" for a present tag.
        delta: f64,
    },
}

impl WindowPolicy {
    /// Display name.
    pub fn name(self) -> String {
        match self {
            WindowPolicy::Raw => "raw".into(),
            WindowPolicy::Fixed(w) => format!("fixed({w})"),
            WindowPolicy::Adaptive { delta } => format!("adaptive(δ={delta})"),
        }
    }
}

/// The cleaner: consumes per-epoch read outcomes for tags under a policy
/// and answers presence.
#[derive(Debug)]
pub(crate) struct AdaptiveCleaner {
    policy: WindowPolicy,
    tags: FastMap<u64, TagState>,
    epoch: u64,
}

impl AdaptiveCleaner {
    /// Create under a policy.
    pub fn new(policy: WindowPolicy) -> Self {
        if let WindowPolicy::Adaptive { delta } = policy {
            assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        }
        AdaptiveCleaner { policy, tags: FastMap::default(), epoch: 0 }
    }

    /// Advance to the next epoch. Every interrogated tag must be
    /// reported via [`Self::observe`] before presence queries.
    pub(crate) fn next_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// Report this epoch's outcome for a tag (true = the reader saw it).
    pub fn observe(&mut self, tag: u64, read: bool) {
        let epoch = self.epoch;
        let st = self.tags.entry(tag).or_insert(TagState {
            history: Vec::new(),
            p_hat: 0.5,
            last_read_epoch: None,
        });
        st.history.push(read);
        if st.history.len() > HISTORY_CAP {
            st.history.remove(0);
        }
        if read {
            st.last_read_epoch = Some(epoch);
            st.p_hat = st.p_hat * (1.0 - P_HAT_ALPHA) + P_HAT_ALPHA;
        } else if st.last_read_epoch.is_some_and(|last| epoch - last <= 2) {
            // A miss adjacent to recent reads is sampling noise while the
            // tag is present — evidence about the read *rate*. A long run
            // of misses is evidence of *departure* and must not dilute the
            // rate estimate (otherwise the window inflates and departure
            // detection chases its own tail).
            st.p_hat *= 1.0 - P_HAT_ALPHA;
        }
        st.p_hat = st.p_hat.clamp(0.05, 0.99);
    }

    /// The adaptive window for a tag's current read-rate estimate.
    fn window_for(p_hat: f64, delta: f64) -> u64 {
        // Smallest W with (1 - p̂)^W ≤ δ.
        let w = (delta.ln() / (1.0 - p_hat).ln()).ceil();
        (w as u64).clamp(1, HISTORY_CAP as u64)
    }

    /// Is the tag present, under the configured policy?
    pub(crate) fn is_present(&self, tag: u64) -> bool {
        let Some(st) = self.tags.get(&tag) else {
            return false;
        };
        match self.policy {
            WindowPolicy::Raw => *st.history.last().unwrap_or(&false),
            WindowPolicy::Fixed(w) => {
                st.last_read_epoch
                    .is_some_and(|last| self.epoch - last < w)
            }
            WindowPolicy::Adaptive { delta } => {
                let w = Self::window_for(st.p_hat, delta) as usize;
                let seen: Vec<bool> =
                    st.history.iter().rev().take(w).copied().collect();
                if seen.is_empty() {
                    return false;
                }
                let reads = seen.iter().filter(|&&r| r).count() as f64;
                if reads == 0.0 {
                    return false; // a full window of silence
                }
                // Early departure: reads far below binomial expectation
                // over the window → the tag likely left mid-window.
                let n = seen.len() as f64;
                let mean = n * st.p_hat;
                let sd = (n * st.p_hat * (1.0 - st.p_hat)).sqrt();
                reads >= (mean - 2.0 * sd).max(1.0).min(mean)
            }
        }
    }
}

/// Simulate a tag with presence ground truth and score a policy.
/// Returns `(flicker_false_absent, departure_lag_epochs)`.
pub fn score_policy(
    policy: WindowPolicy,
    read_rate: f64,
    present_epochs: u64,
    absent_epochs: u64,
    seed: u64,
) -> (u64, u64) {
    use rand::Rng;
    let mut rng = mv_common::seeded_rng(seed);
    let mut cleaner = AdaptiveCleaner::new(policy);
    let mut flicker = 0u64;
    // Present phase: count "absent" verdicts after a warm-up window.
    let warmup = 8u64;
    for e in 0..present_epochs {
        cleaner.next_epoch();
        cleaner.observe(7, rng.gen_bool(read_rate));
        if e >= warmup && !cleaner.is_present(7) {
            flicker += 1;
        }
    }
    // Absent phase: count epochs until the cleaner notices.
    let mut lag = absent_epochs;
    for e in 0..absent_epochs {
        cleaner.next_epoch();
        cleaner.observe(7, false);
        if !cleaner.is_present(7) {
            lag = e;
            break;
        }
    }
    (flicker, lag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_signal_flickers_badly_at_low_read_rates() {
        let (raw_flicker, _) = score_policy(WindowPolicy::Raw, 0.6, 200, 20, 1);
        let (adaptive_flicker, _) =
            score_policy(WindowPolicy::Adaptive { delta: 0.05 }, 0.6, 200, 20, 1);
        assert!(raw_flicker > 30, "raw should flicker, got {raw_flicker}");
        assert!(
            adaptive_flicker * 10 < raw_flicker.max(1),
            "adaptive {adaptive_flicker} vs raw {raw_flicker}"
        );
    }

    #[test]
    fn large_fixed_window_lags_on_departure() {
        let (_, lag_fixed) = score_policy(WindowPolicy::Fixed(32), 0.6, 100, 40, 2);
        let (_, lag_adaptive) =
            score_policy(WindowPolicy::Adaptive { delta: 0.05 }, 0.6, 100, 40, 2);
        assert!(lag_adaptive < lag_fixed, "adaptive {lag_adaptive} vs fixed {lag_fixed}");
    }

    #[test]
    fn adaptive_window_tracks_read_rate() {
        let mut good = AdaptiveCleaner::new(WindowPolicy::Adaptive { delta: 0.05 });
        let mut bad = AdaptiveCleaner::new(WindowPolicy::Adaptive { delta: 0.05 });
        for i in 0..60 {
            good.next_epoch();
            good.observe(1, true); // strong reader: seen every epoch
            bad.next_epoch();
            bad.observe(1, i % 4 == 0); // weak reader: ~25% read rate
        }
        let window = |c: &AdaptiveCleaner| AdaptiveCleaner::window_for(c.tags[&1].p_hat, 0.05);
        assert!(window(&good) <= 3, "reliable tag needs a tiny window");
        assert!(window(&bad) >= 8, "weak tag needs a long window, got {}", window(&bad));
    }

    #[test]
    fn unknown_tags_are_absent() {
        let cleaner = AdaptiveCleaner::new(WindowPolicy::Raw);
        assert!(!cleaner.is_present(99));
    }

    #[test]
    fn window_formula_monotonicity() {
        // Higher read rate → smaller window; tighter delta → larger.
        let w = |p, d| AdaptiveCleaner::window_for(p, d);
        assert!(w(0.9, 0.05) < w(0.3, 0.05));
        assert!(w(0.5, 0.01) > w(0.5, 0.2));
        assert!(w(0.99, 0.05) >= 1);
    }

    #[test]
    fn fixed_window_semantics() {
        let mut c = AdaptiveCleaner::new(WindowPolicy::Fixed(3));
        c.next_epoch();
        c.observe(1, true);
        assert!(c.is_present(1));
        for _ in 0..2 {
            c.next_epoch();
            c.observe(1, false);
        }
        assert!(c.is_present(1), "still within the 3-epoch window");
        c.next_epoch();
        c.observe(1, false);
        assert!(!c.is_present(1), "window expired");
    }
}
