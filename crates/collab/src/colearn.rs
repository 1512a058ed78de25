//! The three learning workflows of Fig. 8.
//!
//! A concept-learning testbed: the target is a threshold t\* on [0, 1];
//! the machine estimates t̂ from labelled points. The workflows differ in
//! where labels come from and whether information flows both ways:
//!
//! * **Conventional** (Fig. 8a, "machine learns from human"): a human of
//!   fixed expertise labels uniformly random points each round.
//! * **Self-interactive** (Fig. 8b, AlphaGo-style): after a small seed
//!   set of human labels, the machine labels its own samples with its
//!   current model — errors compound, learning plateaus.
//! * **Co-learning** (Fig. 8c, "humans learn from the model and the
//!   model learns from humans"): the machine *queries* points near its
//!   decision boundary (uncertainty sampling — the machine teaching the
//!   human where to look), and the human's error rate decays each round
//!   as the model's explanations sharpen their judgement.
//!
//! The measurable claim (E12b): co-learning converges to a better t̂
//! than conventional, which beats self-interactive.

use mv_common::seeded_rng;
use rand::Rng;

/// Which Fig. 8 workflow to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workflow {
    /// Fig. 8a.
    Conventional,
    /// Fig. 8b.
    SelfInteractive,
    /// Fig. 8c.
    CoLearning,
}

impl Workflow {
    /// All workflows.
    pub const ALL: [Workflow; 3] =
        [Workflow::Conventional, Workflow::SelfInteractive, Workflow::CoLearning];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Workflow::Conventional => "conventional",
            Workflow::SelfInteractive => "self-interactive",
            Workflow::CoLearning => "co-learning",
        }
    }
}

/// Task parameters.
#[derive(Debug, Clone)]
pub struct ColearnParams {
    /// The true threshold.
    pub true_threshold: f64,
    /// Interaction rounds.
    pub rounds: usize,
    /// Labels per round.
    pub labels_per_round: usize,
    /// Initial human label-error probability.
    pub human_error: f64,
    /// Per-round multiplicative improvement of the human under
    /// co-learning (model explanations teach the human).
    pub human_learning_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ColearnParams {
    fn default() -> Self {
        ColearnParams {
            true_threshold: 0.62,
            rounds: 12,
            labels_per_round: 24,
            human_error: 0.25,
            human_learning_rate: 0.75,
            seed: 5,
        }
    }
}

/// Per-round trajectory of |t̂ − t\*|.
#[derive(Debug, Clone)]
// lint:allow(dead-pub): exposed by `run_workflow`, which other crates use
pub struct ColearnTrace {
    /// Error after each round.
    pub error_per_round: Vec<f64>,
}

impl ColearnTrace {
    /// Final model error.
    pub fn final_error(&self) -> f64 {
        *self.error_per_round.last().expect("at least one round")
    }
}

/// Estimate the threshold from labelled points: midpoint between the
/// largest point labelled 0 and the smallest labelled 1, robustified by
/// majority vote in a shrinking band (labels are noisy).
fn fit_threshold(labelled: &[(f64, bool)]) -> f64 {
    if labelled.is_empty() {
        return 0.5;
    }
    // Grid search over candidate thresholds minimizing training error —
    // robust to label noise where the min/max midpoint is not.
    let mut best_t = 0.5;
    let mut best_err = usize::MAX;
    let mut candidates: Vec<f64> = labelled.iter().map(|(x, _)| *x).collect();
    candidates.push(0.0);
    candidates.push(1.0);
    candidates.sort_by(|a, b| a.total_cmp(b));
    for &t in &candidates {
        let err = labelled
            .iter()
            .filter(|&&(x, y)| (x > t) != y)
            .count();
        if err < best_err {
            best_err = err;
            best_t = t;
        }
    }
    best_t
}

/// Run one workflow; returns the per-round error trajectory.
pub fn run_workflow(workflow: Workflow, params: &ColearnParams) -> ColearnTrace {
    let mut rng = seeded_rng(params.seed);
    let t_star = params.true_threshold;
    let mut labelled: Vec<(f64, bool)> = Vec::new();
    let mut human_error = params.human_error;
    let mut t_hat = 0.5;
    let mut trace = Vec::with_capacity(params.rounds);

    for round in 0..params.rounds {
        for _ in 0..params.labels_per_round {
            let x: f64 = match workflow {
                // Uncertainty sampling: query near the current boundary.
                Workflow::CoLearning if round > 0 => {
                    (t_hat + rng.gen_range(-0.15f64..0.15)).clamp(0.0, 1.0)
                }
                _ => rng.gen(),
            };
            let true_label = x > t_star;
            let label = match workflow {
                Workflow::SelfInteractive if round > 0 => {
                    // The machine labels its own data.
                    x > t_hat
                }
                _ => {
                    // Human labels, with their current error rate.
                    if rng.gen_bool(human_error) {
                        !true_label
                    } else {
                        true_label
                    }
                }
            };
            labelled.push((x, label));
        }
        t_hat = fit_threshold(&labelled);
        if workflow == Workflow::CoLearning {
            // The model's explanations teach the human (Fig. 8c's
            // human-learns-from-machine arrow).
            human_error *= params.human_learning_rate;
        }
        trace.push((t_hat - t_star).abs());
    }
    ColearnTrace { error_per_round: trace }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_final(workflow: Workflow, seeds: std::ops::Range<u64>) -> f64 {
        let n = (seeds.end - seeds.start) as f64;
        seeds
            .map(|seed| {
                run_workflow(workflow, &ColearnParams { seed, ..Default::default() })
                    .final_error()
            })
            .sum::<f64>()
            / n
    }

    #[test]
    fn colearning_beats_conventional_beats_selfplay() {
        let co = mean_final(Workflow::CoLearning, 0..20);
        let conv = mean_final(Workflow::Conventional, 0..20);
        let selfp = mean_final(Workflow::SelfInteractive, 0..20);
        assert!(co < conv, "co-learning {co} vs conventional {conv}");
        assert!(conv < selfp, "conventional {conv} vs self-play {selfp}");
    }

    #[test]
    fn all_workflows_improve_over_round_one() {
        for wf in Workflow::ALL {
            let trace = run_workflow(wf, &ColearnParams::default());
            let first = trace.error_per_round[0];
            let last = trace.final_error();
            assert!(
                last <= first + 0.05,
                "{}: error grew from {first} to {last}",
                wf.name()
            );
        }
    }

    #[test]
    fn noiseless_human_converges_tight() {
        let params = ColearnParams { human_error: 0.0, ..Default::default() };
        let trace = run_workflow(Workflow::Conventional, &params);
        assert!(trace.final_error() < 0.02, "final error {}", trace.final_error());
    }

    #[test]
    fn fit_threshold_handles_edges() {
        assert_eq!(fit_threshold(&[]), 0.5);
        // All-positive labels: the best threshold is at/below the minimum.
        let t = fit_threshold(&[(0.3, true), (0.6, true)]);
        assert!(t <= 0.3);
        // Clean separation recovers the gap.
        let t = fit_threshold(&[(0.2, false), (0.4, false), (0.7, true), (0.9, true)]);
        assert!((0.4..=0.7).contains(&t), "t={t}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_workflow(Workflow::CoLearning, &ColearnParams::default());
        let b = run_workflow(Workflow::CoLearning, &ColearnParams::default());
        assert_eq!(a.error_per_round, b.error_per_round);
    }
}
