//! Local differential privacy for collaborative aggregation.
//!
//! §IV-D: *"it is important to develop new algorithms and paradigms to
//! enable data analysis in a privacy-preserving manner … emerging
//! technologies such as federated learning and differential privacy"*,
//! and the tension it names: *"a delicate balance between minimizing
//! privacy risk and maximizing data utility"*. The Laplace mechanism
//! makes that balance measurable: each party perturbs its local value
//! with Laplace(Δ/ε) noise before sharing; the aggregate's error decays
//! as 1/(ε√n) — experiment E12c sweeps the curve.

use mv_common::sample::laplace_sample;
use mv_common::seeded_rng;
use mv_common::{MvError, MvResult};

/// A party's privacy budget with linear composition accounting.
#[derive(Debug, Clone)]
pub(crate) struct PrivacyBudget {
    total_epsilon: f64,
    spent: f64,
}

impl PrivacyBudget {
    /// A budget of `epsilon` total.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon > 0.0);
        PrivacyBudget { total_epsilon: epsilon, spent: 0.0 }
    }

    /// Spend `epsilon`; errors if overdrawn (the accountant's whole job).
    pub(crate) fn spend(&mut self, epsilon: f64) -> MvResult<()> {
        if epsilon <= 0.0 {
            return Err(MvError::InvalidArgument("non-positive epsilon".into()));
        }
        if self.spent + epsilon > self.total_epsilon + 1e-12 {
            return Err(MvError::Exhausted(format!(
                "privacy budget exhausted: {} spent of {}, requested {}",
                self.spent, self.total_epsilon, epsilon
            )));
        }
        self.spent += epsilon;
        Ok(())
    }
}

/// Aggregates locally-perturbed values.
#[derive(Debug)]
pub struct LdpAggregator {
    /// Sensitivity Δ of the shared statistic.
    pub sensitivity: f64,
}

impl LdpAggregator {
    /// Create for a statistic with sensitivity `sensitivity`.
    pub fn new(sensitivity: f64) -> Self {
        assert!(sensitivity > 0.0);
        LdpAggregator { sensitivity }
    }

    /// Perturb one party's value under budget `epsilon` (Laplace
    /// mechanism), debiting the party's accountant.
    pub(crate) fn perturb(
        &self,
        value: f64,
        epsilon: f64,
        budget: &mut PrivacyBudget,
        seed: u64,
    ) -> MvResult<f64> {
        budget.spend(epsilon)?;
        let mut rng = seeded_rng(seed);
        Ok(value + laplace_sample(&mut rng, self.sensitivity / epsilon))
    }

    /// Mean of perturbed reports (the server-side aggregate).
    pub(crate) fn aggregate(reports: &[f64]) -> f64 {
        if reports.is_empty() {
            0.0
        } else {
            reports.iter().sum::<f64>() / reports.len() as f64
        }
    }

    /// Theoretical standard error of the aggregate for `n` parties at
    /// per-party budget `epsilon`: `√2·Δ / (ε·√n)`.
    pub fn expected_std_error(&self, n: usize, epsilon: f64) -> f64 {
        std::f64::consts::SQRT_2 * self.sensitivity / (epsilon * (n as f64).sqrt())
    }

    /// Run a full round: `values` perturbed at `epsilon` each, aggregated.
    /// Returns `(estimate, abs_error_vs_true_mean)`.
    pub fn run_round(&self, values: &[f64], epsilon: f64, seed: u64) -> (f64, f64) {
        let reports: Vec<f64> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let mut b = PrivacyBudget::new(epsilon);
                self.perturb(v, epsilon, &mut b, seed.wrapping_add(i as u64))
                    .expect("fresh budget covers one spend")
            })
            .collect();
        let est = Self::aggregate(&reports);
        let truth = Self::aggregate(values);
        (est, (est - truth).abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_composition_enforced() {
        let mut b = PrivacyBudget::new(1.0);
        b.spend(0.4).unwrap();
        b.spend(0.6).unwrap();
        assert!(b.total_epsilon - b.spent < 1e-9);
        assert!(b.spend(0.1).is_err());
        assert!(b.spend(-1.0).is_err());
    }

    #[test]
    fn utility_improves_with_epsilon() {
        let agg = LdpAggregator::new(1.0);
        let values: Vec<f64> = (0..2000).map(|i| (i % 10) as f64 / 10.0).collect();
        let (_, err_tight) = agg.run_round(&values, 0.1, 1);
        let (_, err_loose) = agg.run_round(&values, 10.0, 1);
        assert!(
            err_loose < err_tight,
            "ε=10 error {err_loose} must beat ε=0.1 error {err_tight}"
        );
    }

    #[test]
    fn error_tracks_theory_within_an_order() {
        let agg = LdpAggregator::new(1.0);
        let values = vec![0.5; 5000];
        let eps = 1.0;
        let (_, err) = agg.run_round(&values, eps, 3);
        let theory = agg.expected_std_error(values.len(), eps);
        assert!(err < theory * 5.0, "err {err} vs theory {theory}");
    }

    #[test]
    fn aggregate_of_empty_is_zero() {
        assert_eq!(LdpAggregator::aggregate(&[]), 0.0);
    }

    #[test]
    fn perturbation_is_deterministic_per_seed() {
        let agg = LdpAggregator::new(1.0);
        let mut b1 = PrivacyBudget::new(1.0);
        let mut b2 = PrivacyBudget::new(1.0);
        let a = agg.perturb(5.0, 1.0, &mut b1, 42).unwrap();
        let b = agg.perturb(5.0, 1.0, &mut b2, 42).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, 5.0, "noise must actually be added");
    }
}
