//! Federated estimation with heterogeneous, Non-IID parties.
//!
//! The collaborative task: estimate a global d-dimensional statistic
//! (think "demand per product category across mall operators"). Each
//! party holds samples of the true vector observed through its own noise
//! and its own Non-IID *view* — a Dirichlet-weighted subset of dimensions
//! (a shop mostly sees its own categories). Aggregation is sample-count-
//! weighted FedAvg per dimension. Free-riders contribute fabricated data.
//!
//! The simulation exists to drive the incentive experiments: party
//! quality and quantity must show up in the final model error, or
//! contribution scoring has nothing to measure.

use mv_common::sample::{dirichlet_sample, normal_sample};
use mv_common::seeded_rng;
use rand::rngs::StdRng;
use rand::Rng;

/// One collaborating party.
#[derive(Debug, Clone)]
// lint:allow(dead-pub): exposed by `FederatedSim::parties`, which other crates use
pub struct Party {
    /// Samples the party holds.
    pub n_samples: usize,
    /// Observation noise (σ) of the party's sensors/process.
    pub noise: f64,
    /// Dirichlet weights over dimensions (Non-IID view).
    pub view: Vec<f64>,
    /// A free-rider fabricates data instead of measuring.
    pub free_rider: bool,
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct FedParams {
    /// Dimensions of the statistic.
    pub dims: usize,
    /// Number of honest parties.
    pub honest: usize,
    /// Number of free-riders.
    pub free_riders: usize,
    /// Dirichlet α for Non-IID views (small = highly skewed).
    pub dirichlet_alpha: f64,
    /// Samples per party (mean; actual varies ×0.5–1.5).
    pub samples_per_party: usize,
    /// Honest observation noise range (σ drawn uniformly within).
    pub noise_range: (f64, f64),
    /// RNG seed.
    pub seed: u64,
}

impl Default for FedParams {
    fn default() -> Self {
        FedParams {
            dims: 16,
            honest: 16,
            free_riders: 4,
            dirichlet_alpha: 0.3,
            samples_per_party: 200,
            noise_range: (0.5, 2.0),
            seed: 11,
        }
    }
}

/// The simulation: holds the ground truth and the parties' local
/// estimates (sufficient statistics: per-dim weighted sums and counts).
#[derive(Debug)]
pub struct FederatedSim {
    /// Ground-truth vector.
    pub truth: Vec<f64>,
    /// The parties.
    pub parties: Vec<Party>,
    /// Per-party, per-dimension (sum, effective_count).
    local_stats: Vec<Vec<(f64, f64)>>,
}

impl FederatedSim {
    /// Build the world and run local data collection.
    pub fn generate(params: &FedParams) -> Self {
        let mut rng = seeded_rng(params.seed);
        let truth: Vec<f64> =
            (0..params.dims).map(|_| normal_sample(&mut rng, 10.0, 5.0)).collect();
        let mut parties = Vec::new();
        for _ in 0..params.honest {
            parties.push(Party {
                n_samples: (params.samples_per_party as f64 * rng.gen_range(0.5..1.5)) as usize,
                noise: rng.gen_range(params.noise_range.0..params.noise_range.1),
                view: dirichlet_sample(&mut rng, params.dirichlet_alpha, params.dims),
                free_rider: false,
            });
        }
        for _ in 0..params.free_riders {
            parties.push(Party {
                n_samples: params.samples_per_party,
                noise: 0.0,
                view: vec![1.0 / params.dims as f64; params.dims],
                free_rider: true,
            });
        }
        let local_stats =
            parties.iter().map(|p| Self::collect(p, &truth, &mut rng)).collect();
        FederatedSim { truth, parties, local_stats }
    }

    fn collect(party: &Party, truth: &[f64], rng: &mut StdRng) -> Vec<(f64, f64)> {
        let dims = truth.len();
        let mut stats = vec![(0.0, 0.0); dims];
        if party.free_rider {
            // Fabricated: uncorrelated with the truth.
            for slot in stats.iter_mut() {
                let fake_mean = rng.gen_range(0.0..20.0);
                *slot = (fake_mean * party.n_samples as f64, party.n_samples as f64);
            }
            return stats;
        }
        for _ in 0..party.n_samples {
            // The party observes a dimension drawn from its view.
            let u: f64 = rng.gen();
            let mut acc = 0.0;
            let mut dim = dims - 1;
            for (d, w) in party.view.iter().enumerate() {
                acc += w;
                if u <= acc {
                    dim = d;
                    break;
                }
            }
            let obs = normal_sample(rng, truth[dim], party.noise);
            stats[dim].0 += obs;
            stats[dim].1 += 1.0;
        }
        stats
    }

    /// Aggregate a subset of parties (FedAvg per dimension); dimensions
    /// nobody covers fall back to 0 (an honest "no estimate").
    pub(crate) fn aggregate(&self, include: &[bool]) -> Vec<f64> {
        let dims = self.truth.len();
        let mut out = vec![0.0; dims];
        for d in 0..dims {
            let (mut sum, mut count) = (0.0, 0.0);
            for (pi, stats) in self.local_stats.iter().enumerate() {
                if include[pi] {
                    sum += stats[d].0;
                    count += stats[d].1;
                }
            }
            out[d] = if count > 0.0 { sum / count } else { 0.0 };
        }
        out
    }

    /// Root-mean-square error of an estimate against the truth.
    pub(crate) fn rmse(&self, estimate: &[f64]) -> f64 {
        let d = self.truth.len() as f64;
        (self
            .truth
            .iter()
            .zip(estimate)
            .map(|(t, e)| (t - e) * (t - e))
            .sum::<f64>()
            / d)
            .sqrt()
    }

    /// Error of the coalition containing exactly the flagged parties.
    pub fn coalition_error(&self, include: &[bool]) -> f64 {
        self.rmse(&self.aggregate(include))
    }

    /// Number of parties.
    pub fn party_count(&self) -> usize {
        self.parties.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_honest_beats_single_party() {
        let params = FedParams { free_riders: 0, ..Default::default() };
        let sim = FederatedSim::generate(&params);
        let all = vec![true; sim.party_count()];
        let mut solo = vec![false; sim.party_count()];
        solo[0] = true;
        assert!(
            sim.coalition_error(&all) < sim.coalition_error(&solo),
            "pooling Non-IID views must beat one skewed view"
        );
    }

    #[test]
    fn free_riders_hurt_the_coalition() {
        let sim = FederatedSim::generate(&FedParams::default());
        let n = sim.party_count();
        let with_all = vec![true; n];
        let honest_only: Vec<bool> = sim.parties.iter().map(|p| !p.free_rider).collect();
        assert!(
            sim.coalition_error(&honest_only) < sim.coalition_error(&with_all),
            "fabricated data must degrade the aggregate"
        );
    }

    #[test]
    fn empty_coalition_is_the_worst() {
        let sim = FederatedSim::generate(&FedParams::default());
        let none = vec![false; sim.party_count()];
        let all = vec![true; sim.party_count()];
        assert!(sim.coalition_error(&none) > sim.coalition_error(&all));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = FederatedSim::generate(&FedParams::default());
        let b = FederatedSim::generate(&FedParams::default());
        assert_eq!(a.truth, b.truth);
        let include = vec![true; a.party_count()];
        assert_eq!(a.coalition_error(&include), b.coalition_error(&include));
    }

    #[test]
    fn views_are_skewed_under_small_alpha() {
        let sim = FederatedSim::generate(&FedParams {
            dirichlet_alpha: 0.05,
            ..Default::default()
        });
        // On average across honest parties, the dominant dimension should
        // carry most of the view mass under a tiny alpha.
        let honest: Vec<&Party> = sim.parties.iter().filter(|p| !p.free_rider).collect();
        let mean_max: f64 = honest
            .iter()
            .map(|p| p.view.iter().cloned().fold(0.0, f64::max))
            .sum::<f64>()
            / honest.len() as f64;
        assert!(mean_max > 0.4, "alpha=0.05 should concentrate views, mean max={mean_max}");
    }
}
