//! Skewed samplers for workload generation.
//!
//! The paper's §III observes that metaverse data "may break the 3Vs" —
//! workloads are bursty and heavily skewed (a flash sale concentrates on a
//! few hot products; a few city cells generate most sensor readings). The
//! generators in `mv-workloads` draw from the samplers here.

use rand::Rng;

/// A Zipf(α) sampler over `{0, 1, …, n-1}` using the classic rejection-free
/// inverse-CDF over precomputed cumulative weights.
///
/// Precomputation is O(n) once; sampling is O(log n) via binary search.
/// Rank 0 is the hottest item.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `n` items with exponent `alpha` (`alpha = 0`
    /// is uniform; typical hot-spot workloads use 0.8–1.2).
    ///
    /// # Panics
    /// Panics if `n == 0` or `alpha < 0`.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf over empty domain");
        assert!(alpha >= 0.0, "negative Zipf exponent");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against FP drift: the last entry must be exactly 1.
        *cdf.last_mut().unwrap() = 1.0;
        Zipf { cdf }
    }

    /// Number of items in the domain.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if the domain has a single item.
    pub fn is_empty(&self) -> bool {
        false // construction forbids n == 0
    }

    /// Draw one rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // partition_point returns the first index with cdf[i] >= u.
        self.cdf.partition_point(|&c| c < u)
    }

    /// Probability mass of rank `i`.
    pub fn pmf(&self, i: usize) -> f64 {
        if i >= self.cdf.len() {
            return 0.0;
        }
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }
}

/// Draw from an exponential distribution with the given mean.
///
/// Used for inter-arrival times (Poisson processes) throughout the
/// workload generators.
pub fn exp_sample<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    // Inverse CDF; guard u away from 0 to avoid ln(0).
    let u: f64 = rng.gen::<f64>().max(1e-12);
    -mean * u.ln()
}

/// Draw from a normal distribution via Box–Muller (no extra deps).
pub fn normal_sample<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    mean + std_dev * z
}

/// Sample a symmetric Dirichlet(α) vector of length `k` (via Gamma(α,1)
/// draws using the Marsaglia–Tsang method for α ≥ 1 and the boost trick
/// for α < 1). Used for Non-IID data partitioning in `mv-collab`.
pub fn dirichlet_sample<R: Rng + ?Sized>(rng: &mut R, alpha: f64, k: usize) -> Vec<f64> {
    assert!(alpha > 0.0 && k > 0);
    let mut draws: Vec<f64> = (0..k).map(|_| gamma_sample(rng, alpha)).collect();
    let sum: f64 = draws.iter().sum();
    if sum <= 0.0 {
        // Degenerate fallback: uniform.
        return vec![1.0 / k as f64; k];
    }
    for d in &mut draws {
        *d /= sum;
    }
    draws
}

/// Gamma(shape, 1) sampler (Marsaglia–Tsang).
pub(crate) fn gamma_sample<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    assert!(shape > 0.0);
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a+1) * U^(1/a)
        let u: f64 = rng.gen::<f64>().max(1e-12);
        return gamma_sample(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = normal_sample(rng, 0.0, 1.0);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen::<f64>().max(1e-12);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Laplace(0, b) noise — the local-differential-privacy mechanism used in
/// `mv-collab` (§IV-D: "differential privacy" as an emerging technology).
pub fn laplace_sample<R: Rng + ?Sized>(rng: &mut R, scale: f64) -> f64 {
    let u: f64 = rng.gen::<f64>() - 0.5;
    -scale * u.signum() * (1.0 - 2.0 * u.abs()).max(1e-12).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = seeded_rng(1);
        let mut counts = vec![0usize; 1000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[999] * 10);
    }

    #[test]
    fn zipf_alpha_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for i in 0..4 {
            assert!((z.pmf(i) - 0.25).abs() < 1e-12, "pmf({i}) = {}", z.pmf(i));
        }
        assert_eq!(z.pmf(4), 0.0);
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(100, 0.9);
        let s: f64 = (0..100).map(|i| z.pmf(i)).sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_samples_in_domain() {
        let z = Zipf::new(7, 1.5);
        let mut rng = seeded_rng(2);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 7);
        }
    }

    #[test]
    fn exp_sample_mean_is_close() {
        let mut rng = seeded_rng(3);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| exp_sample(&mut rng, 10.0)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.3, "mean {mean}");
    }

    #[test]
    fn normal_sample_moments() {
        let mut rng = seeded_rng(4);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| normal_sample(&mut rng, 5.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn dirichlet_sums_to_one_and_skews() {
        let mut rng = seeded_rng(5);
        let v = dirichlet_sample(&mut rng, 0.1, 8);
        assert_eq!(v.len(), 8);
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // With alpha = 0.1 the mass should concentrate: max component big.
        let mx = v.iter().cloned().fold(0.0, f64::max);
        assert!(mx > 0.3, "expected concentration, max={mx}");
    }

    #[test]
    fn laplace_is_centered() {
        let mut rng = seeded_rng(6);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| laplace_sample(&mut rng, 1.0)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
    }
}
