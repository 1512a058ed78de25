//! Approximate aggregation by uniform sampling.
//!
//! §IV-G: *"in the case of a cyber user, while real-time information is
//! highly desirable, approximate data may be tolerated … efficient
//! approximation techniques in the virtual space that do not sacrifice
//! the quality of the output significantly are highly desirable."*
//! Uniform sampling with a standard-error estimate: the virtual space
//! gets a cheap answer with a confidence band; the physical space can
//! insist on exact.

use mv_common::seeded_rng;
use rand::seq::SliceRandom;

/// An approximate (or exact) aggregate answer.
#[derive(Debug, Clone, Copy, PartialEq)]
// lint:allow(dead-pub): exposed by `ApproxAggregator::mean_exact`, which other crates use
pub struct ApproxAnswer {
    /// The estimate.
    pub value: f64,
    /// Estimated standard error (0 for exact answers).
    pub std_error: f64,
    /// Values actually touched (the cost metric).
    pub touched: usize,
}

/// Sampling aggregator over a value column.
#[derive(Debug)]
pub struct ApproxAggregator {
    values: Vec<f64>,
}

impl ApproxAggregator {
    /// Wrap a column.
    pub fn new(values: Vec<f64>) -> Self {
        ApproxAggregator { values }
    }

    /// Column length.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the column is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Exact mean (touches everything).
    pub fn mean_exact(&self) -> ApproxAnswer {
        let n = self.values.len();
        let value = if n == 0 { 0.0 } else { self.values.iter().sum::<f64>() / n as f64 };
        ApproxAnswer { value, std_error: 0.0, touched: n }
    }

    /// Sampled mean over `fraction` of the column (clamped to (0, 1]).
    pub fn mean_sampled(&self, fraction: f64, seed: u64) -> ApproxAnswer {
        let n = self.values.len();
        if n == 0 {
            return ApproxAnswer { value: 0.0, std_error: 0.0, touched: 0 };
        }
        let k = ((n as f64 * fraction.clamp(1e-6, 1.0)).ceil() as usize).clamp(1, n);
        let mut rng = seeded_rng(seed);
        let mut idx: Vec<usize> = (0..n).collect();
        idx.shuffle(&mut rng);
        let sample: Vec<f64> = idx[..k].iter().map(|&i| self.values[i]).collect();
        let mean = sample.iter().sum::<f64>() / k as f64;
        let var = if k < 2 {
            0.0
        } else {
            sample.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (k as f64 - 1.0)
        };
        // Finite-population-corrected standard error.
        let fpc = ((n - k) as f64 / (n as f64 - 1.0).max(1.0)).max(0.0);
        let std_error = (var / k as f64 * fpc).sqrt();
        ApproxAnswer { value: mean, std_error, touched: k }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_common::sample::normal_sample;
    use rand::Rng;

    fn column(n: usize) -> Vec<f64> {
        let mut rng = seeded_rng(3);
        (0..n).map(|_| normal_sample(&mut rng, 50.0, 10.0)).collect()
    }

    #[test]
    fn exact_mean_baseline() {
        let agg = ApproxAggregator::new(vec![1.0, 2.0, 3.0, 4.0]);
        let a = agg.mean_exact();
        assert_eq!(a.value, 2.5);
        assert_eq!(a.std_error, 0.0);
        assert_eq!(a.touched, 4);
    }

    #[test]
    fn sample_estimate_within_error_bars() {
        let agg = ApproxAggregator::new(column(100_000));
        let exact = agg.mean_exact();
        let approx = agg.mean_sampled(0.01, 11);
        assert_eq!(approx.touched, 1000);
        // Within 4 standard errors (overwhelmingly likely).
        assert!(
            (approx.value - exact.value).abs() < 4.0 * approx.std_error,
            "estimate {} vs exact {} ± {}",
            approx.value,
            exact.value,
            approx.std_error
        );
    }

    #[test]
    fn error_shrinks_with_sample_size() {
        let agg = ApproxAggregator::new(column(100_000));
        let small = agg.mean_sampled(0.001, 5);
        let large = agg.mean_sampled(0.10, 5);
        assert!(large.std_error < small.std_error);
        assert!(large.touched > small.touched);
    }

    #[test]
    fn full_fraction_is_exact() {
        let agg = ApproxAggregator::new(vec![1.0, 5.0, 9.0]);
        let a = agg.mean_sampled(1.0, 1);
        assert_eq!(a.touched, 3);
        assert!((a.value - 5.0).abs() < 1e-12);
        assert!(a.std_error.abs() < 1e-12, "fpc zeroes the error at full sample");
    }

    #[test]
    fn empty_column_is_safe() {
        let agg = ApproxAggregator::new(vec![]);
        assert!(agg.is_empty());
        assert_eq!(agg.mean_exact().value, 0.0);
        assert_eq!(agg.mean_sampled(0.5, 1).touched, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let agg = ApproxAggregator::new(column(10_000));
        let a = agg.mean_sampled(0.05, 42);
        let b = agg.mean_sampled(0.05, 42);
        assert_eq!(a, b);
        // Different seed, different sample.
        let c = agg.mean_sampled(0.05, 43);
        assert_ne!(a.value, c.value);
        let _ = seeded_rng(0).gen::<u64>(); // keep the Rng import honest
    }
}
