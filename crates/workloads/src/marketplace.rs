//! The §II metaverse marketplace, with the §IV-E flash-sale burst.
//!
//! *"during the sales, metaverse databases need to handle large amounts
//! of requests not only from the virtual shop, but also from the
//! physical shop"*. The generator produces a request stream with a
//! baseline Poisson rate that multiplies during the sale window, product
//! popularity following Zipf, and a physical/virtual shopper mix.

use mv_common::sample::{exp_sample, Zipf};
use mv_common::seeded_rng;
use mv_common::time::{SimDuration, SimTime};
use mv_common::Space;
use rand::Rng;

/// Marketplace parameters.
#[derive(Debug, Clone)]
pub struct MarketParams {
    /// Distinct products.
    pub products: usize,
    /// Zipf skew of product popularity.
    pub zipf_alpha: f64,
    /// Baseline request rate (requests per second).
    pub base_rate: f64,
    /// Rate multiplier during the sale window.
    pub burst_multiplier: f64,
    /// Sale window `(start, end)`.
    pub sale_window: (SimTime, SimTime),
    /// Total generated duration.
    pub duration: SimDuration,
    /// Fraction of requests from physical shoppers.
    pub physical_fraction: f64,
    /// Mean request service time (for serverless sizing).
    pub service_time: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MarketParams {
    fn default() -> Self {
        MarketParams {
            products: 1_000,
            zipf_alpha: 1.0,
            base_rate: 50.0,
            burst_multiplier: 20.0,
            sale_window: (SimTime::from_secs(30), SimTime::from_secs(60)),
            duration: SimDuration::from_secs(90),
            physical_fraction: 0.3,
            service_time: SimDuration::from_millis(20),
            seed: 13,
        }
    }
}

/// One purchase request.
#[derive(Debug, Clone, Copy, PartialEq)]
// lint:allow(dead-pub): exposed by `FlashSale::requests`, which other crates use
pub struct SaleRequest {
    /// Arrival time.
    pub ts: SimTime,
    /// Product rank (0 = hottest).
    pub product: usize,
    /// Requesting shopper's space.
    pub space: Space,
    /// Service time of this request.
    pub service: SimDuration,
}

/// The generated workload.
#[derive(Debug)]
pub struct FlashSale {
    /// Time-ordered requests.
    pub requests: Vec<SaleRequest>,
    /// The parameters used.
    pub params: MarketParams,
}

impl FlashSale {
    /// Generate the request stream.
    pub fn generate(params: &MarketParams) -> Self {
        let mut rng = seeded_rng(params.seed);
        let zipf = Zipf::new(params.products, params.zipf_alpha);
        let mut requests = Vec::new();
        let mut t_us = 0.0f64;
        let end_us = params.duration.as_micros() as f64;
        while t_us < end_us {
            let now = SimTime::from_micros(t_us as u64);
            let in_sale = now >= params.sale_window.0 && now < params.sale_window.1;
            let rate =
                params.base_rate * if in_sale { params.burst_multiplier } else { 1.0 };
            // Poisson arrivals at the current rate.
            t_us += exp_sample(&mut rng, 1e6 / rate);
            if t_us >= end_us {
                break;
            }
            let space = if rng.gen_bool(params.physical_fraction) {
                Space::Physical
            } else {
                Space::Virtual
            };
            // Service times: exponential around the mean.
            let service = SimDuration::from_micros(
                exp_sample(&mut rng, params.service_time.as_micros() as f64) as u64 + 1,
            );
            requests.push(SaleRequest {
                ts: SimTime::from_micros(t_us as u64),
                product: zipf.sample(&mut rng),
                space,
                service,
            });
        }
        FlashSale { requests, params: params.clone() }
    }

    /// Requests within a time window.
    pub(crate) fn requests_between(&self, from: SimTime, to: SimTime) -> usize {
        self.requests.iter().filter(|r| r.ts >= from && r.ts < to).count()
    }

    /// Offered rate (req/s) inside vs. outside the sale window.
    pub fn burst_ratio(&self) -> f64 {
        let (s, e) = self.params.sale_window;
        let sale_secs = e.since(s).as_secs_f64();
        let total_secs = self.params.duration.as_secs_f64();
        let in_sale = self.requests_between(s, e) as f64 / sale_secs;
        let outside = (self.requests.len() - self.requests_between(s, e)) as f64
            / (total_secs - sale_secs);
        if outside == 0.0 {
            f64::INFINITY
        } else {
            in_sale / outside
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_multiplies_the_rate() {
        let sale = FlashSale::generate(&MarketParams::default());
        let ratio = sale.burst_ratio();
        assert!(
            (10.0..40.0).contains(&ratio),
            "configured 20x burst, measured {ratio}"
        );
    }

    #[test]
    fn requests_are_time_ordered_and_in_domain() {
        let sale = FlashSale::generate(&MarketParams::default());
        assert!(sale.requests.windows(2).all(|w| w[0].ts <= w[1].ts));
        assert!(sale.requests.iter().all(|r| r.product < 1_000));
        assert!(!sale.requests.is_empty());
    }

    #[test]
    fn hot_products_dominate() {
        let sale = FlashSale::generate(&MarketParams::default());
        let hot = sale.requests.iter().filter(|r| r.product < 10).count();
        assert!(
            hot * 3 > sale.requests.len(),
            "top-10 products should draw >1/3 of traffic, got {hot}/{}",
            sale.requests.len()
        );
    }

    #[test]
    fn space_mix_matches_fraction() {
        let sale = FlashSale::generate(&MarketParams {
            physical_fraction: 0.5,
            ..Default::default()
        });
        let phys = sale.requests.iter().filter(|r| r.space == Space::Physical).count();
        let frac = phys as f64 / sale.requests.len() as f64;
        assert!((frac - 0.5).abs() < 0.05, "physical fraction {frac}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = FlashSale::generate(&MarketParams::default());
        let b = FlashSale::generate(&MarketParams::default());
        assert_eq!(a.requests, b.requests);
    }
}
