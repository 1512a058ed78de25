//! Link specifications and canned link classes.
//!
//! A link is characterized by propagation latency, bandwidth, jitter and a
//! loss probability. The canned classes approximate the fabrics the paper
//! names: RDMA/InfiniBand inside the cloud (§IV-E2), data-center LANs,
//! inter-DC WANs (§IV-E1), and 5G/cellular device uplinks (§I).

use mv_common::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Static properties of a network link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Bandwidth in bytes per simulated second.
    pub bandwidth_bps: f64,
    /// Jitter as a fraction of latency; each transfer draws a uniform
    /// extra delay in `[0, jitter_frac * latency]`.
    pub jitter_frac: f64,
    /// Independent per-transfer loss probability in `[0, 1]`.
    pub loss: f64,
}

impl LinkSpec {
    /// A deterministic, lossless link with the given latency/bandwidth.
    pub fn new(latency: SimDuration, bandwidth_bps: f64) -> Self {
        LinkSpec { latency, bandwidth_bps, jitter_frac: 0.0, loss: 0.0 }
    }

    /// Builder: set jitter fraction.
    pub(crate) fn with_jitter(mut self, frac: f64) -> Self {
        self.jitter_frac = frac.max(0.0);
        self
    }

    /// Builder: set loss probability.
    pub fn with_loss(mut self, p: f64) -> Self {
        self.loss = p.clamp(0.0, 1.0);
        self
    }

    /// Serialization (transmission) delay for a payload of `bytes`.
    pub(crate) fn serialization_delay(&self, bytes: u64) -> SimDuration {
        if self.bandwidth_bps <= 0.0 {
            return SimDuration::ZERO; // modelled as infinite bandwidth
        }
        SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bps)
    }
}

/// Canned link classes approximating the fabrics named in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum LinkClass {
    /// RDMA / InfiniBand inside a rack: ~3 µs, 100 Gb/s.
    Rdma,
    /// Data-center LAN: ~100 µs, 10 Gb/s.
    Lan,
    /// 5G device uplink: ~15 ms, 100 Mb/s, jittery and lossy.
    Cellular5G,
}

impl LinkClass {
    /// The spec for this class.
    pub fn spec(self) -> LinkSpec {
        // Bandwidths converted from bits to bytes per second.
        match self {
            LinkClass::Rdma => LinkSpec::new(SimDuration::from_micros(3), 12.5e9),
            LinkClass::Lan => LinkSpec::new(SimDuration::from_micros(100), 1.25e9),
            LinkClass::Cellular5G => LinkSpec::new(SimDuration::from_millis(15), 12.5e6)
                .with_jitter(0.3)
                .with_loss(0.001),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_delay_scales_with_size() {
        let spec = LinkSpec::new(SimDuration::from_millis(1), 1_000_000.0); // 1 MB/s
        assert_eq!(spec.serialization_delay(1_000_000).as_micros(), 1_000_000);
        assert_eq!(spec.serialization_delay(1_000).as_micros(), 1_000);
        assert_eq!(spec.serialization_delay(0).as_micros(), 0);
    }

    #[test]
    fn zero_bandwidth_means_infinite() {
        let spec = LinkSpec::new(SimDuration::ZERO, 0.0);
        assert_eq!(spec.serialization_delay(u64::MAX), SimDuration::ZERO);
    }

    #[test]
    fn class_ordering_sanity() {
        // Faster fabrics must have strictly lower latency.
        let l = |c: LinkClass| c.spec().latency;
        assert!(l(LinkClass::Rdma) < l(LinkClass::Lan));
        assert!(l(LinkClass::Lan) < l(LinkClass::Cellular5G));
    }

    #[test]
    fn builders_clamp() {
        let s = LinkSpec::new(SimDuration::ZERO, 1.0).with_loss(7.0).with_jitter(-1.0);
        assert_eq!(s.loss, 1.0);
        assert_eq!(s.jitter_frac, 0.0);
    }
}
