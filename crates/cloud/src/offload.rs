//! Device-side computation offload (Fig. 7's device layer).
//!
//! Without offload, every raw sensor sample crosses the cellular uplink
//! and the cloud aggregates. With offload, each device aggregates a
//! window locally (its "increasingly powerful processor") and ships one
//! summary per window. The report accounts uplink bytes, cloud CPU time,
//! device CPU time, and freshness (age of the data the cloud sees) on an
//! actual [`mv_net::DisaggTopology`] — experiment E7's engine.

use mv_common::seeded_rng;
use mv_common::time::{SimDuration, SimTime};
use mv_net::topology::DisaggTopology;

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct OffloadParams {
    /// Number of metaverse devices.
    pub devices: usize,
    /// Raw samples per device per simulated second.
    pub samples_per_sec: u64,
    /// Bytes per raw sample on the wire.
    pub sample_bytes: u64,
    /// Device-side aggregation window.
    pub window: SimDuration,
    /// Bytes per shipped aggregate.
    pub aggregate_bytes: u64,
    /// Cloud CPU time to process one raw sample.
    pub cloud_cpu_per_sample: SimDuration,
    /// Device CPU time to fold one sample into the local window.
    pub device_cpu_per_sample: SimDuration,
    /// Cloud CPU time to merge one aggregate.
    pub cloud_cpu_per_aggregate: SimDuration,
    /// Simulated duration of the run.
    pub duration: SimDuration,
}

impl Default for OffloadParams {
    fn default() -> Self {
        OffloadParams {
            devices: 1000,
            samples_per_sec: 30, // pose updates
            sample_bytes: 64,
            window: SimDuration::from_millis(500),
            aggregate_bytes: 96,
            cloud_cpu_per_sample: SimDuration::from_micros(5),
            device_cpu_per_sample: SimDuration::from_micros(8),
            cloud_cpu_per_aggregate: SimDuration::from_micros(10),
            duration: SimDuration::from_secs(10),
        }
    }
}

/// Accounting for one configuration.
#[derive(Debug, Clone, Copy)]
// lint:allow(dead-pub): returned by `offload::run`, which other crates call
pub struct OffloadReport {
    /// Total bytes over device uplinks.
    pub uplink_bytes: u64,
    /// Total cloud CPU time, µs.
    pub cloud_cpu_us: u64,
    /// Total device CPU time, µs.
    pub device_cpu_us: u64,
    /// Mean end-to-end freshness of cloud state, ms (uplink latency, plus
    /// half a window of batching delay when offloading).
    pub freshness_ms: f64,
    /// Messages sent over the uplink.
    pub messages: u64,
}

/// Run both configurations on a fresh disaggregated topology.
pub fn run(params: &OffloadParams) -> (OffloadReport, OffloadReport) {
    // A small representative topology: latency is per-path, so device
    // count factors in analytically rather than via 1000 sim nodes.
    let mut topo = DisaggTopology::build(4, 2, 2);
    let mut rng = seeded_rng(7);
    // Measure mean device→executor latency empirically over transfers.
    let mut lat_sum_ms = 0.0;
    let samples = 100;
    for i in 0..samples {
        let d = topo.devices[i % topo.devices.len()];
        let e = topo.executor_for(i);
        // Retry lost transfers — we want latency of delivered messages.
        let t = loop {
            match topo
                .net
                .transfer(d, e, params.sample_bytes, SimTime::ZERO, &mut rng)
                .expect("topology connected")
                .time()
            {
                Some(t) => break t,
                None => continue,
            }
        };
        lat_sum_ms += t.as_millis_f64();
    }
    let uplink_ms = lat_sum_ms / samples as f64;

    let secs = params.duration.as_secs_f64();
    let total_samples =
        (params.devices as u64) * params.samples_per_sec * secs as u64;
    let windows_per_device = (secs / params.window.as_secs_f64()).ceil() as u64;
    let total_aggregates = params.devices as u64 * windows_per_device;

    let raw = OffloadReport {
        uplink_bytes: total_samples * params.sample_bytes,
        cloud_cpu_us: total_samples * params.cloud_cpu_per_sample.as_micros(),
        device_cpu_us: 0,
        freshness_ms: uplink_ms,
        messages: total_samples,
    };
    let offloaded = OffloadReport {
        uplink_bytes: total_aggregates * params.aggregate_bytes,
        cloud_cpu_us: total_aggregates * params.cloud_cpu_per_aggregate.as_micros(),
        device_cpu_us: total_samples * params.device_cpu_per_sample.as_micros(),
        // Batching delays data by half a window on average.
        freshness_ms: uplink_ms + params.window.as_millis_f64() / 2.0,
        messages: total_aggregates,
    };
    (raw, offloaded)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offload_slashes_uplink_and_cloud_cpu() {
        let (raw, off) = run(&OffloadParams::default());
        assert!(
            off.uplink_bytes * 5 < raw.uplink_bytes,
            "uplink {} vs {}",
            off.uplink_bytes,
            raw.uplink_bytes
        );
        assert!(off.cloud_cpu_us * 5 < raw.cloud_cpu_us);
        assert!(off.messages < raw.messages);
    }

    #[test]
    fn offload_costs_device_cpu_and_freshness() {
        let (raw, off) = run(&OffloadParams::default());
        assert_eq!(raw.device_cpu_us, 0);
        assert!(off.device_cpu_us > 0);
        assert!(off.freshness_ms > raw.freshness_ms, "batching delays freshness");
    }

    #[test]
    fn window_size_trades_bytes_for_freshness() {
        let small = OffloadParams { window: SimDuration::from_millis(100), ..Default::default() };
        let large = OffloadParams { window: SimDuration::from_secs(2), ..Default::default() };
        let (_, off_small) = run(&small);
        let (_, off_large) = run(&large);
        assert!(off_large.uplink_bytes < off_small.uplink_bytes);
        assert!(off_large.freshness_ms > off_small.freshness_ms);
    }
}
